//! Command-line parsing. Every malformed argument is an `Err` with a
//! message; nothing here panics.

use crate::plan::{Scale, Workload};

/// The usage line printed with every argument error.
pub const USAGE: &str =
    "usage: hytlb-perfbench --workload <fig9-quick|tlb-hot|walk-heavy|corpus-replay> \
                         [--seed N] [--seconds N] [--trace 0|1] [--scale full|tiny]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Master seed every input derives from.
    pub seed: u64,
    /// Measurement budget of an untraced run, in seconds (at least 1).
    pub seconds: u64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Input size: the benchmark's own scale, or a tiny one for tests.
    pub scale: Scale,
}

/// Parses `--flag value` pairs.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = hytlb_sim::PaperConfig::default().seed;
    let mut seconds = 10;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number(&flag, &value)?,
            "--seconds" => {
                seconds = number(&flag, &value)?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale takes full or tiny, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, scale })
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value.parse().map_err(|_| format!("{flag} needs a non-negative integer, not {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn full_line_parses() {
        let args = parse_str("--workload tlb-hot --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::TlbHot);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
        assert_eq!(args.scale, Scale::Full);
    }

    #[test]
    fn malformed_lines_are_errors() {
        for line in [
            "",
            "--workload",
            "--workload nope",
            "--workload tlb-hot --seed x",
            "--workload tlb-hot --seed -1",
            "--workload tlb-hot --seconds 0",
            "--workload tlb-hot --trace 2",
            "--workload tlb-hot --scale huge",
            "--workload tlb-hot --bogus 1",
        ] {
            assert!(parse_str(line).is_err(), "{line:?} should be rejected");
        }
    }
}
