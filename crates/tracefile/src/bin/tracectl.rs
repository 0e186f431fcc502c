//! `hytlb-tracectl` — record, inspect and verify trace files.
//!
//! ```text
//! hytlb-tracectl record  --workload gups --accesses 1000000 --out gups.htr2
//! hytlb-tracectl record  --workload mcf  --accesses 500000  --store corpus/
//! hytlb-tracectl info    gups.htr2
//! hytlb-tracectl verify  gups.htr2
//! hytlb-tracectl cat     gups.htr2 --limit 20
//! ```
//!
//! `verify` exits non-zero on any corruption, so it works as a CI
//! gate. `record --store` writes into a [`TraceStore`] corpus
//! directory (manifest + per-workload files) that the simulator can
//! replay from.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

use hytlb_trace::WorkloadKind;
use hytlb_tracefile::{verify, TraceFile, TraceMeta, TraceReader, TraceStore, TraceWriter};

const USAGE: &str = "\
hytlb-tracectl — record, inspect and verify HYTLBTR2 trace files

USAGE:
  hytlb-tracectl record --workload <label> --accesses <n>
                        (--out <file> | --store <dir>)
                        [--footprint-pages <n>] [--seed <n>] [--block-accesses <n>]
  hytlb-tracectl info <file>
  hytlb-tracectl verify <file>
  hytlb-tracectl cat <file> [--limit <n>]

Workload labels are the simulator's (gups, mcf, graph500, …).
--footprint-pages and --seed default to the workload's defaults (seed 42).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

enum CliError {
    /// Bad invocation: exit 2.
    Usage(String),
    /// The operation itself failed (I/O, corruption): exit 1.
    Failed(String),
}

impl From<hytlb_tracefile::TraceFileError> for CliError {
    fn from(e: hytlb_tracefile::TraceFileError) -> Self {
        CliError::Failed(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Failed(e.to_string())
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("no subcommand".into()));
    };
    let rest = &args[1..];
    match command.as_str() {
        "record" => record(rest),
        "info" => info(rest),
        "verify" => verify_cmd(rest),
        "cat" => cat(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}

/// `--flag value` pairs pulled out of the argument list.
type Flags = Vec<(String, String)>;

/// Splits `args` into `--flag value` pairs and positional operands.
fn parse_flags(args: &[String]) -> Result<(Flags, Vec<String>), CliError> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(name) = arg.strip_prefix("--") {
            let Some(value) = args.get(i + 1) else {
                return Err(CliError::Usage(format!("--{name} needs a value")));
            };
            flags.push((name.to_string(), value.clone()));
            i += 2;
        } else {
            positional.push(arg.clone());
            i += 1;
        }
    }
    Ok((flags, positional))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

fn parse_u64(flags: &[(String, String)], name: &str) -> Result<Option<u64>, CliError> {
    match flag(flags, name) {
        None => Ok(None),
        Some(text) => text
            .parse::<u64>()
            .map(Some)
            .map_err(|_| CliError::Usage(format!("--{name} wants an integer, got `{text}`"))),
    }
}

fn parse_block(flags: &[(String, String)]) -> Result<Option<u32>, CliError> {
    match flag(flags, "block-accesses") {
        None => Ok(None),
        Some(text) => text.parse::<u32>().map(Some).map_err(|_| {
            CliError::Usage(format!("--block-accesses wants an integer, got `{text}`"))
        }),
    }
}

fn record(args: &[String]) -> Result<(), CliError> {
    let (flags, positional) = parse_flags(args)?;
    if let Some(extra) = positional.first() {
        return Err(CliError::Usage(format!("record takes no positional argument `{extra}`")));
    }
    let label = flag(&flags, "workload")
        .ok_or_else(|| CliError::Usage("record needs --workload".into()))?;
    let workload = WorkloadKind::from_label(label).ok_or_else(|| {
        let known: Vec<&str> = WorkloadKind::all().iter().map(|w| w.label()).collect();
        CliError::Usage(format!("unknown workload `{label}` (known: {})", known.join(", ")))
    })?;
    let accesses = parse_u64(&flags, "accesses")?
        .ok_or_else(|| CliError::Usage("record needs --accesses".into()))?;
    let footprint_pages =
        parse_u64(&flags, "footprint-pages")?.unwrap_or_else(|| workload.default_footprint_pages());
    let seed = parse_u64(&flags, "seed")?.unwrap_or(42);
    let block = parse_block(&flags)?;
    let take = usize::try_from(accesses)
        .map_err(|_| CliError::Usage("--accesses does not fit this platform".into()))?;
    let generated = workload.generator(footprint_pages, seed).take(take);

    let summary = match (flag(&flags, "out"), flag(&flags, "store")) {
        (Some(path), None) => {
            let mut meta = TraceMeta::new(workload.label(), footprint_pages, seed);
            if let Some(block) = block {
                meta.block_accesses = block;
            }
            let mut writer = TraceWriter::new(BufWriter::new(File::create(path)?), &meta)?;
            writer.extend(generated)?;
            let summary = writer.finish()?;
            println!("recorded {path}");
            summary
        }
        (None, Some(dir)) => {
            let mut store = TraceStore::open_or_create(dir)?;
            let summary = store.record_with_block(
                workload.label(),
                footprint_pages,
                seed,
                block,
                generated,
            )?;
            let entry =
                store.find(workload.label(), footprint_pages, seed).expect("entry just recorded");
            println!("recorded {dir}/{}", entry.path);
            summary
        }
        (Some(_), Some(_)) => {
            return Err(CliError::Usage("record wants --out or --store, not both".into()));
        }
        (None, None) => {
            return Err(CliError::Usage("record needs --out <file> or --store <dir>".into()));
        }
    };
    println!("  workload={} footprint_pages={footprint_pages} seed={seed}", workload.label());
    println!(
        "  accesses={} blocks={} bytes={} ratio={:.2}x vs raw u64",
        summary.accesses,
        summary.blocks,
        summary.bytes,
        summary.compression_ratio()
    );
    Ok(())
}

fn one_positional(
    args: &[String],
    command: &str,
) -> Result<(String, Vec<(String, String)>), CliError> {
    let (flags, positional) = parse_flags(args)?;
    match positional.as_slice() {
        [path] => Ok((path.clone(), flags)),
        _ => Err(CliError::Usage(format!("{command} takes exactly one file argument"))),
    }
}

fn info(args: &[String]) -> Result<(), CliError> {
    let (path, _) = one_positional(args, "info")?;
    let file = TraceFile::open(&path)?;
    let info = file.info();
    println!("{path}");
    println!(
        "  workload={} footprint_pages={} seed={}",
        info.workload, info.footprint_pages, info.seed
    );
    println!(
        "  accesses={} blocks={} (≤{} accesses each)",
        info.accesses, info.blocks, info.block_accesses
    );
    println!(
        "  bytes={} ({:.3} bytes/access, {:.2}x smaller than raw u64)",
        info.file_bytes,
        if info.accesses == 0 { 0.0 } else { info.file_bytes as f64 / info.accesses as f64 },
        info.compression_ratio
    );
    Ok(())
}

fn verify_cmd(args: &[String]) -> Result<(), CliError> {
    let (path, _) = one_positional(args, "verify")?;
    let report = verify(BufReader::new(File::open(&path)?))?;
    println!(
        "{path}: ok — {} accesses in {} blocks, {} bytes, all CRCs and the seek index check out",
        report.accesses, report.blocks, report.bytes
    );
    Ok(())
}

fn cat(args: &[String]) -> Result<(), CliError> {
    let (flags, positional) = parse_flags(args)?;
    let [path] = positional.as_slice() else {
        return Err(CliError::Usage("cat takes exactly one file argument".into()));
    };
    let limit = parse_u64(&flags, "limit")?;
    let reader = TraceReader::new(BufReader::new(File::open(path)?))?;
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    for (printed, address) in reader.addresses().enumerate() {
        if limit.is_some_and(|l| printed as u64 >= l) {
            break;
        }
        writeln!(out, "{:#014x}", address?)?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing_pairs_and_positionals() {
        let args = strings(&["--workload", "gups", "file.htr2", "--seed", "7"]);
        let (flags, positional) = parse_flags(&args).ok().unwrap();
        assert_eq!(flag(&flags, "workload"), Some("gups"));
        assert_eq!(flag(&flags, "seed"), Some("7"));
        assert_eq!(positional, vec!["file.htr2"]);
    }

    #[test]
    fn missing_flag_value_is_a_usage_error() {
        assert!(matches!(parse_flags(&strings(&["--seed"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_subcommand_is_a_usage_error() {
        assert!(matches!(run(&strings(&["frobnicate"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    }
}
