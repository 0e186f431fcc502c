//! Shared plumbing for the `regenerate` binary and `bench_matrix`.
//!
//! Both accept the same flags:
//!
//! * `--quick`   — tiny footprints and traces (seconds; shapes still hold)
//! * `--paper`   — full scale (the default is a middle ground)
//! * `--seed N`  — override the master seed
//! * `--accesses N` — override the trace length (at most
//!   [`MAX_ACCESSES`])
//!
//! Output goes to stdout and, as both text and JSON, into `results/`.
//!
//! The bench targets under `benches/` share one timing harness,
//! [`min_of`] and [`Bench`]: min-of-N wall-clock, reported as text and
//! JSON into `results/BENCH_<name>.{txt,json}`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hytlb_sim::{PaperConfig, MAX_ACCESSES};
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// The flags every binary accepts.
pub const USAGE: &str = "flags: --quick --paper --seed N --accesses N (N <= 134217728)";

/// Parses the common CLI flags into a [`PaperConfig`], returning it with
/// the positional arguments, each of which must be one of `names`. A
/// malformed or unknown flag or name is an `Err` naming it; see
/// [`exit_usage`].
pub fn config_from_args(names: &[&str]) -> Result<(PaperConfig, Vec<String>), String> {
    parse_config(std::env::args().skip(1), names)
}

fn parse_config(
    args: impl IntoIterator<Item = String>,
    names: &[&str],
) -> Result<(PaperConfig, Vec<String>), String> {
    let mut config =
        PaperConfig { accesses: 1_000_000, footprint_shift: 2, ..PaperConfig::default() };
    let mut picked = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                config.accesses = 200_000;
                config.footprint_shift = 4;
            }
            "--paper" => {
                config.accesses = 2_000_000;
                config.footprint_shift = 0;
            }
            "--seed" => {
                config.seed =
                    args.next().and_then(|v| v.parse().ok()).ok_or("--seed needs an integer")?;
            }
            "--accesses" => {
                config.accesses = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n <= MAX_ACCESSES)
                    .ok_or_else(|| format!("--accesses needs an integer <= {MAX_ACCESSES}"))?;
            }
            name if names.contains(&name) => picked.push(arg),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => return Err(format!("unknown name {other}; valid names: {}", names.join(" "))),
        }
    }
    Ok((config, picked))
}

/// Prints `error` and the flag summary to stderr and exits with status 2,
/// the conventional code for a bad invocation.
pub fn exit_usage(error: &str) -> ! {
    eprintln!("error: {error}\n{USAGE}");
    std::process::exit(2)
}

/// Prints a result and archives it under `results/<name>.txt` and
/// `results/<name>.json` (best-effort; failures to write are reported but
/// not fatal, so experiments still print on read-only checkouts).
pub fn emit(name: &str, text: &str, json: &str) {
    println!("{text}");
    // `cargo bench` runs with the package directory as CWD while `cargo
    // run` binaries inherit the invocation directory; anchor on the
    // workspace root so both land in the same `results/`.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("note: cannot create results/: {e}");
        return;
    }
    for (ext, body) in [("txt", text), ("json", json)] {
        let path = dir.join(format!("{name}.{ext}"));
        if let Err(e) = fs::write(&path, body) {
            eprintln!("note: cannot write {}: {e}", path.display());
        }
    }
}

/// Prints the experiment banner with the active configuration.
pub fn banner(experiment: &str, config: &PaperConfig) {
    println!(
        "== {experiment} ==\n   accesses/run: {}, footprint shift: {}, seed: {}\n",
        config.accesses, config.footprint_shift, config.seed
    );
}

use hytlb_mem::Scenario;
use hytlb_sim::experiment::{SuiteResult, WorkloadRow};
use hytlb_sim::matrix::{run_matrix_with_static_ideal, MatrixCache};
use hytlb_sim::SchemeKind;
use hytlb_trace::WorkloadKind;

/// The static-ideal candidate sweep of the paper matrix: one good
/// candidate per contiguity regime (exhaustive sweeps are available through
/// `hytlb_sim::experiment::static_ideal` with a custom candidate list).
#[must_use]
pub fn figure_static_sweep() -> Vec<u64> {
    vec![4, 32, 512, 4096, 65_536]
}

/// The paper matrix (Figure 9, and the figures and tables sliced from
/// it): the six paper schemes plus a trailing `Static Ideal` column, for
/// each of `workloads`, one suite per scenario. The whole matrix runs on
/// one worker pool, and each workload's mapping and trace are generated
/// exactly once per scenario; the cache holding them is dropped on return.
#[must_use]
pub fn per_benchmark_suites(
    scenarios: &[Scenario],
    workloads: &[WorkloadKind],
    config: &PaperConfig,
) -> Vec<SuiteResult> {
    let (kinds, sweep) = (SchemeKind::paper_set(), figure_static_sweep());
    run_matrix_with_static_ideal(&MatrixCache::new(), scenarios, workloads, &kinds, &sweep, config)
}

/// The columns `kinds` of `suite`, in that order. Every cell is simulated
/// independently, so this equals a suite run over just those columns.
///
/// # Panics
///
/// Panics if `suite` has no column for one of `kinds`.
#[must_use]
pub fn select_columns(suite: &SuiteResult, kinds: &[SchemeKind]) -> SuiteResult {
    let schemes: Vec<String> = kinds.iter().map(|k| k.label()).collect();
    let column = |l: &String| suite.schemes.iter().position(|s| s == l).expect("column in suite");
    let columns: Vec<usize> = schemes.iter().map(column).collect();
    let runs = |row: &WorkloadRow| columns.iter().map(|&c| row.runs[c].clone()).collect();
    let rows = suite.rows.iter().map(|r| WorkloadRow { workload: r.workload, runs: runs(r) });
    SuiteResult { scenario: suite.scenario, schemes, rows: rows.collect() }
}

/// Runs `f` `rounds` times and returns its last output with the smallest
/// elapsed wall-clock seconds. Every run is deterministic, so the minimum
/// discards scheduler and frequency noise without changing any result.
///
/// # Panics
///
/// Panics if `rounds` is zero.
pub fn min_of<T>(rounds: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(rounds > 0, "need at least one round");
    let mut best_s = f64::INFINITY;
    let mut value = None;
    for _ in 0..rounds {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        best_s = best_s.min(start.elapsed().as_secs_f64());
        value = Some(out);
    }
    (value.expect("rounds > 0"), best_s)
}

/// The timings of one bench target, emitted as
/// `results/BENCH_<name>.{txt,json}` by [`Bench::finish`].
#[derive(Debug)]
pub struct Bench {
    name: String,
    rounds: usize,
    text: String,
    rows: Vec<serde_json::Value>,
}

impl Bench {
    /// Starts the bench target `name`, timing each routine over `rounds`
    /// runs.
    #[must_use]
    pub fn new(name: &str, rounds: usize) -> Self {
        println!("== BENCH: {name} (min of {rounds}) ==");
        Bench { name: name.to_owned(), rounds, text: String::new(), rows: Vec::new() }
    }

    /// Times `f` with [`min_of`], records it under `label` and returns
    /// its last output. One run of `f` processes `elements` items
    /// (accesses, lookups, ...), from which ns/element and elements/s are
    /// derived.
    pub fn run<T>(&mut self, label: &str, elements: u64, f: impl FnMut() -> T) -> T {
        let (value, seconds) = min_of(self.rounds, f);
        let per_sec = elements as f64 / seconds.max(1e-12);
        let line = format!(
            "{label:<44} {:>12.3} ms {:>12.1} ns/elem {:>10.2} M elem/s",
            seconds * 1e3,
            seconds * 1e9 / elements.max(1) as f64,
            per_sec / 1e6
        );
        self.text.push_str(&line);
        self.text.push('\n');
        self.rows.push(serde_json::json!({
            "name": label,
            "min_seconds": seconds,
            "elements": elements,
            "elements_per_sec": per_sec,
        }));
        value
    }

    /// Prints the recorded timings and writes them to
    /// `results/BENCH_<name>.{txt,json}`.
    pub fn finish(self) {
        let json = serde_json::json!({
            "bench": self.name,
            "rounds": self.rounds,
            "results": self.rows,
        });
        let json = serde_json::to_string_pretty(&json).expect("serializable");
        emit(&format!("BENCH_{}", self.name), &self.text, &json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<PaperConfig, String> {
        parse_config(list.iter().map(|s| (*s).to_owned()), &[]).map(|(config, _)| config)
    }

    #[test]
    fn default_config_is_mid_scale() {
        let c = args(&[]).unwrap();
        assert_eq!((c.accesses, c.footprint_shift), (1_000_000, 2));
        assert!(c.footprint_for(hytlb_trace::WorkloadKind::Gups) > 4096);
    }

    #[test]
    fn flags_parse_and_bad_flags_are_errors() {
        let c = args(&["--quick", "--seed", "7"]).unwrap();
        assert_eq!((c.accesses, c.footprint_shift, c.seed), (200_000, 4, 7));
        assert!(args(&["--seed", "x"]).unwrap_err().contains("--seed"));
        assert!(args(&["--accesses"]).unwrap_err().contains("--accesses"));
        assert!(args(&["--frobnicate"]).unwrap_err().contains("--frobnicate"));
    }

    #[test]
    fn positional_arguments_must_be_known_names() {
        let valid = ["fig07_demand", "ablations"];
        let parse = |list: [&str; 3]| parse_config(list.map(str::to_owned), &valid);
        let (c, names) = parse(["ablations", "--quick", "fig07_demand"]).unwrap();
        assert_eq!(c.accesses, 200_000);
        assert_eq!(names, ["ablations", "fig07_demand"]);
        let err = parse(["ablations", "fig99", "--quick"]).unwrap_err();
        assert!(err.contains("fig99") && err.contains("fig07_demand ablations"), "{err}");
        assert!(args(&["ablations"]).unwrap_err().contains("ablations"));
    }

    /// The invariant the `regenerate` binary relies on when it slices
    /// Figure 2 and Tables 5–6 out of the paper matrix: a cell's
    /// `RunStats` never depends on which other columns share its matrix.
    #[test]
    fn selected_columns_equal_a_suite_of_just_those_columns() {
        use hytlb_sim::experiment::run_suite_serial;
        use SchemeKind::{AnchorDynamic, Baseline, Cluster, Rmm};
        let config = PaperConfig { accesses: 8_000, footprint_shift: 5, ..PaperConfig::default() };
        let scenarios = [Scenario::DemandPaging, Scenario::MediumContiguity];
        let workloads = [WorkloadKind::Gups, WorkloadKind::Omnetpp];
        let suites = per_benchmark_suites(&scenarios, &workloads, &config);
        for kinds in [&[Baseline, Cluster, Rmm][..], &[AnchorDynamic]] {
            for (suite, &scenario) in suites.iter().zip(&scenarios) {
                let alone = run_suite_serial(scenario, &workloads, kinds, &config).unwrap();
                assert_eq!(select_columns(suite, kinds), alone, "{scenario:?} {kinds:?}");
            }
        }
    }

    #[test]
    fn accesses_are_capped_at_the_shared_ceiling() {
        assert_eq!(
            args(&["--accesses", &MAX_ACCESSES.to_string()]).unwrap().accesses,
            MAX_ACCESSES
        );
        let over = (MAX_ACCESSES + 1).to_string();
        assert!(args(&["--accesses", &over]).unwrap_err().contains(&MAX_ACCESSES.to_string()));
        assert!(USAGE.contains(&MAX_ACCESSES.to_string()));
    }

    #[test]
    fn min_of_keeps_the_last_value() {
        let mut calls = 0;
        let (last, seconds) = min_of(3, || {
            calls += 1;
            calls
        });
        assert_eq!((last, calls), (3, 3));
        assert!(seconds >= 0.0);
    }
}
