//! One benchmark run: set-up, the simulated matrix and its checks, timed
//! untraced; or, for the traced run, the same workload once untraced and
//! once with spans, followed by the per-layer measurements.

use crate::args::Args;
use crate::golden::{self, CellOut};
use crate::layers;
use crate::plan::{Plan, Scale};
use crate::spans::Tracer;
use hytlb_sim::experiment::SuiteResult;
use hytlb_sim::matrix::{run_matrix_with_static_ideal, try_run_matrix_with};
use hytlb_sim::{Machine, MatrixCache, PaperConfig, RunStats, SchemeKind};
use hytlb_tracefile::TraceStore;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Extra set-ups before the first timed one, so that `setup_s` is a median
/// over at least this many plus one even when a single pass fills the run.
const WARMUP_SETUPS: usize = 4;

/// What the benchmark prints as its last line.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Cells simulated (and layer cross-checks made).
    pub attempted: u64,
    /// Cells and cross-checks that failed.
    pub failed: u64,
    /// `(name, value, unit)`, in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { value.to_string() } else { "null".to_owned() };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where the benchmark writes spans, digests and its temporary trace
/// stores: `out/` beside this package's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory under [`out_dir`] removed again on drop.
#[derive(Debug)]
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates a fresh, uniquely named directory.
    pub fn new(tag: &str) -> Result<Self, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every input of a plan, built before the first simulated access.
#[derive(Debug)]
pub struct Inputs {
    /// Mappings, page indices, traces and resolved traces, memoized.
    pub cache: MatrixCache,
    _corpus: Option<TempDir>,
}

/// Builds the plan's inputs: mappings and page indices, traces (generated,
/// or recorded to a fresh trace store and decoded from it), and resolved
/// traces.
pub fn setup(plan: &Plan, t: &mut Tracer) -> Result<Inputs, String> {
    let config = &plan.config;
    t.span("setup", |t| {
        let (cache, corpus) = if plan.corpus {
            let dir = TempDir::new("corpus")?;
            let mut store = TraceStore::open_or_create(&dir.0).map_err(|e| e.to_string())?;
            let (written, _) = t.span("setup.record", |_| {
                MatrixCache::new().spill_traces(&mut store, &plan.workloads, config)
            });
            if written.map_err(|e| e.to_string())? != plan.workloads.len() {
                return Err("the fresh trace store already held a trace".to_owned());
            }
            (MatrixCache::with_corpus(Arc::new(store)), Some(dir))
        } else {
            (MatrixCache::new(), None)
        };
        for &scenario in &plan.scenarios {
            for &workload in &plan.workloads {
                t.span("setup.mapping", |_| cache.mapping(workload, scenario, config));
                t.span("setup.trace", |_| cache.try_trace(workload, config))
                    .0
                    .map_err(|e| e.to_string())?;
                t.span("setup.resolve", |_| cache.try_resolved_trace(workload, scenario, config))
                    .0
                    .map_err(|e| e.to_string())?;
            }
        }
        let stats = cache.stats();
        if plan.corpus && (stats.trace_builds != 0 || stats.trace_loads != plan.workloads.len()) {
            return Err(format!("corpus replay generated traces instead of decoding: {stats:?}"));
        }
        Ok(Inputs { cache, _corpus: corpus })
    })
    .0
}

/// A cell's `scenario/workload/column` key.
pub fn key(scenario: &str, workload: &str, column: &str) -> String {
    format!("{scenario}/{workload}/{column}")
}

fn flatten(suites: &[SuiteResult]) -> Vec<CellOut> {
    let mut cells = Vec::new();
    for suite in suites {
        for row in &suite.rows {
            for (column, run) in suite.schemes.iter().zip(&row.runs) {
                cells.push(CellOut {
                    key: key(suite.scenario.label(), row.workload.label(), column),
                    stats: run.clone(),
                });
            }
        }
    }
    cells
}

/// The untraced run phase: the matrix through the simulator's own matrix runner
/// on one worker (`config.threads` is 1).
pub fn run_matrix(plan: &Plan, inputs: &Inputs) -> Result<Vec<CellOut>, String> {
    let (cache, config) = (&inputs.cache, &plan.config);
    let suites = if plan.sweep.is_empty() {
        try_run_matrix_with(cache, &plan.scenarios, &plan.workloads, &plan.schemes, config)
            .map_err(|e| e.to_string())?
    } else {
        // No `try_` form exists for the static-ideal matrix yet; a failing
        // cell panics inside it.
        catch_unwind(AssertUnwindSafe(|| {
            run_matrix_with_static_ideal(
                cache,
                &plan.scenarios,
                &plan.workloads,
                &plan.schemes,
                &plan.sweep,
                config,
            )
        }))
        .map_err(|_| "a cell of the static-ideal matrix failed".to_owned())?
    };
    Ok(flatten(&suites))
}

/// Host time of one cell of the traced run.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// The scheme that ran.
    pub kind: SchemeKind,
    /// `Machine::for_scheme_indexed`.
    pub build: Duration,
    /// `Machine::try_run_resolved`.
    pub run: Duration,
    /// What the cell reported.
    pub stats: RunStats,
}

/// Builds and runs one cell inside `sim.build.<scheme>` / `sim.run.<scheme>`
/// spans.
pub fn timed_cell(
    kind: SchemeKind,
    cell: (hytlb_trace::WorkloadKind, hytlb_mem::Scenario),
    cache: &MatrixCache,
    config: &PaperConfig,
    t: &mut Tracer,
) -> Result<CellTiming, String> {
    let (workload, scenario) = cell;
    let label = kind.label();
    let shared = cache.mapping(workload, scenario, config);
    let resolved =
        cache.try_resolved_trace(workload, scenario, config).map_err(|e| e.to_string())?;
    let (mut machine, build) = t.span(format!("sim.build.{label}"), |_| {
        Machine::for_scheme_indexed(kind, &shared.map, &shared.index, config)
    });
    let (stats, run) = t.span(format!("sim.run.{label}"), |_| machine.try_run_resolved(&resolved));
    let stats =
        stats.map_err(|e| e.in_cell(scenario.label(), workload.label(), &label).to_string())?;
    Ok(CellTiming { kind, build, run, stats })
}

/// The same cells as [`run_matrix`], one by one, with a span around each
/// scheme build and access loop and the static-ideal column folded as the
/// matrix runner folds it (first minimum of walks). Returns each cell's
/// host time as well.
pub fn run_cells(
    plan: &Plan,
    inputs: &Inputs,
    t: &mut Tracer,
) -> Result<(Vec<CellOut>, Vec<CellTiming>), String> {
    let mut kinds = plan.schemes.clone();
    kinds.extend(plan.sweep.iter().map(|&d| SchemeKind::AnchorStatic(d)));
    let mut cells = Vec::new();
    let mut timings = Vec::new();
    t.span("run", |t| {
        for &scenario in &plan.scenarios {
            for &workload in &plan.workloads {
                let mut runs = Vec::with_capacity(kinds.len());
                for &kind in &kinds {
                    let timing =
                        timed_cell(kind, (workload, scenario), &inputs.cache, &plan.config, t)?;
                    runs.push(timing.stats.clone());
                    timings.push(timing);
                }
                let sweep = runs.split_off(plan.schemes.len());
                let mut columns: Vec<(String, RunStats)> =
                    plan.schemes.iter().map(|k| k.label()).zip(runs).collect();
                if let Some(best) = sweep.into_iter().min_by_key(RunStats::tlb_misses) {
                    columns.push(("Static Ideal".to_owned(), best));
                }
                for (column, stats) in columns {
                    cells.push(CellOut {
                        key: key(scenario.label(), workload.label(), &column),
                        stats,
                    });
                }
            }
        }
        Ok::<(), String>(())
    })
    .0?;
    Ok((cells, timings))
}

/// Checks one pass's cells; returns how many failed. With `golden`, every
/// cell must match its committed digest; with `reference`, every cell must
/// equal the reference pass's.
fn check(
    plan: &Plan,
    cells: &[CellOut],
    golden: Option<&str>,
    reference: Option<&[CellOut]>,
) -> u64 {
    let mut failed = golden::broken_invariants(cells, &plan.config);
    if let Some(golden) = golden {
        failed += golden::mismatches(cells, golden);
    }
    if let Some(reference) = reference {
        failed += cells.len().abs_diff(reference.len()) as u64;
        failed += cells.iter().zip(reference).filter(|(a, b)| a != b).count() as u64;
    }
    failed
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Writes the digest file of a pass and prints its combined digest, so two
/// commits can be compared for equality at any seed.
fn publish_digest(args: &Args, cells: &[CellOut]) {
    let tiny = if args.scale == Scale::Tiny { "-tiny" } else { "" };
    let path = out_dir().join(format!("digest-{}-s{}{tiny}.txt", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, golden::render(cells)));
    eprintln!(
        "digest {} seed {}: {:016x} over {} cells ({})",
        args.workload.name(),
        args.seed,
        golden::combined(cells),
        cells.len(),
        match written {
            Ok(()) => path.display().to_string(),
            Err(e) => format!("not written: {e}"),
        }
    );
}

fn golden_for(args: &Args) -> Option<&'static str> {
    (args.seed == PaperConfig::default().seed && args.scale == Scale::Full)
        .then(|| golden::committed(args.workload))
}

/// The untraced run: set-up several times, then passes until
/// `args.seconds` have elapsed.
///
/// Host speed in a shared sandbox drifts by tens of percent over tens of
/// seconds, so the time figures are min-of-N: `wall_s` is the fastest
/// pass, and `accesses_per_s` divides a pass's accesses by the sum over
/// cells of each cell's fastest build plus access loop. `setup_s` is the
/// median set-up.
pub fn untraced(args: &Args) -> Result<Outcome, String> {
    let plan = args.workload.plan(args.seed, args.scale);
    let golden = golden_for(args);
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let mut fastest: Vec<f64> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<Vec<CellOut>> = None;
    let mut off = Tracer::new(false);
    for _ in 0..WARMUP_SETUPS {
        let start = Instant::now();
        drop(setup(&plan, &mut off)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    loop {
        let start = Instant::now();
        let inputs = setup(&plan, &mut off)?;
        setups.push(start.elapsed().as_secs_f64());
        attempted += plan.cells();
        let (cells, timings) = match run_cells(&plan, &inputs, &mut off) {
            Ok(done) => done,
            Err(e) => {
                eprintln!("run failed: {e}");
                failed += plan.cells();
                break;
            }
        };
        failed += check(&plan, &cells, golden, first.as_deref());
        walls.push(start.elapsed().as_secs_f64());
        let times = timings.iter().map(|c| (c.build + c.run).as_secs_f64());
        if fastest.is_empty() {
            fastest = times.collect();
        } else {
            fastest.iter_mut().zip(times).for_each(|(best, t)| *best = best.min(t));
        }
        first.get_or_insert(cells);
        // Freeing the inputs is not part of a pass.
        drop(inputs);
        if started.elapsed() >= budget {
            break;
        }
    }
    let peak = peak_rss_mib()?;
    if let Some(cells) = &first {
        publish_digest(args, cells);
    }
    let run: f64 = fastest.iter().sum();
    eprintln!(
        "{}: {} passes; wall_s per pass {}; setup_s over {} set-ups: median {:.6}, max {:.6}; \
         fastest run phase {run:.6} s",
        plan.workload.name(),
        walls.len(),
        walls.iter().map(|w| format!("{w:.4}")).collect::<Vec<_>>().join(" "),
        setups.len(),
        median(&mut setups),
        setups.iter().copied().fold(0.0, f64::max),
    );
    let wall = walls.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(Outcome {
        correct: failed == 0 && first.is_some(),
        attempted,
        failed,
        metrics: vec![
            ("wall_s".to_owned(), wall, "s"),
            ("setup_s".to_owned(), median(&mut setups), "s"),
            ("accesses_per_s".to_owned(), plan.accesses() as f64 / run, "accesses/s"),
            ("peak_rss_mib".to_owned(), peak, "MiB"),
        ],
    })
}

/// The traced run: one untraced pass, one pass with spans, then the
/// per-layer measurements. Writes the spans and prints the self-time table.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let plan = args.workload.plan(args.seed, args.scale);
    let golden = golden_for(args);
    let mut attempted = 0;
    let mut failed = 0;

    // The untraced pass goes through the matrix runner itself; the traced
    // pass must reproduce its output bit for bit.
    let start = Instant::now();
    let inputs = setup(&plan, &mut Tracer::new(false))?;
    let reference = run_matrix(&plan, &inputs)?;
    attempted += plan.cells();
    failed += check(&plan, &reference, golden, None);
    let untraced_wall = start.elapsed();
    drop(inputs);

    let mut t = Tracer::new(true);
    let (traced, traced_wall) = t.span("workload", |t| {
        let inputs = setup(&plan, t)?;
        let (cells, timings) = run_cells(&plan, &inputs, t)?;
        let (failed, _) = t.span("check", |_| check(&plan, &cells, golden, Some(&reference)));
        Ok::<_, String>((inputs, cells, timings, failed))
    });
    let (inputs, cells, timings, traced_failed) = traced?;
    attempted += plan.cells();
    failed += traced_failed;

    let (layers, _) = t.span("layers", |t| layers::measure(&plan, &inputs, &cells, &timings, t));
    let layers = layers?;
    attempted += layers.checks;
    failed += layers.failed;
    let mut metrics = layers.metrics;
    metrics.push((
        "tracing.overhead_s".to_owned(),
        traced_wall.as_secs_f64() - untraced_wall.as_secs_f64(),
        "s",
    ));

    let path = out_dir().join(format!("spans-{}-s{}.json", args.workload.name(), args.seed));
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, t.to_json())) {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written: {e}"),
    }
    eprint!("{}", t.table());
    Ok(Outcome { correct: failed == 0, attempted, failed, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Workload;

    #[test]
    fn traced_cells_equal_the_matrix_runner() {
        for workload in [Workload::Fig9Quick, Workload::CorpusReplay] {
            let plan = workload.plan(5, Scale::Tiny);
            let inputs = setup(&plan, &mut Tracer::new(false)).unwrap();
            let untraced = run_matrix(&plan, &inputs).unwrap();
            let (traced, timings) = run_cells(&plan, &inputs, &mut Tracer::new(true)).unwrap();
            assert_eq!(traced, untraced, "{workload:?}");
            assert_eq!(timings.len() as u64, plan.cells());
            assert_eq!(check(&plan, &traced, None, Some(&untraced)), 0);
        }
    }

    #[test]
    fn outcome_json_has_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s".to_owned(), 1.25, "s"), ("x".to_owned(), f64::NAN, "s")],
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
