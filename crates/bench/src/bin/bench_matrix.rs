//! Wall-clock benchmark of the parallel matrix driver against the serial
//! reference, with a bit-identity check over every cell.
//!
//! Runs the Figure 9 evaluation matrix (all scenarios × all workloads ×
//! the six paper schemes) two ways:
//!
//! 1. **serial reference** —
//!    [`run_suite_serial`](hytlb_sim::experiment::run_suite_serial): plain
//!    nested loops, one resolved trace per row;
//! 2. **parallel** —
//!    [`try_run_matrix_with`](hytlb_sim::try_run_matrix_with): memoized
//!    inputs on the bounded worker pool.
//!
//! Both drive the same chunked `access_batch` loop and must agree
//! cell-for-cell; `results/BENCH_matrix.json` records the min-of-3
//! timings, throughputs, the speedup of (2) over (1), and the cache's
//! exactly-once build counters.
//!
//! ```sh
//! cargo run --release --bin bench_matrix -- --quick
//! HYTLB_THREADS=4 cargo run --release --bin bench_matrix
//! ```

use hytlb_bench::{banner, config_from_args, emit, exit_usage, min_of};
use hytlb_mem::Scenario;
use hytlb_sim::experiment::{run_suite_serial, SuiteResult};
use hytlb_sim::matrix::{try_run_matrix_with, worker_count, MatrixCache};
use hytlb_sim::{SchemeKind, SimError};
use hytlb_trace::WorkloadKind;

/// Timed rounds per path; the minimum is reported.
const ROUNDS: usize = 3;

fn main() -> Result<(), SimError> {
    let (config, _) = config_from_args(&[]).unwrap_or_else(|e| exit_usage(&e));
    banner("BENCH: parallel matrix driver vs serial reference", &config);

    let scenarios = Scenario::all();
    let workloads = WorkloadKind::all();
    let kinds = SchemeKind::paper_set();
    let cells = scenarios.len() * workloads.len() * kinds.len();
    let threads = worker_count(&config);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    eprintln!("{cells} cells through the serial reference, {ROUNDS} rounds ...");
    let (serial, serial_s) = min_of(ROUNDS, || {
        scenarios
            .iter()
            .map(|&s| run_suite_serial(s, &workloads, &kinds, &config))
            .collect::<Result<Vec<SuiteResult>, SimError>>()
    });
    // A fresh cache per round, so every parallel timing pays the
    // exactly-once generation cost just like the serial path does.
    eprintln!("{cells} cells on {threads} worker threads, {ROUNDS} rounds ...");
    let ((parallel, cache_stats), parallel_s) = min_of(ROUNDS, || {
        let cache = MatrixCache::new();
        (try_run_matrix_with(&cache, &scenarios, &workloads, &kinds, &config), cache.stats())
    });

    assert_eq!(parallel?, serial?, "parallel matrix must be bit-identical to the serial reference");
    let rows = scenarios.len() * workloads.len();
    assert_eq!(
        (cache_stats.mapping_builds, cache_stats.trace_builds, cache_stats.resolved_builds),
        (rows, workloads.len(), rows),
        "one mapping and one resolved trace per (workload, scenario), one trace per workload"
    );

    let speedup = serial_s / parallel_s.max(1e-9);
    let total_accesses = (cells as u64) * config.accesses;
    let serial_aps = total_accesses as f64 / serial_s.max(1e-9);
    let parallel_aps = total_accesses as f64 / parallel_s.max(1e-9);
    let text = format!(
        "cells: {cells} ({} scenarios x {} workloads x {} schemes)\n\
         worker threads: {threads} (of {cores} available cores)\n\
         serial reference: {serial_s:.2} s ({:.1} M accesses/s)\n\
         parallel:         {parallel_s:.2} s ({:.1} M accesses/s)\n\
         speedup over serial: {speedup:.2}x\n\
         bit-identical to the serial reference: yes\n\
         mappings generated: {} (exactly one per workload x scenario)\n\
         traces generated:   {} (exactly one per workload)\n\
         resolved traces:    {} (exactly one per workload x scenario)\n",
        scenarios.len(),
        workloads.len(),
        kinds.len(),
        serial_aps / 1e6,
        parallel_aps / 1e6,
        cache_stats.mapping_builds,
        cache_stats.trace_builds,
        cache_stats.resolved_builds,
    );
    let json = serde_json::json!({
        "cells": cells,
        "scenarios": scenarios.len(),
        "workloads": workloads.len(),
        "schemes": kinds.len(),
        "accesses_per_cell": config.accesses,
        "threads": threads,
        "available_cores": cores,
        "rounds": ROUNDS,
        "serial_reference_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": speedup,
        "accesses_per_sec": serde_json::json!({
            "serial_reference": serial_aps,
            "parallel": parallel_aps,
        }),
        "bit_identical": true,
        "mapping_builds": cache_stats.mapping_builds,
        "trace_builds": cache_stats.trace_builds,
        "resolved_builds": cache_stats.resolved_builds,
    });
    emit("BENCH_matrix", &text, &serde_json::to_string_pretty(&json).expect("serializable"));
    Ok(())
}
