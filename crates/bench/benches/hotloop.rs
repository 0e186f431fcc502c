//! Single-cell hot-loop throughput: the devirtualized, batched, pre-resolved
//! inner loop against the boxed scalar path it replaced, per scheme.
//!
//! For one (workload, scenario) cell this times two ways of running the same
//! trace through every paper scheme:
//!
//! * **scalar/boxed** — the pre-optimization shape: a `Box<dyn
//!   TranslationScheme>` behind the scalar per-access loop, with the machine
//!   rebuilding its own placement index (one virtual call per access, plus
//!   logical→virtual resolution inline).
//! * **batched/resolved** — the optimized shape: the trace resolved to
//!   virtual addresses once, then replayed through the enum-dispatched
//!   `access_batch` chunks with a shared placement index.
//!
//! Both runs must produce bit-identical stats; the bench asserts it. Each
//! time is the minimum over [`ROUNDS`] rounds; a round builds fresh
//! machines and runs both loop shapes.
//! Results go to `results/BENCH_hotloop.{txt,json}` with per-scheme and
//! aggregate `accesses_per_sec`.
//!
//! ```sh
//! cargo bench -p hytlb-bench --bench hotloop
//! cargo bench -p hytlb-bench --bench hotloop -- --quick
//! ```

use hytlb_bench::emit;
use hytlb_mem::Scenario;
use hytlb_sim::{Machine, PaperConfig, SchemeKind};
use hytlb_trace::WorkloadKind;
use std::sync::Arc;
use std::time::Instant;

/// Timed rounds per scheme and loop shape; the minimum is reported.
const ROUNDS: usize = 5;

/// Per-scheme measurement: wall-clock seconds for both loop shapes.
struct Row {
    label: String,
    scalar_s: f64,
    batched_s: f64,
}

fn main() {
    // `cargo bench` appends harness flags (`--bench`); only `--quick` is
    // ours, everything else is ignored.
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        PaperConfig { accesses: 200_000, footprint_shift: 4, ..PaperConfig::default() }
    } else {
        PaperConfig { accesses: 1_000_000, footprint_shift: 2, ..PaperConfig::default() }
    };
    let workload = WorkloadKind::Canneal;
    let scenario = Scenario::MediumContiguity;

    let footprint = config.footprint_for(workload);
    let map = Arc::new(scenario.generate(footprint, config.seed));
    let index = Arc::new(map.page_index());
    let trace: Vec<u64> =
        workload.generator(footprint, config.seed).take(config.accesses as usize).collect();

    let resolve_start = Instant::now();
    let resolved = index.resolve(&trace);
    let resolve_s = resolve_start.elapsed().as_secs_f64();

    println!(
        "== BENCH: single-cell hot loop ({workload} / {scenario}, {} accesses) ==\n",
        config.accesses
    );

    let mut rows = Vec::new();
    for kind in SchemeKind::paper_set() {
        let (mut scalar_s, mut batched_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..ROUNDS {
            // The pre-optimization shape: boxed scheme, scalar loop, private
            // index.
            let mut boxed = Machine::from_scheme(kind.build(&map, &config), &map, &config);
            let scalar_start = Instant::now();
            let scalar_stats = boxed.try_run(trace.iter().copied()).expect("mapped trace");
            scalar_s = scalar_s.min(scalar_start.elapsed().as_secs_f64());

            // The optimized shape: enum dispatch, batched loop, shared inputs.
            let mut machine = Machine::for_scheme_indexed(kind, &map, &index, &config);
            let batched_start = Instant::now();
            let batched_stats = machine.try_run_resolved(&resolved).expect("mapped trace");
            batched_s = batched_s.min(batched_start.elapsed().as_secs_f64());

            assert_eq!(batched_stats, scalar_stats, "{kind}: batched loop must be bit-identical");
        }
        rows.push(Row { label: kind.label(), scalar_s, batched_s });
    }

    let accesses = config.accesses as f64;
    let total_scalar: f64 = rows.iter().map(|r| r.scalar_s).sum();
    let total_batched: f64 = rows.iter().map(|r| r.batched_s).sum();
    let mut text = format!(
        "{:<10} {:>12} {:>12} {:>9}  {:>14}\n",
        "scheme", "scalar (s)", "batched (s)", "speedup", "batched acc/s"
    );
    let mut schemes_json = Vec::new();
    for row in &rows {
        let speedup = row.scalar_s / row.batched_s.max(1e-9);
        let aps = accesses / row.batched_s.max(1e-9);
        text.push_str(&format!(
            "{:<10} {:>12.3} {:>12.3} {:>8.2}x  {:>12.1} M\n",
            row.label,
            row.scalar_s,
            row.batched_s,
            speedup,
            aps / 1e6
        ));
        schemes_json.push(serde_json::json!({
            "scheme": row.label,
            "scalar_seconds": row.scalar_s,
            "batched_seconds": row.batched_s,
            "speedup": speedup,
            "accesses_per_sec": serde_json::json!({
                "scalar": accesses / row.scalar_s.max(1e-9),
                "batched": aps,
            }),
        }));
    }
    let agg_speedup = total_scalar / total_batched.max(1e-9);
    let agg_scalar_aps = accesses * rows.len() as f64 / total_scalar.max(1e-9);
    let agg_batched_aps = accesses * rows.len() as f64 / total_batched.max(1e-9);
    text.push_str(&format!(
        "\ntrace resolution (once per cell): {resolve_s:.3} s\n\
         aggregate: {total_scalar:.2} s scalar vs {total_batched:.2} s batched \
         ({agg_speedup:.2}x, {:.1} M accesses/s)\n\
         bit-identical to scalar reference: yes\n",
        agg_batched_aps / 1e6
    ));
    let json = serde_json::json!({
        "workload": workload.to_string(),
        "scenario": scenario.to_string(),
        "accesses": config.accesses,
        "rounds": ROUNDS,
        "resolve_seconds": resolve_s,
        "schemes": schemes_json,
        "aggregate_speedup": agg_speedup,
        "accesses_per_sec": serde_json::json!({
            "scalar": agg_scalar_aps,
            "batched": agg_batched_aps,
        }),
        "bit_identical": true,
    });
    emit("BENCH_hotloop", &text, &serde_json::to_string_pretty(&json).expect("serializable"));
}
