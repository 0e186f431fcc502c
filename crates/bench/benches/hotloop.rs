//! Single-cell hot-loop throughput: the chunked, pre-resolved batch loop,
//! per scheme.
//!
//! For one (workload, scenario) cell this times the trace resolution (paid
//! once per cell) and then each paper scheme's run over the resolved trace
//! through [`Machine::try_run_resolved`]. Every time is the minimum over
//! [`ROUNDS`] runs; each run gets a freshly built machine, and building it
//! is not timed. Results go to `results/BENCH_hotloop.{txt,json}`.
//!
//! ```sh
//! cargo bench -p hytlb-bench --bench hotloop
//! cargo bench -p hytlb-bench --bench hotloop -- --quick
//! ```

use hytlb_bench::Bench;
use hytlb_mem::Scenario;
use hytlb_sim::{Machine, PaperConfig, SchemeKind};
use hytlb_trace::WorkloadKind;
use std::sync::Arc;

/// Timed rounds per scheme; the minimum is reported.
const ROUNDS: usize = 5;

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

    let mut bench = Bench::new("hotloop", ROUNDS);
    println!("{workload} / {scenario}, {} accesses per run", config.accesses);
    let resolved = bench.run("resolve", config.accesses, || index.resolve(&trace));
    for kind in SchemeKind::paper_set() {
        let mut machines: Vec<Machine> =
            (0..ROUNDS).map(|_| Machine::for_scheme_indexed(kind, &map, &index, &config)).collect();
        let mut next = machines.iter_mut();
        bench.run(&kind.label(), config.accesses, || {
            let machine = next.next().expect("one machine per round");
            machine.try_run_resolved(&resolved).expect("mapped trace")
        });
    }
    bench.finish();
}
