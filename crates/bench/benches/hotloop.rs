//! Single-cell hot-loop throughput: scheme build and the chunked,
//! pre-resolved batch loop, per scheme.
//!
//! For each of two (workload, scenario) cells this times the trace
//! resolution (paid once per cell), then per paper scheme the machine
//! build (`build.<scheme>`: page table, TLB arrays, OS set-up) and the run
//! over the resolved trace through [`Machine::try_run_resolved`]. The cells
//! bracket the access loop: canneal × medium contiguity mostly hits in the
//! TLBs, while gups × low contiguity walks on nearly every access, so its
//! time is the miss path (radix walk, L2 and L1 fills). Every time is the
//! minimum over [`ROUNDS`] runs; each run gets its own freshly built
//! machine. Results go to `results/BENCH_hotloop.{txt,json}`.
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

/// Timed rounds per routine; the minimum is reported.
const ROUNDS: usize = 5;

/// The timed cells: hit-dominated first, then walk-dominated.
const CELLS: [(WorkloadKind, Scenario); 2] = [
    (WorkloadKind::Canneal, Scenario::MediumContiguity),
    (WorkloadKind::Gups, Scenario::LowContiguity),
];

fn main() {
    // `cargo bench` appends harness flags (`--bench`); only `--quick` is
    // ours, everything else is ignored.
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        PaperConfig { accesses: 200_000, footprint_shift: 4, ..PaperConfig::default() }
    } else {
        PaperConfig { accesses: 1_000_000, footprint_shift: 2, ..PaperConfig::default() }
    };

    let mut bench = Bench::new("hotloop", ROUNDS);
    for (workload, scenario) in CELLS {
        let footprint = config.footprint_for(workload);
        let map = Arc::new(scenario.generate(footprint, config.seed));
        let index = Arc::new(map.page_index());
        let trace: Vec<u64> =
            workload.generator(footprint, config.seed).take(config.accesses as usize).collect();

        let cell = format!("{workload}/{scenario}");
        println!(
            "{cell}: {} accesses per run, {} mapped pages",
            config.accesses,
            map.mapped_pages()
        );
        let resolved =
            bench.run(&format!("{cell} resolve"), config.accesses, || index.resolve(&trace));
        for kind in SchemeKind::paper_set() {
            let label = kind.label();
            let mut machines = Vec::with_capacity(ROUNDS);
            bench.run(&format!("{cell} build.{label}"), map.mapped_pages(), || {
                machines.push(Machine::for_scheme_indexed(kind, &map, &index, &config));
            });
            let mut next = machines.iter_mut();
            bench.run(&format!("{cell} {label}"), config.accesses, || {
                let machine = next.next().expect("one machine per round");
                machine.try_run_resolved(&resolved).expect("mapped trace")
            });
        }
    }
    bench.finish();
}
