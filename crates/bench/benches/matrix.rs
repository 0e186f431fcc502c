//! The parallel matrix driver against the serial reference on a reduced
//! Figure 9 slice, plus the memoization layer in isolation.

use hytlb_bench::Bench;
use hytlb_mem::Scenario;
use hytlb_sim::experiment::run_suite_serial;
use hytlb_sim::matrix::{try_run_matrix_with, MatrixCache};
use hytlb_sim::{PaperConfig, SchemeKind};
use hytlb_trace::WorkloadKind;

fn bench_config() -> PaperConfig {
    PaperConfig { accesses: 30_000, footprint_shift: 5, ..PaperConfig::default() }
}

const SCENARIOS: [Scenario; 3] =
    [Scenario::DemandPaging, Scenario::MediumContiguity, Scenario::MaxContiguity];
const WORKLOADS: [WorkloadKind; 3] =
    [WorkloadKind::Canneal, WorkloadKind::Gups, WorkloadKind::Omnetpp];

fn main() {
    let mut bench = Bench::new("matrix_driver", 10);
    let kinds = SchemeKind::paper_set();
    let config = bench_config();
    let accesses = (SCENARIOS.len() * WORKLOADS.len() * kinds.len()) as u64 * config.accesses;

    // Serial reference vs the worker pool at 1, 2 and 4 threads.
    bench.run("matrix_driver/serial_reference", accesses, || {
        SCENARIOS
            .iter()
            .map(|&s| run_suite_serial(s, &WORKLOADS, &kinds, &config).expect("mapped traces"))
            .collect::<Vec<_>>()
    });
    for threads in [1usize, 2, 4] {
        let config = PaperConfig { threads: Some(threads), ..bench_config() };
        bench.run(&format!("matrix_driver/parallel/{threads}"), accesses, || {
            try_run_matrix_with(&MatrixCache::new(), &SCENARIOS, &WORKLOADS, &kinds, &config)
                .expect("mapped traces")
        });
    }

    // Cost of a cache hit vs regenerating the mapping and trace.
    let lookup = |cache: &MatrixCache| {
        let m = cache.mapping(WorkloadKind::Canneal, Scenario::MediumContiguity, &config);
        let t = cache.try_trace(WorkloadKind::Canneal, &config).expect("generated trace");
        (m.map.mapped_pages(), t.len())
    };
    bench.run("matrix_cache/mapping_and_trace_miss", 1, || lookup(&MatrixCache::new()));
    let cache = MatrixCache::new();
    lookup(&cache);
    bench.run("matrix_cache/mapping_and_trace_hit", 1, || lookup(&cache));
    bench.finish();
}
