//! End-to-end translation throughput of every scheme — the
//! simulator-performance counterpart of Figures 7–9 (each name cites the
//! figure whose experiment it exercises at reduced scale).

use hytlb_bench::Bench;
use hytlb_mem::Scenario;
use hytlb_sim::{Machine, PaperConfig, SchemeKind};
use hytlb_trace::WorkloadKind;
use std::sync::Arc;

fn bench_config() -> PaperConfig {
    PaperConfig { accesses: 50_000, footprint_shift: 5, ..PaperConfig::default() }
}

/// Times a fresh `kind` machine over `workload`'s trace placed on
/// `scenario`'s mapping.
fn bench_cell(
    bench: &mut Bench,
    label: &str,
    workload: WorkloadKind,
    scenario: Scenario,
    kinds: &[SchemeKind],
) {
    let config = bench_config();
    let footprint = config.footprint_for(workload);
    let map = Arc::new(scenario.generate(footprint, config.seed));
    let index = Arc::new(map.page_index());
    let trace: Vec<u64> =
        workload.generator(footprint, config.seed).take(config.accesses as usize).collect();
    let resolved = index.resolve(&trace);
    for &kind in kinds {
        bench.run(&format!("{label}/{kind}"), config.accesses, || {
            Machine::for_scheme_indexed(kind, &map, &index, &config)
                .try_run_resolved(&resolved)
                .expect("mapped trace")
                .tlb_misses()
        });
    }
}

fn main() {
    let mut bench = Bench::new("scheme_throughput", 10);
    // Figures 7/8: every scheme on the demand and medium mappings.
    for scenario in [Scenario::DemandPaging, Scenario::MediumContiguity] {
        let label = format!("fig7_8_translate_{scenario}");
        bench_cell(&mut bench, &label, WorkloadKind::Canneal, scenario, &SchemeKind::paper_set());
    }
    // Figure 9: the all-scenario sweep at miniature scale (one workload).
    for scenario in Scenario::all() {
        let label = format!("fig9_scenario_sweep/{scenario}");
        bench_cell(&mut bench, &label, WorkloadKind::Milc, scenario, &[SchemeKind::AnchorDynamic]);
    }
    bench.finish();
}
