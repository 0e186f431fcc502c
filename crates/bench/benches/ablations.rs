//! Ablation microbenchmarks (DESIGN.md §4) — the performance side of the
//! miss-count ablations in `regenerate ablations`: wall-clock of a full run per
//! variant (miss differences are reported by the binary).

use hytlb_bench::Bench;
use hytlb_core::{AnchorConfig, AnchorScheme, FillPolicy};
use hytlb_mem::Scenario;
use hytlb_schemes::AnchorIndexing;
use hytlb_sim::{AnyLevel, Machine, PaperConfig, SchemeDispatch};
use hytlb_trace::WorkloadKind;
use hytlb_types::VirtAddr;
use std::sync::Arc;

fn config() -> PaperConfig {
    PaperConfig { accesses: 30_000, footprint_shift: 5, ..PaperConfig::default() }
}

/// Times a full run of the anchor scheme under `cfg` over one cell.
fn bench_anchor(
    bench: &mut Bench,
    label: &str,
    map: &Arc<hytlb_mem::AddressSpaceMap>,
    resolved: &[VirtAddr],
    cfg: AnchorConfig,
) {
    let config = config();
    bench.run(label, config.accesses, || {
        let scheme =
            SchemeDispatch::new(AnchorScheme::new(Arc::clone(map), cfg.clone()), AnyLevel::Anchor);
        Machine::new(scheme, &config).try_run_resolved(resolved).expect("mapped trace").tlb_misses()
    });
}

/// A scenario's mapping and `workload`'s resolved trace at bench scale.
fn cell(
    workload: WorkloadKind,
    scenario: Scenario,
) -> (Arc<hytlb_mem::AddressSpaceMap>, Vec<VirtAddr>) {
    let config = config();
    let footprint = config.footprint_for(workload);
    let map = Arc::new(scenario.generate(footprint, config.seed));
    let trace: Vec<u64> =
        workload.generator(footprint, config.seed).take(config.accesses as usize).collect();
    let resolved = map.page_index().resolve(&trace);
    (map, resolved)
}

fn main() {
    let mut bench = Bench::new("ablations", 10);

    // Ablation 1: Figure 6 indexing vs naive.
    let (map, resolved) = cell(WorkloadKind::Milc, Scenario::HighContiguity);
    for (label, indexing) in
        [("indexing/fig6", AnchorIndexing::Fig6), ("indexing/naive", AnchorIndexing::NaiveLowBits)]
    {
        let cfg = AnchorConfig { indexing, ..AnchorConfig::dynamic() };
        bench_anchor(&mut bench, label, &map, &resolved, cfg);
    }

    // Ablation 2: fill policies.
    let (map, resolved) = cell(WorkloadKind::Canneal, Scenario::MediumContiguity);
    for (label, fill) in [
        ("fill/prefer_anchor", FillPolicy::PreferAnchor),
        ("fill/always_regular", FillPolicy::AlwaysRegular),
    ] {
        let cfg = AnchorConfig { fill, ..AnchorConfig::dynamic() };
        bench_anchor(&mut bench, label, &map, &resolved, cfg);
    }
    bench.finish();
}
