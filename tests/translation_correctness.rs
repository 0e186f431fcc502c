//! Cross-crate integration tests: every scheme, over every scenario, must
//! translate exactly like the OS's authoritative mapping — the end-to-end
//! contract of the whole stack (mem → pagetable → tlb → schemes → sim).

use hytlb::core::FillPolicy;
use hytlb::prelude::*;
use hytlb::schemes::{AnchorIndexing, Mmu};
use hytlb::sim::experiment::{mapping_for, run_suite_serial};
use hytlb::sim::{AnyLevel, SchemeDispatch};
use hytlb::trace::WorkloadKind;
use std::sync::Arc;

/// One (workload, scenario, scheme) cell, run from scratch.
fn run_cell(
    workload: WorkloadKind,
    scenario: Scenario,
    kind: SchemeKind,
    config: &PaperConfig,
) -> RunStats {
    let mut suite = run_suite_serial(scenario, &[workload], &[kind], config).expect("mapped trace");
    suite.rows.remove(0).runs.remove(0)
}

fn all_kinds() -> Vec<SchemeKind> {
    let mut kinds = SchemeKind::paper_set().to_vec();
    kinds.push(SchemeKind::Thp1G);
    kinds.push(SchemeKind::Colt);
    kinds.push(SchemeKind::AnchorStatic(16));
    kinds.push(SchemeKind::AnchorStatic(4096));
    kinds.push(SchemeKind::AnchorMultiRegion(4));
    kinds
}

/// Every registry scheme plus the custom configurations `regenerate`
/// build: CoLT-FA(32), and the anchor fill-policy and indexing ablations.
fn all_schemes(map: &Arc<AddressSpaceMap>) -> Vec<SchemeDispatch> {
    let anchor =
        |cfg| SchemeDispatch::new(AnchorScheme::new(Arc::clone(map), cfg), AnyLevel::Anchor);
    let mut schemes: Vec<_> =
        all_kinds().into_iter().map(|kind| SchemeDispatch::build(kind, map)).collect();
    schemes.push(SchemeDispatch::new(Mmu::colt_fa(map), AnyLevel::Colt));
    schemes
        .push(anchor(AnchorConfig { fill: FillPolicy::AlwaysRegular, ..AnchorConfig::dynamic() }));
    schemes.push(anchor(AnchorConfig {
        indexing: AnchorIndexing::NaiveLowBits,
        ..AnchorConfig::static_distance(32)
    }));
    schemes
}

fn tiny_config() -> PaperConfig {
    PaperConfig { accesses: 5_000, footprint_shift: 6, ..PaperConfig::default() }
}

#[test]
fn every_scheme_translates_correctly_on_every_scenario() {
    let config = tiny_config();
    for scenario in Scenario::all() {
        let map = mapping_for(WorkloadKind::Canneal, scenario, &config);
        for (i, mut scheme) in all_schemes(&map).into_iter().enumerate() {
            let kind = format!("scheme #{i} ({})", scheme.name());
            for (vpn, pfn) in map.iter_pages().step_by(7) {
                let got = scheme.access(vpn.base_addr()).pfn;
                assert_eq!(got, Some(pfn), "{kind} mistranslated {vpn} under {scenario}");
            }
            // Re-walk through warm TLBs.
            for (vpn, pfn) in map.iter_pages().step_by(13) {
                let got = scheme.access(vpn.base_addr()).pfn;
                assert_eq!(got, Some(pfn), "{kind} warm mistranslation under {scenario}");
            }
        }
    }
}

#[test]
fn machine_runs_agree_with_direct_scheme_access() {
    let config = tiny_config();
    let run = || {
        run_cell(WorkloadKind::Milc, Scenario::MediumContiguity, SchemeKind::AnchorDynamic, &config)
    };
    let (run_a, run_b) = (run(), run());
    assert_eq!(run_a, run_b, "simulation must be deterministic");
    assert_eq!(run_a.accesses, config.accesses);
}

#[test]
fn miss_counts_are_internally_consistent() {
    let config = tiny_config();
    for kind in all_kinds() {
        let run = run_cell(WorkloadKind::Gups, Scenario::LowContiguity, kind, &config);
        let s = &run.stats;
        assert_eq!(
            s.accesses,
            s.l1_hits + s.l2_regular_hits + s.coalesced_hits + s.walks + s.faults,
            "{kind}: access breakdown must sum"
        );
        assert_eq!(s.faults, 0, "{kind}: traces touch only mapped pages");
        let rates = s.l2_regular_hit_rate() + s.l2_coalesced_hit_rate() + s.l2_miss_rate();
        assert!((rates - 1.0).abs() < 1e-9 || s.l2_accesses() == 0, "{kind}: rates sum to 1");
    }
}

#[test]
fn anchor_never_loses_to_itself_across_epochs() {
    // Running with epochs enabled (dynamic) on a stable mapping must not
    // flush TLBs or change distance mid-run.
    let config = PaperConfig {
        accesses: 30_000,
        epoch_instructions: 10_000, // many epoch checks within the run
        footprint_shift: 6,
        ..PaperConfig::default()
    };
    let run = run_cell(
        WorkloadKind::Canneal,
        Scenario::MediumContiguity,
        SchemeKind::AnchorDynamic,
        &config,
    );
    let d = run.anchor_distance.expect("anchor distance");
    assert!(d.is_power_of_two());
}

#[test]
fn paper_set_ordering_on_extreme_scenarios() {
    // The coarse shape of Figure 9's two extreme columns.
    let config = PaperConfig { accesses: 40_000, footprint_shift: 5, ..PaperConfig::default() };
    let suite = hytlb::sim::experiment::run_suite(
        Scenario::MaxContiguity,
        &[WorkloadKind::Milc, WorkloadKind::Canneal],
        &SchemeKind::paper_set(),
        &config,
    )
    .expect("mapped traces");
    let means = suite.mean_relative_misses();
    // Columns: Base THP Cluster Cluster-2MB RMM Dynamic.
    assert!(means[4] < 10.0, "RMM nearly eliminates misses at max contiguity: {means:?}");
    assert!(means[5] < 10.0, "Dynamic matches RMM at max contiguity: {means:?}");

    let suite = hytlb::sim::experiment::run_suite(
        Scenario::LowContiguity,
        &[WorkloadKind::Milc, WorkloadKind::Canneal],
        &SchemeKind::paper_set(),
        &config,
    )
    .expect("mapped traces");
    let means = suite.mean_relative_misses();
    assert!(means[1] > 95.0, "THP ineffective at low contiguity: {means:?}");
    assert!(means[4] > 95.0, "RMM ineffective at low contiguity: {means:?}");
    assert!(means[5] < means[2], "Dynamic beats Cluster at low contiguity: {means:?}");
}
