//! Disk-backed replay must be invisible to the simulator: a matrix run
//! whose traces come from a recorded `TraceStore` corpus is
//! bit-identical to one whose traces come straight from the generators
//! — across every `SchemeKind` and across TLB flush periods.
//!
//! This is the format's whole contract. The codec is lossy-looking
//! (delta + bit-packing) but must be lossless in fact; any drift would
//! show up here as a differing `RunStats`.

use hytlb::mem::Scenario;
use hytlb::sim::matrix::{try_run_matrix_with, MatrixCache};
use hytlb::sim::{Machine, PaperConfig, SchemeKind};
use hytlb::trace::WorkloadKind;
use hytlb::tracefile::TraceStore;
use std::sync::Arc;

/// Every scheme kind the dispatcher knows, paper set and extensions.
fn all_scheme_kinds() -> Vec<SchemeKind> {
    vec![
        SchemeKind::Baseline,
        SchemeKind::Thp,
        SchemeKind::Thp1G,
        SchemeKind::Cluster,
        SchemeKind::Cluster2Mb,
        SchemeKind::Colt,
        SchemeKind::Rmm,
        SchemeKind::AnchorDynamic,
        SchemeKind::AnchorStatic(64),
        SchemeKind::AnchorMultiRegion(2),
    ]
}

fn test_config() -> PaperConfig {
    PaperConfig { accesses: 6_000, footprint_shift: 5, threads: Some(2), ..PaperConfig::default() }
}

fn scratch_corpus(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hytlb_replay_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn matrix_from_corpus_is_bit_identical_across_all_schemes() {
    let config = test_config();
    let workloads = [WorkloadKind::Gups, WorkloadKind::Mcf];
    let scenarios = [Scenario::LowContiguity, Scenario::HighContiguity];
    let kinds = all_scheme_kinds();

    // Record the corpus from a generating cache.
    let root = scratch_corpus("matrix");
    let generated = MatrixCache::new();
    let mut store = TraceStore::open_or_create(&root).unwrap();
    generated.spill_traces(&mut store, &workloads, &config).unwrap();

    // Replay the full matrix from disk.
    let replayed = MatrixCache::with_corpus(Arc::new(TraceStore::open_or_create(&root).unwrap()));
    let from_generator =
        try_run_matrix_with(&generated, &scenarios, &workloads, &kinds, &config).unwrap();
    let from_corpus =
        try_run_matrix_with(&replayed, &scenarios, &workloads, &kinds, &config).unwrap();
    assert_eq!(from_generator, from_corpus, "replayed matrix differs from generated");

    // Every trace came off disk; the generator never ran in the replay
    // cache.
    let stats = replayed.stats();
    assert_eq!(stats.trace_loads, workloads.len());
    assert_eq!(stats.trace_builds, 0);

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn flush_period_runs_are_bit_identical_from_corpus() {
    let config = test_config();
    let workload = WorkloadKind::Graph500;
    let scenario = Scenario::MediumContiguity;

    let root = scratch_corpus("flush");
    let generated = MatrixCache::new();
    let mut store = TraceStore::open_or_create(&root).unwrap();
    generated.spill_traces(&mut store, &[workload], &config).unwrap();
    let replayed = MatrixCache::with_corpus(Arc::new(TraceStore::open_or_create(&root).unwrap()));

    // The resolved traces must already be identical…
    let resolved_gen = generated.try_resolved_trace(workload, scenario, &config).unwrap();
    let resolved_replay = replayed.try_resolved_trace(workload, scenario, &config).unwrap();
    assert_eq!(resolved_gen, resolved_replay, "resolved traces differ");

    // …and so must full runs, for every scheme at every flush period.
    let shared_gen = generated.mapping(workload, scenario, &config);
    let shared_replay = replayed.mapping(workload, scenario, &config);
    for kind in all_scheme_kinds() {
        for flush_period in [u64::MAX, 2048] {
            let a = Machine::for_scheme_indexed(kind, &shared_gen.map, &shared_gen.index, &config)
                .try_run_resolved_with_flush_period(&resolved_gen, flush_period)
                .unwrap();
            let b = Machine::for_scheme_indexed(
                kind,
                &shared_replay.map,
                &shared_replay.index,
                &config,
            )
            .try_run_resolved_with_flush_period(&resolved_replay, flush_period)
            .unwrap();
            assert_eq!(a, b, "{kind:?} at flush period {flush_period} diverged");
        }
    }

    std::fs::remove_dir_all(&root).ok();
}
