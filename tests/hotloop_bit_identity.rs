//! Bit-identity of the engine's batched, pre-resolved hot loop against a
//! per-access reference loop, across the whole scheme × scenario matrix,
//! plus property tests for the `PageIndex` cursor fast paths.
//!
//! The batched loop ([`Machine::try_run_resolved_with_flush_period`]) cuts
//! chunks so every epoch and flush boundary lands on a chunk end; these
//! tests pick epoch lengths and flush periods that are *not* multiples of
//! the batch size, so boundaries fall mid-chunk and the cutting logic is
//! actually exercised.

use hytlb::mem::{AddressSpaceMap, PageCursor, PageIndex, Scenario};
use hytlb::schemes::{SchemeStats, TranslationScheme};
use hytlb::sim::{Machine, PaperConfig, SchemeDispatch, SchemeKind};
use hytlb::trace::WorkloadKind;
use hytlb::types::{Permissions, PhysFrameNum, VirtAddr, VirtPageNum, PAGE_SIZE_U64};
use proptest::prelude::*;
use std::sync::Arc;

/// Every scheme kind the engine can build, including the extension and
/// parameterized anchor variants that `paper_set` leaves out.
fn all_kinds() -> Vec<SchemeKind> {
    let mut kinds = SchemeKind::paper_set().to_vec();
    kinds.extend([
        SchemeKind::Thp1G,
        SchemeKind::Colt,
        SchemeKind::AnchorStatic(16),
        SchemeKind::AnchorMultiRegion(4),
    ]);
    kinds
}

/// A config whose epoch length (3,333 accesses) is far from any multiple of
/// the 4,096-access batch size, so every epoch boundary lands mid-chunk.
fn boundary_config() -> PaperConfig {
    PaperConfig {
        accesses: 20_000,
        footprint_shift: 5,
        epoch_instructions: 9_999,
        ..PaperConfig::default()
    }
}

/// The oracle: one access at a time through `SchemeDispatch::access`, with
/// each logical address placed by `PageIndex::nth_page`. `on_epoch` fires
/// after every `epoch_accesses()`-th access and `flush` after every
/// `flush_period`-th access since the last flush (after every access when
/// `flush_period` is 0). Returns the final counters and anchor distance.
fn per_access_reference(
    kind: SchemeKind,
    map: &Arc<AddressSpaceMap>,
    index: &PageIndex,
    trace: &[u64],
    config: &PaperConfig,
    flush_period: u64,
) -> (SchemeStats, Option<u64>) {
    let mut scheme = SchemeDispatch::build(kind, map, config);
    let epoch_every = config.epoch_accesses();
    let (mut since_epoch, mut since_flush) = (0u64, 0u64);
    for &logical in trace {
        let vpn = index.nth_page(logical / PAGE_SIZE_U64);
        let va = VirtAddr::new(vpn.base_addr().as_u64() + logical % PAGE_SIZE_U64);
        assert!(scheme.access(va).pfn.is_some(), "{kind}: fault at {va}");
        since_epoch += 1;
        since_flush += 1;
        if since_epoch >= epoch_every {
            scheme.on_epoch();
            since_epoch = 0;
        }
        if since_flush >= flush_period {
            scheme.flush();
            since_flush = 0;
        }
    }
    (*scheme.stats(), scheme.anchor_distance())
}

/// Runs every kind over every scenario through both loops at `flush_period`
/// and asserts identical counters.
fn assert_matrix_bit_identical(config: &PaperConfig, workload: WorkloadKind, flush_period: u64) {
    for scenario in Scenario::all() {
        let footprint = config.footprint_for(workload);
        let map = Arc::new(scenario.generate(footprint, config.seed));
        let index = Arc::new(map.page_index());
        let trace: Vec<u64> =
            workload.generator(footprint, config.seed).take(config.accesses as usize).collect();
        let resolved = index.resolve(&trace);
        for kind in all_kinds() {
            let batched = Machine::for_scheme_indexed(kind, &map, &index, config)
                .try_run_resolved_with_flush_period(&resolved, flush_period)
                .expect("mapped trace");
            let reference = per_access_reference(kind, &map, &index, &trace, config, flush_period);
            let context = format!("{kind} / {scenario} / flush {flush_period}");
            assert_eq!((batched.stats, batched.anchor_distance), reference, "{context}");
            assert_eq!(batched.accesses, trace.len() as u64, "{context}");
        }
    }
}

#[test]
fn batched_loop_is_bit_identical_across_the_matrix() {
    // 2,500 is coprime with the batch size and shorter than an epoch, so
    // flushes and epochs interleave in both orders during the run.
    for flush_period in [u64::MAX, 2_500] {
        assert_matrix_bit_identical(&boundary_config(), WorkloadKind::Canneal, flush_period);
    }
}

#[test]
fn batched_loop_survives_flush_after_every_access() {
    // flush_period == 0 flushes after every access; the batched loop must
    // degrade to one-access chunks and still agree.
    let config = PaperConfig { accesses: 2_000, ..boundary_config() };
    assert_matrix_bit_identical(&config, WorkloadKind::Gups, 0);
}

/// Builds a sparse map from (gap, len) chunk specs.
fn map_from_specs(specs: &[(u64, u64)]) -> AddressSpaceMap {
    let mut map = AddressSpaceMap::new();
    let mut vpn = 0u64;
    let mut pfn = 1u64 << 20;
    for &(gap, len) in specs {
        vpn += gap + 1;
        map.map_range(VirtPageNum::new(vpn), PhysFrameNum::new(pfn), len, Permissions::READ_WRITE);
        vpn += len;
        pfn += len + 5;
    }
    map
}

/// Strategy: a sparse map (as (gap, len) chunk specs) plus a sequence of
/// logical page indices to look up (reduced modulo the page count, since
/// the map's size is not known until generation time).
fn arb_map_and_accesses() -> impl Strategy<Value = (AddressSpaceMap, Vec<u64>)> {
    (
        proptest::collection::vec((0u64..500, 1u64..48), 1..30),
        proptest::collection::vec(any::<u64>(), 1..200),
    )
        .prop_map(|(specs, raws)| {
            let map = map_from_specs(&specs);
            let pages = map.mapped_pages();
            let accesses = raws.into_iter().map(|r| r % pages).collect();
            (map, accesses)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The MRU-chunk cursor lookup agrees with the plain binary search for
    /// any access sequence — including the pathological back-and-forth
    /// patterns where the cursor misses every time.
    #[test]
    fn cursor_lookup_agrees_with_partition_point((map, accesses) in arb_map_and_accesses()) {
        let index = map.page_index();
        let mut cursor = PageCursor::default();
        for &i in &accesses {
            prop_assert_eq!(index.nth_page_with(i, &mut cursor), index.nth_page(i));
        }
    }

    /// `resolve` agrees element-wise with the scalar placement math for
    /// arbitrary logical addresses (page index × page size + offset).
    #[test]
    fn resolve_agrees_with_scalar_math((map, accesses) in arb_map_and_accesses(), offset in 0u64..4096) {
        let index = map.page_index();
        let logical: Vec<u64> =
            accesses.iter().map(|&i| i * PAGE_SIZE_U64 + offset).collect();
        let resolved = index.resolve(&logical);
        prop_assert_eq!(resolved.len(), logical.len());
        for (&l, &va) in logical.iter().zip(&resolved) {
            let vpn = index.nth_page(l / PAGE_SIZE_U64);
            prop_assert_eq!(va.as_u64(), vpn.base_addr().as_u64() + l % PAGE_SIZE_U64);
        }
    }
}
