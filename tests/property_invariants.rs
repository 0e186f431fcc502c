//! Property-based tests (proptest) over the core data structures and the
//! paper's architectural invariants.

use hytlb::core::{AnchorConfig, AnchorScheme, DistanceMode, DistanceSelector, RegionTable};
use hytlb::mem::{AddressSpaceMap, BuddyAllocator, ContiguityHistogram, Scenario};
use hytlb::pagetable::{AnchorProbe, PageTable, ANCHOR_BITS_PER_PTE, MAX_CONTIGUITY};
use hytlb::types::{Permissions, PhysFrameNum, VirtPageNum};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Strategy: a random valid address-space map as disjoint, non-mergeable
/// chunks.
fn arb_map() -> impl Strategy<Value = AddressSpaceMap> {
    proptest::collection::vec((0u64..2000, 1u64..64), 1..40).prop_map(|specs| {
        let mut map = AddressSpaceMap::new();
        let mut vpn = 0u64;
        let mut pfn = 1u64 << 20;
        for (gap, len) in specs {
            vpn += gap + 1;
            map.map_range(
                VirtPageNum::new(vpn),
                PhysFrameNum::new(pfn),
                len,
                Permissions::READ_WRITE,
            );
            vpn += len;
            pfn += len + 3;
        }
        map
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The histogram always accounts for exactly the mapped pages.
    #[test]
    fn histogram_conserves_pages(map in arb_map()) {
        let hist = ContiguityHistogram::from_map(&map);
        prop_assert_eq!(hist.total_pages(), map.mapped_pages());
        prop_assert_eq!(hist.iter().map(|(_, f)| f).sum::<u64>() as usize, map.chunk_count());
    }

    /// nth_page enumerates exactly iter_pages, in order.
    #[test]
    fn page_index_matches_iteration(map in arb_map()) {
        let idx = map.page_index();
        prop_assert_eq!(idx.len(), map.mapped_pages());
        for (i, (vpn, _)) in map.iter_pages().enumerate() {
            prop_assert_eq!(idx.nth_page(i as u64), vpn);
        }
    }

    /// Anchor probes never mistranslate, for any distance, and the
    /// one-descent anchor read agrees with `lookup` plus
    /// `read_anchor_contiguity` on mapped pages, their neighbours and holes.
    #[test]
    fn anchor_probe_matches_map(map in arb_map(), dlog in 1u32..17) {
        let d = 1u64 << dlog;
        let mut table = PageTable::from_map(&map, false);
        table.reanchor(&map, .., d);
        for (vpn, pfn) in map.iter_pages() {
            if let Some(p) = table.anchor_probe(vpn, d) {
                if p.covers(vpn) {
                    prop_assert_eq!(p.translate(vpn), pfn);
                }
            }
        }
        let probes = map
            .iter_pages()
            .flat_map(|(vpn, _)| [VirtPageNum::new(vpn.as_u64() - 1), vpn, vpn + 1]);
        for avpn in probes.map(|vpn| vpn.align_down(d)).chain([VirtPageNum::new(1 << 40)]) {
            let two_reads = table
                .lookup(avpn)
                .zip(table.read_anchor_contiguity(avpn, d))
                .map(|(leaf, contiguity)| (leaf.pfn_for(avpn), contiguity));
            prop_assert_eq!(table.read_anchor(avpn, d), two_reads, "anchor {}", avpn);
        }
    }

    /// Every page of every chunk whose anchor page is mapped and within
    /// the same chunk is covered by its anchor (the coverage guarantee the
    /// OS maintains).
    #[test]
    fn anchor_coverage_is_complete(map in arb_map(), dlog in 1u32..9) {
        let d = 1u64 << dlog;
        let mut table = PageTable::from_map(&map, false);
        table.reanchor(&map, .., d);
        for chunk in map.chunks() {
            for off in 0..chunk.len {
                let vpn = chunk.vpn + off;
                let avpn = vpn.align_down(d);
                // If the anchor lies inside the same chunk, it must cover.
                if avpn >= chunk.vpn {
                    let p = table.anchor_probe(vpn, d);
                    prop_assert!(p.is_some(), "anchor missing at {avpn}");
                    prop_assert!(p.unwrap().covers(vpn), "anchor at {avpn} must cover {vpn}");
                }
            }
        }
    }

    /// The anchor scheme translates correctly on arbitrary maps and
    /// distances (the hardware path, not just the page-table probe).
    #[test]
    fn anchor_scheme_translates_arbitrary_maps(map in arb_map(), dlog in 1u32..17) {
        let d = 1u64 << dlog;
        let mut s = AnchorScheme::new(Arc::new(map.clone()), AnchorConfig::static_distance(d));
        for (vpn, pfn) in map.iter_pages() {
            prop_assert_eq!(s.access(vpn.base_addr()).pfn, Some(pfn));
        }
    }

    /// Lockstep model of the OS probe path in every distance mode: for each
    /// mapped page the kernel's distance and anchor probe equal a model
    /// built from the map alone — the distance from Algorithm 1 (per
    /// region for the multi-region kernel), the anchor at
    /// `align_down(vpn, d)`, its contiguity `contiguity_at(anchor)` clamped
    /// as the anchor PTE field clamps it.
    #[test]
    fn os_probe_path_matches_map_model(
        map in arb_map(),
        dlog in 1u32..17,
        max_regions in 1usize..6,
    ) {
        let selector = DistanceSelector::paper_default();
        let whole_map = selector.select(&ContiguityHistogram::from_map(&map));
        let regions = RegionTable::partition(&map, &selector, max_regions);
        let map = Arc::new(map);
        for mode in [
            DistanceMode::Dynamic,
            DistanceMode::Static(1 << dlog),
            DistanceMode::MultiRegion(max_regions),
        ] {
            let config = AnchorConfig { mode, ..AnchorConfig::dynamic() };
            let scheme = AnchorScheme::new(Arc::clone(&map), config);
            let os = scheme.level.os();
            let region_of = |vpn| regions.regions().iter().position(|r| r.contains(vpn));
            for (vpn, pfn) in map.iter_pages() {
                let d = match mode {
                    DistanceMode::Dynamic => whole_map,
                    DistanceMode::Static(d) => d,
                    DistanceMode::MultiRegion(_) => regions.distance_for(vpn).unwrap_or(whole_map),
                };
                prop_assert_eq!(os.distance_for(vpn), d, "{:?} vpn {}", mode, vpn);
                let avpn = vpn.align_down(d);
                let field_max = if d >= 8 { MAX_CONTIGUITY } else { (1 << ANCHOR_BITS_PER_PTE) - 1 };
                let contiguity = map.contiguity_at(avpn).min(field_max);
                let model = map
                    .translate(avpn)
                    .filter(|_| contiguity != 0)
                    .map(|pfn| AnchorProbe { avpn, pfn, contiguity });
                let probe = os.anchor_probe(vpn);
                // A multi-region anchor outside the page's own region is
                // written at that region's distance, if at all; regions
                // end on chunk boundaries, so it can never cover the page.
                let foreign = matches!(mode, DistanceMode::MultiRegion(_))
                    && region_of(avpn) != region_of(vpn);
                if foreign {
                    prop_assert!(!probe.is_some_and(|p| p.covers(vpn)), "{:?} vpn {}", mode, vpn);
                } else {
                    prop_assert_eq!(probe, model, "{:?} vpn {}", mode, vpn);
                }
                if let Some(p) = probe.filter(|p| p.covers(vpn)) {
                    prop_assert_eq!(p.translate(vpn), pfn);
                }
            }
        }
    }

    /// Algorithm 1 always returns a candidate, and that candidate is
    /// cost-minimal over the candidate set.
    #[test]
    fn selector_returns_cost_minimal_candidate(map in arb_map()) {
        let hist = ContiguityHistogram::from_map(&map);
        let sel = DistanceSelector::paper_default();
        let d = sel.select(&hist);
        prop_assert!(sel.candidates().contains(&d));
        let cost = sel.cost(d, &hist);
        for &c in sel.candidates() {
            prop_assert!(cost <= sel.cost(c, &hist) + 1e-9);
        }
    }

    /// Buddy allocator: random alloc/free interleavings conserve frames
    /// and never hand out overlapping blocks.
    #[test]
    fn buddy_conserves_and_never_overlaps(ops in proptest::collection::vec((0u32..4, any::<u16>()), 1..200)) {
        let total = 1u64 << 12;
        let mut buddy = BuddyAllocator::new(total);
        let mut live: HashMap<u64, u32> = HashMap::new();
        for (order, pick) in ops {
            if u64::from(pick) % 3 == 0 && !live.is_empty() {
                let key = *live.keys().nth(usize::from(pick) % live.len()).unwrap();
                let o = live.remove(&key).unwrap();
                buddy.free(PhysFrameNum::new(key), o).unwrap();
            } else if let Ok(base) = buddy.allocate(order) {
                // No overlap with any live block.
                let b0 = base.as_u64();
                let b1 = b0 + (1 << order);
                prop_assert!(b1 <= total);
                for (&l0, &lo) in &live {
                    let l1 = l0 + (1u64 << lo);
                    prop_assert!(b1 <= l0 || l1 <= b0, "overlap {b0}..{b1} vs {l0}..{l1}");
                }
                live.insert(b0, order);
            }
            let live_frames: u64 = live.values().map(|&o| 1u64 << o).sum();
            prop_assert_eq!(buddy.free_frames(), total - live_frames);
        }
    }

    /// Scenario generation: exact footprint, deterministic, and within the
    /// declared chunk-size bounds.
    #[test]
    fn scenarios_meet_their_contract(seed in 0u64..1000, fp_log in 11u32..15) {
        let fp = 1u64 << fp_log;
        for scenario in Scenario::all() {
            let m = scenario.generate(fp, seed);
            prop_assert_eq!(m.mapped_pages(), fp, "{}", scenario);
            prop_assert_eq!(m, scenario.generate(fp, seed));
        }
        // Table 4: low-contiguity chunks hold at most 16 pages.
        let h = ContiguityHistogram::from_map(&Scenario::LowContiguity.generate(fp, seed));
        prop_assert!(h.max_contiguity() <= 16);
    }
}
