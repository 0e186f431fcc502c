//! The operating-system model behind hybrid coalescing.
//!
//! The OS owns the authoritative mapping, the page table and the anchor
//! distance: it is the only place a distance is chosen and the only caller
//! that writes anchor fields. Its responsibilities (paper §3.3):
//!
//! * write the anchor contiguity fields for the distance in effect;
//! * periodically (every epoch ≈ 1 B instructions) re-run the distance
//!   selector on the contiguity histogram, and — if the improvement clears
//!   the hysteresis — pay for a full table sweep plus TLB shootdown. The
//!   mapping is immutable, so the histogram is built once, at boot.

use crate::distance::DistanceSelector;
use crate::region::RegionTable;
use hytlb_mem::{AddressSpaceMap, ContiguityHistogram};
use hytlb_pagetable::{AnchorProbe, PageTable};
use hytlb_types::VirtPageNum;
use std::sync::Arc;

/// How the per-process anchor distance is managed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DistanceMode {
    /// The paper's `Dynamic`: Algorithm 1 selects at boot and re-checks
    /// every epoch.
    Dynamic,
    /// A fixed distance (used by the `Static Ideal` exhaustive sweeps).
    Static(u64),
    /// The §4.2 extension: per-region distances, at most this many regions.
    MultiRegion(usize),
}

/// What an epoch check did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochOutcome {
    /// `Some((old, new))` when the anchor distance changed; the TLBs must
    /// then be flushed by the caller (hardware shootdown).
    pub distance_change: Option<(u64, u64)>,
}

impl EpochOutcome {
    /// `true` when the TLBs must be invalidated.
    #[must_use]
    pub fn requires_shootdown(&self) -> bool {
        self.distance_change.is_some()
    }
}

/// The per-process OS state for hybrid coalescing.
#[derive(Debug)]
pub struct OsKernel {
    map: Arc<AddressSpaceMap>,
    table: PageTable,
    /// The process-wide distance: the fixed one, Algorithm 1's current
    /// choice, or — for multi-region kernels — its choice over the whole
    /// map, used outside every region.
    distance: u64,
    /// The selector the epoch check re-runs and the histogram of the map
    /// it runs on, built at boot; `None` for the static and multi-region
    /// kernels, whose distances are fixed at boot.
    selector: Option<(DistanceSelector, ContiguityHistogram)>,
    regions: Option<RegionTable>,
}

impl OsKernel {
    /// Boots the kernel model for a process with the paper's `Dynamic`
    /// policy: builds the 4 KB page table, runs the selector once on the
    /// initial histogram (the paper sets the distance "once sufficient
    /// amount of memory is allocated") and anchors the table.
    #[must_use]
    pub fn new(map: Arc<AddressSpaceMap>, selector: DistanceSelector) -> Self {
        Self::boot(map, selector, DistanceMode::Dynamic)
    }

    /// Boots the kernel under `mode`, the one boot path of every kernel:
    /// builds the 4 KB page table and anchors it. A `Dynamic` kernel
    /// anchors at the distance `selector` picks for the whole map, a
    /// `Static(d)` kernel at `d`. A `MultiRegion(n)` kernel (§4.2)
    /// partitions the address space into at most `n` regions by contiguity
    /// similarity and anchors each at the distance `selector` picks for it.
    ///
    /// # Panics
    ///
    /// Panics if a static distance is not a power of two in `[2, 65536]`,
    /// or if a multi-region kernel is asked for zero regions.
    pub(crate) fn boot(
        map: Arc<AddressSpaceMap>,
        selector: DistanceSelector,
        mode: DistanceMode,
    ) -> Self {
        let histogram = || ContiguityHistogram::from_map(&map);
        let (distance, regions, selector) = match mode {
            DistanceMode::Dynamic => {
                let histogram = histogram();
                (selector.select(&histogram), None, Some((selector, histogram)))
            }
            DistanceMode::Static(d) => (d, None, None),
            DistanceMode::MultiRegion(max_regions) => (
                selector.select(&histogram()),
                Some(RegionTable::partition(&map, &selector, max_regions)),
                None,
            ),
        };
        let mut table = PageTable::from_map(&map, false);
        match &regions {
            Some(rt) => {
                for r in rt.regions() {
                    table.reanchor(&map, r.start..r.end, r.distance);
                }
            }
            None => {
                table.reanchor(&map, .., distance);
            }
        }
        OsKernel { map, table, distance, selector, regions }
    }

    /// The process's mapping.
    #[must_use]
    pub fn map(&self) -> &AddressSpaceMap {
        &self.map
    }

    /// The current anchor distance (the value loaded into the per-process
    /// anchor-distance register on context switch). For multi-region
    /// kernels this is the distance of the region containing `vpn`.
    #[must_use]
    pub fn distance_for(&self, vpn: VirtPageNum) -> u64 {
        self.regions.as_ref().and_then(|rt| rt.distance_for(vpn)).unwrap_or(self.distance)
    }

    /// The process-wide anchor distance (for multi-region kernels, the
    /// whole-map selection).
    #[must_use]
    pub fn distance(&self) -> u64 {
        self.distance
    }

    /// The region table, if the kernel runs the multi-region extension.
    #[must_use]
    pub fn regions(&self) -> Option<&RegionTable> {
        self.regions.as_ref()
    }

    /// Probes the anchor entry for `vpn` in the page table (the walker's
    /// off-critical-path anchor fetch, Figure 5c step 7). A multi-region
    /// kernel has no anchor outside its regions.
    #[must_use]
    pub fn anchor_probe(&self, vpn: VirtPageNum) -> Option<AnchorProbe> {
        let distance = match &self.regions {
            Some(rt) => rt.distance_for(vpn)?,
            None => self.distance,
        };
        self.table.anchor_probe(vpn, distance)
    }

    /// Walks the page table for a regular translation.
    #[must_use]
    pub fn table(&self) -> &PageTable {
        &self.table
    }

    /// The periodic epoch check of a `Dynamic` kernel (§4.1): re-select on
    /// the boot histogram, and re-anchor when the change clears the
    /// hysteresis. A no-op for static and multi-region kernels (the paper
    /// leaves online repartitioning as future work).
    pub fn check_epoch(&mut self) -> EpochOutcome {
        let Some((selector, histogram)) = &self.selector else {
            return EpochOutcome::default();
        };
        let current = self.distance;
        let Some(new) = selector.should_change(histogram, current) else {
            return EpochOutcome::default();
        };
        self.table.reanchor(&self.map, .., new);
        self.distance = new;
        EpochOutcome { distance_change: Some((current, new)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;

    #[test]
    fn boot_selects_and_anchors() {
        let map = Arc::new(Scenario::LowContiguity.generate(2048, 1));
        let os = OsKernel::new(Arc::clone(&map), DistanceSelector::paper_default());
        assert!(os.distance() <= 8, "low contiguity picks a small distance");
        // Some anchor must be probeable.
        let first = map.chunks().next().unwrap().vpn;
        let covered =
            map.iter_pages().take(64).any(|(v, _)| os.anchor_probe(v).is_some_and(|p| p.covers(v)));
        assert!(covered, "no anchor covers any early page (first chunk at {first})");
    }

    #[test]
    fn static_distance_is_respected() {
        let map = Arc::new(Scenario::MediumContiguity.generate(1024, 2));
        let os = OsKernel::boot(
            Arc::clone(&map),
            DistanceSelector::paper_default(),
            DistanceMode::Static(64),
        );
        assert_eq!(os.distance(), 64);
        assert_eq!(os.distance_for(VirtPageNum::new(0)), 64);
    }

    #[test]
    fn stable_mapping_never_changes_distance() {
        let map = Arc::new(Scenario::MediumContiguity.generate(4096, 3));
        let mut os = OsKernel::new(Arc::clone(&map), DistanceSelector::paper_default());
        let d0 = os.distance();
        for _ in 0..12 {
            let out = os.check_epoch();
            assert!(!out.requires_shootdown());
        }
        assert_eq!(os.distance(), d0);
    }

    #[test]
    fn epoch_check_reanchors_a_stale_distance() {
        let map = Arc::new(Scenario::HighContiguity.generate(65_536, 4));
        let mut os = OsKernel::new(Arc::clone(&map), DistanceSelector::paper_default());
        // Force a mismatch by re-anchoring to 2 behind the selector's back.
        let d = os.distance();
        os.table.reanchor(&map, .., 2);
        os.distance = 2;
        let out = os.check_epoch();
        assert!(out.requires_shootdown());
        assert_eq!(out.distance_change, Some((2, d)));
        assert_eq!(os.distance(), d);
        // The sweep rewrote the anchors at the new distance.
        let anchor = map.iter_pages().map(|(vpn, _)| vpn).find(|&v| v.align_down(d) == v).unwrap();
        let contiguity = map.contiguity_at(anchor).min(hytlb_pagetable::MAX_CONTIGUITY);
        assert_eq!(os.anchor_probe(anchor).unwrap().contiguity, contiguity);
    }

    #[test]
    fn static_and_multi_region_kernels_skip_epoch_checks() {
        let map = Arc::new(Scenario::MediumContiguity.generate(1024, 6));
        for mode in [DistanceMode::Static(2), DistanceMode::MultiRegion(4)] {
            let mut os = OsKernel::boot(Arc::clone(&map), DistanceSelector::paper_default(), mode);
            let d = os.distance();
            assert_eq!(os.check_epoch(), EpochOutcome::default());
            assert_eq!(os.distance(), d);
        }
    }

    #[test]
    fn anchor_probe_translations_match_map() {
        let map = Arc::new(Scenario::MediumContiguity.generate(2048, 5));
        let os = OsKernel::new(Arc::clone(&map), DistanceSelector::paper_default());
        for (vpn, pfn) in map.iter_pages() {
            if let Some(p) = os.anchor_probe(vpn) {
                if p.covers(vpn) {
                    assert_eq!(p.translate(vpn), pfn);
                }
            }
        }
    }

    #[test]
    fn multi_region_kernel_partitions() {
        // A mapping with a fine-grained half and a huge-chunk half.
        let mut m = AddressSpaceMap::new();
        let mut vpn = 0u64;
        let mut pfn = 1u64 << 20;
        for _ in 0..256 {
            m.map_range(
                VirtPageNum::new(vpn),
                hytlb_types::PhysFrameNum::new(pfn),
                4,
                hytlb_types::Permissions::READ_WRITE,
            );
            vpn += 4;
            pfn += 6;
        }
        let huge_base = 1u64 << 30 >> 12 << 12; // far, aligned
        m.map_range(
            VirtPageNum::new(huge_base),
            hytlb_types::PhysFrameNum::new(1 << 24),
            1 << 14,
            hytlb_types::Permissions::READ_WRITE,
        );
        let map = Arc::new(m);
        let selector = DistanceSelector::paper_default();
        let os = OsKernel::boot(Arc::clone(&map), selector, DistanceMode::MultiRegion(4));
        let rt = os.regions().unwrap();
        assert!(rt.regions().len() >= 2);
        let d_small = os.distance_for(VirtPageNum::new(0));
        let d_big = os.distance_for(VirtPageNum::new(huge_base));
        assert!(d_small < d_big, "{d_small} vs {d_big}");
        // Probes in both regions translate correctly.
        for (v, p) in map.iter_pages().step_by(97) {
            if let Some(probe) = os.anchor_probe(v) {
                if probe.covers(v) {
                    assert_eq!(probe.translate(v), p);
                }
            }
        }
    }
}
