//! The operating-system model behind hybrid coalescing.
//!
//! The OS owns the authoritative mapping and the anchored page table. Its
//! responsibilities (paper §3.3):
//!
//! * keep anchor contiguity fields in sync with the mapping;
//! * periodically (every epoch ≈ 1 B instructions) rebuild the contiguity
//!   histogram, re-run the distance selector, and — if the improvement
//!   clears the hysteresis — pay for a full table sweep plus TLB shootdown.

use crate::distance::DistanceSelector;
use crate::region::RegionTable;
use hytlb_mem::{AddressSpaceMap, ContiguityHistogram};
use hytlb_pagetable::{AnchorProbe, AnchoredPageTable, PageTable, ReanchorCost};
use hytlb_types::VirtPageNum;
use std::sync::Arc;

/// What an epoch check did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochOutcome {
    /// `Some((old, new))` when the anchor distance changed; the TLBs must
    /// then be flushed by the caller (hardware shootdown).
    pub distance_change: Option<(u64, u64)>,
    /// Cost of the re-anchoring sweep, when one happened.
    pub sweep_cost: Option<ReanchorCost>,
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
    apt: AnchoredPageTable,
    selector: DistanceSelector,
    histogram: ContiguityHistogram,
    regions: Option<RegionTable>,
    epochs: u64,
    distance_changes: u64,
}

impl OsKernel {
    /// Boots the kernel model for a process: builds the 4 KB page table,
    /// runs the selector once on the initial histogram (the paper sets the
    /// distance "once sufficient amount of memory is allocated") and
    /// anchors the table.
    #[must_use]
    pub fn new(map: Arc<AddressSpaceMap>, selector: DistanceSelector) -> Self {
        let histogram = ContiguityHistogram::from_map(&map);
        let initial = selector.select(&histogram);
        let mut apt = AnchoredPageTable::new(PageTable::from_map(&map, false), initial);
        apt.reanchor(&map, initial);
        OsKernel { map, apt, selector, histogram, regions: None, epochs: 0, distance_changes: 0 }
    }

    /// Boots the kernel with a *fixed* anchor distance (the paper's
    /// `static ideal` sweeps use this).
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not a power of two in `[2, 65536]`.
    #[must_use]
    pub fn with_static_distance(map: Arc<AddressSpaceMap>, distance: u64) -> Self {
        let histogram = ContiguityHistogram::from_map(&map);
        let mut apt = AnchoredPageTable::new(PageTable::from_map(&map, false), distance);
        apt.reanchor(&map, distance);
        OsKernel {
            map,
            apt,
            selector: DistanceSelector::paper_default(),
            histogram,
            regions: None,
            epochs: 0,
            distance_changes: 0,
        }
    }

    /// Boots the kernel with per-region distances (§4.2 extension): the
    /// address space is partitioned into at most `max_regions` regions by
    /// contiguity similarity and each gets its own selected distance.
    #[must_use]
    pub fn with_regions(
        map: Arc<AddressSpaceMap>,
        selector: DistanceSelector,
        max_regions: usize,
    ) -> Self {
        let histogram = ContiguityHistogram::from_map(&map);
        let regions = RegionTable::partition(&map, &selector, max_regions);
        let default = selector.select(&histogram);
        let mut apt = AnchoredPageTable::new(PageTable::from_map(&map, false), default);
        for r in regions.regions() {
            apt.reanchor_range(&map, r.start, r.end, r.distance);
        }
        OsKernel {
            map,
            apt,
            selector,
            histogram,
            regions: Some(regions),
            epochs: 0,
            distance_changes: 0,
        }
    }

    /// The process's mapping.
    #[must_use]
    pub fn map(&self) -> &AddressSpaceMap {
        &self.map
    }

    /// The anchored page table.
    #[must_use]
    pub fn anchored_table(&self) -> &AnchoredPageTable {
        &self.apt
    }

    /// The current anchor distance (the value loaded into the per-process
    /// anchor-distance register on context switch). For multi-region
    /// kernels this is the distance of the region containing `vpn`.
    #[must_use]
    pub fn distance_for(&self, vpn: VirtPageNum) -> u64 {
        match &self.regions {
            Some(rt) => rt.distance_for(vpn).unwrap_or_else(|| self.apt.distance()),
            None => self.apt.distance(),
        }
    }

    /// The process-wide anchor distance (single-region kernels).
    #[must_use]
    pub fn distance(&self) -> u64 {
        self.apt.distance()
    }

    /// The region table, if the kernel runs the multi-region extension.
    #[must_use]
    pub fn regions(&self) -> Option<&RegionTable> {
        self.regions.as_ref()
    }

    /// Current contiguity histogram.
    #[must_use]
    pub fn histogram(&self) -> &ContiguityHistogram {
        &self.histogram
    }

    /// Epochs elapsed.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Number of distance changes actually performed.
    #[must_use]
    pub fn distance_changes(&self) -> u64 {
        self.distance_changes
    }

    /// Probes the anchor entry for `vpn` in the page table (the walker's
    /// off-critical-path anchor fetch, Figure 5c step 7).
    #[must_use]
    pub fn anchor_probe(&self, vpn: VirtPageNum) -> Option<AnchorProbe> {
        match &self.regions {
            Some(rt) => {
                let d = rt.distance_for(vpn)?;
                self.apt.anchor_probe_at(vpn, d)
            }
            None => self.apt.anchor_probe(vpn),
        }
    }

    /// Walks the page table for a regular translation.
    #[must_use]
    pub fn table(&self) -> &PageTable {
        self.apt.table()
    }

    /// The periodic epoch check (§4.1): rebuild the histogram, re-select,
    /// and re-anchor when the change clears the hysteresis. Multi-region
    /// kernels keep their boot-time partition (the paper leaves online
    /// repartitioning as future work).
    pub fn check_epoch(&mut self) -> EpochOutcome {
        self.epochs += 1;
        self.histogram = ContiguityHistogram::from_map(&self.map);
        if self.regions.is_some() {
            return EpochOutcome::default();
        }
        let current = self.apt.distance();
        match self.selector.should_change(&self.histogram, current) {
            Some(new) => {
                let cost = self.apt.reanchor(&self.map, new);
                self.distance_changes += 1;
                EpochOutcome { distance_change: Some((current, new)), sweep_cost: Some(cost) }
            }
            None => EpochOutcome::default(),
        }
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
        let os = OsKernel::with_static_distance(Arc::clone(&map), 64);
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
        assert_eq!(os.distance_changes(), 0);
        assert_eq!(os.epochs(), 12);
    }

    #[test]
    fn epoch_outcome_reports_sweep_cost_on_change() {
        // Boot with a deliberately bad static distance, then let the
        // dynamic path fix it: simulate by constructing with a selector
        // whose candidates exclude the boot value... simplest: boot static,
        // then swap in a kernel rebuilt dynamically and compare.
        let map = Arc::new(Scenario::HighContiguity.generate(65_536, 4));
        let mut os = OsKernel::new(Arc::clone(&map), DistanceSelector::paper_default());
        // Force a mismatch by re-anchoring to 2 behind the selector's back.
        let d = os.distance();
        os.apt.reanchor(&map.clone(), 2);
        let out = os.check_epoch();
        assert!(out.requires_shootdown());
        let (_, new) = out.distance_change.unwrap();
        assert_eq!(new, d);
        assert!(out.sweep_cost.unwrap().anchors_written > 0);
        assert_eq!(os.distance_changes(), 1);
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
        let os = OsKernel::with_regions(Arc::clone(&map), DistanceSelector::paper_default(), 4);
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
