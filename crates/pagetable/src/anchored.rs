//! Anchored page-table maintenance — the OS side of hybrid coalescing.
//!
//! Every `N`-th page-table entry (aligned by `N`, the *anchor distance*) is
//! an anchor: it carries the number of pages mapped contiguously starting at
//! itself (paper §3.1, Figure 3). The OS owns this data: it refreshes the
//! contiguity fields on every mapping change and rewrites the whole table
//! when it changes the anchor distance (§3.3), a cost this module models.

use crate::{PageTable, MAX_CONTIGUITY};
use hytlb_mem::AddressSpaceMap;
use hytlb_types::{PhysFrameNum, VirtPageNum};
use std::time::Duration;

/// Calibrated cost of visiting one anchor slot during a distance-change
/// sweep. The paper reports 452 ms to re-anchor a 30 GB process at distance
/// 8 = 983 k anchors → ≈ 460 ns per anchor (§3.3).
const NS_PER_ANCHOR_VISIT: u64 = 460;

/// Cost of a [`AnchoredPageTable::reanchor`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReanchorCost {
    /// Anchor-aligned slots visited by the sweep (mapped footprint / N).
    pub slots_visited: u64,
    /// Anchors whose contiguity field was actually (re)written.
    pub anchors_written: u64,
}

impl ReanchorCost {
    /// Estimated wall-clock time of the sweep under the calibrated model.
    #[must_use]
    pub fn estimated_time(&self) -> Duration {
        Duration::from_nanos(self.slots_visited * NS_PER_ANCHOR_VISIT)
    }
}

/// Result of an anchor probe: the information an anchor TLB entry is filled
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorProbe {
    /// The anchor's virtual page number (aligned to the anchor distance).
    pub avpn: VirtPageNum,
    /// Frame backing the anchor page itself (`APPN` in the paper).
    pub pfn: PhysFrameNum,
    /// Pages mapped contiguously starting at `avpn`.
    pub contiguity: u64,
}

impl AnchorProbe {
    /// `true` if `vpn` can be translated through this anchor, i.e.
    /// `vpn - avpn < contiguity` (the paper's "contiguity match").
    #[must_use]
    pub fn covers(&self, vpn: VirtPageNum) -> bool {
        vpn >= self.avpn && (vpn - self.avpn) < self.contiguity
    }

    /// Frame for `vpn`: `APPN + (VPN − AVPN)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `vpn` is not covered.
    #[must_use]
    pub fn translate(&self, vpn: VirtPageNum) -> PhysFrameNum {
        debug_assert!(self.covers(vpn));
        self.pfn + (vpn - self.avpn)
    }
}

/// A page table plus its anchor metadata and distance.
///
/// # Examples
///
/// ```
/// use hytlb_mem::AddressSpaceMap;
/// use hytlb_pagetable::{AnchoredPageTable, PageTable};
/// use hytlb_types::{Permissions, PhysFrameNum, VirtPageNum};
///
/// let mut map = AddressSpaceMap::new();
/// map.map_range(VirtPageNum::new(0), PhysFrameNum::new(64), 12, Permissions::READ_WRITE);
/// let mut apt = AnchoredPageTable::new(PageTable::from_map(&map, false), 4);
/// apt.reanchor(&map, 4);
/// let probe = apt.anchor_probe(VirtPageNum::new(6)).unwrap();
/// assert_eq!(probe.avpn, VirtPageNum::new(4));
/// assert_eq!(probe.contiguity, 8); // pages 4..12 are contiguous
/// assert_eq!(probe.translate(VirtPageNum::new(6)), PhysFrameNum::new(70));
/// ```
#[derive(Debug, Clone)]
pub struct AnchoredPageTable {
    table: PageTable,
    distance: u64,
}

impl AnchoredPageTable {
    /// Wraps a page table with an initial anchor distance.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not a power of two in `[2, 65536]`.
    #[must_use]
    pub fn new(table: PageTable, distance: u64) -> Self {
        assert_valid_distance(distance);
        AnchoredPageTable { table, distance }
    }

    /// Current anchor distance in pages.
    #[must_use]
    pub fn distance(&self) -> u64 {
        self.distance
    }

    /// The underlying page table.
    #[must_use]
    pub fn table(&self) -> &PageTable {
        &self.table
    }

    /// Mutable access to the underlying page table (for OS models that map
    /// pages during execution).
    pub fn table_mut(&mut self) -> &mut PageTable {
        &mut self.table
    }

    /// Rewrites every anchor contiguity field for `new_distance`, using the
    /// OS's authoritative mapping. Returns the sweep cost.
    ///
    /// # Panics
    ///
    /// Panics if `new_distance` is invalid (see [`AnchoredPageTable::new`]).
    pub fn reanchor(&mut self, map: &AddressSpaceMap, new_distance: u64) -> ReanchorCost {
        assert_valid_distance(new_distance);
        self.distance = new_distance;
        self.reanchor_range(map, VirtPageNum::new(0), VirtPageNum::new(u64::MAX), new_distance)
    }

    /// Rewrites anchors only for `[start, end)` with an explicit distance,
    /// leaving the table's default distance untouched. This is the
    /// primitive behind the paper's §4.2 multi-region extension, where each
    /// semantic region carries its own anchor distance.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is invalid (see [`AnchoredPageTable::new`]).
    pub fn reanchor_range(
        &mut self,
        map: &AddressSpaceMap,
        start: VirtPageNum,
        end: VirtPageNum,
        distance: u64,
    ) -> ReanchorCost {
        assert_valid_distance(distance);
        let mut cost = ReanchorCost::default();
        for chunk in map.chunks() {
            if chunk.end_vpn() <= start || chunk.vpn >= end {
                continue;
            }
            let lo = chunk.vpn.max(start);
            let hi = chunk.end_vpn().min(end);
            // First anchor-aligned VPN at or after the clipped chunk start.
            let mut avpn = lo.align_down(distance);
            if avpn < lo {
                avpn += distance;
            }
            while avpn < hi {
                let contiguity = (chunk.end_vpn() - avpn).min(MAX_CONTIGUITY);
                cost.slots_visited += 1;
                if self.table.write_anchor_contiguity(avpn, distance, contiguity) {
                    cost.anchors_written += 1;
                }
                avpn += distance;
            }
        }
        cost
    }

    /// Refreshes the anchors affected by a mapping change in
    /// `[vpn, vpn + len)` (allocation, relocation or deallocation), without
    /// a full sweep — the "Updating Memory Mapping" path of §3.3.
    pub fn update_range(&mut self, map: &AddressSpaceMap, vpn: VirtPageNum, len: u64) {
        let d = self.distance;
        // A change can affect the anchor covering `vpn` and every anchor up
        // to the end of the (possibly merged) chunk now containing the
        // range, plus anchors inside the range itself when it was unmapped.
        let start = match map.chunk_containing(vpn) {
            Some(c) => c.vpn.align_down(d),
            None => vpn.align_down(d),
        };
        let end_probe = vpn + len.saturating_sub(1);
        let end = match map.chunk_containing(end_probe) {
            Some(c) => c.end_vpn(),
            None => vpn + len,
        };
        let mut avpn = start;
        while avpn < end {
            let contiguity = map.contiguity_at(avpn).min(MAX_CONTIGUITY);
            let _ = self.table.write_anchor_contiguity(avpn, d, contiguity);
            avpn += d;
        }
    }

    /// Probes the anchor for `vpn`: locates `AVPN = align_down(vpn, N)`,
    /// reads the anchor PTE's translation and contiguity. Returns `None`
    /// when the anchor page itself is unmapped (no anchor entry exists) or
    /// carries zero contiguity.
    #[must_use]
    pub fn anchor_probe(&self, vpn: VirtPageNum) -> Option<AnchorProbe> {
        self.anchor_probe_at(vpn, self.distance)
    }

    /// Like [`AnchoredPageTable::anchor_probe`] but with an explicit anchor
    /// distance — used by multi-region configurations where the distance
    /// depends on the region containing `vpn`.
    #[must_use]
    pub fn anchor_probe_at(&self, vpn: VirtPageNum, distance: u64) -> Option<AnchorProbe> {
        let avpn = vpn.align_down(distance);
        let (pfn, contiguity) = self.table.read_anchor(avpn, distance)?;
        (contiguity != 0).then_some(AnchorProbe { avpn, pfn, contiguity })
    }
}

fn assert_valid_distance(distance: u64) {
    assert!(
        distance.is_power_of_two() && (2..=65_536).contains(&distance),
        "anchor distance must be a power of two in [2, 65536], got {distance}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;
    use hytlb_types::Permissions;

    fn rw() -> Permissions {
        Permissions::READ_WRITE
    }

    fn simple_map() -> AddressSpaceMap {
        let mut m = AddressSpaceMap::new();
        // Chunks: [0,12) -> 64.., [12,14) -> 200.., [32,40) -> 300..
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(64), 12, rw());
        m.map_range(VirtPageNum::new(12), PhysFrameNum::new(200), 2, rw());
        m.map_range(VirtPageNum::new(32), PhysFrameNum::new(300), 8, rw());
        m
    }

    #[test]
    fn reanchor_writes_expected_contiguities() {
        let m = simple_map();
        let mut apt = AnchoredPageTable::new(PageTable::from_map(&m, false), 4);
        let cost = apt.reanchor(&m, 4);
        assert!(cost.anchors_written >= 5);
        assert_eq!(apt.anchor_probe(VirtPageNum::new(0)).unwrap().contiguity, 12);
        assert_eq!(apt.anchor_probe(VirtPageNum::new(5)).unwrap().contiguity, 8);
        assert_eq!(apt.anchor_probe(VirtPageNum::new(9)).unwrap().contiguity, 4);
        // VPN 13 belongs to anchor 12, whose chunk runs only to 14.
        assert_eq!(apt.anchor_probe(VirtPageNum::new(13)).unwrap().contiguity, 2);
        assert_eq!(apt.anchor_probe(VirtPageNum::new(34)).unwrap().contiguity, 8);
    }

    #[test]
    fn probe_covers_and_translates() {
        let m = simple_map();
        let mut apt = AnchoredPageTable::new(PageTable::from_map(&m, false), 4);
        apt.reanchor(&m, 4);
        let p = apt.anchor_probe(VirtPageNum::new(6)).unwrap();
        assert!(p.covers(VirtPageNum::new(6)));
        assert!(!p.covers(VirtPageNum::new(3)));
        assert_eq!(p.translate(VirtPageNum::new(6)), PhysFrameNum::new(70));
    }

    #[test]
    fn probe_misses_on_unmapped_anchor() {
        let m = simple_map();
        let mut apt = AnchoredPageTable::new(PageTable::from_map(&m, false), 16);
        apt.reanchor(&m, 16);
        // Anchor 16 is unmapped; VPN 35's anchor (32) is mapped.
        assert!(apt.anchor_probe(VirtPageNum::new(17)).is_none());
        assert!(apt.anchor_probe(VirtPageNum::new(35)).is_some());
    }

    #[test]
    fn anchors_not_aligned_to_chunk_start_are_skipped() {
        let mut m = AddressSpaceMap::new();
        // Chunk [6, 10): no anchor at distance 8 lies inside except 8.
        m.map_range(VirtPageNum::new(6), PhysFrameNum::new(50), 4, rw());
        let mut apt = AnchoredPageTable::new(PageTable::from_map(&m, false), 8);
        apt.reanchor(&m, 8);
        let p = apt.anchor_probe(VirtPageNum::new(9)).unwrap();
        assert_eq!(p.avpn, VirtPageNum::new(8));
        assert_eq!(p.contiguity, 2);
        // VPN 6's anchor is 0, which is unmapped.
        assert!(apt.anchor_probe(VirtPageNum::new(6)).is_none());
    }

    #[test]
    fn contiguity_saturates_at_field_max() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(0), MAX_CONTIGUITY + 512, rw());
        let mut apt = AnchoredPageTable::new(PageTable::from_map(&m, false), 1 << 16);
        apt.reanchor(&m, 1 << 16);
        assert_eq!(apt.anchor_probe(VirtPageNum::new(0)).unwrap().contiguity, MAX_CONTIGUITY);
    }

    #[test]
    fn update_range_tracks_mapping_growth() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(64), 4, rw());
        let mut apt = AnchoredPageTable::new(PageTable::from_map(&m, false), 4);
        apt.reanchor(&m, 4);
        assert_eq!(apt.anchor_probe(VirtPageNum::new(0)).unwrap().contiguity, 4);
        // The mapping grows contiguously by 4 pages.
        m.map_range(VirtPageNum::new(4), PhysFrameNum::new(68), 4, rw());
        for i in 4..8 {
            apt.table_mut().map(VirtPageNum::new(i), PhysFrameNum::new(64 + i), rw());
        }
        apt.update_range(&m, VirtPageNum::new(4), 4);
        assert_eq!(apt.anchor_probe(VirtPageNum::new(0)).unwrap().contiguity, 8);
        assert_eq!(apt.anchor_probe(VirtPageNum::new(5)).unwrap().contiguity, 4);
    }

    #[test]
    fn update_range_tracks_unmap() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(64), 8, rw());
        let mut apt = AnchoredPageTable::new(PageTable::from_map(&m, false), 4);
        apt.reanchor(&m, 4);
        m.unmap_range(VirtPageNum::new(2), 6);
        apt.update_range(&m, VirtPageNum::new(2), 6);
        assert_eq!(apt.anchor_probe(VirtPageNum::new(0)).unwrap().contiguity, 2);
        // Anchor 4 now covers nothing.
        assert!(apt.anchor_probe(VirtPageNum::new(5)).is_none());
    }

    #[test]
    fn reanchor_cost_matches_paper_calibration() {
        // 30 GB at distance 8: the paper measured 452 ms.
        let slots = 30u64 * 1024 * 1024 * 1024 / 4096 / 8;
        let cost = ReanchorCost { slots_visited: slots, anchors_written: slots };
        let t = cost.estimated_time();
        assert!((t.as_millis() as i64 - 452).abs() < 10, "{t:?}");
    }

    #[test]
    fn reanchor_visits_scale_inversely_with_distance() {
        let m = Scenario::MediumContiguity.generate(8192, 1);
        let mut apt = AnchoredPageTable::new(PageTable::from_map(&m, false), 8);
        let c8 = apt.reanchor(&m, 8);
        let c64 = apt.reanchor(&m, 64);
        assert!(c8.slots_visited > 6 * c64.slots_visited);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_distance_panics() {
        let _ = AnchoredPageTable::new(PageTable::new(), 3);
    }

    #[test]
    fn anchor_translations_agree_with_map() {
        let m = Scenario::MediumContiguity.generate(4096, 9);
        for d in [4u64, 16, 64, 512] {
            let mut apt = AnchoredPageTable::new(PageTable::from_map(&m, false), d);
            apt.reanchor(&m, d);
            for (vpn, pfn) in m.iter_pages() {
                if let Some(p) = apt.anchor_probe(vpn) {
                    if p.covers(vpn) {
                        assert_eq!(p.translate(vpn), pfn, "d={d} vpn={vpn}");
                    }
                }
            }
        }
    }
}
