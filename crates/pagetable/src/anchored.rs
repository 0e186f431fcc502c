//! Anchored page-table maintenance — the OS side of hybrid coalescing.
//!
//! Every `N`-th page-table entry (aligned by `N`, the *anchor distance*) is
//! an anchor: it carries the number of pages mapped contiguously starting at
//! itself (paper §3.1, Figure 3). The OS writes these fields from its
//! mapping with [`PageTable::reanchor`], and rewrites the whole table when
//! it changes the anchor distance (§3.3), a cost this module models. The
//! distance itself is the OS's state, passed to every call.

use crate::{PageTable, MAX_CONTIGUITY};
use hytlb_mem::AddressSpaceMap;
use hytlb_types::{PhysFrameNum, VirtPageNum};
use std::ops::{Bound, RangeBounds};
use std::time::Duration;

/// Calibrated cost of visiting one anchor slot during a distance-change
/// sweep. The paper reports 452 ms to re-anchor a 30 GB process at distance
/// 8 = 983 k anchors → ≈ 460 ns per anchor (§3.3).
const NS_PER_ANCHOR_VISIT: u64 = 460;

/// Cost of a [`PageTable::reanchor`] sweep.
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

impl PageTable {
    /// Rewrites the contiguity field of every anchor at `distance` whose
    /// page lies in `range`, from the OS's authoritative mapping: each
    /// anchor-aligned mapped page records how many pages are mapped
    /// contiguously from it. A whole-table sweep (`..`) is what a distance
    /// change costs (§3.3); a bounded range is one region of the §4.2
    /// multi-region extension, where each region carries its own distance.
    ///
    /// # Examples
    ///
    /// ```
    /// use hytlb_mem::AddressSpaceMap;
    /// use hytlb_pagetable::PageTable;
    /// use hytlb_types::{Permissions, PhysFrameNum, VirtPageNum};
    ///
    /// let mut map = AddressSpaceMap::new();
    /// map.map_range(VirtPageNum::new(0), PhysFrameNum::new(64), 12, Permissions::READ_WRITE);
    /// let mut table = PageTable::from_map(&map, false);
    /// assert_eq!(table.reanchor(&map, .., 4).slots_visited, 3);
    /// let probe = table.anchor_probe(VirtPageNum::new(6), 4).unwrap();
    /// assert_eq!(probe.avpn, VirtPageNum::new(4));
    /// assert_eq!(probe.contiguity, 8); // pages 4..12 are contiguous
    /// assert_eq!(probe.translate(VirtPageNum::new(6)), PhysFrameNum::new(70));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not a power of two in `[2, 65536]`.
    pub fn reanchor(
        &mut self,
        map: &AddressSpaceMap,
        range: impl RangeBounds<VirtPageNum>,
        distance: u64,
    ) -> ReanchorCost {
        assert!(
            is_valid_anchor_distance(distance),
            "anchor distance must be a power of two in [2, 65536], got {distance}"
        );
        let start = match range.start_bound() {
            Bound::Included(&vpn) => vpn,
            Bound::Excluded(&vpn) => vpn + 1,
            Bound::Unbounded => VirtPageNum::new(0),
        };
        let end = match range.end_bound() {
            Bound::Included(&vpn) => vpn + 1,
            Bound::Excluded(&vpn) => vpn,
            Bound::Unbounded => VirtPageNum::new(u64::MAX),
        };
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
                if self.write_anchor_contiguity(avpn, distance, contiguity) {
                    cost.anchors_written += 1;
                }
                avpn += distance;
            }
        }
        cost
    }

    /// Probes the anchor for `vpn` at `distance`: locates
    /// `AVPN = align_down(vpn, distance)` and reads the anchor PTE's
    /// translation and contiguity (the walker's anchor fetch). Returns
    /// `None` when the anchor page itself is unmapped (no anchor entry
    /// exists) or carries zero contiguity.
    #[must_use]
    pub fn anchor_probe(&self, vpn: VirtPageNum, distance: u64) -> Option<AnchorProbe> {
        let avpn = vpn.align_down(distance);
        let (pfn, contiguity) = self.read_anchor(avpn, distance)?;
        (contiguity != 0).then_some(AnchorProbe { avpn, pfn, contiguity })
    }
}

/// `true` when `distance` is a legal anchor distance: a power of two in
/// `[2, 65536]`.
#[must_use]
pub fn is_valid_anchor_distance(distance: u64) -> bool {
    distance.is_power_of_two() && (2..=65_536).contains(&distance)
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

    /// The map's page table, anchored over its whole span at `distance`.
    fn anchored(m: &AddressSpaceMap, distance: u64) -> PageTable {
        let mut pt = PageTable::from_map(m, false);
        pt.reanchor(m, .., distance);
        pt
    }

    #[test]
    fn reanchor_writes_expected_contiguities() {
        let m = simple_map();
        let mut pt = PageTable::from_map(&m, false);
        let cost = pt.reanchor(&m, .., 4);
        assert!(cost.anchors_written >= 5);
        let contiguity = |vpn| pt.anchor_probe(VirtPageNum::new(vpn), 4).unwrap().contiguity;
        assert_eq!(contiguity(0), 12);
        assert_eq!(contiguity(5), 8);
        assert_eq!(contiguity(9), 4);
        // VPN 13 belongs to anchor 12, whose chunk runs only to 14.
        assert_eq!(contiguity(13), 2);
        assert_eq!(contiguity(34), 8);
    }

    #[test]
    fn ranged_reanchor_writes_only_anchors_inside_the_range() {
        let m = simple_map();
        let mut pt = PageTable::from_map(&m, false);
        // Anchors 4 and 8 lie in [3, 12); their contiguity still runs to
        // the end of their chunk.
        let cost = pt.reanchor(&m, VirtPageNum::new(3)..VirtPageNum::new(12), 4);
        assert_eq!(cost, ReanchorCost { slots_visited: 2, anchors_written: 2 });
        assert!(pt.anchor_probe(VirtPageNum::new(1), 4).is_none());
        assert_eq!(pt.anchor_probe(VirtPageNum::new(5), 4).unwrap().contiguity, 8);
        assert!(pt.anchor_probe(VirtPageNum::new(13), 4).is_none());
        assert!(pt.anchor_probe(VirtPageNum::new(34), 4).is_none());
        // The inclusive range up to 32 adds anchors 12 and 32.
        let cost = pt.reanchor(&m, VirtPageNum::new(12)..=VirtPageNum::new(32), 4);
        assert_eq!(cost.slots_visited, 2);
        assert_eq!(pt.anchor_probe(VirtPageNum::new(34), 4).unwrap().contiguity, 8);
    }

    #[test]
    fn probe_covers_and_translates() {
        let m = simple_map();
        let pt = anchored(&m, 4);
        let p = pt.anchor_probe(VirtPageNum::new(6), 4).unwrap();
        assert!(p.covers(VirtPageNum::new(6)));
        assert!(!p.covers(VirtPageNum::new(3)));
        assert_eq!(p.translate(VirtPageNum::new(6)), PhysFrameNum::new(70));
    }

    #[test]
    fn probe_misses_on_unmapped_anchor() {
        let m = simple_map();
        let pt = anchored(&m, 16);
        // Anchor 16 is unmapped; VPN 35's anchor (32) is mapped.
        assert!(pt.anchor_probe(VirtPageNum::new(17), 16).is_none());
        assert!(pt.anchor_probe(VirtPageNum::new(35), 16).is_some());
    }

    #[test]
    fn anchors_not_aligned_to_chunk_start_are_skipped() {
        let mut m = AddressSpaceMap::new();
        // Chunk [6, 10): no anchor at distance 8 lies inside except 8.
        m.map_range(VirtPageNum::new(6), PhysFrameNum::new(50), 4, rw());
        let pt = anchored(&m, 8);
        let p = pt.anchor_probe(VirtPageNum::new(9), 8).unwrap();
        assert_eq!(p.avpn, VirtPageNum::new(8));
        assert_eq!(p.contiguity, 2);
        // VPN 6's anchor is 0, which is unmapped.
        assert!(pt.anchor_probe(VirtPageNum::new(6), 8).is_none());
    }

    #[test]
    fn contiguity_saturates_at_field_max() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(0), MAX_CONTIGUITY + 512, rw());
        let pt = anchored(&m, 1 << 16);
        let p = pt.anchor_probe(VirtPageNum::new(0), 1 << 16).unwrap();
        assert_eq!(p.contiguity, MAX_CONTIGUITY);
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
        let mut pt = PageTable::from_map(&m, false);
        let c8 = pt.reanchor(&m, .., 8);
        let c64 = pt.reanchor(&m, .., 64);
        assert!(c8.slots_visited > 6 * c64.slots_visited);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_distance_panics() {
        let _ = PageTable::new().reanchor(&AddressSpaceMap::new(), .., 3);
    }

    #[test]
    fn anchor_translations_agree_with_map() {
        let m = Scenario::MediumContiguity.generate(4096, 9);
        for d in [4u64, 16, 64, 512] {
            let pt = anchored(&m, d);
            for (vpn, pfn) in m.iter_pages() {
                if let Some(p) = pt.anchor_probe(vpn, d).filter(|p| p.covers(vpn)) {
                    assert_eq!(p.translate(vpn), pfn, "d={d} vpn={vpn}");
                }
            }
        }
    }
}
