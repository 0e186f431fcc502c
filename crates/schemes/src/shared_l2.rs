//! The shared, mixed-entry L2 TLB array.
//!
//! One physical set-associative array holds 4 KB, 2 MB and anchor entries
//! simultaneously (paper Table 3, "4KB/2MB/Anchor (shared): 1024 entry,
//! 8 way"). Each entry kind probes the array with its own set-index and tag
//! derivation:
//!
//! * 4 KB: index = low VPN bits, tag = VPN.
//! * 2 MB: index = low bits of VPN ≫ 9, tag = huge-page head.
//! * anchor: index = bits `[d, d+N)` of the VPN (paper Figure 6) so that
//!   consecutive anchors — whose low `d` VPN bits are all zero — spread over
//!   *all* sets; tag = AVPN. The naive alternative (index from the low VPN
//!   bits) piles every anchor into the sets whose index bits are zero and is
//!   provided only as an ablation.

use hytlb_tlb::SetAssocTlb;
use hytlb_types::{PhysFrameNum, VirtPageNum, HUGE_PAGE_PAGES};

/// How anchor entries are indexed into the shared array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum AnchorIndexing {
    /// The paper's Figure 6 scheme: index bits start above the anchor
    /// distance, so anchors use every set.
    #[default]
    Fig6,
    /// Naive low-VPN-bit indexing — anchors collide into few sets. Ablation
    /// only.
    NaiveLowBits,
}

/// Entry kinds, packed into the high bits of the tag so kinds never alias.
const KIND_4K: u64 = 1 << 60;
const KIND_2M: u64 = 2 << 60;
const KIND_ANCHOR: u64 = 3 << 60;

/// Payload stored per entry: frame plus (for anchors) the contiguity field.
#[derive(Debug, Clone, Copy)]
struct Payload {
    pfn: u64,
    contiguity: u64,
}

/// An anchor-entry hit: everything needed to finish the translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorHit {
    /// The anchor's VPN.
    pub avpn: VirtPageNum,
    /// The anchor's frame (`APPN`).
    pub appn: PhysFrameNum,
    /// Pages covered starting at `avpn`.
    pub contiguity: u64,
}

impl AnchorHit {
    /// `true` when `vpn` lies within the anchor's contiguous block — the
    /// paper's "contiguity match" comparator of Figure 6.
    #[must_use]
    pub fn covers(&self, vpn: VirtPageNum) -> bool {
        vpn >= self.avpn && (vpn - self.avpn) < self.contiguity
    }

    /// `APPN + (VPN − AVPN)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `vpn` is not covered.
    #[must_use]
    pub fn translate(&self, vpn: VirtPageNum) -> PhysFrameNum {
        debug_assert!(self.covers(vpn));
        self.appn + (vpn - self.avpn)
    }
}

/// The shared 4 KB / 2 MB / anchor L2 array.
///
/// # Examples
///
/// ```
/// use hytlb_schemes::SharedL2;
/// use hytlb_types::{PhysFrameNum, VirtPageNum};
///
/// let mut l2 = SharedL2::new(128, 8);
/// l2.insert_4k(VirtPageNum::new(10), PhysFrameNum::new(99));
/// assert_eq!(l2.lookup_4k(VirtPageNum::new(10)), Some(PhysFrameNum::new(99)));
/// ```
#[derive(Debug, Clone)]
pub struct SharedL2 {
    tlb: SetAssocTlb<Payload>,
    set_mask: u64,
}

impl SharedL2 {
    /// Creates a shared array of `sets` × `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        let tlb = SetAssocTlb::new(sets, ways);
        SharedL2 { set_mask: (sets - 1) as u64, tlb }
    }

    /// The paper's L2: 1024 entries, 8-way (128 sets).
    #[must_use]
    pub fn paper_default() -> Self {
        SharedL2::new(128, 8)
    }

    /// Entry capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.tlb.capacity()
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tlb.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tlb.is_empty()
    }

    /// Geometry of the shared array, for invariant auditing.
    #[must_use]
    pub fn geometry(&self) -> hytlb_tlb::TlbGeometry {
        self.tlb.geometry("L2 shared")
    }

    #[inline]
    fn set_4k(&self, vpn: VirtPageNum) -> usize {
        vpn.index_bits(0, self.set_mask)
    }

    #[inline]
    fn set_2m(&self, head: VirtPageNum) -> usize {
        head.index_bits(9, self.set_mask)
    }

    #[inline]
    fn set_anchor(&self, avpn: VirtPageNum, distance_log2: u32, indexing: AnchorIndexing) -> usize {
        match indexing {
            AnchorIndexing::Fig6 => avpn.index_bits(distance_log2, self.set_mask),
            AnchorIndexing::NaiveLowBits => avpn.index_bits(0, self.set_mask),
        }
    }

    /// Looks up a 4 KB entry.
    #[inline]
    pub fn lookup_4k(&mut self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        let set = self.set_4k(vpn);
        self.tlb.lookup(set, KIND_4K | vpn.as_u64()).map(|p| PhysFrameNum::new(p.pfn))
    }

    /// Inserts a 4 KB entry.
    #[inline]
    pub fn insert_4k(&mut self, vpn: VirtPageNum, pfn: PhysFrameNum) {
        let set = self.set_4k(vpn);
        self.tlb.insert(set, KIND_4K | vpn.as_u64(), Payload { pfn: pfn.as_u64(), contiguity: 0 });
    }

    /// Looks up the 2 MB entry covering `vpn`, returning the frame for
    /// `vpn` itself.
    #[inline]
    pub fn lookup_2m(&mut self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        let head = vpn.align_down(HUGE_PAGE_PAGES);
        let set = self.set_2m(head);
        self.tlb
            .lookup(set, KIND_2M | head.as_u64())
            .map(|p| PhysFrameNum::new(p.pfn) + (vpn - head))
    }

    /// Inserts a 2 MB entry.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `head`/`head_pfn` are not 2 MB-aligned.
    #[inline]
    pub fn insert_2m(&mut self, head: VirtPageNum, head_pfn: PhysFrameNum) {
        debug_assert!(head.is_aligned(HUGE_PAGE_PAGES));
        debug_assert!(head_pfn.is_aligned(HUGE_PAGE_PAGES));
        let set = self.set_2m(head);
        self.tlb.insert(
            set,
            KIND_2M | head.as_u64(),
            Payload { pfn: head_pfn.as_u64(), contiguity: 0 },
        );
    }

    /// Looks up the anchor entry for `vpn` under anchor distance
    /// `1 << distance_log2`. A hit returns the anchor's data whether or not
    /// the contiguity covers `vpn` — the caller implements the Table 2
    /// decision (a hit with a failed contiguity match still walks).
    #[inline]
    pub fn lookup_anchor(
        &mut self,
        vpn: VirtPageNum,
        distance_log2: u32,
        indexing: AnchorIndexing,
    ) -> Option<AnchorHit> {
        let avpn = vpn.align_down(1 << distance_log2);
        let set = self.set_anchor(avpn, distance_log2, indexing);
        self.tlb.lookup(set, KIND_ANCHOR | avpn.as_u64()).map(|p| AnchorHit {
            avpn,
            appn: PhysFrameNum::new(p.pfn),
            contiguity: p.contiguity,
        })
    }

    /// Inserts an anchor entry.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `avpn` is not aligned to the anchor distance.
    pub fn insert_anchor(
        &mut self,
        avpn: VirtPageNum,
        appn: PhysFrameNum,
        contiguity: u64,
        distance_log2: u32,
        indexing: AnchorIndexing,
    ) {
        debug_assert!(avpn.is_aligned(1 << distance_log2));
        let set = self.set_anchor(avpn, distance_log2, indexing);
        self.tlb.insert(
            set,
            KIND_ANCHOR | avpn.as_u64(),
            Payload { pfn: appn.as_u64(), contiguity },
        );
    }

    /// Flushes the whole array (shootdown; also used on anchor-distance
    /// changes, §3.3 "we will invalidate the entire TLB").
    pub fn flush(&mut self) {
        self.tlb.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_do_not_alias() {
        let mut l2 = SharedL2::new(4, 8);
        // VPN 0 as a 4K entry, as a 2M head and as an anchor: all coexist.
        l2.insert_4k(VirtPageNum::new(0), PhysFrameNum::new(1));
        l2.insert_2m(VirtPageNum::new(0), PhysFrameNum::new(512));
        l2.insert_anchor(VirtPageNum::new(0), PhysFrameNum::new(99), 16, 3, AnchorIndexing::Fig6);
        assert_eq!(l2.lookup_4k(VirtPageNum::new(0)), Some(PhysFrameNum::new(1)));
        assert_eq!(l2.lookup_2m(VirtPageNum::new(0)), Some(PhysFrameNum::new(512)));
        let a = l2.lookup_anchor(VirtPageNum::new(0), 3, AnchorIndexing::Fig6).unwrap();
        assert_eq!(a.appn, PhysFrameNum::new(99));
        assert_eq!(l2.len(), 3);
    }

    #[test]
    fn huge_lookup_offsets_within_page() {
        let mut l2 = SharedL2::paper_default();
        l2.insert_2m(VirtPageNum::new(1024), PhysFrameNum::new(4096));
        assert_eq!(l2.lookup_2m(VirtPageNum::new(1024 + 100)), Some(PhysFrameNum::new(4196)));
        assert_eq!(l2.lookup_2m(VirtPageNum::new(2048)), None);
    }

    #[test]
    fn anchor_hit_covers_and_translates() {
        let mut l2 = SharedL2::paper_default();
        let avpn = VirtPageNum::new(64);
        l2.insert_anchor(avpn, PhysFrameNum::new(1000), 10, 4, AnchorIndexing::Fig6);
        let hit = l2.lookup_anchor(VirtPageNum::new(70), 4, AnchorIndexing::Fig6).unwrap();
        assert!(hit.covers(VirtPageNum::new(70)));
        assert_eq!(hit.translate(VirtPageNum::new(70)), PhysFrameNum::new(1006));
        // Offset 10..16 is inside the anchor region but beyond contiguity.
        let hit = l2.lookup_anchor(VirtPageNum::new(75), 4, AnchorIndexing::Fig6).unwrap();
        assert!(!hit.covers(VirtPageNum::new(75)));
    }

    #[test]
    fn fig6_indexing_spreads_anchors_across_sets() {
        let mut fig6 = SharedL2::new(128, 8);
        let mut naive = SharedL2::new(128, 8);
        let d_log = 9u32; // distance 512
                          // 1024 consecutive anchors + immediate re-probe.
        let mut fig6_present = 0;
        let mut naive_present = 0;
        for i in 0..1024u64 {
            let avpn = VirtPageNum::new(i << d_log);
            fig6.insert_anchor(avpn, PhysFrameNum::new(i), 512, d_log, AnchorIndexing::Fig6);
            naive.insert_anchor(
                avpn,
                PhysFrameNum::new(i),
                512,
                d_log,
                AnchorIndexing::NaiveLowBits,
            );
        }
        for i in 0..1024u64 {
            let vpn = VirtPageNum::new(i << d_log);
            if fig6.lookup_anchor(vpn, d_log, AnchorIndexing::Fig6).is_some() {
                fig6_present += 1;
            }
            if naive.lookup_anchor(vpn, d_log, AnchorIndexing::NaiveLowBits).is_some() {
                naive_present += 1;
            }
        }
        // Fig6 retains the full working set (1024 anchors in 1024 entries);
        // naive indexing crams every anchor into set 0 and keeps only 8.
        assert_eq!(fig6_present, 1024);
        assert_eq!(naive_present, 8);
    }

    #[test]
    fn capacity_matches_paper() {
        assert_eq!(SharedL2::paper_default().capacity(), 1024);
    }

    #[test]
    fn mixed_kinds_compete_for_the_same_ways() {
        // One set, eight ways: 4 KB, 2 MB and anchor entries share the
        // physical storage (Table 3: one shared array), so nine entries
        // mapping to the same set evict the LRU one across kinds.
        let mut l2 = SharedL2::new(1, 8);
        for i in 0..8u64 {
            l2.insert_4k(VirtPageNum::new(i), PhysFrameNum::new(i));
        }
        assert_eq!(l2.len(), 8);
        // Touch everything except VPN 0 so it becomes LRU.
        for i in 1..8u64 {
            let _ = l2.lookup_4k(VirtPageNum::new(i));
        }
        l2.insert_anchor(VirtPageNum::new(64), PhysFrameNum::new(640), 8, 3, AnchorIndexing::Fig6);
        assert_eq!(l2.len(), 8, "anchor evicted a 4K way");
        assert_eq!(l2.lookup_4k(VirtPageNum::new(0)), None);
        assert!(l2.lookup_anchor(VirtPageNum::new(65), 3, AnchorIndexing::Fig6).is_some());
    }

    #[test]
    fn anchor_lookup_respects_distance_alignment() {
        let mut l2 = SharedL2::paper_default();
        l2.insert_anchor(VirtPageNum::new(32), PhysFrameNum::new(320), 16, 4, AnchorIndexing::Fig6);
        // A lookup under a different distance computes a different AVPN
        // and must miss.
        assert!(l2.lookup_anchor(VirtPageNum::new(40), 4, AnchorIndexing::Fig6).is_some());
        assert!(l2.lookup_anchor(VirtPageNum::new(40), 6, AnchorIndexing::Fig6).is_none());
    }

    #[test]
    fn flush_clears() {
        let mut l2 = SharedL2::paper_default();
        l2.insert_4k(VirtPageNum::new(3), PhysFrameNum::new(4));
        l2.flush();
        assert!(l2.is_empty());
        assert_eq!(l2.lookup_4k(VirtPageNum::new(3)), None);
    }
}
