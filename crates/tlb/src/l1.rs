//! The split first-level TLB shared by every scheme.
//!
//! Table 3, "Common L1": 64-entry 4-way for 4 KB pages and 32-entry 4-way
//! for 2 MB pages. Its access latency is hidden (the L1 TLB is probed in
//! parallel with the L1 cache), so it contributes no cycles; its job in the
//! model is to filter which accesses reach the L2 structures.

use crate::SetAssocTlb;
use hytlb_types::{PageSize, PhysFrameNum, VirtPageNum, HUGE_PAGE_PAGES};

/// A translation cached in the L1 TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Entry {
    head_pfn: PhysFrameNum,
    size: PageSize,
}

/// The split 4 KB / 2 MB first-level TLB.
///
/// # Examples
///
/// ```
/// use hytlb_tlb::L1Tlb;
/// use hytlb_types::{PageSize, PhysFrameNum, VirtPageNum};
///
/// let mut l1 = L1Tlb::paper_default();
/// let vpn = VirtPageNum::new(0x1234);
/// assert_eq!(l1.lookup(vpn), None);
/// l1.insert(vpn, PhysFrameNum::new(7), PageSize::Base4K);
/// assert_eq!(l1.lookup(vpn), Some(PhysFrameNum::new(7)));
/// ```
///
/// # Same-page memo
///
/// The L1 remembers the last `(vpn, pfn)` it served and answers a repeated
/// lookup of that VPN without probing the arrays. This never changes a
/// result or a later hit, miss or eviction: after any L1 op on page `v`,
/// the way holding `v` is at the front of its set, so the skipped re-probe
/// changes nothing.
/// The memo is set by a lookup hit and by a 4 KB or 2 MB insert (the
/// latter only when the 4 KB array does not also hold the page), and
/// cleared by a lookup miss, a 1 GB insert and [`L1Tlb::flush`].
#[derive(Debug, Clone)]
pub struct L1Tlb {
    base: SetAssocTlb<L1Entry>,
    huge: SetAssocTlb<L1Entry>,
    last: Option<(VirtPageNum, PhysFrameNum)>,
}

impl L1Tlb {
    /// Builds an L1 with explicit geometry: `(sets, ways)` per size class.
    ///
    /// # Panics
    ///
    /// Panics if either set count is not a power of two or ways are zero.
    #[must_use]
    pub fn new(base_sets: usize, base_ways: usize, huge_sets: usize, huge_ways: usize) -> Self {
        L1Tlb {
            base: SetAssocTlb::new(base_sets, base_ways),
            huge: SetAssocTlb::new(huge_sets, huge_ways),
            last: None,
        }
    }

    /// The paper's configuration: 4 KB 64-entry 4-way, 2 MB 32-entry 4-way.
    #[must_use]
    pub fn paper_default() -> Self {
        L1Tlb::new(16, 4, 8, 4)
    }

    #[inline]
    fn base_set(&self, vpn: VirtPageNum) -> usize {
        vpn.index_bits(0, (self.base.sets() as u64) - 1)
    }

    #[inline]
    fn huge_set(&self, head: VirtPageNum) -> usize {
        head.index_bits(9, (self.huge.sets() as u64) - 1)
    }

    /// Geometries of both size-class arrays, for invariant auditing.
    #[must_use]
    pub fn geometries(&self) -> Vec<crate::TlbGeometry> {
        vec![self.base.geometry("L1 4KB"), self.huge.geometry("L1 2MB")]
    }

    /// Looks up `vpn` in both size classes, returning its backing frame.
    #[inline]
    pub fn lookup(&mut self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        if let Some((last_vpn, pfn)) = self.last {
            if last_vpn == vpn {
                return Some(pfn);
            }
        }
        let pfn = self.probe(vpn);
        self.last = pfn.map(|pfn| (vpn, pfn));
        pfn
    }

    /// The array probe behind [`L1Tlb::lookup`]: 4 KB array first, then the
    /// 2 MB array under the huge page's head.
    #[inline]
    fn probe(&mut self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        let set = self.base_set(vpn);
        if let Some(e) = self.base.lookup(set, vpn.as_u64()) {
            return Some(e.head_pfn);
        }
        let head = vpn.align_down(HUGE_PAGE_PAGES);
        let set = self.huge_set(head);
        self.huge.lookup(set, head.as_u64()).map(|e| e.head_pfn + (vpn - head))
    }

    /// The frame a lookup of `vpn` would return, without touching LRU
    /// recency or the same-page memo.
    #[must_use]
    pub fn peek(&self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        if let Some(e) = self.base.peek(self.base_set(vpn), vpn.as_u64()) {
            return Some(e.head_pfn);
        }
        let head = vpn.align_down(HUGE_PAGE_PAGES);
        self.huge.peek(self.huge_set(head), head.as_u64()).map(|e| e.head_pfn + (vpn - head))
    }

    /// Installs a translation. For [`PageSize::Huge2M`], `vpn`/`pfn` may be
    /// any page within the huge page — the entry is stored under its head.
    /// 1 GB pages have no array in this L1 (real parts keep a tiny separate
    /// structure); their translations simply are not cached here, so giant-
    /// mapped accesses always probe the L2.
    #[inline]
    pub fn insert(&mut self, vpn: VirtPageNum, pfn: PhysFrameNum, size: PageSize) {
        match size {
            PageSize::Base4K => {
                let set = self.base_set(vpn);
                self.base.insert(set, vpn.as_u64(), L1Entry { head_pfn: pfn, size });
                self.last = Some((vpn, pfn));
            }
            PageSize::Huge2M => {
                let head = vpn.align_down(HUGE_PAGE_PAGES);
                let head_pfn = PhysFrameNum::new(pfn.as_u64() - (vpn - head));
                let set = self.huge_set(head);
                self.huge.insert(set, head.as_u64(), L1Entry { head_pfn, size });
                // A lookup probes the 4 KB array first, so the new 2 MB
                // entry answers for `vpn` only if that array misses it.
                let base_set = self.base_set(vpn);
                self.last = self.base.peek(base_set, vpn.as_u64()).is_none().then_some((vpn, pfn));
            }
            PageSize::Giant1G => self.last = None,
        }
    }

    /// Flushes both arrays (context switch / shootdown).
    pub fn flush(&mut self) {
        self.base.flush();
        self.huge.flush();
        self.last = None;
    }

    /// Live entries across both arrays.
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.len() + self.huge.len()
    }

    /// `true` when both arrays are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.huge.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_page_roundtrip() {
        let mut l1 = L1Tlb::paper_default();
        l1.insert(VirtPageNum::new(100), PhysFrameNum::new(7), PageSize::Base4K);
        assert_eq!(l1.lookup(VirtPageNum::new(100)), Some(PhysFrameNum::new(7)));
        assert_eq!(l1.lookup(VirtPageNum::new(101)), None);
    }

    #[test]
    fn huge_page_covers_whole_region() {
        let mut l1 = L1Tlb::paper_default();
        // Insert via an interior page; head math must normalise it.
        l1.insert(VirtPageNum::new(512 + 37), PhysFrameNum::new(2048 + 37), PageSize::Huge2M);
        assert_eq!(l1.lookup(VirtPageNum::new(512)), Some(PhysFrameNum::new(2048)));
        assert_eq!(l1.lookup(VirtPageNum::new(1023)), Some(PhysFrameNum::new(2559)));
        assert_eq!(l1.lookup(VirtPageNum::new(1024)), None);
    }

    #[test]
    fn capacity_matches_table3() {
        let l1 = L1Tlb::paper_default();
        assert_eq!(l1.base.capacity(), 64);
        assert_eq!(l1.huge.capacity(), 32);
    }

    #[test]
    fn flush_empties_both() {
        let mut l1 = L1Tlb::paper_default();
        l1.insert(VirtPageNum::new(1), PhysFrameNum::new(1), PageSize::Base4K);
        l1.insert(VirtPageNum::new(512), PhysFrameNum::new(512), PageSize::Huge2M);
        assert_eq!(l1.len(), 2);
        l1.flush();
        assert!(l1.is_empty());
    }

    #[test]
    fn conflict_misses_occur_beyond_associativity() {
        let mut l1 = L1Tlb::paper_default();
        // 5 pages mapping to the same set (stride = number of sets = 16).
        for i in 0..5u64 {
            l1.insert(VirtPageNum::new(i * 16), PhysFrameNum::new(i), PageSize::Base4K);
        }
        // The first-inserted page was evicted by LRU.
        assert_eq!(l1.lookup(VirtPageNum::new(0)), None);
        assert_eq!(l1.lookup(VirtPageNum::new(64)), Some(PhysFrameNum::new(4)));
    }
}
