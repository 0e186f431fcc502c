//! First-touch demand pager with transparent-huge-page promotion.
//!
//! Models the paper's "vanilla Linux 3.18.29 machine, which uses demand
//! paging ... Linux transparent huge page support was enabled" (§5.1).
//! Pages are allocated only when first touched; on the first touch of an
//! entirely-unmapped 2 MB virtual region the pager attempts an order-9 buddy
//! allocation and, if one is available, installs a full huge-page-shaped
//! mapping, exactly like THP's fault-time huge allocation.

use crate::{AddressSpaceMap, BuddyAllocator};
use hytlb_types::{Permissions, VirtPageNum, HUGE_PAGE_PAGES};

/// Outcome of a [`DemandPager::touch_in_vma`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchOutcome {
    /// The page was already mapped; no fault.
    AlreadyMapped,
    /// A minor fault mapped one 4 KB page.
    FaultedBase,
    /// A minor fault mapped a whole 2 MB region THP-style.
    FaultedHuge,
    /// The fault could not be served: physical memory is exhausted.
    OutOfMemory,
}

/// An online first-touch pager.
///
/// # Examples
///
/// ```
/// use hytlb_mem::{BuddyAllocator, DemandPager};
/// use hytlb_types::VirtPageNum;
///
/// let buddy = BuddyAllocator::new(1 << 12);
/// let mut pager = DemandPager::new(buddy, true);
/// pager.touch_in_vma(VirtPageNum::new(0), VirtPageNum::new(0), 512);
/// // THP mapped the whole 2 MB VMA on one touch.
/// assert_eq!(pager.map().mapped_pages(), 512);
/// ```
#[derive(Debug)]
pub struct DemandPager {
    buddy: BuddyAllocator,
    map: AddressSpaceMap,
    thp_enabled: bool,
}

impl DemandPager {
    /// Creates a pager over the given allocator. When `thp_enabled`, first
    /// touches of fully-unmapped 2 MB regions try huge allocations first.
    #[must_use]
    pub fn new(buddy: BuddyAllocator, thp_enabled: bool) -> Self {
        DemandPager { buddy, map: AddressSpaceMap::new(), thp_enabled }
    }

    /// The mapping built so far.
    #[must_use]
    pub fn map(&self) -> &AddressSpaceMap {
        &self.map
    }

    /// Consumes the pager, returning the final mapping.
    #[must_use]
    pub fn into_map(self) -> AddressSpaceMap {
        self.map
    }

    /// Touches `vpn`, faulting a mapping in if necessary, inside the VMA
    /// `[vma_start, vma_start + vma_len)`. Like Linux, THP maps a whole 2 MB region only when that region lies
    /// entirely within the VMA — faults in small VMAs always get 4 KB
    /// pages, which is why fine-grained allocators see little THP benefit.
    pub fn touch_in_vma(
        &mut self,
        vpn: VirtPageNum,
        vma_start: VirtPageNum,
        vma_len: u64,
    ) -> TouchOutcome {
        if self.map.translate(vpn).is_some() {
            return TouchOutcome::AlreadyMapped;
        }
        if self.thp_enabled {
            let head = vpn.align_down(HUGE_PAGE_PAGES);
            let inside_vma = head >= vma_start && (head - vma_start) + HUGE_PAGE_PAGES <= vma_len;
            if inside_vma && !self.map.overlaps(head, HUGE_PAGE_PAGES) {
                if let Ok(base) = self.buddy.allocate(9) {
                    self.map.map_range(head, base, HUGE_PAGE_PAGES, Permissions::READ_WRITE);
                    return TouchOutcome::FaultedHuge;
                }
            }
        }
        match self.buddy.allocate(0) {
            Ok(frame) => {
                self.map.map_range(vpn, frame, 1, Permissions::READ_WRITE);
                TouchOutcome::FaultedBase
            }
            Err(_) => TouchOutcome::OutOfMemory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DemandPager {
        /// A touch inside one VMA spanning the whole address space.
        fn touch(&mut self, vpn: VirtPageNum) -> TouchOutcome {
            self.touch_in_vma(vpn, VirtPageNum::new(0), u64::MAX)
        }
    }

    #[test]
    fn touch_maps_once() {
        let mut p = DemandPager::new(BuddyAllocator::new(1 << 12), false);
        assert_eq!(p.touch(VirtPageNum::new(7)), TouchOutcome::FaultedBase);
        assert_eq!(p.touch(VirtPageNum::new(7)), TouchOutcome::AlreadyMapped);
        assert_eq!(p.map().mapped_pages(), 1);
    }

    #[test]
    fn thp_promotes_whole_region() {
        let mut p = DemandPager::new(BuddyAllocator::new(1 << 12), true);
        assert_eq!(p.touch(VirtPageNum::new(100)), TouchOutcome::FaultedHuge);
        assert_eq!(p.map().mapped_pages(), 512);
        // The mapping is a genuine huge page (aligned in both spaces).
        assert!(p.map().huge_page_at(VirtPageNum::new(100)).is_some());
    }

    #[test]
    fn thp_falls_back_to_base_pages_when_no_huge_block() {
        let mut buddy = BuddyAllocator::new(1 << 12);
        // Exhaust all order-9 capability by fragmenting: allocate everything
        // as order-0 and free every other frame.
        let mut frames = Vec::new();
        while let Ok(f) = buddy.allocate(0) {
            frames.push(f);
        }
        for (i, f) in frames.iter().enumerate() {
            if i % 2 == 0 {
                buddy.free(*f, 0).unwrap();
            }
        }
        let mut p = DemandPager::new(buddy, true);
        assert_eq!(p.touch(VirtPageNum::new(0)), TouchOutcome::FaultedBase);
        assert_eq!(p.map().mapped_pages(), 1);
    }

    #[test]
    fn partial_region_blocks_thp() {
        let mut p = DemandPager::new(BuddyAllocator::new(1 << 12), true);
        // Disable THP for the first touch by touching with THP off.
        p.thp_enabled = false;
        p.touch(VirtPageNum::new(5));
        p.thp_enabled = true;
        // Region already partially mapped: must fall back to a base page.
        assert_eq!(p.touch(VirtPageNum::new(6)), TouchOutcome::FaultedBase);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut p = DemandPager::new(BuddyAllocator::new(2), false);
        assert_eq!(p.touch(VirtPageNum::new(0)), TouchOutcome::FaultedBase);
        assert_eq!(p.touch(VirtPageNum::new(1)), TouchOutcome::FaultedBase);
        assert_eq!(p.touch(VirtPageNum::new(2)), TouchOutcome::OutOfMemory);
    }

    #[test]
    fn sequential_touches_yield_contiguity_without_thp() {
        let mut p = DemandPager::new(BuddyAllocator::new(1 << 12), false);
        for i in 0..64 {
            p.touch(VirtPageNum::new(i));
        }
        // A pristine buddy hands out ascending frames, so the map merges
        // into a single chunk.
        assert_eq!(p.map().chunk_count(), 1);
    }
}
