//! THP with 1 GB giant pages — the page-size-scalability extension.
//!
//! §2.1 of the paper: "the latest architecture can support both 4KB and
//! 2MB pages in the L2 TLBs without requiring separate TLBs for each page
//! size, although the 1GB pages use a separate and smaller 1GB page L2
//! TLB" — and argues that the coverage of fixed page sizes "will be
//! eventually limited". This scheme models exactly that hardware: the
//! shared 4 KB/2 MB L2 plus a separate 16-entry 4-way 1 GB TLB, with the
//! OS installing 1 GB leaves wherever the mapping is giant-page-shaped.
//! Comparing it against the anchor TLB quantifies the paper's scalability
//! argument: 16 giant entries cover 16 GB — but only in 1 GB-aligned,
//! fully-contiguous units, which fragmented mappings never provide.

use crate::scheme::{AccessResult, LatencyModel, SchemeStats, TranslationPath, TranslationScheme};
use crate::shared_l2::SharedL2;
use hytlb_mem::AddressSpaceMap;
use hytlb_pagetable::{PageTable, PageWalker};
use hytlb_tlb::{L1Tlb, SetAssocTlb};
use hytlb_types::{
    Cycles, PageSize, PhysFrameNum, VirtAddr, VirtPageNum, GIANT_PAGE_PAGES, HUGE_PAGE_PAGES,
};
use std::sync::Arc;

/// THP extended with 1 GB pages and their separate small L2 TLB.
#[derive(Debug)]
pub struct Thp1GScheme {
    l1: L1Tlb,
    l2: SharedL2,
    /// The separate 1 GB-page L2 TLB: 16 entries, 4-way (Skylake-class).
    giant: SetAssocTlb<u64>,
    table: PageTable,
    walker: PageWalker,
    latency: LatencyModel,
    stats: SchemeStats,
    _map: Arc<AddressSpaceMap>,
}

impl Thp1GScheme {
    /// Builds the MMU: giant-page-shaped 1 GB regions become 1 GB leaves,
    /// remaining huge-page-shaped regions become 2 MB leaves, the rest
    /// 4 KB.
    #[must_use]
    pub fn new(map: Arc<AddressSpaceMap>, latency: LatencyModel) -> Self {
        let mut table = PageTable::new();
        for chunk in map.chunks() {
            let mut vpn = chunk.vpn;
            let end = chunk.end_vpn();
            while vpn < end {
                // Giant/huge candidacy is decided chunk-locally: `vpn` is
                // aligned and inside this chunk with `end - vpn` pages to
                // spare, which is everything `map.giant_page_at(vpn) ==
                // Some(vpn)` would check except PFN alignment — so only
                // that remains, with no `BTreeMap` probe per region.
                // audit:allow(panic): invariant — `vpn < end`, so it lies
                // inside `chunk` and always translates.
                let pfn = chunk.translate(vpn).expect("inside");
                if vpn.is_aligned(GIANT_PAGE_PAGES)
                    && end - vpn >= GIANT_PAGE_PAGES
                    && pfn.is_aligned(GIANT_PAGE_PAGES)
                {
                    table.map_giant(vpn, pfn, chunk.perms);
                    vpn += GIANT_PAGE_PAGES;
                } else if vpn.is_aligned(HUGE_PAGE_PAGES)
                    && end - vpn >= HUGE_PAGE_PAGES
                    && pfn.is_aligned(HUGE_PAGE_PAGES)
                {
                    table.map_huge(vpn, pfn, chunk.perms);
                    vpn += HUGE_PAGE_PAGES;
                } else {
                    table.map(vpn, pfn, chunk.perms);
                    vpn += 1;
                }
            }
        }
        Thp1GScheme {
            l1: L1Tlb::paper_default(),
            l2: SharedL2::paper_default(),
            giant: SetAssocTlb::new(4, 4),
            table,
            walker: PageWalker::default(),
            latency,
            stats: SchemeStats::default(),
            _map: map,
        }
    }

    /// Number of 1 GB leaves the OS installed.
    #[must_use]
    pub fn giant_leaves(&self) -> u64 {
        self.table.mapped_giant_pages()
    }

    fn giant_set(&self, head: VirtPageNum) -> usize {
        head.index_bits(18, (self.giant.sets() as u64) - 1)
    }

    fn lookup_giant(&mut self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        let head = vpn.align_down(GIANT_PAGE_PAGES);
        let set = self.giant_set(head);
        self.giant.lookup(set, head.as_u64()).map(|&pfn| PhysFrameNum::new(pfn) + (vpn - head))
    }
}

impl TranslationScheme for Thp1GScheme {
    fn name(&self) -> &str {
        "THP-1G"
    }

    #[inline]
    fn access(&mut self, vaddr: VirtAddr) -> AccessResult {
        let vpn = vaddr.page_number();
        let result = if let Some(pfn) = self.l1.lookup(vpn) {
            AccessResult { path: TranslationPath::L1Hit, cycles: Cycles::ZERO, pfn: Some(pfn) }
        } else if let Some(pfn) = self.l2.lookup_4k(vpn) {
            self.l1.insert(vpn, pfn, PageSize::Base4K);
            AccessResult {
                path: TranslationPath::L2RegularHit,
                cycles: self.latency.l2_hit,
                pfn: Some(pfn),
            }
        } else if let Some(pfn) = self.l2.lookup_2m(vpn) {
            self.l1.insert(vpn, pfn, PageSize::Huge2M);
            AccessResult {
                path: TranslationPath::L2RegularHit,
                cycles: self.latency.l2_hit,
                pfn: Some(pfn),
            }
        } else if let Some(pfn) = self.lookup_giant(vpn) {
            // The separate 1 GB TLB is probed in parallel with the shared
            // L2; a hit costs the same 7 cycles.
            AccessResult {
                path: TranslationPath::L2RegularHit,
                cycles: self.latency.l2_hit,
                pfn: Some(pfn),
            }
        } else {
            let walk = self.walker.walk(&self.table, vpn);
            match walk.leaf {
                Some(leaf) => {
                    let pfn = leaf.pfn_for(vpn);
                    match leaf.size {
                        PageSize::Base4K => self.l2.insert_4k(vpn, pfn),
                        PageSize::Huge2M => self.l2.insert_2m(leaf.head_vpn, leaf.head_pfn),
                        PageSize::Giant1G => {
                            let set = self.giant_set(leaf.head_vpn);
                            self.giant.insert(set, leaf.head_vpn.as_u64(), leaf.head_pfn.as_u64());
                        }
                    }
                    self.l1.insert(vpn, pfn, leaf.size);
                    AccessResult {
                        path: TranslationPath::Walk,
                        cycles: walk.cycles,
                        pfn: Some(pfn),
                    }
                }
                None => {
                    AccessResult { path: TranslationPath::Fault, cycles: walk.cycles, pfn: None }
                }
            }
        };
        self.stats.record(result);
        result
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.giant.flush();
    }

    fn geometries(&self) -> Vec<hytlb_tlb::TlbGeometry> {
        let mut g = self.l1.geometries();
        g.push(self.l2.geometry());
        g.push(self.giant.geometry("L2 1GB"));
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_types::Permissions;

    fn va(vpn: VirtPageNum) -> VirtAddr {
        vpn.base_addr()
    }

    fn giant_map(giants: u64) -> Arc<AddressSpaceMap> {
        let mut m = AddressSpaceMap::new();
        // 1 GB-aligned VA and PA.
        m.map_range(
            VirtPageNum::new(GIANT_PAGE_PAGES * 4),
            PhysFrameNum::new(GIANT_PAGE_PAGES * 8),
            GIANT_PAGE_PAGES * giants,
            Permissions::READ_WRITE,
        );
        Arc::new(m)
    }

    #[test]
    fn giant_shaped_mapping_installs_giant_leaves() {
        let map = giant_map(2);
        let s = Thp1GScheme::new(Arc::clone(&map), LatencyModel::default());
        assert_eq!(s.giant_leaves(), 2);
    }

    #[test]
    fn one_walk_serves_a_whole_gigabyte() {
        let map = giant_map(1);
        let mut s = Thp1GScheme::new(Arc::clone(&map), LatencyModel::default());
        let head = map.chunks().next().unwrap().vpn;
        assert_eq!(s.access(va(head)).path, TranslationPath::Walk);
        // A page 900 MB away: giant-TLB hit (1 GB pages have no L1 array).
        let far = head + 230_000;
        let r = s.access(va(far));
        assert_eq!(r.path, TranslationPath::L2RegularHit);
        assert_eq!(r.pfn, Some(PhysFrameNum::new(GIANT_PAGE_PAGES * 8 + 230_000)));
    }

    #[test]
    fn misaligned_gigabyte_falls_back_to_huge_pages() {
        let mut m = AddressSpaceMap::new();
        // 1 GB of memory, 2 MB-aligned but NOT 1 GB-aligned physically.
        m.map_range(
            VirtPageNum::new(GIANT_PAGE_PAGES),
            PhysFrameNum::new(GIANT_PAGE_PAGES + HUGE_PAGE_PAGES),
            GIANT_PAGE_PAGES,
            Permissions::READ_WRITE,
        );
        let map = Arc::new(m);
        let s = Thp1GScheme::new(Arc::clone(&map), LatencyModel::default());
        assert_eq!(s.giant_leaves(), 0);
        assert_eq!(s.table.mapped_huge_pages(), 512);
    }

    #[test]
    fn translations_match_map() {
        let map = giant_map(1);
        let mut s = Thp1GScheme::new(Arc::clone(&map), LatencyModel::default());
        for (vpn, pfn) in map.iter_pages().step_by(40_961) {
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn), "at {vpn}");
        }
    }

    #[test]
    fn giant_tlb_capacity_is_sixteen() {
        let s = Thp1GScheme::new(giant_map(1), LatencyModel::default());
        assert_eq!(s.giant.capacity(), 16);
    }

    #[test]
    fn flush_clears_giant_tlb() {
        let map = giant_map(1);
        let mut s = Thp1GScheme::new(Arc::clone(&map), LatencyModel::default());
        let head = map.chunks().next().unwrap().vpn;
        s.access(va(head));
        s.flush();
        assert_eq!(s.access(va(head + 7)).path, TranslationPath::Walk);
    }
}
