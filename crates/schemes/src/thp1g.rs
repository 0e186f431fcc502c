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

use crate::mmu::{Cascade, CoalescedLevel, Mmu, Probe, PteBlock};
use crate::paged::fill_paged;
use crate::scheme::TranslationPath;
use crate::shared_l2::SharedL2;
use hytlb_mem::AddressSpaceMap;
use hytlb_pagetable::{LeafEntry, PageTable};
use hytlb_tlb::{SetAssocTlb, TlbGeometry};
use hytlb_types::{PageSize, PhysFrameNum, VirtPageNum, GIANT_PAGE_PAGES, HUGE_PAGE_PAGES};

/// The separate 1 GB-page L2 TLB (16 entries, 4-way, Skylake-class),
/// probed after the shared L2, over a table with 1 GB leaves.
#[derive(Debug)]
pub struct GiantTlb {
    giant: SetAssocTlb<u64>,
    table: PageTable,
}

impl GiantTlb {
    fn giant_set(&self, head: VirtPageNum) -> usize {
        head.index_bits(18, (self.giant.sets() as u64) - 1)
    }
}

impl Mmu<GiantTlb> {
    /// THP extended with 1 GB pages and their separate small L2 TLB:
    /// giant-page-shaped 1 GB regions become 1 GB leaves, remaining
    /// huge-page-shaped regions become 2 MB leaves, the rest 4 KB.
    #[must_use]
    pub fn thp_1g(map: &AddressSpaceMap) -> Self {
        let mut table = PageTable::new();
        for chunk in map.chunks() {
            let mut vpn = chunk.vpn;
            let end = chunk.end_vpn();
            while vpn < end {
                // Giant/huge candidacy is decided chunk-locally: `vpn` is
                // aligned and inside this chunk with `end - vpn` pages to
                // spare, which leaves only the PFN alignment to check, with
                // no `BTreeMap` probe per region.
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
        Mmu {
            cascade: Cascade::new("THP-1G", SharedL2::paper_default()),
            level: GiantTlb { giant: SetAssocTlb::new(4, 4), table },
        }
    }
}

impl CoalescedLevel for GiantTlb {
    type Miss = ();

    /// The separate 1 GB TLB is probed in parallel with the shared L2; a
    /// hit costs the same 7 cycles as a regular L2 hit.
    #[inline]
    fn probe(&mut self, _: &mut SharedL2, vpn: VirtPageNum) -> Probe<()> {
        let head = vpn.align_down(GIANT_PAGE_PAGES);
        let set = self.giant_set(head);
        match self.giant.lookup(set, head.as_u64()) {
            Some(&pfn) => Probe::Hit {
                pfn: PhysFrameNum::new(pfn) + (vpn - head),
                size: PageSize::Giant1G,
                path: TranslationPath::L2RegularHit,
            },
            None => Probe::Miss(()),
        }
    }

    fn table(&self) -> &PageTable {
        &self.table
    }

    #[inline]
    fn fill(
        &mut self,
        l2: &mut SharedL2,
        vpn: VirtPageNum,
        leaf: LeafEntry,
        _: Option<PteBlock>,
        (): (),
    ) {
        match leaf.size {
            PageSize::Base4K | PageSize::Huge2M => fill_paged(l2, vpn, leaf),
            PageSize::Giant1G => {
                let set = self.giant_set(leaf.head_vpn);
                self.giant.insert(set, leaf.head_vpn.as_u64(), leaf.head_pfn.as_u64());
            }
        }
    }

    fn flush(&mut self) {
        self.giant.flush();
    }

    fn geometries(&self) -> Vec<TlbGeometry> {
        vec![self.giant.geometry("L2 1GB")]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_types::{Permissions, VirtAddr};

    fn va(vpn: VirtPageNum) -> VirtAddr {
        vpn.base_addr()
    }

    fn giant_map(giants: u64) -> AddressSpaceMap {
        let mut m = AddressSpaceMap::new();
        // 1 GB-aligned VA and PA.
        m.map_range(
            VirtPageNum::new(GIANT_PAGE_PAGES * 4),
            PhysFrameNum::new(GIANT_PAGE_PAGES * 8),
            GIANT_PAGE_PAGES * giants,
            Permissions::READ_WRITE,
        );
        m
    }

    #[test]
    fn giant_shaped_mapping_installs_giant_leaves() {
        let map = giant_map(2);
        let s = Mmu::thp_1g(&map);
        let head = map.chunks().next().unwrap().vpn;
        for vpn in [head, head + GIANT_PAGE_PAGES] {
            assert_eq!(s.level.table.lookup(vpn).unwrap().size, PageSize::Giant1G, "{vpn}");
        }
    }

    #[test]
    fn one_walk_serves_a_whole_gigabyte() {
        let map = giant_map(1);
        let mut s = Mmu::thp_1g(&map);
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
        let s = Mmu::thp_1g(&m);
        let head = m.chunks().next().unwrap().vpn;
        for i in 0..GIANT_PAGE_PAGES / HUGE_PAGE_PAGES {
            let vpn = head + i * HUGE_PAGE_PAGES;
            assert_eq!(s.level.table.lookup(vpn).unwrap().size, PageSize::Huge2M, "{vpn}");
        }
    }

    #[test]
    fn translations_match_map() {
        let map = giant_map(1);
        let mut s = Mmu::thp_1g(&map);
        for (vpn, pfn) in map.iter_pages().step_by(40_961) {
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn), "at {vpn}");
        }
    }

    #[test]
    fn giant_tlb_capacity_is_sixteen() {
        let s = Mmu::thp_1g(&giant_map(1));
        assert_eq!(s.level.giant.capacity(), 16);
    }

    #[test]
    fn flush_clears_giant_tlb() {
        let map = giant_map(1);
        let mut s = Mmu::thp_1g(&map);
        let head = map.chunks().next().unwrap().vpn;
        s.access(va(head));
        s.flush();
        assert_eq!(s.access(va(head + 7)).path, TranslationPath::Walk);
    }
}
