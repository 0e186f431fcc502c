//! Redundant Memory Mapping (Karakostas et al., ISCA 2015).
//!
//! RMM keeps the baseline paged translation (4 KB + 2 MB in the shared L2)
//! and *redundantly* maps large allocations as variable-length ranges held
//! in a small fully-associative range TLB (32 entries, Table 3). A range
//! hit costs 8 cycles; a miss falls back to the page walk, which also
//! refills the range TLB from the range table (modelled here from the OS's
//! chunk list).
//!
//! The scheme's character in the paper: near-perfect when a few huge
//! ranges cover the footprint (max contiguity), nearly useless when the
//! mapping is shattered into more small chunks than 32 entries can span
//! (low/medium contiguity).

use crate::mmu::{Cascade, CoalescedLevel, Mmu, Probe, PteBlock};
use crate::paged::fill_paged;
use crate::scheme::TranslationPath;
use crate::shared_l2::SharedL2;
use hytlb_mem::{AddressSpaceMap, ChunkTable};
use hytlb_pagetable::{LeafEntry, PageTable};
use hytlb_tlb::{RangeEntry, RangeTlb, TlbGeometry};
use hytlb_types::{PageSize, VirtPageNum};

/// Entries of the fully-associative range TLB (Table 3).
const RANGE_ENTRIES: usize = 32;

/// Minimum chunk length (pages) the OS promotes to a range: only regions
/// *beyond huge-page reach* (> 2 MB) become ranges — smaller contiguity is
/// already served as well by 2 MB/4 KB paged entries, and per-chunk ranges
/// for small chunks would only thrash the 32-entry range TLB. This matches
/// the paper's observed behaviour: at medium contiguity (chunks ≤ 512
/// pages) "RMM also shows similar results to THP, due to the lack of high
/// contiguity" (§5.2.1), while at high/max contiguity RMM nearly
/// eliminates misses.
const MIN_RANGE_PAGES: u64 = hytlb_types::HUGE_PAGE_PAGES + 1;

/// RMM's range TLB, probed after the shared 4 KB/2 MB L2, and the range
/// table it refills from.
#[derive(Debug)]
pub struct RangeLevel {
    ranges: RangeTlb,
    table: PageTable,
    /// The range table: the mapping's chunks long enough to become ranges.
    range_table: ChunkTable,
}

impl Mmu<RangeLevel> {
    /// The paper's `RMM`: the THP page table and L2 plus a 32-entry range
    /// TLB.
    #[must_use]
    pub fn rmm(map: &AddressSpaceMap) -> Self {
        Mmu {
            cascade: Cascade::new("RMM", SharedL2::paper_default()),
            level: RangeLevel {
                ranges: RangeTlb::new(RANGE_ENTRIES),
                table: PageTable::from_map(map, true),
                range_table: ChunkTable::with_min_len(map, MIN_RANGE_PAGES),
            },
        }
    }
}

impl CoalescedLevel for RangeLevel {
    type Miss = ();

    #[inline]
    fn probe(&mut self, _: &mut SharedL2, vpn: VirtPageNum) -> Probe<()> {
        match self.ranges.lookup(vpn) {
            Some(pfn) => {
                Probe::Hit { pfn, size: PageSize::Base4K, path: TranslationPath::CoalescedHit }
            }
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
        fill_paged(l2, vpn, leaf);
        // Refill the range TLB from the range table: the chunk containing
        // this page, if large enough to be a range.
        if let Some(chunk) = self.range_table.chunk_containing(vpn) {
            self.ranges.insert(RangeEntry {
                start_vpn: chunk.vpn,
                start_pfn: chunk.pfn,
                len: chunk.len,
            });
        }
    }

    fn flush(&mut self) {
        self.ranges.flush();
    }

    fn geometries(&self) -> Vec<TlbGeometry> {
        vec![self.ranges.geometry("Range TLB")]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;
    use hytlb_types::VirtAddr;

    fn va(vpn: VirtPageNum) -> VirtAddr {
        vpn.base_addr()
    }

    fn touch_all(s: &mut Mmu<RangeLevel>, map: &AddressSpaceMap, rounds: usize) {
        for _ in 0..rounds {
            for (vpn, pfn) in map.iter_pages() {
                assert_eq!(s.access(va(vpn)).pfn, Some(pfn), "at {vpn}");
            }
        }
    }

    #[test]
    fn max_contiguity_nearly_eliminates_misses() {
        let map = Scenario::MaxContiguity.generate(8192, 1);
        let mut s = Mmu::rmm(&map);
        touch_all(&mut s, &map, 2);
        let st = s.stats();
        // After the handful of cold walks, everything hits.
        assert!(st.walks <= 64, "walks = {}", st.walks);
        assert!(s.level.ranges.len() <= 4);
    }

    #[test]
    fn low_contiguity_defeats_the_range_tlb() {
        let map = Scenario::LowContiguity.generate(8192, 2);
        let mut s = Mmu::rmm(&map);
        // Random access order (a golden-ratio stride walks all pages): with
        // ~1000 small chunks, 32 range entries cover almost nothing.
        let pages: Vec<_> = map.iter_pages().collect();
        let n = pages.len() as u64;
        for i in 0..2 * n {
            let idx = (i.wrapping_mul(11_400_714_819_323_198_485) % n) as usize;
            let (vpn, pfn) = pages[idx];
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn));
        }
        let st = s.stats();
        assert!(st.walks as f64 > 0.3 * st.accesses as f64, "unexpectedly effective: {st:?}");
    }

    #[test]
    fn range_hits_cost_eight_cycles() {
        // A large chunk deliberately misaligned for 2 MB pages, so the L2
        // can only cache 4 KB entries and the far page must hit the range.
        let mut map = AddressSpaceMap::new();
        map.map_range(
            VirtPageNum::new(3),
            PhysFrameNum::new(1001),
            600,
            hytlb_types::Permissions::READ_WRITE,
        );
        let mut s = Mmu::rmm(&map);
        let first = map.chunks().next().unwrap().vpn;
        s.access(va(first));
        // A far page of the same chunk: L1 and L2 miss, range hit.
        let r = s.access(va(first + 300));
        assert_eq!(r.path, TranslationPath::CoalescedHit);
        assert_eq!(r.pfn, Some(PhysFrameNum::new(1301)));
    }

    #[test]
    fn singleton_chunks_do_not_enter_range_tlb() {
        let mut map = AddressSpaceMap::new();
        map.map_range(
            VirtPageNum::new(0),
            PhysFrameNum::new(100),
            1,
            hytlb_types::Permissions::READ_WRITE,
        );
        let mut s = Mmu::rmm(&map);
        s.access(va(VirtPageNum::new(0)));
        assert!(s.level.ranges.is_empty());
    }

    use hytlb_types::PhysFrameNum;

    #[test]
    fn flush_clears_ranges_too() {
        // Footprint large enough that chunks exceed the >2MB range
        // threshold.
        let map = Scenario::MaxContiguity.generate(4096, 4);
        let mut s = Mmu::rmm(&map);
        touch_all(&mut s, &map, 1);
        assert!(!s.level.ranges.is_empty());
        s.flush();
        assert!(s.level.ranges.is_empty());
    }
}
