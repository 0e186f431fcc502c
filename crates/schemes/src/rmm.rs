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

use crate::scheme::{AccessResult, LatencyModel, SchemeStats, TranslationPath, TranslationScheme};
use crate::shared_l2::SharedL2;
use hytlb_mem::{AddressSpaceMap, ChunkTable};
use hytlb_pagetable::{PageTable, PageWalker};
use hytlb_tlb::{L1Tlb, RangeEntry, RangeTlb};
use hytlb_types::{Cycles, PageSize, VirtAddr};
use std::sync::Arc;

/// Minimum chunk length (pages) the OS promotes to a range: only regions
/// *beyond huge-page reach* (> 2 MB) become ranges — smaller contiguity is
/// already served as well by 2 MB/4 KB paged entries, and per-chunk ranges
/// for small chunks would only thrash the 32-entry range TLB. This matches
/// the paper's observed behaviour: at medium contiguity (chunks ≤ 512
/// pages) "RMM also shows similar results to THP, due to the lack of high
/// contiguity" (§5.2.1), while at high/max contiguity RMM nearly
/// eliminates misses.
const MIN_RANGE_PAGES: u64 = hytlb_types::HUGE_PAGE_PAGES + 1;

/// The RMM scheme.
#[derive(Debug)]
pub struct RmmScheme {
    l1: L1Tlb,
    l2: SharedL2,
    ranges: RangeTlb,
    table: PageTable,
    walker: PageWalker,
    latency: LatencyModel,
    stats: SchemeStats,
    /// The range table: the mapping's chunks long enough to become ranges.
    range_table: ChunkTable,
}

impl RmmScheme {
    /// Builds the RMM MMU with the paper's 32-entry range TLB.
    #[must_use]
    pub fn new(map: Arc<AddressSpaceMap>, latency: LatencyModel) -> Self {
        Self::with_range_entries(map, latency, 32)
    }

    /// Builds RMM with an explicit range-TLB capacity (for sensitivity
    /// studies).
    ///
    /// # Panics
    ///
    /// Panics if `range_entries` is zero.
    #[must_use]
    pub fn with_range_entries(
        map: Arc<AddressSpaceMap>,
        latency: LatencyModel,
        range_entries: usize,
    ) -> Self {
        RmmScheme {
            l1: L1Tlb::paper_default(),
            l2: SharedL2::paper_default(),
            ranges: RangeTlb::new(range_entries),
            table: PageTable::from_map(&map, true),
            walker: PageWalker::default(),
            latency,
            stats: SchemeStats::default(),
            range_table: ChunkTable::with_min_len(&map, MIN_RANGE_PAGES),
        }
    }

    /// Live range-TLB entries.
    #[must_use]
    pub fn cached_ranges(&self) -> usize {
        self.ranges.len()
    }
}

impl TranslationScheme for RmmScheme {
    fn name(&self) -> &str {
        "RMM"
    }

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
        } else if let Some(pfn) = self.ranges.lookup(vpn) {
            self.l1.insert(vpn, pfn, PageSize::Base4K);
            AccessResult {
                path: TranslationPath::CoalescedHit,
                cycles: self.latency.coalesced_hit,
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
                        // audit:allow(panic): invariant — from_map never
                        // builds 1 GB leaves for this scheme.
                        PageSize::Giant1G => unreachable!("no 1GB leaves here"),
                    }
                    // Refill the range TLB from the range table: the chunk
                    // containing this page, if large enough to be a range.
                    if let Some(chunk) = self.range_table.chunk_containing(vpn) {
                        self.ranges.insert(RangeEntry {
                            start_vpn: chunk.vpn,
                            start_pfn: chunk.pfn,
                            len: chunk.len,
                        });
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

    fn access_batch(&mut self, vaddrs: &[VirtAddr]) -> Result<(), crate::scheme::BatchFault> {
        crate::scheme::run_batch(self, vaddrs)
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.ranges.flush();
    }

    fn geometries(&self) -> Vec<hytlb_tlb::TlbGeometry> {
        let mut g = self.l1.geometries();
        g.push(self.l2.geometry());
        g.push(self.ranges.geometry("Range TLB"));
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;
    use hytlb_types::VirtPageNum;

    fn va(vpn: VirtPageNum) -> VirtAddr {
        vpn.base_addr()
    }

    fn touch_all(s: &mut RmmScheme, map: &AddressSpaceMap, rounds: usize) {
        for _ in 0..rounds {
            for (vpn, pfn) in map.iter_pages() {
                assert_eq!(s.access(va(vpn)).pfn, Some(pfn), "at {vpn}");
            }
        }
    }

    #[test]
    fn max_contiguity_nearly_eliminates_misses() {
        let map = Arc::new(Scenario::MaxContiguity.generate(8192, 1));
        let mut s = RmmScheme::new(Arc::clone(&map), LatencyModel::default());
        touch_all(&mut s, &map, 2);
        let st = s.stats();
        // After the handful of cold walks, everything hits.
        assert!(st.walks <= 64, "walks = {}", st.walks);
        assert!(s.cached_ranges() <= 4);
    }

    #[test]
    fn low_contiguity_defeats_the_range_tlb() {
        let map = Arc::new(Scenario::LowContiguity.generate(8192, 2));
        let mut s = RmmScheme::new(Arc::clone(&map), LatencyModel::default());
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
        let mut m = AddressSpaceMap::new();
        m.map_range(
            VirtPageNum::new(3),
            PhysFrameNum::new(1001),
            600,
            hytlb_types::Permissions::READ_WRITE,
        );
        let map = Arc::new(m);
        let mut s = RmmScheme::new(Arc::clone(&map), LatencyModel::default());
        let first = map.chunks().next().unwrap().vpn;
        s.access(va(first));
        // A far page of the same chunk: L1 and L2 miss, range hit.
        let r = s.access(va(first + 300));
        assert_eq!(r.path, TranslationPath::CoalescedHit);
        assert_eq!(r.cycles, Cycles::new(8));
        assert_eq!(r.pfn, Some(PhysFrameNum::new(1301)));
    }

    #[test]
    fn singleton_chunks_do_not_enter_range_tlb() {
        let mut m = AddressSpaceMap::new();
        m.map_range(
            VirtPageNum::new(0),
            PhysFrameNum::new(100),
            1,
            hytlb_types::Permissions::READ_WRITE,
        );
        let map = Arc::new(m);
        let mut s = RmmScheme::new(Arc::clone(&map), LatencyModel::default());
        s.access(va(VirtPageNum::new(0)));
        assert_eq!(s.cached_ranges(), 0);
    }

    use hytlb_types::PhysFrameNum;

    #[test]
    fn flush_clears_ranges_too() {
        // Footprint large enough that chunks exceed the >2MB range
        // threshold.
        let map = Arc::new(Scenario::MaxContiguity.generate(4096, 4));
        let mut s = RmmScheme::new(Arc::clone(&map), LatencyModel::default());
        touch_all(&mut s, &map, 1);
        assert!(s.cached_ranges() > 0);
        s.flush();
        assert_eq!(s.cached_ranges(), 0);
    }
}
