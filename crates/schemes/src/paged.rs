//! Paged-only translation: the baseline (4 KB pages) and THP (4 KB + 2 MB
//! entries sharing the L2 array).

use crate::mmu::{Cascade, CoalescedLevel, Mmu, Probe, PteBlock};
use crate::scheme::LatencyModel;
use crate::shared_l2::SharedL2;
use hytlb_mem::AddressSpaceMap;
use hytlb_pagetable::{LeafEntry, PageTable};
use hytlb_types::{PageSize, VirtPageNum};

/// The level of the designs without a coalesced structure: every walk
/// fills the shared L2 with the leaf it found.
#[derive(Debug)]
pub struct PagedLevel {
    table: PageTable,
}

impl PagedLevel {
    /// Number of 2 MB leaves the OS installed for the mapping.
    #[must_use]
    pub fn huge_leaves(&self) -> u64 {
        self.table.mapped_huge_pages()
    }
}

impl Mmu<PagedLevel> {
    /// The paper's `Base` configuration: every mapping is translated
    /// through 4 KB PTEs; the shared 1024-entry 8-way L2 holds only 4 KB
    /// entries.
    ///
    /// # Examples
    ///
    /// ```
    /// use hytlb_mem::Scenario;
    /// use hytlb_schemes::{LatencyModel, Mmu, TranslationScheme};
    ///
    /// let map = Scenario::LowContiguity.generate(256, 1);
    /// let mut base = Mmu::baseline(&map, LatencyModel::default());
    /// let va = map.chunks().next().unwrap().vpn.base_addr();
    /// let first = base.access(va);
    /// let second = base.access(va);
    /// assert!(second.cycles < first.cycles); // second access hits
    /// ```
    #[must_use]
    pub fn baseline(map: &AddressSpaceMap, latency: LatencyModel) -> Self {
        Self::paged("Base", map, false, latency)
    }

    /// The paper's `THP` configuration: the OS maps 2 MB-shaped regions
    /// with huge PTEs (Linux transparent huge pages), and both page sizes
    /// share the 1024-entry 8-way L2 (Table 3, "Baseline/THP").
    #[must_use]
    pub fn thp(map: &AddressSpaceMap, latency: LatencyModel) -> Self {
        Self::paged("THP", map, true, latency)
    }

    fn paged(name: &str, map: &AddressSpaceMap, thp: bool, latency: LatencyModel) -> Self {
        Mmu {
            cascade: Cascade::new(name, SharedL2::paper_default(), latency),
            level: PagedLevel { table: PageTable::from_map(map, thp) },
        }
    }
}

impl CoalescedLevel for PagedLevel {
    type Miss = ();

    #[inline]
    fn probe(&mut self, _: &mut SharedL2, _: VirtPageNum) -> Probe<()> {
        Probe::Miss(())
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
    }
}

/// Fills the shared L2 with the 4 KB or 2 MB leaf a walk found — the
/// regular fill every level without its own entry for the leaf uses.
#[inline]
pub(crate) fn fill_paged(l2: &mut SharedL2, vpn: VirtPageNum, leaf: LeafEntry) {
    match leaf.size {
        PageSize::Base4K => l2.insert_4k(vpn, leaf.pfn_for(vpn)),
        PageSize::Huge2M => l2.insert_2m(leaf.head_vpn, leaf.head_pfn),
        // audit:allow(panic): invariant — only `Mmu::thp_1g` builds 1 GB
        // leaves, and its level fills them into its own TLB.
        PageSize::Giant1G => unreachable!("no 1GB leaves here"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TranslationPath, TranslationScheme};
    use hytlb_mem::Scenario;
    use hytlb_types::{Cycles, VirtAddr};

    fn va(vpn: VirtPageNum) -> VirtAddr {
        vpn.base_addr()
    }

    fn baseline(footprint: u64, seed: u64) -> (Mmu<PagedLevel>, AddressSpaceMap) {
        let map = Scenario::MediumContiguity.generate(footprint, seed);
        (Mmu::baseline(&map, LatencyModel::default()), map)
    }

    #[test]
    fn first_access_walks_then_hits() {
        let (mut s, map) = baseline(64, 1);
        let vpn = map.chunks().next().unwrap().vpn;
        let r1 = s.access(va(vpn));
        assert_eq!(r1.path, TranslationPath::Walk);
        assert_eq!(r1.cycles, Cycles::new(50));
        // Second access: L1 hit, free.
        let r2 = s.access(va(vpn));
        assert_eq!(r2.path, TranslationPath::L1Hit);
        assert_eq!(r2.cycles, Cycles::ZERO);
        assert_eq!(r1.pfn, r2.pfn);
    }

    #[test]
    fn translations_match_the_map() {
        let (mut s, map) = baseline(512, 2);
        for (vpn, pfn) in map.iter_pages() {
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn), "at {vpn}");
        }
        // And again, through TLB hits.
        for (vpn, pfn) in map.iter_pages().take(32) {
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn));
        }
    }

    #[test]
    fn unmapped_access_faults() {
        let (mut s, _) = baseline(64, 3);
        let r = s.access(VirtAddr::new(0x10));
        assert_eq!(r.path, TranslationPath::Fault);
        assert_eq!(r.pfn, None);
        assert_eq!(s.stats().faults, 1);
    }

    #[test]
    fn working_set_larger_than_l2_thrashes() {
        // 4096 pages > 1024 L2 entries: cycling through them twice must
        // keep missing.
        let (mut s, map) = baseline(4096, 4);
        let pages: Vec<_> = map.iter_pages().map(|(v, _)| v).collect();
        for _ in 0..2 {
            for &v in &pages {
                s.access(va(v));
            }
        }
        let st = s.stats();
        assert!(st.walks as f64 > 0.9 * st.accesses as f64, "{st:?}");
    }

    #[test]
    fn flush_forgets_everything() {
        let (mut s, map) = baseline(64, 5);
        let vpn = map.chunks().next().unwrap().vpn;
        s.access(va(vpn));
        s.flush();
        let r = s.access(va(vpn));
        assert_eq!(r.path, TranslationPath::Walk);
    }

    #[test]
    fn baseline_ignores_huge_contiguity() {
        // Even a fully contiguous mapping gives baseline no benefit: one
        // walk per distinct page.
        let map = Scenario::MaxContiguity.generate(2048, 6);
        let mut s = Mmu::baseline(&map, LatencyModel::default());
        for (vpn, _) in map.iter_pages() {
            s.access(va(vpn));
        }
        assert_eq!(s.stats().walks, 2048);
    }

    #[test]
    fn huge_shaped_mapping_needs_one_walk_per_2mb() {
        // A max-contiguity mapping is fully huge-page-shaped (modulo edge
        // remainders), so touching all 2048 pages costs ~4 walks.
        let map = Scenario::MaxContiguity.generate(2048, 1);
        let mut s = Mmu::thp(&map, LatencyModel::default());
        assert!(s.level.huge_leaves() >= 2);
        for (vpn, pfn) in map.iter_pages() {
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn));
        }
        let walks = s.stats().walks;
        assert!(walks <= 32, "walks = {walks}");
    }

    #[test]
    fn thp_beats_baseline_on_demand_mapping() {
        let map = Scenario::DemandPaging.generate(8192, 2);
        let mut thp = Mmu::thp(&map, LatencyModel::default());
        let mut base = Mmu::baseline(&map, LatencyModel::default());
        for (vpn, _) in map.iter_pages() {
            thp.access(va(vpn));
            base.access(va(vpn));
        }
        assert!(thp.stats().walks < base.stats().walks);
    }

    #[test]
    fn thp_useless_on_low_contiguity() {
        let map = Scenario::LowContiguity.generate(4096, 3);
        let s = Mmu::thp(&map, LatencyModel::default());
        assert_eq!(s.level.huge_leaves(), 0);
    }

    #[test]
    fn thp_translations_match_the_map() {
        let map = Scenario::DemandPaging.generate(2048, 4);
        let mut s = Mmu::thp(&map, LatencyModel::default());
        for (vpn, pfn) in map.iter_pages() {
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn), "at {vpn}");
        }
    }

    #[test]
    fn l1_caches_huge_translations() {
        let map = Scenario::MaxContiguity.generate(4096, 5);
        let mut s = Mmu::thp(&map, LatencyModel::default());
        let head = map.chunks().next().unwrap().vpn;
        s.access(va(head));
        // A different page of the same huge page: L1 hit.
        let r = s.access(va(head + 17));
        assert_eq!(r.path, TranslationPath::L1Hit);
    }
}
