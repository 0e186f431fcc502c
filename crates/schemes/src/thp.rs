//! Transparent huge pages: 4 KB + 2 MB entries in the shared L2.

use crate::scheme::{AccessResult, LatencyModel, SchemeStats, TranslationPath, TranslationScheme};
use crate::shared_l2::SharedL2;
use hytlb_mem::AddressSpaceMap;
use hytlb_pagetable::{PageTable, PageWalker};
use hytlb_tlb::L1Tlb;
use hytlb_types::{Cycles, PageSize, VirtAddr};
use std::sync::Arc;

/// The paper's `THP` configuration: the OS maps 2 MB-shaped regions with
/// huge PTEs (Linux transparent huge pages), and both page sizes share the
/// 1024-entry 8-way L2 (Table 3, "Baseline/THP").
#[derive(Debug)]
pub struct ThpScheme {
    l1: L1Tlb,
    l2: SharedL2,
    table: PageTable,
    walker: PageWalker,
    latency: LatencyModel,
    stats: SchemeStats,
    _map: Arc<AddressSpaceMap>,
}

impl ThpScheme {
    /// Builds the THP MMU over a mapping: every huge-page-shaped 2 MB
    /// region becomes a 2 MB leaf.
    #[must_use]
    pub fn new(map: Arc<AddressSpaceMap>, latency: LatencyModel) -> Self {
        ThpScheme {
            l1: L1Tlb::paper_default(),
            l2: SharedL2::paper_default(),
            table: PageTable::from_map(&map, true),
            walker: PageWalker::default(),
            latency,
            stats: SchemeStats::default(),
            _map: map,
        }
    }

    /// Number of 2 MB leaves the OS installed for this mapping.
    #[must_use]
    pub fn huge_leaves(&self) -> u64 {
        self.table.mapped_huge_pages()
    }
}

impl TranslationScheme for ThpScheme {
    fn name(&self) -> &str {
        "THP"
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
    }

    fn geometries(&self) -> Vec<hytlb_tlb::TlbGeometry> {
        let mut g = self.l1.geometries();
        g.push(self.l2.geometry());
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BaselineScheme;
    use hytlb_mem::Scenario;
    use hytlb_types::VirtPageNum;

    fn va(vpn: VirtPageNum) -> VirtAddr {
        vpn.base_addr()
    }

    #[test]
    fn huge_shaped_mapping_needs_one_walk_per_2mb() {
        // A max-contiguity mapping is fully huge-page-shaped (modulo edge
        // remainders), so touching all 2048 pages costs ~4 walks.
        let map = Arc::new(Scenario::MaxContiguity.generate(2048, 1));
        let mut s = ThpScheme::new(Arc::clone(&map), LatencyModel::default());
        assert!(s.huge_leaves() >= 2);
        for (vpn, pfn) in map.iter_pages() {
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn));
        }
        let walks = s.stats().walks;
        assert!(walks <= 32, "walks = {walks}");
    }

    #[test]
    fn thp_beats_baseline_on_demand_mapping() {
        let map = Arc::new(Scenario::DemandPaging.generate(8192, 2));
        let mut thp = ThpScheme::new(Arc::clone(&map), LatencyModel::default());
        let mut base = BaselineScheme::new(Arc::clone(&map), LatencyModel::default());
        for (vpn, _) in map.iter_pages() {
            thp.access(va(vpn));
            base.access(va(vpn));
        }
        assert!(thp.stats().walks < base.stats().walks);
    }

    #[test]
    fn thp_useless_on_low_contiguity() {
        let map = Arc::new(Scenario::LowContiguity.generate(4096, 3));
        let s = ThpScheme::new(Arc::clone(&map), LatencyModel::default());
        assert_eq!(s.huge_leaves(), 0);
    }

    #[test]
    fn translations_match_the_map() {
        let map = Arc::new(Scenario::DemandPaging.generate(2048, 4));
        let mut s = ThpScheme::new(Arc::clone(&map), LatencyModel::default());
        for (vpn, pfn) in map.iter_pages() {
            assert_eq!(s.access(va(vpn)).pfn, Some(pfn), "at {vpn}");
        }
    }

    #[test]
    fn l1_caches_huge_translations() {
        let map = Arc::new(Scenario::MaxContiguity.generate(4096, 5));
        let mut s = ThpScheme::new(Arc::clone(&map), LatencyModel::default());
        let head = map.chunks().next().unwrap().vpn;
        s.access(va(head));
        // A different page of the same huge page: L1 hit.
        let r = s.access(va(head + 17));
        assert_eq!(r.path, TranslationPath::L1Hit);
    }
}
