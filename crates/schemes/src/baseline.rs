//! The baseline: 4 KB pages only.

use crate::scheme::{AccessResult, LatencyModel, SchemeStats, TranslationPath, TranslationScheme};
use crate::shared_l2::SharedL2;
use hytlb_mem::AddressSpaceMap;
use hytlb_pagetable::{PageTable, PageWalker};
use hytlb_tlb::L1Tlb;
use hytlb_types::{Cycles, PageSize, VirtAddr};
use std::sync::Arc;

/// The paper's `Base` configuration: every mapping is translated through
/// 4 KB PTEs; the shared 1024-entry 8-way L2 holds only 4 KB entries.
///
/// # Examples
///
/// ```
/// use hytlb_mem::Scenario;
/// use hytlb_schemes::{BaselineScheme, LatencyModel, TranslationScheme};
/// use hytlb_types::VirtAddr;
/// use std::sync::Arc;
///
/// let map = Arc::new(Scenario::LowContiguity.generate(256, 1));
/// let mut base = BaselineScheme::new(Arc::clone(&map), LatencyModel::default());
/// let va = map.chunks().next().unwrap().vpn.base_addr();
/// let first = base.access(va);
/// let second = base.access(va);
/// assert!(second.cycles < first.cycles); // second access hits
/// ```
#[derive(Debug)]
pub struct BaselineScheme {
    l1: L1Tlb,
    l2: SharedL2,
    table: PageTable,
    walker: PageWalker,
    latency: LatencyModel,
    stats: SchemeStats,
    _map: Arc<AddressSpaceMap>,
}

impl BaselineScheme {
    /// Builds the baseline MMU over a mapping.
    #[must_use]
    pub fn new(map: Arc<AddressSpaceMap>, latency: LatencyModel) -> Self {
        BaselineScheme {
            l1: L1Tlb::paper_default(),
            l2: SharedL2::paper_default(),
            table: PageTable::from_map(&map, false),
            walker: PageWalker::default(),
            latency,
            stats: SchemeStats::default(),
            _map: map,
        }
    }
}

impl TranslationScheme for BaselineScheme {
    fn name(&self) -> &str {
        "Base"
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
        } else {
            let walk = self.walker.walk(&self.table, vpn);
            match walk.leaf {
                Some(leaf) => {
                    let pfn = leaf.pfn_for(vpn);
                    self.l2.insert_4k(vpn, pfn);
                    self.l1.insert(vpn, pfn, PageSize::Base4K);
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
    use hytlb_mem::Scenario;
    use hytlb_types::VirtPageNum;

    fn scheme(footprint: u64, seed: u64) -> (BaselineScheme, Arc<AddressSpaceMap>) {
        let map = Arc::new(Scenario::MediumContiguity.generate(footprint, seed));
        (BaselineScheme::new(Arc::clone(&map), LatencyModel::default()), map)
    }

    fn va(vpn: VirtPageNum) -> VirtAddr {
        vpn.base_addr()
    }

    #[test]
    fn first_access_walks_then_hits() {
        let (mut s, map) = scheme(64, 1);
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
        let (mut s, map) = scheme(512, 2);
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
        let (mut s, _) = scheme(64, 3);
        let r = s.access(VirtAddr::new(0x10));
        assert_eq!(r.path, TranslationPath::Fault);
        assert_eq!(r.pfn, None);
        assert_eq!(s.stats().faults, 1);
    }

    #[test]
    fn working_set_larger_than_l2_thrashes() {
        // 4096 pages > 1024 L2 entries: cycling through them twice must
        // keep missing.
        let (mut s, map) = scheme(4096, 4);
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
        let (mut s, map) = scheme(64, 5);
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
        let map = Arc::new(Scenario::MaxContiguity.generate(2048, 6));
        let mut s = BaselineScheme::new(Arc::clone(&map), LatencyModel::default());
        for (vpn, _) in map.iter_pages() {
            s.access(va(vpn));
        }
        assert_eq!(s.stats().walks, 2048);
    }
}
