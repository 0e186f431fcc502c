//! Cluster TLB (Pham et al., HPCA 2014) — pure-hardware coalescing.
//!
//! The L2 is statically partitioned (paper Table 3): a 768-entry 6-way
//! *regular* array and a 320-entry 5-way *cluster* array whose entries each
//! cover an aligned group of 8 virtual pages mapping into one aligned group
//! of 8 physical frames. After a page walk the hardware inspects the PTE
//! cache block that just arrived (8 PTEs — exactly the virtual cluster) and
//! coalesces every page whose frame falls in the same physical cluster,
//! recording a valid bit and a 3-bit frame offset per page.
//!
//! The static partition is itself a behaviour the paper measures: for
//! `cactusADM` the cluster entries are underutilised while the regular
//! array thrashes, and misses *increase* versus baseline (Figure 8).

use crate::scheme::{AccessResult, LatencyModel, SchemeStats, TranslationPath, TranslationScheme};
use crate::shared_l2::SharedL2;
use hytlb_mem::AddressSpaceMap;
use hytlb_pagetable::{PageTable, PageTableEntry, PageWalker};
use hytlb_tlb::{L1Tlb, SetAssocTlb};
use hytlb_types::{Cycles, PageSize, PhysFrameNum, VirtAddr, VirtPageNum};
use std::sync::Arc;

/// Pages per cluster entry (the paper's cluster-8 configuration).
pub const CLUSTER_SPAN: u64 = 8;

/// One cluster entry: an aligned 8-page virtual group whose valid pages all
/// map into one aligned 8-frame physical group.
#[derive(Debug, Clone, Copy)]
struct ClusterEntry {
    /// Physical cluster number (frame number >> 3).
    pcn: u64,
    /// Valid bit per page of the virtual cluster.
    valid: u8,
    /// 3-bit frame offset within the physical cluster, per page.
    offsets: [u8; CLUSTER_SPAN as usize],
}

impl ClusterEntry {
    fn pfn_for(&self, sub: usize) -> Option<PhysFrameNum> {
        (self.valid & (1 << sub) != 0)
            .then(|| PhysFrameNum::new((self.pcn << 3) + u64::from(self.offsets[sub])))
    }

    fn coverage(&self) -> u32 {
        self.valid.count_ones()
    }
}

/// The cluster-TLB scheme; `use_2mb` selects the paper's `Cluster-2MB`
/// variant, which additionally holds 2 MB entries in the regular partition.
#[derive(Debug)]
pub struct ClusterScheme {
    l1: L1Tlb,
    regular: SharedL2,
    cluster: SetAssocTlb<ClusterEntry>,
    table: PageTable,
    walker: PageWalker,
    latency: LatencyModel,
    stats: SchemeStats,
    use_2mb: bool,
    cluster_fills: u64,
    _map: Arc<AddressSpaceMap>,
}

impl ClusterScheme {
    /// Builds the cluster MMU. With `use_2mb`, THP-shaped regions get 2 MB
    /// leaves (and 2 MB regular entries); without, everything is 4 KB PTEs
    /// as in the original cluster TLB paper.
    #[must_use]
    pub fn new(map: Arc<AddressSpaceMap>, latency: LatencyModel, use_2mb: bool) -> Self {
        ClusterScheme {
            l1: L1Tlb::paper_default(),
            // 768 entries, 6-way = 128 sets.
            regular: SharedL2::new(128, 6),
            // 320 entries, 5-way = 64 sets.
            cluster: SetAssocTlb::new(64, 5),
            table: PageTable::from_map(&map, use_2mb),
            walker: PageWalker::default(),
            latency,
            stats: SchemeStats::default(),
            use_2mb,
            cluster_fills: 0,
            _map: map,
        }
    }

    /// Number of cluster entries inserted so far (≥ 2 pages coalesced).
    #[must_use]
    pub fn cluster_fills(&self) -> u64 {
        self.cluster_fills
    }

    fn cluster_set(&self, vcn: u64) -> usize {
        hytlb_types::usize_from(vcn & (self.cluster.sets() as u64 - 1))
    }

    fn lookup_cluster(&mut self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        let vcn = vpn.as_u64() / CLUSTER_SPAN;
        let sub = hytlb_types::usize_from(vpn.offset_within(CLUSTER_SPAN));
        let set = self.cluster_set(vcn);
        self.cluster.lookup(set, vcn).and_then(|e| e.pfn_for(sub))
    }

    /// Builds a cluster entry from the PTE cache block the walk fetched,
    /// anchored on the walked page's own frame. Returns the entry if at
    /// least two pages coalesce.
    fn coalesce_block(block: &[PageTableEntry], pfn: PhysFrameNum) -> Option<ClusterEntry> {
        let pcn = pfn.as_u64() / CLUSTER_SPAN;
        let mut entry = ClusterEntry { pcn, valid: 0, offsets: [0; CLUSTER_SPAN as usize] };
        for (i, pte) in block.iter().enumerate() {
            if pte.is_present() && pte.pfn().as_u64() / CLUSTER_SPAN == pcn {
                entry.valid |= 1 << i;
                entry.offsets[i] = hytlb_types::u8_from(pte.pfn().offset_within(CLUSTER_SPAN));
            }
        }
        (entry.coverage() >= 2).then_some(entry)
    }
}

impl TranslationScheme for ClusterScheme {
    fn name(&self) -> &str {
        if self.use_2mb {
            "Cluster-2MB"
        } else {
            "Cluster"
        }
    }

    #[inline]
    fn access(&mut self, vaddr: VirtAddr) -> AccessResult {
        let vpn = vaddr.page_number();
        let result = if let Some(pfn) = self.l1.lookup(vpn) {
            AccessResult { path: TranslationPath::L1Hit, cycles: Cycles::ZERO, pfn: Some(pfn) }
        } else if let Some(pfn) = self.regular.lookup_4k(vpn) {
            self.l1.insert(vpn, pfn, PageSize::Base4K);
            AccessResult {
                path: TranslationPath::L2RegularHit,
                cycles: self.latency.l2_hit,
                pfn: Some(pfn),
            }
        } else if let Some(pfn) = self.use_2mb.then(|| self.regular.lookup_2m(vpn)).flatten() {
            self.l1.insert(vpn, pfn, PageSize::Huge2M);
            AccessResult {
                path: TranslationPath::L2RegularHit,
                cycles: self.latency.l2_hit,
                pfn: Some(pfn),
            }
        } else if let Some(pfn) = self.lookup_cluster(vpn) {
            self.l1.insert(vpn, pfn, PageSize::Base4K);
            AccessResult {
                path: TranslationPath::CoalescedHit,
                cycles: self.latency.coalesced_hit,
                pfn: Some(pfn),
            }
        } else {
            let (walk, block) = self.walker.walk_with_block(&self.table, vpn);
            match walk.leaf {
                Some(leaf) => {
                    let pfn = leaf.pfn_for(vpn);
                    match leaf.size {
                        PageSize::Huge2M => {
                            debug_assert!(self.use_2mb);
                            self.regular.insert_2m(leaf.head_vpn, leaf.head_pfn);
                        }
                        // audit:allow(panic): invariant — from_map never
                        // builds 1 GB leaves here.
                        PageSize::Giant1G => unreachable!("no 1GB leaves here"),
                        PageSize::Base4K => {
                            let vcn = vpn.as_u64() / CLUSTER_SPAN;
                            let set = self.cluster_set(vcn);
                            // A VA group can straddle two physical
                            // clusters, but only one cluster entry per
                            // virtual group can live in the array (one
                            // tag). Keep whichever entry covers more
                            // pages; the unclusterable side is stored as
                            // regular 4 KB entries instead of thrashing
                            // the group's entry back and forth.
                            let candidate =
                                block.and_then(|block| Self::coalesce_block(block, pfn));
                            let existing_cov =
                                self.cluster.peek(set, vcn).map_or(0, ClusterEntry::coverage);
                            match candidate {
                                Some(entry) if entry.coverage() > existing_cov => {
                                    self.cluster.insert(set, vcn, entry);
                                    self.cluster_fills += 1;
                                }
                                Some(_) | None => self.regular.insert_4k(vpn, pfn),
                            }
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
        self.regular.flush();
        self.cluster.flush();
    }

    fn geometries(&self) -> Vec<hytlb_tlb::TlbGeometry> {
        let mut g = self.l1.geometries();
        g.push(self.regular.geometry());
        g.push(self.cluster.geometry("L2 cluster"));
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BaselineScheme;
    use hytlb_mem::Scenario;

    fn va(vpn: VirtPageNum) -> VirtAddr {
        vpn.base_addr()
    }

    fn touch_all(s: &mut dyn TranslationScheme, map: &AddressSpaceMap, rounds: usize) {
        for _ in 0..rounds {
            for (vpn, pfn) in map.iter_pages() {
                let r = s.access(va(vpn));
                assert_eq!(r.pfn, Some(pfn), "wrong translation at {vpn}");
            }
        }
    }

    #[test]
    fn cluster_coalesces_contiguous_groups() {
        // Medium contiguity has many multi-page chunks: cluster entries
        // must form and serve hits.
        let map = Arc::new(Scenario::MediumContiguity.generate(2048, 1));
        let mut s = ClusterScheme::new(Arc::clone(&map), LatencyModel::default(), false);
        touch_all(&mut s, &map, 2);
        assert!(s.cluster_fills() > 0);
        assert!(s.stats().coalesced_hits > 0);
    }

    #[test]
    fn cluster_beats_baseline_on_low_contiguity() {
        let map = Arc::new(Scenario::LowContiguity.generate(4096, 2));
        let mut cl = ClusterScheme::new(Arc::clone(&map), LatencyModel::default(), false);
        let mut base = BaselineScheme::new(Arc::clone(&map), LatencyModel::default());
        touch_all(&mut cl, &map, 2);
        touch_all(&mut base, &map, 2);
        assert!(
            cl.stats().walks < base.stats().walks,
            "cluster {} vs base {}",
            cl.stats().walks,
            base.stats().walks
        );
    }

    #[test]
    fn cluster_2mb_uses_huge_entries_on_demand_mapping() {
        let map = Arc::new(Scenario::DemandPaging.generate(4096, 3));
        let mut s = ClusterScheme::new(Arc::clone(&map), LatencyModel::default(), true);
        touch_all(&mut s, &map, 1);
        assert!(s.stats().l2_regular_hits + s.stats().walks > 0);
        // Far fewer walks than there are pages: 2 MB entries cover regions.
        assert!(s.stats().walks < map.mapped_pages() / 4);
    }

    #[test]
    fn singleton_pages_fall_back_to_regular_entries() {
        // A mapping of isolated single pages can never coalesce.
        let mut m = AddressSpaceMap::new();
        for i in 0..64u64 {
            m.map_range(
                VirtPageNum::new(i * CLUSTER_SPAN),
                PhysFrameNum::new(1000 + i * 100),
                1,
                hytlb_types::Permissions::READ_WRITE,
            );
        }
        let map = Arc::new(m);
        let mut s = ClusterScheme::new(Arc::clone(&map), LatencyModel::default(), false);
        touch_all(&mut s, &map, 2);
        assert_eq!(s.cluster_fills(), 0);
        assert_eq!(s.stats().coalesced_hits, 0);
        assert!(s.stats().l2_regular_hits > 0);
    }

    #[test]
    fn coalescing_respects_physical_cluster_boundaries() {
        // 8 virtually-contiguous pages split across two physical clusters:
        // the entry anchored at the first page covers only its own cluster.
        let mut m = AddressSpaceMap::new();
        // VPNs 0..8 -> PFNs 4..12: PFNs 4..8 are cluster 0, 8..12 cluster 1.
        m.map_range(
            VirtPageNum::new(0),
            PhysFrameNum::new(4),
            8,
            hytlb_types::Permissions::READ_WRITE,
        );
        let map = Arc::new(m);
        let mut s = ClusterScheme::new(Arc::clone(&map), LatencyModel::default(), false);
        let r = s.access(va(VirtPageNum::new(0)));
        assert_eq!(r.path, TranslationPath::Walk);
        // Pages 0..4 share the entry; page 4 (PFN 8, other cluster) misses.
        assert_eq!(s.access(va(VirtPageNum::new(1))).path, TranslationPath::CoalescedHit);
        assert_eq!(s.access(va(VirtPageNum::new(4))).path, TranslationPath::Walk);
        // The group's entry (coverage 4) is kept; page 4 became a regular
        // 4 KB entry, observable once the L1 is bypassed.
        assert_eq!(s.access(va(VirtPageNum::new(2))).path, TranslationPath::CoalescedHit);
        s.l1.flush();
        assert_eq!(s.access(va(VirtPageNum::new(4))).path, TranslationPath::L2RegularHit);
    }

    #[test]
    fn translations_always_match_map() {
        let map = Arc::new(Scenario::DemandPaging.generate(2048, 5));
        let mut s = ClusterScheme::new(Arc::clone(&map), LatencyModel::default(), true);
        touch_all(&mut s, &map, 2);
    }
}
