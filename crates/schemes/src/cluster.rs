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

use crate::mmu::{Cascade, CoalescedLevel, Mmu, Probe, PteBlock};
use crate::paged::fill_paged;
use crate::scheme::{LatencyModel, TranslationPath};
use crate::shared_l2::SharedL2;
use hytlb_mem::AddressSpaceMap;
use hytlb_pagetable::{LeafEntry, PageTable};
use hytlb_tlb::{SetAssocTlb, TlbGeometry};
use hytlb_types::{PageSize, PhysFrameNum, VirtPageNum};

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

/// The cluster TLB's 320-entry 5-way cluster array. The shared L2 of its
/// MMU is the 768-entry 6-way regular partition.
#[derive(Debug)]
pub struct ClusterTlb {
    cluster: SetAssocTlb<ClusterEntry>,
    table: PageTable,
    cluster_fills: u64,
}

impl ClusterTlb {
    /// Number of cluster entries inserted so far (≥ 2 pages coalesced).
    #[must_use]
    pub fn cluster_fills(&self) -> u64 {
        self.cluster_fills
    }

    fn cluster_set(&self, vcn: u64) -> usize {
        hytlb_types::usize_from(vcn & (self.cluster.sets() as u64 - 1))
    }

    /// Builds a cluster entry from the PTE cache block the walk fetched,
    /// anchored on the walked page's own frame. Returns the entry if at
    /// least two pages coalesce.
    fn coalesce_block(block: &PteBlock, pfn: PhysFrameNum) -> Option<ClusterEntry> {
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

impl Mmu<ClusterTlb> {
    /// The paper's `Cluster`: everything is 4 KB PTEs, as in the original
    /// cluster TLB paper.
    #[must_use]
    pub fn cluster(map: &AddressSpaceMap, latency: LatencyModel) -> Self {
        Self::clustered("Cluster", map, false, latency)
    }

    /// The paper's `Cluster-2MB`: THP-shaped regions get 2 MB leaves, held
    /// as 2 MB entries in the regular partition.
    #[must_use]
    pub fn cluster_2mb(map: &AddressSpaceMap, latency: LatencyModel) -> Self {
        Self::clustered("Cluster-2MB", map, true, latency)
    }

    fn clustered(name: &str, map: &AddressSpaceMap, thp: bool, latency: LatencyModel) -> Self {
        Mmu {
            // 768 entries, 6-way = 128 sets.
            cascade: Cascade::new(name, SharedL2::new(128, 6), latency),
            level: ClusterTlb {
                // 320 entries, 5-way = 64 sets.
                cluster: SetAssocTlb::new(64, 5),
                table: PageTable::from_map(map, thp),
                cluster_fills: 0,
            },
        }
    }
}

impl CoalescedLevel for ClusterTlb {
    type Miss = ();

    #[inline]
    fn probe(&mut self, _: &mut SharedL2, vpn: VirtPageNum) -> Probe<()> {
        let vcn = vpn.as_u64() / CLUSTER_SPAN;
        let sub = hytlb_types::usize_from(vpn.offset_within(CLUSTER_SPAN));
        let set = self.cluster_set(vcn);
        match self.cluster.lookup(set, vcn).and_then(|e| e.pfn_for(sub)) {
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
        regular: &mut SharedL2,
        vpn: VirtPageNum,
        leaf: LeafEntry,
        block: Option<PteBlock>,
        (): (),
    ) {
        match leaf.size {
            PageSize::Huge2M | PageSize::Giant1G => fill_paged(regular, vpn, leaf),
            PageSize::Base4K => {
                let pfn = leaf.pfn_for(vpn);
                let vcn = vpn.as_u64() / CLUSTER_SPAN;
                let set = self.cluster_set(vcn);
                // A VA group can straddle two physical clusters, but only
                // one cluster entry per virtual group can live in the
                // array (one tag). Keep whichever entry covers more pages;
                // the unclusterable side is stored as regular 4 KB entries
                // instead of thrashing the group's entry back and forth.
                let candidate = block.and_then(|block| Self::coalesce_block(&block, pfn));
                let existing_cov = self.cluster.peek(set, vcn).map_or(0, ClusterEntry::coverage);
                match candidate {
                    Some(entry) if entry.coverage() > existing_cov => {
                        self.cluster.insert(set, vcn, entry);
                        self.cluster_fills += 1;
                    }
                    Some(_) | None => regular.insert_4k(vpn, pfn),
                }
            }
        }
    }

    fn flush(&mut self) {
        self.cluster.flush();
    }

    fn geometries(&self) -> Vec<TlbGeometry> {
        vec![self.cluster.geometry("L2 cluster")]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TranslationScheme;
    use hytlb_mem::Scenario;
    use hytlb_types::VirtAddr;

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
        let map = Scenario::MediumContiguity.generate(2048, 1);
        let mut s = Mmu::cluster(&map, LatencyModel::default());
        touch_all(&mut s, &map, 2);
        assert!(s.level.cluster_fills() > 0);
        assert!(s.stats().coalesced_hits > 0);
    }

    #[test]
    fn cluster_beats_baseline_on_low_contiguity() {
        let map = Scenario::LowContiguity.generate(4096, 2);
        let mut cl = Mmu::cluster(&map, LatencyModel::default());
        let mut base = Mmu::baseline(&map, LatencyModel::default());
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
        let map = Scenario::DemandPaging.generate(4096, 3);
        let mut s = Mmu::cluster_2mb(&map, LatencyModel::default());
        touch_all(&mut s, &map, 1);
        assert!(s.stats().l2_regular_hits + s.stats().walks > 0);
        // Far fewer walks than there are pages: 2 MB entries cover regions.
        assert!(s.stats().walks < map.mapped_pages() / 4);
    }

    #[test]
    fn singleton_pages_fall_back_to_regular_entries() {
        // A mapping of isolated single pages can never coalesce.
        let mut map = AddressSpaceMap::new();
        for i in 0..64u64 {
            map.map_range(
                VirtPageNum::new(i * CLUSTER_SPAN),
                PhysFrameNum::new(1000 + i * 100),
                1,
                hytlb_types::Permissions::READ_WRITE,
            );
        }
        let mut s = Mmu::cluster(&map, LatencyModel::default());
        touch_all(&mut s, &map, 2);
        assert_eq!(s.level.cluster_fills(), 0);
        assert_eq!(s.stats().coalesced_hits, 0);
        assert!(s.stats().l2_regular_hits > 0);
    }

    #[test]
    fn coalescing_respects_physical_cluster_boundaries() {
        // 8 virtually-contiguous pages split across two physical clusters:
        // the entry anchored at the first page covers only its own cluster.
        let mut map = AddressSpaceMap::new();
        // VPNs 0..8 -> PFNs 4..12: PFNs 4..8 are cluster 0, 8..12 cluster 1.
        map.map_range(
            VirtPageNum::new(0),
            PhysFrameNum::new(4),
            8,
            hytlb_types::Permissions::READ_WRITE,
        );
        let mut s = Mmu::cluster(&map, LatencyModel::default());
        let r = s.access(va(VirtPageNum::new(0)));
        assert_eq!(r.path, TranslationPath::Walk);
        // Pages 0..4 share the entry; page 4 (PFN 8, other cluster) misses.
        assert_eq!(s.access(va(VirtPageNum::new(1))).path, TranslationPath::CoalescedHit);
        assert_eq!(s.access(va(VirtPageNum::new(4))).path, TranslationPath::Walk);
        // The group's entry (coverage 4) is kept; page 4 became a regular
        // 4 KB entry, observable once the L1 is bypassed.
        assert_eq!(s.access(va(VirtPageNum::new(2))).path, TranslationPath::CoalescedHit);
        s.cascade.l1_mut().flush();
        assert_eq!(s.access(va(VirtPageNum::new(4))).path, TranslationPath::L2RegularHit);
    }

    #[test]
    fn translations_always_match_map() {
        let map = Scenario::DemandPaging.generate(2048, 5);
        let mut s = Mmu::cluster_2mb(&map, LatencyModel::default());
        touch_all(&mut s, &map, 2);
    }
}
