//! CoLT — Coalesced Large-Reach TLBs (Pham et al., MICRO 2012).
//!
//! The first HW-only coalescing proposal the paper builds on (§2.1). The
//! set-associative variant modelled here (CoLT-SA) coalesces *contiguous*
//! VPN→PFN runs inside an aligned 8-page coalescing window into one entry
//! holding `(window, first_offset, length, base_pfn)`. Unlike the cluster
//! TLB, the run's frames need not stay inside one aligned physical cluster
//! — only strict contiguity is required — but the run cannot cross the
//! window boundary, which is what bounds CoLT's reach to 4–8 pages.
//!
//! CoLT is not one of the paper's headline comparison points (the paper
//! evaluates the newer cluster TLB), but it is the natural ablation
//! partner for it: contiguity-based vs clustering-based HW coalescing.

use crate::mmu::{Cascade, CoalescedLevel, Mmu, Probe, PteBlock};
use crate::scheme::{LatencyModel, TranslationPath};
use crate::shared_l2::SharedL2;
use hytlb_mem::{AddressSpaceMap, ChunkTable};
use hytlb_pagetable::{LeafEntry, PageTable};
use hytlb_tlb::{RangeEntry, RangeTlb, SetAssocTlb, TlbGeometry};
use hytlb_types::{PageSize, PhysFrameNum, VirtPageNum};

/// Entries of the CoLT-FA side structure.
const COLT_FA_ENTRIES: usize = 32;

/// Pages per coalescing window.
const WINDOW: u64 = 8;

/// One CoLT entry: a contiguous run inside an aligned window.
#[derive(Debug, Clone, Copy)]
struct ColtEntry {
    /// Offset of the run's first page within the window.
    first: u8,
    /// Run length in pages (1..=8).
    len: u8,
    /// Frame backing the run's first page.
    base_pfn: u64,
}

impl ColtEntry {
    fn pfn_for(&self, off: u64) -> Option<PhysFrameNum> {
        let first = u64::from(self.first);
        (off >= first && off < first + u64::from(self.len))
            .then(|| PhysFrameNum::new(self.base_pfn + (off - first)))
    }
}

/// CoLT-SA's 320-entry 5-way coalesced partition (mirroring the paper's
/// cluster configuration so the two HW-coalescing designs are directly
/// comparable; the MMU's shared L2 is the 768-entry 6-way regular
/// partition). An optional CoLT-FA side structure (§2.1: "CoLT
/// additionally provides a fully associative mode that supports a much
/// larger number of coalesced contiguous pages ... which in turn restricts
/// the number of entries available") holds a handful of unbounded
/// contiguous runs, probed after the set-associative arrays.
#[derive(Debug)]
pub struct ColtTlb {
    coalesced: SetAssocTlb<ColtEntry>,
    /// CoLT-FA: unbounded-length runs, fully associative (reuses the
    /// range-TLB structure — the lookup hardware is identical).
    fa: Option<RangeTlb>,
    table: PageTable,
    coalesced_fills: u64,
    /// The mapping's runs longer than one window, which CoLT-FA refills
    /// from; empty without CoLT-FA.
    fa_runs: ChunkTable,
}

impl ColtTlb {
    /// Coalesced entries inserted so far.
    #[must_use]
    pub fn coalesced_fills(&self) -> u64 {
        self.coalesced_fills
    }

    fn window_set(&self, wdw: u64) -> usize {
        hytlb_types::usize_from(wdw & (self.coalesced.sets() as u64 - 1))
    }

    fn lookup(&mut self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        let wdw = vpn.as_u64() / WINDOW;
        let off = vpn.as_u64() % WINDOW;
        let set = self.window_set(wdw);
        if let Some(pfn) = self.coalesced.lookup(set, wdw).and_then(|e| e.pfn_for(off)) {
            return Some(pfn);
        }
        self.fa.as_mut().and_then(|fa| fa.lookup(vpn))
    }

    /// Scans the PTE cache block the walk fetched for the maximal
    /// contiguous run containing `vpn` (this is CoLT's free post-walk scan
    /// of the arriving line).
    fn coalesce_run(block: &PteBlock, vpn: VirtPageNum, pfn: PhysFrameNum) -> Option<ColtEntry> {
        let off = hytlb_types::usize_from(vpn.offset_within(WINDOW));
        // Expand left.
        let mut first = off;
        while first > 0 {
            let prev = block[first - 1];
            let want = pfn.as_u64() - (off - first + 1) as u64;
            if prev.is_present() && prev.pfn().as_u64() == want {
                first -= 1;
            } else {
                break;
            }
        }
        // Expand right.
        let mut last = off;
        while last + 1 < block.len() {
            let next = block[last + 1];
            let want = pfn.as_u64() + (last + 1 - off) as u64;
            if next.is_present() && next.pfn().as_u64() == want {
                last += 1;
            } else {
                break;
            }
        }
        let len = (last - first + 1) as u8;
        (len >= 2).then(|| ColtEntry {
            first: first as u8,
            len,
            base_pfn: pfn.as_u64() - (off - first) as u64,
        })
    }
}

impl Mmu<ColtTlb> {
    /// The CoLT-SA MMU (4 KB pages only, like the original proposal).
    #[must_use]
    pub fn colt(map: &AddressSpaceMap, latency: LatencyModel) -> Self {
        Self::build_colt(map, latency, false)
    }

    /// CoLT-SA plus a CoLT-FA side structure of 32 unbounded-length
    /// coalesced runs.
    #[must_use]
    pub fn colt_fa(map: &AddressSpaceMap, latency: LatencyModel) -> Self {
        Self::build_colt(map, latency, true)
    }

    fn build_colt(map: &AddressSpaceMap, latency: LatencyModel, fa: bool) -> Self {
        Mmu {
            cascade: Cascade::new("CoLT", SharedL2::new(128, 6), latency),
            level: ColtTlb {
                coalesced: SetAssocTlb::new(64, 5),
                fa: fa.then(|| RangeTlb::new(COLT_FA_ENTRIES)),
                table: PageTable::from_map(map, false),
                coalesced_fills: 0,
                fa_runs: if fa {
                    ChunkTable::with_min_len(map, WINDOW + 1)
                } else {
                    ChunkTable::default()
                },
            },
        }
    }
}

impl CoalescedLevel for ColtTlb {
    type Miss = ();

    #[inline]
    fn probe(&mut self, _: &mut SharedL2, vpn: VirtPageNum) -> Probe<()> {
        match self.lookup(vpn) {
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
        let pfn = leaf.pfn_for(vpn);
        let wdw = vpn.as_u64() / WINDOW;
        let set = self.window_set(wdw);
        let candidate = block.and_then(|block| Self::coalesce_run(&block, vpn, pfn));
        let existing_len = self.coalesced.peek(set, wdw).map_or(0, |e| e.len);
        match candidate {
            Some(entry) if entry.len > existing_len => {
                self.coalesced.insert(set, wdw, entry);
                self.coalesced_fills += 1;
            }
            Some(_) | None => regular.insert_4k(vpn, pfn),
        }
        // CoLT-FA additionally coalesces the full contiguous run (no window
        // bound) when it is long enough to be worth one of the few FA
        // slots.
        if let Some(fa) = self.fa.as_mut() {
            if let Some(chunk) = self.fa_runs.chunk_containing(vpn) {
                fa.insert(RangeEntry {
                    start_vpn: chunk.vpn,
                    start_pfn: chunk.pfn,
                    len: chunk.len,
                });
            }
        }
    }

    fn flush(&mut self) {
        self.coalesced.flush();
        if let Some(fa) = self.fa.as_mut() {
            fa.flush();
        }
    }

    fn geometries(&self) -> Vec<TlbGeometry> {
        let mut g = vec![self.coalesced.geometry("L2 CoLT")];
        if let Some(fa) = self.fa.as_ref() {
            g.push(fa.geometry("CoLT FA"));
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TranslationScheme;
    use hytlb_mem::Scenario;
    use hytlb_types::{Permissions, VirtAddr};

    fn va(vpn: VirtPageNum) -> VirtAddr {
        vpn.base_addr()
    }

    #[test]
    fn coalesces_contiguous_runs_across_cluster_boundaries() {
        // VPNs 0..8 -> PFNs 4..12: contiguous but spanning two aligned
        // 8-frame clusters. CoLT coalesces the whole window; the cluster
        // TLB could not.
        let mut map = AddressSpaceMap::new();
        map.map_range(VirtPageNum::new(0), PhysFrameNum::new(4), 8, Permissions::READ_WRITE);
        let mut s = Mmu::colt(&map, LatencyModel::default());
        assert_eq!(s.access(va(VirtPageNum::new(0))).path, TranslationPath::Walk);
        for i in 1..8u64 {
            let r = s.access(va(VirtPageNum::new(i)));
            assert_eq!(r.path, TranslationPath::CoalescedHit, "page {i}");
            assert_eq!(r.pfn, Some(PhysFrameNum::new(4 + i)));
        }
        assert_eq!(s.level.coalesced_fills(), 1);
    }

    #[test]
    fn runs_do_not_cross_window_boundaries() {
        // A 16-page chunk needs two CoLT entries (one per window).
        let mut map = AddressSpaceMap::new();
        map.map_range(VirtPageNum::new(0), PhysFrameNum::new(100), 16, Permissions::READ_WRITE);
        let mut s = Mmu::colt(&map, LatencyModel::default());
        s.access(va(VirtPageNum::new(0)));
        assert_eq!(s.access(va(VirtPageNum::new(7))).path, TranslationPath::CoalescedHit);
        // Page 8 is in the next window: walk, then coalesced.
        assert_eq!(s.access(va(VirtPageNum::new(8))).path, TranslationPath::Walk);
        assert_eq!(s.access(va(VirtPageNum::new(15))).path, TranslationPath::CoalescedHit);
        assert_eq!(s.level.coalesced_fills(), 2);
    }

    #[test]
    fn discontiguous_pages_stay_regular() {
        let mut map = AddressSpaceMap::new();
        for i in 0..8u64 {
            map.map_range(
                VirtPageNum::new(i),
                PhysFrameNum::new(100 + i * 10),
                1,
                Permissions::READ_WRITE,
            );
        }
        let mut s = Mmu::colt(&map, LatencyModel::default());
        for i in 0..8u64 {
            s.access(va(VirtPageNum::new(i)));
        }
        assert_eq!(s.level.coalesced_fills(), 0);
        assert_eq!(s.stats().coalesced_hits, 0);
    }

    #[test]
    fn translations_match_map_on_scenarios() {
        for scenario in [Scenario::LowContiguity, Scenario::MediumContiguity] {
            let map = scenario.generate(2048, 5);
            let mut s = Mmu::colt(&map, LatencyModel::default());
            for _ in 0..2 {
                for (vpn, pfn) in map.iter_pages() {
                    assert_eq!(s.access(va(vpn)).pfn, Some(pfn), "{scenario} at {vpn}");
                }
            }
        }
    }

    #[test]
    fn colt_fa_coalesces_runs_beyond_the_window() {
        // One 600-page run: CoLT-SA needs 75 window entries; CoLT-FA
        // covers everything with a single FA run after one walk.
        let mut map = AddressSpaceMap::new();
        map.map_range(VirtPageNum::new(0), PhysFrameNum::new(1000), 600, Permissions::READ_WRITE);
        let mut fa = Mmu::colt_fa(&map, LatencyModel::default());
        assert_eq!(fa.access(va(VirtPageNum::new(0))).path, TranslationPath::Walk);
        // A page far outside the first window is an FA coalesced hit.
        let r = fa.access(va(VirtPageNum::new(500)));
        assert_eq!(r.path, TranslationPath::CoalescedHit);
        assert_eq!(r.pfn, Some(PhysFrameNum::new(1500)));
        // Plain CoLT-SA walks there instead.
        let mut sa = Mmu::colt(&map, LatencyModel::default());
        sa.access(va(VirtPageNum::new(0)));
        assert_eq!(sa.access(va(VirtPageNum::new(500))).path, TranslationPath::Walk);
    }

    #[test]
    fn colt_fa_keeps_short_runs_out_of_fa_slots() {
        let mut map = AddressSpaceMap::new();
        map.map_range(VirtPageNum::new(0), PhysFrameNum::new(10), 4, Permissions::READ_WRITE);
        let mut s = Mmu::colt_fa(&map, LatencyModel::default());
        s.access(va(VirtPageNum::new(0)));
        // Short runs (< window) stay in the SA structures only; the FA
        // array is reserved for long runs, so it remains empty.
        s.flush();
        assert_eq!(s.access(va(VirtPageNum::new(2))).path, TranslationPath::Walk);
    }

    #[test]
    fn colt_beats_baseline_on_low_contiguity() {
        let map = Scenario::LowContiguity.generate(4096, 6);
        let mut colt = Mmu::colt(&map, LatencyModel::default());
        let mut base = Mmu::baseline(&map, LatencyModel::default());
        for _ in 0..2 {
            for (vpn, _) in map.iter_pages() {
                colt.access(va(vpn));
                base.access(va(vpn));
            }
        }
        assert!(colt.stats().walks < base.stats().walks);
    }

    #[test]
    fn partial_run_keeps_longer_existing_entry() {
        // Window with runs [0..6) and [6..8) (discontiguous between):
        // after caching the 6-run, walking page 6 must not evict it for
        // the 2-run.
        let mut map = AddressSpaceMap::new();
        map.map_range(VirtPageNum::new(0), PhysFrameNum::new(100), 6, Permissions::READ_WRITE);
        map.map_range(VirtPageNum::new(6), PhysFrameNum::new(500), 2, Permissions::READ_WRITE);
        let mut s = Mmu::colt(&map, LatencyModel::default());
        s.access(va(VirtPageNum::new(0)));
        assert_eq!(s.access(va(VirtPageNum::new(6))).path, TranslationPath::Walk);
        // The 6-run survives; page 3 still coalesced-hits after L1 flush.
        s.cascade.l1_mut().flush();
        assert_eq!(s.access(va(VirtPageNum::new(3))).path, TranslationPath::CoalescedHit);
        // Page 6 went regular.
        assert_eq!(s.access(va(VirtPageNum::new(6))).path, TranslationPath::L2RegularHit);
    }
}
