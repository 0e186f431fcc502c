//! The one translation cascade every design runs.
//!
//! Every design of the evaluation translates an access the same way (the
//! flow of the paper's Table 2): L1 → regular L2 entries (4 KB, then
//! 2 MB) → one coalesced structure → page walk → fill. The designs differ
//! only in that coalesced structure and its fill rule, so each is a
//! [`CoalescedLevel`] plugged into the shared [`Cascade`]; an [`Mmu`] is
//! one cascade plus one level.

use crate::scheme::{AccessResult, BatchFault, SchemeStats, TranslationPath};
use crate::shared_l2::SharedL2;
use hytlb_mem::AddressSpaceMap;
use hytlb_pagetable::{LeafEntry, PageTable, PageTableEntry};
use hytlb_tlb::{L1Tlb, TlbGeometry};
use hytlb_types::{PageSize, PhysFrameNum, VirtAddr, VirtPageNum};
use std::sync::Arc;

/// The 64-byte cache block of 8 PTEs a walk fetches last.
pub type PteBlock = [PageTableEntry; 8];

/// What a [`CoalescedLevel::probe`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe<M> {
    /// The level translated the page.
    Hit {
        /// The translated frame.
        pfn: PhysFrameNum,
        /// The page size the L1 caches the translation under.
        size: PageSize,
        /// The path charged for the hit.
        path: TranslationPath,
    },
    /// The level missed; the value is handed to [`CoalescedLevel::fill`]
    /// after the walk.
    Miss(M),
}

/// The design-specific part of an MMU: the structure probed after the
/// regular L2 entries miss, and the fill rule after a walk.
///
/// A level gets `&mut SharedL2` wherever its entries live in, or its fill
/// rule writes to, the shared array (anchor entries, a cluster TLB's
/// regular partition).
pub trait CoalescedLevel: Send {
    /// What a miss in [`CoalescedLevel::probe`] tells the fill: `()` for
    /// most levels; the anchor level passes whether the anchor tag hit
    /// (Table 2 row 3 versus row 4).
    type Miss;

    /// Probes the coalesced structure for `vpn`, after the regular L2
    /// entries missed.
    fn probe(&mut self, l2: &mut SharedL2, vpn: VirtPageNum) -> Probe<Self::Miss>;

    /// The page table the walker reads.
    fn table(&self) -> &PageTable;

    /// Fills the L2 structures after a walk found `leaf`. `block` is the
    /// 8-PTE cache block the walk fetched (`None` unless the walk reached
    /// a 4 KB PT node).
    fn fill(
        &mut self,
        l2: &mut SharedL2,
        vpn: VirtPageNum,
        leaf: LeafEntry,
        block: Option<PteBlock>,
        miss: Self::Miss,
    );

    /// Flushes the level's own arrays (the cascade flushes the L1 and L2).
    fn flush(&mut self) {}

    /// Notifies the level that an epoch boundary passed. Returns `true`
    /// when the TLBs must be shot down.
    fn on_epoch(&mut self) -> bool {
        false
    }

    /// The anchor distance in effect, for levels that have one.
    fn anchor_distance(&self) -> Option<u64> {
        None
    }

    /// Geometries of the level's own arrays.
    fn geometries(&self) -> Vec<TlbGeometry> {
        Vec::new()
    }
}

/// The parts of the MMU every design shares — the L1, the shared L2, the
/// statistics and the design's name — and the translation cascade that
/// drives them through a level.
#[derive(Debug)]
pub struct Cascade {
    l1: L1Tlb,
    l2: SharedL2,
    stats: SchemeStats,
    name: String,
}

impl Cascade {
    /// A cascade named `name` around `l2`, with the paper's L1.
    #[must_use]
    pub fn new(name: impl Into<String>, l2: SharedL2) -> Self {
        Cascade { l1: L1Tlb::paper_default(), l2, stats: SchemeStats::default(), name: name.into() }
    }

    /// The design's label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    /// The L1 TLB, so a test can flush it alone and observe which L2
    /// structure serves the next access.
    // audit:allow(dead-pub): anchor_scheme.rs's
    // `table2_row4_double_miss_fills_only_anchor` and the other Table 2
    // row tests flush the L1 alone through it.
    pub fn l1_mut(&mut self) -> &mut L1Tlb {
        &mut self.l1
    }

    /// Translates one address through `level`: the L1, the L2's 4 KB then
    /// 2 MB entries, the level, and on a miss a walk of the level's table
    /// and the level's fill. The L1 caches every translation served below
    /// it. This is the only translation body: every design runs it,
    /// monomorphized per level. Its cost follows from the path
    /// ([`TranslationPath::cycles`]).
    #[inline]
    pub fn access<L: CoalescedLevel>(&mut self, level: &mut L, vaddr: VirtAddr) -> AccessResult {
        let vpn = vaddr.page_number();
        let result = if let Some(pfn) = self.l1.lookup(vpn) {
            AccessResult { path: TranslationPath::L1Hit, pfn: Some(pfn) }
        } else {
            let (path, found) = if let Some(pfn) = self.l2.lookup_4k(vpn) {
                (TranslationPath::L2RegularHit, Some((pfn, PageSize::Base4K)))
            } else if let Some(pfn) = self.l2.lookup_2m(vpn) {
                (TranslationPath::L2RegularHit, Some((pfn, PageSize::Huge2M)))
            } else {
                match level.probe(&mut self.l2, vpn) {
                    Probe::Hit { pfn, size, path } => (path, Some((pfn, size))),
                    Probe::Miss(miss) => {
                        let (leaf, _, block) = level.table().lookup_with_block(vpn);
                        // The block borrows the level's table, which the
                        // fill may not hold while it mutates the level:
                        // copy the 64 bytes.
                        let block = block.and_then(|b| b.try_into().ok());
                        let found = leaf.map(|leaf| {
                            level.fill(&mut self.l2, vpn, leaf, block, miss);
                            (leaf.pfn_for(vpn), leaf.size)
                        });
                        let path = if found.is_some() {
                            TranslationPath::Walk
                        } else {
                            TranslationPath::Fault
                        };
                        (path, found)
                    }
                }
            };
            if let Some((pfn, size)) = found {
                self.l1.insert(vpn, pfn, size);
            }
            AccessResult { path, pfn: found.map(|(pfn, _)| pfn) }
        };
        self.stats.record(result.path);
        result
    }

    /// Translates a batch through `level`, stopping at the first unmapped
    /// address.
    ///
    /// # Errors
    ///
    /// [`BatchFault`] naming the first address that did not translate.
    pub fn access_batch<L: CoalescedLevel>(
        &mut self,
        level: &mut L,
        vaddrs: &[VirtAddr],
    ) -> Result<(), BatchFault> {
        for (index, &vaddr) in vaddrs.iter().enumerate() {
            if self.access(level, vaddr).pfn.is_none() {
                return Err(BatchFault { index, vaddr });
            }
        }
        Ok(())
    }

    /// Flushes the L1, the L2 and `level`.
    pub fn flush<L: CoalescedLevel>(&mut self, level: &mut L) {
        self.l1.flush();
        self.l2.flush();
        level.flush();
    }

    /// Passes an epoch boundary to `level`, and shoots every TLB down when
    /// it asks for that.
    pub fn on_epoch<L: CoalescedLevel>(&mut self, level: &mut L) {
        if level.on_epoch() {
            self.flush(level);
        }
    }

    /// Geometries of the L1 arrays, the L2 and `level`'s arrays.
    #[must_use]
    pub fn geometries<L: CoalescedLevel>(&self, level: &L) -> Vec<TlbGeometry> {
        let mut g = self.l1.geometries();
        g.push(self.l2.geometry());
        g.extend(level.geometries());
        g
    }
}

/// One design's whole MMU: the shared [`Cascade`] plus its level.
#[derive(Debug)]
pub struct Mmu<L> {
    /// The shared L1 → L2 → walk cascade.
    pub cascade: Cascade,
    /// The design's coalesced level.
    pub level: L,
}

/// A level whose design is configured by one value, so its MMU is built by
/// [`Mmu::new`] from the mapping and that value.
pub trait BuildMmu: CoalescedLevel + Sized {
    /// The design's configuration.
    type Config;

    /// Builds the whole MMU over `map`.
    fn build(map: Arc<AddressSpaceMap>, config: Self::Config) -> Mmu<Self>;
}

impl<L: BuildMmu> Mmu<L> {
    /// Builds the MMU of a configured design over `map`.
    #[must_use]
    pub fn new(map: Arc<AddressSpaceMap>, config: L::Config) -> Self {
        L::build(map, config)
    }
}

/// The cascade's methods, run through the design's level.
impl<L: CoalescedLevel> Mmu<L> {
    /// Short scheme label as used in the paper's figures ("Base", "THP",
    /// "Cluster", "Cluster-2MB", "RMM", "Dynamic", ...).
    #[must_use]
    pub fn name(&self) -> &str {
        self.cascade.name()
    }

    /// Translates one virtual address ([`Cascade::access`]).
    #[inline]
    pub fn access(&mut self, vaddr: VirtAddr) -> AccessResult {
        self.cascade.access(&mut self.level, vaddr)
    }

    /// Translates a batch, stopping at the first unmapped address
    /// ([`Cascade::access_batch`]).
    ///
    /// # Errors
    ///
    /// [`BatchFault`] naming the first address that did not translate.
    pub fn access_batch(&mut self, vaddrs: &[VirtAddr]) -> Result<(), BatchFault> {
        self.cascade.access_batch(&mut self.level, vaddrs)
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &SchemeStats {
        self.cascade.stats()
    }

    /// Passes an epoch boundary (the paper checks memory mappings every
    /// billion instructions); only the dynamic anchor level reacts.
    pub fn on_epoch(&mut self) {
        self.cascade.on_epoch(&mut self.level);
    }

    /// Flushes all TLB state (context switch / shootdown).
    pub fn flush(&mut self) {
        self.cascade.flush(&mut self.level);
    }

    /// The anchor distance in effect, for anchor designs (Table 6 reports
    /// it); `None` for the others.
    #[must_use]
    pub fn anchor_distance(&self) -> Option<u64> {
        self.level.anchor_distance()
    }

    /// Geometries of every TLB structure the design instantiates, so
    /// `hytlb-audit -- invariants` can check the architectural constraints.
    #[must_use]
    pub fn geometries(&self) -> Vec<TlbGeometry> {
        self.cascade.geometries(&self.level)
    }
}
