//! Translation outcomes, their Table 3 costs, and the per-scheme counters.

use hytlb_types::{Cycles, PhysFrameNum, VirtAddr};

/// Which structure resolved (or failed to resolve) one translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TranslationPath {
    /// Hit in the L1 TLB (latency hidden).
    L1Hit,
    /// Hit on a regular (4 KB or 2 MB) L2 entry.
    L2RegularHit,
    /// Hit on a coalesced entry: anchor, cluster or range.
    CoalescedHit,
    /// L2 miss resolved by a page-table walk.
    Walk,
    /// The address is not mapped at all (should not occur in well-formed
    /// experiments; counted separately so it can never masquerade as data).
    Fault,
}

impl TranslationPath {
    /// The cycles the paper's Table 3 charges a translation served by this
    /// path: L1 hits are free (the L1 TLB is accessed in parallel with the
    /// L1 cache); regular L2 hits cost 7 cycles; coalesced hits (anchor,
    /// cluster or range) cost 8; a page-table walk costs 50, also when it
    /// finds no mapping.
    #[must_use]
    pub const fn cycles(self) -> Cycles {
        Cycles::new(match self {
            TranslationPath::L1Hit => 0,
            TranslationPath::L2RegularHit => 7,
            TranslationPath::CoalescedHit => 8,
            TranslationPath::Walk => 50,
            TranslationPath::Fault => 50,
        })
    }
}

/// The outcome of a single address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// The structure that produced the translation.
    pub path: TranslationPath,
    /// The translated frame, `None` on fault.
    pub pfn: Option<PhysFrameNum>,
}

/// Per-scheme accumulated statistics.
///
/// The paper's headline metric, "TLB misses", is [`SchemeStats::walks`]:
/// translations that had to walk the page table. Table 5's breakdown of L2
/// accesses is `l2_regular_hits` / `coalesced_hits` / `walks` over
/// [`SchemeStats::l2_accesses`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SchemeStats {
    /// Total translations requested.
    pub accesses: u64,
    /// Resolved by the L1 TLB.
    pub l1_hits: u64,
    /// Resolved by a regular (4 KB / 2 MB) L2 entry.
    pub l2_regular_hits: u64,
    /// Resolved by a coalesced entry (anchor / cluster / range).
    pub coalesced_hits: u64,
    /// Resolved by a page-table walk — the paper's "TLB misses".
    pub walks: u64,
    /// Unmapped addresses encountered.
    pub faults: u64,
    /// Total translation cycles, each access charged
    /// [`TranslationPath::cycles`].
    pub cycles: Cycles,
}

impl SchemeStats {
    /// Accesses that reached the L2 structures (= L1 misses).
    #[must_use]
    pub fn l2_accesses(&self) -> u64 {
        self.accesses - self.l1_hits
    }

    /// Fraction of L2 accesses resolved by regular entries (Table 5
    /// "R.hit").
    #[must_use]
    pub fn l2_regular_hit_rate(&self) -> f64 {
        ratio(self.l2_regular_hits, self.l2_accesses())
    }

    /// Fraction of L2 accesses resolved by coalesced entries (Table 5
    /// "A.hit" for the anchor scheme).
    #[must_use]
    pub fn l2_coalesced_hit_rate(&self) -> f64 {
        ratio(self.coalesced_hits, self.l2_accesses())
    }

    /// Fraction of L2 accesses that missed everything (Table 5 "L2 miss").
    #[must_use]
    pub fn l2_miss_rate(&self) -> f64 {
        ratio(self.walks + self.faults, self.l2_accesses())
    }

    /// Records one access served by `path`.
    pub fn record(&mut self, path: TranslationPath) {
        self.accesses += 1;
        self.cycles += path.cycles();
        match path {
            TranslationPath::L1Hit => self.l1_hits += 1,
            TranslationPath::L2RegularHit => self.l2_regular_hits += 1,
            TranslationPath::CoalescedHit => self.coalesced_hits += 1,
            TranslationPath::Walk => self.walks += 1,
            TranslationPath::Fault => self.faults += 1,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// An unmapped address hit inside [`Cascade::access_batch`](crate::Cascade::access_batch).
///
/// Identifies the first faulting access so the engine can report exactly
/// which address failed to translate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchFault {
    /// Position of the faulting address within the batch slice.
    pub index: usize,
    /// The virtual address that failed to translate.
    pub vaddr: VirtAddr,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_cycles_match_table3() {
        let cycles = |p: TranslationPath| p.cycles().as_u64();
        assert_eq!(cycles(TranslationPath::L1Hit), 0);
        assert_eq!(cycles(TranslationPath::L2RegularHit), 7);
        assert_eq!(cycles(TranslationPath::CoalescedHit), 8);
        assert_eq!(cycles(TranslationPath::Walk), 50);
        assert_eq!(cycles(TranslationPath::Fault), 50);
    }

    #[test]
    fn stats_record_and_rates() {
        let mut s = SchemeStats::default();
        s.record(TranslationPath::L1Hit);
        s.record(TranslationPath::L2RegularHit);
        s.record(TranslationPath::CoalescedHit);
        s.record(TranslationPath::Walk);
        assert_eq!(s.accesses, 4);
        assert_eq!(s.l2_accesses(), 3);
        assert!((s.l2_regular_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.l2_coalesced_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.l2_miss_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.cycles, Cycles::new(65));
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = SchemeStats::default();
        assert_eq!(s.l2_miss_rate(), 0.0);
        assert_eq!(s.l2_regular_hit_rate(), 0.0);
    }
}
