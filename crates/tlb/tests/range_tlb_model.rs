//! Property test: `RangeTlb` against a naive true-LRU reference model.
//!
//! RMM's ranges come from the mapping's chunks, which never overlap, so
//! the operations run over a fixed set of disjoint ranges: at most one
//! cached range covers any page, and the model's answer is unambiguous.

use hytlb_tlb::{RangeEntry, RangeTlb};
use hytlb_types::{PhysFrameNum, VirtPageNum};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Number of distinct ranges the operations draw from.
const RANGES: u64 = 12;

/// Pages spanned by the ranges and the holes between them.
const SPAN: u64 = RANGES * 100;

/// Range `i` of the fixed set: starts at a multiple of 100 (plus a small
/// skew), is 1–60 pages long, and is backed by its own frames.
fn range(i: u64) -> RangeEntry {
    RangeEntry {
        start_vpn: VirtPageNum::new(i * 100 + (i % 3) * 7),
        start_pfn: PhysFrameNum::new(10_000 + i * 1000),
        len: 1 + (i * 37) % 60,
    }
}

/// A trivially-correct fully-associative LRU array: most recent at the
/// back.
#[derive(Debug, Default)]
struct Model {
    entries: VecDeque<RangeEntry>,
}

impl Model {
    fn lookup(&mut self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        let pos = self.entries.iter().position(|e| e.covers(vpn))?;
        let e = self.entries.remove(pos).expect("position valid");
        self.entries.push_back(e);
        Some(e.start_pfn + (vpn - e.start_vpn))
    }

    /// Returns the evicted range, if any.
    fn insert(&mut self, entry: RangeEntry, capacity: usize) -> Option<RangeEntry> {
        if let Some(pos) = self.entries.iter().position(|e| *e == entry) {
            self.entries.remove(pos);
            self.entries.push_back(entry);
            return None;
        }
        let victim = if self.entries.len() == capacity { self.entries.pop_front() } else { None };
        self.entries.push_back(entry);
        victim
    }
}

#[derive(Debug, Clone)]
enum Op {
    Lookup(u64),
    Insert(u64),
    Flush,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..SPAN).prop_map(Op::Lookup),
        4 => (0..RANGES).prop_map(Op::Insert),
        1 => Just(Op::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn range_tlb_matches_reference_lru(
        ops in proptest::collection::vec(arb_op(), 1..300),
        capacity in 1usize..=8,
    ) {
        let mut dut = RangeTlb::new(capacity);
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Lookup(vpn) => {
                    let vpn = VirtPageNum::new(vpn);
                    prop_assert_eq!(dut.lookup(vpn), model.lookup(vpn), "lookup {}", vpn);
                }
                Op::Insert(i) => {
                    let got = dut.insert(range(i));
                    prop_assert_eq!(got, model.insert(range(i), capacity), "insert range {}", i);
                }
                Op::Flush => {
                    dut.flush();
                    model.entries.clear();
                }
            }
            prop_assert_eq!(dut.len(), model.entries.len());
        }
    }
}

#[test]
fn the_fixed_ranges_are_disjoint() {
    for i in 0..RANGES {
        let (a, b) = (range(i), range(i + 1));
        assert!(a.start_vpn + a.len < b.start_vpn, "ranges {i} and {} overlap", i + 1);
    }
    let last = range(RANGES - 1);
    assert!(last.start_vpn + last.len <= VirtPageNum::new(SPAN));
}
