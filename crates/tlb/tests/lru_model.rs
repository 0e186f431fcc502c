//! Property test: `SetAssocTlb` against a naive reference LRU model.

use hytlb_tlb::SetAssocTlb;
use proptest::prelude::*;
use std::collections::VecDeque;

/// A trivially-correct set-associative LRU cache.
#[derive(Debug, Default)]
struct RefSet {
    /// Most recent at the back; (tag, payload).
    ways: VecDeque<(u64, u32)>,
}

impl RefSet {
    fn lookup(&mut self, tag: u64) -> Option<u32> {
        let pos = self.ways.iter().position(|&(t, _)| t == tag)?;
        let e = self.ways.remove(pos).expect("position valid");
        self.ways.push_back(e);
        Some(e.1)
    }

    /// Returns the replaced or evicted `(tag, payload)`, if any.
    fn insert(&mut self, tag: u64, payload: u32, ways: usize) -> Option<(u64, u32)> {
        let old = if let Some(pos) = self.ways.iter().position(|&(t, _)| t == tag) {
            self.ways.remove(pos)
        } else if self.ways.len() == ways {
            self.ways.pop_front()
        } else {
            None
        };
        self.ways.push_back((tag, payload));
        old
    }
}

#[derive(Debug, Clone)]
enum Op {
    Lookup(u64),
    Insert(u64, u32),
    Flush,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..40).prop_map(Op::Lookup),
        4 => (0u64..40, any::<u32>()).prop_map(|(t, p)| Op::Insert(t, p)),
        1 => Just(Op::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn set_assoc_matches_reference_lru(
        ops in proptest::collection::vec(arb_op(), 1..300),
        sets_log in 0u32..3,
        ways in 1usize..=8,
    ) {
        let sets = 1usize << sets_log;
        let mut dut: SetAssocTlb<u32> = SetAssocTlb::new(sets, ways);
        let mut reference: Vec<RefSet> = (0..sets).map(|_| RefSet::default()).collect();
        for op in ops {
            match op {
                Op::Lookup(tag) => {
                    let set = (tag as usize) % sets;
                    let got = dut.lookup(set, tag).copied();
                    let want = reference[set].lookup(tag);
                    prop_assert_eq!(got, want);
                }
                Op::Insert(tag, payload) => {
                    let set = (tag as usize) % sets;
                    let got = dut.insert(set, tag, payload);
                    let want = reference[set].insert(tag, payload, ways);
                    prop_assert_eq!(got, want);
                }
                Op::Flush => {
                    dut.flush();
                    reference.iter_mut().for_each(|s| s.ways.clear());
                }
            }
            let ref_len: usize = reference.iter().map(|s| s.ways.len()).sum();
            prop_assert_eq!(dut.len(), ref_len);
        }
    }
}
