//! Property test: `SharedL2` against a per-set true-LRU reference model.
//!
//! The model derives each entry kind's set and tag the way the module
//! docs state, independently of the array's code: a 4 KB entry is indexed
//! by the low VPN bits, a 2 MB entry by the low bits of VPN ≫ 9, and an
//! anchor by VPN bits `[d, d+N)` under Figure 6 indexing (the low bits
//! under the naive ablation). The three kinds are separate keys, so they
//! never alias even at the same VPN, but they compete for the same ways.

use hytlb_schemes::{AnchorHit, AnchorIndexing, SharedL2};
use hytlb_types::{PhysFrameNum, VirtPageNum, HUGE_PAGE_PAGES};
use proptest::prelude::*;

/// The entry a way holds: the kind and the VPN its tag is made from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Key {
    Base(u64),
    Huge(u64),
    Anchor(u64),
}

/// What a way stores: the frame and the anchor contiguity (0 otherwise).
type Way = (Key, u64, u64);

/// A set-associative true-LRU array, most recent way first in each set.
#[derive(Debug)]
struct Model {
    sets: Vec<Vec<Way>>,
    ways: usize,
    distance_log2: u32,
    indexing: AnchorIndexing,
}

impl Model {
    fn new(sets: usize, ways: usize, distance_log2: u32, indexing: AnchorIndexing) -> Self {
        Model { sets: vec![Vec::new(); sets], ways, distance_log2, indexing }
    }

    fn set_of(&self, key: Key) -> usize {
        let bits = match (key, self.indexing) {
            (Key::Base(vpn), _) => vpn,
            (Key::Huge(head), _) => head >> 9,
            (Key::Anchor(avpn), AnchorIndexing::Fig6) => avpn >> self.distance_log2,
            (Key::Anchor(avpn), AnchorIndexing::NaiveLowBits) => avpn,
        };
        (bits % self.sets.len() as u64) as usize
    }

    /// Returns the way's `(frame, contiguity)` and makes it most recent.
    fn lookup(&mut self, key: Key) -> Option<(u64, u64)> {
        let set = self.set_of(key);
        let ways = &mut self.sets[set];
        let way = ways.remove(ways.iter().position(|w| w.0 == key)?);
        ways.insert(0, way);
        Some((way.1, way.2))
    }

    /// Replaces `key`'s way, or evicts the set's least recent way when full.
    fn insert(&mut self, key: Key, pfn: u64, contiguity: u64) {
        let (set, ways) = (self.set_of(key), self.ways);
        let set = &mut self.sets[set];
        match set.iter().position(|w| w.0 == key) {
            Some(i) => drop(set.remove(i)),
            None if set.len() == ways => drop(set.pop()),
            None => {}
        }
        set.insert(0, (key, pfn, contiguity));
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert4k(u64, u64),
    Insert2m(u64, u64),
    InsertAnchor(u64, u64, u64),
    Lookup4k(u64),
    Lookup2m(u64),
    LookupAnchor(u64),
    Flush,
}

/// VPNs from eight 2 MB regions, 30 pages each, so that every kind both
/// hits and is evicted.
fn arb_vpn() -> impl Strategy<Value = u64> {
    (0u64..8, 0u64..30).prop_map(|(region, page)| region * HUGE_PAGE_PAGES + page * 17)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (arb_vpn(), 0u64..1 << 20).prop_map(|(v, p)| Op::Insert4k(v, p)),
        2 => (arb_vpn(), 0u64..1 << 11).prop_map(|(v, p)| Op::Insert2m(v, p)),
        3 => (arb_vpn(), 0u64..1 << 20, 0u64..1024).prop_map(|(v, p, c)| Op::InsertAnchor(v, p, c)),
        4 => arb_vpn().prop_map(Op::Lookup4k),
        3 => arb_vpn().prop_map(Op::Lookup2m),
        4 => arb_vpn().prop_map(Op::LookupAnchor),
        1 => Just(Op::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn shared_l2_matches_reference_lru(
        ops in proptest::collection::vec(arb_op(), 1..400),
        sets_log2 in 0u32..=3,
        ways in 1usize..=4,
        distance_log2 in 1u32..=9,
    ) {
        for indexing in [AnchorIndexing::Fig6, AnchorIndexing::NaiveLowBits] {
            let sets = 1 << sets_log2;
            let mut dut = SharedL2::new(sets, ways);
            let mut model = Model::new(sets, ways, distance_log2, indexing);
            let anchor_of = |vpn: u64| vpn & !((1 << distance_log2) - 1);
            let huge_head = |vpn: u64| vpn & !(HUGE_PAGE_PAGES - 1);
            for op in &ops {
                match *op {
                    Op::Insert4k(vpn, pfn) => {
                        dut.insert_4k(VirtPageNum::new(vpn), PhysFrameNum::new(pfn));
                        model.insert(Key::Base(vpn), pfn, 0);
                    }
                    Op::Insert2m(vpn, frame) => {
                        let (head, pfn) = (huge_head(vpn), frame * HUGE_PAGE_PAGES);
                        dut.insert_2m(VirtPageNum::new(head), PhysFrameNum::new(pfn));
                        model.insert(Key::Huge(head), pfn, 0);
                    }
                    Op::InsertAnchor(vpn, appn, contiguity) => {
                        let avpn = anchor_of(vpn);
                        let (v, p) = (VirtPageNum::new(avpn), PhysFrameNum::new(appn));
                        dut.insert_anchor(v, p, contiguity, distance_log2, indexing);
                        model.insert(Key::Anchor(avpn), appn, contiguity);
                    }
                    Op::Lookup4k(vpn) => {
                        let want = model.lookup(Key::Base(vpn)).map(|(p, _)| PhysFrameNum::new(p));
                        prop_assert_eq!(dut.lookup_4k(VirtPageNum::new(vpn)), want, "4K {}", vpn);
                    }
                    Op::Lookup2m(vpn) => {
                        let head = huge_head(vpn);
                        let want = model
                            .lookup(Key::Huge(head))
                            .map(|(p, _)| PhysFrameNum::new(p + (vpn - head)));
                        prop_assert_eq!(dut.lookup_2m(VirtPageNum::new(vpn)), want, "2M {}", vpn);
                    }
                    Op::LookupAnchor(vpn) => {
                        let avpn = anchor_of(vpn);
                        let want = model.lookup(Key::Anchor(avpn)).map(|(p, c)| AnchorHit {
                            avpn: VirtPageNum::new(avpn),
                            appn: PhysFrameNum::new(p),
                            contiguity: c,
                        });
                        let got = dut.lookup_anchor(VirtPageNum::new(vpn), distance_log2, indexing);
                        prop_assert_eq!(got, want, "anchor {} {:?}", vpn, indexing);
                    }
                    Op::Flush => {
                        dut.flush();
                        model.sets.iter_mut().for_each(Vec::clear);
                    }
                }
                prop_assert_eq!(dut.len(), model.len());
            }
        }
    }
}
