//! Property test: `L1Tlb` (with its same-page memo) in lockstep with a
//! memo-free model that probes two plain `SetAssocTlb`s on every lookup.

use hytlb_tlb::{L1Tlb, SetAssocTlb};
use hytlb_types::{PageSize, PhysFrameNum, VirtPageNum, HUGE_PAGE_PAGES};
use proptest::prelude::*;

const BASE_SETS: usize = 4;
const BASE_WAYS: usize = 2;
const HUGE_SETS: usize = 2;
const HUGE_WAYS: usize = 2;

/// The L1 without a memo: every lookup probes the 4 KB array, then the
/// 2 MB array under the huge page's head, refreshing LRU on a hit.
struct MemoFreeL1 {
    base: SetAssocTlb<u64>,
    huge: SetAssocTlb<u64>,
}

impl MemoFreeL1 {
    fn new() -> Self {
        MemoFreeL1 {
            base: SetAssocTlb::new(BASE_SETS, BASE_WAYS),
            huge: SetAssocTlb::new(HUGE_SETS, HUGE_WAYS),
        }
    }

    fn base_set(vpn: u64) -> usize {
        (vpn % BASE_SETS as u64) as usize
    }

    fn huge_set(head: u64) -> usize {
        ((head / HUGE_PAGE_PAGES) % HUGE_SETS as u64) as usize
    }

    fn lookup(&mut self, vpn: u64) -> Option<u64> {
        if let Some(&pfn) = self.base.lookup(Self::base_set(vpn), vpn) {
            return Some(pfn);
        }
        let head = vpn - vpn % HUGE_PAGE_PAGES;
        self.huge.lookup(Self::huge_set(head), head).map(|&head_pfn| head_pfn + (vpn - head))
    }

    fn peek(&self, vpn: u64) -> Option<u64> {
        if let Some(&pfn) = self.base.peek(Self::base_set(vpn), vpn) {
            return Some(pfn);
        }
        let head = vpn - vpn % HUGE_PAGE_PAGES;
        self.huge.peek(Self::huge_set(head), head).map(|&head_pfn| head_pfn + (vpn - head))
    }

    fn insert(&mut self, vpn: u64, pfn: u64, size: PageSize) {
        match size {
            PageSize::Base4K => {
                self.base.insert(Self::base_set(vpn), vpn, pfn);
            }
            PageSize::Huge2M => {
                let head = vpn - vpn % HUGE_PAGE_PAGES;
                self.huge.insert(Self::huge_set(head), head, pfn - (vpn - head));
            }
            PageSize::Giant1G => {}
        }
    }

    fn flush(&mut self) {
        self.base.flush();
        self.huge.flush();
    }

    fn len(&self) -> usize {
        self.base.len() + self.huge.len()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Lookup(u64),
    /// Look up the page of the previous op again.
    Repeat,
    Insert(u64, u64, PageSize),
    Flush,
}

/// Pages in four 2 MB regions, few enough per region that 4 KB sets and
/// 2 MB entries collide and evict.
fn arb_vpn() -> impl Strategy<Value = u64> {
    (0u64..4, 0u64..12).prop_map(|(region, page)| region * HUGE_PAGE_PAGES + page)
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Frames start at 512 so a 2 MB insert's head frame never underflows.
    let pfn = 512u64..4096;
    prop_oneof![
        4 => arb_vpn().prop_map(Op::Lookup),
        6 => Just(Op::Repeat),
        3 => (arb_vpn(), pfn.clone()).prop_map(|(v, p)| Op::Insert(v, p, PageSize::Base4K)),
        1 => (arb_vpn(), pfn.clone()).prop_map(|(v, p)| Op::Insert(v, p, PageSize::Huge2M)),
        1 => (arb_vpn(), pfn).prop_map(|(v, p)| Op::Insert(v, p, PageSize::Giant1G)),
        1 => Just(Op::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memoized_l1_matches_memo_free_model(ops in proptest::collection::vec(arb_op(), 1..400)) {
        let mut dut = L1Tlb::new(BASE_SETS, BASE_WAYS, HUGE_SETS, HUGE_WAYS);
        let mut model = MemoFreeL1::new();
        let mut last = 0u64;
        for op in ops {
            match op {
                Op::Lookup(vpn) => {
                    last = vpn;
                    let got = dut.lookup(VirtPageNum::new(vpn)).map(PhysFrameNum::as_u64);
                    prop_assert_eq!(got, model.lookup(vpn), "lookup {}", vpn);
                }
                Op::Repeat => {
                    let got = dut.lookup(VirtPageNum::new(last)).map(PhysFrameNum::as_u64);
                    prop_assert_eq!(got, model.lookup(last), "repeat {}", last);
                }
                Op::Insert(vpn, pfn, size) => {
                    last = vpn;
                    dut.insert(VirtPageNum::new(vpn), PhysFrameNum::new(pfn), size);
                    model.insert(vpn, pfn, size);
                }
                Op::Flush => {
                    dut.flush();
                    model.flush();
                }
            }
            prop_assert_eq!(dut.len(), model.len());
        }
        // Same final contents in every set of both arrays.
        for region in 0..4 {
            for page in 0..12 {
                let vpn = region * HUGE_PAGE_PAGES + page;
                let got = dut.peek(VirtPageNum::new(vpn)).map(PhysFrameNum::as_u64);
                prop_assert_eq!(got, model.peek(vpn), "final contents at {}", vpn);
            }
        }
    }
}
