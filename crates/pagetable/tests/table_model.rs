//! Property test: `PageTable` against a naive `HashMap` page table.
//!
//! The model keeps the leaves in hash maps (one per page size), the set of
//! allocated node prefixes per level (a node below the root exists exactly
//! when some leaf beneath it was mapped), and each PTE's 11 ignored bits.
//! Random aligned, non-overlapping sequences of `map` / `map_huge` /
//! `map_giant` / `write_anchor_contiguity` run on both; every read is then
//! compared on mapped pages, their neighbours and holes.

use hytlb_pagetable::{LeafEntry, PageTable, PageTableEntry};
use hytlb_types::{PageSize, Permissions, PhysFrameNum, VirtPageNum};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const PERMS: [Permissions; 3] = [Permissions::READ, Permissions::READ_WRITE, Permissions::EXECUTE];
const DISTANCES: [u64; 6] = [2, 4, 8, 16, 64, 512];

/// Key of the node at `level` (1 = PDPT, 2 = PD, 3 = PT) covering `vpn`.
fn key(vpn: u64, level: u32) -> u64 {
    vpn >> (9 * (4 - level))
}

#[derive(Debug, Default)]
struct Model {
    base: HashMap<u64, (u64, Permissions)>,
    huge: HashMap<u64, (u64, Permissions)>,
    giant: HashMap<u64, (u64, Permissions)>,
    /// Allocated nodes below the root, by level (PDPT, PD, PT).
    nodes: [HashSet<u64>; 3],
    /// Ignored bits of 4 KB-level PTEs, by VPN; absent means zero.
    ignored: HashMap<u64, u64>,
}

impl Model {
    fn has_node(&self, vpn: u64, level: u32) -> bool {
        self.nodes[level as usize - 1].contains(&key(vpn, level))
    }

    fn alloc_nodes(&mut self, vpn: u64, deepest: u32) {
        for level in 1..=deepest {
            self.nodes[level as usize - 1].insert(key(vpn, level));
        }
    }

    fn can_map(&self, vpn: u64) -> bool {
        !self.giant.contains_key(&key(vpn, 2))
            && !self.huge.contains_key(&key(vpn, 3))
            && !self.base.contains_key(&vpn)
    }

    fn can_map_huge(&self, vpn: u64) -> bool {
        !self.giant.contains_key(&key(vpn, 2))
            && !self.huge.contains_key(&key(vpn, 3))
            && !self.has_node(vpn, 3)
    }

    fn can_map_giant(&self, vpn: u64) -> bool {
        !self.giant.contains_key(&key(vpn, 2)) && !self.has_node(vpn, 2)
    }

    /// What `lookup_with_depth` must return.
    fn lookup_with_depth(&self, vpn: u64) -> (Option<LeafEntry>, u32) {
        let leaf = |head: u64, (pfn, perms): (u64, Permissions), size| LeafEntry {
            head_vpn: VirtPageNum::new(head),
            head_pfn: PhysFrameNum::new(pfn),
            size,
            perms,
        };
        if !self.has_node(vpn, 1) {
            return (None, 1);
        }
        if let Some(&e) = self.giant.get(&key(vpn, 2)) {
            return (Some(leaf(key(vpn, 2) << 18, e, PageSize::Giant1G)), 2);
        }
        if !self.has_node(vpn, 2) {
            return (None, 2);
        }
        if let Some(&e) = self.huge.get(&key(vpn, 3)) {
            return (Some(leaf(key(vpn, 3) << 9, e, PageSize::Huge2M)), 3);
        }
        if !self.has_node(vpn, 3) {
            return (None, 3);
        }
        (self.base.get(&vpn).map(|&e| leaf(vpn, e, PageSize::Base4K)), 4)
    }

    /// The PTE a PT node holds for `vpn` (which must have a PT node).
    fn pte(&self, vpn: u64) -> PageTableEntry {
        let mut pte = match self.base.get(&vpn) {
            Some(&(pfn, perms)) => PageTableEntry::new_leaf(PhysFrameNum::new(pfn), perms),
            None => PageTableEntry::NOT_PRESENT,
        };
        pte.set_ignored_bits(self.ignored.get(&vpn).copied().unwrap_or(0));
        pte
    }

    /// What `lookup_with_block` must return for the 8-PTE cache block.
    fn block(&self, vpn: u64) -> Option<Vec<PageTableEntry>> {
        let (_, depth) = self.lookup_with_depth(vpn);
        (depth == 4).then(|| (vpn & !7..(vpn & !7) + 8).map(|v| self.pte(v)).collect())
    }

    fn write_anchor(&mut self, avpn: u64, distance: u64, contiguity: u64) -> bool {
        if !self.has_node(avpn, 3) {
            return false;
        }
        if distance >= 8 {
            // 16 bits: the low 11 in the block's first PTE, the high 5 in
            // its second (whose other ignored bits are cleared).
            let value = contiguity.min((1 << 16) - 1);
            let base = avpn & !7;
            self.ignored.insert(base, value & 0x7ff);
            self.ignored.insert(base + 1, value >> 11);
        } else {
            self.ignored.insert(avpn, contiguity.min((1 << 11) - 1));
        }
        true
    }

    fn read_anchor_contiguity(&self, avpn: u64, distance: u64) -> Option<u64> {
        if !self.has_node(avpn, 3) {
            return None;
        }
        let bits = |v: u64| self.ignored.get(&v).copied().unwrap_or(0);
        Some(if distance >= 8 {
            let base = avpn & !7;
            bits(base) | (bits(base + 1) & 0x1f) << 11
        } else {
            bits(avpn)
        })
    }

    fn read_anchor(&self, avpn: u64, distance: u64) -> Option<(PhysFrameNum, u64)> {
        let &(pfn, _) = self.base.get(&avpn)?;
        Some((PhysFrameNum::new(pfn), self.read_anchor_contiguity(avpn, distance)?))
    }
}

#[derive(Debug, Clone)]
enum Op {
    Map(u64, u64, usize),
    MapHuge(u64, u64, usize),
    MapGiant(u64, u64, usize),
    WriteAnchor(u64, usize, u64),
}

/// A VPN drawn from a small radix footprint: 3 PML4 × 3 PDPT × 4 PD slots
/// and a whole PT node, so leaves share nodes and the footprint is full of
/// holes at every depth.
fn arb_vpn() -> impl Strategy<Value = u64> {
    (0u64..3, 0u64..3, 0u64..4, 0u64..512).prop_map(|(a, b, c, d)| a << 27 | b << 18 | c << 9 | d)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (arb_vpn(), 0u64..1 << 30, 0usize..3).prop_map(|(v, p, r)| Op::Map(v, p, r)),
        2 => (arb_vpn(), 0u64..1 << 20, 0usize..3)
            .prop_map(|(v, p, r)| Op::MapHuge(v & !511, p << 9, r)),
        1 => (arb_vpn(), 0u64..1 << 10, 0usize..3)
            .prop_map(|(v, p, r)| Op::MapGiant(v & !((1 << 18) - 1), p << 18, r)),
        4 => (arb_vpn(), 0usize..DISTANCES.len(), 0u64..70_000)
            .prop_map(|(v, d, c)| Op::WriteAnchor(v, d, c)),
    ]
}

/// Applies `op` to both sides, skipping a map that would overlap.
fn apply(pt: &mut PageTable, model: &mut Model, op: &Op) {
    let (vpn, pfn) = (VirtPageNum::new, PhysFrameNum::new);
    match *op {
        Op::Map(v, p, r) if model.can_map(v) => {
            pt.map(vpn(v), pfn(p), PERMS[r]);
            model.alloc_nodes(v, 3);
            model.base.insert(v, (p, PERMS[r]));
            // A fresh leaf PTE carries no contiguity bits.
            model.ignored.remove(&v);
        }
        Op::MapHuge(v, p, r) if model.can_map_huge(v) => {
            pt.map_huge(vpn(v), pfn(p), PERMS[r]);
            model.alloc_nodes(v, 2);
            model.huge.insert(key(v, 3), (p, PERMS[r]));
        }
        Op::MapGiant(v, p, r) if model.can_map_giant(v) => {
            pt.map_giant(vpn(v), pfn(p), PERMS[r]);
            model.alloc_nodes(v, 1);
            model.giant.insert(key(v, 2), (p, PERMS[r]));
        }
        Op::WriteAnchor(v, d, c) => {
            let distance = DISTANCES[d];
            let avpn = v & !(distance - 1);
            let wrote = pt.write_anchor_contiguity(VirtPageNum::new(avpn), distance, c);
            assert_eq!(
                wrote,
                model.write_anchor(avpn, distance, c),
                "write at {avpn:#x}/{distance}"
            );
        }
        Op::Map(..) | Op::MapHuge(..) | Op::MapGiant(..) => {}
    }
}

/// Compares every read at `v`; returns the walk depth.
fn check(pt: &PageTable, model: &Model, v: u64) -> u32 {
    let vpn = VirtPageNum::new(v);
    let want = model.lookup_with_depth(v);
    assert_eq!(pt.lookup_with_depth(vpn), want, "lookup_with_depth({v:#x})");
    let (leaf, depth, block) = pt.lookup_with_block(vpn);
    assert_eq!((leaf, depth), want, "lookup_with_block({v:#x})");
    assert_eq!(block.map(<[_]>::to_vec), model.block(v), "block({v:#x})");
    for distance in DISTANCES {
        let avpn = v & !(distance - 1);
        let a = VirtPageNum::new(avpn);
        let got = pt.read_anchor_contiguity(a, distance);
        assert_eq!(got, model.read_anchor_contiguity(avpn, distance), "contiguity {avpn:#x}");
        assert_eq!(pt.read_anchor(a, distance), model.read_anchor(avpn, distance), "{avpn:#x}");
    }
    want.1
}

/// Mapped pages, their neighbours, and far-out holes.
fn probes(model: &Model) -> Vec<u64> {
    let mut probes: Vec<u64> =
        model.base.keys().flat_map(|&v| [v.wrapping_sub(1), v, v + 1]).collect();
    for &k in model.huge.keys() {
        probes.extend([k << 9, (k << 9) + 300, (k << 9) + 511, (k << 9) + 512]);
    }
    for &k in model.giant.keys() {
        probes.extend([k << 18, (k << 18) + 777, (k + 1) << 18]);
    }
    probes.extend([1 << 27 | 5 << 18, 2 << 27 | 7 << 9, 6 << 27, 1 << 35]);
    probes.retain(|&v| v < 1 << 36);
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn page_table_matches_hashmap_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut pt = PageTable::new();
        let mut model = Model::default();
        for op in &ops {
            apply(&mut pt, &mut model, op);
        }
        for v in probes(&model) {
            check(&pt, &model, v);
        }
    }
}

#[test]
fn hole_depths_one_to_three_match_the_model() {
    let mut pt = PageTable::new();
    let mut model = Model::default();
    // One 4 KB page and one 2 MB page under PML4 slot 0, a 1 GB page under
    // slot 1, anchors on both sides of the 4 KB page's cache block.
    let ops = [
        Op::Map(3 << 9 | 9, 77, 1),
        Op::MapHuge(1 << 18, 1 << 9, 0),
        Op::MapGiant(1 << 27, 5 << 18, 2),
        Op::WriteAnchor(3 << 9 | 8, 3, 40_000),
        Op::WriteAnchor(3 << 9 | 12, 1, 9),
    ];
    for op in &ops {
        apply(&mut pt, &mut model, op);
    }
    let mut depths = Vec::new();
    for v in probes(&model).into_iter().chain([4 << 27, 2 << 18, 5 << 9]) {
        depths.push((check(&pt, &model, v), pt.lookup(VirtPageNum::new(v)).is_some()));
    }
    for depth in 1..=3 {
        assert!(depths.contains(&(depth, false)), "no hole at depth {depth}: {depths:?}");
    }
    assert!(depths.contains(&(4, true)) && depths.contains(&(4, false)));
}
