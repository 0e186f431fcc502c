//! A 4-level radix page table (PML4 → PDPT → PD → PT).
//!
//! The table is a real software radix tree over 512-entry nodes, with 2 MB
//! leaves at the PD level (PS bit) and 4 KB leaves at the PT level, so the
//! walker and the anchored-table maintenance operate on the same structure a
//! hardware walker would see.
//!
//! The nodes live in one flat arena, root first. A directory entry's PFN
//! field holds its child's arena index, the way a hardware directory entry
//! holds its child's frame, so a walk is at most four indexed loads.

use crate::pte::{read_distributed_contiguity, write_distributed_contiguity, PageTableEntry};
use hytlb_mem::{AddressSpaceMap, MapChunk};
use hytlb_types::{
    usize_from, PageSize, Permissions, PhysFrameNum, VirtPageNum, GIANT_PAGE_PAGES,
    HUGE_PAGE_PAGES, PTES_PER_CACHE_BLOCK,
};

const ENTRIES: usize = 512;
const LEVELS: usize = 4;

/// One 512-entry radix node.
type Node = [PageTableEntry; ENTRIES];

const EMPTY_NODE: Node = [PageTableEntry::NOT_PRESENT; ENTRIES];

/// A translation found by walking the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafEntry {
    /// First VPN covered by the leaf (equals the queried VPN for 4 KB
    /// leaves; the 2 MB-aligned head for huge leaves).
    pub head_vpn: VirtPageNum,
    /// Frame backing `head_vpn`.
    pub head_pfn: PhysFrameNum,
    /// Page size of the leaf.
    pub size: PageSize,
    /// Permissions of the mapping.
    pub perms: Permissions,
}

impl LeafEntry {
    /// Frame backing an arbitrary `vpn` within this leaf.
    #[must_use]
    pub fn pfn_for(&self, vpn: VirtPageNum) -> PhysFrameNum {
        self.head_pfn + (vpn - self.head_vpn)
    }
}

/// A 4-level page table.
///
/// # Examples
///
/// ```
/// use hytlb_pagetable::PageTable;
/// use hytlb_types::{PageSize, Permissions, PhysFrameNum, VirtPageNum};
///
/// let mut pt = PageTable::new();
/// pt.map(VirtPageNum::new(0x1000), PhysFrameNum::new(0x2000), Permissions::READ_WRITE);
/// let leaf = pt.lookup(VirtPageNum::new(0x1000)).expect("mapped");
/// assert_eq!(leaf.size, PageSize::Base4K);
/// assert_eq!(leaf.head_pfn, PhysFrameNum::new(0x2000));
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    /// The radix nodes, root at index 0.
    nodes: Vec<Node>,
}

/// Index of `vpn` within the node at `level` (0 = PML4 ... 3 = PT).
fn index_at(vpn: VirtPageNum, level: usize) -> usize {
    let shift = 9 * (LEVELS - 1 - level) as u32;
    vpn.index_bits(shift, 0x1ff)
}

/// Arena index of the child a present, non-huge directory entry points at.
fn child_of(e: PageTableEntry) -> usize {
    usize_from(e.pfn().as_u64())
}

/// What one radix traversal found: the leaf translation, the nodes touched,
/// and the PT node's entries when the traversal reached that level.
struct Descent<'a> {
    leaf: Option<LeafEntry>,
    depth: u32,
    pt: Option<&'a Node>,
}

/// The 8-PTE cache block of a PT node that covers `vpn`.
fn block_of(entries: &Node, vpn: VirtPageNum) -> &[PageTableEntry] {
    let idx = index_at(vpn, LEVELS - 1);
    let base = idx - idx % PTES_PER_CACHE_BLOCK;
    &entries[base..base + PTES_PER_CACHE_BLOCK]
}

/// The contiguity field anchored at `anchor_vpn` in its PT node: spread
/// over the anchor's cache block for distances ≥ 8, otherwise the anchor
/// PTE's own ignored bits.
fn anchor_contiguity(entries: &Node, anchor_vpn: VirtPageNum, distance: u64) -> u64 {
    let idx = index_at(anchor_vpn, LEVELS - 1);
    if distance >= PTES_PER_CACHE_BLOCK as u64 {
        debug_assert_eq!(idx % PTES_PER_CACHE_BLOCK, 0, "anchor aligned to its cache block");
        read_distributed_contiguity(block_of(entries, anchor_vpn))
    } else {
        entries[idx].ignored_bits()
    }
}

/// Calls `f(vpn, pfn, pages, huge)` for each run of leaves
/// [`PageTable::from_map`] installs for `chunk`, in ascending VPN order:
/// once per 2 MB leaf (`huge`), and once per run of 4 KB leaves that share
/// a PT node (a PT node spans one 2 MB region).
fn for_each_run(
    chunk: &MapChunk,
    use_huge_pages: bool,
    mut f: impl FnMut(VirtPageNum, PhysFrameNum, u64, bool),
) {
    // A 2 MB-aligned region wholly inside the chunk becomes a 2 MB leaf when
    // its frame is aligned too; `pfn - vpn` is constant over the chunk, so
    // that holds for every such region or for none.
    let huge = use_huge_pages
        && chunk.vpn.offset_within(HUGE_PAGE_PAGES) == chunk.pfn.offset_within(HUGE_PAGE_PAGES);
    let end = chunk.end_vpn();
    let mut vpn = chunk.vpn;
    while vpn < end {
        let pfn = chunk.pfn + (vpn - chunk.vpn);
        let region_end = vpn.align_down(HUGE_PAGE_PAGES) + HUGE_PAGE_PAGES;
        let is_huge = huge && vpn.is_aligned(HUGE_PAGE_PAGES) && region_end <= end;
        let next = region_end.min(end);
        f(vpn, pfn, next - vpn, is_huge);
        vpn = next;
    }
}

impl PageTable {
    /// Creates an empty page table.
    #[must_use]
    pub fn new() -> Self {
        PageTable::with_capacity(1)
    }

    /// An empty table whose arena has room for `nodes` nodes.
    fn with_capacity(nodes: usize) -> Self {
        let mut arena = Vec::with_capacity(nodes);
        arena.push(EMPTY_NODE);
        PageTable { nodes: arena }
    }

    /// Builds a page table for an entire address-space map.
    ///
    /// When `use_huge_pages` is set, any 2 MB region that
    /// [`AddressSpaceMap::huge_page_at`] reports as huge-page-shaped is
    /// installed as a single 2 MB leaf (this is what the paper's THP-enabled
    /// mappings look like); all remaining pages get 4 KB leaves.
    #[must_use]
    pub fn from_map(map: &AddressSpaceMap, use_huge_pages: bool) -> Self {
        // Count the nodes first so the arena is allocated once, exactly.
        // Chunks ascend, so each node below the root shows up as one change
        // of its level's key (the VPN bits above what the node spans).
        let mut nodes = 1;
        let mut last_key = [u64::MAX; LEVELS - 1];
        for chunk in map.chunks() {
            for_each_run(chunk, use_huge_pages, |vpn, _, _, huge| {
                let deepest = if huge { LEVELS - 2 } else { LEVELS - 1 };
                for level in 1..=deepest {
                    let key = vpn.as_u64() >> (9 * (LEVELS - level));
                    if last_key[level - 1] != key {
                        last_key[level - 1] = key;
                        nodes += 1;
                    }
                }
            });
        }
        let mut pt = PageTable::with_capacity(nodes);
        for chunk in map.chunks() {
            for_each_run(chunk, use_huge_pages, |vpn, pfn, pages, huge| {
                if huge {
                    pt.map_huge(vpn, pfn, chunk.perms);
                } else {
                    pt.map_run(vpn, pfn, pages, chunk.perms);
                }
            });
        }
        pt
    }

    /// Arena index of the node at `level` on `vpn`'s path, allocating the
    /// missing directory nodes on the way down.
    ///
    /// # Panics
    ///
    /// Panics if a huge leaf above `level` already maps `vpn`.
    fn node_at(&mut self, vpn: VirtPageNum, level: usize) -> usize {
        let mut node = 0;
        for l in 0..level {
            let idx = index_at(vpn, l);
            let e = self.nodes[node][idx];
            assert!(!e.is_huge(), "page {vpn} already mapped by a huge leaf");
            node = if e.is_present() {
                child_of(e)
            } else {
                let child = self.nodes.len();
                self.nodes.push(EMPTY_NODE);
                self.nodes[node][idx] = PageTableEntry::new_table(PhysFrameNum::new(child as u64));
                child
            };
        }
        node
    }

    /// Maps `pages` 4 KB pages from `vpn` onto frames from `pfn`; the run
    /// must lie inside one PT node.
    fn map_run(&mut self, vpn: VirtPageNum, pfn: PhysFrameNum, pages: u64, perms: Permissions) {
        let node = self.node_at(vpn, LEVELS - 1);
        let first = index_at(vpn, LEVELS - 1);
        let run = &mut self.nodes[node][first..first + usize_from(pages)];
        for (e, i) in run.iter_mut().zip(0..pages) {
            assert!(!e.is_present(), "page {} already mapped", vpn + i);
            *e = PageTableEntry::new_leaf(pfn + i, perms);
        }
    }

    /// Maps one 4 KB page.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped (including under a huge leaf).
    pub fn map(&mut self, vpn: VirtPageNum, pfn: PhysFrameNum, perms: Permissions) {
        self.map_run(vpn, pfn, 1, perms);
    }

    /// Maps one 2 MB page at the PD level.
    ///
    /// # Panics
    ///
    /// Panics if `vpn`/`pfn` are not 2 MB-aligned or the slot is occupied.
    pub fn map_huge(&mut self, vpn: VirtPageNum, pfn: PhysFrameNum, perms: Permissions) {
        assert!(vpn.is_aligned(HUGE_PAGE_PAGES), "huge VPN must be 2MB-aligned");
        assert!(pfn.is_aligned(HUGE_PAGE_PAGES), "huge PFN must be 2MB-aligned");
        let node = self.node_at(vpn, LEVELS - 2);
        let e = &mut self.nodes[node][index_at(vpn, LEVELS - 2)];
        assert!(!e.is_present(), "2MB region at {vpn} already mapped");
        *e = PageTableEntry::new_huge_leaf(pfn, perms);
    }

    /// Maps one 1 GB page at the PDPT level.
    ///
    /// # Panics
    ///
    /// Panics if `vpn`/`pfn` are not 1 GB-aligned or the slot is occupied.
    pub fn map_giant(&mut self, vpn: VirtPageNum, pfn: PhysFrameNum, perms: Permissions) {
        assert!(vpn.is_aligned(GIANT_PAGE_PAGES), "giant VPN must be 1GB-aligned");
        assert!(pfn.is_aligned(GIANT_PAGE_PAGES), "giant PFN must be 1GB-aligned");
        let node = self.node_at(vpn, 1);
        let e = &mut self.nodes[node][index_at(vpn, 1)];
        assert!(!e.is_present(), "1GB region at {vpn} already mapped");
        *e = PageTableEntry::new_huge_leaf(pfn, perms);
    }

    /// Looks a VPN up, returning the leaf translation if mapped.
    #[must_use]
    pub fn lookup(&self, vpn: VirtPageNum) -> Option<LeafEntry> {
        self.descend(vpn).leaf
    }

    /// [`PageTable::lookup`] plus the number of page-table node accesses a
    /// hardware walker performs to resolve `vpn`: 4 for a 4 KB leaf, 3 for
    /// a 2 MB leaf, 2 for a 1 GB leaf, and however far it got before
    /// finding a hole for unmapped addresses. This is the walker's
    /// per-miss hot path.
    #[must_use]
    pub fn lookup_with_depth(&self, vpn: VirtPageNum) -> (Option<LeafEntry>, u32) {
        let d = self.descend(vpn);
        (d.leaf, d.depth)
    }

    /// [`PageTable::lookup_with_depth`] plus the 64-byte PTE cache block
    /// covering `vpn` at the PT (4 KB leaf) level, all from one radix
    /// traversal: the 8 entries for the aligned VPN group
    /// `[vpn & !7, vpn | 7]`, which a coalescing walker (CoLT / cluster
    /// TLB) inspects "for free" since the block arrives as one cache line.
    /// The block is `None` when the region has no PT node (unmapped or
    /// covered by a huge leaf).
    #[must_use]
    pub fn lookup_with_block(
        &self,
        vpn: VirtPageNum,
    ) -> (Option<LeafEntry>, u32, Option<&[PageTableEntry]>) {
        let d = self.descend(vpn);
        (d.leaf, d.depth, d.pt.map(|entries| block_of(entries, vpn)))
    }

    /// The one radix traversal behind every read: stops at the first
    /// non-present or huge entry, or at the PT node.
    fn descend(&self, vpn: VirtPageNum) -> Descent<'_> {
        let mut node = &self.nodes[0];
        for (level, depth) in (0..LEVELS - 1).zip(1..) {
            let e = node[index_at(vpn, level)];
            if !e.is_present() {
                return Descent { leaf: None, depth, pt: None };
            }
            if e.is_huge() {
                // PS bit at the PDPT level (1) = 1 GB leaf; at the PD level
                // (2) = 2 MB leaf.
                let size = if level == 1 { PageSize::Giant1G } else { PageSize::Huge2M };
                let leaf = LeafEntry {
                    head_vpn: vpn.align_down(size.base_pages()),
                    head_pfn: e.pfn(),
                    size,
                    perms: e.permissions(),
                };
                return Descent { leaf: Some(leaf), depth, pt: None };
            }
            node = &self.nodes[child_of(e)];
        }
        let e = node[index_at(vpn, LEVELS - 1)];
        let leaf = e.is_present().then(|| LeafEntry {
            head_vpn: vpn,
            head_pfn: e.pfn(),
            size: PageSize::Base4K,
            perms: e.permissions(),
        });
        Descent { leaf, depth: LEVELS as u32, pt: Some(node) }
    }

    /// The PT node covering `vpn`, if one exists.
    fn pt_node_mut(&mut self, vpn: VirtPageNum) -> Option<&mut Node> {
        let mut node = 0;
        for level in 0..LEVELS - 1 {
            let e = self.nodes[node][index_at(vpn, level)];
            if !e.is_present() || e.is_huge() {
                return None;
            }
            node = child_of(e);
        }
        Some(&mut self.nodes[node])
    }

    /// Reads the contiguity field anchored at `anchor_vpn`.
    ///
    /// For anchor distances ≥ 8 the field is distributed over the anchor's
    /// cache block; for smaller distances it lives in the anchor PTE's own
    /// 11 ignored bits. Returns `None` when no 4 KB PT node covers the
    /// anchor (e.g. the region is mapped by a 2 MB leaf or unmapped).
    #[must_use]
    // audit:allow(dead-pub): checked against the HashMap model in
    // crates/pagetable/tests/table_model.rs::page_table_matches_hashmap_model,
    // and the reference for `read_anchor` in
    // tests/property_invariants.rs::anchor_probe_matches_map.
    pub fn read_anchor_contiguity(&self, anchor_vpn: VirtPageNum, distance: u64) -> Option<u64> {
        let entries = self.descend(anchor_vpn).pt?;
        Some(anchor_contiguity(entries, anchor_vpn, distance))
    }

    /// [`PageTable::lookup`] of an anchor page and
    /// [`PageTable::read_anchor_contiguity`] from one radix traversal: the
    /// anchor's frame and contiguity field, or `None` unless a present 4 KB
    /// PTE maps `anchor_vpn`. This is the walker's anchor PTE fetch.
    #[must_use]
    pub fn read_anchor(
        &self,
        anchor_vpn: VirtPageNum,
        distance: u64,
    ) -> Option<(PhysFrameNum, u64)> {
        let d = self.descend(anchor_vpn);
        let (leaf, entries) = (d.leaf?, d.pt?);
        Some((leaf.head_pfn, anchor_contiguity(entries, anchor_vpn, distance)))
    }

    /// Writes the contiguity field anchored at `anchor_vpn`. Returns `false`
    /// when no 4 KB PT node covers the anchor.
    pub fn write_anchor_contiguity(
        &mut self,
        anchor_vpn: VirtPageNum,
        distance: u64,
        contiguity: u64,
    ) -> bool {
        let Some(entries) = self.pt_node_mut(anchor_vpn) else {
            return false;
        };
        let idx = index_at(anchor_vpn, LEVELS - 1);
        if distance >= PTES_PER_CACHE_BLOCK as u64 {
            let base = idx - idx % PTES_PER_CACHE_BLOCK;
            write_distributed_contiguity(
                &mut entries[base..base + PTES_PER_CACHE_BLOCK],
                contiguity,
            );
        } else {
            entries[idx].set_ignored_bits(contiguity.min((1 << crate::ANCHOR_BITS_PER_PTE) - 1));
        }
        true
    }
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;

    fn rw() -> Permissions {
        Permissions::READ_WRITE
    }

    #[test]
    fn unmapped_lookup_is_none() {
        let pt = PageTable::new();
        assert_eq!(pt.lookup(VirtPageNum::new(12345)), None);
        assert_eq!(pt.lookup_with_depth(VirtPageNum::new(12345)).1, 1);
    }

    #[test]
    fn map_and_lookup_4k() {
        let mut pt = PageTable::new();
        let vpn = VirtPageNum::new(0x0000_7f40_0000);
        pt.map(vpn, PhysFrameNum::new(42), rw());
        let leaf = pt.lookup(vpn).unwrap();
        assert_eq!(leaf.head_pfn, PhysFrameNum::new(42));
        assert_eq!(leaf.size, PageSize::Base4K);
        assert_eq!(leaf.pfn_for(vpn), PhysFrameNum::new(42));
        assert_eq!(pt.lookup_with_depth(vpn).1, 4);
    }

    #[test]
    fn map_and_lookup_huge() {
        let mut pt = PageTable::new();
        let head = VirtPageNum::new(512 * 7);
        pt.map_huge(head, PhysFrameNum::new(512 * 3), rw());
        let inner = head + 100;
        let leaf = pt.lookup(inner).unwrap();
        assert_eq!(leaf.size, PageSize::Huge2M);
        assert_eq!(leaf.head_vpn, head);
        assert_eq!(leaf.pfn_for(inner), PhysFrameNum::new(512 * 3 + 100));
        assert_eq!(pt.lookup_with_depth(inner).1, 3);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(1), PhysFrameNum::new(1), rw());
        pt.map(VirtPageNum::new(1), PhysFrameNum::new(2), rw());
    }

    #[test]
    #[should_panic(expected = "2MB-aligned")]
    fn misaligned_huge_map_panics() {
        let mut pt = PageTable::new();
        pt.map_huge(VirtPageNum::new(5), PhysFrameNum::new(512), rw());
    }

    #[test]
    fn from_map_with_thp_installs_huge_leaves() {
        let mut map = AddressSpaceMap::new();
        map.map_range(VirtPageNum::new(512), PhysFrameNum::new(1024), 512, rw());
        map.map_range(VirtPageNum::new(2048), PhysFrameNum::new(4097), 100, rw());
        let pt = PageTable::from_map(&map, true);
        assert_eq!(pt.lookup(VirtPageNum::new(700)).unwrap().size, PageSize::Huge2M);
        assert_eq!(pt.lookup(VirtPageNum::new(2050)).unwrap().size, PageSize::Base4K);
    }

    #[test]
    fn from_map_without_thp_is_all_base_pages() {
        let mut map = AddressSpaceMap::new();
        map.map_range(VirtPageNum::new(512), PhysFrameNum::new(1024), 512, rw());
        let pt = PageTable::from_map(&map, false);
        for (vpn, _) in map.iter_pages() {
            assert_eq!(pt.lookup(vpn).unwrap().size, PageSize::Base4K, "{vpn}");
        }
    }

    #[test]
    fn from_map_translations_match_map() {
        let mut any_huge = false;
        for scenario in Scenario::all() {
            let map = scenario.generate(1 << 14, 3);
            for thp in [false, true] {
                let pt = PageTable::from_map(&map, thp);
                for (vpn, pfn) in map.iter_pages() {
                    let leaf = pt.lookup(vpn).unwrap_or_else(|| panic!("{scenario}: {vpn}"));
                    assert_eq!(leaf.pfn_for(vpn), pfn, "{scenario} (THP {thp}) at {vpn}");
                    let huge = thp && map.huge_page_at(vpn).is_some();
                    let size = if huge { PageSize::Huge2M } else { PageSize::Base4K };
                    assert_eq!(leaf.size, size, "{scenario} (THP {thp}) at {vpn}");
                    any_huge |= huge;
                }
            }
        }
        assert!(any_huge, "no scenario exercised 2 MB leaves");
    }

    #[test]
    fn from_map_sizes_the_arena_exactly() {
        for scenario in Scenario::all() {
            let map = scenario.generate(1 << 14, 5);
            for thp in [false, true] {
                let pt = PageTable::from_map(&map, thp);
                assert_eq!(pt.nodes.len(), pt.nodes.capacity(), "{scenario} (THP {thp})");
            }
        }
    }

    #[test]
    fn fused_probe_agrees_with_lookup_and_carries_the_leaf_block() {
        let map = Scenario::MediumContiguity.generate(4096, 9);
        let pt = PageTable::from_map(&map, true);
        // Mapped pages, their neighbours (often unmapped holes), and a few
        // far-out unmapped addresses.
        let probes = map
            .iter_pages()
            .map(|(vpn, _)| vpn)
            .flat_map(|vpn| [vpn, vpn + 1])
            .chain([VirtPageNum::new(0), VirtPageNum::new(1 << 30)]);
        for vpn in probes {
            let (leaf, depth, block) = pt.lookup_with_block(vpn);
            assert_eq!((leaf, depth), pt.lookup_with_depth(vpn), "{vpn}");
            assert_eq!(leaf, pt.lookup(vpn), "{vpn}");
            // A 4 KB leaf comes with its own PTE in the block; a huge leaf
            // or a hole above the PT level comes with none.
            let own_pfn = block
                .map(|b| b[vpn.offset_within(8) as usize])
                .filter(|e| e.is_present())
                .map(|e| e.pfn());
            match leaf {
                Some(l) if l.size == PageSize::Base4K => {
                    assert_eq!(own_pfn, Some(l.head_pfn), "{vpn}")
                }
                Some(_) => assert!(block.is_none(), "{vpn}"),
                None => assert_eq!(own_pfn, None, "{vpn}"),
            }
        }
        let mut giant = PageTable::new();
        giant.map_giant(VirtPageNum::new(0), PhysFrameNum::new(0), rw());
        let vpn = VirtPageNum::new(77);
        assert_eq!(giant.lookup_with_depth(vpn), (giant.lookup(vpn), 2));
    }

    #[test]
    fn anchor_contiguity_roundtrip_large_distance() {
        let mut pt = PageTable::new();
        for i in 0..16 {
            pt.map(VirtPageNum::new(i), PhysFrameNum::new(100 + i), rw());
        }
        assert!(pt.write_anchor_contiguity(VirtPageNum::new(0), 8, 12_345));
        assert_eq!(pt.read_anchor_contiguity(VirtPageNum::new(0), 8), Some(12_345));
        assert!(pt.write_anchor_contiguity(VirtPageNum::new(8), 8, 3));
        assert_eq!(pt.read_anchor_contiguity(VirtPageNum::new(8), 8), Some(3));
    }

    #[test]
    fn anchor_contiguity_small_distance_uses_own_pte() {
        let mut pt = PageTable::new();
        for i in 0..8 {
            pt.map(VirtPageNum::new(i), PhysFrameNum::new(100 + i), rw());
        }
        for anchor in (0..8).step_by(4) {
            assert!(pt.write_anchor_contiguity(VirtPageNum::new(anchor), 4, anchor + 1));
        }
        assert_eq!(pt.read_anchor_contiguity(VirtPageNum::new(0), 4), Some(1));
        assert_eq!(pt.read_anchor_contiguity(VirtPageNum::new(4), 4), Some(5));
    }

    #[test]
    fn anchor_contiguity_unmapped_region_is_none() {
        let pt = PageTable::new();
        assert_eq!(pt.read_anchor_contiguity(VirtPageNum::new(0), 8), None);
        let mut pt = pt;
        assert!(!pt.write_anchor_contiguity(VirtPageNum::new(0), 8, 5));
    }

    #[test]
    fn anchor_contiguity_under_huge_leaf_is_none() {
        let mut pt = PageTable::new();
        pt.map_huge(VirtPageNum::new(0), PhysFrameNum::new(0), rw());
        assert_eq!(pt.read_anchor_contiguity(VirtPageNum::new(0), 8), None);
    }
}
