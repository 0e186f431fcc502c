//! A process's virtual→physical mapping, stored as maximally-merged chunks.
//!
//! A *chunk* is a run of virtual pages mapped to physically contiguous
//! frames with uniform permissions — exactly the unit of contiguity every
//! coalescing scheme in the paper exploits. Keeping the map in merged-chunk
//! form makes the contiguity histogram (paper §4.1) a trivial scan and keeps
//! translation `O(log chunks)`.

use hytlb_types::{
    Permissions, PhysFrameNum, VirtAddr, VirtPageNum, GIANT_PAGE_PAGES, HUGE_PAGE_PAGES,
    PAGE_SIZE_U64,
};
use std::collections::BTreeMap;

/// Mappings at or below this many pages get a flat logical-index→VPN table
/// in their [`PageIndex`] (8 bytes/page, so ≤512 KB per index), replacing
/// the per-access binary search with a single array load.
const FLAT_TABLE_LIMIT: u64 = 1 << 16;

/// One maximal run of contiguously-mapped pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MapChunk {
    /// First virtual page of the run.
    pub vpn: VirtPageNum,
    /// Frame backing `vpn`; page `vpn + i` is backed by `pfn + i`.
    pub pfn: PhysFrameNum,
    /// Length of the run in 4 KB pages.
    pub len: u64,
    /// Permissions shared by every page of the run.
    pub perms: Permissions,
}

impl MapChunk {
    /// `true` if `vpn` lies inside this chunk.
    #[must_use]
    pub fn contains(&self, vpn: VirtPageNum) -> bool {
        vpn >= self.vpn && (vpn - self.vpn) < self.len
    }

    /// Frame backing `vpn`, or `None` if outside the chunk.
    #[must_use]
    pub fn translate(&self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        self.contains(vpn).then(|| self.pfn + (vpn - self.vpn))
    }

    /// One-past-the-end virtual page.
    #[must_use]
    pub fn end_vpn(&self) -> VirtPageNum {
        self.vpn + self.len
    }
}

/// A virtual address space's page mapping.
///
/// Invariants: chunks are disjoint in virtual space, sorted by `vpn`, and
/// maximally merged (no two adjacent chunks are contiguous in both address
/// spaces with equal permissions).
///
/// # Examples
///
/// ```
/// use hytlb_mem::AddressSpaceMap;
/// use hytlb_types::{Permissions, PhysFrameNum, VirtPageNum};
///
/// let mut map = AddressSpaceMap::new();
/// map.map_range(VirtPageNum::new(0), PhysFrameNum::new(100), 4, Permissions::READ_WRITE);
/// map.map_range(VirtPageNum::new(4), PhysFrameNum::new(104), 4, Permissions::READ_WRITE);
/// // The two ranges merge into one 8-page chunk.
/// assert_eq!(map.chunks().count(), 1);
/// assert_eq!(map.translate(VirtPageNum::new(5)), Some(PhysFrameNum::new(105)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AddressSpaceMap {
    /// Keyed by starting VPN.
    chunks: BTreeMap<u64, MapChunk>,
    mapped_pages: u64,
}

impl AddressSpaceMap {
    /// Creates an empty address space.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mapped 4 KB pages.
    #[must_use]
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Footprint in bytes.
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.mapped_pages * hytlb_types::PAGE_SIZE_U64
    }

    /// Iterates over the maximal chunks in ascending virtual order.
    pub fn chunks(&self) -> impl Iterator<Item = &MapChunk> {
        self.chunks.values()
    }

    /// Number of maximal chunks.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Maps `len` pages at `vpn` to frames starting at `pfn`, merging with
    /// adjacent chunks when virtually *and* physically contiguous with equal
    /// permissions.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or if any page of the range is already mapped —
    /// the OS models in this workspace never double-map, so a double map is
    /// a bug, not a recoverable condition.
    pub fn map_range(&mut self, vpn: VirtPageNum, pfn: PhysFrameNum, len: u64, perms: Permissions) {
        assert!(len > 0, "cannot map an empty range");
        assert!(!self.overlaps(vpn, len), "double map at {vpn} (+{len} pages)");
        let mut chunk = MapChunk { vpn, pfn, len, perms };
        // Merge with predecessor.
        if let Some((&pk, &prev)) = self.chunks.range(..vpn.as_u64()).next_back() {
            if prev.end_vpn() == chunk.vpn
                && prev.pfn + prev.len == chunk.pfn
                && prev.perms == chunk.perms
            {
                self.chunks.remove(&pk);
                chunk = MapChunk { vpn: prev.vpn, pfn: prev.pfn, len: prev.len + chunk.len, perms };
            }
        }
        // Merge with successor.
        if let Some((&nk, &next)) = self.chunks.range(chunk.end_vpn().as_u64()..).next() {
            if chunk.end_vpn() == next.vpn
                && chunk.pfn + chunk.len == next.pfn
                && chunk.perms == next.perms
            {
                self.chunks.remove(&nk);
                chunk.len += next.len;
            }
        }
        self.chunks.insert(chunk.vpn.as_u64(), chunk);
        self.mapped_pages += len;
    }

    /// Unmaps `len` pages starting at `vpn`, splitting chunks as needed.
    /// Pages in the range that are not mapped are ignored.
    pub fn unmap_range(&mut self, vpn: VirtPageNum, len: u64) {
        let end = vpn + len;
        // Collect affected chunk keys first to keep the borrow checker happy.
        let keys: Vec<u64> = self
            .chunks
            .range(..end.as_u64())
            .rev()
            .take_while(|(_, c)| c.end_vpn() > vpn)
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            let c = self.chunks.remove(&k).expect("key just collected");
            self.mapped_pages -= c.len;
            // Left remainder.
            if c.vpn < vpn {
                let keep = vpn - c.vpn;
                self.chunks.insert(
                    c.vpn.as_u64(),
                    MapChunk { vpn: c.vpn, pfn: c.pfn, len: keep, perms: c.perms },
                );
                self.mapped_pages += keep;
            }
            // Right remainder.
            if c.end_vpn() > end {
                let keep = c.end_vpn() - end;
                let off = end - c.vpn;
                self.chunks.insert(
                    end.as_u64(),
                    MapChunk { vpn: end, pfn: c.pfn + off, len: keep, perms: c.perms },
                );
                self.mapped_pages += keep;
            }
        }
    }

    /// `true` if any page in `[vpn, vpn+len)` is mapped.
    #[must_use]
    pub fn overlaps(&self, vpn: VirtPageNum, len: u64) -> bool {
        let end = vpn + len;
        self.chunks.range(..end.as_u64()).next_back().is_some_and(|(_, c)| c.end_vpn() > vpn)
    }

    /// The chunk containing `vpn`, if mapped.
    #[must_use]
    pub fn chunk_containing(&self, vpn: VirtPageNum) -> Option<&MapChunk> {
        self.chunks.range(..=vpn.as_u64()).next_back().map(|(_, c)| c).filter(|c| c.contains(vpn))
    }

    /// [`AddressSpaceMap::chunk_containing`] with a last-chunk cache over the
    /// `BTreeMap`: the tree search is skipped whenever `vpn` falls inside the
    /// chunk the cursor resolved last. Walk paths show strong chunk locality
    /// (a chunk covers up to thousands of pages), so most lookups hit.
    ///
    /// The cursor must only ever be reused against the same, unmodified map
    /// that filled it; mutating the map invalidates any outstanding cursor.
    #[must_use]
    pub fn chunk_containing_with(
        &self,
        vpn: VirtPageNum,
        cursor: &mut ChunkCursor,
    ) -> Option<MapChunk> {
        if let Some(c) = cursor.last {
            if c.contains(vpn) {
                return Some(c);
            }
        }
        let found = self.chunk_containing(vpn).copied();
        if let Some(c) = found {
            cursor.last = Some(c);
        }
        found
    }

    /// [`AddressSpaceMap::huge_page_at`] through a [`ChunkCursor`], for walk
    /// paths that probe huge-page candidacy on every TLB refill.
    #[must_use]
    pub fn huge_page_at_with(
        &self,
        vpn: VirtPageNum,
        cursor: &mut ChunkCursor,
    ) -> Option<VirtPageNum> {
        let head = vpn.align_down(HUGE_PAGE_PAGES);
        huge_head_in(&self.chunk_containing_with(head, cursor)?, head)
    }

    /// Translates a virtual page to its backing frame.
    #[must_use]
    pub fn translate(&self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        self.chunk_containing(vpn).and_then(|c| c.translate(vpn))
    }

    /// Permissions of the page at `vpn`, if mapped.
    #[must_use]
    pub fn permissions(&self, vpn: VirtPageNum) -> Option<Permissions> {
        self.chunk_containing(vpn).map(|c| c.perms)
    }

    /// Number of pages mapped contiguously (in both address spaces) starting
    /// at `vpn` — i.e. the remaining length of `vpn`'s chunk. This is what
    /// an anchor PTE at `vpn` would record as its contiguity.
    #[must_use]
    pub fn contiguity_at(&self, vpn: VirtPageNum) -> u64 {
        self.chunk_containing(vpn).map_or(0, |c| c.len - (vpn - c.vpn))
    }

    /// If `vpn` lies inside a mapping usable as an x86-64 2 MB page —
    /// a 2 MB-aligned virtual region fully backed by a 2 MB-aligned
    /// physically-contiguous run — returns the first VPN of that huge page.
    #[must_use]
    pub fn huge_page_at(&self, vpn: VirtPageNum) -> Option<VirtPageNum> {
        let head = vpn.align_down(HUGE_PAGE_PAGES);
        huge_head_in(self.chunk_containing(head)?, head)
    }

    /// Like [`AddressSpaceMap::huge_page_at`] for x86-64 1 GB giant pages:
    /// the 1 GB-aligned virtual region around `vpn` must be fully backed by
    /// one 1 GB-aligned physically-contiguous run.
    #[must_use]
    pub fn giant_page_at(&self, vpn: VirtPageNum) -> Option<VirtPageNum> {
        let head = vpn.align_down(GIANT_PAGE_PAGES);
        let c = self.chunk_containing(head)?;
        if c.end_vpn() < head + GIANT_PAGE_PAGES {
            return None;
        }
        let head_pfn = c.translate(head).expect("head inside chunk");
        head_pfn.is_aligned(GIANT_PAGE_PAGES).then_some(head)
    }

    /// Iterates over every mapped `(vpn, pfn)` pair. Intended for tests and
    /// page-table construction; cost is `O(mapped_pages)`.
    pub fn iter_pages(&self) -> impl Iterator<Item = (VirtPageNum, PhysFrameNum)> + '_ {
        self.chunks.values().flat_map(|c| (0..c.len).map(move |i| (c.vpn + i, c.pfn + i)))
    }

    /// Builds an index for O(log chunks) lookup of the *i-th mapped page*.
    /// Workload traces address pages by logical index `[0, mapped_pages)`;
    /// the indexer places them onto whatever virtual layout the scenario
    /// produced (including layouts with holes).
    #[must_use]
    pub fn page_index(&self) -> PageIndex {
        let mut cumulative = Vec::with_capacity(self.chunks.len());
        let mut acc = 0u64;
        for c in self.chunks.values() {
            cumulative.push((acc, c.vpn));
            acc += c.len;
        }
        let flat = (acc <= FLAT_TABLE_LIMIT).then(|| {
            let pages = usize::try_from(acc).expect("flat table bounded by FLAT_TABLE_LIMIT");
            let mut table = Vec::with_capacity(pages);
            for c in self.chunks.values() {
                table.extend((0..c.len).map(|i| c.vpn + i));
            }
            table
        });
        PageIndex { cumulative, flat, total: acc }
    }
}

/// `head` when the 2 MB region starting at the 2 MB-aligned `head` lies
/// inside the single maximal chunk `c` and is backed by a 2 MB-aligned
/// frame run: the x86-64 huge-page shape.
fn huge_head_in(c: &MapChunk, head: VirtPageNum) -> Option<VirtPageNum> {
    if c.end_vpn() < head + HUGE_PAGE_PAGES {
        return None;
    }
    c.translate(head)?.is_aligned(HUGE_PAGE_PAGES).then_some(head)
}

/// Memento for [`AddressSpaceMap::chunk_containing_with`]: caches the last
/// chunk a lookup resolved so runs of lookups inside one chunk skip the
/// `BTreeMap` search entirely. `Default` starts empty (first lookup always
/// searches). Only meaningful against the map that filled it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkCursor {
    last: Option<MapChunk>,
}

/// An immutable, sorted copy of the chunks of an [`AddressSpaceMap`] that
/// are at least `min_len` pages long, for miss paths that only ever act on
/// long chunks (a range-TLB refill, a 2 MB-shape check). A lookup is a
/// binary search over a flat slice that is empty or tiny on most mappings,
/// instead of a search of the whole map's `BTreeMap`.
///
/// Built once from a map that is never mutated afterwards; it does not
/// follow later changes to the map.
///
/// # Examples
///
/// ```
/// use hytlb_mem::{AddressSpaceMap, ChunkTable};
/// use hytlb_types::{Permissions, PhysFrameNum, VirtPageNum};
///
/// let mut map = AddressSpaceMap::new();
/// map.map_range(VirtPageNum::new(0), PhysFrameNum::new(100), 4, Permissions::READ_WRITE);
/// map.map_range(VirtPageNum::new(8), PhysFrameNum::new(200), 16, Permissions::READ_WRITE);
/// let long = ChunkTable::with_min_len(&map, 8);
/// assert_eq!(long.len(), 1);
/// assert_eq!(long.chunk_containing(VirtPageNum::new(2)), None); // chunk too short
/// assert_eq!(long.chunk_containing(VirtPageNum::new(9)).map(|c| c.len), Some(16));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChunkTable {
    /// Ascending by `vpn`, disjoint (a subsequence of the map's chunks).
    chunks: Box<[MapChunk]>,
    min_len: u64,
}

impl ChunkTable {
    /// Copies every chunk of `map` with `len >= min_len`.
    #[must_use]
    pub fn with_min_len(map: &AddressSpaceMap, min_len: u64) -> Self {
        ChunkTable { chunks: map.chunks().filter(|c| c.len >= min_len).copied().collect(), min_len }
    }

    /// Number of chunks held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// `true` when no chunk of the map was long enough.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The held chunk containing `vpn`: equal to
    /// [`AddressSpaceMap::chunk_containing`] filtered by `len >= min_len`.
    #[must_use]
    pub fn chunk_containing(&self, vpn: VirtPageNum) -> Option<MapChunk> {
        let after = self.chunks.partition_point(|c| c.vpn <= vpn);
        let c = *self.chunks.get(after.checked_sub(1)?)?;
        c.contains(vpn).then_some(c)
    }

    /// [`AddressSpaceMap::huge_page_at`] answered from this table. A 2 MB
    /// page needs a chunk of at least 512 pages, so the answers agree
    /// whenever `min_len <= HUGE_PAGE_PAGES`.
    #[must_use]
    pub fn huge_page_at(&self, vpn: VirtPageNum) -> Option<VirtPageNum> {
        debug_assert!(self.min_len <= HUGE_PAGE_PAGES, "table drops huge-page-sized chunks");
        let head = vpn.align_down(HUGE_PAGE_PAGES);
        huge_head_in(&self.chunk_containing(head)?, head)
    }
}

/// Maps logical page indices to virtual page numbers of a specific
/// [`AddressSpaceMap`]. See [`AddressSpaceMap::page_index`].
#[derive(Debug, Clone)]
pub struct PageIndex {
    /// `(first_logical_index, chunk_start_vpn)` per chunk, ascending.
    cumulative: Vec<(u64, VirtPageNum)>,
    /// Direct logical-index→VPN table, present only for mappings of at most
    /// [`FLAT_TABLE_LIMIT`] pages.
    flat: Option<Vec<VirtPageNum>>,
    total: u64,
}

/// MRU-chunk memento for [`PageIndex::nth_page_with`]: remembers the
/// cumulative-table slot of the last lookup so consecutive accesses inside
/// one chunk skip the binary search. `Default` starts at slot 0. Only
/// meaningful against the index that filled it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageCursor {
    pos: usize,
}

impl PageIndex {
    /// Number of mapped pages (valid indices are `0..len()`).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` for an empty mapping.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The VPN of the `i`-th mapped page.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn nth_page(&self, i: u64) -> VirtPageNum {
        assert!(i < self.total, "page index {i} out of {}", self.total);
        let pos = self.cumulative.partition_point(|&(first, _)| first <= i) - 1;
        let (first, vpn) = self.cumulative[pos];
        vpn + (i - first)
    }

    /// [`PageIndex::nth_page`] with an MRU-chunk cursor: when `i` lands in
    /// the same chunk as the previous lookup the binary search is skipped.
    /// Agrees with `nth_page` on every input (the cursor only changes which
    /// slot is *tried first*, never the result).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn nth_page_with(&self, i: u64, cursor: &mut PageCursor) -> VirtPageNum {
        assert!(i < self.total, "page index {i} out of {}", self.total);
        let pos = if self.slot_covers(cursor.pos, i) {
            cursor.pos
        } else {
            let found = self.cumulative.partition_point(|&(first, _)| first <= i) - 1;
            cursor.pos = found;
            found
        };
        let (first, vpn) = self.cumulative[pos];
        vpn + (i - first)
    }

    /// `true` if cumulative slot `pos` exists and covers logical index `i`.
    fn slot_covers(&self, pos: usize, i: u64) -> bool {
        match self.cumulative.get(pos) {
            Some(&(first, _)) => {
                first <= i
                    && self.cumulative.get(pos + 1).map_or(i < self.total, |&(next, _)| i < next)
            }
            None => false,
        }
    }

    /// `true` when this index carries the flat logical-index→VPN table
    /// (small mappings only; see [`PageIndex::resolve`]).
    #[must_use]
    pub fn has_flat_table(&self) -> bool {
        self.flat.is_some()
    }

    /// Resolves a trace of *logical* byte addresses (the representation
    /// workload generators emit) into virtual addresses of this mapping, in
    /// one pass. Element-for-element identical to the per-address placement
    /// math (`page = logical / 4096`, VPN via `nth_page`, byte offset
    /// preserved), but uses the flat table when present and the MRU-chunk
    /// cursor otherwise. This is how the simulation engine places every
    /// logical trace.
    ///
    /// # Panics
    ///
    /// Panics if any logical address addresses a page `>= len()`, exactly
    /// like [`PageIndex::nth_page`].
    #[must_use]
    pub fn resolve(&self, logical: &[u64]) -> Vec<VirtAddr> {
        let mut out = Vec::with_capacity(logical.len());
        if let Some(flat) = &self.flat {
            for &addr in logical {
                let page = addr / PAGE_SIZE_U64;
                let offset = addr % PAGE_SIZE_U64;
                assert!(page < self.total, "page index {page} out of {}", self.total);
                let idx = usize::try_from(page).expect("flat table bounded by FLAT_TABLE_LIMIT");
                out.push(VirtAddr::new(flat[idx].base_addr().as_u64() + offset));
            }
        } else {
            let mut cursor = PageCursor::default();
            for &addr in logical {
                let page = addr / PAGE_SIZE_U64;
                let offset = addr % PAGE_SIZE_U64;
                let vpn = self.nth_page_with(page, &mut cursor);
                out.push(VirtAddr::new(vpn.base_addr().as_u64() + offset));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw() -> Permissions {
        Permissions::READ_WRITE
    }

    #[test]
    fn empty_map_translates_nothing() {
        let m = AddressSpaceMap::new();
        assert_eq!(m.translate(VirtPageNum::new(0)), None);
        assert_eq!(m.mapped_pages(), 0);
        assert_eq!(m.contiguity_at(VirtPageNum::new(5)), 0);
    }

    #[test]
    fn basic_map_and_translate() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(10), PhysFrameNum::new(50), 5, rw());
        assert_eq!(m.translate(VirtPageNum::new(12)), Some(PhysFrameNum::new(52)));
        assert_eq!(m.translate(VirtPageNum::new(9)), None);
        assert_eq!(m.translate(VirtPageNum::new(15)), None);
        assert_eq!(m.mapped_pages(), 5);
        assert_eq!(m.permissions(VirtPageNum::new(10)), Some(rw()));
    }

    #[test]
    fn adjacent_contiguous_ranges_merge() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(100), 4, rw());
        m.map_range(VirtPageNum::new(8), PhysFrameNum::new(108), 4, rw());
        m.map_range(VirtPageNum::new(4), PhysFrameNum::new(104), 4, rw());
        assert_eq!(m.chunk_count(), 1);
        assert_eq!(m.contiguity_at(VirtPageNum::new(0)), 12);
        assert_eq!(m.contiguity_at(VirtPageNum::new(11)), 1);
    }

    #[test]
    fn physically_discontiguous_ranges_do_not_merge() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(100), 4, rw());
        m.map_range(VirtPageNum::new(4), PhysFrameNum::new(200), 4, rw());
        assert_eq!(m.chunk_count(), 2);
        assert_eq!(m.contiguity_at(VirtPageNum::new(2)), 2);
    }

    #[test]
    fn permission_boundaries_break_merging() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(100), 4, rw());
        m.map_range(VirtPageNum::new(4), PhysFrameNum::new(104), 4, Permissions::READ);
        assert_eq!(m.chunk_count(), 2);
    }

    #[test]
    #[should_panic(expected = "double map")]
    fn double_map_panics() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(0), 4, rw());
        m.map_range(VirtPageNum::new(3), PhysFrameNum::new(10), 1, rw());
    }

    #[test]
    fn unmap_middle_splits_chunk() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(100), 10, rw());
        m.unmap_range(VirtPageNum::new(4), 2);
        assert_eq!(m.chunk_count(), 2);
        assert_eq!(m.mapped_pages(), 8);
        assert_eq!(m.translate(VirtPageNum::new(4)), None);
        assert_eq!(m.translate(VirtPageNum::new(6)), Some(PhysFrameNum::new(106)));
        assert_eq!(m.contiguity_at(VirtPageNum::new(0)), 4);
        assert_eq!(m.contiguity_at(VirtPageNum::new(6)), 4);
    }

    #[test]
    fn unmap_spanning_multiple_chunks() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(100), 4, rw());
        m.map_range(VirtPageNum::new(4), PhysFrameNum::new(200), 4, rw());
        m.map_range(VirtPageNum::new(8), PhysFrameNum::new(300), 4, rw());
        m.unmap_range(VirtPageNum::new(2), 8);
        assert_eq!(m.mapped_pages(), 4);
        assert_eq!(m.translate(VirtPageNum::new(1)), Some(PhysFrameNum::new(101)));
        assert_eq!(m.translate(VirtPageNum::new(5)), None);
        assert_eq!(m.translate(VirtPageNum::new(10)), Some(PhysFrameNum::new(302)));
    }

    #[test]
    fn unmap_unmapped_range_is_noop() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(10), PhysFrameNum::new(0), 2, rw());
        m.unmap_range(VirtPageNum::new(0), 5);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn huge_page_detection_requires_alignment_in_both_spaces() {
        let mut m = AddressSpaceMap::new();
        // VA region [512, 1024) backed by PA [1024, 1536): both 2MB-aligned.
        m.map_range(VirtPageNum::new(512), PhysFrameNum::new(1024), 512, rw());
        assert_eq!(m.huge_page_at(VirtPageNum::new(700)), Some(VirtPageNum::new(512)));
        // VA [2048, 2560) backed by misaligned PA.
        m.map_range(VirtPageNum::new(2048), PhysFrameNum::new(4097), 512, rw());
        assert_eq!(m.huge_page_at(VirtPageNum::new(2100)), None);
        // Aligned but short run.
        m.map_range(VirtPageNum::new(4096), PhysFrameNum::new(8192), 511, rw());
        assert_eq!(m.huge_page_at(VirtPageNum::new(4100)), None);
    }

    #[test]
    fn huge_page_inside_larger_chunk() {
        let mut m = AddressSpaceMap::new();
        // 4 MB chunk aligned in both spaces: both 2 MB halves are huge pages.
        m.map_range(VirtPageNum::new(1024), PhysFrameNum::new(2048), 1024, rw());
        assert_eq!(m.huge_page_at(VirtPageNum::new(1024)), Some(VirtPageNum::new(1024)));
        assert_eq!(m.huge_page_at(VirtPageNum::new(1600)), Some(VirtPageNum::new(1536)));
    }

    #[test]
    fn page_index_covers_holes() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(10), PhysFrameNum::new(0), 3, rw());
        m.map_range(VirtPageNum::new(100), PhysFrameNum::new(50), 2, rw());
        let idx = m.page_index();
        assert_eq!(idx.len(), 5);
        assert!(!idx.is_empty());
        assert_eq!(idx.nth_page(0), VirtPageNum::new(10));
        assert_eq!(idx.nth_page(2), VirtPageNum::new(12));
        assert_eq!(idx.nth_page(3), VirtPageNum::new(100));
        assert_eq!(idx.nth_page(4), VirtPageNum::new(101));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn page_index_rejects_out_of_range() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(0), 1, rw());
        let _ = m.page_index().nth_page(1);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn page_index_rejects_far_out_of_range() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(0), 8, rw());
        let _ = m.page_index().nth_page(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn empty_page_index_rejects_zero() {
        let _ = AddressSpaceMap::new().page_index().nth_page(0);
    }

    #[test]
    fn page_index_chunk_seam_boundaries() {
        // Chunks of different lengths, including a single-page one: the
        // exact first/last logical index of each chunk is where the
        // partition-point lookup changes cells.
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(10), PhysFrameNum::new(0), 4, rw()); // logical 0..=3
        m.map_range(VirtPageNum::new(20), PhysFrameNum::new(100), 1, rw()); // logical 4
        m.map_range(VirtPageNum::new(30), PhysFrameNum::new(200), 3, rw()); // logical 5..=7
        let idx = m.page_index();
        assert_eq!(idx.len(), 8);
        assert_eq!(idx.nth_page(0), VirtPageNum::new(10)); // first page of first chunk
        assert_eq!(idx.nth_page(3), VirtPageNum::new(13)); // last page before a seam
        assert_eq!(idx.nth_page(4), VirtPageNum::new(20)); // the single-page chunk
        assert_eq!(idx.nth_page(5), VirtPageNum::new(30)); // first page after a seam
        assert_eq!(idx.nth_page(7), VirtPageNum::new(32)); // last valid index
    }

    #[test]
    fn page_index_matches_iter_pages_exhaustively() {
        // Seams produced by merging and unmapping, not just fresh ranges.
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(100), 6, rw());
        m.map_range(VirtPageNum::new(6), PhysFrameNum::new(106), 6, rw()); // merges
        m.unmap_range(VirtPageNum::new(4), 3); // splits the merged chunk
        m.map_range(VirtPageNum::new(40), PhysFrameNum::new(500), 2, rw());
        let idx = m.page_index();
        assert_eq!(idx.len(), m.mapped_pages());
        for (i, (vpn, _)) in m.iter_pages().enumerate() {
            assert_eq!(idx.nth_page(i as u64), vpn, "logical index {i}");
        }
    }

    #[test]
    fn cursor_lookup_matches_plain_nth_page() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(10), PhysFrameNum::new(0), 4, rw());
        m.map_range(VirtPageNum::new(20), PhysFrameNum::new(100), 1, rw());
        m.map_range(VirtPageNum::new(30), PhysFrameNum::new(200), 3, rw());
        let idx = m.page_index();
        let mut cursor = PageCursor::default();
        // Forward, backward, and seam-hopping patterns all agree.
        for &i in &[0u64, 1, 2, 3, 4, 5, 6, 7, 7, 0, 4, 3, 5, 2, 6, 1] {
            assert_eq!(idx.nth_page_with(i, &mut cursor), idx.nth_page(i), "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn cursor_lookup_rejects_out_of_range() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(0), 2, rw());
        let idx = m.page_index();
        let _ = idx.nth_page_with(2, &mut PageCursor::default());
    }

    #[test]
    fn resolve_matches_scalar_placement_math() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(10), PhysFrameNum::new(0), 4, rw());
        m.map_range(VirtPageNum::new(100), PhysFrameNum::new(50), 4, rw());
        let idx = m.page_index();
        assert!(idx.has_flat_table());
        let logical: Vec<u64> =
            vec![0, 4095, 4096, 3 * 4096 + 17, 7 * 4096 + 4095, 5 * 4096, 4096 + 1];
        let vas = idx.resolve(&logical);
        for (&l, &va) in logical.iter().zip(&vas) {
            let vpn = idx.nth_page(l / PAGE_SIZE_U64);
            let expect = VirtAddr::new(vpn.base_addr().as_u64() + l % PAGE_SIZE_U64);
            assert_eq!(va, expect, "logical {l:#x}");
        }
    }

    #[test]
    fn resolve_agrees_with_and_without_flat_table() {
        // Build a mapping just above the flat-table limit, then compare the
        // cursor path against the same layout's nth_page answers.
        let mut m = AddressSpaceMap::new();
        let mut vpn = 0u64;
        let mut pfn = 0u64;
        let mut remaining = FLAT_TABLE_LIMIT + 7;
        let mut len = 3u64;
        while remaining > 0 {
            let take = len.min(remaining);
            m.map_range(VirtPageNum::new(vpn), PhysFrameNum::new(pfn), take, rw());
            vpn += take + 1; // leave a hole so chunks never merge
            pfn += take + 7;
            remaining -= take;
            len = (len * 5 + 1) % 900 + 1;
        }
        let idx = m.page_index();
        assert!(!idx.has_flat_table());
        let logical: Vec<u64> =
            (0..idx.len()).step_by(97).map(|p| p * PAGE_SIZE_U64 + p % PAGE_SIZE_U64).collect();
        let vas = idx.resolve(&logical);
        for (&l, &va) in logical.iter().zip(&vas) {
            let vpn = idx.nth_page(l / PAGE_SIZE_U64);
            let expect = VirtAddr::new(vpn.base_addr().as_u64() + l % PAGE_SIZE_U64);
            assert_eq!(va, expect, "logical {l:#x}");
        }
    }

    #[test]
    fn chunk_cursor_matches_plain_lookup() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(100), 4, rw());
        m.map_range(VirtPageNum::new(8), PhysFrameNum::new(200), 4, rw());
        let mut cursor = ChunkCursor::default();
        for v in 0..16u64 {
            let vpn = VirtPageNum::new(v);
            assert_eq!(
                m.chunk_containing_with(vpn, &mut cursor),
                m.chunk_containing(vpn).copied(),
                "vpn {v}"
            );
        }
        // Revisit earlier pages with a now-stale-positioned cursor.
        for v in [2u64, 9, 1, 15, 0, 8] {
            let vpn = VirtPageNum::new(v);
            assert_eq!(
                m.chunk_containing_with(vpn, &mut cursor),
                m.chunk_containing(vpn).copied(),
                "vpn {v}"
            );
        }
    }

    #[test]
    fn huge_page_cursor_matches_plain_lookup() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(512), PhysFrameNum::new(1024), 512, rw());
        m.map_range(VirtPageNum::new(2048), PhysFrameNum::new(4097), 512, rw());
        m.map_range(VirtPageNum::new(4096), PhysFrameNum::new(8192), 511, rw());
        let mut cursor = ChunkCursor::default();
        for v in [700u64, 513, 1023, 2100, 2048, 4100, 512, 600] {
            let vpn = VirtPageNum::new(v);
            assert_eq!(m.huge_page_at_with(vpn, &mut cursor), m.huge_page_at(vpn), "vpn {v}");
        }
    }

    /// Every page of `map`, two pages either side of each chunk (its
    /// neighbours, or the edges of the holes between chunks), and two far
    /// holes.
    fn probe_pages(map: &AddressSpaceMap) -> Vec<VirtPageNum> {
        let mut probes = vec![VirtPageNum::new(0), VirtPageNum::new(1 << 40)];
        for c in map.chunks() {
            let first = c.vpn.as_u64().saturating_sub(2);
            let last = c.end_vpn().as_u64() + 2;
            probes.extend((first..last).map(VirtPageNum::new));
        }
        probes
    }

    fn assert_chunk_tables_agree(map: &AddressSpaceMap, label: &str) {
        let probes = probe_pages(map);
        for min_len in [1, 9, HUGE_PAGE_PAGES, HUGE_PAGE_PAGES + 1] {
            let table = ChunkTable::with_min_len(map, min_len);
            for &vpn in &probes {
                let want = map.chunk_containing(vpn).copied().filter(|c| c.len >= min_len);
                assert_eq!(table.chunk_containing(vpn), want, "{label} min_len {min_len} {vpn}");
                if min_len <= HUGE_PAGE_PAGES {
                    assert_eq!(table.huge_page_at(vpn), map.huge_page_at(vpn), "{label} {vpn}");
                }
            }
        }
    }

    #[test]
    fn chunk_table_agrees_with_map_on_every_scenario() {
        for scenario in crate::Scenario::all() {
            let map = scenario.generate(4096, 7);
            assert_chunk_tables_agree(&map, &scenario.to_string());
        }
    }

    #[test]
    fn chunk_table_agrees_at_the_huge_page_length_seams() {
        // Chunks of exactly 511, 512 and 513 pages, 2 MB-aligned in both
        // spaces, one misaligned physically, with holes between them.
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(512), PhysFrameNum::new(2048), 511, rw());
        m.map_range(VirtPageNum::new(2048), PhysFrameNum::new(4096), 512, rw());
        m.map_range(VirtPageNum::new(4096), PhysFrameNum::new(8192), 513, rw());
        m.map_range(VirtPageNum::new(6144), PhysFrameNum::new(12_289), 513, rw());
        m.map_range(VirtPageNum::new(7000), PhysFrameNum::new(50), 3, rw());
        assert_eq!(m.chunk_count(), 5);
        assert_chunk_tables_agree(&m, "seams");
        let huge = ChunkTable::with_min_len(&m, HUGE_PAGE_PAGES);
        assert_eq!(huge.len(), 3);
        assert_eq!(huge.huge_page_at(VirtPageNum::new(2100)), Some(VirtPageNum::new(2048)));
        assert_eq!(huge.huge_page_at(VirtPageNum::new(600)), None);
    }

    #[test]
    fn empty_chunk_table_finds_nothing() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(0), 8, rw());
        let table = ChunkTable::with_min_len(&m, 9);
        assert!(table.is_empty());
        assert_eq!(table.chunk_containing(VirtPageNum::new(3)), None);
        assert_eq!(ChunkTable::default().huge_page_at(VirtPageNum::new(3)), None);
    }

    #[test]
    fn iter_pages_matches_translate() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(3), PhysFrameNum::new(77), 3, rw());
        m.map_range(VirtPageNum::new(9), PhysFrameNum::new(11), 2, rw());
        let pages: Vec<_> = m.iter_pages().collect();
        assert_eq!(pages.len(), 5);
        for (v, p) in pages {
            assert_eq!(m.translate(v), Some(p));
        }
    }
}
