//! Binary buddy physical-frame allocator.
//!
//! Linux's page allocator is a binary buddy system; the contiguity that TLB
//! coalescing schemes exploit is a direct product of its behaviour (paper
//! §2.1: "there are some levels of contiguity in memory allocation as the
//! operating system uses a buddy algorithm"). The simulator therefore
//! reproduces a buddy allocator faithfully: power-of-two blocks, split on
//! allocation, eager merge with the buddy on free.

use hytlb_types::PhysFrameNum;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Largest supported block order. Order 16 blocks span 2^16 frames = 256 MB.
pub const MAX_ORDER: u32 = 16;

/// Errors reported by [`BuddyAllocator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuddyError {
    /// The requested order exceeds [`MAX_ORDER`].
    OrderTooLarge {
        /// The order that was requested.
        requested: u32,
    },
    /// No free block of the requested order (or any larger order) exists.
    OutOfMemory {
        /// The order that could not be satisfied.
        order: u32,
    },
    /// `free` was called on a block that is not currently allocated with
    /// that base frame and order.
    InvalidFree {
        /// Base frame of the attempted free.
        base: PhysFrameNum,
        /// Order of the attempted free.
        order: u32,
    },
}

impl fmt::Display for BuddyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuddyError::OrderTooLarge { requested } => {
                write!(f, "requested order {requested} exceeds maximum {MAX_ORDER}")
            }
            BuddyError::OutOfMemory { order } => {
                write!(f, "no free block of order {order} or larger")
            }
            BuddyError::InvalidFree { base, order } => {
                write!(f, "block {base} of order {order} is not allocated")
            }
        }
    }
}

impl std::error::Error for BuddyError {}

/// A binary buddy allocator over a contiguous range of physical frames.
///
/// Free blocks of each order are kept in ordered sets so allocation is
/// deterministic (lowest address first), which keeps every experiment
/// reproducible from its seed.
///
/// # Examples
///
/// ```
/// use hytlb_mem::BuddyAllocator;
///
/// let mut buddy = BuddyAllocator::new(1024);
/// let block = buddy.allocate(4)?; // 16 contiguous frames
/// assert_eq!(buddy.free_frames(), 1024 - 16);
/// buddy.free(block, 4)?;
/// assert_eq!(buddy.free_frames(), 1024);
/// # Ok::<(), hytlb_mem::BuddyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// `free_lists[order]` holds the base frame numbers of free blocks.
    free_lists: Vec<BTreeSet<u64>>,
    /// Allocated blocks: base frame → order. Used to validate frees and to
    /// audit the allocator in tests.
    allocated: HashMap<u64, u32>,
    total_frames: u64,
    free_frames: u64,
}

impl BuddyAllocator {
    /// Creates an allocator managing `total_frames` physical frames starting
    /// at frame 0. The range is carved into maximal power-of-two blocks, so
    /// any frame count is accepted.
    ///
    /// # Panics
    ///
    /// Panics if `total_frames` is zero.
    #[must_use]
    pub fn new(total_frames: u64) -> Self {
        assert!(total_frames > 0, "allocator must manage at least one frame");
        let mut a = BuddyAllocator {
            free_lists: vec![BTreeSet::new(); (MAX_ORDER + 1) as usize],
            allocated: HashMap::new(),
            total_frames,
            free_frames: total_frames,
        };
        // Greedily cover [0, total_frames) with aligned maximal blocks.
        let mut base = 0u64;
        while base < total_frames {
            let align_order =
                if base == 0 { MAX_ORDER } else { base.trailing_zeros().min(MAX_ORDER) };
            let mut order = align_order;
            while (1u64 << order) > total_frames - base {
                order -= 1;
            }
            a.free_lists[order as usize].insert(base);
            base += 1 << order;
        }
        a
    }

    /// Number of currently free frames.
    #[must_use]
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Allocates a block of `1 << order` contiguous, naturally-aligned
    /// frames, splitting larger blocks as needed.
    ///
    /// # Errors
    ///
    /// [`BuddyError::OrderTooLarge`] if `order > MAX_ORDER`;
    /// [`BuddyError::OutOfMemory`] if no block of that order can be carved.
    pub fn allocate(&mut self, order: u32) -> Result<PhysFrameNum, BuddyError> {
        if order > MAX_ORDER {
            return Err(BuddyError::OrderTooLarge { requested: order });
        }
        let from = (order..=MAX_ORDER)
            .find(|&o| !self.free_lists[o as usize].is_empty())
            .ok_or(BuddyError::OutOfMemory { order })?;
        let base = *self.free_lists[from as usize].iter().next().expect("nonempty");
        self.free_lists[from as usize].remove(&base);
        // Split down to the requested order, returning the upper halves.
        let mut cur = from;
        while cur > order {
            cur -= 1;
            self.free_lists[cur as usize].insert(base + (1 << cur));
        }
        self.allocated.insert(base, order);
        self.free_frames -= 1 << order;
        Ok(PhysFrameNum::new(base))
    }

    /// Frees a previously allocated block, eagerly merging with free buddies.
    ///
    /// # Errors
    ///
    /// [`BuddyError::InvalidFree`] if `(base, order)` does not name a live
    /// allocation.
    pub fn free(&mut self, base: PhysFrameNum, order: u32) -> Result<(), BuddyError> {
        let raw = base.as_u64();
        match self.allocated.get(&raw) {
            Some(&o) if o == order => {}
            _ => return Err(BuddyError::InvalidFree { base, order }),
        }
        self.allocated.remove(&raw);
        self.free_frames += 1 << order;
        let mut cur_base = raw;
        let mut cur_order = order;
        while cur_order < MAX_ORDER {
            let buddy = cur_base ^ (1u64 << cur_order);
            // Merging across the end of managed memory is impossible because
            // the initial carve is naturally aligned.
            if buddy + (1 << cur_order) > self.total_frames {
                break;
            }
            if !self.free_lists[cur_order as usize].remove(&buddy) {
                break;
            }
            cur_base = cur_base.min(buddy);
            cur_order += 1;
        }
        self.free_lists[cur_order as usize].insert(cur_base);
        Ok(())
    }

    /// Allocates exactly `pages` frames as a list of `(base, len)` runs,
    /// preferring the largest blocks available (this is how the paper's
    /// eager-paging kernel requests memory "through the buddy allocator
    /// system sequentially", §5.1).
    ///
    /// # Errors
    ///
    /// [`BuddyError::OutOfMemory`] if fewer than `pages` frames are free; any
    /// partial allocation is rolled back.
    pub fn allocate_run(&mut self, pages: u64) -> Result<Vec<(PhysFrameNum, u64)>, BuddyError> {
        let mut out: Vec<(PhysFrameNum, u64)> = Vec::new();
        let mut remaining = pages;
        'outer: while remaining > 0 {
            // Largest order that does not over-allocate; if unavailable,
            // fall back to progressively smaller blocks. Failing at order o
            // implies no block of order >= o exists (allocate splits), so
            // only smaller orders can still succeed.
            let mut order = remaining.ilog2().min(MAX_ORDER);
            loop {
                match self.allocate(order) {
                    Ok(base) => {
                        out.push((base, 1 << order));
                        remaining -= 1 << order;
                        continue 'outer;
                    }
                    Err(_) if order > 0 => order -= 1,
                    Err(_) => {
                        for (b, len) in out.drain(..) {
                            let o = len.trailing_zeros();
                            self.free(b, o).expect("rollback of fresh allocation");
                        }
                        return Err(BuddyError::OutOfMemory { order: 0 });
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BuddyAllocator {
        /// Total number of frames managed.
        pub(crate) fn total_frames(&self) -> u64 {
            self.total_frames
        }

        /// Number of free blocks currently on the free list of `order`.
        pub(crate) fn free_blocks_of_order(&self, order: u32) -> usize {
            self.free_lists[order as usize].len()
        }

        /// A fragmentation score in `[0, 1]`: 0 when all free memory sits
        /// in blocks of at least 2 MB (order 9, the chunk size THP needs),
        /// approaching 1 when it is shattered into single frames.
        pub(crate) fn fragmentation_score(&self) -> f64 {
            if self.free_frames == 0 {
                return 0.0;
            }
            let large: u64 =
                (9..=MAX_ORDER).map(|o| self.free_blocks_of_order(o) as u64 * (1u64 << o)).sum();
            1.0 - large as f64 / self.free_frames as f64
        }
    }

    #[test]
    fn fresh_allocator_is_fully_free() {
        let b = BuddyAllocator::new(1 << 10);
        assert_eq!(b.free_frames(), 1 << 10);
        assert_eq!(b.free_blocks_of_order(10), 1);
        assert_eq!(b.fragmentation_score(), 0.0);
    }

    #[test]
    fn non_power_of_two_total_is_carved_into_aligned_blocks() {
        let b = BuddyAllocator::new(1000);
        assert_eq!(b.free_frames(), 1000);
        // 1000 = 512 + 256 + 128 + 64 + 32 + 8
        assert_eq!(b.free_blocks_of_order(9), 1);
        assert_eq!(b.free_blocks_of_order(8), 1);
        assert_eq!(b.free_blocks_of_order(3), 1);
    }

    #[test]
    fn allocate_splits_and_free_merges() {
        let mut b = BuddyAllocator::new(16);
        let f0 = b.allocate(0).unwrap();
        assert_eq!(f0, PhysFrameNum::new(0));
        // Splitting 16 -> 8+4+2+1+1 leaves one free block each of orders 0..=3.
        for o in 0..=3 {
            assert_eq!(b.free_blocks_of_order(o), 1, "order {o}");
        }
        b.free(f0, 0).unwrap();
        assert_eq!(b.free_blocks_of_order(4), 1);
        assert_eq!(b.free_frames(), 16);
    }

    #[test]
    fn allocation_is_deterministic_lowest_address_first() {
        let mut b = BuddyAllocator::new(64);
        assert_eq!(b.allocate(0).unwrap().as_u64(), 0);
        assert_eq!(b.allocate(0).unwrap().as_u64(), 1);
        assert_eq!(b.allocate(2).unwrap().as_u64(), 4);
    }

    #[test]
    fn out_of_memory_and_bad_order() {
        let mut b = BuddyAllocator::new(4);
        assert!(matches!(b.allocate(3), Err(BuddyError::OutOfMemory { .. })));
        assert!(matches!(b.allocate(MAX_ORDER + 1), Err(BuddyError::OrderTooLarge { .. })));
    }

    #[test]
    fn invalid_free_is_rejected() {
        let mut b = BuddyAllocator::new(16);
        let f = b.allocate(1).unwrap();
        assert!(matches!(b.free(f, 2), Err(BuddyError::InvalidFree { .. })));
        assert!(b.free(PhysFrameNum::new(99), 0).is_err());
        b.free(f, 1).unwrap();
        // Double free.
        assert!(b.free(f, 1).is_err());
    }

    #[test]
    fn allocate_run_prefers_large_blocks() {
        let mut b = BuddyAllocator::new(1 << 12);
        let runs = b.allocate_run(1000).unwrap();
        let total: u64 = runs.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 1000);
        // Largest-first: first run must be the 512-frame block.
        assert_eq!(runs[0].1, 512);
        assert!(runs.iter().all(|&(_, l)| l.is_power_of_two()));
    }

    #[test]
    fn allocate_run_rolls_back_on_failure() {
        let mut b = BuddyAllocator::new(64);
        let before = b.free_frames();
        assert!(b.allocate_run(100).is_err());
        assert_eq!(b.free_frames(), before);
    }

    #[test]
    fn fragmentation_score_rises_with_scattered_allocs() {
        let mut b = BuddyAllocator::new(1 << 12);
        // Claim all memory as 4-frame blocks, then free every other block,
        // so every free frame sits in a sub-2MB hole.
        let mut held = Vec::new();
        while let Ok(f) = b.allocate(2) {
            held.push(f);
        }
        for (i, f) in held.iter().enumerate() {
            if i % 2 == 0 {
                b.free(*f, 2).unwrap();
            }
        }
        assert!(b.fragmentation_score() > 0.9);
    }

    #[test]
    fn exhaustive_alloc_free_cycle_restores_state() {
        let mut b = BuddyAllocator::new(256);
        let mut blocks = Vec::new();
        while let Ok(f) = b.allocate(1) {
            blocks.push(f);
        }
        assert_eq!(b.free_frames(), 0);
        for f in blocks {
            b.free(f, 1).unwrap();
        }
        assert_eq!(b.free_frames(), 256);
        assert_eq!(b.free_blocks_of_order(8), 1);
    }
}
