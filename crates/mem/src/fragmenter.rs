//! Fragmentation pressure driver.
//!
//! §2.3 of the paper varies memory-mapping contiguity by running an
//! application "alone or with randomly executing background jobs chosen from
//! PARSEC". [`Fragmenter`] reproduces that effect on a [`BuddyAllocator`]:
//! it plays the role of the background jobs by claiming blocks of varied
//! sizes and releasing a random subset, leaving the free space shattered.

use crate::{BuddyAllocator, MAX_ORDER};
use hytlb_types::PhysFrameNum;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Preset intensities of background allocation pressure.
///
/// Each level controls what fraction of free memory the background jobs
/// claim and what fraction of their blocks they keep holding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum FragmentationLevel {
    /// No background jobs; memory stays pristine.
    None,
    /// A couple of small co-runners.
    Light,
    /// The memory-pressure regime of the paper's multi-socket experiments.
    Moderate,
    /// Heavy churn: most large blocks are broken up.
    Heavy,
}

impl FragmentationLevel {
    /// `(fill_fraction, hold_fraction, max_block_order)` parameters.
    fn params(self) -> (f64, f64, u32) {
        match self {
            FragmentationLevel::None => (0.0, 0.0, 0),
            FragmentationLevel::Light => (0.35, 0.25, 7),
            FragmentationLevel::Moderate => (0.65, 0.40, 6),
            FragmentationLevel::Heavy => (0.90, 0.55, 4),
        }
    }

    /// All levels, in increasing severity. Useful for sweeps (Figure 1).
    #[must_use]
    pub fn all() -> [FragmentationLevel; 4] {
        [
            FragmentationLevel::None,
            FragmentationLevel::Light,
            FragmentationLevel::Moderate,
            FragmentationLevel::Heavy,
        ]
    }
}

/// Applies background-job allocation pressure to a buddy allocator.
///
/// The fragmenter retains ownership of the blocks its "jobs" keep, so the
/// pressure persists while the foreground process allocates; the jobs exit
/// one at a time through [`Fragmenter::release_one`].
///
/// # Examples
///
/// ```
/// use hytlb_mem::{BuddyAllocator, Fragmenter, FragmentationLevel};
///
/// let mut buddy = BuddyAllocator::new(1 << 14);
/// let mut frag = Fragmenter::new(42);
/// frag.shatter(&mut buddy, FragmentationLevel::Heavy);
/// assert!(buddy.free_frames() < 1 << 14);
/// while frag.release_one(&mut buddy) {}
/// assert_eq!(buddy.free_frames(), 1 << 14);
/// ```
#[derive(Debug)]
pub struct Fragmenter {
    rng: SmallRng,
    held: Vec<(PhysFrameNum, u32)>,
}

impl Fragmenter {
    /// Creates a fragmenter with a deterministic seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Fragmenter { rng: SmallRng::seed_from_u64(seed), held: Vec::new() }
    }

    /// Claims and partially releases memory to reach the given pressure
    /// level. May be called repeatedly (pressure accumulates).
    pub fn shatter(&mut self, buddy: &mut BuddyAllocator, level: FragmentationLevel) {
        let (fill, hold, max_order) = level.params();
        if fill == 0.0 {
            return;
        }
        let target_fill = (buddy.free_frames() as f64 * fill) as u64;
        let mut claimed = 0u64;
        let mut batch: Vec<(PhysFrameNum, u32)> = Vec::new();
        while claimed < target_fill {
            let order = self.rng.gen_range(0..=max_order.min(MAX_ORDER));
            match buddy.allocate(order) {
                Ok(base) => {
                    claimed += 1 << order;
                    batch.push((base, order));
                }
                // The requested size ran out; retry smaller via the loop.
                Err(_) if order > 0 => continue,
                Err(_) => break,
            }
        }
        // Background jobs exit in random order, freeing (1 - hold) of what
        // they took; the survivors pin fragmentation in place.
        for (base, order) in batch {
            if self.rng.gen_bool(1.0 - hold) {
                buddy.free(base, order).expect("freeing a just-claimed block");
            } else {
                self.held.push((base, order));
            }
        }
    }

    /// Releases a single held block (one background job exiting), returning
    /// `false` when nothing was held. Releasing one at a time lets callers
    /// relieve just enough pressure without restoring full contiguity.
    pub fn release_one(&mut self, buddy: &mut BuddyAllocator) -> bool {
        match self.held.pop() {
            Some((base, order)) => {
                buddy.free(base, order).expect("held block is live");
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_level_is_noop() {
        let mut b = BuddyAllocator::new(1 << 12);
        let mut f = Fragmenter::new(1);
        f.shatter(&mut b, FragmentationLevel::None);
        assert_eq!(b.free_frames(), 1 << 12);
        assert_eq!(f.held.len(), 0);
    }

    #[test]
    fn severity_ordering_holds_on_average() {
        let score = |level| {
            let mut b = BuddyAllocator::new(1 << 14);
            let mut f = Fragmenter::new(7);
            f.shatter(&mut b, level);
            b.fragmentation_score()
        };
        let light = score(FragmentationLevel::Light);
        let heavy = score(FragmentationLevel::Heavy);
        assert!(heavy > light, "heavy {heavy} should exceed light {light}");
    }

    #[test]
    fn shatter_is_deterministic_per_seed() {
        let run = |seed| {
            let mut b = BuddyAllocator::new(1 << 13);
            let mut f = Fragmenter::new(seed);
            f.shatter(&mut b, FragmentationLevel::Moderate);
            (b.free_frames(), f.held.len())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn releasing_every_job_restores_memory() {
        let mut b = BuddyAllocator::new(1 << 12);
        let mut f = Fragmenter::new(9);
        f.shatter(&mut b, FragmentationLevel::Heavy);
        assert!(b.free_frames() < 1 << 12);
        while f.release_one(&mut b) {}
        assert_eq!(b.free_frames(), 1 << 12);
        assert_eq!(f.held.len(), 0);
    }

    #[test]
    fn heavy_pressure_starves_huge_blocks() {
        let mut b = BuddyAllocator::new(1 << 14);
        let mut f = Fragmenter::new(11);
        f.shatter(&mut b, FragmentationLevel::Heavy);
        // After heavy churn, far fewer order-9 (2 MB) blocks remain than the
        // pristine allocator's 32.
        let huge_frames: u64 =
            (9..=MAX_ORDER).map(|o| b.free_blocks_of_order(o) as u64 * (1 << o)).sum();
        assert!(huge_frames < (1 << 14) / 2);
    }
}
