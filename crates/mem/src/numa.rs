//! NUMA memory topology — the paper's §2.2 motivation substrate.
//!
//! The paper's argument for hybrid coalescing starts from memory
//! non-uniformity: on multi-socket NUMA boxes (and future HMC/NVM tiers),
//! the OS must place pages on specific nodes for locality, which conflicts
//! with allocating large contiguous chunks — "such memory heterogeneity
//! requires fine-grained memory mapping" (§2.2). This module models a
//! multi-node physical memory: one buddy allocator per node, node-aware
//! placement policies, and mapping generation that shows exactly how
//! interleaved placement shatters contiguity while preserving locality.

use crate::{AddressSpaceMap, BuddyAllocator, BuddyError, FragmentationLevel, Fragmenter};
use hytlb_types::{Permissions, PhysFrameNum, VirtPageNum};

/// How pages are placed across NUMA nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum NumaPolicy {
    /// All pages on one node (best contiguity; worst balance — remote
    /// threads pay the penalty the paper's §2.2 citations measure).
    LocalOnly {
        /// The node everything lands on.
        node: usize,
    },
    /// Round-robin chunks of `granularity_pages` across all nodes — the
    /// fine-grained placement heterogeneous memory needs. Contiguity is
    /// capped at the granularity.
    Interleave {
        /// Pages placed on one node before moving to the next.
        granularity_pages: u64,
    },
}

/// A multi-node physical memory.
///
/// # Examples
///
/// ```
/// use hytlb_mem::{NumaPolicy, NumaTopology};
///
/// let mut numa = NumaTopology::new(4, 1 << 14);
/// let map = numa
///     .allocate_map(4096, NumaPolicy::Interleave { granularity_pages: 16 })
///     .expect("capacity");
/// assert_eq!(map.mapped_pages(), 4096);
/// // Interleaving caps every chunk at the granularity.
/// assert!(map.chunks().all(|c| c.len <= 16));
/// ```
#[derive(Debug)]
pub struct NumaTopology {
    nodes: Vec<BuddyAllocator>,
    /// Physical frame offset of each node (nodes occupy disjoint frame
    /// ranges, like physical address ranges on a real machine).
    bases: Vec<u64>,
}

impl NumaTopology {
    /// Creates `nodes` nodes of `frames_per_node` frames each.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `frames_per_node` is zero.
    #[must_use]
    pub fn new(nodes: usize, frames_per_node: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(frames_per_node > 0, "nodes need capacity");
        NumaTopology {
            nodes: (0..nodes).map(|_| BuddyAllocator::new(frames_per_node)).collect(),
            bases: (0..nodes as u64).map(|i| i * frames_per_node).collect(),
        }
    }

    /// Applies background fragmentation pressure to every node.
    pub fn shatter_all(&mut self, level: FragmentationLevel, seed: u64) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let mut frag = Fragmenter::new(seed.wrapping_add(i as u64));
            frag.shatter(node, level);
            // Background jobs keep running; the pressure stays (the
            // fragmenter's held blocks leak into the node deliberately —
            // topology-lifetime pressure, like co-runners that never exit).
            std::mem::forget(frag);
        }
    }

    /// Allocates `pages` for one process under `policy`, building its map.
    ///
    /// # Errors
    ///
    /// [`BuddyError::OutOfMemory`] when a node required by the policy is
    /// exhausted.
    pub fn allocate_map(
        &mut self,
        pages: u64,
        policy: NumaPolicy,
    ) -> Result<AddressSpaceMap, BuddyError> {
        let mut map = AddressSpaceMap::new();
        let mut vpn = VirtPageNum::new(crate::scenario::VA_BASE);
        match policy {
            NumaPolicy::LocalOnly { node } => {
                assert!(node < self.nodes.len(), "node {node} out of range");
                let base = self.bases[node];
                let runs = self.nodes[node].allocate_run(pages)?;
                for (pfn, len) in runs {
                    map.map_range(
                        vpn,
                        PhysFrameNum::new(base + pfn.as_u64()),
                        len,
                        Permissions::READ_WRITE,
                    );
                    vpn += len;
                }
            }
            NumaPolicy::Interleave { granularity_pages } => {
                assert!(granularity_pages > 0, "granularity must be positive");
                let mut remaining = pages;
                let mut node = 0usize;
                while remaining > 0 {
                    let want = granularity_pages.min(remaining);
                    let base = self.bases[node];
                    let runs = self.nodes[node].allocate_run(want)?;
                    for (pfn, len) in runs {
                        map.map_range(
                            vpn,
                            PhysFrameNum::new(base + pfn.as_u64()),
                            len,
                            Permissions::READ_WRITE,
                        );
                        vpn += len;
                    }
                    remaining -= want;
                    node = (node + 1) % self.nodes.len();
                }
            }
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ContiguityHistogram;

    impl NumaTopology {
        /// The node owning physical frame `pfn`, if any.
        fn node_of(&self, pfn: PhysFrameNum) -> Option<usize> {
            let per_node = self.nodes.first().map(BuddyAllocator::total_frames)?;
            let node = hytlb_types::usize_from(pfn.as_u64() / per_node);
            (node < self.nodes.len()).then_some(node)
        }

        /// Fraction of a map's pages on each node — the balance metric
        /// NUMA placement optimizes.
        fn node_shares(&self, map: &AddressSpaceMap) -> Vec<f64> {
            let mut counts = vec![0u64; self.nodes.len()];
            for (_, pfn) in map.iter_pages() {
                if let Some(n) = self.node_of(pfn) {
                    counts[n] += 1;
                }
            }
            let total = map.mapped_pages().max(1);
            counts.into_iter().map(|c| c as f64 / total as f64).collect()
        }
    }

    #[test]
    fn local_policy_maximizes_contiguity_on_one_node() {
        let mut numa = NumaTopology::new(2, 1 << 13);
        let map = numa.allocate_map(2048, NumaPolicy::LocalOnly { node: 1 }).unwrap();
        assert_eq!(map.mapped_pages(), 2048);
        let shares = numa.node_shares(&map);
        assert_eq!(shares[0], 0.0);
        assert!((shares[1] - 1.0).abs() < 1e-12);
        // Fresh node: the whole footprint comes out as one chunk.
        assert_eq!(map.chunk_count(), 1);
    }

    #[test]
    fn interleave_balances_but_shatters() {
        let mut numa = NumaTopology::new(4, 1 << 13);
        let map =
            numa.allocate_map(4096, NumaPolicy::Interleave { granularity_pages: 32 }).unwrap();
        let shares = numa.node_shares(&map);
        for s in &shares {
            assert!((s - 0.25).abs() < 0.05, "{shares:?}");
        }
        let hist = ContiguityHistogram::from_map(&map);
        assert!(hist.max_contiguity() <= 32);
        // The §2.2 tension: perfect balance, 128x less contiguity than
        // the local policy's single chunk.
        assert!(map.chunk_count() >= 128);
    }

    #[test]
    fn fragmentation_pressure_compounds_with_interleaving() {
        let mut calm = NumaTopology::new(2, 1 << 14);
        let calm_map =
            calm.allocate_map(4096, NumaPolicy::Interleave { granularity_pages: 512 }).unwrap();
        let mut stressed = NumaTopology::new(2, 1 << 14);
        stressed.shatter_all(FragmentationLevel::Heavy, 9);
        let stressed_map =
            stressed.allocate_map(4096, NumaPolicy::Interleave { granularity_pages: 512 }).unwrap();
        let a = ContiguityHistogram::from_map(&calm_map).mean_contiguity();
        let b = ContiguityHistogram::from_map(&stressed_map).mean_contiguity();
        assert!(b < a, "pressure must reduce contiguity: {b} vs {a}");
    }

    #[test]
    fn out_of_memory_is_an_error_not_a_panic() {
        let mut numa = NumaTopology::new(2, 64);
        let r = numa.allocate_map(1024, NumaPolicy::LocalOnly { node: 0 });
        assert!(r.is_err());
    }

    #[test]
    fn node_of_maps_frames_to_nodes() {
        let numa = NumaTopology::new(2, 1000);
        assert_eq!(numa.node_of(PhysFrameNum::new(0)), Some(0));
        assert_eq!(numa.node_of(PhysFrameNum::new(999)), Some(0));
        assert_eq!(numa.node_of(PhysFrameNum::new(1000)), Some(1));
        assert_eq!(numa.node_of(PhysFrameNum::new(2000)), None);
    }
}
