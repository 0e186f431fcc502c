//! Hardware page-table walker model.

use crate::{LeafEntry, PageTable, PageTableEntry};
use hytlb_types::{Cycles, VirtPageNum};

/// Latency model for a page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WalkLatency {
    /// A fixed cost per walk — the paper's model (50 cycles, Table 3,
    /// following Karakostas et al. HPCA'16).
    Fixed(Cycles),
    /// A cost per page-table node touched: 4 accesses for a 4 KB leaf,
    /// 3 for a 2 MB leaf. Useful for ablations; not used by the paper.
    PerAccess {
        /// Cycles charged per radix level touched.
        per_level: Cycles,
    },
}

impl Default for WalkLatency {
    /// The paper's 50-cycle fixed walk.
    fn default() -> Self {
        WalkLatency::Fixed(Cycles::new(50))
    }
}

/// Result of a hardware page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// The translation found, or `None` for a fault (unmapped page).
    pub leaf: Option<LeafEntry>,
    /// Cycles charged for the walk.
    pub cycles: Cycles,
    /// Page-table nodes touched.
    pub accesses: u32,
}

/// A hardware walker bound to a latency model.
///
/// # Examples
///
/// ```
/// use hytlb_pagetable::{PageTable, PageWalker};
/// use hytlb_types::{Cycles, Permissions, PhysFrameNum, VirtPageNum};
///
/// let mut pt = PageTable::new();
/// pt.map(VirtPageNum::new(3), PhysFrameNum::new(9), Permissions::READ_WRITE);
/// let walker = PageWalker::default();
/// let res = walker.walk(&pt, VirtPageNum::new(3));
/// assert_eq!(res.cycles, Cycles::new(50));
/// assert!(res.leaf.is_some());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PageWalker {
    latency: WalkLatency,
}

impl PageWalker {
    /// Creates a walker with the given latency model.
    #[must_use]
    pub fn new(latency: WalkLatency) -> Self {
        PageWalker { latency }
    }

    /// The walker's latency model.
    #[must_use]
    pub fn latency(&self) -> WalkLatency {
        self.latency
    }

    /// Walks the table for `vpn`.
    #[must_use]
    pub fn walk(&self, table: &PageTable, vpn: VirtPageNum) -> WalkResult {
        let (leaf, accesses) = table.lookup_with_depth(vpn);
        self.result(leaf, accesses)
    }

    /// [`PageWalker::walk`] that also returns the 8-PTE cache block around
    /// `vpn` from the same descent (see [`PageTable::lookup_with_block`]);
    /// the block is `None` unless the walk reached a 4 KB PT node.
    #[must_use]
    pub fn walk_with_block<'t>(
        &self,
        table: &'t PageTable,
        vpn: VirtPageNum,
    ) -> (WalkResult, Option<&'t [PageTableEntry]>) {
        let (leaf, accesses, block) = table.lookup_with_block(vpn);
        (self.result(leaf, accesses), block)
    }

    fn result(&self, leaf: Option<LeafEntry>, accesses: u32) -> WalkResult {
        let cycles = match self.latency {
            WalkLatency::Fixed(c) => c,
            WalkLatency::PerAccess { per_level } => per_level * u64::from(accesses),
        };
        WalkResult { leaf, cycles, accesses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_types::{PageSize, Permissions, PhysFrameNum};

    #[test]
    fn fixed_latency_is_constant() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(0), PhysFrameNum::new(0), Permissions::READ_WRITE);
        pt.map_huge(VirtPageNum::new(512), PhysFrameNum::new(512), Permissions::READ_WRITE);
        let w = PageWalker::default();
        assert_eq!(w.walk(&pt, VirtPageNum::new(0)).cycles, Cycles::new(50));
        assert_eq!(w.walk(&pt, VirtPageNum::new(600)).cycles, Cycles::new(50));
        assert_eq!(w.walk(&pt, VirtPageNum::new(99999)).cycles, Cycles::new(50));
    }

    #[test]
    fn per_access_latency_rewards_huge_leaves() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(0), PhysFrameNum::new(0), Permissions::READ_WRITE);
        pt.map_huge(VirtPageNum::new(512), PhysFrameNum::new(512), Permissions::READ_WRITE);
        let w = PageWalker::new(WalkLatency::PerAccess { per_level: Cycles::new(10) });
        let base = w.walk(&pt, VirtPageNum::new(0));
        let huge = w.walk(&pt, VirtPageNum::new(700));
        assert_eq!(base.accesses, 4);
        assert_eq!(huge.accesses, 3);
        assert_eq!(base.cycles, Cycles::new(40));
        assert_eq!(huge.cycles, Cycles::new(30));
        assert_eq!(huge.leaf.unwrap().size, PageSize::Huge2M);
    }

    #[test]
    fn fault_returns_no_leaf_but_charges_walk() {
        let pt = PageTable::new();
        let res = PageWalker::default().walk(&pt, VirtPageNum::new(1));
        assert!(res.leaf.is_none());
        assert_eq!(res.cycles, Cycles::new(50));
    }
}
