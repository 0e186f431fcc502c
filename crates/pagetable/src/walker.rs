//! Hardware page-table walker model.

use crate::{LeafEntry, PageTable};
use hytlb_types::VirtPageNum;

/// Result of a hardware page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// The translation found, or `None` for a fault (unmapped page).
    pub leaf: Option<LeafEntry>,
    /// Page-table nodes touched.
    pub accesses: u32,
}

/// A hardware walker. The paper charges every walk a fixed 50 cycles
/// (Table 3), so the walker carries no timing state; the cost is
/// `hytlb_schemes::TranslationPath::cycles`.
///
/// # Examples
///
/// ```
/// use hytlb_pagetable::{PageTable, PageWalker};
/// use hytlb_types::{Permissions, PhysFrameNum, VirtPageNum};
///
/// let mut pt = PageTable::new();
/// pt.map(VirtPageNum::new(3), PhysFrameNum::new(9), Permissions::READ_WRITE);
/// let res = PageWalker::default().walk(&pt, VirtPageNum::new(3));
/// assert_eq!(res.leaf.map(|l| l.pfn_for(VirtPageNum::new(3))), Some(PhysFrameNum::new(9)));
/// assert_eq!(res.accesses, 4);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PageWalker;

impl PageWalker {
    /// Walks the table for `vpn`.
    #[must_use]
    pub fn walk(&self, table: &PageTable, vpn: VirtPageNum) -> WalkResult {
        let (leaf, accesses) = table.lookup_with_depth(vpn);
        WalkResult { leaf, accesses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_types::{PageSize, Permissions, PhysFrameNum};

    #[test]
    fn huge_leaves_take_one_access_fewer() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(0), PhysFrameNum::new(0), Permissions::READ_WRITE);
        pt.map_huge(VirtPageNum::new(512), PhysFrameNum::new(512), Permissions::READ_WRITE);
        let w = PageWalker;
        let base = w.walk(&pt, VirtPageNum::new(0));
        let huge = w.walk(&pt, VirtPageNum::new(700));
        assert_eq!(base.accesses, 4);
        assert_eq!(huge.accesses, 3);
        assert_eq!(huge.leaf.unwrap().size, PageSize::Huge2M);
    }

    #[test]
    fn fault_returns_no_leaf() {
        let pt = PageTable::new();
        assert!(PageWalker.walk(&pt, VirtPageNum::new(1)).leaf.is_none());
    }
}
