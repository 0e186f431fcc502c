//! The 64-bit page-table entry, with the paper's anchor extensions.
//!
//! Layout (paper Figure 4, matching x86-64):
//!
//! ```text
//!  63   62........52  51....12  11...1  0
//!  XD   ignored/avail   PFN      flags  P
//!       └ anchor contiguity bits ┘
//! ```
//!
//! A *traditional* PTE ignores bits `[52, 63)`; an *anchor* PTE reuses them
//! for its contiguity count. Contiguity fields wider than 11 bits are
//! distributed across successive PTEs of the same 64-byte cache block
//! (8 PTEs), starting from the block's first entry — the cache block is
//! fetched as a unit, so reading the extra bits costs no memory access.

use hytlb_types::{Permissions, PhysFrameNum, PTES_PER_CACHE_BLOCK};

/// Number of ignored bits per PTE available for contiguity storage.
pub const ANCHOR_BITS_PER_PTE: u32 = 11;

/// The evaluation's contiguity field width: 16 bits, "maximum contiguity of
/// 2^16" 4 KB pages (§3.1).
pub const CONTIGUITY_FIELD_BITS: u32 = 16;

/// Largest contiguity value storable in the 16-bit field.
pub const MAX_CONTIGUITY: u64 = (1 << CONTIGUITY_FIELD_BITS) - 1;

const PRESENT_BIT: u64 = 1;
const WRITE_BIT: u64 = 1 << 1;
const HUGE_BIT: u64 = 1 << 7; // PS bit: 2 MB leaf at the PD level
const READ_BIT: u64 = 1 << 9; // software-available bit used for R
const XD_BIT: u64 = 1 << 63;
const PFN_MASK: u64 = ((1u64 << 52) - 1) & !((1u64 << 12) - 1);
const IGNORED_MASK: u64 = ((1u64 << 63) - 1) & !((1u64 << 52) - 1);

/// Every named bit field of the PTE layout, for invariant auditing: the
/// fields must be pairwise disjoint or the Figure 4 encoding is broken.
/// The order matches the layout diagram above, low bits first.
pub const FLAG_MASKS: [(&str, u64); 7] = [
    ("present", PRESENT_BIT),
    ("write", WRITE_BIT),
    ("huge", HUGE_BIT),
    ("read", READ_BIT),
    ("pfn", PFN_MASK),
    ("ignored", IGNORED_MASK),
    ("xd", XD_BIT),
];

/// A single 64-bit page-table entry.
///
/// ```
/// use hytlb_pagetable::PageTableEntry;
/// use hytlb_types::{Permissions, PhysFrameNum};
///
/// let pte = PageTableEntry::new_leaf(PhysFrameNum::new(0x1234), Permissions::READ_WRITE);
/// assert!(pte.is_present());
/// assert_eq!(pte.pfn(), PhysFrameNum::new(0x1234));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct PageTableEntry(u64);

impl PageTableEntry {
    /// The all-zero, not-present entry.
    pub const NOT_PRESENT: PageTableEntry = PageTableEntry(0);

    /// Builds a present 4 KB leaf entry.
    #[must_use]
    pub fn new_leaf(pfn: PhysFrameNum, perms: Permissions) -> Self {
        let mut raw = PRESENT_BIT | ((pfn.as_u64() << 12) & PFN_MASK);
        if perms.contains(Permissions::READ) {
            raw |= READ_BIT;
        }
        if perms.contains(Permissions::WRITE) {
            raw |= WRITE_BIT;
        }
        if !perms.contains(Permissions::EXECUTE) {
            raw |= XD_BIT;
        }
        PageTableEntry(raw)
    }

    /// Builds a present 2 MB leaf entry (PS bit set; lives at the PD level).
    #[must_use]
    pub fn new_huge_leaf(pfn: PhysFrameNum, perms: Permissions) -> Self {
        PageTableEntry(Self::new_leaf(pfn, perms).0 | HUGE_BIT)
    }

    /// Builds a present non-leaf (directory) entry pointing at a child node.
    /// In [`PageTable`](crate::PageTable) the PFN field holds the child's
    /// index in the table's node arena, where hardware would hold the
    /// child's frame.
    #[must_use]
    pub fn new_table(pfn: PhysFrameNum) -> Self {
        PageTableEntry(PRESENT_BIT | WRITE_BIT | READ_BIT | ((pfn.as_u64() << 12) & PFN_MASK))
    }

    /// Raw 64-bit representation.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an entry from its raw bits.
    #[must_use]
    // audit:allow(dead-pub): cluster.rs's proptest
    // `branch_free_coalescing_matches_reference` builds arbitrary PTEs.
    pub const fn from_raw(raw: u64) -> Self {
        PageTableEntry(raw)
    }

    /// Present bit.
    #[must_use]
    pub const fn is_present(self) -> bool {
        self.0 & PRESENT_BIT != 0
    }

    /// PS bit: this entry maps a 2 MB page.
    #[must_use]
    pub const fn is_huge(self) -> bool {
        self.0 & HUGE_BIT != 0
    }

    /// Physical frame number (of the mapped page, or of the child node for
    /// directory entries).
    #[must_use]
    pub const fn pfn(self) -> PhysFrameNum {
        PhysFrameNum::new((self.0 & PFN_MASK) >> 12)
    }

    /// Access permissions encoded in the flag bits.
    #[must_use]
    pub fn permissions(self) -> Permissions {
        let mut p = Permissions::NONE;
        if self.0 & READ_BIT != 0 {
            p = p | Permissions::READ;
        }
        if self.0 & WRITE_BIT != 0 {
            p = p | Permissions::WRITE;
        }
        if self.0 & XD_BIT == 0 {
            p = p | Permissions::EXECUTE;
        }
        p
    }

    /// The 11 ignored bits `[52, 63)` carrying this entry's share of a
    /// distributed contiguity field.
    #[must_use]
    pub const fn ignored_bits(self) -> u64 {
        (self.0 & IGNORED_MASK) >> 52
    }

    /// Overwrites the 11 ignored bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` does not fit in 11 bits.
    pub fn set_ignored_bits(&mut self, bits: u64) {
        assert!(bits < (1 << ANCHOR_BITS_PER_PTE), "ignored field is 11 bits");
        self.0 = (self.0 & !IGNORED_MASK) | (bits << 52);
    }
}

/// Writes a contiguity value into the ignored bits of a cache block of PTEs,
/// 11 bits per entry starting at `block[0]` (paper §3.1).
///
/// Values larger than [`MAX_CONTIGUITY`] saturate: an anchor covering more
/// than 2^16 − 1 pages still reports the maximum the field can express,
/// which is the behaviour of a fixed-width hardware field.
///
/// # Panics
///
/// Panics if `block` is not exactly one cache block (8 PTEs).
pub fn write_distributed_contiguity(block: &mut [PageTableEntry], contiguity: u64) {
    assert_eq!(block.len(), PTES_PER_CACHE_BLOCK, "one 64-byte cache block");
    let value = contiguity.min(MAX_CONTIGUITY);
    let mut remaining_bits = CONTIGUITY_FIELD_BITS;
    let mut shift = 0u32;
    for pte in block.iter_mut() {
        if remaining_bits == 0 {
            break;
        }
        let take = remaining_bits.min(ANCHOR_BITS_PER_PTE);
        let mask = (1u64 << take) - 1;
        pte.set_ignored_bits((value >> shift) & mask);
        shift += take;
        remaining_bits -= take;
    }
}

/// Reads a contiguity value distributed over a cache block of PTEs.
///
/// # Panics
///
/// Panics if `block` is not exactly one cache block (8 PTEs).
#[must_use]
pub fn read_distributed_contiguity(block: &[PageTableEntry]) -> u64 {
    assert_eq!(block.len(), PTES_PER_CACHE_BLOCK, "one 64-byte cache block");
    let mut value = 0u64;
    let mut remaining_bits = CONTIGUITY_FIELD_BITS;
    let mut shift = 0u32;
    for pte in block {
        if remaining_bits == 0 {
            break;
        }
        let take = remaining_bits.min(ANCHOR_BITS_PER_PTE);
        value |= (pte.ignored_bits() & ((1 << take) - 1)) << shift;
        shift += take;
        remaining_bits -= take;
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let pte = PageTableEntry::new_leaf(PhysFrameNum::new(0xabcde), Permissions::READ_WRITE);
        assert!(pte.is_present());
        assert!(!pte.is_huge());
        assert_eq!(pte.pfn(), PhysFrameNum::new(0xabcde));
        assert_eq!(pte.permissions(), Permissions::READ_WRITE);
    }

    #[test]
    fn huge_leaf_sets_ps_bit() {
        let pte = PageTableEntry::new_huge_leaf(PhysFrameNum::new(512), Permissions::READ);
        assert!(pte.is_huge());
        assert_eq!(pte.pfn(), PhysFrameNum::new(512));
    }

    #[test]
    fn executable_pages_clear_xd() {
        let rx = Permissions::READ | Permissions::EXECUTE;
        let pte = PageTableEntry::new_leaf(PhysFrameNum::new(1), rx);
        assert_eq!(pte.permissions(), rx);
        assert_eq!(pte.raw() & XD_BIT, 0);
    }

    #[test]
    fn not_present_is_zero() {
        assert_eq!(PageTableEntry::NOT_PRESENT.raw(), 0);
        assert!(!PageTableEntry::NOT_PRESENT.is_present());
        assert_eq!(PageTableEntry::default(), PageTableEntry::NOT_PRESENT);
    }

    #[test]
    fn ignored_bits_do_not_disturb_translation() {
        let mut pte = PageTableEntry::new_leaf(PhysFrameNum::new(0xfffff), Permissions::READ_WRITE);
        pte.set_ignored_bits(0x7ff);
        assert_eq!(pte.pfn(), PhysFrameNum::new(0xfffff));
        assert!(pte.is_present());
        assert_eq!(pte.ignored_bits(), 0x7ff);
        pte.set_ignored_bits(0);
        assert_eq!(pte.ignored_bits(), 0);
        assert_eq!(pte.permissions(), Permissions::READ_WRITE);
    }

    #[test]
    #[should_panic(expected = "11 bits")]
    fn oversized_ignored_bits_panic() {
        PageTableEntry::NOT_PRESENT.clone().set_ignored_bits(1 << 11);
    }

    #[test]
    fn distributed_contiguity_roundtrip() {
        for value in [0u64, 1, 7, 2047, 2048, 40_000, MAX_CONTIGUITY] {
            let mut block = [PageTableEntry::NOT_PRESENT; PTES_PER_CACHE_BLOCK];
            write_distributed_contiguity(&mut block, value);
            assert_eq!(read_distributed_contiguity(&block), value, "value {value}");
        }
    }

    #[test]
    fn distributed_contiguity_saturates() {
        let mut block = [PageTableEntry::NOT_PRESENT; PTES_PER_CACHE_BLOCK];
        write_distributed_contiguity(&mut block, u64::MAX);
        assert_eq!(read_distributed_contiguity(&block), MAX_CONTIGUITY);
    }

    #[test]
    fn distributed_field_spans_exactly_two_ptes() {
        let mut block = [PageTableEntry::NOT_PRESENT; PTES_PER_CACHE_BLOCK];
        write_distributed_contiguity(&mut block, MAX_CONTIGUITY);
        assert_ne!(block[0].ignored_bits(), 0);
        assert_ne!(block[1].ignored_bits(), 0);
        assert!(block[2..].iter().all(|p| p.ignored_bits() == 0));
    }

    #[test]
    fn contiguity_bits_coexist_with_live_translations() {
        let mut block: [PageTableEntry; 8] = core::array::from_fn(|i| {
            PageTableEntry::new_leaf(PhysFrameNum::new(100 + i as u64), Permissions::READ_WRITE)
        });
        write_distributed_contiguity(&mut block, 12_345);
        assert_eq!(read_distributed_contiguity(&block), 12_345);
        for (i, pte) in block.iter().enumerate() {
            assert_eq!(pte.pfn(), PhysFrameNum::new(100 + i as u64));
        }
    }
}
