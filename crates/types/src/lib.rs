//! Fundamental types shared by every `hytlb` crate.
//!
//! The crate defines strongly-typed wrappers for virtual addresses and
//! virtual/physical page numbers, page-size constants matching the x86-64
//! architecture modelled by the paper, access permissions, and the cycle
//! accounting unit used by the timing model.
//!
//! # Examples
//!
//! ```
//! use hytlb_types::{VirtAddr, VirtPageNum, PAGE_SIZE_U64};
//!
//! let va = VirtAddr::new(0x7f00_1234_5678);
//! let vpn = va.page_number();
//! assert_eq!(vpn.base_addr().as_u64() % PAGE_SIZE_U64, 0);
//! assert_eq!(vpn.base_addr().as_u64() + 0x678, va.as_u64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cycles;
mod perm;

pub use addr::{PhysFrameNum, VirtAddr, VirtPageNum};
pub use cycles::Cycles;
pub use perm::Permissions;

/// Number of bits in the page offset of a base (4 KB) page.
pub const PAGE_SHIFT: u32 = 12;

/// Size of a base page in bytes (4 KB).
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// [`PAGE_SIZE`] as a `u64`, for byte/page arithmetic on raw 64-bit
/// addresses without a cast at every call site (`hytlb-audit` rule R1
/// bans raw address-domain `as` casts outside this crate).
pub const PAGE_SIZE_U64: u64 = PAGE_SIZE as u64;

// The simulator manipulates 64-bit VPN/PFN values and indexes host-side
// arrays with them; a 32-bit host would silently truncate. Refuse to
// compile rather than corrupt figures.
const _: () = assert!(usize::BITS >= u64::BITS, "hytlb requires a 64-bit target");

/// Converts a `u64` index/count to `usize` losslessly.
///
/// The single sanctioned integer narrowing point for address-derived
/// values (set indices, window numbers, cluster numbers): the crate only
/// compiles on targets where `usize` is at least 64 bits wide, so this is
/// a bit-exact move, unlike an unchecked `as usize` at the call site.
#[must_use]
pub const fn usize_from(v: u64) -> usize {
    v as usize
}

/// Converts a small `u64` (a sub-page offset, a frame offset inside a
/// cluster) to `u8`, panicking loudly instead of truncating.
///
/// # Panics
///
/// Panics if `v` does not fit in 8 bits.
#[must_use]
pub const fn u8_from(v: u64) -> u8 {
    assert!(v <= u8::MAX as u64, "value does not fit in 8 bits");
    v as u8
}

/// Number of base pages in an x86-64 large page (2 MB / 4 KB = 512).
pub const HUGE_PAGE_PAGES: u64 = 512;

/// Size of an x86-64 large page in bytes (2 MB).
pub const HUGE_PAGE_SIZE: usize = PAGE_SIZE * HUGE_PAGE_PAGES as usize;

/// Number of base pages in an x86-64 giant page (1 GB / 4 KB = 262144).
pub const GIANT_PAGE_PAGES: u64 = 512 * 512;

/// Size of an x86-64 giant page in bytes (1 GB).
pub const GIANT_PAGE_SIZE: usize = PAGE_SIZE * GIANT_PAGE_PAGES as usize;

/// Number of page-table entries per 64-byte cache block (8 × 8-byte PTEs).
///
/// Anchor contiguity bits wider than a single PTE's ignored field are
/// distributed over the entries of one cache block (paper §3.1).
pub const PTES_PER_CACHE_BLOCK: usize = 8;

/// Supported translation granularities.
///
/// The paper's evaluated configuration uses 4 KB and 2 MB (Table 3);
/// 1 GB pages — which x86-64 serves from "a separate and smaller 1GB page
/// L2 TLB" (§2.1) — are modelled as well for the page-size-scalability
/// extension experiments.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum PageSize {
    /// Base 4 KB page.
    Base4K,
    /// x86-64 2 MB large page.
    Huge2M,
    /// x86-64 1 GB giant page.
    Giant1G,
}

impl PageSize {
    /// Size of the page in bytes.
    ///
    /// ```
    /// use hytlb_types::PageSize;
    /// assert_eq!(PageSize::Base4K.bytes(), 4096);
    /// assert_eq!(PageSize::Huge2M.bytes(), 2 * 1024 * 1024);
    /// assert_eq!(PageSize::Giant1G.bytes(), 1024 * 1024 * 1024);
    /// ```
    #[must_use]
    pub const fn bytes(self) -> usize {
        match self {
            PageSize::Base4K => PAGE_SIZE,
            PageSize::Huge2M => HUGE_PAGE_SIZE,
            PageSize::Giant1G => GIANT_PAGE_SIZE,
        }
    }

    /// Number of base (4 KB) pages covered by one page of this size.
    #[must_use]
    pub const fn base_pages(self) -> u64 {
        match self {
            PageSize::Base4K => 1,
            PageSize::Huge2M => HUGE_PAGE_PAGES,
            PageSize::Giant1G => GIANT_PAGE_PAGES,
        }
    }

    /// log2 of the page size in bytes.
    #[must_use]
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Base4K => PAGE_SHIFT,
            PageSize::Huge2M => PAGE_SHIFT + 9,
            PageSize::Giant1G => PAGE_SHIFT + 18,
        }
    }
}

impl core::fmt::Display for PageSize {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PageSize::Base4K => f.write_str("4KB"),
            PageSize::Huge2M => f.write_str("2MB"),
            PageSize::Giant1G => f.write_str("1GB"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_constants_are_consistent() {
        assert_eq!(PAGE_SIZE, 4096);
        assert_eq!(HUGE_PAGE_SIZE, 2 * 1024 * 1024);
        assert_eq!(HUGE_PAGE_PAGES * PAGE_SIZE as u64, HUGE_PAGE_SIZE as u64);
        assert_eq!(PageSize::Base4K.base_pages(), 1);
        assert_eq!(PageSize::Huge2M.base_pages(), 512);
    }

    #[test]
    fn page_size_shift_matches_bytes() {
        for size in [PageSize::Base4K, PageSize::Huge2M] {
            assert_eq!(1usize << size.shift(), size.bytes());
        }
    }

    #[test]
    fn page_size_display() {
        assert_eq!(PageSize::Base4K.to_string(), "4KB");
        assert_eq!(PageSize::Huge2M.to_string(), "2MB");
    }

    #[test]
    fn page_size_orders_by_coverage() {
        assert!(PageSize::Base4K < PageSize::Huge2M);
    }

    #[test]
    fn lossless_narrowing_helpers() {
        assert_eq!(PAGE_SIZE_U64, 4096);
        assert_eq!(usize_from(u64::MAX), u64::MAX as usize);
        assert_eq!(u8_from(255), 255);
        assert_eq!(u8_from(0), 0);
    }

    #[test]
    #[should_panic(expected = "8 bits")]
    fn u8_from_rejects_wide_values() {
        let _ = u8_from(256);
    }
}
