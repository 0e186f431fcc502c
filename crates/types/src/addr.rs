//! Strongly-typed virtual addresses and page/frame numbers.

use crate::PAGE_SHIFT;
use core::fmt;
use core::ops::{Add, AddAssign, Sub};

macro_rules! addr_common {
    ($ty:ident, $doc:literal) => {
        #[doc = $doc]
        #[derive(
            Clone,
            Copy,
            PartialEq,
            Eq,
            Hash,
            PartialOrd,
            Ord,
            Default,
            serde::Serialize,
            serde::Deserialize,
        )]
        pub struct $ty(u64);

        impl $ty {
            /// Wraps a raw 64-bit value.
            #[must_use]
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit value.
            #[must_use]
            #[inline]
            pub const fn as_u64(self) -> u64 {
                self.0
            }

            /// Checked distance to another value of the same domain;
            /// `None` when `rhs` is larger. The loud alternative to raw
            /// `u64` subtraction, which silently wraps in release builds.
            #[must_use]
            #[inline]
            pub fn checked_sub(self, rhs: Self) -> Option<u64> {
                self.0.checked_sub(rhs.0)
            }

            /// Offset of this value inside its aligned `span`-sized group
            /// (`self % span`): the page-offset-style helper for cluster /
            /// window / anchor-region subindexing.
            ///
            /// # Panics
            ///
            /// Panics if `span` is zero.
            #[must_use]
            #[inline]
            pub const fn offset_within(self, span: u64) -> u64 {
                self.0 % span
            }

            /// Extracts `(self >> shift) & mask` as a set index — the one
            /// sanctioned path from an address-domain value to a TLB /
            /// page-table array index. `mask` must be a low-bit mask
            /// (`sets - 1`), which callers obtain from power-of-two set
            /// counts.
            #[must_use]
            #[inline]
            pub const fn index_bits(self, shift: u32, mask: u64) -> usize {
                crate::usize_from((self.0 >> shift) & mask)
            }
        }

        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($ty), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $ty {
            #[inline]
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$ty> for u64 {
            #[inline]
            fn from(v: $ty) -> u64 {
                v.0
            }
        }

        impl Add<u64> for $ty {
            type Output = Self;
            #[inline]
            fn add(self, rhs: u64) -> Self {
                Self(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $ty {
            #[inline]
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<$ty> for $ty {
            type Output = u64;
            #[inline]
            fn sub(self, rhs: $ty) -> u64 {
                self.0 - rhs.0
            }
        }
    };
}

addr_common!(VirtAddr, "A byte address in a process virtual address space.");
addr_common!(VirtPageNum, "A virtual page number (virtual address divided by the 4 KB page size).");
addr_common!(
    PhysFrameNum,
    "A physical frame number (physical address divided by the 4 KB page size)."
);

impl VirtAddr {
    /// Virtual page number containing this address.
    #[must_use]
    #[inline]
    pub const fn page_number(self) -> VirtPageNum {
        VirtPageNum::new(self.0 >> PAGE_SHIFT)
    }
}

impl VirtPageNum {
    /// First byte address of the page.
    #[must_use]
    #[inline]
    pub const fn base_addr(self) -> VirtAddr {
        VirtAddr::new(self.0 << PAGE_SHIFT)
    }

    /// Aligns this VPN down to a multiple of `alignment` pages.
    ///
    /// Used to locate the anchor VPN: `vpn.align_down(anchor_distance)`.
    ///
    /// # Panics
    ///
    /// Panics if `alignment` is not a power of two.
    #[must_use]
    #[inline]
    pub fn align_down(self, alignment: u64) -> Self {
        assert!(alignment.is_power_of_two(), "alignment must be a power of two");
        Self(self.0 & !(alignment - 1))
    }

    /// `true` when this VPN is a multiple of `alignment` pages.
    #[must_use]
    #[inline]
    pub fn is_aligned(self, alignment: u64) -> bool {
        self.align_down(alignment) == self
    }
}

impl PhysFrameNum {
    /// Aligns this PFN down to a multiple of `alignment` frames.
    ///
    /// # Panics
    ///
    /// Panics if `alignment` is not a power of two.
    #[must_use]
    #[inline]
    pub fn align_down(self, alignment: u64) -> Self {
        assert!(alignment.is_power_of_two(), "alignment must be a power of two");
        Self(self.0 & !(alignment - 1))
    }

    /// `true` when this PFN is a multiple of `alignment` frames.
    #[must_use]
    #[inline]
    pub fn is_aligned(self, alignment: u64) -> bool {
        self.align_down(alignment) == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn va_splits_into_vpn_and_offset() {
        let va = VirtAddr::new(0x1234_5678);
        assert_eq!(va.page_number(), VirtPageNum::new(0x12345));
        assert_eq!(va.page_number().base_addr(), VirtAddr::new(0x1234_5000));
    }

    #[test]
    fn vpn_alignment() {
        let vpn = VirtPageNum::new(0x1235);
        assert_eq!(vpn.align_down(16), VirtPageNum::new(0x1230));
        assert!(!vpn.is_aligned(16));
        assert!(VirtPageNum::new(0x1230).is_aligned(16));
        assert_eq!(vpn.align_down(1), vpn);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn vpn_alignment_requires_power_of_two() {
        let _ = VirtPageNum::new(7).align_down(3);
    }

    #[test]
    fn arithmetic_and_conversions() {
        let a = VirtPageNum::new(10);
        let b = a + 5;
        assert_eq!(b - a, 5);
        let mut c = a;
        c += 2;
        assert_eq!(c, VirtPageNum::new(12));
        assert_eq!(u64::from(b), 15);
        assert_eq!(VirtPageNum::from(15u64), b);
    }

    #[test]
    fn checked_sub_and_index_helpers() {
        let a = VirtPageNum::new(10);
        let b = VirtPageNum::new(3);
        assert_eq!(a.checked_sub(b), Some(7));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(VirtPageNum::new(13).offset_within(8), 5);
        assert_eq!(PhysFrameNum::new(0xabcd).index_bits(4, 0xff), 0xbc);
        assert_eq!(VirtPageNum::new(0x1234).index_bits(0, 0x7f), 0x34);
    }

    #[test]
    fn debug_and_hex_formatting() {
        let vpn = VirtPageNum::new(0xff);
        assert_eq!(format!("{vpn:?}"), "VirtPageNum(0xff)");
        assert_eq!(format!("{vpn:x}"), "ff");
        assert_eq!(format!("{vpn:X}"), "FF");
        assert_eq!(vpn.to_string(), "0xff");
    }
}
