//! Page access permissions.
//!
//! The paper (§3.3, "Permission and Page Sharing") treats a page whose
//! permissions differ from its anchor's as non-contiguous: such a page must
//! not be translated through the anchor entry. The simulator therefore
//! carries permissions on every mapping and the anchored page table breaks
//! contiguity runs at permission boundaries.

use core::fmt;
use core::ops::{BitAnd, BitOr};

/// Read/write/execute permission bits for a mapped page.
///
/// A tiny hand-rolled flag set (the project avoids a `bitflags` dependency;
/// three bits do not justify one).
///
/// ```
/// use hytlb_types::Permissions;
/// let rw = Permissions::READ | Permissions::WRITE;
/// assert!(rw.contains(Permissions::READ));
/// assert!(!rw.contains(Permissions::EXECUTE));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize)]
pub struct Permissions(u8);

impl Permissions {
    /// No access.
    pub const NONE: Permissions = Permissions(0);
    /// Readable.
    pub const READ: Permissions = Permissions(0b001);
    /// Writable.
    pub const WRITE: Permissions = Permissions(0b010);
    /// Executable.
    pub const EXECUTE: Permissions = Permissions(0b100);
    /// Readable and writable — the common data-page permission.
    pub const READ_WRITE: Permissions = Permissions(0b011);

    /// `true` if every bit of `other` is set in `self`.
    #[must_use]
    pub const fn contains(self, other: Permissions) -> bool {
        self.0 & other.0 == other.0
    }

    /// Raw bit representation (bit 0 = R, bit 1 = W, bit 2 = X).
    #[must_use]
    pub const fn bits(self) -> u8 {
        self.0
    }
}

impl BitOr for Permissions {
    type Output = Permissions;
    fn bitor(self, rhs: Permissions) -> Permissions {
        Permissions(self.0 | rhs.0)
    }
}

impl BitAnd for Permissions {
    type Output = Permissions;
    fn bitand(self, rhs: Permissions) -> Permissions {
        Permissions(self.0 & rhs.0)
    }
}

impl fmt::Debug for Permissions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Permissions({self})")
    }
}

impl fmt::Display for Permissions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = if self.contains(Permissions::READ) { 'r' } else { '-' };
        let w = if self.contains(Permissions::WRITE) { 'w' } else { '-' };
        let x = if self.contains(Permissions::EXECUTE) { 'x' } else { '-' };
        write!(f, "{r}{w}{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_ops() {
        let rwx = Permissions::READ | Permissions::WRITE | Permissions::EXECUTE;
        assert!(rwx.contains(Permissions::READ_WRITE));
        assert_eq!(rwx & Permissions::WRITE, Permissions::WRITE);
        assert!(Permissions::NONE.contains(Permissions::NONE));
        assert!(!Permissions::READ.contains(Permissions::WRITE));
    }

    #[test]
    fn display_is_ls_style() {
        assert_eq!(Permissions::READ_WRITE.to_string(), "rw-");
        assert_eq!(Permissions::NONE.to_string(), "---");
        assert_eq!((Permissions::READ | Permissions::EXECUTE).to_string(), "r-x");
        assert_eq!(format!("{:?}", Permissions::READ), "Permissions(r--)");
    }
}
