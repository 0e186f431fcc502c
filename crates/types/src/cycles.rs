//! Cycle accounting for the translation timing model.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul};

/// A count of processor cycles spent in address translation.
///
/// The paper's timing model (Table 3) charges 7 cycles for a regular L2 TLB
/// hit, 8 cycles for an anchor/cluster/range hit and 50 cycles for a page
/// table walk; L1 hits are free because the L1 TLB is accessed in parallel
/// with the L1 cache.
///
/// ```
/// use hytlb_types::Cycles;
/// let total = Cycles::new(7) + Cycles::new(50);
/// assert_eq!(total.as_u64(), 57);
/// ```
#[derive(
    Debug,
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
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Wraps a raw cycle count.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw cycle count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(raw: u64) -> Self {
        Cycles(raw)
    }
}

impl From<Cycles> for u64 {
    fn from(c: Cycles) -> u64 {
        c.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let mut c = Cycles::ZERO;
        c += Cycles::new(7);
        assert_eq!(c + Cycles::new(3), Cycles::new(10));
        assert_eq!(Cycles::new(8) * 4, Cycles::new(32));
        let total: Cycles = [Cycles::new(1), Cycles::new(2), Cycles::new(3)].into_iter().sum();
        assert_eq!(total, Cycles::new(6));
    }

    #[test]
    fn display() {
        assert_eq!(Cycles::new(50).to_string(), "50 cyc");
    }
}
