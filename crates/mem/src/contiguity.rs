//! Contiguity histograms and CDFs.
//!
//! Paper §4.1: "the OS maintains a histogram of contiguity distribution. The
//! contiguity histogram holds how many contiguous memory chunks of varying
//! contiguity are allocated to the process." This histogram is the sole
//! input to the dynamic anchor-distance selection algorithm (Algorithm 1),
//! and its CDF view is what Figure 1 plots.

use crate::AddressSpaceMap;
use std::collections::BTreeMap;
use std::fmt;

/// Histogram of contiguous-chunk sizes: `contiguity (pages) → frequency`.
///
/// # Examples
///
/// ```
/// use hytlb_mem::{AddressSpaceMap, ContiguityHistogram};
/// use hytlb_types::{Permissions, PhysFrameNum, VirtPageNum};
///
/// let mut map = AddressSpaceMap::new();
/// map.map_range(VirtPageNum::new(0), PhysFrameNum::new(0), 8, Permissions::READ_WRITE);
/// map.map_range(VirtPageNum::new(8), PhysFrameNum::new(100), 8, Permissions::READ_WRITE);
/// let hist = ContiguityHistogram::from_map(&map);
/// assert_eq!(hist.iter().collect::<Vec<_>>(), [(8, 2)]);
/// assert_eq!(hist.total_pages(), 16);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ContiguityHistogram {
    entries: BTreeMap<u64, u64>,
}

impl ContiguityHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the histogram of an address-space map's maximal chunks.
    #[must_use]
    pub fn from_map(map: &AddressSpaceMap) -> Self {
        let mut h = Self::new();
        for c in map.chunks() {
            h.record(c.len, 1);
        }
        h
    }

    /// Records `freq` additional chunks of `contiguity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `contiguity` is zero — a zero-length chunk cannot exist.
    pub fn record(&mut self, contiguity: u64, freq: u64) {
        assert!(contiguity > 0, "chunks have at least one page");
        if freq > 0 {
            *self.entries.entry(contiguity).or_insert(0) += freq;
        }
    }

    /// Iterates `(contiguity, frequency)` pairs in ascending contiguity.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().map(|(&c, &f)| (c, f))
    }

    /// Total number of chunks.
    fn total_chunks(&self) -> u64 {
        self.entries.values().sum()
    }

    /// Total number of pages across all chunks.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.entries.iter().map(|(&c, &f)| c * f).sum()
    }

    /// Largest chunk size present, or 0 for an empty histogram.
    #[must_use]
    pub fn max_contiguity(&self) -> u64 {
        self.entries.keys().next_back().copied().unwrap_or(0)
    }

    /// `true` when no chunks have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &ContiguityHistogram) {
        for (c, f) in other.iter() {
            self.record(c, f);
        }
    }

    /// Fraction of mapped pages residing in chunks of at most `size` pages.
    /// Returns 0.0 for an empty histogram.
    #[must_use]
    pub fn fraction_in_chunks_up_to(&self, size: u64) -> f64 {
        let total = self.total_pages();
        if total == 0 {
            return 0.0;
        }
        let covered: u64 = self.entries.range(..=size).map(|(&c, &f)| c * f).sum();
        covered as f64 / total as f64
    }

    /// Mean chunk size in pages (0.0 when empty).
    #[must_use]
    pub fn mean_contiguity(&self) -> f64 {
        let chunks = self.total_chunks();
        if chunks == 0 {
            0.0
        } else {
            self.total_pages() as f64 / chunks as f64
        }
    }
}

impl fmt::Display for ContiguityHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} chunks / {} pages (mean {:.1} pages/chunk)",
            self.total_chunks(),
            self.total_pages(),
            self.mean_contiguity()
        )?;
        for (c, freq) in self.iter() {
            writeln!(f, "  {c:>8} pages x {freq}")?;
        }
        Ok(())
    }
}

impl FromIterator<(u64, u64)> for ContiguityHistogram {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut h = Self::new();
        for (c, f) in iter {
            h.record(c, f);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_types::{Permissions, PhysFrameNum, VirtPageNum};

    fn hist(pairs: &[(u64, u64)]) -> ContiguityHistogram {
        pairs.iter().copied().collect()
    }

    #[test]
    fn empty_histogram() {
        let h = ContiguityHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.total_pages(), 0);
        assert_eq!(h.max_contiguity(), 0);
        assert_eq!(h.mean_contiguity(), 0.0);
        assert_eq!(h.fraction_in_chunks_up_to(100), 0.0);
    }

    #[test]
    fn record_and_query() {
        let h = hist(&[(4, 10), (512, 2)]);
        assert_eq!(h.iter().collect::<Vec<_>>(), [(4, 10), (512, 2)]);
        assert_eq!(h.total_chunks(), 12);
        assert_eq!(h.total_pages(), 40 + 1024);
        assert_eq!(h.max_contiguity(), 512);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_contiguity_rejected() {
        ContiguityHistogram::new().record(0, 1);
    }

    #[test]
    fn zero_frequency_is_ignored() {
        let mut h = ContiguityHistogram::new();
        h.record(8, 0);
        assert!(h.is_empty());
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let h = hist(&[(1, 100), (16, 10), (512, 1)]);
        let cdf: Vec<f64> = h.iter().map(|(c, _)| h.fraction_in_chunks_up_to(c)).collect();
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(cdf.last(), Some(&1.0));
        // 100 pages of 772 total are in 1-page chunks.
        assert!((h.fraction_in_chunks_up_to(1) - 100.0 / 772.0).abs() < 1e-12);
        assert_eq!(h.fraction_in_chunks_up_to(1024), 1.0);
    }

    #[test]
    fn from_map_counts_maximal_chunks() {
        let mut m = AddressSpaceMap::new();
        m.map_range(VirtPageNum::new(0), PhysFrameNum::new(0), 8, Permissions::READ_WRITE);
        m.map_range(VirtPageNum::new(100), PhysFrameNum::new(500), 8, Permissions::READ_WRITE);
        m.map_range(VirtPageNum::new(200), PhysFrameNum::new(900), 3, Permissions::READ_WRITE);
        let h = ContiguityHistogram::from_map(&m);
        assert_eq!(h.iter().collect::<Vec<_>>(), [(3, 1), (8, 2)]);
        assert_eq!(h.total_pages(), m.mapped_pages());
    }

    #[test]
    fn merge_adds_frequencies() {
        let mut a = hist(&[(4, 1)]);
        let b = hist(&[(4, 2), (8, 1)]);
        a.merge(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), [(4, 3), (8, 1)]);
    }

    #[test]
    fn mean_contiguity() {
        let h = hist(&[(2, 2), (6, 2)]);
        assert!((h.mean_contiguity() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_summary() {
        let h = hist(&[(4, 2)]);
        let s = h.to_string();
        assert!(s.contains("2 chunks"));
        assert!(s.contains("8 pages"));
    }
}
