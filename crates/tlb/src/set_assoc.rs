//! Generic set-associative TLB array with true-LRU replacement.

/// One way of a set: tag and payload.
#[derive(Debug, Clone)]
struct Way<P> {
    tag: u64,
    payload: P,
}

/// A set-associative array of translation entries.
///
/// The array knows nothing about address formats: callers compute the set
/// index and tag. This mirrors the paper's design point — hybrid coalescing
/// reuses the existing L2 TLB array unchanged and only alters which address
/// bits form the index and tag for anchor entries (Figure 6).
///
/// Replacement is true LRU per set: each set keeps its ways in recency
/// order, most recent first. Hits and insertions move their way to the
/// front, and a fill into a full set replaces the last way.
#[derive(Debug, Clone)]
pub struct SetAssocTlb<P> {
    sets: Vec<Vec<Way<P>>>,
    ways: usize,
}

impl<P> SetAssocTlb<P> {
    /// Creates an array of `sets` sets × `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "associativity must be at least 1");
        SetAssocTlb { sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(), ways }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total entry capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// This array's [`TlbGeometry`] under the given display label.
    #[must_use]
    pub fn geometry(&self, label: &'static str) -> crate::TlbGeometry {
        crate::TlbGeometry {
            label,
            sets: self.sets.len(),
            ways: self.ways,
            index_mask: (self.sets.len() as u64) - 1,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// `true` when no entry is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    /// Looks up `(set, tag)`, refreshing LRU recency on a hit.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn lookup(&mut self, set: usize, tag: u64) -> Option<&P> {
        let ways = &mut self.sets[set];
        let idx = ways.iter().position(|w| w.tag == tag)?;
        ways[..=idx].rotate_right(1);
        Some(&ways[0].payload)
    }

    /// Looks up without touching LRU state — a "peek", useful for fills
    /// that must not perturb recency and for assertions in tests.
    #[must_use]
    pub fn peek(&self, set: usize, tag: u64) -> Option<&P> {
        self.sets[set].iter().find(|w| w.tag == tag).map(|w| &w.payload)
    }

    /// Inserts `(set, tag, payload)`, replacing an existing entry with the
    /// same tag or evicting the LRU way of a full set. Returns the evicted
    /// `(tag, payload)`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn insert(&mut self, set: usize, tag: u64, payload: P) -> Option<(u64, P)> {
        let ways = &mut self.sets[set];
        let old = match ways.iter().position(|w| w.tag == tag) {
            Some(idx) => Some(ways.remove(idx)),
            None if ways.len() == self.ways => ways.pop(),
            None => None,
        };
        ways.insert(0, Way { tag, payload });
        old.map(|w| (w.tag, w.payload))
    }

    /// Invalidates everything (TLB shootdown / full flush).
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }

    /// Iterates over `(set, tag, payload)` of all live entries, set by set,
    /// most recent first within a set.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64, &P)> {
        self.sets
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |w| (i, w.tag, &w.payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_lookup() {
        let mut t: SetAssocTlb<&str> = SetAssocTlb::new(4, 2);
        assert!(t.is_empty());
        assert_eq!(t.insert(1, 100, "a"), None);
        assert_eq!(t.lookup(1, 100), Some(&"a"));
        assert_eq!(t.lookup(1, 101), None);
        assert_eq!(t.lookup(2, 100), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.capacity(), 8);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t: SetAssocTlb<u32> = SetAssocTlb::new(1, 2);
        t.insert(0, 1, 10);
        t.insert(0, 2, 20);
        // Touch tag 1 so tag 2 becomes LRU.
        assert!(t.lookup(0, 1).is_some());
        let evicted = t.insert(0, 3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert!(t.peek(0, 1).is_some());
        assert!(t.peek(0, 3).is_some());
    }

    #[test]
    fn reinsert_same_tag_replaces_payload() {
        let mut t: SetAssocTlb<u32> = SetAssocTlb::new(1, 2);
        t.insert(0, 1, 10);
        let old = t.insert(0, 1, 11);
        assert_eq!(old, Some((1, 10)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.peek(0, 1), Some(&11));
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut t: SetAssocTlb<u32> = SetAssocTlb::new(1, 2);
        t.insert(0, 1, 10);
        t.insert(0, 2, 20);
        let _ = t.peek(0, 1); // must NOT protect tag 1
        let evicted = t.insert(0, 3, 30);
        assert_eq!(evicted, Some((1, 10)));
    }

    #[test]
    fn flush_empties_every_set() {
        let mut t: SetAssocTlb<u32> = SetAssocTlb::new(2, 2);
        t.insert(0, 1, 10);
        t.insert(1, 2, 20);
        t.flush();
        assert!(t.is_empty());
    }

    #[test]
    fn sets_are_independent() {
        let mut t: SetAssocTlb<u32> = SetAssocTlb::new(2, 1);
        t.insert(0, 1, 10);
        t.insert(1, 1, 11);
        assert_eq!(t.lookup(0, 1), Some(&10));
        assert_eq!(t.lookup(1, 1), Some(&11));
    }

    #[test]
    fn iter_visits_all_entries() {
        let mut t: SetAssocTlb<u32> = SetAssocTlb::new(2, 2);
        t.insert(0, 1, 10);
        t.insert(1, 2, 20);
        let mut seen: Vec<_> = t.iter().map(|(s, tag, &p)| (s, tag, p)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 1, 10), (1, 2, 20)]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        let _: SetAssocTlb<u32> = SetAssocTlb::new(3, 2);
    }

    #[test]
    fn stress_never_exceeds_capacity() {
        let mut t: SetAssocTlb<u64> = SetAssocTlb::new(8, 4);
        for i in 0..10_000u64 {
            let set = (i % 8) as usize;
            t.insert(set, i, i);
        }
        assert_eq!(t.len(), t.capacity());
    }
}
