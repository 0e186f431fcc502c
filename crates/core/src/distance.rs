//! Dynamic anchor-distance selection — Algorithm 1 of the paper.
//!
//! For every candidate distance `d` the OS estimates the *capacity cost* of
//! covering the process's footprint with TLB entries: each chunk of
//! contiguity `c` needs `⌊c/d⌋` anchor entries, the remainder is covered by
//! `⌊(c mod d)/512⌋` 2 MB entries and `(c mod d) mod 512` 4 KB entries.
//! Each entry type is then weighed by the inverse of its coverage ("weigh
//! down costs of entries with larger coverage"), and the distance with the
//! minimum total cost wins. Access frequency is deliberately *not* used —
//! the paper's selector works from the static mapping snapshot alone.

use hytlb_mem::ContiguityHistogram;
use hytlb_pagetable::is_valid_anchor_distance;
use hytlb_types::HUGE_PAGE_PAGES;

/// The L2 TLB entry budget assumed by [`CostModel::CapacityAware`] —
/// the paper's 1024-entry shared L2 (Table 3).
pub const L2_ENTRY_BUDGET: u64 = 1024;

/// How the capacity cost of a candidate distance is computed.
///
/// Algorithm 1's prose says the weight of each entry type is "the inverse
/// of the coverage of each type", and the pseudocode adds
/// `anchors/anch_dist + large_pgs/512 + pages`. Implemented literally
/// ([`CostModel::InverseCoverage`]), that weighting makes anchor entries
/// nearly free and the leftover 4 KB pages dominate, selecting d = 8 for
/// the medium-contiguity mapping — while the paper's own Table 6 reports
/// 16–32 there. Plain entry counting ([`CostModel::FlatCount`]) fixes the
/// synthetic regimes, and on the bimodal canneal/demand mapping of the
/// cost-model ablation (the archived default-scale
/// `results/ablations.txt`) it selects the same 1K distance as the
/// default, with the same walk count; no archived result shows it
/// mis-selecting. It ignores the TLB's capacity, though, which the
/// paper's aim is about.
///
/// The default, [`CostModel::CapacityAware`], implements the
/// paper's *stated aim* — "minimize the number of TLB entries … required
/// to provide coverage for the active pages" — directly: given the
/// 1024-entry L2 budget, it counts the pages left uncovered when the
/// highest-coverage entries are cached first (which is also how LRU
/// behaves, since wide entries are re-touched most), with total entry
/// count as the tie-break. This reproduces every regime of the paper's
/// Table 6 and tracks the measured static-ideal sweep; the exhaustive
/// comparison is in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum CostModel {
    /// Algorithm 1's pseudocode taken literally: entry counts weighted by
    /// inverse coverage (an anchor entry of distance `d` weighs `1/d`, a
    /// 2 MB entry `1/512`, a 4 KB entry `1`).
    InverseCoverage,
    /// Plain entry counting — minimizes TLB entries needed to cover the
    /// footprint, ignoring the TLB's capacity.
    FlatCount,
    /// Pages left uncovered by the [`L2_ENTRY_BUDGET`] highest-coverage
    /// entries, tie-broken by total entry count.
    #[default]
    CapacityAware,
}

/// The distance-selection policy: candidate set, cost model and the
/// hysteresis that keeps the distance stable across epochs (§4.1,
/// "Distance Stability").
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DistanceSelector {
    candidates: Vec<u64>,
    cost_model: CostModel,
    /// Minimum relative cost improvement required to change an already
    /// selected distance. 0.0 re-selects greedily every epoch.
    hysteresis: f64,
}

impl Default for DistanceSelector {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl DistanceSelector {
    /// The paper's configuration: candidates `[2, 4, 8, …, 2^16]`, the
    /// Table 6-reproducing cost model, 10 % hysteresis.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::paper(CostModel::default())
    }

    /// The paper's candidates `[2, 4, 8, …, 2^16]` and 10 % hysteresis
    /// under `cost_model`.
    #[must_use]
    pub fn paper(cost_model: CostModel) -> Self {
        Self::new((1..=16).map(|s| 1u64 << s).collect(), cost_model, 0.10)
    }

    /// Builds a selector with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty, contains a distance that is not a
    /// power of two in `[2, 65536]` (the range an anchor PTE can hold), or
    /// `hysteresis` is negative/NaN.
    #[must_use]
    pub fn new(candidates: Vec<u64>, cost_model: CostModel, hysteresis: f64) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate distance");
        assert!(
            candidates.iter().all(|&d| is_valid_anchor_distance(d)),
            "anchor distances are powers of two in [2, 65536]"
        );
        assert!(hysteresis >= 0.0, "hysteresis must be non-negative");
        DistanceSelector { candidates, cost_model, hysteresis }
    }

    /// Candidate distances considered.
    #[must_use]
    pub fn candidates(&self) -> &[u64] {
        &self.candidates
    }

    /// The capacity cost of covering `histogram` with anchor distance
    /// `distance` (Algorithm 1's inner loop).
    #[must_use]
    pub fn cost(&self, distance: u64, histogram: &ContiguityHistogram) -> f64 {
        let mut total = 0.0;
        let mut anchors_total = 0u64;
        let mut large_total = 0u64;
        let mut pages_total = 0u64;
        for (cont, freq) in histogram.iter() {
            let anchors = cont / distance;
            let remainder = cont % distance;
            let large_pgs = remainder / HUGE_PAGE_PAGES;
            let pages = remainder % HUGE_PAGE_PAGES;
            match self.cost_model {
                CostModel::InverseCoverage => {
                    let freq = freq as f64;
                    total += freq * anchors as f64 / distance as f64;
                    total += freq * large_pgs as f64 / HUGE_PAGE_PAGES as f64;
                    total += freq * pages as f64;
                }
                CostModel::FlatCount => {
                    total += freq as f64 * (anchors + large_pgs + pages) as f64;
                }
                CostModel::CapacityAware => {
                    anchors_total += anchors * freq;
                    large_total += large_pgs * freq;
                    pages_total += pages * freq;
                }
            }
        }
        if self.cost_model == CostModel::CapacityAware {
            // Two penalties, summed:
            //  * `uncovered` — pages beyond the reach of the 1024-entry
            //    budget when the widest entries are cached first (LRU
            //    keeps them resident: a d-page anchor is re-touched d
            //    times as often as a 4 KB entry). Dominates when the TLB
            //    *can* cover a meaningful share of the footprint.
            //  * `entries` — the total entry count, which tracks the cold
            //    / streaming miss cost (one fill per entry touched) and
            //    decides between candidates when the footprint dwarfs the
            //    budget and `uncovered` is flat.
            // The sum tracks the measured static-ideal sweep across all
            // six scenarios (see EXPERIMENTS.md); ties break toward the
            // smaller distance in `select`.
            let mut kinds =
                [(distance, anchors_total), (HUGE_PAGE_PAGES, large_total), (1, pages_total)];
            kinds.sort_unstable_by_key(|&(coverage, _)| core::cmp::Reverse(coverage));
            let mut budget = L2_ENTRY_BUDGET;
            let mut covered = 0u64;
            for (coverage, count) in kinds {
                let take = count.min(budget);
                covered += take * coverage;
                budget -= take;
            }
            let uncovered = histogram.total_pages().saturating_sub(covered);
            let entries = anchors_total + large_total + pages_total;
            total = (uncovered + entries) as f64;
        }
        total
    }

    /// Picks the candidate with minimum cost; ties break toward the
    /// *smaller* distance (cheaper to re-anchor away from later).
    /// An empty histogram selects the smallest candidate.
    #[must_use]
    pub fn select(&self, histogram: &ContiguityHistogram) -> u64 {
        self.candidates
            .iter()
            .copied()
            .map(|d| (d, self.cost(d, histogram)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are finite").then(a.0.cmp(&b.0)))
            .map(|(d, _)| d)
            .expect("candidates nonempty")
    }

    /// Epoch re-check with hysteresis: returns `Some(new_distance)` only if
    /// switching from `current` saves more than the hysteresis fraction of
    /// the current cost (or `current` is not a candidate at all).
    #[must_use]
    pub fn should_change(&self, histogram: &ContiguityHistogram, current: u64) -> Option<u64> {
        let best = self.select(histogram);
        if best == current {
            return None;
        }
        let cur_cost = self.cost(current, histogram);
        let best_cost = self.cost(best, histogram);
        if cur_cost <= 0.0 {
            return None;
        }
        ((cur_cost - best_cost) / cur_cost > self.hysteresis).then_some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(pairs: &[(u64, u64)]) -> ContiguityHistogram {
        pairs.iter().copied().collect()
    }

    #[test]
    fn candidates_match_paper() {
        let s = DistanceSelector::paper_default();
        assert_eq!(s.candidates().first(), Some(&2));
        assert_eq!(s.candidates().last(), Some(&65_536));
        assert_eq!(s.candidates().len(), 16);
    }

    #[test]
    fn uniform_small_chunks_pick_matching_distance() {
        // All chunks are exactly 4 pages: d = 4 is optimal (one anchor per
        // chunk at weight 1/4; d = 2 needs two anchors at weight 1/2 each;
        // d = 8 covers nothing and leaves 4 raw pages).
        let s = DistanceSelector::paper_default();
        assert_eq!(s.select(&hist(&[(4, 100)])), 4);
    }

    #[test]
    fn chunks_of_64kb_pick_16_pages() {
        // The paper's own example (§3.1): 64 KB chunks → distance 16.
        let s = DistanceSelector::paper_default();
        assert_eq!(s.select(&hist(&[(16, 1000)])), 16);
    }

    #[test]
    fn huge_chunks_pick_large_distances() {
        // A footprint dominated by 2^14-page chunks wants d = 2^14.
        let s = DistanceSelector::paper_default();
        assert_eq!(s.select(&hist(&[(1 << 14, 64)])), 1 << 14);
    }

    #[test]
    fn mixed_histogram_balances_types() {
        // Mostly 4-page chunks plus a little slack: small distance wins
        // because large distances strand the small chunks as raw pages.
        let s = DistanceSelector::paper_default();
        let h = hist(&[(4, 10_000), (512, 2)]);
        assert_eq!(s.select(&h), 4);
    }

    #[test]
    fn tie_breaks_toward_smaller_distance() {
        // 512-page chunks: d = 512 (one anchor, weight 1/512) ties with
        // every larger d (one 2 MB entry, weight 1/512). Smaller wins.
        let s = DistanceSelector::paper_default();
        assert_eq!(s.select(&hist(&[(512, 100)])), 512);
    }

    #[test]
    fn empty_histogram_selects_smallest() {
        let s = DistanceSelector::paper_default();
        assert_eq!(s.select(&ContiguityHistogram::new()), 2);
    }

    #[test]
    fn cost_is_zero_for_perfectly_covered_footprint_at_flat_model() {
        let s = DistanceSelector::new(vec![4], CostModel::FlatCount, 0.0);
        // 4-page chunks at d = 4: one anchor each, flat cost = count.
        assert_eq!(s.cost(4, &hist(&[(4, 10)])), 10.0);
    }

    #[test]
    fn inverse_coverage_beats_flat_on_scalability() {
        // Under the paper's weights a 2^14 distance is strictly better for
        // 2^14 chunks than d = 512; flat counting sees 1 entry vs 32 and
        // agrees here, but disagrees on weighting magnitude.
        let inv = DistanceSelector::new(vec![512, 1 << 14], CostModel::InverseCoverage, 0.0);
        let h = hist(&[(1 << 14, 8)]);
        assert_eq!(inv.select(&h), 1 << 14);
        assert!(inv.cost(1 << 14, &h) < inv.cost(512, &h));
    }

    #[test]
    fn hysteresis_suppresses_marginal_changes() {
        let s = DistanceSelector::new(vec![2, 4], CostModel::InverseCoverage, 0.5);
        // d = 4 is optimal for 4-page chunks but the improvement over the
        // current d = 2 must exceed 50% of the current cost.
        let h = hist(&[(4, 100)]);
        // cost(2) = 100 * 2/2 = 100; cost(4) = 100 * 1/4 = 25 → 75% saving.
        assert_eq!(s.should_change(&h, 2), Some(4));
        let tight = DistanceSelector::new(vec![2, 4], CostModel::InverseCoverage, 0.9);
        assert_eq!(tight.should_change(&h, 2), None);
    }

    #[test]
    fn no_change_when_already_optimal() {
        let s = DistanceSelector::paper_default();
        let h = hist(&[(16, 100)]);
        assert_eq!(s.should_change(&h, 16), None);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_candidate_panics() {
        let _ = DistanceSelector::new(vec![3], CostModel::InverseCoverage, 0.0);
    }

    /// A selector may only choose distances every kernel boot accepts.
    #[test]
    #[should_panic(expected = "powers of two in [2, 65536]")]
    fn distance_one_candidate_panics() {
        let _ = DistanceSelector::new(vec![1], CostModel::FlatCount, 0.1);
    }

    #[test]
    #[should_panic(expected = "powers of two in [2, 65536]")]
    fn candidate_beyond_the_anchor_field_panics() {
        let _ = DistanceSelector::new(vec![1 << 17], CostModel::FlatCount, 0.1);
    }

    #[test]
    fn selection_reflects_scenario_contiguity_ordering() {
        use hytlb_mem::Scenario;
        let s = DistanceSelector::paper_default();
        let d_of = |sc: Scenario| {
            // Large footprint (1 GB) so every scenario expresses its full
            // chunk-size range.
            let m = sc.generate(1 << 18, 11);
            s.select(&ContiguityHistogram::from_map(&m))
        };
        let low = d_of(Scenario::LowContiguity);
        let med = d_of(Scenario::MediumContiguity);
        let high = d_of(Scenario::HighContiguity);
        let max = d_of(Scenario::MaxContiguity);
        assert!(low <= med && med <= high && high <= max, "{low} {med} {high} {max}");
        // Table 6: low-contiguity mappings select a distance of 4.
        assert!(low <= 8, "low selected {low}");
        assert!(max >= 1 << 12, "max selected {max}");
    }
}
