//! The paper's 14-benchmark suite as parameterized access-pattern models.
//!
//! Parameters are chosen so each model reproduces the benchmark's published
//! TLB character: footprints follow the paper (graph500/gups at 8 GB by
//! default, SPEC working sets at their reference sizes scaled to what a
//! 1024-entry L2 can or cannot cover), and pattern/locality settings follow
//! the qualitative descriptions in the paper's results (e.g. `omnetpp` and
//! `xalancbmk` have fine-grained reuse that only fine-grained coalescing
//! helps; `gups` is hostile to every scheme at medium contiguity).

use crate::patterns::{AccessPattern, TraceGenerator};

/// One benchmark of the evaluation suite.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
#[allow(missing_docs)] // variants are benchmark names; the table below documents them
pub enum WorkloadKind {
    AstarBiglake,
    CactusAdm,
    Canneal,
    GemsFdtd,
    Graph500,
    Gups,
    Mcf,
    Milc,
    Mummer,
    Omnetpp,
    SoplexPds,
    Sphinx3,
    Tigr,
    Xalancbmk,
}

impl WorkloadKind {
    /// All 14 workloads in the paper's figure order.
    #[must_use]
    pub fn all() -> [WorkloadKind; 14] {
        [
            WorkloadKind::GemsFdtd,
            WorkloadKind::AstarBiglake,
            WorkloadKind::CactusAdm,
            WorkloadKind::Canneal,
            WorkloadKind::Graph500,
            WorkloadKind::Gups,
            WorkloadKind::Mcf,
            WorkloadKind::Milc,
            WorkloadKind::Mummer,
            WorkloadKind::Omnetpp,
            WorkloadKind::SoplexPds,
            WorkloadKind::Sphinx3,
            WorkloadKind::Tigr,
            WorkloadKind::Xalancbmk,
        ]
    }

    /// Label as printed in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::AstarBiglake => "astar_biglake",
            WorkloadKind::CactusAdm => "cactusADM",
            WorkloadKind::Canneal => "canneal",
            WorkloadKind::GemsFdtd => "GemsFDTD",
            WorkloadKind::Graph500 => "graph500",
            WorkloadKind::Gups => "gups",
            WorkloadKind::Mcf => "mcf",
            WorkloadKind::Milc => "milc",
            WorkloadKind::Mummer => "mummer",
            WorkloadKind::Omnetpp => "omnetpp",
            WorkloadKind::SoplexPds => "soplex_pds",
            WorkloadKind::Sphinx3 => "sphinx3",
            WorkloadKind::Tigr => "tigr",
            WorkloadKind::Xalancbmk => "xalancbmk",
        }
    }

    /// Parses a figure label back into a workload.
    #[must_use]
    pub fn from_label(label: &str) -> Option<WorkloadKind> {
        WorkloadKind::all().into_iter().find(|w| w.label() == label)
    }

    /// Default footprint in 4 KB pages, at the paper's scale where
    /// tractable (graph500/gups: 8 GB working sets) and at SPEC reference
    /// scale otherwise.
    #[must_use]
    pub fn default_footprint_pages(self) -> u64 {
        match self {
            // 8 GB working sets, exactly as the paper sets them (§5.1).
            WorkloadKind::Graph500 | WorkloadKind::Gups => 1 << 21,
            // Large-footprint SPEC / bio workloads (hundreds of MB - 2 GB).
            WorkloadKind::Mcf | WorkloadKind::Mummer | WorkloadKind::Tigr => 1 << 19,
            WorkloadKind::GemsFdtd | WorkloadKind::Milc | WorkloadKind::CactusAdm => 1 << 17,
            WorkloadKind::Canneal | WorkloadKind::AstarBiglake => 1 << 17,
            WorkloadKind::SoplexPds | WorkloadKind::Sphinx3 => 1 << 16,
            // Small-footprint, fine-grained-reuse workloads.
            WorkloadKind::Omnetpp | WorkloadKind::Xalancbmk => 1 << 15,
        }
    }

    /// The benchmark's access-pattern model.
    #[must_use]
    pub fn pattern(self) -> AccessPattern {
        match self {
            // Giant updates: uniform random over the table.
            WorkloadKind::Gups => AccessPattern::Uniform,
            // BFS: frontier scans + random neighbour lookups.
            WorkloadKind::Graph500 => AccessPattern::Bfs { random_fraction: 0.55 },
            // Pointer chasing over network/suffix-tree structures.
            WorkloadKind::Mcf => AccessPattern::Chase { jump_pages: 50_000 },
            WorkloadKind::Mummer => AccessPattern::Chase { jump_pages: 120_000 },
            WorkloadKind::Tigr => AccessPattern::Chase { jump_pages: 80_000 },
            // Grid/lattice sweeps: interleaved sequential streams.
            WorkloadKind::GemsFdtd => AccessPattern::Streams { streams: 6 },
            WorkloadKind::Milc => AccessPattern::Streams { streams: 8 },
            WorkloadKind::CactusAdm => AccessPattern::Streams { streams: 24 },
            WorkloadKind::Sphinx3 => AccessPattern::Streams { streams: 3 },
            // Hot/cold mixtures.
            WorkloadKind::Canneal => {
                AccessPattern::HotCold { hot_fraction: 0.25, hot_probability: 0.55 }
            }
            WorkloadKind::AstarBiglake => {
                AccessPattern::HotCold { hot_fraction: 0.15, hot_probability: 0.7 }
            }
            WorkloadKind::SoplexPds => {
                AccessPattern::HotCold { hot_fraction: 0.2, hot_probability: 0.8 }
            }
            // Fine-grained object churn: strong reuse in a small hot set.
            WorkloadKind::Omnetpp => {
                AccessPattern::HotCold { hot_fraction: 0.08, hot_probability: 0.85 }
            }
            WorkloadKind::Xalancbmk => {
                AccessPattern::HotCold { hot_fraction: 0.12, hot_probability: 0.8 }
            }
        }
    }

    /// Mean accesses per distinct page touch (spatial locality knob).
    #[must_use]
    pub fn burst(self) -> u32 {
        match self {
            WorkloadKind::Gups => 1,
            WorkloadKind::Graph500 | WorkloadKind::Canneal => 2,
            WorkloadKind::Mcf | WorkloadKind::Mummer | WorkloadKind::Tigr => 2,
            _ => 4,
        }
    }

    /// Builds a trace generator at the given footprint.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_pages` is zero.
    #[must_use]
    pub fn generator(self, footprint_pages: u64, seed: u64) -> TraceGenerator {
        TraceGenerator::new(self.pattern(), footprint_pages, seed ^ self as u64, self.burst())
    }
}

impl core::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_types::PAGE_SIZE_U64;
    use std::collections::HashSet;

    #[test]
    fn fourteen_workloads_with_unique_labels() {
        let all = WorkloadKind::all();
        assert_eq!(all.len(), 14);
        let labels: HashSet<_> = all.iter().map(|w| w.label()).collect();
        assert_eq!(labels.len(), 14);
        for w in all {
            assert_eq!(WorkloadKind::from_label(w.label()), Some(w));
        }
        assert_eq!(WorkloadKind::from_label("nope"), None);
    }

    #[test]
    fn generators_stay_inside_footprint() {
        for w in WorkloadKind::all() {
            let fp = 4096;
            for a in w.generator(fp, 7).take(5_000) {
                assert!(a < fp * PAGE_SIZE_U64, "{w} escaped");
            }
        }
    }

    #[test]
    fn generators_are_reproducible() {
        for w in WorkloadKind::all() {
            let a: Vec<_> = w.generator(1024, 3).take(64).collect();
            let b: Vec<_> = w.generator(1024, 3).take(64).collect();
            assert_eq!(a, b, "{w}");
        }
    }

    #[test]
    fn workloads_differ_from_each_other() {
        let a: Vec<_> = WorkloadKind::Gups.generator(1024, 3).take(64).collect();
        let b: Vec<_> = WorkloadKind::Milc.generator(1024, 3).take(64).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn gups_has_the_worst_locality() {
        // Distinct pages touched in a fixed window: gups ≈ window size,
        // omnetpp far fewer.
        let distinct = |w: WorkloadKind| {
            w.generator(1 << 14, 5)
                .take(8_000)
                .map(|a| a / PAGE_SIZE_U64)
                .collect::<HashSet<_>>()
                .len()
        };
        let gups = distinct(WorkloadKind::Gups);
        let omnetpp = distinct(WorkloadKind::Omnetpp);
        assert!(gups > 2 * omnetpp, "gups {gups} vs omnetpp {omnetpp}");
    }

    #[test]
    fn default_footprints_exceed_l2_reach() {
        // Every workload's 4 KB working set must exceed 1024 L2 entries,
        // otherwise the baseline would not miss and the paper's problem
        // would not exist.
        for w in WorkloadKind::all() {
            assert!(w.default_footprint_pages() > 4096, "{w}");
        }
    }
}
