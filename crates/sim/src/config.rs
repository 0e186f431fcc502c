//! Evaluation configuration and the scheme kinds.

use hytlb_schemes::LatencyModel;

/// The paper's evaluation configuration (Table 3 plus trace parameters).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PaperConfig {
    /// Latency model (7 / 8 / 50 cycles).
    pub latency: LatencyModel,
    /// Accesses simulated per run. The paper replays 12 B instructions; we
    /// default to 2 M memory accesses, which reaches steady state for every
    /// structure modelled (≤ 1056 entries).
    pub accesses: u64,
    /// Memory accesses per instruction (used to convert cycles into the
    /// translation-CPI figures; ~1/3 of instructions touch memory).
    pub mem_ops_per_instruction: f64,
    /// Instructions per OS epoch check. The paper uses 1 B; scaled to the
    /// shorter traces here.
    pub epoch_instructions: u64,
    /// Master seed; every generator derives from it.
    pub seed: u64,
    /// Right-shift applied to each workload's default footprint (0 = paper
    /// scale; 3 = 8× smaller for quick runs). Footprints never drop below
    /// 2^13 pages so they always exceed the L2 reach.
    pub footprint_shift: u32,
    /// Worker threads for the matrix driver
    /// ([`matrix::try_run_matrix_with`](crate::matrix::try_run_matrix_with)). `None` defers
    /// to the `HYTLB_THREADS` environment variable, then to the machine's
    /// available parallelism. Never affects results, only wall-clock.
    pub threads: Option<usize>,
}

impl Default for PaperConfig {
    fn default() -> Self {
        PaperConfig {
            latency: LatencyModel::default(),
            accesses: 2_000_000,
            mem_ops_per_instruction: 1.0 / 3.0,
            epoch_instructions: 1_000_000,
            seed: 42,
            footprint_shift: 0,
            threads: None,
        }
    }
}

impl PaperConfig {
    /// A configuration for quick smoke runs (small traces, 8× smaller
    /// footprints).
    #[must_use]
    pub fn quick() -> Self {
        PaperConfig { accesses: 300_000, footprint_shift: 3, ..Self::default() }
    }

    /// Instructions represented by this run's trace.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        (self.accesses as f64 / self.mem_ops_per_instruction).round() as u64
    }

    /// The footprint (pages) to simulate for a workload under this config.
    #[must_use]
    pub fn footprint_for(&self, workload: hytlb_trace::WorkloadKind) -> u64 {
        (workload.default_footprint_pages() >> self.footprint_shift).max(1 << 13)
    }

    /// Accesses between epoch checks.
    #[must_use]
    pub fn epoch_accesses(&self) -> u64 {
        ((self.epoch_instructions as f64 * self.mem_ops_per_instruction).round() as u64).max(1)
    }

    /// A fingerprint of every field that determines generated mappings and
    /// traces (`seed`, `accesses`, `footprint_shift`). Two configs with the
    /// same fingerprint generate bit-identical inputs, so matrix caches key
    /// on it. Deliberately excludes fields that only shape measurement or
    /// scheduling (latencies, epoch length, `threads`).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the generation-relevant fields.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in [self.seed, self.accesses, u64::from(self.footprint_shift)] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// The translation schemes compared in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SchemeKind {
    /// 4 KB pages only.
    Baseline,
    /// Transparent huge pages (4 KB + 2 MB).
    Thp,
    /// THP plus 1 GB giant pages with their separate small L2 TLB (§2.1
    /// page-size-scalability extension; not in the paper's figure set).
    Thp1G,
    /// Cluster TLB without large pages.
    Cluster,
    /// Cluster TLB with 2 MB pages in the regular partition.
    Cluster2Mb,
    /// CoLT-SA (Pham et al., MICRO'12): contiguity-run HW coalescing —
    /// the ablation partner of the cluster TLB (not in the paper's figure
    /// set).
    Colt,
    /// Redundant memory mapping (range TLB).
    Rmm,
    /// Hybrid coalescing with dynamic distance selection (the paper's
    /// `Dynamic`).
    AnchorDynamic,
    /// Hybrid coalescing at a fixed anchor distance (one point of the
    /// `Static Ideal` sweep).
    AnchorStatic(u64),
    /// The §4.2 multi-region extension with the given region budget.
    AnchorMultiRegion(usize),
}

impl SchemeKind {
    /// The six schemes of Figures 7–9, in figure order (static-ideal is a
    /// sweep, produced separately by
    /// [`experiment::static_ideal`](crate::experiment::static_ideal)).
    #[must_use]
    pub fn paper_set() -> [SchemeKind; 6] {
        [
            SchemeKind::Baseline,
            SchemeKind::Thp,
            SchemeKind::Cluster,
            SchemeKind::Cluster2Mb,
            SchemeKind::Rmm,
            SchemeKind::AnchorDynamic,
        ]
    }

    /// Label as used in the paper's legends.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            SchemeKind::Baseline => "Base".to_owned(),
            SchemeKind::Thp => "THP".to_owned(),
            SchemeKind::Thp1G => "THP-1G".to_owned(),
            SchemeKind::Cluster => "Cluster".to_owned(),
            SchemeKind::Cluster2Mb => "Cluster-2MB".to_owned(),
            SchemeKind::Colt => "CoLT".to_owned(),
            SchemeKind::Rmm => "RMM".to_owned(),
            SchemeKind::AnchorDynamic => "Dynamic".to_owned(),
            SchemeKind::AnchorStatic(d) => format!("Anchor-d{d}"),
            SchemeKind::AnchorMultiRegion(n) => format!("Anchor-region{n}"),
        }
    }
}

impl core::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemeDispatch;
    use hytlb_mem::Scenario;
    use hytlb_schemes::TranslationScheme;
    use std::sync::Arc;

    #[test]
    fn config_arithmetic() {
        let c = PaperConfig::default();
        assert_eq!(c.instructions(), 6_000_000);
        assert!(c.epoch_accesses() > 0);
        let q = PaperConfig::quick();
        assert!(
            q.footprint_for(hytlb_trace::WorkloadKind::Gups)
                < c.footprint_for(hytlb_trace::WorkloadKind::Gups)
        );
        assert!(q.footprint_for(hytlb_trace::WorkloadKind::Omnetpp) >= 1 << 13);
    }

    #[test]
    fn paper_set_labels() {
        let labels: Vec<_> = SchemeKind::paper_set().iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["Base", "THP", "Cluster", "Cluster-2MB", "RMM", "Dynamic"]);
        assert_eq!(SchemeKind::AnchorStatic(64).label(), "Anchor-d64");
    }

    #[test]
    fn every_scheme_builds_and_translates() {
        let config = PaperConfig::quick();
        let map = Arc::new(Scenario::MediumContiguity.generate(2048, 7));
        let mut kinds = vec![
            SchemeKind::AnchorStatic(16),
            SchemeKind::AnchorMultiRegion(4),
            SchemeKind::Colt,
            SchemeKind::Thp1G,
        ];
        kinds.extend(SchemeKind::paper_set());
        for kind in kinds {
            let mut s = SchemeDispatch::build(kind, &map, &config);
            for (vpn, pfn) in map.iter_pages().take(200) {
                assert_eq!(s.access(vpn.base_addr()).pfn, Some(pfn), "{kind}");
            }
        }
    }
}
