//! The four workloads: what each one simulates, at which scale.

use hytlb_mem::Scenario;
use hytlb_sim::{PaperConfig, SchemeKind};
use hytlb_trace::WorkloadKind;

/// A benchmark workload. The names are part of the benchmark's interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 9 regenerator's matrix at its `--quick` scale.
    Fig9Quick,
    /// omnetpp under medium contiguity: most accesses end in an L1/L2 hit.
    TlbHot,
    /// gups under low contiguity: almost every access walks.
    WalkHeavy,
    /// Every trace recorded to a trace store, then replayed from it.
    CorpusReplay,
}

/// Input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// A few thousand accesses per cell, for the benchmark's own tests.
    Tiny,
}

/// Everything a workload runs: the matrix slice and its configuration.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload this plan belongs to.
    pub workload: Workload,
    /// Trace length, footprints, seed; `threads` is pinned to 1.
    pub config: PaperConfig,
    /// Scenario dimension of the matrix.
    pub scenarios: Vec<Scenario>,
    /// Workload (trace) dimension of the matrix.
    pub workloads: Vec<WorkloadKind>,
    /// Scheme dimension of the matrix.
    pub schemes: Vec<SchemeKind>,
    /// Static-ideal candidate distances, when the matrix carries that column.
    pub sweep: Vec<u64>,
    /// Record every trace to a trace store and replay it from there.
    pub corpus: bool,
    /// Cells whose probe streams the traced run replays layer by layer.
    pub probes: Vec<(WorkloadKind, Scenario)>,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::Fig9Quick, Workload::TlbHot, Workload::WalkHeavy, Workload::CorpusReplay];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Quick => "fig9-quick",
            Workload::TlbHot => "tlb-hot",
            Workload::WalkHeavy => "walk-heavy",
            Workload::CorpusReplay => "corpus-replay",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's inputs at `scale`, generated from `seed`.
    pub fn plan(self, seed: u64, scale: Scale) -> Plan {
        // The regenerators' two scales (`config_from_args`): `--quick`, and
        // the default mid scale.
        let (quick, default) = match scale {
            Scale::Full => ((200_000, 4), (1_000_000, 2)),
            Scale::Tiny => ((2_000, 8), (4_000, 8)),
        };
        let config = |(accesses, footprint_shift): (u64, u32)| PaperConfig {
            accesses,
            footprint_shift,
            seed,
            threads: Some(1),
            ..PaperConfig::default()
        };
        let tiny = scale == Scale::Tiny;
        let some_workloads = |all: Vec<WorkloadKind>| {
            if tiny {
                vec![WorkloadKind::Gups, WorkloadKind::Omnetpp, WorkloadKind::Mcf]
            } else {
                all
            }
        };
        let (omnetpp, gups) = (WorkloadKind::Omnetpp, WorkloadKind::Gups);
        let (low, medium) = (Scenario::LowContiguity, Scenario::MediumContiguity);
        let paper = SchemeKind::paper_set().to_vec();
        match self {
            Workload::Fig9Quick => Plan {
                workload: self,
                config: config(quick),
                scenarios: if tiny { vec![low, medium] } else { Scenario::all().to_vec() },
                workloads: some_workloads(WorkloadKind::all().to_vec()),
                schemes: paper,
                sweep: hytlb_bench::figure_static_sweep(),
                corpus: false,
                probes: vec![(omnetpp, medium), (gups, low)],
            },
            Workload::TlbHot => Plan {
                workload: self,
                config: config(default),
                scenarios: vec![medium],
                workloads: vec![omnetpp],
                schemes: paper,
                sweep: Vec::new(),
                corpus: false,
                probes: vec![(omnetpp, medium)],
            },
            Workload::WalkHeavy => Plan {
                workload: self,
                config: config(default),
                scenarios: vec![low],
                workloads: vec![gups],
                schemes: paper,
                sweep: Vec::new(),
                corpus: false,
                probes: vec![(gups, low)],
            },
            Workload::CorpusReplay => Plan {
                workload: self,
                config: config(default),
                scenarios: vec![medium],
                workloads: some_workloads(WorkloadKind::all().to_vec()),
                schemes: vec![SchemeKind::Baseline],
                sweep: Vec::new(),
                corpus: true,
                probes: vec![(omnetpp, medium), (gups, medium)],
            },
        }
    }
}

impl Plan {
    /// Cells simulated per pass: every (scenario, workload, scheme), the
    /// static-ideal candidates included.
    pub fn cells(&self) -> u64 {
        (self.scenarios.len() * self.workloads.len() * (self.schemes.len() + self.sweep.len()))
            as u64
    }

    /// Simulated accesses per pass.
    pub fn accesses(&self) -> u64 {
        self.cells() * self.config.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("fig9"), None);
    }

    #[test]
    fn fig9_quick_is_the_regenerator_matrix() {
        let plan = Workload::Fig9Quick.plan(42, Scale::Full);
        assert_eq!(plan.cells(), 924);
        assert_eq!((plan.config.accesses, plan.config.footprint_shift), (200_000, 4));
        assert_eq!(plan.config.threads, Some(1));
    }

    #[test]
    fn probe_cells_are_part_of_the_matrix() {
        for scale in [Scale::Full, Scale::Tiny] {
            for w in Workload::ALL {
                let plan = w.plan(1, scale);
                for (workload, scenario) in &plan.probes {
                    assert!(plan.workloads.contains(workload), "{w:?}");
                    assert!(plan.scenarios.contains(scenario), "{w:?}");
                }
            }
        }
    }
}
