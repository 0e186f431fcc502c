//! The evaluation matrix: workload × mapping scenario × scheme.
//!
//! Each *suite* fixes a scenario, generates one mapping and one trace per
//! workload, and replays the identical trace through every scheme — the
//! same methodology as the paper, which replays one Pin trace per benchmark
//! against different pagemap snapshots.

use crate::config::{PaperConfig, SchemeKind};
use crate::engine::{Machine, RunStats};
use crate::error::SimError;
use crate::matrix::{try_run_matrix_with, MatrixCache};
use hytlb_mem::{AddressSpaceMap, AllocationProfile, FragmentationLevel, Scenario};
use hytlb_trace::WorkloadKind;
use std::sync::Arc;

/// Results of one workload under one scenario, across schemes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadRow {
    /// The workload.
    pub workload: WorkloadKind,
    /// One result per scheme, in the order the suite was asked to run.
    pub runs: Vec<RunStats>,
}

/// Results of a whole suite (one scenario, many workloads × schemes).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SuiteResult {
    /// The mapping scenario.
    pub scenario: Scenario,
    /// Scheme labels, in column order.
    pub schemes: Vec<String>,
    /// One row per workload.
    pub rows: Vec<WorkloadRow>,
}

impl SuiteResult {
    /// Mean relative TLB misses (%) per scheme, versus the first scheme in
    /// the suite (which must be the baseline). This is the figure-9 metric.
    ///
    /// # Panics
    ///
    /// Panics if the suite is empty.
    #[must_use]
    pub fn mean_relative_misses(&self) -> Vec<f64> {
        assert!(!self.rows.is_empty(), "empty suite");
        let n = self.schemes.len();
        let mut acc = vec![0.0; n];
        for row in &self.rows {
            let base = &row.runs[0];
            for (i, run) in row.runs.iter().enumerate() {
                acc[i] += run.relative_misses_pct(base);
            }
        }
        acc.iter_mut().for_each(|v| *v /= self.rows.len() as f64);
        acc
    }
}

/// Deterministic per-(workload, scenario) seed derivation.
fn cell_seed(config: &PaperConfig, workload: WorkloadKind, scenario: Scenario) -> u64 {
    let w = workload as u64;
    let s = scenario.label().bytes().fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b.into()));
    config.seed ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ s.rotate_left(17)
}

/// How each benchmark asks the OS for memory — the VMA-size profile used
/// by the demand/eager scenarios. The paper's real mappings show this
/// spectrum directly (Table 6, demand/eager columns): `omnetpp`,
/// `xalancbmk`, `sphinx3`, `soplex` and `astar` allocate fine-grained
/// objects and never see large contiguity even with THP on, while
/// `gups`/`graph500`/`mcf` back their footprints with giant allocations.
fn allocation_profile_for(workload: WorkloadKind) -> AllocationProfile {
    match workload {
        WorkloadKind::Omnetpp | WorkloadKind::Xalancbmk => AllocationProfile::units(16),
        WorkloadKind::SoplexPds | WorkloadKind::Sphinx3 => AllocationProfile::units(32),
        WorkloadKind::AstarBiglake => AllocationProfile::units(128),
        WorkloadKind::Canneal | WorkloadKind::Milc | WorkloadKind::CactusAdm => {
            AllocationProfile::units(4096)
        }
        WorkloadKind::GemsFdtd | WorkloadKind::Mummer | WorkloadKind::Tigr => {
            AllocationProfile::units(16_384)
        }
        WorkloadKind::Gups | WorkloadKind::Graph500 | WorkloadKind::Mcf => {
            AllocationProfile::contiguous()
        }
    }
}

/// Generates the mapping a workload sees under a scenario. Returned
/// shared, ready to be handed to any number of schemes without copying
/// the address-space data.
#[must_use]
pub fn mapping_for(
    workload: WorkloadKind,
    scenario: Scenario,
    config: &PaperConfig,
) -> Arc<AddressSpaceMap> {
    let footprint = config.footprint_for(workload);
    Arc::new(scenario.generate_profiled(
        footprint,
        cell_seed(config, workload, scenario),
        FragmentationLevel::Moderate,
        allocation_profile_for(workload),
    ))
}

/// Generates the trace a workload replays (independent of the scenario,
/// like a Pin trace).
#[must_use]
pub fn trace_for(workload: WorkloadKind, config: &PaperConfig) -> Vec<u64> {
    workload
        .generator(config.footprint_for(workload), config.seed)
        .take(config.accesses as usize)
        .collect()
}

/// Runs a full suite: every workload × every scheme under one scenario,
/// sharing the mapping and trace across schemes. Rows run on the matrix
/// worker pool (see [`crate::matrix`]); results are bit-identical to
/// [`run_suite_serial`] because each cell is deterministic.
pub fn run_suite(
    scenario: Scenario,
    workloads: &[WorkloadKind],
    kinds: &[SchemeKind],
    config: &PaperConfig,
) -> Result<SuiteResult, SimError> {
    let mut suites =
        try_run_matrix_with(&MatrixCache::new(), &[scenario], workloads, kinds, config)?;
    Ok(suites.remove(0))
}

/// The single-threaded reference implementation of [`run_suite`]: plain
/// nested loops, no cache, no worker pool. The matrix driver is validated
/// cell-for-cell against this.
// audit:allow(dead-pub): the serial reference of
// tests/matrix_determinism.rs::run_matrix_equals_serial_reference_cell_for_cell.
pub fn run_suite_serial(
    scenario: Scenario,
    workloads: &[WorkloadKind],
    kinds: &[SchemeKind],
    config: &PaperConfig,
) -> Result<SuiteResult, SimError> {
    let rows = workloads
        .iter()
        .map(|&workload| {
            let map = mapping_for(workload, scenario, config);
            // One placement index and one resolved trace per mapping: every
            // scheme of the row shares them.
            let index = Arc::new(map.page_index());
            let resolved = index.resolve(&trace_for(workload, config));
            let runs = kinds
                .iter()
                .map(|&kind| {
                    Machine::for_scheme_indexed(kind, &map, &index, config)
                        .try_run_resolved(&resolved)
                })
                .collect::<Result<_, _>>()?;
            Ok(WorkloadRow { workload, runs })
        })
        .collect::<Result<_, SimError>>()?;
    Ok(SuiteResult { scenario, schemes: kinds.iter().map(|k| k.label()).collect(), rows })
}

/// The `Static Ideal` scheme: exhaustively sweeps anchor distances for one
/// (workload, scenario) and returns the run with the fewest TLB misses,
/// mirroring the paper's "one optimal distance ... by exhaustive evaluation
/// of all possible distances".
///
/// # Panics
///
/// Panics if `candidates` is empty.
// audit:allow(dead-pub): the serial reference the matrix's Static-Ideal
// fold is checked against in
// tests/matrix_determinism.rs::static_ideal_column_replicates_serial_sweep_tie_breaking.
pub fn static_ideal(
    workload: WorkloadKind,
    scenario: Scenario,
    candidates: &[u64],
    config: &PaperConfig,
) -> Result<RunStats, SimError> {
    assert!(!candidates.is_empty(), "need at least one candidate distance");
    let map = mapping_for(workload, scenario, config);
    let index = Arc::new(map.page_index());
    let resolved = index.resolve(&trace_for(workload, config));
    let runs = candidates
        .iter()
        .map(|&d| {
            Machine::for_scheme_indexed(SchemeKind::AnchorStatic(d), &map, &index, config)
                .try_run_resolved(&resolved)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(runs.into_iter().min_by_key(RunStats::tlb_misses).expect("candidates nonempty"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PaperConfig {
        PaperConfig { accesses: 10_000, footprint_shift: 5, ..PaperConfig::default() }
    }

    #[test]
    fn suite_shapes_are_consistent() {
        let config = tiny();
        let kinds = [SchemeKind::Baseline, SchemeKind::AnchorDynamic];
        let suite = run_suite(
            Scenario::MediumContiguity,
            &[WorkloadKind::Gups, WorkloadKind::Omnetpp],
            &kinds,
            &config,
        )
        .unwrap();
        assert_eq!(suite.rows.len(), 2);
        assert_eq!(suite.schemes, ["Base", "Dynamic"]);
        for row in &suite.rows {
            assert_eq!(row.runs.len(), 2);
            assert_eq!(row.runs[0].accesses, 10_000);
        }
        let means = suite.mean_relative_misses();
        assert!((means[0] - 100.0).abs() < 1e-9, "baseline is 100% of itself");
        assert!(means[1] <= 100.0 + 1e-9, "anchor no worse than baseline on medium");
    }

    #[test]
    fn cells_are_reproducible() {
        let config = tiny();
        let cell = || {
            run_suite_serial(
                Scenario::LowContiguity,
                &[WorkloadKind::Milc],
                &[SchemeKind::Baseline],
                &config,
            )
            .unwrap()
        };
        let (a, b) = (cell(), cell());
        assert_eq!(a, b);
    }

    #[test]
    fn different_scenarios_give_different_mappings() {
        let config = tiny();
        let low = mapping_for(WorkloadKind::Mcf, Scenario::LowContiguity, &config);
        let max = mapping_for(WorkloadKind::Mcf, Scenario::MaxContiguity, &config);
        assert_eq!(low.mapped_pages(), max.mapped_pages());
        assert!(low.chunk_count() > max.chunk_count());
    }

    #[test]
    fn static_ideal_is_no_worse_than_any_candidate() {
        let config = tiny();
        let candidates = [4u64, 64, 4096];
        let best =
            static_ideal(WorkloadKind::Canneal, Scenario::MediumContiguity, &candidates, &config)
                .unwrap();
        let kinds = candidates.map(SchemeKind::AnchorStatic);
        let suite =
            run_suite_serial(Scenario::MediumContiguity, &[WorkloadKind::Canneal], &kinds, &config)
                .unwrap();
        for (d, run) in candidates.iter().zip(&suite.rows[0].runs) {
            assert!(best.tlb_misses() <= run.tlb_misses(), "d={d}");
        }
    }
}
