//! Regenerates the paper's figures and tables and the extension
//! experiments into `results/<stem>.{txt,json}`, one module per artifact:
//!
//! ```sh
//! cargo run --release -p hytlb-bench --bin regenerate -- [--quick|--paper] [--seed N] \
//!     [--accesses N] [NAME ...]
//! ```
//!
//! A NAME is a results stem; none means all sixteen. Figures 2 and 7–11
//! and Tables 5–6 are slices of the Figure 9 matrix (scenario × workload ×
//! paper scheme, plus `Static Ideal`), so it is simulated once, over the
//! scenarios the requested artifacts read, and every slice formats from it.

mod ablations;
mod ext_1gb_pages;
mod ext_context_switch;
mod ext_hw_coalescing;
mod ext_numa;
mod ext_walk_latency;
mod fig01_contiguity_cdf;
mod fig02_motivation;
mod fig07_demand;
mod fig08_medium;
mod fig09_all_scenarios;
mod fig10_cpi_demand;
mod fig11_cpi_medium;
mod table5_l2_breakdown;
mod table6_distances;
mod table_distance_change_cost;

use hytlb_bench::{banner, config_from_args, emit, exit_usage, per_benchmark_suites};
use hytlb_mem::Scenario::{self, DemandPaging, HighContiguity, LowContiguity, MediumContiguity};
use hytlb_sim::experiment::SuiteResult;
use hytlb_sim::{PaperConfig, SimError};
use hytlb_trace::WorkloadKind;
use std::collections::HashMap;

/// The paper-matrix suite of each scenario the requested artifacts read.
type Matrix = HashMap<Scenario, SuiteResult>;

/// An artifact's `(text, json)`.
type Output = Result<(String, String), SimError>;

/// One figure, table or experiment: its results stem (the name that
/// selects it), stdout banner, the paper-matrix scenarios it reads, and
/// its formatter.
struct Artifact {
    stem: &'static str,
    banner: &'static str,
    scenarios: &'static [Scenario],
    format: fn(&PaperConfig, &Matrix) -> Output,
}

/// The [`Artifact`] of module `$m`, which names its stem and holds its
/// `BANNER` and `format`.
macro_rules! artifact {
    ($m:ident, $scenarios:expr) => {
        Artifact {
            stem: stringify!($m),
            banner: $m::BANNER,
            scenarios: &$scenarios,
            format: $m::format,
        }
    };
}

const ARTIFACTS: [Artifact; 16] = [
    artifact!(fig01_contiguity_cdf, []),
    artifact!(fig02_motivation, [LowContiguity, MediumContiguity, HighContiguity]),
    artifact!(fig07_demand, [DemandPaging]),
    artifact!(fig08_medium, [MediumContiguity]),
    artifact!(fig09_all_scenarios, Scenario::all()),
    artifact!(fig10_cpi_demand, [DemandPaging]),
    artifact!(fig11_cpi_medium, [MediumContiguity]),
    artifact!(table5_l2_breakdown, [DemandPaging, MediumContiguity]),
    artifact!(table6_distances, [DemandPaging]),
    artifact!(table_distance_change_cost, []),
    artifact!(ext_1gb_pages, []),
    artifact!(ext_context_switch, []),
    artifact!(ext_hw_coalescing, []),
    artifact!(ext_numa, []),
    artifact!(ext_walk_latency, []),
    artifact!(ablations, []),
];

fn main() -> Result<(), SimError> {
    let stems = ARTIFACTS.map(|a| a.stem);
    let (config, names) = config_from_args(&stems).unwrap_or_else(|e| exit_usage(&e));
    let selected: Vec<&Artifact> = ARTIFACTS
        .iter()
        .filter(|a| names.is_empty() || names.iter().any(|n| n == a.stem))
        .collect();
    let scenarios: Vec<Scenario> = Scenario::all()
        .into_iter()
        .filter(|s| selected.iter().any(|a| a.scenarios.contains(s)))
        .collect();
    let suites = per_benchmark_suites(&scenarios, &WorkloadKind::all(), &config);
    let matrix: Matrix = suites.into_iter().map(|s| (s.scenario, s)).collect();
    for artifact in selected {
        banner(artifact.banner, &config);
        let (text, json) = (artifact.format)(&config, &matrix)?;
        emit(artifact.stem, &text, &json);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each artifact formats from only the scenarios its entry lists, as it
    /// does when requested alone.
    #[test]
    fn every_artifact_formats_from_its_listed_scenarios() {
        let config = PaperConfig { accesses: 8_000, footprint_shift: 5, ..PaperConfig::default() };
        for artifact in &ARTIFACTS {
            let suites = per_benchmark_suites(artifact.scenarios, &WorkloadKind::all(), &config);
            let matrix: Matrix = suites.into_iter().map(|s| (s.scenario, s)).collect();
            let (text, json) = (artifact.format)(&config, &matrix).expect(artifact.stem);
            assert!(!text.is_empty() && json.starts_with(['[', '{']), "{}", artifact.stem);
        }
    }
}
