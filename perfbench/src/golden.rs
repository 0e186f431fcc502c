//! The golden check: a digest of every output cell's `RunStats`, compared
//! against the digests committed under `golden/` for the default seed.
//!
//! Only a deliberate change to the simulated model may regenerate a golden
//! file (see README.md); a speed-up must leave every digest unchanged.

use crate::plan::Workload;
use hytlb_sim::{PaperConfig, RunStats};

/// One output cell: `scenario/workload/column` and its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOut {
    /// `scenario/workload/column`, e.g. `medium/omnetpp/Dynamic`.
    pub key: String,
    /// What the simulator reported for the cell.
    pub stats: RunStats,
}

/// The committed digests of `workload` at the default seed.
pub fn committed(workload: Workload) -> &'static str {
    match workload {
        Workload::Fig9Quick => include_str!("../golden/fig9-quick.txt"),
        Workload::TlbHot => include_str!("../golden/tlb-hot.txt"),
        Workload::WalkHeavy => include_str!("../golden/walk-heavy.txt"),
        Workload::CorpusReplay => include_str!("../golden/corpus-replay.txt"),
    }
}

/// FNV-1a over every field of `run`, floats by their bit patterns.
pub fn digest(run: &RunStats) -> u64 {
    let s = &run.stats;
    let words = [
        run.accesses,
        run.instructions,
        s.accesses,
        s.l1_hits,
        s.l2_regular_hits,
        s.coalesced_hits,
        s.walks,
        s.faults,
        s.cycles.as_u64(),
        run.cpi.l2_hit.to_bits(),
        run.cpi.coalesced_hit.to_bits(),
        run.cpi.walk.to_bits(),
        run.anchor_distance.unwrap_or(u64::MAX),
    ];
    let bytes = run.scheme.bytes().chain(words.iter().flat_map(|w| w.to_le_bytes()));
    fnv(bytes)
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The digest file of `cells`, in the format of the committed ones: one
/// `key digest` line per cell.
pub fn render(cells: &[CellOut]) -> String {
    cells.iter().map(|c| format!("{} {:016x}\n", c.key, digest(&c.stats))).collect()
}

/// One digest over every cell, to compare two runs at a glance.
pub fn combined(cells: &[CellOut]) -> u64 {
    fnv(cells.iter().flat_map(|c| digest(&c.stats).to_le_bytes()))
}

/// Cells that differ from `golden` (a [`render`]ed file): a cell whose
/// digest differs or that the file lacks, plus every line of the file that
/// no cell produced.
pub fn mismatches(cells: &[CellOut], golden: &str) -> u64 {
    let expected: Vec<(&str, &str)> =
        golden.lines().filter_map(|line| line.rsplit_once(' ')).collect();
    let mut failed = 0;
    for cell in cells {
        let want = expected.iter().find(|(key, _)| *key == cell.key).map(|(_, d)| *d);
        if want != Some(format!("{:016x}", digest(&cell.stats)).as_str()) {
            failed += 1;
        }
    }
    let extra = expected.iter().filter(|(key, _)| !cells.iter().any(|c| c.key == *key)).count();
    failed + extra as u64
}

/// Cells whose statistics break an invariant every run must keep: the
/// configured trace length, no faults, and every access resolved exactly
/// once.
pub fn broken_invariants(cells: &[CellOut], config: &PaperConfig) -> u64 {
    let bad = |run: &RunStats| {
        let s = &run.stats;
        run.accesses != config.accesses
            || s.accesses != config.accesses
            || s.faults != 0
            || s.l1_hits + s.l2_regular_hits + s.coalesced_hits + s.walks != s.accesses
    };
    cells.iter().filter(|c| bad(&c.stats)).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;
    use hytlb_sim::{Machine, SchemeKind};
    use hytlb_trace::WorkloadKind;
    use std::sync::Arc;

    fn cells() -> (Vec<CellOut>, PaperConfig) {
        let config = PaperConfig { accesses: 3_000, footprint_shift: 8, ..PaperConfig::default() };
        let map = hytlb_sim::experiment::mapping_for(
            WorkloadKind::Mcf,
            Scenario::MediumContiguity,
            &config,
        );
        let index = Arc::new(map.page_index());
        let resolved = index.resolve(&hytlb_sim::experiment::trace_for(WorkloadKind::Mcf, &config));
        let cells = [SchemeKind::Baseline, SchemeKind::AnchorDynamic]
            .into_iter()
            .map(|kind| CellOut {
                key: format!("medium/mcf/{}", kind.label()),
                stats: Machine::for_scheme_indexed(kind, &map, &index, &config)
                    .try_run_resolved(&resolved)
                    .unwrap(),
            })
            .collect();
        (cells, config)
    }

    #[test]
    fn own_digests_match() {
        let (cells, config) = cells();
        assert_eq!(mismatches(&cells, &render(&cells)), 0);
        assert_eq!(broken_invariants(&cells, &config), 0);
    }

    #[test]
    fn a_perturbed_run_is_a_failed_cell() {
        let (cells, config) = cells();
        let golden = render(&cells);
        let mut perturbed = cells.clone();
        perturbed[1].stats.stats.walks += 1;
        assert_eq!(mismatches(&perturbed, &golden), 1);
        assert_eq!(broken_invariants(&perturbed, &config), 1, "walks no longer add up");
        let mut nudged = cells.clone();
        nudged[0].stats.cpi.walk += 1e-12;
        assert_eq!(mismatches(&nudged, &golden), 1);
    }

    #[test]
    fn missing_and_extra_cells_fail() {
        let (cells, _) = cells();
        let golden = render(&cells);
        assert_eq!(mismatches(&cells[..1], &golden), 1, "a golden cell nobody produced");
        assert_eq!(mismatches(&cells, ""), 2, "cells without a golden entry");
    }

    #[test]
    fn committed_files_are_well_formed() {
        for w in Workload::ALL {
            for line in committed(w).lines() {
                let (key, digest) = line.rsplit_once(' ').expect("key digest");
                assert_eq!(key.split('/').count(), 3, "{line}");
                assert!(u64::from_str_radix(digest, 16).is_ok(), "{line}");
            }
        }
    }
}
