//! The machine: a translation scheme driven by a resolved-address trace.

use crate::config::{PaperConfig, SchemeKind};
use crate::dispatch::SchemeDispatch;
use crate::error::SimError;
use hytlb_mem::{AddressSpaceMap, PageIndex};
use hytlb_schemes::{SchemeStats, TranslationScheme};
use hytlb_types::VirtAddr;
use std::sync::Arc;

/// Accesses per chunk of the batched resolved-trace loop: large enough to
/// amortize the per-chunk dispatch and epoch/flush bookkeeping, small enough
/// that a chunk's addresses stay cache-resident.
const RESOLVED_BATCH: u64 = 4096;

/// Translation-CPI contributions, as stacked in Figures 10–11.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct CpiBreakdown {
    /// Regular L2 hits (7 cycles each).
    pub l2_hit: f64,
    /// Anchor / cluster / range hits (8 cycles each).
    pub coalesced_hit: f64,
    /// Page-table walks (50 cycles each).
    pub walk: f64,
}

impl CpiBreakdown {
    /// Total translation CPI.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.l2_hit + self.coalesced_hit + self.walk
    }
}

/// Everything measured by one simulation run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunStats {
    /// Scheme label.
    pub scheme: String,
    /// Accesses simulated.
    pub accesses: u64,
    /// Instructions represented (accesses / mem-op ratio).
    pub instructions: u64,
    /// The MMU counters.
    pub stats: SchemeStats,
    /// Cycle cost of each structure per instruction.
    pub cpi: CpiBreakdown,
    /// Anchor distance in effect at the end of the run (anchor schemes).
    pub anchor_distance: Option<u64>,
}

impl RunStats {
    /// The paper's headline metric: page walks ("TLB misses").
    #[must_use]
    pub fn tlb_misses(&self) -> u64 {
        self.stats.walks
    }

    /// Total translation CPI.
    #[must_use]
    pub fn translation_cpi(&self) -> f64 {
        self.cpi.total()
    }

    /// Misses relative to a baseline run, in percent (Figures 2 and 7–9).
    ///
    /// A baseline with zero walks has nothing to improve on, so such cells
    /// report 100.0 (parity) rather than 0.0 — otherwise a scheme would
    /// appear to eliminate misses that never existed and drag every
    /// suite-level mean toward zero.
    #[must_use]
    pub fn relative_misses_pct(&self, baseline: &RunStats) -> f64 {
        if baseline.tlb_misses() == 0 {
            return 100.0;
        }
        self.tlb_misses() as f64 / baseline.tlb_misses() as f64 * 100.0
    }
}

/// A scheme driven by a pre-resolved virtual-address trace.
///
/// Logical traces (what workload generators emit) are placed onto the
/// mapping once with [`PageIndex::resolve`]; the machine then replays the
/// resolved addresses through its single hot loop,
/// [`Machine::try_run_resolved_with_flush_period`].
#[derive(Debug)]
pub struct Machine {
    scheme: SchemeDispatch,
    config: PaperConfig,
}

impl Machine {
    /// Builds a machine around a prebuilt scheme — a registry scheme from
    /// [`SchemeDispatch::build`], or a concrete scheme with a custom config
    /// (ablations) wrapped in its [`SchemeDispatch`] variant.
    #[must_use]
    pub fn new(scheme: SchemeDispatch, config: &PaperConfig) -> Self {
        Machine { scheme, config: *config }
    }

    /// Builds a machine running `kind` over `map`. The map is shared with
    /// the scheme by reference count — no copy of the address-space data is
    /// made, so a matrix of machines over one mapping costs one mapping.
    /// `index` is the placement index the caller resolves its trace with.
    ///
    /// # Panics
    ///
    /// Panics if `index` was not built from `map` (detected by length).
    #[must_use]
    pub fn for_scheme_indexed(
        kind: SchemeKind,
        map: &Arc<AddressSpaceMap>,
        index: &Arc<PageIndex>,
        config: &PaperConfig,
    ) -> Self {
        assert_eq!(index.len(), map.mapped_pages(), "page index does not match the mapping");
        Machine::new(SchemeDispatch::build(kind, map, config), config)
    }

    /// Drives a resolved trace through the MMU with no TLB flushes.
    pub fn try_run_resolved(&mut self, resolved: &[VirtAddr]) -> Result<RunStats, SimError> {
        self.try_run_resolved_with_flush_period(resolved, u64::MAX)
    }

    /// The hot loop: drives a resolved trace through the MMU in chunks,
    /// flushing all TLB state every `flush_period` accesses — modelling
    /// context switches, which flush the TLB on native x86 Linux (paper
    /// §3.3). Each chunk runs through the scheme's monomorphized
    /// `access_batch` after one `match`. Chunks are cut so that every epoch
    /// and flush boundary lands exactly on a chunk end, so `on_epoch` and
    /// `flush` fire at exactly the access counts a per-access loop would
    /// fire them at.
    ///
    /// A fault on a mapped-only trace surfaces as [`SimError::TraceFault`]
    /// naming the scheme and the address. Checked in release builds too — a
    /// silent mistranslation would corrupt every figure downstream.
    pub fn try_run_resolved_with_flush_period(
        &mut self,
        resolved: &[VirtAddr],
        flush_period: u64,
    ) -> Result<RunStats, SimError> {
        let epoch_every = self.config.epoch_accesses();
        let mut since_epoch = 0u64;
        let mut since_flush = 0u64;
        let mut pos = 0usize;
        while pos < resolved.len() {
            let remaining = (resolved.len() - pos) as u64;
            // `since_epoch < epoch_every` is a loop invariant (reset on
            // fire), so this cannot underflow. The flush gap is clamped to
            // one access so a `flush_period` of 0 — a flush after every
            // access — still makes progress.
            let until_epoch = epoch_every - since_epoch;
            let until_flush = flush_period.saturating_sub(since_flush).max(1);
            let take = RESOLVED_BATCH.min(remaining).min(until_epoch).min(until_flush);
            let end = pos + take as usize;
            if let Err(fault) = self.scheme.access_batch(&resolved[pos..end]) {
                return Err(SimError::TraceFault {
                    scheme: self.scheme.name().to_owned(),
                    vaddr: fault.vaddr,
                });
            }
            pos = end;
            since_epoch += take;
            since_flush += take;
            if since_epoch >= epoch_every {
                self.scheme.on_epoch();
                since_epoch = 0;
            }
            if since_flush >= flush_period {
                self.scheme.flush();
                since_flush = 0;
            }
        }
        Ok(self.finish(resolved.len() as u64))
    }

    fn finish(&self, accesses: u64) -> RunStats {
        let stats = *self.scheme.stats();
        let instructions =
            (accesses as f64 / self.config.mem_ops_per_instruction).round().max(1.0) as u64;
        let lat = self.config.latency;
        let cpi = CpiBreakdown {
            l2_hit: (stats.l2_regular_hits * lat.l2_hit.as_u64()) as f64 / instructions as f64,
            coalesced_hit: (stats.coalesced_hits * lat.coalesced_hit.as_u64()) as f64
                / instructions as f64,
            walk: ((stats.walks + stats.faults) * lat.walk.as_u64()) as f64 / instructions as f64,
        };
        RunStats {
            scheme: self.scheme.name().to_owned(),
            accesses,
            instructions,
            stats,
            cpi,
            anchor_distance: self.scheme.anchor_distance(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;
    use hytlb_trace::WorkloadKind;

    fn quick() -> PaperConfig {
        PaperConfig { accesses: 20_000, ..PaperConfig::quick() }
    }

    /// Runs `kind` over `map` on a logical trace, flushing every
    /// `flush_period` accesses.
    fn run(
        kind: SchemeKind,
        map: &Arc<AddressSpaceMap>,
        trace: &[u64],
        flush_period: u64,
    ) -> RunStats {
        let index = Arc::new(map.page_index());
        Machine::for_scheme_indexed(kind, map, &index, &quick())
            .try_run_resolved_with_flush_period(&index.resolve(trace), flush_period)
            .expect("mapped trace")
    }

    fn trace(workload: WorkloadKind, pages: u64, seed: u64, accesses: usize) -> Vec<u64> {
        workload.generator(pages, seed).take(accesses).collect()
    }

    #[test]
    fn run_counts_accesses_and_cpi() {
        let map = Arc::new(Scenario::MediumContiguity.generate(4096, 1));
        let trace = trace(WorkloadKind::Canneal, 4096, 1, 20_000);
        let stats = run(SchemeKind::Baseline, &map, &trace, u64::MAX);
        assert_eq!(stats.accesses, 20_000);
        assert_eq!(stats.stats.accesses, 20_000);
        assert!(stats.translation_cpi() > 0.0);
        assert_eq!(stats.scheme, "Base");
        assert_eq!(stats.anchor_distance, None);
    }

    #[test]
    fn anchor_machine_reports_distance() {
        let map = Arc::new(Scenario::LowContiguity.generate(4096, 2));
        let trace = trace(WorkloadKind::Gups, 4096, 2, 5_000);
        let stats = run(SchemeKind::AnchorDynamic, &map, &trace, u64::MAX);
        let d = stats.anchor_distance.expect("anchor scheme has a distance");
        assert!(d.is_power_of_two());
        assert!(d <= 16, "low contiguity should select a small distance, got {d}");
    }

    #[test]
    fn flush_period_increases_walks() {
        let map = Arc::new(Scenario::MediumContiguity.generate(4096, 5));
        let trace = trace(WorkloadKind::Canneal, 4096, 5, 30_000);
        let calm = run(SchemeKind::Baseline, &map, &trace, u64::MAX);
        let churned = run(SchemeKind::Baseline, &map, &trace, 1_000);
        assert!(churned.tlb_misses() > calm.tlb_misses());
        assert_eq!(churned.accesses, calm.accesses);
    }

    #[test]
    fn coalescing_recovers_faster_from_flushes() {
        let map = Arc::new(Scenario::MediumContiguity.generate(8192, 6));
        let trace = trace(WorkloadKind::Canneal, 8192, 6, 50_000);
        let walks = |kind| run(kind, &map, &trace, 5_000).tlb_misses();
        assert!(walks(SchemeKind::AnchorDynamic) < walks(SchemeKind::Baseline));
    }

    #[test]
    fn fault_names_the_scheme() {
        let config = quick();
        // The scheme only knows a 64-page mapping, but the trace is placed
        // onto a 4096-page one: it soon leaves the scheme's map.
        let small = Arc::new(Scenario::MediumContiguity.generate(64, 7));
        let big = Arc::new(Scenario::MediumContiguity.generate(4096, 7));
        let mut m =
            Machine::new(SchemeDispatch::build(SchemeKind::Baseline, &small, &config), &config);
        let trace: Vec<u64> = WorkloadKind::Gups.generator(4096, 7).take(5_000).collect();
        let resolved = big.page_index().resolve(&trace);
        let err = m.try_run_resolved(&resolved).expect_err("mismatched maps must fault");
        match err {
            crate::SimError::TraceFault { scheme, .. } => assert_eq!(scheme, "Base"),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn relative_misses_math() {
        let map = Arc::new(Scenario::MaxContiguity.generate(1 << 13, 3));
        let trace = trace(WorkloadKind::Milc, 1 << 13, 3, 30_000);
        let base = run(SchemeKind::Baseline, &map, &trace, u64::MAX);
        let anchor = run(SchemeKind::AnchorDynamic, &map, &trace, u64::MAX);
        let rel = anchor.relative_misses_pct(&base);
        assert!(rel < 30.0, "anchor at {rel}% of baseline misses");
        assert!((base.relative_misses_pct(&base) - 100.0).abs() < 1e-9);
    }
}
