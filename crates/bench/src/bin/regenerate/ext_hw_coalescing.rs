//! Extension experiment: the HW-only coalescing design space of §2.1.
//!
//! The paper motivates hybrid coalescing by the limits of pure-hardware
//! designs: CoLT-SA and the cluster TLB coalesce only 4–8 pages, and
//! CoLT's fully-associative mode trades unbounded runs for a handful of
//! entries. This experiment lines all three up against the anchor TLB on
//! the scenario spectrum.

use crate::{Matrix, Output};
use hytlb_mem::Scenario;
use hytlb_schemes::Mmu;
use hytlb_sim::experiment::{mapping_for, trace_for};
use hytlb_sim::report::render_table;
use hytlb_sim::{AnyLevel, Machine, PaperConfig, SchemeDispatch, SchemeKind, SimError};
use hytlb_trace::WorkloadKind;

pub(crate) const BANNER: &str = "Extension: HW-only coalescing design space (§2.1)";
pub(crate) fn format(config: &PaperConfig, _: &Matrix) -> Output {
    let workload = WorkloadKind::Canneal;
    let cols = ["Cluster", "CoLT-SA", "CoLT-FA(32)", "Dynamic"].map(str::to_owned);
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for scenario in [Scenario::LowContiguity, Scenario::MediumContiguity, Scenario::HighContiguity]
    {
        let map = mapping_for(workload, scenario, config);
        let resolved = map.page_index().resolve(&trace_for(workload, config));
        let replay = |scheme| Machine::new(scheme, config).try_run_resolved(&resolved);
        let base = replay(SchemeDispatch::build(SchemeKind::Baseline, &map))?;
        let schemes = [
            SchemeDispatch::build(SchemeKind::Cluster, &map),
            SchemeDispatch::new(Mmu::colt(&map), AnyLevel::Colt),
            SchemeDispatch::new(Mmu::colt_fa(&map), AnyLevel::Colt),
            SchemeDispatch::build(SchemeKind::AnchorDynamic, &map),
        ];
        let cells = schemes
            .into_iter()
            .map(|scheme| {
                let run = replay(scheme)?;
                json.push(serde_json::json!({
                    "scenario": scenario.label(),
                    "scheme": run.scheme,
                    "relative_misses_pct": run.relative_misses_pct(&base),
                }));
                Ok(format!("{:.1}", run.relative_misses_pct(&base)))
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        rows.push((scenario.label().to_owned(), cells));
    }
    let text = format!(
        "{}\nRelative misses (%) for canneal. The HW designs plateau: cluster and\n\
         CoLT-SA cap coverage at 8 pages, CoLT-FA covers long runs but only 32\n\
         of them. The anchor TLB scales its per-entry coverage with the mapping\n\
         — the §2.1 scalability/flexibility argument, quantified.\n",
        render_table("scenario", &cols, &rows)
    );
    Ok((text, serde_json::to_string_pretty(&json).expect("serializable")))
}
