//! `hytlb` — command-line front end for single simulation cells.
//!
//! ```sh
//! hytlb --workload gups --scenario medium --scheme dynamic --accesses 500000
//! hytlb --list
//! ```

use hytlb::pagetable::is_valid_anchor_distance;
use hytlb::prelude::*;
use hytlb::sim::experiment::{mapping_for, trace_for};
use hytlb::sim::SimError;
use hytlb::trace::WorkloadKind;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: hytlb [--list] [--workload NAME] [--scenario NAME] [--scheme NAME]\n\
         \x20             [--accesses N] [--seed N] [--shift N] [--json]\n\
         defaults: --workload canneal --scenario medium --scheme dynamic"
    );
    std::process::exit(2)
}

fn parse_scheme(name: &str) -> Option<SchemeKind> {
    Some(match name.to_ascii_lowercase().as_str() {
        "base" | "baseline" => SchemeKind::Baseline,
        "thp" => SchemeKind::Thp,
        "cluster" => SchemeKind::Cluster,
        "cluster-2mb" | "cluster2mb" => SchemeKind::Cluster2Mb,
        "colt" => SchemeKind::Colt,
        "rmm" => SchemeKind::Rmm,
        "dynamic" | "anchor" => SchemeKind::AnchorDynamic,
        "regions" => SchemeKind::AnchorMultiRegion(8),
        other => {
            let d: u64 = other.strip_prefix("anchor-d")?.parse().ok()?;
            is_valid_anchor_distance(d).then_some(SchemeKind::AnchorStatic(d))?
        }
    })
}

fn parse_scenario(name: &str) -> Option<Scenario> {
    Scenario::all().into_iter().find(|s| s.label() == name.to_ascii_lowercase())
}

fn main() -> Result<(), SimError> {
    let mut workload = WorkloadKind::Canneal;
    let mut scenario = Scenario::MediumContiguity;
    let mut scheme = SchemeKind::AnchorDynamic;
    let mut config =
        PaperConfig { accesses: 1_000_000, footprint_shift: 2, ..PaperConfig::default() };
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--list" => {
                println!("workloads: {}", WorkloadKind::all().map(|w| w.label()).join(" "));
                println!("scenarios: {}", Scenario::all().map(|s| s.label()).join(" "));
                println!(
                    "schemes:   base thp cluster cluster-2mb colt rmm dynamic regions anchor-d<N>\n\
                     \x20          (N a power of two in 2..=65536)"
                );
                return Ok(());
            }
            "--workload" => {
                let v = value(&mut args);
                workload = WorkloadKind::from_label(&v).unwrap_or_else(|| usage());
            }
            "--scenario" => {
                let v = value(&mut args);
                scenario = parse_scenario(&v).unwrap_or_else(|| usage());
            }
            "--scheme" => {
                let v = value(&mut args);
                scheme = parse_scheme(&v).unwrap_or_else(|| usage());
            }
            "--accesses" => config.accesses = value(&mut args).parse().unwrap_or_else(|_| usage()),
            "--seed" => config.seed = value(&mut args).parse().unwrap_or_else(|_| usage()),
            "--shift" => {
                // Footprints are u64 page counts: a shift of 64 or more
                // would overflow.
                config.footprint_shift = value(&mut args)
                    .parse()
                    .ok()
                    .filter(|&shift| shift < u64::BITS)
                    .unwrap_or_else(|| usage())
            }
            "--json" => json = true,
            _ => usage(),
        }
    }

    let map = mapping_for(workload, scenario, &config);
    let index = Arc::new(map.page_index());
    let resolved = index.resolve(&trace_for(workload, &config));
    let run_kind =
        |kind| Machine::for_scheme_indexed(kind, &map, &index, &config).try_run_resolved(&resolved);
    let base = run_kind(SchemeKind::Baseline)?;
    let run = run_kind(scheme)?;

    if json {
        println!("{}", hytlb::sim::report::to_json(&run));
        return Ok(());
    }
    println!(
        "{} on {} under {}: footprint {} pages, {} chunks",
        run.scheme,
        workload,
        scenario,
        map.mapped_pages(),
        map.chunk_count()
    );
    println!(
        "  walks: {} ({:.1}% of baseline)   translation CPI: {:.4}",
        run.tlb_misses(),
        run.relative_misses_pct(&base),
        run.translation_cpi()
    );
    println!(
        "  L2 breakdown: regular {:.0}%, coalesced {:.0}%, miss {:.0}%",
        run.stats.l2_regular_hit_rate() * 100.0,
        run.stats.l2_coalesced_hit_rate() * 100.0,
        run.stats.l2_miss_rate() * 100.0
    );
    if let Some(d) = run.anchor_distance {
        println!("  anchor distance: {d}");
    }
    Ok(())
}
