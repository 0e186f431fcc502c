//! §3.3 distance-change cost: sweeping the anchored page table of a 30 GB
//! process at distances 8 / 64 / 512.
//!
//! The paper measured 452 ms / 71.7 ms / 1.7 ms on real hardware. This
//! binary reports the calibrated cost model's estimate for the same 30 GB
//! footprint (scaled down under --quick). The wall-clock time of the
//! software sweep itself goes to stderr only, so the archived outputs stay
//! byte-identical from run to run.

use crate::{Matrix, Output};
use hytlb_mem::Scenario;
use hytlb_pagetable::{AnchoredPageTable, PageTable};
use hytlb_sim::report::render_table;
use hytlb_sim::PaperConfig;
use std::time::Instant;

pub(crate) const BANNER: &str = "Distance-change cost (paper §3.3)";
pub(crate) fn format(config: &PaperConfig, _: &Matrix) -> Output {
    // 30 GB = 7,864,320 pages, exactly the paper's measurement; only
    // --quick shrinks it (the shift is 2 at default scale and 0 under
    // --paper, both of which should measure the true 30 GB sweep).
    let shift = config.footprint_shift.saturating_sub(2);
    let footprint = (30u64 * 1024 * 1024 * 1024 / 4096) >> shift;
    let map = Scenario::MaxContiguity.generate(footprint, config.seed);
    let mut apt = AnchoredPageTable::new(PageTable::from_map(&map, false), 8);

    let paper_ms = [("8", 452.0), ("64", 71.7), ("512", 1.7)];
    let cols = vec!["anchors".to_owned(), "model est.".to_owned(), "paper".to_owned()];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (label, paper) in paper_ms {
        let d: u64 = label.parse().expect("static labels");
        let start = Instant::now();
        let cost = apt.reanchor(&map, d);
        let wall = start.elapsed();
        eprintln!("d={label}: sweep wall time {:.1} ms", wall.as_secs_f64() * 1e3);
        let est = cost.estimated_time();
        json.push(serde_json::json!({
            "distance": d,
            "slots_visited": cost.slots_visited,
            "model_ms": est.as_secs_f64() * 1e3,
            "paper_ms": paper,
            "footprint_pages": footprint,
        }));
        rows.push((
            format!("d={label}"),
            vec![
                cost.slots_visited.to_string(),
                format!("{:.1} ms", est.as_secs_f64() * 1e3),
                format!("{paper:.1} ms"),
            ],
        ));
    }
    let text = format!(
        "{}\nThe model is calibrated to the paper's d=8 point (460 ns/anchor); the\n\
         d=512 paper measurement is faster than linear scaling predicts (likely\n\
         cache effects on real hardware) — recorded as a divergence in\n\
         EXPERIMENTS.md.\n",
        render_table("sweep cost (30 GB)", &cols, &rows)
    );
    Ok((text, serde_json::to_string_pretty(&json).expect("serializable")))
}
