//! Text and JSON renderers that reproduce the paper's figure/table rows.

use crate::error::SimError;
use crate::experiment::SuiteResult;
use std::fmt::Write as _;

/// Renders a generic aligned table.
///
/// `rows` pairs a row label with its cell strings; `cols` are the column
/// headers (excluding the leading row-label column).
#[must_use]
pub fn render_table(title: &str, cols: &[String], rows: &[(String, Vec<String>)]) -> String {
    let label_w = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(std::iter::once(title.len()))
        .max()
        .unwrap_or(8)
        .max(8);
    let col_ws: Vec<usize> = cols
        .iter()
        .enumerate()
        .map(|(i, c)| {
            rows.iter()
                .filter_map(|(_, cells)| cells.get(i).map(String::len))
                .chain(std::iter::once(c.len()))
                .max()
                .unwrap_or(6)
        })
        .collect();
    let mut out = String::new();
    let _ = write!(out, "{title:<label_w$}");
    for (c, w) in cols.iter().zip(&col_ws) {
        let _ = write!(out, "  {c:>w$}");
    }
    out.push('\n');
    let total: usize = label_w + col_ws.iter().map(|w| w + 2).sum::<usize>();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for (label, cells) in rows {
        let _ = write!(out, "{label:<label_w$}");
        for (cell, w) in cells.iter().zip(&col_ws) {
            let _ = write!(out, "  {cell:>w$}");
        }
        out.push('\n');
    }
    out
}

/// Relative-TLB-miss table for one suite (the bar heights of Figures 7/8):
/// one row per workload plus a `mean` row; values in percent of the first
/// scheme (the baseline).
#[must_use]
pub fn relative_miss_table(suite: &SuiteResult) -> String {
    let mut rows: Vec<(String, Vec<String>)> = suite
        .rows
        .iter()
        .map(|row| {
            let base = &row.runs[0];
            let cells =
                row.runs.iter().map(|r| format!("{:.1}", r.relative_misses_pct(base))).collect();
            (row.workload.label().to_owned(), cells)
        })
        .collect();
    let means = suite.mean_relative_misses();
    rows.push(("mean".to_owned(), means.iter().map(|m| format!("{m:.1}")).collect()));
    render_table(&format!("rel.misses% [{}]", suite.scenario.label()), &suite.schemes, &rows)
}

/// Table 5-style L2 access breakdown for one scheme column of a suite:
/// regular-hit / coalesced-hit / miss rates of L2 accesses.
///
/// # Panics
///
/// Panics if `scheme_index` is out of range for the suite.
#[must_use]
pub fn l2_breakdown_table(suite: &SuiteResult, scheme_index: usize) -> String {
    let cols = vec!["R.hit".to_owned(), "A.hit".to_owned(), "L2 miss".to_owned()];
    let rows: Vec<(String, Vec<String>)> = suite
        .rows
        .iter()
        .map(|row| {
            let s = &row.runs[scheme_index].stats;
            (
                row.workload.label().to_owned(),
                vec![
                    format!("{:.0} %", s.l2_regular_hit_rate() * 100.0),
                    format!("{:.0} %", s.l2_coalesced_hit_rate() * 100.0),
                    format!("{:.0} %", s.l2_miss_rate() * 100.0),
                ],
            )
        })
        .collect();
    render_table(
        &format!("L2 breakdown [{} / {}]", suite.scenario.label(), suite.schemes[scheme_index]),
        &cols,
        &rows,
    )
}

/// Table 6-style anchor-distance table: workloads × scenarios, showing the
/// distance the dynamic algorithm selected in each suite. All suites must
/// contain the same workloads in the same order and include an anchor
/// scheme run; a violation is reported as a [`SimError`] naming the
/// offending row and column instead of a bare panic.
pub fn distance_table(suites: &[&SuiteResult], scheme_index: usize) -> Result<String, SimError> {
    let first = suites.first().ok_or(SimError::NoSuites)?;
    let cols: Vec<String> = suites.iter().map(|s| s.scenario.label().to_owned()).collect();
    let rows: Vec<(String, Vec<String>)> = first
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let cells = suites
                .iter()
                .map(|s| {
                    if s.rows[i].workload != row.workload {
                        return Err(SimError::SuiteMisaligned {
                            row: i,
                            expected: row.workload.label().to_owned(),
                            found: s.rows[i].workload.label().to_owned(),
                        });
                    }
                    let d = s.rows[i].runs[scheme_index].anchor_distance.ok_or_else(|| {
                        SimError::NotAnAnchorColumn {
                            scheme: s.schemes[scheme_index].clone(),
                            workload: row.workload.label().to_owned(),
                        }
                    })?;
                    Ok(format_distance(d))
                })
                .collect::<Result<Vec<String>, SimError>>()?;
            Ok((row.workload.label().to_owned(), cells))
        })
        .collect::<Result<_, SimError>>()?;
    Ok(render_table("anchor distance", &cols, &rows))
}

/// Formats a distance the way Table 6 does (4, 32, 1K, 64K, ...).
#[must_use]
pub fn format_distance(d: u64) -> String {
    if d >= 1024 && d.is_multiple_of(1024) {
        format!("{}K", d / 1024)
    } else {
        d.to_string()
    }
}

/// Translation-CPI breakdown table (Figures 10/11): per workload and
/// scheme, `L2hit + coalesced + walk = total` CPI.
#[must_use]
pub fn cpi_table(suite: &SuiteResult) -> String {
    let rows: Vec<(String, Vec<String>)> = suite
        .rows
        .iter()
        .map(|row| {
            let cells = row
                .runs
                .iter()
                .map(|r| {
                    format!(
                        "{:.3} ({:.3}+{:.3}+{:.3})",
                        r.cpi.total(),
                        r.cpi.l2_hit,
                        r.cpi.coalesced_hit,
                        r.cpi.walk
                    )
                })
                .collect();
            (row.workload.label().to_owned(), cells)
        })
        .collect();
    render_table(
        &format!("translation CPI [{}] (total = l2+coal+walk)", suite.scenario.label()),
        &suite.schemes,
        &rows,
    )
}

/// Renders grouped horizontal ASCII bars — the textual analogue of the
/// paper's bar figures. One group per row label; one bar per series, drawn
/// to a shared scale with its numeric value appended.
///
/// ```
/// use hytlb_sim::report::render_bars;
/// let s = render_bars(
///     "relative misses %",
///     &["Base".into(), "Dynamic".into()],
///     &[("gups".into(), vec![100.0, 25.0])],
///     100.0,
/// );
/// assert!(s.contains("gups"));
/// assert!(s.contains("Dynamic"));
/// ```
///
/// # Panics
///
/// Panics if `full_scale` is not a positive, finite number or a row's
/// value count differs from the series count.
#[must_use]
pub fn render_bars(
    title: &str,
    series: &[String],
    rows: &[(String, Vec<f64>)],
    full_scale: f64,
) -> String {
    assert!(full_scale > 0.0 && full_scale.is_finite(), "bad scale");
    const WIDTH: usize = 40;
    let name_w = series.iter().map(String::len).max().unwrap_or(4).max(4);
    let mut out = format!("{title}  (bar = {full_scale} at full width)\n");
    for (label, values) in rows {
        assert_eq!(values.len(), series.len(), "row {label} has wrong arity");
        out.push_str(label);
        out.push('\n');
        for (name, &v) in series.iter().zip(values) {
            let clamped = v.clamp(0.0, full_scale);
            let cells = ((clamped / full_scale) * WIDTH as f64).round() as usize;
            let _ = writeln!(
                out,
                "  {name:<name_w$} |{}{} {v:.1}",
                "#".repeat(cells),
                " ".repeat(WIDTH - cells),
            );
        }
    }
    out
}

/// Bar view of a suite's mean relative misses (Figure 9 row).
#[must_use]
pub fn suite_bars(suite: &SuiteResult) -> String {
    let means = suite.mean_relative_misses();
    render_bars(
        &format!("mean relative misses, {}", suite.scenario.label()),
        &suite.schemes,
        &[(suite.scenario.label().to_owned(), means)],
        100.0,
    )
}

/// Serializes any result to pretty JSON for downstream tooling.
///
/// # Panics
///
/// Panics if serialization fails (the types here cannot fail to serialize).
#[must_use]
pub fn to_json<T: serde::Serialize>(value: &T) -> String {
    try_to_json(value).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`to_json`]: a serializer failure surfaces as
/// [`SimError::Serialize`] carrying the serializer's message.
pub fn try_to_json<T: serde::Serialize>(value: &T) -> Result<String, SimError> {
    serde_json::to_string_pretty(value).map_err(|e| SimError::Serialize { detail: e.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PaperConfig, SchemeKind};
    use crate::experiment::run_suite;
    use hytlb_mem::Scenario;
    use hytlb_trace::WorkloadKind;

    fn small_suite() -> SuiteResult {
        let config = PaperConfig { accesses: 5_000, footprint_shift: 5, ..PaperConfig::default() };
        run_suite(
            Scenario::MediumContiguity,
            &[WorkloadKind::Gups, WorkloadKind::Canneal],
            &[SchemeKind::Baseline, SchemeKind::AnchorDynamic],
            &config,
        )
        .unwrap()
    }

    #[test]
    fn tables_render_every_row_and_column() {
        let suite = small_suite();
        let t = relative_miss_table(&suite);
        assert!(t.contains("gups"));
        assert!(t.contains("canneal"));
        assert!(t.contains("mean"));
        assert!(t.contains("Dynamic"));
        let b = l2_breakdown_table(&suite, 1);
        assert!(b.contains("R.hit") && b.contains("A.hit"));
        let c = cpi_table(&suite);
        assert!(c.contains("translation CPI"));
    }

    #[test]
    fn distance_table_renders_k_suffixes() {
        assert_eq!(format_distance(4), "4");
        assert_eq!(format_distance(1024), "1K");
        assert_eq!(format_distance(65536), "64K");
        assert_eq!(format_distance(1536), "1536");
        let suite = small_suite();
        let t = distance_table(&[&suite], 1).expect("anchor column renders");
        assert!(t.contains("gups"));
        assert!(t.contains("medium"));
    }

    #[test]
    fn distance_table_reports_bad_inputs_by_name() {
        assert_eq!(distance_table(&[], 0), Err(SimError::NoSuites));
        let suite = small_suite();
        // Column 0 is the baseline: no anchor distance to report.
        let err = distance_table(&[&suite], 0).expect_err("baseline has no distance");
        let msg = err.to_string();
        assert!(msg.contains("Base") && msg.contains("gups"), "{msg}");
    }

    #[test]
    fn bars_scale_and_clamp() {
        let s = render_bars(
            "t",
            &["a".to_owned(), "b".to_owned()],
            &[("row".to_owned(), vec![50.0, 250.0])],
            100.0,
        );
        let lines: Vec<&str> = s.lines().collect();
        // 50% of a 40-cell bar = 20 hashes; 250 clamps to 40.
        assert_eq!(lines[2].matches('#').count(), 20);
        assert_eq!(lines[3].matches('#').count(), 40);
        assert!(lines[2].contains("50.0"));
        assert!(lines[3].contains("250.0"));
    }

    #[test]
    fn suite_bars_include_every_scheme() {
        let suite = small_suite();
        let s = suite_bars(&suite);
        assert!(s.contains("Base"));
        assert!(s.contains("Dynamic"));
    }

    #[test]
    #[should_panic(expected = "bad scale")]
    fn bars_reject_nonpositive_scale() {
        let _ = render_bars("t", &[], &[], 0.0);
    }

    #[test]
    fn json_roundtrips() {
        let suite = small_suite();
        let json = to_json(&suite);
        let back: SuiteResult = serde_json::from_str(&json).unwrap();
        // Floats may lose a ULP through decimal JSON; compare the exact
        // integer payloads and structure.
        assert_eq!(back.scenario, suite.scenario);
        assert_eq!(back.schemes, suite.schemes);
        for (br, sr) in back.rows.iter().zip(&suite.rows) {
            assert_eq!(br.workload, sr.workload);
            for (b, s) in br.runs.iter().zip(&sr.runs) {
                assert_eq!(b.stats, s.stats);
                assert_eq!(b.anchor_distance, s.anchor_distance);
            }
        }
    }

    #[test]
    fn render_table_alignment_is_stable() {
        let t = render_table(
            "t",
            &["a".to_owned(), "bb".to_owned()],
            &[("row".to_owned(), vec!["1".to_owned(), "2".to_owned()])],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }
}
