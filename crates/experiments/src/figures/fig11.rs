//! Figure 11 — TIFS predictor coverage as a function of IML storage
//! capacity (perfect dedicated Index Table, functional model).
//!
//! Capacity changes only which log positions are still retained and the
//! stream state that follows from that; the per-core miss logs and the
//! Index Table are the same at every budget. So all eight budgets run as
//! lanes of one [`FunctionalTifs`]: one pass per workload costing one
//! index lookup, one index update and one log append per miss, plus
//! lanes × stream contexts × window compares. The shared logs keep every
//! miss (8 bytes each) instead of one ring per budget.

use tifs_core::{entries_per_core_for_kb, FunctionalConfig, FunctionalTifs};

use crate::engine::{Lab, ANALYSIS_CORES};
use crate::harness::ExpConfig;
use crate::report::{pct, render_table};
use crate::sink::{Cell, StructuredReport};

/// Swept total IML storage budgets in kilobytes (log-ish scale, as the
/// paper's 10–1000 KB x-axis).
pub const STORAGE_KB: [f64; 8] = [10.0, 20.0, 40.0, 80.0, 156.0, 320.0, 640.0, 1000.0];

/// Coverage curve of one workload.
#[derive(Clone, Debug)]
pub struct CapacityCurve {
    /// Workload name.
    pub workload: String,
    /// (total KB, coverage) points.
    pub points: Vec<(f64, f64)>,
}

/// Runs the Figure 11 sweep (4 cores, shared index).
pub fn run(cfg: &ExpConfig) -> Vec<CapacityCurve> {
    run_on(&Lab::all_six(*cfg))
}

/// As [`run`], on an existing lab (cached miss traces shared with the
/// other trace analyses). One lane per storage point: every workload's
/// traces are replayed once, through one shared log and Index Table.
pub fn run_on(lab: &Lab) -> Vec<CapacityCurve> {
    let capacities: Vec<Option<usize>> = STORAGE_KB
        .iter()
        .map(|&kb| {
            Some(entries_per_core_for_kb(kb, ANALYSIS_CORES).max(tifs_core::ENTRIES_PER_L2_BLOCK))
        })
        .collect();
    lab.analyze(|ctx| {
        let mut f = FunctionalTifs::with_capacities(
            ANALYSIS_CORES,
            FunctionalConfig::default(),
            &capacities,
        );
        f.process_interleaved(ctx.miss_traces());
        CapacityCurve {
            workload: ctx.name(),
            points: STORAGE_KB
                .iter()
                .zip(f.reports())
                .map(|(&kb, r)| (kb, r.coverage()))
                .collect(),
        }
    })
}

/// Canonical structured form (one coverage column per storage budget).
pub fn structured(results: &[CapacityCurve]) -> StructuredReport {
    let mut columns = vec!["workload".to_string()];
    columns.extend(STORAGE_KB.iter().map(|kb| format!("coverage_at_{kb:.0}kb")));
    let mut report = StructuredReport::new(
        "fig11",
        "Figure 11 — TIFS coverage vs. total IML storage (perfect dedicated index)",
        columns,
    );
    for r in results {
        let mut row = vec![Cell::from(r.workload.as_str())];
        row.extend(r.points.iter().map(|&(_, c)| Cell::Num(c)));
        report.push_row(row);
    }
    report
}

/// Renders coverage per storage budget.
pub fn render(results: &[CapacityCurve]) -> String {
    let mut headers = vec!["workload".to_string()];
    headers.extend(STORAGE_KB.iter().map(|kb| format!("{kb:.0}KB")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let mut row = vec![r.workload.clone()];
            row.extend(r.points.iter().map(|&(_, c)| pct(c)));
            row
        })
        .collect();
    format!(
        "Figure 11 — TIFS coverage vs. total IML storage (perfect dedicated index)\n{}",
        render_table(&header_refs, &rows)
    )
}
