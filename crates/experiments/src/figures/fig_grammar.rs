//! Grammar study — beyond the paper: grammar-compressed temporal
//! metadata at iso-storage.
//!
//! TIFS spends its metadata budget on raw 39-bit IML entries; the
//! grammar arm ([`tifs_core::TifsGrammarPrefetcher`]) spends the same
//! bytes on a budget-bounded SEQUITUR grammar over the miss stream plus
//! a rule-head index. Recurring streams collapse into rules, so the
//! grammar retains a longer effective history window per byte — exactly
//! the regime the paper's Figure 11 capacity study probes from the raw
//! side. This grid holds the chip's total metadata budget fixed
//! (iso-storage) and compares, per (workload × cores × budget):
//!
//! * **TIFS-private** — the paper's virtualized design at that budget;
//! * **TIFS-pool** — the strongest raw-history organization from the
//!   sharing study (fully-shared pool behind one metadata port);
//! * **Grammar** — the grammar arm, honest storage charge
//!   (13 B/node + 8 B/index slot);
//! * **Grammar-RLE** — the same with run-length-encoded terminals.
//!
//! # Measured result (default scale, 2M+2M instructions, seed 42)
//!
//! The grammar arm **loses** to raw-history TIFS at every budget:
//! mean coverage across the six workloads at 2 cores is 0.059 vs 0.515
//! (9.75 KB), 0.177 vs 0.657 (39 KB), 0.311 vs 0.712 (156 KB), with
//! mean speedup 0.95–0.98 of TIFS-private. Three structural reasons,
//! visible in the counters:
//!
//! 1. **Node cost.** A grammar node charges 13 B (104 bits) against a
//!    39-bit raw IML entry — compression must exceed 2.7× just to
//!    break even on blocks-of-history-per-byte, and these miss streams
//!    compress less than that (the eviction counter shows the small
//!    budgets churning tens of thousands of terminals).
//! 2. **Entry points.** TIFS's Index Table points into *any* IML
//!    position, so every recorded miss can start a stream; the grammar
//!    arm prefetches only at indexed rule heads (recurrence ≥ 2,
//!    expansion ≥ 2), which covers a small fraction of lookups.
//! 3. **Staleness.** Lookups serve a snapshot up to `refresh_interval`
//!    appends old, so freshly-learned streams are invisible for a
//!    window raw TIFS doesn't have.
//!
//! RLE changes nothing (miss streams rarely repeat a block
//! back-to-back). Coverage *does* scale with budget — the grammar is
//! learning real structure — but as metadata compression, rules under
//! these budgets are strictly dominated by spending the same bytes on
//! raw log entries. The figure exists to pin that negative result.

use tifs_core::{entries_per_core_for_kb, ImlStorage, MetadataOrg, TifsConfig, TifsGrammarConfig};
use tifs_sim::config::SystemConfig;

use crate::engine::{ExperimentGrid, Lab, SystemSpec};
use crate::figures::fig_sharing::SHARED_WAYS;
use crate::report::render_table;
use crate::sink::{Cell, StructuredReport};

/// Core counts the default study stretches each budget across.
pub fn default_core_counts() -> Vec<usize> {
    vec![2, 4]
}

/// Total-metadata budgets in KB, matching the sharing study: 1/16, 1/4,
/// and all of the paper's 156 KB design point. The small budgets are
/// where compression should pay — at 156 KB the raw logs already hold
/// the working set.
pub fn default_budgets_kb() -> Vec<f64> {
    vec![9.75, 39.0, 156.0]
}

/// The systems compared in every (budget × core-count) group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrammarArm {
    /// TIFS-virtualized, private per-core capacity (the paper).
    TifsPrivate,
    /// TIFS-virtualized over a fully-shared metadata pool.
    TifsPool,
    /// Grammar-compressed history, plain terminals.
    Grammar,
    /// Grammar-compressed history, run-length-encoded terminals.
    GrammarRle,
}

impl GrammarArm {
    /// All arms, baseline first.
    pub fn all() -> Vec<GrammarArm> {
        vec![
            GrammarArm::TifsPrivate,
            GrammarArm::TifsPool,
            GrammarArm::Grammar,
            GrammarArm::GrammarRle,
        ]
    }

    /// Short label used in system names and report rows.
    pub fn label(self) -> &'static str {
        match self {
            GrammarArm::TifsPrivate => "tifs-private",
            GrammarArm::TifsPool => "tifs-pool",
            GrammarArm::Grammar => "grammar",
            GrammarArm::GrammarRle => "grammar-rle",
        }
    }
}

/// One (workload × cores × budget × arm) measurement.
#[derive(Clone, Debug)]
pub struct GrammarCell {
    /// Workload display name.
    pub workload: String,
    /// CMP core count.
    pub cores: usize,
    /// Total chip metadata budget in KB (iso-storage across arms).
    pub budget_kb: f64,
    /// System under test.
    pub arm: GrammarArm,
    /// Aggregate IPC.
    pub ipc: f64,
    /// IPC relative to [`GrammarArm::TifsPrivate`] at the same
    /// (workload, cores, budget).
    pub speedup_vs_tifs: f64,
    /// Miss coverage.
    pub coverage: f64,
    /// Prefetched blocks supplied to demand misses.
    pub supplied: f64,
    /// Live grammar rules at end of run (grammar arms; 0 for TIFS).
    pub grammar_rules: f64,
    /// Indexed rule heads at end of run (grammar arms; 0 for TIFS).
    pub index_entries: f64,
    /// Terminals evicted by grammar budget enforcement.
    pub evictions: f64,
    /// Charged metadata bytes at end of run (grammar arms; 0 for TIFS,
    /// whose charge is the configured entries × 39 bits by construction).
    pub storage_bytes: f64,
}

/// The system spec for one arm at `budget_kb` total across `cores`.
pub fn system_for(arm: GrammarArm, budget_kb: f64, cores: usize) -> SystemSpec {
    let label = format!("{budget_kb}KB/{}", arm.label());
    match arm {
        GrammarArm::TifsPrivate | GrammarArm::TifsPool => SystemSpec::tifs(
            label,
            TifsConfig {
                storage: ImlStorage::Virtualized {
                    entries_per_core: entries_per_core_for_kb(budget_kb, cores),
                },
                metadata: if arm == GrammarArm::TifsPool {
                    MetadataOrg::shared_pool(SHARED_WAYS)
                } else {
                    MetadataOrg::PrivatePerCore
                },
                ..TifsConfig::virtualized()
            },
        ),
        GrammarArm::Grammar | GrammarArm::GrammarRle => SystemSpec::grammar(
            label,
            TifsGrammarConfig::default()
                .with_budget_bytes((budget_kb * 1024.0 / cores as f64) as usize)
                .with_rle(arm == GrammarArm::GrammarRle),
        ),
    }
}

/// Runs the default study grid on a lab's workloads.
pub fn run_on(lab: &Lab) -> Vec<GrammarCell> {
    run_grid(lab, &default_core_counts(), &default_budgets_kb())
}

/// Runs the study over explicit core counts and budgets (tests pin a
/// reduced grid through here).
pub fn run_grid(lab: &Lab, core_counts: &[usize], budgets_kb: &[f64]) -> Vec<GrammarCell> {
    run_grid_with_threads(lab, core_counts, budgets_kb, None)
}

/// As [`run_grid`], with an explicit worker count (`None` = machine
/// parallelism / `TIFS_THREADS`). The grid test pins that every worker
/// count produces byte-identical structured reports.
pub fn run_grid_with_threads(
    lab: &Lab,
    core_counts: &[usize],
    budgets_kb: &[f64],
    threads: Option<usize>,
) -> Vec<GrammarCell> {
    let mut cells = Vec::new();
    for &cores in core_counts {
        let sys = SystemConfig {
            num_cores: cores,
            ..SystemConfig::table2()
        };
        let columns: Vec<(f64, GrammarArm, SystemSpec)> = budgets_kb
            .iter()
            .flat_map(|&kb| {
                GrammarArm::all()
                    .into_iter()
                    .map(move |arm| (kb, arm, system_for(arm, kb, cores)))
            })
            .collect();
        let mut grid = ExperimentGrid::new(*lab.exp())
            .with_system_config(sys)
            .systems(columns.iter().map(|(_, _, s)| s.clone()));
        if let Some(n) = threads {
            grid = grid.threads(n);
        }
        let results = grid.run_on(lab);
        for row in results.iter_rows() {
            for (kb, arm, spec) in &columns {
                let report = row.report(spec.clone()).expect("cell in grid");
                let baseline = row
                    .report(system_for(GrammarArm::TifsPrivate, *kb, cores))
                    .expect("TIFS baseline in grid");
                let base_ipc = baseline.aggregate_ipc();
                let counter = |name: &str| report.prefetcher_counter(name).unwrap_or(0.0);
                cells.push(GrammarCell {
                    workload: row.workload().to_string(),
                    cores,
                    budget_kb: *kb,
                    arm: *arm,
                    ipc: report.aggregate_ipc(),
                    speedup_vs_tifs: if base_ipc > 0.0 {
                        report.aggregate_ipc() / base_ipc
                    } else {
                        0.0
                    },
                    coverage: report.coverage(),
                    supplied: counter("supplied"),
                    grammar_rules: counter("grammar_rules"),
                    index_entries: counter("grammar_index_entries"),
                    evictions: counter("grammar_evictions"),
                    storage_bytes: counter("grammar_storage_bytes"),
                });
            }
        }
    }
    cells
}

/// Canonical structured form: one row per measured cell.
pub fn structured(cells: &[GrammarCell]) -> StructuredReport {
    let mut report = StructuredReport::new(
        "fig_grammar",
        "Grammar study — grammar-compressed metadata vs raw history at iso-storage",
        [
            "workload",
            "cores",
            "budget_kb",
            "system",
            "ipc",
            "speedup_vs_tifs",
            "coverage",
            "supplied",
            "grammar_rules",
            "index_entries",
            "evictions",
            "storage_bytes",
        ],
    );
    for c in cells {
        report.push_row(vec![
            Cell::from(c.workload.as_str()),
            Cell::from(c.cores),
            Cell::Num(c.budget_kb),
            Cell::from(c.arm.label()),
            Cell::Num(c.ipc),
            Cell::Num(c.speedup_vs_tifs),
            Cell::Num(c.coverage),
            Cell::Num(c.supplied),
            Cell::Num(c.grammar_rules),
            Cell::Num(c.index_entries),
            Cell::Num(c.evictions),
            Cell::Num(c.storage_bytes),
        ]);
    }
    report
}

/// Renders the per-cell table plus a per-(cores, budget) summary of the
/// grammar arm's mean coverage and speedup against TIFS-private.
pub fn render(cells: &[GrammarCell]) -> String {
    let headers = [
        "workload",
        "cores",
        "budget KB",
        "system",
        "IPC",
        "vs TIFS",
        "coverage",
        "rules",
        "idx",
        "evicted",
    ];
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.workload.clone(),
                c.cores.to_string(),
                format!("{}", c.budget_kb),
                c.arm.label().to_string(),
                format!("{:.3}", c.ipc),
                format!("{:.3}", c.speedup_vs_tifs),
                format!("{:.3}", c.coverage),
                format!("{:.0}", c.grammar_rules),
                format!("{:.0}", c.index_entries),
                format!("{:.0}", c.evictions),
            ]
        })
        .collect();
    let mut out = format!(
        "Grammar study — grammar-compressed metadata at iso-storage\n{}",
        render_table(&headers, &rows)
    );
    let mut groups: Vec<(usize, f64)> = Vec::new();
    for c in cells {
        if !groups.contains(&(c.cores, c.budget_kb)) {
            groups.push((c.cores, c.budget_kb));
        }
    }
    for (cores, kb) in groups {
        let pick = |arm: GrammarArm, f: fn(&GrammarCell) -> f64| -> Option<f64> {
            let v: Vec<f64> = cells
                .iter()
                .filter(|c| c.cores == cores && c.budget_kb == kb && c.arm == arm)
                .map(f)
                .collect();
            (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
        };
        if let (Some(speed), Some(cov), Some(tifs_cov)) = (
            pick(GrammarArm::Grammar, |c| c.speedup_vs_tifs),
            pick(GrammarArm::Grammar, |c| c.coverage),
            pick(GrammarArm::TifsPrivate, |c| c.coverage),
        ) {
            out.push_str(&format!(
                "grammar vs tifs-private @ {cores} cores, {kb} KB: mean speedup {speed:.3}, \
                 coverage {cov:.3} vs {tifs_cov:.3}\n"
            ));
        }
    }
    out
}
