//! The three benchmark workloads, each as an untraced iteration (the
//! public engine path, timed as a whole) and a traced iteration (the same
//! work rebuilt from the crates' public functions, with a span around
//! each call).
//!
//! Every run is pinned: explicit [`ExpConfig`] budgets, the coupled CMP,
//! the fixed [`WORKERS`] count, and store directories the benchmark creates
//! itself — never `ExpConfig::default`, `from_args`, the `*_from_env`
//! constructors, or a grid whose mode falls back to the environment.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use tifs_experiments::engine::{
    build_prefetcher, functional_section, par, report_key, run_cell, ExecMode, ExperimentGrid,
    GridResults, Lab, SystemSpec, ANALYSIS_CORES,
};
use tifs_experiments::figures::{fig03, fig05, fig06, fig10, fig11};
use tifs_experiments::sink::to_json;
use tifs_experiments::{ExpConfig, SystemKind};
use tifs_sim::miss_trace::miss_trace_with_model;
use tifs_sim::stats::SimReport;
use tifs_sim::{Cmp, SystemConfig};
use tifs_trace::{
    BlockAddr, FetchRecord, ReportStore, StoreStats, TraceKey, TraceStore, WorkloadSpec,
};

use crate::host::{timed, PhaseTime};
use crate::spans::{Calibration, HookStats, Recorder, Span, TimedIter, TimedPrefetcher, WalkStats};
use crate::WORKERS;

/// Instruction budgets of one benchmark configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budgets {
    /// Measured instructions per core of a timing cell; the warmup is the
    /// same length.
    pub timing: u64,
    /// Instructions per core walked for the trace analyses.
    pub analyses: u64,
}

impl Budgets {
    /// The budgets the benchmark measures at: small enough that one
    /// worker runs a timing-grid iteration in about 1.2 s and an analyses
    /// iteration in about 0.9 s, so every run takes many samples.
    pub const BENCH: Budgets = Budgets {
        timing: 100_000,
        analyses: 1_000_000,
    };
    /// Tiny budgets for the smoke test: same code, seconds to run.
    pub const SMOKE: Budgets = Budgets {
        timing: 3_000,
        analyses: 20_000,
    };
}

/// Everything that fixes what one benchmark process measures.
#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    pub budgets: Budgets,
    /// Working directory for this process's stores (created and removed
    /// by the benchmark).
    pub work_dir: PathBuf,
}

impl Config {
    fn timing_exp(&self) -> ExpConfig {
        ExpConfig {
            instructions: self.budgets.timing,
            warmup: self.budgets.timing,
            seed: self.seed,
        }
    }

    fn analyses_exp(&self) -> ExpConfig {
        ExpConfig {
            instructions: self.budgets.analyses,
            warmup: 0,
            seed: self.seed,
        }
    }

    /// Instructions the timing grid simulates (every cell, every core,
    /// warmup included).
    pub fn timing_instructions(&self) -> f64 {
        let cells = TIMING_SPECS.len() * timing_systems().len();
        (cells * SystemConfig::table2().num_cores) as f64 * 2.0 * self.budgets.timing as f64
    }

    /// Instructions the trace analyses walk: the per-core miss traces of
    /// every workload plus Figure 10's own core-0 pass.
    pub fn analyses_instructions(&self) -> f64 {
        (WorkloadSpec::all_six().len() * (ANALYSIS_CORES + 1)) as f64 * self.budgets.analyses as f64
    }
}

/// The two large-footprint servers of the timing grid.
const TIMING_SPECS: [fn() -> WorkloadSpec; 2] =
    [WorkloadSpec::oltp_oracle, WorkloadSpec::web_apache];

fn timing_specs() -> Vec<WorkloadSpec> {
    TIMING_SPECS.iter().map(|f| f()).collect()
}

/// Next-line plus the Figure 13 bar set: seven systems.
pub fn timing_systems() -> Vec<SystemKind> {
    std::iter::once(SystemKind::NextLine)
        .chain(SystemKind::figure13())
        .collect()
}

/// Metric-name slug of a system (`TIFS-virtualized` → `tifs_virtualized`).
pub fn slug(kind: SystemKind) -> String {
    kind.name().to_lowercase().replace('-', "_")
}

/// Span (and layer) name of a system's prefetcher: TIFS lives in the
/// core crate, the baselines in the prefetch crate.
fn prefetcher_layer(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::NextLine => "prefetch.next_line",
        SystemKind::Fdip => "prefetch.fdip",
        SystemKind::Discontinuity => "prefetch.discontinuity",
        SystemKind::Perfect => "prefetch.perfect",
        SystemKind::TifsUnbounded => "core.tifs_unbounded",
        SystemKind::TifsDedicated => "core.tifs_dedicated",
        SystemKind::TifsVirtualized => "core.tifs_virtualized",
        SystemKind::Probabilistic(_) | SystemKind::TifsGrammar => "prefetch.other",
    }
}

fn grid(cfg: &Config) -> ExperimentGrid {
    ExperimentGrid::new(cfg.timing_exp())
        .with_system_config(SystemConfig::table2())
        .systems(timing_systems())
        .threads(WORKERS)
        .mode(ExecMode::Coupled)
}

/// One timing cell's output.
#[derive(Clone, Debug)]
pub struct CellOut {
    pub workload: String,
    pub system: SystemKind,
    pub report: SimReport,
    pub bytes: Vec<u8>,
}

fn cell_out(workload: &str, system: SystemKind, report: SimReport) -> CellOut {
    CellOut {
        workload: workload.to_string(),
        system,
        bytes: report.to_canonical_bytes(),
        report,
    }
}

impl CellOut {
    /// `<workload>/<system>`, the cell's name in checks and pins.
    pub fn label(&self) -> String {
        format!("{}/{}", self.workload, self.system.name())
    }
}

fn cells_of(results: &GridResults) -> Vec<CellOut> {
    let systems = timing_systems();
    results
        .iter_rows()
        .flat_map(|row| {
            systems.iter().map(move |&k| {
                cell_out(
                    row.workload(),
                    k,
                    row.report(k).expect("grid ran every system").clone(),
                )
            })
        })
        .collect()
}

/// What an iteration produced, for the checks and the simulated results.
#[derive(Clone, Debug, Default)]
pub struct Outputs {
    pub cells: Vec<CellOut>,
    /// (figure, canonical JSON).
    pub figures: Vec<(&'static str, String)>,
}

/// One trace analysis: figure name, the layer its span is charged to,
/// and the public call that computes its canonical JSON.
type Analysis = (&'static str, &'static str, fn(&Lab) -> String);

const ANALYSES: [Analysis; 5] = [
    ("fig03", "sequitur.grammar", |lab| {
        to_json(&fig03::structured(&fig03::run_on(lab)))
    }),
    ("fig05", "sequitur.grammar", |lab| {
        to_json(&fig05::structured(&fig05::run_on(lab)))
    }),
    ("fig06", "sequitur.heuristics", |lab| {
        to_json(&fig06::structured(&fig06::run_on(lab)))
    }),
    ("fig10", "sim.lookahead", |lab| {
        to_json(&fig10::structured(&fig10::run_on(lab)))
    }),
    ("fig11", "core.functional_tifs", |lab| {
        to_json(&fig11::structured(&fig11::run_on(lab)))
    }),
];

/// Store entries a cold analyses pass writes: one miss-trace entry and
/// one Figure 10 lookahead entry per workload.
pub fn analyses_store_entries() -> u64 {
    2 * WorkloadSpec::all_six().len() as u64
}

fn run_analyses(lab: &Lab) -> Vec<(&'static str, String)> {
    ANALYSES
        .iter()
        .map(|(fig, _, run)| (*fig, run(lab)))
        .collect()
}

/// Activity of the stores an iteration used, with their entry bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreUse {
    pub trace: StoreStats,
    pub report: StoreStats,
    /// Bytes of every entry file in the iteration's stores.
    pub entry_bytes: u64,
}

/// One timed iteration.
#[derive(Debug)]
pub struct Iteration {
    /// Set-up time, for workloads that set up per iteration.
    pub setup_s: Option<f64>,
    pub phase: PhaseTime,
    pub outputs: Outputs,
    pub stores: StoreUse,
}

/// One traced iteration: its spans (set-up and phase), outputs and store
/// activity.
pub struct Traced {
    pub spans: Vec<Span>,
    pub outputs: Outputs,
    /// Outputs of untraced twin runs interleaved with the traced ones
    /// (recorded as `artifact.untraced` spans), when the workload has them.
    pub twin: Option<Outputs>,
    pub stores: StoreUse,
    /// Store hits caused only by tracing (excluded from layer counts).
    pub artifact_hits: u64,
    /// Failed expectations met while tracing (e.g. a cold read that hit).
    pub failures: Vec<String>,
}

type Res<T> = Result<T, String>;

fn io<T>(r: std::io::Result<T>, what: &str) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Recreates `dir` empty.
pub fn fresh_dir(dir: &Path) -> Res<()> {
    if dir.exists() {
        io(std::fs::remove_dir_all(dir), "clearing a store directory")?;
    }
    io(std::fs::create_dir_all(dir), "creating a store directory")
}

/// Total bytes of the store entry files under `dirs` (generation stamps
/// and temp files excluded).
fn entry_bytes(dirs: &[&Path]) -> Res<u64> {
    let mut total = 0;
    for dir in dirs {
        for entry in io(std::fs::read_dir(dir), "listing a store directory")? {
            let entry = io(entry, "listing a store directory")?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tifm") || name.ends_with(".tifr") {
                total += io(entry.metadata(), "sizing a store entry")?.len();
            }
        }
    }
    Ok(total)
}

fn build_lab(specs: Vec<WorkloadSpec>, exp: ExpConfig) -> Lab {
    Lab::build_with_threads(specs, exp, WORKERS)
}

// ---------------------------------------------------------------------------
// timing_server: the cold coupled grid, no store.
// ---------------------------------------------------------------------------

/// Times `timing_server`'s set-up alone: the `Lab` build of its specs.
pub fn timing_setup_s(cfg: &Config) -> Res<f64> {
    Ok(timed(|| build_lab(timing_specs(), cfg.timing_exp()))?
        .1
        .wall_s)
}

pub fn timing_iteration(cfg: &Config) -> Res<Iteration> {
    let (lab, setup) = timed(|| build_lab(timing_specs(), cfg.timing_exp()))?;
    let (results, phase) = timed(|| grid(cfg).run_on(&lab))?;
    Ok(Iteration {
        setup_s: Some(setup.wall_s),
        phase,
        outputs: Outputs {
            cells: cells_of(&results),
            figures: Vec::new(),
        },
        stores: StoreUse::default(),
    })
}

/// One cell rebuilt from public calls: decorated walkers and prefetcher
/// around `Cmp::run_with_warmup` — the body of `engine::run_cell`.
#[allow(clippy::too_many_arguments)]
fn traced_cell(
    rec: &Recorder,
    parent: usize,
    cell: usize,
    lab: &Lab,
    w: usize,
    kind: SystemKind,
    exp: &ExpConfig,
    sys: &SystemConfig,
    cal: &Calibration,
) -> CellOut {
    let workload = lab.workload(w);
    let report = rec.span(
        "engine.cell",
        Some(parent),
        Some(cell),
        &kind.name(),
        |cell_span| {
            let walk = Rc::new(WalkStats::default());
            let hooks = Rc::new(HookStats::default());
            let streams: Vec<Box<dyn Iterator<Item = FetchRecord> + '_>> = (0..sys.num_cores)
                .map(|c| {
                    Box::new(TimedIter::new(workload.walker(c), walk.clone()))
                        as Box<dyn Iterator<Item = _>>
                })
                .collect();
            let pf = build_prefetcher(&SystemSpec::Kind(kind), workload, sys, exp.seed);
            let mut cmp = Cmp::new(
                sys.clone(),
                streams,
                Box::new(TimedPrefetcher::new(pf, hooks.clone())),
            );
            rec.span(
                "sim.run_with_warmup",
                Some(cell_span),
                Some(cell),
                "",
                |run| {
                    let report = cmp.run_with_warmup(exp.warmup, exp.instructions);
                    rec.walk(run, cell, &walk, cal);
                    rec.hooks(run, prefetcher_layer(kind), cell, &kind.name(), &hooks, cal);
                    report
                },
            )
        },
    );
    cell_out(lab.spec(w).name, kind, report)
}

/// The timing grid with every traced cell paired with an untraced twin
/// (`engine::run_cell`, the grid's own cell runner) run right before or
/// after it, alternating. Pairing cell by cell keeps host-speed drift out
/// of the traced-vs-untraced comparison; the twins are `artifact.untraced`
/// spans, outside every layer.
pub fn timing_traced(cfg: &Config, cal: &Calibration) -> Res<Traced> {
    let rec = Recorder::default();
    let exp = cfg.timing_exp();
    let sys = SystemConfig::table2();
    let lab = rec.span("trace.build", None, None, "Lab::build", |_| {
        build_lab(timing_specs(), exp)
    });
    let systems = timing_systems();
    let cells: Vec<(usize, SystemKind)> = (0..lab.len())
        .flat_map(|w| systems.iter().map(move |&k| (w, k)))
        .collect();
    let pairs = rec.span("phase", None, None, "timing_server", |root| {
        rec.span("engine.grid", Some(root), None, "grid", |grid| {
            par::map(&cells, WORKERS, |i, &(w, kind)| {
                let twin = || {
                    rec.span(
                        "artifact.untraced",
                        Some(grid),
                        Some(i),
                        &kind.name(),
                        |_| {
                            let report =
                                run_cell(lab.workload(w), &SystemSpec::Kind(kind), &exp, &sys);
                            cell_out(lab.spec(w).name, kind, report)
                        },
                    )
                };
                let traced = || traced_cell(&rec, grid, i, &lab, w, kind, &exp, &sys, cal);
                if i % 2 == 0 {
                    let t = twin();
                    (t, traced())
                } else {
                    let c = traced();
                    (twin(), c)
                }
            })
        })
    });
    let (twin, cells): (Vec<CellOut>, Vec<CellOut>) = pairs.into_iter().unzip();
    Ok(Traced {
        spans: rec.finish(),
        outputs: Outputs {
            cells,
            figures: Vec::new(),
        },
        twin: Some(Outputs {
            cells: twin,
            figures: Vec::new(),
        }),
        stores: StoreUse::default(),
        artifact_hits: 0,
        failures: Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// analyses_six: the cold trace analyses into an empty trace store.
// ---------------------------------------------------------------------------

/// Times `analyses_six`'s set-up alone: the `Lab` build of its specs.
pub fn analyses_setup_s(cfg: &Config) -> Res<f64> {
    Ok(
        timed(|| build_lab(WorkloadSpec::all_six(), cfg.analyses_exp()))?
            .1
            .wall_s,
    )
}

pub fn analyses_iteration(cfg: &Config, dir: &Path) -> Res<Iteration> {
    fresh_dir(dir)?;
    let (lab, setup) = timed(|| build_lab(WorkloadSpec::all_six(), cfg.analyses_exp()))?;
    let lab = lab.with_store(io(TraceStore::new(dir), "opening the trace store")?);
    let (figures, phase) = timed(|| run_analyses(&lab))?;
    let stores = StoreUse {
        trace: lab.store().expect("store attached").stats(),
        report: StoreStats::default(),
        entry_bytes: entry_bytes(&[dir])?,
    };
    io(std::fs::remove_dir_all(dir), "removing the trace store")?;
    Ok(Iteration {
        setup_s: Some(setup.wall_s),
        phase,
        outputs: Outputs {
            cells: Vec::new(),
            figures,
        },
        stores,
    })
}

/// Runs the five analyses inside `root`, one span each.
fn traced_analyses(rec: &Recorder, root: usize, lab: &Lab) -> Vec<(&'static str, String)> {
    ANALYSES
        .iter()
        .map(|(fig, layer, run)| (*fig, rec.span(layer, Some(root), None, fig, |_| run(lab))))
        .collect()
}

/// The cold analyses rebuilt from public calls. `Lab::miss_traces` walks
/// inside the engine, out of a decorator's reach, so each workload's
/// traces are built here exactly as the lab builds them (store lookup,
/// `miss_trace_with_model` over decorated walkers, `save_blocks`). The
/// lab then reads them back from the store before the figures run; that
/// reload exists only because of tracing, so it is recorded as an
/// `artifact.reload` span and left out of every layer.
pub fn analyses_traced(cfg: &Config, cal: &Calibration, dir: &Path) -> Res<Traced> {
    fresh_dir(dir)?;
    let rec = Recorder::default();
    let exp = cfg.analyses_exp();
    let lab = rec.span("trace.build", None, None, "Lab::build", |_| {
        build_lab(WorkloadSpec::all_six(), exp)
    });
    let lab = lab.with_store(io(TraceStore::new(dir), "opening the trace store")?);
    let store = lab.store().expect("store attached");
    let sys = SystemConfig::table2();
    let ids: Vec<usize> = (0..lab.len()).collect();
    let mut failures = Vec::new();
    let figures = rec.span("phase", None, None, "analyses_six", |root| {
        let built = rec.span("engine.miss_traces", Some(root), None, "", |parent| {
            par::map(&ids, WORKERS, |_, &i| {
                rec.span(
                    "lab.miss_traces",
                    Some(parent),
                    Some(i),
                    lab.spec(i).name,
                    |mt| {
                        let key = TraceKey::for_section(
                            &functional_section("miss_trace"),
                            lab.spec(i),
                            exp.seed,
                            exp.instructions,
                            ANALYSIS_CORES,
                        );
                        let cached =
                            rec.span("trace.store.read", Some(mt), Some(i), "load_blocks", |_| {
                                store.load_blocks(&key)
                            });
                        let traces: Vec<Vec<BlockAddr>> = rec.span(
                            "sim.functional",
                            Some(mt),
                            Some(i),
                            "miss_trace_with_model",
                            |f| {
                                let walk = Rc::new(WalkStats::default());
                                let traces = (0..ANALYSIS_CORES)
                                    .map(|c| {
                                        let records =
                                            TimedIter::new(lab.workload(i).walker(c), walk.clone())
                                                .take(exp.instructions as usize);
                                        miss_trace_with_model(records, &sys).0
                                    })
                                    .collect();
                                rec.walk(f, i, &walk, cal);
                                traces
                            },
                        );
                        let saved = rec.span(
                            "trace.store.write",
                            Some(mt),
                            Some(i),
                            "save_blocks",
                            |_| store.save_blocks(&key, &traces),
                        );
                        (cached.is_none(), saved.is_ok(), traces)
                    },
                )
            })
        });
        rec.span(
            "artifact.reload",
            Some(root),
            None,
            "Lab::miss_traces",
            |_| {
                for (i, (cold_miss, saved, traces)) in built.iter().enumerate() {
                    let name = lab.spec(i).name;
                    if !cold_miss {
                        failures.push(format!(
                            "{name}: cold trace store already held the miss traces"
                        ));
                    }
                    if !saved {
                        failures.push(format!("{name}: saving the miss traces failed"));
                    }
                    if lab.miss_traces(i) != traces.as_slice() {
                        failures.push(format!("{name}: traced miss traces differ from the lab's"));
                    }
                }
            },
        );
        traced_analyses(&rec, root, &lab)
    });
    let stores = StoreUse {
        trace: store.stats(),
        report: StoreStats::default(),
        entry_bytes: entry_bytes(&[dir])?,
    };
    io(std::fs::remove_dir_all(dir), "removing the trace store")?;
    Ok(Traced {
        spans: rec.finish(),
        outputs: Outputs {
            cells: Vec::new(),
            figures,
        },
        twin: None,
        stores,
        artifact_hits: lab.len() as u64,
        failures,
    })
}

// ---------------------------------------------------------------------------
// warm_rerun: both of the above again, from stores filled during set-up.
// ---------------------------------------------------------------------------

/// The warm workload's store directories.
#[derive(Clone, Debug)]
pub struct WarmStores {
    pub trace: PathBuf,
    pub report: PathBuf,
}

impl WarmStores {
    pub fn under(dir: &Path) -> WarmStores {
        WarmStores {
            trace: dir.join("trace"),
            report: dir.join("reports"),
        }
    }

    fn open_trace(&self) -> Res<TraceStore> {
        io(TraceStore::new(&self.trace), "opening the trace store")
    }

    fn open_report(&self) -> Res<ReportStore> {
        io(ReportStore::new(&self.report), "opening the report store")
    }
}

/// Set-up of `warm_rerun`: runs both cold workloads with stores attached,
/// filling them, and returns the cold outputs the warm runs must match.
pub fn warm_populate(cfg: &Config, stores: &WarmStores) -> Res<(Outputs, PhaseTime)> {
    fresh_dir(&stores.trace)?;
    fresh_dir(&stores.report)?;
    let (out, setup) = timed(|| -> Res<Outputs> {
        let tlab =
            build_lab(timing_specs(), cfg.timing_exp()).with_report_store(stores.open_report()?);
        let cells = cells_of(&grid(cfg).run_on(&tlab));
        let alab =
            build_lab(WorkloadSpec::all_six(), cfg.analyses_exp()).with_store(stores.open_trace()?);
        Ok(Outputs {
            cells,
            figures: run_analyses(&alab),
        })
    })?;
    Ok((out?, setup))
}

fn warm_store_use(stores: &WarmStores, trace: &TraceStore, report: &ReportStore) -> Res<StoreUse> {
    Ok(StoreUse {
        trace: trace.stats(),
        report: report.stats(),
        entry_bytes: entry_bytes(&[&stores.trace, &stores.report])?,
    })
}

pub fn warm_iteration(cfg: &Config, stores: &WarmStores) -> Res<Iteration> {
    let (out, phase) = timed(|| -> Res<(Outputs, StoreUse)> {
        let tlab =
            build_lab(timing_specs(), cfg.timing_exp()).with_report_store(stores.open_report()?);
        let cells = cells_of(&grid(cfg).run_on(&tlab));
        let alab =
            build_lab(WorkloadSpec::all_six(), cfg.analyses_exp()).with_store(stores.open_trace()?);
        let figures = run_analyses(&alab);
        let used = warm_store_use(
            stores,
            alab.store().expect("store attached"),
            tlab.report_store().expect("store attached"),
        )?;
        Ok((Outputs { cells, figures }, used))
    })?;
    let (outputs, stores) = out?;
    Ok(Iteration {
        setup_s: None,
        phase,
        outputs,
        stores,
    })
}

/// The warm rerun rebuilt from public calls: `Lab::build`, then per cell
/// `engine::report_key` and `ReportStore::load` plus the canonical decode
/// (the cached path of `ExperimentGrid::run_on`), then `Lab::miss_traces`
/// (a store read when warm) and the five analyses.
pub fn warm_traced(cfg: &Config, stores: &WarmStores) -> Res<Traced> {
    let rec = Recorder::default();
    let texp = cfg.timing_exp();
    let sys = SystemConfig::table2();
    let systems = timing_systems();
    let mut failures = Vec::new();
    let out = rec.span(
        "phase",
        None,
        None,
        "warm_rerun",
        |root| -> Res<(Outputs, StoreUse)> {
            let tlab = rec.span("trace.build", Some(root), None, "Lab::build", |_| {
                build_lab(timing_specs(), texp)
            });
            let tlab = tlab.with_report_store(stores.open_report()?);
            let rstore = tlab.report_store().expect("store attached");
            let cells = rec.span("engine.grid", Some(root), None, "grid", |grid| {
                let mut cells = Vec::new();
                for w in 0..tlab.len() {
                    for &kind in &systems {
                        let cell = cells.len();
                        let key = rec.span("engine.report_key", Some(grid), Some(cell), "", |_| {
                            report_key(
                                tlab.spec(w),
                                tlab.exp().seed,
                                &SystemSpec::Kind(kind),
                                &texp,
                                &sys,
                                ExecMode::Coupled,
                            )
                        });
                        let report = rec.span(
                            "trace.store.read",
                            Some(grid),
                            Some(cell),
                            "ReportStore::load",
                            |_| {
                                rstore
                                    .load(&key)
                                    .and_then(|b| SimReport::from_canonical_bytes(&b).ok())
                            },
                        );
                        match report {
                            Some(r) => cells.push(cell_out(tlab.spec(w).name, kind, r)),
                            None => failures.push(format!(
                                "{}/{}: warm report store missed",
                                tlab.spec(w).name,
                                kind.name()
                            )),
                        }
                    }
                }
                cells
            });
            let alab = rec.span("trace.build", Some(root), None, "Lab::build", |_| {
                build_lab(WorkloadSpec::all_six(), cfg.analyses_exp())
            });
            let alab = alab.with_store(stores.open_trace()?);
            rec.span("engine.miss_traces", Some(root), None, "", |parent| {
                for i in 0..alab.len() {
                    rec.span(
                        "trace.store.read",
                        Some(parent),
                        Some(i),
                        "Lab::miss_traces",
                        |_| {
                            alab.miss_traces(i);
                        },
                    );
                }
            });
            let figures = traced_analyses(&rec, root, &alab);
            let used = warm_store_use(stores, alab.store().expect("store attached"), rstore)?;
            Ok((Outputs { cells, figures }, used))
        },
    );
    let (outputs, stores) = out?;
    Ok(Traced {
        spans: rec.finish(),
        outputs,
        twin: None,
        stores,
        artifact_hits: 0,
        failures,
    })
}
