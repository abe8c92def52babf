//! The repository benchmark: host time of the TIFS reproduction on three
//! workloads (a cold timing grid, cold trace analyses, and a warm rerun
//! from filled stores), with every output checked, plus a traced run that
//! splits the time by layer. See `BENCHMARK.json` for the workloads and
//! metrics and `perfbench/layers.json` for the layer map.

pub mod checks;
pub mod host;
pub mod json;
pub mod spans;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use tifs_experiments::SystemKind;

use checks::Checker;
use spans::{self_times, Calibration, Span};
use workloads::{
    analyses_store_entries, timing_systems, Budgets, CellOut, Config, Iteration, Outputs, Traced,
    WarmStores,
};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TimingServer,
    AnalysesSix,
    WarmRerun,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TimingServer,
        Workload::AnalysesSix,
        Workload::WarmRerun,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TimingServer => "timing_server",
            Workload::AnalysesSix => "analyses_six",
            Workload::WarmRerun => "warm_rerun",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instructions one iteration's outputs stand for: simulated on the
    /// timing grid, walked by the analyses, served from the stores by the
    /// warm rerun.
    fn instructions(self, cfg: &Config) -> f64 {
        match self {
            Workload::TimingServer => cfg.timing_instructions(),
            Workload::AnalysesSix => cfg.analyses_instructions(),
            Workload::WarmRerun => cfg.timing_instructions() + cfg.analyses_instructions(),
        }
    }
}

/// Worker threads every grid, lab build and analysis uses. Pinned (not
/// the host's parallelism) so two commits always run alike; one worker
/// measured steadier than two on a 2-thread host shared with other jobs.
pub const WORKERS: usize = 1;

/// The benchmark's layer map and reconciliation tolerance.
pub const LAYERS_JSON: &str = include_str!("../layers.json");

/// Largest relative gap allowed between the traced run's summed layer
/// self-times and the untraced wall time (read from `layers.json`).
pub fn reconcile_tolerance() -> f64 {
    json::parse(LAYERS_JSON)
        .ok()
        .and_then(|v| v.get("reconcile_tolerance").and_then(json::Value::as_f64))
        .expect("perfbench/layers.json records reconcile_tolerance")
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark process measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Simulated results and other context, printed but not gated.
    pub notes: Vec<String>,
    /// Spans of the last traced iteration.
    pub spans: Vec<Span>,
}

/// Removes every `TIFS_*` variable from this process's environment and
/// pins `TIFS_THREADS` (which `Lab::analyze` reads) to [`WORKERS`],
/// so nothing outside the benchmark changes what it measures.
pub fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TIFS_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("TIFS_THREADS", WORKERS.to_string());
}

/// Runs `workload` until `seconds` have passed, untraced (end-to-end
/// metrics, at least one iteration) or traced (per-layer metrics, at
/// least [`MIN_TRACED_PAIRS`] iterations).
/// Whatever the seed, the pinned reference is checked first, outside
/// every timed phase.
pub fn run(workload: Workload, cfg: &Config, seconds: f64, trace: bool) -> Result<Outcome, String> {
    pin_environment();
    workloads::fresh_dir(&cfg.work_dir)?;
    let mut checker = Checker::new(cfg.seed, cfg.budgets);
    let result = reference_check(cfg, &mut checker).and_then(|reference_notes| {
        let mut outcome = if trace {
            run_traced(workload, cfg, seconds, checker)
        } else {
            run_untraced(workload, cfg, seconds, checker)
        }?;
        outcome.notes.extend(reference_notes);
        Ok(outcome)
    });
    std::fs::remove_dir_all(&cfg.work_dir)
        .map_err(|e| format!("removing the work directory: {e}"))?;
    result
}

/// The cold outputs of the pinned reference: both cold workloads at
/// [`Budgets::SMOKE`] and [`checks::PINNED_SEED`], stores under `dir`.
pub fn reference_outputs(dir: &Path) -> Result<Outputs, String> {
    let cfg = Config {
        seed: checks::PINNED_SEED,
        budgets: Budgets::SMOKE,
        work_dir: dir.to_path_buf(),
    };
    workloads::fresh_dir(dir)?;
    let cells = workloads::timing_iteration(&cfg)?.outputs.cells;
    let figures = workloads::analyses_iteration(&cfg, &dir.join("cold"))?
        .outputs
        .figures;
    Ok(Outputs { cells, figures })
}

/// Checks the pinned reference into `checker`: the only check that
/// catches a change that makes the simulator wrong but still
/// deterministic, whatever seed the run measures. Returns the notes to
/// print (the reference's digests in pin-table form when one differs).
fn reference_check(cfg: &Config, checker: &mut Checker) -> Result<Vec<String>, String> {
    let out = reference_outputs(&cfg.work_dir.join("reference"))?;
    let failed = checker.failed;
    checker.reference(&out, retired(Budgets::SMOKE));
    let mut notes = vec![format!(
        "pinned reference (seed {}, {:?}): {} outputs checked",
        checks::PINNED_SEED,
        Budgets::SMOKE,
        out.cells.len() + out.figures.len()
    )];
    if checker.failed > failed {
        notes.push("digests of the reference outputs, in SMOKE_PINS form:".into());
        notes.extend(checks::pin_lines(&out.cells, &out.figures));
    }
    Ok(notes)
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Set-up of the warm workload: fills the stores and checks the cold
/// outputs it produced.
struct Warm {
    stores: WarmStores,
    cold: Outputs,
    setup_times: Vec<f64>,
}

/// Times the warm workload's set-up is repeated; its median is `setup_s`.
const WARM_SETUPS: usize = 3;

fn warm_setup(cfg: &Config, checker: &mut Checker) -> Result<Warm, String> {
    let stores = WarmStores::under(&cfg.work_dir.join("warm"));
    let mut cold: Option<Outputs> = None;
    let mut times = Vec::new();
    for _ in 0..WARM_SETUPS {
        let (out, setup) = workloads::warm_populate(cfg, &stores)?;
        checker.outputs(&out, cold.as_ref(), retired(cfg.budgets), "repeated cold");
        times.push(setup.wall_s);
        cold = Some(out);
    }
    Ok(Warm {
        stores,
        cold: cold.expect("at least one set-up"),
        setup_times: times,
    })
}

/// `Lab` builds a cold workload times before its timed phase, on top of
/// the one each iteration times, so its `setup_s` is a median over many.
const COLD_SETUPS: usize = 9;

fn cold_setups(workload: Workload, cfg: &Config) -> Result<Vec<f64>, String> {
    let setup = match workload {
        Workload::TimingServer => workloads::timing_setup_s,
        Workload::AnalysesSix => workloads::analyses_setup_s,
        Workload::WarmRerun => return Ok(Vec::new()),
    };
    (0..COLD_SETUPS).map(|_| setup(cfg)).collect()
}

/// Instructions every timing cell must retire: cores x budget.
fn retired(budgets: Budgets) -> u64 {
    (tifs_sim::SystemConfig::table2().num_cores as u64) * budgets.timing
}

fn untraced_iteration(
    workload: Workload,
    cfg: &Config,
    warm: Option<&Warm>,
) -> Result<Iteration, String> {
    match (workload, warm) {
        (Workload::TimingServer, _) => workloads::timing_iteration(cfg),
        (Workload::AnalysesSix, _) => {
            workloads::analyses_iteration(cfg, &cfg.work_dir.join("cold"))
        }
        (Workload::WarmRerun, Some(w)) => workloads::warm_iteration(cfg, &w.stores),
        (Workload::WarmRerun, None) => Err("warm rerun without set-up".into()),
    }
}

/// Checks one untraced iteration against its reference and the
/// store-level expectations of its workload.
fn check_iteration(
    workload: Workload,
    cfg: &Config,
    it: &Iteration,
    reference: Option<&Outputs>,
    checker: &mut Checker,
) {
    checker.outputs(&it.outputs, reference, retired(cfg.budgets), "repeated");
    let entries = analyses_store_entries();
    let s = &it.stores;
    match workload {
        Workload::TimingServer => {}
        Workload::AnalysesSix => checker.expect(
            s.trace.writes == entries && s.trace.misses == entries && s.trace.hits == 0,
            || {
                format!(
                    "cold trace store: {:?}, expected {entries} misses and writes",
                    s.trace
                )
            },
        ),
        Workload::WarmRerun => {
            let cells = it.outputs.cells.len() as u64;
            checker.expect(
                s.report.hits == cells && s.report.misses == 0 && s.report.writes == 0,
                || format!("warm report store hit ratio below 1: {:?}", s.report),
            );
            checker.expect(
                s.trace.hits == entries && s.trace.misses == 0 && s.trace.writes == 0,
                || format!("warm trace store hit ratio below 1: {:?}", s.trace),
            );
        }
    }
}

fn run_untraced(
    workload: Workload,
    cfg: &Config,
    seconds: f64,
    mut checker: Checker,
) -> Result<Outcome, String> {
    let warm = match workload {
        Workload::WarmRerun => Some(warm_setup(cfg, &mut checker)?),
        _ => None,
    };
    let mut setups = cold_setups(workload, cfg)?;
    // `peak_rss_mb` is the timed phase's peak, not the reference's or
    // the set-up's.
    host::reset_peak_rss()?;
    let start = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    while iterations.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let it = untraced_iteration(workload, cfg, warm.as_ref())?;
        let reference = warm
            .as_ref()
            .map(|w| &w.cold)
            .or(iterations.first().map(|i| &i.outputs));
        check_iteration(workload, cfg, &it, reference, &mut checker);
        iterations.push(it);
    }
    let walls: Vec<f64> = iterations.iter().map(|i| i.phase.wall_s).collect();
    let cpus: Vec<f64> = iterations.iter().map(|i| i.phase.cpu_s).collect();
    match &warm {
        Some(w) => setups.extend(&w.setup_times),
        None => setups.extend(iterations.iter().filter_map(|i| i.setup_s)),
    }
    let instructions = workload.instructions(cfg);
    let failed_share = checker.failed as f64 / checker.attempted.max(1) as f64;
    // Every iteration does the same work, so the timed phase's mean time
    // per iteration is the workload's time. The shared host slows whole
    // stretches of a run by up to 2x, often for a little under or over
    // half of it; the median then jumps between the fast and the slow
    // level from run to run, while the mean moves with the slow share.
    let n = iterations.len() as f64;
    let wall_s = walls.iter().sum::<f64>() / n;
    let metrics = vec![
        metric("wall_s", wall_s, "s"),
        metric("cpu_s", cpus.iter().sum::<f64>() / n, "s"),
        metric("setup_s", host::median(&setups), "s"),
        metric("peak_rss_mb", host::peak_rss_mb()?, "MiB"),
        metric("minstr_per_s", instructions / wall_s / 1e6, "Minstr/s"),
        metric("ops_ok_share", 1.0 - failed_share, "ratio"),
    ];
    let last = &iterations.last().expect("at least one iteration").outputs;
    let mut notes = vec![
        format!(
            "samples: {} timed iterations (wall_s, cpu_s and minstr_per_s over all of them), {} set-up samples (setup_s their median)",
            iterations.len(),
            setups.len()
        ),
        format!(
            "median iteration: wall_s {} cpu_s {}",
            host::median(&walls),
            host::median(&cpus)
        ),
        format!("wall_s per iteration: {walls:?}"),
        format!("setup_s samples: {setups:?}"),
        format!("ops_failed_share: {failed_share}"),
    ];
    notes.extend(result_notes(warm.as_ref().map_or(last, |w| &w.cold)));
    notes.extend(problem_notes(&checker, last));
    Ok(Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        notes,
        spans: Vec::new(),
    })
}

fn traced_iteration(
    workload: Workload,
    cfg: &Config,
    cal: &Calibration,
    warm: Option<&Warm>,
) -> Result<Traced, String> {
    match (workload, warm) {
        (Workload::TimingServer, _) => workloads::timing_traced(cfg, cal),
        (Workload::AnalysesSix, _) => {
            workloads::analyses_traced(cfg, cal, &cfg.work_dir.join("cold"))
        }
        (Workload::WarmRerun, Some(w)) => workloads::warm_traced(cfg, &w.stores),
        (Workload::WarmRerun, None) => Err("warm rerun without set-up".into()),
    }
}

/// Seconds covered by `artifact.*` spans (work done only for tracing).
fn artifact_s(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.name.starts_with("artifact."))
        .map(|s| s.busy_ns)
        .sum::<f64>()
        / 1e9
}

/// Fewest traced iterations (each paired with an untraced twin) a traced
/// run makes, however short `seconds` is: the reconcile check takes the
/// median of the paired gaps, and one short pair is mostly host noise.
const MIN_TRACED_PAIRS: usize = 5;

fn run_traced(
    workload: Workload,
    cfg: &Config,
    seconds: f64,
    mut checker: Checker,
) -> Result<Outcome, String> {
    let cal = Calibration::measure();
    let tolerance = reconcile_tolerance();
    let warm = match workload {
        Workload::WarmRerun => Some(warm_setup(cfg, &mut checker)?),
        _ => None,
    };
    let start = Instant::now();
    let mut samples: Vec<BTreeMap<String, (f64, &'static str)>> = Vec::new();
    let mut spans = Vec::new();
    let mut last_outputs = Outputs::default();
    while samples.len() < MIN_TRACED_PAIRS || start.elapsed().as_secs_f64() < seconds {
        // Each traced iteration gets an untraced twin. The timing grid
        // interleaves them cell by cell; the other workloads run a whole
        // untraced iteration before or after the traced one, alternating.
        let (twin_s, traced, twin) = if workload == Workload::TimingServer {
            let mut traced = traced_iteration(workload, cfg, &cal, warm.as_ref())?;
            let twin = traced
                .twin
                .take()
                .expect("the timing grid runs untraced twins");
            checker.outputs(&twin, None, retired(cfg.budgets), "untraced twin");
            (artifact_s(&traced.spans), traced, twin)
        } else {
            let (plain, traced) = if samples.len().is_multiple_of(2) {
                let plain = untraced_iteration(workload, cfg, warm.as_ref())?;
                (plain, traced_iteration(workload, cfg, &cal, warm.as_ref())?)
            } else {
                let traced = traced_iteration(workload, cfg, &cal, warm.as_ref())?;
                (untraced_iteration(workload, cfg, warm.as_ref())?, traced)
            };
            check_iteration(
                workload,
                cfg,
                &plain,
                warm.as_ref().map(|w| &w.cold),
                &mut checker,
            );
            (plain.phase.wall_s, traced, plain.outputs)
        };
        checker.outputs(
            &traced.outputs,
            Some(&twin),
            retired(cfg.budgets),
            "traced vs untraced",
        );
        for f in &traced.failures {
            checker.op(vec![f.clone()]);
        }
        samples.push(layer_metrics(workload, cfg, &cal, &traced, twin_s));
        spans = traced.spans;
        last_outputs = traced.outputs;
    }
    let mut metrics: Vec<Metric> = samples[0]
        .iter()
        .map(|(name, &(_, unit))| {
            let values: Vec<f64> = samples.iter().map(|s| s[name].0).collect();
            metric(name.clone(), host::median(&values), unit)
        })
        .collect();
    // Reconcile on the median of paired differences: each traced
    // iteration against its own twin, so host-speed drift between
    // iterations cancels.
    let signed: Vec<f64> = samples
        .iter()
        .map(|s| (s["layers.sum_s"].0 - s["layers.untraced_s"].0) / s["layers.untraced_s"].0)
        .collect();
    let error = host::median(&signed).abs();
    checker.expect(error <= tolerance, || {
        format!("layer self-times miss the untraced wall by {error:.3} (median of paired gaps), tolerance {tolerance}")
    });
    metrics.push(metric("layers.reconcile_error", error, "ratio"));
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    let mut notes = vec![
        format!("samples: {} traced iterations, each paired with an untraced twin; reconcile tolerance {tolerance}", samples.len()),
        format!("calibration: {cal:?}"),
    ];
    notes.extend(result_notes(&last_outputs));
    notes.extend(cell_count_notes(&last_outputs.cells));
    notes.extend(hook_notes(&spans));
    notes.extend(problem_notes(&checker, &last_outputs));
    Ok(Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        notes,
        spans,
    })
}

/// Geometric-mean speedup of `kind` over Next-line across the grid rows.
fn speedup(cells: &[CellOut], kind: SystemKind) -> f64 {
    let base = |w: &str| {
        cells
            .iter()
            .find(|c| c.workload == w && c.system == SystemKind::NextLine)
    };
    let ratios: Vec<f64> = cells
        .iter()
        .filter(|c| c.system == kind)
        .filter_map(|c| base(&c.workload).map(|b| c.report.speedup_over(&b.report)))
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Pooled coverage of `kind`'s cells.
fn coverage(cells: &[CellOut], kind: SystemKind) -> f64 {
    let (mut hits, mut base) = (0, 0);
    for c in cells.iter().filter(|c| c.system == kind) {
        for core in &c.report.cores {
            hits += core.prefetch_hits;
            base += core.baseline_misses();
        }
    }
    if base == 0 {
        0.0
    } else {
        hits as f64 / base as f64
    }
}

/// Pooled repetitive share of L1-I misses over Figure 3's rows.
fn repetitive_share(figures: &[(&'static str, String)]) -> f64 {
    let Some((_, text)) = figures.iter().find(|(f, _)| *f == "fig03") else {
        return 0.0;
    };
    let Ok(doc) = json::parse(text) else {
        return 0.0;
    };
    let (mut misses, mut repetitive) = (0.0, 0.0);
    for row in doc.get("rows").map(json::Value::as_array).unwrap_or(&[]) {
        let row = row.as_array();
        if let (Some(m), Some(r)) = (
            row.get(1).and_then(json::Value::as_f64),
            row.get(6).and_then(json::Value::as_f64),
        ) {
            misses += m;
            repetitive += m * r;
        }
    }
    if misses == 0.0 {
        0.0
    } else {
        repetitive / misses
    }
}

/// Summed prefetcher counter `name` over `kind`'s cells.
fn counter(cells: &[CellOut], kind: SystemKind, name: &str) -> f64 {
    cells
        .iter()
        .filter(|c| c.system == kind)
        .filter_map(|c| c.report.prefetcher_counter(name))
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The simulated results. They are exact for a given seed and budget;
/// the repository holds no measured reference IPC, so the model is
/// unvalidated and no error figure is given beside them.
fn simulated(out: &Outputs) -> Vec<Metric> {
    vec![
        metric(
            "speedup.tifs_virtualized",
            speedup(&out.cells, SystemKind::TifsVirtualized),
            "x",
        ),
        metric("speedup.fdip", speedup(&out.cells, SystemKind::Fdip), "x"),
        metric(
            "coverage.tifs_virtualized",
            coverage(&out.cells, SystemKind::TifsVirtualized),
            "ratio",
        ),
        metric(
            "opportunity.repetitive_share",
            repetitive_share(&out.figures),
            "ratio",
        ),
    ]
}

fn result_notes(out: &Outputs) -> Vec<String> {
    let mut notes = vec![
        "simulated results (unvalidated model: no measured reference IPC, so no error figure):"
            .to_string(),
    ];
    // A result this workload does not compute reads 0; leave it out here.
    notes.extend(
        simulated(out)
            .into_iter()
            .filter(|m| m.value != 0.0)
            .map(|m| format!("  {:<32} {:>14} {}", m.name, m.value, m.unit)),
    );
    notes
}

fn cell_count_notes(cells: &[CellOut]) -> Vec<String> {
    cells
        .iter()
        .map(|c| {
            let core =
                |f: fn(&tifs_sim::CoreStats) -> u64| c.report.cores.iter().map(f).sum::<u64>();
            format!(
                "cell {:<32} cycles {} demand_misses {} fetch_stall_cycles {} l2_base {} l2_iml {}",
                c.label(),
                c.report.cycles,
                core(|s| s.demand_misses),
                core(|s| s.fetch_stall_cycles),
                c.report.l2.base_traffic(),
                c.report.l2.iml_traffic()
            )
        })
        .collect()
}

fn hook_notes(spans: &[Span]) -> Vec<String> {
    spans
        .iter()
        .filter(|s| !s.hook_calls.is_empty())
        .map(|s| {
            let per_hook: Vec<String> = spans::HOOKS
                .iter()
                .zip(&s.hook_calls)
                .map(|(h, n)| format!("{h}={n}"))
                .collect();
            format!(
                "hooks cell {:?} {:<24} {}",
                s.cell,
                s.name,
                per_hook.join(" ")
            )
        })
        .collect()
}

fn problem_notes(checker: &Checker, last: &Outputs) -> Vec<String> {
    let mut notes: Vec<String> = checker
        .problems
        .iter()
        .map(|p| format!("FAILED: {p}"))
        .collect();
    if checker.pinned() && checker.failed > 0 {
        notes.push("digests of this run's outputs, in pin-table form:".into());
        notes.extend(checks::pin_lines(&last.cells, &last.figures));
    }
    notes
}

/// Layers whose self time is bookkeeping between the spanned calls.
const GLUE: [&str; 5] = [
    "phase",
    "engine.grid",
    "engine.cell",
    "engine.miss_traces",
    "lab.miss_traces",
];

/// Per-layer metrics of one traced iteration, reconciled against the
/// wall time of its untraced twin.
fn layer_metrics(
    workload: Workload,
    cfg: &Config,
    cal: &Calibration,
    t: &Traced,
    untraced_s: f64,
) -> BTreeMap<String, (f64, &'static str)> {
    let selfs = self_times(&t.spans);
    let by_id: BTreeMap<usize, &Span> = t.spans.iter().map(|s| (s.id, s)).collect();
    let in_phase = |s: &Span| {
        let mut cur = s;
        loop {
            if cur.name == "phase" {
                return true;
            }
            match cur.parent.and_then(|p| by_id.get(&p)) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    };
    let self_s = |name: &str| -> f64 {
        t.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, v)| v)
            .sum::<f64>()
            / 1e9
    };
    let calls = |name: &str| -> f64 {
        t.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls as f64)
            .sum()
    };
    let mut m: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
        m.insert(name.to_string(), (value + 0.0, unit));
    };

    put("trace.build_s", self_s("trace.build"), "s");
    let walk_s = self_s("trace.walk");
    let records = calls("trace.walk");
    put("trace.walk_s", walk_s, "s");
    put("trace.walk_records", records, "count");
    put(
        "trace.walk_ns_per_record",
        ratio(walk_s * 1e9, records),
        "ns",
    );
    let stores = &t.stores;
    let writes = (stores.trace.writes + stores.report.writes) as f64;
    let hits = (stores.trace.hits + stores.report.hits).saturating_sub(t.artifact_hits) as f64;
    put("trace.store.write_s", self_s("trace.store.write"), "s");
    put("trace.store.writes", writes, "count");
    put(
        "trace.store.bytes_written",
        if writes > 0.0 {
            stores.entry_bytes as f64
        } else {
            0.0
        },
        "bytes",
    );
    put("trace.store.read_s", self_s("trace.store.read"), "s");
    put("trace.store.hits", hits, "count");
    put(
        "trace.store.misses",
        (stores.trace.misses + stores.report.misses) as f64,
        "count",
    );
    put(
        "trace.store.bytes_read",
        if hits > 0.0 {
            stores.entry_bytes as f64
        } else {
            0.0
        },
        "bytes",
    );

    let cmp_self = self_s("sim.run_with_warmup");
    let simulated_instr = if workload == Workload::TimingServer {
        cfg.timing_instructions()
    } else {
        0.0
    };
    put("sim.cmp_self_s", cmp_self, "s");
    put(
        "sim.ns_per_sim_instr",
        ratio(cmp_self * 1e9, simulated_instr),
        "ns",
    );
    put("sim.functional_s", self_s("sim.functional"), "s");
    put("sim.lookahead_s", self_s("sim.lookahead"), "s");
    let cells = &t.outputs.cells;
    let core_sum = |f: fn(&tifs_sim::CoreStats) -> u64| -> f64 {
        cells
            .iter()
            .flat_map(|c| &c.report.cores)
            .map(f)
            .sum::<u64>() as f64
    };
    put(
        "sim.cycles",
        cells.iter().map(|c| c.report.cycles).sum::<u64>() as f64,
        "count",
    );
    put("sim.demand_misses", core_sum(|s| s.demand_misses), "count");
    put(
        "sim.fetch_stall_cycles",
        core_sum(|s| s.fetch_stall_cycles),
        "count",
    );
    put(
        "sim.l2_base_requests",
        cells
            .iter()
            .map(|c| c.report.l2.base_traffic())
            .sum::<u64>() as f64,
        "count",
    );
    put(
        "sim.l2_iml_requests",
        cells.iter().map(|c| c.report.l2.iml_traffic()).sum::<u64>() as f64,
        "count",
    );

    for layer in [
        "prefetch.next_line",
        "prefetch.fdip",
        "prefetch.discontinuity",
        "prefetch.perfect",
    ] {
        put(&format!("{layer}_s"), self_s(layer), "s");
    }
    let (fdip_issued, fdip_supplied) = (
        counter(cells, SystemKind::Fdip, "issued"),
        counter(cells, SystemKind::Fdip, "supplied"),
    );
    put("prefetch.fdip_issued", fdip_issued, "count");
    put("prefetch.fdip_supplied", fdip_supplied, "count");
    put(
        "prefetch.fdip_accuracy",
        ratio(fdip_supplied, fdip_issued),
        "ratio",
    );
    for layer in [
        "core.tifs_unbounded",
        "core.tifs_dedicated",
        "core.tifs_virtualized",
    ] {
        put(&format!("{layer}_s"), self_s(layer), "s");
    }
    let tv = SystemKind::TifsVirtualized;
    let (issued, supplied, timely) = (
        counter(cells, tv, "issued"),
        counter(cells, tv, "supplied"),
        counter(cells, tv, "timely_supplies"),
    );
    put("core.tifs_issued", issued, "count");
    put("core.tifs_supplied", supplied, "count");
    put("core.tifs_accuracy", ratio(supplied, issued), "ratio");
    put("core.tifs_timely", timely, "count");
    put("core.tifs_timely_share", ratio(timely, supplied), "ratio");
    put(
        "core.tifs_iml_reads",
        counter(cells, tv, "iml_reads"),
        "count",
    );
    put(
        "core.functional_tifs_s",
        self_s("core.functional_tifs"),
        "s",
    );
    put("sequitur.grammar_s", self_s("sequitur.grammar"), "s");
    put("sequitur.heuristics_s", self_s("sequitur.heuristics"), "s");

    // Cell time net of the tracing overhead recorded inside it.
    let overhead_in = |cell: usize| -> f64 {
        t.spans
            .iter()
            .filter(|s| s.cell == Some(cell) && s.name != "engine.cell")
            .map(|s| s.overhead_ns)
            .sum()
    };
    let cell_spans: Vec<&Span> = t.spans.iter().filter(|s| s.name == "engine.cell").collect();
    let cell_s = |s: &Span| (s.busy_ns - s.cell.map_or(0.0, overhead_in)) / 1e9;
    for kind in timing_systems() {
        let times: Vec<f64> = cell_spans
            .iter()
            .filter(|s| s.label == kind.name())
            .map(|s| cell_s(s))
            .collect();
        put(
            &format!("engine.cell_s.{}", workloads::slug(kind)),
            host::median(&times),
            "s",
        );
    }
    let grid_s = t
        .spans
        .iter()
        .filter(|s| s.name == "engine.grid" && workload == Workload::TimingServer)
        .map(|s| s.busy_ns / 1e9)
        .sum::<f64>();
    let busy: f64 = cell_spans.iter().map(|s| cell_s(s)).sum();
    let overhead_total: f64 = t
        .spans
        .iter()
        .filter(|s| in_phase(s))
        .map(|s| s.overhead_ns)
        .sum::<f64>()
        / 1e9;
    put(
        "engine.worker_idle_s",
        (WORKERS as f64 * (grid_s - overhead_total - artifact_s(&t.spans)) - busy).max(0.0),
        "s",
    );
    put("engine.report_key_s", self_s("engine.report_key"), "s");
    put("engine.report_keys", calls("engine.report_key"), "count");

    for sim in simulated(&t.outputs) {
        put(&sim.name, sim.value, sim.unit);
    }

    // Everything under the phase except work done only for tracing;
    // summed self-times equal the phase interval minus the recorded
    // instrumentation overhead and the artifacts.
    let in_layers = |s: &Span| in_phase(s) && !s.name.starts_with("artifact.");
    let layer_sum: f64 = t
        .spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| in_layers(s))
        .map(|(_, v)| v)
        .sum::<f64>()
        / 1e9;
    let phase_s: f64 = t
        .spans
        .iter()
        .filter(|s| s.name == "phase")
        .map(|s| s.busy_ns)
        .sum::<f64>()
        / 1e9;
    put(
        "tracing_overhead_s",
        phase_s - artifact_s(&t.spans) - untraced_s,
        "s",
    );
    put("layers.sum_s", layer_sum, "s");
    put("layers.untraced_s", untraced_s, "s");
    put(
        "layers.unattributed_s",
        GLUE.iter().map(|g| self_s(g)).sum(),
        "s",
    );
    put("timer.empty_read_ns", cal.empty_read_ns, "ns");
    put("timer.walk_call_ns", cal.walk_call_ns, "ns");
    put("timer.hook_call_ns", cal.hook_call_ns, "ns");
    m
}

/// Writes `spans` as JSON lines under `dir`, named after the run.
pub fn save_spans(
    dir: &Path,
    workload: Workload,
    seed: u64,
    spans: &[Span],
) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    spans::write_spans(&path, spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// The result line: one JSON object with the run's verdict and metrics.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(&m.name),
                m.value,
                m.unit
            )
        })
        .collect();
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && finite,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
