//! The shared experiment engine.
//!
//! Every figure, table, and binary of the evaluation is a grid of
//! *cells* — (workload × system) simulations under one [`ExpConfig`] and
//! one [`SystemConfig`] — or an *analysis* over per-workload miss traces.
//! This module is the single place that
//!
//! * builds each [`Workload`] **once** and shares it across every system
//!   measured on it (a build costs as much as a short timing run);
//! * constructs core fetch streams and prefetchers ([`run_cell`] is the
//!   only stream-construction site in the experiments crate);
//! * fans independent cells out across threads ([`par::map`], a
//!   rayon-style ordered parallel map on `std::thread::scope` — the
//!   workspace builds offline and cannot depend on rayon itself);
//! * caches per-workload L1-I miss traces so the SEQUITUR analyses share
//!   one functional-model pass ([`Lab::miss_traces`]), and — with a
//!   persistent [`TraceStore`] attached ([`Lab::with_store`]) — writes
//!   them through to disk so later processes warm-start without
//!   re-running the functional model at all;
//! * caches whole timing runs: with a persistent [`ReportStore`] attached
//!   ([`Lab::with_report_store`], `TIFS_REPORT_STORE`), every cell's
//!   [`SimReport`] is keyed by a [`report_key`] fingerprint of the *full*
//!   cell configuration and persisted through the canonical report codec,
//!   so a repeat grid run recomputes nothing.
//!
//! Every cell runs the paper's coupled CMP: all cores share one L2, one
//! memory channel, and one prefetcher instance. Cells are deterministic:
//! a grid produces bit-identical [`SimReport`]s whether run serially or
//! in parallel, cold or warm, because every cell derives its state only
//! from (spec, seed, system) — verified by the `engine_determinism`
//! integration test.
//!
//! ```
//! use tifs_experiments::engine::ExperimentGrid;
//! use tifs_experiments::harness::{ExpConfig, SystemKind};
//! use tifs_sim::config::SystemConfig;
//! use tifs_trace::workload::WorkloadSpec;
//!
//! let cfg = ExpConfig { instructions: 5_000, warmup: 5_000, seed: 3 };
//! let grid = ExperimentGrid::new(cfg)
//!     .with_system_config(SystemConfig::single_core())
//!     .workloads([WorkloadSpec::tiny_test()])
//!     .systems([SystemKind::NextLine, SystemKind::TifsVirtualized]);
//! let results = grid.run();
//! let row = results.row(0);
//! assert!(row.speedup_over(SystemKind::TifsVirtualized, SystemKind::NextLine) > 0.0);
//! ```

use std::sync::OnceLock;

use tifs_core::{
    CapacityPartition, GrammarHistoryConfig, ImlStorage, IndexKind, MetadataOrg, TifsConfig,
    TifsGrammarConfig, TifsGrammarPrefetcher, TifsPrefetcher,
};
use tifs_prefetch::{
    DiscontinuityConfig, DiscontinuityPrefetcher, Fdip, FdipConfig, ProbabilisticPrefetcher,
};
use tifs_sim::cmp::Cmp;
use tifs_sim::config::SystemConfig;
use tifs_sim::prefetch::{IPrefetcher, NullPrefetcher};
use tifs_sim::stats::{SimReport, SIM_REPORT_LAYOUT_VERSION};
use tifs_trace::codec::REPORT_VERSION;
use tifs_trace::store::{
    hash_workload_spec, Fingerprint, ReportKey, ReportStore, TraceKey, TraceStore,
};
use tifs_trace::workload::{CellPrograms, CellWorkload, Workload, WorkloadSpec};
use tifs_trace::{BlockAddr, FetchRecord};

use crate::harness::{ExpConfig, SystemKind};

/// How a grid cell is executed. Only the paper's coupled CMP remains —
/// every core shares one L2, one memory channel, and one prefetcher
/// instance — so this type exists only to keep the report-key schema
/// stable: [`Coupled`](ExecMode::Coupled) hashes as discriminant `0`, as
/// it always has, so every coupled store entry stays warm. Discriminants
/// `1` (core-sharded over private L2 slices) and `2` (sharded plus a
/// post-hoc contention replay) are retired and reserved: those modes were
/// no faster than coupled execution and lost most of TIFS's Figure 13
/// gain, and no new mode may reuse their key space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// The paper's coupled CMP.
    Coupled,
}

/// Cores the cached analysis miss traces are collected for (the paper's
/// trace studies use the 4-core CMP).
pub const ANALYSIS_CORES: usize = 4;

/// Store section name for derivations that run the functional fetch
/// model: appends the model's cache geometry (L1-I size/ways, next-line
/// depth) to `base`, so retuning [`SystemConfig::table2`] re-addresses
/// store entries instead of silently reusing stale ones. `base` carries
/// its own derivation version (e.g. `miss_trace`, `fig10_lookahead_v1`).
pub fn functional_section(base: &str) -> String {
    let sys = SystemConfig::table2();
    format!(
        "{base}/l1i{}x{}nl{}",
        sys.l1i_bytes, sys.l1i_ways, sys.next_line_depth
    )
}

/// Rayon-style ordered parallel map over borrowed items, built on
/// `std::thread::scope` (the workspace builds offline, so rayon itself is
/// unavailable; this mirrors its work-distribution semantics for the
/// engine's needs).
pub mod par {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// Worker count: `TIFS_THREADS` if set (1 forces serial), else the
    /// machine's available parallelism.
    pub fn parallelism() -> usize {
        if let Some(n) = std::env::var("TIFS_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            return n.max(1);
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Applies `f` to every item, distributing items over `threads`
    /// workers, and returns results in item order. `threads <= 1` runs
    /// inline. Results are identical to the serial order-preserving map
    /// for any pure `f`.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (the scope joins all workers first).
    pub fn map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = threads.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let f = &f;
        let next = &next;
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // A send only fails if the receiver is gone, which
                    // means the scope is already unwinding.
                    if tx.send((i, f(i, &items[i]))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, r) in rx {
                slots[i] = Some(r);
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("worker filled slot"))
            .collect()
    }
}

/// A system to measure: a named baseline/TIFS variant, or an arbitrary
/// TIFS configuration (the ablation studies).
#[derive(Clone, Debug, PartialEq)]
pub enum SystemSpec {
    /// One of the paper's named systems.
    Kind(SystemKind),
    /// TIFS under an explicit configuration.
    Tifs {
        /// Display label for tables.
        label: String,
        /// The configuration under test.
        config: TifsConfig,
    },
    /// The grammar arm under an explicit configuration.
    Grammar {
        /// Display label for tables.
        label: String,
        /// The configuration under test.
        config: TifsGrammarConfig,
    },
}

impl From<SystemKind> for SystemSpec {
    fn from(kind: SystemKind) -> SystemSpec {
        SystemSpec::Kind(kind)
    }
}

impl SystemSpec {
    /// A labelled TIFS ablation cell.
    pub fn tifs(label: impl Into<String>, config: TifsConfig) -> SystemSpec {
        SystemSpec::Tifs {
            label: label.into(),
            config,
        }
    }

    /// A labelled grammar-arm cell.
    pub fn grammar(label: impl Into<String>, config: TifsGrammarConfig) -> SystemSpec {
        SystemSpec::Grammar {
            label: label.into(),
            config,
        }
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            SystemSpec::Kind(k) => k.name(),
            SystemSpec::Tifs { label, .. } | SystemSpec::Grammar { label, .. } => label.clone(),
        }
    }
}

/// Builds the prefetcher for a system over a given workload (the one
/// prefetcher-construction site of the experiments layer).
pub fn build_prefetcher<'a>(
    system: &SystemSpec,
    workload: &'a Workload,
    sys: &SystemConfig,
    seed: u64,
) -> Box<dyn IPrefetcher + 'a> {
    let kind = match system {
        SystemSpec::Tifs { config, .. } => {
            return Box::new(TifsPrefetcher::new(sys.num_cores, *config));
        }
        SystemSpec::Grammar { config, .. } => {
            return Box::new(TifsGrammarPrefetcher::new(sys.num_cores, *config));
        }
        SystemSpec::Kind(kind) => *kind,
    };
    match kind {
        SystemKind::NextLine => Box::new(NullPrefetcher),
        SystemKind::Fdip => Box::new(Fdip::new(
            &workload.program,
            sys.num_cores,
            FdipConfig::default(),
        )),
        SystemKind::Discontinuity => Box::new(DiscontinuityPrefetcher::new(
            sys.num_cores,
            DiscontinuityConfig::default(),
        )),
        SystemKind::TifsUnbounded => {
            Box::new(TifsPrefetcher::new(sys.num_cores, TifsConfig::unbounded()))
        }
        SystemKind::TifsDedicated => {
            Box::new(TifsPrefetcher::new(sys.num_cores, TifsConfig::dedicated()))
        }
        SystemKind::TifsVirtualized => Box::new(TifsPrefetcher::new(
            sys.num_cores,
            TifsConfig::virtualized(),
        )),
        SystemKind::Probabilistic(p) => Box::new(ProbabilisticPrefetcher::new(p, seed ^ 0x9D)),
        SystemKind::Perfect => Box::new(ProbabilisticPrefetcher::perfect(seed ^ 0x9D)),
        SystemKind::TifsGrammar => Box::new(TifsGrammarPrefetcher::new(
            sys.num_cores,
            TifsGrammarConfig::default(),
        )),
    }
}

/// Runs one grid cell: `system` over `workload` on the `sys` CMP. The
/// only place in the experiments crate that constructs core fetch
/// streams.
pub fn run_cell(
    workload: &Workload,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
) -> SimReport {
    let streams: Vec<_> = (0..sys.num_cores)
        .map(|c| Box::new(workload.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
        .collect();
    let pf = build_prefetcher(system, workload, sys, exp.seed);
    let mut cmp = Cmp::new(sys.clone(), streams, pf);
    cmp.run_with_warmup(exp.warmup, exp.instructions)
}

/// Runs one heterogeneous-mix cell: core `c` walks
/// [`CellPrograms::walker`]`(c)` — its own mix position's program in its
/// own address-space slot — on the shared `sys` CMP. A homogeneous cell
/// (or a degenerate mix, which [`CellPrograms::build`] canonicalizes)
/// deduplicates to the single slot-0 program and reproduces [`run_cell`]
/// byte for byte.
///
/// The prefetcher is built against core 0's workload; that argument only
/// matters to [`SystemKind::Fdip`], which pre-decodes one program image —
/// mix grids measure TIFS/NextLine systems, whose construction ignores
/// it. (An FDIP mix cell would need per-core decoders; gate it here if
/// that study ever materializes.)
pub fn run_cell_mix(
    programs: &CellPrograms,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
) -> SimReport {
    let streams: Vec<_> = (0..sys.num_cores)
        .map(|c| Box::new(programs.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
        .collect();
    let pf = build_prefetcher(system, programs.workload_for_core(0), sys, exp.seed);
    let mut cmp = Cmp::new(sys.clone(), streams, pf);
    cmp.run_with_warmup(exp.warmup, exp.instructions)
}

// ---------------------------------------------------------------------------
// Report-store keys — content addresses over the full cell configuration.
// ---------------------------------------------------------------------------

/// Content address of one cell's [`SimReport`] in the persistent
/// [`ReportStore`]: a [`Fingerprint`] over *every* input the timing run
/// depends on — both format versions (container and payload layout), the
/// full [`WorkloadSpec`], the seed the workload was *built* with
/// (`workload_seed` — a [`Lab`] may be built under a different
/// [`ExpConfig`] than the grid runs with), the grid's seed and measured
/// and warmup instruction budgets, every [`SystemConfig`] field, the
/// system/prefetcher configuration, and the [`ExecMode`] discriminant.
/// Any change to any of them addresses different content, so a stale
/// report is never read — it is simply never addressed again.
pub fn report_key(
    spec: &WorkloadSpec,
    workload_seed: u64,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
    mode: ExecMode,
) -> ReportKey {
    let mut h = Fingerprint::new();
    h.u64(u64::from(REPORT_VERSION));
    h.u64(u64::from(SIM_REPORT_LAYOUT_VERSION));
    hash_workload_spec(&mut h, spec);
    finish_report_key(h, workload_seed, system, exp, sys, mode)
}

/// Content address of one heterogeneous-mix cell's [`SimReport`].
///
/// The key hashes *append-only* relative to [`report_key`]: the cell is
/// canonicalized first ([`CellWorkload::canonical`]), and a homogeneous
/// cell — including any degenerate mix — delegates to [`report_key`]
/// byte for byte, so every store entry minted before the mix axis
/// existed stays warm (pinned by the `report_key_stability` suite). A
/// genuine mix replaces the single-spec section with a tagged sequence:
/// the tag `"mix"`, the position count, then each position's full
/// [`hash_workload_spec`] *in core-assignment order* — so two mixes
/// differing in any per-core spec, or only in assignment order
/// (`[A, B]` vs `[B, A]`), address disjoint content. Keying the cell by
/// an unordered spec *set* (or by one representative spec) was the
/// collision class this addresses: distinct fleets must never share a
/// cached report.
pub fn report_key_cell(
    cell: &CellWorkload,
    workload_seed: u64,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
    mode: ExecMode,
) -> ReportKey {
    match cell.canonical() {
        CellWorkload::Homogeneous(spec) => report_key(&spec, workload_seed, system, exp, sys, mode),
        CellWorkload::Mix(specs) => {
            let mut h = Fingerprint::new();
            h.u64(u64::from(REPORT_VERSION));
            h.u64(u64::from(SIM_REPORT_LAYOUT_VERSION));
            h.u64(0x006d_6978); // "mix"
            h.u64(specs.len() as u64);
            for spec in &specs {
                hash_workload_spec(&mut h, spec);
            }
            finish_report_key(h, workload_seed, system, exp, sys, mode)
        }
    }
}

/// The shared tail of [`report_key`] / [`report_key_cell`]: everything
/// after the workload section. Keeping one implementation guarantees the
/// two key flavours feed byte-identical suffixes, so the homogeneous
/// delegation above really is exact.
fn finish_report_key(
    mut h: Fingerprint,
    workload_seed: u64,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
    mode: ExecMode,
) -> ReportKey {
    h.u64(workload_seed);
    h.u64(exp.seed);
    h.u64(exp.instructions);
    h.u64(exp.warmup);
    hash_system_config(&mut h, sys);
    hash_system_spec(&mut h, system);
    // Coupled hashes as 0, as it always has; 1 and 2 are retired.
    match mode {
        ExecMode::Coupled => h.u64(0),
    }
    ReportKey(h.finish())
}

/// Feeds every [`SystemConfig`] field (exhaustive destructuring: a new
/// field without a hash line is a compile error, never a stale hit).
fn hash_system_config(h: &mut Fingerprint, sys: &SystemConfig) {
    let SystemConfig {
        num_cores,
        width,
        rob_entries,
        fetch_queue,
        l1i_bytes,
        l1i_ways,
        next_line_depth,
        l1d_latency,
        l2_bytes,
        l2_ways,
        l2_banks,
        l2_latency,
        l2_bank_occupancy,
        l2_mshrs,
        mem_latency,
        mem_gap,
        mispredict_penalty,
        store_writeback_prob,
    } = sys;
    h.u64(*num_cores as u64);
    h.u64(*width as u64);
    h.u64(*rob_entries as u64);
    h.u64(*fetch_queue as u64);
    h.u64(*l1i_bytes as u64);
    h.u64(*l1i_ways as u64);
    h.u64(*next_line_depth);
    h.u64(*l1d_latency);
    h.u64(*l2_bytes as u64);
    h.u64(*l2_ways as u64);
    h.u64(*l2_banks as u64);
    h.u64(*l2_latency);
    h.u64(*l2_bank_occupancy);
    h.u64(*l2_mshrs as u64);
    h.u64(*mem_latency);
    h.u64(*mem_gap);
    h.u64(*mispredict_penalty);
    h.f64(*store_writeback_prob);
}

/// Feeds the system under test: a tagged discriminant per named kind, or
/// the full TIFS configuration for ablation cells. Labels are display
/// metadata and deliberately not hashed — two labels over one
/// configuration are the same content.
fn hash_system_spec(h: &mut Fingerprint, system: &SystemSpec) {
    match system {
        SystemSpec::Kind(kind) => {
            h.u64(0);
            match kind {
                SystemKind::NextLine => h.u64(0),
                SystemKind::Fdip => h.u64(1),
                SystemKind::Discontinuity => h.u64(2),
                SystemKind::TifsUnbounded => h.u64(3),
                SystemKind::TifsDedicated => h.u64(4),
                SystemKind::TifsVirtualized => h.u64(5),
                SystemKind::Probabilistic(p) => {
                    h.u64(6);
                    h.f64(*p);
                }
                SystemKind::Perfect => h.u64(7),
                // Append-only: new kinds take the next free discriminant;
                // earlier kinds' keys are untouched.
                SystemKind::TifsGrammar => h.u64(8),
            }
        }
        SystemSpec::Tifs { label: _, config } => {
            h.u64(1);
            hash_tifs_config(h, config);
        }
        // Append-only: a new top-level spec variant takes the next free
        // discriminant, so every Kind/Tifs key minted before it exists is
        // unchanged and all pre-existing store entries stay warm.
        SystemSpec::Grammar { label: _, config } => {
            h.u64(2);
            hash_grammar_config(h, config);
        }
    }
}

/// Feeds every [`TifsGrammarConfig`] field (exhaustive destructuring, as
/// [`hash_tifs_config`]): a new field without a hash line is a compile
/// error, never a stale hit.
fn hash_grammar_config(h: &mut Fingerprint, cfg: &TifsGrammarConfig) {
    let TifsGrammarConfig {
        history:
            GrammarHistoryConfig {
                budget_bytes_per_core,
                rle,
                refresh_interval,
                max_stream,
            },
        svb_blocks,
        stream_contexts,
        rate_target,
        end_of_stream,
    } = cfg;
    h.u64(*budget_bytes_per_core as u64);
    h.bool(*rle);
    h.u64(*refresh_interval);
    h.u64(*max_stream as u64);
    h.u64(*svb_blocks as u64);
    h.u64(*stream_contexts as u64);
    h.u64(*rate_target as u64);
    h.bool(*end_of_stream);
}

/// Feeds every [`TifsConfig`] field (exhaustive destructuring).
///
/// The `metadata` organization hashes *append-only*: the default
/// [`MetadataOrg::PrivatePerCore`] contributes nothing, so every report
/// key minted before the sharing axis existed is unchanged and all
/// pre-existing store entries stay warm — pinned by the
/// `report_key_stability` regression suite. Shared organizations append
/// a tagged suffix and therefore address disjoint content.
fn hash_tifs_config(h: &mut Fingerprint, cfg: &TifsConfig) {
    let TifsConfig {
        storage,
        index,
        svb_blocks,
        stream_contexts,
        rate_target,
        end_of_stream,
        metadata,
        index_capacity,
    } = cfg;
    match storage {
        ImlStorage::Unbounded => h.u64(0),
        ImlStorage::Dedicated { entries_per_core } => {
            h.u64(1);
            h.u64(*entries_per_core as u64);
        }
        ImlStorage::Virtualized { entries_per_core } => {
            h.u64(2);
            h.u64(*entries_per_core as u64);
        }
    }
    h.u64(match index {
        IndexKind::Dedicated => 0,
        IndexKind::Embedded => 1,
    });
    h.u64(*svb_blocks as u64);
    h.u64(*stream_contexts as u64);
    h.u64(*rate_target as u64);
    h.bool(*end_of_stream);
    match metadata {
        MetadataOrg::PrivatePerCore => {}
        MetadataOrg::Shared {
            ways,
            capacity_partition,
        } => {
            h.u64(1);
            h.u64(*ways as u64);
            h.u64(match capacity_partition {
                CapacityPartition::PerCoreQuota => 0,
                CapacityPartition::FullyShared => 1,
            });
        }
    }
    // Append-only: an unbounded Index Table (the only configuration that
    // existed before this knob) contributes nothing, so pre-existing keys
    // are unchanged; bounded tables append a tagged suffix ("idxc").
    if let Some(entries) = index_capacity {
        h.u64(0x6964_7863);
        h.u64(*entries as u64);
    }
}

/// Loads and decodes one cached cell report. The frame (magic, version,
/// key, checksum) is verified by the store; a payload that then fails the
/// canonical decode — possible only through a logic bug, since the layout
/// version is part of the key — is evicted loudly so the cell recomputes
/// instead of looping on a bad entry.
fn load_cached_report(store: &ReportStore, key: &ReportKey) -> Option<SimReport> {
    let bytes = store.load(key)?;
    match SimReport::from_canonical_bytes(&bytes) {
        Ok(report) => Some(report),
        Err(e) => {
            store.evict(key, &e);
            None
        }
    }
}

/// The store-resolve loop behind [`ExperimentGrid::run_on`] and
/// [`run_mix_cells`], over `rows × systems` cells in row-major order:
///
/// 1. with a store attached, every cell is looked up under `key_of(row,
///    system)` (cheap, serial disk reads; each key is hashed once and
///    reused for the write-through);
/// 2. `runner` is told which rows have a missing cell and returns the
///    cell runner (a caller with per-row set-up builds it here, for the
///    missing rows only);
/// 3. only the missing cells run, fanned over `threads` workers by
///    [`par::map`];
/// 4. fresh reports are written through in cell order.
///
/// Returns one report row per row index, in `systems` order. The store is
/// a pure cache: attached and detached runs produce identical reports.
fn resolve_rows<R>(
    store: Option<&ReportStore>,
    rows: usize,
    systems: &[SystemSpec],
    threads: usize,
    key_of: impl Fn(usize, usize) -> ReportKey,
    row_name: impl Fn(usize) -> String,
    runner: impl FnOnce(&[bool]) -> R,
) -> Vec<Vec<SimReport>>
where
    R: Fn(usize, usize) -> SimReport + Sync,
{
    let cells: Vec<(usize, usize)> = (0..rows)
        .flat_map(|r| (0..systems.len()).map(move |s| (r, s)))
        .collect();
    let keys: Vec<ReportKey> = match store {
        Some(_) => cells.iter().map(|&(r, s)| key_of(r, s)).collect(),
        None => Vec::new(),
    };
    let mut reports: Vec<Option<SimReport>> = match store {
        Some(store) => keys
            .iter()
            .map(|key| load_cached_report(store, key))
            .collect(),
        None => cells.iter().map(|_| None).collect(),
    };
    let missing: Vec<(usize, usize)> = cells
        .iter()
        .zip(&reports)
        .filter(|(_, cached)| cached.is_none())
        .map(|(&cell, _)| cell)
        .collect();
    let mut need = vec![false; rows];
    for &(r, _) in &missing {
        need[r] = true;
    }
    let run = runner(&need);
    let computed: Vec<SimReport> = par::map(&missing, threads, |_, &(r, s)| run(r, s));
    let mut computed_iter = computed.into_iter();
    for (i, (slot, &(r, s))) in reports.iter_mut().zip(&cells).enumerate() {
        if slot.is_none() {
            let report = computed_iter.next().expect("one report per missing cell");
            if let Some(store) = store {
                if let Err(e) = store.save(&keys[i], &report.to_canonical_bytes()) {
                    eprintln!(
                        "[report-store] failed to persist cell ({}, {}): {e}",
                        row_name(r),
                        systems[s].name()
                    );
                }
            }
            *slot = Some(report);
        }
    }
    let mut out: Vec<Vec<SimReport>> = (0..rows)
        .map(|_| Vec::with_capacity(systems.len()))
        .collect();
    for ((r, _), report) in cells.into_iter().zip(reports) {
        out[r].push(report.expect("every cell resolved"));
    }
    out
}

/// Runs a batch of heterogeneous-mix cells against a set of systems and
/// returns one report row per cell, in `systems` order — the mix-axis
/// analogue of [`ExperimentGrid::run_on`], through the same store-resolve
/// loop. Each cell consults the store under its [`report_key_cell`];
/// only cells with a missing system build their [`CellPrograms`], so a
/// warm run is all store reads.
pub fn run_mix_cells(
    lab: &Lab,
    sys: &SystemConfig,
    cells: &[CellWorkload],
    systems: &[SystemSpec],
    threads: usize,
) -> Vec<Vec<SimReport>> {
    let exp = *lab.exp();
    resolve_rows(
        lab.report_store(),
        cells.len(),
        systems,
        threads,
        |c, s| {
            report_key_cell(
                &cells[c],
                exp.seed,
                &systems[s],
                &exp,
                sys,
                ExecMode::Coupled,
            )
        },
        |c| cells[c].name(),
        |need| {
            // Only rows with a missing cell build programs, so an all-hit
            // run starts no workers here.
            let rows: Vec<usize> = (0..cells.len()).filter(|&c| need[c]).collect();
            let built = par::map(&rows, threads, |_, &c| {
                CellPrograms::build(&cells[c], exp.seed)
            });
            let mut programs: Vec<Option<CellPrograms>> = cells.iter().map(|_| None).collect();
            for (c, p) in rows.into_iter().zip(built) {
                programs[c] = Some(p);
            }
            move |c, s| {
                let programs = programs[c]
                    .as_ref()
                    .expect("programs built for missing cell");
                run_cell_mix(programs, &systems[s], &exp, sys)
            }
        },
    )
}

/// A set of workloads built once and shared by every figure that runs on
/// them: the substrate under both timing grids ([`ExperimentGrid::run_on`])
/// and trace analyses ([`Lab::analyze`]).
pub struct Lab {
    exp: ExpConfig,
    specs: Vec<WorkloadSpec>,
    workloads: Vec<Workload>,
    traces: Vec<OnceLock<Vec<Vec<BlockAddr>>>>,
    store: Option<TraceStore>,
    report_store: Option<ReportStore>,
}

impl Lab {
    /// Builds every workload (in parallel, each exactly once).
    pub fn build(specs: Vec<WorkloadSpec>, exp: ExpConfig) -> Lab {
        Lab::build_with_threads(specs, exp, par::parallelism())
    }

    /// As [`build`](Self::build), with an explicit worker count
    /// ([`ExperimentGrid`] forwards its own setting here so `serial()`
    /// grids really are serial end to end).
    pub fn build_with_threads(specs: Vec<WorkloadSpec>, exp: ExpConfig, threads: usize) -> Lab {
        let workloads = par::map(&specs, threads, |_, spec| Workload::build(spec, exp.seed));
        let traces = specs.iter().map(|_| OnceLock::new()).collect();
        Lab {
            exp,
            specs,
            workloads,
            traces,
            store: None,
            report_store: None,
        }
    }

    /// The paper's six Table-I workloads.
    pub fn all_six(exp: ExpConfig) -> Lab {
        Lab::build(WorkloadSpec::all_six(), exp)
    }

    /// Attaches a persistent [`TraceStore`]: cached miss traces are read
    /// from it when present and written through on first build. The store
    /// is a pure cache — entries are keyed by a fingerprint of every
    /// input, so attached and detached labs produce identical traces.
    pub fn with_store(mut self, store: TraceStore) -> Lab {
        self.store = Some(store);
        self
    }

    /// Attaches a persistent [`ReportStore`]: grid cells run through this
    /// lab ([`ExperimentGrid::run_on`]) read their [`SimReport`]s from it
    /// when present and write through on first computation. Like the
    /// trace store, it is a pure cache — entries are keyed by a
    /// [`report_key`] fingerprint of every input, so attached and
    /// detached labs produce identical reports.
    pub fn with_report_store(mut self, store: ReportStore) -> Lab {
        self.report_store = Some(store);
        self
    }

    /// Attaches the stores selected by the environment: the trace store
    /// (`TIFS_TRACE_STORE`) *and* the report store (`TIFS_REPORT_STORE`),
    /// each defaulting to its directory when unset and disabled by
    /// `off`/`0`/`none`. Binaries call this; library users and tests stay
    /// hermetic unless they opt in.
    pub fn with_store_from_env(mut self) -> Lab {
        self.store = TraceStore::from_env();
        self.report_store = ReportStore::from_env();
        self
    }

    /// The attached trace store, if any.
    pub fn store(&self) -> Option<&TraceStore> {
        self.store.as_ref()
    }

    /// The attached report store, if any.
    pub fn report_store(&self) -> Option<&ReportStore> {
        self.report_store.as_ref()
    }

    /// The experiment parameters the lab was built with.
    pub fn exp(&self) -> &ExpConfig {
        &self.exp
    }

    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the lab holds no workloads.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Spec of workload `i`.
    pub fn spec(&self, i: usize) -> &WorkloadSpec {
        &self.specs[i]
    }

    /// Built workload `i`.
    pub fn workload(&self, i: usize) -> &Workload {
        &self.workloads[i]
    }

    /// Per-core L1-I miss traces of workload `i` ([`ANALYSIS_CORES`]
    /// cores, `exp.instructions` per core, paper Section 4.1 miss
    /// definition), computed on first use and cached for every later
    /// analysis. With a store attached ([`with_store`](Self::with_store)),
    /// traces persist across processes: a warm run streams them back from
    /// disk instead of re-running the functional model.
    pub fn miss_traces(&self, i: usize) -> &[Vec<BlockAddr>] {
        self.traces[i].get_or_init(|| {
            let key = TraceKey::for_section(
                &functional_section("miss_trace"),
                &self.specs[i],
                self.exp.seed,
                self.exp.instructions,
                ANALYSIS_CORES,
            );
            if let Some(store) = &self.store {
                if let Some(traces) = store.load_blocks(&key) {
                    return traces;
                }
            }
            let traces = crate::harness::collect_miss_traces(
                &self.workloads[i],
                self.exp.instructions,
                ANALYSIS_CORES,
            );
            if let Some(store) = &self.store {
                if let Err(e) = store.save_blocks(&key, &traces) {
                    eprintln!(
                        "[trace-store] failed to persist {} miss traces: {e}",
                        self.specs[i].name
                    );
                }
            }
            traces
        })
    }

    /// Miss traces of workload `i` as `u64` symbols for SEQUITUR.
    pub fn symbol_traces(&self, i: usize) -> Vec<Vec<u64>> {
        self.miss_traces(i)
            .iter()
            .map(|t| t.iter().map(|b| b.0).collect())
            .collect()
    }

    /// Applies a per-workload analysis in parallel, preserving workload
    /// order. The closure gets a [`WorkloadCtx`] exposing the built
    /// workload and the cached miss traces.
    pub fn analyze<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(WorkloadCtx<'_>) -> R + Sync,
    {
        par::map(&self.specs, par::parallelism(), |i, _| {
            f(WorkloadCtx {
                lab: self,
                index: i,
            })
        })
    }
}

/// One workload's view of a [`Lab`] during [`Lab::analyze`].
pub struct WorkloadCtx<'a> {
    lab: &'a Lab,
    /// Workload index in lab order.
    pub index: usize,
}

impl WorkloadCtx<'_> {
    /// Workload display name.
    pub fn name(&self) -> String {
        self.lab.spec(self.index).name.to_string()
    }

    /// The generating spec.
    pub fn spec(&self) -> &WorkloadSpec {
        self.lab.spec(self.index)
    }

    /// The built workload.
    pub fn workload(&self) -> &Workload {
        self.lab.workload(self.index)
    }

    /// Experiment parameters.
    pub fn exp(&self) -> &ExpConfig {
        self.lab.exp()
    }

    /// Cached per-core miss traces.
    pub fn miss_traces(&self) -> &[Vec<BlockAddr>] {
        self.lab.miss_traces(self.index)
    }

    /// Cached miss traces as SEQUITUR symbols.
    pub fn symbol_traces(&self) -> Vec<Vec<u64>> {
        self.lab.symbol_traces(self.index)
    }

    /// The lab's persistent trace store, if one is attached — analyses
    /// with their own derived passes (e.g. Figure 10's lookahead scan)
    /// persist those under their own [`TraceKey::for_section`] keys.
    pub fn store(&self) -> Option<&TraceStore> {
        self.lab.store()
    }

    /// Store key for a derived section of this workload at the lab's
    /// experiment parameters.
    pub fn section_key(&self, section: &str, cores: usize) -> TraceKey {
        TraceKey::for_section(
            section,
            self.spec(),
            self.exp().seed,
            self.exp().instructions,
            cores,
        )
    }
}

/// A declarative (workload × system) grid: build once, run every cell,
/// get keyed reports back.
#[derive(Clone, Debug)]
pub struct ExperimentGrid {
    exp: ExpConfig,
    sys: SystemConfig,
    workloads: Vec<WorkloadSpec>,
    systems: Vec<SystemSpec>,
    threads: Option<usize>,
}

impl ExperimentGrid {
    /// A grid on the paper's Table II CMP with no cells yet.
    pub fn new(exp: ExpConfig) -> ExperimentGrid {
        ExperimentGrid {
            exp,
            sys: SystemConfig::table2(),
            workloads: Vec::new(),
            systems: Vec::new(),
            threads: None,
        }
    }

    /// Replaces the CMP configuration (default: Table II).
    pub fn with_system_config(mut self, sys: SystemConfig) -> Self {
        self.sys = sys;
        self
    }

    /// Adds workloads (rows).
    pub fn workloads(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads.extend(specs);
        self
    }

    /// Adds systems (columns); accepts [`SystemKind`] and [`SystemSpec`].
    pub fn systems<S: Into<SystemSpec>>(mut self, systems: impl IntoIterator<Item = S>) -> Self {
        self.systems.extend(systems.into_iter().map(Into::into));
        self
    }

    /// Forces serial execution (cells still run through the same path).
    pub fn serial(self) -> Self {
        self.threads(1)
    }

    /// Sets an explicit worker count (default: machine parallelism, or
    /// `TIFS_THREADS`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Chooses the execution mode. [`ExecMode::Coupled`] is the only
    /// mode, so this changes nothing; it stays so callers that name the
    /// mode keep building.
    pub fn mode(self, _mode: ExecMode) -> Self {
        self
    }

    fn worker_count(&self) -> usize {
        self.threads.unwrap_or_else(par::parallelism)
    }

    /// Builds every workload once, then runs all (workload × system)
    /// cells in parallel (or serially, per [`serial`](Self::serial) /
    /// [`threads`](Self::threads)).
    pub fn run(&self) -> GridResults {
        let lab = Lab::build_with_threads(self.workloads.clone(), self.exp, self.worker_count());
        self.run_on(&lab)
    }

    /// As [`run`](Self::run), on workloads already built in a [`Lab`]
    /// (`all_figures` shares one lab across every figure). Workloads
    /// added via [`workloads`](Self::workloads) are ignored in favour of
    /// the lab's.
    ///
    /// With a [`ReportStore`] attached to the lab, each cell first
    /// consults the store under its [`report_key`]; only missing cells
    /// are simulated (fanned across threads) and written through. The
    /// store is a pure cache: attached and detached runs produce
    /// identical results.
    pub fn run_on(&self, lab: &Lab) -> GridResults {
        let rows = resolve_rows(
            lab.report_store(),
            lab.len(),
            &self.systems,
            self.worker_count(),
            |w, s| {
                report_key(
                    lab.spec(w),
                    lab.exp().seed,
                    &self.systems[s],
                    &self.exp,
                    &self.sys,
                    ExecMode::Coupled,
                )
            },
            |w| lab.spec(w).name.to_string(),
            |_| |w, s| run_cell(lab.workload(w), &self.systems[s], &self.exp, &self.sys),
        );
        GridResults {
            systems: self.systems.clone(),
            rows: rows
                .into_iter()
                .enumerate()
                .map(|(w, reports)| GridRow {
                    workload: lab.spec(w).name.to_string(),
                    reports,
                })
                .collect(),
        }
    }
}

/// One workload's reports, in grid system order.
#[derive(Clone, Debug)]
pub struct GridRow {
    /// Workload display name.
    pub workload: String,
    /// One report per system, in [`GridResults::systems`] order.
    pub reports: Vec<SimReport>,
}

/// All cell reports of a grid run, keyed by (workload row, system).
#[derive(Clone, Debug)]
pub struct GridResults {
    /// The systems measured (column key).
    pub systems: Vec<SystemSpec>,
    /// Per-workload rows, in grid workload order.
    pub rows: Vec<GridRow>,
}

impl GridResults {
    /// Number of workload rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the grid had no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Keyed view of one workload's reports.
    pub fn row(&self, w: usize) -> RowView<'_> {
        RowView {
            systems: &self.systems,
            row: &self.rows[w],
        }
    }

    /// Iterates keyed row views in workload order.
    pub fn iter_rows(&self) -> impl Iterator<Item = RowView<'_>> {
        (0..self.rows.len()).map(|w| self.row(w))
    }
}

/// One workload's reports with system-keyed accessors.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    systems: &'a [SystemSpec],
    row: &'a GridRow,
}

impl<'a> RowView<'a> {
    /// Workload display name.
    pub fn workload(&self) -> &'a str {
        &self.row.workload
    }

    /// Report of `system`, if it was in the grid.
    pub fn report(&self, system: impl Into<SystemSpec>) -> Option<&'a SimReport> {
        let spec = system.into();
        self.systems
            .iter()
            .position(|s| *s == spec)
            .map(|i| &self.row.reports[i])
    }

    /// Aggregate IPC of `system`.
    ///
    /// # Panics
    ///
    /// Panics if `system` was not in the grid.
    pub fn ipc(&self, system: impl Into<SystemSpec>) -> f64 {
        let spec = system.into();
        self.report(spec.clone())
            .unwrap_or_else(|| panic!("system {:?} not in grid", spec.name()))
            .aggregate_ipc()
    }

    /// Speedup of `system` over `base` (ratio of aggregate IPC).
    pub fn speedup_over(&self, system: impl Into<SystemSpec>, base: impl Into<SystemSpec>) -> f64 {
        let b = self.ipc(base);
        if b == 0.0 {
            0.0
        } else {
            self.ipc(system) / b
        }
    }

    /// (system, report) pairs in grid order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a SystemSpec, &'a SimReport)> {
        self.systems.iter().zip(self.row.reports.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_exp() -> ExpConfig {
        ExpConfig {
            instructions: 4_000,
            warmup: 4_000,
            seed: 3,
        }
    }

    #[test]
    fn par_map_matches_serial_and_preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        let serial = par::map(&items, 1, |i, &x| x * 3 + i as u64);
        let parallel = par::map(&items, 8, |i, &x| x * 3 + i as u64);
        assert_eq!(serial, parallel);
        assert_eq!(serial[5], 5 * 3 + 5);
    }

    #[test]
    fn par_map_handles_empty_and_oversubscription() {
        let empty: Vec<u32> = Vec::new();
        assert!(par::map(&empty, 8, |_, &x| x).is_empty());
        let one = [7u32];
        assert_eq!(par::map(&one, 64, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn grid_builds_workloads_once_and_keys_reports() {
        let grid = ExperimentGrid::new(tiny_exp())
            .with_system_config(SystemConfig::single_core())
            .workloads([WorkloadSpec::tiny_test()])
            .systems([SystemKind::NextLine, SystemKind::TifsVirtualized]);
        let results = grid.run();
        assert_eq!(results.len(), 1);
        let row = results.row(0);
        assert!(row.report(SystemKind::NextLine).is_some());
        assert!(row.report(SystemKind::Fdip).is_none());
        assert!(row.ipc(SystemKind::NextLine) > 0.0);
        assert!(row.speedup_over(SystemKind::TifsVirtualized, SystemKind::NextLine) > 0.0);
    }

    #[test]
    fn grid_supports_custom_tifs_cells() {
        let custom = SystemSpec::tifs(
            "no EOS",
            TifsConfig {
                end_of_stream: false,
                ..TifsConfig::virtualized()
            },
        );
        let results = ExperimentGrid::new(tiny_exp())
            .with_system_config(SystemConfig::single_core())
            .workloads([WorkloadSpec::tiny_test()])
            .systems([custom.clone()])
            .run();
        assert_eq!(results.systems[0].name(), "no EOS");
        assert!(results.row(0).report(custom).is_some());
    }

    #[test]
    fn lab_caches_miss_traces() {
        let lab = Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp());
        let a = lab.miss_traces(0).as_ptr();
        let b = lab.miss_traces(0).as_ptr();
        assert_eq!(a, b, "second call must hit the cache");
        assert_eq!(lab.miss_traces(0).len(), ANALYSIS_CORES);
    }

    #[test]
    fn lab_store_warm_start_matches_cold_build() {
        let dir = std::env::temp_dir().join(format!("tifs-engine-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mk = || {
            Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp())
                .with_store(TraceStore::new(&dir).expect("store dir"))
        };
        let cold = mk();
        let cold_traces = cold.miss_traces(0).to_vec();
        let s = cold.store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (0, 1, 1));
        let warm = mk();
        let warm_traces = warm.miss_traces(0).to_vec();
        let s = warm.store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (1, 0, 0));
        assert_eq!(cold_traces, warm_traces);
        // The store is a pure cache: a storeless lab agrees exactly.
        let plain = Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp());
        assert_eq!(plain.miss_traces(0), &warm_traces[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_preserves_workload_order() {
        let lab = Lab::build(
            vec![WorkloadSpec::tiny_test(), WorkloadSpec::tiny_test()],
            tiny_exp(),
        );
        let names = lab.analyze(|ctx| format!("{}#{}", ctx.name(), ctx.index));
        assert_eq!(names.len(), 2);
        assert!(names[0].ends_with("#0"));
        assert!(names[1].ends_with("#1"));
    }

    #[test]
    fn report_key_covers_every_input() {
        let spec = WorkloadSpec::tiny_test();
        let exp = tiny_exp();
        let sys = SystemConfig::single_core();
        let system = SystemSpec::Kind(SystemKind::TifsVirtualized);
        let base = report_key(&spec, exp.seed, &system, &exp, &sys, ExecMode::Coupled);
        assert_eq!(
            base,
            report_key(&spec, exp.seed, &system, &exp, &sys, ExecMode::Coupled)
        );
        // The workload-generation seed is distinct content from the
        // grid's seed: a lab built under a different seed than the grid
        // runs with must never share a cache entry.
        assert_ne!(
            base,
            report_key(&spec, exp.seed + 1, &system, &exp, &sys, ExecMode::Coupled)
        );
        // Seed, budgets, warmup.
        let mut e2 = exp;
        e2.seed += 1;
        assert_ne!(
            base,
            report_key(&spec, exp.seed, &system, &e2, &sys, ExecMode::Coupled)
        );
        let mut e3 = exp;
        e3.warmup += 1;
        assert_ne!(
            base,
            report_key(&spec, exp.seed, &system, &e3, &sys, ExecMode::Coupled)
        );
        // CMP config.
        let mut s2 = sys.clone();
        s2.mem_latency += 1;
        assert_ne!(
            base,
            report_key(&spec, exp.seed, &system, &exp, &s2, ExecMode::Coupled)
        );
        // System under test (named kinds, probabilistic payload, ablations).
        assert_ne!(
            base,
            report_key(
                &spec,
                exp.seed,
                &SystemSpec::Kind(SystemKind::NextLine),
                &exp,
                &sys,
                ExecMode::Coupled
            )
        );
        assert_ne!(
            report_key(
                &spec,
                exp.seed,
                &SystemSpec::Kind(SystemKind::Probabilistic(0.25)),
                &exp,
                &sys,
                ExecMode::Coupled
            ),
            report_key(
                &spec,
                exp.seed,
                &SystemSpec::Kind(SystemKind::Probabilistic(0.5)),
                &exp,
                &sys,
                ExecMode::Coupled
            )
        );
        let ablated = SystemSpec::tifs(
            "no EOS",
            TifsConfig {
                end_of_stream: false,
                ..TifsConfig::virtualized()
            },
        );
        assert_ne!(
            base,
            report_key(&spec, exp.seed, &ablated, &exp, &sys, ExecMode::Coupled)
        );
        // The metadata organization is content: every shared variant
        // addresses its own entries (private hashes as the pre-axis key,
        // pinned byte-exactly in the report_key_stability suite).
        let key_of_org = |org: MetadataOrg| {
            let spec_sys = SystemSpec::tifs(
                "org",
                TifsConfig {
                    metadata: org,
                    ..TifsConfig::virtualized()
                },
            );
            report_key(&spec, exp.seed, &spec_sys, &exp, &sys, ExecMode::Coupled)
        };
        let org_keys = [
            key_of_org(MetadataOrg::PrivatePerCore),
            key_of_org(MetadataOrg::shared_quota(0)),
            key_of_org(MetadataOrg::shared_quota(2)),
            key_of_org(MetadataOrg::shared_pool(2)),
        ];
        for (i, a) in org_keys.iter().enumerate() {
            for b in &org_keys[i + 1..] {
                assert_ne!(a, b, "metadata organizations must not collide");
            }
        }
        // Labels are display metadata, not content.
        let relabelled = SystemSpec::tifs("other label", TifsConfig::virtualized());
        let labelled = SystemSpec::tifs("a label", TifsConfig::virtualized());
        assert_eq!(
            report_key(&spec, exp.seed, &labelled, &exp, &sys, ExecMode::Coupled),
            report_key(&spec, exp.seed, &relabelled, &exp, &sys, ExecMode::Coupled)
        );
    }

    #[test]
    fn grid_report_store_warm_start_is_all_hits() {
        let dir =
            std::env::temp_dir().join(format!("tifs-engine-report-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = ExperimentGrid::new(tiny_exp())
            .with_system_config(SystemConfig::single_core())
            .systems([SystemKind::NextLine, SystemKind::TifsVirtualized]);
        let mk = || {
            Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp())
                .with_report_store(ReportStore::new(&dir).expect("store dir"))
        };
        let cold_lab = mk();
        let cold = grid.run_on(&cold_lab);
        let s = cold_lab.report_store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (0, 2, 2));
        let warm_lab = mk();
        let warm = grid.run_on(&warm_lab);
        let s = warm_lab.report_store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (2, 0, 0));
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        // The store is a pure cache: a storeless lab agrees exactly.
        let plain = grid.run_on(&Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp()));
        assert_eq!(format!("{plain:?}"), format!("{warm:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_contended_entry_under_a_coupled_key_is_evicted_and_recomputed() {
        let dir =
            std::env::temp_dir().join(format!("tifs-engine-retired-entry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exp = tiny_exp();
        let sys = SystemConfig::single_core();
        let system = SystemSpec::Kind(SystemKind::NextLine);
        let grid = ExperimentGrid::new(exp)
            .with_system_config(sys.clone())
            .systems([system.clone()]);
        let mk = || {
            Lab::build(vec![WorkloadSpec::tiny_test()], exp)
                .with_report_store(ReportStore::new(&dir).expect("store dir"))
        };
        let fresh = grid.run_on(&Lab::build(vec![WorkloadSpec::tiny_test()], exp));
        let fresh_bytes = fresh.rows[0].reports[0].to_canonical_bytes();
        // The layout-1 payload followed by a retired tag-2 event section
        // (tag, one event of issue/block/kind|hit, one warm block). Only a
        // bug or a hand-copied file could put a contended cell's bytes
        // under a coupled key, but the decoder must still refuse them.
        let mut blob = fresh_bytes.clone();
        for v in [2u64, 1, 7, 40, 0, 1, 40] {
            blob.extend_from_slice(&v.to_le_bytes());
        }
        let key = report_key(
            &WorkloadSpec::tiny_test(),
            exp.seed,
            &system,
            &exp,
            &sys,
            ExecMode::Coupled,
        );
        let lab = mk();
        let store = lab.report_store().unwrap();
        store.save(&key, &blob).expect("save");
        assert!(
            load_cached_report(store, &key).is_none(),
            "tag 2 must not decode"
        );
        assert_eq!(store.stats().evictions, 1, "the entry is evicted loudly");
        store.save(&key, &blob).expect("save");
        let rerun_lab = mk();
        let rerun = grid.run_on(&rerun_lab);
        let s = rerun_lab.report_store().unwrap().stats();
        assert_eq!((s.evictions, s.writes), (1, 1), "evicted, then recomputed");
        assert_eq!(rerun.rows[0].reports[0].to_canonical_bytes(), fresh_bytes);
        let warm_lab = mk();
        let warm = grid.run_on(&warm_lab);
        let s = warm_lab.report_store().unwrap().stats();
        assert_eq!(
            (s.hits, s.misses, s.writes),
            (1, 0, 0),
            "recomputed entry is warm"
        );
        assert_eq!(warm.rows[0].reports[0].to_canonical_bytes(), fresh_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serial_and_parallel_grids_agree_exactly() {
        let grid = ExperimentGrid::new(tiny_exp())
            .with_system_config(SystemConfig::single_core())
            .workloads([WorkloadSpec::tiny_test()])
            .systems([SystemKind::NextLine, SystemKind::TifsVirtualized]);
        let serial = grid.clone().serial().run();
        let parallel = grid.threads(8).run();
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn mix_keys_are_per_core_spec_and_order_sensitive() {
        // The collision class this keying fixes: a cell key that ignored
        // the per-core assignment (hashing one representative spec, or an
        // unordered spec set) maps the distinct fleets below to one
        // address. Every pair here must stay disjoint.
        let a = WorkloadSpec::tiny_test();
        let b = WorkloadSpec::tiny_test().with_duty_cycle(0.5);
        let exp = tiny_exp();
        let sys = SystemConfig::single_core();
        let system = SystemSpec::Kind(SystemKind::TifsVirtualized);
        let key = |cell: &CellWorkload| {
            report_key_cell(cell, exp.seed, &system, &exp, &sys, ExecMode::Coupled)
        };
        let homog_a = key(&CellWorkload::Homogeneous(a.clone()));
        let homog_b = key(&CellWorkload::Homogeneous(b.clone()));
        let mix_ab = key(&CellWorkload::Mix(vec![a.clone(), b.clone()]));
        let mix_ba = key(&CellWorkload::Mix(vec![b.clone(), a.clone()]));
        let mix_aab = key(&CellWorkload::Mix(vec![a.clone(), a.clone(), b.clone()]));
        let distinct = [homog_a, homog_b, mix_ab, mix_ba, mix_aab];
        for (i, x) in distinct.iter().enumerate() {
            for y in &distinct[i + 1..] {
                assert_ne!(x, y, "distinct fleets must address distinct content");
            }
        }
        // Append-only: a degenerate mix canonicalizes to the homogeneous
        // cell and hashes to exactly the pre-mix key, so every store
        // entry minted before the axis existed stays warm.
        assert_eq!(key(&CellWorkload::Mix(vec![a.clone(), a.clone()])), homog_a);
        assert_eq!(
            homog_a,
            report_key(&a, exp.seed, &system, &exp, &sys, ExecMode::Coupled)
        );
    }

    #[test]
    fn degenerate_mix_cell_runs_byte_identical_to_homogeneous() {
        let spec = WorkloadSpec::tiny_test();
        let exp = tiny_exp();
        let mut sys = SystemConfig::table2();
        sys.num_cores = 2;
        let system = SystemSpec::Kind(SystemKind::TifsVirtualized);
        let programs = CellPrograms::build(
            &CellWorkload::Mix(vec![spec.clone(), spec.clone()]),
            exp.seed,
        );
        let mix = run_cell_mix(&programs, &system, &exp, &sys);
        let legacy = run_cell(&Workload::build(&spec, exp.seed), &system, &exp, &sys);
        assert_eq!(
            mix.to_canonical_bytes(),
            legacy.to_canonical_bytes(),
            "a degenerate mix must reproduce the legacy cell byte for byte"
        );
    }

    #[test]
    fn mix_cells_report_store_warm_start_is_all_hits() {
        let dir =
            std::env::temp_dir().join(format!("tifs-engine-mix-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sys = SystemConfig::table2();
        sys.num_cores = 2;
        let cells = [
            CellWorkload::Homogeneous(WorkloadSpec::tiny_test()),
            CellWorkload::Mix(vec![
                WorkloadSpec::tiny_test(),
                WorkloadSpec::tiny_test().with_duty_cycle(0.5),
            ]),
        ];
        let systems = [
            SystemSpec::Kind(SystemKind::NextLine),
            SystemSpec::Kind(SystemKind::TifsVirtualized),
        ];
        let mk = || {
            Lab::build(Vec::new(), tiny_exp())
                .with_report_store(ReportStore::new(&dir).expect("store dir"))
        };
        let cold_lab = mk();
        let cold = run_mix_cells(&cold_lab, &sys, &cells, &systems, 2);
        let s = cold_lab.report_store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (0, 4, 4));
        let warm_lab = mk();
        let warm = run_mix_cells(&warm_lab, &sys, &cells, &systems, 2);
        let s = warm_lab.report_store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (4, 0, 0));
        // The store is a pure cache: a storeless lab agrees exactly.
        let plain = run_mix_cells(
            &Lab::build(Vec::new(), tiny_exp()),
            &sys,
            &cells,
            &systems,
            2,
        );
        for (rows, other) in [(&cold, &warm), (&plain, &warm)] {
            for (row, other_row) in rows.iter().zip(other.iter()) {
                for (report, other_report) in row.iter().zip(other_row.iter()) {
                    assert_eq!(
                        report.to_canonical_bytes(),
                        other_report.to_canonical_bytes()
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
