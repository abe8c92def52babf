//! The engine's central guarantee: a grid yields bit-identical reports
//! run-to-run and regardless of how its cells are scheduled (serial,
//! parallel, oversubscribed). Every batching/caching layer builds on
//! this.

use tifs_experiments::engine::{run_cell, ExperimentGrid, Lab, SystemSpec};
use tifs_experiments::harness::{ExpConfig, SystemKind};
use tifs_experiments::sink::{self, ResultsSink};
use tifs_sim::config::SystemConfig;
use tifs_trace::store::{ReportStore, TraceStore};
use tifs_trace::workload::WorkloadSpec;

fn exp() -> ExpConfig {
    ExpConfig {
        instructions: 20_000,
        warmup: 20_000,
        seed: 42,
    }
}

fn grid() -> ExperimentGrid {
    ExperimentGrid::new(exp())
        .with_system_config(SystemConfig::single_core())
        .workloads([WorkloadSpec::tiny_test(), WorkloadSpec::web_zeus()])
        .systems([
            SystemSpec::Kind(SystemKind::NextLine),
            SystemSpec::Kind(SystemKind::Fdip),
            SystemSpec::Kind(SystemKind::TifsVirtualized),
        ])
}

/// Full-fidelity fingerprint of every cell report: all core counters, L2
/// counters, and prefetcher counters, via the Debug rendering.
fn fingerprint(results: &tifs_experiments::GridResults) -> String {
    format!("{results:?}")
}

#[test]
fn same_grid_twice_is_identical() {
    let a = fingerprint(&grid().run());
    let b = fingerprint(&grid().run());
    assert_eq!(a, b, "two runs of one grid must agree exactly");
}

#[test]
fn serial_and_parallel_schedules_agree() {
    let serial = fingerprint(&grid().serial().run());
    for threads in [2, 8, 32] {
        let parallel = fingerprint(&grid().threads(threads).run());
        assert_eq!(
            serial, parallel,
            "parallel run with {threads} workers diverged from serial"
        );
    }
}

#[test]
fn shared_lab_and_fresh_builds_agree() {
    // Workloads built once and shared across cells must equal per-run
    // builds: the lab is a cache, never a semantic change.
    let lab = Lab::build(
        vec![WorkloadSpec::tiny_test(), WorkloadSpec::web_zeus()],
        exp(),
    );
    let shared = fingerprint(&grid().run_on(&lab));
    let fresh = fingerprint(&grid().run());
    assert_eq!(shared, fresh);
}

#[test]
fn cold_start_equals_warm_start_byte_identically() {
    // The trace store is a pure cache: a cold run (store empty, traces
    // computed and written through) and a warm run (traces streamed back
    // from disk) must produce identical analysis traces and
    // byte-identical structured reports.
    let dir = std::env::temp_dir().join(format!("tifs-determinism-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = || vec![WorkloadSpec::tiny_test(), WorkloadSpec::web_zeus()];
    let lab_with_store =
        || Lab::build(specs(), exp()).with_store(TraceStore::new(&dir).expect("store dir"));

    let cold = lab_with_store();
    let cold_traces: Vec<_> = (0..cold.len())
        .map(|i| cold.miss_traces(i).to_vec())
        .collect();
    let cold_stats = cold.store().unwrap().stats();
    assert_eq!(
        (cold_stats.hits, cold_stats.misses, cold_stats.writes),
        (0, 2, 2),
        "cold run must build and persist every trace"
    );
    let cold_json = sink::to_json(&sink::grid_report(
        "determinism",
        "d",
        &grid().run_on(&cold),
    ));

    let warm = lab_with_store();
    let warm_traces: Vec<_> = (0..warm.len())
        .map(|i| warm.miss_traces(i).to_vec())
        .collect();
    let warm_stats = warm.store().unwrap().stats();
    assert_eq!(
        (warm_stats.hits, warm_stats.misses, warm_stats.writes),
        (2, 0, 0),
        "warm run must hit the store for every trace, never re-simulate"
    );
    assert_eq!(cold_traces, warm_traces, "store round-trip changed a trace");
    let warm_json = sink::to_json(&sink::grid_report(
        "determinism",
        "d",
        &grid().run_on(&warm),
    ));
    assert_eq!(
        cold_json, warm_json,
        "cold and warm structured reports must be byte-identical"
    );

    // A storeless lab agrees with both.
    let plain = Lab::build(specs(), exp());
    let plain_traces: Vec<_> = (0..plain.len())
        .map(|i| plain.miss_traces(i).to_vec())
        .collect();
    assert_eq!(plain_traces, warm_traces);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_store_cold_equals_warm_byte_identically() {
    // The report store is a pure cache over whole timing runs: a cold
    // grid (store empty, every cell simulated and written through) and a
    // warm grid (every cell streamed back from disk, zero recomputes)
    // must emit byte-identical structured reports under `results/`.
    let scratch = std::env::temp_dir().join(format!(
        "tifs-determinism-report-store-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    let store_dir = scratch.join("store");
    let lab_with_store = || {
        Lab::build(
            vec![WorkloadSpec::tiny_test(), WorkloadSpec::web_zeus()],
            exp(),
        )
        .with_report_store(ReportStore::new(&store_dir).expect("store dir"))
    };
    let cells = 2 * 3; // two workloads × three systems
    let write_results = |lab: &Lab, tag: &str| {
        let dir = scratch.join(tag);
        let sink = ResultsSink::new(&dir).expect("results dir");
        let report = sink::grid_report("report_store_determinism", "d", &grid().run_on(lab));
        sink.write(&report).expect("write results");
        (
            std::fs::read(dir.join("report_store_determinism.json")).expect("json bytes"),
            std::fs::read(dir.join("report_store_determinism.csv")).expect("csv bytes"),
        )
    };

    let cold = lab_with_store();
    let cold_files = write_results(&cold, "cold");
    let s = cold.report_store().unwrap().stats();
    assert_eq!(
        (s.hits, s.misses, s.writes, s.evictions),
        (0, cells, cells, 0),
        "cold run must simulate and persist every cell"
    );

    let warm = lab_with_store();
    let warm_files = write_results(&warm, "warm");
    let s = warm.report_store().unwrap().stats();
    assert_eq!(
        (s.hits, s.misses, s.writes, s.evictions),
        (cells, 0, 0, 0),
        "warm run must hit the report store for every cell, never re-simulate"
    );
    assert_eq!(
        cold_files, warm_files,
        "cold and warm results/ artifacts must be byte-identical"
    );

    // A storeless lab agrees with both, and so does the raw cell runner:
    // the store changes cost, never content.
    let plain = Lab::build(
        vec![WorkloadSpec::tiny_test(), WorkloadSpec::web_zeus()],
        exp(),
    );
    let plain_files = write_results(&plain, "plain");
    assert_eq!(plain_files, warm_files);
    let direct = run_cell(
        plain.workload(0),
        &SystemSpec::Kind(SystemKind::NextLine),
        &exp(),
        &SystemConfig::single_core(),
    );
    let via_store = grid().run_on(&warm);
    assert_eq!(
        via_store.row(0).report(SystemKind::NextLine).unwrap(),
        &direct,
        "a cached report must equal a freshly simulated one exactly"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn analysis_traces_deterministic_and_schedule_independent() {
    let lab = || {
        Lab::build(
            vec![WorkloadSpec::tiny_test(), WorkloadSpec::web_zeus()],
            exp(),
        )
    };
    let a = lab();
    let b = lab();
    assert_eq!(a.miss_traces(0), b.miss_traces(0));
    assert_eq!(a.miss_traces(1), b.miss_traces(1));
    // analyze() results must arrive in workload order whatever the
    // scheduling, and repeat runs must agree.
    let names_a = a.analyze(|ctx| ctx.name());
    let names_b = b.analyze(|ctx| ctx.name());
    assert_eq!(names_a, names_b);
    assert_eq!(
        names_a,
        vec!["tiny-test".to_string(), "Web Zeus".to_string()]
    );
}
