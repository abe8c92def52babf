//! Smoke test of the benchmark: every workload, untraced and traced, at
//! tiny budgets through the same code the benchmark runs, checked against
//! what `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::path::PathBuf;

use tifs_perfbench::checks::{Checker, SMOKE_PINS};
use tifs_perfbench::json::{self, Value};
use tifs_perfbench::workloads::{Budgets, Config};
use tifs_perfbench::{reference_outputs, result_line, run, Outcome, Workload, LAYERS_JSON};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn benchmark() -> Value {
    json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    benchmark()
        .get(section)
        .expect("section present")
        .as_array()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let cfg = Config {
        seed,
        budgets: Budgets::SMOKE,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "smoke-{}-{seed}-{}",
            workload.name(),
            u8::from(trace)
        )),
    };
    run(workload, &cfg, 0.0, trace).expect("the benchmark runs")
}

#[test]
fn declared_workloads_are_the_implemented_ones() {
    let names: Vec<String> = benchmark()
        .get("workloads")
        .expect("workloads")
        .as_array()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let implemented: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, implemented);
}

#[test]
fn the_layer_map_covers_exactly_the_per_layer_metrics() {
    let map = json::parse(LAYERS_JSON).expect("layers.json parses");
    let mut mapped: Vec<String> = map
        .get("layers")
        .expect("layers")
        .as_array()
        .iter()
        .map(|l| {
            l.get("metric")
                .and_then(Value::as_str)
                .expect("metric")
                .to_string()
        })
        .collect();
    mapped.sort();
    let declared: Vec<String> = declared("per_layer").into_keys().collect();
    assert_eq!(mapped, declared);
}

#[test]
fn every_declared_metric_is_printed_with_its_unit_and_no_output_fails() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = smoke(workload, 42, trace);
            let what = format!("{} trace={trace}", workload.name());
            assert_eq!(out.failed, 0, "{what}: {:#?}", out.notes);
            assert!(out.attempted > 0, "{what}");
            let printed: BTreeMap<String, String> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(printed, declared(section), "{what}");
            assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{what}");
            if !trace {
                let ok = out
                    .metrics
                    .iter()
                    .find(|m| m.name == "ops_ok_share")
                    .expect("ops_ok_share");
                assert_eq!(ok.value, 1.0, "{what}: ops_failed_share must be 0");
                for m in out.metrics.iter().filter(|m| m.name != "ops_ok_share") {
                    assert!(m.value > 0.0, "{what}: {} is {}", m.name, m.value);
                }
            }
            let line = json::parse(&result_line(&out)).expect("the result line is JSON");
            let Value::Obj(members) = &line else {
                panic!("the result line is an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{what}");
        }
    }
}

#[test]
fn a_second_seed_passes_the_cross_checks() {
    // The warm rerun's set-up runs both cold workloads, so this covers all
    // three; seed 7 was not used to calibrate the Table I bands.
    let out = smoke(Workload::WarmRerun, 7, false);
    assert_eq!(out.failed, 0, "{:#?}", out.notes);
}

#[test]
fn the_pinned_reference_matches_and_catches_a_changed_output() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-reference");
    let mut out = reference_outputs(&dir).expect("the reference runs");
    std::fs::remove_dir_all(&dir).expect("removing the reference stores");
    let retired = tifs_sim::SystemConfig::table2().num_cores as u64 * Budgets::SMOKE.timing;

    // Checked at an unpinned seed: only the reference goes through pins.
    let mut checker = Checker::new(7, Budgets::SMOKE);
    assert!(!checker.pinned());
    checker.reference(&out, retired);
    assert_eq!(checker.failed, 0, "{:#?}", checker.problems);
    // One operation per pinned output, plus the pin-coverage check.
    assert_eq!(checker.attempted, SMOKE_PINS.len() as u64 + 1);

    // A deterministic but different output fails its pin.
    out.cells[0].bytes[0] ^= 1;
    out.figures[0].1.push(' ');
    let mut checker = Checker::new(7, Budgets::SMOKE);
    checker.reference(&out, retired);
    assert_eq!(checker.failed, 2, "{:#?}", checker.problems);
    assert!(checker.problems.iter().all(|p| p.contains("!= pinned")));
}
