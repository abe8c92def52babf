//! Benchmark command line:
//!
//! ```text
//! tifs-perfbench --workload <timing_server|analyses_six|warm_rerun>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints a human-readable table, then, as
//! the last line of standard output, one JSON object with the verdict
//! and the metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). Stores and span files live under `perfbench/out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use tifs_perfbench::workloads::{Budgets, Config};
use tifs_perfbench::{result_line, run, save_spans, Workload, WORKERS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tifs-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("perfbench").join("out");
    let cfg = Config {
        seed: args.seed,
        budgets: Budgets::BENCH,
        work_dir: out_dir.join(format!("work-{}", std::process::id())),
    };
    let outcome = match run(args.workload, &cfg, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tifs-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} budgets {:?} workers {} trace {}",
        args.workload.name(),
        args.seed,
        cfg.budgets,
        WORKERS,
        u8::from(args.trace)
    );
    for m in &outcome.metrics {
        println!("  {:<32} {:>18} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    if args.trace {
        match save_spans(&out_dir, args.workload, args.seed, &outcome.spans) {
            Ok(path) => println!("spans: {}", path.display()),
            Err(e) => {
                eprintln!("tifs-perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
