//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--results-dir DIR]
//! perfbench --executor --connect ADDR --worker-id N
//! ```
//!
//! Prints human-readable `#` lines, then one JSON result line. Exits 0 when
//! every answer was right, 1 when one was wrong or a query failed, 2 on a
//! usage error.

use rumble_perfbench::report::result_line;
use rumble_perfbench::session::{run, Options};
use rumble_perfbench::workload::Workload;
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--results-dir DIR]"
    );
    std::process::exit(2);
}

/// The executor entry point: the distributed workload's driver re-runs
/// this binary with `--executor` for each executor process.
fn executor(args: &[String]) -> ! {
    let mut connect = None;
    let mut worker = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--executor" => {}
            "--connect" => connect = it.next().cloned(),
            "--worker-id" => worker = it.next().and_then(|v| v.parse::<u64>().ok()),
            other => usage(&format!("unknown executor flag {other}")),
        }
    }
    let connect = connect.unwrap_or_else(|| usage("--executor needs --connect ADDR"));
    let worker = worker.unwrap_or_else(|| usage("--executor needs --worker-id N"));
    let runtime = std::sync::Arc::new(rumble_core::dist::JsoniqTaskRuntime);
    match sparklite::dist::run_worker(&connect, worker, runtime) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("executor {worker}: {e}");
            std::process::exit(1);
        }
    }
}

fn parse(args: &[String]) -> Options {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut results_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).unwrap_or_else(|| bad())),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| bad())),
            "--seconds" => {
                seconds =
                    Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).unwrap_or_else(|| bad()))
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                })
            }
            "--results-dir" => results_dir = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Options {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        objects: workload.default_objects(),
        results_dir,
        executor_cmd: Vec::new(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--executor") {
        executor(&args);
    }
    let opts = parse(&args);
    match run(opts) {
        Ok(r) => {
            print!("{}", r.report);
            println!("{}", result_line(r.correct(), r.attempted, r.failed, &r.metrics));
            if !r.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
