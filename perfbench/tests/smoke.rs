//! Seconds-long runs of every workload at a small size, traced and
//! untraced, on two seeds; and the hand-written cleaner against the engine.

use rumble_core::Rumble;
use rumble_perfbench::reference::{clean_text, Oracle};
use rumble_perfbench::report::{END_TO_END, PER_LAYER};
use rumble_perfbench::session::{run, Options, RunResult};
use rumble_perfbench::workload::{Kind, Workload, CLEAN_OUT_PATH, MESSY_PATH};
use std::sync::Mutex;

/// A run resets the process-wide peak RSS, so runs must not overlap.
static RUNS: Mutex<()> = Mutex::new(());

/// Runs `opts` alone in the process and checks that a peak RSS from before
/// the first set-up (here a 32 MiB buffer touched and freed just before the
/// run) was reset away.
fn run_alone(opts: Options) -> RunResult {
    let _alone = RUNS.lock().unwrap_or_else(|e| e.into_inner());
    drop(std::hint::black_box(vec![1_u8; 32 << 20]));
    let name = opts.workload.name();
    let r = run(opts).expect("the run completes");
    let (before, after) = r.peak_rss_reset_mb;
    assert!(after < before, "{name}: peak RSS {before} MB before the reset, {after} MB after");
    r
}

fn options(workload: Workload, seed: u64, trace: bool) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.5,
        trace,
        objects: 3_000,
        results_dir: None,
        executor_cmd: vec![env!("CARGO_BIN_EXE_perfbench").to_string(), "--executor".to_string()],
    }
}

#[test]
fn every_workload_verifies_on_two_seeds() {
    for workload in Workload::ALL {
        for seed in [1, 2] {
            let r = run_alone(options(workload, seed, false));
            assert!(r.correct(), "{} seed {seed}:\n{}", workload.name(), r.report);
            // At least the set-up passes and one timed round.
            let per_round = workload.kinds().len() as u64;
            assert!(r.attempted >= 3 * per_round, "{}: {} attempted", workload.name(), r.attempted);
            let names: Vec<&str> = r.metrics.iter().map(|(d, _)| d.name).collect();
            let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
            assert_eq!(names, expected);
            for (d, v) in &r.metrics {
                assert!(v.is_finite() && *v > 0.0, "{} {} = {v}", workload.name(), d.name);
            }
        }
    }
}

#[test]
fn traced_runs_report_every_layer_and_the_predicted_zeros() {
    let dir = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
    for workload in Workload::ALL {
        let mut opts = options(workload, 3, true);
        opts.results_dir = Some(dir.clone());
        let r = run_alone(opts);
        assert!(r.correct(), "{}:\n{}", workload.name(), r.report);
        let names: Vec<&str> = r.metrics.iter().map(|(d, _)| d.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        let get = |n: &str| r.metrics.iter().find(|(d, _)| d.name == n).map(|(_, v)| *v).unwrap();
        assert!(get("api.exec_us") > 0.0 && get("executor.tasks") > 0.0);
        assert!(get("jsonlite.parse_ns_per_byte") > 0.0 && get("item.decode_ns_per_item") > 0.0);
        assert!(get("host.calibration_ms") > 0.0);
        assert!(!r.report.contains("VIOLATED"), "{}:\n{}", workload.name(), r.report);
        match workload {
            Workload::RedditScan => {
                assert_eq!(get("shuffle.bytes"), 0.0);
                assert_eq!(get("cache.hits") + get("cache.misses"), 0.0);
            }
            Workload::ConfusionDist => assert!(get("dist.blocks_pushed") > 0.0),
            Workload::ConfusionWarm => assert_eq!(get("storage.input_bytes"), 0.0),
            Workload::MessyClean => assert!(get("storage.output_records") > 0.0),
        }
        let stem = dir.join(format!("{}-seed3", workload.name()));
        let spans = std::fs::read_to_string(stem.with_extension("spans.json")).unwrap();
        assert!(jsonlite::parse_value(&spans).is_ok(), "spans artifact is JSON");
        assert!(std::fs::metadata(stem.with_extension("events.jsonl")).unwrap().len() > 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reference cleaner and the engine's cleaning query agree record for
/// record, on generated data and on hand-picked edge cases.
#[test]
fn reference_cleaner_matches_the_engine() {
    let edge_cases =
        "{\"id\": \"7\", \"name\": [\"n7\"], \"value\": \"12\", \"tags\": [\"a\", \"b\", \"a\"]}\n\
                      {\"id\": null, \"name\": \"gone\", \"value\": 1}\n\
                      {\"id\": 3, \"value\": null, \"tags\": \"t1\", \"nested\": {\"k\": 1}}\n\
                      {\"id\": 4, \"name\": \"n4\", \"value\": 2.50}\n";
    for text in [rumble_datagen::heterogeneous::generate(400, 9), edge_cases.to_string()] {
        let engine = Rumble::default_local();
        engine.hdfs_put(MESSY_PATH.trim_start_matches("hdfs://"), &text).unwrap();
        let written =
            engine.compile(&Kind::Clean.query()).unwrap().write_json_lines(CLEAN_OUT_PATH).unwrap();
        let got = engine
            .sparklite()
            .hdfs()
            .read_to_string(CLEAN_OUT_PATH.trim_start_matches("hdfs://"))
            .unwrap();
        let (records, want) = clean_text(&text).unwrap();
        assert_eq!(written, records);
        assert_eq!(got, want);
    }
}

/// A wrong answer is caught: the oracle of one seed rejects another seed's
/// results.
#[test]
fn oracle_rejects_another_seeds_answers() {
    let text = Workload::RedditScan.generate(20_000, 1);
    let other = Workload::RedditScan.generate(20_000, 2);
    let oracle = Oracle::build(Workload::RedditScan, &text).unwrap();
    let engine = Rumble::default_local();
    engine.hdfs_put("/reddit.json", &other).unwrap();
    let n = engine.compile(&Kind::Needle.query()).unwrap().count().unwrap();
    let want = text.matches(rumble_datagen::reddit::NEEDLE).count() as u64;
    assert_ne!(n, want, "the two seeds happen to share a needle count");
    let answer = rumble_perfbench::reference::Answer::Count(n);
    assert!(oracle.check(Kind::Needle, &answer, engine.sparklite()).is_err());
}
