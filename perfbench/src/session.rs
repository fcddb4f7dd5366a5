//! One benchmark run: set the engine up, drive the workload's query mix as a
//! closed loop with a single client, verify every answer, and turn the
//! measurements into the end-to-end metrics (untraced run) or the per-layer
//! metrics (traced run).

use crate::reference::{sorted_lines, Answer, Oracle};
use crate::report::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{calibration_ms, geomean, median, percentile, shuffle, tail_percentile};
use crate::workload::{Kind, Workload, CLEAN_OUT_PATH};
use rumble_core::api::PreparedQuery;
use rumble_core::item::{decode_items, encode_items, items_from_json_lines};
use rumble_core::{Item, Rumble};
use sparklite::events::{Event, EventCollector, Timeline};
use sparklite::rdd::util::SplitMix64;
use sparklite::MetricsSnapshot;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed loop; a traced run splits it evenly between an
    /// untraced and a traced loop.
    pub seconds: f64,
    pub trace: bool,
    pub objects: usize,
    /// Where a traced run writes its spans and event timeline.
    pub results_dir: Option<PathBuf>,
    /// How to launch an executor process; empty re-runs this binary.
    pub executor_cmd: Vec<String>,
}

/// The outcome of one run.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
    /// The process's peak RSS, MB, just before and just after it was reset
    /// ahead of the first set-up (data generation and the reference answers
    /// came before).
    pub peak_rss_reset_mb: (f64, f64),
    /// Human-readable lines printed ahead of the result line.
    pub report: String,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Answers checked so far, and the first few failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                false
            }
        }
    }
}

/// What a `PreparedQuery` call hands back, before the benchmark converts
/// it into an [`Answer`] outside the timed span.
enum Raw {
    Count(u64),
    Items(Vec<Item>),
    Written(u64),
}

/// The public-API boundaries one query crossed: `Rumble::compile` runs
/// from `start` to `compiled`, the `PreparedQuery` call from `compiled` to
/// `end`.
#[derive(Clone, Copy)]
struct Timing {
    kind: Kind,
    start: Instant,
    compiled: Instant,
    end: Instant,
    /// Items the call materialized on the driver.
    items: u64,
}

impl Timing {
    fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

fn call(q: &PreparedQuery, kind: Kind) -> rumble_core::Result<Raw> {
    Ok(match kind {
        Kind::Filter | Kind::Needle => Raw::Count(q.count()?),
        Kind::Group | Kind::MixedGroup => Raw::Items(q.collect()?),
        Kind::Sort => Raw::Items(q.take(10)?),
        Kind::Clean => Raw::Written(q.write_json_lines(CLEAN_OUT_PATH)?),
    })
}

fn execute(engine: &Rumble, kind: Kind, text: &str) -> (Timing, Result<Raw, String>) {
    if kind == Kind::Clean {
        // The simulated HDFS refuses to overwrite a file.
        engine.sparklite().hdfs().delete(CLEAN_OUT_PATH.trim_start_matches("hdfs://"));
    }
    let start = Instant::now();
    let prepared = engine.compile(text);
    let compiled = Instant::now();
    let raw = prepared.and_then(|q| call(&q, kind)).map_err(|e| e.to_string());
    let end = Instant::now();
    let items = match &raw {
        Ok(Raw::Items(items)) => items.len() as u64,
        _ => 0,
    };
    (Timing { kind, start, compiled, end, items }, raw)
}

fn to_answer(kind: Kind, raw: Result<Raw, String>) -> Result<Answer, String> {
    Ok(match raw? {
        Raw::Count(n) => Answer::Count(n),
        Raw::Written(n) => Answer::Written(n),
        Raw::Items(items) => match kind {
            Kind::Group => Answer::Groups(confusion_groups(&items)?),
            Kind::Sort => Answer::Top(
                items.iter().map(|i| i.as_str().unwrap_or_default().to_string()).collect(),
            ),
            _ => Answer::Lines(sorted_lines(&items)),
        },
    })
}

fn confusion_groups(items: &[Item]) -> Result<Vec<(String, String, u64)>, String> {
    let mut groups = Vec::with_capacity(items.len());
    for i in items {
        let o = i.as_object().ok_or("group result is not an object")?;
        let s = |k: &str| o.get(k).and_then(Item::as_str).unwrap_or_default().to_string();
        let n = o.get("n").and_then(Item::as_i64).ok_or("group result has no count")?;
        groups.push((s("c"), s("t"), n as u64));
    }
    groups.sort();
    Ok(groups)
}

/// A set-up engine and what setting it up cost.
struct Engine {
    rumble: Rumble,
    setup: Duration,
    put: Duration,
}

impl Engine {
    /// Stops the executor processes, and waits for them, before the
    /// context is dropped.
    fn close(self) {
        self.rumble.sparklite().shutdown_cluster();
    }
}

/// A timed loop's measurements.
#[derive(Default)]
struct LoopStats {
    /// Latency of each verified query, ms, by kind.
    latencies: BTreeMap<Kind, Vec<f64>>,
    verified: u64,
    /// Loop wall time minus the time spent calibrating and checking answers.
    busy: Duration,
}

impl LoopStats {
    fn queries_per_s(&self) -> f64 {
        self.verified as f64 / self.busy.as_secs_f64().max(1e-9)
    }

    fn absorb(&mut self, other: LoopStats) {
        for (kind, v) in other.latencies {
            self.latencies.entry(kind).or_default().extend(v);
        }
        self.verified += other.verified;
        self.busy += other.busy;
    }

    fn p50_ms(&self, kind: Kind) -> f64 {
        self.latencies.get(&kind).map_or(0.0, |v| median(v))
    }

    fn geomean_p50_ms(&self) -> f64 {
        geomean(&self.latencies.values().map(|v| median(v)).collect::<Vec<_>>())
    }
}

/// Everything one run shares: the dataset, its oracle, the query texts,
/// the seeded mix order and the answer tally.
struct Bench {
    opts: Options,
    text: String,
    oracle: Oracle,
    queries: HashMap<Kind, String>,
    rng: SplitMix64,
    tally: Tally,
    /// Host-speed calibrations, ms, taken while no engine exists: before
    /// each set-up and after each engine is closed.
    calibrations: Vec<f64>,
    /// The peak RSS, MB, before and after each reset ahead of a set-up.
    rss_resets: Vec<(f64, f64)>,
}

impl Bench {
    /// The factor that turns this run's times into times at the reference
    /// host speed: [`REFERENCE_CALIBRATION_MS`] over the run's median
    /// calibration.
    fn speed_scale(&self) -> f64 {
        REFERENCE_CALIBRATION_MS / median(&self.calibrations)
    }

    /// One round of the mix, in an order drawn from the seed.
    fn round(&mut self) -> Vec<Kind> {
        let mut kinds = self.opts.workload.kinds().to_vec();
        shuffle(&mut self.rng, &mut kinds);
        kinds
    }

    fn check(&mut self, engine: &Rumble, kind: Kind, raw: Result<Raw, String>) -> bool {
        let outcome =
            to_answer(kind, raw).and_then(|a| self.oracle.check(kind, &a, engine.sparklite()));
        self.tally.record(outcome)
    }

    /// Context and executors up, dataset staged, one untimed pass of the
    /// mix (which fills the auto-persist cache where it is on). The time
    /// spent checking that pass's answers is not set-up time. The peak RSS
    /// is reset first, so that it is this engine's.
    fn set_up(&mut self, traced: bool) -> Result<Engine, String> {
        let w = self.opts.workload;
        self.calibrations.push(calibration_ms());
        self.rss_resets.push(reset_peak_rss()?);
        let start = Instant::now();
        let rumble = Rumble::with_conf(w.conf(traced, &self.opts.executor_cmd));
        if !w.auto_persist() {
            rumble.set_auto_persist(None);
        }
        let put_start = Instant::now();
        rumble_datagen::put_dataset(rumble.sparklite(), w.path(), &self.text)
            .map_err(|e| format!("staging the dataset: {e}"))?;
        let put = put_start.elapsed();
        let mut checking = Duration::ZERO;
        for kind in self.round() {
            let (_, raw) = execute(&rumble, kind, &self.queries[&kind]);
            let check_start = Instant::now();
            self.check(&rumble, kind, raw);
            checking += check_start.elapsed();
        }
        Ok(Engine { rumble, setup: start.elapsed().saturating_sub(checking), put })
    }

    /// Stops the engine, then calibrates the host while no engine exists.
    fn close(&mut self, engine: Engine) {
        engine.close();
        self.calibrations.push(calibration_ms());
    }

    /// Whole rounds of the mix until `seconds` have passed; one client, the
    /// next query sent when the previous one returned.
    fn timed_loop(
        &mut self,
        engine: &Rumble,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> LoopStats {
        let mut stats = LoopStats::default();
        let started = Instant::now();
        // Time spent checking answers, not serving queries.
        let mut aside = Duration::ZERO;
        while started.elapsed().as_secs_f64() < seconds {
            for kind in self.round() {
                let (timing, raw) = execute(engine, kind, &self.queries[&kind]);
                if let Some(t) = tracer.as_deref_mut() {
                    t.after_query(&timing);
                }
                let check_start = Instant::now();
                let ok = self.check(engine, kind, raw);
                aside += check_start.elapsed();
                if ok {
                    stats.latencies.entry(kind).or_default().push(timing.latency_ms());
                    stats.verified += 1;
                }
            }
        }
        stats.busy = started.elapsed().saturating_sub(aside);
        stats
    }

    fn header(&self, note: &str) -> String {
        let o = &self.opts;
        format!(
            "# perfbench workload={} seed={} seconds={} trace={} objects={} input_bytes={} \
             executor_threads={} {note}\n",
            o.workload.name(),
            o.seed,
            o.seconds,
            u8::from(o.trace),
            o.objects,
            self.text.len(),
            sparklite::SparkliteConf::default().executors,
        )
    }

    fn reset_line(&self) -> String {
        let (before, after) = self.rss_resets[0];
        format!(
            "# memory: peak RSS reset from {before:.1} MB (data generation and reference \
             answers) to {after:.1} MB before the first set-up; RSS at each reset: {}\n",
            self.rss_resets.iter().map(|(_, a)| format!("{a:.1}")).collect::<Vec<_>>().join(" ")
        )
    }

    fn finish(self, metrics: Vec<(MetricDef, f64)>, mut report: String) -> RunResult {
        for e in &self.tally.errors {
            let _ = writeln!(report, "# FAILED: {e}");
        }
        RunResult {
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            metrics,
            report,
            peak_rss_reset_mb: self.rss_resets[0],
        }
    }

    fn untraced(mut self) -> Result<RunResult, String> {
        // The timed loop is split evenly over the set-up engines, so one
        // run samples several heap layouts and process states, not one.
        let mut stats = LoopStats::default();
        let mut setups = Vec::new();
        let mut segments = Vec::new();
        let mut peaks = Vec::new();
        let mut cached = 0;
        for i in 0..SETUPS {
            let engine = self.set_up(false)?;
            setups.push(engine.setup.as_secs_f64());
            let segment = self.timed_loop(&engine.rumble, self.opts.seconds / SETUPS as f64, None);
            peaks.push(peak_rss_mb());
            if i == 0 {
                cached = engine.rumble.sparklite().metrics().cached_bytes;
            }
            self.close(engine);
            segments.push(format!("{:.2}", segment.geomean_p50_ms()));
            stats.absorb(segment);
        }

        let scale = self.speed_scale();
        // The lowest engine's peak: a closed engine's context can still be
        // being freed on an executor thread when the next set-up starts, and
        // that engine's peak then reads tens of MB higher by chance. The
        // first engine always starts clean.
        let rss = peaks.iter().copied().fold(f64::INFINITY, f64::min);
        let values = HashMap::from([
            ("setup_s", median(&setups) * scale),
            ("queries_per_s", stats.queries_per_s() / scale),
            ("query_ms_p50_geomean", stats.geomean_p50_ms() * scale),
            ("peak_rss_mb", rss),
        ]);
        let mut report = self.header("(untraced)");
        report.push_str(&self.reset_line());
        report.push_str(&latency_table(&stats));
        let samples: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
        let _ = writeln!(report, "# setup_s samples: {}", samples.join(" "));
        let _ = writeln!(report, "# query_ms_p50_geomean per engine: {}", segments.join(" "));
        let peaks_mb: Vec<String> = peaks.iter().map(|p| format!("{p:.1}")).collect();
        let _ = writeln!(report, "# peak_rss_mb per engine: {}", peaks_mb.join(" "));
        let _ = writeln!(
            report,
            "# host calibration: median {:.3} ms of {} (reference {REFERENCE_CALIBRATION_MS} ms); \
             the result line's times are the above times x {scale:.4}",
            median(&self.calibrations),
            self.calibrations.len(),
        );
        let _ = writeln!(
            report,
            "# memory: peak_rss_mb={rss:.1} cache.cached_bytes={cached} ({:.1} MB)",
            cached as f64 / MB
        );
        Ok(self.finish(in_order(&END_TO_END, &values), report))
    }

    fn traced(mut self) -> Result<RunResult, String> {
        let half = self.opts.seconds / 2.0;
        let plain = self.set_up(false)?;
        let base = self.timed_loop(&plain.rumble, half, None);
        // Read while only the untraced engine has existed, as in an
        // untraced run.
        let rss = peak_rss_mb();
        self.close(plain);

        let engine = self.set_up(true)?;
        let sc = engine.rumble.sparklite().clone();
        let collector =
            Arc::clone(sc.event_collector().ok_or("the traced configuration collects events")?);
        collector.clear();
        let mut tracer =
            Tracer::new(sc.event_bus().epoch(), collector, self.opts.workload.kinds().len());
        let before = sc.metrics();
        let traced = self.timed_loop(&engine.rumble, half, Some(&mut tracer));
        let after = sc.metrics();
        let put = engine.put;
        drop(sc);
        self.close(engine);

        let texts: Vec<&str> =
            self.opts.workload.kinds().iter().map(|k| self.queries[k].as_str()).collect();
        let front = front_end_us(&texts)?;
        let rates = item_rates(&self.text)?;
        let values = per_layer(&LayerInputs {
            workload: self.opts.workload,
            tracer: &tracer,
            before: &before,
            after: &after,
            put,
            front,
            rates,
            base: &base,
            traced: &traced,
            rss,
            calibration_ms: median(&self.calibrations),
            scale: self.speed_scale(),
        });

        let mut report = self.header("(traced)");
        report.push_str(&self.reset_line());
        report.push_str(&latency_table(&base));
        let _ = writeln!(
            report,
            "# memory: peak_rss_mb={rss:.1} cache.cached_bytes={} ({:.1} MB)",
            after.cached_bytes,
            after.cached_bytes as f64 / MB
        );
        for (claim, holds) in predictions(self.opts.workload, &values) {
            let _ =
                writeln!(report, "# prediction {claim}: {}", if holds { "ok" } else { "VIOLATED" });
        }
        if let Some(dir) = &self.opts.results_dir {
            let stem = format!("{}-seed{}", self.opts.workload.name(), self.opts.seed);
            let paths = tracer.write_artifacts(dir, &stem)?;
            let _ = writeln!(report, "# trace artifacts: {paths}");
        }
        Ok(self.finish(in_order(&PER_LAYER, &values), report))
    }
}

const MB: f64 = 1024.0 * 1024.0;

/// Engines set up per untraced run; `setup_s` is the median of their set-up
/// times, and the timed loop is split evenly between them.
const SETUPS: usize = 5;

/// The calibration time, ms, of the reference host speed: about the median
/// of [`calibration_ms`] on the two-vCPU machine the benchmark was tuned on.
/// Timed metrics are reported as if the host had run at this speed.
pub const REFERENCE_CALIBRATION_MS: f64 = 5.6;

/// Runs one workload as `opts` says.
pub fn run(opts: Options) -> Result<RunResult, String> {
    let w = opts.workload;
    let text = w.generate(opts.objects, opts.seed);
    let oracle = Oracle::build(w, &text)?;
    let queries = w.kinds().iter().map(|&k| (k, k.query())).collect();
    let rng = SplitMix64::new(opts.seed ^ 0x6D69_785F_6F72_6465);
    let bench = Bench {
        opts,
        text,
        oracle,
        queries,
        rng,
        tally: Tally::default(),
        calibrations: Vec::new(),
        rss_resets: Vec::new(),
    };
    if bench.opts.trace {
        bench.traced()
    } else {
        bench.untraced()
    }
}

/// Metric values in catalogue order. Every catalogue entry must have been
/// measured.
fn in_order(catalogue: &[MetricDef], values: &HashMap<&str, f64>) -> Vec<(MetricDef, f64)> {
    catalogue
        .iter()
        .map(|d| {
            let v =
                values.get(d.name).unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            (*d, *v)
        })
        .collect()
}

/// Per-kind latency lines: sample count, median, and the highest
/// percentile that leaves ten samples beyond it.
fn latency_table(stats: &LoopStats) -> String {
    let mut out = String::new();
    for (kind, v) in &stats.latencies {
        let tail = match tail_percentile(v.len()) {
            Some(p) => format!("p{p}={:.2}", percentile(v, p)),
            None => "no tail (fewer than 20 samples)".to_string(),
        };
        let _ = writeln!(
            out,
            "# {}_ms_p50 = {:.2} ms  (n={}, {tail})",
            kind.name(),
            median(v),
            v.len()
        );
    }
    let _ = writeln!(
        out,
        "# queries_per_s = {:.3} 1/s  ({} verified queries)",
        stats.queries_per_s(),
        stats.verified
    );
    out
}

/// One recorded span, on the engine's event-bus clock (µs since the bus
/// epoch) so it lines up with the collected events.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    kind: Kind,
    start_us: u64,
    end_us: u64,
}

/// Per-query observations of a traced loop: the benchmark's own spans
/// around each public call, and what the event collector saw meanwhile.
struct Tracer {
    epoch: Instant,
    collector: Arc<EventCollector>,
    /// Queries whose events are kept for the timeline artifact.
    keep_queries: usize,
    kept: Vec<(u64, Event)>,
    spans: Vec<Span>,
    queries: u64,
    exec_us: Vec<f64>,
    items: Vec<f64>,
    driver_only_us: Vec<f64>,
    task_us: Vec<f64>,
    queue_us: Vec<f64>,
    fetch_us: Vec<f64>,
}

impl Tracer {
    fn new(epoch: Instant, collector: Arc<EventCollector>, keep_queries: usize) -> Tracer {
        Tracer {
            epoch,
            collector,
            keep_queries,
            kept: Vec::new(),
            spans: Vec::new(),
            queries: 0,
            exec_us: Vec::new(),
            items: Vec::new(),
            driver_only_us: Vec::new(),
            task_us: Vec::new(),
            queue_us: Vec::new(),
            fetch_us: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Takes the events of the query that just returned (the collector is
    /// emptied after each query, which keeps its memory flat).
    fn after_query(&mut self, t: &Timing) {
        let events = self.collector.events();
        self.collector.clear();
        let (start, compiled, end) = (self.us(t.start), self.us(t.compiled), self.us(t.end));
        let mut started: HashMap<(u64, u64, u32), u64> = HashMap::new();
        let mut running = Vec::new();
        for (at, ev) in &events {
            match ev {
                Event::TaskStart { job, partition, attempt, .. } => {
                    started.insert((*job, *partition, *attempt), *at);
                }
                Event::TaskEnd { job, partition, attempt, busy_us, queue_us, .. } => {
                    let from = started
                        .remove(&(*job, *partition, *attempt))
                        .unwrap_or(at.saturating_sub(*busy_us));
                    running.push((from, *at));
                    self.task_us.push(*busy_us as f64);
                    self.queue_us.push(*queue_us as f64);
                }
                Event::BlockFetch { dur_us, .. } => self.fetch_us.push(*dur_us as f64),
                _ => {}
            }
        }
        let exec = end.saturating_sub(compiled);
        self.driver_only_us
            .push(exec.saturating_sub(covered_us(&mut running, compiled, end)) as f64);
        self.exec_us.push(exec as f64);
        self.items.push(t.items as f64);

        let id = self.spans.len() as u64 + 1;
        for (offset, name, parent, from, to) in [
            (0, "query", None, start, end),
            (1, "api.compile", Some(id), start, compiled),
            (2, "api.exec", Some(id), compiled, end),
        ] {
            self.spans.push(Span {
                id: id + offset,
                parent,
                name,
                kind: t.kind,
                start_us: from,
                end_us: to,
            });
        }
        if (self.queries as usize) < self.keep_queries {
            self.kept.extend(events);
        }
        self.queries += 1;
    }

    /// Writes `<stem>.spans.json` (the benchmark's spans) and
    /// `<stem>.events.jsonl` (the engine's events during the first round of
    /// the traced loop) into `dir`.
    fn write_artifacts(&self, dir: &std::path::Path, stem: &str) -> Result<String, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"query\": \"{}\", \
                     \"start_us\": {}, \"end_us\": {}}}",
                    s.id,
                    s.name,
                    s.kind.name(),
                    s.start_us,
                    s.end_us
                )
            })
            .collect();
        let spans_path = dir.join(format!("{stem}.spans.json"));
        let events_path = dir.join(format!("{stem}.events.jsonl"));
        let write = |p: &std::path::Path, text: String| {
            std::fs::write(p, text).map_err(|e| format!("{}: {e}", p.display()))
        };
        write(
            &spans_path,
            format!(
                "{{\"clock\": \"us since the event-bus epoch\", \"spans\": [\n{}\n]}}\n",
                spans.join(",\n")
            ),
        )?;
        write(&events_path, Timeline::from_events(self.kept.clone()).to_jsonl())?;
        Ok(format!("{} {}", spans_path.display(), events_path.display()))
    }
}

/// The length of the union of `intervals`, clipped to `lo..hi`.
fn covered_us(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    covered + current.map_or(0, |(a, b)| b - a)
}

/// Median µs of `syntax::parse_program`, `semantics::check_program` and
/// `compiler::compile_program` on each query text, averaged over the mix.
fn front_end_us(texts: &[&str]) -> Result<[f64; 3], String> {
    const REPS: usize = 21;
    let mut sums = [0.0; 3];
    for text in texts {
        let mut samples = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..REPS {
            let t0 = Instant::now();
            let program =
                rumble_core::syntax::parse_program(black_box(text)).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            rumble_core::semantics::check_program(&program).map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            let compiled =
                rumble_core::compiler::compile_program(&program).map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            black_box(compiled);
            for (s, (a, b)) in samples.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3)]) {
                s.push((b - a).as_secs_f64() * 1e6);
            }
        }
        for (sum, s) in sums.iter_mut().zip(&samples) {
            *sum += median(s);
        }
    }
    Ok(sums.map(|s| s / texts.len().max(1) as f64))
}

/// Single-thread rates over a line-aligned prefix of the workload's text:
/// JSON Lines → items (ns per byte), and the item codec that carries items
/// across the item↔row boundary (ns per item, encode and decode).
fn item_rates(text: &str) -> Result<[f64; 3], String> {
    const PREFIX: usize = 4 << 20;
    const REPS: usize = 3;
    let prefix = match text.get(..PREFIX.min(text.len())) {
        Some(p) if p.len() < text.len() => &p[..=p.rfind('\n').unwrap_or(0)],
        Some(p) => p,
        None => text,
    };
    let mut parse = Vec::new();
    let mut items = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        items = black_box(items_from_json_lines(prefix).map_err(|e| e.to_string())?);
        parse.push(t.elapsed().as_nanos() as f64 / prefix.len().max(1) as f64);
    }
    let n = items.len().max(1) as f64;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        let buf = black_box(encode_items(&items));
        enc.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        black_box(decode_items(&buf).map_err(|e| e.to_string())?);
        dec.push(t.elapsed().as_nanos() as f64 / n);
    }
    Ok([median(&parse), median(&enc), median(&dec)])
}

struct LayerInputs<'a> {
    workload: Workload,
    tracer: &'a Tracer,
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
    put: Duration,
    front: [f64; 3],
    rates: [f64; 3],
    base: &'a LoopStats,
    traced: &'a LoopStats,
    rss: f64,
    calibration_ms: f64,
    scale: f64,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(x: &LayerInputs<'_>) -> HashMap<&'static str, f64> {
    let t = x.tracer;
    let n = t.queries.max(1) as f64;
    let delta = |f: fn(&MetricsSnapshot) -> u64| f(x.after).saturating_sub(f(x.before)) as f64;
    let per_query = |f: fn(&MetricsSnapshot) -> u64| delta(f) / n;
    let exec_wall_us: f64 = t.exec_us.iter().sum();
    let threads = sparklite::SparkliteConf::default().executors as f64;
    let mut v = HashMap::from([
        ("syntax.parse_us", x.front[0]),
        ("semantics.check_us", x.front[1]),
        ("compiler.compile_us", x.front[2]),
        ("api.exec_us", mean(&t.exec_us)),
        ("api.result_items", mean(&t.items)),
        ("api.driver_only_us", mean(&t.driver_only_us)),
        ("storage.put_us", x.put.as_secs_f64() * 1e6),
        ("storage.input_bytes", per_query(|m| m.input_bytes)),
        ("storage.input_records", per_query(|m| m.input_records)),
        ("storage.output_records", per_query(|m| m.output_records)),
        ("jsonlite.parse_ns_per_byte", x.rates[0]),
        ("cache.hits", per_query(|m| m.cache_hits)),
        ("cache.misses", per_query(|m| m.cache_misses)),
        (
            "cache.hit_ratio",
            ratio(delta(|m| m.cache_hits), delta(|m| m.cache_hits) + delta(|m| m.cache_misses)),
        ),
        ("cache.evictions", per_query(|m| m.cache_evictions)),
        ("cache.cached_bytes", x.after.cached_bytes as f64),
        ("item.encode_ns_per_item", x.rates[1]),
        ("item.decode_ns_per_item", x.rates[2]),
        ("executor.jobs", per_query(|m| m.jobs)),
        ("executor.stages", per_query(|m| m.stages)),
        ("executor.tasks", per_query(|m| m.tasks)),
        ("executor.task_busy_us", per_query(|m| m.task_busy_us)),
        ("executor.task_us_p50", percentile(&t.task_us, 50.0)),
        ("executor.task_us_p95", percentile(&t.task_us, 95.0)),
        ("executor.queue_wait_us_p50", percentile(&t.queue_us, 50.0)),
        ("executor.queue_wait_us_p95", percentile(&t.queue_us, 95.0)),
        ("executor.utilization", ratio(delta(|m| m.task_busy_us), exec_wall_us * threads)),
        ("executor.failed_tasks", per_query(|m| m.failed_tasks)),
        ("executor.retried_tasks", per_query(|m| m.retried_tasks)),
        ("shuffle.records", per_query(|m| m.shuffle_records)),
        ("shuffle.bytes", per_query(|m| m.shuffle_bytes)),
        ("dataframe.columnar_batches", per_query(|m| m.columnar_batches)),
        ("dataframe.columnar_rows", per_query(|m| m.columnar_rows)),
        (
            "dataframe.rows_per_batch",
            ratio(delta(|m| m.columnar_rows), delta(|m| m.columnar_batches)),
        ),
        ("dataframe.fused_pipelines", per_query(|m| m.fused_pipelines)),
        ("dataframe.agg_rows_in", per_query(|m| m.agg_rows_in)),
        ("dataframe.agg_groups_out", per_query(|m| m.agg_groups_out)),
        ("dataframe.agg_reduction", ratio(delta(|m| m.agg_groups_out), delta(|m| m.agg_rows_in))),
        ("dataframe.optimizer_rule_fires", per_query(|m| m.optimizer_rule_fires)),
        ("dist.blocks_pushed", per_query(|m| m.blocks_pushed)),
        ("dist.block_bytes_pushed", per_query(|m| m.block_bytes_pushed)),
        ("dist.blocks_fetched", per_query(|m| m.blocks_fetched)),
        ("dist.block_fetch_us_p50", percentile(&t.fetch_us, 50.0)),
        ("dist.block_fetch_us_p95", percentile(&t.fetch_us, 95.0)),
        ("dist.heartbeats", per_query(|m| m.heartbeats)),
        ("dist.events_lost", per_query(|m| m.events_lost)),
        ("events.trace_overhead", ratio(x.traced.queries_per_s(), x.base.queries_per_s())),
        ("memory.peak_rss_mb", x.rss),
        ("host.calibration_ms", x.calibration_ms),
    ]);
    for kind in Kind::ALL {
        let applies = x.workload.kinds().contains(&kind);
        v.insert(kind.latency_metric(), if applies { x.base.p50_ms(kind) * x.scale } else { 0.0 });
    }
    v
}

/// The zeros (and, for the distributed workload, the non-zeros) the
/// workload design predicts, checked on a traced run.
fn predictions(w: Workload, v: &HashMap<&str, f64>) -> Vec<(String, bool)> {
    let zero = |names: &[&str]| names.iter().all(|n| v.get(n) == Some(&0.0));
    let mut out = Vec::new();
    if w == Workload::RedditScan {
        out.push(("reddit-scan moves no shuffle bytes".to_string(), zero(&["shuffle.bytes"])));
        out.push(("reddit-scan reads no cache".to_string(), zero(&["cache.hits", "cache.misses"])));
    }
    if w == Workload::ConfusionWarm {
        out.push((
            "confusion-warm timed queries read no storage bytes".to_string(),
            zero(&["storage.input_bytes"]),
        ));
    }
    if w == Workload::ConfusionDist {
        let moved = ["dist.blocks_pushed", "dist.blocks_fetched"]
            .iter()
            .all(|n| v.get(n).is_some_and(|x| *x > 0.0));
        out.push(("confusion-dist pushes and fetches shuffle blocks".to_string(), moved));
    } else {
        let dist: Vec<&str> =
            PER_LAYER.iter().map(|d| d.name).filter(|n| n.starts_with("dist.")).collect();
        out.push((format!("{} runs no dist layer", w.name()), zero(&dist)));
    }
    out
}

/// Peak resident set of this process plus its child processes (the
/// executor processes of a distributed workload), MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let mut kb = vm_hwm_kb("self");
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let children =
                std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
            kb += children.split_whitespace().map(vm_hwm_kb).sum::<u64>();
        }
    }
    kb as f64 / 1024.0
}

/// Returns freed heap pages to the system, then resets this process's
/// `VmHWM` to its current RSS (`5` to `/proc/self/clear_refs`). Gives the
/// peak, MB, before and after.
fn reset_peak_rss() -> Result<(f64, f64), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and may be called at
        // any time.
        unsafe { malloc_trim(0) };
    }
    let before = vm_hwm_kb("self") as f64 / 1024.0;
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS (/proc/self/clear_refs): {e}"))?;
    Ok((before, vm_hwm_kb("self") as f64 / 1024.0))
}

fn vm_hwm_kb(pid: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_is_the_clipped_union() {
        assert_eq!(covered_us(&mut [], 0, 100), 0);
        assert_eq!(covered_us(&mut [(10, 20), (15, 30), (50, 60)], 0, 100), 30);
        assert_eq!(covered_us(&mut [(50, 60), (10, 20)], 15, 55), 10);
        assert_eq!(covered_us(&mut [(0, 200)], 10, 100), 90);
        assert_eq!(covered_us(&mut [(0, 5), (200, 300)], 10, 100), 0);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 1.0);
    }
}
