//! The benchmark's workloads: which generated dataset each one stages,
//! which JSONiq queries make up its mix, and how the engine is configured.

use rumble_datagen::{confusion, heterogeneous, reddit};
use sparklite::SparkliteConf;

/// One named workload. See the README beside this crate for why each one
/// was chosen and which layers it stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 11 filter / group / sort mix over a source that the engine
    /// auto-persists, so parsing happens once, during set-up.
    ConfusionWarm,
    /// The Fig. 14/15 needle filter with auto-persist off: every query reads
    /// and parses the whole input.
    RedditScan,
    /// §3.4 cleaning written back as JSON Lines, plus a group-by on a
    /// mixed-type, high-cardinality field.
    MessyClean,
    /// The `ConfusionWarm` mix on two executor processes.
    ConfusionDist,
}

/// One query of a workload's mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Filter,
    Group,
    Sort,
    Needle,
    Clean,
    MixedGroup,
}

/// Where each workload's dataset is staged.
pub const CONFUSION_PATH: &str = "hdfs:///confusion.json";
pub const REDDIT_PATH: &str = "hdfs:///reddit.json";
pub const MESSY_PATH: &str = "hdfs:///messy.json";
/// Where the cleaning query writes its output.
pub const CLEAN_OUT_PATH: &str = "hdfs:///clean.json";

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ConfusionWarm,
        Workload::RedditScan,
        Workload::MessyClean,
        Workload::ConfusionDist,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ConfusionWarm => "confusion-warm",
            Workload::RedditScan => "reddit-scan",
            Workload::MessyClean => "messy-clean",
            Workload::ConfusionDist => "confusion-dist",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The queries of one round of the mix (the order is shuffled per round).
    pub fn kinds(self) -> &'static [Kind] {
        match self {
            Workload::ConfusionWarm | Workload::ConfusionDist => {
                &[Kind::Filter, Kind::Group, Kind::Sort]
            }
            Workload::RedditScan => &[Kind::Needle],
            Workload::MessyClean => &[Kind::Clean, Kind::MixedGroup],
        }
    }

    /// Objects in the dataset of a full-size run. Sized so that one run's
    /// set-ups, reference answers and timed loop fit in about half a minute
    /// on two cores, while each round of the mix (at most about 1.5 s)
    /// repeats a dozen times or more in a run.
    pub fn default_objects(self) -> usize {
        match self {
            Workload::ConfusionWarm | Workload::ConfusionDist => 50_000,
            Workload::RedditScan => 150_000,
            // Two input blocks, so both executor threads clean.
            Workload::MessyClean => 60_000,
        }
    }

    /// The dataset's JSON Lines text, a pure function of `seed`.
    pub fn generate(self, objects: usize, seed: u64) -> String {
        match self {
            Workload::ConfusionWarm | Workload::ConfusionDist => confusion::generate(objects, seed),
            Workload::RedditScan => reddit::generate(objects, seed),
            Workload::MessyClean => heterogeneous::generate(objects, seed),
        }
    }

    pub fn path(self) -> &'static str {
        match self {
            Workload::ConfusionWarm | Workload::ConfusionDist => CONFUSION_PATH,
            Workload::RedditScan => REDDIT_PATH,
            Workload::MessyClean => MESSY_PATH,
        }
    }

    /// The engine configuration: the defaults (executor threads = cores),
    /// two executor processes for `ConfusionDist`, and the event collector
    /// when `traced`. `executor_cmd` launches an executor process (the
    /// engine appends `--connect`/`--worker-id`); empty re-runs the current
    /// binary with `--executor`.
    pub fn conf(self, traced: bool, executor_cmd: &[String]) -> SparkliteConf {
        let conf = SparkliteConf::default().with_event_collection(traced);
        match self {
            Workload::ConfusionDist => conf.with_dist_workers(2, executor_cmd.to_vec()),
            _ => conf,
        }
    }

    /// Whether the engine keeps its default auto-persist of literal-path
    /// sources. `RedditScan` turns it off so each query parses its input.
    pub fn auto_persist(self) -> bool {
        self != Workload::RedditScan
    }
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Filter => "filter",
            Kind::Group => "group",
            Kind::Sort => "sort",
            Kind::Needle => "needle",
            Kind::Clean => "clean",
            Kind::MixedGroup => "mixed_group",
        }
    }

    /// The per-layer metric that carries this query's median latency.
    pub fn latency_metric(self) -> &'static str {
        match self {
            Kind::Filter => "latency.filter_ms_p50",
            Kind::Group => "latency.group_ms_p50",
            Kind::Sort => "latency.sort_ms_p50",
            Kind::Needle => "latency.needle_ms_p50",
            Kind::Clean => "latency.clean_ms_p50",
            Kind::MixedGroup => "latency.mixed_group_ms_p50",
        }
    }

    pub const ALL: [Kind; 6] =
        [Kind::Filter, Kind::Group, Kind::Sort, Kind::Needle, Kind::Clean, Kind::MixedGroup];

    /// The JSONiq text the engine receives.
    pub fn query(self) -> String {
        match self {
            Kind::Filter => format!(
                "for $i in json-file(\"{CONFUSION_PATH}\") where $i.guess = $i.target return $i"
            ),
            Kind::Group => format!(
                "for $i in json-file(\"{CONFUSION_PATH}\") \
                 group by $c := $i.country, $t := $i.target \
                 return {{ c: $c, t: $t, n: count($i) }}"
            ),
            Kind::Sort => format!(
                "for $i in json-file(\"{CONFUSION_PATH}\") \
                 where $i.guess = $i.target \
                 order by $i.target ascending, $i.country descending, $i.date descending \
                 return $i.sample"
            ),
            Kind::Needle => format!(
                "for $c in json-file(\"{REDDIT_PATH}\") \
                 where contains($c.body, \"{}\") \
                 return $c",
                reddit::NEEDLE
            ),
            Kind::Clean => format!(
                r#"for $r in json-file("{MESSY_PATH}")
                let $id := if ($r.id instance of integer) then $r.id
                           else if ($r.id instance of string) then ($r.id cast as integer)
                           else ()
                where exists($id)
                let $name := ($r.name[], $r.name)[1]
                let $value := if ($r.value instance of string)
                              then ($r.value cast as decimal)
                              else if ($r.value instance of null) then ()
                              else $r.value
                let $tags := if ($r.tags instance of array) then $r.tags[] else $r.tags
                return {{
                    "id": $id,
                    "name": ($name, "anonymous")[1],
                    "value": ($value, 0)[1],
                    "tags": [ distinct-values($tags) ],
                    "has_nested": exists($r.nested)
                }}"#
            ),
            Kind::MixedGroup => format!(
                "for $r in json-file(\"{MESSY_PATH}\") \
                 group by $v := $r.value \
                 return {{ \"value\": $v, \"count\": count($r) }}"
            ),
        }
    }
}
