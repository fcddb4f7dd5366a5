//! Independent answers every query result is checked against, computed
//! from the generated text without the engine under test:
//!
//! - the Fig. 11 queries: the hand-tuned byte scanner of `rumble-baselines`;
//! - the needle filter: a substring count over the raw text;
//! - the mixed-type group-by: the naive tree-walking interpreter of
//!   `rumble-baselines`, with its memory budget lifted;
//! - the cleaning query: [`clean_text`], a hand-written cleaner over
//!   `jsonlite::parse_value` (the naive interpreter rejects `instance of`).

use crate::workload::{Kind, Workload, CLEAN_OUT_PATH};
use jsonlite::Value;
use rumble_baselines::{handtuned, naive, ConfusionQuery, QueryOutput};
use rumble_core::item::{Dec, Item};
use sparklite::{SparkliteConf, SparkliteContext};
use std::collections::HashMap;

/// A query's result as the benchmark reads it back from the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Count(u64),
    /// `(country, target, count)`, sorted.
    Groups(Vec<(String, String, u64)>),
    /// The `sample` ids of the first rows, in order.
    Top(Vec<String>),
    /// Serialized result items, sorted.
    Lines(Vec<String>),
    /// Records written to [`CLEAN_OUT_PATH`].
    Written(u64),
}

/// The sort key `(target, country, date)` of a correct-guess row.
type SortKey = (String, String, String);

enum Expected {
    Count(u64),
    Groups(Vec<(String, String, u64)>),
    /// The hand-tuned top rows' sort keys, plus the key of every row the
    /// filter keeps: rows that tie on the key may come back in any order.
    Top {
        keys: Vec<SortKey>,
        index: HashMap<String, SortKey>,
    },
    Lines(Vec<String>),
    Cleaned {
        records: u64,
        text: String,
    },
}

/// The expected answer of every query of one workload on one dataset.
pub struct Oracle {
    expected: Vec<(Kind, Expected)>,
}

impl Oracle {
    pub fn build(workload: Workload, text: &str) -> Result<Oracle, String> {
        // A throwaway single-thread context holds the text for the
        // baselines, which read it through the simulated HDFS.
        let sc = SparkliteContext::new(SparkliteConf::default().with_executors(1));
        let path = workload.path();
        rumble_datagen::put_dataset(&sc, path, text).map_err(|e| e.to_string())?;
        let handtuned = |q| handtuned::run(&sc, path, q).map_err(|e| e.to_string());
        let mut expected = Vec::new();
        for &kind in workload.kinds() {
            let e = match kind {
                Kind::Filter => match handtuned(ConfusionQuery::Filter)? {
                    QueryOutput::Count(n) => Expected::Count(n),
                    other => return Err(format!("hand-tuned filter returned {other:?}")),
                },
                Kind::Group => match handtuned(ConfusionQuery::Group)?.normalized() {
                    QueryOutput::Groups(g) => Expected::Groups(g),
                    other => return Err(format!("hand-tuned group returned {other:?}")),
                },
                Kind::Sort => match handtuned(ConfusionQuery::Sort)? {
                    QueryOutput::TopSamples(samples) => {
                        let index = sort_key_index(text)?;
                        let keys = samples
                            .iter()
                            .map(|s| index.get(s).cloned().ok_or(format!("unknown sample {s}")))
                            .collect::<Result<_, _>>()?;
                        Expected::Top { keys, index }
                    }
                    other => return Err(format!("hand-tuned sort returned {other:?}")),
                },
                Kind::Needle => {
                    Expected::Count(text.matches(rumble_datagen::reddit::NEEDLE).count() as u64)
                }
                Kind::Clean => {
                    let (records, text) = clean_text(text)?;
                    Expected::Cleaned { records, text }
                }
                Kind::MixedGroup => {
                    let cfg = naive::NaiveConfig { item_budget: usize::MAX, ..naive::zorba_like() };
                    let items = naive::NaiveEngine::new(cfg, &sc)
                        .run(&kind.query())
                        .map_err(|e| format!("naive engine: {e}"))?;
                    Expected::Lines(sorted_lines(&items))
                }
            };
            expected.push((kind, e));
        }
        Ok(Oracle { expected })
    }

    /// Checks one answer; `sc` is the engine's context, for reading back
    /// written output.
    pub fn check(&self, kind: Kind, got: &Answer, sc: &SparkliteContext) -> Result<(), String> {
        let expected = self
            .expected
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, e)| e)
            .ok_or(format!("no reference for {}", kind.name()))?;
        let ok = match (expected, got) {
            (Expected::Count(want), Answer::Count(n)) => want == n,
            (Expected::Groups(want), Answer::Groups(g)) => want == g,
            (Expected::Top { keys, index }, Answer::Top(samples)) => {
                let mut seen = std::collections::HashSet::new();
                samples.len() == keys.len()
                    && samples.iter().all(|s| seen.insert(s))
                    && samples.iter().zip(keys).all(|(s, k)| index.get(s) == Some(k))
            }
            (Expected::Lines(want), Answer::Lines(lines)) => want == lines,
            (Expected::Cleaned { records, text }, Answer::Written(n)) => {
                let key = CLEAN_OUT_PATH.trim_start_matches("hdfs://");
                let written = sc.hdfs().read_to_string(key).map_err(|e| e.to_string())?;
                records == n && *text == written
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{} returned a wrong answer: {}", kind.name(), summarize(got)))
        }
    }
}

fn summarize(a: &Answer) -> String {
    match a {
        Answer::Count(n) | Answer::Written(n) => format!("{n}"),
        Answer::Groups(g) => format!("{} groups", g.len()),
        Answer::Top(t) => format!("{t:?}"),
        Answer::Lines(l) => format!("{} items", l.len()),
    }
}

/// Serializes items and sorts the lines, so outputs whose order JSONiq
/// leaves open compare equal.
pub fn sorted_lines(items: &[Item]) -> Vec<String> {
    let mut lines: Vec<String> = items.iter().map(Item::serialize).collect();
    lines.sort();
    lines
}

/// Maps the `sample` id of every row with `guess = target` to its sort key.
fn sort_key_index(text: &str) -> Result<HashMap<String, SortKey>, String> {
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
    let mut index = HashMap::new();
    for (_, line) in jsonlite::JsonLines::new(text) {
        let v = jsonlite::parse_value(line).map_err(|e| e.to_string())?;
        if v.get("guess") == v.get("target") {
            if let (Some(s), Some(t), Some(c), Some(d)) =
                (field(&v, "sample"), field(&v, "target"), field(&v, "country"), field(&v, "date"))
            {
                index.insert(s, (t, c, d));
            }
        }
    }
    Ok(index)
}

/// Converts a parsed JSON value to the item the engine's data model gives
/// it: integers, decimals (numbers with a fraction) and doubles stay
/// distinct.
fn to_item(v: &Value) -> Result<Item, String> {
    Ok(match v {
        Value::Null => Item::Null,
        Value::Bool(b) => Item::Boolean(*b),
        Value::Int(i) => Item::Integer(*i),
        Value::Decimal(raw) => Item::Decimal(parse_dec(raw)?),
        Value::Double(d) => Item::Double(*d),
        Value::Str(s) => Item::str(s),
        Value::Array(a) => Item::array(a.iter().map(to_item).collect::<Result<_, _>>()?),
        Value::Object(pairs) => Item::object(
            pairs
                .iter()
                .map(|(k, v)| Ok((std::sync::Arc::from(k.as_str()), to_item(v)?)))
                .collect::<Result<_, String>>()?,
        ),
    })
}

fn parse_dec(s: &str) -> Result<Dec, String> {
    s.trim().parse().map_err(|()| format!("not a decimal: {s:?}"))
}

/// The §3.4 cleaning query, by hand: one output record per input record
/// whose id is an integer or an integer string, with the name unwrapped
/// from a one-element array (or "anonymous"), the value cast from a string
/// (or 0 when null or absent), the tags flattened and de-duplicated in
/// first-seen order, and a flag for the nested object. Returns the record
/// count and the JSON Lines text.
pub fn clean_text(text: &str) -> Result<(u64, String), String> {
    let mut out = String::with_capacity(text.len());
    let mut records = 0u64;
    for (_, line) in jsonlite::JsonLines::new(text) {
        let v = jsonlite::parse_value(line).map_err(|e| e.to_string())?;
        if let Some(record) = clean_record(&v)? {
            out.push_str(&record.serialize());
            out.push('\n');
            records += 1;
        }
    }
    Ok((records, out))
}

fn clean_record(v: &Value) -> Result<Option<Item>, String> {
    let id = match v.get("id") {
        Some(Value::Int(i)) => *i,
        Some(Value::Str(s)) => s.trim().parse::<i64>().map_err(|e| format!("id {s:?}: {e}"))?,
        _ => return Ok(None),
    };
    let name = match v.get("name") {
        None => Item::str("anonymous"),
        Some(Value::Array(a)) if !a.is_empty() => to_item(&a[0])?,
        Some(other) => to_item(other)?,
    };
    let value = match v.get("value") {
        Some(Value::Str(s)) => Item::Decimal(parse_dec(s)?),
        None | Some(Value::Null) => Item::Integer(0),
        Some(other) => to_item(other)?,
    };
    let tags: Vec<Item> = match v.get("tags") {
        None => Vec::new(),
        Some(Value::Array(a)) => a.iter().map(to_item).collect::<Result<_, _>>()?,
        Some(other) => vec![to_item(other)?],
    };
    let mut distinct: Vec<Item> = Vec::new();
    for t in tags {
        let s = t.as_str().ok_or("the generator only emits string tags")?;
        if !distinct.iter().any(|d| d.as_str() == Some(s)) {
            distinct.push(t);
        }
    }
    Ok(Some(Item::object_from(vec![
        ("id", Item::Integer(id)),
        ("name", name),
        ("value", value),
        ("tags", Item::array(distinct)),
        ("has_nested", Item::Boolean(v.get("nested").is_some())),
    ])))
}
