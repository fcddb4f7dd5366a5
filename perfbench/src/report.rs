//! The metric catalogue and the one-line JSON result the benchmark prints
//! last. `BENCHMARK.json` at the repository root lists the same metrics;
//! a test keeps the two in step.

/// Whether a larger or a smaller value is the improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Printed by every untraced run, on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", Lower),
    def("queries_per_s", "1/s", Higher),
    def("query_ms_p50_geomean", "ms", Lower),
    def("peak_rss_mb", "MB", Lower),
];

/// Printed by every traced run, on every workload; a metric of a layer the
/// workload does not reach reads 0. Per query unless the name says a rate.
pub const PER_LAYER: [MetricDef; 55] = [
    def("syntax.parse_us", "us", Lower),
    def("semantics.check_us", "us", Lower),
    def("compiler.compile_us", "us", Lower),
    def("api.exec_us", "us", Lower),
    def("api.result_items", "count", Lower),
    def("api.driver_only_us", "us", Lower),
    def("storage.put_us", "us", Lower),
    def("storage.input_bytes", "B", Lower),
    def("storage.input_records", "count", Lower),
    def("storage.output_records", "count", Lower),
    def("jsonlite.parse_ns_per_byte", "ns/B", Lower),
    def("cache.hits", "count", Higher),
    def("cache.misses", "count", Lower),
    def("cache.hit_ratio", "ratio", Higher),
    def("cache.evictions", "count", Lower),
    def("cache.cached_bytes", "B", Lower),
    def("item.encode_ns_per_item", "ns", Lower),
    def("item.decode_ns_per_item", "ns", Lower),
    def("executor.jobs", "count", Lower),
    def("executor.stages", "count", Lower),
    def("executor.tasks", "count", Lower),
    def("executor.task_busy_us", "us", Lower),
    def("executor.task_us_p50", "us", Lower),
    def("executor.task_us_p95", "us", Lower),
    def("executor.queue_wait_us_p50", "us", Lower),
    def("executor.queue_wait_us_p95", "us", Lower),
    def("executor.utilization", "ratio", Higher),
    def("executor.failed_tasks", "count", Lower),
    def("executor.retried_tasks", "count", Lower),
    def("shuffle.records", "count", Lower),
    def("shuffle.bytes", "B", Lower),
    def("dataframe.columnar_batches", "count", Lower),
    def("dataframe.columnar_rows", "count", Lower),
    def("dataframe.rows_per_batch", "count", Higher),
    def("dataframe.fused_pipelines", "count", Higher),
    def("dataframe.agg_rows_in", "count", Lower),
    def("dataframe.agg_groups_out", "count", Lower),
    def("dataframe.agg_reduction", "ratio", Lower),
    def("dataframe.optimizer_rule_fires", "count", Higher),
    def("dist.blocks_pushed", "count", Lower),
    def("dist.block_bytes_pushed", "B", Lower),
    def("dist.blocks_fetched", "count", Lower),
    def("dist.block_fetch_us_p50", "us", Lower),
    def("dist.block_fetch_us_p95", "us", Lower),
    def("dist.heartbeats", "count", Lower),
    def("dist.events_lost", "count", Lower),
    def("events.trace_overhead", "ratio", Higher),
    def("memory.peak_rss_mb", "MB", Lower),
    def("host.calibration_ms", "ms", Lower),
    def("latency.filter_ms_p50", "ms", Lower),
    def("latency.group_ms_p50", "ms", Lower),
    def("latency.sort_ms_p50", "ms", Lower),
    def("latency.needle_ms_p50", "ms", Lower),
    def("latency.clean_ms_p50", "ms", Lower),
    def("latency.mixed_group_ms_p50", "ms", Lower),
];

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// with each metric as `{"value": v, "unit": u}` in catalogue order.
/// Non-finite values print as 0 so the line stays valid JSON.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonlite::Value;

    /// A metric name: a letter or digit, then at most 63 letters, digits,
    /// `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    #[test]
    fn every_name_and_unit_is_in_the_charset_and_used_once() {
        let all: Vec<MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn charset_rules() {
        assert!(valid_name("a"));
        assert!(valid_name("9lives"));
        assert!(valid_name("cache.hit_ratio-2"));
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(valid_unit("ns/B"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let metrics: Vec<(MetricDef, f64)> =
            END_TO_END.iter().enumerate().map(|(i, d)| (*d, 0.5 + i as f64)).collect();
        let line = result_line(true, 12, 0, &metrics);
        assert!(!line.contains('\n'));
        let v = jsonlite::parse_value(&line).expect("the result line is JSON");
        let Value::Object(pairs) = &v else { panic!("not an object: {line}") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_i64), Some(12));
        assert_eq!(v.get("failed").and_then(Value::as_i64), Some(0));
        let Some(Value::Object(ms)) = v.get("metrics") else { panic!("metrics: {line}") };
        assert_eq!(ms.len(), END_TO_END.len());
        for ((name, m), d) in ms.iter().zip(END_TO_END.iter()) {
            assert_eq!(name, d.name);
            let Value::Object(fields) = m else { panic!("{name} is not an object") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
            assert!(matches!(
                m.get("value"),
                Some(Value::Double(_) | Value::Decimal(_) | Value::Int(_))
            ));
        }
        // Non-finite values never reach the line.
        let line = result_line(false, 1, 1, &[(END_TO_END[0], f64::NAN)]);
        assert!(jsonlite::parse_value(&line).is_ok(), "{line}");
    }

    /// `BENCHMARK.json` at the repository root names exactly this
    /// catalogue, with the same units and directions.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let v = jsonlite::parse_value(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = v.get(key).and_then(Value::as_array).expect("metric list");
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (m, d) in listed.iter().zip(catalogue) {
                assert_eq!(m.get("name").and_then(Value::as_str), Some(d.name), "{key}");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit), "{}", d.name);
                let better = if d.better == Higher { "higher" } else { "lower" };
                assert_eq!(m.get("better").and_then(Value::as_str), Some(better), "{}", d.name);
            }
        }
        let workloads = v.get("workloads").and_then(Value::as_array).expect("workloads");
        let names: Vec<&str> =
            workloads.iter().filter_map(|w| w.get("name").and_then(Value::as_str)).collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
