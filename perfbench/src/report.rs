//! The metric registry and the one-line JSON result.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! lists; `tests::registry_matches_benchmark_json` keeps the two equal.

use std::collections::BTreeMap;

/// Whether a smaller or a larger value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One named metric with its unit.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the check against `BENCHMARK.json`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    lower("job_s", "s"),
    lower("cpu_s", "s"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// Single layers; measured in the separate traced run.
pub const PER_LAYER: &[MetricDef] = &[
    lower("apps.map_s", "s"),
    lower("partition.s", "s"),
    lower("combine.s", "s"),
    lower("combine.out_per_in", "ratio"),
    lower("store.absorb_s", "s"),
    lower("store.finish_s", "s"),
    lower("store.peak_entries", "count"),
    lower("store.spill_files", "count"),
    lower("store.spill_bytes", "bytes"),
    lower("chain.handoff_records", "count"),
    lower("chain.first_handoff_s", "s"),
    lower("chain.stage1_finish_s", "s"),
    lower("local.map_task_s", "s"),
    lower("local.reduce_task_s", "s"),
    lower("local.overhead_s", "s"),
    lower("local.critical_path_s", "s"),
    lower("shuffle.batches", "count"),
    lower("shuffle.records", "count"),
    lower("svc_p50_ms", "ms"),
    lower("svc_p99_ms", "ms"),
    lower("svc_p99_ms_busy", "ms"),
    higher("svc_max_jobs_s", "1/s"),
    lower("service.submit_us_p99", "us"),
    lower("service.queue_wait_ms_p99", "ms"),
    lower("service.run_ms_p50", "ms"),
    lower("service.rejected", "count"),
    lower("service.backlog_max", "count"),
    lower("pool.peak_threads", "count"),
    higher("cache.hit_frac", "ratio"),
    higher("cache.hit_bytes", "bytes"),
    lower("cache.evict_count", "count"),
    lower("cache.hit_job_ms", "ms"),
    lower("cache.miss_job_ms", "ms"),
    lower("cluster.host_s_single", "s"),
    lower("cluster.host_s_chain", "s"),
    lower("cluster.host_s_service", "s"),
    lower("cluster.trace_events", "count"),
    lower("cluster.sim_completion_s", "s"),
    lower("cluster.sim_completion_s_chain", "s"),
    lower("cluster.sim_completion_s_service", "s"),
    lower("trace.overhead_frac", "ratio"),
    lower("trace.events", "count"),
    lower("gen.s", "s"),
    lower("gen.lag_ms_p99", "ms"),
];

/// What one run measured, before it is printed.
pub struct Outcome {
    /// Every output matched its reference.
    pub correct: bool,
    /// Jobs (or simulations) attempted in the measured part of the run.
    pub attempted: u64,
    /// Of those, jobs that errored, were rejected at admission, or
    /// missed the latency limit.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Nothing attempted, no mismatch seen yet.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }
}

/// Renders the result line for `defs`. A metric the workload did not
/// measure is an error for the end-to-end set; for the per-layer set it
/// reads 0, and its name is returned so the caller can say why.
pub fn render(
    outcome: &Outcome,
    defs: &[MetricDef],
    missing_is_error: bool,
) -> Result<(String, Vec<&'static str>), String> {
    let mut missing = Vec::new();
    let mut parts = Vec::new();
    for d in defs {
        let value = match outcome.values.get(d.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {} is not finite: {v}", d.name)),
            None if missing_is_error => return Err(format!("metric {} was not measured", d.name)),
            None => {
                missing.push(d.name);
                0.0
            }
        };
        parts.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(value),
            d.unit
        ));
    }
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        parts.join(", ")
    );
    Ok((line, missing))
}

/// The result line of a run whose outputs did not match: no metrics.
pub fn render_incorrect(attempted: u64, failed: u64) -> String {
    format!(
        "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
    )
}

/// A finite f64 as JSON, every digit kept (Rust's shortest round-trip
/// form, with a trailing `.0` dropped for whole numbers).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    s.strip_suffix(".0").map(str::to_string).unwrap_or(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` in a section of BENCHMARK.json, in order.
    fn names_in(section: &str) -> Vec<String> {
        section
            .split("\"name\"")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let e2e = &json[json.find("\"end_to_end\"").unwrap()..json.find("\"per_layer\"").unwrap()];
        let layer = &json[json.find("\"per_layer\"").unwrap()..];
        let want_e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        let want_layer: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names_in(e2e), want_e2e);
        assert_eq!(names_in(layer), want_layer);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(12.0), "12");
        assert_eq!(json_number(0.123456789012), "0.123456789012");
    }

    #[test]
    fn missing_layer_metrics_read_zero_and_are_named() {
        let mut o = Outcome::new();
        o.attempted = 1;
        o.set("gen.s", 0.5);
        let (line, missing) = render(&o, PER_LAYER, false).unwrap();
        assert!(line.contains("\"gen.s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(missing.len(), PER_LAYER.len() - 1);
        assert!(render(&o, END_TO_END, true).is_err());
    }
}
