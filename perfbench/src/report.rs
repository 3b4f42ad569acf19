//! The metric tables and the result line.
//!
//! `BENCHMARK.json` declares the same names and units; a self-test keeps
//! the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced run): name, unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("rsm.sim_time_per_s", "1/s"),
    ("ndca.sim_time_per_s", "1/s"),
    ("pndca.sim_time_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("replicas_per_s", "1/s"),
];

/// Layers, named after the repository's modules.
pub const LAYERS: [&str; 9] = [
    "kernel", "ca", "dmc", "parallel", "shard", "batch", "core", "engine", "serve",
];

/// Per-layer metrics (traced run) besides `<layer>.self_ms`: name, unit.
/// The first seven are end-to-end figures too unsteady on a shared host to
/// carry a bound (see the README).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("parallel2.sim_time_per_s", "1/s"),
    ("shard2.sim_time_per_s", "1/s"),
    ("fskmc.sim_time_per_s", "1/s"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_tail_ms", "ms"),
    ("serve.hit_p50_us", "us"),
    ("serve.hit_tail_us", "us"),
    ("kernel.compile_us", "us"),
    ("kernel.rebuild_ns_per_site", "ns"),
    ("ca.ndca_ns_per_trial", "ns"),
    ("ca.pndca_ns_per_trial", "ns"),
    ("ca.exec_ratio", "ratio"),
    ("fskmc.ns_per_event", "ns"),
    ("fskmc.events_per_window", "count"),
    ("dmc.rsm_ns_per_trial", "ns"),
    ("parallel.speedup_2v1", "ratio"),
    ("parallel.overhead_vs_pndca", "ratio"),
    ("shard.speedup_2v1", "ratio"),
    ("shard.halo_msgs_per_step", "count"),
    ("shard.halo_bytes_per_step", "B"),
    ("shard.boundary_frac", "ratio"),
    ("batch.ns_per_replica_trial", "ns"),
    ("core.session_overhead", "ratio"),
    ("engine.overhead", "ratio"),
    ("engine.block_share", "ratio"),
    ("engine.ckpt_bytes_per_job", "B"),
    ("serve.ack_us", "us"),
    ("serve.cold_compute_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.polls_per_cold", "count"),
    ("serve.result_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.shed_429", "count"),
    ("serve.metrics_bytes", "B"),
    ("trace.overhead_ms", "ms"),
    ("host.ref_ms", "ms"),
];

/// Every metric the run reports in the given mode, with units.
pub fn expected(traced: bool) -> Vec<(String, &'static str)> {
    if !traced {
        return END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    }
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    out.extend(LAYERS.iter().map(|l| (format!("{l}.self_ms"), "ms")));
    out
}

/// Whether `name` fits the metric-name charset: a letter or digit first,
/// then up to 63 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-')
}

/// Format a finite number as JSON with all its digits.
fn num(v: f64) -> String {
    format!("{v:?}")
}

/// The result line: `correct`, `attempted`, `failed` and the mode's
/// metrics. Returns the line and the names that were missing or not finite.
pub fn result_line(
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, f64>,
) -> (String, Vec<String>) {
    let mut missing = Vec::new();
    let mut body = String::new();
    for (name, unit) in expected(traced) {
        match metrics.get(&name) {
            Some(v) if v.is_finite() && valid_name(&name) => {
                if !body.is_empty() {
                    body.push_str(", ");
                }
                let _ = write!(
                    body,
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*v)
                );
            }
            _ => missing.push(name),
        }
    }
    let correct = failed == 0 && missing.is_empty();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
    (line, missing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Workload;
    use psr_serve::json::{self, Value};

    fn benchmark_json() -> Value {
        let text = include_str!("../../BENCHMARK.json");
        json::parse(text).expect("BENCHMARK.json parses")
    }

    fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get(key) {
            Some(Value::Arr(a)) => a,
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
    }

    #[test]
    fn every_metric_name_fits_the_charset() {
        for traced in [false, true] {
            for (name, unit) in expected(traced) {
                assert!(valid_name(&name), "{name}");
                assert!(
                    !unit.is_empty()
                        && unit.len() <= 16
                        && unit
                            .bytes()
                            .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)),
                    "{unit}"
                );
            }
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let b = benchmark_json();
        let workloads: Vec<&str> = list(&b, "workloads")
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let declared: Vec<(String, String)> = list(&b, key)
                .iter()
                .map(|m| (str_of(m, "name").to_owned(), str_of(m, "unit").to_owned()))
                .collect();
            let ours: Vec<(String, String)> = expected(traced)
                .into_iter()
                .map(|(n, u)| (n, u.to_owned()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let setup = list(&b, "end_to_end")
            .iter()
            .find(|m| str_of(m, "name") == "setup_s")
            .expect("setup_s declared");
        assert_eq!(str_of(setup, "better"), "lower");
        assert_eq!(str_of(setup, "unit"), "s");
        // Names are used once across both lists.
        let mut all: Vec<String> = expected(false)
            .into_iter()
            .chain(expected(true))
            .map(|(n, _)| n)
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn result_line_parses_and_flags_missing_metrics() {
        let mut m: BTreeMap<String, f64> = expected(false)
            .into_iter()
            .map(|(n, _)| (n, 1.25))
            .collect();
        let (line, missing) = result_line(false, 10, 0, &m);
        assert!(missing.is_empty());
        let v = json::parse(&line).expect("result line parses");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(10));
        m.remove("replicas_per_s");
        m.insert("job_p50_ms".to_owned(), f64::NAN);
        let (line, missing) = result_line(false, 10, 0, &m);
        assert_eq!(
            missing,
            vec!["job_p50_ms".to_owned(), "replicas_per_s".to_owned()]
        );
        let v = json::parse(&line).expect("result line parses");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
    }
}
