//! The benchmark's result: named metrics with units and sample counts,
//! the correctness gate, and the two renderings — a human table on
//! stderr and the one-line JSON object on stdout.

use crate::stats::{median, percentile, samples_beyond, tail_percentile};
use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload with tracing off. The
/// names and units must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics, printed by every workload with tracing on. A
/// layer a workload never calls reports 0. Names and units must match
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("qsim.events_per_s", "1/s"),
    ("qsim.sim_ms", "ms"),
    ("datagen.sample_ms", "ms"),
    ("serde_json.parse_ms.dataset", "ms"),
    ("serde_json.parse_mb_per_s.dataset", "MB/s"),
    ("serde_json.write_ms.dataset", "ms"),
    ("serde_json.parse_ms.model", "ms"),
    ("serde_json.parse_mb_per_s.model", "MB/s"),
    ("serde_json.write_ms.model", "ms"),
    ("core.graph_build_us", "us"),
    ("core.predict_ms", "ms"),
    ("core.predict_batch_ms_per_graph", "ms"),
    ("core.batch_fallback_share", "share"),
    ("neural.forward_self_ms.seq", "ms"),
    ("neural.backward_self_ms.seq", "ms"),
    ("neural.epoch_s.seq", "s"),
    ("neural.forward_self_ms.f32", "ms"),
    ("neural.backward_self_ms.f32", "ms"),
    ("neural.epoch_s.f32", "s"),
    ("placement.eval_share", "share"),
    ("placement.driver_self_ms", "ms"),
    ("placement.evals", "count"),
    ("placement.accept_ratio", "share"),
    ("serve.server_ms_mean", "ms"),
    ("serve.queue_wait_ms_mean", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.handle_ms.place", "ms"),
    ("serve.handle_ms.fault", "ms"),
    ("serve.fault_p50_ms", "ms"),
    ("serve.slo_qps", "1/s"),
    ("supervisor.hedge_win_ratio", "share"),
    ("supervisor.reroutes", "count"),
    ("pool.setup_s", "s"),
    ("pool.p50_ms", "ms"),
    ("pool.tail_ms", "ms"),
    ("pool.serve.handle_ms.place", "ms"),
    ("pool.serve.fault_p50_ms", "ms"),
    ("pool.ckpt.writes_per_answer", "count"),
    ("pool.ckpt.bytes_per_answer", "B"),
    ("ckpt.writes_per_answer", "count"),
    ("ckpt.bytes_per_answer", "B"),
    ("ckpt.save_ms", "ms"),
    ("stage.datagen_samples_per_s", "1/s"),
    ("stage.train_seq_samples_per_s", "1/s"),
    ("stage.train_f32_samples_per_s", "1/s"),
    ("stage.evaluate_s", "s"),
    ("stage.trained_tput_mape", "share"),
    ("stage.search_sim_evals_per_s", "1/s"),
    ("stage.search_gnn_evals_per_s", "1/s"),
    ("stage.search_gnn_k8_evals_per_s", "1/s"),
    ("stage.search_loss_prob", "share"),
    ("bench.loadgen_lag_ms", "ms"),
    ("bench.unattributed_share", "share"),
    ("bench.trace_overhead_share", "share"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (a key of [`END_TO_END`] or [`PER_LAYER`], or a
    /// report-only name).
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Measured metrics, in recording order.
    pub metrics: Vec<Metric>,
    /// Units of work attempted (rounds or requests).
    pub attempted: u64,
    /// Units of work that failed: rejected, unanswered or check-failing.
    pub failed: u64,
    /// Correctness checks that failed, one line each.
    pub check_failures: Vec<String>,
    /// Correctness checks run.
    pub checks_run: u64,
    /// Free-form lines for the human report (percentile choices etc.).
    pub notes: Vec<String>,
}

impl RunReport {
    /// Record a metric.
    pub fn put(&mut self, name: &str, unit: &str, value: f64, samples: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
        });
    }

    /// Look a recorded metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Fold in the report of a nested run: its work counts, checks and
    /// notes, and its metrics, each renamed with `prefix` unless `keep`
    /// names it.
    pub fn absorb(&mut self, nested: RunReport, prefix: &str, keep: &[&str]) {
        self.attempted += nested.attempted;
        self.failed += nested.failed;
        self.checks_run += nested.checks_run;
        self.check_failures.extend(nested.check_failures);
        let label = prefix.trim_end_matches('.');
        self.notes
            .extend(nested.notes.into_iter().map(|n| format!("({label}) {n}")));
        for m in nested.metrics {
            let name = if keep.contains(&m.name.as_str()) {
                m.name
            } else {
                format!("{prefix}{}", m.name)
            };
            self.put(&name, &m.unit, m.value, m.samples);
        }
    }

    /// Record one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks_run += 1;
        if !ok {
            let line = what();
            eprintln!("perfbench: CHECK FAILED: {line}");
            self.check_failures.push(line);
        }
    }

    /// Record `p50_ms` and `tail_ms` of `latencies_ms` at the
    /// workload's fixed tail percentile, noting how many samples lie
    /// beyond it and which percentile the at-least-ten-beyond rule picks
    /// for this count.
    pub fn put_latency(&mut self, what: &str, latencies_ms: &[f64], tail_pct: f64) {
        let n = latencies_ms.len();
        self.put("p50_ms", "ms", median(latencies_ms), n);
        self.put("tail_ms", "ms", percentile(latencies_ms, tail_pct), n);
        let rule = tail_percentile(n, 10).map_or("none".to_string(), |p| format!("p{p}"));
        self.note(format!(
            "tail_ms is p{tail_pct} of {n} {what} ({} beyond; the rule picks {rule} for {n})",
            samples_beyond(n, tail_pct)
        ));
    }

    /// Record `setup_s` as the median of several set-ups, listing each.
    pub fn put_setup(&mut self, setups_s: &[f64]) {
        self.put("setup_s", "s", median(setups_s), setups_s.len());
        let each: Vec<String> = setups_s.iter().map(|s| format!("{s:.4}")).collect();
        self.note(format!("set-ups (s): {}", each.join(" ")));
    }

    /// Add a human-report note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The human-readable table: every recorded metric with unit and
    /// sample count, then the notes and the gate verdict.
    pub fn human(&self, workload: &str, trace: bool) -> String {
        let mut s = String::new();
        let mode = if trace { "traced" } else { "untraced" };
        let _ = writeln!(s, "== perfbench {workload} ({mode}) ==");
        let _ = writeln!(
            s,
            "{:<38} {:>16} {:<6} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{:<38} {:>16.6} {:<6} {:>8}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for n in &self.notes {
            let _ = writeln!(s, "note: {n}");
        }
        let _ = writeln!(
            s,
            "attempted {} failed {} (failed_share {:.4}); checks {} run, {} failed",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.checks_run,
            self.check_failures.len()
        );
        s
    }

    /// The contract line: `correct`, `attempted`, `failed`, and every
    /// metric of `names` (missing ones report 0, a layer not on this
    /// workload's path).
    pub fn json_line(&self, names: &[(&str, &str)]) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.get(name).map_or(0.0, |m| m.value);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_named_metrics() {
        let mut r = RunReport {
            attempted: 12,
            ..RunReport::default()
        };
        r.put("p50_ms", "ms", 1.25, 10);
        r.put("extra", "ms", 9.0, 1);
        r.check(true, || "fine".into());
        let line = r.json_line(END_TO_END);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let metrics = v.get("metrics").and_then(|m| m.as_map()).expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("p50_ms"))
                .and_then(|m| m.get("value"))
                .and_then(|x| x.as_f64()),
            Some(1.25)
        );
        assert_eq!(v.get("correct").and_then(|x| x.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(12));
    }

    #[test]
    fn failed_check_flips_the_gate() {
        let mut r = RunReport::default();
        r.check(false, || "objective re-score differs".into());
        assert!(!r.correct());
        assert!(r.json_line(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_nested_run_is_absorbed_under_its_prefix() {
        let mut outer = RunReport {
            attempted: 3,
            ..RunReport::default()
        };
        outer.put("serve.slo_qps", "1/s", 0.0, 0);
        outer.put("p50_ms", "ms", 500.0, 25);
        let mut nested = RunReport {
            attempted: 10,
            failed: 1,
            ..RunReport::default()
        };
        nested.put("p50_ms", "ms", 40.0, 300);
        nested.put("serve.slo_qps", "1/s", 150.0, 8);
        nested.check(false, || "infeasible".into());
        nested.note("topology 0");
        outer.absorb(nested, "pool.", &["serve.slo_qps"]);
        assert_eq!(outer.get("p50_ms").map(|m| m.value), Some(500.0));
        assert_eq!(outer.get("pool.p50_ms").map(|m| m.samples), Some(300));
        assert_eq!(outer.get("serve.slo_qps").map(|m| m.value), Some(150.0));
        assert_eq!((outer.attempted, outer.failed), (13, 1));
        assert!(!outer.correct());
        assert_eq!(outer.notes, vec!["(pool) topology 0".to_string()]);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let v: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = v.get(key).and_then(|x| x.as_seq()).expect(key);
            let got: Vec<(String, String)> = entries
                .iter()
                .map(|e| {
                    let name = e.get("name").and_then(|x| x.as_str()).unwrap_or_default();
                    let unit = e.get("unit").and_then(|x| x.as_str()).unwrap_or_default();
                    (name.to_string(), unit.to_string())
                })
                .collect();
            let want: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(got, want, "{key} differs from BENCHMARK.json");
        }
    }
}
