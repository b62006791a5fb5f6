//! What a run measured, and how it is printed.

use crate::calib::Calibrated;
use crate::stats;
use crate::trace::Tracer;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Of those, operations that failed: an error, degraded or wrong
    /// answer, or no answer.
    pub failed: u64,
    /// Correctness problems (a wrong answer or a failed check).
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Further numbers printed and recorded but not compared.
    pub extra: Vec<Metric>,
    /// Correctness checks that ran.
    pub checks: Vec<String>,
    /// False when the load generator fell behind its schedule.
    pub valid: bool,
    /// The timed operations' latencies at the reference speed, ms, in
    /// the order they ran (not kept for the tens of thousands of
    /// requests of the serve workloads' reads).
    pub samples_ms: Vec<f64>,
    /// The values timed between probes, as measured, in the order
    /// recorded; and every probe of the host's speed, ms.
    pub raw_samples: Vec<f64>,
    pub probes_ms: Vec<f64>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            valid: true,
            ..Report::default()
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(metric(name, value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(metric(name, value, unit));
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(metric(name, value, unit));
    }

    /// The workload operation's latencies at the reference speed, ms.
    /// The median is an end-to-end metric; the 90th percentile, too noisy
    /// on a shared 2-core host to bound, is reported with the per-layer
    /// metrics.
    pub fn latencies(&mut self, ms: &[f64]) {
        let sorted = stats::sorted(ms);
        self.e2e("latency_p50_ms", stats::percentile(&sorted, 0.5), "ms");
        self.layer("latency_p90_ms", stats::percentile(&sorted, 0.9), "ms");
        self.extra("samples", ms.len() as f64, "count");
    }

    /// `setup_s`, the median set-up at the reference speed; the median
    /// as measured is an extra.
    pub fn setup(&mut self, setup_s: &Calibrated) {
        self.e2e("setup_s", stats::median(setup_s.normalized()), "s");
        self.extra("raw_setup_s", stats::median(setup_s.raw()), "s");
    }

    /// Keep the timed values as measured and the probes around them for
    /// the results file, and report the median probe.
    pub fn calibration(&mut self, timed: &Calibrated) {
        self.extra("bench.probe_ms", stats::median(timed.probes_ms()), "ms");
        self.raw_samples = timed.raw().to_vec();
        self.probes_ms = timed.probes_ms().to_vec();
    }

    /// Record a check; `ok == false` makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks.push(what.to_string());
        if !ok {
            self.problems.push(format!("{what}: {}", detail()));
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Per-layer metrics from the spans a traced run recorded: the
    /// median duration of one call of each layer step.
    pub fn layers_from(&mut self, tr: &Tracer) {
        let agg = tr.aggregate();
        let med = |name: &str| agg.get(name).map_or(f64::NAN, |a| a.median_ms());
        for (metric, span) in [
            ("txn.decode_ms", "txn.decode"),
            ("rules.mine_ms", "rules.mine"),
            ("core.build_ms", "core.build"),
            ("core.encode_ms", "core.encode"),
            ("store.seal_ms", "store.seal"),
            ("store.load_ms", "store.load"),
            ("core.index_ms", "core.index"),
        ] {
            self.layer(metric, med(span), "ms");
        }
        for (metric, span) in [
            ("serve.parse_us", "serve.parse"),
            ("core.recommend_us", "core.recommend"),
            ("serve.render_us", "serve.render"),
        ] {
            self.layer(metric, med(span) * 1e3, "us");
        }
        self.layer("rules.mined", tr.mean("rules.mined"), "count");
        self.layer(
            "core.survivor_ratio",
            tr.total("core.model_rules") / tr.total("rules.mined"),
            "ratio",
        );
        self.layer(
            "rules.ub_prune_ratio",
            tr.total("rules.ub_pruned") / tr.total("rules.ub_evaluated"),
            "ratio",
        );
        self.layer(
            "core.postings_per_recommend",
            tr.mean("core.postings"),
            "count",
        );
    }

    /// The span breakdown: self time and calls per span name.
    pub fn breakdown(tr: &Tracer) -> String {
        let mut out = String::new();
        for (name, a) in tr.aggregate() {
            let _ = writeln!(
                out,
                "  {name:<22} calls {:>7}  self {:>10.3} ms  median {:>9.4} ms",
                a.count,
                a.self_ns as f64 / 1e6,
                a.median_ms()
            );
        }
        out
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// A JSON number: non-finite values (a metric that could not be
/// measured) become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    serde_json::to_string(s).expect("a string serializes")
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_as_json() {
        let m = vec![
            metric("latency_p50_ms", 1.25, "ms"),
            metric("odd\"name", f64::NAN, "s"),
        ];
        assert_eq!(
            metrics_json(&m),
            r#"{"latency_p50_ms": {"value": 1.25, "unit": "ms"}, "odd\"name": {"value": null, "unit": "s"}}"#
        );
    }
}
