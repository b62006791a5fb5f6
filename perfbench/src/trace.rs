//! In-memory spans recorded around calls into each layer.
//!
//! A span is named `<layer>.<step>` after the crate it times (`txn`,
//! `rules`, `core`, `store`, `serve`) or after the benchmark itself
//! (`bench`, `io`). Spans nest: a span opened while another is open is
//! its child, and a layer's self time is its duration minus the time its
//! children cover. Spans of one operation (one fit, one request, one
//! restart) share an op id. Everything stays in memory until the run
//! ends; a disabled tracer records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Work counts noted at span boundaries: name → (sum, notes).
    counts: BTreeMap<&'static str, (f64, u64)>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.now_ns();
            let mut inner = self.tracer.inner.borrow_mut();
            inner.spans[idx].end_ns = end;
            inner.open.retain(|&i| i != idx);
        }
    }
}

/// Per-name totals over a run.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    pub count: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl Agg {
    /// Median duration of one call, ms.
    pub fn median_ms(&self) -> f64 {
        let d: Vec<f64> = self.durations_ns.iter().map(|&n| n as f64 / 1e6).collect();
        crate::stats::median(&d)
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the tracer was created, for spans whose ends
    /// were measured elsewhere (see [`Tracer::record`]).
    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Start a new operation: spans opened from now on carry its id.
    pub fn next_op(&self) {
        if self.on {
            self.inner.borrow_mut().op += 1;
        }
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                idx: None,
            };
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let idx = inner.spans.len();
        let parent = inner.open.last().copied();
        let op = inner.op;
        inner.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        inner.open.push(idx);
        Guard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Record a finished root span measured by the caller (a request
    /// timed from its due time to its answer).
    pub fn record(&self, op: u64, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
            self.inner.borrow_mut().spans.push(Span {
                op,
                name,
                parent: None,
                start_ns,
                end_ns,
            });
        }
    }

    /// Add `value` to the named work count.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.on {
            let mut inner = self.inner.borrow_mut();
            let c = inner.counts.entry(name).or_default();
            c.0 += value;
            c.1 += 1;
        }
    }

    /// The named count's sum, or NaN when it was never noted.
    pub fn total(&self, name: &str) -> f64 {
        self.inner
            .borrow()
            .counts
            .get(name)
            .map_or(f64::NAN, |c| c.0)
    }

    /// The named count's mean per note, or NaN when it was never noted.
    pub fn mean(&self, name: &str) -> f64 {
        self.inner
            .borrow()
            .counts
            .get(name)
            .map_or(f64::NAN, |c| c.0 / c.1 as f64)
    }

    /// Self time and call count per span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let inner = self.inner.borrow();
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, self_ns) in inner.spans.iter().zip(self_times(&inner.spans)) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.self_ns += self_ns;
            a.durations_ns.push(s.dur_ns());
        }
        out
    }

    /// Self time summed over every span below a root span named `root`
    /// (excluding the roots themselves), and the number of such roots.
    pub fn under(&self, root: &str) -> (u64, usize) {
        let inner = self.inner.borrow();
        let spans = &inner.spans;
        let self_ns = self_times(spans);
        let top = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            i
        };
        let total = (0..spans.len())
            .filter(|&i| spans[i].parent.is_some() && spans[top(i)].name == root)
            .map(|i| self_ns[i])
            .sum();
        let roots = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .count();
        (total, roots)
    }

    /// Every span as one JSON object per line.
    pub fn jsonl(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::with_capacity(inner.spans.len() * 96);
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"op":{},"span":"{}","parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Each span's duration minus the time its children cover.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {}
    }

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::new(true);
        tr.next_op();
        {
            let _fit = tr.span("bench.fit");
            spin(2);
            let _a = tr.span("txn.decode");
            spin(3);
        }
        let agg = tr.aggregate();
        let fit = &agg["bench.fit"];
        let decode = &agg["txn.decode"];
        assert_eq!((fit.count, decode.count), (1, 1));
        assert!(decode.self_ns >= 3_000_000);
        assert!(fit.self_ns >= 2_000_000 && fit.self_ns < fit.durations_ns[0]);
        assert_eq!(fit.self_ns + decode.self_ns, fit.durations_ns[0]);
        let lines = tr.jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains(r#""span":"txn.decode","parent":0"#));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        {
            let _s = tr.span("core.build");
        }
        tr.record(1, "bench.request", Instant::now(), Instant::now());
        tr.count("rules.mined", 10.0);
        assert!(tr.aggregate().is_empty());
        assert!(tr.jsonl().is_empty());
        assert!(tr.total("rules.mined").is_nan());
    }
}
