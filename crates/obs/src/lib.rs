//! Zero-dependency observability for the profit-mining workspace.
//!
//! The container image bakes no external crates, so instead of
//! `tracing`/`metrics` this crate provides the three primitives the
//! serving and mining paths need, on `std` alone:
//!
//! * a **leveled structured logger** — `PM_LOG=off|error|info|debug`
//!   selects the level at process start (default `off`), records are
//!   `key=value` pairs written to stderr in a single `write` so
//!   concurrent threads never interleave, and a disabled level costs
//!   one relaxed atomic load (the formatting arguments are not even
//!   evaluated);
//! * a **metrics registry** — named monotonic counters, gauges, and
//!   fixed-bucket latency histograms (log-spaced nanosecond bounds,
//!   p50/p95/p99 read out by cumulative walk with linear interpolation
//!   inside the bucket). All cells are atomics, so recording from the
//!   parallel miners and the serving path needs no locks;
//! * **RAII span timers** — [`span`] returns a guard that accumulates
//!   its elapsed wall time into a named phase on drop; phases dump as
//!   `{"phase": .., "millis": ..}` elements.
//!
//! Determinism guarantee: nothing in this crate influences control
//! flow, iteration order, or floating-point accumulation in the code
//! it observes — instrumentation only reads clocks and bumps atomics.
//! The byte-identity tests in the workspace fit models with
//! `PM_LOG=debug` and an active registry at 1/2/8 threads and compare
//! serialized bytes against an observability-off run.
//!
//! The registry is process-global and append-only: handles returned by
//! [`counter`]/[`gauge`]/[`latency`] are cheap `Arc` clones, so hot
//! paths resolve the name once and keep the handle.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Leveled structured logging
// ---------------------------------------------------------------------------

/// Log verbosity, ordered: `Off < Error < Info < Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// No logging at all (the default).
    Off = 0,
    /// Unrecoverable or surprising conditions only.
    Error = 1,
    /// Phase summaries and one-line-per-command events.
    Info = 2,
    /// Per-phase details: counts, representation switches, timings.
    Debug = 3,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Off,
        }
    }

    /// Parse a `PM_LOG` value; unknown strings fall back to `Off` so a
    /// typo can never make a quiet process noisy or vice versa.
    pub fn parse(s: &str) -> Level {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Level::Error,
            "info" => Level::Info,
            "debug" => Level::Debug,
            _ => Level::Off,
        }
    }
}

/// Sentinel meaning "not yet read from the environment".
const LEVEL_UNINIT: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

/// The active log level, lazily initialized from `PM_LOG` on first use.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNINIT => {
            let l = std::env::var("PM_LOG")
                .map(|v| Level::parse(&v))
                .unwrap_or(Level::Off);
            LEVEL.store(l as u8, Ordering::Relaxed);
            l
        }
        v => Level::from_u8(v),
    }
}

/// Override the log level (tests, or a CLI flag); wins over `PM_LOG`.
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Whether records at `l` are currently emitted. This is the fast path
/// the macros guard on: one relaxed load after the first call.
pub fn enabled(l: Level) -> bool {
    l != Level::Off && level() >= l
}

/// Write one structured record to stderr. Callers go through the
/// [`error!`]/[`info!`]/[`debug!`] macros, which check [`enabled`]
/// first so the `values` are never formatted on the quiet path.
pub fn emit(l: Level, event: &str, pairs: &[(&str, String)]) {
    let tag = match l {
        Level::Off => return,
        Level::Error => "error",
        Level::Info => "info",
        Level::Debug => "debug",
    };
    let mut line = String::with_capacity(48 + pairs.len() * 16);
    line.push_str("[pm] level=");
    line.push_str(tag);
    line.push_str(" event=");
    line.push_str(event);
    for (k, v) in pairs {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        line.push_str(v);
    }
    // One call, one write: records from concurrent threads never
    // interleave mid-line.
    eprintln!("{line}");
}

/// Core logging macro: `log!(Level::Info, "event.name", key = value, ..)`.
///
/// Values are captured with `Display`; nothing right of the event name
/// is evaluated unless the level is enabled.
#[macro_export]
macro_rules! log {
    ($lvl:expr, $event:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled($lvl) {
            $crate::emit($lvl, $event, &[$((stringify!($k), format!("{}", $v))),*]);
        }
    };
}

/// Log at [`Level::Error`]: `error!("event", key = value, ..)`.
#[macro_export]
macro_rules! error {
    ($event:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::log!($crate::Level::Error, $event $(, $k = $v)*)
    };
}

/// Log at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($event:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::log!($crate::Level::Info, $event $(, $k = $v)*)
    };
}

/// Log at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($event:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::log!($crate::Level::Debug, $event $(, $k = $v)*)
    };
}

// ---------------------------------------------------------------------------
// Metric cells
// ---------------------------------------------------------------------------

/// A monotonic counter. Clones share the same cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge. Clones share the same cell.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (inclusive, nanoseconds) of the latency buckets:
/// a 1–2–5 ladder from 100 ns to 10 s. One overflow bucket follows.
const BUCKET_BOUNDS_NS: [u64; 25] = [
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

struct HistCore {
    /// `BUCKET_BOUNDS_NS.len() + 1` cells; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl HistCore {
    fn new() -> HistCore {
        HistCore {
            buckets: (0..=BUCKET_BOUNDS_NS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket latency histogram over log-spaced nanosecond bounds.
///
/// `pm_stats::Histogram` covers the reporting shape (fixed bins +
/// counts) but records through `&mut self` over a linear `f64` range;
/// the serving path needs lock-free concurrent recording on a log
/// scale, so this keeps the same fixed-bucket design on atomics.
#[derive(Clone)]
pub struct LatencyHistogram(Arc<HistCore>);

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("mean_ns", &self.mean_ns())
            .finish()
    }
}

impl LatencyHistogram {
    /// Record one sample, in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS.partition_point(|&b| b < ns);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Start an RAII timer that records its elapsed time on drop.
    pub fn time(&self) -> HistTimer {
        HistTimer {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Mean sample, in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.0.sum_ns.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds, by cumulative
    /// walk with linear interpolation inside the bucket; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, cell) in self.0.buckets.iter().enumerate() {
            let in_bucket = cell.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if cum + in_bucket >= rank {
                let lo = if i == 0 { 0 } else { BUCKET_BOUNDS_NS[i - 1] } as f64;
                let hi = if i < BUCKET_BOUNDS_NS.len() {
                    BUCKET_BOUNDS_NS[i] as f64
                } else {
                    // Overflow bucket: report its lower bound rather
                    // than inventing an upper edge.
                    return lo;
                };
                let frac = (rank - cum) as f64 / in_bucket as f64;
                return lo + frac * (hi - lo);
            }
            cum += in_bucket;
        }
        *BUCKET_BOUNDS_NS.last().expect("non-empty bounds") as f64
    }
}

/// RAII timer from [`LatencyHistogram::time`].
pub struct HistTimer {
    hist: LatencyHistogram,
    start: Instant,
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos();
        self.hist.record_ns(ns.min(u64::MAX as u128) as u64);
    }
}

struct PhaseAcc {
    ns: AtomicU64,
    count: AtomicU64,
}

/// RAII phase timer from [`span`]: accumulates elapsed wall time into
/// its named phase when dropped. Re-entering a span name adds to the
/// same accumulator (total time, not last time).
pub struct Span {
    acc: Arc<PhaseAcc>,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos();
        self.acc
            .ns
            .fetch_add(ns.min(u64::MAX as u128) as u64, Ordering::Relaxed);
        self.acc.count.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The process-global metrics registry: named counters, gauges,
/// latency histograms, and span phases, all behind `BTreeMap`s so the
/// JSON dump is deterministically ordered.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<HistCore>>>,
    phases: Mutex<BTreeMap<&'static str, Arc<PhaseAcc>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Metric cells are plain atomics, so a panic while holding the map
    // lock cannot leave a cell half-written; recover the map.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// The named counter, created at zero on first use.
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(Arc::clone(lock(&self.counters).entry(name).or_default()))
    }

    /// The named gauge, created at zero on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge(Arc::clone(lock(&self.gauges).entry(name).or_default()))
    }

    /// The named latency histogram, created empty on first use.
    pub fn latency(&self, name: &'static str) -> LatencyHistogram {
        LatencyHistogram(Arc::clone(
            lock(&self.histograms)
                .entry(name)
                .or_insert_with(|| Arc::new(HistCore::new())),
        ))
    }

    /// Start timing the named phase; the elapsed time lands when the
    /// returned [`Span`] drops.
    pub fn span(&self, name: &'static str) -> Span {
        let acc = Arc::clone(lock(&self.phases).entry(name).or_insert_with(|| {
            Arc::new(PhaseAcc {
                ns: AtomicU64::new(0),
                count: AtomicU64::new(0),
            })
        }));
        Span {
            acc,
            start: Instant::now(),
        }
    }

    /// Serialize the whole registry as JSON.
    ///
    /// The `phases` array holds `{"phase": .., "millis": ..}` elements;
    /// counters and gauges are flat name→value maps; histograms report
    /// `count`, `mean_ns`, and `p50_ns`/`p95_ns`/`p99_ns`.
    pub fn dump_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n  \"phases\": [");
        let phases = lock(&self.phases);
        let mut first = true;
        for (name, acc) in phases.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            let millis = acc.ns.load(Ordering::Relaxed) as f64 / 1e6;
            out.push_str("\n    {\"phase\": ");
            push_json_str(&mut out, name);
            out.push_str(", \"millis\": ");
            push_json_f64(&mut out, millis);
            out.push('}');
        }
        drop(phases);
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"counters\": {");
        let counters = lock(&self.counters);
        let mut first = true;
        for (name, cell) in counters.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            push_json_str(&mut out, name);
            out.push_str(": ");
            out.push_str(&cell.load(Ordering::Relaxed).to_string());
        }
        drop(counters);
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        let gauges = lock(&self.gauges);
        let mut first = true;
        for (name, cell) in gauges.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            push_json_str(&mut out, name);
            out.push_str(": ");
            out.push_str(&cell.load(Ordering::Relaxed).to_string());
        }
        drop(gauges);
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        let histograms = lock(&self.histograms);
        let mut first = true;
        for (name, core) in histograms.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            let h = LatencyHistogram(Arc::clone(core));
            out.push_str("\n    ");
            push_json_str(&mut out, name);
            out.push_str(": {\"count\": ");
            out.push_str(&h.count().to_string());
            for (key, val) in [
                ("mean_ns", h.mean_ns()),
                ("p50_ns", h.quantile_ns(0.50)),
                ("p95_ns", h.quantile_ns(0.95)),
                ("p99_ns", h.quantile_ns(0.99)),
            ] {
                out.push_str(", \"");
                out.push_str(key);
                out.push_str("\": ");
                push_json_f64(&mut out, val);
            }
            out.push('}');
        }
        drop(histograms);
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Append a JSON string literal (metric names are plain identifiers,
/// but escape defensively).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a finite `f64` the way the workspace's serde shim prints
/// floats: integral values keep a trailing `.0` so the token stays a
/// JSON number that round-trips as a float.
fn push_json_f64(out: &mut String, v: f64) {
    let v = if v.is_finite() { v } else { 0.0 };
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-global [`Registry`].
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::default)
}

/// Shorthand for `registry().counter(name)`.
pub fn counter(name: &'static str) -> Counter {
    registry().counter(name)
}

/// Shorthand for `registry().gauge(name)`.
pub fn gauge(name: &'static str) -> Gauge {
    registry().gauge(name)
}

/// Shorthand for `registry().latency(name)`.
pub fn latency(name: &'static str) -> LatencyHistogram {
    registry().latency(name)
}

/// Shorthand for `registry().span(name)`.
pub fn span(name: &'static str) -> Span {
    registry().span(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(Level::parse("debug"), Level::Debug);
        assert_eq!(Level::parse(" Info "), Level::Info);
        assert_eq!(Level::parse("ERROR"), Level::Error);
        assert_eq!(Level::parse("off"), Level::Off);
        assert_eq!(Level::parse("bogus"), Level::Off);
        assert!(Level::Debug > Level::Info && Level::Info > Level::Error);
    }

    #[test]
    fn disabled_level_skips_argument_evaluation() {
        set_level(Level::Off);
        let mut evaluated = false;
        crate::info!(
            "obs.test.skip",
            x = {
                evaluated = true;
                1
            }
        );
        assert!(!evaluated, "arguments must not be evaluated when off");
        assert!(!enabled(Level::Error));
    }

    // Value-asserting tests use their own Registry so parallel tests
    // can never race the assertions.
    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::default();
        let c = r.counter("obs.test.counter");
        c.inc();
        r.counter("obs.test.counter").add(4); // same cell by name
        assert_eq!(c.get(), 5);

        let g = r.gauge("obs.test.gauge");
        g.set(-7);
        assert_eq!(r.gauge("obs.test.gauge").get(), -7);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let r = Registry::default();
        let h = r.latency("obs.test.hist");
        // 100 samples spread over the (500, 1000] bucket.
        for i in 0..100u64 {
            h.record_ns(501 + i * 4);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        assert!((500.0..=1000.0).contains(&p50), "p50 = {p50}");
        assert!((500.0..=1000.0).contains(&p99), "p99 = {p99}");
        assert!(p99 >= p50);
        assert!(h.mean_ns() > 500.0 && h.mean_ns() < 1000.0);
        // An enormous sample lands in the overflow bucket and the
        // quantile stays finite.
        h.record_ns(u64::MAX);
        assert!(h.quantile_ns(1.0) >= 10_000_000_000.0);
    }

    #[test]
    fn spans_accumulate_across_entries() {
        let r = Registry::default();
        {
            let _s = r.span("obs.test.span");
        }
        {
            let _s = r.span("obs.test.span");
        }
        let phases = lock(&r.phases);
        let acc = phases.get("obs.test.span").expect("span registered");
        assert_eq!(acc.count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn histogram_timer_records_once() {
        let r = Registry::default();
        let h = r.latency("obs.test.timer");
        {
            let _t = h.time();
            std::hint::black_box(42);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let r = Registry::default();
        let c = r.counter("obs.test.mt");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    /// The dump must be valid JSON by the workspace's own parser and
    /// carry the BENCH-compatible phase shape.
    #[test]
    fn dump_is_valid_json_with_bench_compatible_phases() {
        let r = Registry::default();
        r.counter("obs.test.dump.counter").add(3);
        r.gauge("obs.test.dump.gauge").set(11);
        r.latency("obs.test.dump.hist").record_ns(1234);
        {
            let _s = r.span("obs.test.dump.phase");
        }
        let json = r.dump_json();

        // Same element shape the bench harness serializes.
        #[derive(serde::Serialize, serde::Deserialize)]
        struct PhaseTime {
            phase: String,
            millis: f64,
        }
        #[derive(serde::Serialize, serde::Deserialize)]
        struct Dump {
            phases: Vec<PhaseTime>,
        }
        let dump: Dump = serde_json::from_str(&json).expect("dump parses as JSON");
        assert!(
            dump.phases.iter().any(|p| p.phase == "obs.test.dump.phase"),
            "{json}"
        );
        assert!(json.contains("\"obs.test.dump.counter\": 3"), "{json}");
        assert!(json.contains("\"obs.test.dump.gauge\": 11"), "{json}");
        assert!(json.contains("\"obs.test.dump.hist\""), "{json}");
        assert!(json.contains("\"p95_ns\""), "{json}");
    }

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
        let mut f = String::new();
        push_json_f64(&mut f, 2.0);
        assert_eq!(f, "2.0");
        let mut f2 = String::new();
        push_json_f64(&mut f2, 2.5);
        assert_eq!(f2, "2.5");
    }
}
