//! `pm-serve` — a fault-tolerant, event-driven recommendation daemon.
//!
//! The paper's recommender answers the live question "for a future
//! customer, recommend one (target item, promotion code) pair" (§3.2,
//! §4.1); this crate serves that question over TCP, std-only (plus the
//! vendored `polling` readiness shim), built to degrade instead of
//! crash, with connection count decoupled from thread count:
//!
//! * **line-delimited JSON protocol** ([`protocol`]) — one request
//!   object per line, one response object per line, over plain TCP, so
//!   `netcat` is a complete client;
//! * **event-driven multiplexing** — `io_threads` reactor threads run a
//!   readiness loop (epoll, with a portable `poll(2)` fallback) over
//!   non-blocking sockets with per-connection read/write buffers and
//!   incremental line framing; a parked connection costs a slab slot,
//!   not a thread;
//! * **request batching + customer-keyed sharding** — each reactor
//!   wakeup drains every ready request and ships them to a compute
//!   worker pool in batches of up to `batch`, sharded by a hash of the
//!   customer's sales; each worker scores its whole batch against one
//!   `Arc<RuleModel>` snapshot and one [`Matcher`] index per model
//!   generation instead of one index per connection;
//! * **admission control + load shedding** — at most
//!   `workers + queue` connections are admitted concurrently; beyond
//!   that clients get an immediate
//!   `{"ok":false,"error":"overloaded"}` instead of an unbounded
//!   backlog;
//! * **per-request bounds** — idle-connection read timeouts and
//!   write-stall timeouts bound slow and dead clients, a request-line
//!   byte cap bounds parse memory, and a compute deadline bounds
//!   matching;
//! * **degraded mode** — when the matcher panics or the deadline is
//!   blown, the daemon answers with the §3.2 default rule `∅ → g`
//!   (always applicable, byte-deterministic), flags the response
//!   `"degraded":true`, and counts it in `pm-obs` — a wrong-shaped
//!   request or a slow rule index can make answers *worse*, never wrong
//!   or absent;
//! * **panic isolation** — per-connection handling and per-request
//!   compute are both unwind-isolated; a panic closes one connection or
//!   degrades one answer (counted under `serve.worker_panics`), it
//!   never kills a serving thread;
//! * **hot reload** — the `reload` op re-reads the model file the daemon
//!   started with, validates the envelope off the serving path (on the
//!   control-plane executor, unwind-isolated) and atomically swaps it
//!   into the shared [`ModelHandle`]; on any failure — missing file,
//!   torn envelope, checksum mismatch, parse error, rule-less model,
//!   panic — the old model keeps serving. No request names a file: to
//!   swap models, rewrite the model file, then send `reload`.
//!   Control-plane jobs (reload, ingest, checkpoint) queue serially up
//!   to [`EXECUTOR_QUEUE_CAP`] jobs, then reject deterministically with
//!   [`ServeError::ReloadInFlight`];
//! * **streaming ingestion & checkpoints** — a daemon started with
//!   [`Server::start_streaming`] owns a [`stream::Stream`]: the `ingest`
//!   op makes a size-capped batch durable in the sales log before it is
//!   visible, refits incrementally (byte-identical to a cold fit on the
//!   concatenated stream) and hot-swaps the model; the `checkpoint` op
//!   seals the stream into the configured `PMCK` file and compacts the
//!   log behind it, so a restart replays only the tail (DESIGN.md §15,
//!   §17). The stream owns the model, so a streaming daemon refuses
//!   `reload`.
//!
//! Fault injection for all of the above lives in `pm_store::faults`;
//! the integration tests drive every fault class through a live daemon.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod protocol;
pub mod stream;

use pm_store::StoreError;
use pm_txn::{CatalogDelta, GenSale, TargetFilter, Transaction, TransactionSet};
use polling::{Event, Events, Poller};
use profit_core::{
    Matcher, ModelHandle, ProfitMiner, Recommendation, Recommender, RuleModel, SavedModel,
};
use protocol::{error_line, obj, parse_request, rec_value, render, validate_sales, Request};
use serde::Value;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use stream::Stream;

/// Tuning knobs for the daemon. The defaults suit tests and small
/// deployments; the CLI exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Compute worker threads scoring recommendation batches.
    pub workers: usize,
    /// Admission headroom beyond the workers: at most
    /// `workers + queue` connections are admitted concurrently; beyond
    /// that, shed load.
    pub queue: usize,
    /// Read timeout — a connection with no outstanding requests that
    /// sends nothing for this long is disconnected.
    pub read_timeout: Duration,
    /// Write-stall timeout — a client that won't drain its responses
    /// is disconnected.
    pub write_timeout: Duration,
    /// Compute deadline per request; blown deadlines answer degraded.
    pub deadline: Duration,
    /// Maximum request line length in bytes (parse-memory bound).
    pub max_line: usize,
    /// Reactor (event-loop) threads multiplexing connections.
    pub io_threads: usize,
    /// Maximum requests per batch shipped to a compute worker.
    pub batch: usize,
    /// Streaming mode only: the checkpoint file. At startup a valid
    /// checkpoint here short-circuits log replay (open checkpoint,
    /// replay only the tail); the `checkpoint` op writes here and
    /// nowhere else.
    pub checkpoint: Option<PathBuf>,
    /// Maximum transactions per `ingest` batch (`0` = unbounded).
    /// Oversized batches are rejected with a typed error before they
    /// reach the log.
    pub max_ingest_txns: usize,
    /// Maximum `ingest` request size in bytes (`0` = unbounded),
    /// measured on the wire line.
    pub max_ingest_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            deadline: Duration::from_millis(250),
            max_line: 64 * 1024,
            io_threads: 2,
            batch: 32,
            checkpoint: None,
            max_ingest_txns: 10_000,
            max_ingest_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Why the daemon could not start or load a model.
#[derive(Debug)]
pub enum ServeError {
    /// Reading or validating a stored model file failed.
    Store(StoreError),
    /// The model payload was readable but not a valid saved model.
    Model {
        /// The file involved.
        path: String,
        /// The parse failure.
        err: String,
    },
    /// The transaction stream could not be recovered from its base data,
    /// sales log and checkpoint.
    Stream {
        /// The file (or log record) involved.
        path: String,
        /// Why recovery refused.
        err: String,
    },
    /// The model parsed but cannot be served: the degraded path and the
    /// matcher both rely on the §3.2 default rule `∅ → g` being the
    /// last rule, and this model does not have one.
    Degenerate {
        /// The file (or in-memory model) involved.
        path: String,
        /// Why the model is unservable.
        why: String,
    },
    /// Binding or configuring the listening socket failed.
    Net {
        /// What was being bound or configured.
        what: String,
        /// The OS error text.
        err: String,
    },
    /// The control-plane executor (reloads, ingests and checkpoints run
    /// serially on one thread) already has [`EXECUTOR_QUEUE_CAP`] jobs
    /// queued or running; the request is rejected instead of queueing
    /// unboundedly behind a slow validation.
    ReloadInFlight {
        /// Control-plane jobs queued or running when the request
        /// arrived.
        pending: usize,
    },
    /// An `ingest` request reached a daemon that was not started in
    /// streaming mode (no dataset and sales log attached).
    IngestUnavailable,
    /// An `ingest` batch exceeded the configured record or byte cap and
    /// was rejected before touching the log.
    IngestTooLarge {
        /// Transactions in the rejected batch.
        txns: usize,
        /// Bytes in the rejected request line.
        bytes: usize,
        /// Configured transaction cap (`0` = unbounded).
        max_txns: usize,
        /// Configured byte cap (`0` = unbounded).
        max_bytes: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "{e}"),
            ServeError::Model { path, err } => write!(f, "{path}: invalid model payload: {err}"),
            ServeError::Stream { path, err } => write!(f, "{path}: {err}"),
            ServeError::Degenerate { path, why } => {
                write!(f, "{path}: unservable model: {why}")
            }
            ServeError::Net { what, err } => write!(f, "{what}: {err}"),
            ServeError::ReloadInFlight { pending } => write!(
                f,
                "reload in flight: {pending} control-plane jobs queued, retry later"
            ),
            ServeError::IngestUnavailable => write!(
                f,
                "ingest unavailable: daemon is not in streaming mode (start it with a \
                 dataset and a sales log)"
            ),
            ServeError::IngestTooLarge {
                txns,
                bytes,
                max_txns,
                max_bytes,
            } => write!(
                f,
                "ingest rejected: batch of {txns} transactions ({bytes} bytes) exceeds \
                 the configured cap ({max_txns} transactions / {max_bytes} bytes) — \
                 split the batch"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// A model is servable iff it ends with the §3.2 default rule `∅ → g`:
/// the degraded answer and the matcher's always-matches invariant both
/// rely on it. Models built by the pipeline always satisfy this, but a
/// hand-crafted model file can violate it — and a rule-less
/// model used to underflow-panic the degraded path at serve time.
fn validate_servable(model: &RuleModel) -> Result<(), String> {
    match model.rules().last() {
        None => Err("model has no rules, not even the default rule ∅ → g".into()),
        Some(r) if !r.is_default => Err("model's last rule is not the default rule ∅ → g".into()),
        Some(_) => Ok(()),
    }
}

/// Every rule must point inside the model's own tables: its head an
/// in-range code of an in-range target item, its body in-range concepts,
/// items and codes of non-target items. Recommending, rendering and the
/// degraded answer index the catalog with these ids, so one rule out of
/// range would panic every request that reaches it.
fn validate_rules(saved: &SavedModel) -> Result<(), String> {
    let (catalog, n_concepts) = (&saved.catalog, saved.hierarchy.n_concepts());
    for (i, rule) in saved.rules.iter().enumerate() {
        let bad = |why: String| Err(format!("rule {i}: {why}"));
        let Some(head) = catalog.get(rule.item) else {
            return bad(format!("head {} is not in the catalog", rule.item));
        };
        if !head.is_target {
            return bad(format!("head {} is not a target item", rule.item));
        }
        if rule.code.index() >= head.codes.len() {
            return bad(format!("head {} has no {}", rule.item, rule.code));
        }
        for g in &rule.body {
            let (item, code) = match *g {
                GenSale::Concept(c) if c.index() >= n_concepts => {
                    return bad(format!("body {c} is not in the hierarchy"))
                }
                GenSale::Concept(_) => continue,
                GenSale::Item(item) => (item, None),
                GenSale::ItemCode(item, code) => (item, Some(code)),
            };
            let Some(def) = catalog.get(item) else {
                return bad(format!("body {item} is not in the catalog"));
            };
            if def.is_target {
                return bad(format!("body {item} is a target item"));
            }
            if let Some(code) = code.filter(|c| c.index() >= def.codes.len()) {
                return bad(format!("body {item} has no {code}"));
            }
        }
    }
    Ok(())
}

/// Load a model file through the crash-safe store, which verifies the
/// envelope's magic, version, length and checksum. Every failure —
/// I/O, torn envelope, bit flip, version skew, JSON parse, malformed
/// catalog or hierarchy tables, a rule naming an item, code or concept
/// outside them, a model with no servable default rule —
/// comes back as a typed, printable [`ServeError`]; corrupt bytes are
/// never deserialized into a partially-built model, and an unservable
/// model is rejected here instead of panicking at index build or serve
/// time.
pub fn load_model(path: impl AsRef<Path>) -> Result<RuleModel, ServeError> {
    let path = path.as_ref();
    let invalid = |err: String| ServeError::Model {
        path: path.display().to_string(),
        err,
    };
    let (payload, _) = pm_store::load_model_file(path)?;
    let text =
        String::from_utf8(payload).map_err(|e| invalid(format!("payload is not UTF-8: {e}")))?;
    let saved: SavedModel = serde_json::from_str(&text).map_err(|e| invalid(e.to_string()))?;
    TransactionSet::validate_tables(&saved.catalog, &saved.hierarchy)
        .map_err(|e| invalid(e.to_string()))?;
    validate_rules(&saved).map_err(invalid)?;
    let model = RuleModel::load(saved);
    validate_servable(&model).map_err(|why| ServeError::Degenerate {
        path: path.display().to_string(),
        why,
    })?;
    Ok(model)
}

/// Declares the serving counters once, in the order `stats` reports
/// them: field `x` is the cell `serve.x`, which `stats` reports under
/// `x` and [`Server::join`] adds into the process-global registry
/// (where `--metrics` dumps it).
macro_rules! serve_counters {
    ($($field:ident),* $(,)?) => {
        /// One cell per serving counter, resolved once so an event costs
        /// one relaxed atomic add.
        struct Counters {
            $($field: pm_obs::Counter,)*
        }

        impl Counters {
            /// Fresh cells from the daemon's own registry, so two daemons
            /// in one process count apart.
            fn new() -> Counters {
                let registry = pm_obs::Registry::default();
                Counters {
                    $($field: registry.counter(concat!("serve.", stringify!($field))),)*
                }
            }

            /// Every counter in `stats` order: its `stats` key, its
            /// metric name and its cell.
            fn each(&self) -> impl Iterator<Item = (&'static str, &'static str, &pm_obs::Counter)> {
                [$((
                    stringify!($field),
                    concat!("serve.", stringify!($field)),
                    &self.$field,
                ),)*]
                .into_iter()
            }
        }
    };
}

serve_counters! {
    requests, recommends, degraded, shed, read_timeouts, oversized_requests, parse_errors,
    reloads, reload_failures, ingests, ingest_failures, ingest_oversized, checkpoints,
    checkpoint_failures, control_rejected, worker_panics, connections,
}

/// One reactor's mailboxes: the acceptor pushes admitted connections
/// into `inbox`, compute workers and the control-plane executor push
/// finished responses into `completions`; both wake the reactor through
/// its poller's notify pipe.
struct ReactorShared {
    poller: Poller,
    inbox: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
}

impl ReactorShared {
    fn wake(&self) {
        let _ = self.poller.notify();
    }
}

/// How many control-plane jobs (reload, ingest, checkpoint) may be
/// queued or running on the executor before further ones are rejected
/// with [`ServeError::ReloadInFlight`]. Up to this depth they queue and
/// run serially in arrival order; beyond it the daemon answers
/// deterministically instead of building an unbounded backlog behind a
/// slow model validation.
pub const EXECUTOR_QUEUE_CAP: usize = 8;

/// Where the served model comes from, fixed at startup.
enum Mode {
    /// Loaded from this file; `reload` re-reads it.
    File(PathBuf),
    /// Fitted from the stream; `ingest` and `checkpoint` mutate it.
    /// Touched only by the control-plane executor (the mutex makes it
    /// `Sync`; it is never contended).
    Streaming(Box<Mutex<Stream>>),
}

/// State shared by the acceptor, the reactors, the compute workers, the
/// control-plane executor, and the [`Server`] handle.
struct Shared {
    cfg: ServeConfig,
    handle: ModelHandle,
    mode: Mode,
    shutdown: AtomicBool,
    /// Admitted (not yet closed) connections, for admission control.
    live_conns: AtomicI64,
    /// Requests in flight between a reactor and a worker/executor.
    queue_depth: AtomicI64,
    /// Control-plane jobs queued or running on the executor, for the
    /// [`EXECUTOR_QUEUE_CAP`] admission check.
    executor_pending: AtomicI64,
    /// The daemon's own serving counters, which `stats` and
    /// [`ServeSummary`] read and [`Server::join`] adds into the
    /// process-global registry.
    count: Counters,
    /// The latency histogram and the gauges live in the process-global
    /// registry.
    latency: pm_obs::LatencyHistogram,
    queue_depth_gauge: pm_obs::Gauge,
    generation_gauge: pm_obs::Gauge,
    reactors: Vec<Arc<ReactorShared>>,
}

impl Shared {
    fn note_queue_depth(&self, delta: i64) {
        let now = self.queue_depth.fetch_add(delta, Ordering::Relaxed) + delta;
        self.queue_depth_gauge.set(now);
    }

    fn wake_all_reactors(&self) {
        for r in &self.reactors {
            r.wake();
        }
    }

    /// The stream, for a control job the reactor admitted in streaming
    /// mode (outside it the reactor answers stream ops inline).
    fn stream(&self) -> MutexGuard<'_, Stream> {
        match &self.mode {
            Mode::Streaming(stream) => stream.lock().unwrap_or_else(|e| e.into_inner()),
            Mode::File(_) => unreachable!("stream ops are admitted only in streaming mode"),
        }
    }
}

/// A recommendation request in flight to a compute worker.
struct Job {
    reply: Reply,
    sales: Vec<pm_txn::Sale>,
    top: usize,
    /// Raw target spec, resolved by the worker against the model
    /// snapshot it answers from (the catalog can change under reload).
    target: Option<String>,
}

/// Where an answer goes: the requester's reserved response slot.
struct Reply {
    reactor: usize,
    slot: usize,
    token: u64,
    seq: u64,
}

impl Reply {
    /// Queue the answer on its reactor, and return that reactor (the
    /// caller wakes it).
    fn complete(self, shared: &Shared, line: String) -> &ReactorShared {
        let reactor = &shared.reactors[self.reactor];
        let mut done = reactor
            .completions
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        done.push(Completion { reply: self, line });
        reactor
    }
}

/// A control-plane op. Reloads, ingests and checkpoints share the
/// executor thread, so model swaps and stream mutations of every kind
/// are serialized.
enum ControlOp {
    Reload,
    Ingest(Option<CatalogDelta>, Vec<Transaction>),
    Checkpoint,
}

/// A control-plane op in flight to the executor, with its reply address.
struct ControlJob {
    reply: Reply,
    op: ControlOp,
}

/// One op's side of the shared fail path.
struct FailPath<'m> {
    failures: &'m pm_obs::Counter,
    event: &'static str,
    /// The error line's prefix.
    prefix: &'static str,
}

impl ControlOp {
    fn fail_path<'m>(&self, m: &'m Counters) -> FailPath<'m> {
        match self {
            ControlOp::Reload => FailPath {
                failures: &m.reload_failures,
                event: "serve.reload_failed",
                prefix: "reload failed, keeping current model",
            },
            ControlOp::Ingest(..) => FailPath {
                failures: &m.ingest_failures,
                event: "serve.ingest_failed",
                prefix: "ingest rejected, keeping current model",
            },
            ControlOp::Checkpoint => FailPath {
                failures: &m.checkpoint_failures,
                event: "serve.checkpoint_failed",
                prefix: "checkpoint failed",
            },
        }
    }
}

/// A finished response heading back to a reactor.
struct Completion {
    reply: Reply,
    line: String,
}

/// Final tallies returned by [`Server::join`].
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Requests parsed and answered (all ops).
    pub requests: u64,
    /// Degraded (default-rule) recommendation responses.
    pub degraded: u64,
    /// Connections shed because the queue was full.
    pub shed: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Successful hot reloads.
    pub reloads: u64,
    /// Successful streaming ingests (each bumps the model generation).
    pub ingests: u64,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served {} requests over {} connections \
             ({} degraded, {} shed, {} reloads, {} ingests)",
            self.requests, self.connections, self.degraded, self.shed, self.reloads, self.ingests
        )
    }
}

/// A running daemon. Dropping the handle does not stop it; call
/// [`Server::join`] (blocks until a `shutdown` request arrives or
/// [`Server::request_shutdown`] was called).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Load the model at `model_path` and start serving on `addr`
    /// (e.g. `127.0.0.1:0` for an ephemeral port). `reload` re-reads
    /// `model_path`.
    pub fn start(
        addr: &str,
        model_path: impl AsRef<Path>,
        cfg: ServeConfig,
    ) -> Result<Server, ServeError> {
        let model_path = model_path.as_ref();
        let model = load_model(model_path)?;
        Server::start_inner(addr, model, Mode::File(model_path.to_path_buf()), cfg)
    }

    /// Start in **streaming mode**: recover the stream from `data`, the
    /// sales log and [`ServeConfig::checkpoint`] ([`Stream::recover`]),
    /// build its model, and serve it — accepting `ingest` ops (one
    /// generation bump per batch) and `checkpoint` ops, and refusing
    /// `reload`. The served model is always byte-identical to a cold
    /// `pipeline.fit` on the concatenated stream, at startup and after
    /// every ingest.
    pub fn start_streaming(
        addr: &str,
        data: TransactionSet,
        log_path: impl AsRef<Path>,
        pipeline: ProfitMiner,
        cfg: ServeConfig,
    ) -> Result<Server, ServeError> {
        let log_path = log_path.as_ref();
        let (mut stream, _) = Stream::recover(data, log_path, cfg.checkpoint.as_deref(), pipeline)?;
        let model = stream.model();
        validate_servable(&model).map_err(|why| ServeError::Degenerate {
            path: log_path.display().to_string(),
            why,
        })?;
        Server::start_inner(
            addr,
            model,
            Mode::Streaming(Box::new(Mutex::new(stream))),
            cfg,
        )
    }

    fn start_inner(
        addr: &str,
        model: RuleModel,
        mode: Mode,
        cfg: ServeConfig,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Net {
            what: format!("bind {addr}"),
            err: e.to_string(),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Net {
                what: "set_nonblocking".into(),
                err: e.to_string(),
            })?;
        let local = listener.local_addr().map_err(|e| ServeError::Net {
            what: "local_addr".into(),
            err: e.to_string(),
        })?;

        let generation_gauge = pm_obs::gauge("serve.model_generation");
        generation_gauge.set(1);
        let io_threads = cfg.io_threads.max(1);
        let mut reactors = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let poller = Poller::new().map_err(|e| ServeError::Net {
                what: "create poller".into(),
                err: e.to_string(),
            })?;
            reactors.push(Arc::new(ReactorShared {
                poller,
                inbox: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
            }));
        }
        let shared = Arc::new(Shared {
            cfg,
            handle: ModelHandle::new(model),
            mode,
            shutdown: AtomicBool::new(false),
            live_conns: AtomicI64::new(0),
            queue_depth: AtomicI64::new(0),
            executor_pending: AtomicI64::new(0),
            count: Counters::new(),
            latency: pm_obs::latency("serve.request_ns"),
            queue_depth_gauge: pm_obs::gauge("serve.queue_depth"),
            generation_gauge,
            reactors,
        });

        let spawn_err = |e: std::io::Error, what: &str| ServeError::Net {
            what: what.into(),
            err: e.to_string(),
        };
        let mut threads = Vec::new();

        // Compute workers: the reactors hold the senders; when the
        // reactors exit at shutdown, the channels disconnect and the
        // workers drain and stop.
        let n_workers = shared.cfg.workers.max(1);
        let mut worker_txs = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let (tx, rx) = std::sync::mpsc::channel::<Vec<Job>>();
            worker_txs.push(tx);
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pm-serve-worker-{w}"))
                    .spawn(move || compute_worker_loop(&shared, &rx))
                    .map_err(|e| spawn_err(e, "spawn worker"))?,
            );
        }

        // Control-plane executor: reloads, ingests and checkpoints run off
        // the serving path, one job at a time.
        let (control_tx, control_rx) = std::sync::mpsc::channel::<ControlJob>();
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("pm-serve-control".into())
                    .spawn(move || control_executor_loop(&shared, &control_rx))
                    .map_err(|e| spawn_err(e, "spawn control executor"))?,
            );
        }

        for id in 0..io_threads {
            let shared = Arc::clone(&shared);
            let worker_txs = worker_txs.clone();
            let control_tx = control_tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pm-serve-io-{id}"))
                    .spawn(move || Reactor::new(shared, id, worker_txs, control_tx).run())
                    .map_err(|e| spawn_err(e, "spawn reactor"))?,
            );
        }
        // The reactors now hold the only long-lived senders.
        drop(worker_txs);
        drop(control_tx);

        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("pm-serve-acceptor".into())
                    .spawn(move || acceptor_loop(&shared, &listener))
                    .map_err(|e| spawn_err(e, "spawn acceptor"))?,
            );
        }

        pm_obs::info!("serve.listening", addr = local);
        Ok(Server {
            shared,
            addr: local,
            threads,
        })
    }

    /// The bound address (resolves the port when started with `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current model generation (1 at startup, +1 per reload).
    pub fn generation(&self) -> u64 {
        self.shared.handle.generation()
    }

    /// Ask the daemon to stop (same effect as a `shutdown` request).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all_reactors();
    }

    /// Block until the daemon stops, add its serving counters into the
    /// process-global registry, and return the final tallies.
    pub fn join(self) -> ServeSummary {
        for t in self.threads {
            let _ = t.join();
        }
        let c = &self.shared.count;
        for (_, name, cell) in c.each() {
            pm_obs::counter(name).add(cell.get());
        }
        ServeSummary {
            requests: c.requests.get(),
            degraded: c.degraded.get(),
            shed: c.shed.get(),
            connections: c.connections.get(),
            reloads: c.reloads.get(),
            ingests: c.ingests.get(),
        }
    }
}

/// Accept connections, apply admission control, and hand admitted
/// streams to the reactors round-robin; shed with an immediate error
/// line when the daemon is at capacity.
fn acceptor_loop(shared: &Shared, listener: &TcpListener) {
    let capacity = (shared.cfg.workers.max(1) + shared.cfg.queue) as i64;
    let mut next = 0usize;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                shared.count.connections.inc();
                pm_obs::debug!("serve.accept", peer = peer);
                if shared.live_conns.load(Ordering::Relaxed) >= capacity {
                    shared.count.shed.inc();
                    pm_obs::error!("serve.shed", peer = peer);
                    shed_connection(shared, stream);
                } else {
                    shared.live_conns.fetch_add(1, Ordering::Relaxed);
                    let r = &shared.reactors[next % shared.reactors.len()];
                    next = next.wrapping_add(1);
                    r.inbox
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(stream);
                    r.wake();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => {
                pm_obs::error!("serve.accept_error", err = e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Tell an over-capacity client it was shed, best-effort, and close.
/// The accepted stream is still blocking here, so a short write timeout
/// bounds the farewell.
fn shed_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout.min(Duration::from_secs(1))));
    let mut stream = stream;
    let _ = writeln!(
        stream,
        "{}",
        error_line("overloaded: request queue is full, retry later")
    );
}

/// FNV-style hash of a customer's sales, for worker sharding: the same
/// customer always lands on the same worker, so its matcher scratch
/// stays warm.
fn customer_shard(sales: &[pm_txn::Sale]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in sales {
        for v in [u64::from(s.item.0), u64::from(s.code.0), u64::from(s.qty)] {
            h ^= v.wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Per-connection pipelining cap: a connection may have at most this
/// many unanswered requests before the reactor stops reading from it
/// (resuming once half have drained). Bounds worker-queue memory to
/// `capacity × MAX_PIPELINE` jobs.
const MAX_PIPELINE: usize = 256;

/// One multiplexed connection: framing buffers, the ordered response
/// slot queue, and liveness bookkeeping.
struct Conn {
    stream: TcpStream,
    /// Guards completions against slab-slot reuse.
    token: u64,
    /// Unprocessed request bytes.
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already scanned for a newline.
    scanned: usize,
    /// Rendered response bytes not yet written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// One slot per outstanding request, in request order; `None` until
    /// its response arrives. Responses flush strictly in order.
    slots: VecDeque<Option<String>>,
    /// Sequence number of `slots.front()`.
    base_seq: u64,
    /// Sequence number the next request will get.
    next_seq: u64,
    /// No more reads: close once every slot and buffer has flushed.
    closing: bool,
    /// Read interest dropped because the pipeline cap was hit.
    paused: bool,
    eof: bool,
    /// Unrecoverable I/O error: drop without flushing.
    dead: bool,
    last_read: Instant,
    last_progress: Instant,
    /// Currently registered (readable, writable) interest.
    interest: (bool, bool),
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Conn {
        let now = Instant::now();
        Conn {
            stream,
            token,
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            wpos: 0,
            slots: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            closing: false,
            paused: false,
            eof: false,
            dead: false,
            last_read: now,
            last_progress: now,
            interest: (true, false),
        }
    }

    /// True when nothing remains to write and nothing can still arrive.
    fn drained(&self) -> bool {
        self.slots.is_empty() && self.wpos == self.wbuf.len()
    }
}

/// One event-loop thread: a poller, a connection slab, and the staging
/// area for outgoing worker batches.
struct Reactor {
    shared: Arc<Shared>,
    rs: Arc<ReactorShared>,
    id: usize,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_token: u64,
    workers: Vec<Sender<Vec<Job>>>,
    /// Per-worker batch under construction during this wakeup.
    staged: Vec<Vec<Job>>,
    control_tx: Sender<ControlJob>,
    events: Events,
    last_sweep: Instant,
}

impl Reactor {
    fn new(
        shared: Arc<Shared>,
        id: usize,
        workers: Vec<Sender<Vec<Job>>>,
        control_tx: Sender<ControlJob>,
    ) -> Reactor {
        let rs = Arc::clone(&shared.reactors[id]);
        let staged = workers.iter().map(|_| Vec::new()).collect();
        Reactor {
            shared,
            rs,
            id,
            conns: Vec::new(),
            free: Vec::new(),
            next_token: 0,
            workers,
            staged,
            control_tx,
            events: Events::new(),
            last_sweep: Instant::now(),
        }
    }

    /// Timeout-sweep cadence: fine enough that a 150 ms test read
    /// timeout fires promptly, coarse enough that 10k idle connections
    /// cost one cheap scan per interval.
    fn sweep_every(&self) -> Duration {
        (self.shared.cfg.read_timeout / 4)
            .clamp(Duration::from_millis(10), Duration::from_millis(100))
    }

    fn run(mut self) {
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                self.drain_and_exit();
                return;
            }
            let timeout = if self.conns.iter().any(Option::is_some) {
                Some(self.sweep_every())
            } else {
                None
            };
            self.events.clear();
            let _ = self.rs.poller.wait(&mut self.events, timeout);
            self.drain_inbox();
            self.apply_completions();
            let ready: Vec<Event> = self.events.iter().collect();
            for ev in ready {
                self.on_event(ev);
            }
            self.sweep_timers();
            self.flush_staged();
        }
    }

    /// Register connections the acceptor handed over.
    fn drain_inbox(&mut self) {
        let incoming: Vec<TcpStream> = {
            let mut inbox = self.rs.inbox.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *inbox)
        };
        for stream in incoming {
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            let slot = match self.free.pop() {
                Some(s) => s,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            let token = self.next_token;
            self.next_token += 1;
            let conn = Conn::new(stream, token);
            if self
                .rs
                .poller
                .add(&conn.stream, Event::readable(slot))
                .is_err()
            {
                pm_obs::error!("serve.register_failed");
                self.free.push(slot);
                self.shared.live_conns.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            self.conns[slot] = Some(conn);
        }
    }

    /// Fill response slots from finished worker/executor jobs and flush
    /// the affected connections.
    fn apply_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut c = self
                .rs
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *c)
        };
        for Completion { reply, line } in done {
            self.shared.note_queue_depth(-1);
            let Some(conn) = self.conns.get_mut(reply.slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.token != reply.token {
                continue; // the slot was reused; the requester is gone
            }
            let idx = (reply.seq - conn.base_seq) as usize;
            if let Some(s) = conn.slots.get_mut(idx) {
                *s = Some(line);
            }
            self.pump(reply.slot);
        }
    }

    fn on_event(&mut self, ev: Event) {
        let slot = ev.key;
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if ev.readable && !conn.paused && !conn.closing {
                read_socket(conn, self.shared.cfg.max_line);
            }
        }
        self.pump(slot);
    }

    /// Drive one connection as far as it can go: extract and handle
    /// complete request lines (unwind-isolated), move ready responses
    /// into the write buffer, write, and either re-arm interest or
    /// close.
    fn pump(&mut self, slot: usize) {
        loop {
            if self.conns.get(slot).is_none_or(Option::is_none) {
                return;
            }
            // A panic in per-connection handling (framing, parsing,
            // inline ops) costs this one connection, never the reactor.
            if catch_unwind(AssertUnwindSafe(|| self.extract_lines(slot))).is_err() {
                self.shared.count.worker_panics.inc();
                pm_obs::error!("serve.connection_panic");
                self.drop_conn(slot);
                return;
            }
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            // Flush responses strictly in request order.
            while let Some(Some(_)) = conn.slots.front() {
                let line = conn.slots.pop_front().flatten().expect("checked Some");
                conn.base_seq += 1;
                conn.wbuf.extend_from_slice(line.as_bytes());
                conn.wbuf.push(b'\n');
            }
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        conn.last_progress = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.wpos == conn.wbuf.len() && !conn.wbuf.is_empty() {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
            if conn.dead || (conn.closing && conn.drained()) {
                self.drop_conn(slot);
                return;
            }
            // Resume a pipeline-capped connection once half its slots
            // have drained; buffered bytes may already hold more lines.
            if conn.paused && !conn.closing && conn.slots.len() <= MAX_PIPELINE / 2 {
                conn.paused = false;
                continue;
            }
            let want = (
                !conn.closing && !conn.paused && !conn.eof,
                conn.wpos < conn.wbuf.len(),
            );
            if want != conn.interest {
                let ev = Event {
                    key: slot,
                    readable: want.0,
                    writable: want.1,
                };
                if self.rs.poller.modify(&conn.stream, ev).is_err() {
                    self.drop_conn(slot);
                } else {
                    conn.interest = want;
                }
            }
            return;
        }
    }

    /// Pull complete lines out of the read buffer and handle each,
    /// respecting the pipeline cap and the line-length bound. Lines are
    /// taken by offset and the handled prefix is dropped once per pass,
    /// so a pass costs O(buffer) however many lines it holds: blank
    /// lines take no pipeline slot, so nothing else bounds their number.
    fn extract_lines(&mut self, slot: usize) {
        let max_line = self.shared.cfg.max_line;
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        // The buffer leaves the connection for the pass, so a line can be
        // a slice of it while `handle_line` borrows the reactor.
        let buf = std::mem::take(&mut conn.rbuf);
        let (mut start, mut scanned) = (0, conn.scanned);
        while let Some(conn) = self.conns[slot].as_mut() {
            if conn.closing || conn.dead {
                break;
            }
            if conn.slots.len() >= MAX_PIPELINE {
                conn.paused = true;
                break;
            }
            let limit = buf.len().min(start + max_line);
            if let Some(p) = buf[scanned..limit].iter().position(|&b| b == b'\n') {
                let line = start..scanned + p;
                (start, scanned) = (line.end + 1, line.end + 1);
                self.handle_line(slot, &buf[line]);
                continue;
            }
            if buf.len() - start >= max_line {
                // Same bound as the old blocking engine: a line of up to
                // max_line bytes *including* its newline is served; no
                // newline within the first max_line bytes is refused.
                self.shared.count.oversized_requests.inc();
                let msg = format!("request line exceeds {max_line} bytes: closing connection");
                self.enqueue_inline(slot, error_line(&msg), true);
                break;
            }
            scanned = buf.len();
            if conn.eof {
                // A final unterminated line (client sent a request and
                // half-closed) is still served.
                if start < buf.len() {
                    let line = start..buf.len();
                    start = buf.len();
                    self.handle_line(slot, &buf[line]);
                }
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.closing = true;
                }
            }
            break;
        }
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.rbuf = buf;
            conn.rbuf.drain(..start);
            conn.scanned = scanned - start;
        }
    }

    /// Handle one request line: answer inline ops immediately, stage
    /// recommend jobs for the worker pool, forward reloads to the
    /// executor.
    fn handle_line(&mut self, slot: usize, bytes: &[u8]) {
        pm_store::faults::apply_handle_panic();
        let Ok(text) = std::str::from_utf8(bytes) else {
            // Unlike every other malformed input this used to close the
            // connection silently; answer and count it like any parse
            // error, then close (binary garbage defeats line framing).
            self.shared.count.parse_errors.inc();
            pm_obs::debug!("serve.parse_error", msg = "request line is not valid UTF-8");
            self.enqueue_inline(
                slot,
                error_line("bad request: request line is not valid UTF-8: closing connection"),
                true,
            );
            return;
        };
        if text.trim().is_empty() {
            return; // blank keep-alive lines are free
        }
        let request = match parse_request(text) {
            Ok(r) => r,
            Err(msg) => {
                self.shared.count.parse_errors.inc();
                pm_obs::debug!("serve.parse_error", msg = msg);
                self.enqueue_inline(slot, error_line(&msg), false);
                return;
            }
        };
        self.shared.count.requests.inc();
        match request {
            Request::Ping => {
                // One snapshot for both fields: generation N is never
                // paired with generation-M rule counts mid-reload.
                let (generation, model) = self.shared.handle.snapshot();
                let line = render(&obj(vec![
                    ("ok", Value::Bool(true)),
                    ("op", Value::Str("pong".into())),
                    ("generation", Value::U64(generation)),
                    ("rules", Value::U64(model.rules().len() as u64)),
                ]));
                self.enqueue_inline(slot, line, false);
            }
            Request::Stats => {
                let line = render(&stats_value(&self.shared));
                self.enqueue_inline(slot, line, false);
            }
            Request::Shutdown => {
                pm_obs::info!("serve.shutdown_requested");
                let line = render(&obj(vec![
                    ("ok", Value::Bool(true)),
                    ("op", Value::Str("bye".into())),
                ]));
                self.enqueue_inline(slot, line, true);
                self.shared.shutdown.store(true, Ordering::Release);
                self.shared.wake_all_reactors();
            }
            // An op the daemon's mode cannot serve is answered
            // immediately — no executor round-trip for a request that
            // cannot work.
            Request::Reload if matches!(self.shared.mode, Mode::Streaming(_)) => {
                let why = "reload unavailable: daemon is in streaming mode — its model is \
                           refit from the stream; send ingest instead";
                self.enqueue_inline(slot, error_line(why), false);
            }
            Request::Ingest { .. } | Request::Checkpoint
                if matches!(self.shared.mode, Mode::File(_)) =>
            {
                let why = match request {
                    Request::Ingest { .. } => ServeError::IngestUnavailable.to_string(),
                    _ => "checkpoint unavailable: daemon is not in streaming mode — start \
                          with --log to enable the sales log and checkpointing"
                        .into(),
                };
                self.enqueue_inline(slot, error_line(&why), false);
            }
            Request::Reload => self.submit_control(slot, ControlOp::Reload),
            Request::Ingest { catalog, txns } => {
                // Enforce the batch caps before admission: an oversized
                // batch never occupies an executor slot. A cap of 0
                // disables that axis.
                let (max_txns, max_bytes) = (
                    self.shared.cfg.max_ingest_txns,
                    self.shared.cfg.max_ingest_bytes,
                );
                if (max_txns > 0 && txns.len() > max_txns)
                    || (max_bytes > 0 && bytes.len() > max_bytes)
                {
                    self.shared.count.ingest_oversized.inc();
                    let err = ServeError::IngestTooLarge {
                        txns: txns.len(),
                        bytes: bytes.len(),
                        max_txns,
                        max_bytes,
                    };
                    pm_obs::debug!(
                        "serve.ingest_oversized",
                        txns = txns.len(),
                        bytes = bytes.len()
                    );
                    self.enqueue_inline(slot, error_line(&err.to_string()), false);
                    return;
                }
                self.submit_control(slot, ControlOp::Ingest(catalog, txns));
            }
            Request::Checkpoint => self.submit_control(slot, ControlOp::Checkpoint),
            Request::Recommend { sales, top, target } => {
                self.shared.count.recommends.inc();
                let Some((token, seq)) = self.reserve_slot(slot) else {
                    return;
                };
                self.shared.note_queue_depth(1);
                let shard = (customer_shard(&sales) % self.workers.len() as u64) as usize;
                self.staged[shard].push(Job {
                    reply: Reply {
                        reactor: self.id,
                        slot,
                        token,
                        seq,
                    },
                    sales,
                    top,
                    target,
                });
                if self.staged[shard].len() >= self.shared.cfg.batch.max(1) {
                    self.send_batch(shard);
                }
            }
        }
    }

    /// Hand a control-plane op to the executor: admit it, reserve its
    /// response slot (releasing the admission if the connection is
    /// gone), and send it.
    fn submit_control(&mut self, slot: usize, op: ControlOp) {
        if !self.admit_exec_job(slot) {
            return;
        }
        let Some((token, seq)) = self.reserve_slot(slot) else {
            self.release_exec_slot();
            return;
        };
        self.shared.note_queue_depth(1);
        let reply = Reply {
            reactor: self.id,
            slot,
            token,
            seq,
        };
        self.control_tx
            .send(ControlJob { reply, op })
            .expect("the executor runs until every reactor has exited");
    }

    /// Admit one control-plane job against [`EXECUTOR_QUEUE_CAP`]. On
    /// rejection the deterministic [`ServeError::ReloadInFlight`] error
    /// line is enqueued and `false` returned; on admission the pending
    /// count is already incremented (undo with
    /// [`Self::release_exec_slot`] if the job cannot be sent after all).
    fn admit_exec_job(&mut self, slot: usize) -> bool {
        // One reactor thread admits at a time per connection, but
        // several reactors race here; `fetch_add` + rollback keeps the
        // cap exact without a lock.
        let pending = self.shared.executor_pending.fetch_add(1, Ordering::AcqRel);
        if pending >= EXECUTOR_QUEUE_CAP as i64 {
            self.release_exec_slot();
            self.shared.count.control_rejected.inc();
            pm_obs::debug!("serve.control_rejected", pending = pending);
            let err = ServeError::ReloadInFlight {
                pending: pending as usize,
            };
            self.enqueue_inline(slot, error_line(&err.to_string()), false);
            return false;
        }
        true
    }

    /// Undo an [`Self::admit_exec_job`] admission.
    fn release_exec_slot(&self) {
        self.shared.executor_pending.fetch_sub(1, Ordering::AcqRel);
    }

    /// Append an already-rendered response in request order.
    fn enqueue_inline(&mut self, slot: usize, line: String, close: bool) {
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.slots.push_back(Some(line));
            conn.next_seq += 1;
            if close {
                conn.closing = true;
            }
        }
    }

    /// Reserve the next in-order response slot for an async request.
    fn reserve_slot(&mut self, slot: usize) -> Option<(u64, u64)> {
        let conn = self.conns[slot].as_mut()?;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.slots.push_back(None);
        Some((conn.token, seq))
    }

    /// Ship one staged batch to its worker.
    fn send_batch(&mut self, shard: usize) {
        let batch = std::mem::take(&mut self.staged[shard]);
        if batch.is_empty() {
            return;
        }
        let n = batch.len() as i64;
        if self.workers[shard].send(batch).is_err() {
            // Only possible during shutdown; the jobs are abandoned and
            // the connections close when the reactor drains.
            self.shared.note_queue_depth(-n);
        }
    }

    /// Ship every non-empty staged batch (end of a wakeup cycle).
    fn flush_staged(&mut self) {
        for shard in 0..self.staged.len() {
            self.send_batch(shard);
        }
    }

    /// Enforce read and write-stall timeouts, coarsely.
    fn sweep_timers(&mut self) {
        if self.last_sweep.elapsed() < self.sweep_every() {
            return;
        }
        self.last_sweep = Instant::now();
        let read_timeout = self.shared.cfg.read_timeout;
        let write_timeout = self.shared.cfg.write_timeout;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            // A client that won't drain its responses is cut loose.
            if conn.wpos < conn.wbuf.len() && conn.last_progress.elapsed() > write_timeout {
                conn.dead = true;
                self.pump(slot);
                continue;
            }
            // Idle timeout only when nothing of the client's is in
            // flight — a connection waiting on its own slow request is
            // busy, not idle.
            if !conn.closing && conn.slots.is_empty() && conn.last_read.elapsed() > read_timeout {
                self.shared.count.read_timeouts.inc();
                pm_obs::debug!("serve.read_timeout");
                self.enqueue_inline(
                    slot,
                    error_line("read timeout: closing idle connection"),
                    true,
                );
                self.pump(slot);
            }
        }
    }

    /// Close and free one connection.
    fn drop_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.rs.poller.delete(&conn.stream);
            self.free.push(slot);
            self.shared.live_conns.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// On shutdown: give in-flight responses a short grace to flush
    /// (the `bye` line, late worker completions), then exit. Idle
    /// connections are dropped unserved, as the blocking engine did.
    fn drain_and_exit(&mut self) {
        self.flush_staged();
        let deadline = Instant::now() + Duration::from_millis(500);
        loop {
            self.apply_completions();
            for slot in 0..self.conns.len() {
                if self.conns[slot].is_some() {
                    self.pump(slot);
                }
            }
            let pending = self.conns.iter().flatten().any(|c| !c.drained() && !c.dead);
            if !pending || Instant::now() > deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Drain the socket into the connection's read buffer. Stops at
/// `max_line` buffered bytes so one client cannot balloon reactor
/// memory; level-triggered readiness re-delivers the rest.
fn read_socket(conn: &mut Conn, max_line: usize) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if conn.rbuf.len() >= max_line {
            return;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                return;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                conn.last_read = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Compute worker: receives request batches, scores each batch against
/// one model snapshot and one matcher index per generation. Rebuilt on
/// reload (generation bump) and after any compute panic (the matcher's
/// scratch is suspect after an unwind).
fn compute_worker_loop(shared: &Arc<Shared>, rx: &Receiver<Vec<Job>>) {
    let mut pending: VecDeque<Job> = VecDeque::new();
    let mut touched = vec![false; shared.reactors.len()];
    'model: loop {
        let (generation, model) = shared.handle.snapshot();
        // An index that cannot even be built (a pathological reloaded
        // model) degrades every answer instead of killing the worker.
        let matcher = match catch_unwind(AssertUnwindSafe(|| Matcher::new(&model))) {
            Ok(m) => Some(m),
            Err(_) => {
                shared.count.worker_panics.inc();
                pm_obs::error!("serve.index_build_panic", generation = generation);
                None
            }
        };
        loop {
            while let Some(job) = pending.pop_front() {
                let rebuild = run_job(shared, &model, matcher.as_ref(), job, &mut touched);
                if rebuild {
                    wake_touched(shared, &mut touched);
                    continue 'model;
                }
            }
            wake_touched(shared, &mut touched);
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(batch) => {
                    pending.extend(batch);
                    if shared.handle.generation() != generation {
                        continue 'model;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if shared.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if shared.handle.generation() != generation {
                        continue 'model;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

/// Wake every reactor that received a completion since the last flush.
fn wake_touched(shared: &Shared, touched: &mut [bool]) {
    for (id, t) in touched.iter_mut().enumerate() {
        if std::mem::take(t) {
            shared.reactors[id].wake();
        }
    }
}

/// Score one job and send its completion. Returns true when the matcher
/// must be rebuilt before the next job.
fn run_job(
    shared: &Shared,
    model: &RuleModel,
    matcher: Option<&Matcher<'_>>,
    job: Job,
    touched: &mut [bool],
) -> bool {
    let _timer = shared.latency.time();
    // Outer isolation: a panic outside the compute section (validation,
    // rendering) costs one answer, not the worker thread.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Err(msg) = validate_sales(model, &job.sales) {
            return (error_line(&msg), false);
        }
        // Resolve the target spec against *this* model snapshot — specs
        // are carried raw because a hot reload can change the catalog.
        let target = match &job.target {
            None => None,
            Some(spec) => {
                match TargetFilter::parse(spec, model.moa().catalog(), model.moa().hierarchy()) {
                    Ok(t) => Some(t),
                    Err(msg) => return (error_line(&msg), false),
                }
            }
        };
        recommend_with_degradation(shared, model, matcher, &job.sales, job.top, target.as_ref())
    }));
    let (line, rebuild) = outcome.unwrap_or_else(|_| {
        shared.count.worker_panics.inc();
        pm_obs::error!("serve.worker_panic");
        (
            error_line("internal error: request handling panicked"),
            true,
        )
    });
    touched[job.reply.reactor] = true;
    job.reply.complete(shared, line);
    rebuild
}

/// The compute section: matcher under a deadline, unwind-isolated.
/// Panics and blown deadlines degrade to the §3.2 default rule — the
/// daemon answers, flags it, counts it, and stays up. A degraded answer
/// ignores `target` (the default rule's head may fall outside it): the
/// response is flagged `degraded`, and serving something beats serving
/// nothing when the matcher is unhealthy.
fn recommend_with_degradation(
    shared: &Shared,
    model: &RuleModel,
    matcher: Option<&Matcher<'_>>,
    sales: &[pm_txn::Sale],
    top: usize,
    target: Option<&TargetFilter>,
) -> (String, bool) {
    let start = Instant::now();
    let computed = catch_unwind(AssertUnwindSafe(|| {
        pm_store::faults::apply_compute_panic();
        pm_store::faults::apply_compute_delay();
        let m = matcher.expect("index build panicked; degrading");
        match target {
            None if top == 1 => vec![m.recommend(sales)],
            _ => m.recommend_top_k(sales, top, target),
        }
    }));
    let elapsed = start.elapsed();

    let (recs, degraded, reason, rebuild) = match computed {
        Ok(recs) if elapsed <= shared.cfg.deadline => (recs, false, "", false),
        Ok(_) => {
            pm_obs::error!("serve.deadline_blown", elapsed_ms = elapsed.as_millis());
            (default_rule_recs(model), true, "deadline", false)
        }
        Err(_) => {
            // The matcher's scratch state is suspect after an unwind;
            // answer from the default rule and rebuild the index.
            pm_obs::error!("serve.matcher_panic");
            (default_rule_recs(model), true, "matcher_panic", true)
        }
    };
    if degraded {
        shared.count.degraded.inc();
    }

    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("degraded", Value::Bool(degraded)),
    ];
    if degraded {
        fields.push(("reason", Value::Str(reason.into())));
    }
    fields.push((
        "recs",
        Value::Seq(recs.iter().map(|r| rec_value(model, r)).collect()),
    ));
    (render(&obj(fields)), rebuild)
}

/// The degraded-mode answer: the default rule `∅ → g`, which is always
/// the last rule of a servable model and matches every customer.
/// Infallible by construction — [`validate_servable`] rejects rule-less
/// models at load time, and even if one slipped through, the answer is
/// an empty recommendation list, not an underflow panic.
fn default_rule_recs(model: &RuleModel) -> Vec<Recommendation> {
    let last = model.rules().len().checked_sub(1);
    debug_assert!(
        last.is_none_or(|idx| model.rules()[idx].is_default),
        "servable models end with the default rule"
    );
    last.map(|idx| model.recommendation(idx))
        .into_iter()
        .collect()
}

/// Control-plane executor: runs reloads, ingests and checkpoints off
/// the serving path, serially in arrival order. The reactors hold the
/// only senders, and no job can end this loop (each runs under
/// [`run_control`]'s unwind boundary), so every submitted job runs; the
/// loop ends once the last reactor has exited at shutdown.
fn control_executor_loop(shared: &Shared, rx: &Receiver<ControlJob>) {
    for ControlJob { reply, op } in rx {
        let line = run_control(shared, op);
        shared.executor_pending.fetch_sub(1, Ordering::AcqRel);
        reply.complete(shared, line).wake();
    }
}

/// A failed control op: the stage that failed, and why.
type Failure = (&'static str, String);

/// Run one control op under one unwind boundary and one fail path: a
/// failure or a panic keeps the current model serving, counts as the
/// op's failure, is logged, and answers an error line.
fn run_control(shared: &Shared, op: ControlOp) -> String {
    let fail = op.fail_path(&shared.count);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        pm_store::faults::apply_control_panic();
        match op {
            ControlOp::Reload => reload(shared),
            ControlOp::Ingest(catalog, txns) => ingest(shared, catalog.as_ref(), &txns),
            ControlOp::Checkpoint => checkpoint(shared),
        }
    }));
    match outcome.unwrap_or_else(|_| Err(("panic", "the control job panicked".into()))) {
        Ok(line) => line,
        Err((what, err)) => {
            fail.failures.inc();
            pm_obs::error!(fail.event, what = what, err = err);
            error_line(&format!("{}: {err}", fail.prefix))
        }
    }
}

/// The swap path reload and ingest share: check the model is servable,
/// swap it in under a new generation, count, move the gauge, log, and
/// answer with the generation, the `extra` field and the rule count.
fn swap_in(
    shared: &Shared,
    op: &'static str,
    swaps: &pm_obs::Counter,
    model: RuleModel,
    extra: Option<(&'static str, Value)>,
) -> Result<String, Failure> {
    validate_servable(&model).map_err(|why| ("validate_model", why))?;
    let rules = model.rules().len() as u64;
    let generation = shared.handle.swap(model);
    swaps.inc();
    shared.generation_gauge.set(generation as i64);
    pm_obs::info!(
        "serve.swapped",
        op = op,
        generation = generation,
        rules = rules
    );
    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("op", Value::Str(op.into())),
        ("generation", Value::U64(generation)),
    ];
    fields.extend(extra);
    fields.push(("rules", Value::U64(rules)));
    Ok(render(&obj(fields)))
}

/// Re-read the daemon's model file and swap it in.
fn reload(shared: &Shared) -> Result<String, Failure> {
    let Mode::File(path) = &shared.mode else {
        unreachable!("reload is admitted only in file mode");
    };
    pm_obs::info!("serve.reload_start", path = path.display());
    let model = load_model(path).map_err(|e| ("load", e.to_string()))?;
    swap_in(shared, "reloaded", &shared.count.reloads, model, None)
}

/// Append a batch to the stream (durable before visible), refit
/// incrementally, and swap the refitted model in.
fn ingest(
    shared: &Shared,
    catalog: Option<&CatalogDelta>,
    txns: &[Transaction],
) -> Result<String, Failure> {
    let mut stream = shared.stream();
    stream
        .append(catalog, txns)
        .map_err(|e| (e.stage(), e.to_string()))?;
    let model = stream.model();
    let n = stream.data().len() as u64;
    swap_in(
        shared,
        "ingested",
        &shared.count.ingests,
        model,
        Some(("transactions", Value::U64(n))),
    )
}

/// Seal the stream into the configured checkpoint file, then compact the
/// log behind it.
fn checkpoint(shared: &Shared) -> Result<String, Failure> {
    let target = shared.cfg.checkpoint.as_deref().ok_or((
        "target",
        "no checkpoint path configured — start with --checkpoint".into(),
    ))?;
    let mut stream = shared.stream();
    let compaction = stream
        .checkpoint(target, true)
        .map_err(|e| (e.stage(), e.to_string()))?;
    let (dropped, retained) = compaction.map_or((0, 0), |c| (c.dropped, c.retained));
    shared.count.checkpoints.inc();
    pm_obs::info!(
        "serve.checkpointed",
        path = target.display(),
        dropped = dropped
    );
    Ok(render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::Str("checkpointed".into())),
        ("generation", Value::U64(shared.handle.generation())),
        ("stream_pos", Value::U64(stream.position())),
        ("dropped", Value::U64(dropped)),
        ("retained", Value::U64(retained)),
    ])))
}

/// The `stats` line: generation and rule count from one snapshot, then
/// every serving counter in table order.
fn stats_value(shared: &Shared) -> Value {
    // One snapshot for generation and rules: during a reload window a
    // client never sees generation N+1 paired with generation-N counts.
    let (generation, model) = shared.handle.snapshot();
    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("generation", Value::U64(generation)),
        ("rules", Value::U64(model.rules().len() as u64)),
    ];
    fields.extend(
        shared
            .count
            .each()
            .map(|(key, _, cell)| (key, Value::U64(cell.get()))),
    );
    obj(fields)
}
