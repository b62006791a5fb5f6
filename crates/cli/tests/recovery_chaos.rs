//! The kill-the-daemon recovery harness (DESIGN.md §17).
//!
//! Two layers of chaos:
//!
//! * a **deterministic crash-point matrix** driving the CLI in-process
//!   with `pm_store::faults` — a torn log append, a full disk under the
//!   checkpoint envelope, a vanished parent directory before the
//!   rename, and the "sealed but never compacted" state a crash between
//!   checkpoint and compaction leaves behind — asserting after every
//!   injected failure that recovery converges on a model byte-identical
//!   to a cold fit that never crashed;
//! * a **real SIGKILL matrix** on the `profit-mining serve` daemon:
//!   kill -9 after each of ingest → checkpoint → ingest, restart on the
//!   same log + checkpoint, and require the recovered daemon's answers
//!   to be byte-identical to an in-process model that never died.

mod common;

use common::{bin, expected_line, recommend_line, tmp_dir, wait_for_addr, Client};
use pm_rules::{MinerConfig, ProfitMode, Support};
use pm_txn::{Sale, Transaction, TransactionSet};
use profit_core::{Checkpoint, CutConfig, IncrementalProfitMiner, ProfitMiner, RuleModel};
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// The exact pipeline `profit-mining` builds for
/// `--minsup 0.03 --max-body 2` (note the CLI's default minimum
/// confidence of 0.5).
fn cli_pipeline() -> ProfitMiner {
    ProfitMiner::new(MinerConfig {
        min_support: Support::Fraction(0.03),
        max_body_len: 2,
        min_confidence: Some(0.5),
        ..MinerConfig::default()
    })
    .with_cut(CutConfig {
        profit_mode: ProfitMode::Profit,
        prune: true,
        ..CutConfig::default()
    })
}

const FIT_FLAGS: [&str; 4] = ["--minsup", "0.03", "--max-body", "2"];

fn cli(args: &[&str]) -> Result<String, pm_cli::CliError> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    pm_cli::run(&argv)
}

fn cli_ok(args: &[&str]) -> String {
    cli(args).unwrap_or_else(|e| panic!("profit-mining {args:?} failed: {e}"))
}

/// Decode the payload sealed inside a `PMCK` envelope.
fn open_checkpoint(path: &Path) -> Checkpoint {
    let bytes = pm_store::checkpoint::load(path).expect("open checkpoint envelope");
    Checkpoint::decode(&bytes).expect("decode checkpoint payload")
}

fn model_json(m: &RuleModel) -> String {
    serde_json::to_string(&m.save()).expect("model serializes")
}

/// The model recovery serves from `ck`: its data re-validated, the
/// miner restored from its caches, and one update.
fn resumed_model(ck: &Checkpoint) -> String {
    let data = TransactionSet::from_json(&ck.data_json).expect("checkpoint data validates");
    let mut miner = IncrementalProfitMiner::restore(cli_pipeline(), &data, &ck.miner)
        .expect("checkpoint miner restores");
    model_json(&miner.update(&data))
}

/// Every deterministic crash point in ingest → checkpoint → compact,
/// driven through the real CLI commands with fault injection. After
/// each injected failure the retried operation must converge on a
/// checkpoint whose model is byte-identical to a cold fit on the
/// concatenated stream — a crash can cost a retry, never data.
#[test]
fn crash_point_matrix_recovers_byte_identically() {
    let _guard = pm_store::faults::test_lock();
    let dir = tmp_dir("matrix");
    let full = dir.join("full.json").display().to_string();
    let head = dir.join("head.json").display().to_string();
    let tail = dir.join("tail.json").display().to_string();
    let b1 = dir.join("b1.json").display().to_string();
    let b2 = dir.join("b2.json").display().to_string();
    let log = dir.join("sales.log").display().to_string();
    let ck = dir.join("ck.pmck").display().to_string();

    cli_ok(&[
        "gen", "--out", &full, "--txns", "260", "--items", "50", "--seed", "77",
    ]);
    cli_ok(&[
        "split", "--data", &full, "--at", "160", "--head", &head, "--tail", &tail,
    ]);
    let tail_txns: Vec<Transaction> =
        serde_json::from_str(&std::fs::read_to_string(&tail).unwrap()).unwrap();
    let (a, b) = tail_txns.split_at(50);
    std::fs::write(&b1, serde_json::to_string(&a).unwrap()).unwrap();
    std::fs::write(&b2, serde_json::to_string(&b).unwrap()).unwrap();
    let head_data = TransactionSet::from_json(&std::fs::read_to_string(&head).unwrap()).unwrap();
    let mut mid_data = head_data.clone();
    mid_data.extend_from(a).unwrap();
    let full_data = TransactionSet::from_json(&std::fs::read_to_string(&full).unwrap()).unwrap();

    // Crash point 1: the log append tears mid-record. The retry
    // truncates the torn tail and lands the batch. (Create the empty
    // log first so the fault hits the append, not the header write.)
    drop(pm_store::log::SalesLog::open(&log).expect("create empty log"));
    pm_store::faults::set_torn_write_at(Some(9));
    let err = cli(&["ingest", "--data", &head, "--log", &log, "--batch", &b1]).unwrap_err();
    pm_store::faults::set_torn_write_at(None);
    assert!(err.to_string().contains("injected torn write"), "{err}");
    let out = cli_ok(&["ingest", "--data", &head, "--log", &log, "--batch", &b1]);
    assert!(out.contains("recovered a torn tail of 9 bytes"), "{out}");
    assert!(out.contains("stream now 210 transactions"), "{out}");

    // Crash point 2: the disk fills while the checkpoint envelope is
    // written. No checkpoint may appear, the log must stay whole, and
    // the retry must seal the same state a never-crashed run would.
    pm_store::faults::set_disk_full_at(Some(16));
    let mut ck_args = vec!["checkpoint", "--data", &head, "--log", &log, "--out", &ck];
    ck_args.extend_from_slice(&FIT_FLAGS);
    ck_args.push("--no-compact");
    let err = cli(&ck_args).unwrap_err();
    pm_store::faults::set_disk_full_at(None);
    assert!(err.to_string().contains("No space left"), "{err}");
    assert!(
        !Path::new(&ck).exists(),
        "failed seal must not leave a file"
    );
    let out = cli_ok(&ck_args);
    assert!(out.contains("cold-fitted the base dataset"), "{out}");
    assert!(out.contains("log left uncompacted"), "{out}");
    let sealed_mid = open_checkpoint(Path::new(&ck));
    assert_eq!(sealed_mid.stream_pos, 1);
    assert_eq!(
        resumed_model(&sealed_mid),
        model_json(&cli_pipeline().fit(&mid_data)),
        "the model resumed after a crashed seal must equal the cold fit"
    );

    // The un-compacted checkpoint IS the crash-between-seal-and-compact
    // state: the envelope exists and the log still holds everything.
    // Continue the stream and let the next checkpoint skip the
    // duplicate prefix and compact.
    let out = cli_ok(&["ingest", "--data", &head, "--log", &log, "--batch", &b2]);
    assert!(out.contains("stream now 260 transactions"), "{out}");

    // Crash point 3: the process dies mid-way through writing the new
    // envelope's temp file — the rename never runs, so the previous
    // envelope must survive byte-for-byte.
    let sealed_bytes = std::fs::read(&ck).unwrap();
    pm_store::faults::set_torn_write_at(Some(32));
    let mut ck_args = vec!["checkpoint", "--data", &head, "--log", &log, "--out", &ck];
    ck_args.extend_from_slice(&FIT_FLAGS);
    let err = cli(&ck_args).unwrap_err();
    pm_store::faults::set_torn_write_at(None);
    assert!(err.to_string().contains("injected torn write"), "{err}");
    assert!(
        std::fs::read(&ck).unwrap() == sealed_bytes,
        "a failed re-seal must leave the old envelope intact"
    );

    // Recovery: the same command resumes from the surviving envelope,
    // replays the one tail record, seals, and compacts.
    let out = cli_ok(&ck_args);
    assert!(
        out.contains("resumed from the existing checkpoint"),
        "{out}"
    );
    assert!(out.contains("replayed 1 tail records"), "{out}");
    assert!(out.contains("dropped 2 records, retained 0"), "{out}");
    let sealed_full = open_checkpoint(Path::new(&ck));
    assert_eq!(sealed_full.stream_pos, 2);
    assert_eq!(
        resumed_model(&sealed_full),
        model_json(&cli_pipeline().fit(&full_data)),
        "the recovered checkpoint must resume to the cold full-stream fit"
    );
    assert_eq!(
        sealed_full.data_json,
        serde_json::to_string(&full_data).unwrap()
    );

    // Checkpointing the (now compacted, empty-tail) stream again is a
    // byte-stable no-op: resume, replay nothing, seal the same bytes.
    let before = std::fs::read(&ck).unwrap();
    let out = cli_ok(&ck_args);
    assert!(out.contains("replayed 0 tail records"), "{out}");
    assert_eq!(
        std::fs::read(&ck).unwrap(),
        before,
        "re-checkpointing an unchanged stream must reproduce the envelope bytes"
    );

    // A compacted log without its checkpoint is typed refusal territory.
    let err = cli(&[
        "fit",
        "--data",
        &head,
        "--out",
        &dir.join("m.pm").display().to_string(),
        "--log",
        &log,
    ])
    .unwrap_err();
    assert!(err.to_string().contains("compacted to base"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    /// A failed assertion must not leave the spawned daemon running.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Start a streaming daemon; a clean shutdown writes its `--metrics`
    /// dump to `metrics.json` beside `addr_file`.
    fn start(data: &str, log: &str, ck: &str, addr_file: &Path) -> Daemon {
        let _ = std::fs::remove_file(addr_file);
        let metrics = addr_file.with_file_name("metrics.json");
        let mut args = vec![
            "serve",
            "--data",
            data,
            "--log",
            log,
            "--checkpoint",
            ck,
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--workers",
            "2",
            "--io-threads",
            "1",
            "--metrics",
            metrics.to_str().unwrap(),
        ];
        args.extend_from_slice(&FIT_FLAGS);
        let mut child = Command::new(bin())
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        let addr = wait_for_addr(addr_file, &mut child);
        Daemon { child, addr }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr)
    }

    /// SIGKILL — no shutdown handshake, no flush, nothing.
    fn kill(mut self) {
        self.child.kill().expect("kill -9 the daemon");
        self.child.wait().expect("reap the killed daemon");
    }

    fn shutdown(mut self, c: &mut Client) {
        assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
        let status = self.child.wait().expect("daemon exit");
        assert!(status.success(), "clean shutdown must exit 0");
    }
}

fn assert_serves(daemon: &Daemon, model: &RuleModel, customers: &[Vec<Sale>], at: &str) {
    let mut c = daemon.connect();
    for customer in customers {
        assert_eq!(
            c.send(&recommend_line(customer)),
            expected_line(model, customer),
            "recovered daemon diverges from the never-crashed model ({at})"
        );
    }
}

/// kill -9 the real daemon after every stage of
/// ingest → checkpoint(+compact) → ingest, restarting on the same log
/// and checkpoint each time. Every recovered daemon must answer
/// byte-identically to the model a never-crashed process would serve.
#[test]
fn sigkilled_daemon_recovers_byte_identically_at_every_stage() {
    let _guard = pm_store::faults::test_lock();
    let dir = tmp_dir("sigkill");
    let full = dir.join("full.json").display().to_string();
    let head = dir.join("head.json").display().to_string();
    let tail = dir.join("tail.json").display().to_string();
    let log = dir.join("sales.log").display().to_string();
    let ck = dir.join("ck.pmck").display().to_string();
    let addr_file = dir.join("addr.txt");

    let out = Command::new(bin())
        .args([
            "gen", "--out", &full, "--txns", "300", "--items", "60", "--seed", "91",
        ])
        .output()
        .expect("gen");
    assert!(out.status.success());
    let out = Command::new(bin())
        .args([
            "split", "--data", &full, "--at", "200", "--head", &head, "--tail", &tail,
        ])
        .output()
        .expect("split");
    assert!(out.status.success());

    let head_data = TransactionSet::from_json(&std::fs::read_to_string(&head).unwrap()).unwrap();
    let tail_txns: Vec<Transaction> =
        serde_json::from_str(&std::fs::read_to_string(&tail).unwrap()).unwrap();
    let (b1, b2) = tail_txns.split_at(50);
    let mut mid_data = head_data.clone();
    mid_data.extend_from(b1).unwrap();
    let mut full_data = mid_data.clone();
    full_data.extend_from(b2).unwrap();
    let model_mid = cli_pipeline().fit(&mid_data);
    let model_full = cli_pipeline().fit(&full_data);
    let customers: Vec<Vec<Sale>> = full_data.transactions()[260..270]
        .iter()
        .map(|t| t.non_target_sales().to_vec())
        .collect();

    // Stage 1: ingest a durable batch, then die without warning.
    let daemon = Daemon::start(&head, &log, &ck, &addr_file);
    let mut c = daemon.connect();
    let resp = c.send(&pm_serve::protocol::ingest_line(None, b1));
    assert!(resp.contains(r#""op":"ingested""#), "{resp}");
    daemon.kill();

    // Restart replays the log (no checkpoint yet) — same model.
    let daemon = Daemon::start(&head, &log, &ck, &addr_file);
    assert_serves(&daemon, &model_mid, &customers, "after SIGKILL post-ingest");

    // Stage 2: checkpoint (seals + compacts), then die.
    let mut c = daemon.connect();
    let resp = c.send(r#"{"op":"checkpoint"}"#);
    assert!(resp.contains(r#""op":"checkpointed""#), "{resp}");
    assert!(resp.contains(r#""dropped":1"#), "{resp}");
    daemon.kill();

    // Restart restores the envelope with an empty log tail.
    let daemon = Daemon::start(&head, &log, &ck, &addr_file);
    assert_serves(
        &daemon,
        &model_mid,
        &customers,
        "after SIGKILL post-checkpoint",
    );

    // Stage 3: ingest on top of the checkpoint, then die.
    let mut c = daemon.connect();
    let resp = c.send(&pm_serve::protocol::ingest_line(None, b2));
    assert!(resp.contains(r#""op":"ingested""#), "{resp}");
    daemon.kill();

    // Restart restores the envelope and replays the one tail record.
    let daemon = Daemon::start(&head, &log, &ck, &addr_file);
    assert_serves(
        &daemon,
        &model_full,
        &customers,
        "after SIGKILL post-tail-ingest",
    );

    // The survivor still checkpoints and shuts down cleanly. Its
    // `--metrics` dump times each step of the resume it started with.
    let mut c = daemon.connect();
    let resp = c.send(r#"{"op":"checkpoint"}"#);
    assert!(resp.contains(r#""op":"checkpointed""#), "{resp}");
    daemon.shutdown(&mut c);
    let dump = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics dump");
    for step in [
        "log_open",
        "ckpt_read",
        "ckpt_decode",
        "data_decode",
        "restore",
        "tail_apply",
    ] {
        let span = format!(r#"{{"phase": "recover.{step}""#);
        assert!(dump.contains(&span), "no {span} in {dump}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Generate a dataset, split it at `at`, and cut the tail into two batch
/// files; returns the head path and the two batch paths.
fn split_stream(dir: &Path, txns: &str, at: &str, seed: &str) -> (String, String, String) {
    let path = |name: &str| dir.join(name).display().to_string();
    let (full, head, tail) = (path("full.json"), path("head.json"), path("tail.json"));
    cli_ok(&[
        "gen", "--out", &full, "--txns", txns, "--items", "60", "--seed", seed,
    ]);
    cli_ok(&[
        "split", "--data", &full, "--at", at, "--head", &head, "--tail", &tail,
    ]);
    let tail_txns: Vec<Transaction> =
        serde_json::from_str(&std::fs::read_to_string(&tail).unwrap()).unwrap();
    let (a, b) = tail_txns.split_at(tail_txns.len() / 2);
    let (b1, b2) = (path("b1.json"), path("b2.json"));
    std::fs::write(&b1, serde_json::to_string(&a).unwrap()).unwrap();
    std::fs::write(&b2, serde_json::to_string(&b).unwrap()).unwrap();
    (head, b1, b2)
}

fn assert_same_bytes(cli_ck: &str, daemon_ck: &str, at: &str) {
    let (a, b) = (
        std::fs::read(cli_ck).unwrap(),
        std::fs::read(daemon_ck).unwrap(),
    );
    assert!(
        a == b,
        "{at}: the CLI sealed {} bytes, the daemon {} bytes",
        a.len(),
        b.len()
    );
}

/// The CLI verb and the daemon recover through the same code, so for the
/// same base, log and fit flags they seal the same envelope — on the
/// cold path (replay, then one fit) and again on the resume path
/// (checkpoint plus a one-record tail).
#[test]
fn cli_and_daemon_seal_identical_checkpoints() {
    let _guard = pm_store::faults::test_lock();
    let dir = tmp_dir("same-seal");
    let path = |name: &str| dir.join(name).display().to_string();
    let (head, b1, b2) = split_stream(&dir, "300", "200", "97");
    let (log, daemon_log) = (path("cli.log"), path("daemon.log"));
    let (ck, daemon_ck) = (path("cli.pmck"), path("daemon.pmck"));
    cli_ok(&["ingest", "--data", &head, "--log", &log, "--batch", &b1]);
    std::fs::copy(&log, &daemon_log).unwrap();
    let mut ck_args = vec!["checkpoint", "--data", &head, "--log", &log, "--out", &ck];
    ck_args.extend_from_slice(&FIT_FLAGS);

    // The CLI leaves its log uncompacted so `ingest` can extend it below.
    let out = cli_ok(&[ck_args.as_slice(), &["--no-compact"]].concat());
    assert!(out.contains("cold-fitted the base dataset"), "{out}");
    let daemon = Daemon::start(&head, &daemon_log, &daemon_ck, &dir.join("addr.txt"));
    let mut c = daemon.connect();
    let resp = c.send(r#"{"op":"checkpoint"}"#);
    assert!(resp.contains(r#""op":"checkpointed""#), "{resp}");
    assert_same_bytes(&ck, &daemon_ck, "cold path");

    cli_ok(&["ingest", "--data", &head, "--log", &log, "--batch", &b2]);
    let out = cli_ok(&ck_args);
    assert!(
        out.contains("resumed from the existing checkpoint"),
        "{out}"
    );
    let batch: Vec<Transaction> =
        serde_json::from_str(&std::fs::read_to_string(&b2).unwrap()).unwrap();
    let resp = c.send(&pm_serve::protocol::ingest_line(None, &batch));
    assert!(resp.contains(r#""op":"ingested""#), "{resp}");
    let resp = c.send(r#"{"op":"checkpoint"}"#);
    assert!(resp.contains(r#""op":"checkpointed""#), "{resp}");
    daemon.shutdown(&mut c);
    assert_same_bytes(&ck, &daemon_ck, "resume path");
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI verb recovers like a restarting daemon: a corrupt `--out`
/// falls back to full-log replay while the log's base is 0, and is a
/// typed refusal once the log was compacted.
#[test]
fn checkpoint_verb_falls_back_on_a_corrupt_out_only_while_the_log_is_whole() {
    let _guard = pm_store::faults::test_lock();
    let dir = tmp_dir("corrupt-out");
    let path = |name: &str| dir.join(name).display().to_string();
    let (head, b1, _) = split_stream(&dir, "300", "200", "91");
    let (log, ck) = (path("sales.log"), path("ck.pmck"));
    cli_ok(&["ingest", "--data", &head, "--log", &log, "--batch", &b1]);
    let mut ck_args = vec!["checkpoint", "--data", &head, "--log", &log, "--out", &ck];
    ck_args.extend_from_slice(&FIT_FLAGS);

    std::fs::write(&ck, b"not a checkpoint").unwrap();
    let out = cli_ok(&ck_args);
    assert!(out.contains("cold-fitted the base dataset"), "{out}");
    assert!(out.contains("dropped 1 records, retained 0"), "{out}");
    let mut stream = TransactionSet::from_json(&std::fs::read_to_string(&head).unwrap()).unwrap();
    let batch: Vec<Transaction> =
        serde_json::from_str(&std::fs::read_to_string(&b1).unwrap()).unwrap();
    stream.extend_from(&batch).unwrap();
    assert_eq!(
        resumed_model(&open_checkpoint(Path::new(&ck))),
        model_json(&cli_pipeline().fit(&stream)),
        "the fallback must seal a checkpoint that resumes to the cold fit on the whole stream"
    );
    let log_bytes = std::fs::read(&log).unwrap();

    std::fs::write(&ck, b"still not a checkpoint").unwrap();
    let err = cli(&ck_args).unwrap_err().to_string();
    assert!(err.contains("compacted to base 1"), "{err}");
    assert!(err.contains("cannot be rebuilt"), "{err}");
    assert_eq!(
        std::fs::read(&log).unwrap(),
        log_bytes,
        "a refusal leaves the log"
    );
    std::fs::remove_dir_all(&dir).ok();
}
