//! Streaming-ingestion tests: a live daemon in streaming mode, driven
//! over real TCP — wire ingests that append to the sales log and
//! hot-swap the model, restart replay from the log, rejected batches
//! that leave the stream untouched, and the control-plane admission
//! cap that bounds overlapping reloads deterministically.
//!
//! The fault hooks are process-global, so every test holds
//! `pm_store::faults::test_lock()` for its whole body.

mod common;

use common::{expected_line, recommend_line, tmp_dir, Client};
use pm_datagen::DatasetConfig;
use pm_rules::{MinerConfig, Support};
use pm_serve::protocol::{ingest_line, obj, render};
use pm_serve::{ServeConfig, Server};
use pm_store::faults;
use pm_txn::{Sale, Transaction, TransactionSet};
use profit_core::{CutConfig, ProfitMiner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Serialize, Value};

fn pipeline() -> ProfitMiner {
    ProfitMiner::new(MinerConfig {
        min_support: Support::Fraction(0.03),
        max_body_len: 2,
        ..MinerConfig::default()
    })
    .with_cut(CutConfig::default())
}

/// The full stream, its head (the daemon's base dataset), and the two
/// delta batches the tests ingest over the wire.
struct Stream {
    full: TransactionSet,
    head: TransactionSet,
    batches: [Vec<Transaction>; 2],
}

fn stream(seed: u64) -> Stream {
    let full: TransactionSet = DatasetConfig::dataset_i()
        .with_transactions(400)
        .with_items(60)
        .generate(&mut StdRng::seed_from_u64(seed));
    let head = full.subset(&(0..300).collect::<Vec<usize>>());
    let txns = full.transactions();
    Stream {
        head,
        batches: [txns[300..350].to_vec(), txns[350..400].to_vec()],
        full,
    }
}

/// The ISSUE's e2e: append sales over the wire, watch the generation
/// bump, and get post-swap recommendations byte-identical to an offline
/// fit on the concatenated data — then restart from the log and get the
/// same model again from replay alone.
#[test]
fn wire_ingests_hot_swap_to_the_concatenated_batch_fit() {
    let _guard = faults::test_lock();
    let s = stream(7);
    let full_model = pipeline().fit(&s.full);
    let head_model = pipeline().fit(&s.head);
    let customers: Vec<Vec<Sale>> = s
        .full
        .transactions()
        .iter()
        .skip(310)
        .take(20)
        .map(|t| t.non_target_sales().to_vec())
        .collect();

    let dir = tmp_dir("e2e");
    let log = dir.join("sales.log");
    let server = Server::start_streaming(
        "127.0.0.1:0",
        s.head.clone(),
        &log,
        pipeline(),
        ServeConfig::default(),
    )
    .unwrap();
    let mut c = Client::connect(server.addr());

    // Before any ingest the daemon serves the head-only model.
    assert_eq!(server.generation(), 1);
    assert_eq!(
        c.send(&recommend_line(&customers[0])),
        expected_line(&head_model, &customers[0])
    );

    // Two wire ingests: each appends to the log, refits incrementally,
    // and swaps the model under a bumped generation.
    let resp = c.send(&ingest_line(None, &s.batches[0]));
    assert!(resp.contains(r#""op":"ingested""#), "{resp}");
    assert!(resp.contains(r#""generation":2"#), "{resp}");
    assert!(resp.contains(r#""transactions":350"#), "{resp}");
    let resp = c.send(&ingest_line(None, &s.batches[1]));
    assert!(resp.contains(r#""generation":3"#), "{resp}");
    assert!(resp.contains(r#""transactions":400"#), "{resp}");
    assert_eq!(server.generation(), 3);

    // Post-swap answers are byte-identical to the offline fit on the
    // full 400-transaction stream — the incremental model IS the batch
    // model, not an approximation of it.
    for customer in &customers {
        assert_eq!(
            c.send(&recommend_line(customer)),
            expected_line(&full_model, customer)
        );
    }

    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    let summary = server.join();
    assert_eq!(summary.ingests, 2);

    // Restart on the same log: replay alone reconstructs the stream and
    // the daemon comes up already serving the full-stream model.
    let server = Server::start_streaming(
        "127.0.0.1:0",
        s.head.clone(),
        &log,
        pipeline(),
        ServeConfig::default(),
    )
    .unwrap();
    let mut c = Client::connect(server.addr());
    for customer in &customers {
        assert_eq!(
            c.send(&recommend_line(customer)),
            expected_line(&full_model, customer)
        );
    }
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_on_a_model_file_daemon_is_refused_and_harmless() {
    let _guard = faults::test_lock();
    let s = stream(11);
    let model = pipeline().fit(&s.head);
    let dir = tmp_dir("nostream");
    let path = dir.join("model.pm");
    pm_store::save_sealed(
        &path,
        serde_json::to_string(&model.save()).unwrap().as_bytes(),
    )
    .unwrap();

    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());

    let resp = c.send(&ingest_line(None, &s.batches[0]));
    assert!(resp.contains("ingest unavailable"), "{resp}");
    assert!(resp.contains("streaming mode"), "{resp}");

    // The refusal is inline: no generation bump, connection still live.
    assert_eq!(server.generation(), 1);
    let customer = s.head.transactions()[0].non_target_sales().to_vec();
    assert_eq!(
        c.send(&recommend_line(&customer)),
        expected_line(&model, &customer)
    );
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    let summary = server.join();
    assert_eq!(summary.ingests, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A streaming daemon's model comes from its stream, so it refuses
/// `reload` inline, the way a model-file daemon refuses `ingest`. A bare
/// `reload` used to read the sales log as a model, and one naming a
/// model swapped in a model the stream never produced.
#[test]
fn reload_on_a_streaming_daemon_is_refused_and_harmless() {
    let _guard = faults::test_lock();
    let s = stream(13);
    let head_model = pipeline().fit(&s.head);
    let dir = tmp_dir("noreload");
    let (log, other) = (dir.join("sales.log"), dir.join("other.pm"));
    let foreign = serde_json::to_string(&pipeline().fit(&s.full).save()).unwrap();
    pm_store::save_sealed(&other, foreign.as_bytes()).unwrap();
    let server = Server::start_streaming(
        "127.0.0.1:0",
        s.head.clone(),
        &log,
        pipeline(),
        ServeConfig::default(),
    )
    .unwrap();
    let log_bytes = std::fs::read(&log).unwrap();
    let mut c = Client::connect(server.addr());

    let resp = c.send(r#"{"op":"reload"}"#);
    assert!(resp.contains("reload unavailable"), "{resp}");
    assert!(resp.contains("streaming mode"), "{resp}");
    let named = render(&obj(vec![
        ("op", Value::Str("reload".into())),
        ("model", Value::Str(other.display().to_string())),
    ]));
    let resp = c.send(&named);
    assert!(resp.starts_with(r#"{"ok":false"#), "{resp}");

    assert_eq!(server.generation(), 1);
    let customer = s.head.transactions()[0].non_target_sales().to_vec();
    assert_eq!(
        c.send(&recommend_line(&customer)),
        expected_line(&head_model, &customer)
    );
    let stats = c.send(r#"{"op":"stats"}"#);
    assert!(stats.contains(r#""reload_failures":0"#), "{stats}");
    assert_eq!(std::fs::read(&log).unwrap(), log_bytes);
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    assert_eq!(server.join().reloads, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The wire names no files. A `checkpoint` naming a path used to seal
/// the stream over whatever file was there. Now the line is refused, the
/// named file stays byte-identical, the log is not compacted, and a bare
/// `checkpoint` writes only the configured file.
#[test]
fn a_checkpoint_naming_a_file_leaves_it_byte_identical() {
    let _guard = faults::test_lock();
    let s = stream(17);
    let dir = tmp_dir("victim");
    let (log, ck, victim) = (
        dir.join("sales.log"),
        dir.join("ck.pmck"),
        dir.join("victim.txt"),
    );
    std::fs::write(&victim, b"do not touch\n").unwrap();
    let cfg = ServeConfig {
        checkpoint: Some(ck.clone()),
        ..ServeConfig::default()
    };
    let server =
        Server::start_streaming("127.0.0.1:0", s.head.clone(), &log, pipeline(), cfg).unwrap();
    let mut c = Client::connect(server.addr());
    assert!(c
        .send(&ingest_line(None, &s.batches[0]))
        .contains(r#""op":"ingested""#));
    let log_bytes = std::fs::read(&log).unwrap();

    for key in ["path", "model"] {
        let named = render(&obj(vec![
            ("op", Value::Str("checkpoint".into())),
            (key, Value::Str(victim.display().to_string())),
        ]));
        let resp = c.send(&named);
        assert!(resp.starts_with(r#"{"ok":false"#), "{resp}");
        assert!(resp.contains("takes no"), "{resp}");
    }
    assert_eq!(std::fs::read(&victim).unwrap(), b"do not touch\n");
    assert!(!ck.exists(), "a refused checkpoint must write nothing");
    assert_eq!(std::fs::read(&log).unwrap(), log_bytes);

    let resp = c.send(r#"{"op":"checkpoint"}"#);
    assert!(resp.contains(r#""op":"checkpointed""#), "{resp}");
    assert!(ck.exists());
    assert_eq!(std::fs::read(&victim).unwrap(), b"do not touch\n");
    let stats = c.send(r#"{"op":"stats"}"#);
    assert!(stats.contains(r#""checkpoints":1"#), "{stats}");
    assert!(stats.contains(r#""checkpoint_failures":0"#), "{stats}");
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejected_batches_leave_stream_log_and_model_untouched() {
    let _guard = faults::test_lock();
    let s = stream(23);
    let dir = tmp_dir("reject");
    let log = dir.join("sales.log");
    let server = Server::start_streaming(
        "127.0.0.1:0",
        s.head.clone(),
        &log,
        pipeline(),
        ServeConfig::default(),
    )
    .unwrap();
    let mut c = Client::connect(server.addr());
    let logged = || std::fs::metadata(&log).unwrap().len();
    let empty_log = logged();

    // An unknown item fails stream validation before anything is made
    // durable: the log must not grow and the model must not swap.
    let bad = Transaction::new(
        vec![Sale::new(pm_txn::ItemId(999_999), pm_txn::CodeId(0), 1)],
        *s.batches[0][0].target_sale(),
    );
    let resp = c.send(&ingest_line(None, &[bad]));
    assert!(
        resp.contains("ingest rejected, keeping current model"),
        "{resp}"
    );
    assert!(resp.contains("unknown item"), "{resp}");
    assert_eq!(server.generation(), 1);
    assert_eq!(
        logged(),
        empty_log,
        "failed validation must not touch the log"
    );

    // An empty batch is refused at parse time, before the executor.
    let resp = c.send(r#"{"op":"ingest","txns":[]}"#);
    assert!(resp.contains("nothing to ingest"), "{resp}");

    // The stream is not poisoned: a good batch still lands.
    let resp = c.send(&ingest_line(None, &s.batches[0]));
    assert!(resp.contains(r#""generation":2"#), "{resp}");
    assert!(logged() > empty_log);

    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    let summary = server.join();
    assert_eq!(summary.ingests, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The bugfix regression: overlapping reloads used to pile up on the
/// executor channel without bound. Now at most `EXECUTOR_QUEUE_CAP`
/// control-plane jobs may be queued or running; the rest are refused
/// immediately with a typed error, and every accepted job completes.
#[test]
fn overlapping_reloads_cap_deterministically_at_the_queue_depth() {
    let _guard = faults::test_lock();
    let s = stream(31);
    let model = pipeline().fit(&s.head);
    let dir = tmp_dir("inflight");
    let path = dir.join("model.pm");
    pm_store::save_sealed(
        &path,
        serde_json::to_string(&model.save()).unwrap().as_bytes(),
    )
    .unwrap();
    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let addr = server.addr();

    // Every reload now re-reads the model file slowly, so a burst of
    // concurrent reloads stacks up on the single executor.
    faults::set_read_delay_ms(200);
    let responses: Vec<String> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..12)
            .map(|_| {
                sc.spawn(move || {
                    let mut c = Client::connect(addr);
                    c.send(r#"{"op":"reload"}"#)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    faults::set_read_delay_ms(0);

    let accepted = responses
        .iter()
        .filter(|r| r.contains(r#""op":"reloaded""#))
        .count();
    let rejected = responses
        .iter()
        .filter(|r| r.contains("reload in flight"))
        .count();
    assert_eq!(
        (accepted, rejected),
        (
            pm_serve::EXECUTOR_QUEUE_CAP,
            12 - pm_serve::EXECUTOR_QUEUE_CAP
        ),
        "{responses:?}"
    );
    // Every accepted reload really ran: one generation bump each.
    assert_eq!(server.generation(), 1 + pm_serve::EXECUTOR_QUEUE_CAP as u64);

    // The cap clears once the queue drains: the next reload is accepted.
    let mut c = Client::connect(addr);
    let resp = c.send(r#"{"op":"reload"}"#);
    assert!(resp.contains(r#""op":"reloaded""#), "{resp}");

    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    let summary = server.join();
    assert_eq!(summary.reloads, pm_serve::EXECUTOR_QUEUE_CAP as u64 + 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// One full checkpoint lifecycle: ingest, checkpoint (which compacts
/// the log), ingest a tail, restart — and
/// answer `recommend` and `stats` byte-identically to a daemon that
/// recovered the same stream by replaying its whole (uncompacted) log.
#[test]
fn checkpoint_restart_matches_full_log_replay_byte_for_byte() {
    let _guard = faults::test_lock();
    let s = stream(43);
    let full_model = pipeline().fit(&s.full);
    let customers: Vec<Vec<Sale>> = s
        .full
        .transactions()
        .iter()
        .skip(320)
        .take(10)
        .map(|t| t.non_target_sales().to_vec())
        .collect();

    let dir = tmp_dir("ck");
    let (log_a, log_b, ck) = (dir.join("a.log"), dir.join("b.log"), dir.join("ck.pmck"));
    let cfg_a = || ServeConfig {
        checkpoint: Some(ck.clone()),
        ..ServeConfig::default()
    };

    // Daemon A: ingest, checkpoint (compacting the log), ingest.
    let server =
        Server::start_streaming("127.0.0.1:0", s.head.clone(), &log_a, pipeline(), cfg_a())
            .unwrap();
    let mut c = Client::connect(server.addr());
    assert!(c
        .send(&ingest_line(None, &s.batches[0]))
        .contains(r#""generation":2"#));
    let resp = c.send(r#"{"op":"checkpoint"}"#);
    assert!(resp.contains(r#""op":"checkpointed""#), "{resp}");
    assert!(resp.contains(r#""stream_pos":1"#), "{resp}");
    assert!(resp.contains(r#""dropped":1"#), "{resp}");
    assert!(resp.contains(r#""retained":0"#), "{resp}");
    assert!(c
        .send(&ingest_line(None, &s.batches[1]))
        .contains(r#""generation":3"#));
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    assert_eq!(server.join().ingests, 2);

    // Daemon B: the same stream, never checkpointed.
    let server = Server::start_streaming(
        "127.0.0.1:0",
        s.head.clone(),
        &log_b,
        pipeline(),
        ServeConfig::default(),
    )
    .unwrap();
    let mut c = Client::connect(server.addr());
    for b in &s.batches {
        assert!(c.send(&ingest_line(None, b)).contains(r#""op":"ingested""#));
    }
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    server.join();

    // A compacted log alone cannot rebuild the stream: restarting
    // without the checkpoint is a typed refusal, not silent data loss.
    let err = Server::start_streaming(
        "127.0.0.1:0",
        s.head.clone(),
        &log_a,
        pipeline(),
        ServeConfig::default(),
    )
    .err()
    .expect("compacted log without checkpoint must refuse to start");
    assert!(err.to_string().contains("compacted to base 1"), "{err}");

    // Restart both recovery paths and interrogate them identically.
    let a = Server::start_streaming("127.0.0.1:0", s.head.clone(), &log_a, pipeline(), cfg_a())
        .unwrap();
    let b = Server::start_streaming(
        "127.0.0.1:0",
        s.head.clone(),
        &log_b,
        pipeline(),
        ServeConfig::default(),
    )
    .unwrap();
    let mut ca = Client::connect(a.addr());
    let mut cb = Client::connect(b.addr());
    for customer in &customers {
        let line = recommend_line(customer);
        let (ra, rb) = (ca.send(&line), cb.send(&line));
        assert_eq!(ra, rb, "checkpoint+tail vs full replay");
        assert_eq!(ra, expected_line(&full_model, customer), "vs cold fit");
    }
    assert_eq!(
        ca.send(r#"{"op":"stats"}"#),
        cb.send(r#"{"op":"stats"}"#),
        "stats must be byte-identical across recovery paths"
    );
    for c in [&mut ca, &mut cb] {
        assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    }
    a.join();
    b.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoints embed their data as compact JSON; older builds embedded
/// the pretty `TransactionSet::to_json` form. A checkpoint re-sealed
/// with pretty data, as the previous build wrote it, still resumes: the
/// warm miner restores and the tail replays to the cold fit's bytes.
#[test]
fn checkpoints_with_pretty_embedded_data_still_resume() {
    use pm_serve::stream::Stream as LiveStream;
    let _guard = faults::test_lock();
    let s = stream(53);
    let dir = tmp_dir("ck-pretty");
    let (log, ck) = (dir.join("sales.log"), dir.join("ck.pmck"));

    let (mut live, _) = LiveStream::recover(s.head.clone(), &log, None, pipeline()).unwrap();
    live.append(None, &s.batches[0]).unwrap();
    live.checkpoint(&ck, true).unwrap();
    live.append(None, &s.batches[1]).unwrap();
    drop(live);

    let sealed = pm_store::checkpoint::load(&ck).unwrap();
    let mut checkpoint = profit_core::Checkpoint::decode(&sealed).unwrap();
    let data = TransactionSet::from_json(&checkpoint.data_json).unwrap();
    assert_eq!(
        checkpoint.data_json,
        serde_json::to_string(&data).unwrap(),
        "checkpoints embed compact data"
    );
    checkpoint.data_json = data.to_json();
    let pretty = checkpoint.encode();
    assert!(
        pretty.len() > sealed.len(),
        "the pretty form is the larger one"
    );
    pm_store::checkpoint::save(&ck, &pretty).unwrap();

    let (mut resumed, recovered) =
        LiveStream::recover(s.head.clone(), &log, Some(&ck), pipeline()).unwrap();
    assert!(recovered.resumed, "the pretty checkpoint must be used");
    assert_eq!(recovered.replayed, 1);
    assert_eq!(
        serde_json::to_string(&resumed.model().save()).unwrap(),
        serde_json::to_string(&pipeline().fit(&s.full).save()).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Number every cached rule of a snapshot's value tree by its position
/// in its list, as older builds sealed each rule's `gen_index`.
fn number_cached_rules(miner: &mut Value) {
    let Value::Map(miner) = miner else {
        panic!("a snapshot is an object")
    };
    let Some((_, Value::Seq(caches))) = miner.iter_mut().find(|(k, _)| k == "caches") else {
        panic!("a snapshot holds its caches")
    };
    for cache in caches {
        let Value::Map(cache) = cache else {
            panic!("a cache is an object")
        };
        for (_, list) in cache
            .iter_mut()
            .filter(|(k, _)| k == "level1" || k == "deeper")
        {
            let Value::Seq(rules) = list else {
                panic!("a cache's rules are an array")
            };
            for (i, rule) in rules.iter_mut().enumerate() {
                let Value::Map(rule) = rule else {
                    panic!("a cached rule is an object")
                };
                rule.push(("gen_index".into(), Value::U64(i as u64)));
            }
        }
    }
}

/// A seal holds the stream position, the data and the miner, and no
/// cached rule carries a generation index. Older builds also sealed the
/// model (a `model` key after the data) and numbered every cached rule
/// (`gen_index`); recovery reads neither, so such a checkpoint still
/// resumes, and the tail replays to the cold fit's bytes.
#[test]
fn checkpoints_with_a_model_and_generation_numbers_still_resume() {
    use pm_serve::stream::Stream as LiveStream;
    let _guard = faults::test_lock();
    let s = stream(59);
    let dir = tmp_dir("ck-old-format");
    let (log, ck) = (dir.join("sales.log"), dir.join("ck.pmck"));

    let (mut live, _) = LiveStream::recover(s.head.clone(), &log, None, pipeline()).unwrap();
    live.append(None, &s.batches[0]).unwrap();
    let model = live.model();
    live.checkpoint(&ck, true).unwrap();
    live.append(None, &s.batches[1]).unwrap();
    drop(live);

    let sealed = String::from_utf8(pm_store::checkpoint::load(&ck).unwrap()).unwrap();
    assert!(!sealed.contains("gen_index"), "a seal numbers no rule");
    let Value::Map(mut fields) = serde_json::from_str(&sealed).unwrap() else {
        panic!("a checkpoint payload is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["stream_pos", "data_json", "miner"]);

    number_cached_rules(&mut fields[2].1);
    fields.insert(2, ("model".into(), model.save().ser_value()));
    let old = serde_json::to_string(&Value::Map(fields)).unwrap();
    assert!(old.contains(r#""profit_bits":"#) && old.contains(r#","gen_index":0}"#));
    pm_store::checkpoint::save(&ck, old.as_bytes()).unwrap();

    let (mut resumed, recovered) =
        LiveStream::recover(s.head.clone(), &log, Some(&ck), pipeline()).unwrap();
    assert!(recovered.resumed, "the old checkpoint must be used");
    assert_eq!(recovered.replayed, 1);
    assert_eq!(
        serde_json::to_string(&resumed.model().save()).unwrap(),
        serde_json::to_string(&pipeline().fit(&s.full).save()).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt checkpoint degrades, never lies: with the whole stream
/// still in the log the daemon falls back to full replay; with a
/// compacted log it refuses to start (the stream is unrecoverable).
#[test]
fn corrupt_checkpoint_falls_back_only_while_the_log_is_complete() {
    let _guard = faults::test_lock();
    let s = stream(47);
    let full_model = pipeline().fit(&s.full);
    let dir = tmp_dir("ck-corrupt");
    let (log, ck) = (dir.join("sales.log"), dir.join("ck.pmck"));
    let cfg = || ServeConfig {
        checkpoint: Some(ck.clone()),
        ..ServeConfig::default()
    };

    let server =
        Server::start_streaming("127.0.0.1:0", s.head.clone(), &log, pipeline(), cfg()).unwrap();
    let mut c = Client::connect(server.addr());
    for b in &s.batches {
        assert!(c.send(&ingest_line(None, b)).contains(r#""op":"ingested""#));
    }
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    server.join();

    // Garbage where the checkpoint should be, but the log still starts
    // at record 0: full replay serves the right model anyway.
    std::fs::write(&ck, b"not a checkpoint").unwrap();
    let server =
        Server::start_streaming("127.0.0.1:0", s.head.clone(), &log, pipeline(), cfg()).unwrap();
    let mut c = Client::connect(server.addr());
    let customer = s.full.transactions()[330].non_target_sales().to_vec();
    assert_eq!(
        c.send(&recommend_line(&customer)),
        expected_line(&full_model, &customer)
    );
    // Write a real checkpoint (compacting the log), then corrupt it:
    // now the log tail alone cannot rebuild the stream.
    let resp = c.send(r#"{"op":"checkpoint"}"#);
    assert!(resp.contains(r#""op":"checkpointed""#), "{resp}");
    assert!(resp.contains(r#""dropped":2"#), "{resp}");
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    server.join();

    std::fs::write(&ck, b"still not a checkpoint").unwrap();
    let err = Server::start_streaming("127.0.0.1:0", s.head.clone(), &log, pipeline(), cfg())
        .err()
        .expect("corrupt checkpoint plus compacted log must refuse to start");
    let msg = err.to_string();
    assert!(msg.contains("cannot be rebuilt"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The ingest caps answer inline, before the executor and before the
/// log: an oversized batch costs a parse, nothing else.
#[test]
fn oversized_ingest_batches_are_refused_before_admission() {
    let _guard = faults::test_lock();
    let s = stream(53);
    let dir = tmp_dir("caps");

    // Record cap.
    let log = dir.join("txns.log");
    let cfg = ServeConfig {
        max_ingest_txns: 10,
        ..ServeConfig::default()
    };
    let server =
        Server::start_streaming("127.0.0.1:0", s.head.clone(), &log, pipeline(), cfg).unwrap();
    let mut c = Client::connect(server.addr());
    let empty_log = std::fs::metadata(&log).unwrap().len();
    let resp = c.send(&ingest_line(None, &s.batches[0]));
    assert!(
        resp.contains("ingest rejected: batch of 50 transactions"),
        "{resp}"
    );
    assert!(resp.contains("split the batch"), "{resp}");
    assert_eq!(server.generation(), 1);
    assert_eq!(
        std::fs::metadata(&log).unwrap().len(),
        empty_log,
        "a refused batch must not touch the log"
    );
    // Under the cap the same connection still ingests.
    let resp = c.send(&ingest_line(None, &s.batches[0][..10]));
    assert!(resp.contains(r#""op":"ingested""#), "{resp}");
    let stats = c.send(r#"{"op":"stats"}"#);
    assert!(stats.contains(r#""ingest_oversized":1"#), "{stats}");
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    assert_eq!(server.join().ingests, 1);

    // Byte cap.
    let log = dir.join("bytes.log");
    let cfg = ServeConfig {
        max_ingest_bytes: 64,
        ..ServeConfig::default()
    };
    let server =
        Server::start_streaming("127.0.0.1:0", s.head.clone(), &log, pipeline(), cfg).unwrap();
    let mut c = Client::connect(server.addr());
    let resp = c.send(&ingest_line(None, &s.batches[0][..1]));
    assert!(resp.contains("ingest rejected"), "{resp}");
    assert!(resp.contains("64 bytes"), "{resp}");
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    assert_eq!(server.join().ingests, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Catalog growth over the wire: an ingest carrying a catalog delta
/// introduces new items mid-stream; the refit matches a cold fit on the
/// grown concatenated stream, and a restart replays the growth record
/// from the log.
#[test]
fn catalog_growth_over_the_wire_matches_the_cold_fit() {
    let _guard = faults::test_lock();
    use pm_txn::{CatalogDelta, CodeId, ItemDef, ItemId, Money, NewItem, PromotionCode};
    let s = stream(59);
    let base_items = s.head.catalog().len() as u32;
    let delta = CatalogDelta {
        concepts: vec![],
        items: vec![
            NewItem {
                def: ItemDef {
                    name: "wire-growth-trigger".into(),
                    codes: vec![PromotionCode::unit(
                        Money::from_cents(120),
                        Money::from_cents(70),
                    )],
                    is_target: false,
                },
                parents: vec![],
            },
            NewItem {
                def: ItemDef {
                    name: "wire-growth-target".into(),
                    codes: vec![PromotionCode::unit(
                        Money::from_cents(900),
                        Money::from_cents(500),
                    )],
                    is_target: true,
                },
                parents: vec![],
            },
        ],
    };
    let (nt_new, tg_new) = (ItemId(base_items), ItemId(base_items + 1));
    // The growth batch mixes old and new items: the new non-target
    // joins existing bodies, the new target brings a brand-new head.
    let tail: Vec<Transaction> = s.batches[0]
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut sales = t.non_target_sales().to_vec();
            if i % 2 == 0 {
                sales.push(Sale::new(nt_new, CodeId(0), 1));
            }
            let target = if i % 3 == 0 {
                Sale::new(tg_new, CodeId(0), 1)
            } else {
                *t.target_sale()
            };
            Transaction::new(sales, target)
        })
        .collect();
    let mut grown = s.head.clone();
    grown.apply_stream_record(Some(&delta), &tail).unwrap();
    let cold = pipeline().fit(&grown);
    let customers: Vec<Vec<Sale>> = tail
        .iter()
        .take(10)
        .map(|t| t.non_target_sales().to_vec())
        .collect();

    let dir = tmp_dir("growth");
    let log = dir.join("sales.log");
    let server = Server::start_streaming(
        "127.0.0.1:0",
        s.head.clone(),
        &log,
        pipeline(),
        ServeConfig::default(),
    )
    .unwrap();
    let mut c = Client::connect(server.addr());
    let resp = c.send(&ingest_line(Some(&delta), &tail));
    assert!(resp.contains(r#""op":"ingested""#), "{resp}");
    assert!(resp.contains(r#""generation":2"#), "{resp}");
    for customer in &customers {
        assert_eq!(
            c.send(&recommend_line(customer)),
            expected_line(&cold, customer),
            "served growth refit must equal the cold fit on the grown stream"
        );
    }
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    server.join();

    // Restart: the log's growth record replays — catalog and all.
    let server = Server::start_streaming(
        "127.0.0.1:0",
        s.head.clone(),
        &log,
        pipeline(),
        ServeConfig::default(),
    )
    .unwrap();
    let mut c = Client::connect(server.addr());
    for customer in &customers {
        assert_eq!(
            c.send(&recommend_line(customer)),
            expected_line(&cold, customer)
        );
    }
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A full checkpoint target disk degrades to a failed checkpoint — the
/// old checkpoint file, the log, and the served model all stay intact.
#[test]
fn failed_checkpoint_write_leaves_log_and_model_untouched() {
    let _guard = faults::test_lock();
    let s = stream(61);
    let dir = tmp_dir("ck-enospc");
    let (log, ck) = (dir.join("sales.log"), dir.join("ck.pmck"));
    let cfg = ServeConfig {
        checkpoint: Some(ck.clone()),
        ..ServeConfig::default()
    };
    let server =
        Server::start_streaming("127.0.0.1:0", s.head.clone(), &log, pipeline(), cfg).unwrap();
    let mut c = Client::connect(server.addr());
    assert!(c
        .send(&ingest_line(None, &s.batches[0]))
        .contains(r#""op":"ingested""#));
    let resp = c.send(r#"{"op":"checkpoint"}"#);
    assert!(resp.contains(r#""op":"checkpointed""#), "{resp}");
    let sealed = std::fs::read(&ck).unwrap();
    let log_len = std::fs::metadata(&log).unwrap().len();

    // Every write to the checkpoint target now hits a full disk.
    faults::set_disk_full_at(Some(0));
    let resp = c.send(r#"{"op":"checkpoint"}"#);
    faults::set_disk_full_at(None);
    assert!(resp.contains("checkpoint failed"), "{resp}");
    assert_eq!(
        std::fs::read(&ck).unwrap(),
        sealed,
        "a failed checkpoint write must leave the previous checkpoint intact"
    );
    assert_eq!(std::fs::metadata(&log).unwrap().len(), log_len);
    let stats = c.send(r#"{"op":"stats"}"#);
    assert!(stats.contains(r#""checkpoints":1"#), "{stats}");
    assert!(stats.contains(r#""checkpoint_failures":1"#), "{stats}");

    // The daemon still serves and still checkpoints once the disk clears.
    let resp = c.send(r#"{"op":"checkpoint"}"#);
    assert!(resp.contains(r#""op":"checkpointed""#), "{resp}");
    assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every control op runs under the executor's one unwind boundary. A
/// panic at the start of a reload, an ingest or a checkpoint answers an
/// error line and counts as that op's failure, and the next op of the
/// same kind is admitted and succeeds. (A checkpoint panic used to end
/// the executor thread: every later control op then answered "daemon is
/// stopping" and the panicking request never got its reply.) Ingest and
/// checkpoint run on a streaming daemon, reload on a model-file daemon.
#[test]
fn control_job_panics_fail_that_op_and_the_executor_keeps_running() {
    let _guard = faults::test_lock();
    let s = stream(67);
    let dir = tmp_dir("ctl-panic");
    let (log, ck, model) = (
        dir.join("sales.log"),
        dir.join("ck.pmck"),
        dir.join("model.pm"),
    );
    let saved = serde_json::to_string(&pipeline().fit(&s.full).save()).unwrap();
    pm_store::save_sealed(&model, saved.as_bytes()).unwrap();
    let cfg = ServeConfig {
        checkpoint: Some(ck.clone()),
        ..ServeConfig::default()
    };
    let streaming =
        Server::start_streaming("127.0.0.1:0", s.head.clone(), &log, pipeline(), cfg).unwrap();
    let file = Server::start("127.0.0.1:0", &model, ServeConfig::default()).unwrap();
    let ops = [
        (
            &streaming,
            ingest_line(None, &s.batches[0]),
            r#""generation":2"#,
            "ingest_failures",
        ),
        (
            &streaming,
            r#"{"op":"checkpoint"}"#.to_string(),
            r#""op":"checkpointed""#,
            "checkpoint_failures",
        ),
        (
            &file,
            r#"{"op":"reload"}"#.to_string(),
            r#""generation":2"#,
            "reload_failures",
        ),
    ];
    for (server, line, ok, failures) in &ops {
        let mut c = Client::connect(server.addr());
        faults::set_control_panic(true);
        let resp = c.send(line);
        assert!(resp.starts_with(r#"{"ok":false"#), "{resp}");
        assert!(resp.contains("panicked"), "{resp}");
        let stats = c.send(r#"{"op":"stats"}"#);
        assert!(stats.contains(&format!(r#""{failures}":1"#)), "{stats}");
        let resp = c.send(line);
        assert!(resp.contains(ok), "{resp}");
    }
    for (server, counts) in [
        (streaming, &[r#""ingests":1"#, r#""checkpoints":1"#][..]),
        (file, &[r#""reloads":1"#][..]),
    ] {
        let mut c = Client::connect(server.addr());
        let stats = c.send(r#"{"op":"stats"}"#);
        for count in counts {
            assert!(stats.contains(count), "{stats}");
        }
        assert!(c.send(r#"{"op":"shutdown"}"#).starts_with(r#"{"ok":true"#));
        server.join();
    }
    std::fs::remove_dir_all(&dir).ok();
}
