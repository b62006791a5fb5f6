//! Daemon smoke tests: a live `pm-serve` on an ephemeral port, driven
//! over real TCP, through every fault class the ISSUE names — slow
//! clients, oversized and malformed requests, overload, matcher panics,
//! blown deadlines, corrupt reloads — asserting the daemon stays up and
//! every answer is either correct or explicitly flagged degraded.
//!
//! The fault hooks are process-global, so every test holds
//! `pm_store::faults::test_lock()` for its whole body: an armed hook
//! never leaks into a concurrently scheduled test in this binary.

mod common;

use common::{
    assert_ok, build_fixture, expected_line, recommend_line, sealed_model_file, tmp_dir, Client,
    Fixture,
};
use pm_serve::protocol::{obj, rec_value, render};
use pm_serve::{ServeConfig, Server};
use pm_store::faults;
use pm_txn::TargetFilter;
use serde::Value;
use std::io::{Read, Write};
use std::sync::OnceLock;
use std::time::Duration;

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| build_fixture(42, 40))
}

fn fixture_b() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| build_fixture(1337, 40))
}

#[test]
fn concurrent_recommends_match_the_offline_matcher_byte_for_byte() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("conc");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let addr = server.addr();

    std::thread::scope(|s| {
        for t in 0..6 {
            s.spawn(move || {
                let mut c = Client::connect(addr);
                for (i, customer) in fix.customers.iter().enumerate() {
                    if i % 6 != t {
                        continue;
                    }
                    let got = c.send(&recommend_line(customer));
                    assert_eq!(got, expected_line(&fix.model, customer), "customer {i}");
                }
            });
        }
    });

    let mut c = Client::connect(addr);
    assert_ok(&c.send(r#"{"op":"shutdown"}"#));
    let summary = server.join();
    assert!(summary.requests >= fix.customers.len() as u64);
    assert_eq!(summary.degraded, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ping_stats_and_protocol_errors_leave_the_connection_usable() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("ping");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());

    let pong = c.send(r#"{"op":"ping"}"#);
    assert!(pong.contains(r#""op":"pong""#), "{pong}");
    assert!(pong.contains(r#""generation":1"#), "{pong}");

    // Malformed requests get an error line, and the connection lives on.
    for bad in [
        "not json at all",
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"recommend","sales":[[1,2]]}"#,
        r#"{"op":"recommend","top":0}"#,
        // Unknown item: a clean client error, not a matcher panic.
        r#"{"op":"recommend","sales":[[999999,0,1]]}"#,
    ] {
        let resp = c.send(bad);
        assert!(
            resp.starts_with(r#"{"ok":false,"error":"#),
            "{bad} → {resp}"
        );
    }

    let stats = c.send(r#"{"op":"stats"}"#);
    assert!(stats.contains(r#""rules":"#), "{stats}");
    assert!(stats.contains(r#""parse_errors":"#), "{stats}");

    assert_ok(&c.send(r#"{"op":"shutdown"}"#));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_reload_swaps_the_model_atomically() {
    let _guard = faults::test_lock();
    let fix_a = fixture();
    let fix_b = fixture_b();
    let dir = tmp_dir("reload");
    let path = sealed_model_file(&dir, "model.pm", fix_a);

    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());

    let customer = &fix_a.customers[0];
    assert_eq!(
        c.send(&recommend_line(customer)),
        expected_line(&fix_a.model, customer)
    );

    // Swap models the operator's way: rewrite the model file, then reload.
    sealed_model_file(&dir, "model.pm", fix_b);
    let resp = c.send(r#"{"op":"reload"}"#);
    assert!(resp.contains(r#""op":"reloaded""#), "{resp}");
    assert!(resp.contains(r#""generation":2"#), "{resp}");
    assert_eq!(server.generation(), 2);

    // The same connection now answers from model B.
    assert_eq!(
        c.send(&recommend_line(customer)),
        expected_line(&fix_b.model, customer)
    );

    // Reloading the unchanged file still bumps the generation.
    let resp = c.send(r#"{"op":"reload"}"#);
    assert!(resp.contains(r#""generation":3"#), "{resp}");

    assert_ok(&c.send(r#"{"op":"shutdown"}"#));
    let summary = server.join();
    assert_eq!(summary.reloads, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_reload_keeps_the_old_model_serving() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("badreload");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());
    let customer = &fix.customers[1];

    // 1. The model file is gone.
    std::fs::remove_file(&path).unwrap();
    let resp = c.send(r#"{"op":"reload"}"#);
    assert!(resp.contains("keeping current model"), "{resp}");
    sealed_model_file(&dir, "model.pm", fix);

    // 2. Reload target exists but its envelope is bit-flipped (fault
    //    fires inside pm_store::read_file, past the header).
    faults::set_corrupt_byte_at(Some(pm_store::envelope::HEADER_LEN + 3));
    let resp = c.send(r#"{"op":"reload"}"#);
    assert!(resp.contains("keeping current model"), "{resp}");
    assert!(resp.contains("checksum mismatch"), "{resp}");
    faults::set_corrupt_byte_at(None);

    // 3. Reload target is truncated mid-payload.
    faults::set_short_read_at(Some(pm_store::envelope::HEADER_LEN + 9));
    let resp = c.send(r#"{"op":"reload"}"#);
    assert!(resp.contains("keeping current model"), "{resp}");
    assert!(resp.contains("truncated"), "{resp}");
    faults::set_short_read_at(None);

    // Through all three failures: generation unchanged, answers exact.
    assert_eq!(server.generation(), 1);
    assert_eq!(
        c.send(&recommend_line(customer)),
        expected_line(&fix.model, customer)
    );

    // And with the faults cleared, the same reload now succeeds.
    let resp = c.send(r#"{"op":"reload"}"#);
    assert!(resp.contains(r#""generation":2"#), "{resp}");

    assert_ok(&c.send(r#"{"op":"shutdown"}"#));
    let summary = server.join();
    assert_eq!(summary.reloads, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The wire names no files. A `reload` that names a model used to swap
/// that file in, so any client could replace what the daemon serves.
/// Now the line is refused, nothing is read, and the generation stays.
#[test]
fn a_reload_naming_a_model_changes_no_generation() {
    let _guard = faults::test_lock();
    let (fix, other) = (fixture(), fixture_b());
    let dir = tmp_dir("reload-path");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let other_path = sealed_model_file(&dir, "other.pm", other);
    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());
    let quoted = serde_json::to_string(&Value::Str(other_path.display().to_string())).unwrap();
    for key in ["model", "path"] {
        let resp = c.send(&format!(r#"{{"op":"reload","{key}":{quoted}}}"#));
        assert!(resp.starts_with(r#"{"ok":false"#), "{resp}");
        assert!(resp.contains("takes no"), "{resp}");
    }
    assert_eq!(server.generation(), 1);
    let customer = &fix.customers[0];
    assert_eq!(
        c.send(&recommend_line(customer)),
        expected_line(&fix.model, customer)
    );
    let stats = c.send(r#"{"op":"stats"}"#);
    assert!(stats.contains(r#""reloads":0"#), "{stats}");
    assert!(stats.contains(r#""reload_failures":0"#), "{stats}");
    assert_ok(&c.send(r#"{"op":"shutdown"}"#));
    assert_eq!(server.join().reloads, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A model path naming a device used to reach an uncapped read:
/// `/dev/zero` never ends. Startup and reload now refuse it with a typed
/// error, and a failed reload keeps the old model serving.
#[cfg(target_os = "linux")]
#[test]
fn device_model_files_are_typed_errors_at_start_and_reload() {
    let _guard = faults::test_lock();
    let err = Server::start("127.0.0.1:0", "/dev/zero", ServeConfig::default())
        .err()
        .expect("/dev/zero must not serve");
    assert!(
        matches!(
            err,
            pm_serve::ServeError::Store(pm_store::StoreError::NotAFile { .. })
        ),
        "{err}"
    );

    let fix = fixture();
    let dir = tmp_dir("device");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());
    std::fs::remove_file(&path).unwrap();
    std::os::unix::fs::symlink("/dev/zero", &path).unwrap();
    let resp = c.send(r#"{"op":"reload"}"#);
    assert!(resp.contains("keeping current model"), "{resp}");
    assert!(resp.contains("not a regular file"), "{resp}");
    assert_eq!(server.generation(), 1);
    let customer = &fix.customers[0];
    assert_eq!(
        c.send(&recommend_line(customer)),
        expected_line(&fix.model, customer)
    );
    assert_ok(&c.send(r#"{"op":"shutdown"}"#));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degraded_answers_are_byte_deterministic_and_flagged() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("degraded");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let cfg = ServeConfig {
        deadline: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", &path, cfg).unwrap();
    let mut c = Client::connect(server.addr());
    let customer = &fix.customers[2];

    // Blown deadline → degraded, reason "deadline".
    faults::set_compute_delay_ms(50);
    let first = c.send(&recommend_line(customer));
    let second = c.send(&recommend_line(customer));
    assert!(first.contains(r#""degraded":true"#), "{first}");
    assert!(first.contains(r#""reason":"deadline""#), "{first}");
    assert_eq!(first, second, "degraded answers must be byte-deterministic");
    faults::set_compute_delay_ms(0);

    // The degraded answer is the default rule — the model's last rule.
    let default_idx = fix.model.rules().len() - 1;
    assert!(
        first.contains(&format!(r#""rule":{default_idx}"#)),
        "{first}"
    );

    // Matcher panic → degraded, reason "matcher_panic", daemon survives.
    faults::set_compute_panic(true);
    let resp = c.send(&recommend_line(customer));
    assert!(resp.contains(r#""degraded":true"#), "{resp}");
    assert!(resp.contains(r#""reason":"matcher_panic""#), "{resp}");
    faults::set_compute_panic(false);

    // Fault cleared: the very same connection serves exact answers again.
    assert_eq!(
        c.send(&recommend_line(customer)),
        expected_line(&fix.model, customer)
    );

    assert_ok(&c.send(r#"{"op":"shutdown"}"#));
    let summary = server.join();
    assert_eq!(summary.degraded, 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_with_an_error_line_instead_of_queueing_forever() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("shed");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let cfg = ServeConfig {
        workers: 1,
        queue: 1,
        deadline: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", &path, cfg).unwrap();
    let addr = server.addr();

    // Pin the single worker inside a slow request.
    faults::set_compute_delay_ms(400);
    let mut busy = Client::connect(addr);
    writeln!(busy.writer, "{}", recommend_line(&fix.customers[0])).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Fill the one queue slot.
    let queued = Client::connect(addr);
    std::thread::sleep(Duration::from_millis(100));

    // The next connection must be shed immediately with an error line.
    let mut extra = Client::connect(addr);
    let resp = extra.recv();
    assert!(resp.contains("overloaded"), "{resp}");

    // The busy request still completes (slowly, but within deadline).
    let resp = busy.recv();
    assert!(resp.starts_with(r#"{"ok":true"#), "{resp}");
    faults::set_compute_delay_ms(0);
    drop(busy);
    drop(queued);

    std::thread::sleep(Duration::from_millis(100));
    server.request_shutdown();
    let summary = server.join();
    assert!(summary.shed >= 1, "expected at least one shed connection");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_and_oversized_clients_are_disconnected_not_leaked() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("slow");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let cfg = ServeConfig {
        read_timeout: Duration::from_millis(150),
        max_line: 512,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", &path, cfg).unwrap();
    let addr = server.addr();

    // A client that connects and never speaks is told why and dropped.
    let mut mute = Client::connect(addr);
    let resp = mute.recv();
    assert!(resp.contains("read timeout"), "{resp}");
    let mut rest = String::new();
    assert_eq!(mute.reader.read_to_string(&mut rest).unwrap(), 0, "{rest}");

    // A request line beyond max_line is refused and the connection cut.
    let mut bloated = Client::connect(addr);
    let huge = format!(
        r#"{{"op":"recommend","sales":[{}]}}"#,
        "[0,0,1],".repeat(200)
    );
    writeln!(bloated.writer, "{huge}").unwrap();
    let resp = bloated.recv();
    assert!(resp.contains("exceeds 512 bytes"), "{resp}");
    let mut rest = String::new();
    assert_eq!(bloated.reader.read_to_string(&mut rest).unwrap(), 0);

    // The daemon is unharmed: a well-behaved client gets exact answers.
    let mut c = Client::connect(addr);
    let customer = &fix.customers[3];
    assert_eq!(
        c.send(&recommend_line(customer)),
        expected_line(&fix.model, customer)
    );
    assert_ok(&c.send(r#"{"op":"shutdown"}"#));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn top_k_recommendations_match_the_offline_model() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("topk");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());

    let customer = &fix.customers[5];
    let sales: Vec<String> = customer
        .iter()
        .map(|s| format!("[{},{},{}]", s.item.0, s.code.0, s.qty))
        .collect();
    let got = c.send(&format!(
        r#"{{"op":"recommend","sales":[{}],"top":3}}"#,
        sales.join(",")
    ));
    let recs = fix.model.recommend_top_k(customer, 3, None);
    let want = render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("degraded", Value::Bool(false)),
        (
            "recs",
            Value::Seq(recs.iter().map(|r| rec_value(&fix.model, r)).collect()),
        ),
    ]));
    assert_eq!(got, want);

    assert_ok(&c.send(r#"{"op":"shutdown"}"#));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn targeted_recommends_match_the_offline_model_and_bad_specs_error() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("target");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());

    // Pick a code the model actually recommends somewhere, so the
    // byte-equality sweep below exercises non-empty targeted answers.
    let moa = fix.model.moa();
    let (spec, target, code) = (0u16..4)
        .map(|code| {
            let spec = format!("codes:{code}");
            let t = TargetFilter::parse(&spec, moa.catalog(), moa.hierarchy()).unwrap();
            (spec, t, code)
        })
        .find(|(_, t, _)| {
            fix.customers
                .iter()
                .any(|cu| !fix.model.recommend_top_k(cu, 3, Some(t)).is_empty())
        })
        .expect("some promotion code is recommendable");
    let mut saw_nonempty = false;
    for customer in &fix.customers {
        let sales: Vec<String> = customer
            .iter()
            .map(|s| format!("[{},{},{}]", s.item.0, s.code.0, s.qty))
            .collect();
        let got = c.send(&format!(
            r#"{{"op":"recommend","sales":[{}],"top":3,"target":"{spec}"}}"#,
            sales.join(",")
        ));
        let recs = fix.model.recommend_top_k(customer, 3, Some(&target));
        saw_nonempty |= !recs.is_empty();
        for r in &recs {
            assert_eq!(r.code.0, code, "target {spec} admits only that code");
        }
        let want = render(&obj(vec![
            ("ok", Value::Bool(true)),
            ("degraded", Value::Bool(false)),
            (
                "recs",
                Value::Seq(recs.iter().map(|r| rec_value(&fix.model, r)).collect()),
            ),
        ]));
        assert_eq!(got, want);
    }
    assert!(saw_nonempty, "the chosen target must admit some answers");

    // A target admitting no rule head yields an empty (but ok) answer.
    let empty = c.send(r#"{"op":"recommend","sales":[[0,0,1]],"target":"items:item-1"}"#);
    assert_eq!(
        empty,
        render(&obj(vec![
            ("ok", Value::Bool(true)),
            ("degraded", Value::Bool(false)),
            ("recs", Value::Seq(vec![])),
        ]))
    );

    // A bad spec is a clean per-request error; the connection lives on.
    let bad = c.send(r#"{"op":"recommend","sales":[[0,0,1]],"target":"items:nope"}"#);
    assert!(
        bad.starts_with(r#"{"ok":false,"error":"bad target spec"#),
        "{bad}"
    );

    // `"target":null` behaves exactly like an untargeted request.
    let customer = &fix.customers[2];
    let sales: Vec<String> = customer
        .iter()
        .map(|s| format!("[{},{},{}]", s.item.0, s.code.0, s.qty))
        .collect();
    let got = c.send(&format!(
        r#"{{"op":"recommend","sales":[{}],"target":null}}"#,
        sales.join(",")
    ));
    assert_eq!(got, expected_line(&fix.model, customer));

    assert_ok(&c.send(r#"{"op":"shutdown"}"#));
    let summary = server.join();
    assert_eq!(summary.degraded, 0);
    std::fs::remove_dir_all(&dir).ok();
}
