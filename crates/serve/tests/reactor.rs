//! Regression tests for the event-driven engine and the degraded-path
//! panic-safety sweep: rule-less model rejection, per-connection panic
//! isolation, consistent (generation, rules) reporting under reload,
//! non-UTF-8 request handling, response ordering under pipelining, and
//! the portable poll(2) fallback backend.
//!
//! Every test takes `pm_store::faults::test_lock()` so that the
//! process-global fault hooks (and the backend env var) never leak
//! between concurrently scheduled tests in this binary.

mod common;

use common::{
    build_fixture, expected_line, json_u64, recommend_line, sealed_model_file, tmp_dir, Client,
    Fixture,
};
use pm_serve::{ServeConfig, Server};
use pm_store::faults;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| build_fixture(7, 10))
}

fn fixture_b() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| build_fixture(4242, 10))
}

/// The old engine computed `rules().len() - 1` on the degraded path, so
/// a hand-crafted rule-less model file underflow-panicked a worker at
/// serve time. Now such models are rejected with a typed error at
/// startup and at reload, and the old model keeps serving.
#[test]
fn rule_less_models_are_rejected_at_startup_and_reload() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("ruleless");

    // A sealed model file with zero rules.
    let mut saved: profit_core::SavedModel = serde_json::from_str(&fix.json).unwrap();
    saved.rules.clear();
    let empty_json = serde_json::to_string(&saved).unwrap();
    let empty_path = dir.join("empty.pm");
    pm_store::save_sealed(&empty_path, empty_json.as_bytes()).unwrap();

    // And one whose last rule is not the default rule (fixture_b has
    // plenty of non-default rules to keep).
    let mut saved: profit_core::SavedModel = serde_json::from_str(&fixture_b().json).unwrap();
    saved.rules.retain(|r| !r.is_default);
    assert!(!saved.rules.is_empty(), "fixture needs non-default rules");
    let no_default_path = dir.join("no-default.pm");
    pm_store::save_sealed(
        &no_default_path,
        serde_json::to_string(&saved).unwrap().as_bytes(),
    )
    .unwrap();

    // Startup refuses both, with a typed, printable error.
    for (path, needle) in [
        (&empty_path, "no rules"),
        (&no_default_path, "not the default rule"),
    ] {
        let err = Server::start("127.0.0.1:0", path, ServeConfig::default())
            .err()
            .expect("unservable model must be rejected");
        assert!(
            matches!(err, pm_serve::ServeError::Degenerate { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("unservable model"), "{err}");
        assert!(err.to_string().contains(needle), "{err}");
    }

    // Reloading the model file rewritten as a rule-less model fails
    // cleanly and the old model keeps serving exact answers on the same
    // connection.
    let good = sealed_model_file(&dir, "good.pm", fix);
    let server = Server::start("127.0.0.1:0", &good, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());
    pm_store::save_sealed(&good, empty_json.as_bytes()).unwrap();
    let resp = c.send(r#"{"op":"reload"}"#);
    assert!(resp.contains("keeping current model"), "{resp}");
    assert!(resp.contains("unservable model"), "{resp}");
    assert_eq!(server.generation(), 1);
    let customer = &fix.customers[0];
    assert_eq!(
        c.send(&recommend_line(customer)),
        expected_line(&fix.model, customer)
    );
    assert!(c.send(r#"{"op":"shutdown"}"#).contains("bye"));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A saved model's hierarchy bypasses `Hierarchy`'s constructors on
/// deserialization. One with fewer item parent lists than the catalog has
/// items used to panic in `Moa::new` while loading — aborting `serve
/// --model` at startup and a `reload` on the executor. Now load checks
/// the tables like `TransactionSet::new` does: a typed error, a failed
/// reload, and no panic anywhere.
#[test]
fn malformed_hierarchy_models_are_typed_errors_at_startup_and_reload() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("badhier");
    let mut saved: profit_core::SavedModel = serde_json::from_str(&fix.json).unwrap();
    let n = saved.catalog.len();
    let short = format!(
        r#"{{"n_items":{n},"concept_names":[],"item_parents":{},"concept_parents":[]}}"#,
        serde_json::to_string(&vec![Vec::<u32>::new(); n - 1]).unwrap()
    );
    saved.hierarchy = serde_json::from_str(&short).unwrap();
    let bad = dir.join("bad-hierarchy.pm");
    let payload = serde_json::to_string(&saved).unwrap();
    pm_store::save_sealed(&bad, payload.as_bytes()).unwrap();

    let err = pm_serve::load_model(&bad).expect_err("malformed hierarchy must not load");
    assert!(matches!(err, pm_serve::ServeError::Model { .. }), "{err}");
    assert!(err.to_string().contains("hierarchy"), "{err}");
    let err = Server::start("127.0.0.1:0", &bad, ServeConfig::default())
        .err()
        .expect("malformed hierarchy must not serve");
    assert!(err.to_string().contains("hierarchy"), "{err}");

    let good = sealed_model_file(&dir, "good.pm", fix);
    let server = Server::start("127.0.0.1:0", &good, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());
    pm_store::save_sealed(&good, payload.as_bytes()).unwrap();
    let resp = c.send(r#"{"op":"reload"}"#);
    assert!(resp.contains("reload failed"), "{resp}");
    assert!(resp.contains("hierarchy"), "{resp}");
    assert!(!resp.contains("panicked"), "{resp}");
    let stats = c.send(r#"{"op":"stats"}"#);
    assert_eq!(json_u64(&stats, "worker_panics"), 0, "{stats}");
    assert_eq!(json_u64(&stats, "reload_failures"), 1, "{stats}");
    assert_eq!(server.generation(), 1);
    let customer = &fix.customers[0];
    assert_eq!(
        c.send(&recommend_line(customer)),
        expected_line(&fix.model, customer)
    );
    assert!(c.send(r#"{"op":"shutdown"}"#).contains("bye"));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A checksum-valid model whose rules point outside its own catalog used
/// to load, then panic: `Catalog::item`/`code` indexed out of range on
/// every `recommend` that reached the bad rule, and the degraded
/// default-rule fallback panicked too. Now `load_model` checks every
/// rule's head and body against the tables: a typed error at load, a
/// failed reload, and no panic anywhere.
#[test]
fn rules_outside_the_catalog_are_typed_errors_at_load_and_reload() {
    use pm_txn::{CodeId, ConceptId, GenSale, ItemId};
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("badrules");
    let saved: profit_core::SavedModel = serde_json::from_str(&fix.json).unwrap();
    let last = saved.rules.len() - 1;
    // A rule above the default one whose body is the single element `g`.
    let body_rule = move |m: &mut profit_core::SavedModel, g: GenSale| {
        let mut rule = m.rules[last].clone();
        rule.body = vec![g];
        rule.is_default = false;
        m.rules.insert(0, rule);
    };
    let non_target = saved.catalog.non_target_items()[0];
    let target = saved.catalog.target_items()[0];
    let n_concepts = saved.hierarchy.n_concepts() as u32;
    type Edit = Box<dyn Fn(&mut profit_core::SavedModel)>;
    let cases: Vec<(&str, Edit, &str)> = vec![
        (
            "head-item",
            Box::new(move |m| m.rules[last].item = ItemId(9999)),
            "head item#9999 is not in the catalog",
        ),
        (
            "head-code",
            Box::new(move |m| m.rules[last].code = CodeId(77)),
            "has no code#77",
        ),
        (
            "head-non-target",
            Box::new(move |m| m.rules[last].item = non_target),
            "is not a target item",
        ),
        (
            "body-item",
            Box::new(move |m| body_rule(m, GenSale::Item(ItemId(9999)))),
            "body item#9999 is not in the catalog",
        ),
        (
            "body-code",
            Box::new(move |m| body_rule(m, GenSale::ItemCode(non_target, CodeId(77)))),
            "has no code#77",
        ),
        (
            "body-target",
            Box::new(move |m| body_rule(m, GenSale::Item(target))),
            "is a target item",
        ),
        (
            "body-concept",
            Box::new(move |m| body_rule(m, GenSale::Concept(ConceptId(n_concepts)))),
            "is not in the hierarchy",
        ),
    ];

    // The same rule shape with in-range ids loads.
    let mut fine = saved.clone();
    body_rule(&mut fine, GenSale::ItemCode(non_target, CodeId(0)));
    let fine_path = dir.join("fine.pm");
    pm_store::save_sealed(&fine_path, serde_json::to_string(&fine).unwrap().as_bytes()).unwrap();
    pm_serve::load_model(&fine_path).expect("in-range body rule loads");

    let good = sealed_model_file(&dir, "good.pm", fix);
    let server = Server::start("127.0.0.1:0", &good, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());
    for (i, (name, edit, needle)) in cases.iter().enumerate() {
        let mut bad_model = saved.clone();
        edit(&mut bad_model);
        let bad = dir.join(format!("{name}.pm"));
        let payload = serde_json::to_string(&bad_model).unwrap();
        pm_store::save_sealed(&bad, payload.as_bytes()).unwrap();

        let err = pm_serve::load_model(&bad).expect_err(name);
        assert!(
            matches!(err, pm_serve::ServeError::Model { .. }),
            "{name}: {err}"
        );
        assert!(err.to_string().contains(needle), "{name}: {err}");

        pm_store::save_sealed(&good, payload.as_bytes()).unwrap();
        let resp = c.send(r#"{"op":"reload"}"#);
        assert!(resp.contains("reload failed"), "{name}: {resp}");
        assert!(resp.contains(needle), "{name}: {resp}");
        let stats = c.send(r#"{"op":"stats"}"#);
        assert_eq!(json_u64(&stats, "worker_panics"), 0, "{name}: {stats}");
        assert_eq!(json_u64(&stats, "reload_failures"), i as u64 + 1, "{stats}");
    }
    assert_eq!(server.generation(), 1);
    for customer in &fix.customers {
        assert_eq!(
            c.send(&recommend_line(customer)),
            expected_line(&fix.model, customer)
        );
    }
    assert!(c.send(r#"{"op":"shutdown"}"#).contains("bye"));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A panic in per-connection handling outside the compute section used
/// to unwind through `worker_loop` and kill the thread silently,
/// permanently shrinking capacity. Now it costs the one connection, is
/// counted under `serve.worker_panics`, and the daemon keeps answering.
#[test]
fn injected_handle_panic_is_isolated_counted_and_survivable() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("panic");
    let path = sealed_model_file(&dir, "model.pm", fix);
    // One worker: on the old engine this panic would have left zero
    // serving capacity.
    let cfg = ServeConfig {
        workers: 1,
        io_threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", &path, cfg).unwrap();

    let mut victim = Client::connect(server.addr());
    faults::set_handle_panic(true);
    writeln!(victim.writer, r#"{{"op":"ping"}}"#).unwrap();
    // The panicking connection is dropped without an answer.
    let mut rest = String::new();
    assert_eq!(
        victim.reader.read_to_string(&mut rest).unwrap(),
        0,
        "victim connection must be closed, got {rest:?}"
    );

    // The daemon still answers — including real compute — and admits to
    // the panic in its stats.
    let mut c = Client::connect(server.addr());
    let pong = c.send(r#"{"op":"ping"}"#);
    assert!(pong.contains(r#""op":"pong""#), "{pong}");
    let customer = &fix.customers[1];
    assert_eq!(
        c.send(&recommend_line(customer)),
        expected_line(&fix.model, customer)
    );
    let stats = c.send(r#"{"op":"stats"}"#);
    assert_eq!(json_u64(&stats, "worker_panics"), 1, "{stats}");

    assert!(c.send(r#"{"op":"shutdown"}"#).contains("bye"));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// `ping` and `stats` used to pair a *live* `handle.generation()` with
/// the connection's *stale* snapshot's rule count, so during a reload
/// window a client saw generation N+1 with generation-N rules. Both now
/// report one coherent snapshot pair.
#[test]
fn ping_reports_consistent_generation_rules_pair_during_reload() {
    let _guard = faults::test_lock();
    let fix_a = fixture();
    let fix_b = fixture_b();
    let rules_a = fix_a.model.rules().len() as u64;
    let rules_b = fix_b.model.rules().len() as u64;
    assert_ne!(
        rules_a, rules_b,
        "fixtures must differ in rule count for this test to bite"
    );
    let dir = tmp_dir("genrace");
    let path = sealed_model_file(&dir, "model.pm", fix_a);

    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let addr = server.addr();

    // One connection rewrites the model file A↔B and reloads as fast as
    // it can; others ping and assert every observed (generation, rules)
    // pair is coherent: generation 1, 3, 5, … serve model A; 2, 4, 6, …
    // serve model B.
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut c = Client::connect(addr);
            for i in 0..30 {
                let next = if i % 2 == 0 { fix_b } else { fix_a };
                sealed_model_file(&dir, "model.pm", next);
                let resp = c.send(r#"{"op":"reload"}"#);
                assert!(resp.contains(r#""op":"reloaded""#), "{resp}");
            }
        });
        for _ in 0..2 {
            s.spawn(|| {
                let mut c = Client::connect(addr);
                for _ in 0..200 {
                    for op in [r#"{"op":"ping"}"#, r#"{"op":"stats"}"#] {
                        let resp = c.send(op);
                        let generation = json_u64(&resp, "generation");
                        let rules = json_u64(&resp, "rules");
                        let want = if generation % 2 == 1 {
                            rules_a
                        } else {
                            rules_b
                        };
                        assert_eq!(
                            rules, want,
                            "generation {generation} paired with wrong rule count: {resp}"
                        );
                    }
                }
            });
        }
    });

    let mut c = Client::connect(addr);
    assert!(c.send(r#"{"op":"shutdown"}"#).contains("bye"));
    let summary = server.join();
    assert_eq!(summary.reloads, 30);
    std::fs::remove_dir_all(&dir).ok();
}

/// Non-UTF-8 request bytes used to surface as `InvalidData`, classified
/// `Broken`, and the connection closed silently — no error line, no
/// counter. Now the client gets a `bad request` line, the event is
/// counted under `serve.parse_errors`, and the connection is closed
/// cleanly.
#[test]
fn non_utf8_request_bytes_get_an_error_line_and_are_counted() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("utf8");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();

    // A raw-bytes client: invalid UTF-8, newline-terminated.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    raw.write_all(b"\xff\xfe{\"op\":\"ping\"}\n").unwrap();
    let mut resp = String::new();
    BufReader::new(raw.try_clone().unwrap())
        .read_line(&mut resp)
        .unwrap();
    assert!(resp.starts_with(r#"{"ok":false,"error":"#), "{resp}");
    assert!(resp.contains("not valid UTF-8"), "{resp}");
    // …and then a clean EOF, not a hang.
    let mut rest = String::new();
    assert_eq!(
        BufReader::new(raw).read_to_string(&mut rest).unwrap(),
        0,
        "{rest}"
    );

    let mut c = Client::connect(server.addr());
    let stats = c.send(r#"{"op":"stats"}"#);
    assert_eq!(json_u64(&stats, "parse_errors"), 1, "{stats}");
    assert!(c.send(r#"{"op":"shutdown"}"#).contains("bye"));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A 20 KB line of `[` used to recurse the JSON parser once per bracket
/// and overflow the reactor thread's stack — an abort that took the
/// whole daemon down. The parser now refuses nesting past 128 levels,
/// so the client gets an error line, the event is counted, and the same
/// connection keeps being served.
#[test]
fn deeply_nested_request_gets_an_error_line_not_a_crash() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("nested");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());

    let resp = c.send(&"[".repeat(20_000));
    assert!(resp.starts_with(r#"{"ok":false,"error":"#), "{resp}");
    assert!(resp.contains("nesting deeper than 128"), "{resp}");
    let pong = c.send(r#"{"op":"ping"}"#);
    assert!(pong.contains(r#""op":"pong""#), "{pong}");
    let stats = c.send(r#"{"op":"stats"}"#);
    assert_eq!(json_u64(&stats, "parse_errors"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "worker_panics"), 0, "{stats}");

    assert!(c.send(r#"{"op":"shutdown"}"#).contains("bye"));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Blank lines take no pipeline slot, so nothing bounds how many a read
/// buffer holds. Framing used to remove each line from the front of the
/// buffer, shifting the rest every time: a megabyte of bare newlines
/// held the reactor for about 15 s in a release build, stalling every
/// connection on it. Lines are now taken by offset, one linear pass.
#[test]
fn a_megabyte_of_blank_lines_does_not_stall_the_reactor() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("blank-lines");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let cfg = ServeConfig {
        io_threads: 1,
        max_line: 1 << 20,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", &path, cfg).unwrap();
    let mut flooder = Client::connect(server.addr());
    let mut bystander = Client::connect(server.addr());

    let started = std::time::Instant::now();
    let mut writer = flooder.writer.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        let mut bytes = vec![b'\n'; 1 << 20];
        bytes.extend_from_slice(b"{\"op\":\"ping\"}\n");
        writer.write_all(&bytes).unwrap();
    });
    let pong = bystander.send(r#"{"op":"ping"}"#);
    assert!(pong.contains(r#""op":"pong""#), "{pong}");
    flood.join().unwrap();
    let pong = flooder.recv();
    assert!(pong.contains(r#""op":"pong""#), "{pong}");
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");

    assert!(bystander.send(r#"{"op":"shutdown"}"#).contains("bye"));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Pipelined clients get responses strictly in request order, even when
/// inline ops (ping) interleave with pool-computed recommendations.
#[test]
fn pipelined_requests_flush_in_request_order() {
    let _guard = faults::test_lock();
    let fix = fixture();
    let dir = tmp_dir("pipeline");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());

    // Fire a burst without reading: recommend/ping alternating.
    let mut expected = Vec::new();
    for round in 0..50 {
        let customer = &fix.customers[round % fix.customers.len()];
        writeln!(c.writer, "{}", recommend_line(customer)).unwrap();
        expected.push(expected_line(&fix.model, customer));
        writeln!(c.writer, r#"{{"op":"ping"}}"#).unwrap();
        expected.push("ping".to_string());
    }
    for (i, want) in expected.iter().enumerate() {
        let got = c.recv();
        if want == "ping" {
            assert!(got.contains(r#""op":"pong""#), "response {i}: {got}");
        } else {
            assert_eq!(&got, want, "response {i}");
        }
    }

    assert!(c.send(r#"{"op":"shutdown"}"#).contains("bye"));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The portable poll(2) fallback backend serves the same bytes as the
/// epoll backend (`PM_POLL_BACKEND=poll` forces it).
#[test]
fn poll_fallback_backend_serves_identically() {
    let _guard = faults::test_lock();
    std::env::set_var("PM_POLL_BACKEND", "poll");
    let fix = fixture();
    let dir = tmp_dir("pollback");
    let path = sealed_model_file(&dir, "model.pm", fix);
    let server = Server::start("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());
    for customer in &fix.customers {
        assert_eq!(
            c.send(&recommend_line(customer)),
            expected_line(&fix.model, customer)
        );
    }
    let pong = c.send(r#"{"op":"ping"}"#);
    assert!(pong.contains(r#""generation":1"#), "{pong}");
    assert!(c.send(r#"{"op":"shutdown"}"#).contains("bye"));
    server.join();
    std::env::remove_var("PM_POLL_BACKEND");
    std::fs::remove_dir_all(&dir).ok();
}
