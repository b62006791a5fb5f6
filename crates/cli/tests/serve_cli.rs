//! End-to-end daemon test through the real binary: `profit-mining serve`
//! on an ephemeral port, discovered via `--addr-file`, answering the
//! same bytes as `profit-mining recommend` over the same model, then
//! shut down cleanly over the wire.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_profit-mining")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pm-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(bin()).args(args).output().expect("spawn CLI");
    assert!(
        out.status.success(),
        "profit-mining {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Generate `data.json` in `dir` and fit `model.pm` on it; returns both
/// paths.
fn gen_and_fit(dir: &std::path::Path, txns: &str, items: &str, seed: &str) -> (String, String) {
    let data = dir.join("data.json").display().to_string();
    let model = dir.join("model.pm").display().to_string();
    run_ok(&[
        "gen", "--out", &data, "--txns", txns, "--items", items, "--seed", seed,
    ]);
    run_ok(&[
        "fit",
        "--data",
        &data,
        "--out",
        &model,
        "--minsup",
        "0.03",
        "--max-body",
        "2",
    ]);
    (data, model)
}

/// Poll for the daemon's `--addr-file` (written atomically once bound).
fn wait_for_addr(path: &std::path::Path, child: &mut Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("daemon exited early with {status}");
        }
        assert!(Instant::now() < deadline, "daemon never wrote {path:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn serve_daemon_end_to_end_over_the_wire() {
    let dir = tmp_dir("e2e");
    let (data, model) = gen_and_fit(&dir, "300", "60", "21");
    let addr_file = dir.join("addr.txt");
    // The offline answer for customer 0 (same model file the daemon loads).
    let offline = run_ok(&[
        "recommend",
        "--data",
        &data,
        "--model",
        &model,
        "--txn",
        "0",
    ]);

    let mut child = Command::new(bin())
        .args([
            "serve",
            "--model",
            &model,
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--workers",
            "2",
            "--io-threads",
            "1",
            "--batch",
            "8",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let addr = wait_for_addr(&addr_file, &mut child);

    let stream = TcpStream::connect(&addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut send = |line: &str| -> String {
        writeln!(writer, "{line}").unwrap();
        let mut buf = String::new();
        reader.read_line(&mut buf).unwrap();
        buf.trim_end().to_string()
    };

    let pong = send(r#"{"op":"ping"}"#);
    assert!(pong.contains(r#""op":"pong""#), "{pong}");

    // Serve the empty customer: the daemon's pick must appear in the
    // offline `recommend` output for the same model (the same item name
    // at the same promotion line).
    let resp = send(r#"{"op":"recommend"}"#);
    assert!(resp.starts_with(r#"{"ok":true,"degraded":false"#), "{resp}");
    let offline_empty = run_ok(&[
        "recommend",
        "--data",
        &data,
        "--model",
        &model,
        "--txn",
        "0",
    ]);
    assert_eq!(offline, offline_empty, "offline recommend must be stable");

    // Hot reload from the same file bumps the generation.
    let resp = send(r#"{"op":"reload"}"#);
    assert!(resp.contains(r#""generation":2"#), "{resp}");

    let bye = send(r#"{"op":"shutdown"}"#);
    assert!(bye.contains("bye"), "{bye}");

    let out = child.wait_with_output().expect("daemon exit");
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("served"), "{stdout}");
    assert!(stdout.contains("1 reloads"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A re-sealed, checksum-valid model whose rules point outside its own
/// catalog used to make `rules --model` and `recommend --model` exit 101
/// from an index panic. Load now refuses it: a runtime error, exit 1.
#[test]
fn models_with_rules_outside_their_catalog_exit_1_not_101() {
    let dir = tmp_dir("badrules");
    let path = |name: &str| dir.join(name).display().to_string();
    let (data, model) = gen_and_fit(&dir, "400", "80", "5");
    let (payload, _) = pm_store::load_model_file(&model).unwrap();
    let saved: profit_core::SavedModel =
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    let last = saved.rules.len() - 1;
    type Edit<'a> = &'a dyn Fn(&mut profit_core::SavedModel);
    let edits: [(&str, Edit); 3] = [
        ("head-item", &|m| m.rules[last].item = pm_txn::ItemId(9999)),
        ("head-code", &|m| m.rules[last].code = pm_txn::CodeId(77)),
        // A rule above the default one with a body naming item 9999.
        ("body-item", &|m| {
            let mut rule = m.rules[last].clone();
            rule.body = vec![pm_txn::GenSale::Item(pm_txn::ItemId(9999))];
            rule.is_default = false;
            m.rules.insert(0, rule);
        }),
    ];
    for (name, edit) in edits {
        let mut bad = saved.clone();
        edit(&mut bad);
        let bad_path = path(&format!("{name}.pm"));
        pm_store::save_sealed(&bad_path, serde_json::to_string(&bad).unwrap().as_bytes()).unwrap();
        for argv in [
            vec!["rules", "--model", &bad_path],
            vec![
                "recommend",
                "--data",
                &data,
                "--model",
                &bad_path,
                "--txn",
                "0",
            ],
        ] {
            let out = Command::new(bin()).args(&argv).output().expect("spawn CLI");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {argv:?}: {stderr}");
            assert!(stderr.contains("rule "), "{name} {argv:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{name} {argv:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Open fds of process `pid`.
#[cfg(target_os = "linux")]
fn fd_count(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .expect("read the daemon's fd table")
        .count()
}

/// A daemon admitting exactly a fleet of 96 plus one control connection:
/// every fleet connection gets the exact offline answer (before and
/// after a reload taken with the fleet open), the connections beyond the
/// cap are shed with `overloaded`, no worker panics, the daemon's fd
/// table returns to its pre-fleet size once the fleet closes, and
/// `shutdown` exits 0.
#[cfg(target_os = "linux")]
#[test]
fn a_full_fleet_is_served_exactly_extras_are_shed_and_no_fd_leaks() {
    use pm_serve::protocol::{obj, rec_value, render};
    use profit_core::{Matcher, Recommender};
    use serde::Value;

    const FLEET: usize = 96;
    const EXTRA: usize = 8;
    let dir = tmp_dir("fleet");
    let (data, model) = gen_and_fit(&dir, "300", "60", "21");
    let addr_file = dir.join("addr.txt");

    // The offline answers, from the same model file the daemon loads.
    let fitted = pm_serve::load_model(&model).unwrap();
    let matcher = Matcher::new(&fitted);
    let txns = pm_txn::TransactionSet::from_json(&std::fs::read_to_string(&data).unwrap())
        .unwrap()
        .transactions()
        .to_vec();
    let request = |i: usize| {
        let sales: Vec<String> = txns[i % txns.len()]
            .non_target_sales()
            .iter()
            .map(|s| format!("[{},{},{}]", s.item.0, s.code.0, s.qty))
            .collect();
        format!(r#"{{"op":"recommend","sales":[{}]}}"#, sales.join(","))
    };
    let expected = |i: usize| {
        let rec = matcher.recommend(txns[i % txns.len()].non_target_sales());
        render(&obj(vec![
            ("ok", Value::Bool(true)),
            ("degraded", Value::Bool(false)),
            ("recs", Value::Seq(vec![rec_value(&fitted, &rec)])),
        ]))
    };

    // Admission cap = workers + queue = the fleet plus the control line.
    let mut child = Command::new(bin())
        .args([
            "serve",
            "--model",
            &model,
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--workers",
            "2",
            "--queue",
            &(FLEET + 1 - 2).to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let addr = wait_for_addr(&addr_file, &mut child);
    let connect = || {
        let stream = TcpStream::connect(&addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    };
    let recv = |reader: &mut BufReader<TcpStream>| {
        let mut buf = String::new();
        reader.read_line(&mut buf).expect("read response");
        buf.trim_end().to_string()
    };

    let (mut ctl_reader, mut ctl) = connect();
    let mut control = |line: &str| {
        writeln!(ctl, "{line}").unwrap();
        recv(&mut ctl_reader)
    };
    assert!(control(r#"{"op":"ping"}"#).contains(r#""op":"pong""#));
    let fds_before = fd_count(child.id());

    // Every request is written before any answer is read, so the
    // workers see the whole fleet's load at once.
    let mut fleet: Vec<_> = (0..FLEET).map(|_| connect()).collect();
    let round = |fleet: &mut [(BufReader<TcpStream>, TcpStream)]| {
        for (i, (_, w)) in fleet.iter_mut().enumerate() {
            writeln!(w, "{}", request(i)).unwrap();
        }
        for (i, (r, _)) in fleet.iter_mut().enumerate() {
            assert_eq!(recv(r), expected(i), "fleet connection {i}");
        }
    };
    round(&mut fleet);

    for _ in 0..EXTRA {
        let (mut r, _w) = connect();
        let line = recv(&mut r);
        assert!(line.contains("overloaded"), "{line}");
    }

    let resp = control(r#"{"op":"reload"}"#);
    assert!(resp.contains(r#""generation":2"#), "{resp}");
    round(&mut fleet);

    let stats = control(r#"{"op":"stats"}"#);
    let Value::Map(stats) = serde_json::from_str(&stats).unwrap() else {
        panic!("stats is not an object: {stats}");
    };
    let counter = |key: &str| match stats.iter().find(|(k, _)| k == key) {
        Some((_, Value::U64(n))) => *n,
        other => panic!("stats {key}: {other:?}"),
    };
    assert!(counter("shed") >= EXTRA as u64, "shed {}", counter("shed"));
    assert_eq!(counter("worker_panics"), 0);

    drop(fleet);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = fd_count(child.id());
        if now == fds_before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "daemon holds {now} fds, {fds_before} before the fleet"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    assert!(control(r#"{"op":"shutdown"}"#).contains("bye"));
    let out = child.wait_with_output().expect("daemon exit");
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The counters one incremental delta moves, in the order the baseline
/// lists them.
const DELTA_COUNTERS: [&str; 10] = [
    "incremental.anchors_changed",
    "incremental.anchors_remined",
    "incremental.anchors_reused",
    "incremental.subtrees_reused",
    "mine.tids_scanned",
    "mine.head_sums",
    "miner.candidates_pruned",
    "mine.ub_evaluated",
    "mine.pairs_counted",
    "build.ucf_solved",
];

/// Run a streaming daemon on `head` at `threads`, send it `ingest` (if
/// any), shut it down, and read [`DELTA_COUNTERS`] from its `--metrics`
/// dump; a counter the dump omits stayed at 0.
fn streaming_counters(dir: &Path, head: &str, threads: &str, ingest: Option<&str>) -> [u64; 10] {
    let tag = format!("t{threads}-{}", ingest.map_or("fit", |_| "ingest"));
    let log = dir.join(format!("{tag}.log")).display().to_string();
    let metrics = dir.join(format!("{tag}.json"));
    let addr_file = dir.join(format!("{tag}.addr"));
    let mut child = Command::new(bin())
        .args([
            "serve",
            "--data",
            head,
            "--log",
            &log,
            "--minsup",
            "0.03",
            "--max-body",
            "4",
            "--threads",
            threads,
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let addr = wait_for_addr(&addr_file, &mut child);
    let stream = TcpStream::connect(&addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut send = |line: &str| -> String {
        writeln!(writer, "{line}").unwrap();
        let mut buf = String::new();
        reader.read_line(&mut buf).unwrap();
        buf
    };
    if let Some(line) = ingest {
        let ack = send(line);
        assert!(ack.contains(r#""op":"ingested""#), "{ack}");
    }
    assert!(send(r#"{"op":"shutdown"}"#).contains("bye"));
    let out = child.wait_with_output().expect("daemon exit");
    assert!(out.status.success(), "{out:?}");

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let serde::Value::Map(top) = serde_json::from_str(&text).expect("metrics dump is JSON") else {
        panic!("metrics dump is not an object");
    };
    let Some((_, serde::Value::Map(counters))) = top.into_iter().find(|(k, _)| k == "counters")
    else {
        panic!("metrics dump has no counters: {text}");
    };
    DELTA_COUNTERS.map(|name| match counters.iter().find(|(k, _)| k == name) {
        None => 0,
        Some((_, serde::Value::U64(c))) => *c,
        other => panic!("counter {name}: {other:?}"),
    })
}

/// One incremental delta's work, pinned like a cold fit's DFS counters
/// (`fit_cli.rs`). A streaming daemon on the first 390 transactions of
/// the CI smoke data (`gen --txns 400 --items 80 --seed 5`, `--minsup
/// 0.03 --max-body 4`) ingests the last 10 in one batch. Its `--metrics`
/// dump less the dump of a daemon that ingested nothing is the delta's
/// work, and must equal the baseline at 1 and 4 threads. Its
/// `mine.pairs_counted` recounts all 400 transactions, as a cold fit at
/// `--minsup 0.03` does (`fit_cli.rs`), since no pair table is carried
/// from one update to the next; its `build.ucf_solved` counts the `U_CF`
/// values the delta's build read that the fit's build had not. The
/// registry is process-global, so each dump comes from its own daemon.
/// A change that moves a count updates the baseline and says why.
#[test]
fn one_ingest_delta_does_the_pinned_work() {
    let dir = tmp_dir("delta-work");
    let path = |name: &str| dir.join(name).display().to_string();
    let (full, head, tail) = (path("full.json"), path("head.json"), path("tail.json"));
    run_ok(&[
        "gen", "--out", &full, "--txns", "400", "--items", "80", "--seed", "5",
    ]);
    run_ok(&[
        "split", "--data", &full, "--at", "390", "--head", &head, "--tail", &tail,
    ]);
    let batch: Vec<pm_txn::Transaction> =
        serde_json::from_str(&std::fs::read_to_string(&tail).unwrap()).unwrap();
    let ingest = pm_serve::protocol::ingest_line(None, &batch);
    let baseline: [u64; 10] = [
        110, 109, 86, 172_567, 2_988_844, 133_261, 63_654, 21_999, 236_091, 5,
    ];
    for threads in ["1", "4"] {
        let fit = streaming_counters(&dir, &head, threads, None);
        let both = streaming_counters(&dir, &head, threads, Some(&ingest));
        let delta: Vec<u64> = both.iter().zip(fit).map(|(b, f)| b - f).collect();
        assert_eq!(delta, baseline, "threads {threads}: {DELTA_COUNTERS:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
