//! What the CLI's test binaries share: the binary, scratch directories,
//! a checked run, the daemon's published address, a line client and the
//! exact answer a healthy daemon gives, and `--metrics` counters.

#![allow(dead_code)]

use pm_serve::protocol::{obj, rec_value, render};
use pm_txn::Sale;
use profit_core::{Matcher, Recommender, RuleModel};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

pub fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_profit-mining")
}

/// A fresh scratch directory for one test of one test binary.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pm-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Run the CLI, require success, and return its stdout.
pub fn run_ok(args: &[&str]) -> String {
    let out = Command::new(bin()).args(args).output().expect("spawn CLI");
    assert!(
        out.status.success(),
        "profit-mining {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Poll for the daemon's `--addr-file` (written atomically once bound).
pub fn wait_for_addr(path: &Path, child: &mut Child) -> String {
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

/// A line client for the daemon at `addr`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Send one request line and return its answer.
    pub fn send(&mut self, line: &str) -> String {
        self.write(line);
        self.recv()
    }

    pub fn write(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("write request");
    }

    /// The next answer line, newline trimmed.
    pub fn recv(&mut self) -> String {
        let mut buf = String::new();
        self.reader.read_line(&mut buf).expect("read response");
        buf.trim_end().to_string()
    }
}

pub fn recommend_line(customer: &[Sale]) -> String {
    let sales: Vec<String> = customer
        .iter()
        .map(|s| format!("[{},{},{}]", s.item.0, s.code.0, s.qty))
        .collect();
    format!(r#"{{"op":"recommend","sales":[{}]}}"#, sales.join(","))
}

/// The exact response line a healthy daemon must produce for `customer`.
pub fn expected_line(model: &RuleModel, customer: &[Sale]) -> String {
    let rec = Matcher::new(model).recommend(customer);
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("degraded", Value::Bool(false)),
        ("recs", Value::Seq(vec![rec_value(model, &rec)])),
    ]))
}

/// The `--metrics` value of a counter; the dump omits counters that
/// stayed at 0.
pub fn counter(metrics: &Path, name: &str) -> u64 {
    let text = std::fs::read_to_string(metrics).expect("metrics file written");
    let serde::Value::Map(top) = serde_json::from_str(&text).expect("metrics dump is JSON") else {
        panic!("metrics dump is not an object");
    };
    let counters = top
        .into_iter()
        .find_map(|(k, v)| match (k.as_str(), v) {
            ("counters", serde::Value::Map(c)) => Some(c),
            _ => None,
        })
        .expect("dump has counters");
    match counters.iter().find(|(k, _)| k == name) {
        None => 0,
        Some((_, serde::Value::U64(c))) => *c,
        other => panic!("counter {name}: {other:?}"),
    }
}
