//! What the daemon's test binaries share: a fitted model to serve, a
//! line client, and the exact answer a healthy daemon gives.

#![allow(dead_code)]

use pm_datagen::DatasetConfig;
use pm_rules::{MinerConfig, Support};
use pm_serve::protocol::{obj, rec_value, render};
use pm_txn::{Sale, TransactionSet};
use profit_core::{CutConfig, Matcher, ProfitMiner, Recommender, RuleModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

pub struct Fixture {
    /// Saved-model JSON payload (what `fit` seals into the model file).
    pub json: String,
    pub model: RuleModel,
    pub customers: Vec<Vec<Sale>>,
}

/// A model fitted on seeded data, and the baskets of its first
/// `customers` transactions.
pub fn build_fixture(seed: u64, customers: usize) -> Fixture {
    let data: TransactionSet = DatasetConfig::dataset_i()
        .with_transactions(300)
        .with_items(60)
        .generate(&mut StdRng::seed_from_u64(seed));
    let model = ProfitMiner::new(MinerConfig {
        min_support: Support::Fraction(0.03),
        max_body_len: 2,
        ..MinerConfig::default()
    })
    .with_cut(CutConfig::default())
    .fit(&data);
    let customers = data
        .transactions()
        .iter()
        .take(customers)
        .map(|t| t.non_target_sales().to_vec())
        .collect();
    Fixture {
        json: serde_json::to_string(&model.save()).unwrap(),
        model,
        customers,
    }
}

/// A fresh scratch directory for one test of one test binary.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pm-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

pub fn sealed_model_file(dir: &Path, name: &str, fix: &Fixture) -> PathBuf {
    let p = dir.join(name);
    pm_store::save_sealed(&p, fix.json.as_bytes()).unwrap();
    p
}

/// A line-oriented test client.
pub struct Client {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl Client {
    pub fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    pub fn send(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("write request");
        self.recv()
    }

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
    let matcher = Matcher::new(model);
    let rec = matcher.recommend(customer);
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("degraded", Value::Bool(false)),
        ("recs", Value::Seq(vec![rec_value(model, &rec)])),
    ]))
}

pub fn assert_ok(line: &str) {
    assert!(line.starts_with(r#"{"ok":true"#), "{line}");
}

/// The unsigned integer at `key` of a JSON object line.
pub fn json_u64(line: &str, key: &str) -> u64 {
    let v: Value = serde_json::from_str(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    let Value::Map(m) = v else { panic!("{line}") };
    match m.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
        Some(Value::U64(u)) => *u,
        other => panic!("no u64 {key} in {line}: {other:?}"),
    }
}
