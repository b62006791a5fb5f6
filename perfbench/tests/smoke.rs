//! Every workload at smoke size — at most 1,000 transactions, 1 s
//! phases — untraced and traced. Each run must pass its correctness
//! checks with no failed operation and print every metric
//! `BENCHMARK.json` names, with its unit; a traced fit's layer self
//! times must account for an untraced fit.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

/// The workloads share two cores: run them one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(m) => m
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no {key:?} in {v:?}")),
        _ => panic!("{v:?} is not an object"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("{v:?} is not a string"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(x) => *x,
        _ => panic!("{v:?} is not a number"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Seq(s) => s,
        _ => panic!("{v:?} is not an array"),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    items(field(&doc, list))
        .iter()
        .map(|m| (text(field(m, "name")).into(), text(field(m, "unit")).into()))
        .collect()
}

struct Run {
    stdout: String,
    results: Value,
}

impl Run {
    /// The value printed as `<workload> <name> <value> <unit>`.
    fn printed(&self, workload: &str, name: &str, unit: &str) -> Option<f64> {
        self.stdout.lines().find_map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            (f.len() == 4 && f[0] == workload && f[1] == name && f[3] == unit)
                .then(|| f[2].parse().ok())
                .flatten()
        })
    }
}

fn run(workload: &str, trace: bool) -> Run {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "7", "--smoke", "--trace"])
        .arg(if trace { "1" } else { "0" })
        .current_dir(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{stderr}"
    );
    let last: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    assert!(
        matches!(field(&last, "correct"), Value::Bool(true)),
        "{stdout}"
    );
    assert_eq!(number(field(&last, "failed")), 0.0, "{stdout}\n{stderr}");
    assert!(number(field(&last, "attempted")) >= 1.0);
    let stem = format!("{workload}-seed7-trace{}", u8::from(trace));
    let results_path = dir.join(".bench_work/results").join(format!("{stem}.json"));
    let results: Value =
        serde_json::from_str(&std::fs::read_to_string(&results_path).unwrap()).unwrap();
    assert!(
        !items(field(&results, "checks")).is_empty(),
        "no correctness check ran"
    );
    assert!(items(field(&results, "problems")).is_empty());
    if trace {
        let spans = dir
            .join(".bench_work/results")
            .join(format!("{stem}.spans.jsonl"));
        let spans = std::fs::read_to_string(spans).unwrap();
        assert!(spans.lines().count() > 10, "too few spans:\n{spans}");
    }
    // The scratch directory of the run is gone; only results remain.
    let left: Vec<_> = std::fs::read_dir(dir.join(".bench_work"))
        .unwrap()
        .collect();
    assert_eq!(left.len(), 1, "{left:?}");
    let metrics = field(&last, "metrics");
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let Value::Map(got) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(got.len(), want.len(), "{stdout}");
    let run = Run { stdout, results };
    for (name, unit) in want {
        let m = field(metrics, &name);
        assert_eq!(text(field(m, "unit")), unit, "{name}");
        let v = number(field(m, "value"));
        assert_eq!(
            run.printed(workload, &name, &unit),
            Some(v),
            "{name} not printed"
        );
    }
    run
}

fn both(workload: &str) -> (Run, Run) {
    (run(workload, false), run(workload, true))
}

#[test]
fn fit_mine() {
    let (plain, traced) = both("fit-mine");
    // Layer self times per traced fit against the untraced fit time.
    let coverage = traced
        .printed("fit-mine", "bench.layer_coverage_pct", "%")
        .unwrap();
    assert!(
        (85.0..=115.0).contains(&coverage),
        "layers cover {coverage}% of a fit"
    );
    assert!(plain.printed("fit-mine", "samples", "count").unwrap() >= 5.0);
    assert_eq!(text(field(&plain.results, "workload")), "fit-mine");
}

#[test]
fn fit_build() {
    both("fit-build");
}

#[test]
fn serve_read() {
    let (_, traced) = both("serve-read");
    assert!(traced.stdout.contains("\nserve-read serve.capacity_rps "));
}

#[test]
fn serve_ingest() {
    both("serve-ingest");
}

#[test]
fn restart() {
    both("restart");
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
