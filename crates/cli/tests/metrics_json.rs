//! The `--metrics` dump must be a well-formed JSON text file: parseable
//! (checked with the workspace's vendored `serde_json`) and ending in
//! exactly one trailing newline.

mod common;

use common::{run_ok, tmp_dir};

#[test]
fn metrics_file_is_parseable_json_with_trailing_newline() {
    let dir = tmp_dir("metrics");
    let data = dir.join("data.json");
    let model = dir.join("model.json");
    let metrics = dir.join("metrics.json");
    run_ok(&[
        "gen",
        "--out",
        data.to_str().unwrap(),
        "--txns",
        "80",
        "--items",
        "12",
        "--seed",
        "7",
    ]);
    run_ok(&[
        "fit",
        "--data",
        data.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
        "--minsup",
        "0.05",
        "--threads",
        "1",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(
        text.ends_with('\n') && !text.ends_with("\n\n"),
        "metrics dump must end in exactly one newline"
    );
    let parsed: serde::Value = serde_json::from_str(&text).expect("metrics dump must be JSON");
    match parsed {
        serde::Value::Map(entries) => {
            let keys: Vec<_> = entries.iter().map(|(k, _)| k.as_str()).collect();
            for expected in ["phases", "counters"] {
                assert!(keys.contains(&expected), "missing {expected:?} in {keys:?}");
            }
        }
        other => panic!("metrics dump must be a JSON object, got {other:?}"),
    }

    // The model written alongside is a sealed envelope; its checksummed
    // payload must be a valid JSON document (guards the primary output
    // while we are here).
    let (payload, provenance) = pm_store::load_model_file(&model).expect("model envelope valid");
    assert_eq!(provenance, pm_store::Provenance::Sealed);
    let model_text = String::from_utf8(payload).expect("payload is UTF-8");
    serde_json::from_str::<serde::Value>(&model_text).expect("model payload must be JSON");

    let _ = std::fs::remove_dir_all(&dir);
}
