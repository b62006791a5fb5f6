//! `experiments bench-mining` must emit a `BENCH_mining.json` that parses
//! with the workspace's vendored `serde_json` and ends in exactly one
//! trailing newline.

use std::process::Command;

#[test]
fn bench_mining_json_is_parseable_with_trailing_newline() {
    let dir = std::env::temp_dir().join(format!("pm-bench-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "--txns",
            "120",
            "--items",
            "15",
            "--seed",
            "3",
            "--threads",
            "1",
            "--out",
            dir.to_str().unwrap(),
            "bench-mining",
        ])
        .output()
        .expect("spawn experiments");
    assert!(
        out.status.success(),
        "experiments bench-mining failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let text =
        std::fs::read_to_string(dir.join("BENCH_mining.json")).expect("BENCH_mining.json written");
    assert!(
        text.ends_with('\n') && !text.ends_with("\n\n"),
        "BENCH_mining.json must end in exactly one newline"
    );
    let parsed: serde::Value = serde_json::from_str(&text).expect("summary must be JSON");
    match parsed {
        serde::Value::Map(entries) => {
            let keys: Vec<_> = entries.iter().map(|(k, _)| k.as_str()).collect();
            for expected in [
                "host_cores",
                "transactions",
                "rules",
                "phases",
                "delta_refit",
                "targeted",
            ] {
                assert!(keys.contains(&expected), "missing {expected:?} in {keys:?}");
            }
            let targeted = entries
                .iter()
                .find(|(k, _)| k == "targeted")
                .map(|(_, v)| v)
                .unwrap();
            let serde::Value::Map(cell) = targeted else {
                panic!("targeted must be a JSON object, got {targeted:?}");
            };
            let cell_keys: Vec<_> = cell.iter().map(|(k, _)| k.as_str()).collect();
            for expected in [
                "target",
                "rules",
                "mine_postfilter_millis",
                "mine_targeted_millis",
                "speedup",
            ] {
                assert!(
                    cell_keys.contains(&expected),
                    "missing targeted.{expected} in {cell_keys:?}"
                );
            }
            let delta = entries
                .iter()
                .find(|(k, _)| k == "delta_refit")
                .map(|(_, v)| v)
                .unwrap();
            let serde::Value::Map(cell) = delta else {
                panic!("delta_refit must be a JSON object, got {delta:?}");
            };
            let cell_keys: Vec<_> = cell.iter().map(|(k, _)| k.as_str()).collect();
            for expected in [
                "delta_transactions",
                "full_refit_millis",
                "delta_update_millis",
                "speedup",
            ] {
                assert!(
                    cell_keys.contains(&expected),
                    "missing delta_refit.{expected} in {cell_keys:?}"
                );
            }
        }
        other => panic!("summary must be a JSON object, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}
