//! Implementation of the `profit-mining` command-line tool.
//!
//! Kept as a library so each subcommand is unit-testable; `main.rs` is a
//! thin shim. Argument parsing is hand-rolled (flag/value pairs only) to
//! keep the dependency set at the workspace baseline.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod commands;

pub use args::{ArgMap, CliError};

/// The flags that configure the rule miner (`fit`, `assort`,
/// `checkpoint` and a streaming `serve`).
const MINE_FLAGS: &[&str] = &[
    "--minsup",
    "--max-body",
    "--no-moa",
    "--buying",
    "--min-conf",
    "--min-profit",
    "--min-profit-per-item",
    "--target",
    "--threads",
];

/// The recommender-construction flags (`fit`, `checkpoint` and a
/// streaming `serve`).
const FIT_FLAGS: &[&str] = &["--conf", "--no-prune"];

/// The daemon's own flags.
const SERVE_FLAGS: &[&str] = &[
    "--data",
    "--log",
    "--model",
    "--addr",
    "--addr-file",
    "--workers",
    "--queue",
    "--io-threads",
    "--batch",
    "--read-timeout-ms",
    "--write-timeout-ms",
    "--deadline-ms",
    "--max-line",
    "--checkpoint",
    "--max-ingest-txns",
    "--max-ingest-bytes",
    "--metrics",
];

type Verb = fn(&ArgMap) -> Result<String, CliError>;

/// Dispatch a CLI invocation; returns the text to print on stdout.
///
/// Every verb lists the flags it reads; any other flag is a usage error
/// raised before the verb runs, so a typo never silently fits a
/// different model.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let (command, rest) = argv.split_first().ok_or_else(|| CliError::Usage(usage()))?;
    let (verb, flags): (Verb, &[&[&str]]) = match command.as_str() {
        "gen" => (
            commands::gen,
            &[&["--out", "--dataset", "--txns", "--items", "--seed"]],
        ),
        "fit" => (
            commands::fit,
            &[
                MINE_FLAGS,
                FIT_FLAGS,
                &["--data", "--out", "--log", "--metrics"],
            ],
        ),
        "ingest" => (
            commands::ingest,
            &[&["--data", "--log", "--batch", "--catalog-delta"]],
        ),
        "checkpoint" => (
            commands::checkpoint,
            &[
                MINE_FLAGS,
                FIT_FLAGS,
                &["--data", "--log", "--out", "--no-compact"],
            ],
        ),
        "split" => (commands::split, &[&["--data", "--at", "--head", "--tail"]]),
        "recommend" => (
            commands::recommend,
            &[&[
                "--data",
                "--model",
                "--txn",
                "--top",
                "--all",
                "--target",
                "--metrics",
            ]],
        ),
        "assort" => (
            commands::assort,
            &[MINE_FLAGS, &["--data", "--n", "--conf", "--metrics"]],
        ),
        "rules" => (commands::rules, &[&["--model", "--top"]]),
        "eval" => (
            commands::eval,
            &[&[
                "--data",
                "--minsup",
                "--folds",
                "--seed",
                "--max-body",
                "--buying",
                "--threads",
                "--metrics",
            ]],
        ),
        "stats" => (commands::stats, &[&["--data"]]),
        "import" => (commands::import, &[&["--catalog", "--sales", "--out"]]),
        "export" => (commands::export, &[&["--data", "--catalog", "--sales"]]),
        "serve" => (commands::serve, &[MINE_FLAGS, FIT_FLAGS, SERVE_FLAGS]),
        "help" | "--help" | "-h" => return Ok(usage()),
        other => {
            return Err(CliError::Usage(format!(
                "unknown command {other:?}\n{}",
                usage()
            )))
        }
    };
    let args = ArgMap::parse(rest)?;
    args.only(command, flags)?;
    verb(&args)
}

/// The usage text.
pub fn usage() -> String {
    "\
profit-mining — build profit-maximizing item/price recommenders (EDBT 2002)

USAGE
  profit-mining gen        --out data.json [--dataset i|ii] [--txns N] [--items N] [--seed N]
  profit-mining fit        --data data.json --out model.json [--log sales.log] [--minsup F]
                           [--max-body N] [--no-moa] [--conf] [--no-prune] [--min-conf F]
                           [--min-profit F] [--min-profit-per-item ITEM=F,...]
                           [--target items:A,B|subtree:C|codes:0,1] [--buying] [--threads N]
                           [--metrics metrics.json]
  profit-mining ingest     --data data.json --log sales.log --batch batch.json
                           [--catalog-delta delta.json]
  profit-mining checkpoint --data data.json --log sales.log --out ck.pmck
                           [--no-compact] [fit flags]
  profit-mining split      --data data.json --at N --head head.json --tail tail.json
  profit-mining recommend  --data data.json --model model.json [--txn N] [--top K] [--all]
                           [--target SPEC] [--metrics metrics.json]
  profit-mining assort     --data data.json [--n N] [fit flags except --no-prune]
                           [--metrics metrics.json]
  profit-mining rules      --model model.json [--top N]
  profit-mining eval       --data data.json [--minsup F] [--folds N] [--buying] [--seed N]
                           [--threads N] [--metrics metrics.json]
  profit-mining stats      --data data.json
  profit-mining import     --catalog catalog.csv --sales sales.csv --out data.json
  profit-mining export     --data data.json --catalog catalog.csv --sales sales.csv
  profit-mining serve      --model model.json [--addr HOST:PORT] [--addr-file path]
                           [--workers N] [--queue N] [--io-threads N] [--batch N]
                           [--deadline-ms N] [--read-timeout-ms N] [--write-timeout-ms N]
                           [--max-line BYTES] [--metrics metrics.json]
  profit-mining serve      --data data.json --log sales.log [fit flags] [serve flags]
                           [--checkpoint ck.pmck] [--max-ingest-txns N]
                           [--max-ingest-bytes N]
  profit-mining help

  --threads N selects the worker-thread count for mining and evaluation
  (0 = all cores, the default; 1 runs the same jobs inline on one
  thread); output is bit-identical at every setting. --minsup F must be
  in (0, 1] for fit and eval alike. --min-conf F admits only rules with
  confidence ≥ F, a number in [0, 1] (default 0.5; 0 is no floor).
  --min-profit F admits only rules with body profit ≥ F — the absolute
  floor the miner's profit upper bound cuts hardest against. eval
  --folds N must lie between 2 and the transaction count. Every
  command rejects flags it does not read.
  --min-profit-per-item NAME=F,... sets per-item floors that override
  the scalar for the named target items (names or raw ids). Floors
  must be finite numbers: nan and inf are usage errors.

  Input files must be regular files. Every file a command reads
  (--data, --model, --log, --batch, --catalog-delta, --checkpoint,
  import's --catalog and --sales) is refused with \"not a regular
  file\" and its path when it is a directory, device, FIFO or socket.
  That includes piped input: /dev/stdin, a pipe, or a process
  substitution such as <(zcat data.json.gz). Write the input to a file
  first.

  Targeted mining: --target restricts rule heads to an admitted set —
  items:A,B (target item names or ids), subtree:CONCEPT (every target
  item under a hierarchy concept), or codes:0,1 (promotion-code
  classes). fit --target pushes the restriction into the mining DFS
  (pruning head-free subtrees early) and is byte-identical to fitting
  the full model and post-filtering its ranked list. recommend --target
  filters during rule selection, so out-of-target rules never count
  against --top; a customer whose matching rules are all out-of-target
  gets no recommendation rather than an off-target default.

  assort picks the top --n (item, code) pairs maximizing the *joint*
  expected recommendation profit over the training customers — an
  overlap-aware greedy over the mined rule set (two pairs serving the
  same customers add less than their individual scores). It accepts the
  fit flags, including --target and the profit floors.

  Streaming ingestion: ingest validates a JSON batch of transactions
  against the base dataset plus everything already logged, then appends
  it to the crash-safe sales log (one fsynced record per batch; a torn
  tail from a crash mid-append is truncated away on the next open).
  --catalog-delta attaches an append-only catalog/hierarchy extension
  ({\"concepts\":[...],\"items\":[...]}) to the same record, so new
  items enter the stream atomically with their first sales. fit --log
  replays the log onto the base dataset and fits the whole stream once
  — the written model is byte-identical to a cold fit on the
  concatenated stream. split cuts a dataset into a head dataset and a
  tail batch for exercising exactly that pipeline.

  Checkpointing & recovery: checkpoint seals the whole streaming state
  (data, warm miner caches, log position) into an atomic,
  checksummed PMCK envelope and then compacts the sales log behind it,
  so restarts replay only the records after the checkpoint. Rerunning
  checkpoint resumes from the previous envelope instead of refitting
  from scratch. serve --checkpoint points the daemon at its envelope:
  {\"op\":\"checkpoint\"} seals to that file and compacts online, and
  on startup the daemon restores the envelope, replays the log tail,
  and serves a model byte-identical to a full replay. The CLI verbs recover exactly as the daemon does, so for the
  same data, log and fit flags checkpoint seals the same bytes as the
  daemon's op. A corrupt envelope falls back to full-log replay while
  the log is complete, and is a hard error once the log was compacted;
  fit --log and ingest take no checkpoint, so they refuse a compacted
  log. The ingest batch caps (--max-ingest-txns, --max-ingest-bytes;
  0 disables one axis) bound the cost any single {\"op\":\"ingest\"}
  line can impose; oversized batches are refused before touching the
  log.

  recommend --all serves every customer in --data through the indexed
  rule matcher and prints a per-(item, code) summary plus the serving
  latency p50/p95/p99.

  serve runs a line-delimited-JSON TCP daemon over a fitted model:
  an event-driven readiness loop (--io-threads reactors, epoll with a
  portable poll fallback) feeding a compute pool (--workers) in batches
  of up to --batch requests per model snapshot, bounded admission with
  load shedding, per-request timeouts with a flagged degraded mode (the
  §3.2 default rule) when the matcher errors or blows the deadline, and
  {\"op\":\"reload\"} hot model swaps: rewrite the --model file (fit
  --out writes atomically), then send reload; the old model keeps
  serving on any validation failure. No request names a file, so a
  reload or checkpoint line carrying \"model\" or \"path\" is refused.
  With --data and --log instead of --model the daemon runs in streaming
  mode: it replays the sales log, fits in-process with the usual fit
  flags, and accepts {\"op\":\"ingest\"} requests that append a batch
  to the log (durability first), refit incrementally, and hot-swap the
  model — byte-identical to a cold fit on the concatenated stream; it
  refuses reload. --addr HOST:0 picks an ephemeral port;
  --addr-file publishes the bound address. fit writes models in a
  checksummed envelope, so torn or bit-flipped files are rejected at
  load, and so is a model file without the envelope (raw JSON).

  Observability: PM_LOG=off|error|info|debug selects structured logging
  to stderr (default off); --metrics PATH dumps the metrics registry
  (phase timings, counters, latency histograms) as JSON after fit,
  eval, recommend, assort, and serve (once the daemon stops). Neither
  perturbs output: models are byte-identical with observability on or
  off.
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_unknown() {
        let _guard = pm_store::faults::test_lock();
        assert!(run(&v(&["help"])).unwrap().contains("USAGE"));
        assert!(matches!(run(&v(&["bogus"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn end_to_end_gen_fit_recommend_eval() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.json").display().to_string();
        let model = dir.join("model.json").display().to_string();

        let out = run(&v(&[
            "gen",
            "--out",
            &data,
            "--dataset",
            "i",
            "--txns",
            "400",
            "--items",
            "80",
            "--seed",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("400 transactions"), "{out}");

        let out = run(&v(&["stats", "--data", &data])).unwrap();
        assert!(out.contains("transactions: 400"), "{out}");

        let out = run(&v(&[
            "fit",
            "--data",
            &data,
            "--out",
            &model,
            "--minsup",
            "0.03",
            "--max-body",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("rules"), "{out}");

        let out = run(&v(&["rules", "--model", &model, "--top", "5"])).unwrap();
        assert!(out.contains("→"), "{out}");

        let out = run(&v(&[
            "recommend",
            "--data",
            &data,
            "--model",
            &model,
            "--txn",
            "0",
            "--top",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("recommend"), "{out}");

        let out = run(&v(&[
            "eval",
            "--data",
            &data,
            "--minsup",
            "0.03",
            "--folds",
            "2",
            "--max-body",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("gain"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_all_serves_every_customer() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-all-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.json").display().to_string();
        let model = dir.join("model.json").display().to_string();
        run(&v(&[
            "gen", "--out", &data, "--txns", "300", "--items", "60", "--seed", "11",
        ]))
        .unwrap();
        run(&v(&[
            "fit",
            "--data",
            &data,
            "--out",
            &model,
            "--minsup",
            "0.03",
            "--max-body",
            "2",
        ]))
        .unwrap();
        let out = run(&v(&[
            "recommend",
            "--data",
            &data,
            "--model",
            &model,
            "--all",
        ]))
        .unwrap();
        assert!(out.contains("served 300 customers"), "{out}");
        assert!(out.contains("indexed matcher"), "{out}");
        // The per-pair counts add back up to the customer count.
        let total: u64 = out
            .lines()
            .skip(1)
            .filter_map(|l| l.split('×').next())
            .filter_map(|n| n.trim().parse::<u64>().ok())
            .sum();
        assert_eq!(total, 300, "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flags a verb does not read are usage errors raised before it
    /// writes anything: the removed policy knobs and a misspelling that
    /// would otherwise fit a different model.
    #[test]
    fn unknown_flags_are_rejected_before_any_write() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-flags-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.json").display().to_string();
        let model = dir.join("model.json").display().to_string();
        run(&v(&[
            "gen", "--out", &data, "--txns", "100", "--items", "30", "--seed", "9",
        ]))
        .unwrap();
        // The retired tidset and pruning knobs, and a typo of --min-profit.
        for (name, value) in [("tidset", "dense"), ("prune", "off"), ("min-proft", "5")] {
            let flag = format!("--{name}");
            let err = run(&v(&[
                "fit", "--data", &data, "--out", &model, "--minsup", "0.05", &flag, value,
            ]))
            .unwrap_err();
            let CliError::Usage(msg) = err else {
                panic!("{flag}: expected a usage error, got {err}");
            };
            assert_eq!(msg, format!("fit does not take {flag}"));
            assert!(
                !std::path::Path::new(&model).exists(),
                "{flag} wrote a model"
            );
        }
        // A switch another verb reads is still foreign here.
        assert!(matches!(
            run(&v(&["stats", "--data", &data, "--all"])),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_flag_is_output_invariant() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-thr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.json").display().to_string();
        run(&v(&[
            "gen", "--out", &data, "--txns", "300", "--items", "60", "--seed", "9",
        ]))
        .unwrap();
        let fit_at = |threads: &str| {
            let model = dir.join(format!("m{threads}.json")).display().to_string();
            run(&v(&[
                "fit",
                "--data",
                &data,
                "--out",
                &model,
                "--minsup",
                "0.03",
                "--max-body",
                "2",
                "--threads",
                threads,
            ]))
            .unwrap();
            std::fs::read(&model).unwrap()
        };
        let sequential = fit_at("1");
        assert_eq!(sequential, fit_at("4"), "fitted model bytes differ");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Structs mirroring the `pm-obs` dump schema, to prove `--metrics`
    /// emits JSON our own serde shim can parse.
    #[derive(serde::Deserialize)]
    struct PhaseTime {
        phase: String,
        millis: f64,
    }

    #[derive(serde::Deserialize)]
    struct MetricsDump {
        phases: Vec<PhaseTime>,
    }

    #[test]
    fn metrics_flag_emits_json_without_perturbing_model_bytes() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.json").display().to_string();
        run(&v(&[
            "gen", "--out", &data, "--txns", "300", "--items", "60", "--seed", "7",
        ]))
        .unwrap();

        // Baseline: observability fully off, no --metrics.
        pm_obs::set_level(pm_obs::Level::Off);
        let baseline = dir.join("m-base.json").display().to_string();
        run(&v(&[
            "fit",
            "--data",
            &data,
            "--out",
            &baseline,
            "--minsup",
            "0.03",
            "--max-body",
            "2",
        ]))
        .unwrap();
        let baseline_bytes = std::fs::read(&baseline).unwrap();

        // Instrumented runs: PM_LOG=debug + --metrics at 1/2/8 threads
        // must still write byte-identical models.
        std::env::set_var("PM_LOG", "debug");
        pm_obs::set_level(pm_obs::Level::Debug);
        for threads in ["1", "2", "8"] {
            let model = dir.join(format!("m-t{threads}.json")).display().to_string();
            let metrics = dir.join(format!("x-t{threads}.json")).display().to_string();
            run(&v(&[
                "fit",
                "--data",
                &data,
                "--out",
                &model,
                "--minsup",
                "0.03",
                "--max-body",
                "2",
                "--threads",
                threads,
                "--metrics",
                &metrics,
            ]))
            .unwrap();
            assert_eq!(
                std::fs::read(&model).unwrap(),
                baseline_bytes,
                "model bytes changed under PM_LOG=debug + --metrics at {threads} threads"
            );
            let dump: MetricsDump =
                serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
            let phases: Vec<&str> = dump.phases.iter().map(|p| p.phase.as_str()).collect();
            for want in ["mine.tidsets", "mine.dfs", "fit.mine", "fit.build"] {
                assert!(phases.contains(&want), "missing phase {want}: {phases:?}");
            }
            assert!(dump.phases.iter().all(|p| p.millis >= 0.0));
        }
        pm_obs::set_level(pm_obs::Level::Off);

        // recommend --all --metrics: the dump gains the serving histogram
        // and the summary reports its quantiles.
        let metrics = dir.join("serve-metrics.json").display().to_string();
        let out = run(&v(&[
            "recommend",
            "--data",
            &data,
            "--model",
            &baseline,
            "--all",
            "--metrics",
            &metrics,
        ]))
        .unwrap();
        assert!(out.contains("serving latency: p50"), "{out}");
        let raw = std::fs::read_to_string(&metrics).unwrap();
        assert!(raw.contains("\"serve.recommend_ns\""), "{raw}");
        assert!(raw.contains("\"p99_ns\""), "{raw}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_rule_trace_degrades_instead_of_panicking() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.json").display().to_string();
        let model_path = dir.join("model.json").display().to_string();
        run(&v(&[
            "gen", "--out", &data, "--txns", "200", "--items", "40", "--seed", "3",
        ]))
        .unwrap();
        run(&v(&[
            "fit",
            "--data",
            &data,
            "--out",
            &model_path,
            "--minsup",
            "0.03",
            "--max-body",
            "2",
        ]))
        .unwrap();
        // fit writes sealed envelopes now, so load through the store.
        let model = pm_serve::load_model(&model_path).unwrap();
        let mut rec = profit_core::Recommender::recommend(&model, &[]);
        // A trace the model cannot explain (e.g. produced by a different
        // recommender) must degrade, not abort the command.
        rec.rule_index = None;
        let line = commands::render_recommendation(&model, &rec);
        assert!(line.contains("(no rule trace available)"), "{line}");
        rec.rule_index = Some(usize::MAX);
        let line = commands::render_recommendation(&model, &rec);
        assert!(line.contains("(no rule trace available)"), "{line}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_import_export_roundtrip() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.json").display().to_string();
        let cat = dir.join("c.csv").display().to_string();
        let sal = dir.join("s.csv").display().to_string();
        run(&v(&[
            "gen", "--out", &data, "--txns", "50", "--items", "20",
        ]))
        .unwrap();
        run(&v(&[
            "export",
            "--data",
            &data,
            "--catalog",
            &cat,
            "--sales",
            &sal,
        ]))
        .unwrap();
        let data2 = dir.join("d2.json").display().to_string();
        let out = run(&v(&[
            "import",
            "--catalog",
            &cat,
            "--sales",
            &sal,
            "--out",
            &data2,
        ]))
        .unwrap();
        assert!(out.contains("50 transactions"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_files_are_runtime_errors() {
        let _guard = pm_store::faults::test_lock();
        assert!(matches!(
            run(&v(&[
                "fit",
                "--data",
                "/nonexistent.json",
                "--out",
                "/tmp/x.json"
            ])),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(
            run(&v(&["stats", "--data", "/nonexistent.json"])),
            Err(CliError::Runtime(_))
        ));
    }

    /// Missing required flags, and `eval` flag values `fit` refuses or
    /// `Folds` cannot split by, are usage errors that name the value,
    /// not a panic or a table headed "minsup NaN%".
    #[test]
    fn missing_required_flags_are_usage_errors() {
        let _guard = pm_store::faults::test_lock();
        assert!(matches!(run(&v(&["gen"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&v(&["recommend"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&v(&["ingest"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&v(&["split"])), Err(CliError::Usage(_))));

        let dir = std::env::temp_dir().join(format!("pm-cli-evalflags-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.json").display().to_string();
        run(&v(&[
            "gen", "--out", &data, "--txns", "300", "--items", "60", "--seed", "5",
        ]))
        .unwrap();
        for (flag, value, named) in [
            ("--minsup", "0", "--minsup must be in (0, 1], got 0"),
            ("--minsup", "-1", "got -1"),
            ("--minsup", "nan", "got NaN"),
            ("--minsup", "2", "got 2"),
            ("--folds", "0", "--folds 0 is outside 2..=300"),
            ("--folds", "1", "--folds 1 "),
            ("--folds", "100000", "--folds 100000 "),
        ] {
            let err = run(&v(&["eval", "--data", &data, flag, value])).unwrap_err();
            let CliError::Usage(msg) = err else {
                panic!("eval {flag} {value}: {err}");
            };
            assert!(msg.contains(named), "eval {flag} {value}: {msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The full streaming pipeline: `split` a dataset, `ingest` the tail
    /// in two batches, `fit --log` on the head — and get exactly the
    /// bytes a cold `fit` writes on the full dataset.
    #[test]
    fn split_ingest_fit_log_matches_cold_fit_bytes() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.json").display().to_string();
        let head = dir.join("head.json").display().to_string();
        let tail = dir.join("tail.json").display().to_string();
        let mid = dir.join("mid.json").display().to_string();
        let log = dir.join("sales.log").display().to_string();

        run(&v(&[
            "gen", "--out", &full, "--txns", "400", "--items", "80", "--seed", "21",
        ]))
        .unwrap();
        let out = run(&v(&[
            "split", "--data", &full, "--at", "250", "--head", &head, "--tail", &tail,
        ]))
        .unwrap();
        assert!(out.contains("head dataset"), "{out}");
        assert!(out.contains("150 transactions"), "{out}");

        // Re-split the tail batch into two ingest batches.
        let tail_txns: Vec<pm_txn::Transaction> =
            serde_json::from_str(&std::fs::read_to_string(&tail).unwrap()).unwrap();
        let (a, b) = tail_txns.split_at(70);
        std::fs::write(&mid, serde_json::to_string(&a).unwrap()).unwrap();
        let out = run(&v(&[
            "ingest", "--data", &head, "--log", &log, "--batch", &mid,
        ]))
        .unwrap();
        assert!(out.contains("appended 70 transactions"), "{out}");
        assert!(out.contains("stream now 320 transactions"), "{out}");
        std::fs::write(&mid, serde_json::to_string(&b).unwrap()).unwrap();
        let out = run(&v(&[
            "ingest", "--data", &head, "--log", &log, "--batch", &mid,
        ]))
        .unwrap();
        assert!(out.contains("stream now 400 transactions"), "{out}");

        let fit = |data: &str, out: &str, log: Option<&str>| {
            let mut argv = v(&[
                "fit",
                "--data",
                data,
                "--out",
                out,
                "--minsup",
                "0.03",
                "--max-body",
                "2",
            ]);
            if let Some(l) = log {
                argv.extend(v(&["--log", l]));
            }
            run(&argv).unwrap()
        };
        let cold_model = dir.join("m-cold.json").display().to_string();
        fit(&full, &cold_model, None);
        let inc_model = dir.join("m-inc.json").display().to_string();
        let out = fit(&head, &inc_model, Some(&log));
        assert!(
            out.contains("replayed 2 log records into 400 transactions"),
            "{out}"
        );
        assert_eq!(
            std::fs::read(&cold_model).unwrap(),
            std::fs::read(&inc_model).unwrap(),
            "fit --log bytes differ from the cold fit on the concatenated stream"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash mid-append leaves a torn tail; the next `ingest` recovers
    /// (reporting the truncation) and the stream continues cleanly.
    #[test]
    fn ingest_recovers_a_torn_log_tail() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.json").display().to_string();
        let head = dir.join("head.json").display().to_string();
        let tail = dir.join("tail.json").display().to_string();
        let log = dir.join("sales.log").display().to_string();
        run(&v(&[
            "gen", "--out", &full, "--txns", "200", "--items", "40", "--seed", "13",
        ]))
        .unwrap();
        run(&v(&[
            "split", "--data", &full, "--at", "100", "--head", &head, "--tail", &tail,
        ]))
        .unwrap();
        let tail_txns: Vec<pm_txn::Transaction> =
            serde_json::from_str(&std::fs::read_to_string(&tail).unwrap()).unwrap();
        let (a, b) = tail_txns.split_at(50);
        let batch_a = dir.join("a.json").display().to_string();
        let batch_b = dir.join("b.json").display().to_string();
        std::fs::write(&batch_a, serde_json::to_string(&a).unwrap()).unwrap();
        std::fs::write(&batch_b, serde_json::to_string(&b).unwrap()).unwrap();

        // First batch lands cleanly (and creates the log).
        run(&v(&[
            "ingest", "--data", &head, "--log", &log, "--batch", &batch_a,
        ]))
        .unwrap();

        // The second ingest dies mid-append: 11 bytes of the record hit
        // the disk before the injected crash.
        pm_store::faults::set_torn_write_at(Some(11));
        let err = run(&v(&[
            "ingest", "--data", &head, "--log", &log, "--batch", &batch_b,
        ]))
        .unwrap_err();
        pm_store::faults::set_torn_write_at(None);
        assert!(matches!(err, CliError::Runtime(_)), "{err}");

        // The retry truncates the torn tail and appends the full record.
        let out = run(&v(&[
            "ingest", "--data", &head, "--log", &log, "--batch", &batch_b,
        ]))
        .unwrap();
        assert!(out.contains("recovered a torn tail of 11 bytes"), "{out}");
        assert!(out.contains("stream now 200 transactions"), "{out}");

        // Batches that don't validate against the stream are rejected.
        std::fs::write(&tail, "[]").unwrap();
        let err = run(&v(&[
            "ingest", "--data", &head, "--log", &log, "--batch", &tail,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("batch is empty"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Malformed hierarchy tables in a data or model file are runtime
    /// errors naming the hierarchy — `fit`, `stats`, `rules` and `serve`
    /// used to abort with an index panic (exit 101) instead.
    #[test]
    fn malformed_hierarchies_are_runtime_errors_not_aborts() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-badhier-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).display().to_string();
        let (data, model) = (path("data.json"), path("model.pm"));
        run(&v(&[
            "gen", "--out", &data, "--txns", "200", "--items", "40", "--seed", "3",
        ]))
        .unwrap();
        run(&v(&[
            "fit",
            "--data",
            &data,
            "--out",
            &model,
            "--minsup",
            "0.05",
            "--max-body",
            "2",
        ]))
        .unwrap();
        let set =
            pm_txn::TransactionSet::from_json(&std::fs::read_to_string(&data).unwrap()).unwrap();
        let n = set.catalog().len();
        let lists = |k: usize| serde_json::to_string(&vec![Vec::<u32>::new(); k]).unwrap();
        // One item parent list short; and a concept whose parent is out of range.
        let short = format!(
            r#"{{"n_items":{n},"concept_names":[],"item_parents":{},"concept_parents":[]}}"#,
            lists(n - 1)
        );
        let dangling = format!(
            r#"{{"n_items":{n},"concept_names":["c"],"item_parents":{},"concept_parents":[[9]]}}"#,
            lists(n)
        );
        let with_hierarchy = |name: &str, h: &str| {
            let json = format!(
                r#"{{"catalog":{},"hierarchy":{h},"transactions":{}}}"#,
                serde_json::to_string(set.catalog()).unwrap(),
                serde_json::to_string(set.transactions()).unwrap()
            );
            std::fs::write(path(name), json).unwrap();
            path(name)
        };
        let (short_data, dangling_data) = (
            with_hierarchy("short.json", &short),
            with_hierarchy("dangling.json", &dangling),
        );
        let (payload, _) = pm_store::load_model_file(&model).unwrap();
        let mut saved: profit_core::SavedModel =
            serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
        saved.hierarchy = serde_json::from_str(&short).unwrap();
        let short_model = path("short.pm");
        pm_store::save_sealed(
            &short_model,
            serde_json::to_string(&saved).unwrap().as_bytes(),
        )
        .unwrap();

        for (argv, needle) in [
            (
                v(&["fit", "--data", &short_data, "--out", &path("x.pm")]),
                "hierarchy",
            ),
            (v(&["stats", "--data", &dangling_data]), "unknown concept#9"),
            (v(&["rules", "--model", &short_model]), "hierarchy"),
            (
                v(&["serve", "--model", &short_model, "--addr", "127.0.0.1:0"]),
                "hierarchy",
            ),
        ] {
            match run(&argv) {
                Err(CliError::Runtime(msg)) => assert!(msg.contains(needle), "{argv:?}: {msg}"),
                other => panic!("{argv:?}: expected a runtime error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--target` covering every target item is an identity: the fitted
    /// model is byte-for-byte the untargeted one (names and raw ids both
    /// resolve). A code-class target also round-trips through `recommend
    /// --target`, which must never answer outside the target.
    #[test]
    fn target_flag_identity_and_filtered_recommend() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-target-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.json").display().to_string();
        run(&v(&[
            "gen", "--out", &data, "--txns", "300", "--items", "60", "--seed", "17",
        ]))
        .unwrap();
        let fit_with = |name: &str, extra: &[&str]| {
            let model = dir.join(format!("m-{name}.json")).display().to_string();
            let mut argv = v(&[
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
            argv.extend(v(extra));
            run(&argv).unwrap();
            (model.clone(), std::fs::read(&model).unwrap())
        };
        let (plain_path, plain) = fit_with("plain", &[]);
        let (_, all) = fit_with("all", &["--target", "items:target-1,target-2"]);
        assert_eq!(plain, all, "an all-item target must be an identity");

        // recommend --target code class: every line stays in the class.
        let out = run(&v(&[
            "recommend",
            "--data",
            &data,
            "--model",
            &plain_path,
            "--txn",
            "0",
            "--top",
            "5",
            "--target",
            "codes:0",
        ]))
        .unwrap();
        assert!(
            out.contains("recommend") || out.contains("no recommendation"),
            "{out}"
        );
        // Bad specs are usage errors, resolved against the real catalog.
        for spec in ["items:nope", "subtree:nope", "codes:x", "garbage"] {
            let err = run(&v(&[
                "recommend",
                "--data",
                &data,
                "--model",
                &plain_path,
                "--target",
                spec,
            ]))
            .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{spec}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Uniform per-item floors are byte-identical to the scalar floor,
    /// a floor must be a finite number, and a confidence floor must be
    /// a confidence.
    #[test]
    fn per_item_floor_flag_generalizes_scalar() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-floor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.json").display().to_string();
        run(&v(&[
            "gen", "--out", &data, "--txns", "300", "--items", "60", "--seed", "23",
        ]))
        .unwrap();
        let fit_with = |name: &str, extra: &[&str]| {
            let model = dir.join(format!("m-{name}.json")).display().to_string();
            let mut argv = v(&[
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
            argv.extend(v(extra));
            run(&argv).unwrap();
            std::fs::read(&model).unwrap()
        };
        let scalar = fit_with("scalar", &["--min-profit", "5.0"]);
        let per_item = fit_with(
            "per-item",
            &["--min-profit-per-item", "target-1=5.0,target-2=5.0"],
        );
        assert_eq!(scalar, per_item, "uniform per-item floors ≠ scalar floor");
        // Malformed floor specs and floors that are not finite numbers
        // are usage errors naming the value, and write no model.
        let out = dir.join("bad.json").display().to_string();
        for (flag, value, named) in [
            ("--min-profit-per-item", "target-1=abc", "abc"),
            ("--min-profit-per-item", "target-1=nan", "nan"),
            ("--min-profit-per-item", "target-1=1,target-2=-inf", "-inf"),
            ("--min-profit", "nan", "nan"),
            ("--min-profit", "inf", "inf"),
            ("--min-conf", "nan", "nan"),
            ("--min-conf", "-1", "-1"),
            ("--min-conf", "2", "2"),
            ("--min-conf", "inf", "inf"),
        ] {
            let err = run(&v(&["fit", "--data", &data, "--out", &out, flag, value])).unwrap_err();
            let CliError::Usage(msg) = err else {
                panic!("{flag} {value}: {err}");
            };
            assert!(msg.contains(&format!("{named:?}")), "{flag} {value}: {msg}");
        }
        assert!(!std::path::Path::new(&out).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn assort_picks_distinct_pairs() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-assort-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.json").display().to_string();
        run(&v(&[
            "gen", "--out", &data, "--txns", "300", "--items", "60", "--seed", "29",
        ]))
        .unwrap();
        let out = run(&v(&[
            "assort",
            "--data",
            &data,
            "--n",
            "3",
            "--minsup",
            "0.03",
            "--max-body",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("assortment over 300 customers"), "{out}");
        assert!(out.contains("joint expected profit"), "{out}");
        let picks: Vec<&str> = out
            .lines()
            .skip(1)
            .filter(|l| l.contains(". target-"))
            .collect();
        assert!(!picks.is_empty() && picks.len() <= 3, "{out}");
        // --n 0 is a usage error; assort accepts --target.
        assert!(matches!(
            run(&v(&["assort", "--data", &data, "--n", "0"])),
            Err(CliError::Usage(_))
        ));
        let out = run(&v(&[
            "assort",
            "--data",
            &data,
            "--n",
            "2",
            "--minsup",
            "0.03",
            "--max-body",
            "2",
            "--target",
            "items:target-1",
        ]))
        .unwrap();
        assert!(!out.contains("target-2"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_rejects_degenerate_cut_points() {
        let _guard = pm_store::faults::test_lock();
        let dir = std::env::temp_dir().join(format!("pm-cli-split-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.json").display().to_string();
        let head = dir.join("head.json").display().to_string();
        let tail = dir.join("tail.json").display().to_string();
        run(&v(&[
            "gen", "--out", &full, "--txns", "50", "--items", "20", "--seed", "1",
        ]))
        .unwrap();
        for at in ["0", "50", "51"] {
            assert!(
                matches!(
                    run(&v(&[
                        "split", "--data", &full, "--at", at, "--head", &head, "--tail", &tail,
                    ])),
                    Err(CliError::Usage(_))
                ),
                "--at {at} should be rejected"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
