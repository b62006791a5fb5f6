//! End-to-end checks of the fit-side verbs through the real binary:
//! input files that are not regular files fail at once and name
//! themselves, and the miner's DFS work counters equal a pinned
//! baseline at every thread count.

mod common;

use common::{bin, counter, run_ok, tmp_dir};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 temp path")
}

/// `--data`, `--batch`, `import`'s CSVs and every other CLI input are
/// read whole, so a FIFO would block until a writer appears and
/// `/dev/zero` would grow memory until the allocator gives up. Each must
/// instead fail within seconds with a message naming the path. Inputs
/// must be regular files, so a pipe is refused even while its writer
/// is live: `--data /dev/stdin` fed a valid dataset fails too.
#[test]
fn non_regular_input_files_fail_fast_and_name_the_path() {
    let dir = tmp_dir("nonregular");
    let fifo = dir.join("data.fifo");
    let made = Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("run mkfifo");
    assert!(made.success(), "mkfifo failed");
    let data = dir.join("data.json");
    run_ok(&[
        "gen",
        "--out",
        path(&data),
        "--txns",
        "60",
        "--items",
        "12",
        "--seed",
        "3",
    ]);
    let batch = dir.join("batch.json");
    std::fs::write(&batch, "[]").expect("write batch");
    let out = path(&dir.join("out.pm")).to_string();
    let log = path(&dir.join("sales.log")).to_string();
    let json = std::fs::read(&data).expect("read dataset");
    let (fifo, data, batch) = (path(&fifo), path(&data), path(&batch));
    let cases: [(&str, Vec<&str>); 6] = [
        (
            "/dev/zero",
            vec!["fit", "--data", "/dev/zero", "--out", &out],
        ),
        (fifo, vec!["fit", "--data", fifo, "--out", &out]),
        (
            fifo,
            vec!["import", "--catalog", fifo, "--sales", data, "--out", &out],
        ),
        (
            "/dev/zero",
            vec![
                "ingest",
                "--data",
                data,
                "--log",
                &log,
                "--batch",
                "/dev/zero",
            ],
        ),
        (
            fifo,
            vec![
                "ingest",
                "--data",
                data,
                "--log",
                &log,
                "--batch",
                batch,
                "--catalog-delta",
                fifo,
            ],
        ),
        (
            "/dev/stdin",
            vec!["fit", "--data", "/dev/stdin", "--out", &out],
        ),
    ];
    for (named, argv) in cases {
        let started = Instant::now();
        let mut child = Command::new(bin())
            .args(&argv)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn CLI");
        // Every case gets the dataset on stdin; only the `/dev/stdin`
        // case reads it, and a CLI that exits first breaks the pipe.
        let mut stdin = child.stdin.take().expect("piped stdin");
        let json = json.clone();
        let writer = std::thread::spawn(move || {
            use std::io::Write;
            let _ = stdin.write_all(&json);
        });
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll CLI") {
                break status;
            }
            if started.elapsed() > Duration::from_secs(10) {
                let _ = child.kill();
                let _ = child.wait();
                panic!("profit-mining {argv:?} still running after 10 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let stderr = child.wait_with_output().expect("collect stderr").stderr;
        writer.join().expect("stdin writer");
        let stderr = String::from_utf8_lossy(&stderr);
        assert!(!status.success(), "profit-mining {argv:?} succeeded");
        assert!(
            stderr.contains(named) && stderr.contains("not a regular file"),
            "profit-mining {argv:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The extension's and the pair count's work counters, the eight DFS
/// counters, then the model build's five, in the order the baseline
/// lists them.
const WORK_COUNTERS: [&str; 15] = [
    "mine.sales_generalized",
    "mine.pairs_counted",
    "miner.candidates_pruned",
    "miner.tidset_switches",
    "mine.ub_evaluated",
    "mine.ub_pruned",
    "mine.tids_scanned",
    "mine.head_sums",
    "miner.tidsets_dense",
    "miner.tidsets_sparse",
    "build.bodies_ranked",
    "build.prefix_steps",
    "build.cover_intersections",
    "build.cut_evals",
    "build.ucf_solved",
];

/// The fit's work, pinned. The layout: distinct `(item, code)` pairs
/// whose generalizations the extension computed, and pair-table
/// increments. The miner's DFS: candidates abandoned by the minsup early
/// exit, dense↔sparse switches, upper-bound evaluations and cuts, tids
/// histogrammed and per-head profit passes, and the stored tidsets by
/// representation. The model build
/// (`RuleModel::build`): distinct bodies ranked above the default rule,
/// prefix-map edges the dominance and parent walks looked up, tidset
/// intersections in coverage, node evaluations in the cut, and `U_CF`
/// values solved (a cold fit starts with no carried values). They count
/// work, not time, and each build count is summed once per build, so a
/// `fit` of the CI smoke data (`gen --txns 400 --items 80 --seed 5`,
/// bodies of at most 3 sales) must reproduce them exactly at 1 and 4
/// threads. A change that moves a count updates the baseline and says
/// why.
#[test]
fn work_counters_equal_the_pinned_baseline() {
    let dir = tmp_dir("counters");
    let data = dir.join("data.json");
    run_ok(&[
        "gen",
        "--out",
        path(&data),
        "--txns",
        "400",
        "--items",
        "80",
        "--seed",
        "5",
    ]);
    let model = dir.join("model.pm");
    let metrics = dir.join("metrics.json");
    let baseline: [(&[&str], [u64; 15]); 3] = [
        (
            &["--minsup", "0.03"],
            [
                176, 236_091, 30_208, 0, 5_654, 1_575, 1_298_194, 85_216, 212, 8, 6_506, 74_794,
                2_652, 2_076, 32,
            ],
        ),
        (
            &["--minsup", "0.03", "--min-profit", "5"],
            [
                176, 236_091, 24_519, 0, 5_633, 2_288, 1_261_688, 84_238, 212, 8, 6_506, 74_794,
                2_652, 2_076, 32,
            ],
        ),
        (
            &["--minsup", "0.01"],
            [
                176, 243_535, 160_346, 98_701, 12_387, 1_779, 2_375_092, 721_058, 212, 8, 56_573,
                1_201_957, 27_801, 20_261, 21,
            ],
        ),
    ];
    for (regime, expect) in baseline {
        for threads in ["1", "4"] {
            let mut argv = vec![
                "fit",
                "--data",
                path(&data),
                "--out",
                path(&model),
                "--max-body",
                "3",
                "--threads",
                threads,
                "--metrics",
                path(&metrics),
            ];
            argv.extend(regime);
            run_ok(&argv);
            let got = WORK_COUNTERS.map(|name| counter(&metrics, name));
            assert_eq!(got, expect, "{argv:?}: {WORK_COUNTERS:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
