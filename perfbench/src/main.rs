//! `benchmark` — the repository's one benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1] [--smoke]
//! ```
//!
//! Runs one workload (see [`Workload`]), checks every output it can
//! against an offline answer, prints each metric as
//! `workload metric value unit`, writes a results JSON with run
//! metadata under `.bench_work/results/`, and prints as its last line
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around each layer call and reports the per-layer
//! metrics, writing the spans as JSON lines beside the results. Exits
//! non-zero when a correctness check fails.

mod calib;
mod daemon;
mod fit;
mod load;
mod pipeline;
mod procfs;
mod report;
mod restart;
mod serve;
mod stats;
mod trace;

use report::{metrics_json, num, string, Report};
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::Tracer;

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    FitMine,
    FitBuild,
    ServeRead,
    ServeIngest,
    Restart,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::FitMine,
        Workload::FitBuild,
        Workload::ServeRead,
        Workload::ServeIngest,
        Workload::Restart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FitMine => "fit-mine",
            Workload::FitBuild => "fit-build",
            Workload::ServeRead => "serve-read",
            Workload::ServeIngest => "serve-ingest",
            Workload::Restart => "restart",
        }
    }
}

/// Everything a workload run needs.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured phase.
    pub measure: Duration,
    /// Small inputs and short phases, for the smoke test.
    pub smoke: bool,
    /// Scratch directory of this run, removed at exit.
    pub dir: PathBuf,
    pub tr: Tracer,
}

impl Ctx {
    /// Transactions of a workload's dataset: `full`, or at most 1,000
    /// in a smoke run.
    pub fn txns(&self, full: usize) -> usize {
        if self.smoke {
            full.min(1_000)
        } else {
            full
        }
    }
}

/// Whether a run repeats its set-up once more: at least three times,
/// and until three seconds have gone into it, at most twenty times.
/// `setup_s` is the median.
pub fn more_setups(done_s: &[f64]) -> bool {
    done_s.len() < 3 || (done_s.iter().sum::<f64>() < 3.0 && done_s.len() < 20)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1] [--smoke]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2002u64;
    let mut seconds = 15u64;
    let mut trace = false;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload {v:?}\n{}", usage()))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(daemon::DAEMON_ARG) {
        std::process::exit(daemon::child_main(&argv[1..]));
    }
    // The library reads tuning and logging overrides from `PM_*`
    // variables; a run must not depend on the caller's environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PM_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args));
}

fn run(args: &Args) -> i32 {
    let root = PathBuf::from(".bench_work");
    let dir = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("{}: {e}", dir.display());
        return 2;
    }
    let scratch = ScratchDir(dir.clone());
    let ctx = Ctx {
        seed: args.seed,
        measure: Duration::from_secs(if args.smoke { 1 } else { args.seconds }),
        smoke: args.smoke,
        dir,
        tr: Tracer::new(args.trace),
    };
    let outcome = match args.workload {
        Workload::FitMine | Workload::FitBuild => fit::run(&ctx, args.workload),
        Workload::ServeRead => serve::read(&ctx),
        Workload::ServeIngest => serve::ingest(&ctx),
        Workload::Restart => restart::run(&ctx),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            let mut r = Report::new();
            r.problems.push(e);
            r
        }
    };
    if args.trace {
        report.layers_from(&ctx.tr);
        eprintln!(
            "[{}] span self time by layer:\n{}",
            args.workload.name(),
            Report::breakdown(&ctx.tr)
        );
    }
    drop(scratch);
    let results = root.join("results");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::create_dir_all(&results);
    if args.trace {
        let spans = results.join(format!("{stem}.spans.jsonl"));
        match std::fs::write(&spans, ctx.tr.jsonl()) {
            Ok(()) => eprintln!("[spans written to {}]", spans.display()),
            Err(e) => eprintln!("{}: {e}", spans.display()),
        }
    }
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let name = args.workload.name();
    for m in metrics.iter().chain(&report.extra) {
        println!("{name} {} {} {}", m.name, num(m.value), m.unit);
    }
    for p in &report.problems {
        eprintln!("[{name}] CHECK FAILED: {p}");
    }
    if !report.valid {
        eprintln!("[{name}] run marked invalid: the load generator fell behind its schedule");
    }
    let path = results.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, results_json(args, &report)) {
        eprintln!("{}: {e}", path.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics_json(metrics)
    );
    if report.correct() {
        0
    } else {
        1
    }
}

/// The results file: every metric plus what is needed to reproduce and
/// judge the run.
fn results_json(args: &Args, r: &Report) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let list = |v: &[String]| {
        let items: Vec<String> = v.iter().map(|s| string(s)).collect();
        format!("[{}]", items.join(", "))
    };
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"smoke\": {},\n  \"git_rev\": {},\n  \"available_parallelism\": {cores},\n  \
         \"correct\": {},\n  \"valid\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"end_to_end\": {},\n  \"per_layer\": {},\n  \"extra\": {},\n  \"checks\": {},\n  \
         \"problems\": {},\n  \"samples_ms\": {},\n  \"raw_samples\": {},\n  \
         \"probes_ms\": {}\n}}\n",
        string(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        string(&git_rev()),
        r.correct(),
        r.valid,
        r.attempted,
        r.failed,
        metrics_json(&r.end_to_end),
        metrics_json(&r.per_layer),
        metrics_json(&r.extra),
        list(&r.checks),
        list(&r.problems),
        numbers(&r.samples_ms),
        numbers(&r.raw_samples),
        numbers(&r.probes_ms),
    )
}

fn numbers(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|&x| num(x)).collect();
    format!("[{}]", items.join(", "))
}

/// The checked-out revision, when the working directory is a git
/// checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Write `text` to `path`, naming the path in the error.
pub fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
