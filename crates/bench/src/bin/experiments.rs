//! Regenerates every table/figure panel of the paper's evaluation (§5.3).
//!
//! ```text
//! experiments [OPTIONS] <PANEL>...
//!
//! PANELS
//!   fig3a fig3b fig3c fig3d fig3e fig3f   Figure 3 (Dataset I)
//!   fig4a fig4b fig4c fig4d fig4e fig4f   Figure 4 (Dataset II)
//!   post-knn                              §5.3 kNN post-processing
//!   ablate-cf ablate-prune ablate-coupling ablate-eval ablate-quantity
//!   ablate-workloads                      ablations (EXPERIMENTS.md)
//!   all                                   everything above
//!
//! OPTIONS
//!   --full          paper scale: 100K transactions, 1000 items
//!   --quick         10K transactions, 300 items (default)
//!   --tiny          800 transactions (smoke test)
//!   --txns N        override the transaction count
//!   --items N       override the item count
//!   --seed N        RNG seed (default 2002)
//!   --threads N     worker threads (default 0 = all cores; 1 = sequential)
//!   --out DIR       also write CSVs there (default reports/)
//! ```
//!
//! Speed is measured by perfbench (`perfbench/`), not here.
//!
//! Panels (a), (c), (d), (f) of one figure share a single cross-validated
//! sweep; requesting any of (a), (c), (f) runs the sweep once and prints
//! all four. Panel (d) alone cross-validates the one sweep point it reads.
//!
//! A scale the panels cannot split — fewer transactions than folds, or no
//! items — is a usage error (exit 1).

use pm_eval::ablations;
use pm_eval::experiments::{self, Dataset, Scale};
use pm_eval::Table;
use std::collections::BTreeSet;
use std::process::ExitCode;

struct Options {
    scale: Scale,
    seed: u64,
    threads: usize,
    out: Option<std::path::PathBuf>,
    panels: BTreeSet<String>,
}

const ALL_PANELS: [&str; 19] = [
    "fig3a",
    "fig3b",
    "fig3c",
    "fig3d",
    "fig3e",
    "fig3f",
    "fig4a",
    "fig4b",
    "fig4c",
    "fig4d",
    "fig4e",
    "fig4f",
    "post-knn",
    "ablate-cf",
    "ablate-prune",
    "ablate-coupling",
    "ablate-eval",
    "ablate-quantity",
    "ablate-workloads",
];

fn usage() -> String {
    format!(
        "usage: experiments [--full|--quick|--tiny] [--txns N] [--items N] \
         [--seed N] [--threads N] [--out DIR] <panel>...\npanels: {} all",
        ALL_PANELS.join(" ")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut scale = Scale::quick();
    let mut seed = 2002u64;
    let mut threads = 0usize;
    let mut out = Some(std::path::PathBuf::from("reports"));
    let mut panels = BTreeSet::new();
    let mut txns: Option<usize> = None;
    let mut items: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => scale = Scale::paper(),
            "--quick" => scale = Scale::quick(),
            "--tiny" => scale = Scale::tiny(),
            "--txns" => {
                i += 1;
                txns = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--txns needs a number")?,
                );
            }
            "--items" => {
                i += 1;
                items = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--items needs a number")?,
                );
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs a number")?;
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).ok_or("--out needs a directory")?.into());
            }
            "--no-out" => out = None,
            "all" => {
                panels.extend(ALL_PANELS.iter().map(|s| s.to_string()));
            }
            p if ALL_PANELS.contains(&p) => {
                panels.insert(p.to_string());
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
        i += 1;
    }
    if let Some(t) = txns {
        scale.transactions = t;
    }
    if let Some(n) = items {
        scale.items = n;
    }
    if panels.is_empty() {
        return Err(usage());
    }
    if scale.items == 0 {
        return Err(format!("--items 0: need at least 1 item\n{}", usage()));
    }
    // Each cross-validated panel needs a transaction per fold, the
    // ablations hold out one of their own folds, and (e) needs one sale.
    for p in &panels {
        let folds = match p.as_str() {
            "fig3e" | "fig4e" => 1,
            p if p.starts_with("ablate-") => ablations::FOLDS,
            _ => scale.folds,
        };
        if scale.transactions < folds {
            return Err(format!(
                "--txns {}: {p} needs at least {folds} transactions\n{}",
                scale.transactions,
                usage()
            ));
        }
    }
    Ok(Options {
        scale,
        seed,
        threads,
        out,
        panels,
    })
}

fn emit(table: &Table, id: &str, out: &Option<std::path::PathBuf>) {
    println!("{}", table.render());
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = dir.join(format!("{id}.csv"));
        std::fs::write(&path, table.to_csv()).expect("write CSV");
        eprintln!("[wrote {}]", path.display());
    }
}

fn run(opts: &Options) {
    eprintln!(
        "scale: {} transactions, {} items, sweep {:?}, seed {}",
        opts.scale.transactions, opts.scale.items, opts.scale.sweep, opts.seed
    );
    for (fig, dataset) in [("fig3", Dataset::I), ("fig4", Dataset::II)] {
        let want = |p: char| opts.panels.contains(&format!("{fig}{p}"));
        if want('a') || want('c') || want('f') {
            eprintln!("[{fig}a/c/d/f] sweeping {dataset}…");
            let tables = experiments::fig_sweep(dataset, &opts.scale, opts.seed, opts.threads);
            for (t, p) in tables.iter().zip(['a', 'c', 'd', 'f']) {
                emit(t, &format!("{fig}{p}"), &opts.out);
            }
        } else if want('d') {
            eprintln!("[{fig}d] profit-range hit rates on {dataset}…");
            let t = experiments::fig_d(dataset, &opts.scale, opts.seed, opts.threads);
            emit(&t, &format!("{fig}d"), &opts.out);
        }
        if want('b') {
            eprintln!("[{fig}b] quantity-boost sweep on {dataset}…");
            let t = experiments::fig_b(dataset, &opts.scale, opts.seed, opts.threads);
            emit(&t, &format!("{fig}b"), &opts.out);
        }
        if want('e') {
            let t = experiments::fig_e(dataset, &opts.scale, opts.seed, 20);
            emit(&t, &format!("{fig}e"), &opts.out);
        }
    }
    if opts.panels.contains("post-knn") {
        eprintln!("[post-knn] kNN profit post-processing…");
        let t = experiments::post_knn(&opts.scale, opts.seed, opts.threads);
        emit(&t, "post-knn", &opts.out);
    }
    type Ablation = fn(Dataset, &Scale, u64, usize) -> Table;
    let ablations: [(&str, Ablation); 6] = [
        ("ablate-cf", ablations::cf_sweep as Ablation),
        ("ablate-prune", ablations::prune_value as Ablation),
        ("ablate-coupling", ablations::coupling as Ablation),
        ("ablate-eval", ablations::eval_semantics as Ablation),
        ("ablate-quantity", ablations::quantity_model as Ablation),
        ("ablate-workloads", ablations::workloads as Ablation),
    ];
    for (id, f) in ablations {
        if opts.panels.contains(id) {
            eprintln!("[{id}]…");
            let t = f(Dataset::I, &opts.scale, opts.seed, opts.threads);
            emit(&t, id, &opts.out);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(opts) => {
            run(&opts);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
