//! Regenerates every table/figure panel of the paper's evaluation (§5.3).
//!
//! ```text
//! experiments [OPTIONS] <PANEL>...
//!
//! PANELS
//!   fig3a fig3b fig3c fig3d fig3e fig3f   Figure 3 (Dataset I)
//!   fig4a fig4b fig4c fig4d fig4e fig4f   Figure 4 (Dataset II)
//!   post-knn                              §5.3 kNN post-processing
//!   bench-mining                          per-phase wall times → BENCH_mining.json
//!   bench-serve                           daemon load test → BENCH_serving.json
//!   all                                   everything above except bench-serve
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
//!   --conns N       bench-serve: sustained connections (default 10000)
//!   --rps N         bench-serve: open-loop request rate (default 1000)
//!   --secs N        bench-serve: steady-state duration (default 10)
//! ```
//!
//! `bench-serve` spawns the daemon as a child process (re-invoking this
//! binary with a hidden panel name) so each side of a 10 000-connection
//! run stays under the per-process fd limit; it is deliberately not part
//! of `all`.
//!
//! Panels (a), (c), (f) of one figure share a single cross-validated
//! sweep; requesting any of them runs the sweep once and prints all three.

use pm_eval::experiments::{self, Dataset, Scale};
use pm_eval::Table;
use pm_rules::{ExtendedData, IncrementalMiner, MinerConfig, MoaMode, RuleMiner, Support};
use pm_txn::Moa;
use profit_core::{CutConfig, Matcher, Recommender, RuleModel};
use serde::Serialize;
use std::collections::BTreeSet;
use std::process::ExitCode;

struct Options {
    scale: Scale,
    seed: u64,
    threads: usize,
    out: Option<std::path::PathBuf>,
    panels: BTreeSet<String>,
    conns: usize,
    rps: u64,
    secs: u64,
}

const ALL_PANELS: [&str; 20] = [
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
    "bench-mining",
];

fn usage() -> String {
    format!(
        "usage: experiments [--full|--quick|--tiny] [--txns N] [--items N] \
         [--seed N] [--threads N] [--out DIR] \
         [--conns N] [--rps N] [--secs N] <panel>...\npanels: {} bench-serve all",
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
    let mut conns = 10_000usize;
    let mut rps = 1_000u64;
    let mut secs = 10u64;
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
            "--conns" => {
                i += 1;
                conns = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--conns needs a number")?;
            }
            "--rps" => {
                i += 1;
                rps = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--rps needs a number")?;
            }
            "--secs" => {
                i += 1;
                secs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--secs needs a number")?;
            }
            "all" => {
                panels.extend(ALL_PANELS.iter().map(|s| s.to_string()));
            }
            // A two-process load test; deliberately not part of `all`.
            "bench-serve" => {
                panels.insert("bench-serve".to_string());
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
    Ok(Options {
        scale,
        seed,
        threads,
        out,
        panels,
        conns,
        rps,
        secs,
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

/// One timed phase of the mining/serving trajectory.
#[derive(Serialize)]
struct PhaseTime {
    phase: &'static str,
    millis: f64,
}

/// The streaming-ingestion cell of `BENCH_mining.json`: one delta batch
/// folded in by [`IncrementalMiner::update`] versus a cold re-mine of
/// the concatenated set, with the outputs proved rule-identical.
#[derive(Serialize)]
struct DeltaRefitBench {
    transactions: usize,
    delta_transactions: usize,
    rules: usize,
    full_refit_millis: f64,
    delta_update_millis: f64,
    speedup: f64,
}

/// The targeted-mining cell of `BENCH_mining.json`: restricting rule
/// heads to one promotion-code class on the low-minsup Quest preset,
/// pushed into the DFS versus mining everything and post-filtering the
/// ranked stream, with the two rule sets proved identical.
#[derive(Serialize)]
struct TargetedBench {
    transactions: usize,
    target: String,
    rules: usize,
    mine_postfilter_millis: f64,
    mine_targeted_millis: f64,
    speedup: f64,
}

/// The `BENCH_mining.json` document.
#[derive(Serialize)]
struct MiningBench {
    /// Cores of the host the numbers were taken on.
    host_cores: usize,
    transactions: usize,
    items: usize,
    seed: u64,
    threads: usize,
    rules: usize,
    customers_served: usize,
    phases: Vec<PhaseTime>,
    delta_refit: DeltaRefitBench,
    targeted: TargetedBench,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Wall-time every phase of the pipeline — generation, extension, tidset
/// construction, mining, model build, and a full serving pass through
/// the indexed matcher versus the linear scan — plus the delta-refit and
/// targeted-mining cells, and write the summary as `BENCH_mining.json`.
fn bench_mining(opts: &Options) {
    let cfg = MinerConfig {
        min_support: Support::Fraction(0.01),
        max_body_len: 3,
        ..MinerConfig::default()
    };
    let mut phases = Vec::new();
    let mut record = |phase: &'static str, millis: f64| {
        eprintln!("  {phase:<16} {millis:9.2} ms");
        phases.push(PhaseTime { phase, millis });
    };

    let (data, t) = timed(|| Dataset::I.generate(&opts.scale, opts.seed));
    record("generate", t);
    let moa = || {
        Moa::new(
            data.catalog_arc(),
            data.hierarchy_arc(),
            cfg.moa == MoaMode::Enabled,
        )
    };
    let (extended, t) = timed(|| ExtendedData::build(&data, &moa(), cfg.quantity));
    record("extend", t);
    let (_, t) = timed(|| extended.tidsets());
    record("tidsets", t);
    let (mined, t) = timed(|| {
        RuleMiner::new(cfg)
            .with_threads(opts.threads)
            .mine_extended(extended, moa())
    });
    record("mine", t);
    let (model, t) = timed(|| RuleModel::build(&mined, &CutConfig::default()));
    record("model-build", t);

    let customers: Vec<_> = data
        .transactions()
        .iter()
        .map(|t| t.non_target_sales().to_vec())
        .collect();
    let (matcher, t) = timed(|| Matcher::new(&model));
    record("matcher-index", t);
    let (indexed, t) = timed(|| {
        customers
            .iter()
            .map(|c| matcher.recommend(c).expected_profit)
            .sum::<f64>()
    });
    record("serve-indexed", t);
    let (linear, t) = timed(|| {
        customers
            .iter()
            .map(|c| model.recommend(c).expected_profit)
            .sum::<f64>()
    });
    record("serve-linear", t);
    assert_eq!(indexed, linear, "indexed and linear serving disagree");

    // The low-minsup Quest preset: most of the candidate lattice is
    // marginally frequent but dominated by the default rule, so per-anchor
    // DFS work dominates, under the CLI's default emission filters
    // (min-conf 0.5, dominance prefilter).
    let low_cfg = MinerConfig {
        min_support: Support::Fraction(0.001),
        max_body_len: 4,
        min_confidence: Some(0.5),
        // The ranked list's admission floor: only rules whose total
        // profit reaches the top region are kept, which is what the
        // transaction-level margin bound prunes against (the HUIM
        // minutil analogue; see DESIGN.md §14). 150 keeps the top few
        // thousand of ~1.4M frequent rules at this scale.
        min_rule_profit: Some(150.0),
        prune_default_dominated: true,
        ..MinerConfig::default()
    };
    use rand::SeedableRng;
    let (low_data, t) = timed(|| {
        pm_datagen::DatasetConfig::quest_low_minsup()
            .with_transactions(opts.scale.transactions)
            .generate(&mut rand::rngs::StdRng::seed_from_u64(opts.seed))
    });
    record("generate-lowminsup", t);

    // Delta-refit cell: hold out the last 0.1% of the low-minsup Quest
    // preset — where per-anchor DFS work dominates the run — as a
    // streamed batch. Cold-mine the concatenated set, then fold the same
    // batch into a fitted IncrementalMiner: anchors absent from the
    // delta keep their cached rules, so the update must win on wall time
    // while producing the identical rule set.
    let delta_n = (low_data.len() / 1000).max(1);
    let head_n = low_data.len() - delta_n;
    let head = low_data.subset(&(0..head_n).collect::<Vec<usize>>());
    let mut inc = IncrementalMiner::new(RuleMiner::new(low_cfg).with_threads(opts.threads));
    inc.fit(&head);
    let (full, t_full) = timed(|| {
        RuleMiner::new(low_cfg)
            .with_threads(opts.threads)
            .mine(&low_data)
    });
    record("refit-full", t_full);
    let (delta, t_delta) = timed(|| inc.update(&low_data));
    record("refit-delta", t_delta);
    assert_eq!(
        full.rules(),
        delta.rules(),
        "delta refit changed the mined rule set"
    );
    assert!(
        t_delta < t_full,
        "delta refit ({t_delta:.2} ms) must beat the full re-mine ({t_full:.2} ms)"
    );
    let delta_refit = DeltaRefitBench {
        transactions: low_data.len(),
        delta_transactions: delta_n,
        rules: delta.rules().len(),
        full_refit_millis: t_full,
        delta_update_millis: t_delta,
        speedup: t_full / t_delta,
    };
    eprintln!(
        "  refit speedup   {:9.2}x ({} delta transactions folded in)",
        delta_refit.speedup, delta_refit.delta_transactions
    );

    // Targeted-mining cell: restrict heads to promotion-code class 0 on
    // the same low-minsup preset. The baseline mines everything and
    // post-filters the stream (the defining semantics); the in-DFS path
    // restricts the head domain inside the search and composes with the
    // upper bound, so it must produce the identical rule set faster.
    use pm_txn::{CodeId, TargetFilter};
    // Target the code class of the full run's top rule, so the targeted
    // run keeps a non-empty (and profit-bearing) slice of the head space.
    let tcode = full
        .rules()
        .first()
        .map(|r| full.head(r.head).1)
        .unwrap_or(CodeId(0));
    let target = TargetFilter::Codes(vec![tcode]);
    let (posted, t_post) = timed(|| {
        let full = RuleMiner::new(low_cfg)
            .with_threads(opts.threads)
            .mine(&low_data);
        let h = low_data.hierarchy();
        let mut rules: Vec<pm_rules::Rule> = full
            .rules()
            .iter()
            .filter(|r| {
                let (i, c) = full.head(r.head);
                target.matches(h, i, c)
            })
            .cloned()
            .collect();
        for (i, r) in rules.iter_mut().enumerate() {
            r.gen_index = i as u32;
        }
        rules
    });
    record("mine-targeted-post", t_post);
    let (tmined, t_targeted) = timed(|| {
        RuleMiner::new(low_cfg)
            .with_threads(opts.threads)
            .with_target(Some(target.clone()))
            .mine(&low_data)
    });
    record("mine-targeted-dfs", t_targeted);
    assert_eq!(
        tmined.rules(),
        posted.as_slice(),
        "in-DFS targeting changed the rule set"
    );
    // At smoke-test scale (a few hundred transactions) the DFS is noise
    // against the shared generate/extend work, so only hold the
    // wall-clock claim where the mining phase actually dominates.
    if low_data.len() >= 2000 {
        assert!(
            t_targeted < t_post,
            "targeted DFS ({t_targeted:.2} ms) must beat mine-then-post-filter ({t_post:.2} ms)"
        );
    }
    let targeted = TargetedBench {
        transactions: low_data.len(),
        target: format!("codes:{}", tcode.0),
        rules: tmined.rules().len(),
        mine_postfilter_millis: t_post,
        mine_targeted_millis: t_targeted,
        speedup: t_post / t_targeted,
    };
    eprintln!(
        "  target speedup  {:9.2}x ({} in-target rules kept)",
        targeted.speedup, targeted.rules
    );

    let doc = MiningBench {
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        transactions: opts.scale.transactions,
        items: opts.scale.items,
        seed: opts.seed,
        threads: opts.threads,
        rules: model.rules().len(),
        customers_served: customers.len(),
        phases,
        delta_refit,
        targeted,
    };
    let json = serde_json::to_string_pretty(&doc).expect("serialize bench summary");
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = dir.join("BENCH_mining.json");
        // POSIX text files end in a newline; `jq`/`cat` users expect one.
        std::fs::write(&path, format!("{json}\n")).expect("write BENCH_mining.json");
        eprintln!("[wrote {}]", path.display());
    } else {
        println!("{json}");
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
            eprintln!("[{fig}a/c/f] sweeping {dataset}…");
            let tables = experiments::fig_sweep(dataset, &opts.scale, opts.seed, opts.threads);
            for (t, p) in tables.iter().zip(['a', 'c', 'f']) {
                emit(t, &format!("{fig}{p}"), &opts.out);
            }
        }
        if want('b') {
            eprintln!("[{fig}b] quantity-boost sweep on {dataset}…");
            let t = experiments::fig_b(dataset, &opts.scale, opts.seed, opts.threads);
            emit(&t, &format!("{fig}b"), &opts.out);
        }
        if want('d') {
            eprintln!("[{fig}d] profit-range hit rates on {dataset}…");
            let t = experiments::fig_d(dataset, &opts.scale, opts.seed, opts.threads);
            emit(&t, &format!("{fig}d"), &opts.out);
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
    use pm_eval::ablations;
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
    if opts.panels.contains("bench-mining") {
        eprintln!("[bench-mining] per-phase wall times…");
        bench_mining(opts);
    }
    if opts.panels.contains("bench-serve") {
        eprintln!(
            "[bench-serve] {} connections, {} req/s open-loop for {}s…",
            opts.conns, opts.rps, opts.secs
        );
        let load = pm_bench::serveload::LoadOptions {
            conns: opts.conns,
            extra: (opts.conns / 33).max(8),
            rps: opts.rps,
            duration: std::time::Duration::from_secs(opts.secs),
            transactions: opts.scale.transactions,
            items: opts.scale.items,
            seed: opts.seed,
            ..pm_bench::serveload::LoadOptions::default()
        };
        pm_bench::serveload::run(&load, &opts.out);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden child panel: `bench-serve` re-invokes this binary to host
    // the daemon in its own process (fd limits; crash isolation).
    if args.first().map(String::as_str) == Some("__serve-daemon") {
        return match pm_bench::serveload::daemon_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
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
