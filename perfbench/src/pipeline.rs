//! The fit and answer paths every workload shares.
//!
//! Every workload fits with one configuration — minsup 0.01, bodies of
//! at most 3 sales, no confidence floor, 1 mining thread — through the
//! `profit-mining` CLI in process. The traced variants make the same
//! calls one layer at a time so each gets its own span.

use crate::trace::Tracer;
use pm_datagen::DatasetConfig;
use pm_rules::{ExtendedData, MinerConfig, MoaMode, RuleMiner, Support};
use pm_serve::protocol::{obj, parse_request, rec_value, render, Request};
use pm_txn::{Moa, QuantityModel, TransactionSet};
use profit_core::{CutConfig, Matcher, ProfitMiner, Recommender, RuleModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Value;
use std::path::Path;

/// Mining worker threads. One: a fit then runs on one core, as the
/// speed probe around it does, and the other core is left to the load
/// generator or the system. On Dataset I a 2-thread fit was no faster
/// (202 against 194 ms) and its run medians spread twice as wide.
const FIT_THREADS: usize = 1;

/// The fit flags of every `profit-mining fit` and streaming `serve` the
/// benchmark runs.
pub fn fit_flags() -> Vec<String> {
    [
        "--minsup",
        "0.01",
        "--max-body",
        "3",
        "--min-conf",
        "0",
        "--threads",
        "1",
    ]
    .map(String::from)
    .to_vec()
}

/// The pipeline [`fit_flags`] configure, built directly.
pub fn profit_miner() -> ProfitMiner {
    ProfitMiner::new(miner_config())
        .with_cut(CutConfig::default())
        .with_threads(FIT_THREADS)
}

fn miner_config() -> MinerConfig {
    MinerConfig {
        min_support: Support::Fraction(0.01),
        max_body_len: 3,
        moa: MoaMode::Enabled,
        quantity: QuantityModel::Saving,
        min_confidence: None,
        min_rule_profit: None,
        prune_default_dominated: true,
    }
}

/// The rule miner of [`profit_miner`].
pub fn rule_miner() -> RuleMiner {
    RuleMiner::new(miner_config()).with_threads(FIT_THREADS)
}

/// Which generator a workload's dataset comes from.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// The paper's Dataset I over 300 items.
    DatasetI,
    /// `pm_bench::bench_dataset`: Dataset I with one Quest pattern per
    /// 50 transactions, so baskets share more structure.
    Patterns,
}

/// Generator seed of every dataset.
///
/// The run's `--seed` does not re-draw the data: it shuffles the
/// transaction order, which changes every input byte — the dataset file,
/// the request pool, the held-out batches — but not the work. Re-drawing
/// the Quest pattern table instead moved one `fit-build` fit from 0.32 s
/// to 2.5 s across seeds 1–6, which would drown any change in noise.
const DATA_SEED: u64 = 2002;

/// The `n`-transaction dataset, in the order `seed` draws.
pub fn dataset(kind: Data, n: usize, seed: u64) -> TransactionSet {
    let data = match kind {
        Data::DatasetI => DatasetConfig::dataset_i()
            .with_transactions(n)
            .with_items(300)
            .generate(&mut StdRng::seed_from_u64(DATA_SEED)),
        Data::Patterns => pm_bench::bench_dataset(n, 300, DATA_SEED),
    };
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    data.subset(&order)
}

/// The first `n` transactions of `data`.
pub fn prefix(data: &TransactionSet, n: usize) -> TransactionSet {
    data.subset(&(0..n).collect::<Vec<_>>())
}

/// The command line `profit-mining fit --data <data> --out <out>`.
pub fn cli_fit_args(data: &Path, out: &Path) -> Vec<String> {
    let mut args = vec![
        "fit".to_string(),
        "--data".into(),
        data.display().to_string(),
        "--out".into(),
        out.display().to_string(),
    ];
    args.extend(fit_flags());
    args
}

/// `profit-mining fit --data <data> --out <out>`, in this process.
pub fn cli_fit(data: &Path, out: &Path) -> Result<(), String> {
    let args = cli_fit_args(data, out);
    pm_cli::run(&args)
        .map(drop)
        .map_err(|e| format!("profit-mining {}: {e}", args.join(" ")))
}

/// The calls of [`cli_fit`], one layer at a time: read → decode →
/// extend → mine → build → encode → seal.
pub fn traced_fit(tr: &Tracer, data: &Path, out: &Path) -> Result<(), String> {
    let _fit = tr.span("bench.fit");
    let text = {
        let _s = tr.span("io.read");
        std::fs::read_to_string(data).map_err(|e| format!("{}: {e}", data.display()))?
    };
    let data = {
        let _s = tr.span("txn.decode");
        TransactionSet::from_json(&text)?
    };
    drop(text);
    fit_and_seal(tr, &data, out)
}

/// Fit `data` in memory and seal the model at `out`: extend → mine →
/// build → encode → seal.
pub fn fit_and_seal(tr: &Tracer, data: &TransactionSet, out: &Path) -> Result<(), String> {
    let model = build_model(tr, data);
    let json = {
        let _s = tr.span("core.encode");
        serde_json::to_string(&model.save()).map_err(|e| e.to_string())?
    };
    let _s = tr.span("store.seal");
    pm_store::save_sealed(out, json.as_bytes()).map_err(|e| e.to_string())
}

/// Mine and build, as `ProfitMiner::fit` does, under `rules.*` and
/// `core.build` spans.
pub fn build_model(tr: &Tracer, data: &TransactionSet) -> RuleModel {
    let ub = UbCounters::read(tr);
    let mined = {
        let _s = tr.span("rules.mine");
        let miner = rule_miner();
        let (moa, extended) = {
            let _s = tr.span("rules.extend");
            let moa = Moa::new(data.catalog_arc(), data.hierarchy_arc(), true);
            let extended = ExtendedData::build(data, &moa, miner.config().quantity);
            (moa, extended)
        };
        let _s = tr.span("rules.dfs");
        miner.mine_extended(extended, moa)
    };
    let model = {
        let _s = tr.span("core.build");
        RuleModel::build(&mined, &CutConfig::default())
    };
    let n = mined.rules().len();
    {
        let _s = tr.span("rules.free");
        drop(mined);
    }
    ub.note_delta(tr);
    tr.count("rules.mined", n as f64);
    tr.count("core.model_rules", model.rules().len() as f64);
    model
}

/// The miner's profit-upper-bound counters (`pm-obs` registry), read
/// around one mining call when tracing.
struct UbCounters {
    evaluated: u64,
    pruned: u64,
}

impl UbCounters {
    fn read(tr: &Tracer) -> UbCounters {
        if !tr.enabled() {
            return UbCounters {
                evaluated: 0,
                pruned: 0,
            };
        }
        UbCounters {
            evaluated: pm_obs::counter("mine.ub_evaluated").get(),
            pruned: pm_obs::counter("mine.ub_pruned").get(),
        }
    }

    /// Note the subtrees bounded and pruned since [`UbCounters::read`].
    fn note_delta(self, tr: &Tracer) {
        let now = UbCounters::read(tr);
        tr.count(
            "rules.ub_evaluated",
            (now.evaluated - self.evaluated) as f64,
        );
        tr.count("rules.ub_pruned", (now.pruned - self.pruned) as f64);
    }
}

/// One `recommend` request line per customer: the non-target sales of
/// the first `n` transactions.
pub fn pool_lines(data: &TransactionSet, n: usize) -> Vec<String> {
    data.transactions()
        .iter()
        .take(n)
        .map(|t| {
            let sales: Vec<String> = t
                .non_target_sales()
                .iter()
                .map(|s| format!("[{},{},{}]", s.item.0, s.code.0, s.qty))
                .collect();
            format!(r#"{{"op":"recommend","sales":[{}]}}"#, sales.join(","))
        })
        .collect()
}

/// What the daemon must answer, byte for byte, when it serves a model.
#[derive(Debug, Clone)]
pub struct Expected {
    /// One answer per pool line.
    pub recommend: Vec<String>,
    pub rules: usize,
}

impl Expected {
    /// The `ping` answer at model generation `generation`.
    pub fn pong(&self, generation: u64) -> String {
        render(&obj(vec![
            ("ok", Value::Bool(true)),
            ("op", Value::Str("pong".into())),
            ("generation", Value::U64(generation)),
            ("rules", Value::U64(self.rules as u64)),
        ]))
    }
}

/// The recommend answer line for one request, as the daemon renders it.
fn answer_line(model: &RuleModel, matcher: &Matcher<'_>, tr: &Tracer, line: &str) -> String {
    let sales = {
        let _s = tr.span("serve.parse");
        match parse_request(line) {
            Ok(Request::Recommend { sales, .. }) => sales,
            other => panic!("pool line {line:?} is not a recommend request: {other:?}"),
        }
    };
    let postings = tr
        .enabled()
        .then(|| pm_obs::counter("serve.postings_touched"));
    let before = postings.as_ref().map_or(0, |c| c.get());
    let rec = {
        let _s = tr.span("core.recommend");
        matcher.recommend(&sales)
    };
    if let Some(c) = postings {
        tr.count("core.postings", (c.get() - before) as f64);
    }
    let _s = tr.span("serve.render");
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("degraded", Value::Bool(false)),
        ("recs", Value::Seq(vec![rec_value(model, &rec)])),
    ]))
}

/// Expected answers for a sealed model file, the way the daemon gets
/// them: load (unseal + decode) → index → parse → recommend → render.
pub fn expected_answers(
    tr: &Tracer,
    model_path: &Path,
    pool: &[String],
) -> Result<Expected, String> {
    let _v = tr.span("bench.answers");
    let model = {
        let _s = tr.span("store.load");
        pm_serve::load_model(model_path).map_err(|e| e.to_string())?
    };
    let matcher = {
        let _s = tr.span("core.index");
        Matcher::new(&model)
    };
    let recommend = pool
        .iter()
        .map(|line| answer_line(&model, &matcher, tr, line))
        .collect();
    Ok(Expected {
        recommend,
        rules: model.rules().len(),
    })
}

/// The same answers from the unindexed linear scan over the model's
/// rules — the reference the indexed matcher must agree with.
pub fn reference_answers(model: &RuleModel, pool: &[String]) -> Vec<String> {
    pool.iter()
        .map(|line| {
            let Ok(Request::Recommend { sales, .. }) = parse_request(line) else {
                panic!("pool line {line:?} is not a recommend request");
            };
            render(&obj(vec![
                ("ok", Value::Bool(true)),
                ("degraded", Value::Bool(false)),
                (
                    "recs",
                    Value::Seq(vec![rec_value(model, &model.recommend(&sales))]),
                ),
            ]))
        })
        .collect()
}
