//! The CLI subcommands.

use crate::args::{ArgMap, CliError};
use pm_baselines::MostProfitableItem;
use pm_datagen::DatasetConfig;
use pm_eval::runner::{run_sweep, EvalConfig};
use pm_rules::{MinerConfig, MoaMode, ProfitMode, RuleMiner, Support};
use pm_serve::stream::{Recovered, Stream, StreamError};
use pm_txn::{
    parse_item_floors, Catalog, CatalogDelta, Hierarchy, ItemId, QuantityModel, Sale, TargetFilter,
    Transaction, TransactionSet,
};
use profit_core::{CutConfig, Matcher, ProfitMiner, Recommendation, Recommender, RuleModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// Every CLI input file goes through the store's reader, which refuses
/// anything but a regular file: a FIFO would block and `/dev/zero`
/// would stream until memory runs out.
fn read(path: &str) -> Result<String, CliError> {
    let bytes = pm_store::read_file(path).map_err(|e| CliError::Runtime(e.to_string()))?;
    String::from_utf8(bytes).map_err(|e| CliError::Runtime(format!("{path}: {e}")))
}

/// All CLI file output goes through the crash-safe writer: a kill or
/// power cut mid-command leaves either the old file or the new one,
/// never a truncated hybrid.
fn write(path: &str, contents: &str) -> Result<(), CliError> {
    pm_store::write_atomic_str(path, contents).map_err(|e| CliError::Runtime(e.to_string()))
}

fn load_data(args: &ArgMap) -> Result<TransactionSet, CliError> {
    let path = args.require("--data")?;
    TransactionSet::from_json(&read(path)?).map_err(|e| CliError::Runtime(format!("{path}: {e}")))
}

/// `--metrics <path>`: dump the `pm-obs` registry as JSON once the
/// command body has run. The dump is observation-only — emitting it can
/// never change a command's primary output or any written model bytes.
fn dump_metrics(args: &ArgMap) -> Result<(), CliError> {
    if let Some(path) = args.get("--metrics") {
        // POSIX text files end in exactly one newline; `jq`/`cat` users
        // expect it regardless of how the registry renders its dump.
        let json = pm_obs::registry().dump_json();
        write(path, &format!("{}\n", json.trim_end()))?;
        pm_obs::info!("cli.metrics_written", path = path);
    }
    Ok(())
}

fn load_model(args: &ArgMap) -> Result<RuleModel, CliError> {
    let path = args.require("--model")?;
    // The store validates the envelope (magic, version, length, CRC)
    // before any deserialization; a file without one is refused.
    pm_serve::load_model(path).map_err(|e| match e {
        pm_serve::ServeError::Store(se @ pm_store::StoreError::Io { .. }) => {
            CliError::Runtime(se.to_string())
        }
        pm_serve::ServeError::Store(se) => CliError::Runtime(format!("{path}: {se}")),
        other => CliError::Runtime(other.to_string()),
    })
}

/// `--threads N`: worker threads (0 = all cores, 1 = every job inline on
/// one thread). The result is bit-identical at every setting.
fn threads(args: &ArgMap) -> Result<usize, CliError> {
    args.get_or("--threads", 0usize)
}

/// `--target items:A,B | subtree:CONCEPT | codes:0,1`: restrict mined
/// rule heads (and recommendations) to the admitted `(item, code)` pairs.
/// Resolved against the catalog/hierarchy the command operates on.
fn target_filter(
    args: &ArgMap,
    catalog: &Catalog,
    hierarchy: &Hierarchy,
) -> Result<Option<TargetFilter>, CliError> {
    match args.get("--target") {
        None => Ok(None),
        Some(spec) => TargetFilter::parse(spec, catalog, hierarchy)
            .map(Some)
            .map_err(CliError::Usage),
    }
}

/// `--min-profit-per-item ITEM=F,...`: per-item minimum rule-profit
/// floors; items without an entry fall back to the scalar `--min-profit`.
fn item_floors(args: &ArgMap, catalog: &Catalog) -> Result<Vec<(ItemId, f64)>, CliError> {
    match args.get("--min-profit-per-item") {
        None => Ok(Vec::new()),
        Some(spec) => parse_item_floors(spec, catalog).map_err(CliError::Usage),
    }
}

/// `--minsup F`: the minimum support fraction, in `(0, 1]`; `fit` and
/// `eval` share the check.
fn minsup(args: &ArgMap, default: f64) -> Result<f64, CliError> {
    let minsup: f64 = args.get_or("--minsup", default)?;
    if minsup > 0.0 && minsup <= 1.0 {
        Ok(minsup)
    } else {
        Err(CliError::Usage(format!(
            "--minsup must be in (0, 1], got {minsup}"
        )))
    }
}

fn miner_config(args: &ArgMap) -> Result<MinerConfig, CliError> {
    Ok(MinerConfig {
        min_support: Support::Fraction(minsup(args, 0.001)?),
        max_body_len: args.get_or("--max-body", 3usize)?,
        moa: if args.switch("--no-moa") {
            MoaMode::Disabled
        } else {
            MoaMode::Enabled
        },
        quantity: if args.switch("--buying") {
            QuantityModel::Buying
        } else {
            QuantityModel::Saving
        },
        min_confidence: match args.get("--min-conf") {
            None => Some(0.5),
            Some(v) => {
                let f: f64 = v
                    .parse()
                    .map_err(|_| CliError::Usage("--min-conf: bad number".into()))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(CliError::Usage(format!(
                        "--min-conf: {v:?} is not a confidence in [0, 1]"
                    )));
                }
                // 0 is no floor.
                (f > 0.0).then_some(f)
            }
        },
        min_rule_profit: match args.get("--min-profit") {
            None => None,
            Some(v) => {
                let f: f64 = v
                    .parse()
                    .map_err(|_| CliError::Usage("--min-profit: bad number".into()))?;
                if !f.is_finite() {
                    return Err(CliError::Usage(format!(
                        "--min-profit: {v:?} is not a finite number"
                    )));
                }
                (f > 0.0).then_some(f)
            }
        },
        prune_default_dominated: true,
    })
}

/// `gen`: write a synthetic dataset.
pub fn gen(args: &ArgMap) -> Result<String, CliError> {
    let out = args.require("--out")?;
    let dataset = args.get("--dataset").unwrap_or("i");
    let mut cfg = match dataset {
        "i" | "I" => DatasetConfig::dataset_i(),
        "ii" | "II" => DatasetConfig::dataset_ii(),
        other => {
            return Err(CliError::Usage(format!(
                "--dataset must be i or ii, got {other:?}"
            )))
        }
    };
    let txns: usize = args.get_or("--txns", 10_000usize)?;
    let items: usize = args.get_or("--items", 300usize)?;
    if txns == 0 || items == 0 {
        return Err(CliError::Usage("--txns and --items must be ≥ 1".into()));
    }
    cfg = cfg.with_transactions(txns).with_items(items);
    cfg.quest.n_patterns = (cfg.quest.n_transactions / 50).clamp(20, 2000);
    let seed: u64 = args.get_or("--seed", 2002u64)?;
    let data = cfg.generate(&mut StdRng::seed_from_u64(seed));
    write(out, &data.to_json())?;
    Ok(format!(
        "wrote {} — {} transactions, {} items ({} targets), recorded profit {}",
        out,
        data.len(),
        data.catalog().len(),
        data.catalog().target_items().len(),
        data.total_recorded_profit()
    ))
}

/// The full mining pipeline a `fit` (or a streaming `serve`) runs,
/// assembled from the shared flag set. The dataset is needed to resolve
/// `--target` and `--min-profit-per-item` names against its catalog.
fn build_pipeline(args: &ArgMap, data: &TransactionSet) -> Result<ProfitMiner, CliError> {
    let cut = CutConfig {
        profit_mode: if args.switch("--conf") {
            ProfitMode::Confidence
        } else {
            ProfitMode::Profit
        },
        prune: !args.switch("--no-prune"),
        ..CutConfig::default()
    };
    Ok(ProfitMiner::new(miner_config(args)?)
        .with_cut(cut)
        .with_threads(threads(args)?)
        .with_target(target_filter(args, data.catalog(), data.hierarchy())?)
        .with_item_floors(item_floors(args, data.catalog())?))
}

/// Recover the stream in `log` on top of `base` (and the checkpoint,
/// when given and present) exactly as a restarting daemon does.
fn recover(
    base: TransactionSet,
    log: &str,
    checkpoint: Option<&str>,
    pipeline: ProfitMiner,
) -> Result<(Stream, Recovered), CliError> {
    Stream::recover(base, Path::new(log), checkpoint.map(Path::new), pipeline)
        .map_err(|e| CliError::Runtime(e.to_string()))
}

/// `fit`: train and save a recommender.
///
/// With `--log`, the log is replayed onto `--data` first — the recovery
/// a restarted daemon runs, so a compacted log is refused — and the
/// whole stream is fitted once. The written model is byte-identical to
/// a cold fit on the concatenated stream.
pub fn fit(args: &ArgMap) -> Result<String, CliError> {
    let data = load_data(args)?;
    if data.is_empty() {
        return Err(CliError::Runtime(
            "dataset is empty — nothing to fit".into(),
        ));
    }
    let out = args.require("--out")?;
    let pipeline = build_pipeline(args, &data)?;
    let (model, replay_note) = match args.get("--log") {
        None => (pipeline.fit(&data), String::new()),
        Some(log) => {
            let (mut stream, recovered) = recover(data, log, None, pipeline)?;
            let note = format!(
                "; replayed {} log record{} into {} transactions",
                recovered.replayed,
                if recovered.replayed == 1 { "" } else { "s" },
                stream.data().len()
            );
            (stream.model(), note)
        }
    };
    let stats = *model.stats();
    let payload =
        serde_json::to_string(&model.save()).map_err(|e| CliError::Runtime(e.to_string()))?;
    // Models are written sealed: a checksummed, versioned envelope over
    // the JSON payload, atomically renamed into place. Truncated or
    // bit-flipped files are rejected at load instead of deserializing
    // into a silently-wrong recommender.
    pm_store::save_sealed(out, payload.as_bytes()).map_err(|e| CliError::Runtime(e.to_string()))?;
    dump_metrics(args)?;
    Ok(format!(
        "wrote {} — {} ({} rules; mined {}, after dominance {}, projected profit {:.2}{})",
        out,
        model.name(),
        stats.after_cut,
        stats.mined_rules,
        stats.after_dominance,
        stats.projected_profit,
        replay_note
    ))
}

/// `ingest`: validate a batch of sales transactions against the base
/// dataset plus everything already in the log, then append it to the
/// crash-safe sales log as one record. `--catalog-delta` attaches an
/// append-only catalog/hierarchy extension to the same record, so new
/// items become part of the stream atomically with their first sales.
///
/// The append is fsynced before the command reports success; a torn
/// tail left by a crash mid-append is truncated away (and reported)
/// on the next open. The batch file is a JSON array of transactions —
/// exactly what `split --tail` writes.
pub fn ingest(args: &ArgMap) -> Result<String, CliError> {
    let log_path = args.require("--log")?;
    let batch_path = args.require("--batch")?;
    let data = load_data(args)?;
    let batch: Vec<Transaction> = serde_json::from_str(&read(batch_path)?)
        .map_err(|e| CliError::Runtime(format!("{batch_path}: {e}")))?;
    let delta: Option<CatalogDelta> =
        match args.get("--catalog-delta") {
            None => None,
            Some(p) => Some(serde_json::from_str(&read(p)?).map_err(|e| {
                CliError::Runtime(format!("{p}: catalog delta does not parse: {e}"))
            })?),
        };
    if batch.is_empty() && delta.as_ref().is_none_or(|d| d.is_empty()) {
        return Err(CliError::Runtime(format!(
            "{batch_path}: batch is empty — nothing to ingest"
        )));
    }
    // Without a checkpoint recovery mines nothing, so the default
    // pipeline never runs: ingest takes no fit flags.
    let (mut stream, recovered) = recover(data, log_path, None, ProfitMiner::default())?;
    let record = stream.position();
    stream.append(delta.as_ref(), &batch).map_err(|e| match e {
        StreamError::Invalid(e) => CliError::Runtime(format!("{batch_path}: {e}")),
        e => CliError::Runtime(e.to_string()),
    })?;
    let torn = if recovered.truncated_bytes > 0 {
        format!(
            "; recovered a torn tail of {} bytes",
            recovered.truncated_bytes
        )
    } else {
        String::new()
    };
    let grown = match &delta {
        Some(d) if !d.is_empty() => format!(
            "; grew the catalog by {} items and {} concepts",
            d.items.len(),
            d.concepts.len()
        ),
        _ => String::new(),
    };
    Ok(format!(
        "appended {} transactions to {} as record {record} (stream now {} transactions{}{})",
        batch.len(),
        log_path,
        stream.data().len(),
        grown,
        torn
    ))
}

/// `checkpoint`: seal the whole streaming state — data, warm miner
/// caches, and log position — into an atomic `PMCK` envelope, then
/// compact the sales log behind it (unless `--no-compact`).
///
/// `--out` is also where recovery looks for the previous checkpoint, so
/// the stream is recovered exactly as a daemon started with
/// `--checkpoint` at the same path would recover it — and the sealed
/// bytes are the ones that daemon's `checkpoint` op would seal.
pub fn checkpoint(args: &ArgMap) -> Result<String, CliError> {
    let log_path = args.require("--log")?;
    let out = args.require("--out")?;
    let base = load_data(args)?;
    if base.is_empty() {
        return Err(CliError::Runtime(
            "dataset is empty — nothing to checkpoint".into(),
        ));
    }
    let pipeline = build_pipeline(args, &base)?;
    let (mut stream, recovered) = recover(base, log_path, Some(out), pipeline)?;
    let compaction = stream
        .checkpoint(Path::new(out), !args.switch("--no-compact"))
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let compacted = match compaction {
        None => "; log left uncompacted".to_string(),
        Some(c) => format!(
            "; compacted the log (dropped {} records, retained {})",
            c.dropped, c.retained
        ),
    };
    let how = if recovered.resumed {
        "resumed from the existing checkpoint"
    } else {
        "cold-fitted the base dataset and the replayed log"
    };
    Ok(format!(
        "wrote checkpoint {out} at stream position {} — {} transactions \
         ({how}, replayed {} tail records{compacted})",
        stream.position(),
        stream.data().len(),
        recovered.replayed,
    ))
}

/// `split`: cut a dataset at `--at` into a head *dataset* (catalog +
/// first N transactions, loadable by `fit --data`) and a tail *batch*
/// (a bare JSON array of the remaining transactions, ready for
/// `ingest --batch`).
pub fn split(args: &ArgMap) -> Result<String, CliError> {
    let data = load_data(args)?;
    let head_path = args.require("--head")?;
    let tail_path = args.require("--tail")?;
    let at: usize = args
        .require("--at")?
        .parse()
        .map_err(|_| CliError::Usage("--at: bad number".into()))?;
    if at == 0 || at >= data.len() {
        return Err(CliError::Usage(format!(
            "--at must split {} transactions into two non-empty parts, got {at}",
            data.len()
        )));
    }
    let head_indices: Vec<usize> = (0..at).collect();
    write(head_path, &data.subset(&head_indices).to_json())?;
    let tail = &data.transactions()[at..];
    let tail_json =
        serde_json::to_string_pretty(tail).map_err(|e| CliError::Runtime(e.to_string()))?;
    write(tail_path, &tail_json)?;
    Ok(format!(
        "split {} transactions at {at}: head dataset {} ({at} transactions), \
         tail batch {} ({} transactions)",
        data.len(),
        head_path,
        tail_path,
        tail.len()
    ))
}

/// `recommend`: recommend for one dataset transaction's customer, or —
/// with `--all` — serve every customer through the indexed [`Matcher`]
/// and print a per-`(item, code)` summary.
pub fn recommend(args: &ArgMap) -> Result<String, CliError> {
    let data = load_data(args)?;
    let model = load_model(args)?;
    let out = if args.switch("--all") {
        recommend_all(&data, &model)?
    } else {
        recommend_one(&data, &model, args)?
    };
    dump_metrics(args)?;
    Ok(out)
}

/// Render one recommendation with its rule trace. When the model cannot
/// attach a rule index the line degrades to a traceless form and the
/// event is counted — the old `rule_index.expect("rule-based model")`
/// aborted the whole command instead.
pub(crate) fn render_recommendation(model: &RuleModel, rec: &Recommendation) -> String {
    let catalog = model.moa().catalog();
    let mut s = format!(
        "recommend {} at {}  [expected profit {:.4}, confidence {:.0}%]\n",
        catalog.item(rec.item).name,
        rec.promotion,
        rec.expected_profit,
        rec.confidence * 100.0,
    );
    match rec.rule_index {
        Some(idx) if idx < model.rules().len() => {
            s.push_str(&format!("  via {}\n", model.explain(idx)));
        }
        _ => {
            pm_obs::counter("cli.missing_rule_trace").inc();
            pm_obs::error!("cli.missing_rule_trace", item = catalog.item(rec.item).name);
            s.push_str("  (no rule trace available)\n");
        }
    }
    s
}

/// Transaction `txn`'s customer, whose sales must name items and codes
/// in the model's catalog, as the daemon requires of every request: the
/// matcher indexes the catalog with them.
fn customer_of<'t>(
    model: &RuleModel,
    txn: usize,
    t: &'t Transaction,
) -> Result<&'t [Sale], CliError> {
    let customer = t.non_target_sales();
    pm_serve::protocol::validate_sales(model, customer)
        .map_err(|msg| CliError::Runtime(format!("transaction {txn}: {msg}")))?;
    Ok(customer)
}

fn recommend_one(
    data: &TransactionSet,
    model: &RuleModel,
    args: &ArgMap,
) -> Result<String, CliError> {
    let txn: usize = args.get_or("--txn", 0usize)?;
    let k: usize = args.get_or("--top", 1usize)?;
    let t = data
        .transactions()
        .get(txn)
        .ok_or_else(|| CliError::Runtime(format!("transaction {txn} out of range")))?;
    let customer = customer_of(model, txn, t)?;
    let moa = model.moa();
    let target = target_filter(args, moa.catalog(), moa.hierarchy())?;
    let recs = model.recommend_top_k(customer, k.max(1), target.as_ref());
    let mut out = format!(
        "customer of transaction {txn} ({} non-target sales):\n",
        customer.len()
    );
    if recs.is_empty() {
        out.push_str("no recommendation — the target admits no matching rule head\n");
    }
    for rec in recs {
        out.push_str(&render_recommendation(model, &rec));
    }
    Ok(out)
}

/// `assort`: mine `--data` with the usual fit flags and pick the top-`--n`
/// `(item, code)` assortment maximizing joint recommendation profit over
/// the training customers (overlap-aware greedy; see `profit_core::assort`).
pub fn assort(args: &ArgMap) -> Result<String, CliError> {
    let data = load_data(args)?;
    if data.is_empty() {
        return Err(CliError::Runtime(
            "dataset is empty — nothing to assort".into(),
        ));
    }
    let n: usize = args.get_or("--n", 3usize)?;
    if n == 0 {
        return Err(CliError::Usage("--n must be ≥ 1".into()));
    }
    let mode = if args.switch("--conf") {
        ProfitMode::Confidence
    } else {
        ProfitMode::Profit
    };
    let miner = RuleMiner::new(miner_config(args)?)
        .with_threads(threads(args)?)
        .with_target(target_filter(args, data.catalog(), data.hierarchy())?)
        .with_item_floors(item_floors(args, data.catalog())?);
    let mined = miner.mine(&data);
    let assortment = profit_core::assort_greedy(&mined, n, mode);
    let catalog = data.catalog();
    let mut out = format!(
        "top-{} assortment over {} customers (joint expected profit {:.2}):\n",
        assortment.picks.len(),
        data.len(),
        assortment.expected_profit,
    );
    for (i, &(item, code)) in assortment.picks.iter().enumerate() {
        out.push_str(&format!(
            "{:4}. {} at {}\n",
            i + 1,
            catalog.item(item).name,
            catalog.code(item, code),
        ));
    }
    dump_metrics(args)?;
    Ok(out)
}

/// Batch serving: one indexed-matcher pass over every transaction's
/// customer, aggregated by recommended `(item, code)` pair. Per-customer
/// cost is O(postings touched), not O(total rules), so this is the
/// reference serving loop for large datasets. Output order is
/// deterministic (catalog order of the pairs).
fn recommend_all(data: &TransactionSet, model: &RuleModel) -> Result<String, CliError> {
    let matcher = Matcher::new(model);
    let catalog = model.moa().catalog();
    // (item, code) → (customers served, Σ expected profit).
    let mut summary: std::collections::BTreeMap<(pm_txn::ItemId, pm_txn::CodeId), (u64, f64)> =
        std::collections::BTreeMap::new();
    for (txn, t) in data.transactions().iter().enumerate() {
        let rec = matcher.recommend(customer_of(model, txn, t)?);
        let e = summary.entry((rec.item, rec.code)).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += rec.expected_profit;
    }
    let mut out = format!(
        "served {} customers over {} rules (indexed matcher):\n",
        data.len(),
        model.rules().len()
    );
    for (&(item, code), &(count, profit)) in &summary {
        out.push_str(&format!(
            "{:>8} × {} at {}  [expected profit {:.2}]\n",
            count,
            catalog.item(item).name,
            catalog.code(item, code),
            profit,
        ));
    }
    // Per-request serving latency from the matcher's histogram (the
    // process-lifetime distribution; for a CLI run, this batch).
    let lat = pm_obs::latency("serve.recommend_ns");
    if lat.count() > 0 {
        out.push_str(&format!(
            "serving latency: p50 {:.1}µs  p95 {:.1}µs  p99 {:.1}µs  ({} recommendations timed)\n",
            lat.quantile_ns(0.50) / 1e3,
            lat.quantile_ns(0.95) / 1e3,
            lat.quantile_ns(0.99) / 1e3,
            lat.count(),
        ));
    }
    Ok(out)
}

/// `rules`: print a model's rules.
pub fn rules(args: &ArgMap) -> Result<String, CliError> {
    let model = load_model(args)?;
    let top: usize = args.get_or("--top", usize::MAX)?;
    let mut out = format!("{} — {} rules\n", model.name(), model.rules().len());
    for i in 0..model.rules().len().min(top) {
        out.push_str(&format!("{:4}. {}\n", i + 1, model.explain(i)));
    }
    Ok(out)
}

/// `eval`: cross-validated comparison on a dataset.
pub fn eval(args: &ArgMap) -> Result<String, CliError> {
    let data = load_data(args)?;
    if data.is_empty() {
        return Err(CliError::Runtime(
            "dataset is empty — nothing to evaluate".into(),
        ));
    }
    let minsup = minsup(args, 0.002)?;
    let n_folds: usize = args.get_or("--folds", 5usize)?;
    if !(2..=data.len()).contains(&n_folds) {
        return Err(CliError::Usage(format!(
            "--folds {n_folds} is outside 2..={} (the transaction count)",
            data.len()
        )));
    }
    let cfg = EvalConfig {
        n_folds,
        seed: args.get_or("--seed", 2002u64)?,
        sweep: vec![minsup],
        max_body_len: args.get_or("--max-body", 3usize)?,
        quantity: if args.switch("--buying") {
            QuantityModel::Buying
        } else {
            QuantityModel::Saving
        },
        threads: threads(args)?,
        ..EvalConfig::default()
    };
    let report = run_sweep(&data, &cfg);
    let mut out = report
        .gain_table(&format!("gain (minsup {:.3}%)", minsup * 100.0))
        .render();
    out.push('\n');
    out.push_str(&report.hit_rate_table("hit rate").render());
    out.push('\n');
    out.push_str(&report.rules_table("rules").render());
    dump_metrics(args)?;
    Ok(out)
}

/// `import`: build a dataset from catalog + sales CSVs.
pub fn import(args: &ArgMap) -> Result<String, CliError> {
    let catalog_csv = read(args.require("--catalog")?)?;
    let sales_csv = read(args.require("--sales")?)?;
    let out = args.require("--out")?;
    // CsvError names its file role itself ("catalog line N: …").
    let (catalog, names) =
        pm_txn::csv::parse_catalog(&catalog_csv).map_err(|e| CliError::Runtime(e.to_string()))?;
    let data = pm_txn::csv::parse_sales(&sales_csv, catalog, &names)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    write(out, &data.to_json())?;
    Ok(format!(
        "wrote {} — {} transactions over {} items",
        out,
        data.len(),
        data.catalog().len()
    ))
}

/// `export`: write a dataset back to catalog + sales CSVs.
pub fn export(args: &ArgMap) -> Result<String, CliError> {
    let data = load_data(args)?;
    let catalog_path = args.require("--catalog")?;
    let sales_path = args.require("--sales")?;
    let (cat_csv, sales_csv) = pm_txn::csv::to_csv(&data);
    write(catalog_path, &cat_csv)?;
    write(sales_path, &sales_csv)?;
    Ok(format!("wrote {catalog_path} and {sales_path}"))
}

/// `serve`: run the fault-tolerant recommendation daemon until a client
/// sends `{"op":"shutdown"}`. Blocks; the returned string is the final
/// serving summary.
///
/// With `--data` and `--log` the daemon starts in streaming mode: it
/// fits the model itself (base dataset plus sales-log replay, honoring
/// the fit flags) and serves `ingest` requests that append batches to
/// the log and hot-swap incrementally refitted models.
pub fn serve(args: &ArgMap) -> Result<String, CliError> {
    use std::time::Duration;
    let streaming = match (args.get("--data"), args.get("--log")) {
        (Some(_), Some(log)) => Some(log.to_string()),
        (None, None) => None,
        _ => {
            return Err(CliError::Usage(
                "serve streaming mode needs both --data and --log".into(),
            ))
        }
    };
    let addr = args.get("--addr").unwrap_or("127.0.0.1:7878");
    let cfg = pm_serve::ServeConfig {
        workers: args.get_or("--workers", 4usize)?.max(1),
        queue: args.get_or("--queue", 64usize)?.max(1),
        io_threads: args.get_or("--io-threads", 2usize)?.max(1),
        batch: args.get_or("--batch", 32usize)?.max(1),
        read_timeout: Duration::from_millis(args.get_or("--read-timeout-ms", 10_000u64)?.max(1)),
        write_timeout: Duration::from_millis(args.get_or("--write-timeout-ms", 10_000u64)?.max(1)),
        deadline: Duration::from_millis(args.get_or("--deadline-ms", 250u64)?.max(1)),
        max_line: args.get_or("--max-line", 64 * 1024usize)?.max(256),
        checkpoint: args.get("--checkpoint").map(std::path::PathBuf::from),
        max_ingest_txns: args.get_or("--max-ingest-txns", 10_000usize)?,
        max_ingest_bytes: args.get_or("--max-ingest-bytes", 8 * 1024 * 1024usize)?,
    };
    if args.get("--checkpoint").is_some() && streaming.is_none() {
        return Err(CliError::Usage(
            "--checkpoint needs streaming mode (--data and --log)".into(),
        ));
    }
    let server = match &streaming {
        Some(log) => {
            let data = load_data(args)?;
            if data.is_empty() {
                return Err(CliError::Runtime(
                    "dataset is empty — nothing to fit".into(),
                ));
            }
            let pipeline = build_pipeline(args, &data)?;
            pm_serve::Server::start_streaming(addr, data, log, pipeline, cfg)
                .map_err(|e| CliError::Runtime(e.to_string()))?
        }
        None => {
            let model_path = args.require("--model")?;
            pm_serve::Server::start(addr, model_path, cfg)
                .map_err(|e| CliError::Runtime(e.to_string()))?
        }
    };
    let bound = server.addr();
    // `--addr-file` publishes the bound address (atomically, so a reader
    // never sees a partial line) — with `--addr host:0` this is how
    // scripts and tests learn the ephemeral port.
    if let Some(path) = args.get("--addr-file") {
        pm_store::write_atomic_str(path, &format!("{bound}\n"))
            .map_err(|e| CliError::Runtime(e.to_string()))?;
    }
    let summary = server.join();
    dump_metrics(args)?;
    Ok(format!("{bound}: {summary}"))
}

/// `stats`: summarize a dataset.
pub fn stats(args: &ArgMap) -> Result<String, CliError> {
    let data = load_data(args)?;
    if data.is_empty() {
        return Err(CliError::Runtime("dataset is empty".into()));
    }
    let catalog = data.catalog();
    let targets = catalog.target_items();
    let basket: f64 = data
        .transactions()
        .iter()
        .map(|t| t.basket_size() as f64)
        .sum::<f64>()
        / data.len().max(1) as f64;
    let mpi = MostProfitableItem::fit(&data);
    let (item, code) = mpi.best_pair();
    Ok(format!(
        "transactions: {}\nitems: {} ({} targets, {} non-target)\n\
         mean basket size: {basket:.2}\nconcepts: {}\n\
         recorded target profit: {}\n\
         most profitable pair: {} at {} (${:.2} total)",
        data.len(),
        catalog.len(),
        targets.len(),
        catalog.len() - targets.len(),
        data.hierarchy().n_concepts(),
        data.total_recorded_profit(),
        catalog.item(item).name,
        catalog.code(item, code),
        mpi.best_profit(),
    ))
}
