//! Ablations over the design choices DESIGN.md calls out — beyond the
//! paper's own figures, these quantify what each mechanism contributes.
//!
//! * [`cf_sweep`] — how the pessimistic confidence level `CF` trades rule
//!   count against gain (C4.5's 0.25 vs laxer/stricter settings);
//! * [`prune_value`] — the cut-optimal phase's effect: gain and model
//!   size with and without pruning (§4 vs plain MPF of §3.2);
//! * [`coupling`] — the synthetic coupling knobs (target noise, price
//!   coupling) vs the fully independent reading of §5.2, showing why the
//!   independent reading cannot produce the paper's numbers;
//! * [`eval_semantics`] — MOA-acceptance vs exact-match evaluation;
//! * [`quantity_model`] — saving vs buying MOA;
//! * [`workloads`] — full, targeted and per-item-floored mining.
//!
//! Every cell mines at `Scale::range_minsup` and holds out one fold of
//! [`FOLDS`]. A cell that needs a model of its own is built and scored
//! by the sweep's own `runner::score`; [`eval_semantics`]' two cells
//! evaluate one model.

use crate::experiments::{Dataset, Scale};
use crate::folds::Folds;
use crate::metrics::{evaluate, EvalOptions};
use crate::report::{fmt, Table};
use crate::runner::{fold_thread_split, score};
use pm_datagen::config::PriceCoupling;
use pm_rules::{MinerConfig, MoaMode, RuleMiner, Support};
use pm_txn::TransactionSet;
use profit_core::{CutConfig, Matcher, RuleModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The folds an ablation's data is split into; fold 0 is held out, so
/// the data needs at least this many transactions.
pub const FOLDS: usize = 5;

fn one_fold(data: &TransactionSet, seed: u64) -> (TransactionSet, TransactionSet) {
    let folds = Folds::new(data.len(), FOLDS, seed);
    let (tr, va) = folds.split(0);
    (data.subset(&tr), data.subset(&va))
}

fn miner(scale: &Scale, minsup: f64) -> RuleMiner {
    RuleMiner::new(MinerConfig {
        min_support: Support::Fraction(minsup),
        max_body_len: scale.max_body_len,
        moa: MoaMode::Enabled,
        min_confidence: Some(0.5),
        ..MinerConfig::default()
    })
}

fn table(title: String, columns: &[&str], rows: Vec<Vec<String>>) -> Table {
    let mut table = Table::new(title, columns.iter().map(|c| c.to_string()).collect());
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Gain and rule count across pessimistic confidence levels.
pub fn cf_sweep(which: Dataset, scale: &Scale, seed: u64, threads: usize) -> Table {
    let data = which.generate(scale, seed);
    let (train, valid) = one_fold(&data, seed);
    // One mining run feeds every cell: give it the full thread budget.
    let mined = miner(scale, scale.range_minsup)
        .with_threads(threads)
        .mine(&train);
    let cfs = [0.05, 0.10, 0.25, 0.50, 0.90];
    let (workers, _) = fold_thread_split(threads, cfs.len());
    let rows = pm_par::par_map(cfs.len(), workers, |i| {
        let cf = cfs[i];
        let cut = CutConfig {
            cf,
            ..CutConfig::default()
        };
        let (model, out) = score(&mined, &cut, &valid, &EvalOptions::default());
        vec![
            format!("{cf:.2}"),
            fmt(out.gain()),
            fmt(out.hit_rate()),
            model.rules().len().to_string(),
        ]
    });
    table(
        format!("ablation: pessimistic CF — {which}"),
        &["CF", "gain", "hit rate", "rules"],
        rows,
    )
}

/// Gain and model size with and without the cut-optimal phase.
pub fn prune_value(which: Dataset, scale: &Scale, seed: u64, threads: usize) -> Table {
    let data = which.generate(scale, seed);
    let (train, valid) = one_fold(&data, seed);
    let mined = miner(scale, scale.range_minsup)
        .with_threads(threads)
        .mine(&train);
    let variants = [("cut-optimal (§4)", true), ("MPF only (§3.2)", false)];
    let (workers, _) = fold_thread_split(threads, variants.len());
    let rows = pm_par::par_map(variants.len(), workers, |i| {
        let (label, prune) = variants[i];
        let cut = CutConfig {
            prune,
            ..CutConfig::default()
        };
        let (model, out) = score(&mined, &cut, &valid, &EvalOptions::default());
        vec![
            label.to_string(),
            fmt(out.gain()),
            fmt(out.hit_rate()),
            model.rules().len().to_string(),
        ]
    });
    table(
        format!("ablation: cut-optimal pruning — {which}"),
        &["model", "gain", "hit rate", "rules"],
        rows,
    )
}

/// Gain of PROF+MOA across generator couplings — including the fully
/// independent reading of §5.2 under which no recommender can beat a
/// fixed pair.
pub fn coupling(which: Dataset, scale: &Scale, seed: u64, threads: usize) -> Table {
    let variants: [(&str, f64, PriceCoupling); 4] = [
        ("pattern+θ, noise 0.05", 0.05, PriceCoupling::Sensitivity),
        ("pattern+θ, noise 0.15", 0.15, PriceCoupling::Sensitivity),
        ("pattern only, noise 0.15", 0.15, PriceCoupling::Uniform),
        ("independent (§5.2 literal)", 1.0, PriceCoupling::Uniform),
    ];
    // Every cell generates + mines its own dataset: fan the cells out and
    // keep their inner mining sequential while cells saturate the budget.
    let (workers, inner) = fold_thread_split(threads, variants.len());
    let rows = pm_par::par_map(variants.len(), workers, |i| {
        let (label, noise, pc) = variants[i];
        let cfg = which
            .config(scale)
            .with_target_noise(noise)
            .with_price_coupling(pc);
        let data = cfg.generate(&mut StdRng::seed_from_u64(seed));
        let (train, valid) = one_fold(&data, seed);
        let mined = miner(scale, scale.range_minsup)
            .with_threads(inner)
            .mine(&train);
        let (model, out) = score(
            &mined,
            &CutConfig::default(),
            &valid,
            &EvalOptions::default(),
        );
        vec![
            label.to_string(),
            fmt(out.gain()),
            fmt(out.hit_rate()),
            model.rules().len().to_string(),
        ]
    });
    table(
        format!("ablation: basket→target coupling — {which}"),
        &["coupling", "gain", "hit rate", "rules"],
        rows,
    )
}

/// Saving vs buying MOA (§3.1): both the mining-time profit estimates
/// and the evaluation-time quantity model switch together, as in the
/// paper ("the gain for buying MOA will be higher if all target items
/// have non-negative profit").
pub fn quantity_model(which: Dataset, scale: &Scale, seed: u64, threads: usize) -> Table {
    use pm_txn::QuantityModel;
    let data = which.generate(scale, seed);
    let (train, valid) = one_fold(&data, seed);
    let variants = [
        ("saving", QuantityModel::Saving),
        ("buying", QuantityModel::Buying),
    ];
    let (workers, inner) = fold_thread_split(threads, variants.len());
    let rows = pm_par::par_map(variants.len(), workers, |i| {
        let (label, qm) = variants[i];
        let mined = RuleMiner::new(MinerConfig {
            min_support: Support::Fraction(scale.range_minsup),
            max_body_len: scale.max_body_len,
            moa: MoaMode::Enabled,
            quantity: qm,
            min_confidence: Some(0.5),
            ..MinerConfig::default()
        })
        .with_threads(inner)
        .mine(&train);
        let opts = EvalOptions {
            quantity: qm,
            ..EvalOptions::default()
        };
        let (_, out) = score(&mined, &CutConfig::default(), &valid, &opts);
        vec![label.to_string(), fmt(out.gain()), fmt(out.hit_rate())]
    });
    table(
        format!("ablation: saving vs buying MOA — {which}"),
        &["quantity model", "gain", "hit rate"],
        rows,
    )
}

/// The PR-9 workload expansions side by side: full mining, targeted
/// mining (in-DFS head restriction vs post-filtering the full run — the
/// rule counts must agree, which the shape test asserts), and a per-item
/// profit floor on the targeted item. Gain and hit rate are measured the
/// usual way on the held-out fold; targeted rows evaluate the targeted
/// model (whose default rule falls back to the best in-target head).
pub fn workloads(which: Dataset, scale: &Scale, seed: u64, threads: usize) -> Table {
    use pm_txn::TargetFilter;
    let data = which.generate(scale, seed);
    let (train, valid) = one_fold(&data, seed);
    let full = miner(scale, scale.range_minsup)
        .with_threads(threads)
        .mine(&train);
    // Target the head item of the top mined rule (falling back to the
    // first catalog item), so the targeted rows are never vacuous.
    let titem = full
        .rules()
        .first()
        .map(|r| full.head(r.head).0)
        .unwrap_or(pm_txn::ItemId(0));
    let target = TargetFilter::Items(vec![titem]);
    let hier = train.hierarchy();
    let post_filtered = full
        .rules()
        .iter()
        .filter(|r| {
            let (i, c) = full.head(r.head);
            target.matches(hier, i, c)
        })
        .count();
    let targeted = miner(scale, scale.range_minsup)
        .with_threads(threads)
        .with_target(Some(target))
        .mine(&train);
    let floored = miner(scale, scale.range_minsup)
        .with_threads(threads)
        .with_item_floors(vec![(titem, 5.0)])
        .mine(&train);

    let cell = |label: &str, mined: &pm_rules::MinedRules, rules: usize| {
        let (_, out) = score(
            mined,
            &CutConfig::default(),
            &valid,
            &EvalOptions::default(),
        );
        vec![
            label.to_string(),
            rules.to_string(),
            fmt(out.gain()),
            fmt(out.hit_rate()),
        ]
    };
    let tname = train.catalog().item(titem).name.clone();
    table(
        format!("ablation: workloads (target {tname}) — {which}"),
        &["workload", "rules", "gain", "hit rate"],
        vec![
            cell("full", &full, full.rules().len()),
            cell("targeted (in-DFS)", &targeted, targeted.rules().len()),
            cell("targeted (post-filter)", &targeted, post_filtered),
            cell("per-item floor ($5)", &floored, floored.rules().len()),
        ],
    )
}

/// MOA acceptance vs exact-match acceptance at evaluation time.
pub fn eval_semantics(which: Dataset, scale: &Scale, seed: u64, threads: usize) -> Table {
    let data = which.generate(scale, seed);
    let (train, valid) = one_fold(&data, seed);
    let mined = miner(scale, scale.range_minsup)
        .with_threads(threads)
        .mine(&train);
    let model = RuleModel::build(&mined, &CutConfig::default());
    let variants = [("MOA (P ⪯ recorded)", false), ("exact code match", true)];
    let (workers, _) = fold_thread_split(threads, variants.len());
    // One Matcher per cell: its memoization scratch is a RefCell.
    let rows = pm_par::par_map(variants.len(), workers, |i| {
        let (label, exact) = variants[i];
        let opts = EvalOptions {
            exact_match: exact,
            ..EvalOptions::default()
        };
        let out = evaluate(&Matcher::new(&model), &valid, &opts);
        vec![label.to_string(), fmt(out.gain()), fmt(out.hit_rate())]
    });
    table(
        format!("ablation: evaluation acceptance — {which}"),
        &["acceptance", "gain", "hit rate"],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cf_sweep_shape() {
        let t = cf_sweep(Dataset::I, &Scale::tiny(), 3, 2);
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.columns.len(), 4);
    }

    #[test]
    fn prune_value_shape() {
        let t = prune_value(Dataset::I, &Scale::tiny(), 3, 2);
        assert_eq!(t.rows.len(), 2);
        // Pruned model is never larger.
        let pruned: usize = t.rows[0][3].parse().unwrap();
        let unpruned: usize = t.rows[1][3].parse().unwrap();
        assert!(pruned <= unpruned);
    }

    #[test]
    fn coupling_orders_independent_last() {
        let t = coupling(Dataset::I, &Scale::tiny(), 3, 2);
        assert_eq!(t.rows.len(), 4);
        // Strong coupling should not lose to the independent regime.
        let strong: f64 = t.rows[0][1].parse().unwrap();
        let indep: f64 = t.rows[3][1].parse().unwrap();
        assert!(
            strong >= indep - 0.1,
            "coupled {strong} vs independent {indep}"
        );
    }

    #[test]
    fn buying_gain_at_least_saving() {
        let t = quantity_model(Dataset::I, &Scale::tiny(), 3, 2);
        let saving: f64 = t.rows[0][1].parse().unwrap();
        let buying: f64 = t.rows[1][1].parse().unwrap();
        assert!(
            buying >= saving - 0.05,
            "buying {buying} vs saving {saving}"
        );
    }

    #[test]
    fn workloads_shape_and_identity() {
        let t = workloads(Dataset::I, &Scale::tiny(), 3, 2);
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.columns.len(), 4);
        // In-DFS targeting and post-filtering the full run must agree.
        assert_eq!(t.rows[1][1], t.rows[2][1], "targeted rule counts differ");
        let full: usize = t.rows[0][1].parse().unwrap();
        let targeted: usize = t.rows[1][1].parse().unwrap();
        let floored: usize = t.rows[3][1].parse().unwrap();
        assert!(targeted <= full, "targeting can only restrict");
        assert!(floored <= full, "a floor can only restrict");
    }

    #[test]
    fn eval_semantics_moa_is_no_worse() {
        let t = eval_semantics(Dataset::I, &Scale::tiny(), 3, 2);
        let moa_hit: f64 = t.rows[0][2].parse().unwrap();
        let exact_hit: f64 = t.rows[1][2].parse().unwrap();
        assert!(moa_hit >= exact_hit, "{moa_hit} vs {exact_hit}");
    }
}
