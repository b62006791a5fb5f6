//! End-to-end integration tests across all workspace crates: synthetic
//! data → mining → recommender construction → evaluation.

use profit_mining::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset_i(txns: usize, seed: u64) -> TransactionSet {
    DatasetConfig::dataset_i()
        .with_transactions(txns)
        .with_items(150)
        .generate(&mut StdRng::seed_from_u64(seed))
}

fn fit(data: &TransactionSet, moa: MoaMode, mode: ProfitMode) -> RuleModel {
    ProfitMiner::new(MinerConfig {
        min_support: Support::fraction(0.02),
        max_body_len: 3,
        moa,
        ..MinerConfig::default()
    })
    .with_cut(CutConfig {
        profit_mode: mode,
        ..CutConfig::default()
    })
    .fit(data)
}

#[test]
fn full_pipeline_produces_working_recommender() {
    let data = dataset_i(1200, 1);
    let model = fit(&data, MoaMode::Enabled, ProfitMode::Profit);
    assert!(!model.rules().is_empty());
    assert!(model.rules().last().unwrap().is_default);

    // Every customer gets a target-item recommendation; explanations
    // render for every rule.
    for t in data.transactions().iter().take(100) {
        let rec = model.recommend(t.non_target_sales());
        assert!(data.catalog().item(rec.item).is_target);
        let text = model.explain(rec.rule_index.unwrap());
        assert!(text.contains("→"));
    }
}

#[test]
fn evaluation_metrics_are_consistent() {
    let data = dataset_i(1500, 2);
    let folds = Folds::new(data.len(), 5, 99);
    let (train_idx, valid_idx) = folds.split(0);
    let train = data.subset(&train_idx);
    let valid = data.subset(&valid_idx);

    let model = fit(&train, MoaMode::Enabled, ProfitMode::Profit);
    let matcher = Matcher::new(&model);
    let out = evaluate(&matcher, &valid, &EvalOptions::default());

    assert_eq!(out.n, valid.len());
    assert!(out.hits <= out.n);
    // Saving MOA with uniform per-item costs: gain ∈ [0, 1].
    assert!(
        out.gain() >= 0.0 && out.gain() <= 1.0 + 1e-12,
        "{}",
        out.gain()
    );
    // Range buckets partition the validation set.
    let bucket_total: usize = out.range_hits.iter().map(|(_, t)| t).sum();
    assert_eq!(bucket_total, out.n);
    // Generated profit is bounded by recorded profit under saving MOA.
    assert!(out.generated_profit <= out.recorded_profit + 1e-9);
}

#[test]
fn prof_moa_beats_baselines_on_profit_structured_data() {
    // A dataset with real price structure: PROF+MOA must dominate the
    // profit-blind CONF−MOA and MPI on gain (the paper's headline claim).
    let data = dataset_i(4000, 3);
    let folds = Folds::new(data.len(), 4, 7);
    let (train_idx, valid_idx) = folds.split(0);
    let train = data.subset(&train_idx);
    let valid = data.subset(&valid_idx);
    let opts = EvalOptions::default();

    let prof_moa = fit(&train, MoaMode::Enabled, ProfitMode::Profit);
    let conf_nomoa = fit(&train, MoaMode::Disabled, ProfitMode::Confidence);
    let mpi = MostProfitableItem::fit(&train);

    let g_prof = evaluate(&Matcher::new(&prof_moa), &valid, &opts).gain();
    let g_conf = evaluate(&Matcher::new(&conf_nomoa), &valid, &opts).gain();
    let g_mpi = evaluate(&mpi, &valid, &opts).gain();

    assert!(
        g_prof > g_conf,
        "PROF+MOA ({g_prof:.3}) must beat CONF-MOA ({g_conf:.3})"
    );
    assert!(
        g_prof > g_mpi,
        "PROF+MOA ({g_prof:.3}) must beat MPI ({g_mpi:.3})"
    );
}

#[test]
fn moa_improves_the_same_model() {
    let data = dataset_i(4000, 4);
    let folds = Folds::new(data.len(), 4, 11);
    let (train_idx, valid_idx) = folds.split(0);
    let train = data.subset(&train_idx);
    let valid = data.subset(&valid_idx);
    let opts = EvalOptions::default();

    let with = fit(&train, MoaMode::Enabled, ProfitMode::Profit);
    let without = fit(&train, MoaMode::Disabled, ProfitMode::Profit);
    let g_with = evaluate(&Matcher::new(&with), &valid, &opts).gain();
    let g_without = evaluate(&Matcher::new(&without), &valid, &opts).gain();
    assert!(
        g_with > g_without,
        "+MOA ({g_with:.3}) must beat -MOA ({g_without:.3})"
    );
}

#[test]
fn pruning_never_explodes_rule_count() {
    let data = dataset_i(1500, 5);
    let mined = RuleMiner::new(MinerConfig {
        min_support: Support::fraction(0.02),
        max_body_len: 3,
        ..MinerConfig::default()
    })
    .mine(&data);
    let pruned = RuleModel::build(&mined, &CutConfig::default());
    let unpruned = RuleModel::build(
        &mined,
        &CutConfig {
            prune: false,
            ..CutConfig::default()
        },
    );
    assert!(pruned.rules().len() <= unpruned.rules().len());
    // Dominance + cut shrink dramatically relative to the mined set.
    assert!(pruned.rules().len() <= mined.rules().len() + 1);
    // Both still recommend identically-valid items.
    let customer = data.transactions()[0].non_target_sales();
    assert!(
        data.catalog()
            .item(pruned.recommend(customer).item)
            .is_target
    );
    assert!(
        data.catalog()
            .item(unpruned.recommend(customer).item)
            .is_target
    );
}

#[test]
fn deterministic_end_to_end() {
    let a = fit(&dataset_i(800, 6), MoaMode::Enabled, ProfitMode::Profit);
    let b = fit(&dataset_i(800, 6), MoaMode::Enabled, ProfitMode::Profit);
    assert_eq!(a.rules().len(), b.rules().len());
    for (ra, rb) in a.rules().iter().zip(b.rules()) {
        assert_eq!(ra, rb);
    }
}

#[test]
fn dataset_ii_pipeline_works() {
    let data = DatasetConfig::dataset_ii()
        .with_transactions(1500)
        .with_items(150)
        .generate(&mut StdRng::seed_from_u64(8));
    // 40 recommendable pairs.
    let pairs: usize = data
        .catalog()
        .target_items()
        .iter()
        .map(|&t| data.catalog().item(t).codes.len())
        .sum();
    assert_eq!(pairs, 40);
    let model = fit(&data, MoaMode::Enabled, ProfitMode::Profit);
    let rec = model.recommend(data.transactions()[0].non_target_sales());
    assert!(data.catalog().item(rec.item).is_target);
}

#[test]
fn buying_moa_beats_saving_gain_cap() {
    // Under buying MOA the gain can exceed the saving cap because the
    // customer keeps spending; with non-negative margins it is ≥ saving.
    let data = dataset_i(1200, 9);
    let folds = Folds::new(data.len(), 4, 5);
    let (train_idx, valid_idx) = folds.split(0);
    let train = data.subset(&train_idx);
    let valid = data.subset(&valid_idx);
    let model = fit(&train, MoaMode::Enabled, ProfitMode::Profit);
    let matcher = Matcher::new(&model);
    let saving = evaluate(&matcher, &valid, &EvalOptions::default()).gain();
    let buying = evaluate(
        &matcher,
        &valid,
        &EvalOptions {
            quantity: QuantityModel::Buying,
            ..EvalOptions::default()
        },
    )
    .gain();
    assert!(
        buying >= saving - 1e-12,
        "buying {buying} vs saving {saving}"
    );
}
