//! The incremental-vs-batch differential axis: a model grown by
//! streaming delta refits must equal a cold batch fit on the
//! concatenated stream — not approximately, but **byte-identically**
//! down to the serialized JSON, so every f64 bit.
//!
//! `differential_oracle.rs` proves the batch miner equals the
//! paper-literal `pm-oracle`; this suite closes the loop by proving the
//! incremental miner equals the batch miner, rule-for-rule and
//! byte-for-byte, at the same thread counts and across many seeded split
//! points — including no-op deltas and single-transaction trickles.

mod common;

use common::THREADS;
use pm_datagen::{DatasetConfig, HierarchyConfig};
use pm_rules::{IncrementalMiner, MinerConfig, MinerSnapshot, MoaMode, RuleMiner, Support};
use pm_txn::{QuantityModel, TargetFilter, TransactionSet};
use profit_core::{CutConfig, IncrementalProfitMiner, ProfitMiner, RuleModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn prefix(full: &TransactionSet, n: usize) -> TransactionSet {
    full.subset(&(0..n).collect::<Vec<usize>>())
}

fn model_bytes(model: &RuleModel) -> String {
    serde_json::to_string(&model.save()).unwrap()
}

/// Fit `full` cold, then again as head + deltas through the incremental
/// pipeline, asserting byte-identical serialized models after every
/// update along the way (each prefix is itself a complete stream state).
fn check_stream(
    full: &TransactionSet,
    cuts: &[usize],
    config: MinerConfig,
    cut_config: CutConfig,
    threads: usize,
) {
    let ctx = format!(
        "threads={threads} cuts={cuts:?} moa={:?} qm={:?} mode={:?}",
        config.moa, config.quantity, cut_config.profit_mode
    );
    let pipeline = || {
        ProfitMiner::new(config)
            .with_cut(cut_config)
            .with_threads(threads)
    };
    check_pipeline_stream(full, cuts, None, pipeline, &ctx);
}

/// [`check_stream`] for any pipeline. With `restore_at`, the miner
/// fitted up to the cut before it goes through a snapshot, JSON and
/// [`IncrementalProfitMiner::restore`] first, and the restored miner
/// streams on.
fn check_pipeline_stream(
    full: &TransactionSet,
    cuts: &[usize],
    restore_at: Option<usize>,
    pipeline: impl Fn() -> ProfitMiner,
    ctx: &str,
) {
    let mut inc = pipeline().into_incremental();
    inc.fit(&prefix(full, cuts[0]));
    let mut fitted = cuts[0];
    for &cut in cuts {
        if restore_at == Some(cut) {
            let json = serde_json::to_string(&inc.snapshot().unwrap()).unwrap();
            let snap: MinerSnapshot = serde_json::from_str(&json).unwrap();
            inc = IncrementalProfitMiner::restore(pipeline(), &prefix(full, fitted), &snap)
                .unwrap_or_else(|e| panic!("[{ctx}] restore at {fitted} failed: {e}"));
        }
        // (The first iteration is a no-op update over the fitted head —
        // the smallest delta there is.)
        let model = inc.update(&prefix(full, cut));
        assert_eq!(
            model_bytes(&pipeline().fit(&prefix(full, cut))),
            model_bytes(&model),
            "[{ctx}] incremental model diverged from the batch fit at {cut} transactions"
        );
        fitted = cut;
    }
}

/// Dataset I, sequential and parallel, two delta schedules.
#[test]
fn incremental_models_match_batch_fits_across_the_matrix() {
    let full: TransactionSet = DatasetConfig::dataset_i()
        .with_transactions(360)
        .with_items(80)
        .generate(&mut StdRng::seed_from_u64(0x1AC5));
    let config = MinerConfig {
        min_support: Support::Fraction(0.03),
        max_body_len: 2,
        ..MinerConfig::default()
    };
    for threads in THREADS {
        // Two coarse deltas, then a single-transaction trickle.
        check_stream(
            &full,
            &[180, 270, 360],
            config,
            CutConfig::default(),
            threads,
        );
        check_stream(
            &full,
            &[357, 358, 359, 360],
            config,
            CutConfig::default(),
            threads,
        );
    }
}

/// Quantities other than 1 (see [`common::redraw_quantities`]), and one
/// stream where every transaction has its own target quantity, across
/// the full `MoaMode × QuantityModel × {1,4} threads × ProfitMode`
/// matrix.
#[test]
fn incremental_models_match_batch_with_varied_quantities() {
    let base: TransactionSet = DatasetConfig::dataset_i()
        .with_transactions(200)
        .with_items(60)
        .generate(&mut StdRng::seed_from_u64(0x1AC6));
    let streams = [
        common::redraw_quantities(&base, 0x0A7),
        common::own_target_quantities(&base),
    ];
    for full in &streams {
        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            for quantity in [QuantityModel::Saving, QuantityModel::Buying] {
                let config = MinerConfig {
                    min_support: Support::Fraction(0.03),
                    max_body_len: 2,
                    moa,
                    quantity,
                    ..MinerConfig::default()
                };
                for threads in THREADS {
                    for (profit_mode, _) in common::MODES {
                        let cut_config = CutConfig {
                            profit_mode,
                            ..CutConfig::default()
                        };
                        check_stream(full, &[120, 199, 200], config, cut_config, threads);
                    }
                }
            }
        }
    }
}

/// Dataset II (deeper hierarchy ⇒ MOA generalized sales in every body)
/// at body length 3, where the delta touches far more of the DFS tree.
#[test]
fn incremental_models_match_batch_on_dataset_ii_with_deep_bodies() {
    let full: TransactionSet = DatasetConfig::dataset_ii()
        .with_transactions(240)
        .with_items(60)
        .generate(&mut StdRng::seed_from_u64(47));
    let config = MinerConfig {
        min_support: Support::Fraction(0.04),
        max_body_len: 3,
        ..MinerConfig::default()
    };
    check_stream(&full, &[120, 240], config, CutConfig::default(), 1);
    check_stream(&full, &[120, 180, 240], config, CutConfig::default(), 4);
}

/// Bodies of up to 3 and 4 sales, where a small delta leaves most of a
/// walked anchor's subtrees clean: the refit moves their rules over
/// from the previous walk instead of walking them. At 1 and 4 threads,
/// with no filter, a target, per-item floors over a scalar rule-profit
/// floor, and a confidence floor. The support fraction's count rises
/// from 6 to 12 along the stream, single transactions trickle in, and
/// halfway a snapshot goes through JSON and a restored miner streams on.
#[test]
fn incremental_models_match_batch_with_clean_subtrees_moved() {
    let full: TransactionSet = DatasetConfig::dataset_ii()
        .with_transactions(240)
        .with_items(60)
        .generate(&mut StdRng::seed_from_u64(0xC1EA));
    let target = full.catalog().target_items()[0];
    let cuts = [120, 121, 122, 150, 151, 152, 190, 240];
    for max_body_len in [3, 4] {
        let config = MinerConfig {
            min_support: Support::Fraction(0.05),
            max_body_len,
            ..MinerConfig::default()
        };
        let variants = [
            ("no filter", ProfitMiner::new(config)),
            (
                "target",
                ProfitMiner::new(config).with_target(Some(TargetFilter::Items(vec![target]))),
            ),
            (
                "item floors",
                ProfitMiner::new(MinerConfig {
                    min_rule_profit: Some(2.0),
                    ..config
                })
                .with_item_floors(vec![(target, 6.0)]),
            ),
            (
                "confidence",
                ProfitMiner::new(MinerConfig {
                    min_confidence: Some(0.3),
                    ..config
                }),
            ),
        ];
        for threads in THREADS {
            for (name, pipeline) in &variants {
                let ctx = format!("{name} max_body={max_body_len} threads={threads}");
                let pipeline = || pipeline.clone().with_threads(threads);
                check_pipeline_stream(&full, &cuts, Some(151), pipeline, &ctx);
            }
        }
    }
}

/// The growing-catalog axis: a mid-stream [`pm_txn::CatalogDelta`]
/// introduces a new concept, a new non-target item hanging under it,
/// and a new target item; subsequent deltas sell all of them. After
/// every update the incremental model must equal a cold batch fit on
/// the grown concatenated stream byte-for-byte — catalog growth is
/// append-only precisely so the warm DFS caches stay valid.
#[test]
fn growing_catalog_deltas_match_cold_fits_on_the_grown_stream() {
    use pm_txn::{
        CatalogDelta, CodeId, ConceptId, ItemDef, ItemId, Money, NewConcept, NewItem,
        PromotionCode, Sale, Transaction,
    };
    let full: TransactionSet = DatasetConfig::dataset_i()
        .with_transactions(240)
        .with_items(60)
        .generate(&mut StdRng::seed_from_u64(0xCA7A));
    let head = prefix(&full, 160);
    let base_items = full.catalog().len() as u32;
    let base_concepts = full.hierarchy().n_concepts() as u32;
    let delta = CatalogDelta {
        concepts: vec![NewConcept {
            name: "grown-line".into(),
            parents: vec![],
        }],
        items: vec![
            NewItem {
                def: ItemDef {
                    name: "grown-trigger".into(),
                    codes: vec![PromotionCode::unit(
                        Money::from_cents(150),
                        Money::from_cents(90),
                    )],
                    is_target: false,
                },
                // Hangs under the concept this same delta introduces.
                parents: vec![ConceptId(base_concepts)],
            },
            NewItem {
                def: ItemDef {
                    name: "grown-target".into(),
                    codes: vec![PromotionCode::unit(
                        Money::from_cents(800),
                        Money::from_cents(450),
                    )],
                    is_target: true,
                },
                parents: vec![],
            },
        ],
    };
    let (nt_new, tg_new) = (ItemId(base_items), ItemId(base_items + 1));
    // Two delta batches over the remaining stream: the first carries the
    // catalog delta and starts selling the new items, the second sells
    // them again with no further growth.
    let rewrite = |txns: &[Transaction], salt: usize| -> Vec<Transaction> {
        txns.iter()
            .enumerate()
            .map(|(i, t)| {
                let mut sales = t.non_target_sales().to_vec();
                if (i + salt).is_multiple_of(2) {
                    sales.push(Sale::new(nt_new, CodeId(0), 1));
                }
                let target = if (i + salt).is_multiple_of(3) {
                    Sale::new(tg_new, CodeId(0), 1)
                } else {
                    *t.target_sale()
                };
                Transaction::new(sales, target)
            })
            .collect()
    };
    let batch1 = rewrite(&full.transactions()[160..200], 0);
    let batch2 = rewrite(&full.transactions()[200..240], 1);

    let config = MinerConfig {
        min_support: Support::Fraction(0.03),
        max_body_len: 2,
        ..MinerConfig::default()
    };
    for threads in THREADS {
        let pipeline = || {
            ProfitMiner::new(config)
                .with_cut(CutConfig::default())
                .with_threads(threads)
        };
        let mut inc = pipeline().into_incremental();
        inc.fit(&head);
        let mut grown = head.clone();
        grown.apply_stream_record(Some(&delta), &batch1).unwrap();
        assert_eq!(
            model_bytes(&pipeline().fit(&grown)),
            model_bytes(&inc.update(&grown)),
            "[threads={threads}] growth delta diverged from the cold fit on the grown stream"
        );
        grown.apply_stream_record(None, &batch2).unwrap();
        assert_eq!(
            model_bytes(&pipeline().fit(&grown)),
            model_bytes(&inc.update(&grown)),
            "[threads={threads}] post-growth delta diverged from the cold fit"
        );
    }
}

/// Many tiny seeded streams at the rule level: the incremental miner's
/// final rule set must equal the batch miner's rule-for-rule — same
/// order, same `gen_index`, same counts, bit-identical profits. The
/// batch side of this equality is what `differential_oracle.rs` proves
/// against the brute-force oracle, so transitively the streamed rules
/// are oracle-exact too.
#[test]
fn tiny_seeded_streams_mine_oracle_exact_rules() {
    for seed in 0..24u64 {
        let n_txns = [8usize, 12, 16, 20, 24, 30][(seed % 6) as usize];
        let n_items = [3usize, 4, 5, 6, 8][(seed % 5) as usize];
        let n_prices = [2usize, 3, 4][(seed % 3) as usize];
        let mut cfg = DatasetConfig::tiny(n_txns, n_items, n_prices);
        if seed % 3 == 2 {
            cfg = cfg.with_hierarchy(HierarchyConfig {
                branching: 2,
                levels: 1,
            });
        }
        let full: TransactionSet = cfg.generate(&mut StdRng::seed_from_u64(0x1DC0_0000 ^ seed));
        let config = MinerConfig {
            min_support: Support::Count(1 + (seed % 3) as u32),
            max_body_len: 2,
            ..MinerConfig::default()
        };
        let batch = RuleMiner::new(config).mine(&full);
        let mut inc = IncrementalMiner::new(RuleMiner::new(config));
        let head = 1 + n_txns / 2;
        inc.fit(&prefix(&full, head));
        // Trickle in one transaction, then the rest.
        inc.update(&prefix(&full, head + 1));
        let mined = inc.update(&full);
        assert_eq!(
            batch.rules().len(),
            mined.rules().len(),
            "seed {seed}: rule count diverged"
        );
        for (i, (b, m)) in batch.rules().iter().zip(mined.rules().iter()).enumerate() {
            assert!(
                b == m && b.profit.to_bits() == m.profit.to_bits(),
                "seed {seed} rule {i}: batch {b:?} vs incremental {m:?}"
            );
        }
    }
}
