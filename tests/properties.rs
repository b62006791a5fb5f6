//! Property-based tests (proptest) over the core invariants.

use profit_mining::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random catalog of `n_nt` non-target and `n_t` target items,
/// each with 1–4 unit-packing codes at positive prices/margins.
fn arb_catalog(n_nt: usize, n_t: usize) -> impl Strategy<Value = Catalog> {
    let code = (1i64..200, 0i64..100).prop_map(|(margin, cost)| {
        PromotionCode::unit(Money::from_cents(cost + margin), Money::from_cents(cost))
    });
    let codes = proptest::collection::vec(code, 1..4);
    proptest::collection::vec(codes, n_nt + n_t).prop_map(move |all| {
        let mut cat = Catalog::new();
        for (i, codes) in all.into_iter().enumerate() {
            cat.push(ItemDef {
                name: format!("i{i}"),
                codes,
                is_target: i >= n_nt,
            });
        }
        cat
    })
}

/// Strategy: transactions over the catalog layout above.
fn arb_transactions(
    n_nt: usize,
    n_t: usize,
    max_txns: usize,
) -> impl Strategy<Value = (Catalog, Vec<Transaction>)> {
    arb_catalog(n_nt, n_t).prop_flat_map(move |cat| {
        let cat2 = cat.clone();
        let txn = (
            proptest::collection::vec(0..n_nt, 1..4),
            0..n_t,
            1u32..4,
            proptest::num::u64::ANY,
        )
            .prop_map(move |(items, t, qty, salt)| {
                let nts: Vec<Sale> = items
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| {
                        let n_codes = cat2.item(ItemId(i as u32)).codes.len();
                        let code = ((salt >> (k * 7)) as usize) % n_codes;
                        Sale::new(ItemId(i as u32), CodeId(code as u16), 1)
                    })
                    .collect();
                let titem = ItemId((n_nt + t) as u32);
                let n_codes = cat2.item(titem).codes.len();
                let code = ((salt >> 32) as usize) % n_codes;
                Transaction::new(nts, Sale::new(titem, CodeId(code as u16), qty))
            });
        (Just(cat), proptest::collection::vec(txn, 4..max_txns))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Favorability is a strict partial order over random codes.
    #[test]
    fn favorability_is_strict_partial_order(
        codes in proptest::collection::vec(
            (1i64..500, 1u32..6).prop_map(|(p, q)| PromotionCode::packed(
                Money::from_cents(p), Money::ZERO, q)),
            2..8)
    ) {
        for a in &codes {
            prop_assert!(!a.more_favorable_than(a));
            for b in &codes {
                if a.more_favorable_than(b) {
                    prop_assert!(!b.more_favorable_than(a));
                    prop_assert!(a.favorable_or_equal(b));
                }
                for c in &codes {
                    if a.more_favorable_than(b) && b.more_favorable_than(c) {
                        prop_assert!(a.more_favorable_than(c));
                    }
                }
            }
        }
    }

    /// Mined rule statistics equal brute-force recomputation from raw
    /// transactions on random data.
    #[test]
    fn miner_matches_brute_force((cat, txns) in arb_transactions(4, 2, 14)) {
        let n = txns.len();
        let data = TransactionSet::new(cat, Hierarchy::flat(6), txns).unwrap();
        let mined = RuleMiner::new(MinerConfig {
            min_support: Support::count(1),
            max_body_len: 2,
            ..MinerConfig::default()
        })
        .mine(&data);
        let moa = Moa::new(data.catalog_arc(), data.hierarchy_arc(), true);
        for rule in mined.rules() {
            // Re-derive the body in GenSale space and recount by matching
            // raw transactions through the Moa predicates.
            let body: Vec<GenSale> =
                rule.body.iter().map(|&g| mined.interner().resolve(g)).collect();
            let (item, code) = mined.head(rule.head);
            let mut body_count = 0u32;
            let mut hits = 0u32;
            let mut profit = 0.0f64;
            for t in data.transactions() {
                if moa.body_matches(&body, t.non_target_sales()) {
                    body_count += 1;
                    if let Some(p) =
                        moa.head_profit(item, code, t.target_sale(), QuantityModel::Saving)
                    {
                        hits += 1;
                        profit += p;
                    }
                }
            }
            prop_assert_eq!(rule.body_count, body_count);
            prop_assert_eq!(rule.hits, hits);
            prop_assert!((rule.profit - profit).abs() < 1e-9);
            prop_assert!(rule.hits >= 1);
        }
        prop_assert_eq!(mined.n_transactions(), n);
    }

    /// The trained model's coverage always partitions the training set,
    /// and the recommender always answers with a valid target pair.
    #[test]
    fn model_invariants((cat, txns) in arb_transactions(5, 2, 20)) {
        let n = txns.len();
        let data = TransactionSet::new(cat, Hierarchy::flat(7), txns).unwrap();
        let model = ProfitMiner::new(MinerConfig {
            min_support: Support::count(1),
            max_body_len: 2,
            ..MinerConfig::default()
        })
        .fit(&data);
        let total: u32 = model.rules().iter().map(|r| r.coverage).sum();
        prop_assert_eq!(total as usize, n);
        prop_assert!(model.rules().last().unwrap().is_default);
        for t in data.transactions() {
            let rec = model.recommend(t.non_target_sales());
            prop_assert!(data.catalog().item(rec.item).is_target);
            prop_assert!(rec.code.index() < data.catalog().item(rec.item).codes.len());
        }
    }

    /// Prof_re descends along the model's rank order, and the Matcher
    /// agrees with the linear scan on every training customer.
    #[test]
    fn rank_and_matcher_invariants((cat, txns) in arb_transactions(4, 2, 16)) {
        let data = TransactionSet::new(cat, Hierarchy::flat(6), txns).unwrap();
        let model = ProfitMiner::new(MinerConfig {
            min_support: Support::count(1),
            max_body_len: 2,
            ..MinerConfig::default()
        })
        .fit(&data);
        for w in model.rules().windows(2) {
            prop_assert!(w[0].prof_re >= w[1].prof_re - 1e-9);
        }
        let matcher = Matcher::new(&model);
        for t in data.transactions() {
            prop_assert_eq!(
                matcher.rule_for(t.non_target_sales()),
                model.recommendation_rule(t.non_target_sales())
            );
        }
    }

    /// Gain under saving MOA (per-item constant costs are NOT guaranteed
    /// here, so the bound is hits-profit ≤ recorded only per accepted
    /// code; we check gain is finite and non-negative, and that the
    /// evaluation counts are consistent).
    #[test]
    fn evaluation_counts_consistent((cat, txns) in arb_transactions(4, 2, 20)) {
        let data = TransactionSet::new(cat, Hierarchy::flat(6), txns).unwrap();
        let model = ProfitMiner::new(MinerConfig {
            min_support: Support::count(1),
            max_body_len: 2,
            ..MinerConfig::default()
        })
        .fit(&data);
        let matcher = Matcher::new(&model);
        let out = evaluate(&matcher, &data, &EvalOptions::default());
        prop_assert_eq!(out.n, data.len());
        prop_assert!(out.hits <= out.n);
        prop_assert!(out.gain().is_finite());
        prop_assert!(out.generated_profit >= 0.0 || out.recorded_profit <= 0.0);
        let bucket_total: usize = out.range_hits.iter().map(|(_, t)| t).sum();
        prop_assert_eq!(bucket_total, out.n);
        let bucket_hits: usize = out.range_hits.iter().map(|(h, _)| h).sum();
        prop_assert_eq!(bucket_hits, out.hits);
    }

    /// Folds partition any n exactly.
    #[test]
    fn folds_partition(n in 10usize..200, k in 2usize..6, seed in 0u64..1000) {
        let k = k.min(n);
        let folds = Folds::new(n, k, seed);
        let mut seen = vec![false; n];
        for f in 0..k {
            let (train, valid) = folds.split(f);
            prop_assert_eq!(train.len() + valid.len(), n);
            for v in valid {
                prop_assert!(!seen[v]);
                seen[v] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}

/// Determinism of the full random pipeline under a fixed seed (not a
/// proptest: exercises the datagen → model path on a fixed size).
#[test]
fn seeded_pipeline_is_reproducible() {
    let gen = |seed: u64| {
        DatasetConfig::dataset_ii()
            .with_transactions(400)
            .with_items(100)
            .generate(&mut StdRng::seed_from_u64(seed))
    };
    let a = gen(5);
    let b = gen(5);
    assert_eq!(a.transactions(), b.transactions());
    let c = gen(6);
    assert_ne!(a.transactions(), c.transactions());
}
