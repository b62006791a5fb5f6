//! The gain / hit-rate metrics of §5.1 and §5.3.
//!
//! `gain = Σ_t p(r, t) / Σ_t recorded-profit(t)` over the validation
//! transactions, where `r` is the recommendation rule the recommender
//! selects for `t`'s non-target sales and `p(r, t)` is the generated
//! profit of §3.1 (saving or buying MOA, optionally with the `(x, y)`
//! quantity boost of Figure 3(b)).

use crate::behavior::QuantityBoost;
use pm_txn::{CodeId, ItemId, Moa, QuantityModel, TransactionSet};
use profit_core::Recommender;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The profit ranges of Figures 3(d)/4(d), in [`EvalOutcome::range_hits`]
/// order: thirds of the largest recorded target profit in the validation
/// set.
pub(crate) const PROFIT_RANGES: [&str; 3] = ["Low", "Medium", "High"];

/// Evaluation settings.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Quantity estimation for accepted recommendations (saving MOA by
    /// default, as in the paper).
    pub quantity: QuantityModel,
    /// Optional quantity-boost behavior model.
    pub boost: Option<QuantityBoost>,
    /// Seed for the boost's randomness.
    pub seed: u64,
    /// Accept recommendations at any reflexively-favorable code (`⪯`) —
    /// the paper's behavioral assumption. `false` requires an exact code
    /// match (ablation).
    pub exact_match: bool,
}

/// Evaluation outcome over one validation set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Validation transactions.
    pub n: usize,
    /// Accepted recommendations.
    pub hits: usize,
    /// Total generated profit (dollars).
    pub generated_profit: f64,
    /// Total recorded profit (the gain denominator).
    pub recorded_profit: f64,
    /// `(hits, transactions)` per profit range: Low, Medium, High thirds
    /// of the largest recorded target profit.
    pub range_hits: [(usize, usize); 3],
}

impl EvalOutcome {
    /// The gain `Σ p(r,t) / Σ recorded`.
    pub fn gain(&self) -> f64 {
        if self.recorded_profit == 0.0 {
            0.0
        } else {
            self.generated_profit / self.recorded_profit
        }
    }

    /// The hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.hits as f64 / self.n as f64
        }
    }
}

/// The price rank of `code` among `item`'s codes, ordering by ascending
/// price (ties by pack quantity descending, then code id). The paper's
/// "step" `q − p` between a recorded and a recommended price is the
/// difference of these ranks.
pub fn price_rank(moa: &Moa, item: ItemId, code: CodeId) -> u32 {
    let codes = &moa.catalog().item(item).codes;
    let me = &codes[code.index()];
    let mut rank = 0u32;
    for (k, other) in codes.iter().enumerate() {
        let before = (other.price, std::cmp::Reverse(other.pack_qty), k)
            < (me.price, std::cmp::Reverse(me.pack_qty), code.index());
        if before {
            rank += 1;
        }
    }
    rank
}

/// Evaluate `recommender` on `validation`.
pub fn evaluate(
    recommender: &dyn Recommender,
    validation: &TransactionSet,
    opts: &EvalOptions,
) -> EvalOutcome {
    // MOA acceptance is a property of customers, not of the recommender
    // under evaluation.
    let moa = Moa::new(
        validation.catalog_arc(),
        validation.hierarchy_arc(),
        !opts.exact_match,
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Profit-range buckets: thirds of the maximum recorded single-
    // transaction profit (§5.3, Figure 3(d)).
    let recorded: Vec<f64> = validation
        .transactions()
        .iter()
        .map(|t| t.recorded_target_profit(validation.catalog()).as_dollars())
        .collect();
    let max_profit = recorded.iter().cloned().fold(0.0f64, f64::max);
    let bucket = |p: f64| -> usize {
        if max_profit <= 0.0 {
            return 0;
        }
        let frac = p / max_profit;
        if frac < 1.0 / 3.0 {
            0
        } else if frac < 2.0 / 3.0 {
            1
        } else {
            2
        }
    };

    let mut out = EvalOutcome {
        n: validation.len(),
        hits: 0,
        generated_profit: 0.0,
        recorded_profit: recorded.iter().sum(),
        range_hits: [(0, 0); 3],
    };

    for (tid, t) in validation.transactions().iter().enumerate() {
        let rec = recommender.recommend(t.non_target_sales());
        let target = t.target_sale();
        let b = bucket(recorded[tid]);
        out.range_hits[b].1 += 1;
        let Some(mut profit) = moa.head_profit(rec.item, rec.code, target, opts.quantity) else {
            continue;
        };
        out.hits += 1;
        out.range_hits[b].0 += 1;
        if let Some(boost) = &opts.boost {
            let q = price_rank(&moa, target.item, target.code);
            let p = price_rank(&moa, rec.item, rec.code);
            if q > p {
                profit *= boost.multiplier(q - p, &mut rng) as f64;
            }
        }
        out.generated_profit += profit;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_txn::Sale;
    use pm_txn::{Catalog, Hierarchy, ItemDef, Money, PromotionCode, Transaction};
    use profit_core::Recommendation;

    /// A fixed recommender for testing.
    struct Fixed(ItemId, CodeId, Catalog);
    impl Recommender for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn recommend(&self, _c: &[Sale]) -> Recommendation {
            Recommendation {
                item: self.0,
                code: self.1,
                promotion: *self.2.code(self.0, self.1),
                expected_profit: 0.0,
                confidence: 0.0,
                rule_index: None,
            }
        }
    }

    /// Target with 4 prices like the synthetic grid: cost $10, prices
    /// $11, $12, $13, $14 (code 0 cheapest).
    fn dataset(target_codes: &[u16]) -> TransactionSet {
        let mut cat = Catalog::new();
        cat.push(ItemDef {
            name: "nt".into(),
            codes: vec![PromotionCode::unit(
                Money::from_cents(100),
                Money::from_cents(50),
            )],
            is_target: false,
        });
        cat.push(ItemDef {
            name: "t".into(),
            codes: (1..=4)
                .map(|j| {
                    PromotionCode::unit(Money::from_cents(1000 + j * 100), Money::from_cents(1000))
                })
                .collect(),
            is_target: true,
        });
        let h = Hierarchy::flat(2);
        let txns = target_codes
            .iter()
            .map(|&c| {
                Transaction::new(
                    vec![Sale::new(ItemId(0), CodeId(0), 1)],
                    Sale::new(ItemId(1), CodeId(c), 1),
                )
            })
            .collect();
        TransactionSet::new(cat, h, txns).unwrap()
    }

    #[test]
    fn gain_of_recorded_price_is_one() {
        // Recommend exactly what everyone bought: full gain.
        let ds = dataset(&[3, 3, 3]);
        let rec = Fixed(ItemId(1), CodeId(3), ds.catalog().clone());
        let out = evaluate(&rec, &ds, &EvalOptions::default());
        assert_eq!(out.hits, 3);
        assert!((out.gain() - 1.0).abs() < 1e-12);
        assert_eq!(out.hit_rate(), 1.0);
    }

    #[test]
    fn cheaper_recommendation_hits_with_lower_gain() {
        // Everyone recorded at price rank 3 ($14, $4 margin); recommending
        // rank 0 ($11, $1 margin) hits via MOA with gain 0.25.
        let ds = dataset(&[3, 3, 3, 3]);
        let rec = Fixed(ItemId(1), CodeId(0), ds.catalog().clone());
        let out = evaluate(&rec, &ds, &EvalOptions::default());
        assert_eq!(out.hits, 4);
        assert!((out.gain() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn expensive_recommendation_misses() {
        let ds = dataset(&[0, 0]);
        let rec = Fixed(ItemId(1), CodeId(3), ds.catalog().clone());
        let out = evaluate(&rec, &ds, &EvalOptions::default());
        assert_eq!(out.hits, 0);
        assert_eq!(out.gain(), 0.0);
    }

    #[test]
    fn exact_match_mode_rejects_favorable_codes() {
        let ds = dataset(&[3, 3]);
        let rec = Fixed(ItemId(1), CodeId(0), ds.catalog().clone());
        let out = evaluate(
            &rec,
            &ds,
            &EvalOptions {
                exact_match: true,
                ..EvalOptions::default()
            },
        );
        assert_eq!(out.hits, 0);
    }

    #[test]
    fn saving_gain_never_exceeds_one() {
        // Mixed records; any fixed recommendation obeys gain ≤ 1 under
        // saving MOA without boost (equal costs across codes).
        let ds = dataset(&[0, 1, 2, 3, 1, 2]);
        for c in 0..4u16 {
            let rec = Fixed(ItemId(1), CodeId(c), ds.catalog().clone());
            let out = evaluate(&rec, &ds, &EvalOptions::default());
            assert!(out.gain() <= 1.0 + 1e-12, "code {c}: {}", out.gain());
        }
    }

    #[test]
    fn boost_raises_gain_above_one() {
        // Recorded at the top price; recommend 3 steps lower with a
        // certain ×10 boost: profit = $1 × 10 vs recorded $4 ⇒ gain 2.5.
        let ds = dataset(&[3, 3, 3]);
        let rec = Fixed(ItemId(1), CodeId(0), ds.catalog().clone());
        let out = evaluate(
            &rec,
            &ds,
            &EvalOptions {
                boost: Some(QuantityBoost::setting(10, 1.0)),
                ..EvalOptions::default()
            },
        );
        assert!((out.gain() - 2.5).abs() < 1e-12, "{}", out.gain());
    }

    #[test]
    fn buying_quantity_model() {
        // Recorded rank 3 ($14); recommend rank 0 ($11): buying MOA keeps
        // spending $14 ⇒ Q = 14/11, profit = 1 × 14/11.
        let ds = dataset(&[3]);
        let rec = Fixed(ItemId(1), CodeId(0), ds.catalog().clone());
        let out = evaluate(
            &rec,
            &ds,
            &EvalOptions {
                quantity: QuantityModel::Buying,
                ..EvalOptions::default()
            },
        );
        assert!((out.generated_profit - 14.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn price_ranks() {
        let ds = dataset(&[0]);
        let moa = Moa::new(ds.catalog_arc(), ds.hierarchy_arc(), true);
        for k in 0..4u16 {
            assert_eq!(price_rank(&moa, ItemId(1), CodeId(k)), k as u32);
        }
    }

    #[test]
    fn range_buckets_follow_recorded_profit() {
        // Margins $1, $2, $3, $4 → max 4; thirds: [0,4/3), [4/3,8/3), rest.
        let ds = dataset(&[0, 1, 2, 3]);
        let rec = Fixed(ItemId(1), CodeId(0), ds.catalog().clone());
        let out = evaluate(&rec, &ds, &EvalOptions::default());
        let totals: Vec<usize> = out.range_hits.iter().map(|&(_, t)| t).collect();
        assert_eq!(totals, vec![1, 1, 2]); // $1 | $2 | $3,$4
                                           // Cheapest recommendation hits everything.
        let hits: Vec<usize> = out.range_hits.iter().map(|&(h, _)| h).collect();
        assert_eq!(hits, vec![1, 1, 2]);
    }

    #[test]
    fn empty_validation_is_safe() {
        let ds = dataset(&[]);
        let rec = Fixed(ItemId(1), CodeId(0), ds.catalog().clone());
        let out = evaluate(&rec, &ds, &EvalOptions::default());
        assert_eq!(out.n, 0);
        assert_eq!(out.gain(), 0.0);
        assert_eq!(out.hit_rate(), 0.0);
    }
}
