//! One-stop dataset configuration: Quest transactions + pricing + target
//! sales + (optional) hierarchy, assembled into a validated
//! [`TransactionSet`].

use crate::hierarchy_gen::HierarchyConfig;
use crate::pricing::PricingConfig;
use crate::quest::QuestConfig;
use crate::targets::TargetSpec;
use pm_stats::Binomial;
use pm_txn::{Catalog, CodeId, Hierarchy, ItemDef, ItemId, Sale, Transaction, TransactionSet};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How sale prices are selected within a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PriceCoupling {
    /// Every transaction has a latent *price-sensitivity* type
    /// `θ ~ U[0,1]`, anchored at its dominant pattern's preferred price
    /// (`θ = (pref + U[0,1]) / m`, uniform overall); each non-target
    /// sale's price index is `Binomial(m−1, θ)` and the target price is
    /// the pattern preference (subject to `target_noise`, which falls
    /// back to `Binomial(m−1, θ)`). The *marginal* price distribution is
    /// exactly uniform — the paper's "randomly selecting one price" — but
    /// prices within a basket correlate with each other and with the
    /// target price, which is the behavior the paper's §1 motivation
    /// (recommending "right prices" to price-insensitive customers)
    /// presupposes and its `⟨item, price⟩`-level rules exploit.
    #[default]
    Sensitivity,
    /// Fully independent uniform price per sale (the paper's literal
    /// sentence; leaves no price signal in baskets — ablation mode).
    Uniform,
}

/// Complete description of a synthetic profit-mining dataset.
///
/// Item layout in the generated catalog: ids `0..n_items` are the Quest
/// non-target items (item `i` has cost `c/(i+1)` — the paper numbers items
/// from 1); ids `n_items..` are the target items of the [`TargetSpec`].
///
/// ## Basket → target coupling
///
/// The paper's recommenders reach ≈95% hit rates over 8–40 recommendable
/// pairs, which is impossible if the target sale is drawn independently
/// of the basket; the paper does not state its coupling mechanism. We
/// couple through the Quest pattern table: every potential maximal
/// itemset carries a *preferred* `(target item, price)` pair sampled from
/// the target distribution (so the marginals stay exactly Zipf/normal ×
/// uniform), and each transaction takes its dominant pattern's preference
/// with probability `1 − target_noise`, otherwise an independent draw.
/// `target_noise = 1.0` reproduces the fully independent regime. See
/// DESIGN.md §5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Transaction structure.
    pub quest: QuestConfig,
    /// Price/cost grid.
    pub pricing: PricingConfig,
    /// Target items and frequencies.
    pub targets: TargetSpec,
    /// Concept hierarchy over non-target items (`None` = flat, the
    /// paper's figure setup).
    pub hierarchy: Option<HierarchyConfig>,
    /// Probability that a transaction's target sale ignores its dominant
    /// pattern's preference and is drawn independently.
    pub target_noise: f64,
    /// Within-basket price correlation model.
    pub price_coupling: PriceCoupling,
}

impl DatasetConfig {
    /// The paper's **Dataset I**: `|T| = 100K`, `|I| = 1000`, two target
    /// items (\$2 / \$10 cost, Zipf 5:1), `m = 4`, `δ = 10%`.
    pub fn dataset_i() -> Self {
        Self {
            quest: QuestConfig::default(),
            pricing: PricingConfig::default(),
            targets: TargetSpec::dataset_i(),
            hierarchy: None,
            target_noise: 0.15,
            price_coupling: PriceCoupling::Sensitivity,
        }
    }

    /// The paper's **Dataset II**: ten target items, `Cost(i) = 10·i`,
    /// normal frequency (40 recommendable item/price pairs).
    pub fn dataset_ii() -> Self {
        Self {
            targets: TargetSpec::dataset_ii(),
            ..Self::dataset_i()
        }
    }

    /// A **tiny** configuration for exhaustive and differential testing:
    /// `n_transactions` transactions (≤ 64) over `n_items` non-target
    /// items (≤ 10) with `n_prices` promotion codes per item (2–4), the
    /// Dataset-I pair of target items, and small baskets — sized so that
    /// a brute-force reference implementation (`pm-oracle`) stays
    /// tractable while every code path (favorability chains, multi-code
    /// heads, basket→target coupling) is still exercised.
    pub fn tiny(n_transactions: usize, n_items: usize, n_prices: usize) -> Self {
        assert!(
            (1..=64).contains(&n_transactions),
            "tiny means ≤ 64 transactions"
        );
        assert!((1..=10).contains(&n_items), "tiny means ≤ 10 items");
        assert!((2..=4).contains(&n_prices), "tiny means 2–4 codes");
        let mut cfg = Self::dataset_i()
            .with_transactions(n_transactions)
            .with_items(n_items);
        cfg.quest.avg_txn_size = 3.0;
        cfg.quest.avg_pattern_size = 2.0;
        cfg.pricing.max_cost = 20.0;
        cfg.pricing.n_prices = n_prices;
        cfg.target_noise = 0.3;
        cfg
    }

    /// A **low-minsup pruning benchmark** preset: a single target item
    /// over a wide, pattern-rich Quest universe. At minsup fractions
    /// around 0.2–0.5% the body lattice is dominated by
    /// marginally-frequent bodies whose heads cannot beat the default
    /// rule's admission floor — exactly the region the miner's profit
    /// upper bound prunes (a single target saturates the floor's
    /// confidence arm, so admission hinges on profit alone; see
    /// DESIGN.md §14). Scale with [`Self::with_transactions`]; avoid
    /// [`Self::with_items`], which would clamp the pattern table.
    pub fn quest_low_minsup() -> Self {
        let mut cfg = Self::dataset_i();
        cfg.targets = TargetSpec::custom(vec![5.0], vec![1.0]);
        cfg.quest.n_items = 500;
        cfg.quest.n_patterns = 800;
        cfg.quest.avg_txn_size = 8.0;
        cfg.quest.avg_pattern_size = 3.0;
        cfg
    }

    /// Override the transaction count (builder style).
    pub fn with_transactions(mut self, n: usize) -> Self {
        self.quest.n_transactions = n;
        self
    }

    /// Override the non-target item count (builder style).
    pub fn with_items(mut self, n: usize) -> Self {
        self.quest.n_items = n;
        // Keep the pattern table sane for tiny configurations.
        self.quest.n_patterns = self.quest.n_patterns.min(n.max(1) * 2);
        self
    }

    /// Attach a synthetic hierarchy (builder style).
    pub fn with_hierarchy(mut self, h: HierarchyConfig) -> Self {
        self.hierarchy = Some(h);
        self
    }

    /// Override the basket→target coupling noise (builder style);
    /// `1.0` makes target sales independent of baskets.
    pub fn with_target_noise(mut self, noise: f64) -> Self {
        assert!((0.0..=1.0).contains(&noise), "noise must be a probability");
        self.target_noise = noise;
        self
    }

    /// Override the price coupling (builder style).
    pub fn with_price_coupling(mut self, pc: PriceCoupling) -> Self {
        self.price_coupling = pc;
        self
    }

    /// Build the catalog implied by this configuration.
    pub fn build_catalog(&self) -> Catalog {
        let mut cat = Catalog::new();
        for i in 1..=self.quest.n_items {
            cat.push(ItemDef {
                name: format!("item-{i}"),
                codes: self.pricing.codes_of(i),
                is_target: false,
            });
        }
        for (k, &cost) in self.targets.costs.iter().enumerate() {
            cat.push(ItemDef {
                name: format!("target-{}", k + 1),
                codes: self
                    .pricing
                    .codes_for_cost(pm_txn::Money::from_dollars_f64(cost)),
                is_target: true,
            });
        }
        cat
    }

    /// Generate the full dataset.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> TransactionSet {
        let catalog = self.build_catalog();
        let n_total = catalog.len();
        let hierarchy = match &self.hierarchy {
            Some(hc) => hc.build(n_total, self.quest.n_items),
            None => Hierarchy::flat(n_total),
        };
        let target_sampler = self.targets.sampler();
        let n_prices = self.pricing.n_prices;
        let baskets = self.quest.generate_with_patterns(rng);
        // Per-pattern preferred (target item, price index), sampled from
        // the very same marginal distributions (see the type-level docs).
        let prefs: Vec<(usize, u16)> = (0..self.quest.n_patterns)
            .map(|_| {
                (
                    target_sampler.sample(rng),
                    rng.gen_range(0..n_prices) as u16,
                )
            })
            .collect();
        let transactions = baskets
            .into_iter()
            .map(|(basket, pattern)| {
                let (pref_item, pref_price) = prefs[pattern];
                let noisy = rng.gen::<f64>() < self.target_noise;
                let (non_target, target_price) = match self.price_coupling {
                    PriceCoupling::Uniform => {
                        let nts = basket
                            .into_iter()
                            .map(|item| {
                                let p = rng.gen_range(0..n_prices) as u16;
                                Sale::new(ItemId(item), CodeId(p), 1)
                            })
                            .collect::<Vec<_>>();
                        let tp = if noisy {
                            rng.gen_range(0..n_prices) as u16
                        } else {
                            pref_price
                        };
                        (nts, tp)
                    }
                    PriceCoupling::Sensitivity => {
                        // θ anchored at the preferred price; uniform over
                        // [0,1] when the preference is uniform.
                        let theta = (pref_price as f64 + rng.gen::<f64>()) / n_prices as f64;
                        let b = Binomial::new(n_prices as u32 - 1, theta);
                        let nts = basket
                            .into_iter()
                            .map(|item| Sale::new(ItemId(item), CodeId(b.sample(rng) as u16), 1))
                            .collect::<Vec<_>>();
                        let tp = if noisy {
                            b.sample(rng) as u16
                        } else {
                            pref_price
                        };
                        (nts, tp)
                    }
                };
                let k = if noisy {
                    target_sampler.sample(rng)
                } else {
                    pref_item
                };
                let target_item = ItemId((self.quest.n_items + k) as u32);
                Transaction::new(non_target, Sale::new(target_item, CodeId(target_price), 1))
            })
            .collect();
        TransactionSet::new(catalog, hierarchy, transactions)
            .expect("generated dataset is valid by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_i() -> DatasetConfig {
        DatasetConfig::dataset_i()
            .with_transactions(800)
            .with_items(40)
    }

    #[test]
    fn dataset_i_layout() {
        let ds = tiny_i().generate(&mut StdRng::seed_from_u64(1));
        assert_eq!(ds.len(), 800);
        assert_eq!(ds.catalog().len(), 42);
        assert_eq!(ds.catalog().target_items().len(), 2);
        // Target costs per spec.
        let t0 = ds.catalog().item(ItemId(40));
        assert!(t0.is_target);
        assert_eq!(t0.codes[0].cost, pm_txn::Money::from_dollars(2));
        let t1 = ds.catalog().item(ItemId(41));
        assert_eq!(t1.codes[0].cost, pm_txn::Money::from_dollars(10));
    }

    #[test]
    fn every_transaction_has_one_target_sale() {
        let ds = tiny_i().generate(&mut StdRng::seed_from_u64(2));
        for t in ds.transactions() {
            assert!(ds.catalog().item(t.target_sale().item).is_target);
            assert_eq!(t.target_sale().qty, 1);
            for s in t.non_target_sales() {
                assert!(!ds.catalog().item(s.item).is_target);
                assert_eq!(s.qty, 1);
            }
        }
    }

    #[test]
    fn zipf_frequency_holds() {
        let ds = tiny_i().generate(&mut StdRng::seed_from_u64(3));
        let cheap = ds
            .transactions()
            .iter()
            .filter(|t| t.target_sale().item == ItemId(40))
            .count();
        let dear = ds.len() - cheap;
        let ratio = cheap as f64 / dear.max(1) as f64;
        assert!(ratio > 3.0 && ratio < 8.0, "ratio {ratio}");
    }

    #[test]
    fn prices_spread_over_grid() {
        let ds = tiny_i().generate(&mut StdRng::seed_from_u64(4));
        let mut seen = [false; 4];
        for t in ds.transactions() {
            seen[t.target_sale().code.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 4 target prices occur");
    }

    #[test]
    fn dataset_ii_layout() {
        let ds = DatasetConfig::dataset_ii()
            .with_transactions(500)
            .with_items(30)
            .generate(&mut StdRng::seed_from_u64(5));
        assert_eq!(ds.catalog().target_items().len(), 10);
        // 40 recommendable item/price pairs, as the paper notes.
        let pairs: usize = ds
            .catalog()
            .target_items()
            .iter()
            .map(|&t| ds.catalog().item(t).codes.len())
            .sum();
        assert_eq!(pairs, 40);
    }

    #[test]
    fn hierarchy_attachment() {
        let ds = tiny_i()
            .with_hierarchy(HierarchyConfig {
                branching: 5,
                levels: 2,
            })
            .generate(&mut StdRng::seed_from_u64(6));
        assert!(ds.hierarchy().n_concepts() > 0);
        assert!(ds.hierarchy().validate().is_ok());
        // Targets are children of ANY: no concept ancestors.
        for &t in &ds.catalog().target_items() {
            assert!(ds.hierarchy().item_ancestors(t).is_empty());
        }
    }

    #[test]
    fn coupling_concentrates_targets_per_pattern() {
        // With low noise, transactions sharing a dominant pattern share a
        // target pair; with noise = 1 the association vanishes. Proxy
        // check: the number of distinct (basket-signature → target) maps.
        let coupled = tiny_i()
            .with_target_noise(0.0)
            .generate(&mut StdRng::seed_from_u64(31));
        // Group by full basket item set; within a group the target pair
        // must be constant when noise = 0 *and* the group is seeded by
        // one pattern. Identical baskets from the same pattern dominate,
        // so require at least 80% of duplicate-basket groups to agree.
        use std::collections::HashMap;
        type Pair = (u32, u16);
        let mut groups: HashMap<Vec<Pair>, Vec<Pair>> = HashMap::new();
        for t in coupled.transactions() {
            let key: Vec<(u32, u16)> = t
                .non_target_sales()
                .iter()
                .map(|s| (s.item.0, 0u16))
                .collect();
            let target = (t.target_sale().item.0, t.target_sale().code.0);
            groups.entry(key).or_default().push(target);
        }
        let multi: Vec<_> = groups.values().filter(|v| v.len() >= 2).collect();
        assert!(!multi.is_empty(), "need duplicate baskets to test");
        let agreeing = multi
            .iter()
            .filter(|v| {
                let items_agree = v.iter().all(|t| t.0 == v[0].0);
                items_agree
            })
            .count();
        assert!(
            agreeing * 10 >= multi.len() * 6,
            "only {agreeing}/{} duplicate-basket groups agree on the target item",
            multi.len()
        );
    }

    #[test]
    fn full_noise_reproduces_independence() {
        let ds = tiny_i()
            .with_target_noise(1.0)
            .with_price_coupling(PriceCoupling::Uniform)
            .generate(&mut StdRng::seed_from_u64(32));
        assert_eq!(ds.len(), 800);
    }

    #[test]
    fn sensitivity_couples_prices_within_basket() {
        // Under the sensitivity model, the target price index correlates
        // with the mean non-target price index; under Uniform it doesn't.
        let corr = |pc: PriceCoupling| -> f64 {
            let ds = tiny_i()
                .with_transactions(4000)
                .with_price_coupling(pc)
                .generate(&mut StdRng::seed_from_u64(33));
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for t in ds.transactions() {
                if t.non_target_sales().is_empty() {
                    continue;
                }
                let mean_nt: f64 = t
                    .non_target_sales()
                    .iter()
                    .map(|s| s.code.0 as f64)
                    .sum::<f64>()
                    / t.non_target_sales().len() as f64;
                xs.push(mean_nt);
                ys.push(t.target_sale().code.0 as f64);
            }
            let n = xs.len() as f64;
            let mx = xs.iter().sum::<f64>() / n;
            let my = ys.iter().sum::<f64>() / n;
            let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
            let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
            let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
            cov / (vx.sqrt() * vy.sqrt())
        };
        let coupled = corr(PriceCoupling::Sensitivity);
        let uniform = corr(PriceCoupling::Uniform);
        assert!(coupled > 0.4, "sensitivity correlation {coupled}");
        assert!(uniform.abs() < 0.1, "uniform correlation {uniform}");
    }

    #[test]
    fn price_marginal_stays_uniform_under_sensitivity() {
        // Uniform in expectation over pattern preferences; the realized
        // distribution is weighted by (skewed) pattern usage, so allow a
        // generous band.
        let ds = tiny_i()
            .with_transactions(6000)
            .generate(&mut StdRng::seed_from_u64(34));
        let mut counts = [0u32; 4];
        for t in ds.transactions() {
            counts[t.target_sale().code.index()] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 6000.0;
            assert!(frac > 0.10 && frac < 0.45, "{counts:?}");
        }
    }

    #[test]
    fn tiny_preset_is_tiny() {
        let ds = DatasetConfig::tiny(20, 6, 3).generate(&mut StdRng::seed_from_u64(7));
        assert_eq!(ds.len(), 20);
        assert_eq!(ds.catalog().len(), 8); // 6 non-target + 2 targets
        for (_, def) in ds.catalog().iter() {
            assert_eq!(def.codes.len(), 3);
        }
        assert!(ds.catalog().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "tiny")]
    fn tiny_preset_rejects_large_configs() {
        let _ = DatasetConfig::tiny(1000, 6, 3);
    }

    #[test]
    fn quest_low_minsup_layout() {
        let cfg = DatasetConfig::quest_low_minsup();
        assert_eq!(cfg.quest.n_items, 500);
        assert_eq!(cfg.quest.n_patterns, 800);
        let ds = cfg
            .with_transactions(600)
            .generate(&mut StdRng::seed_from_u64(8));
        assert_eq!(ds.len(), 600);
        // A single target item: the dominance floor's confidence arm
        // saturates, which is what makes the preset a pruning benchmark.
        assert_eq!(ds.catalog().target_items().len(), 1);
        assert_eq!(ds.catalog().len(), 501);
        let t = ds.catalog().item(ItemId(500));
        assert!(t.is_target);
        assert_eq!(t.codes[0].cost, pm_txn::Money::from_dollars(5));
        assert!(ds.catalog().validate().is_ok());
    }

    #[test]
    fn deterministic() {
        let a = tiny_i().generate(&mut StdRng::seed_from_u64(9));
        let b = tiny_i().generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(a.transactions(), b.transactions());
    }
}
