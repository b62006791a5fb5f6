//! One-call pipeline: mine → rank → prune → recommender.

use crate::model::RuleModel;
use crate::pessimistic::ProjectedProfit;
use pm_rules::{IncrementalMiner, MinerConfig, MinerSnapshot, ProfitMode, RuleMiner, Support};
use pm_txn::{ItemId, TargetFilter, TransactionSet};
use serde::{Deserialize, Serialize};

/// Configuration of the recommender-construction stage (§3.2 + §4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CutConfig {
    /// Real profit (`PROF`) or binary profit (`CONF`).
    pub profit_mode: ProfitMode,
    /// Confidence level of the pessimistic estimator (C4.5 default 0.25).
    pub cf: f64,
    /// Apply cut-optimal pruning (§4). Off reproduces the plain MPF
    /// recommender of §3.2.
    pub prune: bool,
    /// Optionally rebuild at a *higher* minimum support than the mining
    /// run used (supports the paper's minsup sweeps without re-mining).
    pub min_support: Option<Support>,
}

impl Default for CutConfig {
    fn default() -> Self {
        Self {
            profit_mode: ProfitMode::Profit,
            cf: pm_stats::binomial::DEFAULT_CF,
            prune: true,
            min_support: None,
        }
    }
}

/// Rule counts along the pipeline, for reporting (Figure 3(f)/4(f)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct BuildStats {
    /// Rules produced by the mining run.
    pub mined_rules: usize,
    /// Rules after the (optional) min-support refilter.
    pub ranked_rules: usize,
    /// Rules after dominance removal (incl. the default rule).
    pub after_dominance: usize,
    /// Rules in the final (cut-optimal) recommender.
    pub after_cut: usize,
    /// The recommender's total projected profit.
    pub projected_profit: f64,
}

/// The end-to-end profit miner: a rule miner plus a recommender-construction
/// configuration.
#[derive(Debug, Clone, Default)]
pub struct ProfitMiner {
    miner: RuleMiner,
    cut: CutConfig,
}

impl ProfitMiner {
    /// A pipeline with the given mining configuration and default
    /// construction settings (PROF, CF = 0.25, pruning on), mining on
    /// all cores (see [`Self::with_threads`]).
    pub fn new(miner: MinerConfig) -> Self {
        Self {
            miner: RuleMiner::new(miner),
            cut: CutConfig::default(),
        }
    }

    /// Override the construction settings.
    pub fn with_cut(mut self, cut: CutConfig) -> Self {
        self.cut = cut;
        self
    }

    /// Set the mining worker thread count (see
    /// [`RuleMiner::with_threads`]). The fitted model is bit-identical
    /// at any setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.miner = self.miner.with_threads(threads);
        self
    }

    /// Restrict mining to rule heads inside `target` (see
    /// [`RuleMiner::with_target`]): the fitted model is byte-identical
    /// to post-filtering an untargeted model's rules to the target, with
    /// the default rule restricted to in-target heads.
    pub fn with_target(mut self, target: Option<TargetFilter>) -> Self {
        self.miner = self.miner.with_target(target);
        self
    }

    /// Per-item minimum rule-profit floors (see
    /// [`RuleMiner::with_item_floors`]).
    pub fn with_item_floors(mut self, floors: Vec<(ItemId, f64)>) -> Self {
        self.miner = self.miner.with_item_floors(floors);
        self
    }

    /// Mine `data` and build the recommender.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset — there is nothing to learn from.
    pub fn fit(&self, data: &TransactionSet) -> RuleModel {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let mined = {
            let _span = pm_obs::span("fit.mine");
            self.miner.mine(data)
        };
        let _span = pm_obs::span("fit.build");
        let model = RuleModel::build(&mined, &self.cut);
        pm_obs::info!(
            "fit.done",
            transactions = data.len(),
            mined_rules = mined.rules().len(),
            model_rules = model.rules().len()
        );
        model
    }

    /// Convert into the incremental pipeline: fit once, then fold in
    /// delta batches with [`IncrementalProfitMiner::update`].
    pub fn into_incremental(self) -> IncrementalProfitMiner {
        IncrementalProfitMiner {
            inner: IncrementalMiner::new(self.miner),
            projector: ProjectedProfit::new(self.cut.cf, self.cut.profit_mode),
            cut: self.cut,
        }
    }
}

/// The streaming-ingestion pipeline: mine a base set once, keep the
/// miner's vertical state, and rebuild the recommender from a delta
/// re-mine on every batch. Each [`update`](Self::update) produces a
/// model byte-identical to [`ProfitMiner::fit`] on the concatenated
/// set — the recommender construction is deterministic on top of the
/// incremental miner's bit-identical rule stream.
///
/// Each build hands the `U_CF` values it read to the next, which reads
/// mostly the same `(n, e)` pairs; `U_CF` is a pure function of
/// `(n, e, cf)`, so a carried value has a fresh solve's bits.
pub struct IncrementalProfitMiner {
    inner: IncrementalMiner,
    cut: CutConfig,
    projector: ProjectedProfit,
}

impl IncrementalProfitMiner {
    /// Cold fit, retaining the mining state for later updates.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset — there is nothing to learn from.
    pub fn fit(&mut self, data: &TransactionSet) -> RuleModel {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let mined = {
            let _span = pm_obs::span("fit.mine");
            self.inner.fit(data)
        };
        let _span = pm_obs::span("fit.build");
        RuleModel::build_with(&mined, &self.cut, &mut self.projector)
    }

    /// Fold in a delta batch (see [`IncrementalMiner::update`]: `data`
    /// is the fitted set with new transactions appended) and rebuild
    /// the recommender.
    ///
    /// # Panics
    ///
    /// Panics before [`fit`](Self::fit) or when `data` shrank.
    pub fn update(&mut self, data: &TransactionSet) -> RuleModel {
        let mined = {
            let _span = pm_obs::span("update.mine");
            self.inner.update(data)
        };
        let _span = pm_obs::span("update.build");
        let model = RuleModel::build_with(&mined, &self.cut, &mut self.projector);
        pm_obs::info!(
            "update.done",
            transactions = data.len(),
            mined_rules = mined.rules().len(),
            model_rules = model.rules().len()
        );
        model
    }

    /// Bring the miner to `data` and build no model: a cold mine before
    /// the first [`fit`](Self::fit), a delta re-mine after it. A
    /// checkpoint seals the miner's state, not a model, so a seal needs
    /// only this.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset before the first fit, or when `data`
    /// shrank.
    pub fn mine(&mut self, data: &TransactionSet) {
        if self.inner.is_fitted() {
            let _span = pm_obs::span("update.mine");
            self.inner.update(data);
        } else {
            assert!(!data.is_empty(), "cannot fit on an empty dataset");
            let _span = pm_obs::span("fit.mine");
            self.inner.fit(data);
        }
    }

    /// Capture the miner's durable incremental state for a checkpoint
    /// (see [`pm_rules::MinerSnapshot`]). `None` before
    /// [`fit`](Self::fit).
    pub fn snapshot(&self) -> Option<MinerSnapshot> {
        self.inner.snapshot()
    }

    /// Rebuild a fitted incremental pipeline from a snapshot taken on
    /// exactly `data` (see [`IncrementalMiner::restore`]). `pipeline`
    /// must carry the same configuration the snapshotting process ran
    /// with; call [`update`](Self::update) afterwards to obtain the
    /// model from the warm caches.
    pub fn restore(
        pipeline: ProfitMiner,
        data: &TransactionSet,
        snap: &MinerSnapshot,
    ) -> Result<Self, String> {
        Ok(Self {
            inner: IncrementalMiner::restore(pipeline.miner, data, snap)?,
            projector: ProjectedProfit::new(pipeline.cut.cf, pipeline.cut.profit_mode),
            cut: pipeline.cut,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Recommender;
    use pm_datagen::DatasetConfig;
    use pm_rules::MoaMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn end_to_end_on_synthetic_data() {
        // Keep the item universe realistically sparse relative to the
        // basket size — dense mini-configs make the body lattice explode.
        let ds = DatasetConfig::dataset_i()
            .with_transactions(500)
            .with_items(120)
            .generate(&mut StdRng::seed_from_u64(42));
        let model = ProfitMiner::new(MinerConfig {
            min_support: Support::Fraction(0.03),
            max_body_len: 3,
            ..MinerConfig::default()
        })
        .fit(&ds);
        assert!(!model.rules().is_empty());
        // Every transaction's customer gets a valid recommendation of a
        // target item.
        for t in ds.transactions().iter().take(50) {
            let rec = model.recommend(t.non_target_sales());
            assert!(ds.catalog().item(rec.item).is_target);
        }
    }

    #[test]
    fn four_paper_variants_build() {
        let ds = DatasetConfig::dataset_i()
            .with_transactions(400)
            .with_items(100)
            .generate(&mut StdRng::seed_from_u64(3));
        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            for mode in [ProfitMode::Profit, ProfitMode::Confidence] {
                let model = ProfitMiner::new(MinerConfig {
                    min_support: Support::Fraction(0.03),
                    max_body_len: 3,
                    moa,
                    ..MinerConfig::default()
                })
                .with_cut(CutConfig {
                    profit_mode: mode,
                    ..CutConfig::default()
                })
                .fit(&ds);
                assert!(model.n_rules().unwrap() >= 1, "{}", model.name());
            }
        }
    }

    /// End-to-end determinism across thread counts: the fitted models —
    /// down to the serialized JSON bytes, so every f64 bit — must be
    /// identical whether mined sequentially or on 2/8 workers, on both
    /// datasets (Dataset II's deeper hierarchy puts MOA-generalized
    /// sales in most bodies).
    #[test]
    fn thread_count_is_invisible_in_the_fitted_model() {
        for (cfg, items, seed) in [
            (DatasetConfig::dataset_i(), 100, 7),
            (DatasetConfig::dataset_ii(), 80, 23),
        ] {
            let ds = cfg
                .with_transactions(400)
                .with_items(items)
                .generate(&mut StdRng::seed_from_u64(seed));
            let fit_json = |threads: usize| {
                let model = ProfitMiner::new(MinerConfig {
                    min_support: Support::Fraction(0.03),
                    max_body_len: 3,
                    ..MinerConfig::default()
                })
                .with_threads(threads)
                .fit(&ds);
                serde_json::to_string(&model.save()).unwrap()
            };
            let sequential = fit_json(1);
            for threads in [2usize, 8] {
                assert_eq!(
                    sequential,
                    fit_json(threads),
                    "seed {seed} threads {threads}"
                );
            }
        }
    }

    /// The incremental pipeline's promise at the model level: fit on a
    /// base, update through deltas, and every serialized model byte
    /// matches a cold fit on the concatenated prefix.
    #[test]
    fn incremental_pipeline_matches_cold_fit_bytes() {
        let ds = DatasetConfig::dataset_i()
            .with_transactions(400)
            .with_items(100)
            .generate(&mut StdRng::seed_from_u64(19));
        let config = MinerConfig {
            min_support: Support::Fraction(0.03),
            max_body_len: 3,
            ..MinerConfig::default()
        };
        let mut inc = ProfitMiner::new(config).with_threads(2).into_incremental();
        let base = ds.subset(&(0..250).collect::<Vec<_>>());
        inc.fit(&base);
        let mut data = base;
        for upto in [320usize, 400] {
            data.extend_from(&ds.transactions()[data.len()..upto])
                .unwrap();
            let got = inc.update(&data);
            let cold = ProfitMiner::new(config).with_threads(2).fit(&data);
            assert_eq!(
                serde_json::to_string(&got.save()).unwrap(),
                serde_json::to_string(&cold.save()).unwrap(),
                "prefix {upto}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn empty_dataset_rejected() {
        let ds = DatasetConfig::dataset_i()
            .with_transactions(100)
            .with_items(10)
            .generate(&mut StdRng::seed_from_u64(1));
        let empty = ds.subset(&[]);
        let _ = ProfitMiner::default().fit(&empty);
    }
}
