//! # profit-mining
//!
//! A complete Rust implementation of **"Profit Mining: From Patterns to
//! Actions"** (Ke Wang, Senqiang Zhou, Jiawei Han; EDBT 2002).
//!
//! Profit mining builds a *recommender* from past transactions: given a
//! future customer's non-target purchases, it recommends one
//! `(target item, promotion code)` pair so as to maximize the total profit
//! `(Price − Cost) × Quantity` over future customers — not merely the hit
//! rate. The pipeline is:
//!
//! 1. generalize transactions over the **MOA(H)** hierarchy (concepts plus
//!    the *mining-on-availability* favorability order on promotion codes);
//! 2. mine **generalized association rules** with profit-aware measures
//!    (rule profit, recommendation profit);
//! 3. rank rules with the **most-profitable-first (MPF)** order and remove
//!    dominated rules;
//! 4. build the **covering tree** and prune it to the unique
//!    **cut-optimal** recommender using the pessimistic Clopper–Pearson
//!    projected-profit estimate.
//!
//! This facade crate re-exports the entire workspace so downstream users
//! can depend on a single crate:
//!
//! ```
//! use profit_mining::prelude::*;
//! use rand::SeedableRng;
//!
//! // Generate a miniature Dataset-I-style workload (§5.2 of the paper).
//! let config = DatasetConfig::dataset_i().with_transactions(500).with_items(120);
//! let dataset = config.generate(&mut rand::rngs::StdRng::seed_from_u64(7));
//!
//! // Mine + prune a PROF+MOA recommender.
//! let miner = ProfitMiner::new(MinerConfig {
//!     min_support: Support::fraction(0.03),
//!     max_body_len: 3,
//!     ..MinerConfig::default()
//! });
//! let recommender = miner.fit(&dataset);
//!
//! // Recommend for a new customer.
//! let customer = dataset.transactions()[0].non_target_sales();
//! let rec = recommender.recommend(customer);
//! assert!(dataset.catalog().item(rec.item).is_target);
//! println!("recommend {} under {}", rec.item, rec.promotion);
//! ```
//!
//! See the workspace `DESIGN.md` for the full system inventory and the
//! experiment index, and `EXPERIMENTS.md` for paper-vs-measured results.

pub use pm_baselines as baselines;
pub use pm_datagen as datagen;
pub use pm_eval as eval;
pub use pm_rules as rules;
pub use pm_serve as serve;
pub use pm_stats as stats;
pub use pm_store as store;
pub use pm_txn as txn;
pub use profit_core as core;

/// Convenient glob import for applications.
pub mod prelude {
    pub use pm_baselines::{Knn, KnnConfig, KnnProfit, MostProfitableItem};
    pub use pm_datagen::{DatasetConfig, HierarchyConfig, PricingConfig, QuestConfig, TargetSpec};
    pub use pm_eval::{
        behavior::QuantityBoost,
        evaluate,
        experiments::{Dataset, Scale},
        folds::Folds,
        runner::{run_sweep, EvalConfig, SweepReport},
        EvalOptions, EvalOutcome, Table,
    };
    pub use pm_rules::{
        IncrementalMiner, MinedRules, MinerConfig, MoaMode, ProfitMode, QuantityModel, Rule,
        RuleMiner, Support,
    };
    pub use pm_txn::{
        Catalog, CatalogBuilder, CodeId, ConceptId, GenSale, Hierarchy, ItemDef, ItemId, Moa,
        Money, PromotionCode, Sale, TargetSale, Transaction, TransactionSet,
    };
    pub use profit_core::{
        CutConfig, IncrementalProfitMiner, Matcher, ModelRule, ProfitMiner, Recommendation,
        Recommender, RuleModel,
    };
}
