//! Targeted mining is post-filtering, and asking for nothing changes
//! nothing: property tests over seeded synthetic datasets proving
//!
//! 1. the targeted DFS (head-domain restriction composed with the upper
//!    bound) emits exactly the post-filtered untargeted rule stream —
//!    same rules, same order, bit-identical profits, renumbered
//!    generation indices — at {1, 4} threads; and
//! 2. the identity path is byte-clean: with no target and no per-item
//!    floors the builders must not perturb the serialized model — the
//!    same bytes as a miner that never heard of PR 9's knobs, with and
//!    without a scalar `min_rule_profit` floor.

use pm_datagen::DatasetConfig;
use pm_rules::{GsId, MinedRules, MinerConfig, Rule, RuleMiner, Support};
use pm_txn::{CodeId, TargetFilter, TransactionSet};
use profit_core::{CutConfig, RuleModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(seed: u64) -> TransactionSet {
    let n_txns = [12, 16, 24, 30][(seed % 4) as usize];
    let n_items = [4, 5, 6][(seed % 3) as usize];
    DatasetConfig::tiny(n_txns, n_items, 3).generate(&mut StdRng::seed_from_u64(0x7A26 ^ seed))
}

fn config(seed: u64) -> MinerConfig {
    MinerConfig {
        min_support: Support::Count(1 + (seed % 3) as u32),
        max_body_len: 2,
        prune_default_dominated: seed.is_multiple_of(2),
        ..MinerConfig::default()
    }
}

/// The defining semantics: keep in-target heads, renumber generation.
fn post_filter(full: &MinedRules, t: &TargetFilter) -> Vec<Rule> {
    let h = full.moa().hierarchy();
    let mut out: Vec<Rule> = full
        .rules()
        .iter()
        .filter(|r| {
            let (item, code) = full.head(r.head);
            t.matches(h, item, code)
        })
        .cloned()
        .collect();
    for (i, r) in out.iter_mut().enumerate() {
        r.gen_index = i as u32;
    }
    out
}

/// Bit-exact comparison key (f64 profits compared by representation).
fn exact(rules: &[Rule]) -> Vec<(Vec<GsId>, u32, u32, u32, u64, u32)> {
    rules
        .iter()
        .map(|r| {
            (
                r.body.clone(),
                r.head.0,
                r.body_count,
                r.hits,
                r.profit.to_bits(),
                r.gen_index,
            )
        })
        .collect()
}

fn model_bytes(mined: &MinedRules) -> String {
    serde_json::to_string(&RuleModel::build(mined, &CutConfig::default()).save())
        .expect("model serialization is infallible")
}

fn check_targeted(seed: u64) {
    let data = dataset(seed);
    let cfg = config(seed);
    let full = RuleMiner::new(cfg).with_threads(1).mine(&data);
    let first_target = data.catalog().target_items()[0];
    let targets = [
        TargetFilter::Items(vec![first_target]),
        TargetFilter::Codes(vec![CodeId(0)]),
        TargetFilter::Codes(vec![CodeId(1)]),
    ];
    for t in &targets {
        let expect = post_filter(&full, t);
        for threads in [1usize, 4] {
            let mined = RuleMiner::new(cfg)
                .with_threads(threads)
                .with_target(Some(t.clone()))
                .mine(&data);
            assert_eq!(
                exact(mined.rules()),
                exact(&expect),
                "seed {seed} {t:?} threads {threads}"
            );
        }
    }
}

fn check_identity_path(seed: u64) {
    let data = dataset(seed);
    // With and without a scalar floor: the pre-PR surface.
    for min_rule_profit in [None, Some(2.0)] {
        let cfg = MinerConfig {
            min_rule_profit,
            ..config(seed)
        };
        for threads in [1usize, 4] {
            let plain = RuleMiner::new(cfg).with_threads(threads).mine(&data);
            let noop = RuleMiner::new(cfg)
                .with_threads(threads)
                .with_target(None)
                .with_item_floors(Vec::new())
                .mine(&data);
            assert_eq!(exact(plain.rules()), exact(noop.rules()), "seed {seed}");
            assert_eq!(
                model_bytes(&plain),
                model_bytes(&noop),
                "seed {seed} floor {min_rule_profit:?} threads {threads}: \
                 no-op workload knobs must leave the serialized model bytes unchanged"
            );
        }
    }
}

#[test]
fn targeted_dfs_equals_post_filtering_fixed_seeds() {
    for seed in 0..12 {
        check_targeted(seed);
    }
}

#[test]
fn untargeted_models_serialize_identically_fixed_seeds() {
    for seed in 0..12 {
        check_identity_path(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized seeds beyond the fixed sweep (the vendored proptest
    /// shim does not shrink; seeds replay exactly).
    #[test]
    fn targeted_dfs_equals_post_filtering_fuzz(seed in 0u64..1_000_000) {
        check_targeted(seed);
    }

    #[test]
    fn untargeted_models_serialize_identically_fuzz(seed in 0u64..1_000_000) {
        check_identity_path(seed);
    }
}
