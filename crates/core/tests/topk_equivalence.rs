//! The indexed [`Matcher::recommend_top_k`] must return exactly what the
//! linear [`RuleModel::recommend_top_k`] scan returns — same pairs, same
//! order, same rule indices — for every customer, every `k` and every
//! target, across `ProfitMode` × `MoaMode` on randomized datasets. This
//! is the guarantee `pm-serve` relies on to route `top > 1` and targeted
//! requests through the batched indexed path without changing a single
//! response byte. A targeted walk must also equal post-filtering the
//! untargeted one, and a target that admits no head gets no answer.

use pm_datagen::DatasetConfig;
use pm_rules::{MinerConfig, MoaMode, ProfitMode, RuleMiner, Support};
use pm_txn::{CodeId, ItemId, Sale, TargetFilter};
use profit_core::{CutConfig, Matcher, Recommendation, RuleModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random nonempty subset of `pool`.
fn subset<T: Copy>(rng: &mut StdRng, pool: &[T]) -> Vec<T> {
    let mut out: Vec<T> = pool.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
    if out.is_empty() {
        out.push(pool[rng.gen_range(0..pool.len())]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn indexed_top_k_equals_linear_top_k(
        seed in 0u64..1_000_000,
        n_txn in 60usize..160,
        prune in proptest::bool::ANY,
    ) {
        let ds = DatasetConfig::dataset_i()
            .with_transactions(n_txn)
            .with_items(40)
            .generate(&mut StdRng::seed_from_u64(seed));
        let catalog = ds.catalog();
        let non_targets: Vec<ItemId> = (0..catalog.len() as u32)
            .map(ItemId)
            .filter(|&i| !catalog.item(i).is_target)
            .collect();
        let target_items = catalog.target_items();
        let max_codes = target_items
            .iter()
            .map(|&t| catalog.item(t).codes.len() as u16)
            .max()
            .unwrap();
        let codes: Vec<CodeId> = (0..max_codes).map(CodeId).collect();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a76e7);
        let targets: Vec<TargetFilter> = (0..2)
            .flat_map(|_| {
                [
                    TargetFilter::Items(subset(&mut rng, &target_items)),
                    TargetFilter::Codes(subset(&mut rng, &codes)),
                ]
            })
            .collect();
        // Heads are target items only, so a non-target item admits none.
        let nothing = TargetFilter::Items(vec![non_targets[0]]);

        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            for mode in [ProfitMode::Profit, ProfitMode::Confidence] {
                let mined = RuleMiner::new(MinerConfig {
                    min_support: Support::Fraction(0.04),
                    max_body_len: 3,
                    moa,
                    ..MinerConfig::default()
                })
                .mine(&ds);
                let model = RuleModel::build(
                    &mined,
                    &CutConfig {
                        profit_mode: mode,
                        prune,
                        ..CutConfig::default()
                    },
                );
                let matcher = Matcher::new(&model);
                let hierarchy = model.moa().hierarchy();

                let check = |c: &[Sale]| -> Result<(), String> {
                    let full = model.recommend_top_k(c, usize::MAX, None);
                    for k in [0usize, 1, 2, 3, 5, 10, 100] {
                        prop_assert_eq!(
                            &matcher.recommend_top_k(c, k, None),
                            &model.recommend_top_k(c, k, None)
                        );
                        for t in &targets {
                            let expect: Vec<Recommendation> = full
                                .iter()
                                .filter(|r| t.matches(hierarchy, r.item, r.code))
                                .take(k)
                                .cloned()
                                .collect();
                            prop_assert_eq!(&model.recommend_top_k(c, k, Some(t)), &expect);
                            prop_assert_eq!(&matcher.recommend_top_k(c, k, Some(t)), &expect);
                        }
                        prop_assert!(model.recommend_top_k(c, k, Some(&nothing)).is_empty());
                        prop_assert!(matcher.recommend_top_k(c, k, Some(&nothing)).is_empty());
                    }
                    // k = 1 must also agree with the single-answer path.
                    let one = matcher.recommend_top_k(c, 1, None);
                    prop_assert_eq!(one.len(), 1);
                    prop_assert_eq!(one[0].rule_index, Some(matcher.rule_for(c)));
                    Ok(())
                };

                // Real customers: every training transaction's non-target
                // side.
                for t in ds.transactions() {
                    check(t.non_target_sales())?;
                }

                // Synthetic customers: random sales the model may never
                // have seen together, plus the empty customer.
                let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
                for _ in 0..20 {
                    let len = rng.gen_range(0usize..4);
                    let c: Vec<Sale> = (0..len)
                        .map(|_| {
                            let item = non_targets[rng.gen_range(0..non_targets.len())];
                            let code = rng.gen_range(0..catalog.item(item).codes.len() as u16);
                            Sale::new(item, CodeId(code), rng.gen_range(1u32..4))
                        })
                        .collect();
                    check(&c)?;
                }
            }
        }
    }
}
