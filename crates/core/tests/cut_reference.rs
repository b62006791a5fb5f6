//! End-to-end verification of Theorems 1–2 on *real* covering trees:
//! mine random small datasets, build the covering tree, and check the
//! linear-time optimal cut against exhaustive cut enumeration with the
//! actual pessimistic-profit evaluator.

use pm_rules::{MinerConfig, MoaMode, ProfitMode, RuleMiner, Support};
use pm_txn::{
    Catalog, CodeId, Hierarchy, ItemDef, ItemId, Money, PromotionCode, Sale, Transaction,
    TransactionSet,
};
use profit_core::cut::{optimal_cut, reference, CutTree};
use profit_core::pessimistic::ProjectedProfit;
use profit_core::tree::CoveringTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random dataset over `n_nt` non-target items (2 codes each) and 2
/// target items (2 codes each).
fn random_dataset(rng: &mut StdRng, n_nt: usize, n_txns: usize) -> TransactionSet {
    let mut cat = Catalog::new();
    for i in 0..n_nt {
        cat.push(ItemDef {
            name: format!("n{i}"),
            codes: vec![
                PromotionCode::unit(Money::from_cents(100), Money::from_cents(50)),
                PromotionCode::unit(Money::from_cents(140), Money::from_cents(50)),
            ],
            is_target: false,
        });
    }
    for t in 0..2 {
        cat.push(ItemDef {
            name: format!("t{t}"),
            codes: vec![
                PromotionCode::unit(Money::from_cents(300 + 400 * t), Money::from_cents(200)),
                PromotionCode::unit(Money::from_cents(380 + 400 * t), Money::from_cents(200)),
            ],
            is_target: true,
        });
    }
    let mut txns = Vec::with_capacity(n_txns);
    for _ in 0..n_txns {
        let basket_size = rng.gen_range(1..=3.min(n_nt));
        let mut items: Vec<usize> = (0..n_nt).collect();
        // Partial shuffle.
        for i in 0..basket_size {
            let j = rng.gen_range(i..n_nt);
            items.swap(i, j);
        }
        let nts: Vec<Sale> = items[..basket_size]
            .iter()
            .map(|&i| Sale::new(ItemId(i as u32), CodeId(rng.gen_range(0..2)), 1))
            .collect();
        let target = Sale::new(
            ItemId((n_nt + rng.gen_range(0..2usize)) as u32),
            CodeId(rng.gen_range(0..2)),
            rng.gen_range(1..3),
        );
        txns.push(Transaction::new(nts, target));
    }
    TransactionSet::new(cat, Hierarchy::flat(n_nt + 2), txns).unwrap()
}

#[test]
fn linear_cut_equals_exhaustive_on_mined_trees() {
    let mut rng = StdRng::seed_from_u64(0xC07);
    let mut nontrivial = 0;
    for trial in 0..40 {
        let n_nt = rng.gen_range(3..6);
        let n_txns = rng.gen_range(15..40);
        let data = random_dataset(&mut rng, n_nt, n_txns);
        let mined = RuleMiner::new(MinerConfig {
            min_support: Support::Count(2),
            max_body_len: 2,
            moa: MoaMode::Enabled,
            ..MinerConfig::default()
        })
        .mine(&data);
        for mode in [ProfitMode::Profit, ProfitMode::Confidence] {
            let tree = CoveringTree::build(&mined, mode, None);
            if tree.len() < 2 {
                continue;
            }
            // Exhaustive enumeration explodes past ~20 nodes; restrict.
            if tree.len() > 14 {
                continue;
            }
            nontrivial += 1;
            let mut projector = ProjectedProfit::new(0.25, mode);
            let ext = mined.extended();
            let mut eval = |node: usize, tids: &[u32]| -> f64 {
                let head = tree.rules[node].head;
                let mut hits = 0u64;
                let mut profit = 0.0f64;
                for &t in tids {
                    if let Some(p) = ext.head_profit_on(t as usize, head) {
                        hits += 1;
                        profit += p;
                    }
                }
                projector.profit(tids.len() as u64, hits, profit)
            };
            let input = CutTree {
                parent: &tree.parent,
                cover: &tree.cover,
            };
            let fast = optimal_cut(&input, &mut eval);
            let (best_profit, best_size, best_retained) = reference::best_cut(&input, &mut eval);
            assert!(
                (fast.total_profit - best_profit).abs() < 1e-6,
                "trial {trial} mode {mode:?}: {} vs {}",
                fast.total_profit,
                best_profit
            );
            assert_eq!(
                fast.n_retained(),
                best_size,
                "trial {trial} mode {mode:?}: cut size"
            );
            assert_eq!(
                fast.retained, best_retained,
                "trial {trial} mode {mode:?}: retained set"
            );
            // Each retained node covers its own transactions, or its whole
            // subtree's when the cut made it a leaf; together they cover
            // every transaction once.
            let kept_below =
                |v: usize| (0..tree.len()).any(|c| tree.parent[c] == Some(v) && best_retained[c]);
            let subtree = |v: usize| {
                (0..tree.len())
                    .filter(|&u| {
                        std::iter::successors(Some(u), |&x| tree.parent[x]).any(|x| x == v)
                    })
                    .map(|u| tree.cover[u].len())
                    .sum::<usize>()
            };
            for (v, &count) in fast.coverage.iter().enumerate() {
                let expect = match (best_retained[v], kept_below(v)) {
                    (false, _) => 0,
                    (true, true) => tree.cover[v].len(),
                    (true, false) => subtree(v),
                };
                assert_eq!(
                    count as usize, expect,
                    "trial {trial} mode {mode:?}: coverage of node {v}"
                );
            }
            assert_eq!(
                fast.coverage.iter().sum::<u32>() as usize,
                mined.n_transactions(),
                "trial {trial} mode {mode:?}: coverage partitions the transactions"
            );
        }
    }
    assert!(
        nontrivial >= 10,
        "too few non-trivial trees exercised ({nontrivial})"
    );
}

#[test]
fn covering_tree_parents_strictly_generalize_on_random_data() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for _ in 0..15 {
        let data = random_dataset(&mut rng, 4, 30);
        let mined = RuleMiner::new(MinerConfig {
            min_support: Support::Count(1),
            max_body_len: 2,
            ..MinerConfig::default()
        })
        .mine(&data);
        let tree = CoveringTree::build(&mined, ProfitMode::Profit, None);
        let interner = mined.interner();
        for i in 0..tree.len() {
            if let Some(p) = tree.parent[i] {
                assert!(p > i, "parent must rank lower");
                assert!(
                    interner.body_generalizes(&tree.rules[p].body, &tree.rules[i].body),
                    "parent body must generalize child body"
                );
            }
        }
        // Tree is connected: every non-root reaches the root.
        let root = tree.root();
        for mut v in 0..tree.len() {
            let mut steps = 0;
            while let Some(p) = tree.parent[v] {
                v = p;
                steps += 1;
                assert!(steps <= tree.len(), "parent cycle");
            }
            assert_eq!(v, root);
        }
    }
}
