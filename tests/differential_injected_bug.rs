//! Proves the differential harness has teeth: with a deliberately injected
//! ranking bug — the §3.2 tie-chain's support and body-size criteria
//! swapped via `profit_core::test_hooks` — the comparison must fail on a
//! dataset that is clean under the correct chain.
//!
//! The hook is process-global, so this is the only test in this binary.

mod common;

use pm_txn::{CatalogBuilder, CodeId, Hierarchy, Sale, Transaction, TransactionSet};

/// Three non-target items X, Y, Z (one code each) and a target T with a
/// $2.00 margin. Five transactions: {X, Y} → T three times, {Z} → T twice.
/// With minsup 2 every rule ties at `Prof_re` = $2.00 exactly (unit
/// quantities, one shared head), so the ranking is decided purely by the
/// tie-chain: support first ranks the X/Y rules (support 3) above the Z
/// rules (support 2); the injected swap ranks single-sale Z rules above the
/// two-sale {X, Y} bodies — a divergence the ranked-list comparison catches.
fn tie_dataset() -> TransactionSet {
    let mut b = CatalogBuilder::new();
    b.non_target("X").unit_code(3.0, 1.0);
    b.non_target("Y").unit_code(3.0, 1.0);
    b.non_target("Z").unit_code(3.0, 1.0);
    b.target("T").unit_code(3.0, 1.0);
    let x = b.id("X").unwrap();
    let y = b.id("Y").unwrap();
    let z = b.id("Z").unwrap();
    let t = b.id("T").unwrap();
    let catalog = b.build().unwrap();
    let hierarchy = Hierarchy::flat(catalog.len());
    let code = CodeId(0);
    let target = Sale::new(t, code, 1);
    let mut txns = Vec::new();
    for _ in 0..3 {
        txns.push(Transaction::new(
            vec![Sale::new(x, code, 1), Sale::new(y, code, 1)],
            target,
        ));
    }
    for _ in 0..2 {
        txns.push(Transaction::new(vec![Sale::new(z, code, 1)], target));
    }
    TransactionSet::new(catalog, hierarchy, txns).unwrap()
}

/// Whether the MPF rank (a key computed once per rule, which the model
/// build sorts by) orders `data`'s mined rules as the swapped chain
/// written out: `Prof_re`, then smaller body, then larger support, then
/// earlier generation.
fn rank_follows_the_swapped_chain(data: &TransactionSet) -> bool {
    use pm_rules::{MinerConfig, ProfitMode, RuleMiner, Support};
    let mined = RuleMiner::new(MinerConfig {
        min_support: Support::Count(2),
        max_body_len: 2,
        ..MinerConfig::default()
    })
    .mine(data);
    let mode = ProfitMode::Profit;
    let mut chain = mined.rules().to_vec();
    chain.push(mined.default_rule(mode));
    chain.sort_by(|a, b| {
        b.recommendation_profit(mode)
            .total_cmp(&a.recommendation_profit(mode))
            .then(a.body_len().cmp(&b.body_len()))
            .then(b.support_count().cmp(&a.support_count()))
            .then(a.gen_index.cmp(&b.gen_index))
    });
    profit_core::ranked_rules(&mined, mode) == chain
}

#[test]
fn injected_tie_break_bug_is_caught() {
    let data = tie_dataset();
    common::compare_dataset(&data, 2, 2)
        .expect("the hand-built tie dataset must be clean under the correct tie-chain");

    profit_core::test_hooks::set_swap_support_body_tie(true);
    let swapped_rank = rank_follows_the_swapped_chain(&data);
    let result = common::compare_dataset(&data, 2, 2);
    // The greedy shrinker must preserve the divergence while never growing
    // the dataset (this is the only place a divergence is guaranteed, so
    // exercise it here rather than only on real failures).
    let minimal = common::shrink(&data, 2, 2);
    let shrunk_still_diverges = common::compare_dataset(&minimal, 2, 2).is_err();
    profit_core::test_hooks::set_swap_support_body_tie(false);
    assert!(
        swapped_rank,
        "the rank key must follow the swapped chain while the hook is on"
    );
    assert!(
        shrunk_still_diverges,
        "shrinking must preserve the divergence"
    );
    assert!(minimal.len() <= data.len());

    let err = result.expect_err("the harness must detect the swapped support/body-size tie-break");
    assert!(
        err.contains("ranked position"),
        "divergence should surface in the ranked-list comparison, got: {err}"
    );

    // And once the bug is gone the same dataset is clean again.
    common::compare_dataset(&data, 2, 2).expect("clean after the hook is reset");
}
