//! The most-profitable-first (MPF) rank order (Definition 6).
//!
//! `r` is ranked higher than `r'` by, in order:
//!
//! 1. larger recommendation profit `Prof_re`;
//! 2. larger support (generality);
//! 3. smaller body (simplicity);
//! 4. earlier generation (totality of order).
//!
//! Confidence is not a criterion — it is already factored into `Prof_re`
//! (and under [`ProfitMode::Confidence`] `Prof_re` *is* confidence).

use pm_rules::{MinedRules, ProfitMode, Rule};
use std::cmp::Ordering;

/// Test-only fault injection for the differential oracle harness.
///
/// The harness must be able to prove it *would* catch a ranking bug; this
/// hook lets a test deliberately break the §3.2 tie-chain (swapping the
/// support and body-size criteria) without touching production code paths.
/// It is process-global — tests that enable it must run in their own
/// integration-test binary.
#[doc(hidden)]
pub mod test_hooks {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SWAP_SUPPORT_BODY_TIE: AtomicBool = AtomicBool::new(false);

    /// Enable or disable the swapped support/body-size tie-break.
    pub fn set_swap_support_body_tie(on: bool) {
        SWAP_SUPPORT_BODY_TIE.store(on, Ordering::Relaxed);
    }

    /// Whether the swapped tie-break is active.
    pub fn swap_support_body_tie() -> bool {
        SWAP_SUPPORT_BODY_TIE.load(Ordering::Relaxed)
    }
}

/// Compare two rules by MPF rank under `mode`.
/// `Ordering::Greater` means `a` is ranked **higher** than `b`.
pub fn mpf_cmp(a: &Rule, b: &Rule, mode: ProfitMode) -> Ordering {
    MpfKey::of(a, mode).cmp(&MpfKey::of(b, mode))
}

/// A rule's MPF rank as one integer triple, computed once: keys compare
/// exactly as [`mpf_cmp`] compares their rules, so sorting keys sorts
/// the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MpfKey(u64, u64, u32);

impl MpfKey {
    /// The key of `rule` under `mode`.
    pub(crate) fn of(rule: &Rule, mode: ProfitMode) -> MpfKey {
        // `Prof_re` in `f64::total_cmp` order: flip a negative's bits,
        // set a positive's sign bit.
        let bits = rule.recommendation_profit(mode).to_bits();
        let profit = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        // Generality: larger support ranks higher.
        let support = u64::from(rule.support_count());
        // Simplicity: smaller body ranks higher.
        let simple = u64::from(u32::MAX - u32::try_from(rule.body_len()).unwrap_or(u32::MAX));
        let ties = if test_hooks::swap_support_body_tie() {
            // Injected bug (tests only): simplicity before generality.
            simple << 32 | support
        } else {
            support << 32 | simple
        };
        // Totality: earlier generation ranks higher.
        MpfKey(profit, ties, u32::MAX - rule.gen_index)
    }
}

/// Sort rule indices into descending MPF rank (highest rank first).
pub fn sort_by_rank_desc(rules: &mut [Rule], mode: ProfitMode) {
    rules.sort_by(|a, b| mpf_cmp(b, a, mode));
}

/// The complete MPF-ranked rule list of a mining run: every mined rule
/// plus the default rule, highest rank first. This is the list §3.2's
/// recommender conceptually walks; the covering-tree build consumes the
/// same order, so it is the natural surface for differential comparison
/// against a reference implementation.
pub fn ranked_rules(mined: &MinedRules, mode: ProfitMode) -> Vec<Rule> {
    let mut rules = mined.rules().to_vec();
    rules.push(mined.default_rule(mode));
    sort_by_rank_desc(&mut rules, mode);
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_rules::{GsId, HeadId};

    fn rule(body_len: usize, body_count: u32, hits: u32, profit: f64, gen: u32) -> Rule {
        Rule {
            body: (0..body_len as u32).map(GsId).collect(),
            head: HeadId(0),
            body_count,
            hits,
            profit,
            gen_index: gen,
        }
    }

    #[test]
    fn profit_per_recommendation_first() {
        // a: Prof_re = 10/10 = 1.0; b: Prof_re = 5/2 = 2.5.
        let a = rule(1, 10, 5, 10.0, 0);
        let b = rule(3, 2, 1, 5.0, 1);
        assert_eq!(mpf_cmp(&b, &a, ProfitMode::Profit), Ordering::Greater);
    }

    #[test]
    fn generality_breaks_profit_ties() {
        // Same Prof_re = 1.0, different support (hits).
        let a = rule(1, 10, 8, 10.0, 0);
        let b = rule(1, 20, 12, 20.0, 1);
        assert_eq!(mpf_cmp(&b, &a, ProfitMode::Profit), Ordering::Greater);
    }

    #[test]
    fn simplicity_breaks_support_ties() {
        let a = rule(3, 10, 5, 10.0, 0);
        let b = rule(1, 10, 5, 10.0, 1);
        assert_eq!(mpf_cmp(&b, &a, ProfitMode::Profit), Ordering::Greater);
    }

    #[test]
    fn generation_order_is_final_tiebreak() {
        let a = rule(2, 10, 5, 10.0, 3);
        let b = rule(2, 10, 5, 10.0, 7);
        assert_eq!(mpf_cmp(&a, &b, ProfitMode::Profit), Ordering::Greater);
        // A rule never outranks itself.
        assert_eq!(mpf_cmp(&a, &a, ProfitMode::Profit), Ordering::Equal);
    }

    #[test]
    fn confidence_mode_ranks_by_confidence() {
        // a: conf 0.9 but low profit; b: conf 0.5, high profit.
        let a = rule(1, 10, 9, 0.1, 0);
        let b = rule(1, 10, 5, 99.0, 1);
        assert_eq!(mpf_cmp(&a, &b, ProfitMode::Confidence), Ordering::Greater);
        assert_eq!(mpf_cmp(&b, &a, ProfitMode::Profit), Ordering::Greater);
    }

    #[test]
    fn order_is_total_and_antisymmetric() {
        let rules: Vec<Rule> = vec![
            rule(1, 10, 5, 10.0, 0),
            rule(2, 10, 5, 10.0, 1),
            rule(1, 20, 5, 20.0, 2),
            rule(1, 10, 5, 10.0, 3),
            rule(0, 30, 9, 3.0, 4),
        ];
        for a in &rules {
            for b in &rules {
                let ab = mpf_cmp(a, b, ProfitMode::Profit);
                let ba = mpf_cmp(b, a, ProfitMode::Profit);
                assert_eq!(ab, ba.reverse());
                if ab == Ordering::Equal {
                    assert_eq!(a.gen_index, b.gen_index, "only identical rules tie");
                }
            }
        }
    }

    /// Regression: `mpf_cmp` is built on `total_cmp`, so a NaN `Prof_re`
    /// (degenerate profit upstream) must neither panic nor break the
    /// total order — NaN sorts above every finite profit and ties among
    /// NaNs fall through to the remaining criteria.
    #[test]
    fn nan_profit_keeps_order_total() {
        let nan_a = rule(1, 10, 5, f64::NAN, 0);
        let nan_b = rule(1, 10, 5, f64::NAN, 1);
        let finite = rule(1, 10, 5, 1e300, 2);
        for mode in [ProfitMode::Profit, ProfitMode::Confidence] {
            for a in [&nan_a, &nan_b, &finite] {
                for b in [&nan_a, &nan_b, &finite] {
                    let ab = mpf_cmp(a, b, mode);
                    let ba = mpf_cmp(b, a, mode);
                    assert_eq!(ab, ba.reverse());
                    if std::ptr::eq(a, b) {
                        assert_eq!(ab, Ordering::Equal);
                    }
                }
            }
        }
        // Positive NaN is +∞-adjacent under the total order.
        assert_eq!(
            mpf_cmp(&nan_a, &finite, ProfitMode::Profit),
            Ordering::Greater
        );
        // Two NaN profits fall through to the generation tie-break.
        assert_eq!(
            mpf_cmp(&nan_a, &nan_b, ProfitMode::Profit),
            Ordering::Greater
        );
        // Sorting a mixed set must not panic and keeps NaNs first.
        let mut rules = vec![finite.clone(), nan_b.clone(), nan_a.clone()];
        sort_by_rank_desc(&mut rules, ProfitMode::Profit);
        assert!(rules[0].profit.is_nan() && rules[1].profit.is_nan());
        assert_eq!(rules[2].gen_index, 2);
    }

    /// The §3.2 tie chain written out: what [`MpfKey`] must order as.
    /// (`tests/differential_injected_bug.rs` checks the swapped chain.)
    fn chain(a: &Rule, b: &Rule, mode: ProfitMode) -> Ordering {
        a.recommendation_profit(mode)
            .total_cmp(&b.recommendation_profit(mode))
            .then(a.support_count().cmp(&b.support_count()))
            .then(b.body_len().cmp(&a.body_len()))
            .then(b.gen_index.cmp(&a.gen_index))
    }

    #[test]
    fn key_orders_as_the_tie_chain() {
        let profits = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1e-300,
            -1e-300,
            2.5,
            -2.5,
            1e300,
        ];
        let mut rules = Vec::new();
        let mut gen = 0;
        for &profit in &profits {
            for body_count in [0u32, 3, 10] {
                for (hits, body_len) in [(0u32, 1usize), (2, 1), (2, 3), (3, 1), (3, 3)] {
                    rules.push(rule(body_len, body_count, hits, profit, gen));
                    gen += 1;
                }
            }
        }
        rules.push(rule(0, 10, 3, 2.5, u32::MAX));
        for mode in [ProfitMode::Profit, ProfitMode::Confidence] {
            for a in &rules {
                for b in &rules {
                    assert_eq!(mpf_cmp(a, b, mode), chain(a, b, mode));
                }
            }
        }
    }

    #[test]
    fn sorting_is_descending() {
        let mut rules = vec![
            rule(1, 10, 5, 10.0, 0),  // Prof_re 1.0
            rule(1, 2, 2, 10.0, 1),   // Prof_re 5.0
            rule(1, 10, 10, 25.0, 2), // Prof_re 2.5
        ];
        sort_by_rank_desc(&mut rules, ProfitMode::Profit);
        let res: Vec<u32> = rules.iter().map(|r| r.gen_index).collect();
        assert_eq!(res, vec![1, 2, 0]);
    }
}
