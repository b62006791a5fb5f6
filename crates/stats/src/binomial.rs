//! The pessimistic binomial upper limit `U_CF(N, E)` of Clopper & Pearson
//! \[CP34\], as used by C4.5 \[Q93\] and by the paper's projected-profit
//! estimator (§4.2).
//!
//! Given that `E` of `N` covered transactions were **not** hit by a rule's
//! recommendation, the sample is treated as a binomial draw and `U_CF` is
//! the upper confidence limit on the true non-hit probability: the largest
//! `p` such that observing `≤ E` failures still has probability `CF`.
//! Formally `U_CF(N, E)` solves
//!
//! ```text
//!     P(X ≤ E | N, p) = CF        (X ~ Binomial(N, p))
//! ```
//!
//! The projected number of hits of a rule covering `N` transactions is then
//! `X = N · (1 − U_CF(N, E))`.

use crate::beta::inc_beta;
use std::collections::HashMap;

/// Default confidence level used by C4.5 (25%).
pub const DEFAULT_CF: f64 = 0.25;

/// Cumulative distribution `P(X ≤ k)` of `Binomial(n, p)`.
///
/// Computed through the regularized incomplete beta:
/// `P(X ≤ k) = I_{1−p}(n − k, k + 1)` for `k < n`, and `1` for `k ≥ n`.
pub fn binomial_cdf(k: u64, n: u64, p: f64) -> f64 {
    assert!(n > 0, "binomial_cdf requires n > 0");
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    if k >= n {
        return 1.0;
    }
    if p == 0.0 {
        return 1.0;
    }
    if p == 1.0 {
        return 0.0;
    }
    inc_beta((n - k) as f64, (k + 1) as f64, 1.0 - p)
}

/// The Clopper–Pearson / C4.5 pessimistic upper limit `U_CF(N, E)`.
///
/// * `n` — number of covered transactions (must be > 0);
/// * `e` — number of them that were not hit (`e ≤ n`);
/// * `cf` — confidence level in `(0, 1)`; C4.5's default is `0.25`.
///
/// Special cases: `e == n` yields `1.0`; `e == 0` has the closed form
/// `1 − CF^{1/N}` (the equation `(1 − p)^N = CF`).
///
/// The general case is solved by bisection on the strictly decreasing
/// function `p ↦ P(X ≤ E | N, p)` to absolute tolerance `1e-12`.
pub fn pessimistic_upper(n: u64, e: u64, cf: f64) -> f64 {
    assert!(n > 0, "pessimistic_upper requires n > 0");
    assert!(e <= n, "e ({e}) must be ≤ n ({n})");
    assert!(
        cf > 0.0 && cf < 1.0,
        "confidence level must be in (0,1), got {cf}"
    );
    if e == n {
        return 1.0;
    }
    if e == 0 {
        return 1.0 - cf.powf(1.0 / n as f64);
    }
    // P(X ≤ e | p) is continuous and strictly decreasing in p, from 1 at
    // p = 0 to 0 at p = 1, so a unique root exists in (e/n, 1).
    let mut lo = e as f64 / n as f64; // cdf ≥ 1/2 ≥ CF here for CF ≤ 0.5…
    if binomial_cdf(e, n, lo) < cf {
        lo = 0.0; // …but stay correct for any CF.
    }
    let mut hi = 1.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if binomial_cdf(e, n, mid) > cf {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// A reusable pessimistic estimator with a fixed confidence level and a
/// memo of the `U_CF` values it has read.
///
/// `U_CF` is a pure function of `(n, e, cf)`, so a memo can outlive one
/// covering-tree build: successive builds over a growing stream read
/// mostly the same `(n, e)` pairs. [`retain_read`](Self::retain_read)
/// ends one build and keeps only the values it read, so the memo never
/// grows past one build's pairs.
#[derive(Debug, Clone)]
pub struct PessimisticEstimator {
    cf: f64,
    /// The values read since the last `retain_read`.
    read: HashMap<(u64, u64), f64>,
    /// The values the previous build read that this one has not yet.
    earlier: HashMap<(u64, u64), f64>,
    /// How many values were solved (not found in either map) since the
    /// last `retain_read`.
    solved: u64,
}

impl PessimisticEstimator {
    /// Create an estimator with confidence level `cf` (see
    /// [`pessimistic_upper`] for the domain).
    pub fn new(cf: f64) -> Self {
        assert!(cf > 0.0 && cf < 1.0, "confidence level must be in (0,1)");
        Self {
            cf,
            read: HashMap::new(),
            earlier: HashMap::new(),
            solved: 0,
        }
    }

    /// The confidence level this estimator was built with.
    pub fn cf(&self) -> f64 {
        self.cf
    }

    /// `U_CF(n, e)` — memoized.
    pub fn upper(&mut self, n: u64, e: u64) -> f64 {
        if let Some(&v) = self.read.get(&(n, e)) {
            return v;
        }
        let v = self.earlier.remove(&(n, e)).unwrap_or_else(|| {
            self.solved += 1;
            pessimistic_upper(n, e, self.cf)
        });
        self.read.insert((n, e), v);
        v
    }

    /// Projected number of hits in a population of `n` covered
    /// transactions, of which `e` were observed non-hits:
    /// `X = n · (1 − U_CF(n, e))` (§4.2 of the paper).
    pub fn projected_hits(&mut self, n: u64, e: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        n as f64 * (1.0 - self.upper(n, e))
    }

    /// End one build: forget every value not read since the last call,
    /// and return how many values were solved in between.
    pub fn retain_read(&mut self) -> u64 {
        std::mem::swap(&mut self.read, &mut self.earlier);
        self.read.clear();
        std::mem::take(&mut self.solved)
    }
}

impl Default for PessimisticEstimator {
    fn default() -> Self {
        Self::new(DEFAULT_CF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    /// Direct summation of the binomial pmf, for cross-checking.
    fn cdf_direct(k: u64, n: u64, p: f64) -> f64 {
        let mut total = 0.0;
        for i in 0..=k.min(n) {
            let ln_choose = crate::gamma::ln_gamma(n as f64 + 1.0)
                - crate::gamma::ln_gamma(i as f64 + 1.0)
                - crate::gamma::ln_gamma((n - i) as f64 + 1.0);
            total += (ln_choose + i as f64 * p.ln() + (n - i) as f64 * (1.0 - p).ln()).exp();
        }
        total
    }

    #[test]
    fn cdf_matches_direct_sum() {
        for &(k, n, p) in &[
            (0u64, 10u64, 0.3f64),
            (3, 10, 0.3),
            (5, 10, 0.5),
            (9, 10, 0.9),
            (2, 50, 0.05),
            (12, 100, 0.1),
        ] {
            close(binomial_cdf(k, n, p), cdf_direct(k, n, p), 1e-10);
        }
    }

    #[test]
    fn cdf_edges() {
        assert_eq!(binomial_cdf(10, 10, 0.5), 1.0);
        assert_eq!(binomial_cdf(3, 10, 0.0), 1.0);
        assert_eq!(binomial_cdf(3, 10, 1.0), 0.0);
    }

    #[test]
    fn zero_error_closed_form() {
        // C4.5's best-known special case: U_CF(N, 0) = 1 − CF^(1/N).
        for &n in &[1u64, 2, 6, 9, 16, 100] {
            let expect = 1.0 - 0.25f64.powf(1.0 / n as f64);
            close(pessimistic_upper(n, 0, 0.25), expect, 1e-12);
        }
        // Quinlan's book quotes U_25%(1, 0) = 0.75 and U_25%(6, 0) ≈ 0.206.
        close(pessimistic_upper(1, 0, 0.25), 0.75, 1e-12);
        close(pessimistic_upper(6, 0, 0.25), 0.2063, 5e-4);
        close(pessimistic_upper(9, 0, 0.25), 0.1429, 5e-4);
    }

    #[test]
    fn upper_limit_satisfies_defining_equation() {
        for &(n, e) in &[(10u64, 1u64), (20, 3), (50, 10), (100, 40), (7, 6)] {
            let u = pessimistic_upper(n, e, 0.25);
            close(binomial_cdf(e, n, u), 0.25, 1e-8);
        }
    }

    #[test]
    fn all_errors_is_one() {
        assert_eq!(pessimistic_upper(5, 5, 0.25), 1.0);
    }

    #[test]
    fn monotone_in_e() {
        // More observed failures ⇒ larger pessimistic failure bound.
        let mut prev = 0.0;
        for e in 0..=20 {
            let u = pessimistic_upper(20, e, 0.25);
            assert!(u > prev, "U not increasing at e={e}");
            prev = u;
        }
    }

    #[test]
    fn tightens_with_n() {
        // With the same observed rate, more evidence ⇒ tighter bound.
        let loose = pessimistic_upper(10, 2, 0.25);
        let tight = pessimistic_upper(100, 20, 0.25);
        assert!(tight < loose);
    }

    #[test]
    fn higher_cf_means_lower_upper_bound() {
        // CF is the tail mass we allow; larger CF is *less* pessimistic.
        let u10 = pessimistic_upper(30, 5, 0.10);
        let u25 = pessimistic_upper(30, 5, 0.25);
        let u50 = pessimistic_upper(30, 5, 0.50);
        assert!(u10 > u25 && u25 > u50);
    }

    #[test]
    fn estimator_projects_hits() {
        let mut est = PessimisticEstimator::default();
        // All hits observed, large N ⇒ projection stays close to N.
        let hits = est.projected_hits(1000, 0);
        assert!(hits > 995.0 && hits < 1000.0);
        // All misses ⇒ zero projected hits.
        assert_eq!(est.projected_hits(10, 10), 0.0);
        // Empty coverage ⇒ zero.
        assert_eq!(est.projected_hits(0, 0), 0.0);
    }

    #[test]
    fn estimator_cache_consistent() {
        let mut est = PessimisticEstimator::new(0.25);
        let a = est.upper(40, 7);
        let b = est.upper(40, 7);
        assert_eq!(a, b);
        close(a, pessimistic_upper(40, 7, 0.25), 0.0);
    }

    /// A carried value has the bits of a fresh solve, and after
    /// `retain_read` the memo holds exactly the pairs read since the
    /// call before: a pair read again is not solved again, and a pair
    /// the last build did not read is solved afresh.
    #[test]
    fn carried_values_equal_fresh_solves_and_only_read_pairs_are_kept() {
        let pairs = [(40u64, 7u64), (9, 0), (12, 12), (300, 41), (5, 2)];
        let fresh = |(n, e): (u64, u64)| pessimistic_upper(n, e, 0.25).to_bits();
        let mut est = PessimisticEstimator::new(0.25);
        for &p in &pairs {
            assert_eq!(est.upper(p.0, p.1).to_bits(), fresh(p));
        }
        assert_eq!(est.upper(40, 7).to_bits(), fresh((40, 7)));
        assert_eq!(est.retain_read(), pairs.len() as u64);
        // The next build reads two of the five pairs and one new one.
        for &p in &[(300u64, 41u64), (9, 0), (300, 41), (77, 3)] {
            assert_eq!(est.upper(p.0, p.1).to_bits(), fresh(p));
        }
        assert_eq!(est.retain_read(), 1, "only (77, 3) is new");
        // Now only (300, 41), (9, 0) and (77, 3) are kept.
        for &p in &pairs {
            assert_eq!(est.upper(p.0, p.1).to_bits(), fresh(p));
        }
        assert_eq!(
            est.retain_read(),
            3,
            "(40, 7), (12, 12), (5, 2) were dropped"
        );
        assert_eq!(est.upper(77, 3).to_bits(), fresh((77, 3)));
        assert_eq!(
            est.retain_read(),
            1,
            "(77, 3) was not read by the build before"
        );
    }

    #[test]
    fn pessimism_exceeds_observed_rate() {
        // The upper bound is above the raw observed rate (that is the point).
        for &(n, e) in &[(10u64, 2u64), (100, 5), (30, 0)] {
            assert!(pessimistic_upper(n, e, 0.25) > e as f64 / n as f64);
        }
    }
}
