//! Projected profit of a rule (§4.2): `Prof_pr(r) = X × Y`.
//!
//! * `X` — the pessimistically estimated number of hits in a population of
//!   `N = |Cover(r)|` customers: `X = N · (1 − U_CF(N, E))`, where `E` is
//!   the observed number of non-hits and `U_CF` the Clopper–Pearson upper
//!   limit at confidence `CF` (C4.5's estimator, default `CF = 0.25`);
//! * `Y` — the observed average profit per hit,
//!   `Σ_{t ∈ Cover(r)} p(r, t) / #hits`.

use pm_rules::ProfitMode;
use pm_stats::PessimisticEstimator;

/// Computes `Prof_pr` from coverage observations, through a `U_CF` memo
/// that a pipeline carries from one build to the next (see
/// [`PessimisticEstimator::retain_read`]).
#[derive(Debug, Clone)]
pub struct ProjectedProfit {
    estimator: PessimisticEstimator,
    mode: ProfitMode,
}

impl ProjectedProfit {
    /// A projector with the given confidence level and profit mode.
    pub fn new(cf: f64, mode: ProfitMode) -> Self {
        Self {
            estimator: PessimisticEstimator::new(cf),
            mode,
        }
    }

    /// The profit mode.
    pub fn mode(&self) -> ProfitMode {
        self.mode
    }

    /// `Prof_pr` for a rule covering `n` transactions, of which `hits`
    /// were hits generating `profit` total dollars (`p(r, t)` summed over
    /// the cover; ignored under [`ProfitMode::Confidence`], where each hit
    /// is worth 1).
    pub fn profit(&mut self, n: u64, hits: u64, profit: f64) -> f64 {
        assert!(hits <= n, "hits ({hits}) cannot exceed coverage ({n})");
        if n == 0 || hits == 0 {
            // No evidence of any hit: the pessimistic profit is zero.
            return 0.0;
        }
        let x = self.estimator.projected_hits(n, n - hits);
        let y = match self.mode {
            ProfitMode::Profit => profit / hits as f64,
            ProfitMode::Confidence => 1.0,
        };
        x * y
    }

    /// End one build: keep only the `U_CF` values read since the last
    /// call, and return how many of them were solved afresh.
    pub fn retain_read(&mut self) -> u64 {
        self.estimator.retain_read()
    }
}

impl Default for ProjectedProfit {
    fn default() -> Self {
        Self::new(pm_stats::binomial::DEFAULT_CF, ProfitMode::Profit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cases() {
        let mut p = ProjectedProfit::default();
        assert_eq!(p.profit(0, 0, 0.0), 0.0);
        assert_eq!(p.profit(10, 0, 0.0), 0.0);
    }

    #[test]
    fn perfect_hits_are_discounted_but_close() {
        let mut p = ProjectedProfit::default();
        // 100 covered, all hit, $2 each: observed 200, projected slightly
        // below because U_CF(100, 0) > 0.
        let v = p.profit(100, 100, 200.0);
        assert!(v < 200.0 && v > 190.0, "{v}");
    }

    #[test]
    fn small_samples_are_penalized_harder() {
        let mut p = ProjectedProfit::default();
        // Same observed per-hit profit and hit rate, different evidence.
        let small = p.profit(4, 4, 8.0) / 8.0;
        let large = p.profit(400, 400, 800.0) / 800.0;
        assert!(small < large, "small {small} vs large {large}");
    }

    #[test]
    fn more_misses_less_profit() {
        let mut p = ProjectedProfit::default();
        // Fixed per-hit profit $3.
        let a = p.profit(100, 90, 270.0);
        let b = p.profit(100, 50, 150.0);
        assert!(a > b);
    }

    #[test]
    fn confidence_mode_counts_hits() {
        let mut p = ProjectedProfit::new(0.25, ProfitMode::Confidence);
        // Y = 1, so Prof_pr is just the projected hit count.
        let v = p.profit(100, 80, 12345.0);
        let hits = PessimisticEstimator::new(0.25).projected_hits(100, 20);
        assert!((v - hits).abs() < 1e-12);
    }

    #[test]
    fn matches_hand_computation() {
        let mut p = ProjectedProfit::new(0.25, ProfitMode::Profit);
        let n = 50u64;
        let hits = 40u64;
        let profit = 120.0;
        let u = pm_stats::pessimistic_upper(n, n - hits, 0.25);
        let expect = n as f64 * (1.0 - u) * (profit / hits as f64);
        assert!((p.profit(n, hits, profit) - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn hits_cannot_exceed_cover() {
        ProjectedProfit::default().profit(3, 5, 1.0);
    }
}
