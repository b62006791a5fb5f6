//! Target-sale distributions (§5.2).
//!
//! Every generated transaction receives exactly one target sale. The
//! target *item* is drawn from a frequency distribution over the target
//! items; the *price* is drawn uniformly from the item's price grid; the
//! quantity is 1 (as in the paper's synthetic data).
//!
//! * **Dataset I**: two target items with costs \$2 and \$10; the \$2 item
//!   occurs five times as frequently (a two-rank Zipf) — "the higher the
//!   cost, the fewer the sales".
//! * **Dataset II**: ten target items with `Cost(i) = 10·i`; frequency is
//!   normal over the item index — "most customers buy target items with
//!   the cost around the mean". The paper does not state σ; we use σ = 2
//!   around μ = 5.5 (documented substitution).

use pm_stats::{Discrete, Normal};
use pm_txn::Money;
use serde::{Deserialize, Serialize};

/// Specification of the target items and their sales frequencies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetSpec {
    /// Cost of each target item, in dollars.
    pub costs: Vec<f64>,
    /// Relative sales frequency of each target item (unnormalized).
    pub weights: Vec<f64>,
}

impl TargetSpec {
    /// Dataset I: costs \$2 and \$10 with 5:1 frequency.
    pub fn dataset_i() -> Self {
        Self {
            costs: vec![2.0, 10.0],
            weights: vec![5.0, 1.0],
        }
    }

    /// Dataset II: ten items, `Cost(i) = 10·i`, normal frequency over the
    /// index with μ = 5.5, σ = 2.
    pub fn dataset_ii() -> Self {
        let normal = Normal::new(5.5, 2.0);
        let costs = (1..=10).map(|i| 10.0 * i as f64).collect();
        let weights = (1..=10).map(|i| normal.pdf(i as f64)).collect();
        Self { costs, weights }
    }

    /// A custom specification.
    pub fn custom(costs: Vec<f64>, weights: Vec<f64>) -> Self {
        Self { costs, weights }
    }

    /// Number of target items.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// True when no target items are specified (invalid for generation).
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Cost of target item `k` (0-based) as [`Money`].
    pub fn cost(&self, k: usize) -> Money {
        Money::from_dollars_f64(self.costs[k])
    }

    /// The frequency sampler over target item indices.
    pub fn sampler(&self) -> Discrete {
        assert_eq!(
            self.costs.len(),
            self.weights.len(),
            "costs/weights length mismatch"
        );
        assert!(!self.is_empty(), "need at least one target item");
        Discrete::new(&self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dataset_i_ratio() {
        let spec = TargetSpec::dataset_i();
        assert_eq!(spec.len(), 2);
        assert_eq!(spec.cost(0), Money::from_dollars(2));
        assert_eq!(spec.cost(1), Money::from_dollars(10));
        let d = spec.sampler();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 2];
        for _ in 0..60_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 5.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn dataset_ii_peaks_at_mean() {
        let spec = TargetSpec::dataset_ii();
        assert_eq!(spec.len(), 10);
        assert_eq!(spec.cost(9), Money::from_dollars(100));
        // Weights peak at indices 5/6 (costs 50/60) and fall at the tails.
        let w = &spec.weights;
        assert!(w[4] > w[0] && w[5] > w[9]);
        assert!((w[4] - w[5]).abs() < 1e-12, "symmetric around 5.5");
        assert!(w[0] < w[2]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_rejected() {
        TargetSpec::custom(vec![1.0], vec![1.0, 2.0]).sampler();
    }
}
