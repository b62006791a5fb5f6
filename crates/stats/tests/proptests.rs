//! Property-based tests for the numerics substrate.

use pm_stats::{binomial_cdf, pessimistic_upper, Binomial, Discrete, Normal, Poisson};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// The incomplete-beta-based CDF equals direct pmf summation.
    #[test]
    fn cdf_equals_direct_sum(n in 1u64..60, k in 0u64..60, p in 0.01f64..0.99) {
        let k = k.min(n);
        let direct: f64 = (0..=k)
            .map(|i| {
                let ln_choose = ln_gamma(n as f64 + 1.0)
                    - ln_gamma(i as f64 + 1.0)
                    - ln_gamma((n - i) as f64 + 1.0);
                (ln_choose + i as f64 * p.ln() + (n - i) as f64 * (1.0 - p).ln()).exp()
            })
            .sum();
        prop_assert!((binomial_cdf(k, n, p) - direct).abs() < 1e-9);
    }

    /// The pessimistic upper bound solves its defining equation and
    /// exceeds the observed rate.
    #[test]
    fn upper_bound_properties(n in 1u64..200, e_frac in 0.0f64..1.0, cf in 0.05f64..0.95) {
        let e = ((n as f64) * e_frac) as u64;
        let u = pessimistic_upper(n, e, cf);
        // The bound exceeds the observed rate only when the allowed tail
        // mass is at most 1/2 (CF > 0.5 is *optimistic*).
        if cf <= 0.5 {
            prop_assert!(u >= e as f64 / n as f64 - 1e-12);
        }
        prop_assert!(u <= 1.0);
        if e < n {
            prop_assert!((binomial_cdf(e, n, u) - cf).abs() < 1e-6);
        }
    }

    /// More observed failures never lower the bound; more data at the
    /// same rate never raises it above the smaller-sample bound.
    #[test]
    fn upper_bound_monotonicity(n in 2u64..100, e in 0u64..100) {
        let e = e.min(n - 1);
        let u1 = pessimistic_upper(n, e, 0.25);
        let u2 = pessimistic_upper(n, e + 1, 0.25);
        prop_assert!(u2 >= u1 - 1e-12);
        let u_double = pessimistic_upper(2 * n, 2 * e, 0.25);
        prop_assert!(u_double <= u1 + 1e-9);
    }

    /// Samplers stay within their supports.
    #[test]
    fn sampler_supports(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Discrete::new(&[5.0, 1.0, 2.0]);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) < 3);
        }
        let b = Binomial::new(5, 0.3);
        for _ in 0..50 {
            prop_assert!(b.sample(&mut rng) <= 5);
        }
        let p = Poisson::new(3.0);
        for _ in 0..50 {
            let _ = p.sample(&mut rng); // no panic, any u64
        }
        let n = Normal::new(1.0, 2.0);
        for _ in 0..50 {
            prop_assert!(n.sample(&mut rng).is_finite());
        }
    }

    /// Discrete sampling never returns a zero-weight category.
    #[test]
    fn discrete_respects_zero_weights(seed in 0u64..500, zero_at in 0usize..4) {
        let mut weights = [1.0f64; 4];
        weights[zero_at] = 0.0;
        let d = Discrete::new(&weights);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert_ne!(d.sample(&mut rng), zero_at);
        }
    }
}

fn ln_gamma(x: f64) -> f64 {
    pm_stats::gamma::ln_gamma(x)
}
