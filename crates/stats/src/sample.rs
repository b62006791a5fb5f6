//! Samplers used by the synthetic data generators.
//!
//! The paper's evaluation (§5.2) needs a two-item 5:1 split (Dataset I
//! target frequencies, a [`Discrete`]) and a normal distribution
//! (Dataset II), and the IBM Quest generator needs Poisson (transaction
//! and pattern sizes) and exponential (pattern weights) draws. Only the
//! `rand` crate is allowed offline, so the distributions themselves are
//! implemented here, each with an explicit, seedable `Rng` argument.

use rand::Rng;

/// Normal distribution sampled with the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// A normal with the given mean and standard deviation (`sd > 0`).
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd.is_finite() && sd > 0.0, "standard deviation must be > 0");
        assert!(mean.is_finite(), "mean must be finite");
        Self { mean, sd }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.sd;
        (-0.5 * z * z).exp() / (self.sd * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Draw one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Marsaglia polar: rejection inside the unit disc. One accepted
        // pair yields two variates; the second is discarded for the sake
        // of a stateless sampler (determinism per call order matters more
        // here than halving the draw count).
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let mul = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.sd * (u * mul);
            }
        }
    }
}

/// Poisson distribution, sampled with Knuth's product method — exact and
/// fast for the small means (≈ 2–10) the Quest generator uses. For large
/// means (> 60) it falls back to a normal approximation, rounded and
/// clamped at zero, which keeps the generator usable for stress tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    mean: f64,
}

impl Poisson {
    /// A Poisson with mean `λ > 0`.
    pub fn new(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "Poisson mean must be > 0");
        Self { mean }
    }

    /// The mean `λ`.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draw one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.mean > 60.0 {
            let n = Normal::new(self.mean, self.mean.sqrt()).sample(rng);
            return n.round().max(0.0) as u64;
        }
        let limit = (-self.mean).exp();
        let mut k = 0u64;
        let mut product: f64 = rng.gen();
        while product > limit {
            k += 1;
            product *= rng.gen::<f64>();
        }
        k
    }
}

/// Exponential distribution with the given rate, sampled by inversion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// An exponential with rate `λ > 0` (mean `1/λ`).
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be > 0");
        Self { rate }
    }

    /// An exponential with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        Self::new(1.0 / mean)
    }

    /// Draw one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen() yields [0,1); use 1−u to avoid ln(0).
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / self.rate
    }
}

/// Binomial distribution `Binomial(n, p)`, sampled as a sum of Bernoulli
/// draws — exact and fast for the tiny `n` (price-grid size) used by the
/// data generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u32,
    p: f64,
}

impl Binomial {
    /// A binomial with `n` trials and success probability `p ∈ [0, 1]`.
    pub fn new(n: u32, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        Self { n, p }
    }

    /// Number of trials.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Draw one variate in `0..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        (0..self.n).filter(|_| rng.gen_bool(self.p)).count() as u32
    }
}

/// Discrete distribution over `0..weights.len()` proportional to the given
/// non-negative weights; O(log n) sampling by inversion.
#[derive(Debug, Clone)]
pub struct Discrete {
    cumulative: Vec<f64>,
}

impl Discrete {
    /// Build from raw weights. At least one weight must be positive; all
    /// must be finite and non-negative.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "Discrete requires at least one weight");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite, ≥ 0");
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "at least one weight must be positive");
        for c in &mut cumulative {
            *c /= total;
        }
        Self { cumulative }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false: construction requires a non-empty weight vector.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draw a category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cumulative.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_moments() {
        let n = Normal::new(3.0, 2.0);
        let mut rng = rng();
        let draws: Vec<f64> = (0..50_000).map(|_| n.sample(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let var =
            draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (draws.len() - 1) as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn normal_pdf_peak_at_mean() {
        let n = Normal::new(0.0, 1.0);
        assert!(n.pdf(0.0) > n.pdf(0.5));
        assert!((n.pdf(0.0) - 0.398_942_280_4).abs() < 1e-9);
        assert!((n.pdf(1.0) - n.pdf(-1.0)).abs() < 1e-12);
    }

    #[test]
    fn poisson_mean_matches() {
        let p = Poisson::new(10.0);
        let mut rng = rng();
        let total: u64 = (0..50_000).map(|_| p.sample(&mut rng)).sum();
        let mean = total as f64 / 50_000.0;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_mean_fallback() {
        let p = Poisson::new(200.0);
        let mut rng = rng();
        let total: u64 = (0..20_000).map(|_| p.sample(&mut rng)).sum();
        let mean = total as f64 / 20_000.0;
        assert!((mean - 200.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn exponential_mean_matches() {
        let e = Exponential::with_mean(4.0);
        let mut rng = rng();
        let total: f64 = (0..50_000).map(|_| e.sample(&mut rng)).sum();
        let mean = total / 50_000.0;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn discrete_respects_weights() {
        let d = Discrete::new(&[1.0, 0.0, 3.0]);
        let mut rng = rng();
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn binomial_mean_and_range() {
        let b = Binomial::new(3, 0.4);
        let mut rng = rng();
        let mut total = 0u64;
        for _ in 0..30_000 {
            let v = b.sample(&mut rng);
            assert!(v <= 3);
            total += v as u64;
        }
        let mean = total as f64 / 30_000.0;
        assert!((mean - 1.2).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn binomial_uniform_mixture() {
        // With θ ~ U[0,1], Binomial(n, θ) is uniform over 0..=n — the
        // property the price-sensitivity generator relies on.
        let mut rng = rng();
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            let theta: f64 = rng.gen();
            counts[Binomial::new(3, theta).sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 40_000.0;
            assert!((frac - 0.25).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let d = Discrete::new(&[5.0, 1.0]);
        let n = Normal::new(0.0, 1.0);
        let p = Poisson::new(4.0);
        let draws = |seed: u64| {
            let mut r = StdRng::seed_from_u64(seed);
            (0..100)
                .map(|_| {
                    (
                        d.sample(&mut r),
                        n.sample(&mut r).to_bits(),
                        p.sample(&mut r),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
    }

    #[test]
    #[should_panic]
    fn discrete_rejects_all_zero() {
        let _ = Discrete::new(&[0.0, 0.0]);
    }
}
