//! Fixed-width histogram, used to reproduce the profit-distribution panels
//! (Figures 3(e) and 4(e)) of the paper.

use serde::{Deserialize, Serialize};

/// A histogram with `bins` equal-width buckets over the observed range
/// `[lo, hi]` of its values; the maximum lands in the last bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// An empty histogram over `[lo, hi]` with `bins ≥ 1` buckets.
    fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins >= 1, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Build a histogram spanning the observed range of `values`.
    pub fn of(values: &[f64], bins: usize) -> Self {
        assert!(!values.is_empty(), "cannot infer range from empty data");
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let hi = if hi > lo { hi } else { lo + 1.0 };
        let mut h = Self::new(lo, hi, bins);
        for &v in values {
            h.record(v);
        }
        h
    }

    /// Record one value of `[lo, hi]`.
    fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "histogram only accepts finite values");
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = (((v - self.lo) / width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Number of buckets.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// `(low, high)` edges of bucket `i`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin index out of range");
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width)
    }

    /// Midpoint of bucket `i`.
    pub fn bin_mid(&self, i: usize) -> f64 {
        let (lo, hi) = self.bin_range(i);
        0.5 * (lo + hi)
    }

    /// Render as `(midpoint, count)` rows, the format the figure binaries
    /// print.
    pub fn rows(&self) -> Vec<(f64, u64)> {
        (0..self.bins())
            .map(|i| (self.bin_mid(i), self.counts[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bucket counts, read off the rows.
    fn counts(h: &Histogram) -> Vec<u64> {
        h.rows().into_iter().map(|(_, c)| c).collect()
    }

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(0.0);
        h.record(1.9);
        h.record(2.0);
        h.record(9.99);
        h.record(10.0); // boundary: last bin
        assert_eq!(counts(&h), vec![2, 1, 0, 0, 2]);
    }

    #[test]
    fn of_spans_data() {
        let h = Histogram::of(&[1.0, 2.0, 3.0, 4.0], 4);
        assert_eq!(counts(&h), vec![1, 1, 1, 1]);
        assert_eq!(h.bin_range(0).0, 1.0);
        assert_eq!(h.bin_range(3).1, 4.0);
    }

    #[test]
    fn of_constant_data() {
        let h = Histogram::of(&[5.0, 5.0, 5.0], 3);
        assert_eq!(counts(&h), vec![3, 0, 0]);
    }

    #[test]
    fn rows_align_with_bins() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.record(0.5);
        h.record(3.5);
        let rows = h.rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], (0.5, 1));
        assert_eq!(rows[3], (3.5, 1));
    }
}
