//! Deterministic k-fold cross-validation splits (§5.1: "the dataset is
//! divided into 5 partitions of equal size, and each run holds back one
//! (distinct) partition for validating the model").

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A k-fold partition of `0..n`.
#[derive(Debug, Clone)]
pub struct Folds {
    assignments: Vec<usize>,
    k: usize,
}

impl Folds {
    /// Split `n` indices into `k` folds, shuffled by `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ k ≤ n`.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        assert!(k >= 2, "need at least two folds");
        assert!(k <= n, "more folds than data points");
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut assignments = vec![0usize; n];
        for (pos, &idx) in order.iter().enumerate() {
            assignments[idx] = pos % k;
        }
        Self { assignments, k }
    }

    /// Number of data points.
    pub fn n(&self) -> usize {
        self.assignments.len()
    }

    /// `(train, validation)` index lists for run `fold` (0-based).
    pub fn split(&self, fold: usize) -> (Vec<usize>, Vec<usize>) {
        assert!(fold < self.k, "fold out of range");
        let mut train = Vec::with_capacity(self.n() - self.n() / self.k);
        let mut valid = Vec::with_capacity(self.n() / self.k + 1);
        for (i, &f) in self.assignments.iter().enumerate() {
            if f == fold {
                valid.push(i);
            } else {
                train.push(i);
            }
        }
        (train, valid)
    }

    /// Iterate all `(train, validation)` splits.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<usize>, Vec<usize>)> + '_ {
        (0..self.k).map(|f| self.split(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn partitions_exactly() {
        let folds = Folds::new(103, 5, 42);
        let mut seen = HashSet::new();
        for f in 0..5 {
            let (train, valid) = folds.split(f);
            assert_eq!(train.len() + valid.len(), 103);
            for &v in &valid {
                assert!(seen.insert(v), "index {v} validated twice");
                assert!(!train.contains(&v));
            }
        }
        assert_eq!(seen.len(), 103, "every index validated exactly once");
    }

    #[test]
    fn fold_sizes_balanced() {
        let folds = Folds::new(100, 5, 1);
        for f in 0..5 {
            let (_, valid) = folds.split(f);
            assert_eq!(valid.len(), 20);
        }
        // Uneven n: sizes differ by at most 1.
        let folds = Folds::new(101, 5, 1);
        let sizes: Vec<usize> = (0..5).map(|f| folds.split(f).1.len()).collect();
        assert!(sizes.iter().all(|&s| s == 20 || s == 21));
        assert_eq!(sizes.iter().sum::<usize>(), 101);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = Folds::new(50, 5, 7).split(0);
        let b = Folds::new(50, 5, 7).split(0);
        assert_eq!(a, b);
        let c = Folds::new(50, 5, 8).split(0);
        assert_ne!(a, c);
    }

    #[test]
    fn iter_covers_all_folds() {
        let folds = Folds::new(20, 4, 0);
        assert_eq!(folds.iter().count(), 4);
    }

    #[test]
    #[should_panic]
    fn one_fold_rejected() {
        let _ = Folds::new(10, 1, 0);
    }

    #[test]
    #[should_panic]
    fn too_many_folds_rejected() {
        let _ = Folds::new(3, 5, 0);
    }
}
