//! A fixed-capacity bitset over transaction ids.
//!
//! The miner and the recommender builder live on three operations —
//! intersection, intersection *cardinality* (without materializing), and
//! set-bit iteration — so this type implements exactly those, on `u64`
//! words with `count_ones` popcounts.

use serde::{Deserialize, Serialize};

/// A fixed-size set of `u32` ids in `0..capacity`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSet {
    capacity: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set over `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// A set containing all of `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Zero the bits beyond `capacity` in the last word.
    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.capacity;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// The capacity (universe size).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Grow the universe to `new_capacity`, keeping every set bit. The
    /// appended id range `old_capacity..new_capacity` starts empty, so
    /// the result equals a fresh set of the new capacity holding the
    /// same ids.
    ///
    /// # Panics
    ///
    /// Panics when `new_capacity < capacity` — a bitset never forgets
    /// ids by shrinking.
    pub fn grow(&mut self, new_capacity: usize) {
        assert!(
            new_capacity >= self.capacity,
            "capacity can only grow ({} -> {new_capacity})",
            self.capacity
        );
        self.capacity = new_capacity;
        self.words.resize(new_capacity.div_ceil(64), 0);
    }

    /// Insert `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id ≥ capacity`.
    pub fn insert(&mut self, id: usize) {
        assert!(
            id < self.capacity,
            "id {id} out of capacity {}",
            self.capacity
        );
        self.words[id / 64] |= 1 << (id % 64);
    }

    /// Remove `id`.
    pub fn remove(&mut self, id: usize) {
        assert!(
            id < self.capacity,
            "id {id} out of capacity {}",
            self.capacity
        );
        self.words[id / 64] &= !(1 << (id % 64));
    }

    /// Membership test.
    pub fn contains(&self, id: usize) -> bool {
        id < self.capacity && self.words[id / 64] & (1 << (id % 64)) != 0
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `|self ∩ other|` without materializing the intersection.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `self ∩ other` as a new set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        debug_assert_eq!(self.capacity, other.capacity);
        BitSet {
            capacity: self.capacity,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// In-place `self &= !other` (set difference).
    pub fn subtract(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True when no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The backing `u64` words (bit `i % 64` of word `i / 64` is id `i`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// A set over `0..capacity` from pre-built words. The caller must not
    /// set bits at or beyond `capacity`.
    pub(crate) fn from_words(capacity: usize, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), capacity.div_ceil(64));
        Self { capacity, words }
    }

    /// Iterate set ids in increasing order.
    pub fn iter(&self) -> Ones<'_> {
        Ones::over_words(&self.words)
    }
}

/// Iterator over the set bits of a [`BitSet`].
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> Ones<'a> {
    /// Iterate the set bits of a raw word slice in increasing order.
    pub(crate) fn over_words(words: &'a [u64]) -> Self {
        Ones {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(200);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(199);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(199));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 4);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn intersection_ops_agree() {
        let mut a = BitSet::new(300);
        let mut b = BitSet::new(300);
        for i in (0..300).step_by(3) {
            a.insert(i);
        }
        for i in (0..300).step_by(5) {
            b.insert(i);
        }
        let inter = a.intersection(&b);
        assert_eq!(inter.count(), a.intersection_count(&b));
        assert_eq!(inter.count(), 20); // multiples of 15 in 0..300
    }

    #[test]
    fn subtract() {
        let mut a = BitSet::full(10);
        let mut b = BitSet::new(10);
        b.insert(2);
        b.insert(7);
        a.subtract(&b);
        assert_eq!(a.count(), 8);
        assert!(!a.contains(2) && !a.contains(7));
        assert!(a.contains(0));
    }

    #[test]
    fn iterate_in_order() {
        let mut s = BitSet::new(200);
        for &i in &[5usize, 64, 65, 130, 199] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![5, 64, 65, 130, 199]);
    }

    #[test]
    fn empty_iteration() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let z = BitSet::new(0);
        assert_eq!(z.iter().count(), 0);
        assert_eq!(z.count(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_capacity_insert_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn randomized_against_reference() {
        use std::collections::BTreeSet;
        // Deterministic pseudo-random xorshift.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let cap = 500;
        let mut bs_a = BitSet::new(cap);
        let mut bs_b = BitSet::new(cap);
        let mut ref_a = BTreeSet::new();
        let mut ref_b = BTreeSet::new();
        for _ in 0..1000 {
            let id = (next() % cap as u64) as usize;
            if next() % 2 == 0 {
                bs_a.insert(id);
                ref_a.insert(id);
            } else {
                bs_b.insert(id);
                ref_b.insert(id);
            }
        }
        assert_eq!(bs_a.count(), ref_a.len());
        let inter: Vec<usize> = bs_a.intersection(&bs_b).iter().collect();
        let expect: Vec<usize> = ref_a.intersection(&ref_b).cloned().collect();
        assert_eq!(inter, expect);
        assert_eq!(bs_a.intersection_count(&bs_b), expect.len());
    }
}
