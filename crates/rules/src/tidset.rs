//! Adaptive tidset representations for the vertical miner.
//!
//! Apriori-style support shrinks geometrically with body length, so deep
//! DFS nodes carry tidsets whose density is a tiny fraction of the
//! transaction universe — exactly where a dense `u64`-word [`BitSet`]
//! wastes both memory bandwidth (every intersection touches `n/64` words
//! regardless of cardinality) and allocation (a fresh word vector per
//! node). This module provides:
//!
//! * [`TidSet`] — a stored tidset that is either `Dense` (a [`BitSet`])
//!   or `Sparse` (a sorted `Vec<u32>`), chosen per set by the density
//!   threshold [`SPARSE_DENSITY_SHIFT`];
//! * [`TidBuf`] — a reusable intersection output buffer owning storage
//!   for *both* representations, so the mining hot loop does zero
//!   per-node heap allocation after warm-up;
//! * [`intersect_into`] — the one intersection kernel, with galloping
//!   sparse∩sparse, word-masked sparse∩dense, word-AND dense∩dense with
//!   adaptive compression of small results, and a **minimum-support
//!   early exit**: the loop is abandoned as soon as the elements still
//!   reachable cannot lift the count to the bound.
//!
//! Both representations describe identical id sets and iterate ids in
//! ascending order, so swapping representations never changes mined
//! output — candidate enumeration order, per-head f64 accumulation
//! order, and every tie-break are representation-independent. The kernel
//! tests below build each representation directly and check every
//! combination against a reference set.

use crate::bitset::{BitSet, Ones};

/// Density denominator of the adaptive threshold: a set stays sparse
/// while its cardinality is at most `capacity / 64` (≈ 1.56% density).
/// At that point the sorted-`u32` vector holds no more entries than the
/// dense representation holds words, so a sparse intersection touches no
/// more memory than the dense word loop — below the threshold it touches
/// strictly less, above it the branchless word AND wins.
pub const SPARSE_DENSITY_SHIFT: u32 = 6;

/// Largest cardinality still stored sparse over a universe of
/// `capacity` ids.
fn sparse_max(capacity: usize) -> usize {
    capacity >> SPARSE_DENSITY_SHIFT
}

/// A stored tidset over `0..capacity`, dense or sparse by density.
#[derive(Debug, Clone, PartialEq)]
pub struct TidSet {
    capacity: usize,
    repr: TidRepr,
}

#[derive(Debug, Clone, PartialEq)]
enum TidRepr {
    Dense(BitSet),
    Sparse(Vec<u32>),
}

impl TidSet {
    /// An empty set expecting `expected` elements: sparse (with reserved
    /// capacity) when `expected` is within the density threshold, dense
    /// otherwise. Fill with ascending [`push`](Self::push) calls.
    pub fn for_expected(capacity: usize, expected: usize) -> Self {
        let repr = if expected <= sparse_max(capacity) {
            TidRepr::Sparse(Vec::with_capacity(expected))
        } else {
            TidRepr::Dense(BitSet::new(capacity))
        };
        Self { capacity, repr }
    }

    /// Build from strictly ascending ids, choosing the representation by
    /// density.
    ///
    /// # Panics
    ///
    /// Panics when ids are not strictly ascending or reach `capacity`.
    pub fn from_sorted_ids(ids: Vec<u32>, capacity: usize) -> Self {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be strictly ascending"
        );
        if let Some(&last) = ids.last() {
            assert!((last as usize) < capacity, "id {last} out of capacity");
        }
        if ids.len() <= sparse_max(capacity) {
            Self {
                capacity,
                repr: TidRepr::Sparse(ids),
            }
        } else {
            let mut bs = BitSet::new(capacity);
            for &id in &ids {
                bs.insert(id as usize);
            }
            Self {
                capacity,
                repr: TidRepr::Dense(bs),
            }
        }
    }

    /// Expand to the dense representation.
    pub fn to_bitset(&self) -> BitSet {
        match &self.repr {
            TidRepr::Dense(bs) => bs.clone(),
            TidRepr::Sparse(ids) => {
                let mut bs = BitSet::new(self.capacity);
                for &id in ids {
                    bs.insert(id as usize);
                }
                bs
            }
        }
    }

    /// Append an id. Ids must arrive in strictly ascending order (the
    /// level-1 builder walks transactions in tid order, so this holds by
    /// construction).
    pub fn push(&mut self, id: usize) {
        match &mut self.repr {
            TidRepr::Dense(bs) => bs.insert(id),
            TidRepr::Sparse(ids) => {
                debug_assert!(
                    id < self.capacity && ids.last().is_none_or(|&l| (l as usize) < id),
                    "push must be ascending and within capacity"
                );
                ids.push(id as u32);
            }
        }
    }

    /// Grow the universe to `new_capacity` and append `new_ids`
    /// (strictly ascending, all in `old_capacity..new_capacity` — delta
    /// transactions only ever add *later* tids), then re-pick the
    /// representation against the density threshold at the **new**
    /// capacity and cardinality.
    ///
    /// Re-picking matters in both directions: a delta can push a sparse
    /// set past `sparse_max(new_capacity)` (densify), and a large
    /// capacity growth raises the adaptive threshold `capacity >> 6`
    /// above a dense set's unchanged count (sparsify). Either way the
    /// result is structurally identical to
    /// [`from_sorted_ids`](Self::from_sorted_ids) over the combined ids
    /// at the new capacity — the invariant the incremental miner's
    /// byte-identity proof stands on.
    ///
    /// # Panics
    ///
    /// Panics when the capacity shrinks, `new_ids` is not strictly
    /// ascending, or any new id falls outside
    /// `old_capacity..new_capacity`.
    pub fn extend(&mut self, new_capacity: usize, new_ids: &[u32]) {
        assert!(
            new_capacity >= self.capacity,
            "capacity can only grow ({} -> {new_capacity})",
            self.capacity
        );
        assert!(
            new_ids.windows(2).all(|w| w[0] < w[1]),
            "new ids must be strictly ascending"
        );
        if let Some(&first) = new_ids.first() {
            assert!(
                first as usize >= self.capacity,
                "new id {first} collides with the old universe 0..{}",
                self.capacity
            );
        }
        if let Some(&last) = new_ids.last() {
            assert!((last as usize) < new_capacity, "id {last} out of capacity");
        }
        let new_count = self.count() + new_ids.len();
        let stay_sparse = new_count <= sparse_max(new_capacity);
        self.capacity = new_capacity;
        let repr = std::mem::replace(&mut self.repr, TidRepr::Sparse(Vec::new()));
        self.repr = match (repr, stay_sparse) {
            (TidRepr::Sparse(mut ids), true) => {
                ids.extend_from_slice(new_ids);
                TidRepr::Sparse(ids)
            }
            (TidRepr::Sparse(ids), false) => {
                // Crossed the density boundary upward: densify.
                let mut bs = BitSet::new(new_capacity);
                for &id in ids.iter().chain(new_ids) {
                    bs.insert(id as usize);
                }
                TidRepr::Dense(bs)
            }
            (TidRepr::Dense(mut bs), false) => {
                bs.grow(new_capacity);
                for &id in new_ids {
                    bs.insert(id as usize);
                }
                TidRepr::Dense(bs)
            }
            (TidRepr::Dense(bs), true) => {
                // Capacity growth raised the threshold past the count:
                // sparsify so intersections run the cheaper kernels.
                let mut ids: Vec<u32> = bs.iter().map(|t| t as u32).collect();
                ids.extend_from_slice(new_ids);
                TidRepr::Sparse(ids)
            }
        };
    }

    /// The universe size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        match &self.repr {
            TidRepr::Dense(bs) => bs.count(),
            TidRepr::Sparse(ids) => ids.len(),
        }
    }

    /// True when the set has no elements.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            TidRepr::Dense(bs) => bs.is_empty(),
            TidRepr::Sparse(ids) => ids.is_empty(),
        }
    }

    /// True when stored sparse (diagnostics and tests).
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, TidRepr::Sparse(_))
    }

    /// Membership test.
    pub fn contains(&self, id: usize) -> bool {
        match &self.repr {
            TidRepr::Dense(bs) => bs.contains(id),
            TidRepr::Sparse(ids) => ids.binary_search(&(id as u32)).is_ok(),
        }
    }

    /// A borrowed view for the intersection kernel.
    pub fn view(&self) -> TidView<'_> {
        match &self.repr {
            TidRepr::Dense(bs) => TidView::Dense(bs.words()),
            TidRepr::Sparse(ids) => TidView::Sparse(ids),
        }
    }

    /// Iterate ids in increasing order.
    pub fn iter(&self) -> TidIter<'_> {
        self.view().iter()
    }

    /// `self ∩ other` as a new set, its representation chosen as in
    /// [`intersect_into`].
    /// Allocates — meant for cold paths and tests; the mining loop and the
    /// coverage pass use [`intersect_into`] with reused [`TidBuf`]s.
    pub fn intersection(&self, other: &TidSet) -> TidSet {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut out = TidBuf::new(self.capacity);
        intersect_into(self.view(), other.view(), &mut out, 0).expect("bound 0 never early-exits");
        out.into_tidset()
    }
}

/// A borrowed tidset: dense words or sorted sparse ids.
#[derive(Debug, Clone, Copy)]
pub enum TidView<'a> {
    /// Dense `u64` words (bit `i % 64` of word `i / 64` is id `i`).
    Dense(&'a [u64]),
    /// Strictly ascending ids.
    Sparse(&'a [u32]),
}

impl<'a> TidView<'a> {
    /// Number of elements (popcount for dense views).
    pub fn count(self) -> usize {
        match self {
            TidView::Dense(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
            TidView::Sparse(ids) => ids.len(),
        }
    }

    /// Iterate ids in increasing order.
    pub fn iter(self) -> TidIter<'a> {
        match self {
            TidView::Dense(words) => TidIter::Dense(Ones::over_words(words)),
            TidView::Sparse(ids) => TidIter::Sparse(ids.iter()),
        }
    }
}

/// Iterator over the ids of a [`TidView`] / [`TidSet`], ascending.
pub enum TidIter<'a> {
    /// Bit-scanning a dense view.
    Dense(Ones<'a>),
    /// Walking a sparse id slice.
    Sparse(std::slice::Iter<'a, u32>),
}

impl Iterator for TidIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            TidIter::Dense(ones) => ones.next(),
            TidIter::Sparse(ids) => ids.next().map(|&id| id as usize),
        }
    }
}

/// A reusable intersection output buffer. Owns storage for both
/// representations so [`intersect_into`] can pick either without
/// allocating; one buffer per DFS level per worker is all the miner
/// needs.
#[derive(Debug, Clone)]
pub struct TidBuf {
    capacity: usize,
    kind: BufKind,
    words: Vec<u64>,
    ids: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BufKind {
    Dense,
    Sparse,
}

impl TidBuf {
    /// An empty buffer over `0..capacity`. Backing vectors grow lazily on
    /// first dense / sparse use and are retained across reuses.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            kind: BufKind::Sparse,
            words: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// The universe size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A borrowed view of the current contents.
    pub fn view(&self) -> TidView<'_> {
        match self.kind {
            BufKind::Dense => TidView::Dense(&self.words),
            BufKind::Sparse => TidView::Sparse(&self.ids),
        }
    }

    /// Freeze the buffer into a stored [`TidSet`] (the representation was
    /// already chosen by the kernel that filled it).
    pub fn into_tidset(self) -> TidSet {
        match self.kind {
            BufKind::Dense => TidSet {
                capacity: self.capacity,
                repr: TidRepr::Dense(BitSet::from_words(self.capacity, self.words)),
            },
            BufKind::Sparse => TidSet {
                capacity: self.capacity,
                repr: TidRepr::Sparse(self.ids),
            },
        }
    }

    /// Reset to an empty sparse buffer, keeping allocations.
    fn start_sparse(&mut self) {
        self.kind = BufKind::Sparse;
        self.ids.clear();
    }

    /// Switch to the dense layout sized for the capacity. Word contents
    /// are unspecified; the dense kernel overwrites every word it keeps.
    fn start_dense(&mut self) {
        self.kind = BufKind::Dense;
        let n_words = self.capacity.div_ceil(64);
        if self.words.len() != n_words {
            self.words.resize(n_words, 0);
        }
    }
}

/// Intersect `a ∩ b` into `out`, returning `Some(count)` when the
/// intersection has at least `bound` elements and `None` otherwise.
///
/// `bound` is the **minimum-support early exit**: each kernel abandons
/// its loop as soon as the elements still reachable cannot lift the
/// running count to `bound` (pass `0` to always compute the full
/// intersection). On `None`, `out`'s contents are unspecified.
///
/// The output representation is sparse whenever either input is sparse
/// (the result is no larger than the smaller input); a dense∩dense
/// result is compressed to sparse when its count falls within the
/// density threshold, so descendant intersections in a DFS run the
/// cheaper sparse kernels.
pub fn intersect_into(a: TidView<'_>, b: TidView<'_>, out: &mut TidBuf, bound: u32) -> Option<u32> {
    match (a, b) {
        (TidView::Sparse(x), TidView::Sparse(y)) => sparse_sparse(x, y, out, bound),
        (TidView::Sparse(x), TidView::Dense(w)) | (TidView::Dense(w), TidView::Sparse(x)) => {
            sparse_dense(x, w, out, bound)
        }
        (TidView::Dense(wa), TidView::Dense(wb)) => dense_dense(wa, wb, out, bound),
    }
}

/// Index of the first element of sorted `s` that is `≥ x`, found by
/// exponential probing from the front plus a bounded binary search —
/// `O(log d)` in the landing distance `d`, which is what makes skewed
/// sparse∩sparse intersections gallop instead of merge.
fn gallop_to(s: &[u32], x: u32) -> usize {
    if s.first().is_none_or(|&v| v >= x) {
        return 0;
    }
    // Invariant: s[lo] < x.
    let mut lo = 0usize;
    let mut step = 1usize;
    while lo + step < s.len() && s[lo + step] < x {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(s.len());
    lo + 1 + s[lo + 1..hi].partition_point(|&v| v < x)
}

/// Galloping sparse∩sparse: probe with the smaller list, gallop in the
/// larger.
fn sparse_sparse(a: &[u32], b: &[u32], out: &mut TidBuf, bound: u32) -> Option<u32> {
    let (probe, gallop) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    out.start_sparse();
    let mut gi = 0usize;
    for (pi, &x) in probe.iter().enumerate() {
        let reachable = (probe.len() - pi).min(gallop.len() - gi);
        if out.ids.len() + reachable < bound as usize {
            return None;
        }
        if gi >= gallop.len() {
            break;
        }
        gi += gallop_to(&gallop[gi..], x);
        if gi < gallop.len() && gallop[gi] == x {
            out.ids.push(x);
            gi += 1;
        }
    }
    let n = out.ids.len() as u32;
    (n >= bound).then_some(n)
}

/// Word-masked sparse∩dense: test each sparse id against its word.
fn sparse_dense(ids: &[u32], words: &[u64], out: &mut TidBuf, bound: u32) -> Option<u32> {
    out.start_sparse();
    for (i, &x) in ids.iter().enumerate() {
        if out.ids.len() + (ids.len() - i) < bound as usize {
            return None;
        }
        if words[(x / 64) as usize] & (1u64 << (x % 64)) != 0 {
            out.ids.push(x);
        }
    }
    let n = out.ids.len() as u32;
    (n >= bound).then_some(n)
}

/// Word-AND dense∩dense with a running popcount; compresses a
/// below-threshold result to sparse.
fn dense_dense(a: &[u64], b: &[u64], out: &mut TidBuf, bound: u32) -> Option<u32> {
    debug_assert_eq!(a.len(), b.len());
    out.start_dense();
    debug_assert_eq!(out.words.len(), a.len());
    let n = a.len();
    let mut count = 0u32;
    for i in 0..n {
        if (count as u64) + 64 * ((n - i) as u64) < bound as u64 {
            return None;
        }
        let w = a[i] & b[i];
        out.words[i] = w;
        count += w.count_ones();
    }
    if count < bound {
        return None;
    }
    if (count as usize) <= sparse_max(out.capacity) {
        // Compress: every descendant intersection then runs a sparse
        // kernel. Take the words out to appease the borrow checker, put
        // them back so the allocation survives for reuse.
        let words = std::mem::take(&mut out.words);
        out.start_sparse();
        out.ids.extend(Ones::over_words(&words).map(|t| t as u32));
        out.words = words;
    }
    Some(count)
}

/// Per-worker pool of intersection buffers, one per DFS depth. Sized
/// once per worker; after the first descent the mining loop performs no
/// heap allocation for set algebra.
#[derive(Debug, Clone)]
pub struct TidScratch {
    levels: Vec<TidBuf>,
}

impl TidScratch {
    /// A pool of `levels` buffers over a universe of `capacity` ids (at
    /// least one; the miner passes `max_body_len - 1`).
    pub fn new(capacity: usize, levels: usize) -> Self {
        Self {
            levels: (0..levels.max(1)).map(|_| TidBuf::new(capacity)).collect(),
        }
    }

    /// The buffer holding the pair-level (body length 2) intersection.
    pub fn pair_level(&mut self) -> &mut TidBuf {
        &mut self.levels[0]
    }

    /// Split into the parent buffer at `depth - 1` (read) and the output
    /// buffer at `depth` (write), for the DFS recursion.
    pub fn parent_and_out(&mut self, depth: usize) -> (&TidBuf, &mut TidBuf) {
        debug_assert!(depth >= 1);
        let (lo, hi) = self.levels.split_at_mut(depth);
        (&lo[depth - 1], &mut hi[0])
    }

    /// Read-only access to the buffer at `depth`.
    pub fn level(&self, depth: usize) -> &TidBuf {
        &self.levels[depth]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// `ids` stored in the named representation regardless of density,
    /// so every kernel combination can be driven directly.
    fn forced(ids: &[u32], capacity: usize, sparse: bool) -> TidSet {
        let repr = if sparse {
            TidRepr::Sparse(ids.to_vec())
        } else {
            let mut bs = BitSet::new(capacity);
            for &id in ids {
                bs.insert(id as usize);
            }
            TidRepr::Dense(bs)
        };
        TidSet { capacity, repr }
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    fn random_ids(cap: usize, approx: usize, seed: u64) -> Vec<u32> {
        let mut next = xorshift(seed);
        let mut set = BTreeSet::new();
        for _ in 0..approx {
            set.insert((next() % cap as u64) as u32);
        }
        set.into_iter().collect()
    }

    fn sorted_ids(raw: Vec<usize>, cap: usize) -> Vec<u32> {
        let set: BTreeSet<u32> = raw.into_iter().map(|x| (x % cap) as u32).collect();
        set.into_iter().collect()
    }

    fn reference_intersection(a: &[u32], b: &[u32]) -> Vec<u32> {
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        a.iter().copied().filter(|x| sb.contains(x)).collect()
    }

    #[test]
    fn representation_follows_density() {
        assert_eq!(sparse_max(6400), 100);
        assert!(TidSet::from_sorted_ids(vec![3, 70, 500], 100_000).is_sparse());
        // Above the threshold the set goes dense.
        let many = random_ids(1000, 600, 42);
        assert!(!TidSet::from_sorted_ids(many, 1000).is_sparse());
    }

    #[test]
    fn gallop_to_matches_partition_point() {
        let s: Vec<u32> = vec![2, 3, 5, 8, 13, 21, 34, 55, 89];
        for x in 0..100u32 {
            assert_eq!(gallop_to(&s, x), s.partition_point(|&v| v < x), "x={x}");
        }
        assert_eq!(gallop_to(&[], 5), 0);
    }

    /// Large skewed inputs, where galloping and the word loops take many
    /// steps (the property tests below stay under 500 ids).
    #[test]
    fn all_kernel_combinations_agree() {
        let cap = 5000;
        for (na, nb, seed) in [
            (40usize, 900usize, 3u64),
            (900, 40, 4),
            (30, 35, 5),
            (900, 800, 6),
        ] {
            let a = random_ids(cap, na, seed);
            let b = random_ids(cap, nb, seed.wrapping_mul(31));
            let expect = reference_intersection(&a, &b);
            for sa in [false, true] {
                for sb in [false, true] {
                    let (ta, tb) = (forced(&a, cap, sa), forced(&b, cap, sb));
                    let mut out = TidBuf::new(cap);
                    let count = intersect_into(ta.view(), tb.view(), &mut out, 0).unwrap();
                    assert_eq!(count as usize, expect.len());
                    let got: Vec<u32> = out.view().iter().map(|t| t as u32).collect();
                    assert_eq!(got, expect);
                }
            }
        }
    }

    #[test]
    fn dense_result_compresses_when_small() {
        let cap = 100_000;
        // Two dense sets with a tiny overlap.
        let ta = forced(&random_ids(cap, 40_000, 17), cap, false);
        let tb = forced(&random_ids(cap, 200, 19), cap, false);
        let inter = ta.intersection(&tb);
        assert!(inter.is_sparse(), "small result must compress");
        assert_eq!(
            inter.count(),
            ta.to_bitset().intersection_count(&tb.to_bitset())
        );
    }

    #[test]
    fn buffers_are_reusable_across_kinds() {
        let cap = 2000;
        let mut out = TidBuf::new(cap);
        let d1 = forced(&random_ids(cap, 900, 23), cap, false);
        let d2 = forced(&random_ids(cap, 900, 29), cap, false);
        let s1 = forced(&random_ids(cap, 20, 31), cap, true);
        // dense∩dense (dense out) → sparse∩dense (sparse out) → again dense.
        let c1 = intersect_into(d1.view(), d2.view(), &mut out, 0).unwrap();
        assert_eq!(c1 as usize, out.view().count());
        let c2 = intersect_into(s1.view(), d2.view(), &mut out, 0).unwrap();
        assert_eq!(c2 as usize, out.view().count());
        let c3 = intersect_into(d1.view(), d2.view(), &mut out, 0).unwrap();
        assert_eq!(c1, c3);
    }

    #[test]
    fn scratch_split_borrows() {
        let mut scratch = TidScratch::new(100, 3);
        let a = forced(&[1, 5, 9, 50], 100, true);
        let b = forced(&[5, 9, 70], 100, true);
        intersect_into(a.view(), b.view(), scratch.pair_level(), 0).unwrap();
        let (parent, out) = scratch.parent_and_out(1);
        let c = intersect_into(parent.view(), a.view(), out, 0).unwrap();
        assert_eq!(c, 2);
        assert_eq!(
            scratch.level(1).view().iter().collect::<Vec<_>>(),
            vec![5, 9]
        );
    }

    /// Incremental `extend` must be structurally indistinguishable from
    /// from-scratch construction — same representation, same ids — for
    /// random delta splits. This is the property the incremental miner's
    /// byte-identity rests on, so it is checked over a randomized sweep,
    /// not a couple of hand cases.
    #[test]
    fn extend_equals_from_scratch_for_random_delta_splits() {
        for seed in 1u64..40 {
            let mut next = xorshift(seed.wrapping_mul(0x9e37_79b9));
            let base_cap = 64 + (next() % 4000) as usize;
            let grow = 1 + (next() % 6000) as usize;
            let new_cap = base_cap + grow;
            let base_density = 1 + (next() % (base_cap as u64)) as usize;
            let delta_density = (next() % (grow as u64 + 1)) as usize;
            let base: Vec<u32> = random_ids(base_cap, base_density, next());
            let delta: Vec<u32> = random_ids(grow, delta_density, next())
                .into_iter()
                .map(|t| t + base_cap as u32)
                .collect();
            let mut all = base.clone();
            all.extend_from_slice(&delta);
            let mut inc = TidSet::from_sorted_ids(base, base_cap);
            inc.extend(new_cap, &delta);
            // PartialEq covers capacity, representation, and ids —
            // structural identity, not just set equality.
            assert_eq!(
                inc,
                TidSet::from_sorted_ids(all, new_cap),
                "seed {seed} base_cap {base_cap} new_cap {new_cap}"
            );
        }
    }

    /// The two density-boundary crossings a delta can cause: sparse→dense
    /// when the delta outruns the threshold, and dense→sparse when
    /// capacity growth raises the threshold past an unchanged count.
    #[test]
    fn extend_repicks_representation_across_the_boundary() {
        // 1000-capacity threshold is 15; 200 ids are dense.
        let ids: Vec<u32> = (0..200u32).collect();
        let mut densify = TidSet::from_sorted_ids(vec![1, 5, 9], 1000);
        assert!(densify.is_sparse());
        densify.extend(1200, &(1000..1180u32).collect::<Vec<_>>());
        assert!(
            !densify.is_sparse(),
            "delta past the threshold must densify"
        );
        assert_eq!(densify.count(), 183);

        // 200 ids at capacity 1000 are dense (threshold 15); growing the
        // universe to 100k lifts the threshold to 1562 — with no new
        // ids, the set must sparsify.
        let mut sparsify = TidSet::from_sorted_ids(ids.clone(), 1000);
        assert!(!sparsify.is_sparse());
        sparsify.extend(100_000, &[]);
        assert!(
            sparsify.is_sparse(),
            "threshold growth past the count must sparsify"
        );
        assert_eq!(sparsify, TidSet::from_sorted_ids(ids, 100_000));
    }

    #[test]
    #[should_panic(expected = "collides with the old universe")]
    fn extend_rejects_ids_inside_the_old_universe() {
        let mut s = TidSet::from_sorted_ids(vec![1, 7], 10);
        s.extend(20, &[9, 12]);
    }

    #[test]
    fn full_and_empty() {
        let full = TidSet::from_sorted_ids((0..70).collect(), 70);
        assert_eq!(full.count(), 70);
        assert!(!full.is_sparse());
        let empty = TidSet::for_expected(70, 0);
        assert!(empty.is_empty() && empty.is_sparse());
        assert!(full.intersection(&empty).is_empty());
        assert_eq!(TidSet::from_sorted_ids(Vec::new(), 0).count(), 0);
    }

    proptest! {
        /// Both representations, and the density-chosen one, hold exactly
        /// the reference id set under every accessor.
        #[test]
        fn tidset_roundtrip_matches_reference(
            cap in 1usize..500,
            raw in proptest::collection::vec(0usize..500, 0..150)
        ) {
            let ids = sorted_ids(raw, cap);
            let expect: Vec<usize> = ids.iter().map(|&x| x as usize).collect();
            for ts in [
                forced(&ids, cap, false),
                forced(&ids, cap, true),
                TidSet::from_sorted_ids(ids.clone(), cap),
            ] {
                prop_assert_eq!(ts.count(), ids.len());
                prop_assert_eq!(ts.is_empty(), ids.is_empty());
                prop_assert_eq!(ts.iter().collect::<Vec<_>>(), expect.clone());
                prop_assert_eq!(ts.to_bitset().iter().collect::<Vec<_>>(), expect.clone());
                for id in 0..cap {
                    prop_assert_eq!(ts.contains(id), ids.binary_search(&(id as u32)).is_ok());
                }
            }
        }

        /// Every intersection kernel — galloping sparse∩sparse,
        /// word-masked sparse∩dense, dense∩dense — agrees with the
        /// reference intersection for every input-representation
        /// combination, and the `minsup` early exit returns `Some(count)`
        /// exactly when the true cardinality reaches the bound.
        #[test]
        fn tidset_intersection_matches_reference(
            cap in 1usize..500,
            a in proptest::collection::vec(0usize..500, 0..150),
            b in proptest::collection::vec(0usize..500, 0..150),
            bound in 0u32..40
        ) {
            let (a, b) = (sorted_ids(a, cap), sorted_ids(b, cap));
            let expect = reference_intersection(&a, &b);
            let truth = expect.len() as u32;
            for sa in [false, true] {
                for sb in [false, true] {
                    let (ta, tb) = (forced(&a, cap, sa), forced(&b, cap, sb));
                    let mut out = TidBuf::new(cap);
                    let count = intersect_into(ta.view(), tb.view(), &mut out, 0);
                    prop_assert_eq!(count, Some(truth));
                    let got: Vec<u32> = out.view().iter().map(|t| t as u32).collect();
                    prop_assert_eq!(got, expect.clone());
                    let got = intersect_into(ta.view(), tb.view(), &mut out, bound);
                    prop_assert_eq!(got, (truth >= bound).then_some(truth));
                }
            }
        }
    }
}
