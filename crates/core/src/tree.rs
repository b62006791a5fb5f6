//! The covering relationship (§4.1): dominance removal, the covering
//! tree, and coverage assignment.
//!
//! * A rule that is *more special and ranked lower* than another rule can
//!   never be a recommendation rule (the more general, higher-ranked rule
//!   matches whenever it does) — such rules are **dominated** and removed.
//!   The default rule's empty body generalizes every body, so *everything
//!   ranked below the default rule is dominated*.
//! * The **parent** of a rule `r'` is the strictly-more-general rule with
//!   the highest rank; after dominance removal every more-general rule
//!   ranks lower, so parents point down the rank order and the default
//!   rule is the root.
//! * Each training transaction is **covered** by its highest-ranked
//!   matching rule; the default rule covers the rest.
//!
//! Body-generalization tests use the interner's ancestor closures: body
//! `B` generalizes body `B'` **iff** `B ⊆ closure(B')`, where
//! `closure(B') = ∪_{g ∈ B'} ({g} ∪ ancestors(g))` — every element of a
//! generalizing body must be an ancestor-or-self of some element of the
//! specialized body, and vice versa any such subset generalizes.

use crate::rank::mpf_cmp;
use pm_rules::{
    intersect_into, BitSet, GsId, GsInterner, MinedRules, ProfitMode, Rule, Support, TidBuf,
    TidView,
};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The covering tree over the surviving (non-dominated) rules.
#[derive(Debug, Clone)]
pub struct CoveringTree {
    /// Surviving rules in descending MPF rank; the last one is the
    /// default rule (the root).
    pub rules: Vec<Rule>,
    /// Parent index per rule (`None` only for the default rule).
    pub parent: Vec<Option<usize>>,
    /// Transactions covered by each rule (it is their highest-ranked
    /// match).
    pub cover: Vec<Vec<u32>>,
    /// How many mined rules the dominance step removed.
    pub n_dominated: usize,
    /// The profit mode the ranking used.
    pub mode: ProfitMode,
}

/// FxHash-style multiply-rotate hashing for keys of interner ids: small
/// integers this process assigned, so SipHash's resistance to chosen keys
/// buys nothing here and would cost most of the dominance scan.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
    /// Moves the well-mixed high bits down to the bucket-index bits.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// Every prefix of every survivor body, as a trie: node 0 is the empty
/// prefix, and the edge `(node, g)` leads to that prefix extended by `g`.
/// Bodies are sorted, so a survivor body is a subset of a sorted closure
/// iff [`walk`](Self::walk) reaches the node the body ends at.
struct PrefixMap {
    edges: HashMap<(u32, GsId), u32, IdBuildHasher>,
    /// Per node: the survivor whose body ends there, if any.
    owner: Vec<Option<u32>>,
    /// Per node: bit `g % 64` is set for each child edge `g` (zero for a
    /// leaf). Most closure ids extend no given prefix, and a clear bit
    /// skips their hash lookup.
    kids: Vec<u64>,
}

impl PrefixMap {
    /// The map holding only the empty prefix.
    fn new() -> Self {
        Self {
            edges: HashMap::default(),
            owner: vec![None],
            kids: vec![0],
        }
    }

    /// Register survivor `id` with the (sorted, non-empty) `body`.
    fn insert(&mut self, body: &[GsId], id: u32) {
        let mut node = 0;
        for &g in body {
            self.kids[node as usize] |= 1 << (g.0 % 64);
            let next = self.owner.len() as u32;
            node = *self.edges.entry((node, g)).or_insert(next);
            if node == next {
                self.owner.push(None);
                self.kids.push(0);
            }
        }
        self.owner[node as usize] = Some(id);
    }

    /// Report each survivor whose body is a subset of the sorted
    /// `closure`, extending only the prefixes present in the map, until
    /// `hit` returns true (then so does the walk).
    fn walk(&self, node: u32, closure: &[GsId], hit: &mut impl FnMut(u32) -> bool) -> bool {
        let kids = self.kids[node as usize];
        closure.iter().enumerate().any(|(k, &g)| {
            kids & (1 << (g.0 % 64)) != 0
                && self.edges.get(&(node, g)).is_some_and(|&child| {
                    self.owner[child as usize].is_some_and(&mut *hit)
                        || self.walk(child, &closure[k + 1..], hit)
                })
        })
    }
}

/// Closure of a body: every element plus all its strict ancestors,
/// deduplicated and sorted into `out`.
fn closure_into(interner: &GsInterner, body: &[GsId], out: &mut Vec<GsId>) {
    out.clear();
    for &g in body {
        out.push(g);
        out.extend_from_slice(interner.ancestors(g));
    }
    out.sort_unstable();
    out.dedup();
}

impl CoveringTree {
    /// Build the covering tree from mined rules under `mode`, optionally
    /// filtering to a higher minimum support first.
    pub fn build(mined: &MinedRules, mode: ProfitMode, min_support: Option<Support>) -> Self {
        // 1. Rank: everything ranked below the default rule is dominated
        //    by it, so only the rules above it are sorted.
        let default = mined.default_rule(mode);
        let all = mined.rules();
        let pool = match min_support {
            Some(s) => mined.rule_indices_at(s),
            None => (0..all.len()).collect(),
        };
        let n_pool = pool.len();
        let mut ranked: Vec<&Rule> = pool
            .into_iter()
            .map(|i| &all[i])
            .filter(|r| mpf_cmp(r, &default, mode).is_gt())
            .collect();
        ranked.sort_by(|a, b| mpf_cmp(b, a, mode));

        // 2. Dominance scan in rank-descending order, once per body: a
        //    repeated body is dominated by the earlier rule with that
        //    body or by whatever dominated it; a new body survives iff no
        //    survivor body is a subset of its closure.
        let interner = mined.interner();
        let mut decided: HashSet<&[GsId], IdBuildHasher> = HashSet::default();
        let mut map = PrefixMap::new();
        let mut closure: Vec<GsId> = Vec::new();
        let mut survivors: Vec<Rule> = Vec::new();
        for rule in ranked {
            if !decided.insert(rule.body.as_slice()) {
                continue;
            }
            closure_into(interner, &rule.body, &mut closure);
            if !map.walk(0, &closure, &mut |_| true) {
                map.insert(&rule.body, survivors.len() as u32);
                survivors.push(rule.clone());
            }
        }
        survivors.push(default);
        let m = survivors.len();
        let n_dominated = n_pool + 1 - m;

        // 3. Parents: a survivor generalizing survivor `i` ranks below it
        //    (else `i` would be dominated), so the parent is the
        //    highest-ranked (smallest-index) generalizer other than `i`
        //    itself, falling back to the default rule.
        let root = m - 1;
        let parent: Vec<Option<usize>> = (0..m)
            .map(|i| {
                if i == root {
                    return None;
                }
                closure_into(interner, &survivors[i].body, &mut closure);
                let mut best = root as u32;
                map.walk(0, &closure, &mut |j| {
                    if j as usize != i {
                        best = best.min(j);
                    }
                    false
                });
                Some(best as usize)
            })
            .collect();

        // 4. Coverage: highest-ranked matching rule per transaction, as
        //    `uncovered ∩ tidset(g₁) ∩ tidset(g₂) …` through the
        //    intersection kernel and two reused buffers.
        let n = mined.n_transactions();
        let mut uncovered = BitSet::full(n);
        let (mut acc, mut tmp) = (TidBuf::new(n), TidBuf::new(n));
        let mut cover: Vec<Vec<u32>> = Vec::with_capacity(m);
        for rule in &survivors {
            if uncovered.is_empty() {
                cover.push(Vec::new());
                continue;
            }
            let mine: Vec<u32> = match rule.body.split_first() {
                None => uncovered.iter().map(|t| t as u32).collect(),
                Some((&first, rest)) => {
                    let words = TidView::Dense(uncovered.words());
                    intersect_into(words, mined.gs_tidset(first).view(), &mut acc, 0);
                    for &g in rest {
                        intersect_into(acc.view(), mined.gs_tidset(g).view(), &mut tmp, 0);
                        std::mem::swap(&mut acc, &mut tmp);
                    }
                    acc.view().iter().map(|t| t as u32).collect()
                }
            };
            for &t in &mine {
                uncovered.remove(t as usize);
            }
            cover.push(mine);
        }

        CoveringTree {
            rules: survivors,
            parent,
            cover,
            n_dominated,
            mode,
        }
    }

    /// Number of rules in the tree.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Always false — the default rule is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the root (the default rule).
    pub fn root(&self) -> usize {
        self.rules.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_datagen::{DatasetConfig, HierarchyConfig};
    use pm_rules::{MinerConfig, MoaMode, RuleMiner};
    use pm_txn::{
        Catalog, CodeId, GenSale, Hierarchy, ItemDef, ItemId, Money, PromotionCode, Sale,
        Transaction, TransactionSet,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> TransactionSet {
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            cat.push(ItemDef {
                name: name.into(),
                codes: vec![
                    PromotionCode::unit(Money::from_cents(100), Money::from_cents(50)),
                    PromotionCode::unit(Money::from_cents(120), Money::from_cents(50)),
                ],
                is_target: false,
            });
        }
        cat.push(ItemDef {
            name: "t".into(),
            codes: vec![
                PromotionCode::unit(Money::from_cents(500), Money::from_cents(300)),
                PromotionCode::unit(Money::from_cents(600), Money::from_cents(300)),
            ],
            is_target: true,
        });
        let h = Hierarchy::flat(3);
        let a = ItemId(0);
        let b = ItemId(1);
        let t = ItemId(2);
        let mk = |nts: Vec<Sale>, tc: u16| Transaction::new(nts, Sale::new(t, CodeId(tc), 1));
        let txns = vec![
            mk(vec![Sale::new(a, CodeId(0), 1)], 0),
            mk(vec![Sale::new(a, CodeId(0), 1)], 0),
            mk(vec![Sale::new(a, CodeId(1), 1)], 1),
            mk(
                vec![Sale::new(a, CodeId(0), 1), Sale::new(b, CodeId(0), 1)],
                1,
            ),
            mk(
                vec![Sale::new(a, CodeId(1), 1), Sale::new(b, CodeId(0), 1)],
                1,
            ),
            mk(vec![Sale::new(b, CodeId(1), 1)], 0),
            mk(vec![Sale::new(b, CodeId(0), 1)], 1),
            mk(vec![Sale::new(b, CodeId(1), 1)], 0),
        ];
        TransactionSet::new(cat, h, txns).unwrap()
    }

    fn tree(minsup: u32, mode: ProfitMode) -> (MinedRules, CoveringTree) {
        let mined = RuleMiner::new(MinerConfig {
            min_support: Support::Count(minsup),
            moa: MoaMode::Enabled,
            ..MinerConfig::default()
        })
        .mine(&dataset());
        let tree = CoveringTree::build(&mined, mode, None);
        (mined, tree)
    }

    /// Generated fits the toy fixture cannot reach: Dataset I and
    /// Dataset II (ten targets, so several heads per body) under concept
    /// hierarchies of two and three levels, `+MOA` code lattices and
    /// bodies of up to four elements.
    fn generated_mined() -> Vec<MinedRules> {
        let datasets = [
            (DatasetConfig::dataset_i(), 6, 2, 0.16),
            (DatasetConfig::dataset_ii(), 10, 3, 0.12),
        ];
        datasets
            .into_iter()
            .map(|(cfg, items, levels, minsup)| {
                let ds = cfg
                    .with_transactions(200)
                    .with_items(items)
                    .with_hierarchy(HierarchyConfig {
                        branching: 3,
                        levels,
                    })
                    .generate(&mut StdRng::seed_from_u64(5));
                RuleMiner::new(MinerConfig {
                    min_support: Support::Fraction(minsup),
                    max_body_len: 4,
                    moa: MoaMode::Enabled,
                    ..MinerConfig::default()
                })
                .with_threads(1)
                .mine(&ds)
            })
            .collect()
    }

    /// Slow reference for "is r more general than r'".
    fn more_general(mined: &MinedRules, r: &Rule, rp: &Rule) -> bool {
        mined.interner().body_generalizes(&r.body, &rp.body)
    }

    /// The rules a build ranks: the mined rules at `min_support`.
    fn pool(mined: &MinedRules, min_support: Option<Support>) -> Vec<Rule> {
        let floor = min_support.map_or(0, |s| s.to_count(mined.n_transactions()));
        mined
            .rules()
            .iter()
            .filter(|r| r.hits >= floor)
            .cloned()
            .collect()
    }

    /// Survivors by brute force: rank every pooled rule plus the default
    /// and keep each rule no earlier survivor generalizes.
    fn check_dominance(
        mined: &MinedRules,
        tree: &CoveringTree,
        mode: ProfitMode,
        min_support: Option<Support>,
    ) {
        let mut all = pool(mined, min_support);
        let n_pool = all.len();
        all.push(mined.default_rule(mode));
        all.sort_by(|a, b| mpf_cmp(b, a, mode));
        let mut survivors: Vec<Rule> = Vec::new();
        for r in &all {
            if !survivors.iter().any(|s| more_general(mined, s, r)) {
                survivors.push(r.clone());
            }
        }
        assert_eq!(survivors, tree.rules);
        assert_eq!(tree.n_dominated + tree.len(), n_pool + 1);
    }

    fn check_parents(mined: &MinedRules, tree: &CoveringTree) {
        for i in 0..tree.len() {
            let Some(p) = tree.parent[i] else {
                assert_eq!(i, tree.root(), "only the root lacks a parent");
                continue;
            };
            assert!(p > i, "parents rank lower (higher index)");
            assert!(
                more_general(mined, &tree.rules[p], &tree.rules[i]),
                "parent must generalize"
            );
            // No generalizer strictly between i and p.
            for j in (i + 1)..p {
                assert!(
                    !more_general(mined, &tree.rules[j], &tree.rules[i]),
                    "rule {j} outranks parent {p} of {i}"
                );
            }
        }
    }

    /// Each transaction appears in exactly one cover — that of its first
    /// matching rule in rank order — and every rule's body matches
    /// `body_count` transactions (all of them for the default rule).
    fn check_coverage(mined: &MinedRules, tree: &CoveringTree) {
        let ext = mined.extended();
        let n = ext.n_transactions();
        let matches = |i: usize, tid: usize| {
            tree.rules[i]
                .body
                .iter()
                .all(|g| ext.txn_gs[tid].contains(g))
        };
        let mut owner = vec![usize::MAX; n];
        for (i, cov) in tree.cover.iter().enumerate() {
            assert!(cov.windows(2).all(|w| w[0] < w[1]), "cover {i} ascends");
            for &t in cov {
                assert_eq!(owner[t as usize], usize::MAX, "covered twice");
                owner[t as usize] = i;
            }
        }
        for (tid, &own) in owner.iter().enumerate() {
            assert_ne!(own, usize::MAX, "transaction {tid} uncovered");
            let first_match = (0..tree.len())
                .find(|&i| matches(i, tid))
                .expect("default matches");
            assert_eq!(own, first_match, "transaction {tid}");
        }
        for (i, r) in tree.rules.iter().enumerate() {
            let matched = (0..n).filter(|&tid| matches(i, tid)).count();
            assert_eq!(matched as u32, r.body_count, "rule {i}");
        }
        assert_eq!(tree.rules[tree.root()].body_count as usize, n);
    }

    #[test]
    fn default_rule_is_root_and_last() {
        let (_, tree) = tree(1, ProfitMode::Profit);
        let root = tree.root();
        assert!(tree.rules[root].body.is_empty());
        assert_eq!(tree.parent[root], None);
        for i in 0..root {
            assert!(tree.parent[i].is_some());
            assert!(!tree.rules[i].body.is_empty());
        }
    }

    #[test]
    fn rank_strictly_descends() {
        let (_, tree) = tree(1, ProfitMode::Profit);
        for w in 0..tree.len() - 1 {
            assert_eq!(
                mpf_cmp(&tree.rules[w], &tree.rules[w + 1], ProfitMode::Profit),
                std::cmp::Ordering::Greater
            );
        }
    }

    #[test]
    fn no_survivor_is_dominated() {
        let (mined, tree) = tree(1, ProfitMode::Profit);
        for i in 0..tree.len() {
            for j in 0..i {
                // j ranks higher; it must not generalize i's body… unless
                // that would make i dominated.
                assert!(
                    !more_general(&mined, &tree.rules[j], &tree.rules[i]),
                    "rule {j} dominates rule {i}"
                );
            }
        }
    }

    #[test]
    fn dominance_matches_brute_force() {
        let (mined, tree) = tree(1, ProfitMode::Profit);
        check_dominance(&mined, &tree, ProfitMode::Profit, None);
    }

    #[test]
    fn parent_is_highest_ranked_generalizer() {
        let (mined, tree) = tree(1, ProfitMode::Profit);
        check_parents(&mined, &tree);
    }

    #[test]
    fn coverage_is_highest_ranked_match() {
        let (mined, tree) = tree(1, ProfitMode::Profit);
        check_coverage(&mined, &tree);
    }

    /// The `min_support` each generated fit is built at: the mined one,
    /// and a refilter above it.
    const REFILTERS: [Option<Support>; 2] = [None, Some(Support::Fraction(0.25))];

    /// Build every generated tree (both datasets, both refilters, both
    /// profit modes) and hand it to `check`.
    fn for_each_generated_tree(
        check: impl Fn(&MinedRules, &CoveringTree, ProfitMode, Option<Support>),
    ) {
        for mined in generated_mined() {
            for min_support in REFILTERS {
                for mode in [ProfitMode::Profit, ProfitMode::Confidence] {
                    let tree = CoveringTree::build(&mined, mode, min_support);
                    assert!(tree.len() > 1, "{mode:?} {min_support:?}");
                    check(&mined, &tree, mode, min_support);
                }
            }
        }
    }

    #[test]
    fn dominance_matches_brute_force_on_generated_data() {
        for_each_generated_tree(check_dominance);
    }

    #[test]
    fn parent_is_highest_ranked_generalizer_on_generated_data() {
        for_each_generated_tree(|mined, tree, _, _| check_parents(mined, tree));
    }

    #[test]
    fn coverage_is_highest_ranked_match_on_generated_data() {
        for_each_generated_tree(|mined, tree, _, _| check_coverage(mined, tree));
    }

    /// The generated fits carry what the toy fixture lacks: a body with
    /// several heads, a body of four elements, and body elements that are
    /// a concept or a code with a more favorable code above it.
    #[test]
    fn generated_data_reaches_what_the_fixture_lacks() {
        for mined in generated_mined() {
            let interner = mined.interner();
            for min_support in REFILTERS {
                let rules = pool(&mined, min_support);
                let shared_body = rules.iter().enumerate().any(|(i, r)| {
                    rules[..i]
                        .iter()
                        .any(|q| q.body == r.body && q.head != r.head)
                });
                assert!(shared_body, "a body with several heads");
                if min_support.is_none() {
                    assert!(rules.iter().any(|r| r.body.len() == 4), "a 4-body");
                }
                let elements = || rules.iter().flat_map(|r| r.body.iter().copied());
                assert!(
                    elements().any(|g| matches!(interner.resolve(g), GenSale::Concept(_))),
                    "a concept in a body"
                );
                assert!(
                    elements().any(|g| matches!(interner.resolve(g), GenSale::ItemCode(..))
                        && interner
                            .ancestors(g)
                            .iter()
                            .any(|&a| matches!(interner.resolve(a), GenSale::ItemCode(..)))),
                    "a code below a more favorable code"
                );
            }
        }
    }

    #[test]
    fn confidence_mode_changes_ranking() {
        let (_, tp) = tree(1, ProfitMode::Profit);
        let (mined, tc) = tree(1, ProfitMode::Confidence);
        assert!(tp.len() > 1);
        // Under confidence mode with MOA, the default rule's cheapest
        // head hits *every* transaction here (confidence 1.0 at maximal
        // support), so it dominates all other rules — the tree collapses
        // to the default alone. That is faithful Definition-6 behavior.
        assert_eq!(tc.len(), 1);
        let d = &tc.rules[0];
        assert!(d.body.is_empty());
        assert_eq!(d.hits as usize, mined.n_transactions());
    }

    #[test]
    fn min_support_filter_shrinks_tree() {
        let (mined, _) = tree(1, ProfitMode::Profit);
        let t1 = CoveringTree::build(&mined, ProfitMode::Profit, None);
        let t3 = CoveringTree::build(&mined, ProfitMode::Profit, Some(Support::Count(3)));
        assert!(t3.len() <= t1.len());
        assert!(t3.rules[t3.root()].body.is_empty());
    }
}
