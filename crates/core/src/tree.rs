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
//!
//! The build works once per distinct body. Rules that share a body also
//! share its closure, so the first of them in rank order is the only one
//! that can survive: a later one is dominated by it, or by whatever
//! dominated it.

use crate::rank::MpfKey;
use pm_rules::{
    intersect_into, BitSet, GsId, GsInterner, MinedRules, ProfitMode, Rule, Support, TidBuf,
    TidView,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The covering tree over the surviving (non-dominated) rules.
#[derive(Debug, Clone)]
pub struct CoveringTree<'a> {
    /// Surviving rules in descending MPF rank, borrowed from the mined
    /// rules; the last one is the default rule (the root).
    pub rules: Vec<Cow<'a, Rule>>,
    /// Parent index per rule (`None` only for the default rule).
    pub parent: Vec<Option<usize>>,
    /// Transactions covered by each rule (it is their highest-ranked
    /// match), ascending.
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

/// No node, no survivor.
const NONE: u32 = u32::MAX;

/// Every prefix of every survivor body, as a trie: node 0 is the empty
/// prefix, and the edge `(node, g)` leads to that prefix extended by `g`.
/// Bodies are sorted, so a survivor body is a subset of a sorted closure
/// iff a walk of the closure reaches the node the body ends at.
struct PrefixMap {
    /// The root's edges, indexed by `GsId` (`NONE` where absent).
    root: Vec<u32>,
    /// Every other edge.
    edges: HashMap<(u32, GsId), u32, IdBuildHasher>,
    /// Per node: the survivor whose body ends there, or `NONE`.
    owner: Vec<u32>,
    /// Per node: the smallest survivor whose body passes through it.
    /// Survivors arrive in ascending order, so it is the one that made
    /// the node.
    first: Vec<u32>,
    /// Per node: bit `g % 64` is set for each child edge `g` (zero for a
    /// leaf). Most closure ids extend no given prefix, and a clear bit
    /// skips their hash lookup.
    kids: Vec<u64>,
}

fn bit(g: GsId) -> u64 {
    1 << (g.0 % 64)
}

impl PrefixMap {
    /// The map holding only the empty prefix, over `n_gs` sales.
    fn new(n_gs: usize) -> Self {
        Self {
            root: vec![NONE; n_gs],
            edges: HashMap::default(),
            owner: vec![NONE],
            first: vec![NONE],
            kids: vec![0],
        }
    }

    /// Register survivor `id` with the (sorted, non-empty) `body`.
    fn insert(&mut self, body: &[GsId], id: u32) {
        let mut node = 0;
        for &g in body {
            let next = self.owner.len() as u32;
            node = if node == 0 {
                let child = &mut self.root[g.index()];
                if *child == NONE {
                    *child = next;
                }
                *child
            } else {
                self.kids[node as usize] |= bit(g);
                *self.edges.entry((node, g)).or_insert(next)
            };
            if node == next {
                self.owner.push(NONE);
                self.first.push(id);
                self.kids.push(0);
            }
        }
        self.owner[node as usize] = id;
    }

    /// The child of `node` along `g`, counting each edge looked up in
    /// `steps`.
    fn child(&self, node: u32, g: GsId, steps: &mut u64) -> Option<u32> {
        if node == 0 {
            *steps += 1;
            let child = self.root[g.index()];
            return (child != NONE).then_some(child);
        }
        if self.kids[node as usize] & bit(g) == 0 {
            return None;
        }
        *steps += 1;
        self.edges.get(&(node, g)).copied()
    }

    /// Whether some survivor's body below `node` is a subset of the
    /// sorted `closure`, extending only the prefixes present in the map.
    fn any_subset(&self, node: u32, closure: &[GsId], steps: &mut u64) -> bool {
        (node == 0 || self.kids[node as usize] != 0)
            && closure.iter().enumerate().any(|(k, &g)| {
                self.child(node, g, steps).is_some_and(|c| {
                    self.owner[c as usize] != NONE || self.any_subset(c, &closure[k + 1..], steps)
                })
            })
    }

    /// Lower `best` to the smallest survivor other than `me` whose body
    /// below `node` is a subset of the sorted `closure`, skipping every
    /// subtree whose first survivor is not below `best`.
    fn min_subset(&self, node: u32, closure: &[GsId], me: u32, best: &mut u32, steps: &mut u64) {
        if node != 0 && self.kids[node as usize] == 0 {
            return;
        }
        for (k, &g) in closure.iter().enumerate() {
            let Some(c) = self.child(node, g, steps) else {
                continue;
            };
            if self.first[c as usize] >= *best {
                continue;
            }
            let owner = self.owner[c as usize];
            if owner != me && owner < *best {
                *best = owner;
            }
            self.min_subset(c, &closure[k + 1..], me, best, steps);
        }
    }
}

/// The sorted up-set `{g} ∪ ancestors(g)` of every generalized sale, in
/// one flat buffer: `g`'s is `ids[at[g]..at[g + 1]]`.
struct UpSets {
    ids: Vec<GsId>,
    at: Vec<usize>,
}

impl UpSets {
    fn new(interner: &GsInterner) -> Self {
        let mut ids = Vec::new();
        let mut at = vec![0];
        for g in (0..interner.len() as u32).map(GsId) {
            let anc = interner.ancestors(g);
            let below = anc.partition_point(|&a| a < g);
            ids.extend_from_slice(&anc[..below]);
            ids.push(g);
            ids.extend_from_slice(&anc[below..]);
            at.push(ids.len());
        }
        Self { ids, at }
    }

    fn of(&self, g: GsId) -> &[GsId] {
        &self.ids[self.at[g.index()]..self.at[g.index() + 1]]
    }

    /// Append the sorted closure of `body`, the union of its sales'
    /// up-sets, to `out`: merge each up-set into the segment from the
    /// back, then drop the repeats.
    fn push_closure(&self, body: &[GsId], out: &mut Vec<GsId>) {
        let start = out.len();
        for &g in body {
            let add = self.of(g);
            let (mut i, mut j) = (out.len(), add.len());
            out.resize(i + j, g);
            let mut w = out.len();
            while j > 0 {
                w -= 1;
                if i > start && out[i - 1] > add[j - 1] {
                    i -= 1;
                    out[w] = out[i];
                } else {
                    j -= 1;
                    out[w] = add[j];
                }
            }
        }
        let mut w = start;
        for r in start..out.len() {
            if w == start || out[w - 1] != out[r] {
                out[w] = out[r];
                w += 1;
            }
        }
        out.truncate(w);
    }
}

/// The bodies the rank keeps, highest rank first, each with its best
/// rule, and with the bodies copied into one flat buffer in generation
/// order, where the rules lie in memory: later stages read a body from
/// the buffer rather than chase each rule's body in rank order.
struct Ranked<'a> {
    reps: Vec<(MpfKey, Rep<'a>)>,
    bodies: Vec<GsId>,
}

/// One ranked body: its best rule and its body at `bodies[at..end]`.
#[derive(Clone, Copy)]
struct Rep<'a> {
    rule: &'a Rule,
    at: u32,
    end: u32,
}

impl<'a> Ranked<'a> {
    /// Rank, once per body: of each body run, the best rule by `mpf_cmp`
    /// among those with at least `floor` hits, kept when it ranks above
    /// `default`. Also returns the number of rules with at least `floor`
    /// hits.
    fn new(mined: &'a MinedRules, default: &Rule, mode: ProfitMode, floor: u32) -> (Self, usize) {
        let bar = MpfKey::of(default, mode);
        let mut n_pool = 0;
        let mut reps = Vec::new();
        let mut bodies = Vec::new();
        let offset = |ids: &Vec<GsId>| u32::try_from(ids.len()).expect("fewer than 2^32 body ids");
        for run in mined.body_runs() {
            let mut best: Option<(MpfKey, &Rule)> = None;
            for rule in run.iter().filter(|r| r.hits >= floor) {
                n_pool += 1;
                let key = MpfKey::of(rule, mode);
                if best.is_none_or(|(b, _)| key > b) {
                    best = Some((key, rule));
                }
            }
            let Some((key, rule)) = best.filter(|&(key, _)| key > bar) else {
                continue;
            };
            let at = offset(&bodies);
            bodies.extend_from_slice(&rule.body);
            let end = offset(&bodies);
            reps.push((key, Rep { rule, at, end }));
        }
        reps.sort_unstable_by_key(|&(key, _)| std::cmp::Reverse(key));
        (Self { reps, bodies }, n_pool)
    }

    fn body(&self, rep: &Rep<'_>) -> &[GsId] {
        &self.bodies[rep.at as usize..rep.end as usize]
    }
}

impl<'a> CoveringTree<'a> {
    /// Build the covering tree from mined rules under `mode`, optionally
    /// filtering to a higher minimum support first.
    pub fn build(mined: &'a MinedRules, mode: ProfitMode, min_support: Option<Support>) -> Self {
        let interner = mined.interner();

        // 1. Rank: everything ranked below the default rule is dominated
        //    by it, and of a body's rules only the first can survive.
        let rank = pm_obs::span("build.rank");
        let default = mined.default_rule(mode);
        let floor = min_support.map_or(0, |s| mined.support_count_at(s));
        let (ranked, n_pool) = Ranked::new(mined, &default, mode, floor);
        drop(rank);

        // 2. Dominance scan in rank-descending order: a body survives iff
        //    no survivor body is a subset of its closure. Each closure is
        //    built once; the survivors' stay, in one flat buffer, for the
        //    parent walk.
        let dominance = pm_obs::span("build.dominance");
        let up = UpSets::new(interner);
        let mut map = PrefixMap::new(interner.len());
        let mut kept: Vec<Rep<'a>> = Vec::new();
        let (mut closures, mut closure_end) = (Vec::new(), vec![0]);
        let mut steps = 0u64;
        for (_, rep) in &ranked.reps {
            let start = closures.len();
            up.push_closure(ranked.body(rep), &mut closures);
            if map.any_subset(0, &closures[start..], &mut steps) {
                closures.truncate(start);
            } else {
                map.insert(ranked.body(rep), kept.len() as u32);
                closure_end.push(closures.len());
                kept.push(*rep);
            }
        }
        let m = kept.len() + 1;
        let n_dominated = n_pool + 1 - m;
        drop(dominance);

        // 3. Parents: a survivor generalizing survivor `i` ranks below it
        //    (else `i` would be dominated), so the parent is the
        //    highest-ranked (smallest-index) generalizer other than `i`
        //    itself, falling back to the default rule.
        let parents = pm_obs::span("build.parents");
        let root = m - 1;
        let parent: Vec<Option<usize>> = (0..m)
            .map(|i| {
                if i == root {
                    return None;
                }
                let closure = &closures[closure_end[i]..closure_end[i + 1]];
                let mut best = root as u32;
                map.min_subset(0, closure, i as u32, &mut best, &mut steps);
                Some(best as usize)
            })
            .collect();
        drop((map, closures, closure_end));
        drop(parents);

        // 4. Coverage: highest-ranked matching rule per transaction, as
        //    `uncovered ∩ tidset(g₁) ∩ tidset(g₂) …` through the
        //    intersection kernel and two reused buffers, smallest tidset
        //    first, stopping at the first empty result. The default rule
        //    covers what is left.
        let coverage = pm_obs::span("build.coverage");
        let n = mined.n_transactions();
        let mut uncovered = BitSet::full(n);
        let mut left = n;
        let (mut acc, mut tmp) = (TidBuf::new(n), TidBuf::new(n));
        let mut intersections = 0u64;
        let sizes: Vec<usize> = (0..interner.len() as u32)
            .map(|g| mined.gs_tidset(GsId(g)).count())
            .collect();
        let mut order: Vec<GsId> = Vec::new();
        let mut cover: Vec<Vec<u32>> = kept
            .iter()
            .map(|rep| {
                if left == 0 {
                    return Vec::new();
                }
                order.clear();
                order.extend_from_slice(ranked.body(rep));
                order.sort_by_key(|&g| sizes[g.index()]);
                for (k, &g) in order.iter().enumerate() {
                    let from = if k == 0 {
                        TidView::Dense(uncovered.words())
                    } else {
                        acc.view()
                    };
                    intersections += 1;
                    let count = intersect_into(from, mined.gs_tidset(g).view(), &mut tmp, 0)
                        .expect("bound 0 never early-exits");
                    std::mem::swap(&mut acc, &mut tmp);
                    if count == 0 {
                        return Vec::new();
                    }
                }
                let mine: Vec<u32> = acc.view().iter().map(|t| t as u32).collect();
                for &t in &mine {
                    uncovered.remove(t as usize);
                }
                left -= mine.len();
                mine
            })
            .collect();
        cover.push(uncovered.iter().map(|t| t as u32).collect());
        drop(coverage);

        pm_obs::counter("build.bodies_ranked").add(ranked.reps.len() as u64);
        pm_obs::counter("build.prefix_steps").add(steps);
        pm_obs::counter("build.cover_intersections").add(intersections);
        let mut rules: Vec<Cow<'a, Rule>> =
            kept.iter().map(|rep| Cow::Borrowed(rep.rule)).collect();
        rules.push(Cow::Owned(default));
        CoveringTree {
            rules,
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
    use crate::rank::mpf_cmp;
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

    fn toy(minsup: u32) -> MinedRules {
        RuleMiner::new(MinerConfig {
            min_support: Support::Count(minsup),
            moa: MoaMode::Enabled,
            ..MinerConfig::default()
        })
        .mine(&dataset())
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
        assert!(survivors.iter().eq(tree.rules.iter().map(|r| &**r)));
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
        let mined = toy(1);
        let tree = CoveringTree::build(&mined, ProfitMode::Profit, None);
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
        let mined = toy(1);
        let tree = CoveringTree::build(&mined, ProfitMode::Profit, None);
        for w in 0..tree.len() - 1 {
            assert_eq!(
                mpf_cmp(&tree.rules[w], &tree.rules[w + 1], ProfitMode::Profit),
                std::cmp::Ordering::Greater
            );
        }
    }

    #[test]
    fn no_survivor_is_dominated() {
        let mined = toy(1);
        let tree = CoveringTree::build(&mined, ProfitMode::Profit, None);
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
        let mined = toy(1);
        let tree = CoveringTree::build(&mined, ProfitMode::Profit, None);
        check_dominance(&mined, &tree, ProfitMode::Profit, None);
    }

    #[test]
    fn parent_is_highest_ranked_generalizer() {
        let mined = toy(1);
        let tree = CoveringTree::build(&mined, ProfitMode::Profit, None);
        check_parents(&mined, &tree);
    }

    #[test]
    fn coverage_is_highest_ranked_match() {
        let mined = toy(1);
        let tree = CoveringTree::build(&mined, ProfitMode::Profit, None);
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

    /// Rank keeps exactly the first rule of each body in `mpf_cmp`
    /// order among the pooled rules, when it ranks above the default,
    /// and the merged up-sets of its sales are its sorted closure.
    #[test]
    fn rank_keeps_the_first_rule_of_each_body() {
        for mined in generated_mined() {
            let interner = mined.interner();
            let up = UpSets::new(interner);
            for min_support in REFILTERS {
                let floor = min_support.map_or(0, |s| mined.support_count_at(s));
                for mode in [ProfitMode::Profit, ProfitMode::Confidence] {
                    let default = mined.default_rule(mode);
                    let mut all = pool(&mined, min_support);
                    all.sort_by(|a, b| mpf_cmp(b, a, mode));
                    let above = all
                        .iter()
                        .take_while(|r| mpf_cmp(r, &default, mode).is_gt());
                    let mut seen = std::collections::HashSet::new();
                    let firsts: Vec<&Rule> =
                        above.clone().filter(|r| seen.insert(&r.body)).collect();
                    assert!(firsts.len() < above.count(), "a body repeats");
                    let (ranked, n_pool) = Ranked::new(&mined, &default, mode, floor);
                    assert_eq!(n_pool, all.len());
                    assert_eq!(ranked.reps.len(), firsts.len());
                    for ((key, rep), &first) in ranked.reps.iter().zip(&firsts) {
                        assert_eq!(rep.rule, first, "{mode:?} {min_support:?}");
                        assert!(*key == MpfKey::of(first, mode));
                        assert_eq!(ranked.body(rep), &first.body[..]);
                        let mut closure: Vec<GsId> = first
                            .body
                            .iter()
                            .flat_map(|&g| std::iter::once(g).chain(interner.ancestors(g).to_vec()))
                            .collect();
                        closure.sort_unstable();
                        closure.dedup();
                        let mut merged = Vec::new();
                        up.push_closure(ranked.body(rep), &mut merged);
                        assert_eq!(merged, closure);
                    }
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
        let mined = toy(1);
        let tp = CoveringTree::build(&mined, ProfitMode::Profit, None);
        let tc = CoveringTree::build(&mined, ProfitMode::Confidence, None);
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
        let mined = toy(1);
        let t1 = CoveringTree::build(&mined, ProfitMode::Profit, None);
        let t3 = CoveringTree::build(&mined, ProfitMode::Profit, Some(Support::Count(3)));
        assert!(t3.len() <= t1.len());
        assert!(t3.rules[t3.root()].body.is_empty());
    }
}
