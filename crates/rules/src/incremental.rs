//! Incremental re-mining over a growing transaction set (DESIGN.md §15).
//!
//! [`IncrementalMiner`] mines a base set once, keeps the vertical layout
//! alive, and on every delta batch re-runs the DFS **only for anchors
//! whose tidsets changed** — yet returns a [`MinedRules`] that is
//! bit-identical, rule for rule and `f64` for `f64`, to a cold
//! [`RuleMiner::mine`] over the concatenated set. The identity rests on
//! a small chain of invariants:
//!
//! * Delta transactions only append tids `≥ n`, and an *unchanged*
//!   anchor (one no delta transaction contains) has its tidset — and
//!   therefore every body tidset rooted at it — entirely below `n`, so
//!   all of its rule statistics are frozen.
//! * [`Support::to_count`](crate::miner::Support::to_count) is
//!   non-decreasing in `n`, so the minimum
//!   support only ever rises. Combined with the Apriori argument, the
//!   DFS run at cache time (at the then-current, lower support) explored
//!   a superset of everything a cold run at today's support reaches; a
//!   singleton that was infrequent at cache time cannot enter an
//!   unchanged anchor's candidate list today, because the pair count is
//!   capped by its old total count.
//! * The default-dominance floor is the one emission filter that
//!   depends on `n`, so caches are generated with the floor disabled
//!   and the exact floor predicate of `RuleEmitter::emit` is
//!   re-applied at assembly time; confidence and rule-profit filters
//!   are `n`-independent and stay applied at generation.
//! * The floor itself comes from persistent per-head hit/profit
//!   accumulators patched with the delta transactions in tid order —
//!   the same left-to-right `f64` summation sequence as a cold pass.
//!
//! Filtering a cache preserves the DFS pre-order inside each anchor, and
//! assembly walks anchors in the frequent-singleton order, so the §3.2
//! generation-order tie-break survives verbatim; generation indices are
//! renumbered over the assembled sequence.
//!
//! A changed anchor is walked again, but only its *dirty* bodies — those
//! at least one delta transaction contains — are rescanned. The walk
//! intersects the per-sale delta-tid lists down the tree to find them.
//! A *clean* child of a dirty body is neither intersected, scanned nor
//! recursed into: its subtree is one contiguous run of the anchor's
//! previous deeper rules (DFS pre-order is `(body, head)` order), which
//! the walk moves into the new cache, keeping the rules that reach
//! today's support and renumbering `gen_index`. The walked cache equals
//! a full re-walk's, rule for rule and bit for bit:
//!
//! * a clean body keeps its tidset, and so does every body below it;
//! * a clean body the previous walk never reached held no rule at the
//!   previous support (it was infrequent, or the bound cut an ancestor),
//!   and so holds none at today's, which is no lower;
//! * every emission filter and the subtree bound are monotone in
//!   support, so today's walk of a clean subtree emits exactly the
//!   previous rules that reach today's support.
//!
//! [`IncrementalMiner::restore`] refuses caches out of that order, since
//! the walk finds each subtree's run by it.

use crate::extend::HeadId;
use crate::interner::GsId;
use crate::miner::{
    bodies_are_runs, dominance_floor, Layout, MinedRules, Reuse, RuleMiner, NO_FLOOR,
};
use crate::rule::Rule;
use crate::tidset::TidSet;
use pm_txn::TransactionSet;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// A miner that amortizes re-mining across delta batches.
pub struct IncrementalMiner {
    miner: RuleMiner,
    state: Option<MinerState>,
}

/// Everything carried between updates.
struct MinerState {
    /// The vertical layout, patched in tid order with every delta; its
    /// support count only ever rises.
    layout: Layout,
    /// Per-`GsId` caches of floor-unfiltered rules; `None` for anchors
    /// that changed since their last mine (or were never frequent).
    caches: Vec<Option<AnchorCache>>,
}

/// The floor-unfiltered rules of one anchor, from a DFS at `minsup`.
struct AnchorCache {
    /// Support count the cache was generated at (`≤` every later one).
    minsup: u32,
    /// The anchor's level-1 (singleton-body) rules, heads ascending.
    level1: Vec<Rule>,
    /// The anchor's deeper rules, in DFS pre-order.
    deeper: Vec<Rule>,
}

/// The durable incremental state of a fitted [`IncrementalMiner`], in
/// serializable form — what a checkpoint must persist so a restarted
/// process can resume streaming without re-running the DFS.
///
/// Deliberately minimal: only the support count (an integrity
/// cross-check) and the warm anchor caches are carried. The extension,
/// vertical layout and floor accumulators are **rebuilt** from the
/// transaction data at
/// [`restore`](IncrementalMiner::restore) time with the exact loops of
/// [`fit`](IncrementalMiner::fit) — cheaper to recompute than to store,
/// and bit-identical by construction because the incremental paths patch
/// them in the same left-to-right order a cold pass uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinerSnapshot {
    /// Support count at snapshot time; re-derived from the data at
    /// restore and required to agree.
    minsup: u32,
    /// The warm anchor caches, ascending anchor id.
    caches: Vec<CacheSnapshot>,
}

/// One anchor's cached DFS output, in snapshot form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheSnapshot {
    /// The anchor's generalized-sale id.
    anchor: u32,
    /// Support count the cache was generated at.
    minsup: u32,
    /// Level-1 (singleton-body) rules, heads ascending.
    level1: Vec<RuleSnapshot>,
    /// Deeper rules in DFS pre-order.
    deeper: Vec<RuleSnapshot>,
}

/// A cached rule with its profit carried as raw IEEE-754 bits: the JSON
/// layer turns non-finite `f64`s into `null`, and the bit pattern makes
/// the byte-identity contract explicit rather than incidental.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct RuleSnapshot {
    body: Vec<u32>,
    head: u32,
    body_count: u32,
    hits: u32,
    profit_bits: u64,
    gen_index: u32,
}

impl RuleSnapshot {
    fn of(r: &Rule) -> Self {
        Self {
            body: r.body.iter().map(|g| g.0).collect(),
            head: r.head.0,
            body_count: r.body_count,
            hits: r.hits,
            profit_bits: r.profit.to_bits(),
            gen_index: r.gen_index,
        }
    }

    fn rule(&self, n_gs: usize, n_heads: usize) -> Result<Rule, String> {
        if self.head as usize >= n_heads {
            return Err(format!(
                "cached rule references head {} but the data has only {n_heads} heads",
                self.head
            ));
        }
        if let Some(&b) = self.body.iter().find(|&&b| b as usize >= n_gs) {
            return Err(format!(
                "cached rule references generalized sale {b} but the data has only {n_gs}"
            ));
        }
        Ok(Rule {
            body: self.body.iter().map(|&b| GsId(b)).collect(),
            head: HeadId(self.head),
            body_count: self.body_count,
            hits: self.hits,
            profit: f64::from_bits(self.profit_bits),
            gen_index: self.gen_index,
        })
    }
}

impl AnchorCache {
    /// Refuse rules a refit cannot trust. Level-1 bodies are exactly
    /// `[anchor]`. Deeper bodies start at the anchor, ascend strictly and
    /// hold `2..=max_body_len` sales. Each list is in DFS pre-order —
    /// bodies lexicographic, heads strictly ascending within one body —
    /// which both the generation-order tie-break and the walk's subtree
    /// runs assume.
    fn check(&self, anchor: GsId, max_body_len: usize) -> Result<(), String> {
        let a = anchor.0;
        let ids = |r: &Rule| r.body.iter().map(|g| g.0).collect::<Vec<_>>();
        if let Some(r) = self.level1.iter().find(|r| r.body != [anchor]) {
            return Err(format!(
                "anchor {a} caches a level-1 rule with body {:?}, not [{a}]",
                ids(r)
            ));
        }
        if let Some(r) = self.deeper.iter().find(|r| {
            r.body.first() != Some(&anchor)
                || !(2..=max_body_len).contains(&r.body.len())
                || r.body.windows(2).any(|w| w[0] >= w[1])
        }) {
            return Err(format!(
                "anchor {a} caches a deeper rule with body {:?} — deeper bodies start at \
                 the anchor, ascend strictly and hold 2 to {max_body_len} sales",
                ids(r)
            ));
        }
        for (list, rules) in [("level-1", &self.level1), ("deeper", &self.deeper)] {
            if let Some(i) = rules
                .windows(2)
                .position(|w| (&w[0].body, w[0].head) >= (&w[1].body, w[1].head))
            {
                return Err(format!(
                    "anchor {a}'s {list} rules leave DFS pre-order at rule {}",
                    i + 1
                ));
            }
        }
        Ok(())
    }
}

impl MinerState {
    /// The cold-pass state over `data`: the layout a cold
    /// [`RuleMiner::mine`] builds, and no caches yet. `fit` mines on top
    /// of it; `restore` fills the caches from a snapshot instead.
    fn build(miner: &RuleMiner, data: &TransactionSet) -> MinerState {
        let (extended, moa) = miner.extend(data);
        let layout = miner.layout(extended, moa);
        let caches = (0..layout.extended.n_gs()).map(|_| None).collect();
        MinerState { layout, caches }
    }
}

/// The exact emission-time filter a cached rule must re-pass at
/// assembly: today's support count plus the default-dominance floor,
/// with the same expressions and tolerances as [`RuleEmitter::emit`].
/// (Confidence and the per-head floors, the target included, are
/// `n`-independent and were already applied when the cache was
/// generated.)
fn survives(r: &Rule, minsup: u32, floor: (f64, f64)) -> bool {
    if r.hits < minsup {
        return false;
    }
    let bc = r.body_count as f64;
    !(r.profit / bc < floor.0 + 1e-12 && (r.hits as f64) / bc < floor.1 + 1e-12)
}

impl IncrementalMiner {
    /// Wrap a configured [`RuleMiner`].
    pub fn new(miner: RuleMiner) -> Self {
        Self { miner, state: None }
    }

    /// True once [`fit`](Self::fit) has run.
    pub fn is_fitted(&self) -> bool {
        self.state.is_some()
    }

    /// Number of transactions currently incorporated.
    pub fn n_transactions(&self) -> usize {
        self.state
            .as_ref()
            .map_or(0, |s| s.layout.extended.n_transactions())
    }

    /// Cold mine: build the extension, the vertical layout and the rule
    /// caches from scratch. Equivalent to [`RuleMiner::mine`], with the
    /// state retained for [`update`](Self::update). Calling `fit` again
    /// discards all previous state.
    pub fn fit(&mut self, data: &TransactionSet) -> MinedRules {
        let mut state = MinerState::build(&self.miner, data);
        let out = Self::remine(&self.miner, &mut state, None);
        self.state = Some(state);
        out
    }

    /// Incorporate a delta batch and re-mine. `data` must be the fitted
    /// set with new transactions appended (the first `n` are not
    /// re-read); callers grow their set in place via
    /// [`TransactionSet::extend_from`] and pass it back whole. The
    /// catalog and hierarchy may have grown append-only in the meantime
    /// (see [`TransactionSet::apply_stream_record`]): MOA tables are
    /// rebuilt over the grown catalog, but existing anchors keep their
    /// caches — new items occur only in delta transactions, so a frozen
    /// anchor's tidset cannot reach any new head.
    ///
    /// The result is bit-identical to a cold [`RuleMiner::mine`] over
    /// `data`, but only anchors occurring in the delta re-enter the DFS,
    /// and within them only the bodies occurring in the delta are
    /// rescanned.
    ///
    /// # Panics
    ///
    /// Panics when called before [`fit`](Self::fit) or when `data` is
    /// shorter than the fitted set.
    pub fn update(&mut self, data: &TransactionSet) -> MinedRules {
        let mut state = self.state.take().expect("update() requires a prior fit()");
        let config = *self.miner.config();
        let layout = &mut state.layout;
        let old_n = layout.extended.n_transactions();
        assert!(
            data.len() >= old_n,
            "the updated set must extend the fitted one ({} < {old_n} transactions)",
            data.len()
        );
        // Catalog growth: rebuild the MOA tables against the grown
        // catalog before extending. Growth is append-only, so existing
        // items' favorability tables and ancestor lists are unchanged —
        // the old extension stays valid word for word.
        if data.catalog().len() != layout.moa.catalog().len()
            || data.hierarchy().n_concepts() != layout.moa.hierarchy().n_concepts()
        {
            layout.moa = self.miner.moa(data);
        }
        layout
            .extended
            .extend(data, &layout.moa, config.quantity, old_n);
        let new_n = layout.extended.n_transactions();
        let n_gs = layout.extended.n_gs();
        // Patch the floor accumulators in the order a cold pass adds
        // these terms; new target items bring new heads, which start at
        // zero exactly like a cold pass.
        layout.extended.add_head_totals(old_n, &mut layout.totals);
        // Delta tids per generalized sale — ascending, because delta
        // transactions are walked in tid order.
        let mut delta: Vec<Vec<u32>> = vec![Vec::new(); n_gs];
        for tid in old_n..new_n {
            for &g in &layout.extended.txn_gs[tid] {
                delta[g.index()].push(tid as u32);
            }
        }

        // Every tidset's universe grows to `new_n`. An anchor that gained
        // tids is changed: it leaves the reusable caches, and its deeper
        // rules go to its next walk, which rescans only the bodies the
        // delta touched.
        let old_gs = layout.tidsets.len();
        state.caches.resize_with(n_gs, || None);
        let mut prior: Vec<Mutex<Option<Vec<Rule>>>> =
            (0..n_gs).map(|_| Mutex::new(None)).collect();
        let mut changed = 0u64;
        for (gi, ids) in delta.iter().enumerate().take(old_gs) {
            if !ids.is_empty() {
                prior[gi] = Mutex::new(state.caches[gi].take().map(|c| c.deeper));
                changed += 1;
            }
            layout.tidsets[gi].extend(new_n, ids);
        }
        // Brand-new generalized sales occur only in the delta: their
        // tidsets are built exactly as `ExtendedData::tidsets` would.
        for ids in &delta[old_gs..] {
            layout
                .tidsets
                .push(TidSet::from_sorted_ids(ids.clone(), new_n));
        }
        pm_obs::counter("incremental.anchors_changed").add(changed + (n_gs - old_gs) as u64);

        let minsup = config.min_support.to_count(new_n);
        debug_assert!(
            minsup >= layout.minsup,
            "support count shrank ({} -> {minsup}) — to_count must be monotone in n",
            layout.minsup
        );
        layout.minsup = minsup;
        let reuse = Reuse { delta, prior };
        let out = Self::remine(&self.miner, &mut state, Some(&reuse));
        self.state = Some(state);
        out
    }

    /// Capture the durable incremental state for a checkpoint. Returns
    /// `None` before [`fit`](Self::fit). See [`MinerSnapshot`] for what
    /// is (and deliberately is not) carried.
    pub fn snapshot(&self) -> Option<MinerSnapshot> {
        let state = self.state.as_ref()?;
        let caches = state
            .caches
            .iter()
            .enumerate()
            .filter_map(|(gi, c)| {
                c.as_ref().map(|c| CacheSnapshot {
                    anchor: gi as u32,
                    minsup: c.minsup,
                    level1: c.level1.iter().map(RuleSnapshot::of).collect(),
                    deeper: c.deeper.iter().map(RuleSnapshot::of).collect(),
                })
            })
            .collect();
        Some(MinerSnapshot {
            minsup: state.layout.minsup,
            caches,
        })
    }

    /// Rebuild a fitted miner from a snapshot. `data` must hold exactly
    /// the transactions (and catalog) the snapshot covered — the support
    /// count re-derived from `data` is cross-checked against the
    /// snapshot's, and every cached anchor and head must exist in the
    /// rebuilt extension. Each cache must also have the shape a walk
    /// gives it (see `AnchorCache::check`): a refit moves its subtrees by
    /// that shape.
    ///
    /// The extension, tidsets and floor accumulators are rebuilt by the
    /// same setup [`fit`](Self::fit) runs; the DFS is skipped entirely
    /// because the caches come back warm. Call [`update`](Self::update)
    /// afterwards — with the restored data, or with the replayed log
    /// tail appended — to obtain the model; an empty delta assembles
    /// from the caches without mining a single anchor.
    pub fn restore(
        miner: RuleMiner,
        data: &TransactionSet,
        snap: &MinerSnapshot,
    ) -> Result<Self, String> {
        let mut state = MinerState::build(&miner, data);
        let minsup = state.layout.minsup;
        if minsup != snap.minsup {
            return Err(format!(
                "snapshot support count {} disagrees with the data's {minsup} — \
                 the data is not the stream the snapshot covered",
                snap.minsup
            ));
        }
        let (n_gs, h) = (
            state.layout.extended.n_gs(),
            state.layout.extended.n_heads(),
        );
        let caches = &mut state.caches;
        for c in &snap.caches {
            let gi = c.anchor as usize;
            if gi >= n_gs {
                return Err(format!(
                    "snapshot caches anchor {gi} but the data has only {n_gs} generalized sales"
                ));
            }
            if caches[gi].is_some() {
                return Err(format!("snapshot caches anchor {gi} twice"));
            }
            if c.minsup > minsup {
                return Err(format!(
                    "anchor {gi} was cached at support {} > today's {minsup} — \
                     caches only stay valid as the support count rises",
                    c.minsup
                ));
            }
            let decode = |rs: &[RuleSnapshot]| -> Result<Vec<Rule>, String> {
                rs.iter().map(|r| r.rule(n_gs, h)).collect()
            };
            let cache = AnchorCache {
                minsup: c.minsup,
                level1: decode(&c.level1)?,
                deeper: decode(&c.deeper)?,
            };
            cache.check(GsId(c.anchor), miner.config().max_body_len)?;
            caches[gi] = Some(cache);
        }
        Ok(Self {
            miner,
            state: Some(state),
        })
    }

    /// Re-mine the frequent anchors without a cache, then assemble the
    /// full rule list from the caches in cold emission order. An anchor
    /// with rules in `reuse` rescans only the bodies the delta touched.
    fn remine(miner: &RuleMiner, state: &mut MinerState, reuse: Option<&Reuse>) -> MinedRules {
        let MinerState { layout, caches } = state;
        let minsup = layout.minsup;
        // Frequent singletons at today's support — the cold run's
        // anchors exactly, since tidset counts are maintained
        // incrementally.
        let anchors = miner.anchors(layout);
        let freq = &anchors.freq;

        // DFS only the frequent anchors whose caches were invalidated
        // (or never existed), through the cold fan-out with the
        // dominance floor off, filing each job's rules into its cache.
        let stale: Vec<usize> = (0..freq.len())
            .filter(|&ai| caches[freq[ai].index()].is_none())
            .collect();
        miner.fan_out(
            layout,
            &anchors,
            &stale,
            NO_FLOOR,
            reuse,
            |deeper, a, rules| {
                let cache = &mut caches[a.index()];
                if deeper {
                    cache.as_mut().expect("level 1 filed the cache").deeper = rules;
                } else {
                    *cache = Some(AnchorCache {
                        minsup,
                        level1: rules,
                        deeper: Vec::new(),
                    });
                }
            },
        );
        pm_obs::counter("incremental.anchors_remined").add(stale.len() as u64);
        pm_obs::counter("incremental.anchors_reused").add((freq.len() - stale.len()) as u64);

        // Assemble in cold emission order: every frequent singleton's
        // level-1 rules (GsId ascending), then every anchor's DFS rules
        // (anchor order, pre-order within), each rule re-passing
        // today's support and dominance floor.
        let floor = dominance_floor(
            miner.config(),
            &layout.totals,
            layout.extended.n_transactions(),
        );
        let cache_of = |g: GsId| -> &AnchorCache {
            let c = caches[g.index()]
                .as_ref()
                .expect("every frequent anchor has a cache");
            debug_assert!(c.minsup <= minsup);
            c
        };
        let mut rules: Vec<Rule> = Vec::new();
        for &g in freq {
            rules.extend(
                cache_of(g)
                    .level1
                    .iter()
                    .filter(|r| survives(r, minsup, floor))
                    .cloned(),
            );
        }
        for &g in freq {
            rules.extend(
                cache_of(g)
                    .deeper
                    .iter()
                    .filter(|r| survives(r, minsup, floor))
                    .cloned(),
            );
        }
        for (i, r) in rules.iter_mut().enumerate() {
            r.gen_index = i as u32;
        }
        debug_assert!(bodies_are_runs(&rules), "a body's rules are one run");
        pm_obs::info!(
            "mine.incremental",
            rules = rules.len(),
            minsup = minsup,
            freq_singletons = freq.len(),
            remined = stale.len()
        );
        MinedRules {
            config: *miner.config(),
            rules,
            layout: layout.clone(),
            head_floor: anchors.gates.floor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::{MinerConfig, MoaMode, Support};
    use pm_txn::{
        Catalog, CodeId, Hierarchy, ItemDef, ItemId, Money, PromotionCode, QuantityModel, Sale,
        Transaction,
    };

    /// Catalog: three non-target items (2 codes each) and one target
    /// (2 codes) — enough distinct generalized sales for 3-deep bodies.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, hi) in [("a", 120), ("b", 140), ("c", 160)] {
            cat.push(ItemDef {
                name: name.into(),
                codes: vec![
                    PromotionCode::unit(Money::from_cents(100), Money::from_cents(50)),
                    PromotionCode::unit(Money::from_cents(hi), Money::from_cents(50)),
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
        cat
    }

    /// Deterministic stream of `n` transactions: random subsets of the
    /// non-target items at random codes, random target code/quantity.
    fn stream(seed: u64, n: usize) -> Vec<Transaction> {
        let mut x = 0x9e3779b97f4a7c15u64 ^ seed.wrapping_mul(0x2545f4914f6cdd1d);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|_| {
                let mut sales = Vec::new();
                for item in 0..3u32 {
                    if next() % 3 == 0 {
                        let code = (next() % 2) as u16;
                        let qty = 1 + (next() % 3) as u32;
                        sales.push(Sale::new(ItemId(item), CodeId(code), qty));
                    }
                }
                let tc = (next() % 2) as u16;
                let tq = 1 + (next() % 4) as u32;
                Transaction::new(sales, Sale::new(ItemId(3), CodeId(tc), tq))
            })
            .collect()
    }

    fn dataset(txns: Vec<Transaction>) -> TransactionSet {
        TransactionSet::new(catalog(), Hierarchy::flat(4), txns).unwrap()
    }

    /// Field-by-field bit-exact comparison of two rule lists.
    fn assert_rules_identical(got: &[Rule], want: &[Rule], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: rule count");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.body, b.body, "{ctx}: rule {i} body");
            assert_eq!(a.head, b.head, "{ctx}: rule {i} head");
            assert_eq!(a.body_count, b.body_count, "{ctx}: rule {i} body_count");
            assert_eq!(a.hits, b.hits, "{ctx}: rule {i} hits");
            assert_eq!(
                a.profit.to_bits(),
                b.profit.to_bits(),
                "{ctx}: rule {i} profit bits ({} vs {})",
                a.profit,
                b.profit
            );
            assert_eq!(a.gen_index, b.gen_index, "{ctx}: rule {i} gen_index");
        }
    }

    /// Field-by-field bit-exact comparison of two mining results.
    fn assert_identical(inc: &MinedRules, cold: &MinedRules, ctx: &str) {
        assert_eq!(inc.min_support_count(), cold.min_support_count(), "{ctx}");
        assert_rules_identical(inc.rules(), cold.rules(), ctx);
        // The carried structures match too — the recommender builder
        // consumes them downstream.
        assert_eq!(inc.extended().txn_gs, cold.extended().txn_gs, "{ctx}");
        for g in 0..cold.extended().n_gs() {
            let g = GsId(g as u32);
            assert_eq!(inc.gs_tidset(g), cold.gs_tidset(g), "{ctx}: tidset {g:?}");
        }
    }

    fn miner_with(minsup: Support, moa: MoaMode, prune_dom: bool, threads: usize) -> RuleMiner {
        RuleMiner::new(MinerConfig {
            min_support: minsup,
            max_body_len: 3,
            moa,
            quantity: QuantityModel::Saving,
            min_confidence: None,
            min_rule_profit: None,
            prune_default_dominated: prune_dom,
        })
        .with_threads(threads)
    }

    /// The heart of the incremental miner: across MOA modes, dominance
    /// filtering and thread counts, fit on a base then update through two
    /// delta batches, comparing against a cold mine of each concatenated
    /// prefix.
    #[test]
    fn updates_match_cold_mining_across_the_matrix() {
        let all = stream(7, 60);
        let splits = [25usize, 40, 60];
        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            for prune_dom in [false, true] {
                for threads in [1usize, 4] {
                    let mk = || miner_with(Support::Fraction(0.08), moa, prune_dom, threads);
                    let mut inc = IncrementalMiner::new(mk());
                    let mut data = dataset(all[..splits[0]].to_vec());
                    let mut got = inc.fit(&data);
                    for (step, &split) in splits.iter().enumerate() {
                        let ctx =
                            format!("moa={moa:?} dom={prune_dom} threads={threads} step={step}");
                        if step > 0 {
                            data.extend_from(&all[splits[step - 1]..split]).unwrap();
                            got = inc.update(&data);
                        }
                        let cold = mk().mine(&data);
                        assert_identical(&got, &cold, &ctx);
                    }
                }
            }
        }
    }

    /// A rising support fraction: with `n` growing 4× the absolute
    /// count rises, frequent singletons drop out, and the cached rules
    /// must be re-filtered — not merely reused.
    #[test]
    fn support_count_rises_with_n_and_filters_caches() {
        let all = stream(11, 80);
        let mk = || miner_with(Support::Fraction(0.15), MoaMode::Enabled, true, 1);
        let mut inc = IncrementalMiner::new(mk());
        let mut data = dataset(all[..20].to_vec());
        let first = inc.fit(&data);
        for split in [35usize, 55, 80] {
            let from = data.len();
            data.extend_from(&all[from..split]).unwrap();
            let got = inc.update(&data);
            let cold = mk().mine(&data);
            assert!(
                got.min_support_count() >= first.min_support_count(),
                "support count must be monotone"
            );
            assert_identical(&got, &cold, &format!("split={split}"));
        }
    }

    /// An empty delta is a no-op re-mine: same rules, same bits.
    #[test]
    fn empty_delta_is_identity() {
        let all = stream(3, 30);
        let mk = || miner_with(Support::Count(2), MoaMode::Enabled, true, 1);
        let mut inc = IncrementalMiner::new(mk());
        let data = dataset(all);
        let fitted = inc.fit(&data);
        let again = inc.update(&data);
        assert_identical(&again, &fitted, "empty delta");
    }

    /// Optional emission filters (confidence / rule profit) are applied
    /// at cache-generation time; the delta path must agree with cold
    /// mining under them too.
    #[test]
    fn optional_filters_survive_the_delta_path() {
        let all = stream(23, 50);
        let mk = || {
            RuleMiner::new(MinerConfig {
                min_support: Support::Count(3),
                max_body_len: 3,
                moa: MoaMode::Enabled,
                quantity: QuantityModel::Buying,
                min_confidence: Some(0.4),
                min_rule_profit: Some(5.0),
                prune_default_dominated: true,
            })
            .with_threads(2)
        };
        let mut inc = IncrementalMiner::new(mk());
        let mut data = dataset(all[..30].to_vec());
        inc.fit(&data);
        data.extend_from(&all[30..]).unwrap();
        let got = inc.update(&data);
        let cold = mk().mine(&data);
        assert_identical(&got, &cold, "filters");
    }

    /// Catalog growth mid-stream: new non-target and target items arrive
    /// with a delta batch, and the incremental result must still be
    /// bit-identical to a cold mine over the concatenated stream with
    /// the grown catalog.
    #[test]
    fn growing_catalog_updates_match_cold_mining() {
        use pm_txn::{CatalogDelta, NewItem};
        let all = stream(5, 40);
        let delta = CatalogDelta {
            concepts: vec![],
            items: vec![
                NewItem {
                    def: ItemDef {
                        name: "d".into(),
                        codes: vec![PromotionCode::unit(
                            Money::from_cents(110),
                            Money::from_cents(60),
                        )],
                        is_target: false,
                    },
                    parents: vec![],
                },
                NewItem {
                    def: ItemDef {
                        name: "u".into(),
                        codes: vec![PromotionCode::unit(
                            Money::from_cents(700),
                            Money::from_cents(400),
                        )],
                        is_target: true,
                    },
                    parents: vec![],
                },
            ],
        };
        // Delta transactions exercise the new items alongside the old:
        // the new non-target joins existing bodies, the new target
        // brings a brand-new head.
        let tail: Vec<Transaction> = (0..15u32)
            .map(|i| {
                let mut sales = vec![Sale::new(ItemId(i % 3), CodeId(0), 1)];
                if i % 2 == 0 {
                    sales.push(Sale::new(ItemId(4), CodeId(0), 2));
                }
                let target = if i % 3 == 0 {
                    Sale::new(ItemId(5), CodeId(0), 1)
                } else {
                    Sale::new(ItemId(3), CodeId((i % 2) as u16), 1)
                };
                Transaction::new(sales, target)
            })
            .collect();
        for prune_dom in [false, true] {
            let mk = || miner_with(Support::Count(2), MoaMode::Enabled, prune_dom, 2);
            let mut inc = IncrementalMiner::new(mk());
            let mut data = dataset(all.clone());
            inc.fit(&data);
            data.apply_stream_record(Some(&delta), &tail).unwrap();
            let got = inc.update(&data);
            let cold = mk().mine(&data);
            assert_identical(&got, &cold, &format!("growth dom={prune_dom}"));
        }
    }

    /// Snapshot → JSON → restore → update(empty delta) reproduces the
    /// model bit for bit, and the restored miner keeps streaming
    /// correctly afterwards.
    #[test]
    fn snapshot_restore_round_trips_bit_identically() {
        let all = stream(9, 60);
        let mk = || miner_with(Support::Fraction(0.1), MoaMode::Enabled, true, 2);
        let mut inc = IncrementalMiner::new(mk());
        let mut data = dataset(all[..30].to_vec());
        inc.fit(&data);
        data.extend_from(&all[30..50]).unwrap();
        let expect = inc.update(&data);

        let snap = inc.snapshot().unwrap();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MinerSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap, "snapshot must survive the JSON layer");

        let mut restored = IncrementalMiner::restore(mk(), &data, &back).unwrap();
        let got = restored.update(&data);
        assert_identical(&got, &expect, "restore + empty delta");

        // The restored miner continues the stream exactly like one that
        // never went down.
        data.extend_from(&all[50..]).unwrap();
        let streamed = restored.update(&data);
        let cold = mk().mine(&data);
        assert_identical(&streamed, &cold, "post-restore delta");
    }

    /// A snapshot is refused when the data is not the stream it covered,
    /// or when its caches reference state the data does not have.
    #[test]
    fn restore_rejects_mismatched_data() {
        let all = stream(13, 50);
        let mk = || miner_with(Support::Fraction(0.1), MoaMode::Enabled, true, 1);
        let mut inc = IncrementalMiner::new(mk());
        let data = dataset(all.clone());
        inc.fit(&data);
        let snap = inc.snapshot().unwrap();

        // Truncated data: the re-derived support count disagrees.
        let err = IncrementalMiner::restore(mk(), &dataset(all[..20].to_vec()), &snap)
            .err()
            .expect("short data must be refused");
        assert!(err.contains("support count"), "{err}");

        // A cache pointing at an anchor the data never produced.
        let mut bad = snap.clone();
        bad.caches[0].anchor = 9999;
        let err = IncrementalMiner::restore(mk(), &data, &bad)
            .err()
            .expect("unknown anchor must be refused");
        assert!(err.contains("anchor 9999"), "{err}");

        // A cached rule whose head the data does not have.
        let mut bad = snap.clone();
        let with_rules = bad
            .caches
            .iter()
            .position(|c| !c.level1.is_empty())
            .expect("some anchor has level-1 rules");
        bad.caches[with_rules].level1[0].head = 200;
        let err = IncrementalMiner::restore(mk(), &data, &bad)
            .err()
            .expect("unknown head must be refused");
        assert!(err.contains("head 200"), "{err}");

        // Caches in the shape no walk emits, each breaking one rule of
        // that shape; a checkpoint's CRC holds over all of them. Every
        // body id exists in the data, so only the shape is at fault.
        let k = snap
            .caches
            .iter()
            .position(|c| !c.level1.is_empty() && !c.deeper.is_empty())
            .expect("some anchor has level-1 and deeper rules");
        let a = snap.caches[k].anchor;
        let n_gs = inc.state.as_ref().unwrap().layout.extended.n_gs() as u32;
        assert!(
            a + 3 < n_gs,
            "anchor {a} leaves no room for the bodies below"
        );
        let template = snap.caches[k].deeper[0].clone();
        let rule = |body: Vec<u32>, head: u32| RuleSnapshot {
            body,
            head,
            ..template.clone()
        };
        let with = |level1: Option<Vec<RuleSnapshot>>, deeper: Vec<RuleSnapshot>| {
            let mut bad = snap.clone();
            if let Some(level1) = level1 {
                bad.caches[k].level1 = level1;
            }
            bad.caches[k].deeper = deeper;
            bad
        };
        let cases = [
            (
                "a level-1 body of two sales",
                with(Some(vec![rule(vec![a, a + 1], 0)]), vec![]),
            ),
            (
                "a level-1 body at another sale",
                with(Some(vec![rule(vec![a + 1], 0)]), vec![]),
            ),
            (
                "a deeper body of one sale",
                with(None, vec![rule(vec![a], 0)]),
            ),
            (
                "a deeper body at another anchor",
                with(None, vec![rule(vec![a + 1, a + 2], 0)]),
            ),
            (
                "a deeper body out of order",
                with(None, vec![rule(vec![a, a + 2, a + 1], 0)]),
            ),
            (
                "a deeper body with a repeat",
                with(None, vec![rule(vec![a, a + 1, a + 1], 0)]),
            ),
            (
                "a deeper body past max_body_len",
                with(None, vec![rule(vec![a, a + 1, a + 2, a + 3], 0)]),
            ),
            (
                "deeper bodies out of pre-order",
                with(None, vec![rule(vec![a, a + 2], 0), rule(vec![a, a + 1], 0)]),
            ),
            (
                "a subtree split by a sibling",
                with(
                    None,
                    vec![
                        rule(vec![a, a + 1], 0),
                        rule(vec![a, a + 2], 0),
                        rule(vec![a, a + 1, a + 3], 0),
                    ],
                ),
            ),
            (
                "deeper heads descending in one body",
                with(None, vec![rule(vec![a, a + 1], 1), rule(vec![a, a + 1], 0)]),
            ),
            (
                "a deeper rule repeated",
                with(None, vec![rule(vec![a, a + 1], 0), rule(vec![a, a + 1], 0)]),
            ),
            (
                "level-1 heads descending",
                with(Some(vec![rule(vec![a], 1), rule(vec![a], 0)]), vec![]),
            ),
        ];
        for (what, bad) in cases {
            let err = IncrementalMiner::restore(mk(), &data, &bad)
                .err()
                .unwrap_or_else(|| panic!("{what} must be refused"));
            assert!(err.contains(&format!("anchor {a}")), "{what}: {err}");
        }
        // The same rules in the walk's shape restore.
        let good = with(
            Some(vec![rule(vec![a], 0), rule(vec![a], 1)]),
            vec![
                rule(vec![a, a + 1], 0),
                rule(vec![a, a + 1, a + 3], 1),
                rule(vec![a, a + 2], 0),
            ],
        );
        IncrementalMiner::restore(mk(), &data, &good).expect("a walk-shaped cache restores");
    }

    /// Every anchor an update walks ends with the cache a fresh fit
    /// gives it — rule for rule, profit bits and `gen_index` included —
    /// though its clean subtrees moved over instead of being walked.
    /// Model bytes cannot show a moved rule below today's support
    /// (assembly drops it) or a misnumbered cached `gen_index` (assembly
    /// renumbers); this can.
    #[test]
    fn walked_caches_equal_a_fresh_fits() {
        use pm_datagen::DatasetConfig;
        use rand::{rngs::StdRng, SeedableRng};
        let full = DatasetConfig::dataset_ii()
            .with_transactions(200)
            .with_items(40)
            .generate(&mut StdRng::seed_from_u64(47));
        let prefix = |n: usize| full.subset(&(0..n).collect::<Vec<usize>>());
        for threads in [1usize, 4] {
            let mk = || {
                RuleMiner::new(MinerConfig {
                    min_support: Support::Fraction(0.05),
                    max_body_len: 4,
                    ..MinerConfig::default()
                })
                .with_threads(threads)
            };
            let mut inc = IncrementalMiner::new(mk());
            inc.fit(&prefix(120));
            let (mut walked, mut clean) = (0, 0);
            let mut from = 120;
            for to in [121, 122, 130, 160, 200] {
                let data = prefix(to);
                inc.update(&data);
                let mut fresh = IncrementalMiner::new(mk());
                fresh.fit(&data);
                let got = inc.state.as_ref().unwrap();
                let want = fresh.state.as_ref().unwrap();
                let txn_gs = &got.layout.extended.txn_gs;
                // A body is clean when no delta transaction holds it all.
                let in_delta = |body: &[GsId]| {
                    (from..to).any(|t| body.iter().all(|g| txn_gs[t].binary_search(g).is_ok()))
                };
                for g in 0..want.caches.len() {
                    let ctx = format!("threads={threads} {from}..{to} anchor {g}");
                    if !in_delta(&[GsId(g as u32)]) {
                        continue;
                    }
                    match (&got.caches[g], &want.caches[g]) {
                        (None, None) => {}
                        (Some(got), Some(want)) => {
                            walked += 1;
                            assert_eq!(got.minsup, want.minsup, "{ctx}");
                            assert_rules_identical(&got.level1, &want.level1, &ctx);
                            assert_rules_identical(&got.deeper, &want.deeper, &ctx);
                            clean += got.deeper.iter().filter(|r| !in_delta(&r.body)).count();
                        }
                        (got, want) => panic!(
                            "{ctx}: cached {} vs a fresh fit's {}",
                            got.is_some(),
                            want.is_some()
                        ),
                    }
                }
                from = to;
            }
            // The walk moved rules, not merely re-walked every body.
            assert!(
                walked > 0 && clean > 0,
                "walked {walked}, clean rules {clean}"
            );
        }
    }

    /// Check that every body's rules are one contiguous run of `rules`
    /// and that `MinedRules::body_runs` splits them there; returns how
    /// many bodies hold several rules, so a caller can show the check
    /// saw some.
    fn assert_body_runs(mined: &MinedRules, rules: &[&Rule], ctx: &str) -> usize {
        let mut at: std::collections::HashMap<&[GsId], (usize, usize, usize)> =
            std::collections::HashMap::new();
        for (i, r) in rules.iter().enumerate() {
            let (_, last, count) = at.entry(&r.body).or_insert((i, i, 0));
            *last = i;
            *count += 1;
        }
        for (body, &(first, last, count)) in &at {
            assert_eq!(last - first + 1, count, "{ctx}: body {body:?} is split");
        }
        if rules.len() == mined.rules().len() {
            let runs: Vec<&[Rule]> = mined.body_runs().collect();
            assert_eq!(runs.len(), at.len(), "{ctx}: one run per body");
            assert!(runs
                .iter()
                .flat_map(|run| run.iter())
                .eq(rules.iter().copied()));
        }
        at.values().filter(|&&(_, _, count)| count > 1).count()
    }

    /// The covering-tree build ranks one rule per body run, so a body's
    /// rules must be one contiguous run of `MinedRules::rules()`: in cold
    /// fits at 1 and 4 threads, in updates that move clean subtrees,
    /// after `restore`, and under a `rule_indices_at` refilter.
    #[test]
    fn body_runs_stay_contiguous_through_incremental_updates() {
        use pm_datagen::DatasetConfig;
        use rand::{rngs::StdRng, SeedableRng};
        let full = DatasetConfig::dataset_ii()
            .with_transactions(200)
            .with_items(40)
            .generate(&mut StdRng::seed_from_u64(47));
        let prefix = |n: usize| full.subset(&(0..n).collect::<Vec<usize>>());
        let check = |mined: &MinedRules, ctx: &str| {
            let all: Vec<&Rule> = mined.rules().iter().collect();
            let shared = assert_body_runs(mined, &all, ctx);
            assert!(shared > 0, "{ctx}: no body has several heads");
            let kept = mined.rule_indices_at(Support::Fraction(0.1));
            assert!(kept.len() < all.len(), "{ctx}: the refilter drops rules");
            let kept: Vec<&Rule> = kept.iter().map(|&i| &mined.rules()[i]).collect();
            assert_body_runs(mined, &kept, &format!("{ctx}, refiltered"));
        };
        for threads in [1usize, 4] {
            let mk = || {
                RuleMiner::new(MinerConfig {
                    min_support: Support::Fraction(0.05),
                    max_body_len: 4,
                    ..MinerConfig::default()
                })
                .with_threads(threads)
            };
            check(
                &mk().mine(&prefix(200)),
                &format!("cold, threads={threads}"),
            );
            let mut inc = IncrementalMiner::new(mk());
            check(&inc.fit(&prefix(120)), &format!("fit, threads={threads}"));
            let (mut from, mut clean) = (120, 0);
            for to in [121, 122, 130, 160] {
                let ctx = format!("update to {to}, threads={threads}");
                check(&inc.update(&prefix(to)), &ctx);
                let txn_gs = &inc.state.as_ref().unwrap().layout.extended.txn_gs;
                let in_delta = |body: &[GsId]| {
                    (from..to).any(|t| body.iter().all(|g| txn_gs[t].binary_search(g).is_ok()))
                };
                clean += (inc.state.as_ref().unwrap().caches.iter().flatten())
                    .filter(|c| c.deeper.first().is_some_and(|r| in_delta(&r.body[..1])))
                    .flat_map(|c| &c.deeper)
                    .filter(|r| !in_delta(&r.body))
                    .count();
                from = to;
            }
            assert!(clean > 0, "threads={threads}: no clean subtree moved");
            let snap = inc.snapshot().unwrap();
            let mut restored = IncrementalMiner::restore(mk(), &prefix(160), &snap).unwrap();
            check(
                &restored.update(&prefix(200)),
                &format!("restored, threads={threads}"),
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires a prior fit")]
    fn update_before_fit_panics() {
        let all = stream(1, 5);
        IncrementalMiner::new(RuleMiner::default()).update(&dataset(all));
    }

    #[test]
    #[should_panic(expected = "must extend the fitted one")]
    fn shrinking_data_panics() {
        let all = stream(1, 10);
        let mut inc =
            IncrementalMiner::new(miner_with(Support::Count(1), MoaMode::Enabled, true, 1));
        inc.fit(&dataset(all[..8].to_vec()));
        inc.update(&dataset(all[..4].to_vec()));
    }
}
