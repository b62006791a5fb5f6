//! The vertical generalized-rule miner (§3.1).
//!
//! See the crate docs for the strategy. The enumeration is exhaustive: a
//! rule `{g₁…g_k} → h` with `k ≤ max_body_len` is emitted **iff** its
//! support count (= hit count) reaches the minimum support and its body
//! violates no generalization constraint — exactly the rule set the
//! paper's multi-level miner produces, modulo the optional confidence and
//! rule-profit thresholds.

use crate::extend::{pos_part, ExtendedData, HeadId, HeadTotals};
use crate::interner::{GsId, GsInterner};
use crate::rule::{ProfitMode, Rule};
use crate::tidset::{intersect_into, TidScratch, TidSet, TidView};
use pm_txn::{
    CodeId, GenSale, Hierarchy, ItemId, Moa, QuantityModel, TargetFilter, TransactionSet,
};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::iter::Peekable;
use std::sync::Mutex;

/// A minimum-support threshold, as a fraction of the transactions or an
/// absolute count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Support {
    /// Fraction in `(0, 1]` of the transaction count.
    Fraction(f64),
    /// Absolute transaction count.
    Count(u32),
}

impl Support {
    /// Fraction constructor with validation.
    pub fn fraction(f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "support fraction must be in (0,1]");
        Support::Fraction(f)
    }

    /// Count constructor.
    pub fn count(c: u32) -> Self {
        assert!(c >= 1, "support count must be ≥ 1");
        Support::Count(c)
    }

    /// Resolve to an absolute count for `n` transactions: the smallest
    /// count covering the fraction, clamped to `[1, n]` (counts pass
    /// through, clamped to at least 1).
    ///
    /// The fraction product is computed with a relative tolerance before
    /// the ceiling: `0.003 * 1000` evaluates to `3.0000000000000004` in
    /// f64, and a naive ceiling would silently require 4 transactions
    /// where the paper's `minsup = 0.3%` means 3.
    pub fn to_count(&self, n: usize) -> u32 {
        match *self {
            Support::Fraction(f) => {
                let target = f * n as f64;
                // One part in 10¹² absorbs product rounding while staying
                // far below any intentional fractional part.
                let tol = target.abs() * 1e-12 + 1e-12;
                let c = (target - tol).ceil().max(1.0);
                let c = if c >= u32::MAX as f64 {
                    u32::MAX
                } else {
                    c as u32
                };
                c.min(n.max(1).min(u32::MAX as usize) as u32)
            }
            Support::Count(c) => c.max(1),
        }
    }
}

/// Whether `MOA(H)` generalization is applied (the paper's `±MOA` axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum MoaMode {
    /// Generalize promotion codes along favorability (`+MOA`).
    #[default]
    Enabled,
    /// Exact-code matching only (`−MOA`).
    Disabled,
}

/// Miner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinerConfig {
    /// Minimum rule support (mandatory — it drives the Apriori pruning).
    pub min_support: Support,
    /// Maximum body length. The paper leaves bodies unbounded; 4 keeps the
    /// 100K-transaction sweeps tractable (see DESIGN.md §4).
    pub max_body_len: usize,
    /// `±MOA`.
    pub moa: MoaMode,
    /// Quantity estimation for `p(r, t)` (saving / buying MOA).
    pub quantity: QuantityModel,
    /// Optional minimum confidence.
    pub min_confidence: Option<f64>,
    /// Optional minimum rule profit (dollars).
    pub min_rule_profit: Option<f64>,
    /// Skip rules whose recommendation profit cannot exceed the default
    /// rule's under either profit mode — they are dominated before the
    /// covering tree is ever built (§4.1), so the final recommender is
    /// unchanged while MOA rule sets stay orders of magnitude smaller.
    /// Disable only to inspect the raw mined universe.
    pub prune_default_dominated: bool,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            min_support: Support::Fraction(0.001),
            max_body_len: 4,
            moa: MoaMode::Enabled,
            quantity: QuantityModel::Saving,
            min_confidence: None,
            min_rule_profit: None,
            prune_default_dominated: true,
        }
    }
}

/// The rule miner.
#[derive(Debug, Clone, Default)]
pub struct RuleMiner {
    config: MinerConfig,
    /// Worker threads for the mining fan-out: `0` = all cores, `1` =
    /// every job inline on the calling thread. Not part of
    /// [`MinerConfig`] — thread count is an execution detail, never a
    /// modeling choice, and the output is bit-identical at every setting.
    threads: usize,
    /// Targeted mining (TargetUM-flavored): restrict the head domain to
    /// this filter. Mining with a target is byte-identical to mining
    /// without one and dropping every rule whose head falls outside it
    /// (gen indices renumbered); the DFS additionally prunes subtrees
    /// none of whose attainable heads are in the target. Kept out of
    /// [`MinerConfig`] (like the execution knobs, but for a different
    /// reason): the saved model embeds no `MinerConfig`, and keeping the
    /// config `Copy` matters to every call site that loops over
    /// configurations.
    target: Option<TargetFilter>,
    /// Per-item minimum rule-profit floors, generalizing the scalar
    /// `min_rule_profit`: a head on a listed item uses its entry as the
    /// `Prof_ru` admission floor instead of the scalar one.
    item_floors: Vec<(ItemId, f64)>,
}

/// The vertical layout every mining run reads: the `MOA(H)` view, the
/// extension, one tidset per generalized sale, per-head totals over
/// every transaction, and the support count. A cold fit builds it once
/// ([`RuleMiner::layout`]); the incremental miner keeps one alive and
/// patches it with every delta batch.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    pub(crate) moa: Moa,
    pub(crate) extended: ExtendedData,
    pub(crate) tidsets: Vec<TidSet>,
    /// Per-head hit counts and profit sums over every transaction: the
    /// default rule's statistics and the dominance floor's inputs.
    pub(crate) totals: HeadTotals,
    /// Absolute minimum support; only ever rises as the data grows.
    pub(crate) minsup: u32,
}

/// What one mining run derives from a [`Layout`] before the fan-out:
/// the frequent singletons (the anchors, ascending `GsId`), their pair
/// counts (`None` when bodies stop at one sale or fewer than two
/// singletons are frequent), and the per-head admission gates.
pub(crate) struct Anchors {
    pub(crate) freq: Vec<GsId>,
    pairs: Option<PairCounts>,
    pub(crate) gates: HeadGates,
}

impl RuleMiner {
    /// A miner with the given configuration, using all cores (see
    /// [`Self::with_threads`]).
    pub fn new(config: MinerConfig) -> Self {
        Self {
            config,
            threads: 0,
            target: None,
            item_floors: Vec::new(),
        }
    }

    /// Set the worker thread count: `0` = all cores, `1` = every job
    /// inline. Mining output is guaranteed bit-identical across thread
    /// counts: per-anchor rule buffers reach the merge in anchor order
    /// and generation indices are numbered after it.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Restrict mining to rule heads inside `target` (`None` clears the
    /// restriction). Mining with a target is byte-identical to mining
    /// without one and keeping only the in-target heads' rules, with
    /// generation indices renumbered; in-DFS it composes with the upper
    /// bound to skip subtrees with no attainable in-target head.
    pub fn with_target(mut self, target: Option<TargetFilter>) -> Self {
        self.target = target;
        self
    }

    /// Set per-item minimum rule-profit floors (dollars). A head whose
    /// item is listed uses its entry as the `Prof_ru` admission floor;
    /// unlisted items fall back to the scalar
    /// [`MinerConfig::min_rule_profit`] (or no floor at all). A `+∞`
    /// floor excludes the item's heads, exactly as a target that leaves
    /// them out does; a NaN floor (item or scalar) is no floor, as
    /// `profit < NaN` admits every profit.
    pub fn with_item_floors(mut self, floors: Vec<(ItemId, f64)>) -> Self {
        self.item_floors = floors;
        self
    }

    /// Mine `data`, producing rules plus the supporting structures the
    /// recommender builder needs.
    pub fn mine(&self, data: &TransactionSet) -> MinedRules {
        let (extended, moa) = self.extend(data);
        self.mine_extended(extended, moa)
    }

    /// Mine pre-extended data (lets callers reuse an extension). `moa`
    /// must be the view the extension was built with.
    pub fn mine_extended(&self, extended: ExtendedData, moa: Moa) -> MinedRules {
        let layout = self.layout(extended, moa);
        let anchors = self.anchors(&layout);
        // Dominance pre-filter: a rule whose recommendation profit does
        // not exceed the default rule's — under BOTH profit modes — is
        // dominated by the default rule (empty body, ranked higher) and
        // can never be a recommendation rule, at this or any higher
        // minimum support. Skipping it at emission time is exactly
        // equivalent to removing it during §4.1 dominance removal, and it
        // keeps MOA rule sets from ballooning with useless variants.
        let n = layout.extended.n_transactions();
        let floor = dominance_floor(&self.config, &layout.totals, n);
        let every: Vec<usize> = (0..anchors.freq.len()).collect();
        let mut rules = Vec::new();
        self.fan_out(&layout, &anchors, &every, floor, None, |_, _, job| {
            rules.extend(job);
        });
        for (i, r) in rules.iter_mut().enumerate() {
            r.gen_index = i as u32;
        }
        debug_assert!(bodies_are_runs(&rules), "a body's rules are one run");
        pm_obs::gauge("miner.rules").set(rules.len() as i64);
        pm_obs::info!(
            "mine.done",
            rules = rules.len(),
            minsup = layout.minsup,
            threads = pm_par::resolve(self.threads),
            freq_singletons = anchors.freq.len()
        );
        MinedRules {
            config: self.config,
            rules,
            layout,
            head_floor: anchors.gates.floor,
        }
    }

    /// The `MOA(H)` view this miner extends `data` under.
    pub(crate) fn moa(&self, data: &TransactionSet) -> Moa {
        Moa::new(
            data.catalog_arc(),
            data.hierarchy_arc(),
            self.config.moa == MoaMode::Enabled,
        )
    }

    /// Extend `data` under this miner's `MOA(H)` view.
    pub(crate) fn extend(&self, data: &TransactionSet) -> (ExtendedData, Moa) {
        let moa = self.moa(data);
        let _span = pm_obs::span("mine.extend");
        (ExtendedData::build(data, &moa, self.config.quantity), moa)
    }

    /// Build the vertical layout over an extension from scratch.
    pub(crate) fn layout(&self, extended: ExtendedData, moa: Moa) -> Layout {
        let tidsets = {
            let _span = pm_obs::span("mine.tidsets");
            extended.tidsets()
        };
        let sparse_n = tidsets.iter().filter(|t| t.is_sparse()).count() as u64;
        let dense_n = tidsets.len() as u64 - sparse_n;
        pm_obs::counter("miner.tidsets_sparse").add(sparse_n);
        pm_obs::counter("miner.tidsets_dense").add(dense_n);
        pm_obs::debug!(
            "mine.tidsets",
            total = tidsets.len(),
            sparse = sparse_n,
            dense = dense_n
        );
        let mut totals = HeadTotals::default();
        extended.add_head_totals(0, &mut totals);
        let minsup = self.config.min_support.to_count(extended.n_transactions());
        Layout {
            moa,
            extended,
            tidsets,
            totals,
            minsup,
        }
    }

    /// The frequent singletons of `layout` at its support count, their
    /// pair counts, and the per-head gates of this miner's target and
    /// floors.
    pub(crate) fn anchors(&self, layout: &Layout) -> Anchors {
        let freq: Vec<GsId> = (0..layout.extended.n_gs() as u32)
            .map(GsId)
            .filter(|g| layout.tidsets[g.index()].count() >= layout.minsup as usize)
            .collect();
        let pairs = (self.config.max_body_len >= 2 && freq.len() >= 2).then(|| {
            let _span = pm_obs::span("mine.generate");
            PairCounts::count(&layout.extended, &freq)
        });
        let gates = HeadGates::resolve(
            self.target.as_ref(),
            &self.item_floors,
            self.config.min_rule_profit,
            &layout.extended.heads,
            layout.moa.hierarchy(),
        );
        Anchors { freq, pairs, gates }
    }

    /// The mining fan-out every fit runs, cold or incremental: a level-1
    /// pass that emits each anchor's singleton-body rules, then a
    /// pair-and-DFS pass that extends each anchor, with one job per
    /// anchor in each. `jobs` indexes `anchors.freq`, ascending. Each
    /// job's rules reach `sink(deeper, anchor, rules)` in job order,
    /// every level-1 job before any deeper one, with generation indices
    /// local to the job. Jobs are deterministic and their order is
    /// fixed, so the sequence the sink sees — down to the f64 summation
    /// order inside every rule — is the same at any thread count.
    ///
    /// At one thread each job's rules reach the sink before the next job
    /// starts: a sink that appends them holds one job's buffer beside
    /// its own, never every rule twice.
    ///
    /// A cold fit passes no `reuse`. An incremental refit passes the
    /// delta and the previous walk's rules ([`Reuse`]); a job whose
    /// anchor has them rescans only the bodies a delta transaction
    /// contains, and its rules equal a full walk's.
    pub(crate) fn fan_out(
        &self,
        layout: &Layout,
        anchors: &Anchors,
        jobs: &[usize],
        default_floor: (f64, f64),
        reuse: Option<&Reuse>,
        mut sink: impl FnMut(bool, GsId, Vec<Rule>),
    ) {
        let _span = pm_obs::span("mine.dfs");
        // Reused rules were emitted with the dominance floor off, and
        // the floor moves with `n`.
        debug_assert!(reuse.is_none() || default_floor == NO_FLOOR);
        let threads = pm_par::resolve(self.threads);
        let (freq, tidsets) = (&anchors.freq, &layout.tidsets);
        // Per-worker state: one emitter plus one intersection-scratch
        // pool; both persist across the jobs a worker claims, so the DFS
        // performs no per-node heap allocation.
        let init = || {
            (
                RuleEmitter::new(
                    &layout.extended,
                    &self.config,
                    &anchors.gates,
                    layout.minsup,
                    default_floor,
                ),
                TidScratch::new(
                    layout.extended.n_transactions(),
                    self.config.max_body_len.saturating_sub(1),
                ),
            )
        };
        pm_par::par_map_into(
            jobs.len(),
            threads,
            init,
            |(emitter, _), j| {
                let a = freq[jobs[j]];
                let ts = &tidsets[a.index()];
                emitter.emit(&[a], ts.view(), ts.count() as u32);
                emitter.take_rules()
            },
            |j, rules| sink(false, freq[jobs[j]], rules),
        );
        let Some(pairs) = &anchors.pairs else {
            return;
        };
        // Anchor costs are heavily skewed; pm-par's dynamic claiming
        // absorbs that.
        pm_par::par_map_into(
            jobs.len(),
            threads,
            init,
            |(emitter, scratch), j| {
                let a = freq[jobs[j]];
                let mut prior = reuse.and_then(|r| r.take(a, self.config.max_body_len));
                self.process_anchor(
                    emitter,
                    scratch,
                    freq,
                    tidsets,
                    pairs,
                    jobs[j],
                    prior.as_mut(),
                );
                emitter.take_rules()
            },
            |j, rules| sink(true, freq[jobs[j]], rules),
        );
    }

    /// Level-2 extension and deeper DFS for the single anchor
    /// `freq[ai]`: builds the anchor's candidate list (pair-frequent,
    /// no generalization relation), emits every frequent pair, and
    /// recurses while `max_body_len` allows. Emission order within an
    /// anchor is fixed (candidates ascending, depth-first). With a
    /// `prior`, a child no delta transaction contains is not walked: its
    /// subtree's rules move over from the previous walk.
    #[allow(clippy::too_many_arguments)]
    fn process_anchor(
        &self,
        emitter: &mut RuleEmitter<'_>,
        scratch: &mut TidScratch,
        freq: &[GsId],
        tidsets: &[TidSet],
        pairs: &PairCounts,
        ai: usize,
        mut prior: Option<&mut Prior<'_>>,
    ) {
        let interner = &emitter.extended.interner;
        let minsup = emitter.minsup;
        let a = freq[ai];
        let cands: Vec<usize> = (ai + 1..freq.len())
            .filter(|&bi| pairs.get(ai, bi) >= minsup && !interner.related(a, freq[bi]))
            .collect();
        if cands.is_empty() {
            return;
        }
        // Anchor-level cut: every body below this anchor has a tidset
        // contained in the anchor's, so one probe scan of the anchor's
        // tidset bounds all of them at once — an infeasible anchor skips
        // its entire pair loop without a single intersection.
        if !emitter.probe(tidsets[a.index()].view()) {
            return;
        }
        for (pos, &bi) in cands.iter().enumerate() {
            let b = freq[bi];
            if let Some(p) = prior.as_deref_mut() {
                if p.is_clean(&[a], b) {
                    p.move_subtree(emitter, &[a, b]);
                    continue;
                }
            }
            // The pair table already proved this candidate frequent, so
            // the `minsup` bound can never trigger the early exit here.
            let count = intersect_into(
                tidsets[a.index()].view(),
                tidsets[b.index()].view(),
                scratch.pair_level(),
                minsup,
            )
            .expect("pair candidates are pair-frequent");
            debug_assert_eq!(count, pairs.get(ai, bi));
            let out_view = scratch.level(0).view();
            if matches!(out_view, TidView::Sparse(_)) != tidsets[a.index()].is_sparse() {
                emitter.switches += 1;
            }
            emitter.emit(&[a, b], out_view, count);
            if self.config.max_body_len >= 3 {
                if !emitter.subtree_viable(2) {
                    continue;
                }
                let interner = &emitter.extended.interner;
                let deeper: Vec<usize> = cands[pos + 1..]
                    .iter()
                    .copied()
                    .filter(|&ci| pairs.get(bi, ci) >= minsup && !interner.related(b, freq[ci]))
                    .collect();
                self.dfs(
                    emitter,
                    scratch,
                    freq,
                    tidsets,
                    pairs,
                    minsup,
                    &mut vec![a, b],
                    1,
                    &deeper,
                    prior.as_deref_mut(),
                );
            }
        }
    }

    /// Depth-first extension of `body` with the (pre-filtered) dense
    /// candidate indices `cands`. The parent tidset lives in the scratch
    /// buffer at `depth - 1` (the pair level is depth 0); each child
    /// intersection is written to the buffer at `depth` with the
    /// `minsup` early-exit bound, so infrequent children are abandoned
    /// mid-loop without materializing their tidsets.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        emitter: &mut RuleEmitter<'_>,
        scratch: &mut TidScratch,
        freq: &[GsId],
        tidsets: &[TidSet],
        pairs: &PairCounts,
        minsup: u32,
        body: &mut Vec<GsId>,
        depth: usize,
        cands: &[usize],
        mut prior: Option<&mut Prior<'_>>,
    ) {
        for (pos, &ci) in cands.iter().enumerate() {
            let c = freq[ci];
            if let Some(p) = prior.as_deref_mut() {
                if p.is_clean(body, c) {
                    body.push(c);
                    p.move_subtree(emitter, body);
                    body.pop();
                    continue;
                }
            }
            let (parent, out) = scratch.parent_and_out(depth);
            let parent_sparse = matches!(parent.view(), TidView::Sparse(_));
            let Some(count) = intersect_into(parent.view(), tidsets[c.index()].view(), out, minsup)
            else {
                emitter.pruned += 1;
                continue;
            };
            body.push(c);
            let out_view = scratch.level(depth).view();
            if matches!(out_view, TidView::Sparse(_)) != parent_sparse {
                emitter.switches += 1;
            }
            emitter.emit(body, out_view, count);
            if body.len() < self.config.max_body_len && emitter.subtree_viable(body.len()) {
                let interner = &emitter.extended.interner;
                let deeper: Vec<usize> = cands[pos + 1..]
                    .iter()
                    .copied()
                    .filter(|&di| pairs.get(ci, di) >= minsup && !interner.related(c, freq[di]))
                    .collect();
                self.dfs(
                    emitter,
                    scratch,
                    freq,
                    tidsets,
                    pairs,
                    minsup,
                    body,
                    depth + 1,
                    &deeper,
                    prior.as_deref_mut(),
                );
            }
            body.pop();
        }
    }
}

/// Per-depth `mine.ub_pruned` counter names, indexed by the scanned
/// body's length (cuts at depth ≥ 4 share the last bucket).
const UB_DEPTH_NAMES: [&str; 4] = [
    "mine.ub_pruned.d1",
    "mine.ub_pruned.d2",
    "mine.ub_pruned.d3",
    "mine.ub_pruned.d4plus",
];

/// Test hooks for injected-bug sensitivity tests (see
/// `tests/differential_injected_target_bug.rs`). Not part of the public
/// API contract.
pub mod test_hooks {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// When set, [`super::HeadGates::resolve`] deliberately mis-scopes
    /// the target filter by admitting the first out-of-target head — the
    /// differential suite must catch the leak.
    pub(crate) static MISSCOPE_TARGET: AtomicBool = AtomicBool::new(false);

    /// Enable/disable the mis-scoped-target bug injection.
    pub fn set_misscope_target(on: bool) {
        MISSCOPE_TARGET.store(on, Ordering::SeqCst);
    }

    /// Is the mis-scoped-target bug injection enabled?
    pub fn misscope_target() -> bool {
        MISSCOPE_TARGET.load(Ordering::SeqCst)
    }
}

/// `(Prof_re, confidence)` floors that disable the default-dominance
/// filter: both comparisons in the emit predicate are against
/// `-∞ + 1e-12 = -∞` and can never be true.
pub(crate) const NO_FLOOR: (f64, f64) = (f64::NEG_INFINITY, f64::NEG_INFINITY);

/// The default-dominance floor over `n` transactions: the best default
/// rule's `(Prof_re, confidence)` under either profit mode, or
/// [`NO_FLOOR`] when the filter is off.
pub(crate) fn dominance_floor(config: &MinerConfig, totals: &HeadTotals, n: usize) -> (f64, f64) {
    if !config.prune_default_dominated {
        return NO_FLOOR;
    }
    let nf = n as f64;
    (
        totals.profit.iter().cloned().fold(0.0f64, f64::max) / nf,
        totals.hits.iter().cloned().max().unwrap_or(0) as f64 / nf,
    )
}

/// What an incremental refit hands the walk (DESIGN.md §15): the delta
/// tids of every generalized sale, and the deeper rules each changed
/// anchor's previous walk emitted. Delta tids follow every old tid, so
/// a body no delta transaction contains kept its tidset, and so did
/// every body below it: their rules are the previous walk's, minus those
/// below today's support.
pub(crate) struct Reuse {
    /// Delta tids per generalized sale, ascending.
    pub(crate) delta: Vec<Vec<u32>>,
    /// Per `GsId`: the anchor's previous deeper rules, in DFS pre-order,
    /// until its job takes them.
    pub(crate) prior: Vec<Mutex<Option<Vec<Rule>>>>,
}

impl Reuse {
    /// Take anchor `a`'s previous rules for its job; `None` (no cache)
    /// walks the anchor in full.
    fn take(&self, a: GsId, max_body_len: usize) -> Option<Prior<'_>> {
        let rules = self.prior[a.index()]
            .lock()
            .expect("no job panics while holding a slot")
            .take()?;
        let mut path = vec![Vec::new(); max_body_len];
        path[0].extend_from_slice(&self.delta[a.index()]);
        Some(Prior {
            delta: &self.delta,
            path,
            rules: rules.into_iter().peekable(),
        })
    }
}

/// One anchor's share of a [`Reuse`], consumed as its walk goes.
pub(crate) struct Prior<'r> {
    delta: &'r [Vec<u32>],
    /// Delta tids of the bodies on the walk's path: `path[k]` holds the
    /// body of `k + 1` sales.
    path: Vec<Vec<u32>>,
    /// The previous walk's rules not yet moved or dropped, in DFS
    /// pre-order: `(body, head)` ascending, so one subtree is one run.
    rules: Peekable<std::vec::IntoIter<Rule>>,
}

impl Prior<'_> {
    /// Does no delta transaction contain `body ∪ {c}`? A child that some
    /// does is walked, and its delta tids stay on the path for the
    /// bodies below it.
    fn is_clean(&mut self, body: &[GsId], c: GsId) -> bool {
        let k = body.len();
        let (parent, child) = self.path.split_at_mut(k);
        let with_c = &self.delta[c.index()];
        child[0].clear();
        child[0].extend(
            parent[k - 1]
                .iter()
                .filter(|t| with_c.binary_search(t).is_ok()),
        );
        child[0].is_empty()
    }

    /// File the previous walk's rules at clean `body` and below it, and
    /// drop those before it, which the walk has passed.
    fn move_subtree(&mut self, emitter: &mut RuleEmitter<'_>, body: &[GsId]) {
        emitter.subtrees_reused += 1;
        while self.rules.next_if(|r| r.body.as_slice() < body).is_some() {}
        while let Some(r) = self.rules.next_if(|r| r.body.starts_with(body)) {
            emitter.refile(r);
        }
    }
}

/// Per-head admission gates, resolved once per mining run from the
/// miner's [`TargetFilter`], per-item floors, and the scalar
/// [`MinerConfig::min_rule_profit`]: one `Prof_ru` floor per head, where
/// `−∞` is no floor and `+∞` puts the head outside the target.
///
/// Without a floor, `profit < −∞` is false for every profit, NaN
/// included, so the emitter compares against `floor[h]` with no
/// `Option` and stays bitwise identical to code without floors. A
/// target is not a comparison, though: a NaN profit passes `profit <
/// +∞` too, so [`RuleEmitter::qualifies`] tests `floor[h] < +∞` itself.
pub(crate) struct HeadGates {
    /// Per-head `Prof_ru` floor; `+∞` for heads outside the target.
    pub(crate) floor: Vec<f64>,
    /// Minimum floor over in-target heads — the only sound threshold for
    /// the transaction-level `node_ub` short-circuit, since the node cut
    /// must not fire while ANY in-target head could still pass its own
    /// floor. `None` when that minimum is `−∞` (some in-target head is
    /// floorless, so the cut would be unsound); `+∞` when no head is in
    /// the target (every subtree is then correctly infeasible).
    node_floor: Option<f64>,
}

impl HeadGates {
    pub(crate) fn resolve(
        target: Option<&TargetFilter>,
        item_floors: &[(ItemId, f64)],
        scalar: Option<f64>,
        heads: &[(ItemId, CodeId)],
        hierarchy: &Hierarchy,
    ) -> Self {
        let mut leak = test_hooks::misscope_target();
        let floor = heads
            .iter()
            .map(|&(item, code)| {
                if !target.is_none_or(|t| t.matches(hierarchy, item, code)) {
                    if !leak {
                        return f64::INFINITY;
                    }
                    // Injected bug: leak the first out-of-target head.
                    leak = false;
                }
                let f = item_floors
                    .iter()
                    .find(|(i, _)| *i == item)
                    .map(|&(_, f)| f)
                    .or(scalar)
                    .unwrap_or(f64::NEG_INFINITY);
                // Emission and the oracle admit every profit against a
                // NaN floor; so must the node cut.
                if f.is_nan() {
                    f64::NEG_INFINITY
                } else {
                    f
                }
            })
            .collect();
        Self::new(floor)
    }

    fn new(floor: Vec<f64>) -> Self {
        let min = floor
            .iter()
            .copied()
            .filter(|&f| f < f64::INFINITY)
            .fold(f64::INFINITY, f64::min);
        Self {
            floor,
            node_floor: (min > f64::NEG_INFINITY).then_some(min),
        }
    }
}

/// Head accumulation + rule emission with a generation-stamp trick so the
/// dense per-head-set and per-head arrays are never cleared.
pub(crate) struct RuleEmitter<'a> {
    extended: &'a ExtendedData,
    config: &'a MinerConfig,
    /// Per-head profit floors, the target included (see [`HeadGates`]).
    gates: &'a HeadGates,
    minsup: u32,
    /// `(Prof_re, confidence)` of the best default rule; rules at or
    /// below both floors are dominated and skipped.
    default_floor: (f64, f64),
    /// Pruning needs a dedicated positive-part sum: some margin is
    /// negative or NaN, so `head_profit` is not its own positive part.
    /// When clear (the common case — `ExtendedData::nonneg_margins`),
    /// the profit pass sums profit alone and `viable` reads
    /// `head_profit` directly.
    track_pos: bool,
    /// Pruning needs the transaction-level margin bound, the only input
    /// of the node cut on [`Self::node_ub`]: set exactly when
    /// [`HeadGates::node_floor`] exists, i.e. the floors cover every
    /// in-target head or no head is in the target.
    track_ub: bool,
    stamp: u32,
    /// The scanned tidset's profiles, in tid order.
    record: Vec<u32>,
    set_stamp: Vec<u32>,
    /// Tids of the scanned tidset per head set (stamped).
    set_count: Vec<u32>,
    touched_sets: Vec<u32>,
    head_stamp: Vec<u32>,
    head_hits: Vec<u32>,
    /// Profit sums, set only for the heads [`Self::qualifies`] admits;
    /// the other touched heads keep stale values nothing reads.
    head_profit: Vec<f64>,
    /// Positive-part profit sums per head (same heads as `head_profit`;
    /// only maintained when `track_pos`). For any descendant body its
    /// per-head profit sum cannot exceed this, even at the f64 bit level:
    /// the descendant sums a subsequence of term-wise smaller values, and
    /// round-to-nearest accumulation of nonnegative terms is monotone in
    /// both.
    head_pos: Vec<f64>,
    /// Σ `max_margin` over the last scanned tidset (only when
    /// `track_ub`): the transaction-level TWU-style bound dominating every
    /// head's `head_pos`.
    node_ub: f64,
    /// Heads with a hit in the last scanned tidset, ascending.
    touched: Vec<HeadId>,
    rules: Vec<Rule>,
    /// Candidates abandoned by the `minsup` early exit in the DFS.
    /// Accumulated locally (one plain add per pruned candidate) and
    /// flushed to the global `miner.candidates_pruned` counter when the
    /// emitter drops, so the hot loop never touches an atomic.
    pruned: u64,
    /// Tidset representation changes (dense↔sparse) between a parent
    /// tidset and the intersection written from it; flushed to
    /// `miner.tidset_switches` on drop.
    switches: u64,
    /// Upper-bound viability evaluations; flushed to
    /// `mine.ub_evaluated` on drop.
    ub_evaluated: u64,
    /// Subtrees cut by the upper bound; flushed to `mine.ub_pruned`
    /// (total) and `mine.ub_pruned.d*` (per scanned-body depth) on drop.
    ub_pruned: u64,
    ub_pruned_depth: [u64; UB_DEPTH_NAMES.len()],
    /// Tids histogrammed by [`Self::scan`]; flushed to
    /// `mine.tids_scanned` on drop.
    tids_scanned: u64,
    /// Per-head profit passes run by [`Self::scan`]; flushed to
    /// `mine.head_sums` on drop.
    head_sums: u64,
    /// Clean subtrees whose rules moved over from a previous walk
    /// instead of being walked; flushed to `incremental.subtrees_reused`
    /// on drop.
    subtrees_reused: u64,
}

impl Drop for RuleEmitter<'_> {
    // The flush must run on every exit path — including a worker whose
    // DFS terminated early because the anchor probe pruned its entire
    // subtree — so it lives in Drop.
    fn drop(&mut self) {
        let counts = [
            ("miner.candidates_pruned", self.pruned),
            ("miner.tidset_switches", self.switches),
            ("mine.ub_evaluated", self.ub_evaluated),
            ("mine.ub_pruned", self.ub_pruned),
            ("mine.tids_scanned", self.tids_scanned),
            ("mine.head_sums", self.head_sums),
            ("incremental.subtrees_reused", self.subtrees_reused),
        ];
        let by_depth = UB_DEPTH_NAMES.iter().copied().zip(self.ub_pruned_depth);
        for (name, c) in counts.into_iter().chain(by_depth) {
            if c != 0 {
                pm_obs::counter(name).add(c);
            }
        }
    }
}

impl<'a> RuleEmitter<'a> {
    pub(crate) fn new(
        extended: &'a ExtendedData,
        config: &'a MinerConfig,
        gates: &'a HeadGates,
        minsup: u32,
        default_floor: (f64, f64),
    ) -> Self {
        let h = extended.n_heads();
        let sets = extended.head_sets.len();
        let track_pos = !extended.nonneg_margins;
        let track_ub = gates.node_floor.is_some();
        Self {
            extended,
            config,
            gates,
            minsup,
            default_floor,
            track_pos,
            track_ub,
            stamp: 0,
            record: Vec::with_capacity(extended.n_transactions()),
            set_stamp: vec![0; sets],
            set_count: vec![0; sets],
            touched_sets: Vec::with_capacity(sets),
            head_stamp: vec![0; h],
            head_hits: vec![0; h],
            head_profit: vec![0.0; h],
            head_pos: vec![0.0; if track_pos { h } else { 0 }],
            node_ub: 0.0,
            touched: Vec::with_capacity(h),
            rules: Vec::new(),
            pruned: 0,
            switches: 0,
            ub_evaluated: 0,
            ub_pruned: 0,
            ub_pruned_depth: [0; UB_DEPTH_NAMES.len()],
            tids_scanned: 0,
            head_sums: 0,
            subtrees_reused: 0,
        }
    }

    /// Can the head emit a rule from the last scanned body or any body
    /// below it? Only an in-target head with `hits ≥ minsup` can, so only
    /// those heads get profit sums, and `emit` and `viable` read no other.
    #[inline]
    fn qualifies(&self, h: HeadId) -> bool {
        self.gates.floor[h.index()] < f64::INFINITY && self.head_hits[h.index()] >= self.minsup
    }

    /// Two passes over a body's tidset. The first histograms its tids by
    /// head set, which gives every head's hit count exactly, and records
    /// each tid's profile. The second runs once per qualifying head over
    /// that record, in tid order, and sums the head's profit (and, when
    /// pruning needs them, its positive-part sum and the
    /// transaction-level margin bound).
    ///
    /// Each pass adds a term for every tid, `+0.0` where the head misses
    /// — and a running sum that starts at `+0.0` never becomes `-0.0`,
    /// so adding `+0.0` leaves it unchanged, bit for bit. The sums
    /// therefore equal accumulating the hits alone, in tid order
    /// (DESIGN.md §14).
    fn scan(&mut self, tidset: TidView<'_>) {
        let ext = self.extended;
        self.stamp += 1;
        let stamp = self.stamp;
        self.record.clear();
        self.touched_sets.clear();
        for tid in tidset.iter() {
            let profile = ext.txn_profile[tid];
            self.record.push(profile);
            let set = ext.profiles[profile as usize].head_set as usize;
            if self.set_stamp[set] != stamp {
                self.set_stamp[set] = stamp;
                self.set_count[set] = 0;
                self.touched_sets.push(set as u32);
            }
            self.set_count[set] += 1;
        }
        self.tids_scanned += self.record.len() as u64;

        self.touched.clear();
        for &set in &self.touched_sets {
            let count = self.set_count[set as usize];
            for &h in &ext.head_sets[set as usize] {
                let hi = h.index();
                if self.head_stamp[hi] != stamp {
                    self.head_stamp[hi] = stamp;
                    self.head_hits[hi] = 0;
                    self.touched.push(h);
                }
                self.head_hits[hi] += count;
            }
        }
        self.touched.sort_unstable();

        if self.track_ub {
            self.node_ub = self.record.iter().fold(0.0, |ub, &profile| {
                ub + ext.profiles[profile as usize].max_margin
            });
        }
        for ti in 0..self.touched.len() {
            let h = self.touched[ti];
            if !self.qualifies(h) {
                continue;
            }
            self.head_sums += 1;
            let (mut profit, mut pos) = (0.0f64, 0.0f64);
            for &profile in &self.record {
                let p = ext.margin(profile, h);
                profit += p;
                if self.track_pos {
                    pos += pos_part(p);
                }
            }
            self.head_profit[h.index()] = profit;
            if self.track_pos {
                self.head_pos[h.index()] = pos;
            }
        }
    }

    /// Can any body strictly below the last scanned one emit a rule?
    ///
    /// Every descendant's tidset is contained in the scanned one, so per
    /// head `hits' ≤ hits`, `profit' ≤ head_pos`, and `body_count' ≥
    /// hits' ≥ minsup` at emission time. The checks below apply the
    /// emission filters of [`Self::emit`] to those bounds with the exact
    /// same f64 expressions (`minsup` replacing the descendant's
    /// `body_count` wherever it appears in a denominator), so a head
    /// ruled out here is ruled out for every descendant at the bit
    /// level.
    fn viable(&self) -> bool {
        if let Some(nf) = self.gates.node_floor {
            // Transaction-level short-circuit: no head's profit sum on
            // any sub-tidset can exceed the summed max margins, and
            // every admitted head's floor is at least `node_floor`.
            if self.node_ub < nf {
                return false;
            }
        }
        let ms = self.minsup as f64;
        for &h in &self.touched {
            if !self.qualifies(h) {
                continue;
            }
            let hi = h.index();
            let hits = self.head_hits[hi];
            // With all-nonnegative margins, `head_profit` IS the
            // positive-part sum, bit for bit.
            let pos = if self.track_pos {
                self.head_pos[hi]
            } else {
                self.head_profit[hi]
            };
            if pos < self.gates.floor[hi] {
                continue;
            }
            let cu = (hits as f64 / ms).min(1.0);
            if let Some(mc) = self.config.min_confidence {
                if cu < mc {
                    continue;
                }
            }
            let pu = pos / ms;
            if pu < self.default_floor.0 + 1e-12 && cu < self.default_floor.1 + 1e-12 {
                continue;
            }
            return true;
        }
        false
    }

    /// Viability of the subtree below the body emitted last (the stamped
    /// arrays are still that body's), counting the evaluation and — on a
    /// cut — the pruned subtree at `depth` (the body's length).
    fn subtree_viable(&mut self, depth: usize) -> bool {
        self.ub_evaluated += 1;
        if self.viable() {
            true
        } else {
            self.ub_pruned += 1;
            self.ub_pruned_depth[(depth - 1).min(UB_DEPTH_NAMES.len() - 1)] += 1;
            false
        }
    }

    /// Scan an anchor singleton's tidset (without emitting — level 1
    /// already emitted it) and decide whether any body below the anchor
    /// can emit.
    fn probe(&mut self, tidset: TidView<'_>) -> bool {
        self.scan(tidset);
        self.subtree_viable(1)
    }

    pub(crate) fn emit(&mut self, body: &[GsId], tidset: TidView<'_>, body_count: u32) {
        self.scan(tidset);
        for ti in 0..self.touched.len() {
            let h = self.touched[ti];
            if !self.qualifies(h) {
                continue;
            }
            let hits = self.head_hits[h.index()];
            let profit = self.head_profit[h.index()];
            // Dominance pre-filter (see `mine_extended`). A hair of slack
            // keeps exact ties, which the rank order resolves properly.
            let bc = body_count as f64;
            if profit / bc < self.default_floor.0 + 1e-12
                && (hits as f64) / bc < self.default_floor.1 + 1e-12
            {
                continue;
            }
            if let Some(mc) = self.config.min_confidence {
                if (hits as f64 / body_count as f64) < mc {
                    continue;
                }
            }
            if profit < self.gates.floor[h.index()] {
                continue;
            }
            let gen_index = self.rules.len() as u32;
            self.rules.push(Rule {
                body: body.to_vec(),
                head: h,
                body_count,
                hits,
                profit,
                gen_index,
            });
        }
    }

    /// File a rule the previous walk emitted at a body no delta
    /// transaction contains. Its statistics are today's, and every
    /// emission filter but support is independent of `n` (the dominance
    /// floor is off wherever rules are reused), so it is emitted today
    /// iff it reaches today's support.
    fn refile(&mut self, mut rule: Rule) {
        if rule.hits >= self.minsup {
            rule.gen_index = self.rules.len() as u32;
            self.rules.push(rule);
        }
    }

    /// Drain the emitted rules, leaving the emitter's scratch arrays
    /// intact for reuse on the next job. Generation indices in the
    /// returned buffer are local to this drain; a cold fit numbers them
    /// once after the merge, and the incremental miner caches them as
    /// they are.
    fn take_rules(&mut self) -> Vec<Rule> {
        std::mem::take(&mut self.rules)
    }
}

/// Pair-frequency table over the dense indices of the frequent
/// singletons: a triangular array when it fits, a hash map otherwise.
pub(crate) enum PairCounts {
    Tri(Vec<u32>),
    Map(std::collections::HashMap<(u32, u32), u32>),
}

/// Above this many frequent singletons the triangle would exceed ~500 MB;
/// fall back to hashing.
const TRI_LIMIT: usize = 16_384;

impl PairCounts {
    /// GsId → dense index over the frequent singletons.
    fn dense_map(extended: &ExtendedData, freq: &[GsId]) -> Vec<Option<u32>> {
        let mut dense: Vec<Option<u32>> = vec![None; extended.n_gs()];
        for (di, g) in freq.iter().enumerate() {
            dense[g.index()] = Some(di as u32);
        }
        dense
    }

    /// The pair table of `freq` over every transaction of `extended`:
    /// the triangle up to [`TRI_LIMIT`] frequent singletons, the map
    /// above it.
    fn count(extended: &ExtendedData, freq: &[GsId]) -> Self {
        let f = freq.len();
        let table = if f <= TRI_LIMIT {
            PairCounts::Tri(vec![0u32; f * (f.saturating_sub(1)) / 2])
        } else {
            PairCounts::Map(std::collections::HashMap::new())
        };
        table.add(extended, freq)
    }

    /// Add one for every pair of `freq` each transaction of `extended`
    /// holds, one transaction at a time, `hi` outer and `lo` inner: in
    /// the triangle each `hi`'s increments land in one contiguous row.
    fn add(mut self, extended: &ExtendedData, freq: &[GsId]) -> Self {
        let dense = Self::dense_map(extended, freq);
        let mut present: Vec<u32> = Vec::new();
        let mut bumps = 0u64;
        for gs in &extended.txn_gs {
            present.clear();
            present.extend(gs.iter().filter_map(|g| dense[g.index()]));
            // `gs` is sorted by GsId and `freq` is GsId-ascending, so
            // `present` is ascending too.
            for (j, &hi) in present.iter().enumerate() {
                self.bump_row(hi, &present[..j]);
            }
            let k = present.len() as u64;
            bumps += k * k.saturating_sub(1) / 2;
        }
        pm_obs::counter("mine.pairs_counted").add(bumps);
        self
    }

    #[inline]
    fn tri_index(lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        hi * (hi - 1) / 2 + lo
    }

    /// Add one to every pair `(lo, hi)` with `lo` in `los`, each below
    /// `hi`.
    #[inline]
    fn bump_row(&mut self, hi: u32, los: &[u32]) {
        match self {
            PairCounts::Tri(v) => {
                let hi = hi as usize;
                let row = &mut v[hi * hi.saturating_sub(1) / 2..][..hi];
                for &lo in los {
                    row[lo as usize] += 1;
                }
            }
            PairCounts::Map(m) => {
                for &lo in los {
                    *m.entry((lo, hi)).or_insert(0) += 1;
                }
            }
        }
    }

    #[inline]
    fn get(&self, a: usize, b: usize) -> u32 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        match self {
            PairCounts::Tri(v) => v[Self::tri_index(lo, hi)],
            PairCounts::Map(m) => m.get(&(lo as u32, hi as u32)).copied().unwrap_or(0),
        }
    }
}

/// `rules` split into maximal runs of one body.
fn body_runs(rules: &[Rule]) -> impl Iterator<Item = &[Rule]> + '_ {
    let mut rest = rules;
    std::iter::from_fn(move || {
        let body = &rest.first()?.body;
        let len = rest.iter().position(|r| &r.body != body);
        let (run, tail) = rest.split_at(len.unwrap_or(rest.len()));
        rest = tail;
        Some(run)
    })
}

/// Whether every body's rules form one contiguous run of `rules` (see
/// [`MinedRules::rules`]).
pub(crate) fn bodies_are_runs(rules: &[Rule]) -> bool {
    let mut seen = HashSet::new();
    body_runs(rules).all(|run| seen.insert(&run[0].body))
}

/// The output of a mining run: rules plus everything the recommender
/// builder needs (interner, per-transaction profiles, singleton
/// tidsets).
#[derive(Debug, Clone)]
pub struct MinedRules {
    pub(crate) config: MinerConfig,
    pub(crate) rules: Vec<Rule>,
    pub(crate) layout: Layout,
    /// The per-head floors the run mined under (see [`HeadGates`]). The
    /// default rule restricts its argmax to the heads below `+∞`.
    pub(crate) head_floor: Vec<f64>,
}

impl MinedRules {
    /// The mined rules, in generation order.
    ///
    /// The rules of one body form one contiguous run: the emitter pushes
    /// every head of a body together, and both a cold fit's fan-out and
    /// the incremental assembly append whole runs (the latter filters
    /// them, which keeps a run a run). [`body_runs`](Self::body_runs)
    /// walks them.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rules split into their body runs, in generation order: each
    /// item holds every rule of one body.
    pub fn body_runs(&self) -> impl Iterator<Item = &[Rule]> + '_ {
        body_runs(&self.rules)
    }

    /// The miner configuration used.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// The absolute minimum-support count this run used.
    pub fn min_support_count(&self) -> u32 {
        self.layout.minsup
    }

    /// Number of transactions mined.
    pub fn n_transactions(&self) -> usize {
        self.layout.extended.n_transactions()
    }

    /// The extended data (interner, profiles, …).
    pub fn extended(&self) -> &ExtendedData {
        &self.layout.extended
    }

    /// The `MOA(H)` view the rules were mined under.
    pub fn moa(&self) -> &Moa {
        &self.layout.moa
    }

    /// The interner.
    pub fn interner(&self) -> &GsInterner {
        &self.layout.extended.interner
    }

    /// The head universe.
    pub fn heads(&self) -> &[(ItemId, CodeId)] {
        &self.layout.extended.heads
    }

    /// The `(item, code)` pair of a head.
    pub fn head(&self, h: HeadId) -> (ItemId, CodeId) {
        self.layout.extended.heads[h.index()]
    }

    /// A rule's body resolved to generalized sales, in the body's stored
    /// (ascending-id) order.
    pub fn resolve_body(&self, rule: &Rule) -> Vec<GenSale> {
        rule.body
            .iter()
            .map(|&g| self.interner().resolve(g))
            .collect()
    }

    /// Iterate the mined rules with their bodies resolved to generalized
    /// sales and their heads to `(item, code)` pairs — the public
    /// comparison surface for differential testing against a reference
    /// implementation, which has no access to interner or head ids.
    pub fn resolved_rules(
        &self,
    ) -> impl Iterator<Item = (Vec<GenSale>, (ItemId, CodeId), &Rule)> + '_ {
        self.rules
            .iter()
            .map(|r| (self.resolve_body(r), self.head(r.head), r))
    }

    /// Singleton tidset of a generalized sale.
    pub fn gs_tidset(&self, g: GsId) -> &TidSet {
        &self.layout.tidsets[g.index()]
    }

    /// The support count a rebuild at a (higher) minimum support `sup`
    /// keeps rules at. By Apriori monotonicity the rules with at least
    /// this many hits equal re-mining at `sup`.
    ///
    /// # Panics
    ///
    /// Panics when `sup` is below the mined threshold.
    pub fn support_count_at(&self, sup: Support) -> u32 {
        let count = sup.to_count(self.n_transactions());
        assert!(
            count >= self.layout.minsup,
            "cannot lower support below the mined threshold ({} < {})",
            count,
            self.layout.minsup
        );
        count
    }

    /// Indices of the rules that survive a (higher) minimum support (see
    /// [`support_count_at`](Self::support_count_at)).
    pub fn rule_indices_at(&self, sup: Support) -> Vec<usize> {
        let count = self.support_count_at(sup);
        (0..self.rules.len())
            .filter(|&i| self.rules[i].hits >= count)
            .collect()
    }

    /// The default rule `∅ → g` (§3.1): over all transactions, the head
    /// maximizing `Prof_re(∅ → g)` under `mode`. Its `gen_index` is
    /// `u32::MAX` — conceptually generated after every mined rule, so it
    /// loses all tie-breaks. Under targeted mining the argmax is
    /// restricted to in-target heads, falling back to the full domain
    /// when the target admits no head at all (a recommender must always
    /// have an answer).
    pub fn default_rule(&self, mode: ProfitMode) -> Rule {
        let HeadTotals { hits, profit } = &self.layout.totals;
        let score = |i: usize| match mode {
            ProfitMode::Profit => profit[i],
            ProfitMode::Confidence => hits[i] as f64,
        };
        let in_target = |i: usize| self.head_floor[i] < f64::INFINITY;
        let targeted = (0..hits.len()).any(in_target);
        // total_cmp, not partial_cmp().expect(): a NaN profit (e.g. a
        // degenerate 0/0 somewhere upstream) must not panic the miner;
        // under the total order NaN sorts above +∞ on the `max_by`
        // probe, which still yields a deterministic head.
        let best = (0..hits.len())
            .filter(|&i| !targeted || in_target(i))
            .max_by(|&a, &b| score(a).total_cmp(&score(b)))
            .expect("at least one head exists");
        Rule {
            body: Vec::new(),
            head: HeadId(best as u32),
            body_count: self.n_transactions() as u32,
            hits: hits[best] as u32,
            profit: profit[best],
            gen_index: u32::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_txn::{Catalog, Hierarchy, ItemDef, Money, PromotionCode, Sale, Transaction};

    /// 8 transactions over 2 non-target items (2 codes each) and 1 target
    /// (2 codes). Constructed so that specific bodies predict specific
    /// heads.
    fn dataset() -> TransactionSet {
        dataset_with(Hierarchy::flat(3))
    }

    /// [`dataset`] with a caller-supplied hierarchy (for subtree-target
    /// tests, which need the target item below a concept).
    fn dataset_with(h: Hierarchy) -> TransactionSet {
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

    fn mine(min_count: u32, moa: MoaMode, max_len: usize) -> MinedRules {
        RuleMiner::new(MinerConfig {
            min_support: Support::Count(min_count),
            max_body_len: max_len,
            moa,
            prune_default_dominated: false,
            ..MinerConfig::default()
        })
        .mine(&dataset())
    }

    fn mine_filtered(min_count: u32, moa: MoaMode, max_len: usize) -> MinedRules {
        RuleMiner::new(MinerConfig {
            min_support: Support::Count(min_count),
            max_body_len: max_len,
            moa,
            prune_default_dominated: true,
            ..MinerConfig::default()
        })
        .mine(&dataset())
    }

    /// The default-dominance pre-filter must drop exactly the rules whose
    /// Prof_re and confidence both fail to beat the default rule's.
    #[test]
    fn default_dominance_prefilter_is_exact() {
        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            let full = mine(1, moa, 3);
            let filtered = mine_filtered(1, moa, 3);
            let n = full.n_transactions() as f64;
            let dp = full.default_rule(ProfitMode::Profit).profit / n;
            let dc = full.default_rule(ProfitMode::Confidence).hits as f64 / n;
            let expect: Vec<_> = full
                .rules()
                .iter()
                .filter(|r| {
                    let bc = r.body_count as f64;
                    r.profit / bc >= dp + 1e-12 || (r.hits as f64) / bc >= dc + 1e-12
                })
                .cloned()
                .collect();
            assert_eq!(canon(filtered.rules()), canon(&expect), "{moa:?}");
            assert!(filtered.rules().len() <= full.rules().len());
        }
    }

    /// Brute-force re-computation of every rule's statistics from the
    /// extension sets. A body matches a transaction iff it is a subset of
    /// the transaction's extended gs set.
    fn brute_force_rules(mined: &MinedRules, minsup: u32, max_len: usize) -> Vec<Rule> {
        let ext = mined.extended();
        let interner = mined.interner();
        let all: Vec<GsId> = (0..ext.n_gs() as u32).map(GsId).collect();
        // Enumerate all ≤ max_len sorted combinations without related
        // pairs (fine for the tiny universe here).
        let mut bodies: Vec<Vec<GsId>> = vec![];
        fn rec(
            all: &[GsId],
            interner: &GsInterner,
            start: usize,
            cur: &mut Vec<GsId>,
            max_len: usize,
            out: &mut Vec<Vec<GsId>>,
        ) {
            if !cur.is_empty() {
                out.push(cur.clone());
            }
            if cur.len() == max_len {
                return;
            }
            for i in start..all.len() {
                if cur.iter().any(|&g| interner.related(g, all[i])) {
                    continue;
                }
                cur.push(all[i]);
                rec(all, interner, i + 1, cur, max_len, out);
                cur.pop();
            }
        }
        rec(&all, interner, 0, &mut vec![], max_len, &mut bodies);

        let mut rules = vec![];
        for body in bodies {
            let matched: Vec<usize> = (0..ext.n_transactions())
                .filter(|&tid| body.iter().all(|g| ext.txn_gs[tid].contains(g)))
                .collect();
            for h in 0..ext.n_heads() {
                let h = HeadId(h as u32);
                let mut hits = 0u32;
                let mut profit = 0.0;
                for &tid in &matched {
                    if let Some(p) = ext.head_profit_on(tid, h) {
                        hits += 1;
                        profit += p;
                    }
                }
                if hits >= minsup {
                    rules.push(Rule {
                        body: body.clone(),
                        head: h,
                        body_count: matched.len() as u32,
                        hits,
                        profit,
                        gen_index: 0,
                    });
                }
            }
        }
        rules
    }

    fn canon(rules: &[Rule]) -> Vec<(Vec<GsId>, HeadId, u32, u32, i64)> {
        let mut v: Vec<_> = rules
            .iter()
            .map(|r| {
                (
                    r.body.clone(),
                    r.head,
                    r.body_count,
                    r.hits,
                    (r.profit * 1000.0).round() as i64,
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn matches_brute_force_with_moa() {
        for minsup in [1u32, 2, 3] {
            let mined = mine(minsup, MoaMode::Enabled, 3);
            let brute = brute_force_rules(&mined, minsup, 3);
            assert_eq!(
                canon(mined.rules()),
                canon(&brute),
                "minsup {minsup} (got {} vs {})",
                mined.rules().len(),
                brute.len()
            );
        }
    }

    #[test]
    fn matches_brute_force_without_moa() {
        for minsup in [1u32, 2] {
            let mined = mine(minsup, MoaMode::Disabled, 3);
            let brute = brute_force_rules(&mined, minsup, 3);
            assert_eq!(canon(mined.rules()), canon(&brute), "minsup {minsup}");
        }
    }

    #[test]
    fn no_related_body_elements() {
        let mined = mine(1, MoaMode::Enabled, 3);
        let interner = mined.interner();
        for r in mined.rules() {
            for (i, &a) in r.body.iter().enumerate() {
                for &b in &r.body[i + 1..] {
                    assert!(!interner.related(a, b), "related pair in body");
                }
            }
        }
    }

    #[test]
    fn bodies_are_sorted_and_within_length() {
        let mined = mine(1, MoaMode::Enabled, 2);
        assert!(!mined.rules().is_empty());
        for r in mined.rules() {
            assert!(r.body.len() <= 2);
            assert!(r.body.windows(2).all(|w| w[0] < w[1]));
            assert!(r.hits >= 1);
            assert!(r.hits <= r.body_count);
        }
    }

    #[test]
    fn moa_yields_more_rules() {
        let with = mine(2, MoaMode::Enabled, 3);
        let without = mine(2, MoaMode::Disabled, 3);
        assert!(
            with.rules().len() > without.rules().len(),
            "{} vs {}",
            with.rules().len(),
            without.rules().len()
        );
    }

    #[test]
    fn support_filtering_is_monotone() {
        let low = mine(1, MoaMode::Enabled, 3);
        let high = mine(3, MoaMode::Enabled, 3);
        let filtered: Vec<_> = low
            .rule_indices_at(Support::Count(3))
            .into_iter()
            .map(|i| low.rules()[i].clone())
            .collect();
        assert_eq!(canon(&filtered), canon(high.rules()));
    }

    #[test]
    #[should_panic]
    fn cannot_lower_support_after_mining() {
        let mined = mine(3, MoaMode::Enabled, 2);
        let _ = mined.rule_indices_at(Support::Count(1));
    }

    #[test]
    fn default_rule_maximizes_prof_re() {
        let mined = mine(2, MoaMode::Enabled, 2);
        let d = mined.default_rule(ProfitMode::Profit);
        assert!(d.body.is_empty());
        assert_eq!(d.body_count as usize, 8);
        assert_eq!(d.gen_index, u32::MAX);
        // Verify optimality against all heads.
        let ext = mined.extended();
        for h in 0..ext.n_heads() {
            let h = HeadId(h as u32);
            let profit: f64 = (0..8).filter_map(|tid| ext.head_profit_on(tid, h)).sum();
            assert!(d.profit >= profit - 1e-12, "head {h:?} beats default");
        }
        // Confidence-mode default maximizes hits instead.
        let dc = mined.default_rule(ProfitMode::Confidence);
        for h in 0..ext.n_heads() {
            let h = HeadId(h as u32);
            let hits = (0..8)
                .filter(|&t| ext.head_profit_on(t, h).is_some())
                .count();
            assert!(dc.hits as usize >= hits);
        }
    }

    #[test]
    fn support_resolution() {
        assert_eq!(Support::Fraction(0.001).to_count(100_000), 100);
        assert_eq!(Support::Fraction(0.001).to_count(50), 1);
        assert_eq!(Support::Count(5).to_count(10), 5);
        assert_eq!(Support::Fraction(0.0001).to_count(100), 1, "min 1");
    }

    /// `to_count` must absorb f64 product rounding: `0.003 * 1000`
    /// evaluates to `3.0000000000000004`, whose naive ceiling over-counts
    /// to 4.
    #[test]
    fn support_fraction_rounding_does_not_overcount() {
        assert_eq!(Support::Fraction(0.003).to_count(1000), 3);
        assert_eq!(Support::Fraction(0.07).to_count(100), 7);
        assert_eq!(Support::Fraction(0.29).to_count(100), 29);
        // Intentional fractional parts still round up.
        assert_eq!(Support::Fraction(0.0035).to_count(1000), 4);
        assert_eq!(Support::Fraction(0.301).to_count(10), 4);
    }

    /// A fraction never resolves above `n` (so `Fraction(1.0)` means
    /// "every transaction", not an unsatisfiable n+1), and never below 1.
    #[test]
    fn support_fraction_clamped_to_transaction_count() {
        assert_eq!(Support::Fraction(1.0).to_count(7), 7);
        assert_eq!(Support::Fraction(1.0).to_count(1_000_000), 1_000_000);
        assert_eq!(Support::Fraction(0.999_999_999).to_count(5), 5);
        assert_eq!(Support::Fraction(1e-12).to_count(100), 1);
        assert_eq!(Support::Fraction(0.5).to_count(0), 1);
        // Absolute counts pass through unclamped — requesting more
        // support than there are transactions just yields zero rules.
        assert_eq!(Support::Count(50).to_count(10), 50);
    }

    /// The tentpole guarantee: mining output is bit-identical at every
    /// thread count — same rules, same order, same `gen_index`, same f64
    /// profit bits.
    #[test]
    fn thread_count_does_not_change_output() {
        let ds = dataset();
        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            for max_len in [1usize, 2, 3] {
                let config = MinerConfig {
                    min_support: Support::Count(1),
                    max_body_len: max_len,
                    moa,
                    prune_default_dominated: false,
                    ..MinerConfig::default()
                };
                let base = RuleMiner::new(config).with_threads(1).mine(&ds);
                assert!(!base.rules().is_empty());
                for threads in [2usize, 3, 8] {
                    let par = RuleMiner::new(config).with_threads(threads).mine(&ds);
                    assert_eq!(
                        base.rules(),
                        par.rules(),
                        "{moa:?} max_len {max_len} threads {threads}"
                    );
                }
            }
        }
    }

    /// The pruning guarantee: the upper bound only cuts subtrees that
    /// provably emit nothing, so the pruned miner emits exactly the
    /// brute-force rule set filtered by the emission predicates of
    /// [`RuleEmitter::emit`], under every filter combination feeding the
    /// viability predicate (min-conf, min-profit, dominance floor) and at
    /// 1 and several threads.
    #[test]
    fn pruned_mining_matches_filtered_brute_force() {
        let ds = dataset();
        let filters = [
            (None, None, false),
            (Some(0.5), None, true),
            (None, Some(2.0), false),
            (Some(0.6), Some(1.0), true),
        ];
        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            for min_count in [1u32, 2, 3] {
                let all = mine(min_count, moa, 4);
                let brute = brute_force_rules(&all, min_count, 4);
                let n = all.n_transactions() as f64;
                let dp = all.default_rule(ProfitMode::Profit).profit / n;
                let dc = all.default_rule(ProfitMode::Confidence).hits as f64 / n;
                for (min_confidence, min_rule_profit, dominated) in filters {
                    let expect: Vec<Rule> = brute
                        .iter()
                        .filter(|r| {
                            let bc = r.body_count as f64;
                            let conf = r.hits as f64 / bc;
                            !(dominated && r.profit / bc < dp + 1e-12 && conf < dc + 1e-12)
                                && min_confidence.is_none_or(|mc| conf >= mc)
                                && min_rule_profit.is_none_or(|mp| r.profit >= mp)
                        })
                        .cloned()
                        .collect();
                    let config = MinerConfig {
                        min_support: Support::Count(min_count),
                        max_body_len: 4,
                        moa,
                        min_confidence,
                        min_rule_profit,
                        prune_default_dominated: dominated,
                        ..MinerConfig::default()
                    };
                    for threads in [1usize, 3] {
                        let got = RuleMiner::new(config).with_threads(threads).mine(&ds);
                        assert_eq!(
                            canon(got.rules()),
                            canon(&expect),
                            "{moa:?} count {min_count} conf {min_confidence:?} \
                             profit {min_rule_profit:?} dom {dominated} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    /// A `min_rule_profit` no dataset can meet lets the anchor probes cut
    /// the *entire* DFS: every emitter terminates early on the
    /// pruned-to-empty path, and the `Drop` flush must still publish the
    /// upper-bound counters. The pm-obs registry is global and tests run
    /// concurrently, so counters are asserted as monotone deltas.
    #[test]
    fn fully_pruned_run_still_flushes_counters() {
        let config = MinerConfig {
            min_support: Support::Count(1),
            max_body_len: 2,
            moa: MoaMode::Enabled,
            min_rule_profit: Some(1e18),
            prune_default_dominated: false,
            ..MinerConfig::default()
        };
        let ds = dataset();
        let evaluated = pm_obs::counter("mine.ub_evaluated").get();
        let pruned = pm_obs::counter("mine.ub_pruned").get();
        let depth1 = pm_obs::counter("mine.ub_pruned.d1").get();
        for threads in [1usize, 3] {
            let mined = RuleMiner::new(config).with_threads(threads).mine(&ds);
            assert!(mined.rules().is_empty(), "threads {threads}");
        }
        assert!(pm_obs::counter("mine.ub_evaluated").get() >= evaluated + 2);
        assert!(pm_obs::counter("mine.ub_pruned").get() >= pruned + 2);
        assert!(pm_obs::counter("mine.ub_pruned.d1").get() >= depth1 + 2);
    }

    #[test]
    fn max_body_len_one_gives_only_singletons() {
        let mined = mine(1, MoaMode::Enabled, 1);
        assert!(mined.rules().iter().all(|r| r.body.len() == 1));
    }

    /// Bitwise rule identity: every field, profit at the f64 bit level,
    /// generation indices included.
    fn exact(rules: &[Rule]) -> Vec<(Vec<GsId>, HeadId, u32, u32, u64, u32)> {
        rules
            .iter()
            .map(|r| {
                (
                    r.body.clone(),
                    r.head,
                    r.body_count,
                    r.hits,
                    r.profit.to_bits(),
                    r.gen_index,
                )
            })
            .collect()
    }

    /// The defining semantics of targeted mining: keep the in-target
    /// heads' rules, renumber generation indices.
    fn post_filter(full: &MinedRules, t: &TargetFilter) -> Vec<Rule> {
        let h = full.moa().hierarchy();
        let mut out: Vec<Rule> = full
            .rules()
            .iter()
            .filter(|r| {
                let (item, code) = full.head(r.head);
                t.matches(h, item, code)
            })
            .cloned()
            .collect();
        for (i, r) in out.iter_mut().enumerate() {
            r.gen_index = i as u32;
        }
        out
    }

    /// Targeted mining is byte-identical to post-filtering the full run,
    /// across MOA modes, emission filters (incl. dominance, whose floor
    /// deliberately stays global under targeting), and thread counts.
    #[test]
    fn targeted_mining_equals_post_filtering() {
        let ds = dataset();
        let targets = [
            TargetFilter::Items(vec![ItemId(2)]),
            TargetFilter::Codes(vec![CodeId(0)]),
            TargetFilter::Codes(vec![CodeId(1)]),
            // Admits no head at all: mined set must be empty.
            TargetFilter::Items(vec![ItemId(0)]),
        ];
        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            for (min_confidence, min_rule_profit, dominated) in
                [(None, None, false), (Some(0.5), Some(1.0), true)]
            {
                let config = MinerConfig {
                    min_support: Support::Count(1),
                    max_body_len: 3,
                    moa,
                    min_confidence,
                    min_rule_profit,
                    prune_default_dominated: dominated,
                    ..MinerConfig::default()
                };
                let full = RuleMiner::new(config).with_threads(1).mine(&ds);
                for t in &targets {
                    let expect = post_filter(&full, t);
                    for threads in [1usize, 4] {
                        let mined = RuleMiner::new(config)
                            .with_threads(threads)
                            .with_target(Some(t.clone()))
                            .mine(&ds);
                        assert_eq!(
                            exact(mined.rules()),
                            exact(&expect),
                            "{t:?} {moa:?} conf {min_confidence:?} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    /// Subtree targets resolve through the hierarchy: targeting the
    /// concept above the target item behaves exactly like targeting the
    /// item, and a subtree not covering it admits nothing.
    #[test]
    fn subtree_target_follows_hierarchy() {
        let mut h = Hierarchy::flat(3);
        let snacks = h.add_concept("Snacks");
        h.link_item(ItemId(2), snacks).unwrap();
        let ds = dataset_with(h);
        let config = MinerConfig {
            min_support: Support::Count(1),
            max_body_len: 3,
            prune_default_dominated: false,
            ..MinerConfig::default()
        };
        let full = RuleMiner::new(config).mine(&ds);
        let covering = RuleMiner::new(config)
            .with_target(Some(TargetFilter::Subtree(snacks)))
            .mine(&ds);
        // The concept covers the only target item, so nothing filters.
        assert_eq!(exact(covering.rules()), exact(full.rules()));

        let mut h2 = Hierarchy::flat(3);
        let other = h2.add_concept("Elsewhere");
        h2.link_item(ItemId(0), other).unwrap();
        let ds2 = dataset_with(h2);
        let excluded = RuleMiner::new(config)
            .with_target(Some(TargetFilter::Subtree(other)))
            .mine(&ds2);
        assert!(excluded.rules().is_empty());
        // No in-target head: the default rule falls back to the full
        // argmax so the recommender still has an answer.
        let full2 = RuleMiner::new(config).mine(&ds2);
        assert_eq!(
            excluded.default_rule(ProfitMode::Profit),
            full2.default_rule(ProfitMode::Profit)
        );
    }

    /// Under a target the default rule's argmax runs over in-target
    /// heads only.
    #[test]
    fn targeted_default_rule_restricts_argmax() {
        let ds = dataset();
        let config = MinerConfig {
            min_support: Support::Count(1),
            max_body_len: 2,
            prune_default_dominated: false,
            ..MinerConfig::default()
        };
        for code in [CodeId(0), CodeId(1)] {
            let mined = RuleMiner::new(config)
                .with_target(Some(TargetFilter::Codes(vec![code])))
                .mine(&ds);
            let d = mined.default_rule(ProfitMode::Profit);
            assert_eq!(mined.head(d.head), (ItemId(2), code));
            assert_eq!(d.gen_index, u32::MAX);
        }
    }

    /// Per-item floors generalize the scalar `min_rule_profit`: a floor
    /// on the (only) head item is byte-identical to the scalar, listed
    /// items override the scalar, and floors on non-head items are
    /// inert (including for the node-level upper-bound cut, which must
    /// not fire while an unfloored head remains admissible). A NaN
    /// floor admits every profit in emission and in the oracle, so it
    /// is no floor for the node cut either; a `+∞` floor excludes the
    /// item's heads, as a target leaving them out does.
    // `!(profit < floor)` mirrors the emitter's `profit < mp → skip`
    // gate exactly, NaN admission included.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[test]
    fn per_item_floors_generalize_the_scalar_floor() {
        let ds = dataset();
        let base = MinerConfig {
            min_support: Support::Count(1),
            max_body_len: 3,
            prune_default_dominated: false,
            ..MinerConfig::default()
        };
        let scalar = RuleMiner::new(MinerConfig {
            min_rule_profit: Some(5.0),
            ..base
        })
        .mine(&ds);
        // Floor on the head item, no scalar.
        let per_item = RuleMiner::new(base)
            .with_item_floors(vec![(ItemId(2), 5.0)])
            .mine(&ds);
        assert_eq!(exact(scalar.rules()), exact(per_item.rules()));
        // A listed item overrides an impossible scalar.
        let overridden = RuleMiner::new(MinerConfig {
            min_rule_profit: Some(1e18),
            ..base
        })
        .with_item_floors(vec![(ItemId(2), 5.0)])
        .mine(&ds);
        assert_eq!(exact(scalar.rules()), exact(overridden.rules()));
        // Floors on items without heads filter nothing.
        let unfiltered = RuleMiner::new(base).mine(&ds);
        let inert = RuleMiner::new(base)
            .with_item_floors(vec![(ItemId(0), 1e18)])
            .mine(&ds);
        assert_eq!(exact(unfiltered.rules()), exact(inert.rules()));
        assert!(unfiltered.rules().iter().any(|r| r.body.len() >= 2));
        for (scalar, floors) in [
            (None, vec![(ItemId(2), f64::NAN)]),
            (Some(f64::NAN), vec![]),
        ] {
            let nan = RuleMiner::new(MinerConfig {
                min_rule_profit: scalar,
                ..base
            })
            .with_item_floors(floors)
            .mine(&ds);
            assert_eq!(exact(unfiltered.rules()), exact(nan.rules()));
        }
        let excluded = RuleMiner::new(base)
            .with_item_floors(vec![(ItemId(2), f64::INFINITY)])
            .mine(&ds);
        assert!(excluded.rules().is_empty());
        // Brute-force semantics: exactly the rules at or above the
        // floor survive, in order, renumbered — and here every head
        // is on the floored item.
        let mut expect: Vec<Rule> = unfiltered
            .rules()
            .iter()
            .filter(|r| !(r.profit < 5.0))
            .cloned()
            .collect();
        for (i, r) in expect.iter_mut().enumerate() {
            r.gen_index = i as u32;
        }
        assert_eq!(exact(per_item.rules()), exact(&expect));
    }

    /// A deterministic xorshift stream.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ seed.wrapping_mul(0x2545_f491_4f6c_dd1d);
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// The two-pass scan against the per-tid accumulation it replaced:
    /// walk the tids, and for each add one hit, the margin and its
    /// positive part to every head the transaction's target sale hits,
    /// plus the transaction's margin bound. Margins are drawn from
    /// negative, signed-zero, NaN and ±∞ values (so both pruning gates
    /// run) as well as the catalog's own, target quantities from 1–5 (so
    /// a head set's profiles earn different margins), tidsets are handed
    /// to the scan as dense words and as sparse ids, and a `+∞` floor
    /// puts some heads outside the target. Hits must agree for every
    /// head; profit, `head_pos` and `node_ub` must agree bit for bit for
    /// every in-target head at or above minsup.
    #[test]
    fn scan_matches_per_tid_accumulation_bit_for_bit() {
        let mut cat = Catalog::new();
        cat.push(ItemDef {
            name: "a".into(),
            codes: vec![PromotionCode::unit(
                Money::from_cents(100),
                Money::from_cents(50),
            )],
            is_target: false,
        });
        for (name, prices) in [("t", vec![500, 600]), ("u", vec![300, 350, 400])] {
            cat.push(ItemDef {
                name: name.into(),
                codes: prices
                    .into_iter()
                    .map(|p| PromotionCode::unit(Money::from_cents(p), Money::from_cents(250)))
                    .collect(),
                is_target: true,
            });
        }
        let n = 300usize;
        let mut next = xorshift(17);
        let txns = (0..n)
            .map(|_| {
                let (item, codes) = if next().is_multiple_of(2) {
                    (1, 2)
                } else {
                    (2, 3)
                };
                let code = CodeId((next() % codes) as u16);
                let qty = 1 + (next() % 5) as u32;
                Transaction::new(
                    vec![Sale::new(ItemId(0), CodeId(0), 1)],
                    Sale::new(ItemId(item), code, qty),
                )
            })
            .collect();
        let ds = TransactionSet::new(cat, Hierarchy::flat(3), txns).unwrap();
        let specials = [
            -3.5,
            -0.0,
            0.0,
            2.25,
            1e300,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let config = MinerConfig::default();
        let mut cases = 0;
        for moa_on in [true, false] {
            let moa = Moa::new(ds.catalog_arc(), ds.hierarchy_arc(), moa_on);
            for round in 0..6u64 {
                let mut ext = ExtendedData::build(&ds, &moa, QuantityModel::Saving);
                // Round 0 keeps the catalog's (nonnegative) margins.
                let mut expect = std::collections::HashMap::new();
                if round > 0 {
                    ext.set_margins(|profile, h| {
                        let r = next();
                        let m = if r.is_multiple_of(3) {
                            specials[(r / 3) as usize % specials.len()]
                        } else {
                            (r % 2001) as f64 / 8.0 - 125.0
                        };
                        expect.insert((profile, h), m);
                        m
                    });
                }
                let h = ext.n_heads();
                assert!(ext.profiles.len() > ext.head_sets.len());
                for (masked, floored) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    let gates = HeadGates::new(
                        (0..h)
                            .map(|_| {
                                if masked && next().is_multiple_of(4) {
                                    f64::INFINITY
                                } else if floored {
                                    1.0
                                } else {
                                    f64::NEG_INFINITY
                                }
                            })
                            .collect(),
                    );
                    for (density, minsup) in [(2u64, 1u32), (5, 3), (40, 10), (100, 40)] {
                        let ids: Vec<u32> =
                            (0..n as u32).filter(|_| next() % 100 < density).collect();
                        let mut words = vec![0u64; n.div_ceil(64)];
                        for &t in &ids {
                            words[t as usize / 64] |= 1 << (t % 64);
                        }
                        // The reference: per tid, every head the target
                        // sale hits, in tid order.
                        let mut hits = vec![0u32; h];
                        let mut profit = vec![0.0f64; h];
                        let mut pos = vec![0.0f64; h];
                        let mut node_ub = 0.0f64;
                        for &t in &ids {
                            let t = t as usize;
                            let profile = ext.txn_profile[t];
                            node_ub += ext.profiles[profile as usize].max_margin;
                            for (hi, &(item, code)) in ext.heads.iter().enumerate() {
                                let target = ds.transactions()[t].target_sale();
                                let Some(real) =
                                    moa.head_profit(item, code, target, QuantityModel::Saving)
                                else {
                                    continue;
                                };
                                let p = if round == 0 {
                                    real
                                } else {
                                    expect[&(profile, HeadId(hi as u32))]
                                };
                                hits[hi] += 1;
                                profit[hi] += p;
                                pos[hi] += pos_part(p);
                            }
                        }
                        for view in [TidView::Dense(&words), TidView::Sparse(&ids)] {
                            let mut em =
                                RuleEmitter::new(&ext, &config, &gates, minsup, (0.0, 0.0));
                            assert_eq!(em.track_pos, round > 0);
                            assert_eq!(em.track_ub, floored);
                            em.scan(view);
                            let ctx = format!(
                                "moa {moa_on} round {round} mask {masked} floor {floored} \
                                 density {density} {view:?}"
                            );
                            let touched: Vec<HeadId> = (0..h)
                                .filter(|&hi| hits[hi] > 0)
                                .map(|hi| HeadId(hi as u32))
                                .collect();
                            assert_eq!(em.touched, touched, "{ctx}");
                            assert_eq!(em.tids_scanned, ids.len() as u64, "{ctx}");
                            let mut sums = 0;
                            for &hd in &touched {
                                let hi = hd.index();
                                assert_eq!(em.head_hits[hi], hits[hi], "{ctx} head {hi}");
                                if gates.floor[hi] == f64::INFINITY || hits[hi] < minsup {
                                    continue;
                                }
                                sums += 1;
                                let bits = em.head_profit[hi].to_bits();
                                assert_eq!(bits, profit[hi].to_bits(), "{ctx} head {hi} profit");
                                if em.track_pos {
                                    let bits = em.head_pos[hi].to_bits();
                                    assert_eq!(bits, pos[hi].to_bits(), "{ctx} head {hi} pos");
                                }
                                cases += 1;
                            }
                            assert_eq!(em.head_sums, sums, "{ctx}");
                            if em.track_ub {
                                assert_eq!(em.node_ub.to_bits(), node_ub.to_bits(), "{ctx}");
                            }
                        }
                    }
                }
            }
        }
        assert!(cases > 500, "only {cases} admitted heads reached minsup");
    }

    /// Both pair tables, triangle and map, equal a brute-force count
    /// keyed by `GsId`. The singletons are those frequent at a support
    /// that drops some generalized sales, so the dense index skips ids.
    #[test]
    fn pair_counts_tri_and_map_agree() {
        use pm_datagen::DatasetConfig;
        use rand::{rngs::StdRng, SeedableRng};
        use std::collections::HashMap;
        let ds = DatasetConfig::dataset_i()
            .with_transactions(300)
            .with_items(40)
            .generate(&mut StdRng::seed_from_u64(11));
        let mined = RuleMiner::new(MinerConfig {
            min_support: Support::Count(12),
            max_body_len: 2,
            ..MinerConfig::default()
        })
        .mine(&ds);
        let ext = mined.extended();
        let freq: Vec<GsId> = (0..ext.n_gs() as u32)
            .map(GsId)
            .filter(|&g| mined.gs_tidset(g).count() >= 12)
            .collect();
        assert!(
            freq.len() >= 10 && freq.len() < ext.n_gs(),
            "{}",
            freq.len()
        );
        let mut brute: HashMap<(GsId, GsId), u32> = HashMap::new();
        for gs in &ext.txn_gs {
            let present: Vec<GsId> = gs.iter().copied().filter(|g| freq.contains(g)).collect();
            for (j, &hi) in present.iter().enumerate() {
                for &lo in &present[..j] {
                    *brute.entry((lo, hi)).or_insert(0) += 1;
                }
            }
        }
        let f = freq.len();
        let tri = PairCounts::count(ext, &freq);
        assert!(matches!(tri, PairCounts::Tri(_)));
        let map = PairCounts::Map(HashMap::new()).add(ext, &freq);
        for i in 0..f {
            for j in i + 1..f {
                let expect = brute.get(&(freq[i], freq[j])).copied().unwrap_or(0);
                assert_eq!(tri.get(i, j), expect, "pair ({i},{j})");
                assert_eq!(tri.get(j, i), expect, "pair ({j},{i})");
                assert_eq!(map.get(i, j), expect, "pair ({i},{j})");
            }
        }
        assert!(brute.values().any(|&c| c > 1));
    }
}
