//! The trained recommender ([`RuleModel`]), the [`Recommender`] trait, and
//! recommendation explanations.
//!
//! A [`RuleModel`] is self-contained: it embeds the `MOA(H)` view (which
//! owns the catalog and hierarchy through `Arc`s), the surviving rules in
//! MPF rank order, and their statistics. Recommendation is the MPF
//! selection of Definition 6: the highest-ranked rule whose body
//! generalizes the customer's non-target sales; the default rule
//! guarantees a match.

use crate::cut::{optimal_cut, CutResult, CutTree};
use crate::pessimistic::ProjectedProfit;
use crate::pipeline::{BuildStats, CutConfig};
use crate::tree::CoveringTree;
use pm_rules::{MinedRules, ProfitMode};
use pm_txn::{CodeId, GenSale, ItemId, Moa, PromotionCode, Sale, TargetFilter};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A recommendation: one `(target item, promotion code)` pair plus the
/// statistics of the rule that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The recommended target item.
    pub item: ItemId,
    /// The recommended promotion code.
    pub code: CodeId,
    /// The code's pricing details.
    pub promotion: PromotionCode,
    /// The selected rule's recommendation profit `Prof_re` — the expected
    /// profit of this recommendation (dollars; a hit count under
    /// confidence mode).
    pub expected_profit: f64,
    /// The selected rule's confidence (hit rate among matched customers).
    pub confidence: f64,
    /// Index of the selected rule in the producing model (when the
    /// recommender is rule-based).
    pub rule_index: Option<usize>,
}

/// Anything that can recommend a target item and promotion code for a
/// customer (a set of non-target sales). Implemented by [`RuleModel`] and
/// by the baselines in `pm-baselines`.
pub trait Recommender {
    /// A short display name (e.g. `PROF+MOA`, `kNN`).
    fn name(&self) -> String;
    /// Recommend for a customer.
    fn recommend(&self, customer: &[Sale]) -> Recommendation;
    /// Number of rules, for model-based recommenders (`None` for
    /// instance-based ones like kNN and MPI).
    fn n_rules(&self) -> Option<usize> {
        None
    }
}

/// One rule of a trained model, with resolved generalized sales.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelRule {
    /// The body (empty for the default rule).
    pub body: Vec<GenSale>,
    /// Head item.
    pub item: ItemId,
    /// Head promotion code.
    pub code: CodeId,
    /// Training transactions matched by the body.
    pub body_count: u32,
    /// Training hits (= support count).
    pub support_count: u32,
    /// Rule profit `Prof_ru` (dollars).
    pub profit: f64,
    /// Recommendation profit `Prof_re` under the model's profit mode.
    pub prof_re: f64,
    /// Confidence.
    pub confidence: f64,
    /// Projected profit `Prof_pr` over the rule's final (post-cut)
    /// coverage.
    pub projected_profit: f64,
    /// Size of the final coverage.
    pub coverage: u32,
    /// True for the default rule `∅ → g`.
    pub is_default: bool,
}

/// A trained, pruned, self-contained profit-mining recommender.
#[derive(Debug, Clone)]
pub struct RuleModel {
    moa: Moa,
    mode: ProfitMode,
    rules: Vec<ModelRule>,
    stats: BuildStats,
}

/// A serializable snapshot of a trained [`RuleModel`] — everything needed
/// to recommend without retraining (the favorability tables are
/// recomputed on load).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedModel {
    /// The catalog the model was trained on.
    pub catalog: pm_txn::Catalog,
    /// The concept hierarchy.
    pub hierarchy: pm_txn::Hierarchy,
    /// Whether MOA generalization was on.
    pub moa_enabled: bool,
    /// The profit mode.
    pub mode: ProfitMode,
    /// The surviving rules in MPF rank order.
    pub rules: Vec<ModelRule>,
    /// Build statistics.
    pub stats: BuildStats,
}

impl RuleModel {
    /// Build the recommender from mined rules: rank (MPF), remove
    /// dominated rules, assign coverage, build the covering tree, and —
    /// unless `config.prune` is off — take the optimal cut.
    pub fn build(mined: &MinedRules, config: &CutConfig) -> RuleModel {
        let mut projector = ProjectedProfit::new(config.cf, config.profit_mode);
        Self::build_with(mined, config, &mut projector)
    }

    /// [`build`](Self::build), reading `U_CF` through `projector` (made
    /// with `config`'s confidence level and profit mode), which keeps
    /// only the values this build read for the next.
    pub(crate) fn build_with(
        mined: &MinedRules,
        config: &CutConfig,
        projector: &mut ProjectedProfit,
    ) -> RuleModel {
        debug_assert_eq!(projector.mode(), config.profit_mode);
        let tree = CoveringTree::build(mined, config.profit_mode, config.min_support);
        let _span = pm_obs::span("build.cut");
        let ext = mined.extended();

        // Prof_pr of rule `node` over coverage `tids`.
        let mut evals = 0u64;
        let mut eval = |node: usize, tids: &[u32]| -> f64 {
            evals += 1;
            let head = tree.rules[node].head;
            let mut hits = 0u64;
            let mut profit = 0.0f64;
            for &t in tids {
                if let Some(p) = ext.head_profit_on(t as usize, head) {
                    hits += 1;
                    profit += p;
                }
            }
            projector.profit(tids.len() as u64, hits, profit)
        };

        let result = if config.prune {
            let cut_tree = CutTree {
                parent: &tree.parent,
                cover: &tree.cover,
            };
            optimal_cut(&cut_tree, eval)
        } else {
            // No pruning: every node kept with its own coverage.
            let node_profit: Vec<f64> = (0..tree.len()).map(|i| eval(i, &tree.cover[i])).collect();
            CutResult {
                retained: vec![true; tree.len()],
                coverage: tree.cover.iter().map(|c| c.len() as u32).collect(),
                total_profit: node_profit.iter().sum(),
                node_profit,
            }
        };
        pm_obs::counter("build.cut_evals").add(evals);
        pm_obs::counter("build.ucf_solved").add(projector.retain_read());

        let interner = mined.interner();
        let rules: Vec<ModelRule> = (0..tree.len())
            .filter(|&i| result.retained[i])
            .map(|i| {
                let r = &tree.rules[i];
                let (item, code) = mined.head(r.head);
                ModelRule {
                    body: r.body.iter().map(|&g| interner.resolve(g)).collect(),
                    item,
                    code,
                    body_count: r.body_count,
                    support_count: r.hits,
                    profit: r.profit,
                    prof_re: r.recommendation_profit(config.profit_mode),
                    confidence: r.confidence(),
                    projected_profit: result.node_profit[i],
                    coverage: result.coverage[i],
                    is_default: r.body.is_empty(),
                }
            })
            .collect();

        let stats = BuildStats {
            mined_rules: mined.rules().len(),
            ranked_rules: tree.n_dominated + tree.len() - 1,
            after_dominance: tree.len(),
            after_cut: rules.len(),
            projected_profit: result.total_profit,
        };

        RuleModel {
            moa: mined.moa().clone(),
            mode: config.profit_mode,
            rules,
            stats,
        }
    }

    /// The surviving rules, highest MPF rank first (default rule last).
    pub fn rules(&self) -> &[ModelRule] {
        &self.rules
    }

    /// Build statistics (rule counts per pipeline stage).
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The profit mode the model was built under.
    pub fn mode(&self) -> ProfitMode {
        self.mode
    }

    /// The `MOA(H)` view (catalog, hierarchy, favorability).
    pub fn moa(&self) -> &Moa {
        &self.moa
    }

    /// The index of the recommendation rule for a customer: the
    /// highest-ranked rule whose body generalizes the customer's sales.
    pub fn recommendation_rule(&self, customer: &[Sale]) -> usize {
        let gs = self.closure(customer);
        self.rules
            .iter()
            .position(|r| r.body.iter().all(|g| gs.contains(g)))
            .expect("the default rule matches every customer")
    }

    /// The customer's generalized-sale closure: every generalization of
    /// every sale.
    fn closure(&self, customer: &[Sale]) -> HashSet<GenSale> {
        let mut gs = HashSet::new();
        let mut buf = Vec::new();
        for s in customer {
            buf.clear();
            self.moa.generalizations_of_sale_into(s, &mut buf);
            gs.extend(buf.iter().copied());
        }
        gs
    }

    /// The recommendation rule `idx` makes: its head pair, the code's
    /// pricing, and the rule's `Prof_re` and confidence.
    pub fn recommendation(&self, idx: usize) -> Recommendation {
        let r = &self.rules[idx];
        Recommendation {
            item: r.item,
            code: r.code,
            promotion: *self.moa.catalog().code(r.item, r.code),
            expected_profit: r.prof_re,
            confidence: r.confidence,
            rule_index: Some(idx),
        }
    }

    /// Snapshot the model for serialization.
    pub fn save(&self) -> SavedModel {
        SavedModel {
            catalog: self.moa.catalog().clone(),
            hierarchy: self.moa.hierarchy().clone(),
            moa_enabled: self.moa.enabled(),
            mode: self.mode,
            rules: self.rules.clone(),
            stats: self.stats,
        }
    }

    /// Restore a model from a snapshot (recomputing the MOA tables).
    pub fn load(saved: SavedModel) -> RuleModel {
        let moa = Moa::from_refs(&saved.catalog, &saved.hierarchy, saved.moa_enabled);
        RuleModel {
            moa,
            mode: saved.mode,
            rules: saved.rules,
            stats: saved.stats,
        }
    }

    /// Up to `k` recommendations of **distinct** `(item, code)` pairs, in
    /// MPF rank order of their best matching rule, among the heads
    /// `target` admits (`None` admits every head). The paper notes that
    /// recommending several pairs per customer is just selecting several
    /// rules (§2, after Definition 4); untargeted, the first entry equals
    /// [`Recommender::recommend`].
    ///
    /// The target applies **during** selection: out-of-target rules are
    /// skipped, never counted against `k`, so the result equals
    /// post-filtering the untargeted walk and keeping the first `k`
    /// pairs. It is empty when no matching rule's head is in the target
    /// (the untargeted walk always has the default rule).
    pub fn recommend_top_k(
        &self,
        customer: &[Sale],
        k: usize,
        target: Option<&TargetFilter>,
    ) -> Vec<Recommendation> {
        let gs = self.closure(customer);
        let matched =
            (0..self.rules.len()).filter(|&i| self.rules[i].body.iter().all(|g| gs.contains(g)));
        self.top_k_of(matched, k, target)
    }

    /// The rank walk behind both top-k paths: the first `k` distinct
    /// in-target head pairs among the `matched` rule indices, which
    /// ascend (rank order).
    fn top_k_of(
        &self,
        matched: impl IntoIterator<Item = usize>,
        k: usize,
        target: Option<&TargetFilter>,
    ) -> Vec<Recommendation> {
        let hierarchy = self.moa.hierarchy();
        let mut seen: HashSet<(ItemId, CodeId)> = HashSet::new();
        let mut out = Vec::new();
        for idx in matched {
            if out.len() >= k {
                break;
            }
            let r = &self.rules[idx];
            if target.is_some_and(|t| !t.matches(hierarchy, r.item, r.code)) {
                continue;
            }
            if seen.insert((r.item, r.code)) {
                out.push(self.recommendation(idx));
            }
        }
        out
    }

    /// Human-readable rendering of rule `idx`, with item names resolved
    /// from the catalog.
    pub fn explain(&self, idx: usize) -> String {
        let r = &self.rules[idx];
        let catalog = self.moa.catalog();
        let gs_name = |g: &GenSale| -> String {
            match g {
                GenSale::Concept(c) => self.moa.hierarchy().concept_name(*c).to_string(),
                GenSale::Item(i) => catalog.item(*i).name.clone(),
                GenSale::ItemCode(i, p) => {
                    format!(
                        "⟨{} @ {}⟩",
                        catalog.item(*i).name,
                        catalog.code(*i, *p).price
                    )
                }
            }
        };
        let body = if r.body.is_empty() {
            "∅ (default)".to_string()
        } else {
            format!(
                "{{{}}}",
                r.body.iter().map(gs_name).collect::<Vec<_>>().join(", ")
            )
        };
        format!(
            "{body} → ⟨{} @ {}⟩  [conf {:.2}, Prof_re {:.4}, support {}, projected {:.2}]",
            catalog.item(r.item).name,
            catalog.code(r.item, r.code).price,
            r.confidence,
            r.prof_re,
            r.support_count,
            r.projected_profit,
        )
    }
}

/// A fast batch matcher over a [`RuleModel`]: rules are indexed by their
/// body elements, and the recommendation rule for a customer is found by
/// posting-list counting instead of scanning the rank order. Use this for
/// evaluation loops; it implements [`Recommender`] and returns exactly
/// what [`RuleModel::recommend`] returns.
#[derive(Debug)]
pub struct Matcher<'a> {
    model: &'a RuleModel,
    postings: std::collections::HashMap<GenSale, Vec<u32>>,
    body_len: Vec<u32>,
    /// Rules with an empty body (they match every customer and never
    /// appear in a posting list) — in practice just the default rule.
    empty_body: Vec<u32>,
    scratch: std::cell::RefCell<MatcherScratch>,
    /// Serving metrics, resolved once at index time so the per-request
    /// path pays one atomic op per signal and no registry lookups.
    latency: pm_obs::LatencyHistogram,
    default_hits: pm_obs::Counter,
    postings_touched: pm_obs::Counter,
}

#[derive(Debug, Default)]
struct MatcherScratch {
    stamp: u32,
    stamp_val: Vec<u32>,
    count: Vec<u32>,
    gs_buf: Vec<GenSale>,
    gs_set: Vec<GenSale>,
    matched: Vec<u32>,
}

impl MatcherScratch {
    /// Load the customer's generalized-sale closure into `gs_set`, each
    /// element once, and open a fresh stamp for the posting counts.
    fn load_closure(&mut self, moa: &Moa, customer: &[Sale]) {
        self.gs_set.clear();
        for sale in customer {
            self.gs_buf.clear();
            moa.generalizations_of_sale_into(sale, &mut self.gs_buf);
            for g in &self.gs_buf {
                if !self.gs_set.contains(g) {
                    self.gs_set.push(*g);
                }
            }
        }
        self.stamp += 1;
    }
}

impl<'a> Matcher<'a> {
    /// Index the model's rules.
    pub fn new(model: &'a RuleModel) -> Self {
        let mut postings: std::collections::HashMap<GenSale, Vec<u32>> =
            std::collections::HashMap::new();
        let mut body_len = Vec::with_capacity(model.rules.len());
        let mut empty_body = Vec::new();
        for (i, r) in model.rules.iter().enumerate() {
            body_len.push(r.body.len() as u32);
            if r.body.is_empty() {
                empty_body.push(i as u32);
            }
            for &g in &r.body {
                postings.entry(g).or_default().push(i as u32);
            }
        }
        let n = model.rules.len();
        Self {
            model,
            postings,
            body_len,
            empty_body,
            scratch: std::cell::RefCell::new(MatcherScratch {
                stamp: 0,
                stamp_val: vec![0; n],
                count: vec![0; n],
                gs_buf: Vec::new(),
                gs_set: Vec::new(),
                matched: Vec::new(),
            }),
            latency: pm_obs::latency("serve.recommend_ns"),
            default_hits: pm_obs::counter("serve.default_rule_hits"),
            postings_touched: pm_obs::counter("serve.postings_touched"),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &RuleModel {
        self.model
    }

    /// Index of the recommendation rule for a customer (same result as
    /// [`RuleModel::recommendation_rule`]).
    pub fn rule_for(&self, customer: &[Sale]) -> usize {
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        s.load_closure(&self.model.moa, customer);
        // The default rule (last, empty body) always matches.
        let mut best = self.model.rules.len() - 1;
        let mut touched = 0u64;
        for g in &s.gs_set {
            if let Some(list) = self.postings.get(g) {
                touched += list.len() as u64;
                for &ri in list {
                    let i = ri as usize;
                    if i >= best {
                        continue;
                    }
                    if s.stamp_val[i] != s.stamp {
                        s.stamp_val[i] = s.stamp;
                        s.count[i] = 0;
                    }
                    s.count[i] += 1;
                    if s.count[i] == self.body_len[i] {
                        best = i;
                    }
                }
            }
        }
        self.postings_touched.add(touched);
        if best == self.model.rules.len() - 1 {
            self.default_hits.inc();
        }
        best
    }

    /// Indexed equivalent of [`RuleModel::recommend_top_k`]: up to `k`
    /// distinct in-target `(item, code)` pairs in MPF rank order. Unlike
    /// [`rule_for`](Matcher::rule_for), which stops counting past the
    /// current best rule, this collects *every* fully-matched rule (the
    /// k-th answer can rank below the first), sorts the matches back
    /// into rank order, and runs the linear scan's own rank walk over
    /// them — so the output is identical element for element.
    pub fn recommend_top_k(
        &self,
        customer: &[Sale],
        k: usize,
        target: Option<&TargetFilter>,
    ) -> Vec<Recommendation> {
        let _timer = self.latency.time();
        if k == 0 {
            return Vec::new();
        }
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        s.load_closure(&self.model.moa, customer);
        s.matched.clear();
        s.matched.extend_from_slice(&self.empty_body);
        let mut touched = 0u64;
        for g in &s.gs_set {
            if let Some(list) = self.postings.get(g) {
                touched += list.len() as u64;
                for &ri in list {
                    let i = ri as usize;
                    if s.stamp_val[i] != s.stamp {
                        s.stamp_val[i] = s.stamp;
                        s.count[i] = 0;
                    }
                    s.count[i] += 1;
                    if s.count[i] == self.body_len[i] {
                        s.matched.push(ri);
                    }
                }
            }
        }
        self.postings_touched.add(touched);
        s.matched.sort_unstable();
        let out = self
            .model
            .top_k_of(s.matched.iter().map(|&ri| ri as usize), k, target);
        if out
            .first()
            .is_some_and(|r| r.rule_index == Some(self.model.rules.len() - 1))
        {
            self.default_hits.inc();
        }
        out
    }
}

impl Recommender for Matcher<'_> {
    fn name(&self) -> String {
        self.model.name()
    }

    fn recommend(&self, customer: &[Sale]) -> Recommendation {
        let _timer = self.latency.time();
        self.model.recommendation(self.rule_for(customer))
    }

    fn n_rules(&self) -> Option<usize> {
        Some(self.model.rules.len())
    }
}

impl Recommender for RuleModel {
    fn name(&self) -> String {
        let mode = match self.mode {
            ProfitMode::Profit => "PROF",
            ProfitMode::Confidence => "CONF",
        };
        let moa = if self.moa.enabled() { "+MOA" } else { "-MOA" };
        format!("{mode}{moa}")
    }

    fn recommend(&self, customer: &[Sale]) -> Recommendation {
        self.recommendation(self.recommendation_rule(customer))
    }

    fn n_rules(&self) -> Option<usize> {
        Some(self.rules.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_rules::{MinerConfig, MoaMode, RuleMiner, Support};
    use pm_txn::{Catalog, Hierarchy, ItemDef, Money, PromotionCode, Transaction, TransactionSet};

    /// 20 transactions with a strong signal: buyers of `a` take the target
    /// at the high price; buyers of `b` take three units at the low price
    /// (so that the b-rule's per-recommendation profit beats the default
    /// rule's — otherwise MPF correctly prefers the default).
    fn dataset() -> TransactionSet {
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            cat.push(ItemDef {
                name: name.into(),
                codes: vec![PromotionCode::unit(
                    Money::from_cents(100),
                    Money::from_cents(50),
                )],
                is_target: false,
            });
        }
        cat.push(ItemDef {
            name: "t".into(),
            codes: vec![
                PromotionCode::unit(Money::from_cents(500), Money::from_cents(300)),
                PromotionCode::unit(Money::from_cents(900), Money::from_cents(300)),
            ],
            is_target: true,
        });
        let h = Hierarchy::flat(3);
        let mut txns = Vec::new();
        for i in 0..20 {
            let (nt, code, qty) = if i % 2 == 0 {
                (Sale::new(ItemId(0), CodeId(0), 1), 1u16, 1) // a ⇒ expensive
            } else {
                (Sale::new(ItemId(1), CodeId(0), 1), 0u16, 3) // b ⇒ 3 × cheap
            };
            txns.push(Transaction::new(
                vec![nt],
                Sale::new(ItemId(2), CodeId(code), qty),
            ));
        }
        TransactionSet::new(cat, h, txns).unwrap()
    }

    fn model(mode: ProfitMode, prune: bool) -> RuleModel {
        let mined = RuleMiner::new(MinerConfig {
            min_support: Support::Count(2),
            moa: MoaMode::Enabled,
            ..MinerConfig::default()
        })
        .mine(&dataset());
        RuleModel::build(
            &mined,
            &CutConfig {
                profit_mode: mode,
                prune,
                ..CutConfig::default()
            },
        )
    }

    #[test]
    fn learns_the_price_signal() {
        let m = model(ProfitMode::Profit, true);
        // Customer buying `a` should be offered the expensive code (its
        // profit $6 dwarfs the cheap code's $2 and `a`-buyers accept it).
        let rec = m.recommend(&[Sale::new(ItemId(0), CodeId(0), 1)]);
        assert_eq!(rec.item, ItemId(2));
        assert_eq!(
            rec.code,
            CodeId(1),
            "{}",
            m.explain(rec.rule_index.unwrap())
        );
        // Customer buying `b` gets the cheap code (Prof_re $6 from the
        // 3-unit purchases) — the expensive one never hits for them.
        let rec = m.recommend(&[Sale::new(ItemId(1), CodeId(0), 1)]);
        assert_eq!(
            rec.code,
            CodeId(0),
            "{}",
            m.explain(rec.rule_index.unwrap())
        );
    }

    #[test]
    fn default_rule_serves_unknown_customers() {
        let m = model(ProfitMode::Profit, true);
        let rec = m.recommend(&[]);
        let idx = rec.rule_index.unwrap();
        assert!(m.rules()[idx].is_default);
        // The default head is the cheap code: under MOA it hits all 20
        // transactions for $2·10 + $6·10 = $80 total, beating the
        // expensive code's 10 hits × $6 = $60.
        assert_eq!(rec.code, CodeId(0));
    }

    #[test]
    fn rules_are_rank_ordered_and_end_with_default() {
        let m = model(ProfitMode::Profit, true);
        let rules = m.rules();
        assert!(rules.last().unwrap().is_default);
        assert_eq!(
            rules.iter().filter(|r| r.is_default).count(),
            1,
            "exactly one default"
        );
        for w in rules.windows(2) {
            assert!(w[0].prof_re >= w[1].prof_re - 1e-12, "Prof_re must descend");
        }
    }

    #[test]
    fn pruning_shrinks_the_model() {
        let pruned = model(ProfitMode::Profit, true);
        let unpruned = model(ProfitMode::Profit, false);
        assert!(pruned.rules().len() <= unpruned.rules().len());
        assert!(pruned.stats().after_cut <= pruned.stats().after_dominance);
        assert!(pruned.stats().after_dominance <= pruned.stats().ranked_rules + 1);
    }

    #[test]
    fn coverage_partitions_training_data() {
        let m = model(ProfitMode::Profit, true);
        let total: u32 = m.rules().iter().map(|r| r.coverage).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn names_follow_paper_convention() {
        assert_eq!(model(ProfitMode::Profit, true).name(), "PROF+MOA");
        assert_eq!(model(ProfitMode::Confidence, true).name(), "CONF+MOA");
    }

    #[test]
    fn explain_renders_names() {
        let m = model(ProfitMode::Profit, true);
        let rec = m.recommend(&[Sale::new(ItemId(0), CodeId(0), 1)]);
        let text = m.explain(rec.rule_index.unwrap());
        assert!(text.contains("→"), "{text}");
        assert!(text.contains('t'), "{text}");
        // The default rule renders with ∅.
        let d = m.rules().len() - 1;
        assert!(m.explain(d).contains('∅'));
    }

    #[test]
    fn matcher_agrees_with_linear_scan() {
        let m = model(ProfitMode::Profit, true);
        let matcher = Matcher::new(&m);
        let customers: Vec<Vec<Sale>> = vec![
            vec![Sale::new(ItemId(0), CodeId(0), 1)],
            vec![Sale::new(ItemId(1), CodeId(0), 1)],
            vec![
                Sale::new(ItemId(0), CodeId(0), 1),
                Sale::new(ItemId(1), CodeId(0), 1),
            ],
            vec![],
        ];
        for c in &customers {
            assert_eq!(matcher.rule_for(c), m.recommendation_rule(c));
            assert_eq!(matcher.recommend(c), m.recommend(c));
        }
        assert_eq!(matcher.name(), m.name());
    }

    #[test]
    fn matcher_best_index_early_exit_is_sound() {
        // Repeated queries must not leak scratch state across calls.
        let m = model(ProfitMode::Profit, true);
        let matcher = Matcher::new(&m);
        let a = vec![Sale::new(ItemId(0), CodeId(0), 1)];
        let b = vec![Sale::new(ItemId(1), CodeId(0), 1)];
        let ra1 = matcher.rule_for(&a);
        let rb = matcher.rule_for(&b);
        let ra2 = matcher.rule_for(&a);
        assert_eq!(ra1, ra2);
        assert_ne!(ra1, rb);
    }

    #[test]
    fn save_load_roundtrip() {
        let m = model(ProfitMode::Profit, true);
        let saved = m.save();
        let json = serde_json::to_string(&saved).unwrap();
        let back = RuleModel::load(serde_json::from_str(&json).unwrap());
        assert_eq!(back.rules(), m.rules());
        assert_eq!(back.name(), m.name());
        let c = vec![Sale::new(ItemId(0), CodeId(0), 1)];
        assert_eq!(back.recommend(&c), m.recommend(&c));
    }

    #[test]
    fn top_k_recommendations() {
        let m = model(ProfitMode::Profit, true);
        let c = vec![Sale::new(ItemId(0), CodeId(0), 1)];
        let top = m.recommend_top_k(&c, 3, None);
        assert!(!top.is_empty() && top.len() <= 3);
        // First equals the single recommendation.
        assert_eq!(top[0], m.recommend(&c));
        // Pairs are distinct and rank order is respected.
        for w in top.windows(2) {
            assert!(w[0].rule_index.unwrap() < w[1].rule_index.unwrap());
            assert_ne!((w[0].item, w[0].code), (w[1].item, w[1].code));
        }
        // k = 0 yields nothing; huge k is bounded by distinct pairs.
        assert!(m.recommend_top_k(&c, 0, None).is_empty());
        let all = m.recommend_top_k(&c, 100, None);
        let mut pairs: Vec<_> = all.iter().map(|r| (r.item, r.code)).collect();
        pairs.dedup();
        assert_eq!(pairs.len(), all.len());
    }

    /// `k` far beyond the distinct `(item, code)` universe: the result is
    /// bounded by the distinct pairs among matching rules, every pair is
    /// unique, and each pair surfaces at its best-ranked rule.
    #[test]
    fn top_k_larger_than_distinct_pair_count() {
        // Unpruned model keeps every surviving rule ⇒ many rules share
        // the same head pair, exercising the dedup on a real skip path.
        let m = model(ProfitMode::Profit, false);
        let c = vec![
            Sale::new(ItemId(0), CodeId(0), 1),
            Sale::new(ItemId(1), CodeId(0), 1),
        ];
        let matching: Vec<usize> = (0..m.rules().len())
            .filter(|&i| {
                let gs: Vec<_> = c
                    .iter()
                    .flat_map(|s| m.moa().generalizations_of_sale(s))
                    .collect();
                m.rules()[i].body.iter().all(|g| gs.contains(g))
            })
            .collect();
        let distinct: HashSet<(ItemId, CodeId)> = matching
            .iter()
            .map(|&i| (m.rules()[i].item, m.rules()[i].code))
            .collect();
        assert!(
            matching.len() > distinct.len(),
            "need duplicate head pairs for this test to bite"
        );
        let all = m.recommend_top_k(&c, 10_000, None);
        assert_eq!(all.len(), distinct.len());
        let got: HashSet<(ItemId, CodeId)> = all.iter().map(|r| (r.item, r.code)).collect();
        assert_eq!(got, distinct);
        // Each pair is reported at the first (best-ranked) rule carrying it.
        for rec in &all {
            let first = matching
                .iter()
                .copied()
                .find(|&i| (m.rules()[i].item, m.rules()[i].code) == (rec.item, rec.code))
                .unwrap();
            assert_eq!(rec.rule_index, Some(first));
        }
    }

    /// The targeted walk equals post-filtering the unbounded untargeted
    /// walk — for both the linear scan and the indexed matcher — and is
    /// empty (no default-rule fallback) when the target admits no head.
    #[test]
    fn targeted_top_k_equals_post_filtering() {
        for prune in [true, false] {
            let m = model(ProfitMode::Profit, prune);
            let matcher = Matcher::new(&m);
            let customers: Vec<Vec<Sale>> = vec![
                vec![Sale::new(ItemId(0), CodeId(0), 1)],
                vec![Sale::new(ItemId(1), CodeId(0), 1)],
                vec![
                    Sale::new(ItemId(0), CodeId(0), 1),
                    Sale::new(ItemId(1), CodeId(0), 1),
                ],
                vec![],
            ];
            let targets = [
                TargetFilter::Items(vec![ItemId(2)]),
                TargetFilter::Codes(vec![CodeId(0)]),
                TargetFilter::Codes(vec![CodeId(1)]),
            ];
            for c in &customers {
                let full = m.recommend_top_k(c, usize::MAX, None);
                for t in &targets {
                    for k in [1usize, 2, 100] {
                        let expect: Vec<Recommendation> = full
                            .iter()
                            .filter(|r| t.matches(m.moa().hierarchy(), r.item, r.code))
                            .take(k)
                            .cloned()
                            .collect();
                        assert_eq!(m.recommend_top_k(c, k, Some(t)), expect);
                        assert_eq!(matcher.recommend_top_k(c, k, Some(t)), expect);
                    }
                }
                // A target admitting nothing yields nothing — the default
                // rule does not leak through the filter.
                let none = TargetFilter::Items(vec![ItemId(0)]);
                assert!(m.recommend_top_k(c, 5, Some(&none)).is_empty());
                assert!(matcher.recommend_top_k(c, 5, Some(&none)).is_empty());
            }
        }
    }

    #[test]
    fn recommendation_carries_promotion_details() {
        let m = model(ProfitMode::Profit, true);
        let rec = m.recommend(&[Sale::new(ItemId(0), CodeId(0), 1)]);
        assert_eq!(rec.promotion.price, Money::from_cents(900));
        assert_eq!(rec.promotion.cost, Money::from_cents(300));
        assert!(rec.confidence > 0.0 && rec.confidence <= 1.0);
    }
}
