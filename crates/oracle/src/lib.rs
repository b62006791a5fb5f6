//! Paper-literal reference implementation of profit mining — the oracle.
//!
//! This crate reimplements the whole pipeline of *"Profit Mining: From
//! Patterns to Actions"* (EDBT 2002) the way the paper describes it, with
//! **no optimizations whatsoever**:
//!
//! * `MOA(H)` is materialized by direct lattice enumeration over the
//!   transactions (§2, Definitions 2–3), with favorability and concept
//!   ancestry recomputed from the raw catalog/hierarchy fields;
//! * candidate rule bodies are enumerated **brute force** — every subset
//!   of generalized sales up to the length cap, with only the paper's
//!   structural "no body element generalizes another" constraint
//!   (Definition 4) and *no* support-based pruning;
//! * support, confidence, `Prof_ru` and `Prof_re` (§3.1) are computed by
//!   rescanning every transaction for every candidate rule, under both
//!   saving and buying MOA;
//! * MPF recommendation (§3.2) materializes the complete ranked rule list
//!   (tie-chain: `Prof_re`, support, body size, generation order) with the
//!   default-rule fallback, and serves a customer by linear scan.
//!
//! The point is **independence**: nothing here depends on `pm-rules` or
//! `pm-core` — only on the `pm-txn` data model (and even there the derived
//! structures `Moa`/`favorable_codes`/`item_ancestors` are deliberately
//! reimplemented from the raw price/packing/parent fields). The
//! differential harness in the workspace `tests/` directory asserts that
//! the optimized stack agrees with this oracle bit for bit; a shared bug
//! would have to be implemented twice, from two different readings of the
//! paper, to slip through.
//!
//! Everything is `O(scary)` by design — keep inputs tiny (≤ a few dozen
//! transactions, ≤ ~10 items, a handful of codes).

#![warn(missing_docs)]
#![deny(unsafe_code)]

use pm_txn::{
    Catalog, CodeId, ConceptId, GenSale, Hierarchy, ItemId, PromotionCode, QuantityModel, Sale,
    TargetFilter, Transaction, TransactionSet,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// Which profit notion drives ranking — an independent mirror of the
/// optimized stack's `ProfitMode`, redefined here so that the oracle does
/// not link against `pm-rules`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OracleProfitMode {
    /// Real generated dollars (`PROF±MOA`).
    #[default]
    Profit,
    /// Binary hit indicator (`CONF±MOA`): `Prof_re` degrades to confidence.
    Confidence,
}

/// Oracle mining parameters.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Minimum support as an absolute transaction count (≥ 1).
    pub min_support_count: u32,
    /// Maximum body length to enumerate.
    pub max_body_len: usize,
    /// Mining-on-availability switch: with `false`, promotion codes only
    /// match exactly (the paper's `−MOA` baselines).
    pub moa: bool,
    /// Saving or buying MOA quantity crediting (§3.1).
    pub quantity: QuantityModel,
    /// Targeted mining: only rules whose head falls inside the filter are
    /// kept, and the default rule restricts its arg-max to in-target heads
    /// (falling back to the unrestricted arg-max when no head qualifies).
    pub target: Option<TargetFilter>,
    /// Scalar minimum `Prof_ru` admission floor (the PR 7 `--min-profit`).
    pub min_rule_profit: Option<f64>,
    /// Per-item minimum `Prof_ru` floors; an item's entry overrides the
    /// scalar floor for heads on that item. A `+∞` floor (per-item or
    /// scalar) puts the heads outside the target, default rule included.
    pub min_profit_per_item: Vec<(ItemId, f64)>,
}

impl OracleConfig {
    /// A config with the given support count and body cap, MOA on, saving
    /// quantities, no target, no profit floors.
    pub fn new(min_support_count: u32, max_body_len: usize) -> Self {
        Self {
            min_support_count,
            max_body_len,
            moa: true,
            quantity: QuantityModel::Saving,
            target: None,
            min_rule_profit: None,
            min_profit_per_item: Vec::new(),
        }
    }
}

/// One oracle rule `{g₁…g_k} → ⟨I, P⟩` with statistics obtained by full
/// rescans. The body is stored as resolved [`GenSale`]s in the oracle's
/// node-id order (which reproduces the optimized interner's first-occurrence
/// order, so resolved bodies compare element-wise across the two stacks).
#[derive(Debug, Clone, PartialEq)]
pub struct OracleRule {
    /// Body: generalized non-target sales, none generalizing another.
    pub body: Vec<GenSale>,
    /// Head target item.
    pub item: ItemId,
    /// Head promotion code.
    pub code: CodeId,
    /// `N` — transactions matched by the body.
    pub body_count: u32,
    /// Matched transactions whose target the head generalizes (= support).
    pub hits: u32,
    /// `Prof_ru` — total generated profit in dollars.
    pub profit: f64,
    /// Generation sequence number (enumeration order); `u32::MAX` for the
    /// default rule.
    pub gen_index: u32,
}

impl OracleRule {
    /// Support count (= hits, Definition 5).
    pub fn support_count(&self) -> u32 {
        self.hits
    }

    /// `Conf = hits / N` (0 when the body matches nothing).
    pub fn confidence(&self) -> f64 {
        if self.body_count == 0 {
            0.0
        } else {
            self.hits as f64 / self.body_count as f64
        }
    }

    /// `Prof_ru` under `mode` — dollars, or the hit count.
    pub fn rule_profit(&self, mode: OracleProfitMode) -> f64 {
        match mode {
            OracleProfitMode::Profit => self.profit,
            OracleProfitMode::Confidence => self.hits as f64,
        }
    }

    /// `Prof_re = Prof_ru / N`.
    pub fn recommendation_profit(&self, mode: OracleProfitMode) -> f64 {
        if self.body_count == 0 {
            0.0
        } else {
            self.rule_profit(mode) / self.body_count as f64
        }
    }

    /// Body length.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }
}

/// Compare two oracle rules by MPF rank (§3.2, Definition 6):
/// larger `Prof_re`, then larger support, then smaller body, then earlier
/// generation. `Ordering::Greater` means `a` ranks higher.
pub fn mpf_cmp(a: &OracleRule, b: &OracleRule, mode: OracleProfitMode) -> Ordering {
    a.recommendation_profit(mode)
        .total_cmp(&b.recommendation_profit(mode))
        .then_with(|| a.support_count().cmp(&b.support_count()))
        .then_with(|| b.body_len().cmp(&a.body_len()))
        .then_with(|| b.gen_index.cmp(&a.gen_index))
}

/// The reference pipeline: built once per dataset + config, it enumerates
/// everything up front and answers ranking/recommendation queries for
/// either profit mode.
#[derive(Debug)]
pub struct Oracle {
    config: OracleConfig,
    catalog: Arc<Catalog>,
    hierarchy: Arc<Hierarchy>,
    txns: Vec<Transaction>,
    /// The `MOA(H)` nodes occurring in ≥ 1 transaction, in first-occurrence
    /// order (Definition 3 enumeration order within a transaction).
    nodes: Vec<GenSale>,
    /// Every admissible head: `(target item, code)` pairs in catalog order.
    heads: Vec<(ItemId, CodeId)>,
    /// Every enumerated candidate rule with ≥ 1 hit, in generation order
    /// (`gen_index` = position). Includes below-minsup rules.
    all_rules: Vec<OracleRule>,
    /// The rules with `hits ≥ min_support_count`, renumbered 0‥ in
    /// generation order — the set the optimized miner must reproduce.
    frequent: Vec<OracleRule>,
    /// Per-head `(hits, profit)` over **all** transactions, for the
    /// default rule.
    head_totals: Vec<(u32, f64)>,
}

impl Oracle {
    /// Run the full reference pipeline over a dataset.
    ///
    /// # Panics
    ///
    /// Panics when the dataset is empty, has no admissible head, or
    /// `min_support_count` is 0 — the optimized stack rejects all three.
    // `!(profit < floor)` must stay spelled exactly like the emitter's
    // `profit < mp → skip` gate: NaN profits are admitted on both sides.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn build(data: &TransactionSet, config: OracleConfig) -> Self {
        assert!(config.min_support_count >= 1, "support count must be ≥ 1");
        assert!(!data.is_empty(), "empty dataset");
        let mut oracle = Self {
            config,
            catalog: data.catalog_arc().clone(),
            hierarchy: data.hierarchy_arc().clone(),
            txns: data.transactions().to_vec(),
            nodes: Vec::new(),
            heads: Vec::new(),
            all_rules: Vec::new(),
            frequent: Vec::new(),
            head_totals: Vec::new(),
        };
        oracle.collect_nodes();
        oracle.collect_heads();
        assert!(!oracle.heads.is_empty(), "no admissible rule head");
        oracle.enumerate_rules();
        // Admission: support, target membership, and the per-head profit
        // floor — the same filters, in the same float comparisons, that
        // the optimized emitter applies at generation time.
        oracle.frequent = oracle
            .all_rules
            .iter()
            .filter(|r| {
                r.hits >= oracle.config.min_support_count
                    && oracle.head_in_target(r.item, r.code)
                    && !(r.profit < oracle.head_floor(r.item))
            })
            .cloned()
            .enumerate()
            .map(|(i, mut r)| {
                r.gen_index = i as u32;
                r
            })
            .collect();
        oracle.head_totals = oracle.compute_head_totals();
        oracle
    }

    /// Does the head `(item, code)` fall inside the target: inside the
    /// configured filter (vacuously true without one) and not under a
    /// `+∞` floor, which excludes the item's heads exactly as a filter
    /// that leaves them out does? A NaN floor excludes nothing.
    pub fn head_in_target(&self, item: ItemId, code: CodeId) -> bool {
        self.head_floor(item) != f64::INFINITY
            && match &self.config.target {
                None => true,
                Some(t) => t.matches(&self.hierarchy, item, code),
            }
    }

    /// The effective `Prof_ru` admission floor for heads on `item`: the
    /// per-item entry when present, else the scalar floor, else `−∞`.
    pub fn head_floor(&self, item: ItemId) -> f64 {
        self.config
            .min_profit_per_item
            .iter()
            .find(|(i, _)| *i == item)
            .map(|&(_, f)| f)
            .or(self.config.min_rule_profit)
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// The enumerated lattice nodes in first-occurrence order.
    pub fn nodes(&self) -> &[GenSale] {
        &self.nodes
    }

    /// The head universe in catalog order.
    pub fn heads(&self) -> &[(ItemId, CodeId)] {
        &self.heads
    }

    /// Every candidate rule with ≥ 1 hit (including below-minsup ones),
    /// in generation order.
    pub fn all_rules(&self) -> &[OracleRule] {
        &self.all_rules
    }

    /// The rules at or above minimum support, `gen_index` renumbered to
    /// match the optimized miner's emission order.
    pub fn frequent_rules(&self) -> &[OracleRule] {
        &self.frequent
    }

    /// Number of transactions.
    pub fn n_transactions(&self) -> usize {
        self.txns.len()
    }

    /// The default rule `∅ → g` (§3.1): over all transactions, the head
    /// maximizing `Prof_re(∅ → g)` under `mode` (last maximal head on
    /// ties, matching the optimized stack's `max_by`). `gen_index` is
    /// `u32::MAX` so it loses every tie-break.
    pub fn default_rule(&self, mode: OracleProfitMode) -> OracleRule {
        let score = |i: usize| match mode {
            OracleProfitMode::Profit => self.head_totals[i].1,
            OracleProfitMode::Confidence => self.head_totals[i].0 as f64,
        };
        // Under a target filter or `+∞` floors the arg-max restricts to
        // in-target heads; when none qualifies it falls back to the full head universe so
        // the default rule (which must always exist) stays well-defined.
        let mut domain: Vec<usize> = (0..self.heads.len())
            .filter(|&h| self.head_in_target(self.heads[h].0, self.heads[h].1))
            .collect();
        if domain.is_empty() {
            domain = (0..self.heads.len()).collect();
        }
        let mut best = domain[0];
        for &h in &domain[1..] {
            if score(h).total_cmp(&score(best)) != Ordering::Less {
                best = h;
            }
        }
        let (item, code) = self.heads[best];
        OracleRule {
            body: Vec::new(),
            item,
            code,
            body_count: self.txns.len() as u32,
            hits: self.head_totals[best].0,
            profit: self.head_totals[best].1,
            gen_index: u32::MAX,
        }
    }

    /// The complete MPF-ranked rule list under `mode`: every frequent rule
    /// plus the default rule, highest rank first.
    pub fn ranked_rules(&self, mode: OracleProfitMode) -> Vec<OracleRule> {
        let mut rules = self.frequent.clone();
        rules.push(self.default_rule(mode));
        rules.sort_by(|a, b| mpf_cmp(b, a, mode));
        rules
    }

    /// Recommend for a customer (their non-target sales): the highest
    /// ranked rule whose body matches, falling back to the default rule
    /// (whose empty body matches everyone).
    pub fn recommend(&self, sales: &[Sale], mode: OracleProfitMode) -> OracleRule {
        self.ranked_rules(mode)
            .into_iter()
            .find(|r| self.body_matches(&r.body, sales))
            .expect("the default rule matches every customer")
    }

    /// Exhaustive top-N assortment reference (PROFSET-flavored): among
    /// the distinct `(item, code)` pairs appearing in the ranked list
    /// (first-occurrence rank order — the §3.2 tie-chain decides the
    /// candidate order), find the size-`min(n, #candidates)` subset `S`
    /// maximizing the joint recommendation profit
    ///
    /// ```text
    /// score(S) = Σ_customers Prof_re(highest-ranked matching rule whose head ∈ S)
    /// ```
    ///
    /// where each training transaction's non-target sales stand in for a
    /// customer and a customer with no matching in-`S` rule contributes 0.
    /// Customers are summed in transaction order and subsets enumerated
    /// in lexicographic candidate-index order, keeping strictly better
    /// scores only — ties resolve to the lexicographically smallest
    /// subset, which the optimized greedy must reproduce on instances
    /// where greedy is exact.
    pub fn assortment(&self, n: usize, mode: OracleProfitMode) -> (Vec<(ItemId, CodeId)>, f64) {
        let ranked = self.ranked_rules(mode);
        let mut cands: Vec<(ItemId, CodeId)> = Vec::new();
        for r in &ranked {
            let pair = (r.item, r.code);
            if !cands.contains(&pair) {
                cands.push(pair);
            }
        }
        // Per customer: the deduped (candidate, Prof_re) menu in rank
        // order. The first menu entry whose candidate is in S is exactly
        // the highest-ranked matching rule with head in S, because dedup
        // keeps the first occurrence per pair.
        let menus: Vec<Vec<(usize, f64)>> = self
            .txns
            .iter()
            .map(|t| {
                let mut menu: Vec<(usize, f64)> = Vec::new();
                for r in &ranked {
                    if !self.body_matches(&r.body, t.non_target_sales()) {
                        continue;
                    }
                    let ci = cands
                        .iter()
                        .position(|&p| p == (r.item, r.code))
                        .expect("every ranked head is a candidate");
                    if !menu.iter().any(|&(c, _)| c == ci) {
                        menu.push((ci, r.recommendation_profit(mode)));
                    }
                }
                menu
            })
            .collect();
        let k = n.min(cands.len());

        fn score_subset(menus: &[Vec<(usize, f64)>], subset: &[usize]) -> f64 {
            let mut total = 0.0;
            for menu in menus {
                if let Some(&(_, p)) = menu.iter().find(|&&(c, _)| subset.contains(&c)) {
                    total += p;
                }
            }
            total
        }

        fn search(
            start: usize,
            n_cands: usize,
            k: usize,
            subset: &mut Vec<usize>,
            menus: &[Vec<(usize, f64)>],
            best: &mut Option<(Vec<usize>, f64)>,
        ) {
            if subset.len() == k {
                let s = score_subset(menus, subset);
                let better = match best {
                    None => true,
                    Some((_, b)) => s.total_cmp(b) == Ordering::Greater,
                };
                if better {
                    *best = Some((subset.clone(), s));
                }
                return;
            }
            for c in start..n_cands {
                if n_cands - c < k - subset.len() {
                    break;
                }
                subset.push(c);
                search(c + 1, n_cands, k, subset, menus, best);
                subset.pop();
            }
        }

        let mut best = None;
        search(0, cands.len(), k, &mut Vec::new(), &menus, &mut best);
        let (subset, score) = best.expect("k ≤ #candidates, so some subset exists");
        (subset.into_iter().map(|ci| cands[ci]).collect(), score)
    }

    /// Does every body element generalize some sale (Definition 3)?
    pub fn body_matches(&self, body: &[GenSale], sales: &[Sale]) -> bool {
        body.iter()
            .all(|&g| sales.iter().any(|s| self.generalizes_sale(g, s)))
    }

    // ------------------------------------------------------------------
    // MOA(H) primitives, recomputed from raw fields every time.
    // ------------------------------------------------------------------

    fn code(&self, item: ItemId, code: CodeId) -> &PromotionCode {
        &self.catalog.item(item).codes[code.index()]
    }

    /// `p ⪯ r` weakly: no worse price, no smaller packing (§2).
    fn weakly_favorable(p: &PromotionCode, r: &PromotionCode) -> bool {
        p.price <= r.price && p.pack_qty >= r.pack_qty
    }

    /// `p ≺ r` strictly: weakly favorable and better on some axis.
    fn strictly_favorable(p: &PromotionCode, r: &PromotionCode) -> bool {
        Self::weakly_favorable(p, r) && (p.price < r.price || p.pack_qty > r.pack_qty)
    }

    /// Transitive concept ancestors of `item`, recomputed by a naive
    /// parent walk, sorted ascending.
    fn item_ancestors(&self, item: ItemId) -> Vec<ConceptId> {
        let mut frontier: Vec<ConceptId> = self.hierarchy.item_parents(item).to_vec();
        self.close_ancestors(&mut frontier)
    }

    /// Transitive concept ancestors of `concept` (excluding itself; the
    /// hierarchy is acyclic), sorted ascending.
    fn concept_ancestors(&self, concept: ConceptId) -> Vec<ConceptId> {
        let mut frontier: Vec<ConceptId> = self.hierarchy.concept_parents(concept).to_vec();
        self.close_ancestors(&mut frontier)
    }

    fn close_ancestors(&self, frontier: &mut Vec<ConceptId>) -> Vec<ConceptId> {
        let mut out: Vec<ConceptId> = Vec::new();
        while let Some(c) = frontier.pop() {
            if !out.contains(&c) {
                out.push(c);
                frontier.extend_from_slice(self.hierarchy.concept_parents(c));
            }
        }
        out.sort();
        out
    }

    /// Does generalized sale `g` generalize the concrete sale `s`
    /// (reflexive on the code axis, Definition 3 (ii))?
    fn generalizes_sale(&self, g: GenSale, s: &Sale) -> bool {
        match g {
            GenSale::Concept(c) => self.item_ancestors(s.item).contains(&c),
            GenSale::Item(i) => i == s.item,
            GenSale::ItemCode(i, p) => {
                i == s.item
                    && if self.config.moa {
                        Self::weakly_favorable(self.code(i, p), self.code(s.item, s.code))
                    } else {
                        p == s.code
                    }
            }
        }
    }

    /// Is `a` a **proper** ancestor of `b` in `MOA(H)`?
    fn strictly_generalizes(&self, a: GenSale, b: GenSale) -> bool {
        match (a, b) {
            (GenSale::Concept(ca), GenSale::Concept(cb)) => {
                self.concept_ancestors(cb).contains(&ca)
            }
            (GenSale::Concept(c), GenSale::Item(i))
            | (GenSale::Concept(c), GenSale::ItemCode(i, _)) => self.item_ancestors(i).contains(&c),
            (GenSale::Item(i), GenSale::ItemCode(j, _)) => i == j,
            (GenSale::ItemCode(i, p), GenSale::ItemCode(j, q)) => {
                self.config.moa
                    && i == j
                    && p != q
                    && Self::strictly_favorable(self.code(i, p), self.code(j, q))
            }
            _ => false,
        }
    }

    /// Either node generalizes the other — bodies may not contain such a
    /// pair (Definition 4).
    fn related(&self, a: GenSale, b: GenSale) -> bool {
        self.strictly_generalizes(a, b) || self.strictly_generalizes(b, a)
    }

    /// The generated profit `p(r, t)` of head `(item, code)` on a target
    /// sale (§3.1), or `None` when the head does not generalize it.
    fn head_profit(&self, item: ItemId, code: CodeId, target: &Sale) -> Option<f64> {
        if item != target.item {
            return None;
        }
        let head = self.code(item, code);
        let rec = self.code(target.item, target.code);
        let accepted = if self.config.moa {
            Self::weakly_favorable(head, rec)
        } else {
            code == target.code
        };
        if !accepted {
            return None;
        }
        let margin = (head.price - head.cost).as_dollars();
        let qty = match self.config.quantity {
            // Saving MOA: same number of base units, fewer dollars.
            QuantityModel::Saving => {
                (target.qty as f64 * rec.pack_qty as f64) / head.pack_qty as f64
            }
            // Buying MOA: same spending, more units — except a free
            // promotion, which keeps the saving quantity.
            QuantityModel::Buying => {
                let spending = rec.price.times(target.qty).as_dollars();
                if head.price.is_zero() {
                    (target.qty as f64 * rec.pack_qty as f64) / head.pack_qty as f64
                } else {
                    spending / head.price.as_dollars()
                }
            }
        };
        Some(margin * qty)
    }

    // ------------------------------------------------------------------
    // Lattice + rule enumeration.
    // ------------------------------------------------------------------

    /// Definition 3 generalizations of one sale, in enumeration order:
    /// favorable codes ascending, the item node, sorted concept ancestors.
    fn generalizations_of_sale(&self, s: &Sale) -> Vec<GenSale> {
        let mut out = Vec::new();
        let rec = self.code(s.item, s.code);
        let n_codes = self.catalog.item(s.item).codes.len();
        for c in 0..n_codes {
            let code = CodeId(c as u16);
            let keep = if self.config.moa {
                Self::weakly_favorable(self.code(s.item, code), rec)
            } else {
                code == s.code
            };
            if keep {
                out.push(GenSale::ItemCode(s.item, code));
            }
        }
        out.push(GenSale::Item(s.item));
        for c in self.item_ancestors(s.item) {
            out.push(GenSale::Concept(c));
        }
        out
    }

    /// Materialize the occurring `MOA(H)` nodes in first-occurrence order
    /// (transactions in order, sales in stored order, Definition 3 order
    /// within a sale) — the same order the optimized interner assigns ids.
    fn collect_nodes(&mut self) {
        let txns = std::mem::take(&mut self.txns);
        for t in &txns {
            for s in t.non_target_sales() {
                for g in self.generalizations_of_sale(s) {
                    if !self.nodes.contains(&g) {
                        self.nodes.push(g);
                    }
                }
            }
        }
        self.txns = txns;
    }

    /// Every `(target item, code)` pair in catalog order.
    fn collect_heads(&mut self) {
        for (item, def) in self.catalog.clone().iter() {
            if def.is_target {
                for c in 0..def.codes.len() {
                    self.heads.push((item, CodeId(c as u16)));
                }
            }
        }
    }

    /// Brute-force body enumeration: all singletons ascending, then for
    /// each anchor an ascending depth-first pre-order over larger node ids
    /// — the lexicographic order over sorted id vectors, which the
    /// optimized miner's frequent-set DFS restricts to. No pruning beyond
    /// the structural Definition 4 constraint and the length cap.
    fn enumerate_rules(&mut self) {
        let m = self.nodes.len();
        let mut rules = Vec::new();
        for i in 0..m {
            self.eval_body(&[i], &mut rules);
        }
        if self.config.max_body_len > 1 {
            let mut body = Vec::new();
            for anchor in 0..m {
                body.clear();
                body.push(anchor);
                self.extend_body(&mut body, anchor + 1, &mut rules);
            }
        }
        self.all_rules = rules;
    }

    fn extend_body(&self, body: &mut Vec<usize>, start: usize, rules: &mut Vec<OracleRule>) {
        if body.len() == self.config.max_body_len {
            return;
        }
        for c in start..self.nodes.len() {
            if body
                .iter()
                .any(|&b| self.related(self.nodes[b], self.nodes[c]))
            {
                continue;
            }
            body.push(c);
            self.eval_body(body, rules);
            self.extend_body(body, c + 1, rules);
            body.pop();
        }
    }

    /// Rescan every transaction for this body, then emit one rule per
    /// head with ≥ 1 hit (heads ascending; profits summed in transaction
    /// order, matching the optimized emitter's accumulation order).
    fn eval_body(&self, body_ids: &[usize], rules: &mut Vec<OracleRule>) {
        let body: Vec<GenSale> = body_ids.iter().map(|&i| self.nodes[i]).collect();
        let matched: Vec<usize> = (0..self.txns.len())
            .filter(|&tid| self.body_matches(&body, self.txns[tid].non_target_sales()))
            .collect();
        if matched.is_empty() {
            return;
        }
        for &(item, code) in &self.heads {
            let mut hits = 0u32;
            let mut profit = 0.0f64;
            for &tid in &matched {
                if let Some(p) = self.head_profit(item, code, self.txns[tid].target_sale()) {
                    hits += 1;
                    profit += p;
                }
            }
            if hits > 0 {
                rules.push(OracleRule {
                    body: body.clone(),
                    item,
                    code,
                    body_count: matched.len() as u32,
                    hits,
                    profit,
                    gen_index: rules.len() as u32,
                });
            }
        }
    }

    /// Per-head `(hits, total profit)` over all transactions, profits
    /// summed in transaction order.
    fn compute_head_totals(&self) -> Vec<(u32, f64)> {
        let mut totals = vec![(0u32, 0.0f64); self.heads.len()];
        for t in &self.txns {
            for (h, &(item, code)) in self.heads.iter().enumerate() {
                if let Some(p) = self.head_profit(item, code, t.target_sale()) {
                    totals[h].0 += 1;
                    totals[h].1 += p;
                }
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_txn::{ItemDef, Money};

    const FC: ItemId = ItemId(0);
    const SODA: ItemId = ItemId(1);
    const SUNCHIP: ItemId = ItemId(2);

    /// Paper-flavoured fixture: two non-target items (FC with 3 codes,
    /// Soda with 1), one target (Sunchip, 2 codes, $2 cost), and a small
    /// Chicken → Meat concept chain over FC.
    fn dataset() -> TransactionSet {
        let mut cat = Catalog::new();
        cat.push(ItemDef {
            name: "FC".into(),
            codes: [300i64, 350, 380]
                .iter()
                .map(|&p| PromotionCode::unit(Money::from_cents(p), Money::from_cents(100)))
                .collect(),
            is_target: false,
        });
        cat.push(ItemDef {
            name: "Soda".into(),
            codes: vec![PromotionCode::unit(
                Money::from_cents(150),
                Money::from_cents(50),
            )],
            is_target: false,
        });
        cat.push(ItemDef {
            name: "Sunchip".into(),
            codes: [380i64, 500]
                .iter()
                .map(|&p| PromotionCode::unit(Money::from_cents(p), Money::from_cents(200)))
                .collect(),
            is_target: true,
        });
        let mut h = Hierarchy::flat(3);
        let meat = h.add_concept("Meat");
        let chicken = h.add_concept("Chicken");
        h.link_concept(chicken, meat).unwrap();
        h.link_item(FC, chicken).unwrap();
        let txns = vec![
            Transaction::new(
                vec![Sale::new(FC, CodeId(2), 1)],
                Sale::new(SUNCHIP, CodeId(1), 2),
            ),
            Transaction::new(
                vec![Sale::new(FC, CodeId(0), 1), Sale::new(SODA, CodeId(0), 1)],
                Sale::new(SUNCHIP, CodeId(0), 1),
            ),
            Transaction::new(
                vec![Sale::new(SODA, CodeId(0), 2)],
                Sale::new(SUNCHIP, CodeId(1), 1),
            ),
        ];
        TransactionSet::new(cat, h, txns).unwrap()
    }

    fn oracle(minsup: u32, moa: bool) -> Oracle {
        Oracle::build(
            &dataset(),
            OracleConfig {
                moa,
                ..OracleConfig::new(minsup, 2)
            },
        )
    }

    #[test]
    fn node_universe_first_occurrence_order() {
        let o = oracle(1, true);
        // Txn 0: FC@$3.8 ⇒ ⟨FC,$3⟩ ⟨FC,$3.5⟩ ⟨FC,$3.8⟩ FC Meat Chicken
        // (concepts sorted ascending: Meat=0, Chicken=1).
        assert_eq!(
            &o.nodes()[..6],
            &[
                GenSale::ItemCode(FC, CodeId(0)),
                GenSale::ItemCode(FC, CodeId(1)),
                GenSale::ItemCode(FC, CodeId(2)),
                GenSale::Item(FC),
                GenSale::Concept(ConceptId(0)),
                GenSale::Concept(ConceptId(1)),
            ]
        );
        // Txn 1 adds only Soda nodes.
        assert_eq!(
            &o.nodes()[6..],
            &[GenSale::ItemCode(SODA, CodeId(0)), GenSale::Item(SODA),]
        );
    }

    #[test]
    fn without_moa_only_exact_codes() {
        let o = oracle(1, false);
        // Txn 0's FC@$3.8 now yields a single item/code node.
        assert_eq!(o.nodes()[0], GenSale::ItemCode(FC, CodeId(2)));
        assert!(!o.nodes().contains(&GenSale::ItemCode(FC, CodeId(1))));
    }

    #[test]
    fn heads_in_catalog_order() {
        let o = oracle(1, true);
        assert_eq!(o.heads(), &[(SUNCHIP, CodeId(0)), (SUNCHIP, CodeId(1))]);
    }

    #[test]
    fn singleton_rule_stats_by_hand() {
        let o = oracle(1, true);
        // Body {⟨FC,$3⟩} matches txns 0 and 1 (favorable to both recorded
        // FC codes). Head ⟨Sunchip,$3.8⟩ generalizes both targets:
        // txn 0: qty 2 × margin $1.8 = 3.6; txn 1: qty 1 × 1.8 = 1.8.
        let r = o
            .frequent_rules()
            .iter()
            .find(|r| r.body == vec![GenSale::ItemCode(FC, CodeId(0))] && r.code == CodeId(0))
            .expect("rule exists");
        assert_eq!(r.body_count, 2);
        assert_eq!(r.hits, 2);
        assert!((r.profit - (3.6 + 1.8)).abs() < 1e-12);
        assert!((r.confidence() - 1.0).abs() < 1e-12);
        assert!((r.recommendation_profit(OracleProfitMode::Profit) - 2.7).abs() < 1e-12);
        // Head ⟨Sunchip,$5⟩ only generalizes txn 0's recorded $5 sale.
        let r5 = o
            .frequent_rules()
            .iter()
            .find(|r| r.body == vec![GenSale::ItemCode(FC, CodeId(0))] && r.code == CodeId(1))
            .expect("rule exists");
        assert_eq!((r5.body_count, r5.hits), (2, 1));
        assert!((r5.profit - 6.0).abs() < 1e-12); // qty 2 × margin $3
    }

    #[test]
    fn minsup_filters_and_renumbers() {
        let all = oracle(1, true);
        let filtered = oracle(2, true);
        assert!(filtered.frequent_rules().len() < all.frequent_rules().len());
        assert!(filtered.frequent_rules().iter().all(|r| r.hits >= 2));
        for (i, r) in filtered.frequent_rules().iter().enumerate() {
            assert_eq!(r.gen_index, i as u32);
        }
        // The filtered set preserves the relative generation order of the
        // unfiltered one.
        let keys = |rules: &[OracleRule]| -> Vec<(Vec<GenSale>, ItemId, CodeId)> {
            rules
                .iter()
                .map(|r| (r.body.clone(), r.item, r.code))
                .collect()
        };
        let all_keys = keys(all.frequent_rules());
        let sub_keys = keys(filtered.frequent_rules());
        let mut pos = 0;
        for k in &sub_keys {
            let at = all_keys[pos..].iter().position(|x| x == k);
            assert!(at.is_some(), "filtered rules appear in order");
            pos += at.unwrap() + 1;
        }
    }

    #[test]
    fn bodies_never_contain_related_pairs() {
        let o = oracle(1, true);
        for r in o.all_rules() {
            for (i, &a) in r.body.iter().enumerate() {
                for &b in &r.body[i + 1..] {
                    assert!(!o.related(a, b), "{a} vs {b} in a body");
                }
            }
        }
        // Sanity: the universe does contain related pairs that the
        // enumeration had to skip.
        assert!(o.related(
            GenSale::ItemCode(FC, CodeId(0)),
            GenSale::ItemCode(FC, CodeId(2))
        ));
        assert!(o.related(GenSale::Concept(ConceptId(0)), GenSale::Item(FC)));
    }

    #[test]
    fn default_rule_maximizes_and_ties_late() {
        let o = oracle(1, true);
        let d = o.default_rule(OracleProfitMode::Profit);
        assert!(d.body.is_empty());
        assert_eq!(d.body_count, 3);
        assert_eq!(d.gen_index, u32::MAX);
        // Head $3.8 generalizes every recorded target sale: profits
        // 2×1.8 + 1.8 + 1.8 = 7.2; head $5 only txns 0 and 2:
        // 2×3 + 1×3 = 9.0 ⇒ head $5 wins on profit.
        assert_eq!(d.code, CodeId(1));
        assert!((d.profit - 9.0).abs() < 1e-12);
        assert_eq!(d.hits, 2);
        // Confidence mode scores by hits: head $3.8 wins 3 vs 2.
        let d = o.default_rule(OracleProfitMode::Confidence);
        assert_eq!(d.code, CodeId(0));
        assert_eq!(d.hits, 3);
    }

    #[test]
    fn ranked_list_is_descending_and_total() {
        for mode in [OracleProfitMode::Profit, OracleProfitMode::Confidence] {
            let o = oracle(1, true);
            let ranked = o.ranked_rules(mode);
            assert_eq!(ranked.len(), o.frequent_rules().len() + 1);
            for w in ranked.windows(2) {
                assert_ne!(mpf_cmp(&w[0], &w[1], mode), Ordering::Less);
            }
        }
    }

    #[test]
    fn recommendation_falls_back_to_default() {
        let o = oracle(1, true);
        // A customer who bought nothing the rules know about.
        let stranger = [];
        let r = o.recommend(&stranger, OracleProfitMode::Profit);
        assert!(r.body.is_empty());
        assert_eq!(r.gen_index, u32::MAX);
        // A customer with FC at the cheapest code matches FC-bodied rules.
        let fc_buyer = [Sale::new(FC, CodeId(0), 1)];
        let r = o.recommend(&fc_buyer, OracleProfitMode::Profit);
        assert!(o.body_matches(&r.body, &fc_buyer));
    }

    #[test]
    fn targeted_ranking_equals_post_filtering() {
        let full = oracle(1, true);
        let targeted = Oracle::build(
            &dataset(),
            OracleConfig {
                target: Some(TargetFilter::Codes(vec![CodeId(0)])),
                ..OracleConfig::new(1, 2)
            },
        );
        // The targeted frequent set is the post-filtered full one, gen
        // indices renumbered.
        let expect: Vec<OracleRule> = full
            .frequent_rules()
            .iter()
            .filter(|r| r.code == CodeId(0))
            .cloned()
            .enumerate()
            .map(|(i, mut r)| {
                r.gen_index = i as u32;
                r
            })
            .collect();
        assert!(!expect.is_empty());
        assert_eq!(targeted.frequent_rules(), expect.as_slice());
        // The default rule restricts its arg-max: code 1 wins the full
        // profit arg-max, code 0 must win the targeted one.
        assert_eq!(full.default_rule(OracleProfitMode::Profit).code, CodeId(1));
        let d = targeted.default_rule(OracleProfitMode::Profit);
        assert_eq!(d.code, CodeId(0));
        assert_eq!(d.gen_index, u32::MAX);
        // An impossible target falls back to the unrestricted arg-max.
        let impossible = Oracle::build(
            &dataset(),
            OracleConfig {
                target: Some(TargetFilter::Items(vec![ItemId(99)])),
                ..OracleConfig::new(1, 2)
            },
        );
        assert!(impossible.frequent_rules().is_empty());
        assert_eq!(
            impossible.default_rule(OracleProfitMode::Profit).code,
            CodeId(1)
        );
    }

    #[test]
    fn subtree_target_follows_hierarchy() {
        // The fixture's targets have no concept ancestors, so a subtree
        // target admits nothing and everything falls back to the default.
        let o = Oracle::build(
            &dataset(),
            OracleConfig {
                target: Some(TargetFilter::Subtree(ConceptId(0))),
                ..OracleConfig::new(1, 2)
            },
        );
        assert!(o.frequent_rules().is_empty());
        let ranked = o.ranked_rules(OracleProfitMode::Profit);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].gen_index, u32::MAX);
    }

    #[test]
    fn per_item_floors_filter_like_the_scalar_floor() {
        // A scalar floor of 5.0 keeps only rules with Prof_ru ≥ 5.
        let scalar = Oracle::build(
            &dataset(),
            OracleConfig {
                min_rule_profit: Some(5.0),
                ..OracleConfig::new(1, 2)
            },
        );
        assert!(!scalar.frequent_rules().is_empty());
        assert!(scalar.frequent_rules().iter().all(|r| r.profit >= 5.0));
        // A per-item entry for Sunchip overrides the scalar floor.
        let per_item = Oracle::build(
            &dataset(),
            OracleConfig {
                min_rule_profit: Some(1e18),
                min_profit_per_item: vec![(SUNCHIP, 5.0)],
                ..OracleConfig::new(1, 2)
            },
        );
        assert_eq!(per_item.frequent_rules(), scalar.frequent_rules());
        // A per-item floor alone behaves the same on that item.
        let alone = Oracle::build(
            &dataset(),
            OracleConfig {
                min_profit_per_item: vec![(SUNCHIP, 5.0)],
                ..OracleConfig::new(1, 2)
            },
        );
        assert_eq!(alone.frequent_rules(), scalar.frequent_rules());
        // A `+∞` floor leaves Sunchip outside the target, like a filter
        // that omits it; a NaN floor excludes nothing.
        let excluded = Oracle::build(
            &dataset(),
            OracleConfig {
                min_profit_per_item: vec![(SUNCHIP, f64::INFINITY)],
                ..OracleConfig::new(1, 2)
            },
        );
        assert!(!excluded.head_in_target(SUNCHIP, CodeId(0)));
        assert!(excluded.frequent_rules().is_empty());
        let nan = Oracle::build(
            &dataset(),
            OracleConfig {
                min_profit_per_item: vec![(SUNCHIP, f64::NAN)],
                ..OracleConfig::new(1, 2)
            },
        );
        assert!(nan.head_in_target(SUNCHIP, CodeId(0)));
        assert_eq!(nan.frequent_rules(), oracle(1, true).frequent_rules());
    }

    #[test]
    fn assortment_exhausts_small_instances() {
        let o = oracle(1, true);
        // With every candidate admitted, the score is the sum of each
        // customer's top-1 recommendation profit.
        let ranked = o.ranked_rules(OracleProfitMode::Profit);
        let n_pairs = {
            let mut pairs: Vec<(ItemId, CodeId)> = Vec::new();
            for r in &ranked {
                if !pairs.contains(&(r.item, r.code)) {
                    pairs.push((r.item, r.code));
                }
            }
            pairs.len()
        };
        let (full_set, full_score) = o.assortment(n_pairs, OracleProfitMode::Profit);
        assert_eq!(full_set.len(), n_pairs);
        let expect: f64 = (0..o.n_transactions())
            .map(|tid| {
                let t = &o.txns[tid];
                o.recommend(t.non_target_sales(), OracleProfitMode::Profit)
                    .recommendation_profit(OracleProfitMode::Profit)
            })
            .sum();
        assert!((full_score - expect).abs() < 1e-12);
        // n = 1 picks the single best pair; its score can only drop.
        let (one, one_score) = o.assortment(1, OracleProfitMode::Profit);
        assert_eq!(one.len(), 1);
        assert!(one_score <= full_score + 1e-12);
        // Oversized n clamps to the candidate count.
        let (clamped, clamped_score) = o.assortment(100, OracleProfitMode::Profit);
        assert_eq!(clamped.len(), n_pairs);
        assert_eq!(clamped_score.to_bits(), full_score.to_bits());
    }

    #[test]
    fn buying_moa_credits_spending_over_price() {
        let o = Oracle::build(
            &dataset(),
            OracleConfig {
                quantity: QuantityModel::Buying,
                ..OracleConfig::new(1, 1)
            },
        );
        // Txn 0 recorded 2 × $5; head $3.8 ⇒ qty 10/3.8, margin 1.8.
        let r = o
            .frequent_rules()
            .iter()
            .find(|r| r.body == vec![GenSale::Item(FC)] && r.code == CodeId(0))
            .expect("rule exists");
        // Txn 0: 1.8 × (10/3.8); txn 1: recorded $3.8 ⇒ qty 3.8/3.8 = 1.
        let expect = 1.8 * (10.0 / 3.8) + 1.8 * 1.0;
        assert!((r.profit - expect).abs() < 1e-12);
    }
}
