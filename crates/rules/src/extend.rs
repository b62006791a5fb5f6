//! Transaction extension over `MOA(H)`.
//!
//! Each transaction is processed exactly once into:
//!
//! * the sorted set of [`GsId`]s generalizing its non-target sales — the
//!   universe its rule bodies are drawn from;
//! * the list of `(head, profit)` pairs for the heads `⟨I, P⟩` that
//!   generalize its target sale, with `profit = p(r, t)` under the chosen
//!   [`QuantityModel`]. Because `p(r, t)` depends only on the head and the
//!   target sale, this list serves every rule that covers the transaction.

use crate::interner::{GsId, GsInterner};
use crate::tidset::TidSet;
use pm_txn::{CodeId, ItemId, Moa, QuantityModel, TransactionSet};
use serde::{Deserialize, Serialize};

/// Dense identifier of a rule head — an index into
/// [`ExtendedData::heads`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct HeadId(pub u32);

impl HeadId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The extended form of a transaction set, ready for vertical mining.
#[derive(Debug, Clone)]
pub struct ExtendedData {
    /// Interner over every generalized sale that occurs, finalized (with
    /// ancestor lists).
    pub interner: GsInterner,
    /// Per-transaction sorted generalized-sale id sets (non-target side).
    pub txn_gs: Vec<Vec<GsId>>,
    /// The head universe: every `(target item, code)` pair of the catalog.
    pub heads: Vec<(ItemId, CodeId)>,
    /// Per-transaction `(head, p(r,t))` for heads generalizing the target
    /// sale. Sorted by head id.
    pub txn_heads: Vec<Vec<(HeadId, f64)>>,
    /// Per-transaction recorded target profit (dollars) — the gain
    /// denominator.
    pub recorded_profit: Vec<f64>,
    /// Per-transaction maximum attainable margin: the largest positive
    /// part of any head's `p(r, t)` on this transaction (0 when no head
    /// generalizes it). The TWU-style transaction weight of the miner's
    /// profit upper bound: summed over a body's tidset it dominates every
    /// per-head profit sum any descendant body can accumulate, term by
    /// term, so left-to-right f64 summation keeps the dominance at the
    /// bit level (see DESIGN.md §14).
    pub txn_max_margin: Vec<f64>,
    /// Every head profit in `txn_heads` is `≥ 0.0` (in particular, none
    /// is NaN). The common case for real catalogs (prices above cost),
    /// and a fast path for the pruning emitter: positive-part profit
    /// sums then equal the plain profit sums bit for bit, so no separate
    /// accumulator is needed.
    pub nonneg_margins: bool,
}

/// The positive part of a head profit, for upper-bound accumulation.
/// NaN maps to `+∞`: a NaN profit passes every emission threshold (all
/// its comparisons are false), so the bound must never cut it.
#[inline]
pub(crate) fn pos_part(p: f64) -> f64 {
    if p.is_nan() {
        f64::INFINITY
    } else {
        p.max(0.0)
    }
}

impl ExtendedData {
    /// Extend all transactions of `data` under `moa` and the quantity
    /// model `qm`.
    pub fn build(data: &TransactionSet, moa: &Moa, qm: QuantityModel) -> Self {
        let catalog = data.catalog();
        // Head universe: all (target item, code) pairs, in catalog order.
        let mut heads = Vec::new();
        let mut head_index = std::collections::HashMap::<(ItemId, CodeId), HeadId>::new();
        for item in catalog.target_items() {
            for k in 0..catalog.item(item).codes.len() {
                let pair = (item, CodeId(k as u16));
                head_index.insert(pair, HeadId(heads.len() as u32));
                heads.push(pair);
            }
        }

        let mut interner = GsInterner::new();
        let mut txn_gs = Vec::with_capacity(data.len());
        let mut txn_heads = Vec::with_capacity(data.len());
        let mut recorded_profit = Vec::with_capacity(data.len());
        let mut txn_max_margin = Vec::with_capacity(data.len());
        let mut nonneg_margins = true;
        for t in data.transactions() {
            let mut gs: Vec<GsId> = Vec::new();
            for s in t.non_target_sales() {
                for g in moa.generalizations_of_sale(s) {
                    gs.push(interner.intern(g));
                }
            }
            gs.sort_unstable();
            gs.dedup();
            txn_gs.push(gs);

            let target = t.target_sale();
            let mut hs: Vec<(HeadId, f64)> = moa
                .head_candidates(target)
                .into_iter()
                .map(|(item, code)| {
                    let profit = moa
                        .head_profit(item, code, target, qm)
                        .expect("head candidates generalize the target sale");
                    (head_index[&(item, code)], profit)
                })
                .collect();
            hs.sort_by_key(|(h, _)| *h);
            // NaN compares false, so it correctly clears the flag.
            nonneg_margins &= hs.iter().all(|&(_, p)| p >= 0.0);
            txn_max_margin.push(hs.iter().map(|&(_, p)| pos_part(p)).fold(0.0f64, f64::max));
            txn_heads.push(hs);
            recorded_profit.push(target.profit(catalog).as_dollars());
        }
        interner.finalize(moa);
        Self {
            interner,
            txn_gs,
            heads,
            txn_heads,
            recorded_profit,
            txn_max_margin,
            nonneg_margins,
        }
    }

    /// Extend the transactions of `data` from index `from` onward —
    /// the delta path of streaming ingestion. `data` must be the same
    /// dataset this extension was built from with new transactions
    /// appended (and, possibly, its catalog grown append-only); the
    /// first `from` transactions are not re-read.
    ///
    /// Each delta transaction runs the exact per-transaction loop of
    /// [`build`](Self::build), so the result is identical — field for
    /// field, bit for bit in every `f64` — to a cold `build` over the
    /// whole concatenated set: the head universe depends only on the
    /// catalog and is rebuilt here (append-only growth appends heads,
    /// so every existing `HeadId` keeps its meaning), the interner
    /// assigns ids in first-encounter order (appending reproduces the
    /// cold order), and `GsInterner::finalize` recomputes ancestor
    /// lists from scratch, so re-running it after new nodes is
    /// idempotent.
    pub fn extend(&mut self, data: &TransactionSet, moa: &Moa, qm: QuantityModel, from: usize) {
        assert_eq!(
            from,
            self.n_transactions(),
            "delta must start exactly where the extension ends"
        );
        let catalog = data.catalog();
        // Rebuild the head universe from the (possibly grown) catalog —
        // the same loop as `build`. The append-only growth discipline
        // guarantees the old universe is a prefix of the new one.
        let mut heads = Vec::new();
        for item in catalog.target_items() {
            for k in 0..catalog.item(item).codes.len() {
                heads.push((item, CodeId(k as u16)));
            }
        }
        assert!(
            heads.len() >= self.heads.len() && heads[..self.heads.len()] == self.heads[..],
            "catalog growth must append heads, never reorder or drop them"
        );
        self.heads = heads;
        let head_index: std::collections::HashMap<(ItemId, CodeId), HeadId> = self
            .heads
            .iter()
            .enumerate()
            .map(|(i, &pair)| (pair, HeadId(i as u32)))
            .collect();
        for t in &data.transactions()[from..] {
            let mut gs: Vec<GsId> = Vec::new();
            for s in t.non_target_sales() {
                for g in moa.generalizations_of_sale(s) {
                    gs.push(self.interner.intern(g));
                }
            }
            gs.sort_unstable();
            gs.dedup();
            self.txn_gs.push(gs);

            let target = t.target_sale();
            let mut hs: Vec<(HeadId, f64)> = moa
                .head_candidates(target)
                .into_iter()
                .map(|(item, code)| {
                    let profit = moa
                        .head_profit(item, code, target, qm)
                        .expect("head candidates generalize the target sale");
                    (head_index[&(item, code)], profit)
                })
                .collect();
            hs.sort_by_key(|(h, _)| *h);
            self.nonneg_margins &= hs.iter().all(|&(_, p)| p >= 0.0);
            self.txn_max_margin
                .push(hs.iter().map(|&(_, p)| pos_part(p)).fold(0.0f64, f64::max));
            self.txn_heads.push(hs);
            self.recorded_profit
                .push(target.profit(catalog).as_dollars());
        }
        self.interner.finalize(moa);
    }

    /// Number of transactions.
    pub fn n_transactions(&self) -> usize {
        self.txn_gs.len()
    }

    /// Number of distinct generalized sales.
    pub fn n_gs(&self) -> usize {
        self.interner.len()
    }

    /// Number of heads.
    pub fn n_heads(&self) -> usize {
        self.heads.len()
    }

    /// The profit `p(head, t)` on transaction `tid`, or `None` when the
    /// head does not generalize its target sale (a non-hit).
    pub fn head_profit_on(&self, tid: usize, head: HeadId) -> Option<f64> {
        self.txn_heads[tid]
            .binary_search_by_key(&head, |(h, _)| *h)
            .ok()
            .map(|i| self.txn_heads[tid][i].1)
    }

    /// Build the per-generalized-sale tidsets (vertical layout), choosing
    /// each set's representation by density: a counting pass sizes every
    /// set exactly, then a fill pass pushes tids in ascending order — so
    /// rare generalized sales go straight to sorted sparse vectors without
    /// a dense detour.
    pub fn tidsets(&self) -> Vec<TidSet> {
        let n = self.n_transactions();
        let mut counts = vec![0usize; self.n_gs()];
        for gs in &self.txn_gs {
            for g in gs {
                counts[g.index()] += 1;
            }
        }
        let mut sets: Vec<TidSet> = counts.iter().map(|&c| TidSet::for_expected(n, c)).collect();
        for (tid, gs) in self.txn_gs.iter().enumerate() {
            for g in gs {
                sets[g.index()].push(tid);
            }
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_txn::{Catalog, Hierarchy, ItemDef, Money, PromotionCode, Sale, Transaction};

    /// Two non-target items (a: 2 prices, b: 1 price) and one target with
    /// 2 prices.
    fn dataset() -> TransactionSet {
        dataset_with(vec![
            // a@expensive, target@expensive
            Transaction::new(
                vec![Sale::new(ItemId(0), CodeId(1), 1)],
                Sale::new(ItemId(2), CodeId(1), 2),
            ),
            // a@cheap + b, target@cheap
            Transaction::new(
                vec![
                    Sale::new(ItemId(0), CodeId(0), 1),
                    Sale::new(ItemId(1), CodeId(0), 1),
                ],
                Sale::new(ItemId(2), CodeId(0), 1),
            ),
        ])
    }

    fn dataset_with(txns: Vec<Transaction>) -> TransactionSet {
        let mut cat = Catalog::new();
        cat.push(ItemDef {
            name: "a".into(),
            codes: vec![
                PromotionCode::unit(Money::from_cents(100), Money::from_cents(50)),
                PromotionCode::unit(Money::from_cents(120), Money::from_cents(50)),
            ],
            is_target: false,
        });
        cat.push(ItemDef {
            name: "b".into(),
            codes: vec![PromotionCode::unit(
                Money::from_cents(200),
                Money::from_cents(90),
            )],
            is_target: false,
        });
        cat.push(ItemDef {
            name: "t".into(),
            codes: vec![
                PromotionCode::unit(Money::from_cents(500), Money::from_cents(300)),
                PromotionCode::unit(Money::from_cents(600), Money::from_cents(300)),
            ],
            is_target: true,
        });
        let h = Hierarchy::flat(3);
        TransactionSet::new(cat, h, txns).unwrap()
    }

    #[test]
    fn extension_with_moa() {
        let ds = dataset();
        let moa = Moa::new(ds.catalog_arc(), ds.hierarchy_arc(), true);
        let ext = ExtendedData::build(&ds, &moa, QuantityModel::Saving);
        assert_eq!(ext.n_transactions(), 2);
        assert_eq!(ext.n_heads(), 2);
        // Txn 0: a@code1 extends to {⟨a,0⟩, ⟨a,1⟩, a} = 3 nodes.
        assert_eq!(ext.txn_gs[0].len(), 3);
        // Txn 1: a@code0 → {⟨a,0⟩, a}; b@0 → {⟨b,0⟩, b} = 4 nodes.
        assert_eq!(ext.txn_gs[1].len(), 4);
        // Txn 0 target @ code1 (qty 2): both heads generalize.
        assert_eq!(ext.txn_heads[0].len(), 2);
        // Head 0 = (t, code0): margin $2 × qty 2 = $4 (saving).
        let h0 = HeadId(0);
        assert_eq!(ext.head_profit_on(0, h0), Some(4.0));
        // Head 1 = (t, code1): margin $3 × 2 = $6.
        assert_eq!(ext.head_profit_on(0, HeadId(1)), Some(6.0));
        // Txn 1 target @ code0: only head 0 generalizes.
        assert_eq!(ext.txn_heads[1].len(), 1);
        assert_eq!(ext.head_profit_on(1, HeadId(1)), None);
        assert_eq!(ext.head_profit_on(1, h0), Some(2.0));
        // Recorded profits: $3×2 = 6 and $2×1 = 2.
        assert_eq!(ext.recorded_profit, vec![6.0, 2.0]);
        // Max attainable margin per transaction: the largest head profit.
        assert_eq!(ext.txn_max_margin, vec![6.0, 2.0]);
    }

    /// The per-transaction margin bound dominates every head's profit and
    /// is 0 exactly when no head generalizes the target sale.
    #[test]
    fn txn_max_margin_dominates_head_profits() {
        let ds = dataset();
        for moa_on in [true, false] {
            let moa = Moa::new(ds.catalog_arc(), ds.hierarchy_arc(), moa_on);
            for qm in [QuantityModel::Saving, QuantityModel::Buying] {
                let ext = ExtendedData::build(&ds, &moa, qm);
                for (tid, heads) in ext.txn_heads.iter().enumerate() {
                    let ub = ext.txn_max_margin[tid];
                    assert!(heads.iter().all(|&(_, p)| p.max(0.0) <= ub));
                    if heads.is_empty() {
                        assert_eq!(ub, 0.0);
                    } else {
                        assert!(heads.iter().any(|&(_, p)| p.max(0.0) == ub));
                    }
                }
            }
        }
    }

    #[test]
    fn extension_without_moa() {
        let ds = dataset();
        let moa = Moa::new(ds.catalog_arc(), ds.hierarchy_arc(), false);
        let ext = ExtendedData::build(&ds, &moa, QuantityModel::Saving);
        // Txn 0: a@code1 → {⟨a,1⟩, a} only.
        assert_eq!(ext.txn_gs[0].len(), 2);
        // Exact-code head matching: txn 0 recorded at code1 ⇒ only head 1.
        assert_eq!(ext.txn_heads[0].len(), 1);
        assert_eq!(ext.txn_heads[0][0].0, HeadId(1));
    }

    #[test]
    fn buying_quantity_model() {
        let ds = dataset();
        let moa = Moa::new(ds.catalog_arc(), ds.hierarchy_arc(), true);
        let ext = ExtendedData::build(&ds, &moa, QuantityModel::Buying);
        // Txn 0: spent $6×2=$12; head 0 at $5 ⇒ Q = 2.4, profit 2×2.4=4.8.
        let p = ext.head_profit_on(0, HeadId(0)).unwrap();
        assert!((p - 4.8).abs() < 1e-12);
    }

    /// The delta path must reproduce a cold build over the concatenated
    /// data exactly — same interner ids (first-encounter order), same
    /// head lists, and the same bits in every `f64`.
    #[test]
    fn delta_extend_matches_cold_build() {
        let all = vec![
            Transaction::new(
                vec![Sale::new(ItemId(0), CodeId(1), 1)],
                Sale::new(ItemId(2), CodeId(1), 2),
            ),
            Transaction::new(
                vec![
                    Sale::new(ItemId(0), CodeId(0), 1),
                    Sale::new(ItemId(1), CodeId(0), 1),
                ],
                Sale::new(ItemId(2), CodeId(0), 1),
            ),
            // Delta: introduces a brand-new generalized sale (b@0 was
            // seen, but a@1 alongside b exercises new pair contexts) …
            Transaction::new(
                vec![
                    Sale::new(ItemId(1), CodeId(0), 2),
                    Sale::new(ItemId(0), CodeId(1), 1),
                ],
                Sale::new(ItemId(2), CodeId(0), 3),
            ),
            // … and a transaction with no non-target sales at all.
            Transaction::new(vec![], Sale::new(ItemId(2), CodeId(1), 1)),
        ];
        for moa_on in [true, false] {
            for qm in [QuantityModel::Saving, QuantityModel::Buying] {
                let full = dataset_with(all.clone());
                let base = dataset_with(all[..2].to_vec());
                let moa_full = Moa::new(full.catalog_arc(), full.hierarchy_arc(), moa_on);
                let moa_base = Moa::new(base.catalog_arc(), base.hierarchy_arc(), moa_on);
                let cold = ExtendedData::build(&full, &moa_full, qm);
                let mut inc = ExtendedData::build(&base, &moa_base, qm);
                inc.extend(&full, &moa_full, qm, 2);

                assert_eq!(inc.txn_gs, cold.txn_gs);
                assert_eq!(inc.heads, cold.heads);
                assert_eq!(inc.n_gs(), cold.n_gs());
                for i in 0..cold.n_gs() {
                    let id = GsId(i as u32);
                    assert_eq!(inc.interner.resolve(id), cold.interner.resolve(id));
                    assert_eq!(inc.interner.ancestors(id), cold.interner.ancestors(id));
                }
                assert_eq!(inc.txn_heads.len(), cold.txn_heads.len());
                for (a, b) in inc.txn_heads.iter().zip(&cold.txn_heads) {
                    assert_eq!(a.len(), b.len());
                    for (&(h1, p1), &(h2, p2)) in a.iter().zip(b) {
                        assert_eq!(h1, h2);
                        assert_eq!(p1.to_bits(), p2.to_bits(), "head profit bits");
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&inc.recorded_profit), bits(&cold.recorded_profit));
                assert_eq!(bits(&inc.txn_max_margin), bits(&cold.txn_max_margin));
                assert_eq!(inc.nonneg_margins, cold.nonneg_margins);
                // And the vertical layout built from the extended form is
                // structurally identical too.
                assert_eq!(inc.tidsets(), cold.tidsets());
            }
        }
    }

    #[test]
    fn tidsets_match_membership() {
        let ds = dataset();
        let moa = Moa::new(ds.catalog_arc(), ds.hierarchy_arc(), true);
        let ext = ExtendedData::build(&ds, &moa, QuantityModel::Saving);
        let sets = ext.tidsets();
        for (tid, gs) in ext.txn_gs.iter().enumerate() {
            for (g, set) in sets.iter().enumerate() {
                let id = GsId(g as u32);
                assert_eq!(set.contains(tid), gs.contains(&id));
            }
        }
        // ⟨a, code0⟩ occurs in both transactions (MOA generalizes the
        // expensive sale down to the cheap code).
        let a0 = ext
            .interner
            .get(pm_txn::GenSale::ItemCode(ItemId(0), CodeId(0)))
            .unwrap();
        assert_eq!(sets[a0.index()].count(), 2);
        // ⟨b, code0⟩ only in txn 1.
        let b0 = ext
            .interner
            .get(pm_txn::GenSale::ItemCode(ItemId(1), CodeId(0)))
            .unwrap();
        assert_eq!(sets[b0.index()].iter().collect::<Vec<_>>(), vec![1]);
    }
}
