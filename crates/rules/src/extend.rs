//! Transaction extension over `MOA(H)`.
//!
//! Each transaction is processed exactly once into:
//!
//! * the sorted set of [`GsId`]s generalizing its non-target sales — the
//!   universe its rule bodies are drawn from;
//! * a **profile** id naming its target sale. `p(r, t)` under the chosen
//!   [`QuantityModel`] depends only on the head and the target sale, so
//!   every distinct target sale is interned once into a profile: the
//!   **head set** of heads `⟨I, P⟩` that generalize it (interned by the
//!   target's `(item, code)`, so there are at most as many head sets as
//!   heads) and a dense row of `p(r, t)` over its item's codes, `+0.0`
//!   where a code is not accepted. A dataset whose target sales repeat
//!   has a handful of profiles however many transactions it holds.

use crate::interner::{GsId, GsInterner};
use crate::tidset::TidSet;
use pm_txn::{CodeId, ItemId, Moa, QuantityModel, Sale, TransactionSet};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

/// Per-head hit counts and profit sums over every transaction, indexed
/// by [`HeadId`]: the default rule's statistics and the inputs of the
/// default-dominance floor.
#[derive(Debug, Clone, Default)]
pub(crate) struct HeadTotals {
    pub(crate) hits: Vec<u64>,
    pub(crate) profit: Vec<f64>,
}

/// One interned target sale: which heads it hits and what each earns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Profile {
    /// Index into [`ExtendedData::head_sets`].
    pub(crate) head_set: u32,
    /// The [`HeadId`] of the target item's first code; the item's heads
    /// are `first_head .. first_head + n_codes`.
    first_head: u32,
    /// The target item's code count.
    n_codes: u32,
    /// Start of the profile's row in [`ExtendedData::rows`]: `n_codes`
    /// margins, then a `+0.0` that every other head reads.
    row: u32,
    /// The largest positive part of any accepted margin (0 when no head
    /// generalizes the target sale): the TWU-style transaction weight of
    /// the miner's profit upper bound. Summed over a body's tidset it
    /// dominates every per-head profit sum any descendant body can
    /// accumulate, term by term, so left-to-right f64 summation keeps the
    /// dominance at the bit level (see DESIGN.md §14).
    pub(crate) max_margin: f64,
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
    /// Per-transaction profile id, in first-encounter order of target
    /// sales.
    pub(crate) txn_profile: Vec<u32>,
    /// Interned target sales, by profile id.
    pub(crate) profiles: Vec<Profile>,
    /// Profile rows, back to back (see [`Profile::row`]).
    rows: Vec<f64>,
    /// Interned head sets, heads ascending.
    pub(crate) head_sets: Vec<Vec<HeadId>>,
    profile_ids: HashMap<Sale, u32>,
    head_set_ids: HashMap<(ItemId, CodeId), u32>,
    /// Every accepted margin is `≥ 0.0` (in particular, none is NaN).
    /// The common case for real catalogs (prices above cost), and a fast
    /// path for the pruning emitter: positive-part profit sums then
    /// equal the plain profit sums bit for bit, so no separate
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
        let mut ext = Self {
            interner: GsInterner::new(),
            txn_gs: Vec::with_capacity(data.len()),
            heads: Vec::new(),
            txn_profile: Vec::with_capacity(data.len()),
            profiles: Vec::new(),
            rows: Vec::new(),
            head_sets: Vec::new(),
            profile_ids: HashMap::new(),
            head_set_ids: HashMap::new(),
            nonneg_margins: true,
        };
        ext.extend(data, moa, qm, 0);
        ext
    }

    /// Extend the transactions of `data` from index `from` onward —
    /// the delta path of streaming ingestion. `data` must be the same
    /// dataset this extension was built from with new transactions
    /// appended (and, possibly, its catalog grown append-only); the
    /// first `from` transactions are not re-read.
    ///
    /// [`build`](Self::build) is this call on an empty extension, so the
    /// result is identical — field for field, bit for bit in every `f64`
    /// — to a cold `build` over the whole concatenated set: the head
    /// universe depends only on the catalog and is rebuilt here
    /// (append-only growth appends heads, so every existing `HeadId`
    /// keeps its meaning), the interner and the profile and head-set
    /// tables assign ids in first-encounter order (appending reproduces
    /// the cold order), a profile depends only on its target sale and
    /// the catalog's existing items, which growth never changes, and
    /// `GsInterner::finalize` recomputes ancestor lists from scratch, so
    /// re-running it after new nodes is idempotent.
    pub fn extend(&mut self, data: &TransactionSet, moa: &Moa, qm: QuantityModel, from: usize) {
        assert_eq!(
            from,
            self.n_transactions(),
            "delta must start exactly where the extension ends"
        );
        let catalog = data.catalog();
        // Head universe: all (target item, code) pairs, in catalog order.
        // The append-only growth discipline guarantees the old universe
        // is a prefix of the new one.
        let mut heads = Vec::new();
        let mut first_head = HashMap::new();
        for item in catalog.target_items() {
            first_head.insert(item, heads.len() as u32);
            for k in 0..catalog.item(item).codes.len() {
                heads.push((item, CodeId(k as u16)));
            }
        }
        assert!(
            heads.len() >= self.heads.len() && heads[..self.heads.len()] == self.heads[..],
            "catalog growth must append heads, never reorder or drop them"
        );
        self.heads = heads;
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

            let target = *t.target_sale();
            let profile = match self.profile_ids.get(&target) {
                Some(&p) => p,
                None => self.intern_profile(target, moa, qm, first_head[&target.item]),
            };
            self.txn_profile.push(profile);
        }
        self.interner.finalize(moa);
    }

    /// Intern a target sale not seen before: its head set (interned by
    /// `(item, code)`) and its row of `p(r, t)`.
    fn intern_profile(&mut self, target: Sale, moa: &Moa, qm: QuantityModel, first: u32) -> u32 {
        let head_set = *self
            .head_set_ids
            .entry((target.item, target.code))
            .or_insert_with(|| {
                let mut hs: Vec<HeadId> = moa
                    .head_candidates(&target)
                    .into_iter()
                    .map(|(_, code)| HeadId(first + code.0 as u32))
                    .collect();
                hs.sort_unstable();
                self.head_sets.push(hs);
                (self.head_sets.len() - 1) as u32
            });
        let n_codes = moa.catalog().item(target.item).codes.len();
        let row = self.rows.len();
        self.rows.resize(row + n_codes + 1, 0.0);
        for &h in &self.head_sets[head_set as usize] {
            let (item, code) = self.heads[h.index()];
            self.rows[row + code.index()] = moa
                .head_profit(item, code, &target, qm)
                .expect("head candidates generalize the target sale");
        }
        self.profiles.push(Profile {
            head_set,
            first_head: first,
            n_codes: n_codes as u32,
            row: u32::try_from(row).expect("profile rows are addressed by u32 offsets"),
            max_margin: 0.0,
        });
        let id = (self.profiles.len() - 1) as u32;
        self.seal(id);
        self.profile_ids.insert(target, id);
        id
    }

    /// Derive a profile's `max_margin` from its row, and fold its
    /// margins into `nonneg_margins`.
    fn seal(&mut self, profile: u32) {
        let set = self.profiles[profile as usize].head_set as usize;
        let margins = self.head_sets[set].iter().map(|&h| self.margin(profile, h));
        // NaN compares false, so it correctly clears the flag.
        let nonneg = margins.clone().all(|p| p >= 0.0);
        let max_margin = margins.map(pos_part).fold(0.0f64, f64::max);
        self.nonneg_margins &= nonneg;
        self.profiles[profile as usize].max_margin = max_margin;
    }

    /// Overwrite every accepted margin with `margin(profile, head)` —
    /// values no catalog produces (NaN, ±∞) included — and re-derive the
    /// bounds.
    #[cfg(test)]
    pub(crate) fn set_margins(&mut self, mut margin: impl FnMut(u32, HeadId) -> f64) {
        self.nonneg_margins = true;
        for profile in 0..self.profiles.len() as u32 {
            let p = self.profiles[profile as usize];
            for &h in &self.head_sets[p.head_set as usize] {
                self.rows[(p.row + h.0 - p.first_head) as usize] = margin(profile, h);
            }
            self.seal(profile);
        }
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

    /// `p(head, t)` for every transaction `t` of `profile`, or `+0.0`
    /// when the head does not generalize its target sale. Branch-free:
    /// a head of another item lands, wrapped or past the item's codes,
    /// on the row's trailing `+0.0`.
    #[inline]
    pub(crate) fn margin(&self, profile: u32, head: HeadId) -> f64 {
        let p = &self.profiles[profile as usize];
        let code = head.0.wrapping_sub(p.first_head).min(p.n_codes);
        self.rows[p.row as usize + code as usize]
    }

    /// The profit `p(head, t)` on transaction `tid`, or `None` when the
    /// head does not generalize its target sale (a non-hit).
    pub fn head_profit_on(&self, tid: usize, head: HeadId) -> Option<f64> {
        let profile = self.txn_profile[tid];
        self.head_sets[self.profiles[profile as usize].head_set as usize]
            .binary_search(&head)
            .ok()
            .map(|_| self.margin(profile, head))
    }

    /// Add every transaction from `from` on to `totals`, in tid order —
    /// the same left-to-right `f64` summation sequence whether the
    /// totals are built in one pass or patched delta by delta. Heads
    /// new since the last call start at zero: earlier transactions
    /// cannot hit a head that did not exist when they were recorded.
    pub(crate) fn add_head_totals(&self, from: usize, totals: &mut HeadTotals) {
        totals.hits.resize(self.n_heads(), 0);
        totals.profit.resize(self.n_heads(), 0.0);
        for &profile in &self.txn_profile[from..] {
            let p = &self.profiles[profile as usize];
            for &h in &self.head_sets[p.head_set as usize] {
                totals.hits[h.index()] += 1;
                totals.profit[h.index()] += self.margin(profile, h);
            }
        }
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

    /// Transaction `tid`'s `(head, p(r, t))` list, heads ascending.
    fn heads_of(ext: &ExtendedData, tid: usize) -> Vec<(HeadId, f64)> {
        let profile = ext.txn_profile[tid];
        ext.head_sets[ext.profiles[profile as usize].head_set as usize]
            .iter()
            .map(|&h| (h, ext.margin(profile, h)))
            .collect()
    }

    fn max_margin_of(ext: &ExtendedData, tid: usize) -> f64 {
        ext.profiles[ext.txn_profile[tid] as usize].max_margin
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
        assert_eq!(heads_of(&ext, 0).len(), 2);
        // Head 0 = (t, code0): margin $2 × qty 2 = $4 (saving).
        let h0 = HeadId(0);
        assert_eq!(ext.head_profit_on(0, h0), Some(4.0));
        // Head 1 = (t, code1): margin $3 × 2 = $6.
        assert_eq!(ext.head_profit_on(0, HeadId(1)), Some(6.0));
        // Txn 1 target @ code0: only head 0 generalizes.
        assert_eq!(heads_of(&ext, 1).len(), 1);
        assert_eq!(ext.head_profit_on(1, HeadId(1)), None);
        assert_eq!(ext.head_profit_on(1, h0), Some(2.0));
        // Max attainable margin per transaction: the largest head profit.
        assert_eq!([max_margin_of(&ext, 0), max_margin_of(&ext, 1)], [6.0, 2.0]);
    }

    /// The per-profile margin bound dominates every head's profit and
    /// is 0 exactly when no head generalizes the target sale.
    #[test]
    fn max_margin_dominates_head_profits() {
        let ds = dataset();
        for moa_on in [true, false] {
            let moa = Moa::new(ds.catalog_arc(), ds.hierarchy_arc(), moa_on);
            for qm in [QuantityModel::Saving, QuantityModel::Buying] {
                let ext = ExtendedData::build(&ds, &moa, qm);
                for tid in 0..ext.n_transactions() {
                    let heads = heads_of(&ext, tid);
                    let ub = max_margin_of(&ext, tid);
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
        assert_eq!(heads_of(&ext, 0), vec![(HeadId(1), 6.0)]);
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

    /// Profiles are interned by target sale and head sets by its
    /// `(item, code)`: a repeated target sale shares its profile, a new
    /// quantity gets its own profile but the same head set, and the
    /// branch-free lookup reads `+0.0` for every head outside a profile's
    /// head set — a rejected code of the same item, or any code of an
    /// item with more or fewer codes.
    #[test]
    fn profiles_intern_target_sales_and_read_zero_outside_their_heads() {
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
                    .map(|p| PromotionCode::unit(Money::from_cents(p), Money::from_cents(200)))
                    .collect(),
                is_target: true,
            });
        }
        let (t, u) = (ItemId(1), ItemId(2));
        let a = vec![Sale::new(ItemId(0), CodeId(0), 1)];
        let targets = [
            Sale::new(t, CodeId(1), 1),
            Sale::new(u, CodeId(2), 1),
            Sale::new(t, CodeId(1), 1),
            Sale::new(t, CodeId(1), 3),
            Sale::new(u, CodeId(0), 2),
            Sale::new(t, CodeId(0), 1),
        ];
        let txns = targets
            .iter()
            .map(|&s| Transaction::new(a.clone(), s))
            .collect();
        let ds = TransactionSet::new(cat, Hierarchy::flat(3), txns).unwrap();
        for moa_on in [true, false] {
            let moa = Moa::new(ds.catalog_arc(), ds.hierarchy_arc(), moa_on);
            for qm in [QuantityModel::Saving, QuantityModel::Buying] {
                let ext = ExtendedData::build(&ds, &moa, qm);
                assert_eq!(ext.txn_profile, vec![0, 1, 0, 2, 3, 4]);
                let sets: Vec<u32> = ext.profiles.iter().map(|p| p.head_set).collect();
                assert_eq!(sets, vec![0, 1, 0, 2, 3]);
                assert_eq!(ext.n_heads(), 5);
                for (tid, target) in targets.iter().enumerate() {
                    for (h, &(item, code)) in ext.heads.iter().enumerate() {
                        let h = HeadId(h as u32);
                        let expect = moa.head_profit(item, code, target, qm);
                        assert_eq!(ext.head_profit_on(tid, h), expect, "tid {tid} head {h:?}");
                        let read = ext.margin(ext.txn_profile[tid], h);
                        assert_eq!(read.to_bits(), expect.unwrap_or(0.0).to_bits());
                    }
                }
            }
        }
    }

    /// The delta path must reproduce a cold build over the concatenated
    /// data exactly — same interner ids (first-encounter order), same
    /// profiles and head sets, and the same bits in every `f64`.
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
                assert_eq!(inc.txn_profile, cold.txn_profile);
                assert_eq!(inc.head_sets, cold.head_sets);
                let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&inc.rows), bits(&cold.rows));
                let shape = |e: &ExtendedData| {
                    e.profiles
                        .iter()
                        .map(|p| (p.head_set, p.first_head, p.n_codes, p.row))
                        .collect::<Vec<_>>()
                };
                assert_eq!(shape(&inc), shape(&cold));
                let maxes = |e: &ExtendedData| {
                    e.profiles
                        .iter()
                        .map(|p| p.max_margin.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(maxes(&inc), maxes(&cold));
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
