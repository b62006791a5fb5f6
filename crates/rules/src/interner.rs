//! Interning of generalized sales to dense ids, with precomputed ancestor
//! lists.
//!
//! Rule bodies, transaction extensions and dominance checks all operate on
//! dense [`GsId`]s instead of [`GenSale`] values. For every interned node
//! the interner records its **strict ancestors** in `MOA(H)` — the nodes
//! that strictly generalize it — which drives both the Cumulate body
//! constraint (no element generalizing another) and the body-dominance
//! relation of §4.1.
//!
//! Ancestors are derived structurally from the catalog/hierarchy (code
//! favorability chain → item node → concept ancestors), not by pairwise
//! testing, so construction is linear in the number of nodes. A node's
//! ancestor that never occurs in any transaction extension has zero
//! support and cannot appear in a rule, so skipping non-interned ancestors
//! is sound.

use pm_txn::{GenSale, Moa};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Dense identifier of an interned generalized sale.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct GsId(pub u32);

impl GsId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional map between [`GenSale`]s and dense [`GsId`]s.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GsInterner {
    by_sale: HashMap<GenSale, GsId>,
    sales: Vec<GenSale>,
    /// Strict ancestors of each node, as sorted `GsId` lists. Populated by
    /// [`Self::finalize`].
    ancestors: Vec<Vec<GsId>>,
}

impl GsInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a generalized sale (idempotent).
    pub fn intern(&mut self, g: GenSale) -> GsId {
        if let Some(&id) = self.by_sale.get(&g) {
            return id;
        }
        let id = GsId(self.sales.len() as u32);
        self.by_sale.insert(g, id);
        self.sales.push(g);
        id
    }

    /// Look up an already-interned sale.
    pub fn get(&self, g: GenSale) -> Option<GsId> {
        self.by_sale.get(&g).copied()
    }

    /// The sale behind an id.
    pub fn resolve(&self, id: GsId) -> GenSale {
        self.sales[id.0 as usize]
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.sales.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.sales.is_empty()
    }

    /// Compute ancestor lists for all interned nodes. Call once, after all
    /// transactions have been extended (no interning afterwards).
    pub fn finalize(&mut self, moa: &Moa) {
        let hierarchy = moa.hierarchy();
        let catalog = moa.catalog();
        self.ancestors = self
            .sales
            .iter()
            .map(|&g| {
                let mut anc: Vec<GsId> = Vec::new();
                let push = |interner: &Self, g: GenSale, anc: &mut Vec<GsId>| {
                    if let Some(id) = interner.get(g) {
                        anc.push(id);
                    }
                };
                match g {
                    GenSale::Concept(c) => {
                        for a in hierarchy.concept_ancestors(c) {
                            push(self, GenSale::Concept(a), &mut anc);
                        }
                    }
                    GenSale::Item(i) => {
                        for a in hierarchy.item_ancestors(i) {
                            push(self, GenSale::Concept(a), &mut anc);
                        }
                    }
                    GenSale::ItemCode(i, p) => {
                        if moa.enabled() {
                            let mine = catalog.code(i, p);
                            for (k, other) in catalog.item(i).codes.iter().enumerate() {
                                if other.more_favorable_than(mine) {
                                    push(
                                        self,
                                        GenSale::ItemCode(i, pm_txn::CodeId(k as u16)),
                                        &mut anc,
                                    );
                                }
                            }
                        }
                        push(self, GenSale::Item(i), &mut anc);
                        for a in hierarchy.item_ancestors(i) {
                            push(self, GenSale::Concept(a), &mut anc);
                        }
                    }
                }
                anc.sort();
                anc
            })
            .collect();
    }

    /// Strict ancestors of `id` (sorted). Empty before [`Self::finalize`].
    pub fn ancestors(&self, id: GsId) -> &[GsId] {
        &self.ancestors[id.0 as usize]
    }

    /// Is `a` a strict ancestor of `b`?
    pub fn is_ancestor(&self, a: GsId, b: GsId) -> bool {
        self.ancestors(b).binary_search(&a).is_ok()
    }

    /// Are the two nodes related (one strictly generalizes the other)?
    /// Such pairs may not share a rule body (Definition 4).
    pub fn related(&self, a: GsId, b: GsId) -> bool {
        self.is_ancestor(a, b) || self.is_ancestor(b, a)
    }

    /// Does body `general` generalize body `special` (Definition 3 set
    /// matching): every element of `general` equals or is an ancestor of
    /// some element of `special`? The empty body generalizes everything.
    pub fn body_generalizes(&self, general: &[GsId], special: &[GsId]) -> bool {
        general
            .iter()
            .all(|&g| special.iter().any(|&s| g == s || self.is_ancestor(g, s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_txn::{Catalog, CodeId, Hierarchy, ItemDef, ItemId, Money, PromotionCode};

    fn setup() -> (Catalog, Hierarchy) {
        let mut cat = Catalog::new();
        cat.push(ItemDef {
            name: "fc".into(),
            codes: [300i64, 350, 380]
                .iter()
                .map(|&p| PromotionCode::unit(Money::from_cents(p), Money::ZERO))
                .collect(),
            is_target: false,
        });
        cat.push(ItemDef {
            name: "chip".into(),
            codes: vec![PromotionCode::unit(Money::from_cents(450), Money::ZERO)],
            is_target: true,
        });
        let mut h = Hierarchy::flat(2);
        let food = h.add_concept("food");
        let meat = h.add_concept("meat");
        h.link_concept(meat, food).unwrap();
        h.link_item(ItemId(0), meat).unwrap();
        (cat, h)
    }

    fn intern_all(interner: &mut GsInterner, moa: &Moa) -> Vec<GsId> {
        // Intern the full node universe for item 0 plus concepts.
        let mut ids = Vec::new();
        for p in 0..3u16 {
            ids.push(interner.intern(GenSale::ItemCode(ItemId(0), CodeId(p))));
        }
        ids.push(interner.intern(GenSale::Item(ItemId(0))));
        ids.push(interner.intern(GenSale::Concept(pm_txn::ConceptId(0))));
        ids.push(interner.intern(GenSale::Concept(pm_txn::ConceptId(1))));
        interner.finalize(moa);
        ids
    }

    #[test]
    fn intern_is_idempotent() {
        let mut i = GsInterner::new();
        let a = i.intern(GenSale::Item(ItemId(3)));
        let b = i.intern(GenSale::Item(ItemId(3)));
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
        assert_eq!(i.resolve(a), GenSale::Item(ItemId(3)));
    }

    #[test]
    fn ancestors_with_moa() {
        let (cat, h) = setup();
        let moa = Moa::from_refs(&cat, &h, true);
        let mut interner = GsInterner::new();
        let ids = intern_all(&mut interner, &moa);
        let [c300, c350, c380, item, food, meat] = [ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]];
        // ⟨fc,$3.80⟩ ≺-ancestors: $3.50, $3.00; plus item and concepts.
        let anc = interner.ancestors(c380);
        assert!(anc.contains(&c300) && anc.contains(&c350));
        assert!(anc.contains(&item) && anc.contains(&meat) && anc.contains(&food));
        assert_eq!(anc.len(), 5);
        // Cheapest code: no code ancestors.
        let anc = interner.ancestors(c300);
        assert!(!anc.contains(&c350) && !anc.contains(&c380));
        assert_eq!(anc.len(), 3);
        // Item node: concepts only.
        assert_eq!(interner.ancestors(item).len(), 2);
        // meat → food.
        assert_eq!(interner.ancestors(meat), &[food]);
        assert!(interner.ancestors(food).is_empty());
    }

    #[test]
    fn ancestors_without_moa() {
        let (cat, h) = setup();
        let moa = Moa::from_refs(&cat, &h, false);
        let mut interner = GsInterner::new();
        let ids = intern_all(&mut interner, &moa);
        // No cross-code edges without MOA.
        let anc = interner.ancestors(ids[2]); // $3.80
        assert!(!anc.contains(&ids[0]) && !anc.contains(&ids[1]));
        assert_eq!(anc.len(), 3); // item + 2 concepts
    }

    #[test]
    fn relatedness_and_body_generalization() {
        let (cat, h) = setup();
        let moa = Moa::from_refs(&cat, &h, true);
        let mut interner = GsInterner::new();
        let ids = intern_all(&mut interner, &moa);
        let [c300, _c350, c380, item, food, _meat] =
            [ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]];
        assert!(interner.related(c300, c380));
        assert!(interner.related(item, c380));
        // `related(x, x)` is unspecified — relatedness is about pairs —
        // so the self-pair is deliberately not asserted either way.
        let _ = interner.related(food, food);
        assert!(interner.is_ancestor(food, c300));
        assert!(!interner.is_ancestor(c300, food));

        // Body generalization (Definition 3).
        assert!(interner.body_generalizes(&[item], &[c380]));
        assert!(interner.body_generalizes(&[c300], &[c380]));
        assert!(interner.body_generalizes(&[], &[c380]), "empty body");
        assert!(!interner.body_generalizes(&[c380], &[c300]));
        assert!(interner.body_generalizes(&[food], &[c300]));
        // Same body generalizes itself.
        assert!(interner.body_generalizes(&[c300, food], &[c300, food]));
    }
}
