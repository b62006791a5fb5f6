//! The `MOA(H)` generalization structure (§2, Definitions 2–3) and the
//! per-transaction profit `p(r, t)` (§3.1).
//!
//! [`Moa`] bundles a catalog and hierarchy with the *mining on
//! availability* switch. With MOA **on**, each item's promotion codes are
//! ordered by favorability and a more favorable code is a "concept" of a
//! less favorable one; with MOA **off** (the paper's `−MOA` baselines)
//! only the plain concept hierarchy `H` generalizes sales and codes must
//! match exactly.
//!
//! `Moa` owns its catalog and hierarchy through [`Arc`]s so that trained
//! recommenders can embed one and stay self-contained; construction
//! precomputes the per-code favorability chains and the per-item concept
//! ancestor sets, making the per-sale operations allocation-light.

use crate::catalog::Catalog;
use crate::gensale::GenSale;
use crate::hierarchy::Hierarchy;
use crate::ids::{CodeId, ConceptId, ItemId};
use crate::sale::Sale;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the purchase quantity is estimated when crediting a rule's head on
/// a transaction whose recorded code was *less* favorable (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum QuantityModel {
    /// **Saving MOA**: the customer keeps the original quantity (in base
    /// units) and saves money. The paper's default.
    #[default]
    Saving,
    /// **Buying MOA**: the customer keeps the original spending and buys
    /// more units.
    Buying,
}

/// The `MOA(H)` view over a catalog and hierarchy.
#[derive(Debug, Clone)]
pub struct Moa {
    catalog: Arc<Catalog>,
    hierarchy: Arc<Hierarchy>,
    enabled: bool,
    /// `favorable[item][code]` = codes `P` with `P ⪯ code` (includes the
    /// code itself). With MOA disabled, just `[code]`.
    favorable: Vec<Vec<Vec<CodeId>>>,
    /// Sorted transitive concept ancestors per item.
    item_anc: Vec<Vec<ConceptId>>,
}

impl Moa {
    /// Build the view. `enabled = false` reproduces the paper's `−MOA`
    /// baselines (exact-code matching).
    pub fn new(catalog: Arc<Catalog>, hierarchy: Arc<Hierarchy>, enabled: bool) -> Self {
        let favorable = catalog
            .iter()
            .map(|(item, def)| {
                (0..def.codes.len())
                    .map(|c| {
                        let c = CodeId(c as u16);
                        if enabled {
                            catalog.favorable_codes(item, c)
                        } else {
                            vec![c]
                        }
                    })
                    .collect()
            })
            .collect();
        let item_anc = (0..catalog.len())
            .map(|i| hierarchy.item_ancestors(ItemId(i as u32)))
            .collect();
        Self {
            catalog,
            hierarchy,
            enabled,
            favorable,
            item_anc,
        }
    }

    /// Convenience constructor that clones borrowed data into `Arc`s.
    pub fn from_refs(catalog: &Catalog, hierarchy: &Hierarchy, enabled: bool) -> Self {
        Self::new(
            Arc::new(catalog.clone()),
            Arc::new(hierarchy.clone()),
            enabled,
        )
    }

    /// Whether MOA generalization is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Codes `P ⪯ code` of `item`, in catalog order.
    pub fn favorable_codes(&self, item: ItemId, code: CodeId) -> &[CodeId] {
        &self.favorable[item.index()][code.index()]
    }

    /// Sorted concept ancestors of `item` (precomputed).
    pub fn item_ancestors(&self, item: ItemId) -> &[ConceptId] {
        &self.item_anc[item.index()]
    }

    /// All generalized sales of a concrete sale, per Definition 3:
    /// `⟨I, P'⟩` for every `P' ⪯ P` (just `⟨I, P⟩` without MOA), the item
    /// node `I`, and every concept ancestor of `I`.
    pub fn generalizations_of_sale(&self, sale: &Sale) -> Vec<GenSale> {
        let mut out = Vec::with_capacity(4);
        self.generalizations_of_sale_into(sale, &mut out);
        out
    }

    /// As [`Self::generalizations_of_sale`], appending into `out`.
    pub fn generalizations_of_sale_into(&self, sale: &Sale, out: &mut Vec<GenSale>) {
        for &p in self.favorable_codes(sale.item, sale.code) {
            out.push(GenSale::ItemCode(sale.item, p));
        }
        out.push(GenSale::Item(sale.item));
        for &c in self.item_ancestors(sale.item) {
            out.push(GenSale::Concept(c));
        }
    }

    /// The admissible rule heads for a transaction's target sale: the
    /// `(item, code)` pairs that generalize it.
    pub fn head_candidates(&self, target: &Sale) -> Vec<(ItemId, CodeId)> {
        self.favorable_codes(target.item, target.code)
            .iter()
            .map(|&p| (target.item, p))
            .collect()
    }

    /// Does generalized sale `g` generalize the concrete sale `s`
    /// (reflexively on the code axis, per Definition 3 (ii))?
    pub fn generalizes_sale(&self, g: GenSale, s: &Sale) -> bool {
        match g {
            GenSale::Concept(c) => self.item_anc[s.item.index()].binary_search(&c).is_ok(),
            GenSale::Item(i) => i == s.item,
            GenSale::ItemCode(i, p) => {
                i == s.item
                    && if self.enabled {
                        self.favorable[i.index()][s.code.index()].contains(&p)
                    } else {
                        p == s.code
                    }
            }
        }
    }

    /// Is `a` a **strict** generalized sale of `b` in `MOA(H)` — i.e. a
    /// proper ancestor? Used for the "no body element generalizes
    /// another" constraint (Definition 4) and for rule dominance.
    pub fn strictly_generalizes(&self, a: GenSale, b: GenSale) -> bool {
        match (a, b) {
            (GenSale::Concept(ca), GenSale::Concept(cb)) => {
                self.hierarchy.is_concept_ancestor(ca, cb)
            }
            (GenSale::Concept(c), GenSale::Item(i))
            | (GenSale::Concept(c), GenSale::ItemCode(i, _)) => {
                self.item_anc[i.index()].binary_search(&c).is_ok()
            }
            (GenSale::Item(i), GenSale::ItemCode(j, _)) => i == j,
            (GenSale::ItemCode(i, p), GenSale::ItemCode(j, q)) => {
                self.enabled
                    && i == j
                    && p != q
                    && self
                        .catalog
                        .code(i, p)
                        .more_favorable_than(self.catalog.code(j, q))
            }
            _ => false,
        }
    }

    /// Does the body `body` (a set of generalized non-target sales) match
    /// the customer `sales` — every body element generalizes *some* sale
    /// (Definition 3)?
    pub fn body_matches(&self, body: &[GenSale], sales: &[Sale]) -> bool {
        body.iter()
            .all(|&g| sales.iter().any(|s| self.generalizes_sale(g, s)))
    }

    /// The estimated purchase quantity (in *packages of the head's code*)
    /// when the head `(item, head_code)` is accepted against a recorded
    /// target sale, under the given quantity model. The recorded packing
    /// converts to base units so that mixed packings are handled; with the
    /// unit packings of the paper's synthetic data this is exactly `Q_t`
    /// (saving) or `P_t·Q_t / P` (buying).
    fn accepted_quantity(
        &self,
        head_item: ItemId,
        head_code: CodeId,
        t: &Sale,
        qm: QuantityModel,
    ) -> f64 {
        let head = self.catalog.code(head_item, head_code);
        let rec = self.catalog.code(t.item, t.code);
        match qm {
            QuantityModel::Saving => {
                // Same number of base units.
                (t.qty as f64 * rec.pack_qty as f64) / head.pack_qty as f64
            }
            QuantityModel::Buying => {
                // Same spending.
                let spending = rec.price.times(t.qty).as_dollars();
                if head.price.is_zero() {
                    // Free promotion: crediting infinite quantity is
                    // meaningless; keep the saving quantity instead.
                    (t.qty as f64 * rec.pack_qty as f64) / head.pack_qty as f64
                } else {
                    spending / head.price.as_dollars()
                }
            }
        }
    }

    /// The generated profit `p(r, t)` of a rule with head
    /// `(head_item, head_code)` on a transaction whose target sale is
    /// `target` (§3.1): `(Price(P) − Cost(P)) × Q` if the head generalizes
    /// the target sale, else `None` (a non-hit, profit 0).
    pub fn head_profit(
        &self,
        head_item: ItemId,
        head_code: CodeId,
        target: &Sale,
        qm: QuantityModel,
    ) -> Option<f64> {
        if head_item != target.item {
            return None;
        }
        let accepted = if self.enabled {
            self.favorable[target.item.index()][target.code.index()].contains(&head_code)
        } else {
            head_code == target.code
        };
        if !accepted {
            return None;
        }
        let margin = self
            .catalog
            .code(head_item, head_code)
            .margin()
            .as_dollars();
        Some(margin * self.accepted_quantity(head_item, head_code, target, qm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ItemDef;
    use crate::code::PromotionCode;
    use crate::money::Money;

    /// Paper Example 2: non-target Flaked_Chicken (FC) with prices $3,
    /// $3.5, $3.8; target Sunchip with prices $3.8, $4.5, $5. Unit packing,
    /// zero cost (costs omitted in the example).
    fn example2() -> (Catalog, Hierarchy) {
        let mut cat = Catalog::new();
        let prices = |ps: &[i64]| {
            ps.iter()
                .map(|&p| PromotionCode::unit(Money::from_cents(p), Money::ZERO))
                .collect::<Vec<_>>()
        };
        cat.push(ItemDef {
            name: "FC".into(),
            codes: prices(&[300, 350, 380]),
            is_target: false,
        });
        cat.push(ItemDef {
            name: "Sunchip".into(),
            codes: prices(&[380, 450, 500]),
            is_target: true,
        });
        let mut h = Hierarchy::flat(2);
        let food = h.add_concept("Food");
        let meat = h.add_concept("Meat");
        let chicken = h.add_concept("Chicken");
        h.link_concept(meat, food).unwrap();
        h.link_concept(chicken, meat).unwrap();
        h.link_item(ItemId(0), chicken).unwrap();
        (cat, h)
    }

    fn moa_of(cat: Catalog, h: Hierarchy, enabled: bool) -> Moa {
        Moa::new(Arc::new(cat), Arc::new(h), enabled)
    }

    const FC: ItemId = ItemId(0);
    const SUNCHIP: ItemId = ItemId(1);

    #[test]
    fn example2_generalized_sales_with_moa() {
        let (cat, h) = example2();
        let moa = moa_of(cat, h, true);
        // Sale of FC at $3.8 is generalized by ⟨FC,$3.8⟩, ⟨FC,$3.5⟩,
        // ⟨FC,$3⟩, FC, Chicken, Meat, Food.
        let g = moa.generalizations_of_sale(&Sale::new(FC, CodeId(2), 1));
        assert_eq!(g.len(), 7);
        assert!(g.contains(&GenSale::ItemCode(FC, CodeId(0))));
        assert!(g.contains(&GenSale::ItemCode(FC, CodeId(1))));
        assert!(g.contains(&GenSale::ItemCode(FC, CodeId(2))));
        assert!(g.contains(&GenSale::Item(FC)));
        // Sale at the lowest price $3 is only generalized by ⟨FC,$3⟩ on
        // the code axis.
        let g = moa.generalizations_of_sale(&Sale::new(FC, CodeId(0), 1));
        assert_eq!(
            g.iter().filter(|x| x.is_item_code()).count(),
            1,
            "cheapest code has no favorable alternative"
        );
    }

    #[test]
    fn example2_without_moa() {
        let (cat, h) = example2();
        let moa = moa_of(cat, h, false);
        let g = moa.generalizations_of_sale(&Sale::new(FC, CodeId(2), 1));
        // Exactly one item/code node (the exact code) plus item + concepts.
        assert_eq!(g.iter().filter(|x| x.is_item_code()).count(), 1);
        assert!(!moa.generalizes_sale(
            GenSale::ItemCode(FC, CodeId(0)),
            &Sale::new(FC, CodeId(2), 1)
        ));
    }

    #[test]
    fn head_candidates_follow_favorability() {
        let (cat, h) = example2();
        let moa = moa_of(cat, h, true);
        // Recorded Sunchip at $5: all three cheaper-or-equal codes apply.
        let heads = moa.head_candidates(&Sale::new(SUNCHIP, CodeId(2), 1));
        assert_eq!(heads.len(), 3);
        // Recorded at $3.8 (cheapest): only itself.
        let heads = moa.head_candidates(&Sale::new(SUNCHIP, CodeId(0), 1));
        assert_eq!(heads, vec![(SUNCHIP, CodeId(0))]);
    }

    #[test]
    fn strict_generalization_relation() {
        let (cat, h) = example2();
        let moa = moa_of(cat, h, true);
        let cheap = GenSale::ItemCode(FC, CodeId(0));
        let dear = GenSale::ItemCode(FC, CodeId(2));
        assert!(moa.strictly_generalizes(cheap, dear));
        assert!(!moa.strictly_generalizes(dear, cheap));
        assert!(!moa.strictly_generalizes(cheap, cheap), "strict");
        assert!(moa.strictly_generalizes(GenSale::Item(FC), dear));
        // Chicken is concept 2 in example2.
        let chicken = GenSale::Concept(crate::ids::ConceptId(2));
        assert!(moa.strictly_generalizes(chicken, GenSale::Item(FC)));
        assert!(moa.strictly_generalizes(chicken, dear));
        assert!(!moa.strictly_generalizes(GenSale::Item(FC), GenSale::Item(FC)));
    }

    #[test]
    fn no_moa_disables_code_generalization_only() {
        let (cat, h) = example2();
        let moa = moa_of(cat, h, false);
        let cheap = GenSale::ItemCode(FC, CodeId(0));
        let dear = GenSale::ItemCode(FC, CodeId(2));
        assert!(!moa.strictly_generalizes(cheap, dear));
        assert!(moa.strictly_generalizes(GenSale::Item(FC), dear));
    }

    #[test]
    fn body_matching() {
        let (cat, h) = example2();
        let moa = moa_of(cat, h, true);
        let sales = [Sale::new(FC, CodeId(2), 1)];
        assert!(moa.body_matches(&[GenSale::ItemCode(FC, CodeId(0))], &sales));
        assert!(moa.body_matches(&[GenSale::Item(FC)], &sales));
        assert!(!moa.body_matches(&[GenSale::ItemCode(SUNCHIP, CodeId(0))], &sales));
        // Empty body matches anything (the default rule).
        assert!(moa.body_matches(&[], &sales));
        assert!(moa.body_matches(&[], &[]));
    }

    #[test]
    fn head_profit_saving_and_buying() {
        let (cat, h) = example2();
        // Rebuild Sunchip with a $2 cost to make margins interesting.
        let mut cat2 = Catalog::new();
        cat2.push(cat.item(FC).clone());
        cat2.push(ItemDef {
            name: "Sunchip".into(),
            codes: [380i64, 450, 500]
                .iter()
                .map(|&p| PromotionCode::unit(Money::from_cents(p), Money::from_cents(200)))
                .collect(),
            is_target: true,
        });
        let moa = moa_of(cat2, h, true);
        // Recorded: 2 Sunchips at $5. Head $4.5:
        let t = Sale::new(SUNCHIP, CodeId(2), 2);
        // Saving: Q = 2, profit = (4.5 − 2) × 2 = 5.
        let p = moa
            .head_profit(SUNCHIP, CodeId(1), &t, QuantityModel::Saving)
            .unwrap();
        assert!((p - 5.0).abs() < 1e-12);
        // Buying: spending 10 at price 4.5 ⇒ Q = 2.222…, profit = 2.5 × Q.
        let p = moa
            .head_profit(SUNCHIP, CodeId(1), &t, QuantityModel::Buying)
            .unwrap();
        assert!((p - 2.5 * (10.0 / 4.5)).abs() < 1e-12);
        // A *higher* price head does not generalize ⇒ None.
        assert!(moa
            .head_profit(
                SUNCHIP,
                CodeId(2),
                &Sale::new(SUNCHIP, CodeId(0), 1),
                QuantityModel::Saving
            )
            .is_none());
        // Wrong item ⇒ None.
        assert!(moa
            .head_profit(FC, CodeId(0), &t, QuantityModel::Saving)
            .is_none());
    }

    #[test]
    fn saving_profit_never_exceeds_recorded_profit_same_cost() {
        // With equal costs across codes (the synthetic setup), saving MOA
        // profit ≤ recorded profit — the reason gain ≤ 1 in Fig 3(a).
        let (cat, h) = example2();
        let moa = moa_of(cat, h, true);
        let t = Sale::new(SUNCHIP, CodeId(2), 3);
        let recorded = moa
            .catalog()
            .code(t.item, t.code)
            .margin()
            .times(t.qty)
            .as_dollars();
        for c in 0..3u16 {
            if let Some(p) = moa.head_profit(SUNCHIP, CodeId(c), &t, QuantityModel::Saving) {
                assert!(p <= recorded + 1e-12);
            }
        }
    }

    #[test]
    fn mixed_packing_quantities() {
        let mut cat = Catalog::new();
        cat.push(ItemDef {
            name: "milk".into(),
            codes: vec![
                PromotionCode::packed(Money::from_cents(320), Money::from_cents(200), 4),
                PromotionCode::packed(Money::from_cents(320), Money::from_cents(200), 8),
            ],
            is_target: true,
        });
        let h = Hierarchy::flat(1);
        let moa = moa_of(cat, h, true);
        // Head = 8-pack (same price, more value ⇒ ⪯ the 4-pack record).
        let t = Sale::new(ItemId(0), CodeId(0), 2); // 8 units recorded
        let p = moa
            .head_profit(ItemId(0), CodeId(1), &t, QuantityModel::Saving)
            .unwrap();
        // 8 units = 1 package of 8 ⇒ profit = margin × 1 = $1.20.
        assert!((p - 1.2).abs() < 1e-12);
    }

    /// The documented buying-MOA free-promotion fallback: a zero-price
    /// head cannot credit `spending / 0` quantity, so `accepted_quantity`
    /// keeps the saving quantity instead.
    #[test]
    fn buying_free_promotion_keeps_saving_quantity() {
        let mut cat = Catalog::new();
        cat.push(ItemDef {
            name: "milk".into(),
            codes: vec![
                PromotionCode::unit(Money::from_cents(200), Money::from_cents(100)),
                // Free promotion: price $0, cost 25¢.
                PromotionCode::unit(Money::ZERO, Money::from_cents(25)),
            ],
            is_target: true,
        });
        let moa = moa_of(cat, Hierarchy::flat(1), true);
        let t = Sale::new(ItemId(0), CodeId(0), 3); // 3 units at $2
        let buying = moa
            .head_profit(ItemId(0), CodeId(1), &t, QuantityModel::Buying)
            .unwrap();
        let saving = moa
            .head_profit(ItemId(0), CodeId(1), &t, QuantityModel::Saving)
            .unwrap();
        // Fallback: Q stays 3 (not spending/0 = ∞), margin = −$0.25.
        assert!((buying - (-0.25 * 3.0)).abs() < 1e-12);
        assert_eq!(buying, saving);
        assert!(buying.is_finite());
    }

    /// Same fallback with `pack_qty > 1` on both the recorded code and
    /// the free head: the quantity converts through base units.
    #[test]
    fn buying_free_promotion_mixed_packing() {
        let mut cat = Catalog::new();
        cat.push(ItemDef {
            name: "milk".into(),
            codes: vec![
                PromotionCode::packed(Money::from_cents(320), Money::from_cents(200), 4),
                // Free 8-pack (price $0 ≤ $3.20, pack 8 ≥ 4 ⇒ favorable).
                PromotionCode::packed(Money::ZERO, Money::from_cents(50), 8),
            ],
            is_target: true,
        });
        let moa = moa_of(cat, Hierarchy::flat(1), true);
        let t = Sale::new(ItemId(0), CodeId(0), 2); // 2 × 4-pack = 8 base units
        let buying = moa
            .head_profit(ItemId(0), CodeId(1), &t, QuantityModel::Buying)
            .unwrap();
        // 8 base units = 1 package of 8; margin = −$0.50 ⇒ profit −0.5.
        assert!((buying - (-0.5)).abs() < 1e-12);
        let saving = moa
            .head_profit(ItemId(0), CodeId(1), &t, QuantityModel::Saving)
            .unwrap();
        assert_eq!(buying, saving);
    }

    #[test]
    fn precomputed_ancestors_match_hierarchy() {
        let (cat, h) = example2();
        let expect = h.item_ancestors(FC);
        let moa = moa_of(cat, h, true);
        assert_eq!(moa.item_ancestors(FC), expect.as_slice());
        assert!(moa.item_ancestors(SUNCHIP).is_empty());
    }
}
