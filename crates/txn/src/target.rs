//! Target filters: head-domain restrictions for targeted mining.
//!
//! A [`TargetFilter`] restricts which rule heads `(item, code)` a mining
//! or serving run is interested in — the TargetUM-style "targeted query"
//! workload. Three predicate shapes cover the practical questions:
//!
//! * **`Items`** — "mine only for these target items";
//! * **`Subtree`** — "mine only for target items below this concept"
//!   (hierarchy-driven category queries);
//! * **`Codes`** — "mine only for these promotion-code classes" (e.g.
//!   only the steepest discount tier, across all items).
//!
//! The filter is a pure predicate on heads. Mining with a filter is
//! defined to be equivalent to mining without it and discarding every
//! rule whose head fails the predicate (gen indices renumbered) — the
//! optimized DFS path in `pm-rules` must reproduce that byte for byte.

use crate::catalog::Catalog;
use crate::hierarchy::Hierarchy;
use crate::ids::{CodeId, ConceptId, ItemId};
use serde::{Deserialize, Serialize};

/// A predicate over rule heads `(item, code)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetFilter {
    /// Heads whose item is one of these.
    Items(Vec<ItemId>),
    /// Heads whose item sits below this concept in the hierarchy.
    Subtree(ConceptId),
    /// Heads whose promotion code is one of these code classes.
    Codes(Vec<CodeId>),
}

impl TargetFilter {
    /// Does the head `(item, code)` fall inside the target?
    pub fn matches(&self, hierarchy: &Hierarchy, item: ItemId, code: CodeId) -> bool {
        match self {
            TargetFilter::Items(items) => items.contains(&item),
            TargetFilter::Subtree(c) => hierarchy.is_item_ancestor(*c, item),
            TargetFilter::Codes(codes) => codes.contains(&code),
        }
    }

    /// Parse a CLI/wire spec:
    ///
    /// * `items:NAME[,NAME...]` — item names (or raw ids) from `catalog`;
    /// * `subtree:CONCEPT` — a concept name (or raw id) from `hierarchy`;
    /// * `codes:K[,K...]` — promotion-code indices.
    ///
    /// Errors are complete human-readable messages suitable for the CLI
    /// and the serve protocol's `"error"` field.
    pub fn parse(spec: &str, catalog: &Catalog, hierarchy: &Hierarchy) -> Result<Self, String> {
        let (kind, rest) = spec.split_once(':').ok_or_else(|| {
            format!("bad target spec {spec:?}: expected items:…, subtree:…, or codes:…")
        })?;
        match kind {
            "items" => {
                let mut items = Vec::new();
                for name in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    let id = catalog
                        .iter()
                        .find(|(_, d)| d.name == name)
                        .map(|(id, _)| id)
                        .or_else(|| {
                            name.parse::<u32>()
                                .ok()
                                .map(ItemId)
                                .filter(|i| i.index() < catalog.len())
                        })
                        .ok_or_else(|| format!("bad target spec: unknown item {name:?}"))?;
                    if !items.contains(&id) {
                        items.push(id);
                    }
                }
                if items.is_empty() {
                    return Err("bad target spec: items: lists no items".into());
                }
                Ok(TargetFilter::Items(items))
            }
            "subtree" => {
                let name = rest.trim();
                let concept = (0..hierarchy.n_concepts() as u32)
                    .map(ConceptId)
                    .find(|c| hierarchy.concept_name(*c) == name)
                    .or_else(|| {
                        name.parse::<u32>()
                            .ok()
                            .map(ConceptId)
                            .filter(|c| c.index() < hierarchy.n_concepts())
                    })
                    .ok_or_else(|| format!("bad target spec: unknown concept {name:?}"))?;
                Ok(TargetFilter::Subtree(concept))
            }
            "codes" => {
                let mut codes = Vec::new();
                for part in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    let k: u16 = part
                        .parse()
                        .map_err(|_| format!("bad target spec: code {part:?} is not an index"))?;
                    let code = CodeId(k);
                    if !codes.contains(&code) {
                        codes.push(code);
                    }
                }
                if codes.is_empty() {
                    return Err("bad target spec: codes: lists no codes".into());
                }
                Ok(TargetFilter::Codes(codes))
            }
            other => Err(format!(
                "bad target spec: unknown kind {other:?} (expected items, subtree, or codes)"
            )),
        }
    }
}

/// Parse a per-item minimum-profit floor spec: `NAME=FLOOR[,NAME=FLOOR...]`
/// where `NAME` is an item name (or raw id) from `catalog` and `FLOOR` a
/// finite dollar amount (`nan` and `inf` are refused). Returns `(item,
/// floor)` pairs in spec order, one entry per item (later entries
/// overwrite earlier ones).
pub fn parse_item_floors(spec: &str, catalog: &Catalog) -> Result<Vec<(ItemId, f64)>, String> {
    let mut floors: Vec<(ItemId, f64)> = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (name, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad floor spec {part:?}: expected NAME=FLOOR"))?;
        let name = name.trim();
        let id = catalog
            .iter()
            .find(|(_, d)| d.name == name)
            .map(|(id, _)| id)
            .or_else(|| {
                name.parse::<u32>()
                    .ok()
                    .map(ItemId)
                    .filter(|i| i.index() < catalog.len())
            })
            .ok_or_else(|| format!("bad floor spec: unknown item {name:?}"))?;
        let floor: f64 = value
            .trim()
            .parse()
            .ok()
            .filter(|f: &f64| f.is_finite())
            .ok_or_else(|| format!("bad floor spec: {value:?} is not a finite number"))?;
        match floors.iter_mut().find(|(i, _)| *i == id) {
            Some(slot) => slot.1 = floor,
            None => floors.push((id, floor)),
        }
    }
    if floors.is_empty() {
        return Err("bad floor spec: no NAME=FLOOR entries".into());
    }
    Ok(floors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ItemDef;
    use crate::code::PromotionCode;
    use crate::money::Money;

    fn fixture() -> (Catalog, Hierarchy) {
        let mut cat = Catalog::new();
        let code = PromotionCode::unit(Money::from_cents(500), Money::from_cents(300));
        for name in ["bread", "snack-a", "snack-b"] {
            cat.push(ItemDef {
                name: name.into(),
                codes: vec![code, code],
                is_target: name != "bread",
            });
        }
        let mut h = Hierarchy::flat(3);
        let snacks = h.add_concept("Snacks");
        h.link_item(ItemId(1), snacks).unwrap();
        h.link_item(ItemId(2), snacks).unwrap();
        (cat, h)
    }

    #[test]
    fn parses_each_kind() {
        let (cat, h) = fixture();
        assert_eq!(
            TargetFilter::parse("items:snack-a,snack-b", &cat, &h).unwrap(),
            TargetFilter::Items(vec![ItemId(1), ItemId(2)])
        );
        assert_eq!(
            TargetFilter::parse("items:2", &cat, &h).unwrap(),
            TargetFilter::Items(vec![ItemId(2)])
        );
        assert_eq!(
            TargetFilter::parse("subtree:Snacks", &cat, &h).unwrap(),
            TargetFilter::Subtree(ConceptId(0))
        );
        assert_eq!(
            TargetFilter::parse("codes:0,1", &cat, &h).unwrap(),
            TargetFilter::Codes(vec![CodeId(0), CodeId(1)])
        );
    }

    #[test]
    fn rejects_bad_specs() {
        let (cat, h) = fixture();
        for spec in [
            "heads",
            "items:",
            "items:unknown",
            "subtree:Nope",
            "codes:",
            "codes:x",
            "frobs:1",
        ] {
            assert!(
                TargetFilter::parse(spec, &cat, &h).is_err(),
                "{spec:?} should be rejected"
            );
        }
    }

    #[test]
    fn matches_each_kind() {
        let (_, h) = fixture();
        let items = TargetFilter::Items(vec![ItemId(1)]);
        assert!(items.matches(&h, ItemId(1), CodeId(0)));
        assert!(!items.matches(&h, ItemId(2), CodeId(0)));

        let subtree = TargetFilter::Subtree(ConceptId(0));
        assert!(subtree.matches(&h, ItemId(1), CodeId(1)));
        assert!(subtree.matches(&h, ItemId(2), CodeId(0)));
        assert!(!subtree.matches(&h, ItemId(0), CodeId(0)));

        let codes = TargetFilter::Codes(vec![CodeId(1)]);
        assert!(codes.matches(&h, ItemId(0), CodeId(1)));
        assert!(!codes.matches(&h, ItemId(0), CodeId(0)));
    }

    #[test]
    fn floors_parse_and_override() {
        let (cat, _) = fixture();
        assert_eq!(
            parse_item_floors("snack-a=1.5,snack-b=-2", &cat).unwrap(),
            vec![(ItemId(1), 1.5), (ItemId(2), -2.0)]
        );
        // Later entries overwrite earlier ones.
        assert_eq!(
            parse_item_floors("snack-a=1,snack-a=3", &cat).unwrap(),
            vec![(ItemId(1), 3.0)]
        );
        assert!(parse_item_floors("", &cat).is_err());
        assert!(parse_item_floors("nope=1", &cat).is_err());
        assert!(parse_item_floors("snack-a", &cat).is_err());
        assert!(parse_item_floors("snack-a=zz", &cat).is_err());
        // Floors must be finite, and the error names the value.
        for value in ["nan", "NaN", "inf", "-inf", "infinity", "1e999"] {
            let err = parse_item_floors(&format!("snack-a=1,snack-b={value}"), &cat).unwrap_err();
            assert!(err.contains(value), "{value}: {err}");
        }
    }
}
