//! The concept hierarchy `H` (§2): a rooted DAG whose leaves are items and
//! whose internal nodes are concepts.
//!
//! The root `ANY` is implicit: concepts (and items) with no declared
//! parents hang directly below it. Target items must be immediate children
//! of `ANY` — the paper does not recommend concepts, only concrete items —
//! which the dataset validator enforces.

use crate::error::TxnError;
use crate::ids::{ConceptId, ItemId};
use serde::{Deserialize, Serialize};

/// A concept hierarchy over `n_items` items and any number of concepts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hierarchy {
    n_items: usize,
    concept_names: Vec<String>,
    /// Direct concept parents of each item.
    item_parents: Vec<Vec<ConceptId>>,
    /// Direct concept parents of each concept.
    concept_parents: Vec<Vec<ConceptId>>,
}

impl Hierarchy {
    /// A flat hierarchy: every item directly below `ANY`, no concepts.
    pub fn flat(n_items: usize) -> Self {
        Self {
            n_items,
            concept_names: Vec::new(),
            item_parents: vec![Vec::new(); n_items],
            concept_parents: Vec::new(),
        }
    }

    /// Number of items the hierarchy covers.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of concepts.
    pub fn n_concepts(&self) -> usize {
        self.concept_names.len()
    }

    /// The name of a concept.
    pub fn concept_name(&self, c: ConceptId) -> &str {
        &self.concept_names[c.index()]
    }

    /// Extend coverage by `additional` items, each starting with no
    /// concept parents (directly below `ANY`). The catalog-growth path:
    /// existing items' parents are untouched, so their ancestor sets —
    /// and everything derived from them — are exactly what they were.
    pub fn grow_items(&mut self, additional: usize) {
        self.n_items += additional;
        self.item_parents
            .extend(std::iter::repeat_with(Vec::new).take(additional));
    }

    /// Add a concept, returning its id.
    pub fn add_concept(&mut self, name: impl Into<String>) -> ConceptId {
        let id = ConceptId(self.concept_names.len() as u32);
        self.concept_names.push(name.into());
        self.concept_parents.push(Vec::new());
        id
    }

    /// Declare `concept` a direct parent of `item`.
    pub fn link_item(&mut self, item: ItemId, concept: ConceptId) -> Result<(), TxnError> {
        if item.index() >= self.n_items {
            return Err(TxnError::UnknownItem(item));
        }
        if concept.index() >= self.concept_names.len() {
            return Err(TxnError::UnknownConcept(concept));
        }
        let parents = &mut self.item_parents[item.index()];
        if !parents.contains(&concept) {
            parents.push(concept);
        }
        Ok(())
    }

    /// Declare `parent` a direct parent of `child` (both concepts).
    pub fn link_concept(&mut self, child: ConceptId, parent: ConceptId) -> Result<(), TxnError> {
        for c in [child, parent] {
            if c.index() >= self.concept_names.len() {
                return Err(TxnError::UnknownConcept(c));
            }
        }
        let parents = &mut self.concept_parents[child.index()];
        if !parents.contains(&parent) {
            parents.push(parent);
        }
        Ok(())
    }

    /// Direct concept parents of an item.
    pub fn item_parents(&self, item: ItemId) -> &[ConceptId] {
        &self.item_parents[item.index()]
    }

    /// Direct concept parents of a concept.
    pub fn concept_parents(&self, concept: ConceptId) -> &[ConceptId] {
        &self.concept_parents[concept.index()]
    }

    /// All concept ancestors of `item` (transitive, deduplicated, sorted).
    pub fn item_ancestors(&self, item: ItemId) -> Vec<ConceptId> {
        let mut out = Vec::new();
        let mut seen = vec![false; self.concept_names.len()];
        let mut stack: Vec<ConceptId> = self.item_parents[item.index()].clone();
        while let Some(c) = stack.pop() {
            if !seen[c.index()] {
                seen[c.index()] = true;
                out.push(c);
                stack.extend_from_slice(&self.concept_parents[c.index()]);
            }
        }
        out.sort();
        out
    }

    /// All concept ancestors of `concept` (transitive, *excluding* itself,
    /// deduplicated, sorted).
    pub fn concept_ancestors(&self, concept: ConceptId) -> Vec<ConceptId> {
        let mut out = Vec::new();
        let mut seen = vec![false; self.concept_names.len()];
        let mut stack: Vec<ConceptId> = self.concept_parents[concept.index()].clone();
        while let Some(c) = stack.pop() {
            if !seen[c.index()] {
                seen[c.index()] = true;
                out.push(c);
                stack.extend_from_slice(&self.concept_parents[c.index()]);
            }
        }
        out.sort();
        out
    }

    /// Is `ancestor` a (strict) concept ancestor of `concept`?
    pub fn is_concept_ancestor(&self, ancestor: ConceptId, concept: ConceptId) -> bool {
        self.concept_ancestors(concept)
            .binary_search(&ancestor)
            .is_ok()
    }

    /// Is `concept` a (strict) ancestor of `item`?
    pub fn is_item_ancestor(&self, concept: ConceptId, item: ItemId) -> bool {
        self.item_ancestors(item).binary_search(&concept).is_ok()
    }

    /// Validate: one parent list per item and per concept, every parent
    /// id in range, and an acyclic concept graph. Construction keeps all
    /// of this, but deserialization bypasses construction.
    pub fn validate(&self) -> Result<(), TxnError> {
        let n = self.concept_names.len();
        for (table, expected, found) in [
            ("items", self.n_items, self.item_parents.len()),
            ("concepts", n, self.concept_parents.len()),
        ] {
            if found != expected {
                return Err(TxnError::HierarchyShape {
                    table,
                    expected,
                    found,
                });
            }
        }
        let edges = self.item_parents.iter().chain(&self.concept_parents);
        if let Some(&c) = edges.flatten().find(|c| c.index() >= n) {
            return Err(TxnError::UnknownConcept(c));
        }
        // Kahn's algorithm over concept → parent edges.
        let mut out_degree = vec![0usize; n]; // edges child→parent
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (child, parents) in self.concept_parents.iter().enumerate() {
            out_degree[child] = parents.len();
            for p in parents {
                children[p.index()].push(child);
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| out_degree[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(p) = queue.pop() {
            visited += 1;
            for &c in &children[p] {
                out_degree[c] -= 1;
                if out_degree[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if visited != n {
            let culprit = (0..n)
                .find(|&i| out_degree[i] > 0)
                .expect("some node remains in the cycle");
            return Err(TxnError::HierarchyCycle(ConceptId(culprit as u32)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1 hierarchy: Flake_Chicken → Chicken → Meat →
    /// Food → ANY, with Sunchip a target item directly below ANY.
    fn figure1() -> (Hierarchy, ItemId, ItemId, [ConceptId; 3]) {
        let fc = ItemId(0); // Flake_Chicken (non-target)
        let sunchip = ItemId(1); // Sunchip (target)
        let mut h = Hierarchy::flat(2);
        let food = h.add_concept("Food");
        let meat = h.add_concept("Meat");
        let chicken = h.add_concept("Chicken");
        h.link_concept(meat, food).unwrap();
        h.link_concept(chicken, meat).unwrap();
        h.link_item(fc, chicken).unwrap();
        (h, fc, sunchip, [food, meat, chicken])
    }

    #[test]
    fn figure1_ancestors() {
        let (h, fc, sunchip, [food, meat, chicken]) = figure1();
        assert_eq!(h.item_ancestors(fc), vec![food, meat, chicken]);
        assert!(h.item_ancestors(sunchip).is_empty()); // child of ANY only
        assert!(h.is_item_ancestor(food, fc));
        assert!(h.is_concept_ancestor(food, chicken));
        assert!(!h.is_concept_ancestor(chicken, food));
        assert!(!h.is_concept_ancestor(food, food), "strict");
        assert!(h.validate().is_ok());
    }

    #[test]
    fn flat_hierarchy() {
        let h = Hierarchy::flat(5);
        assert_eq!(h.n_items(), 5);
        assert_eq!(h.n_concepts(), 0);
        assert!(h.item_ancestors(ItemId(3)).is_empty());
        assert!(h.validate().is_ok());
    }

    #[test]
    fn dag_with_multiple_parents() {
        // Diamond: item → {a, b} → top.
        let mut h = Hierarchy::flat(1);
        let top = h.add_concept("top");
        let a = h.add_concept("a");
        let b = h.add_concept("b");
        h.link_concept(a, top).unwrap();
        h.link_concept(b, top).unwrap();
        h.link_item(ItemId(0), a).unwrap();
        h.link_item(ItemId(0), b).unwrap();
        let anc = h.item_ancestors(ItemId(0));
        assert_eq!(anc, vec![top, a, b]);
        assert!(h.validate().is_ok());
    }

    #[test]
    fn cycle_detected() {
        let mut h = Hierarchy::flat(0);
        let a = h.add_concept("a");
        let b = h.add_concept("b");
        h.link_concept(a, b).unwrap();
        h.link_concept(b, a).unwrap();
        assert!(matches!(h.validate(), Err(TxnError::HierarchyCycle(_))));
    }

    #[test]
    fn self_loop_detected() {
        let mut h = Hierarchy::flat(0);
        let a = h.add_concept("a");
        h.link_concept(a, a).unwrap();
        assert!(matches!(h.validate(), Err(TxnError::HierarchyCycle(_))));
    }

    #[test]
    fn out_of_range_links_rejected() {
        let mut h = Hierarchy::flat(1);
        let c = h.add_concept("c");
        assert_eq!(
            h.link_item(ItemId(5), c),
            Err(TxnError::UnknownItem(ItemId(5)))
        );
        assert_eq!(
            h.link_concept(c, ConceptId(9)),
            Err(TxnError::UnknownConcept(ConceptId(9)))
        );
    }

    /// Deserialization bypasses `add_concept`/`link_*`, so `validate`
    /// must catch every malformed table as a typed error — these used to
    /// index out of bounds in `validate` itself or later in `Moa::new`.
    #[test]
    fn malformed_deserialized_tables_are_typed_errors() {
        let parse = |json: &str| serde_json::from_str::<Hierarchy>(json).unwrap();
        let err = parse(
            r#"{"n_items":3,"concept_names":[],"item_parents":[[],[]],"concept_parents":[]}"#,
        )
        .validate()
        .unwrap_err();
        assert_eq!(
            err,
            TxnError::HierarchyShape {
                table: "items",
                expected: 3,
                found: 2
            }
        );
        assert!(
            err.to_string().contains("parent lists for 2 items"),
            "{err}"
        );
        let err = parse(
            r#"{"n_items":0,"concept_names":["a","b"],"item_parents":[],"concept_parents":[[]]}"#,
        )
        .validate()
        .unwrap_err();
        assert!(
            matches!(
                err,
                TxnError::HierarchyShape {
                    table: "concepts",
                    ..
                }
            ),
            "{err}"
        );
        for json in [
            r#"{"n_items":0,"concept_names":["a"],"item_parents":[],"concept_parents":[[7]]}"#,
            r#"{"n_items":1,"concept_names":["a"],"item_parents":[[7]],"concept_parents":[[]]}"#,
        ] {
            assert_eq!(
                parse(json).validate(),
                Err(TxnError::UnknownConcept(ConceptId(7))),
                "{json}"
            );
        }
    }

    #[test]
    fn duplicate_links_ignored() {
        let (mut h, fc, _, [_, _, chicken]) = figure1();
        h.link_item(fc, chicken).unwrap();
        assert_eq!(h.item_parents(fc).len(), 1);
    }
}
