//! The dataset container: a catalog, a hierarchy, and transactions —
//! everything a mining run consumes, with validation and (de)serialization.

use crate::catalog::Catalog;
use crate::error::TxnError;
use crate::growth::CatalogDelta;
use crate::hierarchy::Hierarchy;
use crate::money::Money;
use crate::sale::Transaction;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A validated collection of past transactions over a catalog and a
/// concept hierarchy (the input of Definition 1).
///
/// The catalog and hierarchy are held through [`Arc`]s so that folds,
/// subsets and trained recommenders share them without copying.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransactionSet {
    catalog: Arc<Catalog>,
    hierarchy: Arc<Hierarchy>,
    transactions: Vec<Transaction>,
}

impl TransactionSet {
    /// Assemble and validate a dataset.
    ///
    /// Validation enforces:
    /// * catalog consistency (every item has codes; ≥ 1 target item);
    /// * hierarchy consistency (item counts agree; acyclic);
    /// * every sale references a known item/code with positive quantity;
    /// * target sales use target items, non-target sales non-target items.
    pub fn new(
        catalog: Catalog,
        hierarchy: Hierarchy,
        transactions: Vec<Transaction>,
    ) -> Result<Self, TxnError> {
        Self::validate_tables(&catalog, &hierarchy)?;
        for t in &transactions {
            validate_transaction(&catalog, t)?;
        }
        Ok(Self {
            catalog: Arc::new(catalog),
            hierarchy: Arc::new(hierarchy),
            transactions,
        })
    }

    /// The checks [`Self::new`] runs on the tables before any
    /// transaction: a consistent catalog, a well-formed hierarchy, and
    /// the same item count in both. Whatever deserializes a catalog and
    /// hierarchy outside `new` (a saved model) runs them too, so
    /// malformed tables are a typed error instead of an index panic.
    pub fn validate_tables(catalog: &Catalog, hierarchy: &Hierarchy) -> Result<(), TxnError> {
        catalog.validate()?;
        hierarchy.validate()?;
        if hierarchy.n_items() != catalog.len() {
            return Err(TxnError::ItemCountMismatch {
                catalog: catalog.len(),
                hierarchy: hierarchy.n_items(),
            });
        }
        Ok(())
    }

    /// Shared handle to the catalog.
    pub fn catalog_arc(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    /// Shared handle to the hierarchy.
    pub fn hierarchy_arc(&self) -> Arc<Hierarchy> {
        Arc::clone(&self.hierarchy)
    }

    /// The item catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The concept hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// All transactions.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// True when there are no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Total recorded profit of all target sales — the gain denominator
    /// over the whole set.
    pub fn total_recorded_profit(&self) -> Money {
        self.transactions
            .iter()
            .map(|t| t.recorded_target_profit(&self.catalog))
            .sum()
    }

    /// Append a delta batch of transactions — the streaming-ingestion
    /// path. Each transaction is validated against this set's catalog
    /// with exactly the checks [`Self::new`] runs; on any error nothing
    /// is appended (validation happens before the first push).
    ///
    /// Returns the number of transactions appended. The catalog and
    /// hierarchy are fixed at fit time: a delta can only add sales over
    /// the existing items and codes, which is what keeps the head
    /// universe — and with it the incremental miner's byte-identity —
    /// stable across updates.
    pub fn extend_from(&mut self, delta: &[Transaction]) -> Result<usize, TxnError> {
        self.validate_delta(delta)?;
        self.transactions.extend_from_slice(delta);
        Ok(delta.len())
    }

    /// Run exactly the per-transaction checks [`Self::extend_from`]
    /// runs, without appending anything. Lets an ingestion path make a
    /// batch durable (e.g. append it to a write-ahead sales log) only
    /// after it is known to be appendable, so the log never holds a
    /// record that a later replay would reject.
    pub fn validate_delta(&self, delta: &[Transaction]) -> Result<(), TxnError> {
        for t in delta {
            validate_transaction(&self.catalog, t)?;
        }
        Ok(())
    }

    /// Apply an append-only catalog-growth delta: new items, codes and
    /// concepts land at the end of their tables; nothing existing moves
    /// or changes (see [`crate::growth`] for why that discipline keeps
    /// incremental mining byte-exact). On any error the set is
    /// untouched. Returns the number of items added.
    ///
    /// The catalog and hierarchy [`Arc`]s are *replaced*, not mutated —
    /// models and Moa views already holding the old handles keep seeing
    /// the pre-growth tables.
    pub fn extend_catalog(&mut self, delta: &CatalogDelta) -> Result<usize, TxnError> {
        if delta.is_empty() {
            return Ok(0);
        }
        let (catalog, hierarchy) = delta.grown(&self.catalog, &self.hierarchy)?;
        self.catalog = Arc::new(catalog);
        self.hierarchy = Arc::new(hierarchy);
        Ok(delta.items.len())
    }

    /// Validate a full stream record — an optional growth delta plus a
    /// transaction batch checked against the *grown* catalog — without
    /// applying anything. The growth-aware extension of
    /// [`Self::validate_delta`]: an ingestion path calls this before
    /// making the record durable, so the write-ahead log never holds a
    /// record a later replay would reject.
    pub fn validate_stream_record(
        &self,
        delta: Option<&CatalogDelta>,
        txns: &[Transaction],
    ) -> Result<(), TxnError> {
        match delta {
            None => self.validate_delta(txns),
            Some(d) => {
                let (catalog, _) = d.grown(&self.catalog, &self.hierarchy)?;
                for t in txns {
                    validate_transaction(&catalog, t)?;
                }
                Ok(())
            }
        }
    }

    /// Apply a full stream record: grow the catalog (if the record
    /// carries a delta), then append the batch. The replay counterpart
    /// of [`Self::validate_stream_record`].
    pub fn apply_stream_record(
        &mut self,
        delta: Option<&CatalogDelta>,
        txns: &[Transaction],
    ) -> Result<usize, TxnError> {
        if let Some(d) = delta {
            self.extend_catalog(d)?;
        }
        self.extend_from(txns)
    }

    /// A new set sharing this catalog/hierarchy but containing only the
    /// transactions at `indices` (used by cross-validation folds).
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn subset(&self, indices: &[usize]) -> TransactionSet {
        TransactionSet {
            catalog: Arc::clone(&self.catalog),
            hierarchy: Arc::clone(&self.hierarchy),
            transactions: indices
                .iter()
                .map(|&i| self.transactions[i].clone())
                .collect(),
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("dataset serializes")
    }

    /// Deserialize from JSON produced by [`Self::to_json`], re-validating.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let raw: TransactionSet = serde_json::from_str(s).map_err(|e| e.to_string())?;
        TransactionSet::new(
            Arc::try_unwrap(raw.catalog).unwrap_or_else(|a| (*a).clone()),
            Arc::try_unwrap(raw.hierarchy).unwrap_or_else(|a| (*a).clone()),
            raw.transactions,
        )
        .map_err(|e| e.to_string())
    }
}

/// The per-transaction validity checks shared by [`TransactionSet::new`]
/// and [`TransactionSet::extend_from`]: known items and codes, positive
/// quantities, target sales on target items only (and vice versa).
fn validate_transaction(catalog: &Catalog, t: &Transaction) -> Result<(), TxnError> {
    let target = t.target_sale();
    let def = catalog
        .get(target.item)
        .ok_or(TxnError::UnknownItem(target.item))?;
    if !def.is_target {
        return Err(TxnError::TargetSaleOnNonTarget(target.item));
    }
    catalog.try_code(target.item, target.code)?;
    if target.qty == 0 {
        return Err(TxnError::ZeroQuantity(target.item));
    }
    for s in t.non_target_sales() {
        let def = catalog.get(s.item).ok_or(TxnError::UnknownItem(s.item))?;
        if def.is_target {
            return Err(TxnError::NonTargetSaleOnTarget(s.item));
        }
        catalog.try_code(s.item, s.code)?;
        if s.qty == 0 {
            return Err(TxnError::ZeroQuantity(s.item));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ItemDef;
    use crate::code::PromotionCode;
    use crate::ids::{CodeId, ItemId};
    use crate::sale::Sale;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.push(ItemDef {
            name: "target".into(),
            codes: vec![PromotionCode::unit(
                Money::from_cents(100),
                Money::from_cents(40),
            )],
            is_target: true,
        });
        c.push(ItemDef {
            name: "trigger".into(),
            codes: vec![PromotionCode::unit(
                Money::from_cents(50),
                Money::from_cents(20),
            )],
            is_target: false,
        });
        c
    }

    fn txn(qty: u32) -> Transaction {
        Transaction::new(
            vec![Sale::new(ItemId(1), CodeId(0), 1)],
            Sale::new(ItemId(0), CodeId(0), qty),
        )
    }

    #[test]
    fn valid_roundtrip() {
        let ds = TransactionSet::new(catalog(), Hierarchy::flat(2), vec![txn(1), txn(2)]).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.total_recorded_profit(), Money::from_cents(180));
        let json = ds.to_json();
        let back = TransactionSet::from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.total_recorded_profit(), Money::from_cents(180));
    }

    #[test]
    fn subset_selects() {
        let ds = TransactionSet::new(catalog(), Hierarchy::flat(2), vec![txn(1), txn(2), txn(3)])
            .unwrap();
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.transactions()[0].target_sale().qty, 3);
    }

    #[test]
    fn extend_from_appends_validated_deltas() {
        let mut ds = TransactionSet::new(catalog(), Hierarchy::flat(2), vec![txn(1)]).unwrap();
        assert_eq!(ds.extend_from(&[txn(2), txn(3)]).unwrap(), 2);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.transactions()[2].target_sale().qty, 3);
        // The catalog/hierarchy handles are unchanged (shared, not
        // cloned) — downstream Moa views stay valid.
        assert_eq!(ds.total_recorded_profit(), Money::from_cents(360));
    }

    #[test]
    fn extend_from_rejects_invalid_deltas_atomically() {
        let mut ds = TransactionSet::new(catalog(), Hierarchy::flat(2), vec![txn(1)]).unwrap();
        // One good transaction followed by one bad one: nothing lands.
        let bad = Transaction::new(vec![], Sale::new(ItemId(9), CodeId(0), 1));
        assert_eq!(
            ds.extend_from(&[txn(2), bad]).unwrap_err(),
            TxnError::UnknownItem(ItemId(9))
        );
        assert_eq!(ds.len(), 1, "failed delta must not partially append");
        // Every validation class fires on the delta path too.
        let bad = Transaction::new(vec![], Sale::new(ItemId(1), CodeId(0), 1));
        assert_eq!(
            ds.extend_from(&[bad]).unwrap_err(),
            TxnError::TargetSaleOnNonTarget(ItemId(1))
        );
        assert_eq!(
            ds.extend_from(&[txn(0)]).unwrap_err(),
            TxnError::ZeroQuantity(ItemId(0))
        );
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn rejects_target_mixups() {
        // Target sale on a non-target item.
        let bad = Transaction::new(vec![], Sale::new(ItemId(1), CodeId(0), 1));
        assert_eq!(
            TransactionSet::new(catalog(), Hierarchy::flat(2), vec![bad]).unwrap_err(),
            TxnError::TargetSaleOnNonTarget(ItemId(1))
        );
        // Non-target sale on a target item.
        let bad = Transaction::new(
            vec![Sale::new(ItemId(0), CodeId(0), 1)],
            Sale::new(ItemId(0), CodeId(0), 1),
        );
        assert_eq!(
            TransactionSet::new(catalog(), Hierarchy::flat(2), vec![bad]).unwrap_err(),
            TxnError::NonTargetSaleOnTarget(ItemId(0))
        );
    }

    #[test]
    fn rejects_bad_references() {
        let bad = Transaction::new(vec![], Sale::new(ItemId(9), CodeId(0), 1));
        assert_eq!(
            TransactionSet::new(catalog(), Hierarchy::flat(2), vec![bad]).unwrap_err(),
            TxnError::UnknownItem(ItemId(9))
        );
        let bad = Transaction::new(vec![], Sale::new(ItemId(0), CodeId(3), 1));
        assert_eq!(
            TransactionSet::new(catalog(), Hierarchy::flat(2), vec![bad]).unwrap_err(),
            TxnError::UnknownCode(ItemId(0), CodeId(3))
        );
        assert_eq!(
            TransactionSet::new(catalog(), Hierarchy::flat(2), vec![txn(0)]).unwrap_err(),
            TxnError::ZeroQuantity(ItemId(0))
        );
    }

    #[test]
    fn rejects_item_count_mismatch() {
        assert!(matches!(
            TransactionSet::new(catalog(), Hierarchy::flat(5), vec![]),
            Err(TxnError::ItemCountMismatch { .. })
        ));
    }
}
