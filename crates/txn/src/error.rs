//! Error type for dataset construction and validation.

use crate::ids::{CodeId, ConceptId, ItemId};
use std::fmt;

/// Everything that can go wrong when assembling or validating the data
/// model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// A sale references an item id outside the catalog.
    UnknownItem(ItemId),
    /// A sale references a code id the item does not have.
    UnknownCode(ItemId, CodeId),
    /// A hierarchy edge references a concept outside the table.
    UnknownConcept(ConceptId),
    /// The concept hierarchy contains a cycle through the given concept.
    HierarchyCycle(ConceptId),
    /// The hierarchy's parent table for `table` has the wrong length.
    HierarchyShape {
        /// `"items"` or `"concepts"`.
        table: &'static str,
        /// Entries the hierarchy declares.
        expected: usize,
        /// Parent lists it carries.
        found: usize,
    },
    /// A transaction's target sale uses a non-target item.
    TargetSaleOnNonTarget(ItemId),
    /// A transaction's non-target sale uses a target item.
    NonTargetSaleOnTarget(ItemId),
    /// A sale has zero quantity.
    ZeroQuantity(ItemId),
    /// An item was declared with no promotion codes.
    NoCodes(ItemId),
    /// The catalog declares no target items.
    NoTargetItems,
    /// The hierarchy's item count disagrees with the catalog's.
    ItemCountMismatch {
        /// Items in the catalog.
        catalog: usize,
        /// Items the hierarchy was built for.
        hierarchy: usize,
    },
    /// Duplicate item name in a builder.
    DuplicateName(String),
    /// A catalog-growth delta hung a new target item below a concept;
    /// target items must be immediate children of `ANY`.
    TargetItemWithParents(ItemId),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::UnknownItem(i) => write!(f, "unknown {i}"),
            TxnError::UnknownCode(i, c) => write!(f, "{i} has no {c}"),
            TxnError::UnknownConcept(c) => write!(f, "unknown {c}"),
            TxnError::HierarchyCycle(c) => write!(f, "hierarchy cycle through {c}"),
            TxnError::HierarchyShape {
                table,
                expected,
                found,
            } => write!(
                f,
                "hierarchy carries parent lists for {found} {table} but declares {expected}"
            ),
            TxnError::TargetSaleOnNonTarget(i) => {
                write!(f, "target sale uses non-target {i}")
            }
            TxnError::NonTargetSaleOnTarget(i) => {
                write!(f, "non-target sale uses target {i}")
            }
            TxnError::ZeroQuantity(i) => write!(f, "sale of {i} has zero quantity"),
            TxnError::NoCodes(i) => write!(f, "{i} has no promotion codes"),
            TxnError::NoTargetItems => write!(f, "catalog declares no target items"),
            TxnError::ItemCountMismatch { catalog, hierarchy } => write!(
                f,
                "hierarchy covers {hierarchy} items but catalog has {catalog}"
            ),
            TxnError::DuplicateName(n) => write!(f, "duplicate item name {n:?}"),
            TxnError::TargetItemWithParents(i) => write!(
                f,
                "new target {i} must hang directly below ANY (no concept parents)"
            ),
        }
    }
}

impl std::error::Error for TxnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TxnError::UnknownCode(ItemId(3), CodeId(9));
        assert_eq!(e.to_string(), "item#3 has no code#9");
        let e = TxnError::ItemCountMismatch {
            catalog: 5,
            hierarchy: 4,
        };
        assert!(e.to_string().contains('5') && e.to_string().contains('4'));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<TxnError>();
    }
}
