//! Ergonomic catalog construction for examples and tests.

use crate::catalog::{Catalog, ItemDef};
use crate::code::PromotionCode;
use crate::error::TxnError;
use crate::ids::ItemId;
use crate::money::Money;
use std::collections::HashMap;

/// Builds a [`Catalog`] with name-based lookup and dollar-denominated
/// promotion codes, so application code reads like the paper's examples:
///
/// ```
/// use pm_txn::CatalogBuilder;
///
/// let mut b = CatalogBuilder::new();
/// b.non_target("Perfume").unit_code(45.0, 20.0);
/// b.target("Lipstick").unit_code(12.0, 5.0);
/// b.target("Diamond").unit_code(990.0, 600.0);
/// let catalog = b.build().unwrap();
/// assert_eq!(catalog.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    items: Vec<ItemDef>,
    by_name: HashMap<String, ItemId>,
    duplicate: Option<String>,
}

/// Handle for adding promotion codes to one item under construction.
#[derive(Debug)]
pub struct ItemBuilder<'a> {
    def: &'a mut ItemDef,
}

impl<'a> ItemBuilder<'a> {
    /// Add a unit-packing code priced in dollars.
    pub fn unit_code(&mut self, price: f64, cost: f64) -> &mut Self {
        self.def.codes.push(PromotionCode::unit(
            Money::from_dollars_f64(price),
            Money::from_dollars_f64(cost),
        ));
        self
    }

    /// Add a multi-pack code priced in dollars.
    pub fn packed_code(&mut self, price: f64, cost: f64, pack_qty: u32) -> &mut Self {
        self.def.codes.push(PromotionCode::packed(
            Money::from_dollars_f64(price),
            Money::from_dollars_f64(cost),
            pack_qty,
        ));
        self
    }
}

impl CatalogBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(&mut self, name: &str, is_target: bool) -> ItemBuilder<'_> {
        if self.by_name.contains_key(name) && self.duplicate.is_none() {
            self.duplicate = Some(name.to_string());
        }
        let id = ItemId(self.items.len() as u32);
        self.by_name.insert(name.to_string(), id);
        self.items.push(ItemDef {
            name: name.to_string(),
            codes: Vec::new(),
            is_target,
        });
        ItemBuilder {
            def: self.items.last_mut().expect("just pushed"),
        }
    }

    /// Start a target item.
    pub fn target(&mut self, name: &str) -> ItemBuilder<'_> {
        self.add(name, true)
    }

    /// Start a non-target item.
    pub fn non_target(&mut self, name: &str) -> ItemBuilder<'_> {
        self.add(name, false)
    }

    /// Look up an item id by name (available before `build`).
    pub fn id(&self, name: &str) -> Option<ItemId> {
        self.by_name.get(name).copied()
    }

    /// Finish, validating the catalog.
    pub fn build(self) -> Result<Catalog, TxnError> {
        if let Some(name) = self.duplicate {
            return Err(TxnError::DuplicateName(name));
        }
        let mut cat = Catalog::new();
        for item in self.items {
            cat.push(item);
        }
        cat.validate()?;
        Ok(cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CodeId;

    #[test]
    fn builds_by_name() {
        let mut b = CatalogBuilder::new();
        b.non_target("bread").unit_code(2.5, 1.0);
        b.target("milk")
            .packed_code(3.2, 2.0, 4)
            .unit_code(1.0, 0.5);
        let bread = b.id("bread").unwrap();
        let milk = b.id("milk").unwrap();
        let cat = b.build().unwrap();
        assert!(!cat.item(bread).is_target);
        assert!(cat.item(milk).is_target);
        assert_eq!(cat.item(milk).codes.len(), 2);
        assert_eq!(cat.code(milk, CodeId(0)).pack_qty, 4);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = CatalogBuilder::new();
        b.target("x").unit_code(1.0, 0.5);
        b.target("x").unit_code(2.0, 0.5);
        assert_eq!(b.build().unwrap_err(), TxnError::DuplicateName("x".into()));
    }

    #[test]
    fn empty_codes_rejected_at_build() {
        let mut b = CatalogBuilder::new();
        b.target("x");
        assert_eq!(b.build().unwrap_err(), TxnError::NoCodes(ItemId(0)));
    }
}
