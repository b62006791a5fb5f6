//! CSV import/export for transaction data — the ingestion surface for
//! real point-of-sale exports.
//!
//! Two flat files describe a dataset:
//!
//! **Catalog CSV** (`item,role,price,cost,pack`), one row per promotion
//! code; consecutive rows of the same item accumulate its codes in order:
//!
//! ```csv
//! item,role,price,cost,pack
//! 2%-Milk,target,3.20,2.00,4
//! 2%-Milk,target,1.00,0.50,1
//! Bread,nontarget,2.50,1.00,1
//! ```
//!
//! **Sales CSV** (`txn,item,code,qty`), one row per sale; the target sale
//! of a transaction is recognized by its item's role:
//!
//! ```csv
//! txn,item,code,qty
//! 1,Bread,0,2
//! 1,2%-Milk,1,1
//! ```
//!
//! The parser is a strict RFC-4180 subset (no embedded quotes/commas —
//! item names here are identifiers, not prose) chosen over a dependency
//! because the workspace's allowed crate set has no CSV reader.

use crate::catalog::{Catalog, ItemDef};
use crate::code::PromotionCode;
use crate::hierarchy::Hierarchy;
use crate::ids::{CodeId, ItemId};
use crate::money::Money;
use crate::sale::{Sale, Transaction};
use crate::TransactionSet;
use std::collections::HashMap;

/// Errors from CSV ingestion. Messages carry the rejected token (an
/// operator fixing a point-of-sale export needs to see *what* failed to
/// parse, not just that something did) and `role` names which of the
/// two files the line belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// Which file the error is from: `"catalog"` or `"sales"`.
    pub role: &'static str,
    /// 1-based line number (0 for whole-file errors).
    pub line: usize,
    /// What went wrong, including the offending field text.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} line {}: {}", self.role, self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

fn err(role: &'static str, line: usize, message: impl Into<String>) -> CsvError {
    CsvError {
        role,
        line,
        message: message.into(),
    }
}

fn fields(line: &str) -> Vec<&str> {
    line.split(',').map(str::trim).collect()
}

/// Parse a catalog CSV (header required).
pub fn parse_catalog(text: &str) -> Result<(Catalog, HashMap<String, ItemId>), CsvError> {
    const ROLE: &str = "catalog";
    let err = |line, message: String| err(ROLE, line, message);
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(1, "empty file".into()))?;
    if fields(header) != vec!["item", "role", "price", "cost", "pack"] {
        return Err(err(1, "header must be item,role,price,cost,pack".into()));
    }
    let mut catalog = Catalog::new();
    let mut by_name: HashMap<String, ItemId> = HashMap::new();
    let mut defs: Vec<ItemDef> = Vec::new();
    for (i, line) in lines {
        let ln = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let f = fields(line);
        if f.len() != 5 {
            return Err(err(ln, format!("expected 5 fields, got {}", f.len())));
        }
        let is_target = match f[1] {
            "target" => true,
            "nontarget" | "non-target" => false,
            other => {
                return Err(err(
                    ln,
                    format!("role must be target|nontarget, got {other:?}"),
                ))
            }
        };
        // `"inf".parse::<f64>()` succeeds, a negative price or cost is
        // always a data error in a point-of-sale export, and `1e300`
        // dollars has no `i64` cent count — reject all three here rather
        // than panicking in the Money constructor.
        let money = |field: &str, token: &str| {
            let dollars: f64 = token
                .parse()
                .map_err(|_| err(ln, format!("bad {field} {token:?}")))?;
            if !dollars.is_finite() || dollars < 0.0 {
                return Err(err(ln, format!("{field} must be ≥ 0, got {token:?}")));
            }
            Money::checked_from_dollars_f64(dollars)
                .ok_or_else(|| err(ln, format!("{field} {token:?} overflows the cent range")))
        };
        let price = money("price", f[2])?;
        let cost = money("cost", f[3])?;
        let pack: u32 = f[4]
            .parse()
            .map_err(|_| err(ln, format!("bad pack {:?}", f[4])))?;
        if pack == 0 {
            return Err(err(ln, format!("pack must be ≥ 1, got {:?}", f[4])));
        }
        let code = PromotionCode::packed(price, cost, pack);
        match by_name.get(f[0]) {
            Some(&id) => {
                if defs[id.index()].is_target != is_target {
                    return Err(err(ln, format!("item {:?} changes role", f[0])));
                }
                defs[id.index()].codes.push(code);
            }
            None => {
                let id = ItemId(defs.len() as u32);
                by_name.insert(f[0].to_string(), id);
                defs.push(ItemDef {
                    name: f[0].to_string(),
                    codes: vec![code],
                    is_target,
                });
            }
        }
    }
    for def in defs {
        catalog.push(def);
    }
    Ok((catalog, by_name))
}

/// Parse a sales CSV against a parsed catalog and assemble the validated
/// dataset (flat hierarchy). Transactions appear in first-seen order of
/// their `txn` key.
pub fn parse_sales(
    text: &str,
    catalog: Catalog,
    by_name: &HashMap<String, ItemId>,
) -> Result<TransactionSet, CsvError> {
    const ROLE: &str = "sales";
    let err = |line, message: String| err(ROLE, line, message);
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(1, "empty file".into()))?;
    if fields(header) != vec!["txn", "item", "code", "qty"] {
        return Err(err(1, "header must be txn,item,code,qty".into()));
    }
    // txn key → (non-target sales, target sale + its line number)
    type Group = (Vec<Sale>, Option<(Sale, usize)>);
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Group> = HashMap::new();
    for (i, line) in lines {
        let ln = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let f = fields(line);
        if f.len() != 4 {
            return Err(err(ln, format!("expected 4 fields, got {}", f.len())));
        }
        let item = *by_name
            .get(f[1])
            .ok_or_else(|| err(ln, format!("unknown item {:?} (not in the catalog)", f[1])))?;
        let code: u16 = f[2]
            .parse()
            .map_err(|_| err(ln, format!("bad code {:?}", f[2])))?;
        let qty: u32 = f[3]
            .parse()
            .map_err(|_| err(ln, format!("bad qty {:?}", f[3])))?;
        if qty == 0 {
            return Err(err(ln, format!("qty must be ≥ 1, got {:?}", f[3])));
        }
        let sale = Sale::new(item, CodeId(code), qty);
        let entry = groups.entry(f[0].to_string()).or_insert_with(|| {
            order.push(f[0].to_string());
            (Vec::new(), None)
        });
        if catalog.item(item).is_target {
            if let Some((_, first_ln)) = entry.1 {
                return Err(err(
                    ln,
                    format!(
                        "transaction {:?} has a second target sale (first at line {first_ln})",
                        f[0]
                    ),
                ));
            }
            entry.1 = Some((sale, ln));
        } else {
            entry.0.push(sale);
        }
    }
    let mut txns = Vec::with_capacity(order.len());
    for key in order {
        let (nts, target) = groups.remove(&key).expect("grouped above");
        let (target, _) =
            target.ok_or_else(|| err(0, format!("transaction {key:?} has no target sale")))?;
        txns.push(Transaction::new(nts, target));
    }
    let n = catalog.len();
    TransactionSet::new(catalog, Hierarchy::flat(n), txns)
        .map_err(|e| err(0, format!("validation: {e}")))
}

/// Render a dataset back to the two CSVs: `(catalog_csv, sales_csv)`.
pub fn to_csv(data: &TransactionSet) -> (String, String) {
    let catalog = data.catalog();
    let mut cat = String::from("item,role,price,cost,pack\n");
    for (_, def) in catalog.iter() {
        for code in &def.codes {
            cat.push_str(&format!(
                "{},{},{:.2},{:.2},{}\n",
                def.name,
                if def.is_target { "target" } else { "nontarget" },
                code.price.as_dollars(),
                code.cost.as_dollars(),
                code.pack_qty
            ));
        }
    }
    let mut sales = String::from("txn,item,code,qty\n");
    for (i, t) in data.transactions().iter().enumerate() {
        for s in t
            .non_target_sales()
            .iter()
            .chain(std::iter::once(t.target_sale()))
        {
            sales.push_str(&format!(
                "{},{},{},{}\n",
                i + 1,
                catalog.item(s.item).name,
                s.code.0,
                s.qty
            ));
        }
    }
    (cat, sales)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CATALOG: &str = "\
item,role,price,cost,pack
2%-Milk,target,3.20,2.00,4
2%-Milk,target,1.00,0.50,1
Bread,nontarget,2.50,1.00,1
Jam,nontarget,4.00,1.50,1
";

    const SALES: &str = "\
txn,item,code,qty
1,Bread,0,2
1,2%-Milk,1,1
2,Jam,0,1
2,Bread,0,1
2,2%-Milk,0,1
";

    #[test]
    fn round_trip() {
        let (catalog, names) = parse_catalog(CATALOG).unwrap();
        assert_eq!(catalog.len(), 3);
        let milk = names["2%-Milk"];
        assert!(catalog.item(milk).is_target);
        assert_eq!(catalog.item(milk).codes.len(), 2);
        assert_eq!(catalog.item(milk).codes[0].pack_qty, 4);

        let data = parse_sales(SALES, catalog, &names).unwrap();
        assert_eq!(data.len(), 2);
        assert_eq!(data.transactions()[0].basket_size(), 1);
        assert_eq!(data.transactions()[1].basket_size(), 2);
        assert_eq!(data.transactions()[0].target_sale().item, milk);

        // Export and re-import reproduces the dataset.
        let (cat_csv, sales_csv) = to_csv(&data);
        let (catalog2, names2) = parse_catalog(&cat_csv).unwrap();
        let data2 = parse_sales(&sales_csv, catalog2, &names2).unwrap();
        assert_eq!(data2.len(), data.len());
        assert_eq!(data2.total_recorded_profit(), data.total_recorded_profit());
        assert_eq!(data2.transactions(), data.transactions());
    }

    #[test]
    fn catalog_errors() {
        assert!(parse_catalog("").is_err());
        assert!(parse_catalog("wrong,header\n").is_err());
        let bad_role = "item,role,price,cost,pack\nX,boss,1,1,1\n";
        assert_eq!(parse_catalog(bad_role).unwrap_err().line, 2);
        let bad_pack = "item,role,price,cost,pack\nX,target,1,1,0\n";
        assert!(parse_catalog(bad_pack).is_err());
        let role_flip = "item,role,price,cost,pack\nX,target,1,1,1\nX,nontarget,2,1,1\n";
        assert!(parse_catalog(role_flip).is_err());
    }

    #[test]
    fn sales_errors() {
        let (catalog, names) = parse_catalog(CATALOG).unwrap();
        // Unknown item.
        let r = parse_sales("txn,item,code,qty\n1,Ghost,0,1\n", catalog.clone(), &names);
        assert!(r.is_err());
        // Two target sales in one transaction.
        let two = "txn,item,code,qty\n1,2%-Milk,0,1\n1,2%-Milk,1,1\n";
        let r = parse_sales(two, catalog.clone(), &names);
        assert!(r.unwrap_err().message.contains("second target"));
        // No target sale.
        let none = "txn,item,code,qty\n1,Bread,0,1\n";
        assert!(parse_sales(none, catalog.clone(), &names)
            .unwrap_err()
            .message
            .contains("no target"));
        // Out-of-range code caught by validation.
        let bad_code = "txn,item,code,qty\n1,Bread,7,1\n1,2%-Milk,0,1\n";
        assert!(parse_sales(bad_code, catalog, &names)
            .unwrap_err()
            .message
            .contains("validation"));
    }

    /// Errors must carry the rejected token and the file role — the
    /// satellite fix for the old bare "bad price" messages.
    #[test]
    fn errors_carry_token_and_role() {
        // Negative price.
        let e = parse_catalog("item,role,price,cost,pack\nX,target,-1.50,1,1\n").unwrap_err();
        assert_eq!(e.role, "catalog");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("\"-1.50\""), "{e}");
        assert!(e.to_string().starts_with("catalog line 2:"), "{e}");
        // Negative cost.
        let e = parse_catalog("item,role,price,cost,pack\nX,target,1,-0.25,1\n").unwrap_err();
        assert!(
            e.message.contains("cost") && e.message.contains("\"-0.25\""),
            "{e}"
        );
        // Non-numeric price still names the token.
        let e = parse_catalog("item,role,price,cost,pack\nX,target,abc,1,1\n").unwrap_err();
        assert!(e.message.contains("\"abc\""), "{e}");
        // Non-finite price parses as f64 but is rejected (it used to
        // panic inside Money::from_dollars_f64).
        let e = parse_catalog("item,role,price,cost,pack\nX,target,inf,1,1\n").unwrap_err();
        assert!(e.message.contains("price"), "{e}");

        let (catalog, names) = parse_catalog(CATALOG).unwrap();
        // qty = 0.
        let e = parse_sales(
            "txn,item,code,qty\n1,Bread,0,0\n1,2%-Milk,0,1\n",
            catalog.clone(),
            &names,
        )
        .unwrap_err();
        assert_eq!(e.role, "sales");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("qty must be ≥ 1"), "{e}");
        // Sale referencing an item missing from the catalog.
        let e = parse_sales("txn,item,code,qty\n1,Ghost,0,1\n", catalog, &names).unwrap_err();
        assert_eq!(e.role, "sales");
        assert!(e.message.contains("\"Ghost\""), "{e}");
        assert!(e.message.contains("catalog"), "{e}");
    }

    #[test]
    fn whitespace_and_blank_lines_tolerated() {
        let csv = "item,role,price,cost,pack\n\n  Bread , nontarget , 2.50 , 1.00 , 1 \nT,target,1,0.5,1\n";
        let (catalog, names) = parse_catalog(csv).unwrap();
        assert_eq!(catalog.len(), 2);
        assert!(names.contains_key("Bread"));
    }
}
