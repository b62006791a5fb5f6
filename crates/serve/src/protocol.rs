//! The wire protocol: one JSON object per line, both directions.
//!
//! Requests:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"recommend","sales":[[item,code,qty],...],"top":K,"target":"codes:0"}  // all fields optional
//! {"op":"reload"}
//! {"op":"ingest","txns":[{"sales":[[item,code,qty],...],"target":[item,code,qty]},...],
//!  "catalog":{...}}                                          // catalog delta optional
//! {"op":"checkpoint"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! No request names a file. `reload` re-reads the model file the daemon
//! started with and `checkpoint` writes the file it was configured with;
//! a `reload` or `checkpoint` line that carries `"model"` or `"path"` is
//! refused before anything touches the disk.
//!
//! Responses always carry `"ok"`; errors carry `"error"` with a
//! human-readable message. Recommendation responses carry `"degraded"`
//! (true when the answer came from the §3.2 default rule because the
//! matcher errored or the compute deadline was blown) and `"recs"`.
//! Field order is fixed, so byte-level determinism of responses can be
//! asserted in tests.

use pm_txn::{CatalogDelta, CodeId, ItemId, Sale, Transaction};
use profit_core::RuleModel;
use serde::Value;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Recommend for a customer (a set of non-target sales).
    Recommend {
        /// The customer's sales as `(item, code, qty)` triples.
        sales: Vec<Sale>,
        /// How many distinct `(item, code)` pairs to return (≥ 1).
        top: usize,
        /// Optional target spec (`items:…`, `subtree:…`, or `codes:…`)
        /// restricting the answer's heads. Carried as the raw spec
        /// string — resolution needs the *serving* model's catalog and
        /// hierarchy, which can change under a hot reload, so the worker
        /// resolves it against the snapshot it answers from.
        target: Option<String>,
    },
    /// Re-read the daemon's model file, validate it, and swap it in.
    /// Only served by daemons started from a model file.
    Reload,
    /// Append a batch of sales transactions to the daemon's stream:
    /// validate, persist to the crash-safe sales log, refit
    /// incrementally, and hot-swap the refitted model in. Only served
    /// by daemons started in streaming mode.
    Ingest {
        /// Optional append-only catalog growth shipped with the batch:
        /// new concepts and items the transactions may reference.
        catalog: Option<CatalogDelta>,
        /// The batch, each transaction a basket of non-target sales
        /// plus exactly one target sale.
        txns: Vec<Transaction>,
    },
    /// Write a crash-recovery checkpoint (model + miner state + stream
    /// position) to the daemon's configured checkpoint file and compact
    /// the sales log behind it. Only served by daemons started in
    /// streaming mode.
    Checkpoint,
    /// Serving counters snapshot.
    Stats,
    /// Stop the daemon.
    Shutdown,
}

fn get<'v>(map: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_u64(v: &Value, what: &str) -> Result<u64, String> {
    match v {
        Value::U64(u) => Ok(*u),
        _ => Err(format!("{what} must be a non-negative integer")),
    }
}

/// Parse one `[item, code, qty]` triple into a [`Sale`].
fn parse_sale(v: &Value, what: &str) -> Result<Sale, String> {
    let triple = match v {
        Value::Seq(t) if t.len() == 3 => t,
        _ => {
            return Err(format!(
                "bad request: {what} must be an [item, code, qty] triple"
            ))
        }
    };
    let item_id = as_u64(&triple[0], "sale item")?;
    let code_id = as_u64(&triple[1], "sale code")?;
    let qty = as_u64(&triple[2], "sale qty")?;
    if item_id > u32::MAX as u64 || code_id > u16::MAX as u64 || qty == 0 {
        return Err(format!("bad request: {what} is out of range"));
    }
    Ok(Sale::new(
        ItemId(item_id as u32),
        CodeId(code_id as u16),
        qty as u32,
    ))
}

/// Refuse a `reload` or `checkpoint` that names a file: the daemon only
/// ever reads and writes the files it was started with.
fn names_no_file(map: &[(String, Value)], op: &str) -> Result<(), String> {
    match ["model", "path"]
        .into_iter()
        .find(|k| get(map, k).is_some())
    {
        Some(key) => Err(format!(
            "bad request: {op} takes no {key:?} — the daemon reads and writes only the \
             files it was started with"
        )),
        None => Ok(()),
    }
}

/// Parse one request line. Errors are complete human-readable messages
/// (they go straight into the `"error"` field of the response).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("bad request: {e}"))?;
    let map = match &value {
        Value::Map(m) => m.as_slice(),
        _ => return Err("bad request: expected a JSON object".into()),
    };
    let op = match get(map, "op") {
        Some(Value::Str(s)) => s.as_str(),
        Some(_) => return Err("bad request: \"op\" must be a string".into()),
        None => return Err("bad request: missing \"op\"".into()),
    };
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "reload" => names_no_file(map, op).map(|()| Request::Reload),
        "recommend" => {
            let top = match get(map, "top") {
                None => 1,
                Some(v) => {
                    let t = as_u64(v, "\"top\"")?;
                    if t == 0 {
                        return Err("bad request: \"top\" must be ≥ 1".into());
                    }
                    t.min(1024) as usize
                }
            };
            let sales = match get(map, "sales") {
                None => Vec::new(),
                Some(Value::Seq(items)) => {
                    let mut sales = Vec::with_capacity(items.len());
                    for (i, item) in items.iter().enumerate() {
                        sales.push(parse_sale(item, &format!("sales[{i}]"))?);
                    }
                    sales
                }
                Some(_) => return Err("bad request: \"sales\" must be an array".into()),
            };
            let target = match get(map, "target") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(s.clone()),
                Some(_) => {
                    return Err("bad request: \"target\" must be a target-spec string".into())
                }
            };
            Ok(Request::Recommend { sales, top, target })
        }
        "ingest" => {
            let items = match get(map, "txns") {
                Some(Value::Seq(items)) => items,
                Some(_) => return Err("bad request: \"txns\" must be an array".into()),
                None => return Err("bad request: missing \"txns\"".into()),
            };
            if items.is_empty() {
                return Err("bad request: \"txns\" is empty — nothing to ingest".into());
            }
            let mut txns = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let m = match item {
                    Value::Map(m) => m.as_slice(),
                    _ => return Err(format!("bad request: txns[{i}] must be an object")),
                };
                let sales = match get(m, "sales") {
                    None => Vec::new(),
                    Some(Value::Seq(ss)) => {
                        let mut sales = Vec::with_capacity(ss.len());
                        for (j, s) in ss.iter().enumerate() {
                            sales.push(parse_sale(s, &format!("txns[{i}].sales[{j}]"))?);
                        }
                        sales
                    }
                    Some(_) => {
                        return Err(format!("bad request: txns[{i}].sales must be an array"))
                    }
                };
                let target = match get(m, "target") {
                    Some(v) => parse_sale(v, &format!("txns[{i}].target"))?,
                    None => return Err(format!("bad request: txns[{i}] is missing \"target\"")),
                };
                txns.push(Transaction::new(sales, target));
            }
            let catalog = match get(map, "catalog") {
                None | Some(Value::Null) => None,
                Some(v @ Value::Map(_)) => {
                    // Round-trip through JSON text: the delta's schema
                    // (and its validation) lives in `pm_txn::growth`,
                    // not in a second hand-rolled parser here.
                    let delta: CatalogDelta = serde_json::from_str(&render(v))
                        .map_err(|e| format!("bad request: \"catalog\" does not parse: {e}"))?;
                    Some(delta)
                }
                Some(_) => return Err("bad request: \"catalog\" must be an object".into()),
            };
            Ok(Request::Ingest { catalog, txns })
        }
        "checkpoint" => names_no_file(map, op).map(|()| Request::Checkpoint),
        other => Err(format!(
            "bad request: unknown op {other:?} (expected ping, recommend, reload, ingest, \
             checkpoint, stats, or shutdown)"
        )),
    }
}

/// The wire form of one transaction for an `ingest` request — useful to
/// clients (and tests) assembling batches from in-memory transactions.
pub fn txn_value(t: &Transaction) -> Value {
    let sale = |s: &Sale| {
        Value::Seq(vec![
            Value::U64(s.item.0 as u64),
            Value::U64(s.code.0 as u64),
            Value::U64(s.qty as u64),
        ])
    };
    obj(vec![
        (
            "sales",
            Value::Seq(t.non_target_sales().iter().map(sale).collect()),
        ),
        ("target", sale(t.target_sale())),
    ])
}

/// The complete `ingest` request line for a batch, with the catalog
/// delta spliced in when present — the client-side counterpart of the
/// `ingest` parser above.
pub fn ingest_line(catalog: Option<&CatalogDelta>, txns: &[Transaction]) -> String {
    let mut entries: Vec<(&str, Value)> = vec![("op", Value::Str("ingest".into()))];
    if let Some(d) = catalog {
        let v: Value = serde_json::from_str(&serde_json::to_string(d).expect("delta serializes"))
            .expect("delta JSON re-parses as a value");
        entries.push(("catalog", v));
    }
    entries.push(("txns", Value::Seq(txns.iter().map(txn_value).collect())));
    render(&obj(entries))
}

/// Check every sale against the model's catalog before matching, so an
/// unknown item or code is a clean client error, not a matcher panic.
pub fn validate_sales(model: &RuleModel, sales: &[Sale]) -> Result<(), String> {
    let catalog = model.moa().catalog();
    for s in sales {
        let Some(def) = catalog.get(s.item) else {
            return Err(format!(
                "unknown item {} (catalog holds {} items)",
                s.item.0,
                catalog.len()
            ));
        };
        if s.code.0 as usize >= def.codes.len() {
            return Err(format!(
                "unknown code {} for item {:?} ({} codes defined)",
                s.code.0,
                def.name,
                def.codes.len()
            ));
        }
    }
    Ok(())
}

/// Build a JSON object value with fixed key order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serialize a response value to its wire line (no trailing newline).
pub fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("Value serialization is infallible")
}

/// The error-response line for `msg`.
pub fn error_line(msg: &str) -> String {
    render(&obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::Str(msg.to_string())),
    ]))
}

/// One recommendation as a JSON value.
pub fn rec_value(model: &RuleModel, rec: &profit_core::Recommendation) -> Value {
    let catalog = model.moa().catalog();
    obj(vec![
        ("item", Value::U64(rec.item.0 as u64)),
        ("name", Value::Str(catalog.item(rec.item).name.clone())),
        ("code", Value::U64(rec.code.0 as u64)),
        ("price", Value::Str(rec.promotion.to_string())),
        ("expected_profit", Value::F64(rec.expected_profit)),
        ("confidence", Value::F64(rec.confidence)),
        (
            "rule",
            match rec.rule_index {
                Some(i) => Value::U64(i as u64),
                None => Value::Null,
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"op":"reload"}"#).unwrap(),
            Request::Reload
        );
        assert_eq!(
            parse_request(r#"{"op":"recommend","sales":[[0,0,1],[2,1,3]],"top":2}"#).unwrap(),
            Request::Recommend {
                sales: vec![
                    Sale::new(ItemId(0), CodeId(0), 1),
                    Sale::new(ItemId(2), CodeId(1), 3)
                ],
                top: 2,
                target: None
            }
        );
        // All recommend fields are optional.
        assert_eq!(
            parse_request(r#"{"op":"recommend"}"#).unwrap(),
            Request::Recommend {
                sales: vec![],
                top: 1,
                target: None
            }
        );
        // The target spec rides along as a raw string (resolved against
        // the serving snapshot, not at parse time) and null means none.
        assert_eq!(
            parse_request(r#"{"op":"recommend","target":"codes:0","top":3}"#).unwrap(),
            Request::Recommend {
                sales: vec![],
                top: 3,
                target: Some("codes:0".into())
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"recommend","target":null}"#).unwrap(),
            Request::Recommend {
                sales: vec![],
                top: 1,
                target: None
            }
        );
        assert_eq!(
            parse_request(
                r#"{"op":"ingest","txns":[{"sales":[[1,0,2],[3,1,1]],"target":[0,0,4]}]}"#
            )
            .unwrap(),
            Request::Ingest {
                catalog: None,
                txns: vec![Transaction::new(
                    vec![
                        Sale::new(ItemId(1), CodeId(0), 2),
                        Sale::new(ItemId(3), CodeId(1), 1)
                    ],
                    Sale::new(ItemId(0), CodeId(0), 4)
                )]
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"checkpoint"}"#).unwrap(),
            Request::Checkpoint
        );
    }

    #[test]
    fn ingest_line_carries_the_catalog_delta() {
        use pm_txn::{ItemDef, Money, NewItem, PromotionCode};
        let delta = CatalogDelta {
            concepts: vec![],
            items: vec![NewItem {
                def: ItemDef {
                    name: "new-item".into(),
                    codes: vec![PromotionCode::unit(
                        Money::from_cents(120),
                        Money::from_cents(70),
                    )],
                    is_target: false,
                },
                parents: vec![],
            }],
        };
        let txns = vec![Transaction::new(vec![], Sale::new(ItemId(0), CodeId(0), 1))];
        let line = ingest_line(Some(&delta), &txns);
        let Request::Ingest { catalog, txns: got } = parse_request(&line).unwrap() else {
            panic!("not an ingest");
        };
        let back = catalog.expect("delta must survive the wire");
        assert_eq!(back.items.len(), 1);
        assert_eq!(back.items[0].def.name, "new-item");
        assert_eq!(got, txns);
        // Without a delta the line parses back to a plain ingest.
        let Request::Ingest { catalog, .. } = parse_request(&ingest_line(None, &txns)).unwrap()
        else {
            panic!("not an ingest");
        };
        assert!(catalog.is_none());
    }

    #[test]
    fn txn_value_round_trips_through_parse_request() {
        let txns = vec![
            Transaction::new(
                vec![
                    Sale::new(ItemId(5), CodeId(1), 2),
                    Sale::new(ItemId(2), CodeId(0), 1),
                ],
                Sale::new(ItemId(0), CodeId(2), 3),
            ),
            Transaction::new(vec![], Sale::new(ItemId(1), CodeId(0), 1)),
        ];
        let line = render(&obj(vec![
            ("op", Value::Str("ingest".into())),
            ("txns", Value::Seq(txns.iter().map(txn_value).collect())),
        ]));
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Ingest {
                catalog: None,
                txns
            }
        );
    }

    #[test]
    fn rejects_malformed_requests_with_clear_messages() {
        for (line, needle) in [
            ("not json", "bad request"),
            ("[1,2]", "JSON object"),
            (r#"{"no_op":1}"#, "missing \"op\""),
            (r#"{"op":7}"#, "\"op\" must be a string"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"recommend","sales":[[1,2]]}"#, "triple"),
            (r#"{"op":"recommend","sales":[[1,2,0]]}"#, "out of range"),
            (r#"{"op":"recommend","sales":3}"#, "must be an array"),
            (r#"{"op":"recommend","top":0}"#, "≥ 1"),
            (r#"{"op":"recommend","target":7}"#, "target-spec string"),
            (r#"{"op":"ingest"}"#, "missing \"txns\""),
            (r#"{"op":"ingest","txns":[]}"#, "nothing to ingest"),
            (r#"{"op":"ingest","txns":[7]}"#, "must be an object"),
            (
                r#"{"op":"ingest","txns":[{"sales":[]}]}"#,
                "missing \"target\"",
            ),
            (
                r#"{"op":"ingest","txns":[{"sales":[[1,2]],"target":[0,0,1]}]}"#,
                "triple",
            ),
            (
                r#"{"op":"ingest","txns":[{"sales":[],"target":[0,0,0]}]}"#,
                "out of range",
            ),
            (
                r#"{"op":"ingest","txns":[{"sales":[],"target":[0,0,1]}],"catalog":7}"#,
                "\"catalog\" must be an object",
            ),
            (
                r#"{"op":"ingest","txns":[{"sales":[],"target":[0,0,1]}],"catalog":{"x":1}}"#,
                "\"catalog\" does not parse",
            ),
            // The wire names no files: any "model" or "path" is refused.
            (r#"{"op":"reload","model":"m.pm"}"#, "takes no \"model\""),
            (r#"{"op":"reload","path":"m.pm"}"#, "takes no \"path\""),
            (r#"{"op":"reload","model":null}"#, "takes no \"model\""),
            (r#"{"op":"reload","model":9}"#, "takes no \"model\""),
            (r#"{"op":"checkpoint","path":"ck"}"#, "takes no \"path\""),
            (r#"{"op":"checkpoint","model":"ck"}"#, "takes no \"model\""),
            (r#"{"op":"checkpoint","path":null}"#, "takes no \"path\""),
            (r#"{"op":"checkpoint","path":9}"#, "takes no \"path\""),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line:?} → {err:?}");
        }
    }

    #[test]
    fn error_line_is_json() {
        let line = error_line("boom \"quoted\"");
        let v: Value = serde_json::from_str(&line).unwrap();
        let Value::Map(m) = v else { panic!() };
        assert_eq!(m[0].0, "ok");
        assert_eq!(m[0].1, Value::Bool(false));
    }
}
