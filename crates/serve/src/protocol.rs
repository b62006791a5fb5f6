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
//! Requests decode straight off the workspace's JSON pull parser
//! ([`serde::Deserializer`]); no tree is built. [`parse_request`] reads
//! the top level for `op`, then decodes the fields that op reads into
//! its wire struct. A field of another op is skipped untyped, `null`
//! reads as absent for every optional field, and ids and quantities
//! must be written as integers.
//!
//! Responses always carry `"ok"`; errors carry `"error"` with a
//! human-readable message. Recommendation responses carry `"degraded"`
//! (true when the answer came from the §3.2 default rule because the
//! matcher errored or the compute deadline was blown) and `"recs"`.
//! Field order is fixed, so byte-level determinism of responses can be
//! asserted in tests.

use pm_txn::{CatalogDelta, CodeId, ItemId, Sale, Transaction};
use profit_core::RuleModel;
use serde::{Deserialize, Deserializer, Serialize, Value};

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
    /// Write a crash-recovery checkpoint (stream position, the stream's
    /// data and the miner's warm caches) to the daemon's configured
    /// checkpoint file and compact the sales log behind it. Only served
    /// by daemons started in streaming mode.
    Checkpoint,
    /// Serving counters snapshot.
    Stats,
    /// Stop the daemon.
    Shutdown,
}

/// A JSON integer ≥ 0 written as one: a `u64` field would also take
/// `2.0` and `2e0`, which the wire refuses.
struct Int(u64);

impl Deserialize for Int {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, serde::Error> {
        d.natural("u64").map(Int)
    }
}

/// A sale as the wire writes it: `[item, code, qty]`.
#[derive(Deserialize)]
struct ItemCodeQty(Int, Int, Int);

impl ItemCodeQty {
    /// The sale, or an error naming `what` when an id or the quantity is
    /// out of range.
    fn sale(self, what: impl FnOnce() -> String) -> Result<Sale, String> {
        let ItemCodeQty(Int(item), Int(code), Int(qty)) = self;
        match (u32::try_from(item), u16::try_from(code), u32::try_from(qty)) {
            (Ok(item), Ok(code), Ok(qty)) if qty > 0 => {
                Ok(Sale::new(ItemId(item), CodeId(code), qty))
            }
            _ => Err(format!("bad request: {} is out of range", what())),
        }
    }
}

/// An optional list of sales (absent or `null` is none), each error
/// naming the sale's index through `what`.
fn sales(
    list: Option<Vec<ItemCodeQty>>,
    what: impl Fn(usize) -> String,
) -> Result<Vec<Sale>, String> {
    let list = list.unwrap_or_default().into_iter().enumerate();
    list.map(|(i, s)| s.sale(|| what(i))).collect()
}

/// The fields `recommend` reads, all optional.
#[derive(Deserialize)]
struct RecommendFields {
    sales: Option<Vec<ItemCodeQty>>,
    top: Option<Int>,
    target: Option<String>,
}

/// One transaction of an `ingest` batch.
#[derive(Deserialize)]
struct TxnFields {
    sales: Option<Vec<ItemCodeQty>>,
    target: ItemCodeQty,
}

/// The fields `ingest` reads.
#[derive(Deserialize)]
struct IngestFields {
    txns: Vec<TxnFields>,
    catalog: Option<CatalogDelta>,
}

/// The error for a line refused because `why`, unless the line holds a
/// syntax error, which a whole-line parse reports first.
fn refused(line: &str, why: &str) -> String {
    let mut d = Deserializer::new(line);
    match d.skip_value().and_then(|()| d.end()) {
        Err(e) => format!("bad request: {e}"),
        Ok(()) => format!("bad request: {why}"),
    }
}

/// The top level of a request line: its `op`, and the first of `model`
/// and `path` it carries, whatever the value. Every other value is
/// skipped, checked for syntax but not typed.
fn top_level(line: &str) -> Result<(String, Option<&'static str>), String> {
    let syntax = |e: serde::Error| format!("bad request: {e}");
    let mut d = Deserializer::new(line);
    if d.begin_map("request").is_err() {
        return Err(refused(line, "expected a JSON object"));
    }
    let (mut op, mut model, mut path) = (None, false, false);
    while let Some(key) = d.next_key().map_err(syntax)? {
        if key == "op" && op.is_none() {
            match String::deserialize(&mut d) {
                Ok(s) => op = Some(s),
                Err(_) => return Err(refused(line, "\"op\" must be a string")),
            }
        } else {
            model |= key == "model";
            path |= key == "path";
            d.skip_value().map_err(syntax)?;
        }
    }
    d.end().map_err(syntax)?;
    let op = op.ok_or("bad request: missing \"op\"")?;
    let file_key = [("model", model), ("path", path)]
        .into_iter()
        .find_map(|(key, named)| named.then_some(key));
    Ok((op, file_key))
}

/// The fields the line's op reads. The line's syntax is checked already,
/// so an error here is a type or shape error.
fn fields<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line).map_err(|e| format!("bad request: {e}"))
}

/// Parse one request line. Errors are complete human-readable messages
/// (they go straight into the `"error"` field of the response).
///
/// The line is read off the pull parser once for its `op`, with every
/// value's syntax checked, then, for `recommend` and `ingest`, again into
/// the op's wire struct, so a field only another op reads is never typed.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let (op, file_key) = top_level(line)?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "reload" | "checkpoint" => match file_key {
            Some(key) => Err(format!(
                "bad request: {op} takes no {key:?} — the daemon reads and writes only the \
                 files it was started with"
            )),
            None if op == "reload" => Ok(Request::Reload),
            None => Ok(Request::Checkpoint),
        },
        "recommend" => {
            let f: RecommendFields = fields(line)?;
            let top = match f.top {
                None => 1,
                Some(Int(0)) => return Err("bad request: \"top\" must be ≥ 1".into()),
                Some(Int(t)) => t.min(1024) as usize,
            };
            let sales = sales(f.sales, |i| format!("sales[{i}]"))?;
            Ok(Request::Recommend {
                sales,
                top,
                target: f.target,
            })
        }
        "ingest" => {
            let f: IngestFields = fields(line)?;
            if f.txns.is_empty() {
                return Err("bad request: \"txns\" is empty — nothing to ingest".into());
            }
            let txns = f.txns.into_iter().enumerate().map(|(i, t)| {
                let sales = sales(t.sales, |j| format!("txns[{i}].sales[{j}]"))?;
                Ok(Transaction::new(
                    sales,
                    t.target.sale(|| format!("txns[{i}].target"))?,
                ))
            });
            Ok(Request::Ingest {
                catalog: f.catalog,
                txns: txns.collect::<Result<_, String>>()?,
            })
        }
        other => Err(format!(
            "bad request: unknown op {other:?} (expected ping, recommend, reload, ingest, \
             checkpoint, stats, or shutdown)"
        )),
    }
}

/// The complete `ingest` request line for a batch, with the catalog
/// delta spliced in when present — the client-side counterpart of the
/// `ingest` parser above.
pub fn ingest_line(catalog: Option<&CatalogDelta>, txns: &[Transaction]) -> String {
    let sale = |s: &Sale| {
        let ids: [u64; 3] = [s.item.0.into(), s.code.0.into(), s.qty.into()];
        Value::Seq(ids.map(Value::U64).into())
    };
    let txn = |t: &Transaction| {
        let sales = t.non_target_sales().iter().map(sale).collect();
        obj(vec![
            ("sales", Value::Seq(sales)),
            ("target", sale(t.target_sale())),
        ])
    };
    let mut entries = vec![("op", Value::Str("ingest".into()))];
    entries.extend(catalog.map(|d| ("catalog", d.ser_value())));
    entries.push(("txns", Value::Seq(txns.iter().map(txn).collect())));
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

    fn sale(item: u32, code: u16, qty: u32) -> Sale {
        Sale::new(ItemId(item), CodeId(code), qty)
    }

    fn recommend(sales: Vec<Sale>, top: usize, target: Option<&str>) -> Request {
        let target = target.map(Into::into);
        Request::Recommend { sales, top, target }
    }

    fn ingest(txns: Vec<Transaction>) -> Request {
        Request::Ingest {
            catalog: None,
            txns,
        }
    }

    #[test]
    fn parses_every_op() {
        let none = || recommend(vec![], 1, None);
        let one_txn = || ingest(vec![Transaction::new(vec![], sale(0, 0, 1))]);
        for (line, want) in [
            (r#"{"op":"ping"}"#, Request::Ping),
            (r#"{"op":"stats"}"#, Request::Stats),
            (r#"{"op":"shutdown"}"#, Request::Shutdown),
            (r#"{"op":"reload"}"#, Request::Reload),
            (r#"{"op":"checkpoint"}"#, Request::Checkpoint),
            (
                r#"{"op":"recommend","sales":[[0,0,1],[2,1,3]],"top":2}"#,
                recommend(vec![sale(0, 0, 1), sale(2, 1, 3)], 2, None),
            ),
            // All recommend fields are optional; the target spec rides
            // along raw, resolved against the snapshot that answers.
            (r#"{"op":"recommend"}"#, none()),
            (
                r#"{"op":"recommend","target":"codes:0","top":3}"#,
                recommend(vec![], 3, Some("codes:0")),
            ),
            (
                r#"{"op":"ingest","txns":[{"sales":[[1,0,2],[3,1,1]],"target":[0,0,4]}]}"#,
                ingest(vec![Transaction::new(
                    vec![sale(1, 0, 2), sale(3, 1, 1)],
                    sale(0, 0, 4),
                )]),
            ),
            // `null` reads as absent for every optional field.
            (
                r#"{"op":"recommend","sales":null,"top":null,"target":null}"#,
                none(),
            ),
            (
                r#"{"op":"ingest","txns":[{"sales":null,"target":[0,0,1]}]}"#,
                one_txn(),
            ),
            // A field only another op reads is skipped whatever its type,
            // `op` may come anywhere, and the first of duplicate keys wins.
            (r#"{"op":"ping","sales":3,"txns":{}}"#, Request::Ping),
            (
                r#"{"txns":7,"catalog":1,"model":"m","op":"recommend"}"#,
                none(),
            ),
            (
                r#"{"op":"ingest","top":"x","txns":[{"target":[0,0,1]}]}"#,
                one_txn(),
            ),
            (r#"{"op":"stats","op":7}"#, Request::Stats),
        ] {
            assert_eq!(parse_request(line).unwrap(), want, "{line}");
        }
    }

    #[test]
    fn ingest_line_round_trips_through_parse_request() {
        let txns = vec![
            Transaction::new(vec![sale(5, 1, 2), sale(2, 0, 1)], sale(0, 2, 3)),
            Transaction::new(vec![], sale(1, 0, 1)),
        ];
        let line = ingest_line(None, &txns);
        assert_eq!(
            line,
            r#"{"op":"ingest","txns":[{"sales":[[2,0,1],[5,1,2]],"target":[0,2,3]},{"sales":[],"target":[1,0,1]}]}"#
        );
        assert_eq!(parse_request(&line).unwrap(), ingest(txns));
    }

    #[test]
    fn ingest_line_carries_the_catalog_delta() {
        use pm_txn::{ItemDef, Money, NewItem, PromotionCode};
        let txns = vec![Transaction::new(vec![], sale(0, 0, 1))];
        let def = ItemDef {
            name: "new-item".into(),
            codes: vec![PromotionCode::unit(
                Money::from_cents(120),
                Money::from_cents(70),
            )],
            is_target: false,
        };
        let catalog = Some(CatalogDelta {
            concepts: vec![],
            items: vec![NewItem {
                def,
                parents: vec![],
            }],
        });
        let line = ingest_line(catalog.as_ref(), &txns);
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Ingest { catalog, txns }
        );
    }

    #[test]
    fn rejects_malformed_requests_with_clear_messages() {
        // A wrong-typed value is named by its kind, never echoed.
        let big = r#"{"op":"recommend","target":["#.to_owned() + &"1,".repeat(9999) + "1]}";
        for (line, needle) in [
            ("not json", "bad request"),
            ("[1,2]", "JSON object"),
            (r#"{"no_op":1}"#, "missing \"op\""),
            (r#"{"op":7}"#, "\"op\" must be a string"),
            (r#"{"op":null}"#, "\"op\" must be a string"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (
                r#"{"op":"recommend","sales":[[1,2]]}"#,
                "field sales: [0]: ItemCodeQty: expected 3",
            ),
            (
                r#"{"op":"recommend","sales":[[1,2,0]]}"#,
                "sales[0] is out of range",
            ),
            (
                r#"{"op":"recommend","sales":[[0,0,4294967296]]}"#,
                "out of range",
            ),
            (
                r#"{"op":"recommend","sales":[[1.0,0,1]]}"#,
                "field sales: [0]: u64: expected non-neg",
            ),
            (
                r#"{"op":"recommend","sales":3}"#,
                "field sales: Vec: expected array",
            ),
            (r#"{"op":"recommend","top":0}"#, "≥ 1"),
            (
                r#"{"op":"recommend","top":2.0}"#,
                "field top: u64: expected non-neg",
            ),
            (
                r#"{"op":"recommend","target":7}"#,
                "field target: String: expected",
            ),
            (&*big, "field target: String: expected string, got an array"),
            (r#"{"op":"ingest"}"#, "missing field txns"),
            (
                r#"{"op":"ingest","txns":null}"#,
                "field txns: Vec: expected array",
            ),
            (r#"{"op":"ingest","txns":[]}"#, "nothing to ingest"),
            (
                r#"{"op":"ingest","txns":[7]}"#,
                "field txns: [0]: TxnFields: expected object",
            ),
            (
                r#"{"op":"ingest","txns":[{"sales":[]}]}"#,
                "field txns: [0]: missing field target",
            ),
            (
                r#"{"op":"ingest","txns":[{"sales":[[1,2]],"target":[0,0,1]}]}"#,
                "field txns: [0]: field sales: [0]: ItemCodeQty: expected 3",
            ),
            (
                r#"{"op":"ingest","txns":[{"target":[0,0,1]},{"sales":[[0,0,1],[1,2]],"target":[0,0,1]}]}"#,
                "field txns: [1]: field sales: [1]: ItemCodeQty: expected 3 elements, got 2",
            ),
            (
                r#"{"op":"ingest","txns":[{"sales":[],"target":[0,0,0]}]}"#,
                "txns[0].target is out of range",
            ),
            (
                r#"{"op":"ingest","txns":[{"sales":[],"target":[0,0,1]}],"catalog":7}"#,
                "field catalog: CatalogDelta: expected object",
            ),
            (
                r#"{"op":"ingest","txns":[{"sales":[],"target":[0,0,1]}],"catalog":{"x":1}}"#,
                "field catalog: missing field concepts",
            ),
            // A syntax error anywhere is reported before any type error.
            (r#"{"op":7,"x":[1,]}"#, "JSON parse error at byte 15"),
            (
                r#"{"op":"recommend","sales":3,"x":[1,]}"#,
                "parse error at byte 35",
            ),
            // The wire names no files: any "model" or "path" is refused.
            (r#"{"op":"reload","model":"m.pm"}"#, "takes no \"model\""),
            (r#"{"op":"reload","path":"m.pm"}"#, "takes no \"path\""),
            (r#"{"op":"reload","model":null}"#, "takes no \"model\""),
            (r#"{"op":"reload","model":9}"#, "takes no \"model\""),
            (
                r#"{"op":"reload","path":1,"model":2}"#,
                "takes no \"model\"",
            ),
            (r#"{"op":"checkpoint","path":"ck"}"#, "takes no \"path\""),
            (r#"{"op":"checkpoint","model":"ck"}"#, "takes no \"model\""),
            (r#"{"op":"checkpoint","path":null}"#, "takes no \"path\""),
            (r#"{"op":"checkpoint","path":9}"#, "takes no \"path\""),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.starts_with("bad request: "), "{line:?} → {err:?}");
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
