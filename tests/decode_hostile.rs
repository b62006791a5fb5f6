//! Hostile input for every decoder that reads untrusted bytes: through
//! the JSON pull parser, data files, sealed models, checkpoints, miner
//! snapshots, sales-log records (both forms) and wire requests; through
//! the CSV parser, `import`'s catalog and sales files.
//!
//! The inputs are every truncation of a small valid document, plus
//! random byte flips, splices and deep-nesting inserts. Each input must
//! decode or return an error — never panic, never hang — and every
//! success must re-encode to bytes that decode to the same value (the
//! same bytes again). The wire requests also go, as lines, to a live
//! daemon, which must answer each one and stay up. `PROPTEST_CASES`
//! scales the random part.

use pm_datagen::{DatasetConfig, HierarchyConfig};
use pm_rules::{MinerConfig, MinerSnapshot, Support};
use pm_serve::protocol::{ingest_line, parse_request, Request};
use pm_serve::{ServeConfig, Server};
use pm_txn::csv::{parse_catalog, parse_sales, to_csv};
use pm_txn::{
    decode_stream_record, encode_stream_record, CatalogDelta, ItemId, NewConcept, NewItem,
    TransactionSet,
};
use profit_core::{Checkpoint, ProfitMiner, Recommender};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// A decoder under test: `Some(re-encoded bytes)` on success, `None` on
/// a typed error.
type Decode = fn(&[u8]) -> Option<Vec<u8>>;

struct Target {
    name: &'static str,
    doc: Vec<u8>,
    decode: Decode,
}

fn text(bytes: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(bytes)
}

fn dataset(b: &[u8]) -> Option<Vec<u8>> {
    let data = TransactionSet::from_json(&text(b)).ok()?;
    Some(data.to_json().into_bytes())
}

/// The payload sealed into a valid envelope, then loaded as a daemon
/// loads a model file. A model that loads must also answer.
fn sealed_model(b: &[u8]) -> Option<Vec<u8>> {
    let path = std::env::temp_dir().join(format!(
        "pm-decode-hostile-{}-{:?}.pm",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, pm_store::envelope::seal(b)).unwrap();
    let loaded = pm_serve::load_model(&path);
    std::fs::remove_file(&path).unwrap();
    let model = loaded.ok()?;
    model.recommend(&[]);
    Some(serde_json::to_string(&model.save()).unwrap().into_bytes())
}

fn checkpoint(b: &[u8]) -> Option<Vec<u8>> {
    Checkpoint::decode(b).ok().map(|c| c.encode())
}

fn miner_snapshot(b: &[u8]) -> Option<Vec<u8>> {
    let s: MinerSnapshot = serde_json::from_str(&text(b)).ok()?;
    Some(serde_json::to_string(&s).unwrap().into_bytes())
}

fn stream_record(b: &[u8]) -> Option<Vec<u8>> {
    let (delta, txns) = decode_stream_record(&text(b)).ok()?;
    Some(encode_stream_record(delta.as_ref(), &txns).into_bytes())
}

/// [`data`] as `export` writes it: the catalog CSV and the sales CSV.
fn csvs() -> &'static (String, String) {
    static CSVS: OnceLock<(String, String)> = OnceLock::new();
    CSVS.get_or_init(|| to_csv(&data()))
}

/// `import` of this catalog with the valid sales, re-exported.
fn catalog_csv(b: &[u8]) -> Option<Vec<u8>> {
    let (catalog, names) = parse_catalog(&text(b)).ok()?;
    let data = parse_sales(&csvs().1, catalog, &names).ok()?;
    Some(to_csv(&data).0.into_bytes())
}

/// `import` of the valid catalog with these sales, re-exported.
fn sales_csv(b: &[u8]) -> Option<Vec<u8>> {
    let (catalog, names) = parse_catalog(&csvs().0).unwrap();
    let data = parse_sales(&text(b), catalog, &names).ok()?;
    Some(to_csv(&data).1.into_bytes())
}

fn request(b: &[u8]) -> Option<Vec<u8>> {
    let quoted = |s: &str| serde_json::to_string(s).unwrap();
    let optional = |key: &str, s: &Option<String>| match s {
        Some(s) => format!(r#","{key}":{}"#, quoted(s)),
        None => String::new(),
    };
    let line = match parse_request(&text(b)).ok()? {
        Request::Ping => r#"{"op":"ping"}"#.to_string(),
        Request::Stats => r#"{"op":"stats"}"#.to_string(),
        Request::Shutdown => r#"{"op":"shutdown"}"#.to_string(),
        Request::Reload => r#"{"op":"reload"}"#.to_string(),
        Request::Checkpoint => r#"{"op":"checkpoint"}"#.to_string(),
        Request::Recommend { sales, top, target } => {
            let sales: Vec<String> = sales
                .iter()
                .map(|s| format!("[{},{},{}]", s.item.0, s.code.0, s.qty))
                .collect();
            format!(
                r#"{{"op":"recommend","sales":[{}],"top":{top}{}}}"#,
                sales.join(","),
                optional("target", &target)
            )
        }
        Request::Ingest { catalog, txns } => ingest_line(catalog.as_ref(), &txns),
    };
    Some(line.into_bytes())
}

fn pipeline() -> ProfitMiner {
    ProfitMiner::new(MinerConfig {
        min_support: Support::Fraction(0.5),
        max_body_len: 1,
        ..MinerConfig::default()
    })
}

/// The dataset every document is drawn from.
fn data() -> TransactionSet {
    DatasetConfig::dataset_i()
        .with_transactions(10)
        .with_items(6)
        .with_hierarchy(HierarchyConfig {
            branching: 2,
            levels: 2,
        })
        .generate(&mut StdRng::seed_from_u64(5))
}

/// One small valid document per decoder.
fn targets() -> &'static [Target] {
    static TARGETS: OnceLock<Vec<Target>> = OnceLock::new();
    TARGETS.get_or_init(|| {
        let data = data();
        let mut miner = pipeline().into_incremental();
        let model = miner.fit(&data);
        let snapshot = miner.snapshot().unwrap();
        let ck = Checkpoint {
            stream_pos: 3,
            data_json: serde_json::to_string(&data).unwrap(),
            miner: snapshot.clone(),
        };
        let txns = &data.transactions()[..3];
        let delta = CatalogDelta {
            concepts: vec![NewConcept {
                name: "grown".into(),
                parents: vec![],
            }],
            items: vec![NewItem {
                def: data.catalog().item(ItemId(0)).clone(),
                parents: vec![],
            }],
        };
        let json = |v: String| v.into_bytes();
        vec![
            Target {
                name: "TransactionSet::from_json",
                doc: json(data.to_json()),
                decode: dataset,
            },
            Target {
                name: "load_model",
                doc: json(serde_json::to_string(&model.save()).unwrap()),
                decode: sealed_model,
            },
            Target {
                name: "Checkpoint::decode",
                doc: ck.encode(),
                decode: checkpoint,
            },
            Target {
                name: "MinerSnapshot",
                doc: json(serde_json::to_string(&snapshot).unwrap()),
                decode: miner_snapshot,
            },
            Target {
                name: "decode_stream_record (array)",
                doc: json(encode_stream_record(None, txns)),
                decode: stream_record,
            },
            Target {
                name: "decode_stream_record (catalog)",
                doc: json(encode_stream_record(Some(&delta), txns)),
                decode: stream_record,
            },
            Target {
                name: "parse_request",
                doc: json(ingest_line(Some(&delta), txns)),
                decode: request,
            },
            Target {
                name: "parse_catalog",
                doc: csvs().0.clone().into_bytes(),
                decode: catalog_csv,
            },
            Target {
                name: "parse_sales",
                doc: csvs().1.clone().into_bytes(),
                decode: sales_csv,
            },
            Target {
                name: "parse_request (recommend)",
                doc: json(
                    r#"{"op":"recommend","sales":[[3,0,2],[5,1,1]],"top":2,"target":"codes:0"}"#
                        .into(),
                ),
                decode: request,
            },
        ]
    })
}

/// Decode `input`; on success, the re-encoding must decode to itself.
fn check(t: &Target, input: &[u8], what: &str) -> Result<(), String> {
    let Some(first) = (t.decode)(input) else {
        return Ok(());
    };
    match (t.decode)(&first) {
        Some(second) if second == first => Ok(()),
        Some(_) => Err(format!("{}: {what}: re-encoding is not stable", t.name)),
        None => Err(format!("{}: {what}: re-encoding does not decode", t.name)),
    }
}

#[test]
fn valid_documents_decode_and_re_encode_to_themselves() {
    for t in targets() {
        let first = (t.decode)(&t.doc).unwrap_or_else(|| panic!("{} must decode", t.name));
        check(t, &first, "valid").unwrap();
    }
}

#[test]
fn every_truncation_decodes_or_errors() {
    for t in targets() {
        for end in 0..t.doc.len() {
            check(t, &t.doc[..end], &format!("truncated at {end}")).unwrap();
        }
    }
}

/// Prices and costs that parse as finite numbers but have no `i64` cent
/// count are a `CsvError` naming the line and the field, not a panic in
/// `Money`.
#[test]
fn csv_amounts_past_the_cent_range_are_errors() {
    let header = "item,role,price,cost,pack\n";
    for (row, field) in [
        ("Milk,target,1e300,1,1", "price"),
        ("Milk,target,1,1e300,1", "cost"),
    ] {
        let e = parse_catalog(&format!("{header}Bread,nontarget,1,1,1\n{row}\n")).unwrap_err();
        assert_eq!((e.role, e.line), ("catalog", 3), "{row}: {e}");
        assert!(e.message.starts_with(field), "{row}: {e}");
    }
}

/// One case's random mutations: a byte flip, a splice of the document
/// into itself, and a run of openers inserted (deep nesting).
type Mutation = ((usize, u8), (usize, usize, usize), (usize, usize, usize));

fn mutation() -> impl Strategy<Value = Mutation> {
    (
        (0usize..1 << 20, 0u8..255),
        (0usize..1 << 20, 0usize..64, 0usize..1 << 20),
        (0usize..1 << 20, 1usize..4096, 0usize..3),
    )
}

/// `doc` mutated by one case, each input with what was done to it.
fn mutants(doc: &[u8], (flip, splice, nest): Mutation) -> [(String, Vec<u8>); 3] {
    let n = doc.len();

    let mut flipped = doc.to_vec();
    flipped[flip.0 % n] = flip.1;

    let (from, len, at) = (splice.0 % n, splice.1, splice.2 % n);
    let piece = &doc[from..(from + len).min(n)];
    let mut spliced = doc[..at].to_vec();
    spliced.extend_from_slice(piece);
    spliced.extend_from_slice(&doc[at..]);

    let opener = ["[", "{\"k\":", "[{\"k\":"][nest.2];
    let nest_at = nest.0 % (n + 1);
    let mut nested = doc[..nest_at].to_vec();
    nested.extend_from_slice(opener.repeat(nest.1).as_bytes());
    nested.extend_from_slice(&doc[nest_at..]);

    [
        (format!("byte {} set to {}", flip.0 % n, flip.1), flipped),
        (format!("{len} bytes from {from} spliced at {at}"), spliced),
        (format!("{} x {opener:?} at {nest_at}", nest.1), nested),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flips_splices_and_deep_nesting_decode_or_error(m in mutation()) {
        for t in targets() {
            for (what, input) in mutants(&t.doc, m) {
                check(t, &input, &what)?;
            }
        }
    }
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    BufReader::new(stream)
}

/// Send `doc` as a line and read one answer for each line the daemon
/// sees in it: a `\n` inside `doc` ends a line, and a blank line is not
/// answered. A line that is not UTF-8 is answered, then the daemon
/// closes the connection and drops what follows, so the client
/// reconnects. Returns the last answer.
fn send(conn: &mut BufReader<TcpStream>, doc: &[u8], what: &str) -> Result<String, String> {
    let addr = conn.get_ref().peer_addr().unwrap();
    conn.get_mut().write_all(&[doc, b"\n"].concat()).unwrap();
    let mut last = String::new();
    for line in doc.split(|&b| b == b'\n') {
        let text = std::str::from_utf8(line);
        if text.is_ok_and(|t| t.trim().is_empty()) {
            continue;
        }
        last.clear();
        conn.read_line(&mut last)
            .map_err(|e| format!("{what}: no answer: {e}"))?;
        if !(last.starts_with(r#"{"ok":"#) && last.ends_with("}\n")) {
            return Err(format!("{what}: answered {last:?}"));
        }
        if text.is_err() {
            conn.read_to_end(&mut Vec::new()).unwrap();
            *conn = connect(addr);
            break;
        }
    }
    Ok(last)
}

/// The wire documents as a client sends them: every truncation and each
/// case's mutants go as lines to one in-process streaming daemon on the
/// documents' dataset, so a mutated ingest that validates reaches the
/// log and refits. Each line gets one answer, and afterwards no request
/// has panicked and the daemon still answers `ping`.
#[test]
fn a_live_daemon_answers_every_mutated_request() {
    let log = std::env::temp_dir().join(format!("pm-decode-hostile-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let cfg = ServeConfig::default();
    let server = Server::start_streaming("127.0.0.1:0", data(), &log, pipeline(), cfg).unwrap();
    let mut live = connect(server.addr());
    let docs: Vec<&[u8]> = targets()
        .iter()
        .filter(|t| t.name.starts_with("parse_request"))
        .map(|t| t.doc.as_slice())
        .collect();
    for doc in &docs {
        for end in 0..=doc.len() {
            send(&mut live, &doc[..end], &format!("truncated at {end}")).unwrap();
        }
    }
    proptest::run_cases(
        &ProptestConfig::with_cases(64),
        "a_live_daemon_answers_every_mutated_request",
        |rng| {
            let m = mutation().gen_value(rng);
            for doc in &docs {
                for (what, input) in mutants(doc, m) {
                    send(&mut live, &input, &what)?;
                }
            }
            Ok(())
        },
    );
    let stats = send(&mut live, br#"{"op":"stats"}"#, "stats").unwrap();
    assert!(stats.contains(r#""worker_panics":0,"#), "{stats}");
    // Some mutants still validate, so both paths were exercised.
    for served in [r#""recommends":0,"#, r#""ingests":0,"#] {
        assert!(!stats.contains(served), "{stats}");
    }
    let pong = send(&mut live, br#"{"op":"ping"}"#, "ping").unwrap();
    assert!(pong.contains(r#""op":"pong""#), "{pong}");
    send(&mut live, br#"{"op":"shutdown"}"#, "shutdown").unwrap();
    server.join();
    std::fs::remove_file(&log).ok();
}
