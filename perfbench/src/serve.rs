//! `serve-read` and `serve-ingest`: live customers asking the daemon
//! for the top (item, promotion code), with and without sales being
//! ingested beside them.
//!
//! Both are open loops on one connection of `recommend` and `ping` at
//! 7:1 over a 256-customer pool; `serve-ingest` adds a second connection
//! that sends a batch of held-out transactions on its own clock. The
//! load runs in short segments, each followed by a probe of the host's
//! speed (see [`crate::calib`]), and a segment's latencies are taken at
//! the speed of the probes around it. Every answer is checked:
//! byte for byte against the offline rendering while the served model
//! generation is known, for shape otherwise.

use crate::calib::Calibrated;
use crate::daemon::{Client, Daemon, PING};
use crate::fit::POOL;
use crate::load::{self, exact, shape, Check, Stream, StreamResult, Verdict};
use crate::pipeline::{self, prefix, Data, Expected};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{more_setups, stats, Ctx};
use pm_serve::protocol::ingest_line;
use pm_txn::{Transaction, TransactionSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const STATS: &str = r#"{"op":"stats"}"#;

/// `serve-read` arrival rate, requests per second.
const READ_RPS: u64 = 8_000;
/// `serve-ingest` read arrival rate, requests per second.
const MIXED_RPS: u64 = 4_000;
/// Length of one `serve-read` load segment.
const SEGMENT: Duration = Duration::from_millis(1000);
/// Length of one `serve-ingest` segment, and when in it its one ingest
/// batch of [`INGEST_BATCH`] transactions is due. A refit takes about
/// 400 ms; a segment ends when every answer is in, so the next batch is
/// sent after the ack and never queues behind it.
const INGEST_SEGMENT: Duration = Duration::from_millis(600);
const INGEST_DUE: Duration = Duration::from_millis(50);
const INGEST_BATCH: usize = 10;
/// A capacity probe passes when each of this many consecutive windows
/// keeps its p99 within [`CAPACITY_P99_MS`].
const WINDOWS: usize = 4;
/// A generator whose p99 lateness exceeds this no longer offers the
/// load it claims; its run is marked invalid.
const MAX_LAG_P99_MS: f64 = 1.0;
/// The latency limit of the capacity search.
const CAPACITY_P99_MS: f64 = 10.0;

fn is_ping(k: usize) -> bool {
    k % 8 == 7
}

/// The pool entry of read request `k` (pings take every eighth slot).
fn pool_index(k: usize) -> usize {
    (k - (k + 1) / 8) % POOL
}

/// The read stream: `count` reads at `rps`, judged by `check`.
fn reads<'a>(pool: &'a [String], rps: u64, count: usize, check: Check<'a>) -> Stream<'a> {
    Stream {
        first_due: Duration::ZERO,
        interval: Duration::from_nanos(1_000_000_000 / rps),
        count,
        line: Box::new(move |k| {
            if is_ping(k) {
                PING
            } else {
                &pool[pool_index(k) % pool.len()]
            }
        }),
        check,
        is_write: false,
    }
}

/// The exact answer to read `k` from one model generation.
fn exact_read(k: usize, answer: &str, expected: &Expected, pong: &str) -> Verdict {
    if is_ping(k) {
        exact(answer, pong)
    } else {
        exact(
            answer,
            &expected.recommend[pool_index(k) % expected.recommend.len()],
        )
    }
}

/// Recommend latencies (pings excluded), in request order.
fn recommend_ms(s: &StreamResult) -> Vec<f64> {
    s.latency_ms
        .iter()
        .enumerate()
        .filter(|(k, v)| !is_ping(*k) && !v.is_nan())
        .map(|(_, &v)| v)
        .collect()
}

/// Pull an integer field out of a one-line JSON object.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag)? + tag.len();
    line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

/// Daemon-side failure counters from the `stats` op, reported and
/// required to stay at zero.
const STAT_FAILURES: [&str; 6] = [
    "degraded",
    "shed",
    "parse_errors",
    "worker_panics",
    "control_rejected",
    "ingest_failures",
];

/// Read the daemon's counters, record them, and check the failure ones.
fn daemon_stats(r: &mut Report, control: &mut Client) -> Result<(), String> {
    let stats = control.call(STATS)?;
    for key in STAT_FAILURES {
        let v = json_u64(&stats, key);
        r.extra(
            &format!("serve.{key}"),
            v.map_or(f64::NAN, |v| v as f64),
            "count",
        );
        r.check(&format!("daemon stats: {key} is 0"), v == Some(0), || {
            stats.clone()
        });
    }
    Ok(())
}

/// Fold a stream's failures into the report.
fn tally(r: &mut Report, what: &str, s: &StreamResult) {
    r.attempted += s.latency_ms.len() as u64;
    r.failed += (s.failed + s.wrong + s.unanswered) as u64;
    r.check(&format!("{what}: no wrong answers"), s.wrong == 0, || {
        s.first_problem.clone().unwrap_or_default()
    });
    if let Some(p) = s.first_problem.as_ref().filter(|_| s.wrong == 0) {
        eprintln!(
            "[{what}] {} failed, {} unanswered: {p}",
            s.failed, s.unanswered
        );
    }
}

/// Generator lateness: reported, and a run whose p99 exceeds
/// [`MAX_LAG_P99_MS`] is marked invalid.
fn lag(r: &mut Report, streams: &[&StreamResult], gen_cpu_s: f64) {
    let lags: Vec<f64> = streams
        .iter()
        .flat_map(|s| s.lag_ms.iter().copied())
        .collect();
    let sorted = stats::sorted(&lags);
    let p99 = stats::percentile(&sorted, 0.99);
    r.extra("bench.gen_lag_p99_ms", p99, "ms");
    r.extra(
        "bench.gen_lag_max_ms",
        sorted.last().copied().unwrap_or(f64::NAN),
        "ms",
    );
    r.extra(
        "bench.gen_cpu_us_per_request",
        gen_cpu_s / lags.len() as f64 * 1e6,
        "us",
    );
    if p99.is_nan() || p99 > MAX_LAG_P99_MS {
        r.valid = false;
    }
}

/// Client p50 minus what the in-process replay spent in parse,
/// recommend and render: reactor, queue wait and transport.
fn residual(r: &mut Report, tr: &Tracer, client_p50_ms: f64) {
    if tr.enabled() {
        let agg = tr.aggregate();
        let med = |n: &str| agg.get(n).map_or(0.0, |a| a.median_ms());
        let compute = med("serve.parse") + med("core.recommend") + med("serve.render");
        r.extra("serve.residual_p50_ms", client_p50_ms - compute, "ms");
    }
}

/// Record each answered request as a root span from its due time; op
/// ids start after `before`, the requests of earlier segments.
fn record_requests(
    tr: &Tracer,
    name: &'static str,
    before: usize,
    s: &StreamResult,
    stream: &Stream<'_>,
    start: Instant,
) {
    for (k, &ms) in s.latency_ms.iter().enumerate() {
        if !ms.is_nan() {
            let due = start + stream.first_due + stream.interval * k as u32;
            let op = (before + k) as u64;
            tr.record(op, name, due, due + Duration::from_secs_f64(ms / 1e3));
        }
    }
}

/// Percentile `q` of each segment's values.
fn per_segment(segments: &[Vec<f64>], q: f64) -> Vec<f64> {
    segments
        .iter()
        .map(|v| stats::percentile(&stats::sorted(v), q))
        .collect()
}

pub fn read(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::new();
    let data_path = ctx.dir.join("data.json");
    let model_path = ctx.dir.join("model.pm");

    // Set-up: generate the dataset, fit and seal the model the way
    // `profit-mining fit` does, start the daemon on it, and wait for its
    // first answer.
    let mut setup = Calibrated::new();
    let mut live: Option<(Daemon, Client, String, TransactionSet)> = None;
    while more_setups(setup.raw()) {
        if let Some((d, mut c, _, _)) = live.take() {
            d.shutdown(&mut c)?;
        }
        let t = Instant::now();
        let data = pipeline::dataset(Data::Patterns, ctx.txns(10_000), ctx.seed);
        crate::write(&data_path, &data.to_json())?;
        if ctx.tr.enabled() {
            ctx.tr.next_op();
            pipeline::traced_fit(&ctx.tr, &data_path, &model_path)?;
        } else {
            pipeline::cli_fit(&data_path, &model_path)?;
        }
        let (d, c, pong) = Daemon::start(
            &ctx.dir,
            &["--model".into(), model_path.display().to_string()],
        )?;
        setup.record(t.elapsed().as_secs_f64());
        live = Some((d, c, pong, data));
    }
    let (daemon, control, pong, data) = live.expect("at least one set-up ran");
    let pool = pipeline::pool_lines(&data, POOL);
    let expected = pipeline::expected_answers(&ctx.tr, &model_path, &pool)?;
    let pong1 = expected.pong(1);
    r.check(
        "the first ping reports generation 1 and the model's rules",
        pong == pong1,
        || format!("{pong} != {pong1}"),
    );
    drop(control);

    // Measure: open-loop segments at READ_RPS. A segment's median and
    // 90th percentile are taken at the speed of the probes around it.
    let per = (READ_RPS as f64 * SEGMENT.as_secs_f64()) as usize;
    let mut speed = Calibrated::new();
    let mut all = StreamResult::default();
    let mut rec = Vec::new();
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    let mut gen_cpu_s = 0.0;
    let cpu0 = daemon.cpu_s();
    let phase = Instant::now();
    let mut seg = 0;
    while phase.elapsed() < ctx.measure {
        let check: Check<'_> = Box::new(|k, a, _| exact_read(k, a, &expected, &pong1));
        let stream = reads(&pool, READ_RPS, per, check);
        let res = load::run(&daemon.addr, std::slice::from_ref(&stream))?;
        let s = res.streams.into_iter().next().expect("one stream");
        record_requests(&ctx.tr, "bench.request", seg * per, &s, &stream, res.start);
        gen_cpu_s += res.gen_cpu_s;
        let sorted = stats::sorted(&recommend_ms(&s));
        let mid = stats::percentile(&sorted, 0.5);
        let scale = speed.record(mid) / mid;
        p50.push(mid * scale);
        p90.push(stats::percentile(&sorted, 0.9) * scale);
        rec.push(sorted);
        all.append(s);
        seg += 1;
    }
    let cpu1 = daemon.cpu_s();
    tally(&mut r, "reads", &all);
    lag(&mut r, &[&all], gen_cpu_s);

    r.setup(&setup);
    r.e2e("latency_p50_ms", stats::median(&p50), "ms");
    r.layer("latency_p90_ms", stats::median(&p90), "ms");
    let raw_p50 = stats::median(speed.raw());
    r.extra("raw_latency_p50_ms", raw_p50, "ms");
    r.extra(
        "latency_p99_ms",
        stats::median(&per_segment(&rec, 0.99)),
        "ms",
    );
    r.extra(
        "samples",
        rec.iter().map(Vec::len).sum::<usize>() as f64,
        "count",
    );
    r.calibration(&speed);
    let answered = all.latency_ms.iter().filter(|v| !v.is_nan()).count();
    if let (Some(a), Some(b)) = (cpu0, cpu1) {
        r.extra(
            "serve.cpu_us_per_request",
            (b - a) / answered.max(1) as f64 * 1e6,
            "us",
        );
    }
    residual(&mut r, &ctx.tr, raw_p50);
    if ctx.tr.enabled() {
        let rps = capacity(ctx, &daemon.addr, &pool, &expected, &pong1)?;
        r.extra("serve.capacity_rps", rps, "1/s");
    }

    let mut control = Client::connect(&daemon.addr)?;
    daemon_stats(&mut r, &mut control)?;
    r.e2e(
        "peak_rss_mb",
        daemon.peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    daemon.shutdown(&mut control)?;
    Ok(r)
}

/// The highest rate on a 2^(1/8) ladder above [`READ_RPS`] at which the
/// daemon answers every request correctly with p99 within
/// [`CAPACITY_P99_MS`] in every window (a growing backlog fails the last
/// window), while the generator keeps its schedule. The rate doubles
/// until a probe fails, then climbs from the last passing rate one rung
/// at a time.
fn capacity(
    ctx: &Ctx,
    addr: &str,
    pool: &[String],
    expected: &Expected,
    pong: &str,
) -> Result<f64, String> {
    let secs = if ctx.smoke { 0.25 } else { 1.0 };
    let passes = |rps: f64| -> Result<bool, String> {
        let check: Check<'_> = Box::new(|k, a, _| exact_read(k, a, expected, pong));
        let stream = reads(pool, rps as u64, (rps * secs) as usize, check);
        let res = load::run(addr, std::slice::from_ref(&stream))?;
        let s = &res.streams[0];
        let rec = recommend_ms(s);
        let worst_window = rec
            .chunks((rec.len() / WINDOWS).max(1))
            .map(|w| stats::percentile(&stats::sorted(w), 0.99))
            .fold(0.0, f64::max);
        let lag_p99 = stats::percentile(&stats::sorted(&s.lag_ms), 0.99);
        let ok = s.failed + s.wrong + s.unanswered == 0
            && worst_window <= CAPACITY_P99_MS
            && lag_p99 <= MAX_LAG_P99_MS;
        eprintln!(
            "[capacity] {rps:.0}/s: worst-window p99 {worst_window:.3} ms, lag p99 {lag_p99:.3} ms: {}",
            if ok { "ok" } else { "over" }
        );
        Ok(ok)
    };
    let mut best = f64::NAN;
    let mut rps = READ_RPS as f64;
    while rps <= 1e6 && passes(rps)? {
        best = rps;
        rps *= 2.0;
    }
    let base = best;
    for rung in 1..8 {
        if base.is_nan() {
            break;
        }
        let next = base * 2f64.powf(rung as f64 / 8.0);
        if !passes(next)? {
            break;
        }
        best = next;
    }
    Ok(best.round())
}

pub fn ingest(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::new();
    let base_path = ctx.dir.join("base.json");
    let log_path = ctx.dir.join("sales.log");
    let total = ctx.txns(10_000);
    let held = total / 20;
    let base_n = total - held;
    let mut argv = vec![
        "--data".to_string(),
        base_path.display().to_string(),
        "--log".into(),
        log_path.display().to_string(),
    ];
    argv.extend(pipeline::fit_flags());

    // Set-up: generate the stream, write its first `base_n` transactions,
    // start a streaming daemon on them with an empty sales log (it fits
    // the model itself), and wait for its first answer.
    let mut setup = Calibrated::new();
    let mut live: Option<(Daemon, Client, String, TransactionSet)> = None;
    while more_setups(setup.raw()) {
        if let Some((d, mut c, _, _)) = live.take() {
            d.shutdown(&mut c)?;
        }
        let t = Instant::now();
        let data = pipeline::dataset(Data::Patterns, total, ctx.seed);
        crate::write(&base_path, &prefix(&data, base_n).to_json())?;
        let _ = std::fs::remove_file(&log_path);
        let (d, c, pong) = Daemon::start(&ctx.dir, &argv)?;
        setup.record(t.elapsed().as_secs_f64());
        live = Some((d, c, pong, data));
    }
    let (daemon, control, pong, data) = live.expect("at least one set-up ran");
    drop(control);
    let pool = pipeline::pool_lines(&data, POOL);
    let expected = expected_for(ctx, &prefix(&data, base_n), "gen1.pm", &pool)?;
    let pong1 = expected.pong(1);
    r.check(
        "the first ping reports generation 1 and the model's rules",
        pong == pong1,
        || format!("{pong} != {pong1}"),
    );
    let held_txns = &data.transactions()[base_n..];
    let batches: Vec<String> = held_txns
        .chunks_exact(INGEST_BATCH)
        .map(|batch| ingest_line(None, batch))
        .collect();

    // Measure: segments of reads at MIXED_RPS on one connection and one
    // ingest batch on the other, until the phase is over or the held-out
    // transactions run out. An ingest's freshness is taken at the speed
    // of the probes around its segment. Reads answered before the first
    // ingest was sent must be generation 1's answers exactly.
    let per = (MIXED_RPS as f64 * INGEST_SEGMENT.as_secs_f64()) as usize;
    let exact_reads = AtomicUsize::new(0);
    let mut speed = Calibrated::new();
    let (mut reads_all, mut ingests_all) = (StreamResult::default(), StreamResult::default());
    let mut ingest_ms = Vec::new();
    let mut rec = Vec::new();
    let mut gen_cpu_s = 0.0;
    let cpu0 = daemon.cpu_s();
    let phase = Instant::now();
    let mut n_ingests = 0;
    for (seg, batch) in batches.iter().enumerate() {
        if phase.elapsed() >= ctx.measure {
            break;
        }
        n_ingests += 1;
        let read_check: Check<'_> = Box::new(|k, a, writes| {
            if seg == 0 && writes == 0 {
                exact_reads.fetch_add(1, Ordering::Relaxed);
                exact_read(k, a, &expected, &pong1)
            } else if is_ping(k) && !a.starts_with(r#"{"ok":true,"op":"pong","generation":"#) {
                Verdict::Wrong(format!("ping answered {a}"))
            } else {
                shape(a)
            }
        });
        let ingest_check: Check<'_> = Box::new(move |_, a, _| {
            let ack = format!(
                r#"{{"ok":true,"op":"ingested","generation":{},"transactions":{},"rules":"#,
                seg + 2,
                base_n + INGEST_BATCH * (seg + 1)
            );
            match shape(a) {
                Verdict::Ok if !a.starts_with(&ack) => {
                    Verdict::Wrong(format!("ingest {seg} acked {a}"))
                }
                v => v,
            }
        });
        let streams = [
            reads(&pool, MIXED_RPS, per, read_check),
            Stream {
                first_due: INGEST_DUE,
                interval: INGEST_SEGMENT,
                count: 1,
                line: Box::new(|_| batch.as_str()),
                check: ingest_check,
                is_write: true,
            },
        ];
        let res = load::run(&daemon.addr, &streams)?;
        gen_cpu_s += res.gen_cpu_s;
        let mut results = res.streams.into_iter();
        let (rs, is) = (results.next().unwrap(), results.next().unwrap());
        record_requests(
            &ctx.tr,
            "bench.request",
            seg * per,
            &rs,
            &streams[0],
            res.start,
        );
        record_requests(&ctx.tr, "bench.ingest", seg, &is, &streams[1], res.start);
        for ms in is.answered_ms() {
            ingest_ms.push(speed.record(ms));
        }
        rec.push(recommend_ms(&rs));
        reads_all.append(rs);
        ingests_all.append(is);
    }
    let cpu1 = daemon.cpu_s();
    let (rs, is) = (&reads_all, &ingests_all);
    tally(&mut r, "reads", rs);
    tally(&mut r, "ingests", is);
    lag(&mut r, &[rs, is], gen_cpu_s);
    let exact_reads = exact_reads.into_inner();
    r.extra("bench.reads_checked_exactly", exact_reads as f64, "count");
    r.check(
        "some reads were checked against generation 1 byte for byte",
        exact_reads > 0,
        || "every read was answered after the first ingest was sent".into(),
    );

    // After the last ack the daemon must serve exactly a cold fit on the
    // whole stream.
    let final_expected = expected_for(
        ctx,
        &prefix(&data, base_n + n_ingests * INGEST_BATCH),
        "final.pm",
        &pool,
    )?;
    let mut control = Client::connect(&daemon.addr)?;
    let answers = control.pipeline(&pool)?;
    let differing = answers
        .iter()
        .zip(&final_expected.recommend)
        .filter(|(a, b)| a != b)
        .count();
    r.check(
        "after the last ingest, answers equal a cold fit on the whole stream",
        differing == 0,
        || format!("{differing} of {} pool answers differ", pool.len()),
    );
    let last_pong = control.call(PING)?;
    let want = final_expected.pong(n_ingests as u64 + 1);
    r.check(
        "the final generation counts every ingest",
        last_pong == want,
        || format!("{last_pong} != {want}"),
    );

    r.setup(&setup);
    r.latencies(&ingest_ms);
    r.extra("raw_latency_p50_ms", stats::median(speed.raw()), "ms");
    r.samples_ms = ingest_ms;
    r.calibration(&speed);
    let read_p50 = stats::median(&per_segment(&rec, 0.5));
    r.extra("read_p50_ms", read_p50, "ms");
    r.extra("read_p99_ms", stats::median(&per_segment(&rec, 0.99)), "ms");
    let answered = rs.latency_ms.len() + is.latency_ms.len() - rs.unanswered - is.unanswered;
    if let (Some(a), Some(b)) = (cpu0, cpu1) {
        r.extra(
            "serve.cpu_us_per_request",
            (b - a) / answered.max(1) as f64 * 1e6,
            "us",
        );
    }
    residual(&mut r, &ctx.tr, read_p50);
    if ctx.tr.enabled() {
        replay_ingests(ctx, &mut r, &base_path, held_txns)?;
    }
    daemon_stats(&mut r, &mut control)?;
    r.e2e(
        "peak_rss_mb",
        daemon.peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    daemon.shutdown(&mut control)?;
    Ok(r)
}

/// Fit `data` in process, seal the model as `name`, and derive the
/// daemon's expected answers from the sealed file.
pub fn expected_for(
    ctx: &Ctx,
    data: &TransactionSet,
    name: &str,
    pool: &[String],
) -> Result<Expected, String> {
    let path = ctx.dir.join(name);
    ctx.tr.next_op();
    {
        let _f = ctx.tr.span("bench.fit");
        pipeline::fit_and_seal(&ctx.tr, data, &path)?;
    }
    pipeline::expected_answers(&ctx.tr, &path, pool)
}

/// The streaming daemon's path, in process and under spans: decode the
/// base data and fit it incrementally, as at startup, then for a few
/// batches: log append (fsync) → apply → incremental re-mine → build →
/// index.
fn replay_ingests(
    ctx: &Ctx,
    r: &mut Report,
    base: &Path,
    held: &[Transaction],
) -> Result<(), String> {
    use pm_rules::IncrementalMiner;
    use profit_core::{CutConfig, Matcher, RuleModel};
    let tr = &ctx.tr;
    let (log, _) =
        pm_store::log::SalesLog::open(ctx.dir.join("replay.log")).map_err(|e| e.to_string())?;
    tr.next_op();
    let mut stream = {
        let _s = tr.span("txn.decode");
        let text = std::fs::read_to_string(base).map_err(|e| e.to_string())?;
        TransactionSet::from_json(&text)?
    };
    let mut inc = IncrementalMiner::new(pipeline::rule_miner());
    {
        let _s = tr.span("rules.incremental_fit");
        inc.fit(&stream);
    }
    let reused0 = pm_obs::counter("incremental.anchors_reused").get();
    let remined0 = pm_obs::counter("incremental.anchors_remined").get();
    for batch in held.chunks(INGEST_BATCH).take(3) {
        tr.next_op();
        let _op = tr.span("bench.ingest_replay");
        let payload = pm_txn::encode_stream_record(None, batch);
        {
            let _s = tr.span("store.log_append");
            log.append(payload.as_bytes()).map_err(|e| e.to_string())?;
        }
        {
            let _s = tr.span("txn.apply");
            stream
                .apply_stream_record(None, batch)
                .map_err(|e| e.to_string())?;
        }
        let mined = {
            let _s = tr.span("rules.update");
            inc.update(&stream)
        };
        let model = {
            let _s = tr.span("core.build");
            RuleModel::build(&mined, &CutConfig::default())
        };
        let _s = tr.span("core.index");
        drop(Matcher::new(&model));
    }
    let reused = pm_obs::counter("incremental.anchors_reused").get() - reused0;
    let remined = pm_obs::counter("incremental.anchors_remined").get() - remined0;
    let agg = tr.aggregate();
    let med = |n: &str| agg.get(n).map_or(f64::NAN, |a| a.median_ms());
    r.extra("store.log_append_ms", med("store.log_append"), "ms");
    r.extra("rules.update_ms", med("rules.update"), "ms");
    r.extra(
        "rules.anchor_reuse_ratio",
        reused as f64 / (reused + remined) as f64,
        "ratio",
    );
    Ok(())
}
