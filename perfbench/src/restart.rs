//! `restart`: a streaming daemon killed with SIGKILL, restarted from its
//! `PMCK` checkpoint and sales-log tail, until it answers again.
//!
//! Set-up runs a streaming daemon, ingests a few batches, checkpoints
//! (which compacts the log), ingests a few more (the tail a restart must
//! replay), and kills it. Each measured restart then follows the CLI
//! path: decode the base data → open the log → load and decode the
//! checkpoint → resume from the warm miner caches → replay the tail →
//! serve. Restart time runs from spawning the process to the first
//! `ping` answer; every restarted daemon must then answer the request
//! pool exactly as a cold fit on the whole stream does.

use crate::calib::Calibrated;
use crate::daemon::Daemon;
use crate::fit::POOL;
use crate::pipeline::{self, prefix, Data};
use crate::report::Report;
use crate::serve::expected_for;
use crate::{more_setups, stats, Ctx};
use pm_serve::protocol::ingest_line;
use pm_txn::TransactionSet;
use std::path::Path;
use std::time::Instant;

/// Batches ingested before the checkpoint, and after it (the tail).
const BEFORE: usize = 1;
const TAIL: usize = 3;
const BATCH: usize = 10;
/// Fewest timed restarts a run makes.
const MIN_RESTARTS: usize = 3;

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::new();
    let base_path = ctx.dir.join("base.json");
    let log_path = ctx.dir.join("sales.log");
    let ck_path = ctx.dir.join("state.pmck");
    let total = ctx.txns(10_000);
    let base_n = total - (BEFORE + TAIL) * BATCH;
    let mut argv = Vec::new();
    for (flag, path) in [
        ("--data", &base_path),
        ("--log", &log_path),
        ("--checkpoint", &ck_path),
    ] {
        argv.push(flag.into());
        argv.push(path.display().to_string());
    }
    argv.extend(pipeline::fit_flags());

    // Set-up: build the checkpoint and the log tail, then kill the
    // daemon without warning.
    let mut setup = Calibrated::new();
    let mut data = None;
    while more_setups(setup.raw()) {
        let t = Instant::now();
        // Dataset I, the `fit-mine` data: its checkpoint (13 MB) restarts
        // in 40% of the time the `fit-build` data's (21 MB) takes, so a
        // run times about twice as many restarts and its median settles.
        let d = pipeline::dataset(Data::DatasetI, total, ctx.seed);
        crate::write(&base_path, &prefix(&d, base_n).to_json())?;
        for p in [&log_path, &ck_path] {
            let _ = std::fs::remove_file(p);
        }
        let (daemon, mut c, _) = Daemon::start(&ctx.dir, &argv)?;
        let batch = |j: usize| {
            let from = base_n + j * BATCH;
            ingest_line(None, &d.transactions()[from..from + BATCH])
        };
        for j in 0..BEFORE + TAIL {
            if j == BEFORE {
                let ck = c.call(r#"{"op":"checkpoint"}"#)?;
                if !ck.contains(r#""op":"checkpointed""#) {
                    return Err(format!("checkpoint answered {ck}"));
                }
            }
            let ack = c.call(&batch(j))?;
            if !ack.contains(r#""op":"ingested""#) {
                return Err(format!("ingest {j} answered {ack}"));
            }
        }
        daemon.kill();
        setup.record(t.elapsed().as_secs_f64());
        data = Some(d);
    }
    let data = data.expect("at least one set-up ran");
    let stream_n = base_n + (BEFORE + TAIL) * BATCH;
    let full = prefix(&data, stream_n);
    let pool = pipeline::pool_lines(&data, POOL);
    let expected = expected_for(ctx, &full, "expected.pm", &pool)?;
    let pong = expected.pong(1);
    r.extra("store.ckpt_bytes", file_len(&ck_path), "bytes");

    // Measure: restart after restart, each killed once it has answered
    // and timed between two probes of the host's speed.
    let mut restarts = Calibrated::new();
    let mut restart_ms = Vec::new();
    let mut rss_mb = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut wrong = 0usize;
    let phase = Instant::now();
    while phase.elapsed() < ctx.measure || restart_ms.len() < MIN_RESTARTS {
        ctx.tr.next_op();
        let t = Instant::now();
        let (daemon, mut c, first) = Daemon::start(&ctx.dir, &argv)?;
        let done = Instant::now();
        ctx.tr
            .record(restart_ms.len() as u64 + 1, "bench.restart", t, done);
        let answers = c.pipeline(&pool)?;
        let bad = usize::from(first != pong)
            + answers
                .iter()
                .zip(&expected.recommend)
                .filter(|(a, b)| a != b)
                .count();
        if bad > 0 && wrong == 0 {
            eprintln!("[restart] first difference: ping {first} (expected {pong})");
        }
        wrong += bad;
        rss_mb.push(daemon.peak_rss_mb().unwrap_or(f64::NAN));
        cpu_ms.push(daemon.cpu_s().unwrap_or(f64::NAN) * 1e3);
        daemon.kill();
        restart_ms.push(restarts.record((done - t).as_secs_f64() * 1e3));
    }
    r.attempted = restart_ms.len() as u64;
    r.check(
        "every restarted daemon answers as a cold fit on the whole stream",
        wrong == 0,
        || format!("{wrong} answers differ over {} restarts", restart_ms.len()),
    );

    r.setup(&setup);
    r.latencies(&restart_ms);
    r.extra("raw_latency_p50_ms", stats::median(restarts.raw()), "ms");
    r.samples_ms = restart_ms;
    r.calibration(&restarts);
    r.e2e("peak_rss_mb", stats::median(&rss_mb), "MB");
    r.extra("cpu_ms_per_op", stats::median(&cpu_ms), "ms");
    if ctx.tr.enabled() {
        replay(ctx, &mut r, &ctx.dir.join("expected.pm"))?;
    }
    Ok(r)
}

fn file_len(p: &Path) -> f64 {
    std::fs::metadata(p).map_or(f64::NAN, |m| m.len() as f64)
}

/// The restart path, in process and under spans, on the files the
/// daemons restarted from: decode the base data → open the log → load
/// and decode the checkpoint → decode its data and restore the miner →
/// rebuild the model from the warm caches → apply and re-mine the tail
/// → build → index. The result must be the model sealed at
/// `expected_model`, byte for byte.
fn replay(ctx: &Ctx, r: &mut Report, expected_model: &Path) -> Result<(), String> {
    use pm_rules::IncrementalMiner;
    use profit_core::{Checkpoint, CutConfig, Matcher, RuleModel};
    let tr = &ctx.tr;
    let err = |e: &dyn std::fmt::Display| e.to_string();
    tr.next_op();
    let _op = tr.span("bench.restart_replay");
    let text = {
        let _s = tr.span("io.read");
        std::fs::read_to_string(ctx.dir.join("base.json")).map_err(|e| err(&e))?
    };
    {
        let _s = tr.span("txn.decode");
        TransactionSet::from_json(&text)?;
    }
    let (_log, recovery) = {
        let _s = tr.span("store.log_open");
        pm_store::log::SalesLog::open(ctx.dir.join("sales.log")).map_err(|e| err(&e))?
    };
    let bytes = {
        let _s = tr.span("store.ckpt_load");
        pm_store::checkpoint::load(ctx.dir.join("state.pmck")).map_err(|e| err(&e))?
    };
    let ck = {
        let _s = tr.span("core.ckpt_decode");
        Checkpoint::decode(&bytes)?
    };
    let mut data = {
        let _s = tr.span("txn.decode");
        TransactionSet::from_json(&ck.data_json)?
    };
    let mut inc = {
        let _s = tr.span("rules.restore");
        IncrementalMiner::restore(pipeline::rule_miner(), &data, &ck.miner)?
    };
    let cut = CutConfig::default();
    let resumed = {
        let _s = tr.span("rules.update");
        inc.update(&data)
    };
    {
        let _s = tr.span("core.build");
        drop(RuleModel::build(&resumed, &cut));
    }
    let skip = pm_store::checkpoint::plan_replay(
        ck.stream_pos,
        recovery.base,
        recovery.records.len() as u64,
    )
    .map_err(|e| err(&e))?;
    {
        let _s = tr.span("txn.apply");
        for payload in &recovery.records[skip..] {
            let text = std::str::from_utf8(payload).map_err(|e| err(&e))?;
            let (delta, batch) = pm_txn::decode_stream_record(text)?;
            data.apply_stream_record(delta.as_ref(), &batch)
                .map_err(|e| err(&e))?;
        }
    }
    let mined = {
        let _s = tr.span("rules.update");
        inc.update(&data)
    };
    let model = {
        let _s = tr.span("core.build");
        RuleModel::build(&mined, &cut)
    };
    {
        let _s = tr.span("core.index");
        drop(Matcher::new(&model));
    }
    let replayed = serde_json::to_string(&model.save()).map_err(|e| err(&e))?;
    let (cold, _) = pm_store::load_model_file(expected_model).map_err(|e| err(&e))?;
    r.check(
        "the replayed restart path rebuilds the cold-fit model",
        replayed.as_bytes() == cold,
        || "model bytes differ".into(),
    );
    let agg = tr.aggregate();
    let med = |n: &str| agg.get(n).map_or(f64::NAN, |a| a.median_ms());
    for name in [
        "store.log_open",
        "store.ckpt_load",
        "core.ckpt_decode",
        "rules.restore",
    ] {
        r.extra(&format!("{name}_ms"), med(name), "ms");
    }
    Ok(())
}
