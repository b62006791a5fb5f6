//! `fit-mine` and `fit-build`: an analyst fitting a recommender from a
//! dataset file, back to back, for the whole measured phase.
//!
//! One fit is the `profit-mining fit` command run in this process, from
//! the dataset JSON on disk to the sealed model file. The two workloads
//! differ only in their data: Dataset I's default pattern table leaves
//! few mined rules per basket, so mining and JSON decode dominate and
//! model build is about a tenth; the 200-pattern `bench_dataset` shares
//! more structure between baskets, mines ~6× the rules, and model build
//! becomes at least half of a fit.

use crate::calib::Calibrated;
use crate::pipeline::{self, cli_fit, traced_fit, Data};
use crate::report::Report;
use crate::{more_setups, stats, Ctx, Workload};
use pm_txn::TransactionSet;
use std::time::Instant;

/// Requests in the answer pool built from each dataset.
pub const POOL: usize = 256;

/// Fewest timed fits a run makes, however slow a fit gets.
const MIN_FITS: usize = 5;

pub fn run(ctx: &Ctx, workload: Workload) -> Result<Report, String> {
    let mut r = Report::new();
    let data_path = ctx.dir.join("data.json");
    let model_path = ctx.dir.join("model.pm");

    // Set-up: generate the dataset from the seed and write the file
    // `fit` reads.
    let mut setup = Calibrated::new();
    let mut data = None;
    while more_setups(setup.raw()) {
        let t = Instant::now();
        let kind = match workload {
            Workload::FitMine => Data::DatasetI,
            _ => Data::Patterns,
        };
        let d = pipeline::dataset(kind, ctx.txns(10_000), ctx.seed);
        crate::write(&data_path, &d.to_json())?;
        setup.record(t.elapsed().as_secs_f64());
        data = Some(d);
    }
    let data = data.expect("at least one set-up ran");
    let pool = pipeline::pool_lines(&data, POOL);

    // Warm-up: one untimed fit fills the allocator and page cache. Its
    // model is the bytes every timed fit must reproduce.
    cli_fit(&data_path, &model_path)?;
    let reference = std::fs::read(&model_path).map_err(|e| e.to_string())?;

    // Measure: fits back to back, each between two probes of the host's
    // speed. A traced run alternates traced and untraced fits so the
    // tracing overhead is measured on one host state.
    let mut fits = Calibrated::new();
    // Untraced fits at the reference speed; both kinds as measured.
    let mut plain_ms = Vec::new();
    let mut plain_raw_ms = Vec::new();
    let mut traced_raw_ms = Vec::new();
    let mut mismatched = 0u64;
    let cpu0 = crate::procfs::cpu_s(std::process::id());
    let phase = Instant::now();
    while phase.elapsed() < ctx.measure || plain_ms.len() + traced_raw_ms.len() < MIN_FITS {
        let traced = ctx.tr.enabled() && plain_ms.len() > traced_raw_ms.len();
        let t = Instant::now();
        if traced {
            ctx.tr.next_op();
            traced_fit(&ctx.tr, &data_path, &model_path)?;
        } else {
            cli_fit(&data_path, &model_path)?;
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let at_reference = fits.record(ms);
        if traced {
            traced_raw_ms.push(ms);
        } else {
            plain_ms.push(at_reference);
            plain_raw_ms.push(ms);
        }
        if std::fs::read(&model_path).map_err(|e| e.to_string())? != reference {
            mismatched += 1;
        }
    }
    r.attempted = (plain_ms.len() + traced_raw_ms.len()) as u64;
    if let (Some(a), Some(b)) = (cpu0, crate::procfs::cpu_s(std::process::id())) {
        r.extra("cpu_ms_per_op", (b - a) / r.attempted as f64 * 1e3, "ms");
    }
    r.failed = mismatched;
    r.check(
        "every fit writes the warm-up fit's model bytes",
        mismatched == 0,
        || format!("{mismatched} fits wrote different model bytes"),
    );

    verify(ctx, &mut r, &data, &pool)?;

    r.setup(&setup);
    r.latencies(&plain_ms);
    r.extra("raw_latency_p50_ms", stats::median(&plain_raw_ms), "ms");
    r.samples_ms = plain_ms;
    r.calibration(&fits);
    // Peak memory is that of one `profit-mining fit` in a process of its
    // own: this process's peak also counts what its allocator kept from
    // earlier fits, 60 or 64 MB by transaction order.
    let argv = pipeline::cli_fit_args(&data_path, &model_path);
    r.e2e("peak_rss_mb", crate::daemon::peak_rss_of(&argv)?, "MB");
    if ctx.tr.enabled() {
        let traced = stats::median(&traced_raw_ms);
        let plain = stats::median(&plain_raw_ms);
        r.extra("bench.traced_fit_ms", traced, "ms");
        r.extra(
            "bench.trace_overhead_pct",
            (traced - plain) / plain * 100.0,
            "%",
        );
        // The layers' self times per traced fit, against an untraced fit:
        // what the layer spans leave out (drops, glue) and what tracing
        // adds both show here.
        let (layers_ns, roots) = ctx.tr.under("bench.fit");
        let layers_ms = layers_ns as f64 / 1e6 / roots.max(1) as f64;
        r.extra("bench.layer_sum_ms", layers_ms, "ms");
        r.extra("bench.layer_coverage_pct", layers_ms / plain * 100.0, "%");
    }
    Ok(r)
}

/// The model is right, not just repeatable: a cold fit through the
/// incremental miner — a separate mining path proven byte-identical —
/// must produce the same payload, and the sealed file, loaded and
/// indexed as the daemon would, must answer the request pool exactly as
/// a linear scan over the model's rules does.
fn verify(ctx: &Ctx, r: &mut Report, data: &TransactionSet, pool: &[String]) -> Result<(), String> {
    let model_path = ctx.dir.join("model.pm");
    let incremental = pipeline::profit_miner().into_incremental().fit(data);
    let payload = serde_json::to_string(&incremental.save()).map_err(|e| e.to_string())?;
    let (fitted, _) = pm_store::load_model_file(&model_path).map_err(|e| e.to_string())?;
    let same = fitted == payload.as_bytes();
    r.check(
        "the incremental miner's cold fit writes the same model",
        same,
        || "model bytes differ between the batch and incremental mining paths".into(),
    );

    let expected = pipeline::expected_answers(&ctx.tr, &model_path, pool)?;
    let model = pm_serve::load_model(&model_path).map_err(|e| e.to_string())?;
    let reference = pipeline::reference_answers(&model, pool);
    let differing = expected
        .recommend
        .iter()
        .zip(&reference)
        .filter(|(a, b)| a != b)
        .count();
    r.check(
        "the indexed matcher answers as the linear scan",
        differing == 0,
        || format!("{differing} of {} pool answers differ", pool.len()),
    );
    Ok(())
}
