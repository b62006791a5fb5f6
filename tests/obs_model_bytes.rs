//! The observability acceptance criterion: instrumentation is
//! **invisible in the output**. Fitted models are byte-identical — down
//! to the serialized JSON, so every f64 bit — with `PM_LOG=debug` and
//! metric recording enabled versus observability fully off, at 1/2/8
//! threads. Spans and counters only read clocks and bump atomics; they
//! never alter control flow, iteration order, or f64 accumulation.

use profit_mining::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fit_bytes(ds: &TransactionSet, threads: usize) -> String {
    let model = ProfitMiner::new(MinerConfig {
        min_support: Support::Fraction(0.03),
        max_body_len: 3,
        ..MinerConfig::default()
    })
    .with_threads(threads)
    .fit(ds);
    serde_json::to_string(&model.save()).unwrap()
}

#[test]
fn model_bytes_identical_with_observability_on() {
    let ds = DatasetConfig::dataset_i()
        .with_transactions(400)
        .with_items(100)
        .generate(&mut StdRng::seed_from_u64(19));

    // Reference: logging off (metric atomics still run — they always do —
    // but the dump below proves they observed the run without touching it).
    pm_obs::set_level(pm_obs::Level::Off);
    let reference = fit_bytes(&ds, 1);

    // Instrumented: the env var a user would set, plus the programmatic
    // override (the level may already have been latched by another test).
    std::env::set_var("PM_LOG", "debug");
    pm_obs::set_level(pm_obs::Level::Debug);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            reference,
            fit_bytes(&ds, threads),
            "PM_LOG=debug at {threads} threads diverged from observability-off"
        );
    }
    pm_obs::set_level(pm_obs::Level::Off);

    // The runs above actually recorded: the registry dump carries the
    // miner phases, so "identical bytes" wasn't vacuous.
    let dump = pm_obs::registry().dump_json();
    for phase in ["mine.tidsets", "mine.dfs", "fit.mine", "fit.build"] {
        assert!(dump.contains(&format!("\"{phase}\"")), "{dump}");
    }
}

#[test]
fn serving_is_byte_stable_under_instrumentation() {
    let ds = DatasetConfig::dataset_i()
        .with_transactions(300)
        .with_items(80)
        .generate(&mut StdRng::seed_from_u64(23));
    let model = ProfitMiner::new(MinerConfig {
        min_support: Support::Fraction(0.03),
        max_body_len: 2,
        ..MinerConfig::default()
    })
    .fit(&ds);
    let matcher = Matcher::new(&model);

    // Serve every customer twice — once quiet, once with debug logging —
    // and require identical recommendations (the latency histogram and
    // postings counter record on both passes; they must not feed back).
    let serve = |m: &Matcher| -> Vec<String> {
        ds.transactions()
            .iter()
            .map(|t| format!("{:?}", m.recommend(t.non_target_sales())))
            .collect()
    };
    pm_obs::set_level(pm_obs::Level::Off);
    let quiet = serve(&matcher);
    pm_obs::set_level(pm_obs::Level::Debug);
    let loud = serve(&matcher);
    pm_obs::set_level(pm_obs::Level::Off);
    assert_eq!(quiet, loud);
    assert!(pm_obs::latency("serve.recommend_ns").count() >= 2 * ds.len() as u64);
}
