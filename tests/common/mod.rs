//! Shared comparison engine for the differential oracle harness.
//!
//! Each comparison returns `Err(String)` instead of panicking so that the
//! caller can shrink a diverging dataset before reporting. The engine runs
//! the *entire* optimized matrix — `MoaMode × QuantityModel × {1, 4}
//! threads × ProfitMode`, always with the miner's upper-bound pruning on —
//! against one `pm-oracle` build per `(moa, quantity)` pair, comparing:
//!
//! * the mined rule set: same rules, same order, same `gen_index`, same
//!   counts, bit-identical `f64` profits;
//! * the default rule and the complete MPF-ranked list per profit mode;
//! * the per-customer recommendation (indexed matcher, linear-scan model
//!   and oracle ranked-list scan must all pick the same rule).

#![allow(dead_code)]

use pm_oracle::{Oracle, OracleConfig, OracleProfitMode, OracleRule};
use pm_rules::{MinedRules, MinerConfig, MoaMode, ProfitMode, RuleMiner, Support};
use pm_txn::{QuantityModel, Sale, Transaction, TransactionSet};
use profit_core::{CutConfig, Matcher, RuleModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Worker-thread counts (jobs inline, and on a pool).
pub const THREADS: [usize; 2] = [1, 4];

/// The profit modes, paired with their oracle-side mirror.
pub const MODES: [(ProfitMode, OracleProfitMode); 2] = [
    (ProfitMode::Profit, OracleProfitMode::Profit),
    (ProfitMode::Confidence, OracleProfitMode::Confidence),
];

/// `data` with every target quantity redrawn in 1–5, and the quantity
/// of every third non-target sale too. `pm-datagen` sells one package
/// per sale, so under saving MOA a head would earn the same margin on
/// every transaction; redrawn, the transactions behind one head set earn
/// different margins.
pub fn redraw_quantities(data: &TransactionSet, seed: u64) -> TransactionSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut qty = move || rng.gen_range(1u32..=5);
    rebuild(data, |_, t| {
        let sales = t
            .non_target_sales()
            .iter()
            .enumerate()
            .map(|(i, s)| match i % 3 {
                0 => Sale::new(s.item, s.code, qty()),
                _ => *s,
            })
            .collect();
        let target = t.target_sale();
        Transaction::new(sales, Sale::new(target.item, target.code, qty()))
    })
}

/// `data` with transaction `i`'s target quantity set to `i + 1`, so no
/// two transactions share a target sale.
pub fn own_target_quantities(data: &TransactionSet) -> TransactionSet {
    rebuild(data, |i, t| {
        let target = t.target_sale();
        let target = Sale::new(target.item, target.code, i as u32 + 1);
        Transaction::new(t.non_target_sales().to_vec(), target)
    })
}

fn rebuild(
    data: &TransactionSet,
    mut f: impl FnMut(usize, &Transaction) -> Transaction,
) -> TransactionSet {
    let txns = data
        .transactions()
        .iter()
        .enumerate()
        .map(|(i, t)| f(i, t))
        .collect();
    TransactionSet::new(data.catalog().clone(), data.hierarchy().clone(), txns)
        .expect("positive quantities keep the dataset valid")
}

fn miner_config(minsup: u32, max_body_len: usize, moa_on: bool, qm: QuantityModel) -> MinerConfig {
    MinerConfig {
        min_support: Support::Count(minsup),
        max_body_len,
        moa: if moa_on {
            MoaMode::Enabled
        } else {
            MoaMode::Disabled
        },
        quantity: qm,
        min_confidence: None,
        min_rule_profit: None,
        // The oracle enumerates the raw rule universe; the default-
        // dominance prefilter is a serving-side optimization the
        // comparison must not inherit.
        prune_default_dominated: false,
    }
}

/// Run the full differential matrix over one dataset. `Ok(())` when the
/// optimized stack matches the oracle everywhere; `Err` describes the
/// first divergence, prefixed with the matrix cell it occurred in.
pub fn compare_dataset(
    data: &TransactionSet,
    minsup: u32,
    max_body_len: usize,
) -> Result<(), String> {
    for moa_on in [true, false] {
        for qm in [QuantityModel::Saving, QuantityModel::Buying] {
            let oracle = Oracle::build(
                data,
                OracleConfig {
                    moa: moa_on,
                    quantity: qm,
                    ..OracleConfig::new(minsup, max_body_len)
                },
            );
            for threads in THREADS {
                let ctx = format!("moa={moa_on} qm={qm:?} threads={threads}");
                let mined = RuleMiner::new(miner_config(minsup, max_body_len, moa_on, qm))
                    .with_threads(threads)
                    .mine(data);
                compare_rule_sets(&oracle, &mined).map_err(|e| format!("[{ctx}] {e}"))?;
                for (mode, omode) in MODES {
                    compare_ranked(&oracle, &mined, mode, omode)
                        .map_err(|e| format!("[{ctx} mode={mode:?}] {e}"))?;
                    compare_recommendations(data, &oracle, &mined, mode, omode)
                        .map_err(|e| format!("[{ctx} mode={mode:?}] {e}"))?;
                }
            }
        }
    }
    Ok(())
}

/// The PR-9 workload axes over one dataset: targeted mining (item and
/// code-class filters), per-item profit floors (alone, overriding a
/// scalar floor, NaN, and `+∞`), and top-N assortment selection — each
/// against the brute-force oracle, at {1,4} threads.
/// `Ok(())` when every cell matches; `Err` names the diverging cell.
pub fn compare_workloads(
    data: &TransactionSet,
    minsup: u32,
    max_body_len: usize,
) -> Result<(), String> {
    use pm_txn::{CodeId, ItemId, TargetFilter};
    let first_target: Option<ItemId> = data.catalog().target_items().first().copied();
    let mut targets: Vec<Option<TargetFilter>> = vec![None];
    if let Some(t) = first_target {
        targets.push(Some(TargetFilter::Items(vec![t])));
    }
    targets.push(Some(TargetFilter::Codes(vec![CodeId(0)])));
    // (scalar floor, per-item floor overrides) regimes.
    type FloorRegime = (Option<f64>, Vec<(ItemId, f64)>);
    let mut floors: Vec<FloorRegime> = vec![(None, Vec::new()), (Some(2.0), Vec::new())];
    if let Some(t) = first_target {
        // A per-item floor alone, and one overriding a scalar floor.
        floors.push((None, vec![(t, 5.0)]));
        floors.push((Some(1.0), vec![(t, 5.0)]));
        // A NaN floor admits every profit (`profit < NaN` is false), so
        // the miner must not let it tighten the node cut.
        floors.push((Some(2.0), vec![(t, f64::NAN)]));
        // A `+∞` floor puts the item's heads outside the target, the
        // default rule's arg-max domain included.
        floors.push((None, vec![(t, f64::INFINITY)]));
    }
    for target in &targets {
        for (scalar, per_item) in &floors {
            let oracle = Oracle::build(
                data,
                OracleConfig {
                    target: target.clone(),
                    min_rule_profit: *scalar,
                    min_profit_per_item: per_item.clone(),
                    ..OracleConfig::new(minsup, max_body_len)
                },
            );
            for threads in THREADS {
                let ctx = format!(
                    "workload target={target:?} scalar={scalar:?} per_item={per_item:?} \
                     threads={threads}"
                );
                let mut cfg = miner_config(minsup, max_body_len, true, QuantityModel::Saving);
                cfg.min_rule_profit = *scalar;
                let mined = RuleMiner::new(cfg)
                    .with_threads(threads)
                    .with_target(target.clone())
                    .with_item_floors(per_item.clone())
                    .mine(data);
                compare_rule_sets(&oracle, &mined).map_err(|e| format!("[{ctx}] {e}"))?;
                for (mode, omode) in MODES {
                    compare_ranked(&oracle, &mined, mode, omode)
                        .map_err(|e| format!("[{ctx} mode={mode:?}] {e}"))?;
                }
            }
        }
    }
    compare_assortments(data, minsup, max_body_len)
}

/// Top-N assortment vs the oracle's exhaustive reference on the plain
/// (untargeted, unfloored) mining run: the exact solver must match the
/// oracle pick-for-pick with bit-identical joint scores, and the greedy
/// may never beat the exact optimum.
fn compare_assortments(
    data: &TransactionSet,
    minsup: u32,
    max_body_len: usize,
) -> Result<(), String> {
    let oracle = Oracle::build(data, OracleConfig::new(minsup, max_body_len));
    let mined = RuleMiner::new(miner_config(
        minsup,
        max_body_len,
        true,
        QuantityModel::Saving,
    ))
    .mine(data);
    for (mode, omode) in MODES {
        for n in 1..=3usize {
            let ctx = format!("assortment mode={mode:?} n={n}");
            let exact = profit_core::assort_exact(&mined, n, mode);
            let (opicks, oscore) = oracle.assortment(n, omode);
            if exact.picks != opicks {
                return Err(format!(
                    "[{ctx}] exact picks {:?} vs oracle {:?}",
                    exact.picks, opicks
                ));
            }
            if exact.expected_profit.to_bits() != oscore.to_bits() {
                return Err(format!(
                    "[{ctx}] exact score {} vs oracle {oscore}",
                    exact.expected_profit
                ));
            }
            let greedy = profit_core::assort_greedy(&mined, n, mode);
            if greedy.expected_profit > exact.expected_profit {
                return Err(format!(
                    "[{ctx}] greedy score {} beats the exact optimum {}",
                    greedy.expected_profit, exact.expected_profit
                ));
            }
        }
    }
    Ok(())
}

/// The mined rule set must equal the oracle's at-or-above-minsup subset,
/// rule for rule, in generation order.
fn compare_rule_sets(oracle: &Oracle, mined: &MinedRules) -> Result<(), String> {
    let of = oracle.frequent_rules();
    if mined.rules().len() != of.len() {
        return Err(format!(
            "rule count: optimized {} vs oracle {} (oracle enumerated {} incl. below-minsup)",
            mined.rules().len(),
            of.len(),
            oracle.all_rules().len()
        ));
    }
    for (i, ((body, (item, code), rule), orule)) in
        mined.resolved_rules().zip(of.iter()).enumerate()
    {
        if body != orule.body {
            return Err(format!(
                "rule {i} body: {body:?} vs oracle {:?}",
                orule.body
            ));
        }
        if (item, code) != (orule.item, orule.code) {
            return Err(format!(
                "rule {i} head: ({item:?},{code:?}) vs oracle ({:?},{:?})",
                orule.item, orule.code
            ));
        }
        if rule.body_count != orule.body_count || rule.hits != orule.hits {
            return Err(format!(
                "rule {i} counts: N={} hits={} vs oracle N={} hits={}",
                rule.body_count, rule.hits, orule.body_count, orule.hits
            ));
        }
        if rule.profit.to_bits() != orule.profit.to_bits() {
            return Err(format!(
                "rule {i} profit bits: {} vs oracle {}",
                rule.profit, orule.profit
            ));
        }
        if rule.gen_index != i as u32 || orule.gen_index != i as u32 {
            return Err(format!(
                "rule {i} gen_index: optimized {} oracle {}",
                rule.gen_index, orule.gen_index
            ));
        }
    }
    Ok(())
}

/// The complete MPF-ranked lists (mined rules + default rule) must agree
/// element-wise, including the order itself.
fn compare_ranked(
    oracle: &Oracle,
    mined: &MinedRules,
    mode: ProfitMode,
    omode: OracleProfitMode,
) -> Result<(), String> {
    let opt = profit_core::ranked_rules(mined, mode);
    let orc = oracle.ranked_rules(omode);
    if opt.len() != orc.len() {
        return Err(format!(
            "ranked length: optimized {} vs oracle {}",
            opt.len(),
            orc.len()
        ));
    }
    for (pos, (rule, orule)) in opt.iter().zip(orc.iter()).enumerate() {
        let body = mined.resolve_body(rule);
        let (item, code) = mined.head(rule.head);
        let same = body == orule.body
            && (item, code) == (orule.item, orule.code)
            && rule.body_count == orule.body_count
            && rule.hits == orule.hits
            && rule.profit.to_bits() == orule.profit.to_bits()
            && rule.gen_index == orule.gen_index;
        if !same {
            return Err(format!(
                "ranked position {pos}: optimized gen={} body={body:?} head=({item:?},{code:?}) \
                 N={} hits={} profit={} vs oracle gen={} body={:?} head=({:?},{:?}) N={} hits={} \
                 profit={}",
                rule.gen_index,
                rule.body_count,
                rule.hits,
                rule.profit,
                orule.gen_index,
                orule.body,
                orule.item,
                orule.code,
                orule.body_count,
                orule.hits,
                orule.profit
            ));
        }
    }
    Ok(())
}

/// Pick the oracle's recommendation from a precomputed ranked list.
fn oracle_recommend<'a>(
    oracle: &Oracle,
    ranked: &'a [OracleRule],
    sales: &[Sale],
) -> &'a OracleRule {
    ranked
        .iter()
        .find(|r| oracle.body_matches(&r.body, sales))
        .expect("the default rule matches every customer")
}

/// For every training basket (plus the empty basket), the serving model —
/// indexed matcher and linear scan — must select the same rule the oracle
/// selects from its complete ranked list. Rule *identity* is compared
/// (body, head, counts, profit bits), not list position: the optimized
/// model has dominance-removed rules the oracle keeps, which §4.1 proves
/// can never be selected.
fn compare_recommendations(
    data: &TransactionSet,
    oracle: &Oracle,
    mined: &MinedRules,
    mode: ProfitMode,
    omode: OracleProfitMode,
) -> Result<(), String> {
    let model = RuleModel::build(
        mined,
        &CutConfig {
            profit_mode: mode,
            prune: false,
            ..CutConfig::default()
        },
    );
    let matcher = Matcher::new(&model);
    let ranked = oracle.ranked_rules(omode);
    let empty: Vec<Sale> = Vec::new();
    let baskets = std::iter::once(empty.as_slice())
        .chain(data.transactions().iter().map(|t| t.non_target_sales()));
    for (ci, sales) in baskets.enumerate() {
        let idx = matcher.rule_for(sales);
        if idx != model.recommendation_rule(sales) {
            return Err(format!(
                "customer {ci}: matcher picked rule {idx}, linear scan {}",
                model.recommendation_rule(sales)
            ));
        }
        let mr = &model.rules()[idx];
        let orule = oracle_recommend(oracle, &ranked, sales);
        let mut mbody = mr.body.clone();
        mbody.sort();
        let mut obody = orule.body.clone();
        obody.sort();
        let same = (mr.item, mr.code) == (orule.item, orule.code)
            && mbody == obody
            && mr.body_count == orule.body_count
            && mr.support_count == orule.hits
            && mr.profit.to_bits() == orule.profit.to_bits()
            && mr.prof_re.to_bits() == orule.recommendation_profit(omode).to_bits()
            && mr.is_default == (orule.gen_index == u32::MAX);
        if !same {
            return Err(format!(
                "customer {ci}: model rule body={:?} head=({:?},{:?}) N={} s={} profit={} \
                 prof_re={} default={} vs oracle body={:?} head=({:?},{:?}) N={} s={} profit={} \
                 prof_re={} default={}",
                mr.body,
                mr.item,
                mr.code,
                mr.body_count,
                mr.support_count,
                mr.profit,
                mr.prof_re,
                mr.is_default,
                orule.body,
                orule.item,
                orule.code,
                orule.body_count,
                orule.hits,
                orule.profit,
                orule.recommendation_profit(omode),
                orule.gen_index == u32::MAX
            ));
        }
    }
    Ok(())
}

/// Greedily shrink a diverging dataset: repeatedly drop whole transactions,
/// then individual non-target sales, keeping each removal that preserves
/// the divergence. Quadratic and restartable — fine at oracle scale.
pub fn shrink(data: &TransactionSet, minsup: u32, max_body_len: usize) -> TransactionSet {
    shrink_with(data, &|ds| {
        compare_dataset(ds, minsup, max_body_len).is_err()
    })
}

/// [`shrink`] under an arbitrary divergence predicate, so every
/// differential axis (the core matrix, the workload axes, injected-bug
/// checks) reuses the same greedy minimizer.
pub fn shrink_with(
    data: &TransactionSet,
    diverges: &dyn Fn(&TransactionSet) -> bool,
) -> TransactionSet {
    let rebuild = |txns: Vec<pm_txn::Transaction>| -> Option<TransactionSet> {
        TransactionSet::new(data.catalog().clone(), data.hierarchy().clone(), txns).ok()
    };
    let mut current = data.transactions().to_vec();
    // Pass 1: drop transactions.
    let mut i = 0;
    while current.len() > 1 && i < current.len() {
        let mut candidate = current.clone();
        candidate.remove(i);
        match rebuild(candidate) {
            Some(ds) if diverges(&ds) => {
                current = ds.transactions().to_vec();
                // A removal can re-enable earlier removals: restart.
                i = 0;
            }
            _ => i += 1,
        }
    }
    // Pass 2: drop non-target sales within transactions.
    let mut ti = 0;
    while ti < current.len() {
        let mut si = 0;
        while si < current[ti].non_target_sales().len() {
            let mut candidate = current.clone();
            let t = &candidate[ti];
            let mut nts = t.non_target_sales().to_vec();
            nts.remove(si);
            candidate[ti] = pm_txn::Transaction::new(nts, *t.target_sale());
            match rebuild(candidate) {
                Some(ds) if diverges(&ds) => {
                    current = ds.transactions().to_vec();
                }
                _ => si += 1,
            }
        }
        ti += 1;
    }
    rebuild(current).expect("shrunk dataset stays valid")
}

/// Shrink the diverging dataset and abort the test with a replayable
/// counterexample: the catalog/sales CSV pair (see the README's
/// "Replaying a counterexample") plus, for non-flat hierarchies the CSV
/// form cannot carry, the dataset JSON.
pub fn report_divergence(data: &TransactionSet, minsup: u32, max_body_len: usize, msg: &str) -> ! {
    report_divergence_under(
        data,
        &|ds| compare_dataset(ds, minsup, max_body_len),
        minsup,
        max_body_len,
        msg,
    )
}

/// [`report_divergence`] under an arbitrary comparison (used by the
/// workload axes, which shrink against their own predicate).
pub fn report_divergence_under(
    data: &TransactionSet,
    compare: &dyn Fn(&TransactionSet) -> Result<(), String>,
    minsup: u32,
    max_body_len: usize,
    msg: &str,
) -> ! {
    let minimal = shrink_with(data, &|ds| compare(ds).is_err());
    let final_msg = compare(&minimal).err().unwrap_or_else(|| msg.to_string());
    let (catalog_csv, sales_csv) = pm_txn::csv::to_csv(&minimal);
    let hierarchy_note = if minimal.hierarchy().n_concepts() > 0 {
        format!(
            "\nNOTE: dataset uses a {}-concept hierarchy the CSVs cannot carry; replay JSON:\n{}\n",
            minimal.hierarchy().n_concepts(),
            minimal.to_json()
        )
    } else {
        String::new()
    };
    panic!(
        "differential divergence (minsup={minsup}, max_body_len={max_body_len}): {final_msg}\n\
         first seen as: {msg}\n\
         shrunk to {} transaction(s); replayable counterexample below\n\
         --- catalog.csv ---\n{catalog_csv}--- sales.csv ---\n{sales_csv}{hierarchy_note}",
        minimal.len()
    );
}
