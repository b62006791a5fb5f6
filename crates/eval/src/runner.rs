//! Cross-validated minimum-support sweeps over the six recommenders
//! (§5.1): PROF+MOA, PROF−MOA, CONF+MOA, CONF−MOA, kNN, MPI — the series
//! of Figures 3(a)/(c)/(d)/(f) and 4(a)/(c)/(d)/(f).
//!
//! Per fold, rules are **mined once** per MOA mode at the smallest
//! minimum support of the sweep; higher points reuse the mined set (exact
//! by Apriori monotonicity). PROF and CONF recommenders are built from the
//! same mined statistics.

use crate::behavior::QuantityBoost;
use crate::folds::Folds;
use crate::metrics::{evaluate, EvalOptions, EvalOutcome, PROFIT_RANGES};
use crate::report::{fmt, Table};
use pm_baselines::{Knn, KnnConfig, KnnProfit, MostProfitableItem};
use pm_rules::{MinedRules, MinerConfig, MoaMode, ProfitMode, RuleMiner, Support};
use pm_stats::binomial::DEFAULT_CF;
use pm_txn::{QuantityModel, TransactionSet};
use profit_core::{CutConfig, Matcher, Recommender, RuleModel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The minimum-support sweep for the full-scale figures: 0.04% … 0.2%,
/// bracketing the two operating points the paper quotes (0.08% for
/// Figure 3(d), 0.1% for the headline gain). The paper never prints its
/// exact x-axis range; 0.04% keeps the single-core full-scale run within
/// minutes per figure (see DESIGN.md §5).
pub fn paper_sweep() -> Vec<f64> {
    vec![0.0004, 0.0006, 0.0008, 0.0010, 0.0015, 0.0020]
}

/// kNN neighbor count (paper: 5), for both kNN baselines.
pub const KNN_K: usize = 5;

/// Minimum confidence for mined rules. The paper allows thresholds on
/// every worth measure (§3.1) without stating the figures' values; 0.5
/// keeps the recommenders reliable (see DESIGN.md §5).
pub const MIN_CONFIDENCE: f64 = 0.5;

/// Sweep configuration. Every sweep also scores the vote-kNN baseline
/// with [`KNN_K`] neighbors, mines at [`MIN_CONFIDENCE`], and cuts at
/// C4.5's pessimistic confidence level ([`DEFAULT_CF`]).
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Cross-validation folds (paper: 5).
    pub n_folds: usize,
    /// Master seed (folds, boost sampling).
    pub seed: u64,
    /// Minimum-support fractions, ascending.
    pub sweep: Vec<f64>,
    /// Maximum rule body length.
    pub max_body_len: usize,
    /// Quantity model for mining *and* evaluation (saving MOA default).
    pub quantity: QuantityModel,
    /// Optional quantity-boost behavior at evaluation.
    pub boost: Option<QuantityBoost>,
    /// Include the four rule-based recommenders.
    pub include_rule_models: bool,
    /// Restrict rule models to `+MOA` (used by Figure 3(b)).
    pub moa_only: bool,
    /// Include the profit post-processing kNN (§5.3).
    pub include_knn_profit: bool,
    /// Include MPI.
    pub include_mpi: bool,
    /// Worker threads (`0` = all cores, `1` = sequential). Folds fan out
    /// across workers; when that already saturates them, per-fold mining
    /// stays sequential. Reported numbers are bit-identical at every
    /// setting — per-fold records are merged in fold order, preserving
    /// the sequential f64 accumulation order.
    pub threads: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            n_folds: 5,
            seed: 2002_0301,
            sweep: paper_sweep(),
            max_body_len: 4,
            quantity: QuantityModel::Saving,
            boost: None,
            include_rule_models: true,
            moa_only: false,
            include_knn_profit: false,
            include_mpi: true,
            threads: 0,
        }
    }
}

/// Split `threads` (`0` = all cores) between a fan-out over `n_jobs`
/// folds or ablation cells and the mining inside each job: the fan-out
/// gets priority (coarsest grain), and mining only goes parallel when a
/// single job would otherwise leave workers idle.
pub(crate) fn fold_thread_split(threads: usize, n_jobs: usize) -> (usize, usize) {
    let threads = pm_par::resolve(threads);
    let workers = threads.min(n_jobs.max(1));
    let inner = if workers > 1 { 1 } else { threads };
    (workers, inner)
}

/// Build the recommender `cut` selects from `mined` and evaluate it on
/// `valid`: every sweep point, and every ablation cell with a model of
/// its own, is scored here.
pub(crate) fn score(
    mined: &MinedRules,
    cut: &CutConfig,
    valid: &TransactionSet,
    opts: &EvalOptions,
) -> (RuleModel, EvalOutcome) {
    let model = RuleModel::build(mined, cut);
    let out = evaluate(&Matcher::new(&model), valid, opts);
    (model, out)
}

/// Mean accumulator.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MeanAcc {
    sum: f64,
    n: u32,
}

impl MeanAcc {
    /// Add an observation.
    pub fn push(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    /// The mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u32 {
        self.n
    }
}

/// Per-recommender sweep series (fold-averaged).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    /// Gain per sweep point.
    pub gain: Vec<MeanAcc>,
    /// Hit rate per sweep point.
    pub hit_rate: Vec<MeanAcc>,
    /// Final rule count per sweep point (empty accumulators for
    /// instance-based recommenders).
    pub n_rules: Vec<MeanAcc>,
    /// `(hits, transactions)` per profit range (Low, Medium, High) per
    /// sweep point, pooled over folds.
    pub ranges: Vec<[(usize, usize); 3]>,
}

impl Series {
    fn new(len: usize) -> Self {
        Self {
            gain: vec![MeanAcc::default(); len],
            hit_rate: vec![MeanAcc::default(); len],
            n_rules: vec![MeanAcc::default(); len],
            ranges: vec![[(0, 0); 3]; len],
        }
    }
}

/// Fold-averaged sweep results for all recommenders.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// The sweep's minimum-support fractions.
    pub minsups: Vec<f64>,
    /// Series per recommender name.
    pub series: BTreeMap<String, Series>,
}

/// Preferred column order for tables (paper legend order).
fn series_order(names: impl Iterator<Item = String>) -> Vec<String> {
    let preferred = ["PROF+MOA", "PROF-MOA", "CONF+MOA", "CONF-MOA"];
    let mut rest: Vec<String> = names.collect();
    let mut out = Vec::new();
    for p in preferred {
        if let Some(pos) = rest.iter().position(|n| n == p) {
            out.push(rest.remove(pos));
        }
    }
    rest.sort();
    out.extend(rest);
    out
}

impl SweepReport {
    /// An empty report over the given sweep.
    pub fn new(minsups: Vec<f64>) -> Self {
        Self {
            minsups,
            series: BTreeMap::new(),
        }
    }

    /// Record one evaluation outcome at sweep point `si`.
    pub fn record(&mut self, name: &str, si: usize, out: &EvalOutcome, n_rules: Option<usize>) {
        let len = self.minsups.len();
        let s = self
            .series
            .entry(name.to_string())
            .or_insert_with(|| Series::new(len));
        s.gain[si].push(out.gain());
        s.hit_rate[si].push(out.hit_rate());
        if let Some(r) = n_rules {
            s.n_rules[si].push(r as f64);
        }
        for (acc, (hits, total)) in s.ranges[si].iter_mut().zip(out.range_hits) {
            acc.0 += hits;
            acc.1 += total;
        }
    }

    fn table_of<F>(&self, title: &str, f: F) -> Table
    where
        F: Fn(&Series, usize) -> Option<f64>,
    {
        let names = series_order(self.series.keys().cloned());
        let mut cols = vec!["minsup".to_string()];
        cols.extend(names.iter().cloned());
        let mut table = Table::new(title, cols);
        for (si, &ms) in self.minsups.iter().enumerate() {
            let mut row = vec![format!("{:.3}%", ms * 100.0)];
            for n in &names {
                row.push(match f(&self.series[n], si) {
                    Some(v) => fmt(v),
                    None => "-".to_string(),
                });
            }
            table.push_row(row);
        }
        table
    }

    /// The gain-vs-minsup table (Figures 3(a)/4(a), and (b) with boost).
    pub fn gain_table(&self, title: &str) -> Table {
        self.table_of(title, |s, si| Some(s.gain[si].mean()))
    }

    /// The hit-rate-vs-minsup table (Figures 3(c)/4(c)).
    pub fn hit_rate_table(&self, title: &str) -> Table {
        self.table_of(title, |s, si| Some(s.hit_rate[si].mean()))
    }

    /// The rule-count-vs-minsup table (Figures 3(f)/4(f)); instance-based
    /// recommenders show `-`.
    pub fn rules_table(&self, title: &str) -> Table {
        self.table_of(title, |s, si| {
            (s.n_rules[si].count() > 0).then(|| s.n_rules[si].mean())
        })
    }

    /// Hit rate by profit range at sweep point `si` (Figures 3(d)/4(d)):
    /// rows Low/Medium/High, one column per recommender, hits and
    /// transactions pooled over folds (`-` for an empty range).
    pub fn range_table(&self, title: &str, si: usize) -> Table {
        let names = series_order(self.series.keys().cloned());
        let mut cols = vec!["range".to_string()];
        cols.extend(names.iter().cloned());
        let mut table = Table::new(title, cols);
        for (ri, label) in PROFIT_RANGES.iter().enumerate() {
            let mut row = vec![label.to_string()];
            for n in &names {
                let (hits, total) = self.series[n].ranges[si][ri];
                row.push(if total == 0 {
                    "-".into()
                } else {
                    fmt(hits as f64 / total as f64)
                });
            }
            table.push_row(row);
        }
        table
    }

    /// Merge another report over the same sweep (e.g. the two boost
    /// settings of Figure 3(b)), suffixing its series names.
    pub fn merge_suffixed(&mut self, other: SweepReport, suffix: &str) {
        assert_eq!(self.minsups, other.minsups, "sweeps must agree");
        for (name, series) in other.series {
            self.series.insert(format!("{name}{suffix}"), series);
        }
    }
}

/// One recorded evaluation: `(series name, sweep index, outcome, rules)`.
type SweepRecord = (String, usize, EvalOutcome, Option<usize>);

/// Run the full cross-validated sweep on `data`. Folds fan out across
/// `cfg.threads` workers; per-fold record buffers are merged in fold
/// order, so the report is bit-identical to a sequential run.
pub fn run_sweep(data: &TransactionSet, cfg: &EvalConfig) -> SweepReport {
    assert!(
        !cfg.sweep.is_empty(),
        "sweep must contain at least one point"
    );
    assert!(
        cfg.sweep.windows(2).all(|w| w[0] <= w[1]),
        "sweep must be ascending"
    );
    let folds: Vec<_> = Folds::new(data.len(), cfg.n_folds, cfg.seed)
        .iter()
        .collect();
    let (fold_workers, inner_threads) = fold_thread_split(cfg.threads, folds.len());
    let fold_records = pm_par::par_map(folds.len(), fold_workers, |fold_i| {
        sweep_fold(data, cfg, fold_i, &folds[fold_i], inner_threads)
    });
    let mut report = SweepReport::new(cfg.sweep.clone());
    for records in fold_records {
        for (name, si, out, n_rules) in records {
            report.record(&name, si, &out, n_rules);
        }
    }
    report
}

/// The per-fold body of [`run_sweep`]: train/validate every configured
/// recommender, returning records in the fixed sequential order.
fn sweep_fold(
    data: &TransactionSet,
    cfg: &EvalConfig,
    fold_i: usize,
    fold: &(Vec<usize>, Vec<usize>),
    inner_threads: usize,
) -> Vec<SweepRecord> {
    let _span = pm_obs::span("eval.fold");
    pm_obs::counter("eval.folds").inc();
    pm_obs::debug!(
        "eval.fold",
        fold = fold_i,
        train = fold.0.len(),
        valid = fold.1.len()
    );
    let (train_idx, valid_idx) = fold;
    let train = data.subset(train_idx);
    let valid = data.subset(valid_idx);
    let opts = EvalOptions {
        quantity: cfg.quantity,
        boost: cfg.boost.clone(),
        seed: cfg.seed.wrapping_add(fold_i as u64),
        exact_match: false,
    };
    let mut records: Vec<SweepRecord> = Vec::new();

    if cfg.include_rule_models {
        let moa_modes: &[MoaMode] = if cfg.moa_only {
            &[MoaMode::Enabled]
        } else {
            &[MoaMode::Enabled, MoaMode::Disabled]
        };
        for &moa in moa_modes {
            let mined = RuleMiner::new(MinerConfig {
                min_support: Support::Fraction(cfg.sweep[0]),
                max_body_len: cfg.max_body_len,
                moa,
                quantity: cfg.quantity,
                min_confidence: Some(MIN_CONFIDENCE),
                min_rule_profit: None,
                prune_default_dominated: true,
            })
            .with_threads(inner_threads)
            .mine(&train);
            for (si, &ms) in cfg.sweep.iter().enumerate() {
                for mode in [ProfitMode::Profit, ProfitMode::Confidence] {
                    let cut = CutConfig {
                        profit_mode: mode,
                        cf: DEFAULT_CF,
                        prune: true,
                        min_support: Some(Support::Fraction(ms)),
                    };
                    let (model, out) = score(&mined, &cut, &valid, &opts);
                    records.push((model.name(), si, out, Some(model.rules().len())));
                }
            }
        }
    }

    // Instance-based baselines are minsup-independent: evaluate once,
    // record at every sweep point.
    let knn = KnnConfig {
        k: KNN_K,
        idf: true,
    };
    let mut baselines: Vec<Box<dyn Recommender>> = vec![Box::new(Knn::fit(&train, knn))];
    if cfg.include_knn_profit {
        baselines.push(Box::new(KnnProfit::fit(&train, knn)));
    }
    if cfg.include_mpi {
        baselines.push(Box::new(MostProfitableItem::fit(&train)));
    }
    for b in &baselines {
        let out = evaluate(b.as_ref(), &valid, &opts);
        for si in 0..cfg.sweep.len() {
            records.push((b.name(), si, out.clone(), None));
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_datagen::DatasetConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_data() -> TransactionSet {
        DatasetConfig::dataset_i()
            .with_transactions(400)
            .with_items(100)
            .generate(&mut StdRng::seed_from_u64(11))
    }

    fn small_cfg() -> EvalConfig {
        EvalConfig {
            n_folds: 2,
            sweep: vec![0.02, 0.05],
            max_body_len: 2,
            ..EvalConfig::default()
        }
    }

    #[test]
    fn sweep_produces_all_series() {
        let report = run_sweep(&small_data(), &small_cfg());
        let names: Vec<&String> = report.series.keys().collect();
        assert!(names.iter().any(|n| n.as_str() == "PROF+MOA"), "{names:?}");
        assert!(names.iter().any(|n| n.as_str() == "PROF-MOA"));
        assert!(names.iter().any(|n| n.as_str() == "CONF+MOA"));
        assert!(names.iter().any(|n| n.as_str() == "CONF-MOA"));
        assert!(names.iter().any(|n| n.starts_with("kNN")));
        assert!(names.iter().any(|n| n.as_str() == "MPI"));
        // Two folds recorded at each of 2 sweep points.
        let s = &report.series["PROF+MOA"];
        assert_eq!(s.gain.len(), 2);
        assert_eq!(s.gain[0].count(), 2);
        // Rule counts only for rule models.
        assert_eq!(report.series["MPI"].n_rules[0].count(), 0);
        assert!(s.n_rules[0].count() > 0);
    }

    #[test]
    fn gains_are_valid_and_bounded_under_saving() {
        let report = run_sweep(&small_data(), &small_cfg());
        for (name, s) in &report.series {
            for acc in &s.gain {
                let g = acc.mean();
                assert!(
                    (0.0..=1.0 + 1e-9).contains(&g),
                    "{name}: gain {g} out of [0,1] under saving MOA"
                );
            }
            for acc in &s.hit_rate {
                let h = acc.mean();
                assert!((0.0..=1.0).contains(&h), "{name}: hit rate {h}");
            }
        }
    }

    #[test]
    fn rule_counts_fall_with_minsup() {
        let report = run_sweep(&small_data(), &small_cfg());
        let s = &report.series["PROF+MOA"];
        assert!(
            s.n_rules[0].mean() >= s.n_rules[1].mean(),
            "{} vs {}",
            s.n_rules[0].mean(),
            s.n_rules[1].mean()
        );
    }

    #[test]
    fn tables_render() {
        let report = run_sweep(&small_data(), &small_cfg());
        let gain = report.gain_table("gain");
        assert_eq!(gain.rows.len(), 2);
        assert!(gain.columns[1] == "PROF+MOA", "{:?}", gain.columns);
        let rules = report.rules_table("rules");
        // MPI column shows '-'.
        let mpi_col = rules.columns.iter().position(|c| c == "MPI").unwrap();
        assert_eq!(rules.rows[0][mpi_col], "-");
        assert!(!report.hit_rate_table("hits").rows.is_empty());
    }

    #[test]
    fn ranges_table_shape() {
        let data = small_data();
        let report = run_sweep(&data, &small_cfg());
        let table = report.range_table("ranges", 1);
        assert_eq!(table.rows.len(), 3);
        assert_eq!(table.rows[0][0], "Low");
        assert!(table.columns.len() >= 4);
        // Every validation transaction falls in one range, at every point.
        for s in report.series.values() {
            for ranges in &s.ranges {
                let total: usize = ranges.iter().map(|&(_, t)| t).sum();
                assert_eq!(total, data.len());
            }
        }
    }

    #[test]
    fn merge_suffixed_combines() {
        let cfg = small_cfg();
        let mut a = run_sweep(&small_data(), &cfg);
        let names_before = a.series.len();
        let b = a.clone();
        a.merge_suffixed(b, " (x=2,y=30%)");
        assert_eq!(a.series.len(), names_before * 2);
    }

    #[test]
    fn deterministic() {
        let a = run_sweep(&small_data(), &small_cfg());
        let b = run_sweep(&small_data(), &small_cfg());
        assert_eq!(a.gain_table("g").to_csv(), b.gain_table("g").to_csv());
    }

    /// Fold fan-out must be invisible in the report — per-fold records
    /// merge in fold order, so even the f64 accumulator bits match.
    #[test]
    fn sweep_is_thread_count_invariant() {
        let data = small_data();
        let at = |threads: usize| {
            let report = run_sweep(
                &data,
                &EvalConfig {
                    threads,
                    ..small_cfg()
                },
            );
            serde_json::to_string(&report).unwrap()
        };
        let sequential = at(1);
        for threads in [2usize, 4] {
            assert_eq!(sequential, at(threads), "threads {threads}");
        }
    }

    #[test]
    #[should_panic]
    fn descending_sweep_rejected() {
        let cfg = EvalConfig {
            sweep: vec![0.05, 0.02],
            ..small_cfg()
        };
        let _ = run_sweep(&small_data(), &cfg);
    }
}
