//! The experiment registry: one entry per figure panel of the paper's
//! evaluation (§5.3) plus the kNN post-processing comparison. Each
//! function regenerates the series of the corresponding panel as
//! [`Table`]s (text + CSV).
//!
//! Panels (e) need no model; panels (a), (c), (d), (f) are four views of
//! one cross-validated sweep, (d) bucketing hits by profit range at the
//! sweep point `range_minsup` (0.08% at paper scale); panel (b) re-runs
//! the `+MOA` recommenders under the two quantity-boost settings.

use crate::behavior::QuantityBoost;
use crate::report::Table;
use crate::runner::{paper_sweep, run_sweep, EvalConfig, SweepReport};
use pm_datagen::DatasetConfig;
use pm_stats::Histogram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which of the paper's two synthetic datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dataset {
    /// Dataset I: two target items (\$2/\$10), Zipf 5:1.
    I,
    /// Dataset II: ten target items, normal frequency, 40 head pairs.
    II,
}

impl Dataset {
    /// The dataset's base configuration at the given scale.
    pub fn config(self, scale: &Scale) -> DatasetConfig {
        let base = match self {
            Dataset::I => DatasetConfig::dataset_i(),
            Dataset::II => DatasetConfig::dataset_ii(),
        };
        let mut cfg = base
            .with_transactions(scale.transactions)
            .with_items(scale.items);
        // Keep the paper's transactions-per-pattern ratio (100K / 2000 =
        // 50) so smaller scales retain comparable per-pattern evidence.
        cfg.quest.n_patterns = (scale.transactions / 50).clamp(50, 2000);
        cfg
    }

    /// Generate the dataset deterministically.
    pub fn generate(self, scale: &Scale, seed: u64) -> pm_txn::TransactionSet {
        self.config(scale)
            .generate(&mut StdRng::seed_from_u64(seed))
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dataset::I => write!(f, "dataset I"),
            Dataset::II => write!(f, "dataset II"),
        }
    }
}

/// Experiment scale: transaction/item counts plus a minsup sweep matched
/// to them (smaller datasets need larger fractions for the same absolute
/// evidence).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// `|D|` — transactions.
    pub transactions: usize,
    /// `N` — non-target items.
    pub items: usize,
    /// Minimum-support fractions for the sweeps.
    pub sweep: Vec<f64>,
    /// The minsup for panel (d) (the paper uses 0.08%) and the ablations;
    /// one of `sweep`'s points, so (d) reads the sweep behind (a).
    pub range_minsup: f64,
    /// Cross-validation folds (paper: 5).
    pub folds: usize,
    /// Maximum rule body length for the sweeps.
    pub max_body_len: usize,
}

impl Scale {
    /// The paper's scale: 100K transactions, 1000 items, sweep
    /// 0.02%–0.2%, panel (d) at 0.08%.
    pub fn paper() -> Self {
        Self {
            transactions: 100_000,
            items: 1000,
            sweep: paper_sweep(),
            range_minsup: 0.0008,
            folds: 5,
            max_body_len: 3,
        }
    }

    /// A laptop-quick scale preserving the density (items : basket) of
    /// the paper setup with proportionally larger support fractions.
    pub fn quick() -> Self {
        Self {
            transactions: 10_000,
            items: 300,
            sweep: vec![0.0020, 0.0030, 0.0040, 0.0060, 0.0080, 0.0120],
            range_minsup: 0.0040,
            folds: 5,
            max_body_len: 3,
        }
    }

    /// A CI-tiny scale for smoke tests.
    pub fn tiny() -> Self {
        Self {
            transactions: 800,
            items: 150,
            sweep: vec![0.02, 0.04],
            range_minsup: 0.04,
            folds: 2,
            max_body_len: 2,
        }
    }

    /// Override the transaction count.
    pub fn with_transactions(mut self, n: usize) -> Self {
        self.transactions = n;
        self
    }

    /// The index of `range_minsup` in `sweep`.
    fn range_point(&self) -> usize {
        self.sweep
            .iter()
            .position(|&ms| ms == self.range_minsup)
            .expect("range_minsup is one of the sweep's points")
    }
}

fn base_config(scale: &Scale, seed: u64, threads: usize) -> EvalConfig {
    EvalConfig {
        seed,
        sweep: scale.sweep.clone(),
        n_folds: scale.folds,
        max_body_len: scale.max_body_len,
        threads,
        ..EvalConfig::default()
    }
}

fn sweep(which: Dataset, scale: &Scale, seed: u64, threads: usize) -> SweepReport {
    let data = which.generate(scale, seed);
    run_sweep(&data, &base_config(scale, seed, threads))
}

/// Panels (a), (c), (d), (f) of Figures 3/4, in that order: gain, hit
/// rate and rule count versus minimum support, and hit rate by profit
/// range at `scale.range_minsup` — four views of one cross-validated
/// sweep.
///
/// # Panics
///
/// Panics when `scale.range_minsup` is not one of `scale.sweep`'s points.
pub fn fig_sweep(which: Dataset, scale: &Scale, seed: u64, threads: usize) -> Vec<Table> {
    let report = sweep(which, scale, seed, threads);
    vec![
        report.gain_table(&format!("Fig (a): gain vs minimum support — {which}")),
        report.hit_rate_table(&format!("Fig (c): hit rate vs minimum support — {which}")),
        range_panel(&report, scale),
        report.rules_table(&format!(
            "Fig (f): number of rules vs minimum support — {which}"
        )),
    ]
}

/// Panel (d) on its own: the one point of [`fig_sweep`]'s sweep it
/// reads, cross-validated alone.
pub fn fig_d(which: Dataset, scale: &Scale, seed: u64, threads: usize) -> Table {
    let point = Scale {
        sweep: vec![scale.range_minsup],
        ..scale.clone()
    };
    range_panel(&sweep(which, &point, seed, threads), &point)
}

/// Panel (d): hit rate by profit range (Low/Medium/High thirds of the
/// maximum recorded target profit) at `scale.range_minsup`.
fn range_panel(report: &SweepReport, scale: &Scale) -> Table {
    report.range_table(
        &format!(
            "hit rate by profit range (minsup {:.3}%)",
            scale.range_minsup * 100.0
        ),
        scale.range_point(),
    )
}

/// Panel (b): gain of the `+MOA` recommenders under the quantity-boost
/// settings `(x=2, y=30%)` and `(x=3, y=40%)`.
pub fn fig_b(which: Dataset, scale: &Scale, seed: u64, threads: usize) -> Table {
    let data = which.generate(scale, seed);
    let mut merged: Option<SweepReport> = None;
    for (x, y) in [(2u32, 0.30f64), (3, 0.40)] {
        let boost = QuantityBoost::setting(x, y);
        let label = format!(" {}", boost.label());
        let cfg = EvalConfig {
            boost: Some(boost),
            moa_only: true,
            ..base_config(scale, seed, threads)
        };
        let report = run_sweep(&data, &cfg);
        match &mut merged {
            None => {
                let mut base = SweepReport::new(scale.sweep.clone());
                base.merge_suffixed(report, &label);
                merged = Some(base);
            }
            Some(m) => m.merge_suffixed(report, &label),
        }
    }
    merged
        .expect("two settings merged")
        .gain_table(&format!("Fig (b): gain with quantity boost — {which}"))
}

/// Panel (e): the profit distribution of the recorded target sales.
pub fn fig_e(which: Dataset, scale: &Scale, seed: u64, bins: usize) -> Table {
    let data = which.generate(scale, seed);
    let profits: Vec<f64> = data
        .transactions()
        .iter()
        .map(|t| t.recorded_target_profit(data.catalog()).as_dollars())
        .collect();
    let hist = Histogram::of(&profits, bins);
    let mut table = Table::new(
        format!("Fig (e): profit distribution of target sales — {which}"),
        vec!["profit ($)".into(), "transactions".into()],
    );
    for (mid, count) in hist.rows() {
        table.push_row(vec![format!("{mid:.2}"), count.to_string()]);
    }
    table
}

/// §5.3 text experiment: gain of vote-kNN versus profit post-processing
/// kNN on both datasets (paper: ≈ +2% on I, ≈ −5% on II — post-processing
/// "does not improve much").
pub fn post_knn(scale: &Scale, seed: u64, threads: usize) -> Table {
    let mut table = Table::new(
        "kNN profit post-processing (gain)",
        vec![
            "dataset".into(),
            "kNN".into(),
            "kNN-profit".into(),
            "delta".into(),
        ],
    );
    for which in [Dataset::I, Dataset::II] {
        let data = which.generate(scale, seed);
        let cfg = EvalConfig {
            sweep: vec![scale.range_minsup],
            include_rule_models: false,
            include_knn_profit: true,
            include_mpi: false,
            ..base_config(scale, seed, threads)
        };
        let report = run_sweep(&data, &cfg);
        let knn = report
            .series
            .iter()
            .find(|(n, _)| n.starts_with("kNN("))
            .map(|(_, s)| s.gain[0].mean())
            .unwrap_or(0.0);
        let knn_p = report
            .series
            .iter()
            .find(|(n, _)| n.starts_with("kNN-profit"))
            .map(|(_, s)| s.gain[0].mean())
            .unwrap_or(0.0);
        table.push_row(vec![
            which.to_string(),
            crate::report::fmt(knn),
            crate::report::fmt(knn_p),
            crate::report::fmt(knn_p - knn),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_configs_differ() {
        let s = Scale::tiny();
        let a = Dataset::I.config(&s);
        let b = Dataset::II.config(&s);
        assert_eq!(a.targets.costs.len(), 2);
        assert_eq!(b.targets.costs.len(), 10);
        assert_eq!(a.quest.n_transactions, 800);
    }

    #[test]
    fn fig_sweep_smoke() {
        let tables = fig_sweep(Dataset::I, &Scale::tiny(), 1, 2);
        // Two sweep points each for (a), (c), (f); three profit ranges
        // for (d).
        let rows: Vec<usize> = tables.iter().map(|t| t.rows.len()).collect();
        assert_eq!(rows, [2, 2, 3, 2]);
        for t in &tables {
            assert!(t.columns.len() >= 5, "{}", t.title);
        }
        assert_eq!(tables[2].rows[0][0], "Low");
        // (d) alone cross-validates its one point, to the same table.
        let d = fig_d(Dataset::I, &Scale::tiny(), 1, 2);
        assert_eq!(d.to_csv(), tables[2].to_csv());
    }

    #[test]
    fn fig_b_smoke() {
        let t = fig_b(Dataset::I, &Scale::tiny(), 1, 2);
        // Two boost settings × (PROF+MOA, CONF+MOA, kNN, MPI).
        assert!(t.columns.len() >= 5, "{:?}", t.columns);
        assert!(t.columns.iter().any(|c| c.contains("(x=3,y=40%)")));
    }

    #[test]
    fn range_minsup_is_a_sweep_point() {
        for scale in [Scale::paper(), Scale::quick(), Scale::tiny()] {
            assert!(
                scale.sweep.contains(&scale.range_minsup),
                "{scale:?}: panel (d) must read a point of the sweep"
            );
        }
    }

    #[test]
    fn fig_e_histogram() {
        let t = fig_e(Dataset::I, &Scale::tiny(), 1, 10);
        assert_eq!(t.rows.len(), 10);
        let total: u64 = t.rows.iter().map(|r| r[1].parse::<u64>().unwrap()).sum();
        assert_eq!(total, 800);
    }

    #[test]
    fn post_knn_smoke() {
        let t = post_knn(&Scale::tiny(), 1, 2);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "dataset I");
    }
}
