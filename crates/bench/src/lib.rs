//! The `experiments` figure-regeneration binary, plus the dataset
//! fixture perfbench's `fit-build` workload generates its data with.

use pm_datagen::DatasetConfig;
use pm_txn::TransactionSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic Dataset-I workload with one Quest pattern per 50
/// transactions (clamped to 20–2000).
pub fn bench_dataset(transactions: usize, items: usize, seed: u64) -> TransactionSet {
    let mut cfg = DatasetConfig::dataset_i()
        .with_transactions(transactions)
        .with_items(items);
    cfg.quest.n_patterns = (transactions / 50).clamp(20, 2000);
    cfg.generate(&mut StdRng::seed_from_u64(seed))
}
