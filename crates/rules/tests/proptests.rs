//! Property-based tests for the mining substrate.

use pm_datagen::DatasetConfig;
use pm_rules::{BitSet, MinerConfig, RuleMiner, Support};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole invariant: mining on a randomized worker-thread count is
    /// bit-identical — rules, order, `gen_index`, f64 profit bits — to
    /// a one-thread run, on randomized synthetic data.
    #[test]
    fn mining_is_thread_count_invariant(
        seed in 0u64..1_000_000,
        threads in 2usize..9,
        n_txn in 40usize..120,
    ) {
        let ds = DatasetConfig::dataset_i()
            .with_transactions(n_txn)
            .with_items(30)
            .generate(&mut StdRng::seed_from_u64(seed));
        let config = MinerConfig {
            min_support: Support::Fraction(0.05),
            max_body_len: 3,
            ..MinerConfig::default()
        };
        let seq = RuleMiner::new(config).with_threads(1).mine(&ds);
        let par = RuleMiner::new(config).with_threads(threads).mine(&ds);
        prop_assert_eq!(seq.rules(), par.rules());
    }
}

proptest! {
    /// Bitset algebra against a BTreeSet reference model.
    #[test]
    fn bitset_against_reference(
        cap in 1usize..400,
        ops in proptest::collection::vec((0usize..400, proptest::bool::ANY), 0..200)
    ) {
        let mut bs = BitSet::new(cap);
        let mut model = BTreeSet::new();
        for (raw, insert) in ops {
            let id = raw % cap;
            if insert {
                bs.insert(id);
                model.insert(id);
            } else {
                bs.remove(id);
                model.remove(&id);
            }
        }
        prop_assert_eq!(bs.count(), model.len());
        prop_assert_eq!(bs.is_empty(), model.is_empty());
        let collected: Vec<usize> = bs.iter().collect();
        let expected: Vec<usize> = model.iter().cloned().collect();
        prop_assert_eq!(collected, expected);
        for id in 0..cap {
            prop_assert_eq!(bs.contains(id), model.contains(&id));
        }
    }

    /// Intersection / subtraction match set semantics.
    #[test]
    fn bitset_set_ops(
        cap in 1usize..300,
        a in proptest::collection::vec(0usize..300, 0..80),
        b in proptest::collection::vec(0usize..300, 0..80)
    ) {
        let mut sa = BitSet::new(cap);
        let mut sb = BitSet::new(cap);
        let ma: BTreeSet<usize> = a.into_iter().map(|x| x % cap).collect();
        let mb: BTreeSet<usize> = b.into_iter().map(|x| x % cap).collect();
        for &x in &ma { sa.insert(x); }
        for &x in &mb { sb.insert(x); }

        let inter = sa.intersection(&sb);
        let m_inter: Vec<usize> = ma.intersection(&mb).cloned().collect();
        prop_assert_eq!(inter.iter().collect::<Vec<_>>(), m_inter.clone());
        prop_assert_eq!(sa.intersection_count(&sb), m_inter.len());

        let mut diff = sa.clone();
        diff.subtract(&sb);
        let m_diff: Vec<usize> = ma.difference(&mb).cloned().collect();
        prop_assert_eq!(diff.iter().collect::<Vec<_>>(), m_diff);

        // AND is idempotent and commutative.
        prop_assert_eq!(inter.intersection(&sa), inter.clone());
        prop_assert_eq!(sb.intersection(&sa), inter);
    }

    /// Support resolution: at least 1, monotone in the fraction, exact on
    /// counts.
    #[test]
    fn support_resolution(n in 1usize..1_000_000, f in 0.000001f64..1.0, c in 1u32..10_000) {
        let from_frac = Support::Fraction(f).to_count(n);
        prop_assert!(from_frac >= 1);
        prop_assert!(from_frac as f64 >= f * n as f64 - 1.0);
        prop_assert!(from_frac as f64 <= f * n as f64 + 1.0);
        prop_assert_eq!(Support::Count(c).to_count(n), c);
        // Monotone in f.
        let half = Support::Fraction(f / 2.0).to_count(n);
        prop_assert!(half <= from_frac);
    }
}
