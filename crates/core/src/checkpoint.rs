//! The streaming checkpoint payload — what a `PMCK` envelope carries
//! (DESIGN.md §17).
//!
//! A checkpoint bundles everything a restarted process needs to resume
//! streaming without replaying the whole sales log:
//!
//! * the **stream position** — the absolute log record index the
//!   checkpoint covers, so replay resumes exactly at the next record;
//! * the **training data** up to that position, embedded as compact
//!   JSON and re-validated on restore;
//! * the incremental miner's [`MinerSnapshot`] — the warm anchor
//!   caches, so a restored miner
//!   ([`IncrementalProfitMiner::restore`](crate::IncrementalProfitMiner::restore))
//!   rebuilds the model without re-running the DFS.
//!
//! It holds no model: a model is a pure function of the data and the
//! miner's rules, so recovery rebuilds it from those two. A payload that
//! carries one (older builds sealed a `model` key) still decodes; the
//! key is skipped.
//!
//! The payload is format-agnostic bytes: `pm-store`'s checkpoint module
//! wraps it in the checksummed, versioned envelope and writes it
//! atomically; `pm_serve::stream` restores it.

use pm_rules::MinerSnapshot;
use serde::{Deserialize, Serialize};

/// A complete streaming checkpoint: data and miner state as of one
/// sales-log position.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Absolute sales-log position (records ingested since the log was
    /// created) this checkpoint covers; replay resumes at this record.
    pub stream_pos: u64,
    /// The training data as embedded compact JSON —
    /// `serde_json::to_string` of the [`pm_txn::TransactionSet`],
    /// re-validated on restore via
    /// [`pm_txn::TransactionSet::from_json`], which reads the pretty
    /// [`pm_txn::TransactionSet::to_json`] form of older checkpoints as
    /// well.
    pub data_json: String,
    /// The incremental miner's durable state.
    pub miner: MinerSnapshot,
}

impl Checkpoint {
    /// Serialize to the bytes a `PMCK` envelope seals.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("checkpoint serializes")
            .into_bytes()
    }

    /// Parse an opened envelope payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let s = std::str::from_utf8(bytes)
            .map_err(|e| format!("checkpoint payload is not UTF-8: {e}"))?;
        serde_json::from_str(s).map_err(|e| format!("checkpoint payload does not parse: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{IncrementalProfitMiner, ProfitMiner};
    use pm_datagen::DatasetConfig;
    use pm_rules::{MinerConfig, Support};
    use pm_txn::TransactionSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pipeline() -> ProfitMiner {
        ProfitMiner::new(MinerConfig {
            min_support: Support::Fraction(0.03),
            max_body_len: 3,
            ..MinerConfig::default()
        })
        .with_threads(2)
    }

    /// What a restart does with a checkpoint: re-validate its data and
    /// restore the miner with every cache warm.
    fn restore(ck: &Checkpoint) -> Result<(TransactionSet, IncrementalProfitMiner), String> {
        let data = TransactionSet::from_json(&ck.data_json)?;
        let inc = IncrementalProfitMiner::restore(pipeline(), &data, &ck.miner)?;
        Ok((data, inc))
    }

    #[test]
    fn encode_decode_resume_reproduces_the_model_bytes() {
        let ds = DatasetConfig::dataset_i()
            .with_transactions(300)
            .with_items(80)
            .generate(&mut StdRng::seed_from_u64(29));
        let mut inc = pipeline().into_incremental();
        let model = inc.fit(&ds);
        let ck = Checkpoint {
            stream_pos: 300,
            data_json: ds.to_json(),
            miner: inc.snapshot().unwrap(),
        };

        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back.stream_pos, 300);

        let (data, mut resumed) = restore(&back).unwrap();
        assert_eq!(data.len(), 300);
        // An empty delta assembles the model from the warm caches.
        let got = resumed.update(&data);
        assert_eq!(
            serde_json::to_string(&got.save()).unwrap(),
            serde_json::to_string(&model.save()).unwrap(),
            "resumed model must match the fitted one byte for byte"
        );

        // The resumed pipeline keeps streaming like one that never died.
        let more = DatasetConfig::dataset_i()
            .with_transactions(340)
            .with_items(80)
            .generate(&mut StdRng::seed_from_u64(29));
        let mut data = data;
        data.extend_from(&more.transactions()[300..]).unwrap();
        let streamed = resumed.update(&data);
        let cold = pipeline().fit(&data);
        assert_eq!(
            serde_json::to_string(&streamed.save()).unwrap(),
            serde_json::to_string(&cold.save()).unwrap(),
            "post-resume delta must match a cold fit"
        );
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        assert!(Checkpoint::decode(&[0xFF, 0xFE])
            .unwrap_err()
            .contains("UTF-8"));
        assert!(Checkpoint::decode(b"not json")
            .unwrap_err()
            .contains("parse"));
    }

    #[test]
    fn resume_rejects_tampered_data() {
        let ds = DatasetConfig::dataset_i()
            .with_transactions(200)
            .with_items(60)
            .generate(&mut StdRng::seed_from_u64(31));
        let mut inc = pipeline().into_incremental();
        inc.fit(&ds);
        let mut ck = Checkpoint {
            stream_pos: 200,
            data_json: ds.to_json(),
            miner: inc.snapshot().unwrap(),
        };
        // Swap in a different (shorter) dataset: the miner snapshot's
        // support count no longer matches.
        let other = DatasetConfig::dataset_i()
            .with_transactions(90)
            .with_items(60)
            .generate(&mut StdRng::seed_from_u64(31));
        ck.data_json = other.to_json();
        let err = match restore(&ck) {
            Ok(_) => panic!("tampered data must be refused"),
            Err(e) => e,
        };
        assert!(err.contains("support count"), "{err}");
    }
}
