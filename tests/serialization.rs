//! Serialization round-trips and report rendering.

use profit_mining::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> TransactionSet {
    DatasetConfig::dataset_i()
        .with_transactions(200)
        .with_items(50)
        .generate(&mut StdRng::seed_from_u64(3))
}

#[test]
fn dataset_json_roundtrip() {
    let ds = dataset();
    let json = ds.to_json();
    let back = TransactionSet::from_json(&json).unwrap();
    assert_eq!(back.len(), ds.len());
    assert_eq!(back.transactions(), ds.transactions());
    assert_eq!(back.catalog().len(), ds.catalog().len());
    assert_eq!(back.total_recorded_profit(), ds.total_recorded_profit());
}

#[test]
fn corrupted_json_rejected() {
    assert!(TransactionSet::from_json("{not json").is_err());
    // Structurally valid JSON that violates the data model must be
    // rejected by re-validation.
    let ds = dataset();
    let json = ds.to_json().replace("\"qty\": 1", "\"qty\": 0");
    assert!(TransactionSet::from_json(&json).is_err());
}

#[test]
fn config_serde_roundtrip() {
    let cfg = DatasetConfig::dataset_ii();
    let json = serde_json::to_string(&cfg).unwrap();
    let back: DatasetConfig = serde_json::from_str(&json).unwrap();
    // Full-precision float weights can shift in the last ulp through the
    // text form; a stable re-serialization is the meaningful fixpoint.
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    assert_eq!(back.quest, cfg.quest);
    assert_eq!(back.pricing, cfg.pricing);

    let miner = MinerConfig::default();
    let json = serde_json::to_string(&miner).unwrap();
    let back: MinerConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, miner);

    let cut = CutConfig::default();
    let json = serde_json::to_string(&cut).unwrap();
    let back: CutConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, cut);
}

#[test]
fn model_rules_serialize() {
    let ds = dataset();
    let model = ProfitMiner::new(MinerConfig {
        min_support: Support::fraction(0.05),
        max_body_len: 2,
        ..MinerConfig::default()
    })
    .fit(&ds);
    let json = serde_json::to_string(model.rules()).unwrap();
    let back: Vec<ModelRule> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), model.rules().len());
    assert_eq!(&back[..], model.rules());
}

#[test]
fn tables_render_and_csv() {
    let scale = Scale::tiny();
    let t = pm_eval::experiments::fig_e(Dataset::I, &scale, 1, 8);
    let text = t.render();
    assert!(text.contains("profit"));
    let csv = t.to_csv();
    assert_eq!(csv.lines().count(), 9); // header + 8 bins
}

#[test]
fn recommendation_serializes() {
    let ds = dataset();
    let model = ProfitMiner::new(MinerConfig {
        min_support: Support::fraction(0.05),
        max_body_len: 2,
        ..MinerConfig::default()
    })
    .fit(&ds);
    let rec = model.recommend(ds.transactions()[0].non_target_sales());
    let json = serde_json::to_string(&rec).unwrap();
    let back: Recommendation = serde_json::from_str(&json).unwrap();
    assert_eq!(back, rec);
}

/// Decoding loses nothing: the data file (pretty and compact), the
/// model, the miner snapshot and the checkpoint all re-encode byte for
/// byte after a decode, on Dataset I and II data with 2- and 3-level
/// hierarchies.
#[test]
fn payloads_re_encode_byte_identically_after_decode() {
    use pm_rules::MinerSnapshot;
    use profit_core::{Checkpoint, SavedModel};
    for (config, levels, seed) in [
        (DatasetConfig::dataset_i(), 2, 11),
        (DatasetConfig::dataset_ii(), 3, 12),
    ] {
        let data = config
            .with_transactions(300)
            .with_items(60)
            .with_hierarchy(HierarchyConfig {
                branching: 3,
                levels,
            })
            .generate(&mut StdRng::seed_from_u64(seed));
        let pretty = data.to_json();
        assert_eq!(
            TransactionSet::from_json(&pretty).unwrap().to_json(),
            pretty
        );
        let compact = serde_json::to_string(&data).unwrap();
        let back = TransactionSet::from_json(&compact).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), compact);

        assert!(data.hierarchy().n_concepts() > 0);
        // No cut, so the model keeps concept and item/code bodies.
        let mut miner = ProfitMiner::new(MinerConfig {
            min_support: Support::fraction(0.03),
            max_body_len: 3,
            ..MinerConfig::default()
        })
        .with_cut(CutConfig {
            prune: false,
            ..CutConfig::default()
        })
        .into_incremental();
        let model = miner.fit(&data);
        let model_json = serde_json::to_string(&model.save()).unwrap();
        for kind in ["Concept", "ItemCode"] {
            assert!(model_json.contains(kind), "no {kind} body in the model");
        }
        let saved: SavedModel = serde_json::from_str(&model_json).unwrap();
        assert_eq!(serde_json::to_string(&saved).unwrap(), model_json);
        let reloaded = RuleModel::load(saved).save();
        assert_eq!(serde_json::to_string(&reloaded).unwrap(), model_json);

        let snapshot = miner.snapshot().unwrap();
        let snapshot_json = serde_json::to_string(&snapshot).unwrap();
        let back: MinerSnapshot = serde_json::from_str(&snapshot_json).unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(serde_json::to_string(&back).unwrap(), snapshot_json);

        let bytes = Checkpoint {
            stream_pos: 300,
            data_json: compact,
            miner: snapshot,
        }
        .encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap().encode(), bytes);
    }
}
