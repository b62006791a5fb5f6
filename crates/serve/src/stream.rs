//! The transaction stream behind streaming mode (DESIGN.md §15, §17):
//! the base dataset grown by every sales-log record, the log itself, the
//! incremental miner, and the stream position.
//!
//! The daemon (startup, `ingest`, `checkpoint`) and the CLI (`fit --log`,
//! `ingest`, `checkpoint`) both go through [`Stream`], so the CLI
//! recovers, appends and seals exactly as a restarted daemon does. It is
//! the only code that knows recovery ([`Stream::recover`]), the durable
//! append ([`Stream::append`]), and seal-then-compact
//! ([`Stream::checkpoint`]).

use crate::ServeError;
use pm_store::checkpoint::plan_replay;
use pm_store::log::{Compaction, SalesLog};
use pm_store::StoreError;
use pm_txn::{
    decode_stream_record, encode_stream_record, CatalogDelta, Transaction, TransactionSet, TxnError,
};
use profit_core::{Checkpoint, IncrementalProfitMiner, ProfitMiner, RuleModel};
use std::path::{Path, PathBuf};

/// A recovered transaction stream and its write-ahead sales log.
pub struct Stream {
    data: TransactionSet,
    log: SalesLog,
    miner: IncrementalProfitMiner,
    /// Absolute stream position: sales-log records ingested since the
    /// log was created (compaction moves the log's base, not this).
    pos: u64,
    /// The stream position the miner last mined to; `None` until its
    /// first fit.
    mined: Option<u64>,
}

/// What [`Stream::recover`] found on disk.
#[derive(Debug, Clone, Copy)]
pub struct Recovered {
    /// A checkpoint was restored (otherwise the whole log was replayed
    /// onto the base data).
    pub resumed: bool,
    /// Log records replayed on top of the checkpoint or the base data.
    pub replayed: usize,
    /// Bytes of torn log tail a crash left behind, truncated on open.
    pub truncated_bytes: u64,
}

/// Why [`Stream::append`] or [`Stream::checkpoint`] failed. Either way
/// the stream and its log stay consistent.
#[derive(Debug)]
pub enum StreamError {
    /// The record does not validate against the stream; the log was not
    /// touched.
    Invalid(TxnError),
    /// The log append failed; a torn tail is truncated on the next open.
    Append(StoreError),
    /// Sealing failed; the previous checkpoint and the log are intact.
    Seal(StoreError),
    /// The checkpoint at the path was sealed, but compacting the log
    /// behind it failed; the log still replays, from further back.
    Compact(PathBuf, StoreError),
}

impl StreamError {
    /// The stage that failed, for logs.
    pub fn stage(&self) -> &'static str {
        match self {
            StreamError::Invalid(_) => "validate",
            StreamError::Append(_) => "append",
            StreamError::Seal(_) => "save",
            StreamError::Compact(..) => "compact",
        }
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Invalid(e) => write!(f, "{e}"),
            StreamError::Append(e) | StreamError::Seal(e) => write!(f, "{e}"),
            StreamError::Compact(path, e) => write!(
                f,
                "checkpoint sealed at {} but log compaction failed (the log still \
                 replays correctly, just from further back): {e}",
                path.display()
            ),
        }
    }
}

impl Stream {
    /// Rebuild the stream from `base`, the sales log at `log_path`, and
    /// — when the file exists — the checkpoint at `checkpoint`.
    ///
    /// A usable checkpoint replaces `base` (it embeds the stream up to
    /// its position) and restores the miner's warm caches; only the log
    /// records after its position ([`plan_replay`]) are replayed.
    /// Otherwise the whole log is replayed onto `base`. A checkpoint that
    /// cannot be loaded or restored is ignored while the log's base is
    /// 0; once the log was compacted it is fatal, as is having no
    /// checkpoint. A checkpoint older than the log's base or ahead of its
    /// end is a typed [`StoreError`].
    ///
    /// Recovery mines nothing: `pipeline` (the configuration the stream
    /// is fitted with) first runs when [`Self::model`] is called. The
    /// `recover.*` spans time each step: log open, checkpoint read and
    /// CRC, payload decode, data decode, miner restore, tail apply.
    pub fn recover(
        base: TransactionSet,
        log_path: &Path,
        checkpoint: Option<&Path>,
        pipeline: ProfitMiner,
    ) -> Result<(Stream, Recovered), ServeError> {
        let (log, recovery) = {
            let _span = pm_obs::span("recover.log_open");
            SalesLog::open(log_path)?
        };
        if recovery.truncated_bytes > 0 {
            pm_obs::info!(
                "stream.log_recovered",
                path = log_path.display(),
                truncated_bytes = recovery.truncated_bytes
            );
        }
        let lost = |why: String| ServeError::Stream {
            path: log_path.display().to_string(),
            err: format!(
                "sales log was compacted to base {} and {why} — the records before the \
                 base are gone, the stream cannot be rebuilt",
                recovery.base
            ),
        };

        let mut resumed = None;
        if let Some(ck_path) = checkpoint.filter(|p| p.exists()) {
            let restored = match read_checkpoint(ck_path) {
                Ok(ck) => {
                    let skip =
                        plan_replay(ck.stream_pos, recovery.base, recovery.records.len() as u64)?;
                    restore(&ck, pipeline.clone()).map(|(data, miner)| (data, miner, skip))
                }
                Err(e) => Err(e),
            };
            match restored {
                Ok(r) => resumed = Some(r),
                Err(err) if recovery.base == 0 => {
                    pm_obs::error!(
                        "stream.checkpoint_ignored",
                        path = ck_path.display(),
                        err = err
                    );
                }
                Err(err) => {
                    return Err(lost(format!(
                        "checkpoint {} is unusable ({err})",
                        ck_path.display()
                    )))
                }
            }
        }
        let is_resumed = resumed.is_some();
        let (mut data, miner, skip) = match resumed {
            Some(r) => r,
            None if recovery.base != 0 => {
                return Err(lost(match checkpoint {
                    Some(p) => format!("checkpoint {} does not exist", p.display()),
                    None => "no checkpoint was given".into(),
                }))
            }
            None => (base, pipeline.into_incremental(), 0),
        };

        // A restored miner stands at the checkpoint's position.
        let first = recovery.base + skip as u64;
        let mined = is_resumed.then_some(first);
        let tail = &recovery.records[skip..];
        {
            let _span = pm_obs::span("recover.tail_apply");
            for (i, payload) in tail.iter().enumerate() {
                std::str::from_utf8(payload)
                    .map_err(|e| e.to_string())
                    .and_then(decode_stream_record)
                    .and_then(|(delta, txns)| {
                        data.apply_stream_record(delta.as_ref(), &txns)
                            .map_err(|e| e.to_string())
                    })
                    .map_err(|err| ServeError::Stream {
                        path: format!("{} record {}", log_path.display(), first + i as u64),
                        err,
                    })?;
            }
        }
        let pos = first + tail.len() as u64;
        pm_obs::info!(
            "stream.recovered",
            resumed = is_resumed,
            stream_pos = pos,
            replayed = tail.len(),
            transactions = data.len()
        );
        let recovered = Recovered {
            resumed: is_resumed,
            replayed: tail.len(),
            truncated_bytes: recovery.truncated_bytes,
        };
        Ok((
            Stream {
                data,
                log,
                miner,
                pos,
                mined,
            },
            recovered,
        ))
    }

    /// The stream's transactions, over its (possibly grown) catalog.
    pub fn data(&self) -> &TransactionSet {
        &self.data
    }

    /// The absolute stream position: records ingested since the log was
    /// created.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Durability before visibility: validate the record against the
    /// stream, append it to the fsynced log, and only then extend the
    /// stream. A crash after the append replays the record on restart; a
    /// crash during it leaves a torn tail the next open truncates away;
    /// a refused record never reaches the log.
    pub fn append(
        &mut self,
        catalog: Option<&CatalogDelta>,
        txns: &[Transaction],
    ) -> Result<(), StreamError> {
        self.data
            .validate_stream_record(catalog, txns)
            .map_err(StreamError::Invalid)?;
        // The canonical re-serialization of the validated record, so a
        // replay parses exactly what was checked. Batches without a
        // catalog delta keep the bare-array record bytes.
        let payload = encode_stream_record(catalog, txns);
        self.log
            .append(payload.as_bytes())
            .map_err(StreamError::Append)?;
        self.data
            .apply_stream_record(catalog, txns)
            .expect("record validated just above this append");
        self.pos += 1;
        Ok(())
    }

    /// The model at the current position, byte-identical to a cold fit
    /// on the whole stream: one delta update of the warm miner, or one
    /// cold fit when nothing is mined yet.
    ///
    /// # Panics
    ///
    /// Panics on an empty stream — there is nothing to learn from.
    pub fn model(&mut self) -> RuleModel {
        let model = match self.mined {
            Some(_) => self.miner.update(&self.data),
            None => self.miner.fit(&self.data),
        };
        self.mined = Some(self.pos);
        model
    }

    /// Seal the stream — data, warm miner caches and position — into a
    /// `PMCK` checkpoint at `path`, then (with `compact`) drop the log
    /// records it covers. The seal comes first, so a crash between the
    /// two leaves a valid checkpoint plus an over-complete log, whose
    /// duplicate prefix [`plan_replay`] skips on recovery.
    ///
    /// The snapshot sealed beside `stream_pos` must be the miner's state
    /// at that position, so a tail the miner has not mined yet (one
    /// recovery replayed) is mined first. A stream that has not moved
    /// since its last [`Self::model`] or seal is sealed as it stands.
    /// No model is built: recovery rebuilds it from the data and the
    /// caches.
    ///
    /// # Panics
    ///
    /// Panics on an empty stream that was never mined.
    pub fn checkpoint(
        &mut self,
        path: &Path,
        compact: bool,
    ) -> Result<Option<Compaction>, StreamError> {
        if self.mined != Some(self.pos) {
            self.miner.mine(&self.data);
            self.mined = Some(self.pos);
        }
        let ck = Checkpoint {
            stream_pos: self.pos,
            data_json: serde_json::to_string(&self.data).expect("dataset serializes"),
            miner: self
                .miner
                .snapshot()
                .expect("the miner has mined the stream"),
        };
        pm_store::checkpoint::save(path, &ck.encode()).map_err(StreamError::Seal)?;
        if !compact {
            return Ok(None);
        }
        self.log
            .compact_to(self.pos)
            .map(Some)
            .map_err(|e| StreamError::Compact(path.to_path_buf(), e))
    }
}

/// Read, verify and decode the checkpoint at `path`.
fn read_checkpoint(path: &Path) -> Result<Checkpoint, String> {
    let bytes = {
        let _span = pm_obs::span("recover.ckpt_read");
        pm_store::checkpoint::load(path).map_err(|e| e.to_string())?
    };
    let _span = pm_obs::span("recover.ckpt_decode");
    Checkpoint::decode(&bytes)
}

/// The state a checkpoint sealed: its dataset, re-validated, and the
/// miner restored with every cache warm — no model is built.
fn restore(
    ck: &Checkpoint,
    pipeline: ProfitMiner,
) -> Result<(TransactionSet, IncrementalProfitMiner), String> {
    let data = {
        let _span = pm_obs::span("recover.data_decode");
        TransactionSet::from_json(&ck.data_json)
            .map_err(|e| format!("checkpoint data does not validate: {e}"))?
    };
    let _span = pm_obs::span("recover.restore");
    let miner = IncrementalProfitMiner::restore(pipeline, &data, &ck.miner)?;
    Ok((data, miner))
}
