//! Generalized association rule mining over `MOA(H)` (§3.1 of the paper).
//!
//! The miner produces the rule language of Definition 4 — bodies of
//! generalized non-target sales, heads of `(target item, promotion code)`
//! pairs — with the paper's profit-aware measures:
//!
//! * `Supp(G → g)` — support of `G ∪ {g}`;
//! * `Conf(G → g)` — `Supp(G ∪ {g}) / Supp(G)`;
//! * `Prof_ru(G → g)` — rule profit `Σ_t p(G → g, t)`;
//! * `Prof_re(G → g)` — recommendation profit `Prof_ru / |matched(G)|`.
//!
//! ## Strategy
//!
//! The authors ran the multi-level association miner of \[SA95\]/\[HF95\];
//! we mine the identical rule set with a **vertical** (Eclat-style)
//! enumeration that is a better fit for this rule language:
//!
//! 1. each transaction is *extended* once into the set of generalized
//!    sales of its non-target sales ([`extend`]), interned to dense ids
//!    ([`interner`]);
//! 2. every generalized sale owns a [`tidset`] — dense [`bitset`] words
//!    or a sorted sparse vector, chosen adaptively by density; frequent
//!    bodies are enumerated depth-first by tidset intersection (galloping
//!    sparse kernels, minimum-support early exit, per-worker scratch
//!    buffers), with the Cumulate rule (no body element generalizing
//!    another) enforced on candidates, and the 2-itemset level counted
//!    through a dense triangle for speed;
//! 3. because `p(r, t)` depends only on the head and `t`'s target sale,
//!    each distinct target sale is interned once as a profile (its head
//!    set and a row of profits); per frequent body a histogram of its
//!    tids by head set counts every head's hits, and only the heads that
//!    reach minimum support get a pass that sums their profit.
//!
//! The output [`MinedRules`] keeps the extension (per-transaction
//! profiles included) and the singleton tidsets so the downstream
//! recommender construction (`profit-core`) can assign rule coverage and
//! estimate projected profit without re-scanning the raw transactions.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bitset;
pub mod extend;
pub mod incremental;
pub mod interner;
pub mod miner;
pub mod rule;
pub mod tidset;

pub use bitset::BitSet;
pub use extend::{ExtendedData, HeadId};
pub use incremental::{IncrementalMiner, MinerSnapshot};
pub use interner::{GsId, GsInterner};
pub use miner::{MinedRules, MinerConfig, MoaMode, RuleMiner, Support};
pub use rule::{ProfitMode, Rule};
pub use tidset::{intersect_into, TidBuf, TidScratch, TidSet, TidView};

pub use pm_txn::moa::QuantityModel;
