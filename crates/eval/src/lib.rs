//! Evaluation harness for profit mining (§5 of the paper).
//!
//! Reproduces the paper's methodology end to end:
//!
//! * [`folds`] — deterministic 5-fold cross-validation;
//! * [`metrics`] — the **gain** (generated profit over recorded profit),
//!   **hit rate**, and **hit rate by profit range** measures of §5.1/§5.3;
//! * [`behavior`] — the `(x, y)` quantity-boost shopping-behavior model of
//!   Figure 3(b) ("the customer doubles the purchase quantity with
//!   probability 30%…");
//! * [`runner`] — minsup sweeps across the six recommenders
//!   (PROF±MOA, CONF±MOA, kNN, MPI) with mine-once/filter-down reuse,
//!   pooling hits by profit range at every point;
//! * [`experiments`] — one entry per figure panel of the evaluation
//!   (Figures 3(a)–(f) and 4(a)–(f)) plus the §5.3 kNN post-processing
//!   comparison;
//! * [`report`] — plain-text and CSV rendering.
//!
//! ## Hit semantics at evaluation time
//!
//! A recommendation `⟨I, P⟩` is accepted by a validation transaction with
//! target sale `⟨I_t, P_t, Q_t⟩` iff `I = I_t` and `P ⪯ P_t` — MOA is a
//! fact about *customer behavior*, so it applies to every recommender
//! (the paper states explicitly that it "applied MOA to tell whether a
//! recommendation is a hit" for kNN; the `±MOA` axis only controls model
//! *building*). [`metrics::EvalOptions::exact_match`] turns this off for
//! the exact-match ablation.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ablations;
pub mod behavior;
pub mod experiments;
pub mod folds;
pub mod metrics;
pub mod report;
pub mod runner;

pub use behavior::QuantityBoost;
pub use folds::Folds;
pub use metrics::{evaluate, EvalOptions, EvalOutcome};
pub use report::Table;
pub use runner::{EvalConfig, SweepReport};
