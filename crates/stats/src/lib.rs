//! Numerics substrate for the profit-mining workspace.
//!
//! This crate provides everything statistical that the EDBT 2002 paper
//! *Profit Mining: From Patterns to Actions* depends on:
//!
//! * the **pessimistic binomial upper limit** `U_CF(N, E)` of Clopper &
//!   Pearson (1934) as used by C4.5 \[Q93\] to estimate projected error —
//!   here projected *non-hit* rates ([`binomial::pessimistic_upper`]);
//! * the special functions it needs (log-gamma, regularized incomplete
//!   beta) implemented from scratch ([`gamma`], [`beta`]);
//! * the **samplers** used by the synthetic data generators: normal
//!   (Dataset II), Poisson and exponential (the IBM Quest generator),
//!   binomial (price sensitivity), and a generic discrete cumulative-weight
//!   sampler (Dataset I's 5:1 target split) ([`sample`]);
//! * the **histogram** the evaluation harness bins Figure 3(e)/4(e)'s
//!   profit distribution with ([`histogram`]).
//!
//! Everything is deterministic given a seeded [`rand::Rng`]; no global
//! RNG state is used anywhere in the workspace.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod beta;
pub mod binomial;
pub mod gamma;
pub mod histogram;
pub mod sample;

pub use binomial::{binomial_cdf, pessimistic_upper, PessimisticEstimator};
pub use histogram::Histogram;
pub use sample::{Binomial, Discrete, Exponential, Normal, Poisson};
