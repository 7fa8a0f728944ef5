//! Statistical substrate for the DataNet reproduction.
//!
//! The paper (Section II-B) models the amount of a sub-dataset contained in
//! one HDFS block as a Gamma random variable `X ~ Γ(k, θ)` and derives the
//! per-node workload `Z ~ Γ(nk/m, θ)` when each of `m` nodes processes `n/m`
//! random blocks. This crate provides, from scratch:
//!
//! * Gamma-family special functions (`special`): `ln Γ` and the
//!   regularized lower incomplete gamma function `P(a, x)`.
//! * The [`GammaDist`] distribution (pdf, cdf, moments, sampling via
//!   Marsaglia–Tsang).
//! * A [`zipf::Zipf`] sampler used by the workload generators for sub-dataset
//!   popularity.
//! * Descriptive statistics ([`describe`]) used by the experiment harness.
//! * The workload-imbalance probability model ([`imbalance`]) that
//!   regenerates Figure 2 of the paper.

pub mod describe;
mod gamma;
pub mod imbalance;
mod special;
pub mod zipf;

pub use describe::{gini, percentile, Summary};
pub use gamma::GammaDist;
pub use imbalance::ImbalanceModel;
pub use zipf::Zipf;
