//! # dses-dist — distributions & statistics substrate
//!
//! This crate provides the probability and statistics machinery that the
//! rest of the `dses` workspace (a reproduction of Schroeder &
//! Harchol-Balter, *"Evaluation of Task Assignment Policies for
//! Supercomputing Servers: The Case for Load Unbalancing and Fairness"*,
//! HPDC 2000) is built on:
//!
//! * a [`Distribution`] trait exposing exactly the quantities SITA-style
//!   queueing analysis needs — raw moments (including the *negative* first
//!   moment `E[1/X]` used for mean slowdown), CDF/quantile, and **partial
//!   moments** `E[X^k · 1{a < X ≤ b}]` over a size interval;
//! * the heavy-tailed distributions supercomputing workloads are modelled
//!   with, most importantly the [`BoundedPareto`] distribution used
//!   throughout the paper's analysis (and in its reference \[11\]);
//! * empirical distributions backed by measured samples;
//! * calibration routines ([`fit`]) that recover Bounded-Pareto parameters
//!   from published summary statistics (mean, squared coefficient of
//!   variation, tail-load fraction) — this is how we substitute for the
//!   proprietary PSC/CTC traces;
//! * online statistics (Welford), summaries, histograms;
//! * a small, deterministic, splittable random-number generator so every
//!   simulation in the workspace is exactly reproducible from a seed; and
//! * the std-only worker pool ([`par`]) every layer above fans its
//!   independent tasks out on, with results identical at any worker
//!   count.
//!
//! ## Quick example
//!
//! ```
//! use dses_dist::prelude::*;
//!
//! // A Bounded Pareto with tail index 1.1 on [1, 10^6]:
//! let bp = BoundedPareto::new(1.0, 1.0e6, 1.1).unwrap();
//! let mut rng = Rng64::seed_from(42);
//! let x = bp.sample(&mut rng);
//! assert!(x >= 1.0 && x <= 1.0e6);
//!
//! // Moments needed by M/G/1 analysis:
//! let m1 = bp.raw_moment(1);
//! let m2 = bp.raw_moment(2);
//! assert!(m2 / (m1 * m1) > 1.0, "heavy-tailed: C^2 + 1 > 1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Parameter validation throughout uses `!(x > 0.0)`-style negations on
// purpose: unlike `x <= 0.0`, they also reject NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Quadrature/Lanczos tables carry full published precision.
#![allow(clippy::excessive_precision)]

pub mod distributions;
pub mod empirical;
pub mod fit;
pub mod histogram;
pub mod moments;
pub mod numeric;
pub mod par;
pub mod quantile;
pub mod rng;
pub mod special;
pub mod summary;
pub mod traits;

pub use distributions::{
    BoundedPareto, Deterministic, Erlang, Exponential, HyperExponential, LogNormal, Mixture,
    Pareto, Scaled, Uniform, Weibull,
};
pub use empirical::Empirical;
pub use histogram::LogHistogram;
pub use moments::{Moments, OnlineMoments};
pub use quantile::{P2Quantile, QuantileSet};
pub use rng::{derive_seed, Rng64, SplitMix64};
pub use summary::Summary;
pub use traits::{quantile_space_partial_moments, DistError, Distribution};

/// Convenient glob import: `use dses_dist::prelude::*;`.
pub mod prelude {
    pub use crate::distributions::{
        BoundedPareto, Deterministic, Erlang, Exponential, HyperExponential, LogNormal, Mixture,
        Pareto, Scaled, Uniform, Weibull,
    };
    pub use crate::empirical::Empirical;
    pub use crate::histogram::LogHistogram;
    pub use crate::moments::{Moments, OnlineMoments};
    pub use crate::quantile::{P2Quantile, QuantileSet};
    pub use crate::rng::{derive_seed, Rng64, SplitMix64};
    pub use crate::summary::Summary;
    pub use crate::traits::{DistError, Distribution};
}
