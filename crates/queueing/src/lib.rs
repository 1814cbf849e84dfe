//! # dses-queueing — queueing analysis for distributed-server task assignment
//!
//! The analytical half of the paper: every policy comparison in its
//! Figures 8–9 comes from M/G/1-style formulas rather than simulation.
//! This crate implements that machinery:
//!
//! * [`mg1`] — the M/G/1 FCFS queue: Pollaczek–Khinchine mean waiting
//!   time, Takács higher moments, and the slowdown metrics of the paper's
//!   Theorem 1 (`E{S} = E{W}·E{X⁻¹}`, since waiting time and own size are
//!   independent in FCFS).
//! * [`mmh`] — the M/M/h queue (Erlang-C), the base of the
//! * [`mgh`] — M/G/h approximation the paper quotes for Least-Work-Left:
//!   `E{Q_{M/G/h}} ≈ E{Q_{M/M/h}} · E{X²}/E{X}²` (\[17, 21\]).
//! * [`gg1`] — G/G/1 heavy-traffic approximations (Kingman /
//!   Allen–Cunneen), used for Round-Robin's `E_h/G/1` hosts and for
//!   reasoning about bursty arrivals (§6).
//! * [`sita`] — size-interval (SITA) system analysis: given cutoffs, each
//!   host is an M/G/1 on a conditioned size distribution; aggregates are
//!   mixtures.
//! * [`cutoff`] — the three cutoff solvers of §4.1: **SITA-E**
//!   (equal load), **SITA-U-opt** (minimise mean slowdown) and
//!   **SITA-U-fair** (equalise short-job and long-job expected slowdown).
//! * [`policies`] — one-call analytic predictions for every policy in the
//!   paper, powering the Figure 8/9 regenerators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)`-style validation is intentional: it also rejects NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod cutoff;
pub mod gg1;
pub mod hetero;
pub mod mg1;
pub mod mgh;
pub mod mmh;
pub mod policies;
pub mod ps;
pub mod sita;
pub mod sjf;
pub mod transform;

pub use cutoff::{sita_e_cutoffs, sita_u_fair_cutoff, sita_u_opt_cutoff, CutoffError};
pub use hetero::{analyze_hetero, hetero_opt_cutoff, HeteroSita};
pub use mg1::{Mg1, ServiceMoments};
pub use mgh::mgh_metrics;
pub use mmh::{erlang_b, erlang_c, Mmh};
pub use policies::{analyze_policy, AnalyticMetrics, AnalyticPolicy};
pub use sita::SitaAnalysis;
