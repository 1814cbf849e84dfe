//! # dses-workload — supercomputing workloads for the dses simulator
//!
//! This crate produces the job streams that drive the trace-driven
//! simulations of Schroeder & Harchol-Balter (HPDC 2000): batch jobs with
//! an arrival time and a service requirement (CPU seconds), destined for a
//! distributed server of identical multiprocessor hosts.
//!
//! * [`Job`] / [`Trace`] — the job record and the trace container, with
//!   the Table-1 summary statistics, load computation and the half-split
//!   used to fit SITA cutoffs on training data and evaluate on held-out
//!   data (paper §4.1).
//! * [`arrivals`] — arrival processes: Poisson (the paper's default,
//!   §2.2), general renewal, and a bursty Markov-modulated Poisson process
//!   standing in for the paper's trace-scaled arrivals (§6).
//! * [`synthetic`] — turn any `dses-dist` size distribution plus an
//!   arrival process into a [`Trace`] at a chosen system load.
//! * [`presets`] — calibrated stand-ins for the PSC C90, PSC J90 and CTC
//!   SP2 traces (the real logs are proprietary; the presets match the
//!   published mean, `C²` and tail-load statistics — see DESIGN.md).
//! * [`swf`] — a Standard Workload Format parser, so genuine traces from
//!   the Feitelson Parallel Workloads Archive can be dropped in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)`-style validation is intentional: it also rejects NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod arrivals;
pub mod burstiness;
pub mod job;
pub mod presets;
pub mod swf;
pub mod synthetic;
pub mod trace;
pub mod users;

pub use arrivals::{ArrivalProcess, DiurnalPoisson, Mmpp2, Poisson, Renewal, ReplayArrivals};
pub use burstiness::{burstiness_report, BurstinessReport};
pub use job::Job;
pub use presets::{ctc_sp2, psc_c90, psc_j90, WorkloadPreset};
pub use synthetic::WorkloadBuilder;
pub use trace::{Trace, TraceError};
pub use users::{UserTrace, UserWorkloadBuilder};
