//! # dses-core — task assignment policies for distributed supercomputing servers
//!
//! The public face of the `dses` workspace and the home of the paper's
//! contribution: the **load-unbalancing, fairness-preserving SITA-U
//! policies** of Schroeder & Harchol-Balter, *"Evaluation of Task
//! Assignment Policies for Supercomputing Servers: The Case for Load
//! Unbalancing and Fairness"* (HPDC 2000).
//!
//! ## The setting
//!
//! A distributed server: `h` identical multiprocessor hosts fed by one
//! stream of batch jobs. Each job is dispatched to exactly one host; each
//! host runs FCFS, run-to-completion. The single design decision is the
//! **task assignment policy**, and the paper shows it moves mean slowdown
//! by an order of magnitude or more.
//!
//! ## The policies
//!
//! Everything in [`policies`]: the classical load-balancers (Random,
//! Round-Robin, Shortest-Queue, Least-Work-Left ≡ Central-Queue, SITA-E)
//! and the paper's load-unbalancers (SITA-U-opt, SITA-U-fair, the ρ/2
//! rule of thumb), plus the §5 grouped hybrid for many hosts and two
//! extensions the paper points at (central-queue SJF and TAGS).
//!
//! ## Quick start
//!
//! ```
//! use dses_core::prelude::*;
//!
//! // A C90-like supercomputing workload on a 2-host distributed server.
//! let workload = dses_workload::psc_c90();
//! let experiment = Experiment::new(workload.size_dist.clone())
//!     .hosts(2)
//!     .jobs(20_000)
//!     .seed(7);
//!
//! // Simulate SITA-U-fair against the best load-balancing policy.
//! let fair = experiment.run(&PolicySpec::SitaUFair, 0.7);
//! let sita_e = experiment.run(&PolicySpec::SitaE, 0.7);
//! assert!(fair.slowdown.mean < sita_e.slowdown.mean);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)`-style validation is intentional: it also rejects NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod cutoffs;
pub mod estimation;
pub mod experiment;
pub mod fairness;
pub mod policies;
pub mod prediction;
pub mod report;
pub mod rule_of_thumb;
pub mod spec;

pub use cutoffs::{resolve_cutoff, CutoffMethod};
pub use estimation::{MisclassifyingSita, NoisySizeInterval};
pub use experiment::{Experiment, LoadSweep, SweepPoint};
pub use fairness::FairnessReport;
pub use policies::{
    GroupedSita, LeastWorkLeft, RandomPolicy, RoundRobin, ShortestQueue, SizeInterval,
};
pub use rule_of_thumb::rule_of_thumb_cutoff;
pub use spec::PolicySpec;

/// Convenient glob import: `use dses_core::prelude::*;`.
pub mod prelude {
    pub use crate::cutoffs::{resolve_cutoff, CutoffMethod};
    pub use crate::experiment::{Experiment, LoadSweep, SweepPoint};
    pub use crate::fairness::FairnessReport;
    pub use crate::policies::{
        GroupedSita, LeastWorkLeft, RandomPolicy, RoundRobin, ShortestQueue, SizeInterval,
    };
    pub use crate::rule_of_thumb::rule_of_thumb_cutoff;
    pub use crate::spec::PolicySpec;
    pub use dses_dist::prelude::*;
    pub use dses_sim::{Dispatcher, MetricsConfig, QueueDiscipline, SimResult};
    pub use dses_workload::{Trace, WorkloadBuilder};
}
