//! # dses-sim — the distributed-server simulation engine
//!
//! A discrete-event simulator of the architectural model in Schroeder &
//! Harchol-Balter (HPDC 2000): `h` identical hosts, each running its own
//! FCFS queue, jobs run-to-completion with exclusive use of a host, fed by
//! a single arrival stream (paper §1.1/§2.2).
//!
//! Two execution engines, cross-validated against each other:
//!
//! * [`fast::simulate_dispatch`] — for **dispatch-on-arrival** policies
//!   (every policy in the paper except Central-Queue). Each host's FCFS
//!   queue satisfies the Lindley recursion; the engine specializes its
//!   hot loop to what the policy declares it reads ([`StateNeeds`]):
//!   O(1) per job for static and work-left-only policies, with a
//!   completion heap maintained only for queue-length-aware policies.
//!   Tens of millions of jobs simulate in seconds.
//! * [`event::EventEngine`] — a general event-driven engine with an
//!   explicit event queue and host state machines. It additionally
//!   supports **queueing policies** (Central-Queue variants) where jobs
//!   wait at the dispatcher and hosts pull work when they go idle.
//!
//! Policies plug in through the [`Dispatcher`] trait (immediate dispatch)
//! or the [`QueueDiscipline`] enum (central queue). The policy
//! implementations themselves live in `dses-core`.
//!
//! Metrics ([`metrics`]) follow the paper: per-job **slowdown**
//! (response time / service requirement), response time, waiting time —
//! means *and* variances — plus per-host load shares and the
//! slowdown-vs-size fairness profile of §4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)`-style validation is intentional: it also rejects NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod event;
pub mod fast;
pub mod metrics;
pub mod par;
pub mod state;
pub mod validate;
pub mod workspace;

pub use event::EventEngine;
pub use fast::{
    simulate_dispatch, simulate_dispatch_fused_into, simulate_dispatch_into,
    simulate_dispatch_speeds, simulate_dispatch_speeds_into,
};
pub use par::{
    available_workers, effective_workers, par_map, par_map_indexed, par_map_indexed_scoped,
    WorkerPool,
};
pub use metrics::{Demand, HostStats, JobRecord, MetricsConfig, SimResult};
pub use state::{
    DispatchKernel, Dispatcher, HostView, QueueDiscipline, StateNeeds, SystemState,
};
pub use workspace::SimWorkspace;
