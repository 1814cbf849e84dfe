//! Bit-identity gates for replication lanes.
//!
//! The lane loop (`simulate_dispatch_fused_into`) runs R replications
//! back to back through one shared workspace, and `Experiment::replicate`
//! fans replications out over the worker pool; the kernels underneath
//! use the vectorized argmin in place of the branchy scalar scan. None of
//! that may change a single bit of any lane's schedule or metrics: every
//! test here compares against the plain sequential path
//! record-for-record and moment-for-moment.

use dses_core::spec::{BuiltPolicy, PolicySpec};
use dses_core::Experiment;
use dses_dist::derive_seed;
use dses_sim::{
    simulate_dispatch, simulate_dispatch_fused_into, Dispatcher, MetricsConfig, SimWorkspace,
};
use dses_workload::Trace;

fn records_cfg() -> MetricsConfig {
    MetricsConfig {
        collect_records: true,
        ..MetricsConfig::default()
    }
}

/// One policy per kernel class: the three closed-form static kernels,
/// the work-left kernel, and Shortest-Queue on the queue-length loop.
fn fused_roster() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Random,
        PolicySpec::RoundRobin,
        PolicySpec::SitaE,
        PolicySpec::LeastWorkLeft,
        PolicySpec::ShortestQueue,
    ]
}

fn build(spec: &PolicySpec, lambda: f64, hosts: usize) -> Box<dyn Dispatcher> {
    let d = dses_workload::psc_c90().size_dist;
    match spec.build(&d, lambda, hosts).unwrap() {
        BuiltPolicy::Dispatch(p) => p,
        BuiltPolicy::Central(_) => unreachable!("roster is dispatch-only"),
    }
}

/// Lanes run through one shared workspace must be bit-identical to solo
/// runs at R ∈ {1, 3, 8}: each lane's reset must leave nothing behind
/// from the lane before it. One workspace serves every policy and lane
/// count, so the resets also cross kernel classes.
#[test]
fn fused_replications_match_sequential_bitwise() {
    let hosts = 4;
    let mut ws = SimWorkspace::new();
    let mut fused = Vec::new();
    for spec in fused_roster() {
        for lanes in [1usize, 3, 8] {
            // distinct trace and policy seed per lane, like a replicated
            // grid point
            let traces: Vec<Trace> = (0..lanes)
                .map(|r| dses_workload::psc_c90().trace(2_000, 0.7, hosts, 100 + r as u64))
                .collect();
            let refs: Vec<&Trace> = traces.iter().collect();
            let lambda = traces[0].arrival_rate();
            let mut policies: Vec<Box<dyn Dispatcher>> =
                (0..lanes).map(|_| build(&spec, lambda, hosts)).collect();
            let seeds: Vec<u64> = (0..lanes).map(|r| 7 + r as u64).collect();
            let cfgs = vec![records_cfg(); lanes];

            simulate_dispatch_fused_into(
                &refs,
                hosts,
                &mut policies,
                &seeds,
                &cfgs,
                &mut ws,
                &mut fused,
            );
            assert_eq!(fused.len(), lanes, "one result per lane");

            for r in 0..lanes {
                let mut solo_policy = build(&spec, lambda, hosts);
                let solo = simulate_dispatch(
                    &traces[r],
                    hosts,
                    solo_policy.as_mut(),
                    seeds[r],
                    records_cfg(),
                );
                assert_eq!(
                    fused[r].records, solo.records,
                    "{} lane {r}/{lanes}: fused schedule diverged",
                    spec.name()
                );
                assert_eq!(
                    fused[r].slowdown, solo.slowdown,
                    "{} lane {r}/{lanes}: fused slowdown moments diverged",
                    spec.name()
                );
                assert_eq!(fused[r].per_host, solo.per_host, "{} lane {r}", spec.name());
                assert_eq!(
                    fused[r].makespan.to_bits(),
                    solo.makespan.to_bits(),
                    "{} lane {r}",
                    spec.name()
                );
            }
        }
    }
}

/// `Experiment::replicate` (one pool task per replication) must
/// reproduce the hand-rolled sequential replication loop exactly.
#[test]
fn experiment_replicate_matches_manual_sequential_lanes() {
    let seed = 9;
    let exp = Experiment::new(dses_workload::psc_c90().size_dist)
        .hosts(4)
        .jobs(2_000)
        .seed(seed);
    for spec in [PolicySpec::Random, PolicySpec::SitaE, PolicySpec::LeastWorkLeft] {
        for reps in [1usize, 3, 8] {
            let fused = exp.replicate(&spec, 0.7, reps).unwrap();
            let samples: Vec<f64> = (0..reps)
                .map(|r| {
                    let lane = exp.clone().seed(derive_seed(seed, r as u64));
                    let trace = lane.trace(0.7);
                    lane.try_run_on_trace(&spec, &trace).unwrap().slowdown.mean
                })
                .collect();
            let mean = samples.iter().sum::<f64>() / reps as f64;
            assert_eq!(
                fused.mean.to_bits(),
                mean.to_bits(),
                "{} x{reps}: fused replicate diverged from sequential lanes",
                spec.name()
            );
        }
    }
}

/// Central-queue policies replicate through the event engine; `replicate`
/// must stay deterministic for them too.
#[test]
fn central_queue_replication_takes_the_sequential_fallback() {
    let exp = Experiment::new(dses_workload::psc_c90().size_dist)
        .hosts(2)
        .jobs(1_000)
        .seed(3);
    let spec = PolicySpec::CentralQueue;
    let a = exp.replicate(&spec, 0.6, 3).unwrap();
    let b = exp.replicate(&spec, 0.6, 3).unwrap();
    assert_eq!(a.mean.to_bits(), b.mean.to_bits());
    assert!(a.mean >= 1.0, "mean slowdown below 1: {}", a.mean);
}
