//! Cross-engine golden test for the specialized fast kernels.
//!
//! Every registered dispatch policy (the paper roster plus the rule of
//! thumb, fixed-cutoff, and grouped variants) runs through
//!
//! 1. the fast engine's *specialized* loop (whatever the policy's
//!    [`StateNeeds`] selects),
//! 2. the fast engine's *full* loop (the same policy wrapped so it
//!    claims `StateNeeds::ALL`), and
//! 3. the event engine,
//!
//! on a C90-style trace at three loads, and all three must produce
//! record-for-record identical schedules. Central-queue policies have no
//! dispatch form and are exercised by the event-engine tests instead.
//!
//! The closed-form static kernels (Random, Round-Robin, SITA) are also
//! pinned from a single host up to h = 1024 — where SITA's host lookup
//! switches from the linear prefix count to binary search — and on the
//! adversarial SITA ladders: every job on the first host, every job on
//! the last, and job sizes placed exactly on the cutoffs.

use dses_core::cutoffs::CutoffMethod;
use dses_core::policies::SizeInterval;
use dses_core::spec::{BuiltPolicy, PolicySpec};
use dses_dist::Rng64;
use dses_sim::metrics::JobRecord;
use dses_sim::{
    simulate_dispatch, Dispatcher, EventEngine, MetricsConfig, StateNeeds, SystemState,
};
use dses_workload::{Job, Trace};

/// Forces the full-state loop: delegates everything but inherits the
/// default `state_needs` of `StateNeeds::ALL`.
struct ForceFull(Box<dyn Dispatcher>);

impl Dispatcher for ForceFull {
    fn dispatch(&mut self, job: &Job, state: &SystemState<'_>, rng: &mut Rng64) -> usize {
        self.0.dispatch(job, state, rng)
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

fn records_cfg() -> MetricsConfig {
    MetricsConfig {
        collect_records: true,
        ..MetricsConfig::default()
    }
}

/// Every dispatch-on-arrival policy spec the repo registers.
fn dispatch_roster() -> Vec<PolicySpec> {
    let mut roster = PolicySpec::paper_roster();
    roster.push(PolicySpec::SitaRuleOfThumb);
    roster.push(PolicySpec::SitaFixed {
        cutoffs: vec![5_000.0],
    });
    roster.push(PolicySpec::Grouped {
        method: CutoffMethod::EqualLoad,
    });
    roster
}

fn build_dispatch(spec: &PolicySpec, lambda: f64, hosts: usize) -> Box<dyn Dispatcher> {
    let d = dses_workload::psc_c90().size_dist;
    match spec.build(&d, lambda, hosts).unwrap() {
        BuiltPolicy::Dispatch(p) => p,
        BuiltPolicy::Central(_) => unreachable!("roster is dispatch-only"),
    }
}

fn sorted(mut records: Vec<JobRecord>) -> Vec<JobRecord> {
    records.sort_by_key(|r| r.id);
    records
}

/// Run `trace` through the specialized loop, the full loop, and the
/// event engine — a fresh policy from `fresh` for each — and assert the
/// three schedules are record-for-record identical. Returns the
/// specialized loop's records in id order.
fn assert_engines_identical(
    trace: &Trace,
    hosts: usize,
    fresh: &dyn Fn() -> Box<dyn Dispatcher>,
    seed: u64,
    label: &str,
) -> Vec<JobRecord> {
    let fast = simulate_dispatch(trace, hosts, fresh().as_mut(), seed, records_cfg());
    let slow = simulate_dispatch(trace, hosts, &mut ForceFull(fresh()), seed, records_cfg());
    let event = EventEngine::new(hosts, records_cfg()).run_dispatch(trace, fresh().as_mut(), seed);

    let fast_records = sorted(fast.records.unwrap());
    assert_eq!(
        fast_records,
        sorted(slow.records.unwrap()),
        "{label}: specialized loop vs full loop"
    );
    assert_eq!(
        fast_records,
        sorted(event.records.unwrap()),
        "{label}: fast engine vs event engine"
    );
    fast_records
}

fn assert_three_way_identical(spec: &PolicySpec, hosts: usize, rho: f64, seed: u64) {
    let trace = dses_workload::psc_c90().trace(5_000, rho, hosts, seed);
    let lambda = trace.arrival_rate();
    assert_engines_identical(
        &trace,
        hosts,
        &|| build_dispatch(spec, lambda, hosts),
        7,
        &format!("{} (hosts={hosts}, rho={rho})", spec.name()),
    );
}

#[test]
fn every_policy_matches_across_kernels_and_engines_two_hosts() {
    for spec in dispatch_roster() {
        for (i, &rho) in [0.3, 0.6, 0.9].iter().enumerate() {
            assert_three_way_identical(&spec, 2, rho, 42 + i as u64);
        }
    }
}

#[test]
fn multi_host_policies_match_across_kernels_and_engines() {
    // four hosts exercises the multi-host cutoff solvers and the grouped
    // policy's two-team LWL; rule-of-thumb stays a 2-host rule
    let roster = [
        PolicySpec::ShortestQueue,
        PolicySpec::LeastWorkLeft,
        PolicySpec::SitaE,
        PolicySpec::SitaUOpt,
        PolicySpec::SitaUFair,
        PolicySpec::Grouped {
            method: CutoffMethod::Fair,
        },
    ];
    for spec in roster {
        for (i, &rho) in [0.3, 0.6, 0.9].iter().enumerate() {
            assert_three_way_identical(&spec, 4, rho, 11 + i as u64);
        }
    }
}

#[test]
fn declared_needs_never_exceed_the_full_loop() {
    // sanity on the adapter itself: wrapping must not change the name or
    // the declared needs semantics (ForceFull always claims everything)
    let policy = ForceFull(build_dispatch(&PolicySpec::RoundRobin, 1e-6, 2));
    assert_eq!(policy.state_needs(), StateNeeds::ALL);
    assert_eq!(policy.name(), "Round-Robin");
}

/// The static kernels from a single host to h = 1024 at two loads. SITA
/// runs from solved SITA-E cutoffs up to h = 64 and from a geometric
/// ladder of 1023 cutoffs at h = 1024 — deep in the binary-search host
/// lookup — so the widest case stays solver-free.
#[test]
fn static_kernels_match_across_engines_from_one_to_1024_hosts() {
    for &hosts in &[1usize, 8, 64, 1024] {
        for &rho in &[0.5, 0.9] {
            let trace = dses_workload::psc_c90().trace(5_000, rho, hosts, 11);
            let lambda = trace.arrival_rate();
            let mut roster = vec![PolicySpec::Random, PolicySpec::RoundRobin];
            if hosts <= 64 {
                roster.push(PolicySpec::SitaE);
            }
            for spec in &roster {
                assert_engines_identical(
                    &trace,
                    hosts,
                    &|| build_dispatch(spec, lambda, hosts),
                    7,
                    &format!("{} (hosts={hosts}, rho={rho})", spec.name()),
                );
            }
            if hosts > 64 {
                // strictly increasing ladder spanning the C90 size range
                let cuts: Vec<f64> = (1..hosts).map(|i| 500.0 * 1.02f64.powi(i as i32)).collect();
                assert_engines_identical(
                    &trace,
                    hosts,
                    &|| Box::new(SizeInterval::new(cuts.clone(), "SITA-wide")),
                    7,
                    &format!("SITA-wide (hosts={hosts}, rho={rho})"),
                );
            }
        }
    }
}

/// SITA cutoff ladders that send every job to the first or to the last
/// of 8 hosts: one host carries the whole trace while seven stay idle.
#[test]
fn sita_ladders_routing_every_job_to_one_end_host_match_across_engines() {
    let trace = dses_workload::psc_c90().trace(9_000, 0.6, 8, 37);
    let max_size = trace.sizes().iter().fold(0.0f64, |a, &b| a.max(b));
    let min_size = trace.sizes().iter().fold(f64::INFINITY, |a, &b| a.min(b));
    // every cutoff above every size: all jobs land on host 0
    let above: Vec<f64> = (0..7).map(|i| max_size * (2.0 + i as f64)).collect();
    // every cutoff below every size: all jobs land on host 7
    let below: Vec<f64> = (1..=7).map(|i| min_size * i as f64 / 16.0).collect();
    for (cuts, name, host) in [(above, "all-to-first", 0), (below, "all-to-last", 7)] {
        let records = assert_engines_identical(
            &trace,
            8,
            &|| Box::new(SizeInterval::new(cuts.clone(), name)),
            5,
            name,
        );
        assert!(
            records.iter().all(|r| r.host == host),
            "{name}: a job escaped host {host}"
        );
    }
}

/// End-to-end pin of the wide-SITA host lookup's leftmost semantics:
/// job sizes placed *exactly on* cutoffs must route identically through
/// the specialized kernel, the full loop, the event engine, and the
/// policy's own `host_for` (`partition_point(|&c| size > c)` — a tie
/// stays left).
#[test]
fn wide_sita_boundary_sizes_route_with_leftmost_semantics() {
    let hosts = 64; // 63 cutoffs: the binary-search path
    let cuts: Vec<f64> = (1..hosts).map(|i| i as f64).collect();
    let policy = SizeInterval::new(cuts.clone(), "SITA-boundary");
    // sizes: every cutoff exactly, plus straddles and extremes,
    // repeated so ties are dense
    let mut sizes: Vec<f64> = Vec::new();
    for &c in &cuts {
        sizes.extend_from_slice(&[c, c, c - 0.5, c + 0.5]);
    }
    sizes.extend_from_slice(&[0.25, 1e9]);
    let jobs: Vec<Job> = sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| Job::new(i as u64, i as f64 * 0.125, s))
        .collect();
    let trace = Trace::new(jobs);
    let records = assert_engines_identical(
        &trace,
        hosts,
        &|| Box::new(SizeInterval::new(cuts.clone(), "SITA-boundary")),
        1,
        "SITA-boundary",
    );
    for rec in records {
        assert_eq!(
            rec.host,
            policy.host_for(rec.size),
            "size {} routed to {} but partition_point says {}",
            rec.size,
            rec.host,
            policy.host_for(rec.size)
        );
    }
}
