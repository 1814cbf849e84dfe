//! Cross-engine golden test for the specialized fast kernels.
//!
//! Every registered dispatch policy (the paper roster plus the rule of
//! thumb, fixed-cutoff, and grouped variants) runs through
//!
//! 1. the fast engine as the policy declares itself — for the
//!    closed-form policies the inlined kernel its `DispatchKernel`
//!    selects, for the others the generic loop instantiated on its
//!    [`StateNeeds`],
//! 2. the generic loop on the policy's own [`StateNeeds`] (the policy
//!    wrapped so it declares no kernel: one `dispatch` call per job),
//! 3. the generic loop on `StateNeeds::ALL` (the policy wrapped so it
//!    claims both view fields), and
//! 4. the event engine, the one independent reference,
//!
//! on a C90-style trace at three loads, and all four must produce
//! record-for-record identical schedules. A policy that reads both
//! fields — fewest jobs, then least work left — runs the same
//! comparison at 2, 3 and 16 hosts. Central-queue policies have no
//! dispatch form and are exercised by the event-engine tests instead.
//!
//! The closed-form kernel (Random, Round-Robin, SITA, and
//! Least-Work-Left's chunked argmin) is also pinned from a single host
//! up to h = 1024 — where SITA's host lookup switches from the linear
//! prefix count to binary search — and on the adversarial SITA ladders:
//! every job on the first host, every job on the last, and job sizes
//! placed exactly on the cutoffs.
//!
//! Grouped SITA/LWL runs the same kernel with the argmin over one
//! group's hosts. It is pinned with hand-picked splits whose short and
//! long groups fall on both sides of the argmin's 16-host chunk switch,
//! with cutoffs that load either group, on a tie-dense trace of
//! simultaneous arrivals sized exactly at the cutoff, and with a policy
//! built for fewer hosts than the engine runs.
//!
//! Heterogeneous hosts (a job of size `x` runs `x / speed` on its host)
//! get their own leg: the kernel as declared ≡ the opaque loop ≡ the
//! event engine with the same speeds, for every roster policy on two
//! hosts and for Least-Work-Left, SITA-E, Random, Round-Robin and
//! grouped SITA at 4 and 64 hosts with non-dyadic speeds, so a service
//! time computed any other way than the event engine's `size / speed`
//! shows here.

use dses_core::cutoffs::CutoffMethod;
use dses_core::policies::{GroupedSita, SizeInterval};
use dses_core::spec::{BuiltPolicy, PolicySpec};
use dses_dist::Rng64;
use dses_sim::metrics::JobRecord;
use dses_sim::{
    simulate_dispatch, simulate_dispatch_speeds, Dispatcher, EventEngine, MetricsConfig,
    StateNeeds, SystemState,
};
use dses_workload::{Job, Trace};

/// Forces the generic loop's `ALL` instantiation: delegates everything
/// but inherits the default `state_needs` of `StateNeeds::ALL`.
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

/// Forces the generic loop on the policy's own needs: keeps the
/// declared `state_needs` but inherits the default
/// `DispatchKernel::Opaque`, so the engine calls `dispatch` once per job
/// instead of inlining the policy's closed-form kernel.
struct ForceOpaque(Box<dyn Dispatcher>);

impl Dispatcher for ForceOpaque {
    fn dispatch(&mut self, job: &Job, state: &SystemState<'_>, rng: &mut Rng64) -> usize {
        self.0.dispatch(job, state, rng)
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn state_needs(&self) -> StateNeeds {
        self.0.state_needs()
    }
}

/// Picks the host with the fewest in-system jobs, breaking ties by least
/// work left and then by lowest index: a policy that reads both view
/// fields, so no specialization can drop either.
struct FewestThenLeastWork;

impl Dispatcher for FewestThenLeastWork {
    fn dispatch(&mut self, _: &Job, state: &SystemState<'_>, _: &mut Rng64) -> usize {
        state
            .hosts
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.queue_len
                    .cmp(&b.queue_len)
                    .then(a.work_left.total_cmp(&b.work_left))
            })
            .expect("at least one host")
            .0
    }
    fn state_needs(&self) -> StateNeeds {
        StateNeeds::ALL
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

/// Run `trace` through the policy as declared, the generic loop on its
/// own needs, the generic loop on `ALL`, and the event engine — a fresh
/// policy from `fresh` for each — and assert the four schedules are
/// record-for-record identical. Returns the first run's records in id
/// order.
fn assert_engines_identical(
    trace: &Trace,
    hosts: usize,
    fresh: &dyn Fn() -> Box<dyn Dispatcher>,
    seed: u64,
    label: &str,
) -> Vec<JobRecord> {
    let fast = simulate_dispatch(trace, hosts, fresh().as_mut(), seed, records_cfg());
    let opaque = simulate_dispatch(trace, hosts, &mut ForceOpaque(fresh()), seed, records_cfg());
    let slow = simulate_dispatch(trace, hosts, &mut ForceFull(fresh()), seed, records_cfg());
    let event = EventEngine::new(hosts, records_cfg()).run_dispatch(trace, fresh().as_mut(), seed);

    let fast_records = sorted(fast.records.unwrap());
    assert_eq!(
        fast_records,
        sorted(opaque.records.unwrap()),
        "{label}: declared kernel vs opaque loop"
    );
    assert_eq!(
        fast_records,
        sorted(slow.records.unwrap()),
        "{label}: declared needs vs ALL"
    );
    assert_eq!(
        fast_records,
        sorted(event.records.unwrap()),
        "{label}: fast engine vs event engine"
    );
    fast_records
}

fn assert_c90_engines_identical(spec: &PolicySpec, hosts: usize, rho: f64, seed: u64) {
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
            assert_c90_engines_identical(&spec, 2, rho, 42 + i as u64);
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
            assert_c90_engines_identical(&spec, 4, rho, 11 + i as u64);
        }
    }
    // the queue-length kernel's tournament heap over 16 FIFO fronts
    assert_c90_engines_identical(&PolicySpec::ShortestQueue, 16, 0.8, 17);
    // both view fields read together, on the same deques and heap
    for (i, &hosts) in [2usize, 3, 16].iter().enumerate() {
        for &rho in &[0.3, 0.6, 0.9] {
            let trace = dses_workload::psc_c90().trace(5_000, rho, hosts, 61 + i as u64);
            assert_engines_identical(
                &trace,
                hosts,
                &|| Box::new(FewestThenLeastWork),
                7,
                &format!("fewest-then-least-work (hosts={hosts}, rho={rho})"),
            );
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

/// The static kernels and Least-Work-Left's chunked work-left kernel
/// from a single host to h = 1024 at two loads. SITA runs from solved
/// SITA-E cutoffs up to h = 64 and from a geometric ladder of 1023
/// cutoffs at h = 1024 — deep in the binary-search host lookup — so the
/// widest case stays solver-free.
#[test]
fn static_kernels_match_across_engines_from_one_to_1024_hosts() {
    for &hosts in &[1usize, 8, 64, 1024] {
        for &rho in &[0.5, 0.9] {
            let trace = dses_workload::psc_c90().trace(5_000, rho, hosts, 11);
            let lambda = trace.arrival_rate();
            let mut roster = vec![
                PolicySpec::Random,
                PolicySpec::RoundRobin,
                PolicySpec::LeastWorkLeft,
            ];
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
/// the specialized kernel, the `ALL` loop, the event engine, and the
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

/// The size at which the jobs of `trace` no larger than it first carry
/// `share` of the trace's total work: a grouped cutoff that leaves that
/// share of the load to the short group.
fn work_share_cutoff(trace: &Trace, share: f64) -> f64 {
    let mut sizes = trace.sizes().to_vec();
    sizes.sort_by(f64::total_cmp);
    let total: f64 = sizes.iter().sum();
    let mut below = 0.0;
    for &size in &sizes {
        below += size;
        if below >= share * total {
            return size;
        }
    }
    sizes[sizes.len() - 1]
}

/// Asserts that every job of size `<= cutoff` ran on `0..short` and every
/// other job on `short..end`.
fn assert_grouped_routing(
    records: &[JobRecord],
    cutoff: f64,
    short: usize,
    end: usize,
    label: &str,
) {
    for r in records {
        let group = if r.size <= cutoff {
            0..short
        } else {
            short..end
        };
        assert!(
            group.contains(&r.host),
            "{label}: job {} of size {} ran on host {}, outside {group:?}",
            r.id,
            r.size,
            r.host
        );
    }
}

/// Grouped SITA/LWL built directly, so the split is chosen, not solved:
/// the grouped work-left kernel ≡ the opaque loop ≡ `ALL` ≡ the event
/// engine. Short groups of 1 to 63 hosts at h = 64 put each group on
/// either side of the argmin's 16-host chunk switch, and the cutoffs
/// leave a fifth or four fifths of the work to the short group.
#[test]
fn grouped_sita_kernel_matches_across_engines() {
    let splits: [(usize, &[usize]); 3] = [
        (64, &[1, 8, 15, 16, 17, 32, 48, 63]),
        (40, &[20]),
        (2, &[1]),
    ];
    for (hosts, shorts) in splits {
        for (i, &rho) in [0.3, 0.9].iter().enumerate() {
            let trace = dses_workload::psc_c90().trace(4_000, rho, hosts, 71 + i as u64);
            for share in [0.2, 0.8] {
                let cutoff = work_share_cutoff(&trace, share);
                for &short in shorts {
                    let label = format!(
                        "grouped (hosts={hosts}, short={short}, rho={rho}, short share={share})"
                    );
                    let records = assert_engines_identical(
                        &trace,
                        hosts,
                        &|| Box::new(GroupedSita::new(cutoff, hosts, short, "grouped")),
                        7,
                        &label,
                    );
                    assert_grouped_routing(&records, cutoff, short, hosts, &label);
                }
            }
        }
    }
}

/// Batches of simultaneous arrivals with sizes on and around the cutoff:
/// equal backlogs tie on every host of a group, many hosts go idle at
/// once, and a size exactly at the cutoff must go short.
#[test]
fn grouped_sita_kernel_keeps_ties_leftmost_and_cutoff_sizes_short() {
    let cutoff = 10.0;
    let sizes = [
        cutoff,
        cutoff,
        0.5 * cutoff,
        2.0 * cutoff,
        cutoff,
        4.0 * cutoff,
        cutoff,
    ];
    let mut jobs = Vec::new();
    for batch in 0..120u32 {
        let arrival = f64::from(batch) * 7.5;
        for k in 0..(3 + batch % 40) as usize {
            let id = jobs.len() as u64;
            jobs.push(Job::new(
                id,
                arrival,
                sizes[(batch as usize + k) % sizes.len()],
            ));
        }
    }
    let trace = Trace::new(jobs);
    for (hosts, short) in [(64, 17), (64, 48), (40, 20), (17, 1), (2, 1)] {
        let label = format!("tie-dense grouped (hosts={hosts}, short={short})");
        let records = assert_engines_identical(
            &trace,
            hosts,
            &|| Box::new(GroupedSita::new(cutoff, hosts, short, "grouped-ties")),
            3,
            &label,
        );
        assert_grouped_routing(&records, cutoff, short, hosts, &label);
        assert!(
            records.iter().any(|r| r.size == cutoff),
            "{label}: no job sized exactly at the cutoff"
        );
    }
}

/// A grouped policy built for 4 hosts and run on 8: its long group is
/// hosts 2–3, so hosts 4–7 stay idle in every engine. The kernel bounds
/// the long group by the policy's own host count, not the engine's.
#[test]
fn grouped_sita_built_for_fewer_hosts_keeps_its_own_long_group() {
    let trace = dses_workload::psc_c90().trace(4_000, 0.8, 4, 29);
    let cutoff = work_share_cutoff(&trace, 0.5);
    let records = assert_engines_identical(
        &trace,
        8,
        &|| Box::new(GroupedSita::new(cutoff, 4, 2, "grouped-4-on-8")),
        7,
        "grouped 4-host policy on 8 hosts",
    );
    assert_grouped_routing(&records, cutoff, 2, 4, "grouped 4-host policy on 8 hosts");
}

/// Run `trace` on hosts of the given `speeds` through the policy as
/// declared, the generic loop on its own needs, and the event engine
/// with the same speeds — a fresh policy from `fresh` for each — and
/// assert the three schedules are record-for-record identical.
fn assert_engines_identical_on_speeds(
    trace: &Trace,
    speeds: &[f64],
    fresh: &dyn Fn() -> Box<dyn Dispatcher>,
    seed: u64,
    label: &str,
) {
    let fast = simulate_dispatch_speeds(trace, speeds, fresh().as_mut(), seed, records_cfg());
    let opaque = simulate_dispatch_speeds(
        trace,
        speeds,
        &mut ForceOpaque(fresh()),
        seed,
        records_cfg(),
    );
    let event = EventEngine::with_speeds(speeds.to_vec(), records_cfg()).run_dispatch(
        trace,
        fresh().as_mut(),
        seed,
    );
    let fast_records = sorted(fast.records.unwrap());
    assert_eq!(
        fast_records,
        sorted(opaque.records.unwrap()),
        "{label}: declared kernel vs opaque loop"
    );
    assert_eq!(
        fast_records,
        sorted(event.records.unwrap()),
        "{label}: fast engine vs event engine"
    );
}

/// Heterogeneous hosts: the kernel and the generic loop divide each size
/// by its host's speed exactly as the event engine does. Speeds 0.7, 1.3
/// and 2.5 have no exact reciprocal, so a service time computed as
/// `size * (1.0 / speed)` moves bits and fails here. At 64 hosts both
/// groups of the grouped policy and Least-Work-Left's whole host range
/// run the argmin's chunked branch; at 2 and 4 hosts its scalar loop.
#[test]
fn kernels_match_the_event_engine_on_heterogeneous_speeds() {
    let cycle = [1.0, 0.7, 1.3, 2.5];
    for spec in dispatch_roster() {
        for (i, &rho) in [0.3, 0.8].iter().enumerate() {
            let trace = dses_workload::psc_c90().trace(5_000, rho, 2, 83 + i as u64);
            let lambda = trace.arrival_rate();
            assert_engines_identical_on_speeds(
                &trace,
                &[1.0, 0.7],
                &|| build_dispatch(&spec, lambda, 2),
                7,
                &format!("{} (speeds [1.0, 0.7], rho={rho})", spec.name()),
            );
        }
    }
    let grouped = PolicySpec::Grouped {
        method: CutoffMethod::Fair,
    };
    let wide = [
        PolicySpec::LeastWorkLeft,
        PolicySpec::SitaE,
        PolicySpec::Random,
        PolicySpec::RoundRobin,
        grouped.clone(),
    ];
    for (hosts, roster) in [(4, std::slice::from_ref(&grouped)), (64, &wide[..])] {
        let speeds: Vec<f64> = cycle.iter().copied().cycle().take(hosts).collect();
        for (i, &rho) in [0.5, 0.9].iter().enumerate() {
            let trace = dses_workload::psc_c90().trace(5_000, rho, hosts, 89 + i as u64);
            let lambda = trace.arrival_rate();
            for spec in roster {
                assert_engines_identical_on_speeds(
                    &trace,
                    &speeds,
                    &|| build_dispatch(spec, lambda, hosts),
                    7,
                    &format!("{} (hosts={hosts}, cycling speeds, rho={rho})", spec.name()),
                );
            }
        }
    }
}
