//! The collector demand contract, end to end.
//!
//! Two promises from DESIGN.md §13:
//!
//! 1. **Full demand is the status quo** — with `Demand::FULL` (the
//!    default) every engine produces record-bitwise identical results;
//!    the tier dispatch must not perturb the default path.
//! 2. **Demanded fields are bitwise** — any demand subset reproduces the
//!    fields it demands bit-for-bit against a full-demand run, and
//!    undemanded fields read as deterministic empties.

use dses_core::policies::{RandomPolicy, SizeInterval};
use dses_core::prelude::*;
use dses_queueing::cutoff::sita_e_cutoffs;
use dses_sim::{
    simulate_dispatch, simulate_dispatch_into, Demand, EventEngine, JobRecord, SimWorkspace,
};

fn c90_trace(jobs: usize, hosts: usize, seed: u64) -> Trace {
    dses_workload::psc_c90().trace(jobs, 0.7, hosts, seed)
}

type PolicyBuilder = Box<dyn Fn() -> Box<dyn Dispatcher>>;

fn builders(hosts: usize) -> Vec<(&'static str, PolicyBuilder)> {
    let cutoffs = sita_e_cutoffs(&dses_workload::psc_c90().size_dist, hosts).unwrap();
    vec![
        ("Random", Box::new(|| Box::new(RandomPolicy) as Box<dyn Dispatcher>) as _),
        (
            "SITA-E",
            Box::new(move || {
                Box::new(SizeInterval::new(cutoffs.clone(), "SITA-E")) as Box<dyn Dispatcher>
            }) as _,
        ),
    ]
}

fn moments_bits(m: &Moments) -> (u64, u64, u64, u64, u64) {
    (
        m.count,
        m.mean.to_bits(),
        m.variance.to_bits(),
        m.min.to_bits(),
        m.max.to_bits(),
    )
}

fn core_bits(m: &Moments) -> (u64, u64, u64) {
    (m.count, m.mean.to_bits(), m.variance.to_bits())
}

#[test]
fn full_demand_is_record_bitwise_identical_across_engines() {
    let cfg = MetricsConfig::full_records();
    assert_eq!(cfg.demand, Demand::FULL);
    let mut ws = SimWorkspace::new();
    for &hosts in &[2usize, 8, 64, 1024] {
        let trace = c90_trace(6_000, hosts, 101);
        for (name, build) in builders(hosts) {
            let fast = simulate_dispatch(&trace, hosts, build().as_mut(), 7, cfg);
            let event = EventEngine::new(hosts, cfg).run_dispatch(&trace, build().as_mut(), 7);
            let mut reused = SimResult::empty();
            simulate_dispatch_into(
                &trace,
                hosts,
                build().as_mut(),
                7,
                cfg,
                &mut ws,
                &mut reused,
            );
            // a workspace reused across host counts and policies shares
            // the fast engine's record order: schedules, summaries, and
            // tallies are all bitwise
            let reference: &[JobRecord] = fast.records.as_deref().unwrap();
            assert_eq!(
                reference,
                reused.records.as_deref().unwrap(),
                "{name} records diverged through the reused workspace at h={hosts}"
            );
            assert_eq!(
                moments_bits(&fast.slowdown),
                moments_bits(&reused.slowdown),
                "{name} slowdown diverged through the reused workspace at h={hosts}"
            );
            assert_eq!(fast.per_host, reused.per_host, "{name} per-host h={hosts}");
            assert_eq!(
                fast.makespan.to_bits(),
                reused.makespan.to_bits(),
                "{name} makespan h={hosts}"
            );
            // the event engine records in completion order; the schedule
            // itself must still be job-for-job bitwise identical
            let mut by_id: Vec<JobRecord> = reference.to_vec();
            by_id.sort_by_key(|r| r.id);
            let mut event_by_id = event.records.unwrap();
            event_by_id.sort_by_key(|r| r.id);
            assert_eq!(by_id, event_by_id, "{name} schedule diverged on event at h={hosts}");
            assert_eq!(
                fast.makespan.to_bits(),
                event.makespan.to_bits(),
                "{name} makespan on event h={hosts}"
            );
        }
    }
}

#[test]
fn demanded_fields_are_bitwise_and_undemanded_fields_are_empty() {
    let hosts = 8;
    let trace = c90_trace(8_000, hosts, 202);
    let base = MetricsConfig {
        warmup_jobs: 500,
        ..MetricsConfig::streaming()
    };
    let full = simulate_dispatch(&trace, hosts, &mut RandomPolicy, 7, base);
    for demand in [
        Demand::MEANS,
        Demand::MEANS | Demand::PER_HOST,
        Demand::MEANS | Demand::QUANTILES,
        Demand::MEANS | Demand::PER_HOST | Demand::QUANTILES,
    ] {
        let cfg = MetricsConfig { demand, ..base };
        let r = simulate_dispatch(&trace, hosts, &mut RandomPolicy, 7, cfg);
        // `batched` is inert: every field equals the `batched: false`
        // run's (`{:?}` prints each f64 in its shortest round-trip form,
        // so equal text is equal bits)
        let flagged = MetricsConfig { batched: true, ..cfg };
        let flagged = simulate_dispatch(&trace, hosts, &mut RandomPolicy, 7, flagged);
        assert_eq!(format!("{flagged:?}"), format!("{r:?}"), "batched: true at demand {demand:?}");
        for (stream, a, b) in [
            ("slowdown", &r.slowdown, &full.slowdown),
            ("queueing", &r.queueing_slowdown, &full.queueing_slowdown),
            ("response", &r.response, &full.response),
            ("waiting", &r.waiting, &full.waiting),
        ] {
            assert_eq!(core_bits(a), core_bits(b), "{stream} core at demand {demand:?}");
            if demand.includes(Demand::QUANTILES) {
                assert_eq!(a.min.to_bits(), b.min.to_bits(), "{stream} min");
                assert_eq!(a.max.to_bits(), b.max.to_bits(), "{stream} max");
            } else {
                assert_eq!(a.min, f64::INFINITY, "{stream} min not empty");
                assert_eq!(a.max, f64::NEG_INFINITY, "{stream} max not empty");
            }
        }
        if demand.includes(Demand::PER_HOST) {
            assert_eq!(r.per_host, full.per_host, "per-host at demand {demand:?}");
        } else {
            assert!(
                r.per_host.iter().all(|h| h.jobs == 0 && h.work.to_bits() == 0),
                "per-host not empty at demand {demand:?}"
            );
        }
        assert_eq!(r.makespan.to_bits(), full.makespan.to_bits());
        assert_eq!(r.measured, full.measured);
        assert_eq!(r.skipped, full.skipped);
        assert!(r.records.is_none() && r.fairness.is_none());
    }
}

#[test]
fn undemanded_switches_still_leave_demanded_fields_bitwise() {
    // Optional accumulators (class split, SLO) are switched on in the
    // config but their demand bits are withheld: the collector may take
    // a slimmer path, yet everything demanded stays bitwise.
    let hosts = 4;
    let trace = c90_trace(6_000, hosts, 303);
    let rich = MetricsConfig {
        split_cutoff: Some(5_000.0),
        slo_slowdown: Some(10.0),
        ..MetricsConfig::streaming()
    };
    let full = simulate_dispatch(&trace, hosts, &mut RandomPolicy, 7, rich);
    assert!(full.short_slowdown.is_some() && full.slo_violations.is_some());
    let slim = MetricsConfig {
        demand: Demand::MEANS | Demand::PER_HOST,
        ..rich
    };
    let r = simulate_dispatch(&trace, hosts, &mut RandomPolicy, 7, slim);
    assert_eq!(core_bits(&r.slowdown), core_bits(&full.slowdown));
    assert_eq!(core_bits(&r.waiting), core_bits(&full.waiting));
    assert_eq!(r.per_host, full.per_host);
    assert!(r.short_slowdown.is_none(), "undemanded class split not empty");
    assert!(r.long_slowdown.is_none());
    assert!(r.slo_violations.is_none(), "undemanded SLO count not empty");
}

#[test]
fn sweep_grid_points_match_full_demand_runs_bitwise() {
    // `sweep_grid` demands only `MEANS | PER_HOST`; every field of every
    // point must equal a full-demand run on the same trace bit for bit.
    let preset = dses_workload::psc_c90();
    let specs = [
        PolicySpec::Random,
        PolicySpec::SitaE,
        PolicySpec::ShortestQueue,
    ];
    let loads = [0.5, 0.8];
    let base = Experiment::new(preset.size_dist.clone())
        .hosts(4)
        .jobs(5_000)
        .warmup_jobs(200)
        .seed(1997);
    let sweeps = base.sweep_grid(&specs, &loads);
    for (spec, sweep) in specs.iter().zip(&sweeps) {
        assert_eq!(sweep.policy, spec.name());
        for (&rho, point) in loads.iter().zip(&sweep.points) {
            let full = base.try_run_on_trace(spec, &base.trace(rho)).unwrap();
            let label = format!("{} at rho={rho}", sweep.policy);
            let same = |field: &str, swept: f64, run: f64| {
                assert_eq!(swept.to_bits(), run.to_bits(), "{label}: {field}");
            };
            same("mean slowdown", point.mean_slowdown, full.slowdown.mean);
            same("var slowdown", point.var_slowdown, full.slowdown.variance);
            same("mean response", point.mean_response, full.response.mean);
            same("var response", point.var_response, full.response.variance);
            same("mean waiting", point.mean_waiting, full.waiting.mean);
            same("host-0 load share", point.load_fraction_host0, full.load_fraction(0));
            same("host-0 job share", point.job_fraction_host0, full.job_fraction(0));
            assert_eq!(point.measured, full.measured, "{label}: measured");
        }
    }
}
