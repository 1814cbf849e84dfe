//! The collector demand contract, end to end.
//!
//! Three promises from DESIGN.md §13:
//!
//! 1. **Full demand is the status quo** — with `Demand::FULL` (the
//!    default) every engine produces record-bitwise identical results;
//!    the tier dispatch must not perturb the default path.
//! 2. **Demanded fields are bitwise** — any demand subset reproduces the
//!    fields it demands bit-for-bit against a full-demand run, and
//!    undemanded fields read as deterministic empties.
//! 3. **The batched tier is ulp-bounded** — counts, extrema, per-host
//!    tallies, and makespan are exact; stream mean/variance sit within
//!    the documented bounds (mean 1e-12, variance 1e-9 relative) on
//!    adversarial inputs.

use dses_core::policies::{RandomPolicy, SizeInterval};
use dses_core::prelude::*;
use dses_queueing::cutoff::sita_e_cutoffs;
use dses_sim::metrics::Collector;
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

fn rec(i: u64, arrival: f64, size: f64, wait: f64, host: usize) -> JobRecord {
    let start = arrival + wait;
    JobRecord {
        id: i,
        arrival,
        size,
        start,
        completion: start + size,
        host,
    }
}

fn run_collector(cfg: MetricsConfig, hosts: usize, recs: &[JobRecord]) -> SimResult {
    let mut c = Collector::new(hosts, cfg);
    for &r in recs {
        c.record(r);
    }
    c.finish()
}

/// mean within 1e-12 relative, variance within 1e-9 relative, with a
/// tiny absolute floor so exactly-zero streams compare cleanly.
fn assert_block_close(label: &str, batched: &Moments, scalar: &Moments) {
    assert_eq!(batched.count, scalar.count, "{label} count");
    assert_eq!(batched.min.to_bits(), scalar.min.to_bits(), "{label} min");
    assert_eq!(batched.max.to_bits(), scalar.max.to_bits(), "{label} max");
    let mean_err = (batched.mean - scalar.mean).abs();
    assert!(
        mean_err <= 1e-12 * scalar.mean.abs().max(1e-300) || mean_err <= 1e-12,
        "{label} mean off by {mean_err:e} ({} vs {})",
        batched.mean,
        scalar.mean
    );
    let var_err = (batched.variance - scalar.variance).abs();
    assert!(
        var_err <= 1e-9 * scalar.variance.abs().max(1e-300) || var_err <= 1e-12,
        "{label} variance off by {var_err:e} ({} vs {})",
        batched.variance,
        scalar.variance
    );
}

#[test]
fn block_tier_stays_within_documented_bounds_on_adversarial_inputs() {
    let scalar_cfg = MetricsConfig::streaming();
    let batched_cfg = MetricsConfig {
        batched: true,
        ..scalar_cfg
    };
    let hosts = 4;
    // adversarial streams: 1-job, just below/at/above the block
    // boundary, multi-block, and a long tail
    for &n in &[1usize, 63, 64, 65, 128, 1_000] {
        // mixed magnitudes: sizes swing from 1e-9 to 1e9 record to record
        let mixed: Vec<JobRecord> = (0..n)
            .map(|i| {
                let size = if i % 2 == 0 { 1e-9 } else { 1e9 };
                rec(i as u64, i as f64 * 0.25, size, (i % 7) as f64, i % hosts)
            })
            .collect();
        // all-equal records: scalar variance is exactly zero
        let equal: Vec<JobRecord> = (0..n)
            .map(|i| rec(i as u64, i as f64, 3.0, 2.0, i % hosts))
            .collect();
        for (label, recs) in [("mixed", &mixed), ("all-equal", &equal)] {
            let s = run_collector(scalar_cfg, hosts, recs);
            let b = run_collector(batched_cfg, hosts, recs);
            let tag = format!("{label} n={n}");
            assert_block_close(&format!("{tag} slowdown"), &b.slowdown, &s.slowdown);
            assert_block_close(&format!("{tag} queueing"), &b.queueing_slowdown, &s.queueing_slowdown);
            assert_block_close(&format!("{tag} response"), &b.response, &s.response);
            assert_block_close(&format!("{tag} waiting"), &b.waiting, &s.waiting);
            assert_eq!(b.per_host, s.per_host, "{tag} per-host tallies");
            assert_eq!(b.makespan.to_bits(), s.makespan.to_bits(), "{tag} makespan");
            assert_eq!(b.measured, s.measured, "{tag} measured");
        }
    }
}

#[test]
fn block_tier_handles_warmup_boundaries() {
    // a warmup that is not a multiple of the block size forces the
    // per-record staging path across the boundary
    for &warmup in &[1usize, 10, 63, 64, 100] {
        let scalar_cfg = MetricsConfig {
            warmup_jobs: warmup,
            ..MetricsConfig::streaming()
        };
        let batched_cfg = MetricsConfig {
            batched: true,
            ..scalar_cfg
        };
        let recs: Vec<JobRecord> = (0..200)
            .map(|i| rec(i as u64, i as f64 * 0.5, 1.0 + (i % 9) as f64, (i % 5) as f64, i % 3))
            .collect();
        let s = run_collector(scalar_cfg, 3, &recs);
        let b = run_collector(batched_cfg, 3, &recs);
        assert_eq!(b.measured, s.measured, "warmup={warmup}");
        assert_eq!(b.skipped, s.skipped, "warmup={warmup}");
        assert_block_close(&format!("warmup={warmup} slowdown"), &b.slowdown, &s.slowdown);
        assert_eq!(b.makespan.to_bits(), s.makespan.to_bits(), "warmup={warmup}");
    }
}

#[test]
fn batched_engine_runs_match_scalar_within_bounds() {
    // the batched tier through the real engines, against the scalar
    // collector on the same schedule
    let mut ws = SimWorkspace::new();
    for &hosts in &[8usize, 64] {
        let trace = c90_trace(10_000, hosts, 404);
        for (name, build) in builders(hosts) {
            let s = simulate_dispatch(
                &trace,
                hosts,
                build().as_mut(),
                7,
                MetricsConfig::streaming(),
            );
            let mut b = SimResult::empty();
            simulate_dispatch_into(
                &trace,
                hosts,
                build().as_mut(),
                7,
                MetricsConfig {
                    batched: true,
                    ..MetricsConfig::streaming()
                },
                &mut ws,
                &mut b,
            );
            let tag = format!("{name} h={hosts}");
            assert_block_close(&format!("{tag} slowdown"), &b.slowdown, &s.slowdown);
            assert_block_close(&format!("{tag} response"), &b.response, &s.response);
            assert_eq!(b.per_host, s.per_host, "{tag} per-host tallies");
            assert_eq!(b.makespan.to_bits(), s.makespan.to_bits(), "{tag} makespan");
            assert_eq!(b.measured, s.measured, "{tag} measured");
        }
    }
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
