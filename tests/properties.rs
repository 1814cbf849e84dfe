//! Property-based tests: invariants of the distribution substrate, the
//! simulation engines, and the policy layer under randomly generated
//! parameters and traces.
//!
//! The workspace is dependency-free, so instead of `proptest` these use a
//! deterministic in-house case generator: every property is checked over
//! a fixed number of pseudo-random cases drawn from [`Rng64`] streams.
//! Failures print the case seed, so any counterexample is reproducible by
//! construction.

use dses_core::policies::{GroupedSita, LeastWorkLeft, RandomPolicy, RoundRobin, SizeInterval};
use dses_core::prelude::*;
use dses_sim::validate::{fcfs_order_respected, service_is_exclusive_and_exact};
use dses_sim::{simulate_dispatch, EventEngine};
use dses_workload::Job;

/// Number of generated cases per property (the proptest default was 64).
const CASES: u64 = 64;

fn records_cfg() -> MetricsConfig {
    MetricsConfig::full_records()
}

/// Deterministic per-property case generator: one independent RNG per
/// (property tag, case index).
fn case_rng(tag: u64, case: u64) -> Rng64 {
    Rng64::seed_from(dses_dist::derive_seed(tag, case))
}

/// A random small job trace: positive sizes, arbitrary arrival order
/// (Trace::new sorts).
fn arb_trace(rng: &mut Rng64, max_jobs: usize) -> Trace {
    let n = 1 + rng.below(max_jobs as u64 - 1) as usize;
    Trace::new(
        (0..n)
            .map(|i| {
                let arrival = rng.uniform_in(0.0, 500.0);
                let size = rng.uniform_in(0.01, 100.0);
                Job::new(i as u64, arrival, size)
            })
            .collect(),
    )
}

/// A random Bounded Pareto with sane parameters.
fn arb_bounded_pareto(rng: &mut Rng64) -> BoundedPareto {
    let k = rng.uniform_in(0.1, 10.0);
    let spread = rng.uniform_in(1.5, 1.0e4);
    let alpha = rng.uniform_in(0.3, 3.0);
    BoundedPareto::new(k, k * spread, alpha).unwrap()
}

// ---------- distribution invariants ----------

#[test]
fn bounded_pareto_cdf_is_monotone_and_bounded() {
    for case in 0..CASES {
        let mut rng = case_rng(0x01, case);
        let d = arb_bounded_pareto(&mut rng);
        let x1 = rng.uniform_in(0.0, 1.0e6);
        let x2 = rng.uniform_in(0.0, 1.0e6);
        let (lo, hi) = (x1.min(x2), x1.max(x2));
        assert!(d.cdf(lo) <= d.cdf(hi) + 1e-12, "case {case}");
        assert!((0.0..=1.0).contains(&d.cdf(lo)), "case {case}");
    }
}

#[test]
fn bounded_pareto_quantile_round_trip() {
    for case in 0..CASES {
        let mut rng = case_rng(0x02, case);
        let d = arb_bounded_pareto(&mut rng);
        let p = rng.uniform_in(0.001, 0.999);
        let x = d.quantile(p);
        assert!(
            (d.cdf(x) - p).abs() < 1e-8,
            "case {case}: p={p}, x={x}, cdf={}",
            d.cdf(x)
        );
    }
}

#[test]
fn partial_moments_are_additive() {
    for case in 0..CASES {
        let mut rng = case_rng(0x03, case);
        let d = arb_bounded_pareto(&mut rng);
        let split = rng.uniform_in(0.01, 0.99);
        let order = rng.below(4) as i32 - 1; // -1..=2
        let mid = d.quantile(split);
        let (lo, hi) = d.support();
        let whole = d.partial_moment(order, lo * 0.5, hi);
        let parts = d.partial_moment(order, lo * 0.5, mid) + d.partial_moment(order, mid, hi);
        let rel = (whole - parts).abs() / whole.abs().max(1e-300);
        assert!(rel < 1e-9, "case {case} order={order}: whole={whole}, parts={parts}");
    }
}

#[test]
fn sampling_stays_in_support() {
    for case in 0..CASES {
        let mut rng = case_rng(0x04, case);
        let d = arb_bounded_pareto(&mut rng);
        let (lo, hi) = d.support();
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            assert!(
                x >= lo * (1.0 - 1e-12) && x <= hi * (1.0 + 1e-12),
                "case {case}: {x} outside [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn hyperexp_fit_round_trips() {
    for case in 0..CASES {
        let mut rng = case_rng(0x05, case);
        let mean = rng.uniform_in(0.1, 1.0e4);
        let scv = rng.uniform_in(1.0, 100.0);
        let d = HyperExponential::fit_mean_scv(mean, scv).unwrap();
        assert!((d.mean() - mean).abs() / mean < 1e-8, "case {case}");
        assert!((d.scv() - scv).abs() / scv < 1e-7, "case {case}");
    }
}

#[test]
fn empirical_moments_match_sample() {
    for case in 0..CASES {
        let mut rng = case_rng(0x06, case);
        let n = 1 + rng.below(199) as usize;
        let values: Vec<f64> = (0..n).map(|_| rng.uniform_in(0.01, 1.0e4)).collect();
        let emp = Empirical::from_values(&values).unwrap();
        let nf = n as f64;
        let mean: f64 = values.iter().sum::<f64>() / nf;
        assert!((emp.mean() - mean).abs() / mean.max(1e-12) < 1e-10, "case {case}");
        let m2: f64 = values.iter().map(|v| v * v).sum::<f64>() / nf;
        assert!((emp.raw_moment(2) - m2).abs() / m2.max(1e-12) < 1e-10, "case {case}");
    }
}

// ---------- simulation invariants ----------

#[test]
fn all_jobs_complete_with_slowdown_at_least_one() {
    for case in 0..CASES {
        let mut rng = case_rng(0x10, case);
        let trace = arb_trace(&mut rng, 120);
        let hosts = 1 + rng.below(4) as usize;
        let mut policy = LeastWorkLeft;
        let r = simulate_dispatch(&trace, hosts, &mut policy, 0, records_cfg());
        assert_eq!(r.measured as usize, trace.len(), "case {case}");
        for rec in r.records.unwrap() {
            assert!(rec.slowdown() >= 1.0 - 1e-9, "case {case}");
            assert!(rec.start >= rec.arrival, "case {case}");
        }
    }
}

#[test]
fn engines_agree_on_random_traces() {
    for case in 0..CASES {
        let mut rng = case_rng(0x11, case);
        let trace = arb_trace(&mut rng, 80);
        let seed = rng.below(50);
        let mut p1 = RoundRobin::default();
        let mut p2 = RoundRobin::default();
        let fast = simulate_dispatch(&trace, 3, &mut p1, seed, records_cfg());
        let event = EventEngine::new(3, records_cfg()).run_dispatch(&trace, &mut p2, seed);
        let mut fr = fast.records.unwrap();
        let mut er = event.records.unwrap();
        fr.sort_by_key(|r| r.id);
        er.sort_by_key(|r| r.id);
        assert_eq!(fr, er, "case {case}");
    }
}

#[test]
fn lwl_equals_central_queue_on_random_traces() {
    for case in 0..CASES {
        let mut rng = case_rng(0x12, case);
        let trace = arb_trace(&mut rng, 80);
        let hosts = 1 + rng.below(3) as usize;
        let mut lwl = LeastWorkLeft;
        let a = simulate_dispatch(&trace, hosts, &mut lwl, 0, records_cfg());
        let b = EventEngine::new(hosts, records_cfg())
            .run_central_queue(&trace, QueueDiscipline::Fcfs);
        let mut ar = a.records.unwrap();
        let mut br = b.records.unwrap();
        ar.sort_by_key(|r| r.id);
        br.sort_by_key(|r| r.id);
        for (x, y) in ar.iter().zip(&br) {
            assert!(
                (x.response() - y.response()).abs() < 1e-9,
                "case {case} job {}: lwl {} vs cq {}",
                x.id,
                x.response(),
                y.response()
            );
        }
    }
}

#[test]
fn work_conservation_and_exclusivity() {
    for case in 0..CASES {
        let mut rng = case_rng(0x13, case);
        let trace = arb_trace(&mut rng, 100);
        let seed = rng.below(20);
        let mut policy = RandomPolicy;
        let r = simulate_dispatch(&trace, 2, &mut policy, seed, records_cfg());
        let recs = r.records.unwrap();
        assert!(fcfs_order_respected(&recs), "case {case}");
        assert!(service_is_exclusive_and_exact(&recs), "case {case}");
        let served: f64 = r.per_host.iter().map(|h| h.work).sum();
        let offered: f64 = trace.sizes().iter().sum();
        assert!((served - offered).abs() < 1e-9 * offered.max(1.0), "case {case}");
    }
}

#[test]
fn sita_routes_each_job_to_its_band() {
    for case in 0..CASES {
        let mut rng = case_rng(0x14, case);
        let trace = arb_trace(&mut rng, 100);
        let cutoff = 10.0;
        let mut policy = SizeInterval::new(vec![cutoff], "SITA");
        let r = simulate_dispatch(&trace, 2, &mut policy, 0, records_cfg());
        for rec in r.records.unwrap() {
            let expect = usize::from(rec.size > cutoff);
            assert_eq!(rec.host, expect, "case {case}");
        }
    }
}

#[test]
fn grouped_sita_respects_groups() {
    for case in 0..CASES {
        let mut rng = case_rng(0x15, case);
        let trace = arb_trace(&mut rng, 100);
        let short = 1 + rng.below(2) as usize;
        let cutoff = 20.0;
        let hosts = 4;
        let mut policy = GroupedSita::new(cutoff, hosts, short, "grouped");
        let r = simulate_dispatch(&trace, hosts, &mut policy, 0, records_cfg());
        for rec in r.records.unwrap() {
            if rec.size <= cutoff {
                assert!(rec.host < short, "case {case}");
            } else {
                assert!(rec.host >= short, "case {case}");
            }
        }
    }
}

#[test]
fn sjf_mean_waiting_never_worse_than_fcfs_single_host() {
    // classic result: SJF minimises mean waiting on one machine
    for case in 0..CASES {
        let mut rng = case_rng(0x16, case);
        let trace = arb_trace(&mut rng, 100);
        let fcfs = EventEngine::new(1, MetricsConfig::default())
            .run_central_queue(&trace, QueueDiscipline::Fcfs);
        let sjf = EventEngine::new(1, MetricsConfig::default())
            .run_central_queue(&trace, QueueDiscipline::Sjf);
        assert!(
            sjf.waiting.mean <= fcfs.waiting.mean + 1e-9,
            "case {case}: sjf {} vs fcfs {}",
            sjf.waiting.mean,
            fcfs.waiting.mean
        );
    }
}

// ---------- metrics invariants ----------

#[test]
fn makespan_bounds_every_completion() {
    for case in 0..CASES {
        let mut rng = case_rng(0x17, case);
        let trace = arb_trace(&mut rng, 60);
        let mut policy = LeastWorkLeft;
        let r = simulate_dispatch(&trace, 2, &mut policy, 0, records_cfg());
        for rec in r.records.unwrap() {
            assert!(rec.completion <= r.makespan + 1e-12, "case {case}");
        }
    }
}

#[test]
fn load_fractions_partition_unity() {
    for case in 0..CASES {
        let mut rng = case_rng(0x18, case);
        let trace = arb_trace(&mut rng, 60);
        let hosts = 1 + rng.below(4) as usize;
        let mut policy = RandomPolicy;
        let r = simulate_dispatch(&trace, hosts, &mut policy, 1, MetricsConfig::default());
        let total: f64 = (0..hosts).map(|h| r.load_fraction(h)).sum();
        assert!((total - 1.0).abs() < 1e-9, "case {case}");
        let jobs: f64 = (0..hosts).map(|h| r.job_fraction(h)).sum();
        assert!((jobs - 1.0).abs() < 1e-9, "case {case}");
    }
}

// ---------- scale invariance ----------

/// The whole pipeline is scale-free: multiplying every job size by a
/// constant (and rescaling arrivals to the same load) leaves every
/// dimensionless metric — slowdowns, load fractions, job fractions —
/// unchanged. This is what justifies calibrating the workload presets
/// by *shape* rather than absolute seconds (DESIGN.md §2).
#[test]
fn pipeline_is_scale_invariant() {
    for case in 0..16 {
        let mut rng = case_rng(0x20, case);
        let factor = rng.uniform_in(0.01, 1000.0);
        let seed = rng.below(20);
        let base = BoundedPareto::new(1.0, 1.0e4, 1.1).unwrap();
        let scaled = Scaled::new(base.clone(), factor).unwrap();
        let run = |d: &dyn Distribution, time_scale: f64| {
            // identical size *stream* up to the factor (same seed) and
            // identical arrival instants up to the same factor
            let trace = {
                let raw = WorkloadBuilder::new(BoundedPareto::new(1.0, 1.0e4, 1.1).unwrap())
                    .jobs(2_000)
                    .poisson_load(0.7, 2)
                    .seed(seed)
                    .build();
                Trace::new(
                    raw.jobs()
                        .map(|j| {
                            dses_workload::Job::new(
                                j.id,
                                j.arrival * time_scale,
                                j.size * time_scale,
                            )
                        })
                        .collect(),
                )
            };
            let cutoffs = dses_queueing::cutoff::sita_e_cutoffs(d, 2).unwrap();
            let mut policy = SizeInterval::new(cutoffs, "SITA-E");
            simulate_dispatch(&trace, 2, &mut policy, 0, records_cfg())
        };
        let a = run(&base, 1.0);
        let b = run(&scaled, factor);
        assert!(
            (a.slowdown.mean - b.slowdown.mean).abs() / a.slowdown.mean < 1e-6,
            "case {case}: mean slowdown {} vs {}",
            a.slowdown.mean,
            b.slowdown.mean
        );
        assert!((a.load_fraction(0) - b.load_fraction(0)).abs() < 1e-9, "case {case}");
        assert!((a.job_fraction(0) - b.job_fraction(0)).abs() < 1e-9, "case {case}");
    }
}

/// Analytic scale invariance: SITA analysis of the scaled system at the
/// rescaled arrival rate gives identical dimensionless metrics.
#[test]
fn analysis_is_scale_invariant() {
    for case in 0..16 {
        let mut rng = case_rng(0x21, case);
        let factor = rng.uniform_in(0.01, 1000.0);
        let rho = rng.uniform_in(0.1, 0.9);
        let base = BoundedPareto::new(1.0, 1.0e4, 1.1).unwrap();
        let scaled = Scaled::new(base.clone(), factor).unwrap();
        let lam_base = 2.0 * rho / base.mean();
        let lam_scaled = 2.0 * rho / scaled.mean();
        let c_base = dses_queueing::cutoff::sita_e_cutoffs(&base, 2).unwrap();
        let c_scaled = dses_queueing::cutoff::sita_e_cutoffs(&scaled, 2).unwrap();
        assert!((c_scaled[0] / c_base[0] - factor).abs() / factor < 1e-6, "case {case}");
        let a = dses_queueing::sita::SitaAnalysis::analyze(&base, lam_base, &c_base);
        let b = dses_queueing::sita::SitaAnalysis::analyze(&scaled, lam_scaled, &c_scaled);
        assert!(
            (a.mean_queueing_slowdown - b.mean_queueing_slowdown).abs() / a.mean_queueing_slowdown
                < 1e-6,
            "case {case}: slowdown {} vs {}",
            a.mean_queueing_slowdown,
            b.mean_queueing_slowdown
        );
        assert!((a.load_fraction(0) - b.load_fraction(0)).abs() < 1e-9, "case {case}");
    }
}

// ---------- queueing-analysis invariants ----------

/// Pollaczek–Khinchine sanity on random Bounded Paretos: waiting is
/// nonnegative, increasing in load, and explodes toward saturation.
#[test]
fn pk_waiting_monotone_in_load() {
    for case in 0..32 {
        let mut rng = case_rng(0x30, case);
        let k = rng.uniform_in(0.5, 50.0);
        let spread = rng.uniform_in(2.0, 1.0e4);
        let alpha = rng.uniform_in(0.4, 3.0);
        use dses_queueing::{Mg1, ServiceMoments};
        let d = BoundedPareto::new(k, k * spread, alpha).unwrap();
        let s = ServiceMoments::of(&d);
        let w = |rho: f64| Mg1::new(rho / s.m1, s).mean_waiting();
        let (w3, w6, w9) = (w(0.3), w(0.6), w(0.9));
        assert!(w3 >= 0.0, "case {case}");
        assert!(w3 < w6 && w6 < w9, "case {case}: {w3} {w6} {w9}");
        assert!(w(0.99) > 5.0 * w6, "case {case}");
    }
}

/// SITA aggregates are true mixtures: fractions partition unity and the
/// mean waiting equals the host-weighted average, for random cutoffs on
/// random distributions.
#[test]
fn sita_analysis_is_a_consistent_mixture() {
    let mut checked = 0u32;
    let mut case = 0u64;
    while checked < 32 {
        case += 1;
        let mut rng = case_rng(0x31, case);
        let k = rng.uniform_in(0.5, 20.0);
        let spread = rng.uniform_in(10.0, 1.0e4);
        let alpha = rng.uniform_in(0.5, 2.0);
        let cut_q = rng.uniform_in(0.05, 0.95);
        let rho = rng.uniform_in(0.1, 0.85);
        use dses_queueing::SitaAnalysis;
        let d = BoundedPareto::new(k, k * spread, alpha).unwrap();
        let cutoff = d.quantile(cut_q);
        let (lo, hi) = d.support();
        if !(cutoff > lo * 1.001 && cutoff < hi * 0.999) {
            continue; // the proptest version used prop_assume! here
        }
        checked += 1;
        let lambda = 2.0 * rho / d.mean();
        let a = SitaAnalysis::analyze(&d, lambda, &[cutoff]);
        let pj: f64 = a.hosts.iter().map(|h| h.job_fraction).sum();
        let pl: f64 = a.hosts.iter().map(|h| h.load_fraction).sum();
        assert!((pj - 1.0).abs() < 1e-9, "case {case}");
        assert!((pl - 1.0).abs() < 1e-9, "case {case}");
        let mixed_wait: f64 = a.hosts.iter().map(|h| h.job_fraction * h.mean_waiting).sum();
        if a.is_stable() {
            assert!(
                (mixed_wait - a.mean_waiting).abs() <= 1e-9 * mixed_wait.abs().max(1.0),
                "case {case}"
            );
            // host loads sum to the offered work rate
            let sum_rho: f64 = a.hosts.iter().map(|h| h.rho).sum();
            assert!((sum_rho - 2.0 * rho).abs() < 1e-6, "case {case}");
        }
    }
}

/// SITA-E really equalises load and SITA-U-opt never does worse, for
/// random heavy-tailed workloads.
#[test]
fn sita_solvers_invariants() {
    for case in 0..32 {
        let mut rng = case_rng(0x32, case);
        let spread = rng.uniform_in(100.0, 1.0e5);
        let alpha = rng.uniform_in(0.6, 1.6);
        let rho = rng.uniform_in(0.2, 0.8);
        use dses_queueing::cutoff::{sita_e_cutoffs, sita_u_opt_cutoff};
        use dses_queueing::SitaAnalysis;
        let d = BoundedPareto::new(1.0, spread, alpha).unwrap();
        let lambda = 2.0 * rho / d.mean();
        let e = sita_e_cutoffs(&d, 2).unwrap()[0];
        let below = d.partial_moment(1, 0.0, e) / d.mean();
        assert!((below - 0.5).abs() < 1e-6, "case {case}: SITA-E split {below}");
        if let Ok(opt) = sita_u_opt_cutoff(&d, lambda) {
            let s_e = SitaAnalysis::analyze(&d, lambda, &[e]).mean_queueing_slowdown;
            let s_o = SitaAnalysis::analyze(&d, lambda, &[opt]).mean_queueing_slowdown;
            assert!(s_o <= s_e * (1.0 + 1e-9), "case {case}: opt {s_o} vs E {s_e}");
        }
    }
}

/// PS slowdown depends on load only.
#[test]
fn ps_slowdown_is_load_only() {
    for case in 0..32 {
        let mut rng = case_rng(0x33, case);
        let rho = rng.uniform_in(0.05, 0.95);
        let alpha = rng.uniform_in(0.5, 2.0);
        use dses_queueing::ps::ps_metrics;
        let d = BoundedPareto::new(1.0, 1e4, alpha).unwrap();
        let m = ps_metrics(&d, rho / d.mean());
        assert!((m.mean_slowdown - 1.0 / (1.0 - rho)).abs() < 1e-9, "case {case}");
    }
}

/// Laplace-transform basics on random Bounded Paretos: X*(0) = 1,
/// decreasing in s, bounded by e^{−s·min}.
#[test]
fn laplace_transform_shape() {
    for case in 0..32 {
        let mut rng = case_rng(0x34, case);
        let k = rng.uniform_in(0.5, 10.0);
        let spread = rng.uniform_in(2.0, 1.0e3);
        let alpha = rng.uniform_in(0.5, 3.0);
        let s = rng.uniform_in(0.001, 2.0);
        use dses_queueing::transform::laplace_transform;
        let d = BoundedPareto::new(k, k * spread, alpha).unwrap();
        let at_zero = laplace_transform(&d, 0.0);
        assert!((at_zero - 1.0).abs() < 1e-9, "case {case}");
        let v = laplace_transform(&d, s);
        let v2 = laplace_transform(&d, 2.0 * s);
        assert!(v2 <= v + 1e-12, "case {case}");
        assert!(v <= (-s * k).exp() + 1e-9, "case {case}: bound violated: {v}");
        assert!(v >= 0.0, "case {case}");
    }
}
