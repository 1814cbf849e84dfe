//! Determinism contract of the parallel execution path.
//!
//! The whole point of `dses_dist::par` is that parallelism is free: any
//! thread count must produce bit-for-bit the results of the sequential
//! loop. These tests pin that down for raw engine runs fanned out on the
//! pool and for the two grid entry points (`Experiment::sweep_grid`,
//! `Experiment::replicate`), and check that streaming metrics (the sweep
//! default) agree with full-record mode.

use dses_core::{Experiment, LoadSweep, PolicySpec};
use dses_dist::par::par_map_indexed;
use dses_dist::{Mixture, Rng64};
use dses_sim::{simulate_dispatch, Dispatcher, MetricsConfig, SystemState};
use dses_workload::{psc_c90, Job, Trace};
use std::sync::Arc;

fn experiment() -> Experiment<Mixture> {
    Experiment::new(psc_c90().size_dist)
        .hosts(2)
        .jobs(6_000)
        .warmup_jobs(200)
        .seed(42)
}

/// Compare sweeps field-by-field at the bit level — `PartialEq` would
/// reject NaN == NaN, but failed grid points carry NaN and must match
/// bitwise too.
fn assert_sweeps_bitwise_equal(a: &[LoadSweep], b: &[LoadSweep], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: sweep count");
    for (sa, sb) in a.iter().zip(b) {
        assert_eq!(sa.policy, sb.policy, "{context}");
        assert_eq!(sa.points.len(), sb.points.len(), "{context}: {}", sa.policy);
        for (pa, pb) in sa.points.iter().zip(&sb.points) {
            assert_eq!(pa.rho.to_bits(), pb.rho.to_bits(), "{context}: {}", sa.policy);
            for (va, vb, field) in [
                (pa.mean_slowdown, pb.mean_slowdown, "mean_slowdown"),
                (pa.var_slowdown, pb.var_slowdown, "var_slowdown"),
                (pa.mean_response, pb.mean_response, "mean_response"),
                (pa.var_response, pb.var_response, "var_response"),
                (pa.mean_waiting, pb.mean_waiting, "mean_waiting"),
                (pa.load_fraction_host0, pb.load_fraction_host0, "load_fraction_host0"),
                (pa.job_fraction_host0, pb.job_fraction_host0, "job_fraction_host0"),
            ] {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "{context}: {} rho={} {field}: {va} vs {vb}",
                    sa.policy,
                    pa.rho
                );
            }
            assert_eq!(pa.measured, pb.measured, "{context}: {}", sa.policy);
        }
    }
}

#[test]
fn simulation_runs_are_identical_across_worker_counts() {
    // end-to-end: real engine runs fanned out per seed must agree
    // bit-for-bit with the sequential loop
    struct Coin;
    impl Dispatcher for Coin {
        fn dispatch(&mut self, _: &Job, s: &SystemState<'_>, rng: &mut Rng64) -> usize {
            rng.below(s.num_hosts() as u64) as usize
        }
    }

    let trace = Arc::new(Trace::new(
        (0..200)
            .map(|i| Job::new(i, f64::from(i as u32) * 0.5, 1.0 + f64::from(i as u32 % 7)))
            .collect(),
    ));
    let run = move |trace: Arc<Trace>| {
        move |seed: usize| {
            let mut p = Coin;
            let r = simulate_dispatch(&trace, 3, &mut p, seed as u64, MetricsConfig::default());
            (r.slowdown.mean.to_bits(), r.response.mean.to_bits(), r.makespan.to_bits())
        }
    };
    let sequential: Vec<_> = (0..16).map(run(Arc::clone(&trace))).collect();
    for workers in [2, 8] {
        let parallel = par_map_indexed(16, workers, run(Arc::clone(&trace)));
        assert_eq!(parallel, sequential, "workers = {workers}");
    }
}

#[test]
fn sweep_grid_is_bit_identical_for_thread_counts_1_2_8() {
    // include a SITA policy at rho = 0.95: infeasible points produce NaN,
    // which must survive the round trip bitwise as well
    let specs = [PolicySpec::Random, PolicySpec::LeastWorkLeft, PolicySpec::SitaUOpt];
    let loads = [0.3, 0.6, 0.95];
    let reference = experiment().threads(1).sweep_grid(&specs, &loads);
    for threads in [2usize, 8] {
        let grid = experiment().threads(threads).sweep_grid(&specs, &loads);
        assert_sweeps_bitwise_equal(&reference, &grid, &format!("{threads} threads"));
    }
}

#[test]
fn sweep_grid_matches_sequential_per_policy_sweeps() {
    // the grid path (shared trace per load) must reproduce what separate
    // per-policy sweeps compute, each regenerating its own trace
    let specs = [PolicySpec::LeastWorkLeft, PolicySpec::SitaE];
    let loads = [0.4, 0.7];
    let grid = experiment().threads(8).sweep_grid(&specs, &loads);
    let separate: Vec<LoadSweep> = specs
        .iter()
        .map(|s| experiment().threads(1).sweep(s, &loads))
        .collect();
    assert_sweeps_bitwise_equal(&separate, &grid, "grid vs per-policy sweeps");
}

#[test]
fn replicate_is_bit_identical_for_thread_counts_1_2_8() {
    let e = experiment();
    let reference = e.clone().threads(1).replicate(&PolicySpec::LeastWorkLeft, 0.6, 8).unwrap();
    for threads in [2usize, 8] {
        let r = e.clone().threads(threads).replicate(&PolicySpec::LeastWorkLeft, 0.6, 8).unwrap();
        assert_eq!(r.mean.to_bits(), reference.mean.to_bits(), "{threads} threads");
        assert_eq!(
            r.half_width.to_bits(),
            reference.half_width.to_bits(),
            "{threads} threads"
        );
        assert_eq!(r.replications, reference.replications);
    }
}

#[test]
fn replicate_errors_identically_in_parallel() {
    // infeasible operating point: every thread count must surface the error
    let e = experiment();
    for threads in [1usize, 2, 8] {
        assert!(
            e.clone().threads(threads).replicate(&PolicySpec::SitaUOpt, 1.5, 4).is_err(),
            "{threads} threads"
        );
    }
}

#[test]
fn streaming_aggregates_match_full_record_mode() {
    // Streaming mode (the sweep default) keeps only Welford accumulators;
    // full-record mode additionally buffers every job. The shared
    // accumulators must agree exactly, and recomputing the aggregates
    // naively from the buffered records must agree within float tolerance.
    let trace = psc_c90().trace(8_000, 0.7, 2, 9);
    let run = |cfg: MetricsConfig| {
        let mut p = dses_core::policies::LeastWorkLeft;
        simulate_dispatch(&trace, 2, &mut p, 0, cfg)
    };
    let streaming = run(MetricsConfig::streaming());
    let recorded = run(MetricsConfig::full_records());

    assert!(streaming.records.is_none(), "streaming mode must not buffer jobs");
    let records = recorded.records.as_deref().expect("record mode buffers jobs");
    assert_eq!(records.len() as u64, recorded.measured);

    // identical accumulators -> identical aggregates, to the bit
    assert_eq!(streaming.measured, recorded.measured);
    assert_eq!(streaming.slowdown.mean.to_bits(), recorded.slowdown.mean.to_bits());
    assert_eq!(
        streaming.slowdown.variance.to_bits(),
        recorded.slowdown.variance.to_bits()
    );
    assert_eq!(streaming.response.mean.to_bits(), recorded.response.mean.to_bits());
    assert_eq!(streaming.waiting.mean.to_bits(), recorded.waiting.mean.to_bits());

    // and the records themselves reproduce the streamed means
    let n = records.len() as f64;
    let mean_slowdown = records.iter().map(|r| r.slowdown()).sum::<f64>() / n;
    let mean_response = records.iter().map(|r| r.completion - r.arrival).sum::<f64>() / n;
    assert!(
        (mean_slowdown - streaming.slowdown.mean).abs() / streaming.slowdown.mean < 1e-9,
        "records {mean_slowdown} vs streamed {}",
        streaming.slowdown.mean
    );
    assert!(
        (mean_response - streaming.response.mean).abs() / streaming.response.mean < 1e-9,
        "records {mean_response} vs streamed {}",
        streaming.response.mean
    );
}

#[test]
fn percentile_estimates_track_record_mode_quantiles() {
    // The streaming P^2-style percentile estimators must land near the
    // exact empirical quantiles computed from the full record buffer.
    // Exponential sizes keep the slowdown tail mild — P^2 markers are
    // honest there, whereas on the heavy-tailed presets the streaming
    // median is only an order-of-magnitude estimate.
    let trace = dses_workload::WorkloadBuilder::new(
        dses_dist::Exponential::with_mean(100.0).unwrap(),
    )
    .jobs(20_000)
    .poisson_load(0.7, 2)
    .seed(11)
    .build();
    let cfg = MetricsConfig {
        slowdown_percentiles: true,
        ..MetricsConfig::full_records()
    };
    let mut p = dses_core::policies::LeastWorkLeft;
    let result = simulate_dispatch(&trace, 2, &mut p, 0, cfg);
    let records = result.records.as_deref().expect("records on");
    let mut slowdowns: Vec<f64> = records.iter().map(|r| r.slowdown()).collect();
    slowdowns.sort_by(f64::total_cmp);
    for &(q, est) in result.slowdown_percentiles.as_deref().expect("percentiles on") {
        // judge the estimate in rank space: the fraction of jobs at or
        // below it must be close to q. (Value-space tolerances are
        // meaningless around the atom of slowdown-1 jobs, where the
        // quantile function is flat and then jumps; and slowdowns arrive
        // autocorrelated by busy period, which gives P^2 a few points of
        // rank bias even on 20k observations.)
        let rank = slowdowns.partition_point(|&s| s <= est) as f64 / slowdowns.len() as f64;
        assert!(
            (rank - q).abs() <= 0.15,
            "p{:.0}: streaming estimate {est} sits at empirical rank {rank:.3}",
            q * 100.0
        );
    }
}
