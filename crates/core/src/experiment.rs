//! The experiment runner: one call from "policy + workload + load" to
//! the metrics the paper plots.

use crate::spec::{BuiltPolicy, PolicySpec};
use dses_dist::par::{effective_workers, par_map_indexed};
use dses_dist::{derive_seed, Distribution};
use dses_queueing::cutoff::CutoffError;
use dses_queueing::policies::{analyze_policy, AnalyticMetrics, AnalyticPolicy};
use dses_sim::{simulate_dispatch, Demand, EventEngine, MetricsConfig, SimResult};
use dses_workload::{Trace, WorkloadBuilder};
use std::sync::Arc;

/// A configured experiment: a workload distribution plus simulation
/// parameters. Cheap to clone; immutable once built.
#[derive(Debug, Clone)]
pub struct Experiment<D: Distribution + Clone + 'static> {
    dist: D,
    hosts: usize,
    jobs: usize,
    seed: u64,
    warmup_jobs: usize,
    fairness_bins: usize,
    percentiles: bool,
    slo_slowdown: Option<f64>,
    threads: Option<usize>,
}

impl<D: Distribution + Clone + 'static> Experiment<D> {
    /// Start an experiment on the given job-size distribution.
    #[must_use]
    pub fn new(dist: D) -> Self {
        Self {
            dist,
            hosts: 2,
            jobs: 50_000,
            seed: 0,
            warmup_jobs: 0,
            fairness_bins: 0,
            percentiles: false,
            slo_slowdown: None,
            threads: None,
        }
    }

    /// Worker threads for grid entry points ([`Experiment::sweep_grid`],
    /// [`Experiment::sweep`], [`Experiment::replicate`]). `0` restores
    /// the default: one worker per available core. Results are
    /// bit-for-bit identical for every setting — the thread count only
    /// changes wall-clock time.
    ///
    /// The setting bounds the grid's lanes only. Inside a run, whatever
    /// the lane count, two things use a free pool helper when
    /// [`dses_dist::par::available_workers`] is at least 2: a long trace
    /// draws its arrival columns there (see [`WorkloadBuilder`]), and a
    /// long run that tracks percentiles hands its P² pushes there
    /// ([`MetricsConfig::slowdown_percentiles`]). In a grid whose lanes
    /// keep the pool busy, each lane does both on its own thread.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = (threads > 0).then_some(threads);
        self
    }

    fn workers(&self) -> usize {
        effective_workers(self.threads)
    }

    /// Number of hosts (default 2, the paper's primary configuration).
    #[must_use]
    pub fn hosts(mut self, hosts: usize) -> Self {
        assert!(hosts > 0, "need at least one host");
        self.hosts = hosts;
        self
    }

    /// Number of jobs to simulate per run (default 50 000).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Seed for trace generation and policy randomness.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Discard the first `n` jobs from the aggregates (warm-up trim).
    #[must_use]
    pub fn warmup_jobs(mut self, n: usize) -> Self {
        self.warmup_jobs = n;
        self
    }

    /// Collect a slowdown-vs-size fairness profile with `bins` log bins.
    #[must_use]
    pub fn fairness_bins(mut self, bins: usize) -> Self {
        self.fairness_bins = bins;
        self
    }

    /// Track streaming slowdown percentiles (p50/p90/p95/p99).
    #[must_use]
    pub fn percentiles(mut self, on: bool) -> Self {
        self.percentiles = on;
        self
    }

    /// Count jobs whose slowdown exceeds `threshold` (SLO violations).
    #[must_use]
    pub fn slo(mut self, threshold: f64) -> Self {
        assert!(threshold >= 1.0, "slowdown SLO must be at least 1");
        self.slo_slowdown = Some(threshold);
        self
    }

    /// Number of hosts configured.
    #[must_use]
    pub fn num_hosts(&self) -> usize {
        self.hosts
    }

    /// The job-size distribution.
    #[must_use]
    pub fn dist(&self) -> &D {
        &self.dist
    }

    /// Generate the Poisson trace for target system load `rho` — the
    /// one-load case of [`Experiment::traces`].
    #[must_use]
    pub fn trace(&self, rho: f64) -> Trace {
        WorkloadBuilder::new(self.dist.clone())
            .jobs(self.jobs)
            .poisson_load(rho, self.hosts)
            .seed(self.seed)
            .build()
    }

    /// Generate the Poisson trace for each target system load in `loads`
    /// ([`WorkloadBuilder::build_loads`]): the traces hold one job stream
    /// and share its size column, and trace `k` equals
    /// `self.trace(loads[k])` bit for bit.
    #[must_use]
    pub fn traces(&self, loads: &[f64]) -> Vec<Trace> {
        WorkloadBuilder::new(self.dist.clone())
            .jobs(self.jobs)
            .seed(self.seed)
            .build_loads(loads, self.hosts)
    }

    /// The collector configuration for an entry point that reads the
    /// `reads` result families: the collector demands exactly those
    /// (DESIGN.md §13.1). [`Experiment::run`] and
    /// [`Experiment::try_run`] return the whole [`SimResult`], so they
    /// demand everything; [`Experiment::sweep_grid`] reads only
    /// [`SweepPoint`]'s fields (`MEANS | PER_HOST`);
    /// [`Experiment::replicate`] reads only the mean slowdown (`MEANS`).
    /// Demanded fields are bitwise identical to a full-demand run.
    fn metrics_config(&self, split_cutoff: Option<f64>, reads: Demand) -> MetricsConfig {
        MetricsConfig {
            warmup_jobs: self.warmup_jobs,
            collect_records: false,
            fairness_bins: self.fairness_bins,
            fairness_range: fairness_range(self.dist.support()),
            split_cutoff,
            slowdown_percentiles: self.percentiles,
            slo_slowdown: self.slo_slowdown,
            demand: reads,
            ..MetricsConfig::default()
        }
    }

    /// Simulate `spec` at target system load `rho` (Poisson arrivals).
    ///
    /// # Panics
    /// Panics if the policy cannot be built (e.g. no stabilising SITA
    /// cutoff); use [`Experiment::try_run`] to handle that case.
    #[must_use]
    pub fn run(&self, spec: &PolicySpec, rho: f64) -> SimResult {
        self.try_run(spec, rho)
            // dses-lint: allow(panic-hygiene) -- documented panic; try_run is the fallible form
            .unwrap_or_else(|e| panic!("{} at rho={rho}: {e}", spec.name()))
    }

    /// Simulate `spec` at target system load `rho`, propagating policy
    /// resolution errors.
    pub fn try_run(&self, spec: &PolicySpec, rho: f64) -> Result<SimResult, CutoffError> {
        let trace = self.trace(rho);
        self.try_run_on_trace(spec, &trace)
    }

    /// Simulate `spec` on an externally supplied trace (e.g. bursty
    /// arrivals from an MMPP, or a real SWF trace).
    pub fn try_run_on_trace(
        &self,
        spec: &PolicySpec,
        trace: &Trace,
    ) -> Result<SimResult, CutoffError> {
        // Callers of the single-run API get the whole SimResult, so the
        // declared read set is everything.
        self.try_run_on_trace_demand(spec, trace, Demand::FULL)
    }

    /// [`Experiment::try_run_on_trace`] with the caller declaring which
    /// result families it reads (the collector's demand).
    fn try_run_on_trace_demand(
        &self,
        spec: &PolicySpec,
        trace: &Trace,
        reads: Demand,
    ) -> Result<SimResult, CutoffError> {
        let (built, cfg) = self.prepare_run(spec, trace, reads)?;
        let result = match built {
            BuiltPolicy::Dispatch(mut p) => {
                simulate_dispatch(trace, self.hosts, p.as_mut(), self.seed, cfg)
            }
            BuiltPolicy::Central(discipline) => {
                EventEngine::new(self.hosts, cfg).run_central_queue(trace, discipline)
            }
        };
        Ok(result)
    }

    /// Resolve everything a run needs that depends on the *target*
    /// operating point — the built policy (cutoffs resolved once, against
    /// the trace's realised arrival rate) and the metrics configuration
    /// (for 2-host SITA policies, slowdown statistics are split at the
    /// cutoff so short-vs-long fairness is measured for free).
    fn prepare_run(
        &self,
        spec: &PolicySpec,
        trace: &Trace,
        reads: Demand,
    ) -> Result<(BuiltPolicy, MetricsConfig), CutoffError> {
        let lambda = trace.arrival_rate();
        let (built, cutoffs) = spec.build_with_cutoffs(&self.dist, lambda, self.hosts)?;
        let split = cutoffs.filter(|_| self.hosts == 2).map(|c| c[0]);
        Ok((built, self.metrics_config(split, reads)))
    }

    /// Simulate a whole load sweep (a one-policy [`Experiment::sweep_grid`]).
    #[must_use]
    pub fn sweep(&self, spec: &PolicySpec, loads: &[f64]) -> LoadSweep {
        self.sweep_grid(std::slice::from_ref(spec), loads)
            .pop()
            // dses-lint: allow(panic-hygiene) -- sweep_grid over one spec returns exactly one sweep
            .expect("one spec in, one sweep out")
    }

    /// Run the full `specs` × `loads` grid, fanned over
    /// [`Experiment::threads`] workers.
    ///
    /// Each load's trace is generated **once** and shared read-only by
    /// every policy — the trace depends only on `(workload, rho, seed)`,
    /// not on the policy — and the loads' traces share one size column
    /// ([`Experiment::traces`]). Every grid point is a pure function of
    /// `(spec, rho, seed)` and results are collected by grid index, never
    /// completion order, so the output is bit-for-bit identical to
    /// running [`Experiment::sweep`] per spec sequentially, for any
    /// thread count.
    #[must_use]
    pub fn sweep_grid(&self, specs: &[PolicySpec], loads: &[f64]) -> Vec<LoadSweep> {
        let workers = self.workers();
        if loads.is_empty() {
            return specs
                .iter()
                .map(|spec| LoadSweep { policy: spec.name(), points: Vec::new() })
                .collect();
        }
        // The pool's workers outlive any one call, so grid tasks capture
        // shared ownership (`Arc`) of the experiment and inputs rather
        // than borrowing from this stack frame.
        let this = Arc::new(self.clone());
        // Phase 1: one trace per load over one shared job stream.
        let traces: Arc<Vec<Trace>> = Arc::new(self.traces(loads));
        // Phase 2: the flat specs × loads grid of independent runs.
        let shared_specs: Arc<Vec<PolicySpec>> = Arc::new(specs.to_vec());
        let shared_loads: Arc<Vec<f64>> = Arc::new(loads.to_vec());
        let n_loads = loads.len();
        let grid = par_map_indexed(specs.len() * n_loads, workers, move |g| {
            let (s, l) = (g / n_loads, g % n_loads);
            // SweepPoint reads moment means/variances and host-0 load
            // shares — the MEANS | PER_HOST demand tier.
            let result = this.try_run_on_trace_demand(
                &shared_specs[s],
                &traces[l],
                Demand::MEANS | Demand::PER_HOST,
            );
            SweepPoint::from_result(shared_loads[l], result.ok())
        });
        specs
            .iter()
            .zip(grid.chunks(loads.len()))
            .map(|(spec, points)| LoadSweep {
                policy: spec.name(),
                points: points.to_vec(),
            })
            .collect()
    }

    /// Analytic prediction at target system load `rho` (Poisson).
    pub fn analytic(
        &self,
        policy: AnalyticPolicy,
        rho: f64,
    ) -> Result<AnalyticMetrics, CutoffError> {
        let lambda = rho * self.hosts as f64 / self.dist.mean();
        analyze_policy(policy, &self.dist, lambda, self.hosts)
    }
}

/// The fairness profile's size range for a size distribution with
/// support `(lo, hi)`: `[max(lo, 10⁻³), 1.01·hi)`, with 10⁹ standing in
/// for an unbounded `hi`. A support that ends below 10⁻³ or starts above
/// 10⁹ leaves that range empty; the range then spans the support itself,
/// from `lo` (10⁻⁶ of the top when `lo` is 0) to `1.01·hi` (10⁶·`lo`
/// when unbounded), at least one ulp wide.
fn fairness_range((lo, hi): (f64, f64)) -> (f64, f64) {
    let top = if hi.is_finite() { hi * 1.01 } else { 1.0e9 };
    if lo.max(1e-3) < top {
        return (lo.max(1e-3), top);
    }
    let top = if hi.is_finite() {
        top
    } else {
        (lo * 1.0e6).min(f64::MAX)
    };
    let bottom = if lo > 0.0 { lo } else { top * 1.0e-6 };
    (bottom, top.max(bottom.next_up()))
}

/// Replicated estimate: mean over independent seeds with a 95 %
/// confidence half-width (t ≈ 2 for the replication counts in use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replicated {
    /// mean over replications
    pub mean: f64,
    /// ~95 % confidence half-width
    pub half_width: f64,
    /// number of replications
    pub replications: usize,
}

impl Replicated {
    fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64
        };
        Self {
            mean,
            half_width: if n < 2 { f64::INFINITY } else { 2.0 * (var / n as f64).sqrt() },
            replications: n,
        }
    }

    /// Whether another estimate is statistically distinguishable (the
    /// intervals do not overlap).
    #[must_use]
    pub fn distinct_from(&self, other: &Replicated) -> bool {
        (self.mean - other.mean).abs() > self.half_width + other.half_width
    }
}

impl<D: Distribution + Clone + 'static> Experiment<D> {
    /// Run `replications` independent replications (seed of replication
    /// `r` is `derive_seed(seed, r)`) and return the replicated
    /// mean-slowdown estimate. Replications fan out over
    /// [`Experiment::threads`] workers; the estimate is bit-for-bit
    /// identical for any thread count.
    ///
    /// Heavy-tailed slowdowns converge slowly within one run; independent
    /// replications give an honest confidence interval where batch means
    /// within a single trace would understate the trace-to-trace
    /// variability.
    ///
    /// Each replication is a solo run on its own trace and its own pool
    /// task, demanding only the mean slowdown (the `MEANS` tier), so R
    /// replications spread over every worker
    /// and each trace is freed as soon as its run ends. When replications
    /// fail, the first failure in lane order is returned.
    pub fn replicate(
        &self,
        spec: &PolicySpec,
        rho: f64,
        replications: usize,
    ) -> Result<Replicated, CutoffError> {
        assert!(replications >= 1, "need at least one replication");
        let this = Arc::new(self.clone());
        let spec = spec.clone();
        let samples = par_map_indexed(replications, self.workers(), move |r| {
            let lane = (*this).clone().seed(derive_seed(this.seed, r as u64));
            let trace = lane.trace(rho);
            // Replication samples read only the mean slowdown.
            lane.try_run_on_trace_demand(&spec, &trace, Demand::MEANS)
                .map(|result| result.slowdown.mean)
        })
        .into_iter()
        .collect::<Result<Vec<f64>, CutoffError>>()?;
        Ok(Replicated::from_samples(&samples))
    }
}

/// One point of a load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// target system load
    pub rho: f64,
    /// mean slowdown (response / size), `NaN` if the run failed
    pub mean_slowdown: f64,
    /// variance of slowdown
    pub var_slowdown: f64,
    /// mean response time
    pub mean_response: f64,
    /// variance of response time
    pub var_response: f64,
    /// mean waiting time
    pub mean_waiting: f64,
    /// fraction of served work on host 0
    pub load_fraction_host0: f64,
    /// fraction of jobs served by host 0
    pub job_fraction_host0: f64,
    /// jobs measured
    pub measured: u64,
}

impl SweepPoint {
    fn from_result(rho: f64, result: Option<SimResult>) -> Self {
        match result {
            Some(r) => Self {
                rho,
                mean_slowdown: r.slowdown.mean,
                var_slowdown: r.slowdown.variance,
                mean_response: r.response.mean,
                var_response: r.response.variance,
                mean_waiting: r.waiting.mean,
                load_fraction_host0: r.load_fraction(0),
                job_fraction_host0: r.job_fraction(0),
                measured: r.measured,
            },
            None => Self {
                rho,
                mean_slowdown: f64::NAN,
                var_slowdown: f64::NAN,
                mean_response: f64::NAN,
                var_response: f64::NAN,
                mean_waiting: f64::NAN,
                load_fraction_host0: f64::NAN,
                job_fraction_host0: f64::NAN,
                measured: 0,
            },
        }
    }
}

/// A policy's metrics across a load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSweep {
    /// policy display name
    pub policy: String,
    /// per-load points, in sweep order
    pub points: Vec<SweepPoint>,
}

impl LoadSweep {
    /// The mean-slowdown series as `(rho, slowdown)` pairs.
    #[must_use]
    pub fn slowdown_series(&self) -> Vec<(f64, f64)> {
        self.points.iter().map(|p| (p.rho, p.mean_slowdown)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dses_dist::prelude::*;

    fn experiment() -> Experiment<Mixture> {
        let d = dses_dist::fit::fit_body_tail(dses_dist::fit::BodyTailTargets {
            mean: 4562.0,
            scv: 43.0,
            min: 60.0,
            max: 2.22e6,
            tail_jobs: 0.013,
            tail_load: 0.5,
        })
        .unwrap();
        Experiment::new(d).jobs(15_000).seed(42)
    }

    #[test]
    fn run_produces_sensible_metrics() {
        let e = experiment();
        let r = e.run(&PolicySpec::LeastWorkLeft, 0.5);
        assert_eq!(r.measured, 15_000);
        assert!(r.slowdown.mean >= 1.0);
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn sita_e_beats_random_in_simulation() {
        let e = experiment();
        let random = e.run(&PolicySpec::Random, 0.7);
        let sita = e.run(&PolicySpec::SitaE, 0.7);
        assert!(
            sita.slowdown.mean < random.slowdown.mean / 2.0,
            "sita {} vs random {}",
            sita.slowdown.mean,
            random.slowdown.mean
        );
    }

    #[test]
    fn sita_u_fair_beats_sita_e_in_simulation() {
        let e = experiment();
        let fair = e.run(&PolicySpec::SitaUFair, 0.7);
        let sita_e = e.run(&PolicySpec::SitaE, 0.7);
        assert!(
            fair.slowdown.mean < sita_e.slowdown.mean,
            "fair {} vs E {}",
            fair.slowdown.mean,
            sita_e.slowdown.mean
        );
    }

    #[test]
    fn lwl_equals_central_queue_on_same_trace() {
        let e = experiment();
        let lwl = e.run(&PolicySpec::LeastWorkLeft, 0.6);
        let cq = e.run(&PolicySpec::CentralQueue, 0.6);
        // the theorem: response times match job-for-job, hence all moments
        assert!(
            (lwl.slowdown.mean - cq.slowdown.mean).abs() / cq.slowdown.mean < 1e-9,
            "lwl {} vs cq {}",
            lwl.slowdown.mean,
            cq.slowdown.mean
        );
        assert!((lwl.response.mean - cq.response.mean).abs() / cq.response.mean < 1e-9);
    }

    #[test]
    fn try_run_surfaces_infeasibility() {
        let e = experiment();
        // rho >= 1 cannot be stabilised by any SITA cutoff
        assert!(e.try_run(&PolicySpec::SitaUOpt, 1.2).is_err());
    }

    #[test]
    fn sweep_collects_points_in_order() {
        let e = experiment().jobs(4_000);
        let sweep = e.sweep(&PolicySpec::LeastWorkLeft, &[0.3, 0.5, 0.7]);
        assert_eq!(sweep.policy, "Least-Work-Left");
        let rhos: Vec<f64> = sweep.points.iter().map(|p| p.rho).collect();
        assert_eq!(rhos, vec![0.3, 0.5, 0.7]);
        // slowdown grows with load
        let s = sweep.slowdown_series();
        assert!(s[0].1 < s[2].1);
    }

    #[test]
    fn analytic_delegates() {
        let e = experiment();
        let m = e.analytic(AnalyticPolicy::Random, 0.5).unwrap();
        assert!((m.system_load - 0.5).abs() < 1e-9);
        assert!(m.mean_slowdown > 1.0);
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let e = experiment();
        let a = e.run(&PolicySpec::Random, 0.5);
        let b = e.run(&PolicySpec::Random, 0.5);
        assert_eq!(a.slowdown, b.slowdown);
    }
}

#[cfg(test)]
mod slo_tests {
    use super::*;
    use dses_dist::Exponential;

    #[test]
    fn slo_fraction_flows_through_the_experiment() {
        let e = Experiment::new(Exponential::with_mean(1.0).unwrap())
            .hosts(1)
            .jobs(20_000)
            .slo(5.0)
            .seed(2);
        let r = e.run(&PolicySpec::LeastWorkLeft, 0.7);
        let frac = r.slo_violation_fraction().expect("slo configured");
        assert!(frac > 0.0 && frac < 1.0, "violation fraction {frac}");
        // raising the load raises the violation rate
        let r2 = e.run(&PolicySpec::LeastWorkLeft, 0.9);
        assert!(r2.slo_violation_fraction().unwrap() > frac);
    }
}

#[cfg(test)]
mod replication_tests {
    use super::*;
    use dses_dist::Mixture;

    fn experiment() -> Experiment<Mixture> {
        let d = dses_dist::fit::fit_body_tail(dses_dist::fit::BodyTailTargets {
            mean: 4562.0,
            scv: 43.0,
            min: 60.0,
            max: 2.22e6,
            tail_jobs: 0.013,
            tail_load: 0.5,
        })
        .unwrap();
        Experiment::new(d).jobs(8_000).warmup_jobs(500).seed(100)
    }

    #[test]
    fn replicate_produces_finite_interval() {
        let e = experiment();
        let r = e.replicate(&PolicySpec::LeastWorkLeft, 0.5, 5).unwrap();
        assert_eq!(r.replications, 5);
        assert!(r.mean.is_finite() && r.mean >= 1.0);
        assert!(r.half_width.is_finite() && r.half_width > 0.0);
    }

    #[test]
    fn single_replication_has_infinite_half_width() {
        let e = experiment();
        let r = e.replicate(&PolicySpec::Random, 0.5, 1).unwrap();
        assert_eq!(r.half_width, f64::INFINITY);
    }

    #[test]
    fn sita_u_and_sita_e_are_statistically_distinct() {
        let e = experiment();
        let sita_e = e.replicate(&PolicySpec::SitaE, 0.7, 5).unwrap();
        let fair = e.replicate(&PolicySpec::SitaUFair, 0.7, 5).unwrap();
        assert!(
            fair.distinct_from(&sita_e),
            "fair {fair:?} vs E {sita_e:?} should not overlap"
        );
        assert!(fair.mean < sita_e.mean);
    }

    #[test]
    fn replication_errors_propagate() {
        let e = experiment();
        assert!(e.replicate(&PolicySpec::SitaUOpt, 1.5, 3).is_err());
    }
}

#[cfg(test)]
mod degenerate_trace_tests {
    use super::*;
    use crate::cutoffs::CutoffMethod;
    use dses_workload::Job;

    fn roster() -> Vec<PolicySpec> {
        let mut specs = PolicySpec::paper_roster();
        specs.push(PolicySpec::SitaRuleOfThumb);
        for method in [CutoffMethod::EqualLoad, CutoffMethod::OptSlowdown, CutoffMethod::Fair] {
            specs.push(PolicySpec::Grouped { method });
        }
        specs
    }

    #[test]
    fn traces_without_an_arrival_rate_give_errors_not_panics() {
        let d = dses_workload::psc_c90().size_dist;
        let empty = Trace::new(vec![]);
        let one = Trace::new(vec![Job::new(0, 3.0, 100.0)]);
        for hosts in [2, 4] {
            let e = Experiment::new(d.clone()).hosts(hosts);
            for trace in [&empty, &one] {
                assert_eq!(trace.arrival_rate(), 0.0);
                for spec in roster() {
                    let result = e.try_run_on_trace(&spec, trace);
                    let what = format!("{} on {} jobs, h={hosts}", spec.name(), trace.len());
                    // the SITA-U rules and the rule of thumb need the rate
                    let needs_rate = match spec {
                        PolicySpec::SitaUOpt | PolicySpec::SitaUFair => true,
                        PolicySpec::SitaRuleOfThumb => true,
                        PolicySpec::Grouped { method } => method != CutoffMethod::EqualLoad,
                        _ => false,
                    };
                    if needs_rate {
                        let err = result.expect_err(&what);
                        // beyond 2 hosts the rule of thumb fails on its host count first
                        if !matches!(spec, PolicySpec::SitaRuleOfThumb) || hosts == 2 {
                            assert_eq!(err, CutoffError::InvalidRate { lambda: 0.0 }, "{what}");
                        }
                    } else {
                        let r = result.unwrap_or_else(|err| panic!("{}: {err}", spec.name()));
                        assert_eq!(r.measured, trace.len() as u64, "{}", spec.name());
                    }
                }
            }
        }
    }

    #[test]
    fn sweeps_of_degenerate_traces_report_failed_points() {
        let d = dses_workload::psc_c90().size_dist;
        for jobs in [0, 1] {
            let sweep = Experiment::new(d.clone())
                .jobs(jobs)
                .sweep_grid(&[PolicySpec::SitaUFair, PolicySpec::SitaE], &[0.5]);
            assert!(sweep[0].points[0].mean_slowdown.is_nan(), "{jobs} jobs");
            assert_eq!(sweep[1].points[0].measured, jobs as u64);
        }
    }
}
