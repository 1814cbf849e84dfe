//! The experiment runner: one call from "policy + workload + load" to
//! the metrics the paper plots.

use crate::spec::{BuiltPolicy, PolicySpec};
use dses_dist::{derive_seed, Distribution};
use dses_queueing::cutoff::CutoffError;
use dses_queueing::policies::{analyze_policy, AnalyticMetrics, AnalyticPolicy};
use dses_sim::par::{effective_workers, par_map, par_map_indexed};
use dses_sim::{simulate_dispatch, Demand, EventEngine, MetricsConfig, SimResult};
use dses_workload::{Trace, WorkloadBuilder};
use std::sync::Arc;

/// How an experiment resolves the collector's [`Demand`] tier — the
/// demand-lattice knob exposed on the CLI and exhibit binaries as
/// `--metrics full|auto|means` (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// Every accumulator family on every entry point — the pre-tier
    /// collector, byte-for-byte.
    Full,
    /// Each entry point demands exactly the fields it reads:
    /// [`Experiment::run`]/[`Experiment::try_run`] return the whole
    /// [`SimResult`], so they stay full; [`Experiment::sweep_grid`]
    /// reads only [`SweepPoint`]'s fields (`MEANS | PER_HOST`);
    /// [`Experiment::replicate`] reads only the mean slowdown
    /// (`MEANS`). Demanded fields are bitwise identical to `Full`, so
    /// figures and exhibits are unchanged under `Auto`.
    #[default]
    Auto,
    /// Force the `MEANS` tier everywhere: the four moment streams and
    /// makespan only. Undemanded [`SimResult`] fields read as
    /// deterministic empties — a throughput mode, not a fidelity mode.
    Means,
}

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
    metrics_mode: MetricsMode,
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
            metrics_mode: MetricsMode::default(),
        }
    }

    /// How the collector's [`Demand`] tier is resolved (default
    /// [`MetricsMode::Auto`]; see its docs for the per-entry-point
    /// demands).
    #[must_use]
    pub fn metrics_mode(mut self, mode: MetricsMode) -> Self {
        self.metrics_mode = mode;
        self
    }

    /// Worker threads for grid entry points ([`Experiment::sweep_grid`],
    /// [`Experiment::sweep`], [`Experiment::replicate`]). `0` restores
    /// the default: one worker per available core. Results are
    /// bit-for-bit identical for every setting — the thread count only
    /// changes wall-clock time.
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

    /// Generate the Poisson trace for target system load `rho`.
    #[must_use]
    pub fn trace(&self, rho: f64) -> Trace {
        WorkloadBuilder::new(self.dist.clone())
            .jobs(self.jobs)
            .poisson_load(rho, self.hosts)
            .seed(self.seed)
            .build()
    }

    /// Resolve the effective demand for an entry point that reads the
    /// `reads` families from its results.
    fn demand_for(&self, reads: Demand) -> Demand {
        match self.metrics_mode {
            MetricsMode::Full => Demand::FULL,
            MetricsMode::Auto => reads,
            MetricsMode::Means => Demand::MEANS,
        }
    }

    fn metrics_config(&self, split_cutoff: Option<f64>, reads: Demand) -> MetricsConfig {
        let (lo, hi) = self.dist.support();
        let hi = if hi.is_finite() { hi * 1.01 } else { 1.0e9 };
        MetricsConfig {
            warmup_jobs: self.warmup_jobs,
            collect_records: false,
            fairness_bins: self.fairness_bins,
            fairness_range: (lo.max(1e-3), hi),
            split_cutoff,
            slowdown_percentiles: self.percentiles,
            slo_slowdown: self.slo_slowdown,
            demand: self.demand_for(reads),
            batched: false,
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
    /// result families it reads (the demand under [`MetricsMode::Auto`]).
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
    /// operating point — the built policy (cutoffs resolved against the
    /// trace's realised arrival rate) and the metrics configuration (for
    /// 2-host SITA policies, slowdown statistics are split at the cutoff
    /// so short-vs-long fairness is measured for free).
    fn prepare_run(
        &self,
        spec: &PolicySpec,
        trace: &Trace,
        reads: Demand,
    ) -> Result<(BuiltPolicy, MetricsConfig), CutoffError> {
        let lambda = trace.arrival_rate();
        let built = spec.build(&self.dist, lambda, self.hosts)?;
        let cutoff_method = match spec {
            PolicySpec::SitaE => Some(crate::cutoffs::CutoffMethod::EqualLoad),
            PolicySpec::SitaUOpt => Some(crate::cutoffs::CutoffMethod::OptSlowdown),
            PolicySpec::SitaUFair => Some(crate::cutoffs::CutoffMethod::Fair),
            PolicySpec::SitaRuleOfThumb => Some(crate::cutoffs::CutoffMethod::RuleOfThumb),
            _ => None,
        };
        let split = match (cutoff_method, spec) {
            (Some(m), _) if self.hosts == 2 => {
                crate::cutoffs::resolve_cutoff(&self.dist, lambda, self.hosts, m)
                    .ok()
                    .map(|c| c[0])
            }
            (None, PolicySpec::SitaFixed { cutoffs }) if cutoffs.len() == 1 => Some(cutoffs[0]),
            _ => None,
        };
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
    /// Each load's trace is generated **once** and shared read-only
    /// (`Arc<Trace>`) by every policy — the trace depends only on
    /// `(workload, rho, seed)`, not on the policy. Every grid point is a
    /// pure function of `(spec, rho, seed)` and results are collected by
    /// grid index, never completion order, so the output is bit-for-bit
    /// identical to running [`Experiment::sweep`] per spec sequentially,
    /// for any thread count.
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
        // Phase 1: one trace per load, built in parallel, shared below.
        let traces: Arc<Vec<Arc<Trace>>> = {
            let this = Arc::clone(&this);
            Arc::new(par_map(loads, workers, move |_, &rho| {
                Arc::new(this.trace(rho))
            }))
        };
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
    /// task, demanding only the mean slowdown (the `MEANS` tier under
    /// [`MetricsMode::Auto`]), so R replications spread over every worker
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

    /// The variance-of-slowdown series.
    #[must_use]
    pub fn variance_series(&self) -> Vec<(f64, f64)> {
        self.points.iter().map(|p| (p.rho, p.var_slowdown)).collect()
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
