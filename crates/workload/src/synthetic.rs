//! Synthetic trace generation: size distribution × arrival process → trace.

use crate::arrivals::ArrivalProcess;
use crate::job::Job;
use crate::trace::Trace;
use dses_dist::par::{available_workers, join};
use dses_dist::prelude::*;
use std::sync::Arc;

/// Length from which [`WorkloadBuilder::build_loads`] draws a trace's
/// size column and its arrival columns side by side, the arrivals on a
/// pool helper ([`dses_dist::par::join`]); shorter traces draw them in
/// turn on the caller. Below about 2 000 jobs waking a helper costs more
/// than the arrival stream it takes over (DESIGN.md §9.4).
pub const CONCURRENT_BUILD_MIN_JOBS: usize = 4_096;

/// Builder for synthetic job traces.
///
/// ```
/// use dses_workload::WorkloadBuilder;
/// use dses_dist::prelude::*;
///
/// let sizes = BoundedPareto::new(1.0, 1.0e6, 1.1).unwrap();
/// // 10_000 jobs at system load 0.7 on 2 hosts, Poisson arrivals:
/// let trace = WorkloadBuilder::new(sizes)
///     .jobs(10_000)
///     .poisson_load(0.7, 2)
///     .seed(42)
///     .build();
/// assert_eq!(trace.len(), 10_000);
/// // The realized load fluctuates around 0.7 (heavy-tailed sample means
/// // converge slowly); it is positive and roughly in range:
/// let rho = trace.system_load(2);
/// assert!(rho > 0.3 && rho < 1.5, "load = {rho}");
/// ```
///
/// # How a trace is generated
///
/// The builder writes the [`Trace`]'s two columns directly, in arrival
/// order. Job `i`'s size is the `i`-th draw from stream 1 of
/// `Rng64::seed_from(seed)`, and its arrival is the running sum `t +=
/// gap` of the first `i + 1` gaps, drawn from stream 2. No [`Job`]
/// records are built and nothing is sorted, yet every job passes
/// [`Job::new`]'s checks. [`Trace::new`]'s stable sort runs only if an
/// explicit arrival process yields a decreasing arrival, which no
/// built-in process does.
///
/// A Poisson gap is `e / λ`, with `e` a unit exponential and `λ = ρ·h /
/// E[X]`. The sizes and unit exponentials depend on the seed but not on
/// the load. [`WorkloadBuilder::build_loads`] therefore draws them once
/// for a whole load sweep: its traces share one size column and differ
/// only in their arrivals. [`WorkloadBuilder::build`] under
/// [`WorkloadBuilder::poisson_load`] is its one-load case.
///
/// The two streams share nothing, so from [`CONCURRENT_BUILD_MIN_JOBS`]
/// jobs a Poisson build draws them side by side: the sizes on the calling
/// thread, the arrival columns on a helper of the worker pool when one
/// is free (up to [`available_workers`]). Each column is still a pure
/// function of the seed, `n`, the distribution and the rates, so a trace
/// has the same bits on any thread and at any worker count. An explicit arrival process is not `Send`, so its
/// traces are always drawn on the caller.
#[derive(Debug)]
pub struct WorkloadBuilder<D: Distribution> {
    size_dist: D,
    n_jobs: usize,
    seed: u64,
    load_spec: LoadSpec,
}

#[derive(Debug)]
enum LoadSpec {
    /// Poisson arrivals at system load ρ for h hosts.
    PoissonLoad { rho: f64, hosts: usize },
    /// Explicit arrival process (rates taken as given).
    Process(Box<dyn ArrivalProcessObj>),
}

/// Object-safe wrapper so the builder can hold any arrival process.
trait ArrivalProcessObj: std::fmt::Debug {
    fn next_gap(&mut self, rng: &mut Rng64) -> f64;
    fn reset(&mut self);
}

impl<A: ArrivalProcess> ArrivalProcessObj for A {
    fn next_gap(&mut self, rng: &mut Rng64) -> f64 {
        ArrivalProcess::next_gap(self, rng)
    }
    fn reset(&mut self) {
        ArrivalProcess::reset(self);
    }
}

impl<D: Distribution> WorkloadBuilder<D> {
    /// Start a builder with the given job-size distribution.
    #[must_use]
    pub fn new(size_dist: D) -> Self {
        Self {
            size_dist,
            n_jobs: 10_000,
            seed: 0,
            load_spec: LoadSpec::PoissonLoad { rho: 0.5, hosts: 2 },
        }
    }

    /// Number of jobs to generate (default 10 000).
    #[must_use]
    pub fn jobs(mut self, n: usize) -> Self {
        self.n_jobs = n;
        self
    }

    /// RNG seed (default 0). Sizes and arrivals use independent streams
    /// derived from this seed, so regenerating with a different load
    /// keeps the *same* job-size sequence — the paper's methodology of
    /// sweeping load while holding the trace fixed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Poisson arrivals with rate chosen so the system load on `hosts`
    /// hosts is `rho`: `λ = ρ·h / E[X]`.
    #[must_use]
    pub fn poisson_load(mut self, rho: f64, hosts: usize) -> Self {
        assert!(rho > 0.0 && rho.is_finite(), "load must be positive");
        assert!(hosts > 0, "need at least one host");
        self.load_spec = LoadSpec::PoissonLoad { rho, hosts };
        self
    }

    /// Use an explicit arrival process (its own rates apply).
    #[must_use]
    pub fn arrivals<A: ArrivalProcess + 'static>(mut self, process: A) -> Self {
        self.load_spec = LoadSpec::Process(Box::new(process));
        self
    }

    /// Generate the trace.
    #[must_use]
    pub fn build(self) -> Trace {
        match self.load_spec {
            LoadSpec::PoissonLoad { rho, hosts } => {
                let mut one = self.build_loads(&[rho], hosts);
                // dses-lint: allow(panic-hygiene) -- build_loads returns one trace per load
                one.pop().expect("one load in, one trace out")
            }
            LoadSpec::Process(mut process) => {
                let root = Rng64::seed_from(self.seed);
                let sizes = size_column(&self.size_dist, self.n_jobs, root.stream(1));
                let mut gap_rng = root.stream(2);
                process.reset();
                let arrivals = arrival_column(self.n_jobs, |_| process.next_gap(&mut gap_rng));
                Trace::from_columns(arrivals, sizes)
            }
        }
    }

    /// Generate one Poisson trace per system load in `loads`, on `hosts`
    /// hosts — the paper's load sweep over one fixed job stream. Like
    /// [`WorkloadBuilder::poisson_load`], this replaces any arrival
    /// process set on the builder.
    ///
    /// Trace `k` equals `poisson_load(loads[k], hosts).build()` bit for
    /// bit. The sizes and the unit exponentials are drawn once, and every
    /// trace shares the one size column. The unit exponentials are not
    /// kept: each block of them advances every load's arrival sum as soon
    /// as it is drawn. A k-load sweep of n jobs allocates (1 + k)·8·n bytes
    /// of columns, where k separate builds would allocate k·16·n.
    #[must_use]
    pub fn build_loads(self, loads: &[f64], hosts: usize) -> Vec<Trace> {
        assert!(
            loads.iter().all(|&rho| rho > 0.0 && rho.is_finite()),
            "load must be positive"
        );
        assert!(hosts > 0, "need at least one host");
        let n = self.n_jobs;
        let mean = self.size_dist.mean();
        let rates: Vec<f64> = loads.iter().map(|&rho| rho * hosts as f64 / mean).collect();
        let root = Rng64::seed_from(self.seed);
        let gaps = {
            let (rng, rates) = (root.stream(2), rates.clone());
            move || arrival_columns(rng, n, &rates)
        };
        let sizes = || size_column(&self.size_dist, n, root.stream(1));
        // Sizes first, as in the serial order: their check panics before
        // any rate or arrival check does.
        let (arrivals, sizes) = if n >= CONCURRENT_BUILD_MIN_JOBS {
            join(available_workers(), gaps, sizes)
        } else {
            let sizes = sizes();
            (gaps(), sizes)
        };
        assert!(
            rates.iter().all(|&rate| rate > 0.0 && rate.is_finite()),
            "rate must be positive"
        );
        arrivals
            .into_iter()
            .map(|arrivals| Trace::from_columns(arrivals, Arc::clone(&sizes)))
            .collect()
    }
}

/// The load-invariant column of a generated trace: `n` sizes drawn from
/// `rng` (stream 1 of the seed), each passing [`Job::new`]'s size check.
///
/// The draws come first and the check is a second pass over the finished
/// column, which panics at the first bad job with `Job::new`'s message.
/// Inside the draw loop its two asserts nearly doubled the column's cost
/// (DESIGN.md §9.4).
fn size_column<D: Distribution>(dist: &D, n: usize, mut rng: Rng64) -> Arc<[f64]> {
    let sizes: Arc<[f64]> = (0..n).map(|_| dist.sample(&mut rng)).collect();
    for (i, &size) in sizes.iter().enumerate() {
        Job::checked_size(i as u64, size);
    }
    sizes
}

/// Unit exponentials [`arrival_columns`] draws at a time. A block of them
/// (2 KiB) stays in L1 while every load's running sum advances over it;
/// DESIGN.md §9.4 compares it with a stored column and a per-job pass.
const UNIT_BLOCK: usize = 256;

/// The Poisson arrival column of each rate, in order, from `rng` (stream
/// 2 of the seed); it stops before the first rate that is not positive
/// and finite, which the caller rejects. The unit exponentials `e` are
/// drawn once, [`UNIT_BLOCK`] at a time, and each load's running sum
/// takes `t += e / rate` over every block: each load sums the terms of its
/// one-load build in the same order, and no column of the `e`s is kept.
/// Each column is allocated once, before the pass.
fn arrival_columns(mut rng: Rng64, n: usize, rates: &[f64]) -> Vec<Vec<f64>> {
    let valid = rates
        .iter()
        .take_while(|&&rate| rate > 0.0 && rate.is_finite())
        .count();
    if valid == 0 {
        return Vec::new();
    }
    let mut columns: Vec<Vec<f64>> = std::iter::repeat_n(n, valid)
        .map(Vec::with_capacity)
        .collect();
    let mut block = [0.0; UNIT_BLOCK];
    for start in (0..n).step_by(UNIT_BLOCK) {
        let units = &mut block[..UNIT_BLOCK.min(n - start)];
        units.fill_with(|| rng.standard_exponential());
        for (column, &rate) in columns.iter_mut().zip(rates) {
            let mut t = column.last().copied().unwrap_or(0.0);
            column.extend(units.iter().enumerate().map(|(j, &e)| {
                t += e / rate;
                Job::checked_arrival((start + j) as u64, t)
            }));
        }
    }
    columns
}

/// Arrival times as the running sum `t += gap(i)` from `t = 0`, each
/// passing [`Job::new`]'s arrival check.
fn arrival_column(n: usize, mut gap: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            t += gap(i);
            Job::checked_arrival(i as u64, t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::Mmpp2;

    #[test]
    fn builds_requested_number_of_jobs() {
        let t = WorkloadBuilder::new(Exponential::with_mean(1.0).unwrap())
            .jobs(500)
            .build();
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn poisson_load_hits_target() {
        let t = WorkloadBuilder::new(Exponential::with_mean(10.0).unwrap())
            .jobs(50_000)
            .poisson_load(0.6, 4)
            .seed(9)
            .build();
        let rho = t.system_load(4);
        assert!((rho - 0.6).abs() < 0.03, "load = {rho}");
    }

    #[test]
    fn same_seed_same_trace() {
        let make = || {
            WorkloadBuilder::new(BoundedPareto::new(1.0, 1e5, 1.2).unwrap())
                .jobs(100)
                .seed(33)
                .build()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn size_sequence_is_invariant_to_load() {
        let make = |rho: f64| {
            WorkloadBuilder::new(BoundedPareto::new(1.0, 1e5, 1.2).unwrap())
                .jobs(1000)
                .poisson_load(rho, 2)
                .seed(77)
                .build()
        };
        let low = make(0.3);
        let high = make(0.9);
        assert_eq!(low.sizes(), high.sizes());
        assert!(low.duration() > high.duration());
    }

    #[test]
    fn explicit_arrival_process_is_used() {
        let t = WorkloadBuilder::new(Deterministic::new(1.0).unwrap())
            .jobs(20_000)
            .arrivals(Mmpp2::bursty(2.0, 10.0, 20.0))
            .seed(5)
            .build();
        // MMPP-2 at mean rate 2 → ~10k seconds for 20k jobs
        let rate = t.arrival_rate();
        assert!((rate - 2.0).abs() < 0.2, "rate = {rate}");
        // bursty gaps: interarrival scv well above Poisson's 1
        assert!(t.interarrival_summary().scv() > 1.5);
    }

    #[test]
    fn arrivals_are_strictly_ordered() {
        let t = WorkloadBuilder::new(Exponential::with_mean(1.0).unwrap())
            .jobs(1000)
            .seed(3)
            .build();
        for w in t.arrivals().windows(2) {
            assert!(w[1] >= w[0]);
        }
    }
}
