//! Per-job records and aggregated performance metrics.
//!
//! The paper's three performance goals (§1.2) are mean slowdown, variance
//! of slowdown, and fairness (expected slowdown conditioned on job size);
//! it also reports mean/variance of response time. [`SimResult`] carries
//! all of them, plus the per-host load shares that Figure 5's
//! "fraction of load on Host 1" series needs.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dses_dist::par::{available_workers, HelperTask, WorkerPool};
use dses_dist::{LogHistogram, Moments, OnlineMoments, QuantileSet};

/// The outcome of one job's passage through the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// job id (arrival order)
    pub id: u64,
    /// arrival time at the dispatcher
    pub arrival: f64,
    /// service requirement
    pub size: f64,
    /// time service began
    pub start: f64,
    /// time service completed
    pub completion: f64,
    /// host that served the job
    pub host: usize,
}

impl JobRecord {
    /// Waiting time in queue: `start − arrival`.
    #[must_use]
    pub fn waiting(&self) -> f64 {
        self.start - self.arrival
    }

    /// Response time (sojourn): `completion − arrival`.
    #[must_use]
    pub fn response(&self) -> f64 {
        self.completion - self.arrival
    }

    /// Slowdown: response time / service requirement (≥ 1).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.response() / self.size
    }

    /// Queueing slowdown: waiting time / service requirement (≥ 0).
    ///
    /// The paper's Theorem 1 works with `E{S} = E{W/X}`; the two
    /// conventions differ by exactly 1 (`slowdown = 1 + W/X`), so either
    /// supports the same comparisons.
    #[must_use]
    pub fn queueing_slowdown(&self) -> f64 {
        self.waiting() / self.size
    }
}

/// Which aggregate families a run's consumer will actually read — the
/// collector's licence to skip maintaining the rest.
///
/// This is the metrics-layer sibling of `StateNeeds`: just as a policy
/// that never reads `queue_len` licenses the engine to skip per-host
/// counting, a caller that only reads mean slowdown licenses the
/// collector to skip per-host tallies, extrema, quantiles, and class
/// splits. [`Collector`] resolves the demand to a monomorphized record
/// path at reset, so an unrequested accumulator costs zero instructions
/// per job on the named tiers (DESIGN.md §13).
///
/// Demand is an *upper bound* composed with the existing config
/// switches: an optional accumulator (fairness histogram, percentiles,
/// class split, SLO counter, records) runs only when its config switch
/// is on **and** its demand bit is requested. The default demand is
/// [`Demand::FULL`], so every pre-demand config contract is unchanged.
///
/// Undemanded outputs are deterministic empties: optional fields are
/// `None`, per-host tallies are zero, and stream extrema are the
/// empty-stream sentinels (`min = +∞`, `max = −∞`). Demanded fields are
/// bitwise identical across demand values — each accumulator's
/// arithmetic never depends on which other accumulators run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demand(u8);

impl Demand {
    /// Count/mean/variance of the four moment streams, plus makespan.
    /// Always on — a collector that measures nothing is useless, so
    /// [`Collector`] ORs this in at reset.
    pub const MEANS: Demand = Demand(1);
    /// Short/long slowdown class split (when `split_cutoff` is set).
    pub const CLASS_SPLIT: Demand = Demand(2);
    /// Distribution shape: stream extrema (min/max), the P² slowdown
    /// percentiles, the fairness profile, and the SLO violation count.
    pub const QUANTILES: Demand = Demand(4);
    /// Per-host job/work tallies (load and job fractions, utilizations).
    pub const PER_HOST: Demand = Demand(8);
    /// The per-job record buffer (when `collect_records` is set).
    pub const RECORDS: Demand = Demand(16);
    /// Everything — the default, and the tier every exhibit capture and
    /// bit-identity gate runs under.
    pub const FULL: Demand = Demand(31);

    /// Whether every bit of `other` is requested.
    #[must_use]
    pub fn includes(self, other: Demand) -> bool {
        self.0 & other.0 == other.0
    }

    /// The demand with [`Demand::MEANS`] forced on (what [`Collector`]
    /// actually runs under).
    #[must_use]
    pub fn normalized(self) -> Demand {
        Demand(self.0 | Demand::MEANS.0)
    }
}

impl std::ops::BitOr for Demand {
    type Output = Demand;
    fn bitor(self, rhs: Demand) -> Demand {
        Demand(self.0 | rhs.0)
    }
}

/// What to collect during a run.
///
/// Two modes matter in practice:
///
/// * **streaming** (the default, [`MetricsConfig::streaming`]) — every
///   aggregate is O(1) memory: Welford accumulators for the four moment
///   sets, the log-binned fairness histogram (fixed bin count), and the
///   P² percentile estimators. Nothing grows with the number of jobs, so
///   sweeps over millions of jobs run allocation-free in the metrics
///   layer. This is what `Experiment` sweeps and replications use.
/// * **full-record** ([`MetricsConfig::full_records`]) — additionally
///   buffers every [`JobRecord`] (48 B/job) for validation: engine
///   cross-checks, schedule invariants, batch-means analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsConfig {
    /// Skip this many leading jobs from aggregates (warm-up trim).
    pub warmup_jobs: usize,
    /// Keep per-job records (memory: 48 B/job).
    pub collect_records: bool,
    /// Number of log-spaced size bins for the fairness profile
    /// (0 disables it).
    pub fairness_bins: usize,
    /// Size range for the fairness profile (defaults to `(0.01, 1e7)`).
    pub fairness_range: (f64, f64),
    /// If set, also split slowdown statistics into "short" (size ≤ cutoff)
    /// and "long" (size > cutoff) classes — the SITA-U-fair criterion.
    pub split_cutoff: Option<f64>,
    /// Track streaming slowdown percentiles (p50/p90/p95/p99) via the
    /// P² estimator — O(1) memory, no record buffering.
    ///
    /// A run of at least 16 384 measured jobs on a machine with two or
    /// more workers hands its estimator pushes to a free pool helper,
    /// one 16 384-slowdown chunk at a time, whatever `Experiment::threads`
    /// says (that count sizes a grid's lanes, and a single run is not a
    /// grid). The estimates are bit for bit those of the inline pushes:
    /// one thread at a time pushes, in job order (DESIGN.md §13.7).
    pub slowdown_percentiles: bool,
    /// If set, count jobs whose slowdown exceeds this service-level
    /// threshold — "predictable slowdown" (§1.2) as an SLO violation
    /// fraction.
    pub slo_slowdown: Option<f64>,
    /// Which aggregate families the consumer will read (see [`Demand`]).
    /// Defaults to [`Demand::FULL`]; narrower demands let the collector
    /// drop to a slimmer monomorphized record path.
    pub demand: Demand,
    /// Inert: nothing reads it, and every value gives the same result bit
    /// for bit (the block-batched path it selected is gone, DESIGN.md
    /// §13.3). It stays only because the benchmark crate (`perfbench/`)
    /// names it in a struct literal, and it goes with the benchmark's
    /// next change (ROADMAP.md, item 4).
    pub batched: bool,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self {
            warmup_jobs: 0,
            collect_records: false,
            fairness_bins: 0,
            fairness_range: (0.01, 1.0e7),
            split_cutoff: None,
            slowdown_percentiles: false,
            slo_slowdown: None,
            demand: Demand::FULL,
            batched: false,
        }
    }
}

impl MetricsConfig {
    /// The zero-buffer streaming mode: constant memory regardless of how
    /// many jobs a run processes. Identical to [`MetricsConfig::default`];
    /// the name exists so call sites can state the intent.
    #[must_use]
    pub fn streaming() -> Self {
        Self::default()
    }

    /// Full-record mode for validation: streaming aggregates plus a
    /// buffered [`JobRecord`] per job.
    #[must_use]
    pub fn full_records() -> Self {
        Self {
            collect_records: true,
            ..Self::default()
        }
    }
}

/// Per-host accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HostStats {
    /// jobs served by this host
    pub jobs: u64,
    /// total work (sum of service requirements) served by this host
    pub work: f64,
}

/// Aggregated result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// slowdown (response / size) moments
    pub slowdown: Moments,
    /// queueing slowdown (waiting / size) moments
    pub queueing_slowdown: Moments,
    /// response-time moments
    pub response: Moments,
    /// waiting-time moments
    pub waiting: Moments,
    /// per-host job/work tallies (over measured jobs)
    pub per_host: Vec<HostStats>,
    /// completion time of the last job
    pub makespan: f64,
    /// number of jobs contributing to the aggregates
    pub measured: u64,
    /// number of warm-up jobs excluded
    pub skipped: u64,
    /// slowdown-vs-size fairness profile, if requested
    pub fairness: Option<LogHistogram>,
    /// slowdown moments of jobs with `size ≤ cutoff`, if a split was set
    pub short_slowdown: Option<Moments>,
    /// slowdown moments of jobs with `size > cutoff`, if a split was set
    pub long_slowdown: Option<Moments>,
    /// streaming slowdown percentiles `(q, estimate)`, if requested
    pub slowdown_percentiles: Option<Vec<(f64, f64)>>,
    /// `(violations, threshold)`: jobs whose slowdown exceeded the SLO,
    /// if a threshold was set
    pub slo_violations: Option<(u64, f64)>,
    /// per-job records, if requested
    pub records: Option<Vec<JobRecord>>,
}

impl SimResult {
    /// A result describing no jobs at all — the starting value for
    /// [`Collector::finish_into`], which overwrites every field while
    /// reusing whatever buffers a previous run left behind.
    #[must_use]
    pub fn empty() -> Self {
        let nothing = OnlineMoments::new().finish();
        Self {
            slowdown: nothing,
            queueing_slowdown: nothing,
            response: nothing,
            waiting: nothing,
            per_host: Vec::new(),
            makespan: 0.0,
            measured: 0,
            skipped: 0,
            fairness: None,
            short_slowdown: None,
            long_slowdown: None,
            slowdown_percentiles: None,
            slo_violations: None,
            records: None,
        }
    }

    /// Fraction of the measured *work* served by host `i` — Figure 5's
    /// y-axis ("fraction of the total load which goes to Host 1").
    #[must_use]
    pub fn load_fraction(&self, host: usize) -> f64 {
        let total: f64 = self.per_host.iter().map(|h| h.work).sum();
        if total <= 0.0 {
            0.0
        } else {
            self.per_host[host].work / total
        }
    }

    /// Fraction of measured *jobs* dispatched to host `i` (the paper's
    /// §3.3 "98.7 % of jobs go to Host 1 under SITA-E").
    #[must_use]
    pub fn job_fraction(&self, host: usize) -> f64 {
        let total: u64 = self.per_host.iter().map(|h| h.jobs).sum();
        if total == 0 {
            0.0
        } else {
            self.per_host[host].jobs as f64 / total as f64
        }
    }

    /// Fraction of measured jobs violating the configured slowdown SLO
    /// (`None` when no threshold was set).
    #[must_use]
    pub fn slo_violation_fraction(&self) -> Option<f64> {
        self.slo_violations.map(|(v, _)| {
            if self.measured == 0 {
                0.0
            } else {
                v as f64 / self.measured as f64
            }
        })
    }

    /// Host utilisations: work served / makespan.
    #[must_use]
    pub fn utilizations(&self) -> Vec<f64> {
        self.per_host
            .iter()
            .map(|h| if self.makespan > 0.0 { h.work / self.makespan } else { 0.0 })
            .collect()
    }
}

/// The monomorphized record path a collector resolved its
/// [`Demand`] + config to at reset (the §13 demand lattice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordPath {
    /// Every accumulator family the config enables — the default tier,
    /// bit-identical to the pre-demand collector, and the fallback for
    /// any demand combination without a dedicated slim path.
    Full,
    /// `MEANS | PER_HOST`, no optional accumulators: moment streams
    /// without extrema, plus host tallies. What `sweep_grid` demands.
    MeansHost,
    /// `MEANS` only: the four moment streams, nothing else.
    Means,
}

/// Resolve the record path from the demand lattice and the config's
/// optional accumulators. An optional accumulator is *active* only when
/// its config switch is on and its demand bit is requested.
fn resolve_path(cfg: &MetricsConfig) -> RecordPath {
    let d = cfg.demand.normalized();
    let tail_active = (cfg.collect_records && d.includes(Demand::RECORDS))
        || (cfg.fairness_bins > 0 && d.includes(Demand::QUANTILES))
        || (cfg.split_cutoff.is_some() && d.includes(Demand::CLASS_SPLIT))
        || (cfg.slowdown_percentiles && d.includes(Demand::QUANTILES))
        || (cfg.slo_slowdown.is_some() && d.includes(Demand::QUANTILES));
    if tail_active {
        // per-record accumulators force the per-record path
        RecordPath::Full
    } else if d.includes(Demand::QUANTILES) {
        // extrema demanded: full streams (tail checks are four
        // predictable None-tests)
        RecordPath::Full
    } else if d.includes(Demand::PER_HOST) {
        RecordPath::MeansHost
    } else {
        RecordPath::Means
    }
}

/// Streaming collector that the engines feed records into.
#[derive(Debug)]
pub struct Collector {
    cfg: MetricsConfig,
    slowdown: OnlineMoments,
    queueing_slowdown: OnlineMoments,
    response: OnlineMoments,
    waiting: OnlineMoments,
    per_host: Vec<HostStats>,
    makespan: f64,
    seen: u64,
    fairness: Option<LogHistogram>,
    short_slowdown: OnlineMoments,
    long_slowdown: OnlineMoments,
    /// The estimators while this thread pushes into them; `None` when
    /// percentiles are off or while a piped run has lent them to `pipe`.
    percentiles: Option<QuantileSet>,
    /// The percentile pipe, built on the first run that takes it and
    /// re-armed for every later one (grow-once, like the record buffer).
    pipe: Option<Box<PercentilePipe>>,
    slo_violations: u64,
    records: Option<Vec<JobRecord>>,
    /// The monomorphized record path resolved from `cfg` at reset.
    path: RecordPath,
    /// `cfg.split_cutoff` masked by `Demand::CLASS_SPLIT`.
    eff_split: Option<f64>,
    /// `cfg.slo_slowdown` masked by `Demand::QUANTILES`.
    eff_slo: Option<f64>,
}

impl Collector {
    /// Create a collector for `hosts` hosts.
    #[must_use]
    pub fn new(hosts: usize, cfg: MetricsConfig) -> Self {
        Self::with_job_hint(hosts, cfg, 0)
    }

    /// Create a collector for `hosts` hosts, pre-sizing the record buffer
    /// for `expected_jobs` completions (engines pass the trace length so
    /// full-record runs never pay repeated reallocation). Streaming mode
    /// reads the hint only to decide whether the percentile pushes take
    /// the pipe, which they do when the hint past the warm-up is at least
    /// one 16 384-slowdown chunk; without one ([`Collector::new`]) they
    /// stay on the recording thread. A streaming collector holds nothing
    /// per job: its state grows with hosts and fairness bins (a piped
    /// run adds two fixed 128 KB chunks), never with the trace.
    #[must_use]
    pub fn with_job_hint(hosts: usize, cfg: MetricsConfig, expected_jobs: usize) -> Self {
        let mut c = Self {
            cfg,
            slowdown: OnlineMoments::new(),
            queueing_slowdown: OnlineMoments::new(),
            response: OnlineMoments::new(),
            waiting: OnlineMoments::new(),
            per_host: Vec::new(),
            makespan: 0.0,
            seen: 0,
            fairness: None,
            short_slowdown: OnlineMoments::new(),
            long_slowdown: OnlineMoments::new(),
            percentiles: None,
            pipe: None,
            slo_violations: 0,
            records: None,
            path: RecordPath::Full,
            eff_split: None,
            eff_slo: None,
        };
        c.reset(hosts, cfg, expected_jobs);
        c
    }

    /// Reconfigure for a new run, clearing without freeing.
    ///
    /// After `reset(hosts, cfg, expected_jobs)` the collector is
    /// observationally identical to `Collector::with_job_hint(hosts, cfg,
    /// expected_jobs)` — the engines' reusable-workspace entry points rely
    /// on that to stay bit-for-bit equal to fresh-allocation runs — but
    /// every growable buffer (per-host stats, the fairness histogram when
    /// its layout is unchanged, the record vector, the percentile pipe)
    /// keeps its allocation.
    ///
    /// `expected_jobs` sizes nothing but the record buffer of a run that
    /// collects records; a streaming run reads it only to pick the
    /// percentile route.
    ///
    /// A run the previous owner abandoned (no `finish`) has its pipe's
    /// last offer settled here, so the pool helper that served it is free
    /// again.
    ///
    /// Every allocation here is a grow-once site, waived with its
    /// reason; `deny(alloc)` keeps any other out.
    // dses-lint: deny(alloc)
    pub fn reset(&mut self, hosts: usize, cfg: MetricsConfig, expected_jobs: usize) {
        self.end_pipe_run(false);
        self.cfg = cfg;
        let d = cfg.demand.normalized();
        self.slowdown = OnlineMoments::new();
        self.queueing_slowdown = OnlineMoments::new();
        self.response = OnlineMoments::new();
        self.waiting = OnlineMoments::new();
        self.per_host.clear();
        self.per_host.resize(hosts, HostStats::default());
        self.makespan = 0.0;
        self.seen = 0;
        if cfg.fairness_bins > 0 && d.includes(Demand::QUANTILES) {
            let (lo, hi) = cfg.fairness_range;
            match &mut self.fairness {
                Some(f) if f.has_layout(lo, hi, cfg.fairness_bins) => f.reset(),
                other => *other = Some(LogHistogram::new(lo, hi, cfg.fairness_bins)),
            }
        } else {
            self.fairness = None;
        }
        self.short_slowdown = OnlineMoments::new();
        self.long_slowdown = OnlineMoments::new();
        if cfg.slowdown_percentiles && d.includes(Demand::QUANTILES) {
            match &mut self.percentiles {
                Some(p) => p.reset(),
                other => *other = Some(QuantileSet::default()),
            }
        } else {
            self.percentiles = None;
        }
        self.slo_violations = 0;
        if cfg.collect_records && d.includes(Demand::RECORDS) {
            match &mut self.records {
                Some(v) => {
                    v.clear();
                    v.reserve(expected_jobs);
                }
                // dses-lint: allow(no-alloc) -- grow-once: records are built when first enabled, then cleared and reused
                other => *other = Some(Vec::with_capacity(expected_jobs)),
            }
        } else {
            self.records = None;
        }
        self.path = resolve_path(&cfg);
        self.eff_split = cfg.split_cutoff.filter(|_| d.includes(Demand::CLASS_SPLIT));
        self.eff_slo = cfg.slo_slowdown.filter(|_| d.includes(Demand::QUANTILES));
        if self.percentiles.is_some()
            && expected_jobs.saturating_sub(cfg.warmup_jobs) >= PIPE_CHUNK
            && available_workers() >= 2
        {
            let pipe = match &mut self.pipe {
                // a pipe whose helper panicked is rebuilt
                Some(pipe) if !pipe.pending.is_poisoned() => pipe,
                other => other.insert(PercentilePipe::new()),
            };
            if let Some(set) = self.percentiles.take() {
                pipe.start(set);
            }
        }
    }

    /// End a piped run: with `drain`, push the chunk still on offer (or
    /// wait for the helper pushing it) and the last partial chunk;
    /// without, drop them (the run was abandoned). Either way the pool
    /// helper is released and the estimators come back to
    /// `percentiles`. A panic on the helper re-raises here when draining.
    fn end_pipe_run(&mut self, drain: bool) {
        let Some(pipe) = self.pipe.as_deref_mut().filter(|p| p.running) else {
            return;
        };
        let (set, outcome) = pipe.end_run(drain);
        self.percentiles = set;
        if let (true, Err(payload)) = (drain, outcome) {
            std::panic::resume_unwind(payload);
        }
    }

    /// Record one completed job.
    ///
    /// The four always-on moment streams advance in lockstep (same count
    /// after every call), so one `1/n` reciprocal serves all four pushes,
    /// and one `1/size` serves both slowdown ratios — two divides per job
    /// where the naive form issues fourteen, plus one for each of the
    /// fairness bin and class stream the job lands in, which advance on
    /// their own counts. Divide throughput, not flops, bounds the
    /// specialized kernels (see DESIGN.md §11). Three static divide sites:
    /// `1/size` here and the two of [`Collector::record_with_inv`].
    // dses-lint: divides(3)
    #[inline]
    pub fn record(&mut self, rec: JobRecord) {
        self.record_with_inv(rec, 1.0 / rec.size);
    }

    /// [`Collector::record`] with the caller supplying `1.0 / rec.size`,
    /// for a caller that already holds the reciprocal (a replay over
    /// [`Trace::inv_sizes`](dses_workload::Trace::inv_sizes), say). It is
    /// the same single IEEE divide `record` issues, so results are
    /// bitwise those of `record` (a `debug_assert` pins the bit pattern).
    /// Every engine calls `record` and divides per job: a stored
    /// reciprocal column needed a build pass and 8 bytes per job of every
    /// trace, and did not pay end to end (DESIGN.md §9.4). The collector
    /// divides for its own `1/n` too, so a run holds no per-job table
    /// (DESIGN.md §12.4): two static divide sites, the lockstep `1/n` and
    /// [`OnlineMoments::push`]'s for the fairness bin and class streams.
    // dses-lint: divides(2)
    // dses-lint: deny(alloc)
    #[inline]
    pub fn record_with_inv(&mut self, rec: JobRecord, inv_size: f64) {
        match self.path {
            RecordPath::Full => self.record_core::<true, true, true>(rec, inv_size),
            RecordPath::MeansHost => self.record_core::<false, true, false>(rec, inv_size),
            RecordPath::Means => self.record_core::<false, false, false>(rec, inv_size),
        }
    }

    /// The per-record accumulation core, monomorphized over the demand
    /// tier: `EXTREMA` tracks stream min/max (the `QUANTILES` bit),
    /// `HOST` updates per-host tallies (`PER_HOST`), `TAIL` runs the
    /// optional accumulators (fairness histogram, class split,
    /// percentiles, SLO counter, record buffer). Every demanded field
    /// computes in exactly the pre-tier order, so demanded outputs stay
    /// bitwise identical across tiers.
    ///
    /// The fairness bin and the class stream a job lands in advance on
    /// their own counts, not the lockstep one, so they take
    /// [`OnlineMoments::push`], which divides for its `1/n` exactly as
    /// the lockstep streams' shared divide does.
    // dses-lint: divides(2)
    #[inline(always)]
    fn record_core<const EXTREMA: bool, const HOST: bool, const TAIL: bool>(
        &mut self,
        rec: JobRecord,
        inv_size: f64,
    ) {
        debug_assert!(rec.start >= rec.arrival, "service before arrival");
        debug_assert!(rec.completion >= rec.start, "negative service");
        debug_assert_eq!(
            inv_size.to_bits(),
            (1.0 / rec.size).to_bits(),
            "inv_size must be the bitwise reciprocal of rec.size"
        );
        self.makespan = self.makespan.max(rec.completion);
        self.seen += 1;
        if self.seen <= self.cfg.warmup_jobs as u64 {
            return;
        }
        // One `1/n` for the four lockstep streams. It depends only on the
        // count, so it issues off the Welford chain.
        let inv_n = 1.0 / (self.slowdown.count() + 1) as f64;
        let response = rec.completion - rec.arrival;
        let waiting = rec.start - rec.arrival;
        let s = response * inv_size;
        if EXTREMA {
            self.slowdown.push_with_inv(s, inv_n);
            self.queueing_slowdown.push_with_inv(waiting * inv_size, inv_n);
            self.response.push_with_inv(response, inv_n);
            self.waiting.push_with_inv(waiting, inv_n);
        } else {
            self.slowdown.push_mv_with_inv(s, inv_n);
            self.queueing_slowdown.push_mv_with_inv(waiting * inv_size, inv_n);
            self.response.push_mv_with_inv(response, inv_n);
            self.waiting.push_mv_with_inv(waiting, inv_n);
        }
        if HOST {
            let h = &mut self.per_host[rec.host];
            h.jobs += 1;
            h.work += rec.size;
        }
        if TAIL {
            if let Some(f) = &mut self.fairness {
                f.bin_mut(rec.size).push(s);
            }
            if let Some(cutoff) = self.eff_split {
                let m = if rec.size <= cutoff {
                    &mut self.short_slowdown
                } else {
                    &mut self.long_slowdown
                };
                m.push(s);
            }
            if let Some(p) = &mut self.percentiles {
                p.push(s);
            } else if self.pipe.as_ref().is_some_and(|p| p.running) {
                self.write_piped(s);
            }
            if let Some(threshold) = self.eff_slo {
                if s > threshold {
                    self.slo_violations += 1;
                }
            }
            if let Some(v) = &mut self.records {
                v.push(rec);
            }
        }
    }

    /// A piped run's percentile push. Out of line, so that every kernel
    /// loop, which inlines all the record paths, stays the size it was
    /// without the pipe.
    #[inline(never)]
    fn write_piped(&mut self, s: f64) {
        if let Some(pipe) = self.pipe.as_deref_mut() {
            pipe.write(s);
        }
    }

    /// Finish one moment stream, masking extrema when `QUANTILES` is not
    /// demanded (the slim tiers never track them; the full path tracked
    /// them but the demand contract says undemanded fields are
    /// deterministic empties, so both report the `OnlineMoments::new`
    /// sentinels).
    fn demanded_moments(&self, om: &OnlineMoments) -> Moments {
        let m = om.finish();
        if self.cfg.demand.normalized().includes(Demand::QUANTILES) {
            m
        } else {
            Moments {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                ..m
            }
        }
    }

    /// Finish the run: [`Collector::finish_into`] a fresh result.
    ///
    /// Consumes the collector; a piped run's last chunks are pushed
    /// first. Undemanded fields come out as deterministic empties (`None`,
    /// zeroed tallies, extrema sentinels) regardless of what the config
    /// switches asked for.
    #[must_use]
    pub fn finish(mut self) -> SimResult {
        let mut out = SimResult {
            // a buffer to swap with, so the records move uncopied
            records: self.records.as_ref().map(|_| Vec::new()),
            ..SimResult::empty()
        };
        self.finish_into(&mut out);
        out
    }

    /// Finish the run into an existing result, reusing its buffers.
    ///
    /// The one end-of-run path: [`Collector::finish`] calls it on a fresh
    /// result. It keeps the collector alive (it is workspace state),
    /// ready for the next `reset`. The per-host tallies
    /// and record buffer are *moved* into the result by `mem::swap` —
    /// zero copies, zero allocations — so the collector's own copies are
    /// stale afterwards; every engine entry point calls `reset` before
    /// the next run, which reinstates them. Remaining growable fields
    /// route through `clone_from`, so a result that already went through
    /// a run of the same shape absorbs this one with zero heap
    /// allocation — the steady state of a reused-workspace sweep.
    // dses-lint: deny(alloc)
    pub fn finish_into(&mut self, out: &mut SimResult) {
        self.end_pipe_run(true);
        let d = self.cfg.demand.normalized();
        let measured = self.slowdown.count();
        out.slowdown = self.demanded_moments(&self.slowdown);
        out.queueing_slowdown = self.demanded_moments(&self.queueing_slowdown);
        out.response = self.demanded_moments(&self.response);
        out.waiting = self.demanded_moments(&self.waiting);
        if out.per_host.capacity() >= self.per_host.len() {
            // steady state: the result's previous buffer (same shape)
            // comes back to the collector — a pointer swap, not a copy
            std::mem::swap(&mut out.per_host, &mut self.per_host);
        } else {
            // first run into a fresh result: grow the result's buffer
            // once and keep the collector's for the swap next time
            out.per_host.clear();
            out.per_host.extend_from_slice(&self.per_host);
        }
        if !d.includes(Demand::PER_HOST) {
            out.per_host.iter_mut().for_each(|h| *h = HostStats::default());
        }
        out.makespan = self.makespan;
        out.measured = measured;
        out.skipped = self.seen - measured;
        match (&self.fairness, &mut out.fairness) {
            (Some(src), Some(dst)) => dst.clone_from(src),
            (Some(src), dst) => *dst = Some(src.clone()),
            (None, dst) => *dst = None,
        }
        out.short_slowdown = self.eff_split.map(|_| self.short_slowdown.finish());
        out.long_slowdown = self.eff_split.map(|_| self.long_slowdown.finish());
        match (&self.percentiles, &mut out.slowdown_percentiles) {
            (Some(src), Some(dst)) => src.estimates_into(dst),
            (Some(src), dst) => *dst = Some(src.estimates()),
            (None, dst) => *dst = None,
        }
        out.slo_violations = self.eff_slo.map(|t| (self.slo_violations, t));
        match (&mut self.records, &mut out.records) {
            (Some(src), Some(dst)) => {
                // the result's previous buffer comes back to the
                // collector, cleared, so the next reset reuses its
                // capacity
                std::mem::swap(src, dst);
                src.clear();
            }
            // first run into a fresh result: clone so the collector
            // keeps its buffer (and its capacity) for the swap next time
            (Some(src), dst) => *dst = Some(src.clone()),
            (None, dst) => *dst = None,
        }
    }
}

/// Slowdowns per chunk the percentile pipe hands over at once, and the
/// measured jobs from which a run takes the pipe: a shorter run would
/// never hand a chunk off (DESIGN.md §13.7).
const PIPE_CHUNK: usize = 16_384;

type Chunk = Box<[f64; PIPE_CHUNK]>;

/// The chunk on offer and the estimators it goes into. Whoever holds the
/// lock pushes; a poisoned lock means the helper panicked mid-chunk.
struct Pending {
    set: Option<QuantileSet>,
    chunk: Chunk,
}

/// Lock `pending`, poisoned or not: estimators a panicking push left
/// half-updated are never read, since the run ends with the panic and
/// the next one gets a fresh pipe.
fn lock_pending(pending: &Mutex<Pending>) -> MutexGuard<'_, Pending> {
    pending.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Push `values` into the estimators, in order, if a run lent them.
fn push_all(set: &mut Option<QuantileSet>, values: &[f64]) {
    if let Some(set) = set {
        for &s in values {
            set.push(s);
        }
    }
}

/// The full collector's percentile pipe (DESIGN.md §13.7), a double
/// buffer: the recording thread fills `chunk` while a free pool helper
/// pushes the previous one, `pending`'s, so at most one chunk is ever on
/// offer.
struct PercentilePipe {
    pending: Arc<Mutex<Pending>>,
    /// Pushes the pending chunk; offered to the pool once per hand-off.
    task: HelperTask,
    /// The chunk the recording thread is filling.
    chunk: Chunk,
    fill: usize,
    /// A piped run is in flight (between `start` and `end_run`).
    running: bool,
    /// `task` is on offer and not yet settled.
    offered: bool,
}

impl PercentilePipe {
    /// Build the two chunk buffers and the pool task, once per collector.
    fn new() -> Box<Self> {
        // dses-lint: allow(no-alloc-transitive) -- grow-once: Collector::reset builds the pipe on its first piped run, then re-arms it
        let buffer = || Box::new([0.0; PIPE_CHUNK]);
        let pending = Arc::new(Mutex::new(Pending {
            set: None,
            chunk: buffer(),
        }));
        let shared = Arc::clone(&pending);
        Box::new(Self {
            pending,
            task: HelperTask::new(move || {
                let p = &mut *lock_pending(&shared);
                push_all(&mut p.set, &p.chunk[..]);
            }),
            chunk: buffer(),
            fill: 0,
            running: false,
            offered: false,
        })
    }

    /// Lend the pipe the estimators for a run.
    fn start(&mut self, set: QuantileSet) {
        lock_pending(&self.pending).set = Some(set);
        self.running = true;
        self.fill = 0;
    }

    /// Buffer one measured slowdown.
    #[inline(always)]
    fn write(&mut self, s: f64) {
        self.chunk[self.fill] = s;
        self.fill += 1;
        if self.fill == PIPE_CHUNK {
            self.hand_off();
        }
    }

    /// Settle the last offer, so its chunk is pushed in full, then make
    /// the full chunk the pending one and offer it. A helper's panic
    /// ends the run here.
    #[cold]
    #[inline(never)]
    fn hand_off(&mut self) {
        if let Err(payload) = self.settle(true) {
            self.running = false;
            std::panic::resume_unwind(payload);
        }
        std::mem::swap(&mut self.chunk, &mut lock_pending(&self.pending).chunk);
        self.fill = 0;
        self.task.offer(WorkerPool::global());
        self.offered = true;
    }

    /// End the last offer: claim it back if no helper started it (and,
    /// with `push`, push its chunk on this thread), or else wait for the
    /// helper and return how its task ended.
    fn settle(&mut self, push: bool) -> std::thread::Result<()> {
        if !std::mem::take(&mut self.offered) {
            return Ok(());
        }
        if !self.task.claim_back(WorkerPool::global()) {
            return self.task.wait();
        }
        if push {
            let p = &mut *lock_pending(&self.pending);
            push_all(&mut p.set, &p.chunk[..]);
        }
        Ok(())
    }

    /// End the run (see `Collector::end_pipe_run`): settle the offer,
    /// with `drain` push the pending and the partial chunk, and return
    /// the estimators with the helper's outcome.
    fn end_run(&mut self, drain: bool) -> (Option<QuantileSet>, std::thread::Result<()>) {
        let outcome = self.settle(drain);
        let mut p = lock_pending(&self.pending);
        if drain && outcome.is_ok() {
            push_all(&mut p.set, &self.chunk[..self.fill]);
        }
        self.running = false;
        (p.set.take(), outcome)
    }
}

impl Drop for PercentilePipe {
    /// Settle the offer of a run nobody finished, so the helper serving
    /// it returns to the pool.
    fn drop(&mut self) {
        if self.running {
            let _ = self.end_run(false);
        }
    }
}

impl std::fmt::Debug for PercentilePipe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PercentilePipe")
            .field("running", &self.running)
            .field("offered", &self.offered)
            .field("fill", &self.fill)
            .finish_non_exhaustive()
    }
}

/// Batch-means confidence half-width for the mean of `values` at roughly
/// 95 % confidence, using `batches` equal batches.
///
/// Returns `(mean, half_width)`. The batch-means method absorbs the
/// autocorrelation of within-run job metrics that a naive standard error
/// would ignore.
#[must_use]
pub fn batch_means_ci(values: &[f64], batches: usize) -> (f64, f64) {
    assert!(batches >= 2, "need at least 2 batches");
    let n = values.len();
    if n < batches {
        let mean = values.iter().sum::<f64>() / n.max(1) as f64;
        return (mean, f64::INFINITY);
    }
    let per = n / batches;
    let means: Vec<f64> = (0..batches)
        .map(|b| values[b * per..(b + 1) * per].iter().sum::<f64>() / per as f64)
        .collect();
    let grand = means.iter().sum::<f64>() / batches as f64;
    let var = means.iter().map(|m| (m - grand) * (m - grand)).sum::<f64>()
        / (batches - 1) as f64;
    // t-quantile ~ 2.0 is adequate for ≥ 10 batches at 95%
    let half = 2.0 * (var / batches as f64).sqrt();
    (grand, half)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, arrival: f64, size: f64, start: f64, host: usize) -> JobRecord {
        JobRecord {
            id,
            arrival,
            size,
            start,
            completion: start + size,
            host,
        }
    }

    #[test]
    fn job_record_derived_metrics() {
        let r = rec(0, 10.0, 4.0, 12.0, 0);
        assert_eq!(r.waiting(), 2.0);
        assert_eq!(r.response(), 6.0);
        assert_eq!(r.slowdown(), 1.5);
        assert_eq!(r.queueing_slowdown(), 0.5);
    }

    #[test]
    fn collector_aggregates() {
        let mut c = Collector::new(2, MetricsConfig::default());
        c.record(rec(0, 0.0, 2.0, 0.0, 0)); // slowdown 1
        c.record(rec(1, 0.0, 1.0, 1.0, 1)); // slowdown 2
        let r = c.finish();
        assert_eq!(r.measured, 2);
        assert!((r.slowdown.mean - 1.5).abs() < 1e-12);
        assert_eq!(r.per_host[0].jobs, 1);
        assert_eq!(r.per_host[1].work, 1.0);
        assert_eq!(r.makespan, 2.0);
    }

    #[test]
    fn warmup_jobs_are_skipped_but_count_into_makespan() {
        let mut c = Collector::new(1, MetricsConfig {
            warmup_jobs: 1,
            ..MetricsConfig::default()
        });
        c.record(rec(0, 0.0, 1.0, 100.0, 0));
        c.record(rec(1, 0.0, 1.0, 0.0, 0));
        let r = c.finish();
        assert_eq!(r.measured, 1);
        assert_eq!(r.skipped, 1);
        assert!((r.slowdown.mean - 1.0).abs() < 1e-12); // only second job
        assert_eq!(r.makespan, 101.0);
    }

    #[test]
    fn load_and_job_fractions() {
        let mut c = Collector::new(2, MetricsConfig::default());
        c.record(rec(0, 0.0, 3.0, 0.0, 0));
        c.record(rec(1, 0.0, 1.0, 0.0, 1));
        let r = c.finish();
        assert!((r.load_fraction(0) - 0.75).abs() < 1e-12);
        assert!((r.job_fraction(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn split_cutoff_classifies_short_and_long() {
        let mut c = Collector::new(1, MetricsConfig {
            split_cutoff: Some(2.0),
            ..MetricsConfig::default()
        });
        c.record(rec(0, 0.0, 1.0, 1.0, 0)); // short, slowdown 2
        c.record(rec(1, 0.0, 4.0, 0.0, 0)); // long, slowdown 1
        let r = c.finish();
        assert!((r.short_slowdown.unwrap().mean - 2.0).abs() < 1e-12);
        assert!((r.long_slowdown.unwrap().mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_histogram_populates() {
        let mut c = Collector::new(1, MetricsConfig {
            fairness_bins: 10,
            ..MetricsConfig::default()
        });
        c.record(rec(0, 0.0, 1.0, 0.0, 0));
        c.record(rec(1, 0.0, 1.0e6, 0.0, 0));
        let r = c.finish();
        let bins: Vec<_> = r.fairness.unwrap().populated_bins().map(|(c, _)| c).collect();
        assert_eq!(bins.len(), 2);
    }

    #[test]
    fn records_collected_when_asked() {
        let mut c = Collector::new(1, MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        });
        c.record(rec(0, 0.0, 1.0, 0.0, 0));
        let r = c.finish();
        assert_eq!(r.records.unwrap().len(), 1);
    }

    #[test]
    fn record_with_inv_matches_record_bitwise() {
        let jobs = [(0.0, 3.0, 1.5), (1.0, 7.0, 2.0), (2.5, 0.5, 4.0)];
        let mut plain = Collector::new(1, MetricsConfig::default());
        let mut with_inv = Collector::new(1, MetricsConfig::default());
        for (i, &(arrival, size, start)) in jobs.iter().enumerate() {
            let r = rec(i as u64, arrival, size, start, 0);
            plain.record(r);
            with_inv.record_with_inv(r, 1.0 / size);
        }
        let a = plain.finish();
        let b = with_inv.finish();
        assert_eq!(a.slowdown.mean.to_bits(), b.slowdown.mean.to_bits());
        assert_eq!(a.slowdown.variance.to_bits(), b.slowdown.variance.to_bits());
        assert_eq!(
            a.queueing_slowdown.mean.to_bits(),
            b.queueing_slowdown.mean.to_bits()
        );
    }

    #[test]
    fn batch_means_on_iid_data() {
        // constant data → zero half width
        let v = vec![5.0; 1000];
        let (m, h) = batch_means_ci(&v, 10);
        assert_eq!(m, 5.0);
        assert_eq!(h, 0.0);
    }

    #[test]
    fn batch_means_small_sample_is_honest() {
        let (_, h) = batch_means_ci(&[1.0, 2.0], 10);
        assert_eq!(h, f64::INFINITY);
    }

    #[test]
    fn utilizations_from_makespan() {
        let mut c = Collector::new(2, MetricsConfig::default());
        c.record(rec(0, 0.0, 4.0, 0.0, 0));
        c.record(rec(1, 0.0, 8.0, 2.0, 1)); // completes at 10 → makespan 10
        let r = c.finish();
        let u = r.utilizations();
        assert!((u[0] - 0.4).abs() < 1e-12);
        assert!((u[1] - 0.8).abs() < 1e-12);
    }
}

#[cfg(test)]
mod slo_tests {
    use super::*;

    #[test]
    fn slo_violations_are_counted() {
        let mut c = Collector::new(1, MetricsConfig {
            slo_slowdown: Some(3.0),
            ..MetricsConfig::default()
        });
        for (i, slowdown) in [1.0f64, 2.0, 5.0, 10.0].iter().enumerate() {
            c.record(JobRecord {
                id: i as u64,
                arrival: 0.0,
                size: 1.0,
                start: slowdown - 1.0,
                completion: *slowdown,
                host: 0,
            });
        }
        let r = c.finish();
        assert_eq!(r.slo_violations, Some((2, 3.0)));
        assert!((r.slo_violation_fraction().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slo_absent_without_threshold() {
        let c = Collector::new(1, MetricsConfig::default());
        let r = c.finish();
        assert!(r.slo_violations.is_none());
        assert!(r.slo_violation_fraction().is_none());
    }
}

#[cfg(test)]
mod percentile_tests {
    use super::*;

    #[test]
    fn percentiles_tracked_when_enabled() {
        let mut c = Collector::new(1, MetricsConfig {
            slowdown_percentiles: true,
            ..MetricsConfig::default()
        });
        for i in 0..1000 {
            let slowdown = 1.0 + (i % 100) as f64; // slowdowns 1..=100
            c.record(JobRecord {
                id: i,
                arrival: 0.0,
                size: 1.0,
                start: slowdown - 1.0,
                completion: slowdown,
                host: 0,
            });
        }
        let r = c.finish();
        let p = r.slowdown_percentiles.expect("enabled");
        let median = p.iter().find(|(q, _)| (*q - 0.5).abs() < 1e-9).unwrap().1;
        assert!((median - 51.0).abs() < 5.0, "median = {median}");
        let p99 = p.iter().find(|(q, _)| (*q - 0.99).abs() < 1e-9).unwrap().1;
        assert!(p99 > 95.0, "p99 = {p99}");
    }

    #[test]
    fn percentiles_absent_by_default() {
        let c = Collector::new(1, MetricsConfig::default());
        assert!(c.finish().slowdown_percentiles.is_none());
    }
}

#[cfg(test)]
mod demand_tests {
    use super::*;

    fn rec(id: u64, arrival: f64, size: f64, start: f64, host: usize) -> JobRecord {
        JobRecord {
            id,
            arrival,
            size,
            start,
            completion: start + size,
            host,
        }
    }

    #[test]
    fn demand_bit_algebra() {
        assert_eq!(Demand::FULL, Demand::MEANS | Demand::CLASS_SPLIT | Demand::QUANTILES | Demand::PER_HOST | Demand::RECORDS);
        assert!(Demand::FULL.includes(Demand::MEANS));
        assert!(!Demand::MEANS.includes(Demand::PER_HOST));
        assert!((Demand::MEANS | Demand::PER_HOST).includes(Demand::PER_HOST));
        // normalization always demands the core moment streams
        assert!(Demand::PER_HOST.normalized().includes(Demand::MEANS));
        assert_eq!(MetricsConfig::default().demand, Demand::FULL);
    }

    #[test]
    fn record_path_routing() {
        let base = MetricsConfig::streaming();
        assert_eq!(resolve_path(&base), RecordPath::Full);
        let means = MetricsConfig { demand: Demand::MEANS, ..base };
        assert_eq!(resolve_path(&means), RecordPath::Means);
        let hosty = MetricsConfig { demand: Demand::MEANS | Demand::PER_HOST, ..base };
        assert_eq!(resolve_path(&hosty), RecordPath::MeansHost);
        // an undemanded tail accumulator does not force the full path
        let masked_tail = MetricsConfig {
            split_cutoff: Some(1.0),
            demand: Demand::MEANS,
            ..base
        };
        assert_eq!(resolve_path(&masked_tail), RecordPath::Means);
        assert_eq!(resolve_path(&MetricsConfig::full_records()), RecordPath::Full);
    }

    #[test]
    fn means_tier_matches_full_bitwise_and_masks_the_rest() {
        let recs: Vec<JobRecord> = (0..257)
            .map(|i| rec(i, i as f64, 1.0 + (i % 13) as f64, i as f64 + (i % 3) as f64, (i % 4) as usize))
            .collect();
        let mut full = Collector::new(4, MetricsConfig::streaming());
        let mut means = Collector::new(
            4,
            MetricsConfig {
                demand: Demand::MEANS,
                ..MetricsConfig::streaming()
            },
        );
        for &r in &recs {
            full.record(r);
            means.record(r);
        }
        let f = full.finish();
        let m = means.finish();
        assert_eq!(f.slowdown.mean.to_bits(), m.slowdown.mean.to_bits());
        assert_eq!(f.slowdown.variance.to_bits(), m.slowdown.variance.to_bits());
        assert_eq!(f.waiting.mean.to_bits(), m.waiting.mean.to_bits());
        assert_eq!(f.measured, m.measured);
        assert_eq!(f.makespan.to_bits(), m.makespan.to_bits());
        assert_eq!(m.slowdown.min, f64::INFINITY);
        assert_eq!(m.slowdown.max, f64::NEG_INFINITY);
        assert!(m.per_host.iter().all(|h| h.jobs == 0 && h.work == 0.0));
        assert!(f.per_host.iter().any(|h| h.jobs > 0));
    }

    #[test]
    fn reset_re_resolves_the_record_path() {
        let mut c = Collector::new(2, MetricsConfig {
            demand: Demand::MEANS,
            ..MetricsConfig::streaming()
        });
        c.record(rec(0, 0.0, 1.0, 0.0, 0));
        c.reset(2, MetricsConfig::streaming(), 4);
        c.record(rec(0, 0.0, 2.0, 0.0, 1));
        let r = c.finish();
        // back on the full path: extrema and per-host live again
        assert_eq!(r.measured, 1);
        assert_eq!(r.slowdown.min, 1.0);
        assert_eq!(r.per_host[1].jobs, 1);
    }
}

#[cfg(test)]
mod pipe_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// The tests of this binary that use the global pool's helper take
    /// this lock, so each finds the helper free rather than serving
    /// another test's pipe.
    fn pool_helper() -> MutexGuard<'static, ()> {
        static HELPER: Mutex<()> = Mutex::new(());
        HELPER.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether `cond` holds within ten seconds.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let start = Instant::now();
        while !cond() {
            if start.elapsed() > Duration::from_secs(10) {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// `n` records with spread-out slowdowns (a 64-bit LCG drives the
    /// sizes and waits) over four hosts.
    fn records(n: usize) -> Vec<JobRecord> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let arrival = i as f64;
                let size = 0.01 + 100.0 * next() * next();
                let start = arrival + 50.0 * next();
                JobRecord {
                    id: i as u64,
                    arrival,
                    size,
                    start,
                    completion: start + size,
                    host: i % 4,
                }
            })
            .collect()
    }

    fn percentile_cfg() -> MetricsConfig {
        MetricsConfig {
            slowdown_percentiles: true,
            fairness_bins: 12,
            slo_slowdown: Some(10.0),
            warmup_jobs: 100,
            ..MetricsConfig::streaming()
        }
    }

    /// The run pushed inline: a collector without a job hint never pipes.
    fn inline(cfg: MetricsConfig, recs: &[JobRecord]) -> SimResult {
        let mut c = Collector::new(4, cfg);
        for &r in recs {
            c.record(r);
        }
        assert!(c.pipe.is_none());
        c.finish()
    }

    /// Every field, bit for bit (`Debug` prints each float's shortest
    /// round-trip form, so distinct non-NaN bits print differently).
    fn assert_same_bits(a: &SimResult, b: &SimResult) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    fn running(c: &Collector) -> bool {
        c.pipe.as_ref().is_some_and(|p| p.running)
    }

    #[test]
    fn a_long_percentile_run_takes_the_pipe_when_a_second_worker_exists() {
        let _helper = pool_helper();
        // two whole chunks and part of a third after the warm-up
        let recs = records(100 + 2 * PIPE_CHUNK + 500);
        let cfg = percentile_cfg();
        let mut c = Collector::with_job_hint(4, cfg, recs.len());
        assert_eq!(running(&c), available_workers() >= 2);
        for &r in &recs {
            c.record(r);
        }
        let piped = c.finish();
        assert_same_bits(&piped, &inline(cfg, &recs));
        assert!(piped.slowdown_percentiles.is_some());
        // short runs, and runs that do not track percentiles, never pipe
        let short = Collector::with_job_hint(4, cfg, PIPE_CHUNK + cfg.warmup_jobs - 1);
        assert!(!running(&short));
        let untracked = Collector::with_job_hint(
            4,
            MetricsConfig {
                demand: Demand::MEANS | Demand::PER_HOST,
                ..cfg
            },
            recs.len(),
        );
        assert!(!running(&untracked));
    }

    #[test]
    fn a_collector_dropped_mid_run_releases_its_helper() {
        let _helper = pool_helper();
        if available_workers() < 2 {
            return;
        }
        let recs = records(100 + 3 * PIPE_CHUNK);
        let mut c = Collector::with_job_hint(4, percentile_cfg(), recs.len());
        assert!(running(&c));
        // two chunks: the second is on offer when the collector goes
        for &r in &recs[..100 + 2 * PIPE_CHUNK] {
            c.record(r);
        }
        let pipe = c.pipe.as_ref().expect("piped run");
        assert!(pipe.offered);
        let state = Arc::downgrade(&pipe.pending);
        drop(c);
        assert!(
            eventually(|| state.upgrade().is_none()),
            "the helper lets go of the pending chunk"
        );
        // both workers of a two-worker batch meet: the helper is free
        let met = Arc::new(AtomicUsize::new(0));
        let both = {
            let met = Arc::clone(&met);
            crate::par_map_indexed(2, 2, move |_| {
                met.fetch_add(1, Ordering::SeqCst);
                eventually(|| met.load(Ordering::SeqCst) == 2)
            })
        };
        assert_eq!(both, vec![true, true]);
    }

    #[test]
    fn a_reset_after_an_abandoned_run_gives_the_fresh_result() {
        let _helper = pool_helper();
        let recs = records(2 * PIPE_CHUNK + 1_000);
        let cfg = percentile_cfg();
        let mut reused = Collector::with_job_hint(4, cfg, recs.len());
        // abandoned with one chunk on offer and a partial one
        for &r in &recs[..PIPE_CHUNK + 7_000] {
            reused.record(r);
        }
        let next = MetricsConfig {
            split_cutoff: Some(20.0),
            warmup_jobs: 0,
            ..cfg
        };
        reused.reset(4, next, recs.len());
        assert_eq!(running(&reused), available_workers() >= 2);
        let mut fresh = Collector::with_job_hint(4, next, recs.len());
        for &r in &recs {
            reused.record(r);
            fresh.record(r);
        }
        let mut out = SimResult::empty();
        reused.finish_into(&mut out);
        let fresh = fresh.finish();
        assert_same_bits(&out, &fresh);
        assert_same_bits(&out, &inline(next, &recs));
        // and the reused collector pipes its next run as well
        reused.reset(4, cfg, recs.len());
        for &r in &recs {
            reused.record(r);
        }
        reused.finish_into(&mut out);
        assert_same_bits(&out, &inline(cfg, &recs));
    }
}
