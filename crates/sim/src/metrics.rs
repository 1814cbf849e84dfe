//! Per-job records and aggregated performance metrics.
//!
//! The paper's three performance goals (§1.2) are mean slowdown, variance
//! of slowdown, and fairness (expected slowdown conditioned on job size);
//! it also reports mean/variance of response time. [`SimResult`] carries
//! all of them, plus the per-host load shares that Figure 5's
//! "fraction of load on Host 1" series needs.

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
    pub slowdown_percentiles: bool,
    /// If set, count jobs whose slowdown exceeds this service-level
    /// threshold — "predictable slowdown" (§1.2) as an SLO violation
    /// fraction.
    pub slo_slowdown: Option<f64>,
    /// Which aggregate families the consumer will read (see [`Demand`]).
    /// Defaults to [`Demand::FULL`]; narrower demands let the collector
    /// drop to a slimmer monomorphized record path.
    pub demand: Demand,
    /// Opt into the block-batched collector tier: records buffer into
    /// 64-wide SoA lanes and fold into the Welford streams once per
    /// block ([`OnlineMoments::merge_block`]). Stream means/variances
    /// are then **ulp-bounded** rather than bit-identical to the
    /// per-record tiers (count, extrema, makespan, and per-host tallies
    /// stay exact), so this tier carries its own relative-error gate in
    /// `perf_report`, is never the default, and is never used by
    /// exhibits. Engages only when no per-record optional accumulator
    /// is active (records, fairness profile, percentiles, class split,
    /// SLO counter — each off in config or undemanded); otherwise the
    /// per-record path runs and results stay bit-identical.
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

    /// Whether any per-job buffering happens (false ⇒ O(1) memory).
    #[must_use]
    pub fn buffers_records(&self) -> bool {
        self.collect_records
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

/// Number of records the block-batched tier buffers between flushes.
const BLOCK: usize = 64;

/// SoA lane buffer for the block-batched collector tier (DESIGN.md §13).
///
/// Buffers up to [`BLOCK`] post-warmup records as structure-of-arrays
/// lanes. A flush reduces each derived stream to `(n, mean, m2, min,
/// max)` in short vectorizable passes (8-way partial sums, then
/// centered squares) and folds the summary into the owning collector's
/// Welford streams via [`OnlineMoments::merge_block`] — one reduction
/// per block instead of four dependent accumulator updates per job.
#[derive(Debug, Clone)]
struct BlockCollector {
    fill: usize,
    /// response time `completion − arrival`
    resp: [f64; BLOCK],
    /// waiting time `start − arrival`
    wait: [f64; BLOCK],
    size: [f64; BLOCK],
    /// exact reciprocal `1/size` (the trace's precomputed value)
    inv: [f64; BLOCK],
    host: [u32; BLOCK],
}

impl BlockCollector {
    fn empty() -> Self {
        Self {
            fill: 0,
            resp: [0.0; BLOCK],
            wait: [0.0; BLOCK],
            size: [0.0; BLOCK],
            inv: [0.0; BLOCK],
            host: [0; BLOCK],
        }
    }
}

/// Reduce one value lane to `(mean, m2, min, max)`.
///
/// Partial 8-way accumulators keep every pass free of loop-carried
/// scalar dependences, so the compiler can vectorize; the tree
/// reduction at the end fixes the summation order, making the result
/// deterministic (and ulp-close to, but not bitwise, the sequential
/// Welford recurrence — see the error argument in DESIGN.md §13).
// dses-lint: mirrors(welford-block, ulp)
fn lane_stats(x: &[f64]) -> (f64, f64, f64, f64) {
    debug_assert!(!x.is_empty() && x.len() <= BLOCK);
    let mut sums = [0.0f64; 8];
    let mut mins = [f64::INFINITY; 8];
    let mut maxs = [f64::NEG_INFINITY; 8];
    for c in x.chunks(8) {
        for (k, &v) in c.iter().enumerate() {
            sums[k] += v;
            if v < mins[k] {
                mins[k] = v;
            }
            if v > maxs[k] {
                maxs[k] = v;
            }
        }
    }
    let tree = |p: &[f64; 8], f: fn(f64, f64) -> f64| {
        f(f(f(p[0], p[1]), f(p[2], p[3])), f(f(p[4], p[5]), f(p[6], p[7])))
    };
    let sum = tree(&sums, |a, b| a + b);
    // a full block divides by 64 — a power of two, so the constant
    // multiply is the exact same value and the steady-state flush stays
    // divide-free; only tail blocks pay one divide
    let mean = if x.len() == BLOCK { sum * (1.0 / BLOCK as f64) } else { sum / x.len() as f64 };
    let mut m2s = [0.0f64; 8];
    for c in x.chunks(8) {
        for (k, &v) in c.iter().enumerate() {
            let d = v - mean;
            m2s[k] += d * d;
        }
    }
    (
        mean,
        tree(&m2s, |a, b| a + b),
        tree(&mins, f64::min),
        tree(&maxs, f64::max),
    )
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
    /// Block-batched SoA accumulation (`MetricsConfig::batched`).
    Batched,
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
    } else if cfg.batched {
        RecordPath::Batched
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
    percentiles: Option<QuantileSet>,
    slo_violations: u64,
    records: Option<Vec<JobRecord>>,
    /// `inv_n[k] = 1.0 / (k + 1)` for the first `expected_jobs` counts —
    /// the same single IEEE divide [`Collector::record_with_inv`] would
    /// issue per job, precomputed once at reset so the steady-state
    /// record path performs **zero** divides. Grow-once: reset extends
    /// but never shrinks, and counts past the table fall back to the
    /// live divide (bitwise the same value).
    inv_n: Vec<f64>,
    /// The monomorphized record path resolved from `cfg` at reset.
    path: RecordPath,
    /// `Demand::PER_HOST` requested (the batched flush consults it; the
    /// per-record paths bake it into their instantiation).
    host_on: bool,
    /// `cfg.split_cutoff` masked by `Demand::CLASS_SPLIT`.
    eff_split: Option<f64>,
    /// `cfg.slo_slowdown` masked by `Demand::QUANTILES`.
    eff_slo: Option<f64>,
    /// SoA lanes for the batched tier; grow-once like the buffers above.
    block: Option<Box<BlockCollector>>,
}

impl Collector {
    /// Create a collector for `hosts` hosts.
    #[must_use]
    pub fn new(hosts: usize, cfg: MetricsConfig) -> Self {
        Self::with_job_hint(hosts, cfg, 0)
    }

    /// Create a collector for `hosts` hosts, pre-sizing the record buffer
    /// for `expected_jobs` completions (engines pass the trace length so
    /// full-record runs never pay repeated reallocation; streaming mode
    /// ignores the hint).
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
            slo_violations: 0,
            records: None,
            inv_n: Vec::new(),
            path: RecordPath::Full,
            host_on: true,
            eff_split: None,
            eff_slo: None,
            block: None,
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
    /// its layout is unchanged, the record vector, the block lanes) keeps
    /// its allocation.
    pub fn reset(&mut self, hosts: usize, cfg: MetricsConfig, expected_jobs: usize) {
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
                // dses-lint: allow(no-alloc-transitive) -- grow-once: records are built when first enabled, then cleared and reused
                other => *other = Some(Vec::with_capacity(expected_jobs)),
            }
        } else {
            self.records = None;
        }
        self.path = resolve_path(&cfg);
        self.host_on = d.includes(Demand::PER_HOST);
        self.eff_split = cfg.split_cutoff.filter(|_| d.includes(Demand::CLASS_SPLIT));
        self.eff_slo = cfg.slo_slowdown.filter(|_| d.includes(Demand::QUANTILES));
        if self.path == RecordPath::Batched {
            match &mut self.block {
                Some(b) => b.fill = 0,
                other => *other = Some(Box::new(BlockCollector::empty())),
            }
        }
        if self.inv_n.len() < expected_jobs {
            self.inv_n.extend((self.inv_n.len()..expected_jobs).map(|k| 1.0 / (k + 1) as f64));
        }
    }

    /// Record one completed job.
    ///
    /// The four always-on moment streams advance in lockstep (same count
    /// after every call), so one `1/n` reciprocal serves all four pushes,
    /// and one `1/size` serves both slowdown ratios — two divides per job
    /// where the naive form issues fourteen. Divide throughput, not
    /// flops, bounds the specialized kernels (see DESIGN.md §11).
    // dses-lint: divides(1)
    // dses-lint: mirrors(record-entry)
    #[inline]
    pub fn record(&mut self, rec: JobRecord) {
        self.record_with_inv(rec, 1.0 / rec.size);
    }

    /// [`Collector::record`] with the caller supplying `1.0 / rec.size`.
    ///
    /// The fast-engine kernels stream `Trace::inv_sizes`, where the
    /// reciprocal was computed once at trace construction — the same
    /// single IEEE divide this method would otherwise issue per job, so
    /// results are bitwise unchanged (a `debug_assert` pins the bit
    /// pattern). This takes the metrics path to one divide per job.
    // dses-lint: divides(0)
    // dses-lint: deny(alloc)
    // dses-lint: mirrors(record-entry)
    // dses-lint: hoist(inv_size)
    #[inline]
    pub fn record_with_inv(&mut self, rec: JobRecord, inv_size: f64) {
        match self.path {
            RecordPath::Full => self.record_core::<true, true, true>(rec, inv_size),
            RecordPath::MeansHost => self.record_core::<false, true, false>(rec, inv_size),
            RecordPath::Means => self.record_core::<false, false, false>(rec, inv_size),
            RecordPath::Batched => self.record_batched(rec, inv_size),
        }
    }

    /// The per-record accumulation core, monomorphized over the demand
    /// tier: `EXTREMA` tracks stream min/max (the `QUANTILES` bit),
    /// `HOST` updates per-host tallies (`PER_HOST`), `TAIL` runs the
    /// optional accumulators (fairness histogram, class split,
    /// percentiles, SLO counter, record buffer). Every demanded field
    /// computes in exactly the pre-tier order, so demanded outputs stay
    /// bitwise identical across tiers.
    // dses-lint: divides(0)
    // dses-lint: mirrors(record-tiers)
    // dses-lint: inline(push_with_inv, push_mv_with_inv)
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
        let count = self.slowdown.count() as usize;
        // Table hit in every engine run (reset sizes it to the trace);
        // the fallback divide computes the identical bit pattern for
        // hand-built collectors that outgrow their hint.
        let inv_n = match self.inv_n.get(count) {
            Some(&v) => v,
            None => 1.0 / (count + 1) as f64,
        };
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
                // dses-lint: allow(divide-budget) -- name-resolution collision: `f` is the fairness LogHistogram, not the Collector; its binning divide is waived at its own site
                f.record(rec.size, s);
            }
            if let Some(cutoff) = self.eff_split {
                // The class streams advance one at a time (a job is short
                // or long, never both), so the lockstep `inv_n` above is
                // the wrong count — but the same table serves: index it
                // by the chosen stream's own count. Same bits as the
                // divide `OnlineMoments::push` would issue.
                let m = if rec.size <= cutoff {
                    &mut self.short_slowdown
                } else {
                    &mut self.long_slowdown
                };
                let k = m.count() as usize;
                let inv = match self.inv_n.get(k) {
                    Some(&v) => v,
                    None => 1.0 / (k + 1) as f64,
                };
                m.push_with_inv(s, inv);
            }
            if let Some(p) = &mut self.percentiles {
                p.push(s);
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

    /// The block-batched record path: stage the record into the SoA
    /// lanes and flush once per [`BLOCK`] completions.
    #[inline]
    fn record_batched(&mut self, rec: JobRecord, inv_size: f64) {
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
        let Some(b) = self.block.as_mut() else {
            unreachable!("RecordPath::Batched without lanes; reset() allocates them")
        };
        let f = b.fill;
        b.resp[f] = rec.completion - rec.arrival;
        b.wait[f] = rec.start - rec.arrival;
        b.size[f] = rec.size;
        b.inv[f] = inv_size;
        b.host[f] = rec.host as u32;
        b.fill = f + 1;
        if b.fill == BLOCK {
            self.flush_block();
        }
    }

    /// Flush the staged SoA lanes into the Welford streams (batched tier
    /// only; a no-op on the per-record paths and on an empty buffer).
    ///
    /// Counts, extrema, per-host tallies, and makespan are exact; the
    /// stream mean/variance go through [`lane_stats`] +
    /// [`OnlineMoments::merge_block`], which reorders the summation and
    /// is therefore ulp-bounded rather than bitwise (DESIGN.md §13).
    fn flush_block(&mut self) {
        let Some(mut b) = self.block.take() else { return };
        let fill = b.fill;
        if fill > 0 {
            let mut s = [0.0f64; BLOCK];
            let mut q = [0.0f64; BLOCK];
            for (sj, (&r, &iv)) in s.iter_mut().zip(b.resp.iter().zip(&b.inv)).take(fill) {
                *sj = r * iv;
            }
            for (qj, (&w, &iv)) in q.iter_mut().zip(b.wait.iter().zip(&b.inv)).take(fill) {
                *qj = w * iv;
            }
            let (m, m2, mn, mx) = lane_stats(&s[..fill]);
            self.slowdown.merge_block(fill as u64, m, m2, mn, mx);
            let (m, m2, mn, mx) = lane_stats(&q[..fill]);
            self.queueing_slowdown.merge_block(fill as u64, m, m2, mn, mx);
            let (m, m2, mn, mx) = lane_stats(&b.resp[..fill]);
            self.response.merge_block(fill as u64, m, m2, mn, mx);
            let (m, m2, mn, mx) = lane_stats(&b.wait[..fill]);
            self.waiting.merge_block(fill as u64, m, m2, mn, mx);
            if self.host_on {
                for j in 0..fill {
                    let h = &mut self.per_host[b.host[j] as usize];
                    h.jobs += 1;
                    h.work += b.size[j];
                }
            }
            b.fill = 0;
        }
        self.block = Some(b);
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

    /// Finish the run.
    ///
    /// Consumes the collector; on the batched tier any partially filled
    /// block is flushed first. Undemanded fields come out as
    /// deterministic empties (`None`, zeroed tallies, extrema
    /// sentinels) regardless of what the config switches asked for.
    #[must_use]
    pub fn finish(mut self) -> SimResult {
        self.flush_block();
        let d = self.cfg.demand.normalized();
        let measured = self.slowdown.count();
        let mut per_host = std::mem::take(&mut self.per_host);
        if !d.includes(Demand::PER_HOST) {
            per_host.iter_mut().for_each(|h| *h = HostStats::default());
        }
        SimResult {
            slowdown: self.demanded_moments(&self.slowdown),
            queueing_slowdown: self.demanded_moments(&self.queueing_slowdown),
            response: self.demanded_moments(&self.response),
            waiting: self.demanded_moments(&self.waiting),
            per_host,
            makespan: self.makespan,
            measured,
            skipped: self.seen - measured,
            fairness: self.fairness,
            short_slowdown: self.eff_split.map(|_| self.short_slowdown.finish()),
            long_slowdown: self.eff_split.map(|_| self.long_slowdown.finish()),
            slowdown_percentiles: self.percentiles.map(|p| p.estimates()),
            slo_violations: self.eff_slo.map(|t| (self.slo_violations, t)),
            records: self.records,
        }
    }

    /// Finish the run into an existing result, reusing its buffers.
    ///
    /// Writes exactly what [`Collector::finish`] would return, but keeps
    /// the collector alive (it is workspace state). The per-host tallies
    /// and record buffer are *moved* into the result by `mem::swap` —
    /// zero copies, zero allocations — so the collector's own copies are
    /// stale afterwards; every engine entry point calls `reset` before
    /// the next run, which reinstates them. Remaining growable fields
    /// route through `clone_from`, so a result that already went through
    /// a run of the same shape absorbs this one with zero heap
    /// allocation — the steady state of a reused-workspace sweep.
    // dses-lint: deny(alloc)
    pub fn finish_into(&mut self, out: &mut SimResult) {
        self.flush_block();
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
        let batched = MetricsConfig { batched: true, ..base };
        assert_eq!(resolve_path(&batched), RecordPath::Batched);
        // a demanded tail accumulator overrides the batching request
        let tailed = MetricsConfig {
            batched: true,
            split_cutoff: Some(1.0),
            ..base
        };
        assert_eq!(resolve_path(&tailed), RecordPath::Full);
        // ... but an undemanded one does not
        let masked_tail = MetricsConfig {
            batched: true,
            split_cutoff: Some(1.0),
            demand: Demand::MEANS,
            ..base
        };
        assert_eq!(resolve_path(&masked_tail), RecordPath::Batched);
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
    fn batched_tier_is_close_and_exact_where_promised() {
        let recs: Vec<JobRecord> = (0..321)
            .map(|i| rec(i, i as f64 * 0.5, 0.5 + (i % 17) as f64, i as f64 * 0.5 + (i % 5) as f64, (i % 3) as usize))
            .collect();
        let mut scalar = Collector::new(3, MetricsConfig::streaming());
        let mut batched = Collector::new(
            3,
            MetricsConfig {
                batched: true,
                ..MetricsConfig::streaming()
            },
        );
        for &r in &recs {
            scalar.record(r);
            batched.record(r);
        }
        let s = scalar.finish();
        let b = batched.finish();
        // exact: counts, extrema, per-host tallies, makespan
        assert_eq!(b.measured, s.measured);
        assert_eq!(b.slowdown.min.to_bits(), s.slowdown.min.to_bits());
        assert_eq!(b.slowdown.max.to_bits(), s.slowdown.max.to_bits());
        assert_eq!(b.per_host, s.per_host);
        assert_eq!(b.makespan.to_bits(), s.makespan.to_bits());
        // ulp-bounded: stream mean and variance
        for (x, y) in [
            (&b.slowdown, &s.slowdown),
            (&b.queueing_slowdown, &s.queueing_slowdown),
            (&b.response, &s.response),
            (&b.waiting, &s.waiting),
        ] {
            assert!((x.mean - y.mean).abs() <= 1e-12 * y.mean.abs().max(1e-300));
            assert!((x.variance - y.variance).abs() <= 1e-9 * y.variance.abs().max(1e-300));
        }
    }

    #[test]
    fn lane_stats_matches_naive_two_pass() {
        let xs: Vec<f64> = (0..64).map(|i| (i as f64).mul_add(0.37, -3.0)).collect();
        let (mean, m2, mn, mx) = lane_stats(&xs);
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let naive_m2 = xs.iter().map(|x| (x - naive_mean) * (x - naive_mean)).sum::<f64>();
        assert!((mean - naive_mean).abs() <= 1e-13 * naive_mean.abs().max(1.0));
        assert!((m2 - naive_m2).abs() <= 1e-10 * naive_m2.abs().max(1.0));
        assert_eq!(mn, *xs.first().unwrap());
        assert_eq!(mx, *xs.last().unwrap());
        // short slices (partial final block) go through the same code
        let (mean1, m21, mn1, mx1) = lane_stats(&xs[..1]);
        assert_eq!(mean1, xs[0]);
        assert_eq!(m21, 0.0);
        assert_eq!((mn1, mx1), (xs[0], xs[0]));
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
