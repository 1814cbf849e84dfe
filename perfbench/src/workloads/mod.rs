//! The three workloads and the traced mirrors they share.
//!
//! Each workload runs two ways. The untraced run calls the public entry
//! points a user calls (`Experiment::sweep_grid`, `replicate`,
//! `try_run`, the solvers). The traced run performs the same work
//! through the layers' own public functions, with a span around each
//! call, and must reproduce the untraced run's digests bit for bit.
//! Where `Experiment` keeps a step private (`prepare_run`,
//! `metrics_config`, `Replicated::from_samples`), [`prepare`],
//! [`Params::metrics_config`] and [`replicated_from`] repeat it.

pub mod analytic;
pub mod paper_h2;
pub mod wide_full;

use crate::digest;
use crate::spans::{Kernel, Layer, SpanId, Tracer};
use dses_core::cutoffs::{resolve_cutoff, CutoffMethod};
use dses_core::experiment::Replicated;
use dses_core::spec::BuiltPolicy;
use dses_core::{Experiment, PolicySpec};
use dses_dist::{Distribution, Mixture};
use dses_queueing::cutoff::CutoffError;
use dses_sim::metrics::Collector;
use dses_sim::{
    simulate_dispatch_into, Demand, DispatchKernel, Dispatcher, EventEngine, MetricsConfig,
    SimResult, SimWorkspace, StateNeeds,
};
use dses_workload::Trace;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One checked result of a workload iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// stable name, unique within the workload
    pub label: String,
    /// bit-pattern digest of the result
    pub digest: u64,
    /// false if the call returned `Err`, NaN, or failed a sanity check
    pub ok: bool,
    /// true if the result does not depend on the seed
    pub seed_free: bool,
}

/// A set-up workload, ready to iterate.
pub trait Workload: Send + Sync {
    /// One iteration through the public entry points users call.
    fn run(&self) -> Vec<Op>;
    /// The same iteration with a span around every layer call.
    fn run_traced(&self, cx: &Arc<TraceCx>) -> Vec<Op>;
    /// Whether the workload simulates (has kernel calls to calibrate).
    fn simulates(&self) -> bool;
}

/// The workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["paper_h2", "wide_full", "analytic"];

/// Build the named workload's inputs: preset fits, Empirical build, and
/// pool/workspace warm-up. This is what `setup_s` times.
pub fn setup(name: &str, seed: u64, workers: usize) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_h2" => Box::new(paper_h2::PaperH2::setup(seed, workers)),
        "wide_full" => Box::new(wide_full::WideFull::setup(seed)),
        "analytic" => Box::new(analytic::Analytic::setup(seed)),
        _ => return None,
    })
}

/// Experiment knobs the benchmark sets, kept beside the `Experiment`
/// because it exposes no getters for most of them.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// hosts
    pub hosts: usize,
    /// jobs per run
    pub jobs: usize,
    /// trace and policy seed
    pub seed: u64,
    /// warm-up jobs trimmed from the statistics
    pub warmup: usize,
    /// fairness-profile bins (0 = off)
    pub fairness_bins: usize,
    /// P² slowdown percentiles
    pub percentiles: bool,
    /// slowdown SLO threshold
    pub slo: Option<f64>,
    /// pool workers for grid entry points
    pub workers: usize,
}

impl Params {
    /// The `Experiment` these knobs describe.
    pub fn experiment<D: Distribution + Clone + 'static>(&self, dist: D) -> Experiment<D> {
        let e = Experiment::new(dist)
            .hosts(self.hosts)
            .jobs(self.jobs)
            .seed(self.seed)
            .warmup_jobs(self.warmup)
            .fairness_bins(self.fairness_bins)
            .percentiles(self.percentiles)
            .threads(self.workers);
        match self.slo {
            Some(t) => e.slo(t),
            None => e,
        }
    }

    /// `Experiment::metrics_config` under `MetricsMode::Auto`.
    pub fn metrics_config<D: Distribution + ?Sized>(
        &self,
        dist: &D,
        split_cutoff: Option<f64>,
        demand: Demand,
    ) -> MetricsConfig {
        let (lo, hi) = dist.support();
        let hi = if hi.is_finite() { hi * 1.01 } else { 1.0e9 };
        MetricsConfig {
            warmup_jobs: self.warmup,
            collect_records: false,
            fairness_bins: self.fairness_bins,
            fairness_range: (lo.max(1e-3), hi),
            split_cutoff,
            slowdown_percentiles: self.percentiles,
            slo_slowdown: self.slo,
            demand,
            batched: false,
        }
    }
}

/// The cutoff rule behind a SITA spec, as `prepare_run` maps it.
fn cutoff_method(spec: &PolicySpec) -> Option<CutoffMethod> {
    match spec {
        PolicySpec::SitaE => Some(CutoffMethod::EqualLoad),
        PolicySpec::SitaUOpt => Some(CutoffMethod::OptSlowdown),
        PolicySpec::SitaUFair => Some(CutoffMethod::Fair),
        PolicySpec::SitaRuleOfThumb => Some(CutoffMethod::RuleOfThumb),
        _ => None,
    }
}

/// Which specialized loop `simulate_dispatch_into` takes for `p`.
pub fn classify(p: &dyn Dispatcher, hosts: usize) -> Kernel {
    let needs = p.state_needs();
    match p.dispatch_kernel() {
        DispatchKernel::UniformRandom | DispatchKernel::RoundRobin
            if needs == StateNeeds::NOTHING =>
        {
            Kernel::Static
        }
        DispatchKernel::SizeInterval(c) if needs == StateNeeds::NOTHING && c.len() < hosts => {
            Kernel::Static
        }
        DispatchKernel::LeastWorkLeft if needs == StateNeeds::WORK_LEFT => Kernel::WorkLeft,
        _ if needs.needs_queue_len() => Kernel::QueueLen,
        _ => Kernel::Opaque,
    }
}

/// `Replicated::from_samples`, which `dses-core` keeps private.
pub fn replicated_from(samples: &[f64]) -> Replicated {
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = if n < 2 {
        0.0
    } else {
        samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64
    };
    Replicated {
        mean,
        half_width: if n < 2 {
            f64::INFINITY
        } else {
            2.0 * (var / n as f64).sqrt()
        },
        replications: n,
    }
}

/// Reusable per-call simulation buffers.
pub struct Slot {
    /// engine workspace
    pub ws: SimWorkspace,
    /// solo result
    pub out: SimResult,
    /// fused lane results
    pub fused: Vec<SimResult>,
}

/// What the collector calibration needs to redo one kernel call.
#[derive(Debug, Clone)]
pub struct KernelCall {
    /// kernel class that ran
    pub kernel: Kernel,
    /// time inside the kernel call, ns
    pub ns: u64,
    /// job-size distribution
    pub dist: Arc<Mixture>,
    /// policy
    pub spec: PolicySpec,
    /// target load
    pub rho: f64,
    /// hosts
    pub hosts: usize,
    /// jobs per lane
    pub jobs: usize,
    /// per lane: seed, metrics config, digest of the lane's result
    pub lanes: Vec<(u64, MetricsConfig, u64)>,
}

/// Simulation buffers shared by traced iterations, so a warm-up
/// iteration leaves them grown.
pub type SlotPool = Arc<Mutex<Vec<Slot>>>;

/// Shared state of one traced iteration.
pub struct TraceCx {
    /// span sink
    pub tr: Tracer,
    /// the iteration's root span: the tracer's first, so id 0
    pub root: SpanId,
    /// kernel calls, for the collector calibration
    pub calls: Mutex<Vec<KernelCall>>,
    pool: SlotPool,
}

impl TraceCx {
    /// A fresh tracer drawing simulation buffers from `pool`.
    pub fn new(pool: SlotPool) -> Self {
        Self {
            tr: Tracer::default(),
            root: 0,
            calls: Mutex::new(Vec::new()),
            pool,
        }
    }

    fn take_slot(&self) -> Slot {
        self.pool
            .lock()
            .expect("slot pool poisoned")
            .pop()
            .unwrap_or_else(|| Slot {
                ws: SimWorkspace::new(),
                out: SimResult::empty(),
                fused: Vec::new(),
            })
    }

    fn put_slot(&self, s: Slot) {
        self.pool.lock().expect("slot pool poisoned").push(s);
    }

    fn record_call(&self, call: KernelCall) {
        self.calls.lock().expect("call log poisoned").push(call);
    }
}

/// `par_map_indexed` under a `Par` span, each index under a `Task` span.
pub fn par<R, F>(cx: &Arc<TraceCx>, parent: SpanId, n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&TraceCx, SpanId, usize) -> R + Send + Sync + 'static,
{
    let inner = Arc::clone(cx);
    cx.tr
        .span(Layer::Par, Some(parent), n as u64, move |par_id| {
            dses_sim::par_map_indexed(n, workers, move |i| {
                inner
                    .tr
                    .span(Layer::Task, Some(par_id), 1, |task| f(&inner, task, i))
            })
        })
}

/// `Experiment::prepare_run`: build the policy (a `Build` span, which
/// solves any cutoff) and, for 2-host SITA, solve the cutoff again for
/// the class split (a `Cutoff` span).
pub fn prepare<D: Distribution + ?Sized>(
    cx: &TraceCx,
    parent: SpanId,
    p: &Params,
    dist: &D,
    spec: &PolicySpec,
    trace: &Trace,
    demand: Demand,
) -> Result<(BuiltPolicy, MetricsConfig), CutoffError> {
    let lambda = trace.arrival_rate();
    let method = cutoff_method(spec);
    let solves = u64::from(method.is_some() || matches!(spec, PolicySpec::Grouped { .. }));
    let built = cx.tr.span(Layer::Build, Some(parent), solves, |_| {
        spec.build(dist, lambda, p.hosts)
    })?;
    let split = match (method, spec) {
        (Some(m), _) if p.hosts == 2 => cx
            .tr
            .span(Layer::Cutoff, Some(parent), 1, |_| {
                resolve_cutoff(dist, lambda, p.hosts, m)
            })
            .ok()
            .map(|c| c[0]),
        (None, PolicySpec::SitaFixed { cutoffs }) if cutoffs.len() == 1 => Some(cutoffs[0]),
        _ => None,
    };
    Ok((built, p.metrics_config(dist, split, demand)))
}

/// Where a solo kernel call's inputs came from, for the calibration.
pub struct CallSite<'a> {
    /// job-size distribution (unwrapped)
    pub dist: &'a Arc<Mixture>,
    /// policy
    pub spec: &'a PolicySpec,
    /// target load
    pub rho: f64,
    /// experiment knobs
    pub params: &'a Params,
}

/// Run one built policy on `trace` under a kernel span, the way
/// `Experiment::try_run_on_trace` does; `f` reads the result.
pub fn run_solo<R>(
    cx: &TraceCx,
    parent: SpanId,
    site: &CallSite<'_>,
    trace: &Trace,
    built: BuiltPolicy,
    cfg: MetricsConfig,
    f: impl FnOnce(&SimResult) -> R,
) -> R {
    let p = site.params;
    let mut slot = cx.take_slot();
    let Slot { ws, out, .. } = &mut slot;
    let units = trace.len() as u64;
    let (kernel, ns) = match built {
        BuiltPolicy::Dispatch(mut policy) => {
            let kernel = classify(policy.as_ref(), p.hosts);
            let ns = cx.tr.span(Layer::Kernel(kernel), Some(parent), units, |_| {
                let t = Instant::now();
                simulate_dispatch_into(trace, p.hosts, policy.as_mut(), p.seed, cfg, ws, out);
                t.elapsed()
            });
            (kernel, ns)
        }
        BuiltPolicy::Central(discipline) => {
            let engine = EventEngine::new(p.hosts, cfg);
            let ns = cx
                .tr
                .span(Layer::Kernel(Kernel::Event), Some(parent), units, |_| {
                    let t = Instant::now();
                    engine.run_central_queue_into(trace, discipline, ws, out);
                    t.elapsed()
                });
            (Kernel::Event, ns)
        }
    };
    cx.record_call(KernelCall {
        kernel,
        ns: ns.as_nanos() as u64,
        dist: Arc::clone(site.dist),
        spec: site.spec.clone(),
        rho: site.rho,
        hosts: p.hosts,
        jobs: trace.len(),
        lanes: vec![(p.seed, cfg, digest::sim_result(out))],
    });
    let r = f(out);
    cx.put_slot(slot);
    r
}

/// Run fused replication lanes under a `Fused` kernel span, the way
/// `Experiment::replicate_group` does; returns each lane's mean slowdown.
pub fn run_fused(
    cx: &TraceCx,
    parent: SpanId,
    site: &CallSite<'_>,
    traces: &[&Trace],
    mut policies: Vec<Box<dyn Dispatcher>>,
    seeds: &[u64],
    cfgs: &[MetricsConfig],
) -> Vec<f64> {
    let mut slot = cx.take_slot();
    let Slot { ws, fused, .. } = &mut slot;
    let hosts = site.params.hosts;
    let units = traces.iter().map(|t| t.len() as u64).sum();
    let ns = cx
        .tr
        .span(Layer::Kernel(Kernel::Fused), Some(parent), units, |_| {
            let t = Instant::now();
            dses_sim::simulate_dispatch_fused_into(
                traces,
                hosts,
                &mut policies,
                seeds,
                cfgs,
                ws,
                fused,
            );
            t.elapsed()
        });
    cx.record_call(KernelCall {
        kernel: Kernel::Fused,
        ns: ns.as_nanos() as u64,
        dist: Arc::clone(site.dist),
        spec: site.spec.clone(),
        rho: site.rho,
        hosts,
        jobs: traces.first().map_or(0, |t| t.len()),
        lanes: seeds
            .iter()
            .zip(cfgs)
            .zip(fused.iter())
            .map(|((&s, &c), r)| (s, c, digest::sim_result(r)))
            .collect(),
    });
    let means = fused.iter().map(|r| r.slowdown.mean).collect();
    cx.put_slot(slot);
    means
}

/// Collector tiers, as `MetricsConfig::demand` selects them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// `Demand::MEANS` (replications)
    Means,
    /// `MEANS | PER_HOST` (sweep grid points)
    MeansHost,
    /// `Demand::FULL` (single runs)
    Full,
}

fn tier(d: Demand) -> Tier {
    if d == Demand::FULL {
        Tier::Full
    } else if d.includes(Demand::PER_HOST) {
        Tier::MeansHost
    } else {
        Tier::Means
    }
}

/// What replaying every kernel call's records through a fresh
/// `Collector` measured.
#[derive(Debug, Default, Clone)]
pub struct Calibration {
    /// per tier: (records replayed, ns in `record_with_inv`)
    pub record: std::collections::BTreeMap<Tier, (u64, u64)>,
    /// ns in `Collector::reset`
    pub reset_ns: u64,
    /// ns in `Collector::finish_into`
    pub finish_ns: u64,
    /// `finish_into` calls
    pub finishes: u64,
    /// per kernel class: (jobs, kernel ns minus the replayed collector ns)
    pub kernel_self: std::collections::BTreeMap<Kernel, (u64, i64)>,
    /// lanes whose replay did not reproduce the kernel's result bits
    pub mismatches: u64,
}

/// Split each kernel call's time into kernel and collector shares: redo
/// the call with per-job records on, then time `Collector::reset`,
/// `record_with_inv` per job and `finish_into` over those records under
/// the call's own config. The replayed result must match the original
/// bit for bit, or the lane counts as a mismatch. The traced iteration
/// is over by now, so none of this is inside its spans.
pub fn calibrate(calls: &[KernelCall]) -> Calibration {
    let mut cal = Calibration::default();
    let mut ws = SimWorkspace::new();
    let mut harvest = SimResult::empty();
    let mut replay = SimResult::empty();
    let mut collector = Collector::new(1, MetricsConfig::default());
    for call in calls {
        let mut collector_ns = 0u64;
        for &(seed, cfg, want) in &call.lanes {
            let exp = Experiment::new(call.dist.as_ref().clone())
                .hosts(call.hosts)
                .jobs(call.jobs)
                .seed(seed);
            let trace = exp.trace(call.rho);
            let harvest_cfg = MetricsConfig {
                collect_records: true,
                warmup_jobs: 0,
                demand: Demand::FULL,
                ..cfg
            };
            let Ok(built) = call
                .spec
                .build(call.dist.as_ref(), trace.arrival_rate(), call.hosts)
            else {
                cal.mismatches += 1;
                continue;
            };
            match built {
                BuiltPolicy::Dispatch(mut p) => simulate_dispatch_into(
                    &trace,
                    call.hosts,
                    p.as_mut(),
                    seed,
                    harvest_cfg,
                    &mut ws,
                    &mut harvest,
                ),
                BuiltPolicy::Central(d) => EventEngine::new(call.hosts, harvest_cfg)
                    .run_central_queue_into(&trace, d, &mut ws, &mut harvest),
            }
            let records = harvest.records.take().unwrap_or_default();
            let inv = trace.inv_sizes();
            let t0 = Instant::now();
            collector.reset(call.hosts, cfg, trace.len());
            let t1 = Instant::now();
            for r in &records {
                collector.record_with_inv(*r, inv[r.id as usize]);
            }
            let t2 = Instant::now();
            collector.finish_into(&mut replay);
            let t3 = Instant::now();
            if digest::sim_result(&replay) != want {
                cal.mismatches += 1;
            }
            let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
            let e = cal.record.entry(tier(cfg.demand)).or_default();
            e.0 += records.len() as u64;
            e.1 += ns(t1, t2);
            cal.reset_ns += ns(t0, t1);
            cal.finish_ns += ns(t2, t3);
            cal.finishes += 1;
            collector_ns += ns(t0, t3);
        }
        let k = cal.kernel_self.entry(call.kernel).or_default();
        k.0 += (call.jobs * call.lanes.len()) as u64;
        k.1 += call.ns as i64 - collector_ns as i64;
    }
    cal
}
