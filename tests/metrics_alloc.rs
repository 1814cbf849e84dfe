//! Zero-allocation gates for every kernel class, the collector's finish
//! path, every demand tier and the full collector's tail (fairness
//! bins, percentiles, SLO, class split).
//!
//! `Collector::finish_into` hands its per-host tallies and record
//! buffer to the output by pointer swap, so a warmed workspace run —
//! including the widest host count, whose per-host vector is the
//! largest hand-off — must perform **zero** heap allocations in steady
//! state. The same holds for each kernel's own state: the static
//! kernels' Lindley scalars, the work-left kernel's chunked argmin, and
//! the generic loop's views, FIFO deques and expiry heap all live in
//! the grow-once workspace. The percentile pipe's two chunks and pool
//! task, which a long percentile run hands its P² pushes through, are
//! built once and reused forever (the count is process-wide, so the pool
//! helper's allocations enter it too).
//!
//! This gate lives in its own test binary: the default harness runs a
//! binary's tests on multiple threads, and any concurrent test would
//! pollute the global allocation counter.

use dses_core::cutoffs::CutoffMethod;
use dses_core::spec::{BuiltPolicy, PolicySpec};
use dses_dist::{Distribution, Rng64};
use dses_sim::{
    simulate_dispatch_into, Demand, Dispatcher, MetricsConfig, SimResult, SimWorkspace, StateNeeds,
    SystemState,
};
use dses_workload::{Job, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pass-through allocator counting every allocation and reallocation.
struct CountingAlloc;

static COUNT: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_count_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = COUNT.load(Ordering::Relaxed);
    let out = f();
    (out, COUNT.load(Ordering::Relaxed) - base)
}

/// Picks the host with the fewest in-system jobs, breaking ties by least
/// work left and then by lowest index: it reads both view fields, so it
/// runs the generic loop's `ALL` instantiation.
struct FewestThenLeastWork;

impl Dispatcher for FewestThenLeastWork {
    fn dispatch(&mut self, _: &Job, state: &SystemState<'_>, _: &mut Rng64) -> usize {
        state
            .hosts
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.queue_len
                    .cmp(&b.queue_len)
                    .then(a.work_left.total_cmp(&b.work_left))
            })
            .expect("at least one host")
            .0
    }
    fn state_needs(&self) -> StateNeeds {
        StateNeeds::ALL
    }
}

/// Least-Work-Left without its closed-form kernel: it declares only
/// `WORK_LEFT`, so it runs the generic loop's `WORK_LEFT` instantiation.
struct OpaqueLeastWork;

impl Dispatcher for OpaqueLeastWork {
    fn dispatch(&mut self, _: &Job, state: &SystemState<'_>, _: &mut Rng64) -> usize {
        state.least_work()
    }
    fn state_needs(&self) -> StateNeeds {
        StateNeeds::WORK_LEFT
    }
}

fn build(spec: &PolicySpec, lambda: f64, hosts: usize) -> Box<dyn Dispatcher> {
    let d = dses_workload::psc_c90().size_dist;
    match spec.build(&d, lambda, hosts).unwrap() {
        BuiltPolicy::Dispatch(p) => p,
        BuiltPolicy::Central(_) => unreachable!("roster is dispatch-only"),
    }
}

#[test]
fn steady_state_collector_tiers_do_not_allocate() {
    let mut ws = SimWorkspace::new();
    let mut out = SimResult::empty();

    // The full collector's tail as `Experiment` configures it for C90:
    // 12 fairness bins over its size range, the P² percentiles, an SLO
    // and a class split. Its histogram (edges and bins) and estimators
    // are built on the warm-up run and reused by every later run.
    let c90 = dses_workload::psc_c90().size_dist;
    let (lo, hi) = c90.support();
    let tail = MetricsConfig {
        fairness_bins: 12,
        fairness_range: (lo.max(1e-3), hi * 1.01),
        slowdown_percentiles: true,
        slo_slowdown: Some(10.0),
        split_cutoff: Some(c90.mean()),
        ..MetricsConfig::streaming()
    };
    // Every demand tier, including the h=1024 per-host hand-off that
    // finish_into must complete by swap rather than clone.
    let tiers = [
        ("full+tail", tail),
        ("full", MetricsConfig::streaming()),
        (
            "means",
            MetricsConfig {
                demand: Demand::MEANS,
                ..MetricsConfig::streaming()
            },
        ),
        (
            "means+hosts",
            MetricsConfig {
                demand: Demand::MEANS | Demand::PER_HOST,
                ..MetricsConfig::streaming()
            },
        ),
    ];
    // One policy per kernel class: the three closed-form static kernels
    // and the work-left kernel over all hosts (LWL) and over one group
    // (the grouped SITA-U-fair/LWL hybrid), then the generic loop's
    // instantiations — WORK_LEFT (LWL without its kernel), QUEUE_LEN
    // (Shortest-Queue) and ALL (a policy that reads both view fields).
    let static_kernels = [
        PolicySpec::Random,
        PolicySpec::RoundRobin,
        PolicySpec::SitaE,
    ];
    let host_scans = [
        PolicySpec::LeastWorkLeft,
        PolicySpec::Grouped {
            method: CutoffMethod::Fair,
        },
        PolicySpec::ShortestQueue,
    ];
    for &hosts in &[8usize, 64, 1024] {
        let trace = dses_workload::psc_c90().trace(12_000, 0.7, hosts, 23);
        // the policies that scan the hosts cost O(h) per job; a shorter
        // trace keeps their wide cases quick in a debug build
        let short = trace.truncate(2_000);
        let scan_trace = if hosts >= 64 { &short } else { &trace };
        let lambda = trace.arrival_rate();
        let mut runs: Vec<(String, Box<dyn Dispatcher>, &Trace)> = Vec::new();
        for spec in &static_kernels {
            runs.push((spec.name(), build(spec, lambda, hosts), &trace));
        }
        for spec in &host_scans {
            runs.push((spec.name(), build(spec, lambda, hosts), scan_trace));
        }
        runs.push((
            "opaque-least-work".to_string(),
            Box::new(OpaqueLeastWork),
            scan_trace,
        ));
        runs.push((
            "fewest-then-least-work".to_string(),
            Box::new(FewestThenLeastWork),
            scan_trace,
        ));
        for (name, mut policy, trace) in runs {
            for (tier, cfg) in &tiers {
                let what = format!("{name}: {tier} tier at h={hosts}");
                assert_steady(
                    &what,
                    trace,
                    hosts,
                    policy.as_mut(),
                    *cfg,
                    &mut ws,
                    &mut out,
                );
            }
        }
    }
    // The percentile pipe: a full+tail run of 40 000 jobs hands two whole
    // 16 384-slowdown chunks to a pool helper and ends with part of a
    // third, through the static kernel and the work-left kernel.
    let piped = dses_workload::psc_c90().trace(40_000, 0.7, 8, 23);
    for spec in [PolicySpec::SitaE, PolicySpec::LeastWorkLeft] {
        let mut policy = build(&spec, piped.arrival_rate(), 8);
        let what = format!("{}: piped full+tail tier at h=8", spec.name());
        assert_steady(&what, &piped, 8, policy.as_mut(), tail, &mut ws, &mut out);
    }
}

/// A warm-up run grows every buffer (the fairness histogram, the pipe's
/// chunks) to this shape; four more runs must then allocate nothing.
fn assert_steady(
    what: &str,
    trace: &Trace,
    hosts: usize,
    policy: &mut dyn Dispatcher,
    cfg: MetricsConfig,
    ws: &mut SimWorkspace,
    out: &mut SimResult,
) {
    simulate_dispatch_into(trace, hosts, policy, 1, cfg, ws, out);
    let (_, allocs) = alloc_count_of(|| {
        for seed in 2..6 {
            simulate_dispatch_into(trace, hosts, policy, seed, cfg, ws, out);
        }
    });
    assert_eq!(allocs, 0, "{what}: allocated in steady state");
}
