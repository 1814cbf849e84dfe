//! End-to-end performance report for the simulation and solver hot paths.
//!
//! Eight sections, each with a built-in correctness check (timings are
//! worthless if the optimised path changes answers):
//!
//! 1. **Parallel sweep** — one fixed exhibit-style grid (C90 workload,
//!    2 hosts) sequentially vs on all cores, bit-identical results
//!    required. Written to `BENCH_parallel.json`.
//! 2. **Specialized kernels** — per-policy jobs/sec through the fast
//!    engine's policy-specialized loops vs the same policy forced through
//!    the full-state loop, record-for-record identical schedules
//!    required. Written to `BENCH_kernel.json`.
//! 3. **Cutoff solvers** — SITA-U solves/sec on the raw distribution vs
//!    through the [`TruncatedMoments`] memoizing view, bit-identical
//!    cutoffs required. Also in `BENCH_kernel.json`.
//! 4. **Worker pool** — the persistent pool behind `par_map_indexed` vs
//!    spawning a scoped thread team per batch, bit-identical grids
//!    required. Written to `BENCH_pool.json`.
//! 5. **Workspace reuse** — `simulate_dispatch_into` through one reused
//!    [`SimWorkspace`] vs a freshly allocated workspace per run,
//!    bit-identical results *and* zero steady-state allocations per run
//!    (verified by the counting allocator) required. Also in
//!    `BENCH_pool.json`.
//! 6. **SIMD kernels** — vectorized static/work-left loops vs the scalar
//!    specialized loop, with record-level identity and zero-alloc gates.
//!    Written to `BENCH_simd.json`.
//! 7. **Collector tiers** — the metrics contract's demand tiers: the
//!    full record path vs the MEANS-slimmed path vs the block-batched
//!    merge, with full-demand record identity, MEANS-tier bit identity
//!    on every demanded field, batched ulp bounds, and zero-alloc gates.
//!    Written to `BENCH_metrics.json`.
//! 8. **Lint tiers** — the four-tier `dses-lint` static gate `ci.sh`
//!    runs on every build, timed per tier configuration on the shipped
//!    tree, with a cleanliness gate in both modes. Written to
//!    `BENCH_lint.json`.
//!
//! Run with `cargo run --release -p dses-bench --bin perf_report`
//! (release strongly recommended: the full grid simulates ~1.4M jobs).
//! Pass `--smoke` for a seconds-scale CI run that performs every
//! identity check on tiny inputs and writes no files; the exit code is
//! nonzero if any check fails in either mode.

use dses_bench::harness::{fmt_duration, fmt_rate};
use dses_bench::load_grid;
use dses_core::policies::{LeastWorkLeft, RandomPolicy, RoundRobin, ShortestQueue, SizeInterval};
use dses_core::prelude::*;
use dses_core::report::metrics_mode_label;
use dses_dist::{BoundedPareto, Distribution, Moments, Rng64};
use dses_queueing::cutoff::{
    sita_e_cutoffs, sita_u_fair_cutoff, sita_u_opt_cutoff, sita_u_opt_cutoffs_multi,
    TruncatedMoments,
};
use dses_sim::metrics::JobRecord;
use dses_sim::{
    available_workers, par_map_indexed, par_map_indexed_scoped, simulate_dispatch,
    simulate_dispatch_into, Demand, MetricsConfig, SimResult, SimWorkspace, StateNeeds,
    SystemState,
};
use dses_workload::{Job, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A pass-through allocator that tracks live and peak heap bytes, so the
/// streaming-vs-record comparison can report real allocation numbers
/// without any external profiler.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let now = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
    COUNT.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Reset the peak-tracking watermark to the current live size, run `f`,
/// and return the peak heap growth (bytes above the starting live size)
/// observed while it ran.
fn peak_heap_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (out, peak.saturating_sub(base))
}

/// Number of heap allocations (including reallocations) performed while
/// `f` ran. Meaningful on this thread only — run it with no concurrent
/// work.
fn alloc_count_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = COUNT.load(Ordering::Relaxed);
    let out = f();
    (out, COUNT.load(Ordering::Relaxed) - base)
}

/// Wraps a policy so it claims `StateNeeds::ALL` (the trait default):
/// this is exactly the pre-specialization fast engine, and serves as the
/// "before" side of the kernel comparison.
struct ForceFull(Box<dyn Dispatcher>);

impl Dispatcher for ForceFull {
    fn dispatch(&mut self, job: &Job, state: &SystemState<'_>, rng: &mut Rng64) -> usize {
        self.0.dispatch(job, state, rng)
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

/// Wraps a policy so it keeps its declared [`StateNeeds`] but reports no
/// dispatch kernel (`DispatchKernel::Opaque`, the trait default). The
/// engine then runs the pre-vectorization specialized loop — one virtual
/// `dispatch` call per job — which is the "scalar" side of the SIMD
/// kernel comparison (where [`ForceFull`] is the pre-*specialization*
/// engine).
struct ForceOpaque(Box<dyn Dispatcher>);

impl Dispatcher for ForceOpaque {
    fn dispatch(&mut self, job: &Job, state: &SystemState<'_>, rng: &mut Rng64) -> usize {
        self.0.dispatch(job, state, rng)
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn state_needs(&self) -> StateNeeds {
        self.0.state_needs()
    }
}

/// Fastest of `reps` timed runs, in seconds.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn records_bitwise_equal(a: &[JobRecord], b: &[JobRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.id == y.id
                && x.host == y.host
                && x.arrival.to_bits() == y.arrival.to_bits()
                && x.size.to_bits() == y.size.to_bits()
                && x.start.to_bits() == y.start.to_bits()
                && x.completion.to_bits() == y.completion.to_bits()
        })
}

struct KernelRow {
    policy: &'static str,
    loop_kind: &'static str,
    full_jps: f64,
    specialized_jps: f64,
    identical: bool,
}

/// Section 2: specialized kernels vs the full-state loop, per policy.
fn kernel_bench(smoke: bool) -> Vec<KernelRow> {
    let preset = dses_workload::psc_c90();
    let hosts = 8;
    let jobs = if smoke { 4_000 } else { 200_000 };
    let reps = if smoke { 1 } else { 3 };
    let trace = preset.trace(jobs, 0.7, hosts, 1997);
    let cutoffs = sita_e_cutoffs(&preset.size_dist, hosts).expect("SITA-E cutoffs");
    println!("kernel specialization: {hosts} hosts, {jobs} jobs, C90 at rho=0.7");

    type Builder<'a> = Box<dyn Fn() -> Box<dyn Dispatcher> + 'a>;
    let builders: Vec<(&'static str, &'static str, Builder<'_>)> = vec![
        ("Random", "static", Box::new(|| Box::new(RandomPolicy))),
        (
            "Round-Robin",
            "static",
            Box::new(|| Box::new(RoundRobin::default())),
        ),
        (
            "SITA-E",
            "static",
            Box::new(|| Box::new(SizeInterval::new(cutoffs.clone(), "SITA-E"))),
        ),
        (
            "Least-Work-Left",
            "work-left",
            Box::new(|| Box::new(LeastWorkLeft)),
        ),
        (
            "Shortest-Queue",
            "queue-len",
            Box::new(|| Box::new(ShortestQueue)),
        ),
    ];

    let mut rows = Vec::new();
    for (name, loop_kind, build) in &builders {
        let mut specialized = build();
        let spec_secs = best_of(reps, || {
            simulate_dispatch(&trace, hosts, specialized.as_mut(), 7, MetricsConfig::streaming())
        });
        let mut full = ForceFull(build());
        let full_secs = best_of(reps, || {
            simulate_dispatch(&trace, hosts, &mut full, 7, MetricsConfig::streaming())
        });
        // correctness: the specialized loop must produce the identical
        // schedule, record for record
        let a = simulate_dispatch(
            &trace,
            hosts,
            build().as_mut(),
            7,
            MetricsConfig::full_records(),
        );
        let b = simulate_dispatch(
            &trace,
            hosts,
            &mut ForceFull(build()),
            7,
            MetricsConfig::full_records(),
        );
        let identical =
            records_bitwise_equal(a.records.as_deref().unwrap(), b.records.as_deref().unwrap());
        let row = KernelRow {
            policy: name,
            loop_kind,
            full_jps: jobs as f64 / full_secs,
            specialized_jps: jobs as f64 / spec_secs,
            identical,
        };
        println!(
            "  {:<16} {:<9} full {:>10}/s  specialized {:>10}/s  ({:.2}x, identical: {})",
            row.policy,
            row.loop_kind,
            fmt_rate(row.full_jps),
            fmt_rate(row.specialized_jps),
            row.specialized_jps / row.full_jps,
            row.identical
        );
        rows.push(row);
    }
    rows
}

/// The queue-length kernel's headline row for `BENCH_pool.json`. Its
/// per-arrival expiry check is O(1) — a tournament heap over the FIFO
/// deque fronts — where the full loop scans every host's completion
/// heap, so the win grows with host count: measured at 16 hosts and
/// rho = 0.8 (the 8-host rho = 0.7 row stays in the kernel table for
/// continuity with earlier reports).
fn sq_kernel_bench(smoke: bool) -> KernelRow {
    let preset = dses_workload::psc_c90();
    let hosts = 16;
    let jobs = if smoke { 6_000 } else { 200_000 };
    let reps = if smoke { 2 } else { 5 };
    let trace = preset.trace(jobs, 0.8, hosts, 1997);
    println!("queue-length kernel at scale: {hosts} hosts, {jobs} jobs, C90 at rho=0.8");
    let spec_secs = best_of(reps, || {
        simulate_dispatch(&trace, hosts, &mut ShortestQueue, 7, MetricsConfig::streaming())
    });
    let full_secs = best_of(reps, || {
        let mut full = ForceFull(Box::new(ShortestQueue));
        simulate_dispatch(&trace, hosts, &mut full, 7, MetricsConfig::streaming())
    });
    let a = simulate_dispatch(&trace, hosts, &mut ShortestQueue, 7, MetricsConfig::full_records());
    let b = {
        let mut full = ForceFull(Box::new(ShortestQueue));
        simulate_dispatch(&trace, hosts, &mut full, 7, MetricsConfig::full_records())
    };
    let identical =
        records_bitwise_equal(a.records.as_deref().unwrap(), b.records.as_deref().unwrap());
    let row = KernelRow {
        policy: "Shortest-Queue",
        loop_kind: "queue-len",
        full_jps: jobs as f64 / full_secs,
        specialized_jps: jobs as f64 / spec_secs,
        identical,
    };
    println!(
        "  full-heap {:>10}/s  fifo-deque {:>10}/s  ({:.2}x, identical: {})",
        fmt_rate(row.full_jps),
        fmt_rate(row.specialized_jps),
        row.specialized_jps / row.full_jps,
        row.identical
    );
    row
}

fn sim_results_bitwise_equal(a: &[SimResult], b: &[SimResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.measured == y.measured
                && x.slowdown.mean.to_bits() == y.slowdown.mean.to_bits()
                && x.slowdown.variance.to_bits() == y.slowdown.variance.to_bits()
                && x.response.mean.to_bits() == y.response.mean.to_bits()
                && x.makespan.to_bits() == y.makespan.to_bits()
        })
}

struct PoolBench {
    tasks: usize,
    jobs_per_task: usize,
    workers: usize,
    scoped_secs: f64,
    pooled_secs: f64,
    identical: bool,
}

/// Section 4: the persistent worker pool vs spawning a scoped thread
/// team per batch — the same grid of independent simulation runs through
/// both executors.
fn pool_bench(smoke: bool) -> PoolBench {
    let preset = dses_workload::psc_c90();
    let jobs = if smoke { 1_500 } else { 20_000 };
    let tasks = if smoke { 16 } else { 64 };
    let reps = if smoke { 1 } else { 3 };
    let workers = available_workers();
    let trace = Arc::new(preset.trace(jobs, 0.7, 2, 1997));
    println!("worker pool vs scoped spawn: {tasks} runs x {jobs} jobs, {workers} workers");
    let run_one = |i: usize, trace: &Trace| {
        simulate_dispatch(trace, 2, &mut LeastWorkLeft, i as u64, MetricsConfig::streaming())
    };
    let scoped_secs = best_of(reps, || {
        par_map_indexed_scoped(tasks, workers, |i| run_one(i, &trace))
    });
    let pooled_secs = best_of(reps, || {
        let trace = Arc::clone(&trace);
        par_map_indexed(tasks, workers, move |i| run_one(i, &trace))
    });
    // correctness: sequential loop, scoped team, and pool must agree to
    // the bit (collection is by grid index in both executors)
    let reference: Vec<SimResult> = (0..tasks).map(|i| run_one(i, &trace)).collect();
    let scoped = par_map_indexed_scoped(tasks, workers, |i| run_one(i, &trace));
    let pooled = {
        let trace = Arc::clone(&trace);
        par_map_indexed(tasks, workers, move |i| run_one(i, &trace))
    };
    let identical = sim_results_bitwise_equal(&reference, &scoped)
        && sim_results_bitwise_equal(&reference, &pooled);
    let bench = PoolBench {
        tasks,
        jobs_per_task: jobs,
        workers,
        scoped_secs,
        pooled_secs,
        identical,
    };
    println!(
        "  scoped spawn {:>10}/batch  pool {:>10}/batch  ({:.2}x, identical: {})",
        fmt_duration(std::time::Duration::from_secs_f64(bench.scoped_secs)),
        fmt_duration(std::time::Duration::from_secs_f64(bench.pooled_secs)),
        bench.scoped_secs / bench.pooled_secs,
        bench.identical
    );
    bench
}

struct WorkspaceBench {
    jobs: usize,
    hosts: usize,
    fresh_jps: f64,
    reused_jps: f64,
    steady_allocs_per_run: usize,
    identical: bool,
}

/// Section 5: `simulate_dispatch_into` through one long-lived
/// [`SimWorkspace`] vs a freshly allocated workspace per run, plus the
/// headline claim: a reused workspace performs **zero** heap allocations
/// per run in steady state (streaming metrics), measured by the counting
/// allocator.
fn workspace_bench(smoke: bool) -> WorkspaceBench {
    let preset = dses_workload::psc_c90();
    let jobs = if smoke { 4_000 } else { 200_000 };
    let reps = if smoke { 1 } else { 3 };
    let hosts = 4;
    let trace = preset.trace(jobs, 0.7, hosts, 1997);
    println!("workspace reuse: {hosts} hosts, {jobs} jobs, streaming metrics");

    let fresh_secs = best_of(reps, || {
        let mut ws = SimWorkspace::new();
        let mut out = SimResult::empty();
        simulate_dispatch_into(
            &trace,
            hosts,
            &mut LeastWorkLeft,
            7,
            MetricsConfig::streaming(),
            &mut ws,
            &mut out,
        );
        out.measured
    });

    let mut ws = SimWorkspace::new();
    let mut out = SimResult::empty();
    let mut sq = ShortestQueue;
    // warm the workspace to this shape once (both kernels), then measure
    simulate_dispatch_into(&trace, hosts, &mut LeastWorkLeft, 7, MetricsConfig::streaming(), &mut ws, &mut out);
    simulate_dispatch_into(&trace, hosts, &mut sq, 7, MetricsConfig::streaming(), &mut ws, &mut out);
    let reused_secs = best_of(reps, || {
        simulate_dispatch_into(
            &trace,
            hosts,
            &mut LeastWorkLeft,
            7,
            MetricsConfig::streaming(),
            &mut ws,
            &mut out,
        );
        out.measured
    });

    // the zero-allocation claim: steady-state runs through the warmed
    // workspace — work-left and queue-length kernels alike — must not
    // touch the allocator at all
    let count_runs = if smoke { 2 } else { 5 };
    let (_, allocs) = alloc_count_of(|| {
        for _ in 0..count_runs {
            simulate_dispatch_into(&trace, hosts, &mut LeastWorkLeft, 7, MetricsConfig::streaming(), &mut ws, &mut out);
            simulate_dispatch_into(&trace, hosts, &mut sq, 7, MetricsConfig::streaming(), &mut ws, &mut out);
        }
    });
    let steady_allocs_per_run = allocs / (2 * count_runs);

    // correctness: a run through the well-used workspace must equal a
    // fresh-workspace run record-for-record
    let identical = {
        let mut fresh_ws = SimWorkspace::new();
        let mut fresh_out = SimResult::empty();
        simulate_dispatch_into(&trace, hosts, &mut sq, 7, MetricsConfig::full_records(), &mut fresh_ws, &mut fresh_out);
        simulate_dispatch_into(&trace, hosts, &mut sq, 7, MetricsConfig::full_records(), &mut ws, &mut out);
        records_bitwise_equal(
            fresh_out.records.as_deref().unwrap(),
            out.records.as_deref().unwrap(),
        )
    };

    let bench = WorkspaceBench {
        jobs,
        hosts,
        fresh_jps: jobs as f64 / fresh_secs,
        reused_jps: jobs as f64 / reused_secs,
        steady_allocs_per_run,
        identical,
    };
    println!(
        "  fresh workspace {:>10}/s  reused {:>10}/s  ({:.2}x, identical: {})",
        fmt_rate(bench.fresh_jps),
        fmt_rate(bench.reused_jps),
        bench.reused_jps / bench.fresh_jps,
        bench.identical
    );
    println!(
        "  steady-state allocations per run (counted over {} runs): {}",
        2 * count_runs,
        bench.steady_allocs_per_run
    );
    bench
}

struct SimdRow {
    policy: &'static str,
    hosts: usize,
    scalar_jps: f64,
    vectorized_jps: f64,
    identical: bool,
    vectorized_allocs: usize,
}

/// Section 6: the vectorizable static/work-left kernels against the
/// scalar (opaque-kernel) specialized loop — per policy, across host
/// counts, with record-level identity and the zero-allocation gate. The
/// h = 1024 column doubles as the workspace-sizing audit: a warmed
/// workspace must not touch the allocator even with kilobyte-scale host
/// banks.
fn simd_bench(smoke: bool) -> Vec<SimdRow> {
    let preset = dses_workload::psc_c90();
    let jobs = if smoke { 4_000 } else { 400_000 };
    let id_jobs = if smoke { 4_000 } else { 50_000 };
    let reps = if smoke { 1 } else { 5 };
    let count_runs = if smoke { 2 } else { 5 };
    println!("simd kernels: scalar (opaque) vs vectorized, {jobs} jobs, C90 at rho=0.7");

    let mut rows = Vec::new();
    for &hosts in &[8usize, 64, 1024] {
        let trace = preset.trace(jobs, 0.7, hosts, 1997);
        let id_trace = preset.trace(id_jobs, 0.7, hosts, 1998);
        let cutoffs = sita_e_cutoffs(&preset.size_dist, hosts).expect("SITA-E cutoffs");
        type Builder<'a> = Box<dyn Fn() -> Box<dyn Dispatcher> + 'a>;
        let builders: Vec<(&'static str, Builder<'_>)> = vec![
            ("Random", Box::new(|| Box::new(RandomPolicy))),
            ("Round-Robin", Box::new(|| Box::new(RoundRobin::default()))),
            (
                "SITA-E",
                Box::new(|| Box::new(SizeInterval::new(cutoffs.clone(), "SITA-E"))),
            ),
            ("Least-Work-Left", Box::new(|| Box::new(LeastWorkLeft))),
        ];
        for (name, build) in &builders {
            // --- timings ---
            let mut vect = build();
            let vect_secs = best_of(reps, || {
                simulate_dispatch(&trace, hosts, vect.as_mut(), 7, MetricsConfig::streaming())
            });
            let mut scal = ForceOpaque(build());
            let scal_secs = best_of(reps, || {
                simulate_dispatch(&trace, hosts, &mut scal, 7, MetricsConfig::streaming())
            });

            // --- record-level identity: vectorized vs scalar vs full ---
            let a = simulate_dispatch(
                &id_trace,
                hosts,
                build().as_mut(),
                7,
                MetricsConfig::full_records(),
            );
            let b = simulate_dispatch(
                &id_trace,
                hosts,
                &mut ForceOpaque(build()),
                7,
                MetricsConfig::full_records(),
            );
            let c = simulate_dispatch(
                &id_trace,
                hosts,
                &mut ForceFull(build()),
                7,
                MetricsConfig::full_records(),
            );
            let identical = records_bitwise_equal(
                a.records.as_deref().unwrap(),
                b.records.as_deref().unwrap(),
            ) && records_bitwise_equal(
                a.records.as_deref().unwrap(),
                c.records.as_deref().unwrap(),
            );

            // --- zero-allocation gate on a warmed workspace ---
            let mut vws = SimWorkspace::new();
            let mut vout = SimResult::empty();
            simulate_dispatch_into(
                &trace,
                hosts,
                vect.as_mut(),
                7,
                MetricsConfig::streaming(),
                &mut vws,
                &mut vout,
            );
            let (_, v_allocs) = alloc_count_of(|| {
                for _ in 0..count_runs {
                    simulate_dispatch_into(
                        &trace,
                        hosts,
                        vect.as_mut(),
                        7,
                        MetricsConfig::streaming(),
                        &mut vws,
                        &mut vout,
                    );
                }
            });

            let row = SimdRow {
                policy: name,
                hosts,
                scalar_jps: jobs as f64 / scal_secs,
                vectorized_jps: jobs as f64 / vect_secs,
                identical,
                vectorized_allocs: v_allocs / count_runs,
            };
            println!(
                "  h={:<5} {:<16} scalar {:>10}/s  vector {:>10}/s ({:.2}x, identical: {}, allocs {})",
                row.hosts,
                row.policy,
                fmt_rate(row.scalar_jps),
                fmt_rate(row.vectorized_jps),
                row.vectorized_jps / row.scalar_jps,
                row.identical,
                row.vectorized_allocs,
            );
            rows.push(row);
        }
    }
    rows
}

struct MetricsRow {
    policy: &'static str,
    hosts: usize,
    full_jps: f64,
    means_jps: f64,
    batched_jps: f64,
    identical: bool,
    ulp_ok: bool,
    means_allocs: usize,
    batched_allocs: usize,
}

/// Bitwise equality of the demanded core of a moment stream: count,
/// mean, and variance. Extrema are deliberately excluded — the MEANS
/// tier reports them as deterministic empties.
fn moments_core_equal(a: &Moments, b: &Moments) -> bool {
    a.count == b.count
        && a.mean.to_bits() == b.mean.to_bits()
        && a.variance.to_bits() == b.variance.to_bits()
}

/// `value` within `rel` relative error of the scalar reference `against`
/// (tiny absolute floor so exact-zero streams compare cleanly).
fn within_rel(value: f64, against: f64, rel: f64) -> bool {
    let err = (value - against).abs();
    err <= rel * against.abs().max(1e-300) || err <= 1e-12
}

/// The documented block-merge contract: counts and extrema exact, mean
/// within 1e-12 relative, variance within 1e-9 relative of the scalar
/// Welford stream.
fn moments_block_close(a: &Moments, b: &Moments) -> bool {
    a.count == b.count
        && a.min.to_bits() == b.min.to_bits()
        && a.max.to_bits() == b.max.to_bits()
        && within_rel(a.mean, b.mean, 1e-12)
        && within_rel(a.variance, b.variance, 1e-9)
}

/// Section 7: the collector's demand tiers — the full record path vs the
/// MEANS-slimmed path vs the block-batched merge — per static policy at
/// h = 8 and h = 1024. Three gates: the full-demand tier must stay
/// record-bitwise identical to the full-state loop, the MEANS tier must
/// reproduce every demanded field bit-for-bit (undemanded fields read as
/// deterministic empties), and the batched tier must land inside its
/// documented ulp bounds (exact counts/extrema/per-host/makespan, mean
/// within 1e-12, variance within 1e-9). Both slim tiers must also pass
/// the warmed zero-allocation gate.
fn metrics_bench(smoke: bool) -> Vec<MetricsRow> {
    let preset = dses_workload::psc_c90();
    let jobs = if smoke { 4_000 } else { 400_000 };
    let id_jobs = if smoke { 4_000 } else { 50_000 };
    let reps = if smoke { 1 } else { 5 };
    let count_runs = if smoke { 2 } else { 5 };
    println!(
        "collector tiers: {} vs {} (demand-slimmed) vs block-batched, {jobs} jobs, C90 at rho=0.7",
        metrics_mode_label(MetricsMode::Full),
        metrics_mode_label(MetricsMode::Means),
    );

    let full_cfg = MetricsConfig::streaming();
    let means_cfg = MetricsConfig {
        demand: Demand::MEANS,
        ..full_cfg
    };
    // timing shape: the batched tier is a throughput knob, so it is
    // benchmarked at MEANS demand; the ulp gate below re-runs it at full
    // demand so extrema and per-host exactness are checked too
    let batched_cfg = MetricsConfig {
        demand: Demand::MEANS,
        batched: true,
        ..full_cfg
    };
    let batched_full_cfg = MetricsConfig {
        batched: true,
        ..full_cfg
    };

    let mut rows = Vec::new();
    for &hosts in &[8usize, 1024] {
        let trace = preset.trace(jobs, 0.7, hosts, 2003);
        let id_trace = preset.trace(id_jobs, 0.7, hosts, 2004);
        let cutoffs = sita_e_cutoffs(&preset.size_dist, hosts).expect("SITA-E cutoffs");
        type Builder<'a> = Box<dyn Fn() -> Box<dyn Dispatcher> + 'a>;
        let builders: Vec<(&'static str, Builder<'_>)> = vec![
            ("Random", Box::new(|| Box::new(RandomPolicy))),
            (
                "SITA-E",
                Box::new(|| Box::new(SizeInterval::new(cutoffs.clone(), "SITA-E"))),
            ),
        ];
        for (name, build) in &builders {
            // --- timings: the same policy and trace through the same
            // warmed workspace, only the collector tier varies ---
            let mut ws = SimWorkspace::new();
            let mut out = SimResult::empty();
            let mut pol = build();
            let mut time_cfg = |cfg: MetricsConfig| {
                simulate_dispatch_into(&trace, hosts, pol.as_mut(), 7, cfg, &mut ws, &mut out);
                best_of(reps, || {
                    simulate_dispatch_into(&trace, hosts, pol.as_mut(), 7, cfg, &mut ws, &mut out);
                    out.measured
                })
            };
            let full_secs = time_cfg(full_cfg);
            let means_secs = time_cfg(means_cfg);
            let batched_secs = time_cfg(batched_cfg);

            // --- full-demand identity: record-bitwise vs the full-state
            // loop (the tiering must not perturb the default path) ---
            let recs = MetricsConfig::full_records();
            let mut a = SimResult::empty();
            simulate_dispatch_into(&id_trace, hosts, build().as_mut(), 7, recs, &mut ws, &mut a);
            let b = simulate_dispatch(&id_trace, hosts, &mut ForceFull(build()), 7, recs);
            let mut identical = records_bitwise_equal(
                a.records.as_deref().unwrap(),
                b.records.as_deref().unwrap(),
            );

            // --- MEANS-tier identity: demanded fields bit-for-bit,
            // undemanded fields deterministic empties ---
            let mut f = SimResult::empty();
            simulate_dispatch_into(&id_trace, hosts, build().as_mut(), 7, full_cfg, &mut ws, &mut f);
            let mut m = SimResult::empty();
            simulate_dispatch_into(&id_trace, hosts, build().as_mut(), 7, means_cfg, &mut ws, &mut m);
            identical = identical
                && moments_core_equal(&m.slowdown, &f.slowdown)
                && moments_core_equal(&m.queueing_slowdown, &f.queueing_slowdown)
                && moments_core_equal(&m.response, &f.response)
                && moments_core_equal(&m.waiting, &f.waiting)
                && m.makespan.to_bits() == f.makespan.to_bits()
                && m.measured == f.measured
                && m.per_host.iter().all(|h| h.jobs == 0 && h.work.to_bits() == 0);

            // --- batched ulp gate at full demand: counts, extrema,
            // per-host tallies, and makespan exact; mean/variance inside
            // the documented merge bounds ---
            let mut bt = SimResult::empty();
            simulate_dispatch_into(
                &id_trace,
                hosts,
                build().as_mut(),
                7,
                batched_full_cfg,
                &mut ws,
                &mut bt,
            );
            let ulp_ok = moments_block_close(&bt.slowdown, &f.slowdown)
                && moments_block_close(&bt.queueing_slowdown, &f.queueing_slowdown)
                && moments_block_close(&bt.response, &f.response)
                && moments_block_close(&bt.waiting, &f.waiting)
                && bt.makespan.to_bits() == f.makespan.to_bits()
                && bt.measured == f.measured
                && bt.per_host.len() == f.per_host.len()
                && bt
                    .per_host
                    .iter()
                    .zip(&f.per_host)
                    .all(|(x, y)| x.jobs == y.jobs && x.work.to_bits() == y.work.to_bits());

            // --- zero-allocation gates on the warmed workspace ---
            simulate_dispatch_into(&trace, hosts, pol.as_mut(), 7, means_cfg, &mut ws, &mut out);
            let (_, m_allocs) = alloc_count_of(|| {
                for _ in 0..count_runs {
                    simulate_dispatch_into(
                        &trace, hosts, pol.as_mut(), 7, means_cfg, &mut ws, &mut out,
                    );
                }
            });
            simulate_dispatch_into(&trace, hosts, pol.as_mut(), 7, batched_cfg, &mut ws, &mut out);
            let (_, b_allocs) = alloc_count_of(|| {
                for _ in 0..count_runs {
                    simulate_dispatch_into(
                        &trace, hosts, pol.as_mut(), 7, batched_cfg, &mut ws, &mut out,
                    );
                }
            });

            let row = MetricsRow {
                policy: name,
                hosts,
                full_jps: jobs as f64 / full_secs,
                means_jps: jobs as f64 / means_secs,
                batched_jps: jobs as f64 / batched_secs,
                identical,
                ulp_ok,
                means_allocs: m_allocs / count_runs,
                batched_allocs: b_allocs / count_runs,
            };
            println!(
                "  h={:<5} {:<8} full {:>10}/s  means {:>10}/s ({:.2}x)  batched {:>10}/s ({:.2}x)  identical: {}  ulp_ok: {}  allocs {}+{}",
                row.hosts,
                row.policy,
                fmt_rate(row.full_jps),
                fmt_rate(row.means_jps),
                row.means_jps / row.full_jps,
                fmt_rate(row.batched_jps),
                row.batched_jps / row.full_jps,
                row.identical,
                row.ulp_ok,
                row.means_allocs,
                row.batched_allocs,
            );
            rows.push(row);
        }
    }
    rows
}

struct ScalingCell {
    hosts: usize,
    threads: usize,
    jps: f64,
}

/// The thread-scaling × host-count table: a batch of independent Random
/// runs fanned over the worker pool at increasing worker counts, per
/// host count. Prints a cargo-tally-style table and reports where
/// scaling stops (the smallest worker count within 5 % of the best
/// throughput) — on a single-core container that is honestly 1.
fn thread_scaling_bench(smoke: bool) -> Vec<ScalingCell> {
    let preset = dses_workload::psc_c90();
    let jobs = if smoke { 2_000 } else { 50_000 };
    let tasks = if smoke { 8 } else { 32 };
    let reps = if smoke { 1 } else { 3 };
    let cores = available_workers();
    println!(
        "thread scaling x hosts: {tasks} Random runs x {jobs} jobs ({cores} cores available)"
    );
    println!("  | hosts | threads | jobs/s     | vs 1 thread |");
    println!("  |-------|---------|------------|-------------|");
    let mut cells = Vec::new();
    for &hosts in &[8usize, 64, 1024] {
        let trace = Arc::new(preset.trace(jobs, 0.7, hosts, 1997));
        let mut base_jps = 0.0f64;
        for &threads in &[1usize, 2, 4, 8] {
            let secs = best_of(reps, || {
                let trace = Arc::clone(&trace);
                par_map_indexed(tasks, threads, move |i| {
                    simulate_dispatch(
                        &trace,
                        hosts,
                        &mut RandomPolicy,
                        i as u64,
                        MetricsConfig::streaming(),
                    )
                })
            });
            let jps = (tasks * jobs) as f64 / secs;
            if threads == 1 {
                base_jps = jps;
            }
            println!(
                "  | {:>5} | {:>7} | {:>10} | {:>10.2}x |",
                hosts,
                threads,
                fmt_rate(jps),
                jps / base_jps
            );
            cells.push(ScalingCell { hosts, threads, jps });
        }
    }
    cells
}

/// Smallest worker count within 5 % of the best throughput for `hosts` —
/// past this, adding threads buys nothing.
fn scaling_stop(cells: &[ScalingCell], hosts: usize) -> usize {
    let best = cells
        .iter()
        .filter(|c| c.hosts == hosts)
        .map(|c| c.jps)
        .fold(0.0f64, f64::max);
    cells
        .iter()
        .filter(|c| c.hosts == hosts && c.jps >= 0.95 * best)
        .map(|c| c.threads)
        .min()
        .unwrap_or(1)
}

/// [`BoundedPareto`] with its closed-form moments hidden: only
/// `sample`/`support`/`cdf`/`quantile` are supplied, so every partial and
/// raw moment falls back to the trait's quantile-space quadrature. This
/// is the bench stand-in for any user-supplied distribution that provides
/// a CDF model but no analytic moments — the class the solver cache
/// exists for.
#[derive(Debug)]
struct NumericOnly(BoundedPareto);

impl Distribution for NumericOnly {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.0.sample(rng)
    }
    fn support(&self) -> (f64, f64) {
        self.0.support()
    }
    fn cdf(&self, x: f64) -> f64 {
        self.0.cdf(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.0.quantile(p)
    }
}

struct CutoffDistBench {
    dist: &'static str,
    /// Which side `resolve_cutoff` actually takes for this distribution:
    /// "raw" when moments come in closed form (the memo would only add
    /// hash-and-lock overhead), "memoized" for quadrature-fallback dists.
    production: &'static str,
    opt_raw_solves_per_sec: f64,
    opt_cached_solves_per_sec: f64,
    fair_raw_solves_per_sec: f64,
    fair_cached_solves_per_sec: f64,
    identical: bool,
}

struct CutoffBench {
    dists: Vec<CutoffDistBench>,
    multi_opt_secs: f64,
    identical: bool,
}

fn cutoff_dist_bench<D: Distribution>(
    name: &'static str,
    d: &D,
    reps: usize,
) -> CutoffDistBench {
    let lambda = 1.4 / d.mean(); // rho = 0.7 on 2 hosts
    let opt_raw = best_of(reps, || sita_u_opt_cutoff(d, lambda).unwrap());
    let opt_cached = best_of(reps, || {
        let cached = TruncatedMoments::new(d);
        sita_u_opt_cutoff(&cached, lambda).unwrap()
    });
    let fair_raw = best_of(reps, || sita_u_fair_cutoff(d, lambda).unwrap());
    let fair_cached = best_of(reps, || {
        let cached = TruncatedMoments::new(d);
        sita_u_fair_cutoff(&cached, lambda).unwrap()
    });
    // correctness: the memoized solve must return the identical cutoff
    let identical = sita_u_opt_cutoff(d, lambda).unwrap().to_bits()
        == sita_u_opt_cutoff(&TruncatedMoments::new(d), lambda).unwrap().to_bits()
        && sita_u_fair_cutoff(d, lambda).unwrap().to_bits()
            == sita_u_fair_cutoff(&TruncatedMoments::new(d), lambda).unwrap().to_bits();
    let bench = CutoffDistBench {
        dist: name,
        production: if d.closed_form_moments() { "raw" } else { "memoized" },
        opt_raw_solves_per_sec: 1.0 / opt_raw,
        opt_cached_solves_per_sec: 1.0 / opt_cached,
        fair_raw_solves_per_sec: 1.0 / fair_raw,
        fair_cached_solves_per_sec: 1.0 / fair_cached,
        identical,
    };
    println!(
        "  {:<24} opt:  raw {:>9.1} solves/s, cached {:>9.1} solves/s ({:.2}x, production: {})",
        name,
        bench.opt_raw_solves_per_sec,
        bench.opt_cached_solves_per_sec,
        bench.opt_cached_solves_per_sec / bench.opt_raw_solves_per_sec,
        bench.production
    );
    println!(
        "  {:<24} fair: raw {:>9.1} solves/s, cached {:>9.1} solves/s ({:.2}x, identical: {})",
        name,
        bench.fair_raw_solves_per_sec,
        bench.fair_cached_solves_per_sec,
        bench.fair_cached_solves_per_sec / bench.fair_raw_solves_per_sec,
        bench.identical
    );
    bench
}

/// Section 3: SITA-U cutoff solves on the raw distribution vs through a
/// fresh [`TruncatedMoments`] view per solve (what `resolve_cutoff` does).
///
/// Two distribution classes: the production C90 mixture (closed-form
/// moments — queries are tens of nanoseconds, so the cache is expected to
/// be roughly neutral there) and a numeric-fallback Bounded Pareto whose
/// moments cost hundreds of microseconds each — the case the cache is
/// for.
fn cutoff_bench(smoke: bool) -> CutoffBench {
    println!("cutoff solvers: rho=0.7, raw vs fresh memoized view per solve");
    let mix = dses_workload::psc_c90().size_dist;
    let mut dists = vec![cutoff_dist_bench(
        "c90-mixture",
        &mix,
        if smoke { 2 } else { 12 },
    )];
    let numeric = NumericOnly(BoundedPareto::new(1.0, 1.0e7, 1.1).expect("valid BP"));
    if smoke {
        // a single numeric-fallback solve takes ~0.3 s — too slow for the
        // smoke gate, but the identity check is cheap enough via fair
        let lambda = 1.4 / numeric.mean();
        let identical = sita_u_fair_cutoff(&numeric, lambda).unwrap().to_bits()
            == sita_u_fair_cutoff(&TruncatedMoments::new(&numeric), lambda)
                .unwrap()
                .to_bits();
        println!("  numeric-bounded-pareto   fair identity only (smoke): {identical}");
        dists.push(CutoffDistBench {
            dist: "numeric-bounded-pareto",
            production: "memoized",
            opt_raw_solves_per_sec: f64::NAN,
            opt_cached_solves_per_sec: f64::NAN,
            fair_raw_solves_per_sec: f64::NAN,
            fair_cached_solves_per_sec: f64::NAN,
            identical,
        });
    } else {
        dists.push(cutoff_dist_bench("numeric-bounded-pareto", &numeric, 3));
    }

    // the multi-host solver memoizes internally; report its absolute cost
    let lambda4 = 0.7 * 4.0 / mix.mean();
    let multi_opt_secs = best_of(if smoke { 1 } else { 3 }, || {
        sita_u_opt_cutoffs_multi(&mix, lambda4, 4).unwrap()
    });
    println!("  SITA-U-opt 4 hosts (c90, memoized internally): {multi_opt_secs:.4}s/solve");

    let identical = dists.iter().all(|b| b.identical);
    CutoffBench {
        dists,
        multi_opt_secs,
        identical,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let preset = dses_workload::psc_c90();
    let specs = [
        PolicySpec::Random,
        PolicySpec::LeastWorkLeft,
        PolicySpec::SitaE,
        PolicySpec::SitaUFair,
    ];
    let loads = if smoke {
        vec![0.5, 0.7, 0.9]
    } else {
        load_grid()
    };
    let jobs_per_point = if smoke { 3_000 } else { 40_000 };
    let total_jobs = (jobs_per_point * specs.len() * loads.len()) as u64;
    let workers = available_workers();
    let base = Experiment::new(preset.size_dist.clone())
        .hosts(2)
        .jobs(jobs_per_point)
        .warmup_jobs(if smoke { 100 } else { 1_000 })
        .seed(1997);

    println!(
        "perf_report{}: {} policies x {} loads, {jobs_per_point} jobs/point, {workers} cores",
        if smoke { " (smoke)" } else { "" },
        specs.len(),
        loads.len()
    );

    let start = Instant::now();
    let sequential = base.clone().threads(1).sweep_grid(&specs, &loads);
    let seq_secs = start.elapsed().as_secs_f64();
    println!("  sequential (1 thread):  {:>10}   {:>10}/s", fmt_duration(start.elapsed()), fmt_rate(total_jobs as f64 / seq_secs));

    let start = Instant::now();
    let parallel = base.clone().threads(0).sweep_grid(&specs, &loads);
    let par_secs = start.elapsed().as_secs_f64();
    println!("  parallel  ({workers} threads): {:>10}   {:>10}/s", fmt_duration(start.elapsed()), fmt_rate(total_jobs as f64 / par_secs));

    // Bit-for-bit check, not just a timing: the parallel grid must be the
    // sequential grid.
    let sweep_identical = sequential
        .iter()
        .zip(&parallel)
        .all(|(a, b)| {
            a.policy == b.policy
                && a.points.iter().zip(&b.points).all(|(x, y)| {
                    x.mean_slowdown.to_bits() == y.mean_slowdown.to_bits()
                        && x.var_slowdown.to_bits() == y.var_slowdown.to_bits()
                        && x.measured == y.measured
                })
        });
    let speedup = seq_secs / par_secs;
    println!("  speedup {speedup:.2}x, results identical: {sweep_identical}");

    // Streaming vs full-record metrics: same trace, same policy, measure
    // peak heap growth of the run itself.
    let trace = base.trace(0.7);
    let (_, peak_streaming) = peak_heap_of(|| {
        let mut p = LeastWorkLeft;
        simulate_dispatch(&trace, 2, &mut p, 0, MetricsConfig::streaming())
    });
    let (_, peak_records) = peak_heap_of(|| {
        let mut p = LeastWorkLeft;
        simulate_dispatch(&trace, 2, &mut p, 0, MetricsConfig::full_records())
    });
    println!(
        "  peak heap per run: streaming {} B, full records {} B ({:.1}x)",
        peak_streaming,
        peak_records,
        peak_records as f64 / peak_streaming.max(1) as f64
    );

    let kernels = kernel_bench(smoke);
    let cutoffs = cutoff_bench(smoke);
    let pool = pool_bench(smoke);
    let workspace = workspace_bench(smoke);
    let sq = sq_kernel_bench(smoke);
    let simd = simd_bench(smoke);
    let metrics = metrics_bench(smoke);
    let scaling = if smoke { Vec::new() } else { thread_scaling_bench(smoke) };

    let kernels_identical = kernels.iter().all(|r| r.identical) && sq.identical;
    let simd_identical = simd.iter().all(|r| r.identical);
    let simd_zero_alloc = simd.iter().all(|r| r.vectorized_allocs == 0);
    let metrics_identical = metrics.iter().all(|r| r.identical);
    let metrics_ulp_ok = metrics.iter().all(|r| r.ulp_ok);
    let metrics_zero_alloc = metrics
        .iter()
        .all(|r| r.means_allocs == 0 && r.batched_allocs == 0);
    let zero_alloc = workspace.steady_allocs_per_run == 0;
    if !zero_alloc {
        eprintln!(
            "ERROR: reused workspace performed {} allocations per steady-state run (expected 0)",
            workspace.steady_allocs_per_run
        );
    }
    if !simd_zero_alloc {
        for r in simd.iter().filter(|r| r.vectorized_allocs != 0) {
            eprintln!(
                "ERROR: {} at h={} allocated {} times per steady-state run",
                r.policy, r.hosts, r.vectorized_allocs
            );
        }
    }
    if !metrics_identical {
        for r in metrics.iter().filter(|r| !r.identical) {
            eprintln!(
                "ERROR: collector tier for {} at h={} diverged from the full record path",
                r.policy, r.hosts
            );
        }
    }
    if !metrics_ulp_ok {
        for r in metrics.iter().filter(|r| !r.ulp_ok) {
            eprintln!(
                "ERROR: batched collector for {} at h={} exceeded its ulp bounds",
                r.policy, r.hosts
            );
        }
    }
    if !metrics_zero_alloc {
        for r in metrics
            .iter()
            .filter(|r| r.means_allocs != 0 || r.batched_allocs != 0)
        {
            eprintln!(
                "ERROR: collector tier for {} at h={} allocated in steady state (means {}, batched {})",
                r.policy, r.hosts, r.means_allocs, r.batched_allocs
            );
        }
    }
    // Lint tiers: the four-tier static gate ci.sh runs on every build,
    // timed per configuration on the shipped tree. The per-file tier is
    // always on; each row adds one workspace tier. Runs in smoke mode
    // too, where it doubles as a check that the tree is clean under
    // every tier.
    println!("lint tiers (static gate on the shipped tree):");
    let lint_root = dses_lint::driver::find_workspace_root(std::path::Path::new(env!(
        "CARGO_MANIFEST_DIR"
    )))
    .expect("bench crate sits inside the workspace");
    let lint_cfg = dses_lint::driver::load_config(&lint_root).expect("lint.toml parses");
    let mut lint_rows: Vec<(&str, f64, usize, bool)> = Vec::new();
    let mut lint_clean = true;
    for (label, sem, flow, mir) in [
        ("file", false, false, false),
        ("file+semantic", true, false, false),
        ("file+semantic+dataflow", true, true, false),
        ("file+semantic+dataflow+mirrors", true, true, true),
    ] {
        let start = Instant::now();
        let report = dses_lint::driver::lint_workspace(&lint_root, &lint_cfg, sem, flow, mir)
            .expect("workspace walk");
        let secs = start.elapsed().as_secs_f64();
        let clean = report.clean();
        lint_clean &= clean;
        println!(
            "  {label:<30} {:>10}   {} file(s), {} finding(s), clean: {clean}",
            fmt_duration(start.elapsed()),
            report.files_scanned,
            report.findings.len(),
        );
        lint_rows.push((label, secs, report.files_scanned, clean));
    }

    let bit_identical = sweep_identical
        && kernels_identical
        && cutoffs.identical
        && pool.identical
        && workspace.identical
        && zero_alloc
        && simd_identical
        && simd_zero_alloc
        && metrics_identical
        && metrics_ulp_ok
        && metrics_zero_alloc;

    if !smoke {
        let json = format!(
            "{{\n  \"grid\": {{\"workload\": \"c90\", \"hosts\": 2, \"policies\": {}, \"loads\": {}, \"jobs_per_point\": {jobs_per_point}, \"total_jobs\": {total_jobs}}},\n  \"cores\": {workers},\n  \"sequential_secs\": {seq_secs:.4},\n  \"parallel_secs\": {par_secs:.4},\n  \"speedup\": {speedup:.3},\n  \"jobs_per_sec_sequential\": {:.0},\n  \"jobs_per_sec_parallel\": {:.0},\n  \"bit_identical\": {sweep_identical},\n  \"peak_heap_bytes_streaming\": {peak_streaming},\n  \"peak_heap_bytes_records\": {peak_records}\n}}\n",
            specs.len(),
            loads.len(),
            total_jobs as f64 / seq_secs,
            total_jobs as f64 / par_secs,
        );
        std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
        println!("wrote BENCH_parallel.json");

        let kernel_rows: Vec<String> = kernels
            .iter()
            .map(|r| {
                format!(
                    "    {{\"policy\": \"{}\", \"loop\": \"{}\", \"full_jobs_per_sec\": {:.0}, \"specialized_jobs_per_sec\": {:.0}, \"speedup\": {:.3}, \"bit_identical\": {}}}",
                    r.policy,
                    r.loop_kind,
                    r.full_jps,
                    r.specialized_jps,
                    r.specialized_jps / r.full_jps,
                    r.identical
                )
            })
            .collect();
        let cutoff_rows: Vec<String> = cutoffs
            .dists
            .iter()
            .map(|b| {
                format!(
                    "    {{\"dist\": \"{}\", \"production\": \"{}\", \"opt_raw_solves_per_sec\": {:.2}, \"opt_cached_solves_per_sec\": {:.2}, \"opt_speedup\": {:.3}, \"fair_raw_solves_per_sec\": {:.2}, \"fair_cached_solves_per_sec\": {:.2}, \"fair_speedup\": {:.3}, \"bit_identical\": {}}}",
                    b.dist,
                    b.production,
                    b.opt_raw_solves_per_sec,
                    b.opt_cached_solves_per_sec,
                    b.opt_cached_solves_per_sec / b.opt_raw_solves_per_sec,
                    b.fair_raw_solves_per_sec,
                    b.fair_cached_solves_per_sec,
                    b.fair_cached_solves_per_sec / b.fair_raw_solves_per_sec,
                    b.identical
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"config\": {{\"workload\": \"c90\", \"hosts\": 8, \"rho\": 0.7, \"jobs\": 200000, \"seed\": 1997}},\n  \"kernels\": [\n{}\n  ],\n  \"cutoff\": [\n{}\n  ],\n  \"multi_opt_secs_4_hosts\": {:.4},\n  \"bit_identical\": {bit_identical}\n}}\n",
            kernel_rows.join(",\n"),
            cutoff_rows.join(",\n"),
            cutoffs.multi_opt_secs,
        );
        std::fs::write("BENCH_kernel.json", &json).expect("write BENCH_kernel.json");
        println!("wrote BENCH_kernel.json");

        let json = format!(
            "{{\n  \"pool\": {{\"tasks\": {}, \"jobs_per_task\": {}, \"workers\": {}, \"scoped_spawn_secs\": {:.4}, \"pool_secs\": {:.4}, \"speedup\": {:.3}, \"bit_identical\": {}}},\n  \"workspace\": {{\"jobs\": {}, \"hosts\": {}, \"fresh_jobs_per_sec\": {:.0}, \"reused_jobs_per_sec\": {:.0}, \"speedup\": {:.3}, \"steady_state_allocs_per_run\": {}, \"bit_identical\": {}}},\n  \"queue_len_kernel\": {{\"policy\": \"Shortest-Queue\", \"hosts\": 16, \"rho\": 0.8, \"full_heap_jobs_per_sec\": {:.0}, \"fifo_deque_jobs_per_sec\": {:.0}, \"speedup\": {:.3}, \"bit_identical\": {}}},\n  \"bit_identical\": {bit_identical}\n}}\n",
            pool.tasks,
            pool.jobs_per_task,
            pool.workers,
            pool.scoped_secs,
            pool.pooled_secs,
            pool.scoped_secs / pool.pooled_secs,
            pool.identical,
            workspace.jobs,
            workspace.hosts,
            workspace.fresh_jps,
            workspace.reused_jps,
            workspace.reused_jps / workspace.fresh_jps,
            workspace.steady_allocs_per_run,
            workspace.identical,
            sq.full_jps,
            sq.specialized_jps,
            sq.specialized_jps / sq.full_jps,
            sq.identical,
        );
        std::fs::write("BENCH_pool.json", &json).expect("write BENCH_pool.json");
        println!("wrote BENCH_pool.json");

        let simd_rows: Vec<String> = simd
            .iter()
            .map(|r| {
                format!(
                    "    {{\"policy\": \"{}\", \"hosts\": {}, \"scalar_jobs_per_sec\": {:.0}, \"vectorized_jobs_per_sec\": {:.0}, \"vector_speedup\": {:.3}, \"bit_identical\": {}, \"vectorized_allocs_per_run\": {}}}",
                    r.policy,
                    r.hosts,
                    r.scalar_jps,
                    r.vectorized_jps,
                    r.vectorized_jps / r.scalar_jps,
                    r.identical,
                    r.vectorized_allocs,
                )
            })
            .collect();
        let scaling_rows: Vec<String> = scaling
            .iter()
            .map(|c| {
                format!(
                    "    {{\"hosts\": {}, \"threads\": {}, \"jobs_per_sec\": {:.0}}}",
                    c.hosts, c.threads, c.jps
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"config\": {{\"workload\": \"c90\", \"rho\": 0.7, \"jobs\": 200000, \"seed\": 1997}},\n  \"rows\": [\n{}\n  ],\n  \"thread_scaling\": [\n{}\n  ],\n  \"scaling_stops_at_threads\": {{\"8\": {}, \"64\": {}, \"1024\": {}}},\n  \"bit_identical\": {simd_identical},\n  \"zero_alloc\": {simd_zero_alloc}\n}}\n",
            simd_rows.join(",\n"),
            scaling_rows.join(",\n"),
            scaling_stop(&scaling, 8),
            scaling_stop(&scaling, 64),
            scaling_stop(&scaling, 1024),
        );
        std::fs::write("BENCH_simd.json", &json).expect("write BENCH_simd.json");
        println!("wrote BENCH_simd.json");

        let metric_rows: Vec<String> = metrics
            .iter()
            .map(|r| {
                format!(
                    "    {{\"policy\": \"{}\", \"hosts\": {}, \"full_jobs_per_sec\": {:.0}, \"means_jobs_per_sec\": {:.0}, \"batched_jobs_per_sec\": {:.0}, \"means_speedup\": {:.3}, \"batched_speedup\": {:.3}, \"bit_identical\": {}, \"ulp_ok\": {}, \"means_allocs_per_run\": {}, \"batched_allocs_per_run\": {}}}",
                    r.policy,
                    r.hosts,
                    r.full_jps,
                    r.means_jps,
                    r.batched_jps,
                    r.means_jps / r.full_jps,
                    r.batched_jps / r.full_jps,
                    r.identical,
                    r.ulp_ok,
                    r.means_allocs,
                    r.batched_allocs,
                )
            })
            .collect();
        let means_speedup_h8 = metrics
            .iter()
            .filter(|r| r.hosts == 8)
            .map(|r| r.means_jps / r.full_jps)
            .fold(f64::INFINITY, f64::min);
        let best_tier_h8 = metrics
            .iter()
            .filter(|r| r.hosts == 8)
            .map(|r| r.full_jps.max(r.means_jps).max(r.batched_jps))
            .fold(0.0f64, f64::max);
        let json = format!(
            "{{\n  \"config\": {{\"workload\": \"c90\", \"rho\": 0.7, \"jobs\": {jobs}, \"seed\": 2003, \"tiers\": [\"{}\", \"{}\", \"batched\"], \"block\": 64}},\n  \"rows\": [\n{}\n  ],\n  \"means_speedup_h8\": {:.3},\n  \"means_speedup_ok\": {},\n  \"best_tier_jobs_per_sec_h8\": {:.0},\n  \"bit_identical\": {metrics_identical},\n  \"ulp_ok\": {metrics_ulp_ok},\n  \"zero_alloc\": {metrics_zero_alloc}\n}}\n",
            metrics_mode_label(MetricsMode::Full),
            metrics_mode_label(MetricsMode::Means),
            metric_rows.join(",\n"),
            means_speedup_h8,
            means_speedup_h8 >= 1.3,
            best_tier_h8,
            jobs = 400_000,
        );
        std::fs::write("BENCH_metrics.json", &json).expect("write BENCH_metrics.json");
        println!("wrote BENCH_metrics.json");

        let lint_tier_rows: Vec<String> = lint_rows
            .iter()
            .map(|(label, secs, files, clean)| {
                format!(
                    "    {{\"tiers\": \"{label}\", \"secs\": {secs:.4}, \"files_scanned\": {files}, \"clean\": {clean}}}"
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"configurations\": [\n{}\n  ],\n  \"clean\": {lint_clean}\n}}\n",
            lint_tier_rows.join(",\n")
        );
        std::fs::write("BENCH_lint.json", &json).expect("write BENCH_lint.json");
        println!("wrote BENCH_lint.json");
        if means_speedup_h8 < 1.3 {
            println!("WARNING: MEANS collector tier is below the 1.3x target at h=8");
        }

        // One trajectory summary over every section of this report.
        let best_kernel = kernels
            .iter()
            .max_by(|a, b| {
                (a.specialized_jps / a.full_jps).total_cmp(&(b.specialized_jps / b.full_jps))
            })
            .expect("kernel rows");
        let h8_static = simd
            .iter()
            .filter(|r| r.hosts == 8 && r.policy != "Least-Work-Left")
            .max_by(|a, b| a.vectorized_jps.total_cmp(&b.vectorized_jps))
            .expect("simd rows");
        println!("trajectory summary:");
        println!(
            "  parallel sweep      {speedup:.2}x on {workers} cores (bit-identical {sweep_identical})"
        );
        println!(
            "  kernel dispatch     best {:.2}x ({}) over the full-state loop",
            best_kernel.specialized_jps / best_kernel.full_jps,
            best_kernel.policy
        );
        println!(
            "  pool vs spawn       {:.2}x; workspace reuse {:.2}x, {} steady allocs/run",
            pool.scoped_secs / pool.pooled_secs,
            workspace.reused_jps / workspace.fresh_jps,
            workspace.steady_allocs_per_run
        );
        println!(
            "  simd static (h=8)   {} scalar {}/s -> vector {}/s ({:.2}x)",
            h8_static.policy,
            fmt_rate(h8_static.scalar_jps),
            fmt_rate(h8_static.vectorized_jps),
            h8_static.vectorized_jps / h8_static.scalar_jps,
        );
        let met_h8 = metrics
            .iter()
            .filter(|r| r.hosts == 8)
            .max_by(|a, b| (a.means_jps / a.full_jps).total_cmp(&(b.means_jps / b.full_jps)))
            .expect("metrics rows");
        println!(
            "  collector tiers     {} full {}/s -> means {}/s ({:.2}x) -> batched {}/s ({:.2}x) at h=8",
            met_h8.policy,
            fmt_rate(met_h8.full_jps),
            fmt_rate(met_h8.means_jps),
            met_h8.means_jps / met_h8.full_jps,
            fmt_rate(met_h8.batched_jps),
            met_h8.batched_jps / met_h8.full_jps,
        );
        println!(
            "  scaling stops at    h=8: {} threads, h=64: {}, h=1024: {}",
            scaling_stop(&scaling, 8),
            scaling_stop(&scaling, 64),
            scaling_stop(&scaling, 1024),
        );
    }

    if !bit_identical {
        eprintln!("ERROR: an optimised path diverged from its reference");
        std::process::exit(1);
    }
    if !lint_clean {
        eprintln!("ERROR: the shipped tree is not lint-clean under all four tiers");
        std::process::exit(1);
    }
}
