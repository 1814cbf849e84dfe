//! The fast exact simulator for dispatch-on-arrival policies.
//!
//! With FCFS run-to-completion hosts and immediate dispatch, a host is a
//! G/G/1 queue whose waiting times obey the Lindley recursion: if
//! `free_at` is the time the host drains everything already assigned,
//! then a job arriving at `t` starts at `max(t, free_at)` and the new
//! `free_at` is `start + size`. This gives an *exact* simulation — not an
//! approximation.
//!
//! The engine is **specialized to the policy**: a dispatcher declares
//! which [`HostView`] fields it reads via
//! [`Dispatcher::state_needs`](crate::state::StateNeeds), and the engine
//! picks one of four hot loops:
//!
//! * **static** (`NOTHING`, e.g. Random/Round-Robin/SITA) — O(1) per
//!   job: the Lindley scalar per host is all the state there is, and the
//!   views handed to the policy are never refreshed (it cannot tell);
//! * **work-left** (`WORK_LEFT`, e.g. Least-Work-Left) — O(h) per job,
//!   heap-free: `work_left = max(free_at − now, 0)` falls out of the
//!   Lindley scalar;
//! * **queue-length** (`QUEUE_LEN` only, e.g. Shortest-Queue) — an FCFS
//!   run-to-completion host completes jobs in assignment order
//!   (`completion = max(now, free_at) + service ≥ free_at`, the previous
//!   completion), so its in-system completion times form a **monotone
//!   FIFO deque** — push new completions at the back, pop expired ones
//!   off the front. Queue lengths update incrementally, and a tournament
//!   heap over the deque fronts (≤ one entry per non-empty host) makes
//!   the per-arrival expiry check O(1) instead of an O(h) scan;
//! * **full** (`ALL`, the default for policies that declare nothing) —
//!   per-host completion min-heaps maintain counts *and* work; this is
//!   also the reference loop the specialized ones are tested against.
//!
//! All loops run the identical Lindley arithmetic on the same RNG
//! stream, so the schedules are bit-for-bit the same regardless of which
//! loop runs — a policy that does not read a field cannot observe
//! whether it was computed. The loops stream the trace through its
//! structure-of-arrays views ([`Trace::arrivals`], [`Trace::sizes`]).
//!
//! All per-run state lives in a [`SimWorkspace`]: the `*_into` entry
//! points borrow one explicitly (allocation-free in steady state), and
//! the plain entry points reuse a thread-local workspace transparently.
//!
//! One run is one serial pass over the trace. Replications are
//! independent solo runs: `Experiment::replicate` in `dses-core` gives
//! each its own worker-pool task, and [`simulate_dispatch_fused_into`]
//! runs lanes back to back for callers that hold them as slices.
//! Interleaving lanes or per-host chains inside one pass does not pay
//! end to end (DESIGN.md §12 has the measurements).
//!
//! The event-driven engine in [`crate::event`] computes the identical
//! schedule the slow way; `tests` in both modules and the integration
//! suite assert exact agreement.

use std::cmp::Reverse;

use crate::metrics::{Collector, JobRecord, MetricsConfig, SimResult};
use crate::state::{DispatchKernel, Dispatcher, HostView, StateNeeds, SystemState};
use crate::workspace::{with_thread_workspace, SimWorkspace};
use dses_dist::Rng64;
use dses_workload::Trace;

/// An `f64` wrapper ordered by `total_cmp`, for use in heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// How a host turns a job's size into occupancy time. The two
/// implementations let the common homogeneous case monomorphize to a
/// plain `size` copy — no `Vec<f64>` of speeds allocated, no per-job
/// divide — while heterogeneous hosts pay the divide they need.
/// (`size / 1.0 == size` exactly in IEEE arithmetic, so the two paths
/// agree bit-for-bit on unit speeds.)
trait SpeedModel {
    fn hosts(&self) -> usize;
    fn service(&self, host: usize, size: f64) -> f64;
}

/// `hosts` identical unit-speed hosts (the paper's model).
struct UnitSpeeds(usize);

impl SpeedModel for UnitSpeeds {
    #[inline]
    fn hosts(&self) -> usize {
        self.0
    }
    // dses-lint: divides(0)
    #[inline]
    fn service(&self, _host: usize, size: f64) -> f64 {
        size
    }
}

/// Per-host relative service rates.
struct PerHostSpeeds<'a>(&'a [f64]);

impl SpeedModel for PerHostSpeeds<'_> {
    #[inline]
    fn hosts(&self) -> usize {
        self.0.len()
    }
    // dses-lint: divides(1)
    #[inline]
    fn service(&self, host: usize, size: f64) -> f64 {
        size / self.0[host]
    }
}

/// Number of parallel accumulator lanes in [`argmin_work_left`]: eight
/// f64s are one AVX-512 register or two AVX2 registers. The chunked loop
/// is plain safe code shaped so the autovectorizer lowers it to
/// `vsubpd`/`vmaxpd`/`vcmppd`/`vblendvpd` — no intrinsics, no `unsafe`.
const ARGMIN_LANES: usize = 8;

/// Leftmost argmin of the clamped backlog `max(free_at[h] − now, 0)` —
/// the branchless, vectorizable replacement for
/// [`SystemState::least_work`] over views refreshed from the Lindley
/// scalars.
///
/// Tie-break proof sketch (full version: DESIGN.md §11). The clamped
/// values are finite, non-negative, and never `−0.0` (`free_at` holds
/// `+0.0` or positive sums; equal finite operands subtract to `+0.0`,
/// and the clamp maps every non-positive input to `+0.0`), so
/// `total_cmp` coincides with `<` and the scalar reference — `min_by`
/// keeping the first minimum — is exactly "leftmost strict minimum".
/// The chunked scan keeps one running `(value, index)` pair per residue
/// class mod [`ARGMIN_LANES`], updated with strict `<` so each lane
/// holds the *first* minimum of its class; the global leftmost minimum
/// is the first minimum of its own class, hence among the eight
/// candidates, and the `(min value, then min index)` horizontal
/// reduction recovers exactly it. The scalar tail covers indices after
/// the chunked prefix, where strict `<` alone preserves the tie-break.
// dses-lint: divides(0)
// dses-lint: deny(alloc)
#[must_use]
pub(crate) fn argmin_work_left(free_at: &[f64], now: f64) -> usize {
    let n = free_at.len();
    debug_assert!(n > 0, "argmin over zero hosts");
    let chunks = if n >= 2 * ARGMIN_LANES { n / ARGMIN_LANES } else { 0 };
    let mut best_v = f64::INFINITY;
    let mut best_i = 0usize;
    // The chunked scan pays a fixed cost (lane init + an 8-way
    // horizontal reduce) that only amortizes once several chunks flow
    // through it; below that the plain strict-`<` loop — the proof's
    // "tail" case covering the whole slice — is faster and trivially
    // leftmost-tie-wins.
    if chunks > 0 {
        // Indices ride in f64 lanes too (exact below 2^53), so one
        // compare mask drives two same-width selects.
        let mut lane_v = [f64::INFINITY; ARGMIN_LANES];
        let mut lane_i = [0.0f64; ARGMIN_LANES];
        for (c, block) in free_at.chunks_exact(ARGMIN_LANES).enumerate() {
            let base = (c * ARGMIN_LANES) as f64;
            for j in 0..ARGMIN_LANES {
                let v = (block[j] - now).max(0.0);
                // strict `<`: ties never displace the earlier chunk's entry
                let keep = v < lane_v[j];
                lane_v[j] = if keep { v } else { lane_v[j] };
                lane_i[j] = if keep { base + j as f64 } else { lane_i[j] };
            }
        }
        // (min value, then min index) select-based reduce: lane j holds
        // the first minimum of residue class j, so the global leftmost
        // minimum is the lowest index among the value-tied lanes.
        let mut red_i = 0.0f64;
        for j in 0..ARGMIN_LANES {
            let better =
                lane_v[j] < best_v || (lane_v[j] == best_v && lane_i[j] < red_i);
            best_v = if better { lane_v[j] } else { best_v };
            red_i = if better { lane_i[j] } else { red_i };
        }
        best_i = red_i as usize;
    }
    for (off, &f) in free_at[chunks * ARGMIN_LANES..].iter().enumerate() {
        let v = (f - now).max(0.0);
        if v < best_v {
            best_v = v;
            best_i = chunks * ARGMIN_LANES + off;
        }
    }
    best_i
}

/// Cutoff count up to which the linear prefix-count SITA lookup wins:
/// `h − 1` independent compares vectorize flat and beat a ⌈log₂ h⌉
/// chain of dependent selects while the cutoff array still fits in a
/// couple of cache lines.
const SITA_LINEAR_MAX: usize = 16;

/// Host index for `size` under SITA cutoffs `cuts` (strictly increasing,
/// `cuts.len() == hosts − 1`): exactly
/// `cuts.partition_point(|&c| size > c)`, the policy's own arithmetic.
///
/// Narrow arrays keep the branchless prefix count — on a strictly
/// increasing sequence `{c : size > c}` is a prefix, and the partition
/// point is its length; `h − 1` independent compares vectorize flat and
/// walking them beats any search while the array fits in two cache
/// lines. Wide arrays binary-search. A branchless fixed-depth
/// (⌈log₂ h⌉ conditional moves) variant was built and measured first:
/// it beat the linear walk 3× at h = 1024 but lost 1.65× to the branchy
/// `partition_point` on heavy-tailed workloads — skewed routing sends
/// most jobs down the same few comparison paths, so the predictor eats
/// the branches while the cmov chain always pays its full serial
/// ⌈log₂ h⌉ × load-to-select latency. Measurement wins: wide goes to
/// `partition_point`. Ties land left either way: `size == cuts[k]`
/// fails `size > cuts[k]` (pinned in the tie-dense unit test below and
/// in `tests/kernels.rs`).
// dses-lint: divides(0)
// dses-lint: deny(alloc)
#[inline]
#[must_use]
pub(crate) fn sita_pick(cuts: &[f64], size: f64) -> usize {
    if cuts.len() <= SITA_LINEAR_MAX {
        return cuts.iter().map(|&c| usize::from(size > c)).sum();
    }
    cuts.partition_point(|&c| size > c)
}

/// Simulate `trace` on `hosts` identical FCFS hosts under `policy`.
///
/// `seed` drives any randomness inside the policy (e.g. Random's coin
/// flips); the engine itself is deterministic. Per-run buffers come from
/// this thread's reusable [`SimWorkspace`]; use
/// [`simulate_dispatch_into`] to manage the workspace (and the result's
/// buffers) explicitly.
///
/// ```
/// use dses_sim::{simulate_dispatch, Dispatcher, MetricsConfig, SystemState};
/// use dses_workload::{Job, Trace};
/// use dses_dist::Rng64;
///
/// struct Lwl;
/// impl Dispatcher for Lwl {
///     fn dispatch(&mut self, _: &Job, s: &SystemState<'_>, _: &mut Rng64) -> usize {
///         s.least_work()
///     }
/// }
///
/// let trace = Trace::new(vec![
///     Job::new(0, 0.0, 5.0),
///     Job::new(1, 1.0, 1.0),
/// ]);
/// let result = simulate_dispatch(&trace, 2, &mut Lwl, 0, MetricsConfig::default());
/// assert_eq!(result.measured, 2);
/// // the second job found the idle host: no waiting at all
/// assert!((result.slowdown.mean - 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn simulate_dispatch<P: Dispatcher + ?Sized>(
    trace: &Trace,
    hosts: usize,
    policy: &mut P,
    seed: u64,
    cfg: MetricsConfig,
) -> SimResult {
    with_thread_workspace(|ws| {
        let mut out = SimResult::empty();
        run_specialized(trace, &UnitSpeeds(hosts), policy, seed, cfg, ws, &mut out);
        out
    })
}

/// [`simulate_dispatch`] writing through caller-owned buffers: all
/// per-run state comes from `ws`, the result lands in `out` (every field
/// overwritten). After one warm-up run of the same shape, a call
/// performs **zero heap allocations** — the loop body of an
/// allocation-free sweep.
// dses-lint: deny(alloc)
pub fn simulate_dispatch_into<P: Dispatcher + ?Sized>(
    trace: &Trace,
    hosts: usize,
    policy: &mut P,
    seed: u64,
    cfg: MetricsConfig,
    ws: &mut SimWorkspace,
    out: &mut SimResult,
) {
    run_specialized(trace, &UnitSpeeds(hosts), policy, seed, cfg, ws, out);
}

/// Simulate `trace` on **heterogeneous** FCFS hosts: `speeds[i]` is host
/// `i`'s service rate relative to the reference (a job of size `x` runs
/// for `x / speeds[i]` there). Slowdown remains `response / size` — size
/// is measured in reference-host seconds, so a job served faster than
/// the reference can record a slowdown below 1.
///
/// An extension beyond the paper, whose architectural model fixes
/// identical hosts (§1.1); the `ablation_hetero` exhibit explores how
/// SITA's cutoffs interact with speed asymmetry.
#[must_use]
pub fn simulate_dispatch_speeds<P: Dispatcher + ?Sized>(
    trace: &Trace,
    speeds: &[f64],
    policy: &mut P,
    seed: u64,
    cfg: MetricsConfig,
) -> SimResult {
    with_thread_workspace(|ws| {
        let mut out = SimResult::empty();
        simulate_dispatch_speeds_into(trace, speeds, policy, seed, cfg, ws, &mut out);
        out
    })
}

/// [`simulate_dispatch_speeds`] through caller-owned buffers; see
/// [`simulate_dispatch_into`].
// dses-lint: deny(alloc)
pub fn simulate_dispatch_speeds_into<P: Dispatcher + ?Sized>(
    trace: &Trace,
    speeds: &[f64],
    policy: &mut P,
    seed: u64,
    cfg: MetricsConfig,
    ws: &mut SimWorkspace,
    out: &mut SimResult,
) {
    assert!(
        speeds.iter().all(|&s| s > 0.0 && s.is_finite()),
        "host speeds must be positive and finite"
    );
    run_specialized(trace, &PerHostSpeeds(speeds), policy, seed, cfg, ws, out);
}

/// Dispatch to the hot loop matching the policy's declared state needs.
///
/// Every loop performs the same sequence of observable operations — one
/// `policy.dispatch` per job on the shared RNG stream, then the Lindley
/// update `start = max(now, free_at)`, `free_at = start + service` —
/// so the choice of loop never changes a schedule, only how much host
/// bookkeeping is maintained between dispatches.
// dses-lint: divides(1)
// dses-lint: deny(alloc)
fn run_specialized<P: Dispatcher + ?Sized, S: SpeedModel>(
    trace: &Trace,
    speeds: &S,
    policy: &mut P,
    seed: u64,
    cfg: MetricsConfig,
    ws: &mut SimWorkspace,
    out: &mut SimResult,
) {
    let hosts = speeds.hosts();
    assert!(hosts > 0, "need at least one host");
    policy.reset();
    let needs = policy.state_needs();
    let mut rng = Rng64::seed_from(seed).stream(0xD15);
    ws.reset_fast(hosts, trace.backlog_hint(hosts), needs);
    ws.collector.reset(hosts, cfg, trace.len());

    // Inline a declared closed-form kernel: same decisions, same RNG
    // stream, no per-job virtual call. The SITA cutoffs are copied into
    // workspace scratch so the borrow on the policy ends here.
    enum Selected {
        Random,
        RoundRobin,
        Sita,
        WorkLeft,
        Generic,
    }
    let selected = match (policy.dispatch_kernel(), needs) {
        (DispatchKernel::UniformRandom, n) if n == StateNeeds::NOTHING => Selected::Random,
        (DispatchKernel::RoundRobin, n) if n == StateNeeds::NOTHING => Selected::RoundRobin,
        (DispatchKernel::SizeInterval(cuts), n)
            if n == StateNeeds::NOTHING && cuts.len() < hosts =>
        {
            ws.kernel_cutoffs.clear();
            ws.kernel_cutoffs.extend_from_slice(cuts);
            Selected::Sita
        }
        (DispatchKernel::LeastWorkLeft, n) if n == StateNeeds::WORK_LEFT => Selected::WorkLeft,
        _ => Selected::Generic,
    };

    let jobs = trace.jobs();
    let arrivals = trace.arrivals();
    let sizes = trace.sizes();
    let inv_sizes = trace.inv_sizes();
    let SimWorkspace {
        free_at,
        views,
        fifos,
        expiry,
        heaps,
        collector,
        kernel_cutoffs,
        ..
    } = ws;

    match selected {
        Selected::Random => {
            // dses-lint: allow(divide-budget) -- the kernel arms are mutually exclusive per run and each returns; every path performs at most one service divide per job
            run_static_kernel(
                trace,
                speeds,
                |_, rng| rng.below(hosts as u64) as usize,
                &mut rng,
                free_at,
                collector,
            );
            collector.finish_into(out);
            return;
        }
        Selected::RoundRobin => {
            // engine-owned cursor: `next % hosts` under the invariant
            // `next < hosts`, exactly the policy's arithmetic
            let mut next = 0usize;
            run_static_kernel(
                trace,
                speeds,
                |_, _| {
                    let t = next;
                    next = if t + 1 == hosts { 0 } else { t + 1 };
                    t
                },
                &mut rng,
                free_at,
                collector,
            );
            collector.finish_into(out);
            return;
        }
        Selected::Sita => {
            // `sita_pick` ≡ `partition_point(|c| size > c)` on strictly
            // increasing cutoffs ({c : size > c} is a prefix)
            let cuts = kernel_cutoffs.as_slice();
            run_static_kernel(
                trace,
                speeds,
                |size, _| sita_pick(cuts, size),
                &mut rng,
                free_at,
                collector,
            );
            collector.finish_into(out);
            return;
        }
        Selected::WorkLeft => {
            // dses-lint: allow(divide-budget) -- the kernel arms are mutually exclusive per run and each returns; every path performs at most one service divide per job
            run_work_left_kernel(trace, speeds, free_at, collector);
            collector.finish_into(out);
            return;
        }
        Selected::Generic => {}
    }

    if needs.needs_queue_len() && needs.needs_work_left() {
        // Full loop: per-host completion heaps maintain queue lengths
        // alongside the Lindley scalars. Also the reference loop the
        // specialized ones are validated against.
        for i in 0..jobs.len() {
            let now = arrivals[i];
            for h in 0..hosts {
                let heap = &mut heaps[h];
                while let Some(&Reverse(OrdF64(c))) = heap.peek() {
                    if c <= now {
                        heap.pop();
                    } else {
                        break;
                    }
                }
                views[h] = HostView {
                    queue_len: heap.len(),
                    work_left: (free_at[h] - now).max(0.0),
                };
            }
            let state = SystemState { now, hosts: views.as_slice() };
            let target = policy.dispatch(&jobs[i], &state, &mut rng);
            assert!(
                target < hosts,
                "policy {} returned host {target} of {hosts}",
                // dses-lint: allow(no-alloc-transitive) -- name() formats only on the assert failure path
                policy.name()
            );
            let start = now.max(free_at[target]);
            let completion = start + speeds.service(target, sizes[i]);
            free_at[target] = completion;
            heaps[target].push(Reverse(OrdF64(completion)));
            collector.record_with_inv(
                JobRecord {
                    id: jobs[i].id,
                    arrival: now,
                    size: sizes[i],
                    start,
                    completion,
                    host: target,
                },
                inv_sizes[i],
            );
        }
    } else if needs.needs_queue_len() {
        // Queue-length loop: per-host heaps replaced by FIFO deques. An
        // FCFS run-to-completion host completes jobs in assignment order
        // — each new completion is `max(now, free_at) + service ≥
        // free_at`, the previous one — so the in-system completions of
        // one host form a monotone non-decreasing FIFO: expire off the
        // front, push on the back.
        //
        // Queue lengths update incrementally (+1 on dispatch, −1 on
        // expiry), and a tournament heap over the deque *fronts* — at
        // most one entry per non-empty host — turns the per-arrival
        // expiry check into an O(1) peek instead of an O(hosts) scan.
        // Expiry order across hosts cannot affect results: every entry
        // with `completion ≤ now` is drained before the policy looks,
        // and the later entries keep their exact counts, so queue
        // lengths are bit-identical to the full loop's. `work_left`
        // stays 0 — the policy declared it never reads it.
        for i in 0..jobs.len() {
            let now = arrivals[i];
            while let Some(&Reverse((OrdF64(next), h))) = expiry.peek() {
                if next > now {
                    break;
                }
                expiry.pop();
                let fifo = &mut fifos[h];
                fifo.pop_front();
                views[h].queue_len -= 1;
                while fifo.front().is_some_and(|&c| c <= now) {
                    fifo.pop_front();
                    views[h].queue_len -= 1;
                }
                if let Some(&front) = fifo.front() {
                    expiry.push(Reverse((OrdF64(front), h)));
                }
            }
            let state = SystemState { now, hosts: views.as_slice() };
            let target = policy.dispatch(&jobs[i], &state, &mut rng);
            assert!(
                target < hosts,
                "policy {} returned host {target} of {hosts}",
                policy.name()
            );
            let start = now.max(free_at[target]);
            let completion = start + speeds.service(target, sizes[i]);
            free_at[target] = completion;
            let fifo = &mut fifos[target];
            if fifo.is_empty() {
                expiry.push(Reverse((OrdF64(completion), target)));
            }
            fifo.push_back(completion);
            views[target].queue_len += 1;
            collector.record_with_inv(
                JobRecord {
                    id: jobs[i].id,
                    arrival: now,
                    size: sizes[i],
                    start,
                    completion,
                    host: target,
                },
                inv_sizes[i],
            );
        }
    } else if needs.needs_work_left() {
        // Work-left loop: the Lindley scalar is the whole host state.
        // `queue_len` stays 0 — the policy declared it never reads it.
        for i in 0..jobs.len() {
            let now = arrivals[i];
            for (v, &f) in views.iter_mut().zip(free_at.iter()) {
                v.work_left = (f - now).max(0.0);
            }
            let state = SystemState { now, hosts: views.as_slice() };
            let target = policy.dispatch(&jobs[i], &state, &mut rng);
            assert!(
                target < hosts,
                "policy {} returned host {target} of {hosts}",
                policy.name()
            );
            let start = now.max(free_at[target]);
            let completion = start + speeds.service(target, sizes[i]);
            free_at[target] = completion;
            collector.record_with_inv(
                JobRecord {
                    id: jobs[i].id,
                    arrival: now,
                    size: sizes[i],
                    start,
                    completion,
                    host: target,
                },
                inv_sizes[i],
            );
        }
    } else {
        // Static loop: the policy reads no host state at all, so the
        // views are frozen zeros (correct length, never refreshed).
        for i in 0..jobs.len() {
            let now = arrivals[i];
            let state = SystemState { now, hosts: views.as_slice() };
            let target = policy.dispatch(&jobs[i], &state, &mut rng);
            assert!(
                target < hosts,
                "policy {} returned host {target} of {hosts}",
                policy.name()
            );
            let start = now.max(free_at[target]);
            let completion = start + speeds.service(target, sizes[i]);
            free_at[target] = completion;
            collector.record_with_inv(
                JobRecord {
                    id: jobs[i].id,
                    arrival: now,
                    size: sizes[i],
                    start,
                    completion,
                    host: target,
                },
                inv_sizes[i],
            );
        }
    }
    collector.finish_into(out);
}

/// The inlined static-policy loop: `select` is the policy's closed-form
/// decision rule (capturing any engine-owned cursor or cutoff state),
/// and everything else is the bare Lindley recursion. With the virtual
/// call gone the loop body is straight-line code the compiler can
/// software-pipeline across iterations.
// dses-lint: divides(1)
// dses-lint: deny(alloc)
// dses-lint: mirrors(lindley)
// dses-lint: hoist(service)
// dses-lint: untraced(record_with_inv)
fn run_static_kernel<S: SpeedModel, F: FnMut(f64, &mut Rng64) -> usize>(
    trace: &Trace,
    speeds: &S,
    mut select: F,
    rng: &mut Rng64,
    free_at: &mut [f64],
    collector: &mut Collector,
) {
    let jobs = trace.jobs();
    let arrivals = trace.arrivals();
    let sizes = trace.sizes();
    let inv_sizes = trace.inv_sizes();
    for i in 0..jobs.len() {
        let now = arrivals[i];
        let size = sizes[i];
        let target = select(size, rng);
        debug_assert!(
            target < free_at.len(),
            "kernel selected host {target} of {}",
            free_at.len()
        );
        let start = now.max(free_at[target]);
        let completion = start + speeds.service(target, size);
        free_at[target] = completion;
        collector.record_with_inv(
            JobRecord {
                id: jobs[i].id,
                arrival: now,
                size,
                start,
                completion,
                host: target,
            },
            inv_sizes[i],
        );
    }
}

/// The inlined least-work-left loop: [`argmin_work_left`] directly over
/// the Lindley scalars — no view refresh, no virtual call.
// dses-lint: divides(1)
// dses-lint: deny(alloc)
// dses-lint: mirrors(lindley)
// dses-lint: hoist(service)
// dses-lint: untraced(record_with_inv)
fn run_work_left_kernel<S: SpeedModel>(
    trace: &Trace,
    speeds: &S,
    free_at: &mut [f64],
    collector: &mut Collector,
) {
    let jobs = trace.jobs();
    let arrivals = trace.arrivals();
    let sizes = trace.sizes();
    let inv_sizes = trace.inv_sizes();
    for i in 0..jobs.len() {
        let now = arrivals[i];
        let target = argmin_work_left(free_at, now);
        let start = now.max(free_at[target]);
        let completion = start + speeds.service(target, sizes[i]);
        free_at[target] = completion;
        collector.record_with_inv(
            JobRecord {
                id: jobs[i].id,
                arrival: now,
                size: sizes[i],
                start,
                completion,
                host: target,
            },
            inv_sizes[i],
        );
    }
}

/// Run `traces.len()` replications through one workspace: lane `r` is
/// exactly `simulate_dispatch_into(traces[r], hosts, &mut policies[r],
/// seeds[r], cfgs[r], ws, &mut out[r])`, run in lane order.
///
/// A convenience for callers that hold replication lanes as parallel
/// slices. Lanes share nothing but the workspace, which every run
/// resets, so each lane's result is bit-identical to its solo run.
/// `out` is resized to one [`SimResult`] per lane; after a warm-up call
/// of the same shape the steady state performs zero heap allocations.
///
/// # Panics
/// Panics if the slice lengths disagree, or as
/// [`simulate_dispatch_into`] does for any lane.
// dses-lint: deny(alloc)
pub fn simulate_dispatch_fused_into<P: Dispatcher>(
    traces: &[&Trace],
    hosts: usize,
    policies: &mut [P],
    seeds: &[u64],
    cfgs: &[MetricsConfig],
    ws: &mut SimWorkspace,
    out: &mut Vec<SimResult>,
) {
    let lanes = traces.len();
    assert_eq!(policies.len(), lanes, "one policy per lane");
    assert_eq!(seeds.len(), lanes, "one seed per lane");
    assert_eq!(cfgs.len(), lanes, "one metrics config per lane");
    out.truncate(lanes);
    while out.len() < lanes {
        // dses-lint: allow(no-alloc-transitive) -- grow-once: result slots persist across lane-loop calls
        out.push(SimResult::empty());
    }
    for (r, slot) in out.iter_mut().enumerate() {
        simulate_dispatch_into(traces[r], hosts, &mut policies[r], seeds[r], cfgs[r], ws, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateNeeds;
    use dses_workload::Job;

    /// Send every job to host 0.
    struct ToZero;
    impl Dispatcher for ToZero {
        fn dispatch(&mut self, _: &Job, _: &SystemState<'_>, _: &mut Rng64) -> usize {
            0
        }
        fn name(&self) -> String {
            "to-zero".into()
        }
        fn state_needs(&self) -> StateNeeds {
            StateNeeds::NOTHING
        }
    }

    /// Always pick the least-work host (mini LWL for engine tests).
    struct MiniLwl;
    impl Dispatcher for MiniLwl {
        fn dispatch(&mut self, _: &Job, s: &SystemState<'_>, _: &mut Rng64) -> usize {
            s.least_work()
        }
        fn state_needs(&self) -> StateNeeds {
            StateNeeds::WORK_LEFT
        }
    }

    /// Pick the host with the fewest in-system jobs (mini Shortest-Queue
    /// exercising the FIFO-deque kernel).
    struct MiniSq;
    impl Dispatcher for MiniSq {
        fn dispatch(&mut self, _: &Job, s: &SystemState<'_>, _: &mut Rng64) -> usize {
            s.hosts
                .iter()
                .enumerate()
                .min_by_key(|(_, v)| v.queue_len)
                .expect("at least one host")
                .0
        }
        fn state_needs(&self) -> StateNeeds {
            StateNeeds::QUEUE_LEN
        }
    }

    /// Forces the full (heap-maintaining) loop for any inner policy by
    /// claiming it reads everything — the pre-specialization engine.
    struct ForceFull<P>(P);
    impl<P: Dispatcher> Dispatcher for ForceFull<P> {
        fn dispatch(&mut self, job: &Job, s: &SystemState<'_>, rng: &mut Rng64) -> usize {
            self.0.dispatch(job, s, rng)
        }
        fn name(&self) -> String {
            self.0.name()
        }
        fn reset(&mut self) {
            self.0.reset();
        }
    }

    fn trace(jobs: &[(f64, f64)]) -> Trace {
        Trace::new(
            jobs.iter()
                .enumerate()
                .map(|(i, &(a, s))| Job::new(i as u64, a, s))
                .collect(),
        )
    }

    #[test]
    fn single_host_fcfs_hand_schedule() {
        // arrivals (0, 10), (1, 5), (12, 2):
        // job0: start 0, done 10; job1: start 10, done 15; job2: start 15, done 17
        let t = trace(&[(0.0, 10.0), (1.0, 5.0), (12.0, 2.0)]);
        let r = simulate_dispatch(&t, 1, &mut ToZero, 0, MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        });
        let recs = r.records.unwrap();
        assert_eq!(recs[0].completion, 10.0);
        assert_eq!(recs[1].start, 10.0);
        assert_eq!(recs[1].completion, 15.0);
        assert_eq!(recs[2].start, 15.0);
        assert_eq!(recs[2].completion, 17.0);
        // slowdowns: 1, 14/5, 5/2
        assert!((r.slowdown.mean - (1.0 + 2.8 + 2.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_host_serves_immediately() {
        let t = trace(&[(0.0, 5.0), (100.0, 1.0)]);
        let r = simulate_dispatch(&t, 1, &mut ToZero, 0, MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        });
        let recs = r.records.unwrap();
        assert_eq!(recs[1].start, 100.0);
        assert_eq!(recs[1].slowdown(), 1.0);
    }

    #[test]
    fn least_work_balances_two_hosts() {
        // job0 (size 10) → host 0; job1 at t=1 sees work (9, 0) → host 1
        let t = trace(&[(0.0, 10.0), (1.0, 2.0)]);
        let r = simulate_dispatch(&t, 2, &mut MiniLwl, 0, MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        });
        let recs = r.records.unwrap();
        assert_eq!(recs[0].host, 0);
        assert_eq!(recs[1].host, 1);
        assert_eq!(recs[1].start, 1.0);
    }

    #[test]
    fn queue_len_view_expires_completed_jobs() {
        // host 0 serves a size-1 job at t=0; at t=5 the queue must be empty
        struct AssertingPolicy {
            calls: usize,
        }
        impl Dispatcher for AssertingPolicy {
            fn dispatch(&mut self, _: &Job, s: &SystemState<'_>, _: &mut Rng64) -> usize {
                if self.calls == 1 {
                    assert_eq!(s.hosts[0].queue_len, 0, "stale completion retained");
                    assert_eq!(s.hosts[0].work_left, 0.0);
                }
                self.calls += 1;
                0
            }
        }
        let t = trace(&[(0.0, 1.0), (5.0, 1.0)]);
        let _ = simulate_dispatch(&t, 1, &mut AssertingPolicy { calls: 0 }, 0, MetricsConfig::default());
    }

    #[test]
    fn fifo_kernel_expires_completed_jobs() {
        // same expiry semantics through the deque kernel
        struct AssertingSq {
            calls: usize,
        }
        impl Dispatcher for AssertingSq {
            fn dispatch(&mut self, _: &Job, s: &SystemState<'_>, _: &mut Rng64) -> usize {
                if self.calls == 1 {
                    assert_eq!(s.hosts[0].queue_len, 1, "size-10 job still running");
                }
                if self.calls == 2 {
                    assert_eq!(s.hosts[0].queue_len, 0, "stale completion retained");
                }
                self.calls += 1;
                0
            }
            fn state_needs(&self) -> StateNeeds {
                StateNeeds::QUEUE_LEN
            }
        }
        let t = trace(&[(0.0, 10.0), (5.0, 1.0), (20.0, 1.0)]);
        let _ = simulate_dispatch(&t, 1, &mut AssertingSq { calls: 0 }, 0, MetricsConfig::default());
    }

    #[test]
    fn work_left_view_is_remaining_service() {
        struct Check;
        impl Dispatcher for Check {
            fn dispatch(&mut self, job: &Job, s: &SystemState<'_>, _: &mut Rng64) -> usize {
                if job.id == 1 {
                    // size-10 job started at 0; at t = 4, 6 seconds remain
                    assert!((s.hosts[0].work_left - 6.0).abs() < 1e-12);
                }
                0
            }
        }
        let t = trace(&[(0.0, 10.0), (4.0, 1.0)]);
        let _ = simulate_dispatch(&t, 1, &mut Check, 0, MetricsConfig::default());
    }

    #[test]
    fn work_conservation() {
        let t = trace(&[(0.0, 3.0), (0.5, 4.0), (1.0, 5.0), (2.0, 1.0)]);
        let r = simulate_dispatch(&t, 2, &mut MiniLwl, 0, MetricsConfig::default());
        let total: f64 = r.per_host.iter().map(|h| h.work).sum();
        assert!((total - 13.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "returned host")]
    fn out_of_range_dispatch_is_caught() {
        struct Bad;
        impl Dispatcher for Bad {
            fn dispatch(&mut self, _: &Job, _: &SystemState<'_>, _: &mut Rng64) -> usize {
                7
            }
        }
        let t = trace(&[(0.0, 1.0)]);
        let _ = simulate_dispatch(&t, 2, &mut Bad, 0, MetricsConfig::default());
    }

    #[test]
    fn specialized_loops_match_the_full_loop_bitwise() {
        // A bursty hand trace with ties and idle gaps; every loop must
        // produce the identical schedule to the heap-maintaining one.
        let t = trace(&[
            (0.0, 10.0),
            (0.0, 3.0),
            (1.0, 1.0),
            (1.0, 7.0),
            (4.0, 2.0),
            (30.0, 5.0),
            (30.5, 0.5),
        ]);
        let cfg = MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        };
        // static kernel (RNG-driven, so the stream position matters too)
        struct Flip;
        impl Dispatcher for Flip {
            fn dispatch(&mut self, _: &Job, s: &SystemState<'_>, rng: &mut Rng64) -> usize {
                rng.below(s.num_hosts() as u64) as usize
            }
            fn state_needs(&self) -> StateNeeds {
                StateNeeds::NOTHING
            }
        }
        let fast = simulate_dispatch(&t, 3, &mut Flip, 9, cfg);
        let full = simulate_dispatch(&t, 3, &mut ForceFull(Flip), 9, cfg);
        assert_eq!(fast.records.unwrap(), full.records.unwrap());
        // work-left kernel
        let fast = simulate_dispatch(&t, 3, &mut MiniLwl, 0, cfg);
        let full = simulate_dispatch(&t, 3, &mut ForceFull(MiniLwl), 0, cfg);
        assert_eq!(fast.records.unwrap(), full.records.unwrap());
        // queue-length (FIFO deque) kernel
        let fast = simulate_dispatch(&t, 3, &mut MiniSq, 0, cfg);
        let full = simulate_dispatch(&t, 3, &mut ForceFull(MiniSq), 0, cfg);
        assert_eq!(fast.records.unwrap(), full.records.unwrap());
        // heterogeneous speeds through the kernels
        let speeds = [1.0, 0.5, 2.0];
        let fast = simulate_dispatch_speeds(&t, &speeds, &mut MiniLwl, 0, cfg);
        let full = simulate_dispatch_speeds(&t, &speeds, &mut ForceFull(MiniLwl), 0, cfg);
        assert_eq!(fast.records.unwrap(), full.records.unwrap());
        let fast = simulate_dispatch_speeds(&t, &speeds, &mut MiniSq, 0, cfg);
        let full = simulate_dispatch_speeds(&t, &speeds, &mut ForceFull(MiniSq), 0, cfg);
        assert_eq!(fast.records.unwrap(), full.records.unwrap());
    }

    #[test]
    fn explicit_workspace_matches_thread_local_path() {
        let t = trace(&[(0.0, 4.0), (0.5, 1.0), (1.0, 2.0), (3.0, 6.0)]);
        let cfg = MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        };
        let implicit = simulate_dispatch(&t, 2, &mut MiniSq, 0, cfg);
        let mut ws = SimWorkspace::new();
        let mut out = SimResult::empty();
        simulate_dispatch_into(&t, 2, &mut MiniSq, 0, cfg, &mut ws, &mut out);
        assert_eq!(implicit.records.unwrap(), out.records.unwrap());
        assert_eq!(implicit.slowdown, out.slowdown);
    }

    #[test]
    fn static_loop_still_reports_host_count() {
        // NOTHING-policies may legitimately read `num_hosts()` (SITA's
        // debug bounds check does); the frozen views keep the length.
        struct CountCheck;
        impl Dispatcher for CountCheck {
            fn dispatch(&mut self, _: &Job, s: &SystemState<'_>, _: &mut Rng64) -> usize {
                assert_eq!(s.num_hosts(), 4);
                3
            }
            fn state_needs(&self) -> StateNeeds {
                StateNeeds::NOTHING
            }
        }
        let t = trace(&[(0.0, 1.0), (1.0, 2.0)]);
        let r = simulate_dispatch(&t, 4, &mut CountCheck, 0, MetricsConfig::default());
        assert_eq!(r.per_host[3].jobs, 2);
    }

    #[test]
    #[should_panic(expected = "returned host")]
    fn out_of_range_dispatch_is_caught_in_static_loop() {
        struct Bad;
        impl Dispatcher for Bad {
            fn dispatch(&mut self, _: &Job, _: &SystemState<'_>, _: &mut Rng64) -> usize {
                7
            }
            fn state_needs(&self) -> StateNeeds {
                StateNeeds::NOTHING
            }
        }
        let t = trace(&[(0.0, 1.0)]);
        let _ = simulate_dispatch(&t, 2, &mut Bad, 0, MetricsConfig::default());
    }

    #[test]
    fn deterministic_given_seed() {
        struct Coin;
        impl Dispatcher for Coin {
            fn dispatch(&mut self, _: &Job, s: &SystemState<'_>, rng: &mut Rng64) -> usize {
                rng.below(s.num_hosts() as u64) as usize
            }
        }
        let t = trace(&[(0.0, 1.0), (0.1, 2.0), (0.2, 3.0), (0.3, 4.0)]);
        let a = simulate_dispatch(&t, 2, &mut Coin, 5, MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        });
        let b = simulate_dispatch(&t, 2, &mut Coin, 5, MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        });
        assert_eq!(a.records.unwrap(), b.records.unwrap());
    }

    /// Scalar reference for the chunked argmin: `min_by(total_cmp)` over
    /// the clamped backlog keeps the *first* minimum, which is the
    /// leftmost-tie-wins contract the dispatch policies rely on.
    fn argmin_ref(free_at: &[f64], now: f64) -> usize {
        free_at
            .iter()
            .enumerate()
            .map(|(i, &f)| (i, (f - now).max(0.0)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty")
            .0
    }

    #[test]
    fn argmin_all_equal_picks_host_zero() {
        // every length from 1 to well past several full chunks, with the
        // tie both at a positive backlog and at the clamped-to-zero floor
        for n in 1..=4 * ARGMIN_LANES + 3 {
            let positive = vec![7.5; n];
            assert_eq!(argmin_work_left(&positive, 2.0), 0, "n = {n}, positive tie");
            // free_at entirely in the past: every backlog clamps to +0.0
            let idle = vec![1.0; n];
            assert_eq!(argmin_work_left(&idle, 5.0), 0, "n = {n}, clamped tie");
        }
    }

    #[test]
    fn argmin_ties_at_lane_boundaries() {
        // minimum duplicated exactly at the seams the chunked scan could
        // mishandle: last lane of chunk c vs first lane of chunk c+1
        let n = 3 * ARGMIN_LANES;
        for &(a, b) in &[(7, 8), (15, 16), (0, ARGMIN_LANES), (ARGMIN_LANES - 1, 2 * ARGMIN_LANES - 1)] {
            let mut free_at = vec![100.0; n];
            free_at[a] = 3.0;
            free_at[b] = 3.0;
            assert_eq!(argmin_work_left(&free_at, 1.0), a, "tie at ({a}, {b})");
            assert_eq!(argmin_ref(&free_at, 1.0), a, "reference disagrees at ({a}, {b})");
        }
    }

    #[test]
    fn argmin_ties_straddling_the_chunk_remainder() {
        // length 2·LANES + 3: two full chunks plus a scalar tail
        let n = 2 * ARGMIN_LANES + 3;
        // tie between a chunked index and a tail index: chunk wins
        let mut free_at = vec![50.0; n];
        free_at[ARGMIN_LANES + 2] = 4.0;
        free_at[n - 1] = 4.0;
        assert_eq!(argmin_work_left(&free_at, 0.0), ARGMIN_LANES + 2);
        // tie entirely inside the tail: earlier tail index wins
        let mut free_at = vec![50.0; n];
        free_at[n - 3] = 4.0;
        free_at[n - 2] = 4.0;
        assert_eq!(argmin_work_left(&free_at, 0.0), n - 3);
        // minimum only in the tail must still beat every chunked lane
        let mut free_at = vec![50.0; n];
        free_at[n - 1] = 4.0;
        assert_eq!(argmin_work_left(&free_at, 0.0), n - 1);
    }

    #[test]
    fn argmin_matches_scalar_reference_on_random_tie_heavy_inputs() {
        // Pseudo-random free_at drawn from a tiny value set so ties are
        // dense, swept across now values that clamp none/some/all of the
        // backlog to +0.0. Inputs are NaN-free by construction (the
        // engines only ever store finite arrival + service sums), so this
        // also pins total_cmp ≡ < on the kernel's actual domain.
        let mut rng = Rng64::seed_from(0xA57);
        let values = [0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 40.0];
        for n in 1..=5 * ARGMIN_LANES + 5 {
            for _ in 0..20 {
                let free_at: Vec<f64> = (0..n)
                    .map(|_| values[rng.below(values.len() as u64) as usize])
                    .collect();
                for &now in &[0.0, 1.0, 2.5, 100.0] {
                    assert_eq!(
                        argmin_work_left(&free_at, now),
                        argmin_ref(&free_at, now),
                        "n = {n}, now = {now}, free_at = {free_at:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sita_pick_matches_partition_point_on_tie_dense_and_boundary_inputs() {
        // widths on both sides of SITA_LINEAR_MAX, including the exact
        // threshold and deep binary-search depths
        for len in [1usize, 2, 15, 16, 17, 31, 64, 1023] {
            let cuts: Vec<f64> = (0..len).map(|i| (i + 1) as f64).collect();
            let mut probes = vec![0.25, 0.5, len as f64 + 0.5, f64::MAX];
            for &c in &cuts {
                // exact tie (must stay left), plus both straddles
                probes.extend_from_slice(&[c, c - 0.25, c + 0.25]);
            }
            for &size in &probes {
                assert_eq!(
                    sita_pick(&cuts, size),
                    cuts.partition_point(|&c| size > c),
                    "len = {len}, size = {size}"
                );
            }
        }
        // random tie-dense probes against a random strictly increasing
        // ladder, across both lookup paths
        let mut rng = Rng64::seed_from(0x517A);
        for len in [12usize, 100, 1023] {
            let mut cuts = Vec::with_capacity(len);
            let mut acc = 0.0f64;
            for _ in 0..len {
                acc += 0.5 + rng.below(8) as f64;
                cuts.push(acc);
            }
            for _ in 0..2_000 {
                // half the probes snap exactly onto a cutoff
                let size = if rng.below(2) == 0 {
                    cuts[rng.below(len as u64) as usize]
                } else {
                    acc * (rng.below(1_000) as f64) / 900.0
                };
                assert_eq!(
                    sita_pick(&cuts, size),
                    cuts.partition_point(|&c| size > c),
                    "len = {len}, size = {size}"
                );
            }
        }
    }
}

#[cfg(test)]
mod speed_tests {
    use super::*;
    use crate::state::{Dispatcher, SystemState};
    use dses_workload::{Job, Trace};

    struct ToHost(usize);
    impl Dispatcher for ToHost {
        fn dispatch(&mut self, _: &Job, _: &SystemState<'_>, _: &mut Rng64) -> usize {
            self.0
        }
    }

    fn trace(jobs: &[(f64, f64)]) -> Trace {
        Trace::new(
            jobs.iter()
                .enumerate()
                .map(|(i, &(a, s))| Job::new(i as u64, a, s))
                .collect(),
        )
    }

    #[test]
    fn fast_host_halves_service_time() {
        let t = trace(&[(0.0, 10.0)]);
        let r = simulate_dispatch_speeds(&t, &[2.0], &mut ToHost(0), 0, MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        });
        let rec = r.records.unwrap()[0];
        assert_eq!(rec.completion, 5.0);
        assert_eq!(rec.slowdown(), 0.5); // faster than the reference host
    }

    #[test]
    fn slow_host_queues_longer() {
        let t = trace(&[(0.0, 10.0), (1.0, 10.0)]);
        let r = simulate_dispatch_speeds(&t, &[0.5], &mut ToHost(0), 0, MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        });
        let recs = r.records.unwrap();
        assert_eq!(recs[0].completion, 20.0);
        assert_eq!(recs[1].start, 20.0);
        assert_eq!(recs[1].completion, 40.0);
    }

    #[test]
    fn unit_speeds_match_the_homogeneous_engine() {
        let t = trace(&[(0.0, 3.0), (0.5, 4.0), (1.0, 5.0), (2.0, 1.0)]);
        struct MiniLwl;
        impl Dispatcher for MiniLwl {
            fn dispatch(&mut self, _: &Job, s: &SystemState<'_>, _: &mut Rng64) -> usize {
                s.least_work()
            }
        }
        let cfg = MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        };
        let a = simulate_dispatch(&t, 2, &mut MiniLwl, 0, cfg);
        let b = simulate_dispatch_speeds(&t, &[1.0, 1.0], &mut MiniLwl, 0, cfg);
        assert_eq!(a.records.unwrap(), b.records.unwrap());
    }

    #[test]
    fn lwl_prefers_the_fast_host_under_load() {
        // both hosts busy; the fast host drains sooner, so LWL picks it
        struct MiniLwl;
        impl Dispatcher for MiniLwl {
            fn dispatch(&mut self, _: &Job, s: &SystemState<'_>, _: &mut Rng64) -> usize {
                s.least_work()
            }
        }
        let t = trace(&[(0.0, 10.0), (0.0, 10.0), (1.0, 1.0)]);
        let r = simulate_dispatch_speeds(&t, &[1.0, 4.0], &mut MiniLwl, 0, MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        });
        let recs = r.records.unwrap();
        // job 0 -> host 0 (tie, lowest index); job 1 -> host 1;
        // at t=1: host0 has 9s left, host1 has 10/4-1 = 1.5s left
        let j2 = recs.iter().find(|r| r.id == 2).unwrap();
        assert_eq!(j2.host, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_speed() {
        let t = trace(&[(0.0, 1.0)]);
        let _ = simulate_dispatch_speeds(&t, &[0.0], &mut ToHost(0), 0, MetricsConfig::default());
    }
}
