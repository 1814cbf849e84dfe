//! Deterministic parallel execution of independent simulation runs.
//!
//! Every paper exhibit is a grid — loads × policies × seeds — of runs
//! that share no mutable state: each run is a pure function of its grid
//! index (the trace is regenerated or shared read-only, the policy RNG is
//! derived from a per-index seed via `dses_dist::derive_seed`). That
//! makes parallelism trivial to get right *and* trivial to get
//! deterministic:
//!
//! * workers pull indices from an atomic counter (dynamic load balancing
//!   — grid points vary wildly in cost near saturation), and
//! * each result is written to the slot of its **grid index**, never in
//!   completion order.
//!
//! Consequently [`par_map`] with any worker count — including 1 — returns
//! bit-for-bit the same vector as the sequential loop `items.map(f)`.
//! There is no other source of nondeterminism to control: the engines
//! never consult wall-clock time, thread ids, or a global RNG.
//!
//! Replications are grid points like any other: `Experiment::replicate`
//! submits one index per replication, each a solo run, so R lanes spread
//! over every worker instead of queueing behind one another.
//!
//! Execution happens on a process-wide, **long-lived** [`WorkerPool`]
//! (std-only: parked threads plus a mutex/condvar batch queue) rather
//! than per-call `std::thread::scope` spawning. Sweeps submit thousands
//! of small batches; spawning and joining OS threads for each one costs
//! more than many of the batches themselves. Pool threads are lazily
//! spawned up to the highest worker count ever requested, park on a
//! condvar when idle, and live until process exit. Batches carry an
//! admission budget so a batch submitted with `workers = w` is never
//! drained by more than `w` threads (the caller plus `w − 1` helpers),
//! and the queue accepts concurrent submitters (independent tests or
//! nested calls), each caller participating in draining its own batch —
//! so progress never depends on a pool thread being free.
//!
//! A worker panic is captured, stops further index claims for that batch,
//! and is re-raised on the submitting thread, as with the sequential
//! loop. The module remains dependency-free.
//!
//! [`par_map_indexed_scoped`] keeps the original scoped-spawn
//! implementation as a benchmark baseline (`perf_report` measures the
//! pool against it).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Number of workers the machine supports (`available_parallelism`,
/// falling back to 1 when the platform cannot tell).
#[must_use]
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolve a requested worker count: `None` or `Some(0)` means "use the
/// machine" ([`available_workers`]); anything else is taken literally.
#[must_use]
pub fn effective_workers(requested: Option<usize>) -> usize {
    match requested {
        None | Some(0) => available_workers(),
        Some(n) => n,
    }
}

/// One submitted unit of fan-out: `n` indices drained by an atomic
/// claim counter, with results deposited through the type-erased `run`
/// closure (which writes into the submitter's slot vector).
struct Batch {
    /// number of indices in the batch
    n: usize,
    /// next index to claim (≥ `n` ⇒ nothing left to start)
    next: AtomicUsize,
    /// how many more *pool* threads may still join this batch (the
    /// submitting thread always participates on top of these)
    admissions: AtomicUsize,
    /// runs one index and stores its result
    run: Box<dyn Fn(usize) + Send + Sync>,
    /// completion accounting, guarded separately from the pool state
    done: Mutex<BatchDone>,
    /// signalled when the batch completes or a worker panics
    finished: Condvar,
}

struct BatchDone {
    completed: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Batch {
    /// Whether a pool thread may start helping on this batch (consumes
    /// one admission on success).
    fn try_admit(&self) -> bool {
        if self.next.load(Ordering::Relaxed) >= self.n {
            return false;
        }
        self.admissions
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |a| a.checked_sub(1))
            .is_ok()
    }

    /// Nothing left to *start* (claimed ≥ n); in-flight indices may still
    /// be running, which only the `done` accounting tracks.
    fn drained(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n
    }

    /// Drain indices until none are left, recording completions. On a
    /// panic inside `run`, capture it (first one wins), stop all further
    /// claims, and wake the submitter.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                Ok(()) => {
                    let mut done = self.done.lock().expect("batch accounting poisoned"); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
                    done.completed += 1;
                    if done.completed == self.n {
                        self.finished.notify_all();
                    }
                }
                Err(payload) => {
                    // stop other workers from claiming more indices
                    self.next.fetch_max(self.n, Ordering::Relaxed);
                    let mut done = self.done.lock().expect("batch accounting poisoned"); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
                    if done.panic.is_none() {
                        done.panic = Some(payload);
                    }
                    self.finished.notify_all();
                    break;
                }
            }
        }
    }
}

struct PoolState {
    /// batches with work left, oldest first
    queue: VecDeque<Arc<Batch>>,
    /// pool threads spawned so far (high-water mark)
    spawned: usize,
    /// set by [`WorkerPool::drop`]; workers exit once no work remains
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// signalled when a batch is submitted (or on shutdown)
    work_ready: Condvar,
}

/// A long-lived pool of worker threads draining submitted index batches.
///
/// The process-wide instance behind [`par_map_indexed`] is obtained with
/// [`WorkerPool::global`]; constructing additional pools is possible (the
/// tests do) but rarely useful — threads are only reclaimed when the pool
/// is dropped.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl WorkerPool {
    /// Create an empty pool; threads are spawned lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    queue: VecDeque::new(),
                    spawned: 0,
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
            }),
        }
    }

    /// The process-wide pool shared by every sweep entry point.
    #[must_use]
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(WorkerPool::new)
    }

    /// Pool threads spawned so far (a high-water mark of requested
    /// helper counts — threads persist between calls).
    #[must_use]
    pub fn spawned_workers(&self) -> usize {
        self.shared.state.lock().expect("pool state poisoned").spawned // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
    }

    /// The pool-threaded equivalent of `(0..n).map(f).collect()`.
    ///
    /// `workers` bounds the number of threads draining this batch (the
    /// calling thread plus up to `workers − 1` pool helpers). With
    /// `workers <= 1` (or trivially small `n`) the plain sequential loop
    /// runs — no locks, no queue.
    ///
    /// Deterministic by construction: `f(i)` must be a pure function of
    /// `i` (all simulation entry points in this workspace are, given a
    /// seed), and the output vector is assembled by index, so any worker
    /// count produces identical bits. A panic in `f` is re-raised here.
    pub fn run_indexed<R, F>(&self, n: usize, workers: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        let workers = workers.max(1).min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let slots: Arc<Vec<Mutex<Option<R>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let batch = Arc::new(Batch {
            n,
            next: AtomicUsize::new(0),
            admissions: AtomicUsize::new(workers - 1),
            run: {
                let slots = Arc::clone(&slots);
                Box::new(move |i| {
                    let result = f(i);
                    *slots[i].lock().expect("result slot poisoned") = Some(result); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
                })
            },
            done: Mutex::new(BatchDone {
                completed: 0,
                panic: None,
            }),
            finished: Condvar::new(),
        });
        self.submit(Arc::clone(&batch), workers - 1);
        // The submitter drains alongside the pool: progress never waits
        // on a helper thread becoming free.
        batch.work();
        let panic = {
            let mut done = batch.done.lock().expect("batch accounting poisoned"); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
            while done.completed < n && done.panic.is_none() {
                done = batch
                    .finished
                    .wait(done)
                    .expect("batch accounting poisoned"); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
            }
            done.panic.take()
        };
        self.retire(&batch);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("result slot poisoned") // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
                    .take()
                    .expect("worker filled every claimed slot") // dses-lint: allow(panic-hygiene) -- run_indexed waits until all n indices completed
            })
            .collect()
    }

    /// Enqueue a batch and make sure at least `helpers` pool threads
    /// exist to serve it.
    fn submit(&self, batch: Arc<Batch>, helpers: usize) {
        let mut state = self.shared.state.lock().expect("pool state poisoned"); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
        while state.spawned < helpers {
            let shared = Arc::clone(&self.shared);
            let id = state.spawned;
            std::thread::Builder::new()
                // dses-lint: allow(loop-alloc) -- names the pool threads; this loop runs once per worker at pool growth, never per job
                .name(format!("dses-pool-{id}"))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn pool worker"); // dses-lint: allow(panic-hygiene) -- cannot run a sweep without threads; abort is the only option
            state.spawned += 1;
        }
        state.queue.push_back(batch);
        drop(state);
        self.shared.work_ready.notify_all();
    }

    /// Remove a finished batch from the queue (workers also prune drained
    /// batches opportunistically; this handles the fully-idle case).
    fn retire(&self, batch: &Arc<Batch>) {
        let mut state = self.shared.state.lock().expect("pool state poisoned"); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
        state.queue.retain(|b| !Arc::ptr_eq(b, batch));
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("pool state poisoned"); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
        state.shutdown = true;
        drop(state);
        self.shared.work_ready.notify_all();
    }
}

/// A pool thread: admit onto the oldest batch with work and budget,
/// drain it, repeat; park when the queue is empty.
fn worker_loop(shared: &PoolShared) {
    loop {
        let batch = {
            let mut state = shared.state.lock().expect("pool state poisoned"); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
            loop {
                state.queue.retain(|b| !b.drained());
                if let Some(b) = state.queue.iter().find(|b| b.try_admit()) {
                    break Arc::clone(b);
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .expect("pool state poisoned"); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
            }
        };
        batch.work();
    }
}

/// Map `f` over `0..n` on up to `workers` threads of the global
/// [`WorkerPool`], returning results in index order. See
/// [`WorkerPool::run_indexed`] for the determinism contract.
pub fn par_map_indexed<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    WorkerPool::global().run_indexed(n, workers, f)
}

/// Map `f` over a slice on up to `workers` pool threads, preserving
/// input order. The items are copied once into shared storage (the pool's
/// task closures outlive the call frame, so they cannot borrow the
/// slice); simulation grids pass small spec/load vectors where one copy
/// is noise.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> R + Send + Sync + 'static,
{
    let items: Arc<Vec<T>> = Arc::new(items.to_vec());
    par_map_indexed(items.len(), workers, move |i| f(i, &items[i]))
}

/// The original per-call `std::thread::scope` implementation, kept as
/// the benchmark baseline the persistent pool is measured against
/// (`perf_report --smoke`). Semantics are identical to
/// [`par_map_indexed`]; the only difference is that every call spawns
/// and joins `workers` fresh OS threads.
pub fn par_map_indexed_scoped<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned") // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
                .expect("worker filled every claimed slot") // dses-lint: allow(panic-hygiene) -- run_indexed waits until all n indices completed
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        let sequential: Vec<u64> = (0..97).map(|i| (i as u64).wrapping_mul(2_654_435_761)).collect();
        for workers in [1, 2, 3, 8, 64] {
            let parallel = par_map_indexed(97, workers, |i| (i as u64).wrapping_mul(2_654_435_761));
            assert_eq!(parallel, sequential, "workers = {workers}");
        }
    }

    #[test]
    fn scoped_baseline_matches_the_pool() {
        let pooled = par_map_indexed(53, 4, |i| i * 3 + 1);
        let scoped = par_map_indexed_scoped(53, 4, |i| i * 3 + 1);
        assert_eq!(pooled, scoped);
    }

    #[test]
    fn par_map_passes_items_and_indices() {
        let items = vec![10.0f64, 20.0, 30.0];
        let out = par_map(&items, 2, |i, &x| x + i as f64);
        assert_eq!(out, vec![10.0, 21.0, 32.0]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = par_map_indexed(0, 8, |i| i as i32);
        assert!(empty.is_empty());
        let one = par_map_indexed(1, 8, |i| i + 41);
        assert_eq!(one, vec![41]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = par_map_indexed(3, 100, |i| i * i);
        assert_eq!(out, vec![0, 1, 4]);
    }

    #[test]
    fn effective_workers_resolves_defaults() {
        assert!(available_workers() >= 1);
        assert_eq!(effective_workers(None), available_workers());
        assert_eq!(effective_workers(Some(0)), available_workers());
        assert_eq!(effective_workers(Some(5)), 5);
    }

    #[test]
    fn pool_threads_persist_between_batches() {
        let pool = WorkerPool::new();
        let a = pool.run_indexed(40, 3, |i| i as u64);
        let spawned_after_first = pool.spawned_workers();
        assert_eq!(spawned_after_first, 2, "workers − 1 helpers");
        for _ in 0..5 {
            let b = pool.run_indexed(40, 3, |i| i as u64);
            assert_eq!(a, b);
        }
        assert_eq!(
            pool.spawned_workers(),
            spawned_after_first,
            "repeat batches must reuse, not respawn, threads"
        );
    }

    #[test]
    fn pool_grows_to_the_largest_request_only() {
        let pool = WorkerPool::new();
        let _ = pool.run_indexed(64, 5, |i| i);
        assert_eq!(pool.spawned_workers(), 4);
        let _ = pool.run_indexed(64, 2, |i| i);
        assert_eq!(pool.spawned_workers(), 4, "smaller batches respawn nothing");
        let _ = pool.run_indexed(64, 7, |i| i);
        assert_eq!(pool.spawned_workers(), 6, "larger requests top the pool up");
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let pool = Arc::new(WorkerPool::new());
        let expected: Vec<usize> = (0..60).map(|i| i * i).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let expected = expected.clone();
                scope.spawn(move || {
                    for _ in 0..10 {
                        let got = pool.run_indexed(60, 3, |i| i * i);
                        assert_eq!(got, expected);
                    }
                });
            }
        });
    }

    #[test]
    fn worker_panics_propagate_to_the_submitter() {
        let pool = WorkerPool::new();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(32, 4, |i| {
                assert!(i != 17, "boom at 17");
                i
            })
        }));
        assert!(result.is_err(), "panic must cross the pool boundary");
        // the pool survives a panicked batch
        let ok = pool.run_indexed(8, 4, |i| i + 1);
        assert_eq!(ok, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn simulation_runs_are_identical_across_worker_counts() {
        // end-to-end: real engine runs fanned out per seed must agree
        // bit-for-bit with the sequential loop
        use crate::metrics::MetricsConfig;
        use crate::simulate_dispatch;
        use crate::state::{Dispatcher, SystemState};
        use dses_dist::Rng64;
        use dses_workload::{Job, Trace};

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
}
