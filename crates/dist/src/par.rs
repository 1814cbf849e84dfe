//! Deterministic parallel execution of independent tasks on one
//! process-wide worker pool.
//!
//! Every paper exhibit is a grid — loads × policies × seeds — of runs
//! that share no mutable state: each run is a pure function of its grid
//! index (the trace is regenerated or shared read-only, the policy RNG is
//! derived from a per-index seed via [`crate::derive_seed`]). The
//! analytic layer has grids of its own: one slowdown-tail evaluation is
//! 2 bands × 32 size points of independent Euler inversions. That makes
//! parallelism trivial to get right *and* trivial to get deterministic:
//!
//! * workers pull indices from an atomic counter (dynamic load balancing
//!   — grid points vary wildly in cost near saturation), and
//! * each result is written to the slot of its **grid index**, never in
//!   completion order.
//!
//! Consequently [`par_map`] with any worker count — including 1 — returns
//! bit-for-bit the same vector as the sequential loop `items.map(f)`.
//! There is no other source of nondeterminism to control: the engines
//! and the solvers never consult wall-clock time, thread ids, or a
//! global RNG.
//!
//! The pool is std-only and lives in this bottom crate so that every
//! layer above can fan out on it: `dses-queueing` for the transform
//! inversions, `dses-core` for sweeps and replications (`dses-sim`
//! re-exports it under its old paths).
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
//! so progress never depends on a pool thread being free, and a batch
//! submitted from inside a pool task shares the one pool instead of
//! spawning threads.
//!
//! A worker panic is captured, stops further index claims for that batch,
//! and is re-raised on the submitting thread, as with the sequential
//! loop. The module remains dependency-free.
//!
//! [`join`] runs two unlike tasks side by side — a generated trace's size
//! and arrival streams: the caller runs one, and the other is a
//! one-index batch that a free helper takes or the caller runs after its
//! own. Results and panics are those of the sequential order.
//!
//! [`HelperTask`] is `join`'s one-index batch kept for reuse: its owner
//! offers it to a free helper again and again, and settles each offer
//! (claims it back, or waits for the helper that took it) before the
//! next, with no allocation after the first offer. The full collector's
//! percentile pipe is its one user: one offer per chunk of slowdowns.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of workers the machine supports (`available_parallelism`,
/// falling back to 1 when the platform cannot tell), asked once per
/// process: on Linux each query reads the cgroup quota files, about
/// 40 µs and four allocations, which a trace build would pay per call.
#[must_use]
pub fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
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

    /// Block until every index completed or one panicked; returns the
    /// captured panic, if any.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut done = self.done.lock().expect("batch accounting poisoned"); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
        while done.completed < self.n && done.panic.is_none() {
            done = self
                .finished
                .wait(done)
                .expect("batch accounting poisoned"); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
        }
        done.panic.take()
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

/// The one task of a [`WorkerPool::join`]: waiting to be claimed, being
/// run, or its result.
enum JoinSlot<A, R> {
    Task(A),
    Claimed,
    Done(R),
}

impl<A, R> JoinSlot<A, R> {
    fn take(&mut self) -> Self {
        std::mem::replace(self, JoinSlot::Claimed)
    }
}

/// Lock a join slot. No task runs under the lock, so it is never
/// poisoned by one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
        let panic = batch.wait();
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

    /// Run `a` and `b` side by side and return both results: `b` on the
    /// calling thread, `a` as a one-index batch that a pool helper picks
    /// up if one is free (`workers >= 2`). If no helper has started `a`
    /// by the time `b` returns, the caller runs it too, so a `join`
    /// nested in a busy pool runs both tasks in turn on its own thread.
    ///
    /// Results and panics are those of the sequential `(b(), a())`
    /// order: `b` borrows freely from the caller, and a panic in `b`
    /// wins over one in `a` (an `a` no helper started is then skipped,
    /// one already running is waited for). With `workers <= 1` that
    /// loop runs as written — no locks, no queue.
    pub fn join<RA, RB, A, B>(&self, workers: usize, a: A, b: B) -> (RA, RB)
    where
        RA: Send + 'static,
        A: FnOnce() -> RA + Send + 'static,
        B: FnOnce() -> RB,
    {
        if workers <= 1 {
            let rb = b();
            return (a(), rb);
        }
        let slot = Arc::new(Mutex::new(JoinSlot::Task(a)));
        let batch = Arc::new(Batch {
            n: 1,
            next: AtomicUsize::new(0),
            admissions: AtomicUsize::new(1),
            run: {
                let slot = Arc::clone(&slot);
                Box::new(move |_| {
                    let task = lock(&slot).take();
                    if let JoinSlot::Task(a) = task {
                        let result = a();
                        *lock(&slot) = JoinSlot::Done(result);
                    }
                })
            },
            done: Mutex::new(BatchDone {
                completed: 0,
                panic: None,
            }),
            finished: Condvar::new(),
        });
        self.submit(Arc::clone(&batch), 1);
        let rb = catch_unwind(AssertUnwindSafe(b));
        let on_caller = self.claim_back(&batch);
        let helper_panic = if on_caller { None } else { batch.wait() };
        let rb = rb.unwrap_or_else(|payload| resume_unwind(payload));
        if let Some(payload) = helper_panic {
            resume_unwind(payload);
        }
        let task = lock(&slot).take();
        let ra = match task {
            JoinSlot::Task(a) => a(),
            JoinSlot::Done(ra) => ra,
            JoinSlot::Claimed => unreachable!("a helper that claims the task completes or panics"),
        };
        (ra, rb)
    }

    /// Enqueue a batch and make sure at least `helpers` pool threads
    /// exist to serve it.
    fn submit(&self, batch: Arc<Batch>, helpers: usize) {
        let mut state = self.shared.state.lock().expect("pool state poisoned"); // dses-lint: allow(panic-hygiene) -- poisoned lock means a worker panicked; that panic is already propagating
        while state.spawned < helpers {
            let shared = Arc::clone(&self.shared);
            let id = state.spawned;
            std::thread::Builder::new()
                // dses-lint: allow(loop-alloc, no-alloc-transitive) -- names the pool threads; this loop runs once per worker at pool growth, never per job or per offer
                .name(format!("dses-pool-{id}"))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn pool worker"); // dses-lint: allow(panic-hygiene) -- cannot run a sweep without threads; abort is the only option
            state.spawned += 1;
        }
        state.queue.push_back(batch);
        drop(state);
        self.shared.work_ready.notify_all();
    }

    /// Claim a one-index batch's index for the caller unless a helper
    /// has already started it, and take the batch off the queue: `true`
    /// means the task will not run on a helper, `false` that one has
    /// it (wait for it with [`Batch::wait`]).
    fn claim_back(&self, batch: &Arc<Batch>) -> bool {
        let on_caller = batch.next.fetch_add(1, Ordering::Relaxed) == 0;
        self.retire(batch);
        on_caller
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

/// Run `a` and `b` side by side on the global [`WorkerPool`]: `b` on
/// the caller, `a` on a free pool helper or else after `b`. See
/// [`WorkerPool::join`] for the ordering contract.
pub fn join<RA, RB, A, B>(workers: usize, a: A, b: B) -> (RA, RB)
where
    RA: Send + 'static,
    A: FnOnce() -> RA + Send + 'static,
    B: FnOnce() -> RB,
{
    WorkerPool::global().join(workers, a, b)
}

/// Spin iterations (about 20 µs on the 2-vCPU Xeon) a
/// [`HelperTask::offer`] waits for the last offer's helper to let go of
/// the task before it yields its time slice between checks.
const OFFER_SPINS: usize = 1024;

/// A one-index pool task offered again and again from one allocation:
/// each [`HelperTask::offer`] lets one free pool helper run it while the
/// owner works on, as `join` does for its `a` task, and the owner ends
/// every offer with [`HelperTask::claim_back`] (and, when a helper has
/// the task, [`HelperTask::wait`]).
///
/// The task runs at most once per offer. Between offers the pool holds
/// no clone of it, so re-arming writes nothing a helper could still be
/// reading: `offer` waits while a helper that admitted itself to an
/// earlier offer has not yet let go of the batch (it has finished the
/// task, or it finds the index claimed and returns without running it).
pub struct HelperTask {
    batch: Arc<Batch>,
}

impl HelperTask {
    /// Wrap `run`, which a helper calls once per offer it takes. Nothing
    /// is offered yet.
    pub fn new<F>(run: F) -> Self
    where
        F: Fn() + Send + Sync + 'static,
    {
        Self {
            batch: Arc::new(Batch {
                n: 1,
                // claimed: nothing to start until the first offer
                next: AtomicUsize::new(1),
                admissions: AtomicUsize::new(0),
                // dses-lint: allow(no-alloc-transitive) -- grow-once: built with its owner, then re-offered without allocating
                run: Box::new(move |_| run()),
                done: Mutex::new(BatchDone {
                    completed: 0,
                    panic: None,
                }),
                finished: Condvar::new(),
            }),
        }
    }

    /// Offer the task to `pool`'s helpers, starting one pool thread if
    /// the pool has none.
    ///
    /// Every offer must be ended by [`HelperTask::claim_back`] (and, if
    /// a helper had the task, [`HelperTask::wait`]) before the next one.
    /// A helper of the last offer may still hold the batch then: it has
    /// finished the task, or found its index claimed, and only has to let
    /// go. The offer waits for that, spinning for about 20 µs and then
    /// yielding between checks. The wait ends: the claim-back took the
    /// batch off the queue, so no helper can pick it up again, and no
    /// holder waits for the owner.
    pub fn offer(&self, pool: &WorkerPool) {
        debug_assert!(self.batch.drained(), "the last offer was not claimed back");
        let mut spins = 0;
        while Arc::strong_count(&self.batch) > 1 {
            if spins < OFFER_SPINS {
                std::hint::spin_loop();
                spins += 1;
            } else {
                std::thread::yield_now();
            }
        }
        // pairs with the release decrement of the last helper's clone:
        // whatever it did to the batch happens before the re-arm
        std::sync::atomic::fence(Ordering::Acquire);
        *lock(&self.batch.done) = BatchDone {
            completed: 0,
            panic: None,
        };
        self.batch.admissions.store(1, Ordering::Relaxed);
        // the index opens last, after the accounting it completes into
        self.batch.next.store(0, Ordering::Release);
        pool.submit(Arc::clone(&self.batch), 1);
    }

    /// End the current offer: `true` if no helper had started the task
    /// (it will not run, and the caller does its work itself), `false`
    /// if one had (call [`HelperTask::wait`]). The same claim-back as
    /// [`WorkerPool::join`]'s.
    #[must_use]
    pub fn claim_back(&self, pool: &WorkerPool) -> bool {
        pool.claim_back(&self.batch)
    }

    /// Block until the helper that took the current offer has finished
    /// the task. A panic in the task comes back as `Err` with its
    /// payload, for the caller to re-raise (`resume_unwind`) or, while
    /// tearing down, to drop.
    pub fn wait(&self) -> std::thread::Result<()> {
        match self.batch.wait() {
            Some(payload) => Err(payload),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for HelperTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HelperTask")
            .field("holders", &Arc::strong_count(&self.batch))
            .finish_non_exhaustive()
    }
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
    fn join_returns_both_results_at_any_worker_count() {
        let pool = WorkerPool::new();
        let borrowed = [3u64, 4, 5];
        for workers in [0, 1, 2, 8] {
            let (a, b) = pool.join(workers, || (0..1_000u64).sum::<u64>(), || borrowed.iter().sum::<u64>());
            assert_eq!((a, b), (499_500, 12), "workers = {workers}");
        }
        // nested in the lanes of a busy pool: each lane still gets both
        let pool = Arc::new(pool);
        let inner = Arc::clone(&pool);
        let lanes = pool.run_indexed(8, 2, move |i| inner.join(2, move || i * 10, || i + 1));
        assert_eq!(lanes, (0..8).map(|i| (i * 10, i + 1)).collect::<Vec<_>>());
    }

    #[test]
    fn join_raises_the_panic_of_the_sequential_order() {
        let pool = WorkerPool::new();
        let message = |f: &dyn Fn()| {
            let payload = std::panic::catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
            *payload.downcast::<&str>().expect("a static message")
        };
        // `b` runs first in the sequential order, so its panic wins
        let both = || {
            pool.join(2, || -> u8 { panic!("in a") }, || -> u8 { panic!("in b") });
        };
        assert_eq!(message(&both), "in b");
        let only_a = || {
            pool.join(2, || -> u8 { panic!("in a") }, || 1u8);
        };
        assert_eq!(message(&only_a), "in a");
        // the pool survives both
        assert_eq!(pool.join(2, || 1, || 2), (1, 2));
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

    /// Whether `cond` holds within ten seconds.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let start = std::time::Instant::now();
        while !cond() {
            if start.elapsed() > std::time::Duration::from_secs(10) {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Occupy every helper of a fresh `pool` (it gets one) with a task
    /// that waits for the returned flag; returns once the helper is in.
    fn hold_the_helper(pool: &Arc<WorkerPool>) -> (Arc<AtomicUsize>, std::thread::JoinHandle<()>) {
        let release = Arc::new(AtomicUsize::new(0));
        let entered = Arc::new(AtomicUsize::new(0));
        let holder = {
            let (pool, release, entered) =
                (Arc::clone(pool), Arc::clone(&release), Arc::clone(&entered));
            std::thread::spawn(move || {
                // two indices on two workers: the submitter blocks on one,
                // so the pool's helper must take the other
                pool.run_indexed(2, 2, move |_| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    while release.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                });
            })
        };
        assert!(eventually(|| entered.load(Ordering::SeqCst) == 2));
        assert_eq!(pool.spawned_workers(), 1);
        (release, holder)
    }

    #[test]
    fn helper_task_runs_at_most_once_per_offer() {
        let pool = WorkerPool::new();
        let runs = Arc::new(AtomicUsize::new(0));
        let task = {
            let runs = Arc::clone(&runs);
            HelperTask::new(move || {
                runs.fetch_add(1, Ordering::SeqCst);
            })
        };
        let mut on_helpers = 0;
        for round in 0..40 {
            task.offer(&pool);
            if round % 2 == 1 {
                // let a helper take this one
                assert!(eventually(|| runs.load(Ordering::SeqCst) == on_helpers + 1));
            }
            if !task.claim_back(&pool) {
                task.wait().expect("the task does not panic");
                on_helpers += 1;
            }
            // a second claim-back finds the index taken and runs nothing
            assert!(!task.claim_back(&pool));
            assert_eq!(runs.load(Ordering::SeqCst), on_helpers, "round {round}");
        }
        assert!(on_helpers >= 20, "every odd round ran on a helper");
        // nothing runs between offers
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(runs.load(Ordering::SeqCst), on_helpers);
    }

    #[test]
    fn helper_task_claimed_back_before_start_returns_to_the_caller() {
        let pool = Arc::new(WorkerPool::new());
        let (release, holder) = hold_the_helper(&pool);
        let ran = Arc::new(AtomicUsize::new(0));
        let task = {
            let ran = Arc::clone(&ran);
            HelperTask::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        task.offer(&pool);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            task.claim_back(&pool),
            "no helper was free: the work is the caller's"
        );
        release.store(1, Ordering::SeqCst);
        holder.join().expect("the holder finishes");
        // the freed helper finds nothing to start
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        // and the task can be offered again
        task.offer(&pool);
        assert!(eventually(|| ran.load(Ordering::SeqCst) == 1));
        assert!(!task.claim_back(&pool));
        task.wait().expect("the task does not panic");
    }

    #[test]
    fn helper_task_panic_comes_back_at_the_wait() {
        let pool = WorkerPool::new();
        let started = Arc::new(AtomicUsize::new(0));
        let task = {
            let started = Arc::clone(&started);
            HelperTask::new(move || {
                started.fetch_add(1, Ordering::SeqCst);
                panic!("in the helper task");
            })
        };
        task.offer(&pool);
        assert!(eventually(|| started.load(Ordering::SeqCst) == 1));
        assert!(!task.claim_back(&pool));
        let payload = task.wait().expect_err("the helper's panic comes back");
        assert_eq!(
            *payload.downcast::<&str>().expect("a static message"),
            "in the helper task"
        );
        // the pool and the task survive it
        assert_eq!(pool.run_indexed(4, 2, |i| i * 2), vec![0, 2, 4, 6]);
        task.offer(&pool);
        assert!(eventually(|| started.load(Ordering::SeqCst) == 2));
        assert!(!task.claim_back(&pool));
        assert!(task.wait().is_err());
    }

    #[test]
    fn helper_task_offered_again_after_completion_runs_again() {
        let pool = WorkerPool::new();
        let runs = Arc::new(AtomicUsize::new(0));
        let task = {
            let runs = Arc::clone(&runs);
            HelperTask::new(move || {
                runs.fetch_add(1, Ordering::SeqCst);
            })
        };
        for expected in 1..=5 {
            task.offer(&pool);
            assert!(eventually(|| runs.load(Ordering::SeqCst) == expected));
            assert!(!task.claim_back(&pool));
            task.wait().expect("the task does not panic");
        }
        assert_eq!(pool.spawned_workers(), 1, "one helper serves every offer");
    }
}
