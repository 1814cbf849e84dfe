//! Reusable per-worker simulation state.
//!
//! Every run of the fast engine used to allocate its full working set —
//! host scalars, view buffers, per-host completion containers, the
//! metrics collector with its histogram/percentile/record storage — and
//! drop it on return. A sweep is thousands of runs, so the allocator sat
//! on the hot path.
//!
//! [`SimWorkspace`] owns all of those buffers once. Engines borrow it
//! through the `*_into` entry points ([`crate::fast::simulate_dispatch_into`],
//! [`crate::event::EventEngine::run_dispatch_into`], …), each of which
//! begins by *resetting* — clearing lengths and accumulators without
//! freeing — so after a warm-up run of the largest shape, the steady
//! state of a sweep performs **zero heap allocation per grid point**
//! (`tests/metrics_alloc.rs` gates on the measured count for every
//! kernel class).
//!
//! Reset is also what makes reuse safe: every kernel starts from
//! `reset`-initialized state, so a workspace that last ran a different
//! host count, job count, or policy produces bit-for-bit the same result
//! as a freshly allocated one (`tests/workspace.rs` poisons a workspace
//! deliberately and asserts record-level equality).
//!
//! The convenience wrappers ([`crate::simulate_dispatch`] and friends)
//! reuse a thread-local workspace transparently, so ordinary callers —
//! including every pool worker thread — get the allocation-free steady
//! state without threading `&mut SimWorkspace` themselves.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::event::EventWorkspace;
use crate::fast::OrdF64;
use crate::metrics::{Collector, MetricsConfig};
use crate::state::{HostView, StateNeeds};

/// Every buffer the simulation engines need, owned long-term.
///
/// Construct once per worker (or let the thread-local wrappers do it) and
/// pass to the `*_into` engine entry points; the engines reset what they
/// use at the start of each run.
#[derive(Debug)]
pub struct SimWorkspace {
    /// Lindley scalar per host: when each host drains its assigned work.
    pub(crate) free_at: Vec<f64>,
    /// Host views handed to the policy.
    pub(crate) views: Vec<HostView>,
    /// Per-host FIFO departure deques (any policy that reads
    /// `queue_len`): completion times are monotone per FCFS host, so a
    /// deque replaces a heap.
    pub(crate) fifos: Vec<VecDeque<f64>>,
    /// Tournament heap over the deque *fronts* — at most one entry per
    /// non-empty host — giving an O(1) next-expiry check per arrival
    /// instead of an O(hosts) scan.
    pub(crate) expiry: BinaryHeap<Reverse<(OrdF64, usize)>>,
    /// The streaming metrics collector. Its demand tier and record path
    /// are re-resolved from the run's [`MetricsConfig`] at each reset;
    /// its growable storage — histogram, percentile state and record
    /// buffer — persists here so steady-state sweeps stay
    /// allocation-free.
    pub(crate) collector: Collector,
    /// Event-engine state machines (dispatch + central queue).
    pub(crate) event: EventWorkspace,
    /// Copy of a recognised SITA kernel's cutoffs, taken so the borrow
    /// on the policy ends before the engine needs `&mut policy` again.
    pub(crate) kernel_cutoffs: Vec<f64>,
}

impl SimWorkspace {
    /// An empty workspace; buffers grow on first use and persist.
    #[must_use]
    pub fn new() -> Self {
        Self {
            free_at: Vec::new(),
            views: Vec::new(),
            fifos: Vec::new(),
            expiry: BinaryHeap::new(),
            collector: Collector::new(0, MetricsConfig::default()),
            event: EventWorkspace::new(),
            kernel_cutoffs: Vec::new(),
        }
    }

    /// Reset the fast-engine buffers for a run on `hosts` hosts, keeping
    /// allocations. `backlog` pre-sizes the per-host FIFO deques
    /// (callers pass [`dses_workload::Trace::backlog_hint`], which scales
    /// with jobs-per-host instead of the old fixed 32).
    ///
    /// `needs` is the policy's declaration: the deques and the expiry
    /// heap are (re)shaped only for a policy that reads `queue_len`. A
    /// static or work-left run on `h = 1024` therefore never
    /// materialises 1024 deques it would not touch — the stale ones from
    /// an earlier queue-aware run are left as-is (never read) and
    /// cleared again the next time a loop needs them.
    pub(crate) fn reset_fast(&mut self, hosts: usize, backlog: usize, needs: StateNeeds) {
        self.free_at.clear();
        self.free_at.resize(hosts, 0.0);
        self.views.clear();
        self.views.resize(
            hosts,
            HostView {
                queue_len: 0,
                work_left: 0.0,
            },
        );
        if needs.needs_queue_len() {
            // FIFO deques + the expiry tournament heap shrink the
            // per-host lists only by truncation — capacity stays
            for fifo in &mut self.fifos {
                fifo.clear();
            }
            self.fifos.truncate(hosts);
            while self.fifos.len() < hosts {
                // dses-lint: allow(no-alloc-transitive) -- grow-once: fifos grow on a workspace's first run of a shape, then reused
                self.fifos.push(VecDeque::with_capacity(backlog));
            }
            self.expiry.clear();
            self.expiry.reserve(hosts.saturating_sub(self.expiry.capacity()));
        }
    }
}

impl Default for SimWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// The per-thread workspace behind the convenience wrappers. Taken
    /// out while in use (so a reentrant call — a policy that itself
    /// simulates — falls back to a fresh temporary instead of aliasing).
    static WORKSPACE: RefCell<Option<Box<SimWorkspace>>> = const { RefCell::new(None) };
}

/// Run `f` with this thread's reusable workspace (creating it on first
/// use), putting it back afterwards for the next run on this thread.
pub(crate) fn with_thread_workspace<R>(f: impl FnOnce(&mut SimWorkspace) -> R) -> R {
    WORKSPACE.with(|cell| {
        let taken = cell.borrow_mut().take();
        let mut ws = taken.unwrap_or_else(|| Box::new(SimWorkspace::new()));
        let result = f(&mut ws);
        *cell.borrow_mut() = Some(ws);
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_fast_shapes_buffers() {
        let mut ws = SimWorkspace::new();
        ws.reset_fast(3, 64, StateNeeds::QUEUE_LEN);
        assert_eq!(ws.free_at, vec![0.0; 3]);
        assert_eq!(ws.views.len(), 3);
        assert_eq!(ws.fifos.len(), 3);
        assert!(ws.fifos[0].capacity() >= 64);
        // shrink then regrow: contents always start clean
        ws.free_at[1] = 7.0;
        ws.fifos[2].push_back(1.0);
        ws.expiry.push(Reverse((OrdF64(1.0), 2)));
        ws.reset_fast(2, 64, StateNeeds::QUEUE_LEN);
        assert_eq!(ws.free_at, vec![0.0; 2]);
        assert!(ws.fifos.iter().all(VecDeque::is_empty));
        assert!(ws.expiry.is_empty());
        // a policy reading both fields counts its queues on the same deques
        ws.fifos[1].push_back(3.0);
        ws.reset_fast(3, 64, StateNeeds::ALL);
        assert_eq!(ws.fifos.len(), 3);
        assert!(ws.fifos.iter().all(VecDeque::is_empty));
        ws.reset_fast(5, 64, StateNeeds::QUEUE_LEN);
        assert_eq!(ws.free_at.len(), 5);
        assert_eq!(ws.fifos.len(), 5);
    }

    #[test]
    fn needs_aware_reset_skips_unused_containers() {
        // a static run on many hosts must not materialise per-host
        // deques — that is what lets h=1024 sweeps stay lean
        let mut ws = SimWorkspace::new();
        ws.reset_fast(1024, 32, StateNeeds::NOTHING);
        assert_eq!(ws.free_at.len(), 1024);
        assert_eq!(ws.views.len(), 1024);
        assert!(ws.fifos.is_empty());
        ws.reset_fast(1024, 32, StateNeeds::WORK_LEFT);
        assert!(ws.fifos.is_empty());
    }

    #[test]
    fn thread_workspace_is_reused() {
        let first = with_thread_workspace(|ws| {
            ws.reset_fast(4, 32, StateNeeds::ALL);
            std::ptr::from_ref(&*ws) as usize
        });
        let second = with_thread_workspace(|ws| {
            assert_eq!(ws.free_at.len(), 4, "state persisted between uses");
            std::ptr::from_ref(&*ws) as usize
        });
        assert_eq!(first, second, "same boxed workspace both times");
    }

    #[test]
    fn reentrant_use_gets_a_fresh_temporary() {
        with_thread_workspace(|outer| {
            outer.reset_fast(2, 32, StateNeeds::ALL);
            with_thread_workspace(|inner| {
                assert_eq!(inner.free_at.len(), 0, "inner must not alias outer");
            });
        });
    }
}
