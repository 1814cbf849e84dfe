//! The policy-facing view of the system and the dispatcher interface.

use dses_dist::Rng64;
use dses_workload::Job;

/// What a dispatch-on-arrival policy may observe about one host at the
/// instant a job arrives.
///
/// The paper's policies use exactly these observables: Shortest-Queue
/// reads [`HostView::queue_len`], Least-Work-Left reads
/// [`HostView::work_left`], and the static policies (Random, Round-Robin,
/// SITA) read neither.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostView {
    /// Number of jobs at the host (queued + in service).
    pub queue_len: usize,
    /// Total unfinished work at the host, in seconds: remaining service
    /// of the job in service plus full sizes of queued jobs.
    pub work_left: f64,
}

/// A snapshot of the whole system at a dispatch instant.
#[derive(Debug)]
pub struct SystemState<'a> {
    /// Current simulation time.
    pub now: f64,
    /// Per-host observables, indexed by host id `0..h`.
    pub hosts: &'a [HostView],
}

impl SystemState<'_> {
    /// Number of hosts.
    #[must_use]
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Index of a host with the fewest jobs (ties broken by lowest id,
    /// making runs deterministic).
    #[must_use]
    pub fn shortest_queue(&self) -> usize {
        self.hosts
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.queue_len.cmp(&b.queue_len))
            .map(|(i, _)| i)
            // dses-lint: allow(panic-hygiene) -- engines assert hosts >= 1 before any dispatch
            .expect("at least one host")
    }

    /// Index of a host with the least unfinished work (ties broken by
    /// lowest id).
    #[must_use]
    pub fn least_work(&self) -> usize {
        self.hosts
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.work_left.total_cmp(&b.work_left))
            .map(|(i, _)| i)
            // dses-lint: allow(panic-hygiene) -- engines assert hosts >= 1 before any dispatch
            .expect("at least one host")
    }

    /// Like [`SystemState::least_work`] but restricted to a subset of
    /// host indices — used by the paper's §5 grouped SITA+LWL hybrid.
    ///
    /// # Panics
    /// Panics if `subset` is empty or contains an out-of-range index.
    #[must_use]
    pub fn least_work_among(&self, subset: &[usize]) -> usize {
        subset
            .iter()
            .copied()
            .min_by(|&a, &b| self.hosts[a].work_left.total_cmp(&self.hosts[b].work_left))
            // dses-lint: allow(panic-hygiene) -- documented: panics on empty subset
            .expect("subset must be non-empty")
    }
}

/// Which [`HostView`] fields a dispatcher actually reads — the engine's
/// licence to skip maintaining the rest.
///
/// The paper's static policies (Random, Round-Robin, SITA) read neither
/// field, Least-Work-Left reads only [`HostView::work_left`] (which the
/// Lindley `free_at` scalar provides for free), and only Shortest-Queue
/// pays for per-host job counting. [`crate::fast::simulate_dispatch`]
/// selects one of three specialized hot loops from this declaration; all
/// three produce bit-identical schedules, because a dispatcher that does
/// not read a field cannot observe whether it was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateNeeds(u8);

impl StateNeeds {
    /// Reads neither field (static policies): O(1) per job, no host
    /// bookkeeping at all.
    pub const NOTHING: StateNeeds = StateNeeds(0);
    /// Reads [`HostView::work_left`] only (LWL family): heap-free loop.
    pub const WORK_LEFT: StateNeeds = StateNeeds(1);
    /// Reads [`HostView::queue_len`] only (Shortest-Queue): the engine
    /// must track in-system job counts (a per-host completion heap).
    pub const QUEUE_LEN: StateNeeds = StateNeeds(2);
    /// Reads both fields — the safe default for unknown dispatchers.
    pub const ALL: StateNeeds = StateNeeds(3);

    /// Whether [`HostView::work_left`] must be populated.
    #[must_use]
    pub fn needs_work_left(self) -> bool {
        self.0 & Self::WORK_LEFT.0 != 0
    }

    /// Whether [`HostView::queue_len`] must be populated.
    #[must_use]
    pub fn needs_queue_len(self) -> bool {
        self.0 & Self::QUEUE_LEN.0 != 0
    }
}

impl std::ops::BitOr for StateNeeds {
    type Output = StateNeeds;
    fn bitor(self, rhs: StateNeeds) -> StateNeeds {
        StateNeeds(self.0 | rhs.0)
    }
}

/// An engine-recognised closed form of a dispatcher's decision rule.
///
/// [`Dispatcher::dispatch_kernel`] lets a policy *declare* that its
/// `dispatch` is one of a few fixed formulas the fast engine knows how to
/// inline — replacing the per-job virtual call with branchless
/// straight-line code. The contract: the declared kernel must be
/// **observationally identical** to `dispatch` — the same host for
/// every job *and* the same RNG consumption — starting
/// from the freshly [`Dispatcher::reset`] policy. The engine maintains
/// the kernel's running state (e.g. the round-robin cursor) itself and
/// may leave the policy's own fields untouched, so policies must
/// re-initialise fully in `reset` rather than rely on post-run state.
///
/// Declaring a kernel that disagrees with `dispatch` desynchronises the
/// specialized engine from the reference engines; the cross-engine
/// identity gates (`tests/kernels.rs`, `perf_report`) catch it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DispatchKernel<'a> {
    /// No closed form — the engine calls [`Dispatcher::dispatch`].
    Opaque,
    /// `rng.below(hosts)`: uniformly random host, one draw per job.
    UniformRandom,
    /// Cyclic `0, 1, …, hosts−1, 0, …` starting at host 0; no RNG.
    RoundRobin,
    /// Size-interval split: the target is
    /// `cutoffs.partition_point(|c| size > c)` over strictly increasing
    /// cutoffs (host `i` serves sizes in `(cutoffs[i−1], cutoffs[i]]`);
    /// no RNG. `cutoffs.len()` must be `< hosts` for every size to map
    /// to a valid host.
    SizeInterval(&'a [f64]),
    /// [`SystemState::least_work`]: least unfinished work, ties to the
    /// lowest host index; no RNG.
    LeastWorkLeft,
}

/// A task-assignment policy that picks a host the moment a job arrives.
///
/// Implementations live in `dses-core`; the engine hands them the job,
/// the system snapshot, and a random stream, and they return a host index
/// in `0..state.num_hosts()`.
pub trait Dispatcher {
    /// Choose the host for `job`.
    fn dispatch(&mut self, job: &Job, state: &SystemState<'_>, rng: &mut Rng64) -> usize;

    /// Human-readable policy name for reports.
    fn name(&self) -> String {
        "unnamed".to_string()
    }

    /// Reset any internal state (e.g. Round-Robin's counter) before a run.
    fn reset(&mut self) {}

    /// Which [`HostView`] fields [`Dispatcher::dispatch`] reads.
    ///
    /// The default claims everything, which is always correct; policies
    /// that read less should narrow it so the fast engine can drop the
    /// corresponding bookkeeping. Declaring less than `dispatch` actually
    /// reads yields views with stale zeros in the undeclared fields.
    fn state_needs(&self) -> StateNeeds {
        StateNeeds::ALL
    }

    /// The closed-form [`DispatchKernel`] this policy's `dispatch`
    /// implements, if any.
    ///
    /// The default (`Opaque`) is always correct; declaring a kernel lets
    /// the fast engine inline the decision rule.
    /// See [`DispatchKernel`] for the exact contract.
    fn dispatch_kernel(&self) -> DispatchKernel<'_> {
        DispatchKernel::Opaque
    }
}

/// Boxed dispatchers forward every method to the inner policy, so a
/// `Box<dyn Dispatcher>` exposes the inner policy's declarations instead
/// of the trait defaults. `BuiltPolicy::Dispatch` in `dses-core` hands
/// policies out boxed, and slices of boxes can be passed straight to
/// [`crate::simulate_dispatch_fused_into`] (the repo benchmark does).
impl<P: Dispatcher + ?Sized> Dispatcher for Box<P> {
    fn dispatch(&mut self, job: &Job, state: &SystemState<'_>, rng: &mut Rng64) -> usize {
        (**self).dispatch(job, state, rng)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn state_needs(&self) -> StateNeeds {
        (**self).state_needs()
    }
    fn dispatch_kernel(&self) -> DispatchKernel<'_> {
        (**self).dispatch_kernel()
    }
}

/// Order in which a central queue hands jobs to idle hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// First-come-first-served — the paper's **Central-Queue** policy,
    /// provably equivalent to Least-Work-Left (\[11\], §3.1).
    Fcfs,
    /// Shortest-Job-First — the size-favouring discipline the paper's §8
    /// discussion points to (requires size knowledge; unfair without
    /// SITA-U's compensation).
    Sjf,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(data: &[(usize, f64)]) -> Vec<HostView> {
        data.iter()
            .map(|&(q, w)| HostView {
                queue_len: q,
                work_left: w,
            })
            .collect()
    }

    #[test]
    fn shortest_queue_picks_minimum() {
        let hosts = views(&[(3, 10.0), (1, 50.0), (2, 5.0)]);
        let s = SystemState { now: 0.0, hosts: &hosts };
        assert_eq!(s.shortest_queue(), 1);
    }

    #[test]
    fn shortest_queue_breaks_ties_by_lowest_index() {
        let hosts = views(&[(2, 10.0), (2, 1.0), (3, 0.0)]);
        let s = SystemState { now: 0.0, hosts: &hosts };
        assert_eq!(s.shortest_queue(), 0);
    }

    #[test]
    fn least_work_picks_minimum() {
        let hosts = views(&[(0, 10.0), (5, 2.0), (1, 7.0)]);
        let s = SystemState { now: 0.0, hosts: &hosts };
        assert_eq!(s.least_work(), 1);
    }

    #[test]
    fn least_work_tie_goes_to_lowest_index() {
        let hosts = views(&[(0, 4.0), (0, 4.0)]);
        let s = SystemState { now: 0.0, hosts: &hosts };
        assert_eq!(s.least_work(), 0);
    }

    #[test]
    fn least_work_among_subset() {
        let hosts = views(&[(0, 1.0), (0, 5.0), (0, 3.0), (0, 2.0)]);
        let s = SystemState { now: 0.0, hosts: &hosts };
        assert_eq!(s.least_work_among(&[1, 2, 3]), 3);
        assert_eq!(s.least_work_among(&[1]), 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn least_work_among_empty_panics() {
        let hosts = views(&[(0, 1.0)]);
        let s = SystemState { now: 0.0, hosts: &hosts };
        let _ = s.least_work_among(&[]);
    }

    #[test]
    fn state_needs_flags() {
        assert!(!StateNeeds::NOTHING.needs_work_left());
        assert!(!StateNeeds::NOTHING.needs_queue_len());
        assert!(StateNeeds::WORK_LEFT.needs_work_left());
        assert!(!StateNeeds::WORK_LEFT.needs_queue_len());
        assert!(!StateNeeds::QUEUE_LEN.needs_work_left());
        assert!(StateNeeds::QUEUE_LEN.needs_queue_len());
        assert!(StateNeeds::ALL.needs_work_left());
        assert!(StateNeeds::ALL.needs_queue_len());
        assert_eq!(StateNeeds::WORK_LEFT | StateNeeds::QUEUE_LEN, StateNeeds::ALL);
        assert_eq!(StateNeeds::NOTHING | StateNeeds::WORK_LEFT, StateNeeds::WORK_LEFT);
    }

    #[test]
    fn dispatcher_default_needs_everything() {
        struct Blind;
        impl Dispatcher for Blind {
            fn dispatch(&mut self, _: &Job, _: &SystemState<'_>, _: &mut Rng64) -> usize {
                0
            }
        }
        assert_eq!(Blind.state_needs(), StateNeeds::ALL);
    }
}
