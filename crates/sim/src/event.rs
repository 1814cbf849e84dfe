//! The general event-driven engine.
//!
//! This is the "honest" simulator: an event queue of arrivals and
//! departures drives per-host state machines. It supports both execution
//! models in the paper:
//!
//! * **dispatch-on-arrival** — a [`Dispatcher`] policy routes each job to
//!   a host queue the moment it arrives (Random, Round-Robin,
//!   Shortest-Queue, Least-Work-Left, SITA-*);
//! * **central queue** — jobs wait at the dispatcher and an idle host
//!   pulls the next job per a [`QueueDiscipline`] (the paper's
//!   Central-Queue policy under FCFS; SJF as the §8 extension).
//!
//! Tie-breaking is deterministic: at equal times, departures are
//! processed before arrivals (a host that frees exactly when a job
//! arrives is seen as idle), matching the Lindley-recursion semantics of
//! the fast engine so the two agree bit-for-bit.
//!
//! Like the fast engine, all per-run state (host state machines, the
//! departure heap, the central waiting room) lives in an
//! `EventWorkspace` inside a [`SimWorkspace`]: `run_dispatch_into` /
//! `run_central_queue_into` borrow one explicitly and reset it without
//! freeing; the plain entry points use the thread-local workspace.

use std::collections::VecDeque;

use crate::fast::OrdF64;
use crate::metrics::{JobRecord, MetricsConfig, SimResult};
use crate::state::{Dispatcher, HostView, QueueDiscipline, SystemState};
use crate::workspace::{with_thread_workspace, SimWorkspace};
use dses_dist::Rng64;
use dses_workload::{Job, Trace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A host's state machine: at most one job in service plus a FIFO queue.
#[derive(Debug)]
struct Host {
    /// job in service: (job, service start, completion time)
    serving: Option<(Job, f64, f64)>,
    /// waiting room, FCFS order
    queue: VecDeque<Job>,
    /// time the host drains all accepted work — maintained with exactly
    /// the Lindley update the fast engine uses (`max(free_at, now) +
    /// size/speed`), so the two engines present bit-identical `work_left`
    /// views and make identical near-tie decisions
    free_at: f64,
    /// service speed relative to the reference host
    speed: f64,
}

impl Host {
    fn new(speed: f64, backlog: usize) -> Self {
        Self {
            serving: None,
            // dses-lint: allow(no-alloc-transitive) -- grow-once: hosts are built on a workspace's first run of a shape, then reused
            queue: VecDeque::with_capacity(backlog),
            free_at: 0.0,
            speed,
        }
    }

    /// Return to the initial state for a new run, keeping the queue's
    /// allocation and adopting this run's `speed`.
    fn reset(&mut self, speed: f64) {
        self.serving = None;
        self.queue.clear();
        self.free_at = 0.0;
        self.speed = speed;
    }

    fn view(&self, now: f64) -> HostView {
        let in_service = usize::from(self.serving.is_some());
        HostView {
            queue_len: self.queue.len() + in_service,
            work_left: (self.free_at - now).max(0.0),
        }
    }

    fn is_idle(&self) -> bool {
        self.serving.is_none() && self.queue.is_empty()
    }

    /// Account for an accepted job (Lindley update), mirroring the fast
    /// engine's assignment arithmetic.
    // dses-lint: divides(1)
    fn accept(&mut self, job: &Job, now: f64) {
        self.free_at = self.free_at.max(now) + job.size / self.speed;
    }

    /// Begin serving `job` at `now`; returns the completion time.
    // dses-lint: divides(1)
    fn start_service(&mut self, job: Job, now: f64) -> f64 {
        debug_assert!(self.serving.is_none(), "host already busy");
        let completion = now + job.size / self.speed;
        self.serving = Some((job, now, completion));
        completion
    }

    fn enqueue(&mut self, job: Job) {
        self.queue.push_back(job);
    }

    fn dequeue(&mut self) -> Option<Job> {
        self.queue.pop_front()
    }
}

/// Reusable state for the event-driven engine: host state machines, the
/// departure heap, policy views, and the central-queue waiting room.
/// Lives inside [`SimWorkspace`]; reset (without freeing) at the start of
/// every run.
#[derive(Debug)]
pub(crate) struct EventWorkspace {
    hosts: Vec<Host>,
    departures: BinaryHeap<Reverse<(OrdF64, usize)>>,
    views: Vec<HostView>,
    /// central waiting room, FCFS order
    fcfs: VecDeque<Job>,
    /// SJF: min-heap on (size, job id) — FCFS among equals, since the id
    /// is the job's trace index, from which the popped job is rebuilt
    sjf: BinaryHeap<Reverse<(OrdF64, u64)>>,
}

impl EventWorkspace {
    pub(crate) fn new() -> Self {
        Self {
            hosts: Vec::new(),
            departures: BinaryHeap::new(),
            views: Vec::new(),
            fcfs: VecDeque::new(),
            sjf: BinaryHeap::new(),
        }
    }

    /// Shape the workspace for a run over hosts with `speeds`, keeping
    /// every allocation. `backlog` sizes each host's waiting room (and
    /// the central room) from the trace, replacing the old fixed
    /// capacities that regrew mid-simulation on large runs.
    fn reset(&mut self, speeds: &[f64], backlog: usize) {
        let hosts = speeds.len();
        self.hosts.truncate(hosts);
        for (host, &speed) in self.hosts.iter_mut().zip(speeds) {
            host.reset(speed);
            host.queue.reserve(backlog.saturating_sub(host.queue.capacity()));
        }
        while self.hosts.len() < hosts {
            self.hosts.push(Host::new(speeds[self.hosts.len()], backlog));
        }
        self.departures.clear();
        // at most one in-service job per host can sit in the heap
        self.departures.reserve(hosts.saturating_sub(self.departures.capacity()));
        self.views.clear();
        self.views.resize(
            hosts,
            HostView {
                queue_len: 0,
                work_left: 0.0,
            },
        );
        self.fcfs.clear();
        self.fcfs.reserve(backlog.saturating_sub(self.fcfs.capacity()));
        self.sjf.clear();
        self.sjf.reserve(backlog.saturating_sub(self.sjf.capacity()));
    }
}

/// The event-driven engine.
#[derive(Debug, Clone)]
pub struct EventEngine {
    speeds: Vec<f64>,
    cfg: MetricsConfig,
}

impl EventEngine {
    /// Create an engine for `hosts` identical hosts.
    #[must_use]
    pub fn new(hosts: usize, cfg: MetricsConfig) -> Self {
        assert!(hosts > 0, "need at least one host");
        Self {
            speeds: vec![1.0; hosts],
            cfg,
        }
    }

    /// Create an engine with per-host speeds (see
    /// [`crate::fast::simulate_dispatch_speeds`] for the convention).
    #[must_use]
    pub fn with_speeds(speeds: Vec<f64>, cfg: MetricsConfig) -> Self {
        assert!(!speeds.is_empty(), "need at least one host");
        assert!(
            speeds.iter().all(|&s| s > 0.0 && s.is_finite()),
            "host speeds must be positive and finite"
        );
        Self { speeds, cfg }
    }

    fn num_hosts(&self) -> usize {
        self.speeds.len()
    }

    /// Run a dispatch-on-arrival policy. Produces exactly the schedule of
    /// [`crate::fast::simulate_dispatch`]. Uses the thread-local
    /// workspace; see [`EventEngine::run_dispatch_into`].
    #[must_use]
    pub fn run_dispatch<P: Dispatcher + ?Sized>(
        &self,
        trace: &Trace,
        policy: &mut P,
        seed: u64,
    ) -> SimResult {
        with_thread_workspace(|ws| {
            let mut out = SimResult::empty();
            self.run_dispatch_into(trace, policy, seed, ws, &mut out);
            out
        })
    }

    /// [`EventEngine::run_dispatch`] through caller-owned buffers
    /// (allocation-free in steady state, like
    /// [`crate::fast::simulate_dispatch_into`]).
    ///
    /// Five static divide sites: the Lindley update in `Host::accept`,
    /// the completion time in `Host::start_service`, and the three of
    /// [`Collector::record`](crate::metrics::Collector::record) — the oracle
    /// engine pays for clarity what the fast kernels hoist.
    // dses-lint: divides(5)
    // dses-lint: deny(alloc)
    pub fn run_dispatch_into<P: Dispatcher + ?Sized>(
        &self,
        trace: &Trace,
        policy: &mut P,
        seed: u64,
        ws: &mut SimWorkspace,
        out: &mut SimResult,
    ) {
        policy.reset();
        let mut rng = Rng64::seed_from(seed).stream(0xD15);
        ws.event.reset(&self.speeds, trace.backlog_hint(self.num_hosts()));
        ws.collector.reset(self.num_hosts(), self.cfg, trace.len());
        let SimWorkspace {
            collector, event, ..
        } = ws;
        let hosts = &mut event.hosts;
        let departures = &mut event.departures;
        let views = &mut event.views;
        let arrivals = trace.arrivals();
        let mut next = 0usize;
        loop {
            let arrival_time = arrivals.get(next).copied();
            let departure_time = departures.peek().map(|Reverse((OrdF64(t), _))| *t);
            match (arrival_time, departure_time) {
                (None, None) => break,
                // departures first on ties: `d <= a`
                (a, Some(d)) if a.is_none_or(|a| d <= a) => {
                    // dses-lint: allow(panic-hygiene) -- heap non-empty: this arm matched Some(d)
                    let Reverse((OrdF64(now), h)) = departures.pop().expect("peeked");
                    let (job, start, completion) =
                        // dses-lint: allow(panic-hygiene) -- a departure is scheduled only while serving
                        hosts[h].serving.take().expect("departure from idle host");
                    debug_assert_eq!(completion, now);
                    collector.record(JobRecord {
                        id: job.id,
                        arrival: job.arrival,
                        size: job.size,
                        start,
                        completion,
                        host: h,
                    });
                    if let Some(nextjob) = hosts[h].dequeue() {
                        let c = hosts[h].start_service(nextjob, now);
                        departures.push(Reverse((OrdF64(c), h)));
                    }
                }
                (Some(now), _) => {
                    let job = trace.job(next);
                    next += 1;
                    for (v, h) in views.iter_mut().zip(hosts.iter()) {
                        *v = h.view(now);
                    }
                    let state = SystemState {
                        now,
                        hosts: views.as_slice(),
                    };
                    let target = policy.dispatch(&job, &state, &mut rng);
                    assert!(
                        target < self.num_hosts(),
                        "policy {} returned host {target} of {}",
                        // dses-lint: allow(no-alloc-transitive) -- name() formats only on the assert failure path
                        policy.name(),
                        self.num_hosts()
                    );
                    hosts[target].accept(&job, now);
                    if hosts[target].serving.is_none() {
                        let c = hosts[target].start_service(job, now);
                        departures.push(Reverse((OrdF64(c), target)));
                    } else {
                        hosts[target].enqueue(job);
                    }
                }
                (None, Some(_)) => unreachable!("covered by the departure arm"),
            }
        }
        collector.finish_into(out);
    }

    /// Run a central-queue policy: jobs are held at the dispatcher and an
    /// idle host (lowest index first) pulls the next job per `discipline`.
    /// Uses the thread-local workspace; see
    /// [`EventEngine::run_central_queue_into`].
    #[must_use]
    pub fn run_central_queue(&self, trace: &Trace, discipline: QueueDiscipline) -> SimResult {
        with_thread_workspace(|ws| {
            let mut out = SimResult::empty();
            self.run_central_queue_into(trace, discipline, ws, &mut out);
            out
        })
    }

    /// [`EventEngine::run_central_queue`] through caller-owned buffers.
    ///
    /// Four static divide sites: the completion time in
    /// `Host::start_service` and the three of
    /// [`Collector::record`](crate::metrics::Collector::record).
    // dses-lint: divides(4)
    // dses-lint: deny(alloc)
    pub fn run_central_queue_into(
        &self,
        trace: &Trace,
        discipline: QueueDiscipline,
        ws: &mut SimWorkspace,
        out: &mut SimResult,
    ) {
        ws.event.reset(&self.speeds, trace.backlog_hint(1));
        ws.collector.reset(self.num_hosts(), self.cfg, trace.len());
        let SimWorkspace {
            collector, event, ..
        } = ws;
        let hosts = &mut event.hosts;
        let departures = &mut event.departures;
        let fcfs = &mut event.fcfs;
        let sjf = &mut event.sjf;
        let push_central = |job: Job,
                            fcfs: &mut VecDeque<Job>,
                            sjf: &mut BinaryHeap<Reverse<(OrdF64, u64)>>| {
            match discipline {
                QueueDiscipline::Fcfs => fcfs.push_back(job),
                QueueDiscipline::Sjf => sjf.push(Reverse((OrdF64(job.size), job.id))),
            }
        };
        let pop_central =
            |fcfs: &mut VecDeque<Job>, sjf: &mut BinaryHeap<Reverse<(OrdF64, u64)>>| {
                match discipline {
                    QueueDiscipline::Fcfs => fcfs.pop_front(),
                    QueueDiscipline::Sjf => {
                        let Reverse((_, id)) = sjf.pop()?;
                        Some(trace.job(id as usize))
                    }
                }
            };
        let arrivals = trace.arrivals();
        let mut next = 0usize;
        loop {
            let arrival_time = arrivals.get(next).copied();
            let departure_time = departures.peek().map(|Reverse((OrdF64(t), _))| *t);
            match (arrival_time, departure_time) {
                (None, None) => break,
                (a, Some(d)) if a.is_none_or(|a| d <= a) => {
                    // dses-lint: allow(panic-hygiene) -- heap non-empty: this arm matched Some(d)
                    let Reverse((OrdF64(now), h)) = departures.pop().expect("peeked");
                    let (job, start, completion) =
                        // dses-lint: allow(panic-hygiene) -- a departure is scheduled only while serving
                        hosts[h].serving.take().expect("departure from idle host");
                    collector.record(JobRecord {
                        id: job.id,
                        arrival: job.arrival,
                        size: job.size,
                        start,
                        completion,
                        host: h,
                    });
                    if let Some(nextjob) = pop_central(fcfs, sjf) {
                        let c = hosts[h].start_service(nextjob, now);
                        departures.push(Reverse((OrdF64(c), h)));
                    }
                }
                (Some(now), _) => {
                    let job = trace.job(next);
                    next += 1;
                    match hosts.iter().position(Host::is_idle) {
                        Some(h) => {
                            let c = hosts[h].start_service(job, now);
                            departures.push(Reverse((OrdF64(c), h)));
                        }
                        None => push_central(job, fcfs, sjf),
                    }
                }
                (None, Some(_)) => unreachable!("covered by the departure arm"),
            }
        }
        collector.finish_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::simulate_dispatch;

    struct MiniLwl;
    impl Dispatcher for MiniLwl {
        fn dispatch(&mut self, _: &Job, s: &SystemState<'_>, _: &mut Rng64) -> usize {
            s.least_work()
        }
        fn name(&self) -> String {
            "lwl".into()
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

    fn records_cfg() -> MetricsConfig {
        MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        }
    }

    #[test]
    fn event_engine_matches_fast_engine_exactly() {
        let t = trace(&[
            (0.0, 5.0),
            (1.0, 1.0),
            (1.5, 8.0),
            (2.0, 0.5),
            (7.0, 3.0),
            (7.0, 2.0), // simultaneous arrivals
            (20.0, 1.0),
        ]);
        let fast = simulate_dispatch(&t, 2, &mut MiniLwl, 0, records_cfg());
        let ev = EventEngine::new(2, records_cfg()).run_dispatch(&t, &mut MiniLwl, 0);
        let mut fr = fast.records.unwrap();
        let mut er = ev.records.unwrap();
        fr.sort_by_key(|r| r.id);
        er.sort_by_key(|r| r.id);
        assert_eq!(fr, er);
    }

    #[test]
    fn explicit_workspace_matches_thread_local_path() {
        let t = trace(&[(0.0, 5.0), (1.0, 1.0), (1.5, 8.0), (2.0, 0.5)]);
        let engine = EventEngine::new(2, records_cfg());
        let implicit = engine.run_dispatch(&t, &mut MiniLwl, 0);
        let mut ws = SimWorkspace::new();
        let mut out = SimResult::empty();
        engine.run_dispatch_into(&t, &mut MiniLwl, 0, &mut ws, &mut out);
        assert_eq!(implicit.records.unwrap(), out.records.clone().unwrap());
        // and the central queue through the same (now dirty) workspace
        let implicit = engine.run_central_queue(&t, QueueDiscipline::Sjf);
        engine.run_central_queue_into(&t, QueueDiscipline::Sjf, &mut ws, &mut out);
        assert_eq!(implicit.records.unwrap(), out.records.unwrap());
    }

    #[test]
    fn central_queue_fcfs_hand_schedule() {
        // 2 hosts. Jobs: (0,10), (0,10) occupy both; (1, 2) waits; first
        // host frees at 10 → job 2 starts at 10.
        let t = trace(&[(0.0, 10.0), (0.0, 10.0), (1.0, 2.0)]);
        let r = EventEngine::new(2, records_cfg()).run_central_queue(&t, QueueDiscipline::Fcfs);
        let recs = r.records.unwrap();
        let j2 = recs.iter().find(|r| r.id == 2).unwrap();
        assert_eq!(j2.start, 10.0);
        assert_eq!(j2.completion, 12.0);
    }

    #[test]
    fn central_queue_sjf_reorders_by_size() {
        // one host busy until t=10; three waiting jobs of sizes 5, 1, 3
        // SJF serves 1, then 3, then 5.
        let t = trace(&[(0.0, 10.0), (1.0, 5.0), (2.0, 1.0), (3.0, 3.0)]);
        let r = EventEngine::new(1, records_cfg()).run_central_queue(&t, QueueDiscipline::Sjf);
        let recs = r.records.unwrap();
        let by_id: Vec<f64> = (0..4)
            .map(|id| recs.iter().find(|r| r.id == id).unwrap().start)
            .collect();
        assert_eq!(by_id, vec![0.0, 14.0, 10.0, 11.0]);
    }

    #[test]
    fn sjf_is_fcfs_among_equal_sizes() {
        let t = trace(&[(0.0, 10.0), (1.0, 2.0), (2.0, 2.0)]);
        let r = EventEngine::new(1, records_cfg()).run_central_queue(&t, QueueDiscipline::Sjf);
        let recs = r.records.unwrap();
        let j1 = recs.iter().find(|r| r.id == 1).unwrap();
        let j2 = recs.iter().find(|r| r.id == 2).unwrap();
        assert!(j1.start < j2.start, "ties must preserve arrival order");
    }

    #[test]
    fn departure_processed_before_simultaneous_arrival() {
        // host busy exactly until t=5; a job arriving at t=5 must start
        // immediately (host seen idle).
        let t = trace(&[(0.0, 5.0), (5.0, 1.0)]);
        let r = EventEngine::new(1, records_cfg()).run_central_queue(&t, QueueDiscipline::Fcfs);
        let recs = r.records.unwrap();
        let j1 = recs.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(j1.start, 5.0);
        assert_eq!(j1.slowdown(), 1.0);
    }

    #[test]
    fn idle_host_selection_prefers_lowest_index() {
        let t = trace(&[(0.0, 1.0)]);
        let r = EventEngine::new(3, records_cfg()).run_central_queue(&t, QueueDiscipline::Fcfs);
        assert_eq!(r.records.unwrap()[0].host, 0);
    }

    #[test]
    fn all_jobs_complete_and_work_is_conserved() {
        let t = trace(&[(0.0, 3.0), (0.1, 1.0), (0.2, 4.0), (0.3, 1.0), (0.4, 5.0)]);
        for disc in [QueueDiscipline::Fcfs, QueueDiscipline::Sjf] {
            let r = EventEngine::new(2, MetricsConfig::default()).run_central_queue(&t, disc);
            assert_eq!(r.measured, 5);
            let total: f64 = r.per_host.iter().map(|h| h.work).sum();
            assert!((total - 14.0).abs() < 1e-12, "{disc:?}");
        }
    }

    /// FNV-1a over every record's id, start, completion and host, in
    /// record order.
    fn schedule_digest(r: &SimResult) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let records = r.records.as_ref().expect("records requested");
        for rec in records {
            for w in [rec.id, rec.start.to_bits(), rec.completion.to_bits(), rec.host as u64] {
                for b in w.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn central_sjf_schedules_keep_their_pinned_bits() {
        // tie-dense: four simultaneous arrivals per time unit, three sizes,
        // overloaded at h = 1 and 2 so the waiting room stays full of
        // equal-size jobs; and a short C90 trace at load 0.7
        let ties = trace(
            &(0..2_000)
                .map(|i| ((i / 4) as f64, [1.0, 0.5, 1.5, 1.0, 0.5][i * 7 % 5]))
                .collect::<Vec<_>>(),
        );
        let pinned: [(&str, usize, u64); 6] = [
            ("ties", 1, 0x802a_0c4e_921b_0681),
            ("ties", 2, 0x5cfd_9cd0_cf65_7075),
            ("ties", 4, 0xd1fc_23f1_c7f3_bb1b),
            ("c90", 1, 0x5fc0_2741_9e25_eca0),
            ("c90", 2, 0x004a_fcab_51b1_ee3f),
            ("c90", 4, 0xe137_a0b3_601d_63d2),
        ];
        let mut got = Vec::new();
        for &(name, hosts, _) in &pinned {
            let t = if name == "ties" {
                ties.clone()
            } else {
                dses_workload::psc_c90().trace(5_000, 0.7, hosts, 1997)
            };
            let r = EventEngine::new(hosts, records_cfg())
                .run_central_queue(&t, QueueDiscipline::Sjf);
            assert_eq!(r.measured as usize, t.len());
            got.push((name, hosts, schedule_digest(&r)));
        }
        assert_eq!(got, pinned);
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = Trace::new(vec![]);
        let r = EventEngine::new(2, MetricsConfig::default()).run_central_queue(&t, QueueDiscipline::Fcfs);
        assert_eq!(r.measured, 0);
        let r2 = EventEngine::new(2, MetricsConfig::default()).run_dispatch(&t, &mut MiniLwl, 0);
        assert_eq!(r2.measured, 0);
    }
}
