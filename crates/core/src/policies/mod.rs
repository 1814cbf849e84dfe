//! The task-assignment policies.
//!
//! Each policy implements [`dses_sim::Dispatcher`]: given an arriving job
//! and the observable system state, pick a host. The paper's taxonomy:
//!
//! * **static, size-blind** — [`RandomPolicy`], [`RoundRobin`]: the
//!   splitting decision uses no runtime information at all;
//! * **dynamic, size-blind** — [`ShortestQueue`], [`LeastWorkLeft`]:
//!   balance the *instantaneous* backlog (Least-Work-Left is provably
//!   equivalent to the Central-Queue policy, which the engine runs via
//!   [`dses_sim::QueueDiscipline::Fcfs`]);
//! * **static, size-based** — [`SizeInterval`]: SITA policies send each
//!   size band to a dedicated host. The *cutoffs* make the policy:
//!   equal-load cutoffs give SITA-E, the optimised/fairness cutoffs give
//!   the paper's SITA-U-opt and SITA-U-fair (see [`crate::cutoffs`]);
//! * **hybrid** — [`GroupedSita`] (§5): two host *groups* split by one
//!   cutoff, Least-Work-Left inside each group;
//! * **extensions** — [`tags`]: TAGS-style assignment when sizes are
//!   unknown (the paper's reference \[10\]).

pub mod tags;

use dses_dist::Rng64;
use dses_sim::{DispatchKernel, Dispatcher, StateNeeds, SystemState};
use dses_workload::Job;

/// Random assignment: send each job to a uniformly random host.
///
/// Equalises the *expected* number of jobs per host; each host becomes an
/// independent M/G/1 seeing the full (very high) service-time variance.
#[derive(Debug, Clone, Default)]
pub struct RandomPolicy;

impl Dispatcher for RandomPolicy {
    fn dispatch(&mut self, _job: &Job, state: &SystemState<'_>, rng: &mut Rng64) -> usize {
        rng.below(state.num_hosts() as u64) as usize
    }

    fn name(&self) -> String {
        "Random".into()
    }

    fn state_needs(&self) -> StateNeeds {
        StateNeeds::NOTHING
    }

    fn dispatch_kernel(&self) -> DispatchKernel<'_> {
        // dispatch above is exactly one rng.below(hosts) draw per job
        DispatchKernel::UniformRandom
    }
}

/// Round-Robin assignment: job `i` goes to host `i mod h`.
///
/// Slightly smoother interarrivals than Random (each host sees an
/// `E_h/G/1` queue) but still dominated by service-time variance.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl Dispatcher for RoundRobin {
    fn dispatch(&mut self, _job: &Job, state: &SystemState<'_>, _rng: &mut Rng64) -> usize {
        // dses-lint: allow(divide-budget) -- usize ring-index modulo; integer arithmetic, not an FP divide
        let target = self.next % state.num_hosts();
        // dses-lint: allow(divide-budget) -- usize ring-index modulo; integer arithmetic, not an FP divide
        self.next = (self.next + 1) % state.num_hosts();
        target
    }

    fn name(&self) -> String {
        "Round-Robin".into()
    }

    fn reset(&mut self) {
        self.next = 0;
    }

    fn state_needs(&self) -> StateNeeds {
        StateNeeds::NOTHING
    }

    fn dispatch_kernel(&self) -> DispatchKernel<'_> {
        // after reset, dispatch yields 0, 1, …, h−1, 0, … with no RNG
        DispatchKernel::RoundRobin
    }
}

/// Shortest-Queue assignment: send to the host with the fewest jobs
/// (in service + queued), ties to the lowest index.
#[derive(Debug, Clone, Default)]
pub struct ShortestQueue;

impl Dispatcher for ShortestQueue {
    fn dispatch(&mut self, _job: &Job, state: &SystemState<'_>, _rng: &mut Rng64) -> usize {
        state.shortest_queue()
    }

    fn name(&self) -> String {
        "Shortest-Queue".into()
    }

    fn state_needs(&self) -> StateNeeds {
        StateNeeds::QUEUE_LEN
    }
}

/// Least-Work-Left assignment: send to the host with the least unfinished
/// work. Comes closest to instantaneous load balance, and is equivalent
/// to Central-Queue (M/G/h) for any job sequence (\[11\], paper §3.1).
#[derive(Debug, Clone, Default)]
pub struct LeastWorkLeft;

impl Dispatcher for LeastWorkLeft {
    fn dispatch(&mut self, _job: &Job, state: &SystemState<'_>, _rng: &mut Rng64) -> usize {
        state.least_work()
    }

    fn name(&self) -> String {
        "Least-Work-Left".into()
    }

    fn state_needs(&self) -> StateNeeds {
        StateNeeds::WORK_LEFT
    }

    fn dispatch_kernel(&self) -> DispatchKernel<'_> {
        // dispatch is exactly least_work(): leftmost-tie argmin, no RNG
        DispatchKernel::LeastWorkLeft
    }
}

/// Size-Interval Task Assignment: host `i` serves jobs with size in
/// `(cutoffs[i−1], cutoffs[i]]`.
///
/// This single dispatcher is SITA-E, SITA-U-opt, or SITA-U-fair depending
/// purely on where the cutoffs came from — which is the paper's central
/// observation ("what appear to just be parameters … can have a greater
/// effect on performance than anything else", §8).
#[derive(Debug, Clone)]
pub struct SizeInterval {
    cutoffs: Vec<f64>,
    label: String,
}

impl SizeInterval {
    /// Create a size-interval policy with `h − 1` increasing cutoffs and
    /// a display label (e.g. `"SITA-E"`).
    ///
    /// # Panics
    /// Panics if the cutoffs are not strictly increasing and positive.
    #[must_use]
    pub fn new(cutoffs: Vec<f64>, label: impl Into<String>) -> Self {
        assert!(
            cutoffs.iter().all(|c| *c > 0.0 && c.is_finite()),
            "cutoffs must be positive and finite"
        );
        assert!(
            cutoffs.windows(2).all(|w| w[0] < w[1]),
            "cutoffs must be strictly increasing"
        );
        Self {
            cutoffs,
            label: label.into(),
        }
    }

    /// The cutoffs.
    #[must_use]
    pub fn cutoffs(&self) -> &[f64] {
        &self.cutoffs
    }

    /// The host a job of the given size is routed to.
    #[must_use]
    pub fn host_for(&self, size: f64) -> usize {
        self.cutoffs.partition_point(|&c| size > c)
    }
}

impl Dispatcher for SizeInterval {
    fn dispatch(&mut self, job: &Job, state: &SystemState<'_>, _rng: &mut Rng64) -> usize {
        let host = self.host_for(job.size);
        debug_assert!(
            host < state.num_hosts(),
            "{} cutoffs require {} hosts, got {}",
            self.label,
            self.cutoffs.len() + 1,
            state.num_hosts()
        );
        host
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn state_needs(&self) -> StateNeeds {
        StateNeeds::NOTHING
    }

    fn dispatch_kernel(&self) -> DispatchKernel<'_> {
        // host_for is partition_point over the strictly increasing
        // cutoffs — exactly the SizeInterval kernel contract, no RNG
        DispatchKernel::SizeInterval(&self.cutoffs)
    }
}

/// The paper's §5 policy for systems with many hosts: hosts are split
/// into a *short* group and a *long* group by a single 2-host cutoff, and
/// jobs are scheduled within their group by Least-Work-Left.
///
/// ("Each of the SITA-policies uses its 2-host cutoff to decide which
/// jobs are short and which long and schedules the jobs within each group
/// by Least-Work-Left.")
#[derive(Debug, Clone)]
pub struct GroupedSita {
    cutoff: f64,
    short_hosts: usize,
    hosts: usize,
    label: String,
}

impl GroupedSita {
    /// Create a grouped policy: jobs with `size ≤ cutoff` go to hosts
    /// `0..short_group_size`, the rest to the remaining hosts, LWL within
    /// each group.
    ///
    /// # Panics
    /// Panics unless `0 < short_group_size < hosts`.
    #[must_use]
    pub fn new(
        cutoff: f64,
        hosts: usize,
        short_group_size: usize,
        label: impl Into<String>,
    ) -> Self {
        assert!(cutoff > 0.0 && cutoff.is_finite(), "cutoff must be positive");
        assert!(
            short_group_size > 0 && short_group_size < hosts,
            "need at least one host in each group (short {short_group_size} of {hosts})"
        );
        Self {
            cutoff,
            short_hosts: short_group_size,
            hosts,
            label: label.into(),
        }
    }

    /// Number of hosts reserved for short jobs, proportional to the load
    /// share below the cutoff (at least 1 host per group) — the natural
    /// h-host generalisation of the 2-host load split.
    ///
    /// Rounds *up*: under the SITA-U cutoffs the short group is meant to
    /// run underloaded (that is the whole point of the policy), so when
    /// the share doesn't divide evenly the spare capacity goes to the
    /// shorts, never to the already-busy longs.
    #[must_use]
    pub fn short_group_for_load_share(hosts: usize, short_load_share: f64) -> usize {
        assert!(hosts >= 2, "grouping needs at least 2 hosts");
        let raw = (short_load_share * hosts as f64).ceil() as usize;
        raw.clamp(1, hosts - 1)
    }

    /// The size cutoff separating the groups.
    #[must_use]
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Number of hosts in the short group, hosts `0..short_hosts()`.
    #[must_use]
    pub fn short_hosts(&self) -> usize {
        self.short_hosts
    }
}

impl Dispatcher for GroupedSita {
    fn dispatch(&mut self, job: &Job, state: &SystemState<'_>, _rng: &mut Rng64) -> usize {
        let (lo, hi) = if job.size <= self.cutoff {
            (0, self.short_hosts)
        } else {
            (self.short_hosts, self.hosts)
        };
        lo + SystemState {
            now: state.now,
            hosts: &state.hosts[lo..hi],
        }
        .least_work()
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn state_needs(&self) -> StateNeeds {
        StateNeeds::WORK_LEFT
    }

    fn dispatch_kernel(&self) -> DispatchKernel<'_> {
        // dispatch is least_work() over the group's contiguous hosts:
        // leftmost-tie argmin, offset by the group's first host, no RNG
        DispatchKernel::GroupedLeastWork {
            cutoff: self.cutoff,
            short: self.short_hosts,
            end: self.hosts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dses_sim::HostView;

    fn state(hosts: &[HostView]) -> SystemState<'_> {
        SystemState { now: 0.0, hosts }
    }

    fn views(data: &[(usize, f64)]) -> Vec<HostView> {
        data.iter()
            .map(|&(q, w)| HostView {
                queue_len: q,
                work_left: w,
            })
            .collect()
    }

    fn job(size: f64) -> Job {
        Job::new(0, 0.0, size)
    }

    #[test]
    fn random_stays_in_range_and_covers_hosts() {
        let mut p = RandomPolicy;
        let hosts = views(&[(0, 0.0); 4]);
        let mut rng = Rng64::seed_from(1);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            let h = p.dispatch(&job(1.0), &state(&hosts), &mut rng);
            assert!(h < 4);
            seen[h] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobin::default();
        let hosts = views(&[(0, 0.0); 3]);
        let mut rng = Rng64::seed_from(1);
        let seq: Vec<usize> = (0..7)
            .map(|_| p.dispatch(&job(1.0), &state(&hosts), &mut rng))
            .collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
        p.reset();
        assert_eq!(p.dispatch(&job(1.0), &state(&hosts), &mut rng), 0);
    }

    #[test]
    fn shortest_queue_and_least_work_read_state() {
        let hosts = views(&[(3, 1.0), (1, 100.0), (2, 0.5)]);
        let mut rng = Rng64::seed_from(1);
        assert_eq!(
            ShortestQueue.dispatch(&job(1.0), &state(&hosts), &mut rng),
            1
        );
        assert_eq!(
            LeastWorkLeft.dispatch(&job(1.0), &state(&hosts), &mut rng),
            2
        );
    }

    #[test]
    fn size_interval_routes_by_band() {
        let p = SizeInterval::new(vec![10.0, 100.0], "SITA-E");
        assert_eq!(p.host_for(5.0), 0);
        assert_eq!(p.host_for(10.0), 0); // intervals are (lo, hi]
        assert_eq!(p.host_for(10.1), 1);
        assert_eq!(p.host_for(100.0), 1);
        assert_eq!(p.host_for(1e9), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn size_interval_rejects_bad_cutoffs() {
        let _ = SizeInterval::new(vec![10.0, 10.0], "bad");
    }

    #[test]
    fn grouped_sita_uses_lwl_within_group() {
        // 4 hosts, shorts on {0,1}, longs on {2,3}
        let mut p = GroupedSita::new(50.0, 4, 2, "SITA-E/LWL");
        let hosts = views(&[(0, 9.0), (0, 3.0), (0, 8.0), (0, 1.0)]);
        let mut rng = Rng64::seed_from(1);
        assert_eq!(p.dispatch(&job(10.0), &state(&hosts), &mut rng), 1);
        assert_eq!(p.dispatch(&job(500.0), &state(&hosts), &mut rng), 3);
    }

    #[test]
    fn grouped_sita_group_sizing() {
        assert_eq!(GroupedSita::short_group_for_load_share(8, 0.5), 4);
        assert_eq!(GroupedSita::short_group_for_load_share(8, 0.35), 3);
        // clamped so each group keeps at least one host
        assert_eq!(GroupedSita::short_group_for_load_share(8, 0.0), 1);
        assert_eq!(GroupedSita::short_group_for_load_share(8, 1.0), 7);
        assert_eq!(GroupedSita::short_group_for_load_share(2, 0.5), 1);
    }

    #[test]
    #[should_panic(expected = "each group")]
    fn grouped_sita_rejects_empty_group() {
        let _ = GroupedSita::new(50.0, 2, 2, "bad");
    }

    #[test]
    fn declared_state_needs_match_what_dispatch_reads() {
        assert_eq!(RandomPolicy.state_needs(), StateNeeds::NOTHING);
        assert_eq!(RoundRobin::default().state_needs(), StateNeeds::NOTHING);
        assert_eq!(ShortestQueue.state_needs(), StateNeeds::QUEUE_LEN);
        assert_eq!(LeastWorkLeft.state_needs(), StateNeeds::WORK_LEFT);
        assert_eq!(
            SizeInterval::new(vec![1.0], "SITA-E").state_needs(),
            StateNeeds::NOTHING
        );
        let grouped = GroupedSita::new(50.0, 4, 2, "SITA-E/LWL");
        assert_eq!(grouped.state_needs(), StateNeeds::WORK_LEFT);
        assert_eq!(
            grouped.dispatch_kernel(),
            DispatchKernel::GroupedLeastWork {
                cutoff: 50.0,
                short: 2,
                end: 4
            }
        );
    }

    #[test]
    fn policy_names() {
        assert_eq!(RandomPolicy.name(), "Random");
        assert_eq!(RoundRobin::default().name(), "Round-Robin");
        assert_eq!(ShortestQueue.name(), "Shortest-Queue");
        assert_eq!(LeastWorkLeft.name(), "Least-Work-Left");
        assert_eq!(SizeInterval::new(vec![1.0], "SITA-U-fair").name(), "SITA-U-fair");
    }
}
