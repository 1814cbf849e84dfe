//! The [`Trace`] container: an arrival-ordered sequence of jobs plus the
//! statistics the paper reports about it.

use crate::job::Job;
use dses_dist::Summary;
use std::sync::Arc;

/// An arrival-ordered job trace, stored as two columns.
///
/// Job `i` is `(arrivals[i], sizes[i])` with id `i`; nothing else is
/// stored, so a trace costs 16 bytes per job. The simulation hot loops
/// stream through the contiguous `f64` columns (one cache line holds 8
/// jobs' worth of each), and the API that wants a [`Job`] —
/// [`Trace::job`], [`Trace::jobs`], a `Dispatcher` — gets one built by
/// value from the columns. The engines compute each job's `1.0 / size`
/// as they record it, so no reciprocal column is kept.
///
/// The size column is an `Arc<[f64]>`: it does not depend on the arrival
/// times, so the traces of one load sweep
/// ([`crate::WorkloadBuilder::build_loads`]) and a trace and its
/// rescaled copy ([`Trace::scale_interarrivals`]) share one buffer.
/// [`Trace::new`] sorts its jobs by arrival; every other constructor
/// checks that its arrivals are in order and falls back to that stable
/// sort if they are not, so the columns can never fall out of step.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    arrivals: Vec<f64>,
    sizes: Arc<[f64]>,
}

/// Why a [`Trace`] cannot be rescaled ([`Trace::scale_interarrivals`],
/// [`Trace::scale_to_load`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceError {
    /// The interarrival scale factor is not positive (or is NaN).
    InvalidFactor {
        /// the rejected factor
        factor: f64,
    },
    /// The target system load is not positive and finite.
    InvalidLoad {
        /// the rejected load
        load: f64,
    },
    /// The trace carries zero system load — fewer than two jobs, or all
    /// arriving at one instant — so no rescaling reaches a target load.
    ZeroLoad {
        /// jobs in the trace
        jobs: usize,
    },
    /// Rescaling by `factor` pushes an arrival time past the largest
    /// finite `f64`.
    Overflow {
        /// the interarrival scale factor
        factor: f64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidFactor { factor } => {
                write!(f, "interarrival scale factor {factor} must be positive")
            }
            Self::InvalidLoad { load } => {
                write!(f, "target load {load} must be positive and finite")
            }
            Self::ZeroLoad { jobs } => {
                write!(f, "its {jobs} job(s) carry zero system load")
            }
            Self::Overflow { factor } => write!(
                f,
                "scaling its interarrival times by {factor:e} overflows the arrival clock"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Build a trace from jobs, sorting by arrival time and renumbering
    /// ids in arrival order (stable for ties) — the constructor for
    /// external data such as SWF logs. Generated traces write their
    /// columns directly ([`crate::WorkloadBuilder`]).
    #[must_use]
    pub fn new(mut jobs: Vec<Job>) -> Self {
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        Self {
            arrivals: jobs.iter().map(|j| j.arrival).collect(),
            sizes: jobs.iter().map(|j| j.size).collect(),
        }
    }

    /// Assemble a trace from columns of equal length. Columns already in
    /// arrival order are kept as they are — a stable sort of sorted input
    /// is the identity — and anything else takes [`Trace::new`]'s sort.
    pub(crate) fn from_columns(arrivals: Vec<f64>, sizes: Arc<[f64]>) -> Self {
        debug_assert_eq!(arrivals.len(), sizes.len());
        if arrivals.is_sorted_by(|a, b| a.total_cmp(b).is_le()) {
            Self { arrivals, sizes }
        } else {
            Self::new(
                arrivals
                    .iter()
                    .zip(sizes.iter())
                    .enumerate()
                    .map(|(i, (&arrival, &size))| Job { id: i as u64, arrival, size })
                    .collect(),
            )
        }
    }

    /// Job `i` in arrival order, built by value from the columns (its id
    /// is `i`).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn job(&self, i: usize) -> Job {
        Job {
            id: i as u64,
            arrival: self.arrivals[i],
            size: self.sizes[i],
        }
    }

    /// The jobs in arrival order, each built by value from the columns.
    pub fn jobs(&self) -> impl ExactSizeIterator<Item = Job> + DoubleEndedIterator + '_ {
        (0..self.len()).map(|i| self.job(i))
    }

    /// The arrival times in arrival order, as a contiguous slice
    /// (structure-of-arrays view for the simulation hot loops).
    #[must_use]
    pub fn arrivals(&self) -> &[f64] {
        &self.arrivals
    }

    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Trace duration: last arrival time minus first (0 for < 2 jobs).
    #[must_use]
    pub fn duration(&self) -> f64 {
        match (self.arrivals.first(), self.arrivals.last()) {
            (Some(first), Some(last)) => last - first,
            _ => 0.0,
        }
    }

    /// Mean arrival rate λ = (n − 1) / duration (jobs per second).
    #[must_use]
    pub fn arrival_rate(&self) -> f64 {
        let d = self.duration();
        if d <= 0.0 || self.len() < 2 {
            0.0
        } else {
            (self.len() - 1) as f64 / d
        }
    }

    /// Offered *system* load for a server with `hosts` identical hosts:
    /// `ρ = λ · E[X] / h`. The system is stable iff ρ < 1 (assuming the
    /// policy can use all hosts).
    #[must_use]
    pub fn system_load(&self, hosts: usize) -> f64 {
        assert!(hosts > 0, "need at least one host");
        let mean_size = self.size_summary().mean();
        self.arrival_rate() * mean_size / hosts as f64
    }

    /// Summary statistics of the job sizes (the paper's Table 1 row).
    #[must_use]
    pub fn size_summary(&self) -> Summary {
        Summary::from_values(self.sizes())
    }

    /// Summary statistics of the interarrival times.
    #[must_use]
    pub fn interarrival_summary(&self) -> Summary {
        let gaps: Vec<f64> = self.arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        Summary::from_values(&gaps)
    }

    /// The job sizes in arrival order, as a contiguous slice
    /// (structure-of-arrays view for the simulation hot loops).
    #[must_use]
    pub fn sizes(&self) -> &[f64] {
        &self.sizes
    }

    /// The reciprocal job sizes `1.0 / sizes()[i]` in arrival order,
    /// computed on each call: a trace stores no reciprocal column. For a
    /// caller that replays records through
    /// `Collector::record_with_inv`; the engines divide as they record.
    #[must_use]
    pub fn inv_sizes(&self) -> Vec<f64> {
        self.sizes.iter().map(|&s| 1.0 / s).collect()
    }

    /// Return a copy with every interarrival time multiplied by `factor`
    /// (> 0). This is the paper's §6 operation: take the (bursty)
    /// empirical arrival sequence and scale it to produce a target load,
    /// preserving its correlation structure. The copy shares this trace's
    /// size column.
    ///
    /// # Errors
    /// [`TraceError::InvalidFactor`] unless `factor > 0`, and
    /// [`TraceError::Overflow`] when a rescaled arrival time is not
    /// finite.
    pub fn scale_interarrivals(&self, factor: f64) -> Result<Trace, TraceError> {
        if !(factor > 0.0) {
            return Err(TraceError::InvalidFactor { factor });
        }
        let base = self.arrivals.first().map_or(0.0, |&a| a);
        let arrivals: Vec<f64> = self
            .arrivals
            .iter()
            .map(|&a| base + (a - base) * factor)
            .collect();
        if !arrivals.iter().all(|a| a.is_finite()) {
            return Err(TraceError::Overflow { factor });
        }
        Ok(Trace::from_columns(arrivals, Arc::clone(&self.sizes)))
    }

    /// Return a copy scaled so the *system* load on `hosts` hosts equals
    /// `target_load`.
    ///
    /// # Errors
    /// [`TraceError::InvalidLoad`] unless `target_load` is positive and
    /// finite, [`TraceError::ZeroLoad`] when the trace carries no load to
    /// scale (fewer than two jobs, or one arrival instant), and
    /// [`TraceError::Overflow`] when the load is so small that the
    /// rescaled arrival times overflow.
    ///
    /// # Panics
    /// Panics if `hosts` is 0 (see [`Trace::system_load`]).
    pub fn scale_to_load(&self, hosts: usize, target_load: f64) -> Result<Trace, TraceError> {
        if !(target_load > 0.0 && target_load.is_finite()) {
            return Err(TraceError::InvalidLoad { load: target_load });
        }
        let current = self.system_load(hosts);
        if !(current > 0.0) {
            return Err(TraceError::ZeroLoad { jobs: self.len() });
        }
        self.scale_interarrivals(current / target_load)
    }

    /// Keep only the first `n` jobs.
    #[must_use]
    pub fn truncate(&self, n: usize) -> Trace {
        let n = n.min(self.len());
        Trace::from_columns(self.arrivals[..n].to_vec(), self.sizes[..n].into())
    }

    /// A per-host backlog capacity hint for simulation buffers (completion
    /// heaps / departure deques): how many in-system jobs one of `hosts`
    /// hosts should expect to hold at once. Scales with the trace's share
    /// per host — stable systems keep backlogs far below `n/h`, so an
    /// eighth of the share absorbs even near-saturation bursts — clamped
    /// to `[32, 4096]` so tiny traces stay tiny and giant traces don't
    /// pre-commit O(n) memory per host.
    #[must_use]
    pub fn backlog_hint(&self, hosts: usize) -> usize {
        ((self.len() / hosts.max(1)) / 8).clamp(32, 4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Trace {
        Trace::new(vec![
            Job::new(9, 4.0, 2.0),
            Job::new(7, 0.0, 1.0),
            Job::new(8, 2.0, 4.0),
            Job::new(6, 6.0, 1.0),
        ])
    }

    #[test]
    fn sorts_and_renumbers() {
        let t = toy();
        assert_eq!(t.arrivals(), [0.0, 2.0, 4.0, 6.0]);
        assert_eq!(t.sizes(), [1.0, 4.0, 2.0, 1.0]);
        let ids: Vec<u64> = t.jobs().map(|j| j.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn duration_and_rate() {
        let t = toy();
        assert_eq!(t.duration(), 6.0);
        assert!((t.arrival_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn system_load_definition() {
        let t = toy();
        // mean size 2.0, λ = 0.5 → 1-host load 1.0, 2-host load 0.5
        assert!((t.system_load(1) - 1.0).abs() < 1e-12);
        assert!((t.system_load(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn size_summary_matches_table1_fields() {
        let t = toy();
        let s = t.size_summary();
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn scaling_interarrivals_scales_load() {
        let t = toy();
        let slow = t.scale_interarrivals(2.0).unwrap();
        assert!((slow.system_load(1) - 0.5).abs() < 1e-12);
        let fast = t.scale_to_load(1, 0.8).unwrap();
        assert!((fast.system_load(1) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn scale_preserves_sizes_and_order() {
        let t = toy();
        let s = t.scale_interarrivals(3.0).unwrap();
        assert_eq!(s.sizes(), t.sizes());
        // the rescaled copy shares the size column
        assert_eq!(s.sizes().as_ptr(), t.sizes().as_ptr());
    }

    #[test]
    fn rescaling_rejects_bad_input_with_typed_errors() {
        use TraceError::{InvalidFactor, InvalidLoad, Overflow, ZeroLoad};
        let t = toy();
        for load in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let r = t.scale_to_load(2, load);
            assert!(matches!(r, Err(InvalidLoad { .. })), "load {load}");
        }
        for factor in [0.0, -2.0, f64::NAN] {
            let r = t.scale_interarrivals(factor);
            assert!(matches!(r, Err(InvalidFactor { .. })), "factor {factor}");
        }
        let one_job = Trace::new(vec![Job::new(0, 5.0, 1.0)]);
        let two_at_once = Trace::new(vec![Job::new(0, 5.0, 1.0), Job::new(1, 5.0, 2.0)]);
        let empty = Trace::new(vec![]);
        assert_eq!(one_job.scale_to_load(1, 0.5), Err(ZeroLoad { jobs: 1 }));
        assert_eq!(two_at_once.scale_to_load(2, 0.5), Err(ZeroLoad { jobs: 2 }));
        assert_eq!(empty.scale_to_load(1, 0.5), Err(ZeroLoad { jobs: 0 }));
        // a tiny valid load on a trace spanning 10^8 s: the factor is
        // finite (~10^304) but the last arrival overflows
        let long = Trace::new(vec![
            Job::new(0, 0.0, 100.0),
            Job::new(1, 5e7, 100.0),
            Job::new(2, 1e8, 100.0),
        ]);
        for r in [
            long.scale_to_load(2, 1e-310),
            t.scale_interarrivals(f64::INFINITY),
            t.scale_interarrivals(f64::MAX),
        ] {
            assert!(matches!(r, Err(Overflow { .. })), "{r:?}");
        }
        // every error names its cause
        let msg = long.scale_to_load(2, 1e-310).unwrap_err().to_string();
        assert!(msg.contains("overflows"), "{msg}");
        let msg = one_job.scale_to_load(1, 0.5).unwrap_err().to_string();
        assert!(msg.contains("zero system load"), "{msg}");
    }

    #[test]
    fn interarrival_summary() {
        let t = toy();
        let s = t.interarrival_summary();
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert!(s.scv().abs() < 1e-12); // perfectly regular
    }

    #[test]
    fn inv_sizes_are_bitwise_reciprocals() {
        let t = toy();
        assert_eq!(t.inv_sizes().len(), t.len());
        for (&s, inv) in t.sizes().iter().zip(t.inv_sizes()) {
            assert_eq!(inv.to_bits(), (1.0 / s).to_bits());
        }
    }

    #[test]
    fn truncate_keeps_prefix() {
        let t = toy().truncate(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.job(1).arrival, 2.0);
        assert_eq!(toy().truncate(9), toy());
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = Trace::new(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.duration(), 0.0);
        assert_eq!(t.arrival_rate(), 0.0);
    }
}

impl Trace {
    /// Keep only jobs arriving in `[t0, t1)`, re-zeroing the clock — e.g.
    /// to cut a month out of a year-long SWF log.
    #[must_use]
    pub fn window(&self, t0: f64, t1: f64) -> Trace {
        assert!(t1 > t0, "window must be non-empty");
        Trace::new(
            self.jobs()
                .filter(|j| j.arrival >= t0 && j.arrival < t1)
                .map(|j| Job::new(j.id, j.arrival - t0, j.size))
                .collect(),
        )
    }

    /// Interleave two traces into one arrival-ordered stream — e.g. to
    /// model two submission sources sharing a server bank.
    #[must_use]
    pub fn merge(&self, other: &Trace) -> Trace {
        Trace::new(self.jobs().chain(other.jobs()).collect())
    }
}

#[cfg(test)]
mod manipulation_tests {
    use super::*;

    fn toy() -> Trace {
        Trace::new(vec![
            Job::new(0, 0.0, 1.0),
            Job::new(1, 2.0, 10.0),
            Job::new(2, 4.0, 3.0),
            Job::new(3, 6.0, 10.0),
        ])
    }

    #[test]
    fn window_rezeros_clock() {
        let t = toy().window(2.0, 6.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.arrivals(), [0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn window_rejects_empty_range() {
        let _ = toy().window(5.0, 5.0);
    }

    #[test]
    fn merge_interleaves_and_renumbers() {
        let a = Trace::new(vec![Job::new(0, 1.0, 1.0), Job::new(1, 5.0, 1.0)]);
        let b = Trace::new(vec![Job::new(0, 3.0, 2.0)]);
        let m = a.merge(&b);
        assert_eq!(m.len(), 3);
        assert_eq!(m.arrivals(), [1.0, 3.0, 5.0]);
        let ids: Vec<u64> = m.jobs().map(|j| j.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
