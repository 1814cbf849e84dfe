//! TAGS — Task Assignment by Guessing Size (extension).
//!
//! The paper's reference \[10\] (Harchol-Balter, ICDCS 2000) proposes a
//! size-interval policy for the case where job sizes are **unknown** at
//! dispatch time: every job starts on Host 1; a job that has run for the
//! host's cutoff without finishing is killed and restarted from scratch
//! on the next host, and so on up the cascade. Long jobs pay restart
//! overhead, but the hosts still see size-banded work — TAGS inherits
//! SITA's variance reduction (and its load unbalancing) without needing
//! size estimates.
//!
//! Our engine's run-to-completion hosts cannot express kills, so TAGS
//! gets its own cascade simulator: level `i` is a FCFS queue (Lindley
//! recursion) whose service times are `min(size, cutoff_i)` (plus the
//! full size at the last level), and whose arrivals are the departure
//! epochs of the previous level's survivors — which are nondecreasing
//! because FCFS departures leave in arrival order.

use dses_sim::metrics::{Collector, JobRecord, MetricsConfig, SimResult};
use dses_workload::Trace;

/// Simulate TAGS on `trace` with the given cascade cutoffs
/// (`cutoffs.len() + 1` hosts). A job of size `s` visits hosts
/// `0, 1, …` until it reaches the first level whose cutoff is `≥ s`
/// (running `cutoff_j` time at each abandoned level `j`), and completes
/// at that level after a *full* restart of `s` seconds.
///
/// # Panics
/// Panics if cutoffs are not strictly increasing and positive.
#[must_use]
pub fn simulate_tags(trace: &Trace, cutoffs: &[f64], cfg: MetricsConfig) -> SimResult {
    assert!(
        cutoffs.iter().all(|c| *c > 0.0 && c.is_finite()),
        "cutoffs must be positive and finite"
    );
    assert!(
        cutoffs.windows(2).all(|w| w[0] < w[1]),
        "cutoffs must be strictly increasing"
    );
    let levels = cutoffs.len() + 1;
    let mut collector = Collector::with_job_hint(levels, cfg, trace.len());
    // Jobs currently flowing into level `i`, as (arrival_at_level, job
    // index). Level 0 sees the raw trace. The survivor buffer is
    // allocated once at full size and ping-ponged between levels, so the
    // cascade performs no per-level reallocation.
    let mut incoming: Vec<(f64, usize)> = trace
        .arrivals()
        .iter()
        .enumerate()
        .map(|(i, &arrival)| (arrival, i))
        .collect();
    let mut next_incoming: Vec<(f64, usize)> = Vec::with_capacity(trace.len());
    for level in 0..levels {
        let cutoff = cutoffs.get(level).copied().unwrap_or(f64::INFINITY);
        let mut free_at = 0.0f64;
        next_incoming.clear();
        for &(arrival, idx) in &incoming {
            let job = trace.job(idx);
            if job.size <= cutoff {
                // completes here: full (re)run of `size`
                let start = arrival.max(free_at);
                let completion = start + job.size;
                free_at = completion;
                collector.record(JobRecord {
                    id: job.id,
                    arrival: job.arrival, // original arrival: response spans the cascade
                    size: job.size,
                    start,
                    completion,
                    host: level,
                });
            } else {
                // runs `cutoff`, gets killed, moves on
                let start = arrival.max(free_at);
                let killed_at = start + cutoff;
                free_at = killed_at;
                next_incoming.push((killed_at, idx));
            }
        }
        std::mem::swap(&mut incoming, &mut next_incoming);
        if incoming.is_empty() {
            break;
        }
    }
    collector.finish()
}

/// Total *work* TAGS imposes per job (service + wasted restart time) for
/// a job of size `s` under the cascade `cutoffs` — useful for stability
/// analysis: TAGS needs capacity for the excess.
#[must_use]
pub fn tags_work(size: f64, cutoffs: &[f64]) -> f64 {
    let wasted: f64 = cutoffs.iter().take_while(|&&c| size > c).sum();
    wasted + size
}

#[cfg(test)]
mod tests {
    use super::*;
    use dses_workload::Job;

    fn trace(jobs: &[(f64, f64)]) -> Trace {
        Trace::new(
            jobs.iter()
                .enumerate()
                .map(|(i, &(a, s))| Job::new(i as u64, a, s))
                .collect(),
        )
    }

    fn cfg() -> MetricsConfig {
        MetricsConfig {
            collect_records: true,
            ..MetricsConfig::default()
        }
    }

    #[test]
    fn short_job_completes_on_first_host() {
        let t = trace(&[(0.0, 5.0)]);
        let r = simulate_tags(&t, &[10.0], cfg());
        let rec = r.records.unwrap()[0];
        assert_eq!(rec.host, 0);
        assert_eq!(rec.completion, 5.0);
        assert_eq!(rec.slowdown(), 1.0);
    }

    #[test]
    fn long_job_pays_restart() {
        // size 20 > cutoff 10: runs 10 on host 0 (killed), restarts on
        // host 1 for the full 20 → response 30.
        let t = trace(&[(0.0, 20.0)]);
        let r = simulate_tags(&t, &[10.0], cfg());
        let rec = r.records.unwrap()[0];
        assert_eq!(rec.host, 1);
        assert_eq!(rec.start, 10.0);
        assert_eq!(rec.completion, 30.0);
        assert_eq!(rec.response(), 30.0);
    }

    #[test]
    fn cascade_of_three_levels() {
        // size 100 > cutoffs 10 and 50: wastes 10 + 50, then full run
        let t = trace(&[(0.0, 100.0)]);
        let r = simulate_tags(&t, &[10.0, 50.0], cfg());
        let rec = r.records.unwrap()[0];
        assert_eq!(rec.host, 2);
        assert_eq!(rec.completion, 160.0);
        assert_eq!(tags_work(100.0, &[10.0, 50.0]), 160.0);
    }

    #[test]
    fn first_host_queue_is_shared_by_everyone() {
        // two jobs arrive together; the short one queues behind the
        // long one's doomed first attempt
        let t = trace(&[(0.0, 20.0), (0.0, 1.0)]);
        let r = simulate_tags(&t, &[10.0], cfg());
        let recs = r.records.unwrap();
        let short = recs.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(short.start, 10.0); // waits for the killed attempt
        assert_eq!(short.completion, 11.0);
    }

    #[test]
    fn level_two_is_fcfs_in_kill_order() {
        let t = trace(&[(0.0, 30.0), (1.0, 20.0)]);
        let r = simulate_tags(&t, &[10.0], cfg());
        let recs = r.records.unwrap();
        let first = recs.iter().find(|r| r.id == 0).unwrap();
        let second = recs.iter().find(|r| r.id == 1).unwrap();
        // job 0 killed at 10, restarts immediately; job 1 killed at 20,
        // queues behind job 0 (done at 40)
        assert_eq!(first.start, 10.0);
        assert_eq!(first.completion, 40.0);
        assert_eq!(second.start, 40.0);
        assert_eq!(second.completion, 60.0);
    }

    #[test]
    fn all_jobs_accounted_for() {
        let t = trace(&[(0.0, 5.0), (1.0, 50.0), (2.0, 500.0), (3.0, 5.0)]);
        let r = simulate_tags(&t, &[10.0, 100.0], MetricsConfig::default());
        assert_eq!(r.measured, 4);
    }

    #[test]
    fn boundary_size_equal_to_cutoff_stays() {
        let t = trace(&[(0.0, 10.0)]);
        let r = simulate_tags(&t, &[10.0], cfg());
        assert_eq!(r.records.unwrap()[0].host, 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unordered_cutoffs() {
        let t = trace(&[(0.0, 1.0)]);
        let _ = simulate_tags(&t, &[10.0, 5.0], MetricsConfig::default());
    }
}
