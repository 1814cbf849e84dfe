//! The job record.

/// A batch job: the unit of work dispatched to exactly one host.
///
/// In the paper's architectural model a job occupies a whole
/// multiprocessor host, runs to completion, and is never preempted; its
/// only scheduling-relevant attribute is its service requirement (CPU
/// time on a dedicated host). Memory is *not* modelled because each job
/// has exclusive access to its host's memory (paper §1.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Sequence number in arrival order (0-based).
    pub id: u64,
    /// Arrival time at the dispatcher, in seconds from trace start.
    pub arrival: f64,
    /// Service requirement in seconds on a dedicated host.
    pub size: f64,
}

impl Job {
    /// Create a job. `arrival` must be nonnegative and `size` positive,
    /// with a finite reciprocal.
    ///
    /// # Panics
    /// Panics on NaN/negative arrival, on a non-positive size, and on a
    /// size so small that `1.0 / size` overflows — job streams are
    /// internal data and malformed ones are programming errors.
    #[must_use]
    pub fn new(id: u64, arrival: f64, size: f64) -> Self {
        Self {
            id,
            arrival: Self::checked_arrival(id, arrival),
            size: Self::checked_size(id, size),
        }
    }

    /// [`Job::new`]'s arrival check, for generators that write a trace's
    /// columns without building `Job`s: returns `arrival` if it is finite
    /// and nonnegative, and panics otherwise.
    pub(crate) fn checked_arrival(id: u64, arrival: f64) -> f64 {
        assert!(
            arrival >= 0.0 && arrival.is_finite(),
            "job {id}: arrival {arrival} must be finite and nonnegative"
        );
        arrival
    }

    /// [`Job::new`]'s size check: returns `size` if it is finite and
    /// positive and `1.0 / size` is finite, and panics otherwise. Every
    /// slowdown is `response · (1.0 / size)`, so a size below about
    /// 5.6e-309 (a subnormal) would turn the slowdown means into NaN.
    pub(crate) fn checked_size(id: u64, size: f64) -> f64 {
        assert!(
            size > 0.0 && size.is_finite(),
            "job {id}: size {size} must be finite and positive"
        );
        assert!(
            (1.0 / size).is_finite(),
            "job {id}: size {size:e} must have a finite reciprocal"
        );
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_valid_job() {
        let j = Job::new(3, 10.0, 2.5);
        assert_eq!(j.id, 3);
        assert_eq!(j.arrival, 10.0);
        assert_eq!(j.size, 2.5);
    }

    #[test]
    #[should_panic(expected = "arrival")]
    fn rejects_negative_arrival() {
        let _ = Job::new(0, -1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "size")]
    fn rejects_zero_size() {
        let _ = Job::new(0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "size")]
    fn rejects_nan_size() {
        let _ = Job::new(0, 0.0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "job 4: size 1e-310 must have a finite reciprocal")]
    fn rejects_a_size_whose_reciprocal_overflows() {
        let _ = Job::new(4, 0.0, 1e-310);
    }

    #[test]
    fn keeps_the_smallest_sizes_with_a_finite_reciprocal() {
        // 5.56268464626801e-309 is the smallest double whose reciprocal is
        // finite
        for size in [f64::MIN_POSITIVE, 1e-308, 5.562_684_646_268_01e-309] {
            assert_eq!(Job::new(0, 0.0, size).size, size);
        }
    }
}
