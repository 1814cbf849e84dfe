//! Online (single-pass) moment accumulation.
//!
//! Simulation runs in this workspace can process tens of millions of jobs;
//! we never buffer per-job values unless explicitly asked to. Instead,
//! [`OnlineMoments`] accumulates mean and variance with Welford's
//! numerically stable recurrence, plus min/max, in one pass and O(1)
//! memory. Raw second/third sample moments live in
//! [`crate::summary::Summary`] (which buffers values anyway) — keeping
//! them out of the accumulator keeps the simulation engines' per-job
//! metrics cost at two multiply-add chains per stream, which is what
//! lets the specialized kernels run at tens of millions of jobs per
//! second (DESIGN.md §11).

/// A finalized set of sample moments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// number of observations
    pub count: u64,
    /// sample mean
    pub mean: f64,
    /// population variance (divides by n)
    pub variance: f64,
    /// smallest observation
    pub min: f64,
    /// largest observation
    pub max: f64,
}

impl Moments {
    /// Squared coefficient of variation `C² = Var/mean²`.
    #[must_use]
    pub fn scv(&self) -> f64 {
        // dses-lint: allow(float-totality) -- exact zero-mean guard for the degenerate case
        if self.mean == 0.0 {
            0.0
        } else {
            self.variance / (self.mean * self.mean)
        }
    }

    /// Standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// Welford-style online accumulator for moments.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
    m2: f64, // Σ (x − mean)²
    min: f64,
    max: f64,
}

impl OnlineMoments {
    /// Create an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        // dses-lint: allow(divide-budget) -- one divide per observation; the measured record paths count it in their own budgets (the collector's fairness bin and class streams push here)
        let inv = 1.0 / (self.n + 1) as f64;
        self.push_with_inv(x, inv);
    }

    /// Add one observation, with `1/(count()+1)` supplied by the caller.
    ///
    /// The mean update rescales by that reciprocal instead of dividing,
    /// and a caller feeding several accumulators in lockstep (the metrics
    /// collector pushes four per job) can share one divide across all of
    /// them — `fdiv` is the one unpipelined unit on every current core,
    /// so the hot simulation loops budget divides per job, not flops.
    /// The caller computes the reciprocal as [`OnlineMoments::push`]
    /// does, `1.0 / (count() + 1) as f64`, so both give the same bits.
    #[inline]
    pub fn push_with_inv(&mut self, x: f64, inv_next_n: f64) {
        debug_assert_eq!(
            inv_next_n.to_bits(),
            (1.0 / (self.n + 1) as f64).to_bits(),
            "inv_next_n must be exactly 1/(count()+1)"
        );
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta * inv_next_n;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// [`OnlineMoments::push_with_inv`] without the min/max tracking.
    ///
    /// The metrics collector's MEANS-only demand tier (DESIGN.md §13)
    /// reads nothing but count/mean/variance, so its record path skips
    /// the four compare-and-select pairs per job that the extrema cost;
    /// the accumulator then reports the empty-stream extrema
    /// (`min = +∞`, `max = −∞`). Count, mean, and m2 advance with
    /// exactly the arithmetic of [`OnlineMoments::push_with_inv`], so
    /// every field a MEANS consumer reads is bitwise identical.
    #[inline]
    pub fn push_mv_with_inv(&mut self, x: f64, inv_next_n: f64) {
        debug_assert_eq!(
            inv_next_n.to_bits(),
            (1.0 / (self.n + 1) as f64).to_bits(),
            "inv_next_n must be exactly 1/(count()+1)"
        );
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta * inv_next_n;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Centered second moment `Σ (x − mean)²`, the raw quantity behind
    /// [`OnlineMoments::variance`].
    #[must_use]
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Current sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n; 0 when fewer than 2 samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample variance (divides by n − 1).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Squared coefficient of variation of the sample.
    #[must_use]
    pub fn scv(&self) -> f64 {
        let m = self.mean();
        // dses-lint: allow(float-totality) -- exact zero-mean guard for the degenerate case
        if m == 0.0 {
            0.0
        } else {
            self.variance() / (m * m)
        }
    }

    /// Smallest observation (`+∞` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Standard error of the mean, `s/√n`.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.sample_variance() / self.n as f64).sqrt()
        }
    }

    /// Snapshot into a [`Moments`] value.
    #[must_use]
    pub fn finish(&self) -> Moments {
        Moments {
            count: self.n,
            mean: self.mean(),
            variance: self.variance(),
            min: self.min,
            max: self.max,
        }
    }
}

impl FromIterator<f64> for OnlineMoments {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut om = OnlineMoments::new();
        for x in iter {
            om.push(x);
        }
        om
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_is_sane() {
        let om = OnlineMoments::new();
        assert_eq!(om.count(), 0);
        assert_eq!(om.mean(), 0.0);
        assert_eq!(om.variance(), 0.0);
        assert_eq!(om.std_error(), 0.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        let om: OnlineMoments = data.iter().copied().collect();
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!((om.mean() - mean).abs() < 1e-12);
        assert!((om.variance() - var).abs() < 1e-12);
        assert_eq!(om.min(), 1.0);
        assert_eq!(om.max(), 9.0);
    }

    #[test]
    fn push_mv_matches_push_on_mean_and_variance() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut full = OnlineMoments::new();
        let mut mv = OnlineMoments::new();
        for &x in &data {
            let inv = 1.0 / (full.count() + 1) as f64;
            full.push_with_inv(x, inv);
            mv.push_mv_with_inv(x, inv);
        }
        assert_eq!(mv.count(), full.count());
        assert_eq!(mv.mean().to_bits(), full.mean().to_bits());
        assert_eq!(mv.variance().to_bits(), full.variance().to_bits());
        // extrema intentionally untracked: the empty-stream sentinels
        assert_eq!(mv.min(), f64::INFINITY);
        assert_eq!(mv.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // classic Welford stress: large mean, tiny variance
        let mut om = OnlineMoments::new();
        for i in 0..1000 {
            om.push(1.0e9 + (i % 2) as f64);
        }
        assert!((om.variance() - 0.25).abs() < 1e-6, "var = {}", om.variance());
    }

    #[test]
    fn finish_snapshot_consistency() {
        let om: OnlineMoments = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
        let m = om.finish();
        assert_eq!(m.count, 8);
        assert!((m.mean - 5.0).abs() < 1e-12);
        assert!((m.variance - 4.0).abs() < 1e-12);
        assert!((m.std_dev() - 2.0).abs() < 1e-12);
        assert!((m.scv() - 4.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn scv_of_constant_sample_is_zero() {
        let om: OnlineMoments = std::iter::repeat_n(7.0, 100).collect();
        assert!(om.scv().abs() < 1e-15);
    }
}
