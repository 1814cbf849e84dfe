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

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineMoments) {
        self.merge_block(other.n, other.mean, other.m2, other.min, other.max);
    }

    /// Merge a finalized block summary — `n` observations with mean
    /// `mean`, centered second moment `m2 = Σ(x − mean)²`, and extrema —
    /// without constructing an intermediate accumulator.
    ///
    /// This is the back half of block-batched accumulation (DESIGN.md
    /// §13): the block collector reduces 64 buffered records to
    /// `(n, mean, m2, min, max)` in vectorizable passes, then folds the
    /// summary in here with Chan's pairwise-merge update — two divides
    /// per *block* where per-record Welford would risk one per job.
    /// Identical in arithmetic to [`OnlineMoments::merge`].
    pub fn merge_block(&mut self, n: u64, mean: f64, m2: f64, min: f64, max: f64) {
        if n == 0 {
            return;
        }
        if self.n == 0 {
            *self = Self { n, mean, m2, min, max };
            return;
        }
        let n1 = self.n as f64;
        let n2 = n as f64;
        let nt = n1 + n2;
        let delta = mean - self.mean;
        self.mean += delta * n2 / nt;
        self.m2 += m2 + delta * delta * n1 * n2 / nt;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
        self.n += n;
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Centered second moment `Σ (x − mean)²` — the raw quantity
    /// [`OnlineMoments::merge_block`] consumes.
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
    fn merge_equals_sequential() {
        let a_data = [1.0, 2.0, 3.0, 10.0];
        let b_data = [4.0, 5.0, 0.5];
        let mut merged: OnlineMoments = a_data.iter().copied().collect();
        let b: OnlineMoments = b_data.iter().copied().collect();
        merged.merge(&b);
        let all: OnlineMoments = a_data.iter().chain(b_data.iter()).copied().collect();
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-12);
        assert!((merged.variance() - all.variance()).abs() < 1e-12);
        assert_eq!(merged.min(), all.min());
        assert_eq!(merged.max(), all.max());
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
    fn merge_block_equals_merge() {
        let a_data = [3.0, 1.0, 4.0];
        let b_data = [1.0, 5.0, 9.0, 2.0];
        let mut via_merge: OnlineMoments = a_data.iter().copied().collect();
        let b: OnlineMoments = b_data.iter().copied().collect();
        via_merge.merge(&b);
        let mut via_block: OnlineMoments = a_data.iter().copied().collect();
        via_block.merge_block(b.count(), b.mean(), b.m2(), b.min(), b.max());
        assert_eq!(via_block.count(), via_merge.count());
        assert_eq!(via_block.mean().to_bits(), via_merge.mean().to_bits());
        assert_eq!(via_block.variance().to_bits(), via_merge.variance().to_bits());
        assert_eq!(via_block.min(), via_merge.min());
        assert_eq!(via_block.max(), via_merge.max());
    }

    #[test]
    fn merge_block_into_empty_adopts_summary() {
        let mut om = OnlineMoments::new();
        om.merge_block(3, 2.0, 8.0, 1.0, 4.0);
        assert_eq!(om.count(), 3);
        assert_eq!(om.mean(), 2.0);
        assert!((om.variance() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(om.min(), 1.0);
        assert_eq!(om.max(), 4.0);
        let mut noop = om;
        noop.merge_block(0, f64::NAN, f64::NAN, f64::NAN, f64::NAN);
        assert_eq!(noop, om);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a: OnlineMoments = [1.0, 2.0].iter().copied().collect();
        let mut b = a;
        b.merge(&OnlineMoments::new());
        assert_eq!(a, b);
        let mut c = OnlineMoments::new();
        c.merge(&a);
        assert_eq!(a.mean(), c.mean());
        assert_eq!(a.count(), c.count());
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
