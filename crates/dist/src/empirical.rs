//! Empirical distributions backed by a measured sample.
//!
//! The paper's simulations draw job sizes *from the trace itself*. An
//! [`Empirical`] wraps a sample (e.g. the service-requirement column of an
//! SWF trace) and exposes the full [`Distribution`] interface: sampling
//! with replacement, the empirical CDF, exact sample moments, and exact
//! partial moments over size intervals — which is precisely what the
//! paper's experimental cutoff search does ("for a given cutoff we can
//! compute the load and E{X²} at each host from the trace data", §4.1).

use crate::rng::Rng64;
use crate::traits::{DistError, Distribution};

/// A distribution defined by a finite sample, each point with mass `1/n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// sorted sample values
    sorted: Vec<f64>,
    /// prefix sums of x (for fast partial first moments): prefix1[i] = Σ_{j<i} x_j
    prefix1: Vec<f64>,
    /// prefix sums of x²
    prefix2: Vec<f64>,
    /// prefix sums of x³
    prefix3: Vec<f64>,
    /// prefix sums of 1/x
    prefix_inv: Vec<f64>,
}

impl Empirical {
    /// Build from a sample. Values must be positive and finite.
    pub fn from_values(values: &[f64]) -> Result<Self, DistError> {
        if values.is_empty() {
            return Err(DistError::new("empirical distribution needs at least one value"));
        }
        if values.iter().any(|v| !(*v > 0.0) || !v.is_finite()) {
            return Err(DistError::new("empirical values must be positive and finite"));
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut prefix1 = Vec::with_capacity(n + 1);
        let mut prefix2 = Vec::with_capacity(n + 1);
        let mut prefix3 = Vec::with_capacity(n + 1);
        let mut prefix_inv = Vec::with_capacity(n + 1);
        let (mut s1, mut s2, mut s3, mut si) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        prefix1.push(0.0);
        prefix2.push(0.0);
        prefix3.push(0.0);
        prefix_inv.push(0.0);
        for &x in &sorted {
            s1 += x;
            s2 += x * x;
            s3 += x * x * x;
            si += 1.0 / x;
            prefix1.push(s1);
            prefix2.push(s2);
            prefix3.push(s3);
            prefix_inv.push(si);
        }
        Ok(Self {
            sorted,
            prefix1,
            prefix2,
            prefix3,
            prefix_inv,
        })
    }

    /// Number of sample points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted sample.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Index of the first element `> x` (i.e. count of elements `≤ x`).
    fn count_le(&self, x: f64) -> usize {
        self.sorted.partition_point(|&v| v <= x)
    }

    /// `E[X^k · 1{X ∈ sorted[lo..hi]}]`: prefix-sum lookups for
    /// k ∈ {−1, 0, 1, 2, 3}, an O(hi − lo) scan for other orders.
    fn range_moment(&self, k: i32, lo: usize, hi: usize) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        let n = self.sorted.len() as f64;
        let pick = |p: &[f64]| (p[hi] - p[lo]) / n;
        match k {
            0 => (hi - lo) as f64 / n,
            1 => pick(&self.prefix1),
            2 => pick(&self.prefix2),
            3 => pick(&self.prefix3),
            -1 => pick(&self.prefix_inv),
            _ => self.sorted[lo..hi].iter().map(|&x| x.powi(k)).sum::<f64>() / n,
        }
    }
}

impl Distribution for Empirical {
    fn closed_form_moments(&self) -> bool {
        true
    }
    fn sample(&self, rng: &mut Rng64) -> f64 {
        let i = rng.below(self.sorted.len() as u64) as usize;
        self.sorted[i]
    }

    fn support(&self) -> (f64, f64) {
        (self.sorted[0], self.sorted[self.sorted.len() - 1])
    }

    fn cdf(&self, x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        self.count_le(x) as f64 / self.sorted.len() as f64
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile probability {p} not in [0,1]");
        let n = self.sorted.len();
        // inverse of the step CDF: smallest x with F(x) >= p
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[idx - 1]
    }

    fn raw_moment(&self, k: i32) -> f64 {
        self.range_moment(k, 0, self.sorted.len())
    }

    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        self.range_moment(k, self.count_le(a), self.count_le(b))
    }

    /// Locates the band once for all orders. Orders other than −1…3 scan
    /// the band: a SITA analysis asks for order −2 (its slowdown
    /// variance), the cutoff objectives never do.
    fn partial_moments(&self, ks: &[i32], a: f64, b: f64, out: &mut [f64]) {
        assert_eq!(ks.len(), out.len(), "one output slot per order");
        if b <= a {
            out.fill(0.0);
            return;
        }
        let (lo, hi) = (self.count_le(a), self.count_le(b));
        for (o, &k) in out.iter_mut().zip(ks) {
            *o = self.range_moment(k, lo, hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Empirical {
        Empirical::from_values(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap()
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Empirical::from_values(&[]).is_err());
        assert!(Empirical::from_values(&[1.0, 0.0]).is_err());
        assert!(Empirical::from_values(&[1.0, -2.0]).is_err());
        assert!(Empirical::from_values(&[1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn cdf_is_step_function() {
        let d = sample();
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(1.0), 0.2);
        assert_eq!(d.cdf(2.5), 0.4);
        assert_eq!(d.cdf(5.0), 1.0);
        assert_eq!(d.cdf(6.0), 1.0);
    }

    #[test]
    fn quantile_inverts_step_cdf() {
        let d = sample();
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(0.2), 1.0);
        assert_eq!(d.quantile(0.21), 2.0);
        assert_eq!(d.quantile(1.0), 5.0);
    }

    #[test]
    fn moments_are_exact_sample_moments() {
        let d = sample();
        assert!((d.mean() - 3.0).abs() < 1e-12);
        assert!((d.raw_moment(2) - 11.0).abs() < 1e-12);
        let inv = (1.0 + 0.5 + 1.0 / 3.0 + 0.25 + 0.2) / 5.0;
        assert!((d.raw_moment(-1) - inv).abs() < 1e-12);
    }

    #[test]
    fn partial_moments_respect_half_open_interval() {
        let d = sample();
        // (2, 4] contains {3, 4}
        assert!((d.partial_moment(1, 2.0, 4.0) - 7.0 / 5.0).abs() < 1e-12);
        assert!((d.partial_moment(0, 2.0, 4.0) - 0.4).abs() < 1e-12);
        // empty interval
        assert_eq!(d.partial_moment(1, 4.0, 4.0), 0.0);
    }

    #[test]
    fn general_order_partial_falls_back_to_scan() {
        let d = sample();
        let m4 = d.partial_moment(4, 0.0, 10.0);
        let want = (1.0 + 16.0 + 81.0 + 256.0 + 625.0) / 5.0;
        assert!((m4 - want).abs() < 1e-9);
    }

    #[test]
    fn raw_moments_keep_the_smallest_sample_above_2_pow_53() {
        // the whole sample, not (min − 1, max]: min − 1 rounds to min here
        let d = Empirical::from_values(&[1e17, 3e17]).unwrap();
        assert_eq!(d.mean(), 2e17);
        let big = 2f64.powi(54);
        let d = Empirical::from_values(&[big, 3.0 * big]).unwrap();
        assert_eq!(d.raw_moment(0), 1.0);
        assert_eq!(d.raw_moment(1), 2.0 * big);
        assert_eq!(d.raw_moment(-2), (big.powi(-2) + (3.0 * big).powi(-2)) / 2.0);
        // one distinct value: the support is a point
        let one = Empirical::from_values(&[big, big]).unwrap();
        assert_eq!(one.mean(), big);
    }

    #[test]
    fn sampling_only_produces_sample_points() {
        let d = sample();
        let mut rng = Rng64::seed_from(3);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!(d.values().contains(&x));
        }
    }

    #[test]
    fn sampling_is_roughly_uniform_over_points() {
        let d = sample();
        let mut rng = Rng64::seed_from(9);
        let mut count_ones = 0;
        let n = 50_000;
        for _ in 0..n {
            if d.sample(&mut rng) == 1.0 {
                count_ones += 1;
            }
        }
        let frac = count_ones as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn tail_load_fraction_on_sample() {
        let d = Empirical::from_values(&[1.0, 1.0, 1.0, 1.0, 96.0]).unwrap();
        // values above 1.0: just 96 → 96/100 of the load
        assert!((d.tail_load_fraction(1.0) - 0.96).abs() < 1e-12);
    }
}
