//! Batch summary statistics — the numbers the paper's Table 1 reports for
//! each trace: count, mean, min, max, squared coefficient of variation,
//! plus percentiles and the tail-load curve.

use crate::moments::OnlineMoments;

/// Summary statistics of a batch of values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    moments: OnlineMoments,
}

impl Summary {
    /// Build a summary from a slice of values (values are copied and
    /// sorted internally). NaNs are rejected.
    ///
    /// # Panics
    /// Panics if any value is NaN.
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "summary input contains NaN"
        );
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let moments = values.iter().copied().collect();
        Self { sorted, moments }
    }

    /// Number of values.
    #[must_use]
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Population variance.
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.moments.variance()
    }

    /// Squared coefficient of variation — the key variability statistic in
    /// the paper (C² = 43 for the C90 trace).
    #[must_use]
    pub fn scv(&self) -> f64 {
        self.moments.scv()
    }

    /// Minimum (`+∞` if empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.moments.min()
    }

    /// Maximum (`−∞` if empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.moments.max()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
    /// statistics (type-7, the numpy/R default).
    ///
    /// # Panics
    /// Panics if the summary is empty or `q` outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty summary");
        assert!((0.0..=1.0).contains(&q), "q = {q} not in [0,1]");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let h = q * (n - 1) as f64;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        let frac = h - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (50th percentile).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Fraction of the total *sum* contributed by values strictly greater
    /// than `x` — the empirical tail-load curve. For the C90 workload the
    /// paper reports that the largest 1.3 % of jobs carry 50 % of the load.
    #[must_use]
    pub fn tail_load_fraction(&self, x: f64) -> f64 {
        let total: f64 = self.sorted.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let above: f64 = self.sorted.iter().filter(|&&v| v > x).sum();
        above / total
    }

    /// The value `x*` such that the largest `frac` of values (by count)
    /// are those above `x*`; returns `(x*, tail_load_fraction(x*))`.
    ///
    /// `summary.top_fraction_load(0.013)` answers "how much load do the
    /// biggest 1.3 % of jobs carry?".
    #[must_use]
    pub fn top_fraction_load(&self, frac: f64) -> (f64, f64) {
        assert!((0.0..=1.0).contains(&frac), "frac = {frac} not in [0,1]");
        if self.sorted.is_empty() {
            return (0.0, 0.0);
        }
        let cutoff = self.quantile(1.0 - frac);
        (cutoff, self.tail_load_fraction(cutoff))
    }

    /// Render a one-line Table-1 style row:
    /// `count, mean, min, max, C²`.
    #[must_use]
    pub fn table1_row(&self, label: &str) -> String {
        format!(
            "{label:<14} n={:<8} mean={:<12.1} min={:<8.2} max={:<12.1} C^2={:.2}",
            self.count(),
            self.mean(),
            self.min(),
            self.max(),
            self.scv()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let s = Summary::from_values(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn quantiles_type7() {
        let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!((s.median() - 2.5).abs() < 1e-12);
        assert!((s.quantile(1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_value_quantiles() {
        let s = Summary::from_values(&[7.0]);
        assert_eq!(s.quantile(0.0), 7.0);
        assert_eq!(s.quantile(0.5), 7.0);
        assert_eq!(s.quantile(1.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        let _ = Summary::from_values(&[1.0, f64::NAN]);
    }

    #[test]
    fn tail_load_fraction_behaviour() {
        // 9 ones and one 91: top value is 91% of the load
        let mut v = vec![1.0; 9];
        v.push(91.0);
        let s = Summary::from_values(&v);
        assert!((s.tail_load_fraction(1.0) - 0.91).abs() < 1e-12);
        assert!((s.tail_load_fraction(0.0) - 1.0).abs() < 1e-12);
        assert_eq!(s.tail_load_fraction(91.0), 0.0);
    }

    #[test]
    fn top_fraction_load_identifies_elephants() {
        let mut v = vec![1.0; 99];
        v.push(101.0); // top 1% of jobs carries just over half the load
        let s = Summary::from_values(&v);
        let (cutoff, load) = s.top_fraction_load(0.01);
        assert!(cutoff > 1.0);
        assert!((load - 101.0 / 200.0).abs() < 1e-9, "load = {load}");
    }

    #[test]
    fn table1_row_contains_fields() {
        let s = Summary::from_values(&[1.0, 2.0, 3.0]);
        let row = s.table1_row("TEST");
        assert!(row.contains("TEST"));
        assert!(row.contains("n=3"));
        assert!(row.contains("C^2="));
    }

    #[test]
    fn scv_matches_definition() {
        let s = Summary::from_values(&[2.0, 4.0, 6.0]);
        let mean = 4.0;
        let var = 8.0 / 3.0;
        assert!((s.scv() - var / (mean * mean)).abs() < 1e-12);
    }
}
