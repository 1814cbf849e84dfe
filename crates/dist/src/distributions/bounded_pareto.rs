//! The Bounded Pareto distribution `B(k, p, α)` — the canonical model for
//! supercomputing job-size distributions.
//!
//! Density: `f(x) = α k^α x^{−α−1} / (1 − (k/p)^α)` for `k ≤ x ≤ p`.
//!
//! This is the distribution used throughout the paper's analysis and in
//! Harchol-Balter, Crovella & Murta \[11\]: job sizes observed at
//! supercomputing centers are heavy-tailed over several orders of
//! magnitude but necessarily bounded (a job cannot run longer than the
//! trace). Its virtue for SITA analysis is that **every** partial moment
//! `E[X^j · 1{a < X ≤ b}]` has a closed form, so cutoff optimisation is
//! exact and fast.

use crate::rng::Rng64;
use crate::traits::{DistError, Distribution};

/// Bounded Pareto distribution on `[k, p]` with tail index `alpha`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedPareto {
    k: f64,
    p: f64,
    alpha: f64,
    /// cached normaliser `1 − (k/p)^α`
    norm: f64,
    /// cached inverse-transform exponent `−1/α`
    neg_inv_alpha: f64,
}

impl BoundedPareto {
    /// Create a Bounded Pareto with lower bound `k`, upper bound `p` and
    /// tail index `alpha`.
    ///
    /// # Errors
    /// Rejects non-positive bounds, `p ≤ k`, and non-positive or
    /// non-finite `alpha`.
    pub fn new(k: f64, p: f64, alpha: f64) -> Result<Self, DistError> {
        if !(k > 0.0) || !k.is_finite() {
            return Err(DistError::new(format!("lower bound k = {k} must be positive and finite")));
        }
        if !(p > k) || !p.is_finite() {
            return Err(DistError::new(format!("upper bound p = {p} must exceed k = {k} and be finite")));
        }
        if !(alpha > 0.0) || !alpha.is_finite() {
            return Err(DistError::new(format!("tail index alpha = {alpha} must be positive and finite")));
        }
        let norm = 1.0 - (k / p).powf(alpha);
        Ok(Self {
            k,
            p,
            alpha,
            norm,
            neg_inv_alpha: -1.0 / alpha,
        })
    }

    /// Lower bound `k` of the support.
    #[must_use]
    pub fn lower(&self) -> f64 {
        self.k
    }

    /// Upper bound `p` of the support.
    #[must_use]
    pub fn upper(&self) -> f64 {
        self.p
    }

    /// Tail index `α`. Smaller `α` ⇒ heavier tail; supercomputing
    /// workloads typically show `α ∈ [0.5, 1.5]`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The closed-form partial moment over the **clamped** interval:
    /// `E[X^j · 1{a < X ≤ b}]` with `a, b` clipped to `[k, p]`.
    ///
    /// With `C = α k^α / (1 − (k/p)^α)`:
    /// `∫_a^b x^j f(x) dx = C · (b^{j−α} − a^{j−α}) / (j − α)` when
    /// `j ≠ α`, and `C · ln(b/a)` when `j = α`.
    fn partial_moment_real(&self, j: f64, a: f64, b: f64) -> f64 {
        let a = a.max(self.k);
        let b = b.min(self.p);
        if b <= a {
            return 0.0;
        }
        let c = self.alpha * self.k.powf(self.alpha) / self.norm;
        let e = j - self.alpha;
        if e.abs() < 1e-12 {
            c * (b / a).ln()
        } else {
            // Compute in log space where the powers could overflow.
            c * (b.powf(e) - a.powf(e)) / e
        }
    }
}

impl Distribution for BoundedPareto {
    fn closed_form_moments(&self) -> bool {
        true
    }
    fn sample(&self, rng: &mut Rng64) -> f64 {
        // Inverse transform: x = k · (1 − u·norm)^{−1/α}
        let u = rng.uniform();
        self.k * (1.0 - u * self.norm).powf(self.neg_inv_alpha)
    }

    fn support(&self) -> (f64, f64) {
        (self.k, self.p)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.k {
            0.0
        } else if x >= self.p {
            1.0
        } else {
            (1.0 - (self.k / x).powf(self.alpha)) / self.norm
        }
    }

    fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..=1.0).contains(&u), "quantile probability {u} not in [0,1]");
        self.k * (1.0 - u * self.norm).powf(self.neg_inv_alpha)
    }

    fn raw_moment(&self, k: i32) -> f64 {
        self.partial_moment_real(f64::from(k), self.k, self.p)
    }

    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        self.partial_moment_real(f64::from(k), a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::OnlineMoments;

    fn c90ish() -> BoundedPareto {
        BoundedPareto::new(1.0, 2.0e6, 1.1).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(BoundedPareto::new(0.0, 10.0, 1.0).is_err());
        assert!(BoundedPareto::new(-1.0, 10.0, 1.0).is_err());
        assert!(BoundedPareto::new(5.0, 5.0, 1.0).is_err());
        assert!(BoundedPareto::new(5.0, 4.0, 1.0).is_err());
        assert!(BoundedPareto::new(1.0, 10.0, 0.0).is_err());
        assert!(BoundedPareto::new(1.0, 10.0, f64::NAN).is_err());
        assert!(BoundedPareto::new(1.0, f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn cdf_boundary_values() {
        let d = c90ish();
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(1.0), 0.0);
        assert_eq!(d.cdf(2.0e6), 1.0);
        assert_eq!(d.cdf(3.0e6), 1.0);
        let mid = d.cdf(100.0);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = c90ish();
        for &u in &[0.001, 0.1, 0.5, 0.9, 0.987, 0.9999] {
            let x = d.quantile(u);
            assert!((d.cdf(x) - u).abs() < 1e-10, "u = {u}");
        }
        assert_eq!(d.quantile(0.0), 1.0);
        assert!((d.quantile(1.0) - 2.0e6).abs() / 2.0e6 < 1e-9);
    }

    #[test]
    fn closed_form_moments_match_numeric_default() {
        let d = c90ish();
        for k in [-1i32, 1, 2, 3] {
            let closed = d.raw_moment(k);
            // The trait default integrates in quantile space; compare.
            struct Numeric<'a>(&'a BoundedPareto);
            impl std::fmt::Debug for Numeric<'_> {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    write!(f, "Numeric")
                }
            }
            impl Distribution for Numeric<'_> {
                fn sample(&self, rng: &mut Rng64) -> f64 {
                    self.0.sample(rng)
                }
                fn support(&self) -> (f64, f64) {
                    self.0.support()
                }
                fn cdf(&self, x: f64) -> f64 {
                    self.0.cdf(x)
                }
                fn quantile(&self, p: f64) -> f64 {
                    self.0.quantile(p)
                }
            }
            let numeric = Numeric(&d).raw_moment(k);
            let rel = (closed - numeric).abs() / closed.abs().max(1e-300);
            assert!(rel < 1e-3, "k = {k}: closed {closed} vs numeric {numeric}");
        }
    }

    #[test]
    fn sample_moments_match_analytic() {
        let d = BoundedPareto::new(1.0, 1.0e4, 1.3).unwrap();
        let mut rng = Rng64::seed_from(101);
        let mut om = OnlineMoments::new();
        let mut sum2 = 0.0;
        let n = 400_000;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            om.push(x);
            sum2 += x * x;
        }
        let rel_mean = (om.mean() - d.mean()).abs() / d.mean();
        assert!(rel_mean < 0.02, "sample mean {} vs {}", om.mean(), d.mean());
        // second moment is noisier for heavy tails; generous tolerance
        let m2 = sum2 / f64::from(n);
        let rel_m2 = (m2 - d.raw_moment(2)).abs() / d.raw_moment(2);
        assert!(rel_m2 < 0.25, "sample m2 {m2} vs {}", d.raw_moment(2));
    }

    #[test]
    fn samples_stay_in_support() {
        let d = c90ish();
        let mut rng = Rng64::seed_from(7);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=2.0e6).contains(&x));
        }
    }

    #[test]
    fn partial_moments_are_additive() {
        let d = c90ish();
        for k in [-1i32, 0, 1, 2, 3] {
            let whole = d.partial_moment(k, 1.0, 2.0e6);
            let split = d.partial_moment(k, 1.0, 500.0) + d.partial_moment(k, 500.0, 2.0e6);
            let rel = (whole - split).abs() / whole.abs().max(1e-300);
            assert!(rel < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn partial_moment_order_zero_is_probability() {
        let d = c90ish();
        let pm = d.partial_moment(0, 10.0, 1000.0);
        let pr = d.cdf(1000.0) - d.cdf(10.0);
        assert!((pm - pr).abs() < 1e-12);
    }

    #[test]
    fn partial_moment_clamps_outside_support() {
        let d = c90ish();
        assert_eq!(d.partial_moment(1, 2.1e6, 3.0e6), 0.0);
        assert_eq!(d.partial_moment(1, 0.1, 0.9), 0.0);
        let full = d.raw_moment(1);
        let clamped = d.partial_moment(1, 0.0, f64::INFINITY);
        assert!((full - clamped).abs() / full < 1e-12);
    }

    #[test]
    fn log_branch_when_order_equals_alpha() {
        // alpha = 2 exactly, query j = 2
        let d = BoundedPareto::new(1.0, 100.0, 2.0).unwrap();
        let m2 = d.raw_moment(2);
        // closed form: C·ln(p/k) with C = α k^α / (1-(k/p)^α)
        let c = 2.0 / (1.0 - (1.0f64 / 100.0).powi(2));
        let want = c * 100.0f64.ln();
        assert!((m2 - want).abs() / want < 1e-12);
    }

    #[test]
    fn heavy_tail_property_c90() {
        // For a realistic C90-like fit the biggest ~1-2% of jobs should
        // carry around half the load (paper §4.3).
        let d = BoundedPareto::new(1.0, 2.0e6, 1.05).unwrap();
        // size x* with 1.3% of jobs above it:
        let x_star = d.quantile(1.0 - 0.013);
        let tail_load = d.tail_load_fraction(x_star);
        assert!(tail_load > 0.3 && tail_load < 0.8, "tail_load = {tail_load}");
    }

    #[test]
    fn scv_grows_as_alpha_shrinks() {
        let hi = BoundedPareto::new(1.0, 1.0e6, 0.9).unwrap().scv();
        let lo = BoundedPareto::new(1.0, 1.0e6, 1.8).unwrap().scv();
        assert!(hi > lo, "scv(0.9) = {hi} vs scv(1.8) = {lo}");
        assert!(hi > 10.0);
    }

    #[test]
    fn deterministic_sampling_is_reproducible() {
        let d = c90ish();
        let mut a = Rng64::seed_from(55);
        let mut b = Rng64::seed_from(55);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
