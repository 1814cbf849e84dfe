//! The Erlang distribution — a sum of `k` i.i.d. exponentials.
//!
//! Two roles in this workspace: as a low-variability service distribution
//! (`C² = 1/k < 1`), and as the interarrival distribution each host sees
//! under **Round-Robin** splitting of a Poisson stream (`E_h/G/1` in the
//! paper's §3.3 — every `h`-th arrival of a Poisson process is Erlang-`h`).

use crate::rng::Rng64;
use crate::special;
use crate::traits::{quantile_space_partial_moments, DistError, Distribution};

/// Erlang distribution with shape `k ∈ ℕ⁺` and rate `λ` (mean `k/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Erlang {
    shape: u32,
    rate: f64,
    /// `ln Γ(shape)`, computed once: every CDF evaluation needs it.
    ln_gamma_shape: f64,
}

impl Erlang {
    /// Create an Erlang with integer shape `shape ≥ 1` and rate `rate > 0`.
    pub fn new(shape: u32, rate: f64) -> Result<Self, DistError> {
        if shape == 0 {
            return Err(DistError::new("shape must be at least 1"));
        }
        if !(rate > 0.0) || !rate.is_finite() {
            return Err(DistError::new(format!("rate = {rate} must be positive and finite")));
        }
        Ok(Self {
            shape,
            rate,
            ln_gamma_shape: special::ln_gamma(f64::from(shape)),
        })
    }

    /// Create an Erlang with shape `shape` and the given mean.
    pub fn with_mean(shape: u32, mean: f64) -> Result<Self, DistError> {
        if !(mean > 0.0) || !mean.is_finite() {
            return Err(DistError::new(format!("mean = {mean} must be positive and finite")));
        }
        Self::new(shape, f64::from(shape) / mean)
    }

    /// The shape parameter `k`.
    #[must_use]
    pub fn shape(&self) -> u32 {
        self.shape
    }

    /// The rate parameter `λ`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Distribution for Erlang {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        // sum of `shape` exponentials; for moderate shapes this is both
        // exact and fast (shapes in this workspace are tiny: h <= ~100)
        let mut acc = 0.0;
        for _ in 0..self.shape {
            acc += rng.standard_exponential();
        }
        acc / self.rate
    }

    fn support(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            special::reg_gamma_lower_ln(f64::from(self.shape), self.ln_gamma_shape, self.rate * x)
        }
    }

    fn raw_moment(&self, k: i32) -> f64 {
        let shape = f64::from(self.shape);
        if k >= 0 {
            // E[X^k] = Γ(shape + k) / (Γ(shape) λ^k)
            (special::ln_gamma(shape + f64::from(k)) - self.ln_gamma_shape).exp()
                / self.rate.powi(k)
        } else {
            let j = f64::from(-k);
            if shape > j {
                (special::ln_gamma(shape - j) - self.ln_gamma_shape).exp() * self.rate.powi(-k)
            } else {
                f64::INFINITY
            }
        }
    }

    // Partial moments take the trait's quantile-space quadrature, and each
    // quantile is a bisection on the regularized gamma: one sweep answers
    // every order of a band.
    fn partial_moments(&self, ks: &[i32], a: f64, b: f64, out: &mut [f64]) {
        quantile_space_partial_moments(self, ks, a, b, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Erlang::new(0, 1.0).is_err());
        assert!(Erlang::new(2, 0.0).is_err());
        assert!(Erlang::with_mean(2, -1.0).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        let e = Erlang::new(1, 2.0).unwrap();
        let x = super::super::Exponential::new(2.0).unwrap();
        for &v in &[0.1, 0.5, 1.0, 3.0] {
            assert!((e.cdf(v) - x.cdf(v)).abs() < 1e-12);
        }
        assert!((e.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn moments_closed_form() {
        // Erlang(3, 2): mean 1.5, var 3/4, E[X^2] = var + mean^2 = 3
        let d = Erlang::new(3, 2.0).unwrap();
        assert!((d.mean() - 1.5).abs() < 1e-12);
        assert!((d.variance() - 0.75).abs() < 1e-10);
        assert!((d.raw_moment(2) - 3.0).abs() < 1e-10);
        // E[1/X] = λ/(k−1) = 1
        assert!((d.raw_moment(-1) - 1.0).abs() < 1e-10);
        // scv = 1/k
        assert!((d.scv() - 1.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn negative_moment_diverges_when_shape_too_small() {
        let d = Erlang::new(1, 1.0).unwrap();
        assert_eq!(d.raw_moment(-1), f64::INFINITY);
        let d2 = Erlang::new(2, 1.0).unwrap();
        assert!(d2.raw_moment(-1).is_finite());
        assert_eq!(d2.raw_moment(-2), f64::INFINITY);
    }

    #[test]
    fn with_mean_sets_mean() {
        let d = Erlang::with_mean(4, 10.0).unwrap();
        assert!((d.mean() - 10.0).abs() < 1e-10);
    }

    #[test]
    fn sample_statistics() {
        let d = Erlang::new(5, 1.0).unwrap();
        let mut rng = Rng64::seed_from(404);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 5.0).abs() < 0.03, "mean = {mean}");
        assert!((var - 5.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn cdf_is_the_regularized_gamma_bit_for_bit() {
        let specials = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::NAN,
            f64::INFINITY,
            f64::MAX,
        ];
        for shape in [1, 2, 4, 10, 40] {
            for rate in [0.004, 1.0, 3.7] {
                let d = Erlang::new(shape, rate).unwrap();
                // λx from 1e-3 to 10·(shape + 1): both the series
                // (λx < shape + 1) and the continued fraction
                let grid = (0..400).map(|i| 1e-3 * 1.03f64.powi(i) * f64::from(shape) / rate);
                let mut branches = [false; 2];
                for x in grid.chain(specials) {
                    let want = special::reg_gamma_lower(f64::from(shape), rate * x);
                    assert_eq!(
                        d.cdf(x).to_bits(),
                        want.to_bits(),
                        "Erlang({shape}, {rate}).cdf({x:e})"
                    );
                    if x.is_finite() && x > 0.0 {
                        branches[usize::from(rate * x >= f64::from(shape) + 1.0)] = true;
                    }
                }
                assert_eq!(branches, [true, true], "both branches at shape {shape}");
            }
        }
        // +∞ stays NaN, as `reg_gamma_lower` gives it
        assert!(Erlang::new(4, 1.0).unwrap().cdf(f64::INFINITY).is_nan());
    }

    #[test]
    fn quantile_default_round_trips_through_gamma_cdf() {
        let d = Erlang::new(3, 0.5).unwrap();
        for &p in &[0.05, 0.5, 0.95] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-9, "p = {p}");
        }
    }
}
