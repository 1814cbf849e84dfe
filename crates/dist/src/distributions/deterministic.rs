//! The deterministic (point-mass) distribution.
//!
//! `C² = 0`: the least-variable workload possible. Useful as the opposite
//! extreme from the heavy-tailed supercomputing workloads — under
//! deterministic job sizes all task-assignment policies that balance load
//! collapse to nearly identical behaviour, which our tests exploit.

use crate::rng::Rng64;
use crate::traits::{DistError, Distribution};

/// A distribution placing all mass at a single positive value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Create a point mass at `value` (> 0).
    pub fn new(value: f64) -> Result<Self, DistError> {
        if !(value > 0.0) || !value.is_finite() {
            return Err(DistError::new(format!("value = {value} must be positive and finite")));
        }
        Ok(Self { value })
    }

    /// The constant value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl Distribution for Deterministic {
    fn closed_form_moments(&self) -> bool {
        true
    }
    fn sample(&self, _rng: &mut Rng64) -> f64 {
        self.value
    }

    fn support(&self) -> (f64, f64) {
        (self.value, self.value)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else if x < self.value {
            0.0
        } else {
            f64::NAN
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile probability {p} not in [0,1]");
        self.value
    }

    fn raw_moment(&self, k: i32) -> f64 {
        self.value.powi(k)
    }

    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        if a < self.value && self.value <= b {
            self.value.powi(k)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_nonpositive() {
        assert!(Deterministic::new(0.0).is_err());
        assert!(Deterministic::new(-3.0).is_err());
        assert!(Deterministic::new(f64::NAN).is_err());
    }

    #[test]
    fn all_samples_equal() {
        let d = Deterministic::new(4.2).unwrap();
        let mut rng = Rng64::seed_from(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 4.2);
        }
    }

    #[test]
    fn moments_and_scv() {
        let d = Deterministic::new(5.0).unwrap();
        assert_eq!(d.mean(), 5.0);
        assert_eq!(d.raw_moment(2), 25.0);
        assert_eq!(d.raw_moment(-1), 0.2);
        assert!(d.variance().abs() < 1e-12);
        assert!(d.scv().abs() < 1e-12);
    }

    #[test]
    fn partial_moment_interval_membership() {
        let d = Deterministic::new(5.0).unwrap();
        assert_eq!(d.partial_moment(1, 0.0, 10.0), 5.0);
        assert_eq!(d.partial_moment(1, 5.0, 10.0), 0.0); // interval is (a, b]
        assert_eq!(d.partial_moment(1, 4.0, 5.0), 5.0);
        assert_eq!(d.partial_moment(1, 6.0, 10.0), 0.0);
    }

    #[test]
    fn cdf_step() {
        let d = Deterministic::new(2.0).unwrap();
        assert_eq!(d.cdf(1.999), 0.0);
        assert_eq!(d.cdf(2.0), 1.0);
        assert_eq!(d.cdf(3.0), 1.0);
    }
}
