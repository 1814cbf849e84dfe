//! Finite mixtures of distributions.
//!
//! The workhorse use in this workspace is the **body–tail** model of
//! supercomputing job sizes: a Bounded Pareto *body* holding most jobs
//! (seconds to hours) stitched to a Bounded Pareto *tail* holding the few
//! giant jobs that carry half the load. A single Bounded Pareto cannot
//! simultaneously match a trace's minimum, mean, `C²` and tail-load
//! concentration; the two-piece mixture can (see [`crate::fit`]).
//!
//! Partial moments of a mixture are weighted sums of the components'
//! partial moments, so SITA analysis stays closed-form when the
//! components are closed-form.

use std::sync::Arc;

use crate::rng::Rng64;
use crate::traits::{DistError, Distribution};

/// A finite mixture: with probability `wᵢ`, draw from component `i`.
///
/// Components are reference-counted so mixtures are cheap to clone (the
/// workload presets hand them around by value).
#[derive(Debug, Clone)]
pub struct Mixture {
    weights: Vec<f64>,
    components: Vec<Arc<dyn Distribution>>,
}

impl Mixture {
    /// Create a mixture from `(weight, component)` pairs. Weights must be
    /// positive and sum to 1 (within 1e-9).
    pub fn new(parts: Vec<(f64, Box<dyn Distribution>)>) -> Result<Self, DistError> {
        if parts.is_empty() {
            return Err(DistError::new("mixture needs at least one component"));
        }
        let total: f64 = parts.iter().map(|(w, _)| *w).sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(DistError::new(format!("mixture weights sum to {total}, not 1")));
        }
        if parts.iter().any(|(w, _)| !(*w > 0.0)) {
            return Err(DistError::new("mixture weights must be positive"));
        }
        let mut weights = Vec::with_capacity(parts.len());
        let mut components: Vec<Arc<dyn Distribution>> = Vec::with_capacity(parts.len());
        for (w, c) in parts {
            weights.push(w);
            components.push(Arc::from(c));
        }
        Ok(Self {
            weights,
            components,
        })
    }

    /// The component weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The components.
    #[must_use]
    pub fn components(&self) -> &[Arc<dyn Distribution>] {
        &self.components
    }
}

impl Distribution for Mixture {
    // Inlined into the caller's draw loop: out of line, the call costs
    // as much as the body–tail pick itself (DESIGN.md §9.4).
    #[inline]
    fn sample(&self, rng: &mut Rng64) -> f64 {
        let u = rng.uniform();
        let mut acc = 0.0;
        for (w, c) in self.weights.iter().zip(&self.components) {
            acc += w;
            if u < acc {
                return c.sample(rng);
            }
        }
        self.components[self.components.len() - 1].sample(rng)
    }

    fn support(&self) -> (f64, f64) {
        let lo = self
            .components
            .iter()
            .map(|c| c.support().0)
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .components
            .iter()
            .map(|c| c.support().1)
            .fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    }

    fn cdf(&self, x: f64) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.cdf(x))
            .sum()
    }

    fn raw_moment(&self, k: i32) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.raw_moment(k))
            .sum()
    }

    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.partial_moment(k, a, b))
            .sum()
    }

    fn closed_form_moments(&self) -> bool {
        // a weighted sum of closed forms is a closed form
        self.components.iter().all(|c| c.closed_form_moments())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{BoundedPareto, Exponential, Uniform};

    fn body_tail() -> Mixture {
        Mixture::new(vec![
            (
                0.9,
                Box::new(Uniform::new(1.0, 10.0).unwrap()) as Box<dyn Distribution>,
            ),
            (
                0.1,
                Box::new(Uniform::new(10.0, 1000.0).unwrap()) as Box<dyn Distribution>,
            ),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(Mixture::new(vec![]).is_err());
        assert!(Mixture::new(vec![
            (0.6, Box::new(Exponential::new(1.0).unwrap()) as Box<dyn Distribution>),
            (0.6, Box::new(Exponential::new(2.0).unwrap()) as Box<dyn Distribution>),
        ])
        .is_err());
    }

    #[test]
    fn closed_form_moments_follow_the_weakest_component() {
        // Erlang's partial moments take the quadrature default
        let erlang = || Box::new(crate::distributions::Erlang::new(2, 1.0).unwrap());
        assert!(!erlang().closed_form_moments());
        let mixed = Mixture::new(vec![
            (0.5, erlang() as Box<dyn Distribution>),
            (0.5, Box::new(Exponential::with_mean(1.0).unwrap())),
        ])
        .unwrap();
        assert!(!mixed.closed_form_moments());
        // the calibrated C90 body–tail mixture
        let c90 = crate::fit::fit_body_tail(crate::fit::BodyTailTargets {
            mean: 4562.0,
            scv: 43.0,
            min: 60.0,
            max: 2.22e6,
            tail_jobs: 0.013,
            tail_load: 0.5,
        })
        .unwrap();
        assert!(c90.closed_form_moments());
    }

    #[test]
    fn moments_are_weighted_sums() {
        let m = body_tail();
        let want_mean = 0.9 * 5.5 + 0.1 * 505.0;
        assert!((m.mean() - want_mean).abs() < 1e-9);
        let want_m2 = 0.9 * (1000.0 - 1.0) / (3.0 * 9.0) + 0.1 * (1e9 - 1e3) / (3.0 * 990.0);
        assert!((m.raw_moment(2) - want_m2).abs() / want_m2 < 1e-9);
    }

    #[test]
    fn cdf_blends_components() {
        let m = body_tail();
        assert_eq!(m.cdf(1.0), 0.0);
        assert!((m.cdf(10.0) - 0.9).abs() < 1e-12);
        assert_eq!(m.cdf(1000.0), 1.0);
        // halfway through the body: 0.9·0.5
        assert!((m.cdf(5.5) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn support_spans_components() {
        let m = body_tail();
        assert_eq!(m.support(), (1.0, 1000.0));
    }

    #[test]
    fn partial_moments_additive_across_boundary() {
        let m = body_tail();
        for k in [-1i32, 0, 1, 2] {
            let whole = m.partial_moment(k, 0.0, 1000.0);
            let split = m.partial_moment(k, 0.0, 10.0) + m.partial_moment(k, 10.0, 1000.0);
            assert!((whole - split).abs() / whole.abs().max(1e-300) < 1e-9, "k = {k}");
        }
    }

    #[test]
    fn quantile_default_inverts_blended_cdf() {
        let m = body_tail();
        for &p in &[0.1, 0.45, 0.9, 0.95, 0.999] {
            let x = m.quantile(p);
            assert!((m.cdf(x) - p).abs() < 1e-8, "p = {p}");
        }
    }

    #[test]
    fn sampling_respects_weights() {
        let m = body_tail();
        let mut rng = Rng64::seed_from(5);
        let n = 100_000;
        let tail_count = (0..n).filter(|_| m.sample(&mut rng) > 10.0).count();
        let frac = tail_count as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "tail fraction = {frac}");
    }

    #[test]
    fn bp_body_tail_partial_moments_closed_form() {
        let m = Mixture::new(vec![
            (
                0.987,
                Box::new(BoundedPareto::new(1.0, 1.0e4, 0.6).unwrap()) as Box<dyn Distribution>,
            ),
            (
                0.013,
                Box::new(BoundedPareto::new(1.0e4, 2.2e6, 1.5).unwrap()) as Box<dyn Distribution>,
            ),
        ])
        .unwrap();
        // tail-load: jobs above 1e4 are exactly the tail component
        let tail_load = m.tail_load_fraction(1.0e4);
        let want = 0.013 * m.components()[1].mean() / m.mean();
        assert!((tail_load - want).abs() < 1e-9);
        // E[1/X] dominated by the body
        assert!(m.raw_moment(-1) > 0.1);
    }
}
