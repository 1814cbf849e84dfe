//! The M/G/1 FCFS queue — the paper's Theorem 1 and its higher-moment
//! extensions.
//!
//! Given Poisson arrivals at rate `λ` and service times `X`:
//!
//! * `ρ = λ·E[X]`
//! * `E[W] = λ·E[X²] / (2(1−ρ))` (Pollaczek–Khinchine)
//! * `E[W²] = 2·E[W]² + λ·E[X³] / (3(1−ρ))` (Takács recursion)
//! * `E[Q] = λ·E[W]` (Little)
//!
//! Because an arriving job's waiting time is independent of its own size
//! (PASTA + FCFS), slowdown moments factor:
//! `E[(W/X)^k] = E[W^k]·E[X^{−k}]`. The paper uses the first of these as
//! its Theorem 1; we also use the second to get the **variance of
//! slowdown** that Figures 2–4 (bottom) plot.

use dses_dist::Distribution;

/// The service-time moments an M/G/1 analysis needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMoments {
    /// `E[X]`
    pub m1: f64,
    /// `E[X²]`
    pub m2: f64,
    /// `E[X³]`
    pub m3: f64,
    /// `E[X⁻¹]` (may be `+∞` for distributions with mass near 0)
    pub inv1: f64,
    /// `E[X⁻²]` (may be `+∞`)
    pub inv2: f64,
}

impl ServiceMoments {
    /// Extract moments from a distribution.
    #[must_use]
    pub fn of<D: Distribution + ?Sized>(dist: &D) -> Self {
        Self {
            m1: dist.raw_moment(1),
            m2: dist.raw_moment(2),
            m3: dist.raw_moment(3),
            inv1: dist.raw_moment(-1),
            inv2: dist.raw_moment(-2),
        }
    }

    /// Extract *conditional* moments on the size interval `(a, b]` — the
    /// service distribution a SITA host sees.
    ///
    /// Returns `None` if the interval has no probability mass. The five
    /// partial moments come from one [`Distribution::partial_moments`]
    /// call, so a quadrature-fallback distribution sweeps its quantile
    /// nodes once per band, not once per order.
    #[must_use]
    pub fn of_interval<D: Distribution + ?Sized>(dist: &D, a: f64, b: f64) -> Option<Self> {
        let p = dist.prob_in(a, b);
        if p <= 0.0 {
            return None;
        }
        Some(Self::of_band(dist, a, b, p).1)
    }

    /// The band's unnormalised work `E[X·1{a < X ≤ b}]` and its
    /// conditional moments, given its mass `p = P(a < X ≤ b) > 0`.
    pub(crate) fn of_band<D: Distribution + ?Sized>(
        dist: &D,
        a: f64,
        b: f64,
        p: f64,
    ) -> (f64, Self) {
        let mut m = [0.0; 5];
        dist.partial_moments(&[1, 2, 3, -1, -2], a, b, &mut m);
        let [m1, m2, m3, inv1, inv2] = m;
        let moments = Self {
            m1: m1 / p,
            m2: m2 / p,
            m3: m3 / p,
            inv1: inv1 / p,
            inv2: inv2 / p,
        };
        (m1, moments)
    }

    /// Squared coefficient of variation.
    #[must_use]
    pub fn scv(&self) -> f64 {
        (self.m2 - self.m1 * self.m1) / (self.m1 * self.m1)
    }
}

/// An analysed M/G/1 FCFS queue.
///
/// ```
/// use dses_dist::prelude::*;
/// use dses_queueing::{Mg1, ServiceMoments};
///
/// // M/M/1 at rho = 0.5: E[W] = 1, E[T] = 2
/// let service = ServiceMoments::of(&Exponential::new(1.0).unwrap());
/// let q = Mg1::new(0.5, service);
/// assert!((q.mean_waiting() - 1.0).abs() < 1e-12);
/// assert!((q.mean_response() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mg1 {
    /// arrival rate
    pub lambda: f64,
    /// service moments
    pub service: ServiceMoments,
}

impl Mg1 {
    /// Create the queue. `lambda` must be positive.
    #[must_use]
    pub fn new(lambda: f64, service: ServiceMoments) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "lambda must be positive");
        Self { lambda, service }
    }

    /// Utilisation `ρ = λ·E[X]`.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.lambda * self.service.m1
    }

    /// Whether the queue is stable (`ρ < 1`).
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.rho() < 1.0
    }

    /// Mean waiting time `E[W]` (Pollaczek–Khinchine). `+∞` if unstable.
    #[must_use]
    pub fn mean_waiting(&self) -> f64 {
        pk_mean_waiting(self.lambda, self.service.m1, self.service.m2)
    }

    /// Second moment of waiting time `E[W²]` (Takács). `+∞` if unstable.
    #[must_use]
    pub fn waiting_moment2(&self) -> f64 {
        let rho = self.rho();
        if rho >= 1.0 {
            return f64::INFINITY;
        }
        let w1 = self.mean_waiting();
        2.0 * w1 * w1 + self.lambda * self.service.m3 / (3.0 * (1.0 - rho))
    }

    /// Variance of waiting time.
    #[must_use]
    pub fn waiting_variance(&self) -> f64 {
        let w1 = self.mean_waiting();
        self.waiting_moment2() - w1 * w1
    }

    /// Mean response (sojourn) time `E[T] = E[W] + E[X]`.
    #[must_use]
    pub fn mean_response(&self) -> f64 {
        self.mean_waiting() + self.service.m1
    }

    /// Variance of response time (`W ⟂ X` for the tagged job).
    #[must_use]
    pub fn response_variance(&self) -> f64 {
        self.waiting_variance() + (self.service.m2 - self.service.m1 * self.service.m1)
    }

    /// Mean queue length `E[Q] = λ·E[W]` (jobs waiting, excluding in
    /// service).
    #[must_use]
    pub fn mean_queue_len(&self) -> f64 {
        self.lambda * self.mean_waiting()
    }

    /// The paper's Theorem-1 slowdown: `E[W/X] = E[W]·E[X⁻¹]`.
    #[must_use]
    pub fn mean_queueing_slowdown(&self) -> f64 {
        self.mean_waiting() * self.service.inv1
    }

    /// Mean slowdown with the response-time convention:
    /// `E[T/X] = 1 + E[W]·E[X⁻¹]` (matches the simulator).
    #[must_use]
    pub fn mean_slowdown(&self) -> f64 {
        1.0 + self.mean_queueing_slowdown()
    }

    /// Second moment of queueing slowdown: `E[(W/X)²] = E[W²]·E[X⁻²]`.
    #[must_use]
    pub fn queueing_slowdown_moment2(&self) -> f64 {
        self.waiting_moment2() * self.service.inv2
    }

    /// Variance of slowdown (same for either convention, since they
    /// differ by the constant 1).
    #[must_use]
    pub fn slowdown_variance(&self) -> f64 {
        let m1 = self.mean_queueing_slowdown();
        self.queueing_slowdown_moment2() - m1 * m1
    }
}

/// The Pollaczek–Khinchine `E[W] = λ·E[X²] / (2(1−ρ))` at `ρ = λ·E[X]`,
/// `+∞` if unstable: [`Mg1::mean_waiting`] on the moments `m1 = E[X]`
/// and `m2 = E[X²]`, for callers that hold no [`ServiceMoments`].
pub(crate) fn pk_mean_waiting(lambda: f64, m1: f64, m2: f64) -> f64 {
    let rho = lambda * m1;
    if rho >= 1.0 {
        return f64::INFINITY;
    }
    lambda * m2 / (2.0 * (1.0 - rho))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dses_dist::prelude::*;

    #[test]
    fn service_moments_of_exponential() {
        let d = Exponential::new(2.0).unwrap();
        let s = ServiceMoments::of(&d);
        assert!((s.m1 - 0.5).abs() < 1e-12);
        assert!((s.m2 - 0.5).abs() < 1e-12);
        assert!((s.m3 - 0.75).abs() < 1e-12);
        assert_eq!(s.inv1, f64::INFINITY);
        assert!((s.scv() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mm1_closed_forms() {
        // M/M/1 with λ=0.5, μ=1: ρ=0.5, E[W] = ρ/(μ(1−ρ)) = 1
        let d = Exponential::new(1.0).unwrap();
        let q = Mg1::new(0.5, ServiceMoments::of(&d));
        assert!((q.rho() - 0.5).abs() < 1e-12);
        assert!((q.mean_waiting() - 1.0).abs() < 1e-12);
        assert!((q.mean_response() - 2.0).abs() < 1e-12);
        assert!((q.mean_queue_len() - 0.5).abs() < 1e-12);
        // E[W²] for M/M/1: 2E[W]²+λm3/(3(1−ρ)) = 2 + 0.5·6/1.5 = 4
        assert!((q.waiting_moment2() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn md1_halves_mm1_waiting() {
        // deterministic service halves PK waiting vs exponential
        let lam = 0.8;
        let exp = Mg1::new(lam, ServiceMoments::of(&Exponential::new(1.0).unwrap()));
        let det = Mg1::new(lam, ServiceMoments::of(&Deterministic::new(1.0).unwrap()));
        assert!((det.mean_waiting() / exp.mean_waiting() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unstable_queue_reports_infinity() {
        let d = Deterministic::new(2.0).unwrap();
        let q = Mg1::new(0.6, ServiceMoments::of(&d)); // rho = 1.2
        assert!(!q.is_stable());
        assert_eq!(q.mean_waiting(), f64::INFINITY);
        assert_eq!(q.waiting_moment2(), f64::INFINITY);
    }

    #[test]
    fn slowdown_conventions_differ_by_one() {
        let d = BoundedPareto::new(1.0, 1e5, 1.2).unwrap();
        let q = Mg1::new(0.5 / d.mean(), ServiceMoments::of(&d));
        assert!((q.mean_slowdown() - q.mean_queueing_slowdown() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_variance_is_nonnegative_and_finite_for_bp() {
        let d = BoundedPareto::new(1.0, 1e6, 1.1).unwrap();
        let q = Mg1::new(0.7 / d.mean(), ServiceMoments::of(&d));
        let v = q.slowdown_variance();
        assert!(v.is_finite() && v >= 0.0, "var = {v}");
    }

    #[test]
    fn conditional_interval_moments() {
        let d = Uniform::new(1.0, 3.0).unwrap();
        let s = ServiceMoments::of_interval(&d, 2.0, 3.0).unwrap();
        assert!((s.m1 - 2.5).abs() < 1e-6);
        assert!(ServiceMoments::of_interval(&d, 5.0, 6.0).is_none());
    }

    #[test]
    fn waiting_grows_with_service_variance() {
        // same mean, increasing C² → increasing E[W] (PK says linear in m2)
        let lam = 0.5;
        let low = Mg1::new(lam, ServiceMoments::of(&Erlang::with_mean(4, 1.0).unwrap()));
        let mid = Mg1::new(lam, ServiceMoments::of(&Exponential::with_mean(1.0).unwrap()));
        let high = Mg1::new(
            lam,
            ServiceMoments::of(&HyperExponential::fit_mean_scv(1.0, 10.0).unwrap()),
        );
        assert!(low.mean_waiting() < mid.mean_waiting());
        assert!(mid.mean_waiting() < high.mean_waiting());
    }

    #[test]
    fn pk_blows_up_as_rho_approaches_one() {
        let d = Exponential::new(1.0).unwrap();
        let w_90 = Mg1::new(0.9, ServiceMoments::of(&d)).mean_waiting();
        let w_99 = Mg1::new(0.99, ServiceMoments::of(&d)).mean_waiting();
        assert!(w_99 > 9.0 * w_90);
    }
}
