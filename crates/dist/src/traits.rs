//! The [`Distribution`] trait: everything SITA-style queueing analysis
//! needs from a job-size distribution.
//!
//! Beyond the usual `sample`/`cdf`/`quantile`, the trait exposes:
//!
//! * **raw moments of any integer order, including negative** —
//!   `E[X^{-1}]` is what turns mean waiting time into mean slowdown in the
//!   paper's Theorem 1 (`E[S] = E[W]·E[1/X]`);
//! * **partial moments** `E[X^k · 1{a < X ≤ b}]` — the building block of
//!   SITA analysis, where each host sees the size distribution restricted
//!   to one interval between cutoffs.
//!
//! Implementors provide closed forms where available (the Bounded Pareto
//! has closed-form partial moments for every `k`); the trait supplies
//! robust numeric defaults (quantile-space Gauss–Legendre quadrature) for
//! the rest.

use crate::numeric;
use crate::rng::Rng64;

/// Error for invalid distribution parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DistError {
    msg: String,
}

impl DistError {
    /// Construct an error with a human-readable message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameters: {}", self.msg)
    }
}

impl std::error::Error for DistError {}

/// A continuous, positive-valued probability distribution.
///
/// All `dses` job-size and interarrival distributions implement this
/// trait. Implementations must be deterministic functions of their
/// parameters: two equal distributions driven by equal [`Rng64`] states
/// produce identical sample streams.
pub trait Distribution: std::fmt::Debug + Send + Sync {
    /// Draw one variate.
    fn sample(&self, rng: &mut Rng64) -> f64;

    /// The support `(lo, hi)`; `hi` may be `f64::INFINITY`.
    fn support(&self) -> (f64, f64);

    /// Cumulative distribution function `P(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile function (inverse CDF) at probability `p ∈ [0, 1]`.
    ///
    /// The default inverts [`Distribution::cdf`] by bisection, expanding
    /// the bracket geometrically when the support is unbounded.
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile probability {p} not in [0,1]");
        let (lo, hi) = self.support();
        if p <= 0.0 {
            return lo;
        }
        if p >= 1.0 {
            return hi;
        }
        let mut bracket_hi = if hi.is_finite() {
            hi
        } else {
            // expand until the cdf exceeds p
            let mut b = if lo > 0.0 { lo * 2.0 } else { 1.0 };
            while self.cdf(b) < p {
                b *= 2.0;
                if !b.is_finite() {
                    return f64::INFINITY;
                }
            }
            b
        };
        let mut bracket_lo = lo;
        // bisect on cdf(x) - p
        for _ in 0..200 {
            let mid = 0.5 * (bracket_lo + bracket_hi);
            if mid == bracket_lo || mid == bracket_hi {
                return mid;
            }
            if self.cdf(mid) < p {
                bracket_lo = mid;
            } else {
                bracket_hi = mid;
            }
        }
        0.5 * (bracket_lo + bracket_hi)
    }

    /// Raw moment `E[X^k]` for integer `k` (negative orders allowed).
    ///
    /// The default integrates in quantile space,
    /// `E[X^k] = ∫₀¹ Q(u)^k du`, which is numerically robust even for
    /// heavy-tailed distributions because the tail is compressed into a
    /// short stretch of `u` near 1 (we refine panels there).
    fn raw_moment(&self, k: i32) -> f64 {
        if k == 0 {
            return 1.0;
        }
        let mut m = [0.0];
        quantile_space_moments(self, &[k], 0.0, 1.0, &mut m);
        m[0]
    }

    /// Mean `E[X]`.
    fn mean(&self) -> f64 {
        self.raw_moment(1)
    }

    /// Variance `E[X²] − E[X]²`.
    fn variance(&self) -> f64 {
        let m1 = self.raw_moment(1);
        (self.raw_moment(2) - m1 * m1).max(0.0)
    }

    /// Squared coefficient of variation `C² = Var[X] / E[X]²` — the
    /// variability statistic the paper reports for every trace (Table 1).
    fn scv(&self) -> f64 {
        let m = self.mean();
        self.variance() / (m * m)
    }

    /// Probability mass of the interval: `P(a < X ≤ b)`.
    fn prob_in(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        (self.cdf(b) - self.cdf(a)).clamp(0.0, 1.0)
    }

    /// Partial moment `E[X^k · 1{a < X ≤ b}]` (unnormalised).
    ///
    /// For SITA analysis: a host assigned the size interval `(a, b]`
    /// receives a fraction [`Distribution::prob_in`]`(a, b)` of arrivals,
    /// and the conditional moments of its service times are
    /// `partial_moment(k, a, b) / prob_in(a, b)`.
    ///
    /// The default integrates in quantile space over `[F(a), F(b)]`: it
    /// is the one-order case of [`quantile_space_partial_moments`].
    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        let mut m = [0.0];
        quantile_space_partial_moments(self, &[k], a, b, &mut m);
        m[0]
    }

    /// Several partial moments of one band at once:
    /// `out[j] = partial_moment(ks[j], a, b)`.
    ///
    /// Contract: every `out[j]` is bit-identical to
    /// [`Distribution::partial_moment`]`(ks[j], a, b)`, so a caller may
    /// batch or split its orders freely without moving a result. Batching
    /// exists for distributions whose partial moments share expensive
    /// work across orders — a quantile-space quadrature evaluates the same
    /// quantile nodes for every order, so one sweep can serve them all
    /// (override with [`quantile_space_partial_moments`]). A SITA
    /// analysis asks for five orders per band (`ServiceMoments::of_interval`
    /// in `dses-queueing`), a cutoff objective for three.
    ///
    /// The default loops over `partial_moment`, so types with closed forms
    /// keep their own per-order code; wrappers forward to the inner
    /// distribution.
    ///
    /// # Panics
    /// Panics if `ks` and `out` differ in length.
    fn partial_moments(&self, ks: &[i32], a: f64, b: f64, out: &mut [f64]) {
        assert_eq!(ks.len(), out.len(), "one output slot per order");
        for (o, &k) in out.iter_mut().zip(ks) {
            *o = self.partial_moment(k, a, b);
        }
    }

    /// Conditional moment `E[X^k | a < X ≤ b]`.
    ///
    /// Returns 0 when the interval has no mass.
    fn conditional_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        let p = self.prob_in(a, b);
        if p <= 0.0 {
            0.0
        } else {
            self.partial_moment(k, a, b) / p
        }
    }

    /// The fraction of the distribution's *load* (its first moment) carried
    /// by jobs larger than `x`: `E[X · 1{X > x}] / E[X]`.
    ///
    /// The paper leans on this quantity: for the C90 workload, the largest
    /// 1.3 % of jobs carry half the load (§4.3).
    fn tail_load_fraction(&self, x: f64) -> f64 {
        let (_, hi) = self.support();
        let m = self.mean();
        if m <= 0.0 {
            return 0.0;
        }
        (self.partial_moment(1, x, hi) / m).clamp(0.0, 1.0)
    }

    /// Whether [`Distribution::raw_moment`] and
    /// [`Distribution::partial_moment`] resolve in closed form (possibly
    /// via special functions), rather than falling back to the
    /// quantile-space quadrature defaults above.
    ///
    /// Descriptive only: no solver in the workspace branches on it, and
    /// the answer must never affect a result.
    ///
    /// Default `false` (this trait's own defaults are quadrature).
    /// Implementors overriding both moment methods should return `true`;
    /// wrappers forward the inner distribution's answer.
    fn closed_form_moments(&self) -> bool {
        false
    }
}

/// Orders one quadrature sweep carries (see [`numeric::integrate_lanes`]);
/// longer order lists take one sweep per `SWEEP_LANES` orders. A single
/// order takes a one-lane sweep, so per-order callers pay for no spare
/// lanes.
const SWEEP_LANES: usize = 8;

/// The trait's quadrature default for partial moments, for every order in
/// `ks` from **one** sweep of quantile nodes: `out[j] =
/// E[X^{ks[j]} · 1{a < X ≤ b}]`.
///
/// Each lane is bit-identical to the default
/// [`Distribution::partial_moment`], which is this function's one-order
/// case. A distribution whose partial moments take that default should
/// override [`Distribution::partial_moments`] with this function: a
/// quantile evaluation is its dominant cost, and the sweep evaluates each
/// node once instead of once per order.
///
/// # Panics
/// Panics if `ks` and `out` differ in length.
pub fn quantile_space_partial_moments<D: Distribution + ?Sized>(
    d: &D,
    ks: &[i32],
    a: f64,
    b: f64,
    out: &mut [f64],
) {
    assert_eq!(ks.len(), out.len(), "one output slot per order");
    if b <= a {
        out.fill(0.0);
        return;
    }
    if ks.iter().any(|&k| k != 0) {
        let fa = d.cdf(a);
        let fb = d.cdf(b);
        quantile_space_moments(d, ks, fa, fb, out);
    }
    if ks.contains(&0) {
        let p = d.prob_in(a, b);
        for (o, &k) in out.iter_mut().zip(ks) {
            if k == 0 {
                *o = p;
            }
        }
    }
}

/// `out[j] = ∫_{u_lo}^{u_hi} Q(u)^{ks[j]} du` by composite Gauss–Legendre
/// with extra panel density near `u = 1`, where heavy tails concentrate.
fn quantile_space_moments<D: Distribution + ?Sized>(
    d: &D,
    ks: &[i32],
    u_lo: f64,
    u_hi: f64,
    out: &mut [f64],
) {
    if let [k] = ks {
        out[0] = quantile_space_lanes::<1, D>(d, &[*k], u_lo, u_hi)[0];
        return;
    }
    for (ks, out) in ks.chunks(SWEEP_LANES).zip(out.chunks_mut(SWEEP_LANES)) {
        let lanes = quantile_space_lanes::<SWEEP_LANES, D>(d, ks, u_lo, u_hi);
        out.copy_from_slice(&lanes[..ks.len()]);
    }
}

/// One sweep of [`quantile_space_moments`] over at most `N` orders; lanes
/// past `ks.len()` are unused.
fn quantile_space_lanes<const N: usize, D: Distribution + ?Sized>(
    d: &D,
    ks: &[i32],
    u_lo: f64,
    u_hi: f64,
) -> [f64; N] {
    debug_assert!(u_lo <= u_hi);
    let mut total = [0.0; N];
    if u_hi <= u_lo {
        return total;
    }
    let g = |u: f64, v: &mut [f64; N]| {
        let q = d.quantile(u);
        for (v, &k) in v.iter_mut().zip(ks) {
            *v = q.powi(k);
        }
    };
    let mut add = |panel: [f64; N]| {
        for (t, p) in total.iter_mut().zip(panel) {
            *t += p;
        }
    };
    // Split [u_lo, u_hi] so the last 1% of probability gets geometric
    // refinement: heavy tails need it, light tails don't care.
    let split = (1.0f64 - 1e-2).max(u_lo).min(u_hi);
    if split > u_lo {
        add(numeric::integrate_lanes(g, u_lo, split, 96));
    }
    if u_hi > split {
        // Geometric subdivision of [split, u_hi]: panels shrink toward 1.
        let mut lo = split;
        let mut gap = u_hi - split;
        for _ in 0..48 {
            gap *= 0.5;
            let hi = u_hi - gap;
            if hi <= lo || gap < 1e-14 {
                break;
            }
            add(numeric::integrate_lanes(g, lo, hi, 8));
            lo = hi;
        }
        if u_hi > lo {
            add(numeric::integrate_lanes(g, lo, u_hi, 8));
        }
    }
    total
}

impl Distribution for Box<dyn Distribution> {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.as_ref().sample(rng)
    }
    fn support(&self) -> (f64, f64) {
        self.as_ref().support()
    }
    fn cdf(&self, x: f64) -> f64 {
        self.as_ref().cdf(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.as_ref().quantile(p)
    }
    fn raw_moment(&self, k: i32) -> f64 {
        self.as_ref().raw_moment(k)
    }
    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        self.as_ref().partial_moment(k, a, b)
    }
    fn partial_moments(&self, ks: &[i32], a: f64, b: f64, out: &mut [f64]) {
        self.as_ref().partial_moments(ks, a, b, out);
    }
    fn closed_form_moments(&self) -> bool {
        self.as_ref().closed_form_moments()
    }
}

impl Distribution for std::sync::Arc<dyn Distribution> {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.as_ref().sample(rng)
    }
    fn support(&self) -> (f64, f64) {
        self.as_ref().support()
    }
    fn cdf(&self, x: f64) -> f64 {
        self.as_ref().cdf(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.as_ref().quantile(p)
    }
    fn raw_moment(&self, k: i32) -> f64 {
        self.as_ref().raw_moment(k)
    }
    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        self.as_ref().partial_moment(k, a, b)
    }
    fn partial_moments(&self, ks: &[i32], a: f64, b: f64, out: &mut [f64]) {
        self.as_ref().partial_moments(ks, a, b, out);
    }
    fn closed_form_moments(&self) -> bool {
        self.as_ref().closed_form_moments()
    }
}

impl<D: Distribution> Distribution for &D {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        (**self).sample(rng)
    }
    fn support(&self) -> (f64, f64) {
        (**self).support()
    }
    fn cdf(&self, x: f64) -> f64 {
        (**self).cdf(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        (**self).quantile(p)
    }
    fn raw_moment(&self, k: i32) -> f64 {
        (**self).raw_moment(k)
    }
    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        (**self).partial_moment(k, a, b)
    }
    fn partial_moments(&self, ks: &[i32], a: f64, b: f64, out: &mut [f64]) {
        (**self).partial_moments(ks, a, b, out);
    }
    fn closed_form_moments(&self) -> bool {
        (**self).closed_form_moments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test distribution that only provides `cdf`/`sample`, exercising
    /// every trait default: Uniform(1, 3).
    #[derive(Debug)]
    struct BareUniform;

    impl Distribution for BareUniform {
        fn sample(&self, rng: &mut Rng64) -> f64 {
            1.0 + 2.0 * rng.uniform()
        }
        fn support(&self) -> (f64, f64) {
            (1.0, 3.0)
        }
        fn cdf(&self, x: f64) -> f64 {
            ((x - 1.0) / 2.0).clamp(0.0, 1.0)
        }
    }

    #[test]
    fn default_quantile_inverts_cdf() {
        let d = BareUniform;
        for &p in &[0.0, 0.1, 0.25, 0.5, 0.77, 1.0] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-9, "p = {p}, x = {x}");
        }
    }

    #[test]
    fn default_moments_match_closed_form() {
        let d = BareUniform;
        // E[X] = 2, E[X^2] = (3^3-1^3)/(3*2) = 26/6
        assert!((d.mean() - 2.0).abs() < 1e-6);
        assert!((d.raw_moment(2) - 26.0 / 6.0).abs() < 1e-5);
        // E[1/X] = ln(3)/2
        assert!((d.raw_moment(-1) - 3f64.ln() / 2.0).abs() < 1e-6);
    }

    #[test]
    fn default_variance_and_scv() {
        let d = BareUniform;
        let var = 4.0 / 12.0; // (b-a)^2/12
        assert!((d.variance() - var).abs() < 1e-5);
        assert!((d.scv() - var / 4.0).abs() < 1e-5);
    }

    #[test]
    fn default_partial_moment_consistency() {
        let d = BareUniform;
        // partial over full support == raw
        let full = d.partial_moment(1, 1.0, 3.0);
        assert!((full - d.mean()).abs() < 1e-5);
        // additivity over a split point
        let left = d.partial_moment(1, 1.0, 2.0);
        let right = d.partial_moment(1, 2.0, 3.0);
        assert!((left + right - full).abs() < 1e-6);
        // conditional mean of the top half of Uniform(1,3) is 2.5
        assert!((d.conditional_moment(1, 2.0, 3.0) - 2.5).abs() < 1e-5);
    }

    #[test]
    fn empty_interval_has_zero_mass_and_moment() {
        let d = BareUniform;
        assert_eq!(d.prob_in(2.0, 2.0), 0.0);
        assert_eq!(d.partial_moment(2, 2.5, 2.0), 0.0);
        assert_eq!(d.conditional_moment(1, 2.0, 2.0), 0.0);
    }

    #[test]
    fn tail_load_fraction_uniform() {
        let d = BareUniform;
        // load above x=2: E[X;X>2]/E[X] = 2.5*0.5/2 = 0.625
        assert!((d.tail_load_fraction(2.0) - 0.625).abs() < 1e-5);
        assert!((d.tail_load_fraction(1.0) - 1.0).abs() < 1e-6);
        assert!(d.tail_load_fraction(3.0).abs() < 1e-6);
    }

    #[test]
    fn boxed_distribution_delegates() {
        let d: Box<dyn Distribution> = Box::new(BareUniform);
        assert!((d.mean() - 2.0).abs() < 1e-5);
        let mut rng = Rng64::seed_from(3);
        let x = d.sample(&mut rng);
        assert!((1.0..=3.0).contains(&x));
    }

    #[test]
    #[should_panic(expected = "not in [0,1]")]
    fn quantile_rejects_bad_probability() {
        let _ = BareUniform.quantile(1.5);
    }
}
