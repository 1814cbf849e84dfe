//! SITA system analysis: a size-interval policy as a bank of M/G/1 queues.
//!
//! Under any SITA policy with cutoffs `c₁ < c₂ < … < c_{h−1}`, host `i`
//! receives exactly the jobs with size in `(c_{i−1}, c_i]`. Poisson
//! splitting makes each host an independent M/G/1 whose
//!
//! * arrival rate is `λ·pᵢ` where `pᵢ = P(c_{i−1} < X ≤ c_i)`, and
//! * service distribution is `X` conditioned on the interval.
//!
//! Per-job system metrics are mixtures weighted by `pᵢ`. This module is
//! the computational core behind SITA-E, SITA-U-opt and SITA-U-fair: the
//! cutoff solvers in [`crate::cutoff`] repeatedly evaluate
//! [`SitaAnalysis::analyze`] at candidate cutoffs, exactly as the paper
//! describes ("Theorem 1 then allows us to determine the expected
//! slowdown and response time for each host and hence also the overall
//! slowdown and response time", §4.1).

use crate::mg1::{Mg1, ServiceMoments};
use dses_dist::Distribution;

/// Analysis of a single SITA host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SitaHost {
    /// size interval `(lo, hi]` assigned to this host
    pub interval: (f64, f64),
    /// fraction of all jobs routed here
    pub job_fraction: f64,
    /// arrival rate seen by this host
    pub lambda: f64,
    /// utilisation of this host
    pub rho: f64,
    /// fraction of the total *load* (work) routed here — Figure 5's y-axis
    pub load_fraction: f64,
    /// mean waiting time at this host
    pub mean_waiting: f64,
    /// mean slowdown (response convention) of jobs served here
    pub mean_slowdown: f64,
    /// mean queueing slowdown `E[W/X]` of jobs served here
    pub mean_queueing_slowdown: f64,
    /// second moment of queueing slowdown at this host
    pub queueing_slowdown_m2: f64,
    /// mean response time at this host
    pub mean_response: f64,
    /// conditioned service moments at this host
    pub service: Option<ServiceMoments>,
}

impl SitaHost {
    /// Analyse the host serving the size band `(a, b]` when jobs arrive at
    /// total rate `lambda` and `total_m1 = E[X]` — one host of
    /// [`SitaAnalysis::analyze`], which builds every host here. A solver
    /// that moves one cutoff re-analyses only the two bands it bounds.
    ///
    /// The band's mass and work plus its conditional service moments come
    /// from one `prob_in` and one [`Distribution::partial_moments`] call;
    /// an empty band (subnormal mass) takes neither sweep nor work and
    /// receives no jobs.
    #[must_use]
    pub(crate) fn of_band<D: Distribution + ?Sized>(
        dist: &D,
        lambda: f64,
        a: f64,
        b: f64,
        total_m1: f64,
    ) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "lambda must be positive");
        let p = dist.prob_in(a, b);
        // treat subnormal-probability bands as empty: the host gets
        // effectively no jobs, and λ·p would underflow to zero anyway
        // dses-lint: allow(float-totality) -- intentional exact-underflow guard
        if !(p > 1e-300) || lambda * p == 0.0 {
            return Self {
                interval: (a, b),
                job_fraction: 0.0,
                lambda: 0.0,
                rho: 0.0,
                load_fraction: 0.0,
                mean_waiting: 0.0,
                mean_slowdown: 0.0,
                mean_queueing_slowdown: 0.0,
                queueing_slowdown_m2: 0.0,
                mean_response: 0.0,
                service: None,
            };
        }
        let (work, service) = ServiceMoments::of_band(dist, a, b, p);
        let host_lambda = lambda * p;
        let q = Mg1::new(host_lambda, service);
        Self {
            interval: (a, b),
            job_fraction: p,
            lambda: host_lambda,
            rho: q.rho(),
            load_fraction: lambda * work / (lambda * total_m1),
            mean_waiting: q.mean_waiting(),
            mean_slowdown: q.mean_slowdown(),
            mean_queueing_slowdown: q.mean_queueing_slowdown(),
            queueing_slowdown_m2: q.queueing_slowdown_moment2(),
            mean_response: q.mean_response(),
            service: Some(service),
        }
    }
}

/// Whole-system analysis of a SITA policy.
///
/// ```
/// use dses_dist::prelude::*;
/// use dses_queueing::SitaAnalysis;
///
/// let sizes = BoundedPareto::new(1.0, 1.0e6, 1.1).unwrap();
/// let lambda = 1.2 / sizes.mean(); // system load 0.6 on 2 hosts
/// let a = SitaAnalysis::analyze(&sizes, lambda, &[1_000.0]);
/// assert!(a.is_stable());
/// // job and load fractions partition unity
/// let jobs: f64 = a.hosts.iter().map(|h| h.job_fraction).sum();
/// assert!((jobs - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SitaAnalysis {
    /// per-host breakdown, in cutoff order (host 0 = smallest jobs)
    pub hosts: Vec<SitaHost>,
    /// per-job mean slowdown (response convention)
    pub mean_slowdown: f64,
    /// per-job mean queueing slowdown `E[W/X]`
    pub mean_queueing_slowdown: f64,
    /// per-job variance of slowdown
    pub slowdown_variance: f64,
    /// per-job mean waiting time
    pub mean_waiting: f64,
    /// per-job mean response time
    pub mean_response: f64,
}

impl SitaAnalysis {
    /// Analyse a SITA system.
    ///
    /// * `dist` — the job-size distribution;
    /// * `lambda` — total arrival rate into the dispatcher;
    /// * `cutoffs` — `h − 1` strictly increasing interior cutoffs.
    ///
    /// Hosts with an empty size interval simply receive no jobs. If any
    /// host with positive job fraction is unstable (`ρᵢ ≥ 1`), the
    /// aggregate metrics are `+∞`.
    #[must_use]
    pub fn analyze<D: Distribution + ?Sized>(dist: &D, lambda: f64, cutoffs: &[f64]) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "lambda must be positive");
        assert!(
            cutoffs.windows(2).all(|w| w[0] < w[1]),
            "cutoffs must be strictly increasing"
        );
        let (_, sup_hi) = dist.support();
        let total_m1 = dist.raw_moment(1);
        let mut edges = Vec::with_capacity(cutoffs.len() + 2);
        edges.push(0.0);
        edges.extend_from_slice(cutoffs);
        edges.push(if sup_hi.is_finite() { sup_hi } else { f64::INFINITY });
        let hosts: Vec<SitaHost> = edges
            .windows(2)
            .map(|w| SitaHost::of_band(dist, lambda, w[0], w[1], total_m1))
            .collect();
        // Aggregate as per-job mixtures.
        let mean_qs = mixed_queueing_slowdown(&hosts);
        let mut qs_m2 = 0.0;
        let mut mean_w = 0.0;
        let mut mean_t = 0.0;
        for h in &hosts {
            // E[S²] where S = 1 + W/X: 1 + 2·E[W/X] + E[(W/X)²], mixed below
            qs_m2 += h.job_fraction * h.queueing_slowdown_m2;
            mean_w += h.job_fraction * h.mean_waiting;
            mean_t += h.job_fraction * h.mean_response;
        }
        let mean_slowdown = 1.0 + mean_qs;
        let slowdown_m2 = 1.0 + 2.0 * mean_qs + qs_m2;
        let slowdown_variance = slowdown_m2 - mean_slowdown * mean_slowdown;
        Self {
            hosts,
            mean_slowdown,
            mean_queueing_slowdown: mean_qs,
            slowdown_variance,
            mean_waiting: mean_w,
            mean_response: mean_t,
        }
    }

    /// Whether every host that receives jobs is stable.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        all_stable(&self.hosts)
    }

    /// Fraction of total load routed to host `i` (Figure 5's quantity for
    /// `i = 0`, the short-job host).
    #[must_use]
    pub fn load_fraction(&self, host: usize) -> f64 {
        self.hosts[host].load_fraction
    }

    /// Expected slowdown of a job of size `x` — the *analytic* fairness
    /// curve of §4: under FCFS within a band, a size-`x` job waits the
    /// band's `E[W]` regardless of `x`, so `E[S | X = x] = 1 + E[W_i]/x`
    /// where `i` is the band containing `x`. SITA-U-fair makes this curve
    /// approximately flat across the cutoff; SITA-E leaves a cliff.
    #[must_use]
    pub fn slowdown_at(&self, x: f64) -> f64 {
        assert!(x > 0.0, "size must be positive");
        let host = self
            .hosts
            .iter()
            .find(|h| x > h.interval.0 && x <= h.interval.1)
            .or_else(|| self.hosts.last())
            // dses-lint: allow(panic-hygiene) -- analyze() always builds >= 1 host (edges has >= 2 entries)
            .expect("at least one host");
        1.0 + host.mean_waiting / x
    }
}

/// Whether every host that receives jobs is stable.
fn all_stable<'h>(hosts: impl IntoIterator<Item = &'h SitaHost>) -> bool {
    hosts
        .into_iter()
        .all(|h| h.job_fraction <= 0.0 || h.rho < 1.0)
}

/// The per-job mean queueing slowdown `Σ pᵢ·E[Wᵢ/X]`, summed in host
/// order.
fn mixed_queueing_slowdown<'h>(hosts: impl IntoIterator<Item = &'h SitaHost>) -> f64 {
    hosts
        .into_iter()
        .fold(0.0, |acc, h| acc + h.job_fraction * h.mean_queueing_slowdown)
}

/// SITA-U-opt's objective over a bank of hosts in cutoff order: the
/// per-job mean queueing slowdown, or `+∞` unless every host that receives
/// jobs is stable. Bit-identical to `analyze` over the same bands, so a
/// solver may assemble the bank from hosts it kept.
pub(crate) fn stable_queueing_slowdown<'h, I>(hosts: I) -> f64
where
    I: IntoIterator<Item = &'h SitaHost>,
    I::IntoIter: Clone,
{
    let hosts = hosts.into_iter();
    if all_stable(hosts.clone()) {
        mixed_queueing_slowdown(hosts)
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dses_dist::prelude::*;

    fn c90ish() -> BoundedPareto {
        BoundedPareto::new(1.0, 1.0e6, 1.1).unwrap()
    }

    #[test]
    fn fractions_sum_to_one() {
        let d = c90ish();
        let lambda = 0.6 * 2.0 / d.mean();
        let a = SitaAnalysis::analyze(&d, lambda, &[100.0]);
        let pj: f64 = a.hosts.iter().map(|h| h.job_fraction).sum();
        let pl: f64 = a.hosts.iter().map(|h| h.load_fraction).sum();
        assert!((pj - 1.0).abs() < 1e-9);
        assert!((pl - 1.0).abs() < 1e-9);
    }

    #[test]
    fn host_rhos_sum_to_total_load() {
        // Σ ρ_i = λ Σ E[X·1(interval)] = λ E[X] = total offered work rate
        let d = c90ish();
        let lambda = 1.4 / d.mean(); // system load 0.7 on 2 hosts
        let a = SitaAnalysis::analyze(&d, lambda, &[500.0]);
        let sum_rho: f64 = a.hosts.iter().map(|h| h.rho).sum();
        assert!((sum_rho - 1.4).abs() < 1e-9, "sum rho = {sum_rho}");
    }

    #[test]
    fn most_jobs_are_short_under_heavy_tail() {
        // the paper's §3.3 observation: with an equal-load cutoff, ~98.7%
        // of jobs go to the short host
        let d = c90ish();
        // find the (approximately) equal-load point by scanning
        let m1 = d.mean();
        let mut c = 1.0;
        while d.partial_moment(1, 0.0, c) < m1 / 2.0 {
            c *= 1.05;
        }
        let a = SitaAnalysis::analyze(&d, 1.0 / m1, &[c]);
        assert!(a.hosts[0].job_fraction > 0.9, "short-host job fraction = {}", a.hosts[0].job_fraction);
        assert!((a.hosts[0].load_fraction - 0.5).abs() < 0.05);
    }

    #[test]
    fn variance_reduction_at_short_host() {
        // conditioning on (0, c] slashes E[X²] vs the whole distribution
        let d = c90ish();
        let a = SitaAnalysis::analyze(&d, 0.5 / d.mean(), &[1000.0]);
        let short = a.hosts[0].service.unwrap();
        let whole = ServiceMoments::of(&d);
        assert!(short.m2 < whole.m2 / 10.0);
    }

    #[test]
    fn empty_interval_host_is_benign() {
        let d = Uniform::new(10.0, 20.0).unwrap();
        // cutoff below the support: host 0 gets nothing
        let a = SitaAnalysis::analyze(&d, 0.01, &[5.0]);
        assert_eq!(a.hosts[0].job_fraction, 0.0);
        assert!((a.hosts[1].job_fraction - 1.0).abs() < 1e-12);
        assert!(a.mean_slowdown.is_finite());
    }

    #[test]
    fn unstable_host_propagates_to_aggregate() {
        let d = c90ish();
        // enormous lambda: both hosts overloaded
        let a = SitaAnalysis::analyze(&d, 100.0 / d.mean(), &[100.0]);
        assert!(!a.is_stable());
        assert_eq!(a.mean_slowdown, f64::INFINITY);
    }

    #[test]
    fn three_host_analysis() {
        let d = c90ish();
        let lambda = 1.5 / d.mean();
        let a = SitaAnalysis::analyze(&d, lambda, &[50.0, 5000.0]);
        assert_eq!(a.hosts.len(), 3);
        assert!(a.is_stable());
        // short hosts see smaller conditional means
        let m: Vec<f64> = a.hosts.iter().map(|h| h.service.unwrap().m1).collect();
        assert!(m[0] < m[1] && m[1] < m[2]);
    }

    #[test]
    fn slowdown_variance_nonnegative() {
        let d = c90ish();
        for &c in &[10.0, 100.0, 1000.0, 1e5] {
            let a = SitaAnalysis::analyze(&d, 1.0 / d.mean(), &[c]);
            if a.is_stable() {
                assert!(a.slowdown_variance >= -1e-9, "c = {c}: var = {}", a.slowdown_variance);
            }
        }
    }

    #[test]
    fn fairness_curve_is_flat_under_the_fair_cutoff() {
        let d = crate::cutoff::tests_support_c90ish();
        let lambda = 1.2 / d.mean();
        let fair = crate::cutoff::sita_u_fair_cutoff(&d, lambda).unwrap();
        let a = SitaAnalysis::analyze(&d, lambda, &[fair]);
        // compare expected slowdowns at the per-band mean sizes: the fair
        // cutoff equalises exactly these class averages
        let x_short = a.hosts[0].service.unwrap().m1;
        let x_long = a.hosts[1].service.unwrap().m1;
        let s_short = a.slowdown_at(x_short);
        let s_long = a.slowdown_at(x_long);
        // within a band the curve still falls in x (FCFS), but the class
        // levels around the band means must roughly agree
        assert!(
            (s_short / s_long) < 4.0 && (s_long / s_short) < 4.0,
            "short {s_short} vs long {s_long}"
        );
        // and SITA-E's cliff is visibly worse at the same comparison
        let e = crate::cutoff::sita_e_cutoffs(&d, 2).unwrap();
        let ae = SitaAnalysis::analyze(&d, lambda, &e);
        let es = ae.slowdown_at(ae.hosts[0].service.unwrap().m1);
        let el = ae.slowdown_at(ae.hosts[1].service.unwrap().m1);
        let fair_gap = (s_short / s_long).max(s_long / s_short);
        let e_gap = (es / el).max(el / es);
        assert!(e_gap > fair_gap, "E gap {e_gap} vs fair gap {fair_gap}");
    }

    #[test]
    fn slowdown_at_is_decreasing_within_a_band() {
        let d = c90ish();
        let a = SitaAnalysis::analyze(&d, 0.5 / d.mean(), &[1000.0]);
        assert!(a.slowdown_at(10.0) > a.slowdown_at(100.0));
        assert!(a.slowdown_at(2000.0) > a.slowdown_at(100_000.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unordered_cutoffs() {
        let d = c90ish();
        let _ = SitaAnalysis::analyze(&d, 0.001, &[100.0, 100.0]);
    }
}
