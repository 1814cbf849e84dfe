//! Resolving SITA cutoffs — analytically or experimentally.
//!
//! The paper determines its cutoffs "both analytically and experimentally
//! using half of the trace data" and evaluates on the other half (§4.1),
//! finding the two methods agree. We implement both:
//!
//! * **Analytic** ([`resolve_cutoff`]) — Theorem-1 machinery from
//!   `dses-queueing`, applied to the job-size distribution (which may be
//!   an [`dses_dist::Empirical`] built from a training trace — exactly
//!   the paper's "compute the load and E{X²} at each host from the trace
//!   data").
//! * **Experimental** ([`experimental_cutoff`]) — simulate a training
//!   trace at a grid of candidate cutoffs and pick the best (SITA-U-opt)
//!   or the most balanced short/long slowdown (SITA-U-fair).

use crate::policies::SizeInterval;
use crate::rule_of_thumb::rule_of_thumb_cutoff;
use dses_dist::{Distribution, Empirical};
use dses_queueing::cutoff::{
    check_rate, sita_e_cutoffs, sita_u_fair_cutoff, sita_u_fair_cutoffs_multi, sita_u_opt_cutoff,
    sita_u_opt_cutoffs_multi, CutoffError,
};
use dses_sim::{simulate_dispatch, MetricsConfig};
use dses_workload::Trace;

/// Which SITA cutoff rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutoffMethod {
    /// Equalise per-host load — SITA-E.
    EqualLoad,
    /// Minimise mean slowdown — SITA-U-opt (2 hosts).
    OptSlowdown,
    /// Equalise short-job and long-job expected slowdown — SITA-U-fair
    /// (2 hosts).
    Fair,
    /// The ρ/2 rule of thumb (2 hosts).
    RuleOfThumb,
}

impl CutoffMethod {
    /// Paper-style policy label for this rule.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CutoffMethod::EqualLoad => "SITA-E",
            CutoffMethod::OptSlowdown => "SITA-U-opt",
            CutoffMethod::Fair => "SITA-U-fair",
            CutoffMethod::RuleOfThumb => "SITA-U-rot",
        }
    }
}

/// Resolve cutoffs analytically for `hosts` hosts at total arrival rate
/// `lambda`.
///
/// `EqualLoad`, `OptSlowdown` and `Fair` support any host count (the
/// SITA-U rules use the multi-host water-filling/coordinate-descent
/// solvers beyond 2 hosts — an extension over the paper, whose §5 falls
/// back to grouping; see [`crate::policies::GroupedSita`] for that
/// policy). `RuleOfThumb` is the paper's 2-host rule. The rules that
/// depend on the load (all but `EqualLoad`) return
/// [`CutoffError::InvalidRate`] unless `lambda` is positive and finite.
pub fn resolve_cutoff<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    hosts: usize,
    method: CutoffMethod,
) -> Result<Vec<f64>, CutoffError> {
    match method {
        CutoffMethod::EqualLoad => sita_e_cutoffs(dist, hosts),
        CutoffMethod::OptSlowdown => {
            if hosts == 2 {
                Ok(vec![sita_u_opt_cutoff(dist, lambda)?])
            } else {
                sita_u_opt_cutoffs_multi(dist, lambda, hosts)
            }
        }
        CutoffMethod::Fair => {
            if hosts == 2 {
                Ok(vec![sita_u_fair_cutoff(dist, lambda)?])
            } else {
                sita_u_fair_cutoffs_multi(dist, lambda, hosts)
            }
        }
        CutoffMethod::RuleOfThumb => {
            if hosts != 2 {
                return Err(CutoffError::SolveFailed(format!(
                    "the rho/2 rule of thumb is the paper's 2-host rule (got {hosts} hosts)"
                )));
            }
            check_rate(lambda)?;
            let rho = lambda * dist.raw_moment(1) / hosts as f64;
            if rho >= 1.0 {
                return Err(CutoffError::Infeasible { offered: rho * hosts as f64 });
            }
            Ok(vec![rule_of_thumb_cutoff(dist, rho)])
        }
    }
}

/// Determine a 2-host cutoff *experimentally*: simulate `training` at
/// `grid` log-spaced candidate cutoffs and select per `method`
/// (`OptSlowdown` → lowest mean slowdown; `Fair` → smallest
/// short-vs-long slowdown gap; `EqualLoad`/`RuleOfThumb` → computed from
/// the trace's empirical distribution, no simulation needed).
///
/// This is the paper's procedure: "The experimental cutoffs are derived
/// in the same way only that for a given cutoff we used simulation
/// instead of analysis" (§4.1).
pub fn experimental_cutoff(
    training: &Trace,
    method: CutoffMethod,
    grid: usize,
    seed: u64,
) -> Result<f64, CutoffError> {
    assert!(grid >= 2, "need at least two candidate cutoffs");
    let sizes = training.sizes();
    let emp = Empirical::from_values(sizes)
        .map_err(|e| CutoffError::SolveFailed(format!("empirical build failed: {e}")))?;
    match method {
        CutoffMethod::EqualLoad => {
            return Ok(sita_e_cutoffs(&emp, 2)?[0]);
        }
        CutoffMethod::RuleOfThumb => {
            check_rate(training.arrival_rate())?;
            let rho = training.system_load(2);
            if !(rho < 1.0) {
                return Err(CutoffError::Infeasible { offered: 2.0 * rho });
            }
            return Ok(rule_of_thumb_cutoff(&emp, rho));
        }
        CutoffMethod::OptSlowdown | CutoffMethod::Fair => {}
    }
    let (lo, hi) = emp.support();
    let (llo, lhi) = (lo.max(1e-12).ln(), hi.ln());
    let mut best_cutoff = f64::NAN;
    let mut best_score = f64::INFINITY;
    for i in 1..grid {
        let c = (llo + (lhi - llo) * i as f64 / grid as f64).exp();
        let mut policy = SizeInterval::new(vec![c], "candidate");
        let result = simulate_dispatch(
            training,
            2,
            &mut policy,
            seed,
            MetricsConfig {
                split_cutoff: Some(c),
                ..MetricsConfig::default()
            },
        );
        let score = match method {
            CutoffMethod::OptSlowdown => result.slowdown.mean,
            CutoffMethod::Fair => match (&result.short_slowdown, &result.long_slowdown) {
                (Some(short), Some(long)) if short.count > 0 && long.count > 0 => {
                    (short.mean - long.mean).abs()
                }
                // split_cutoff is set above, so both sides exist; an
                // empty side just cannot be a fairness candidate
                _ => f64::INFINITY,
            },
            _ => unreachable!("handled above"),
        };
        if score < best_score {
            best_score = score;
            best_cutoff = c;
        }
    }
    if best_cutoff.is_nan() {
        Err(CutoffError::SolveFailed(
            "no candidate cutoff produced a finite score".to_string(),
        ))
    } else {
        Ok(best_cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dses_dist::fit::{fit_body_tail, BodyTailTargets};
    use dses_dist::Mixture;
    use dses_workload::WorkloadBuilder;

    fn c90ish() -> Mixture {
        fit_body_tail(BodyTailTargets {
            mean: 4562.0,
            scv: 43.0,
            min: 60.0,
            max: 2.22e6,
            tail_jobs: 0.013,
            tail_load: 0.5,
        })
        .unwrap()
    }

    #[test]
    fn analytic_resolution_by_method() {
        let d = c90ish();
        let lambda = 1.2 / d.mean(); // system load 0.6 on 2 hosts
        let e = resolve_cutoff(&d, lambda, 2, CutoffMethod::EqualLoad).unwrap();
        let opt = resolve_cutoff(&d, lambda, 2, CutoffMethod::OptSlowdown).unwrap();
        let fair = resolve_cutoff(&d, lambda, 2, CutoffMethod::Fair).unwrap();
        let rot = resolve_cutoff(&d, lambda, 2, CutoffMethod::RuleOfThumb).unwrap();
        // unbalancing rules pick smaller cutoffs than equal-load
        assert!(opt[0] < e[0]);
        assert!(fair[0] < e[0]);
        assert!(rot[0] < e[0]);
    }

    #[test]
    fn sita_u_generalises_to_four_hosts() {
        let d = c90ish();
        let lambda = 0.7 * 4.0 / d.mean();
        for method in [CutoffMethod::OptSlowdown, CutoffMethod::Fair, CutoffMethod::EqualLoad] {
            let cuts = resolve_cutoff(&d, lambda, 4, method).unwrap();
            assert_eq!(cuts.len(), 3, "{method:?}");
            assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{method:?}");
        }
        // the rule of thumb remains the paper's 2-host rule
        assert!(resolve_cutoff(&d, lambda, 4, CutoffMethod::RuleOfThumb).is_err());
    }

    #[test]
    fn rules_that_need_an_arrival_rate_reject_a_missing_one() {
        let d = c90ish();
        for lambda in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for (method, hosts) in [
                (CutoffMethod::OptSlowdown, 2),
                (CutoffMethod::Fair, 2),
                (CutoffMethod::RuleOfThumb, 2),
                (CutoffMethod::OptSlowdown, 4),
                (CutoffMethod::Fair, 4),
            ] {
                let got = resolve_cutoff(&d, lambda, hosts, method);
                assert!(
                    matches!(got, Err(CutoffError::InvalidRate { .. })),
                    "{method:?} h={hosts} lambda={lambda}: {got:?}"
                );
            }
        }
        // a one-job training trace has no arrival rate either
        let one = Trace::new(vec![dses_workload::Job::new(0, 1.0, 100.0)]);
        let got = experimental_cutoff(&one, CutoffMethod::RuleOfThumb, 8, 1);
        assert!(matches!(got, Err(CutoffError::InvalidRate { lambda }) if lambda == 0.0));
    }

    #[test]
    fn every_rule_rejects_a_host_count_it_cannot_serve() {
        let d = c90ish();
        let lambda = 0.5 / d.mean();
        for hosts in [0, 1] {
            for method in [
                CutoffMethod::EqualLoad,
                CutoffMethod::OptSlowdown,
                CutoffMethod::Fair,
                CutoffMethod::RuleOfThumb,
            ] {
                let got = resolve_cutoff(&d, lambda, hosts, method);
                if method == CutoffMethod::EqualLoad && hosts == 1 {
                    // one host needs no cutoff
                    assert_eq!(got, Ok(vec![]));
                } else {
                    let named = format!("got {hosts}");
                    assert!(
                        matches!(&got, Err(CutoffError::SolveFailed(m)) if m.contains(&named)),
                        "{method:?} h={hosts}: {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sita_u_on_a_support_from_zero_is_an_error_or_finite_never_a_panic() {
        use crate::{Experiment, PolicySpec};
        use dses_dist::{Exponential, HyperExponential, LogNormal, Uniform, Weibull};
        use dses_queueing::{analyze_policy, AnalyticPolicy, SitaAnalysis};
        use std::sync::Arc;
        // every support starts at 0; where the density is positive there,
        // E[X⁻¹] = ∞ on the lowest band and no cutoff set has a finite
        // mean slowdown, so the solve must fail rather than return one
        let dists: [(&str, Arc<dyn Distribution>, bool); 5] = [
            ("Exponential", Arc::new(Exponential::with_mean(1000.0).unwrap()), false),
            ("HyperExp", Arc::new(HyperExponential::fit_mean_scv(1000.0, 4.0).unwrap()), false),
            ("Uniform(0, 2000)", Arc::new(Uniform::new(0.0, 2000.0).unwrap()), false),
            ("LogNormal", Arc::new(LogNormal::new(6.0, 1.0).unwrap()), true),
            ("Weibull", Arc::new(Weibull::new(3.0, 1000.0).unwrap()), true),
        ];
        let rho = 0.7;
        for (name, d, solvable) in &dists {
            for hosts in [3, 4] {
                let lambda = rho * hosts as f64 / d.mean();
                for (method, policy, spec) in [
                    (CutoffMethod::OptSlowdown, AnalyticPolicy::SitaUOpt, PolicySpec::SitaUOpt),
                    (CutoffMethod::Fair, AnalyticPolicy::SitaUFair, PolicySpec::SitaUFair),
                ] {
                    let case = format!("{name} h={hosts} {method:?}");
                    let finite = |cutoffs: &[f64]| {
                        assert_eq!(cutoffs.len(), hosts - 1, "{case}");
                        assert!(cutoffs.iter().all(|c| c.is_finite()), "{case}: {cutoffs:?}");
                        assert!(cutoffs.windows(2).all(|w| w[0] < w[1]), "{case}: {cutoffs:?}");
                        let s = SitaAnalysis::analyze(d, lambda, cutoffs).mean_slowdown;
                        assert!(s.is_finite(), "{case}: mean slowdown {s} at {cutoffs:?}");
                    };
                    let solved = resolve_cutoff(d, lambda, hosts, method);
                    let analysed = analyze_policy(policy, d, lambda, hosts);
                    let run = Experiment::new(Arc::clone(d))
                        .hosts(hosts)
                        .jobs(2_000)
                        .seed(1)
                        .try_run(&spec, rho);
                    if *solvable {
                        finite(&solved.unwrap());
                        let a = analysed.unwrap();
                        finite(a.cutoffs.as_deref().expect("SITA reports its cutoffs"));
                        assert!(a.mean_slowdown.is_finite(), "{case}");
                        assert!(run.unwrap().slowdown.mean.is_finite(), "{case}");
                    } else {
                        assert!(
                            matches!(solved, Err(CutoffError::SolveFailed(_))),
                            "{case}: {solved:?}"
                        );
                        assert!(matches!(analysed, Err(CutoffError::SolveFailed(_))), "{case}");
                        assert!(matches!(run, Err(CutoffError::SolveFailed(_))), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn experimental_agrees_with_analytic_on_equal_load() {
        let d = c90ish();
        let trace = WorkloadBuilder::new(d.clone())
            .jobs(20_000)
            .poisson_load(0.5, 2)
            .seed(3)
            .build();
        let exp = experimental_cutoff(&trace, CutoffMethod::EqualLoad, 40, 0).unwrap();
        let ana = resolve_cutoff(&d, 1.0 / d.mean(), 2, CutoffMethod::EqualLoad).unwrap()[0];
        // same order of magnitude (the trace is a finite sample)
        assert!(exp > ana / 5.0 && exp < ana * 5.0, "exp {exp} vs ana {ana}");
    }

    #[test]
    fn experimental_opt_beats_experimental_equal_load() {
        let d = c90ish();
        let trace = WorkloadBuilder::new(d)
            .jobs(15_000)
            .poisson_load(0.6, 2)
            .seed(5)
            .build();
        let c_e = experimental_cutoff(&trace, CutoffMethod::EqualLoad, 30, 0).unwrap();
        let c_o = experimental_cutoff(&trace, CutoffMethod::OptSlowdown, 30, 0).unwrap();
        let score = |c: f64| {
            let mut p = SizeInterval::new(vec![c], "x");
            simulate_dispatch(&trace, 2, &mut p, 0, MetricsConfig::default())
                .slowdown
                .mean
        };
        assert!(score(c_o) <= score(c_e) * (1.0 + 1e-9));
    }

    #[test]
    fn experimental_fair_narrows_the_gap() {
        let d = c90ish();
        let trace = WorkloadBuilder::new(d)
            .jobs(15_000)
            .poisson_load(0.6, 2)
            .seed(7)
            .build();
        let c = experimental_cutoff(&trace, CutoffMethod::Fair, 30, 0).unwrap();
        let mut p = SizeInterval::new(vec![c], "fair");
        let r = simulate_dispatch(&trace, 2, &mut p, 0, MetricsConfig {
            split_cutoff: Some(c),
            ..MetricsConfig::default()
        });
        let short = r.short_slowdown.unwrap().mean;
        let long = r.long_slowdown.unwrap().mean;
        // gap smaller than the equal-load gap
        let c_e = experimental_cutoff(&trace, CutoffMethod::EqualLoad, 30, 0).unwrap();
        let mut pe = SizeInterval::new(vec![c_e], "e");
        let re = simulate_dispatch(&trace, 2, &mut pe, 0, MetricsConfig {
            split_cutoff: Some(c_e),
            ..MetricsConfig::default()
        });
        let gap_fair = (short - long).abs();
        let gap_e =
            (re.short_slowdown.unwrap().mean - re.long_slowdown.unwrap().mean).abs();
        assert!(gap_fair <= gap_e, "fair gap {gap_fair} vs E gap {gap_e}");
    }

    #[test]
    fn labels() {
        assert_eq!(CutoffMethod::EqualLoad.label(), "SITA-E");
        assert_eq!(CutoffMethod::Fair.label(), "SITA-U-fair");
    }
}
