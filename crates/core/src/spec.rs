//! [`PolicySpec`] — a declarative description of a task-assignment
//! policy, resolved into a runnable policy for a concrete operating point
//! (size distribution, arrival rate, host count).
//!
//! The indirection matters because SITA policies are *parameterised by
//! the workload*: "SITA-U-fair at ρ = 0.7 on the C90 workload" only
//! becomes a concrete cutoff once the distribution and arrival rate are
//! known.

use crate::cutoffs::{resolve_cutoff, CutoffMethod};
use crate::policies::{
    GroupedSita, LeastWorkLeft, RandomPolicy, RoundRobin, ShortestQueue, SizeInterval,
};
use dses_dist::Distribution;
use dses_queueing::cutoff::CutoffError;
use dses_sim::{Dispatcher, QueueDiscipline};

/// A policy, described independent of the operating point.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// uniformly random host
    Random,
    /// cyclic assignment
    RoundRobin,
    /// fewest jobs in system
    ShortestQueue,
    /// least unfinished work (≡ Central-Queue)
    LeastWorkLeft,
    /// FCFS queue at the dispatcher, hosts pull when idle
    CentralQueue,
    /// Shortest-Job-First central queue (extension, §8 discussion)
    CentralSjf,
    /// size-interval with equal-load cutoffs
    SitaE,
    /// size-interval with the mean-slowdown-minimising cutoff (2 hosts)
    SitaUOpt,
    /// size-interval with the fairness cutoff (2 hosts) — the paper's
    /// headline policy
    SitaUFair,
    /// size-interval with the ρ/2 rule-of-thumb cutoff (2 hosts)
    SitaRuleOfThumb,
    /// explicit cutoffs (escape hatch for ablations)
    SitaFixed {
        /// the `h − 1` interior cutoffs
        cutoffs: Vec<f64>,
    },
    /// §5 grouped policy for `h > 2`: 2-host cutoff from the given
    /// method, hosts split into short/long groups by load share, LWL
    /// within each group
    Grouped {
        /// how to derive the 2-host cutoff
        method: CutoffMethod,
    },
}

/// A policy resolved at an operating point, ready to run.
pub enum BuiltPolicy {
    /// dispatch-on-arrival policy for the fast engine
    Dispatch(Box<dyn Dispatcher>),
    /// central-queue policy for the event engine
    Central(QueueDiscipline),
}

impl std::fmt::Debug for BuiltPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuiltPolicy::Dispatch(p) => write!(f, "Dispatch({})", p.name()),
            BuiltPolicy::Central(d) => write!(f, "Central({d:?})"),
        }
    }
}

impl PolicySpec {
    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            PolicySpec::Random => "Random".into(),
            PolicySpec::RoundRobin => "Round-Robin".into(),
            PolicySpec::ShortestQueue => "Shortest-Queue".into(),
            PolicySpec::LeastWorkLeft => "Least-Work-Left".into(),
            PolicySpec::CentralQueue => "Central-Queue".into(),
            PolicySpec::CentralSjf => "Central-SJF".into(),
            PolicySpec::SitaE => "SITA-E".into(),
            PolicySpec::SitaUOpt => "SITA-U-opt".into(),
            PolicySpec::SitaUFair => "SITA-U-fair".into(),
            PolicySpec::SitaRuleOfThumb => "SITA-U-rot".into(),
            PolicySpec::SitaFixed { cutoffs } => format!("SITA[{cutoffs:?}]"),
            PolicySpec::Grouped { method } => format!("{}/LWL", method.label()),
        }
    }

    /// The full roster of paper policies for a 2-host comparison.
    #[must_use]
    pub fn paper_roster() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Random,
            PolicySpec::RoundRobin,
            PolicySpec::ShortestQueue,
            PolicySpec::LeastWorkLeft,
            PolicySpec::SitaE,
            PolicySpec::SitaUOpt,
            PolicySpec::SitaUFair,
        ]
    }

    /// Resolve into a runnable policy for `hosts` hosts at total arrival
    /// rate `lambda` under job-size distribution `dist`.
    pub fn build<D: Distribution + ?Sized>(
        &self,
        dist: &D,
        lambda: f64,
        hosts: usize,
    ) -> Result<BuiltPolicy, CutoffError> {
        self.build_with_cutoffs(dist, lambda, hosts).map(|(built, _)| built)
    }

    /// [`PolicySpec::build`], also returning the cutoffs of a plain
    /// size-interval policy (the four SITA rules and `SitaFixed`; `None`
    /// for every other spec, `Grouped` included), so a caller that needs
    /// them does not solve them a second time.
    pub(crate) fn build_with_cutoffs<D: Distribution + ?Sized>(
        &self,
        dist: &D,
        lambda: f64,
        hosts: usize,
    ) -> Result<(BuiltPolicy, Option<Vec<f64>>), CutoffError> {
        let resolve = |method| resolve_cutoff(dist, lambda, hosts, method);
        let dispatch = |policy: Box<dyn Dispatcher>| (BuiltPolicy::Dispatch(policy), None);
        Ok(match self {
            PolicySpec::Random => dispatch(Box::new(RandomPolicy)),
            PolicySpec::RoundRobin => dispatch(Box::<RoundRobin>::default()),
            PolicySpec::ShortestQueue => dispatch(Box::new(ShortestQueue)),
            PolicySpec::LeastWorkLeft => dispatch(Box::new(LeastWorkLeft)),
            PolicySpec::CentralQueue => (BuiltPolicy::Central(QueueDiscipline::Fcfs), None),
            PolicySpec::CentralSjf => (BuiltPolicy::Central(QueueDiscipline::Sjf), None),
            PolicySpec::SitaE => size_interval(resolve(CutoffMethod::EqualLoad)?, "SITA-E")?,
            PolicySpec::SitaUOpt => {
                size_interval(resolve(CutoffMethod::OptSlowdown)?, "SITA-U-opt")?
            }
            PolicySpec::SitaUFair => size_interval(resolve(CutoffMethod::Fair)?, "SITA-U-fair")?,
            PolicySpec::SitaRuleOfThumb => {
                size_interval(resolve(CutoffMethod::RuleOfThumb)?, "SITA-U-rot")?
            }
            PolicySpec::SitaFixed { cutoffs } => {
                if cutoffs.len() + 1 != hosts {
                    return Err(CutoffError::SolveFailed(format!(
                        "{} cutoffs given for {hosts} hosts",
                        cutoffs.len()
                    )));
                }
                size_interval(cutoffs.clone(), "SITA-fixed")?
            }
            PolicySpec::Grouped { method } => {
                if hosts < 2 {
                    return Err(CutoffError::SolveFailed(
                        "grouped SITA needs at least 2 hosts".to_string(),
                    ));
                }
                // Derive the 2-host cutoff at the *per-pair* rate, as the
                // paper does ("allowing each policy to use only the
                // 2-host cutoff that has been derived for it previously").
                let pair_lambda = lambda * 2.0 / hosts as f64;
                let cutoff = resolve_cutoff(dist, pair_lambda, 2, *method)?[0];
                let m1 = dist.raw_moment(1);
                let short_share = dist.partial_moment(1, 0.0, cutoff) / m1;
                let short_hosts = GroupedSita::short_group_for_load_share(hosts, short_share);
                dispatch(Box::new(GroupedSita::new(
                    cutoff,
                    hosts,
                    short_hosts,
                    format!("{}/LWL", method.label()),
                )))
            }
        })
    }
}

/// A size-interval policy on `cutoffs`, returned with its cutoffs, or an
/// error unless they are positive, finite and strictly increasing (which
/// [`SizeInterval::new`] asserts).
fn size_interval(
    cutoffs: Vec<f64>,
    label: &str,
) -> Result<(BuiltPolicy, Option<Vec<f64>>), CutoffError> {
    let positive = cutoffs.iter().all(|c| *c > 0.0 && c.is_finite());
    if !positive || !cutoffs.windows(2).all(|w| w[0] < w[1]) {
        return Err(CutoffError::SolveFailed(format!(
            "{label} cutoffs {cutoffs:?} are not positive, finite and strictly increasing"
        )));
    }
    let policy = SizeInterval::new(cutoffs.clone(), label);
    Ok((BuiltPolicy::Dispatch(Box::new(policy)), Some(cutoffs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dses_dist::fit::{fit_body_tail, BodyTailTargets};
    use dses_dist::Mixture;

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
    fn builds_every_paper_policy_at_moderate_load() {
        let d = c90ish();
        let lambda = 1.2 / d.mean();
        for spec in PolicySpec::paper_roster() {
            let built = spec.build(&d, lambda, 2);
            assert!(built.is_ok(), "{}: {built:?}", spec.name());
        }
    }

    #[test]
    fn central_queue_resolves_to_discipline() {
        let d = c90ish();
        let built = PolicySpec::CentralQueue.build(&d, 0.001, 2).unwrap();
        assert!(matches!(built, BuiltPolicy::Central(QueueDiscipline::Fcfs)));
        let built = PolicySpec::CentralSjf.build(&d, 0.001, 2).unwrap();
        assert!(matches!(built, BuiltPolicy::Central(QueueDiscipline::Sjf)));
    }

    #[test]
    fn fixed_cutoffs_validate_host_count() {
        let d = c90ish();
        let spec = PolicySpec::SitaFixed {
            cutoffs: vec![100.0],
        };
        assert!(spec.build(&d, 0.001, 2).is_ok());
        assert!(spec.build(&d, 0.001, 3).is_err());
        // cutoffs `SizeInterval::new` would reject are an error, not a panic
        for cutoffs in [[100.0, 100.0], [200.0, 100.0], [-1.0, 5.0], [1.0, f64::NAN]] {
            let spec = PolicySpec::SitaFixed { cutoffs: cutoffs.to_vec() };
            let got = spec.build(&d, 0.001, 3);
            assert!(matches!(got, Err(CutoffError::SolveFailed(_))), "{spec:?}: {got:?}");
        }
    }

    #[test]
    fn a_size_carrying_most_of_the_load_is_an_error_not_a_panic() {
        // a tenth of the jobs hit a 12-hour cap and carry ~73% of the load
        let sizes: Vec<f64> = (0..1_000)
            .map(|i| if i % 10 == 9 { 43_200.0 } else { 60.0 + (i * 37 % 3_541) as f64 })
            .collect();
        let d = dses_dist::Empirical::from_values(&sizes).unwrap();
        for hosts in [4, 16] {
            let lambda = 0.7 * hosts as f64 / d.mean();
            for spec in [PolicySpec::SitaE, PolicySpec::SitaUOpt] {
                let got = spec.build(&d, lambda, hosts);
                assert!(
                    matches!(got, Err(CutoffError::LoadAtom { .. })),
                    "{spec:?} h={hosts}: {got:?}"
                );
            }
            assert!(PolicySpec::SitaUFair.build(&d, lambda, hosts).is_ok(), "h={hosts}");
        }
    }

    #[test]
    fn grouped_builds_for_many_hosts() {
        let d = c90ish();
        let hosts = 8;
        let lambda = 0.7 * hosts as f64 / d.mean();
        for method in [
            CutoffMethod::EqualLoad,
            CutoffMethod::OptSlowdown,
            CutoffMethod::Fair,
        ] {
            let built = PolicySpec::Grouped { method }.build(&d, lambda, hosts);
            assert!(built.is_ok(), "{method:?}: {built:?}");
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(PolicySpec::SitaUFair.name(), "SITA-U-fair");
        assert_eq!(
            PolicySpec::Grouped {
                method: CutoffMethod::EqualLoad
            }
            .name(),
            "SITA-E/LWL"
        );
    }

    #[test]
    fn overload_is_an_error_not_a_panic() {
        let d = c90ish();
        let lambda = 3.0 / d.mean(); // offered load 3.0 on 2 hosts
        assert!(PolicySpec::SitaUOpt.build(&d, lambda, 2).is_err());
    }
}
