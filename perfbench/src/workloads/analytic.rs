//! `analytic`: cutoff solves, transform inversion and closed-form policy
//! analysis — no simulation, on one thread, as the exhibits call them.
//!
//! * `resolve_cutoff(Fair)` on Erlang-4 (mean 1000, ρ = 0.7, 2 hosts),
//!   whose moments take the quadrature fallback;
//! * the SITA-E / SITA-U-opt / SITA-U-fair solves on C90, J90, CTC and a
//!   100 000-job Empirical sample of C90, at 2 and 16 hosts;
//! * the analytic p99 slowdown of SITA-U-fair on C90
//!   (`sita_slowdown_quantile`);
//! * `analyze_policy` for every analytic policy on each of the four
//!   distributions at 2 hosts.
//!
//! Only the Empirical sample depends on the seed.

use super::{Op, TraceCx, Workload};
use crate::counted::Counted;
use crate::digest::Digest;
use crate::spans::{Layer, SpanId};
use dses_core::cutoffs::{resolve_cutoff, CutoffMethod};
use dses_dist::{Distribution, Empirical, Erlang, Mixture, Rng64};
use dses_queueing::policies::{analyze_policy, AnalyticPolicy};
use dses_queueing::transform::sita_slowdown_quantile;
use std::sync::Arc;

const RHO: f64 = 0.7;
const EMPIRICAL_JOBS: usize = 100_000;
const HOSTS: [usize; 2] = [2, 16];
const METHODS: [CutoffMethod; 3] = [
    CutoffMethod::EqualLoad,
    CutoffMethod::OptSlowdown,
    CutoffMethod::Fair,
];
const ROSTER: [AnalyticPolicy; 6] = [
    AnalyticPolicy::Random,
    AnalyticPolicy::RoundRobin,
    AnalyticPolicy::LeastWorkLeft,
    AnalyticPolicy::SitaE,
    AnalyticPolicy::SitaUOpt,
    AnalyticPolicy::SitaUFair,
];

/// The workload's distributions, plain or wrapped in [`Counted`].
#[derive(Debug, Clone)]
struct Dists<M, E, R> {
    erlang: R,
    c90: M,
    j90: M,
    ctc: M,
    empirical: E,
}

/// Set-up state of the `analytic` workload.
pub struct Analytic {
    plain: Dists<Mixture, Empirical, Erlang>,
    counted: Dists<Counted<Mixture>, Counted<Empirical>, Counted<Erlang>>,
}

impl Analytic {
    /// Fit the three presets and build the seeded Empirical sample.
    pub fn setup(seed: u64) -> Self {
        let c90 = dses_workload::psc_c90().size_dist;
        let mut rng = Rng64::seed_from(seed);
        let sample: Vec<f64> = (0..EMPIRICAL_JOBS).map(|_| c90.sample(&mut rng)).collect();
        let plain = Dists {
            erlang: Erlang::with_mean(4, 1000.0).expect("Erlang-4 with mean 1000 is valid"),
            empirical: Empirical::from_values(&sample).expect("C90 samples are positive"),
            j90: dses_workload::psc_j90().size_dist,
            ctc: dses_workload::ctc_sp2().size_dist,
            c90,
        };
        let counted = Dists {
            erlang: Counted(plain.erlang),
            c90: Counted(plain.c90.clone()),
            j90: Counted(plain.j90.clone()),
            ctc: Counted(plain.ctc.clone()),
            empirical: Counted(plain.empirical.clone()),
        };
        Self { plain, counted }
    }
}

/// Where spans go: `None` in the untraced run.
type Cx<'a> = Option<(&'a TraceCx, SpanId)>;

fn timed<R>(cx: Cx<'_>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match cx {
        Some((cx, parent)) => cx.tr.span(layer, Some(parent), 1, |_| f()),
        None => f(),
    }
}

fn cutoff_op<D: Distribution>(
    cx: Cx<'_>,
    ops: &mut Vec<Op>,
    name: &str,
    d: &D,
    hosts: usize,
    method: CutoffMethod,
    seed_free: bool,
) -> Option<Vec<f64>> {
    let lambda = RHO * hosts as f64 / d.mean();
    let r = timed(cx, Layer::Cutoff, || {
        resolve_cutoff(d, lambda, hosts, method)
    })
    .ok();
    let (lo, hi) = d.support();
    let ok = r.as_ref().is_some_and(|c| {
        c.len() + 1 == hosts
            && c.iter().all(|&x| x > lo && x < hi)
            && c.windows(2).all(|w| w[0] < w[1])
    });
    ops.push(Op {
        label: format!("{name}.{}.h{hosts}", method.label()),
        digest: r.as_ref().map_or(0, |c| Digest::default().f64s(c).value()),
        ok,
        seed_free,
    });
    r
}

fn dist_ops<D: Distribution>(
    cx: Cx<'_>,
    ops: &mut Vec<Op>,
    name: &str,
    d: &D,
    seed_free: bool,
    p99: bool,
) {
    let mut fair_h2 = None;
    for hosts in HOSTS {
        for m in METHODS {
            let c = cutoff_op(cx, ops, name, d, hosts, m, seed_free);
            if hosts == 2 && m == CutoffMethod::Fair {
                fair_h2 = c;
            }
        }
    }
    let lambda = RHO * 2.0 / d.mean();
    if p99 {
        let q = fair_h2.map(|c| {
            timed(cx, Layer::Quantile, || {
                sita_slowdown_quantile(d, lambda, &c, 0.99)
            })
        });
        ops.push(Op {
            label: format!("{name}.p99.SITA-U-fair.h2"),
            digest: q.map_or(0, |q| Digest::default().f64(q).value()),
            ok: q.is_some_and(|q| q >= 1.0 && q.is_finite()),
            seed_free,
        });
    }
    for policy in ROSTER {
        let m = timed(cx, Layer::Analyze, || analyze_policy(policy, d, lambda, 2)).ok();
        let digest = m.as_ref().map_or(0, |m| {
            let mut g = Digest::default();
            g.f64s(&[
                m.system_load,
                m.mean_slowdown,
                m.mean_queueing_slowdown,
                m.mean_waiting,
                m.mean_response,
                m.slowdown_variance.unwrap_or(f64::NAN),
                m.load_fraction_host0.unwrap_or(f64::NAN),
            ])
            .f64s(m.cutoffs.as_deref().unwrap_or(&[]));
            g.value()
        });
        ops.push(Op {
            label: format!("{name}.analyze.{}.h2", policy.name()),
            digest,
            ok: m.is_some_and(|m| m.mean_slowdown >= 1.0 && m.mean_slowdown.is_finite()),
            seed_free,
        });
    }
}

fn all_ops<M: Distribution, E: Distribution, R: Distribution>(
    cx: Cx<'_>,
    d: &Dists<M, E, R>,
) -> Vec<Op> {
    let mut ops = Vec::new();
    cutoff_op(
        cx,
        &mut ops,
        "Erlang4",
        &d.erlang,
        2,
        CutoffMethod::Fair,
        true,
    );
    dist_ops(cx, &mut ops, "C90", &d.c90, true, true);
    dist_ops(cx, &mut ops, "J90", &d.j90, true, false);
    dist_ops(cx, &mut ops, "CTC", &d.ctc, true, false);
    dist_ops(cx, &mut ops, "Empirical", &d.empirical, false, false);
    ops
}

impl Workload for Analytic {
    fn run(&self) -> Vec<Op> {
        all_ops(None, &self.plain)
    }

    fn run_traced(&self, cx: &Arc<TraceCx>) -> Vec<Op> {
        all_ops(Some((cx, cx.root)), &self.counted)
    }

    fn simulates(&self) -> bool {
        false
    }
}
