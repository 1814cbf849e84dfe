//! `paper_h2`: the paper's own 2-host evaluation on the C90 workload —
//! what `dses sweep` and `dses replicate` do by default.
//!
//! A policy × load grid through `Experiment::sweep_grid` (one shared
//! trace per load, grid points fanned over the worker pool), then
//! `Experiment::replicate` with R = 8 fused lanes for three policies.

use super::{
    par, prepare, replicated_from, run_fused, run_solo, CallSite, Op, Params, TraceCx, Workload,
};
use crate::counted::Counted;
use crate::digest;
use crate::spans::{Layer, SpanId};
use dses_core::experiment::{Replicated, SweepPoint};
use dses_core::spec::BuiltPolicy;
use dses_core::{Experiment, PolicySpec};
use dses_dist::{derive_seed, Mixture};
use dses_queueing::cutoff::CutoffError;
use dses_sim::{Demand, SimResult};
use dses_workload::Trace;
use std::sync::Arc;

const LOADS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
const JOBS: usize = 100_000;
const WARMUP: usize = 1_000;
const REP_RHO: f64 = 0.7;
const REPS: usize = 8;
/// `Experiment::replicate`'s fusion width.
const FUSE_WIDTH: usize = 8;

fn grid_specs() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Random,
        PolicySpec::RoundRobin,
        PolicySpec::ShortestQueue,
        PolicySpec::LeastWorkLeft,
        PolicySpec::CentralQueue,
        PolicySpec::SitaE,
        PolicySpec::SitaUOpt,
        PolicySpec::SitaUFair,
    ]
}

fn replicated_specs() -> Vec<PolicySpec> {
    vec![
        PolicySpec::LeastWorkLeft,
        PolicySpec::SitaE,
        PolicySpec::SitaUFair,
    ]
}

/// Set-up state of the `paper_h2` workload.
pub struct PaperH2 {
    params: Params,
    dist: Arc<Mixture>,
    exp: Experiment<Mixture>,
    counted: Arc<Experiment<Counted<Mixture>>>,
}

impl PaperH2 {
    /// Fit C90 and warm the pool threads and their workspaces with one
    /// full-size grid row.
    pub fn setup(seed: u64, workers: usize) -> Self {
        Self::new(seed, workers, JOBS)
    }

    /// [`PaperH2::setup`] with `jobs` per run.
    pub fn new(seed: u64, workers: usize, jobs: usize) -> Self {
        let dist = dses_workload::psc_c90().size_dist;
        let params = Params {
            hosts: 2,
            jobs,
            seed,
            warmup: WARMUP,
            fairness_bins: 0,
            percentiles: false,
            slo: None,
            workers,
        };
        let exp = params.experiment(dist.clone());
        std::hint::black_box(exp.sweep_grid(&grid_specs(), &LOADS[LOADS.len() - 1..]));
        let counted = Arc::new(params.experiment(Counted(dist.clone())));
        Self {
            params,
            dist: Arc::new(dist),
            exp,
            counted,
        }
    }

    fn replicate_traced(
        &self,
        cx: &Arc<TraceCx>,
        spec: &PolicySpec,
    ) -> Result<Replicated, CutoffError> {
        let (exp, dist, p, spec) = (
            Arc::clone(&self.counted),
            Arc::clone(&self.dist),
            self.params,
            spec.clone(),
        );
        let blocks = REPS.div_ceil(FUSE_WIDTH);
        let groups = par(cx, cx.root, blocks, p.workers, move |cx, task, b| {
            let range = b * FUSE_WIDTH..((b + 1) * FUSE_WIDTH).min(REPS);
            replicate_group(cx, task, &exp, &dist, &p, &spec, range)
        });
        let samples = groups
            .into_iter()
            .flatten()
            .collect::<Result<Vec<f64>, _>>()?;
        Ok(replicated_from(&samples))
    }
}

/// `Experiment::replicate_group`: per-lane traces and policies, then one
/// fused pass. The replicated policies all dispatch on arrival, so the
/// per-lane fallback `replicate_group` keeps for central-queue policies
/// has no counterpart here.
fn replicate_group(
    cx: &TraceCx,
    task: SpanId,
    exp: &Experiment<Counted<Mixture>>,
    dist: &Arc<Mixture>,
    p: &Params,
    spec: &PolicySpec,
    range: std::ops::Range<usize>,
) -> Vec<Result<f64, CutoffError>> {
    let lanes: Vec<(Params, Trace)> = range
        .map(|r| {
            let lp = Params {
                seed: derive_seed(p.seed, r as u64),
                ..*p
            };
            let lane = exp.clone().seed(lp.seed);
            let trace = cx.tr.span(Layer::Trace, Some(task), p.jobs as u64, |_| {
                lane.trace(REP_RHO)
            });
            (lp, trace)
        })
        .collect();
    let mut policies = Vec::with_capacity(lanes.len());
    let mut cfgs = Vec::with_capacity(lanes.len());
    for (lp, trace) in &lanes {
        match prepare(cx, task, lp, exp.dist(), spec, trace, Demand::MEANS) {
            Ok((BuiltPolicy::Dispatch(pol), cfg)) => {
                policies.push(pol);
                cfgs.push(cfg);
            }
            Ok((BuiltPolicy::Central(_), _)) => {
                unreachable!("replicated_specs() holds dispatch policies only")
            }
            Err(e) => return vec![Err(e); lanes.len()],
        }
    }
    let traces: Vec<&Trace> = lanes.iter().map(|(_, t)| t).collect();
    let seeds: Vec<u64> = lanes.iter().map(|(lp, _)| lp.seed).collect();
    let site = CallSite {
        dist,
        spec,
        rho: REP_RHO,
        params: p,
    };
    run_fused(cx, task, &site, &traces, policies, &seeds, &cfgs)
        .into_iter()
        .map(Ok)
        .collect()
}

/// `SweepPoint::from_result`.
fn point_from(rho: f64, r: Option<&SimResult>) -> SweepPoint {
    match r {
        Some(r) => SweepPoint {
            rho,
            mean_slowdown: r.slowdown.mean,
            var_slowdown: r.slowdown.variance,
            mean_response: r.response.mean,
            var_response: r.response.variance,
            mean_waiting: r.waiting.mean,
            load_fraction_host0: r.load_fraction(0),
            job_fraction_host0: r.job_fraction(0),
            measured: r.measured,
        },
        None => SweepPoint {
            rho,
            mean_slowdown: f64::NAN,
            var_slowdown: f64::NAN,
            mean_response: f64::NAN,
            var_response: f64::NAN,
            mean_waiting: f64::NAN,
            load_fraction_host0: f64::NAN,
            job_fraction_host0: f64::NAN,
            measured: 0,
        },
    }
}

/// Digest and check one iteration's results.
fn ops(
    p: &Params,
    points: &[Vec<SweepPoint>],
    reps: &[Result<Replicated, CutoffError>],
) -> Vec<Op> {
    let specs = grid_specs();
    let mut ops = Vec::new();
    for (spec, pts) in specs.iter().zip(points) {
        for pt in pts {
            ops.push(Op {
                label: format!("sweep.{}@{:.1}", spec.name(), pt.rho),
                digest: digest::sweep_point(pt),
                ok: pt.mean_slowdown.is_finite()
                    && pt.mean_slowdown >= 1.0
                    && pt.measured == (p.jobs - p.warmup) as u64,
                seed_free: false,
            });
        }
    }
    for (spec, r) in replicated_specs().iter().zip(reps) {
        let (digest, ok) = match r {
            Ok(r) => (
                digest::replicated(r),
                r.mean >= 1.0 && r.half_width.is_finite(),
            ),
            Err(_) => (0, false),
        };
        ops.push(Op {
            label: format!("replicate.{}@{REP_RHO}x{REPS}", spec.name()),
            digest,
            ok,
            seed_free: false,
        });
    }
    ops
}

impl Workload for PaperH2 {
    fn run(&self) -> Vec<Op> {
        let points: Vec<Vec<SweepPoint>> = self
            .exp
            .sweep_grid(&grid_specs(), &LOADS)
            .into_iter()
            .map(|s| s.points)
            .collect();
        let reps: Vec<_> = replicated_specs()
            .iter()
            .map(|s| self.exp.replicate(s, REP_RHO, REPS))
            .collect();
        ops(&self.params, &points, &reps)
    }

    fn run_traced(&self, cx: &Arc<TraceCx>) -> Vec<Op> {
        let p = self.params;
        // Phase 1 of `sweep_grid`: one trace per load, in parallel.
        let exp = Arc::clone(&self.counted);
        let traces: Arc<Vec<Trace>> = Arc::new(par(
            cx,
            cx.root,
            LOADS.len(),
            p.workers,
            move |cx, task, i| {
                cx.tr.span(Layer::Trace, Some(task), p.jobs as u64, |_| {
                    exp.trace(LOADS[i])
                })
            },
        ));
        // Phase 2: the flat specs × loads grid.
        let specs = Arc::new(grid_specs());
        let n = specs.len() * LOADS.len();
        let (exp, dist, shared) = (
            Arc::clone(&self.counted),
            Arc::clone(&self.dist),
            Arc::clone(&traces),
        );
        let flat = par(cx, cx.root, n, p.workers, move |cx, task, g| {
            let (s, l) = (g / LOADS.len(), g % LOADS.len());
            let (spec, trace) = (&specs[s], &shared[l]);
            let site = CallSite {
                dist: &dist,
                spec,
                rho: LOADS[l],
                params: &p,
            };
            match prepare(
                cx,
                task,
                &p,
                exp.dist(),
                spec,
                trace,
                Demand::MEANS | Demand::PER_HOST,
            ) {
                Ok((built, cfg)) => run_solo(cx, task, &site, trace, built, cfg, |r| {
                    point_from(LOADS[l], Some(r))
                }),
                Err(_) => point_from(LOADS[l], None),
            }
        });
        drop(traces);
        let points: Vec<Vec<SweepPoint>> = flat.chunks(LOADS.len()).map(<[_]>::to_vec).collect();
        let reps: Vec<_> = replicated_specs()
            .iter()
            .map(|s| self.replicate_traced(cx, s))
            .collect();
        ops(&self.params, &points, &reps)
    }

    fn simulates(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_agree_across_workers_and_routes() {
        let pool = Arc::default();
        let mut runs = Vec::new();
        for workers in [1, 2] {
            let w = PaperH2::new(11, workers, 3_000);
            runs.push(w.run());
            runs.push(crate::traced_run(&w, &pool).3);
        }
        assert!(runs[0].iter().all(|op| op.ok), "{:?}", runs[0]);
        for r in &runs[1..] {
            assert_eq!(
                r, &runs[0],
                "workers 1/2, untraced/traced must agree bit for bit"
            );
        }
    }
}
