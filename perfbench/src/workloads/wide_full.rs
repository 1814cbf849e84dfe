//! `wide_full`: the many-host regime of the paper's §5 (Fig. 6) with the
//! full collector — what `dses simulate --percentiles --fairness --slo`
//! does.
//!
//! `Experiment::try_run` at 8 and 64 hosts, 25 000 jobs per host, for
//! Least-Work-Left, SITA-E, SITA-U-fair and grouped SITA-U-fair/LWL.
//! Every run rebuilds its trace, as `try_run` does.

use super::{prepare, run_solo, CallSite, Op, Params, TraceCx, Workload};
use crate::counted::Counted;
use crate::digest;
use crate::spans::Layer;
use dses_core::cutoffs::CutoffMethod;
use dses_core::{Experiment, PolicySpec};
use dses_dist::Mixture;
use dses_sim::{Demand, SimResult};
use std::sync::Arc;

const HOSTS: [usize; 2] = [8, 64];
const JOBS_PER_HOST: usize = 25_000;
const RHO: f64 = 0.7;
const WARMUP: usize = 1_000;
const FAIRNESS_BINS: usize = 12;
const SLO: f64 = 10.0;

fn specs() -> Vec<PolicySpec> {
    vec![
        PolicySpec::LeastWorkLeft,
        PolicySpec::SitaE,
        PolicySpec::SitaUFair,
        PolicySpec::Grouped {
            method: CutoffMethod::Fair,
        },
    ]
}

fn params(hosts: usize, jobs_per_host: usize, seed: u64) -> Params {
    Params {
        hosts,
        jobs: jobs_per_host * hosts,
        seed,
        warmup: WARMUP,
        fairness_bins: FAIRNESS_BINS,
        percentiles: true,
        slo: Some(SLO),
        workers: 1,
    }
}

/// Set-up state of the `wide_full` workload.
pub struct WideFull {
    params: Vec<Params>,
    dist: Arc<Mixture>,
    exps: Vec<Experiment<Mixture>>,
    counted: Vec<Experiment<Counted<Mixture>>>,
}

impl WideFull {
    /// Fit C90, configure both host counts, and warm this thread's
    /// workspace with a short run of every policy at the widest count.
    pub fn setup(seed: u64) -> Self {
        Self::new(seed, JOBS_PER_HOST)
    }

    /// [`WideFull::setup`] with `jobs_per_host` jobs per host.
    pub fn new(seed: u64, jobs_per_host: usize) -> Self {
        let dist = dses_workload::psc_c90().size_dist;
        let params: Vec<Params> = HOSTS
            .iter()
            .map(|&h| params(h, jobs_per_host, seed))
            .collect();
        let exps: Vec<_> = params.iter().map(|p| p.experiment(dist.clone())).collect();
        let counted = params
            .iter()
            .map(|p| p.experiment(Counted(dist.clone())))
            .collect();
        let warm = exps[exps.len() - 1].clone().jobs(jobs_per_host);
        for spec in specs() {
            std::hint::black_box(warm.try_run(&spec, RHO).ok());
        }
        Self {
            params,
            dist: Arc::new(dist),
            exps,
            counted,
        }
    }
}

fn op(spec: &PolicySpec, p: &Params, r: Option<&SimResult>) -> Op {
    let ok = r.is_some_and(|r| {
        r.slowdown.mean >= 1.0
            && r.measured == (p.jobs - p.warmup) as u64
            // P² interpolates, so an estimate may land a hair below the
            // minimum slowdown of 1
            && r.slowdown_percentiles
                .as_ref()
                .is_some_and(|ps| ps.iter().all(|q| q.1 > 1.0 - 1e-6))
            && r.fairness.is_some()
    });
    Op {
        label: format!("run.{}@h{}", spec.name(), p.hosts),
        digest: r.map_or(0, digest::sim_result),
        ok,
        seed_free: false,
    }
}

impl Workload for WideFull {
    fn run(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for (p, exp) in self.params.iter().zip(&self.exps) {
            for spec in specs() {
                ops.push(op(&spec, p, exp.try_run(&spec, RHO).ok().as_ref()));
            }
        }
        ops
    }

    fn run_traced(&self, cx: &Arc<TraceCx>) -> Vec<Op> {
        let mut ops = Vec::new();
        for (p, exp) in self.params.iter().zip(&self.counted) {
            for spec in specs() {
                let trace = cx.tr.span(Layer::Trace, Some(cx.root), p.jobs as u64, |_| {
                    exp.trace(RHO)
                });
                let site = CallSite {
                    dist: &self.dist,
                    spec: &spec,
                    rho: RHO,
                    params: p,
                };
                let o = match prepare(cx, cx.root, p, exp.dist(), &spec, &trace, Demand::FULL) {
                    Ok((built, cfg)) => run_solo(cx, cx.root, &site, &trace, built, cfg, |r| {
                        op(&spec, p, Some(r))
                    }),
                    Err(_) => op(&spec, p, None),
                };
                ops.push(o);
            }
        }
        ops
    }

    fn simulates(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_route_reproduces_untraced_digests() {
        let w = WideFull::new(5, 200);
        let plain = w.run();
        assert!(plain.iter().all(|op| op.ok), "{plain:?}");
        assert_eq!(crate::traced_run(&w, &Arc::default()).3, plain);
    }
}
