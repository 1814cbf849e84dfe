//! Validation: analysis vs simulation, side by side.
//!
//! The paper validates its simulator with Theorem-1 analysis
//! (appendix A: "in very close agreement with the simulation results").
//! This exhibit makes the agreement quantitative for this reproduction:
//! per policy and load, the analytic prediction, the simulated value,
//! and the relative gap. Exact models (Random = M/G/1, SITA = banded
//! M/G/1s) should agree within simulation noise; Least-Work-Left uses
//! the Lee–Longton approximation and is expected to drift high.

use dses_bench::{exhibit_experiment};
use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};
use dses_queueing::policies::AnalyticPolicy;

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let experiment = exhibit_experiment(&preset, 2);
    let pairs = [
        (AnalyticPolicy::Random, PolicySpec::Random),
        (AnalyticPolicy::LeastWorkLeft, PolicySpec::LeastWorkLeft),
        (AnalyticPolicy::SitaE, PolicySpec::SitaE),
        (AnalyticPolicy::SitaUOpt, PolicySpec::SitaUOpt),
        (AnalyticPolicy::SitaUFair, PolicySpec::SitaUFair),
    ];
    let mut table = Table::new(
        "analytic vs simulated mean slowdown (C90, 2 hosts)",
        &["policy", "rho", "analytic", "simulated", "rel gap"],
    );
    for (analytic_p, sim_p) in pairs {
        for rho in [0.3, 0.5, 0.7] {
            let ana = experiment
                .analytic(analytic_p, rho)
                .map(|m| m.mean_slowdown)
                .unwrap_or(f64::NAN);
            let sim = experiment
                .try_run(&sim_p, rho)
                .map(|r| r.slowdown.mean)
                .unwrap_or(f64::NAN);
            let gap = (sim - ana) / ana;
            table.push_row(vec![
                sim_p.name(),
                format!("{rho:.1}"),
                fmt_num(ana),
                fmt_num(sim),
                format!("{:+.1}%", 100.0 * gap),
            ]);
        }
    }
    println!("{}", table.render());
    println!("Random and the SITA family use exact M/G/1 models: gaps there are pure");
    println!("simulation noise (finite trace, heavy tail). Least-Work-Left's analytic");
    println!("column is the Lee–Longton M/G/h approximation — conservative by design.");
}
