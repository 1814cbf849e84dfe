//! Figure 8 (appendix A) — **analytic** mean slowdown of the balancing
//! policies vs load, validating the Figure-2 simulation: Random via
//! M/G/1 on the Bernoulli split, Round-Robin via E_h/G/1 (Kingman),
//! Least-Work-Left via the M/G/h approximation, SITA-E via per-host
//! M/G/1 on the conditioned distribution.

use dses_bench::load_grid;
use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};
use dses_queueing::policies::AnalyticPolicy;

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let experiment = Experiment::new(preset.size_dist.clone()).hosts(2);
    let policies = [
        AnalyticPolicy::Random,
        AnalyticPolicy::RoundRobin,
        AnalyticPolicy::LeastWorkLeft,
        AnalyticPolicy::SitaE,
    ];
    let mut table = Table::new(
        "Figure 8 — analytic mean slowdown, balancing policies, 2 hosts, C90",
        &["rho", "Random", "Round-Robin", "Least-Work-Left", "SITA-E"],
    );
    for &rho in &load_grid() {
        let mut row = vec![format!("{rho:.2}")];
        for p in policies {
            let cell = match experiment.analytic(p, rho) {
                Ok(m) => fmt_num(m.mean_slowdown),
                Err(_) => "-".to_string(),
            };
            row.push(cell);
        }
        table.push_row(row);
    }
    println!("{}", table.render());
    println!("(compare against Figure 2's simulation panel — same ordering, close values)");
}
