//! Figure 9 (appendix A) — **analytic** mean slowdown of SITA-E vs
//! SITA-U-opt vs SITA-U-fair, validating the Figure-4 simulation.

use dses_bench::load_grid;
use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};
use dses_queueing::policies::AnalyticPolicy;

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let experiment = Experiment::new(preset.size_dist.clone()).hosts(2);
    let policies = [
        AnalyticPolicy::SitaE,
        AnalyticPolicy::SitaUOpt,
        AnalyticPolicy::SitaUFair,
    ];
    let mut table = Table::new(
        "Figure 9 — analytic mean slowdown, SITA-E vs SITA-U, 2 hosts, C90",
        &["rho", "SITA-E", "SITA-U-opt", "SITA-U-fair", "U-opt cutoff", "U-opt load frac host1"],
    );
    for &rho in &load_grid() {
        let mut row = vec![format!("{rho:.2}")];
        let mut opt_extras = ("-".to_string(), "-".to_string());
        for p in policies {
            match experiment.analytic(p, rho) {
                Ok(m) => {
                    row.push(fmt_num(m.mean_slowdown));
                    if p == AnalyticPolicy::SitaUOpt {
                        if let Some(c) = &m.cutoffs {
                            opt_extras.0 = fmt_num(c[0]);
                        }
                        if let Some(f) = m.load_fraction_host0 {
                            opt_extras.1 = format!("{f:.3}");
                        }
                    }
                }
                Err(_) => row.push("-".to_string()),
            }
        }
        row.push(opt_extras.0);
        row.push(opt_extras.1);
        table.push_row(row);
    }
    println!("{}", table.render());
    println!("(compare against Figure 4's simulation panel)");
}
