//! Figure 5 — the fraction of the total load sent to Host 1 (the
//! short-job host) under SITA-U-opt and SITA-U-fair, against the ρ/2
//! rule of thumb. Under SITA-E this fraction would always be 0.5; both
//! SITA-U policies *underload* Host 1.

use dses_bench::{exhibit_experiment, load_grid};
use dses_core::prelude::*;
use dses_core::report::Table;
use dses_core::rule_of_thumb::rule_of_thumb_fraction;

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let experiment = exhibit_experiment(&preset, 2);
    let loads = load_grid();
    let mut table = Table::new(
        "Figure 5 — fraction of total load on Host 1 (short host), C90",
        &["rho", "SITA-U-opt", "SITA-U-fair", "rule-of-thumb rho/2", "SITA-E"],
    );
    for &rho in &loads {
        // one trace per load, shared by the three policies
        let trace = experiment.trace(rho);
        let frac = |spec: &PolicySpec| -> String {
            match experiment.try_run_on_trace(spec, &trace) {
                Ok(r) => format!("{:.3}", r.load_fraction(0)),
                Err(_) => "-".to_string(),
            }
        };
        table.push_row(vec![
            format!("{rho:.2}"),
            frac(&PolicySpec::SitaUOpt),
            frac(&PolicySpec::SitaUFair),
            format!("{:.3}", rule_of_thumb_fraction(rho)),
            frac(&PolicySpec::SitaE),
        ]);
    }
    println!("{}", table.render());
    println!("(measured load fractions from simulation; SITA-E sits at 0.5 by construction)");
}
