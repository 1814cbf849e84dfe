//! Figures 11 and 13 (appendices B and C) — the Figure-5 load-fraction
//! plot (fraction of total load on Host 1 under SITA-U-opt/-fair vs the
//! ρ/2 rule of thumb) repeated on the J90 and CTC workloads.

use dses_bench::{exhibit_experiment, load_grid};
use dses_core::prelude::*;
use dses_core::report::Table;
use dses_core::rule_of_thumb::rule_of_thumb_fraction;

fn main() {
    dses_bench::check_args();
    for (fig, preset) in [
        ("Figure 11 — load fraction on Host 1, J90", dses_workload::psc_j90()),
        ("Figure 13 — load fraction on Host 1, CTC", dses_workload::ctc_sp2()),
    ] {
        let experiment = exhibit_experiment(&preset, 2);
        let mut table = Table::new(
            fig,
            &["rho", "SITA-U-opt", "SITA-U-fair", "rule-of-thumb rho/2"],
        );
        for &rho in &load_grid() {
            // one trace per load, shared by both policies
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
            ]);
        }
        println!("{}", table.render());
    }
}
