//! Figures 10 and 12 (appendices B and C) — the full policy comparison
//! of Figures 2 + 4 repeated on the **J90** and **CTC** workloads.
//!
//! Paper's reading: the J90 results are "virtually identical" to C90;
//! the CTC trace has far lower variance (12-hour cap) yet the comparative
//! ranking of the policies is unchanged.

use dses_bench::{exhibit_experiment, load_grid, run_figure};
use dses_core::prelude::*;

fn main() {
    dses_bench::check_args();
    let loads = load_grid();
    let specs = [
        PolicySpec::Random,
        PolicySpec::LeastWorkLeft,
        PolicySpec::SitaE,
        PolicySpec::SitaUOpt,
        PolicySpec::SitaUFair,
    ];
    for (fig, preset) in [
        ("Figure 10 — all policies, 2 hosts, J90 workload (simulation)", dses_workload::psc_j90()),
        ("Figure 12 — all policies, 2 hosts, CTC workload (simulation)", dses_workload::ctc_sp2()),
    ] {
        let experiment = exhibit_experiment(&preset, 2);
        println!("{}", run_figure(fig, &experiment, &specs, &loads));
    }
}
