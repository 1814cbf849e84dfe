//! Figure 2 — simulation comparison of the *load-balancing* policies on
//! a 2-host system under the C90 workload: mean slowdown (top panel) and
//! variance of slowdown (bottom panel) vs system load.
//!
//! Paper's reading: Random is unacceptable at every load; SITA-E and
//! Least-Work-Left are similar at low load, and SITA-E wins by ×3–4 at
//! medium/high load; the variance gaps are larger still.

use dses_bench::{exhibit_experiment, load_grid, run_figure};
use dses_core::prelude::*;

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let experiment = exhibit_experiment(&preset, 2);
    let loads = load_grid();
    let specs = [
        PolicySpec::Random,
        PolicySpec::LeastWorkLeft,
        PolicySpec::SitaE,
    ];
    println!(
        "{}",
        run_figure(
            "Figure 2 — balancing policies, 2 hosts, C90 workload (simulation)",
            &experiment,
            &specs,
            &loads,
        )
    );
}
