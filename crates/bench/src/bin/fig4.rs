//! Figure 4 — SITA-E (the best load balancer) vs the paper's
//! load-unbalancing policies SITA-U-opt and SITA-U-fair, 2 hosts, C90:
//! mean slowdown and variance of slowdown vs load (simulation).
//!
//! Paper's reading: both SITA-U policies improve on SITA-E by ×4–10 in
//! mean slowdown and ×10–100 in variance over ρ ∈ [0.3, 0.8], and
//! SITA-U-fair is only slightly worse than SITA-U-opt.

use dses_bench::{exhibit_experiment, load_grid, run_figure};
use dses_core::prelude::*;

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let experiment = exhibit_experiment(&preset, 2);
    let loads = load_grid();
    let specs = [
        PolicySpec::SitaE,
        PolicySpec::SitaUOpt,
        PolicySpec::SitaUFair,
    ];
    println!(
        "{}",
        run_figure(
            "Figure 4 — SITA-E vs SITA-U-opt vs SITA-U-fair, 2 hosts, C90 (simulation)",
            &experiment,
            &specs,
            &loads,
        )
    );
}
