//! Figure 3 — the Figure-2 comparison on a **4-host** system.
//!
//! Paper's reading: Least-Work-Left and SITA-E both improve markedly
//! from 2 to 4 hosts (Random is unchanged); SITA-E still wins at
//! `ρ ≥ 0.5`, by ×2–4 in mean slowdown and ×25 in variance.

use dses_bench::{exhibit_experiment, load_grid, run_figure};
use dses_core::prelude::*;

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let experiment = exhibit_experiment(&preset, 4);
    let loads = load_grid();
    let specs = [
        PolicySpec::Random,
        PolicySpec::LeastWorkLeft,
        PolicySpec::SitaE,
    ];
    println!(
        "{}",
        run_figure(
            "Figure 3 — balancing policies, 4 hosts, C90 workload (simulation)",
            &experiment,
            &specs,
            &loads,
        )
    );
}
