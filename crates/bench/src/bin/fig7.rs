//! Figure 7 — non-Poisson (bursty) arrivals, §6.
//!
//! The paper replaces the Poisson process with the traces' own
//! interarrival sequence, scaled to each target load. We stand in a
//! 2-state MMPP (bursty and correlated, like the measured arrivals) and
//! scale it the same way. Cutoffs stay the analytic Poisson ones — the
//! paper checked that the experimentally derived cutoffs agree.
//!
//! Paper's reading: the SITA-U policies still win over Least-Work-Left
//! for the realistic load range (0.6–0.9), but LWL takes over at very
//! high load (ρ ≳ 0.95), because it alone smooths arrival-process
//! variability.

use dses_bench::{exhibit_experiment, EXHIBIT_SEED};
use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};
use dses_workload::Mmpp2;

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let hosts = 2;
    let experiment = exhibit_experiment(&preset, hosts);
    let loads = [0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98];
    let specs = [
        PolicySpec::LeastWorkLeft,
        PolicySpec::SitaUOpt,
        PolicySpec::SitaUFair,
    ];
    let mut table = Table::new(
        "Figure 7 — bursty (MMPP-scaled) arrivals, mean slowdown, 2 hosts, C90",
        &["rho", "Least-Work-Left", "SITA-U-opt", "SITA-U-fair"],
    );
    use dses_dist::Distribution as _;
    let mean_size = preset.size_dist.mean();
    for &rho in &loads {
        // bursty arrival stream at the target load (burst rate 20x calm,
        // ~50 arrivals per bursty visit), same size stream per seed
        let rate = rho * hosts as f64 / mean_size;
        let trace = WorkloadBuilder::new(preset.size_dist.clone())
            .jobs(200_000)
            .arrivals(Mmpp2::bursty(rate, 20.0, 50.0))
            .seed(EXHIBIT_SEED)
            .build();
        let mut row = vec![format!("{rho:.2}")];
        for spec in &specs {
            let cell = match experiment.try_run_on_trace(spec, &trace) {
                Ok(r) => fmt_num(r.slowdown.mean),
                Err(_) => "-".to_string(),
            };
            row.push(cell);
        }
        table.push_row(row);
    }
    println!("{}", table.render());
    // quantify the burstiness the table ran under, at a reference load
    let rate = 0.7 * hosts as f64 / mean_size;
    let sample = WorkloadBuilder::new(preset.size_dist.clone())
        .jobs(100_000)
        .arrivals(Mmpp2::bursty(rate, 20.0, 50.0))
        .seed(EXHIBIT_SEED)
        .build();
    let report = dses_workload::burstiness_report(&sample, 3, 4);
    println!(
        "arrival burstiness at rho=0.7: interarrival C^2 = {:.2}, lag-1 autocorr = {:.3}, IDC(1000x gap) = {:.1}",
        report.interarrival_scv,
        report.gap_autocorrelation[0],
        report.idc.last().map(|&(_, v)| v).unwrap_or(f64::NAN),
    );
    println!("(Poisson reference: C^2 = 1, autocorr = 0, IDC = 1. SITA cutoffs from the Poisson analysis, per §6.)");
}
