//! Ablation: heterogeneous host speeds (extension beyond the paper's
//! identical-host model, §1.1).
//!
//! A 2-host bank with total capacity 2.0 split unevenly: which host
//! should serve the giants, and how should the SITA cutoff move? The
//! analytic hetero solver picks the cutoff; simulation confirms it.

use dses_core::policies::{LeastWorkLeft, SizeInterval};
use dses_core::report::{fmt_num, Table};
use dses_queueing::hetero::{analyze_hetero, hetero_opt_cutoff};
use dses_sim::{simulate_dispatch_speeds, MetricsConfig};

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let d = &preset.size_dist;
    let rho = 0.6; // of total capacity 2.0
    let trace = preset.trace(200_000, rho, 2, 1997);
    let lambda = trace.arrival_rate();
    let cfg = MetricsConfig {
        warmup_jobs: 5_000,
        ..MetricsConfig::default()
    };
    let mut table = Table::new(
        format!("speed asymmetry at load {rho} (capacity fixed at 2.0), C90"),
        &[
            "speeds (short,long)",
            "opt cutoff",
            "analytic E[S]",
            "simulated E[S]",
            "LWL (simulated)",
        ],
    );
    for speeds in [[1.0, 1.0], [0.5, 1.5], [1.5, 0.5], [0.25, 1.75], [1.75, 0.25]] {
        let row = match hetero_opt_cutoff(d, lambda, speeds) {
            Ok(cutoff) => {
                let analytic = analyze_hetero(d, lambda, &[cutoff], &speeds);
                let mut sita = SizeInterval::new(vec![cutoff], "SITA");
                let sim = simulate_dispatch_speeds(&trace, &speeds, &mut sita, 7, cfg);
                let mut lwl = LeastWorkLeft;
                let lwl_sim = simulate_dispatch_speeds(&trace, &speeds, &mut lwl, 7, cfg);
                vec![
                    format!("{:.2}/{:.2}", speeds[0], speeds[1]),
                    format!("{cutoff:.0}"),
                    fmt_num(analytic.mean_slowdown),
                    fmt_num(sim.slowdown.mean),
                    fmt_num(lwl_sim.slowdown.mean),
                ]
            }
            Err(e) => vec![
                format!("{:.2}/{:.2}", speeds[0], speeds[1]),
                format!("{e}"),
                "-".into(),
                "-".into(),
                "-".into(),
            ],
        };
        table.push_row(row);
    }
    println!("{}", table.render());
    println!("Reading: SITA absorbs speed asymmetry by moving the cutoff — a slower");
    println!("short-host takes a narrower band, a faster one a wider band — and the");
    println!("analytic optimum tracks the simulation. Giving the *fast* machine to the");
    println!("giants is the better configuration: the short host's strength is low");
    println!("variance, not raw speed, while the long host needs every cycle.");
}
