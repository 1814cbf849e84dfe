//! Ablation: TAGS — size-interval assignment without size knowledge.
//!
//! The paper's reference \[10\] (Harchol-Balter, ICDCS 2000) shows the
//! SITA idea survives even when job sizes are *unknown*: start every job
//! on Host 1 and kill-and-restart anything that outlives the cutoff.
//! This exhibit prices the restart overhead: TAGS vs size-aware SITA at
//! the same cutoffs, plus the extra capacity TAGS burns.

use dses_core::policies::tags::{simulate_tags, tags_work};
use dses_core::policies::SizeInterval;
use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};
use dses_sim::simulate_dispatch;

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let d = &preset.size_dist;
    let mut table = Table::new(
        "TAGS vs size-aware SITA at the same 2-host cutoff, C90",
        &["rho", "cutoff", "SITA mean S", "TAGS mean S", "TAGS excess work %"],
    );
    for rho in [0.3, 0.5, 0.6, 0.7] {
        let trace = preset.trace(150_000, rho, 2, 1997);
        let lambda = trace.arrival_rate();
        // TAGS needs spare capacity for restarts; size the cutoff with
        // the SITA-U-opt solver as a reasonable shared choice
        let cutoff = match dses_queueing::cutoff::sita_u_opt_cutoff(d, lambda) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let cfg = MetricsConfig {
            warmup_jobs: 5_000,
            ..MetricsConfig::default()
        };
        let mut sita = SizeInterval::new(vec![cutoff], "SITA");
        let sita_r = simulate_dispatch(&trace, 2, &mut sita, 7, cfg);
        let tags_r = simulate_tags(&trace, &[cutoff], cfg);
        // wasted work fraction: (tags_work − size) summed over jobs
        let offered: f64 = trace.sizes().iter().sum();
        let with_restart: f64 = trace
            .sizes()
            .iter()
            .map(|&s| tags_work(s, &[cutoff]))
            .sum();
        let excess = 100.0 * (with_restart - offered) / offered;
        table.push_row(vec![
            format!("{rho:.1}"),
            format!("{cutoff:.0}"),
            fmt_num(sita_r.slowdown.mean),
            fmt_num(tags_r.slowdown.mean),
            format!("{excess:.2}%"),
        ]);
    }
    println!("{}", table.render());
    println!("Reading: with a heavy tail, almost no job crosses the cutoff, so TAGS'");
    println!("restart overhead is small and size-oblivious assignment stays close to");
    println!("the size-aware ideal at low/medium load; the gap opens with load as the");
    println!("long host absorbs both the giants and the restarted work.");
}
