//! Ablation: imperfect size estimates (§7, "Limitations").
//!
//! The paper argues SITA-U survives coarse user estimates: only the
//! short/long judgement matters, misrouted shorts mostly hurt
//! themselves, and users are incentivised to classify correctly. This
//! exhibit quantifies all three with the `dses-core` estimation models.

use dses_core::estimation::{MisclassifyingSita, NoisySizeInterval};
use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};
use dses_sim::simulate_dispatch;
use std::sync::Arc;

fn main() {
    dses_bench::check_args();
    let workers = dses_bench::workers_arg();
    let preset = dses_workload::psc_c90();
    let rho = 0.7;
    let trace = Arc::new(preset.trace(200_000, rho, 2, 1997));
    let cutoff =
        dses_queueing::cutoff::sita_u_fair_cutoff(&preset.size_dist, trace.arrival_rate())
            .unwrap();
    let cfg = MetricsConfig {
        warmup_jobs: 5_000,
        split_cutoff: Some(cutoff),
        ..MetricsConfig::default()
    };

    let mut noise_table = Table::new(
        format!("SITA-U-fair under lognormal size-estimate noise (rho = {rho}, C90)"),
        &["sigma", "mean slowdown", "short E[S]", "long E[S]"],
    );
    // Both noise grids fan their independent runs over --threads
    // workers; rows are collected by index, so the tables are identical
    // for any worker count.
    let sigmas = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0];
    let noise_rows = {
        let trace = Arc::clone(&trace);
        dses_sim::par_map(&sigmas, workers, move |_, &sigma| {
            let mut policy = NoisySizeInterval::new(vec![cutoff], sigma, "SITA-U-fair");
            simulate_dispatch(&trace, 2, &mut policy, 7, cfg)
        })
    };
    for (sigma, r) in sigmas.iter().zip(noise_rows) {
        noise_table.push_row(vec![
            format!("{sigma:.2}"),
            fmt_num(r.slowdown.mean),
            fmt_num(r.short_slowdown.unwrap().mean),
            fmt_num(r.long_slowdown.unwrap().mean),
        ]);
    }
    println!("{}", noise_table.render());

    let mut flip_table = Table::new(
        "SITA-U-fair under directional misclassification",
        &["shorts wrong", "longs wrong", "mean slowdown", "short E[S]", "long E[S]"],
    );
    let flips = [
        (0.0, 0.0),
        (0.05, 0.0),
        (0.25, 0.0),
        (0.0, 0.01),
        (0.0, 0.05),
        (0.05, 0.05),
        (0.5, 0.5),
    ];
    let flip_rows = {
        let trace = Arc::clone(&trace);
        dses_sim::par_map(&flips, workers, move |_, &(ps, pl)| {
            let mut policy = MisclassifyingSita::asymmetric(cutoff, ps, pl);
            simulate_dispatch(&trace, 2, &mut policy, 7, cfg)
        })
    };
    for ((ps, pl), r) in flips.into_iter().zip(flip_rows) {
        flip_table.push_row(vec![
            format!("{ps:.2}"),
            format!("{pl:.2}"),
            fmt_num(r.slowdown.mean),
            fmt_num(r.short_slowdown.unwrap().mean),
            fmt_num(r.long_slowdown.unwrap().mean),
        ]);
    }
    println!("{}", flip_table.render());

    // reference points
    let mut lwl = dses_core::policies::LeastWorkLeft;
    let lwl_r = simulate_dispatch(&trace, 2, &mut lwl, 7, cfg);
    println!(
        "reference: size-blind Least-Work-Left mean slowdown = {}",
        fmt_num(lwl_r.slowdown.mean)
    );
    println!("\nReading (paper §7): moderate noise degrades gracefully, and noisy SITA");
    println!("still beats size-blind LWL. Directionally: misrouted *shorts* hurt only");
    println!("themselves — the long column barely moves — but they pay dearly (queueing");
    println!("behind giants), which is the short user's incentive to estimate honestly.");
    println!("Misrouted *giants* tax the whole short class while the strays themselves");
    println!("benefit — so the long side of the cutoff is where estimates need policing.");
}
