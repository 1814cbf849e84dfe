//! Ablation: decomposing §6's burstiness effect.
//!
//! Bursty arrivals hurt through two distinct channels — high marginal
//! interarrival *variability* and positive *correlation* (bursts). The
//! paper's trace-scaled experiment bundles both. We separate them: record
//! an MMPP gap sequence once, then drive the same job-size stream with
//!
//! 1. Poisson arrivals (C² = 1, no correlation) — the §2.2 baseline;
//! 2. the gaps **shuffled** (same marginal C², correlation destroyed);
//! 3. the gaps **in order** (marginal C² *and* correlation).
//!
//! Any difference between rows 2 and 3 is attributable purely to
//! correlation.

use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};
use dses_workload::{burstiness_report, Mmpp2, ReplayArrivals};
use std::sync::Arc;

fn main() {
    dses_bench::check_args();
    let workers = dses_bench::workers_arg();
    let preset = dses_workload::psc_c90();
    let rho = 0.7;
    let hosts = 2;
    let jobs = 200_000;
    use dses_dist::Distribution as _;
    let rate = rho * hosts as f64 / preset.size_dist.mean();
    // record the bursty gap sequence once
    let recorded = WorkloadBuilder::new(preset.size_dist.clone())
        .jobs(jobs)
        .arrivals(Mmpp2::bursty(rate, 20.0, 50.0))
        .seed(1997)
        .build();
    let gaps = ReplayArrivals::gaps_of(&recorded);

    let experiment = Experiment::new(preset.size_dist.clone())
        .hosts(hosts)
        .jobs(jobs)
        .warmup_jobs(5_000)
        .seed(1997);

    let build = |arrivals: Box<dyn FnOnce() -> Trace>| arrivals();
    let poisson_trace = build(Box::new(|| {
        WorkloadBuilder::new(preset.size_dist.clone())
            .jobs(jobs)
            .poisson_load(rho, hosts)
            .seed(1997)
            .build()
    }));
    let shuffled_trace = build(Box::new(|| {
        WorkloadBuilder::new(preset.size_dist.clone())
            .jobs(jobs)
            .arrivals(ReplayArrivals::shuffled(gaps.clone(), 11))
            .seed(1997)
            .build()
    }));
    let ordered_trace = build(Box::new(|| {
        WorkloadBuilder::new(preset.size_dist.clone())
            .jobs(jobs)
            .arrivals(ReplayArrivals::ordered(gaps.clone()))
            .seed(1997)
            .build()
    }));

    let mut table = Table::new(
        format!("burstiness decomposition at rho = {rho}, C90, 2 hosts (mean slowdown)"),
        &["arrivals", "gap C^2", "lag-1 corr", "LWL", "SITA-U-fair", "LWL/fair"],
    );
    // The arrivals × policy grid fans out over --threads workers; cells
    // are collected by index, so the table is identical for any count.
    let traces: Arc<Vec<Arc<Trace>>> = Arc::new(
        [poisson_trace, shuffled_trace, ordered_trace].into_iter().map(Arc::new).collect(),
    );
    let cells: Vec<f64> = {
        let experiment = Arc::new(experiment);
        let traces = Arc::clone(&traces);
        dses_sim::par_map_indexed(traces.len() * 2, workers, move |g| {
            let (t, s) = (g / 2, g % 2);
            let spec = if s == 0 { PolicySpec::LeastWorkLeft } else { PolicySpec::SitaUFair };
            experiment
                .try_run_on_trace(&spec, &traces[t])
                .map(|r| r.slowdown.mean)
                .unwrap_or(f64::NAN)
        })
    };
    for (t, label) in ["Poisson", "trace gaps, shuffled", "trace gaps, ordered"]
        .into_iter()
        .enumerate()
    {
        let trace = &traces[t];
        let b = burstiness_report(trace, 1, 2);
        let (lwl, fair) = (cells[t * 2], cells[t * 2 + 1]);
        table.push_row(vec![
            label.to_string(),
            format!("{:.2}", b.interarrival_scv),
            format!("{:+.3}", b.gap_autocorrelation[0]),
            fmt_num(lwl),
            fmt_num(fair),
            format!("{:.1}x", lwl / fair),
        ]);
    }
    println!("{}", table.render());
    println!("Reading: marginal gap variability alone (row 2) already hurts both");
    println!("policies; adding correlation (row 3) multiplies the damage again. The");
    println!("LWL/fair ratio shrinks down the rows — §6's mechanism, isolated: arrival");
    println!("correlation is the one burden size-based splitting cannot smooth.");
}
