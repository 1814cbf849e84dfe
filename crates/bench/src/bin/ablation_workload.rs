//! Ablation: workload variability.
//!
//! §8: "The best task assignment policy depends on characteristics of
//! the distribution of job processing requirements. Thus workload
//! characterization is important." This exhibit holds the mean and load
//! fixed and sweeps the job-size squared coefficient of variation from
//! sub-exponential to supercomputing-like, printing where the
//! LWL-vs-SITA ranking flips.

use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};

fn main() {
    dses_bench::check_args();
    let rho = 0.7;
    let mean = 1000.0;
    // Ranking is by mean waiting time: distributions with density at 0
    // (Exponential, Hyperexp) have E[1/X] = ∞, so sampled mean *slowdown*
    // is noise-dominated by the tiniest jobs and SITA-U-fair's
    // equal-slowdown cutoff is undefined there ("-" below).
    let mut table = Table::new(
        format!("policy ranking vs job-size variability (2 hosts, rho = {rho}, mean waiting time)"),
        &["size C^2", "distribution", "LWL", "SITA-E", "SITA-U-fair", "winner"],
    );
    // sweep via distributions that can represent each regime
    use std::sync::Arc;
    let cases: Vec<(f64, &str, Arc<dyn Distribution>)> = vec![
        (0.25, "Erlang-4", Arc::new(Erlang::with_mean(4, mean).unwrap())),
        (1.0, "Exponential", Arc::new(Exponential::with_mean(mean).unwrap())),
        (4.0, "Hyperexp", Arc::new(HyperExponential::fit_mean_scv(mean, 4.0).unwrap())),
        (16.0, "Hyperexp", Arc::new(HyperExponential::fit_mean_scv(mean, 16.0).unwrap())),
        (
            43.0,
            "body-tail BP",
            Arc::new(
                dses_dist::fit::fit_body_tail(dses_dist::fit::BodyTailTargets {
                    mean,
                    scv: 43.0,
                    min: mean / 80.0,
                    max: mean * 500.0,
                    tail_jobs: 0.013,
                    tail_load: 0.5,
                })
                .unwrap(),
            ),
        ),
    ];
    // The distribution × policy grid fans out over --threads workers;
    // cells are collected by index, so the table is identical for any
    // worker count.
    let specs = [PolicySpec::LeastWorkLeft, PolicySpec::SitaE, PolicySpec::SitaUFair];
    let cells: Vec<f64> = {
        let dists: Arc<Vec<Arc<dyn Distribution>>> =
            Arc::new(cases.iter().map(|(_, _, d)| Arc::clone(d)).collect());
        let specs = specs.clone();
        dses_sim::par_map_indexed(cases.len() * specs.len(), dses_bench::workers_arg(), move |g| {
            let (c, s) = (g / specs.len(), g % specs.len());
            Experiment::new(Arc::clone(&dists[c]))
                .hosts(2)
                .jobs(150_000)
                .warmup_jobs(5_000)
                .seed(1997)
                .try_run(&specs[s], rho)
                .map(|r| r.waiting.mean / mean) // waiting in units of E[X]
                .unwrap_or(f64::NAN)
        })
    };
    for (c, (scv, family, _)) in cases.into_iter().enumerate() {
        let (lwl, sita_e, fair) = (cells[c * 3], cells[c * 3 + 1], cells[c * 3 + 2]);
        let winner = [("LWL", lwl), ("SITA-E", sita_e), ("SITA-U-fair", fair)]
            .into_iter()
            .filter(|(_, v)| v.is_finite())
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| n)
            .unwrap_or("-");
        table.push_row(vec![
            format!("{scv:.2}"),
            family.to_string(),
            fmt_num(lwl),
            fmt_num(sita_e),
            fmt_num(fair),
            winner.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("Reading: at low variability pooling wins (the §1.3 exponential folklore);");
    println!("as C^2 grows, size-based assignment takes over and unbalancing compounds it.");
}
