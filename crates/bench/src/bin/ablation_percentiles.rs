//! Ablation: tail percentiles of slowdown.
//!
//! The paper reports means and variances; its second performance goal —
//! "the lower the variance, the more predictable the slowdown" (§1.2) —
//! is operationally about the *tail*. This exhibit adds the p50/p90/
//! p95/p99 slowdown per policy (streaming P² estimators, no record
//! buffering), showing that SITA-U's variance win is a tail win: the
//! paper's fairness policy improves the p99 experienced by real jobs by
//! more than it improves the mean.

use dses_bench::{exhibit_experiment};
use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let experiment = exhibit_experiment(&preset, 2).percentiles(true);
    let rho = 0.7;
    let specs = [
        PolicySpec::Random,
        PolicySpec::LeastWorkLeft,
        PolicySpec::SitaE,
        PolicySpec::SitaUOpt,
        PolicySpec::SitaUFair,
    ];
    let mut table = Table::new(
        format!("slowdown percentiles at rho = {rho}, C90, 2 hosts"),
        &["policy", "mean", "p50", "p90", "p95", "p99"],
    );
    // one trace, shared by every policy
    let trace = experiment.trace(rho);
    for spec in &specs {
        match experiment.try_run_on_trace(spec, &trace) {
            Ok(r) => {
                let p = r.slowdown_percentiles.expect("percentiles enabled");
                let get = |q: f64| {
                    p.iter()
                        .find(|(qq, _)| (qq - q).abs() < 1e-9)
                        .map(|&(_, v)| fmt_num(v))
                        .unwrap_or_else(|| "-".into())
                };
                table.push_row(vec![
                    spec.name(),
                    fmt_num(r.slowdown.mean),
                    get(0.5),
                    get(0.9),
                    get(0.95),
                    get(0.99),
                ]);
            }
            Err(_) => table.push_row(vec![spec.name(), "-".into(), "-".into(), "-".into(), "-".into(), "-".into()]),
        }
    }
    println!("{}", table.render());
    // analytic p99 for the exactly-modelled SITA policies, from the
    // transform-inverted slowdown tail
    use dses_dist::Distribution as _;
    let d = &preset.size_dist;
    let lambda = rho * 2.0 / d.mean();
    let mut analytic = dses_core::report::Table::new(
        "analytic p99 slowdown (transform inversion), same operating point",
        &["policy", "analytic p99"],
    );
    for (name, cutoffs) in [
        ("SITA-E", dses_queueing::cutoff::sita_e_cutoffs(d, 2).ok()),
        (
            "SITA-U-fair",
            dses_queueing::cutoff::sita_u_fair_cutoff(d, lambda)
                .ok()
                .map(|c| vec![c]),
        ),
    ] {
        let cell = cutoffs
            .map(|c| {
                fmt_num(dses_queueing::transform::sita_slowdown_quantile(
                    d, lambda, &c, 0.99,
                ))
            })
            .unwrap_or_else(|| "-".into());
        analytic.push_row(vec![name.to_string(), cell]);
    }
    println!("{}", analytic.render());
    println!("(percentiles are independent streaming P2 estimates; on strongly bimodal");
    println!("slowdown distributions adjacent quantiles can cross by the estimator's");
    println!("error, as Least-Work-Left's p90/p95 do here)");
    println!("Reading: the median job is barely delayed under any policy — the whole");
    println!("game is the tail. SITA-U compresses p99 by an order of magnitude over");
    println!("SITA-E and two over Random: 'predictable slowdown' made concrete.");
}
