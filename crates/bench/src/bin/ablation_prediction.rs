//! Ablation: history-based size prediction (§7's proposed future work).
//!
//! On a user-correlated workload (Zipf user activity, per-user size
//! scales), compare SITA driven by a per-user running-mean predictor
//! against the size oracle and the size-blind baseline, as within-user
//! variability grows from "every job identical" to "history useless".

use dses_core::policies::{LeastWorkLeft, SizeInterval};
use dses_core::prediction::{PredictedSizeInterval, RunningMeanPredictor};
use dses_core::report::{fmt_num, Table};
use dses_sim::{simulate_dispatch, MetricsConfig};
use dses_workload::UserWorkloadBuilder;
use std::sync::Arc;

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let rho = 0.6;
    let mut table = Table::new(
        format!("prediction-driven SITA vs oracle vs LWL (user workload, rho = {rho})"),
        &[
            "within-user C^2",
            "class accuracy",
            "SITA (oracle)",
            "SITA (predicted)",
            "LWL",
        ],
    );
    for within_scv in [0.0, 0.1, 0.5, 2.0, 8.0] {
        let ut = UserWorkloadBuilder::new(preset.size_dist.clone())
            .users(120)
            .jobs(150_000)
            .within_scv(within_scv)
            .poisson_load(rho, 2)
            .seed(1997)
            .build();
        let sizes = ut.trace.sizes();
        let emp = dses_dist::Empirical::from_values(sizes).expect("positive sizes");
        let cutoff = dses_queueing::cutoff::sita_u_opt_cutoff(&emp, ut.trace.arrival_rate())
            .or_else(|_| dses_queueing::cutoff::sita_e_cutoffs(&emp, 2).map(|c| c[0]))
            .expect("cutoff");
        use dses_dist::Distribution as _;
        let cfg = MetricsConfig {
            warmup_jobs: 5_000,
            ..MetricsConfig::default()
        };
        let mut oracle = SizeInterval::new(vec![cutoff], "oracle");
        let oracle_r = simulate_dispatch(&ut.trace, 2, &mut oracle, 7, cfg);
        let mut predicted = PredictedSizeInterval::new(
            vec![cutoff],
            RunningMeanPredictor::new(),
            Arc::new(ut.user_of_job.clone()),
            emp.mean(),
        );
        let pred_r = simulate_dispatch(&ut.trace, 2, &mut predicted, 7, cfg);
        let (hits, misses) = predicted.classification_counts();
        let mut lwl = LeastWorkLeft;
        let lwl_r = simulate_dispatch(&ut.trace, 2, &mut lwl, 7, cfg);
        table.push_row(vec![
            format!("{within_scv:.1}"),
            format!("{:.1}%", 100.0 * hits as f64 / (hits + misses) as f64),
            fmt_num(oracle_r.slowdown.mean),
            fmt_num(pred_r.slowdown.mean),
            fmt_num(lwl_r.slowdown.mean),
        ]);
    }
    println!("{}", table.render());
    println!("Reading (paper §7 + refs [9,16]): when users' jobs resemble their history,");
    println!("a trivial per-user predictor classifies ~everything correctly and");
    println!("prediction-driven SITA recovers most of the oracle's advantage over");
    println!("size-blind assignment — no user estimates required. The flip side: once");
    println!("within-user variability is large, headline accuracy stays high (most jobs");
    println!("sit far from the cutoff) but the rare giant predicted short is catastrophic");
    println!("— worse than size-blind pooling — matching the misclassification ablation:");
    println!("act on size information only when the long side of the cutoff is reliable.");
}
