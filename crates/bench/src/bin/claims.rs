//! §1.4 / §3.3 quantitative-claims check — the paper's headline numbers,
//! verified against this reproduction:
//!
//! 1. Random vs Least-Work-Left: ×2–10 mean slowdown, ×~30 variance.
//! 2. Random vs SITA-E: ×6–10 mean slowdown, orders of magnitude in
//!    variance.
//! 3. SITA-U over SITA-E: ≥ an order of magnitude (mean and variance)
//!    across the interesting load range.
//! 4. Under SITA-E on the C90 workload, ~98.7 % of jobs go to Host 1.
//! 5. Least-Work-Left ≡ Central-Queue, job-for-job.
//! 6. Rule-of-thumb cutoffs land within ~10 % of the optimised ones.

use dses_bench::{exhibit_experiment, EXHIBIT_SEED};
use dses_core::prelude::*;
use dses_core::report::{fmt_num, fmt_ratio, Table};
use dses_sim::validate::max_response_deviation;
use dses_sim::{simulate_dispatch, EventEngine};

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let experiment = exhibit_experiment(&preset, 2);

    println!("Paper-claims check (C90 stand-in, 2 hosts)\n");

    // -- claims 1–3: slowdown/variance factors across loads
    let mut table = Table::new(
        "slowdown factors vs load",
        &[
            "rho",
            "Random/LWL (mean)",
            "Random/LWL (var)",
            "Random/SITA-E (mean)",
            "SITA-E/U-fair (mean)",
            "SITA-E/U-fair (var)",
        ],
    );
    // one trace per load, shared by every policy and claim below
    let loads = [0.3, 0.5, 0.7, 0.8];
    let traces = experiment.traces(&loads);
    let run = |spec: &PolicySpec, trace: &Trace| {
        experiment
            .try_run_on_trace(spec, trace)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name()))
    };
    for (&rho, trace) in loads.iter().zip(&traces) {
        let random = run(&PolicySpec::Random, trace);
        let lwl = run(&PolicySpec::LeastWorkLeft, trace);
        let sita_e = run(&PolicySpec::SitaE, trace);
        let fair = run(&PolicySpec::SitaUFair, trace);
        table.push_row(vec![
            format!("{rho:.1}"),
            fmt_ratio(random.slowdown.mean - 1.0, lwl.slowdown.mean - 1.0),
            fmt_ratio(random.slowdown.variance, lwl.slowdown.variance),
            fmt_ratio(random.slowdown.mean - 1.0, sita_e.slowdown.mean - 1.0),
            fmt_ratio(sita_e.slowdown.mean - 1.0, fair.slowdown.mean - 1.0),
            fmt_ratio(sita_e.slowdown.variance, fair.slowdown.variance),
        ]);
    }
    println!("{}", table.render());
    println!("(ratios on queueing slowdown E[W/X] = E[S]-1, the paper's Theorem-1 quantity)\n");

    // -- claim 4: job fraction to Host 1 under SITA-E
    let r = run(&PolicySpec::SitaE, &traces[2]);
    println!(
        "SITA-E at rho=0.7: {:.1}% of jobs to Host 1 (paper: ~98.7%), load fraction {:.3}\n",
        100.0 * r.job_fraction(0),
        r.load_fraction(0),
    );

    // -- claim 5: LWL ≡ Central-Queue, exactly, per job
    let trace = preset.trace(50_000, 0.7, 2, EXHIBIT_SEED);
    let cfg = MetricsConfig {
        collect_records: true,
        ..MetricsConfig::default()
    };
    let mut lwl_policy = dses_core::policies::LeastWorkLeft;
    let lwl = simulate_dispatch(&trace, 2, &mut lwl_policy, 0, cfg);
    let cq = EventEngine::new(2, cfg).run_central_queue(&trace, QueueDiscipline::Fcfs);
    let dev = max_response_deviation(
        lwl.records.as_ref().unwrap(),
        cq.records.as_ref().unwrap(),
    );
    println!(
        "Least-Work-Left vs Central-Queue on 50k jobs: max per-job response deviation = {}\n",
        fmt_num(dev)
    );

    // -- claim 6: rule of thumb within ~10% of optimised SITA-U
    let mut rot_table = Table::new(
        "rule-of-thumb vs optimised cutoff (mean slowdown)",
        &["rho", "SITA-U-opt", "SITA-U-rot", "penalty"],
    );
    for (&rho, trace) in loads.iter().zip(&traces) {
        let opt = run(&PolicySpec::SitaUOpt, trace);
        let rot = run(&PolicySpec::SitaRuleOfThumb, trace);
        rot_table.push_row(vec![
            format!("{rho:.1}"),
            fmt_num(opt.slowdown.mean),
            fmt_num(rot.slowdown.mean),
            fmt_ratio(rot.slowdown.mean - 1.0, opt.slowdown.mean - 1.0),
        ]);
    }
    println!("{}", rot_table.render());
}
