//! Ablation: cutoff sensitivity.
//!
//! §8's sharpest observation: "What appear to just be parameters of the
//! task assignment policy (e.g., duration cutoffs) can have a greater
//! effect on performance than anything else." This exhibit sweeps the
//! 2-host SITA cutoff across the feasible range at a fixed load and
//! prints the whole slowdown curve, with the SITA-E, SITA-U-opt,
//! SITA-U-fair and rule-of-thumb positions marked.

use dses_core::cutoffs::{resolve_cutoff, CutoffMethod};
use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let d = preset.size_dist.clone();
    let rho = 0.7;
    let experiment = Experiment::new(d.clone())
        .hosts(2)
        .jobs(150_000)
        .warmup_jobs(5_000)
        .seed(1997);
    let lambda = 2.0 * rho / d.mean();

    let mut table = Table::new(
        format!("cutoff sensitivity at rho = {rho}, C90, 2 hosts"),
        &["cutoff (s)", "load frac host 1", "mean slowdown", "var slowdown"],
    );
    // log-spaced cutoffs across the stable range
    let anchors: Vec<(String, f64)> = {
        let mut named = Vec::new();
        for (label, method) in [
            ("SITA-E", CutoffMethod::EqualLoad),
            ("SITA-U-opt", CutoffMethod::OptSlowdown),
            ("SITA-U-fair", CutoffMethod::Fair),
            ("rho/2 rule", CutoffMethod::RuleOfThumb),
        ] {
            if let Ok(c) = resolve_cutoff(&d, lambda, 2, method) {
                named.push((label.to_string(), c[0]));
            }
        }
        named
    };
    let lo: f64 = 500.0;
    let hi: f64 = 500_000.0;
    let n = 14;
    let mut points: Vec<(String, f64)> = (0..=n)
        .map(|i| {
            let c = lo * (hi / lo).powf(i as f64 / n as f64);
            (String::new(), c)
        })
        .collect();
    points.extend(anchors.iter().cloned());
    points.sort_by(|a, b| a.1.total_cmp(&b.1));
    // one trace, shared by every cutoff
    let trace = experiment.trace(rho);
    for (label, cutoff) in points {
        let spec = PolicySpec::SitaFixed {
            cutoffs: vec![cutoff],
        };
        match experiment.try_run_on_trace(&spec, &trace) {
            Ok(r) => table.push_row(vec![
                if label.is_empty() {
                    format!("{cutoff:.0}")
                } else {
                    format!("{cutoff:.0}  <- {label}")
                },
                format!("{:.3}", r.load_fraction(0)),
                fmt_num(r.slowdown.mean),
                fmt_num(r.slowdown.variance),
            ]),
            Err(_) => table.push_row(vec![
                format!("{cutoff:.0}"),
                "-".into(),
                "unstable".into(),
                "-".into(),
            ]),
        }
    }
    println!("{}", table.render());
    println!("Reading: an order of magnitude separates a good cutoff from a bad one —");
    println!("the cutoff *is* the policy. The optimised anchors sit at the curve's floor.");
}
