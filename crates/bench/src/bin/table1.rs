//! Table 1 — characteristics of the trace data.
//!
//! Paper: per-system duration, number of jobs, mean service requirement,
//! min, max, and squared coefficient of variation. Here: the calibrated
//! stand-in distributions and the statistics of an actual sampled trace,
//! so the reader can verify the synthetic workloads land on the published
//! numbers.

use dses_bench::{EXHIBIT_SEED};
use dses_core::report::Table;
use dses_workload::presets::all_presets;

fn main() {
    dses_bench::check_args();
    println!("Table 1 — characteristics of the (calibrated stand-in) trace data\n");
    let mut analytic = Table::new(
        "calibrated size distributions (analytic)",
        &["system", "mean (s)", "min (s)", "max (s)", "C^2", "tail jobs", "tail load"],
    );
    let mut sampled = Table::new(
        "sampled traces (100k jobs, seed fixed)",
        &["system", "mean (s)", "min (s)", "max (s)", "C^2", "top-1.3% load"],
    );
    for preset in all_presets() {
        use dses_dist::Distribution as _;
        let d = &preset.size_dist;
        let (lo, hi) = d.support();
        analytic.push_row(vec![
            preset.name.to_string(),
            format!("{:.1}", d.mean()),
            format!("{lo:.1}"),
            format!("{hi:.0}"),
            format!("{:.2}", d.scv()),
            format!("{:.3}", preset.targets.tail_jobs),
            format!("{:.2}", preset.targets.tail_load),
        ]);
        let trace = preset.trace(100_000, 0.5, 2, EXHIBIT_SEED);
        let s = trace.size_summary();
        let (_, top_load) = s.top_fraction_load(0.013);
        sampled.push_row(vec![
            preset.name.to_string(),
            format!("{:.1}", s.mean()),
            format!("{:.1}", s.min()),
            format!("{:.0}", s.max()),
            format!("{:.2}", s.scv()),
            format!("{top_load:.3}"),
        ]);
    }
    println!("{}", analytic.render());
    println!("{}", sampled.render());
    println!("paper targets: C90 C^2=43, J90 C^2=38 (Cray traces: biggest 1.3% of jobs = half the load),");
    println!("CTC 12h cap => much lower C^2. Sample C^2 sits below the analytic value because the");
    println!("extreme tail is undersampled at 100k jobs — the same effect a real year-long trace shows.");
}
