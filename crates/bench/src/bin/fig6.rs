//! Figure 6 — systems with more than 2 hosts at system load 0.7:
//! mean slowdown vs the number of hosts for Least-Work-Left and the
//! grouped ("modified") SITA policies of §5, which reuse the 2-host
//! cutoff to split the hosts into a short group and a long group with
//! Least-Work-Left inside each.
//!
//! Paper's reading: grouped SITA-E beats LWL for small host counts but
//! loses for large ones (idle hosts become common and LWL exploits
//! them); the grouped SITA-U policies stay ahead until the host count is
//! very large (paper: policies comparable beyond ~70 hosts).

use dses_bench::{exhibit_experiment, workers_arg, EXHIBIT_JOBS};
use dses_core::cutoffs::CutoffMethod;
use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};

fn main() {
    dses_bench::check_args();
    let preset = dses_workload::psc_c90();
    let rho = 0.7;
    let host_counts = [2usize, 4, 8, 16, 24, 32, 48, 64, 80];
    let mut table = Table::new(
        "Figure 6 — mean slowdown vs number of hosts at rho = 0.7, C90",
        &["hosts", "Least-Work-Left", "SITA-E(/LWL)", "SITA-U-opt(/LWL)", "SITA-U-fair(/LWL)"],
    );
    // Host counts fan out over the worker pool, each task building its
    // own trace (shared by its four policies). Tasks are claimed largest
    // host count (most jobs) first and the rows put back in table order,
    // so the table matches the sequential loop byte for byte.
    let mut rows = dses_sim::par_map_indexed(host_counts.len(), workers_arg(), move |i| {
        let h = host_counts[host_counts.len() - 1 - i];
        // keep total simulated work comparable across host counts
        let experiment = exhibit_experiment(&preset, h).jobs(EXHIBIT_JOBS.max(25_000 * h));
        let trace = experiment.trace(rho);
        let run = |spec: &PolicySpec| -> String {
            match experiment.try_run_on_trace(spec, &trace) {
                Ok(r) => fmt_num(r.slowdown.mean),
                Err(_) => "-".to_string(),
            }
        };
        let (sita_e, sita_o, sita_f) = if h == 2 {
            (
                run(&PolicySpec::SitaE),
                run(&PolicySpec::SitaUOpt),
                run(&PolicySpec::SitaUFair),
            )
        } else {
            (
                run(&PolicySpec::Grouped { method: CutoffMethod::EqualLoad }),
                run(&PolicySpec::Grouped { method: CutoffMethod::OptSlowdown }),
                run(&PolicySpec::Grouped { method: CutoffMethod::Fair }),
            )
        };
        vec![
            h.to_string(),
            run(&PolicySpec::LeastWorkLeft),
            sita_e,
            sita_o,
            sita_f,
        ]
    });
    rows.reverse();
    for row in rows {
        table.push_row(row);
    }
    println!("{}", table.render());
    println!("(2-host rows use the plain SITA policies; larger systems use the grouped policies of §5)");
}
