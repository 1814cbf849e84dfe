//! Shared plumbing for the paper-exhibit regenerators.
//!
//! Each binary in `src/bin/` regenerates one table or figure of
//! Schroeder & Harchol-Balter (HPDC 2000); this library holds the common
//! workload setup, load grids and rendering helpers so every exhibit
//! reports the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};
use dses_workload::WorkloadPreset;

/// Parse an exhibit's arguments (the program name excluded). The only
/// argument an exhibit reads is `--threads <n>` (or `--threads=<n>`):
/// worker threads for its simulation fan-out, where `0` — the default
/// when the flag is absent — means one worker per available core.
/// Exhibits are bit-for-bit identical for every value; the flag only
/// changes wall-clock time. Any other argument, a missing value or one
/// that is not a non-negative integer is an error naming it. The first
/// `--threads` wins.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<usize, String> {
    let mut threads = None;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let value = if let Some(v) = a.strip_prefix("--threads=") {
            v.to_string()
        } else if a == "--threads" {
            args.next().ok_or("--threads needs a value")?
        } else {
            return Err(format!(
                "unknown argument {a:?}; an exhibit takes only --threads <n>"
            ));
        };
        let n = value.parse().map_err(|_| {
            format!("invalid --threads value {value:?}; expected a non-negative integer")
        })?;
        threads.get_or_insert(n);
    }
    Ok(threads.unwrap_or(0))
}

/// Check this process's command line with [`parse_args`] and return
/// its `--threads` value; on any other argument, or a bad value, print
/// the error and exit with status 2. Every exhibit's `main` calls this
/// first, before it does any work.
pub fn check_args() -> usize {
    *THREADS.get_or_init(|| {
        parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    })
}

/// The `--threads` value [`check_args`] read: `0` (all cores) in a
/// process whose `main` did not call it, such as a test harness.
#[must_use]
pub fn threads_arg() -> usize {
    THREADS.get().copied().unwrap_or(0)
}

static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

/// The worker count [`threads_arg`] resolves to (`0` → all cores).
#[must_use]
pub fn workers_arg() -> usize {
    dses_sim::effective_workers({
        let t = threads_arg();
        (t > 0).then_some(t)
    })
}

/// The load grid used by the simulation figures (the paper plots up to
/// 0.8 "because otherwise they become unreadable" but discusses all
/// loads under 1; we include 0.9).
#[must_use]
pub fn load_grid() -> Vec<f64> {
    vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
}

/// A coarser grid for expensive sweeps.
#[must_use]
pub fn coarse_load_grid() -> Vec<f64> {
    vec![0.3, 0.5, 0.7, 0.9]
}

/// Default number of simulated jobs per point for exhibit runs.
/// Big enough for stable means on the heavy-tailed workloads, small
/// enough that every figure regenerates in seconds in release mode.
pub const EXHIBIT_JOBS: usize = 200_000;

/// Default warm-up trim.
pub const EXHIBIT_WARMUP: usize = 5_000;

/// Default seed for exhibit runs (the paper's methodology: one trace,
/// rescaled per load — our builder reuses the same size stream per seed).
pub const EXHIBIT_SEED: u64 = 1997;

/// Build the standard exhibit experiment for a preset. Honors the
/// `--threads <n>` flag on the binary's command line (see
/// [`check_args`]), so every exhibit accepts the same knob.
#[must_use]
pub fn exhibit_experiment(preset: &WorkloadPreset, hosts: usize) -> Experiment<Mixture> {
    Experiment::new(preset.size_dist.clone())
        .hosts(hosts)
        .jobs(EXHIBIT_JOBS)
        .warmup_jobs(EXHIBIT_WARMUP)
        .seed(EXHIBIT_SEED)
        .threads(threads_arg())
}

/// Render a set of policy sweeps as two tables (mean slowdown and
/// variance of slowdown vs load), like the top/bottom panels of the
/// paper's figures.
#[must_use]
pub fn render_sweeps(title: &str, loads: &[f64], sweeps: &[LoadSweep]) -> String {
    let mut headers: Vec<String> = vec!["rho".to_string()];
    headers.extend(sweeps.iter().map(|s| s.policy.clone()));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut mean_table = Table::new(format!("{title} — mean slowdown"), &headers_ref);
    let mut var_table = Table::new(format!("{title} — variance of slowdown"), &headers_ref);
    for (i, &rho) in loads.iter().enumerate() {
        let mut mean_row = vec![format!("{rho:.2}")];
        let mut var_row = vec![format!("{rho:.2}")];
        for s in sweeps {
            mean_row.push(fmt_num(s.points[i].mean_slowdown));
            var_row.push(fmt_num(s.points[i].var_slowdown));
        }
        mean_table.push_row(mean_row);
        var_table.push_row(var_row);
    }
    format!("{}\n{}", mean_table.render(), var_table.render())
}

/// Run the given policies over `loads` and render the figure.
///
/// Dispatches through [`Experiment::sweep_grid`]: traces are shared per
/// load and the policy × load grid fans out over worker threads, but the
/// rendered exhibit is bit-for-bit what the sequential per-policy sweeps
/// produced.
#[must_use]
pub fn run_figure(
    title: &str,
    experiment: &Experiment<Mixture>,
    specs: &[PolicySpec],
    loads: &[f64],
) -> String {
    let sweeps = experiment.sweep_grid(specs, loads);
    render_sweeps(title, loads, &sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Result<usize, String> {
        parse_args(a.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn exhibit_arguments_are_threads_only() {
        assert_eq!(args(&[]), Ok(0));
        assert_eq!(args(&["--threads", "3"]), Ok(3));
        assert_eq!(args(&["--threads=0"]), Ok(0));
        assert_eq!(
            args(&["--threads=2", "--threads", "5"]),
            Ok(2),
            "the first wins"
        );
        for (bad, named) in [
            (&["--bogus-flag"][..], "\"--bogus-flag\""),
            (&["--threads", "2", "extra"], "\"extra\""),
            (&["--thread", "1"], "\"--thread\""),
            (&["--metrics", "means"], "\"--metrics\""),
            (&["--threads", "-1"], "\"-1\""),
            (&["--threads=x"], "\"x\""),
            (&["--threads"], "--threads needs a value"),
        ] {
            let err = args(bad).expect_err("rejected");
            assert!(err.contains(named), "{bad:?}: {err}");
        }
    }

    #[test]
    fn grids_are_increasing_and_subcritical() {
        for g in [load_grid(), coarse_load_grid()] {
            assert!(g.windows(2).all(|w| w[0] < w[1]));
            assert!(g.iter().all(|&r| r > 0.0 && r < 1.0));
        }
    }

    #[test]
    fn exhibit_experiment_is_configured() {
        let p = dses_workload::psc_c90();
        let e = exhibit_experiment(&p, 2);
        assert_eq!(e.num_hosts(), 2);
    }

    #[test]
    fn render_sweeps_produces_both_panels() {
        let p = dses_workload::psc_c90();
        let e = exhibit_experiment(&p, 2).jobs(2_000).warmup_jobs(0);
        let loads = [0.3, 0.6];
        let text = run_figure("test", &e, &[PolicySpec::LeastWorkLeft], &loads);
        assert!(text.contains("mean slowdown"));
        assert!(text.contains("variance of slowdown"));
        assert!(text.contains("Least-Work-Left"));
        assert!(text.contains("0.60"));
    }
}
