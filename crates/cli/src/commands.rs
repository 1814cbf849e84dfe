//! The `dses` subcommands.

use crate::args::{ArgError, Args};
use crate::names;
use dses_core::fairness::FairnessReport;
use dses_core::report::{fmt_num, Table};
use dses_core::rule_of_thumb::rule_of_thumb_fraction;
use dses_core::{Experiment, PolicySpec};
use dses_dist::{Distribution, Mixture, Moments};
use dses_sim::SimResult;
use dses_workload::{swf, Trace};

/// A subcommand: the names it answers to, the `--key value` flags and
/// bare switches it reads, and its handler.
struct Command {
    names: &'static [&'static str],
    values: &'static [&'static str],
    switches: &'static [&'static str],
    run: fn(&Args) -> Result<String, ArgError>,
}

/// Every subcommand. A flag outside a command's lists is an error, so
/// each list must name exactly the flags its handler reads — and
/// [`help`] must document them (a test checks both directions).
const COMMANDS: &[Command] = &[
    Command {
        names: &["help"],
        values: &[],
        switches: &[],
        run: |_| Ok(help()),
    },
    Command {
        names: &["workloads"],
        values: &[],
        switches: &[],
        run: |_| workloads(),
    },
    Command {
        names: &["policies"],
        values: &[],
        switches: &[],
        run: |_| Ok(policies()),
    },
    Command {
        names: &["simulate"],
        values: &[
            "workload", "hosts", "jobs", "warmup", "seed", "policy", "load", "slo",
        ],
        switches: &["fairness", "percentiles"],
        run: simulate,
    },
    Command {
        names: &["analyze", "analyse"],
        values: &["workload", "policy", "load", "hosts"],
        switches: &[],
        run: analyze,
    },
    Command {
        names: &["sweep"],
        values: &[
            "workload", "hosts", "jobs", "warmup", "seed", "policies", "loads", "threads",
        ],
        switches: &[],
        run: sweep,
    },
    Command {
        names: &["replicate"],
        values: &[
            "workload", "hosts", "jobs", "warmup", "seed", "policies", "load", "reps", "threads",
        ],
        switches: &[],
        run: replicate,
    },
    Command {
        names: &["cutoff"],
        values: &["workload", "method", "load", "hosts"],
        switches: &[],
        run: cutoff,
    },
    Command {
        names: &["swf"],
        values: &["file", "procs", "policy", "hosts", "load", "warmup", "seed"],
        switches: &[],
        run: swf_cmd,
    },
    Command {
        names: &["burstiness"],
        values: &["file", "procs", "workload", "jobs", "seed"],
        switches: &[],
        run: burstiness_cmd,
    },
];

/// Run one subcommand, returning the text to print. Its flags are
/// checked before it runs.
pub fn run(args: &Args) -> Result<String, ArgError> {
    let name = args.command.as_str();
    let command = COMMANDS
        .iter()
        .find(|c| c.names.contains(&name))
        .ok_or_else(|| ArgError(format!("unknown command {name:?}; try `dses help`")))?;
    args.check_flags(command.values, command.switches)?;
    (command.run)(args)
}

/// Top-level usage text.
pub fn help() -> String {
    "\
dses — distributed-server task-assignment simulator & analyzer
(reproduction of Schroeder & Harchol-Balter, HPDC 2000)

USAGE: dses <command> [--flag value]...
       (--help or -h anywhere prints this text; a flag the command
       does not read is an error)

COMMANDS
  help                              print this text
  workloads                         list the calibrated workload presets
  policies                          list the task-assignment policies
  simulate   run one simulation
      --workload c90|j90|ctc        (default c90)
      --policy <name>               (default sita-u-fair)
      --load <rho>                  system load in (0,1) (default 0.7)
      --hosts <h>                   (default 2)
      --jobs <n>                    (default 100000)
      --seed <s>                    (default 0)
      --warmup <n>                  jobs trimmed from stats (default 1000)
      --fairness                    print the slowdown-vs-size profile
      --percentiles                 print slowdown percentiles
      --slo <s>                     report the fraction of jobs with slowdown > s
  analyze    closed-form prediction (no simulation)
      --workload, --policy, --load, --hosts as above
  sweep      figure-style table over loads
      --policies a,b,c              (default random,lwl,sita-e,sita-u-fair)
      --loads lo:hi:step or a,b,c   each in (0,1); a range of at most 1000
                                    points (default 0.1:0.9:0.2)
      --threads <n>                 worker threads; 0 = all cores (default 0)
                                    results are identical for every n
      --workload, --hosts, --jobs, --seed, --warmup as above
  replicate  multi-seed runs with ~95% confidence intervals
      --policies a,b,c              (default lwl,sita-e,sita-u-fair)
      --reps <n>                    (default 5)
      --threads <n>                 worker threads; 0 = all cores (default 0)
      --workload, --load, --hosts, --jobs, --seed, --warmup as above
  cutoff     solve SITA cutoffs
      --method equal-load|opt|fair|rot
      --workload, --load, --hosts as above
  swf        simulate a real Standard Workload Format trace
      --file <path>                 SWF log to load
      --policy <name>, --hosts <h>
      --procs <p>                   keep only p-processor jobs
      --load <rho>                  rescale interarrivals to this load
      --warmup <n>                  jobs trimmed from stats (default 0)
      --seed <s>                    policy random seed (default 0)
  burstiness measure a trace's arrival burstiness
      --file <path>                 SWF log (or omit for a synthetic demo)
      --procs <p>                   keep only p-processor jobs
      --workload, --jobs, --seed    the synthetic demo's preset, length
                                    and seed (default c90, 50000, 0)

EXAMPLES
  dses simulate --workload c90 --policy sita-u-fair --load 0.7
  dses sweep --policies lwl,sita-e,fair --loads 0.3:0.9:0.2
  dses cutoff --method fair --load 0.7
  dses swf --file ctc.swf --procs 8 --policy lwl --load 0.6
"
    .to_string()
}

fn workloads() -> Result<String, ArgError> {
    let mut out = String::from("calibrated workload presets (see DESIGN.md for the substitution):\n\n");
    for p in dses_workload::presets::all_presets() {
        out.push_str(&format!("  {}\n    {}\n", p.table1_row(), p.description));
    }
    Ok(out)
}

fn policies() -> String {
    let mut out = String::from("task-assignment policies:\n\n");
    for (name, desc) in names::all_policy_names() {
        out.push_str(&format!("  {name:<40} {desc}\n"));
    }
    out
}

/// `--hosts` (default 2), checked in one place for every command: at
/// least one host.
fn hosts(args: &Args) -> Result<usize, ArgError> {
    let hosts = args.get_usize("hosts", 2)?;
    if hosts == 0 {
        return Err(ArgError("--hosts must be at least 1, got 0".to_string()));
    }
    Ok(hosts)
}

/// A system load strictly inside (0, 1), or an error naming `--{flag}`.
fn check_load(flag: &str, load: f64) -> Result<f64, ArgError> {
    if !(load > 0.0 && load < 1.0) {
        return Err(ArgError(format!("--{flag} must be in (0,1), got {load}")));
    }
    Ok(load)
}

/// `--load` (default 0.7), checked in one place for every command: a
/// system load strictly inside (0, 1).
fn load(args: &Args) -> Result<f64, ArgError> {
    check_load("load", args.get_f64("load", 0.7)?)
}

/// `--loads` (default 0.1:0.9:0.2), every value checked like [`load`].
fn loads(args: &Args) -> Result<Vec<f64>, ArgError> {
    let loads = args.get_loads("loads", &[0.1, 0.3, 0.5, 0.7, 0.9])?;
    for &load in &loads {
        check_load("loads", load)?;
    }
    Ok(loads)
}

/// [`hosts`] and [`load`].
fn hosts_and_load(args: &Args) -> Result<(usize, f64), ArgError> {
    Ok((hosts(args)?, load(args)?))
}

/// `--jobs` (default 100 000).
fn jobs(args: &Args) -> Result<usize, ArgError> {
    args.get_usize("jobs", 100_000)
}

/// The most worker threads `--threads` may ask for. A grid or a set of
/// replications starts up to `threads − 1` pool threads at once, so an
/// unbounded value could ask the system for thousands of them.
const MAX_THREADS: usize = 256;

/// `--threads` (default 0, one worker per core), at most
/// [`MAX_THREADS`].
fn threads(args: &Args) -> Result<usize, ArgError> {
    let threads = args.get_usize("threads", 0)?;
    if threads > MAX_THREADS {
        return Err(ArgError(format!(
            "--threads must be at most {MAX_THREADS}, got {threads}"
        )));
    }
    Ok(threads)
}

/// The coarsest step of the arrival clock a run may take, as a share of
/// its smallest job. Past it, a response time (completion − arrival)
/// keeps fewer digits than the four significant ones the CLI prints, so
/// a slowdown can read 0 or below 1; far past it, the arrival times
/// overflow and the trace cannot be built at all.
const CLOCK_RESOLUTION: f64 = 1e-4;

/// Reject a run whose last arrival, near `horizon` seconds, falls where
/// one ulp of the arrival clock exceeds [`CLOCK_RESOLUTION`] of the
/// smallest job, `min_size` seconds. `what` names the flag that set the
/// horizon.
fn check_clock(what: &str, horizon: f64, min_size: f64) -> Result<(), ArgError> {
    let step = horizon.next_up() - horizon;
    if step <= CLOCK_RESOLUTION * min_size {
        return Ok(());
    }
    Err(ArgError(if horizon.is_finite() {
        format!(
            "{what} puts the last arrival near {} s, where the arrival clock steps by {} s, more than {CLOCK_RESOLUTION:e} of the smallest job ({} s)",
            fmt_num(horizon),
            fmt_num(step),
            fmt_num(min_size)
        )
    } else {
        format!("{what} puts the last arrival past the largest finite time")
    }))
}

/// [`check_clock`] for a preset run at load `rho`, before any trace is
/// built: `jobs` Poisson arrivals at load ρ on h hosts end near
/// `jobs·E[X]/(ρ·h)`, and the preset's support starts at its smallest
/// job.
fn check_preset_clock(
    args: &Args,
    experiment: &Experiment<Mixture>,
    flag: &str,
    rho: f64,
) -> Result<(), ArgError> {
    let d = experiment.dist();
    let horizon = jobs(args)? as f64 * d.mean() / (rho * experiment.num_hosts() as f64);
    check_clock(&format!("--{flag} {rho:?}"), horizon, d.support().0)
}

/// Warm-up must leave jobs to measure: a run that discards every job
/// reports zeros, not a result.
fn check_warmup(warmup: usize, jobs: usize) -> Result<(), ArgError> {
    if warmup >= jobs {
        return Err(ArgError(format!(
            "--warmup {warmup} leaves no jobs to measure out of {jobs}"
        )));
    }
    Ok(())
}

/// The experiment the simulating commands share: `--workload`,
/// `--hosts`, `--jobs`, `--warmup` and `--seed`.
fn experiment_from(args: &Args) -> Result<Experiment<Mixture>, ArgError> {
    let preset = names::workload(args.get_or("workload", "c90"))?;
    let jobs = jobs(args)?;
    let warmup = args.get_usize("warmup", 1_000)?;
    check_warmup(warmup, jobs)?;
    Ok(Experiment::new(preset.size_dist.clone())
        .hosts(hosts(args)?)
        .jobs(jobs)
        .warmup_jobs(warmup)
        .seed(args.get_u64("seed", 0)?))
}

/// Render the standard result block.
fn render_result(title: &str, r: &SimResult) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "  jobs measured        {}\n  mean slowdown        {}\n  var slowdown         {}\n  mean queueing S      {}\n  mean response (s)    {}\n  mean waiting (s)     {}\n",
        r.measured,
        fmt_num(r.slowdown.mean),
        fmt_num(r.slowdown.variance),
        fmt_num(r.queueing_slowdown.mean),
        fmt_num(r.response.mean),
        fmt_num(r.waiting.mean),
    ));
    for (i, _) in r.per_host.iter().enumerate() {
        out.push_str(&format!(
            "  host {i}: jobs {:.1}%  load {:.1}%\n",
            100.0 * r.job_fraction(i),
            100.0 * r.load_fraction(i)
        ));
    }
    if let Some(p) = &r.slowdown_percentiles {
        out.push_str("  slowdown percentiles: ");
        for (q, est) in p {
            out.push_str(&format!("p{:.0}={} ", q * 100.0, fmt_num(*est)));
        }
        out.push('\n');
    }
    if let Some(frac) = r.slo_violation_fraction() {
        if let Some((_, threshold)) = r.slo_violations {
            out.push_str(&format!(
                "  SLO violations: {:.2}% of jobs exceeded slowdown {threshold}\n",
                100.0 * frac
            ));
        }
    }
    if let (Some(s), Some(l)) = (r.short_slowdown, r.long_slowdown) {
        // a class no measured job fell in has no mean
        let class_mean = |m: Moments| {
            if m.count == 0 {
                "-".to_string()
            } else {
                fmt_num(m.mean)
            }
        };
        out.push_str(&format!(
            "  class slowdowns: short {}  long {}\n",
            class_mean(s),
            class_mean(l)
        ));
    }
    if r.fairness.is_some() {
        out.push_str("\nfairness profile (slowdown by size band):\n");
        out.push_str(&FairnessReport::from_result(r).render());
    }
    out
}

fn simulate(args: &Args) -> Result<String, ArgError> {
    let experiment = experiment_from(args)?
        .fairness_bins(if args.has("fairness") { 12 } else { 0 })
        .percentiles(args.has("percentiles"));
    let experiment = match args.get("slo") {
        Some(_) => {
            let slo = args.get_f64("slo", 10.0)?;
            // no job's slowdown exceeds +inf, so that SLO would count nothing
            if !(slo.is_finite() && slo >= 1.0) {
                return Err(ArgError(format!(
                    "--slo must be a finite slowdown of at least 1, got {slo}"
                )));
            }
            experiment.slo(slo)
        }
        None => experiment,
    };
    let load = load(args)?;
    check_preset_clock(args, &experiment, "load", load)?;
    let spec = names::policy(args.get_or("policy", "sita-u-fair"))?;
    let result = experiment
        .try_run(&spec, load)
        .map_err(|e| ArgError(format!("{}: {e}", spec.name())))?;
    Ok(render_result(
        &format!(
            "{} on {} hosts at load {load} ({} workload)",
            spec.name(),
            experiment.num_hosts(),
            args.get_or("workload", "c90")
        ),
        &result,
    ))
}

fn analyze(args: &Args) -> Result<String, ArgError> {
    let preset = names::workload(args.get_or("workload", "c90"))?;
    let (hosts, load) = hosts_and_load(args)?;
    let experiment = Experiment::new(preset.size_dist.clone()).hosts(hosts);
    let policy = names::analytic_policy(args.get_or("policy", "sita-u-fair"))?;
    let m = experiment
        .analytic(policy, load)
        .map_err(|e| ArgError(format!("{}: {e}", policy.name())))?;
    let mut out = format!(
        "analytic {} at load {load} on {} hosts:\n  mean slowdown      {}\n  mean queueing S    {}\n  mean waiting (s)   {}\n  mean response (s)  {}\n",
        policy.name(),
        experiment.num_hosts(),
        fmt_num(m.mean_slowdown),
        fmt_num(m.mean_queueing_slowdown),
        fmt_num(m.mean_waiting),
        fmt_num(m.mean_response),
    );
    if let Some(v) = m.slowdown_variance {
        out.push_str(&format!("  var slowdown       {}\n", fmt_num(v)));
    }
    if let Some(c) = &m.cutoffs {
        out.push_str(&format!("  cutoffs (s)        {c:?}\n"));
    }
    if let Some(f) = m.load_fraction_host0 {
        out.push_str(&format!(
            "  load on host 0     {f:.3} (rule of thumb: {:.3})\n",
            rule_of_thumb_fraction(load)
        ));
    }
    Ok(out)
}

fn sweep(args: &Args) -> Result<String, ArgError> {
    let experiment = experiment_from(args)?.threads(threads(args)?);
    let specs = names::policy_list(args.get_or("policies", "random,lwl,sita-e,sita-u-fair"))?;
    let loads = loads(args)?;
    for &rho in &loads {
        check_preset_clock(args, &experiment, "loads", rho)?;
    }
    // The whole policy × load grid fans out over --threads workers with
    // one shared trace per load; failed points carry NaN, which fmt_num
    // renders as "-" exactly like the old per-run loop did.
    let sweeps = experiment.sweep_grid(&specs, &loads);
    let mut headers = vec!["rho".to_string()];
    headers.extend(specs.iter().map(PolicySpec::name));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut mean_t = Table::new("mean slowdown", &headers_ref);
    let mut var_t = Table::new("variance of slowdown", &headers_ref);
    for (i, &rho) in loads.iter().enumerate() {
        let mut mrow = vec![format!("{rho:.2}")];
        let mut vrow = vec![format!("{rho:.2}")];
        for s in &sweeps {
            mrow.push(fmt_num(s.points[i].mean_slowdown));
            vrow.push(fmt_num(s.points[i].var_slowdown));
        }
        mean_t.push_row(mrow);
        var_t.push_row(vrow);
    }
    Ok(format!("{}\n{}", mean_t.render(), var_t.render()))
}

fn replicate(args: &Args) -> Result<String, ArgError> {
    let experiment = experiment_from(args)?.threads(threads(args)?);
    let load = load(args)?;
    check_preset_clock(args, &experiment, "load", load)?;
    let specs = names::policy_list(args.get_or("policies", "lwl,sita-e,sita-u-fair"))?;
    let reps = args.get_usize("reps", 5)?;
    if reps == 0 {
        return Err(ArgError("--reps must be at least 1".to_string()));
    }
    let mut table = Table::new(
        format!("mean slowdown over {reps} replications at load {load}"),
        &["policy", "mean", "±95%"],
    );
    for spec in &specs {
        match experiment.replicate(spec, load, reps) {
            Ok(r) => table.push_row(vec![
                spec.name(),
                fmt_num(r.mean),
                fmt_num(r.half_width),
            ]),
            Err(e) => table.push_row(vec![spec.name(), format!("{e}"), "-".into()]),
        }
    }
    Ok(table.render())
}

fn cutoff(args: &Args) -> Result<String, ArgError> {
    let preset = names::workload(args.get_or("workload", "c90"))?;
    let method = names::cutoff_method(args.get_or("method", "fair"))?;
    let (hosts, load) = hosts_and_load(args)?;
    let d = &preset.size_dist;
    let lambda = load * hosts as f64 / d.mean();
    let cutoffs = dses_core::cutoffs::resolve_cutoff(d, lambda, hosts, method)
        .map_err(|e| ArgError(e.to_string()))?;
    let analysis = dses_queueing::sita::SitaAnalysis::analyze(d, lambda, &cutoffs);
    let mut out = format!(
        "{} cutoffs for {} at load {load} on {hosts} hosts:\n",
        method.label(),
        preset.name
    );
    for (i, c) in cutoffs.iter().enumerate() {
        out.push_str(&format!("  cutoff {i}: {c:.1} s\n"));
    }
    out.push_str(&format!(
        "predicted mean slowdown {}\nper-host (load fraction, rho, E[S]):\n",
        fmt_num(analysis.mean_slowdown)
    ));
    for (i, h) in analysis.hosts.iter().enumerate() {
        out.push_str(&format!(
            "  host {i}: load {:.3}  rho {:.3}  E[S] {}\n",
            h.load_fraction,
            h.rho,
            fmt_num(1.0 + h.mean_queueing_slowdown)
        ));
    }
    Ok(out)
}

fn burstiness_cmd(args: &Args) -> Result<String, ArgError> {
    let trace = match args.get("file") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
            let filter = swf::SwfFilter {
                exact_processors: args
                    .get("procs")
                    .map(|p| {
                        p.parse().map_err(|_| {
                            ArgError(format!("--procs expects an integer, got {p:?}"))
                        })
                    })
                    .transpose()?,
                ..swf::SwfFilter::default()
            };
            swf::parse_trace(&text, filter).map_err(|e| ArgError(e.to_string()))?
        }
        None => {
            // synthetic demo: bursty MMPP arrivals on the C90 preset
            let preset = names::workload(args.get_or("workload", "c90"))?;
            use dses_dist::Distribution as _;
            let rate = 2.0 * 0.7 / preset.size_dist.mean();
            dses_workload::WorkloadBuilder::new(preset.size_dist.clone())
                .jobs(args.get_usize("jobs", 50_000)?)
                .arrivals(dses_workload::Mmpp2::bursty(rate, 20.0, 50.0))
                .seed(args.get_u64("seed", 0)?)
                .build()
        }
    };
    if trace.len() < 100 {
        return Err(ArgError("trace too short for burstiness statistics".into()));
    }
    let report = dses_workload::burstiness_report(&trace, 5, 6);
    let mut out = format!(
        "arrival burstiness ({} jobs):\n  interarrival C^2     {:.3}   (Poisson: 1)\n",
        trace.len(),
        report.interarrival_scv
    );
    out.push_str("  gap autocorrelation  ");
    for (k, rho) in report.gap_autocorrelation.iter().enumerate() {
        out.push_str(&format!("lag{}={rho:+.3} ", k + 1));
    }
    out.push_str("  (Poisson: 0)\n  index of dispersion  ");
    for (w, idc) in &report.idc {
        out.push_str(&format!("IDC({w:.0}s)={idc:.2} "));
    }
    out.push_str("  (Poisson: 1)\n");
    Ok(out)
}

fn swf_cmd(args: &Args) -> Result<String, ArgError> {
    let path = args
        .get("file")
        .ok_or_else(|| ArgError("swf needs --file <path>".to_string()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let filter = swf::SwfFilter {
        exact_processors: args.get("procs").map(|p| {
            p.parse()
                .map_err(|_| ArgError(format!("--procs expects an integer, got {p:?}")))
        }).transpose()?,
        ..swf::SwfFilter::default()
    };
    let trace = swf::parse_trace(&text, filter).map_err(|e| ArgError(e.to_string()))?;
    if trace.is_empty() {
        return Err(ArgError("trace is empty after filtering".to_string()));
    }
    let (hosts, load) = hosts_and_load(args)?;
    let trace: Trace = match args.get("load") {
        Some(text) => {
            let scaled = trace
                .scale_to_load(hosts, load)
                .map_err(|e| ArgError(format!("cannot scale {path} to --load {text}: {e}")))?;
            let smallest = scaled.sizes().iter().copied().fold(f64::INFINITY, f64::min);
            let last = scaled.arrivals().last().copied().unwrap_or(0.0);
            check_clock(&format!("--load {text}"), last, smallest)?;
            scaled
        }
        None => trace,
    };
    let warmup = args.get_usize("warmup", 0)?;
    check_warmup(warmup, trace.len())?;
    let spec = names::policy(args.get_or("policy", "least-work-left"))?;
    // build the policy against the trace's own empirical distribution
    let sizes = trace.sizes();
    let emp = dses_dist::Empirical::from_values(sizes)
        .map_err(|e| ArgError(e.to_string()))?;
    let dist: std::sync::Arc<dyn Distribution> = std::sync::Arc::new(emp);
    let experiment = Experiment::new(dist)
        .hosts(hosts)
        .warmup_jobs(warmup)
        .seed(args.get_u64("seed", 0)?);
    // like a --load of 1 or more, an overloaded log has no steady state
    // to measure
    let rho = trace.system_load(hosts);
    if args.get("load").is_none() && (rho >= 1.0 || !rho.is_finite()) {
        return Err(ArgError(format!(
            "{path} has system load {} on {hosts} hosts, not below 1; --load <rho> rescales the log",
            fmt_num(rho)
        )));
    }
    let result = experiment
        .try_run_on_trace(&spec, &trace)
        .map_err(|e| ArgError(format!("{}: {e}", spec.name())))?;
    let s = trace.size_summary();
    let mut out = format!(
        "SWF trace {path}: {} jobs, mean size {}s, C^2 {:.2}, system load {}\n\n",
        trace.len(),
        fmt_num(s.mean()),
        s.scv(),
        fmt_num(rho)
    );
    out.push_str(&render_result(&format!("{} on {hosts} hosts", spec.name()), &result));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tokens(tokens: &[&str]) -> Result<String, ArgError> {
        let args = Args::parse(tokens.iter().map(|s| (*s).to_string()))?;
        run(&args)
    }

    #[test]
    fn help_lists_commands() {
        let h = help();
        for cmd in ["simulate", "analyze", "sweep", "cutoff", "swf", "workloads"] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn workloads_and_policies_render() {
        let w = run_tokens(&["workloads"]).unwrap();
        assert!(w.contains("PSC-C90"));
        let p = run_tokens(&["policies"]).unwrap();
        assert!(p.contains("sita-u-fair"));
    }

    #[test]
    fn simulate_small_run() {
        let out = run_tokens(&[
            "simulate", "--policy", "lwl", "--jobs", "3000", "--warmup", "100", "--load", "0.5",
        ])
        .unwrap();
        assert!(out.contains("mean slowdown"));
        assert!(out.contains("host 0"));
    }

    #[test]
    fn simulate_with_percentiles_and_fairness() {
        let out = run_tokens(&[
            "simulate", "--policy", "fair", "--jobs", "4000", "--load", "0.6", "--fairness",
            "--percentiles",
        ])
        .unwrap();
        assert!(out.contains("percentiles"));
        assert!(out.contains("size-band"));
        assert!(out.contains("class slowdowns"));
    }

    #[test]
    fn analyze_prints_cutoffs() {
        let out = run_tokens(&["analyze", "--policy", "fair", "--load", "0.7"]).unwrap();
        assert!(out.contains("cutoffs"));
        assert!(out.contains("load on host 0"));
    }

    #[test]
    fn sweep_renders_tables() {
        let out = run_tokens(&[
            "sweep", "--policies", "lwl,sita-e", "--loads", "0.4,0.6", "--jobs", "2000",
        ])
        .unwrap();
        assert!(out.contains("mean slowdown"));
        assert!(out.contains("Least-Work-Left"));
        assert!(out.contains("0.60"));
    }

    #[test]
    fn cutoff_solves() {
        let out = run_tokens(&["cutoff", "--method", "fair", "--load", "0.6"]).unwrap();
        assert!(out.contains("cutoff 0"));
        assert!(out.contains("per-host"));
    }

    #[test]
    fn swf_round_trip_via_tempfile() {
        let preset = dses_workload::psc_c90();
        let trace = preset.trace(500, 0.5, 2, 1);
        let text = swf::write_swf(&trace, 8);
        let path = std::env::temp_dir().join("dses_cli_test.swf");
        std::fs::write(&path, text).unwrap();
        let out = run_tokens(&[
            "swf",
            "--file",
            path.to_str().unwrap(),
            "--policy",
            "lwl",
            "--load",
            "0.5",
        ])
        .unwrap();
        assert!(out.contains("SWF trace"));
        assert!(out.contains("mean slowdown"));
    }

    #[test]
    fn bad_inputs_are_reported_not_panicked() {
        assert!(run_tokens(&["simulate", "--load", "1.5"]).is_err());
        assert!(run_tokens(&["simulate", "--policy", "nope"]).is_err());
        assert!(run_tokens(&["frobnicate"]).is_err());
        assert!(run_tokens(&["swf"]).is_err());
        // every --loads value is checked like --load, and a range's size
        // is known before it is built
        for loads in ["0", "-0.5", "inf", "0.5,nan", "0:0.5:0.25", "1.5", "0.3,1.5"] {
            assert_rejected(&["sweep", "--loads", loads], "--loads must be in (0,1)");
        }
        assert_rejected(&["sweep", "--loads", "0.1:0.3:1e-300"], "more than 1000 points");
        for slo in ["inf", "-inf", "nan", "0.5"] {
            assert_rejected(
                &["simulate", "--slo", slo, "--jobs", "2000", "--warmup", "0"],
                "--slo must be a finite slowdown of at least 1",
            );
        }
        // SWF logs whose second line holds a time no simulation can use:
        // a non-finite run or submit time, a run time whose reciprocal
        // overflows (no slowdown can be computed), run times summing past
        // f64, a run time whose square is past f64 (no C² can be
        // computed), or a run time so small beside the total that a
        // slowdown can overflow
        let record = |submit: &str, run: &str| {
            format!("1 {submit} 0 {run} 8 -1 -1 8 120 -1 1 1 1 -1 1 -1 -1 -1\n")
        };
        let logs = [
            ("100", record("10", "inf"), "field 3"),
            ("100", record("10", "1e-310"), "field 3 (1e-310)"),
            ("100", record("10", "1e400"), "field 3"),
            ("100", record("inf", "50"), "field 1"),
            ("100", record("10", "nan"), "field 3"),
            ("1e308", record("10", "1e308"), "total run time"),
            (
                "1",
                record("10", "1e200"),
                "field 3 (1e200) overflows the sum of the kept run times' squares",
            ),
            (
                "1",
                record("10", "1e160"),
                "field 3 (1e160) overflows the sum of the kept run times' squares",
            ),
            (
                "1e10",
                record("1", "1e-300"),
                "field 3 (1e-300) is so small beside the kept run times' total",
            ),
        ];
        for (i, (first_run, second, names)) in logs.iter().enumerate() {
            let path = std::env::temp_dir().join(format!("dses_cli_bad_swf_{i}.swf"));
            std::fs::write(&path, record("0", first_run) + second).unwrap();
            for cmd in ["swf", "burstiness"] {
                let tokens = [cmd, "--file", path.to_str().unwrap()];
                assert_rejected(&tokens, "line 2");
                assert_rejected(&tokens, names);
            }
        }
        // a valid log that overloads its hosts: three jobs of 100 s each
        // submitted a second apart, system load 50 on two hosts, is
        // rejected unless --load rescales it
        let path = std::env::temp_dir().join("dses_cli_overloaded.swf");
        std::fs::write(
            &path,
            record("0", "100") + &record("1", "100") + &record("2", "100"),
        )
        .unwrap();
        let path = path.to_str().unwrap();
        assert_rejected(
            &["swf", "--file", path, "--hosts", "2", "--warmup", "0"],
            "system load 50.000 on 2 hosts",
        );
        assert_rejected(
            &["swf", "--file", path, "--warmup", "0"],
            "--load <rho> rescales",
        );
        assert!(run_tokens(&["swf", "--file", path, "--warmup", "0", "--load", "0.5"]).is_ok());
    }

    #[test]
    fn a_statistic_over_no_jobs_prints_a_dash() {
        // five short jobs: the long class stays empty
        let out = run_tokens(&[
            "simulate", "--policy", "sita-u-fair", "--jobs", "5", "--warmup", "0", "--fairness",
        ])
        .unwrap();
        assert!(out.contains("  long -\n"), "{out}");
        assert!(
            out.contains("long class E[S] = -, unfairness = -\n"),
            "{out}"
        );
        assert!(!out.contains("NaN"), "{out}");
    }

    /// Write `jobs` C90 jobs as an SWF log under a per-test file name.
    fn swf_file(name: &str, jobs: usize) -> String {
        let trace = dses_workload::psc_c90().trace(jobs, 0.5, 2, 1);
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, swf::write_swf(&trace, 8)).unwrap();
        path.to_str().unwrap().to_string()
    }

    fn assert_rejected(tokens: &[&str], names: &str) {
        match run_tokens(tokens) {
            Err(e) => assert!(e.0.contains(names), "{tokens:?}: {e}"),
            Ok(out) => panic!("{tokens:?} was accepted:\n{out}"),
        }
    }

    #[test]
    fn zero_hosts_is_rejected_by_every_command() {
        let path = swf_file("dses_cli_zero_hosts.swf", 200);
        for cmd in ["simulate", "sweep", "replicate"] {
            assert_rejected(
                &[cmd, "--hosts", "0", "--jobs", "500", "--warmup", "0"],
                "--hosts",
            );
        }
        // analyze and cutoff simulate nothing, so they read no --jobs
        for cmd in ["analyze", "cutoff"] {
            assert_rejected(&[cmd, "--hosts", "0"], "--hosts");
        }
        assert_rejected(&["swf", "--file", &path, "--hosts", "0"], "--hosts");
    }

    #[test]
    fn a_load_too_small_for_the_arrival_clock_is_rejected() {
        // at 1e-300 the last arrival overflows, and at 1e-20 the arrival
        // clock steps by far more than a job's size, so a slowdown read 0
        // (or below 1 on an SWF log); the preset check runs before any
        // trace is built
        for load in ["1e-300", "1e-20"] {
            let run = ["--jobs", "2000", "--warmup", "0"];
            assert_rejected(
                &[&["simulate", "--load", load][..], &run].concat(),
                "--load",
            );
            assert_rejected(
                &[&["replicate", "--load", load, "--reps", "2"][..], &run].concat(),
                "--load",
            );
            let loads = format!("{load},0.5");
            assert_rejected(
                &[&["sweep", "--loads", &loads][..], &run].concat(),
                "--loads",
            );
        }
        let path = swf_file("dses_cli_tiny_load_clock.swf", 200);
        assert_rejected(
            &[
                "swf", "--file", &path, "--hosts", "2", "--policy", "lwl", "--load", "1e-20",
            ],
            "--load 1e-20 puts the last arrival near",
        );
        // the bound: a 60 s job keeps 1e-4 of its size up to a clock
        // step of 2^-8 s, which holds below 2^45 s
        assert_eq!(
            check_clock("--load", 2f64.powi(45).next_down(), 60.0),
            Ok(())
        );
        let e = check_clock("--load", 2f64.powi(45), 60.0).unwrap_err().0;
        assert!(e.contains("steps by 0.008 s"), "{e}");
    }

    #[test]
    fn threads_above_the_ceiling_are_rejected() {
        // the parser alone: no command runs, so no pool thread starts
        let threads_of =
            |n: &str| threads(&Args::parse(["sweep", "--threads", n].map(String::from)).unwrap());
        assert_eq!(threads_of("0"), Ok(0));
        assert_eq!(threads_of("8"), Ok(8));
        assert_eq!(threads_of("256"), Ok(256));
        for n in ["257", "5000"] {
            let e = threads_of(n).unwrap_err().0;
            assert!(e.contains("--threads must be at most 256"), "{e}");
        }
    }

    #[test]
    fn out_of_range_loads_are_rejected_by_cutoff_and_swf() {
        let path = swf_file("dses_cli_bad_load.swf", 200);
        for load in ["0", "-1", "nan", "1.5"] {
            assert_rejected(&["swf", "--file", &path, "--load", load], "--load");
            assert_rejected(
                &["cutoff", "--method", "equal-load", "--load", load],
                "--load",
            );
        }
    }

    #[test]
    fn swf_summary_prints_huge_sizes_as_readable_numbers() {
        // valid logs: 1e150² is finite, so C² can be computed
        let log = |name: &str, submits: [&str; 3]| {
            let text: String = submits
                .iter()
                .zip(["1e150", "1", "5"])
                .map(|(submit, run)| {
                    format!("1 {submit} 0 {run} 8 -1 -1 8 120 -1 1 1 1 -1 1 -1 -1 -1\n")
                })
                .collect();
            let path = std::env::temp_dir().join(name);
            std::fs::write(&path, text).unwrap();
            path.to_str().unwrap().to_string()
        };
        // submitted 10 s apart, the log overloads its hosts, and the
        // error prints its load in exponent notation
        let packed = log("dses_cli_huge_sizes.swf", ["0", "10", "20"]);
        assert_rejected(
            &["swf", "--file", &packed, "--warmup", "0"],
            "system load 1.667e148",
        );
        let spread = log("dses_cli_huge_sizes_spread.swf", ["0", "1e151", "2e151"]);
        let out = run_tokens(&["swf", "--file", &spread, "--warmup", "0"]).unwrap();
        let summary = out.lines().next().unwrap();
        assert!(
            summary.ends_with("3 jobs, mean size 3.333e149s, C^2 2.00, system load 0.017"),
            "{summary}"
        );
    }

    #[test]
    fn swf_rejects_rescaling_a_trace_with_zero_system_load() {
        let path = swf_file("dses_cli_one_job.swf", 1);
        assert_rejected(
            &["swf", "--file", &path, "--load", "0.6"],
            "zero system load",
        );
    }

    #[test]
    fn sita_u_rules_below_two_hosts_are_errors() {
        assert_rejected(
            &[
                "simulate",
                "--policy",
                "sita-u-opt",
                "--hosts",
                "1",
                "--jobs",
                "2000",
            ],
            "got 1",
        );
        assert_rejected(
            &["analyze", "--policy", "sita-u-fair", "--hosts", "1"],
            "got 1",
        );
        assert_rejected(&["cutoff", "--method", "fair", "--hosts", "1"], "got 1");
        let out = run_tokens(&["cutoff", "--method", "equal-load", "--hosts", "1"]).unwrap();
        assert!(out.contains("host 0"), "{out}");
    }

    #[test]
    fn swf_rejects_a_load_whose_rescaled_arrivals_overflow() {
        // three jobs over 10^8 s: --load 1e-310 needs a ~10^304 factor,
        // which pushes the last arrival past f64::MAX
        let trace = Trace::new(vec![
            dses_workload::Job::new(0, 0.0, 100.0),
            dses_workload::Job::new(1, 5e7, 100.0),
            dses_workload::Job::new(2, 1e8, 100.0),
        ]);
        let path = std::env::temp_dir().join("dses_cli_tiny_load.swf");
        std::fs::write(&path, swf::write_swf(&trace, 8)).unwrap();
        let path = path.to_str().unwrap();
        assert_rejected(&["swf", "--file", path, "--load", "1e-310"], "overflows");
        let out = run_tokens(&["swf", "--file", path, "--load", "0.5"]).unwrap();
        assert!(out.contains("3 jobs"), "{out}");
    }

    #[test]
    fn swf_rejects_equal_load_cutoffs_that_a_runtime_cap_collapses() {
        // every 10th job runs into a 12-hour wall-clock cap, so that one
        // size carries ~73% of the load and two equal-load cutoffs land
        // on it
        let trace = Trace::new(
            (0..1_000u64)
                .map(|i| {
                    let size = if i % 10 == 9 { 43_200.0 } else { (60 + i * 37 % 3_541) as f64 };
                    dses_workload::Job::new(i, 100.0 * i as f64, size)
                })
                .collect(),
        );
        let path = std::env::temp_dir().join("dses_cli_runtime_cap.swf");
        std::fs::write(&path, swf::write_swf(&trace, 8)).unwrap();
        let path = path.to_str().unwrap();
        for hosts in ["4", "16"] {
            for policy in ["sita-e", "sita-u-opt"] {
                assert_rejected(
                    &["swf", "--file", path, "--load", "0.7", "--policy", policy, "--hosts", hosts],
                    "size 43200.000 carry",
                );
            }
            let out = run_tokens(&[
                "swf", "--file", path, "--load", "0.7", "--policy", "sita-u-fair", "--hosts", hosts,
            ])
            .unwrap();
            assert!(out.contains("1000 jobs"), "{out}");
        }
    }

    #[test]
    fn unknown_flags_are_rejected_naming_the_flag_and_the_command() {
        for command in COMMANDS {
            for name in command.names {
                for flag in ["--bogus", "--polcy"] {
                    match run_tokens(&[name, flag, "lwl"]) {
                        Err(e) => assert!(
                            e.0.contains(flag) && e.0.contains(&format!("dses {name}")),
                            "{name} {flag}: {e}"
                        ),
                        Ok(_) => panic!("`dses {name} {flag} lwl` was accepted"),
                    }
                }
            }
        }
        // flags another command reads are unknown here too, and so is
        // the removed collector-tier flag
        assert_rejected(&["sweep", "--load", "0.5"], "--load");
        for command in ["simulate", "sweep", "replicate"] {
            assert_rejected(&[command, "--metrics", "means"], "unknown flag --metrics");
        }
        assert_rejected(&["simulate", "--threads", "2"], "--threads");
        assert_rejected(&["analyze", "--jobs", "100"], "--jobs");
        // a value flag without its value, a switch with one
        assert_rejected(&["simulate", "--policy"], "needs a value");
        assert_rejected(&["simulate", "--fairness", "12"], "takes no value");
    }

    #[test]
    fn help_flag_anywhere_prints_the_usage() {
        for tokens in [&["--help"][..], &["-h"], &["simulate", "--help"], &["swf", "--file", "x", "-h"]] {
            assert_eq!(run_tokens(tokens).unwrap(), help(), "{tokens:?}");
        }
    }

    #[test]
    fn help_documents_exactly_the_flags_each_command_reads() {
        let text = help();
        let body = &text[text.find("COMMANDS").unwrap()..text.find("EXAMPLES").unwrap()];
        // a command's section runs from its two-space-indented line to
        // the next one; every `--flag` mentioned in it is documented
        let mut sections: Vec<(String, Vec<String>)> = Vec::new();
        for line in body.lines().skip(1) {
            if let Some(name) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                let name = name.split_whitespace().next().unwrap().to_string();
                sections.push((name, Vec::new()));
            }
            let flags = &mut sections.last_mut().unwrap().1;
            for (i, _) in line.match_indices("--") {
                let flag: String = line[i + 2..]
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase())
                    .collect();
                flags.push(flag);
            }
        }
        assert_eq!(sections.len(), COMMANDS.len(), "{sections:?}");
        for command in COMMANDS {
            let name = command.names[0];
            let (_, documented) = sections
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("help has no section for {name}"));
            let mut documented = documented.clone();
            documented.sort();
            documented.dedup();
            let mut read: Vec<String> = command
                .values
                .iter()
                .chain(command.switches)
                .map(|f| (*f).to_string())
                .collect();
            read.sort();
            assert_eq!(documented, read, "dses help for `{name}`");
        }
    }

    #[test]
    fn slo_below_one_is_rejected() {
        for slo in ["0.5", "nan"] {
            assert_rejected(&["simulate", "--jobs", "2000", "--slo", slo], "--slo");
        }
    }

    #[test]
    fn warmup_that_discards_every_job_is_rejected() {
        for cmd in ["simulate", "sweep", "replicate"] {
            assert_rejected(&[cmd, "--warmup", "5000", "--jobs", "100"], "--warmup 5000");
            assert_rejected(&[cmd, "--warmup", "100", "--jobs", "100"], "out of 100");
        }
        let path = swf_file("dses_cli_warmup.swf", 50);
        assert_rejected(&["swf", "--file", &path, "--warmup", "50"], "out of 50");
    }
}

#[cfg(test)]
mod burstiness_and_slo_tests {
    use super::*;

    fn run_tokens(tokens: &[&str]) -> Result<String, ArgError> {
        let args = Args::parse(tokens.iter().map(|s| (*s).to_string()))?;
        run(&args)
    }

    #[test]
    fn burstiness_synthetic_demo_reports_all_axes() {
        let out = run_tokens(&["burstiness", "--jobs", "20000"]).unwrap();
        assert!(out.contains("interarrival C^2"));
        assert!(out.contains("lag1="));
        assert!(out.contains("IDC("));
    }

    #[test]
    fn burstiness_reads_swf_files() {
        let preset = dses_workload::psc_c90();
        let trace = preset.trace(2_000, 0.5, 2, 4);
        let text = swf::write_swf(&trace, 8);
        let path = std::env::temp_dir().join("dses_cli_burst.swf");
        std::fs::write(&path, text).unwrap();
        let out = run_tokens(&["burstiness", "--file", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("2000 jobs"));
    }

    #[test]
    fn simulate_reports_slo_when_asked() {
        let out = run_tokens(&[
            "simulate", "--policy", "lwl", "--jobs", "3000", "--load", "0.7", "--slo", "10",
        ])
        .unwrap();
        assert!(out.contains("SLO violations"), "{out}");
    }
}

#[cfg(test)]
mod replicate_tests {
    use super::*;

    fn run_tokens(tokens: &[&str]) -> Result<String, ArgError> {
        let args = Args::parse(tokens.iter().map(|s| (*s).to_string()))?;
        run(&args)
    }

    #[test]
    fn replicate_renders_intervals() {
        let out = run_tokens(&[
            "replicate", "--policies", "lwl", "--reps", "3", "--jobs", "2000", "--load", "0.5",
        ])
        .unwrap();
        assert!(out.contains("3 replications"));
        assert!(out.contains("Least-Work-Left"));
    }

    #[test]
    fn replicate_rejects_zero_reps() {
        assert!(run_tokens(&["replicate", "--reps", "0"]).is_err());
    }
}
