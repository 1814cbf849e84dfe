//! The dses benchmark: end-to-end metrics per workload, and a traced run
//! that splits each workload's time across the library's layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_h2 --seed 1997 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` sets the workload up several times (median `setup_s`),
//! then repeats it for `--seconds` and reports medians of `wall_s`,
//! `cpu_s` and `peak_heap_mb`. `--trace 1` alternates untraced and
//! traced iterations and reports the per-layer metrics. Either way every
//! result is digested and checked against the first iteration, the
//! committed references and (traced) the untraced run. A human-readable
//! report goes to stderr; the last stdout line is one JSON object.
//! See `README.md` beside this file.

mod alloc;
mod counted;
mod digest;
mod spans;
mod workloads;

use spans::{Kernel, Layer, Totals};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::{Calibration, Op, Tier, TraceCx, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The `wall_s` bound in `BENCHMARK.json`; a traced run whose layers
/// miss the untraced wall time by more is flagged unreconciled.
const RECONCILE_BOUND: f64 = 0.25;
/// Most pool workers a run uses (and never more than the machine has).
const MAX_WORKERS: usize = 2;
/// Digests recorded at the commit that defined the benchmark.
const REFERENCES: &str = include_str!("../references.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
    print_references: bool,
}

const USAGE: &str = "usage: dses-perfbench --workload <paper_h2|wide_full|analytic> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--print-references]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1997,
        seconds: 20.0,
        trace: false,
        workers: dses_sim::available_workers().min(MAX_WORKERS),
        print_references: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-references" {
            a.print_references = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v:?}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Machine fingerprint stamped on every result set.
fn fingerprint(workers: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let head = std::fs::read_to_string(".git/HEAD").ok().map(|h| {
        let h = h.trim();
        match h.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}"))
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| h.to_string()),
            None => h.to_string(),
        }
    });
    format!(
        "available_parallelism={} workers={workers} cpu=\"{cpu}\" rustc=\"{rustc}\" git_head={}",
        dses_sim::available_workers(),
        head.as_deref().unwrap_or("unknown (not a git checkout)")
    )
}

/// Process CPU time (user + system, all threads), seconds.
#[cfg(target_os = "linux")]
fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// `(q1, median, q3)`, interpolated as Python's
/// `statistics.quantiles(method="exclusive")` does (the median for fewer
/// than two values).
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let q = |p: f64| {
        let m = p * (n + 1) as f64;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let d = (m - j as f64).clamp(0.0, 1.0);
        s[j - 1] + (s[j] - s[j - 1]) * d
    };
    (q(0.25), q(0.5), q(0.75))
}

/// Reference digests keyed by `(workload, seed or "any", label)`.
fn references() -> HashMap<(String, String, String), u64> {
    REFERENCES
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let d = u64::from_str_radix(f.get(3)?, 16).ok()?;
            Some(((f[0].to_string(), f[1].to_string(), f[2].to_string()), d))
        })
        .collect()
}

/// Counts the checks of one run and keeps the first few failures.
struct Checker {
    workload: String,
    seed: String,
    refs: HashMap<(String, String, String), u64>,
    first: Option<Vec<Op>>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn new(workload: &str, seed: u64) -> Self {
        Self {
            workload: workload.into(),
            seed: seed.to_string(),
            refs: references(),
            first: None,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    /// Check one iteration's results (`route` names where they came from).
    fn check(&mut self, route: &str, ops: Vec<Op>) {
        let first = self.first.get_or_insert_with(|| ops.clone()).clone();
        for (i, op) in ops.iter().enumerate() {
            self.attempted += 1;
            let key = |s: &str| (self.workload.clone(), s.to_string(), op.label.clone());
            let reference = self
                .refs
                .get(&key(&self.seed))
                .or_else(|| op.seed_free.then(|| self.refs.get(&key("any"))).flatten())
                .copied();
            if !op.ok {
                self.fail(format!(
                    "{route} {}: error, NaN or failed sanity check",
                    op.label
                ));
            } else if first.get(i).map(|f| (&f.label, f.digest)) != Some((&op.label, op.digest)) {
                self.fail(format!(
                    "{route} {}: bits differ from the first iteration",
                    op.label
                ));
            } else if reference.is_some_and(|r| r != op.digest) {
                self.fail(format!(
                    "{route} {}: bits differ from the reference digest",
                    op.label
                ));
            }
        }
    }
}

/// One timed untraced iteration: (wall s, cpu s, peak heap bytes, ops).
fn timed_run(w: &dyn Workload) -> (f64, f64, f64, Vec<Op>) {
    alloc::reset_peak();
    let c0 = cpu_s();
    let t0 = Instant::now();
    let ops = w.run();
    let wall = t0.elapsed().as_secs_f64();
    (wall, cpu_s() - c0, alloc::peak_bytes() as f64, ops)
}

/// One traced iteration: (traced wall s, per-layer totals, kernel calls, ops).
fn traced_run(
    w: &dyn Workload,
    pool: &workloads::SlotPool,
) -> (
    f64,
    BTreeMap<Layer, Totals>,
    Vec<workloads::KernelCall>,
    Vec<Op>,
) {
    let cx = Arc::new(TraceCx::new(Arc::clone(pool)));
    let t0 = Instant::now();
    let ops = cx.tr.span(Layer::Root, None, 0, |root| {
        assert_eq!(root, cx.root, "the root span must be the tracer's first");
        w.run_traced(&cx)
    });
    let wall = t0.elapsed().as_secs_f64();
    let totals = spans::analyze(&cx.tr.finish());
    let calls = std::mem::take(&mut *cx.calls.lock().expect("call log poisoned"));
    (wall, totals, calls, ops)
}

type Metric = (&'static str, &'static str, f64);

fn plain_mode(a: &Args, chk: &mut Checker) -> (Vec<Metric>, String) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut work = None;
    for _ in 0..SETUP_REPS {
        drop(work.take());
        let t = Instant::now();
        let w =
            workloads::setup(&a.workload, a.seed, a.workers).expect("name checked by parse_args");
        setups.push(t.elapsed().as_secs_f64());
        work = Some(w);
    }
    let w = work.expect("SETUP_REPS > 0");
    let (mut walls, mut cpus, mut heaps) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < a.seconds {
        let (wall, cpu, heap, ops) = timed_run(w.as_ref());
        walls.push(wall);
        cpus.push(cpu);
        heaps.push(heap / 1e6);
        chk.check("untraced", ops);
    }
    let row = |name: &str, unit: &str, v: &[f64]| {
        let (q1, m, q3) = quartiles(v);
        format!(
            "  {name:<14} median {m:>12.6} {unit:<3} (q1 {q1:.6}, q3 {q3:.6}, n={})\n",
            v.len()
        )
    };
    let report = [
        row("wall_s", "s", &walls),
        row("cpu_s", "s", &cpus),
        row("setup_s", "s", &setups),
        row("peak_heap_mb", "MB", &heaps),
    ]
    .concat();
    let metrics = vec![
        ("wall_s", "s", median(&walls)),
        ("cpu_s", "s", median(&cpus)),
        ("setup_s", "s", median(&setups)),
        ("peak_heap_mb", "MB", median(&heaps)),
    ];
    (metrics, report)
}

fn trace_mode(a: &Args, chk: &mut Checker) -> (Vec<Metric>, String) {
    let w = workloads::setup(&a.workload, a.seed, a.workers).expect("name checked by parse_args");
    let pool = Arc::new(Mutex::new(Vec::new()));
    if w.simulates() {
        // grow the simulation buffers once, so kernel spans see the
        // steady state
        let (_, _, _, ops) = traced_run(w.as_ref(), &pool);
        chk.check("traced", ops);
    }
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last_calls = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < a.seconds {
        let (wall, _, _, ops) = timed_run(w.as_ref());
        untraced.push(wall);
        chk.check("untraced", ops);
        let (wall, totals, calls, ops) = traced_run(w.as_ref(), &pool);
        traced.push((wall, totals));
        last_calls = calls;
        chk.check("traced", ops);
    }
    let counts = |t: &BTreeMap<Layer, Totals>| -> Vec<_> {
        t.iter()
            .map(|(l, x)| (*l, x.spans, x.units, x.counts.samples, x.counts.queries))
            .collect()
    };
    if traced
        .iter()
        .any(|(_, t)| counts(t) != counts(&traced[0].1))
    {
        chk.fail("per-layer counts differ between traced iterations".into());
    }
    let cal = workloads::calibrate(&last_calls);
    for _ in 0..cal.mismatches {
        chk.fail("collector replay did not reproduce a kernel result".into());
    }
    let u = median(&untraced);
    let metrics = layer_metrics(&traced, u, &cal, a.workers);
    let residual = metrics
        .iter()
        .find(|m| m.0 == "trace.residual_share")
        .map_or(0.0, |m| m.2);
    let mut report = String::new();
    for (name, unit, v) in &metrics {
        let na = if name.starts_with("par.") && a.workers == 1 {
            "  (not measurable: 1 worker)"
        } else {
            ""
        };
        report.push_str(&format!("  {name:<28} {v:>16.6} {unit}{na}\n"));
    }
    report.push_str(&format!(
        "  untraced wall median {u:.6} s over {} runs; layers {}\n",
        untraced.len(),
        if residual.abs() <= RECONCILE_BOUND {
            format!("reconcile within {RECONCILE_BOUND}")
        } else {
            format!("UNRECONCILED: residual {residual:.3} exceeds {RECONCILE_BOUND}")
        }
    ));
    (metrics, report)
}

/// The per-layer metrics: times are medians over the traced iterations;
/// counts repeat exactly, so any iteration gives them.
fn layer_metrics(
    traced: &[(f64, BTreeMap<Layer, Totals>)],
    untraced_wall_s: f64,
    cal: &Calibration,
    workers: usize,
) -> Vec<Metric> {
    let zero = Totals::default();
    let per_iter = |f: &dyn Fn(f64, &BTreeMap<Layer, Totals>) -> f64| {
        median(&traced.iter().map(|(w, t)| f(*w, t)).collect::<Vec<_>>())
    };
    let get = |t: &BTreeMap<Layer, Totals>, l: Layer| t.get(&l).copied().unwrap_or(zero);
    let ms = |l: Layer| per_iter(&|_, t| get(t, l).busy_ns / 1e6);
    let last = &traced[traced.len() - 1].1;
    let sum_counts = |f: &dyn Fn(&Totals) -> u64| last.values().map(f).sum::<u64>() as f64;
    let kernels = |f: &dyn Fn(&Totals) -> u64| {
        last.iter()
            .filter(|(l, _)| matches!(l, Layer::Kernel(k) if *k != Kernel::Event))
            .map(|(_, t)| f(t))
            .sum::<u64>() as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let kernel_ns = |k: Kernel| {
        cal.kernel_self
            .get(&k)
            .map_or(0.0, |&(jobs, ns)| ratio(ns as f64, jobs as f64))
    };
    let tier_ns = |t: Tier| {
        cal.record
            .get(&t)
            .map_or(0.0, |&(n, ns)| ratio(ns as f64, n as f64))
    };
    let record_ns: u64 = cal.record.values().map(|r| r.1).sum();
    let trace_t = get(last, Layer::Trace);
    let solves = (get(last, Layer::Build).units + get(last, Layer::Cutoff).spans) as f64;
    let solve_queries =
        (get(last, Layer::Build).counts.queries + get(last, Layer::Cutoff).counts.queries) as f64;
    vec![
        ("workload.trace_ms", "ms", ms(Layer::Trace)),
        (
            "workload.jobs_per_s",
            "1/s",
            per_iter(&|_, t| {
                ratio(
                    get(t, Layer::Trace).units as f64,
                    get(t, Layer::Trace).busy_ns / 1e9,
                )
            }),
        ),
        ("workload.traces", "count", trace_t.spans as f64),
        ("workload.trace_mb", "MB", trace_t.counts.bytes as f64 / 1e6),
        ("dist.samples", "count", sum_counts(&|t| t.counts.samples)),
        ("spec.build_ms", "ms", ms(Layer::Build)),
        ("cutoff.solve_ms", "ms", ms(Layer::Cutoff)),
        ("cutoff.solves", "count", solves),
        ("dist.queries", "count", sum_counts(&|t| t.counts.queries)),
        (
            "cutoff.queries_per_solve",
            "count",
            ratio(solve_queries, solves),
        ),
        ("transform.quantile_ms", "ms", ms(Layer::Quantile)),
        (
            "transform.quantiles",
            "count",
            get(last, Layer::Quantile).spans as f64,
        ),
        ("analyze.ms", "ms", ms(Layer::Analyze)),
        ("fast.static_ns_per_job", "ns", kernel_ns(Kernel::Static)),
        (
            "fast.work_left_ns_per_job",
            "ns",
            kernel_ns(Kernel::WorkLeft),
        ),
        (
            "fast.queue_len_ns_per_job",
            "ns",
            kernel_ns(Kernel::QueueLen),
        ),
        ("fast.opaque_ns_per_job", "ns", kernel_ns(Kernel::Opaque)),
        ("fast.fused_ns_per_job", "ns", kernel_ns(Kernel::Fused)),
        ("event.ns_per_job", "ns", kernel_ns(Kernel::Event)),
        ("fast.jobs", "count", kernels(&|t| t.units)),
        ("fast.steady_allocs", "count", kernels(&|t| t.counts.allocs)),
        ("metrics.means_ns_per_job", "ns", tier_ns(Tier::Means)),
        (
            "metrics.means_host_ns_per_job",
            "ns",
            tier_ns(Tier::MeansHost),
        ),
        ("metrics.full_ns_per_job", "ns", tier_ns(Tier::Full)),
        (
            "metrics.finish_us",
            "us",
            ratio(cal.finish_ns as f64 / 1e3, cal.finishes as f64),
        ),
        (
            "metrics.warmup_share",
            "share",
            ratio(
                cal.reset_ns as f64,
                (cal.reset_ns + record_ns + cal.finish_ns) as f64,
            ),
        ),
        (
            "par.busy_share",
            "share",
            per_iter(&|_, t| {
                ratio(
                    get(t, Layer::Task).dur_ns,
                    get(t, Layer::Par).dur_ns * workers as f64,
                )
            }),
        ),
        ("par.tasks", "count", get(last, Layer::Task).spans as f64),
        (
            "trace.residual_share",
            "share",
            per_iter(&|_, t| spans::residual_share(untraced_wall_s, t)),
        ),
        (
            "trace.overhead_share",
            "share",
            per_iter(&|w, _| w / untraced_wall_s - 1.0),
        ),
    ]
}

fn json(chk: &Checker, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            // JSON has no NaN or infinity; a metric that could not be
            // measured reads 0 and the stderr report says why
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        chk.failed == 0,
        chk.attempted,
        chk.failed,
        body.join(", ")
    )
}

fn main() {
    let a = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let fp = fingerprint(a.workers);
    if a.print_references {
        let w =
            workloads::setup(&a.workload, a.seed, a.workers).expect("name checked by parse_args");
        println!("# {fp}");
        for op in w.run() {
            let seed = if op.seed_free {
                "any".to_string()
            } else {
                a.seed.to_string()
            };
            println!("{} {seed} {} {:016x}", a.workload, op.label, op.digest);
        }
        return;
    }
    let mut chk = Checker::new(&a.workload, a.seed);
    let (metrics, report) = if a.trace {
        trace_mode(&a, &mut chk)
    } else {
        plain_mode(&a, &mut chk)
    };
    eprintln!(
        "dses-perfbench {} seed={} trace={}",
        a.workload,
        a.seed,
        u8::from(a.trace)
    );
    eprintln!("machine: {fp}");
    eprint!("{report}");
    eprintln!(
        "checks: {} attempted, {} failed (failed_share {:.6})",
        chk.attempted,
        chk.failed,
        chk.failed as f64 / chk.attempted.max(1) as f64
    );
    for n in &chk.notes {
        eprintln!("  FAILED {n}");
    }
    println!("{}", json(&chk, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn checker_counts_digest_and_reference_mismatches() {
        let op = |label: &str, digest: u64| Op {
            label: label.into(),
            digest,
            ok: true,
            seed_free: true,
        };
        let mut c = Checker::new("analytic", 1);
        c.refs
            .insert(("analytic".into(), "any".into(), "x".into()), 7);
        c.check("untraced", vec![op("x", 7), op("y", 1)]);
        assert_eq!((c.attempted, c.failed), (2, 0));
        c.check("traced", vec![op("x", 7), op("y", 2)]);
        assert_eq!((c.attempted, c.failed), (4, 1), "y changed between routes");
        let mut c = Checker::new("analytic", 1);
        c.refs
            .insert(("analytic".into(), "any".into(), "x".into()), 8);
        c.check("untraced", vec![op("x", 7)]);
        assert_eq!(c.failed, 1, "x differs from its reference");
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut c = Checker::new("paper_h2", 1);
        c.attempted = 3;
        let line = json(&c, &[("wall_s", "s", 1.25), ("x", "count", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
