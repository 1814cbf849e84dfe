//! The full collector's tail — fairness bins, P² percentiles, the SLO
//! count and the class split — bit for bit.
//!
//! `LogHistogram` bins a key by counting the size edges at or below it
//! (edges built once from the log10 rule), and `P2Quantile::push` finds
//! its cell without branches. These tests hold both to the code they
//! replace: the log10 rule on real job sizes and on every key near an
//! edge, a copy of the branching P² push on real and adversarial
//! slowdown streams, and whole-`SimResult` digests of
//! `Experiment::try_run` under the full collector, recorded before
//! either change. No exhibit prints a fairness profile, so these digests
//! (and perfbench's `wide_full`) are the fairness profile's bit gate.
//!
//! A run long enough hands its percentile pushes to a pool helper, one
//! chunk at a time. The last tests hold piped runs to the same records
//! pushed inline, on a free helper and with every helper held busy,
//! which forces every chunk back onto the recording thread.

use dses_core::cutoffs::CutoffMethod;
use dses_core::spec::BuiltPolicy;
use dses_core::{Experiment, PolicySpec};
use dses_dist::{Deterministic, Distribution, LogHistogram, Moments, P2Quantile, Pareto, Uniform};
use dses_sim::metrics::Collector;
use dses_sim::{
    par_map_indexed, simulate_dispatch, JobRecord, MetricsConfig, SimResult, WorkerPool,
};
use dses_workload::{ctc_sp2, psc_c90, psc_j90, WorkloadPreset};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The fairness range `Experiment` gives a preset:
/// `[max(lo, 1e-3), 1.01·hi)`, with 1e9 for an unbounded top.
fn preset_range(p: &WorkloadPreset) -> (f64, f64) {
    let (lo, hi) = p.size_dist.support();
    let hi = if hi.is_finite() { hi * 1.01 } else { 1.0e9 };
    (lo.max(1e-3), hi)
}

/// The log10 rule the edges are built from, as `bin_index` evaluated it
/// per key before there were edges (`log_lo = lo.log10()`, `log_hi =
/// hi.log10()`).
fn log10_bin(log_lo: f64, log_hi: f64, bins: usize, key: f64) -> usize {
    if key <= 0.0 {
        return 0;
    }
    let pos = (key.log10() - log_lo) / (log_hi - log_lo);
    let idx = (pos * bins as f64).floor();
    (idx.max(0.0) as usize).min(bins - 1)
}

#[test]
fn bin_index_is_the_log10_rule() {
    let presets = [psc_c90(), psc_j90(), ctc_sp2()];
    let c90 = preset_range(&presets[0]);
    let mut layouts: Vec<(f64, f64, usize)> = presets
        .iter()
        .map(|p| (preset_range(p).0, preset_range(p).1, 12))
        .collect();
    layouts.extend([(1.0, 1000.0, 3), (c90.0, c90.1, 1), (c90.0, c90.1, 64)]);
    let sizes: Vec<f64> = presets
        .iter()
        .flat_map(|p| p.trace(100_000, 0.7, 8, 1997).sizes().to_vec())
        .collect();
    let special = [
        0.0,
        -0.0,
        -1.0,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::INFINITY,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
    ];
    for &(lo, hi, bins) in &layouts {
        let h = LogHistogram::new(lo, hi, bins);
        assert_eq!(h.edges().len(), bins - 1);
        // every key within 256 ulps of an edge, the edge included
        let near_edges = h.edges().iter().flat_map(|&e| {
            let b = e.to_bits();
            (b - 256..=b + 256).map(f64::from_bits)
        });
        let (log_lo, log_hi) = (lo.log10(), hi.log10());
        for key in sizes.iter().copied().chain(near_edges).chain(special) {
            assert_eq!(
                h.bin_index(key),
                log10_bin(log_lo, log_hi, bins, key),
                "key {key:e} ({:#x}) in layout ({lo}, {hi}, {bins})",
                key.to_bits()
            );
        }
    }
}

/// `P2Quantile::push` as it was, with a branching cell search: the
/// reference the branch-free push must match bit for bit.
struct BranchingP2 {
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
    count: u64,
    initial: [f64; 5],
}

impl BranchingP2 {
    fn new(q: f64) -> Self {
        Self {
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            initial: [0.0; 5],
        }
    }

    fn push(&mut self, x: f64) {
        if self.count < 5 {
            self.initial[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.initial.sort_by(f64::total_cmp);
                self.heights = self.initial;
            }
            return;
        }
        self.count += 1;
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            while k < 3 && x >= self.heights[k + 1] {
                k += 1;
            }
            k
        };
        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, s)
                    };
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        h + s / (np - nm)
            * ((n - nm + s) * (hp - h) / (np - n) + (np - n - s) * (h - hm) / (n - nm))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = if s > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }
}

fn bits(v: [f64; 5]) -> [u64; 5] {
    v.map(f64::to_bits)
}

/// Feed one stream to both pushes at every tracked quantile, comparing
/// every marker height and position bit after every observation.
/// `next(reference, i)` yields observation `i`, and may read the
/// reference's current markers.
fn assert_pushes_match(name: &str, len: usize, mut next: impl FnMut(&BranchingP2, usize) -> f64) {
    for q in [0.25, 0.5, 0.9, 0.95, 0.99] {
        let mut p2 = P2Quantile::new(q);
        let mut reference = BranchingP2::new(q);
        for i in 0..len {
            let x = next(&reference, i);
            p2.push(x);
            reference.push(x);
            let (heights, positions) = p2.markers();
            assert_eq!(
                (bits(heights), bits(positions), p2.count()),
                (
                    bits(reference.heights),
                    bits(reference.positions),
                    reference.count
                ),
                "{name}, q = {q}: markers diverge after observation {i} ({x:e})"
            );
        }
    }
}

/// The slowdowns a full collector feeds its percentiles, in record
/// order, for `spec` on an 8-host C90 trace.
fn slowdowns(spec: &PolicySpec) -> Vec<f64> {
    let preset = psc_c90();
    let trace = preset.trace(20_000, 0.7, 8, 1997);
    let BuiltPolicy::Dispatch(mut policy) = spec
        .build(&preset.size_dist, trace.arrival_rate(), 8)
        .expect("C90 builds at h = 8")
    else {
        unreachable!("{} dispatches", spec.name())
    };
    let r = simulate_dispatch(&trace, 8, policy.as_mut(), 1, MetricsConfig::full_records());
    let records = r.records.expect("full-record run");
    records
        .iter()
        .map(|rec| rec.response() * (1.0 / rec.size))
        .collect()
}

#[test]
fn branch_free_p2_push_keeps_every_marker_bit() {
    for spec in [PolicySpec::LeastWorkLeft, PolicySpec::SitaE] {
        let s = slowdowns(&spec);
        assert_pushes_match(&format!("{} slowdowns", spec.name()), s.len(), |_, i| s[i]);
    }
    assert_pushes_match("constant", 1_000, |_, _| 7.0);
    // after a spread-out start, every value is one of the current markers
    assert_pushes_match("marker values", 3_000, |r, i| {
        if i < 50 {
            (i * 37 % 50) as f64
        } else {
            r.heights[i % 5]
        }
    });
    assert_pushes_match("ascending", 2_000, |_, i| i as f64);
    assert_pushes_match("descending", 2_000, |_, i| -(i as f64));
    let zeros = [0.0, -0.0, -0.0, 0.0, 1.0, -0.0, -1.0, 0.0, 0.0, -0.0, 2.0];
    assert_pushes_match("signed zeros", 2_000, |_, i| zeros[i % zeros.len()]);
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, vs: &[f64]) {
        for v in vs {
            self.word(v.to_bits());
        }
    }

    fn moments(&mut self, m: &Moments) {
        self.word(m.count);
        self.floats(&[m.mean, m.variance, m.min, m.max]);
    }
}

/// A digest of a whole `SimResult`'s bits: the four moment streams,
/// per-host tallies, makespan, counts, every populated fairness bin
/// (centre, count, mean, m2, extrema), the class split, the percentiles
/// and the SLO count.
fn digest(r: &SimResult) -> u64 {
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    for m in [&r.slowdown, &r.queueing_slowdown, &r.response, &r.waiting] {
        d.moments(m);
    }
    for host in &r.per_host {
        d.word(host.jobs);
        d.floats(&[host.work]);
    }
    d.floats(&[r.makespan]);
    d.word(r.measured);
    d.word(r.skipped);
    let f = r.fairness.as_ref().expect("fairness profile requested");
    d.word(f.num_bins() as u64);
    for (centre, m) in f.populated_bins() {
        d.word(m.count());
        d.floats(&[centre, m.mean(), m.m2(), m.min(), m.max()]);
    }
    for class in [&r.short_slowdown, &r.long_slowdown] {
        match class {
            Some(m) => d.moments(m),
            None => d.word(u64::MAX),
        }
    }
    for &(q, est) in r
        .slowdown_percentiles
        .as_ref()
        .expect("percentiles requested")
    {
        d.floats(&[q, est]);
    }
    let (violations, threshold) = r.slo_violations.expect("SLO requested");
    d.word(violations);
    d.floats(&[threshold]);
    d.0
}

/// `Experiment::try_run` under the full collector — 12 fairness bins,
/// the four P² percentiles, an SLO of 10 and, at two hosts, the class
/// split at the cutoff — on a short C90 trace (12 000 jobs at up to 8
/// hosts, 32 000 at 64).
fn full_run(spec: &PolicySpec, hosts: usize) -> SimResult {
    Experiment::new(psc_c90().size_dist)
        .hosts(hosts)
        .jobs(if hosts > 8 { 500 * hosts } else { 12_000 })
        .seed(1997)
        .warmup_jobs(500)
        .fairness_bins(12)
        .percentiles(true)
        .slo(10.0)
        .try_run(spec, 0.7)
        .expect("C90 policies build at rho = 0.7")
}

/// `(policy, hosts, digest)`, recorded at the commit before the edge
/// binning and the branch-free P² push.
type Pin = (&'static str, usize, u64);

const PINS_NARROW: [Pin; 5] = [
    ("SITA-U-fair", 2, 0xefff_a5ba_18cb_1db7),
    ("LWL", 8, 0x59a1_3531_ce36_a32e),
    ("SITA-E", 8, 0xdd5a_5ac9_1db2_d59e),
    ("SITA-U-fair", 8, 0x7efc_b76c_9b42_1e36),
    ("grouped", 8, 0x1079_7e79_a629_0418),
];

const PINS_WIDE: [Pin; 4] = [
    ("LWL", 64, 0x64ab_6108_87bc_2e27),
    ("SITA-E", 64, 0x982e_fd1a_c723_6457),
    ("SITA-U-fair", 64, 0x2fc6_bad8_e53e_281b),
    ("grouped", 64, 0xc0e3_bc2d_435a_f007),
];

fn assert_pins(pins: &[Pin]) {
    let mut got = Vec::new();
    for &(name, hosts, _) in pins {
        let spec = match name {
            "LWL" => PolicySpec::LeastWorkLeft,
            "SITA-E" => PolicySpec::SitaE,
            "SITA-U-fair" => PolicySpec::SitaUFair,
            _ => PolicySpec::Grouped {
                method: CutoffMethod::Fair,
            },
        };
        let r = full_run(&spec, hosts);
        // the split is measured at two hosts only, so that row pins it
        assert_eq!(
            r.short_slowdown.is_some(),
            hosts == 2,
            "{name} at h = {hosts}"
        );
        got.push((name, hosts, digest(&r)));
    }
    assert_eq!(got, pins);
}

#[test]
fn full_collector_results_keep_their_pinned_bits_at_2_and_8_hosts() {
    assert_pins(&PINS_NARROW);
}

#[test]
fn full_collector_results_keep_their_pinned_bits_at_64_hosts() {
    assert_pins(&PINS_WIDE);
}

#[test]
fn a_support_outside_the_default_fairness_range_still_bins_every_job() {
    fn run<D: Distribution + Clone + 'static>(d: D) -> SimResult {
        Experiment::new(d)
            .jobs(2_000)
            .seed(7)
            .fairness_bins(12)
            .try_run(&PolicySpec::LeastWorkLeft, 0.5)
            .expect("LWL builds for any size distribution")
    }
    // (name, result, populated bins at least)
    let cases = [
        (
            "Uniform(1e-5, 1e-4)",
            run(Uniform::new(1e-5, 1e-4).unwrap()),
            2,
        ),
        (
            "Deterministic(1e-4)",
            run(Deterministic::new(1e-4).unwrap()),
            1,
        ),
        ("Pareto(2e9, 1.5)", run(Pareto::new(2e9, 1.5).unwrap()), 2),
    ];
    for (name, r, populated) in &cases {
        let f = r.fairness.as_ref().expect("fairness profile requested");
        let counts: Vec<u64> = f.populated_bins().map(|(_, m)| m.count()).collect();
        assert_eq!(counts.iter().sum::<u64>(), r.measured, "{name}");
        assert!(counts.len() >= *populated, "{name}: bins {counts:?}");
    }
    // where the default range is non-empty it is unchanged
    for p in [psc_c90(), psc_j90(), ctc_sp2()] {
        let (lo, hi) = preset_range(&p);
        let r = run(p.size_dist.clone());
        assert!(
            r.fairness
                .expect("fairness profile requested")
                .has_layout(lo, hi, 12),
            "{}",
            p.name
        );
    }
}

/// The percentile pipe's chunk length, and the measured jobs from which
/// a run takes the pipe (`crates/sim/src/metrics.rs`).
const PIPE_CHUNK: usize = 16_384;

/// The full collector's tail as `wide_full` runs it, with `warmup`
/// jobs discarded.
fn tail_cfg(warmup: usize) -> MetricsConfig {
    let (lo, hi) = psc_c90().size_dist.support();
    MetricsConfig {
        warmup_jobs: warmup,
        fairness_bins: 12,
        fairness_range: (lo.max(1e-3), hi * 1.01),
        slowdown_percentiles: true,
        slo_slowdown: Some(10.0),
        ..MetricsConfig::streaming()
    }
}

/// The records of a C90 LWL run of `warmup + measured` jobs at `hosts`
/// hosts, and the run's result through the engine (which pipes the
/// percentiles from `PIPE_CHUNK` measured jobs).
fn records_and_engine_run(
    hosts: usize,
    warmup: usize,
    measured: usize,
) -> (Vec<JobRecord>, SimResult) {
    let preset = psc_c90();
    let trace = preset.trace(warmup + measured, 0.7, hosts, 4099);
    let run = |cfg: MetricsConfig| {
        let BuiltPolicy::Dispatch(mut policy) = PolicySpec::LeastWorkLeft
            .build(&preset.size_dist, trace.arrival_rate(), hosts)
            .expect("LWL builds")
        else {
            unreachable!("LWL dispatches")
        };
        simulate_dispatch(&trace, hosts, policy.as_mut(), 3, cfg)
    };
    let cfg = tail_cfg(warmup);
    let records = run(MetricsConfig {
        collect_records: true,
        warmup_jobs: 0,
        ..cfg
    })
    .records
    .expect("records requested");
    (records, run(cfg))
}

/// `records` pushed into a collector built with job hint `hint`: one
/// without a hint (0) never pipes.
fn collect(hosts: usize, warmup: usize, hint: usize, records: &[JobRecord]) -> SimResult {
    let mut c = Collector::with_job_hint(hosts, tail_cfg(warmup), hint);
    for &r in records {
        c.record(r);
    }
    c.finish()
}

/// A piped engine run and the same records pushed inline.
fn piped_and_inline(hosts: usize, warmup: usize, measured: usize) -> (SimResult, SimResult) {
    let (records, piped) = records_and_engine_run(hosts, warmup, measured);
    (piped, collect(hosts, warmup, 0, &records))
}

/// Every field, bit for bit (`Debug` prints each float's shortest
/// round-trip form, so distinct non-NaN bits print differently).
fn assert_same_bits(what: &str, a: &SimResult, b: &SimResult) {
    assert!(
        a.slowdown_percentiles.is_some(),
        "{what}: percentiles requested"
    );
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}

/// Job counts around the pipe's edges: runs that hand off zero, one and
/// two whole chunks and one that ends a job past a whole chunk, each
/// after a short warm-up, and a warm-up longer than one chunk.
fn edge_cases() -> [(usize, usize); 5] {
    [
        (100, PIPE_CHUNK - 1),
        (100, PIPE_CHUNK),
        (100, 2 * PIPE_CHUNK),
        (100, 2 * PIPE_CHUNK + 1),
        (PIPE_CHUNK + 500, PIPE_CHUNK + 3_000),
    ]
}

#[test]
fn piped_percentile_runs_match_inline_pushes_bitwise() {
    for hosts in [2, 8, 64] {
        for (warmup, measured) in edge_cases() {
            let (piped, inline) = piped_and_inline(hosts, warmup, measured);
            assert_same_bits(
                &format!("h = {hosts}, {warmup} + {measured} jobs"),
                &piped,
                &inline,
            );
        }
    }
}

/// Hold every helper of the global pool in a task that waits for the
/// returned flag, so no helper can start a pipe's offer until it is set.
fn hold_every_helper() -> (Arc<AtomicUsize>, std::thread::JoinHandle<()>) {
    let helpers = WorkerPool::global().spawned_workers().max(1);
    let release = Arc::new(AtomicUsize::new(0));
    let entered = Arc::new(AtomicUsize::new(0));
    let holder = {
        let (release, entered) = (Arc::clone(&release), Arc::clone(&entered));
        std::thread::spawn(move || {
            // one index per helper and one for this thread, which blocks
            // on its own: every helper must take one
            par_map_indexed(helpers + 1, helpers + 1, move |_| {
                entered.fetch_add(1, Ordering::SeqCst);
                while release.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
            });
        })
    };
    while entered.load(Ordering::SeqCst) < helpers + 1 {
        std::thread::yield_now();
    }
    assert_eq!(WorkerPool::global().spawned_workers(), helpers);
    (release, holder)
}

#[test]
fn percentile_runs_with_every_helper_busy_push_on_the_recording_thread() {
    // Engine runs whose offers no helper can start: each hand-off claims
    // the last offer back and pushes its chunk on the recording thread,
    // and `finish` claims back the last one. They hand off one, two and
    // three chunks.
    let engine_runs = [
        (2, 100, PIPE_CHUNK + 500),
        (8, PIPE_CHUNK + 500, 2 * PIPE_CHUNK),
        (64, 100, 3 * PIPE_CHUNK + 1),
    ];
    // the records first, while the pool is free
    let runs: Vec<_> = engine_runs
        .iter()
        .map(|&(hosts, warmup, measured)| {
            (
                hosts,
                warmup,
                records_and_engine_run(hosts, warmup, measured).0,
            )
        })
        .collect();
    // Collectors whose job hint overstates their run: they take the pipe,
    // but the run ends before a chunk fills, so nothing is ever offered
    // and `finish` pushes the partial chunk.
    let overstated = [(8, 100, PIPE_CHUNK - 1), (64, 0, PIPE_CHUNK / 2)];
    let short_runs: Vec<_> = overstated
        .iter()
        .map(|&(hosts, warmup, measured)| {
            (
                hosts,
                warmup,
                records_and_engine_run(hosts, warmup, measured).0,
            )
        })
        .collect();
    let (release, holder) = hold_every_helper();
    let results: Vec<_> = engine_runs
        .iter()
        .map(|&(hosts, warmup, measured)| {
            (
                format!("h = {hosts}, {warmup} + {measured} jobs, claimed back"),
                records_and_engine_run(hosts, warmup, measured).1,
            )
        })
        .chain(short_runs.iter().map(|(hosts, warmup, records)| {
            (
                format!(
                    "h = {hosts}, {warmup} + {} jobs, never offered",
                    records.len() - warmup
                ),
                collect(*hosts, *warmup, PIPE_CHUNK + warmup, records),
            )
        }))
        .collect();
    release.store(1, Ordering::SeqCst);
    holder.join().expect("the holder finishes");
    let inline = runs
        .iter()
        .chain(&short_runs)
        .map(|(hosts, warmup, records)| collect(*hosts, *warmup, 0, records));
    for ((what, held), inline) in results.iter().zip(inline) {
        assert_same_bits(what, held, &inline);
    }
}
