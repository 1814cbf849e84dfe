//! A generated trace is two columns written once, in arrival order, and a
//! load sweep shares the size column, which does not depend on the load.
//!
//! * The column-built trace equals, bit for bit, the trace the same RNG
//!   streams give when built the record way — a `Vec<Job>` through the
//!   sorting `Trace::new` — for Poisson arrivals at several seeds and
//!   loads and for explicit MMPP-2 and renewal processes.
//! * The traces of one sweep equal the per-load `Experiment::trace`
//!   and share one size buffer.
//! * Every column keeps its pinned bits — FNV-1a digests recorded before
//!   the size and arrival streams were drawn side by side, and before the
//!   reciprocals stopped being a stored column — across nine
//!   distributions, lengths on both sides of the concurrent-build
//!   threshold, one load and a 3-load sweep, at 2 and 64 hosts.
//! * A build run on a pool worker equals the same build on the caller,
//!   and a column check that fails inside a concurrent build reaches the
//!   caller with the message of the serial build.
//!
//! The allocation gates live in `tests/trace_alloc.rs`, a binary of their
//! own: the arrival columns of a concurrent build are allocated on a pool
//! thread, so only a process-wide count sees them.

use dses_core::Experiment;
use dses_dist::par::par_map_indexed;
use dses_dist::prelude::*;
use dses_workload::synthetic::CONCURRENT_BUILD_MIN_JOBS;
use dses_workload::{ArrivalProcess, Job, Mmpp2, Poisson, Renewal, Trace, WorkloadBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The record-way build: job `id` draws its gap from stream 2 and its
/// size from stream 1 of `Rng64::seed_from(seed)`, becomes a `Job`, and
/// the jobs go through the sorting constructor.
fn reference<D: Distribution>(
    dist: &D,
    n: usize,
    seed: u64,
    mut gap: impl FnMut(&mut Rng64) -> f64,
) -> Trace {
    let root = Rng64::seed_from(seed);
    let mut size_rng = root.stream(1);
    let mut gap_rng = root.stream(2);
    let mut jobs = Vec::with_capacity(n);
    let mut t = 0.0;
    for id in 0..n {
        t += gap(&mut gap_rng);
        jobs.push(Job::new(id as u64, t, dist.sample(&mut size_rng)));
    }
    Trace::new(jobs)
}

fn assert_same_bits(got: &Trace, want: &Trace, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    assert_eq!(
        bits(got.arrivals()),
        bits(want.arrivals()),
        "{what}: arrivals"
    );
    assert_eq!(bits(got.sizes()), bits(want.sizes()), "{what}: sizes");
    assert_eq!(
        bits(&got.inv_sizes()),
        bits(&want.inv_sizes()),
        "{what}: reciprocals"
    );
    assert!(
        got.jobs().zip(want.jobs()).all(|(a, b)| a.id == b.id),
        "{what}: ids"
    );
    assert!(
        got.jobs().enumerate().all(|(i, j)| j.id == i as u64),
        "{what}: id = index"
    );
}

#[test]
fn poisson_columns_match_the_record_build() {
    let dist = dses_workload::psc_c90().size_dist;
    for seed in [0, 7, 1997, 4099] {
        for (rho, hosts) in [(0.1, 2), (0.7, 2), (0.9, 8)] {
            let n = 3_000;
            let got = WorkloadBuilder::new(dist.clone())
                .jobs(n)
                .poisson_load(rho, hosts)
                .seed(seed)
                .build();
            let mut poisson = Poisson::new(rho * hosts as f64 / dist.mean());
            let want = reference(&dist, n, seed, |rng| poisson.next_gap(rng));
            assert_same_bits(
                &got,
                &want,
                &format!("poisson seed {seed} rho {rho} h {hosts}"),
            );
        }
    }
}

#[test]
fn explicit_process_columns_match_the_record_build() {
    let dist = BoundedPareto::new(1.0, 1.0e5, 1.1).unwrap();
    let n = 4_000;
    let mut mmpp = Mmpp2::bursty(2.0, 20.0, 50.0);
    let got = WorkloadBuilder::new(dist.clone())
        .jobs(n)
        .arrivals(mmpp.clone())
        .seed(31)
        .build();
    mmpp.reset();
    let want = reference(&dist, n, 31, |rng| mmpp.next_gap(rng));
    assert_same_bits(&got, &want, "mmpp2");

    let gaps = LogNormal::fit_mean_scv(0.5, 4.0).unwrap();
    let got = WorkloadBuilder::new(dist.clone())
        .jobs(n)
        .arrivals(Renewal::new(gaps))
        .seed(32)
        .build();
    let mut renewal = Renewal::new(gaps);
    let want = reference(&dist, n, 32, |rng| renewal.next_gap(rng));
    assert_same_bits(&got, &want, "renewal");
}

/// An arrival process whose arrivals go backwards: the builder must fall
/// back to the stable sort, exactly as the record build does.
#[derive(Debug)]
struct Zigzag(u32);

impl ArrivalProcess for Zigzag {
    fn next_gap(&mut self, rng: &mut Rng64) -> f64 {
        self.0 += 1;
        let step = 1.0 + rng.uniform();
        // every third arrival steps back, never below the one before last
        if self.0.is_multiple_of(3) {
            -0.5 * step
        } else {
            step
        }
    }
    fn mean_rate(&self) -> f64 {
        1.0
    }
    fn reset(&mut self) {
        self.0 = 0;
    }
}

#[test]
fn decreasing_arrivals_take_the_stable_sort() {
    let dist = Exponential::with_mean(1.0).unwrap();
    let got = WorkloadBuilder::new(dist)
        .jobs(500)
        .arrivals(Zigzag(0))
        .seed(3)
        .build();
    let mut zigzag = Zigzag(0);
    let want = reference(&dist, 500, 3, |rng| zigzag.next_gap(rng));
    assert_same_bits(&got, &want, "zigzag");
    assert!(got.arrivals().windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn sweep_traces_equal_single_loads_and_share_their_size_columns() {
    let loads = [0.1, 0.3, 0.5, 0.7, 0.9];
    for (hosts, seed) in [(2, 1997), (8, 4099)] {
        let e = Experiment::new(dses_workload::psc_c90().size_dist)
            .hosts(hosts)
            .jobs(4_000)
            .seed(seed);
        let sweep = e.traces(&loads);
        assert_eq!(sweep.len(), loads.len());
        for (trace, &rho) in sweep.iter().zip(&loads) {
            assert_same_bits(trace, &e.trace(rho), &format!("h {hosts} rho {rho}"));
            assert_eq!(trace.sizes().as_ptr(), sweep[0].sizes().as_ptr());
        }
        // only the arrivals depend on the load
        assert!(sweep[0].duration() > sweep[1].duration());
        assert_eq!(e.traces(&[0.5]), vec![e.trace(0.5)]);
        assert!(e.traces(&[]).is_empty());
    }
}

/// 64-bit FNV-1a over the bit patterns of `v`, continuing from `h`.
fn fnv(mut h: u64, v: &[f64]) -> u64 {
    for x in v {
        for byte in x.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The pinned lengths: 1, 2, both neighbours of the concurrent-build
/// threshold T and T itself, and 100 000.
fn pinned_lengths() -> [usize; 6] {
    let t = CONCURRENT_BUILD_MIN_JOBS;
    [1, 2, t - 1, t, t + 1, 100_000]
}

/// Digests `[sizes, reciprocals, arrivals]` of the traces of `dist` at
/// length `n`: one load (0.7) and a 3-load sweep (0.3, 0.6, 0.9) at 2 and
/// at 64 hosts, the arrivals of all eight traces folded in that order.
/// Every trace must carry the one size column and its reciprocals.
fn column_digests<D: Distribution + Clone>(dist: &D, n: usize) -> [u64; 3] {
    let mut traces = Vec::new();
    for hosts in [2, 64] {
        let builder = || WorkloadBuilder::new(dist.clone()).jobs(n).seed(2024);
        traces.push(builder().poisson_load(0.7, hosts).build());
        traces.extend(builder().build_loads(&[0.3, 0.6, 0.9], hosts));
    }
    let first = &traces[0];
    for t in &traces {
        assert_eq!(bits(t.sizes()), bits(first.sizes()), "n {n}: sizes");
        assert_eq!(
            bits(&t.inv_sizes()),
            bits(&first.inv_sizes()),
            "n {n}: reciprocals"
        );
    }
    let arrivals = traces.iter().fold(FNV_OFFSET, |h, t| fnv(h, t.arrivals()));
    [
        fnv(FNV_OFFSET, first.sizes()),
        fnv(FNV_OFFSET, &first.inv_sizes()),
        arrivals,
    ]
}

fn check_pins<D: Distribution + Clone>(name: &str, dist: &D, pins: &[[u64; 3]; 6]) {
    for (n, want) in pinned_lengths().into_iter().zip(pins) {
        let got = column_digests(dist, n);
        for (k, column) in ["sizes", "reciprocals", "arrivals"].iter().enumerate() {
            assert_eq!(
                got[k], want[k],
                "{name}, n = {n}: {column} digest {:#018x}, pinned {:#018x}",
                got[k], want[k]
            );
        }
    }
}

/// An `Empirical` distribution over 2 000 C90 draws.
fn empirical_sample() -> Empirical {
    let c90 = dses_workload::psc_c90().size_dist;
    let mut rng = Rng64::seed_from(5);
    let values: Vec<f64> = (0..2_000).map(|_| c90.sample(&mut rng)).collect();
    Empirical::from_values(&values).unwrap()
}

// Pinned `[sizes, reciprocals, arrivals]` digests, one row per length of
// `pinned_lengths`, recorded with the columns drawn in turn on one thread
// (seed 2024).

/// C90 (`psc_c90`).
const C90: [[u64; 3]; 6] = [
    [0x0d028466f76dca25, 0x4c1fb2784b5638d5, 0x33a64332d6c8b1c5],
    [0x4815b2436104548e, 0x98eaf4299eebe957, 0x844465f9a6a031dd],
    [0x43fdd9c40270a24f, 0x29e0d2034cf723a7, 0x167a119dc52aa729],
    [0x48675382af8fcc76, 0xe60a08108a6da10f, 0xaecf9fe4f19aeecd],
    [0x87318b6925c59c33, 0x4e09928a1eed5a37, 0x3334da4361bd7385],
    [0x8bc369761d6c0a57, 0x6aaf8b1524a6a4bd, 0xf4061f42cc60c691],
];
/// J90 (`psc_j90`).
const J90: [[u64; 3]; 6] = [
    [0xc8171bf69f8dbb2f, 0x4bee8c8e3f72ee41, 0x6a51662461741821],
    [0xf5bcd33c11494194, 0xad186626c6ee43e0, 0x8f8d3f5311e043e9],
    [0x42c6ebcff481e605, 0x7118b4c47a5b4e33, 0xeff3a6b6d2ba704a],
    [0x6b9694edc6fdf3dc, 0x3bf4d1eeea2baea7, 0xb4d1711b2e22144a],
    [0x031a955030fae449, 0xd5ff515a6e6a159e, 0x363d56fd8c584cda],
    [0x730f0144e538160d, 0x8e692d233b503ea8, 0xc5f86f8be3c5d23e],
];
/// CTC SP2 (`ctc_sp2`).
const CTC: [[u64; 3]; 6] = [
    [0xbc926e5157fa3d88, 0x2fe69e5bb97a7651, 0x617785f79a9b5c4d],
    [0x25eb99e851be4509, 0x71df98a712c1286c, 0x7c372b5cc94c9ec9],
    [0x775cae9daa436ca0, 0xb61a32b7a17e5ea7, 0xc1540a514650f902],
    [0x2dfa68a6f7a8d0a0, 0x69fd36897b6f8250, 0xb383f9a9b1696e9e],
    [0x6182ba044514292e, 0xc7e3829970909c50, 0x94507b7f3fb05e0e],
    [0x9f8f7d68cde3146b, 0x861a30715fcbc53e, 0xc5b669b9e5668f6e],
];
/// Exponential, mean 1 000.
const EXPONENTIAL: [[u64; 3]; 6] = [
    [0xb27e5f4f1261d838, 0x512367d8e03fa58c, 0xa069859d3a2305f9],
    [0x0030891c82d2b3a4, 0x072ece60918f8be4, 0xd8bc603b38905e75],
    [0xd85144cc4ad61ce0, 0xf55806ff098b6adc, 0x2a51cd1a65db4829],
    [0x8d65ba42cd4a1d21, 0xf9e4bffef5a8b3e2, 0x77d021435577c46a],
    [0xd4ef01c055a09489, 0x90e2a71830637d11, 0x5520ac62cf7c36e9],
    [0xb9c80ca7991cc34b, 0xb9289d8839e5c870, 0xc34d5dfd3b3ffaf6],
];
/// Two-phase hyperexponential, mean 1 000, C² = 4.
const HYPEREXPONENTIAL: [[u64; 3]; 6] = [
    [0xcfa2adfdab280a6f, 0x818961f291333d84, 0xa069859d3a2305f9],
    [0xadb5ca9449285b6c, 0xb16c33678ef5d3e8, 0xd8bc603b38905e75],
    [0xa75ca41bb06e3f8d, 0xa44e5aa4babdbc63, 0x2a51cd1a65db4829],
    [0xf27374843123c18d, 0x0131566af72d5c54, 0x77d021435577c46a],
    [0x25072ad20261b501, 0xeb951425025a7406, 0x5520ac62cf7c36e9],
    [0xb366149979efb6a2, 0xcb380b98c4088ad7, 0xc34d5dfd3b3ffaf6],
];
/// Lognormal, mean 1 000, C² = 8.
const LOGNORMAL: [[u64; 3]; 6] = [
    [0xa0214db906250bc6, 0x76661d7266797e8c, 0xadc31073712ca8e9],
    [0xe242a4ff655631b8, 0x7f3e3f0e89cca34f, 0xf7e2251893bfe925],
    [0x8a240ef95c6e9fa8, 0x7c21a3c1c629cda0, 0x044d3816ae2cffc1],
    [0xa45c2daf3980db5f, 0x5d0d6ee2431d0905, 0xa96862fa35eae796],
    [0x908ec9c48b85b175, 0x8fea56eb9847eb81, 0xf0f97304e2087ced],
    [0x8033787fe9c1a14d, 0xab0bbd9188e851ef, 0x0ff951f24f7287da],
];
/// Erlang-4, mean 1 000.
const ERLANG4: [[u64; 3]; 6] = [
    [0x268b3544fbc37615, 0x86453b0a7b860457, 0x780dad30877c48a5],
    [0x839e10d719fcac6a, 0x0cce2fbbf424afda, 0x5013c3a65d721ead],
    [0x31938fedfba60e48, 0x9fcd9c9720b32fe3, 0x6de6b9040d549d11],
    [0x96e16e852ccbf081, 0xccb4a5c3f5c94f91, 0x8dc107d387781bd6],
    [0x7b8f3679b4dbda28, 0x5f52c34e668cf05b, 0x7a994f8086e886b1],
    [0x53d59cfd034ce5ce, 0x0d3fb3de41c44fc8, 0x2d727a204c9e9fb6],
];
/// `Empirical` over 2 000 C90 draws.
const EMPIRICAL: [[u64; 3]; 6] = [
    [0x91a45ead8fc2b3fc, 0xf1fdb3dfe8757ff9, 0x6add2e8c0195e715],
    [0xc8d73baa7011085b, 0x49059f3092f9077e, 0xb224d2fd40c256a5],
    [0xf183ff6fcdcb6985, 0x514fa3bb1388e23f, 0x7cbc9c36b38af219],
    [0xa671f23437b36ed9, 0x282975da979355d9, 0xe9e439f6e4491f79],
    [0x52923e8deb728115, 0xdae7d08b6382635b, 0xa0967a47200d56a1],
    [0xf31624ccc29fd622, 0xbe7eca9385c627b0, 0xf33907328da1d0ed],
];

#[test]
fn trace_columns_keep_their_pinned_bits() {
    let c90 = dses_workload::psc_c90().size_dist;
    check_pins("C90", &c90, &C90);
    check_pins("J90", &dses_workload::psc_j90().size_dist, &J90);
    check_pins("CTC", &dses_workload::ctc_sp2().size_dist, &CTC);
    check_pins("exponential", &Exponential::with_mean(1_000.0).unwrap(), &EXPONENTIAL);
    let h2 = HyperExponential::fit_mean_scv(1_000.0, 4.0).unwrap();
    check_pins("hyperexponential", &h2, &HYPEREXPONENTIAL);
    let lognormal = LogNormal::fit_mean_scv(1_000.0, 8.0).unwrap();
    check_pins("lognormal", &lognormal, &LOGNORMAL);
    check_pins("Erlang-4", &Erlang::with_mean(4, 1_000.0).unwrap(), &ERLANG4);
    check_pins("empirical", &empirical_sample(), &EMPIRICAL);
    // the same body–tail draws through dynamic dispatch
    let shared: Arc<dyn Distribution> = Arc::new(c90);
    check_pins("C90 as Arc<dyn Distribution>", &shared, &C90);
}

#[test]
fn builds_on_a_pool_worker_equal_builds_on_the_caller() {
    let dist = dses_workload::psc_c90().size_dist;
    let t = CONCURRENT_BUILD_MIN_JOBS;
    for n in [t - 1, t, 3 * t] {
        let build = move |dist: Mixture| {
            let builder = || WorkloadBuilder::new(dist.clone()).jobs(n).seed(1997);
            let mut traces = vec![builder().poisson_load(0.7, 64).build()];
            traces.extend(builder().build_loads(&[0.3, 0.6, 0.9], 2));
            traces
        };
        let on_caller = build(dist.clone());
        // Six lanes on two workers: builds nested in a busy pool and
        // builds whose helper is free both run.
        let lanes = {
            let dist = dist.clone();
            par_map_indexed(6, 2, move |_| build(dist.clone()))
        };
        for (lane, traces) in lanes.iter().enumerate() {
            for (got, want) in traces.iter().zip(&on_caller) {
                assert_same_bits(got, want, &format!("n {n}, lane {lane}"));
            }
        }
    }
}

/// Sizes 1.0, except 0.0 at draw `bad`: fails [`Job::new`]'s size check
/// at job `bad`.
#[derive(Debug)]
struct ZeroAt {
    bad: usize,
    drawn: AtomicUsize,
}

impl Distribution for ZeroAt {
    fn sample(&self, _: &mut Rng64) -> f64 {
        if self.drawn.fetch_add(1, Ordering::Relaxed) == self.bad {
            0.0
        } else {
            1.0
        }
    }
    fn support(&self) -> (f64, f64) {
        (0.0, 1.0)
    }
    fn cdf(&self, x: f64) -> f64 {
        if x < 1.0 {
            0.0
        } else {
            1.0
        }
    }
    fn raw_moment(&self, _: i32) -> f64 {
        1.0
    }
}

fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the build must panic");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => (*payload.downcast::<&str>().expect("a string panic")).to_string(),
    }
}

#[test]
fn column_checks_in_a_concurrent_build_keep_their_messages() {
    let n = 2 * CONCURRENT_BUILD_MIN_JOBS;
    let bad = n - 7;
    for loads in [&[0.7][..], &[0.3, 0.6, 0.9]] {
        let dist = ZeroAt {
            bad,
            drawn: AtomicUsize::new(0),
        };
        let msg = panic_message(|| {
            let _ = WorkloadBuilder::new(dist).jobs(n).build_loads(loads, 2);
        });
        assert_eq!(msg, format!("job {bad}: size 0 must be finite and positive"));
    }
    // A subnormal rate overflows the first gap: the arrival check fails
    // in the arrival task, and its message reaches the caller too.
    let huge = Deterministic::new(1.0e300).unwrap();
    let msg = panic_message(|| {
        let _ = WorkloadBuilder::new(huge).jobs(n).poisson_load(1.0e-10, 1).build();
    });
    assert_eq!(msg, "job 0: arrival inf must be finite and nonnegative");
    // A rate that is not positive is rejected after the sizes are drawn.
    let shared: Arc<dyn Distribution> = Arc::new(Pareto::new(1.0, 0.9).unwrap());
    let msg = panic_message(|| {
        let _ = WorkloadBuilder::new(shared).jobs(n).build_loads(&[0.5, 0.7], 2);
    });
    assert_eq!(msg, "rate must be positive");
}
