//! A generated trace is three columns written once, in arrival order, and
//! a load sweep shares the columns that do not depend on the load.
//!
//! * The column-built trace equals, bit for bit, the trace the same RNG
//!   streams give when built the record way — a `Vec<Job>` through the
//!   sorting `Trace::new` — for Poisson arrivals at several seeds and
//!   loads and for explicit MMPP-2 and renewal processes.
//! * The traces of one sweep equal the per-load `Experiment::trace`
//!   and share one size buffer and one reciprocal buffer.
//! * Construction allocates the columns and nothing else: 24 bytes per
//!   job for one trace, (2 + k)·8 per job for a k-load sweep plus its
//!   transient column of unit exponentials.
//!
//! Allocated bytes are counted per thread, so the default multi-threaded
//! test harness cannot pollute one test's count with another's.

use dses_core::Experiment;
use dses_dist::prelude::*;
use dses_workload::{ArrivalProcess, Job, Mmpp2, Poisson, Renewal, Trace, WorkloadBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Pass-through allocator counting the bytes each thread requests.
struct CountingAlloc;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // a const-initialised, drop-free thread local never allocates
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and the bytes this thread allocated.
fn bytes_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - base)
}

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
        bits(got.inv_sizes()),
        bits(want.inv_sizes()),
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
            assert_eq!(trace.inv_sizes().as_ptr(), sweep[0].inv_sizes().as_ptr());
        }
        // only the arrivals depend on the load
        assert!(sweep[0].duration() > sweep[1].duration());
        assert_eq!(e.traces(&[0.5]), vec![e.trace(0.5)]);
        assert!(e.traces(&[]).is_empty());
    }
}

#[test]
fn one_trace_allocates_its_three_columns() {
    let n = 100_000;
    let builder = WorkloadBuilder::new(dses_workload::psc_c90().size_dist)
        .jobs(n)
        .poisson_load(0.7, 2)
        .seed(1997);
    let (trace, bytes) = bytes_of(|| builder.build());
    assert_eq!(trace.len(), n);
    assert!(bytes >= 24 * n, "{bytes} bytes cannot hold three columns");
    assert!(
        bytes <= 24 * n + 1024,
        "{bytes} bytes for {n} jobs: more than 24 per job"
    );

    let builder = WorkloadBuilder::new(dses_workload::psc_c90().size_dist)
        .jobs(n)
        .arrivals(Mmpp2::bursty(1.0e-3, 10.0, 20.0))
        .seed(1997);
    let (_, bytes) = bytes_of(|| builder.build());
    assert!(bytes <= 24 * n + 1024, "{bytes} bytes for {n} MMPP jobs");
}

#[test]
fn a_sweep_allocates_one_arrival_column_per_load() {
    let n = 100_000;
    let loads = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let k = loads.len();
    let builder = WorkloadBuilder::new(dses_workload::psc_c90().size_dist)
        .jobs(n)
        .seed(4099);
    let (traces, bytes) = bytes_of(|| builder.build_loads(&loads, 2));
    assert_eq!(traces.len(), k);
    // shared sizes and reciprocals, k arrival columns, and the
    // transient column of unit exponentials
    let columns = (2 + k) * 8 * n;
    let units = 8 * n;
    assert!(bytes >= columns, "{bytes} bytes cannot hold the columns");
    assert!(
        bytes <= columns + units + 4096,
        "{bytes} bytes for a {k}-load sweep of {n} jobs"
    );
}
