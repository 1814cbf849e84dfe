//! Trace construction allocates its two columns and nothing else: 16
//! bytes per job for one trace, and (1 + k)·8 per job for a k-load sweep,
//! whose traces share one size column. No reciprocal column and no
//! transient column of unit exponentials is allocated. A streaming
//! collector allocates nothing per job either, so a run holds its trace
//! and state that grows with hosts and bins, never with jobs.
//!
//! From `CONCURRENT_BUILD_MIN_JOBS` jobs a generated trace draws its
//! arrival columns on a helper of the worker pool, so the count is
//! process-wide: every thread's bytes enter it. These gates therefore
//! live in a binary of their own and take one lock, so that no other
//! test's allocations fall inside a measured build. Each gate first runs
//! a build of the same shape (a concurrent trace build, or a piped
//! collector), so the pool's threads and queue exist before the
//! measurement starts.

use dses_sim::metrics::Collector;
use dses_sim::MetricsConfig;
use dses_workload::{Mmpp2, WorkloadBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Pass-through allocator counting the bytes every thread requests.
struct CountingAlloc;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Held by each gate for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `f`, returning its result and the bytes all threads allocated
/// meanwhile.
fn bytes_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - base)
}

#[test]
fn one_trace_allocates_its_two_columns() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let n = 100_000;
    let builder = || {
        WorkloadBuilder::new(dses_workload::psc_c90().size_dist)
            .jobs(n)
            .poisson_load(0.7, 2)
            .seed(1997)
    };
    let _warm = builder().build();
    let builder = builder();
    let (trace, bytes) = bytes_of(|| builder.build());
    assert_eq!(trace.len(), n);
    assert!(bytes >= 16 * n, "{bytes} bytes cannot hold two columns");
    assert!(
        bytes <= 16 * n + 1024,
        "{bytes} bytes for {n} jobs: more than 16 per job"
    );

    let builder = WorkloadBuilder::new(dses_workload::psc_c90().size_dist)
        .jobs(n)
        .arrivals(Mmpp2::bursty(1.0e-3, 10.0, 20.0))
        .seed(1997);
    let (_, bytes) = bytes_of(|| builder.build());
    assert!(bytes <= 16 * n + 1024, "{bytes} bytes for {n} MMPP jobs");
}

#[test]
fn a_sweep_allocates_one_arrival_column_per_load() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let n = 100_000;
    let loads = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let k = loads.len();
    let builder = || {
        WorkloadBuilder::new(dses_workload::psc_c90().size_dist)
            .jobs(n)
            .seed(4099)
    };
    let _warm = builder().build_loads(&loads, 2);
    let builder = builder();
    let (traces, bytes) = bytes_of(|| builder.build_loads(&loads, 2));
    assert_eq!(traces.len(), k);
    // one shared size column and k arrival columns
    let columns = (1 + k) * 8 * n;
    assert!(bytes >= columns, "{bytes} bytes cannot hold the columns");
    assert!(
        bytes <= columns + 4096,
        "{bytes} bytes for a {k}-load sweep of {n} jobs"
    );
}

#[test]
fn a_streaming_full_collector_allocates_nothing_per_job() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // the full tier: fairness bins, a class split, an SLO and percentiles
    // (which take the pool helper's pipe from 16 384 measured jobs)
    let cfg = MetricsConfig {
        fairness_bins: 12,
        split_cutoff: Some(1_000.0),
        slo_slowdown: Some(10.0),
        slowdown_percentiles: true,
        ..MetricsConfig::streaming()
    };
    drop(Collector::with_job_hint(64, cfg, 20_000));
    // The warm-up starts the pool's helper, whose own start-up
    // allocations may land in a later window. They only add bytes, so
    // each size counts the least of three constructions.
    let least = |jobs: usize| {
        (0..3)
            .map(|_| bytes_of(|| Collector::with_job_hint(64, cfg, jobs)).1)
            .min()
            .expect("three constructions")
    };
    let (small, large) = (least(20_000), least(1_600_000));
    assert!(
        large <= small,
        "{large} bytes for 1.6 M jobs against {small} for 20 000: the collector grows with jobs"
    );
}
