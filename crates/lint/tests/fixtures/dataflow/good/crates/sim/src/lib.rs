//! Good dataflow fixture: the same surface as `bad`, clean under every
//! dataflow rule.
//!
//! - `march` hoists the speed reciprocal above the loop, so its
//!   `divides(0)` annotation is honest (the cold divide costs nothing).
//! - `slowdown` multiplies by a caller-held reciprocal; its only divide
//!   is a `debug_assert!` pin, which release builds do not run.
//! - `record_all_into` reuses a caller-provided buffer: no allocation
//!   in the loop.
//! - Workspace growth happens only in `SimWorkspace::reset`, behind the
//!   setup boundary.
//! - `record_tiered` is monomorphized over a decision made *before*
//!   instantiation; the runtime body never consults the bitset.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The demand bitset (fixture copy of the real thing).
pub struct Demand(pub u32);

impl Demand {
    /// Bit test.
    #[must_use]
    pub fn contains(&self, bit: u32) -> bool {
        self.0 & bit != 0
    }
}

/// Resolve the tier once, outside the monomorphized kernels — the
/// legal place to read the bitset.
#[must_use]
pub fn plan_tail(demand: &Demand) -> bool {
    demand.contains(1)
}

/// Reusable per-run buffers.
pub struct SimWorkspace {
    /// Per-host completion clocks.
    pub free_at: Vec<f64>,
}

impl SimWorkspace {
    /// Shape the workspace for `hosts` hosts, keeping capacity — the
    /// only place the clock buffer may grow.
    pub fn reset(&mut self, hosts: usize) {
        self.free_at.clear();
        self.free_at.resize(hosts, 0.0);
    }
}

/// Marched-chain kernel with the reciprocal hoisted above the loop:
/// the annotation is honest because the divide is loop-weighted cold.
// dses-lint: divides(0)
pub fn march(sizes: &[f64], speed: f64, out: &mut [f64]) {
    let inv = 1.0 / speed;
    let mut clock = 0.0;
    for (s, o) in sizes.iter().zip(out) {
        clock += s * inv;
        *o = clock;
    }
}

/// Per-job slowdown from the caller's reciprocal: no divide per job.
// dses-lint: divides(0)
#[must_use]
pub fn slowdown(response: f64, size: f64, inv_size: f64) -> f64 {
    debug_assert_eq!(inv_size.to_bits(), (1.0 / size).to_bits());
    response * inv_size
}

/// Record path writing into a caller-owned buffer — nothing allocates
/// per job.
pub fn record_all_into(sizes: &[f64], out: &mut [f64]) {
    for (s, o) in sizes.iter().zip(out) {
        *o = *s;
    }
}

/// Assignment loop over the workspace: reset shapes the buffers at the
/// door (setup boundary), then one honest service divide per job.
// dses-lint: divides(1)
pub fn dispatch(ws: &mut SimWorkspace, sizes: &[f64], speed: f64) -> f64 {
    ws.reset(2);
    let mut last = 0.0;
    for &s in sizes {
        let h = pick(&ws.free_at);
        ws.free_at[h] += s / speed;
        last = ws.free_at[h];
    }
    last
}

/// Index of the earliest-free host (total order, no NaN surprises).
fn pick(free_at: &[f64]) -> usize {
    let mut best = 0;
    for (i, f) in free_at.iter().enumerate() {
        if f.total_cmp(&free_at[best]).is_lt() {
            best = i;
        }
    }
    best
}

/// Monomorphized record path: the tier was decided by
/// [`plan_tail`] before instantiation, so the body is branch-free on
/// demand state.
pub fn record_tiered<const TAIL: bool>(s: f64, acc: &mut f64) {
    *acc += s;
    if TAIL {
        *acc += s * s;
    }
}
