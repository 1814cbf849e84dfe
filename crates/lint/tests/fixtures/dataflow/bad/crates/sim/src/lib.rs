//! Bad dataflow fixture: each dataflow rule has one seeded violation.
//!
//! - `march` declares `divides(0)` but divides per iteration of the
//!   marched-chain loop (divide-budget), and `slowdown`, which has no
//!   loop of its own and so runs whole once per job, declares
//!   `divides(0)` but divides (divide-budget again).
//! - `record_all` constructs a `Vec` per job on the record path
//!   (loop-alloc).
//! - `dispatch` reaches `SimWorkspace::ensure`, which resizes a
//!   workspace buffer outside the reset path (grow-once).
//! - `record_tiered` is monomorphized over the demand tier yet re-reads
//!   the `Demand` bitset at runtime (demand-monomorphism).
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

/// Reusable per-run buffers.
pub struct SimWorkspace {
    /// Per-host completion clocks.
    pub free_at: Vec<f64>,
}

impl SimWorkspace {
    /// Shape the workspace for `hosts` hosts, keeping capacity.
    pub fn reset(&mut self, hosts: usize) {
        self.free_at.clear();
        self.free_at.resize(hosts, 0.0);
    }

    /// Grows the clock buffer mid-run — the grow-once violation.
    fn ensure(&mut self, hosts: usize) {
        if self.free_at.len() < hosts {
            self.free_at.resize(hosts, 0.0);
        }
    }
}

/// Marched-chain kernel that declares itself division-free but pays a
/// divide per job — the divide-budget violation.
// dses-lint: divides(0)
pub fn march(sizes: &[f64], speed: f64, out: &mut [f64]) {
    let mut clock = 0.0;
    for (s, o) in sizes.iter().zip(out) {
        clock += s / speed;
        *o = clock;
    }
}

/// Per-job slowdown that declares itself division-free, but divides:
/// with no loop of its own it runs once per job, so every divide in it
/// counts — the loop-free divide-budget violation.
// dses-lint: divides(0)
#[must_use]
pub fn slowdown(response: f64, size: f64) -> f64 {
    response / size
}

/// Record path that allocates one row per job — the loop-alloc
/// violation.
#[must_use]
pub fn record_all(sizes: &[f64]) -> Vec<Vec<f64>> {
    let mut rows = Vec::with_capacity(sizes.len());
    for &s in sizes {
        let mut row = Vec::new();
        row.push(s);
        rows.push(row);
    }
    rows
}

/// Assignment loop over the workspace: one honest service divide per
/// job, but it grows the workspace through [`SimWorkspace::ensure`] on
/// the way in.
// dses-lint: divides(1)
pub fn dispatch(ws: &mut SimWorkspace, sizes: &[f64], speed: f64) -> f64 {
    ws.ensure(2);
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

/// Monomorphized record path that re-reads the bitset the const
/// parameter was supposed to compile away — the demand-monomorphism
/// violation.
pub fn record_tiered<const TAIL: bool>(demand: &Demand, s: f64, acc: &mut f64) {
    if demand.contains(1) {
        *acc += s;
    }
    if TAIL {
        *acc += s * s;
    }
}
