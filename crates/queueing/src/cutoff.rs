//! Cutoff solvers: SITA-E, SITA-U-opt, SITA-U-fair.
//!
//! The cutoff is the whole policy (§4.1 — "what appear to just be
//! parameters of the task assignment policy can have a greater effect on
//! performance than anything else"):
//!
//! * **SITA-E** chooses cutoffs that *equalise load*:
//!   `E[X·1{c_{i−1} < X ≤ c_i}] = E[X]/h` for every host.
//! * **SITA-U-opt** chooses the 2-host cutoff *minimising mean slowdown*,
//!   searching the feasible set (both hosts stable).
//! * **SITA-U-fair** chooses the 2-host cutoff at which the expected
//!   slowdown of short jobs *equals* that of long jobs — the paper's
//!   fairness criterion.
//!
//! All three solvers work on any [`Distribution`]: closed-form partial
//! moments (BoundedPareto, Empirical) make them fast; others fall back to
//! the numeric defaults.

use crate::sita::{all_stable, edges, stable_queueing_slowdown, top_edge, Band};
use dses_dist::numeric;
use dses_dist::{Distribution, Rng64};
// dses-lint: allow(determinism) -- moment memo: keyed by exact bit patterns,
// entries only read back by key, never iterated, so hash order cannot reach a result
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Error from a cutoff solver.
#[derive(Debug, Clone, PartialEq)]
pub enum CutoffError {
    /// The system cannot be stabilised by any cutoff (offered work ≥
    /// capacity, or one job class alone overloads a host).
    Infeasible {
        /// total offered load `λ·E[X]` (in host-capacities)
        offered: f64,
    },
    /// The optimisation bracket collapsed (numerical failure), or the
    /// rule does not apply at the requested host count.
    SolveFailed(String),
    /// The arrival rate is not positive and finite — e.g. the realised
    /// rate of a trace with fewer than two jobs, which is 0 — so no
    /// load-dependent cutoff exists.
    InvalidRate {
        /// the rejected total arrival rate
        lambda: f64,
    },
    /// One job size carries so much of the load that two equal-load
    /// cutoffs land on it, leaving no strictly increasing SITA-E cutoffs —
    /// e.g. a log whose wall-clock cap many jobs run into.
    LoadAtom {
        /// the job size, to the solver's tolerance (10⁻¹⁰ of the mean)
        size: f64,
        /// the fraction of the total load jobs of this size carry
        load_share: f64,
    },
}

/// Accept an arrival rate the load-dependent cutoff rules can use
/// (positive and finite); anything else is [`CutoffError::InvalidRate`].
pub fn check_rate(lambda: f64) -> Result<(), CutoffError> {
    if lambda > 0.0 && lambda.is_finite() {
        Ok(())
    } else {
        Err(CutoffError::InvalidRate { lambda })
    }
}

impl std::fmt::Display for CutoffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CutoffError::Infeasible { offered } => {
                write!(f, "no stabilising cutoff exists (offered load {offered})")
            }
            CutoffError::SolveFailed(msg) => write!(f, "cutoff solve failed: {msg}"),
            CutoffError::InvalidRate { lambda } => {
                write!(f, "arrival rate {lambda} must be positive and finite")
            }
            CutoffError::LoadAtom { size, load_share } => write!(
                f,
                "jobs of size {size:.3} carry {:.1}% of the load, more than one \
                 host's equal share: equal-load cutoffs cannot separate the hosts",
                100.0 * load_share
            ),
        }
    }
}

impl std::error::Error for CutoffError {}

/// A memoizing view of a [`Distribution`] for cutoff solvers.
///
/// The solvers in this module hammer a tiny set of expensive queries —
/// `partial_moment(s)`, `prob_in`, `raw_moment`, `quantile` — at
/// *repeated* arguments: the searches re-evaluate bands whose edges did
/// not move (the fair water-filling replays near-identical placements,
/// and a descent re-analyses the band it just settled), and
/// `raw_moment(1)` is recomputed on every one of the hundreds of
/// objective evaluations in a single solve. For
/// distributions without closed-form moments (e.g. [`dses_dist::Empirical`]
/// built from a trace, or any [`Distribution`] falling back to the
/// quantile-space quadrature defaults) each repeat costs hundreds of
/// quantile evaluations.
///
/// `TruncatedMoments` wraps a borrowed distribution and caches those four
/// queries keyed by their *exact bit patterns* (`f64::to_bits`), so a hit
/// returns the identical `f64` the underlying distribution produced —
/// routing a solver through the cache cannot change a single bit of its
/// answer. The batched `partial_moments` shares the per-order
/// `partial_moment` table: each order hits or misses on its own, and all
/// misses of one call go to the inner distribution as one
/// `partial_moments` call (one quadrature sweep for a band, not one per
/// order). Every other trait method delegates straight to the inner
/// distribution (including the ones with provided defaults, so an inner
/// override is never shadowed by a recomposed default).
///
/// Interior mutability is a [`Mutex`] per memo table: the `Distribution`
/// trait is `Send + Sync` and the experiment grids solve cutoffs from
/// many threads. Contention is negligible — the tables are consulted at
/// solver cadence (microseconds between queries), not in simulation hot
/// loops.
#[derive(Debug)]
pub struct TruncatedMoments<'a, D: Distribution + ?Sized> {
    inner: &'a D,
    partial: Mutex<MomentMap<(i32, u64, u64)>>,
    prob: Mutex<MomentMap<(u64, u64)>>,
    raw: Mutex<MomentMap<i32>>,
    quantiles: Mutex<MomentMap<u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// FxHash-style multiply-xor hasher for the memo tables. The keys are
/// `f64` bit patterns and small integers — already well spread — and the
/// guarded computations can be as cheap as a closed-form Pareto moment,
/// so the default SipHash would cost a visible fraction of what the
/// cache saves.
#[derive(Default)]
struct MomentKeyHasher(u64);

impl std::hash::Hasher for MomentKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_i32(&mut self, n: i32) {
        self.write_u64(n as u32 as u64);
    }
}

// dses-lint: allow(determinism) -- same invariant as above: lookups only, no iteration
type MomentMap<K> = HashMap<K, f64, std::hash::BuildHasherDefault<MomentKeyHasher>>;

impl<'a, D: Distribution + ?Sized> TruncatedMoments<'a, D> {
    /// Wrap `inner` with empty memo tables.
    #[must_use]
    pub fn new(inner: &'a D) -> Self {
        Self {
            inner,
            partial: Mutex::new(MomentMap::default()),
            prob: Mutex::new(MomentMap::default()),
            raw: Mutex::new(MomentMap::default()),
            quantiles: Mutex::new(MomentMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// `(hits, misses)` across all four memo tables so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    fn memo<K: std::hash::Hash + Eq + Copy>(
        &self,
        table: &Mutex<MomentMap<K>>,
        key: K,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        // One hash, one lock: `entry` computes under the lock, which is
        // safe (the inner distribution never re-enters the cache) and
        // uncontended (each solve owns its own wrapper).
        // dses-lint: allow(panic-hygiene) -- single-threaded per wrapper; poisoning is unreachable
        match table.lock().unwrap().entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                *e.get()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                *e.insert(compute())
            }
        }
    }
}

impl<D: Distribution + ?Sized> Distribution for TruncatedMoments<'_, D> {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.inner.sample(rng)
    }
    fn support(&self) -> (f64, f64) {
        self.inner.support()
    }
    fn cdf(&self, x: f64) -> f64 {
        self.inner.cdf(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.memo(&self.quantiles, p.to_bits(), || self.inner.quantile(p))
    }
    fn raw_moment(&self, k: i32) -> f64 {
        self.memo(&self.raw, k, || self.inner.raw_moment(k))
    }
    fn mean(&self) -> f64 {
        self.raw_moment(1)
    }
    fn variance(&self) -> f64 {
        self.inner.variance()
    }
    fn scv(&self) -> f64 {
        self.inner.scv()
    }
    fn prob_in(&self, a: f64, b: f64) -> f64 {
        self.memo(&self.prob, (a.to_bits(), b.to_bits()), || self.inner.prob_in(a, b))
    }
    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        self.memo(&self.partial, (k, a.to_bits(), b.to_bits()), || {
            self.inner.partial_moment(k, a, b)
        })
    }
    /// Answers each order from the same per-order memo as
    /// `partial_moment`, and fills every miss of a call with one inner
    /// `partial_moments` call — a cold band costs the inner distribution
    /// one quadrature sweep, not one per order.
    fn partial_moments(&self, ks: &[i32], a: f64, b: f64, out: &mut [f64]) {
        assert_eq!(ks.len(), out.len(), "one output slot per order");
        const CHUNK: usize = 8;
        let (ab, bb) = (a.to_bits(), b.to_bits());
        // dses-lint: allow(panic-hygiene) -- single-threaded per wrapper; poisoning is unreachable
        let mut table = self.partial.lock().unwrap();
        for (ks, out) in ks.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            // the missed orders and the output slots they fill
            let (mut orders, mut slots, mut misses) = ([0i32; CHUNK], [0usize; CHUNK], 0);
            for (j, (&k, o)) in ks.iter().zip(out.iter_mut()).enumerate() {
                if let Some(&v) = table.get(&(k, ab, bb)) {
                    *o = v;
                } else {
                    orders[misses] = k;
                    slots[misses] = j;
                    misses += 1;
                }
            }
            self.hits.fetch_add((ks.len() - misses) as u64, Ordering::Relaxed);
            self.misses.fetch_add(misses as u64, Ordering::Relaxed);
            if misses == 0 {
                continue;
            }
            let mut vals = [0.0; CHUNK];
            self.inner
                .partial_moments(&orders[..misses], a, b, &mut vals[..misses]);
            for ((&k, &j), &v) in orders.iter().zip(&slots).zip(&vals).take(misses) {
                out[j] = v;
                table.insert((k, ab, bb), v);
            }
        }
    }
    fn conditional_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        // recompose from the memoized pieces — identical arithmetic to
        // the trait default, now cache-backed
        let p = self.prob_in(a, b);
        if p <= 0.0 {
            0.0
        } else {
            self.partial_moment(k, a, b) / p
        }
    }
    fn tail_load_fraction(&self, x: f64) -> f64 {
        let (_, hi) = self.support();
        let m = self.mean();
        if m <= 0.0 {
            return 0.0;
        }
        (self.partial_moment(1, x, hi) / m).clamp(0.0, 1.0)
    }
    fn closed_form_moments(&self) -> bool {
        self.inner.closed_form_moments()
    }
}

/// Test-support constructor shared across the crate's test modules: the
/// calibrated body–tail C90 stand-in.
#[doc(hidden)]
#[cfg(test)]
pub(crate) fn tests_support_c90ish() -> dses_dist::Mixture {
    dses_dist::fit::fit_body_tail(dses_dist::fit::BodyTailTargets {
        mean: 4562.0,
        scv: 43.0,
        min: 60.0,
        max: 2.22e6,
        tail_jobs: 0.013,
        tail_load: 0.5,
    })
    .unwrap()
}

/// SITA-E cutoffs for `h` hosts: each host receives exactly `1/h` of the
/// total load. Independent of the arrival rate.
///
/// Returns `h − 1` strictly increasing interior cutoffs, or
/// [`CutoffError::LoadAtom`] when one job size carries so much load that
/// two of them would coincide.
pub fn sita_e_cutoffs<D: Distribution + ?Sized>(
    dist: &D,
    hosts: usize,
) -> Result<Vec<f64>, CutoffError> {
    if hosts == 0 {
        return Err(CutoffError::SolveFailed(
            "SITA-E needs at least one host (got 0)".to_string(),
        ));
    }
    let (lo, hi) = dist.support();
    let m1 = dist.raw_moment(1);
    let hi_finite = if hi.is_finite() { hi } else { dist.quantile(1.0 - 1e-12) };
    let tol = 1e-10 * m1.max(1.0);
    let mut cutoffs: Vec<f64> = Vec::with_capacity(hosts - 1);
    for i in 1..hosts {
        let target = m1 * i as f64 / hosts as f64;
        let f = |c: f64| dist.partial_moment(1, 0.0, c) - target;
        let c = numeric::bisect(f, lo, hi_finite, tol)
            .map_err(|e| CutoffError::SolveFailed(format!("SITA-E host {i}: {e}")))?;
        if cutoffs.last().is_some_and(|&prev| c <= prev) {
            // both targets fall in one jump of the load curve: an atom,
            // which the bisection brackets to within `tol` of `c`
            return Err(CutoffError::LoadAtom {
                size: c,
                load_share: dist.partial_moment(1, c - tol, c + tol) / m1,
            });
        }
        cutoffs.push(c);
    }
    Ok(cutoffs)
}

/// The feasible 2-host cutoff interval `(c_lo, c_hi)`: all cutoffs where
/// *both* hosts are stable (`ρ₁ < 1` and `ρ₂ < 1`).
fn feasible_interval<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
) -> Result<(f64, f64), CutoffError> {
    check_rate(lambda)?;
    let (lo, hi) = dist.support();
    let hi_finite = if hi.is_finite() { hi } else { dist.quantile(1.0 - 1e-12) };
    let m1 = dist.raw_moment(1);
    let offered = lambda * m1;
    if offered >= 2.0 {
        return Err(CutoffError::Infeasible { offered });
    }
    // rho1(c) = λ·E[X;X≤c] increases 0 → offered; rho2(c) decreases
    // offered → 0.
    let rho1 = |c: f64| lambda * dist.partial_moment(1, 0.0, c);
    let rho2 = |c: f64| lambda * dist.partial_moment(1, c, hi_finite * (1.0 + 1e-12));
    // c_hi: largest c with rho1 < 1
    let c_hi = if offered < 1.0 {
        hi_finite
    } else {
        numeric::bisect(|c| rho1(c) - (1.0 - 1e-9), lo, hi_finite, 1e-12 * hi_finite)
            .map_err(|e| CutoffError::SolveFailed(format!("rho1 bracket: {e}")))?
    };
    // c_lo: smallest c with rho2 < 1
    let c_lo = if offered < 1.0 {
        lo
    } else {
        numeric::bisect(|c| rho2(c) - (1.0 - 1e-9), lo, hi_finite, 1e-12 * hi_finite)
            .map_err(|e| CutoffError::SolveFailed(format!("rho2 bracket: {e}")))?
    };
    if c_lo >= c_hi {
        return Err(CutoffError::Infeasible { offered });
    }
    Ok((c_lo, c_hi))
}

/// The two hosts of the 2-host SITA system split at `c`, the upper one
/// reaching `top` (see [`top_edge`]).
fn two_bands<D: Distribution + ?Sized>(dist: &D, lambda: f64, c: f64, top: f64) -> [Band; 2] {
    [
        Band::of(dist, lambda, 1.0, 0.0, c),
        Band::of(dist, lambda, 1.0, c, top),
    ]
}

/// SITA-U-opt: the 2-host cutoff minimising mean slowdown at total
/// arrival rate `lambda`.
///
/// A log-spaced grid scan locates the basin (the objective need not be
/// unimodal in general), then golden-section search refines it.
pub fn sita_u_opt_cutoff<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
) -> Result<f64, CutoffError> {
    let (c_lo, c_hi) = feasible_interval(dist, lambda)?;
    // mean queueing slowdown — the +1 of the response convention does not
    // move the argmin — with `SitaAnalysis::analyze`'s bits
    let top = top_edge(dist);
    let objective = |c: f64| stable_queueing_slowdown(&two_bands(dist, lambda, c, top));
    let c_lo = c_lo.max(1e-300);
    let (llo, lhi) = (c_lo.ln(), c_hi.ln());
    const GRID: usize = 160;
    let mut best_i = 0;
    let mut best_v = f64::INFINITY;
    for i in 0..=GRID {
        let c = (llo + (lhi - llo) * i as f64 / GRID as f64).exp();
        let v = objective(c);
        if v < best_v {
            best_v = v;
            best_i = i;
        }
    }
    if !best_v.is_finite() {
        return Err(CutoffError::SolveFailed(
            "objective infinite across feasible grid".to_string(),
        ));
    }
    let bracket_lo = (llo + (lhi - llo) * best_i.saturating_sub(1) as f64 / GRID as f64).exp();
    let bracket_hi = (llo + (lhi - llo) * (best_i + 1).min(GRID) as f64 / GRID as f64).exp();
    let c = numeric::golden_section_min(objective, bracket_lo, bracket_hi, 1e-9 * bracket_hi);
    Ok(c)
}

/// SITA-U-fair: the 2-host cutoff at which short jobs and long jobs
/// experience the *same* expected slowdown.
///
/// `g(c) = E[S | short](c) − E[S | long](c)` is negative near the bottom
/// of the feasible interval (short host nearly idle) and positive near
/// the top (short host nearly saturated); bisection finds the root.
pub fn sita_u_fair_cutoff<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
) -> Result<f64, CutoffError> {
    let (c_lo, c_hi) = feasible_interval(dist, lambda)?;
    let top = top_edge(dist);
    let gap = |c: f64| {
        let [short, long] = two_bands(dist, lambda, c, top);
        if !all_stable(&[short, long]) {
            return f64::NAN;
        }
        // hosts with zero mass report 0 slowdown; treat as perfectly fair
        short.mean_queueing_slowdown - long.mean_queueing_slowdown
    };
    // shrink slightly inside the interval to avoid the unstable endpoints
    let span = c_hi - c_lo;
    let mut a = c_lo + 1e-9 * span;
    let mut b = c_hi - 1e-9 * span;
    // Expand/verify the sign change; sample inward if endpoints are NaN.
    let mut ga = gap(a);
    let mut gb = gap(b);
    for _ in 0..60 {
        if ga.is_finite() && gb.is_finite() {
            break;
        }
        if !ga.is_finite() {
            a = a + 0.05 * (b - a);
            ga = gap(a);
        }
        if !gb.is_finite() {
            b = b - 0.05 * (b - a);
            gb = gap(b);
        }
    }
    if !(ga.is_finite() && gb.is_finite()) {
        return Err(CutoffError::SolveFailed(
            "fairness gap undefined on feasible interval".to_string(),
        ));
    }
    if ga > 0.0 || gb < 0.0 {
        // No crossing: fall back to the least-unfair point on a grid.
        let (llo, lhi) = (a.max(1e-300).ln(), b.ln());
        let mut best_c = a;
        let mut best = f64::INFINITY;
        for i in 0..=200 {
            let c = (llo + (lhi - llo) * i as f64 / 200.0).exp();
            let g = gap(c);
            if g.is_finite() && g.abs() < best {
                best = g.abs();
                best_c = c;
            }
        }
        return Ok(best_c);
    }
    numeric::bisect(gap, a, b, 1e-10 * b)
        .map_err(|e| CutoffError::SolveFailed(format!("fairness bisection: {e}")))
}

/// Multi-host SITA-U-opt: `h − 1` cutoffs minimising mean slowdown, by
/// cyclic coordinate descent in log-cutoff space from the SITA-E start
/// (which is always feasible when the system is underloaded).
///
/// The paper sidesteps this search ("the search space for the optimal
/// and fair cutoffs becomes much larger making the search
/// computationally expensive", §5) and substitutes the grouped policy;
/// with closed-form partial moments each objective evaluation is
/// microseconds and the full search is easily affordable — an extension
/// this reproduction adds.
pub fn sita_u_opt_cutoffs_multi<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    hosts: usize,
) -> Result<Vec<f64>, CutoffError> {
    if hosts < 2 {
        return Err(CutoffError::SolveFailed(format!(
            "SITA-U-opt needs at least 2 hosts (got {hosts})"
        )));
    }
    check_rate(lambda)?;
    // Coordinate descent re-evaluates bands whose edges did not move on
    // every sweep. For quadrature-fallback distributions the memoizing
    // view collapses those repeats; when every moment resolves in closed
    // form the recompute is cheaper than the memo's hash+lock, so skip
    // the wrapper. Both paths are bit-identical — the memo caches exact
    // values (`tests::memo_bypass_is_bit_identical`).
    if dist.closed_form_moments() {
        sita_u_opt_cutoffs_multi_impl(dist, lambda, hosts)
    } else {
        sita_u_opt_cutoffs_multi_impl(&TruncatedMoments::new(dist), lambda, hosts)
    }
}

fn sita_u_opt_cutoffs_multi_impl<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    hosts: usize,
) -> Result<Vec<f64>, CutoffError> {
    let offered = lambda * dist.raw_moment(1);
    if offered >= hosts as f64 {
        return Err(CutoffError::Infeasible { offered });
    }
    let mut cutoffs = sita_e_cutoffs(dist, hosts)?;
    let (sup_lo, sup_hi) = dist.support();
    let sup_hi = if sup_hi.is_finite() { sup_hi } else { dist.quantile(1.0 - 1e-12) };
    let band = |a: f64, b: f64| Band::of(dist, lambda, 1.0, a, b);
    // The hosts of the current cutoffs. Moving cutoff `i` changes only
    // bands `i` and `i + 1`, so a trial re-analyses those two and reuses
    // the rest: the objective is bit-identical to `analyze` on the trial
    // cutoffs (same bands, summed in the same order).
    let mut bank: Vec<Band> =
        edges(dist, &cutoffs).windows(2).map(|w| band(w[0], w[1])).collect();
    let mut best = stable_queueing_slowdown(&bank);
    for _sweep in 0..12 {
        let before = best;
        for i in 0..cutoffs.len() {
            let lo = if i == 0 { sup_lo * (1.0 + 1e-9) } else { cutoffs[i - 1] * (1.0 + 1e-9) };
            let hi = if i + 1 == cutoffs.len() {
                sup_hi * (1.0 - 1e-9)
            } else {
                cutoffs[i + 1] * (1.0 - 1e-9)
            };
            if !(lo < hi) {
                continue;
            }
            // the fixed outer edges of the two bands cutoff `i` separates
            let (left, right) = (bank[i].interval.0, bank[i + 1].interval.1);
            let objective = |c: f64| {
                let pair = [band(left, c), band(c, right)];
                stable_queueing_slowdown(bank[..i].iter().chain(&pair).chain(&bank[i + 2..]))
            };
            // coarse log grid + golden refinement on this coordinate
            let (llo, lhi) = (lo.ln(), hi.ln());
            let mut best_c = cutoffs[i];
            let mut best_v = best;
            const GRID: usize = 48;
            for g in 0..=GRID {
                let c = (llo + (lhi - llo) * g as f64 / GRID as f64).exp();
                let v = objective(c);
                if v < best_v {
                    best_v = v;
                    best_c = c;
                }
            }
            let span = (lhi - llo) / GRID as f64;
            let refine_lo = (best_c.ln() - span).exp().max(lo);
            let refine_hi = (best_c.ln() + span).exp().min(hi);
            let refined = dses_dist_golden(objective, refine_lo, refine_hi);
            let v = objective(refined);
            if v < best_v {
                best_v = v;
                best_c = refined;
            }
            cutoffs[i] = best_c;
            bank[i] = band(left, best_c);
            bank[i + 1] = band(best_c, right);
            best = best_v;
        }
        if before - best < 1e-9 * before.abs().max(1e-9) {
            break;
        }
    }
    Ok(cutoffs)
}

fn dses_dist_golden<F: FnMut(f64) -> f64>(f: F, lo: f64, hi: f64) -> f64 {
    numeric::golden_section_min(f, lo, hi, 1e-9 * hi.max(1.0))
}

/// Multi-host SITA-U-fair, by **water-filling**: parameterise the system
/// by the common target slowdown `s*`, build the cutoffs left-to-right so
/// each host's expected slowdown equals `s*` (each step is a monotone
/// 1-D root-find), and bisect on `s*` until the *last* host — which
/// receives whatever remains — also lands on `s*`.
///
/// The residual `s_last(s*) − s*` is strictly decreasing in `s*`
/// (raising the target pushes every cutoff right, shrinking the tail
/// band), so the outer bisection is unconditionally convergent. With
/// closed-form partial moments the whole solve is milliseconds even for
/// dozens of hosts — the search the paper set aside as computationally
/// expensive (§5).
pub fn sita_u_fair_cutoffs_multi<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    hosts: usize,
) -> Result<Vec<f64>, CutoffError> {
    if hosts < 2 {
        return Err(CutoffError::SolveFailed(format!(
            "SITA-U-fair needs at least 2 hosts (got {hosts})"
        )));
    }
    check_rate(lambda)?;
    // Water-filling's outer bisection replays near-identical band edges
    // across placements; the memoizing view collapses the repeats — but
    // only pays off when a repeat is expensive. Closed-form moments go
    // straight to the distribution (bit-identical either way).
    if dist.closed_form_moments() {
        sita_u_fair_cutoffs_multi_impl(dist, lambda, hosts)
    } else {
        sita_u_fair_cutoffs_multi_impl(&TruncatedMoments::new(dist), lambda, hosts)
    }
}

fn sita_u_fair_cutoffs_multi_impl<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    hosts: usize,
) -> Result<Vec<f64>, CutoffError> {
    let offered = lambda * dist.raw_moment(1);
    if offered >= hosts as f64 {
        return Err(CutoffError::Infeasible { offered });
    }
    let (_, sup_hi) = dist.support();
    let sup_hi = if sup_hi.is_finite() { sup_hi } else { dist.quantile(1.0 - 1e-12) };

    // Queueing slowdown of a host serving the size band (a, b]: 0 when
    // it receives no jobs, +∞ when it is unstable.
    let band_slowdown = |a: f64, b: f64| -> f64 {
        let band = Band::of(dist, lambda, 1.0, a, b);
        if band.rho < 1.0 {
            band.mean_queueing_slowdown
        } else {
            f64::INFINITY
        }
    };

    // Given a target s*, place cutoffs left-to-right; returns
    // (cutoffs, s_last). `None` cutoff placement means even the whole
    // remaining support cannot reach s* — the remaining hosts sit idle,
    // which the outer bisection reads as "target too high".
    let place = |s_star: f64| -> (Vec<f64>, f64) {
        let mut cutoffs = Vec::with_capacity(hosts - 1);
        let mut prev = 0.0f64;
        for _ in 0..hosts - 1 {
            let f = |c: f64| {
                let s = band_slowdown(prev, c);
                if s.is_finite() {
                    s - s_star
                } else {
                    // unstable band: far above any target
                    f64::MAX
                }
            };
            let lo = prev.max(dist.support().0) * (1.0 + 1e-12);
            let hi = sup_hi * (1.0 - 1e-12);
            if !(lo < hi) || f(hi) < 0.0 {
                // even taking everything, this host stays under s*;
                // all remaining mass goes here, later hosts idle
                cutoffs.push(hi.min(sup_hi));
                prev = hi;
                continue;
            }
            let c = numeric::bisect(f, lo, hi, 1e-12 * sup_hi).unwrap_or(hi);
            cutoffs.push(c);
            prev = c;
        }
        let s_last = band_slowdown(prev, sup_hi * (1.0 + 1e-12));
        (cutoffs, s_last)
    };

    // Outer bisection on ln s*: residual s_last − s* is decreasing.
    let residual = |s_star: f64| -> f64 {
        let (_, s_last) = place(s_star);
        if s_last.is_finite() {
            s_last - s_star
        } else {
            f64::MAX
        }
    };
    let mut lo_s: f64 = 1e-9;
    let mut hi_s: f64 = 1e12;
    if residual(lo_s) < 0.0 {
        // system so underloaded that even s* ≈ 0 leaves the tail idle
        let (cutoffs, _) = place(lo_s);
        return Ok(dedup_cutoffs(cutoffs));
    }
    for _ in 0..200 {
        let mid = ((lo_s.ln() + hi_s.ln()) * 0.5).exp();
        let r = residual(mid);
        if r > 0.0 {
            lo_s = mid;
        } else {
            hi_s = mid;
        }
        if hi_s / lo_s < 1.0 + 1e-10 {
            break;
        }
    }
    let (cutoffs, _) = place(0.5 * (lo_s + hi_s));
    let cutoffs = dedup_cutoffs(cutoffs);
    if cutoffs.is_empty() || !cutoffs.windows(2).all(|w| w[0] < w[1]) {
        return Err(CutoffError::SolveFailed(
            "water-filling produced degenerate cutoffs".to_string(),
        ));
    }
    Ok(cutoffs)
}

/// Collapse any repeated/degenerate cutoffs produced when trailing hosts
/// end up idle (extreme underload): keep them strictly increasing by
/// nudging duplicates apart within the support.
fn dedup_cutoffs(mut cutoffs: Vec<f64>) -> Vec<f64> {
    for i in 1..cutoffs.len() {
        if cutoffs[i] <= cutoffs[i - 1] {
            cutoffs[i] = cutoffs[i - 1] * (1.0 + 1e-9);
        }
    }
    cutoffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sita::SitaAnalysis;
    use dses_dist::prelude::*;

    /// A C90-like body–tail workload (the regime the paper studies).
    fn c90ish() -> Mixture {
        dses_dist::fit::fit_body_tail(dses_dist::fit::BodyTailTargets {
            mean: 4562.0,
            scv: 43.0,
            min: 60.0,
            max: 2.22e6,
            tail_jobs: 0.013,
            tail_load: 0.5,
        })
        .unwrap()
    }

    #[test]
    fn sita_e_equalises_load_two_hosts() {
        let d = c90ish();
        let c = sita_e_cutoffs(&d, 2).unwrap();
        assert_eq!(c.len(), 1);
        let below = d.partial_moment(1, 0.0, c[0]);
        assert!((below / d.mean() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn sita_e_four_hosts_quartiles_of_load() {
        let d = c90ish();
        let cs = sita_e_cutoffs(&d, 4).unwrap();
        assert_eq!(cs.len(), 3);
        assert!(cs.windows(2).all(|w| w[0] < w[1]));
        for (i, &c) in cs.iter().enumerate() {
            let frac = d.partial_moment(1, 0.0, c) / d.mean();
            assert!((frac - (i + 1) as f64 / 4.0).abs() < 1e-6, "cutoff {i}");
        }
    }

    #[test]
    fn sita_e_single_host_is_empty() {
        let d = c90ish();
        assert!(sita_e_cutoffs(&d, 1).unwrap().is_empty());
    }

    #[test]
    fn u_opt_beats_sita_e() {
        let d = c90ish();
        for &rho in &[0.3, 0.5, 0.7] {
            let lambda = 2.0 * rho / d.mean();
            let e = sita_e_cutoffs(&d, 2).unwrap()[0];
            let opt = sita_u_opt_cutoff(&d, lambda).unwrap();
            let s_e = SitaAnalysis::analyze(&d, lambda, &[e]).mean_slowdown;
            let s_o = SitaAnalysis::analyze(&d, lambda, &[opt]).mean_slowdown;
            assert!(
                s_o <= s_e * (1.0 + 1e-9),
                "rho={rho}: opt {s_o} vs E {s_e}"
            );
        }
    }

    #[test]
    fn u_opt_underloads_short_host() {
        // the paper's headline: the optimal split sends *less* than half
        // the load to the short-job host
        let d = c90ish();
        let rho = 0.7;
        let lambda = 2.0 * rho / d.mean();
        let opt = sita_u_opt_cutoff(&d, lambda).unwrap();
        let a = SitaAnalysis::analyze(&d, lambda, &[opt]);
        assert!(
            a.load_fraction(0) < 0.5,
            "load fraction to host 1 = {}",
            a.load_fraction(0)
        );
    }

    #[test]
    fn u_fair_equalises_class_slowdowns() {
        let d = c90ish();
        let rho = 0.6;
        let lambda = 2.0 * rho / d.mean();
        let c = sita_u_fair_cutoff(&d, lambda).unwrap();
        let a = SitaAnalysis::analyze(&d, lambda, &[c]);
        let short = a.hosts[0].mean_queueing_slowdown;
        let long = a.hosts[1].mean_queueing_slowdown;
        assert!(
            (short - long).abs() / long.max(1e-12) < 1e-3,
            "short {short} vs long {long}"
        );
    }

    #[test]
    fn u_fair_close_to_u_opt_in_performance() {
        // paper §4.2: "SITA-U-fair is only a slight bit worse than
        // SITA-U-opt"
        let d = c90ish();
        let rho = 0.7;
        let lambda = 2.0 * rho / d.mean();
        let opt = sita_u_opt_cutoff(&d, lambda).unwrap();
        let fair = sita_u_fair_cutoff(&d, lambda).unwrap();
        let s_opt = SitaAnalysis::analyze(&d, lambda, &[opt]).mean_queueing_slowdown;
        let s_fair = SitaAnalysis::analyze(&d, lambda, &[fair]).mean_queueing_slowdown;
        assert!(s_fair >= s_opt * (1.0 - 1e-9));
        assert!(s_fair < 3.0 * s_opt, "fair {s_fair} vs opt {s_opt}");
    }

    #[test]
    fn infeasible_when_overloaded() {
        let d = c90ish();
        let lambda = 2.5 / d.mean(); // offered load 2.5 > 2 hosts
        assert!(matches!(
            sita_u_opt_cutoff(&d, lambda),
            Err(CutoffError::Infeasible { .. })
        ));
        assert!(matches!(
            sita_u_fair_cutoff(&d, lambda),
            Err(CutoffError::Infeasible { .. })
        ));
    }

    #[test]
    fn high_load_feasible_interval_respected() {
        // offered load 1.8: each host alone would be overloaded, so the
        // cutoff must keep both below 1
        let d = c90ish();
        let lambda = 1.8 / d.mean();
        let opt = sita_u_opt_cutoff(&d, lambda).unwrap();
        let a = SitaAnalysis::analyze(&d, lambda, &[opt]);
        assert!(a.is_stable());
        let fair = sita_u_fair_cutoff(&d, lambda).unwrap();
        let af = SitaAnalysis::analyze(&d, lambda, &[fair]);
        assert!(af.is_stable());
    }

    #[test]
    fn truncated_moments_is_bit_identical_to_the_raw_distribution() {
        let d = c90ish();
        let cached = TruncatedMoments::new(&d);
        let probes = [60.0, 500.0, 4562.0, 1.0e5, 2.0e6];
        // ask everything twice: the second pass answers from the cache
        for _ in 0..2 {
            for k in [-1i32, 1, 2] {
                assert_eq!(cached.raw_moment(k), d.raw_moment(k), "raw k={k}");
            }
            for &a in &probes {
                for &b in &probes {
                    assert_eq!(cached.prob_in(a, b), d.prob_in(a, b));
                    assert_eq!(
                        cached.partial_moment(1, a, b),
                        d.partial_moment(1, a, b)
                    );
                    assert_eq!(
                        cached.conditional_moment(2, a, b),
                        d.conditional_moment(2, a, b)
                    );
                }
            }
            for &p in &[0.01, 0.5, 0.987, 1.0 - 1e-12] {
                assert_eq!(cached.quantile(p), d.quantile(p));
            }
            assert_eq!(cached.mean(), d.mean());
            assert_eq!(cached.variance(), d.variance());
            assert_eq!(cached.tail_load_fraction(1.0e5), d.tail_load_fraction(1.0e5));
        }
        let (hits, misses) = cached.stats();
        assert!(hits > 0, "second pass must hit the cache");
        assert!(misses > 0);
    }

    #[test]
    fn truncated_moments_caches_solver_workloads() {
        // a full 2-host solve through the cache returns the same cutoff
        // as the raw distribution, and a repeat solve is answered from
        // the memo tables alone (a single opt solve repeats no query)
        let d = c90ish();
        let lambda = 1.2 / d.mean();
        let raw = sita_u_opt_cutoff(&d, lambda).unwrap();
        let cached = TruncatedMoments::new(&d);
        let memoized = sita_u_opt_cutoff(&cached, lambda).unwrap();
        assert_eq!(raw.to_bits(), memoized.to_bits());
        let (hits, misses) = cached.stats();
        let warm = sita_u_opt_cutoff(&cached, lambda).unwrap();
        assert_eq!(raw.to_bits(), warm.to_bits());
        let (warm_hits, warm_misses) = cached.stats();
        assert_eq!(warm_misses, misses, "a warm solve misses nothing");
        assert!(warm_hits > hits, "solver should reuse cached moments");

        let raw_fair = sita_u_fair_cutoff(&d, lambda).unwrap();
        let cached_fair = TruncatedMoments::new(&d);
        let memoized_fair = sita_u_fair_cutoff(&cached_fair, lambda).unwrap();
        assert_eq!(raw_fair.to_bits(), memoized_fair.to_bits());
    }

    #[test]
    fn memo_bypass_is_bit_identical() {
        // The multi-host solvers route closed-form distributions around
        // the memo. Force both paths over the same distribution and
        // assert every cutoff matches to the bit.
        let d = c90ish();
        assert!(d.closed_form_moments(), "c90 mixture resolves in closed form");
        let hosts = 4;
        let lambda = 0.7 * hosts as f64 / d.mean();
        // direct path (the public entry point sees closed_form_moments)
        let direct_opt = sita_u_opt_cutoffs_multi(&d, lambda, hosts).unwrap();
        let direct_fair = sita_u_fair_cutoffs_multi(&d, lambda, hosts).unwrap();
        // memoized path, forced by calling the impl through the wrapper
        let memo = TruncatedMoments::new(&d);
        let memo_opt = sita_u_opt_cutoffs_multi_impl(&memo, lambda, hosts).unwrap();
        let memo_fair = sita_u_fair_cutoffs_multi_impl(&memo, lambda, hosts).unwrap();
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&direct_opt), bits(&memo_opt));
        assert_eq!(bits(&direct_fair), bits(&memo_fair));
        let (hits, _) = memo.stats();
        assert!(hits > 0, "memoized path should actually consult the cache");
    }

    #[test]
    fn quadrature_fallback_dists_keep_the_memo() {
        // Erlang has no closed-form partial moment: the memo must stay.
        let erl = Erlang::new(3, 0.5).unwrap();
        assert!(!erl.closed_form_moments());
        // and a mixture inherits the weakest component
        let mixed = Mixture::new(vec![
            (0.5, Box::new(Erlang::new(2, 1.0).unwrap()) as Box<dyn Distribution>),
            (0.5, Box::new(Exponential::with_mean(1.0).unwrap())),
        ])
        .unwrap();
        assert!(!mixed.closed_form_moments());
        assert!(c90ish().closed_form_moments());
    }

    #[test]
    fn a_size_carrying_most_of_the_load_stops_sita_e_with_a_typed_error() {
        // every 10th job runs into a 12-hour wall-clock cap: that one size
        // carries ~73% of the load, more than any host's equal share
        let sizes: Vec<f64> = (0..1_000)
            .map(|i| if i % 10 == 9 { 43_200.0 } else { 60.0 + (i * 37 % 3_541) as f64 })
            .collect();
        let d = Empirical::from_values(&sizes).unwrap();
        let share = d.partial_moment(1, 43_199.0, 43_200.0) / d.mean();
        assert!(share > 0.7, "share {share}");
        // two hosts take one cutoff, which cannot collide
        assert_eq!(sita_e_cutoffs(&d, 2).unwrap().len(), 1);
        for hosts in [4, 16] {
            let lambda = 0.7 * hosts as f64 / d.mean();
            for (rule, got) in [
                ("EqualLoad", sita_e_cutoffs(&d, hosts)),
                ("OptSlowdown", sita_u_opt_cutoffs_multi(&d, lambda, hosts)),
            ] {
                match got {
                    Err(CutoffError::LoadAtom { size, load_share }) => {
                        assert!((size - 43_200.0).abs() < 1e-3, "{rule} h={hosts}: {size}");
                        assert_eq!(load_share, share, "{rule} h={hosts}");
                    }
                    other => panic!("{rule} h={hosts}: {other:?}"),
                }
            }
            // water-filling needs no equal-load start
            let fair = sita_u_fair_cutoffs_multi(&d, lambda, hosts).unwrap();
            assert_eq!(fair.len(), hosts - 1);
            assert!(fair.windows(2).all(|w| w[0] < w[1]), "Fair h={hosts}: {fair:?}");
        }
        let msg = sita_e_cutoffs(&d, 4).unwrap_err().to_string();
        assert!(msg.contains(&format!("size 43200.000 carry {:.1}%", 100.0 * share)), "{msg}");
    }

    #[test]
    fn works_for_empirical_distribution() {
        // the paper computes experimental cutoffs directly from trace data
        let mut rng = Rng64::seed_from(21);
        let bp = c90ish();
        let sample: Vec<f64> = (0..20_000).map(|_| bp.sample(&mut rng)).collect();
        let emp = Empirical::from_values(&sample).unwrap();
        let lambda = 1.2 / emp.mean();
        let e = sita_e_cutoffs(&emp, 2).unwrap()[0];
        let opt = sita_u_opt_cutoff(&emp, lambda).unwrap();
        let s_e = SitaAnalysis::analyze(&emp, lambda, &[e]).mean_queueing_slowdown;
        let s_o = SitaAnalysis::analyze(&emp, lambda, &[opt]).mean_queueing_slowdown;
        assert!(s_o <= s_e * (1.0 + 1e-9), "opt {s_o} vs E {s_e}");
    }
}

#[cfg(test)]
mod multi_tests {
    use super::*;
    use crate::sita::SitaAnalysis;
    use dses_dist::Mixture;

    fn c90ish() -> Mixture {
        dses_dist::fit::fit_body_tail(dses_dist::fit::BodyTailTargets {
            mean: 4562.0,
            scv: 43.0,
            min: 60.0,
            max: 2.22e6,
            tail_jobs: 0.013,
            tail_load: 0.5,
        })
        .unwrap()
    }

    #[test]
    fn opt_multi_beats_sita_e_at_four_hosts() {
        let d = c90ish();
        let hosts = 4;
        let lambda = 0.7 * hosts as f64 / d.mean();
        let e = sita_e_cutoffs(&d, hosts).unwrap();
        let opt = sita_u_opt_cutoffs_multi(&d, lambda, hosts).unwrap();
        let s_e = SitaAnalysis::analyze(&d, lambda, &e).mean_queueing_slowdown;
        let s_o = SitaAnalysis::analyze(&d, lambda, &opt).mean_queueing_slowdown;
        assert!(s_o < s_e / 2.0, "opt {s_o} vs E {s_e}");
        assert!(opt.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn opt_multi_reduces_to_two_host_solution() {
        let d = c90ish();
        let lambda = 1.4 / d.mean();
        let two = sita_u_opt_cutoff(&d, lambda).unwrap();
        let multi = sita_u_opt_cutoffs_multi(&d, lambda, 2).unwrap();
        let s_two = SitaAnalysis::analyze(&d, lambda, &[two]).mean_queueing_slowdown;
        let s_multi = SitaAnalysis::analyze(&d, lambda, &multi).mean_queueing_slowdown;
        // same optimum within solver tolerance
        assert!((s_two - s_multi).abs() / s_two < 0.02, "{s_two} vs {s_multi}");
    }

    #[test]
    fn fair_multi_equalises_per_host_slowdowns() {
        let d = c90ish();
        for hosts in [3usize, 4] {
            let lambda = 0.6 * hosts as f64 / d.mean();
            let cuts = sita_u_fair_cutoffs_multi(&d, lambda, hosts).unwrap();
            let a = SitaAnalysis::analyze(&d, lambda, &cuts);
            assert!(a.is_stable());
            let slowdowns: Vec<f64> = a
                .hosts
                .iter()
                .filter(|h| h.job_fraction > 0.0)
                .map(|h| h.mean_queueing_slowdown)
                .collect();
            let max = slowdowns.iter().copied().fold(0.0f64, f64::max);
            let min = slowdowns.iter().copied().fold(f64::INFINITY, f64::min);
            assert!(
                max / min < 1.05,
                "hosts={hosts}: per-host slowdowns {slowdowns:?}"
            );
        }
    }

    #[test]
    fn fair_multi_beats_sita_e() {
        let d = c90ish();
        let hosts = 4;
        let lambda = 0.7 * hosts as f64 / d.mean();
        let e = sita_e_cutoffs(&d, hosts).unwrap();
        let fair = sita_u_fair_cutoffs_multi(&d, lambda, hosts).unwrap();
        let s_e = SitaAnalysis::analyze(&d, lambda, &e).mean_queueing_slowdown;
        let s_f = SitaAnalysis::analyze(&d, lambda, &fair).mean_queueing_slowdown;
        assert!(s_f < s_e, "fair {s_f} vs E {s_e}");
    }

    #[test]
    fn multi_solvers_reject_overload() {
        let d = c90ish();
        let lambda = 5.0 / d.mean();
        assert!(matches!(
            sita_u_opt_cutoffs_multi(&d, lambda, 4),
            Err(CutoffError::Infeasible { .. })
        ));
        assert!(matches!(
            sita_u_fair_cutoffs_multi(&d, lambda, 4),
            Err(CutoffError::Infeasible { .. })
        ));
    }

    #[test]
    fn multi_unbalancing_underloads_the_short_end() {
        // the 2-host intuition generalises: hosts serving shorter bands
        // run at lower utilisation
        let d = c90ish();
        let hosts = 4;
        let lambda = 0.7 * hosts as f64 / d.mean();
        let opt = sita_u_opt_cutoffs_multi(&d, lambda, hosts).unwrap();
        let a = SitaAnalysis::analyze(&d, lambda, &opt);
        let rhos: Vec<f64> = a.hosts.iter().map(|h| h.rho).collect();
        assert!(
            rhos[0] < rhos[hosts - 1],
            "short host should be less utilised: {rhos:?}"
        );
    }
}
