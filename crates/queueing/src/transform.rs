// dses-lint: allow-file(float-totality) -- transform boundary values (s == 0, t == 0,
// partial sums hitting exactly 1) are mathematically exact special cases, not tolerances
//! The M/G/1 waiting-time *distribution* by transform inversion
//! (extension).
//!
//! Theorem 1 gives moments; tails need the whole distribution. The
//! Pollaczek–Khinchine transform equation gives the Laplace–Stieltjes
//! transform of the FCFS waiting time exactly:
//!
//! ```text
//! W*(s) = (1 − ρ) s / (s − λ(1 − X*(s)))
//! ```
//!
//! where `X*(s) = E[e^{−sX}]` is the service-time transform. We compute
//! `X*` by quantile-space quadrature (works for any [`Distribution`],
//! heavy tails included) and invert `W*` numerically with the
//! Abate–Whitt **Euler** algorithm to get `P(W ≤ t)` — and from it
//! analytic slowdown tail predictions to set against the simulated
//! percentiles of the `ablation_percentiles` exhibit.

use dses_dist::par::{available_workers, par_map_indexed};
use dses_dist::{numeric, Distribution};
use std::sync::Arc;

/// `E[e^{−sX}]` for a real `s ≥ 0`, via `∫₀¹ exp(−s·Q(u)) du`.
///
/// The quantile-space form needs no density and handles atoms and heavy
/// tails; panels are refined near `u = 1` where `Q` explodes.
#[must_use]
pub fn laplace_transform<D: Distribution + ?Sized>(dist: &D, s: f64) -> f64 {
    assert!(s >= 0.0, "transform argument must be nonnegative");
    if s == 0.0 {
        return 1.0;
    }
    let g = |u: f64| (-s * dist.quantile(u)).exp();
    // body + geometrically refined tail (mirrors the trait's moment rule)
    let split = 0.99;
    let mut total = numeric::integrate(g, 0.0, split, 96);
    let mut lo = split;
    let mut gap = 1.0 - split;
    for _ in 0..40 {
        gap *= 0.5;
        let hi = 1.0 - gap;
        if hi <= lo || gap < 1e-13 {
            break;
        }
        total += numeric::integrate(g, lo, hi, 8);
        lo = hi;
    }
    total + numeric::integrate(g, lo, 1.0, 8)
}

/// A precomputed quantile-space quadrature table: `(x, w)` pairs with
/// `Σ w·g(x) ≈ E[g(X)]`. Building it costs one pass of (possibly
/// bisection-based) quantile evaluations; every transform evaluation
/// afterwards is a cheap weighted sum — the Euler inversion evaluates the
/// service transform at ~30 complex points, and the slowdown tail at
/// thousands, so the caching matters enormously.
struct QuadTable {
    pts: Vec<(f64, f64)>,
}

impl QuadTable {
    fn build<D: Distribution + ?Sized>(dist: &D) -> Self {
        let mut pts = Vec::with_capacity(192 * 16 + 41 * 16);
        let mut push_panel = |a: f64, b: f64| {
            for (u, w) in numeric::gl16_nodes(a, b) {
                let x = dist.quantile(u);
                // u can round to exactly 1.0 inside the refined tail
                // panels; damped integrands vanish there anyway
                if x.is_finite() {
                    pts.push((x, w));
                }
            }
        };
        let split = 0.99;
        let body_panels = 192;
        let w = split / body_panels as f64;
        for i in 0..body_panels {
            push_panel(w * i as f64, w * (i + 1) as f64);
        }
        let mut lo = split;
        let mut gap = 1.0 - split;
        for _ in 0..40 {
            gap *= 0.5;
            let hi = 1.0 - gap;
            if hi <= lo || gap < 1e-13 {
                break;
            }
            push_panel(lo, hi);
            lo = hi;
        }
        push_panel(lo, 1.0);
        Self { pts }
    }

    /// The damped weights `w·e^{−a·x}` of every node into `damped`: the
    /// factor all transforms on the line `Re s = a` share.
    fn damp(&self, a: f64, damped: &mut Vec<f64>) {
        damped.clear();
        damped.extend(self.pts.iter().map(|&(x, w)| w * (-a * x).exp()));
    }

    /// `E[e^{−(a+bi)X}]` as `(re, im)`, given `damped` from
    /// [`QuadTable::damp`] at `a`.
    fn transform(&self, damped: &[f64], b: f64) -> (f64, f64) {
        let mut re = 0.0;
        let mut im = 0.0;
        for (&(x, _), &wd) in self.pts.iter().zip(damped) {
            re += wd * (b * x).cos();
            im -= wd * (b * x).sin();
        }
        (re, im)
    }
}

/// Complex-argument service transform `E[e^{−(a+bi)X}]`, returned as
/// `(re, im)` — required by the Euler inversion, which evaluates `W*`
/// along a vertical line in the complex plane.
fn laplace_transform_complex<D: Distribution + ?Sized>(dist: &D, a: f64, b: f64) -> (f64, f64) {
    let table = QuadTable::build(dist);
    let mut damped = Vec::new();
    table.damp(a, &mut damped);
    table.transform(&damped, b)
}

/// Complex division helper: `(a + bi) / (c + di)`.
fn cdiv(a: f64, b: f64, c: f64, d: f64) -> (f64, f64) {
    let den = c * c + d * d;
    ((a * c + b * d) / den, (b * c - a * d) / den)
}

/// The M/G/1 FCFS waiting-time CDF `P(W ≤ t)` by Euler inversion of the
/// Pollaczek–Khinchine transform.
///
/// `lambda` is the arrival rate, `dist` the service distribution; the
/// queue must be stable. Accuracy is ~1e-6 for smooth distributions;
/// heavy-tailed service keeps the algorithm stable but the quadrature
/// inside `X*` dominates cost (~milliseconds per point).
///
/// # Panics
/// Panics if the queue is unstable or `t < 0`.
#[must_use]
pub fn mg1_waiting_cdf<D: Distribution + ?Sized>(dist: &D, lambda: f64, t: f64) -> f64 {
    let rho = lambda * dist.raw_moment(1);
    assert!(rho < 1.0, "queue must be stable (rho = {rho})");
    let table = QuadTable::build(dist);
    waiting_cdf_with_table(&table, rho, lambda, t, &mut Vec::new())
}

/// Table-driven inversion core (shared by the waiting and slowdown tails).
/// `damped` is scratch for the node weights of this `t`; a caller
/// inverting at many `t` passes the same buffer each time.
fn waiting_cdf_with_table(
    table: &QuadTable,
    rho: f64,
    lambda: f64,
    t: f64,
    damped: &mut Vec<f64>,
) -> f64 {
    assert!(t >= 0.0, "time must be nonnegative");
    if t == 0.0 {
        // P(W = 0) = 1 − ρ for M/G/1 FCFS
        return 1.0 - rho;
    }
    // Invert F(t) via the transform of the *CDF*: F*(s) = W*(s)/s.
    // Abate–Whitt Euler algorithm (M = 11 Euler terms, 15 base terms).
    const A: f64 = 18.4; // ~ 8 digits of discretisation error control
    const N_BASE: usize = 15;
    const M_EULER: usize = 11;
    // every Euler term evaluates on the line Re s = a: damp once per t
    let a = A / (2.0 * t);
    table.damp(a, damped);
    let w_star = |b: f64| -> (f64, f64) {
        // W*(s) = (1−ρ)s / (s − λ(1 − X*(s))), s = a + bi
        let (xr, xi) = table.transform(damped, b);
        let (nr, ni) = ((1.0 - rho) * a, (1.0 - rho) * b);
        let (dr, di) = (a - lambda * (1.0 - xr), b + lambda * xi);
        cdiv(nr, ni, dr, di)
    };
    let f_star_re = |b: f64| -> f64 {
        // Re[F*(a/2t + bi)] with F*(s) = W*(s)/s
        let (wr, wi) = w_star(b);
        let (fr, _) = cdiv(wr, wi, a, b);
        fr
    };
    // partial sums
    let mut partials = [0.0f64; N_BASE + M_EULER + 1];
    let h = std::f64::consts::PI / t;
    let mut sum = 0.5 * f_star_re(0.0);
    let mut sign = -1.0;
    for (k, slot) in partials.iter_mut().enumerate().skip(1) {
        sum += sign * f_star_re(k as f64 * h);
        sign = -sign;
        *slot = sum;
    }
    // Euler (binomial) averaging of the last M_EULER+1 partial sums
    let mut euler = 0.0;
    let mut binom = 1.0f64;
    let mut binom_sum = 0.0;
    for j in 0..=M_EULER {
        euler += binom * partials[N_BASE + j];
        binom_sum += binom;
        binom = binom * (M_EULER - j) as f64 / (j + 1) as f64;
    }
    euler /= binom_sum;
    // f(t) ≈ (e^{A/2}/t) · [½·Re F̂(a) + Σ_{k≥1} (−1)^k Re F̂(a + ikπ/t)]
    ((A / 2.0).exp() / t * euler).clamp(0.0, 1.0)
}

/// Complementary waiting-time distribution `P(W > t)`.
#[must_use]
pub fn mg1_waiting_ccdf<D: Distribution + ?Sized>(dist: &D, lambda: f64, t: f64) -> f64 {
    1.0 - mg1_waiting_cdf(dist, lambda, t)
}

/// Per-job *slowdown* tail `P(S > s)` of a whole SITA system: within
/// band `i`, `P(S > s | X = x) = P(W_i > (s−1)x)`, integrated over the
/// band's conditional size distribution and mixed across bands.
///
/// Together with a bisection on `s` this yields analytic slowdown
/// percentiles for every SITA policy — the `ablation_percentiles`
/// exhibit prints them beside the simulated estimates. To evaluate many
/// `s` on one system, [`sita_slowdown_quantile`] builds the per-band
/// tables once; this function builds them for a single `s`. The
/// independent Euler inversions behind one evaluation run on the
/// [`dses_dist::par`] pool, and the result is identical at any worker
/// count.
#[must_use]
pub fn sita_slowdown_ccdf<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    cutoffs: &[f64],
    s: f64,
) -> f64 {
    assert!(s >= 1.0, "slowdown is at least 1 (got {s})");
    SlowdownTail::new(dist, lambda, cutoffs, available_workers()).ccdf(s)
}

/// Analytic slowdown percentile of a SITA system: the smallest `s` with
/// `P(S ≤ s) ≥ q`, by bisection on [`sita_slowdown_ccdf`].
///
/// Returns `+∞` when no finite `s` reaches `q`: saturated bands (`ρ ≥ 1`)
/// count as slower than any finite `s`, so once they hold more than
/// `1 − q` of the jobs the percentile is infinite — as it is whenever the
/// upward bracket (60 doublings from `s = 2`) fails to close.
///
/// Each bisection step only asks which side of `1 − q` the tail lies
/// on, so it stops inverting as soon as the terms computed so far decide
/// that (see `SlowdownTail::exceeds`); the answer is the same bits the
/// full evaluation gives, at any worker count.
#[must_use]
pub fn sita_slowdown_quantile<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    cutoffs: &[f64],
    q: f64,
) -> f64 {
    assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
    let target = 1.0 - q;
    let tail = SlowdownTail::new(dist, lambda, cutoffs, available_workers());
    tail.quantile(target, |s| tail.exceeds(s, target))
}

/// Size points per band at which [`SlowdownTail`] averages the waiting
/// tail.
const TAIL_POINTS: usize = 32;

/// Everything in a SITA slowdown tail that does not depend on `s`: per
/// band its mass and utilisation, and for a stable band its transform
/// table; plus the flat list of (band, size point) pairs whose waiting
/// tails `1 − F_W((s−1)·x)` are the terms of one evaluation. Built once
/// per system, evaluated at any number of slowdowns.
///
/// The bands and the point list sit behind `Arc` so the terms of one
/// evaluation — independent Euler inversions — can run as tasks on the
/// [`dses_dist::par`] pool; [`SlowdownTail::fold`] then combines them on
/// the calling thread in one fixed order, so the result does not depend
/// on `workers`.
struct SlowdownTail {
    bands: Arc<[TailBand]>,
    /// `(band index, size)` of every term, band by band in cutoff order
    /// and by ascending size within a band — the order of the fold
    points: Arc<[(usize, f64)]>,
    /// pool workers one evaluation fans out on
    workers: usize,
}

/// One band of a [`SlowdownTail`]: its transform table and term count,
/// or `None` when it is saturated.
struct TailBand {
    mass: f64,
    rho: f64,
    lambda: f64,
    grid: Option<(QuadTable, usize)>,
}

impl SlowdownTail {
    fn new<D: Distribution + ?Sized>(
        dist: &D,
        lambda: f64,
        cutoffs: &[f64],
        workers: usize,
    ) -> Self {
        assert!(
            cutoffs.windows(2).all(|w| w[0] < w[1]),
            "cutoffs must be strictly increasing"
        );
        let (_, sup_hi) = dist.support();
        let mut edges = vec![0.0];
        edges.extend_from_slice(cutoffs);
        edges.push(if sup_hi.is_finite() { sup_hi } else { f64::INFINITY });
        let mut bands = Vec::with_capacity(edges.len() - 1);
        let mut points = Vec::with_capacity((edges.len() - 1) * TAIL_POINTS);
        for w in edges.windows(2) {
            let (a, b) = (w[0], w[1]);
            let p = dist.prob_in(a, b);
            if !(p > 1e-12) {
                continue;
            }
            let band = BandDistribution {
                inner: dist,
                lo: a,
                hi: b,
                mass: p,
                cdf_lo: dist.cdf(a),
            };
            let band_lambda = lambda * p;
            let rho = band_lambda * band.raw_moment(1);
            let grid = if rho >= 1.0 {
                None
            } else {
                let before = points.len();
                let index = bands.len();
                points.extend(
                    (0..TAIL_POINTS)
                        .map(|i| band.quantile((i as f64 + 0.5) / TAIL_POINTS as f64))
                        .filter(|x| x.is_finite() && *x > 0.0)
                        .map(|x| (index, x)),
                );
                Some((QuadTable::build(&band), points.len() - before))
            };
            bands.push(TailBand {
                mass: p,
                rho,
                lambda: band_lambda,
                grid,
            });
        }
        Self {
            bands: bands.into(),
            points: points.into(),
            workers: workers.max(1),
        }
    }

    /// `P(S > s)`: every term as one pool task, then one fold.
    fn ccdf(&self, s: f64) -> f64 {
        assert!(s >= 1.0, "slowdown is at least 1 (got {s})");
        let mut terms = vec![0.0; self.terms_at(s)];
        self.compute(s, 0, &mut terms);
        self.fold(s, &terms, 0.0)
    }

    /// Whether `P(S > s) > target` — exactly `self.ccdf(s) > target`,
    /// usually from a fraction of the terms.
    ///
    /// The terms are computed in rounds of `workers`, in fold order.
    /// After each round the fold runs twice with the missing terms set
    /// to 0 and to 1: every term lies in [0, 1] (it is one minus a CDF
    /// clamped into [0, 1]), and each fold step — add, divide by
    /// `TAIL_POINTS`, multiply by a nonnegative mass, clamp — is monotone
    /// under round-to-nearest, so the two folds bracket the full one. A
    /// lower fold above `target` or an upper fold at most `target`
    /// decides the comparison the full fold would make, bit for bit.
    fn exceeds(&self, s: f64, target: f64) -> bool {
        assert!(s >= 1.0, "slowdown is at least 1 (got {s})");
        let mut terms = vec![0.0; self.terms_at(s)];
        let mut done = 0;
        while done < terms.len() {
            let next = (done + self.workers).min(terms.len());
            self.compute(s, done, &mut terms[done..next]);
            done = next;
            if done < terms.len() {
                if self.fold(s, &terms[..done], 0.0) > target {
                    return true;
                }
                if self.fold(s, &terms[..done], 1.0) <= target {
                    return false;
                }
            }
        }
        self.fold(s, &terms, 0.0) > target
    }

    /// How many terms an evaluation at `s ≥ 1` has: all of them above
    /// 1, none at `s = 1`, where `P(S > 1) = P(W > 0) = ρ` per band needs
    /// no inversion.
    fn terms_at(&self, s: f64) -> usize {
        if s > 1.0 {
            self.points.len()
        } else {
            0
        }
    }

    /// Terms `first, first + 1, …` at `s` into `out`, as pool tasks.
    fn compute(&self, s: f64, first: usize, out: &mut [f64]) {
        let bands = Arc::clone(&self.bands);
        let points = Arc::clone(&self.points);
        let terms = par_map_indexed(out.len(), self.workers, move |i| {
            term(&bands, points[first + i], s)
        });
        out.copy_from_slice(&terms);
    }

    /// The tail from the leading `terms` of an evaluation at `s`, with
    /// every later term taken as `fill` — the arithmetic and order of a
    /// sequential band-by-band loop.
    fn fold(&self, s: f64, terms: &[f64], fill: f64) -> f64 {
        let mut next = terms.iter().copied().chain(std::iter::repeat(fill));
        let mut tail = 0.0;
        for band in self.bands.iter() {
            let Some((_, count)) = band.grid else {
                tail += band.mass; // saturated band: everything above any finite s
                continue;
            };
            if s == 1.0 {
                tail += band.mass * band.rho;
                continue;
            }
            let mut acc = 0.0;
            for term in next.by_ref().take(count) {
                acc += term;
            }
            tail += band.mass * (acc / TAIL_POINTS as f64);
        }
        tail.clamp(0.0, 1.0)
    }

    /// The smallest `s` with `P(S > s) ≤ target`, where `above(s)`
    /// answers `P(S > s) > target`: the geometric bracket and the
    /// 40-step bisection of [`sita_slowdown_quantile`].
    fn quantile(&self, target: f64, mut above: impl FnMut(f64) -> bool) -> f64 {
        if !above(1.0) {
            return 1.0;
        }
        if self.saturated_mass() > target {
            return f64::INFINITY;
        }
        // bracket upward geometrically
        let mut hi = 2.0;
        let mut closed = false;
        for _ in 0..60 {
            if !above(hi) {
                closed = true;
                break;
            }
            hi *= 2.0;
        }
        if !closed {
            return f64::INFINITY;
        }
        let mut lo = 1.0;
        for _ in 0..40 {
            let mid = (lo * hi).sqrt();
            if above(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo * hi).sqrt()
    }

    /// Job mass on saturated bands — a floor under `P(S > s)` at every
    /// finite `s`.
    fn saturated_mass(&self) -> f64 {
        self.bands
            .iter()
            .filter(|b| b.grid.is_none())
            .fold(0.0, |acc, b| acc + b.mass)
    }
}

/// One term of a [`SlowdownTail`] evaluation: `P(W > (s−1)·x)` on the
/// band the point belongs to, in [0, 1].
fn term(bands: &[TailBand], (band, x): (usize, f64), s: f64) -> f64 {
    let band = &bands[band];
    let Some((table, _)) = &band.grid else {
        return 1.0; // a saturated band's wait exceeds every t (it has no points)
    };
    let t = (s - 1.0) * x;
    let term = 1.0 - waiting_cdf_with_table(table, band.rho, band.lambda, t, &mut Vec::new());
    debug_assert!(
        term.is_finite(),
        "slowdown-tail term at s = {s}, x = {x} is {term}"
    );
    term
}

/// Per-job waiting-time tail `P(W > t)` of a whole SITA system: each
/// host is an M/G/1 on its conditioned band, and a random job's waiting
/// time is the `p_i`-weighted mixture of the per-host tails.
///
/// This turns Theorem-1-style analysis into *tail* predictions for the
/// paper's policies — something the paper itself never computes.
#[must_use]
pub fn sita_waiting_ccdf<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    cutoffs: &[f64],
    t: f64,
) -> f64 {
    assert!(
        cutoffs.windows(2).all(|w| w[0] < w[1]),
        "cutoffs must be strictly increasing"
    );
    let (_, sup_hi) = dist.support();
    let mut edges = vec![0.0];
    edges.extend_from_slice(cutoffs);
    edges.push(if sup_hi.is_finite() { sup_hi } else { f64::INFINITY });
    let mut tail = 0.0;
    for w in edges.windows(2) {
        let (a, b) = (w[0], w[1]);
        let p = dist.prob_in(a, b);
        if !(p > 1e-12) {
            continue;
        }
        let band = BandDistribution {
            inner: dist,
            lo: a,
            hi: b,
            mass: p,
            cdf_lo: dist.cdf(a),
        };
        tail += p * mg1_waiting_ccdf(&band, lambda * p, t);
    }
    tail
}

/// A size distribution conditioned on a band `(lo, hi]` — adapter so the
/// transform machinery can treat one SITA host's service distribution as
/// a standalone [`Distribution`].
struct BandDistribution<'a, D: Distribution + ?Sized> {
    inner: &'a D,
    lo: f64,
    hi: f64,
    mass: f64,
    cdf_lo: f64,
}

impl<D: Distribution + ?Sized> std::fmt::Debug for BandDistribution<'_, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BandDistribution({}, {}]", self.lo, self.hi)
    }
}

impl<D: Distribution + ?Sized> Distribution for BandDistribution<'_, D> {
    fn sample(&self, rng: &mut dses_dist::Rng64) -> f64 {
        // inverse-transform through the conditioned CDF
        let u = self.cdf_lo + self.mass * rng.uniform();
        self.inner.quantile(u.min(1.0))
    }
    fn support(&self) -> (f64, f64) {
        (self.lo.max(self.inner.support().0), self.hi.min(self.inner.support().1))
    }
    fn cdf(&self, x: f64) -> f64 {
        ((self.inner.cdf(x.min(self.hi)) - self.cdf_lo) / self.mass).clamp(0.0, 1.0)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.inner.quantile((self.cdf_lo + self.mass * p).min(1.0))
    }
    fn raw_moment(&self, k: i32) -> f64 {
        self.inner.partial_moment(k, self.lo, self.hi) / self.mass
    }
    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        self.inner
            .partial_moment(k, a.max(self.lo), b.min(self.hi))
            / self.mass
    }
}

/// Complementary *slowdown* distribution `P(S > s)` for an M/G/1 FCFS
/// queue, where `S = 1 + W/X` and the tagged job's size is independent of
/// its wait: `P(S > s) = E_X[ P(W > (s−1)·X) ]`, evaluated by combining
/// the transform-inverted waiting tail with quantile-space integration
/// over the size distribution.
///
/// This is the analytic counterpart of the `ablation_percentiles`
/// exhibit's simulated p95/p99 columns. Cost is ~tens of milliseconds per
/// point (nested quadratures); cache results when sweeping.
///
/// # Panics
/// Panics for `s < 1` or an unstable queue.
#[must_use]
pub fn mg1_slowdown_ccdf<D: Distribution + ?Sized>(dist: &D, lambda: f64, s: f64) -> f64 {
    assert!(s >= 1.0, "slowdown is at least 1 (got {s})");
    let rho = lambda * dist.raw_moment(1);
    assert!(rho < 1.0, "queue must be stable (rho = {rho})");
    if s == 1.0 {
        // P(S > 1) = P(W > 0) = rho
        return rho;
    }
    // coarse quantile grid over sizes; the waiting tail is smooth in t
    let table = QuadTable::build(dist);
    let mut damped = Vec::new();
    const POINTS: usize = 48;
    let mut acc = 0.0;
    for i in 0..POINTS {
        let u = (i as f64 + 0.5) / POINTS as f64;
        let x = dist.quantile(u);
        if !x.is_finite() || x <= 0.0 {
            continue;
        }
        acc += 1.0 - waiting_cdf_with_table(&table, rho, lambda, (s - 1.0) * x, &mut damped);
    }
    (acc / POINTS as f64).clamp(0.0, 1.0)
}

/// Debug hook (exposed for the workspace probe binaries).
#[doc(hidden)]
pub fn debug_ltc<D: Distribution + ?Sized>(dist: &D, a: f64, b: f64) -> (f64, f64) {
    laplace_transform_complex(dist, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dses_dist::prelude::*;

    #[test]
    fn laplace_transform_of_exponential_is_closed_form() {
        let d = Exponential::new(2.0).unwrap();
        for &s in &[0.0, 0.5, 1.0, 5.0] {
            let want = 2.0 / (2.0 + s);
            let got = laplace_transform(&d, s);
            assert!((got - want).abs() < 1e-6, "s = {s}: {got} vs {want}");
        }
    }

    #[test]
    fn laplace_transform_of_deterministic() {
        let d = Deterministic::new(3.0).unwrap();
        for &s in &[0.1f64, 1.0] {
            let want = (-3.0 * s).exp();
            assert!((laplace_transform(&d, s) - want).abs() < 1e-9);
        }
    }

    #[test]
    fn waiting_cdf_matches_mm1_closed_form() {
        // M/M/1: P(W ≤ t) = 1 − ρ e^{−μ(1−ρ)t}
        let mu = 1.0;
        let d = Exponential::new(mu).unwrap();
        for &rho in &[0.3, 0.7] {
            let lambda = rho * mu;
            for &t in &[0.5, 2.0, 8.0] {
                let want = 1.0 - rho * (-(mu) * (1.0 - rho) * t).exp();
                let got = mg1_waiting_cdf(&d, lambda, t);
                assert!(
                    (got - want).abs() < 5e-4,
                    "rho={rho}, t={t}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn waiting_cdf_at_zero_is_idle_probability() {
        let d = Exponential::new(1.0).unwrap();
        assert!((mg1_waiting_cdf(&d, 0.6, 0.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn waiting_cdf_is_monotone_for_md1() {
        let d = Deterministic::new(1.0).unwrap();
        let lambda = 0.8;
        let mut prev = 0.0;
        for i in 1..20 {
            let t = i as f64 * 0.5;
            let f = mg1_waiting_cdf(&d, lambda, t);
            assert!(f >= prev - 5e-4, "t = {t}: {f} < {prev}");
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        // eventually close to 1
        assert!(mg1_waiting_cdf(&d, lambda, 60.0) > 0.99);
    }

    #[test]
    fn sita_tail_mixes_per_host_tails() {
        // two exponential bands via a cutoff on Exponential(1): the
        // system tail must lie between the two hosts' tails and equal
        // the p-weighted mixture
        let d = Exponential::new(1.0).unwrap();
        let lambda = 0.5;
        let cutoff = d.quantile(0.9);
        let t = 2.0;
        let tail = sita_waiting_ccdf(&d, lambda, &[cutoff], t);
        assert!((0.0..=1.0).contains(&tail));
        // heavier load on the short band -> its host dominates the tail
        let no_split = mg1_waiting_ccdf(&d, lambda, t);
        assert!(tail < no_split, "splitting reduces the tail: {tail} vs {no_split}");
    }

    #[test]
    fn sita_tail_on_heavy_tailed_workload_is_finite_and_ordered() {
        let d = dses_dist::fit::fit_body_tail(dses_dist::fit::BodyTailTargets {
            mean: 4562.0,
            scv: 43.0,
            min: 60.0,
            max: 2.22e6,
            tail_jobs: 0.013,
            tail_load: 0.5,
        })
        .unwrap();
        let lambda = 1.2 / d.mean();
        let cutoff = crate::cutoff::sita_u_fair_cutoff(&d, lambda).unwrap();
        let t1 = sita_waiting_ccdf(&d, lambda, &[cutoff], 1_000.0);
        let t2 = sita_waiting_ccdf(&d, lambda, &[cutoff], 100_000.0);
        assert!(t1 >= t2, "tail must decrease: {t1} vs {t2}");
        assert!((0.0..=1.0).contains(&t1));
    }

    #[test]
    fn slowdown_ccdf_matches_mm1_structure() {
        // M/M/1: P(S > 1) = rho; tail decreasing; sane range
        let d = Exponential::new(1.0).unwrap();
        let lambda = 0.6;
        assert!((mg1_slowdown_ccdf(&d, lambda, 1.0) - 0.6).abs() < 1e-12);
        let t2 = mg1_slowdown_ccdf(&d, lambda, 2.0);
        let t5 = mg1_slowdown_ccdf(&d, lambda, 5.0);
        let t20 = mg1_slowdown_ccdf(&d, lambda, 20.0);
        assert!(t2 > t5 && t5 > t20, "{t2} {t5} {t20}");
        assert!((0.0..=0.6).contains(&t20));
    }

    #[test]
    fn slowdown_ccdf_matches_simulation() {
        use dses_workload::WorkloadBuilder;
        let d = HyperExponential::fit_mean_scv(1.0, 4.0).unwrap();
        let lambda = 0.6;
        let trace = WorkloadBuilder::new(d.clone())
            .jobs(300_000)
            .poisson_load(0.6, 1)
            .seed(61)
            .build();
        use dses_sim::{simulate_dispatch, Dispatcher, MetricsConfig, SystemState};
        struct One;
        impl Dispatcher for One {
            fn dispatch(
                &mut self,
                _: &dses_workload::Job,
                _: &SystemState<'_>,
                _: &mut dses_dist::Rng64,
            ) -> usize {
                0
            }
        }
        let r = simulate_dispatch(&trace, 1, &mut One, 0, MetricsConfig {
            collect_records: true,
            warmup_jobs: 20_000,
            ..MetricsConfig::default()
        });
        let slowdowns: Vec<f64> = r.records.unwrap().iter().map(|j| j.slowdown()).collect();
        let n = slowdowns.len() as f64;
        for s in [2.0, 5.0, 20.0] {
            let empirical = slowdowns.iter().filter(|&&v| v > s).count() as f64 / n;
            let analytic = mg1_slowdown_ccdf(&d, lambda, s);
            assert!(
                (empirical - analytic).abs() < 0.03,
                "s={s}: empirical {empirical} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn sita_slowdown_tail_and_quantile_are_consistent() {
        let d = dses_dist::fit::fit_body_tail(dses_dist::fit::BodyTailTargets {
            mean: 4562.0,
            scv: 43.0,
            min: 60.0,
            max: 2.22e6,
            tail_jobs: 0.013,
            tail_load: 0.5,
        })
        .unwrap();
        let lambda = 1.2 / d.mean();
        let cutoff = crate::cutoff::sita_u_fair_cutoff(&d, lambda).unwrap();
        // P(S > 1) = per-band utilisation mixture, in (0, 1)
        let at_one = sita_slowdown_ccdf(&d, lambda, &[cutoff], 1.0);
        assert!(at_one > 0.0 && at_one < 1.0);
        // tail decreasing
        let t5 = sita_slowdown_ccdf(&d, lambda, &[cutoff], 5.0);
        let t50 = sita_slowdown_ccdf(&d, lambda, &[cutoff], 50.0);
        assert!(t5 >= t50, "{t5} vs {t50}");
        // quantile inverts the tail
        let p90 = sita_slowdown_quantile(&d, lambda, &[cutoff], 0.9);
        let back = sita_slowdown_ccdf(&d, lambda, &[cutoff], p90);
        assert!((back - 0.1).abs() < 0.02, "P(S > p90) = {back}");
    }

    #[test]
    fn saturated_majority_has_no_finite_slowdown_quantile() {
        // C90 at ρ = 0.7 with the cutoff at 2×10⁵: the short band holds
        // 99.7 % of the jobs at ρ = 1.056, so P(S > s) ≥ 0.997 at every
        // finite s and no finite p99 exists
        let d = dses_workload::psc_c90().size_dist;
        let lambda = 0.7 * 2.0 / d.mean();
        let cutoffs = [2e5];
        let short = crate::SitaAnalysis::analyze(&d, lambda, &cutoffs).hosts[0];
        assert!(short.rho > 1.05 && short.job_fraction > 0.99, "{short:?}");
        assert_eq!(sita_slowdown_quantile(&d, lambda, &cutoffs, 0.99), f64::INFINITY);
    }

    /// The two-band hyperexponential system of `tests/analytic_reuse.rs`
    /// (ρ = 0.6 over two hosts, cutoff at the 90th size percentile).
    fn tail_case(workers: usize) -> SlowdownTail {
        let d = HyperExponential::fit_mean_scv(1.0, 4.0).unwrap();
        let cutoffs = [d.quantile(0.9)];
        SlowdownTail::new(&d, 1.2 / d.mean(), &cutoffs, workers)
    }

    /// The same tail on `workers` workers, sharing `tail`'s bands and
    /// points.
    fn on_workers(tail: &SlowdownTail, workers: usize) -> SlowdownTail {
        SlowdownTail {
            bands: Arc::clone(&tail.bands),
            points: Arc::clone(&tail.points),
            workers,
        }
    }

    /// `tail` with every 127th quadrature node, reweighted to the full
    /// table's total weight: on `tail_case` one inversion sums 29 nodes
    /// instead of 3,664, so a whole bisection runs in a debug build in a
    /// fraction of a second. The fold and the bisection see the same
    /// bands, points and term ranges as the full tail; only the value of
    /// each term differs.
    fn coarse(tail: &SlowdownTail) -> SlowdownTail {
        let thin = |table: &QuadTable| {
            let total: f64 = table.pts.iter().map(|p| p.1).sum();
            let kept: Vec<(f64, f64)> = table.pts.iter().step_by(127).copied().collect();
            let scale = total / kept.iter().map(|p| p.1).sum::<f64>();
            let pts = kept.into_iter().map(|(x, w)| (x, w * scale)).collect();
            QuadTable { pts }
        };
        let bands = tail
            .bands
            .iter()
            .map(|b| TailBand {
                grid: b.grid.as_ref().map(|(table, count)| (thin(table), *count)),
                ..*b
            })
            .collect();
        SlowdownTail {
            bands,
            ..on_workers(tail, tail.workers)
        }
    }

    #[test]
    fn slowdown_tail_is_bit_identical_at_any_worker_count() {
        let one = tail_case(1);
        assert_eq!(one.points.len(), 2 * TAIL_POINTS);
        let ccdf = [1.0, 5.0].map(|s| one.ccdf(s).to_bits());
        let coarse = coarse(&one);
        let quantile = coarse.quantile(0.1, |s| coarse.exceeds(s, 0.1)).to_bits();
        for workers in [2, 3, 8] {
            let tail = on_workers(&one, workers);
            let bits = [1.0, 5.0].map(|s| tail.ccdf(s).to_bits());
            assert_eq!(bits, ccdf, "workers = {workers}");
            let tail = on_workers(&coarse, workers);
            let q = tail.quantile(0.1, |s| tail.exceeds(s, 0.1));
            assert_eq!(q.to_bits(), quantile, "workers = {workers}");
        }
    }

    #[test]
    fn exceeds_decides_every_bisection_step_as_the_full_fold_does() {
        let tail = coarse(&tail_case(3));
        let target = 0.1;
        let mut visited = 0;
        let q = tail.quantile(target, |s| {
            let ccdf = tail.ccdf(s);
            for t in [ccdf.next_down(), ccdf, ccdf.next_up()] {
                assert_eq!(tail.exceeds(s, t), ccdf > t, "s = {s}, t = {t}");
            }
            visited += 1;
            tail.exceeds(s, target)
        });
        assert!(q > 1.0 && q.is_finite(), "the bisection must run: q = {q}");
        assert!(visited > 40, "{visited} steps");
        let full = tail.quantile(target, |s| tail.ccdf(s) > target);
        assert_eq!(q.to_bits(), full.to_bits());
    }

    #[test]
    fn exceeds_matches_the_full_fold_where_the_bounds_are_tight() {
        // Near s = 1 every term approaches its band's ρ, so on a heavily
        // loaded SITA-E split (both bands at ρ = 0.95) an upper fold that
        // fills missing terms with less than 1 answers wrongly.
        let d = HyperExponential::fit_mean_scv(1.0, 4.0).unwrap();
        let heavy_cutoffs = crate::cutoff::sita_e_cutoffs(&d, 2).unwrap();
        let heavy = SlowdownTail::new(&d, 1.9, &heavy_cutoffs, 2);
        assert!(heavy.bands.iter().all(|b| (b.rho - 0.95).abs() < 1e-6));
        let mut cases = Vec::new();
        for tail in [coarse(&heavy), coarse(&tail_case(3))] {
            for s in [1.0 + 1e-9, 1.01, 2.0, 10.0] {
                cases.push((s, tail.ccdf(s), on_workers(&tail, tail.workers)));
            }
        }
        // At s = 10^3 on the full tail_case every term after the first is
        // exactly 0, so the lower fold equals the full one after the first
        // round: only a strict comparison keeps exceeds(s, ccdf(s)) false.
        let full = tail_case(3);
        let mut terms = vec![0.0; full.points.len()];
        full.compute(1e3, 0, &mut terms);
        assert!(terms[0] > 0.0 && terms[1..].iter().all(|&t| t == 0.0));
        cases.push((1e3, full.fold(1e3, &terms, 0.0), full));
        for (s, ccdf, tail) in cases {
            for t in [ccdf.next_down(), ccdf, ccdf.next_up()] {
                assert_eq!(tail.exceeds(s, t), ccdf > t, "s = {s}, t = {t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "stable")]
    fn rejects_unstable_queue() {
        let d = Exponential::new(1.0).unwrap();
        let _ = mg1_waiting_cdf(&d, 1.5, 1.0);
    }
}
