//! Streaming quantile estimation (the P² algorithm).
//!
//! Simulation runs process millions of jobs without buffering them, so
//! exact percentiles are off the table; the P² algorithm (Jain &
//! Chlamtac, CACM 1985) maintains a five-marker parabolic approximation
//! of one quantile in O(1) memory and O(1) per observation. Slowdown
//! tail percentiles (p95/p99) complement the paper's mean/variance
//! metrics: heavy-tailed waiting makes tails the operationally binding
//! quantity.

/// A P² estimator for a single quantile `q ∈ (0, 1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    q: f64,
    /// marker heights (estimates of the 0, q/2, q, (1+q)/2, 1 quantiles)
    heights: [f64; 5],
    /// marker positions (1-based ranks)
    positions: [f64; 5],
    /// desired marker positions
    desired: [f64; 5],
    /// desired-position increments per observation
    increments: [f64; 5],
    /// number of observations so far
    count: u64,
    /// initial buffer until five observations arrive
    initial: [f64; 5],
}

impl P2Quantile {
    /// Create an estimator for quantile `q` (exclusive of 0 and 1).
    ///
    /// # Panics
    /// Panics if `q` is outside `(0, 1)`.
    #[must_use]
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile {q} must be in (0, 1)");
        Self {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            initial: [0.0; 5],
        }
    }

    /// The quantile this estimator tracks.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Forget every observation, returning to the exact state of
    /// [`P2Quantile::new`] for the same quantile. Allocation-free — the
    /// estimator is five fixed markers — so long-lived simulation
    /// workspaces can reuse it run after run.
    pub fn reset(&mut self) {
        *self = Self::new(self.q);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The five markers: their heights (estimates of the 0, q/2, q,
    /// (1+q)/2 and 1 quantiles) and their positions (1-based ranks).
    /// Meaningful from the fifth observation on.
    #[must_use]
    pub fn markers(&self) -> ([f64; 5], [f64; 5]) {
        (self.heights, self.positions)
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "P2 estimator fed NaN");
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
        // The cell k with heights[k] <= x < heights[k+1], found without
        // branches: the heights stay sorted, so k counts the interior
        // markers at or below x (0 below the minimum, 3 at or above the
        // maximum, where x becomes the new end marker).
        let h = &mut self.heights;
        let k = usize::from(x >= h[1]) + usize::from(x >= h[2]) + usize::from(x >= h[3]);
        h[0] = if x < h[0] { x } else { h[0] };
        h[4] = if x >= h[4] { x } else { h[4] };
        // markers right of the cell shift up one rank; adding 0.0 to an
        // integral position leaves it exact
        for (i, p) in self.positions.iter_mut().enumerate() {
            *p += f64::from(u8::from(i > k));
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }
        // adjust the three interior markers
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                self.heights[i] = if self.heights[i - 1] < candidate
                    && candidate < self.heights[i + 1]
                {
                    candidate
                } else {
                    self.linear(i, s)
                };
                self.positions[i] += s;
            }
        }
    }

    /// Piecewise-parabolic (P²) height prediction for marker `i` moved by
    /// `s ∈ {−1, +1}`.
    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        // dses-lint: allow(divide-budget) -- P² marker interpolation is the estimator's algorithm; paid only when the demand tier requests tail quantiles, never on means-only measured runs
        h + s / (np - nm)
            // dses-lint: allow(divide-budget) -- P² marker interpolation is the estimator's algorithm; paid only when the demand tier requests tail quantiles, never on means-only measured runs
            * ((n - nm + s) * (hp - h) / (np - n) + (np - n - s) * (h - hm) / (n - nm))
    }

    /// Linear fallback height prediction.
    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = if s > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            // dses-lint: allow(divide-budget) -- P² linear fallback; paid only when the demand tier requests tail quantiles, never on means-only measured runs
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate of the tracked quantile.
    ///
    /// Up to five observations, returns the exact nearest-rank quantile
    /// of the buffered values, which are then the whole sample (0
    /// observations → 0).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count <= 5 {
            // sort a stack copy — estimate() sits on the zero-allocation
            // estimates_into() path, so no `.to_vec()` here
            let n = self.count as usize;
            let mut v = self.initial;
            v[..n].sort_unstable_by(f64::total_cmp);
            let idx = ((self.q * self.count as f64).ceil() as usize).clamp(1, n);
            return v[idx - 1];
        }
        self.heights[2]
    }
}

/// A bundle of commonly reported quantiles (median, p90, p95, p99).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSet {
    estimators: Vec<P2Quantile>,
}

impl Default for QuantileSet {
    fn default() -> Self {
        Self::new(&[0.5, 0.9, 0.95, 0.99])
    }
}

impl QuantileSet {
    /// Track the given quantiles.
    #[must_use]
    pub fn new(quantiles: &[f64]) -> Self {
        Self {
            // dses-lint: allow(no-alloc-transitive) -- grow-once: Collector::reset only constructs a set when percentiles are first enabled
            estimators: quantiles.iter().map(|&q| P2Quantile::new(q)).collect(),
        }
    }

    /// Add one observation to every tracked quantile.
    pub fn push(&mut self, x: f64) {
        for e in &mut self.estimators {
            e.push(x);
        }
    }

    /// Forget every observation while keeping the tracked quantiles.
    /// Allocation-free (see [`P2Quantile::reset`]).
    pub fn reset(&mut self) {
        for e in &mut self.estimators {
            e.reset();
        }
    }

    /// `(q, estimate)` pairs.
    #[must_use]
    pub fn estimates(&self) -> Vec<(f64, f64)> {
        self.estimators
            .iter()
            .map(|e| (e.q(), e.estimate()))
            // dses-lint: allow(no-alloc-transitive) -- grow-once: finish_into takes this path only on a result slot's first run
            .collect()
    }

    /// Write the `(q, estimate)` pairs into `out`, reusing its capacity
    /// (the zero-allocation path for reusable result buffers).
    pub fn estimates_into(&self, out: &mut Vec<(f64, f64)>) {
        out.clear();
        out.extend(self.estimators.iter().map(|e| (e.q(), e.estimate())));
    }

    /// The estimate for a specific tracked quantile, `None` if `q` was
    /// not in the tracked set.
    #[must_use]
    pub fn try_get(&self, q: f64) -> Option<f64> {
        self.estimators
            .iter()
            .find(|e| (e.q() - q).abs() < 1e-12)
            .map(P2Quantile::estimate)
    }

    /// The estimate for a specific tracked quantile (panics if untracked).
    #[must_use]
    pub fn get(&self, q: f64) -> f64 {
        match self.try_get(q) {
            Some(v) => v,
            // dses-lint: allow(panic-hygiene) -- documented panic; try_get is the fallible form
            None => panic!("quantile {q} is not tracked"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{Exponential, LogNormal};
    use crate::rng::Rng64;
    use crate::traits::Distribution;

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn small_samples_are_exact() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), 0.0);
        p.push(3.0);
        assert_eq!(p.estimate(), 3.0);
        p.push(1.0);
        p.push(2.0);
        // median of {1,2,3} = 2
        assert_eq!(p.estimate(), 2.0);
        // at exactly five values the buffer is still the whole sample:
        // the tail quantiles are its maximum, not the middle marker
        for (q, want) in [(0.5, 3.0), (0.9, 5.0), (0.95, 5.0), (0.99, 5.0)] {
            let mut p = P2Quantile::new(q);
            for x in [4.0, 1.0, 5.0, 2.0, 3.0] {
                p.push(x);
            }
            assert_eq!(p.estimate(), want, "q = {q}");
        }
    }

    #[test]
    fn median_of_uniform_stream() {
        let mut p = P2Quantile::new(0.5);
        let mut rng = Rng64::seed_from(1);
        for _ in 0..100_000 {
            p.push(rng.uniform());
        }
        assert!((p.estimate() - 0.5).abs() < 0.01, "median = {}", p.estimate());
    }

    #[test]
    fn tail_quantile_of_exponential() {
        let d = Exponential::new(1.0).unwrap();
        let mut p = P2Quantile::new(0.95);
        let mut rng = Rng64::seed_from(2);
        for _ in 0..200_000 {
            p.push(d.sample(&mut rng));
        }
        let want = d.quantile(0.95); // = ln 20 ≈ 2.996
        assert!(
            (p.estimate() - want).abs() / want < 0.03,
            "p95 = {} vs {}",
            p.estimate(),
            want
        );
    }

    #[test]
    fn heavy_tailed_quantiles_converge() {
        let d = LogNormal::fit_mean_scv(10.0, 20.0).unwrap();
        let mut set = QuantileSet::default();
        let mut rng = Rng64::seed_from(3);
        for _ in 0..300_000 {
            set.push(d.sample(&mut rng));
        }
        for (q, est) in set.estimates() {
            let want = d.quantile(q);
            assert!(
                (est - want).abs() / want < 0.08,
                "q={q}: {est} vs {want}"
            );
        }
    }

    #[test]
    fn monotone_across_quantiles() {
        let mut set = QuantileSet::new(&[0.25, 0.5, 0.75, 0.95]);
        let mut rng = Rng64::seed_from(4);
        for _ in 0..50_000 {
            set.push(rng.standard_exponential());
        }
        let est: Vec<f64> = set.estimates().iter().map(|&(_, e)| e).collect();
        for w in est.windows(2) {
            assert!(w[0] <= w[1], "quantile estimates not monotone: {est:?}");
        }
    }

    #[test]
    fn constant_stream_is_exact() {
        let mut p = P2Quantile::new(0.9);
        for _ in 0..1000 {
            p.push(7.0);
        }
        assert_eq!(p.estimate(), 7.0);
    }

    #[test]
    fn get_returns_tracked_estimate() {
        let mut set = QuantileSet::default();
        for i in 0..1000 {
            set.push(f64::from(i));
        }
        let p99 = set.get(0.99);
        assert!((p99 - 990.0).abs() < 15.0, "p99 = {p99}");
    }

    #[test]
    #[should_panic(expected = "not tracked")]
    fn get_panics_for_untracked() {
        let set = QuantileSet::default();
        let _ = set.get(0.42);
    }
}
