//! Logarithmic histograms.
//!
//! [`LogHistogram`] is what the fairness analysis uses: job sizes span six
//! orders of magnitude, so the "slowdown as a function of job size" curves
//! in the SITA-U-fair evaluation bin jobs by log-size.

use crate::moments::OnlineMoments;

/// A histogram whose bins are uniform in `log10(x)`, with a per-bin
/// [`OnlineMoments`] accumulator for an associated metric.
///
/// `record(size, slowdown)` bins by `size` and accumulates `slowdown`
/// statistics inside the bin — exactly the "expected slowdown vs job size"
/// fairness curve of the paper's §4.
///
/// The bins are defined by `bins − 1` size edges computed once, at
/// construction: edge `i` is the smallest positive key the log10 rule
/// `⌊bins · (log10 key − log10 lo) / (log10 hi − log10 lo)⌋` (clamped to
/// the bins, keys ≤ 0 in bin 0) puts in bin `i` or above. A key's bin is
/// the number of edges at or below it — no `log10` and no divide per
/// record, and monotone in the key on any libm.
#[derive(Debug, PartialEq)]
pub struct LogHistogram {
    log_lo: f64,
    log_hi: f64,
    /// `edges[i − 1]`: the smallest key in bin `i` or above, or NaN
    edges: Vec<f64>,
    bins: Vec<OnlineMoments>,
}

// Hand-written so `clone_from` reuses the destination's bin buffer:
// reusable simulation results copy a workspace histogram every run, and
// the derived `clone_from` (`*self = source.clone()`) would reallocate.
impl Clone for LogHistogram {
    fn clone(&self) -> Self {
        Self {
            log_lo: self.log_lo,
            log_hi: self.log_hi,
            edges: self.edges.clone(),
            bins: self.bins.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.log_lo = source.log_lo;
        self.log_hi = source.log_hi;
        self.edges.clone_from(&source.edges);
        self.bins.clone_from(&source.bins);
    }
}

impl LogHistogram {
    /// Create a log histogram over `[lo, hi)` (both > 0) with `bins` bins
    /// uniform in log space.
    ///
    /// # Panics
    /// Panics if `lo <= 0`, `hi <= lo`, or `bins == 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo > 0.0, "log histogram needs positive lower bound");
        assert!(hi > lo, "log histogram range must be non-empty");
        assert!(bins > 0, "log histogram needs at least one bin");
        let (log_lo, log_hi) = (lo.log10(), hi.log10());
        Self {
            log_lo,
            log_hi,
            // dses-lint: allow(no-alloc-transitive) -- grow-once: Collector::reset only constructs a histogram (its edges and bins) when the layout changes
            edges: (1..bins).map(|i| first_key_in(log_lo, log_hi, bins, i)).collect(),
            bins: vec![OnlineMoments::new(); bins],
        }
    }

    /// Whether this histogram has exactly the layout `new(lo, hi, bins)`
    /// would produce (bitwise edge comparison). Reusable collectors use
    /// this to [`reset`](Self::reset) in place instead of reallocating.
    #[must_use]
    pub fn has_layout(&self, lo: f64, hi: f64, bins: usize) -> bool {
        lo > 0.0
            && hi > lo
            && self.bins.len() == bins
            && self.log_lo.to_bits() == lo.log10().to_bits()
            && self.log_hi.to_bits() == hi.log10().to_bits()
    }

    /// Forget every observation, keeping the bin layout and the bin
    /// buffer (allocation-free).
    pub fn reset(&mut self) {
        for bin in &mut self.bins {
            *bin = OnlineMoments::new();
        }
    }

    /// Record `value` into the bin of `key` (values outside the range are
    /// clamped into the first/last bin — every job contributes to the
    /// fairness curve).
    pub fn record(&mut self, key: f64, value: f64) {
        self.bin_mut(key).push(value);
    }

    /// The accumulator of the bin `key` falls into, for callers that
    /// push with a precomputed reciprocal
    /// ([`OnlineMoments::push_with_inv`]).
    pub fn bin_mut(&mut self, key: f64) -> &mut OnlineMoments {
        let idx = self.bin_index(key);
        &mut self.bins[idx]
    }

    /// The bin index `key` falls into: the number of edges at or below
    /// it (clamped — keys ≤ 0, NaN and keys below the range land in bin
    /// 0, keys past it in the last bin).
    #[must_use]
    pub fn bin_index(&self, key: f64) -> usize {
        self.edges
            .iter()
            .map(|&edge| usize::from(edge <= key))
            .sum()
    }

    /// The size edges: `edges()[i − 1]` is the smallest key in bin `i`
    /// or above (NaN when no key gets that far), so a key's bin is the
    /// number of edges at or below it.
    #[must_use]
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// The geometric midpoint of bin `i`.
    #[must_use]
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.log_hi - self.log_lo) / self.bins.len() as f64;
        10f64.powf(self.log_lo + w * (i as f64 + 0.5))
    }

    /// Iterate `(bin_center, moments)` for non-empty bins.
    pub fn populated_bins(&self) -> impl Iterator<Item = (f64, &OnlineMoments)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, m)| m.count() > 0)
            .map(|(i, m)| (self.bin_center(i), m))
    }

    /// Number of bins.
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }
}

/// The log10 rule the edges are built from: the bin of `key` among
/// `bins` bins uniform in `log10` over `[10^log_lo, 10^log_hi)`, clamped,
/// with every key ≤ 0 (and NaN) in bin 0.
fn log10_bin(log_lo: f64, log_hi: f64, bins: usize, key: f64) -> usize {
    if key <= 0.0 {
        return 0;
    }
    let pos = (key.log10() - log_lo) / (log_hi - log_lo);
    let idx = (pos * bins as f64).floor();
    (idx.max(0.0) as usize).min(bins - 1)
}

/// The smallest positive `f64` that [`log10_bin`] puts in bin `i ≥ 1` or
/// above, by bisection over the bit patterns (positive floats order like
/// their bits); NaN — which no key is at or above — when not even +∞
/// reaches bin `i`.
fn first_key_in(log_lo: f64, log_hi: f64, bins: usize, i: usize) -> f64 {
    let reaches = |bits: u64| log10_bin(log_lo, log_hi, bins, f64::from_bits(bits)) >= i;
    // +0.0 sits in bin 0 < i; +∞ is the largest key
    let (mut below, mut at) = (0u64, f64::INFINITY.to_bits());
    if !reaches(at) {
        return f64::NAN;
    }
    while at - below > 1 {
        let mid = below + (at - below) / 2;
        if reaches(mid) {
            at = mid;
        } else {
            below = mid;
        }
    }
    f64::from_bits(at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = LogHistogram::new(1.0, 10.0, 0);
    }

    #[test]
    fn log_histogram_clamps_out_of_range() {
        let mut h = LogHistogram::new(1.0, 1000.0, 3);
        h.record(0.5, 1.0); // below → bin 0
        h.record(1e6, 2.0); // above → last bin
        assert_eq!(h.bins[0].count(), 1);
        assert_eq!(h.bins[2].count(), 1);
    }

    #[test]
    fn log_histogram_decade_bins() {
        let h = LogHistogram::new(1.0, 1000.0, 3);
        assert_eq!(h.bin_index(2.0), 0);
        assert_eq!(h.bin_index(20.0), 1);
        assert_eq!(h.bin_index(200.0), 2);
        // centers are geometric midpoints of each decade
        assert!((h.bin_center(0) - 10f64.powf(0.5)).abs() < 1e-9);
    }

    #[test]
    fn a_bin_no_key_reaches_has_a_nan_edge() {
        // with log10 hi = +∞ the rule puts every key, +∞ included, in bin 0
        let h = LogHistogram::new(1.0, f64::INFINITY, 4);
        assert!(h.edges().iter().all(|e| e.is_nan()));
        for key in [1.0, 1e300, f64::MAX, f64::INFINITY] {
            assert_eq!(log10_bin(h.log_lo, h.log_hi, 4, key), 0);
            assert_eq!(h.bin_index(key), 0);
        }
    }

    #[test]
    fn log_histogram_accumulates_values() {
        let mut h = LogHistogram::new(1.0, 100.0, 2);
        h.record(2.0, 10.0);
        h.record(3.0, 20.0);
        h.record(50.0, 5.0);
        let bins: Vec<_> = h.populated_bins().collect();
        assert_eq!(bins.len(), 2);
        assert!((bins[0].1.mean() - 15.0).abs() < 1e-12);
        assert!((bins[1].1.mean() - 5.0).abs() < 1e-12);
    }
}
