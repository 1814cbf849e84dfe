//! Bit-pattern digests of workload results.
//!
//! Every float is hashed by its IEEE bits, so two results digest equal
//! only if they are bit-identical. FNV-1a over little-endian words:
//! order-sensitive, dependency-free, and stable across platforms.

use dses_core::experiment::{Replicated, SweepPoint};
use dses_dist::Moments;
use dses_sim::SimResult;

/// A running FNV-1a 64 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold in one word.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Fold in a float by its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Fold in a sequence of floats, prefixed by its length.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
        self
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Digest of one sweep grid point.
pub fn sweep_point(p: &SweepPoint) -> u64 {
    let mut d = Digest::default();
    d.f64s(&[
        p.rho,
        p.mean_slowdown,
        p.var_slowdown,
        p.mean_response,
        p.var_response,
        p.mean_waiting,
        p.load_fraction_host0,
        p.job_fraction_host0,
    ])
    .u64(p.measured);
    d.value()
}

/// Digest of a replicated estimate.
pub fn replicated(r: &Replicated) -> u64 {
    let mut d = Digest::default();
    d.f64(r.mean).f64(r.half_width).u64(r.replications as u64);
    d.value()
}

fn moments(d: &mut Digest, m: &Moments) {
    d.u64(m.count).f64s(&[m.mean, m.variance, m.min, m.max]);
}

/// Digest of every field of a [`SimResult`].
pub fn sim_result(r: &SimResult) -> u64 {
    let mut d = Digest::default();
    for m in [&r.slowdown, &r.queueing_slowdown, &r.response, &r.waiting] {
        moments(&mut d, m);
    }
    d.u64(r.per_host.len() as u64);
    for h in &r.per_host {
        d.u64(h.jobs).f64(h.work);
    }
    d.f64(r.makespan).u64(r.measured).u64(r.skipped);
    match &r.fairness {
        Some(f) => {
            d.u64(f.num_bins() as u64);
            for (center, m) in f.populated_bins() {
                d.f64(center);
                moments(&mut d, &m.finish());
            }
        }
        None => {
            d.u64(u64::MAX);
        }
    }
    for class in [&r.short_slowdown, &r.long_slowdown] {
        match class {
            Some(m) => moments(&mut d, m),
            None => {
                d.u64(u64::MAX);
            }
        }
    }
    match &r.slowdown_percentiles {
        Some(ps) => {
            for &(q, est) in ps {
                d.f64(q).f64(est);
            }
        }
        None => {
            d.u64(u64::MAX);
        }
    }
    match r.slo_violations {
        Some((n, t)) => d.u64(n).f64(t),
        None => d.u64(u64::MAX),
    };
    d.u64(r.records.as_ref().map_or(u64::MAX, |v| v.len() as u64));
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit() {
        let a = Digest::default().f64(1.0).value();
        let b = Digest::default()
            .f64(f64::from_bits(1.0f64.to_bits() + 1))
            .value();
        assert_ne!(a, b);
        // -0.0 == 0.0 as floats, but not as bits
        assert_ne!(
            Digest::default().f64(0.0).value(),
            Digest::default().f64(-0.0).value()
        );
    }

    #[test]
    fn digest_is_order_sensitive() {
        let ab = Digest::default().f64s(&[1.0, 2.0]).value();
        let ba = Digest::default().f64s(&[2.0, 1.0]).value();
        assert_ne!(ab, ba);
    }
}
