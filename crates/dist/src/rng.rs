//! Deterministic, splittable pseudo-random number generation.
//!
//! Every experiment in the `dses` workspace must be exactly reproducible
//! from a single `u64` seed, independent of the version of any external
//! crate. We therefore implement our own small generators rather than rely
//! on `rand`'s unspecified default algorithms:
//!
//! * [`SplitMix64`] — the seeding/mixing generator. Fast, passes BigCrush,
//!   and ideal for deriving many independent streams from one master seed.
//! * [`Rng64`] — xoshiro256++, the workhorse generator used for sampling.
//!   Its output sequence is pinned by this crate; no external RNG crate is
//!   involved anywhere in the workspace.
//!
//! Stream splitting: [`Rng64::stream`] derives a statistically independent
//! child generator. Simulations use one stream per concern (sizes,
//! interarrivals, policy randomness) so that changing how many samples one
//! concern draws never perturbs another — the standard common-random-numbers
//! discipline for variance-reduced policy comparison.
//!
//! Grid-point seeds: [`derive_seed`] hashes a `(master seed, index)` pair
//! through SplitMix64 so that every point of an experiment grid (a
//! replication index, a sweep cell) gets a well-mixed seed that is a pure
//! function of the pair — the property the deterministic parallel
//! execution layer relies on: workers may compute grid points in any
//! order on any thread and still reproduce the sequential results
//! bit-for-bit.

/// SplitMix64: a tiny 64-bit generator used for seeding and stream
/// derivation (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
/// Generators", OOPSLA 2014).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Produce the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workspace's primary generator: xoshiro256++ (Blackman & Vigna).
///
/// 256 bits of state, period 2^256 − 1, excellent statistical quality, and
/// fast enough that random-number generation never dominates a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Seed a generator deterministically from a single `u64`.
    ///
    /// The 256-bit state is expanded from the seed with [`SplitMix64`], as
    /// recommended by the xoshiro authors (an all-zero state is impossible
    /// because SplitMix64 output is equidistributed).
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Derive an independent child stream.
    ///
    /// The child is seeded from a hash of this generator's *original* seed
    /// material and the `stream` index, so `rng.stream(0)`, `rng.stream(1)`,
    /// … are stable regardless of how much has been drawn from `self`.
    /// (We hash the current state; callers should split streams up front,
    /// before sampling, which all `dses` code does.)
    #[must_use]
    pub fn stream(&self, stream: u64) -> Self {
        // Mix the four state words with the stream index through SplitMix64.
        let mut sm = SplitMix64::new(
            self.s[0]
                .wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(self.s[1].rotate_left(17))
                .wrapping_add(self.s[2].rotate_left(31))
                .wrapping_add(self.s[3].rotate_left(47))
                .wrapping_add(stream.wrapping_mul(0xE703_7ED1_A0B4_28DB)),
        );
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform variate in the half-open interval `[0, 1)`.
    ///
    /// Uses the top 53 bits, the standard full-precision `f64` construction.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // dses-lint: allow(divide-budget) -- `1.0 / 2^53` is a compile-time constant fold, not a runtime divide
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform variate in the *open* interval `(0, 1)`.
    ///
    /// Useful for inverse-transform sampling of distributions whose
    /// quantile function diverges at 0 or 1 (e.g. the exponential at 1).
    #[inline]
    pub fn uniform_open(&mut self) -> f64 {
        loop {
            let u = self.uniform();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// A uniform variate in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// Lemire's nearly-divisionless method; unbiased.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_raw();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            // dses-lint: allow(divide-budget) -- u64 modulo on Lemire's rejection path, taken with probability < n/2^64; integer, not an FP divide
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_raw();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A Bernoulli trial that succeeds with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// A standard normal variate (Marsaglia polar method).
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                // dses-lint: allow(divide-budget) -- Marsaglia polar: one divide per normal draw; only the noise-model sensitivity policies draw normals, off the measured kernels
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// A unit-rate exponential variate.
    #[inline]
    pub fn standard_exponential(&mut self) -> f64 {
        -self.uniform_open().ln()
    }
}

/// Derive the seed for grid point `index` of an experiment keyed by
/// `master`.
///
/// The pair is hashed through two SplitMix64 steps, so neighbouring
/// indices (0, 1, 2, …) produce statistically unrelated seeds — unlike
/// the naive `master + index`, whose low-entropy neighbours feed
/// correlated state into seed expansion. Being a pure function of
/// `(master, index)`, the derivation is what lets sequential and
/// parallel experiment execution agree bit-for-bit: each grid point's
/// randomness is fixed no matter which thread computes it, or when.
#[must_use]
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut sm = SplitMix64::new(master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sm.next_u64();
    sm.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c implementation.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_eq!(first, 6457827717110365317);
        assert_eq!(second, 3203168211198807973);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = Rng64::seed_from(99);
        let mut b = Rng64::seed_from(99);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::seed_from(1);
        let mut b = Rng64::seed_from(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_stable_and_distinct() {
        let root = Rng64::seed_from(7);
        let mut s0 = root.stream(0);
        let mut s0_again = root.stream(0);
        let mut s1 = root.stream(1);
        for _ in 0..100 {
            assert_eq!(s0.next_raw(), s0_again.next_raw());
        }
        let mut s0 = root.stream(0);
        let same = (0..64).filter(|_| s0.next_raw() == s1.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng64::seed_from(5);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut rng = Rng64::seed_from(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.uniform()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Rng64::seed_from(13);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            let v = rng.below(7) as usize;
            counts[v] += 1;
        }
        for &c in &counts {
            // each bucket expects 10_000; allow generous slack
            assert!((9_000..11_000).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Rng64::seed_from(17);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let z = rng.standard_normal();
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }

    #[test]
    fn standard_exponential_mean_one() {
        let mut rng = Rng64::seed_from(19);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.standard_exponential()).sum();
        assert!((sum / n as f64 - 1.0).abs() < 0.02);
    }

    #[test]
    fn derived_seeds_are_stable_and_decorrelated() {
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        // neighbouring indices and neighbouring masters must all differ
        let mut seen = std::collections::BTreeSet::new();
        for master in 0..8u64 {
            for index in 0..64u64 {
                assert!(seen.insert(derive_seed(master, index)));
            }
        }
        // derived generators should not collide with each other's streams
        let mut a = Rng64::seed_from(derive_seed(7, 0));
        let mut b = Rng64::seed_from(derive_seed(7, 1));
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }
}
