//! Arrival processes.
//!
//! The paper's main experiments use Poisson arrivals so load can be set
//! freely (§2.2); §6 repeats the key comparison with the traces' own —
//! much burstier — interarrival sequence. We provide:
//!
//! * [`Poisson`] — the memoryless baseline;
//! * [`Renewal`] — i.i.d. interarrivals from any `dses-dist`
//!   distribution (e.g. a high-`C²` lognormal for mild burstiness);
//! * [`Mmpp2`] — a 2-state Markov-modulated Poisson process, the standard
//!   model of *correlated* burstiness (visits alternate between a calm
//!   state and a bursty state). This is our stand-in for the paper's
//!   trace-scaled arrival sequence.

use dses_dist::prelude::*;

/// A stateful generator of interarrival gaps.
pub trait ArrivalProcess: std::fmt::Debug {
    /// The time until the next arrival.
    fn next_gap(&mut self, rng: &mut Rng64) -> f64;

    /// The long-run mean arrival rate (arrivals per second).
    fn mean_rate(&self) -> f64;

    /// Reset internal state (e.g. the MMPP phase) to the initial state.
    fn reset(&mut self);
}

/// Poisson arrivals: i.i.d. exponential gaps with the given rate.
#[derive(Debug, Clone)]
pub struct Poisson {
    rate: f64,
}

impl Poisson {
    /// Create a Poisson process with arrival rate `rate` (> 0).
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Self { rate }
    }
}

impl ArrivalProcess for Poisson {
    fn next_gap(&mut self, rng: &mut Rng64) -> f64 {
        rng.standard_exponential() / self.rate
    }

    fn mean_rate(&self) -> f64 {
        self.rate
    }

    fn reset(&mut self) {}
}

/// Renewal arrivals: i.i.d. gaps from an arbitrary distribution.
#[derive(Debug)]
pub struct Renewal<D: Distribution> {
    gap_dist: D,
}

impl<D: Distribution> Renewal<D> {
    /// Create a renewal process with the given interarrival distribution.
    #[must_use]
    pub fn new(gap_dist: D) -> Self {
        assert!(
            gap_dist.mean() > 0.0,
            "interarrival distribution needs positive mean"
        );
        Self { gap_dist }
    }
}

impl<D: Distribution> ArrivalProcess for Renewal<D> {
    fn next_gap(&mut self, rng: &mut Rng64) -> f64 {
        self.gap_dist.sample(rng)
    }

    fn mean_rate(&self) -> f64 {
        1.0 / self.gap_dist.mean()
    }

    fn reset(&mut self) {}
}

/// A 2-state Markov-modulated Poisson process.
///
/// The process alternates between state 0 and state 1; in state `i`
/// arrivals occur at Poisson rate `lambda[i]` and the state flips at rate
/// `switch[i]`. With `lambda[burst] ≫ lambda[calm]` and slow switching,
/// interarrival times are both highly variable *and* positively
/// correlated — the two properties §6 identifies in real trace arrivals.
#[derive(Debug, Clone)]
pub struct Mmpp2 {
    lambda: [f64; 2],
    switch: [f64; 2],
    state: usize,
}

impl Mmpp2 {
    /// Create an MMPP-2 from per-state arrival rates and switching rates.
    #[must_use]
    pub fn new(lambda: [f64; 2], switch: [f64; 2]) -> Self {
        assert!(
            lambda.iter().all(|&l| l >= 0.0 && l.is_finite()),
            "arrival rates must be nonnegative"
        );
        assert!(
            lambda.iter().any(|&l| l > 0.0),
            "at least one state must produce arrivals"
        );
        assert!(
            switch.iter().all(|&r| r > 0.0 && r.is_finite()),
            "switching rates must be positive"
        );
        Self {
            lambda,
            switch,
            state: 0,
        }
    }

    /// A convenient bursty preset: overall mean rate `rate`, with the
    /// bursty state `burstiness` times faster than the calm state, and
    /// mean state-visit length of `visit_arrivals` arrivals in the bursty
    /// state.
    ///
    /// `burstiness = 1` degenerates to Poisson-like behaviour;
    /// `burstiness ≈ 10–50` with long visits reproduces the "many jobs
    /// with similar arrival times" effect the paper describes.
    #[must_use]
    pub fn bursty(rate: f64, burstiness: f64, visit_arrivals: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        assert!(burstiness >= 1.0, "burstiness must be >= 1");
        assert!(visit_arrivals > 0.0, "visit length must be positive");
        // Spend half the time in each state; calm rate c, bursty rate B·c.
        // Mean rate = (c + B·c)/2 = rate  ⇒  c = 2·rate/(1+B).
        let calm = 2.0 * rate / (1.0 + burstiness);
        let burst = burstiness * calm;
        // switching rate chosen so a bursty visit emits ~visit_arrivals
        let r = burst / visit_arrivals;
        Self::new([burst, calm], [r, r])
    }

    /// Stationary probability of being in state 0.
    fn pi0(&self) -> f64 {
        self.switch[1] / (self.switch[0] + self.switch[1])
    }
}

impl ArrivalProcess for Mmpp2 {
    fn next_gap(&mut self, rng: &mut Rng64) -> f64 {
        // Competing exponentials: in state i the next event is an arrival
        // with rate lambda[i] or a switch with rate switch[i].
        let mut gap = 0.0;
        loop {
            let l = self.lambda[self.state];
            let r = self.switch[self.state];
            let total = l + r;
            gap += rng.standard_exponential() / total;
            if rng.uniform() * total < l {
                return gap;
            }
            self.state ^= 1;
        }
    }

    fn mean_rate(&self) -> f64 {
        let p0 = self.pi0();
        p0 * self.lambda[0] + (1.0 - p0) * self.lambda[1]
    }

    fn reset(&mut self) {
        self.state = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_rate(p: &mut dyn ArrivalProcess, n: usize, seed: u64) -> f64 {
        let mut rng = Rng64::seed_from(seed);
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng)).sum();
        n as f64 / total
    }

    fn empirical_gap_scv(p: &mut dyn ArrivalProcess, n: usize, seed: u64) -> f64 {
        let mut rng = Rng64::seed_from(seed);
        let om: OnlineMoments = (0..n).map(|_| p.next_gap(&mut rng)).collect();
        om.scv()
    }

    #[test]
    fn poisson_rate_and_scv() {
        let mut p = Poisson::new(2.0);
        assert_eq!(p.mean_rate(), 2.0);
        let r = empirical_rate(&mut p, 200_000, 1);
        assert!((r - 2.0).abs() < 0.02, "rate = {r}");
        let scv = empirical_gap_scv(&mut p, 200_000, 2);
        assert!((scv - 1.0).abs() < 0.03, "scv = {scv}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn poisson_rejects_zero_rate() {
        let _ = Poisson::new(0.0);
    }

    #[test]
    fn renewal_with_lognormal_is_bursty_but_uncorrelated() {
        let d = LogNormal::fit_mean_scv(0.5, 9.0).unwrap();
        let mut p = Renewal::new(d);
        assert!((p.mean_rate() - 2.0).abs() < 1e-9);
        let scv = empirical_gap_scv(&mut p, 300_000, 3);
        assert!(scv > 5.0, "scv = {scv}");
    }

    #[test]
    fn mmpp_mean_rate_formula_matches_sampling() {
        let mut p = Mmpp2::new([4.0, 0.5], [0.1, 0.2]);
        let analytic = p.mean_rate();
        // pi0 = 0.2/0.3 = 2/3 → rate = 2/3·4 + 1/3·0.5 = 2.8333
        assert!((analytic - (2.0 / 3.0 * 4.0 + 1.0 / 3.0 * 0.5)).abs() < 1e-12);
        let r = empirical_rate(&mut p, 400_000, 4);
        assert!((r - analytic).abs() / analytic < 0.02, "rate {r} vs {analytic}");
    }

    #[test]
    fn bursty_preset_hits_target_rate() {
        let mut p = Mmpp2::bursty(1.0, 20.0, 50.0);
        assert!((p.mean_rate() - 1.0).abs() < 1e-9);
        let r = empirical_rate(&mut p, 400_000, 5);
        assert!((r - 1.0).abs() < 0.05, "rate = {r}");
    }

    #[test]
    fn bursty_gaps_have_high_variability() {
        let mut bursty = Mmpp2::bursty(1.0, 30.0, 100.0);
        let scv = empirical_gap_scv(&mut bursty, 400_000, 6);
        assert!(scv > 2.0, "bursty scv = {scv}");
        // and positive autocorrelation: consecutive gaps in the same state
        let mut rng = Rng64::seed_from(7);
        let gaps: Vec<f64> = (0..200_000).map(|_| bursty.next_gap(&mut rng)).collect();
        let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64;
        let cov = gaps
            .windows(2)
            .map(|w| (w[0] - m) * (w[1] - m))
            .sum::<f64>()
            / (gaps.len() - 1) as f64;
        let rho1 = cov / var;
        assert!(rho1 > 0.05, "lag-1 autocorrelation = {rho1}");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut p = Mmpp2::new([5.0, 0.1], [1.0, 1.0]);
        let mut rng = Rng64::seed_from(8);
        for _ in 0..100 {
            let _ = p.next_gap(&mut rng);
        }
        p.reset();
        assert_eq!(p.state, 0);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn mmpp_rejects_all_silent_states() {
        let _ = Mmpp2::new([0.0, 0.0], [1.0, 1.0]);
    }
}

/// Replay a recorded interarrival sequence — either in its original
/// order (preserving burst *correlation*) or deterministically shuffled
/// (preserving only the marginal gap distribution).
///
/// This is the instrument for decomposing §6's burstiness effect: pair
/// an ordered replay against a shuffled one and any performance
/// difference is attributable purely to arrival *correlation*, not
/// variability. Replay cycles if more gaps are requested than recorded.
#[derive(Debug, Clone)]
pub struct ReplayArrivals {
    gaps: Vec<f64>,
    next: usize,
}

impl ReplayArrivals {
    /// Replay `gaps` in order.
    ///
    /// # Panics
    /// Panics on an empty or non-positive-mean gap list.
    #[must_use]
    pub fn ordered(gaps: Vec<f64>) -> Self {
        assert!(!gaps.is_empty(), "need at least one gap");
        assert!(
            gaps.iter().all(|&g| g >= 0.0 && g.is_finite()),
            "gaps must be nonnegative and finite"
        );
        assert!(gaps.iter().sum::<f64>() > 0.0, "gaps must have positive mean");
        Self { gaps, next: 0 }
    }

    /// Replay `gaps` after a deterministic Fisher–Yates shuffle seeded by
    /// `seed` — same marginal distribution, correlation destroyed.
    #[must_use]
    pub fn shuffled(mut gaps: Vec<f64>, seed: u64) -> Self {
        assert!(!gaps.is_empty(), "need at least one gap");
        let mut rng = Rng64::seed_from(seed).stream(0x5817);
        for i in (1..gaps.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            gaps.swap(i, j);
        }
        Self::ordered(gaps)
    }

    /// Extract the gap sequence of an existing trace.
    #[must_use]
    pub fn gaps_of(trace: &crate::trace::Trace) -> Vec<f64> {
        trace.arrivals().windows(2).map(|w| w[1] - w[0]).collect()
    }
}

impl ArrivalProcess for ReplayArrivals {
    fn next_gap(&mut self, _rng: &mut Rng64) -> f64 {
        let g = self.gaps[self.next];
        self.next = (self.next + 1) % self.gaps.len();
        g
    }

    fn mean_rate(&self) -> f64 {
        self.gaps.len() as f64 / self.gaps.iter().sum::<f64>()
    }

    fn reset(&mut self) {
        self.next = 0;
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use crate::synthetic::WorkloadBuilder;
    use crate::trace::Trace;
    use dses_dist::Deterministic;

    #[test]
    fn ordered_replay_reproduces_the_sequence() {
        let mut p = ReplayArrivals::ordered(vec![1.0, 2.0, 3.0]);
        let mut rng = Rng64::seed_from(0);
        let got: Vec<f64> = (0..5).map(|_| p.next_gap(&mut rng)).collect();
        assert_eq!(got, vec![1.0, 2.0, 3.0, 1.0, 2.0]); // cycles
        p.reset();
        assert_eq!(p.next_gap(&mut rng), 1.0);
    }

    #[test]
    fn shuffle_preserves_the_multiset() {
        let gaps = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut p = ReplayArrivals::shuffled(gaps.clone(), 7);
        let mut rng = Rng64::seed_from(0);
        let mut got: Vec<f64> = (0..5).map(|_| p.next_gap(&mut rng)).collect();
        got.sort_by(f64::total_cmp);
        assert_eq!(got, gaps);
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let gaps: Vec<f64> = (1..100).map(f64::from).collect();
        let a = ReplayArrivals::shuffled(gaps.clone(), 3);
        let b = ReplayArrivals::shuffled(gaps.clone(), 3);
        assert_eq!(a.gaps, b.gaps);
        let c = ReplayArrivals::shuffled(gaps, 4);
        assert_ne!(a.gaps, c.gaps);
    }

    #[test]
    fn mean_rate_matches_gap_mean() {
        let p = ReplayArrivals::ordered(vec![1.0, 3.0]);
        assert!((p.mean_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shuffle_destroys_correlation_but_keeps_scv() {
        // build a bursty trace, replay ordered vs shuffled, compare
        let bursty = WorkloadBuilder::new(Deterministic::new(1.0).unwrap())
            .jobs(40_000)
            .arrivals(Mmpp2::bursty(1.0, 30.0, 100.0))
            .seed(3)
            .build();
        let gaps = ReplayArrivals::gaps_of(&bursty);
        let n = gaps.len();
        let rebuild = |p: ReplayArrivals| -> Trace {
            WorkloadBuilder::new(Deterministic::new(1.0).unwrap())
                .jobs(n)
                .arrivals(p)
                .seed(3)
                .build()
        };
        let ordered = rebuild(ReplayArrivals::ordered(gaps.clone()));
        let shuffled = rebuild(ReplayArrivals::shuffled(gaps, 9));
        let ro = crate::burstiness::burstiness_report(&ordered, 1, 2);
        let rs = crate::burstiness::burstiness_report(&shuffled, 1, 2);
        // same marginal variability…
        assert!((ro.interarrival_scv - rs.interarrival_scv).abs() / ro.interarrival_scv < 0.05);
        // …but the correlation is gone
        assert!(ro.gap_autocorrelation[0] > 0.05);
        assert!(rs.gap_autocorrelation[0].abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "at least one gap")]
    fn rejects_empty_gaps() {
        let _ = ReplayArrivals::ordered(vec![]);
    }
}

/// A non-homogeneous Poisson process with sinusoidal (diurnal) rate:
/// `λ(t) = rate · (1 + amplitude·sin(2πt/period))`, generated by
/// Lewis–Shedler thinning.
///
/// Real supercomputing centers see day/night submission cycles; this is
/// the standard deterministic-modulation complement to the MMPP's random
/// bursts when probing §6-style arrival effects.
#[derive(Debug, Clone)]
pub struct DiurnalPoisson {
    rate: f64,
    amplitude: f64,
    period: f64,
    now: f64,
}

impl DiurnalPoisson {
    /// Create a diurnal Poisson process with mean rate `rate`, relative
    /// amplitude `amplitude ∈ [0, 1)` and cycle length `period`.
    #[must_use]
    pub fn new(rate: f64, amplitude: f64, period: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0, 1) so the rate stays positive"
        );
        assert!(period > 0.0 && period.is_finite(), "period must be positive");
        Self {
            rate,
            amplitude,
            period,
            now: 0.0,
        }
    }

    fn rate_at(&self, t: f64) -> f64 {
        self.rate
            * (1.0 + self.amplitude * (2.0 * std::f64::consts::PI * t / self.period).sin())
    }
}

impl ArrivalProcess for DiurnalPoisson {
    fn next_gap(&mut self, rng: &mut Rng64) -> f64 {
        // Lewis–Shedler thinning against the envelope rate·(1+amplitude)
        let envelope = self.rate * (1.0 + self.amplitude);
        let start = self.now;
        loop {
            self.now += rng.standard_exponential() / envelope;
            if rng.uniform() * envelope < self.rate_at(self.now) {
                return self.now - start;
            }
        }
    }

    fn mean_rate(&self) -> f64 {
        self.rate // the sinusoid averages out over a period
    }

    fn reset(&mut self) {
        self.now = 0.0;
    }
}

#[cfg(test)]
mod diurnal_tests {
    use super::*;
    use crate::synthetic::WorkloadBuilder;
    use dses_dist::Deterministic;

    #[test]
    fn mean_rate_is_preserved() {
        let mut p = DiurnalPoisson::new(2.0, 0.8, 100.0);
        let mut rng = Rng64::seed_from(1);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng)).sum();
        let rate = n as f64 / total;
        assert!((rate - 2.0).abs() < 0.05, "rate = {rate}");
    }

    #[test]
    fn zero_amplitude_is_plain_poisson() {
        let mut p = DiurnalPoisson::new(1.0, 0.0, 10.0);
        let mut rng = Rng64::seed_from(2);
        let om: dses_dist::OnlineMoments = (0..200_000).map(|_| p.next_gap(&mut rng)).collect();
        assert!((om.scv() - 1.0).abs() < 0.03, "scv = {}", om.scv());
    }

    #[test]
    fn modulation_raises_dispersion_at_the_period_scale() {
        // counts over windows comparable to the period are over-dispersed
        let t = WorkloadBuilder::new(Deterministic::new(1.0).unwrap())
            .jobs(100_000)
            .arrivals(DiurnalPoisson::new(1.0, 0.9, 1_000.0))
            .seed(3)
            .build();
        // Deterministic rate modulation over-disperses counts at windows
        // below the period (different windows catch different phases),
        // but at a window of exactly one period every window sees the
        // same average rate and the dispersion collapses back toward
        // Poisson — the signature that distinguishes cyclic modulation
        // from MMPP-style random bursts.
        let idc_small = crate::burstiness::index_of_dispersion(&t, 1.0);
        let idc_mid = crate::burstiness::index_of_dispersion(&t, 100.0);
        let idc_period = crate::burstiness::index_of_dispersion(&t, 1_000.0);
        assert!(idc_small < idc_mid, "sub-period growth: {idc_small} vs {idc_mid}");
        assert!(idc_mid > 10.0, "mid-window IDC = {idc_mid}");
        assert!(idc_period < idc_mid / 5.0,
            "full-period windows should collapse: {idc_period} vs {idc_mid}");
    }

    #[test]
    fn density_peaks_follow_the_sinusoid() {
        let p = DiurnalPoisson::new(1.0, 0.5, 100.0);
        assert!((p.rate_at(25.0) - 1.5).abs() < 1e-9); // peak at quarter period
        assert!((p.rate_at(75.0) - 0.5).abs() < 1e-9); // trough
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn rejects_full_amplitude() {
        let _ = DiurnalPoisson::new(1.0, 1.0, 10.0);
    }
}
