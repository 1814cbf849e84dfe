//! The analytic layer computes each band quantity once — one quantile
//! sweep per band, an incremental multi-host descent, slowdown-tail
//! tables built once per solve — and only the band quantities a cutoff
//! objective reads (three moments, not five), and every reuse is
//! bit-identical to recomputing.
//!
//! The pinned bit patterns were recorded with the per-order quadrature,
//! the full re-analysis per descent trial, the per-evaluation tail
//! tables and the five-moment objective bands that these replaced.

use dses_dist::prelude::*;
use dses_dist::quantile_space_partial_moments;
use dses_queueing::cutoff::{
    sita_e_cutoffs, sita_u_fair_cutoff, sita_u_fair_cutoffs_multi, sita_u_opt_cutoff,
    sita_u_opt_cutoffs_multi,
};
use dses_queueing::transform::{sita_slowdown_ccdf, sita_slowdown_quantile};
use dses_queueing::{analyze_hetero, hetero_opt_cutoff, ServiceMoments, SitaAnalysis};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The calibrated body–tail C90 stand-in of the queueing crate's tests.
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn multi_host_opt_cutoffs_keep_their_pinned_bits() {
    let d = c90ish();
    let pinned: [(usize, &[u64]); 2] = [
        (4, &[0x40a1a926d1b76a07, 0x40e0d95f43307f2a, 0x40ffb6416d708573]),
        (
            16,
            &[
                0x407aca2b0e3b5d3c,
                0x409fedbf2046e92b,
                0x40b783262084cf68,
                0x40c8d61aab649740,
                0x40d58e3b3fc9b5e2,
                0x40e08f63d3ebaf2a,
                0x40e776129f32f1a4,
                0x40ef64be8c48320e,
                0x40f3cec8fbd4b2f6,
                0x40f874da7d9bc8e6,
                0x40ff0f6a58e25e3b,
                0x41048bd05852f61f,
                0x410cefcd68c6261e,
                0x41169b7531959c82,
                0x4125872b9e357ccf,
            ],
        ),
    ];
    for (hosts, want) in pinned {
        let lambda = 0.7 * hosts as f64 / d.mean();
        let got = sita_u_opt_cutoffs_multi(&d, lambda, hosts).unwrap();
        assert_eq!(bits(&got), want, "c90ish h={hosts}");
    }
}

#[test]
fn multi_host_opt_cutoffs_on_a_trace_sample_keep_their_pinned_bits() {
    // the descent on a step CDF, whose band moments are prefix-sum
    // lookups
    let d = c90ish();
    let mut rng = Rng64::seed_from(1997);
    let sample: Vec<f64> = (0..5_000).map(|_| d.sample(&mut rng)).collect();
    let emp = Empirical::from_values(&sample).unwrap();
    let lambda = 0.7 * 8.0 / emp.mean();
    let got = sita_u_opt_cutoffs_multi(&emp, lambda, 8).unwrap();
    let want = [
        0x408798212342cf95,
        0x40b6942b8daede9e,
        0x40d58c316a5ff7d6,
        0x40eaae38efdacbe5,
        0x40f7d0a52069c70b,
        0x41039e5abced89b8,
        0x4122c5b04cc5935a,
    ];
    assert_eq!(bits(&got), want);
}

/// SITA-U-opt and SITA-U-fair cutoffs at `hosts`, at system load 0.7:
/// the 2-host solvers at 2 hosts, the multi-host ones beyond.
fn opt_and_fair<D: Distribution>(d: &D, hosts: usize) -> (Vec<f64>, Vec<f64>) {
    let lambda = 0.7 * hosts as f64 / d.mean();
    if hosts == 2 {
        (
            vec![sita_u_opt_cutoff(d, lambda).unwrap()],
            vec![sita_u_fair_cutoff(d, lambda).unwrap()],
        )
    } else {
        (
            sita_u_opt_cutoffs_multi(d, lambda, hosts).unwrap(),
            sita_u_fair_cutoffs_multi(d, lambda, hosts).unwrap(),
        )
    }
}

/// `(hosts, opt, fair)` cutoff bit patterns.
type CutoffPins = [(usize, &'static [u64], &'static [u64]); 3];

fn assert_pins<D: Distribution>(name: &str, d: &D, pins: &CutoffPins) {
    for &(hosts, opt, fair) in pins {
        let (got_opt, got_fair) = opt_and_fair(d, hosts);
        assert_eq!(bits(&got_opt), opt, "{name} opt h={hosts}");
        assert_eq!(bits(&got_fair), fair, "{name} fair h={hosts}");
    }
}

#[test]
fn opt_and_fair_cutoffs_on_c90_keep_their_pinned_bits() {
    const PINS: CutoffPins = [
        (
            2,
            &[0x40dcca7d670f0f36],
            &[0x40e137d9b518b10d],
        ),
        (
            4,
            &[0x40a1a926d1b76a07, 0x40e0d95f43307f2a, 0x40ffb6416d708573],
            &[0x40b85cbb8fd12712, 0x40e9818255384e1e, 0x41049607fd5db0c5],
        ),
        (
            16,
            &[
                0x407aca2b0e3b5d3c,
                0x409fedbf2046e92b,
                0x40b783262084cf68,
                0x40c8d61aab649740,
                0x40d58e3b3fc9b5e2,
                0x40e08f63d3ebaf2a,
                0x40e776129f32f1a4,
                0x40ef64be8c48320e,
                0x40f3cec8fbd4b2f6,
                0x40f874da7d9bc8e6,
                0x40ff0f6a58e25e3b,
                0x41048bd05852f61f,
                0x410cefcd68c6261e,
                0x41169b7531959c82,
                0x4125872b9e357ccf,
            ],
            &[
                0x408f356ec4a1e01e,
                0x40b02afb28e9aefd,
                0x40c2e762f9807a30,
                0x40d1214950598abe,
                0x40db030d00a23f86,
                0x40e3863f83840ad7,
                0x40ea99e084819ffc,
                0x40f15c2df04699aa,
                0x40f563d8ea944d2b,
                0x40fab082ba854224,
                0x41013731d79b54b5,
                0x41073bf0fbbe90ae,
                0x4110b88b7be225e4,
                0x411a930dd9f9c3fa,
                0x412910644689a64d,
            ],
        ),
    ];
    assert_pins("c90ish", &c90ish(), &PINS);
}

#[test]
fn opt_and_fair_cutoffs_on_a_20k_trace_sample_keep_their_pinned_bits() {
    // the objectives read orders 1, 2 and −1 only, all prefix-sum lookups
    let d = c90ish();
    let mut rng = Rng64::seed_from(1997);
    let sample: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
    const PINS: CutoffPins = [
        (
            2,
            &[0x40de0f85f94769da],
            &[0x40e1c194556ea02f],
        ),
        (
            4,
            &[0x40a24b74c1d6ad2b, 0x40e1b2df61931fbe, 0x41024ed14784d592],
            &[0x40b83397eb4beee2, 0x40e9e2b4478a41e2, 0x4107080faf94f481],
        ),
        (
            16,
            &[
                0x407bac3752b8a416,
                0x40a0b1380580fe26,
                0x40b81db9a3b83466,
                0x40c996c2f86d9070,
                0x40d6a27ed3be231e,
                0x40e15d39d78d6d7c,
                0x40e8414ea6a477ee,
                0x40f0cc015689a0e4,
                0x40f5d97a6422b23e,
                0x40fbc2a9ffe8fac7,
                0x4102bdabd96e85dc,
                0x4108c36c43326f80,
                0x41118b53629d7138,
                0x41226921d9916758,
                0x412d090ca4cb2265,
            ],
            &[
                0x408f080422074974,
                0x40b01c2fed96f124,
                0x40c2a359b7a54ec5,
                0x40d11ba2f26ea311,
                0x40db73225363d4d0,
                0x40e3a247ef88eee2,
                0x40ea6f4f8e3666d8,
                0x40f1b804aaa9e8a0,
                0x40f7085a20faeafe,
                0x40fc088eb856442a,
                0x410315b1442fbbab,
                0x4109f98065e60aea,
                0x41117168d3783322,
                0x411fdb61c1fcfd1a,
                0x412cf57fd61ea080,
            ],
        ),
    ];
    assert_pins("Empirical", &Empirical::from_values(&sample).unwrap(), &PINS);
}

#[test]
fn two_host_cutoffs_of_a_cdf_only_distribution_keep_their_pinned_bits() {
    // every band takes the quadrature sweep, now over three orders
    let (opt, fair) = opt_and_fair(&CountingUniform::default(), 2);
    assert_eq!(bits(&opt), [0x40018ec0c06c7f6f]);
    assert_eq!(bits(&fair), [0x4001cc6f33989d5c]);
}

#[test]
fn multi_host_cutoffs_of_a_cdf_only_distribution_keep_their_pinned_bits() {
    // `resolve_cutoff`, the route every exhibit and CLI command takes;
    // each band takes the quadrature sweep. The pins were recorded while
    // these solves still went through a memo of repeated band queries,
    // whose repeats sat mostly on water-filling's bisection path, so the
    // fair solve is also pinned at h = 4 (the opt solve at h = 4 takes
    // another ~6 s in a debug build)
    use dses_core::cutoffs::{resolve_cutoff, CutoffMethod};
    let d = CountingUniform::default();
    let pins: [(usize, CutoffMethod, &[u64]); 3] = [
        (3, CutoffMethod::OptSlowdown, &[0x3ffded70eb42ccd4, 0x4003eca8d252f4af]),
        (3, CutoffMethod::Fair, &[0x3ffe8293e55d61ae, 0x40041aa0173a7a11]),
        (
            4,
            CutoffMethod::Fair,
            &[0x3ffba027939a8808, 0x4001dc63e96b5dae, 0x4005274449041d61],
        ),
    ];
    for (hosts, method, want) in pins {
        let lambda = 0.7 * hosts as f64 / d.mean();
        let got = resolve_cutoff(&d, lambda, hosts, method).unwrap();
        assert_eq!(bits(&got), want, "{method:?} h={hosts}");
    }
}

#[test]
fn hetero_analysis_keeps_its_pinned_bits() {
    let d = c90ish();
    let lambda = 1.2 / d.mean();
    // at these speeds `m2 / (p·s²)` and `(m2 / p) / s²` round apart, so
    // the pins also fix the order of the speed scaling
    let pinned: [([f64; 2], &[u64], u64); 2] = [
        (
            [1.3, 0.9],
            &[
                0x4025659a2b942dd5,
                0x40f001b9ee25c2f6,
                0x3feefbd0ceb8187f,
                0x3fd1fc3ca15f0c39,
                0x3fd37bec597c4d3e,
                0x409932175c5530b4,
                0x4023d25c36165776,
                0x3fa042f3147e7810,
                0x3fedad626f02772a,
                0x3fe64209d341d960,
                0x413ebfa06739c8a9,
                0x40415aa56082d523,
            ],
            0x40d9ecd4ab14766f,
        ),
        (
            [0.6, 1.7],
            &[
                0x405383afd0990716,
                0x40cf4fae1fa99d95,
                0x3feefbd0ceb8187f,
                0x3fe37bec597c4d3e,
                0x3fd37bec597c4d3e,
                0x40cb2dab1cbed52b,
                0x405423812692756d,
                0x3fa042f3147e7810,
                0x3fdf6c4a1b2fc978,
                0x3fe64209d341d960,
                0x40f3a9b1e0600e48,
                0x3ffee56c8695c6e0,
            ],
            0x40abd6d94cb2b593,
        ),
    ];
    for (speeds, want, opt) in pinned {
        let a = analyze_hetero(&d, lambda, &[30_000.0], &speeds);
        let mut got = vec![a.mean_slowdown, a.mean_waiting];
        for h in &a.hosts {
            got.extend([h.job_fraction, h.rho, h.load_fraction, h.mean_waiting, h.mean_slowdown]);
        }
        assert_eq!(bits(&got), want, "speeds {speeds:?}");
        let c = hetero_opt_cutoff(&d, lambda, speeds).unwrap();
        assert_eq!(c.to_bits(), opt, "speeds {speeds:?}");
    }
}

/// Forwards everything to `inner` and records the orders each partial
/// moment call asks for.
#[derive(Debug)]
struct Recording<D> {
    inner: D,
    asked: Mutex<Vec<Vec<i32>>>,
}

impl<D> Recording<D> {
    fn new(inner: D) -> Self {
        Self { inner, asked: Mutex::new(Vec::new()) }
    }

    /// The order lists asked for since the last call.
    fn take(&self) -> Vec<Vec<i32>> {
        std::mem::take(&mut *self.asked.lock().unwrap())
    }
}

impl<D: Distribution> Distribution for Recording<D> {
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
        self.inner.quantile(p)
    }
    fn raw_moment(&self, k: i32) -> f64 {
        self.inner.raw_moment(k)
    }
    fn prob_in(&self, a: f64, b: f64) -> f64 {
        self.inner.prob_in(a, b)
    }
    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        self.asked.lock().unwrap().push(vec![k]);
        self.inner.partial_moment(k, a, b)
    }
    fn partial_moments(&self, ks: &[i32], a: f64, b: f64, out: &mut [f64]) {
        self.asked.lock().unwrap().push(ks.to_vec());
        self.inner.partial_moments(ks, a, b, out);
    }
}

#[test]
fn cutoff_solves_ask_no_band_for_order_3_or_minus_2() {
    let d = Recording::new(c90ish());
    let lambda = 1.4 / d.mean();
    let mut cutoffs = Vec::new();
    for hosts in [2, 4] {
        let (opt, fair) = opt_and_fair(&d, hosts);
        cutoffs.push(opt);
        cutoffs.push(fair);
        let _ = sita_e_cutoffs(&d, hosts).unwrap();
    }
    let _ = hetero_opt_cutoff(&d, lambda, [0.5, 1.5]).unwrap();
    let _ = analyze_hetero(&d, lambda, &[30_000.0], &[0.5, 1.5]);
    let asked = d.take();
    assert!(asked.contains(&vec![1, 2, -1]), "the lean band");
    for ks in &asked {
        assert!(!ks.contains(&3) && !ks.contains(&-2), "a solve asked for {ks:?}");
    }
    // the analysis of the solved cutoffs still reports every moment
    for c in &cutoffs {
        let lambda = 0.7 * (c.len() + 1) as f64 / d.mean();
        let a = SitaAnalysis::analyze(&d, lambda, c);
        assert!(a.slowdown_variance.is_finite());
        let asked = d.take();
        assert_eq!(asked.len(), c.len() + 1, "one call per band");
        assert!(asked.iter().all(|ks| ks == &[1, 2, 3, -1, -2]), "{asked:?}");
    }
}

#[test]
fn quadrature_moments_keep_their_pinned_bits() {
    // Erlang's partial moments take the quantile-space quadrature: one
    // band, every order a SITA host asks for, batched and one by one
    let erlang = Erlang::with_mean(4, 1000.0).unwrap();
    let want = [
        0x408e18031ed46285,
        0x4131c3eb43d8e723,
        0x41d84bead3fe977d,
        0x3f5326f5f4444e68,
        0x3ebd9f836fd558b2,
    ];
    let ks = [1, 2, 3, -1, -2];
    let mut batched = [0.0; 5];
    erlang.partial_moments(&ks, 300.0, 2500.0, &mut batched);
    assert_eq!(bits(&batched), want);
    assert_eq!(bits(&ks.map(|k| erlang.partial_moment(k, 300.0, 2500.0))), want);
    // the trait's raw and partial moment defaults on a bare distribution
    let u = Uniform::new(1.0, 3.0).unwrap();
    let bare = QuadratureOnly(&u);
    assert_eq!(
        bits(&[bare.raw_moment(2), bare.raw_moment(-1)]),
        [0x4011555555555545, 0x3fe193ea7aad02ff]
    );
    assert_eq!(
        bits(&[bare.partial_moment(3, 1.5, 2.5), bare.partial_moment(-2, 1.5, 2.5)]),
        [0x4011000000000011, 0x3fc1111111111114]
    );
    // `integrate`, the one-lane case, behind Exponential's order −2
    let exp = Exponential::with_mean(2.0).unwrap();
    assert_eq!(exp.partial_moment(-2, 0.5, 4.0).to_bits(), 0x3fe06acf626ac7fe);
}

/// A two-band system whose slowdown tail inverts quickly in a debug build.
fn tail_case() -> (HyperExponential, f64, [f64; 1]) {
    let d = HyperExponential::fit_mean_scv(1.0, 4.0).unwrap();
    let lambda = 1.2 / d.mean();
    let cutoff = d.quantile(0.9);
    (d, lambda, [cutoff])
}

#[test]
fn slowdown_tail_keeps_its_pinned_bits() {
    let (d, lambda, cutoffs) = tail_case();
    assert_eq!(
        sita_slowdown_ccdf(&d, lambda, &cutoffs, 1.0).to_bits(),
        0x3fe230ac99145288
    );
    assert_eq!(
        sita_slowdown_ccdf(&d, lambda, &cutoffs, 5.0).to_bits(),
        0x3fc70cc117d198af
    );
}

#[test]
fn slowdown_quantile_keeps_its_pinned_bits() {
    let (d, lambda, cutoffs) = tail_case();
    assert_eq!(
        sita_slowdown_quantile(&d, lambda, &cutoffs, 0.9).to_bits(),
        0x40226967715b6d26
    );
}

/// Every built-in distribution, the quadrature-fallback Erlang included,
/// with a finite point inside its support.
fn roster() -> Vec<(&'static str, Box<dyn Distribution>, f64)> {
    let mut rng = Rng64::seed_from(5);
    let c90 = c90ish();
    let sample: Vec<f64> = (0..2_000).map(|_| c90.sample(&mut rng)).collect();
    vec![
        ("BoundedPareto", Box::new(BoundedPareto::new(1.0, 1e5, 1.1).unwrap()), 1e4),
        ("Deterministic", Box::new(Deterministic::new(3.0).unwrap()), 3.0),
        ("Erlang", Box::new(Erlang::with_mean(4, 1000.0).unwrap()), 2000.0),
        ("Exponential", Box::new(Exponential::with_mean(2.0).unwrap()), 3.0),
        ("HyperExponential", Box::new(HyperExponential::fit_mean_scv(1.0, 4.0).unwrap()), 2.0),
        ("Lognormal", Box::new(LogNormal::fit_mean_scv(10.0, 3.0).unwrap()), 20.0),
        ("Mixture", Box::new(c90), 1e5),
        ("Pareto", Box::new(Pareto::new(1.0, 1.5).unwrap()), 50.0),
        (
            "Scaled",
            Box::new(Scaled::new(BoundedPareto::new(1.0, 1e4, 1.3).unwrap(), 10.0).unwrap()),
            500.0,
        ),
        ("Uniform", Box::new(Uniform::new(1.0, 3.0).unwrap()), 2.5),
        ("Weibull", Box::new(Weibull::fit_mean_scv(5.0, 2.0).unwrap()), 8.0),
        ("Empirical", Box::new(Empirical::from_values(&sample).unwrap()), 1e4),
    ]
}

/// What a SITA band asks for — the five `ServiceMoments` orders, with
/// Empirical's order −2 scan — plus order 0, the band mass.
const ORDERS: [i32; 6] = [1, 2, 3, -1, -2, 0];

/// The matrix's bands: two empty ones (`b ≤ a`), an interior band, bands
/// from the bottom of the support and from 0, the full support and an
/// unbounded top.
fn bands(d: &dyn Distribution, mid: f64) -> Vec<(f64, f64)> {
    let (lo, hi) = d.support();
    let mut bands = vec![
        (mid, mid),
        (mid, 0.5 * mid),
        (0.5 * mid, mid),
        (lo, mid),
        (0.0, mid),
        (lo, hi),
        (mid, f64::INFINITY),
    ];
    // Erlang's cdf(+∞) is NaN, so its moments are undefined on bands
    // reaching +∞ (a SITA analysis treats such a band as empty); it is
    // the only built-in left so
    if d.cdf(f64::INFINITY).is_nan() {
        bands.retain(|&(_, b)| b.is_finite());
    }
    bands
}

fn batch<D: Distribution + ?Sized>(d: &D, a: f64, b: f64) -> Vec<u64> {
    let mut out = [0.0; ORDERS.len()];
    d.partial_moments(&ORDERS, a, b, &mut out);
    bits(&out)
}

#[test]
fn partial_moments_bit_identity_matrix() {
    let arcs: Vec<Arc<dyn Distribution>> =
        roster().into_iter().map(|(_, d, _)| Arc::from(d)).collect();
    for ((name, d, mid), arc) in roster().into_iter().zip(arcs) {
        for (a, b) in bands(d.as_ref(), mid) {
            let case = format!("{name} on ({a}, {b}]");
            let want = bits(&ORDERS.map(|k| d.partial_moment(k, a, b)));
            assert_eq!(batch(d.as_ref(), a, b), want, "{case}: own method");
            assert_eq!(batch(&d, a, b), want, "{case}: Box<dyn>");
            assert_eq!(batch(&&d, a, b), want, "{case}: &D");
            assert_eq!(batch(&arc, a, b), want, "{case}: Arc<dyn>");

            // the public sweep — what a quadrature-fallback type overrides
            // with — against the trait's per-order default
            let mut swept = [0.0; ORDERS.len()];
            quantile_space_partial_moments(d.as_ref(), &ORDERS, a, b, &mut swept);
            let default = ORDERS.map(|k| {
                if k == 0 {
                    d.prob_in(a, b)
                } else {
                    QuadratureOnly(d.as_ref()).partial_moment(k, a, b)
                }
            });
            assert_eq!(bits(&swept), bits(&default), "{case}: quadrature sweep");
        }
    }
}

/// Forwards only the basics, so every moment takes the trait defaults.
#[derive(Debug)]
struct QuadratureOnly<'a>(&'a dyn Distribution);

impl Distribution for QuadratureOnly<'_> {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.0.sample(rng)
    }
    fn support(&self) -> (f64, f64) {
        self.0.support()
    }
    fn cdf(&self, x: f64) -> f64 {
        self.0.cdf(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.0.quantile(p)
    }
}

/// Uniform(1, 3) that answers only the basics and counts its quantile
/// calls; its partial moments take the quantile-space quadrature, batched
/// into one sweep per call.
#[derive(Debug, Default)]
struct CountingUniform {
    quantiles: AtomicU64,
}

impl CountingUniform {
    fn quantiles(&self) -> u64 {
        self.quantiles.load(Ordering::Relaxed)
    }
}

impl Distribution for CountingUniform {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        1.0 + 2.0 * rng.uniform()
    }
    fn support(&self) -> (f64, f64) {
        (1.0, 3.0)
    }
    fn cdf(&self, x: f64) -> f64 {
        ((x - 1.0) / 2.0).clamp(0.0, 1.0)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.quantiles.fetch_add(1, Ordering::Relaxed);
        1.0 + 2.0 * p
    }
    fn partial_moments(&self, ks: &[i32], a: f64, b: f64, out: &mut [f64]) {
        quantile_space_partial_moments(self, ks, a, b, out);
    }
}

#[test]
fn service_moments_take_one_quantile_sweep_per_band() {
    let d = CountingUniform::default();
    let (a, b) = (1.5, 2.5);
    let _ = d.partial_moment(1, a, b);
    let sweep = d.quantiles();
    assert!(sweep > 0);

    let before = d.quantiles();
    let s = ServiceMoments::of_interval(&d, a, b).unwrap();
    assert_eq!(d.quantiles() - before, sweep, "one sweep, not five");
    let p = d.prob_in(a, b);
    let per_order = [1, 2, 3, -1, -2].map(|k| d.partial_moment(k, a, b) / p);
    assert_eq!(
        bits(&[s.m1, s.m2, s.m3, s.inv1, s.inv2]),
        bits(&per_order)
    );

    // a SITA analysis sweeps each band once (plus one sweep for E[X]);
    // its per-band bits equal the per-order formula
    let lambda = 0.3;
    let before = d.quantiles();
    let analysis = SitaAnalysis::analyze(&d, lambda, &[2.0]);
    let sweeps = d.quantiles() - before;
    let start = d.quantiles();
    let _ = d.raw_moment(1);
    let mean_sweep = d.quantiles() - start;
    let per_band: u64 = [(0.0, 2.0), (2.0, 3.0)]
        .iter()
        .map(|&(a, b)| {
            let start = d.quantiles();
            let _ = d.partial_moment(1, a, b);
            d.quantiles() - start
        })
        .sum();
    assert_eq!(sweeps, mean_sweep + per_band, "one sweep per band");
    for h in &analysis.hosts {
        let (a, b) = h.interval;
        let p = d.prob_in(a, b);
        let want = [1, 2, 3, -1, -2].map(|k| d.partial_moment(k, a, b) / p);
        let s = h.service.unwrap();
        assert_eq!(bits(&[s.m1, s.m2, s.m3, s.inv1, s.inv2]), bits(&want));
        let work = d.partial_moment(1, a, b);
        assert_eq!(
            h.load_fraction.to_bits(),
            (lambda * work / (lambda * d.mean())).to_bits()
        );
    }
}

#[test]
fn orders_beyond_one_sweep_split_into_sweeps_and_keep_their_bits() {
    // more orders than one sweep carries, a repeat and order 0 included
    let ks = [1, 2, 3, -1, -2, 0, 4, -3, 1, 5, 6];
    let d = CountingUniform::default();
    let (a, b) = (1.5, 2.5);
    let _ = d.partial_moment(1, a, b);
    let sweep = d.quantiles();
    let mut out = [0.0; 11];
    let before = d.quantiles();
    d.partial_moments(&ks, a, b, &mut out);
    assert_eq!(d.quantiles() - before, 2 * sweep, "eight orders per sweep");
    let want = ks.map(|k| d.partial_moment(k, a, b));
    assert_eq!(bits(&out), bits(&want));
}

#[test]
fn a_two_host_sita_run_solves_its_cutoff_once() {
    use dses_core::cutoffs::{resolve_cutoff, CutoffMethod};
    use dses_core::{Experiment, PolicySpec};
    let counter = Arc::new(CountingUniform::default());
    let d: Arc<dyn Distribution> = counter.clone();
    let e = Experiment::new(Arc::clone(&d)).hosts(2).jobs(2_000).seed(5);
    let rho = 0.7;
    let sweeps = |f: &mut dyn FnMut()| {
        let before = counter.quantiles();
        f();
        counter.quantiles() - before
    };
    let mut trace = None;
    let build = sweeps(&mut || trace = Some(e.trace(rho)));
    let lambda = trace.expect("built").arrival_rate();
    let mut cutoff = 0.0;
    let solve = sweeps(&mut || cutoff = resolve_cutoff(&d, lambda, 2, CutoffMethod::Fair).unwrap()[0]);
    assert!(solve > 0, "a quadrature-fallback solve sweeps quantiles");
    // the policy and the short/long class split share one solve
    let mut result = None;
    let run = sweeps(&mut || result = Some(e.try_run(&PolicySpec::SitaUFair, rho).unwrap()));
    assert_eq!(run, build + solve, "trace build {build} + one solve {solve}");
    let r = result.expect("ran");
    let (short, long) = (r.short_slowdown.unwrap(), r.long_slowdown.unwrap());
    assert_eq!(short.count + long.count, r.measured);
    assert!(short.count > 0 && long.count > 0, "split at {cutoff}");
}
