// dses-lint: allow-file(float-totality) -- special functions branch on exact boundary
// values (x == 0, p == 0, p == 1) where the limits are mathematically exact
//! Special functions needed by the distribution library.
//!
//! Self-contained implementations (no external math crate): the error
//! function for the lognormal CDF, the log-gamma function for Weibull and
//! Erlang moments, and the regularised incomplete gamma functions for the
//! Erlang/gamma CDF. Accuracy is ~1e-14 relative in the ranges we use,
//! verified against high-precision reference values in the tests.

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Lanczos approximation (g = 7, n = 9), accurate to ~1e-14 relative.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // reflection formula: Γ(x)Γ(1−x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The gamma function `Γ(x)` for `x > 0`.
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Regularised lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)`.
///
/// Series expansion for `x < a + 1`, continued fraction otherwise
/// (Numerical Recipes style). A NaN `x` gives NaN, so a NaN reaching a
/// cdf through `erf`/`erfc` propagates instead of aborting the caller.
pub fn reg_gamma_lower(a: f64, x: f64) -> f64 {
    match reg_gamma_lower_edge(a, x) {
        Some(p) => p,
        None => reg_gamma_lower_ln(a, ln_gamma(a), x),
    }
}

/// [`reg_gamma_lower`] with `ln Γ(a)` supplied by a caller that keeps it
/// (the Erlang CDF: its shape never changes). `ln_gamma_a` must be
/// `ln_gamma(a)`; the result is then the same bits.
pub fn reg_gamma_lower_ln(a: f64, ln_gamma_a: f64, x: f64) -> f64 {
    if let Some(p) = reg_gamma_lower_edge(a, x) {
        return p;
    }
    if x < a + 1.0 {
        // series: P(a,x) = x^a e^-x / Γ(a) * Σ x^n Γ(a)/Γ(a+1+n)
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-16 {
                break;
            }
        }
        sum * (a * x.ln() - x - ln_gamma_a).exp()
    } else {
        1.0 - reg_gamma_upper_cf(a, ln_gamma_a, x)
    }
}

/// `P(a, x)` where it needs no `ln Γ(a)`: NaN for a NaN `x`, 0 at
/// `x = 0`; `None` otherwise.
fn reg_gamma_lower_edge(a: f64, x: f64) -> Option<f64> {
    if x.is_nan() {
        return Some(f64::NAN);
    }
    assert!(a > 0.0 && x >= 0.0, "reg_gamma_lower requires a > 0, x >= 0");
    (x == 0.0).then_some(0.0)
}

/// Regularised upper incomplete gamma `Q(a, x) = 1 − P(a, x)` via Lentz's
/// continued fraction; valid for `x ≥ a + 1`. `ln_gamma_a` is `ln Γ(a)`.
fn reg_gamma_upper_cf(a: f64, ln_gamma_a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (a * x.ln() - x - ln_gamma_a).exp() * h
}

/// Regularised upper incomplete gamma `Q(a, x)`.
///
/// Computed directly from the continued fraction when `x ≥ a + 1`, not as
/// `1 − P(a, x)`, so tiny tail probabilities keep full relative accuracy
/// (important for `erfc` at large arguments). A NaN `x` gives NaN.
pub fn reg_gamma_upper(a: f64, x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    assert!(a > 0.0 && x >= 0.0, "reg_gamma_upper requires a > 0, x >= 0");
    if x == 0.0 {
        1.0
    } else if x < a + 1.0 {
        1.0 - reg_gamma_lower(a, x)
    } else {
        reg_gamma_upper_cf(a, ln_gamma(a), x)
    }
}

/// The error function `erf(x)`, accurate to ~1e-15.
///
/// Uses the incomplete-gamma relation `erf(x) = P(1/2, x²)` for `x ≥ 0`
/// and oddness for `x < 0`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        reg_gamma_lower(0.5, x * x)
    } else {
        -reg_gamma_lower(0.5, x * x)
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        reg_gamma_upper(0.5, x * x)
    } else {
        1.0 + reg_gamma_lower(0.5, x * x)
    }
}

/// Standard normal CDF `Φ(z)`; exactly 0 and 1 at `z = ∓∞`, where the
/// incomplete gamma behind `erfc` has no finite argument to work on.
pub fn std_normal_cdf(z: f64) -> f64 {
    if z == f64::INFINITY {
        1.0
    } else if z == f64::NEG_INFINITY {
        0.0
    } else {
        0.5 * erfc(-z / std::f64::consts::SQRT_2)
    }
}

/// Standard normal quantile `Φ⁻¹(p)` (Acklam's rational approximation,
/// refined with one Halley step; ~1e-15 accurate).
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} not in [0,1]");
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    // Acklam coefficients
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let p_low = 0.02425;
    let x = if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_integer_factorials() {
        // Γ(n) = (n-1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let g = ln_gamma(f64::from(n as u32 + 1)).exp();
            assert!((g - f).abs() / f < 1e-12, "Γ({}) = {g}, want {f}", n + 1);
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(π)
        let g = gamma(0.5);
        assert!((g - std::f64::consts::PI.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn reg_gamma_lower_exponential_cdf() {
        // P(1, x) = 1 - e^{-x}
        for &x in &[0.1f64, 0.5, 1.0, 3.0, 10.0] {
            let p = reg_gamma_lower(1.0, x);
            assert!((p - (1.0 - (-x).exp())).abs() < 1e-13, "x = {x}");
        }
    }

    #[test]
    fn reg_gamma_complementarity() {
        for &(a, x) in &[(0.5, 0.3), (2.0, 5.0), (7.0, 2.0), (10.0, 30.0)] {
            let s = reg_gamma_lower(a, x) + reg_gamma_upper(a, x);
            assert!((s - 1.0).abs() < 1e-12, "a = {a}, x = {x}");
        }
    }

    #[test]
    fn erf_reference_values() {
        // reference values from standard tables
        assert!(erf(0.0).abs() < 1e-15);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-12);
        assert!((erf(2.0) - 0.995_322_265_018_952_7).abs() < 1e-12);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-12);
    }

    #[test]
    fn erfc_large_argument_does_not_underflow_to_garbage() {
        let v = erfc(5.0);
        let want = 1.537_459_794_428_035e-12;
        assert!((v - want).abs() / want < 1e-6, "erfc(5) = {v:e}");
    }

    #[test]
    fn normal_cdf_symmetry_and_known_points() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((std_normal_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-9);
        for &z in &[0.3, 1.1, 2.7] {
            let s = std_normal_cdf(z) + std_normal_cdf(-z);
            assert!((s - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn normal_quantile_round_trip() {
        for &p in &[1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-6] {
            let z = std_normal_quantile(p);
            assert!((std_normal_cdf(z) - p).abs() < 1e-12, "p = {p}, z = {z}");
        }
    }

    #[test]
    fn normal_quantile_extremes() {
        assert_eq!(std_normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(std_normal_quantile(1.0), f64::INFINITY);
    }
}
