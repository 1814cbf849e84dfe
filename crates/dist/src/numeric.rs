//! Numerical routines shared across the workspace.
//!
//! Root finding (bisection, Brent), scalar minimisation (golden section),
//! and quadrature (composite Gauss–Legendre, adaptive Simpson). These are
//! used by the distribution default implementations (generic quantiles and
//! partial moments) and by the SITA cutoff solvers in `dses-queueing`.

/// Error produced when a numerical routine cannot satisfy its contract.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// The supplied bracket does not contain a sign change / minimum.
    BadBracket {
        /// left end of the bracket
        lo: f64,
        /// right end of the bracket
        hi: f64,
    },
    /// The iteration budget was exhausted before reaching tolerance.
    NoConvergence {
        /// the best estimate available when iteration stopped
        best: f64,
    },
}

impl std::fmt::Display for NumericError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericError::BadBracket { lo, hi } => {
                write!(f, "bracket [{lo}, {hi}] does not enclose a root/minimum")
            }
            NumericError::NoConvergence { best } => {
                write!(f, "iteration budget exhausted (best estimate {best})")
            }
        }
    }
}

impl std::error::Error for NumericError {}

/// Find a root of `f` in `[lo, hi]` by bisection.
///
/// Requires `f(lo)` and `f(hi)` to have opposite signs (a zero at either
/// endpoint is accepted). Converges unconditionally; `tol` is an absolute
/// tolerance on the bracket width.
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    mut lo: f64,
    mut hi: f64,
    tol: f64,
) -> Result<f64, NumericError> {
    let flo = f(lo);
    if flo == 0.0 {
        return Ok(lo);
    }
    let fhi = f(hi);
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo.signum() == fhi.signum() || !flo.is_finite() || !fhi.is_finite() {
        return Err(NumericError::BadBracket { lo, hi });
    }
    let mut flo = flo;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if hi - lo <= tol || mid == lo || mid == hi {
            return Ok(mid);
        }
        let fmid = f(mid);
        if fmid == 0.0 {
            return Ok(mid);
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Find a root of `f` in `[lo, hi]` by Brent's method.
///
/// Faster than bisection on smooth functions, with the same guarantee.
pub fn brent<F: FnMut(f64) -> f64>(
    mut f: F,
    a0: f64,
    b0: f64,
    tol: f64,
) -> Result<f64, NumericError> {
    let (mut a, mut b) = (a0, b0);
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() || !fa.is_finite() || !fb.is_finite() {
        return Err(NumericError::BadBracket { lo: a0, hi: b0 });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;
    for _ in 0..200 {
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // inverse quadratic interpolation
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // secant
            b - fb * (b - a) / (fb - fa)
        };
        let between = {
            let lo = (3.0 * a + b) / 4.0;
            let (lo, hi) = if lo < b { (lo, b) } else { (b, lo) };
            s > lo && s < hi
        };
        let cond = !between
            || (mflag && (s - b).abs() >= (b - c).abs() / 2.0)
            || (!mflag && (s - b).abs() >= d.abs() / 2.0)
            || (mflag && (b - c).abs() < tol)
            || (!mflag && d.abs() < tol);
        if cond {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        d = b - c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Ok(b)
}

/// Minimise a unimodal function on `[lo, hi]` by golden-section search.
///
/// Returns the minimising abscissa. `tol` is absolute on the abscissa.
pub fn golden_section_min<F: FnMut(f64) -> f64>(mut f: F, lo: f64, hi: f64, tol: f64) -> f64 {
    const INVPHI: f64 = 0.618_033_988_749_894_9; // 1/phi
    const INVPHI2: f64 = 0.381_966_011_250_105_1; // 1/phi^2
    let (mut a, mut b) = (lo, hi);
    let mut h = b - a;
    if h <= tol {
        return 0.5 * (a + b);
    }
    let mut c = a + INVPHI2 * h;
    let mut d = a + INVPHI * h;
    let mut fc = f(c);
    let mut fd = f(d);
    // enough iterations to shrink below tol
    let n = ((tol / h).ln() / INVPHI.ln()).ceil().max(1.0) as usize;
    for _ in 0..n {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            h *= INVPHI;
            c = a + INVPHI2 * h;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            h *= INVPHI;
            d = a + INVPHI * h;
            fd = f(d);
        }
    }
    if fc < fd {
        0.5 * (a + d)
    } else {
        0.5 * (c + b)
    }
}

/// 16-point Gauss–Legendre abscissae on [-1, 1] (positive half; symmetric).
const GL16_X: [f64; 8] = [
    0.095_012_509_837_637_44,
    0.281_603_550_779_258_91,
    0.458_016_777_657_227_39,
    0.617_876_244_402_643_75,
    0.755_404_408_355_003_03,
    0.865_631_202_387_831_74,
    0.944_575_023_073_232_58,
    0.989_400_934_991_649_93,
];

/// 16-point Gauss–Legendre weights matching [`GL16_X`].
const GL16_W: [f64; 8] = [
    0.189_450_610_455_068_50,
    0.182_603_415_044_923_59,
    0.169_156_519_395_002_54,
    0.149_595_988_816_576_73,
    0.124_628_971_255_533_87,
    0.095_158_511_682_492_78,
    0.062_253_523_938_647_89,
    0.027_152_459_411_754_09,
];

/// The 16 Gauss–Legendre nodes and weights mapped onto `[a, b]` — for
/// callers that want to precompute a quadrature *table* (e.g. transform
/// inversion evaluates many integrands over the same expensive quantile
/// nodes).
#[must_use]
pub fn gl16_nodes(a: f64, b: f64) -> [(f64, f64); 16] {
    let c = 0.5 * (a + b);
    let h = 0.5 * (b - a);
    let mut out = [(0.0, 0.0); 16];
    for i in 0..8 {
        out[2 * i] = (c + h * GL16_X[i], GL16_W[i] * h);
        out[2 * i + 1] = (c - h * GL16_X[i], GL16_W[i] * h);
    }
    out
}

/// Integrate `f` over `[a, b]` with a single 16-point Gauss–Legendre rule.
pub fn gauss_legendre_16<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64) -> f64 {
    let c = 0.5 * (a + b);
    let h = 0.5 * (b - a);
    let mut acc = 0.0;
    for i in 0..8 {
        acc += GL16_W[i] * (f(c + h * GL16_X[i]) + f(c - h * GL16_X[i]));
    }
    acc * h
}

/// Integrate `f` over `[a, b]` with a composite 16-point Gauss–Legendre
/// rule over `panels` equal panels. Exact for polynomials of degree ≤ 31
/// per panel; `panels = 64` is ample for every integrand in this workspace.
pub fn integrate<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, panels: usize) -> f64 {
    integrate_lanes(|x, v: &mut [f64; 1]| v[0] = f(x), a, b, panels)[0]
}

/// [`integrate`] for `N` integrands that share one costly evaluation per
/// node: `f(x, v)` writes integrand `j`'s value at `x` into `v[j]`, and
/// lane `j` of the result is its integral.
///
/// Every lane is summed in the same order — node pairs within a panel,
/// then panels — so lane `j` is bit-identical to `integrate` over
/// integrand `j` alone, and `integrate` is the one-lane case. A caller
/// with fewer than `N` integrands may leave the spare lanes unwritten and
/// ignore their sums.
pub(crate) fn integrate_lanes<const N: usize, F: FnMut(f64, &mut [f64; N])>(
    mut f: F,
    a: f64,
    b: f64,
    panels: usize,
) -> [f64; N] {
    let mut acc = [0.0; N];
    if a == b {
        return acc;
    }
    let panels = panels.max(1);
    let w = (b - a) / panels as f64;
    let (mut up, mut down) = ([0.0; N], [0.0; N]);
    for i in 0..panels {
        // one `gauss_legendre_16` panel per lane
        let lo = a + w * i as f64;
        let hi = lo + w;
        let c = 0.5 * (lo + hi);
        let h = 0.5 * (hi - lo);
        let mut panel = [0.0; N];
        for (&x, &wt) in GL16_X.iter().zip(&GL16_W) {
            f(c + h * x, &mut up);
            f(c - h * x, &mut down);
            for ((p, u), d) in panel.iter_mut().zip(&up).zip(&down) {
                *p += wt * (u + d);
            }
        }
        for (s, p) in acc.iter_mut().zip(&panel) {
            *s += p * h;
        }
    }
    acc
}

/// Adaptive Simpson quadrature with absolute tolerance `tol`.
///
/// Used where the integrand may be sharply peaked (e.g. densities of
/// high-variance lognormals).
pub fn adaptive_simpson<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, tol: f64) -> f64 {
    fn simpson(fa: f64, fm: f64, fb: f64, a: f64, b: f64) -> f64 {
        (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    }
    #[allow(clippy::too_many_arguments)] // textbook adaptive-Simpson state
    fn recurse<F: FnMut(f64) -> f64>(
        f: &mut F,
        a: f64,
        b: f64,
        fa: f64,
        fm: f64,
        fb: f64,
        whole: f64,
        tol: f64,
        depth: u32,
    ) -> f64 {
        let m = 0.5 * (a + b);
        let lm = 0.5 * (a + m);
        let rm = 0.5 * (m + b);
        let flm = f(lm);
        let frm = f(rm);
        let left = simpson(fa, flm, fm, a, m);
        let right = simpson(fm, frm, fb, m, b);
        let delta = left + right - whole;
        if depth == 0 || delta.abs() <= 15.0 * tol {
            left + right + delta / 15.0
        } else {
            recurse(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
                + recurse(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)
        }
    }
    if a == b {
        return 0.0;
    }
    let fa = f(a);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let fb = f(b);
    let whole = simpson(fa, fm, fb, a, b);
    recurse(&mut f, a, b, fa, fm, fb, whole, tol, 40)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_accepts_endpoint_roots() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12).unwrap(), 1.0);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        assert!(matches!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-9),
            Err(NumericError::BadBracket { .. })
        ));
    }

    #[test]
    fn brent_matches_bisect_but_faster_functions() {
        let r = brent(|x| x.cos() - x, 0.0, 1.0, 1e-13).unwrap();
        assert!((r - 0.739_085_133_215_160_6).abs() < 1e-9, "r = {r}");
    }

    #[test]
    fn brent_on_cubic() {
        let r = brent(|x| (x - 3.0) * (x * x + 1.0), 0.0, 10.0, 1e-13).unwrap();
        assert!((r - 3.0).abs() < 1e-9);
    }

    #[test]
    fn golden_section_finds_parabola_min() {
        let x = golden_section_min(|x| (x - 1.7) * (x - 1.7) + 3.0, -10.0, 10.0, 1e-10);
        assert!((x - 1.7).abs() < 1e-7, "x = {x}");
    }

    #[test]
    fn golden_section_handles_degenerate_bracket() {
        let x = golden_section_min(|x| x * x, 2.0, 2.0, 1e-9);
        assert_eq!(x, 2.0);
    }

    #[test]
    fn gauss_legendre_exact_on_polynomials() {
        // degree-9 polynomial is integrated exactly by a 16-point rule
        let val = gauss_legendre_16(|x| 10.0 * x.powi(9) + x.powi(4), 0.0, 1.0);
        assert!((val - (1.0 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn composite_integration_of_exponential() {
        let val = integrate(|x| (-x).exp(), 0.0, 20.0, 32);
        assert!((val - (1.0 - (-20.0f64).exp())).abs() < 1e-10);
    }

    #[test]
    fn adaptive_simpson_on_peaked_function() {
        // integral of 1/sqrt(x) on (0,1] is 2; start slightly above 0
        let val = adaptive_simpson(|x| 1.0 / x.sqrt(), 1e-12, 1.0, 1e-10);
        assert!((val - 2.0).abs() < 1e-4, "val = {val}");
    }

    #[test]
    fn integrate_empty_interval_is_zero() {
        assert_eq!(integrate(|x| x, 3.0, 3.0, 8), 0.0);
        assert_eq!(adaptive_simpson(|x| x, 3.0, 3.0, 1e-9), 0.0);
    }
}
