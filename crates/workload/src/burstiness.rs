//! Quantifying arrival-process burstiness.
//!
//! §6's whole argument turns on two properties of the traces' arrival
//! sequences: high interarrival variability and positive correlation
//! ("many jobs with similar runtimes arrive simultaneously", §3.3). This
//! module measures both on any [`Trace`]:
//!
//! * interarrival `C²` (1 for Poisson, ≫ 1 for bursty);
//! * lag-k autocorrelation of interarrival gaps (0 for any renewal
//!   process, > 0 when bursts cluster);
//! * the **index of dispersion for counts** `IDC(t) = Var[N(t)]/E[N(t)]`
//!   (1 for Poisson at every window; grows with the window for
//!   positively correlated arrivals — the standard teletraffic burstiness
//!   curve).

use crate::trace::Trace;

/// Burstiness report for a trace's arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstinessReport {
    /// squared coefficient of variation of interarrival gaps
    pub interarrival_scv: f64,
    /// lag-1..=`lags` autocorrelation of the gaps
    pub gap_autocorrelation: Vec<f64>,
    /// `(window, IDC(window))` samples, geometrically spaced
    pub idc: Vec<(f64, f64)>,
}

/// Lag-`k` sample autocorrelation of `xs`.
#[must_use]
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    if xs.len() <= lag + 1 {
        return 0.0;
    }
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    if var <= 0.0 {
        return 0.0;
    }
    let cov = xs[..n - lag]
        .iter()
        .zip(&xs[lag..])
        .map(|(a, b)| (a - mean) * (b - mean))
        .sum::<f64>()
        / (n - lag) as f64;
    cov / var
}

/// Index of dispersion for counts at a given window length: split the
/// trace's span into windows of `window` seconds, count arrivals per
/// window, return `Var[N]/E[N]`.
#[must_use]
pub fn index_of_dispersion(trace: &Trace, window: f64) -> f64 {
    assert!(window > 0.0, "window must be positive");
    let arrivals = trace.arrivals();
    if arrivals.len() < 2 {
        return 0.0;
    }
    let start = arrivals[0];
    let span = trace.duration();
    let bins = (span / window).floor() as usize;
    if bins < 2 {
        return 0.0;
    }
    let mut counts = vec![0u64; bins];
    for &a in arrivals {
        let idx = ((a - start) / window) as usize;
        if idx < bins {
            counts[idx] += 1;
        }
    }
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    var / mean
}

/// Produce the full burstiness report. `lags` autocorrelation lags and
/// IDC at `idc_points` windows spanning 1×–1000× the mean gap.
#[must_use]
pub fn burstiness_report(trace: &Trace, lags: usize, idc_points: usize) -> BurstinessReport {
    let gaps: Vec<f64> = trace.arrivals().windows(2).map(|w| w[1] - w[0]).collect();
    let scv = if gaps.is_empty() {
        0.0
    } else {
        trace.interarrival_summary().scv()
    };
    let gap_autocorrelation = (1..=lags).map(|k| autocorrelation(&gaps, k)).collect();
    let mean_gap = if gaps.is_empty() {
        1.0
    } else {
        gaps.iter().sum::<f64>() / gaps.len() as f64
    };
    let idc = (0..idc_points)
        .map(|i| {
            let w = mean_gap * 10f64.powf(3.0 * i as f64 / (idc_points.max(2) - 1) as f64);
            (w, index_of_dispersion(trace, w))
        })
        .collect();
    BurstinessReport {
        interarrival_scv: scv,
        gap_autocorrelation,
        idc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::Mmpp2;
    use crate::synthetic::WorkloadBuilder;
    use dses_dist::prelude::*;

    fn poisson_trace() -> Trace {
        WorkloadBuilder::new(Deterministic::new(1.0).unwrap())
            .jobs(60_000)
            .poisson_load(0.5, 1)
            .seed(3)
            .build()
    }

    fn bursty_trace() -> Trace {
        WorkloadBuilder::new(Deterministic::new(1.0).unwrap())
            .jobs(60_000)
            .arrivals(Mmpp2::bursty(0.5, 30.0, 100.0))
            .seed(3)
            .build()
    }

    #[test]
    fn poisson_is_the_unit_baseline() {
        let r = burstiness_report(&poisson_trace(), 3, 4);
        assert!((r.interarrival_scv - 1.0).abs() < 0.05, "scv = {}", r.interarrival_scv);
        for &rho in &r.gap_autocorrelation {
            assert!(rho.abs() < 0.02, "autocorrelation {rho}");
        }
        for &(w, idc) in &r.idc {
            assert!((idc - 1.0).abs() < 0.25, "IDC({w}) = {idc}");
        }
    }

    #[test]
    fn mmpp_is_bursty_on_every_axis() {
        let r = burstiness_report(&bursty_trace(), 3, 4);
        assert!(r.interarrival_scv > 1.5, "scv = {}", r.interarrival_scv);
        assert!(
            r.gap_autocorrelation[0] > 0.05,
            "lag-1 autocorrelation = {}",
            r.gap_autocorrelation[0]
        );
        // IDC grows with the window for correlated arrivals
        let first = r.idc.first().unwrap().1;
        let last = r.idc.last().unwrap().1;
        assert!(last > 3.0 * first.max(0.5), "IDC curve flat: {:?}", r.idc);
    }

    #[test]
    fn autocorrelation_of_alternating_sequence_is_negative() {
        let xs: Vec<f64> = (0..1000).map(|i| if i % 2 == 0 { 1.0 } else { 2.0 }).collect();
        assert!(autocorrelation(&xs, 1) < -0.9);
        assert!(autocorrelation(&xs, 2) > 0.9);
    }

    #[test]
    fn autocorrelation_edge_cases() {
        assert_eq!(autocorrelation(&[1.0], 1), 0.0);
        assert_eq!(autocorrelation(&[5.0; 100], 1), 0.0); // zero variance
    }

    #[test]
    fn idc_handles_short_traces() {
        let t = WorkloadBuilder::new(Deterministic::new(1.0).unwrap())
            .jobs(3)
            .poisson_load(0.5, 1)
            .seed(1)
            .build();
        // too few windows: defined as 0 rather than noise
        assert_eq!(index_of_dispersion(&t, t.duration() * 2.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn idc_rejects_nonpositive_window() {
        let _ = index_of_dispersion(&poisson_trace(), 0.0);
    }
}
