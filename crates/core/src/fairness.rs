//! Fairness analysis: expected slowdown as a function of job size.
//!
//! The paper's definition (§1.2): *"All jobs, long or short, should
//! experience the same expected slowdown. In particular, long jobs
//! shouldn't be penalized — slowed down by a greater factor — than short
//! jobs."* A policy is fair when the slowdown-vs-size curve is flat.

use dses_dist::Moments;
use dses_sim::SimResult;

/// One size band of the fairness profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessBin {
    /// geometric centre of the size band
    pub size: f64,
    /// mean slowdown of jobs in the band
    pub mean_slowdown: f64,
    /// number of jobs in the band
    pub count: u64,
}

/// A fairness report extracted from a simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// per-size-band slowdowns (only populated bands)
    pub bins: Vec<FairnessBin>,
    /// mean slowdown of the short class (`None` without a split, or when
    /// no measured job was short)
    pub short_mean: Option<f64>,
    /// mean slowdown of the long class (`None` without a split, or when
    /// no measured job was long)
    pub long_mean: Option<f64>,
}

impl FairnessReport {
    /// Extract the report from a simulation result. Requires the run to
    /// have been collected with `fairness_bins > 0` (the class means also
    /// need `split_cutoff`).
    #[must_use]
    pub fn from_result(result: &SimResult) -> Self {
        let bins = result
            .fairness
            .as_ref()
            .map(|h| {
                h.populated_bins()
                    .map(|(size, m)| FairnessBin {
                        size,
                        mean_slowdown: m.mean(),
                        count: m.count(),
                    })
                    .collect()
            })
            .unwrap_or_default();
        let class_mean = |m: Option<Moments>| m.filter(|m| m.count > 0).map(|m| m.mean);
        Self {
            bins,
            short_mean: class_mean(result.short_slowdown),
            long_mean: class_mean(result.long_slowdown),
        }
    }

    /// The unfairness ratio `max(E[S|class]) / min(E[S|class])` between
    /// the short and long classes (1.0 = perfectly fair; `None` when no
    /// split was collected or a class is empty).
    #[must_use]
    pub fn class_unfairness(&self) -> Option<f64> {
        let (s, l) = (self.short_mean?, self.long_mean?);
        if s <= 0.0 || l <= 0.0 {
            return None;
        }
        Some((s / l).max(l / s))
    }

    /// The spread of the per-band slowdowns, weighted by nothing —
    /// `max bin mean / min bin mean` over bands with at least
    /// `min_count` jobs. A flat (fair) profile gives values near 1.
    #[must_use]
    pub fn band_spread(&self, min_count: u64) -> Option<f64> {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for b in self.bins.iter().filter(|b| b.count >= min_count) {
            lo = lo.min(b.mean_slowdown);
            hi = hi.max(b.mean_slowdown);
        }
        (hi > 0.0 && lo.is_finite() && lo > 0.0).then(|| hi / lo)
    }

    /// Render as an aligned text table, with a class line when a split
    /// was collected and some measured job fell in a class; a class
    /// without jobs reads `-` there, as does the unfairness ratio then.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("      size-band      mean-slowdown      jobs\n");
        for b in &self.bins {
            out.push_str(&format!(
                "{:>14.2} {:>18.3} {:>9}\n",
                b.size, b.mean_slowdown, b.count
            ));
        }
        if self.short_mean.is_some() || self.long_mean.is_some() {
            let show = |x: Option<f64>| x.map_or_else(|| "-".to_string(), |x| format!("{x:.3}"));
            out.push_str(&format!(
                "short class E[S] = {}, long class E[S] = {}, unfairness = {}\n",
                show(self.short_mean),
                show(self.long_mean),
                show(self.class_unfairness())
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dses_sim::metrics::{Collector, JobRecord, MetricsConfig};

    fn result_with_jobs(jobs: &[(f64, f64)]) -> SimResult {
        // (size, slowdown) pairs — synthesise records achieving them
        let mut c = Collector::new(1, MetricsConfig {
            fairness_bins: 8,
            fairness_range: (0.1, 1e6),
            split_cutoff: Some(10.0),
            ..MetricsConfig::default()
        });
        for (i, &(size, slowdown)) in jobs.iter().enumerate() {
            let response = slowdown * size;
            c.record(JobRecord {
                id: i as u64,
                arrival: 0.0,
                size,
                start: response - size,
                completion: response,
                host: 0,
            });
        }
        c.finish()
    }

    #[test]
    fn extracts_bins_and_class_means() {
        let r = result_with_jobs(&[(1.0, 5.0), (1.2, 7.0), (1000.0, 2.0)]);
        let f = FairnessReport::from_result(&r);
        assert_eq!(f.bins.len(), 2);
        assert!((f.short_mean.unwrap() - 6.0).abs() < 1e-12);
        assert!((f.long_mean.unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unfairness_ratio_is_symmetric_and_at_least_one() {
        let r = result_with_jobs(&[(1.0, 4.0), (1000.0, 2.0)]);
        let f = FairnessReport::from_result(&r);
        assert!((f.class_unfairness().unwrap() - 2.0).abs() < 1e-12);
        let r2 = result_with_jobs(&[(1.0, 2.0), (1000.0, 4.0)]);
        let f2 = FairnessReport::from_result(&r2);
        assert!((f2.class_unfairness().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn perfectly_fair_profile() {
        let r = result_with_jobs(&[(1.0, 3.0), (100.0, 3.0), (100000.0, 3.0)]);
        let f = FairnessReport::from_result(&r);
        assert!((f.class_unfairness().unwrap() - 1.0).abs() < 1e-12);
        assert!((f.band_spread(1).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn band_spread_respects_min_count() {
        let r = result_with_jobs(&[(1.0, 1.0), (1.1, 1.0), (1000.0, 100.0)]);
        let f = FairnessReport::from_result(&r);
        // the size-1000 band has a single job; excluding singletons
        // leaves only the small band
        assert!((f.band_spread(2).unwrap() - 1.0).abs() < 1e-12);
        assert!(f.band_spread(1).unwrap() > 50.0);
    }

    #[test]
    fn render_contains_classes() {
        let r = result_with_jobs(&[(1.0, 5.0), (1000.0, 5.0)]);
        let f = FairnessReport::from_result(&r);
        let text = f.render();
        assert!(text.contains("short class"));
        assert!(text.contains("unfairness"));
    }

    #[test]
    fn an_empty_class_renders_as_a_dash() {
        let r = result_with_jobs(&[(1.0, 5.0), (2.0, 3.0)]);
        let f = FairnessReport::from_result(&r);
        assert!((f.short_mean.unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(f.long_mean, None);
        assert!(f.class_unfairness().is_none());
        let text = f.render();
        assert!(
            text.contains("short class E[S] = 4.000, long class E[S] = -, unfairness = -"),
            "{text}"
        );
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn missing_data_yields_none() {
        let c = Collector::new(1, MetricsConfig::default());
        let f = FairnessReport::from_result(&c.finish());
        assert!(!f.render().contains("class"));
        assert!(f.bins.is_empty());
        assert!(f.class_unfairness().is_none());
        assert!(f.band_spread(1).is_none());
    }
}
