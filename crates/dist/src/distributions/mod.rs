//! Concrete distribution implementations.
//!
//! The star of the show is [`BoundedPareto`] — the distribution the paper
//! (and its reference \[11\]) uses to model supercomputing job sizes, with
//! closed-form partial moments for every integer order. The others cover
//! the comparison space: light tails ([`Exponential`], [`Erlang`],
//! [`Deterministic`], [`Uniform`]), heavy tails ([`Pareto`], [`LogNormal`],
//! [`Weibull`]), and two-moment matching ([`HyperExponential`]).

mod bounded_pareto;
mod deterministic;
mod erlang;
mod exponential;
mod hyperexp;
mod lognormal;
mod mixture;
mod pareto;
mod scaled;
mod uniform;
mod weibull;

pub use bounded_pareto::BoundedPareto;
pub use deterministic::Deterministic;
pub use erlang::Erlang;
pub use exponential::Exponential;
pub use hyperexp::HyperExponential;
pub use lognormal::LogNormal;
pub use mixture::Mixture;
pub use pareto::Pareto;
pub use scaled::Scaled;
pub use uniform::Uniform;
pub use weibull::Weibull;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Distribution;

    #[test]
    fn an_unbounded_support_has_all_its_mass_below_infinity() {
        // a SITA analysis reads the top band (c, +∞] through these two;
        // Erlang is the one exception left: its cdf(+∞) is NaN, because
        // the incomplete gamma behind it iterates on +∞
        let mixture = Mixture::new(vec![
            (0.5, Box::new(Exponential::with_mean(10.0).unwrap()) as Box<dyn Distribution>),
            (0.5, Box::new(LogNormal::new(6.0, 1.0).unwrap())),
        ])
        .unwrap();
        let unbounded: Vec<(&str, Box<dyn Distribution>)> = vec![
            ("Exponential", Box::new(Exponential::with_mean(1000.0).unwrap())),
            ("HyperExponential", Box::new(HyperExponential::fit_mean_scv(1000.0, 4.0).unwrap())),
            ("LogNormal", Box::new(LogNormal::new(6.0, 1.0).unwrap())),
            ("Pareto", Box::new(Pareto::new(1.0, 1.5).unwrap())),
            ("Weibull", Box::new(Weibull::new(3.0, 1000.0).unwrap())),
            ("Scaled", Box::new(Scaled::new(LogNormal::new(6.0, 1.0).unwrap(), 3.0).unwrap())),
            ("Mixture", Box::new(mixture)),
        ];
        for (name, d) in &unbounded {
            assert_eq!(d.support().1, f64::INFINITY, "{name}");
            assert_eq!(d.cdf(f64::INFINITY), 1.0, "{name}");
            for p in [0.1, 0.5, 0.99] {
                let x = d.quantile(p);
                assert_eq!(d.prob_in(x, f64::INFINITY), 1.0 - d.cdf(x), "{name} above {x}");
            }
        }
    }

    #[test]
    fn a_nan_argument_gives_nan_and_never_panics() {
        // LogNormal and Erlang reach the incomplete gamma, whose domain
        // asserts once rejected NaN and aborted the caller
        let mixture = Mixture::new(vec![
            (0.5, Box::new(BoundedPareto::new(1.0, 1.0e4, 1.1).unwrap()) as Box<dyn Distribution>),
            (0.5, Box::new(LogNormal::new(6.0, 1.0).unwrap())),
        ])
        .unwrap();
        let every: Vec<(&str, Box<dyn Distribution>)> = vec![
            ("BoundedPareto", Box::new(BoundedPareto::new(1.0, 1.0e6, 1.1).unwrap())),
            ("Deterministic", Box::new(Deterministic::new(2.0).unwrap())),
            ("Erlang", Box::new(Erlang::with_mean(4, 1000.0).unwrap())),
            ("Exponential", Box::new(Exponential::with_mean(1000.0).unwrap())),
            ("HyperExponential", Box::new(HyperExponential::fit_mean_scv(1000.0, 4.0).unwrap())),
            ("LogNormal", Box::new(LogNormal::new(6.0, 1.0).unwrap())),
            ("Pareto", Box::new(Pareto::new(1.0, 1.5).unwrap())),
            ("Scaled", Box::new(Scaled::new(LogNormal::new(6.0, 1.0).unwrap(), 3.0).unwrap())),
            ("Uniform", Box::new(Uniform::new(1.0, 5.0).unwrap())),
            ("Weibull", Box::new(Weibull::new(3.0, 1000.0).unwrap())),
            ("Mixture", Box::new(mixture)),
            ("Empirical", Box::new(crate::Empirical::from_values(&[1.0, 2.0, 8.0]).unwrap())),
        ];
        for (name, d) in &every {
            assert!(d.cdf(f64::NAN).is_nan(), "{name}: cdf(NaN)");
            let x = d.quantile(0.5);
            let p = d.prob_in(f64::NAN, x);
            assert!(p.is_nan() || p == 0.0, "{name}: prob_in(NaN, {x}) = {p}");
        }
        assert!(crate::special::erf(f64::NAN).is_nan());
        assert!(crate::special::erfc(f64::NAN).is_nan());
        assert!(crate::special::std_normal_cdf(f64::NAN).is_nan());
    }
}
