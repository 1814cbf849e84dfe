//! A forwarding [`Distribution`] that counts calls, for the traced run.
//!
//! `sample` calls count as `dist.samples`; every other trait call counts
//! as `dist.queries`. Counts live in thread-locals so a span reads exact
//! per-thread deltas even while pool workers run concurrently. Every
//! trait method forwards, defaulted ones included, so the inner
//! distribution's own overrides run and results stay bit-identical.

use dses_dist::{Distribution, Rng64};
use std::cell::Cell;

thread_local! {
    static SAMPLES: Cell<u64> = const { Cell::new(0) };
    static QUERIES: Cell<u64> = const { Cell::new(0) };
}

fn bump(c: &'static std::thread::LocalKey<Cell<u64>>) {
    c.with(|c| c.set(c.get() + 1));
}

/// `(samples, queries)` made through [`Counted`] on this thread so far.
pub fn thread_counts() -> (u64, u64) {
    (SAMPLES.with(Cell::get), QUERIES.with(Cell::get))
}

/// Counts calls into `D` and forwards them.
#[derive(Debug, Clone, PartialEq)]
pub struct Counted<D>(pub D);

impl<D: Distribution> Distribution for Counted<D> {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        bump(&SAMPLES);
        self.0.sample(rng)
    }
    fn support(&self) -> (f64, f64) {
        bump(&QUERIES);
        self.0.support()
    }
    fn cdf(&self, x: f64) -> f64 {
        bump(&QUERIES);
        self.0.cdf(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        bump(&QUERIES);
        self.0.quantile(p)
    }
    fn raw_moment(&self, k: i32) -> f64 {
        bump(&QUERIES);
        self.0.raw_moment(k)
    }
    fn mean(&self) -> f64 {
        bump(&QUERIES);
        self.0.mean()
    }
    fn variance(&self) -> f64 {
        bump(&QUERIES);
        self.0.variance()
    }
    fn scv(&self) -> f64 {
        bump(&QUERIES);
        self.0.scv()
    }
    fn prob_in(&self, a: f64, b: f64) -> f64 {
        bump(&QUERIES);
        self.0.prob_in(a, b)
    }
    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        bump(&QUERIES);
        self.0.partial_moment(k, a, b)
    }
    fn conditional_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        bump(&QUERIES);
        self.0.conditional_moment(k, a, b)
    }
    fn tail_load_fraction(&self, x: f64) -> f64 {
        bump(&QUERIES);
        self.0.tail_load_fraction(x)
    }
    fn closed_form_moments(&self) -> bool {
        bump(&QUERIES);
        self.0.closed_form_moments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dses_core::cutoffs::{resolve_cutoff, CutoffMethod};
    use dses_dist::Erlang;

    /// Every trait method answers with the inner distribution's bits.
    fn assert_bit_identical<D: Distribution + Clone>(d: &D) {
        let c = Counted(d.clone());
        let bits = |x: f64| x.to_bits();
        assert_eq!(c.support(), d.support());
        assert_eq!(c.closed_form_moments(), d.closed_form_moments());
        let (lo, hi) = d.support();
        let hi = if hi.is_finite() {
            hi
        } else {
            lo.max(1.0) * 1e4
        };
        for i in 0..=16 {
            let x = lo + (hi - lo) * f64::from(i) / 16.0;
            let p = f64::from(i) / 16.0;
            assert_eq!(bits(c.cdf(x)), bits(d.cdf(x)));
            assert_eq!(bits(c.quantile(p)), bits(d.quantile(p)));
            assert_eq!(bits(c.prob_in(lo, x)), bits(d.prob_in(lo, x)));
            assert_eq!(bits(c.tail_load_fraction(x)), bits(d.tail_load_fraction(x)));
            for k in [-1, 1, 2] {
                assert_eq!(
                    bits(c.partial_moment(k, lo, x)),
                    bits(d.partial_moment(k, lo, x))
                );
                assert_eq!(
                    bits(c.conditional_moment(k, lo, x)),
                    bits(d.conditional_moment(k, lo, x))
                );
            }
        }
        for k in [-1, 1, 2, 3] {
            assert_eq!(bits(c.raw_moment(k)), bits(d.raw_moment(k)));
        }
        assert_eq!(bits(c.mean()), bits(d.mean()));
        assert_eq!(bits(c.variance()), bits(d.variance()));
        assert_eq!(bits(c.scv()), bits(d.scv()));
        let (mut r1, mut r2) = (Rng64::seed_from(7), Rng64::seed_from(7));
        for _ in 0..1000 {
            assert_eq!(bits(c.sample(&mut r1)), bits(d.sample(&mut r2)));
        }
    }

    #[test]
    fn wrapper_is_bit_identical_on_every_method() {
        assert_bit_identical(&dses_workload::psc_c90().size_dist);
        assert_bit_identical(&Erlang::with_mean(4, 1000.0).unwrap());
    }

    #[test]
    fn wrapper_leaves_cutoff_solves_bit_identical() {
        let d = dses_workload::psc_c90().size_dist;
        let lambda = 0.7 * 2.0 / d.mean();
        for m in [
            CutoffMethod::EqualLoad,
            CutoffMethod::OptSlowdown,
            CutoffMethod::Fair,
        ] {
            let plain = resolve_cutoff(&d, lambda, 2, m).unwrap();
            let counted = resolve_cutoff(&Counted(d.clone()), lambda, 2, m).unwrap();
            assert_eq!(plain[0].to_bits(), counted[0].to_bits(), "{m:?}");
        }
    }

    #[test]
    fn wrapper_counts_samples_and_queries_separately() {
        let c = Counted(Erlang::with_mean(2, 10.0).unwrap());
        let (s0, q0) = thread_counts();
        let mut rng = Rng64::seed_from(1);
        for _ in 0..5 {
            c.sample(&mut rng);
        }
        let _ = c.mean();
        let _ = c.cdf(3.0);
        let (s1, q1) = thread_counts();
        assert_eq!((s1 - s0, q1 - q0), (5, 2));
    }
}
