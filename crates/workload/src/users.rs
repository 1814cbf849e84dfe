//! User-correlated workloads.
//!
//! The paper's §7 points at a way around user-supplied estimates:
//! "Recent work shows that in an MPP setting it is possible to predict
//! runtimes based on historical information of previous similar runs."
//! Prediction only works if a user's jobs *are* similar — so this module
//! generates traces with that structure: each job belongs to a user,
//! user activity follows a Zipf law (a few heavy users dominate, as in
//! real center logs), and a user's job sizes cluster around a personal
//! scale with tunable within-user variability.
//!
//! The companion predictor and prediction-driven SITA policy live in
//! `dses-core::prediction`.

use crate::job::Job;
use crate::trace::Trace;
use dses_dist::prelude::*;

/// A trace whose jobs carry user identities (parallel array indexed by
/// job id).
#[derive(Debug, Clone, PartialEq)]
pub struct UserTrace {
    /// the job trace
    pub trace: Trace,
    /// `user_of_job[job.id]` is the submitting user
    pub user_of_job: Vec<u32>,
}

impl UserTrace {
    /// The user of a given job id.
    #[must_use]
    pub fn user(&self, job_id: u64) -> u32 {
        self.user_of_job[job_id as usize]
    }

    /// Number of distinct users that actually submitted jobs.
    #[must_use]
    pub fn active_users(&self) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for &u in &self.user_of_job {
            seen.insert(u);
        }
        seen.len()
    }
}

/// Builder for user-correlated synthetic traces.
#[derive(Debug, Clone)]
pub struct UserWorkloadBuilder<D: Distribution + Clone> {
    scale_dist: D,
    users: usize,
    zipf_exponent: f64,
    within_scv: f64,
    jobs: usize,
    rho: f64,
    hosts: usize,
    seed: u64,
}

impl<D: Distribution + Clone> UserWorkloadBuilder<D> {
    /// Start a builder. `scale_dist` supplies each user's personal size
    /// scale (e.g. the C90 preset mixture), so the marginal size
    /// distribution stays close to the target workload.
    #[must_use]
    pub fn new(scale_dist: D) -> Self {
        Self {
            scale_dist,
            users: 100,
            zipf_exponent: 1.0,
            within_scv: 0.25,
            jobs: 10_000,
            rho: 0.5,
            hosts: 2,
            seed: 0,
        }
    }

    /// Number of users in the population (default 100).
    #[must_use]
    pub fn users(mut self, users: usize) -> Self {
        assert!(users > 0, "need at least one user");
        self.users = users;
        self
    }

    /// Zipf activity exponent (default 1.0; 0 = uniform activity).
    #[must_use]
    pub fn zipf_exponent(mut self, s: f64) -> Self {
        assert!(s >= 0.0, "zipf exponent must be nonnegative");
        self.zipf_exponent = s;
        self
    }

    /// Within-user size variability as a squared coefficient of variation
    /// (default 0.25 — a user's jobs vary by ±50 % around their scale;
    /// 0 makes every job of a user identical).
    #[must_use]
    pub fn within_scv(mut self, scv: f64) -> Self {
        assert!(scv >= 0.0, "within-user scv must be nonnegative");
        self.within_scv = scv;
        self
    }

    /// Number of jobs (default 10 000).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Poisson arrivals at system load `rho` for `hosts` hosts.
    #[must_use]
    pub fn poisson_load(mut self, rho: f64, hosts: usize) -> Self {
        assert!(rho > 0.0, "load must be positive");
        assert!(hosts > 0, "need at least one host");
        self.rho = rho;
        self.hosts = hosts;
        self
    }

    /// RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generate the user-attributed trace.
    #[must_use]
    pub fn build(&self) -> UserTrace {
        let root = Rng64::seed_from(self.seed);
        let mut scale_rng = root.stream(11);
        let mut pick_rng = root.stream(12);
        let mut size_rng = root.stream(13);
        let mut gap_rng = root.stream(14);
        // per-user scales from the target workload distribution
        let scales: Vec<f64> = (0..self.users)
            .map(|_| self.scale_dist.sample(&mut scale_rng))
            .collect();
        // Zipf activity weights
        let weights: Vec<f64> = (1..=self.users)
            .map(|k| 1.0 / (k as f64).powf(self.zipf_exponent))
            .collect();
        let total_w: f64 = weights.iter().sum();
        let cumulative: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total_w;
                Some(*acc)
            })
            .collect();
        // within-user multiplicative jitter with mean 1
        let jitter = (self.within_scv > 0.0)
            // dses-lint: allow(panic-hygiene) -- scv > 0 guarded above; mean-one lognormals always fit
            .then(|| LogNormal::fit_mean_scv(1.0, self.within_scv).expect("valid scv"));
        // arrival rate for the target load, based on the *scale* mean
        // (the jitter is mean-one, so the marginal mean matches)
        let rate = self.rho * self.hosts as f64 / self.scale_dist.mean();
        let mut t = 0.0;
        let mut jobs = Vec::with_capacity(self.jobs);
        let mut user_of_job = Vec::with_capacity(self.jobs);
        for id in 0..self.jobs {
            t += gap_rng.standard_exponential() / rate;
            let draw = pick_rng.uniform();
            let u = cumulative.partition_point(|&c| c < draw).min(self.users - 1);
            let mut size = scales[u];
            if let Some(j) = &jitter {
                size *= j.sample(&mut size_rng);
            }
            jobs.push(Job::new(id as u64, t, size.max(1e-9)));
            user_of_job.push(u as u32);
        }
        UserTrace {
            trace: Trace::new(jobs),
            user_of_job,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::psc_c90;

    fn builder() -> UserWorkloadBuilder<Mixture> {
        UserWorkloadBuilder::new(psc_c90().size_dist)
            .users(50)
            .jobs(20_000)
            .poisson_load(0.6, 2)
            .seed(7)
    }

    #[test]
    fn produces_attributed_jobs() {
        let ut = builder().build();
        assert_eq!(ut.trace.len(), 20_000);
        assert_eq!(ut.user_of_job.len(), 20_000);
        assert!(ut.active_users() > 10);
        assert!(ut.user_of_job.iter().all(|&u| (u as usize) < 50));
    }

    #[test]
    fn zipf_concentrates_activity() {
        let ut = builder().zipf_exponent(1.5).build();
        let mut counts = vec![0usize; 50];
        for &u in &ut.user_of_job {
            counts[u as usize] += 1;
        }
        // user 0 (heaviest) should dominate user 49 (lightest)
        assert!(counts[0] > 20 * counts[49].max(1));
        // and uniform activity should not
        let flat = builder().zipf_exponent(0.0).build();
        let mut fcounts = vec![0usize; 50];
        for &u in &flat.user_of_job {
            fcounts[u as usize] += 1;
        }
        let (max, min) = (
            *fcounts.iter().max().unwrap(),
            *fcounts.iter().min().unwrap(),
        );
        assert!(max < 3 * min.max(1), "uniform activity spread: {max} vs {min}");
    }

    #[test]
    fn within_user_sizes_cluster() {
        let ut = builder().within_scv(0.05).build();
        // pick the busiest user and check its size spread is tight
        let mut by_user: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
        for job in ut.trace.jobs() {
            by_user
                .entry(ut.user(job.id))
                .or_default()
                .push(job.size);
        }
        let (_, sizes) = by_user
            .iter()
            .max_by_key(|(_, v)| v.len())
            .map(|(u, v)| (*u, v.clone()))
            .unwrap();
        let s = dses_dist::Summary::from_values(&sizes);
        assert!(
            s.scv() < 0.2,
            "within-user C^2 should be small: {}",
            s.scv()
        );
    }

    #[test]
    fn zero_within_variability_makes_users_deterministic() {
        let ut = builder().within_scv(0.0).jobs(2_000).build();
        let mut first: std::collections::BTreeMap<u32, f64> = Default::default();
        for job in ut.trace.jobs() {
            let u = ut.user(job.id);
            let entry = first.entry(u).or_insert(job.size);
            assert_eq!(*entry, job.size, "user {u} sizes should be constant");
        }
    }

    #[test]
    fn marginal_mean_tracks_the_scale_distribution() {
        // Uniform activity over many users so the marginal mean is an
        // honest average of many iid scale draws (Zipf weighting makes
        // the marginal hostage to a handful of users — by design).
        let ut = builder()
            .users(400)
            .zipf_exponent(0.0)
            .jobs(60_000)
            .within_scv(0.25)
            .seed(9)
            .build();
        let mean = ut.trace.size_summary().mean();
        let want = psc_c90().size_dist.mean();
        assert!(
            mean > want / 4.0 && mean < want * 4.0,
            "marginal mean {mean} vs scale mean {want}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = builder().build();
        let b = builder().build();
        assert_eq!(a, b);
    }
}
