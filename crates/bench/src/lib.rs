//! Experiment harness support: seed-averaged runs, confidence intervals,
//! and the standard scenario builders shared by every figure.
//!
//! The declarative multi-dimensional sweep lives in [`sweep`]; the
//! concurrent multi-query comparison harness (`experiments multiq`) in
//! [`multiq`]; the n-way join plan quality comparison
//! (`experiments optimize`) in [`mod@optimize`]; the warm-vs-cold
//! admission comparison (`experiments warmstart`) in [`warmstart`]; the
//! cross-network federation comparison (`experiments federate`) in
//! [`federate`]; the helpers here remain for the figure drivers that
//! predate them.

pub mod federate;
pub mod multiq;
pub mod optimize;
pub mod sweep;
pub mod warmstart;

use aspen_join::prelude::*;
use aspen_join::Algorithm;
use sensor_net::Topology;
use sensor_query::JoinQuerySpec;
use sensor_workload::WorkloadData;

/// Number of seeds averaged per data point (the paper averages 9 runs).
pub const FULL_SEEDS: u64 = 9;
/// Reduced seed count for quick runs.
pub const QUICK_SEEDS: u64 = 3;

/// Mean and 95% confidence half-interval of a sample. Delegates to the
/// sweep subsystem's [`sensor_sim::sweep::SummaryStat`] so every figure —
/// sweep-driven or not — computes its CI with the same t-quantile.
pub fn mean_ci(xs: &[f64]) -> (f64, f64) {
    let s = sensor_sim::sweep::SummaryStat::from_samples(xs);
    (s.mean, s.ci95)
}

pub fn kb(bytes: f64) -> f64 {
    bytes / 1024.0
}

pub fn mb(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// The standard 100-node, 7-neighbor evaluation network.
pub fn standard_topology(seed: u64) -> Topology {
    sensor_net::random_with_degree(100, 7.0, seed)
}

/// The algorithm set of Figures 2-3.
pub fn figure2_algorithms() -> Vec<(Algorithm, InnetOptions)> {
    vec![
        (Algorithm::Naive, InnetOptions::PLAIN),
        (Algorithm::Base, InnetOptions::PLAIN),
        (Algorithm::Ght, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::CMG),
        (Algorithm::Innet, InnetOptions::CMPG),
    ]
}

/// Session builder for the synthetic experiments: one query on the
/// standard network, on the paper's untagged wire.
pub struct Bench {
    pub query: fn(usize) -> JoinQuerySpec,
    pub window: usize,
    pub n_pairs: usize,
    pub cycles: u32,
}

impl Bench {
    pub fn scenario(
        &self,
        rates: Rates,
        assumed: Sigma,
        algo: Algorithm,
        opts: InnetOptions,
        seed: u64,
    ) -> SessionBuilder {
        self.scenario_with_schedule(Schedule::Uniform(rates), assumed, algo, opts, seed)
    }

    pub fn scenario_with_schedule(
        &self,
        schedule: Schedule,
        assumed: Sigma,
        algo: Algorithm,
        opts: InnetOptions,
        seed: u64,
    ) -> SessionBuilder {
        let topo = standard_topology(seed);
        let mut data = WorkloadData::new(&topo, schedule, seed);
        if self.n_pairs > 0 {
            data = data.with_pairs(self.n_pairs);
        }
        let mut sim = SimConfig::default().with_seed(seed);
        if opts.path_collapse {
            sim = sim.with_snooping(true);
        }
        Session::builder(topo, data)
            .sim(sim)
            .query(
                (self.query)(self.window),
                AlgoConfig::new(algo, assumed).with_innet_options(opts),
            )
            .bare_wire()
    }

    /// Run across seeds and return the per-seed outcomes.
    pub fn run_seeds(
        &self,
        rates: Rates,
        assumed: Sigma,
        algo: Algorithm,
        opts: InnetOptions,
        seeds: u64,
    ) -> Vec<Outcome> {
        let jobs: Vec<u64> = crate::sweep::seed_range(seeds);
        parallel_map(jobs, |&s| {
            run_stats(self.scenario(rates, assumed, algo, opts, s), self.cycles)
        })
    }
}

/// Build the session, run `cycles` sampling cycles and report.
pub fn run_stats(b: SessionBuilder, cycles: u32) -> Outcome {
    let mut session = b.build();
    session.step(cycles);
    session.report()
}

/// Simple parallel map over independent jobs (the paper ran its sweeps on
/// a 20-machine cluster; we use the local cores). Thin wrapper over the
/// engine-side deterministic fan-out in [`sensor_sim::sweep`].
pub fn parallel_map<T: Send + Sync, R: Send>(jobs: Vec<T>, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    sensor_sim::sweep::parallel_map(&jobs, 0, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ci_basics() {
        let (m, ci) = mean_ci(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!(ci > 0.0);
        assert_eq!(mean_ci(&[]), (0.0, 0.0));
        assert_eq!(mean_ci(&[5.0]).1, 0.0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<u32> = (0..37).collect();
        let out = parallel_map(jobs, |&x| x * 2);
        assert_eq!(out, (0..37).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn bench_scenario_runs() {
        let b = Bench {
            query: sensor_workload::query1,
            window: 3,
            n_pairs: 0,
            cycles: 5,
        };
        let stats = b.run_seeds(
            Rates::new(2, 2, 5),
            Sigma::new(0.5, 0.5, 0.2),
            Algorithm::Naive,
            InnetOptions::PLAIN,
            2,
        );
        assert_eq!(stats.len(), 2);
        assert!(stats[0].total_traffic_bytes() > 0);
    }
}
