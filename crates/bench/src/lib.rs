//! Experiment harness support: seed-averaged runs, confidence intervals,
//! and the standard scenario builders shared by every figure.
//!
//! The declarative multi-dimensional sweep lives in [`sweep`]; the
//! concurrent multi-query comparison harness (`experiments multiq`) in
//! [`multiq`]; the n-way join plan quality comparison
//! (`experiments optimize`) in [`mod@optimize`]; the warm-vs-cold
//! admission comparison (`experiments warmstart`) in [`warmstart`]; the
//! cross-network federation comparison (`experiments federate`) in
//! [`federate`]. All five fan their `(key, seed)` runs out through
//! [`fan_out`] and aggregate them into named [`Stats`]; the other helpers
//! here serve the figure drivers.

pub mod federate;
pub mod multiq;
pub mod optimize;
pub mod sweep;
pub mod warmstart;

use aspen_join::prelude::*;
use aspen_join::Algorithm;
use sensor_net::Topology;
use sensor_query::JoinQuerySpec;
use sensor_sim::sweep::{parallel_map, stat_json, Json, SummaryStat};
use sensor_workload::WorkloadData;

/// Number of seeds averaged per data point (the paper averages 9 runs).
pub const FULL_SEEDS: u64 = 9;
/// Reduced seed count for quick runs.
pub const QUICK_SEEDS: u64 = 3;

/// Mean and 95% confidence half-interval of a sample. Delegates to the
/// sweep subsystem's [`SummaryStat`] so every figure —
/// sweep-driven or not — computes its CI with the same t-quantile.
pub fn mean_ci(xs: &[f64]) -> (f64, f64) {
    let s = SummaryStat::from_samples(xs);
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
        parallel_map(&jobs, 0, |&s| {
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

/// Runs `run(key, seed)` for every key and seed across `threads` OS
/// threads (0 = all cores) and returns each key's results in seed order.
/// The jobs go to [`parallel_map`] key-major, so the result does not
/// depend on `threads`.
pub fn fan_out<K: Sync, R: Send>(
    keys: &[K],
    seeds: &[u64],
    threads: usize,
    run: impl Fn(&K, u64) -> R + Sync,
) -> Vec<Vec<R>> {
    let jobs: Vec<(&K, u64)> = keys
        .iter()
        .flat_map(|k| seeds.iter().map(move |&s| (k, s)))
        .collect();
    let mut results = parallel_map(&jobs, threads, |&(k, s)| run(k, s)).into_iter();
    keys.iter()
        .map(|_| results.by_ref().take(seeds.len()).collect())
        .collect()
}

/// A named per-run observable, aggregated over seeds by [`Stats::of`].
pub type Metric<T> = (&'static str, fn(&T) -> f64);

/// One report cell's seed aggregates, by metric name, in column order.
#[derive(Debug, Clone)]
pub struct Stats(pub(crate) Vec<(&'static str, SummaryStat)>);

impl Stats {
    /// Aggregates each of `metrics` over `rows`.
    pub fn of<'a, T: 'a>(
        rows: impl Iterator<Item = &'a T> + Clone,
        metrics: &[Metric<T>],
    ) -> Stats {
        Stats(
            metrics
                .iter()
                .map(|&(name, f)| {
                    let xs: Vec<f64> = rows.clone().map(f).collect();
                    (name, SummaryStat::from_samples(&xs))
                })
                .collect(),
        )
    }

    /// The aggregate of metric `name`; panics if the cell has none.
    pub fn stat(&self, name: &str) -> &SummaryStat {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("unknown metric {name}"))
    }

    /// One `name: {n, mean, stddev, ci95, min, max}` field per metric.
    pub fn json_fields(&self) -> Vec<(String, Json)> {
        self.0
            .iter()
            .map(|(name, s)| (name.to_string(), stat_json(s)))
            .collect()
    }

    /// The cells under [`csv_header`]: mean, stddev and ci95 per metric.
    pub fn csv_cells(&self) -> Vec<String> {
        self.0.iter().flat_map(|(_, s)| csv_stat(s)).collect()
    }
}

/// The `{m}_mean`, `{m}_stddev`, `{m}_ci95` CSV columns of each metric.
pub fn csv_header<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    names
        .into_iter()
        .flat_map(|m| ["mean", "stddev", "ci95"].map(|suffix| format!("{m}_{suffix}")))
        .collect()
}

/// One aggregate's three CSV cells: mean, stddev, ci95.
pub fn csv_stat(s: &SummaryStat) -> [String; 3] {
    [s.mean, s.stddev, s.ci95].map(|x| format!("{x}"))
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
