//! Experiment harness support: the standard session and its seed runner,
//! seed means, and the fan-out and statistics core of the grid harnesses.
//!
//! The declarative multi-dimensional sweep lives in [`sweep`]; the
//! concurrent multi-query comparison harness (`experiments multiq`) in
//! [`multiq`]; the n-way join plan quality comparison
//! (`experiments optimize`) in [`mod@optimize`]; the warm-vs-cold
//! admission comparison (`experiments warmstart`) in [`warmstart`]; the
//! cross-network federation comparison (`experiments federate`) in
//! [`federate`]; the result counts of every variant against Base
//! (`experiments answers`) in [`answers`]. All six fan their `(key, seed)`
//! runs out through
//! [`fan_out`] and aggregate them into named [`Stats`]; the other helpers
//! here serve the figure drivers.

pub mod answers;
pub mod federate;
pub mod multiq;
pub mod optimize;
pub mod sweep;
pub mod warmstart;

use aspen_join::prelude::*;
use sensor_net::Topology;
use sensor_sim::sweep::{parallel_map, stat_json, Json, SummaryStat};
use sensor_workload::WorkloadData;
use sweep::{seed_range, QueryId};

/// Number of seeds averaged per data point (the paper averages 9 runs).
pub const FULL_SEEDS: u64 = 9;
/// Reduced seed count for quick runs.
pub const QUICK_SEEDS: u64 = 3;

/// The mean of `f` over `runs`, taken as the sweep subsystem's
/// [`SummaryStat`] takes it, so every figure averages seeds the same way.
pub fn mean<T>(runs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    SummaryStat::from_samples(&runs.iter().map(f).collect::<Vec<_>>()).mean
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

/// `query` with `pairs` explicit join pairs (0: none) on the standard
/// network of `seed`, under `schedule`, on the paper's untagged wire.
pub fn standard_session(
    query: QueryId,
    pairs: usize,
    schedule: Schedule,
    cfg: AlgoConfig,
    seed: u64,
) -> SessionBuilder {
    let topo = standard_topology(seed);
    let mut data = WorkloadData::new(&topo, schedule, seed);
    if pairs > 0 {
        data = data.with_pairs(pairs);
    }
    let mut sim = SimConfig::default().with_seed(seed);
    if cfg.innet.path_collapse {
        sim = sim.with_snooping(true);
    }
    Session::builder(topo, data)
        .sim(sim)
        .query(query.spec(), cfg)
        .bare_wire()
}

/// Builds `session(seed)` for each of the first `seeds` replicate seeds
/// (see [`seed_range`]), runs it for `cycles` and reports. The runs fan
/// out through [`parallel_map`]; the outcomes come back in seed order.
pub fn run_seeds(
    seeds: u64,
    cycles: u32,
    session: impl Fn(u64) -> SessionBuilder + Sync,
) -> Vec<Outcome> {
    parallel_map(&seed_range(seeds), 0, |&seed| {
        let mut session = session(seed).build();
        session.step(cycles);
        session.report()
    })
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
    fn mean_basics() {
        assert!((mean(&[1.0, 2.0, 3.0], |&x| x) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[(7, 5.0)], |r| r.1), 5.0);
        assert_eq!(mean(&[] as &[f64], |&x| x), 0.0);
    }

    #[test]
    fn run_seeds_reports_each_seed() {
        let rates = Rates::new(2, 2, 5);
        let cfg = AlgoConfig::new(Algorithm::Naive, Sigma::new(0.5, 0.5, 0.2));
        let stats = run_seeds(2, 5, |seed| {
            standard_session(QueryId::Q1, 0, Schedule::Uniform(rates), cfg, seed)
        });
        assert_eq!(stats.len(), 2);
        assert!(stats[0].total_traffic_bytes() > 0);
    }
}
