//! The `experiments multiq` harness: concurrent multi-query workloads on
//! one network, comparing delivery disciplines (independent per-query
//! frames vs shared-tree aggregation) with per-query *and* aggregate
//! metrics, multi-seed replication, and the thread-count-determinism
//! contract of the sweep subsystem.

use crate::sweep::{algo_name, seed_range, MultiSpec, QueryId};
use crate::{csv_header, csv_stat, fan_out, Metric, Stats};
use aspen_join::prelude::*;
use aspen_join::{Algorithm, InnetOptions};
use sensor_net::{DensityClass, TopologySpec};
use sensor_sim::sweep::{Json, SummaryStat, Table};
use sensor_workload::WorkloadData;

/// Aggregate metrics reported per (sharing mode) cell, in column order.
const METRICS: [Metric<Outcome>; 10] = [
    ("total_traffic_bytes", |r| r.total_traffic_bytes() as f64),
    ("base_load_bytes", |r| r.base_load_bytes() as f64),
    ("max_node_load_bytes", |r| r.max_node_load_bytes() as f64),
    ("total_traffic_msgs", |r| r.total_traffic_msgs() as f64),
    ("base_load_msgs", |r| r.base_load_msgs() as f64),
    ("results", |r| r.results_total() as f64),
    ("avg_delay_cycles", |r| r.avg_delay_tx()),
    ("shared_frame_bytes", |r| r.shared_flow.tx_bytes as f64),
    ("shared_frame_msgs", |r| r.shared_flow.tx_msgs as f64),
    ("expired_frames", |r| r.expired_frames as f64),
];

/// Per-query metrics, in column order.
const QUERY_METRICS: [Metric<QueryStats>; 3] = [
    ("results", |q| q.results as f64),
    ("delay_cycles", |q| q.avg_delay_tx),
    ("own_tx_bytes", |q| q.flow.tx_bytes as f64),
];

/// Everything one multiq comparison needs: the workload shape (minus the
/// sharing mode, which is the compared dimension) and run parameters.
#[derive(Debug, Clone)]
pub struct MultiqConfig {
    pub nodes: usize,
    pub density: DensityClass,
    pub loss: f64,
    /// Number of concurrent queries (≥ 2; the acceptance workload is 4).
    pub n_queries: usize,
    /// `Some(q)` = homogeneous set; `None` = mixed Q1/Q2 alternation.
    pub base_query: Option<QueryId>,
    /// Sampling cycles between consecutive arrivals (0 = all at cycle 0).
    pub stagger: u32,
    pub algo: (Algorithm, InnetOptions),
    pub rates: Rates,
    pub seeds: Vec<u64>,
    pub cycles: u32,
    pub num_trees: usize,
    /// OS threads; 0 = all cores. Output is identical for any value.
    pub threads: usize,
}

impl Default for MultiqConfig {
    /// The acceptance workload: 4 mixed queries on the standard 100-node
    /// moderate network, Innet-cmg, 3 seeds.
    fn default() -> Self {
        MultiqConfig {
            nodes: 100,
            density: DensityClass::Moderate,
            loss: SimConfig::default().loss_prob,
            n_queries: 4,
            base_query: None,
            stagger: 0,
            algo: (Algorithm::Innet, InnetOptions::CMG),
            rates: Rates::new(2, 2, 5),
            seeds: seed_range(3),
            cycles: 40,
            num_trees: 3,
            threads: 0,
        }
    }
}

impl MultiqConfig {
    /// The CI smoke configuration: 60 nodes, 2 seeds, 20 cycles.
    pub fn quick() -> Self {
        MultiqConfig {
            nodes: 60,
            seeds: seed_range(2),
            cycles: 20,
            ..MultiqConfig::default()
        }
    }

    /// The [`MultiSpec`] slug of one compared cell.
    pub fn spec(&self, sharing: Sharing) -> MultiSpec {
        MultiSpec {
            base: self.base_query,
            n: self.n_queries,
            stagger: self.stagger,
            sharing,
        }
    }

    fn run_one(&self, sharing: Sharing, seed: u64) -> Outcome {
        let topo = TopologySpec::new(self.density, self.nodes, seed).build();
        let data = WorkloadData::new(&topo, Schedule::Uniform(self.rates), seed);
        let cfg = AlgoConfig::new(self.algo.0, Sigma::from_rates(self.rates))
            .with_innet_options(self.algo.1);
        let sim = SimConfig::default().with_loss(self.loss).with_seed(seed);
        let mut session = self
            .spec(sharing)
            .build_set(topo, data, cfg, sim, self.num_trees)
            .build();
        session.step(self.cycles);
        session.report()
    }

    /// Fan every (mode, seed) run across OS threads and aggregate.
    pub fn run(&self) -> MultiqReport {
        let modes = [Sharing::Independent, Sharing::SharedTree];
        let rows = fan_out(&modes, &self.seeds, self.threads, |&m, s| {
            self.run_one(m, s)
        });
        let cells = modes
            .into_iter()
            .zip(rows)
            .map(|(sharing, rows)| ModeResult::aggregate(self, sharing, &rows))
            .collect();
        MultiqReport {
            spec_name: self.spec(Sharing::Independent).name(),
            algo: algo_name(self.algo.0, self.algo.1),
            nodes: self.nodes,
            loss: self.loss,
            cycles: self.cycles,
            seeds: self.seeds.clone(),
            cells,
        }
    }
}

/// Seed-aggregated per-query observables within one mode: results,
/// delay and the query's own (un-aggregated) execution TX bytes.
#[derive(Debug, Clone)]
pub struct QueryAgg {
    pub name: String,
    pub arrival: u32,
    pub stats: Stats,
}

/// One sharing mode's aggregated replicates.
#[derive(Debug, Clone)]
pub struct ModeResult {
    pub sharing: Sharing,
    pub runs: usize,
    pub per_query: Vec<QueryAgg>,
    stats: Stats,
}

impl ModeResult {
    fn aggregate(cfg: &MultiqConfig, sharing: Sharing, rows: &[Outcome]) -> ModeResult {
        let m = cfg.spec(sharing);
        let per_query = (0..cfg.n_queries)
            .map(|q| QueryAgg {
                name: format!("{}#{q}", m.member(q).name()),
                // The authoritative lifecycle comes from the run, not
                // a re-derivation of the stagger formula.
                arrival: rows
                    .first()
                    .map(|r| r.per_query[q].arrival)
                    .unwrap_or(q as u32 * cfg.stagger),
                stats: Stats::of(rows.iter().map(|r| &r.per_query[q]), &QUERY_METRICS),
            })
            .collect();
        ModeResult {
            sharing,
            runs: rows.len(),
            per_query,
            stats: Stats::of(rows.iter(), &METRICS),
        }
    }

    pub fn stat(&self, name: &str) -> &SummaryStat {
        self.stats.stat(name)
    }
}

/// The aggregated outcome of a multiq comparison, with the table / JSON /
/// CSV emitters.
#[derive(Debug, Clone)]
pub struct MultiqReport {
    pub spec_name: String,
    pub algo: String,
    pub nodes: usize,
    pub loss: f64,
    pub cycles: u32,
    pub seeds: Vec<u64>,
    pub cells: Vec<ModeResult>,
}

impl MultiqReport {
    pub fn mode(&self, sharing: Sharing) -> &ModeResult {
        self.cells
            .iter()
            .find(|c| c.sharing == sharing)
            .expect("mode present")
    }

    /// Per-query rows plus one aggregate row per sharing mode.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "mode",
            "query",
            "arrival",
            "results",
            "delay_cyc",
            "own_kb",
            "shared_kb",
            "traffic_kb",
            "base_kb",
            "maxload_kb",
        ]);
        let kb = |s: &SummaryStat| format!("{:.1}", s.mean / 1024.0);
        for c in &self.cells {
            for q in &c.per_query {
                let results = q.stats.stat("results");
                t.push_row(vec![
                    c.sharing.name().to_string(),
                    q.name.clone(),
                    q.arrival.to_string(),
                    format!("{:.0}±{:.0}", results.mean, results.ci95),
                    format!("{:.1}", q.stats.stat("delay_cycles").mean),
                    kb(q.stats.stat("own_tx_bytes")),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
            }
            t.push_row(vec![
                c.sharing.name().to_string(),
                "ALL".to_string(),
                "-".to_string(),
                format!(
                    "{:.0}±{:.0}",
                    c.stat("results").mean,
                    c.stat("results").ci95
                ),
                format!("{:.1}", c.stat("avg_delay_cycles").mean),
                "-".to_string(),
                kb(c.stat("shared_frame_bytes")),
                kb(c.stat("total_traffic_bytes")),
                kb(c.stat("base_load_bytes")),
                kb(c.stat("max_node_load_bytes")),
            ]);
        }
        t
    }

    /// The headline comparison: how much shared-tree delivery saves over
    /// independent delivery, per aggregate metric (negative = regression).
    pub fn savings_line(&self) -> String {
        let indep = self.mode(Sharing::Independent);
        let shared = self.mode(Sharing::SharedTree);
        let pct = |m: &str| {
            let i = indep.stat(m).mean;
            let s = shared.stat(m).mean;
            if i > 0.0 {
                100.0 * (i - s) / i
            } else {
                0.0
            }
        };
        format!(
            "shared-tree vs independent: base load {:+.1}%, total traffic {:+.1}%, messages {:+.1}%",
            pct("base_load_bytes"),
            pct("total_traffic_bytes"),
            pct("total_traffic_msgs"),
        )
    }

    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let per_query = c
                    .per_query
                    .iter()
                    .map(|q| {
                        let mut fields = vec![
                            ("query".into(), Json::str(&q.name)),
                            ("arrival".into(), Json::num(q.arrival as f64)),
                        ];
                        fields.extend(q.stats.json_fields());
                        Json::Obj(fields)
                    })
                    .collect();
                Json::Obj(vec![
                    ("mode".into(), Json::str(c.sharing.name())),
                    ("runs".into(), Json::num(c.runs as f64)),
                    ("queries".into(), Json::Arr(per_query)),
                    ("metrics".into(), Json::Obj(c.stats.json_fields())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::str(&self.spec_name)),
            ("algorithm".into(), Json::str(&self.algo)),
            ("nodes".into(), Json::num(self.nodes as f64)),
            ("loss".into(), Json::num(self.loss)),
            ("cycles".into(), Json::num(self.cycles as f64)),
            (
                "seeds".into(),
                Json::Arr(self.seeds.iter().map(|&s| Json::num(s as f64)).collect()),
            ),
            ("cells".into(), Json::Arr(cells)),
        ])
        .render()
    }

    /// Wide CSV: one row per (mode, query) plus one ALL row per mode.
    pub fn to_csv(&self) -> String {
        let mut headers = vec![
            "mode".to_string(),
            "query".to_string(),
            "arrival".to_string(),
            "runs".to_string(),
        ];
        headers.extend(csv_header(QUERY_METRICS.map(|m| m.0)));
        headers.extend(METRICS.map(|(m, _)| format!("{m}_mean")));
        let mut t = Table::new(headers);
        for c in &self.cells {
            for q in &c.per_query {
                let mut row = vec![
                    c.sharing.name().to_string(),
                    q.name.clone(),
                    q.arrival.to_string(),
                    c.runs.to_string(),
                ];
                row.extend(q.stats.csv_cells());
                row.extend(METRICS.map(|_| String::new()));
                t.push_row(row);
            }
            let mut row = vec![
                c.sharing.name().to_string(),
                "ALL".to_string(),
                String::new(),
                c.runs.to_string(),
            ];
            row.extend(csv_stat(c.stat("results")));
            row.extend(csv_stat(c.stat("avg_delay_cycles")));
            row.extend(["", "", ""].map(String::from));
            row.extend(METRICS.map(|(m, _)| format!("{}", c.stat(m).mean)));
            t.push_row(row);
        }
        t.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_compares_modes_and_emits_all_formats() {
        let cfg = MultiqConfig {
            nodes: 40,
            n_queries: 4,
            seeds: seed_range(2),
            cycles: 8,
            threads: 0,
            ..MultiqConfig::quick()
        };
        let rep = cfg.run();
        assert_eq!(rep.cells.len(), 2);
        for c in &rep.cells {
            assert_eq!(c.per_query.len(), 4);
            assert!(
                c.stat("results").mean > 0.0,
                "{} delivered nothing",
                c.sharing.name()
            );
        }
        // The independent mode never forms aggregate frames.
        assert_eq!(
            rep.mode(Sharing::Independent)
                .stat("shared_frame_msgs")
                .mean,
            0.0
        );
        assert!(rep.mode(Sharing::SharedTree).stat("shared_frame_msgs").mean > 0.0);
        let table = rep.to_table().to_aligned_string();
        assert!(table.contains("shared") && table.contains("independent"));
        assert!(table.contains("ALL"));
        let json = rep.to_json();
        assert!(json.contains("\"mode\": \"shared\""));
        assert!(json.contains("\"own_tx_bytes\""));
        let csv = rep.to_csv();
        // Header + (4 queries + ALL) per mode x 2 modes.
        assert_eq!(csv.lines().count(), 1 + 2 * 5);
        assert!(!rep.savings_line().is_empty());
    }
}
