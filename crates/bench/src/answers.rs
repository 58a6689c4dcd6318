//! The `experiments answers` harness: how many join results each
//! algorithm returns, next to what Base returns on the same network and
//! seed.
//!
//! The grid crosses seven queries with the 11 evaluation variants
//! ([`VARIANTS`]), 1 and 3 routing trees, and the replicate seeds. The
//! queries are four WHERE clauses over `S.u = T.u` whose static
//! selections stress routing differently (a `pos_y` split, a `pos_x`
//! split, an `id` split, and the `id` split with Query 1's
//! `S.x = T.y + 5`), then Queries 1, 2 and 3 at window 3. Each run is
//! lossless with a roomy MAC, so queue drops and send failures stay 0
//! and Base (which equals Naive) is the answer every variant owes: a ratio other than 1 is a wrong answer, not noise.
//! Query 3 (`dist < 50`) returns 0 results in every cell of this
//! 100-node network; its row stays so that a change that makes it join
//! anything shows in the golden.

use crate::sweep::{algo_name, seed_range};
use crate::{csv_header, fan_out, Metric, Stats};
use aspen_join::prelude::*;
use aspen_join::shared::VARIANTS;
use aspen_join::{Algorithm, InnetOptions};
use sensor_query::parser::parse_query;
use sensor_query::JoinQuerySpec;
use sensor_sim::sweep::{Json, SummaryStat, Table};
use sensor_workload::{query1, query2, query3, WorkloadData};

/// Sampling cycles per run.
const CYCLES: u32 = 20;
/// Routing-tree counts crossed with every query and variant.
const TREES: [usize; 2] = [1, 3];
/// The four WHERE clauses, by row name.
const WHERES: [(&str, &str); 4] = [
    ("pos_y", "S.pos_y < 1250 AND T.pos_y >= 1250 AND S.u = T.u"),
    ("pos_x", "S.pos_x < 1250 AND T.pos_x >= 1250 AND S.u = T.u"),
    ("id", "S.id < 50 AND T.id >= 50 AND S.u = T.u"),
    (
        "id_x=y+5",
        "S.id < 50 AND T.id >= 50 AND S.x = T.y + 5 AND S.u = T.u",
    ),
];

/// Per-cell metrics, in column order.
const METRICS: [Metric<Answer>; 4] = [
    ("results", |r| r.results),
    ("base_results", |r| r.base_results),
    ("queue_drops", |r| r.queue_drops),
    ("send_failures", |r| r.send_failures),
];

/// The seven queries, by row name.
fn queries() -> Vec<(&'static str, JoinQuerySpec)> {
    let mut qs: Vec<_> = WHERES
        .iter()
        .map(|&(name, clause)| {
            let sql = format!(
                "SELECT S.id, T.id FROM S, T [windowsize=3 sampleinterval=100] WHERE {clause}"
            );
            (name, parse_query(&sql).expect("answers SQL parses"))
        })
        .collect();
    qs.extend([("q1", query1(3)), ("q2", query2(3)), ("q3", query3(3))]);
    qs
}

/// The answers grid's replicate seeds and fan-out; everything else is
/// fixed.
#[derive(Debug, Clone)]
pub struct AnswersConfig {
    pub seeds: Vec<u64>,
    /// OS threads; 0 = all cores. Output is identical for any value.
    pub threads: usize,
}

impl Default for AnswersConfig {
    /// The full grid: 3 seeds.
    fn default() -> Self {
        AnswersConfig {
            seeds: seed_range(3),
            threads: 0,
        }
    }
}

/// One cell of the grid: a query row, a tree count and a variant.
#[derive(Debug, Clone, Copy)]
struct Key {
    query: usize,
    trees: usize,
    algo: (Algorithm, InnetOptions),
}

/// One run's counts, next to the Base run of the same query, trees and
/// seed.
#[derive(Debug, Clone, Copy)]
struct Answer {
    results: f64,
    base_results: f64,
    queue_drops: f64,
    send_failures: f64,
}

impl AnswersConfig {
    /// The CI grid: 1 seed, 154 runs.
    pub fn quick() -> Self {
        AnswersConfig {
            seeds: seed_range(1),
            ..AnswersConfig::default()
        }
    }

    fn run_one(spec: &JoinQuerySpec, key: &Key, seed: u64) -> Answer {
        let (algo, opts) = key.algo;
        let topo = sensor_net::random_with_degree(100, 7.0, seed);
        let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), seed);
        let cfg = AlgoConfig::new(algo, Sigma::new(0.5, 0.5, 0.2)).with_innet_options(opts);
        let sim = SimConfig {
            loss_prob: 0.0,
            tx_per_cycle: 256,
            queue_capacity: 1_000_000,
            ..SimConfig::default().with_seed(seed)
        }
        .with_snooping(opts.path_collapse);
        let mut session = Session::builder(topo, data)
            .sim(sim)
            .trees(key.trees)
            .query(spec.clone(), cfg)
            .bare_wire()
            .build();
        session.step(CYCLES);
        let out = session.report();
        Answer {
            results: out.results_total() as f64,
            base_results: 0.0,
            queue_drops: out.queue_drops() as f64,
            send_failures: out.send_failures() as f64,
        }
    }

    /// Fan every (cell, seed) run across OS threads and set each cell
    /// against its Base cell.
    pub fn run(&self) -> AnswersReport {
        let queries = queries();
        let keys: Vec<Key> = (0..queries.len())
            .flat_map(|query| {
                TREES
                    .into_iter()
                    .flat_map(move |trees| VARIANTS.map(|algo| Key { query, trees, algo }))
            })
            .collect();
        let runs = fan_out(&keys, &self.seeds, self.threads, |k, seed| {
            Self::run_one(&queries[k.query].1, k, seed)
        });
        let cells = keys
            .iter()
            .zip(&runs)
            .map(|(k, rows)| {
                let base = keys
                    .iter()
                    .position(|b| {
                        b.query == k.query && b.trees == k.trees && b.algo.0 == Algorithm::Base
                    })
                    .expect("every query and tree count has a Base cell");
                let answers: Vec<Answer> = rows
                    .iter()
                    .zip(&runs[base])
                    .map(|(r, b)| Answer {
                        base_results: b.results,
                        ..*r
                    })
                    .collect();
                AnswerCell {
                    query: queries[k.query].0,
                    trees: k.trees,
                    algorithm: algo_name(k.algo.0, k.algo.1),
                    stats: Stats::of(answers.iter(), &METRICS),
                }
            })
            .collect();
        AnswersReport {
            seeds: self.seeds.clone(),
            cells,
        }
    }
}

/// One (query, trees, variant) cell, aggregated over seeds.
#[derive(Debug, Clone)]
pub struct AnswerCell {
    pub query: &'static str,
    pub trees: usize,
    pub algorithm: String,
    stats: Stats,
}

impl AnswerCell {
    pub fn stat(&self, name: &str) -> &SummaryStat {
        self.stats.stat(name)
    }

    /// Mean results over Base's mean results; `None` where Base returns
    /// nothing.
    pub fn ratio(&self) -> Option<f64> {
        let base = self.stat("base_results").mean;
        (base > 0.0).then(|| self.stat("results").mean / base)
    }
}

/// The aggregated answers grid, with the table / JSON / CSV emitters.
#[derive(Debug, Clone)]
pub struct AnswersReport {
    pub seeds: Vec<u64>,
    pub cells: Vec<AnswerCell>,
}

impl AnswersReport {
    /// One row per cell: mean results, Base's, the ratio, drops and
    /// failures.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "query",
            "trees",
            "algorithm",
            "results",
            "base",
            "ratio",
            "drops",
            "fails",
        ]);
        for c in &self.cells {
            t.push_row(vec![
                c.query.to_string(),
                c.trees.to_string(),
                c.algorithm.clone(),
                format!("{:.1}", c.stat("results").mean),
                format!("{:.1}", c.stat("base_results").mean),
                c.ratio().map_or("-".into(), |r| format!("{r:.3}")),
                format!("{:.1}", c.stat("queue_drops").mean),
                format!("{:.1}", c.stat("send_failures").mean),
            ]);
        }
        t
    }

    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("query".into(), Json::str(c.query)),
                    ("trees".into(), Json::num(c.trees as f64)),
                    ("algorithm".into(), Json::str(&c.algorithm)),
                    ("metrics".into(), Json::Obj(c.stats.json_fields())),
                    ("ratio".into(), c.ratio().map_or(Json::Null, Json::num)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("cycles".into(), Json::num(CYCLES)),
            (
                "seeds".into(),
                Json::Arr(self.seeds.iter().map(|&s| Json::num(s as f64)).collect()),
            ),
            ("cells".into(), Json::Arr(cells)),
        ])
        .render()
    }

    pub fn to_csv(&self) -> String {
        let mut headers: Vec<String> = ["query", "trees", "algorithm", "runs"]
            .map(String::from)
            .into();
        headers.extend(csv_header(METRICS.map(|m| m.0)));
        headers.push("ratio".into());
        let mut t = Table::new(headers);
        for c in &self.cells {
            let mut row = vec![
                c.query.to_string(),
                c.trees.to_string(),
                c.algorithm.clone(),
                self.seeds.len().to_string(),
            ];
            row.extend(c.stats.csv_cells());
            row.push(c.ratio().map_or(String::new(), |r| format!("{r}")));
            t.push_row(row);
        }
        t.to_csv()
    }
}
