//! The `experiments optimize` harness: n-way join plan quality.
//!
//! For each named 3–5-way workload it runs the three planners of
//! [`mod@aspen_join::optimize`] — the Selinger-style bushy DP
//! ([`aspen_join::optimize()`]), the left-deep-restricted DP
//! ([`aspen_join::left_deep`]) and the pairwise-greedy heuristic
//! ([`aspen_join::greedy`]) — over seed-replicated topologies, and
//! reports the §3 model cost (bytes/cycle normalized by producer rate)
//! of each chosen plan. No simulation runs: the comparison isolates the
//! *optimizer*, on exactly the cost model the session layer plans with.
//!
//! The workloads pin per-edge selectivities (a calibrated σ vector, as
//! the session's learning layer would supply after convergence) and
//! select producers by deployment region (`pos_x`/`pos_y` strips), so
//! relations occupy distinct parts of the field and plan shape has real
//! transport consequences. The headline regression — kept under test in
//! this module and in the golden fixture — is that the bushy DP strictly
//! beats the best left-deep plan on at least one 4-way workload.

use crate::sweep::seed_range;
use crate::{csv_header, fan_out, Metric, Stats};
use aspen_join::prelude::*;
use aspen_join::PlanNode;
use sensor_net::{DensityClass, TopologySpec};
use sensor_query::{parse_join_graph, JoinGraph};
use sensor_sim::sweep::{Json, SummaryStat, Table};
use sensor_workload::WorkloadData;

/// Per-workload aggregate metrics, in column order.
const METRICS: [Metric<PlanSample>; 3] = [
    ("dp_cost", |r| r.dp_cost),
    ("left_deep_cost", |r| r.left_deep_cost),
    ("greedy_cost", |r| r.greedy_cost),
];

/// Low / high windowed join-edge selectivity (σ_st) used by the named
/// workloads; source/target send rates stay at the standard 1/2.
const SIGMA_LO: Sigma = Sigma {
    s: 0.5,
    t: 0.5,
    st: 0.05,
};
const SIGMA_HI: Sigma = Sigma {
    s: 0.5,
    t: 0.5,
    st: 0.8,
};

/// One named n-way workload: a StreamSQL join graph plus its calibrated
/// per-edge σ vector (indexed like [`JoinGraph::edges`]).
#[derive(Debug, Clone)]
pub struct OptWorkload {
    pub name: &'static str,
    pub sql: &'static str,
    pub sigmas: Vec<Sigma>,
}

impl OptWorkload {
    pub fn graph(&self) -> JoinGraph {
        let g = parse_join_graph(self.sql).expect("workload SQL parses");
        assert_eq!(
            g.edges.len(),
            self.sigmas.len(),
            "σ vector must match edge count for {}",
            self.name
        );
        g
    }
}

/// The standard workload set: region-separated 3/4/5-way chains and a
/// 4-cycle, with heterogeneous edge selectivities (cheap outer joins
/// around an expensive middle — the shape where join order matters).
pub fn workloads() -> Vec<OptWorkload> {
    vec![
        OptWorkload {
            name: "chain3",
            sql: "SELECT a.id, c.id FROM a, b, c [windowsize=3 sampleinterval=100] \
                  WHERE a.pos_x < 1250 AND b.pos_x >= 1250 AND b.pos_y >= 1250 \
                  AND c.pos_x >= 1250 AND c.pos_y < 1250 \
                  AND a.u = b.u AND b.u = c.u",
            sigmas: vec![SIGMA_LO, SIGMA_HI],
        },
        OptWorkload {
            name: "chain4",
            sql: "SELECT a.id, d.id FROM a, b, c, d [windowsize=3 sampleinterval=100] \
                  WHERE a.pos_x < 1250 AND a.pos_y < 1250 \
                  AND b.pos_x < 1250 AND b.pos_y >= 1250 \
                  AND c.pos_x >= 1250 AND c.pos_y >= 1250 \
                  AND d.pos_x >= 1250 AND d.pos_y < 1250 \
                  AND a.u = b.u AND b.u = c.u AND c.v = d.v",
            sigmas: vec![SIGMA_LO, SIGMA_HI, SIGMA_LO],
        },
        OptWorkload {
            name: "cycle4",
            sql: "SELECT a.id, c.id FROM a, b, c, d [windowsize=3 sampleinterval=100] \
                  WHERE a.pos_x < 1250 AND a.pos_y < 1250 \
                  AND b.pos_x < 1250 AND b.pos_y >= 1250 \
                  AND c.pos_x >= 1250 AND c.pos_y >= 1250 \
                  AND d.pos_x >= 1250 AND d.pos_y < 1250 \
                  AND a.u = b.u AND b.u = c.u AND c.v = d.v AND a.v = d.u",
            sigmas: vec![SIGMA_LO, SIGMA_HI, SIGMA_LO, SIGMA_HI],
        },
        OptWorkload {
            name: "chain5",
            sql: "SELECT a.id, e.id FROM a, b, c, d, e [windowsize=3 sampleinterval=100] \
                  WHERE a.pos_x < 500 AND b.pos_x >= 500 AND b.pos_x < 1000 \
                  AND c.pos_x >= 1000 AND c.pos_x < 1500 \
                  AND d.pos_x >= 1500 AND d.pos_x < 2000 AND e.pos_x >= 2000 \
                  AND a.u = b.u AND b.u = c.u AND c.v = d.v AND d.u = e.u",
            sigmas: vec![SIGMA_LO, SIGMA_HI, SIGMA_HI, SIGMA_LO],
        },
    ]
}

/// Everything one optimizer comparison needs.
#[derive(Debug, Clone)]
pub struct OptimizeConfig {
    pub nodes: usize,
    pub density: DensityClass,
    pub rates: Rates,
    pub seeds: Vec<u64>,
    /// OS threads; 0 = all cores. Output is identical for any value.
    pub threads: usize,
}

impl Default for OptimizeConfig {
    /// The full comparison: 100-node moderate networks, 8 seeds.
    fn default() -> Self {
        OptimizeConfig {
            nodes: 100,
            density: DensityClass::Moderate,
            rates: Rates::new(2, 2, 5),
            seeds: seed_range(8),
            threads: 0,
        }
    }
}

impl OptimizeConfig {
    /// The CI smoke configuration: 60 nodes, 4 seeds.
    pub fn quick() -> Self {
        OptimizeConfig {
            nodes: 60,
            seeds: seed_range(4),
            ..OptimizeConfig::default()
        }
    }

    fn run_one(&self, w: &OptWorkload, seed: u64) -> PlanSample {
        let graph = w.graph();
        let topo = TopologySpec::new(self.density, self.nodes, seed).build();
        let data = WorkloadData::new(&topo, Schedule::Uniform(self.rates), seed);
        let space = PlanSpace::build(&topo, &data, &graph);
        let dp = optimize(&graph, &w.sigmas, &space);
        let ld = left_deep(&graph, &w.sigmas, &space);
        let gr = greedy(&graph, &w.sigmas, &space);
        PlanSample {
            dp_cost: dp.cost,
            left_deep_cost: ld.cost,
            greedy_cost: gr.cost,
            dp_bushy: is_bushy(&dp.tree),
            dp_shape: dp.shape(&graph),
        }
    }

    /// Fan every (workload, seed) cell across OS threads and aggregate.
    pub fn run(&self) -> OptimizeReport {
        let ws = workloads();
        let rows = fan_out(&ws, &self.seeds, self.threads, |w, s| self.run_one(w, s));
        let cells = ws
            .iter()
            .zip(rows)
            .map(|(w, rows)| WorkloadResult::aggregate(w, &rows))
            .collect();
        OptimizeReport {
            nodes: self.nodes,
            seeds: self.seeds.clone(),
            cells,
        }
    }
}

/// One (workload, seed) optimizer run: the three planners' model costs
/// and the DP plan's shape.
#[derive(Debug, Clone)]
struct PlanSample {
    dp_cost: f64,
    left_deep_cost: f64,
    greedy_cost: f64,
    dp_bushy: bool,
    dp_shape: String,
}

/// Does any join in the tree take two join inputs? (A linear — left- or
/// right-deep — plan joins a singleton at every step, so never.)
fn is_bushy(node: &PlanNode) -> bool {
    match node {
        PlanNode::Leaf { .. } => false,
        PlanNode::Join { left, right, .. } => {
            (matches!(**left, PlanNode::Join { .. }) && matches!(**right, PlanNode::Join { .. }))
                || is_bushy(left)
                || is_bushy(right)
        }
    }
}

/// One workload's seed-aggregated comparison.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub relations: usize,
    pub edges: usize,
    /// Seeds where the bushy DP plan cost strictly beat left-deep.
    pub dp_strict_wins: usize,
    /// Seeds where the DP plan is genuinely bushy (both join inputs are
    /// themselves joins).
    pub bushy_plans: usize,
    /// The DP plan shape on the first seed (a stable exemplar).
    pub dp_shape: String,
    stats: Stats,
}

impl WorkloadResult {
    fn aggregate(w: &OptWorkload, rows: &[PlanSample]) -> WorkloadResult {
        let g = w.graph();
        WorkloadResult {
            name: w.name,
            relations: g.n_relations(),
            edges: g.edges.len(),
            dp_strict_wins: rows
                .iter()
                .filter(|r| r.dp_cost < r.left_deep_cost - 1e-9)
                .count(),
            bushy_plans: rows.iter().filter(|r| r.dp_bushy).count(),
            dp_shape: rows.first().map(|r| r.dp_shape.clone()).unwrap_or_default(),
            stats: Stats::of(rows.iter(), &METRICS),
        }
    }

    pub fn stat(&self, name: &str) -> &SummaryStat {
        self.stats.stat(name)
    }

    /// Mean percentage saved by the DP plan vs a baseline metric
    /// (positive = DP cheaper).
    pub fn savings_vs(&self, baseline: &str) -> f64 {
        let b = self.stat(baseline).mean;
        let d = self.stat("dp_cost").mean;
        if b > 0.0 {
            100.0 * (b - d) / b
        } else {
            0.0
        }
    }
}

/// The aggregated outcome of an optimizer comparison, with the table /
/// JSON / CSV emitters.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    pub nodes: usize,
    pub seeds: Vec<u64>,
    pub cells: Vec<WorkloadResult>,
}

impl OptimizeReport {
    pub fn workload(&self, name: &str) -> &WorkloadResult {
        self.cells
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("unknown workload {name}"))
    }

    /// One row per workload: mean plan costs and DP savings.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "workload",
            "rels",
            "edges",
            "dp_cost",
            "left_deep",
            "greedy",
            "vs_ld",
            "vs_greedy",
            "dp_wins",
            "bushy",
            "dp_plan (first seed)",
        ]);
        for c in &self.cells {
            t.push_row(vec![
                c.name.to_string(),
                c.relations.to_string(),
                c.edges.to_string(),
                format!(
                    "{:.3}±{:.3}",
                    c.stat("dp_cost").mean,
                    c.stat("dp_cost").ci95
                ),
                format!("{:.3}", c.stat("left_deep_cost").mean),
                format!("{:.3}", c.stat("greedy_cost").mean),
                format!("{:+.1}%", c.savings_vs("left_deep_cost")),
                format!("{:+.1}%", c.savings_vs("greedy_cost")),
                format!("{}/{}", c.dp_strict_wins, self.seeds.len()),
                format!("{}/{}", c.bushy_plans, self.seeds.len()),
                c.dp_shape.clone(),
            ]);
        }
        t
    }

    /// The headline comparison across all workloads.
    pub fn headline(&self) -> String {
        let mean = |f: &dyn Fn(&WorkloadResult) -> f64| {
            self.cells.iter().map(f).sum::<f64>() / self.cells.len().max(1) as f64
        };
        format!(
            "bushy DP vs left-deep {:+.1}%, vs pairwise-greedy {:+.1}% \
             (mean model-cost savings over {} workloads x {} seeds)",
            mean(&|c| c.savings_vs("left_deep_cost")),
            mean(&|c| c.savings_vs("greedy_cost")),
            self.cells.len(),
            self.seeds.len(),
        )
    }

    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("workload".into(), Json::str(c.name)),
                    ("relations".into(), Json::num(c.relations as f64)),
                    ("edges".into(), Json::num(c.edges as f64)),
                    ("metrics".into(), Json::Obj(c.stats.json_fields())),
                    ("dp_strict_wins".into(), Json::num(c.dp_strict_wins as f64)),
                    ("bushy_plans".into(), Json::num(c.bushy_plans as f64)),
                    ("dp_shape".into(), Json::str(&c.dp_shape)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("nodes".into(), Json::num(self.nodes as f64)),
            (
                "seeds".into(),
                Json::Arr(self.seeds.iter().map(|&s| Json::num(s as f64)).collect()),
            ),
            ("cells".into(), Json::Arr(cells)),
        ])
        .render()
    }

    /// Wide CSV: one row per workload.
    pub fn to_csv(&self) -> String {
        let mut headers = vec![
            "workload".to_string(),
            "relations".to_string(),
            "edges".to_string(),
            "seeds".to_string(),
        ];
        headers.extend(csv_header(METRICS.map(|m| m.0)));
        headers.push("dp_strict_wins".to_string());
        headers.push("bushy_plans".to_string());
        let mut t = Table::new(headers);
        for c in &self.cells {
            let mut row = vec![
                c.name.to_string(),
                c.relations.to_string(),
                c.edges.to_string(),
                self.seeds.len().to_string(),
            ];
            row.extend(c.stats.csv_cells());
            row.push(c.dp_strict_wins.to_string());
            row.push(c.bushy_plans.to_string());
            t.push_row(row);
        }
        t.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_compares_planners_and_emits_all_formats() {
        let rep = OptimizeConfig::quick().run();
        assert_eq!(rep.cells.len(), workloads().len());
        for c in &rep.cells {
            // The DP searches a superset of the left-deep space, which
            // searches a superset of nothing greedy guarantees — but DP
            // must never lose to either.
            assert!(
                c.stat("dp_cost").mean <= c.stat("left_deep_cost").mean + 1e-9,
                "{}: DP mean cost above left-deep",
                c.name
            );
            assert!(
                c.stat("dp_cost").mean <= c.stat("greedy_cost").mean + 1e-9,
                "{}: DP mean cost above greedy",
                c.name
            );
            assert!(c.stat("dp_cost").mean > 0.0, "{}: degenerate cost", c.name);
        }
        let table = rep.to_table().to_aligned_string();
        assert!(table.contains("chain4") && table.contains("dp_wins"));
        let json = rep.to_json();
        assert!(json.contains("\"workload\": \"cycle4\""));
        let csv = rep.to_csv();
        assert_eq!(csv.lines().count(), 1 + workloads().len());
    }

    /// The PR's acceptance regression: on the quick configuration the
    /// bushy DP strictly beats the best left-deep plan on at least one
    /// 4-way workload (both per-seed and in the aggregate mean).
    #[test]
    fn dp_beats_left_deep_on_a_four_way_workload() {
        let rep = OptimizeConfig::quick().run();
        let four_way: Vec<&WorkloadResult> =
            rep.cells.iter().filter(|c| c.relations == 4).collect();
        assert!(!four_way.is_empty());
        assert!(
            four_way.iter().any(|c| c.dp_strict_wins > 0
                && c.stat("dp_cost").mean < c.stat("left_deep_cost").mean - 1e-9),
            "no 4-way workload where bushy DP strictly beats left-deep: {:?}",
            four_way
                .iter()
                .map(|c| (c.name, c.dp_strict_wins))
                .collect::<Vec<_>>()
        );
    }
}
