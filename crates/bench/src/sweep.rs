//! The declarative scenario-sweep grid: the cross product of
//! {topology size, density class, loss probability, workload query,
//! selectivity rates, algorithm} with per-cell seed replicates.
//!
//! A grid expands to cells in a fixed nested order, every (cell, seed) run
//! is an independent deterministic simulation, and the runs fan out across
//! OS threads through [`crate::fan_out`] — so a report is
//! byte-identical for any thread count. Aggregation (mean / stddev / 95% CI
//! over seeds) and the JSON/CSV/table emitters live here; the figure
//! drivers in the `experiments` binary are thin formatters over a
//! [`SweepReport`].

use crate::{csv_header, fan_out, Stats};
use aspen_join::prelude::*;
use aspen_join::{Algorithm, InnetOptions};
use sensor_net::{DensityClass, NodeId, Topology, TopologySpec};
use sensor_query::JoinQuerySpec;
use sensor_sim::sweep::{Json, SummaryStat, Table};
use sensor_workload::{query0, query1, query2, query3, WorkloadData};

/// The named workload queries of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryId {
    Q0,
    Q1,
    Q2,
    Q3,
}

impl QueryId {
    pub const ALL: [QueryId; 4] = [QueryId::Q0, QueryId::Q1, QueryId::Q2, QueryId::Q3];

    pub fn name(self) -> &'static str {
        match self {
            QueryId::Q0 => "q0",
            QueryId::Q1 => "q1",
            QueryId::Q2 => "q2",
            QueryId::Q3 => "q3",
        }
    }

    pub fn parse(s: &str) -> Option<QueryId> {
        QueryId::ALL
            .into_iter()
            .find(|q| q.name() == s.to_ascii_lowercase())
    }

    /// The window size each figure uses for this query.
    pub fn window(self) -> usize {
        match self {
            QueryId::Q2 => 1,
            _ => 3,
        }
    }

    /// Query 0 joins explicitly paired nodes; the figures instantiate 10
    /// random pairs.
    pub fn n_pairs(self) -> usize {
        match self {
            QueryId::Q0 => 10,
            _ => 0,
        }
    }

    pub fn spec(self) -> JoinQuerySpec {
        match self {
            QueryId::Q0 => query0(self.window()),
            QueryId::Q1 => query1(self.window()),
            QueryId::Q2 => query2(self.window()),
            QueryId::Q3 => query3(self.window()),
        }
    }
}

/// A multi-query workload for the `queries` grid dimension: `n` concurrent
/// queries over one network, uniform (`q1x4`) or mixed Q1/Q2 alternation
/// (`mix4`), with optional staggered arrival (`@S`: query `i` arrives at
/// sampling cycle `i*S`) and delivery sharing (`+shared`; independent
/// per-query frames otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiSpec {
    /// `Some(q)` = `n` copies of one query; `None` = mixed Q1/Q2.
    pub base: Option<QueryId>,
    pub n: usize,
    pub stagger: u32,
    pub sharing: Sharing,
}

impl MultiSpec {
    /// Machine-readable slug: `q1x4`, `mix4@5`, `mix4@5+shared`, ….
    pub fn name(self) -> String {
        let head = match self.base {
            Some(q) => format!("{}x{}", q.name(), self.n),
            None => format!("mix{}", self.n),
        };
        let at = if self.stagger > 0 {
            format!("@{}", self.stagger)
        } else {
            String::new()
        };
        let mode = match self.sharing {
            Sharing::SharedTree => "+shared",
            Sharing::Independent => "",
        };
        format!("{head}{at}{mode}")
    }

    /// Parse the [`MultiSpec::name`] syntax (also accepts `+indep`).
    pub fn parse(s: &str) -> Option<MultiSpec> {
        let s = s.to_ascii_lowercase();
        let (body, sharing) = match s.split_once('+') {
            Some((b, m)) => (b, Sharing::parse(m)?),
            None => (s.as_str(), Sharing::Independent),
        };
        let (head, stagger) = match body.split_once('@') {
            Some((h, at)) => (h, at.parse().ok()?),
            None => (body, 0),
        };
        let (base, n) = if let Some(n) = head.strip_prefix("mix") {
            (None, n.parse().ok()?)
        } else {
            let (q, n) = head.split_once('x')?;
            (Some(QueryId::parse(q)?), n.parse().ok()?)
        };
        (n >= 2).then_some(MultiSpec {
            base,
            n,
            stagger,
            sharing,
        })
    }

    /// The query run by member `i` of the set.
    pub fn member(self, i: usize) -> QueryId {
        self.base.unwrap_or(if i.is_multiple_of(2) {
            QueryId::Q1
        } else {
            QueryId::Q2
        })
    }

    /// The session this spec describes over a prepared topology/workload:
    /// one query per member with staggered arrivals, pair-bearing members
    /// provisioning their own pair count, and fair MAC arbitration
    /// switched on (concurrent queries must not starve each other of
    /// transmission slots). Shared by the sweep grid's multi-query cells
    /// and the `multiq` comparison harness.
    pub fn build_set(
        self,
        topo: Topology,
        mut data: WorkloadData,
        cfg: AlgoConfig,
        sim: SimConfig,
        num_trees: usize,
    ) -> SessionBuilder {
        let n_pairs = (0..self.n)
            .map(|i| self.member(i).n_pairs())
            .max()
            .unwrap_or(0);
        if n_pairs > 0 {
            data = data.with_pairs(n_pairs);
        }
        let mut b = Session::builder(topo, data)
            .sim(sim.with_fair_mac(true))
            .trees(num_trees)
            .sharing(self.sharing);
        for i in 0..self.n {
            b = b.query_arriving(i as u32 * self.stagger, self.member(i).spec(), cfg);
        }
        b
    }
}

/// One value of the sweep grid's `queries` dimension: a classic
/// single-query workload or a concurrent multi-query set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSel {
    Single(QueryId),
    Multi(MultiSpec),
}

impl From<QueryId> for WorkloadSel {
    fn from(q: QueryId) -> Self {
        WorkloadSel::Single(q)
    }
}

impl WorkloadSel {
    pub fn name(self) -> String {
        match self {
            WorkloadSel::Single(q) => q.name().to_string(),
            WorkloadSel::Multi(m) => m.name(),
        }
    }

    /// Parse either syntax (`q2`, `q1x4`, `mix4@5+shared`).
    pub fn parse(s: &str) -> Option<WorkloadSel> {
        QueryId::parse(s)
            .map(WorkloadSel::Single)
            .or_else(|| MultiSpec::parse(s).map(WorkloadSel::Multi))
    }

    /// The single query, if this is a classic workload.
    pub fn single(self) -> Option<QueryId> {
        match self {
            WorkloadSel::Single(q) => Some(q),
            WorkloadSel::Multi(_) => None,
        }
    }
}

/// Short machine-readable slug for a density class (CSV/JSON keys).
pub fn density_slug(c: DensityClass) -> &'static str {
    match c {
        DensityClass::Sparse => "sparse",
        DensityClass::Moderate => "moderate",
        DensityClass::Medium => "medium",
        DensityClass::Dense => "dense",
        DensityClass::Grid => "grid",
    }
}

pub fn parse_density(s: &str) -> Option<DensityClass> {
    DensityClass::ALL
        .into_iter()
        .find(|&c| density_slug(c) == s.to_ascii_lowercase())
}

// The algorithm-slug grammar moved into the core crate so the serve wire
// protocol shares it; re-exported here for the sweep CLIs and drivers.
pub use aspen_join::shared::{algo_name, parse_algo};

/// Base of the replicate-seed range. Every figure driver and sweep grid
/// derives its seeds from here so cells stay comparable across figures
/// (same seed ⇒ same topology + workload trace).
pub const SEED_BASE: u64 = 1000;

/// The first `n` replicate seeds.
pub fn seed_range(n: u64) -> Vec<u64> {
    (0..n).map(|s| SEED_BASE + s).collect()
}

/// A named network-dynamics scenario: what changes mid-run, and when.
/// One value per sweep cell (the `dynamics` grid dimension); expands to a
/// [`DynamicsPlan`] plus (for rate shifts) a non-uniform workload
/// [`Schedule`] at run time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynamicsSpec {
    /// Static network — the pre-dynamics sweep behaviour.
    None,
    /// Kill `count` uniform-random non-base nodes at `at_cycle`.
    RandomKill { count: usize, at_cycle: u32 },
    /// Kill the busiest join node at `at_cycle` (§7 / Fig 14's victim).
    JoinKill { at_cycle: u32 },
    /// Region outage: kill every node within `radius` radio ranges of a
    /// seed-chosen center at `at_cycle` (spatially-correlated failure).
    RegionKill { radius: f64, at_cycle: u32 },
    /// Swap σs and σt at `at_cycle` — the §6 selectivity-drift trigger.
    RateShift { at_cycle: u32 },
    /// Step the link-loss probability to `loss` at `at_cycle`.
    LossRamp { loss: f64, at_cycle: u32 },
    /// Re-home a uniform-random mobile leaf at `at_cycle` (App. G
    /// mobility; victim and destination drawn from the run seed).
    LeafMove { at_cycle: u32 },
}

impl DynamicsSpec {
    /// Machine-readable slug, e.g. `rand3@20`, `join@20`, `region1.5@20`,
    /// `rateshift@20`, `loss0.2@20`, `move@20`, `none`.
    pub fn name(self) -> String {
        match self {
            DynamicsSpec::None => "none".to_string(),
            DynamicsSpec::RandomKill { count, at_cycle } => format!("rand{count}@{at_cycle}"),
            DynamicsSpec::JoinKill { at_cycle } => format!("join@{at_cycle}"),
            DynamicsSpec::RegionKill { radius, at_cycle } => format!("region{radius}@{at_cycle}"),
            DynamicsSpec::RateShift { at_cycle } => format!("rateshift@{at_cycle}"),
            DynamicsSpec::LossRamp { loss, at_cycle } => format!("loss{loss}@{at_cycle}"),
            DynamicsSpec::LeafMove { at_cycle } => format!("move@{at_cycle}"),
        }
    }

    /// Parse the [`DynamicsSpec::name`] syntax.
    pub fn parse(s: &str) -> Option<DynamicsSpec> {
        let s = s.to_ascii_lowercase();
        if s == "none" {
            return Some(DynamicsSpec::None);
        }
        let (kind, at) = s.split_once('@')?;
        let at_cycle: u32 = at.parse().ok()?;
        if kind == "join" {
            Some(DynamicsSpec::JoinKill { at_cycle })
        } else if kind == "rateshift" {
            Some(DynamicsSpec::RateShift { at_cycle })
        } else if kind == "move" {
            Some(DynamicsSpec::LeafMove { at_cycle })
        } else if let Some(n) = kind.strip_prefix("rand") {
            Some(DynamicsSpec::RandomKill {
                count: n.parse().ok()?,
                at_cycle,
            })
        } else if let Some(r) = kind.strip_prefix("region") {
            let radius: f64 = r.parse().ok()?;
            (radius > 0.0).then_some(DynamicsSpec::RegionKill { radius, at_cycle })
        } else if let Some(p) = kind.strip_prefix("loss") {
            let loss: f64 = p.parse().ok()?;
            (0.0..1.0)
                .contains(&loss)
                .then_some(DynamicsSpec::LossRamp { loss, at_cycle })
        } else {
            None
        }
    }

    /// The engine-level plan for one run of this scenario.
    pub fn plan(self, seed: u64, topo: &Topology) -> DynamicsPlan {
        // Decorrelate victim draws from the link/workload RNG streams.
        let base = DynamicsPlan::none().with_seed(seed ^ 0xD15E_A5E5_0BAD);
        match self {
            DynamicsSpec::None => base,
            DynamicsSpec::RandomKill { count, at_cycle } => base.kill_random(at_cycle, count),
            DynamicsSpec::JoinKill { at_cycle } => base.kill_picked(at_cycle),
            DynamicsSpec::RegionKill { radius, at_cycle } => {
                // Seed-chosen non-base outage center.
                let n = topo.len() as u64;
                let mut idx = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % n;
                if NodeId(idx as u16) == topo.base() {
                    idx = (idx + 1) % n;
                }
                base.kill_region(at_cycle, NodeId(idx as u16), radius * topo.radio_range())
            }
            // The shift itself lives in the workload schedule; the plan
            // only carries the mark for recovery accounting.
            DynamicsSpec::RateShift { at_cycle } => base.mark(at_cycle),
            DynamicsSpec::LossRamp { loss, at_cycle } => base.shift_loss(at_cycle, loss),
            DynamicsSpec::LeafMove { at_cycle } => base.move_random(at_cycle),
        }
    }

    /// The workload schedule for this scenario (rate shifts swap the
    /// producer-side selectivities mid-run; everything else is uniform).
    pub fn schedule(self, rates: Rates) -> Schedule {
        match self {
            DynamicsSpec::RateShift { at_cycle } => Schedule::TemporalSwitch {
                before: rates,
                after: Rates::new(rates.t_den, rates.s_den, rates.st_den),
                at_cycle,
            },
            _ => Schedule::Uniform(rates),
        }
    }
}

/// The metrics aggregated per cell, in report column order. The last eight
/// are the recovery metrics of the dynamics subsystem: repair
/// attempts/successes, tuples lost in transit (protocol drops plus
/// messages discarded in dead nodes' queues), tuples salvaged via
/// tree-up diversion, recovery control payload bytes, post-event cost
/// re-convergence cycles paired with `reconv_observed` (1 if the run
/// re-converged, 0 for static runs *and* runs that never settled —
/// `reconv_cycles` is 0 in both of those cases, so the observed flag is
/// what disambiguates them; mean cycles over converged runs =
/// `reconv_cycles_mean / reconv_observed_mean`), and join results
/// delivered at or after the first scheduled event.
pub const SWEEP_METRICS: [&str; 17] = [
    "total_traffic_bytes",
    "base_load_bytes",
    "max_node_load_bytes",
    "total_traffic_msgs",
    "base_load_msgs",
    "results",
    "avg_delay_cycles",
    "send_failures",
    "queue_drops",
    "repair_attempts",
    "repair_successes",
    "tuples_lost",
    "tuples_rerouted",
    "recovery_bytes",
    "reconv_cycles",
    "reconv_observed",
    "results_post_event",
];

/// One grid point: everything that identifies a simulation configuration
/// except the seed (seeds are the replicates aggregated *within* a cell).
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    pub nodes: usize,
    pub density: DensityClass,
    pub loss: f64,
    pub query: WorkloadSel,
    pub rates: Rates,
    pub algo: Algorithm,
    pub opts: InnetOptions,
    pub dynamics: DynamicsSpec,
}

impl CellSpec {
    pub fn algo_name(&self) -> String {
        algo_name(self.algo, self.opts)
    }

    pub fn dynamics_name(&self) -> String {
        self.dynamics.name()
    }

    fn algo_cfg(&self) -> AlgoConfig {
        AlgoConfig::new(self.algo, Sigma::from_rates(self.rates)).with_innet_options(self.opts)
    }

    /// Run this cell for one seed and return the metric values in
    /// [`SWEEP_METRICS`] order. Seed covers topology, workload, link RNG
    /// and dynamics-plan victim draws, exactly as the figure harness seeds
    /// its scenarios.
    pub fn run_one(&self, seed: u64, cycles: u32, num_trees: usize) -> [f64; 17] {
        match self.query {
            WorkloadSel::Single(q) => self.run_single(q, seed, cycles, num_trees),
            WorkloadSel::Multi(m) => self.run_multi(m, seed, cycles, num_trees),
        }
    }

    /// The single-query path runs on the session's `bare_wire` mode — the
    /// paper's untagged frame format.
    fn run_single(&self, query: QueryId, seed: u64, cycles: u32, num_trees: usize) -> [f64; 17] {
        let topo = TopologySpec::new(self.density, self.nodes, seed).build();
        let plan = self.dynamics.plan(seed, &topo);
        let mut data = WorkloadData::new(&topo, self.dynamics.schedule(self.rates), seed);
        if query.n_pairs() > 0 {
            data = data.with_pairs(query.n_pairs());
        }
        let sim = SimConfig::default().with_loss(self.loss).with_seed(seed);
        let mut session = Session::builder(topo, data)
            .sim(sim)
            .trees(num_trees)
            .query(query.spec(), self.algo_cfg())
            .bare_wire()
            .build();
        session.set_plan(plan);
        session.step(cycles);
        let out = session.report();
        let mut row = metric_row(&out);
        row[14] = out.reconvergence_cycles.map(f64::from).unwrap_or(0.0);
        row[15] = out.reconvergence_cycles.is_some() as u8 as f64;
        row[16] = out.results_post_event as f64;
        row
    }

    /// The concurrent-workload path: one tagged session per run, fair MAC
    /// arbitration on, lifecycle from the spec's arrival stagger. The
    /// single-run re-convergence split does not generalize to overlapping
    /// per-query lifecycles, so the last three [`SWEEP_METRICS`] report
    /// zero for multi-query cells.
    fn run_multi(&self, m: MultiSpec, seed: u64, cycles: u32, num_trees: usize) -> [f64; 17] {
        let topo = TopologySpec::new(self.density, self.nodes, seed).build();
        let plan = self.dynamics.plan(seed, &topo);
        let data = WorkloadData::new(&topo, self.dynamics.schedule(self.rates), seed);
        let sim = SimConfig::default().with_loss(self.loss).with_seed(seed);
        let mut session = m
            .build_set(topo, data, self.algo_cfg(), sim, num_trees)
            .build();
        session.set_plan(plan);
        session.step(cycles);
        metric_row(&session.report())
    }
}

/// The shared [`SWEEP_METRICS`] row of one run's [`Outcome`]; the last
/// three (re-convergence/post-event) entries stay zero unless the caller
/// fills them (single-query cells only).
fn metric_row(out: &Outcome) -> [f64; 17] {
    [
        out.total_traffic_bytes() as f64,
        out.base_load_bytes() as f64,
        out.max_node_load_bytes() as f64,
        out.total_traffic_msgs() as f64,
        out.base_load_msgs() as f64,
        out.results_total() as f64,
        out.avg_delay_tx(),
        out.send_failures() as f64,
        out.queue_drops() as f64,
        out.recovery.repair_attempts as f64,
        out.recovery.repair_successes as f64,
        (out.recovery.tuples_lost + out.queued_msgs_lost) as f64,
        out.recovery.tuples_rerouted as f64,
        out.recovery.control_bytes as f64,
        0.0,
        0.0,
        0.0,
    ]
}

/// A declarative sweep: the grid dimensions plus run parameters.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    pub sizes: Vec<usize>,
    pub densities: Vec<DensityClass>,
    pub loss_probs: Vec<f64>,
    /// The `queries` dimension: classic single-query workloads (`q1`) and
    /// concurrent multi-query sets (`q1x4`, `mix4@5+shared`) mix freely.
    pub queries: Vec<WorkloadSel>,
    pub rates: Vec<Rates>,
    pub algorithms: Vec<(Algorithm, InnetOptions)>,
    /// Network-dynamics scenarios (failure schedules, rate shifts, loss
    /// ramps); `DynamicsSpec::None` is the static network.
    pub dynamics: Vec<DynamicsSpec>,
    /// Replicate seeds; each cell runs once per seed.
    pub seeds: Vec<u64>,
    /// Execution sampling cycles per run.
    pub cycles: u32,
    pub num_trees: usize,
    /// OS threads to fan runs across; 0 = all available cores. The report
    /// is identical for any value (determinism contract).
    pub threads: usize,
}

impl Default for SweepGrid {
    /// The standard evaluation setting: 100-node moderate random topology,
    /// default link loss, Query 1, the headline algorithms, 3 seeds.
    fn default() -> Self {
        SweepGrid {
            sizes: vec![100],
            densities: vec![DensityClass::Moderate],
            loss_probs: vec![SimConfig::default().loss_prob],
            queries: vec![QueryId::Q1.into()],
            rates: vec![Rates::new(2, 2, 5)],
            algorithms: vec![
                (Algorithm::Naive, InnetOptions::PLAIN),
                (Algorithm::Base, InnetOptions::PLAIN),
                (Algorithm::Ght, InnetOptions::PLAIN),
                (Algorithm::Innet, InnetOptions::CMG),
            ],
            dynamics: vec![DynamicsSpec::None],
            seeds: seed_range(3),
            cycles: 60,
            num_trees: 3,
            threads: 0,
        }
    }
}

impl SweepGrid {
    /// The CI smoke grid: 2 sizes x 3 loss rates x 2 algorithms x 2 seeds
    /// (24 grid points, 12 aggregate cells) over heterogeneous loss regimes.
    pub fn quick() -> Self {
        SweepGrid {
            sizes: vec![60, 100],
            loss_probs: vec![0.0, 0.05, 0.15],
            algorithms: vec![
                (Algorithm::Naive, InnetOptions::PLAIN),
                (Algorithm::Innet, InnetOptions::CMG),
            ],
            seeds: seed_range(2),
            cycles: 30,
            ..SweepGrid::default()
        }
    }

    /// The §7-style recovery grid (`experiments recovery --quick`): the
    /// explicitly-paired Query 0 on a 60-node network under a static
    /// baseline plus three failure schedules firing mid-run, for plain
    /// Innet and the learning MPO variant.
    pub fn recovery_quick() -> Self {
        SweepGrid {
            sizes: vec![60],
            queries: vec![QueryId::Q0.into()],
            algorithms: vec![
                (Algorithm::Innet, InnetOptions::PLAIN),
                (Algorithm::Innet, InnetOptions::CMG.with_learning()),
            ],
            dynamics: vec![
                DynamicsSpec::None,
                DynamicsSpec::RandomKill {
                    count: 3,
                    at_cycle: 20,
                },
                DynamicsSpec::JoinKill { at_cycle: 20 },
                DynamicsSpec::RegionKill {
                    radius: 1.5,
                    at_cycle: 20,
                },
            ],
            seeds: seed_range(2),
            cycles: 40,
            ..SweepGrid::default()
        }
    }

    /// Expand the grid to cells in the canonical nested order
    /// (query, size, density, loss, rates, algorithm, dynamics).
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::new();
        for &query in &self.queries {
            for &nodes in &self.sizes {
                for &density in &self.densities {
                    for &loss in &self.loss_probs {
                        for &rates in &self.rates {
                            for &(algo, opts) in &self.algorithms {
                                for &dynamics in &self.dynamics {
                                    out.push(CellSpec {
                                        nodes,
                                        density,
                                        loss,
                                        query,
                                        rates,
                                        algo,
                                        opts,
                                        dynamics,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Fan every (cell, seed) run out across OS threads, then aggregate
    /// seed replicates per cell.
    pub fn run(&self) -> SweepReport {
        let cells = self.cells();
        let rows = fan_out(&cells, &self.seeds, self.threads, |cell, seed| {
            cell.run_one(seed, self.cycles, self.num_trees)
        });
        let results = cells
            .into_iter()
            .zip(rows)
            .map(|(spec, rows)| CellResult {
                spec,
                runs: rows.len(),
                stats: Stats(
                    SWEEP_METRICS
                        .iter()
                        .enumerate()
                        .map(|(mi, &name)| {
                            let xs: Vec<f64> = rows.iter().map(|r| r[mi]).collect();
                            (name, SummaryStat::from_samples(&xs))
                        })
                        .collect(),
                ),
            })
            .collect();
        SweepReport {
            cells: results,
            seeds: self.seeds.clone(),
            cycles: self.cycles,
        }
    }
}

/// Aggregated replicates of one grid cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub spec: CellSpec,
    pub runs: usize,
    stats: Stats,
}

impl CellResult {
    pub fn stat(&self, name: &str) -> &SummaryStat {
        self.stats.stat(name)
    }
}

/// The aggregated outcome of a sweep, with the three emitters the ISSUE's
/// acceptance criteria name: aligned text table, CSV, JSON.
#[derive(Debug, Clone)]
pub struct SweepReport {
    pub cells: Vec<CellResult>,
    pub seeds: Vec<u64>,
    pub cycles: u32,
}

impl SweepReport {
    /// First cell matching a predicate over its spec (figure formatters).
    pub fn find(&self, pred: impl Fn(&CellSpec) -> bool) -> Option<&CellResult> {
        self.cells.iter().find(|c| pred(&c.spec))
    }

    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "query",
            "nodes",
            "density",
            "loss",
            "rates",
            "algorithm",
            "dynamics",
            "runs",
            "traffic_kb",
            "base_kb",
            "maxload_kb",
            "results",
            "delay_cyc",
        ]);
        let kb = |s: &SummaryStat| format!("{:.1}±{:.1}", s.mean / 1024.0, s.ci95 / 1024.0);
        for c in &self.cells {
            t.push_row(vec![
                c.spec.query.name(),
                c.spec.nodes.to_string(),
                density_slug(c.spec.density).to_string(),
                format!("{:.2}", c.spec.loss),
                c.spec.rates.ratio_label(),
                c.spec.algo_name(),
                c.spec.dynamics_name(),
                c.runs.to_string(),
                kb(c.stat("total_traffic_bytes")),
                kb(c.stat("base_load_bytes")),
                kb(c.stat("max_node_load_bytes")),
                format!(
                    "{:.0}±{:.0}",
                    c.stat("results").mean,
                    c.stat("results").ci95
                ),
                format!(
                    "{:.1}±{:.1}",
                    c.stat("avg_delay_cycles").mean,
                    c.stat("avg_delay_cycles").ci95
                ),
            ]);
        }
        t
    }

    /// The recovery view (`experiments recovery`): per dynamics scenario,
    /// result completeness around the event and the §7 reaction metrics —
    /// repair success rate, tuples lost in transit, recovery control
    /// overhead, and post-event cost re-convergence.
    pub fn to_recovery_table(&self) -> Table {
        let mut t = Table::new(vec![
            "dynamics",
            "algorithm",
            "nodes",
            "loss",
            "runs",
            "results",
            "post_event",
            "repairs",
            "repair_ok",
            "lost",
            "rerouted",
            "recov_b",
            "reconv_cyc",
        ]);
        for c in &self.cells {
            let att = c.stat("repair_attempts").mean;
            let ok = c.stat("repair_successes").mean;
            let rate = if att > 0.0 {
                format!("{:.0}%", 100.0 * ok / att)
            } else {
                "-".to_string() // no repairs attempted: rate is undefined
            };
            // Mean re-convergence over the runs that actually settled;
            // "-" when none did (or the cell is static) — a bare 0 would
            // make never-converging cells look instantly settled.
            let observed = c.stat("reconv_observed").mean;
            let reconv = if observed > 0.0 {
                format!("{:.1}", c.stat("reconv_cycles").mean / observed)
            } else {
                "-".to_string()
            };
            t.push_row(vec![
                c.spec.dynamics_name(),
                c.spec.algo_name(),
                c.spec.nodes.to_string(),
                format!("{:.2}", c.spec.loss),
                c.runs.to_string(),
                format!(
                    "{:.0}±{:.0}",
                    c.stat("results").mean,
                    c.stat("results").ci95
                ),
                format!("{:.0}", c.stat("results_post_event").mean),
                format!("{att:.1}"),
                rate,
                format!("{:.1}", c.stat("tuples_lost").mean),
                format!("{:.1}", c.stat("tuples_rerouted").mean),
                format!("{:.0}", c.stat("recovery_bytes").mean),
                reconv,
            ]);
        }
        t
    }

    /// Wide-format CSV: one row per cell, (mean, stddev, ci95) per metric.
    pub fn to_csv(&self) -> String {
        let mut headers = vec![
            "query".to_string(),
            "nodes".to_string(),
            "density".to_string(),
            "loss".to_string(),
            "rates".to_string(),
            "algorithm".to_string(),
            "dynamics".to_string(),
            "runs".to_string(),
        ];
        headers.extend(csv_header(SWEEP_METRICS));
        let mut t = Table::new(headers);
        for c in &self.cells {
            let mut row = vec![
                c.spec.query.name(),
                c.spec.nodes.to_string(),
                density_slug(c.spec.density).to_string(),
                format!("{}", c.spec.loss),
                c.spec.rates.ratio_label(),
                c.spec.algo_name(),
                c.spec.dynamics_name(),
                c.runs.to_string(),
            ];
            row.extend(c.stats.csv_cells());
            t.push_row(row);
        }
        t.to_csv()
    }

    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("query".into(), Json::str(c.spec.query.name())),
                    ("nodes".into(), Json::num(c.spec.nodes as f64)),
                    ("density".into(), Json::str(density_slug(c.spec.density))),
                    ("loss".into(), Json::num(c.spec.loss)),
                    ("rates".into(), Json::str(c.spec.rates.ratio_label())),
                    ("algorithm".into(), Json::str(c.spec.algo_name())),
                    ("dynamics".into(), Json::str(c.spec.dynamics_name())),
                    ("runs".into(), Json::num(c.runs as f64)),
                    ("metrics".into(), Json::Obj(c.stats.json_fields())),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "seeds".into(),
                Json::Arr(self.seeds.iter().map(|&s| Json::num(s as f64)).collect()),
            ),
            ("cycles".into(), Json::num(self.cycles as f64)),
            ("cells".into(), Json::Arr(cells)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expansion_order_and_count() {
        let g = SweepGrid::quick();
        let cells = g.cells();
        assert_eq!(cells.len(), 2 * 3 * 2); // sizes x loss x algos
                                            // Nested order: size-major over loss, algorithm innermost.
        assert_eq!(cells[0].nodes, 60);
        assert_eq!(cells[0].loss, 0.0);
        assert_eq!(cells[1].algo_name(), "Innet-cmg");
        assert_eq!(cells[6].nodes, 100);
    }

    #[test]
    fn algo_and_query_parsing_round_trip() {
        for (a, o) in [
            (Algorithm::Naive, InnetOptions::PLAIN),
            (Algorithm::Innet, InnetOptions::CMPG),
            (Algorithm::Innet, InnetOptions::CMG.with_learning()),
        ] {
            let (pa, po) = parse_algo(&algo_name(a, o)).unwrap();
            assert_eq!(algo_name(pa, po), algo_name(a, o));
        }
        assert_eq!(parse_algo("ght").unwrap().0, Algorithm::Ght);
        assert!(parse_algo("innet-cmg-learn").unwrap().1.learning);
        assert!(parse_algo("nope").is_none());
        assert_eq!(QueryId::parse("Q2"), Some(QueryId::Q2));
        assert_eq!(parse_density("grid"), Some(DensityClass::Grid));
    }

    #[test]
    fn workload_sel_parsing_round_trip() {
        for s in [
            "q0",
            "q3",
            "q1x4",
            "q2x3@5",
            "mix4",
            "mix6@2",
            "mix4@5+shared",
        ] {
            let sel = WorkloadSel::parse(s).unwrap_or_else(|| panic!("parse {s}"));
            assert_eq!(sel.name(), s, "round trip {s}");
        }
        // `+indep` is accepted but normalizes to the bare slug.
        assert_eq!(WorkloadSel::parse("mix4+indep").unwrap().name(), "mix4");
        match WorkloadSel::parse("q1x4@3+shared").unwrap() {
            WorkloadSel::Multi(m) => {
                assert_eq!(m.base, Some(QueryId::Q1));
                assert_eq!((m.n, m.stagger), (4, 3));
                assert_eq!(m.sharing, Sharing::SharedTree);
                assert_eq!(m.member(0), QueryId::Q1);
                assert_eq!(m.member(3), QueryId::Q1);
            }
            other => panic!("expected multi, got {other:?}"),
        }
        // Mixed sets alternate Q1/Q2.
        let mix = MultiSpec::parse("mix4").unwrap();
        assert_eq!(mix.member(0), QueryId::Q1);
        assert_eq!(mix.member(1), QueryId::Q2);
        // Rejections: single-member sets, unknown queries, bad modes.
        assert_eq!(WorkloadSel::parse("mix1"), None);
        assert_eq!(WorkloadSel::parse("q9x4"), None);
        assert_eq!(WorkloadSel::parse("mix4+bogus"), None);
        assert_eq!(WorkloadSel::parse("nope"), None);
        assert_eq!(
            WorkloadSel::parse("q1").unwrap().single(),
            Some(QueryId::Q1)
        );
        assert_eq!(WorkloadSel::parse("mix4").unwrap().single(), None);
    }

    #[test]
    fn multi_query_cells_run_in_the_grid() {
        let g = SweepGrid {
            sizes: vec![40],
            loss_probs: vec![0.05],
            queries: vec![
                QueryId::Q1.into(),
                WorkloadSel::parse("mix2+shared").unwrap(),
            ],
            algorithms: vec![(Algorithm::Innet, InnetOptions::CM)],
            seeds: seed_range(2),
            cycles: 6,
            ..SweepGrid::default()
        };
        let rep = g.run();
        assert_eq!(rep.cells.len(), 2);
        let multi = rep
            .find(|c| matches!(c.query, WorkloadSel::Multi(_)))
            .expect("multi cell");
        assert!(multi.stat("total_traffic_bytes").mean > 0.0);
        assert!(multi.stat("results").mean > 0.0);
        // Multi cells appear under their slug in every emitter.
        assert!(rep.to_json().contains("\"query\": \"mix2+shared\""));
        assert!(rep.to_csv().contains("mix2+shared"));
        assert!(rep.to_table().to_aligned_string().contains("mix2+shared"));
    }

    #[test]
    fn dynamics_parsing_round_trip() {
        for d in [
            DynamicsSpec::None,
            DynamicsSpec::RandomKill {
                count: 3,
                at_cycle: 20,
            },
            DynamicsSpec::JoinKill { at_cycle: 15 },
            DynamicsSpec::RegionKill {
                radius: 1.5,
                at_cycle: 8,
            },
            DynamicsSpec::RateShift { at_cycle: 30 },
            DynamicsSpec::LossRamp {
                loss: 0.25,
                at_cycle: 10,
            },
            DynamicsSpec::LeafMove { at_cycle: 18 },
        ] {
            assert_eq!(DynamicsSpec::parse(&d.name()), Some(d), "{}", d.name());
        }
        assert_eq!(DynamicsSpec::parse("nope"), None);
        assert_eq!(DynamicsSpec::parse("rand@3"), None);
        assert_eq!(DynamicsSpec::parse("loss1.5@3"), None);
    }

    #[test]
    fn dynamics_plan_expansion() {
        let topo = TopologySpec::new(DensityClass::Moderate, 40, 7).build();
        let none = DynamicsSpec::None.plan(7, &topo);
        assert!(none.is_static());
        let kill = DynamicsSpec::RandomKill {
            count: 2,
            at_cycle: 9,
        }
        .plan(7, &topo);
        assert_eq!(kill.first_event_cycle(), Some(9));
        // Rate shifts mark the plan and swap the schedule mid-run.
        let shift = DynamicsSpec::RateShift { at_cycle: 12 };
        assert_eq!(shift.plan(7, &topo).first_event_cycle(), Some(12));
        // Leaf moves expand to a plan-seeded random re-homing.
        let mv = DynamicsSpec::LeafMove { at_cycle: 18 }.plan(7, &topo);
        assert_eq!(mv.first_event_cycle(), Some(18));
        assert_eq!(mv.moves.len(), 1);
        let rates = Rates::new(10, 1, 5);
        match shift.schedule(rates) {
            Schedule::TemporalSwitch {
                before,
                after,
                at_cycle,
            } => {
                assert_eq!(at_cycle, 12);
                assert_eq!(before, rates);
                assert_eq!(after, Rates::new(1, 10, 5));
            }
            other => panic!("expected temporal switch, got {other:?}"),
        }
        assert!(matches!(
            DynamicsSpec::None.schedule(rates),
            Schedule::Uniform(r) if r == rates
        ));
    }

    #[test]
    fn tiny_sweep_runs_and_emits_all_formats() {
        let g = SweepGrid {
            sizes: vec![30],
            loss_probs: vec![0.1],
            algorithms: vec![(Algorithm::Naive, InnetOptions::PLAIN)],
            seeds: seed_range(2),
            cycles: 5,
            ..SweepGrid::default()
        };
        let rep = g.run();
        assert_eq!(rep.cells.len(), 1);
        let c = &rep.cells[0];
        assert_eq!(c.runs, 2);
        assert!(c.stat("total_traffic_bytes").mean > 0.0);
        let table = rep.to_table().to_aligned_string();
        assert!(table.contains("Naive"));
        let csv = rep.to_csv();
        assert!(csv.lines().count() == 2);
        assert!(csv.contains("total_traffic_bytes_mean"));
        let json = rep.to_json();
        assert!(json.contains("\"algorithm\": \"Naive\""));
        assert!(json.contains("\"dynamics\": \"none\""));
    }

    #[test]
    fn dynamics_sweep_reports_recovery_metrics() {
        let g = SweepGrid {
            sizes: vec![40],
            loss_probs: vec![0.0],
            queries: vec![QueryId::Q0.into()],
            algorithms: vec![(Algorithm::Innet, InnetOptions::PLAIN)],
            dynamics: vec![DynamicsSpec::None, DynamicsSpec::JoinKill { at_cycle: 8 }],
            seeds: seed_range(2),
            cycles: 20,
            ..SweepGrid::default()
        };
        let rep = g.run();
        assert_eq!(rep.cells.len(), 2);
        let faulty = rep
            .find(|c| c.dynamics != DynamicsSpec::None)
            .expect("faulty cell");
        // The network reacted to the join-node kill...
        assert!(
            faulty.stat("repair_attempts").mean + faulty.stat("tuples_lost").mean > 0.0,
            "no recovery activity recorded"
        );
        assert!(faulty.stat("recovery_bytes").mean > 0.0);
        // ...and results kept arriving after the event.
        assert!(faulty.stat("results_post_event").mean > 0.0);
        // Static cell: events never fire, post-event results stay zero.
        let clean = rep.find(|c| c.dynamics == DynamicsSpec::None).unwrap();
        assert_eq!(clean.stat("results_post_event").mean, 0.0);
        let table = rep.to_recovery_table().to_aligned_string();
        assert!(table.contains("join@8"));
        assert!(rep.to_csv().contains("repair_attempts_mean"));
    }
}
