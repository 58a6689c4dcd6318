//! The classic single-query run harness: wires topology + workload +
//! substrate + algorithm into a simulation and collects the statistics
//! every figure reports.
//!
//! Since the [`crate::session`] redesign this module is a thin layer: the
//! initiation and execution loops live in the unified session drivers
//! (shared with the multi-query harness), and one-shot runs go through
//! [`Scenario::session`]. [`Run`] remains the bare-wire engine wrapper
//! those drivers operate on.

use crate::node::{JoinNode, RecoveryStats};
use crate::shared::{AlgoConfig, Algorithm, Shared};
use sensor_net::{NodeId, Topology};
use sensor_query::schema::{
    ATTR_CID, ATTR_GROUP, ATTR_ID, ATTR_PAIR, ATTR_POS_X, ATTR_RID, ATTR_X, ATTR_Y,
};
use sensor_query::JoinQuerySpec;
use sensor_routing::substrate::{IndexedAttr, MultiTreeSubstrate};
use sensor_sim::dynamics::DynamicsPlan;
use sensor_sim::{Engine, Metrics, SimConfig};
use sensor_summaries::SummaryKind;
use sensor_workload::WorkloadData;
use std::sync::Arc;

/// Indexed attributes every experiment registers: the Table 1 statics with
/// Bloom/interval summaries and the R-tree over positions (App. C).
pub fn default_indexed_attrs() -> Vec<IndexedAttr> {
    vec![
        IndexedAttr::new(ATTR_ID, SummaryKind::Interval),
        IndexedAttr::new(ATTR_X, SummaryKind::Bloom),
        IndexedAttr::new(ATTR_Y, SummaryKind::Bloom),
        IndexedAttr::new(ATTR_CID, SummaryKind::Bloom),
        IndexedAttr::new(ATTR_RID, SummaryKind::Bloom),
        IndexedAttr::new(ATTR_PAIR, SummaryKind::Bloom),
        IndexedAttr::new(ATTR_GROUP, SummaryKind::Bloom),
        IndexedAttr::new(ATTR_POS_X, SummaryKind::Rects),
    ]
}

/// Everything needed to run one (topology, workload, query, algorithm)
/// combination.
pub struct Scenario {
    pub topo: Topology,
    pub data: WorkloadData,
    pub spec: JoinQuerySpec,
    pub cfg: AlgoConfig,
    pub sim: SimConfig,
    pub num_trees: usize,
}

/// Phase-separated traffic and result statistics of one run.
#[derive(Debug, Clone)]
pub struct RunStats {
    pub label: String,
    /// Traffic during initiation (query dissemination, exploration,
    /// nomination, group optimization, multicast setup).
    pub initiation: Metrics,
    /// Traffic during execution (data, results, adaptation, recovery).
    pub execution: Metrics,
    /// Join results delivered to (or produced at) the base station.
    pub results: u64,
    /// Mean result delay in transmission cycles.
    pub avg_delay_tx: f64,
    /// Transmission cycles the initiation phase took (Fig 6b latency).
    pub initiation_cycles: u64,
    pub base: NodeId,
}

impl RunStats {
    pub fn total_traffic_bytes(&self) -> u64 {
        self.initiation.total_tx_bytes() + self.execution.total_tx_bytes()
    }

    pub fn execution_traffic_bytes(&self) -> u64 {
        self.execution.total_tx_bytes()
    }

    pub fn total_traffic_msgs(&self) -> u64 {
        self.initiation.total_tx_msgs() + self.execution.total_tx_msgs()
    }

    pub fn base_load_bytes(&self) -> u64 {
        self.initiation.load_bytes(self.base) + self.execution.load_bytes(self.base)
    }

    pub fn base_load_msgs(&self) -> u64 {
        self.initiation.load_msgs(self.base) + self.execution.load_msgs(self.base)
    }

    /// Combined per-node loads (Fig 5).
    pub fn top_loads(&self, k: usize) -> Vec<u64> {
        let mut combined = self.initiation.clone();
        combined.absorb(&self.execution);
        combined.top_loads_bytes(k)
    }

    pub fn max_node_load_bytes(&self) -> u64 {
        let mut combined = self.initiation.clone();
        combined.absorb(&self.execution);
        combined.max_load_bytes()
    }
}

/// A prepared run: engine + shared context, ready to step through phases.
pub struct Run {
    pub engine: Engine<JoinNode>,
    pub shared: Arc<Shared>,
    init_metrics: Option<Metrics>,
    init_cycles: u64,
}

/// One step of an algorithm's initiation sequence. The single-query
/// harness ([`Run::initiate`]) drives the steps to quiescence one by one;
/// the multi-query harness ([`crate::multi::MultiRun`]) interleaves the
/// same steps across all queries arriving at a boundary, and spreads them
/// over sampling cycles for queries arriving mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStep {
    /// Query-dissemination flood from the base station.
    Flood,
    /// Harness backstop after dissemination: mark the query known
    /// everywhere (periodic beacons make this reliable in a real system).
    EnsureQuery,
    /// Base algorithm: producers announce eligibility to the base.
    Announce,
    /// GHT: producers register at their home nodes.
    GhtRegister,
    /// Innet: eligible S producers launch multi-tree searches (§3).
    Search,
    /// Innet: targets adopt their own nominated placements.
    FinishTSide,
    /// Innet: group-based optimization (Algorithm 1).
    GroupOpt,
}

/// The ordered `(step, quiescence budget)` initiation schedule for one
/// algorithm configuration. Budgets are transmission-cycle caps for
/// [`Engine::run_until_quiet`] after the step fires; a zero budget means
/// the step is local (no traffic to drain). Naive and Yang+07 piggyback
/// dissemination on routing-tree construction, so their query is free per
/// Table 3.
pub fn init_steps(cfg: &AlgoConfig) -> Vec<(InitStep, u64)> {
    match cfg.algorithm {
        Algorithm::Naive | Algorithm::Yang07 => vec![(InitStep::EnsureQuery, 0)],
        Algorithm::Base => vec![
            (InitStep::Flood, 10_000),
            (InitStep::EnsureQuery, 0),
            (InitStep::Announce, 50_000),
        ],
        Algorithm::Ght => vec![
            (InitStep::Flood, 10_000),
            (InitStep::EnsureQuery, 0),
            (InitStep::GhtRegister, 50_000),
        ],
        Algorithm::Innet => {
            let mut steps = vec![
                (InitStep::Flood, 10_000),
                (InitStep::EnsureQuery, 0),
                (InitStep::Search, 200_000),
                (InitStep::FinishTSide, 0),
            ];
            if cfg.innet.group_opt {
                steps.push((InitStep::GroupOpt, 50_000));
            }
            steps
        }
    }
}

impl Scenario {
    /// Construct the engine: builds the substrate offline (routing-tree
    /// construction is excluded from query costs, as in Table 3) and
    /// instantiates the protocol at every node.
    pub fn build(&self) -> Run {
        let sub = Arc::new(MultiTreeSubstrate::build(
            &self.topo,
            self.num_trees,
            default_indexed_attrs(),
            &self.data,
        ));
        let shared = Arc::new(Shared::new(
            Arc::new(self.topo.clone()),
            sub,
            self.spec.clone(),
            Arc::new(self.data.clone()),
            self.cfg,
        ));
        let sh = shared.clone();
        let engine = Engine::new(self.topo.clone(), self.sim.clone(), move |id| {
            JoinNode::new(id, sh.clone())
        });
        Run {
            engine,
            shared,
            init_metrics: None,
            init_cycles: 0,
        }
    }
}

impl Run {
    /// Drive the algorithm-specific initiation phase to quiescence,
    /// following the shared [`init_steps`] schedule (the one-query case of
    /// [`crate::session`]'s interleaved initiation driver).
    pub fn initiate(&mut self) {
        let (metrics, cycles) = crate::session::drive_initiation(self, &[0]);
        self.init_metrics = Some(metrics);
        self.init_cycles = cycles;
    }

    /// Run `cycles` sampling cycles of execution.
    pub fn execute(&mut self, cycles: u32) {
        self.execute_with_plan(cycles, &DynamicsPlan::none());
    }

    /// Run execution with a node failure injected at `fail_cycle`
    /// (single-victim convenience over [`Run::execute_with_plan`]).
    pub fn execute_with_failure(&mut self, cycles: u32, victim: NodeId, fail_cycle: u32) {
        let plan = DynamicsPlan::none().kill_nodes(fail_cycle, vec![victim]);
        self.execute_with_plan(cycles, &plan);
    }

    /// Run execution under a declarative dynamics plan: scheduled fault
    /// events, loss shifts and workload-shift marks fire at sampling-cycle
    /// boundaries; per-cycle traffic is tracked for recovery accounting.
    /// Delegates to the unified [`crate::session`] cycle driver.
    pub fn execute_with_plan(&mut self, cycles: u32, plan: &DynamicsPlan) -> DynamicsOutcome {
        use crate::session::{drive_cycles, ExecState, Host};
        let mut st = ExecState::new(self, vec![crate::multi::Lifecycle::STATIC], vec![None]);
        drive_cycles(self, &mut st, plan, cycles, &mut []);
        self.engine.run_until_quiet(5_000);
        let total = Host::live_results(self);
        let pre = st.results_pre_event.unwrap_or(total);
        DynamicsOutcome {
            killed: st.killed,
            queued_msgs_lost: st.queued_msgs_lost,
            results_pre_event: pre,
            results_post_event: total - pre,
            reconvergence_cycles: reconvergence(
                &st.per_cycle_tx_bytes,
                st.first_fired,
                st.last_fired,
            ),
            per_cycle_tx_bytes: st.per_cycle_tx_bytes,
        }
    }

    /// Network-wide sum of the per-node §7 recovery counters.
    pub fn recovery_totals(&self) -> RecoveryStats {
        let mut total = RecoveryStats::default();
        for node in self.engine.nodes() {
            total.absorb(&node.recovery);
        }
        total
    }

    /// The join node currently serving the most pairs (failure target
    /// selection for Fig 14).
    pub fn busiest_join_node(&self) -> Option<NodeId> {
        busiest_join_node_of(&self.engine, self.shared.base())
    }

    pub fn stats(&self) -> RunStats {
        let base = self.shared.base();
        let b = self
            .engine
            .node(base)
            .base_state()
            .expect("base state present");
        let avg_delay = if b.results > 0 {
            b.delay_sum as f64 / b.results as f64
        } else {
            0.0
        };
        RunStats {
            label: self.shared.cfg.label(),
            initiation: self
                .init_metrics
                .clone()
                .unwrap_or_else(|| Metrics::new(self.engine.topology().len())),
            execution: self.engine.metrics().clone(),
            results: b.results,
            avg_delay_tx: avg_delay,
            initiation_cycles: self.init_cycles,
            base,
        }
    }
}

/// What happened during a dynamics-driven execution: who died when, what
/// was lost with them, and how the system's cost behaved around the
/// events. Complements [`RunStats`] (traffic/results) and
/// [`Run::recovery_totals`] (protocol-level recovery reactions).
#[derive(Debug, Clone, Default)]
pub struct DynamicsOutcome {
    /// `(cycle, node)` for every node that died mid-run: plan kills and
    /// energy-budget depletions alike.
    pub killed: Vec<(u32, NodeId)>,
    /// Messages discarded from dead nodes' queues (plan kills + energy
    /// depletions).
    pub queued_msgs_lost: u64,
    /// Execution TX bytes per sampling cycle (recovery-overhead trace).
    pub per_cycle_tx_bytes: Vec<u64>,
    /// Join results delivered before the first scheduled event (all of
    /// them, for a static plan).
    pub results_pre_event: u64,
    /// Join results delivered at or after the first scheduled event.
    pub results_post_event: u64,
    /// Sampling cycles after the last event until per-cycle traffic
    /// settled back within 25% of the pre-event baseline for 3 consecutive
    /// cycles. `None` for static plans or if the run ended first.
    pub reconvergence_cycles: Option<u32>,
}

/// The alive non-base node serving the most join pairs.
pub(crate) fn busiest_join_node_of(
    engine: &sensor_sim::Engine<JoinNode>,
    base: NodeId,
) -> Option<NodeId> {
    (0..engine.topology().len() as u16)
        .map(NodeId)
        .filter(|&id| id != base && engine.is_alive(id))
        .max_by_key(|&id| engine.node(id).pair_count())
        .filter(|&id| engine.node(id).pair_count() > 0)
}

/// Post-event cost re-convergence: cycles after `last_event` until the
/// per-cycle traffic trace stays within 25% of the pre-event mean for 3
/// consecutive cycles (dropping *below* the baseline — dead producers —
/// also counts as settled).
pub(crate) fn reconvergence(
    per_cycle: &[u64],
    first_event: Option<u32>,
    last_event: Option<u32>,
) -> Option<u32> {
    const WINDOW: usize = 3;
    let (first, last) = (first_event? as usize, last_event? as usize);
    if first == 0 || last + 1 >= per_cycle.len() {
        return None;
    }
    // Baseline: mean over (up to) the last 10 pre-event cycles.
    let pre = &per_cycle[first.saturating_sub(10)..first];
    let baseline = pre.iter().sum::<u64>() as f64 / pre.len() as f64;
    let ceiling = baseline * 1.25;
    let trace = &per_cycle[last + 1..];
    for (i, w) in trace.windows(WINDOW).enumerate() {
        if w.iter().all(|&x| (x as f64) <= ceiling) {
            return Some((i + 1) as u32);
        }
    }
    None
}

/// Oracle: expected number of join results over `cycles` sampling cycles,
/// ignoring transport delays and losses (window semantics evaluated on
/// generation order). Used by integration tests to sanity-check the
/// distributed computation.
pub fn oracle_result_count(
    topo: &Topology,
    data: &WorkloadData,
    spec: &JoinQuerySpec,
    cycles: u32,
) -> u64 {
    use sensor_query::TupleSource;
    use std::collections::VecDeque;
    let base = topo.base();
    let a = &spec.analysis;
    // Eligible producers.
    let s_nodes: Vec<NodeId> = topo
        .node_ids()
        .filter(|&n| n != base && a.s_eligible(data.static_of(n)))
        .collect();
    let t_nodes: Vec<NodeId> = topo
        .node_ids()
        .filter(|&n| n != base && a.t_eligible(data.static_of(n)))
        .collect();
    // Statically matching pairs.
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for &s in &s_nodes {
        for &t in &t_nodes {
            if s != t && a.static_join_matches(data.static_of(s), data.static_of(t)) {
                pairs.push((s, t));
            }
        }
    }
    let w = spec.window;
    let mut count = 0u64;
    let mut windows: Vec<(VecDeque<sensor_query::Tuple>, VecDeque<sensor_query::Tuple>)> =
        vec![(VecDeque::new(), VecDeque::new()); pairs.len()];
    for c in 0..cycles {
        for (idx, &(s, t)) in pairs.iter().enumerate() {
            let st = data.sample(s, c);
            let tt = data.sample(t, c);
            let s_sends = a.s_sends(&st);
            let t_sends = a.t_sends(&tt);
            let (ws, wt) = &mut windows[idx];
            if s_sends {
                count += wt.iter().filter(|x| a.join_matches(&st, x)).count() as u64;
                if ws.len() == w {
                    ws.pop_front();
                }
                ws.push_back(st);
            }
            if t_sends {
                count += ws.iter().filter(|x| a.join_matches(x, &tt)).count() as u64;
                if wt.len() == w {
                    wt.pop_front();
                }
                wt.push_back(tt);
            }
        }
    }
    count
}

/// Oracle: expected number of full n-way join results of a
/// [`JoinGraph`](sensor_query::JoinGraph) over `cycles` sampling cycles,
/// ignoring transport delays and losses — the n-relation generalization of
/// [`oracle_result_count`] (to which it is exactly equal for two-relation
/// graphs; the tests assert this).
///
/// Each relation's eligible producers keep a window of their last `w`
/// *sent* tuples; a combination (one tuple per relation, all edge
/// predicates satisfied, per-edge distinct producers) is counted once,
/// when its last tuple is generated — generation order, like the pairwise
/// oracle.
pub fn oracle_graph_result_count(
    topo: &Topology,
    data: &WorkloadData,
    graph: &sensor_query::JoinGraph,
    cycles: u32,
) -> u64 {
    use sensor_query::{QueryAnalysis, Tuple, TupleSource};
    use std::collections::VecDeque;
    /// Relation slot of a partially-assembled combination.
    type Slot = Option<(NodeId, Tuple)>;
    let base = topo.base();
    let k = graph.n_relations();
    // Relation r's selection semantics come from a representative incident
    // edge's compiled spec: the S analysis if r is the edge's `a`, T
    // otherwise (edge specs bundle exactly the endpoint selections).
    let rep: Vec<(QueryAnalysis, bool)> = (0..k)
        .map(|r| {
            let e = graph
                .edges_of(r)
                .next()
                .expect("validated graphs have no unjoined relation");
            (graph.edge_spec(e).analysis, graph.edges[e].a == r)
        })
        .collect();
    let eligible: Vec<Vec<NodeId>> = (0..k)
        .map(|r| {
            topo.node_ids()
                .filter(|&n| {
                    if n == base {
                        return false;
                    }
                    let st = data.static_of(n);
                    if rep[r].1 {
                        rep[r].0.s_eligible(st)
                    } else {
                        rep[r].0.t_eligible(st)
                    }
                })
                .collect()
        })
        .collect();
    let edge_analyses: Vec<QueryAnalysis> = (0..graph.edges.len())
        .map(|e| graph.edge_spec(e).analysis)
        .collect();
    // Does assigning `(node, tuple)` to relation `r` satisfy every edge
    // whose other endpoint is already assigned?
    let edges_ok = |chosen: &[Slot], r: usize| -> bool {
        graph.edges.iter().enumerate().all(|(ei, e)| {
            let other = if e.a == r {
                e.b
            } else if e.b == r {
                e.a
            } else {
                return true;
            };
            let Some((on, ot)) = &chosen[other] else {
                return true;
            };
            let (rn, rt) = chosen[r].as_ref().expect("r was just assigned");
            if rn == on {
                return false;
            }
            let (sn, st, tn, tt) = if e.a == r {
                (rn, rt, on, ot)
            } else {
                (on, ot, rn, rt)
            };
            edge_analyses[ei].static_join_matches(data.static_of(*sn), data.static_of(*tn))
                && edge_analyses[ei].join_matches(st, tt)
        })
    };
    // Count combinations completed by the fixed tuple in `chosen[fixed]`,
    // extending one unassigned relation at a time from current windows.
    fn extend(
        graph: &sensor_query::JoinGraph,
        windows: &[Vec<VecDeque<Tuple>>],
        eligible: &[Vec<NodeId>],
        edges_ok: &dyn Fn(&[Slot], usize) -> bool,
        chosen: &mut Vec<Slot>,
        next: usize,
        fixed: usize,
    ) -> u64 {
        let k = graph.n_relations();
        if next == k {
            return 1;
        }
        if next == fixed {
            return extend(graph, windows, eligible, edges_ok, chosen, next + 1, fixed);
        }
        let mut total = 0;
        for (ni, &node) in eligible[next].iter().enumerate() {
            for tup in &windows[next][ni] {
                chosen[next] = Some((node, *tup));
                if edges_ok(chosen, next) {
                    total += extend(graph, windows, eligible, edges_ok, chosen, next + 1, fixed);
                }
            }
        }
        chosen[next] = None;
        total
    }
    let w = graph.window;
    let mut windows: Vec<Vec<VecDeque<Tuple>>> = eligible
        .iter()
        .map(|ns| vec![VecDeque::new(); ns.len()])
        .collect();
    let mut count = 0u64;
    for c in 0..cycles {
        // Deterministic generation order: relation index, then node order.
        // A new tuple sees same-cycle tuples already pushed — exactly the
        // S-before-T convention of the pairwise oracle.
        for r in 0..k {
            for (ni, &node) in eligible[r].iter().enumerate() {
                let tup = data.sample(node, c);
                let sends = if rep[r].1 {
                    rep[r].0.s_sends(&tup)
                } else {
                    rep[r].0.t_sends(&tup)
                };
                if !sends {
                    continue;
                }
                let mut chosen: Vec<Slot> = vec![None; k];
                chosen[r] = Some((node, tup));
                count += extend(graph, &windows, &eligible, &edges_ok, &mut chosen, 0, r);
                let wd = &mut windows[r][ni];
                if wd.len() == w {
                    wd.pop_front();
                }
                wd.push_back(tup);
            }
        }
    }
    count
}
