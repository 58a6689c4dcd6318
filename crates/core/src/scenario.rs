//! What every run shares, whatever it executes: the substrate's indexed
//! attributes, each algorithm's initiation schedule, the post-event
//! re-convergence measure, and the offline reference joins the tests
//! check the distributed computation against. Runs themselves go through
//! [`crate::session`].

use crate::msg::side;
use crate::node::WindowJoin;
use crate::shared::{AlgoConfig, Algorithm};
use sensor_net::{NodeId, Topology};
use sensor_query::schema::{
    ATTR_CID, ATTR_GROUP, ATTR_ID, ATTR_PAIR, ATTR_POS_X, ATTR_RID, ATTR_X, ATTR_Y,
};
use sensor_query::JoinQuerySpec;
use sensor_routing::substrate::IndexedAttr;
use sensor_summaries::SummaryKind;
use sensor_workload::WorkloadData;

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

/// One step of an algorithm's initiation sequence. The session drives the
/// steps of the cycle-0 queries to quiescence, interleaved across queries,
/// and spreads them over sampling cycles for queries arriving mid-run.
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
/// [`sensor_sim::Engine::run_until_quiet`] after the step fires; a zero
/// budget means the step is local (no traffic to drain). Naive and Yang+07
/// piggyback dissemination on routing-tree construction, so their query is
/// free per Table 3.
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
/// ignoring transport delays and losses: one [`WindowJoin`] per statically
/// matching pair, fed every sent sample in generation order (S before T
/// within a cycle). Used by integration tests to sanity-check the
/// distributed computation.
pub fn oracle_result_count(
    topo: &Topology,
    data: &WorkloadData,
    spec: &JoinQuerySpec,
    cycles: u32,
) -> u64 {
    use sensor_query::TupleSource;
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
    // Statically matching pairs, each with its join.
    let mut pairs: Vec<(NodeId, NodeId, WindowJoin)> = Vec::new();
    for &s in &s_nodes {
        for &t in &t_nodes {
            if s != t && a.static_join_matches(data.static_of(s), data.static_of(t)) {
                pairs.push((s, t, WindowJoin::default()));
            }
        }
    }
    let w = spec.window;
    let mut count = 0u64;
    for c in 0..cycles {
        for (s, t, join) in &mut pairs {
            let st = data.sample(*s, c);
            if a.s_sends(&st) {
                count += join.insert(a, side::S, st, w) as u64;
            }
            let tt = data.sample(*t, c);
            if a.t_sends(&tt) {
                count += join.insert(a, side::T, tt, w) as u64;
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
