//! N-way graph queries through the `Session` layer: plan instantiation as
//! pairwise sub-queries, cross-query sub-join sharing (the base-load
//! regression the PR is gated on), live re-planning, and the n-way oracle
//! agreeing with the pairwise one on two-relation graphs.

use aspen_join::prelude::*;
use aspen_join::{oracle_graph_result_count, Algorithm, GraphId};
use sensor_query::{parse_join_graph, parser::parse_query, JoinGraph};
use sensor_workload::{query1, WorkloadData};

const RATES: Rates = Rates {
    s_den: 2,
    t_den: 2,
    st_den: 5,
};

/// Deterministic, contention-free simulator (no loss RNG, roomy MAC) so
/// traffic differences between sessions come only from what is running.
fn roomy_sim(seed: u64) -> SimConfig {
    SimConfig {
        tx_per_cycle: 64,
        queue_capacity: 1024,
        ..SimConfig::lossless().with_seed(seed)
    }
}

fn cfg() -> AlgoConfig {
    AlgoConfig::new(Algorithm::Innet, Sigma::from_rates(RATES))
}

fn network(seed: u64) -> (sensor_net::Topology, WorkloadData) {
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    (topo, data)
}

/// 3-way chain a⋈b⋈c over disjoint id ranges, joining on `u`. Range
/// selections keep each sub-join routable (the pattern matcher turns
/// them into search constraints), unlike arithmetic residue selections.
fn chain_abc() -> JoinGraph {
    parse_join_graph(
        "SELECT a.id, c.id FROM a, b, c [windowsize=2 sampleinterval=100] \
         WHERE a.id < 20 AND b.id >= 20 AND b.id < 40 AND c.id >= 40 \
         AND a.u = b.u AND b.u = c.u",
    )
    .expect("chain graph parses")
}

/// Overlapping 3-way chain: same a⋈b sub-join, different third relation
/// (joined on `v`), so exactly one skeleton edge is shareable.
fn chain_abd() -> JoinGraph {
    parse_join_graph(
        "SELECT a.id, d.id FROM a, b, d [windowsize=2 sampleinterval=100] \
         WHERE a.id < 20 AND b.id >= 20 AND b.id < 40 AND d.id >= 40 \
         AND a.u = b.u AND b.v = d.v",
    )
    .expect("overlap graph parses")
}

fn session_with(seed: u64, share: bool) -> Session {
    let (topo, data) = network(seed);
    Session::builder(topo, data)
        .sim(roomy_sim(seed))
        .query(query1(2), cfg())
        .subjoin_sharing(share)
        .build()
}

#[test]
fn skeleton_instantiates_as_pairwise_subqueries() {
    let mut s = session_with(9, true);
    let g = s.admit_graph(&chain_abc(), cfg());
    // A 3-relation chain's plan skeleton is its 2-edge spanning tree.
    assert_eq!(s.graph_plan(g).skeleton.len(), 2);
    let qids = s.graph_queries(g);
    assert_eq!(qids.len(), 2);
    s.step(16);
    let out = s.report();
    // Resident classic query + two sub-queries.
    assert_eq!(out.per_query.len(), 3);
    for &q in &qids {
        assert!(
            out.per_query[q.0].flow.tx_msgs > 0,
            "sub-query {q:?} put no frames on the air"
        );
    }
}

#[test]
fn common_subjoin_is_shared_across_graphs() {
    let mut s = session_with(9, true);
    let g1 = s.admit_graph(&chain_abc(), cfg());
    let g2 = s.admit_graph(&chain_abd(), cfg());
    let q1 = s.graph_queries(g1);
    let q2 = s.graph_queries(g2);
    // The a⋈b operator is one instance referenced by both plans.
    let shared: Vec<_> = q1.iter().filter(|q| q2.contains(q)).collect();
    assert_eq!(shared.len(), 1, "exactly the a⋈b sub-join is common");
    // 2 + 2 skeleton edges but only 3 distinct operators on the network.
    let mut all = [q1.clone(), q2.clone()].concat();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), 3);

    // Retiring one graph keeps the shared operator alive for the other…
    s.retire_graph(g2);
    s.step(8);
    let out = s.report();
    for &q in &q1 {
        assert!(
            out.per_query[q.0].departure.is_none(),
            "sub-query {q:?} of the resident graph was retired with g2"
        );
    }
    // …and g2's private sub-join was retired at once.
    let private: Vec<_> = q2.iter().filter(|q| !q1.contains(q)).collect();
    assert_eq!(private.len(), 1);
    assert!(out.per_query[private[0].0].departure.is_some());
}

/// The acceptance regression: two graph queries with a common sub-join
/// put measurably less load on the base when the operator is shared than
/// when each graph runs private copies — same network, same seed, same
/// cycles.
#[test]
fn sharing_reduces_base_load() {
    let run = |share: bool| -> u64 {
        let mut s = session_with(11, share);
        s.admit_graph(&chain_abc(), cfg());
        s.admit_graph(&chain_abd(), cfg());
        s.step(20);
        s.report().base_load_bytes()
    };
    let shared = run(true);
    let independent = run(false);
    assert!(
        shared < independent,
        "shared sub-join must reduce base load: shared={shared} independent={independent}"
    );
}

#[test]
fn disabled_sharing_gives_private_operators() {
    let mut s = session_with(9, false);
    let g1 = s.admit_graph(&chain_abc(), cfg());
    let g2 = s.admit_graph(&chain_abd(), cfg());
    let mut all = [s.graph_queries(g1), s.graph_queries(g2)].concat();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), 4, "no operator reuse with sharing disabled");
}

#[test]
fn replan_swaps_skeleton_live() {
    let mut s = session_with(9, true);
    // A triangle: three edges, skeleton keeps two — which two depends on
    // the σ basis, so a forced re-plan can change the skeleton.
    let tri = parse_join_graph(
        "SELECT a.id FROM a, b, c [windowsize=1 sampleinterval=100] \
         WHERE a.id < 20 AND b.id >= 20 AND b.id < 40 AND c.id >= 40 \
         AND a.u = b.u AND b.u = c.u AND a.v = c.v",
    )
    .expect("triangle parses");
    let log = EventLog::new();
    s.observe(Box::new(log.clone()));
    let g = s.admit_graph(&tri, cfg());
    assert_eq!(g, GraphId(0));
    let before = s.graph_queries(g);
    s.step(6);

    // Fresh graph, no learned evidence yet: nothing to re-plan on.
    assert!(!s.maybe_replan(g) || !s.graph_queries(g).is_empty());

    // Force a re-plan on an explicit basis; bookkeeping must stay
    // consistent whether or not the skeleton changed.
    let n_edges = tri.edges.len();
    let skewed: Vec<Sigma> = (0..n_edges)
        .map(|i| {
            if i == 0 {
                Sigma::new(0.9, 0.9, 0.5)
            } else {
                Sigma::new(0.05, 0.05, 0.01)
            }
        })
        .collect();
    s.replan_with(g, &skewed);
    assert_eq!(s.graph_plan(g).sigmas, skewed);
    let after = s.graph_queries(g);
    assert_eq!(after.len(), s.graph_plan(g).skeleton.len());
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e, SessionEvent::Replanned { graph, .. } if *graph == g)));

    // The session keeps running and every current sub-query is live.
    s.step(6);
    let out = s.report();
    for &q in &after {
        assert!(out.per_query[q.0].departure.is_none());
    }
    // Sub-queries dropped by the re-plan were retired.
    for &q in before.iter().filter(|q| !after.contains(q)) {
        assert!(out.per_query[q.0].departure.is_some());
    }
}

/// Lifecycle regression: re-planning a *retired* graph must be a graceful
/// no-op. Pre-fix, `replan_with` asserted on the retired entry (fatal for
/// a server applying wire commands), and would otherwise have
/// re-acquired sub-join fingerprints — resurrecting operators that
/// `retire_graph` had just released.
#[test]
fn replan_on_retired_graph_is_a_noop() {
    let mut s = session_with(9, true);
    let g = s.admit_graph(&chain_abc(), cfg());
    let subs = s.graph_queries(g);
    s.step(6);
    s.retire_graph(g);
    let slots_after_retire = s.report().per_query.len();

    // Neither entry point may panic or resurrect operators.
    assert!(!s.maybe_replan(g), "retired graph must not re-plan");
    let n_edges = chain_abc().edges.len();
    s.replan_with(g, &vec![Sigma::new(0.9, 0.9, 0.5); n_edges]);

    assert!(
        s.graph_queries(g).is_empty(),
        "retired graph's sub-joins must stay released"
    );
    s.step(4);
    let out = s.report();
    assert_eq!(
        out.per_query.len(),
        slots_after_retire,
        "re-plan on a retired graph must not admit new sub-queries"
    );
    for &q in &subs {
        assert!(
            out.per_query[q.0].departure.is_some(),
            "sub-query {q:?} was resurrected after graph retirement"
        );
    }
}

#[test]
fn graph_oracle_matches_pairwise_oracle_on_two_relations() {
    let sql = "SELECT s.id, t.id FROM s, t [windowsize=2 sampleinterval=100] \
               WHERE s.adc0 = 0 AND t.adc1 = 0 AND s.u = t.u";
    let graph = parse_join_graph(sql).expect("graph form parses");
    let classic = parse_query(sql).expect("classic form parses");
    for seed in [1u64, 7, 23] {
        let (topo, data) = network(seed);
        let a = oracle_graph_result_count(&topo, &data, &graph, 30);
        let b = aspen_join::oracle_result_count(&topo, &data, &classic, 30);
        assert_eq!(a, b, "oracles disagree on seed {seed}");
    }
}

#[test]
fn graph_oracle_counts_three_way_chain() {
    let graph = chain_abc();
    let (topo, data) = network(3);
    let c1 = oracle_graph_result_count(&topo, &data, &graph, 40);
    let c2 = oracle_graph_result_count(&topo, &data, &graph, 40);
    assert_eq!(c1, c2, "oracle must be deterministic");
    assert!(c1 > 0, "the 3-way chain must produce results in 40 cycles");
}
