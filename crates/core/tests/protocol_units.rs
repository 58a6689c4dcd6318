//! Protocol-mechanism tests on small, hand-checkable topologies: join-node
//! placement locations, multicast state, group decisions, Yang+07 routing,
//! learning migrations and window hand-off.

use aspen_join::msg::Pair;
use aspen_join::prelude::*;
use aspen_join::scenario::default_indexed_attrs;
use aspen_join::{Algorithm, JoinNode, Shared};
use sensor_net::{NodeId, Point, Topology};
use sensor_query::JoinQuerySpec;
use sensor_routing::substrate::MultiTreeSubstrate;
use sensor_sim::SimConfig;
use sensor_workload::{query0, query1, WorkloadData};
use std::sync::Arc;

/// A line of `n` nodes, base at one end: placement geometry is exact.
fn line(n: usize) -> Topology {
    let pts = (0..n).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
    Topology::from_positions(pts, 11.0, NodeId(0))
}

/// A lossless session on the paper's untagged wire, hosting `spec`.
fn session(
    topo: Topology,
    data: WorkloadData,
    spec: JoinQuerySpec,
    cfg: AlgoConfig,
    num_trees: usize,
) -> Session {
    Session::builder(topo, data)
        .sim(SimConfig::lossless())
        .trees(num_trees)
        .query(spec, cfg)
        .bare_wire()
        .build()
}

/// One Query-0 pair on an 11-node line.
fn line_session(cfg: AlgoConfig) -> Session {
    let topo = line(11);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 3).with_pairs(1);
    session(topo, data, query0(3), cfg, 1)
}

/// The session's one query at `id`.
fn node(s: &Session, id: NodeId) -> &JoinNode {
    s.query_node(QueryId(0), id).expect("the query is live")
}

/// Where did the single Query-0 pair land?
fn find_join_node(s: &Session) -> Option<NodeId> {
    s.topology()
        .node_ids()
        .find(|&id| node(s, id).pair_count() > 0)
}

#[test]
fn placement_lands_between_endpoints_for_rare_joins() {
    // Rare join, symmetric rates: the join node must sit strictly between
    // the pair's endpoints on the line (pairwise transport optimum).
    let mut run = line_session(AlgoConfig::new(
        Algorithm::Innet,
        Sigma::new(1.0, 1.0, 0.01),
    ));
    run.step(0);
    let j = find_join_node(&run).expect("pair placed in-network");
    // Find the pair endpoints from the assignments.
    let mut endpoints = Vec::new();
    for i in 0..11u16 {
        if !node(&run, NodeId(i)).assigns.is_empty() {
            endpoints.push(i);
        }
    }
    endpoints.sort_unstable();
    assert_eq!(endpoints.len(), 2, "one pair, two producers");
    assert!(
        (endpoints[0]..=endpoints[1]).contains(&j.0),
        "join node {j} outside segment {endpoints:?}"
    );
}

#[test]
fn hot_joins_go_to_base() {
    // sigma_st = 1 with a window: result forwarding dominates, the §3.2
    // comparison sends the pair to the base station.
    let mut run = line_session(AlgoConfig::new(Algorithm::Innet, Sigma::new(1.0, 1.0, 1.0)));
    run.step(0);
    assert_eq!(find_join_node(&run), None, "no in-network join node");
    let base_pairs = node(&run, NodeId(0)).base_state().unwrap().pairs.len();
    assert_eq!(base_pairs, 1, "the pair registered at the base");
}

#[test]
fn learning_migrates_pair_with_windows() {
    // Start believing the join is hot (pair at base); the true data is
    // rare-joining, so learning must migrate the pair into the network.
    let cfg = AlgoConfig::new(
        Algorithm::Innet,
        Sigma::new(1.0, 1.0, 1.0), // wrong: true sigma_st is 0.2
    )
    .with_innet_options(InnetOptions::PLAIN.with_learning());
    let mut run = line_session(cfg);
    run.step(0);
    assert_eq!(find_join_node(&run), None, "starts at the base");
    run.step(60);
    // And results keep flowing.
    assert!(run.report().results_total() > 0);
    let j = find_join_node(&run);
    assert!(j.is_some(), "pair migrated in-network after learning");
    // The migrated pair carries windows (transferred, not reset-empty
    // forever): after execution they must hold tuples.
    let jn = node(&run, j.unwrap());
    let pair_state = jn.pairs.values().next().unwrap();
    assert!(
        !pair_state.win.is_empty(),
        "windows empty after migration + execution"
    );
}

#[test]
fn multicast_state_installed_at_interior_nodes() {
    let topo = sensor_net::random_with_degree(80, 7.0, 19);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 20)), 19);
    let mut run = session(
        topo.clone(),
        data,
        query1(3),
        AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.05))
            .with_innet_options(InnetOptions::CM),
        3,
    );
    run.step(3); // mcast maintenance runs on the first sampling ticks
    run.report();
    let mut owners = 0;
    let mut interior = 0;
    for i in 0..topo.len() as u16 {
        let n = node(&run, NodeId(i));
        if n.mc_tree.is_some() {
            owners += 1;
        }
        interior += n.mc_children.values().filter(|v| !v.is_empty()).count();
    }
    assert!(owners > 0, "no multicast owners despite m:n query");
    assert!(interior > 0, "no interior forwarding state installed");
}

#[test]
fn group_decision_consistent_across_members() {
    let topo = sensor_net::random_with_degree(80, 7.0, 23);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 23);
    let mut run = session(
        topo.clone(),
        data,
        query1(3),
        AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2))
            .with_innet_options(InnetOptions::CMG),
        3,
    );
    run.step(0);
    // Every coordinator that decided must have a complete delta set, and
    // within each pair both endpoints must agree on base_mode.
    let mut decisions = std::collections::HashMap::new();
    for i in 0..topo.len() as u16 {
        let n = node(&run, NodeId(i));
        for c in n.coord.values() {
            if c.last_decision.is_some() {
                assert!(c.is_complete(), "decided without all member deltas");
            }
        }
        for (pair, a) in &n.assigns {
            decisions
                .entry(*pair)
                .or_insert_with(Vec::new)
                .push(a.base_mode);
        }
    }
    let mut checked = 0;
    for (pair, modes) in decisions {
        if modes.len() == 2 {
            assert_eq!(modes[0], modes[1], "pair {pair:?} endpoints disagree");
            checked += 1;
        }
    }
    assert!(checked > 0, "no pairs with both endpoints visible");
}

#[test]
fn yang07_targets_receive_forwarded_s_data() {
    let topo = sensor_net::random_with_degree(60, 7.0, 29);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 29);
    let mut run = session(
        topo.clone(),
        data,
        query1(3),
        AlgoConfig::new(Algorithm::Yang07, Sigma::new(1.0, 1.0, 0.2)),
        1,
    );
    run.step(10);
    // T-side nodes hold local windows and produced results without ever
    // shipping their own data (their TX is only results + relaying).
    let stats = run.report();
    assert!(
        stats.results_total() > 0,
        "through-the-base produced no results"
    );
    let t_with_windows = (0..topo.len() as u16)
        .filter(|&i| !node(&run, NodeId(i)).yang_win.is_empty())
        .count();
    assert!(t_with_windows > 0, "no Yang+07 local windows");
}

#[test]
fn ght_members_register_at_common_home() {
    let topo = sensor_net::random_with_degree(60, 7.0, 31);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 31).with_pairs(5);
    let mut run = session(
        topo.clone(),
        data,
        query0(3),
        AlgoConfig::new(Algorithm::Ght, Sigma::new(1.0, 1.0, 0.2)),
        1,
    );
    run.step(0);
    // Each of the 5 pair keys must have exactly one home holding both
    // endpoints.
    let mut homes_with_full_groups = 0;
    for i in 0..topo.len() as u16 {
        for g in node(&run, NodeId(i)).ght_groups.values() {
            let s_count = g.partners.keys().filter(|(_, side)| *side == 1).count();
            let t_count = g.partners.keys().filter(|(_, side)| *side == 2).count();
            if s_count >= 1 && t_count >= 1 {
                homes_with_full_groups += 1;
            }
        }
    }
    assert_eq!(homes_with_full_groups, 5, "every pair key rendezvoused");
}

#[test]
fn intermediate_path_failure_repairs_locally() {
    // Build a pair on a grid (redundant links), fail a mid-path relay
    // (not the join node): local repair should keep the pair in-network.
    let topo = sensor_net::gen::grid(8, 8);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 10)), 37).with_pairs(1);
    let mut run = session(
        topo.clone(),
        data,
        query0(3),
        AlgoConfig::new(Algorithm::Innet, Sigma::new(1.0, 1.0, 0.1)),
        3,
    );
    run.step(0);
    let Some(j) = find_join_node(&run) else {
        // Pair landed at the base on this layout; nothing to test.
        return;
    };
    // Pick a relay node: a neighbor of the join node on some assignment
    // path that is neither producer nor join node.
    let mut victim = None;
    'outer: for i in 0..topo.len() as u16 {
        for a in node(&run, NodeId(i)).assigns.values() {
            for &n in a.path.nodes.iter() {
                if n != a.pair.s && n != a.pair.t && n != j && n != topo.base() {
                    victim = Some(n);
                    break 'outer;
                }
            }
        }
    }
    let Some(victim) = victim else { return };
    run.kill(victim);
    run.step(30);
    let stats = run.report();
    assert!(
        stats.results_total() > 0,
        "no results after mid-path relay failure"
    );
}

#[test]
fn pair_sequence_numbers_keep_latest_assignment() {
    use aspen_join::msg::PairPath;
    use aspen_join::node::ProducerAssign;
    // adopt_assign must be monotonic in seq.
    let topo = line(5);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 1).with_pairs(1);
    let sub = MultiTreeSubstrate::build(&topo, 1, default_indexed_attrs(), &data);
    let sh = Shared::new(
        Arc::new(topo),
        Arc::new(sub),
        query0(3),
        Arc::new(data),
        AlgoConfig::new(Algorithm::Innet, Sigma::new(1.0, 1.0, 0.2)),
    );
    let pair = Pair::new(NodeId(1), NodeId(2));
    let mut node = JoinNode::new(NodeId(1), Arc::new(sh));
    let path = |seq, nodes: [NodeId; 2], j| PairPath {
        seq,
        nodes: nodes.into(),
        j: Some(j),
    };
    node.adopt_assign(pair, path(5, [NodeId(1), NodeId(2)], 1));
    node.adopt_assign(pair, path(3, [NodeId(1), NodeId(3)], 0)); // stale
    let a: &ProducerAssign = &node.assigns[&pair];
    assert_eq!(a.path.seq, 5, "stale assignment overwrote newer one");
}
