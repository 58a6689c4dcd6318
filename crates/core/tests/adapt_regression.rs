//! Regression tests for the ISSUE 3 adaptation-layer bugs. Each test fails
//! on the pre-fix code:
//!
//! 1. `evaluate_pair` double-ticked a pair's cycle counter on evaluation
//!    cycles with no estimate, deflating every σ estimate;
//! 2. `handle_send_failure` dropped the in-flight tuple when the repaired
//!    path no longer ran through the repairing node;
//! 3. a successful repair never updated the stored paths, so later §6
//!    placement decisions used pre-repair distances.

use aspen_join::learn::{PairStats, LEARN_INTERVAL};
use aspen_join::msg::{side, Msg, Pair, PairPath, Route, WindowXfer};
use aspen_join::node::{PairState, WindowJoin};
use aspen_join::prelude::*;
use aspen_join::scenario::default_indexed_attrs;
use aspen_join::{Algorithm, JoinNode, Shared};
use sensor_net::{NodeId, Point, Topology};
use sensor_query::Tuple;
use sensor_routing::substrate::MultiTreeSubstrate;
use sensor_sim::{Engine, Protocol};
use sensor_workload::{query0, WorkloadData};
use std::sync::Arc;

/// Ladder topology (as in the repair unit tests): with range 1.5 the
/// diagonals connect, so node 6 bridges 1 and 3 around a failed node 2.
///   0 - 1 - 2 - 3
///   |   |   |   |
///   4 - 5 - 6 - 7
fn ladder() -> Topology {
    let mut pts = Vec::new();
    for i in 0..4 {
        pts.push(Point::new(i as f64, 1.0));
    }
    for i in 0..4 {
        pts.push(Point::new(i as f64, 0.0));
    }
    Topology::from_positions(pts, 1.5, NodeId(0))
}

/// One `query0` over `topo` with [`JoinNode`] straight under a lone
/// engine and no initiation: the tests inject state and messages at single
/// nodes by hand. Returns the engine and the query's run context.
fn build_run(topo: Topology, opts: InnetOptions) -> (Engine<JoinNode>, Arc<Shared>) {
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 3);
    let sub = MultiTreeSubstrate::build(&topo, 1, default_indexed_attrs(), &data);
    let sh = Arc::new(Shared::new(
        Arc::new(topo.clone()),
        Arc::new(sub),
        query0(3),
        Arc::new(data),
        AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2)).with_innet_options(opts),
    ));
    let node_sh = sh.clone();
    let engine = Engine::new(topo, SimConfig::lossless(), move |id| {
        JoinNode::new(id, node_sh.clone())
    });
    (engine, sh)
}

fn pair_state(pair: Pair, path: Vec<NodeId>, j: Option<u16>) -> PairState {
    PairState {
        pair,
        path: PairPath {
            seq: 0,
            nodes: path.into(),
            j,
        },
        assumed: Sigma::new(0.5, 0.5, 0.2),
        win: WindowJoin::default(),
        stats: PairStats::default(),
    }
}

/// A pair's windows holding `s` on the S side and `t` on the T side.
fn windows(s: &[Tuple], t: &[Tuple]) -> WindowJoin {
    let mut win = WindowJoin::default();
    for (sd, tuples) in [(side::S, s), (side::T, t)] {
        for &tuple in tuples {
            win.push(sd, tuple, tuples.len());
        }
    }
    win
}

/// Bug 1: on an evaluation cycle where a pair has no estimate yet (no
/// tuples received), the cycle counter must advance exactly once — the
/// `learning_tick` at the top of the sampling cycle. The pre-fix code
/// ticked a second time in the no-estimate branch of `evaluate_pair`,
/// so σ = N/T used an inflated T on every evaluation cycle.
#[test]
fn evaluation_cycle_does_not_double_tick() {
    let (mut engine, _) = build_run(ladder(), InnetOptions::PLAIN.with_learning());
    let id = NodeId(5);
    let pair = Pair::new(NodeId(4), NodeId(6));
    engine.node_mut(id).pairs.insert(
        pair,
        pair_state(pair, vec![NodeId(4), NodeId(5), NodeId(6)], Some(1)),
    );
    // Drive sampling cycles 0..=20 directly at the node; the learning
    // interval is 20, so cycle 20 runs an evaluation with no evidence
    // (the node never received a tuple for the pair).
    assert_eq!(LEARN_INTERVAL, 20);
    for c in 0..=20u32 {
        engine.with_node(id, |p, ctx| p.on_sampling_cycle(ctx, c));
    }
    let stats = engine.node(id).pairs[&pair].stats;
    assert_eq!(stats.n_s + stats.n_t, 0, "test premise: no tuples arrived");
    assert_eq!(
        stats.cycles, 21,
        "21 sampling cycles must tick exactly 21 times (double-tick bug)"
    );
}

/// Bug 2: a repaired path that no longer runs through the repairing node
/// must not swallow the in-flight tuple — it is diverted onto the routing
/// tree and reaches the base station.
#[test]
fn in_flight_tuple_survives_desynced_repair() {
    let (mut engine, sh) = build_run(ladder(), InnetOptions::PLAIN);
    // Node 4 holds a (stale/desynced) route 1-2-3 it is not on. Node 2
    // died; the local bypass is 1-6-3 — which does not contain 4 either.
    let repairer = NodeId(4);
    let dead = NodeId(2);
    sh.mark_dead(dead);
    engine.kill(dead);
    let tuple = Tuple::new(NodeId(1), 0);
    let msg = Msg::Data {
        from: NodeId(1),
        sides: side::S,
        tuple: tuple.into(),
        route: Route::Path {
            path: vec![NodeId(1), dead, NodeId(3)].into(),
            start: 0,
            pos: 1,
            end: 2,
        },
        fallback: None,
    };
    engine.with_node(repairer, |p, ctx| p.on_send_failed(ctx, dead, msg));
    engine.run_until_quiet(100);
    let rec = engine.node(repairer).recovery;
    assert_eq!(rec.repair_attempts, 1);
    assert_eq!(rec.repair_successes, 1);
    assert_eq!(
        rec.tuples_rerouted, 1,
        "tuple must be salvaged via tree-up, not dropped"
    );
    assert_eq!(rec.tuples_lost, 0);
    // The tuple actually reached the base station's join windows.
    let base_windows = &engine
        .node(NodeId(0))
        .base_state()
        .expect("base state")
        .join
        .windows;
    assert!(
        base_windows
            .get(&NodeId(1))
            .is_some_and(|k| !k.window(side::S).is_empty()),
        "in-flight tuple must arrive at the base (was silently dropped pre-fix)"
    );
}

/// Bug 3: after a successful local repair the stored producer assignment
/// must be spliced onto the repaired path with a remapped join-node index,
/// not left pointing through the dead node.
#[test]
fn successful_repair_patches_stale_path_and_hops() {
    // Straight line 0(base)-1-2-3 with an arc detour 4-5 above it: when 2
    // dies, the only local bypass is the two-node bridge 1-4-5-3, which
    // changes both the path length and the join node's index.
    let pts = vec![
        Point::new(-1.0, 0.0), // 0: base
        Point::new(0.0, 0.0),  // 1: producer (s)
        Point::new(1.0, 0.0),  // 2: relay, dies
        Point::new(2.0, 0.0),  // 3: join node
        Point::new(0.5, 0.9),  // 4: bridge a
        Point::new(1.5, 0.9),  // 5: bridge b
    ];
    let topo = Topology::from_positions(pts, 1.05, NodeId(0));
    let (mut engine, sh) = build_run(topo, InnetOptions::PLAIN);
    let producer = NodeId(1);
    let dead = NodeId(2);
    let pair = Pair::new(producer, NodeId(3));
    engine.node_mut(producer).assigns.insert(
        pair,
        aspen_join::node::ProducerAssign {
            pair,
            path: PairPath {
                seq: 0,
                nodes: vec![NodeId(1), NodeId(2), NodeId(3)].into(),
                j: Some(2),
            },
            base_mode: false,
        },
    );
    sh.mark_dead(dead);
    engine.kill(dead);
    let msg = Msg::Data {
        from: producer,
        sides: side::S,
        tuple: Tuple::new(producer, 0).into(),
        route: Route::Path {
            path: vec![NodeId(1), NodeId(2), NodeId(3)].into(),
            start: 0,
            pos: 1,
            end: 2,
        },
        fallback: None,
    };
    engine.with_node(producer, |p, ctx| p.on_send_failed(ctx, dead, msg));
    let a = &engine.node(producer).assigns[&pair];
    assert_eq!(
        *a.path.nodes,
        [NodeId(1), NodeId(4), NodeId(5), NodeId(3)],
        "assignment must be spliced onto the repaired path"
    );
    assert_eq!(
        a.path.j,
        Some(3),
        "join-node index remapped on the new path"
    );
    assert!(
        !a.base_mode,
        "a repairable failure must not force base mode"
    );
    assert_eq!(engine.node(producer).recovery.paths_patched, 1);
}

/// A pair whose on-path join node is the base station itself, re-placed at
/// the base by learning, migrates without leaving the base: the pair is
/// re-pinned there with an empty path and empty windows (the at-base
/// matches they held are dropped, not fed to the base's grouped join), the
/// base counts one adopted migration, and both producers are re-assigned
/// to the base.
#[test]
fn base_to_base_migration_repins_the_pair_empty() {
    let (mut engine, _) = build_run(ladder(), InnetOptions::PLAIN.with_learning());
    let base = NodeId(0);
    // s = 5 and t = 1 are both one hop from the base, but the pair's path
    // 5-4-0-1 runs through it at index 2: joining at the base itself, as
    // an on-path node, costs s an extra hop.
    let (s, t) = (NodeId(5), NodeId(1));
    let pair = Pair::new(s, t);
    let mut st = pair_state(pair, vec![s, NodeId(4), base, t], Some(2));
    st.win = windows(&[Tuple::new(s, 0)], &[Tuple::new(t, 0)]);
    // Learned σs = σt = 20/20 and σst = 0 diverge from the assumed
    // (0.5, 0.5, 0.2); with no results to ship, joining at the base
    // (σs + σt) beats every node of the path.
    st.stats = PairStats {
        n_s: 20,
        n_t: 20,
        n_st: 0,
        cycles: LEARN_INTERVAL - 1,
    };
    engine.node_mut(base).pairs.insert(pair, st);
    engine.with_node(base, |p, ctx| p.on_sampling_cycle(ctx, LEARN_INTERVAL));
    engine.run_until_quiet(100);

    let node = engine.node(base);
    assert!(!node.pairs.contains_key(&pair), "no longer held on path");
    let pinned = &node.base_state().expect("base state").pairs[&pair];
    assert_eq!(pinned.path.j, None);
    assert!(pinned.path.nodes.is_empty(), "re-pinned with an empty path");
    assert!(pinned.win.is_empty(), "re-pinned with empty windows");
    assert_eq!(node.migrations_adopted, 1);
    for producer in [s, t] {
        let a = &engine.node(producer).assigns[&pair];
        assert_eq!(a.path.j, None, "{producer:?} re-assigned to the base");
    }
}

/// A migration hand-off lost in flight must re-form the pair at the base
/// with `j = None`: diverting it tree-up while keeping the original
/// `Some(j)` index would make the base adopt a pair whose assignments
/// point at a join node that never received the window state (and trips
/// `send_assign`'s path debug-assert in test builds).
#[test]
fn lost_window_xfer_reforms_pair_at_base() {
    let (mut engine, sh) = build_run(ladder(), InnetOptions::PLAIN.with_learning());
    let carrier = NodeId(5);
    let dead = NodeId(6);
    sh.mark_dead(dead);
    engine.kill(dead);
    let pair = Pair::new(NodeId(4), NodeId(7));
    let tuple = Tuple::new(NodeId(4), 0);
    // A WindowXfer migrating the pair to node 6 (index 2 on its path),
    // abandoned at node 5 because 6 died.
    let msg = Msg::WindowXfer(Box::new(WindowXfer {
        pair,
        path: PairPath {
            seq: 1,
            nodes: vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)].into(),
            j: Some(2),
        },
        assumed: Sigma::new(0.5, 0.5, 0.2),
        win: windows(&[tuple], &[]),
        route: Route::Path {
            path: vec![NodeId(5), NodeId(6)].into(),
            start: 0,
            pos: 1,
            end: 1,
        },
    }));
    engine.with_node(carrier, |p, ctx| p.on_send_failed(ctx, dead, msg));
    engine.run_until_quiet(200);
    let base_pairs = &engine
        .node(NodeId(0))
        .base_state()
        .expect("base state")
        .pairs;
    let adopted = base_pairs.get(&pair).expect("pair re-formed at the base");
    assert_eq!(
        adopted.path.j, None,
        "diverted transfer must target the base"
    );
    assert_eq!(
        adopted.win.window(side::S).len(),
        1,
        "window state survived the hand-off"
    );
}

/// A node isolated from the routing tree (no alive parent) cannot divert
/// a lost WindowXfer anywhere: the migration state is gone, and the
/// recovery metrics must say so instead of counting a phantom salvage.
#[test]
fn stranded_window_xfer_is_counted_as_lost() {
    let (mut engine, sh) = build_run(ladder(), InnetOptions::PLAIN.with_learning());
    // Isolate node 7: its neighbors (3, 6, and diagonal 2) all die.
    let carrier = NodeId(7);
    for d in [2u16, 3, 6] {
        sh.mark_dead(NodeId(d));
        engine.kill(NodeId(d));
    }
    let pair = Pair::new(NodeId(4), NodeId(7));
    let msg = Msg::WindowXfer(Box::new(WindowXfer {
        pair,
        path: PairPath {
            seq: 1,
            nodes: vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)].into(),
            j: Some(2),
        },
        assumed: Sigma::new(0.5, 0.5, 0.2),
        win: windows(
            &[Tuple::new(NodeId(4), 0), Tuple::new(NodeId(4), 1)],
            &[Tuple::new(NodeId(7), 1)],
        ),
        route: Route::Path {
            path: vec![NodeId(7), NodeId(6)].into(),
            start: 0,
            pos: 1,
            end: 1,
        },
    }));
    engine.with_node(carrier, |p, ctx| p.on_send_failed(ctx, NodeId(6), msg));
    engine.run_until_quiet(100);
    let rec = engine.node(carrier).recovery;
    assert_eq!(
        rec.tuples_lost, 3,
        "all three window tuples are unrecoverable and must be counted"
    );
    assert_eq!(rec.tuples_rerouted, 0, "nothing was actually salvaged");
    // The pair did not magically re-form at the base.
    let base_pairs = &engine
        .node(NodeId(0))
        .base_state()
        .expect("base state")
        .pairs;
    assert!(!base_pairs.contains_key(&pair));
}
