//! §7 end-to-end recovery under declarative fault plans: kill a mid-path
//! relay and a join node mid-run and verify that results keep arriving
//! (local repair or base fallback), that death knowledge propagates, and
//! that faulty runs replay deterministically.

use aspen_join::prelude::*;
use aspen_join::{Algorithm, JoinNode};
use sensor_net::NodeId;
use sensor_workload::{query0, WorkloadData};

const CYCLES: u32 = 60;

/// Six `query0` pairs on an 80-node lossless network, on the paper's
/// untagged wire.
fn scenario(seed: u64) -> Session {
    let topo = sensor_net::random_with_degree(80, 7.0, seed);
    let data =
        WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 10)), seed).with_pairs(6);
    Session::builder(topo, data)
        .sim(SimConfig::lossless())
        .query(
            query0(3),
            AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.1)),
        )
        .bare_wire()
        .build()
}

/// Initiate, run `plan` for [`CYCLES`] sampling cycles and report.
fn run(mut s: Session, plan: DynamicsPlan) -> (Session, Outcome) {
    s.set_plan(plan);
    s.step(CYCLES);
    let out = s.report();
    (s, out)
}

/// The session's one query at `id`.
fn node(s: &Session, id: NodeId) -> &JoinNode {
    s.query_node(QueryId(0), id).expect("the query is live")
}

/// An interior relay on some in-network pair's path: neither endpoint,
/// nor the pair's join node, nor the base.
fn pick_relay(s: &Session) -> Option<NodeId> {
    let base = s.topology().base();
    for id in s.topology().node_ids() {
        for a in node(s, id).assigns.values() {
            let path = &a.path.nodes;
            if a.base_mode || path.len() < 3 {
                continue;
            }
            let j = a.path.join_node();
            for &relay in &path[1..path.len() - 1] {
                if relay != base && Some(relay) != j {
                    return Some(relay);
                }
            }
        }
    }
    None
}

#[test]
fn relay_failure_keeps_results_flowing() {
    // Clean baseline.
    let (_, clean) = run(scenario(17), DynamicsPlan::none());
    let clean_results = clean.results_total();
    assert!(clean_results > 0);

    // Same deployment, kill a mid-path relay halfway through.
    let mut faulty = scenario(17);
    faulty.step(0);
    let relay = pick_relay(&faulty).expect("an in-network pair with a relay");
    let plan = DynamicsPlan::none().kill_nodes(CYCLES / 2, vec![relay]);
    let (faulty, outcome) = run(faulty, plan);
    assert_eq!(outcome.killed, vec![(CYCLES / 2, relay)]);

    // Results keep arriving after the failure (repair or base fallback).
    assert!(
        outcome.results_post_event > 0,
        "no results after the relay died"
    );
    let faulty_results = outcome.results_total();
    assert!(
        faulty_results as f64 > clean_results as f64 * 0.5,
        "failure lost too much: {faulty_results} vs {clean_results}"
    );

    // known_dead propagated beyond the node that first saw the failure.
    let aware = faulty
        .topology()
        .node_ids()
        .filter(|&id| node(&faulty, id).known_dead.contains(&relay))
        .count();
    assert!(aware >= 1, "no node learned of the relay's death");

    // The recovery layer actually reacted.
    let rec = outcome.recovery;
    assert!(
        rec.repair_attempts > 0,
        "a dead relay must trigger repair attempts"
    );
    assert!(rec.control_bytes > 0, "recovery control traffic is costed");
}

#[test]
fn join_node_failure_falls_back_via_plan() {
    let (_, clean) = run(scenario(23), DynamicsPlan::none());
    let clean_results = clean.results_total();

    let mut faulty = scenario(23);
    faulty.step(0);
    let victim = faulty.busiest_join_node().expect("a join node exists");
    // `Picked` targets resolve to the busiest join node in the harness.
    let plan = DynamicsPlan::none().kill_picked(CYCLES / 2);
    let (faulty, outcome) = run(faulty, plan);
    assert_eq!(outcome.killed, vec![(CYCLES / 2, victim)]);
    assert!(outcome.results_post_event > 0, "base fallback must deliver");
    assert!(outcome.results_total() as f64 > clean_results as f64 * 0.5);

    // At least one producer switched its pairs to base mode, or the base
    // adopted a fallback-pinned pair.
    let fallbacks: u64 = outcome.recovery.base_fallbacks;
    let base_pinned = node(&faulty, outcome.base)
        .base_state()
        .map(|b| b.pairs.len())
        .unwrap_or(0);
    let any_base_mode = faulty
        .topology()
        .node_ids()
        .any(|id| node(&faulty, id).assigns.values().any(|a| a.base_mode));
    assert!(
        fallbacks > 0 || base_pinned > 0 || any_base_mode,
        "join-node death must push affected pairs toward the base"
    );
}

/// The same plan on the same scenario replays bit-for-bit: dynamics must
/// not introduce nondeterminism (victim draws come from the plan seed,
/// not the engine's link RNG).
#[test]
fn faulty_runs_are_deterministic() {
    let run_once = || {
        let plan = DynamicsPlan::none()
            .with_seed(9)
            .kill_random(CYCLES / 3, 2)
            .kill_picked(CYCLES / 2);
        let (_, outcome) = run(scenario(31), plan);
        outcome
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.killed, b.killed, "same victims");
    assert_eq!(a.results_pre_event, b.results_pre_event);
    assert_eq!(a.results_post_event, b.results_post_event);
    assert_eq!(
        a.per_cycle_tx_bytes, b.per_cycle_tx_bytes,
        "same per-cycle traffic trace"
    );
    assert_eq!(a.results_total(), b.results_total());
    assert_eq!(a.execution, b.execution, "byte-identical execution metrics");
    assert_eq!(a.recovery, b.recovery);
}

/// A loss ramp mid-run degrades delivery without touching liveness, and
/// the engine picks the new probability up at the scheduled boundary.
#[test]
fn loss_ramp_fires_at_cycle_boundary() {
    let log = EventLog::new();
    let mut s = scenario(41);
    s.observe(Box::new(log.clone()));
    let plan = DynamicsPlan::none().shift_loss(CYCLES / 2, 0.35);
    let (_, out) = run(s, plan);
    assert!(log.events().contains(&SessionEvent::LossShifted {
        cycle: CYCLES / 2,
        loss_prob: 0.35
    }));
    // Loss costs retransmissions: failures and retries show up as
    // send_failures or extra attempts, but nobody died.
    assert!(out.killed.is_empty());
}

/// App. G mobility as a dynamics event: a `move@C` re-homes a mobile leaf
/// via the routing substrate and charges the summary-update delay and
/// traffic into the recovery totals. (Pre-fix, `DynamicsPlan` had no move
/// events at all — `mobility::move_leaf` was dormant — so a plan like
/// this one could not even be expressed, let alone charge its costs.)
#[test]
fn scheduled_leaf_move_charges_recovery_stats() {
    let topo = sensor_net::random_with_degree(80, 7.0, 53);
    let center = topo.centroid();
    let victim = if topo.base() == NodeId(79) {
        NodeId(78)
    } else {
        NodeId(79)
    };
    let plan = DynamicsPlan::none()
        .with_seed(53)
        .move_node(CYCLES / 2, victim, center)
        .move_random(CYCLES / 2 + 5);
    assert!(!plan.is_static());
    let run_once = || run(scenario(53), plan.clone()).1;
    let out = run_once();
    assert_eq!(out.recovery.leaf_moves, 2, "both scheduled moves fire");
    // The centroid move always finds in-range parents, so the costs of
    // the updates along the new parents' root-ward paths are nonzero.
    assert!(out.recovery.move_delay_cycles > 0);
    assert!(out.recovery.move_update_bytes > 0);
    // Moves are *events* for the pre/post-event result split.
    assert_eq!(
        out.results_pre_event + out.results_post_event,
        out.results_total()
    );
    // And the mobile run replays bit-for-bit.
    let again = run_once();
    assert_eq!(out.recovery, again.recovery);
    assert_eq!(out.results_total(), again.results_total());
    assert_eq!(out.per_cycle_tx_bytes, again.per_cycle_tx_bytes);
}

/// Events scheduled at or beyond the run length never fire — and must not
/// skew the pre/post-event accounting (pre-fix, `results_post_event`
/// reported every result as post-event for a run with no event at all).
#[test]
fn event_beyond_run_length_does_not_skew_accounting() {
    let plan = DynamicsPlan::none().kill_random(CYCLES + 10, 2);
    let (_, outcome) = run(scenario(47), plan);
    assert!(outcome.killed.is_empty(), "the kill never fires");
    assert_eq!(outcome.results_post_event, 0);
    assert_eq!(outcome.results_pre_event, outcome.results_total());
    assert_eq!(outcome.reconvergence_cycles, None);
}
