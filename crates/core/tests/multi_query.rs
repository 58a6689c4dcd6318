//! End-to-end tests of the multi-query subsystem: concurrent mixed
//! workloads over one shared network, per-query accounting, lifecycle
//! (staggered arrival / departure), determinism, and the headline
//! regression — shared-tree frame aggregation beats independent per-query
//! delivery on base load under contention.

use aspen_join::prelude::*;
use aspen_join::{Algorithm, InnetOptions};
use sensor_workload::{query1, query2, WorkloadData};

const RATES: Rates = Rates {
    s_den: 2,
    t_den: 2,
    st_den: 5,
};

fn algo_cfg(algo: Algorithm, opts: InnetOptions) -> AlgoConfig {
    AlgoConfig::new(algo, Sigma::from_rates(RATES)).with_innet_options(opts)
}

/// Build, initiate, run `cycles` sampling cycles and report.
fn run_multi(b: SessionBuilder, cycles: u32) -> Outcome {
    let mut s = b.build();
    s.step(cycles);
    s.report()
}

/// The 60-node network of `seed` with the default workload.
fn network(seed: u64) -> SessionBuilder {
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    Session::builder(topo, data)
}

/// A `k`-query mixed workload (alternating Query 1 / Query 2) on the
/// standard 60-node network, all queries present from cycle 0.
fn mixed_set(k: usize, sharing: Sharing, algo: Algorithm, opts: InnetOptions) -> SessionBuilder {
    let seed = 11;
    let mut b = network(seed)
        .sim(SimConfig::default().with_seed(seed).with_fair_mac(true))
        .sharing(sharing);
    for i in 0..k {
        let spec = if i % 2 == 0 { query1(3) } else { query2(1) };
        b = b.query(spec, algo_cfg(algo, opts));
    }
    b
}

#[test]
fn mixed_queries_each_deliver_results() {
    // Independent mode so every query's traffic stays on its own flow (in
    // shared mode a fully-aggregated query legitimately has no solo
    // frames).
    let stats = run_multi(
        mixed_set(4, Sharing::Independent, Algorithm::Innet, InnetOptions::CMG),
        12,
    );
    assert_eq!(stats.per_query.len(), 4);
    for (q, qs) in stats.per_query.iter().enumerate() {
        assert!(qs.results > 0, "query {q} ({}) delivered nothing", qs.name);
        assert!(qs.flow.tx_msgs > 0, "query {q} put no frames on the air");
    }
    assert_eq!(
        stats.results_total(),
        stats.per_query.iter().map(|q| q.results).sum::<u64>()
    );
    assert!(stats.total_traffic_bytes() > 0);
    assert_eq!(
        stats.expired_frames, 0,
        "no query departed, nothing may expire"
    );
}

/// Per-flow traffic is genuinely separable: flow totals (shared + per
/// query) must add up to the execution totals.
#[test]
fn flow_accounting_adds_up() {
    let stats = run_multi(
        mixed_set(3, Sharing::SharedTree, Algorithm::Innet, InnetOptions::CM),
        10,
    );
    let flow_tx: u64 =
        stats.shared_flow.tx_bytes + stats.per_query.iter().map(|q| q.flow.tx_bytes).sum::<u64>();
    assert_eq!(flow_tx, stats.execution.total_tx_bytes());
    let flow_msgs: u64 =
        stats.shared_flow.tx_msgs + stats.per_query.iter().map(|q| q.flow.tx_msgs).sum::<u64>();
    assert_eq!(flow_msgs, stats.execution.total_tx_msgs());
}

/// The acceptance regression: under a ≥4-query contended workload,
/// shared-tree frame aggregation must beat independent per-query delivery
/// on base-station load (and not lose on total traffic) — co-routed
/// frames near the base share link headers and MAC slots.
#[test]
fn shared_tree_beats_independent_on_base_load_under_contention() {
    let run = |sharing| {
        run_multi(
            mixed_set(4, sharing, Algorithm::Innet, InnetOptions::CMG),
            12,
        )
    };
    let indep = run(Sharing::Independent);
    let shared = run(Sharing::SharedTree);
    // Aggregation actually engaged...
    assert!(
        shared.shared_flow.tx_msgs > 0,
        "no batch frames were formed"
    );
    assert_eq!(
        indep.shared_flow.tx_msgs, 0,
        "independent mode must not batch"
    );
    // ...and paid off where contention concentrates: the base's radio.
    assert!(
        shared.base_load_bytes() < indep.base_load_bytes(),
        "shared {} >= independent {}",
        shared.base_load_bytes(),
        indep.base_load_bytes()
    );
    assert!(
        shared.total_traffic_bytes() < indep.total_traffic_bytes(),
        "aggregation should also reduce total traffic ({} vs {})",
        shared.total_traffic_bytes(),
        indep.total_traffic_bytes()
    );
    // Fewer frames must not cost completeness: at least as many results
    // arrive overall (merging never drops payloads).
    assert!(shared.results_total() + 5 >= indep.results_total());
}

/// Energy-budget deaths must reach the protocol layer like plan kills:
/// depleted nodes appear in the outcome's kill list, every query's
/// liveness oracle learns of them, and their discarded queues count as
/// lost messages.
#[test]
fn energy_depletion_propagates_to_queries() {
    let seed = 11;
    let cfg = algo_cfg(Algorithm::Innet, InnetOptions::CM);
    let mut s = network(seed)
        .sim(
            SimConfig::default()
                .with_seed(seed)
                .with_fair_mac(true)
                // Tight budget: relays deplete within a few cycles.
                .with_energy_budget(2_000),
        )
        .sharing(Sharing::SharedTree)
        .query(query1(3), cfg)
        .query(query2(1), cfg)
        .build();
    s.step(12);
    let outcome = s.report();
    assert!(
        !outcome.killed.is_empty(),
        "no node depleted under 2KB budget"
    );
    for &(_, v) in &outcome.killed {
        for q in [QueryId(0), QueryId(1)] {
            let sh = &s.query_node(q, outcome.base).expect("live query").sh;
            assert!(sh.is_dead(v), "query liveness oracle missed death of {v:?}");
        }
    }
    // A depleted node is dead to the radio: it transmits nothing more.
    s.step(4);
    let later = s.report();
    for &(_, v) in &outcome.killed {
        assert_eq!(
            later.execution.per_node()[v.index()].tx_msgs,
            outcome.execution.per_node()[v.index()].tx_msgs,
            "depleted node {v:?} kept transmitting"
        );
    }
}

/// Same scenario twice ⇒ byte-identical metrics and identical per-query
/// results (the multi-query determinism contract).
#[test]
fn multi_run_is_deterministic() {
    let run = || {
        run_multi(
            mixed_set(3, Sharing::SharedTree, Algorithm::Innet, InnetOptions::CMG),
            8,
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.execution, b.execution);
    assert_eq!(a.initiation, b.initiation);
    for (qa, qb) in a.per_query.iter().zip(&b.per_query) {
        assert_eq!(qa.results, qb.results);
        assert_eq!(qa.flow, qb.flow);
    }
}

/// Staggered lifecycle: a query arriving mid-run initiates live and then
/// delivers; a query departing mid-run keeps its snapshot and stops
/// consuming the network.
#[test]
fn lifecycle_arrival_and_departure() {
    let seed = 23;
    let mut run = network(seed)
        .sim(SimConfig::default().with_seed(seed).with_fair_mac(true))
        .sharing(Sharing::SharedTree)
        .query_instance(QueryInstance {
            spec: query1(3),
            cfg: algo_cfg(Algorithm::Innet, InnetOptions::CM),
            lifecycle: Lifecycle {
                arrival: 0,
                departure: Some(10),
            },
        })
        .query_arriving(
            6,
            query2(1),
            algo_cfg(Algorithm::Naive, InnetOptions::PLAIN),
        )
        .build();
    run.step(20);
    let stats = run.report();
    assert_eq!(stats.arrivals, vec![(6, 1)]);
    assert_eq!(stats.departures, vec![(10, 0)]);
    // The departed query delivered while present and its snapshot survived
    // deactivation.
    assert!(stats.per_query[0].results > 0, "query 0 never delivered");
    assert_eq!(stats.per_query[0].departure, Some(10));
    // The late arrival initiated live (no harness pause) and delivered.
    assert!(
        stats.per_query[1].results > 0,
        "late arrival never delivered"
    );
    assert_eq!(stats.per_query[1].arrival, 6);
    // A departed query has no slot at the base.
    assert!(run.query_node(QueryId(0), stats.base).is_none());
}

/// The departed query's absence is real: the same scenario without the
/// departure delivers strictly more for that query.
#[test]
fn departure_stops_a_query() {
    let build = |departure: Option<u32>| {
        let seed = 31;
        let set = network(seed)
            .sim(SimConfig::default().with_seed(seed))
            .query_instance(QueryInstance {
                spec: query1(3),
                cfg: algo_cfg(Algorithm::Innet, InnetOptions::CM),
                lifecycle: Lifecycle {
                    arrival: 0,
                    departure,
                },
            })
            .query(query2(1), algo_cfg(Algorithm::Innet, InnetOptions::CM));
        run_multi(set, 16)
    };
    let cut_short = build(Some(6));
    let full = build(None);
    assert!(
        cut_short.per_query[0].results < full.per_query[0].results,
        "departure at 6 must cost query 0 results ({} vs {})",
        cut_short.per_query[0].results,
        full.per_query[0].results
    );
    // The resident query keeps running either way.
    assert!(cut_short.per_query[1].results > 0);
}

/// N identical single-query scenarios cost roughly N× one query; the
/// tagged wire must reproduce the untagged single-query results when run
/// with one member (degenerate-case parity with `bare_wire`).
#[test]
fn single_member_query_set_matches_bare_wire() {
    let seed = 7;
    let one = || {
        network(seed)
            .sim(SimConfig::lossless().with_seed(seed))
            .query(query1(3), algo_cfg(Algorithm::Innet, InnetOptions::PLAIN))
    };
    let single = run_multi(one().bare_wire(), 10);
    let multi = run_multi(one(), 10);
    // Same join computation: identical result counts. (Traffic differs by
    // exactly the per-frame query tag, so compare message counts instead.)
    assert_eq!(multi.per_query[0].results, single.results_total());
    assert_eq!(
        multi.execution.total_tx_msgs(),
        single.execution.total_tx_msgs()
    );
}
