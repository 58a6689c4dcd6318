//! Cross-crate integration tests through the `aspen` facade: parse a
//! StreamSQL query, route it over the substrate, execute it with the
//! optimizer, and check the moving parts against each other.

use aspen::join::prelude::*;
use aspen::join::Algorithm;
use aspen::net::{NodeId, Topology};
use aspen::query::parser::parse_query;
use aspen::query::JoinQuerySpec;
use aspen::routing::substrate::MultiTreeSubstrate;
use aspen::workload::{query2, WorkloadData};

/// A session on the paper's untagged wire hosting `spec` under `cfg`.
fn session(
    topo: Topology,
    data: WorkloadData,
    spec: JoinQuerySpec,
    cfg: AlgoConfig,
    sim: SimConfig,
) -> Session {
    Session::builder(topo, data)
        .sim(sim)
        .query(spec, cfg)
        .bare_wire()
        .build()
}

#[test]
fn parsed_query_runs_end_to_end() {
    let spec = parse_query(
        "SELECT S.id, T.id FROM S, T [windowsize=3] \
         WHERE S.id < 25 AND T.id > 50 AND S.x = T.y + 5 AND S.u = T.u \
         AND S.adc0 = 0 AND T.adc1 = 0",
    )
    .expect("parse");
    let topo = aspen::net::random_with_degree(80, 7.0, 31);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 31);
    let mut session = session(
        topo,
        data,
        spec,
        AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2)),
        SimConfig::lossless(),
    );
    session.step(30);
    let stats = session.report();
    assert!(
        stats.results_total() > 0,
        "parsed query produced no results"
    );
}

#[test]
fn substrate_search_agrees_with_protocol_assignments() {
    // The offline path oracle and the distributed exploration must agree
    // on which pairs exist.
    let topo = aspen::net::random_with_degree(80, 7.0, 33);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 10)), 33);
    let spec = query2(1);
    let mut run = session(
        topo.clone(),
        data.clone(),
        spec.clone(),
        AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.1)),
        SimConfig::lossless(),
    );
    run.step(0);
    // Pairs discovered by the protocol (producer-side assignments).
    let mut proto_pairs = std::collections::BTreeSet::new();
    for i in 0..topo.len() as u16 {
        let node = run.query_node(QueryId(0), NodeId(i)).expect("live query");
        for p in node.assigns.keys() {
            proto_pairs.insert((p.s, p.t));
        }
    }
    // Oracle pairs via the substrate search.
    let sub = MultiTreeSubstrate::build(
        &topo,
        3,
        aspen::join::scenario::default_indexed_attrs(),
        &data,
    );
    let mut oracle_pairs = std::collections::BTreeSet::new();
    for s in topo.node_ids() {
        let st = data.static_of(s);
        if s == topo.base() || !spec.analysis.s_eligible(st) {
            continue;
        }
        let q = aspen::routing::search::SearchQuery::new(spec.plan.search_constraints(st));
        let (results, _) = aspen::routing::search::find_paths(&sub, s, &q);
        for r in results {
            if r.target != topo.base()
                && spec.analysis.t_eligible(data.static_of(r.target))
                && spec.plan.verify_pair(st, data.static_of(r.target))
            {
                oracle_pairs.insert((s, r.target));
            }
        }
    }
    assert_eq!(
        proto_pairs, oracle_pairs,
        "distributed exploration diverged from the search oracle"
    );
    assert!(!oracle_pairs.is_empty(), "no pairs — vacuous test");
}

#[test]
fn mesh_profile_message_counts_track_bytes() {
    // Appendix F: the mesh profile reports messages. Message counts and
    // byte counts must rank the algorithms consistently here (same runs).
    let topo = aspen::net::random_with_degree(80, 7.0, 35);
    let mut totals = Vec::new();
    for algo in [Algorithm::Naive, Algorithm::Base] {
        let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 35);
        let mut session = session(
            topo.clone(),
            data,
            aspen::workload::query1(3),
            AlgoConfig::new(algo, Sigma::new(0.5, 0.5, 0.2)),
            SimConfig::lossless(),
        );
        session.step(40);
        let st = session.report();
        totals.push((st.total_traffic_msgs(), st.total_traffic_bytes()));
    }
    assert!(
        totals[1].0 < totals[0].0,
        "Base must beat Naive in messages"
    );
    assert!(totals[1].1 < totals[0].1, "Base must beat Naive in bytes");
}

#[test]
fn lossy_network_still_computes_most_results() {
    let topo = aspen::net::random_with_degree(80, 7.0, 37);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 37);
    let spec = aspen::workload::query1(3);
    let mk = |loss: f64| {
        let mut session = session(
            topo.clone(),
            data.clone(),
            spec.clone(),
            AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2)),
            SimConfig::default().with_loss(loss).with_seed(1),
        );
        session.step(40);
        session.report()
    };
    let clean = mk(0.0);
    let lossy = mk(0.10);
    // Retransmissions cost extra traffic...
    assert!(lossy.total_traffic_bytes() > clean.total_traffic_bytes());
    // ...but link-layer recovery keeps the computation intact.
    assert!(
        lossy.results_total() as f64 > clean.results_total() as f64 * 0.8,
        "losing too many results under 10% loss: {} vs {}",
        lossy.results_total(),
        clean.results_total()
    );
}

#[test]
fn three_trees_find_shorter_paths_than_one() {
    // App. C's headline: multi-tree routing shortens discovered paths.
    let topo = aspen::net::random_with_degree(100, 7.0, 39);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 39);
    let measure = |trees: usize| {
        let sub = MultiTreeSubstrate::build(
            &topo,
            trees,
            aspen::join::scenario::default_indexed_attrs(),
            &data,
        );
        let mut total = 0usize;
        let mut count = 0usize;
        for s in (1..100u16).step_by(7) {
            for t in (2..100u16).step_by(11) {
                if s == t {
                    continue;
                }
                let q = aspen::routing::search::SearchQuery::new(vec![(
                    aspen::query::schema::ATTR_ID,
                    aspen::summaries::Constraint::Eq(t),
                )]);
                let (results, _) = aspen::routing::search::find_paths(&sub, NodeId(s), &q);
                if let Some(best) = results.iter().map(|r| r.path.len()).min() {
                    total += best - 1;
                    count += 1;
                }
            }
        }
        total as f64 / count as f64
    };
    let one = measure(1);
    let three = measure(3);
    assert!(
        three < one * 0.85,
        "3 trees ({three:.2} hops) should clearly beat 1 tree ({one:.2})"
    );
}

#[test]
fn repair_and_mobility_work_on_the_same_substrate() {
    let topo = aspen::net::random_with_degree(80, 8.0, 41);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 41);
    let sub = MultiTreeSubstrate::build(
        &topo,
        3,
        aspen::join::scenario::default_indexed_attrs(),
        &data,
    );
    // Mobility: re-home a leaf near the centroid.
    let mv = aspen::routing::mobility::move_leaf(&topo, &sub, NodeId(79), topo.centroid());
    assert!(mv.new_parents.iter().any(Option::is_some));
    // Repair: break a mid-path node on some tree path.
    let path = sub.primary().path_between(NodeId(10), NodeId(70));
    if path.len() >= 3 {
        let failed = path[path.len() / 2];
        let repaired = aspen::routing::repair::repair_path(&topo, &path, failed, |n| n != failed);
        if let Some(r) = repaired {
            assert!(!r.contains(&failed));
        }
    }
}
