//! Work guard for the engine's per-node cost: on a large network where a
//! handful of nodes carry the query, a sampling cycle visits the nodes
//! that can act, not every node. Counts `Engine::node_visits` (one per
//! node transmit pass, one per sampling tick dispatched); measures no
//! time. An engine that swept every node would visit 2,000 per tick pass
//! plus 2,000 per transmission cycle: 53,450 per sampling cycle here,
//! against the 153 pinned below.

use aspen::join::prelude::*;
use aspen::net::random_with_degree;
use aspen::workload::WorkloadData;

/// The pairwise query of the repository benchmark's `sparse_large`: 3 x 4
/// producers (node 0 is the base) in a field of 2,000 nodes.
const SPARSE_SQL: &str = "SELECT s.id, t.id FROM s, t \
     [windowsize=3 sampleinterval=100] \
     WHERE s.id < 4 AND t.id >= 4 AND t.id < 8 AND s.u = t.u";

const WARMUP: u32 = 20;
const MEASURED: u32 = 200;

/// Node visits over the measured cycles and in the busiest one of them,
/// as measured when the engine began to skip idle nodes. Exact: the
/// counts are deterministic.
const PINNED_VISITS: (u64, u64) = (30_678, 174);

#[test]
fn sparse_session_visits_only_nodes_that_can_act() {
    let topo = random_with_degree(2000, 10.0, 1);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 1);
    let sim = SimConfig {
        tx_per_cycle: 64,
        queue_capacity: 1024,
        ..SimConfig::lossless().with_seed(1)
    };
    let mut session = Session::builder(topo, data).sim(sim).allow_empty().build();
    let resp = session.apply(Command::Admit {
        algo: "innet-cmg".into(),
        sql: SPARSE_SQL.into(),
    });
    assert!(matches!(resp, Response::Admitted(_)), "{resp:?}");
    session.step(WARMUP);
    let mut busiest = 0;
    let start = session.node_visits();
    for _ in 0..MEASURED {
        let before = session.node_visits();
        session.step(1);
        busiest = busiest.max(session.node_visits() - before);
    }
    let visits = session.node_visits() - start;
    let report = session.report();
    assert!(report.results_total() > 0, "the query produced nothing");
    assert_eq!(report.queue_drops(), 0);
    println!(
        "{visits} visits over {MEASURED} cycles ({} per cycle, busiest {busiest})",
        visits / u64::from(MEASURED)
    );
    assert_eq!((visits, busiest), PINNED_VISITS);
}
