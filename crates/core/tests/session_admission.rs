//! Online-admission regression tests for the `Session` layer: a query
//! admitted mid-run over a warm network initiates live, its traffic is
//! accounted to its own flow, and the resident query's computation is
//! unperturbed relative to a solo run. Also: what a `bare_wire()` session
//! refuses (it hosts one static query), and that chunked stepping equals
//! one-shot stepping.

use aspen_join::prelude::*;
use aspen_join::{Algorithm, InnetOptions, QueryId};
use sensor_net::NodeId;
use sensor_workload::{query1, query2, WorkloadData};

/// Radio bytes per node before it dies: enough that the relays near the
/// base deplete within the first few cycles of a roomy run.
const ENERGY_BUDGET: u64 = 1_500;

const RATES: Rates = Rates {
    s_den: 2,
    t_den: 2,
    st_den: 5,
};

/// A deterministic, contention-free simulator: lossless links (no RNG
/// draws at all) and a MAC/queue budget large enough that two queries
/// never compete for transmission slots — so any change to query 0's
/// results could only come from accounting bleeding across queries.
fn roomy_sim(seed: u64) -> SimConfig {
    SimConfig {
        tx_per_cycle: 64,
        queue_capacity: 1024,
        ..SimConfig::lossless().with_seed(seed)
    }
}

fn resident_cfg() -> AlgoConfig {
    AlgoConfig::new(Algorithm::Innet, Sigma::from_rates(RATES)).with_innet_options(InnetOptions::CM)
}

fn admitted_cfg() -> AlgoConfig {
    AlgoConfig::new(Algorithm::Innet, Sigma::from_rates(RATES))
}

fn base_session(seed: u64) -> Session {
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    Session::builder(topo, data)
        .sim(roomy_sim(seed))
        .query(query1(3), resident_cfg())
        .build()
}

const ADMIT_AT: u32 = 10;
const TOTAL: u32 = 24;

#[test]
fn mid_run_admission_leaves_resident_query_unperturbed() {
    let seed = 5;
    // Solo baseline: query 1 alone for the whole run.
    let mut solo = base_session(seed);
    solo.step(TOTAL);
    let solo_out = solo.report();

    // Same network, same seed; a second query admitted at cycle 10 over
    // the warm network.
    let mut duo = base_session(seed);
    duo.step(ADMIT_AT);
    let q2 = duo.admit(query2(1), admitted_cfg());
    assert_eq!(q2, QueryId(1));
    duo.step(TOTAL - ADMIT_AT);
    let duo_out = duo.report();

    // The admission was recorded as a live arrival at the admission cycle.
    assert_eq!(duo_out.arrivals, vec![(ADMIT_AT, 1)]);
    assert_eq!(duo_out.per_query[1].arrival, ADMIT_AT);
    assert!(
        duo_out.unfinished_inits.is_empty(),
        "the admitted query's live initiation must complete within the run"
    );

    // The admitted query actually came online: its live initiation put
    // frames on the air under its own flow (query 1 = flow 2) and it
    // delivered results.
    assert!(
        duo_out.per_query[1].flow.tx_msgs > 0,
        "admitted query put no frames on its own flow"
    );
    assert!(
        duo_out.per_query[1].results > 0,
        "admitted query never delivered"
    );
    // The solo run never had a second flow.
    assert_eq!(solo_out.execution.flow(2).tx_msgs, 0);

    // The headline regression: the resident query's computation is
    // byte-for-byte unperturbed — same results AND same own-flow traffic.
    // Its initiation traffic stays accounted to its flow, the admitted
    // query's to its own.
    assert_eq!(
        duo_out.per_query[0].results, solo_out.per_query[0].results,
        "resident query's results changed when a second query was admitted"
    );
    assert_eq!(
        duo_out.per_query[0].flow, solo_out.per_query[0].flow,
        "resident query's own-flow traffic changed under admission"
    );
    assert_eq!(
        duo_out.per_query[0].avg_delay_tx,
        solo_out.per_query[0].avg_delay_tx
    );
}

/// Admitting before the first step joins the cycle-0 initiation batch
/// instead of scheduling a live initiation.
#[test]
fn admission_before_first_step_joins_the_initiation_batch() {
    let seed = 9;
    let mut s = base_session(seed);
    let q = s.admit(query2(1), admitted_cfg());
    assert_eq!(q, QueryId(1));
    s.step(8);
    let out = s.report();
    assert!(
        out.arrivals.is_empty(),
        "cycle-0 admissions are not live arrivals"
    );
    assert_eq!(out.per_query.len(), 2);
    assert!(out.per_query[0].results > 0);
    assert!(out.per_query[1].results > 0);
}

/// Review regression: a query retired *before* the first step must never
/// come online — the cycle-0 initiation batch skips it, it transmits
/// nothing, and its row reports the frozen zero snapshot honestly.
#[test]
fn retire_before_first_step_sticks() {
    let seed = 27;
    let mut s = base_session(seed);
    let q2 = s.admit(query2(1), admitted_cfg());
    s.retire(q2);
    s.step(12);
    let out = s.report();
    assert_eq!(
        out.per_query[1].flow.tx_msgs, 0,
        "pre-step-retired query put frames on the air"
    );
    assert_eq!(out.per_query[1].results, 0);
    assert_eq!(out.per_query[1].departure, Some(0));
    // The resident query is unaffected.
    assert!(out.per_query[0].results > 0);
}

/// Review regression: an observer attached mid-run must not receive the
/// whole history of migrations/repairs lumped into its first cycle — its
/// event stream from cycle N on must equal a from-start observer's.
#[test]
fn mid_run_observer_attach_does_not_lump_history() {
    const WARM: u32 = 30;
    // A learning configuration with wrong initial selectivities migrates
    // pairs as estimates arrive — guaranteed counter activity.
    let mk = || {
        let seed = 7;
        let topo = sensor_net::random_with_degree(60, 7.0, seed);
        let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
        Session::builder(topo, data)
            .sim(roomy_sim(seed))
            .query(
                query1(3),
                AlgoConfig::new(Algorithm::Innet, Sigma::new(1.0, 1.0, 1.0))
                    .with_innet_options(InnetOptions::CM.with_learning()),
            )
            .build()
    };
    let migrations_after_warm = |events: Vec<SessionEvent>| -> Vec<(u32, u64)> {
        events
            .into_iter()
            .filter_map(|e| match e {
                SessionEvent::PairsMigrated { cycle, count } if cycle >= WARM => {
                    Some((cycle, count))
                }
                _ => None,
            })
            .collect()
    };
    // Reference: observer attached from the start.
    let from_start = {
        let log = EventLog::new();
        let mut s = mk();
        s.observe(Box::new(log.clone()));
        s.step(WARM + 20);
        migrations_after_warm(log.events())
    };
    // Same run, observer attached only after the warm-up.
    let attached_late = {
        let log = EventLog::new();
        let mut s = mk();
        s.step(WARM);
        s.observe(Box::new(log.clone()));
        s.step(20);
        migrations_after_warm(log.events())
    };
    assert_eq!(
        attached_late, from_start,
        "late-attached observer saw a different (history-lumped) stream"
    );
    assert!(
        !from_start.is_empty(),
        "test vacuous: the learner never migrated a pair"
    );
}

/// Retirement snapshots the query's counters, stops its traffic, and
/// leaves the other query running.
#[test]
fn retire_stops_a_query_and_keeps_its_snapshot() {
    let seed = 13;
    let mut s = base_session(seed);
    let q2 = s.admit(query2(1), admitted_cfg());
    s.step(10);
    s.retire(q2);
    let mid = s.report();
    let retired_at = mid.per_query[1].results;
    let resident_at = mid.per_query[0].results;
    assert!(retired_at > 0, "query delivered nothing before retirement");
    s.step(10);
    let out = s.report();
    // The snapshot froze at retirement...
    assert_eq!(out.per_query[1].results, retired_at);
    assert_eq!(out.per_query[1].departure, Some(10));
    assert_eq!(out.departures, vec![(10, 1)]);
    // ...while the resident query kept producing.
    assert!(out.per_query[0].results > resident_at);
    // Retiring again is a no-op.
    s.retire(q2);
    assert_eq!(s.report().departures, vec![(10, 1)]);
}

/// The event stream covers the whole lifecycle: phases, admissions,
/// retirements, kills.
#[test]
fn observer_sees_the_lifecycle() {
    let seed = 21;
    let log = EventLog::new();
    let mut s = base_session(seed);
    s.observe(Box::new(log.clone()));
    s.step(4);
    let q2 = s.admit(query2(1), admitted_cfg());
    s.step(6);
    s.retire(q2);
    if let Some(v) = s.busiest_join_node() {
        s.kill(v);
    }
    s.step(4);
    let events = log.events();
    assert!(events.contains(&SessionEvent::PhaseTransition {
        cycle: 0,
        phase: Phase::Initiation
    }));
    assert!(events.contains(&SessionEvent::PhaseTransition {
        cycle: 0,
        phase: Phase::Execution
    }));
    assert!(events.contains(&SessionEvent::Admitted {
        cycle: 0,
        query: QueryId(0)
    }));
    assert!(events.contains(&SessionEvent::Admitted {
        cycle: 4,
        query: QueryId(1)
    }));
    assert!(events.contains(&SessionEvent::Retired {
        cycle: 10,
        query: QueryId(1)
    }));
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SessionEvent::NodeKilled { .. })),
        "manual kill must be observable"
    );
}

/// Review regression: retiring queries must not deflate the network-wide
/// recovery totals — the retired instances' counters are absorbed, not
/// discarded with their protocol state.
#[test]
fn recovery_totals_survive_retirement() {
    let seed = 33;
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    let mut s = Session::builder(topo, data)
        .sim(roomy_sim(seed))
        .query(query1(3), resident_cfg())
        .query(query2(1), resident_cfg())
        // Kill the busiest join node mid-run so both queries react (§7).
        .plan(DynamicsPlan::none().kill_picked(6))
        .build();
    s.step(14);
    let before = s.report().recovery;
    assert!(
        before.repair_attempts + before.tuples_lost + before.base_fallbacks > 0,
        "test vacuous: the kill produced no recovery activity"
    );
    s.retire(QueryId(0));
    s.retire(QueryId(1));
    let after = s.report().recovery;
    assert_eq!(
        after, before,
        "retirement dropped recovery counters with the retired state"
    );
}

/// A death is a fact about the network, not about the queries present
/// when it happened: a query admitted after deaths by every route — a
/// `Session::kill`, a plan kill and energy depletion — starts out with all
/// of them in its liveness oracle, and with nobody else.
#[test]
fn late_admission_inherits_every_death() {
    let seed = 11;
    let (manual, planned) = (NodeId(7), NodeId(13));
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    let mut s = Session::builder(topo, data)
        .sim(roomy_sim(seed).with_energy_budget(ENERGY_BUDGET))
        .query(query1(3), resident_cfg())
        .plan(DynamicsPlan::none().kill_nodes(4, vec![planned]))
        .build();
    s.step(2);
    s.kill(manual);
    s.step(8);
    let killed = s.report().killed;
    assert!(
        killed.contains(&(2, manual)),
        "the manual kill was not recorded"
    );
    assert!(killed.contains(&(4, planned)), "the plan kill did not fire");
    assert!(
        killed.len() > 2,
        "test vacuous: no node depleted its energy budget"
    );
    let victims: Vec<NodeId> = killed.iter().map(|&(_, v)| v).collect();
    let q = s.admit(query2(1), admitted_cfg());
    s.step(1);
    let base = s.topology().base();
    let sh = &s
        .query_node(q, base)
        .expect("the admitted query is live")
        .sh;
    for &v in &victims {
        assert!(
            sh.is_dead(v),
            "the admitted query missed the death of {v:?}"
        );
    }
    let all_dead: Vec<NodeId> = s.report().killed.iter().map(|&(_, v)| v).collect();
    let bystander = s
        .topology()
        .node_ids()
        .find(|&v| v != base && !all_dead.contains(&v))
        .expect("a node survived");
    let sh = &s
        .query_node(q, base)
        .expect("the admitted query is live")
        .sh;
    assert!(!sh.is_dead(bystander), "{bystander:?} never died");
}

/// Review regression: `Session::kill` counts as an event — the Outcome's
/// pre/post-event result split must not silently report "no event".
#[test]
fn manual_kill_feeds_the_pre_post_event_split() {
    let mut s = base_session(17);
    s.step(12);
    let victim = s.busiest_join_node().expect("a join node exists");
    s.kill(victim);
    s.step(12);
    let out = s.report();
    assert!(!out.killed.is_empty());
    assert!(out.results_pre_event > 0, "pre-kill results missing");
    assert!(out.results_post_event > 0, "post-kill results missing");
    assert_eq!(
        out.results_pre_event + out.results_post_event,
        out.results_total()
    );
}

/// `run_until` advances until the predicate fires on a completed cycle.
#[test]
fn run_until_stops_on_predicate() {
    let mut s = base_session(3);
    let advanced = s.run_until(|view| view.results > 50 || view.cycle >= 30);
    assert!(advanced > 0);
    let out = s.report();
    assert!(out.results_total() > 50 || s.cycle() >= 30);
    assert_eq!(s.cycle(), advanced);
}

/// The untagged wire carries exactly one query: a `bare_wire()` session
/// refuses every control verb that would add or remove one, and its one
/// query's own flow is the whole execution (no cross-query frames).
#[test]
fn bare_wire_session_hosts_exactly_one_query() {
    let seed = 19;
    let mk = || {
        let topo = sensor_net::random_with_degree(60, 7.0, seed);
        let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
        Session::builder(topo, data)
            .sim(SimConfig::default().with_seed(seed))
            .query(query1(3), resident_cfg())
            .bare_wire()
            .build()
    };
    let mut s = mk();
    s.step(6);
    for cmd in [
        Command::Admit {
            algo: "innet".into(),
            sql: "SELECT S.id FROM S, T [windowsize=3] WHERE S.x = T.y".into(),
        },
        Command::AdmitGraph {
            algo: "innet".into(),
            sql: "SELECT A.id FROM A, B [windowsize=3] WHERE A.x = B.y".into(),
        },
        Command::Retire(Target::Query(QueryId(0))),
    ] {
        let verb = cmd.encode();
        match s.apply(cmd) {
            Response::Rejected(ControlError::Unsupported(_)) => {}
            other => panic!("{verb}: {other:?}"),
        }
    }
    s.step(6);
    let out = s.report();
    assert_eq!(out.per_query.len(), 1);
    assert!(out.results_total() > 0);
    let flow = out.per_query[0].flow;
    let nodes = out.execution.per_node();
    assert!(flow.tx_msgs > 0);
    assert_eq!(flow.tx_bytes, out.execution.total_tx_bytes());
    assert_eq!(flow.tx_msgs, out.execution.total_tx_msgs());
    assert_eq!(flow.rx_bytes, nodes.iter().map(|n| n.rx_bytes).sum::<u64>());
    assert_eq!(flow.rx_msgs, nodes.iter().map(|n| n.rx_msgs).sum::<u64>());
    assert_eq!(out.shared_flow, Default::default());

    let admit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        mk().admit(query2(1), admitted_cfg())
    }));
    assert!(admit.is_err(), "admit on a bare-wire session must panic");
}

/// The session agrees with itself even when stepping is chunked:
/// step(a); step(b) == step(a + b).
#[test]
fn chunked_stepping_matches_one_shot() {
    let seed = 17;
    let mk = || {
        let topo = sensor_net::random_with_degree(60, 7.0, seed);
        let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
        Session::builder(topo, data)
            .sim(SimConfig::default().with_seed(seed))
            .query(query1(3), resident_cfg())
            .bare_wire()
            .build()
    };
    let one_shot = {
        let mut s = mk();
        s.step(18);
        s.report()
    };
    let chunked = {
        let mut s = mk();
        s.step(5);
        s.step(13);
        s.report()
    };
    // Chunking must not drain between chunks: identical traffic + results.
    assert_eq!(chunked.execution, one_shot.execution);
    assert_eq!(chunked.results_total(), one_shot.results_total());
    assert_eq!(chunked.per_cycle_tx_bytes, one_shot.per_cycle_tx_bytes);
}

/// Untagged frames cannot be aggregated across queries: a bare-wire
/// session with shared-tree delivery is refused at build time.
#[test]
#[should_panic(expected = "untagged frames cannot be aggregated")]
fn bare_wire_rejects_shared_tree_delivery() {
    let topo = sensor_net::random_with_degree(30, 7.0, 1);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), 1);
    Session::builder(topo, data)
        .sharing(Sharing::SharedTree)
        .query(query1(3), resident_cfg())
        .bare_wire()
        .build();
}

/// Result delay is measured against the session's own sampling interval:
/// with 4 transmission cycles per sampling cycle, a result generated in
/// cycle `c` was born at transmission cycle `4c`, and its trip to the
/// base takes time.
#[test]
fn short_sampling_cycles_report_a_positive_delay() {
    let seed = 5;
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    let mut s = Session::builder(topo, data)
        .sim(SimConfig {
            tx_per_sampling_cycle: 4,
            ..roomy_sim(seed)
        })
        .query(query1(3), resident_cfg())
        .build();
    s.step(TOTAL);
    let out = s.report();
    assert!(out.results_total() > 0, "no results to time");
    assert!(out.avg_delay_tx() > 0.0, "delay {}", out.avg_delay_tx());
}

/// A path-collapsing query admitted over the wire's session (no snooping
/// set by the caller) still overhears its relays: some node reports a
/// cross-link to a producer, which records it.
#[test]
fn served_path_collapse_query_snoops_cross_links() {
    let spec = aspen_join::control::OpenSpec {
        nodes: 80,
        degree: 9.0,
        seed: 3,
    };
    let mut session = aspen_join::control::open_session(&spec);
    let resp = session.apply(Command::Admit {
        algo: "innet-cmp".into(),
        sql: "SELECT s.id, t.id FROM s, t [windowsize=2 sampleinterval=100] \
              WHERE s.id < 40 AND t.id >= 40 AND s.u = t.u"
            .into(),
    });
    let Response::Admitted(Target::Query(q)) = resp else {
        panic!("{resp:?}")
    };
    session.step(20);
    let (mut reported, mut recorded) = (0, 0);
    for n in session.topology().node_ids() {
        if let Some(jn) = session.query_node(q, n) {
            reported += jn.reported_links.len();
            recorded += jn.cross_links.len();
        }
    }
    assert!(reported > 0, "no relay reported a cross-link");
    assert!(recorded > 0, "no producer recorded a cross-link");
}
