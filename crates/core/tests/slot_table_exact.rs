//! Exactness nets under the session's per-node slot table and its
//! sampling-tick gate. Both pass unchanged at the commit before the table
//! went live-only, which is the point: they pin behaviour, not structure.
//!
//! - A tagged session and a `bare_wire()` one run the same query through
//!   the same slot table and tick gate; they differ only in the modelled
//!   query tag (one byte per frame, or none). Algorithm by algorithm, the
//!   two must agree on everything but that byte.
//! - A fixed churn script's final `REPORT` line is compared with a fixture
//!   taken at that earlier commit. Re-take it (only for an intended
//!   change of behaviour) with
//!   `BLESS=1 cargo test -p aspen_join --test slot_table_exact`.

use aspen_join::multi::QUERY_TAG_BYTES;
use aspen_join::prelude::*;
use aspen_join::shared::{algo_name, parse_algo};
use aspen_join::{Algorithm, InnetOptions};
use sensor_workload::{query1, query2, WorkloadData};
use std::path::PathBuf;

const RATES: Rates = Rates {
    s_den: 2,
    t_den: 2,
    st_den: 5,
};

/// The evaluation's 11 algorithm variants, as the wire names them.
const ALGOS: [&str; 11] = [
    "naive",
    "base",
    "ght",
    "yang+07",
    "innet",
    "innet-cm",
    "innet-cmp",
    "innet-cmg",
    "innet-cmpg",
    "innet-learn",
    "innet-cmg-learn",
];

/// What the differential compares of one run.
struct Observed {
    outcome: Outcome,
    migrated: u64,
    xfer_bytes: u64,
}

/// `query1` as `algo` on a small lossless network with MAC room to spare
/// (so the tag byte cannot reorder anything), 45 cycles: past two learning
/// evaluations, so the learning variants migrate.
fn run_single(algo: &str, bare: bool) -> Observed {
    let (a, opts) = parse_algo(algo).expect("known algorithm");
    let seed = 13;
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    let sim = SimConfig {
        tx_per_cycle: 64,
        queue_capacity: 1024,
        ..SimConfig::lossless().with_seed(seed)
    };
    // Placement assumes selectivities far from the workload's, so learning
    // has something to correct.
    let cfg = AlgoConfig::new(a, Sigma::new(0.05, 0.9, 0.9)).with_innet_options(opts);
    let log = EventLog::new();
    let mut b = Session::builder(topo, data)
        .sim(sim)
        .query(query1(3), cfg)
        .observer(Box::new(log.clone()));
    if bare {
        b = b.bare_wire();
    }
    let mut session = b.build();
    session.step(45);
    let outcome = session.report();
    let migrated = log
        .events()
        .iter()
        .map(|e| match e {
            SessionEvent::PairsMigrated { count, .. } => *count,
            _ => 0,
        })
        .sum();
    Observed {
        outcome,
        migrated,
        xfer_bytes: session.migration_xfer_bytes(),
    }
}

/// Tagged = bare + one tag byte per transmission, node by node and phase
/// by phase, with the same results and the same migrations: the tag byte
/// changes nothing a query can observe.
#[test]
fn tagged_session_matches_the_ungated_bare_backend() {
    let mut migrating = 0;
    for algo in ALGOS {
        let (a, opts) = parse_algo(algo).expect("known algorithm");
        assert_eq!(algo_name(a, opts).to_ascii_lowercase(), algo);
        let (bare, tagged) = (run_single(algo, true), run_single(algo, false));
        assert!(bare.outcome.results_total() > 0, "{algo}: no results");
        assert_eq!(
            tagged.outcome.results_total(),
            bare.outcome.results_total(),
            "{algo}: results"
        );
        assert_eq!(tagged.outcome.avg_delay_tx(), bare.outcome.avg_delay_tx());
        assert_eq!(tagged.migrated, bare.migrated, "{algo}: migrations");
        assert_eq!(tagged.xfer_bytes, bare.xfer_bytes, "{algo}: xfer bytes");
        assert_eq!(tagged.outcome.expired_frames, 0);
        migrating += u64::from(bare.migrated > 0);
        for (phase, t, b) in [
            (
                "initiation",
                &tagged.outcome.initiation,
                &bare.outcome.initiation,
            ),
            (
                "execution",
                &tagged.outcome.execution,
                &bare.outcome.execution,
            ),
        ] {
            for (n, (t, b)) in t.per_node().iter().zip(b.per_node()).enumerate() {
                assert_eq!(t.tx_msgs, b.tx_msgs, "{algo} {phase}: tx_msgs of node {n}");
                assert_eq!(
                    t.tx_bytes,
                    b.tx_bytes + b.tx_msgs * u64::from(QUERY_TAG_BYTES),
                    "{algo} {phase}: tx_bytes of node {n}"
                );
                assert_eq!(t.rx_msgs, b.rx_msgs, "{algo} {phase}: rx_msgs of node {n}");
            }
        }
    }
    assert!(migrating >= 2, "no learning variant migrated a pair");
}

/// The churn script: ids come online out of id order (`q0` arrives after
/// `q1`), one query is admitted live, one is retired with its frames
/// still in flight, one after it went quiet. Returns the `REPORT` line.
fn churn_script(sharing: Sharing) -> String {
    let seed = 29;
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    let innet =
        |opts| AlgoConfig::new(Algorithm::Innet, Sigma::from_rates(RATES)).with_innet_options(opts);
    let naive = AlgoConfig::new(Algorithm::Naive, Sigma::from_rates(RATES));
    let mut session = Session::builder(topo, data)
        // Sampling cycles too short for a frame to cross the network, so
        // every cycle ends with frames on the air.
        .sim(SimConfig {
            tx_per_sampling_cycle: 4,
            ..SimConfig::default().with_seed(seed).with_fair_mac(true)
        })
        .sharing(sharing)
        .query_arriving(6, query1(3), innet(InnetOptions::CM))
        .query_arriving(2, query2(1), naive)
        .query(query1(3), innet(InnetOptions::CMG.with_learning()))
        .build();
    session.step(10);
    let live = session.admit(
        query2(1),
        AlgoConfig::new(Algorithm::Base, Sigma::from_rates(RATES)),
    );
    assert_eq!(live, QueryId(3));
    session.step(3);
    // No drain since the last cycle: q2's frames are on the air.
    session.retire(QueryId(2));
    session.step(8);
    session.retire(QueryId(1));
    session.step(4);
    let resp = session.apply(Command::Report);
    let Response::Report(summary) = &resp else {
        panic!("{resp:?}");
    };
    assert!(summary.expired_frames > 0, "nothing was in flight");
    assert!(summary.queries.iter().all(|q| q.results > 0), "{summary:?}");
    resp.encode()
}

#[test]
fn churn_script_report_matches_the_fixture() {
    let actual = format!(
        "{}\n{}\n",
        churn_script(Sharing::Independent),
        churn_script(Sharing::SharedTree)
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/churn_report.txt");
    if std::env::var("BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("golden dir");
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    assert_eq!(actual, expected, "REPORT lines differ from the fixture");
}
