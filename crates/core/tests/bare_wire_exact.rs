//! Byte-level net under the paper's untagged wire (`bare_wire()`), for all
//! 11 algorithm variants, under the conditions where queue state and RNG
//! draw positions matter: 15 % link loss, a tight MAC budget and short
//! queues, and the busiest join node killed mid-run (the variants that
//! join at the base have no such node, so for them the kill does not
//! fire).
//!
//! Each variant's `REPORT` line, migration control bytes and per-node
//! `tx_bytes`/`tx_msgs` (both phases) are compared with
//! `tests/golden/bare_wire_report.txt`. Re-take the fixture (only for an
//! intended change of behaviour) with
//! `BLESS=1 cargo test -p aspen_join --test bare_wire_exact`.

use aspen_join::prelude::*;
use aspen_join::shared::parse_algo;
use sensor_workload::{query1, WorkloadData};
use std::fmt::Write as _;
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

const CYCLES: u32 = 30;
const KILL_AT: u32 = 15;

/// `query1` as `algo` on an 80-node lossy network with one transmission
/// per node per cycle and 8-message queues, the busiest join node killed
/// at cycle 15. Returns
/// the fixture lines of the run and whether the kill fired.
fn run_bare(algo: &str) -> (String, bool) {
    let (a, opts) = parse_algo(algo).expect("known algorithm");
    let seed = 41;
    let topo = sensor_net::random_with_degree(80, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    let sim = SimConfig {
        tx_per_cycle: 1,
        queue_capacity: 8,
        ..SimConfig::default().with_loss(0.15).with_seed(seed)
    };
    // Placement assumes selectivities far from the workload's, so the
    // learning variants migrate.
    let cfg = AlgoConfig::new(a, Sigma::new(0.5, 0.5, 0.1)).with_innet_options(opts);
    let mut session = Session::builder(topo, data)
        .sim(sim)
        .query(query1(3), cfg)
        .plan(DynamicsPlan::none().kill_picked(KILL_AT))
        .bare_wire()
        .build();
    session.step(CYCLES);
    let out = session.report();
    let wire = Response::Report(Box::new(ReportSummary::from_outcome(session.cycle(), &out)));
    let mut s = format!(
        "{algo} {} xfer={} killed={:?}\n",
        wire.encode(),
        session.migration_xfer_bytes(),
        out.killed
    );
    for (phase, m) in [("init", &out.initiation), ("exec", &out.execution)] {
        write!(s, "{algo} {phase}").expect("write to string");
        for n in m.per_node() {
            write!(s, " {}/{}", n.tx_bytes, n.tx_msgs).expect("write to string");
        }
        s.push('\n');
    }
    (s, !out.killed.is_empty())
}

#[test]
fn bare_wire_runs_match_the_fixture() {
    let runs: Vec<(String, bool)> = ALGOS.iter().map(|a| run_bare(a)).collect();
    assert!(
        runs.iter().filter(|(_, killed)| *killed).count() >= 6,
        "the in-network variants must lose their busiest join node"
    );
    let actual: String = runs.into_iter().map(|(s, _)| s).collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bare_wire_report.txt");
    if std::env::var("BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("golden dir");
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "bare-wire run differs from the fixture");
    }
    assert_eq!(actual, expected, "bare-wire runs differ from the fixture");
}
