//! End-to-end algorithm tests: every join strategy against the oracle, on
//! lossless networks where the expected result counts are predictable.

use aspen_join::prelude::*;
use aspen_join::scenario::oracle_result_count;
use sensor_net::{NodeId, Topology};
use sensor_query::JoinQuerySpec;
use sensor_sim::SimConfig;
use sensor_workload::{query0, query1, query2, query3, WorkloadData};

const CYCLES: u32 = 40;

/// A lossless session on the paper's untagged wire, hosting `spec`.
fn session(topo: Topology, data: WorkloadData, spec: JoinQuerySpec, cfg: AlgoConfig) -> Session {
    Session::builder(topo, data)
        .sim(SimConfig::lossless())
        .query(spec, cfg)
        .bare_wire()
        .build()
}

/// Initiate, run `cycles` sampling cycles and report; also returns the
/// oracle's result count for `spec` over the session's network.
fn run(mut s: Session, spec: &JoinQuerySpec, cycles: u32) -> (Outcome, u64) {
    s.step(cycles);
    let oracle = oracle_result_count(s.topology(), s.workload(), spec, cycles);
    (s.report(), oracle)
}

/// `query1(3)` on an 80-node network with 10 provisioned pairs.
fn scenario(
    algo: Algorithm,
    opts: InnetOptions,
    assumed: Sigma,
    rates: Rates,
    seed: u64,
) -> Session {
    let topo = sensor_net::random_with_degree(80, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(rates), seed).with_pairs(10);
    session(
        topo,
        data,
        query1(3),
        AlgoConfig::new(algo, assumed).with_innet_options(opts),
    )
}

/// Result-count agreement band vs the oracle: transport delays skew
/// window alignment slightly, so exact equality is not expected; the
/// computation must still track the oracle closely.
fn assert_close_to_oracle(got: u64, oracle: u64, label: &str) {
    assert!(oracle > 0, "{label}: oracle found no results — weak test");
    let lo = oracle as f64 * 0.6;
    let hi = oracle as f64 * 1.4 + 8.0;
    assert!(
        (got as f64) >= lo && (got as f64) <= hi,
        "{label}: got {got}, oracle {oracle}"
    );
}

#[test]
fn naive_matches_oracle() {
    let sc = scenario(
        Algorithm::Naive,
        InnetOptions::PLAIN,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        3,
    );
    let (stats, oracle) = run(sc, &query1(3), CYCLES);
    assert_close_to_oracle(stats.results_total(), oracle, "naive");
    // Naive has no initiation at all.
    assert_eq!(stats.initiation.total_tx_bytes(), 0);
}

#[test]
fn base_matches_oracle_with_cheaper_execution() {
    let naive = scenario(
        Algorithm::Naive,
        InnetOptions::PLAIN,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        3,
    );
    let base = scenario(
        Algorithm::Base,
        InnetOptions::PLAIN,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        3,
    );
    let (ns, _) = run(naive, &query1(3), CYCLES);
    let (bs, oracle) = run(base, &query1(3), CYCLES);
    assert_close_to_oracle(bs.results_total(), oracle, "base");
    // Pre-filtering costs initiation but trims execution traffic.
    assert!(bs.initiation.total_tx_bytes() > 0);
    assert!(
        bs.execution_traffic_bytes() <= ns.execution_traffic_bytes(),
        "base exec {} vs naive exec {}",
        bs.execution_traffic_bytes(),
        ns.execution_traffic_bytes()
    );
}

#[test]
fn innet_matches_oracle() {
    let sc = scenario(
        Algorithm::Innet,
        InnetOptions::PLAIN,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        3,
    );
    let (stats, oracle) = run(sc, &query1(3), CYCLES);
    assert_close_to_oracle(stats.results_total(), oracle, "innet");
    assert!(stats.initiation.total_tx_bytes() > 0, "exploration costs");
}

#[test]
fn ght_matches_oracle() {
    let sc = scenario(
        Algorithm::Ght,
        InnetOptions::PLAIN,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        3,
    );
    let (stats, oracle) = run(sc, &query1(3), CYCLES);
    assert_close_to_oracle(stats.results_total(), oracle, "ght");
}

#[test]
fn yang07_produces_results() {
    let sc = scenario(
        Algorithm::Yang07,
        InnetOptions::PLAIN,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        3,
    );
    let (stats, oracle) = run(sc, &query1(3), CYCLES);
    // Through-the-base drops the S-tuple-to-window alignment (T windows
    // hold only local samples); expect the right order of magnitude.
    let results = stats.results_total();
    assert!(
        results > 0 && results < oracle * 3,
        "yang results {results} oracle {oracle}"
    );
}

#[test]
fn innet_cmg_not_worse_than_plain_innet() {
    let assumed = Sigma::new(0.5, 0.5, 0.05);
    let rates = Rates::new(2, 2, 20);
    let plain = scenario(Algorithm::Innet, InnetOptions::PLAIN, assumed, rates, 7);
    let cmg = scenario(Algorithm::Innet, InnetOptions::CMG, assumed, rates, 7);
    let (ps, oracle) = run(plain, &query1(3), 100);
    let (cs, _) = run(cmg, &query1(3), 100);
    // §5.3: MPO matches or beats plain Innet overall (small slack for
    // group-coordination overhead on short runs).
    assert!(
        (cs.total_traffic_bytes() as f64) < ps.total_traffic_bytes() as f64 * 1.15,
        "cmg {} vs plain {}",
        cs.total_traffic_bytes(),
        ps.total_traffic_bytes()
    );
    // Both compute the same join.
    assert_close_to_oracle(ps.results_total(), oracle, "plain");
    assert_close_to_oracle(cs.results_total(), oracle, "cmg");
}

#[test]
fn query0_one_to_one_all_algorithms_agree() {
    let topo = sensor_net::random_with_degree(80, 7.0, 11);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 11).with_pairs(10);
    let spec = query0(3);
    let oracle = oracle_result_count(&topo, &data, &spec, CYCLES);
    assert!(oracle > 0);
    for algo in [Algorithm::Naive, Algorithm::Base, Algorithm::Innet] {
        let sc = session(
            topo.clone(),
            data.clone(),
            spec.clone(),
            AlgoConfig::new(algo, Sigma::new(0.5, 0.5, 0.2)),
        );
        let (stats, _) = run(sc, &spec, CYCLES);
        assert_close_to_oracle(stats.results_total(), oracle, algo.name());
    }
}

#[test]
fn query2_perimeter_innet() {
    let topo = sensor_net::random_with_degree(100, 7.0, 5);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 10)), 5);
    let spec = query2(1);
    let sc = session(
        topo,
        data,
        spec.clone(),
        AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.1))
            .with_innet_options(InnetOptions::CM),
    );
    let (stats, oracle) = run(sc, &spec, CYCLES);
    assert_close_to_oracle(stats.results_total(), oracle, "q2 innet");
}

#[test]
fn query3_region_join_on_intel_lab() {
    let topo = sensor_net::intel::intel_lab();
    let data =
        WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 2).with_humidity(&topo);
    let spec = query3(3);
    let sc = session(
        topo,
        data,
        spec.clone(),
        AlgoConfig::new(Algorithm::Innet, Sigma::new(1.0, 1.0, 0.2)),
    );
    let (stats, oracle) = run(sc, &spec, 30);
    assert_close_to_oracle(stats.results_total(), oracle, "q3");
}

#[test]
fn learning_recovers_from_wrong_estimates() {
    // Optimize for completely wrong selectivities; learning must bring
    // traffic close to the correctly-optimized run (Fig 10).
    let rates = Rates::new(10, 1, 5); // true: σs=0.1, σt=1, σst=0.2
    let right = Sigma::new(0.1, 1.0, 0.2);
    let wrong = Sigma::new(1.0, 0.1, 0.05);
    let mk = |assumed: Sigma, learning: bool| {
        let topo = sensor_net::random_with_degree(80, 7.0, 13);
        let data = WorkloadData::new(&topo, Schedule::Uniform(rates), 13).with_pairs(10);
        let opts = if learning {
            InnetOptions::PLAIN.with_learning()
        } else {
            InnetOptions::PLAIN
        };
        session(
            topo,
            data,
            query0(3),
            AlgoConfig::new(Algorithm::Innet, assumed).with_innet_options(opts),
        )
    };
    let cycles = 200;
    let (oracle_run, _) = run(mk(right, false), &query0(3), cycles);
    let (wrong_static, _) = run(mk(wrong, false), &query0(3), cycles);
    let (wrong_learn, _) = run(mk(wrong, true), &query0(3), cycles);
    // Learning must beat the static wrong-estimate run...
    assert!(
        wrong_learn.execution_traffic_bytes() < wrong_static.execution_traffic_bytes(),
        "learn {} vs static-wrong {}",
        wrong_learn.execution_traffic_bytes(),
        wrong_static.execution_traffic_bytes()
    );
    // ...and land within 2x of the correctly-informed run.
    assert!(
        wrong_learn.execution_traffic_bytes() < oracle_run.execution_traffic_bytes() * 2,
        "learn {} vs informed {}",
        wrong_learn.execution_traffic_bytes(),
        oracle_run.execution_traffic_bytes()
    );
}

#[test]
fn join_node_failure_recovers_via_base() {
    let rates = Rates::new(2, 2, 10);
    let mk = || {
        let topo = sensor_net::random_with_degree(80, 7.0, 17);
        let data = WorkloadData::new(&topo, Schedule::Uniform(rates), 17).with_pairs(4);
        session(
            topo,
            data,
            query0(3),
            AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.1)),
        )
    };
    let cycles = 60;
    // Baseline without failure.
    let (clean_stats, _) = run(mk(), &query0(3), cycles);
    // Kill the busiest join node mid-run.
    let mut faulty = mk();
    faulty.step(0); // initiate, so the busiest join node is known
    let victim = faulty.busiest_join_node().expect("a join node exists");
    assert_ne!(victim, NodeId(0), "base should not be the victim");
    faulty.set_plan(DynamicsPlan::none().kill_nodes(cycles / 2, vec![victim]));
    let (faulty_stats, _) = run(faulty, &query0(3), cycles);
    // Computation must continue: a decent share of the clean results.
    assert!(
        faulty_stats.results_total() as f64 > clean_stats.results_total() as f64 * 0.5,
        "failure lost too much: {} vs {}",
        faulty_stats.results_total(),
        clean_stats.results_total()
    );
    // Delay grows when pairs re-route through the base (§7/Fig 14).
    assert!(faulty_stats.avg_delay_tx() >= clean_stats.avg_delay_tx() * 0.9);
}

#[test]
fn innet_beats_naive_for_selective_long_queries() {
    // The headline claim (Fig 9a): for selective joins running long
    // enough, Innet's initiation cost amortizes and it beats Naive.
    let rates = Rates::new(10, 10, 20);
    let assumed = Sigma::new(0.1, 0.1, 0.05);
    let naive = scenario(Algorithm::Naive, InnetOptions::PLAIN, assumed, rates, 23);
    let innet = scenario(Algorithm::Innet, InnetOptions::CM, assumed, rates, 23);
    let cycles = 300;
    let (ns, _) = run(naive, &query1(3), cycles);
    let (is, _) = run(innet, &query1(3), cycles);
    assert!(
        is.total_traffic_bytes() < ns.total_traffic_bytes(),
        "innet {} vs naive {}",
        is.total_traffic_bytes(),
        ns.total_traffic_bytes()
    );
    // And per-cycle execution is cheaper from the start.
    assert!(is.execution_traffic_bytes() < ns.execution_traffic_bytes());
}

#[test]
fn deterministic_across_reruns() {
    let sc = || {
        scenario(
            Algorithm::Innet,
            InnetOptions::CMG,
            Sigma::new(0.5, 0.5, 0.2),
            Rates::new(2, 2, 5),
            29,
        )
    };
    let (a, _) = run(sc(), &query1(3), 20);
    let (b, _) = run(sc(), &query1(3), 20);
    assert_eq!(a.total_traffic_bytes(), b.total_traffic_bytes());
    assert_eq!(a.results_total(), b.results_total());
}
