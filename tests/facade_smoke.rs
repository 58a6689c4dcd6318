//! Smoke tests for the `aspen` facade: every subsystem re-export in
//! `src/lib.rs` must resolve and do real (if tiny) work, and the shipped
//! examples must keep compiling.

use aspen::join::prelude::*;
use aspen::join::Algorithm;
use aspen::net::NodeId;

/// One-liner use of each `aspen::*` re-export so a broken facade path
/// fails this test rather than only the examples.
#[test]
fn every_facade_reexport_resolves() {
    // aspen::net — topology families and geometry.
    let topo = aspen::net::random_with_degree(40, 7.0, 7);
    assert_eq!(topo.len(), 40);
    let grid = aspen::net::grid(5, 5);
    assert_eq!(grid.len(), 25);
    let p = aspen::net::Point::new(1.0, 2.0);
    assert!(p.x < p.y);

    // aspen::summaries — the three summary structures.
    let mut bloom = aspen::summaries::BloomFilter::new(128, 3);
    bloom.insert(17);
    assert!(bloom.contains(17));
    let mut iv = aspen::summaries::IntervalSummary::new(4);
    iv.insert(9);
    assert!(iv.may_match(&aspen::summaries::Constraint::Eq(9)));
    let mut rects = aspen::summaries::RectSummary::new(3);
    rects.insert(p);

    // aspen::routing — trees and the multi-tree substrate.
    let tree = aspen::routing::RoutingTree::build(&grid, NodeId(0));
    assert_eq!(tree.depth(NodeId(0)), 0);

    // aspen::query — the StreamSQL parser.
    let spec = aspen::query::parser::parse_query(
        "SELECT S.id, T.id FROM S, T [windowsize=2] WHERE S.u = T.u",
    )
    .expect("facade parser");
    assert_eq!(spec.window, 2);

    // aspen::sim — simulator configuration.
    let sim = aspen::sim::SimConfig::lossless();

    // aspen::workload — Table 1/2 workloads.
    let data = aspen::workload::WorkloadData::new(
        &topo,
        aspen::workload::Schedule::Uniform(Rates::new(2, 2, 5)),
        7,
    );

    // aspen::join — the optimizer, end to end at miniature scale,
    // through the unified Session entry point.
    let mut session = Session::builder(topo, data)
        .sim(sim)
        .trees(2)
        .query(
            aspen::workload::query1(2),
            AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2)),
        )
        .build();
    session.step(5);
    let stats = session.report();
    assert!(stats.total_traffic_bytes() > 0);

    // aspen::join cost model, directly.
    let placement = aspen::join::place_join_node(Sigma::new(0.5, 0.5, 0.2), 2, [4, 3, 2, 3, 4]);
    assert!(placement.cost().is_finite());

    // aspen::sim::sweep + aspen::bench::sweep — the scenario-sweep
    // subsystem: stats, fan-out, and a one-cell grid end to end.
    let stat = aspen::sim::sweep::SummaryStat::from_samples(&[1.0, 3.0]);
    assert_eq!(stat.mean, 2.0);
    let doubled = aspen::sim::sweep::parallel_map(&[1u32, 2, 3], 2, |&x| x * 2);
    assert_eq!(doubled, vec![2, 4, 6]);
    let grid = aspen::bench::sweep::SweepGrid {
        sizes: vec![25],
        seeds: vec![1000],
        cycles: 2,
        ..Default::default()
    };
    let report = grid.run();
    assert_eq!(report.cells.len(), grid.cells().len());
    assert!(report.to_json().contains("\"cells\""));

    // aspen::sim::dynamics + the sweep grid's dynamics dimension — the
    // network-dynamics subsystem (fault plans, §7 recovery metrics).
    let plan = aspen::sim::dynamics::DynamicsPlan::none().kill_random(3, 1);
    assert_eq!(plan.first_event_cycle(), Some(3));
    let spec = aspen::bench::sweep::DynamicsSpec::parse("rand2@3").expect("dynamics slug");
    let faulty = aspen::bench::sweep::SweepGrid {
        sizes: vec![25],
        seeds: vec![1000],
        cycles: 6,
        dynamics: vec![spec],
        ..Default::default()
    };
    let report = faulty.run();
    assert!(report.to_json().contains("\"dynamics\": \"rand2@3\""));
    assert!(report
        .to_recovery_table()
        .to_aligned_string()
        .contains("rand2@3"));
}

/// Keep the 4 `examples/*.rs` compiling as part of the test flow: this
/// shells out to `cargo check --examples` with the same toolchain that is
/// running the tests.
#[test]
fn examples_stay_compilable() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let status = std::process::Command::new(cargo)
        .args(["check", "--examples", "--manifest-path", manifest])
        .status()
        .expect("spawn cargo check --examples");
    assert!(status.success(), "`cargo check --examples` failed");
}
