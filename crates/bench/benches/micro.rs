//! Criterion micro-benchmarks over the performance-critical paths, plus
//! small-scale versions of the figure workloads so `cargo bench` exercises
//! every layer. The full, paper-scale sweeps live in the `experiments`
//! binary (`cargo run -p aspen-bench --release --bin experiments -- all`).

use aspen_join::prelude::*;
use aspen_join::{multicast::McastTree, Algorithm};
use criterion::{criterion_group, criterion_main, Criterion};
use sensor_net::{NodeId, Point};
use sensor_routing::search::{find_paths, SearchQuery};
use sensor_routing::substrate::MultiTreeSubstrate;
use sensor_summaries::{BloomFilter, Constraint, IntervalSummary, RectSummary};
use sensor_workload::{query1, WorkloadData};
use std::hint::black_box;

fn bench_summaries(c: &mut Criterion) {
    let mut g = c.benchmark_group("summaries");
    g.bench_function("bloom_insert_contains", |b| {
        let mut bloom = BloomFilter::new(128, 3);
        let mut i = 0u16;
        b.iter(|| {
            bloom.insert(i);
            i = i.wrapping_add(101);
            black_box(bloom.contains(i))
        });
    });
    g.bench_function("interval_insert", |b| {
        b.iter(|| {
            let mut s = IntervalSummary::new(4);
            for v in (0..64u16).map(|x| x.wrapping_mul(977)) {
                s.insert(v);
            }
            black_box(s.intervals().len())
        });
    });
    g.bench_function("rtree_insert_query", |b| {
        b.iter(|| {
            let mut s = RectSummary::new(3);
            for i in 0..32 {
                s.insert(Point::new((i * 7 % 256) as f64, (i * 13 % 256) as f64));
            }
            black_box(s.may_match(&Constraint::NearPoint {
                p: Point::new(128.0, 128.0),
                dist: 20.0,
            }))
        });
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let topo = sensor_net::random_with_degree(100, 7.0, 5);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 5);
    let mut g = c.benchmark_group("routing");
    g.bench_function("substrate_build_3trees_100n", |b| {
        b.iter(|| {
            black_box(MultiTreeSubstrate::build(
                &topo,
                3,
                aspen_join::scenario::default_indexed_attrs(),
                &data,
            ))
        });
    });
    let sub = MultiTreeSubstrate::build(
        &topo,
        3,
        aspen_join::scenario::default_indexed_attrs(),
        &data,
    );
    g.bench_function("content_search_by_id", |b| {
        let mut target = 1u16;
        b.iter(|| {
            target = (target * 31 + 7) % 100;
            let q = SearchQuery::new(vec![(
                sensor_query::schema::ATTR_ID,
                Constraint::Eq(target),
            )]);
            black_box(find_paths(&sub, NodeId(3), &q))
        });
    });
    g.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    let mut g = c.benchmark_group("optimizer");
    g.bench_function("place_join_node_16hop_path", |b| {
        let hops: Vec<u16> = (0..16).map(|i| 8 + (i % 5)).collect();
        b.iter(|| {
            black_box(aspen_join::place_join_node(
                Sigma::new(0.5, 0.1667, 0.1),
                3,
                &hops,
            ))
        });
    });
    g.bench_function("multicast_tree_from_8_paths", |b| {
        let paths: Vec<Vec<NodeId>> = (0..8)
            .map(|k| {
                (0..10)
                    .map(|i| {
                        if i < 4 {
                            NodeId(i)
                        } else {
                            NodeId(10 + k * 10 + i)
                        }
                    })
                    .collect()
            })
            .collect();
        b.iter(|| black_box(McastTree::from_paths(NodeId(0), &paths).edge_count()));
    });
    g.finish();
}

/// One small run per algorithm family: the per-figure workloads at reduced
/// scale (60 nodes, 10 cycles) so `cargo bench` touches every execution
/// path the figures use.
fn bench_algorithms(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithms_q1_60n_10cyc");
    g.sample_size(10);
    for (name, algo, opts) in [
        ("naive", Algorithm::Naive, InnetOptions::PLAIN),
        ("base", Algorithm::Base, InnetOptions::PLAIN),
        ("ght", Algorithm::Ght, InnetOptions::PLAIN),
        ("innet", Algorithm::Innet, InnetOptions::PLAIN),
        ("innet_cmg", Algorithm::Innet, InnetOptions::CMG),
        (
            "innet_cmpg_learn",
            Algorithm::Innet,
            InnetOptions::CMPG.with_learning(),
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let topo = sensor_net::random_with_degree(60, 7.0, 5);
                let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 5);
                let sim = SimConfig::lossless();
                let cfg = AlgoConfig::new(algo, Sigma::new(0.5, 0.5, 0.2)).with_innet_options(opts);
                let mut session = Session::builder(topo, data)
                    .sim(sim)
                    .query(query1(3), cfg)
                    .bare_wire()
                    .build();
                session.step(10);
                black_box(session.report().total_traffic_bytes())
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_summaries,
    bench_routing,
    bench_optimizer,
    bench_algorithms
);
criterion_main!(benches);
