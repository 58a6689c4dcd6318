//! Hot-path benchmark for `Engine::step`: the 400-node micro cases plus a
//! 400 / 2 025 / 10 000-node scaling curve over the data-oriented core.
//!
//! The workload is a gossip protocol that keeps every node's queue
//! non-empty (each delivery triggers a forward, every 8th hop a
//! broadcast), so every step transmits at the full MAC budget across the
//! whole grid — the engine's worst case. Each scaling cell runs with
//! snooping off and on (the protocol consumes snoop events, so the
//! snoop-on cells exercise the pooled single-message snoop dispatch).
//!
//! Besides the console table, the scaling run writes `BENCH_engine.json`
//! at the repository root: best-of-N steps/sec per cell. For a same-machine
//! before/after comparison use the repository benchmark's `engine_gossip`
//! workload (`benchmark/run.sh compare`).
//!
//! `ENGINE_BENCH_QUICK=1` shrinks steps and repetitions to a smoke run
//! (CI uses this to keep the scaling curve compiling *and* executing).

use criterion::{criterion_group, criterion_main, Criterion};
use sensor_net::NodeId;
use sensor_sim::{Ctx, Engine, Protocol, SimConfig};
use std::hint::black_box;
use std::time::Instant;

/// Gossip: unicast payloads bounce between grid neighbors forever, and every
/// 8th delivery also triggers a broadcast (the path-collapse advertisement
/// pattern). Messages carry a payload Vec so clones are visible in profiles.
struct Gossip {
    hops: u64,
    snoops: u64,
}

#[derive(Clone)]
struct Payload {
    _data: Vec<u8>,
    hop: u32,
}

impl Protocol for Gossip {
    type Msg = Payload;
    const WANTS_SNOOP: bool = true;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Payload>, from: NodeId, mut msg: Payload) {
        self.hops += 1;
        msg.hop += 1;
        if msg.hop.is_multiple_of(8) {
            ctx.broadcast(16, msg.clone());
        }
        // Bounce to the neighbor after the one we got it from (ring-walk
        // over the neighbor list keeps traffic spread over the grid).
        let nbs = ctx.neighbors();
        if let Some(pos) = nbs.iter().position(|&n| n == from) {
            let next = nbs[(pos + 1) % nbs.len()];
            ctx.send(next, 16, msg);
        }
    }

    fn on_snoop(&mut self, _ctx: &mut Ctx<'_, Payload>, _s: NodeId, _n: NodeId, msg: &Payload) {
        self.snoops += u64::from(msg.hop) & 1;
    }
}

fn grid_engine(nodes: usize, snooping: bool) -> Engine<Gossip> {
    let side = (nodes as f64).sqrt().round() as usize;
    let topo = sensor_net::grid(side, side);
    let cfg = SimConfig::default()
        .with_loss(0.10)
        .with_seed(7)
        .with_snooping(snooping);
    let mut eng = Engine::new(topo, cfg, |_| Gossip { hops: 0, snoops: 0 });
    // Seed traffic: every node fires a unicast to its first neighbor.
    for i in 0..eng.topology().len() {
        let id = NodeId(i as u16);
        eng.with_node(id, |_, ctx| {
            let first = ctx.neighbors()[0];
            ctx.send(
                first,
                16,
                Payload {
                    _data: vec![0u8; 24],
                    hop: 0,
                },
            );
        });
    }
    eng
}

fn bench_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_step_400n_grid");
    g.sample_size(10);
    // 50 transmission cycles per iteration, lossy links, no snooping: the
    // common figure configuration.
    g.bench_function("step_x50_loss10", |b| {
        b.iter(|| {
            let mut eng = grid_engine(400, false);
            for _ in 0..50 {
                eng.step();
            }
            black_box(eng.metrics().total_tx_msgs())
        });
    });
    // Snooping on with a protocol that consumes snoop events: measures the
    // pooled snoop dispatch (one shared message per transmission, no
    // per-bystander clone).
    g.bench_function("step_x50_loss10_snoop", |b| {
        b.iter(|| {
            let mut eng = grid_engine(400, true);
            for _ in 0..50 {
                eng.step();
            }
            black_box(eng.metrics().total_tx_msgs())
        });
    });
    g.finish();
}

// ---------------------------------------------------------------------------
// Scaling curve → BENCH_engine.json

/// Best-of-`reps` steps/sec (fresh engine per repetition; best-of because
/// a 1-core CI box shows ±30% scheduler noise and the max is the stable
/// estimator of the machine's capability).
fn measure(nodes: usize, snooping: bool, steps: u64, reps: u32) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut eng = grid_engine(nodes, snooping);
        let t0 = Instant::now();
        for _ in 0..steps {
            eng.step();
        }
        let dt = t0.elapsed().as_secs_f64();
        black_box(eng.metrics().total_tx_msgs());
        best = best.max(steps as f64 / dt);
    }
    best
}

fn scaling_curve() {
    let quick = std::env::var_os("ENGINE_BENCH_QUICK").is_some();
    let reps = if quick { 1 } else { 3 };
    let cells: [(usize, u64); 3] = if quick {
        [(400, 20), (2_025, 8), (10_000, 3)]
    } else {
        [(400, 200), (2_025, 60), (10_000, 15)]
    };
    println!(
        "group: engine_step_scaling{}",
        if quick { " (quick)" } else { "" }
    );
    let mut rows = Vec::new();
    for (nodes, steps) in cells {
        for snooping in [false, true] {
            let rate = measure(nodes, snooping, steps, reps);
            println!(
                "  nodes={nodes:>6} snoop={} steps/sec={rate:>8.1}",
                if snooping { "on " } else { "off" },
            );
            rows.push((nodes, snooping, rate));
        }
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|&(nodes, snooping, rate)| {
            format!(
                "    {{\"nodes\": {nodes}, \"snooping\": {snooping}, \
                 \"steps_per_sec\": {rate:.1}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"engine_step_scaling\",\n  \"workload\": \
         \"gossip grid, loss 0.10, seed 7, full MAC budget\",\n  \
         \"mode\": \"{}\",\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}

fn bench_scaling(_c: &mut Criterion) {
    scaling_curve();
}

criterion_group!(benches, bench_step, bench_scaling);
criterion_main!(benches);
