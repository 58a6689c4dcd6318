//! `engine_gossip`: raw `Engine::step` under the gossip protocol on a
//! 45 x 45 grid with 10 % loss. The engine with a trivial protocol on top
//! is the counterpart of `dense_steady` (same transmit phase, no join
//! logic), and a same-machine rate to hold engine changes against.
//!
//! The untraced run steps with snooping off — the path sessions use. The
//! traced run gives the last third of its window to a second engine with
//! snooping on, the configuration the figure sweeps run.

use crate::gossip::{grid_engine, Gossip};
use crate::harness::{common_metrics, set_up, us, Measured, Run, SetUp, Window};
use crate::metrics::RunResult;
use crate::stats::median;
use crate::trace::Tracer;
use aspen::sim::Engine;
use std::time::Instant;

const WARMUP_STEPS: u32 = 200;
/// Steps per traced/untraced block of a traced run.
const BLOCK: u64 = 256;
/// Step of the window at which `peak_rss_mb` is read.
const RSS_AT_STEP: u64 = 4000;

/// One set-up: engine built, seeded and warmed up. Same seed, same traffic:
/// the warm-up's transmission count is the fingerprint.
fn build(seed: u64, snooping: bool, warmup: u32, tr: &mut Tracer) -> SetUp<Engine<Gossip>> {
    tr.next_request();
    let whole = tr.begin("harness", "setup");
    let o = tr.begin("sim", "engine_new");
    let mut eng = grid_engine(seed, snooping);
    tr.end(o);
    let o = tr.begin("sim", "warmup");
    for _ in 0..warmup {
        eng.step();
    }
    tr.end(o);
    SetUp {
        setup_s: tr.end(whole).as_secs_f64(),
        fingerprint: format!("{} msgs", eng.metrics().total_tx_msgs()),
        built: eng,
    }
}

/// Step `eng` for `seconds`, one operation a step.
fn step_window(
    eng: &mut Engine<Gossip>,
    seconds: f64,
    name: &'static str,
    run: &Run,
    tr: &mut Tracer,
) -> Window {
    let mut window = Window::open(Instant::now(), seconds, run.traced, BLOCK, RSS_AT_STEP, tr);
    while window.next_op(tr) {
        tr.next_request();
        let o = tr.begin("sim", name);
        eng.step();
        let dt = tr.end(o);
        window.record(dt);
    }
    window
}

pub fn engine_gossip(run: &Run) -> RunResult {
    let mut res = RunResult::default();
    let mut tr = run.tracer(0);
    let warmup = run.scaled(WARMUP_STEPS);

    let (mut eng, setup_s) = set_up(run, &mut res, || build(run.seed, false, warmup, &mut tr));

    // Snooping off for the whole untraced window, two thirds of a traced one.
    let share = if run.traced { 2.0 / 3.0 } else { 1.0 };
    let msgs0 = eng.metrics().total_tx_msgs();
    let bytes0 = eng.metrics().total_tx_bytes();
    let window = step_window(&mut eng, run.seconds * share, "step", run, &mut tr);
    res.ops(window.ops(), 0);
    let msgs = (eng.metrics().total_tx_msgs() - msgs0) as f64;

    let checks = Instant::now();
    let hops: u64 = eng.nodes().iter().map(|n| n.hops).sum();
    res.check(msgs > 0.0 && hops > 0, || {
        "gossip stopped: no transmissions or deliveries".into()
    });
    // Pooled messages are exactly the queued ones at a step boundary.
    res.check(eng.pooled_msgs() <= eng.queued_msgs(), || {
        format!(
            "{} pooled messages for {} queue entries",
            eng.pooled_msgs(),
            eng.queued_msgs()
        )
    });
    let check_s = checks.elapsed().as_secs_f64();

    if run.traced {
        let steps = window.samples();
        let busy_s = steps.sum_ms() / 1e3;
        res.set("sim.step_us_p50", median(&steps.kept_ms()) * 1e3);
        res.set("sim.ns_per_msg", busy_s * 1e9 / msgs);
        res.set("sim.msgs_per_step", msgs / steps.count().max(1) as f64);
        res.set("sim.tx_msgs", msgs);
        res.set(
            "sim.tx_bytes",
            (eng.metrics().total_tx_bytes() - bytes0) as f64,
        );
        res.set("sim.queue_drops", eng.metrics().total_queue_drops() as f64);
        res.set(
            "sim.send_failures",
            eng.metrics().total_send_failures() as f64,
        );
        res.set("sim.pooled_msgs_end", eng.pooled_msgs() as f64);
        res.set("sim.queued_msgs_end", eng.queued_msgs() as f64);
        drop(eng);

        tr.set_on(true);
        let mut snoop = build(run.seed, true, warmup, &mut tr).built;
        let m0 = snoop.metrics().total_tx_msgs();
        let w = step_window(
            &mut snoop,
            run.seconds * (1.0 - share),
            "snoop_step",
            run,
            &mut tr,
        );
        let snoops: u64 = snoop.nodes().iter().map(|n| n.snoops).sum();
        res.check(snoops > 0, || "snooping on, nothing snooped".into());
        res.ops(w.ops(), 0);
        let snoop_busy_s = w.samples().sum_ms() / 1e3;
        res.set(
            "sim.snoop_step_us_p50",
            median(&w.samples().kept_ms()) * 1e3,
        );
        res.set("sim.snoop_steps_per_s", w.ops() as f64 / w.wall_s());
        res.set(
            "sim.snoop_ns_per_msg",
            snoop_busy_s * 1e9 / (snoop.metrics().total_tx_msgs() - m0).max(1) as f64,
        );
    }
    let spans_dropped = tr.dropped();
    common_metrics(
        run,
        &mut res,
        &Measured {
            window,
            setup_s,
            check_s,
            spans: tr.into_spans(),
            spans_dropped,
        },
    );
    res
}

/// Host nanoseconds the bare engine spends per simulated transmission, from
/// a short snoop-off gossip run: what `dense_steady`/`sparse_large` hold
/// their own cost per transmission against.
pub fn probe_ns_per_msg(run: &Run) -> f64 {
    let mut tr = Tracer::new(run.epoch, 0);
    let mut eng = build(run.seed, false, run.scaled(100), &mut tr).built;
    let msgs0 = eng.metrics().total_tx_msgs();
    let t = Instant::now();
    for _ in 0..run.scaled(400) {
        eng.step();
    }
    let dt = t.elapsed();
    us(dt) * 1e3 / (eng.metrics().total_tx_msgs() - msgs0).max(1) as f64
}
