//! `dense_steady` and `sparse_large`: one long-lived session, one resident
//! query, and `step(1)` over and over. Both run the same `session`/`sim`
//! layers, loaded the opposite way:
//!
//! - `dense_steady` — 1000 nodes, every one a producer of the 5-way
//!   `chain5` graph: ~10^5 simulated transmissions per cycle, so time goes
//!   to the engine's transmit phase and the `JoinNode` callbacks.
//! - `sparse_large` — 2000 nodes, 3 x 4 producers: a few hundred
//!   transmissions per cycle, so time goes to whatever the engine and the
//!   session do per node per cycle regardless of traffic.
//!
//! An optimisation that skips idle nodes must show on `sparse_large` and
//! leave `dense_steady` flat; a per-message fast path the reverse.

use crate::engine;
use crate::harness::{common_metrics, ms, set_up, us, Measured, Run, SetUp};
use crate::inputs;
use crate::metrics::RunResult;
use crate::session::{self, Opened};
use crate::stats::{drift, median};
use crate::trace::Tracer;
use aspen::join::oracle_result_count;
use aspen::join::prelude::*;
use aspen::join::Outcome;
use aspen::query::{parse, Parsed};
use std::time::Instant;

struct Spec {
    nodes: usize,
    degree: f64,
    algo: &'static str,
    sql: &'static str,
    /// Cycles stepped (and then drained) before the window opens; the
    /// REPORT taken there is the run's deterministic fingerprint.
    warmup: u32,
    /// Cycles per traced/untraced block of a traced run.
    block: u64,
    /// Cycle of the window at which `peak_rss_mb` is read.
    rss_at_cycle: u64,
    /// `dense_steady` saturates the 1024-entry queues at the base funnel
    /// by design; only the sparse network must be drop-free.
    drop_free: bool,
}

const DENSE: Spec = Spec {
    nodes: 1000,
    degree: 7.0,
    algo: "innet-cmg-learn",
    sql: inputs::CHAIN5_SQL,
    warmup: 20,
    block: 8,
    rss_at_cycle: 60,
    drop_free: false,
};

// Degree 10, not 7: at 2000 nodes and degree 7 `random_with_degree`
// spends 0.5-6 s rejecting disconnected deployments (and set-up runs three
// times); the workload is about idle nodes, not about their degree.
const SPARSE: Spec = Spec {
    nodes: 2000,
    degree: 10.0,
    algo: "innet-cmg",
    sql: inputs::SPARSE_SQL,
    warmup: 500,
    block: 256,
    rss_at_cycle: 5000,
    drop_free: true,
};

/// One set-up: the session with its query admitted, stepped through the
/// warm-up and drained.
struct Built {
    opened: Opened,
    /// Drained outcome at the end of the warm-up.
    prefix: Outcome,
    admitted: bool,
    admit_ms: f64,
    report_us: f64,
}

fn build(spec: &Spec, run: &Run, tr: &mut Tracer) -> SetUp<Built> {
    tr.next_request();
    let whole = tr.begin("harness", "setup");
    let mut opened = session::open(spec.nodes, spec.degree, run, tr);
    let o = tr.begin("session", "admit");
    let resp = opened.session.apply(Command::Admit {
        algo: spec.algo.into(),
        sql: spec.sql.into(),
    });
    let admit_ms = ms(tr.end(o));
    let o = tr.begin("session", "warmup");
    opened.session.step(run.scaled(spec.warmup));
    tr.end(o);
    let o = tr.begin("session", "report");
    let prefix = opened.session.report();
    let report_us = us(tr.end(o));
    SetUp {
        setup_s: tr.end(whole).as_secs_f64(),
        fingerprint: session::report_line(&opened.session, &prefix),
        built: Built {
            opened,
            prefix,
            admitted: matches!(resp, Response::Admitted(_)),
            admit_ms,
            report_us,
        },
    }
}

pub fn dense_steady(run: &Run) -> RunResult {
    steady(&DENSE, run)
}

pub fn sparse_large(run: &Run) -> RunResult {
    steady(&SPARSE, run)
}

fn steady(spec: &Spec, run: &Run) -> RunResult {
    let mut res = RunResult::default();
    let mut tr = run.tracer(0);
    let (built, setup_s) = set_up(run, &mut res, || build(spec, run, &mut tr));
    let Built {
        mut opened,
        prefix,
        admitted,
        admit_ms,
        report_us,
    } = built;
    res.check(admitted, || "ADMIT was rejected".into());

    // The timed window: one operation = one sampling cycle.
    let mut window = run.window(spec.block, spec.rss_at_cycle, &mut tr);
    while window.next_op(&mut tr) {
        tr.next_request();
        let o = tr.begin("session", "step");
        opened.session.step(1);
        let dt = tr.end(o);
        window.record(dt);
    }
    res.ops(window.ops(), 0);
    tr.set_on(run.traced);
    tr.next_request();
    let o = tr.begin("session", "report");
    let end = opened.session.report();
    let end_report_us = us(tr.end(o));

    // Checks on what the program computed.
    let checks = Instant::now();
    tr.set_on(false);
    let prefix_results = prefix.results_total();
    res.check(prefix_results > 0, || {
        "no join results after warm-up".into()
    });
    res.check(end.send_failures() == 0, || {
        format!(
            "{} send failures on a lossless network",
            end.send_failures()
        )
    });
    if spec.drop_free {
        res.check(end.queue_drops() == 0, || {
            format!("{} queue drops", end.queue_drops())
        });
        pairwise_checks(spec, run, &opened.session, prefix_results, &mut res);
    }
    let check_s = checks.elapsed().as_secs_f64();

    if run.traced {
        opened.layer_metrics(&prefix, &end, &mut res);
        let steps = window.samples();
        let busy_s = steps.sum_ms() / 1e3;
        let kept = steps.kept_ms();
        let msgs = res.get("sim.tx_msgs");
        let active = end
            .execution
            .per_node()
            .iter()
            .filter(|m| m.load_bytes() > 0)
            .count() as f64;
        res.set("session.admit_ms_p50", admit_ms);
        res.set("session.step_busy_s", busy_s);
        res.set("session.step_share", busy_s / window.wall_s());
        res.set("session.step_ms_p50", median(&kept));
        res.set("session.step_drift", drift(&kept, kept.len().min(200) / 2));
        res.set("session.report_us_p50", median(&[report_us, end_report_us]));
        res.set(
            "session.active_node_share",
            active / opened.session.topology().len() as f64,
        );
        res.set("session.msgs_per_cycle", msgs / steps.count().max(1) as f64);
        if msgs > 0.0 {
            // How much of a cycle is protocol work rather than engine
            // work: compare with the bare engine's cost per transmission.
            let session_ns = busy_s * 1e9 / msgs;
            let engine_ns = engine::probe_ns_per_msg(run);
            res.set("session.ns_per_msg", session_ns);
            res.set("sim.ns_per_msg", engine_ns);
            res.set("session.protocol_share_est", 1.0 - engine_ns / session_ns);
        }
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

/// `sparse_large` only: the distributed answer against the offline oracle
/// over the warm-up prefix, and Naive against Innet on a 100-node copy —
/// both in the 0.6-1.4x band `crates/core/tests/end_to_end.rs` uses.
fn pairwise_checks(spec: &Spec, run: &Run, session: &Session, results: u64, res: &mut RunResult) {
    let in_band = |got: u64, want: u64| {
        let (got, want) = (got as f64, want as f64);
        got >= want * 0.6 && got <= want * 1.4 + 8.0
    };
    let Ok(Parsed::Pair(query)) = parse(spec.sql) else {
        res.check(false, || "sparse SQL is not a pairwise query".into());
        return;
    };
    let cycles = run.scaled(spec.warmup);
    let oracle = oracle_result_count(session.topology(), session.workload(), &query, cycles);
    res.check(in_band(results, oracle), || {
        format!("{results} results after {cycles} cycles, oracle says {oracle}")
    });

    let small = |algo: &str| -> u64 {
        let mut s = session::open(100, 7.0, run, &mut Tracer::new(run.epoch, 0)).session;
        s.apply(Command::Admit {
            algo: algo.into(),
            sql: spec.sql.into(),
        });
        s.step(run.scaled(100));
        s.report().results_total()
    };
    let (naive, innet) = (small("naive"), small(spec.algo));
    res.check(naive > 0 && in_band(innet, naive), || {
        format!(
            "100-node copy: naive {naive} results, {} {innet}",
            spec.algo
        )
    });
}
