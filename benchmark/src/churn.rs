//! `admit_churn`: the control path under load. On a 400-node session,
//! each iteration admits the next of eight n-way band graphs
//! (`innet-cmg-learn`), steps four cycles, and retires the oldest graph
//! once three are live. Every iteration crosses `query` → `optimize` →
//! live initiation → retire/harvest → the warm-start `cache`, and it is
//! the only workload in which a session accumulates retired query slots.
//!
//! A session lives for `SESSION_ITERATIONS` iterations and is then replaced
//! by a fresh one (built off the clock). Retired slots are never
//! reclaimed — ~4 slots and ~1 MB per iteration, every one scanned every
//! cycle — so an older session streams hundreds of MB per cycle, and its
//! speed is then set by whoever else is using the host's memory bus:
//! unbounded, this workload read 24-49 iterations/s from one minute to the
//! next while `dense_steady` moved by 8 %. 128 iterations are enough to
//! see the growth (`session.step_drift`) and few enough to measure it.

use crate::harness::{common_metrics, ms, set_up, us, Measured, Run, SetUp};
use crate::inputs;
use crate::metrics::RunResult;
use crate::session::{self, Opened};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use aspen::join::control::WIRE_ASSUMED_SIGMA;
use aspen::join::prelude::*;
use aspen::join::{uniform_sigmas, Outcome};
use aspen::query::{parse, Parsed};
use std::collections::VecDeque;
use std::time::Instant;

const NODES: usize = 400;
const DEGREE: f64 = 7.0;
const ALGO: &str = "innet-cmg-learn";
const STEP_CYCLES: u32 = 4;
const MAX_LIVE: usize = 3;
/// Timed iterations a session serves before it is replaced.
const SESSION_ITERATIONS: u64 = 128;
/// Iterations per traced/untraced block of a traced run: one pass over the
/// pool, so both sides admit and retire the same graphs.
const BLOCK: u64 = 8;
/// In traced blocks, the parse/plan-space/DP probes repeat planning work
/// the admission is about to do; running them on every 5th iteration
/// (coprime with the pool of 8, so every graph is probed) keeps the traced
/// run within a few percent of the untraced one.
const PROBE_EVERY: u64 = 5;
/// Iteration of the window at which `peak_rss_mb` is read: late in the
/// first session's life.
const RSS_AT_ITERATION: u64 = 100;
/// Drift compares a session's last `DRIFT_SPAN` iterations with its first.
const DRIFT_SPAN: u64 = 32;

/// What the timed iterations measured, across sessions.
#[derive(Default)]
struct Tally {
    /// Per iteration: its index in its session's timed life, and the
    /// latencies of its admission and its `step(4)`.
    age: Vec<u64>,
    admit_ms: Vec<f64>,
    step_ms: Vec<f64>,
    retire_us: Vec<f64>,
    plan_cost: Vec<f64>,
    rejected: u64,
    retired: u64,
    /// Graphs retired with no join result delivered.
    barren: u64,
}

impl Tally {
    /// Median of `xs` over a session's last iterations, over its first.
    fn drift(&self, xs: &[f64]) -> f64 {
        let of = |keep: fn(u64) -> bool| -> f64 {
            let picked: Vec<f64> = xs
                .iter()
                .zip(&self.age)
                .filter(|(_, &age)| keep(age))
                .map(|(&x, _)| x)
                .collect();
            median(&picked)
        };
        let (young, old) = (
            of(|age| age < DRIFT_SPAN),
            of(|age| age >= SESSION_ITERATIONS - DRIFT_SPAN),
        );
        if young > 0.0 && old > 0.0 {
            old / young
        } else {
            1.0
        }
    }
}

/// One session and the churn loop's state on it.
struct Churn {
    opened: Opened,
    pool: Vec<String>,
    live: VecDeque<GraphId>,
    /// Iterations done, warm-up included.
    iteration: u64,
    /// Timed iterations done.
    age: u64,
}

impl Churn {
    /// One iteration: admit, step, retire the oldest beyond `MAX_LIVE`.
    fn iterate(&mut self, tally: &mut Tally, tr: &mut Tracer) {
        let sql = &self.pool[self.iteration as usize % self.pool.len()];
        self.iteration += 1;
        tally.age.push(self.age);
        self.age += 1;
        let o = tr.begin("session", "admit");
        let resp = self.opened.session.apply(Command::Admit {
            algo: ALGO.into(),
            sql: sql.clone(),
        });
        tally.admit_ms.push(ms(tr.end(o)));
        match resp {
            Response::Admitted(Target::Graph(g)) => {
                tally.plan_cost.push(self.opened.session.graph_plan(g).cost);
                self.live.push_back(g);
            }
            _ => tally.rejected += 1,
        }
        let o = tr.begin("session", "step");
        self.opened.session.step(STEP_CYCLES);
        tally.step_ms.push(ms(tr.end(o)));
        if self.live.len() > MAX_LIVE {
            let g = self.live.pop_front().expect("non-empty");
            let session = &self.opened.session;
            let results: u64 = session
                .graph_queries(g)
                .into_iter()
                .map(|q| session.query_results(q))
                .sum();
            tally.retired += 1;
            tally.barren += u64::from(results == 0);
            let o = tr.begin("session", "retire");
            self.opened.session.apply(Command::Retire(Target::Graph(g)));
            tally.retire_us.push(us(tr.end(o)));
        }
    }
}

/// One set-up: session built and run through one pass over the pool, so
/// its timed life starts with three graphs live and a warm cache. Returns
/// the loop state and the drained outcome at the end of that pass.
fn build(run: &Run, tr: &mut Tracer) -> SetUp<(Churn, Outcome)> {
    tr.next_request();
    let whole = tr.begin("harness", "setup");
    let opened = session::open(NODES, DEGREE, run, tr);
    let mut churn = Churn {
        pool: inputs::churn_pool(opened.session.topology()),
        opened,
        live: VecDeque::new(),
        iteration: 0,
        age: 0,
    };
    let o = tr.begin("session", "warmup");
    // Warm-up latencies are not the window's.
    let mut unused = Tally::default();
    for _ in 0..run.scaled(churn.pool.len() as u32).max(MAX_LIVE as u32 + 1) {
        churn.iterate(&mut unused, tr);
    }
    churn.age = 0;
    tr.end(o);
    let o = tr.begin("session", "report");
    let prefix = churn.opened.session.report();
    tr.end(o);
    SetUp {
        setup_s: tr.end(whole).as_secs_f64(),
        fingerprint: session::report_line(&churn.opened.session, &prefix),
        built: (churn, prefix),
    }
}

/// Time the planning steps an admission of `sql` is about to run, on the
/// session's own topology and workload.
fn probe(churn: &Churn, sql: &str, tr: &mut Tracer, samples: &mut [Vec<f64>; 3]) {
    let o = tr.begin("query", "parse");
    let parsed = parse(sql);
    samples[0].push(us(tr.end(o)));
    let Ok(Parsed::Graph(graph)) = parsed else {
        return;
    };
    let (topo, data) = (
        churn.opened.session.topology(),
        churn.opened.session.workload(),
    );
    let o = tr.begin("optimize", "planspace");
    let space = PlanSpace::build(topo, data, &graph);
    samples[1].push(us(tr.end(o)));
    let sigmas = uniform_sigmas(&graph, WIRE_ASSUMED_SIGMA);
    let o = tr.begin("optimize", "dp");
    let plan = optimize(&graph, &sigmas, &space);
    samples[2].push(us(tr.end(o)));
    std::hint::black_box(plan.cost);
}

pub fn admit_churn(run: &Run) -> RunResult {
    let mut res = RunResult::default();
    let mut tr = run.tracer(0);
    let ((mut churn, prefix), setup_s) = set_up(run, &mut res, || build(run, &mut tr));

    // The timed window: one operation = one churn iteration.
    let mut tally = Tally::default();
    let mut probes: [Vec<f64>; 3] = Default::default();
    let mut window = run.window(BLOCK, RSS_AT_ITERATION, &mut tr);
    while window.next_op(&mut tr) {
        if churn.age == SESSION_ITERATIONS {
            let rebuilt = Instant::now();
            churn = build(run, &mut tr).built.0;
            window.exclude(rebuilt.elapsed());
        }
        tr.next_request();
        let whole = tr.begin("harness", "iteration");
        if tr.is_on() && churn.iteration % PROBE_EVERY == 0 {
            let sql = churn.pool[churn.iteration as usize % churn.pool.len()].clone();
            probe(&churn, &sql, &mut tr, &mut probes);
        }
        churn.iterate(&mut tally, &mut tr);
        let dt = tr.end(whole);
        window.record(dt);
    }
    res.ops(window.ops(), tally.rejected);
    tr.set_on(run.traced);
    tr.next_request();
    let o = tr.begin("session", "report");
    let end = churn.opened.session.report();
    let report_us = us(tr.end(o));

    let checks = Instant::now();
    res.check(tally.retired > 0 && tally.barren == 0, || {
        format!(
            "{} of {} graphs retired without a join result",
            tally.barren, tally.retired
        )
    });
    res.check(end.send_failures() == 0 && end.queue_drops() == 0, || {
        format!(
            "{} send failures, {} queue drops on a lossless network",
            end.send_failures(),
            end.queue_drops()
        )
    });
    let cache = churn.opened.session.cache_stats();
    res.check(cache.hits > 0, || {
        "warm-start cache never hit in a churn of repeating shapes".into()
    });
    let check_s = checks.elapsed().as_secs_f64();

    if run.traced {
        // Counts (slots, cache, events, traffic) are the last session's.
        churn.opened.layer_metrics(&prefix, &end, &mut res);
        let admits = sorted(&tally.admit_ms);
        let busy_s = tally.step_ms.iter().sum::<f64>() / 1e3;
        res.set("query.parse_us_p50", median(&probes[0]));
        res.set("optimize.planspace_us_p50", median(&probes[1]));
        res.set("optimize.dp_us_p50", median(&probes[2]));
        res.set(
            "optimize.dp_us_max",
            probes[2].iter().copied().fold(0.0, f64::max),
        );
        res.set(
            "optimize.plan_cost_mean",
            tally.plan_cost.iter().sum::<f64>() / tally.plan_cost.len().max(1) as f64,
        );
        res.set("session.admit_ms_p50", percentile(&admits, 50.0));
        res.set("session.admit_ms_p90", percentile(&admits, 90.0));
        // What an admission costs beyond parsing and planning.
        let planning_ms = (median(&probes[0]) + median(&probes[1]) + median(&probes[2])) / 1e3;
        res.set(
            "session.initiation_ms_p50",
            (percentile(&admits, 50.0) - planning_ms).max(0.0),
        );
        res.set("session.retire_us_p50", median(&tally.retire_us));
        res.set("session.admit_drift", tally.drift(&tally.admit_ms));
        res.set("session.step_drift", tally.drift(&tally.step_ms));
        res.set("session.step_busy_s", busy_s);
        res.set("session.step_share", busy_s / window.wall_s());
        res.set(
            "session.step_ms_p50",
            median(&tally.step_ms) / f64::from(STEP_CYCLES),
        );
        res.set("session.report_us_p50", report_us);
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
