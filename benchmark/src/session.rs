//! What the three session workloads share: a session built like
//! `aspen::serve::open_session`, phase by phase under spans, and the
//! session-layer metrics read back from it.

use crate::harness::{ms, Run};
use crate::inputs;
use crate::metrics::RunResult;
use crate::trace::Tracer;
use aspen::join::prelude::*;
use aspen::join::{EventLog, Outcome, SessionEvent};

/// An empty session on the workload's deployment, and what each phase of
/// building it took.
pub struct Opened {
    pub session: Session,
    /// The session's events; traced runs only.
    log: Option<EventLog>,
    topology_ms: f64,
    data_ms: f64,
    build_ms: f64,
}

pub fn open(nodes: usize, degree: f64, run: &Run, tr: &mut Tracer) -> Opened {
    let o = tr.begin("net", "topology");
    let topo = inputs::deployment(nodes, degree);
    let topology_ms = ms(tr.end(o));
    let o = tr.begin("workload", "data");
    let data = inputs::workload_data(&topo, run.seed);
    let data_ms = ms(tr.end(o));
    let o = tr.begin("session", "build");
    let mut session = Session::builder(topo, data)
        .sim(inputs::session_sim(run.seed))
        .allow_empty()
        .build();
    let build_ms = ms(tr.end(o));
    // Events are collected in the traced run only: an attached observer
    // makes the session keep migration/repair counters it otherwise skips.
    let log = run.traced.then(EventLog::new);
    if let Some(log) = &log {
        session.observe(Box::new(log.clone()));
    }
    Opened {
        session,
        log,
        topology_ms,
        data_ms,
        build_ms,
    }
}

/// The `REPORT` wire line of `out`: the byte-exact fingerprint of a
/// session's state that two builds of one seed must share.
pub fn report_line(session: &Session, out: &Outcome) -> String {
    Response::Report(Box::new(ReportSummary::from_outcome(session.cycle(), out))).encode()
}

impl Opened {
    /// Per-layer metrics every session workload reads the same way.
    /// `prefix` is the drained outcome at the end of the warm-up, `end`
    /// the one after the window.
    pub fn layer_metrics(&self, prefix: &Outcome, end: &Outcome, res: &mut RunResult) {
        res.set("net.topology_ms", self.topology_ms);
        res.set("workload.data_ms", self.data_ms);
        res.set("session.build_ms", self.build_ms);
        res.set("session.slots", self.session.query_slots() as f64);
        let cache = self.session.cache_stats();
        res.set("cache.hits", cache.hits as f64);
        res.set("cache.misses", cache.misses as f64);
        res.set("cache.insertions", cache.insertions as f64);
        res.set("cache.evictions", cache.evictions as f64);
        res.set(
            "cache.hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );
        res.set("sim.queue_drops", end.queue_drops() as f64);
        res.set("sim.send_failures", end.send_failures() as f64);
        res.set(
            "sim.tx_msgs",
            (end.total_traffic_msgs() - prefix.total_traffic_msgs()) as f64,
        );
        res.set(
            "sim.tx_bytes",
            (end.total_traffic_bytes() - prefix.total_traffic_bytes()) as f64,
        );
        // The paper's metric over the fixed warm-up prefix: exact per seed.
        let results = prefix.results_total();
        res.set("sim.results", results as f64);
        if results > 0 {
            res.set(
                "sim.bytes_per_result",
                prefix.total_traffic_bytes() as f64 / results as f64,
            );
        }
        let events = self.log.as_ref().map(EventLog::events).unwrap_or_default();
        let count = |f: fn(&SessionEvent) -> bool| events.iter().filter(|e| f(e)).count() as f64;
        res.set(
            "session.events.admitted",
            count(|e| matches!(e, SessionEvent::Admitted { .. })),
        );
        res.set(
            "session.events.retired",
            count(|e| matches!(e, SessionEvent::Retired { .. })),
        );
        res.set(
            "session.events.phase_transition",
            count(|e| matches!(e, SessionEvent::PhaseTransition { .. })),
        );
        res.set(
            "session.events.pairs_migrated",
            events
                .iter()
                .map(|e| match e {
                    SessionEvent::PairsMigrated { count, .. } => *count as f64,
                    _ => 0.0,
                })
                .sum(),
        );
    }
}
