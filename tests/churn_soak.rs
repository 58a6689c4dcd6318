//! Proportionality guard for long-lived sessions: what a session holds
//! must follow the queries that are *live*, not the ids it ever issued.
//! A churn loop admits an n-way graph, steps, and retires the oldest graph
//! beyond three, through the control plane; the test counts live heap
//! bytes and per-node slot-table entries along the way. Counts only;
//! measures no time.
//!
//! The `#[ignore]`d long form is CI's release-mode soak: 2,000 iterations
//! on 400 nodes, twice, bounded by the process's peak resident set.

use aspen::join::prelude::*;
use aspen::net::NodeId;
use aspen::serve::{open_session, OpenSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};

thread_local! {
    /// Heap bytes this thread holds (allocated minus freed).
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct LiveBytes;

// SAFETY: every call goes to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` without a destructor, so touching
// it neither allocates nor outlives the thread's storage.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

fn add(bytes: isize) {
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const MAX_LIVE: usize = 3;
const POOL: usize = 6;
const CHECK_EVERY: usize = 40;

/// Graph `g` of the pool: a three-relation chain over `pos_x` bands (in
/// decimetres, as the attribute is) sized to hold a dozen producers each.
/// Graphs 0 and 5 are the same query on a 120-node field, so the loop also
/// shares sub-joins between resident graphs.
fn graph_sql(g: usize, nodes: usize) -> String {
    let width = 30_720 / nodes;
    let bands = 2_560 / width;
    let band = |r: usize| {
        let lo = (2 * g + 3 * r) % bands * width;
        (lo, lo + width)
    };
    let (a, b, c) = (band(0), band(1), band(2));
    let attr = if g.is_multiple_of(2) { 'u' } else { 'v' };
    format!(
        "SELECT a.id, c.id FROM a, b, c [windowsize=3 sampleinterval=100] \
         WHERE a.pos_x >= {} AND a.pos_x < {} AND b.pos_x >= {} AND b.pos_x < {} \
         AND c.pos_x >= {} AND c.pos_x < {} AND a.u = b.u AND b.{attr} = c.{attr}",
        a.0, a.1, b.0, b.1, c.0, c.1
    )
}

/// What one soak observed.
struct Soak {
    /// Live heap bytes and ids issued (graph ids and the pairwise ids of
    /// their sub-joins) after every `CHECK_EVERY`th iteration.
    checkpoints: Vec<(isize, usize)>,
    /// The final `REPORT` wire line.
    report: String,
}

/// The session `OPEN x nodes=<nodes> degree=7 seed=1` builds, churned for
/// `iterations`: admit the next graph of the pool, `STEP 2`, retire the
/// oldest graph beyond `MAX_LIVE` — all through `Session::apply`.
fn soak(nodes: usize, iterations: usize) -> Soak {
    let mut session = open_session(&OpenSpec {
        nodes,
        degree: 7.0,
        seed: 1,
    });
    let mut live: VecDeque<GraphId> = VecDeque::new();
    // Results of every retired pairwise query, read as it was retired.
    let mut retired: Vec<(QueryId, u64)> = Vec::new();
    let mut checkpoints = Vec::new();
    for it in 1..=iterations {
        let resp = session.apply(Command::Admit {
            algo: "innet-cmg-learn".into(),
            sql: graph_sql(it % POOL, nodes),
        });
        let Response::Admitted(Target::Graph(g)) = resp else {
            panic!("iteration {it}: {resp:?}");
        };
        live.push_back(g);
        session.apply(Command::Step(2));
        if live.len() > MAX_LIVE {
            let g = live.pop_front().expect("non-empty");
            let before: Vec<QueryId> = session.graph_queries(g);
            let resp = session.apply(Command::Retire(Target::Graph(g)));
            assert_eq!(resp, Response::Retired(Target::Graph(g)));
            // A sub-join another resident graph shares stays live.
            let still: BTreeSet<QueryId> = live_queries(&session, &live);
            for q in before.into_iter().filter(|q| !still.contains(q)) {
                retired.push((q, session.query_results(q)));
            }
        }
        if it.is_multiple_of(CHECK_EVERY) {
            assert_slots_are_live(&session, &live_queries(&session, &live), nodes);
            let issued = session.graph_slots() + session.query_slots();
            checkpoints.push((LIVE.get(), issued));
        }
    }

    // Retiring again, and retiring what was never issued, answer as ever.
    let (gone_q, _) = retired[0];
    for t in [Target::Graph(GraphId(0)), Target::Query(gone_q)] {
        assert_eq!(session.apply(Command::Retire(t)), Response::Retired(t));
    }
    for t in [
        Target::Graph(GraphId(session.graph_slots())),
        Target::Query(QueryId(session.query_slots())),
    ] {
        let resp = session.apply(Command::Retire(t));
        assert!(
            matches!(resp, Response::Rejected(ControlError::BadTarget(_))),
            "{t}: {resp:?}"
        );
    }

    // One row per id ever issued; a retired row keeps what it delivered.
    let resp = session.apply(Command::Report);
    let Response::Report(summary) = &resp else {
        panic!("{resp:?}");
    };
    assert_eq!(summary.queries.len(), session.query_slots());
    for &(q, results) in &retired {
        assert_eq!(summary.queries[q.0].results, results, "row of q{}", q.0);
    }
    assert!(
        retired.iter().any(|&(_, results)| results > 0),
        "no retired query ever delivered"
    );
    Soak {
        checkpoints,
        report: resp.encode(),
    }
}

/// The pairwise queries executing the resident graphs.
fn live_queries(session: &Session, live: &VecDeque<GraphId>) -> BTreeSet<QueryId> {
    live.iter()
        .flat_map(|&g| session.graph_queries(g))
        .collect()
}

/// Every node holds protocol state for exactly the live queries: summed
/// over nodes, slot-table entries = live pairwise queries x nodes.
fn assert_slots_are_live(session: &Session, live: &BTreeSet<QueryId>, nodes: usize) {
    let mut entries = 0;
    for q in (0..session.query_slots()).map(QueryId) {
        for n in (0..nodes as u16).map(NodeId) {
            let has = session.query_node(q, n).is_some();
            assert_eq!(has, live.contains(&q), "q{} at node {}", q.0, n.0);
            entries += usize::from(has);
        }
    }
    assert_eq!(entries, live.len() * nodes);
}

#[test]
fn live_heap_follows_live_queries_not_ids_issued() {
    let run = soak(120, 240);
    let (young, _) = run.checkpoints[0];
    let &(old, issued) = run.checkpoints.last().expect("six checkpoints");
    // What an id keeps on purpose: a report row's worth of bookkeeping,
    // and a retired graph still answers `graph_plan` / `graph_of`.
    let allowed = young + young * 15 / 100 + 256 * issued as isize;
    assert!(
        old <= allowed,
        "live heap grew from {young} B (iteration {CHECK_EVERY}) to {old} B with {issued} ids \
         issued; allowed {allowed} B. Checkpoints: {:?}",
        run.checkpoints
    );
}

/// CI's long soak (release mode, ~30 s): the process's peak resident set
/// stays bounded over 2,000 iterations on 400 nodes, and the run is
/// deterministic to the byte of its final `REPORT`.
#[test]
#[ignore = "long; run in release mode"]
fn long_soak_is_bounded_and_deterministic() {
    let first = soak(400, 2_000).report;
    assert_eq!(first, soak(400, 2_000).report);
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux procfs");
    let hwm_kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    eprintln!("peak resident set: {hwm_kb} kB");
    assert!(hwm_kb <= 64 * 1024, "peak resident set {hwm_kb} kB > 64 MB");
}
