//! Allocation guard for the `Session::step` hot path: the steady-state
//! cost of a sampling cycle is per message delivered, and a delivered
//! message must not cost a heap allocation of its own (a deep copy of the
//! compiled query, a scratch `Vec` per dispatch, a route rebuilt per hop).
//! What remains is about one shared tuple per sample, which every hop and
//! fan-out copy of its data message reuses: ~0.1 allocations per
//! transmission on both runs below. The bound of 0.25 leaves room for
//! that and fails as soon as a per-hop allocation comes back. Counts
//! calls into the allocator; measures no time; prints the ratio.

use aspen::join::prelude::*;
use aspen::net::random_with_degree;
use aspen::workload::WorkloadData;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)` while this thread counts its allocations.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call goes to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` without a destructor, so touching
// it neither allocates nor outlives the thread's storage.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `chain5` graph of `crates/bench/src/optimize.rs` on `pos_x` strips:
/// every node of the field produces (the benchmark's `dense_steady` SQL).
const CHAIN5_SQL: &str = "SELECT a.id, e.id FROM a, b, c, d, e \
     [windowsize=3 sampleinterval=100] \
     WHERE a.pos_x < 500 AND b.pos_x >= 500 AND b.pos_x < 1000 \
     AND c.pos_x >= 1000 AND c.pos_x < 1500 \
     AND d.pos_x >= 1500 AND d.pos_x < 2000 AND e.pos_x >= 2000 \
     AND a.u = b.u AND b.u = c.u AND c.v = d.v AND d.u = e.u";

const WARMUP: u32 = 10;
const MEASURED: u32 = 20;

/// A 300-node degree-7 session built like `aspen::serve::open_session`,
/// `chain5` admitted as `algo`, stepped through warm-up and the measured
/// cycles. Returns the final `REPORT` wire line and, when `counted`, the
/// allocations and simulated transmissions of the measured cycles (their
/// drain included).
fn run(algo: &str, counted: bool) -> (String, u64, u64) {
    let topo = random_with_degree(300, 7.0, 1);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 1);
    let sim = SimConfig {
        tx_per_cycle: 64,
        queue_capacity: 1024,
        ..SimConfig::lossless().with_seed(1)
    };
    let mut session = Session::builder(topo, data).sim(sim).allow_empty().build();
    let resp = session.apply(Command::Admit {
        algo: algo.into(),
        sql: CHAIN5_SQL.into(),
    });
    assert!(matches!(resp, Response::Admitted(_)), "{resp:?}");
    session.step(WARMUP);
    let before = session.report().total_traffic_msgs();
    ALLOCS.set(counted.then_some(0));
    session.step(MEASURED);
    let end = session.report();
    let allocs = ALLOCS.replace(None).unwrap_or(0);
    let line =
        Response::Report(Box::new(ReportSummary::from_outcome(session.cycle(), &end))).encode();
    (line, allocs, end.total_traffic_msgs() - before)
}

fn assert_allocation_free_per_message(algo: &str) {
    let (line, allocs, msgs) = run(algo, true);
    assert!(
        msgs > 20_000,
        "{algo}: only {msgs} transmissions, not a dense run"
    );
    let per_msg = allocs as f64 / msgs as f64;
    println!("{algo}: {allocs} allocations / {msgs} transmissions = {per_msg:.4} per transmission");
    assert!(
        per_msg <= 0.25,
        "{algo}: {allocs} allocations over {msgs} simulated transmissions = {per_msg:.2} per message"
    );
    assert_eq!(line, run(algo, false).0, "{algo}: counting changed the run");
}

#[test]
fn innet_step_allocates_less_than_once_per_message() {
    assert_allocation_free_per_message("innet-cmg-learn");
}

#[test]
fn naive_step_allocates_less_than_once_per_message() {
    assert_allocation_free_per_message("naive");
}
