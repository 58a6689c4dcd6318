//! The run harness: one long-lived [`Session`] per network.
//!
//! The paper's §6–§7 contribution is *continuous* operation — queries
//! arrive, adapt, migrate and survive failures over a long-lived network.
//! Every run in the repository, from a figure's one-query cell to a
//! server's churning population, is a session:
//!
//! - [`SessionBuilder`] assembles everything one network serves: topology,
//!   workload, routing substrate, [`SimConfig`], an optional
//!   [`DynamicsPlan`], the delivery [`Sharing`] discipline, an energy
//!   budget, and the initial query population.
//! - [`Session::admit`] initiates a query *live* at the current cycle
//!   (the staggered [`InitStep`] schedule); [`Session::retire`] snapshots
//!   and removes one.
//! - [`Session::step`] / [`Session::run_until`] advance sampling cycles;
//!   scheduled dynamics (kills, loss shifts, workload marks) fire at
//!   cycle boundaries.
//! - [`Session::report`] returns one [`Outcome`]: per-query rows,
//!   phase-separated traffic, §7 recovery totals and the dynamics trace.
//! - [`Observer`]s receive a [`CycleView`] per sampling cycle and
//!   [`SessionEvent`]s (admissions, retirements, migrations, deaths, loss
//!   shifts, phase transitions) — streaming telemetry instead of post-hoc
//!   stat scraping.
//!
//! A session is the run: it owns the engine with one [`MultiNode`] per
//! node, the network, substrate and workload its queries share, one record
//! per query id it ever issued, and one death flag per node that every
//! query reads. Every frame carries its query's tag and every query is an
//! engine flow. The paper's figures model untagged frames;
//! [`SessionBuilder::bare_wire`] gives them a tag of 0 bytes, which
//! restricts the session to its one static query.

use crate::cache::{region_of, spec_fingerprint, CacheStats, LearnedCache, Region};
use crate::cost::Sigma;
use crate::learn::DIVERGENCE_THRESHOLD;
use crate::msg::Msg;
use crate::multi::{
    BaseSnapshot, Lifecycle, MultiNode, QueryInstance, QueryStats, Sharing, QUERY_TAG_BYTES,
};
use crate::node::{JoinNode, RecoveryStats};
use crate::optimize::{optimize, sigmas_diverged, uniform_sigmas, Plan, PlanSpace};
use crate::scenario::{default_indexed_attrs, init_steps, reconvergence, InitStep};
use crate::shared::{all_alive, AlgoConfig, Shared};
use sensor_net::{NodeId, Topology};
use sensor_query::{JoinGraph, JoinQuerySpec};
use sensor_routing::substrate::MultiTreeSubstrate;
use sensor_sim::dynamics::DynamicsPlan;
use sensor_sim::{Ctx, Engine, FlowMetrics, Metrics, SimConfig};
use sensor_workload::WorkloadData;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

pub use crate::multi::LIVE_INIT_SPACING;

/// Handle to a query admitted into a [`Session`]. Ids are issued in
/// admission order and never reused, so the handle stays valid (for the
/// report, for an idempotent `retire`) after the query's retirement has
/// freed its state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub usize);

/// Handle to an n-way graph query admitted via [`Session::admit_graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(pub usize);

/// Harness phase a session is in (reported via
/// [`SessionEvent::PhaseTransition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Driving the cycle-0 queries' initiation schedules to quiescence.
    /// Traffic is accounted to [`Outcome::initiation`] (Table 3 separates
    /// initiation from computation cost).
    Initiation,
    /// Sampling cycles: data, results, adaptation, recovery, dynamics.
    Execution,
}

/// Something discrete that happened to the session. Delivered to
/// [`Observer::on_event`] as it happens.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// A query came online (cycle-0 batch or live admission).
    Admitted { cycle: u32, query: QueryId },
    /// A query was retired; its base counters were snapshotted.
    Retired { cycle: u32, query: QueryId },
    /// `count` join pairs finished migrating to new join nodes this cycle
    /// (§6 adaptation or §7 recovery hand-offs).
    PairsMigrated { cycle: u32, count: u64 },
    /// `count` path repairs succeeded this cycle (§7 local bypasses).
    PathsRepaired { cycle: u32, count: u64 },
    /// A node died: dynamics-plan kill, energy depletion, or
    /// [`Session::kill`].
    NodeKilled { cycle: u32, node: NodeId },
    /// The link-loss probability was stepped by the dynamics plan.
    LossShifted { cycle: u32, loss_prob: f64 },
    /// A workload-side event boundary (e.g. a selectivity shift baked into
    /// the schedule) passed.
    WorkloadMark { cycle: u32 },
    /// The harness moved between phases.
    PhaseTransition { cycle: u32, phase: Phase },
    /// A graph query's plan was re-optimized against learned σ estimates
    /// (§6 generalized to n-way plans); its skeleton sub-joins may have
    /// been swapped.
    Replanned { cycle: u32, graph: GraphId },
    /// The session was closed by its owner (`aspen-serve` `CLOSE`).
    /// Terminal: no further events follow on any subscription. Emitted by
    /// the serving layer, never by the session itself.
    Closed { cycle: u32 },
}

/// Per-sampling-cycle view handed to [`Observer::on_cycle`] right after
/// the cycle completed.
pub struct CycleView<'a> {
    /// The sampling cycle that just ran.
    pub cycle: u32,
    /// Engine transmission-cycle clock.
    pub now: u64,
    /// Join results delivered to the base station so far (live queries
    /// plus retired snapshots).
    pub results: u64,
    /// TX bytes put on the air during this cycle.
    pub cycle_tx_bytes: u64,
    /// Execution-phase traffic counters so far.
    pub metrics: &'a Metrics,
}

/// Streaming telemetry hook. Both methods default to no-ops so an
/// observer implements only what it needs. Observers are `Send` so a
/// whole [`Session`] can sit behind a serve shard's lock and run on
/// whichever connection thread holds it.
pub trait Observer {
    /// Called after every sampling cycle.
    fn on_cycle(&mut self, _view: &CycleView<'_>) {}
    /// Called for every discrete [`SessionEvent`].
    fn on_event(&mut self, _ev: &SessionEvent) {}
}

/// A ready-made [`Observer`] that records every event into a shared log
/// (clone it, hand one clone to the session, read the other afterwards).
#[derive(Clone, Default)]
pub struct EventLog(Arc<Mutex<Vec<SessionEvent>>>);

impl EventLog {
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<SessionEvent> {
        self.0.lock().unwrap().clone()
    }
}

impl Observer for EventLog {
    fn on_event(&mut self, ev: &SessionEvent) {
        self.0.lock().unwrap().push(ev.clone());
    }
}

// ----------------------------------------------------------------------
// The unified outcome.

/// Everything a finished (or in-flight) session can report: per-query
/// rows, phase-separated aggregate traffic, §7 recovery totals, and the
/// dynamics trace.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// One row per admitted query, in admission order (retired queries
    /// report their snapshot).
    pub per_query: Vec<QueryStats>,
    /// Traffic during the cycle-0 initiation phase.
    pub initiation: Metrics,
    /// Traffic during execution (including live initiations and recovery).
    pub execution: Metrics,
    /// Execution traffic of cross-query aggregate frames (flow 0; zero
    /// for independent-delivery sessions, bare-wire ones included).
    pub shared_flow: FlowMetrics,
    pub base: NodeId,
    /// Frames dropped at arrival because their query had been retired.
    pub expired_frames: u64,
    /// Transmission cycles the initiation phase took (Fig 6b latency).
    pub initiation_cycles: u64,
    /// Network-wide sum of the per-node §7 recovery counters.
    pub recovery: RecoveryStats,
    /// `(cycle, node)` for every mid-run death: plan kills, energy
    /// depletions and [`Session::kill`] calls alike.
    pub killed: Vec<(u32, NodeId)>,
    /// Messages discarded from dead nodes' queues.
    pub queued_msgs_lost: u64,
    /// Execution TX bytes per sampling cycle (recovery-overhead trace).
    pub per_cycle_tx_bytes: Vec<u64>,
    /// Join results delivered before the first scheduled event (all of
    /// them, for a static plan).
    pub results_pre_event: u64,
    /// Join results delivered at or after the first scheduled event.
    pub results_post_event: u64,
    /// Sampling cycles after the last event until per-cycle traffic
    /// settled back within 25% of the pre-event baseline for 3
    /// consecutive cycles. `None` for static plans or if the run ended
    /// first.
    pub reconvergence_cycles: Option<u32>,
    /// `(cycle, query)` live admissions that fired during execution.
    pub arrivals: Vec<(u32, usize)>,
    /// `(cycle, query)` retirements that fired during execution.
    pub departures: Vec<(u32, usize)>,
    /// Queries whose live initiation had not finished when the session
    /// was last reported (arrival too close to the last cycle for the full
    /// [`LIVE_INIT_SPACING`]-spaced step schedule). Their near-zero results
    /// are a truncation artifact, not an algorithmic effect.
    pub unfinished_inits: Vec<usize>,
}

impl Outcome {
    pub fn results_total(&self) -> u64 {
        self.per_query.iter().map(|q| q.results).sum()
    }

    pub fn total_traffic_bytes(&self) -> u64 {
        self.initiation.total_tx_bytes() + self.execution.total_tx_bytes()
    }

    pub fn execution_traffic_bytes(&self) -> u64 {
        self.execution.total_tx_bytes()
    }

    pub fn total_traffic_msgs(&self) -> u64 {
        self.initiation.total_tx_msgs() + self.execution.total_tx_msgs()
    }

    pub fn base_load_bytes(&self) -> u64 {
        self.initiation.load_bytes(self.base) + self.execution.load_bytes(self.base)
    }

    pub fn base_load_msgs(&self) -> u64 {
        self.initiation.load_msgs(self.base) + self.execution.load_msgs(self.base)
    }

    pub fn max_node_load_bytes(&self) -> u64 {
        let mut combined = self.initiation.clone();
        combined.absorb(&self.execution);
        combined.max_load_bytes()
    }

    /// Combined per-node loads (Fig 5).
    pub fn top_loads(&self, k: usize) -> Vec<u64> {
        let mut combined = self.initiation.clone();
        combined.absorb(&self.execution);
        combined.top_loads_bytes(k)
    }

    /// Result-weighted mean delivery delay across queries (tx cycles).
    pub fn avg_delay_tx(&self) -> f64 {
        // Single query: return its ratio directly — `(d/r * r) / r` is not
        // bit-identical to `d/r`, and the sweep reports are byte-compared.
        if let [only] = self.per_query.as_slice() {
            return only.avg_delay_tx;
        }
        let total = self.results_total();
        if total == 0 {
            return 0.0;
        }
        self.per_query
            .iter()
            .map(|q| q.avg_delay_tx * q.results as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Messages abandoned after exhausting retries, both phases.
    pub fn send_failures(&self) -> u64 {
        self.initiation.total_send_failures() + self.execution.total_send_failures()
    }

    /// Messages dropped on full queues, both phases.
    pub fn queue_drops(&self) -> u64 {
        self.initiation.total_queue_drops() + self.execution.total_queue_drops()
    }
}

// ----------------------------------------------------------------------
// The session proper.

/// One resident n-way graph query: its current plan and the fingerprints
/// of the skeleton sub-joins it holds references on.
struct GraphEntry {
    graph: JoinGraph,
    plan: Plan,
    cfg: AlgoConfig,
    /// Parallel to `plan.skeleton`: registry key of each sub-join.
    subs: Vec<String>,
    retired: bool,
}

/// One shared in-network sub-join operator: the pairwise query executing
/// it and how many resident graph plans reference it.
struct SharedSub {
    qid: QueryId,
    refs: usize,
}

/// Structural identity of a skeleton edge's sub-join, independent of the
/// owning graph's name or relation order: endpoint selections (canonical
/// S/T-form display), join predicate, window and sampling interval. Two
/// graphs whose plans contain the same fingerprint share one in-network
/// operator. When sharing is disabled the fingerprint is scoped to the
/// owning graph, which makes every reference private.
fn sub_fingerprint(graph: &JoinGraph, edge: usize, scope: Option<usize>) -> String {
    let e = &graph.edges[edge];
    let sel = |r: usize| {
        graph.relations[r]
            .selection
            .as_ref()
            .map(|s| s.to_string())
            .unwrap_or_default()
    };
    let base = format!(
        "{}|{}|{}|w{}|i{}",
        sel(e.a),
        sel(e.b),
        e.predicate,
        graph.window,
        graph.sample_interval
    );
    match scope {
        Some(g) => format!("{g}#{base}"),
        None => base,
    }
}

/// Cache identity of one admitted pairwise query, recorded at admission
/// so retirement can harvest its learned state under the same key.
struct CacheKey {
    fingerprint: String,
    region: Region,
    window: usize,
}

/// Everything a session keeps of one query id it ever issued. Ids are
/// never reused and the report has a row for every one, so retirement
/// frees what a row does not need.
struct QueryRecord {
    /// Query-spec name ("Query 1", …).
    name: String,
    cfg: AlgoConfig,
    lifecycle: Lifecycle,
    /// Brought online (initiation batch or live arrival); guards against
    /// double activation.
    online: bool,
    /// The query's run context, held from admission to retirement.
    shared: Option<Arc<Shared>>,
    /// Base counters at retirement; `Some` exactly once retired.
    snapshot: Option<BaseSnapshot>,
    /// Taken by the warm-start harvest at retirement (`None` after, and
    /// when warm-start is off).
    cache_key: Option<CacheKey>,
}

/// What the execution phase accumulates beyond the engine's counters: the
/// dynamics trace an [`Outcome`] reports, the totals retired queries
/// carried off the network, and the baselines of the per-cycle diffs.
/// `Default` is the state over a freshly built engine, whose counters all
/// start at zero.
#[derive(Default)]
struct Trace {
    killed: Vec<(u32, NodeId)>,
    queued_msgs_lost: u64,
    per_cycle_tx_bytes: Vec<u64>,
    /// Results at the moment the first scheduled event fired (`None`
    /// until one does).
    results_pre_event: Option<u64>,
    /// Bounds of the events that actually fired.
    first_fired: Option<u32>,
    last_fired: Option<u32>,
    arrivals: Vec<(u32, usize)>,
    departures: Vec<(u32, usize)>,
    /// §7 recovery counters of retired queries' protocol state (absorbed
    /// at retirement, so network totals never shrink), plus the App. G
    /// leaf moves the plan fired, which no node counts.
    carried_recovery: RecoveryStats,
    /// Migration adoptions, `WindowXfer` bytes and results of retired
    /// queries (same monotonicity need: observer diffing relies on it).
    carried_migrations: u64,
    carried_xfer_bytes: u64,
    carried_results: u64,
    /// Execution TX bytes when the last driven cycle ended: the base of
    /// the next cycle's `per_cycle_tx_bytes` entry, so each cycle reads
    /// the engine's running total once. Whoever runs the engine outside
    /// `drive_cycles` (a draining report) brings it up to date.
    tx_bytes_seen: u64,
    energy_seen: usize,
    energy_msgs_seen: u64,
    migrations_seen: u64,
    repairs_seen: u64,
}

/// A long-lived execution context: one network (topology + workload +
/// substrate + simulator) serving a changing population of join queries.
/// Built via [`SessionBuilder`]; see the [module docs](self) for the
/// lifecycle.
pub struct Session {
    engine: Engine<MultiNode>,
    /// The network, the routing substrate and the workload, one `Arc` of
    /// each shared by every query's [`Shared`] and held here so queries
    /// can be admitted into a session that hosts none (a freshly opened
    /// serve session).
    topo: Arc<Topology>,
    sub: Arc<MultiTreeSubstrate>,
    data: Arc<WorkloadData>,
    /// One flag per node, set once per death; every query's [`Shared`]
    /// reads this array, so a late admission knows every earlier death.
    dead: Arc<[AtomicBool]>,
    /// Frames go out untagged (the paper's single-query wire).
    bare: bool,
    plan: DynamicsPlan,
    /// Indexed by query id.
    queries: Vec<QueryRecord>,
    /// The queries admitted and not yet retired (waiting for their
    /// arrival cycle, or online), ascending: what the per-cycle lifecycle
    /// scans walk.
    live: Vec<usize>,
    /// Live-initiation steps pending for late arrivals.
    pending_steps: Vec<(u32, usize, InitStep)>,
    /// Next sampling cycle to run.
    next_cycle: u32,
    trace: Trace,
    observers: Vec<Box<dyn Observer + Send>>,
    /// Traffic of the cycle-0 initiation phase (empty until it ran).
    init_metrics: Metrics,
    init_cycles: u64,
    initiated: bool,
    graphs: Vec<GraphEntry>,
    sub_registry: BTreeMap<String, SharedSub>,
    share_subjoins: bool,
    /// Warm-start learned-state cache (see [`crate::cache`]); disabled
    /// sessions keep it empty.
    cache: LearnedCache,
    warm_start: bool,
}

impl Session {
    /// Start assembling a session over `topo` and `data`.
    pub fn builder(topo: Topology, data: WorkloadData) -> SessionBuilder {
        SessionBuilder::new(topo, data)
    }

    /// The next sampling cycle [`Session::step`] would run.
    pub fn cycle(&self) -> u32 {
        self.next_cycle
    }

    /// Pairwise query ids ever issued (ids are never reused, so this
    /// counts retired queries too; it bounds valid [`QueryId`]s).
    pub fn query_slots(&self) -> usize {
        self.queries.len()
    }

    /// Graph query slots ever admitted (bounds valid [`GraphId`]s).
    pub fn graph_slots(&self) -> usize {
        self.graphs.len()
    }

    /// Whether this is a [`SessionBuilder::bare_wire`] session, which
    /// hosts its one static query for its whole life: the one check every
    /// admission and retirement path consults.
    pub(crate) fn is_bare(&self) -> bool {
        self.bare
    }

    /// Panics with the bare wire's restriction when `self` is bare.
    fn assert_tagged(&self, what: &str) {
        assert!(
            !self.is_bare(),
            "bare-wire sessions host exactly one fixed query; \
             use the default tagged session for online {what}"
        );
    }

    /// Replace the dynamics plan (takes effect from the next cycle; events
    /// scheduled at already-run cycles never fire).
    pub fn set_plan(&mut self, plan: DynamicsPlan) {
        self.plan = plan;
    }

    /// Attach a streaming [`Observer`]. Attaching mid-run is fine: the
    /// migration/repair diff counters are re-baselined so the first
    /// events reflect only what happens from now on, not history.
    pub fn observe(&mut self, obs: Box<dyn Observer + Send>) {
        if self.observers.is_empty() {
            // The counters are only advanced while observers are attached
            // (sweeps shouldn't pay for telemetry nobody reads), so a
            // mid-run attach must not inherit a stale baseline.
            self.trace.migrations_seen = self.migrations_total();
            self.trace.repairs_seen = self.recovery_totals().repair_successes;
        }
        self.observers.push(obs);
    }

    /// Admit a new query live at the current cycle: its frames get their
    /// own engine flow and its [`InitStep`] schedule is spread over the
    /// next sampling cycles ([`LIVE_INIT_SPACING`] apart) while resident
    /// queries keep streaming. Before the first [`Session::step`] the
    /// query instead joins the cycle-0 initiation batch.
    ///
    /// With warm-start enabled (the default), the learned-state cache is
    /// consulted first: a [hit](crate::cache::LearnedCache::lookup)
    /// replaces `cfg.assumed` with the harvested σ of the nearest
    /// same-shape entry, seeding both the §3 initial placement and the §6
    /// divergence baseline; a miss admits cold, exactly as before.
    ///
    /// # Panics
    /// On a [`SessionBuilder::bare_wire`] session — the untagged wire
    /// format hosts exactly one query for its whole life.
    pub fn admit(&mut self, spec: JoinQuerySpec, mut cfg: AlgoConfig) -> QueryId {
        self.assert_tagged("admission");
        let key = self.cache_key(&spec);
        if let Some(k) = &key {
            if let Some(sigma) = self.cache.lookup(&k.fingerprint, k.region) {
                cfg.assumed = sigma;
            }
        }
        // Cycle-0 admissions are activated by the initiation batch; live
        // ones by the arrival scan at the top of the next cycle.
        let arrival = if self.initiated { self.next_cycle } else { 0 };
        QueryId(self.issue(spec, cfg, Lifecycle::arriving(arrival), key))
    }

    /// Retire a query now: snapshot its base counters (kept in the final
    /// [`Outcome`] row) and free everything else the session held for it,
    /// at every node and in the session. Idempotent.
    ///
    /// With warm-start enabled, the query's learned σ estimates, join-host
    /// placements and repair history are harvested into the session's
    /// [`LearnedCache`] *before* retirement frees the in-network state, so
    /// a later admission of the same shape can start warm.
    ///
    /// # Panics
    /// On a bare-wire session (see [`Session::admit`]).
    pub fn retire(&mut self, id: QueryId) {
        self.assert_tagged("retirement");
        let q = id.0;
        if self.queries[q].snapshot.is_some() {
            return;
        }
        // Harvest learned state while the per-node protocol instances
        // still hold it; retirement frees them everywhere. The cache
        // identity is of no use after.
        if let Some(key) = self.queries[q].cache_key.take() {
            if let Some(sigma) = self.learned_sigma(q, key.window) {
                let mut placements = Vec::new();
                let (mut attempts, mut successes) = (0u64, 0u64);
                for id in self.topo.node_ids() {
                    let Some(jn) = self.engine.node(id).query_node(q) else {
                        continue;
                    };
                    if !jn.pairs.is_empty() {
                        placements.push(id);
                    }
                    attempts += jn.recovery.repair_attempts;
                    successes += jn.recovery.repair_successes;
                }
                self.cache.insert(
                    key.fingerprint,
                    key.region,
                    sigma,
                    placements,
                    (attempts, successes),
                );
            }
        }
        self.retire_at(q, self.next_cycle);
    }

    /// Admit an n-way [`JoinGraph`] query: optimize a bushy plan over the
    /// session's topology and workload, then instantiate the plan's
    /// skeleton — one representative crossing join edge per interior plan
    /// node, a spanning tree of the graph — as pairwise in-network
    /// sub-queries. Skeleton sub-joins that structurally match one already
    /// executing for another resident graph are *shared*: the existing
    /// operator gets another reference instead of a second copy (disable
    /// with [`SessionBuilder::subjoin_sharing`]).
    ///
    /// With warm-start enabled, each edge's costing σ comes from the
    /// learned-state cache when its sub-join shape has a harvested entry,
    /// falling back to `cfg.assumed` per edge on a miss — so a re-admitted
    /// graph shape is planned against learned selectivities instead of a
    /// uniform assumption. (Skeleton sub-join *placement* is seeded
    /// automatically: instantiating the skeleton goes through
    /// [`Session::admit`], which consults the same cache.)
    ///
    /// # Panics
    /// On a bare-wire session (see [`Session::admit`]).
    pub fn admit_graph(&mut self, graph: &JoinGraph, cfg: AlgoConfig) -> GraphId {
        let sigmas = self.seeded_sigmas(graph, cfg.assumed);
        let space = PlanSpace::build(&self.topo, &self.data, graph);
        let plan = optimize(graph, &sigmas, &space);
        let gid = GraphId(self.graphs.len());
        let scope = (!self.share_subjoins).then_some(gid.0);
        let mut subs = Vec::with_capacity(plan.skeleton.len());
        for &e in &plan.skeleton {
            let fp = sub_fingerprint(graph, e, scope);
            self.acquire_sub(fp.clone(), graph, e, cfg);
            subs.push(fp);
        }
        self.graphs.push(GraphEntry {
            graph: graph.clone(),
            plan,
            cfg,
            subs,
            retired: false,
        });
        gid
    }

    /// Per-edge costing basis for `graph`: the cache's learned σ where the
    /// edge's sub-join shape has a harvested entry, `assumed` otherwise.
    /// With warm-start off this is exactly [`uniform_sigmas`].
    fn seeded_sigmas(&mut self, graph: &JoinGraph, assumed: Sigma) -> Vec<Sigma> {
        if !self.warm_start {
            return uniform_sigmas(graph, assumed);
        }
        let keys: Vec<(String, Region)> = (0..graph.edges.len())
            .map(|e| {
                let spec = graph.edge_spec(e);
                let region = region_of(&spec, &self.topo, &self.data);
                (spec_fingerprint(&spec), region)
            })
            .collect();
        keys.into_iter()
            .map(|(fp, region)| self.cache.lookup(&fp, region).unwrap_or(assumed))
            .collect()
    }

    /// Aggregate counters of the warm-start learned-state cache (exposed
    /// over the wire as `CACHESTATS`).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Read access to the learned-state cache (diagnostics; the parity
    /// suite peeks harvested entries through this).
    pub fn learned_cache(&self) -> &crate::cache::LearnedCache {
        &self.cache
    }

    /// Network-wide §6 migration control traffic so far: bytes put on the
    /// air carrying `WindowXfer` frames. Monotone across retirements, so
    /// per-phase costs fall out of boundary differences.
    pub fn migration_xfer_bytes(&self) -> u64 {
        let live: u64 = self.live_nodes().map(|jn| jn.xfer_bytes).sum();
        self.trace.carried_xfer_bytes + live
    }

    /// Retire a graph query: drop its references on its skeleton
    /// sub-joins; operators no longer referenced by any resident graph are
    /// retired from the network ([`Session::retire`]). Idempotent.
    pub fn retire_graph(&mut self, id: GraphId) {
        if self.graphs[id.0].retired {
            return;
        }
        self.graphs[id.0].retired = true;
        let subs = std::mem::take(&mut self.graphs[id.0].subs);
        for fp in &subs {
            self.release_sub(fp);
        }
    }

    /// The current costed plan of a resident graph query.
    pub fn graph_plan(&self, id: GraphId) -> &Plan {
        &self.graphs[id.0].plan
    }

    /// The admitted [`JoinGraph`] of slot `id` (the federation layer
    /// re-prices member shares against this).
    pub fn graph_of(&self, id: GraphId) -> &JoinGraph {
        &self.graphs[id.0].graph
    }

    /// The pairwise sub-queries currently executing graph `id`'s skeleton,
    /// in plan order (shared operators appear for every graph referencing
    /// them).
    pub fn graph_queries(&self, id: GraphId) -> Vec<QueryId> {
        self.graphs[id.0]
            .subs
            .iter()
            .map(|fp| self.sub_registry[fp].qid)
            .collect()
    }

    /// §6 re-optimization hook, generalized to plans: aggregate the
    /// learned σ estimates of graph `id`'s skeleton sub-queries, and if
    /// any edge's estimate diverged from the plan's costing basis by more
    /// than [`DIVERGENCE_THRESHOLD`], re-run the DP on the learned
    /// values and swap the skeleton in place ([`Session::replan_with`]).
    /// Returns whether a re-plan happened.
    pub fn maybe_replan(&mut self, id: GraphId) -> bool {
        let entry = &self.graphs[id.0];
        if entry.retired {
            return false;
        }
        let w = entry.graph.window;
        let mut learned: Vec<Option<Sigma>> = vec![None; entry.graph.edges.len()];
        for (k, &e) in entry.plan.skeleton.iter().enumerate() {
            let qid = self.sub_registry[&entry.subs[k]].qid;
            learned[e] = self.learned_sigma(qid.0, w);
        }
        let entry = &self.graphs[id.0];
        if !sigmas_diverged(&entry.plan.sigmas, &learned, DIVERGENCE_THRESHOLD) {
            return false;
        }
        let sigmas: Vec<Sigma> = entry
            .plan
            .sigmas
            .iter()
            .zip(&learned)
            .map(|(b, l)| l.unwrap_or(*b))
            .collect();
        self.replan_with(id, &sigmas);
        true
    }

    /// Re-optimize graph `id` against an explicit per-edge σ basis and
    /// swap its skeleton live: sub-joins shared between the old and new
    /// plans keep running untouched, new ones are admitted, and old ones
    /// whose last reference this was are retired. Emits
    /// [`SessionEvent::Replanned`].
    ///
    /// A retired graph is a graceful no-op: its skeleton references were
    /// already released, and re-acquiring them here would resurrect
    /// retired sub-join operators on the network.
    ///
    /// # Panics
    /// If `sigmas.len()` ≠ the edge count.
    pub fn replan_with(&mut self, id: GraphId, sigmas: &[Sigma]) {
        let entry = &self.graphs[id.0];
        if entry.retired {
            return;
        }
        let graph = entry.graph.clone();
        let cfg = entry.cfg;
        let space = PlanSpace::build(&self.topo, &self.data, &graph);
        let plan = optimize(&graph, sigmas, &space);
        let scope = (!self.share_subjoins).then_some(id.0);
        // Acquire the new skeleton first, then release the old one, so
        // sub-joins common to both plans never drop to zero references
        // (which would bounce a running operator off the network).
        let mut subs = Vec::with_capacity(plan.skeleton.len());
        for &e in &plan.skeleton {
            let fp = sub_fingerprint(&graph, e, scope);
            self.acquire_sub(fp.clone(), &graph, e, cfg);
            subs.push(fp);
        }
        let old_subs = std::mem::replace(&mut self.graphs[id.0].subs, subs);
        self.graphs[id.0].plan = plan;
        for fp in &old_subs {
            self.release_sub(fp);
        }
        self.emit(SessionEvent::Replanned {
            cycle: self.next_cycle,
            graph: id,
        });
    }

    /// Take (or add) a reference on the sub-join keyed `fp`, admitting its
    /// pairwise query if no live operator exists.
    fn acquire_sub(&mut self, fp: String, graph: &JoinGraph, edge: usize, cfg: AlgoConfig) {
        if let Some(sub) = self.sub_registry.get_mut(&fp) {
            sub.refs += 1;
            return;
        }
        let qid = self.admit(graph.edge_spec(edge), cfg);
        self.sub_registry.insert(fp, SharedSub { qid, refs: 1 });
    }

    /// Drop a reference on the sub-join keyed `fp`; the last reference
    /// retires its pairwise query and forgets the key (a graph-scoped key
    /// is never asked for again).
    fn release_sub(&mut self, fp: &str) {
        let sub = self
            .sub_registry
            .get_mut(fp)
            .expect("released sub-join was acquired");
        sub.refs -= 1;
        if sub.refs == 0 {
            let qid = sub.qid;
            self.sub_registry.remove(fp);
            self.retire(qid);
        }
    }

    /// Advance `n` sampling cycles (running the initiation phase first if
    /// it has not happened yet). In-flight messages are *not* drained
    /// between calls; [`Session::report`] drains.
    pub fn step(&mut self, n: u32) {
        self.ensure_initiated();
        self.drive_cycles(n);
    }

    /// Step one cycle at a time until `pred` returns `true` on the
    /// just-completed cycle's [`CycleView`]. Returns the number of cycles
    /// advanced. A predicate that never fires loops forever — bound it on
    /// `view.cycle` if unsure.
    pub fn run_until(&mut self, mut pred: impl FnMut(&CycleView<'_>) -> bool) -> u32 {
        self.ensure_initiated();
        let start = self.next_cycle;
        loop {
            self.step(1);
            if pred(&self.cycle_view(self.next_cycle - 1)) {
                break;
            }
        }
        self.next_cycle - start
    }

    /// Kill a node immediately (outside any dynamics plan): its queue is
    /// discarded, every query's liveness oracle learns of the death,
    /// observers get a [`SessionEvent::NodeKilled`], and the kill counts
    /// as an *event* for the [`Outcome`]'s pre/post-event result split
    /// and re-convergence trace, exactly like a plan-scheduled failure.
    pub fn kill(&mut self, v: NodeId) {
        let c = self.next_cycle;
        self.note_event(c);
        self.trace.queued_msgs_lost += self.engine.kill(v) as u64;
        self.record_death(c, v);
    }

    /// Results delivered to the base so far for query `id`, *without*
    /// draining in-flight messages (retired queries report their final
    /// snapshot). The federation layer reads cross-network sub-join output
    /// streams through this at every cycle boundary, where a draining
    /// [`Session::report`] would perturb the run.
    pub fn query_results(&self, id: QueryId) -> u64 {
        self.base_counters(id.0).results
    }

    /// Nodes the engine has visited so far, initiation included: one per
    /// node transmit pass and one per sampling tick dispatched (see
    /// [`sensor_sim::Engine::node_visits`]). Deterministic; a work counter,
    /// not a traffic figure.
    pub fn node_visits(&self) -> u64 {
        self.engine.node_visits()
    }

    /// The network this session executes over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The workload data this session executes over.
    pub fn workload(&self) -> &WorkloadData {
        &self.data
    }

    /// The alive non-base node currently serving the most join pairs
    /// (failure-target selection, Fig 14).
    pub fn busiest_join_node(&self) -> Option<NodeId> {
        busiest_join_node(&self.engine, self.topo.base())
    }

    /// Read access to query `id`'s protocol instance at node `node`
    /// (diagnostics; e.g. producer assignments after initiation). `None`
    /// before the query has come online and once it has been retired.
    pub fn query_node(&self, id: QueryId, node: NodeId) -> Option<&JoinNode> {
        self.engine.node(node).query_node(id.0)
    }

    /// Drain in-flight messages and assemble the unified [`Outcome`].
    /// May be called mid-run (and repeatedly); draining runs the engine
    /// until quiescence so the last cycles' results are counted.
    pub fn report(&mut self) -> Outcome {
        self.ensure_initiated();
        self.engine.run_until_quiet(5_000);
        let exec = self.engine.metrics().clone();
        // The drain's traffic belongs to no cycle.
        self.trace.tx_bytes_seen = exec.total_tx_bytes();
        let per_query: Vec<QueryStats> = self
            .queries
            .iter()
            .enumerate()
            .map(|(q, r)| {
                let snap = self.base_counters(q);
                let avg_delay = if snap.results > 0 {
                    snap.delay_sum as f64 / snap.results as f64
                } else {
                    0.0
                };
                QueryStats {
                    label: r.cfg.label(),
                    name: r.name.clone(),
                    arrival: r.lifecycle.arrival,
                    departure: r.lifecycle.departure,
                    results: snap.results,
                    avg_delay_tx: avg_delay,
                    flow: exec.flow(q + 1),
                }
            })
            .collect();
        let total: u64 = per_query.iter().map(|q| q.results).sum();
        let t = &self.trace;
        let pre = t.results_pre_event.unwrap_or(total);
        // Queries whose live initiation still has steps pending.
        let mut unfinished: Vec<usize> = self.pending_steps.iter().map(|&(_, q, _)| q).collect();
        unfinished.sort_unstable();
        unfinished.dedup();
        Outcome {
            shared_flow: exec.flow(0),
            base: self.topo.base(),
            expired_frames: self.engine.nodes().iter().map(|n| n.expired_frames).sum(),
            recovery: self.recovery_totals(),
            per_query,
            initiation: self.init_metrics.clone(),
            execution: exec,
            initiation_cycles: self.init_cycles,
            killed: t.killed.clone(),
            queued_msgs_lost: t.queued_msgs_lost,
            per_cycle_tx_bytes: t.per_cycle_tx_bytes.clone(),
            results_pre_event: pre,
            results_post_event: total - pre,
            reconvergence_cycles: reconvergence(&t.per_cycle_tx_bytes, t.first_fired, t.last_fired),
            arrivals: t.arrivals.clone(),
            departures: t.departures.clone(),
            unfinished_inits: unfinished,
        }
    }
}

// ----------------------------------------------------------------------
// The run underneath: query records, the drivers and network-wide totals.

impl Session {
    /// Warm-start cache identity of `spec` (`None` with warm-start off).
    fn cache_key(&self, spec: &JoinQuerySpec) -> Option<CacheKey> {
        self.warm_start.then(|| CacheKey {
            fingerprint: spec_fingerprint(spec),
            region: region_of(spec, &self.topo, &self.data),
            window: spec.window,
        })
    }

    /// Issue the next query id. Its run context shares the network,
    /// substrate, workload and death flags; it has no per-node state until
    /// it is activated. A path-collapsing query turns the engine's
    /// snooping on for the rest of the run: its relays learn cross-links
    /// by overhearing.
    fn issue(
        &mut self,
        spec: JoinQuerySpec,
        cfg: AlgoConfig,
        lifecycle: Lifecycle,
        cache_key: Option<CacheKey>,
    ) -> usize {
        if cfg.innet.path_collapse {
            self.engine.set_snooping(true);
        }
        let q = self.queries.len();
        let name = spec.name.clone();
        let (topo, sub, data) = (self.topo.clone(), self.sub.clone(), self.data.clone());
        let tx_per = self.engine.config().tx_per_sampling_cycle;
        let sh = Shared::reading(self.dead.clone(), tx_per, topo, sub, spec, data, cfg);
        self.queries.push(QueryRecord {
            name,
            cfg,
            lifecycle,
            online: false,
            shared: Some(Arc::new(sh)),
            snapshot: None,
            cache_key,
        });
        self.live.push(q);
        q
    }

    /// Bring query `q` online at every node.
    ///
    /// # Panics
    /// If `q` was retired: its run context is gone.
    fn activate(&mut self, q: usize) {
        let record = &mut self.queries[q];
        record.online = true;
        let sh = record
            .shared
            .clone()
            .expect("a retired query is never activated");
        for id in self.topo.node_ids() {
            self.engine.node_mut(id).activate(q, &sh);
        }
    }

    /// Fire one initiation step of query `q` across the network: the
    /// step's entry point at the base (`Flood`), at every other node
    /// (`Announce`) or at every node, each through the per-query drive so
    /// emissions are framed. A drive for a query with no slot is a
    /// side-effect-free no-op, so no per-node activity guard is needed.
    fn apply_step(&mut self, q: usize, step: InitStep) {
        let f: fn(&mut JoinNode, &mut Ctx<'_, Msg>) = match step {
            InitStep::Flood => |nd, c| nd.start_flood(c),
            InitStep::EnsureQuery => |nd, _| nd.ensure_query(),
            InitStep::Announce => |nd, c| nd.start_announce(c),
            InitStep::GhtRegister => |nd, c| nd.start_ght_register(c),
            InitStep::Search => |nd, c| nd.start_search(c),
            InitStep::FinishTSide => |nd, _| nd.finish_t_side_assigns(),
            InitStep::GroupOpt => |nd, c| nd.start_group_opt(c),
        };
        let base = self.topo.base();
        for id in self.topo.node_ids() {
            let fires = match step {
                InitStep::Flood => id == base,
                InitStep::Announce => id != base,
                _ => true,
            };
            if fires {
                self.engine.with_node(id, |mn, ctx| mn.drive(ctx, q, f));
            }
        }
    }

    /// Retire query `q` at cycle `c`: take it offline everywhere, free its
    /// per-node state and run context, and keep its base counters (zero
    /// for a query that never came online) for the report. The retired
    /// instances' recovery/migration counters are carried into the trace
    /// so network-wide totals never shrink on retirement.
    fn retire_at(&mut self, q: usize, c: u32) {
        let base = self.topo.base();
        let mut snap = BaseSnapshot::default();
        for id in self.topo.node_ids() {
            let Some(node) = self.engine.node_mut(id).deactivate(q) else {
                continue;
            };
            self.trace.carried_recovery.absorb(&node.recovery);
            self.trace.carried_migrations += node.migrations_adopted;
            self.trace.carried_xfer_bytes += node.xfer_bytes;
            if id == base {
                snap = BaseSnapshot::of(&node);
            }
        }
        self.trace.carried_results += snap.results;
        let record = &mut self.queries[q];
        record.shared = None;
        record.cache_key = None;
        record.snapshot = Some(snap);
        record.lifecycle.departure = Some(c);
        self.live.retain(|&l| l != q);
        // A deliberate retirement is not a truncated initiation: its
        // pending live-init steps are moot, and dropping them keeps
        // `unfinished_inits` an honest truncation signal.
        self.pending_steps.retain(|&(_, pq, _)| pq != q);
        self.trace.departures.push((c, q));
        self.emit(SessionEvent::Retired {
            cycle: c,
            query: QueryId(q),
        });
    }

    fn emit(&mut self, ev: SessionEvent) {
        for o in &mut self.observers {
            o.on_event(&ev);
        }
    }

    /// A dynamics event fired at cycle `c`: the first one splits the
    /// results into pre- and post-event, and the bounds of all of them
    /// feed the re-convergence trace.
    fn note_event(&mut self, c: u32) {
        if self.trace.results_pre_event.is_none() {
            self.trace.results_pre_event = Some(self.results_so_far());
            self.trace.first_fired = Some(c);
        }
        self.trace.last_fired = Some(c);
    }

    /// Node `v` died at cycle `c`: set the one flag every query reads, and
    /// record the death.
    fn record_death(&mut self, c: u32, v: NodeId) {
        self.dead[v.index()].store(true, Ordering::Relaxed);
        self.trace.killed.push((c, v));
        self.emit(SessionEvent::NodeKilled { cycle: c, node: v });
    }

    /// Run the cycle-0 initiation phase once: the cycle-0 batch (minus
    /// anything already retired) is activated and its steps are driven to
    /// quiescence, interleaved across queries so their control traffic
    /// contends. The phase's traffic and length are kept, and execution
    /// starts on fresh metrics and a rewound clock.
    fn ensure_initiated(&mut self) {
        if self.initiated {
            return;
        }
        self.emit(SessionEvent::PhaseTransition {
            cycle: 0,
            phase: Phase::Initiation,
        });
        // A pre-step `retire` must stick: the query never comes online.
        let arrivals: Vec<usize> = self
            .live
            .iter()
            .copied()
            .filter(|&q| self.queries[q].lifecycle.arrival == 0)
            .collect();
        for &q in &arrivals {
            self.emit(SessionEvent::Admitted {
                cycle: 0,
                query: QueryId(q),
            });
        }
        for &q in &arrivals {
            self.activate(q);
        }
        let schedules: Vec<Vec<(InitStep, u64)>> = arrivals
            .iter()
            .map(|&q| init_steps(&self.queries[q].cfg))
            .collect();
        let max_len = schedules.iter().map(Vec::len).max().unwrap_or(0);
        for step_idx in 0..max_len {
            let mut budget = 0u64;
            for (ai, &q) in arrivals.iter().enumerate() {
                if let Some(&(step, b)) = schedules[ai].get(step_idx) {
                    self.apply_step(q, step);
                    budget = budget.max(b);
                }
            }
            if budget > 0 {
                self.engine.run_until_quiet(budget);
            }
        }
        self.init_cycles = self.engine.now();
        self.init_metrics = self.engine.metrics().clone();
        self.engine.reset_metrics();
        self.engine.reset_clock();
        self.initiated = true;
        self.emit(SessionEvent::PhaseTransition {
            cycle: 0,
            phase: Phase::Execution,
        });
    }

    /// Run `n` sampling cycles: lifecycle events (departures, then arrivals
    /// and due live-init steps), then scheduled dynamics, then the sampling
    /// cycle itself, then energy-depletion propagation.
    fn drive_cycles(&mut self, n: u32) {
        let end = self.next_cycle + n;
        for c in self.next_cycle..end {
            if self.plan.has_event_at(c) {
                self.note_event(c);
            }
            // Lifecycle: departures first (a query leaving at c does not
            // sample at c), then arrivals, then any due live-init steps.
            let departing: Vec<usize> = self
                .live
                .iter()
                .copied()
                .filter(|&q| self.queries[q].lifecycle.departure == Some(c))
                .collect();
            for q in departing {
                self.retire_at(q, c);
            }
            // A query already retired is no longer in `live`, so it never
            // re-arrives, even under a nonsensical departure-before-arrival
            // lifecycle.
            for i in 0..self.live.len() {
                let q = self.live[i];
                let record = &self.queries[q];
                if record.lifecycle.arrival == c && !record.online {
                    let steps = init_steps(&record.cfg);
                    self.activate(q);
                    self.trace.arrivals.push((c, q));
                    for (i, (step, _)) in steps.iter().enumerate() {
                        self.pending_steps
                            .push((c + i as u32 * LIVE_INIT_SPACING, q, *step));
                    }
                    self.emit(SessionEvent::Admitted {
                        cycle: c,
                        query: QueryId(q),
                    });
                }
            }
            let due: Vec<(usize, InitStep)> = self
                .pending_steps
                .iter()
                .filter(|&&(at, _, _)| at == c)
                .map(|&(_, q, step)| (q, step))
                .collect();
            for (q, step) in due {
                self.apply_step(q, step);
            }
            self.pending_steps.retain(|&(at, _, _)| at > c);
            // Scheduled dynamics (kills resolve `Picked` to the busiest join
            // node — §7's worst-case victim).
            let base = self.topo.base();
            let fired = self
                .plan
                .fire(c, &mut self.engine, |eng| busiest_join_node(eng, base));
            self.trace.queued_msgs_lost += fired.queued_msgs_dropped;
            for &v in &fired.killed {
                self.record_death(c, v);
            }
            for &p in &fired.loss_shifts {
                self.emit(SessionEvent::LossShifted {
                    cycle: c,
                    loss_prob: p,
                });
            }
            // Mobile-leaf re-homings (App. G): the engine resolved who moves
            // where; the substrate charges the summary-update delay/traffic.
            for &(node, to) in &fired.moved {
                let mv = sensor_routing::mobility::move_leaf(&self.topo, &self.sub, node, to);
                let r = &mut self.trace.carried_recovery;
                r.leaf_moves += 1;
                r.move_delay_cycles += u64::from(mv.delay_cycles);
                r.move_update_bytes += mv.traffic_bytes;
            }
            if self.plan.marks.contains(&c) {
                self.emit(SessionEvent::WorkloadMark { cycle: c });
            }
            debug_assert_eq!(
                self.trace.tx_bytes_seen,
                self.engine.total_tx_bytes(),
                "traffic outside a driven cycle"
            );
            self.engine.sampling_cycle(c);
            // Nodes that ran out of energy this cycle die like plan kills.
            // A depletion is discovered only after the cycle ran, so its
            // "pre" snapshot includes this cycle's results (the death
            // happened during it).
            let depleted: Vec<NodeId> =
                self.engine.energy_depleted()[self.trace.energy_seen..].to_vec();
            self.trace.energy_seen += depleted.len();
            if !depleted.is_empty() {
                self.note_event(c);
            }
            for v in depleted {
                self.record_death(c, v);
            }
            let energy_msgs = self.engine.energy_msgs_dropped();
            self.trace.queued_msgs_lost += energy_msgs - self.trace.energy_msgs_seen;
            self.trace.energy_msgs_seen = energy_msgs;
            let tx_bytes = self.engine.total_tx_bytes();
            self.trace
                .per_cycle_tx_bytes
                .push(tx_bytes - self.trace.tx_bytes_seen);
            self.trace.tx_bytes_seen = tx_bytes;
            if !self.observers.is_empty() {
                self.observe_cycle(c);
            }
        }
        self.next_cycle = end;
    }

    /// The observer stream's end of cycle `c`: migration and repair
    /// events diffed from the monotone network totals, then the view.
    fn observe_cycle(&mut self, c: u32) {
        let mig = self.migrations_total();
        if mig > self.trace.migrations_seen {
            self.emit(SessionEvent::PairsMigrated {
                cycle: c,
                count: mig - self.trace.migrations_seen,
            });
        }
        self.trace.migrations_seen = mig;
        let rep = self.recovery_totals().repair_successes;
        if rep > self.trace.repairs_seen {
            self.emit(SessionEvent::PathsRepaired {
                cycle: c,
                count: rep - self.trace.repairs_seen,
            });
        }
        self.trace.repairs_seen = rep;
        let mut observers = std::mem::take(&mut self.observers);
        let view = self.cycle_view(c);
        for o in &mut observers {
            o.on_cycle(&view);
        }
        self.observers = observers;
    }

    /// The per-cycle view both the observer stream and [`Session::run_until`]
    /// predicates see — one constructor so the two can never drift apart.
    fn cycle_view(&self, cycle: u32) -> CycleView<'_> {
        CycleView {
            cycle,
            now: self.engine.now(),
            results: self.results_so_far(),
            cycle_tx_bytes: *self.trace.per_cycle_tx_bytes.last().unwrap_or(&0),
            metrics: self.engine.metrics(),
        }
    }

    /// Join results delivered to the base so far: the online queries'
    /// counters plus what the retired ones left with.
    fn results_so_far(&self) -> u64 {
        let base = self.engine.node(self.topo.base());
        let live: u64 = base
            .query_nodes()
            .map(|jn| BaseSnapshot::of(jn).results)
            .sum();
        live + self.trace.carried_results
    }

    /// Query `q`'s base counters: its snapshot once retired, its live
    /// counters before (zero before it came online).
    fn base_counters(&self, q: usize) -> BaseSnapshot {
        self.queries[q].snapshot.unwrap_or_else(|| {
            self.query_node(QueryId(q), self.topo.base())
                .map(BaseSnapshot::of)
                .unwrap_or_default()
        })
    }

    /// Mean of query `q`'s learned per-pair σ estimates across every join
    /// node currently holding state for it (`None` until §6 learning has
    /// evidence). `w` is the query's window size.
    fn learned_sigma(&self, q: usize, w: usize) -> Option<Sigma> {
        let (mut s, mut t, mut st, mut n) = (0.0, 0.0, 0.0, 0u32);
        let estimates = self
            .engine
            .nodes()
            .iter()
            .filter_map(|mn| mn.query_node(q))
            .flat_map(|jn| jn.pairs.values())
            .filter_map(|ps| ps.stats.estimate(w));
        for e in estimates {
            s += e.s;
            t += e.t;
            st += e.st;
            n += 1;
        }
        (n > 0).then(|| {
            let n = f64::from(n);
            Sigma::new(s / n, t / n, st / n)
        })
    }

    /// Network-wide sum of the §7 recovery counters across every query's
    /// protocol instances, including those retired queries carried, plus
    /// the plan's leaf moves: monotone across the whole run.
    fn recovery_totals(&self) -> RecoveryStats {
        let mut total = self.trace.carried_recovery;
        for jn in self.live_nodes() {
            total.absorb(&jn.recovery);
        }
        total
    }

    /// Network-wide migration adoptions, monotone across retirements
    /// (observer diffing).
    fn migrations_total(&self) -> u64 {
        let live: u64 = self.live_nodes().map(|jn| jn.migrations_adopted).sum();
        self.trace.carried_migrations + live
    }

    /// Every live query's protocol instance at every node.
    fn live_nodes(&self) -> impl Iterator<Item = &JoinNode> {
        self.engine.nodes().iter().flat_map(|mn| mn.query_nodes())
    }
}

/// The alive non-base node serving the most join pairs across all live
/// queries.
fn busiest_join_node(engine: &Engine<MultiNode>, base: NodeId) -> Option<NodeId> {
    (0..engine.topology().len() as u16)
        .map(NodeId)
        .filter(|&id| id != base && engine.is_alive(id))
        .max_by_key(|&id| engine.node(id).pair_count_total())
        .filter(|&id| engine.node(id).pair_count_total() > 0)
}

/// Fluent assembly of a [`Session`]; see the [module docs](self).
///
/// ```
/// use aspen_join::prelude::*;
/// use aspen_join::{Algorithm, InnetOptions};
///
/// let topo = sensor_net::random_with_degree(60, 7.0, 1);
/// let data = sensor_workload::WorkloadData::new(
///     &topo,
///     Schedule::Uniform(Rates::new(2, 2, 5)),
///     1,
/// );
/// let cfg = AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2))
///     .with_innet_options(InnetOptions::CMG);
/// let mut session = Session::builder(topo, data)
///     .query(sensor_workload::query1(3), cfg)
///     .build();
/// session.step(10);
/// let outcome = session.report();
/// assert!(outcome.total_traffic_bytes() > 0);
/// ```
pub struct SessionBuilder {
    topo: Topology,
    data: WorkloadData,
    sim: SimConfig,
    num_trees: usize,
    sharing: Sharing,
    plan: DynamicsPlan,
    queries: Vec<QueryInstance>,
    bare: bool,
    allow_empty: bool,
    observers: Vec<Box<dyn Observer + Send>>,
    share_subjoins: bool,
    warm_start: bool,
}

impl SessionBuilder {
    pub fn new(topo: Topology, data: WorkloadData) -> SessionBuilder {
        SessionBuilder {
            topo,
            data,
            sim: SimConfig::default(),
            num_trees: 3,
            sharing: Sharing::Independent,
            plan: DynamicsPlan::none(),
            queries: Vec::new(),
            bare: false,
            allow_empty: false,
            observers: Vec::new(),
            share_subjoins: true,
            warm_start: true,
        }
    }

    /// Simulator parameters (loss, MAC budget, seed, fair MAC, …).
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Routing trees in the multi-tree substrate (default 3).
    pub fn trees(mut self, n: usize) -> Self {
        self.num_trees = n;
        self
    }

    /// How concurrent queries share delivery capacity (default
    /// [`Sharing::Independent`]).
    pub fn sharing(mut self, sharing: Sharing) -> Self {
        self.sharing = sharing;
        self
    }

    /// Declarative network dynamics fired at cycle boundaries.
    pub fn plan(mut self, plan: DynamicsPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Add a query present from cycle 0.
    pub fn query(self, spec: JoinQuerySpec, cfg: AlgoConfig) -> Self {
        self.query_instance(QueryInstance {
            spec,
            cfg,
            lifecycle: Lifecycle::STATIC,
        })
    }

    /// Add a query arriving at `arrival` (initiates live mid-run).
    pub fn query_arriving(self, arrival: u32, spec: JoinQuerySpec, cfg: AlgoConfig) -> Self {
        self.query_instance(QueryInstance {
            spec,
            cfg,
            lifecycle: Lifecycle::arriving(arrival),
        })
    }

    /// Add a fully-specified [`QueryInstance`] (arrival and departure).
    pub fn query_instance(mut self, qi: QueryInstance) -> Self {
        self.queries.push(qi);
        self
    }

    /// Attach an [`Observer`] from the start.
    pub fn observer(mut self, obs: Box<dyn Observer + Send>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Whether [`Session::admit_graph`] shares structurally identical
    /// skeleton sub-joins across resident graph queries (default `true`).
    /// Disabling gives every graph private operators — the baseline the
    /// sharing regression tests compare against.
    pub fn subjoin_sharing(mut self, share: bool) -> Self {
        self.share_subjoins = share;
        self
    }

    /// Whether the session harvests retired queries' learned state into
    /// the [`LearnedCache`] and seeds later same-shape admissions from it
    /// (default `true`). Disabling makes every admission cold — the
    /// baseline the warm-vs-cold experiments compare against.
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Allow building a session with no initial queries: the
    /// network boots and idles until the first [`Session::admit`]. This is
    /// how `aspen-serve` opens a session — a standing network awaiting
    /// admissions over the wire. Incompatible with [`bare_wire`]
    /// (which needs its one fixed query).
    ///
    /// [`bare_wire`]: SessionBuilder::bare_wire
    pub fn allow_empty(mut self) -> Self {
        self.allow_empty = true;
        self
    }

    /// Model the paper's original untagged frames: the query tag costs 0
    /// bytes instead of [`QUERY_TAG_BYTES`], the frame format the figures'
    /// traffic numbers are measured in. An untagged frame cannot say which
    /// query it belongs to, so such a session hosts exactly one cycle-0
    /// query for its whole life (no [`Session::admit`]/[`Session::retire`])
    /// and delivers it independently (no [`Sharing::SharedTree`]).
    pub fn bare_wire(mut self) -> Self {
        self.bare = true;
        self
    }

    /// Construct the engine (substrate built offline, as in Table 3) and
    /// return the ready-to-step [`Session`].
    ///
    /// # Panics
    /// If no query was added, or `bare_wire` constraints are violated.
    pub fn build(self) -> Session {
        if self.bare {
            assert!(
                self.queries.len() == 1 && self.queries[0].lifecycle == Lifecycle::STATIC,
                "bare_wire sessions host exactly one static cycle-0 query"
            );
            assert!(
                self.sharing == Sharing::Independent,
                "bare_wire sessions deliver their one query independently; \
                 untagged frames cannot be aggregated"
            );
        }
        assert!(
            !self.queries.is_empty() || self.allow_empty,
            "a session needs at least one initial query (add one with \
             .query(), or opt into an empty session with .allow_empty())"
        );
        let sub = MultiTreeSubstrate::build(
            &self.topo,
            self.num_trees,
            default_indexed_attrs(),
            &self.data,
        );
        let (sharing, bare) = (self.sharing, self.bare);
        let tag_bytes = if bare { 0 } else { QUERY_TAG_BYTES };
        let mut session = Session {
            dead: all_alive(self.topo.len()),
            init_metrics: Metrics::new(self.topo.len()),
            topo: Arc::new(self.topo.clone()),
            engine: Engine::new(self.topo, self.sim, move |id| {
                MultiNode::new(id, sharing, tag_bytes)
            }),
            sub: Arc::new(sub),
            data: Arc::new(self.data),
            bare,
            plan: self.plan,
            queries: Vec::new(),
            live: Vec::new(),
            pending_steps: Vec::new(),
            next_cycle: 0,
            trace: Trace::default(),
            observers: self.observers,
            init_cycles: 0,
            initiated: false,
            graphs: Vec::new(),
            sub_registry: BTreeMap::new(),
            share_subjoins: self.share_subjoins,
            cache: LearnedCache::new(),
            warm_start: self.warm_start,
        };
        // Builder queries are never *seeded* (they exist before anything
        // could be harvested), but retiring one live still contributes its
        // learned state.
        for qi in self.queries {
            let key = session.cache_key(&qi.spec);
            session.issue(qi.spec, qi.cfg, qi.lifecycle, key);
        }
        session
    }
}

// aspen-serve keeps whole sessions behind per-shard mutexes and applies
// commands on whichever connection thread holds the lock: the engine,
// plans and observers must all stay `Send`. Compile-time check so a non-Send
// closure snuck into e.g. DynamicsPlan fails here, with a readable error,
// rather than deep inside the serve crate.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
};
