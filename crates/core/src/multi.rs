//! Concurrent multi-query execution over one shared network.
//!
//! The paper evaluates one long-running join at a time; realistic
//! deployments run *populations* of them. This module instantiates N
//! concurrent join queries — each with its own spec, algorithm
//! configuration, pair state, operator placement and adaptation — over a
//! single topology, workload and routing substrate, contending for every
//! node's shared MAC budget (and, optionally, energy budget) in one
//! engine.
//!
//! Architecture: the engine stays single-protocol. [`MultiNode`] is a
//! wrapper protocol hosting one [`JoinNode`] instance per query at every
//! node; inner protocol callbacks run in a nested context
//! ([`sensor_sim::Ctx::nested`]) that hands each emission over to be
//! re-framed as a query-tagged [`MultiMsg`] frame. Each query is an
//! engine *flow* (query `q` → flow `q + 1`), so per-query radio costs are
//! accounted separately and [`sensor_sim::SimConfig::fair_mac`] can
//! arbitrate the MAC budget across queries.
//!
//! Two delivery disciplines ([`Sharing`]):
//!
//! - [`Sharing::Independent`] — each query behaves as if it were alone:
//!   every inner message travels in its own link frame (plus a 1-byte
//!   query tag). N queries pay N link headers even when their messages
//!   ride the same hop in the same cycle.
//! - [`Sharing::SharedTree`] — queries share the routing substrate's
//!   delivery paths *and* link frames: inner messages emitted by
//!   co-located query instances toward the same next hop in the same
//!   dispatch are aggregated into one [`MultiMsg::Batch`] frame (bounded
//!   by [`MAX_AGG_PAYLOAD`]), paying one link header and one MAC slot.
//!   Under contention this measurably beats independent delivery on base
//!   load and total traffic — the headline experiment of
//!   `experiments multiq`.
//!
//! Query lifecycle is part of the scenario: each [`QueryInstance`] has an
//! arrival cycle and an optional departure cycle. Queries arriving at
//! cycle 0 run the standard initiation phase to quiescence (contending
//! with each other); later arrivals initiate *live*, their
//! [`crate::scenario::InitStep`]s spread over sampling cycles while the
//! resident queries keep streaming. Lifecycle events fire at the same
//! sampling-cycle boundaries as [`DynamicsPlan`] events (departures, then
//! arrivals and due live-init steps, then plan kills/loss shifts) and are
//! reported alongside them in [`MultiOutcome`].

use crate::msg::Msg;
use crate::node::JoinNode;
use crate::scenario::{default_indexed_attrs, InitStep};
use crate::shared::{AlgoConfig, Shared};
use sensor_net::{NodeId, Topology};
use sensor_query::JoinQuerySpec;
use sensor_routing::substrate::MultiTreeSubstrate;
use sensor_sim::dynamics::DynamicsPlan;
use sensor_sim::{Ctx, Engine, FlowMetrics, Metrics, Protocol, SimConfig};
use sensor_workload::WorkloadData;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Wire bytes of the per-frame query tag (up to 256 concurrent queries).
pub const QUERY_TAG_BYTES: u32 = 1;

/// Aggregation cap: a batch frame's payload (count byte + tagged inner
/// payloads) never exceeds this, modeling the 802.15.4-class frame budget.
/// Inner messages larger than the cap travel solo.
pub const MAX_AGG_PAYLOAD: u32 = 96;

/// Sampling cycles between the live-initiation steps of a query arriving
/// mid-run (each spacing gives the step's control traffic two full
/// sampling periods to converge while data keeps flowing).
pub const LIVE_INIT_SPACING: u32 = 2;

/// How concurrent queries share the network's delivery capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Per-query frames: every inner message pays its own link header.
    Independent,
    /// Cross-query frame aggregation on the shared routing tree: same-hop
    /// messages from co-located query instances share one frame.
    SharedTree,
}

impl Sharing {
    pub fn name(self) -> &'static str {
        match self {
            Sharing::Independent => "independent",
            Sharing::SharedTree => "shared",
        }
    }

    pub fn parse(s: &str) -> Option<Sharing> {
        match s.to_ascii_lowercase().as_str() {
            "independent" | "indep" => Some(Sharing::Independent),
            "shared" | "shared-tree" => Some(Sharing::SharedTree),
            _ => None,
        }
    }
}

/// Arrival/departure schedule of one query (sampling cycles; departure is
/// exclusive — the query last samples at `departure - 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifecycle {
    pub arrival: u32,
    pub departure: Option<u32>,
}

impl Lifecycle {
    /// Present for the whole run.
    pub const STATIC: Lifecycle = Lifecycle {
        arrival: 0,
        departure: None,
    };

    pub fn arriving(arrival: u32) -> Lifecycle {
        Lifecycle {
            arrival,
            departure: None,
        }
    }
}

/// One member of a [`QuerySet`]: a compiled query, how to execute it, and
/// when it is present.
pub struct QueryInstance {
    pub spec: JoinQuerySpec,
    pub cfg: AlgoConfig,
    pub lifecycle: Lifecycle,
}

/// The multi-query scenario layer: N concurrent join queries over one
/// topology + workload + substrate. The single-query [`crate::Scenario`]
/// is the degenerate N = 1 case (kept separate so the paper's figures run
/// on the exact original harness).
pub struct QuerySet {
    pub topo: Topology,
    pub data: WorkloadData,
    pub queries: Vec<QueryInstance>,
    pub sim: SimConfig,
    pub num_trees: usize,
    pub sharing: Sharing,
}

/// The outer protocol message: inner protocol messages tagged with their
/// query, solo or aggregated. The tag is the query id at full width (ids
/// are never reused, so a long-lived session outgrows any narrower
/// field); the *modelled* tag on the wire stays [`QUERY_TAG_BYTES`].
#[derive(Debug, Clone)]
pub enum MultiMsg {
    /// One inner message of query `q`.
    One { q: usize, inner: Msg },
    /// Several same-next-hop inner messages sharing one link frame
    /// (SharedTree aggregation).
    Batch { frames: Vec<(usize, Msg)> },
}

/// Per-query protocol slot at one node. It exists from the query's
/// activation to its retirement, so a node's table holds live queries
/// only; the [`JoinNode`] is boxed so that inserting and removing moves
/// table entries, not protocol state.
struct Slot {
    q: usize,
    /// [`JoinNode::wants_tick`] as of the last time `node` was touched:
    /// the sampling tick skips the slot without reading `node` when unset.
    ticks: bool,
    node: Box<JoinNode>,
}

/// An inner emission awaiting aggregation: query, unicast target, payload
/// size its sender declared, message.
type Staged = (usize, NodeId, u32, Msg);

/// The wrapper protocol instance at one node: one [`JoinNode`] per live
/// query, plus the staging buffer the frame aggregator works from.
pub struct MultiNode {
    pub id: NodeId,
    /// Ascending by query id: walking the table is walking the live
    /// queries in id order, which fixes emission (and so MAC) order.
    slots: Vec<Slot>,
    sharing: Sharing,
    /// SharedTree: unicasts of the current dispatch, awaiting aggregation
    /// (emptied by every flush, its capacity kept).
    staged: Vec<Staged>,
    /// Frames that arrived for queries with no slot here (departed / not
    /// yet arrived) and were dropped.
    pub expired_frames: u64,
}

impl MultiNode {
    pub fn new(id: NodeId, sharing: Sharing) -> Self {
        MultiNode {
            id,
            slots: Vec::new(),
            sharing,
            staged: Vec::new(),
            expired_frames: 0,
        }
    }

    fn slot_index(&self, q: usize) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&q, |s| s.q)
    }

    /// Bring query `q` online at this node with fresh protocol state.
    pub fn activate(&mut self, q: usize, sh: &Arc<Shared>) {
        let node = Box::new(JoinNode::new(self.id, sh.clone()));
        let slot = Slot {
            q,
            ticks: node.wants_tick(),
            node,
        };
        match self.slot_index(q) {
            Ok(i) => self.slots[i] = slot,
            Err(i) => self.slots.insert(i, slot),
        }
    }

    /// Take query `q` offline, returning its final protocol state (the
    /// harness harvests counters and the base station's results from it);
    /// `None` when the query has no slot here.
    pub fn deactivate(&mut self, q: usize) -> Option<Box<JoinNode>> {
        let i = self.slot_index(q).ok()?;
        Some(self.slots.remove(i).node)
    }

    /// Read access to query `q`'s protocol instance, while it is live.
    pub fn query_node(&self, q: usize) -> Option<&JoinNode> {
        self.slot_index(q).ok().map(|i| &*self.slots[i].node)
    }

    /// Harness-driven entry point into query `q`'s instance (initiation
    /// steps). Emissions are framed exactly like message-handler output.
    pub fn drive<R>(
        &mut self,
        ctx: &mut Ctx<'_, MultiMsg>,
        q: usize,
        f: impl FnOnce(&mut JoinNode, &mut Ctx<'_, Msg>) -> R,
    ) -> Option<R> {
        let r = self.deliver(ctx, q, f);
        self.flush(ctx);
        r
    }

    /// Dispatch one inner event to query `q`, framing what it emits;
    /// `None` (without side effects) when the query has no slot here.
    fn deliver<R>(
        &mut self,
        ctx: &mut Ctx<'_, MultiMsg>,
        q: usize,
        f: impl FnOnce(&mut JoinNode, &mut Ctx<'_, Msg>) -> R,
    ) -> Option<R> {
        let i = self.slot_index(q).ok()?;
        Some(self.deliver_at(ctx, i, f))
    }

    /// Dispatch one inner event to the `i`th slot. Every emission is
    /// enqueued at once as a solo frame, except SharedTree unicasts, which
    /// wait in `staged` for the flush to aggregate them. This is the one
    /// place a slot's node is mutated, so it is where `ticks` is kept.
    fn deliver_at<R>(
        &mut self,
        ctx: &mut Ctx<'_, MultiMsg>,
        i: usize,
        f: impl FnOnce(&mut JoinNode, &mut Ctx<'_, Msg>) -> R,
    ) -> R {
        let slot = &mut self.slots[i];
        let (q, node) = (slot.q, &mut *slot.node);
        let (staged, shared) = (&mut self.staged, self.sharing == Sharing::SharedTree);
        let frame =
            |outer: &mut Ctx<'_, MultiMsg>, to: Option<NodeId>, payload_bytes, inner| match to {
                Some(to) if shared => {
                    staged.push((q, to, payload_bytes, inner));
                    true
                }
                _ => outer.emit(
                    to,
                    payload_bytes + QUERY_TAG_BYTES,
                    MultiMsg::One { q, inner },
                ),
            };
        let r = ctx.nested(frame, |inner| f(node, inner));
        slot.ticks = slot.node.wants_tick();
        r
    }

    /// [`MultiNode::deliver`] for a frame that arrived off the radio:
    /// a frame for a query with no slot here (departed / not yet arrived)
    /// is dropped and counted. Harness drives go through `deliver`
    /// directly and are *not* expired frames.
    fn deliver_frame<R>(
        &mut self,
        ctx: &mut Ctx<'_, MultiMsg>,
        q: usize,
        f: impl FnOnce(&mut JoinNode, &mut Ctx<'_, Msg>) -> R,
    ) -> Option<R> {
        let r = self.deliver(ctx, q, f);
        if r.is_none() {
            self.expired_frames += 1;
        }
        r
    }

    /// Frame and enqueue the unicasts the current dispatch staged
    /// (SharedTree only), aggregated per next hop.
    fn flush(&mut self, ctx: &mut Ctx<'_, MultiMsg>) {
        if self.staged.is_empty() {
            return;
        }
        // Group by destination, preserving first-seen order; greedily pack
        // each destination's frames under the cap.
        type Group = (NodeId, Vec<(usize, u32, Msg)>);
        let mut groups: Vec<Group> = Vec::new();
        for (q, to, payload_bytes, msg) in self.staged.drain(..) {
            match groups.iter_mut().find(|(dest, _)| *dest == to) {
                Some((_, v)) => v.push((q, payload_bytes, msg)),
                None => groups.push((to, vec![(q, payload_bytes, msg)])),
            }
        }
        for (to, frames) in groups {
            let mut batch: Vec<(usize, Msg)> = Vec::new();
            let mut batch_payload = 1u32; // frame-count byte
            let flush_batch = |batch: &mut Vec<(usize, Msg)>,
                               batch_payload: &mut u32,
                               ctx: &mut Ctx<'_, MultiMsg>| {
                match batch.len() {
                    0 => {}
                    1 => {
                        // A lone frame needs no batch envelope.
                        let (q, inner) = batch.pop().unwrap();
                        ctx.send(to, *batch_payload - 1, MultiMsg::One { q, inner });
                    }
                    _ => {
                        ctx.send(
                            to,
                            *batch_payload,
                            MultiMsg::Batch {
                                frames: std::mem::take(batch),
                            },
                        );
                    }
                }
                *batch_payload = 1;
            };
            for (q, payload_bytes, msg) in frames {
                let framed = payload_bytes + QUERY_TAG_BYTES;
                if batch_payload + framed > MAX_AGG_PAYLOAD && !batch.is_empty() {
                    flush_batch(&mut batch, &mut batch_payload, ctx);
                }
                batch.push((q, msg));
                batch_payload += framed;
            }
            flush_batch(&mut batch, &mut batch_payload, ctx);
        }
    }

    /// Join pairs currently placed at this node, across all live queries
    /// (failure-target picking).
    pub fn pair_count_total(&self) -> usize {
        self.query_nodes().map(|n| n.pair_count()).sum()
    }

    /// The protocol instances of the queries live at this node, in query
    /// id order.
    pub fn query_nodes(&self) -> impl Iterator<Item = &JoinNode> {
        self.slots.iter().map(|s| &*s.node)
    }
}

impl Protocol for MultiNode {
    type Msg = MultiMsg;

    // Inner path collapsing consumes snoop events (Appendix E).
    const WANTS_SNOOP: bool = true;

    fn on_message(&mut self, ctx: &mut Ctx<'_, MultiMsg>, from: NodeId, msg: MultiMsg) {
        match msg {
            MultiMsg::One { q, inner } => {
                self.deliver_frame(ctx, q, |n, c| n.on_message(c, from, inner));
            }
            MultiMsg::Batch { frames } => {
                for (q, inner) in frames {
                    self.deliver_frame(ctx, q, |n, c| n.on_message(c, from, inner));
                }
            }
        }
        self.flush(ctx);
    }

    fn on_snoop(
        &mut self,
        ctx: &mut Ctx<'_, MultiMsg>,
        sender: NodeId,
        next_hop: NodeId,
        msg: &MultiMsg,
    ) {
        match msg {
            MultiMsg::One { q, inner } => {
                self.deliver(ctx, *q, |n, c| n.on_snoop(c, sender, next_hop, inner));
            }
            MultiMsg::Batch { frames } => {
                for (q, inner) in frames {
                    self.deliver(ctx, *q, |n, c| n.on_snoop(c, sender, next_hop, inner));
                }
            }
        }
        self.flush(ctx);
    }

    fn on_send_failed(&mut self, ctx: &mut Ctx<'_, MultiMsg>, to: NodeId, msg: MultiMsg) {
        match msg {
            MultiMsg::One { q, inner } => {
                self.deliver_frame(ctx, q, |n, c| n.on_send_failed(c, to, inner));
            }
            MultiMsg::Batch { frames } => {
                // Every frame of an abandoned batch failed; each query runs
                // its own §7 recovery reaction.
                for (q, inner) in frames {
                    self.deliver_frame(ctx, q, |n, c| n.on_send_failed(c, to, inner));
                }
            }
        }
        self.flush(ctx);
    }

    fn on_sampling_cycle(&mut self, ctx: &mut Ctx<'_, MultiMsg>, cycle: u32) {
        for i in 0..self.slots.len() {
            if self.slots[i].ticks {
                self.deliver_at(ctx, i, |n, c| n.on_sampling_cycle(c, cycle));
            } else {
                debug_assert!(!self.slots[i].node.wants_tick(), "stale tick gate");
            }
        }
        self.flush(ctx);
    }

    /// Query `q` is flow `q + 1`; aggregated frames are the shared flow 0.
    fn flow_of(msg: &MultiMsg) -> usize {
        match msg {
            MultiMsg::One { q, .. } => *q + 1,
            MultiMsg::Batch { .. } => 0,
        }
    }
}

/// Final per-query observables of a multi-query run.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Algorithm label ("Innet-cmg", …).
    pub label: String,
    /// Query-spec name ("Query 1", …).
    pub name: String,
    pub arrival: u32,
    pub departure: Option<u32>,
    /// Join results delivered to the base station for this query.
    pub results: u64,
    /// Mean result delay in transmission cycles.
    pub avg_delay_tx: f64,
    /// Execution traffic of this query's own (un-aggregated) frames.
    pub flow: FlowMetrics,
}

/// Aggregate + per-query statistics of a [`QuerySet`] run.
#[derive(Debug, Clone)]
pub struct MultiRunStats {
    pub per_query: Vec<QueryStats>,
    /// Traffic during the cycle-0 initiation phase (all arriving queries
    /// contending).
    pub initiation: Metrics,
    /// Traffic during execution (including live initiations of late
    /// arrivals).
    pub execution: Metrics,
    /// Execution traffic of cross-query aggregate frames (flow 0; zero in
    /// independent mode).
    pub shared_flow: FlowMetrics,
    pub base: NodeId,
    /// Frames dropped at arrival because their query had departed.
    pub expired_frames: u64,
}

impl MultiRunStats {
    pub fn results_total(&self) -> u64 {
        self.per_query.iter().map(|q| q.results).sum()
    }

    pub fn total_traffic_bytes(&self) -> u64 {
        self.initiation.total_tx_bytes() + self.execution.total_tx_bytes()
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

    /// Result-weighted mean delay across queries.
    pub fn avg_delay_tx(&self) -> f64 {
        let total: u64 = self.results_total();
        if total == 0 {
            return 0.0;
        }
        self.per_query
            .iter()
            .map(|q| q.avg_delay_tx * q.results as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// What a dynamics-driven multi-query execution did.
#[derive(Debug, Clone, Default)]
pub struct MultiOutcome {
    /// `(cycle, node)` for every node that died mid-run: plan kills and
    /// energy-budget depletions alike (both are propagated to every
    /// query's liveness oracle).
    pub killed: Vec<(u32, NodeId)>,
    /// Messages discarded from dead nodes' queues (plan kills + energy
    /// depletions).
    pub queued_msgs_lost: u64,
    /// `(cycle, query)` lifecycle events that fired (arrivals and
    /// departures actually reached within the run).
    pub arrivals: Vec<(u32, usize)>,
    pub departures: Vec<(u32, usize)>,
    /// Queries whose live initiation did not finish before the run ended
    /// (arrival too close to the last cycle for the full
    /// [`LIVE_INIT_SPACING`]-spaced step schedule). Their near-zero
    /// results are a truncation artifact, not an algorithmic effect —
    /// size `cycles ≥ arrival + steps * LIVE_INIT_SPACING` to avoid it.
    pub unfinished_inits: Vec<usize>,
}

/// Snapshot of a query's base-station counters at departure (or run end).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BaseSnapshot {
    pub(crate) results: u64,
    pub(crate) delay_sum: u64,
}

impl BaseSnapshot {
    /// The counters of `node`'s base-station state (zero anywhere but at
    /// the base).
    pub(crate) fn of(node: &JoinNode) -> BaseSnapshot {
        node.base_state()
            .map(|b| BaseSnapshot {
                results: b.results,
                delay_sum: b.delay_sum,
            })
            .unwrap_or_default()
    }
}

/// What a run keeps of every query id it ever issued: the few fields a
/// report row, `cfg_of` and the lifecycle scans need (the query's flow id
/// is its id), plus the run context while the query is live.
struct QueryRecord {
    /// Query-spec name ("Query 1", …).
    name: String,
    cfg: AlgoConfig,
    lifecycle: Lifecycle,
    /// Held from admission to retirement.
    shared: Option<Arc<Shared>>,
}

/// A prepared multi-query run.
pub struct MultiRun {
    pub engine: Engine<MultiNode>,
    /// Indexed by query id; ids are never reused.
    queries: Vec<QueryRecord>,
    /// The network, the routing substrate and the workload, each shared by
    /// every query's [`Shared`] and held run-level so queries can be
    /// admitted into a run that currently hosts none (a freshly opened
    /// serve session).
    topo: Arc<Topology>,
    pub(crate) sub: Arc<MultiTreeSubstrate>,
    pub(crate) data: Arc<WorkloadData>,
    /// Master death ledger: every node that died so far, so queries
    /// admitted later inherit the deaths regardless of query population.
    dead: Mutex<HashSet<NodeId>>,
    init_metrics: Option<Metrics>,
    init_cycles: u64,
    /// Filled at departure; live queries are snapshotted by `stats`.
    snapshots: Vec<Option<BaseSnapshot>>,
    /// Live-initiation steps pending for late arrivals:
    /// `(fire_cycle, query, step, )`.
    pending_steps: Vec<(u32, usize, InitStep)>,
    /// §7 recovery counters carried by retired queries' protocol state
    /// (retirement frees each node's slot, so the counters are absorbed
    /// here to keep network totals monotone).
    retired_recovery: crate::node::RecoveryStats,
    /// Migration adoptions of retired queries (same monotonicity need —
    /// the session's observer diffing relies on it).
    pub(crate) retired_migrations: u64,
    /// `WindowXfer` bytes of retired queries (same monotonicity need).
    pub(crate) retired_xfer_bytes: u64,
}

impl QuerySet {
    /// Construct the engine: one shared substrate, one [`Shared`] context
    /// per query, one (empty) [`MultiNode`] per node.
    pub fn build(&self) -> MultiRun {
        let sub = Arc::new(MultiTreeSubstrate::build(
            &self.topo,
            self.num_trees,
            default_indexed_attrs(),
            &self.data,
        ));
        let sharing = self.sharing;
        let mut run = MultiRun {
            engine: Engine::new(self.topo.clone(), self.sim.clone(), move |id| {
                MultiNode::new(id, sharing)
            }),
            queries: Vec::new(),
            topo: Arc::new(self.topo.clone()),
            sub,
            data: Arc::new(self.data.clone()),
            dead: Mutex::new(HashSet::new()),
            init_metrics: None,
            init_cycles: 0,
            snapshots: Vec::new(),
            pending_steps: Vec::new(),
            retired_recovery: crate::node::RecoveryStats::default(),
            retired_migrations: 0,
            retired_xfer_bytes: 0,
        };
        for qi in &self.queries {
            run.add_query(qi.spec.clone(), qi.cfg, qi.lifecycle);
        }
        run
    }
}

impl MultiRun {
    pub(crate) fn n_queries(&self) -> usize {
        self.queries.len()
    }

    fn base(&self) -> NodeId {
        self.engine.topology().base()
    }

    /// The run contexts of the live (admitted, not yet retired) queries.
    pub fn live_shareds(&self) -> impl Iterator<Item = &Arc<Shared>> {
        self.queries.iter().filter_map(|r| r.shared.as_ref())
    }

    pub(crate) fn cfg_of(&self, q: usize) -> AlgoConfig {
        self.queries[q].cfg
    }

    pub(crate) fn name_of(&self, q: usize) -> &str {
        &self.queries[q].name
    }

    /// Activate query `q` at every node.
    ///
    /// # Panics
    /// If `q` was retired: its run context is gone.
    pub(crate) fn activate_everywhere(&mut self, q: usize) {
        let sh = self.queries[q]
            .shared
            .clone()
            .expect("a retired query is never activated");
        for id in self.topo.node_ids() {
            self.engine.node_mut(id).activate(q, &sh);
        }
    }

    /// Issue the next query id (online admission by the session layer).
    /// The new query shares the network, substrate and workload and
    /// inherits the already-known deaths; it has no per-node state until
    /// it is activated.
    pub(crate) fn add_query(
        &mut self,
        spec: JoinQuerySpec,
        cfg: AlgoConfig,
        lifecycle: Lifecycle,
    ) -> usize {
        let name = spec.name.clone();
        let sh = Arc::new(Shared::new(
            self.topo.clone(),
            self.sub.clone(),
            spec,
            self.data.clone(),
            cfg,
        ));
        // The admitted query's liveness oracle must know the nodes that
        // died before it arrived.
        for &v in self.dead.lock().expect("death ledger poisoned").iter() {
            sh.mark_dead(v);
        }
        self.queries.push(QueryRecord {
            name,
            cfg,
            lifecycle,
            shared: Some(sh),
        });
        self.snapshots.push(None);
        self.queries.len() - 1
    }

    /// Record a death in the run-level ledger and every resident query's
    /// liveness oracle (later admissions inherit it from the ledger).
    pub(crate) fn mark_dead(&self, v: NodeId) {
        self.dead.lock().expect("death ledger poisoned").insert(v);
        for sh in self.live_shareds() {
            sh.mark_dead(v);
        }
    }

    /// Fire one initiation step of query `q` across the network.
    pub(crate) fn apply_step(&mut self, q: usize, step: InitStep) {
        // Same fan-out table as the bare wire (`step_calls`), wrapped in
        // the per-query drive so emissions are framed and tagged. A drive
        // for a query with no slot is a side-effect-free no-op, so no
        // per-node activity guard is needed.
        let base = self.base();
        let n = self.engine.topology().len();
        for (id, call) in crate::session::step_calls(step, base, n) {
            match call {
                crate::session::StepCall::WithCtx(f) => {
                    self.engine.with_node(id, |mn, ctx| mn.drive(ctx, q, f));
                }
                crate::session::StepCall::Local(f) => {
                    self.engine
                        .with_node(id, |mn, ctx| mn.drive(ctx, q, |jn, _| f(jn)));
                }
            }
        }
    }

    /// Drive the initiation of every cycle-0 query to quiescence, the
    /// steps interleaved across queries so their control traffic contends
    /// (the shared [`crate::session`] initiation driver; the single-query
    /// [`crate::Run::initiate`] is its one-element case).
    pub fn initiate(&mut self) {
        let arrivals: Vec<usize> = (0..self.n_queries())
            .filter(|&q| self.queries[q].lifecycle.arrival == 0)
            .collect();
        let (metrics, cycles) = crate::session::drive_initiation(self, &arrivals);
        self.init_metrics = Some(metrics);
        self.init_cycles = cycles;
    }

    /// Take query `q` offline everywhere and free its per-node state and
    /// run context, returning its base counters (zero for a query that
    /// never came online). The retired instances' recovery/migration
    /// counters are absorbed into the run-level accumulators so
    /// network-wide totals never shrink on retirement.
    pub(crate) fn retire_query(&mut self, q: usize) -> BaseSnapshot {
        let base = self.base();
        let mut snap = BaseSnapshot::default();
        for id in self.topo.node_ids() {
            let Some(node) = self.engine.node_mut(id).deactivate(q) else {
                continue;
            };
            self.retired_recovery.absorb(&node.recovery);
            self.retired_migrations += node.migrations_adopted;
            self.retired_xfer_bytes += node.xfer_bytes;
            if id == base {
                snap = BaseSnapshot::of(&node);
            }
        }
        self.queries[q].shared = None;
        snap
    }

    /// Run `cycles` sampling cycles of execution with lifecycle events
    /// only.
    pub fn execute(&mut self, cycles: u32) -> MultiOutcome {
        self.execute_with_plan(cycles, &DynamicsPlan::none())
    }

    /// Run execution under a dynamics plan: scheduled kills / loss shifts
    /// fire at cycle boundaries alongside the query set's own lifecycle
    /// events (late arrivals initiate live; departures retire their
    /// state). Delegates to the unified [`crate::session`] cycle driver.
    pub fn execute_with_plan(&mut self, cycles: u32, plan: &DynamicsPlan) -> MultiOutcome {
        use crate::session::{drive_cycles, ExecState};
        let lifecycles = self.queries.iter().map(|r| r.lifecycle).collect();
        let snapshots = std::mem::take(&mut self.snapshots);
        let mut st = ExecState::new(self, lifecycles, snapshots);
        st.pending_steps = std::mem::take(&mut self.pending_steps);
        drive_cycles(self, &mut st, plan, cycles, &mut []);
        self.engine.run_until_quiet(5_000);
        // Live-init steps scheduled past the final cycle never fired;
        // surface the affected queries so truncated initiations are not
        // misread as algorithmic effects.
        let unfinished_inits = st.unfinished_inits();
        self.snapshots = st.snapshots;
        self.pending_steps = st.pending_steps;
        MultiOutcome {
            killed: st.killed,
            queued_msgs_lost: st.queued_msgs_lost,
            arrivals: st.arrivals,
            departures: st.departures,
            unfinished_inits,
        }
    }

    /// Network-wide sum of the §7 recovery counters across every query's
    /// protocol instances, including the counters departed queries
    /// carried (absorbed at retirement; see `MultiRun::retire_query`) —
    /// totals are monotone across the whole run.
    pub fn recovery_totals(&self) -> crate::node::RecoveryStats {
        let mut total = self.retired_recovery;
        for mn in self.engine.nodes() {
            for jn in mn.query_nodes() {
                total.absorb(&jn.recovery);
            }
        }
        total
    }

    /// Collect aggregate + per-query statistics.
    pub fn stats(&self) -> MultiRunStats {
        let base = self.base();
        let base_node = self.engine.node(base);
        let exec = self.engine.metrics();
        let per_query = (0..self.n_queries())
            .map(|q| {
                let snap = self.snapshots[q].unwrap_or_else(|| {
                    base_node
                        .query_node(q)
                        .map(BaseSnapshot::of)
                        .unwrap_or_default()
                });
                let avg_delay = if snap.results > 0 {
                    snap.delay_sum as f64 / snap.results as f64
                } else {
                    0.0
                };
                QueryStats {
                    label: self.queries[q].cfg.label(),
                    name: self.queries[q].name.clone(),
                    arrival: self.queries[q].lifecycle.arrival,
                    departure: self.queries[q].lifecycle.departure,
                    results: snap.results,
                    avg_delay_tx: avg_delay,
                    flow: exec.flow(q + 1),
                }
            })
            .collect();
        MultiRunStats {
            per_query,
            initiation: self
                .init_metrics
                .clone()
                .unwrap_or_else(|| Metrics::new(self.engine.topology().len())),
            execution: exec.clone(),
            shared_flow: exec.flow(0),
            base,
            expired_frames: self.engine.nodes().iter().map(|n| n.expired_frames).sum(),
        }
    }
}

/// The alive non-base node serving the most join pairs across all active
/// queries (multi-query failure-target selection).
pub(crate) fn busiest_multi_join_node(engine: &Engine<MultiNode>, base: NodeId) -> Option<NodeId> {
    (0..engine.topology().len() as u16)
        .map(NodeId)
        .filter(|&id| id != base && engine.is_alive(id))
        .max_by_key(|&id| engine.node(id).pair_count_total())
        .filter(|&id| engine.node(id).pair_count_total() > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::Algorithm;
    use sensor_workload::{Rates, Schedule};

    /// Every hop moves a `MultiMsg` by value: the full-width query tag
    /// must ride in what was padding beside the inner message (see
    /// `msg::tests::hot_message_stays_small`).
    #[test]
    fn tagged_message_stays_small() {
        assert_eq!(std::mem::size_of::<MultiMsg>(), 120);
    }

    /// Query ids are monotone and never reused, so a long-lived session
    /// passes 65,536 of them: the tag a frame carries must not wrap.
    #[test]
    fn query_tag_is_not_truncated() {
        const Q: usize = 70_000;
        let topo = sensor_net::grid(3, 3);
        let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 1);
        let sub = Arc::new(MultiTreeSubstrate::build(
            &topo,
            1,
            default_indexed_attrs(),
            &data,
        ));
        let sh = Arc::new(Shared::new(
            Arc::new(topo.clone()),
            sub,
            sensor_workload::query1(3),
            Arc::new(data),
            AlgoConfig::new(Algorithm::Base, crate::cost::Sigma::new(0.5, 0.5, 0.2)),
        ));
        let mut engine = Engine::new(topo, SimConfig::lossless(), |id| {
            MultiNode::new(id, Sharing::Independent)
        });
        let (at, from) = (NodeId(4), NodeId(1));
        engine.node_mut(at).activate(Q, &sh);
        let flood = |q| MultiMsg::One {
            q,
            inner: Msg::QueryFlood,
        };
        engine.with_node(at, |mn, ctx| mn.on_message(ctx, from, flood(Q)));
        let mn = engine.node(at);
        assert!(mn.query_node(Q).expect("slot 70,000").have_query);
        assert_eq!(mn.expired_frames, 0);
        // 70,000 − 65,536: the id a 16-bit tag would have carried.
        engine.with_node(at, |mn, ctx| mn.on_message(ctx, from, flood(Q - 65_536)));
        assert_eq!(engine.node(at).expired_frames, 1);
    }
}
