//! The wire protocol of concurrent join queries over one shared network.
//!
//! The paper evaluates one long-running join at a time; realistic
//! deployments run *populations* of them. A [`crate::Session`] hosts N
//! concurrent join queries — each with its own spec, algorithm
//! configuration, pair state, operator placement and adaptation — over a
//! single topology, workload and routing substrate, contending for every
//! node's shared MAC budget (and, optionally, energy budget) in one
//! engine. The paper's own runs are the N = 1 case. This module is what
//! travels between nodes and what sits at each of them.
//!
//! Architecture: the engine stays single-protocol. [`MultiNode`] is a
//! wrapper protocol hosting one [`JoinNode`] instance per query at every
//! node; inner protocol callbacks run in a nested context
//! ([`sensor_sim::Ctx::nested`]) that hands each emission over to be
//! re-framed as a [`MultiMsg`] frame carrying its query id. Each query is
//! an engine *flow* (query `q` → flow `q + 1`), so per-query radio costs
//! are accounted separately and [`sensor_sim::SimConfig::fair_mac`] can
//! arbitrate the MAC budget across queries.
//!
//! The modelled tag costs [`QUERY_TAG_BYTES`] per frame. A
//! [`crate::SessionBuilder::bare_wire`] session models the paper's
//! untagged frames instead: a tag of 0 bytes, which is only unambiguous
//! while the network carries exactly one query, so such a session hosts
//! one static query for its whole life.
//!
//! Two delivery disciplines ([`Sharing`]):
//!
//! - [`Sharing::Independent`] — each query behaves as if it were alone:
//!   every inner message travels in its own link frame (plus its query
//!   tag). N queries pay N link headers even when their messages ride the
//!   same hop in the same cycle.
//! - [`Sharing::SharedTree`] — queries share the routing substrate's
//!   delivery paths *and* link frames: inner messages emitted by
//!   co-located query instances toward the same next hop in the same
//!   dispatch are aggregated into one [`MultiMsg::Batch`] frame (bounded
//!   by [`MAX_AGG_PAYLOAD`]), paying one link header and one MAC slot.
//!   Under contention this measurably beats independent delivery on base
//!   load and total traffic — the headline experiment of
//!   `experiments multiq`.
//!
//! Each [`QueryInstance`] has an arrival cycle and an optional departure
//! cycle. Queries arriving at cycle 0 run the standard initiation phase
//! to quiescence (contending with each other); later arrivals initiate
//! *live*, their [`crate::scenario::InitStep`]s spread over sampling
//! cycles while the resident queries keep streaming. The
//! [`crate::session`] drivers fire lifecycle events at the same
//! sampling-cycle boundaries as [`sensor_sim::dynamics::DynamicsPlan`]
//! events (departures, then arrivals and due live-init steps, then plan
//! kills/loss shifts).

use crate::msg::Msg;
use crate::node::JoinNode;
use crate::shared::{AlgoConfig, Shared};
use sensor_net::NodeId;
use sensor_query::JoinQuerySpec;
use sensor_sim::{Ctx, FlowMetrics, Protocol};
use std::sync::Arc;

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

/// One query of a session's initial population: a compiled query, how to
/// execute it, and when it is present.
pub struct QueryInstance {
    pub spec: JoinQuerySpec,
    pub cfg: AlgoConfig,
    pub lifecycle: Lifecycle,
}

/// The outer protocol message: inner protocol messages tagged with their
/// query, solo or aggregated. The tag is the query id at full width (ids
/// are never reused, so a long-lived session outgrows any narrower
/// field); the *modelled* tag on the wire stays [`QUERY_TAG_BYTES`] (0 on
/// the untagged wire).
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
    /// Slots with `ticks` set, kept wherever `ticks` is written, so
    /// [`Protocol::wants_tick`] need not walk the table.
    ticking: usize,
    sharing: Sharing,
    /// Wire bytes of the query tag each frame carries ([`QUERY_TAG_BYTES`],
    /// or 0 on the untagged single-query wire).
    tag_bytes: u32,
    /// SharedTree: unicasts of the current dispatch, awaiting aggregation
    /// (emptied by every flush, its capacity kept).
    staged: Vec<Staged>,
    /// Frames that arrived for queries with no slot here (departed / not
    /// yet arrived) and were dropped.
    pub expired_frames: u64,
}

impl MultiNode {
    pub fn new(id: NodeId, sharing: Sharing, tag_bytes: u32) -> Self {
        MultiNode {
            id,
            slots: Vec::new(),
            ticking: 0,
            sharing,
            tag_bytes,
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
        self.ticking += usize::from(slot.ticks);
        match self.slot_index(q) {
            Ok(i) => {
                let old = std::mem::replace(&mut self.slots[i], slot);
                self.ticking -= usize::from(old.ticks);
            }
            Err(i) => self.slots.insert(i, slot),
        }
    }

    /// Take query `q` offline, returning its final protocol state (the
    /// harness harvests counters and the base station's results from it);
    /// `None` when the query has no slot here.
    pub fn deactivate(&mut self, q: usize) -> Option<Box<JoinNode>> {
        let i = self.slot_index(q).ok()?;
        let slot = self.slots.remove(i);
        self.ticking -= usize::from(slot.ticks);
        Some(slot.node)
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
        let tag_bytes = self.tag_bytes;
        let frame =
            |outer: &mut Ctx<'_, MultiMsg>, to: Option<NodeId>, payload_bytes, inner| match to {
                Some(to) if shared => {
                    staged.push((q, to, payload_bytes, inner));
                    true
                }
                _ => outer.emit(to, payload_bytes + tag_bytes, MultiMsg::One { q, inner }),
            };
        let r = ctx.nested(frame, |inner| f(node, inner));
        let ticks = slot.node.wants_tick();
        self.ticking = self.ticking + usize::from(ticks) - usize::from(slot.ticks);
        slot.ticks = ticks;
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
                let framed = payload_bytes + self.tag_bytes;
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
        debug_assert_eq!(
            self.ticking,
            self.slots.iter().filter(|s| s.ticks).count(),
            "stale ticking-slot count"
        );
        for i in 0..self.slots.len() {
            if self.slots[i].ticks {
                self.deliver_at(ctx, i, |n, c| n.on_sampling_cycle(c, cycle));
            } else {
                debug_assert!(!self.slots[i].node.wants_tick(), "stale tick gate");
            }
        }
        self.flush(ctx);
    }

    /// Some live query's slot wants its tick.
    fn wants_tick(&self) -> bool {
        self.ticking > 0
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::default_indexed_attrs;
    use crate::shared::Algorithm;
    use sensor_routing::substrate::MultiTreeSubstrate;
    use sensor_sim::{Engine, SimConfig};
    use sensor_workload::{Rates, Schedule, WorkloadData};

    /// Every hop moves a `MultiMsg` by value: the full-width query tag
    /// costs 8 bytes beside the 48-byte inner message, and the `Batch`
    /// variant hides in the inner message's spare discriminant values (see
    /// `msg::tests::hot_message_stays_small`).
    #[test]
    fn tagged_message_stays_small() {
        assert_eq!(std::mem::size_of::<MultiMsg>(), 56);
    }

    /// The engine's `MsgPool` keeps each in-flight frame as an
    /// `Option<MultiMsg>` plus a `u32` refcount. At 64 bytes a slot is one
    /// cache line's worth: a hop writes, prefetches and reads half the
    /// memory a 128-byte slot took.
    #[test]
    fn pool_slot_is_one_cache_line() {
        let slot = std::mem::size_of::<Option<MultiMsg>>() + std::mem::size_of::<u32>();
        assert!(slot <= 64, "pool slot is {slot} bytes");
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
            MultiNode::new(id, Sharing::Independent, QUERY_TAG_BYTES)
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
