//! The simulation engine: per-node protocol instances, link-layer queues,
//! loss, retransmission and deterministic scheduling.
//!
//! # Data-oriented core
//!
//! Protocol messages live in an arena-backed `MsgPool` (`pool.rs`);
//! everything the hot loop touches — queue entries, event records — is a
//! small `Copy` struct carrying a message *handle*, the message's flow
//! (computed once at enqueue) and its wire size. The transmit phase
//! never dereferences a handle: it moves 16-byte records between
//! structure-of-arrays state (`queues`, `alive`, per-node metrics) and
//! only the event drain materializes messages (the last consumer
//! of a handle moves the message out; earlier consumers clone; snoop
//! events borrow the pooled message with zero clones).
//!
//! # Active sets
//!
//! Per-node work happens only at nodes that can act. Two node bitsets
//! stand in for sweeps over every node:
//!
//! - `busy` holds at least every alive node with a non-empty outbox. A
//!   callback that leaves its node's queue non-empty adds the node, the
//!   end of a transmit step drops the nodes it emptied, and
//!   [`Engine::kill`] drops its victim. The transmit phase walks only
//!   `busy`.
//! - `ticking` holds at least every alive node whose
//!   [`Protocol::wants_tick`] holds. It is refreshed after every callback,
//!   set by [`Engine::node_mut`] (which may change anything) and cleared
//!   by `kill`. [`Engine::sampling_cycle`] ticks only its members; debug
//!   builds check that no skipped node wants a tick.
//!
//! Both are walked in ascending node order, the order of the sweeps they
//! replace, and a node outside them would have drawn nothing, sent
//! nothing and changed nothing: an empty queue transmits nothing, and an
//! unwanted tick does nothing by contract. So MAC order, the position of
//! every loss draw in the RNG stream and every output byte are those of
//! an engine that visits every node.
//! [`Engine::node_visits`] counts the visits that remain.

use crate::config::{SimConfig, HEADER_BYTES, MAX_RETRIES};
use crate::metrics::Metrics;
use crate::pool::{MsgHandle, MsgPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensor_net::{NodeId, Topology};
use std::collections::VecDeque;

/// A node-local protocol. One instance per node; the engine dispatches
/// link-layer events in deterministic (node-id, FIFO) order.
pub trait Protocol {
    type Msg: Clone;

    /// Whether this protocol consumes [`Protocol::on_snoop`] events.
    /// Protocols overriding `on_snoop` must set this to `true`; the engine
    /// skips snoop-event generation (and the per-snooper message clones)
    /// entirely when it is `false`, even with [`SimConfig::snooping`] on.
    const WANTS_SNOOP: bool = false;

    /// A message addressed to this node arrived (link layer already charged
    /// TX/RX for the hop).
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// A neighbor transmitted a unicast message this node could overhear.
    /// Only fired when [`SimConfig::snooping`] is on. No traffic charge.
    fn on_snoop(
        &mut self,
        _ctx: &mut Ctx<'_, Self::Msg>,
        _sender: NodeId,
        _next_hop: NodeId,
        _msg: &Self::Msg,
    ) {
    }

    /// A unicast send was abandoned after exhausting retransmissions
    /// (receiver dead or persistent loss).
    fn on_send_failed(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _to: NodeId, _msg: Self::Msg) {}

    /// Start of a sampling cycle (the engine's client decides the cadence).
    fn on_sampling_cycle(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _cycle: u32) {}

    /// Whether [`Protocol::on_sampling_cycle`] could do anything at this
    /// node now. While it is `false` the engine skips the tick, so a
    /// protocol returning `false` promises that its tick would send
    /// nothing and change nothing. The engine re-reads it after every
    /// callback it runs at the node and assumes `true` after
    /// [`Engine::node_mut`], so the answer may change only there.
    fn wants_tick(&self) -> bool {
        true
    }

    /// Traffic class of a message. Flow 0 is the default; multi-query
    /// protocols tag each message with its query's flow so (a) the engine
    /// can account per-flow traffic ([`crate::metrics::FlowMetrics`]) and
    /// (b) [`SimConfig::fair_mac`] can arbitrate a node's MAC budget
    /// fairly across concurrent flows.
    fn flow_of(_msg: &Self::Msg) -> usize {
        0
    }
}

/// Where an outgoing message is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Unicast(NodeId),
    /// Radio broadcast to all neighbors: one transmission charge, delivery
    /// to every alive neighbor with independent loss draws, no retries.
    Broadcast,
}

/// A link-layer queue entry: everything the transmit phase needs, with
/// the message itself left behind in the pool. 16 bytes, `Copy`.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    handle: MsgHandle,
    target: Target,
    wire_bytes: u32,
    /// Flow tag, computed once at enqueue so the fair-MAC scan and the
    /// per-flow metrics never call back into the protocol.
    flow: u32,
    attempts: u8,
}

/// Where a [`Ctx`]'s sends land.
enum Sink<'a, M> {
    /// The real engine path: messages go to the arena pool, handles to
    /// the node's queue. `flow_of` is the protocol's flow classifier as
    /// a plain fn pointer (it is an associated fn, so this devirtualizes
    /// back to a direct call at the single construction site).
    Pooled {
        pool: &'a mut MsgPool<M>,
        queue: &'a mut VecDeque<QueueEntry>,
        flow_of: fn(&M) -> usize,
    },
    /// Nested path ([`Ctx::nested`]): every send goes straight to the
    /// wrapper protocol's framing closure as `(to, payload, msg)`, `to`
    /// being `None` for a broadcast. `sent` counts the callback's
    /// emissions: one callback hands over at most a queue's worth.
    Framed {
        frame: &'a mut dyn FnMut(Option<NodeId>, u32, M) -> bool,
        sent: usize,
    },
}

/// Node-side API handed to protocol callbacks.
pub struct Ctx<'a, M> {
    /// This node's id.
    pub id: NodeId,
    /// Current transmission cycle.
    pub now: u64,
    topo: &'a Topology,
    sink: Sink<'a, M>,
    queue_capacity: usize,
    queue_drops: &'a mut u64,
    self_send_drops: &'a mut u64,
}

impl<M> Ctx<'_, M> {
    /// Enqueue a unicast message to a (normally neighboring) node.
    /// `payload_bytes` excludes the link header, which the engine adds.
    /// Returns `false` if the message was rejected: queue full (counted in
    /// `queue_drops`) or self-addressed (counted in `self_send_drops` — a
    /// radio cannot unicast to itself, in any build profile).
    pub fn send(&mut self, to: NodeId, payload_bytes: u32, msg: M) -> bool {
        if to == self.id {
            *self.self_send_drops += 1;
            return false;
        }
        self.enqueue(Target::Unicast(to), payload_bytes, msg)
    }

    /// Enqueue a radio broadcast to all neighbors.
    pub fn broadcast(&mut self, payload_bytes: u32, msg: M) -> bool {
        self.enqueue(Target::Broadcast, payload_bytes, msg)
    }

    fn enqueue(&mut self, target: Target, payload_bytes: u32, msg: M) -> bool {
        match &mut self.sink {
            Sink::Pooled {
                pool,
                queue,
                flow_of,
            } => {
                if queue.len() >= self.queue_capacity {
                    *self.queue_drops += 1;
                    return false;
                }
                let flow = flow_of(&msg) as u32;
                let handle = pool.alloc_shared(msg, 1);
                queue.push_back(QueueEntry {
                    handle,
                    target,
                    wire_bytes: payload_bytes + HEADER_BYTES,
                    flow,
                    attempts: 0,
                });
                true
            }
            Sink::Framed { frame, sent } => {
                if *sent >= self.queue_capacity {
                    *self.queue_drops += 1;
                    return false;
                }
                *sent += 1;
                let to = match target {
                    Target::Unicast(n) => Some(n),
                    Target::Broadcast => None,
                };
                frame(to, payload_bytes, msg)
            }
        }
    }

    pub fn neighbors(&self) -> &[NodeId] {
        self.topo.neighbors(self.id)
    }

    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Run a callback of a *nested* protocol (message type `N`) at this
    /// node. This is how wrapper protocols (one instance hosting several
    /// inner protocol instances, e.g. the multi-query layer) reuse inner
    /// `Protocol` implementations unchanged: each message the callback
    /// sends is handed at once to `frame`, with this outer context, to be
    /// re-framed and enqueued through [`Ctx::emit`] (or staged, to
    /// aggregate several inner messages into one outer frame). Nothing is
    /// buffered here.
    ///
    /// A self-addressed inner unicast never reaches `frame`; it and the
    /// emissions of one callback beyond `queue_capacity` are charged to
    /// this node. The real queue-capacity check is the wrapper's `emit`.
    pub fn nested<N, R>(
        &mut self,
        mut frame: impl FnMut(&mut Self, Option<NodeId>, u32, N) -> bool,
        f: impl FnOnce(&mut Ctx<'_, N>) -> R,
    ) -> R {
        let (mut drops, mut self_sends) = (0, 0);
        let r = f(&mut Ctx {
            id: self.id,
            now: self.now,
            topo: self.topo,
            queue_capacity: self.queue_capacity,
            queue_drops: &mut drops,
            self_send_drops: &mut self_sends,
            sink: Sink::Framed {
                frame: &mut |to, payload_bytes, msg| frame(self, to, payload_bytes, msg),
                sent: 0,
            },
        });
        *self.queue_drops += drops;
        *self.self_send_drops += self_sends;
        r
    }

    /// Enqueue a re-framed emission: unicast when `to` is `Some`, radio
    /// broadcast otherwise (the [`Ctx::nested`] convention).
    pub fn emit(&mut self, to: Option<NodeId>, payload_bytes: u32, msg: M) -> bool {
        match to {
            Some(n) => self.send(n, payload_bytes, msg),
            None => self.broadcast(payload_bytes, msg),
        }
    }
}

impl<M: Clone> Ctx<'_, M> {
    /// Enqueue one message to several unicast targets while pooling its
    /// payload **once**: the queue holds one shared handle per accepted
    /// target and the engine clones only at delivery (the last delivery
    /// moves the message out). Per-target rejection — self-addressed or
    /// queue-full — counts exactly as the equivalent sequence of
    /// [`Ctx::send`] calls would. Returns the number of targets accepted.
    ///
    /// Use this for fan-out sends of an identical message (e.g. flooding
    /// a query down a routing tree) where `Ctx::send` in a loop would
    /// clone the message per recipient.
    pub fn send_many(&mut self, targets: &[NodeId], payload_bytes: u32, msg: M) -> usize {
        let Sink::Pooled {
            pool,
            queue,
            flow_of,
        } = &mut self.sink
        else {
            // A framing wrapper takes one message per target anyway.
            return targets
                .iter()
                .filter(|&&to| self.send(to, payload_bytes, msg.clone()))
                .count();
        };
        // First pass: charge rejections and count acceptances so the slot
        // can be allocated with the exact owner count.
        let mut accepted = 0u32;
        let mut space = self.queue_capacity.saturating_sub(queue.len());
        for &to in targets {
            if to == self.id {
                *self.self_send_drops += 1;
            } else if space == 0 {
                *self.queue_drops += 1;
            } else {
                space -= 1;
                accepted += 1;
            }
        }
        if accepted == 0 {
            return 0;
        }
        let flow = flow_of(&msg) as u32;
        let handle = pool.alloc_shared(msg, accepted);
        for &to in targets {
            if to != self.id && queue.len() < self.queue_capacity {
                queue.push_back(QueueEntry {
                    handle,
                    target: Target::Unicast(to),
                    wire_bytes: payload_bytes + HEADER_BYTES,
                    flow,
                    attempts: 0,
                });
            }
        }
        accepted as usize
    }
}

/// A link-layer event produced by the transmit phase, dispatched in the
/// event drain. `Copy`: messages stay in the pool, referenced by handle.
///
/// Handle-lifetime contract: every transmission ends its queue entry as
/// exactly one of {deferred retry (handle stays queued), `Deliver` with
/// `release`, `SendFailed` (always releases), `Free`}. A `k`-delivery
/// broadcast emits `k-1` non-releasing `Deliver`s (cloned at dispatch)
/// and one releasing one; a zero-delivery broadcast emits `Free`. Snoop
/// events never own a reference — they borrow the message of the
/// releasing `Deliver` that follows them.
#[derive(Debug, Clone, Copy)]
enum EventRec {
    Deliver {
        dst: NodeId,
        from: NodeId,
        handle: MsgHandle,
        wire_bytes: u32,
        flow: u32,
        /// Whether this delivery consumes a pool reference (the last — or
        /// only — delivery of the transmission's message).
        release: bool,
    },
    Snoop {
        snooper: NodeId,
        sender: NodeId,
        next_hop: NodeId,
        handle: MsgHandle,
    },
    SendFailed {
        sender: NodeId,
        to: NodeId,
        handle: MsgHandle,
    },
    /// A transmission whose message reached nobody (zero-delivery
    /// broadcast): drop its pool reference in dispatch order.
    Free { handle: MsgHandle },
}

/// How many events ahead of its dispatch the drain prefetches a message.
const PREFETCH_AHEAD: usize = 4;

impl EventRec {
    /// The pooled message this event's dispatch reads, if it reads one.
    fn handle(&self) -> Option<MsgHandle> {
        match *self {
            EventRec::Deliver { handle, .. }
            | EventRec::Snoop { handle, .. }
            | EventRec::SendFailed { handle, .. } => Some(handle),
            EventRec::Free { .. } => None,
        }
    }
}

/// Reusable per-node fair-MAC scratch (see the schedule derivation in
/// [`fair_schedule`]) plus the deferred-retry staging buffer.
#[derive(Default)]
struct TxScratch {
    /// Per-flow ordinal counters, cleared via `touched` after each node.
    seen: Vec<u32>,
    /// Flows to clear in `seen`.
    touched: Vec<usize>,
    /// The cycle's service schedule: (within-flow ordinal, queue pos).
    sched: Vec<(u32, u32)>,
    /// (pos, rank) extraction order for the non-prefix schedule path.
    order: Vec<(u32, usize)>,
    /// Entries pulled out of the queue, indexed by schedule rank.
    picked: Vec<Option<QueueEntry>>,
    /// Lost unicasts awaiting retransmission next cycle.
    deferred: Vec<QueueEntry>,
}

/// A set of node indices, one bit each, walked in ascending order.
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    fn new(n: usize) -> Self {
        NodeSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    fn set(&mut self, i: usize, on: bool) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if on {
            self.words[w] |= bit;
        } else {
            self.words[w] &= !bit;
        }
    }

    /// The smallest member `>= from`. Walking with it tolerates changes to
    /// members below `from` between calls.
    fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }
}

/// Immutable per-cycle inputs of the transmit phase.
struct TxEnv<'a> {
    topo: &'a Topology,
    cfg: &'a SimConfig,
    alive: &'a [bool],
    snoop: bool,
}

/// The simulator: owns the topology, one protocol instance per node, and
/// all link-layer state, laid out structure-of-arrays (parallel `Vec`s
/// indexed by node) with messages in a shared arena pool.
pub struct Engine<P: Protocol> {
    topo: Topology,
    cfg: SimConfig,
    nodes: Vec<P>,
    outboxes: Vec<VecDeque<QueueEntry>>,
    /// Entries in all `outboxes` together, kept in step with every push,
    /// pop and discard so [`Engine::in_flight`] need not scan them.
    queued: usize,
    /// Bytes charged to `metrics` since the last reset, kept in step with
    /// every charge so [`Engine::total_tx_bytes`] need not scan them.
    tx_bytes: u64,
    /// Holds every alive node with a non-empty outbox (see "Active sets").
    busy: NodeSet,
    /// Holds every alive node whose protocol wants a tick.
    ticking: NodeSet,
    /// `transmit_node` calls plus tick dispatches since construction.
    visits: u64,
    pool: MsgPool<P::Msg>,
    alive: Vec<bool>,
    metrics: Metrics,
    rng: StdRng,
    now: u64,
    /// Event buffer reused across [`Engine::step`] calls so the hot path
    /// does not allocate a fresh `Vec` every transmission cycle.
    events: Vec<EventRec>,
    /// Transmit-phase scratch, reused across steps.
    tx_scratch: TxScratch,
    /// Nodes killed by energy-budget depletion, in death order.
    energy_depleted: Vec<NodeId>,
    /// Messages discarded from depleted nodes' queues.
    energy_msgs_dropped: u64,
}

impl<P: Protocol> Engine<P> {
    /// Build an engine; `make_node` constructs the protocol instance for
    /// each node id.
    pub fn new(topo: Topology, cfg: SimConfig, mut make_node: impl FnMut(NodeId) -> P) -> Self {
        let n = topo.len();
        let nodes: Vec<P> = (0..n).map(|i| make_node(NodeId(i as u16))).collect();
        let mut ticking = NodeSet::new(n);
        for (i, p) in nodes.iter().enumerate() {
            ticking.set(i, p.wants_tick());
        }
        Engine {
            nodes,
            outboxes: (0..n).map(|_| VecDeque::new()).collect(),
            queued: 0,
            tx_bytes: 0,
            busy: NodeSet::new(n),
            ticking,
            visits: 0,
            pool: MsgPool::new(),
            alive: vec![true; n],
            metrics: Metrics::new(n),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x51e6_0e0f_ca11),
            now: 0,
            events: Vec::new(),
            tx_scratch: TxScratch::default(),
            energy_depleted: Vec::new(),
            energy_msgs_dropped: 0,
            topo,
            cfg,
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    pub fn now(&self) -> u64 {
        self.now
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Zero all traffic counters (phase boundaries: initiation vs
    /// computation cost are reported separately in the paper).
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::new(self.topo.len());
        self.tx_bytes = 0;
    }

    /// Bytes transmitted since the last [`Engine::reset_metrics`]: the
    /// metrics' [`Metrics::total_tx_bytes`], kept as a running total.
    pub fn total_tx_bytes(&self) -> u64 {
        debug_assert_eq!(self.tx_bytes, self.metrics.total_tx_bytes());
        self.tx_bytes
    }

    /// Nodes the engine has visited since it was built: one per node
    /// transmit pass and one per sampling tick dispatched. A deterministic
    /// work counter.
    pub fn node_visits(&self) -> u64 {
        self.visits
    }

    /// Rewind the clock to zero at a phase boundary (all queues must be
    /// drained). Sampling-cycle `c` then starts at transmission cycle
    /// `c * tx_per_sampling_cycle`, which result-latency accounting
    /// relies on.
    pub fn reset_clock(&mut self) {
        assert!(!self.in_flight(), "cannot rewind the clock mid-flight");
        self.now = 0;
    }

    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.index()]
    }

    /// Mutable access from outside any callback. An alive node is ticked
    /// at the next sampling cycle whatever its [`Protocol::wants_tick`]
    /// then says; only a callback refreshes that.
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        let i = id.index();
        self.ticking.set(i, self.alive[i]);
        &mut self.nodes[i]
    }

    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive[id.index()]
    }

    /// Permanently fail a node (§7): its queue is discarded and it neither
    /// transmits nor receives from now on. Returns the number of queued
    /// messages discarded with it (traffic lost in transit to the failure).
    pub fn kill(&mut self, id: NodeId) -> usize {
        self.alive[id.index()] = false;
        self.busy.set(id.index(), false);
        self.ticking.set(id.index(), false);
        let q = &mut self.outboxes[id.index()];
        let dropped = q.len();
        for e in q.drain(..) {
            self.pool.release(e.handle);
        }
        self.queued -= dropped;
        dropped
    }

    /// Change the link-loss probability mid-run (environmental shifts and
    /// the dynamics plans' loss ramps).
    pub fn set_loss_prob(&mut self, p: f64) {
        assert!((0.0..1.0).contains(&p), "loss probability must be in [0,1)");
        self.cfg.loss_prob = p;
    }

    /// Turn neighbors' snooping on or off mid-run (a session turns it on
    /// when it admits a path-collapsing query).
    pub fn set_snooping(&mut self, on: bool) {
        self.cfg.snooping = on;
    }

    /// Any messages still queued anywhere?
    pub fn in_flight(&self) -> bool {
        self.queued_msgs() > 0
    }

    /// Total messages queued network-wide (conservation accounting).
    pub fn queued_msgs(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.outboxes.iter().map(VecDeque::len).sum::<usize>()
        );
        self.queued
    }

    /// Entries queued at node `id` (diagnostic).
    pub fn queue_len(&self, id: NodeId) -> usize {
        self.outboxes[id.index()].len()
    }

    /// Live messages in the arena pool (diagnostic; leak detection). At
    /// quiescence — queues empty, events drained — this is zero. It can
    /// be *less* than [`Engine::queued_msgs`] when fan-out entries from
    /// [`Ctx::send_many`] share one pooled message.
    pub fn pooled_msgs(&self) -> usize {
        self.pool.live()
    }

    /// Nodes that died of energy-budget depletion so far, in death order
    /// (empty unless [`SimConfig::energy_budget_bytes`] is set).
    pub fn energy_depleted(&self) -> &[NodeId] {
        &self.energy_depleted
    }

    /// Messages discarded from energy-depleted nodes' queues.
    pub fn energy_msgs_dropped(&self) -> u64 {
        self.energy_msgs_dropped
    }

    /// Run a protocol entry point at node `id` against its queue: the
    /// engine's own event dispatch, and "from outside" for harness-driven
    /// events such as posing a query at the base station.
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>) -> R,
    ) -> R {
        let i = id.index();
        let mut drops = 0u64;
        let mut self_sends = 0u64;
        let queue = &mut self.outboxes[i];
        let before = queue.len();
        let r = {
            let mut ctx = Ctx {
                id,
                now: self.now,
                topo: &self.topo,
                sink: Sink::Pooled {
                    pool: &mut self.pool,
                    queue,
                    flow_of: P::flow_of,
                },
                queue_capacity: self.cfg.queue_capacity,
                queue_drops: &mut drops,
                self_send_drops: &mut self_sends,
            };
            f(&mut self.nodes[i], &mut ctx)
        };
        // A callback only ever appends to its own node's queue, and
        // changes only its own node's wish for a tick.
        let added = self.outboxes[i].len() - before;
        self.queued += added;
        if added > 0 {
            self.busy.set(i, true);
        }
        self.ticking
            .set(i, self.alive[i] && self.nodes[i].wants_tick());
        let m = self.metrics.node_mut(id);
        m.queue_drops += drops;
        m.self_send_drops += self_sends;
        r
    }

    /// Advance one transmission cycle: every alive node with a queued
    /// message transmits up to its MAC budget, in node order, then
    /// deliveries/snoops/failures are dispatched in deterministic order.
    pub fn step(&mut self) {
        // The event buffer persists across steps (capacity reuse); it is
        // always drained before `step` returns, so it starts empty here.
        let mut events = std::mem::take(&mut self.events);
        debug_assert!(events.is_empty());
        // Split the borrow so neighbor slices, the RNG and the metrics
        // can be used together without per-broadcast Vec copies.
        let Engine {
            topo,
            cfg,
            outboxes,
            queued,
            tx_bytes,
            busy,
            visits,
            alive,
            metrics,
            rng,
            tx_scratch,
            ..
        } = self;
        let env = TxEnv {
            topo: &*topo,
            cfg: &*cfg,
            alive: &alive[..],
            snoop: cfg.snooping && P::WANTS_SNOOP,
        };
        // A pass changes only its own node's busy bit, which the walk has
        // passed.
        let mut from = 0;
        while let Some(i) = busy.next_from(from) {
            from = i + 1;
            let queue = &mut outboxes[i];
            if env.alive[i] {
                let sent = metrics.per_node()[i].tx_bytes;
                *queued -= transmit_node(&env, i, queue, metrics, rng, &mut events, tx_scratch);
                *visits += 1;
                *tx_bytes += metrics.per_node()[i].tx_bytes - sent;
            }
            if queue.is_empty() || !env.alive[i] {
                busy.set(i, false);
            }
        }
        self.drain_events(events);
    }

    /// Dispatch the cycle's events in deterministic order, materializing
    /// messages out of the pool: `release` deliveries move (last owner)
    /// or clone, snoops borrow the pooled message, and references owed by
    /// dead endpoints are still dropped.
    fn drain_events(&mut self, mut events: Vec<EventRec>) {
        self.now += 1;
        for k in 0..events.len() {
            // A busy network's pool outgrows the cache: start loading the
            // slot of a later event now, so it is warm when its turn comes.
            if let Some(h) = events.get(k + PREFETCH_AHEAD).and_then(EventRec::handle) {
                self.pool.prefetch(h);
            }
            match events[k] {
                EventRec::Deliver {
                    dst,
                    from,
                    handle,
                    wire_bytes,
                    flow,
                    release,
                } => {
                    if !self.alive[dst.index()] {
                        // The receiver died between transmit and dispatch;
                        // its pool reference is still owed.
                        if release {
                            self.pool.release(handle);
                        }
                        continue;
                    }
                    {
                        let m = self.metrics.node_mut(dst);
                        m.rx_bytes += wire_bytes as u64;
                        m.rx_msgs += 1;
                        let fm = self.metrics.flow_mut(flow as usize);
                        fm.rx_bytes += wire_bytes as u64;
                        fm.rx_msgs += 1;
                    }
                    let msg = if release {
                        self.pool.consume(handle)
                    } else {
                        self.pool.clone_at(handle)
                    };
                    self.with_node(dst, |p, ctx| p.on_message(ctx, from, msg));
                }
                EventRec::Snoop {
                    snooper,
                    sender,
                    next_hop,
                    handle,
                } => {
                    if !self.alive[snooper.index()] {
                        continue;
                    }
                    // Borrow-by-move: the slot sits empty during the
                    // callback (which may allocate into the pool), then
                    // the message comes back for the next snooper or the
                    // releasing delivery behind it.
                    let msg = self.pool.take(handle);
                    self.with_node(snooper, |p, ctx| p.on_snoop(ctx, sender, next_hop, &msg));
                    self.pool.put_back(handle, msg);
                }
                EventRec::SendFailed { sender, to, handle } => {
                    if !self.alive[sender.index()] {
                        self.pool.release(handle);
                        continue;
                    }
                    let msg = self.pool.consume(handle);
                    self.with_node(sender, |p, ctx| p.on_send_failed(ctx, to, msg));
                }
                EventRec::Free { handle } => self.pool.release(handle),
            }
        }
        events.clear();
        self.events = events;
    }

    /// Run transmission cycles until no message is queued anywhere, or the
    /// cycle budget is exhausted. Returns the number of cycles consumed.
    pub fn run_until_quiet(&mut self, max_cycles: u64) -> u64 {
        let start = self.now;
        while self.in_flight() && self.now - start < max_cycles {
            self.step();
        }
        self.now - start
    }

    /// Enforce the per-node energy budget: any alive non-base node whose
    /// cumulative radio load (TX + RX bytes since the last metrics reset)
    /// has reached [`SimConfig::energy_budget_bytes`] dies now. Fired at
    /// sampling-cycle boundaries.
    fn enforce_energy_budget(&mut self) {
        let budget = self.cfg.energy_budget_bytes;
        if budget == 0 {
            return;
        }
        let base = self.topo.base();
        for i in 0..self.topo.len() {
            let id = NodeId(i as u16);
            if id == base || !self.alive[i] {
                continue;
            }
            if self.metrics.node(id).load_bytes() >= budget {
                self.energy_msgs_dropped += self.kill(id) as u64;
                self.energy_depleted.push(id);
            }
        }
    }

    /// Run one *sampling* cycle: fire `on_sampling_cycle` at every alive
    /// node that wants a tick, in node order, then advance
    /// `tx_per_sampling_cycle` transmission cycles.
    pub fn sampling_cycle(&mut self, cycle: u32) {
        // Anchor the period at the clock's value on entry: the fast-forward
        // below must land on `start + tx_per_sampling_cycle` even when the
        // clock was not reset on a phase boundary (a `now % period`
        // computation would misalign for non-zero starting clocks).
        let start = self.now;
        self.enforce_energy_budget();
        if cfg!(debug_assertions) {
            for (i, p) in self.nodes.iter().enumerate() {
                assert!(
                    self.ticking.contains(i) || !self.alive[i] || !p.wants_tick(),
                    "node {i} wants a tick but is not in the ticking set"
                );
            }
        }
        // A tick changes only its own node's bit, which the walk has passed.
        let mut from = 0;
        while let Some(i) = self.ticking.next_from(from) {
            from = i + 1;
            self.visits += 1;
            self.with_node(NodeId(i as u16), |p, ctx| p.on_sampling_cycle(ctx, cycle));
        }
        for _ in 0..self.cfg.tx_per_sampling_cycle {
            self.step();
            if !self.in_flight() {
                // Fast-forward idle remainder of the sampling period; no
                // protocol acts between transmissions, so skipping idle
                // cycles only adjusts the clock.
                self.now = start + self.cfg.tx_per_sampling_cycle as u64;
                break;
            }
        }
    }
}

/// Compute a node's fair-MAC service schedule for this cycle into
/// `tx.sched`: the first `cap` queue entries ordered by (within-flow
/// ordinal, queue position). Serving the earliest message of the
/// least-served flow each slot is equivalent to that sort, because after
/// `k` rounds every flow's next candidate is its `k`-th queued message.
/// One capped scan per cycle replaces the per-slot O(queue) scan +
/// O(queue) `VecDeque::remove(idx)` of the old picker.
fn fair_schedule(queue: &VecDeque<QueueEntry>, cap: usize, tx: &mut TxScratch) {
    tx.sched.clear();
    for (pos, e) in queue.iter().enumerate() {
        let f = e.flow as usize;
        if f >= tx.seen.len() {
            tx.seen.resize(f + 1, 0);
        }
        let k = tx.seen[f];
        if k as usize >= cap {
            // This flow already holds every slot it could win; read-only
            // skip keeps the long-tail scan store-free.
            continue;
        }
        tx.seen[f] = k + 1;
        if k == 0 {
            tx.touched.push(f);
        }
        let key = (k, pos as u32);
        if tx.sched.len() == cap {
            let &worst = tx.sched.last().expect("cap > 0");
            if key >= worst {
                continue;
            }
            tx.sched.pop();
            let at = tx.sched.partition_point(|&s| s < key);
            tx.sched.insert(at, key);
        } else if tx.sched.last().is_none_or(|&s| s <= key) {
            // Keys arrive position-ascending, so the fill phase is almost
            // always a plain append.
            tx.sched.push(key);
        } else {
            let at = tx.sched.partition_point(|&s| s < key);
            tx.sched.insert(at, key);
        }
        // Every slot is claimed by a never-served flow: no later entry
        // can displace one (same ordinal, higher position), so stop
        // scanning.
        if tx.sched.len() == cap && tx.sched[cap - 1].0 == 0 {
            break;
        }
    }
    for f in tx.touched.drain(..) {
        tx.seen[f] = 0;
    }
}

/// Transmit one node's MAC budget for this cycle. Protocol-independent
/// (flow tags and wire sizes ride in the queue entries; messages stay
/// pooled), so it monomorphizes once for the whole workspace. Returns how
/// many entries left the queue for good (served and not deferred).
fn transmit_node(
    env: &TxEnv<'_>,
    i: usize,
    queue: &mut VecDeque<QueueEntry>,
    metrics: &mut Metrics,
    rng: &mut StdRng,
    events: &mut Vec<EventRec>,
    tx: &mut TxScratch,
) -> usize {
    let before = queue.len();
    let cfg = env.cfg;
    let sender = NodeId(i as u16);
    let mut budget = cfg.tx_per_cycle;
    // Fair MAC: each slot goes to the queued message of the least-served
    // flow this cycle (FIFO within a flow, and plain FIFO when every
    // message is the same flow).
    let use_fair = cfg.fair_mac && queue.len() > 1 && budget > 0;
    if use_fair {
        fair_schedule(queue, budget, tx);
        if tx.sched.iter().enumerate().all(|(r, s)| s.1 as usize == r) {
            // Common case: the schedule serves the queue head `k` times
            // (distinct flows up front, or one flow throughout) — serve
            // lazily via pop_front.
            tx.picked.clear();
        } else {
            // Pull scheduled entries out highest-position-first so earlier
            // indices stay valid, then serve them in schedule order.
            tx.order.clear();
            tx.order
                .extend(tx.sched.iter().enumerate().map(|(rank, &(_, p))| (p, rank)));
            tx.order
                .sort_unstable_by_key(|&(pos, _)| std::cmp::Reverse(pos));
            tx.picked.clear();
            tx.picked.resize(tx.sched.len(), None);
            for &(pos, rank) in &tx.order {
                let e = queue.remove(pos as usize).expect("scheduled entry");
                tx.picked[rank] = Some(e);
            }
        }
    }
    // Lost unicasts awaiting retransmission rejoin the queue head only
    // after the node's loop, so a lossy link consumes exactly one attempt
    // per message per cycle (the link-ACK model: the retry happens in a
    // *later* cycle) and the remaining budget serves the messages behind.
    let mut rank = 0usize;
    while budget > 0 {
        let mut e = if use_fair {
            if rank == tx.sched.len() {
                break;
            }
            rank += 1;
            if tx.picked.is_empty() {
                queue.pop_front().expect("scheduled entry")
            } else {
                tx.picked[rank - 1].take().expect("unserved schedule slot")
            }
        } else {
            match queue.pop_front() {
                Some(e) => e,
                None => break,
            }
        };
        budget -= 1;
        // Charge the attempt.
        let m = metrics.node_mut(sender);
        m.tx_bytes += e.wire_bytes as u64;
        m.tx_msgs += 1;
        let fm = metrics.flow_mut(e.flow as usize);
        fm.tx_bytes += e.wire_bytes as u64;
        fm.tx_msgs += 1;
        match e.target {
            Target::Unicast(to) => {
                let receiver_ok = env.alive[to.index()];
                let lost = cfg.loss_prob > 0.0 && rng.random::<f64>() < cfg.loss_prob;
                if receiver_ok && !lost {
                    if env.snoop {
                        for &nb in env.topo.neighbors(sender) {
                            if nb != to && env.alive[nb.index()] {
                                events.push(EventRec::Snoop {
                                    snooper: nb,
                                    sender,
                                    next_hop: to,
                                    handle: e.handle,
                                });
                            }
                        }
                    }
                    events.push(EventRec::Deliver {
                        dst: to,
                        from: sender,
                        handle: e.handle,
                        wire_bytes: e.wire_bytes,
                        flow: e.flow,
                        release: true,
                    });
                } else if e.attempts < MAX_RETRIES {
                    e.attempts += 1;
                    tx.deferred.push(e);
                } else {
                    metrics.node_mut(sender).send_failures += 1;
                    events.push(EventRec::SendFailed {
                        sender,
                        to,
                        handle: e.handle,
                    });
                }
            }
            Target::Broadcast => {
                let mark = events.len();
                for &nb in env.topo.neighbors(sender) {
                    if !env.alive[nb.index()] {
                        continue;
                    }
                    let lost = cfg.loss_prob > 0.0 && rng.random::<f64>() < cfg.loss_prob;
                    if !lost {
                        events.push(EventRec::Deliver {
                            dst: nb,
                            from: sender,
                            handle: e.handle,
                            wire_bytes: e.wire_bytes,
                            flow: e.flow,
                            release: false,
                        });
                    }
                }
                if events.len() > mark {
                    // The last delivery consumes the broadcast's pool
                    // reference.
                    if let Some(EventRec::Deliver { release, .. }) = events.last_mut() {
                        *release = true;
                    }
                } else {
                    // Zero deliveries: the reference is still owed.
                    events.push(EventRec::Free { handle: e.handle });
                }
            }
        }
    }
    // Retries go back to the queue *head* in their original order,
    // keeping link-layer FIFO semantics for next cycle.
    for e in tx.deferred.drain(..).rev() {
        queue.push_front(e);
    }
    before - queue.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensor_net::Point;

    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        Topology::from_positions(pts, 1.1, NodeId(0))
    }

    /// Toy protocol: forwards a counter message rightward along a line,
    /// recording arrival time.
    struct Relay {
        arrived_at: Option<u64>,
    }

    impl Protocol for Relay {
        type Msg = u32;
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
            let next = NodeId(ctx.id.0 + 1);
            if (next.index()) < ctx.topology().len() {
                ctx.send(next, 4, msg);
            } else {
                self.arrived_at = Some(ctx.now);
            }
        }
    }

    #[test]
    fn one_hop_per_cycle_latency() {
        let mut eng = Engine::new(line(5), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, 7);
        });
        let cycles = eng.run_until_quiet(100);
        // 4 hops: 0->1->2->3->4.
        assert_eq!(cycles, 4);
        assert_eq!(eng.node(NodeId(4)).arrived_at, Some(4));
    }

    #[test]
    fn tx_bytes_charged_per_hop() {
        let mut eng = Engine::new(line(4), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, 1);
        });
        eng.run_until_quiet(100);
        let per_hop = (4 + HEADER_BYTES) as u64;
        assert_eq!(eng.metrics().total_tx_bytes(), 3 * per_hop);
        assert_eq!(eng.metrics().node(NodeId(1)).rx_bytes, per_hop);
        assert_eq!(eng.metrics().node(NodeId(3)).tx_bytes, 0);
    }

    #[test]
    fn loss_causes_retransmission_and_extra_bytes() {
        let cfg = SimConfig::default().with_loss(0.5).with_seed(3);
        let mut eng = Engine::new(line(2), cfg, |_| Relay { arrived_at: None });
        for _ in 0..50 {
            eng.with_node(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1), 4, 1);
            });
        }
        eng.run_until_quiet(10_000);
        let m = eng.metrics();
        // With 50% loss the sender must transmit strictly more attempts
        // than messages received.
        assert!(m.node(NodeId(0)).tx_msgs > m.node(NodeId(1)).rx_msgs);
    }

    #[test]
    fn dead_receiver_triggers_send_failed() {
        struct F {
            failed: bool,
        }
        impl Protocol for F {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_send_failed(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {
                self.failed = true;
            }
        }
        let mut eng = Engine::new(line(2), SimConfig::lossless(), |_| F { failed: false });
        eng.kill(NodeId(1));
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 0, ());
        });
        eng.run_until_quiet(100);
        assert!(eng.node(NodeId(0)).failed);
        assert_eq!(eng.metrics().total_send_failures(), 1);
        // All retry attempts were still charged.
        assert_eq!(
            eng.metrics().node(NodeId(0)).tx_msgs,
            1 + MAX_RETRIES as u64
        );
    }

    #[test]
    fn queue_overflow_drops() {
        struct Q;
        impl Protocol for Q {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        }
        let cfg = SimConfig::lossless().with_queue_capacity(2);
        let mut eng = Engine::new(line(2), cfg, |_| Q);
        let oks: Vec<bool> = (0..4)
            .map(|_| eng.with_node(NodeId(0), |_, ctx| ctx.send(NodeId(1), 0, ())))
            .collect();
        assert_eq!(oks, vec![true, true, false, false]);
        assert_eq!(eng.metrics().node(NodeId(0)).queue_drops, 2);
    }

    #[test]
    fn broadcast_reaches_all_neighbors_with_one_charge() {
        struct B {
            got: u32,
        }
        impl Protocol for B {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {
                self.got += 1;
            }
        }
        // Star: center node 0 with 3 leaves.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(-1.0, 0.0),
        ];
        let topo = Topology::from_positions(pts, 1.1, NodeId(0));
        let mut eng = Engine::new(topo, SimConfig::lossless(), |_| B { got: 0 });
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.broadcast(4, ());
        });
        eng.run_until_quiet(10);
        assert_eq!(eng.metrics().node(NodeId(0)).tx_msgs, 1);
        for i in 1..4 {
            assert_eq!(eng.node(NodeId(i)).got, 1);
        }
    }

    #[test]
    fn snooping_fires_for_bystanders_only_when_enabled() {
        struct S {
            snooped: u32,
        }
        impl Protocol for S {
            type Msg = ();
            const WANTS_SNOOP: bool = true;
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_snoop(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: NodeId, _: &()) {
                self.snooped += 1;
            }
        }
        let run = |snoop: bool| {
            let mut eng = Engine::new(line(3), SimConfig::lossless().with_snooping(snoop), |_| S {
                snooped: 0,
            });
            // 1 -> 2; node 0 is a bystander neighbor of 1.
            eng.with_node(NodeId(1), |_, ctx| {
                ctx.send(NodeId(2), 0, ());
            });
            eng.run_until_quiet(10);
            eng.node(NodeId(0)).snooped
        };
        assert_eq!(run(true), 1);
        assert_eq!(run(false), 0);
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let run = |seed| {
            let cfg = SimConfig::default().with_loss(0.3).with_seed(seed);
            let mut eng = Engine::new(line(6), cfg, |_| Relay { arrived_at: None });
            for _ in 0..10 {
                eng.with_node(NodeId(0), |_, ctx| {
                    ctx.send(NodeId(1), 4, 1);
                });
            }
            eng.run_until_quiet(10_000);
            eng.metrics().total_tx_bytes()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6)); // overwhelmingly likely under 30% loss
    }

    #[test]
    fn sampling_cycle_advances_clock_in_full_periods() {
        let mut eng = Engine::new(line(3), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        eng.sampling_cycle(0);
        assert_eq!(eng.now() % 100, 0);
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, 1);
        });
        eng.sampling_cycle(1);
        assert_eq!(eng.now() % 100, 0);
        assert!(!eng.in_flight());
    }

    /// Regression (ISSUE 2 headline): a lost unicast must consume exactly
    /// one transmission attempt per cycle. Before the fix, the retried
    /// message was `push_front`ed and re-popped by the same budget loop, so
    /// one lossy link burned all `MAX_RETRIES` attempts plus the node's
    /// whole `tx_per_cycle` budget within a single cycle.
    #[test]
    fn lost_unicast_consumes_one_attempt_per_cycle() {
        struct F;
        impl Protocol for F {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        }
        // A dead receiver forces every attempt to fail deterministically.
        let cfg = SimConfig::lossless(); // tx_per_cycle = 4; MAX_RETRIES = 3
        let mut eng = Engine::new(line(3), cfg, |_| F);
        eng.kill(NodeId(1));
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 0, ());
        });
        // One attempt per cycle: 1 + MAX_RETRIES cycles until abandonment.
        for cycle in 1..=4u64 {
            assert!(
                eng.in_flight(),
                "message still pending before cycle {cycle}"
            );
            eng.step();
            assert_eq!(
                eng.metrics().node(NodeId(0)).tx_msgs,
                cycle,
                "exactly one attempt per cycle"
            );
        }
        assert!(!eng.in_flight());
        assert_eq!(eng.metrics().total_send_failures(), 1);
    }

    /// The deferred retry must not block the rest of the cycle's budget:
    /// other queued messages still transmit in the same cycle.
    #[test]
    fn deferred_retry_leaves_budget_for_other_messages() {
        struct F;
        impl Protocol for F {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        }
        // Star: node 0 neighbors 1 (dead) and 2 (alive).
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(-1.0, 0.0),
        ];
        let topo = Topology::from_positions(pts, 1.1, NodeId(0));
        let mut eng = Engine::new(topo, SimConfig::lossless(), |_| F);
        eng.kill(NodeId(1));
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 0, ()); // head of queue, will be deferred
            ctx.send(NodeId(2), 0, ()); // must still go out this cycle
        });
        eng.step();
        // Two attempts this cycle: the failed one to 1 and the delivery to 2.
        assert_eq!(eng.metrics().node(NodeId(0)).tx_msgs, 2);
        assert_eq!(eng.metrics().node(NodeId(2)).rx_msgs, 1);
        // The retry is still queued for the next cycle.
        assert!(eng.in_flight());
    }

    /// Self-addressed unicasts are rejected in every build profile: charged
    /// nothing, delivered nowhere, counted in `self_send_drops`.
    #[test]
    fn self_send_rejected_and_counted() {
        struct F {
            got: u32,
        }
        impl Protocol for F {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {
                self.got += 1;
            }
        }
        let mut eng = Engine::new(line(2), SimConfig::lossless(), |_| F { got: 0 });
        let ok = eng.with_node(NodeId(0), |_, ctx| ctx.send(NodeId(0), 4, ()));
        assert!(!ok);
        assert!(!eng.in_flight());
        eng.run_until_quiet(10);
        assert_eq!(eng.node(NodeId(0)).got, 0);
        let m = eng.metrics().node(NodeId(0));
        assert_eq!(m.tx_msgs, 0);
        assert_eq!(m.self_send_drops, 1);
        assert_eq!(eng.metrics().total_self_send_drops(), 1);
    }

    /// The idle fast-forward must anchor to the sampling cycle's *starting*
    /// clock, not to `now % period` (which misaligns when the clock was not
    /// reset on a phase boundary).
    #[test]
    fn sampling_cycle_fast_forward_anchored_to_start() {
        let mut eng = Engine::new(line(3), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        // Advance the raw clock off the period grid (no reset afterwards).
        for _ in 0..3 {
            eng.step();
        }
        assert_eq!(eng.now(), 3);
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, 1);
        });
        eng.sampling_cycle(0);
        // One full period from the non-zero start: 3 + 100, not 100.
        assert_eq!(
            eng.now(),
            3 + SimConfig::default().tx_per_sampling_cycle as u64
        );
    }

    /// Two-flow protocol for the fair-MAC and flow-metrics tests: message
    /// payload `(flow, n)`, counted at the receiver per flow.
    struct TwoFlow {
        got: [u32; 2],
    }
    impl Protocol for TwoFlow {
        type Msg = (usize, u32);
        fn on_message(&mut self, _: &mut Ctx<'_, (usize, u32)>, _: NodeId, msg: (usize, u32)) {
            self.got[msg.0] += 1;
        }
        fn flow_of(msg: &(usize, u32)) -> usize {
            msg.0
        }
    }

    #[test]
    fn per_flow_metrics_split_traffic() {
        let mut eng = Engine::new(line(2), SimConfig::lossless(), |_| TwoFlow { got: [0; 2] });
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, (0, 1));
            ctx.send(NodeId(1), 9, (1, 1));
            ctx.send(NodeId(1), 9, (1, 2));
        });
        eng.run_until_quiet(10);
        let m = eng.metrics();
        let hdr = HEADER_BYTES as u64;
        assert_eq!(m.flow(0).tx_msgs, 1);
        assert_eq!(m.flow(1).tx_msgs, 2);
        assert_eq!(m.flow(0).tx_bytes, 4 + hdr);
        assert_eq!(m.flow(1).rx_bytes, 2 * (9 + hdr));
        // Flow totals add up to the node totals.
        assert_eq!(m.flow(0).tx_bytes + m.flow(1).tx_bytes, m.total_tx_bytes());
    }

    /// With strict FIFO a burst of flow-0 messages monopolizes the MAC
    /// budget; fair arbitration alternates flows within each cycle.
    #[test]
    fn fair_mac_interleaves_flows() {
        let run = |fair: bool| {
            let cfg = SimConfig::lossless().with_fair_mac(fair); // tx_per_cycle = 4
            let mut eng = Engine::new(line(2), cfg, |_| TwoFlow { got: [0; 2] });
            eng.with_node(NodeId(0), |_, ctx| {
                for n in 0..6 {
                    ctx.send(NodeId(1), 4, (0, n)); // hot flow floods first
                }
                ctx.send(NodeId(1), 4, (1, 0)); // the other query's message
            });
            eng.step();
            eng.node(NodeId(1)).got
        };
        // FIFO: the first cycle's 4 slots are all flow 0.
        assert_eq!(run(false), [4, 0]);
        // Fair: flow 1's lone message gets a slot in the first cycle.
        assert_eq!(run(true), [3, 1]);
    }

    #[test]
    fn fair_mac_single_flow_is_fifo() {
        let run = |fair: bool| {
            let cfg = SimConfig::lossless().with_fair_mac(fair);
            let mut eng = Engine::new(line(2), cfg, |_| TwoFlow { got: [0; 2] });
            for n in 0..10 {
                eng.with_node(NodeId(0), |_, ctx| {
                    ctx.send(NodeId(1), 4, (0, n));
                });
            }
            eng.run_until_quiet(100);
            (eng.metrics().clone(), eng.node(NodeId(1)).got)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn nested_sends_reach_the_frame_and_emit_reframes() {
        // Outer protocol wraps an inner `u32` protocol's emissions into
        // tagged `(usize, u32)` messages.
        let mut eng = Engine::new(line(3), SimConfig::lossless(), |_| TwoFlow { got: [0; 2] });
        let mut seen = Vec::new();
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.nested(
                |outer, to, payload_bytes, msg: u32| {
                    seen.push((to, payload_bytes));
                    outer.emit(to, payload_bytes + 1, (1, msg))
                },
                |inner| {
                    assert_eq!(inner.id, NodeId(0));
                    assert!(inner.send(NodeId(1), 6, 42u32));
                    assert!(!inner.send(NodeId(0), 6, 7u32)); // self-send: rejected inside
                    assert!(inner.broadcast(2, 9u32));
                },
            );
        });
        assert_eq!(seen, vec![(Some(NodeId(1)), 6), (None, 2)]);
        assert_eq!(eng.metrics().node(NodeId(0)).self_send_drops, 1);
        eng.run_until_quiet(10);
        // Unicast + broadcast both re-framed and delivered as flow 1.
        assert_eq!(eng.node(NodeId(1)).got, [0, 2]);
        assert_eq!(eng.metrics().flow(1).tx_msgs, 2);
    }

    /// What `Ctx::sandbox` + `emit` charged, the direct path charges: a
    /// re-framed emission into a full outer queue is one `queue_drops` at
    /// the outer node, a wrapped self-send one `self_send_drops`, and a
    /// callback hands over at most a queue's worth of messages.
    #[test]
    fn nested_rejections_are_charged_once_to_the_outer_node() {
        let cfg = SimConfig::lossless().with_queue_capacity(2);
        let mut eng = Engine::new(line(3), cfg, |_| TwoFlow { got: [0; 2] });
        let oks = eng.with_node(NodeId(1), |_, ctx| {
            assert!(ctx.send(NodeId(2), 4, (0, 0)));
            ctx.nested(
                |outer, to, bytes, msg: u32| outer.emit(to, bytes, (1, msg)),
                |inner| {
                    [
                        inner.send(NodeId(0), 4, 1), // fills the outer queue
                        inner.send(NodeId(0), 4, 2), // outer queue full
                        inner.send(NodeId(1), 4, 3), // self-send
                        inner.broadcast(4, 4),       // third emission of a 2-entry queue
                    ]
                },
            )
        });
        assert_eq!(oks, [true, false, false, false]);
        let m = *eng.metrics().node(NodeId(1));
        assert_eq!((m.queue_drops, m.self_send_drops), (2, 1));
        assert_eq!(eng.queued_msgs(), 2);
        assert_eq!(eng.pooled_msgs(), 2);
        // Nothing was charged anywhere else.
        assert_eq!(eng.metrics().total_queue_drops(), 2);
        assert_eq!(eng.metrics().total_self_send_drops(), 1);
    }

    #[test]
    fn energy_budget_kills_depleted_nodes_but_not_base() {
        let cfg = SimConfig::lossless().with_energy_budget(40);
        let mut eng = Engine::new(line(3), cfg, |_| Relay { arrived_at: None });
        // Traffic 0 -> 1 -> 2 charges node 1 with TX + RX every round.
        for _ in 0..3 {
            eng.with_node(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1), 4, 1);
            });
            eng.run_until_quiet(10);
        }
        assert!(eng.metrics().node(NodeId(1)).load_bytes() >= 40);
        eng.sampling_cycle(0);
        assert!(!eng.is_alive(NodeId(1)), "relay ran out of energy");
        // Node 0 transmitted just as much but is the base: exempt.
        assert!(eng.is_alive(NodeId(0)));
        // The sink also depleted (3 x 15 received bytes >= 40).
        assert_eq!(eng.energy_depleted(), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn queued_msgs_counts_network_wide() {
        let mut eng = Engine::new(line(3), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        assert_eq!(eng.queued_msgs(), 0);
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, 1);
            ctx.send(NodeId(1), 4, 2);
        });
        assert_eq!(eng.queued_msgs(), 2);
        eng.run_until_quiet(100);
        assert_eq!(eng.queued_msgs(), 0);
    }

    #[test]
    fn killed_node_does_not_forward() {
        let mut eng = Engine::new(line(4), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        eng.kill(NodeId(2));
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, 1);
        });
        eng.run_until_quiet(100);
        assert_eq!(eng.node(NodeId(3)).arrived_at, None);
        // Node 1's forward to dead node 2 eventually fails.
        assert_eq!(eng.metrics().node(NodeId(1)).send_failures, 1);
    }

    /// Churny workload exercising every RNG-draw path at once: lossy
    /// unicasts (with retries and failures), broadcasts, snooping and
    /// two fair-MAC flows.
    struct Churn {
        delivered: u64,
        snooped: u64,
        failed: u64,
    }

    impl Protocol for Churn {
        type Msg = (u8, u32);
        const WANTS_SNOOP: bool = true;

        fn on_message(&mut self, ctx: &mut Ctx<'_, (u8, u32)>, from: NodeId, msg: (u8, u32)) {
            self.delivered += 1;
            let (flow, hop) = msg;
            if hop >= 12 {
                return;
            }
            if hop % 5 == 4 {
                ctx.broadcast(8, (flow, hop + 1));
            }
            let nbs = ctx.neighbors();
            let pos = nbs.iter().position(|&n| n == from).unwrap_or(0);
            ctx.send(nbs[(pos + 1) % nbs.len()], 8, (flow, hop + 1));
        }

        fn on_snoop(&mut self, _: &mut Ctx<'_, (u8, u32)>, _: NodeId, _: NodeId, msg: &(u8, u32)) {
            self.snooped += msg.1 as u64;
        }

        fn on_send_failed(&mut self, ctx: &mut Ctx<'_, (u8, u32)>, _: NodeId, msg: (u8, u32)) {
            self.failed += 1;
            // Reroute once through the other flow.
            if msg.0 < 2 {
                let nb = ctx.neighbors()[0];
                ctx.send(nb, 8, (msg.0 + 2, msg.1));
            }
        }

        fn flow_of(msg: &(u8, u32)) -> usize {
            (msg.0 % 2) as usize
        }
    }

    fn churn_run(steps: u64) -> (Metrics, u64, usize, Vec<(u64, u64, u64)>) {
        let pts = (0..25)
            .map(|i| Point::new((i % 5) as f64, (i / 5) as f64))
            .collect();
        let topo = Topology::from_positions(pts, 1.1, NodeId(0));
        let cfg = SimConfig::default()
            .with_loss(0.25)
            .with_seed(42)
            .with_snooping(true)
            .with_fair_mac(true);
        let mut eng = Engine::new(topo, cfg, |_| Churn {
            delivered: 0,
            snooped: 0,
            failed: 0,
        });
        for i in 0..5u16 {
            eng.with_node(NodeId(i * 5), |_, ctx| {
                let nbs: Vec<NodeId> = ctx.neighbors().to_vec();
                for (j, nb) in nbs.into_iter().enumerate() {
                    ctx.send(nb, 8, (j as u8, 0));
                }
            });
        }
        eng.kill(NodeId(12)); // dead node in the middle of the grid
        for _ in 0..steps {
            eng.step();
        }
        let states = eng
            .nodes()
            .iter()
            .map(|n| (n.delivered, n.snooped, n.failed))
            .collect();
        (eng.metrics().clone(), eng.now(), eng.queued_msgs(), states)
    }

    /// The churn workload's outcome, pinned: every loss draw, retry,
    /// snoop and fair-MAC pick lands where the engine with a chunk-parallel
    /// transmit phase put it (at every worker count it had).
    #[test]
    fn churn_run_matches_pinned_totals() {
        let (m, now, queued, states) = churn_run(40);
        assert!(
            states.iter().map(|s| s.0).sum::<u64>() > 100,
            "workload must actually deliver traffic"
        );
        let rx_msgs: u64 = m.per_node().iter().map(|n| n.rx_msgs).sum();
        let totals = (
            m.total_tx_msgs(),
            m.total_tx_bytes(),
            rx_msgs,
            m.total_send_failures(),
            m.total_queue_drops(),
            m.flow(0).tx_bytes,
            m.flow(1).tx_bytes,
        );
        assert_eq!(totals, PINNED_CHURN_TOTALS);
        assert_eq!((now, queued), (40, PINNED_CHURN_QUEUED));
        // FNV-1a over each node's (delivered, snooped, failed), in node order.
        let digest = states
            .iter()
            .flat_map(|&(d, s, f)| [d, s, f])
            .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ v).wrapping_mul(0x100_0000_01b3)
            });
        assert_eq!(digest, PINNED_CHURN_DIGEST);
    }

    /// (tx msgs, tx bytes, rx msgs, send failures, queue drops, flow 0 tx
    /// bytes, flow 1 tx bytes) of `churn_run(40)`.
    const PINNED_CHURN_TOTALS: (u64, u64, u64, u64, u64, u64, u64) =
        (873, 16587, 589, 53, 0, 9652, 6935);
    const PINNED_CHURN_QUEUED: usize = 17;
    const PINNED_CHURN_DIGEST: u64 = 0x20e4_2f45_862c_fc38;

    /// Flow charges land in a flow table grown only to the highest flow
    /// charged: a message on flow 100,000 is counted there once per
    /// transmission.
    #[test]
    fn high_flow_id_is_charged_in_place() {
        struct Tagged;
        impl Protocol for Tagged {
            type Msg = usize;
            fn on_message(&mut self, _: &mut Ctx<'_, usize>, _: NodeId, _: usize) {}
            fn flow_of(msg: &usize) -> usize {
                *msg
            }
        }
        let mut eng = Engine::new(line(4), SimConfig::lossless(), |_| Tagged);
        eng.with_node(NodeId(0), |_, ctx| {
            for flow in [100_000, 5, 100_000] {
                ctx.send(NodeId(1), 4, flow);
            }
        });
        eng.with_node(NodeId(3), |_, ctx| {
            ctx.send(NodeId(2), 4, 9);
        });
        eng.run_until_quiet(10);
        let m = eng.metrics();
        assert_eq!(m.flow(100_000).tx_msgs, 2);
        assert_eq!(m.flow_count(), 100_001);
    }

    #[test]
    fn node_set_walks_members_across_word_boundaries() {
        let members = |s: &NodeSet| {
            std::iter::successors(s.next_from(0), |&i| s.next_from(i + 1)).collect::<Vec<_>>()
        };
        let mut s = NodeSet::new(200);
        for i in [0, 63, 64, 127, 128, 199] {
            s.set(i, true);
        }
        assert_eq!(members(&s), [0, 63, 64, 127, 128, 199]);
        assert_eq!(s.next_from(65), Some(127));
        assert_eq!(s.next_from(129), Some(199));
        assert_eq!(s.next_from(200), None);
        s.set(64, false);
        assert_eq!(members(&s), [0, 63, 127, 128, 199]);
        assert!(s.contains(127) && !s.contains(64));
    }

    #[test]
    fn pool_drains_to_zero_at_quiescence() {
        let pts = (0..9)
            .map(|i| Point::new((i % 3) as f64, (i / 3) as f64))
            .collect();
        let topo = Topology::from_positions(pts, 1.1, NodeId(0));
        let cfg = SimConfig::default()
            .with_loss(0.2)
            .with_seed(5)
            .with_snooping(true);
        let mut eng = Engine::new(topo, cfg, |_| Churn {
            delivered: 0,
            snooped: 0,
            failed: 0,
        });
        eng.with_node(NodeId(4), |_, ctx| {
            ctx.broadcast(8, (0, 4));
        });
        assert_eq!(eng.pooled_msgs(), 1);
        eng.run_until_quiet(10_000);
        assert_eq!(eng.queued_msgs(), 0);
        assert_eq!(eng.pooled_msgs(), 0, "no leaked pool slots at quiescence");
    }

    #[test]
    fn kill_releases_queued_pool_slots() {
        let mut eng = Engine::new(line(3), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        eng.with_node(NodeId(1), |_, ctx| {
            ctx.send(NodeId(2), 4, 1);
            ctx.send(NodeId(2), 4, 2);
        });
        assert_eq!(eng.pooled_msgs(), 2);
        assert_eq!(eng.kill(NodeId(1)), 2);
        assert_eq!(eng.pooled_msgs(), 0);
    }

    #[test]
    fn send_many_pools_once_and_counts_rejections() {
        struct F {
            got: u64,
        }
        impl Protocol for F {
            type Msg = Vec<u8>;
            fn on_message(&mut self, _: &mut Ctx<'_, Vec<u8>>, _: NodeId, msg: Vec<u8>) {
                self.got += msg.len() as u64;
            }
        }
        let pts = (0..9)
            .map(|i| Point::new((i % 3) as f64, (i / 3) as f64))
            .collect();
        let topo = Topology::from_positions(pts, 1.1, NodeId(0));
        let cfg = SimConfig {
            queue_capacity: 3,
            ..SimConfig::lossless()
        };
        let mut eng = Engine::new(topo, cfg, |_| F { got: 0 });
        let accepted = eng.with_node(NodeId(4), |_, ctx| {
            let targets = [NodeId(1), NodeId(4), NodeId(3), NodeId(5), NodeId(7)];
            ctx.send_many(&targets, 10, vec![9; 10])
        });
        // NodeId(4) is self (rejected), capacity 3 admits 1/3/5, 7 drops.
        assert_eq!(accepted, 3);
        assert_eq!(eng.queued_msgs(), 3);
        assert_eq!(eng.pooled_msgs(), 1, "fan-out shares one pooled message");
        let m4 = *eng.metrics().node(NodeId(4));
        assert_eq!(m4.self_send_drops, 1);
        assert_eq!(m4.queue_drops, 1);
        eng.run_until_quiet(10);
        assert_eq!(eng.pooled_msgs(), 0);
        for id in [1u16, 3, 5] {
            assert_eq!(eng.node(NodeId(id)).got, 10);
        }
        assert_eq!(eng.node(NodeId(7)).got, 0);
    }

    #[test]
    fn send_many_inside_nested_frames_per_target() {
        struct F;
        impl Protocol for F {
            type Msg = u32;
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        }
        let mut eng = Engine::new(line(4), SimConfig::lossless(), |_| F);
        let mut framed = Vec::new();
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.nested(
                |_, to, _, msg: u32| {
                    framed.push((to, msg));
                    true
                },
                |inner| {
                    let n = inner.send_many(&[NodeId(1), NodeId(0), NodeId(2)], 4, 11);
                    assert_eq!(n, 2);
                },
            );
        });
        assert_eq!(framed, vec![(Some(NodeId(1)), 11), (Some(NodeId(2)), 11)]);
        assert_eq!(eng.metrics().node(NodeId(0)).self_send_drops, 1);
    }

    /// Sparse traffic on a lossy grid: at least nine outboxes in ten are
    /// empty at every step, so the transmit phase mostly skips. Skipped
    /// nodes make no loss draws, so the run yields the totals pinned here,
    /// which are those of the engine that visited every node.
    #[test]
    fn sparse_lossy_traffic_matches_pinned_totals() {
        let pts = (0..900)
            .map(|i| Point::new((i % 30) as f64, (i / 30) as f64))
            .collect();
        let topo = Topology::from_positions(pts, 1.1, NodeId(0));
        let cfg = SimConfig::default()
            .with_loss(0.3)
            .with_seed(7)
            .with_fair_mac(true);
        let mut eng = Engine::new(topo, cfg, |_| Churn {
            delivered: 0,
            snooped: 0,
            failed: 0,
        });
        let mut busiest = 0;
        for round in 0..6u16 {
            for at in [31 + round, 450 + 30 * round, 868 - round] {
                eng.with_node(NodeId(at), |_, ctx| {
                    let nb = ctx.neighbors()[0];
                    ctx.send(nb, 8, (round as u8, 0));
                });
            }
            for _ in 0..12 {
                busiest = busiest.max(eng.outboxes.iter().filter(|q| !q.is_empty()).count());
                eng.step();
            }
        }
        assert!(
            busiest > 0 && busiest * 10 <= 900,
            "busiest step: {busiest}"
        );
        let m = eng.metrics();
        let rx_msgs: u64 = m.per_node().iter().map(|n| n.rx_msgs).sum();
        assert_eq!(
            (
                m.total_tx_msgs(),
                m.total_tx_bytes(),
                rx_msgs,
                m.total_send_failures(),
                eng.queued_msgs()
            ),
            PINNED_SPARSE_TOTALS
        );
    }

    /// (tx msgs, tx bytes, rx msgs, send failures, queued at the end) of
    /// the run above, taken from the engine before it skipped empty queues.
    const PINNED_SPARSE_TOTALS: (u64, u64, u64, u64, usize) = (1114, 21166, 889, 10, 13);

    /// The queued-entry counter against a scan of the queues, and the busy
    /// set against the alive non-empty queues, after every kind of event
    /// that moves entries.
    #[test]
    fn queued_counter_matches_a_scan_of_the_queues() {
        fn check<P: Protocol>(eng: &Engine<P>, queued: usize) {
            assert_eq!(
                eng.outboxes.iter().map(VecDeque::len).sum::<usize>(),
                queued
            );
            assert_eq!(eng.queued, queued);
            for (i, q) in eng.outboxes.iter().enumerate() {
                assert!(q.is_empty() || !eng.alive[i] || eng.busy.contains(i));
            }
        }
        let cfg = SimConfig {
            queue_capacity: 4,
            ..SimConfig::lossless().with_energy_budget(60)
        };
        let mut eng = Engine::new(line(5), cfg, |_| Relay { arrived_at: None });
        // `with_node` sends, one of them rejected (self-addressed).
        eng.with_node(NodeId(1), |_, ctx| {
            ctx.send(NodeId(2), 4, 1);
            ctx.send(NodeId(1), 4, 2);
        });
        check(&eng, 1);
        // `send_many`: one shared slot, one entry per accepted target,
        // rejections (self, queue full) not counted.
        let accepted = eng.with_node(NodeId(1), |_, ctx| {
            ctx.send_many(
                &[NodeId(0), NodeId(1), NodeId(2), NodeId(0), NodeId(2)],
                4,
                3,
            )
        });
        assert_eq!(accepted, 3);
        check(&eng, 4);
        // Deferred retries: the unicasts to a dead neighbor stay queued
        // while those to the live one are delivered and relayed onward.
        eng.kill(NodeId(0));
        eng.step();
        assert_eq!(eng.outboxes[1].len(), 2, "two retries deferred");
        check(&eng, 2 + 2);
        // Killing a node discards its queue.
        assert_eq!(eng.kill(NodeId(1)), 2);
        check(&eng, 2);
        // Energy depletion discards a relay's queue at the cycle boundary:
        // node 3 holds what node 2 just forwarded plus one send of its own.
        eng.with_node(NodeId(2), |_, ctx| {
            ctx.send(NodeId(3), 40, 9);
        });
        eng.step();
        eng.with_node(NodeId(3), |_, ctx| {
            ctx.send(NodeId(4), 4, 10);
        });
        assert_eq!(eng.outboxes[3].len(), 4);
        check(&eng, 4);
        eng.sampling_cycle(0);
        assert_eq!(eng.energy_depleted(), &[NodeId(2), NodeId(3)]);
        check(&eng, 0);
        assert_eq!(eng.pooled_msgs(), 0);
    }
}
