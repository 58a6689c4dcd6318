//! Property-based invariants of the engine's link-layer accounting,
//! checked across randomized single- and multi-flow (multi-query) runs
//! with random topologies, loss rates, queue capacities, MAC budgets,
//! node kills and energy budgets.
//!
//! The load-bearing ledger — no message is ever created or destroyed
//! without being counted:
//!
//! - **Enqueue accounting**: every send attempt is either accepted into a
//!   queue or counted in `queue_drops` / `self_send_drops`.
//! - **Tuple conservation**: everything accepted is eventually delivered
//!   (`rx_msgs`), abandoned after retries (`send_failures`), discarded in
//!   a dead node's queue (kill / energy depletion), or still in flight.
//! - **Dispatch totality**: every delivery is either consumed or
//!   re-forwarded, never silently swallowed.
//! - **Monotonicity**: cumulative counters never decrease and stay
//!   consistent (`rx ≤ tx` network-wide, per-flow sums equal totals).
//!
//! The engine visits only nodes that can act. Its soundness property:
//! every alive node that wants a tick is ticked once per sampling cycle,
//! in node order; and no node with a queued message is passed over by a
//! transmit step.
//!
//! The message pool's safety net: at every step boundary each live
//! pool slot is owned by at least one queue entry, so the pool holds no
//! more messages than the queues do, and none once they are empty —
//! under loss, broadcasts, `send_many` fan-outs, snooping, kills and
//! energy depletion.
//!
//! Run with a pinned case count for CI: `PROPTEST_CASES=64 cargo test -q
//! -p sensor_sim --test invariants`.

use proptest::prelude::*;
use sensor_net::NodeId;
use sensor_sim::{Ctx, Engine, Metrics, Protocol, SimConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// Deterministic mixing for all protocol-level "random" choices (neighbor
/// selection, production gating) so runs replay bit-for-bit.
fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        .wrapping_add(c);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 32)
}

/// A routed test tuple: `flow` tags the owning "query", `hops_left` how
/// many more relays it takes before consumption.
#[derive(Clone)]
struct Parcel {
    flow: usize,
    hops_left: u8,
    salt: u64,
}

/// The randomized traffic generator: every sampling cycle each node may
/// produce one parcel per flow toward a pseudo-random neighbor; arriving
/// parcels are relayed `hops_left` more times, then consumed. All counts
/// the conservation ledger needs are tracked on the node.
struct Courier {
    id: NodeId,
    flows: usize,
    /// Produce roughly every `1/gate_den` (node, cycle, flow) triples.
    gate_den: u64,
    src_attempts: u64,
    fwd_attempts: u64,
    accepted: u64,
    consumed: u64,
}

impl Courier {
    fn relay(&mut self, ctx: &mut Ctx<'_, Parcel>, mut p: Parcel, src: bool) {
        let nbrs = ctx.neighbors();
        if nbrs.is_empty() {
            self.consumed += 1; // isolated node: nowhere to go
            return;
        }
        let h = mix(self.id.0 as u64, p.salt, p.hops_left as u64);
        // 1-in-16 attempts are self-addressed, exercising the
        // self-send-rejection path of the ledger.
        let to = if h.is_multiple_of(16) {
            self.id
        } else {
            nbrs[(h % nbrs.len() as u64) as usize]
        };
        p.salt = h;
        if src {
            self.src_attempts += 1;
        } else {
            self.fwd_attempts += 1;
        }
        if ctx.send(to, 4 + p.flow as u32, p) {
            self.accepted += 1;
        }
    }
}

impl Protocol for Courier {
    type Msg = Parcel;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Parcel>, _from: NodeId, mut msg: Parcel) {
        if msg.hops_left == 0 {
            self.consumed += 1;
            return;
        }
        msg.hops_left -= 1;
        self.relay(ctx, msg, false);
    }

    fn on_sampling_cycle(&mut self, ctx: &mut Ctx<'_, Parcel>, cycle: u32) {
        for flow in 0..self.flows {
            let h = mix(self.id.0 as u64 ^ 0xA5A5, cycle as u64, flow as u64);
            if h.is_multiple_of(self.gate_den) {
                let parcel = Parcel {
                    flow,
                    hops_left: (h >> 8) as u8 % 4,
                    salt: h,
                };
                self.relay(ctx, parcel, true);
            }
        }
    }

    fn flow_of(msg: &Parcel) -> usize {
        msg.flow
    }
}

struct Ledger {
    src_attempts: u64,
    fwd_attempts: u64,
    accepted: u64,
    consumed: u64,
    killed_drops: u64,
    engine: Engine<Courier>,
}

/// Run a randomized scenario and return the final ledger. The run is
/// intentionally *not* drained: in-flight messages at the end are part of
/// the conservation equation.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    nodes: u16,
    flows: usize,
    loss: f64,
    queue_cap: usize,
    cycles: u32,
    kills: usize,
    fair: bool,
    energy: u64,
    seed: u64,
) -> Ledger {
    let topo = sensor_net::random_with_degree(nodes as usize, 4.0, seed);
    let cfg = SimConfig {
        tx_per_sampling_cycle: 0,
        ..SimConfig::default()
            .with_loss(loss)
            .with_seed(seed)
            .with_queue_capacity(queue_cap)
            .with_fair_mac(fair)
            .with_energy_budget(energy)
    };
    let mut engine = Engine::new(topo, cfg, |id| Courier {
        id,
        flows,
        gate_den: 2,
        src_attempts: 0,
        fwd_attempts: 0,
        accepted: 0,
        consumed: 0,
    });
    let mut killed_drops = 0u64;
    for c in 0..cycles {
        // Random mid-run kills (never the base), spread over the first
        // cycles. The victim's queue is stuffed first so kill-time queue
        // discards are actually exercised (cycle boundaries otherwise
        // tend to find queues drained).
        if (c as usize) < kills {
            let victim = NodeId(1 + (mix(seed, c as u64, 77) % (nodes as u64 - 1)) as u16);
            if engine.is_alive(victim) && victim != engine.topology().base() {
                engine.with_node(victim, |n, ctx| {
                    for k in 0..3u64 {
                        let h = mix(seed ^ 0xD00D, c as u64, k);
                        let parcel = Parcel {
                            flow: (h % flows as u64) as usize,
                            hops_left: 1,
                            salt: h,
                        };
                        n.relay(ctx, parcel, true);
                    }
                });
                killed_drops += engine.kill(victim) as u64;
                assert_pool_covered(&engine);
            }
        }
        sampling_cycle_checked(&mut engine, c);
    }
    let nodes_iter = engine.nodes().iter();
    let (mut src, mut fwd, mut acc, mut cons) = (0, 0, 0, 0);
    for n in nodes_iter {
        src += n.src_attempts;
        fwd += n.fwd_attempts;
        acc += n.accepted;
        cons += n.consumed;
    }
    Ledger {
        src_attempts: src,
        fwd_attempts: fwd,
        accepted: acc,
        consumed: cons,
        killed_drops,
        engine,
    }
}

/// Transmission cycles per sampling cycle in the runs that step the
/// engine themselves: the engine's default.
const STEPS_PER_CYCLE: u32 = 100;

/// [`Engine::sampling_cycle`] for an engine built with
/// `tx_per_sampling_cycle: 0`: the ticks, then the steps taken here, one
/// at a time, checking the pool at every step boundary. The steps end
/// where the engine's own would, once nothing is in flight.
fn sampling_cycle_checked<P: Protocol>(engine: &mut Engine<P>, cycle: u32) {
    engine.sampling_cycle(cycle);
    assert_pool_covered(engine);
    for _ in 0..STEPS_PER_CYCLE {
        engine.step();
        assert_pool_covered(engine);
        if !engine.in_flight() {
            break;
        }
    }
}

/// Every live pool slot has a queue entry: the pool holds no more
/// messages than the queues, and none when nothing is queued.
fn assert_pool_covered<P: Protocol>(engine: &Engine<P>) {
    let (pooled, queued) = (engine.pooled_msgs(), engine.queued_msgs());
    assert!(
        pooled <= queued,
        "{pooled} pooled messages but {queued} queue entries"
    );
    assert!(
        queued > 0 || pooled == 0,
        "{pooled} pooled messages with nothing queued"
    );
}

fn check_conservation(l: &Ledger) {
    let m = l.engine.metrics();
    let rx: u64 = (0..l.engine.topology().len())
        .map(|i| m.node(NodeId(i as u16)).rx_msgs)
        .sum();
    let attempts = l.src_attempts + l.fwd_attempts;
    // 1. Enqueue accounting: attempted = accepted + dropped-at-enqueue.
    assert_eq!(
        attempts - l.accepted,
        m.total_queue_drops() + m.total_self_send_drops(),
        "enqueue ledger broken"
    );
    // 2. Tuple conservation: accepted = delivered + lost-after-retries +
    //    discarded-in-dead-queues + still-in-flight.
    assert_eq!(
        l.accepted,
        rx + m.total_send_failures()
            + l.killed_drops
            + l.engine.energy_msgs_dropped()
            + l.engine.queued_msgs() as u64,
        "tuple conservation broken"
    );
    // 3. Dispatch totality: every delivery was consumed or re-forwarded.
    assert_eq!(
        rx,
        l.consumed - terminal_consumed_without_rx(l) + l.fwd_attempts,
    );
}

/// Parcels "consumed" without a delivery: isolated-node productions that
/// found no neighbor (they never entered a queue).
fn terminal_consumed_without_rx(_l: &Ledger) -> u64 {
    // `random_with_degree` always yields a connected topology, so every
    // node has at least one neighbor and this is structurally zero; kept
    // explicit so the dispatch-totality equation reads exactly as stated.
    0
}

/// A protocol whose wish for a tick flips at random — in its own
/// callbacks, and through `Engine::node_mut` between cycles — and which
/// logs every tick it is given, wanted or not. A tick it does not want
/// changes nothing else, as the `wants_tick` contract demands.
struct Flipper {
    id: NodeId,
    want: bool,
    /// Every tick of the run, all nodes, in dispatch order: (cycle, node).
    log: Rc<RefCell<Vec<(u32, u16)>>>,
}

impl Flipper {
    /// Send a parcel with `hops` relays left toward a neighbor `h` picks.
    fn emit(&self, ctx: &mut Ctx<'_, (u8, u64)>, hops: u8, h: u64) {
        let nbrs = ctx.neighbors();
        let to = nbrs[(h % nbrs.len() as u64) as usize];
        ctx.send(to, 4, (hops, h));
    }
}

impl Protocol for Flipper {
    type Msg = (u8, u64);

    fn on_message(&mut self, ctx: &mut Ctx<'_, (u8, u64)>, _from: NodeId, (hops, salt): (u8, u64)) {
        let h = mix(self.id.0 as u64, salt, ctx.now);
        if h.is_multiple_of(3) {
            self.want = !self.want;
        }
        if hops > 0 {
            self.emit(ctx, hops - 1, h);
        }
    }

    fn on_sampling_cycle(&mut self, ctx: &mut Ctx<'_, (u8, u64)>, cycle: u32) {
        self.log.borrow_mut().push((cycle, self.id.0));
        if !self.want {
            return;
        }
        let h = mix(self.id.0 as u64, cycle as u64, 0x71C);
        self.emit(ctx, (h >> 8) as u8 % 4, h);
        self.want = !h.is_multiple_of(2);
    }

    fn wants_tick(&self) -> bool {
        self.want
    }

    fn flow_of(msg: &(u8, u64)) -> usize {
        (msg.1 % 3) as usize
    }
}

/// Traffic that shares pooled messages: radio broadcasts, `send_many`
/// fan-outs and unicasts, relayed a few hops. Bystanders snoop and some
/// answer what they overhear (allocating while the overheard message is
/// out of its slot); senders retry half of what failed.
struct Chatter {
    id: NodeId,
}

impl Chatter {
    /// Send `(hops, h)` one of three ways, chosen by `h`.
    fn emit(&self, ctx: &mut Ctx<'_, (u8, u64)>, hops: u8, h: u64) {
        let nbrs = ctx.neighbors().to_vec();
        match h % 3 {
            0 => {
                ctx.broadcast(4, (hops, h));
            }
            1 => {
                ctx.send_many(&nbrs, 4, (hops, h));
            }
            _ => {
                ctx.send(nbrs[(h >> 4) as usize % nbrs.len()], 4, (hops, h));
            }
        }
    }
}

impl Protocol for Chatter {
    type Msg = (u8, u64);
    const WANTS_SNOOP: bool = true;

    fn on_message(&mut self, ctx: &mut Ctx<'_, (u8, u64)>, _from: NodeId, (hops, h): (u8, u64)) {
        if hops > 0 {
            self.emit(ctx, hops - 1, mix(self.id.0 as u64, h, 1));
        }
    }

    fn on_snoop(
        &mut self,
        ctx: &mut Ctx<'_, (u8, u64)>,
        _sender: NodeId,
        _next_hop: NodeId,
        &(hops, h): &(u8, u64),
    ) {
        let h = mix(self.id.0 as u64, h, 2);
        if hops > 0 && h.is_multiple_of(4) {
            self.emit(ctx, 0, h);
        }
    }

    fn on_send_failed(&mut self, ctx: &mut Ctx<'_, (u8, u64)>, to: NodeId, (hops, h): (u8, u64)) {
        if h.is_multiple_of(2) {
            ctx.send(to, 4, (hops, h >> 1));
        }
    }

    fn on_sampling_cycle(&mut self, ctx: &mut Ctx<'_, (u8, u64)>, cycle: u32) {
        let h = mix(self.id.0 as u64, cycle as u64, 3);
        if h.is_multiple_of(2) {
            self.emit(ctx, (h >> 8) as u8 % 3, h);
        }
    }

    fn flow_of(msg: &(u8, u64)) -> usize {
        (msg.1 % 2) as usize
    }
}

/// Run `Flipper` for `cycles` sampling cycles of `steps` transmission
/// cycles each, flipping `flips` nodes' wish through `node_mut` and
/// killing one node every `kill_every` cycles, and check the soundness
/// property at every tick and every step. Returns the run's metrics.
fn run_flipper(
    nodes: u16,
    loss: f64,
    tx_per_cycle: usize,
    fair: bool,
    flips: u64,
    kill_every: u32,
) -> Metrics {
    let seed = mix(nodes as u64, flips, kill_every as u64);
    let topo = sensor_net::random_with_degree(nodes as usize, 4.0, seed);
    // The run steps the engine itself, so it can look at every step.
    let cfg = SimConfig {
        tx_per_cycle,
        tx_per_sampling_cycle: 0,
        ..SimConfig::default()
            .with_loss(loss)
            .with_seed(seed)
            .with_fair_mac(fair)
    };
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut engine = Engine::new(topo, cfg, |id| Flipper {
        id,
        want: id.0 % 2 == 0,
        log: log.clone(),
    });
    let n = nodes as usize;
    let ids = || (0..n).map(|i| NodeId(i as u16));
    for c in 0..12u32 {
        for k in 0..flips {
            let v = NodeId((mix(seed, c as u64, k) % n as u64) as u16);
            let p = engine.node_mut(v);
            p.want = !p.want;
        }
        if c % kill_every == kill_every - 1 {
            let v = NodeId(1 + (mix(seed, c as u64, 0xDEAD) % (n as u64 - 1)) as u16);
            engine.kill(v);
        }
        let wanted: Vec<u16> = ids()
            .filter(|&v| engine.is_alive(v) && engine.node(v).want)
            .map(|v| v.0)
            .collect();
        let from = log.borrow().len();
        engine.sampling_cycle(c);
        let ticked: Vec<u16> = log.borrow()[from..].iter().map(|&(_, v)| v).collect();
        assert!(
            ticked.windows(2).all(|w| w[0] < w[1]),
            "cycle {c}: ticks out of node order or repeated: {ticked:?}"
        );
        assert!(ticked.iter().all(|&v| engine.is_alive(NodeId(v))));
        for v in &wanted {
            assert!(ticked.contains(v), "cycle {c}: node {v} wanted a tick");
        }
        for _ in 0..6 {
            let pending: Vec<(NodeId, u64)> = ids()
                .filter(|&v| engine.is_alive(v) && engine.queue_len(v) > 0)
                .map(|v| (v, engine.metrics().node(v).tx_msgs))
                .collect();
            engine.step();
            for (v, tx_before) in pending {
                assert!(
                    engine.metrics().node(v).tx_msgs > tx_before,
                    "cycle {c}: node {} held a message and did not transmit",
                    v.0
                );
            }
        }
    }
    engine.metrics().clone()
}

proptest! {
    /// The engine's active sets are sound: skipping the nodes outside
    /// them drops no tick and no transmission.
    #[test]
    fn visiting_only_active_nodes_skips_nothing_that_can_act(
        nodes in 6u16..40,
        loss in 0.0f64..0.4,
        tx_per_cycle in 1usize..4,
        fair in any::<bool>(),
        flips in 0u64..6,
        kill_every in 2u32..8,
    ) {
        let m = run_flipper(nodes, loss, tx_per_cycle, fair, flips, kill_every);
        prop_assert!(m.total_tx_msgs() > 0, "scenario generated no traffic");
    }

    /// Shared and snooped messages keep every live pool slot queued, at
    /// every step boundary, through loss, kills and energy depletion.
    #[test]
    fn every_live_pool_slot_has_a_queue_entry(
        nodes in 6u16..30,
        loss in 0.0f64..0.5,
        queue_cap in 2usize..12,
        snooping in any::<bool>(),
        kills in 0usize..4,
        energy in 0u64..4000,
    ) {
        let seed = mix(nodes as u64, queue_cap as u64, energy);
        let topo = sensor_net::random_with_degree(nodes as usize, 4.0, seed);
        let cfg = SimConfig {
            tx_per_sampling_cycle: 0,
            ..SimConfig::default()
                .with_loss(loss)
                .with_seed(seed)
                .with_queue_capacity(queue_cap)
                .with_snooping(snooping)
                // One case in eight runs without a budget.
                .with_energy_budget(if energy < 500 { 0 } else { energy })
        };
        let mut engine = Engine::new(topo, cfg, |id| Chatter { id });
        for c in 0..8u32 {
            if (c as usize) < kills {
                let v = NodeId(1 + (mix(seed, c as u64, 0xDEAD) % (nodes as u64 - 1)) as u16);
                if engine.is_alive(v) && v != engine.topology().base() {
                    // Queue three messages first, so the kill discards them.
                    engine.with_node(v, |n, ctx| {
                        for k in 0..3 {
                            n.emit(ctx, 1, mix(seed, c as u64, k));
                        }
                    });
                    engine.kill(v);
                    assert_pool_covered(&engine);
                }
            }
            sampling_cycle_checked(&mut engine, c);
        }
        prop_assert!(engine.metrics().total_tx_msgs() > 0, "scenario generated no traffic");
    }

    /// Conservation holds across random single-flow runs with loss,
    /// small queues and mid-run kills.
    #[test]
    fn single_flow_conservation(
        nodes in 6u16..36,
        loss in 0.0f64..0.55,
        queue_cap in 2usize..16,
        cycles in 1u32..10,
    ) {
        let seed = mix(nodes as u64, queue_cap as u64, cycles as u64);
        let l = run_scenario(nodes, 1, loss, queue_cap, cycles, 0, false, 0, seed);
        prop_assert!(l.src_attempts > 0, "scenario generated no traffic");
        check_conservation(&l);
    }

    /// Conservation holds across random multi-flow (concurrent-query)
    /// runs under fair MAC arbitration, and per-flow counters decompose
    /// the totals exactly.
    #[test]
    fn multi_flow_conservation_and_flow_decomposition(
        nodes in 6u16..30,
        flows in 2usize..5,
        loss in 0.0f64..0.4,
        kills in 0usize..3,
    ) {
        let seed = mix(nodes as u64, flows as u64, kills as u64 ^ 0xBEEF);
        let l = run_scenario(nodes, flows, loss, 8, 8, kills, true, 0, seed);
        prop_assert!(l.src_attempts > 0);
        check_conservation(&l);
        let m = l.engine.metrics();
        let flow_tx: u64 = (0..m.flow_count()).map(|f| m.flow(f).tx_msgs).sum();
        let flow_tx_bytes: u64 = (0..m.flow_count()).map(|f| m.flow(f).tx_bytes).sum();
        let flow_rx: u64 = (0..m.flow_count()).map(|f| m.flow(f).rx_msgs).sum();
        let rx: u64 = (0..l.engine.topology().len())
            .map(|i| m.node(NodeId(i as u16)).rx_msgs)
            .sum();
        prop_assert_eq!(flow_tx, m.total_tx_msgs());
        prop_assert_eq!(flow_tx_bytes, m.total_tx_bytes());
        prop_assert_eq!(flow_rx, rx);
        for f in 0..m.flow_count() {
            prop_assert!(m.flow(f).rx_msgs <= m.flow(f).tx_msgs,
                "flow {} delivered more than it transmitted", f);
        }
    }

    /// Conservation survives energy-budget depletion (queued messages of
    /// depleted nodes are accounted, not leaked).
    #[test]
    fn energy_depletion_conserves(
        nodes in 6u16..24,
        energy in 200u64..2000,
        cycles in 2u32..10,
    ) {
        let seed = mix(nodes as u64, energy, cycles as u64);
        let l = run_scenario(nodes, 2, 0.1, 8, cycles, 0, true, energy, seed);
        check_conservation(&l);
        // Depleted nodes are really dead.
        for &d in l.engine.energy_depleted() {
            prop_assert!(!l.engine.is_alive(d));
        }
    }

    /// Cross-network gateway channels keep the same ledger discipline as
    /// the in-network link layer: per direction, every tuple handed to the
    /// bridge is delivered, dropped (loss draw or budget exhaustion), or
    /// still in flight — never created or destroyed unaccounted — at every
    /// cycle boundary of a randomized enqueue/tick schedule.
    #[test]
    fn gateway_channel_conserves_tuples_per_direction(
        loss in 0.0f64..0.9,
        latency in 0u32..5,
        budget in 0u64..300,
        tuple_bytes in 8u64..40,
        offers in proptest::collection::vec((0u64..8, any::<bool>()), 1..40),
    ) {
        use sensor_net::{Direction, GatewayChannel, GatewayLink};
        let link = GatewayLink::new(0, NodeId(4), 1, NodeId(9))
            .with_loss(loss)
            .with_latency(latency)
            .with_budget(budget);
        let seed = mix(latency as u64, budget, tuple_bytes);
        let mut ch = GatewayChannel::new(link, seed);
        for (now, &(tuples, a_to_b)) in offers.iter().enumerate() {
            let now = now as u64;
            let dir = if a_to_b { Direction::AToB } else { Direction::BToA };
            ch.enqueue(dir, now, tuples, tuple_bytes);
            for d in [Direction::AToB, Direction::BToA] {
                ch.tick(d, now);
                let s = ch.stats(d);
                prop_assert_eq!(
                    s.entered,
                    s.delivered + s.dropped + ch.in_flight(d),
                    "direction {:?} leaked tuples at cycle {}", d, now
                );
                // Constant tuple size makes the byte ledger exact too.
                prop_assert_eq!(
                    s.bytes_entered,
                    s.bytes_delivered + s.dropped * tuple_bytes + ch.bytes_in_flight(d),
                    "direction {:?} leaked bytes at cycle {}", d, now
                );
            }
        }
        // Drain: after the maximum latency passes with no new offers,
        // nothing stays in flight and the ledger closes.
        let end = offers.len() as u64 + u64::from(latency) + 1;
        for d in [Direction::AToB, Direction::BToA] {
            ch.tick(d, end);
            prop_assert_eq!(ch.in_flight(d), 0);
            let s = ch.stats(d);
            prop_assert_eq!(s.entered, s.delivered + s.dropped);
        }
    }

    /// Cumulative traffic counters are non-negative and monotone over
    /// time, and network-wide deliveries never exceed attempts.
    #[test]
    fn counters_monotone_and_consistent(
        nodes in 6u16..24,
        loss in 0.0f64..0.5,
        flows in 1usize..4,
    ) {
        let seed = mix(nodes as u64, flows as u64, 0x50_50);
        let topo = sensor_net::random_with_degree(nodes as usize, 4.0, seed);
        let cfg = SimConfig::default().with_loss(loss).with_seed(seed);
        let mut engine = Engine::new(topo, cfg, |id| Courier {
            id,
            flows,
            gate_den: 2,
            src_attempts: 0,
            fwd_attempts: 0,
            accepted: 0,
            consumed: 0,
        });
        let mut prev = (0u64, 0u64, 0u64, 0u64);
        for c in 0..8 {
            engine.sampling_cycle(c);
            let m = engine.metrics();
            let rx: u64 = (0..engine.topology().len())
                .map(|i| m.node(NodeId(i as u16)).rx_msgs)
                .sum();
            let cur = (
                m.total_tx_bytes(),
                m.total_tx_msgs(),
                m.total_send_failures(),
                rx,
            );
            prop_assert!(cur.0 >= prev.0 && cur.1 >= prev.1 && cur.2 >= prev.2 && cur.3 >= prev.3,
                "counter went backwards at cycle {}: {:?} -> {:?}", c, prev, cur);
            prop_assert!(cur.3 <= cur.1, "more deliveries than attempts");
            prev = cur;
        }
    }
}
