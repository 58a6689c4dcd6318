//! The gossip protocol of `crates/bench/benches/engine_step.rs`, copied so
//! the harness depends on nothing outside the `aspen::` facade: unicast
//! payloads bounce between grid neighbours forever and every 8th delivery
//! also broadcasts, so every step transmits at the full MAC budget across
//! the whole grid — the engine with a trivial protocol on top.

use aspen::net::NodeId;
use aspen::sim::{Ctx, Engine, Protocol, SimConfig};

pub const GRID_SIDE: usize = 45;
const LOSS: f64 = 0.10;

pub struct Gossip {
    pub hops: u64,
    pub snoops: u64,
}

#[derive(Clone)]
pub struct Payload {
    _data: Vec<u8>,
    hop: u32,
}

impl Protocol for Gossip {
    type Msg = Payload;
    const WANTS_SNOOP: bool = true;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Payload>, from: NodeId, mut msg: Payload) {
        self.hops += 1;
        msg.hop += 1;
        if msg.hop.is_multiple_of(8) {
            ctx.broadcast(16, msg.clone());
        }
        // Bounce to the neighbour after the one we got it from.
        let nbs = ctx.neighbors();
        if let Some(pos) = nbs.iter().position(|&n| n == from) {
            let next = nbs[(pos + 1) % nbs.len()];
            ctx.send(next, 16, msg);
        }
    }

    fn on_snoop(&mut self, _ctx: &mut Ctx<'_, Payload>, _s: NodeId, _n: NodeId, msg: &Payload) {
        self.snoops += u64::from(msg.hop) & 1;
    }
}

/// A 45 x 45 grid engine, loss 0.10, every node seeded with one unicast to
/// its first neighbour. `seed` drives the link-loss draws.
pub fn grid_engine(seed: u64, snooping: bool) -> Engine<Gossip> {
    let topo = aspen::net::grid(GRID_SIDE, GRID_SIDE);
    let cfg = SimConfig::default()
        .with_loss(LOSS)
        .with_seed(seed)
        .with_snooping(snooping)
        .with_threads(1);
    let mut eng = Engine::new(topo, cfg, |_| Gossip { hops: 0, snoops: 0 });
    for i in 0..eng.topology().len() {
        eng.with_node(NodeId(i as u16), |_, ctx| {
            let first = ctx.neighbors()[0];
            ctx.send(
                first,
                16,
                Payload {
                    _data: vec![0u8; 24],
                    hop: 0,
                },
            );
        });
    }
    eng
}
