//! Declarative network dynamics: scheduled node failures and link-quality
//! shifts executed at sampling-cycle boundaries (§7's failure experiments
//! and the churn scenarios of the dynamics sweeps).
//!
//! A [`DynamicsPlan`] is data, not code: it lists *when* something happens
//! and *to whom*, and the harness fires it between sampling cycles via
//! [`DynamicsPlan::fire`]. Everything is derived deterministically from the
//! plan (uniform-random victims use a plan-seeded RNG keyed by event index,
//! never the engine's link RNG), so a faulty run replays bit-for-bit and a
//! sweep over failure schedules keeps the thread-count-invariance contract.
//!
//! Target kinds the engine can resolve by itself: explicit node lists,
//! uniform-random draws over the alive non-base population, and spatially
//! correlated region outages (every node within a radius of a center — a
//! localized destruction event). Targets only the *protocol* layer can
//! identify (e.g. "the busiest join node") use [`FaultTarget::Picked`] and
//! a caller-supplied picker closure.

use crate::engine::{Engine, Protocol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensor_net::{NodeId, Point};

/// Who a scheduled fault hits. The base station is never a victim: the
/// paper's failure model (§7) assumes the root survives, and killing it
/// would end the run rather than exercise recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTarget {
    /// Explicit victims (dead or base-station entries are skipped).
    Nodes(Vec<NodeId>),
    /// `count` distinct uniform-random alive non-base nodes, drawn from
    /// the plan seed (not the engine's link RNG).
    UniformRandom { count: usize },
    /// Every alive non-base node within `radius` (position units) of
    /// `center`'s deployment position — a spatially-correlated outage.
    Region { center: NodeId, radius: f64 },
    /// One node chosen by the caller's picker at fire time (e.g. the
    /// busiest join node, which only the protocol layer can identify).
    Picked,
}

/// One scheduled failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Sampling cycle the fault fires at (before the cycle's sampling).
    pub at_cycle: u32,
    pub target: FaultTarget,
}

/// Where a scheduled mobile-leaf move goes (App. G mobility). The engine
/// resolves the victim and destination deterministically at fire time and
/// reports them in [`FireOutcome::moved`]; the *protocol* layer re-homes
/// the leaf (only it holds the routing substrate) and charges the update
/// delay/traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MoveTarget {
    /// An explicit node re-homed at an explicit position.
    Node { node: NodeId, to: Point },
    /// A uniform-random alive non-base node re-homed at a uniform-random
    /// position inside the deployment's bounding box, both drawn from the
    /// plan seed keyed by event index (never the engine's link RNG).
    UniformRandom,
}

/// One scheduled mobile-leaf re-homing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveEvent {
    /// Sampling cycle the move fires at (before the cycle's sampling).
    pub at_cycle: u32,
    pub target: MoveTarget,
}

/// A step change of the link-loss probability (environmental degradation
/// or recovery; "loss ramps" are a sequence of these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossShift {
    pub at_cycle: u32,
    pub loss_prob: f64,
}

/// A declarative schedule of network dynamics for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DynamicsPlan {
    pub faults: Vec<FaultEvent>,
    pub loss_shifts: Vec<LossShift>,
    /// Scheduled mobile-leaf re-homings (App. G mobility).
    pub moves: Vec<MoveEvent>,
    /// Cycle boundaries of events applied *outside* the engine (e.g. a
    /// workload selectivity shift baked into the `Schedule`). The engine
    /// does nothing with these, but recovery accounting (pre/post-event
    /// result splits, re-convergence detection) treats them as events.
    pub marks: Vec<u32>,
    /// Seed for uniform-random victim draws.
    pub seed: u64,
}

/// What [`DynamicsPlan::fire`] did at one cycle boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FireOutcome {
    /// Nodes killed this cycle, in kill order.
    pub killed: Vec<NodeId>,
    /// Messages discarded from the victims' outgoing queues — traffic
    /// that was lost in transit to the failures.
    pub queued_msgs_dropped: u64,
    /// Link-loss probabilities applied this cycle, in plan order (the
    /// session layer's observers turn these into `LossShifted` events).
    pub loss_shifts: Vec<f64>,
    /// Mobile-leaf moves resolved this cycle, in plan order: who moved
    /// and where to. The engine only *resolves* these (victim and
    /// destination); the caller re-homes the leaf on its routing
    /// substrate and charges the update delay/traffic.
    pub moved: Vec<(NodeId, Point)>,
}

impl DynamicsPlan {
    /// The empty plan: a static network.
    pub fn none() -> Self {
        DynamicsPlan::default()
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedule explicit victims.
    pub fn kill_nodes(mut self, at_cycle: u32, nodes: Vec<NodeId>) -> Self {
        self.faults.push(FaultEvent {
            at_cycle,
            target: FaultTarget::Nodes(nodes),
        });
        self
    }

    /// Schedule `count` uniform-random kills.
    pub fn kill_random(mut self, at_cycle: u32, count: usize) -> Self {
        self.faults.push(FaultEvent {
            at_cycle,
            target: FaultTarget::UniformRandom { count },
        });
        self
    }

    /// Schedule a region outage around `center`.
    pub fn kill_region(mut self, at_cycle: u32, center: NodeId, radius: f64) -> Self {
        self.faults.push(FaultEvent {
            at_cycle,
            target: FaultTarget::Region { center, radius },
        });
        self
    }

    /// Schedule a picker-resolved kill (see [`FaultTarget::Picked`]).
    pub fn kill_picked(mut self, at_cycle: u32) -> Self {
        self.faults.push(FaultEvent {
            at_cycle,
            target: FaultTarget::Picked,
        });
        self
    }

    /// Schedule a link-loss step change.
    pub fn shift_loss(mut self, at_cycle: u32, loss_prob: f64) -> Self {
        self.loss_shifts.push(LossShift {
            at_cycle,
            loss_prob,
        });
        self
    }

    /// Schedule an explicit mobile-leaf move.
    pub fn move_node(mut self, at_cycle: u32, node: NodeId, to: Point) -> Self {
        self.moves.push(MoveEvent {
            at_cycle,
            target: MoveTarget::Node { node, to },
        });
        self
    }

    /// Schedule a uniform-random mobile-leaf move (victim and destination
    /// drawn from the plan seed at fire time).
    pub fn move_random(mut self, at_cycle: u32) -> Self {
        self.moves.push(MoveEvent {
            at_cycle,
            target: MoveTarget::UniformRandom,
        });
        self
    }

    /// Record an external event boundary (see [`DynamicsPlan::marks`]).
    pub fn mark(mut self, at_cycle: u32) -> Self {
        self.marks.push(at_cycle);
        self
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_static(&self) -> bool {
        self.faults.is_empty()
            && self.loss_shifts.is_empty()
            && self.moves.is_empty()
            && self.marks.is_empty()
    }

    /// Earliest cycle at which anything (fault, loss shift, or mark)
    /// happens.
    pub fn first_event_cycle(&self) -> Option<u32> {
        self.event_cycles().min()
    }

    /// Whether anything (fault, loss shift, or mark) is scheduled at
    /// `cycle`. The session layer uses this to track fired-event bounds
    /// online instead of needing the total run length up front.
    pub fn has_event_at(&self, cycle: u32) -> bool {
        self.event_cycles().any(|c| c == cycle)
    }

    fn event_cycles(&self) -> impl Iterator<Item = u32> + '_ {
        self.faults
            .iter()
            .map(|f| f.at_cycle)
            .chain(self.loss_shifts.iter().map(|l| l.at_cycle))
            .chain(self.moves.iter().map(|m| m.at_cycle))
            .chain(self.marks.iter().copied())
    }

    /// Apply everything scheduled for `cycle` to the engine: loss shifts
    /// first, then fault events in plan order. `picker` resolves
    /// [`FaultTarget::Picked`] entries. The caller is responsible for any
    /// protocol-level death bookkeeping (e.g. a shared liveness oracle)
    /// for the returned victims.
    pub fn fire<P: Protocol>(
        &self,
        cycle: u32,
        engine: &mut Engine<P>,
        mut picker: impl FnMut(&Engine<P>) -> Option<NodeId>,
    ) -> FireOutcome {
        let mut out = FireOutcome::default();
        for ls in self.loss_shifts.iter().filter(|l| l.at_cycle == cycle) {
            engine.set_loss_prob(ls.loss_prob);
            out.loss_shifts.push(ls.loss_prob);
        }
        let base = engine.topology().base();
        for (i, ev) in self
            .faults
            .iter()
            .enumerate()
            .filter(|(_, e)| e.at_cycle == cycle)
        {
            let victims: Vec<NodeId> = match &ev.target {
                FaultTarget::Nodes(v) => v.clone(),
                FaultTarget::UniformRandom { count } => {
                    // Event-index-keyed stream: inserting an event does not
                    // reshuffle the victims of the others.
                    let mut rng = StdRng::seed_from_u64(
                        self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut pool: Vec<NodeId> = engine
                        .topology()
                        .node_ids()
                        .filter(|&n| n != base && engine.is_alive(n))
                        .collect();
                    let take = (*count).min(pool.len());
                    (0..take)
                        .map(|_| pool.swap_remove(rng.random_range(0..pool.len())))
                        .collect()
                }
                FaultTarget::Region { center, radius } => {
                    let c = engine.topology().position(*center);
                    engine
                        .topology()
                        .node_ids()
                        .filter(|&n| n != base && engine.is_alive(n))
                        .filter(|&n| engine.topology().position(n).dist(&c) <= *radius)
                        .collect()
                }
                FaultTarget::Picked => picker(engine).into_iter().collect(),
            };
            for v in victims {
                if v == base || !engine.is_alive(v) {
                    continue;
                }
                out.queued_msgs_dropped += engine.kill(v) as u64;
                out.killed.push(v);
            }
        }
        // Moves resolve after this cycle's kills so a victim is never a
        // node that just died. Random draws use their own event-index-keyed
        // stream (salted apart from the fault stream, so a plan mixing
        // kills and moves at one cycle keeps both draws independent).
        for (i, mv) in self
            .moves
            .iter()
            .enumerate()
            .filter(|(_, m)| m.at_cycle == cycle)
        {
            match mv.target {
                MoveTarget::Node { node, to } => {
                    if node != base && engine.is_alive(node) {
                        out.moved.push((node, to));
                    }
                }
                MoveTarget::UniformRandom => {
                    let mut rng = StdRng::seed_from_u64(
                        self.seed ^ 0xA10B_11E5 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let pool: Vec<NodeId> = engine
                        .topology()
                        .node_ids()
                        .filter(|&n| n != base && engine.is_alive(n))
                        .collect();
                    if pool.is_empty() {
                        continue;
                    }
                    let node = pool[rng.random_range(0..pool.len())];
                    // Destination: uniform inside the deployment's
                    // bounding box.
                    let (mut lo, mut hi) = (
                        Point::new(f64::MAX, f64::MAX),
                        Point::new(f64::MIN, f64::MIN),
                    );
                    for p in engine.topology().positions() {
                        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
                        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
                    }
                    let to = Point::new(
                        lo.x + rng.random::<f64>() * (hi.x - lo.x),
                        lo.y + rng.random::<f64>() * (hi.y - lo.y),
                    );
                    out.moved.push((node, to));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Ctx;
    use sensor_net::{Point, Topology};

    struct Noop;
    impl Protocol for Noop {
        type Msg = ();
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
    }

    fn grid_engine() -> Engine<Noop> {
        let mut pts = Vec::new();
        for y in 0..4 {
            for x in 0..4 {
                pts.push(Point::new(x as f64, y as f64));
            }
        }
        let topo = Topology::from_positions(pts, 1.1, NodeId(0));
        Engine::new(topo, SimConfig::lossless(), |_| Noop)
    }

    #[test]
    fn static_plan_fires_nothing() {
        let plan = DynamicsPlan::none();
        assert!(plan.is_static());
        assert_eq!(plan.first_event_cycle(), None);
        let mut eng = grid_engine();
        let out = plan.fire(0, &mut eng, |_| None);
        assert_eq!(out, FireOutcome::default());
    }

    #[test]
    fn explicit_kill_fires_at_its_cycle_only() {
        let plan = DynamicsPlan::none().kill_nodes(3, vec![NodeId(5)]);
        let mut eng = grid_engine();
        assert!(plan.fire(2, &mut eng, |_| None).killed.is_empty());
        assert!(eng.is_alive(NodeId(5)));
        let out = plan.fire(3, &mut eng, |_| None);
        assert_eq!(out.killed, vec![NodeId(5)]);
        assert!(!eng.is_alive(NodeId(5)));
        // Re-firing the same cycle is a no-op on an already-dead victim.
        assert!(plan.fire(3, &mut eng, |_| None).killed.is_empty());
    }

    #[test]
    fn random_kill_is_deterministic_and_spares_the_base() {
        let run = || {
            let plan = DynamicsPlan::none().with_seed(42).kill_random(1, 3);
            let mut eng = grid_engine();
            plan.fire(1, &mut eng, |_| None).killed
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(!a.contains(&NodeId(0)), "base must survive");
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), 3, "victims are distinct");
    }

    #[test]
    fn region_kill_is_spatially_correlated() {
        // Center at node 5 = (1,1); radius 1.0 covers its orthogonal
        // neighbors (1,0),(0,1),(2,1),(1,2) and itself — not the far corner.
        let plan = DynamicsPlan::none().kill_region(0, NodeId(5), 1.0);
        let mut eng = grid_engine();
        let out = plan.fire(0, &mut eng, |_| None);
        let killed: std::collections::HashSet<_> = out.killed.iter().copied().collect();
        assert!(killed.contains(&NodeId(5)));
        assert!(killed.contains(&NodeId(6)));
        assert!(killed.contains(&NodeId(9)));
        assert!(!killed.contains(&NodeId(15)), "far corner out of radius");
        assert!(!killed.contains(&NodeId(0)), "base excluded even in range");
        assert!(eng.is_alive(NodeId(15)));
    }

    #[test]
    fn picked_target_uses_the_caller_closure() {
        let plan = DynamicsPlan::none().kill_picked(2);
        let mut eng = grid_engine();
        let out = plan.fire(2, &mut eng, |_| Some(NodeId(7)));
        assert_eq!(out.killed, vec![NodeId(7)]);
    }

    #[test]
    fn loss_shift_updates_engine_config() {
        let plan = DynamicsPlan::none().shift_loss(4, 0.4);
        let mut eng = grid_engine();
        assert_eq!(eng.config().loss_prob, 0.0);
        plan.fire(4, &mut eng, |_| None);
        assert_eq!(eng.config().loss_prob, 0.4);
    }

    #[test]
    fn kill_counts_discarded_queue() {
        let plan = DynamicsPlan::none().kill_nodes(0, vec![NodeId(5)]);
        let mut eng = grid_engine();
        eng.with_node(NodeId(5), |_, ctx| {
            ctx.send(NodeId(6), 4, ());
            ctx.send(NodeId(9), 4, ());
        });
        let out = plan.fire(0, &mut eng, |_| None);
        assert_eq!(out.queued_msgs_dropped, 2);
    }

    #[test]
    fn scheduled_move_resolves_deterministically() {
        let plan = DynamicsPlan::none().with_seed(7).move_random(2).move_node(
            2,
            NodeId(5),
            Point::new(3.0, 3.0),
        );
        assert!(!plan.is_static());
        assert!(plan.has_event_at(2));
        assert_eq!(plan.first_event_cycle(), Some(2));
        let run = || {
            let mut eng = grid_engine();
            plan.fire(2, &mut eng, |_| None).moved
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "move resolution must replay bit-for-bit");
        assert_eq!(a.len(), 2);
        // Plan order: the random draw first, then the explicit move.
        assert_eq!(a[1], (NodeId(5), Point::new(3.0, 3.0)));
        let (victim, to) = a[0];
        assert!(victim != NodeId(0), "base never moves");
        // Random destination stays inside the 4x4 deployment bbox.
        assert!((0.0..=3.0).contains(&to.x) && (0.0..=3.0).contains(&to.y));
        // Nothing fires off-cycle, and a dead node never moves.
        let mut eng = grid_engine();
        assert!(plan.fire(1, &mut eng, |_| None).moved.is_empty());
        eng.kill(NodeId(5));
        let out = plan.fire(2, &mut eng, |_| None);
        assert!(out.moved.iter().all(|&(n, _)| n != NodeId(5)));
    }

    #[test]
    fn event_cycle_bounds_cover_all_kinds() {
        let plan = DynamicsPlan::none()
            .kill_random(10, 1)
            .shift_loss(5, 0.2)
            .mark(30);
        assert_eq!(plan.first_event_cycle(), Some(5));
        for c in [5, 10, 30] {
            assert!(plan.has_event_at(c), "no event at {c}");
        }
        assert!(!plan.has_event_at(20));
        assert!(!plan.is_static());
    }
}
