//! The per-node protocol state machine.
//!
//! One [`JoinNode`] instance runs at every sensor; its behaviour is
//! selected by [`crate::shared::AlgoConfig`]. The submodules split the
//! logic by lifecycle phase:
//!
//! - [`init`]: query dissemination, Base pre-filtering, GHT registration,
//!   Innet exploration / nomination / assignment (§3);
//! - [`exec`]: sampling, data forwarding, windowed join computation,
//!   result delivery (§2.2). Every join window is a [`WindowJoin`], the
//!   one kernel that probes S→T and evicts at `w`: one per pair at its
//!   join node (and in a migration's [`crate::msg::WindowXfer`]), one per
//!   sending node in the [`GroupJoin`] of the base station and of every
//!   GHT home, and a T-only one at each Yang+07 target;
//! - [`mpo`]: group optimization (Algorithm 1) and multicast trees with
//!   path collapsing (§5, Appendix E);
//! - [`adapt`]: selectivity learning with join-node migration (§6) and
//!   failure recovery (§7).
//!
//! A pair's placement is one [`PairPath`] (its s..t path, join node and
//! sequence number), made once by the target that chose it. The
//! nomination, the join node's [`PairState`], both producers'
//! [`ProducerAssign`]s and a migration's [`crate::msg::WindowXfer`] hold
//! it, and every route along the path walks its shared nodes; a node's
//! base distance is read off the primary tree where a placement needs it.
//!
//! Every message bound for a known end goes through one relay,
//! `JoinNode::relay`: data and results up the tree to the base, data
//! along a recorded path vector, announcements, nominations back along
//! the discovered path, assignments out to both producers, window
//! transfers to a new join node, and node-addressed control ([`Msg::Ctl`]:
//! Base verdicts, GHT registration, GROUPOPT reports, pings and
//! decisions, collapse hints, route-broken notices). Its [`Route`] is
//! `TreeUp` or a `Path`, which walks a shared slice from its `start` to
//! its `end` in either direction; at each hop the relay forwards the
//! message, and where the route ends, at its sender too, it hands it to
//! its kind's handler (`deliver`, and `on_ctl` for a [`Ctl`]). Multicast
//! data fans out on its own, and §7's `handle_send_failure` keeps its
//! per-kind recovery.

pub mod adapt;
pub mod exec;
pub mod init;
pub mod mpo;

use crate::cost::Sigma;
use crate::learn::PairStats;
use crate::msg::{Ctl, Msg, Pair, PairPath, Route};
use crate::multicast::McastTree;
use crate::shared::{Algorithm, Shared};
use sensor_net::NodeId;
use sensor_query::Tuple;
use sensor_sim::{Ctx, Protocol};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::Arc;

pub use exec::WindowJoin;

/// A candidate placement a target node tracks per source (§3.2 footnote 4:
/// t keeps nominating better join nodes as better paths are discovered).
#[derive(Debug, Clone)]
pub struct Candidate {
    pub cost: f64,
    pub path: PairPath,
}

/// A producer's view of one assigned pair.
#[derive(Debug, Clone)]
pub struct ProducerAssign {
    pub pair: Pair,
    /// The pair's placement (an at-base assign's carries the tree path it
    /// came down; see [`PairPath`]).
    pub path: PairPath,
    /// Overridden to base by a group decision or failure fallback.
    pub base_mode: bool,
}

impl ProducerAssign {
    /// My route to the join node (I am `me`, one of the endpoints): the
    /// pair's path walked from my end.
    pub fn route_to_j(&self, me: NodeId) -> Option<Route> {
        let j = self.path.j?;
        if self.base_mode {
            return None;
        }
        let from = self.path.end_of(me == self.pair.s);
        Some(Route::along(self.path.nodes.clone(), from, j as usize))
    }
}

/// Join-node-side state for one pair.
#[derive(Debug, Clone)]
pub struct PairState {
    pub pair: Pair,
    pub path: PairPath,
    pub assumed: Sigma,
    pub win: WindowJoin,
    pub stats: PairStats,
}

impl PairState {
    /// A pair joined where `path` says, with empty windows and no
    /// statistics yet.
    pub(crate) fn new(pair: Pair, path: PairPath, assumed: Sigma) -> Self {
        PairState {
            pair,
            path,
            assumed,
            win: WindowJoin::default(),
            stats: PairStats::default(),
        }
    }
}

/// A grouped windowed join (§2.2, §4.2): the base station runs one for
/// every tuple shipped to it, a GHT home one per hashed key.
#[derive(Debug, Clone, Default)]
pub struct GroupJoin {
    /// Static tuples of the producers whose windows arrivals probe, per
    /// (node, side): GHT registrations, or the base's eligible senders.
    pub partners: BTreeMap<(NodeId, u8), Tuple>,
    /// The last `w` tuples each node sent, per side.
    pub windows: BTreeMap<NodeId, WindowJoin>,
}

/// Base-station bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct BaseState {
    /// Join results received (or produced locally at the base).
    pub results: u64,
    /// Sum of result delays in transmission cycles.
    pub delay_sum: u64,
    /// The grouped join over every producer shipping to the base.
    pub join: GroupJoin,
    /// Innet pairs joined at the base (for learning/migration).
    pub pairs: BTreeMap<Pair, PairState>,
}

/// Producer-side group-optimization state (§5.2).
#[derive(Debug, Clone)]
pub struct GroupLocal {
    pub id: u64,
    pub members: BTreeSet<NodeId>,
    /// Decision currently in force (true = in-network). Defaults to
    /// in-network (the pairwise placement).
    pub innet: bool,
    pub decision_seq: u32,
    /// My own ΔCp (re-sent when adopting a lower-id coordinator).
    pub my_delta: f64,
    /// Lowest-id coordinator adopted so far.
    pub coordinator: NodeId,
}

/// Coordinator-side accumulation (Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct CoordState {
    pub members: BTreeSet<NodeId>,
    pub deltas: BTreeMap<NodeId, f64>,
    /// Members already pinged (each is announced to at most once).
    pub pinged: BTreeSet<NodeId>,
    pub seq: u32,
    pub last_decision: Option<bool>,
}

/// §7 recovery accounting at one node: how the failure-handling layer
/// reacted to abandoned sends. Summed network-wide by the session into
/// [`crate::Outcome::recovery`], the dynamics sweeps' recovery metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Path repairs attempted after an abandoned in-flight data unicast.
    pub repair_attempts: u64,
    /// Repairs that found a local bypass (§7's limited exploration).
    pub repair_successes: u64,
    /// In-flight tuples dropped with no immediate re-route (the producer's
    /// buffered fallback is their only remaining chance).
    pub tuples_lost: u64,
    /// In-flight tuples salvaged by diverting onto the routing tree when
    /// the repaired path no longer runs through this node.
    pub tuples_rerouted: u64,
    /// Payload bytes of recovery control traffic this node originated
    /// (liveness probes and route-broken notifications).
    pub control_bytes: u64,
    /// Pairs this producer switched to base-mode on a fatal route break.
    pub base_fallbacks: u64,
    /// Stored paths spliced around a dead node after a successful repair,
    /// so later placement decisions use post-repair distances.
    pub paths_patched: u64,
    /// Mobile-leaf re-homings executed by the dynamics plan (App. G
    /// mobility; session-level, charged by the driver rather than a node).
    pub leaf_moves: u64,
    /// Transmission cycles until every tree's summaries were consistent
    /// again after those moves (App. G's ~19.4-cycle figure).
    pub move_delay_cycles: u64,
    /// Bytes of post-move summary-update traffic along the new parents'
    /// root-ward paths.
    pub move_update_bytes: u64,
}

impl RecoveryStats {
    /// Sum another node's counters into this one.
    pub fn absorb(&mut self, o: &RecoveryStats) {
        self.repair_attempts += o.repair_attempts;
        self.repair_successes += o.repair_successes;
        self.tuples_lost += o.tuples_lost;
        self.tuples_rerouted += o.tuples_rerouted;
        self.control_bytes += o.control_bytes;
        self.base_fallbacks += o.base_fallbacks;
        self.paths_patched += o.paths_patched;
        self.leaf_moves += o.leaf_moves;
        self.move_delay_cycles += o.move_delay_cycles;
        self.move_update_bytes += o.move_update_bytes;
    }
}

/// The protocol instance at one node.
pub struct JoinNode {
    pub id: NodeId,
    pub sh: Arc<Shared>,
    pub statics: Tuple,
    pub is_s: bool,
    pub is_t: bool,
    pub have_query: bool,
    /// Producer: pair assignments.
    pub assigns: BTreeMap<Pair, ProducerAssign>,
    /// Producer: last `w` tuples actually sent (failure fallback, §7).
    pub sent: VecDeque<Tuple>,
    /// Target-side candidate placements per source.
    pub candidates: BTreeMap<NodeId, Candidate>,
    /// Join-node: pairs computed here.
    pub pairs: BTreeMap<Pair, PairState>,
    /// GHT home-node groups by hashed key.
    pub ght_groups: BTreeMap<u64, GroupJoin>,
    /// GHT producer: precomputed route(s) to home node(s): (key, path, sides).
    pub ght_routes: Vec<(u64, Arc<[NodeId]>, u8)>,
    /// Yang+07 target-side local window of own samples, on its T side.
    pub yang_win: WindowJoin,
    /// Base-station state (only at the base).
    pub base: Option<BaseState>,
    /// Multicast: forwarding state per owner.
    pub mc_children: BTreeMap<NodeId, Vec<NodeId>>,
    /// Multicast: my own tree when I am an owner.
    pub mc_tree: Option<McastTree>,
    /// Snooped cross-links (owner side).
    pub cross_links: Vec<(NodeId, NodeId)>,
    /// Cross-links this node already reported (PathCollapseBuffer).
    pub reported_links: HashSet<(NodeId, NodeId)>,
    /// Multicast tree needs (re)building/pushing.
    pub mc_dirty: bool,
    /// Group-opt local state per role side (s-side, t-side).
    pub group_s: Option<GroupLocal>,
    pub group_t: Option<GroupLocal>,
    /// Coordinator accumulators by group id.
    pub coord: BTreeMap<u64, CoordState>,
    /// Locally discovered dead neighbors.
    pub known_dead: HashSet<NodeId>,
    /// §7 recovery reaction counters (see [`RecoveryStats`]).
    pub recovery: RecoveryStats,
    /// Migrated pairs this node adopted as their new join node (§6). The
    /// session layer diffs the network-wide total per cycle to emit
    /// `PairsMigrated` observer events.
    pub migrations_adopted: u64,
    /// Bytes this node put on the air carrying `WindowXfer` frames — the
    /// §6 migration control traffic (window hand-off included), separated
    /// out so the cost of wasted migrations is directly measurable.
    pub xfer_bytes: u64,
}

impl JoinNode {
    pub fn new(id: NodeId, sh: Arc<Shared>) -> Self {
        let statics = *sh.data.static_of(id);
        let is_base = id == sh.base();
        // The base station never acts as a producer.
        let is_s = !is_base && sh.spec.analysis.s_eligible(&statics);
        let is_t = !is_base && sh.spec.analysis.t_eligible(&statics);
        JoinNode {
            id,
            statics,
            is_s,
            is_t,
            have_query: false,
            assigns: BTreeMap::new(),
            sent: VecDeque::new(),
            candidates: BTreeMap::new(),
            pairs: BTreeMap::new(),
            ght_groups: BTreeMap::new(),
            ght_routes: Vec::new(),
            yang_win: WindowJoin::default(),
            base: is_base.then(BaseState::default),
            mc_children: BTreeMap::new(),
            mc_tree: None,
            cross_links: Vec::new(),
            reported_links: HashSet::new(),
            mc_dirty: false,
            group_s: None,
            group_t: None,
            coord: BTreeMap::new(),
            known_dead: HashSet::new(),
            recovery: RecoveryStats::default(),
            migrations_adopted: 0,
            xfer_bytes: 0,
            sh,
        }
    }

    // ----- common helpers -------------------------------------------------

    /// Payload size of `msg` under this query's tuple and result sizes.
    pub(crate) fn wire_bytes(&self, msg: &Msg) -> u32 {
        msg.wire_bytes(self.sh.data_bytes(), self.sh.result_bytes())
    }

    pub(crate) fn send(&self, ctx: &mut Ctx<'_, Msg>, to: NodeId, msg: Msg) {
        ctx.send(to, self.wire_bytes(&msg), msg);
    }

    pub(crate) fn broadcast(&self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        ctx.broadcast(self.wire_bytes(&msg), msg);
    }

    /// My primary-tree parent, healing around known-dead nodes: prefer the
    /// tree parent; otherwise any alive neighbor strictly closer to the
    /// base.
    pub(crate) fn alive_parent(&self) -> Option<NodeId> {
        let tree = self.sh.sub.primary();
        let p = tree.parent(self.id)?;
        if !self.known_dead.contains(&p) && !self.sh.is_dead(p) {
            return Some(p);
        }
        let my_depth = tree.depth(self.id);
        self.sh
            .topo
            .neighbors(self.id)
            .iter()
            .copied()
            .filter(|&n| !self.known_dead.contains(&n) && !self.sh.is_dead(n))
            .filter(|&n| tree.depth(n) < my_depth)
            .min_by_key(|&n| (tree.depth(n), n))
    }

    /// The pairs joined here on a path, or, `at_base`, the pairs this base
    /// station joins at the base.
    pub(crate) fn pair_table(&mut self, at_base: bool) -> &mut BTreeMap<Pair, PairState> {
        if at_base {
            &mut self.base.as_mut().expect("at-base pair off-base").pairs
        } else {
            &mut self.pairs
        }
    }

    /// The one relay for every message bound for a known end: move `msg`
    /// one hop along its route, the primary tree up to the base or a
    /// [`Route::Path`] to its last node, or hand it to its kind's handler
    /// where the route ends. A route that ends at its sender is handled in
    /// place. A tree-up message with no alive parent is dropped silently,
    /// and every hop a `WindowXfer` is sent on counts in `xfer_bytes`.
    pub(crate) fn relay(&mut self, ctx: &mut Ctx<'_, Msg>, mut msg: Msg) {
        let at_base = self.id == self.sh.base();
        let next = match msg.route_mut() {
            None | Some(Route::TreeUp) if at_base => return self.deliver(ctx, msg),
            None | Some(Route::TreeUp) => self.alive_parent(),
            Some(Route::Path { path, pos, end, .. }) => {
                debug_assert_eq!(
                    path.get(*pos as usize),
                    Some(&self.id),
                    "path routing desync"
                );
                if *pos == *end {
                    return self.deliver(ctx, msg);
                }
                if *pos < *end {
                    *pos += 1;
                } else {
                    *pos -= 1;
                }
                Some(path[*pos as usize])
            }
            Some(Route::Mcast { .. }) => unreachable!("multicast data fans out on its own"),
        };
        if let Msg::WindowXfer(_) = msg {
            self.xfer_bytes += self.wire_bytes(&msg) as u64;
        }
        if let Some(next) = next {
            self.send(ctx, next, msg);
        }
    }

    /// A routed message reached the end of its route: act on it.
    fn deliver(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        match msg {
            Msg::Announce { origin, sides } => self.on_announce(ctx, origin, sides),
            Msg::Ctl { ctl, .. } => self.on_ctl(ctx, ctl),
            Msg::Nominate(m) => {
                let m = *m;
                self.install_pair(ctx, m.pair, m.path, m.assumed);
            }
            Msg::Assign(m) => {
                let m = *m;
                self.adopt_assign(m.pair, m.path);
            }
            Msg::Data {
                from,
                sides,
                tuple,
                route: Route::TreeUp,
                fallback,
            } => self.base_consume_data(ctx, from, sides, tuple, fallback),
            Msg::Data {
                from, sides, tuple, ..
            } => self.consume_data_at_terminus(ctx, from, sides, *tuple),
            Msg::Result { count, gen_cycle } => {
                self.base_record_results(ctx.now, count as u64, gen_cycle)
            }
            Msg::WindowXfer(m) => self.adopt_transferred_pair(ctx, *m),
            other => unreachable!("{other:?} has no route"),
        }
    }

    /// Send `ctl` along `path`, which starts at me and ends at the node
    /// that acts on it (me, for a one-node path).
    pub(crate) fn send_ctl(&mut self, ctx: &mut Ctx<'_, Msg>, path: Vec<NodeId>, ctl: Ctl) {
        let route = Route::whole(path.into());
        self.relay(ctx, Msg::Ctl { route, ctl });
    }

    /// A control message reached the last node of its path.
    fn on_ctl(&mut self, ctx: &mut Ctx<'_, Msg>, ctl: Ctl) {
        match ctl {
            Ctl::Verdict { participate } => {
                if !participate {
                    // Pruned: stop producing for this query.
                    self.is_s = false;
                    self.is_t = false;
                }
            }
            Ctl::GhtRegister(m) => self.register_ght_member(m.key, m.origin, m.sides, m.statics),
            Ctl::DeltaCost(m) => self.coord_absorb(ctx, m.group, m.from, m.members, m.delta),
            Ctl::CoordPing { group, coordinator } => self.on_coord_ping(ctx, group, coordinator),
            Ctl::GroupDecision { group, seq, innet } => {
                self.apply_group_decision(group, seq, innet)
            }
            Ctl::CollapseHint { owner, n1, n2 } => {
                let link = (n1.min(n2), n1.max(n2));
                if owner == self.id && !self.cross_links.contains(&link) {
                    self.cross_links.push(link);
                    self.mc_dirty = true;
                }
            }
            // Always fatal: only `notify_route_broken`'s notice to a
            // producer that is itself may report a repaired break.
            Ctl::RouteBroken { failed } => self.producer_route_broken(ctx, failed, true),
        }
    }

    /// Is this node currently a producer on the given side?
    pub fn produces(&self, s_side: bool) -> bool {
        if s_side {
            self.is_s
        } else {
            self.is_t
        }
    }

    /// Diagnostic access for the harness.
    pub fn base_state(&self) -> Option<&BaseState> {
        self.base.as_ref()
    }

    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the sampling tick can do anything at this node right now —
    /// the disjunction of the guards that open `sample_and_send` (a
    /// producer with the query, or a Yang+07 target keeping its window),
    /// `learning_tick` (a pair to learn about, here or at the base) and
    /// `mcast_maintenance` (a multicast tree to rebuild). A host that
    /// re-reads it after every callback may skip the tick while it is
    /// `false`: nothing but a callback changes the answer.
    pub fn wants_tick(&self) -> bool {
        let cfg = &self.sh.cfg;
        (self.have_query && (self.is_s || self.is_t))
            || (cfg.algorithm == Algorithm::Yang07 && self.is_t)
            || (cfg.innet.learning
                && (!self.pairs.is_empty()
                    || self.base.as_ref().is_some_and(|b| !b.pairs.is_empty())))
            || (cfg.innet.multicast && self.mc_dirty)
    }
}

impl Protocol for JoinNode {
    type Msg = Msg;

    // Path collapsing consumes snoop events (Appendix E).
    const WANTS_SNOOP: bool = true;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::QueryFlood => self.on_flood(ctx),
            Msg::Search(m) => self.on_search(ctx, from, *m),
            Msg::McastSetup(m) => self.on_mcast_setup(ctx, *m),
            Msg::Probe => {} // liveness probes are consumed silently
            Msg::Data {
                route: Route::Mcast { owner },
                ..
            } => self.on_mcast_data(ctx, owner, msg),
            routed => self.relay(ctx, routed),
        }
    }

    fn on_snoop(&mut self, ctx: &mut Ctx<'_, Msg>, sender: NodeId, next_hop: NodeId, msg: &Msg) {
        self.snoop_for_collapse(ctx, sender, next_hop, msg);
    }

    fn on_send_failed(&mut self, ctx: &mut Ctx<'_, Msg>, to: NodeId, msg: Msg) {
        self.handle_send_failure(ctx, to, msg);
    }

    fn on_sampling_cycle(&mut self, ctx: &mut Ctx<'_, Msg>, cycle: u32) {
        self.sample_and_send(ctx, cycle);
        self.learning_tick(ctx, cycle);
        self.mcast_maintenance(ctx);
    }
}
