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
//! Control addressed to one node along a known path (Base verdicts, GHT
//! registration, GROUPOPT reports, pings and decisions, collapse hints,
//! route-broken notices) travels as [`Msg::Ctl`]: `JoinNode::send_ctl`
//! sends it, and `on_ctl` relays it hop by hop and acts on its [`Ctl`]
//! at the end of the path.

pub mod adapt;
pub mod exec;
pub mod init;
pub mod mpo;

use crate::cost::Sigma;
use crate::learn::PairStats;
use crate::msg::{Ctl, Msg, Pair};
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
    pub seq: u32,
    pub cost: f64,
    pub path: Vec<NodeId>,
    pub hops: Vec<u16>,
    pub j_idx: Option<usize>,
}

/// A producer's view of one assigned pair.
#[derive(Debug, Clone)]
pub struct ProducerAssign {
    pub pair: Pair,
    pub seq: u32,
    /// Full s..t path.
    pub path: Vec<NodeId>,
    pub hops: Vec<u16>,
    /// Join node index on `path`; `None` = at base.
    pub j_idx: Option<usize>,
    /// Overridden to base by a group decision or failure fallback.
    pub base_mode: bool,
}

impl ProducerAssign {
    /// My route to the join node (I am `me`, one of the endpoints), in the
    /// shared form a [`crate::msg::Route::Path`] carries.
    pub fn route_to_j(&self, me: NodeId) -> Option<Arc<[NodeId]>> {
        let j = self.j_idx?;
        if self.base_mode {
            return None;
        }
        Some(if me == self.pair.s {
            self.path[..=j].into()
        } else {
            self.path[j..].iter().rev().copied().collect()
        })
    }
}

/// Join-node-side state for one pair.
#[derive(Debug, Clone)]
pub struct PairState {
    pub pair: Pair,
    pub seq: u32,
    pub path: Vec<NodeId>,
    pub hops: Vec<u16>,
    pub j_idx: Option<usize>,
    pub assumed: Sigma,
    pub win: WindowJoin,
    pub stats: PairStats,
}

impl PairState {
    /// A pair joined at `path[j_idx]` (at the base if `None`), with empty
    /// windows and no statistics yet.
    pub(crate) fn new(
        pair: Pair,
        seq: u32,
        path: Vec<NodeId>,
        hops: Vec<u16>,
        j_idx: Option<usize>,
        assumed: Sigma,
    ) -> Self {
        PairState {
            pair,
            seq,
            path,
            hops,
            j_idx,
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
    /// Stored path/hops vectors recomputed after a successful repair, so
    /// later placement decisions use post-repair distances.
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
    /// Diagnostics: join results this node produced as a join node.
    pub produced_results: u64,
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
            produced_results: 0,
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

    /// Forward a message one hop toward the base along the (self-healing)
    /// primary tree. Returns false at the base (caller consumes).
    pub(crate) fn forward_tree_up(&self, ctx: &mut Ctx<'_, Msg>, msg: Msg) -> bool {
        if self.id == self.sh.base() {
            return false;
        }
        if let Some(p) = self.alive_parent() {
            self.send(ctx, p, msg);
        }
        true
    }

    /// Send `ctl` along `path`, which starts at me and ends at the node
    /// that acts on it. A one-node path sends nothing.
    pub(crate) fn send_ctl(&self, ctx: &mut Ctx<'_, Msg>, path: Vec<NodeId>, ctl: Ctl) {
        if let Some(&next) = path.get(1) {
            self.send(ctx, next, Msg::Ctl { path, pos: 1, ctl });
        }
    }

    /// A control message is here (`path[pos]` is me): relay it to the next
    /// node on its path, or act on it at the end.
    fn on_ctl(&mut self, ctx: &mut Ctx<'_, Msg>, path: Vec<NodeId>, pos: u32, ctl: Ctl) {
        debug_assert_eq!(
            path.get(pos as usize),
            Some(&self.id),
            "path routing desync"
        );
        if let Some(&next) = path.get(pos as usize + 1) {
            let pos = pos + 1;
            self.send(ctx, next, Msg::Ctl { path, pos, ctl });
            return;
        }
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
            // A notice that crossed the air always reports a fatal break.
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
            Msg::Announce { origin, sides } => self.on_announce(ctx, origin, sides),
            Msg::Ctl { path, pos, ctl } => self.on_ctl(ctx, path, pos, ctl),
            Msg::Search(m) => self.on_search(ctx, from, *m),
            Msg::Nominate(m) => self.on_nominate(ctx, m),
            Msg::Assign {
                pair,
                seq,
                path,
                j_idx,
                pos,
                toward_t,
            } => self.on_assign(ctx, pair, seq, path, j_idx, pos, toward_t),
            Msg::Data {
                from: origin,
                sides,
                tuple,
                route,
                fallback,
            } => self.on_data(ctx, origin, sides, tuple, route, fallback),
            Msg::Result {
                count,
                gen_cycle,
                route,
            } => self.on_result(ctx, count, gen_cycle, route),
            Msg::WindowXfer(m) => self.on_window_xfer(ctx, m),
            Msg::McastSetup(m) => self.on_mcast_setup(ctx, *m),
            Msg::Probe => {} // liveness probes are consumed silently
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
