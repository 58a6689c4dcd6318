//! Initiation: dissemination, pre-filtering, registration, exploration,
//! nomination and assignment (§3).

use super::{Candidate, JoinNode, PairState, ProducerAssign};
use crate::cost::{place_join_node, Placement, Sigma};
use crate::msg::{
    side, wire_pos, Assign, Ctl, GhtRegister, Msg, Nominate, Pair, PairPath, Route, Search,
};
use crate::shared::Algorithm;
use sensor_net::NodeId;
use sensor_query::Tuple;
use sensor_routing::search::next_hops;
use sensor_sim::Ctx;
use sensor_summaries::Constraint;
use std::sync::Arc;

impl JoinNode {
    // ----- dissemination ---------------------------------------------------

    /// Kick off the query flood (harness invokes at the base station).
    pub fn start_flood(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.have_query = true;
        self.broadcast(ctx, Msg::QueryFlood);
    }

    pub(super) fn on_flood(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.have_query {
            self.have_query = true;
            self.broadcast(ctx, Msg::QueryFlood);
        }
    }

    /// Harness backstop after the flood settles: dissemination is made
    /// reliable by periodic beacons in the real system.
    pub fn ensure_query(&mut self) {
        self.have_query = true;
    }

    // ----- Base algorithm: static-join pre-filtering -----------------------

    /// Announce my eligibility to the base (harness triggers on eligible
    /// producers for `Algorithm::Base`).
    pub fn start_announce(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !(self.is_s || self.is_t) {
            return;
        }
        let sides = (self.is_s as u8 * side::S) | (self.is_t as u8 * side::T);
        let msg = Msg::Announce {
            origin: self.id,
            sides,
        };
        self.relay(ctx, msg);
    }

    /// An announcement reached the base: decide participation from global
    /// static knowledge (the base ran the static pre-computation) and
    /// reply.
    pub(super) fn on_announce(&mut self, ctx: &mut Ctx<'_, Msg>, origin: NodeId, sides: u8) {
        let participate = self.has_static_partner(origin, sides);
        let path = self.sh.tree_path(self.id, origin);
        self.send_ctl(ctx, path, Ctl::Verdict { participate });
    }

    fn has_static_partner(&self, origin: NodeId, sides: u8) -> bool {
        let a = &self.sh.spec.analysis;
        let o_static = self.sh.data.static_of(origin);
        self.sh.topo.node_ids().any(|other| {
            if other == origin || other == self.sh.base() {
                return false;
            }
            let t_static = self.sh.data.static_of(other);
            let s_to_t = sides & side::S != 0
                && a.t_eligible(t_static)
                && a.static_join_matches(o_static, t_static);
            let t_to_s = sides & side::T != 0
                && a.s_eligible(t_static)
                && a.static_join_matches(t_static, o_static);
            s_to_t || t_to_s
        })
    }

    // ----- GHT registration -------------------------------------------------

    /// Register this producer at the home node(s) of its join key(s).
    pub fn start_ght_register(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let mut targets: Vec<(u64, u8)> = Vec::new();
        if self.is_s {
            targets.push((self.ght_key(true), side::S));
        }
        if self.is_t {
            targets.push((self.ght_key(false), side::T));
        }
        // Merge sides when both map to the same key (e.g. Query 3).
        targets.sort_unstable_by_key(|(k, _)| *k);
        let mut merged: Vec<(u64, u8)> = Vec::new();
        for (k, s) in targets {
            match merged.last_mut() {
                Some((lk, ls)) if *lk == k => *ls |= s,
                _ => merged.push((k, s)),
            }
        }
        for (key, sides) in merged {
            let home = sensor_routing::ght::ght_home(&self.sh.topo, key);
            let path = match self.sh.gpsr.as_ref() {
                Some(g) => g
                    .route(&self.sh.topo, self.id, home)
                    .unwrap_or_else(|| self.sh.tree_path(self.id, home)),
                None => self.sh.tree_path(self.id, home),
            };
            self.ght_routes.push((key, path.as_slice().into(), sides));
            let reg = GhtRegister {
                origin: self.id,
                sides,
                key,
                statics: self.statics,
            };
            self.send_ctl(ctx, path, Ctl::GhtRegister(Box::new(reg)));
        }
    }

    /// The GHT group key for my role. Equality joins hash the component
    /// key; region joins (Near) hash the node's own grid cell — an
    /// approximation that mirrors geographic hashing's locality blindness.
    pub(super) fn ght_key(&self, s_side: bool) -> u64 {
        let plan = &self.sh.spec.plan;
        if !plan.components.is_empty() {
            if s_side {
                plan.group_key_s(&self.statics)
            } else {
                plan.group_key_t(&self.statics)
            }
        } else if let Some(near) = plan.near {
            let cell = (2 * near.dist_dm).max(1) as u64;
            let x = self.statics.get(sensor_query::schema::ATTR_POS_X) as u64 / cell;
            let y = self.statics.get(sensor_query::schema::ATTR_POS_Y) as u64 / cell;
            x << 32 | y
        } else {
            0 // single global group: join at one hashed node
        }
    }

    pub(super) fn register_ght_member(
        &mut self,
        key: u64,
        node: NodeId,
        sides: u8,
        statics: Tuple,
    ) {
        let group = self.ght_groups.entry(key).or_default();
        for sd in [side::S, side::T] {
            if sides & sd != 0 {
                group.partners.entry((node, sd)).or_insert(statics);
            }
        }
    }

    // ----- Innet exploration -------------------------------------------------

    /// Launch multi-tree searches from an eligible S producer (§3).
    pub fn start_search(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.is_s {
            return;
        }
        let constraints: Arc<[(u8, Constraint)]> =
            self.sh.spec.plan.search_constraints(&self.statics).into();
        if constraints.is_empty() {
            // Unroutable query: §2 — only base-station joining is feasible;
            // nominate the base directly for every statically matching
            // partner (discovered lazily at the base).
            return;
        }
        for tree in 0..self.sh.sub.num_trees() {
            let search = Search {
                tree: tree as u8,
                descending: false,
                s: self.id,
                s_static: self.statics,
                constraints: constraints.clone(),
                path: vec![self.id],
            };
            self.forward_search(ctx, &search, None);
        }
    }

    /// Apply the §2.2 search forwarding rule to `m` at the current node.
    fn forward_search(&self, ctx: &mut Ctx<'_, Msg>, m: &Search, from_child: Option<NodeId>) {
        for (next, descending) in next_hops(
            &self.sh.sub,
            m.tree as usize,
            self.id,
            m.descending,
            from_child,
            &m.constraints,
        ) {
            let mut path = m.path.clone();
            path.push(next);
            let search = Search {
                descending,
                constraints: m.constraints.clone(),
                path,
                ..*m
            };
            self.send(ctx, next, Msg::Search(Box::new(search)));
        }
    }

    pub(super) fn on_search(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, m: Search) {
        // Target check: exact constraint match + secondary predicates +
        // own eligibility.
        if m.s != self.id
            && self.is_t
            && self.sh.sub.node_matches(self.id, &m.constraints)
            && self.sh.spec.plan.verify_pair(&m.s_static, &self.statics)
        {
            self.consider_candidate(ctx, m.s, &m.path);
        }
        let from_child = (!m.descending).then_some(from);
        self.forward_search(ctx, &m, from_child);
    }

    /// §3.2: the target runs the cost model over the discovered path and
    /// nominates the winner, re-nominating whenever a better path shows up.
    fn consider_candidate(&mut self, ctx: &mut Ctx<'_, Msg>, s: NodeId, path: &[NodeId]) {
        let sigma = self.sh.cfg.assumed;
        let w = self.sh.spec.window;
        let hops = path.iter().map(|&n| self.sh.sub.hops_to_base(n));
        let (j, cost) = match place_join_node(sigma, w, hops) {
            Placement::OnPath { index, cost } => (Some(wire_pos(index)), cost),
            Placement::AtBase { cost } => (None, cost),
        };
        let better = match self.candidates.get(&s) {
            Some(c) => cost < c.cost - 1e-9,
            None => true,
        };
        if !better {
            return;
        }
        let seq = self.candidates.get(&s).map(|c| c.path.seq + 1).unwrap_or(0);
        let path = PairPath {
            seq,
            nodes: path.into(),
            j,
        };
        self.candidates.insert(
            s,
            Candidate {
                cost,
                path: path.clone(),
            },
        );
        self.nominate(ctx, s, path);
    }

    /// Nominate `path`'s join node for the pair (s, me): back along the
    /// path to it, which may be me, or up the tree to the base.
    fn nominate(&mut self, ctx: &mut Ctx<'_, Msg>, s: NodeId, path: PairPath) {
        let route = match path.j {
            Some(j) => Route::along(path.nodes.clone(), path.end_of(false), j as usize),
            None => Route::TreeUp,
        };
        let msg = Msg::Nominate(Box::new(Nominate {
            pair: Pair::new(s, self.id),
            path,
            assumed: self.sh.cfg.assumed,
            route,
        }));
        self.relay(ctx, msg);
    }

    /// Register a pair at this node (the join node or the base) and notify
    /// the producers.
    pub(super) fn install_pair(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pair: Pair,
        path: PairPath,
        assumed: Sigma,
    ) {
        let table = self.pair_table(path.j.is_none());
        if table.get(&pair).is_some_and(|old| path.seq < old.path.seq) {
            return;
        }
        table.insert(pair, PairState::new(pair, path.clone(), assumed));
        // Notify s (the t side already knows: it nominated). Migration
        // (adapt.rs) additionally notifies t explicitly.
        self.send_assign(ctx, pair, &path, pair.s);
    }

    /// Notify `dest`, one of the pair's producers, of its placement. An
    /// on-path assign walks the s..t path from the join node, which is me,
    /// to `dest`; an at-base assign walks the primary tree down from the
    /// base and carries that tree path in place of the s..t path.
    pub(super) fn send_assign(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pair: Pair,
        path: &PairPath,
        dest: NodeId,
    ) {
        let (path, route) = match path.j {
            Some(j) => {
                let end = path.end_of(dest == pair.s);
                let route = Route::along(path.nodes.clone(), j as usize, end);
                (path.clone(), route)
            }
            None => {
                let tree: Arc<[NodeId]> = self.sh.tree_path(self.id, dest).into();
                let at_base = PairPath {
                    seq: path.seq,
                    nodes: tree.clone(),
                    j: None,
                };
                (at_base, Route::whole(tree))
            }
        };
        self.relay(ctx, Msg::Assign(Box::new(Assign { pair, path, route })));
    }

    /// Adopt `path` as my placement of `pair` unless I hold a newer one.
    /// A base-mode override survives only a re-assignment to the base.
    pub fn adopt_assign(&mut self, pair: Pair, path: PairPath) {
        let held = self.assigns.get(&pair).map(|a| (a.path.seq, a.base_mode));
        if held.is_none_or(|(seq, _)| seq <= path.seq) {
            let base_mode = held.is_some_and(|(_, b)| b) && path.j.is_none();
            self.assigns.insert(
                pair,
                ProducerAssign {
                    pair,
                    path,
                    base_mode,
                },
            );
        }
        self.mc_dirty = true;
    }

    /// Does this node (as the Innet algorithm's t side) owe itself an
    /// assignment entry? t learns the placement when it nominates.
    pub fn finish_t_side_assigns(&mut self) {
        if self.sh.cfg.algorithm != Algorithm::Innet {
            return;
        }
        let cands: Vec<(NodeId, PairPath)> = self
            .candidates
            .iter()
            .map(|(s, c)| (*s, c.path.clone()))
            .collect();
        for (s, path) in cands {
            self.adopt_assign(Pair::new(s, self.id), path);
        }
    }
}
