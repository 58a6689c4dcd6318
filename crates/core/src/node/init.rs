//! Initiation: dissemination, pre-filtering, registration, exploration,
//! nomination and assignment (§3).

use super::{Candidate, JoinNode, PairState, ProducerAssign};
use crate::cost::{place_join_node, Placement, Sigma};
use crate::msg::{side, wire_pos, Ctl, GhtRegister, Msg, Nominate, Pair, Search};
use crate::shared::Algorithm;
use sensor_net::NodeId;
use sensor_query::Tuple;
use sensor_routing::search::{next_hops, SearchQuery};
use sensor_sim::Ctx;
use sensor_summaries::Constraint;

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
        if !self.forward_tree_up(ctx, msg) {
            unreachable!("base never announces");
        }
    }

    pub(super) fn on_announce(&mut self, ctx: &mut Ctx<'_, Msg>, origin: NodeId, sides: u8) {
        let msg = Msg::Announce { origin, sides };
        if self.forward_tree_up(ctx, msg) {
            return;
        }
        // At the base: decide participation from global static knowledge
        // (the base ran the static pre-computation) and reply.
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
            if path.len() > 1 {
                let reg = GhtRegister {
                    origin: self.id,
                    sides,
                    key,
                    statics: self.statics,
                };
                self.send_ctl(ctx, path, Ctl::GhtRegister(Box::new(reg)));
            } else {
                // I am the home node myself.
                self.register_ght_member(key, self.id, sides, self.statics);
            }
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
        let constraints = self.sh.spec.plan.search_constraints(&self.statics);
        if constraints.is_empty() {
            // Unroutable query: §2 — only base-station joining is feasible;
            // nominate the base directly for every statically matching
            // partner (discovered lazily at the base).
            return;
        }
        for tree in 0..self.sh.sub.num_trees() {
            self.forward_search(
                ctx,
                tree as u8,
                false,
                None,
                self.id,
                self.statics,
                &constraints,
                vec![self.id],
                vec![self.sh.sub.hops_to_base(self.id)],
            );
        }
    }

    /// Apply the §2.2 search forwarding rule from the current node.
    #[allow(clippy::too_many_arguments)]
    fn forward_search(
        &self,
        ctx: &mut Ctx<'_, Msg>,
        tree: u8,
        descending: bool,
        from_child: Option<NodeId>,
        s: NodeId,
        s_static: Tuple,
        constraints: &[(u8, Constraint)],
        path: Vec<NodeId>,
        hops: Vec<u16>,
    ) {
        let q = SearchQuery::new(constraints.to_vec());
        for (next, next_descending) in next_hops(
            &self.sh.sub,
            tree as usize,
            self.id,
            descending,
            from_child,
            &q,
        ) {
            let mut p = path.clone();
            p.push(next);
            let mut h = hops.clone();
            h.push(self.sh.sub.hops_to_base(next));
            self.send(
                ctx,
                next,
                Msg::Search(Box::new(Search {
                    tree,
                    descending: next_descending,
                    s,
                    s_static,
                    constraints: constraints.to_vec(),
                    path: p,
                    hops: h,
                })),
            );
        }
    }

    pub(super) fn on_search(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, m: Search) {
        let Search {
            tree,
            descending,
            s,
            s_static,
            constraints,
            path,
            hops,
        } = m;
        // Target check: exact constraint match + secondary predicates +
        // own eligibility.
        if s != self.id
            && self.is_t
            && self.sh.sub.node_matches(self.id, &constraints)
            && self.sh.spec.plan.verify_pair(&s_static, &self.statics)
        {
            self.consider_candidate(ctx, s, &path, &hops);
        }
        let from_child = (!descending).then_some(from);
        self.forward_search(
            ctx,
            tree,
            descending,
            from_child,
            s,
            s_static,
            &constraints,
            path,
            hops,
        );
    }

    /// §3.2: the target runs the cost model over the discovered path and
    /// nominates the winner, re-nominating whenever a better path shows up.
    fn consider_candidate(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        s: NodeId,
        path: &[NodeId],
        hops: &[u16],
    ) {
        let sigma = self.sh.cfg.assumed;
        let w = self.sh.spec.window;
        let placement = place_join_node(sigma, w, hops);
        let (j_idx, cost) = match placement {
            Placement::OnPath { index, cost } => (Some(index), cost),
            Placement::AtBase { cost } => (None, cost),
        };
        let better = match self.candidates.get(&s) {
            Some(c) => cost < c.cost - 1e-9,
            None => true,
        };
        if !better {
            return;
        }
        let seq = self.candidates.get(&s).map(|c| c.seq + 1).unwrap_or(0);
        self.candidates.insert(
            s,
            Candidate {
                seq,
                cost,
                path: path.to_vec(),
                hops: hops.to_vec(),
                j_idx,
            },
        );
        self.nominate(ctx, s, seq);
    }

    pub(super) fn nominate(&mut self, ctx: &mut Ctx<'_, Msg>, s: NodeId, seq: u32) {
        let Some(c) = self.candidates.get(&s).cloned() else {
            return;
        };
        let pair = Pair::new(s, self.id);
        let msg = Msg::Nominate(Box::new(Nominate {
            pair,
            seq,
            path: c.path.clone(),
            hops: c.hops.clone(),
            j_idx: c.j_idx,
            assumed: self.sh.cfg.assumed,
            // pos stamps the *receiver's* index on the path.
            pos: c.path.len().saturating_sub(2),
        }));
        match c.j_idx {
            Some(j) if j == c.path.len() - 1 => {
                // I am the join node myself: register and assign.
                self.install_pair(ctx, pair, seq, c.path, c.hops, Some(j), self.sh.cfg.assumed);
            }
            Some(_) => {
                // Route toward s along the path; the join node intercepts.
                let prev = c.path[c.path.len() - 2];
                self.send(ctx, prev, msg);
            }
            None => {
                // At-base nomination travels up the primary tree.
                if !self.forward_tree_up(ctx, msg) {
                    // I AM the base (degenerate); install directly.
                    self.install_pair(ctx, pair, seq, c.path, c.hops, None, self.sh.cfg.assumed);
                }
            }
        }
    }

    pub(super) fn on_nominate(&mut self, ctx: &mut Ctx<'_, Msg>, mut m: Box<Nominate>) {
        match m.j_idx {
            None => {
                // Heading to the base.
                if self.id != self.sh.base() {
                    self.forward_tree_up(ctx, Msg::Nominate(m));
                    return;
                }
                let m = *m;
                self.install_pair(ctx, m.pair, m.seq, m.path, m.hops, None, m.assumed);
            }
            Some(j) => {
                debug_assert_eq!(m.path.get(m.pos), Some(&self.id));
                if m.pos == j {
                    let m = *m;
                    self.install_pair(ctx, m.pair, m.seq, m.path, m.hops, Some(j), m.assumed);
                } else {
                    m.pos -= 1;
                    let next = m.path[m.pos];
                    self.send(ctx, next, Msg::Nominate(m));
                }
            }
        }
    }

    /// Register a pair at this node (the join node or the base) and notify
    /// the producers.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn install_pair(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pair: Pair,
        seq: u32,
        path: Vec<NodeId>,
        hops: Vec<u16>,
        j_idx: Option<usize>,
        assumed: Sigma,
    ) {
        let state = PairState::new(pair, seq, path.clone(), hops.clone(), j_idx, assumed);
        let stale = |old_seq: u32| seq < old_seq;
        match j_idx {
            Some(_) => {
                if let Some(old) = self.pairs.get(&pair) {
                    if stale(old.seq) {
                        return;
                    }
                }
                self.pairs.insert(pair, state);
            }
            None => {
                let b = self.base.as_mut().expect("at-base install off-base");
                if let Some(old) = b.pairs.get(&pair) {
                    if stale(old.seq) {
                        return;
                    }
                }
                b.pairs.insert(pair, state);
            }
        }
        // Notify s (the t side already knows: it nominated). Migration
        // (adapt.rs) additionally notifies t explicitly.
        self.send_assign(ctx, pair, seq, path, j_idx, false);
    }

    /// Notify a producer of the pair's placement. On-path assigns walk the
    /// s..t path from the join node toward the endpoint; at-base assigns
    /// walk a base→producer tree path.
    pub(super) fn send_assign(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pair: Pair,
        seq: u32,
        path: Vec<NodeId>,
        j_idx: Option<usize>,
        toward_t: bool,
    ) {
        let dest = if toward_t { pair.t } else { pair.s };
        if dest == self.id {
            self.adopt_assign(pair, seq, path, j_idx);
            return;
        }
        match j_idx {
            Some(j) => {
                debug_assert_eq!(path.get(j), Some(&self.id), "assign must start at j");
                let next_pos = if toward_t { j + 1 } else { j - 1 };
                let next = path[next_pos];
                self.send(
                    ctx,
                    next,
                    Msg::Assign {
                        pair,
                        seq,
                        path,
                        j_idx: Some(wire_pos(j)),
                        pos: wire_pos(next_pos),
                        toward_t,
                    },
                );
            }
            None => {
                // From the base: route along the primary tree; the s..t
                // path is irrelevant for base-mode producers.
                let tree_path = self.sh.tree_path(self.id, dest);
                if tree_path.len() > 1 {
                    let next = tree_path[1];
                    self.send(
                        ctx,
                        next,
                        Msg::Assign {
                            pair,
                            seq,
                            path: tree_path,
                            j_idx: None,
                            pos: 1,
                            toward_t,
                        },
                    );
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_assign(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pair: Pair,
        seq: u32,
        path: Vec<NodeId>,
        j_idx: Option<u32>,
        pos: u32,
        toward_t: bool,
    ) {
        debug_assert_eq!(
            path.get(pos as usize),
            Some(&self.id),
            "assign routing desync"
        );
        let dest = if toward_t { pair.t } else { pair.s };
        if dest == self.id {
            self.adopt_assign(pair, seq, path, j_idx.map(|j| j as usize));
            return;
        }
        let next_pos = match j_idx {
            Some(_) if !toward_t => {
                if pos == 0 {
                    return;
                }
                pos - 1
            }
            _ => {
                if pos as usize + 1 >= path.len() {
                    return;
                }
                pos + 1
            }
        };
        let next = path[next_pos as usize];
        self.send(
            ctx,
            next,
            Msg::Assign {
                pair,
                seq,
                path,
                j_idx,
                pos: next_pos,
                toward_t,
            },
        );
    }

    pub fn adopt_assign(&mut self, pair: Pair, seq: u32, path: Vec<NodeId>, j_idx: Option<usize>) {
        // `path` for at-base assigns is a tree path, not the s..t path;
        // producers then route TreeUp so the path is irrelevant.
        let hops: Vec<u16> = path.iter().map(|&n| self.sh.sub.hops_to_base(n)).collect();
        let entry = self.assigns.entry(pair);
        use std::collections::btree_map::Entry;
        match entry {
            Entry::Occupied(mut o) => {
                if o.get().seq <= seq {
                    let base_mode = o.get().base_mode;
                    o.insert(ProducerAssign {
                        pair,
                        seq,
                        path,
                        hops,
                        j_idx,
                        base_mode: base_mode && j_idx.is_none(),
                    });
                }
            }
            Entry::Vacant(v) => {
                v.insert(ProducerAssign {
                    pair,
                    seq,
                    path,
                    hops,
                    j_idx,
                    base_mode: false,
                });
            }
        }
        self.mc_dirty = true;
    }

    /// Does this node (as the Innet algorithm's t side) owe itself an
    /// assignment entry? t learns the placement when it nominates.
    pub fn finish_t_side_assigns(&mut self) {
        if self.sh.cfg.algorithm != Algorithm::Innet {
            return;
        }
        let cands: Vec<(NodeId, Candidate)> = self
            .candidates
            .iter()
            .map(|(s, c)| (*s, c.clone()))
            .collect();
        for (s, c) in cands {
            let pair = Pair::new(s, self.id);
            self.adopt_assign(pair, c.seq, c.path, c.j_idx);
        }
    }
}
