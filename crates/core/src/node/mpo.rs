//! Multi-pair optimization (§5): GROUPOPT (Algorithm 1), multicast-tree
//! setup (Appendix E) and path collapsing (Algorithms 2-3).

use super::{CoordState, GroupLocal, JoinNode};
use crate::cost::delta_cp;
use crate::msg::{Ctl, DeltaCost, McastSetup, Msg, Route};
use crate::multicast::McastTree;
use sensor_net::NodeId;
use sensor_sim::Ctx;
use std::collections::BTreeSet;

impl JoinNode {
    // ----- group optimization (Algorithm 1) --------------------------------

    /// Compute my ΔCp for a role side and send it to the believed group
    /// coordinator. Harness triggers after pairwise assignment settles;
    /// learning re-triggers on estimate changes.
    pub fn start_group_opt(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.sh.cfg.innet.group_opt || self.sh.spec.plan.components.is_empty() {
            return;
        }
        for s_side in [true, false] {
            if !self.produces(s_side) {
                continue;
            }
            let my_pairs: Vec<_> = self
                .assigns
                .values()
                .filter(|a| (a.pair.s == self.id) == s_side)
                .cloned()
                .collect();
            if my_pairs.is_empty() {
                continue;
            }
            let group_id = if s_side {
                self.sh.spec.plan.group_key_s(&self.statics)
            } else {
                self.sh.spec.plan.group_key_t(&self.statics)
            };
            // Members I know: myself plus my partners.
            let mut members: BTreeSet<NodeId> = BTreeSet::new();
            members.insert(self.id);
            for a in &my_pairs {
                members.insert(a.pair.partner_of(self.id));
            }
            // ΔCp inputs: per distinct join node, (D_pj, N_pj, D_jr).
            let mut per_j: Vec<(NodeId, f64, u32, f64)> = Vec::new();
            for a in &my_pairs {
                let Some(j) = a.path.j.map(usize::from) else {
                    // Pair already at base: contributes 0 to both terms.
                    continue;
                };
                let jn = a.path.nodes[j];
                let d_pj = j.abs_diff(a.path.end_of(a.pair.s == self.id)) as f64;
                let d_jr = self.sh.sub.hops_to_base(jn) as f64;
                match per_j.iter_mut().find(|(n, _, _, _)| *n == jn) {
                    Some(e) => e.2 += 1,
                    None => per_j.push((jn, d_pj, 1, d_jr)),
                }
            }
            let inputs: Vec<(f64, u32, f64)> =
                per_j.iter().map(|&(_, d, n, r)| (d, n, r)).collect();
            let sigma_p = if s_side {
                self.sh.cfg.assumed.s
            } else {
                self.sh.cfg.assumed.t
            };
            let d_pr = self.sh.sub.hops_to_base(self.id) as f64;
            let delta = delta_cp(
                sigma_p,
                self.sh.spec.window,
                self.sh.cfg.assumed.st,
                &inputs,
                d_pr,
            );
            let coordinator = *members.iter().next().expect("nonempty");
            let local = GroupLocal {
                id: group_id,
                members: members.clone(),
                innet: true,
                decision_seq: 0,
                my_delta: delta,
                coordinator,
            };
            *self.group_mut(s_side) = Some(local);
            self.send_delta(ctx, group_id, members, delta, coordinator);
        }
    }

    /// My group-optimization state for one role side.
    fn group_mut(&mut self, s_side: bool) -> &mut Option<GroupLocal> {
        if s_side {
            &mut self.group_s
        } else {
            &mut self.group_t
        }
    }

    /// Report my ΔCp to `coordinator` (absorbed in place if that is me).
    fn send_delta(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        group: u64,
        members: BTreeSet<NodeId>,
        delta: f64,
        coordinator: NodeId,
    ) {
        let path = self.sh.tree_path(self.id, coordinator);
        let report = DeltaCost {
            group,
            from: self.id,
            members: members.into_iter().collect(),
            delta,
        };
        self.send_ctl(ctx, path, Ctl::DeltaCost(Box::new(report)));
    }

    /// Coordinator bookkeeping: merge membership, re-forward to a
    /// lower-id member if one exists (Algorithm 1 lines 7-8), decide when
    /// every known member reported.
    pub(super) fn coord_absorb(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        group: u64,
        origin: NodeId,
        members: Vec<NodeId>,
        delta: f64,
    ) {
        let state = self.coord.entry(group).or_default();
        state.members.insert(origin);
        state.members.extend(members.iter().copied());
        state.deltas.insert(origin, delta);
        let lowest = *state.members.iter().next().unwrap();
        if lowest < self.id {
            // Someone lower-id should coordinate (Algorithm 1 line 8).
            self.hand_over(ctx, group, lowest);
            return;
        }
        let missing: Vec<NodeId> = state
            .members
            .iter()
            .copied()
            .filter(|m| *m != self.id && !state.deltas.contains_key(m))
            .filter(|m| !state.pinged.contains(m))
            .collect();
        state.pinged.extend(missing.iter().copied());
        let still_waiting = state
            .members
            .iter()
            .any(|m| *m != self.id && !state.deltas.contains_key(m));
        if still_waiting {
            // Announce coordinatorship to members whose ΔCp has gone to a
            // different believed coordinator; they adopt the lower id and
            // re-send (Algorithm 1 lines 7-8).
            for m in missing {
                let path = self.sh.tree_path(self.id, m);
                let ping = Ctl::CoordPing {
                    group,
                    coordinator: self.id,
                };
                self.send_ctl(ctx, path, ping);
            }
            return;
        }
        {
            let sum: f64 = state.deltas.values().sum();
            let innet = sum < 0.0;
            if state.last_decision == Some(innet) {
                return; // nothing new to announce
            }
            state.seq += 1;
            state.last_decision = Some(innet);
            let seq = state.seq;
            let members: Vec<NodeId> = state.members.iter().copied().collect();
            for m in members {
                self.send_decision(ctx, group, seq, innet, m);
            }
            // The base must know too: at-base groups are joined there.
            self.send_decision(ctx, group, seq, innet, self.sh.base());
        }
    }

    /// Hand everything I collected as `group`'s coordinator over to the
    /// lower-id coordinator `to`, each report under its original sender.
    fn hand_over(&mut self, ctx: &mut Ctx<'_, Msg>, group: u64, to: NodeId) {
        let Some(state) = self.coord.remove(&group) else {
            return;
        };
        let route = self.sh.tree_path(self.id, to);
        let members: Vec<NodeId> = state.members.into_iter().collect();
        for (from, delta) in state.deltas {
            let report = DeltaCost {
                group,
                from,
                members: members.clone(),
                delta,
            };
            self.send_ctl(ctx, route.clone(), Ctl::DeltaCost(Box::new(report)));
        }
    }

    /// Tell `to` the group's decision (applied in place if that is me).
    fn send_decision(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        group: u64,
        seq: u32,
        innet: bool,
        to: NodeId,
    ) {
        let path = self.sh.tree_path(self.id, to);
        self.send_ctl(ctx, path, Ctl::GroupDecision { group, seq, innet });
    }

    pub(super) fn apply_group_decision(&mut self, group: u64, seq: u32, innet: bool) {
        for side_s in [true, false] {
            let Some(local) = self.group_mut(side_s) else {
                continue;
            };
            if local.id != group || seq < local.decision_seq {
                continue;
            }
            local.decision_seq = seq;
            local.innet = innet;
            for a in self.assigns.values_mut() {
                if (a.pair.s == self.id) == side_s {
                    a.base_mode = !innet;
                }
            }
            self.mc_dirty = true;
        }
    }

    pub(super) fn on_coord_ping(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        group: u64,
        coordinator: NodeId,
    ) {
        // Adopt strictly lower-id coordinators only.
        for side_s in [true, false] {
            let Some(local) = self.group_mut(side_s) else {
                continue;
            };
            if local.id != group || coordinator >= local.coordinator {
                continue;
            }
            local.coordinator = coordinator;
            let members = local.members.clone();
            let delta = local.my_delta;
            self.send_delta(ctx, group, members, delta, coordinator);
        }
        // If I was coordinating this group myself, hand everything over.
        if coordinator < self.id {
            self.hand_over(ctx, group, coordinator);
        }
    }

    // ----- multicast trees (Appendix E) --------------------------------------

    /// Rebuild and push my multicast tree if assignments changed. Runs in
    /// the sampling tick so migrations/decisions batch naturally.
    pub(super) fn mcast_maintenance(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.sh.cfg.innet.multicast || !self.mc_dirty {
            return;
        }
        self.mc_dirty = false;
        let paths: Vec<Vec<NodeId>> = {
            let mut seen_j: Vec<NodeId> = Vec::new();
            let mut out = Vec::new();
            for a in self.assigns.values() {
                if let Some(route) = a.route_to_j(self.id) {
                    let route = route.nodes();
                    let j = *route.last().unwrap();
                    if j != self.id && !seen_j.contains(&j) {
                        seen_j.push(j);
                        out.push(route);
                    }
                }
            }
            out
        };
        if paths.len() < 2 {
            self.mc_tree = None;
            return;
        }
        let plain = McastTree::from_paths(self.id, &paths);
        let tree = if self.sh.cfg.innet.path_collapse && !self.cross_links.is_empty() {
            let improved = McastTree::rebuild_with_links(self.id, &paths, &self.cross_links);
            // Accept only clear wins (the 10% threshold of Algorithm 3:
            // pushing a new tree costs setup traffic).
            if (improved.edge_count() as f64) * 1.1 <= plain.edge_count() as f64 {
                improved
            } else {
                plain
            }
        } else {
            plain
        };
        // Push state to interior nodes: one setup message walks each tree
        // edge carrying the (node, children) entries.
        let entries = tree.entries();
        for &child in tree.children(self.id) {
            let msg = Msg::McastSetup(Box::new(McastSetup {
                owner: self.id,
                edges: entries.clone(),
            }));
            self.send(ctx, child, msg);
        }
        self.mc_tree = Some(tree);
    }

    pub(super) fn on_mcast_setup(&mut self, ctx: &mut Ctx<'_, Msg>, m: McastSetup) {
        let McastSetup { owner, edges } = m;
        let mine = edges
            .iter()
            .find(|(n, _)| *n == self.id)
            .map(|(_, cs)| cs.clone())
            .unwrap_or_default();
        for &c in &mine {
            let msg = Msg::McastSetup(Box::new(McastSetup {
                owner,
                edges: edges.clone(),
            }));
            self.send(ctx, c, msg);
        }
        self.mc_children.insert(owner, mine);
    }

    // ----- path collapsing (Algorithms 2-3) -----------------------------------

    /// Snoop handler: if I relay data for owner `p` and overhear a
    /// neighbor relaying data for the same owner on a different branch,
    /// report the (me, neighbor) cross-link to `p` (PathCollapseDetect,
    /// simplified to the same-producer case the evaluation exercises).
    pub(super) fn snoop_for_collapse(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        sender: NodeId,
        next_hop: NodeId,
        msg: &Msg,
    ) {
        if !self.sh.cfg.innet.path_collapse {
            return;
        }
        let Msg::Data {
            from: owner,
            route: Route::Mcast { .. } | Route::Path { .. },
            ..
        } = msg
        else {
            return;
        };
        let owner = *owner;
        if owner == self.id || next_hop == self.id {
            return;
        }
        // Am I on a different branch for this owner? (I hold forwarding
        // state for it but am not the observed sender's next hop.)
        let on_branch = self.mc_children.contains_key(&owner);
        if !on_branch || sender == self.id {
            return;
        }
        // Tie-break so only one endpoint of the link reports (Algorithm
        // 2's id comparisons).
        if self.id > sender {
            return;
        }
        let link = (self.id, sender);
        if self.reported_links.contains(&link) {
            return;
        }
        self.reported_links.insert(link);
        let path = self.sh.tree_path(self.id, owner);
        let hint = Ctl::CollapseHint {
            owner,
            n1: self.id,
            n2: sender,
        };
        self.send_ctl(ctx, path, hint);
    }
}

impl CoordState {
    /// Visible-for-tests accessor.
    pub fn is_complete(&self) -> bool {
        self.members.iter().all(|m| self.deltas.contains_key(m))
    }
}
