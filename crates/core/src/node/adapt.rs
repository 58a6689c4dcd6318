//! Adaptation: selectivity learning with join-node migration (§6) and
//! best-effort failure recovery (§7).

use super::{JoinNode, PairState, WindowJoin};
use crate::cost::{place_join_node, Placement};
use crate::learn::{DIVERGENCE_THRESHOLD, LEARN_INTERVAL};
use crate::msg::{side, wire_pos, Ctl, Msg, Pair, Route, WindowXfer};
use sensor_net::NodeId;
use sensor_query::Tuple;
use sensor_routing::repair::repair_path;
use sensor_sim::Ctx;
use std::sync::Arc;

impl JoinNode {
    // ----- learning (§6) ----------------------------------------------------

    /// Per-sampling-cycle learning bookkeeping at join nodes (and at the
    /// base for its registered pairs).
    pub(super) fn learning_tick(&mut self, ctx: &mut Ctx<'_, Msg>, cycle: u32) {
        if !self.sh.cfg.innet.learning {
            return;
        }
        for st in self.pairs.values_mut() {
            st.stats.tick();
        }
        if let Some(b) = self.base.as_mut() {
            for st in b.pairs.values_mut() {
                st.stats.tick();
            }
        }
        if cycle == 0 || !cycle.is_multiple_of(LEARN_INTERVAL) {
            return;
        }
        // Evaluate join-node pairs.
        let here: Vec<Pair> = self.pairs.keys().copied().collect();
        for pair in here {
            self.evaluate_pair(ctx, pair, false);
        }
        let at_base: Vec<Pair> = self
            .base
            .as_ref()
            .map(|b| b.pairs.keys().copied().collect())
            .unwrap_or_default();
        for pair in at_base {
            self.evaluate_pair(ctx, pair, true);
        }
    }

    /// Re-estimate a pair's selectivities; migrate the join node when the
    /// estimates diverge >33% from the values the placement assumed.
    fn evaluate_pair(&mut self, ctx: &mut Ctx<'_, Msg>, pair: Pair, at_base: bool) {
        let w = self.sh.spec.window;
        let st = if at_base {
            self.base.as_mut().and_then(|b| b.pairs.get_mut(&pair))
        } else {
            self.pairs.get_mut(&pair)
        };
        let Some(st) = st else { return };
        if st.path.is_empty() {
            // Fallback-pinned pair: nothing to re-place.
            st.stats.reset();
            return;
        }
        let Some(est) = st.stats.estimate(w) else {
            // No evidence yet: leave the local time span running.
            // (`learning_tick` already ticked every pair this cycle; an
            // extra tick here double-counted evaluation cycles and deflated
            // every σ estimate — ISSUE 3 regression.)
            return;
        };
        if !st.assumed.diverged(&est, DIVERGENCE_THRESHOLD) {
            // Close enough: keep running, restart the local time span.
            st.stats.reset();
            return;
        }
        let placement = place_join_node(est, w, &st.hops);
        let new_j_idx = match placement {
            Placement::OnPath { index, .. } => Some(index),
            Placement::AtBase { .. } => None,
        };
        if new_j_idx == st.j_idx {
            // Same node still optimal: adopt the estimates and move on.
            st.assumed = est;
            st.stats.reset();
            return;
        }
        // Migrate: hand the windows to the new join node so computation
        // resumes "seamlessly without loss of results".
        let xfer = Box::new(WindowXfer {
            pair,
            seq: st.seq + 1,
            path: st.path.clone(),
            hops: st.hops.clone(),
            new_j_idx,
            assumed: est,
            win: std::mem::take(&mut st.win),
            route: Route::TreeUp,
        });
        if at_base {
            self.base.as_mut().unwrap().pairs.remove(&pair);
        } else {
            self.pairs.remove(&pair);
        }
        self.dispatch_window_xfer(ctx, xfer);
    }

    /// Route a WindowXfer from the current join point to the new one.
    pub(super) fn dispatch_window_xfer(&mut self, ctx: &mut Ctx<'_, Msg>, mut m: Box<WindowXfer>) {
        m.route = match m.new_j_idx {
            // Moving to the base, where I am already. The path, hops and
            // windows are dropped, not fed to the base's `GroupJoin`: the
            // lost at-base matches of ROADMAP item 1's cause (iv). A
            // transfer that arrives at the base keeps them.
            None if self.id == self.sh.base() => {
                let cleared = WindowXfer {
                    path: Vec::new(),
                    hops: Vec::new(),
                    win: WindowJoin::default(),
                    ..*m
                };
                return self.adopt_transferred_pair(ctx, cleared);
            }
            None => Route::TreeUp,
            // Along the pair's path if I am on it; otherwise (migrating
            // away from the base) down the primary tree.
            Some(j) => Route::Path {
                path: match m.path.iter().position(|&n| n == self.id) {
                    Some(my_idx) if my_idx < j => m.path[my_idx..=j].into(),
                    Some(my_idx) => m.path[j..=my_idx].iter().rev().copied().collect(),
                    None => self.sh.tree_path(self.id, m.path[j]).into(),
                },
                pos: 0,
            },
        };
        self.relay(ctx, Msg::WindowXfer(m));
    }

    /// The new join node adopts a migrated pair and re-points both
    /// producers at itself.
    pub(super) fn adopt_transferred_pair(&mut self, ctx: &mut Ctx<'_, Msg>, m: WindowXfer) {
        let (pair, seq, j_idx) = (m.pair, m.seq, m.new_j_idx);
        let state = PairState {
            win: m.win,
            ..PairState::new(pair, seq, m.path.clone(), m.hops, j_idx, m.assumed)
        };
        self.migrations_adopted += 1;
        match j_idx {
            Some(_) => {
                self.pairs.insert(pair, state);
            }
            None => {
                if let Some(b) = self.base.as_mut() {
                    b.pairs.insert(pair, state);
                }
            }
        }
        self.send_assign(ctx, pair, seq, m.path.clone(), j_idx, pair.s);
        self.send_assign(ctx, pair, seq, m.path, j_idx, pair.t);
    }

    // ----- failure handling (§7) ----------------------------------------------

    /// A unicast abandoned after retries: the next hop is dead. Repair the
    /// route locally, or notify the producer to fall back to the base.
    pub(super) fn handle_send_failure(&mut self, ctx: &mut Ctx<'_, Msg>, to: NodeId, msg: Msg) {
        self.known_dead.insert(to);
        // Local liveness probing around the failure (costed).
        self.recovery.control_bytes += self.wire_bytes(&Msg::Probe) as u64;
        self.broadcast(ctx, Msg::Probe);
        // Splice my own stored paths around the dead node so later traffic
        // and placement decisions stop referencing it.
        self.patch_paths_around(to);
        match msg {
            Msg::Data {
                from,
                sides,
                tuple,
                route: Route::Path { path, pos },
                fallback,
            } => {
                self.recovery.repair_attempts += 1;
                let alive = |n: NodeId| !self.known_dead.contains(&n) && !self.sh.is_dead(n);
                match repair_path(&self.sh.topo, &path, to, alive) {
                    Some(new_path) => {
                        self.recovery.repair_successes += 1;
                        // Resume from my position on the repaired path and
                        // tell the producer about the detour.
                        let resume = new_path
                            .iter()
                            .position(|&n| n == self.id)
                            .filter(|&p| p + 1 < new_path.len());
                        match resume {
                            Some(my_pos) => {
                                let m = Msg::Data {
                                    from,
                                    sides,
                                    tuple,
                                    route: Route::Path {
                                        path: new_path.into(),
                                        pos: wire_pos(my_pos),
                                    },
                                    fallback,
                                };
                                self.relay(ctx, m);
                            }
                            None => {
                                // The repaired path no longer runs through
                                // me (stale or desynced route). Divert the
                                // in-flight tuple onto the routing tree
                                // instead of dropping it (ISSUE 3
                                // regression). The relay drops it silently
                                // with no alive parent, so check the parent
                                // to keep the salvage counter honest.
                                let m = Msg::Data {
                                    from,
                                    sides,
                                    tuple,
                                    route: Route::TreeUp,
                                    fallback,
                                };
                                self.relay(ctx, m);
                                if self.id == self.sh.base() || self.alive_parent().is_some() {
                                    self.recovery.tuples_rerouted += 1;
                                } else {
                                    // Isolated from the tree: nothing left.
                                    self.recovery.tuples_lost += 1;
                                }
                            }
                        }
                        self.notify_route_broken(ctx, from, to, &path, pos as usize, false);
                    }
                    None => {
                        // No local bypass: this tuple instance is gone; the
                        // producer's buffered fallback (§7) re-ships its
                        // window to the base.
                        self.recovery.tuples_lost += 1;
                        self.notify_route_broken(ctx, from, to, &path, pos as usize, true);
                    }
                }
            }
            // Tree-up traffic heals by re-parenting; re-send once.
            msg @ (Msg::Data {
                route: Route::TreeUp,
                ..
            }
            | Msg::Result { .. }) => self.relay(ctx, msg),
            // Multicast branch died: tell the owner; it will rebuild
            // around the failure or fall back.
            Msg::Data {
                route: Route::Mcast { owner },
                ..
            } => {
                self.recovery.tuples_lost += 1;
                self.notify_route_broken(ctx, owner, to, &[], 0, true);
            }
            // A lost migration hand-off would strand the pair entirely —
            // the old join node already dropped its state. Divert the
            // transfer onto the routing tree with the destination retargeted
            // to the base (`new_j_idx: None`): the intended join node is
            // unreachable, and a tree-up transfer that kept `Some(j)` would
            // make the base adopt a pair whose assigns point at a node that
            // never received the window state.
            Msg::WindowXfer(mut m) => {
                if self.id == self.sh.base() || self.alive_parent().is_some() {
                    m.new_j_idx = None;
                    m.route = Route::TreeUp;
                    self.relay(ctx, Msg::WindowXfer(m));
                } else {
                    // Isolated from the tree: the migration state is
                    // unrecoverable (the old join node already dropped it).
                    // Record the loss instead of pretending the divert
                    // succeeded.
                    self.recovery.tuples_lost += m.win.len() as u64;
                }
            }
            // Control traffic losses during initiation self-correct via
            // re-nomination; drop silently.
            _ => {}
        }
    }

    /// Splice every stored path (producer assignments, join-node pair
    /// state, base-registered pairs) around a newly-dead node, recomputing
    /// the `hops` base-distance vector and remapping `j_idx` — stale
    /// pre-repair distances would otherwise keep feeding §6's placement
    /// decisions (ISSUE 3 regression). Paths whose join node *is* the dead
    /// node are left for the fatal base-fallback handling.
    pub(super) fn patch_paths_around(&mut self, failed: NodeId) {
        let sh = &self.sh;
        let known_dead = &self.known_dead;
        let alive = |n: NodeId| !known_dead.contains(&n) && !sh.is_dead(n) && n != failed;
        let patch =
            |path: &mut Vec<NodeId>, hops: &mut Vec<u16>, j_idx: &mut Option<usize>| -> bool {
                if path.is_empty() || !path.contains(&failed) {
                    return false;
                }
                let old_j = j_idx.map(|j| path[j]);
                if old_j == Some(failed) {
                    return false;
                }
                let Some(new_path) = repair_path(&sh.topo, path, failed, alive) else {
                    return false;
                };
                let new_j = match old_j {
                    // Bypass splices keep every non-failed node, but guard
                    // anyway: losing the join node would corrupt j_idx.
                    Some(j) => match new_path.iter().position(|&n| n == j) {
                        Some(p) => Some(p),
                        None => return false,
                    },
                    None => None,
                };
                *hops = new_path.iter().map(|&n| sh.sub.hops_to_base(n)).collect();
                *path = new_path;
                *j_idx = new_j;
                true
            };
        let mut patched = 0u64;
        let mut assigns_patched = false;
        for a in self.assigns.values_mut() {
            if !a.base_mode && patch(&mut a.path, &mut a.hops, &mut a.j_idx) {
                patched += 1;
                assigns_patched = true;
            }
        }
        for st in self.pairs.values_mut() {
            if patch(&mut st.path, &mut st.hops, &mut st.j_idx) {
                patched += 1;
            }
        }
        if let Some(b) = self.base.as_mut() {
            for st in b.pairs.values_mut() {
                if patch(&mut st.path, &mut st.hops, &mut st.j_idx) {
                    patched += 1;
                }
            }
        }
        self.recovery.paths_patched += patched;
        if assigns_patched {
            // Producer routes changed: the multicast tree must follow.
            self.mc_dirty = true;
        }
    }

    /// Walk a RouteBroken notification back toward the producer.
    fn notify_route_broken(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        producer: NodeId,
        failed: NodeId,
        path: &[NodeId],
        pos: usize,
        fatal: bool,
    ) {
        if producer == self.id {
            // Only a notice to myself may report a repaired break: one that
            // crossed the air is always fatal (`on_ctl`, ROADMAP item 6(c)).
            self.producer_route_broken(ctx, failed, fatal);
            return;
        }
        // Reverse along the data path if I am on it; else tree-route.
        let back_path: Arc<[NodeId]> =
            if !path.is_empty() && pos > 0 && path.get(pos) == Some(&self.id) {
                path[..=pos].iter().rev().copied().collect()
            } else {
                self.sh.tree_path(self.id, producer).into()
            };
        let msg = Msg::Ctl {
            route: Route::Path {
                path: back_path,
                pos: 0,
            },
            ctl: Ctl::RouteBroken { failed },
        };
        self.recovery.control_bytes += self.wire_bytes(&msg) as u64;
        self.relay(ctx, msg);
    }

    /// §7: producer-side reaction — switch every pair whose path includes
    /// the failed node to joining at the base, forwarding the last `w`
    /// tuples so the base can reconstruct the join window.
    pub(super) fn producer_route_broken(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        failed: NodeId,
        fatal: bool,
    ) {
        self.known_dead.insert(failed);
        // Adopt the detour locally: splice my stored paths around the dead
        // node so future tuples route past it directly instead of hitting
        // the same upstream repair every cycle.
        self.patch_paths_around(failed);
        if !fatal {
            return;
        }
        // Only pairs the local splice could not save (join node dead, or
        // no bypass within limited exploration) fall back to the base.
        let affected: Vec<Pair> = self
            .assigns
            .values()
            .filter(|a| !a.base_mode && a.path.contains(&failed))
            .map(|a| a.pair)
            .collect();
        if affected.is_empty() {
            return;
        }
        let buffered: Vec<Tuple> = self.sent.iter().copied().collect();
        for pair in &affected {
            if let Some(a) = self.assigns.get_mut(pair) {
                a.base_mode = true;
            }
        }
        self.recovery.base_fallbacks += affected.len() as u64;
        self.mc_dirty = true;
        // Forward the last w tuples, tagged so the base pins the pair.
        let my_side = if affected.iter().any(|p| p.s == self.id) {
            side::S
        } else {
            side::T
        };
        for tuple in buffered {
            self.send_to_base(ctx, my_side, Arc::new(tuple), Some(affected[0]));
        }
    }
}
