//! Adaptation: selectivity learning with join-node migration (§6) and
//! best-effort failure recovery (§7).

use super::{JoinNode, PairState, WindowJoin};
use crate::cost::{place_join_node, Placement};
use crate::learn::{DIVERGENCE_THRESHOLD, LEARN_INTERVAL};
use crate::msg::{side, wire_pos, Ctl, Msg, Pair, PairPath, Route, WindowXfer};
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
        let sub = &self.sh.sub;
        let st = if at_base {
            self.base.as_mut().and_then(|b| b.pairs.get_mut(&pair))
        } else {
            self.pairs.get_mut(&pair)
        };
        let Some(st) = st else { return };
        if st.path.nodes.is_empty() {
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
        let hops = st.path.nodes.iter().map(|&n| sub.hops_to_base(n));
        let new_j = match place_join_node(est, w, hops) {
            Placement::OnPath { index, .. } => Some(wire_pos(index)),
            Placement::AtBase { .. } => None,
        };
        if new_j == st.path.j {
            // Same node still optimal: adopt the estimates and move on.
            st.assumed = est;
            st.stats.reset();
            return;
        }
        // Migrate: hand the windows to the new join node so computation
        // resumes "seamlessly without loss of results".
        let st = self.pair_table(at_base).remove(&pair).expect("evaluated");
        let xfer = Box::new(WindowXfer {
            pair,
            path: PairPath {
                seq: st.path.seq + 1,
                j: new_j,
                ..st.path
            },
            assumed: est,
            win: st.win,
            route: Route::TreeUp,
        });
        self.dispatch_window_xfer(ctx, xfer);
    }

    /// Route a WindowXfer from the current join point to the new one.
    pub(super) fn dispatch_window_xfer(&mut self, ctx: &mut Ctx<'_, Msg>, mut m: Box<WindowXfer>) {
        m.route = match m.path.j {
            // Moving to the base, where I am already. The path and windows
            // are dropped, not fed to the base's `GroupJoin`: the lost
            // at-base matches of ROADMAP item 1's cause (iv). A transfer
            // that arrives at the base keeps them.
            None if self.id == self.sh.base() => {
                let cleared = WindowXfer {
                    path: PairPath::pinned(m.path.seq),
                    win: WindowJoin::default(),
                    ..*m
                };
                return self.adopt_transferred_pair(ctx, cleared);
            }
            None => Route::TreeUp,
            // Along the pair's path if I am on it; otherwise (migrating
            // away from the base) down the primary tree.
            Some(j) => match m.path.nodes.iter().position(|&n| n == self.id) {
                Some(me) => Route::along(m.path.nodes.clone(), me, j as usize),
                None => {
                    let to = m.path.nodes[j as usize];
                    Route::whole(self.sh.tree_path(self.id, to).into())
                }
            },
        };
        self.relay(ctx, Msg::WindowXfer(m));
    }

    /// The new join node adopts a migrated pair and re-points both
    /// producers at itself.
    pub(super) fn adopt_transferred_pair(&mut self, ctx: &mut Ctx<'_, Msg>, m: WindowXfer) {
        let WindowXfer {
            pair,
            path,
            assumed,
            win,
            ..
        } = m;
        self.migrations_adopted += 1;
        let state = PairState {
            win,
            ..PairState::new(pair, path.clone(), assumed)
        };
        self.pair_table(path.j.is_none()).insert(pair, state);
        self.send_assign(ctx, pair, &path, pair.s);
        self.send_assign(ctx, pair, &path, pair.t);
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
                route: route @ Route::Path { .. },
                fallback,
            } => {
                self.recovery.repair_attempts += 1;
                let alive = |n: NodeId| !self.known_dead.contains(&n) && !self.sh.is_dead(n);
                match repair_path(&self.sh.topo, &route.nodes(), to, alive) {
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
                                let end = wire_pos(new_path.len() - 1);
                                let m = Msg::Data {
                                    from,
                                    sides,
                                    tuple,
                                    route: Route::Path {
                                        path: new_path.into(),
                                        start: 0,
                                        pos: wire_pos(my_pos),
                                        end,
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
                        self.notify_route_broken(ctx, from, to, &route, false);
                    }
                    None => {
                        // No local bypass: this tuple instance is gone; the
                        // producer's buffered fallback (§7) re-ships its
                        // window to the base.
                        self.recovery.tuples_lost += 1;
                        self.notify_route_broken(ctx, from, to, &route, true);
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
                route: route @ Route::Mcast { owner },
                ..
            } => {
                self.recovery.tuples_lost += 1;
                self.notify_route_broken(ctx, owner, to, &route, true);
            }
            // A lost migration hand-off would strand the pair entirely —
            // the old join node already dropped its state. Divert the
            // transfer onto the routing tree with the destination retargeted
            // to the base (`j: None`): the intended join node is
            // unreachable, and a tree-up transfer that kept `Some(j)` would
            // make the base adopt a pair whose assigns point at a node that
            // never received the window state.
            Msg::WindowXfer(mut m) => {
                if self.id == self.sh.base() || self.alive_parent().is_some() {
                    m.path.j = None;
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
    /// state, base-registered pairs) around a newly-dead node, remapping
    /// the join-node index, so later traffic and §6 placement decisions
    /// stop referencing it (`adapt_regression.rs` pins this). Paths whose
    /// join node *is* the dead node are left for the fatal base-fallback
    /// handling.
    pub(super) fn patch_paths_around(&mut self, failed: NodeId) {
        let sh = &self.sh;
        let known_dead = &self.known_dead;
        let alive = |n: NodeId| !known_dead.contains(&n) && !sh.is_dead(n) && n != failed;
        let mut patched = 0u64;
        let mut assigns_patched = false;
        for a in self.assigns.values_mut() {
            if !a.base_mode && a.path.splice_around(&sh.topo, failed, alive) {
                patched += 1;
                assigns_patched = true;
            }
        }
        let at_base = self.base.iter_mut().flat_map(|b| b.pairs.values_mut());
        for st in self.pairs.values_mut().chain(at_base) {
            if st.path.splice_around(&sh.topo, failed, alive) {
                patched += 1;
            }
        }
        self.recovery.paths_patched += patched;
        if assigns_patched {
            // Producer routes changed: the multicast tree must follow.
            self.mc_dirty = true;
        }
    }

    /// Walk a RouteBroken notification back toward the producer: back
    /// along `data_route` to its start if I am on it, else down the tree.
    fn notify_route_broken(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        producer: NodeId,
        failed: NodeId,
        data_route: &Route,
        fatal: bool,
    ) {
        if producer == self.id {
            // Only a notice to myself may report a repaired break: one that
            // crossed the air is always fatal (`on_ctl`, ROADMAP item 6(c)).
            self.producer_route_broken(ctx, failed, fatal);
            return;
        }
        let route = match data_route {
            Route::Path {
                path, start, pos, ..
            } if pos != start && path.get(*pos as usize) == Some(&self.id) => {
                Route::along(path.clone(), *pos as usize, *start as usize)
            }
            _ => Route::whole(self.sh.tree_path(self.id, producer).into()),
        };
        let msg = Msg::Ctl {
            route,
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
            .filter(|a| !a.base_mode && a.path.nodes.contains(&failed))
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
