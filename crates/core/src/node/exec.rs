//! Execution: per-cycle sampling, data shipment, windowed join
//! computation and result delivery (§2.2, §3.2).
//!
//! Every windowed join is a [`WindowJoin`]: the last `w` tuples of an S
//! side and a T side, probed S→T. A pair's join node holds one per pair
//! (`join_into_pair`), and a migration carries it. The base station and
//! every GHT home run a [`GroupJoin`], one kernel per sending node; only
//! who its partners are differs, and the base adds its eligibility gate,
//! §7 fallback pinning, at-base learning and Yang+07's forward-down
//! around it. A Yang+07 target keeps a kernel of its own T samples, and
//! the pairwise oracle one per statically matching pair.

use super::{GroupJoin, JoinNode, PairState};
use crate::msg::{side, Msg, Pair, Route};
use crate::shared::Algorithm;
use sensor_net::NodeId;
use sensor_query::{QueryAnalysis, Tuple, TupleSource};
use sensor_sim::Ctx;
use std::collections::VecDeque;
use std::sync::Arc;

/// Insert into a bounded window, evicting the oldest.
fn push_window<T>(win: &mut VecDeque<T>, t: T, w: usize) {
    if win.len() == w {
        win.pop_front();
    }
    win.push_back(t);
}

/// One sliding-window join (§2.2): the last `w` tuples of an S side and
/// of a T side. A tuple probes the opposite side's window, then is
/// windowed on its own side, so it never meets itself; every match is
/// oriented S→T, whichever side the tuple arrived on.
#[derive(Debug, Clone, Default)]
pub struct WindowJoin {
    /// The S window, then the T window, oldest first.
    wins: [VecDeque<Tuple>; 2],
}

impl WindowJoin {
    /// Count the tuples on the side opposite `sd` that join `tuple`. The
    /// one place a windowed join decides which of two tuples is S.
    fn probe(&self, a: &QueryAnalysis, sd: u8, tuple: &Tuple) -> u32 {
        let opposite = self.window(sd ^ (side::S | side::T)).iter();
        let n = if sd == side::S {
            opposite.filter(|t| a.join_matches(tuple, t)).count()
        } else {
            opposite.filter(|s| a.join_matches(s, tuple)).count()
        };
        n as u32
    }

    /// Window `tuple` on side `sd`, evicting that side's oldest beyond `w`.
    pub fn push(&mut self, sd: u8, tuple: Tuple, w: usize) {
        push_window(&mut self.wins[(sd == side::T) as usize], tuple, w);
    }

    /// Probe with `tuple`, then window it: the matches it makes.
    pub(crate) fn insert(&mut self, a: &QueryAnalysis, sd: u8, tuple: Tuple, w: usize) -> u32 {
        let n = self.probe(a, sd, &tuple);
        self.push(sd, tuple, w);
        n
    }

    /// The window of side `sd`, oldest first.
    pub fn window(&self, sd: u8) -> &VecDeque<Tuple> {
        &self.wins[(sd == side::T) as usize]
    }

    /// Tuples windowed on both sides.
    pub fn len(&self) -> usize {
        self.wins.iter().map(VecDeque::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl JoinNode {
    // ----- sampling --------------------------------------------------------

    pub(super) fn sample_and_send(&mut self, ctx: &mut Ctx<'_, Msg>, cycle: u32) {
        let yang = self.sh.cfg.algorithm == Algorithm::Yang07;
        // A Yang+07 target keeps its local window even before the query.
        if !((self.have_query && (self.is_s || self.is_t)) || (yang && self.is_t)) {
            return;
        }
        let tuple = self.sh.data.sample(self.id, cycle);
        let a = &self.sh.spec.analysis;
        let s_sends = self.is_s && a.s_sends(&tuple);
        let t_sends = self.is_t && a.t_sends(&tuple);
        let sides = (s_sends as u8 * side::S) | (t_sends as u8 * side::T);
        if yang && t_sends {
            // Yang+07: T-side data never travels; it waits locally.
            self.yang_win.push(side::T, tuple, self.sh.spec.window);
        }
        if sides == 0 || !self.have_query {
            return;
        }
        // Failure fallback buffer: the last w tuples this producer sent.
        push_window(&mut self.sent, tuple, self.sh.spec.window);

        // The one allocation of a sample: every hop and fan-out copy of
        // the data message shares it.
        match self.sh.cfg.algorithm {
            Algorithm::Naive | Algorithm::Base => {
                self.send_to_base(ctx, sides, Arc::new(tuple), None);
            }
            Algorithm::Yang07 => {
                if s_sends {
                    self.send_to_base(ctx, side::S, Arc::new(tuple), None);
                }
            }
            Algorithm::Ght => self.ght_send(ctx, sides, Arc::new(tuple)),
            Algorithm::Innet => self.innet_send(ctx, sides, Arc::new(tuple)),
        }
    }

    pub(super) fn send_to_base(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        sides: u8,
        tuple: Arc<Tuple>,
        fallback: Option<Pair>,
    ) {
        self.on_data(ctx, self.id, sides, tuple, Route::TreeUp, fallback);
    }

    fn ght_send(&mut self, ctx: &mut Ctx<'_, Msg>, sides: u8, tuple: Arc<Tuple>) {
        for i in 0..self.ght_routes.len() {
            let (key, ref path, route_sides) = self.ght_routes[i];
            let use_sides = sides & route_sides;
            if use_sides == 0 {
                continue;
            }
            let Some(&next) = path.get(1) else {
                // I am the home node.
                self.ght_consume(ctx, key, self.id, use_sides, *tuple);
                continue;
            };
            let msg = Msg::Data {
                from: self.id,
                sides: use_sides,
                tuple: tuple.clone(),
                route: Route::Path {
                    path: path.clone(),
                    pos: 1,
                },
                fallback: None,
            };
            self.send(ctx, next, msg);
        }
    }

    fn innet_send(&mut self, ctx: &mut Ctx<'_, Msg>, sides: u8, tuple: Arc<Tuple>) {
        // Split assignments by transport: base-mode pairs share one TreeUp
        // message; multicast covers all on-tree join nodes with one send;
        // remaining pairs get per-path unicasts (deduped per join node).
        let mut any_base = false;
        let mut local: Vec<Pair> = Vec::new();
        let mut unicast: Vec<(NodeId, Arc<[NodeId]>)> = Vec::new(); // (j, my path to j)
        let use_mcast = self.sh.cfg.innet.multicast && self.mc_tree.is_some();
        for asg in self.assigns.values() {
            let my_side_s = asg.pair.s == self.id;
            let relevant =
                (my_side_s && sides & side::S != 0) || (!my_side_s && sides & side::T != 0);
            if !relevant {
                continue;
            }
            if asg.base_mode || asg.j_idx.is_none() {
                any_base = true;
                continue;
            }
            let j = asg.path[asg.j_idx.expect("innet route")];
            if j == self.id {
                // I am the join node for my own pair: local insert.
                local.push(asg.pair);
                continue;
            }
            if use_mcast
                && self
                    .mc_tree
                    .as_ref()
                    .is_some_and(|t| t.terminals().contains(&j))
            {
                continue; // covered by the multicast below
            }
            if !unicast.iter().any(|(jj, _)| *jj == j) {
                unicast.push((j, asg.route_to_j(self.id).expect("innet route")));
            }
        }
        for pair in local {
            self.local_join_insert(ctx, pair, *tuple);
        }
        if any_base {
            self.send_to_base(ctx, sides, tuple.clone(), None);
        }
        if use_mcast {
            let msg = Msg::Data {
                from: self.id,
                sides,
                tuple: tuple.clone(),
                route: Route::Mcast { owner: self.id },
                fallback: None,
            };
            self.forward_mcast(ctx, self.id, msg);
        }
        for (_, path) in unicast {
            let next = path[1];
            let msg = Msg::Data {
                from: self.id,
                sides,
                tuple: tuple.clone(),
                route: Route::Path { path, pos: 1 },
                fallback: None,
            };
            self.send(ctx, next, msg);
        }
    }

    /// Forward a multicast message to this node's children for `owner`.
    pub(super) fn forward_mcast(&self, ctx: &mut Ctx<'_, Msg>, owner: NodeId, msg: Msg) {
        let children: &[NodeId] = if owner == self.id {
            self.mc_tree.as_ref().map_or(&[], |t| t.children(self.id))
        } else {
            self.mc_children.get(&owner).map_or(&[], Vec::as_slice)
        };
        let Some((&last, rest)) = children.split_last() else {
            return;
        };
        for &c in rest {
            self.send(ctx, c, msg.clone());
        }
        self.send(ctx, last, msg);
    }

    // ----- data handling -----------------------------------------------------

    pub(super) fn on_data(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        origin: NodeId,
        sides: u8,
        tuple: Arc<Tuple>,
        route: Route,
        fallback: Option<Pair>,
    ) {
        // A relay moves the shared tuple on without reading it; only the
        // node that consumes it copies the value out.
        match route {
            Route::TreeUp if self.id == self.sh.base() => {
                self.base_consume_data(ctx, origin, sides, tuple, fallback);
            }
            Route::TreeUp => {
                let msg = Msg::Data {
                    from: origin,
                    sides,
                    tuple,
                    route: Route::TreeUp,
                    fallback,
                };
                self.forward_tree_up(ctx, msg);
            }
            Route::Path { path, pos } => {
                debug_assert_eq!(
                    path.get(pos as usize),
                    Some(&self.id),
                    "path routing desync"
                );
                match path.get(pos as usize + 1) {
                    Some(&next) => {
                        let msg = Msg::Data {
                            from: origin,
                            sides,
                            tuple,
                            route: Route::Path { path, pos: pos + 1 },
                            fallback,
                        };
                        self.send(ctx, next, msg);
                    }
                    None => self.consume_data_at_terminus(ctx, origin, sides, *tuple),
                }
            }
            Route::Mcast { owner } => {
                // Consume if I am a join node for any of the owner's pairs.
                let joins_here = self.pairs.keys().any(|p| p.s == origin || p.t == origin);
                let local = joins_here.then(|| *tuple);
                let msg = Msg::Data {
                    from: origin,
                    sides,
                    tuple,
                    route: Route::Mcast { owner },
                    fallback,
                };
                self.forward_mcast(ctx, owner, msg);
                if let Some(tuple) = local {
                    self.consume_data_at_terminus(ctx, origin, sides, tuple);
                }
            }
        }
    }

    /// A data tuple reached a path terminus: Innet join node, GHT home, or
    /// a Yang+07 target.
    fn consume_data_at_terminus(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        origin: NodeId,
        sides: u8,
        tuple: Tuple,
    ) {
        match self.sh.cfg.algorithm {
            Algorithm::Yang07 => self.yang_target_join(ctx, tuple),
            Algorithm::Ght => {
                let keys: Vec<u64> = self
                    .ght_groups
                    .iter()
                    .filter(|(_, g)| g.partners.keys().any(|(n, _)| *n == origin))
                    .map(|(k, _)| *k)
                    .collect();
                for key in keys {
                    self.ght_consume(ctx, key, origin, sides, tuple);
                }
            }
            _ => self.innet_join(ctx, origin, sides, tuple),
        }
    }

    /// Windowed join at an Innet join node for all pairs involving the
    /// sender.
    fn innet_join(&mut self, ctx: &mut Ctx<'_, Msg>, origin: NodeId, sides: u8, tuple: Tuple) {
        let spec = &self.sh.spec;
        let mut results = 0u32;
        // In `Pair` order, which is the map's. The key decides, so only
        // the matching pairs' states are loaded.
        for (pair, st) in self.pairs.iter_mut() {
            if (pair.s == origin && sides & side::S != 0)
                || (pair.t == origin && sides & side::T != 0)
            {
                results += join_into_pair(spec, st, origin, tuple, spec.window);
            }
        }
        self.produced_results += results as u64;
        if results > 0 {
            self.emit_results(ctx, results, tuple.cycle);
        }
    }

    /// Local-insert shortcut when the producer is its own join node.
    fn local_join_insert(&mut self, ctx: &mut Ctx<'_, Msg>, pair: Pair, tuple: Tuple) {
        let spec = &self.sh.spec;
        if let Some(st) = self.pairs.get_mut(&pair) {
            let results = join_into_pair(spec, st, self.id, tuple, spec.window);
            self.produced_results += results as u64;
            if results > 0 {
                self.emit_results(ctx, results, tuple.cycle);
            }
        }
    }

    /// Yang+07 target: probe the local window of own samples. Only the T
    /// side of `yang_win` is ever filled and an S tuple only probes it, so
    /// a match whose T sample is the later one is lost: the
    /// one-directional join of ROADMAP item 1's cause (v).
    fn yang_target_join(&mut self, ctx: &mut Ctx<'_, Msg>, s_tuple: Tuple) {
        let results = self
            .yang_win
            .probe(&self.sh.spec.analysis, side::S, &s_tuple);
        if results > 0 {
            self.emit_results(ctx, results, s_tuple.cycle);
        }
    }

    /// GHT home: join the tuple, on each of its sides, against the
    /// key's group. The tuple's own static attributes decide its partners.
    pub(super) fn ght_consume(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        key: u64,
        origin: NodeId,
        sides: u8,
        tuple: Tuple,
    ) {
        let (a, w) = (&self.sh.spec.analysis, self.sh.spec.window);
        let mut results = 0u64;
        if let Some(group) = self.ght_groups.get_mut(&key) {
            for sd in [side::S, side::T] {
                if sides & sd != 0 {
                    results += group.consume(a, origin, &tuple, sd, tuple, w, |_, _| {});
                }
            }
        }
        self.produced_results += results;
        if results > 0 {
            self.emit_results(ctx, results as u32, tuple.cycle);
        }
    }

    /// Ship `count` fresh join results toward the base (merged into one
    /// message — opportunistic merging, Appendix E).
    pub(super) fn emit_results(&mut self, ctx: &mut Ctx<'_, Msg>, count: u32, gen_cycle: u32) {
        let mut remaining = count;
        while remaining > 0 {
            let batch = remaining.min(u16::MAX as u32) as u16;
            remaining -= batch as u32;
            let msg = Msg::Result {
                count: batch,
                gen_cycle,
                route: Route::TreeUp,
            };
            if !self.forward_tree_up(ctx, msg) {
                self.base_record_results(ctx.now, batch as u64, gen_cycle);
            }
        }
    }

    pub(super) fn on_result(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        count: u16,
        gen_cycle: u32,
        route: Route,
    ) {
        let msg = Msg::Result {
            count,
            gen_cycle,
            route,
        };
        if !self.forward_tree_up(ctx, msg) {
            self.base_record_results(ctx.now, count as u64, gen_cycle);
        }
    }

    pub(super) fn base_record_results(&mut self, now: u64, count: u64, gen_cycle: u32) {
        let born = self.sh.cycle_start(gen_cycle);
        let b = self.base.as_mut().expect("result recorded off-base");
        let delay = now.saturating_sub(born) as u32;
        b.results += count;
        b.delay_sum += delay as u64 * count;
    }

    // ----- base-station join ---------------------------------------------------

    /// The base joins every arriving base-mode tuple against the windows
    /// of statically-matching senders (grouped join at the base; also the
    /// destination of fallbacks and group decisions).
    pub(super) fn base_consume_data(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        origin: NodeId,
        sides: u8,
        shared: Arc<Tuple>,
        fallback: Option<Pair>,
    ) {
        let tuple = *shared;
        let now = ctx.now;
        let spec = &self.sh.spec;
        let w = spec.window;
        let origin_static = *self.sh.data.static_of(origin);
        let Some(b) = self.base.as_mut() else {
            return;
        };
        if let Some(pair) = fallback {
            // Sequence number u32::MAX pins the pair at the base.
            let sigma = crate::cost::Sigma::new(1.0, 1.0, 1.0);
            let pinned = || PairState::new(pair, u32::MAX, Vec::new(), Vec::new(), None, sigma);
            b.pairs.entry(pair).or_insert_with(pinned);
        }
        let a = &spec.analysis;
        let mut produced = 0u64;
        for sd in [side::S, side::T] {
            if sides & sd == 0 {
                continue;
            }
            // A sender is a partner only if statically eligible on its
            // side: settled here, when it sends, for every tuple it is
            // later probed by. An ineligible sender's tuple probes nothing.
            let eligible = if sd == side::S {
                a.s_eligible(&origin_static)
            } else {
                a.t_eligible(&origin_static)
            };
            if eligible {
                let pairs = &mut b.pairs;
                // Learning bookkeeping for registered at-base pairs.
                produced += b
                    .join
                    .consume(a, origin, &origin_static, sd, tuple, w, |p, n| {
                        let pair = if sd == side::S {
                            Pair::new(origin, p)
                        } else {
                            Pair::new(p, origin)
                        };
                        if let Some(ps) = pairs.get_mut(&pair) {
                            ps.stats.record_results(n);
                        }
                    });
                b.join.partners.insert((origin, sd), origin_static);
            } else {
                b.join.windows.entry(origin).or_default().push(sd, tuple, w);
            }
            // Pair stats: count arrivals.
            for (pair, ps) in b.pairs.iter_mut() {
                if sd == side::S && pair.s == origin {
                    ps.stats.record_s();
                } else if sd == side::T && pair.t == origin {
                    ps.stats.record_t();
                }
            }
        }
        if produced > 0 {
            self.produced_results += produced;
            self.base_record_results(now, produced, tuple.cycle);
        }
        // Yang+07: the base re-routes S data down to matching targets.
        if self.sh.cfg.algorithm == Algorithm::Yang07 && sides & side::S != 0 {
            self.yang_forward_down(ctx, origin, shared);
        }
    }

    fn yang_forward_down(&mut self, ctx: &mut Ctx<'_, Msg>, origin: NodeId, tuple: Arc<Tuple>) {
        let a = &self.sh.spec.analysis;
        let origin_static = *self.sh.data.static_of(origin);
        let targets: Vec<NodeId> = self
            .sh
            .topo
            .node_ids()
            .filter(|&n| n != origin && n != self.id)
            .filter(|&n| {
                let t_static = self.sh.data.static_of(n);
                a.t_eligible(t_static) && a.static_join_matches(&origin_static, t_static)
            })
            .collect();
        for t in targets {
            let path = self.sh.tree_path(self.id, t);
            if let Some(&next) = path.get(1) {
                let msg = Msg::Data {
                    from: origin,
                    sides: side::S,
                    tuple: tuple.clone(),
                    route: Route::Path {
                        path: path.into(),
                        pos: 1,
                    },
                    fallback: None,
                };
                self.send(ctx, next, msg);
            }
        }
    }
}

/// Probe-then-insert windowed join for one pair at its join node, S
/// before T for an origin that is both. Returns the number of result
/// tuples.
pub(super) fn join_into_pair(
    spec: &sensor_query::JoinQuerySpec,
    st: &mut PairState,
    origin: NodeId,
    tuple: Tuple,
    w: usize,
) -> u32 {
    let a = &spec.analysis;
    let mut results = 0u32;
    if origin == st.pair.s {
        st.stats.record_s();
        results += st.win.insert(a, side::S, tuple, w);
    }
    if origin == st.pair.t {
        st.stats.record_t();
        results += st.win.insert(a, side::T, tuple, w);
    }
    st.stats.record_results(results);
    results
}

impl GroupJoin {
    /// Join `tuple`, which `origin` sent on side `sd`, against the
    /// opposite-side window of every other partner whose static tuple
    /// matches `origin_static`, calling `hit(partner, matches)` per
    /// probed window (a partner with nothing windowed on that side is
    /// skipped); then window the tuple under `origin`. Returns the
    /// matches.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn consume(
        &mut self,
        a: &QueryAnalysis,
        origin: NodeId,
        origin_static: &Tuple,
        sd: u8,
        tuple: Tuple,
        w: usize,
        mut hit: impl FnMut(NodeId, u32),
    ) -> u64 {
        let opposite = sd ^ (side::S | side::T);
        let mut results = 0u64;
        // Partners in node order, which is the map's.
        for (&(p, _), p_static) in self
            .partners
            .iter()
            .filter(|((n, s), _)| *s == opposite && *n != origin)
        {
            let statically_joins = if sd == side::S {
                a.static_join_matches(origin_static, p_static)
            } else {
                a.static_join_matches(p_static, origin_static)
            };
            if !statically_joins {
                continue;
            }
            let probed = self
                .windows
                .get(&p)
                .filter(|k| !k.window(opposite).is_empty());
            if let Some(k) = probed {
                let n = k.probe(a, sd, &tuple);
                hit(p, n);
                results += n as u64;
            }
        }
        self.windows.entry(origin).or_default().push(sd, tuple, w);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensor_query::schema::{ATTR_U, ATTR_X, ATTR_Y};

    /// Node `n`'s tuple at `cycle`; every tuple shares `u`, so only
    /// Query 1's static clause S.x = T.y + 5 tells them apart.
    fn t(n: u16, cycle: u32, x: u16, y: u16) -> Tuple {
        let mut t = Tuple::new(NodeId(n), cycle);
        t.set(ATTR_X, x).set(ATTR_Y, y).set(ATTR_U, 7);
        t
    }

    /// One arrival, its sender's static attributes read off the tuple as
    /// a GHT home does: the result count and the hits in call order.
    fn arrive(
        g: &mut GroupJoin,
        a: &QueryAnalysis,
        sd: u8,
        tuple: Tuple,
    ) -> (u64, Vec<(u16, u32)>) {
        let mut hits = Vec::new();
        let n = g.consume(a, tuple.node, &tuple, sd, tuple, 2, |p, n| {
            hits.push((p.0, n))
        });
        (n, hits)
    }

    fn cycles(g: &GroupJoin, n: u16, sd: u8) -> Vec<u32> {
        g.windows[&NodeId(n)]
            .window(sd)
            .iter()
            .map(|t| t.cycle)
            .collect()
    }

    /// Window `tuple` under node `n`'s side `sd` without probing (w = 2).
    fn fill(g: &mut GroupJoin, n: u16, sd: u8, tuple: Tuple) {
        g.windows.entry(NodeId(n)).or_default().push(sd, tuple, 2);
    }

    #[test]
    fn window_join_probes_before_windowing_and_orients_s_to_t() {
        let a = &sensor_workload::query1(2).analysis;
        let (s, tt) = (side::S, side::T);
        let mut k = WindowJoin::default();
        // The first tuple meets an empty T side, then is windowed.
        assert_eq!(k.insert(a, s, t(1, 0, 8, 0), 2), 0);
        // A T arrival probes S→T: (0, 3) joins (8, 0) as S.x = T.y + 5;
        // (5, 9) would join it only as T.x = S.y + 5, so it does not.
        assert_eq!(k.insert(a, tt, t(2, 1, 0, 3), 2), 1);
        assert_eq!(k.insert(a, tt, t(2, 2, 5, 9), 2), 0);
        // An S arrival probes the T side S→T too.
        assert_eq!(k.insert(a, s, t(1, 3, 8, 0), 2), 1);
        // A tuple that would join itself (8 = 3 + 5) meets only the
        // other side as it was before the call, never its own copy.
        assert_eq!(k.insert(a, s, t(3, 4, 8, 3), 2), 1);
        assert_eq!(k.insert(a, s, t(3, 5, 8, 3), 2), 1);
        // Each side keeps its last w = 2, oldest first, and `push`
        // windows without probing.
        let cycles = |k: &WindowJoin, sd| k.window(sd).iter().map(|t| t.cycle).collect::<Vec<_>>();
        assert_eq!(cycles(&k, s), [4, 5]);
        assert_eq!(cycles(&k, tt), [1, 2]);
        k.push(tt, t(2, 6, 0, 3), 2);
        assert_eq!(cycles(&k, tt), [2, 6]);
        assert_eq!(k.len(), 4);
    }

    #[test]
    fn group_join_orients_probes_and_windows_on_query_1() {
        let a = &sensor_workload::query1(2).analysis;
        let (s, tt) = (side::S, side::T);
        let mut g = GroupJoin::default();
        // s1 joins t2 and n4; t3 joins s1 only as T.x = S.y + 5; n4 is
        // on both sides and joins itself.
        for (n, sd, x, y) in [
            (1, s, 8, 0),
            (2, tt, 0, 3),
            (3, tt, 5, 9),
            (4, s, 8, 3),
            (4, tt, 8, 3),
        ] {
            g.partners.insert((NodeId(n), sd), t(n, 0, x, y));
        }
        assert!(!a.static_join_matches(&t(1, 0, 8, 0), &t(3, 0, 5, 9)));
        // Windows filled by `fill` may hold tuples their owner's static
        // attributes would not produce; each one isolates a rule.
        fill(&mut g, 2, tt, t(2, 0, 0, 3)); // joins s1 S→T only
        fill(&mut g, 2, tt, t(2, 1, 5, 9)); // joins s1 T→S only
        fill(&mut g, 3, tt, t(3, 0, 0, 3)); // would join s1
        fill(&mut g, 4, tt, t(4, 0, 8, 3));

        // An S arrival probes T windows in S→T orientation; t3 does not
        // statically match, so it is neither probed nor hit.
        assert_eq!(
            arrive(&mut g, a, s, t(1, 2, 8, 0)),
            (2, vec![(2, 1), (4, 1)])
        );
        assert_eq!(cycles(&g, 1, s), [2]);
        // A T arrival probes S windows, still S→T: (9, 0) joins (5, 3)
        // only as T.x = S.y + 5.
        fill(&mut g, 1, s, t(1, 3, 9, 0));
        assert_eq!(arrive(&mut g, a, tt, t(2, 4, 5, 3)), (1, vec![(1, 1)]));
        // The window keeps the last w = 2 tuples.
        assert_eq!(cycles(&g, 2, tt), [1, 4]);

        // n4's own S window joins its T arrival but is never probed, and
        // the arrival is windowed after the probe, so it never meets itself.
        fill(&mut g, 4, s, t(4, 5, 8, 3));
        assert_eq!(arrive(&mut g, a, tt, t(4, 6, 8, 3)), (1, vec![(1, 1)]));
        assert_eq!(cycles(&g, 4, tt), [0, 6]);

        // A non-partner's tuple probes the partners (its own static
        // attributes pick them) and is windowed ...
        assert_eq!(
            arrive(&mut g, a, s, t(9, 7, 8, 0)),
            (3, vec![(2, 1), (4, 2)])
        );
        assert_eq!(cycles(&g, 9, s), [7]);
        // ... but no partner ever probes that window.
        assert_eq!(
            arrive(&mut g, a, tt, t(2, 8, 0, 3)),
            (2, vec![(1, 1), (4, 1)])
        );
    }
}
