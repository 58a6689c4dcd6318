//! Protocol messages exchanged by the join algorithms, with wire-size
//! accounting.
//!
//! Sizes model the mote implementation: 16-bit attributes, delta-encoded
//! path vectors (§3.1), compact control messages. The link header is added
//! by the simulator.

use crate::cost::Sigma;
use crate::node::WindowJoin;
use sensor_net::{NodeId, Topology};
use sensor_query::Tuple;
use sensor_routing::repair::repair_path;
use sensor_summaries::Constraint;
use std::sync::Arc;

/// A join pair, keyed (s, t).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pair {
    pub s: NodeId,
    pub t: NodeId,
}

impl Pair {
    pub fn new(s: NodeId, t: NodeId) -> Self {
        Pair { s, t }
    }

    pub fn partner_of(&self, me: NodeId) -> NodeId {
        if me == self.s {
            self.t
        } else {
            self.s
        }
    }
}

/// Which producer side a data tuple belongs to (bitmask: a node may be
/// eligible on both sides, e.g. Query 3).
pub mod side {
    pub const S: u8 = 1;
    pub const T: u8 = 2;
}

/// How a message travels to the node that acts on it.
#[derive(Debug, Clone, PartialEq)]
pub enum Route {
    /// Follow the (self-healing) primary routing tree up to the base
    /// station.
    TreeUp,
    /// Walk a shared node path from `path[start]` to `path[end]`, in
    /// either direction; `pos` indexes the current node. A hop moves `pos`
    /// one step toward `end` and passes the same slice on, so a route
    /// along a pair's [`PairPath`], or back along a data route, copies no
    /// node.
    Path {
        path: Arc<[NodeId]>,
        start: u16,
        pos: u16,
        end: u16,
    },
    /// Follow the sender's installed multicast tree (state pushed by
    /// `McastSetup`).
    Mcast { owner: NodeId },
}

impl Route {
    /// Walk `path` from index `from` to index `to`, starting at `from`.
    pub(crate) fn along(path: Arc<[NodeId]>, from: usize, to: usize) -> Route {
        let (start, end) = (wire_pos(from), wire_pos(to));
        Route::Path {
            path,
            start,
            pos: start,
            end,
        }
    }

    /// Walk all of `path`, first node to last.
    pub(crate) fn whole(path: Arc<[NodeId]>) -> Route {
        let last = path.len() - 1;
        Route::along(path, 0, last)
    }

    /// The nodes a `Path` route walks, `start` to `end` in walking order
    /// (none for the other routes): the form a repair or a multicast tree
    /// reads.
    pub(crate) fn nodes(&self) -> Vec<NodeId> {
        let Route::Path {
            path, start, end, ..
        } = self
        else {
            return Vec::new();
        };
        let (start, end) = (*start as usize, *end as usize);
        if start <= end {
            path[start..=end].to_vec()
        } else {
            path[end..=start].iter().rev().copied().collect()
        }
    }
}

/// Where one pair is joined (§3.2): the s..t path its target chose and the
/// join node on it. The target makes it once; the nomination, the join
/// node's `PairState`, both producers' assignments, a §6 migration and
/// every route along the path share it, and a §7 repair splices a new one
/// in its place. One quirk: an at-base [`Assign`] carries the base→producer
/// tree path it walks in `nodes`, not the s..t path; the producer only
/// ever routes such a pair up the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPath {
    /// Sequence number: a node keeps the newest placement it has seen.
    pub seq: u32,
    /// The path, s first and t last; empty for a pair pinned at the base.
    pub nodes: Arc<[NodeId]>,
    /// Index of the join node on `nodes`; `None` = joined at the base.
    pub j: Option<u16>,
}

impl PairPath {
    /// A pair pinned at the base with no path: a §7 fallback, or a
    /// migration from the base to itself.
    pub(crate) fn pinned(seq: u32) -> Self {
        PairPath {
            seq,
            nodes: Arc::new([]),
            j: None,
        }
    }

    /// The join node, or `None` at the base.
    pub fn join_node(&self) -> Option<NodeId> {
        self.j.map(|j| self.nodes[j as usize])
    }

    /// Index of a producer's end of the path: s's is the first, t's the
    /// last.
    pub(crate) fn end_of(&self, s_side: bool) -> usize {
        if s_side {
            0
        } else {
            self.nodes.len() - 1
        }
    }

    /// §7: splice the path around `failed` with a local bypass over nodes
    /// `alive` accepts, keeping the join node and re-indexing it. Returns
    /// false, and changes nothing, when the path avoids `failed`, when
    /// `failed` is the join node, or when no bypass exists.
    pub(crate) fn splice_around(
        &mut self,
        topo: &Topology,
        failed: NodeId,
        alive: impl Fn(NodeId) -> bool,
    ) -> bool {
        if !self.nodes.contains(&failed) {
            return false;
        }
        let old_j = self.join_node();
        if old_j == Some(failed) {
            return false;
        }
        let Some(new_nodes) = repair_path(topo, &self.nodes, failed, alive) else {
            return false;
        };
        let j = match old_j {
            // Bypass splices keep every non-failed node, but guard anyway:
            // losing the join node would corrupt `j`.
            Some(jn) => match new_nodes.iter().position(|&n| n == jn) {
                Some(p) => Some(wire_pos(p)),
                None => return false,
            },
            None => None,
        };
        self.nodes = new_nodes.into();
        self.j = j;
        true
    }
}

/// GHT initiation: register membership at the home node.
#[derive(Debug, Clone)]
pub struct GhtRegister {
    pub origin: NodeId,
    pub sides: u8,
    pub key: u64,
    pub statics: Tuple,
}

/// Innet exploration (multi-tree content-routed search).
#[derive(Debug, Clone)]
pub struct Search {
    pub tree: u8,
    pub descending: bool,
    pub s: NodeId,
    pub s_static: Tuple,
    /// Made once by the searching producer; every hop shares it.
    pub constraints: Arc<[(u8, Constraint)]>,
    /// Nodes visited so far, ending with the node it is sent to.
    pub path: Vec<NodeId>,
}

/// t → j: nominate a join node for the pair (§3.2).
#[derive(Debug, Clone)]
pub struct Nominate {
    pub pair: Pair,
    /// The s..t path the pair will use and its join node.
    pub path: PairPath,
    pub assumed: Sigma,
    /// Back along `path` from t to the join node, or up the tree for an
    /// at-base nomination.
    pub route: Route,
}

/// j → producer: the pair assignment.
#[derive(Debug, Clone)]
pub struct Assign {
    pub pair: Pair,
    /// What the producer adopts: the pair's placement, whose nodes are the
    /// base→producer tree path (also the route) for an at-base assign.
    pub path: PairPath,
    /// Along the path from the join node to the producer, or down the tree
    /// from the base.
    pub route: Route,
}

/// §5.2: producer's ΔCp routed to its group coordinator.
#[derive(Debug, Clone)]
pub struct DeltaCost {
    pub group: u64,
    pub from: NodeId,
    pub members: Vec<NodeId>,
    pub delta: f64,
}

/// §6: window + estimate hand-off when the join node migrates.
#[derive(Debug, Clone)]
pub struct WindowXfer {
    pub pair: Pair,
    /// The pair's new placement: its path and the new join node.
    pub path: PairPath,
    pub assumed: Sigma,
    /// The pair's windows, both sides.
    pub win: WindowJoin,
    pub route: Route,
}

/// Appendix E: push multicast-tree state to interior nodes.
#[derive(Debug, Clone)]
pub struct McastSetup {
    pub owner: NodeId,
    /// (node, children) adjacency entries, delivered hop by hop.
    pub edges: Vec<(NodeId, Vec<NodeId>)>,
}

/// What a node-addressed control message tells the last node of its
/// path. It travels inside [`Msg::Ctl`]; relays read only the envelope.
#[derive(Debug, Clone)]
pub enum Ctl {
    /// Base-algorithm initiation: participation verdict routed back.
    Verdict {
        participate: bool,
    },
    GhtRegister(Box<GhtRegister>),
    DeltaCost(Box<DeltaCost>),
    /// §5.2: a coordinator announcing itself to a member whose ΔCp it has
    /// not seen (Algorithm 1 lines 7-8: members adopt the lowest-id
    /// coordinator and re-send their cost difference).
    CoordPing {
        group: u64,
        coordinator: NodeId,
    },
    /// §5.2: coordinator's verdict (Algorithm 1).
    GroupDecision {
        group: u64,
        seq: u32,
        innet: bool,
    },
    /// Appendix E: snooped path-collapse opportunity reported to `owner`.
    CollapseHint {
        owner: NodeId,
        n1: NodeId,
        n2: NodeId,
    },
    /// §7: route failure notification heading back to the producer.
    RouteBroken {
        failed: NodeId,
    },
}

impl Ctl {
    /// Payload size of the control body; the envelope adds its path.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            Ctl::Verdict { .. } => 1,
            Ctl::GhtRegister(_) => 11 + STATIC_EXCERPT_BYTES,
            Ctl::DeltaCost(m) => 10 + 2 * m.members.len() as u32,
            Ctl::CoordPing { .. } | Ctl::CollapseHint { .. } | Ctl::RouteBroken { .. } => 8,
            Ctl::GroupDecision { .. } => 12,
        }
    }
}

/// Protocol message set (all algorithms share the enum; each uses a
/// subset). Every kind bound for a known end — data, results,
/// announcements, nominations, assignments, window transfers and
/// node-addressed [`Msg::Ctl`] control — travels on a [`Route`]
/// (`Announce` and `Result` implicitly up the tree) and is moved hop by
/// hop by `JoinNode::relay`, which hands it to its kind's handler where
/// the route ends. Multicast data fans out on its own. Every
/// transmission moves a `Msg` by value several times and parks it in a
/// pool slot, so the enum is kept to 48 bytes: the large control and
/// assignment payloads are boxed, the 64-byte tuple of the per-tuple
/// `Data` sits behind an `Arc` made once per sample, and a route's path
/// positions are `u16`. The tagged frame around it then fits one cache line (see
/// `multi::tests::pool_slot_is_one_cache_line`).
#[derive(Debug, Clone)]
pub enum Msg {
    /// Query dissemination flood.
    QueryFlood,
    /// Base-algorithm initiation: announce static attributes to the base.
    Announce {
        origin: NodeId,
        sides: u8,
    },
    /// A control message for the last node of its [`Route::Path`].
    Ctl {
        route: Route,
        ctl: Ctl,
    },
    Search(Box<Search>),
    Nominate(Box<Nominate>),
    Assign(Box<Assign>),
    /// A producer's data tuple, shared by every hop and fan-out copy of
    /// the one sample it was taken from.
    Data {
        from: NodeId,
        sides: u8,
        tuple: Arc<Tuple>,
        route: Route,
        /// Set when this is a §7 fallback stream the base must adopt.
        fallback: Option<Pair>,
    },
    /// Join results heading up the tree to the base (merged per cycle).
    Result {
        count: u16,
        gen_cycle: u32,
    },
    WindowXfer(Box<WindowXfer>),
    McastSetup(Box<McastSetup>),
    /// §7: local liveness probe (broadcast, neighbors ignore silently).
    Probe,
}

/// A path index as messages carry it. Paths are simple paths over 16-bit
/// node ids, so every index fits; a failure here is a corrupted path.
pub(crate) fn wire_pos(i: usize) -> u16 {
    u16::try_from(i).expect("path index fits in u16")
}

/// Delta-encoded path vector: 2-byte origin + ~1 byte per subsequent hop.
pub fn path_bytes(len: usize) -> u32 {
    if len == 0 {
        0
    } else {
        2 + (len as u32 - 1)
    }
}

/// Compact static-tuple excerpt carried by searches/registrations: only
/// the handful of static attributes the join verification needs.
pub const STATIC_EXCERPT_BYTES: u32 = 8;

fn constraints_bytes(cs: &[(u8, Constraint)]) -> u32 {
    cs.iter().map(|(_, c)| 1 + c.wire_bytes() as u32).sum()
}

impl Msg {
    /// Payload size on the wire (link header excluded). `data_bytes` is
    /// the query-specific tuple excerpt size, `result_bytes` the
    /// projected-result size.
    pub fn wire_bytes(&self, data_bytes: u32, result_bytes: u32) -> u32 {
        match self {
            Msg::QueryFlood => 40, // compiled query broadcast
            Msg::Announce { .. } => 3 + STATIC_EXCERPT_BYTES,
            Msg::Ctl { route, ctl } => {
                // The path bytes count the nodes the route walks.
                let hops = match route {
                    Route::Path { start, end, .. } => start.abs_diff(*end) as usize + 1,
                    Route::TreeUp | Route::Mcast { .. } => 0,
                };
                ctl.wire_bytes() + path_bytes(hops)
            }
            Msg::Search(m) => {
                // tree + flags + origin + statics + constraints + path +
                // delta-encoded hops array (§3.1: "delta encoded").
                4 + STATIC_EXCERPT_BYTES
                    + constraints_bytes(&m.constraints)
                    + path_bytes(m.path.len())
                    + m.path.len() as u32
            }
            Msg::Nominate(m) => {
                let n = m.path.nodes.len();
                12 + path_bytes(n) + n as u32
            }
            Msg::Assign(m) => 10 + path_bytes(m.path.nodes.len()),
            Msg::Data { route, .. } => {
                // Established flows route on cached state (flow buffers /
                // path vectors installed during initiation), so data
                // messages carry only a 2-byte flow id, not the full path.
                let route_overhead = match route {
                    Route::TreeUp => 0,
                    Route::Path { .. } => 2,
                    Route::Mcast { .. } => 2, // owner id; tree state is cached
                };
                data_bytes + 1 + route_overhead
            }
            Msg::Result { count, .. } => 4 + *count as u32 * result_bytes,
            Msg::WindowXfer(m) => {
                14 + m.win.len() as u32 * data_bytes + path_bytes(m.path.nodes.len())
            }
            Msg::McastSetup(m) => {
                let state: u32 = m.edges.iter().map(|(_, cs)| 2 + 2 * cs.len() as u32).sum();
                2 + state
            }
            Msg::Probe => 2,
        }
    }

    /// The route of a kind bound for a known end. `Announce` and `Result`
    /// carry none: they only ever travel up the tree to the base. The
    /// other kinds are never relayed.
    pub(crate) fn route_mut(&mut self) -> Option<&mut Route> {
        match self {
            Msg::Ctl { route, .. } | Msg::Data { route, .. } => Some(route),
            Msg::Nominate(m) => Some(&mut m.route),
            Msg::Assign(m) => Some(&mut m.route),
            Msg::WindowXfer(m) => Some(&mut m.route),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_partner() {
        let p = Pair::new(NodeId(1), NodeId(2));
        assert_eq!(p.partner_of(NodeId(1)), NodeId(2));
        assert_eq!(p.partner_of(NodeId(2)), NodeId(1));
    }

    #[test]
    fn path_encoding_size() {
        assert_eq!(path_bytes(0), 0);
        assert_eq!(path_bytes(1), 2);
        assert_eq!(path_bytes(5), 6);
    }

    #[test]
    fn data_message_sizes() {
        let d = Msg::Data {
            from: NodeId(1),
            sides: side::S,
            tuple: Tuple::new(NodeId(1), 0).into(),
            route: Route::TreeUp,
            fallback: None,
        };
        assert_eq!(d.wire_bytes(6, 10), 7);
        let d2 = Msg::Data {
            from: NodeId(1),
            sides: side::S,
            tuple: Tuple::new(NodeId(1), 0).into(),
            route: Route::whole(vec![NodeId(1), NodeId(2), NodeId(3)].into()),
            fallback: None,
        };
        assert!(d2.wire_bytes(6, 10) > d.wire_bytes(6, 10));
    }

    #[test]
    fn merged_results_cheaper_than_separate() {
        let merged = Msg::Result {
            count: 3,
            gen_cycle: 0,
        };
        let single = Msg::Result {
            count: 1,
            gen_cycle: 0,
        };
        assert!(merged.wire_bytes(6, 10) < 3 * single.wire_bytes(6, 10));
    }

    #[test]
    fn window_transfer_scales_with_window() {
        // Both sides count: n tuples, alternating S and T.
        let mk = |n: u32| {
            let mut win = WindowJoin::default();
            for c in 0..n {
                let sd = if c % 2 == 0 { side::S } else { side::T };
                win.push(sd, Tuple::new(NodeId(1), c), n as usize);
            }
            Msg::WindowXfer(Box::new(WindowXfer {
                pair: Pair::new(NodeId(1), NodeId(2)),
                path: PairPath::pinned(0),
                assumed: Sigma::new(1.0, 1.0, 1.0),
                win,
                route: Route::TreeUp,
            }))
        };
        assert_eq!(mk(4).wire_bytes(6, 10) - mk(0).wire_bytes(6, 10), 24);
    }

    /// Each path-routed control kind pays its own payload constant plus
    /// the delta-encoded path (6 bytes for 5 nodes); the goldens see only
    /// per-node totals, so this pins every kind's size on its own.
    #[test]
    fn control_message_sizes() {
        let path: Vec<NodeId> = (1..=5).map(NodeId).collect();
        let n = NodeId(1);
        let ctl = |ctl| Msg::Ctl {
            route: Route::Path {
                path: path.as_slice().into(),
                start: 0,
                pos: 1,
                end: 4,
            },
            ctl,
        };
        let cases = [
            (ctl(Ctl::Verdict { participate: true }), 7),
            (
                ctl(Ctl::GhtRegister(Box::new(GhtRegister {
                    origin: n,
                    sides: side::S,
                    key: 0,
                    statics: Tuple::new(n, 0),
                }))),
                25,
            ),
            (
                ctl(Ctl::DeltaCost(Box::new(DeltaCost {
                    group: 0,
                    from: n,
                    members: path[..3].to_vec(),
                    delta: 0.0,
                }))),
                22,
            ),
            (
                ctl(Ctl::CoordPing {
                    group: 0,
                    coordinator: n,
                }),
                14,
            ),
            (
                ctl(Ctl::GroupDecision {
                    group: 0,
                    seq: 0,
                    innet: true,
                }),
                18,
            ),
            (
                ctl(Ctl::CollapseHint {
                    owner: n,
                    n1: n,
                    n2: n,
                }),
                14,
            ),
            (ctl(Ctl::RouteBroken { failed: n }), 14),
            // A route-broken notice walking a data route back from its
            // third node to its first pays for the three nodes it walks.
            (
                Msg::Ctl {
                    route: Route::along(path.as_slice().into(), 2, 0),
                    ctl: Ctl::RouteBroken { failed: n },
                },
                12,
            ),
        ];
        for (msg, bytes) in cases {
            assert_eq!(msg.wire_bytes(6, 10), bytes, "{msg:?}");
        }
    }

    /// Every kind that travels toward a known end, on each route it takes,
    /// on the same 5-node path: what a route costs on the wire is its
    /// kind's own formula, so a change to how messages are routed must
    /// leave every figure here alone.
    #[test]
    fn routed_message_sizes() {
        let path: Vec<NodeId> = (1..=5).map(NodeId).collect();
        let on_path = || Route::Path {
            path: path.as_slice().into(),
            start: 0,
            pos: 1,
            end: 4,
        };
        let (s, t) = (path[0], path[4]);
        let pair = Pair::new(s, t);
        let nominate = |j_idx| {
            Msg::Nominate(Box::new(Nominate {
                pair,
                path: PairPath {
                    seq: 1,
                    nodes: path.as_slice().into(),
                    j: j_idx,
                },
                assumed: Sigma::new(1.0, 1.0, 1.0),
                route: match j_idx {
                    Some(_) => on_path(),
                    None => Route::TreeUp,
                },
            }))
        };
        let assign = |j_idx: Option<u16>, dest: NodeId| {
            let nodes: Arc<[NodeId]> = path.as_slice().into();
            let route = match j_idx {
                Some(j) if dest == s => Route::along(nodes.clone(), j as usize, 0),
                Some(j) => Route::along(nodes.clone(), j as usize, 4),
                None => Route::whole(nodes.clone()),
            };
            Msg::Assign(Box::new(Assign {
                pair,
                path: PairPath {
                    seq: 1,
                    nodes,
                    j: j_idx,
                },
                route,
            }))
        };
        let xfer = |route| {
            let mut win = WindowJoin::default();
            win.push(side::S, Tuple::new(s, 0), 2);
            win.push(side::T, Tuple::new(t, 0), 2);
            Msg::WindowXfer(Box::new(WindowXfer {
                pair,
                path: PairPath {
                    seq: 1,
                    nodes: path.as_slice().into(),
                    j: Some(2),
                },
                assumed: Sigma::new(1.0, 1.0, 1.0),
                win,
                route,
            }))
        };
        let data = |route| Msg::Data {
            from: s,
            sides: side::S,
            tuple: Tuple::new(s, 0).into(),
            route,
            fallback: None,
        };
        let cases = [
            (nominate(Some(2)), 23),
            (nominate(None), 23),
            (assign(Some(2), s), 16),
            (assign(Some(2), t), 16),
            (assign(None, s), 16),
            (xfer(Route::TreeUp), 32),
            (xfer(on_path()), 32),
            (
                Msg::Announce {
                    origin: s,
                    sides: side::S | side::T,
                },
                11,
            ),
            (
                Msg::Result {
                    count: 3,
                    gen_cycle: 0,
                },
                34,
            ),
            (data(Route::TreeUp), 7),
            (data(on_path()), 9),
            (data(Route::Mcast { owner: s }), 9),
        ];
        for (msg, bytes) in cases {
            assert_eq!(msg.wire_bytes(6, 10), bytes, "{msg:?}");
        }
    }

    /// Every hop moves a `Msg` by value through the sink, the wrapper and
    /// the pool: 48 bytes leave room for the 8-byte query tag of a
    /// `MultiMsg` and the pool's refcount within one 64-byte line. The
    /// control payloads stay behind a `Box`, the sampled tuple behind an
    /// `Arc`, and path positions are `u32`.
    #[test]
    fn hot_message_stays_small() {
        assert!(
            std::mem::size_of::<Msg>() <= 48,
            "Msg is {} bytes",
            std::mem::size_of::<Msg>()
        );
    }
}
