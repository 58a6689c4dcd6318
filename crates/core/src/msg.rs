//! Protocol messages exchanged by the join algorithms, with wire-size
//! accounting.
//!
//! Sizes model the mote implementation: 16-bit attributes, delta-encoded
//! path vectors (§3.1), compact control messages. The link header is added
//! by the simulator.

use crate::cost::Sigma;
use crate::node::WindowJoin;
use sensor_net::NodeId;
use sensor_query::Tuple;
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
    /// Follow an explicit node path to its last node; `pos` indexes the
    /// current node. The path is shared: a hop advances `pos` and passes
    /// the same vector on.
    Path { path: Arc<[NodeId]>, pos: u32 },
    /// Follow the sender's installed multicast tree (state pushed by
    /// `McastSetup`).
    Mcast { owner: NodeId },
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
    pub constraints: Vec<(u8, Constraint)>,
    /// Nodes visited so far (ends with the current hop's sender).
    pub path: Vec<NodeId>,
    /// Primary-tree base distance of each node on `path`.
    pub hops: Vec<u16>,
}

/// t → j: nominate a join node for the pair (§3.2).
#[derive(Debug, Clone)]
pub struct Nominate {
    pub pair: Pair,
    pub seq: u32,
    /// Full s..t path the pair will use.
    pub path: Vec<NodeId>,
    pub hops: Vec<u16>,
    /// Index of the join node on `path`; `None` = join at base.
    pub j_idx: Option<usize>,
    pub assumed: Sigma,
    /// Back along `path` from t to the join node, or up the tree for an
    /// at-base nomination.
    pub route: Route,
}

/// j → producer: the pair assignment.
#[derive(Debug, Clone)]
pub struct Assign {
    pub pair: Pair,
    pub seq: u32,
    /// What the producer adopts: the s..t path for an on-path assign, the
    /// base→producer tree path (also its route) for an at-base one.
    pub path: Vec<NodeId>,
    pub j_idx: Option<u32>,
    /// Along `path` from the join node to the producer, or down the tree
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
    pub seq: u32,
    pub path: Vec<NodeId>,
    pub hops: Vec<u16>,
    pub new_j_idx: Option<usize>,
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
/// `Data` sits behind an `Arc` made once per sample, and path positions
/// are `u32`. The tagged frame around it then fits one cache line (see
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
pub(crate) fn wire_pos(i: usize) -> u32 {
    u32::try_from(i).expect("path index fits in u32")
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
                let hops = match route {
                    Route::Path { path, .. } => path.len(),
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
            Msg::Nominate(m) => 12 + path_bytes(m.path.len()) + m.path.len() as u32,
            Msg::Assign(m) => 10 + path_bytes(m.path.len()),
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
            Msg::WindowXfer(m) => 14 + m.win.len() as u32 * data_bytes + path_bytes(m.path.len()),
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
            route: Route::Path {
                path: vec![NodeId(1), NodeId(2), NodeId(3)].into(),
                pos: 0,
            },
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
                seq: 0,
                path: vec![],
                hops: vec![],
                new_j_idx: None,
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
                pos: 1,
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
            pos: 1,
        };
        let (s, t) = (path[0], path[4]);
        let pair = Pair::new(s, t);
        let nominate = |j_idx| {
            Msg::Nominate(Box::new(Nominate {
                pair,
                seq: 1,
                path: path.clone(),
                hops: vec![3, 2, 1, 2, 3],
                j_idx,
                assumed: Sigma::new(1.0, 1.0, 1.0),
                route: match j_idx {
                    Some(_) => on_path(),
                    None => Route::TreeUp,
                },
            }))
        };
        let assign = |j_idx: Option<u32>, dest: NodeId| {
            let j = j_idx.unwrap_or(0) as usize;
            let route: Arc<[NodeId]> = match j_idx {
                Some(_) if dest == s => path[..=j].iter().rev().copied().collect(),
                _ => path[j..].into(),
            };
            Msg::Assign(Box::new(Assign {
                pair,
                seq: 1,
                path: path.clone(),
                j_idx,
                route: Route::Path {
                    path: route,
                    pos: 1,
                },
            }))
        };
        let xfer = |route| {
            let mut win = WindowJoin::default();
            win.push(side::S, Tuple::new(s, 0), 2);
            win.push(side::T, Tuple::new(t, 0), 2);
            Msg::WindowXfer(Box::new(WindowXfer {
                pair,
                seq: 1,
                path: path.clone(),
                hops: vec![3, 2, 1, 2, 3],
                new_j_idx: Some(2),
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
