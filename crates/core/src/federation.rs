//! Federation: cross-network join queries over multiple member sessions.
//!
//! The paper optimizes joins *inside* one multi-hop network; a
//! [`Federation`] takes the next scale step. It owns N member
//! [`Session`]s — each a full network with its own topology, density,
//! workload and loss profile — and a set of declared
//! [`GatewayLink`]s: a designated node in one network bridged to a
//! designated node in another over a long-haul link with its own loss,
//! latency and byte budget.
//!
//! A **cross-network join graph** is admitted with a *home* member per
//! relation ([`Federation::admit_cross`]). The graph is partitioned into
//! per-member induced subgraphs; each member's sub-join is planned and
//! executed in-network by its own session (the paper's machinery,
//! unchanged), and the *crossing edge* is routed through the cheapest
//! gateway: for every candidate link the federation prices
//! deliver-to-gateway (the member DP re-run with the gateway as the
//! delivery sink, [`optimize_to`]), the bridge crossing itself
//! ([`GatewayLink::crossing_cost_at_rate`] at the sub-join's estimated
//! output rate), and the root-side haul from the far gateway to the root
//! sub-join's site. Learned σ feeds replanning exactly as in-network
//! joins do: [`Federation::maybe_replan`] lets every member re-optimize
//! its sub-plan (§6 generalized), and a changed output rate re-runs the
//! gateway choice — a stream that grew past a link's budget migrates to
//! a roomier bridge.
//!
//! **Determinism across networks is part of the contract.** Member
//! sessions are stepped one cycle at a time in member-index order;
//! gateway transfers are enqueued and delivered at cycle boundaries in
//! fixed route-creation order; every channel owns a private RNG stream
//! seeded from the federation seed and the route serial. No thread
//! interleaving can reorder inter-network deliveries.
//!
//! The ship-everything-to-one-base baseline ([`CrossMode::ShipBase`])
//! keeps the same gateway plumbing but crosses the member's *raw*
//! constituent streams (joined nowhere until the root base), which is
//! what the federation experiment measures gateway-routed joins against.

use crate::control::ControlError;
use crate::optimize::{optimize_to, Plan, PlanNode, PlanSpace};
use crate::session::{GraphId, Outcome, QueryId, Session};
use crate::shared::{AlgoConfig, Algorithm};
use sensor_net::gateway::{Delivered, Direction, DirectionStats, GatewayChannel, GatewayLink};
use sensor_net::NodeId;
use sensor_query::graph::JoinGraph;
use sensor_query::TupleSource;

/// Bytes of one cross-network result tuple on a gateway link (projected
/// attributes + provenance ids + bridge framing).
pub const CROSS_TUPLE_BYTES: u64 = 24;

/// Fixed part of a boundary summary (schema digest + window descriptor).
const SUMMARY_HEADER_BYTES: u64 = 16;
/// Per-node contribution to a boundary summary (one interval per node).
const SUMMARY_PER_NODE_BYTES: u64 = 2;

/// How a cross-network query routes its crossing streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossMode {
    /// Join in-network per member; only the joined sub-stream crosses the
    /// cheapest gateway (the federation's contribution).
    Gateway,
    /// Ship every raw constituent tuple of non-root members across the
    /// gateway and join at the root base — the classic centralized
    /// baseline, extended across networks.
    ShipBase,
}

/// Handle of one admitted cross-network query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossId(pub usize);

struct Member {
    name: String,
    session: Session,
}

/// One member's share of a cross-network query.
struct CrossPart {
    member: usize,
    gid: GraphId,
    /// The sub-plan's root skeleton query — its base-delivered results
    /// *are* the member's joined output stream.
    root_query: QueryId,
    last_results: u64,
    /// Route feeding this part's stream toward the root member
    /// (`None` for the root part). Index into `Federation::channels`.
    channel: Option<usize>,
    /// Measured raw constituent-stream rate (tuples/cycle averaged over
    /// the first 16 cycles) — prices ship-to-base route selection.
    raw_rate: f64,
}

struct CrossEntry {
    parts: Vec<CrossPart>,
    root_member: usize,
    mode: CrossMode,
    results: u64,
    replans: u64,
}

/// One live routed stream over a declared link. Channels are never
/// reused across routes so per-route delivery attribution is exact; a
/// re-routed stream deactivates its old channel (no new enqueues) but
/// keeps ticking it until the in-flight tail drains.
struct RouteChannel {
    link: usize,
    entry: usize,
    dir: Direction,
    ch: GatewayChannel,
    active: bool,
}

/// Assembles a [`Federation`]: named member sessions plus gateway links.
pub struct FederationBuilder {
    members: Vec<Member>,
    links: Vec<GatewayLink>,
    seed: u64,
}

impl Default for FederationBuilder {
    fn default() -> Self {
        FederationBuilder::new()
    }
}

impl FederationBuilder {
    pub fn new() -> Self {
        FederationBuilder {
            members: Vec::new(),
            links: Vec::new(),
            seed: 0,
        }
    }

    /// Seed for gateway loss draws (member sessions keep their own seeds).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Add a member network. Member indices are assignment order.
    pub fn member(mut self, name: impl Into<String>, session: Session) -> Self {
        self.members.push(Member {
            name: name.into(),
            session,
        });
        self
    }

    /// Declare a gateway pair. Both endpoints must name existing nodes of
    /// their member networks.
    pub fn link(mut self, link: GatewayLink) -> Self {
        self.links.push(link);
        self
    }

    /// The members and no link yet: a federation that takes
    /// [`Federation::add_link`]s until it first runs (a wire `FEDOPEN`).
    pub(crate) fn open(self) -> Federation {
        Federation {
            members: self.members,
            links: Vec::new(),
            summary_bytes: Vec::new(),
            channels: Vec::new(),
            cross: Vec::new(),
            seed: self.seed,
            cycle: 0,
            frozen: false,
        }
    }

    /// Add the links, then freeze the link set (one boundary-summary
    /// exchange).
    ///
    /// # Panics
    /// If a link references an unknown member or an out-of-range node.
    pub fn build(mut self) -> Federation {
        let links = std::mem::take(&mut self.links);
        let mut fed = self.open();
        for (i, l) in links.into_iter().enumerate() {
            if let Err(e) = fed.add_link(l) {
                panic!("link {i}: {e}");
            }
        }
        fed.freeze();
        fed
    }
}

/// N member sessions over heterogeneous networks, bridged by gateway
/// links, executing cross-network join queries. See the [module
/// docs](self) for the planning and determinism model.
pub struct Federation {
    members: Vec<Member>,
    links: Vec<GatewayLink>,
    /// Per-link accumulated boundary-summary traffic (bytes, both
    /// directions, ETX-weighted).
    summary_bytes: Vec<u64>,
    channels: Vec<RouteChannel>,
    cross: Vec<CrossEntry>,
    seed: u64,
    cycle: u64,
    /// Set by the first admission or step; the link set is fixed from
    /// then on.
    frozen: bool,
}

impl Federation {
    pub fn builder() -> FederationBuilder {
        FederationBuilder::new()
    }

    /// Declare a gateway pair; returns its index. The one home of link
    /// validation: both endpoints must name existing nodes of two
    /// different members, and the federation must not have run yet.
    pub(crate) fn add_link(&mut self, link: GatewayLink) -> Result<usize, ControlError> {
        if self.frozen {
            let msg = "links are fixed once the federation is running";
            return Err(ControlError::State(msg.into()));
        }
        let members = self.members.len();
        let nodes = |net: usize| self.members[net].session.topology().len();
        let bad = if link.a_net >= members || link.b_net >= members {
            format!("link endpoints must name members 0..{members}")
        } else if link.a_net == link.b_net {
            "a link must bridge two different members".into()
        } else if link.a_node.index() >= nodes(link.a_net) {
            format!("gateway nodes must be < {}", nodes(link.a_net))
        } else if link.b_node.index() >= nodes(link.b_net) {
            format!("gateway nodes must be < {}", nodes(link.b_net))
        } else {
            self.links.push(link);
            self.summary_bytes.push(0);
            return Ok(self.links.len() - 1);
        };
        Err(ControlError::Fed(bad))
    }

    /// Fix the link set and exchange boundary summaries, once.
    fn freeze(&mut self) {
        if !self.frozen {
            self.frozen = true;
            self.exchange_summaries();
        }
    }

    /// Exchange boundary summaries over every link, both directions: each
    /// side ships a digest of its network (header + one interval per
    /// node), ETX-weighted for the bridge's loss. Runs when the link set
    /// freezes and after every cross-network admission, mirroring the
    /// in-network initiation phase's summary dissemination.
    fn exchange_summaries(&mut self) {
        for (i, l) in self.links.iter().enumerate() {
            let a = self.members[l.a_net].session.topology().len() as u64;
            let b = self.members[l.b_net].session.topology().len() as u64;
            let payload = 2 * SUMMARY_HEADER_BYTES + SUMMARY_PER_NODE_BYTES * (a + b);
            self.summary_bytes[i] += (payload as f64 * l.etx()).ceil() as u64;
        }
    }

    /// Admit a cross-network join graph. `homes[r]` is the member network
    /// hosting relation `r`; relation 0's member is the **root**: final
    /// results are delivered to its base. Every participating member's
    /// induced share must itself be a valid join graph (≥ 2 relations,
    /// connected), and every non-root participant needs at least one
    /// declared link to the root member.
    ///
    /// In [`CrossMode::Gateway`] each share runs the paper's in-network
    /// machinery and its joined output stream crosses the cheapest
    /// gateway; in [`CrossMode::ShipBase`] shares run grouped-at-base
    /// ([`Algorithm::Naive`]) and the raw constituent streams cross.
    pub fn admit_cross(
        &mut self,
        graph: &JoinGraph,
        homes: &[usize],
        cfg: AlgoConfig,
        mode: CrossMode,
    ) -> Result<CrossId, String> {
        if self.links.is_empty() {
            return Err("declare at least one LINK before admitting".into());
        }
        self.freeze();
        if homes.len() != graph.n_relations() {
            return Err(format!(
                "homes has {} entries for {} relations",
                homes.len(),
                graph.n_relations()
            ));
        }
        if let Some(&bad) = homes.iter().find(|&&m| m >= self.members.len()) {
            return Err(format!("home member {bad} does not exist"));
        }
        let root_member = homes[0];
        // Participating members in ascending index order, root included.
        let mut participants: Vec<usize> = homes.to_vec();
        participants.sort_unstable();
        participants.dedup();

        let mut parts = Vec::with_capacity(participants.len());
        for &m in &participants {
            let rels: Vec<usize> = (0..graph.n_relations())
                .filter(|&r| homes[r] == m)
                .collect();
            let sub = induced_subgraph(graph, &rels, &self.members[m].name)?;
            let mut part_cfg = cfg;
            if mode == CrossMode::ShipBase {
                part_cfg.algorithm = Algorithm::Naive;
            }
            let gid = self.members[m].session.admit_graph(&sub, part_cfg);
            let session = &self.members[m].session;
            let root_query = *session
                .graph_queries(gid)
                .last()
                .expect("a valid graph plan has at least one skeleton edge");
            let measured: u64 = (0..16)
                .map(|c| raw_count(session, session.graph_of(gid), c))
                .sum();
            parts.push(CrossPart {
                member: m,
                gid,
                root_query,
                last_results: session.query_results(root_query),
                channel: None,
                raw_rate: measured as f64 / 16.0,
            });
        }

        let entry_idx = self.cross.len();
        let mut entry = CrossEntry {
            parts,
            root_member,
            mode,
            results: 0,
            replans: 0,
        };
        for pi in 0..entry.parts.len() {
            if entry.parts[pi].member == root_member {
                continue;
            }
            let (link, dir) = self.choose_route(&entry, pi)?;
            entry.parts[pi].channel = Some(self.open_channel(link, entry_idx, dir));
        }
        self.cross.push(entry);
        self.exchange_summaries();
        Ok(CrossId(entry_idx))
    }

    /// Cheapest gateway for part `pi`'s stream toward the root member:
    /// member-side delivery to the gateway (the DP re-run with the gateway
    /// as sink), the bridge crossing at the stream's estimated byte rate,
    /// and the root-side haul from the far gateway to the root sub-join's
    /// site (its base in ship-to-base mode). Ties go to the lowest link
    /// index.
    fn choose_route(&self, entry: &CrossEntry, pi: usize) -> Result<(usize, Direction), String> {
        let part = &entry.parts[pi];
        let m = part.member;
        let root = entry.root_member;
        let msession = &self.members[m].session;
        let rsession = &self.members[root].session;
        let rate = match entry.mode {
            CrossMode::Gateway => plan_out_rate(msession.graph_plan(part.gid)),
            CrossMode::ShipBase => part.raw_rate,
        };
        // Root-side target: where the crossing stream must arrive.
        let root_part = entry
            .parts
            .iter()
            .find(|p| p.member == root)
            .expect("root member always participates");
        let root_target = match entry.mode {
            CrossMode::Gateway => rsession.graph_plan(root_part.gid).root_site,
            CrossMode::ShipBase => rsession.topology().base(),
        };

        let candidates: Vec<usize> = (0..self.links.len())
            .filter(|&i| self.links[i].connects(m, root))
            .collect();
        if candidates.is_empty() {
            return Err(format!(
                "no gateway link between member {m} and root member {root}"
            ));
        }
        // Member-side spaces are built once with *all* candidate gateways
        // forced in, so every candidate is priced on the same site set.
        let m_gateways: Vec<NodeId> = candidates
            .iter()
            .map(|&i| self.links[i].node_in(m).expect("candidate touches m"))
            .collect();
        let r_gateways: Vec<NodeId> = candidates
            .iter()
            .map(|&i| self.links[i].node_in(root).expect("candidate touches root"))
            .collect();
        let sub = msession.graph_of(part.gid).clone();
        let m_space = PlanSpace::build_with_gateways(
            msession.topology(),
            msession.workload(),
            &sub,
            &m_gateways,
        );
        let r_sub = rsession.graph_of(root_part.gid).clone();
        let r_space = PlanSpace::build_with_gateways(
            rsession.topology(),
            rsession.workload(),
            &r_sub,
            &r_gateways,
        );
        let sigmas = msession.graph_plan(part.gid).sigmas.clone();

        let mut best: Option<(usize, f64)> = None;
        for (k, &li) in candidates.iter().enumerate() {
            let l = &self.links[li];
            let member_side = match entry.mode {
                // Deliver the joined stream from wherever the DP computes
                // it to this gateway.
                CrossMode::Gateway => optimize_to(&sub, &sigmas, &m_space, m_gateways[k]).cost,
                // Raw streams ship producer → member base → gateway.
                CrossMode::ShipBase => {
                    rate * m_space
                        .hops_between(msession.topology().base(), m_gateways[k])
                        .unwrap_or(f64::INFINITY)
                }
            };
            let crossing = rate * l.crossing_cost_at_rate(rate * CROSS_TUPLE_BYTES as f64);
            let root_side = rate
                * r_space
                    .hops_between(r_gateways[k], root_target)
                    .unwrap_or(f64::INFINITY);
            let cost = member_side + crossing + root_side;
            if best.is_none_or(|(_, bc)| cost < bc - 1e-12) {
                best = Some((li, cost));
            }
        }
        let (li, cost) = best.expect("candidates is non-empty");
        if !cost.is_finite() {
            return Err(format!(
                "every gateway between member {m} and root member {root} is unreachable"
            ));
        }
        let l = &self.links[li];
        let dir = if l.a_net == m {
            Direction::AToB
        } else {
            Direction::BToA
        };
        Ok((li, dir))
    }

    /// Open a fresh channel on declared link `link` for `entry`'s stream.
    fn open_channel(&mut self, link: usize, entry: usize, dir: Direction) -> usize {
        let serial = self.channels.len() as u64;
        let seed = self
            .seed
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ serial.wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ (link as u64);
        self.channels.push(RouteChannel {
            link,
            entry,
            dir,
            ch: GatewayChannel::new(self.links[link].clone(), seed),
            active: true,
        });
        self.channels.len() - 1
    }

    /// Advance `n` federation cycles. Each cycle: every member session
    /// steps one sampling cycle (member-index order), then crossing
    /// streams are enqueued and gateway deliveries drained in fixed
    /// route-creation order — the inter-network delivery order is part of
    /// the determinism contract.
    pub fn step(&mut self, n: u32) {
        self.freeze();
        for _ in 0..n {
            for mem in &mut self.members {
                mem.session.step(1);
            }
            let now = self.cycle;
            let Federation {
                members,
                channels,
                cross,
                ..
            } = self;
            for entry in cross.iter_mut() {
                for part in entry.parts.iter_mut() {
                    let session = &members[part.member].session;
                    let joined = session.query_results(part.root_query);
                    let joined_delta = joined - part.last_results;
                    part.last_results = joined;
                    let Some(ci) = part.channel else {
                        continue; // the root part's stream stays in-network
                    };
                    match entry.mode {
                        CrossMode::Gateway => {
                            if channels[ci].active && joined_delta > 0 {
                                let dir = channels[ci].dir;
                                channels[ci]
                                    .ch
                                    .enqueue(dir, now, joined_delta, CROSS_TUPLE_BYTES);
                            }
                        }
                        CrossMode::ShipBase => {
                            // Every raw constituent tuple the share's
                            // relations produced this cycle crosses; the
                            // join happens only at the root base, so the
                            // joined count books as cross-network results
                            // directly.
                            let raw = raw_count(session, session.graph_of(part.gid), now as u32);
                            if channels[ci].active && raw > 0 {
                                let dir = channels[ci].dir;
                                channels[ci].ch.enqueue(dir, now, raw, CROSS_TUPLE_BYTES);
                            }
                            entry.results += joined_delta;
                        }
                    }
                }
            }
            for rc in channels.iter_mut() {
                let got: Delivered = rc.ch.tick(rc.dir, now);
                if cross[rc.entry].mode == CrossMode::Gateway {
                    // Every joined tuple surviving the bridge is stitched
                    // against the root-side stream: one cross-network
                    // result each.
                    cross[rc.entry].results += got.tuples;
                }
            }
            self.cycle += 1;
        }
    }

    /// §6 across networks: let every member re-optimize its share of
    /// cross query `id` against learned σ ([`Session::maybe_replan`]);
    /// any replanned share re-runs the gateway choice at its new output
    /// rate, migrating the stream to a cheaper bridge when one exists.
    /// Returns whether anything replanned.
    pub fn maybe_replan(&mut self, id: CrossId) -> bool {
        let n_parts = self.cross[id.0].parts.len();
        let mut any = false;
        for pi in 0..n_parts {
            let (member, gid) = {
                let p = &self.cross[id.0].parts[pi];
                (p.member, p.gid)
            };
            if !self.members[member].session.maybe_replan(gid) {
                continue;
            }
            any = true;
            self.cross[id.0].replans += 1;
            // The replanned skeleton may be a different set of pairwise
            // queries; re-resolve the output stream.
            let session = &self.members[member].session;
            let root_query = *session
                .graph_queries(gid)
                .last()
                .expect("replanned graph keeps a skeleton");
            let last = session.query_results(root_query);
            {
                let p = &mut self.cross[id.0].parts[pi];
                p.root_query = root_query;
                p.last_results = last;
            }
            if member == self.cross[id.0].root_member {
                continue;
            }
            let (link, dir) = self
                .choose_route(&self.cross[id.0], pi)
                .expect("an admitted route stays routable");
            let old = self.cross[id.0].parts[pi]
                .channel
                .expect("non-root part is routed");
            if self.channels[old].link != link {
                // Migrate: stop feeding the old channel (it keeps ticking
                // until its in-flight tail drains) and open a new one.
                self.channels[old].active = false;
                let ci = self.open_channel(link, id.0, dir);
                self.cross[id.0].parts[pi].channel = Some(ci);
            }
        }
        any
    }

    /// Drain every member and assemble the federation report.
    pub fn report(&mut self) -> FederationOutcome {
        let members: Vec<MemberReport> = self
            .members
            .iter_mut()
            .map(|m| {
                let outcome = m.session.report();
                MemberReport {
                    name: m.name.clone(),
                    nodes: m.session.topology().len(),
                    outcome,
                }
            })
            .collect();
        let gateways: Vec<GatewayReport> = self
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let mut a_to_b = DirectionStats::default();
                let mut b_to_a = DirectionStats::default();
                let mut in_flight = 0;
                for rc in self.channels.iter().filter(|rc| rc.link == i) {
                    absorb_dir(&mut a_to_b, rc.ch.stats(Direction::AToB));
                    absorb_dir(&mut b_to_a, rc.ch.stats(Direction::BToA));
                    in_flight +=
                        rc.ch.in_flight(Direction::AToB) + rc.ch.in_flight(Direction::BToA);
                }
                GatewayReport {
                    link: l.clone(),
                    a_to_b,
                    b_to_a,
                    in_flight,
                    summary_bytes: self.summary_bytes[i],
                }
            })
            .collect();
        FederationOutcome {
            members,
            gateways,
            cycles: self.cycle,
            cross_results: self.cross.iter().map(|c| c.results).sum(),
            replans: self.cross.iter().map(|c| c.replans).sum(),
        }
    }
}

fn absorb_dir(acc: &mut DirectionStats, s: DirectionStats) {
    acc.entered += s.entered;
    acc.delivered += s.delivered;
    acc.dropped += s.dropped;
    acc.bytes_entered += s.bytes_entered;
    acc.bytes_delivered += s.bytes_delivered;
}

/// Estimated output rate (tuples/cycle) of a member sub-plan: the root
/// join's Selinger rate.
fn plan_out_rate(plan: &Plan) -> f64 {
    match &plan.tree {
        PlanNode::Join { out_rate, .. } => *out_rate,
        PlanNode::Leaf { .. } => unreachable!("admitted graphs have at least one join"),
    }
}

/// Actual raw constituent tuples a member's share produces at `cycle`:
/// every non-base node whose sample passes a share relation's selection,
/// summed over the share's relations. [`TupleSource::sample`] is a pure
/// function of `(node, cycle)`, so this replays the member's own data
/// trace rather than drawing from a second RNG.
fn raw_count(session: &Session, sub: &JoinGraph, cycle: u32) -> u64 {
    let topo = session.topology();
    let data = session.workload();
    let base = topo.base();
    let mut n = 0u64;
    for rel in &sub.relations {
        for node in topo.node_ids() {
            if node == base {
                continue;
            }
            let passes = match &rel.selection {
                Some(sel) => {
                    let t = data.sample(node, cycle);
                    sel.eval(Some(&t), None).unwrap_or(false)
                }
                None => true,
            };
            n += passes as u64;
        }
    }
    n
}

/// The induced subgraph of `graph` over global relation indices `rels`
/// (ascending): kept edges are those with both endpoints inside, with
/// indices remapped. Fails when the share is not itself a valid join
/// graph (a single relation, a cross product, or a disconnected share).
fn induced_subgraph(graph: &JoinGraph, rels: &[usize], member: &str) -> Result<JoinGraph, String> {
    let local = |r: usize| rels.iter().position(|&x| x == r);
    let relations = rels.iter().map(|&r| graph.relations[r].clone()).collect();
    let edges = graph
        .edges
        .iter()
        .filter_map(|e| {
            Some(sensor_query::graph::JoinEdge {
                a: local(e.a)?,
                b: local(e.b)?,
                predicate: e.predicate.clone(),
            })
        })
        .collect();
    let mut select: Vec<(usize, sensor_query::schema::AttrId)> = graph
        .select
        .iter()
        .filter_map(|&(r, a)| Some((local(r)?, a)))
        .collect();
    if select.is_empty() {
        // The parent's projection lives on another member; project the
        // first local relation's join attribute so the share still emits
        // a stream.
        select = vec![(0, graph.select.first().map(|&(_, a)| a).unwrap_or(0))];
    }
    JoinGraph::new(
        format!("{}:{member}", graph.name),
        relations,
        edges,
        select,
        graph.window,
        graph.sample_interval,
    )
    .map_err(|e| format!("member {member}'s share is not a valid join graph: {e}"))
}

/// One member network's rows of a federation report.
#[derive(Debug, Clone)]
pub struct MemberReport {
    pub name: String,
    pub nodes: usize,
    pub outcome: Outcome,
}

/// One gateway link's traffic counters, aggregated over every stream
/// routed across it (plus boundary-summary exchange bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayReport {
    pub link: GatewayLink,
    pub a_to_b: DirectionStats,
    pub b_to_a: DirectionStats,
    /// Tuples still inside the bridge when the report was taken.
    pub in_flight: u64,
    pub summary_bytes: u64,
}

impl GatewayReport {
    /// Bytes offered onto the bridge, both directions, including the
    /// boundary-summary exchange.
    pub fn xfer_bytes(&self) -> u64 {
        self.a_to_b.bytes_entered + self.b_to_a.bytes_entered + self.summary_bytes
    }

    /// Tuples that crossed, both directions.
    pub fn tuples_delivered(&self) -> u64 {
        self.a_to_b.delivered + self.b_to_a.delivered
    }
}

/// The federation's unified report: per-network rows plus gateway
/// traffic counters. Encodes to one wire line for `FEDREPORT`.
#[derive(Debug, Clone)]
pub struct FederationOutcome {
    pub members: Vec<MemberReport>,
    pub gateways: Vec<GatewayReport>,
    pub cycles: u64,
    /// Stitched cross-network result tuples, summed over cross queries.
    pub cross_results: u64,
    /// Member sub-plan replans triggered by learned σ divergence.
    pub replans: u64,
}

impl FederationOutcome {
    /// In-network bytes transmitted across every member.
    pub fn member_traffic_bytes(&self) -> u64 {
        self.members
            .iter()
            .map(|m| m.outcome.total_traffic_bytes())
            .sum()
    }

    /// Bytes offered onto gateway links (summaries included).
    pub fn gateway_bytes(&self) -> u64 {
        self.gateways.iter().map(GatewayReport::xfer_bytes).sum()
    }

    /// Everything the federation moved: in-network plus gateway bytes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.member_traffic_bytes() + self.gateway_bytes()
    }

    /// The wire form served by `FEDREPORT`: one line, `esc`-quoted member
    /// names, fixed field order — byte-identical across serve shard
    /// counts by construction.
    pub fn summary_line(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "FED cycles={} cross_results={} replans={} member_bytes={} gateway_bytes={}",
            self.cycles,
            self.cross_results,
            self.replans,
            self.member_traffic_bytes(),
            self.gateway_bytes()
        );
        for m in &self.members {
            let _ = write!(
                s,
                " | net {} nodes={} results={} bytes={}",
                crate::control::esc(&m.name),
                m.nodes,
                m.outcome.results_total(),
                m.outcome.total_traffic_bytes()
            );
        }
        for (i, g) in self.gateways.iter().enumerate() {
            let _ = write!(
                s,
                " | gw{} {}:{}<->{}:{} entered={} delivered={} dropped={} in_flight={} xfer_bytes={}",
                i,
                g.link.a_net,
                g.link.a_node.0,
                g.link.b_net,
                g.link.b_node.0,
                g.a_to_b.entered + g.b_to_a.entered,
                g.tuples_delivered(),
                g.a_to_b.dropped + g.b_to_a.dropped,
                g.in_flight,
                g.xfer_bytes()
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Sigma;
    use crate::shared::InnetOptions;
    use sensor_query::graph::{JoinEdge, Relation};
    use sensor_query::pred::{BoolExpr, CmpOp, Pred};
    use sensor_query::schema::{ATTR_ID, ATTR_U};
    use sensor_query::{Expr, Side};
    use sensor_sim::SimConfig;
    use sensor_workload::{Rates, Schedule, WorkloadData};

    /// k-way chain joined on `u`, each relation an id band of 10 nodes.
    /// Range selections on `id` are the routable pattern (they become
    /// search constraints); residue/equality selections on other
    /// attributes would starve the sub-joins of results.
    fn chain_graph(k: usize) -> JoinGraph {
        let relations = (0..k)
            .map(|r| Relation {
                name: format!("r{r}"),
                selection: Some(BoolExpr::and(vec![
                    BoolExpr::atom(Pred::new(
                        Expr::attr(Side::S, ATTR_ID),
                        CmpOp::Ge,
                        Expr::Const(10 * r as i64),
                    )),
                    BoolExpr::atom(Pred::new(
                        Expr::attr(Side::S, ATTR_ID),
                        CmpOp::Lt,
                        Expr::Const(10 * (r as i64 + 1)),
                    )),
                ])),
            })
            .collect();
        let edges = (0..k - 1)
            .map(|i| JoinEdge {
                a: i,
                b: i + 1,
                predicate: BoolExpr::atom(Pred::new(
                    Expr::attr(Side::S, ATTR_U),
                    CmpOp::Eq,
                    Expr::attr(Side::T, ATTR_U),
                )),
            })
            .collect();
        JoinGraph::new("fedchain", relations, edges, vec![(0, ATTR_ID)], 2, 100).unwrap()
    }

    /// Selective join workload (σst = 0.02): joined sub-streams are much
    /// thinner than the raw bands, so gateway routing has something to
    /// win over shipping raw data.
    const TEST_RATES: Rates = Rates {
        s_den: 2,
        t_den: 2,
        st_den: 50,
    };

    fn member_session(nodes: usize, degree: f64, seed: u64) -> Session {
        let topo = sensor_net::random_with_degree(nodes, degree, seed);
        let data = WorkloadData::new(&topo, Schedule::Uniform(TEST_RATES), seed);
        Session::builder(topo, data)
            .sim(SimConfig::lossless().with_seed(seed))
            .allow_empty()
            .build()
    }

    fn cfg() -> AlgoConfig {
        AlgoConfig::new(Algorithm::Innet, Sigma::from_rates(TEST_RATES))
            .with_innet_options(InnetOptions::CMG)
    }

    fn two_net_fed(seed: u64) -> Federation {
        let a = member_session(50, 7.0, seed);
        let b = member_session(40, 6.0, seed + 100);
        Federation::builder()
            .seed(seed)
            .member("alpha", a)
            .member("beta", b)
            .link(GatewayLink::new(0, NodeId(10), 1, NodeId(5)).with_latency(1))
            .link(GatewayLink::new(0, NodeId(20), 1, NodeId(15)).with_loss(0.3))
            .build()
    }

    #[test]
    fn cross_admission_routes_and_produces_results() {
        let mut fed = two_net_fed(3);
        let g = chain_graph(4);
        fed.admit_cross(&g, &[0, 0, 1, 1], cfg(), CrossMode::Gateway)
            .unwrap();
        fed.step(40);
        let out = fed.report();
        assert!(out.cross_results > 0, "no tuples crossed");
        assert_eq!(out.members.len(), 2);
        assert!(out.gateway_bytes() > 0);
        // Beta's stream crossed one of the two declared links.
        assert!(out.gateways.iter().any(|g| g.tuples_delivered() > 0));
        // Conservation at every gateway: entered = delivered + dropped +
        // in flight, per direction aggregate.
        for g in &out.gateways {
            assert_eq!(
                g.a_to_b.entered + g.b_to_a.entered,
                g.tuples_delivered() + g.a_to_b.dropped + g.b_to_a.dropped + g.in_flight
            );
        }
    }

    #[test]
    fn ship_base_crosses_more_bytes_than_gateway_routing() {
        let run = |mode: CrossMode| {
            let mut fed = two_net_fed(5);
            let g = chain_graph(4);
            fed.admit_cross(&g, &[0, 0, 1, 1], cfg(), mode).unwrap();
            fed.step(40);
            fed.report()
        };
        let gw = run(CrossMode::Gateway);
        let ship = run(CrossMode::ShipBase);
        assert!(
            gw.gateway_bytes() < ship.gateway_bytes(),
            "gateway-routed {} >= ship-to-base {}",
            gw.gateway_bytes(),
            ship.gateway_bytes()
        );
        assert!(gw.cross_results > 0 && ship.cross_results > 0);
    }

    #[test]
    fn bad_admissions_are_rejected() {
        let mut fed = two_net_fed(7);
        let g = chain_graph(4);
        assert!(fed
            .admit_cross(&g, &[0, 0, 1], cfg(), CrossMode::Gateway)
            .is_err());
        assert!(fed
            .admit_cross(&g, &[0, 0, 9, 9], cfg(), CrossMode::Gateway)
            .is_err());
        // Splitting 1|3 leaves member 0 with a single relation.
        assert!(fed
            .admit_cross(&g, &[0, 1, 1, 1], cfg(), CrossMode::Gateway)
            .is_err());
        // Splitting the chain 0,1 | 0,1 disconnects each share.
        assert!(fed
            .admit_cross(&g, &[0, 1, 0, 1], cfg(), CrossMode::Gateway)
            .is_err());
    }

    #[test]
    fn summary_exchange_charges_links() {
        let fed = two_net_fed(9);
        // Build-time exchange alone books summary bytes on both links.
        let bytes: Vec<u64> = fed.summary_bytes.clone();
        assert!(bytes.iter().all(|&b| b > 0));
        // The lossy link pays the ETX premium over the clean one.
        assert!(bytes[1] > bytes[0]);
    }
}
