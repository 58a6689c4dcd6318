//! `aspen-serve`: many [`Session`]s behind a TCP line protocol.
//!
//! The [control plane](aspen_join::control) made every session operation
//! a serializable [`Command`]/[`Response`] pair; this crate puts a socket
//! in front of it. A [`Server`] owns a fixed pool of OS worker threads
//! and *shards* named sessions across them — each session is owned by
//! exactly one worker for its whole life (`hash(name) % workers`), so
//! commands against one session are applied strictly in arrival order
//! with no locking around the simulation state, while different sessions
//! run concurrently on different workers.
//!
//! # Protocol
//!
//! One UTF-8 line per request, one line per reply. A connection first
//! selects a session, then speaks [`Command`] lines at it:
//!
//! ```text
//! OPEN <name> [nodes=N] [degree=D] [seed=S]   create (or attach to) a session
//! USE <name>                                  switch to an existing session
//! ADMIT <algo> <streamsql>                    admit a query (pairwise or n-way)
//! ADMITGRAPH <algo> <streamsql>               admit forcing the graph grammar
//! RETIRE q<i> | g<i>                          retire a query
//! STEP <n>                                    advance n sampling cycles
//! RUN CYCLE <c> | RUN RESULTS <n>             run until a condition holds
//! KILL <node>                                 kill a node
//! REPORT                                      drain and summarize the outcome
//! CACHESTATS                                  warm-start cache counters
//! SUBSCRIBE                                   dedicate this connection to events
//! CLOSE                                       tear down the current session
//! QUIT                                        close the connection
//! ```
//!
//! Federations — multiple member networks bridged by gateway links — live
//! in their own namespace and always carry their name (no `USE`):
//!
//! ```text
//! FEDOPEN <name> [members=M] [nodes=N] [degree=D] [seed=S]
//!                                             create a federation of M member
//!                                             networks (member i seeds S+100i)
//! LINK <name> <an>:<anode> <bn>:<bnode> [loss=P] [latency=C] [budget=B]
//!                                             declare a gateway pair between
//!                                             member networks an and bn
//! FEDADMIT <name> <algo> homes=0,0,1,.. [mode=gateway|shipbase] <streamsql>
//!                                             admit a cross-network join graph,
//!                                             one home member per relation
//! FEDREPORT <name> [cycles=N]                 step N federation cycles, then
//!                                             drain and summarize the outcome
//! ```
//!
//! The first `FEDADMIT` freezes the link set (building the federation and
//! exchanging boundary summaries); later `LINK`s answer `ERR STATE`.
//!
//! An `OPEN` or `FEDOPEN` whose `nodes`/`degree`/`seed` yield no connected
//! deployment answers `ERR TOPOLOGY …` and creates nothing.
//!
//! Replies are `OK …` / `ERR …` lines ([`Response::encode`]). After
//! `OK SUBSCRIBED` the server writes `EVENT …` lines
//! ([`aspen_join::encode_event`]) to the connection as the session
//! advances; the subscriber sends nothing further (one writer per
//! socket — command replies and the event stream never interleave).
//! `CLOSE` is terminal for the event stream: every subscriber reads one
//! final `EVENT CLOSED <cycle>` line and then a clean EOF.
//!
//! Sessions are long-lived and keep their warm-start
//! [learned-state cache](aspen_join::cache) across query churn: queries
//! admitted, retired and re-admitted on one named session seed from the
//! cache, and `CACHESTATS` exposes the counters.
//!
//! # Quotas
//!
//! Admission control is per *connection*: creating more than
//! [`ServeConfig::max_sessions_per_client`] sessions or admitting more
//! than [`ServeConfig::max_queries_per_client`] queries answers
//! `ERR QUOTA …` without touching a worker. Attaching to an existing
//! session costs no session quota; every `ADMIT`/`ADMITGRAPH` that
//! reaches a worker costs one query quota, even if it is later rejected.
//! Federations extend the same scheme: a `FEDOPEN` that creates a
//! federation (which instantiates `members` whole networks at once) is
//! capped by [`ServeConfig::max_federations_per_client`], and every
//! `FEDADMIT` reaching a worker costs one query quota.

use aspen_join::control::{Command, Response};
use aspen_join::prelude::*;
use aspen_join::{encode_event, Observer, SessionEvent};
use sensor_net::{GatewayLink, NoTopology, NodeId};
use sensor_workload::WorkloadData;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// How a wire `OPEN` builds its network: a deterministic random topology
/// plus the repo's standard uniform workload, keyed by one seed. Two
/// servers (or a server and an in-process harness) given the same spec
/// build byte-identical sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSpec {
    pub nodes: usize,
    pub degree: f64,
    pub seed: u64,
}

impl Default for OpenSpec {
    fn default() -> Self {
        OpenSpec {
            nodes: 60,
            degree: 7.0,
            seed: 1,
        }
    }
}

impl OpenSpec {
    /// Parse the `nodes=… degree=… seed=…` tail of an `OPEN` line.
    pub fn parse(args: &str) -> Result<OpenSpec, String> {
        let mut spec = OpenSpec::default();
        for tok in args.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad option '{tok}' (want key=value)"))?;
            match k {
                "nodes" => spec.nodes = v.parse().map_err(|_| format!("bad nodes '{v}'"))?,
                "degree" => spec.degree = v.parse().map_err(|_| format!("bad degree '{v}'"))?,
                "seed" => spec.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?,
                _ => return Err(format!("unknown option '{k}'")),
            }
        }
        if spec.nodes < 2 || spec.nodes > 20_000 {
            return Err(format!("nodes={} out of range [2, 20000]", spec.nodes));
        }
        Ok(spec)
    }
}

/// Build the session an `OPEN` line describes, if its `nodes`, `degree`
/// and `seed` — the client's choice — yield a connected deployment. Public
/// so the parity tests and the load generator can run the *same*
/// construction in-process and compare outcomes byte-for-byte with the
/// served ones.
pub fn try_open_session(spec: &OpenSpec) -> Result<Session, NoTopology> {
    let topo = sensor_net::try_random_with_degree(spec.nodes, spec.degree, spec.seed)?;
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), spec.seed);
    let sim = SimConfig {
        tx_per_cycle: 64,
        queue_capacity: 1024,
        ..SimConfig::lossless().with_seed(spec.seed)
    };
    Ok(Session::builder(topo, data).sim(sim).allow_empty().build())
}

/// [`try_open_session`] for a spec the caller chose itself.
///
/// # Panics
/// If the spec yields no connected deployment.
pub fn open_session(spec: &OpenSpec) -> Session {
    try_open_session(spec).unwrap_or_else(|e| panic!("{e}"))
}

/// How a wire `FEDOPEN` builds its federation: `members` networks, each
/// constructed exactly like an `OPEN` session from `member_spec` with the
/// seed offset by `100 * member_index` (so member networks differ but the
/// whole federation is keyed by one seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedSpec {
    pub members: usize,
    pub member_spec: OpenSpec,
}

impl Default for FedSpec {
    fn default() -> Self {
        FedSpec {
            members: 2,
            member_spec: OpenSpec::default(),
        }
    }
}

impl FedSpec {
    /// Parse the `members=… nodes=… degree=… seed=…` tail of a `FEDOPEN`.
    pub fn parse(args: &str) -> Result<FedSpec, String> {
        let mut spec = FedSpec::default();
        let mut member_args = String::new();
        for tok in args.split_whitespace() {
            match tok.split_once('=') {
                Some(("members", v)) => {
                    spec.members = v.parse().map_err(|_| format!("bad members '{v}'"))?;
                }
                _ => {
                    member_args.push_str(tok);
                    member_args.push(' ');
                }
            }
        }
        spec.member_spec = OpenSpec::parse(&member_args)?;
        if !(2..=16).contains(&spec.members) {
            return Err(format!("members={} out of range [2, 16]", spec.members));
        }
        Ok(spec)
    }
}

/// Build the member sessions a `FEDOPEN` line describes, in member-index
/// order. Public so parity tests can run the same construction
/// in-process.
pub fn open_fed_members(spec: &FedSpec) -> Result<Vec<Session>, NoTopology> {
    (0..spec.members)
        .map(|i| {
            try_open_session(&OpenSpec {
                seed: spec.member_spec.seed + 100 * i as u64,
                ..spec.member_spec
            })
        })
        .collect()
}

/// Assemble the federation a `FEDOPEN` plus its `LINK`s describe (member
/// `i` is named `net<i>`). The in-process counterpart of the wire path.
///
/// # Panics
/// If a member spec yields no connected deployment.
pub fn build_federation(spec: &FedSpec, links: &[GatewayLink]) -> Federation {
    let members = open_fed_members(spec).unwrap_or_else(|e| panic!("{e}"));
    let mut b = FederationBuilder::new().seed(spec.member_spec.seed);
    for (i, s) in members.into_iter().enumerate() {
        b = b.member(format!("net{i}"), s);
    }
    for l in links {
        b = b.link(l.clone());
    }
    b.build()
}

/// One parsed federation request, routed to the owning shard worker.
#[derive(Debug, Clone)]
pub enum FedRequest {
    Open(FedSpec),
    Link(GatewayLink),
    Admit {
        algo: String,
        homes: Vec<usize>,
        mode: CrossMode,
        sql: String,
    },
    Report {
        cycles: u32,
    },
}

/// Parse `<an>:<anode> <bn>:<bnode> [loss=P] [latency=C] [budget=B]`.
/// Loss is range-checked here so the builder can never panic on it.
pub fn parse_link(args: &str) -> Result<GatewayLink, String> {
    let mut toks = args.split_whitespace();
    let endpoint = |tok: Option<&str>| -> Result<(usize, NodeId), String> {
        let t = tok.ok_or("LINK needs two <net>:<node> endpoints")?;
        let (net, node) = t
            .split_once(':')
            .ok_or_else(|| format!("bad endpoint '{t}' (want net:node)"))?;
        Ok((
            net.parse().map_err(|_| format!("bad net '{net}'"))?,
            NodeId(node.parse().map_err(|_| format!("bad node '{node}'"))?),
        ))
    };
    let (a_net, a_node) = endpoint(toks.next())?;
    let (b_net, b_node) = endpoint(toks.next())?;
    let mut link = GatewayLink::new(a_net, a_node, b_net, b_node);
    for tok in toks {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad option '{tok}' (want key=value)"))?;
        match k {
            "loss" => {
                let p: f64 = v.parse().map_err(|_| format!("bad loss '{v}'"))?;
                if !(0.0..1.0).contains(&p) {
                    return Err(format!("loss={p} out of range [0, 1)"));
                }
                link = link.with_loss(p);
            }
            "latency" => {
                link = link.with_latency(v.parse().map_err(|_| format!("bad latency '{v}'"))?);
            }
            "budget" => {
                link = link.with_budget(v.parse().map_err(|_| format!("bad budget '{v}'"))?);
            }
            _ => return Err(format!("unknown option '{k}'")),
        }
    }
    Ok(link)
}

/// Parse `<algo> homes=0,0,1,.. [mode=gateway|shipbase] <streamsql>`.
/// The SQL tail is passed through byte-exact.
pub fn parse_fed_admit(args: &str) -> Result<FedRequest, String> {
    let (algo, rest) = args
        .split_once(' ')
        .ok_or("FEDADMIT needs <algo> homes=… <streamsql>")?;
    let rest = rest.trim_start();
    let (homes_tok, rest) = rest
        .split_once(' ')
        .ok_or("FEDADMIT needs homes=… before the query")?;
    let homes_val = homes_tok
        .strip_prefix("homes=")
        .ok_or_else(|| format!("expected homes=…, got '{homes_tok}'"))?;
    let homes = homes_val
        .split(',')
        .map(|h| h.parse().map_err(|_| format!("bad home '{h}'")))
        .collect::<Result<Vec<usize>, String>>()?;
    let mut rest = rest.trim_start();
    let mut mode = CrossMode::Gateway;
    if let Some(tail) = rest.strip_prefix("mode=") {
        let (m, sql) = tail.split_once(' ').ok_or("FEDADMIT needs a query")?;
        mode = match m {
            "gateway" => CrossMode::Gateway,
            "shipbase" | "ship-base" | "ship" => CrossMode::ShipBase,
            other => return Err(format!("unknown mode '{other}'")),
        };
        rest = sql.trim_start();
    }
    if rest.is_empty() {
        return Err("FEDADMIT needs a query".into());
    }
    Ok(FedRequest::Admit {
        algo: algo.to_string(),
        homes,
        mode,
        sql: rest.to_string(),
    })
}

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Session shard workers (each owns a disjoint set of sessions).
    pub workers: usize,
    /// Sessions one connection may *create* (attaching is free).
    pub max_sessions_per_client: usize,
    /// Queries one connection may admit across all its sessions.
    pub max_queries_per_client: usize,
    /// Federations one connection may *create* — each instantiates
    /// `members` whole networks, so this is the heaviest verb a client
    /// has and gets the tightest cap.
    pub max_federations_per_client: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_sessions_per_client: 4,
            max_queries_per_client: 64,
            max_federations_per_client: 2,
        }
    }
}

/// Streams a session's events to its subscribed connections. Attached to
/// every served session at creation; dead subscribers are dropped on the
/// first failed write.
struct WireObserver {
    subs: Arc<Mutex<Vec<TcpStream>>>,
}

impl Observer for WireObserver {
    fn on_event(&mut self, ev: &SessionEvent) {
        let mut subs = self.subs.lock().unwrap();
        if subs.is_empty() {
            return;
        }
        let line = format!("{}\n", encode_event(ev));
        subs.retain_mut(|s| s.write_all(line.as_bytes()).is_ok());
    }
}

/// One served session: the simulation plus its subscriber list (shared
/// with the [`WireObserver`] attached inside the session).
struct Entry {
    session: Session,
    subs: Arc<Mutex<Vec<TcpStream>>>,
}

/// Work routed to a shard worker. Every request carries its own reply
/// channel; the worker answers with a ready-to-send protocol line.
enum Job {
    Open {
        name: String,
        spec: OpenSpec,
        /// Whether the connection's session quota allows *creating* a
        /// session; attaching to an existing one is always allowed, and
        /// only the owning worker knows which case this is.
        may_create: bool,
        reply: Sender<String>,
    },
    Apply {
        name: String,
        cmd: Command,
        reply: Sender<String>,
    },
    Subscribe {
        name: String,
        stream: TcpStream,
        reply: Sender<String>,
    },
    Close {
        name: String,
        reply: Sender<String>,
    },
    Fed {
        name: String,
        req: FedRequest,
        /// Whether the connection's federation quota allows *creating*
        /// one; only the owning worker knows whether this `FEDOPEN`
        /// creates or attaches.
        may_create: bool,
        reply: Sender<String>,
    },
    Stop,
}

/// One served federation. Member sessions are held unassembled until the
/// first `FEDADMIT`/`FEDREPORT`, so `LINK`s can keep arriving; building
/// freezes the link set (boundary summaries are exchanged exactly once).
enum FedState {
    Building(Vec<Session>),
    Running(Federation),
}

struct FedEntry {
    spec: FedSpec,
    links: Vec<GatewayLink>,
    state: FedState,
}

impl FedEntry {
    /// Assemble on first use; no-op when already running.
    fn ensure_running(&mut self) -> &mut Federation {
        if let FedState::Building(sessions) = &mut self.state {
            let mut b = FederationBuilder::new().seed(self.spec.member_spec.seed);
            for (i, s) in std::mem::take(sessions).into_iter().enumerate() {
                b = b.member(format!("net{i}"), s);
            }
            for l in &self.links {
                b = b.link(l.clone());
            }
            self.state = FedState::Running(b.build());
        }
        match &mut self.state {
            FedState::Running(f) => f,
            FedState::Building(_) => unreachable!("just assembled"),
        }
    }
}

fn apply_fed(
    feds: &mut HashMap<String, FedEntry>,
    name: String,
    req: FedRequest,
    may_create: bool,
) -> String {
    if let FedRequest::Open(spec) = req {
        return if feds.contains_key(&name) {
            format!("OK FEDATTACHED {name}")
        } else if !may_create {
            err_line("QUOTA", "federation quota exhausted")
        } else {
            let sessions = match open_fed_members(&spec) {
                Ok(sessions) => sessions,
                Err(e) => return err_line("TOPOLOGY", &e.to_string()),
            };
            feds.insert(
                name.clone(),
                FedEntry {
                    spec,
                    links: Vec::new(),
                    state: FedState::Building(sessions),
                },
            );
            format!(
                "OK FEDOPENED {name} members={} nodes={}",
                spec.members, spec.member_spec.nodes
            )
        };
    }
    let Some(entry) = feds.get_mut(&name) else {
        return err_line("NOFED", &format!("no federation '{name}'"));
    };
    match req {
        FedRequest::Open(_) => unreachable!("handled above"),
        FedRequest::Link(link) => {
            if matches!(entry.state, FedState::Running(_)) {
                return err_line("STATE", "links are fixed once the federation is running");
            }
            let members = entry.spec.members;
            if link.a_net >= members || link.b_net >= members {
                return err_line(
                    "FED",
                    &format!("link endpoints must name members 0..{members}"),
                );
            }
            if link.a_net == link.b_net {
                return err_line("FED", "a link must bridge two different members");
            }
            let nodes = entry.spec.member_spec.nodes;
            if link.a_node.index() >= nodes || link.b_node.index() >= nodes {
                return err_line("FED", &format!("gateway nodes must be < {nodes}"));
            }
            entry.links.push(link);
            format!("OK LINKED {name} {}", entry.links.len() - 1)
        }
        FedRequest::Admit {
            algo,
            homes,
            mode,
            sql,
        } => {
            if entry.links.is_empty() {
                return err_line("FED", "declare at least one LINK before admitting");
            }
            let Some((a, opts)) = aspen_join::shared::parse_algo(&algo) else {
                return err_line("ALGO", &algo);
            };
            let cfg = aspen_join::AlgoConfig::new(a, aspen_join::control::WIRE_ASSUMED_SIGMA)
                .with_innet_options(opts);
            let graph = match sensor_query::parse_join_graph(&sql) {
                Ok(g) => g,
                Err(e) => return err_line("PARSE", &format!("{} at {}", e.message, e.pos)),
            };
            let fed = entry.ensure_running();
            match fed.admit_cross(&graph, &homes, cfg, mode) {
                Ok(id) => format!("OK FEDADMITTED x{}", id.0),
                Err(e) => err_line("FED", &e),
            }
        }
        FedRequest::Report { cycles } => {
            let fed = entry.ensure_running();
            fed.step(cycles);
            format!("OK FEDREPORT {}", fed.report().summary_line())
        }
    }
}

fn err_line(kind: &str, msg: &str) -> String {
    format!("ERR {kind} {}", aspen_join::control::esc(msg))
}

fn worker_loop(rx: std::sync::mpsc::Receiver<Job>) {
    let mut sessions: HashMap<String, Entry> = HashMap::new();
    let mut feds: HashMap<String, FedEntry> = HashMap::new();
    while let Ok(job) = rx.recv() {
        match job {
            Job::Fed {
                name,
                req,
                may_create,
                reply,
            } => {
                let _ = reply.send(apply_fed(&mut feds, name, req, may_create));
            }
            Job::Open {
                name,
                spec,
                may_create,
                reply,
            } => {
                let line = if sessions.contains_key(&name) {
                    format!("OK ATTACHED {name}")
                } else if !may_create {
                    err_line("QUOTA", "session quota exhausted")
                } else {
                    match try_open_session(&spec) {
                        Ok(mut session) => {
                            let subs = Arc::new(Mutex::new(Vec::new()));
                            session.observe(Box::new(WireObserver { subs: subs.clone() }));
                            sessions.insert(name.clone(), Entry { session, subs });
                            format!("OK OPENED {name} nodes={}", spec.nodes)
                        }
                        Err(e) => err_line("TOPOLOGY", &e.to_string()),
                    }
                };
                let _ = reply.send(line);
            }
            Job::Apply { name, cmd, reply } => {
                let line = match sessions.get_mut(&name) {
                    Some(e) => e.session.apply(cmd).encode(),
                    None => err_line("NOSESSION", &format!("no session '{name}'")),
                };
                let _ = reply.send(line);
            }
            Job::Subscribe {
                name,
                stream,
                reply,
            } => {
                let line = match sessions.get_mut(&name) {
                    Some(e) => {
                        // Answer the subscriber *before* registering it so
                        // `OK SUBSCRIBED` is the first line it reads, ahead
                        // of any event.
                        let _ = reply.send(Response::Subscribed.encode());
                        e.subs.lock().unwrap().push(stream);
                        continue;
                    }
                    None => err_line("NOSESSION", &format!("no session '{name}'")),
                };
                let _ = reply.send(line);
            }
            Job::Close { name, reply } => {
                let line = match sessions.remove(&name) {
                    Some(e) => {
                        // Terminal event, then a clean disconnect: every
                        // subscriber reads `EVENT CLOSED <cycle>` followed
                        // by EOF, never a dangling stream.
                        let closed = format!(
                            "{}\n",
                            encode_event(&SessionEvent::Closed {
                                cycle: e.session.cycle()
                            })
                        );
                        for s in e.subs.lock().unwrap().iter_mut() {
                            let _ = s.write_all(closed.as_bytes());
                            let _ = s.flush();
                            let _ = s.shutdown(Shutdown::Both);
                        }
                        format!("OK CLOSED {name}")
                    }
                    None => err_line("NOSESSION", &format!("no session '{name}'")),
                };
                let _ = reply.send(line);
            }
            Job::Stop => break,
        }
    }
    // Unblock any subscriber connections still attached to this shard.
    for e in sessions.values() {
        for s in e.subs.lock().unwrap().iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

fn shard_of(name: &str, workers: usize) -> usize {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() as usize) % workers
}

/// A running server. Dropping it without [`Server::shutdown`] leaks the
/// listener thread; call `shutdown` for a clean exit (the CI smoke test
/// asserts it returns).
pub struct Server {
    addr: SocketAddr,
    shards: Vec<Sender<Job>>,
    stop: Arc<AtomicBool>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl Server {
    /// Bind, spawn the shard workers and the accept loop, and return.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        assert!(cfg.workers >= 1, "need at least one shard worker");
        let listener = TcpListener::bind(&*cfg.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

        let mut shards = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let (tx, rx) = channel();
            shards.push(tx);
            workers.push(std::thread::spawn(move || worker_loop(rx)));
        }

        let accept_stop = stop.clone();
        let accept_shards = shards.clone();
        let accept_conns = conns.clone();
        let accept_cfg = cfg.clone();
        let handle = std::thread::spawn(move || {
            // Handler threads are detached; they exit when their socket is
            // shut down (tracked in `conns`) or the peer hangs up.
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if let Ok(clone) = stream.try_clone() {
                    accept_conns.lock().unwrap().push(clone);
                }
                let shards = accept_shards.clone();
                let cfg = accept_cfg.clone();
                std::thread::spawn(move || {
                    let _ = serve_client(stream, &shards, &cfg);
                });
            }
        });

        Ok(Server {
            addr,
            shards,
            stop,
            listener: Some(handle),
            workers,
            conns,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, stop every worker, unblock every connection, and
    /// join all server threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        for tx in &self.shards {
            let _ = tx.send(Job::Stop);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        for c in self.conns.lock().unwrap().iter() {
            let _ = c.shutdown(Shutdown::Both);
        }
    }
}

/// Route one federation request to its shard (federations live in their
/// own shard namespace, keyed by `fed:<name>`) and wait for the reply.
fn fed_call(shards: &[Sender<Job>], name: &str, req: FedRequest, may_create: bool) -> String {
    let key = format!("fed:{name}");
    let name = name.to_string();
    let (tx, rx) = channel();
    let job = Job::Fed {
        name,
        req,
        may_create,
        reply: tx,
    };
    if shards[shard_of(&key, shards.len())].send(job).is_err() {
        return err_line("SHUTDOWN", "server is shutting down");
    }
    rx.recv()
        .unwrap_or_else(|_| err_line("SHUTDOWN", "server is shutting down"))
}

/// Route one request to its session's shard and wait for the reply line.
fn call(shards: &[Sender<Job>], name: &str, job: impl FnOnce(Sender<String>) -> Job) -> String {
    let (tx, rx) = channel();
    if shards[shard_of(name, shards.len())].send(job(tx)).is_err() {
        return err_line("SHUTDOWN", "server is shutting down");
    }
    rx.recv()
        .unwrap_or_else(|_| err_line("SHUTDOWN", "server is shutting down"))
}

/// Send `line` and its terminator in one `write`. As two, the `\n` waits
/// in the kernel for the peer to acknowledge the line (Nagle's algorithm
/// against the peer's delayed ACK): ~40 ms per reply on loopback.
fn write_line(out: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    out.write_all(&buf)
}

/// Per-connection protocol loop: line in, line out. Returns when the
/// peer hangs up, after `QUIT`, or once the connection becomes an event
/// stream via `SUBSCRIBE`.
fn serve_client(
    stream: TcpStream,
    shards: &[Sender<Job>],
    cfg: &ServeConfig,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut current: Option<String> = None;
    let mut sessions_created = 0usize;
    let mut queries_admitted = 0usize;
    let mut federations_created = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let req = line.trim_end_matches(['\r', '\n']);
        if req.is_empty() {
            continue;
        }
        let (verb, rest) = req.split_once(' ').unwrap_or((req, ""));
        let reply: String = match verb.to_ascii_uppercase().as_str() {
            "QUIT" => {
                out.write_all(b"OK BYE\n")?;
                return Ok(());
            }
            "OPEN" => {
                let (name, args) = rest.split_once(' ').unwrap_or((rest, ""));
                if name.is_empty() {
                    err_line("USAGE", "OPEN <name> [nodes=N] [degree=D] [seed=S]")
                } else {
                    match OpenSpec::parse(args) {
                        Ok(spec) => {
                            let name_owned = name.to_string();
                            let may_create = sessions_created < cfg.max_sessions_per_client;
                            let r = call(shards, name, |reply| Job::Open {
                                name: name_owned,
                                spec,
                                may_create,
                                reply,
                            });
                            if r.starts_with("OK OPENED") {
                                sessions_created += 1;
                            }
                            if r.starts_with("OK") {
                                current = Some(name.to_string());
                            }
                            r
                        }
                        Err(e) => err_line("USAGE", &e),
                    }
                }
            }
            "USE" => {
                if rest.is_empty() {
                    err_line("USAGE", "USE <name>")
                } else {
                    // Cheap existence probe: report on open would be heavy,
                    // so just adopt the name; a wrong one surfaces as
                    // NOSESSION on the next command.
                    current = Some(rest.to_string());
                    format!("OK USING {rest}")
                }
            }
            "FEDOPEN" => {
                let (name, args) = rest.split_once(' ').unwrap_or((rest, ""));
                if name.is_empty() {
                    err_line(
                        "USAGE",
                        "FEDOPEN <name> [members=M] [nodes=N] [degree=D] [seed=S]",
                    )
                } else {
                    match FedSpec::parse(args) {
                        Ok(spec) => {
                            let may_create = federations_created < cfg.max_federations_per_client;
                            let r = fed_call(shards, name, FedRequest::Open(spec), may_create);
                            if r.starts_with("OK FEDOPENED") {
                                federations_created += 1;
                            }
                            r
                        }
                        Err(e) => err_line("USAGE", &e),
                    }
                }
            }
            "LINK" => {
                let (name, args) = rest.split_once(' ').unwrap_or((rest, ""));
                if name.is_empty() || args.is_empty() {
                    err_line(
                        "USAGE",
                        "LINK <name> <an>:<anode> <bn>:<bnode> [loss=P] [latency=C] [budget=B]",
                    )
                } else {
                    match parse_link(args) {
                        Ok(link) => fed_call(shards, name, FedRequest::Link(link), false),
                        Err(e) => err_line("USAGE", &e),
                    }
                }
            }
            "FEDADMIT" => {
                let (name, args) = rest.split_once(' ').unwrap_or((rest, ""));
                if name.is_empty() || args.is_empty() {
                    err_line(
                        "USAGE",
                        "FEDADMIT <name> <algo> homes=0,0,1,.. [mode=gateway|shipbase] <streamsql>",
                    )
                } else {
                    match parse_fed_admit(args) {
                        Ok(req) => {
                            if queries_admitted >= cfg.max_queries_per_client {
                                err_line(
                                    "QUOTA",
                                    &format!(
                                        "query quota exhausted ({} per client)",
                                        cfg.max_queries_per_client
                                    ),
                                )
                            } else {
                                queries_admitted += 1;
                                fed_call(shards, name, req, false)
                            }
                        }
                        Err(e) => err_line("USAGE", &e),
                    }
                }
            }
            "FEDREPORT" => {
                let (name, args) = rest.split_once(' ').unwrap_or((rest, ""));
                let cycles: Result<u32, String> = match args.trim() {
                    "" => Ok(0),
                    c => c
                        .strip_prefix("cycles=")
                        .ok_or_else(|| format!("bad option '{c}' (want cycles=N)"))
                        .and_then(|v| v.parse().map_err(|_| format!("bad cycles '{v}'"))),
                };
                if name.is_empty() {
                    err_line("USAGE", "FEDREPORT <name> [cycles=N]")
                } else {
                    match cycles {
                        Ok(cycles) => fed_call(shards, name, FedRequest::Report { cycles }, false),
                        Err(e) => err_line("USAGE", &e),
                    }
                }
            }
            "CLOSE" => match &current {
                Some(name) => {
                    let name_owned = name.clone();
                    let r = call(shards, name, |reply| Job::Close {
                        name: name_owned,
                        reply,
                    });
                    if r.starts_with("OK") {
                        current = None;
                    }
                    r
                }
                None => err_line("NOSESSION", "no session selected (OPEN or USE one)"),
            },
            _ => match &current {
                None => err_line("NOSESSION", "no session selected (OPEN or USE one)"),
                Some(name) => match Command::decode(req) {
                    Err(e) => err_line("USAGE", &e),
                    Ok(Command::Subscribe) => {
                        let name_owned = name.clone();
                        let sub = out.try_clone()?;
                        let r = call(shards, name, |reply| Job::Subscribe {
                            name: name_owned,
                            stream: sub,
                            reply,
                        });
                        let subscribed = r.starts_with("OK");
                        write_line(&mut out, &r)?;
                        if subscribed {
                            // The connection now belongs to the event
                            // stream; swallow any further input until the
                            // peer hangs up so we never write here again.
                            while reader.read_line(&mut line)? != 0 {
                                line.clear();
                            }
                            return Ok(());
                        }
                        continue;
                    }
                    Ok(cmd) => {
                        if matches!(cmd, Command::Admit { .. } | Command::AdmitGraph { .. }) {
                            if queries_admitted >= cfg.max_queries_per_client {
                                let e = err_line(
                                    "QUOTA",
                                    &format!(
                                        "query quota exhausted ({} per client)",
                                        cfg.max_queries_per_client
                                    ),
                                );
                                write_line(&mut out, &e)?;
                                continue;
                            }
                            queries_admitted += 1;
                        }
                        let name_owned = name.clone();
                        call(shards, name, |reply| Job::Apply {
                            name: name_owned,
                            cmd,
                            reply,
                        })
                    }
                },
            },
        };
        write_line(&mut out, &reply)?;
    }
}

/// Blocking line-protocol client — the counterpart every test and the
/// load generator use. One request in, one reply line out.
pub struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            stream,
        })
    }

    /// Send one request line, read one reply line.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        write_line(&mut self.stream, line)?;
        self.read_line()
    }

    /// Read the next line (used to drain an event stream after
    /// `SUBSCRIBE`). Empty string means the server hung up.
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_spec_parses_and_validates() {
        assert_eq!(OpenSpec::parse("").unwrap(), OpenSpec::default());
        let s = OpenSpec::parse("nodes=40 degree=6.5 seed=9").unwrap();
        assert_eq!(
            s,
            OpenSpec {
                nodes: 40,
                degree: 6.5,
                seed: 9
            }
        );
        assert!(OpenSpec::parse("nodes=1").is_err());
        assert!(OpenSpec::parse("widgets=3").is_err());
        assert!(OpenSpec::parse("nodes").is_err());
    }

    #[test]
    fn shard_choice_is_stable() {
        for w in 1..6 {
            assert_eq!(shard_of("alpha", w), shard_of("alpha", w));
            assert!(shard_of("alpha", w) < w);
        }
    }

    #[test]
    fn end_to_end_open_admit_step_report() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(
            c.request("OPEN demo nodes=60 seed=1").unwrap(),
            "OK OPENED demo nodes=60"
        );
        let r = c
            .request(
                "ADMIT innet-cmg SELECT s.id, t.id FROM s, t \
                 [windowsize=2 sampleinterval=100] \
                 WHERE s.id < 20 AND t.id >= 20 AND s.u = t.u",
            )
            .unwrap();
        assert_eq!(r, "OK ADMITTED q0");
        assert_eq!(c.request("STEP 10").unwrap(), "OK STEPPED 10");
        let report = c.request("REPORT").unwrap();
        assert!(report.starts_with("OK REPORT cycle=10 "), "got: {report}");
        let parsed = Response::decode(&report).unwrap();
        match parsed {
            Response::Report(r) => assert!(r.total_traffic_bytes > 0),
            other => panic!("expected report, got {other:?}"),
        }
        assert_eq!(c.request("QUIT").unwrap(), "OK BYE");
        server.shutdown();
    }

    #[test]
    fn bad_input_answers_errors_not_disconnects() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.request("STEP 5").unwrap().starts_with("ERR NOSESSION"));
        assert!(c
            .request("OPEN x nodes=zork")
            .unwrap()
            .starts_with("ERR USAGE"));
        // No connected deployment has average degree 1: the client gets an
        // error, the worker lives, and the name stays free.
        for open in ["OPEN x nodes=40 degree=1", "FEDOPEN f nodes=40 degree=1"] {
            let r = c.request(open).unwrap();
            assert!(r.starts_with("ERR TOPOLOGY"), "{open}: {r}");
        }
        assert_eq!(c.request("OPEN x").unwrap(), "OK OPENED x nodes=60");
        assert!(c.request("FROB 1").unwrap().starts_with("ERR USAGE"));
        assert!(c
            .request("ADMIT quantum SELECT s.id FROM s, t WHERE s.u = t.u")
            .unwrap()
            .starts_with("ERR ALGO"));
        assert!(c
            .request("ADMIT naive SELECT FROM")
            .unwrap()
            .starts_with("ERR PARSE"));
        assert!(c.request("RETIRE q7").unwrap().starts_with("ERR TARGET"));
        // The connection is still usable after every error.
        assert_eq!(c.request("STEP 1").unwrap(), "OK STEPPED 1");
        server.shutdown();
    }

    #[test]
    fn fed_spec_link_and_admit_parse() {
        assert_eq!(FedSpec::parse("").unwrap(), FedSpec::default());
        let s = FedSpec::parse("members=3 nodes=40 degree=6.5 seed=9").unwrap();
        assert_eq!(s.members, 3);
        assert_eq!(
            s.member_spec,
            OpenSpec {
                nodes: 40,
                degree: 6.5,
                seed: 9
            }
        );
        assert!(FedSpec::parse("members=1").is_err());
        assert!(FedSpec::parse("members=17").is_err());
        assert!(FedSpec::parse("widgets=3").is_err());

        let l = parse_link("0:12 1:7 loss=0.1 latency=2 budget=512").unwrap();
        assert_eq!(
            (l.a_net, l.a_node, l.b_net, l.b_node),
            (0, NodeId(12), 1, NodeId(7))
        );
        assert_eq!(
            (l.loss, l.latency_cycles, l.budget_bytes_per_cycle),
            (0.1, 2, 512)
        );
        assert!(parse_link("0:12").is_err());
        assert!(parse_link("0:12 1:7 loss=1.0").is_err());
        assert!(parse_link("012 1:7").is_err());
        assert!(parse_link("0:12 1:7 frob=1").is_err());

        match parse_fed_admit("innet-cmg homes=0,0,1 mode=shipbase SELECT x").unwrap() {
            FedRequest::Admit {
                algo,
                homes,
                mode,
                sql,
            } => {
                assert_eq!(algo, "innet-cmg");
                assert_eq!(homes, vec![0, 0, 1]);
                assert_eq!(mode, CrossMode::ShipBase);
                assert_eq!(sql, "SELECT x");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_fed_admit("innet-cmg SELECT x").is_err());
        assert!(parse_fed_admit("innet-cmg homes=a,b SELECT x").is_err());
        assert!(parse_fed_admit("innet-cmg homes=0,1 mode=warp SELECT x").is_err());
    }

    /// The 4-relation chain the wire federation tests admit: 10-node id
    /// bands joined on `u` (the routable selection pattern).
    const FED_SQL: &str = "SELECT r0.id, r3.id FROM r0, r1, r2, r3 \
                           [windowsize=2 sampleinterval=100] \
                           WHERE r0.id < 10 AND r1.id >= 10 AND r1.id < 20 \
                           AND r2.id >= 20 AND r2.id < 30 \
                           AND r3.id >= 30 AND r3.id < 40 \
                           AND r0.u = r1.u AND r1.u = r2.u AND r2.u = r3.u";

    #[test]
    fn federation_end_to_end_over_the_wire() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(
            c.request("FEDOPEN f members=2 nodes=60 seed=3").unwrap(),
            "OK FEDOPENED f members=2 nodes=60"
        );
        assert_eq!(
            c.request("LINK f 0:10 1:5 latency=1").unwrap(),
            "OK LINKED f 0"
        );
        assert_eq!(
            c.request("LINK f 0:20 1:15 loss=0.3").unwrap(),
            "OK LINKED f 1"
        );
        let admitted = c
            .request(&format!("FEDADMIT f innet-cmg homes=0,0,1,1 {FED_SQL}"))
            .unwrap();
        assert_eq!(admitted, "OK FEDADMITTED x0");
        // The link set is frozen once the federation runs.
        assert!(c
            .request("LINK f 0:11 1:6")
            .unwrap()
            .starts_with("ERR STATE"));
        let report = c.request("FEDREPORT f cycles=30").unwrap();
        assert!(
            report.starts_with("OK FEDREPORT FED cycles=30 "),
            "got: {report}"
        );
        let cross: u64 = report
            .split_whitespace()
            .find_map(|t| t.strip_prefix("cross_results="))
            .expect("report carries cross_results")
            .parse()
            .unwrap();
        assert!(cross > 0, "no tuples crossed the wire federation: {report}");
        // Errors answer, not disconnect.
        assert!(c
            .request("FEDREPORT nosuch")
            .unwrap()
            .starts_with("ERR NOFED"));
        assert!(c
            .request(&format!("FEDADMIT f quantum homes=0,1 {FED_SQL}"))
            .unwrap()
            .starts_with("ERR ALGO"));
        assert!(c
            .request("FEDADMIT f innet-cmg homes=0,0,1,1 SELECT FROM")
            .unwrap()
            .starts_with("ERR PARSE"));
        assert!(c
            .request(&format!("FEDADMIT f innet-cmg homes=0,0,1 {FED_SQL}"))
            .unwrap()
            .starts_with("ERR FED"));
        server.shutdown();
    }

    /// Satellite regression: a runaway client spamming `FEDOPEN` — the
    /// most expensive verb on the wire, each one instantiating whole
    /// member networks — hits `ERR QUOTA` instead of exhausting the
    /// server, and `FEDADMIT` draws from the same query quota as `ADMIT`.
    #[test]
    fn federation_quotas_are_enforced_per_connection() {
        let server = Server::start(ServeConfig {
            max_federations_per_client: 1,
            max_queries_per_client: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c
            .request("FEDOPEN a nodes=40")
            .unwrap()
            .starts_with("OK FEDOPENED"));
        for name in ["b", "c", "d"] {
            assert!(
                c.request(&format!("FEDOPEN {name} nodes=40"))
                    .unwrap()
                    .starts_with("ERR QUOTA"),
                "runaway FEDOPEN {name} must be refused"
            );
        }
        // Re-opening an existing federation attaches and is quota-free.
        assert!(c
            .request("FEDOPEN a")
            .unwrap()
            .starts_with("OK FEDATTACHED"));
        c.request("LINK a 0:10 1:5").unwrap();
        assert!(c
            .request(&format!("FEDADMIT a innet-cmg homes=0,0,1,1 {FED_SQL}"))
            .unwrap()
            .starts_with("OK FEDADMITTED"));
        assert!(c
            .request(&format!("FEDADMIT a innet-cmg homes=0,0,1,1 {FED_SQL}"))
            .unwrap()
            .starts_with("ERR QUOTA"));
        // A fresh connection has a fresh quota but shares the namespace.
        let mut c2 = Client::connect(server.addr()).unwrap();
        assert!(c2
            .request("FEDOPEN a")
            .unwrap()
            .starts_with("OK FEDATTACHED"));
        assert!(c2
            .request(&format!("FEDADMIT a innet-cmg homes=0,0,1,1 {FED_SQL}"))
            .unwrap()
            .starts_with("OK FEDADMITTED"));
        server.shutdown();
    }

    #[test]
    fn quotas_are_enforced_per_connection() {
        let server = Server::start(ServeConfig {
            max_sessions_per_client: 1,
            max_queries_per_client: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.request("OPEN a").unwrap().starts_with("OK OPENED"));
        assert!(c.request("OPEN b").unwrap().starts_with("ERR QUOTA"));
        // Attaching to an existing session is free.
        assert!(c.request("OPEN a").unwrap().starts_with("OK ATTACHED"));
        let admit = "ADMIT naive SELECT s.id, t.id FROM s, t \
                     [windowsize=2 sampleinterval=100] \
                     WHERE s.id < 20 AND t.id >= 20 AND s.u = t.u";
        assert!(c.request(admit).unwrap().starts_with("OK ADMITTED"));
        assert!(c.request(admit).unwrap().starts_with("OK ADMITTED"));
        assert!(c.request(admit).unwrap().starts_with("ERR QUOTA"));
        // A fresh connection has a fresh quota but shares the session
        // namespace.
        let mut c2 = Client::connect(server.addr()).unwrap();
        assert!(c2.request("OPEN a").unwrap().starts_with("OK ATTACHED"));
        assert!(c2.request(admit).unwrap().starts_with("OK ADMITTED"));
        server.shutdown();
    }

    #[test]
    fn subscriber_streams_events() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut driver = Client::connect(server.addr()).unwrap();
        driver.request("OPEN ev nodes=60 seed=1").unwrap();

        let mut sub = Client::connect(server.addr()).unwrap();
        sub.request("USE ev").unwrap();
        assert_eq!(sub.request("SUBSCRIBE").unwrap(), "OK SUBSCRIBED");

        driver
            .request(
                "ADMIT naive SELECT s.id, t.id FROM s, t \
                 [windowsize=2 sampleinterval=100] \
                 WHERE s.id < 20 AND t.id >= 20 AND s.u = t.u",
            )
            .unwrap();
        driver.request("STEP 2").unwrap();

        // The admission produces PHASE + ADMITTED events at minimum.
        let first = sub.read_line().unwrap();
        assert!(first.starts_with("EVENT "), "got: {first}");
        aspen_join::decode_event(&first).expect("subscriber line decodes");
        server.shutdown();
    }

    /// CLOSE with a live SUBSCRIBE attached: the subscriber must read a
    /// terminal `EVENT CLOSED <cycle>` line and then a clean EOF — not a
    /// dangling stream, not a bare disconnect.
    #[test]
    fn close_sends_terminal_event_to_subscribers() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut driver = Client::connect(server.addr()).unwrap();
        driver.request("OPEN doomed nodes=60 seed=1").unwrap();
        driver.request("STEP 3").unwrap();

        let mut sub = Client::connect(server.addr()).unwrap();
        sub.request("USE doomed").unwrap();
        assert_eq!(sub.request("SUBSCRIBE").unwrap(), "OK SUBSCRIBED");

        assert_eq!(driver.request("CLOSE").unwrap(), "OK CLOSED doomed");

        // The subscriber had seen no events yet (no queries admitted), so
        // the very next line is the terminal one.
        let last = sub.read_line().unwrap();
        assert_eq!(
            aspen_join::decode_event(&last),
            Ok(SessionEvent::Closed { cycle: 3 }),
            "got: {last}"
        );
        // …followed by a clean EOF.
        assert_eq!(sub.read_line().unwrap(), "");
        server.shutdown();
    }

    /// The warm-start cache is session-scoped: it survives query churn,
    /// so retiring a query and re-admitting the same shape on the same
    /// named session is a cache hit. `CACHESTATS` exposes the counters.
    #[test]
    fn cache_survives_query_churn_within_a_session() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        c.request("OPEN churn nodes=60 seed=1").unwrap();
        assert_eq!(
            c.request("CACHESTATS").unwrap(),
            "OK CACHESTATS entries=0 hits=0 misses=0 insertions=0 evictions=0"
        );
        // §6 learning must be on for retirement to have σ estimates to
        // harvest — hence the `-learn` algorithm variant.
        let admit = "ADMIT innet-cmg-learn SELECT s.id, t.id FROM s, t \
                     [windowsize=2 sampleinterval=100] \
                     WHERE s.id < 20 AND t.id >= 20 AND s.u = t.u";
        assert_eq!(c.request(admit).unwrap(), "OK ADMITTED q0");
        c.request("STEP 25").unwrap();
        assert_eq!(c.request("RETIRE q0").unwrap(), "OK RETIRED q0");
        // The retirement harvested learned state; the same shape on the
        // same session now seeds warm.
        assert_eq!(c.request(admit).unwrap(), "OK ADMITTED q1");
        let stats = c.request("CACHESTATS").unwrap();
        let parsed = Response::decode(&stats).unwrap();
        match parsed {
            Response::CacheStats(s) => {
                assert!(s.insertions >= 1, "harvest recorded: {stats}");
                assert!(s.hits >= 1, "re-admission hit: {stats}");
                assert_eq!(s.misses, 1, "first admission missed: {stats}");
            }
            other => panic!("expected cache stats, got {other:?}"),
        }
        server.shutdown();
    }
}
