//! `aspen-serve`: many [`Session`]s behind a TCP line protocol.
//!
//! The [control plane](aspen_join::control) made every session operation
//! a serializable [`Command`]/[`Response`] pair; this crate puts a socket
//! in front of it. A [`Server`] runs one thread per connection, and each
//! command runs on the thread that read it. Named sessions are *sharded*:
//! `hash(name) % workers` picks the shard that owns a name for its whole
//! life, and a command runs under that shard's lock — the name lookup,
//! [`Session::apply`] and the reply's encoding. Sessions of one shard
//! therefore take one command at a time, while different shards run in
//! parallel. The reply is written after the lock is released, so a slow
//! client never holds a shard.
//!
//! A panic inside a command answers `ERR INTERNAL …` and removes only the
//! session or federation it ran against; the shard's other sessions keep
//! answering.
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
//! A request line longer than [`MAX_LINE`] bytes answers `ERR USAGE line
//! longer than … bytes` and ends that connection.
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
//! `ERR QUOTA …` without taking a shard lock. Attaching to an existing
//! session costs no session quota; every `ADMIT`/`ADMITGRAPH` that
//! reaches its session's shard costs one query quota, even if it is
//! later rejected. Federations extend the same scheme: a `FEDOPEN` that
//! creates a federation (which instantiates `members` whole networks at
//! once) is capped by [`ServeConfig::max_federations_per_client`], and
//! every `FEDADMIT` reaching its shard costs one query quota.

use aspen_join::control::{Command, Response};
use aspen_join::prelude::*;
use aspen_join::{encode_event, Observer, SessionEvent};
use sensor_net::{GatewayLink, NoTopology, NodeId};
use sensor_workload::WorkloadData;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Longest request line the server reads, terminator excluded. A longer
/// one answers `ERR USAGE` and ends its connection, so no client can make
/// the server buffer without bound.
pub const MAX_LINE: usize = 64 * 1024;

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

/// One parsed federation request, run under its federation's shard lock.
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
    /// Session shards: `hash(name) % workers` picks the one that owns a
    /// name. A shard takes one command at a time; shards run in parallel.
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
        let mut subs = lock(&self.subs);
        if subs.is_empty() {
            return;
        }
        let line = format!("{}\n", encode_event(ev));
        subs.retain_mut(|s| s.write_all(line.as_bytes()).is_ok());
    }
}

/// Lock `m` whether or not a panic poisoned it: every critical section
/// here leaves its data consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One served session: the simulation plus its subscriber list (shared
/// with the [`WireObserver`] attached inside the session).
struct Entry {
    session: Session,
    subs: Arc<Mutex<Vec<TcpStream>>>,
}

impl Drop for Entry {
    /// However the session ends — `CLOSE`, a panic, server teardown — its
    /// subscribers read EOF, never a dangling stream.
    fn drop(&mut self) {
        for s in lock(&self.subs).iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
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

/// `may_create`: whether the connection's federation quota allows
/// *creating* one; only the shard knows whether a `FEDOPEN` creates or
/// attaches.
fn apply_fed(
    feds: &mut HashMap<String, FedEntry>,
    name: &str,
    req: FedRequest,
    may_create: bool,
) -> String {
    if let FedRequest::Open(spec) = req {
        return if feds.contains_key(name) {
            format!("OK FEDATTACHED {name}")
        } else if !may_create {
            err_line("QUOTA", "federation quota exhausted")
        } else {
            let sessions = match open_fed_members(&spec) {
                Ok(sessions) => sessions,
                Err(e) => return err_line("TOPOLOGY", &e.to_string()),
            };
            feds.insert(
                name.to_string(),
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
    let Some(entry) = feds.get_mut(name) else {
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

fn no_session(name: &str) -> String {
    err_line("NOSESSION", &format!("no session '{name}'"))
}

fn shard_of(name: &str, workers: usize) -> usize {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() as usize) % workers
}

/// What one shard owns: the sessions and federations whose names hash to
/// it.
#[derive(Default)]
struct Shard {
    sessions: HashMap<String, Entry>,
    feds: HashMap<String, FedEntry>,
}

/// A name in one of the two namespaces a shard holds.
#[derive(Clone, Copy)]
enum Key<'a> {
    Session(&'a str),
    Fed(&'a str),
}

/// What the accept loop and every connection thread share.
struct State {
    cfg: ServeConfig,
    shards: Vec<Mutex<Shard>>,
    stop: AtomicBool,
    /// Live connections by id, so `shutdown` can hang each one up.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl State {
    fn new(cfg: ServeConfig) -> State {
        assert!(cfg.workers >= 1, "need at least one session shard");
        State {
            shards: (0..cfg.workers).map(|_| Mutex::default()).collect(),
            cfg,
            stop: AtomicBool::new(false),
            conns: Mutex::default(),
        }
    }

    /// Run `f` under the lock of the shard that owns `key`; return its
    /// reply line. A panic in `f` answers `ERR INTERNAL` and removes
    /// `key`'s session or federation: the lock is never poisoned, and the
    /// shard's other entries keep answering.
    fn locked(&self, key: Key, f: impl FnOnce(&mut Shard) -> String) -> String {
        let i = match key {
            Key::Session(name) => shard_of(name, self.shards.len()),
            Key::Fed(name) => shard_of(&format!("fed:{name}"), self.shards.len()),
        };
        let mut shard = lock(&self.shards[i]);
        if self.stop.load(Ordering::SeqCst) {
            return err_line("SHUTDOWN", "server is shutting down");
        }
        if let Ok(line) = catch_unwind(AssertUnwindSafe(|| f(&mut shard))) {
            return line;
        }
        let what = match key {
            Key::Session(name) => {
                shard.sessions.remove(name);
                format!("session '{name}'")
            }
            Key::Fed(name) => {
                shard.feds.remove(name);
                format!("federation '{name}'")
            }
        };
        err_line("INTERNAL", &format!("{what} removed after a panic"))
    }

    /// `may_create`: whether the connection's session quota allows
    /// *creating* a session; attaching to an existing one is always
    /// allowed, and only the shard knows which case this is.
    fn open(&self, name: &str, spec: OpenSpec, may_create: bool) -> String {
        self.locked(Key::Session(name), |shard| {
            if shard.sessions.contains_key(name) {
                return format!("OK ATTACHED {name}");
            }
            if !may_create {
                return err_line("QUOTA", "session quota exhausted");
            }
            match try_open_session(&spec) {
                Ok(mut session) => {
                    let subs = Arc::new(Mutex::new(Vec::new()));
                    session.observe(Box::new(WireObserver { subs: subs.clone() }));
                    shard
                        .sessions
                        .insert(name.to_string(), Entry { session, subs });
                    format!("OK OPENED {name} nodes={}", spec.nodes)
                }
                Err(e) => err_line("TOPOLOGY", &e.to_string()),
            }
        })
    }

    fn apply(&self, name: &str, cmd: Command) -> String {
        self.locked(Key::Session(name), |shard| {
            match shard.sessions.get_mut(name) {
                Some(e) => e.session.apply(cmd).encode(),
                None => no_session(name),
            }
        })
    }

    /// Register `stream` for `name`'s events. `OK SUBSCRIBED` is written
    /// here, under the lock and ahead of registering, so it is the first
    /// line the subscriber reads, before any event.
    fn subscribe(&self, name: &str, mut stream: TcpStream) -> String {
        self.locked(Key::Session(name), |shard| {
            match shard.sessions.get_mut(name) {
                Some(e) => {
                    let ok = Response::Subscribed.encode();
                    let _ = write_line(&mut stream, &ok);
                    lock(&e.subs).push(stream);
                    ok
                }
                None => no_session(name),
            }
        })
    }

    /// Every subscriber reads `EVENT CLOSED <cycle>`, then EOF once the
    /// entry drops.
    fn close(&self, name: &str) -> String {
        self.locked(Key::Session(name), |shard| {
            match shard.sessions.remove(name) {
                Some(e) => {
                    let cycle = e.session.cycle();
                    let closed = format!("{}\n", encode_event(&SessionEvent::Closed { cycle }));
                    for s in lock(&e.subs).iter_mut() {
                        let _ = s.write_all(closed.as_bytes());
                    }
                    format!("OK CLOSED {name}")
                }
                None => no_session(name),
            }
        })
    }

    fn fed(&self, name: &str, req: FedRequest, may_create: bool) -> String {
        self.locked(Key::Fed(name), |shard| {
            apply_fed(&mut shard.feds, name, req, may_create)
        })
    }
}

/// A running server. Dropping it without [`Server::shutdown`] leaks the
/// accept loop and the connection threads; call `shutdown` for a clean
/// exit (the CI smoke test asserts it returns).
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    listener: JoinHandle<()>,
}

impl Server {
    /// Bind, spawn the accept loop, and return.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let state = Arc::new(State::new(cfg));
        let listener = TcpListener::bind(&*state.cfg.addr)?;
        let addr = listener.local_addr()?;
        let accept_state = state.clone();
        let listener = std::thread::spawn(move || accept_loop(listener, &accept_state));
        Ok(Server {
            addr,
            state,
            listener,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, hang up every connection, and join every server
    /// thread. Once this returns no thread touches a session; a command
    /// that races it answers `ERR SHUTDOWN`.
    pub fn shutdown(self) {
        {
            let conns = lock(&self.state.conns);
            self.state.stop.store(true, Ordering::SeqCst);
            for c in conns.values() {
                let _ = c.shutdown(Shutdown::Both);
            }
        }
        // Wake the accept loop with a throwaway connection; it joins the
        // connection threads before it exits.
        let _ = TcpStream::connect(self.addr);
        let _ = self.listener.join();
    }
}

/// Serve every accepted connection on a thread of its own until
/// `shutdown`, then join them all.
fn accept_loop(listener: TcpListener, state: &Arc<State>) {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        let Ok(stream) = stream else { continue };
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        {
            let mut conns = lock(&state.conns);
            // `stop` is set under this lock, so a connection is either in
            // `conns` when `shutdown` hangs them up, or never served.
            if state.stop.load(Ordering::SeqCst) {
                break;
            }
            conns.insert(id, clone);
        }
        // A finished thread's handle can go: its body catches every panic.
        threads.retain(|t| !t.is_finished());
        let state = state.clone();
        threads.push(std::thread::spawn(move || {
            let _ = catch_unwind(AssertUnwindSafe(|| serve_client(stream, &state)));
            // The entry goes with its connection, however that ended: a
            // closed connection holds no descriptor.
            lock(&state.conns).remove(&id);
        }));
    }
    for t in threads {
        let _ = t.join();
    }
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
/// peer hangs up, after `QUIT` or an over-long line, or once the
/// connection becomes an event stream via `SUBSCRIBE`.
fn serve_client(stream: TcpStream, state: &State) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let cfg = &state.cfg;
    let mut current: Option<String> = None;
    let mut sessions_created = 0usize;
    let mut queries_admitted = 0usize;
    let mut federations_created = 0usize;
    let quota_exhausted = || {
        err_line(
            "QUOTA",
            &format!(
                "query quota exhausted ({} per client)",
                cfg.max_queries_per_client
            ),
        )
    };
    let mut line = Vec::new();
    loop {
        line.clear();
        let cap = MAX_LINE as u64 + 1;
        if reader.by_ref().take(cap).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        if line.len() > MAX_LINE && !line.ends_with(b"\n") {
            let e = err_line("USAGE", &format!("line longer than {MAX_LINE} bytes"));
            write_line(&mut out, &e)?;
            // A FIN ahead of the reset that closing on unread input sends:
            // the client reads the error, then EOF.
            return out.shutdown(Shutdown::Write);
        }
        let req = std::str::from_utf8(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            .trim_end_matches(['\r', '\n']);
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
                            let may_create = sessions_created < cfg.max_sessions_per_client;
                            let r = state.open(name, spec, may_create);
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
                            let r = state.fed(name, FedRequest::Open(spec), may_create);
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
                        Ok(link) => state.fed(name, FedRequest::Link(link), false),
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
                        Ok(_) if queries_admitted >= cfg.max_queries_per_client => {
                            quota_exhausted()
                        }
                        Ok(req) => {
                            queries_admitted += 1;
                            state.fed(name, req, false)
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
                        Ok(cycles) => state.fed(name, FedRequest::Report { cycles }, false),
                        Err(e) => err_line("USAGE", &e),
                    }
                }
            }
            "CLOSE" => match &current {
                Some(name) => {
                    let r = state.close(name);
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
                        let r = state.subscribe(name, out.try_clone()?);
                        if r.starts_with("OK") {
                            // The connection now belongs to the event
                            // stream; swallow any further input until the
                            // peer hangs up so we never write here again.
                            std::io::copy(&mut reader, &mut std::io::sink())?;
                            return Ok(());
                        }
                        r
                    }
                    Ok(cmd) => {
                        let admits =
                            matches!(cmd, Command::Admit { .. } | Command::AdmitGraph { .. });
                        if admits && queries_admitted >= cfg.max_queries_per_client {
                            quota_exhausted()
                        } else {
                            queries_admitted += usize::from(admits);
                            state.apply(name, cmd)
                        }
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

    const ADMIT_PAIR: &str = "ADMIT innet-cmg SELECT s.id, t.id FROM s, t \
                              [windowsize=2 sampleinterval=100] \
                              WHERE s.id < 20 AND t.id >= 20 AND s.u = t.u";

    /// A panic in one session's command, with `workers: 1` so both
    /// sessions share the shard: the panicking one answers `ERR INTERNAL`
    /// and is gone, the other answers `REPORT` byte for byte as an
    /// in-process session does, and the shard lock is not poisoned.
    #[test]
    fn a_panic_removes_only_its_own_session() {
        let state = State::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let spec = OpenSpec::parse("nodes=40 seed=2").unwrap();
        let admit = Command::decode(ADMIT_PAIR).unwrap();
        for name in ["doomed", "bystander"] {
            assert!(state.open(name, spec, true).starts_with("OK OPENED"));
            assert_eq!(state.apply(name, admit.clone()), "OK ADMITTED q0");
        }
        let r = state.locked(Key::Session("doomed"), |shard| {
            let e = shard.sessions.get_mut("doomed").unwrap();
            e.session.apply(Command::Step(2));
            panic!("injected fault");
        });
        assert_eq!(
            r,
            "ERR INTERNAL session%20'doomed'%20removed%20after%20a%20panic"
        );
        assert!(!state.shards[0].is_poisoned());
        assert!(state
            .apply("doomed", Command::Report)
            .starts_with("ERR NOSESSION"));

        let mut direct = open_session(&spec);
        direct.apply(admit);
        direct.apply(Command::Step(6));
        assert_eq!(state.apply("bystander", Command::Step(6)), "OK STEPPED 6");
        assert_eq!(
            state.apply("bystander", Command::Report),
            direct.apply(Command::Report).encode()
        );
        // The name is free again.
        assert!(state.open("doomed", spec, true).starts_with("OK OPENED"));
        // Once shutdown has begun, no command reaches a session.
        state.stop.store(true, Ordering::SeqCst);
        assert!(state
            .apply("bystander", Command::Report)
            .starts_with("ERR SHUTDOWN"));
    }

    /// A line past [`MAX_LINE`] reads `ERR USAGE` and then EOF on its own
    /// connection; another connection's session does not notice.
    #[test]
    fn overlong_line_ends_only_its_connection() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut other = Client::connect(server.addr()).unwrap();
        other.request("OPEN keep nodes=40 seed=2").unwrap();
        other.request(ADMIT_PAIR).unwrap();
        other.request("STEP 3").unwrap();

        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(
            c.request("OPEN spam nodes=40").unwrap(),
            "OK OPENED spam nodes=40"
        );
        // Write errors are fine: the server may hang up before it has all.
        let _ = write_line(&mut c.stream, &"x".repeat(100 * 1024));
        assert_eq!(
            c.read_line().unwrap(),
            format!("ERR USAGE line%20longer%20than%20{MAX_LINE}%20bytes")
        );
        assert_eq!(c.read_line().unwrap(), "");

        let mut direct = open_session(&OpenSpec::parse("nodes=40 seed=2").unwrap());
        direct.apply(Command::decode(ADMIT_PAIR).unwrap());
        direct.apply(Command::Step(3));
        assert_eq!(
            other.request("REPORT").unwrap(),
            direct.apply(Command::Report).encode()
        );
        server.shutdown();
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
