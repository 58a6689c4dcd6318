//! The serializable control plane of a [`Session`] and a [`Federation`].
//!
//! Everything a caller can *do* to a session is a [`Command`]; everything
//! a session says back is a [`Response`]. [`Session::apply`] is the one
//! entry point — it never panics on bad input, it answers
//! [`Response::Rejected`] — so a session can sit behind a wire protocol
//! (`aspen-serve`) with the exact same semantics it has in-process:
//! driving a session through `apply` produces byte-identical outcomes to
//! calling [`Session::admit`]/[`Session::step`]/[`Session::report`]
//! directly, which is what the serve parity tests assert.
//! [`Federation::apply`] is the same for a [`FedCommand`].
//!
//! A wire line is a [`Request`]: a session [`Command`], a connection verb
//! (`OPEN`, `USE`, `CLOSE`, `QUIT`) or a federation verb (`FEDOPEN`,
//! `LINK`, `FEDADMIT`, `FEDREPORT`). [`VERBS`] lists every verb with its
//! syntax; a line that does not decode answers [`ControlError::Usage`]
//! with that syntax.
//!
//! Every type here has a compact single-line text encoding (`encode` /
//! `decode`, exact inverses — property-tested) that doubles as the wire
//! protocol's line format. Strings embedded in responses and events
//! are percent-escaped so encodings stay one line regardless of content;
//! the SQL text of an `ADMIT`/`FEDADMIT` line is carried raw
//! (rest-of-line) so humans can type it over `nc`.

use crate::cache::CacheStats;
use crate::cost::Sigma;
use crate::federation::{CrossId, CrossMode, Federation};
use crate::session::{GraphId, Outcome, Phase, QueryId, Session, SessionEvent};
use crate::shared::{parse_algo, AlgoConfig};
use sensor_net::{GatewayLink, NoTopology, NodeId};
use sensor_query::{parse, parse_join_graph, ParseError, Parsed};
use sensor_sim::SimConfig;
use sensor_workload::{Rates, Schedule, WorkloadData};
use std::str::FromStr;

/// Most sampling cycles one command may advance (`STEP`, `RUN CYCLE`,
/// `RUN RESULTS`, `FEDREPORT cycles=`), so that no wire client can hold
/// its session's serve shard for longer than that.
pub const MAX_CYCLES_PER_COMMAND: u32 = 10_000;

/// Selectivities assumed by wire admissions ([`Command::Admit`] carries
/// an algorithm slug, not a full [`AlgoConfig`]); matches the workload
/// generator's defaults.
pub const WIRE_ASSUMED_SIGMA: Sigma = Sigma {
    s: 0.5,
    t: 0.5,
    st: 0.2,
};

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

impl std::fmt::Display for OpenSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nodes={} degree={} seed={}",
            self.nodes, self.degree, self.seed
        )
    }
}

/// `key=value` options into an [`OpenSpec`]; with `members`, a `FEDOPEN`'s
/// `members=M` too.
fn parse_spec<'a>(
    toks: impl Iterator<Item = &'a str>,
    mut members: Option<&mut usize>,
) -> Result<OpenSpec, String> {
    let mut spec = OpenSpec::default();
    for tok in toks {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad option '{tok}' (want key=value)"))?;
        match (k, members.as_deref_mut()) {
            ("nodes", _) => spec.nodes = num(v, k)?,
            ("degree", _) => spec.degree = num(v, k)?,
            ("seed", _) => spec.seed = num(v, k)?,
            ("members", Some(m)) => *m = num(v, k)?,
            _ => return Err(format!("unknown option '{k}'")),
        }
    }
    if !(2..=20_000).contains(&spec.nodes) {
        return Err(format!("nodes={} out of range [2, 20000]", spec.nodes));
    }
    // Fitting a deployment sorts every link within reach, so its cost
    // grows with the degree: near `nodes` it is every pair, under the
    // shard lock. The paper's densest network has degree 13.
    if spec.degree.is_nan() || spec.degree > 64.0 {
        return Err(format!("degree={} out of range (at most 64)", spec.degree));
    }
    Ok(spec)
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

/// Build the session an `OPEN` line describes, if its `nodes`, `degree`
/// and `seed` — the client's choice — yield a connected deployment. The
/// parity tests and the load generator run the *same* construction
/// in-process and compare outcomes byte-for-byte with the served ones.
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

/// Build the federation a `FEDOPEN` line describes: member `i` is named
/// `net<i>`, and no link is declared yet. It takes [`FedCommand::Link`]s
/// until its first admission or report.
pub fn open_fed_members(spec: &FedSpec) -> Result<Federation, NoTopology> {
    let mut fed = Federation::builder().seed(spec.member_spec.seed);
    for i in 0..spec.members {
        let seed = spec.member_spec.seed.wrapping_add(100 * i as u64);
        let member = try_open_session(&OpenSpec {
            seed,
            ..spec.member_spec
        })?;
        fed = fed.member(format!("net{i}"), member);
    }
    Ok(fed.open())
}

/// Handle to either kind of admitted query, as it appears on the wire
/// (`q3` / `g1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    Query(QueryId),
    Graph(GraphId),
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Target::Query(q) => write!(f, "q{}", q.0),
            Target::Graph(g) => write!(f, "g{}", g.0),
        }
    }
}

impl Target {
    /// Parse a `q3` / `g1` handle.
    pub fn parse(s: &str) -> Option<Target> {
        let idx = s.get(1..)?.parse().ok()?;
        match s.as_bytes().first()? {
            b'q' => Some(Target::Query(QueryId(idx))),
            b'g' => Some(Target::Graph(GraphId(idx))),
            _ => None,
        }
    }
}

/// Stop condition for [`Command::RunUntil`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// Run until the session's next cycle reaches `c` (no-op if already
    /// there).
    Cycle(u32),
    /// Run until at least `n` join results were delivered to the base,
    /// bounded by [`MAX_CYCLES_PER_COMMAND`] extra cycles.
    Results(u64),
}

/// One instruction to a session. The full lifecycle of the
/// [session](crate::session) layer, as data.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Admit a query given an algorithm slug (see
    /// [`parse_algo`]) and StreamSQL text; the
    /// unified parser dispatches two-relation `FROM s, t` queries to the
    /// classic pairwise grammar and everything else to the n-way graph
    /// grammar.
    Admit { algo: String, sql: String },
    /// Admit forcing the n-way graph grammar (a two-relation graph stays
    /// a graph query with a one-edge plan instead of a bare pairwise
    /// query).
    AdmitGraph { algo: String, sql: String },
    /// Retire a pairwise (`q3`) or graph (`g1`) query. Idempotent.
    Retire(Target),
    /// Advance `n` sampling cycles.
    Step(u32),
    /// Step until a condition holds.
    RunUntil(StopWhen),
    /// Kill a node now (base station refuses).
    Kill(NodeId),
    /// Drain in-flight traffic and summarize the outcome so far.
    Report,
    /// Report the warm-start learned-state cache counters
    /// ([`CacheStats`]): resident entries and cumulative
    /// hit/miss/insertion/eviction counts across the session's query
    /// churn.
    CacheStats,
    /// Ask for the session's event stream. [`Session::apply`] answers
    /// [`Response::Subscribed`] and nothing more — in-process callers
    /// attach an [`Observer`](crate::session::Observer) directly; the
    /// serve layer intercepts this command to register the connection.
    Subscribe,
}

/// One wire line: a session [`Command`], a connection verb, or a
/// federation verb. A connection first selects a session (`OPEN`/`USE`),
/// then speaks [`Command`] lines at it; federations always carry their
/// name. See [`VERBS`] for the syntax of each.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create the named session from `spec`, or attach to it if it exists.
    Open { name: String, spec: OpenSpec },
    /// Select an existing session.
    Use(String),
    /// Tear down the selected session.
    Close,
    /// End the connection.
    Quit,
    /// A command for the selected session.
    Session(Command),
    /// Create the named federation from `spec`, or attach to it.
    FedOpen { name: String, spec: FedSpec },
    /// A command for the named federation.
    Fed { name: String, cmd: FedCommand },
}

/// One instruction to a [`Federation`] ([`Federation::apply`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FedCommand {
    /// Declare a gateway pair; only before the first admission or report.
    Link(GatewayLink),
    /// Admit a cross-network join graph, one home member per relation.
    Admit {
        algo: String,
        homes: Vec<usize>,
        mode: CrossMode,
        sql: String,
    },
    /// Step `cycles` federation cycles, then drain and summarize.
    Report { cycles: u32 },
}

/// Every request verb with its argument syntax: the one source of the
/// `ERR USAGE` text a malformed line answers.
#[rustfmt::skip]
pub const VERBS: &[(&str, &str)] = &[
    ("OPEN", "<name> [nodes=N] [degree=D] [seed=S]"),
    ("USE", "<name>"),
    ("ADMIT", "<algo> <streamsql>"),
    ("ADMITGRAPH", "<algo> <streamsql>"),
    ("RETIRE", "q<i> | g<i>"),
    ("STEP", "<n>"),
    ("RUN", "CYCLE <c> | RESULTS <n>"),
    ("KILL", "<node>"),
    ("REPORT", ""),
    ("CACHESTATS", ""),
    ("SUBSCRIBE", ""),
    ("CLOSE", ""),
    ("QUIT", ""),
    ("FEDOPEN", "<name> [members=M] [nodes=N] [degree=D] [seed=S]"),
    ("LINK", "<name> <an>:<anode> <bn>:<bnode> [loss=P] [latency=C] [budget=B]"),
    ("FEDADMIT", "<name> <algo> homes=0,0,1,.. [mode=gateway|shipbase] <streamsql>"),
    ("FEDREPORT", "<name> [cycles=N]"),
];

/// Why a [`Request`] was rejected. Every variant but `Parse` carries one
/// human-readable detail.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// The SQL failed to parse (byte offset + message, from
    /// [`ParseError`]).
    Parse { pos: usize, msg: String },
    /// The algorithm slug names no known combination.
    UnknownAlgo(String),
    /// The target id names no admitted query / known node.
    BadTarget(String),
    /// The command is not available on this session (e.g. admission on a
    /// bare-wire session).
    Unsupported(String),
    /// The line is malformed, or asks for more than one command may do.
    Usage(String),
    /// No session is selected, or the selected one does not exist.
    NoSession(String),
    /// No federation has that name.
    NoFed(String),
    /// The connection's session, federation or query quota is spent.
    Quota(String),
    /// The spec yields no connected deployment.
    Topology(String),
    /// The federation is past the point where this is allowed.
    State(String),
    /// The federation refused the link or the admission.
    Fed(String),
    /// The server is shutting down.
    Shutdown(String),
    /// The command panicked; its session or federation is gone.
    Internal(String),
}

/// Each detail-carrying [`ControlError`] by its wire token (the inverse of
/// [`ControlError::kind`]).
#[allow(clippy::type_complexity)]
const ERR_KINDS: &[(&str, fn(String) -> ControlError)] = &[
    ("ALGO", ControlError::UnknownAlgo),
    ("TARGET", ControlError::BadTarget),
    ("UNSUPPORTED", ControlError::Unsupported),
    ("USAGE", ControlError::Usage),
    ("NOSESSION", ControlError::NoSession),
    ("NOFED", ControlError::NoFed),
    ("QUOTA", ControlError::Quota),
    ("TOPOLOGY", ControlError::Topology),
    ("STATE", ControlError::State),
    ("FED", ControlError::Fed),
    ("SHUTDOWN", ControlError::Shutdown),
    ("INTERNAL", ControlError::Internal),
];

impl ControlError {
    /// The wire token after `ERR`, and the detail.
    fn kind(&self) -> (&'static str, &str) {
        match self {
            ControlError::Parse { msg, .. } => ("PARSE", msg),
            ControlError::UnknownAlgo(s) => ("ALGO", s),
            ControlError::BadTarget(s) => ("TARGET", s),
            ControlError::Unsupported(s) => ("UNSUPPORTED", s),
            ControlError::Usage(s) => ("USAGE", s),
            ControlError::NoSession(s) => ("NOSESSION", s),
            ControlError::NoFed(s) => ("NOFED", s),
            ControlError::Quota(s) => ("QUOTA", s),
            ControlError::Topology(s) => ("TOPOLOGY", s),
            ControlError::State(s) => ("STATE", s),
            ControlError::Fed(s) => ("FED", s),
            ControlError::Shutdown(s) => ("SHUTDOWN", s),
            ControlError::Internal(s) => ("INTERNAL", s),
        }
    }
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Parse { pos, msg } => write!(f, "parse error at byte {pos}: {msg}"),
            e => {
                let (kind, detail) = e.kind();
                write!(f, "{}: {detail}", kind.to_ascii_lowercase())
            }
        }
    }
}

impl From<ParseError> for ControlError {
    fn from(e: ParseError) -> ControlError {
        ControlError::Parse {
            pos: e.pos,
            msg: e.message,
        }
    }
}

/// One admitted query's row in a [`ReportSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySummary {
    pub label: String,
    pub name: String,
    pub arrival: u32,
    pub departure: Option<u32>,
    pub results: u64,
    pub avg_delay_tx: f64,
}

/// Flat, serializable digest of an [`Outcome`] — the session-level
/// metrics every harness in the repo reports, hoisted out of the bench
/// crate so the wire protocol and the sweeps speak the same vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSummary {
    /// The session's next sampling cycle when the report was taken.
    pub cycle: u32,
    pub results: u64,
    pub total_traffic_bytes: u64,
    pub base_load_bytes: u64,
    pub max_node_load_bytes: u64,
    pub total_traffic_msgs: u64,
    pub base_load_msgs: u64,
    pub avg_delay_cycles: f64,
    pub send_failures: u64,
    pub queue_drops: u64,
    pub repair_attempts: u64,
    pub repair_successes: u64,
    pub tuples_lost: u64,
    pub tuples_rerouted: u64,
    pub recovery_bytes: u64,
    pub expired_frames: u64,
    pub queries: Vec<QuerySummary>,
}

impl ReportSummary {
    /// Digest `out`, stamped with the session cycle it was taken at.
    pub fn from_outcome(cycle: u32, out: &Outcome) -> ReportSummary {
        ReportSummary {
            cycle,
            results: out.results_total(),
            total_traffic_bytes: out.total_traffic_bytes(),
            base_load_bytes: out.base_load_bytes(),
            max_node_load_bytes: out.max_node_load_bytes(),
            total_traffic_msgs: out.total_traffic_msgs(),
            base_load_msgs: out.base_load_msgs(),
            avg_delay_cycles: out.avg_delay_tx(),
            send_failures: out.send_failures(),
            queue_drops: out.queue_drops(),
            repair_attempts: out.recovery.repair_attempts,
            repair_successes: out.recovery.repair_successes,
            tuples_lost: out.recovery.tuples_lost + out.queued_msgs_lost,
            tuples_rerouted: out.recovery.tuples_rerouted,
            recovery_bytes: out.recovery.control_bytes,
            expired_frames: out.expired_frames,
            queries: out
                .per_query
                .iter()
                .map(|q| QuerySummary {
                    label: q.label.clone(),
                    name: q.name.clone(),
                    arrival: q.arrival,
                    departure: q.departure,
                    results: q.results,
                    avg_delay_tx: q.avg_delay_tx,
                })
                .collect(),
        }
    }
}

/// A session's answer to one [`Command`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Admitted(Target),
    Retired(Target),
    /// After [`Command::Step`]: the session's next cycle.
    Stepped {
        cycle: u32,
    },
    /// After [`Command::RunUntil`]: cycles advanced and the next cycle.
    Ran {
        cycles: u32,
        cycle: u32,
    },
    Killed {
        node: NodeId,
    },
    Report(Box<ReportSummary>),
    /// After [`Command::CacheStats`]: the session's learned-state cache
    /// counters.
    CacheStats(CacheStats),
    Subscribed,
    /// After [`Request::Open`] created the session.
    Opened {
        name: String,
        nodes: usize,
    },
    /// After [`Request::Open`] found the session already there.
    Attached(String),
    Using(String),
    Closed(String),
    Bye,
    /// After [`Request::FedOpen`] created the federation.
    FedOpened {
        name: String,
        members: usize,
        nodes: usize,
    },
    FedAttached(String),
    /// After [`FedCommand::Link`]: the new link's index.
    Linked {
        name: String,
        index: usize,
    },
    FedAdmitted(CrossId),
    /// After [`FedCommand::Report`]: the
    /// [summary line](crate::FederationOutcome::summary_line).
    FedReport(String),
    Rejected(ControlError),
}

// --- percent escaping ----------------------------------------------------

/// Escape a string into one whitespace-free token: `%`, space, comma and
/// control characters become `%XX`. The empty string encodes as `%` alone
/// (an invalid escape introducer can't be produced by `esc`, so it is
/// unambiguous).
pub fn esc(s: &str) -> String {
    if s.is_empty() {
        return "%".into();
    }
    let mut out = Vec::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b' ' | b',' | 0x00..=0x1f | 0x7f => {
                out.push(b'%');
                out.push(char::from_digit((b >> 4) as u32, 16).unwrap() as u8);
                out.push(char::from_digit((b & 0xf) as u32, 16).unwrap() as u8);
            }
            // Multi-byte UTF-8 sequences pass through byte-for-byte; only
            // ASCII metacharacters are ever rewritten, so validity holds.
            _ => out.push(b),
        }
    }
    String::from_utf8(out).expect("esc rewrites only ASCII bytes")
}

/// Inverse of [`esc`]. Fails on malformed escapes.
pub fn unesc(s: &str) -> Option<String> {
    if s == "%" {
        return Some(String::new());
    }
    let mut out = Vec::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hi = (*bytes.get(i + 1)? as char).to_digit(16)?;
            let lo = (*bytes.get(i + 2)? as char).to_digit(16)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

// --- Command encoding ----------------------------------------------------

impl Command {
    /// One-line wire form (`ADMIT innet-cmg SELECT ...`). The SQL of
    /// `ADMIT`/`ADMITGRAPH` rides raw as the rest of the line; everything
    /// else is whitespace-separated tokens.
    pub fn encode(&self) -> String {
        match self {
            Command::Admit { algo, sql } => format!("ADMIT {algo} {sql}"),
            Command::AdmitGraph { algo, sql } => format!("ADMITGRAPH {algo} {sql}"),
            Command::Retire(t) => format!("RETIRE {t}"),
            Command::Step(n) => format!("STEP {n}"),
            Command::RunUntil(StopWhen::Cycle(c)) => format!("RUN CYCLE {c}"),
            Command::RunUntil(StopWhen::Results(n)) => format!("RUN RESULTS {n}"),
            Command::Kill(v) => format!("KILL {}", v.0),
            Command::Report => "REPORT".into(),
            Command::CacheStats => "CACHESTATS".into(),
            Command::Subscribe => "SUBSCRIBE".into(),
        }
    }

    /// Exact inverse of [`Command::encode`] (modulo the verb's case): a
    /// [`Request::decode`] that accepts only session commands. The error
    /// string is human-readable and safe to echo to a wire client.
    pub fn decode(line: &str) -> Result<Command, String> {
        match Request::decode(line) {
            Ok(Request::Session(cmd)) => Ok(cmd),
            Ok(_) => Err(format!("not a session command: '{line}'")),
            Err(e) => Err(e.to_string()),
        }
    }
}

// --- Request encoding ----------------------------------------------------

/// The value of a `key=<n>` token.
fn key_num<'a, T: FromStr>(
    toks: &mut impl Iterator<Item = &'a str>,
    key: &str,
) -> Result<T, String> {
    let t = next(toks, key)?;
    let v = t
        .strip_prefix(key)
        .and_then(|t| t.strip_prefix('='))
        .ok_or_else(|| format!("expected {key}=…, got '{t}'"))?;
    num(v, key)
}

fn num<T: FromStr>(tok: &str, what: &str) -> Result<T, String> {
    tok.parse().map_err(|_| format!("bad {what} '{tok}'"))
}

fn next<'a>(toks: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, String> {
    toks.next().ok_or_else(|| format!("missing {what}"))
}

fn next_num<'a, T: FromStr>(
    toks: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, String> {
    num(next(toks, what)?, what)
}

/// The word before the next single space of a raw-tail line; `rest`
/// keeps what follows it.
fn word<'a>(rest: &mut &'a str, what: &str) -> Result<&'a str, String> {
    let (w, tail) = rest
        .split_once(' ')
        .filter(|(w, _)| !w.is_empty())
        .ok_or_else(|| format!("missing {what}"))?;
    *rest = tail;
    Ok(w)
}

impl Request {
    /// One-line wire form. Names are tokens without whitespace; the SQL of
    /// `ADMIT`/`ADMITGRAPH`/`FEDADMIT` rides raw as the rest of the line.
    pub fn encode(&self) -> String {
        match self {
            Request::Open { name, spec } => format!("OPEN {name} {spec}"),
            Request::Use(name) => format!("USE {name}"),
            Request::Close => "CLOSE".into(),
            Request::Quit => "QUIT".into(),
            Request::Session(cmd) => cmd.encode(),
            Request::FedOpen { name, spec } => {
                format!(
                    "FEDOPEN {name} members={} {}",
                    spec.members, spec.member_spec
                )
            }
            Request::Fed { name, cmd } => match cmd {
                FedCommand::Link(l) => format!(
                    "LINK {name} {}:{} {}:{} loss={} latency={} budget={}",
                    l.a_net,
                    l.a_node.0,
                    l.b_net,
                    l.b_node.0,
                    l.loss,
                    l.latency_cycles,
                    l.budget_bytes_per_cycle
                ),
                FedCommand::Admit {
                    algo,
                    homes,
                    mode,
                    sql,
                } => {
                    let homes: Vec<String> = homes.iter().map(usize::to_string).collect();
                    let mode = match mode {
                        CrossMode::Gateway => "gateway",
                        CrossMode::ShipBase => "shipbase",
                    };
                    let homes = homes.join(",");
                    format!("FEDADMIT {name} {algo} homes={homes} mode={mode} {sql}")
                }
                FedCommand::Report { cycles } => format!("FEDREPORT {name} cycles={cycles}"),
            },
        }
    }

    /// Exact inverse of [`Request::encode`] (modulo the verb's case). A
    /// line that does not decode answers [`ControlError::Usage`], naming
    /// what is wrong and the verb's syntax from [`VERBS`]. Extra tokens
    /// are an error for every verb.
    pub fn decode(line: &str) -> Result<Request, ControlError> {
        let line = line.strip_suffix('\r').unwrap_or(line);
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        let Some(&(verb, syntax)) = VERBS.iter().find(|(v, _)| v.eq_ignore_ascii_case(verb)) else {
            return Err(ControlError::Usage(format!("unknown command '{verb}'")));
        };
        decode_args(verb, rest).map_err(|e| {
            ControlError::Usage(format!("{e}; usage: {verb} {syntax}").trim_end().into())
        })
    }
}

fn decode_args(verb: &str, rest: &str) -> Result<Request, String> {
    if let "ADMIT" | "ADMITGRAPH" = verb {
        let (algo, sql) = rest
            .split_once(' ')
            .filter(|(a, s)| !a.is_empty() && !s.is_empty())
            .ok_or("missing algorithm or query")?;
        let (algo, sql) = (algo.to_string(), sql.to_string());
        return Ok(Request::Session(if verb == "ADMIT" {
            Command::Admit { algo, sql }
        } else {
            Command::AdmitGraph { algo, sql }
        }));
    }
    if verb == "FEDADMIT" {
        return decode_fed_admit(rest);
    }
    let mut toks = rest.split_whitespace();
    let t = &mut toks;
    let req = match verb {
        "OPEN" => Request::Open {
            name: next(t, "name")?.into(),
            spec: parse_spec(t, None)?,
        },
        "USE" => Request::Use(next(t, "name")?.into()),
        "CLOSE" => Request::Close,
        "QUIT" => Request::Quit,
        "RETIRE" => {
            let s = next(t, "target")?;
            Request::Session(Command::Retire(
                Target::parse(s).ok_or_else(|| format!("bad target '{s}'"))?,
            ))
        }
        "STEP" => Request::Session(Command::Step(next_num(t, "cycle count")?)),
        "RUN" => {
            let (kind, n) = (next(t, "condition")?, next(t, "count")?);
            Request::Session(Command::RunUntil(if kind.eq_ignore_ascii_case("CYCLE") {
                StopWhen::Cycle(num(n, "cycle")?)
            } else if kind.eq_ignore_ascii_case("RESULTS") {
                StopWhen::Results(num(n, "result count")?)
            } else {
                return Err(format!("bad condition '{kind}'"));
            }))
        }
        "KILL" => Request::Session(Command::Kill(NodeId(next_num(t, "node id")?))),
        "REPORT" => Request::Session(Command::Report),
        "CACHESTATS" => Request::Session(Command::CacheStats),
        "SUBSCRIBE" => Request::Session(Command::Subscribe),
        "FEDOPEN" => {
            let name = next(t, "name")?.into();
            let mut members = 2;
            let member_spec = parse_spec(t, Some(&mut members))?;
            if !(2..=16).contains(&members) {
                return Err(format!("members={members} out of range [2, 16]"));
            }
            let spec = FedSpec {
                members,
                member_spec,
            };
            Request::FedOpen { name, spec }
        }
        "LINK" => Request::Fed {
            name: next(t, "name")?.into(),
            cmd: FedCommand::Link(decode_link(t)?),
        },
        "FEDREPORT" => Request::Fed {
            name: next(t, "name")?.into(),
            cmd: FedCommand::Report {
                cycles: match t.clone().next() {
                    Some(_) => key_num(t, "cycles")?,
                    None => 0,
                },
            },
        },
        _ => unreachable!("every verb of VERBS has a decoder"),
    };
    match toks.next() {
        Some(extra) => Err(format!("unexpected '{extra}'")),
        None => Ok(req),
    }
}

/// `<an>:<anode> <bn>:<bnode> [loss=P] [latency=C] [budget=B]`. Loss is
/// range-checked here so the link can never panic on it.
fn decode_link<'a>(toks: &mut impl Iterator<Item = &'a str>) -> Result<GatewayLink, String> {
    let mut endpoint = || -> Result<(usize, NodeId), String> {
        let t = next(toks, "endpoint")?;
        let (net, node) = t
            .split_once(':')
            .ok_or_else(|| format!("bad endpoint '{t}' (want net:node)"))?;
        Ok((num(net, "net")?, NodeId(num(node, "node")?)))
    };
    let ((a_net, a_node), (b_net, b_node)) = (endpoint()?, endpoint()?);
    let mut link = GatewayLink::new(a_net, a_node, b_net, b_node);
    for tok in toks {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad option '{tok}' (want key=value)"))?;
        match k {
            "loss" => {
                let p: f64 = num(v, k)?;
                if !(0.0..1.0).contains(&p) {
                    return Err(format!("loss={p} out of range [0, 1)"));
                }
                link = link.with_loss(p);
            }
            "latency" => link = link.with_latency(num(v, k)?),
            "budget" => link = link.with_budget(num(v, k)?),
            _ => return Err(format!("unknown option '{k}'")),
        }
    }
    Ok(link)
}

/// `<name> <algo> homes=0,0,1,.. [mode=gateway|shipbase] <streamsql>`.
fn decode_fed_admit(mut rest: &str) -> Result<Request, String> {
    let name = word(&mut rest, "name")?.to_string();
    let algo = word(&mut rest, "algorithm")?.to_string();
    let homes = word(&mut rest, "homes=…")?;
    let homes = homes
        .strip_prefix("homes=")
        .ok_or_else(|| format!("expected homes=…, got '{homes}'"))?
        .split(',')
        .map(|h| num(h, "home"))
        .collect::<Result<_, _>>()?;
    let mut mode = CrossMode::Gateway;
    if rest.starts_with("mode=") {
        mode = match &word(&mut rest, "query")?["mode=".len()..] {
            "gateway" => CrossMode::Gateway,
            "shipbase" | "ship-base" | "ship" => CrossMode::ShipBase,
            other => return Err(format!("unknown mode '{other}'")),
        };
    }
    if rest.is_empty() {
        return Err("missing query".into());
    }
    let cmd = FedCommand::Admit {
        algo,
        homes,
        mode,
        sql: rest.to_string(),
    };
    Ok(Request::Fed { name, cmd })
}

// --- Response encoding ---------------------------------------------------

impl Response {
    /// One-line wire form; `OK …` on success, `ERR …` on rejection.
    pub fn encode(&self) -> String {
        match self {
            Response::Admitted(t) => format!("OK ADMITTED {t}"),
            Response::Retired(t) => format!("OK RETIRED {t}"),
            Response::Stepped { cycle } => format!("OK STEPPED {cycle}"),
            Response::Ran { cycles, cycle } => format!("OK RAN {cycles} {cycle}"),
            Response::Killed { node } => format!("OK KILLED {}", node.0),
            Response::Subscribed => "OK SUBSCRIBED".into(),
            Response::Report(r) => {
                let mut s = format!(
                    "OK REPORT cycle={} results={} traffic_bytes={} base_bytes={} \
                     max_node_bytes={} traffic_msgs={} base_msgs={} delay={} \
                     send_failures={} queue_drops={} repair_attempts={} \
                     repair_successes={} tuples_lost={} tuples_rerouted={} \
                     recovery_bytes={} expired={}",
                    r.cycle,
                    r.results,
                    r.total_traffic_bytes,
                    r.base_load_bytes,
                    r.max_node_load_bytes,
                    r.total_traffic_msgs,
                    r.base_load_msgs,
                    r.avg_delay_cycles,
                    r.send_failures,
                    r.queue_drops,
                    r.repair_attempts,
                    r.repair_successes,
                    r.tuples_lost,
                    r.tuples_rerouted,
                    r.recovery_bytes,
                    r.expired_frames,
                );
                for q in &r.queries {
                    s.push_str(&format!(
                        " q={},{},{},{},{},{}",
                        esc(&q.label),
                        esc(&q.name),
                        q.arrival,
                        q.departure.map_or("-".into(), |d| d.to_string()),
                        q.results,
                        q.avg_delay_tx,
                    ));
                }
                s
            }
            Response::CacheStats(c) => format!(
                "OK CACHESTATS entries={} hits={} misses={} insertions={} evictions={}",
                c.entries, c.hits, c.misses, c.insertions, c.evictions,
            ),
            Response::Opened { name, nodes } => format!("OK OPENED {name} nodes={nodes}"),
            Response::Attached(name) => format!("OK ATTACHED {name}"),
            Response::Using(name) => format!("OK USING {name}"),
            Response::Closed(name) => format!("OK CLOSED {name}"),
            Response::Bye => "OK BYE".into(),
            Response::FedOpened {
                name,
                members,
                nodes,
            } => format!("OK FEDOPENED {name} members={members} nodes={nodes}"),
            Response::FedAttached(name) => format!("OK FEDATTACHED {name}"),
            Response::Linked { name, index } => format!("OK LINKED {name} {index}"),
            Response::FedAdmitted(id) => format!("OK FEDADMITTED x{}", id.0),
            Response::FedReport(summary) => format!("OK FEDREPORT {summary}"),
            Response::Rejected(ControlError::Parse { pos, msg }) => {
                format!("ERR PARSE {pos} {}", esc(msg))
            }
            Response::Rejected(e) => {
                let (kind, detail) = e.kind();
                format!("ERR {kind} {}", esc(detail))
            }
        }
    }

    /// Exact inverse of [`Response::encode`].
    pub fn decode(line: &str) -> Result<Response, String> {
        let line = line.strip_suffix('\r').unwrap_or(line);
        if let Some(summary) = line.strip_prefix("OK FEDREPORT ") {
            return Ok(Response::FedReport(summary.into()));
        }
        let mut toks = line.split(' ');
        let status = toks.next().unwrap_or("");
        let kind = toks.next().ok_or("truncated response")?;
        let bad = |what: &str, s: &str| format!("bad {what} '{s}'");
        match (status, kind) {
            ("OK", "ADMITTED") | ("OK", "RETIRED") => {
                let t = toks.next().ok_or("missing target")?;
                let t = Target::parse(t).ok_or_else(|| bad("target", t))?;
                Ok(if kind == "ADMITTED" {
                    Response::Admitted(t)
                } else {
                    Response::Retired(t)
                })
            }
            ("OK", "STEPPED") => Ok(Response::Stepped {
                cycle: next_num(&mut toks, "cycle")?,
            }),
            ("OK", "RAN") => Ok(Response::Ran {
                cycles: next_num(&mut toks, "cycles")?,
                cycle: next_num(&mut toks, "cycle")?,
            }),
            ("OK", "KILLED") => Ok(Response::Killed {
                node: NodeId(next_num(&mut toks, "node")?),
            }),
            ("OK", "SUBSCRIBED") => Ok(Response::Subscribed),
            ("OK", "REPORT") => {
                macro_rules! field {
                    ($name:literal) => {
                        key_num(&mut toks, $name)?
                    };
                }
                let mut r = ReportSummary {
                    cycle: field!("cycle"),
                    results: field!("results"),
                    total_traffic_bytes: field!("traffic_bytes"),
                    base_load_bytes: field!("base_bytes"),
                    max_node_load_bytes: field!("max_node_bytes"),
                    total_traffic_msgs: field!("traffic_msgs"),
                    base_load_msgs: field!("base_msgs"),
                    avg_delay_cycles: field!("delay"),
                    send_failures: field!("send_failures"),
                    queue_drops: field!("queue_drops"),
                    repair_attempts: field!("repair_attempts"),
                    repair_successes: field!("repair_successes"),
                    tuples_lost: field!("tuples_lost"),
                    tuples_rerouted: field!("tuples_rerouted"),
                    recovery_bytes: field!("recovery_bytes"),
                    expired_frames: field!("expired"),
                    queries: Vec::new(),
                };
                for t in toks {
                    let body = t
                        .strip_prefix("q=")
                        .ok_or_else(|| format!("expected q=…, got '{t}'"))?;
                    let parts: Vec<&str> = body.split(',').collect();
                    if parts.len() != 6 {
                        return Err(bad("query row", body));
                    }
                    r.queries.push(QuerySummary {
                        label: unesc(parts[0]).ok_or_else(|| bad("label", parts[0]))?,
                        name: unesc(parts[1]).ok_or_else(|| bad("name", parts[1]))?,
                        arrival: parts[2].parse().map_err(|_| bad("arrival", parts[2]))?,
                        departure: match parts[3] {
                            "-" => None,
                            d => Some(num(d, "departure")?),
                        },
                        results: parts[4].parse().map_err(|_| bad("results", parts[4]))?,
                        avg_delay_tx: parts[5].parse().map_err(|_| bad("delay", parts[5]))?,
                    });
                }
                Ok(Response::Report(Box::new(r)))
            }
            ("OK", "CACHESTATS") => Ok(Response::CacheStats(CacheStats {
                entries: key_num(&mut toks, "entries")?,
                hits: key_num(&mut toks, "hits")?,
                misses: key_num(&mut toks, "misses")?,
                insertions: key_num(&mut toks, "insertions")?,
                evictions: key_num(&mut toks, "evictions")?,
            })),
            ("ERR", "PARSE") => {
                let pos = next_num(&mut toks, "position")?;
                let msg = next(&mut toks, "message")?;
                let msg = unesc(msg).ok_or_else(|| bad("message", msg))?;
                Ok(Response::Rejected(ControlError::Parse { pos, msg }))
            }
            ("OK", "OPENED") => Ok(Response::Opened {
                name: next(&mut toks, "name")?.into(),
                nodes: key_num(&mut toks, "nodes")?,
            }),
            ("OK", "ATTACHED") => Ok(Response::Attached(next(&mut toks, "name")?.into())),
            ("OK", "USING") => Ok(Response::Using(next(&mut toks, "name")?.into())),
            ("OK", "CLOSED") => Ok(Response::Closed(next(&mut toks, "name")?.into())),
            ("OK", "BYE") => Ok(Response::Bye),
            ("OK", "FEDOPENED") => Ok(Response::FedOpened {
                name: next(&mut toks, "name")?.into(),
                members: key_num(&mut toks, "members")?,
                nodes: key_num(&mut toks, "nodes")?,
            }),
            ("OK", "FEDATTACHED") => Ok(Response::FedAttached(next(&mut toks, "name")?.into())),
            ("OK", "LINKED") => Ok(Response::Linked {
                name: next(&mut toks, "name")?.into(),
                index: next_num(&mut toks, "index")?,
            }),
            ("OK", "FEDADMITTED") => {
                let x = next(&mut toks, "id")?;
                let id = x.strip_prefix('x').ok_or_else(|| bad("id", x))?;
                Ok(Response::FedAdmitted(CrossId(num(id, "id")?)))
            }
            ("ERR", _) => {
                let &(_, err) = ERR_KINDS
                    .iter()
                    .find(|(k, _)| *k == kind)
                    .ok_or_else(|| format!("unknown error '{kind}'"))?;
                let s = next(&mut toks, "detail")?;
                Ok(Response::Rejected(err(
                    unesc(s).ok_or_else(|| bad("detail", s))?
                )))
            }
            _ => Err(format!("unknown response '{status} {kind}'")),
        }
    }
}

// --- SessionEvent encoding -----------------------------------------------

/// One-line wire form of a streamed [`SessionEvent`]
/// (`EVENT ADMITTED 0 q1`).
pub fn encode_event(ev: &SessionEvent) -> String {
    match ev {
        SessionEvent::Admitted { cycle, query } => format!("EVENT ADMITTED {cycle} q{}", query.0),
        SessionEvent::Retired { cycle, query } => format!("EVENT RETIRED {cycle} q{}", query.0),
        SessionEvent::PairsMigrated { cycle, count } => {
            format!("EVENT PAIRS_MIGRATED {cycle} {count}")
        }
        SessionEvent::PathsRepaired { cycle, count } => {
            format!("EVENT PATHS_REPAIRED {cycle} {count}")
        }
        SessionEvent::NodeKilled { cycle, node } => format!("EVENT NODE_KILLED {cycle} {}", node.0),
        SessionEvent::LossShifted { cycle, loss_prob } => {
            format!("EVENT LOSS_SHIFTED {cycle} {loss_prob}")
        }
        SessionEvent::WorkloadMark { cycle } => format!("EVENT WORKLOAD_MARK {cycle}"),
        SessionEvent::PhaseTransition { cycle, phase } => {
            let p = match phase {
                Phase::Initiation => "INITIATION",
                Phase::Execution => "EXECUTION",
            };
            format!("EVENT PHASE {cycle} {p}")
        }
        SessionEvent::Replanned { cycle, graph } => format!("EVENT REPLANNED {cycle} g{}", graph.0),
        SessionEvent::Closed { cycle } => format!("EVENT CLOSED {cycle}"),
    }
}

/// Exact inverse of [`encode_event`].
pub fn decode_event(line: &str) -> Result<SessionEvent, String> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    let mut toks = line.split(' ');
    if toks.next() != Some("EVENT") {
        return Err("not an EVENT line".into());
    }
    let kind = toks.next().ok_or("truncated event")?;
    let cycle: u32 = next_num(&mut toks, "cycle")?;
    let mut arg = || next(&mut toks, "argument");
    match kind {
        "ADMITTED" | "RETIRED" => {
            let t = arg()?;
            let q = match Target::parse(t) {
                Some(Target::Query(q)) => q,
                _ => return Err(format!("bad query id '{t}'")),
            };
            Ok(if kind == "ADMITTED" {
                SessionEvent::Admitted { cycle, query: q }
            } else {
                SessionEvent::Retired { cycle, query: q }
            })
        }
        "PAIRS_MIGRATED" | "PATHS_REPAIRED" => {
            let count = num(arg()?, "count")?;
            Ok(if kind == "PAIRS_MIGRATED" {
                SessionEvent::PairsMigrated { cycle, count }
            } else {
                SessionEvent::PathsRepaired { cycle, count }
            })
        }
        "NODE_KILLED" => Ok(SessionEvent::NodeKilled {
            cycle,
            node: NodeId(num(arg()?, "node")?),
        }),
        "LOSS_SHIFTED" => Ok(SessionEvent::LossShifted {
            cycle,
            loss_prob: num(arg()?, "probability")?,
        }),
        "WORKLOAD_MARK" => Ok(SessionEvent::WorkloadMark { cycle }),
        "CLOSED" => Ok(SessionEvent::Closed { cycle }),
        "PHASE" => Ok(SessionEvent::PhaseTransition {
            cycle,
            phase: match arg()? {
                "INITIATION" => Phase::Initiation,
                "EXECUTION" => Phase::Execution,
                p => return Err(format!("bad phase '{p}'")),
            },
        }),
        "REPLANNED" => {
            let t = arg()?;
            let g = match Target::parse(t) {
                Some(Target::Graph(g)) => g,
                _ => return Err(format!("bad graph id '{t}'")),
            };
            Ok(SessionEvent::Replanned { cycle, graph: g })
        }
        _ => Err(format!("unknown event '{kind}'")),
    }
}

// --- Session::apply and Federation::apply ---------------------------------

/// The [`AlgoConfig`] a wire algorithm slug names, at [`WIRE_ASSUMED_SIGMA`].
fn wire_algo(slug: &str) -> Result<AlgoConfig, ControlError> {
    let (a, opts) = parse_algo(slug).ok_or_else(|| ControlError::UnknownAlgo(slug.into()))?;
    Ok(AlgoConfig::new(a, WIRE_ASSUMED_SIGMA).with_innet_options(opts))
}

/// Refuse to advance `n` cycles in one command past [`MAX_CYCLES_PER_COMMAND`].
fn cycle_cap(n: u32) -> Result<u32, ControlError> {
    if n > MAX_CYCLES_PER_COMMAND {
        return Err(ControlError::Usage(format!(
            "{n} cycles is more than {MAX_CYCLES_PER_COMMAND} per command"
        )));
    }
    Ok(n)
}

impl Session {
    /// Apply one [`Command`]. Never panics on bad input: anything invalid
    /// answers [`Response::Rejected`]. This is the whole session API as a
    /// pure request/response pair, which is what `aspen-serve` speaks.
    pub fn apply(&mut self, cmd: Command) -> Response {
        self.try_apply(cmd).unwrap_or_else(Response::Rejected)
    }

    fn try_apply(&mut self, cmd: Command) -> Result<Response, ControlError> {
        Ok(match cmd {
            Command::Admit { .. } | Command::AdmitGraph { .. } | Command::Retire(_)
                if self.is_bare() =>
            {
                return Err(ControlError::Unsupported(
                    "bare-wire sessions host one fixed query".into(),
                ))
            }
            Command::Admit { algo, sql } => self.apply_admit(&algo, &sql, false)?,
            Command::AdmitGraph { algo, sql } => self.apply_admit(&algo, &sql, true)?,
            Command::Retire(t) => {
                match t {
                    Target::Query(q) if q.0 < self.query_slots() => self.retire(q),
                    Target::Graph(g) if g.0 < self.graph_slots() => self.retire_graph(g),
                    _ => return Err(ControlError::BadTarget(format!("no admitted query '{t}'"))),
                }
                Response::Retired(t)
            }
            Command::Step(n) => {
                self.step(cycle_cap(n)?);
                Response::Stepped {
                    cycle: self.cycle(),
                }
            }
            Command::RunUntil(stop) => {
                let cycles = match stop {
                    StopWhen::Cycle(c) => {
                        let n = cycle_cap(c.saturating_sub(self.cycle()))?;
                        self.step(n);
                        n
                    }
                    StopWhen::Results(n) => {
                        let end = self.cycle().saturating_add(MAX_CYCLES_PER_COMMAND);
                        self.run_until(|v| v.results >= n || v.cycle >= end)
                    }
                };
                Response::Ran {
                    cycles,
                    cycle: self.cycle(),
                }
            }
            Command::Kill(v) => {
                if (v.0 as usize) >= self.topology().len() {
                    return Err(ControlError::BadTarget(format!("no node {}", v.0)));
                }
                if v == self.topology().base() {
                    return Err(ControlError::BadTarget(
                        "refusing to kill the base station".into(),
                    ));
                }
                self.kill(v);
                Response::Killed { node: v }
            }
            Command::Report => {
                let out = self.report();
                Response::Report(Box::new(ReportSummary::from_outcome(self.cycle(), &out)))
            }
            Command::CacheStats => Response::CacheStats(self.cache_stats()),
            Command::Subscribe => Response::Subscribed,
        })
    }

    fn apply_admit(
        &mut self,
        algo: &str,
        sql: &str,
        force_graph: bool,
    ) -> Result<Response, ControlError> {
        let cfg = wire_algo(algo)?;
        let parsed = if force_graph {
            parse_join_graph(sql).map(Parsed::Graph)
        } else {
            parse(sql)
        };
        Ok(Response::Admitted(match parsed? {
            Parsed::Pair(spec) => Target::Query(self.admit(*spec, cfg)),
            Parsed::Graph(g) => Target::Graph(self.admit_graph(&g, cfg)),
        }))
    }
}

impl Federation {
    /// Apply one [`FedCommand`]: the federation twin of
    /// [`Session::apply`], never panicking on bad input. `name` is the
    /// federation's wire name, echoed by [`Response::Linked`]. Links are
    /// accepted until the first admission or report, which freezes the
    /// link set.
    pub fn apply(&mut self, name: &str, cmd: FedCommand) -> Response {
        self.try_apply(name, cmd).unwrap_or_else(Response::Rejected)
    }

    fn try_apply(&mut self, name: &str, cmd: FedCommand) -> Result<Response, ControlError> {
        Ok(match cmd {
            FedCommand::Link(link) => Response::Linked {
                name: name.into(),
                index: self.add_link(link)?,
            },
            FedCommand::Admit {
                algo,
                homes,
                mode,
                sql,
            } => {
                let cfg = wire_algo(&algo)?;
                let graph = parse_join_graph(&sql)?;
                let id = self.admit_cross(&graph, &homes, cfg, mode);
                Response::FedAdmitted(id.map_err(ControlError::Fed)?)
            }
            FedCommand::Report { cycles } => {
                self.step(cycle_cap(cycles)?);
                Response::FedReport(self.report().summary_line())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "two words", "100% sure,really", "a\nb\tc"] {
            assert_eq!(unesc(&esc(s)).as_deref(), Some(s));
        }
    }

    #[test]
    fn open_lines_decode_and_validate() {
        let open = |line: &str| match Request::decode(line) {
            Ok(Request::Open { spec, .. }) => Ok(spec),
            Ok(other) => panic!("{line}: {other:?}"),
            Err(e) => Err(e),
        };
        assert_eq!(open("OPEN x"), Ok(OpenSpec::default()));
        assert_eq!(
            open("OPEN x nodes=40 degree=6.5 seed=9"),
            Ok(OpenSpec {
                nodes: 40,
                degree: 6.5,
                seed: 9
            })
        );
        // `members` belongs to FEDOPEN only.
        for bad in [
            "OPEN x nodes=1",
            "OPEN x widgets=3",
            "OPEN x nodes",
            "OPEN x members=2",
        ] {
            assert!(open(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn open_and_fedopen_cap_the_degree() {
        for verb in ["OPEN x", "FEDOPEN f"] {
            assert!(Request::decode(&format!("{verb} degree=64")).is_ok());
            for bad in ["65", "nan", "inf"] {
                let err = Request::decode(&format!("{verb} degree={bad}")).unwrap_err();
                let err = err.to_string();
                assert!(
                    err.contains("out of range (at most 64)"),
                    "{verb} {bad}: {err}"
                );
            }
        }
    }

    #[test]
    fn federation_lines_decode_and_validate() {
        let fed = |line: &str| match Request::decode(line) {
            Ok(Request::Fed { cmd, .. }) => Ok(cmd),
            Ok(other) => panic!("{line}: {other:?}"),
            Err(e) => Err(e),
        };
        assert_eq!(
            Request::decode("FEDOPEN f members=3 nodes=40 degree=6.5 seed=9"),
            Ok(Request::FedOpen {
                name: "f".into(),
                spec: FedSpec {
                    members: 3,
                    member_spec: OpenSpec {
                        nodes: 40,
                        degree: 6.5,
                        seed: 9
                    }
                }
            })
        );
        for bad in [
            "FEDOPEN f members=1",
            "FEDOPEN f members=17",
            "FEDOPEN f widgets=3",
        ] {
            assert!(Request::decode(bad).is_err(), "{bad}");
        }
        let Ok(FedCommand::Link(l)) = fed("LINK f 0:12 1:7 loss=0.1 latency=2 budget=512") else {
            panic!("link decodes");
        };
        assert_eq!(
            (l.a_net, l.a_node, l.b_net, l.b_node),
            (0, NodeId(12), 1, NodeId(7))
        );
        assert_eq!(
            (l.loss, l.latency_cycles, l.budget_bytes_per_cycle),
            (0.1, 2, 512)
        );
        for bad in [
            "LINK f 0:12",
            "LINK f 0:12 1:7 loss=1.0",
            "LINK f 012 1:7",
            "LINK f 0:12 1:7 frob=1",
        ] {
            assert!(fed(bad).is_err(), "{bad}");
        }
        assert_eq!(
            fed("FEDADMIT f innet-cmg homes=0,0,1 mode=shipbase SELECT x"),
            Ok(FedCommand::Admit {
                algo: "innet-cmg".into(),
                homes: vec![0, 0, 1],
                mode: CrossMode::ShipBase,
                sql: "SELECT x".into()
            })
        );
        for bad in [
            "FEDADMIT f innet-cmg SELECT x",
            "FEDADMIT f innet-cmg homes=a,b SELECT x",
            "FEDADMIT f innet-cmg homes=0,1 mode=warp SELECT x",
            "FEDREPORT f 30",
        ] {
            assert!(fed(bad).is_err(), "{bad}");
        }
        assert_eq!(fed("fedreport f"), Ok(FedCommand::Report { cycles: 0 }));
    }

    #[test]
    fn every_verb_rejects_extra_tokens_with_its_syntax() {
        for (verb, syntax) in VERBS {
            let Err(ControlError::Usage(msg)) = Request::decode(&format!("{verb} a b c d e f g h"))
            else {
                // The raw-tail verbs take any text as their query.
                assert!(["ADMIT", "ADMITGRAPH", "FEDADMIT"].contains(verb), "{verb}");
                continue;
            };
            assert!(
                msg.ends_with(&format!("usage: {verb} {syntax}").trim_end()),
                "{msg}"
            );
        }
    }

    #[test]
    fn command_lines_round_trip() {
        let cmds = [
            Command::Admit {
                algo: "innet-cmg".into(),
                sql: "SELECT s.id FROM s, t [windowsize=4] WHERE s.temp = t.temp".into(),
            },
            Command::AdmitGraph {
                algo: "naive".into(),
                sql: "SELECT A.id FROM A, B [windowsize=4] WHERE A.temp = B.temp".into(),
            },
            Command::Retire(Target::Query(QueryId(3))),
            Command::Retire(Target::Graph(GraphId(0))),
            Command::Step(25),
            Command::RunUntil(StopWhen::Cycle(40)),
            Command::RunUntil(StopWhen::Results(100)),
            Command::Kill(NodeId(17)),
            Command::Report,
            Command::CacheStats,
            Command::Subscribe,
        ];
        for c in cmds {
            assert_eq!(Command::decode(&c.encode()), Ok(c));
        }
    }

    #[test]
    fn response_lines_round_trip() {
        let rs = [
            Response::Admitted(Target::Graph(GraphId(2))),
            Response::Retired(Target::Query(QueryId(0))),
            Response::Stepped { cycle: 12 },
            Response::Ran {
                cycles: 3,
                cycle: 15,
            },
            Response::Killed { node: NodeId(9) },
            Response::CacheStats(CacheStats {
                entries: 3,
                hits: 7,
                misses: 2,
                insertions: 5,
                evictions: 1,
            }),
            Response::Subscribed,
            Response::Rejected(ControlError::Parse {
                pos: 7,
                msg: "expected an expression, found end of input".into(),
            }),
            Response::Rejected(ControlError::UnknownAlgo("quantum".into())),
            Response::Rejected(ControlError::BadTarget("no admitted query 'q9'".into())),
            Response::Rejected(ControlError::Unsupported("bare".into())),
            Response::Opened {
                name: "lab".into(),
                nodes: 60,
            },
            Response::Attached("lab".into()),
            Response::Using("lab".into()),
            Response::Closed("lab".into()),
            Response::Bye,
            Response::FedOpened {
                name: "f".into(),
                members: 2,
                nodes: 60,
            },
            Response::FedAttached("f".into()),
            Response::Linked {
                name: "f".into(),
                index: 1,
            },
            Response::FedAdmitted(CrossId(3)),
            Response::FedReport("FED cycles=30 cross_results=7 | net net0 nodes=60".into()),
            Response::Rejected(ControlError::Quota("query quota exhausted".into())),
            Response::Rejected(ControlError::Internal("".into())),
        ];
        for r in rs {
            assert_eq!(Response::decode(&r.encode()), Ok(r));
        }
    }

    #[test]
    fn report_line_round_trips() {
        let r = Response::Report(Box::new(ReportSummary {
            cycle: 30,
            results: 41,
            total_traffic_bytes: 99_000,
            base_load_bytes: 1_200,
            max_node_load_bytes: 3_400,
            total_traffic_msgs: 800,
            base_load_msgs: 90,
            avg_delay_cycles: 3.625,
            send_failures: 0,
            queue_drops: 2,
            repair_attempts: 1,
            repair_successes: 1,
            tuples_lost: 4,
            tuples_rerouted: 6,
            recovery_bytes: 512,
            expired_frames: 0,
            queries: vec![
                QuerySummary {
                    label: "Innet-cmg".into(),
                    name: "Query 1".into(),
                    arrival: 0,
                    departure: None,
                    results: 30,
                    avg_delay_tx: 2.5,
                },
                QuerySummary {
                    label: "Naive".into(),
                    name: "Query 2, late".into(),
                    arrival: 10,
                    departure: Some(25),
                    results: 11,
                    avg_delay_tx: 4.75,
                },
            ],
        }));
        assert_eq!(Response::decode(&r.encode()), Ok(r));
    }

    #[test]
    fn event_lines_round_trip() {
        let evs = [
            SessionEvent::Admitted {
                cycle: 0,
                query: QueryId(1),
            },
            SessionEvent::Retired {
                cycle: 9,
                query: QueryId(0),
            },
            SessionEvent::PairsMigrated { cycle: 4, count: 7 },
            SessionEvent::PathsRepaired { cycle: 5, count: 1 },
            SessionEvent::NodeKilled {
                cycle: 6,
                node: NodeId(33),
            },
            SessionEvent::LossShifted {
                cycle: 7,
                loss_prob: 0.15,
            },
            SessionEvent::WorkloadMark { cycle: 8 },
            SessionEvent::PhaseTransition {
                cycle: 0,
                phase: Phase::Execution,
            },
            SessionEvent::Replanned {
                cycle: 12,
                graph: GraphId(2),
            },
            SessionEvent::Closed { cycle: 31 },
        ];
        for ev in evs {
            assert_eq!(decode_event(&encode_event(&ev)), Ok(ev));
        }
    }

    #[test]
    fn apply_rejects_instead_of_panicking() {
        let topo = sensor_net::random_with_degree(40, 7.0, 1);
        let data = sensor_workload::WorkloadData::new(
            &topo,
            sensor_workload::Schedule::Uniform(sensor_workload::Rates::new(2, 2, 5)),
            1,
        );
        let mut s = Session::builder(topo, data)
            .sim(sensor_sim::SimConfig::lossless())
            .allow_empty()
            .build();
        assert!(matches!(
            s.apply(Command::Admit {
                algo: "quantum".into(),
                sql: "SELECT s.id FROM s, t [windowsize=2] WHERE s.temp = t.temp".into()
            }),
            Response::Rejected(ControlError::UnknownAlgo(_))
        ));
        assert!(matches!(
            s.apply(Command::Admit {
                algo: "naive".into(),
                sql: "SELECT FROM".into()
            }),
            Response::Rejected(ControlError::Parse { .. })
        ));
        assert!(matches!(
            s.apply(Command::Retire(Target::Query(QueryId(0)))),
            Response::Rejected(ControlError::BadTarget(_))
        ));
        assert!(matches!(
            s.apply(Command::Kill(NodeId(0))),
            Response::Rejected(ControlError::BadTarget(_))
        ));
        assert!(matches!(
            s.apply(Command::Kill(NodeId(40_000))),
            Response::Rejected(ControlError::BadTarget(_))
        ));
        for cmd in [
            Command::Step(MAX_CYCLES_PER_COMMAND + 1),
            Command::RunUntil(StopWhen::Cycle(u32::MAX)),
        ] {
            assert!(matches!(
                s.apply(cmd),
                Response::Rejected(ControlError::Usage(_))
            ));
        }
        assert_eq!(s.cycle(), 0, "a refused command advances nothing");
    }

    #[test]
    fn apply_matches_direct_session_calls() {
        let build = || {
            let topo = sensor_net::random_with_degree(60, 7.0, 3);
            let data = sensor_workload::WorkloadData::new(
                &topo,
                sensor_workload::Schedule::Uniform(sensor_workload::Rates::new(2, 2, 5)),
                3,
            );
            let sim = sensor_sim::SimConfig {
                tx_per_cycle: 64,
                queue_capacity: 1024,
                ..sensor_sim::SimConfig::lossless().with_seed(3)
            };
            Session::builder(topo, data).sim(sim).allow_empty().build()
        };
        let sql = "SELECT s.id, t.id FROM s, t [windowsize=2 sampleinterval=100] \
                   WHERE s.id < 20 AND t.id >= 20 AND s.u = t.u";

        let mut wire = build();
        assert_eq!(
            wire.apply(Command::Admit {
                algo: "innet-cmg".into(),
                sql: sql.into()
            }),
            Response::Admitted(Target::Query(QueryId(0)))
        );
        wire.apply(Command::Step(30));
        let wire_report = match wire.apply(Command::Report) {
            Response::Report(r) => r,
            other => panic!("expected report, got {other:?}"),
        };

        let mut direct = build();
        let cfg = AlgoConfig::new(crate::shared::Algorithm::Innet, WIRE_ASSUMED_SIGMA)
            .with_innet_options(crate::shared::InnetOptions::CMG);
        let spec = match sensor_query::parse(sql).unwrap() {
            Parsed::Pair(p) => *p,
            _ => unreachable!(),
        };
        direct.admit(spec, cfg);
        direct.step(30);
        let direct_report = ReportSummary::from_outcome(direct.cycle(), &direct.report());
        assert_eq!(*wire_report, direct_report);
        assert!(wire_report.results > 0);
    }
}
