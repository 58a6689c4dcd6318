//! The serializable control plane of a [`Session`].
//!
//! Everything a caller can *do* to a session is a [`Command`]; everything
//! a session says back is a [`Response`]. [`Session::apply`] is the one
//! entry point — it never panics on bad input, it answers
//! [`Response::Rejected`] — so a session can sit behind a wire protocol
//! (`aspen-serve`) with the exact same semantics it has in-process:
//! driving a session through `apply` produces byte-identical outcomes to
//! calling [`Session::admit`]/[`Session::step`]/[`Session::report`]
//! directly, which is what the serve parity tests assert.
//!
//! Every type here has a compact single-line text encoding (`encode` /
//! `decode`, exact inverses — property-tested) that doubles as the wire
//! protocol's line format, plus a JSON rendering for reports
//! ([`ReportSummary::to_json`]). Strings embedded in responses and events
//! are percent-escaped so encodings stay one line regardless of content;
//! the SQL text of an `ADMIT` line is carried raw (rest-of-line) so
//! humans can type it over `nc`.

use crate::cache::CacheStats;
use crate::cost::Sigma;
use crate::session::{GraphId, Outcome, Phase, QueryId, Session, SessionEvent};
use crate::shared::{parse_algo, AlgoConfig};
use sensor_net::NodeId;
use sensor_query::{parse, parse_join_graph, Parsed};
use sensor_sim::sweep::Json;

/// Cap on cycles a single [`StopWhen::Results`] run may advance, so a
/// wire client asking for unreachable result counts cannot hold its
/// session's serve shard forever.
pub const RUN_UNTIL_MAX_CYCLES: u32 = 10_000;

/// Selectivities assumed by wire admissions ([`Command::Admit`] carries
/// an algorithm slug, not a full [`AlgoConfig`]); matches the workload
/// generator's defaults.
pub const WIRE_ASSUMED_SIGMA: Sigma = Sigma {
    s: 0.5,
    t: 0.5,
    st: 0.2,
};

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
    /// bounded by [`RUN_UNTIL_MAX_CYCLES`] extra cycles.
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

/// Why a [`Command`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// The SQL failed to parse (byte offset + message, from
    /// [`ParseError`](sensor_query::ParseError)).
    Parse { pos: usize, msg: String },
    /// The algorithm slug names no known combination.
    UnknownAlgo(String),
    /// The target id names no admitted query / known node.
    BadTarget(String),
    /// The command is not available on this session (e.g. admission on a
    /// bare-wire session).
    Unsupported(String),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Parse { pos, msg } => write!(f, "parse error at byte {pos}: {msg}"),
            ControlError::UnknownAlgo(s) => write!(f, "unknown algorithm '{s}'"),
            ControlError::BadTarget(s) => write!(f, "bad target: {s}"),
            ControlError::Unsupported(s) => write!(f, "unsupported: {s}"),
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

    /// JSON rendering (for `BENCH_serve.json` and API consumers).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycle".into(), Json::num(self.cycle as f64)),
            ("results".into(), Json::num(self.results as f64)),
            (
                "total_traffic_bytes".into(),
                Json::num(self.total_traffic_bytes as f64),
            ),
            (
                "base_load_bytes".into(),
                Json::num(self.base_load_bytes as f64),
            ),
            (
                "max_node_load_bytes".into(),
                Json::num(self.max_node_load_bytes as f64),
            ),
            (
                "total_traffic_msgs".into(),
                Json::num(self.total_traffic_msgs as f64),
            ),
            (
                "base_load_msgs".into(),
                Json::num(self.base_load_msgs as f64),
            ),
            ("avg_delay_cycles".into(), Json::num(self.avg_delay_cycles)),
            ("send_failures".into(), Json::num(self.send_failures as f64)),
            ("queue_drops".into(), Json::num(self.queue_drops as f64)),
            (
                "repair_attempts".into(),
                Json::num(self.repair_attempts as f64),
            ),
            (
                "repair_successes".into(),
                Json::num(self.repair_successes as f64),
            ),
            ("tuples_lost".into(), Json::num(self.tuples_lost as f64)),
            (
                "tuples_rerouted".into(),
                Json::num(self.tuples_rerouted as f64),
            ),
            (
                "recovery_bytes".into(),
                Json::num(self.recovery_bytes as f64),
            ),
            (
                "expired_frames".into(),
                Json::num(self.expired_frames as f64),
            ),
            (
                "queries".into(),
                Json::Arr(
                    self.queries
                        .iter()
                        .map(|q| {
                            Json::Obj(vec![
                                ("label".into(), Json::str(&q.label)),
                                ("name".into(), Json::str(&q.name)),
                                ("arrival".into(), Json::num(q.arrival as f64)),
                                (
                                    "departure".into(),
                                    q.departure
                                        .map(|d| Json::num(d as f64))
                                        .unwrap_or(Json::Null),
                                ),
                                ("results".into(), Json::num(q.results as f64)),
                                ("avg_delay_tx".into(), Json::num(q.avg_delay_tx)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
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

fn fmt_opt(o: Option<u32>) -> String {
    match o {
        Some(v) => v.to_string(),
        None => "-".into(),
    }
}

fn parse_opt(s: &str) -> Result<Option<u32>, String> {
    if s == "-" {
        Ok(None)
    } else {
        s.parse().map(Some).map_err(|_| format!("bad number '{s}'"))
    }
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

    /// Exact inverse of [`Command::encode`] (modulo the verb's case). The
    /// error string is human-readable and safe to echo to a wire client.
    pub fn decode(line: &str) -> Result<Command, String> {
        let line = line.strip_suffix('\r').unwrap_or(line);
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r),
            None => (line, ""),
        };
        match verb.to_ascii_uppercase().as_str() {
            "ADMIT" | "ADMITGRAPH" => {
                let (algo, sql) = rest
                    .split_once(' ')
                    .ok_or("usage: ADMIT <algo> <streamsql>")?;
                if algo.is_empty() || sql.is_empty() {
                    return Err("usage: ADMIT <algo> <streamsql>".into());
                }
                let (algo, sql) = (algo.to_string(), sql.to_string());
                Ok(if verb.eq_ignore_ascii_case("ADMIT") {
                    Command::Admit { algo, sql }
                } else {
                    Command::AdmitGraph { algo, sql }
                })
            }
            "RETIRE" => Target::parse(rest)
                .map(Command::Retire)
                .ok_or_else(|| format!("bad target '{rest}' (want q<i> or g<i>)")),
            "STEP" => rest
                .parse()
                .map(Command::Step)
                .map_err(|_| format!("bad cycle count '{rest}'")),
            "RUN" => {
                let (kind, n) = rest.split_once(' ').ok_or("usage: RUN CYCLE|RESULTS <n>")?;
                match kind.to_ascii_uppercase().as_str() {
                    "CYCLE" => n
                        .parse()
                        .map(|c| Command::RunUntil(StopWhen::Cycle(c)))
                        .map_err(|_| format!("bad cycle '{n}'")),
                    "RESULTS" => n
                        .parse()
                        .map(|r| Command::RunUntil(StopWhen::Results(r)))
                        .map_err(|_| format!("bad result count '{n}'")),
                    _ => Err("usage: RUN CYCLE|RESULTS <n>".into()),
                }
            }
            "KILL" => rest
                .parse()
                .map(|v| Command::Kill(NodeId(v)))
                .map_err(|_| format!("bad node id '{rest}'")),
            "REPORT" if rest.is_empty() => Ok(Command::Report),
            "CACHESTATS" if rest.is_empty() => Ok(Command::CacheStats),
            "SUBSCRIBE" if rest.is_empty() => Ok(Command::Subscribe),
            _ => Err(format!("unknown command '{verb}'")),
        }
    }
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
                        fmt_opt(q.departure),
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
            Response::Rejected(e) => match e {
                ControlError::Parse { pos, msg } => format!("ERR PARSE {pos} {}", esc(msg)),
                ControlError::UnknownAlgo(s) => format!("ERR ALGO {}", esc(s)),
                ControlError::BadTarget(s) => format!("ERR TARGET {}", esc(s)),
                ControlError::Unsupported(s) => format!("ERR UNSUPPORTED {}", esc(s)),
            },
        }
    }

    /// Exact inverse of [`Response::encode`].
    pub fn decode(line: &str) -> Result<Response, String> {
        let line = line.strip_suffix('\r').unwrap_or(line);
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
            ("OK", "STEPPED") => {
                let c = toks.next().ok_or("missing cycle")?;
                Ok(Response::Stepped {
                    cycle: c.parse().map_err(|_| bad("cycle", c))?,
                })
            }
            ("OK", "RAN") => {
                let n = toks.next().ok_or("missing cycles")?;
                let c = toks.next().ok_or("missing cycle")?;
                Ok(Response::Ran {
                    cycles: n.parse().map_err(|_| bad("cycles", n))?,
                    cycle: c.parse().map_err(|_| bad("cycle", c))?,
                })
            }
            ("OK", "KILLED") => {
                let v = toks.next().ok_or("missing node")?;
                Ok(Response::Killed {
                    node: NodeId(v.parse().map_err(|_| bad("node", v))?),
                })
            }
            ("OK", "SUBSCRIBED") => Ok(Response::Subscribed),
            ("OK", "REPORT") => {
                let mut num = |name: &str| -> Result<String, String> {
                    let t = toks.next().ok_or_else(|| format!("missing {name}"))?;
                    t.strip_prefix(name)
                        .and_then(|t| t.strip_prefix('='))
                        .map(str::to_string)
                        .ok_or_else(|| format!("expected {name}=…, got '{t}'"))
                };
                macro_rules! field {
                    ($name:literal) => {{
                        let v = num($name)?;
                        v.parse().map_err(|_| bad($name, &v))?
                    }};
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
                        departure: parse_opt(parts[3])?,
                        results: parts[4].parse().map_err(|_| bad("results", parts[4]))?,
                        avg_delay_tx: parts[5].parse().map_err(|_| bad("delay", parts[5]))?,
                    });
                }
                Ok(Response::Report(Box::new(r)))
            }
            ("OK", "CACHESTATS") => {
                let mut num = |name: &str| -> Result<u64, String> {
                    let t = toks.next().ok_or_else(|| format!("missing {name}"))?;
                    t.strip_prefix(name)
                        .and_then(|t| t.strip_prefix('='))
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("expected {name}=<n>, got '{t}'"))
                };
                Ok(Response::CacheStats(CacheStats {
                    entries: num("entries")?,
                    hits: num("hits")?,
                    misses: num("misses")?,
                    insertions: num("insertions")?,
                    evictions: num("evictions")?,
                }))
            }
            ("ERR", "PARSE") => {
                let pos = toks.next().ok_or("missing position")?;
                let msg = toks.next().ok_or("missing message")?;
                Ok(Response::Rejected(ControlError::Parse {
                    pos: pos.parse().map_err(|_| bad("position", pos))?,
                    msg: unesc(msg).ok_or_else(|| bad("message", msg))?,
                }))
            }
            ("ERR", "ALGO") | ("ERR", "TARGET") | ("ERR", "UNSUPPORTED") => {
                let s = toks.next().ok_or("missing detail")?;
                let s = unesc(s).ok_or_else(|| bad("detail", s))?;
                Ok(Response::Rejected(match kind {
                    "ALGO" => ControlError::UnknownAlgo(s),
                    "TARGET" => ControlError::BadTarget(s),
                    _ => ControlError::Unsupported(s),
                }))
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
    let cycle: u32 = {
        let c = toks.next().ok_or("missing cycle")?;
        c.parse().map_err(|_| format!("bad cycle '{c}'"))?
    };
    let mut arg = || toks.next().ok_or_else(|| "missing argument".to_string());
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
            let n = arg()?;
            let count = n.parse().map_err(|_| format!("bad count '{n}'"))?;
            Ok(if kind == "PAIRS_MIGRATED" {
                SessionEvent::PairsMigrated { cycle, count }
            } else {
                SessionEvent::PathsRepaired { cycle, count }
            })
        }
        "NODE_KILLED" => {
            let v = arg()?;
            Ok(SessionEvent::NodeKilled {
                cycle,
                node: NodeId(v.parse().map_err(|_| format!("bad node '{v}'"))?),
            })
        }
        "LOSS_SHIFTED" => {
            let p = arg()?;
            Ok(SessionEvent::LossShifted {
                cycle,
                loss_prob: p.parse().map_err(|_| format!("bad probability '{p}'"))?,
            })
        }
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

// --- Session::apply ------------------------------------------------------

impl Session {
    /// Apply one [`Command`]. Never panics on bad input: anything invalid
    /// answers [`Response::Rejected`]. This is the whole session API as a
    /// pure request/response pair, which is what `aspen-serve` speaks.
    pub fn apply(&mut self, cmd: Command) -> Response {
        match cmd {
            Command::Admit { .. } | Command::AdmitGraph { .. } | Command::Retire(_)
                if self.is_bare() =>
            {
                Response::Rejected(ControlError::Unsupported(
                    "bare-wire sessions host one fixed query".into(),
                ))
            }
            Command::Admit { algo, sql } => self.apply_admit(&algo, &sql, false),
            Command::AdmitGraph { algo, sql } => self.apply_admit(&algo, &sql, true),
            Command::Retire(t) => match t {
                Target::Query(q) if q.0 < self.query_slots() => {
                    self.retire(q);
                    Response::Retired(t)
                }
                Target::Graph(g) if g.0 < self.graph_slots() => {
                    self.retire_graph(g);
                    Response::Retired(t)
                }
                _ => {
                    Response::Rejected(ControlError::BadTarget(format!("no admitted query '{t}'")))
                }
            },
            Command::Step(n) => {
                self.step(n);
                Response::Stepped {
                    cycle: self.cycle(),
                }
            }
            Command::RunUntil(stop) => {
                let cycles = match stop {
                    StopWhen::Cycle(c) => {
                        let now = self.cycle();
                        let n = c.saturating_sub(now);
                        self.step(n);
                        n
                    }
                    StopWhen::Results(n) => {
                        let start = self.cycle();
                        self.run_until(|v| {
                            v.results >= n || v.cycle >= start + RUN_UNTIL_MAX_CYCLES
                        })
                    }
                };
                Response::Ran {
                    cycles,
                    cycle: self.cycle(),
                }
            }
            Command::Kill(v) => {
                if (v.0 as usize) >= self.node_count() {
                    Response::Rejected(ControlError::BadTarget(format!("no node {}", v.0)))
                } else if v == self.base_node() {
                    Response::Rejected(ControlError::BadTarget(
                        "refusing to kill the base station".into(),
                    ))
                } else {
                    self.kill(v);
                    Response::Killed { node: v }
                }
            }
            Command::Report => {
                let out = self.report();
                Response::Report(Box::new(ReportSummary::from_outcome(self.cycle(), &out)))
            }
            Command::CacheStats => Response::CacheStats(self.cache_stats()),
            Command::Subscribe => Response::Subscribed,
        }
    }

    fn apply_admit(&mut self, algo: &str, sql: &str, force_graph: bool) -> Response {
        let (a, opts) = match parse_algo(algo) {
            Some(p) => p,
            None => return Response::Rejected(ControlError::UnknownAlgo(algo.into())),
        };
        let cfg = AlgoConfig::new(a, WIRE_ASSUMED_SIGMA).with_innet_options(opts);
        let parsed = if force_graph {
            parse_join_graph(sql).map(Parsed::Graph)
        } else {
            parse(sql)
        };
        match parsed {
            Ok(Parsed::Pair(spec)) => Response::Admitted(Target::Query(self.admit(*spec, cfg))),
            Ok(Parsed::Graph(g)) => Response::Admitted(Target::Graph(self.admit_graph(&g, cfg))),
            Err(e) => Response::Rejected(ControlError::Parse {
                pos: e.pos,
                msg: e.message,
            }),
        }
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
