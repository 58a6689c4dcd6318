//! `aspen-serve`: many [`Session`]s behind a TCP line protocol.
//!
//! The [control plane](aspen_join::control) made every session and
//! federation operation a serializable [`Request`]/[`Response`] pair;
//! this crate puts a socket in front of it. A [`Server`] runs one thread
//! per connection, and each request runs on the thread that read it.
//! Named sessions are *sharded*: `hash(name) % workers` picks the shard
//! that owns a name for its whole life, and a request runs under that
//! shard's lock — the name lookup and [`Session::apply`] (or
//! [`Federation::apply`]). Sessions of one shard therefore take one
//! command at a time, while different shards run in parallel. The reply
//! is encoded and written after the lock is released, so a slow client
//! never holds a shard.
//!
//! A panic inside a command answers `ERR INTERNAL …` and removes only the
//! session or federation it ran against; the shard's other sessions keep
//! answering.
//!
//! # Protocol
//!
//! One UTF-8 line per request, one line per reply. Each request line is a
//! [`Request`] ([`VERBS`](aspen_join::control::VERBS) gives every verb's
//! syntax): a connection first selects a session with `OPEN`/`USE`, then
//! speaks [`Command`] lines at it.
//! Federations — multiple member networks bridged by gateway links — live
//! in their own namespace and always carry their name (no `USE`). A line
//! that does not decode answers `ERR USAGE …` with the verb's syntax.
//!
//! The first `FEDADMIT`/`FEDREPORT` freezes a federation's link set;
//! later `LINK`s answer `ERR STATE`. No command advances more than
//! [`MAX_CYCLES_PER_COMMAND`](aspen_join::control::MAX_CYCLES_PER_COMMAND)
//! cycles.
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
//! # Quotas
//!
//! Admission control is per *connection*. Admitting more than
//! [`ServeConfig::max_queries_per_client`] queries answers `ERR QUOTA …`
//! without taking a shard lock: every `ADMIT`/`ADMITGRAPH`/`FEDADMIT`
//! that reaches its shard costs one query quota, even if it is later
//! rejected. Creating more than [`ServeConfig::max_sessions_per_client`]
//! sessions or [`ServeConfig::max_federations_per_client`] federations
//! (each instantiates `members` whole networks at once) also answers
//! `ERR QUOTA …`, but that is decided under the shard lock, since only
//! the shard knows whether an `OPEN`/`FEDOPEN` creates or attaches;
//! attaching costs nothing.

use aspen_join::control::{
    open_fed_members, try_open_session, ControlError, FedCommand, FedSpec, Request,
};
pub use aspen_join::control::{open_session, OpenSpec};
use aspen_join::prelude::*;
use aspen_join::{encode_event, Observer, SessionEvent};
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

fn rejected(e: fn(String) -> ControlError, detail: impl Into<String>) -> Response {
    Response::Rejected(e(detail.into()))
}

fn no_session(name: &str) -> Response {
    rejected(ControlError::NoSession, format!("no session '{name}'"))
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
    feds: HashMap<String, Federation>,
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
    /// reply. A panic in `f` answers `ERR INTERNAL` and removes `key`'s
    /// session or federation: the lock is never poisoned, and the shard's
    /// other entries keep answering.
    fn locked(&self, key: Key, f: impl FnOnce(&mut Shard) -> Response) -> Response {
        let i = match key {
            Key::Session(name) => shard_of(name, self.shards.len()),
            Key::Fed(name) => shard_of(&format!("fed:{name}"), self.shards.len()),
        };
        let mut shard = lock(&self.shards[i]);
        if self.stop.load(Ordering::SeqCst) {
            return rejected(ControlError::Shutdown, "server is shutting down");
        }
        if let Ok(reply) = catch_unwind(AssertUnwindSafe(|| f(&mut shard))) {
            return reply;
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
        rejected(
            ControlError::Internal,
            format!("{what} removed after a panic"),
        )
    }

    /// `may_create`: whether the connection's session quota allows
    /// *creating* a session; attaching to an existing one is always
    /// allowed, and only the shard knows which case this is.
    fn open(&self, name: &str, spec: OpenSpec, may_create: bool) -> Response {
        self.locked(Key::Session(name), |shard| {
            if shard.sessions.contains_key(name) {
                return Response::Attached(name.into());
            }
            if !may_create {
                return rejected(ControlError::Quota, "session quota exhausted");
            }
            match try_open_session(&spec) {
                Ok(mut session) => {
                    let subs = Arc::new(Mutex::new(Vec::new()));
                    session.observe(Box::new(WireObserver { subs: subs.clone() }));
                    shard
                        .sessions
                        .insert(name.to_string(), Entry { session, subs });
                    Response::Opened {
                        name: name.into(),
                        nodes: spec.nodes,
                    }
                }
                Err(e) => rejected(ControlError::Topology, e.to_string()),
            }
        })
    }

    /// [`State::open`] for a federation and its quota.
    fn fed_open(&self, name: &str, spec: FedSpec, may_create: bool) -> Response {
        self.locked(Key::Fed(name), |shard| {
            if shard.feds.contains_key(name) {
                return Response::FedAttached(name.into());
            }
            if !may_create {
                return rejected(ControlError::Quota, "federation quota exhausted");
            }
            match open_fed_members(&spec) {
                Ok(fed) => {
                    shard.feds.insert(name.to_string(), fed);
                    Response::FedOpened {
                        name: name.into(),
                        members: spec.members,
                        nodes: spec.member_spec.nodes,
                    }
                }
                Err(e) => rejected(ControlError::Topology, e.to_string()),
            }
        })
    }

    fn apply(&self, name: &str, cmd: Command) -> Response {
        self.locked(Key::Session(name), |shard| {
            match shard.sessions.get_mut(name) {
                Some(e) => e.session.apply(cmd),
                None => no_session(name),
            }
        })
    }

    fn fed(&self, name: &str, cmd: FedCommand) -> Response {
        self.locked(Key::Fed(name), |shard| match shard.feds.get_mut(name) {
            Some(fed) => fed.apply(name, cmd),
            None => rejected(ControlError::NoFed, format!("no federation '{name}'")),
        })
    }

    /// Register `stream` for `name`'s events. `OK SUBSCRIBED` is written
    /// here, under the lock and ahead of registering, so it is the first
    /// line the subscriber reads, before any event.
    fn subscribe(&self, name: &str, mut stream: TcpStream) -> Response {
        self.locked(Key::Session(name), |shard| {
            match shard.sessions.get_mut(name) {
                Some(e) => {
                    let _ = write_line(&mut stream, &Response::Subscribed.encode());
                    lock(&e.subs).push(stream);
                    Response::Subscribed
                }
                None => no_session(name),
            }
        })
    }

    /// Every subscriber reads `EVENT CLOSED <cycle>`, then EOF once the
    /// entry drops.
    fn close(&self, name: &str) -> Response {
        self.locked(Key::Session(name), |shard| {
            match shard.sessions.remove(name) {
                Some(e) => {
                    let cycle = e.session.cycle();
                    let closed = format!("{}\n", encode_event(&SessionEvent::Closed { cycle }));
                    for s in lock(&e.subs).iter_mut() {
                        let _ = s.write_all(closed.as_bytes());
                    }
                    Response::Closed(name.into())
                }
                None => no_session(name),
            }
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
    let mut line = Vec::new();
    loop {
        line.clear();
        let cap = MAX_LINE as u64 + 1;
        if reader.by_ref().take(cap).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        if line.len() > MAX_LINE && !line.ends_with(b"\n") {
            let e = ControlError::Usage(format!("line longer than {MAX_LINE} bytes"));
            write_line(&mut out, &Response::Rejected(e).encode())?;
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
        let req = match Request::decode(req) {
            Ok(req) => req,
            Err(e) => {
                write_line(&mut out, &Response::Rejected(e).encode())?;
                continue;
            }
        };
        let admits = matches!(
            req,
            Request::Session(Command::Admit { .. } | Command::AdmitGraph { .. })
                | Request::Fed {
                    cmd: FedCommand::Admit { .. },
                    ..
                }
        );
        let reply = match (req, current.as_deref()) {
            (Request::Quit, _) => {
                write_line(&mut out, &Response::Bye.encode())?;
                return Ok(());
            }
            (Request::Close | Request::Session(_), None) => rejected(
                ControlError::NoSession,
                "no session selected (OPEN or USE one)",
            ),
            _ if admits && queries_admitted >= cfg.max_queries_per_client => rejected(
                ControlError::Quota,
                format!(
                    "query quota exhausted ({} per client)",
                    cfg.max_queries_per_client
                ),
            ),
            (Request::Open { name, spec }, _) => {
                let may_create = sessions_created < cfg.max_sessions_per_client;
                let r = state.open(&name, spec, may_create);
                sessions_created += usize::from(matches!(r, Response::Opened { .. }));
                if matches!(r, Response::Opened { .. } | Response::Attached(_)) {
                    current = Some(name);
                }
                r
            }
            (Request::Use(name), _) => {
                // Adopting the name is enough: a wrong one answers
                // NOSESSION on the next command.
                let r = Response::Using(name.clone());
                current = Some(name);
                r
            }
            (Request::FedOpen { name, spec }, _) => {
                let may_create = federations_created < cfg.max_federations_per_client;
                let r = state.fed_open(&name, spec, may_create);
                federations_created += usize::from(matches!(r, Response::FedOpened { .. }));
                r
            }
            (Request::Fed { name, cmd }, _) => {
                queries_admitted += usize::from(admits);
                state.fed(&name, cmd)
            }
            (Request::Close, Some(name)) => {
                let r = state.close(name);
                if let Response::Closed(_) = r {
                    current = None;
                }
                r
            }
            (Request::Session(Command::Subscribe), Some(name)) => {
                let r = state.subscribe(name, out.try_clone()?);
                if let Response::Subscribed = r {
                    // The connection now belongs to the event stream;
                    // swallow any further input until the peer hangs up
                    // so we never write here again.
                    std::io::copy(&mut reader, &mut std::io::sink())?;
                    return Ok(());
                }
                r
            }
            (Request::Session(cmd), Some(name)) => {
                queries_admitted += usize::from(admits);
                state.apply(name, cmd)
            }
        };
        write_line(&mut out, &reply.encode())?;
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
        let spec = OpenSpec {
            nodes: 40,
            seed: 2,
            ..OpenSpec::default()
        };
        let admit = Command::decode(ADMIT_PAIR).unwrap();
        for name in ["doomed", "bystander"] {
            assert!(matches!(
                state.open(name, spec, true),
                Response::Opened { .. }
            ));
            assert_eq!(
                state.apply(name, admit.clone()),
                Response::Admitted(Target::Query(QueryId(0)))
            );
        }
        let r = state.locked(Key::Session("doomed"), |shard| {
            let e = shard.sessions.get_mut("doomed").unwrap();
            e.session.apply(Command::Step(2));
            panic!("injected fault");
        });
        assert_eq!(
            r.encode(),
            "ERR INTERNAL session%20'doomed'%20removed%20after%20a%20panic"
        );
        assert!(!state.shards[0].is_poisoned());
        assert!(matches!(
            state.apply("doomed", Command::Report),
            Response::Rejected(ControlError::NoSession(_))
        ));

        let mut direct = open_session(&spec);
        direct.apply(admit);
        direct.apply(Command::Step(6));
        assert_eq!(
            state.apply("bystander", Command::Step(6)),
            Response::Stepped { cycle: 6 }
        );
        assert_eq!(
            state.apply("bystander", Command::Report),
            direct.apply(Command::Report)
        );
        // The name is free again.
        assert!(matches!(
            state.open("doomed", spec, true),
            Response::Opened { .. }
        ));
        // Once shutdown has begun, no command reaches a session.
        state.stop.store(true, Ordering::SeqCst);
        assert!(matches!(
            state.apply("bystander", Command::Report),
            Response::Rejected(ControlError::Shutdown(_))
        ));
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

        let mut direct = open_session(&OpenSpec {
            nodes: 40,
            seed: 2,
            ..OpenSpec::default()
        });
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
        // Every verb rejects extra tokens, and none of them acts.
        for extra in ["QUIT x", "CLOSE x", "USE a b", "REPORT x"] {
            let r = c.request(extra).unwrap();
            assert!(r.starts_with("ERR USAGE"), "{extra}: {r}");
        }
        // The connection is still usable after every error.
        assert_eq!(c.request("STEP 1").unwrap(), "OK STEPPED 1");
        server.shutdown();
    }

    /// No command advances more than `MAX_CYCLES_PER_COMMAND` cycles: the
    /// cycle-count verbs that would hold a shard for hours answer an error
    /// at once, and another session on the same (only) shard keeps
    /// answering. The client runs on its own thread so that a hang fails
    /// the test instead of stalling the suite.
    #[test]
    fn cycle_counts_past_the_cap_are_refused() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut other = Client::connect(addr).unwrap();
            other.request("OPEN bystander nodes=40").unwrap();
            c.request("OPEN hog nodes=40").unwrap();
            c.request("FEDOPEN f nodes=40").unwrap();
            c.request("LINK f 0:10 1:5").unwrap();
            for line in [
                "STEP 4294967295",
                "RUN CYCLE 4294967295",
                "FEDREPORT f cycles=4294967295",
            ] {
                let _ = tx.send((line, c.request(line).unwrap()));
            }
            let _ = tx.send(("REPORT", other.request("REPORT").unwrap()));
        });
        for want in ["STEP", "RUN", "FEDREPORT", "REPORT"] {
            let (line, reply) = rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("no answer to {want} within 5 s"));
            let ok = if want == "REPORT" {
                reply.starts_with("OK REPORT cycle=0 ")
            } else {
                reply.starts_with("ERR USAGE")
            };
            assert!(ok, "{line}: {reply}");
        }
        server.shutdown();
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
        // A federation's parse error reads like a session's.
        let err = sensor_query::parse_join_graph("SELECT FROM").unwrap_err();
        assert_eq!(
            Response::decode(
                &c.request("FEDADMIT f innet-cmg homes=0,0,1,1 SELECT FROM")
                    .unwrap()
            ),
            Ok(Response::Rejected(ControlError::Parse {
                pos: err.pos,
                msg: err.message
            }))
        );
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
