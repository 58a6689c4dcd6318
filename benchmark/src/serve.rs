//! `serve_small`: the wire. An in-process `Server::start` (2 workers) is
//! driven over loopback TCP by 2 closed-loop connections — each sends its
//! next request only when the previous reply line has arrived — looping
//! the `serve-load` script on 24-node sessions: `OPEN` / `ADMIT` /
//! 16 x (`STEP 1`, `REPORT`, `CACHESTATS`) / `RETIRE q0` / `REPORT` /
//! `CLOSE`. The simulation behind a command costs ~0.1 ms, so what is
//! measured is encode/queue/decode/socket handling; the in-process
//! workloads bypass all of it and must not move when it changes.
//!
//! The client sets `TCP_NODELAY` and sends each request in one `write`,
//! so no delay in a round trip is the client's.

use crate::harness::{common_metrics, ms, us, Measured, Run, Window};
use crate::inputs;
use crate::metrics::{RunResult, VERBS};
use crate::stats::median;
use crate::trace::{Span, Tracer};
use aspen::join::prelude::*;
use aspen::serve::{open_session, OpenSpec, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const NODES: usize = 24;
const DEGREE: f64 = 7.0;
const ROUNDS: usize = 16;
const WARMUP_ROUNDS: usize = 2;
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// Commands per traced/untraced block of a traced run: one whole script.
const BLOCK: u64 = 3 * ROUNDS as u64 + 5;
/// Command of each connection's window at which `peak_rss_mb` is read.
const RSS_AT_COMMAND: u64 = 80;

const OPEN: usize = 0;
const ADMIT: usize = 1;
const STEP: usize = 2;
const REPORT: usize = 3;
const CACHESTATS: usize = 4;
const RETIRE: usize = 5;
const CLOSE: usize = 6;

/// The script between `OPEN` and `CLOSE`, as (verb, wire line). Its last
/// line is the `REPORT` the parity check compares.
fn script(rounds: usize) -> Vec<(usize, &'static str)> {
    let mut lines = vec![(ADMIT, inputs::SERVE_ADMIT)];
    for _ in 0..rounds {
        lines.extend([
            (STEP, "STEP 1"),
            (REPORT, "REPORT"),
            (CACHESTATS, "CACHESTATS"),
        ]);
    }
    lines.extend([(RETIRE, "RETIRE q0"), (REPORT, "REPORT")]);
    lines
}

fn open_spec(seed: u64) -> OpenSpec {
    OpenSpec {
        nodes: NODES,
        degree: DEGREE,
        seed,
    }
}

/// Per-verb latencies, in the verb's own unit.
type PerVerb = [Vec<f64>; VERBS.len()];

/// The script applied to an in-process session, no sockets anywhere:
/// what the final `REPORT` of `seed` must say over the wire, and what each
/// verb costs when nothing is serialized.
fn in_process(seed: u64, tr: &mut Tracer, apply_us: &mut PerVerb) -> String {
    tr.next_request();
    let o = tr.begin("session", "open");
    let mut session = open_session(&open_spec(seed));
    apply_us[OPEN].push(us(tr.end(o)));
    let mut last = String::new();
    for (verb, line) in script(ROUNDS) {
        let cmd = Command::decode(line).expect("script line decodes");
        tr.next_request();
        let o = tr.begin("control", "apply");
        let resp = session.apply(cmd);
        apply_us[verb].push(us(tr.end(o)));
        last = resp.encode();
    }
    tr.next_request();
    let o = tr.begin("session", "close");
    drop(session);
    apply_us[CLOSE].push(us(tr.end(o)));
    last
}

/// A closed-loop wire client.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// The request being sent and the last reply line, reused.
    out: Vec<u8>,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// One request (one `write`), one reply line; `None` on a socket error
    /// or a hang-up.
    fn request(&mut self, req: &str) -> Option<&str> {
        self.out.clear();
        self.out.extend_from_slice(req.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out).ok()?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(n) if n > 0 => Some(self.line.trim_end_matches(['\r', '\n'])),
            _ => None,
        }
    }
}

/// What one connection saw.
#[derive(Default)]
struct ClientLog {
    /// Round trips by verb; kept by traced runs only.
    rtt_ms: PerVerb,
    /// Commands sent (replies awaited).
    commands: u64,
    errors: u64,
    scripts: u64,
    parity_failures: Vec<String>,
}

/// Drives scripts over one connection until the window closes.
struct Client<'a> {
    conn: Conn,
    id: usize,
    open_seeds: &'a [u64],
    expected: &'a [String],
    log: ClientLog,
    sessions: u64,
    per_verb: bool,
}

impl Client<'_> {
    /// One timed command; `false` once the window is over (command not
    /// sent).
    fn command(
        &mut self,
        verb: usize,
        line: &str,
        mut window: Option<&mut Window>,
        tr: &mut Tracer,
    ) -> bool {
        if let Some(w) = &mut window {
            if !w.next_op(tr) {
                return false;
            }
        }
        tr.next_request();
        let o = tr.begin("serve", VERBS[verb]);
        let ok = self.conn.request(line).is_some_and(|r| r.starts_with("OK"));
        let rtt = tr.end(o);
        if let Some(w) = window {
            w.record(rtt);
        }
        if self.per_verb {
            self.log.rtt_ms[verb].push(ms(rtt));
        }
        self.log.commands += 1;
        self.log.errors += u64::from(!ok);
        true
    }

    /// One whole script on a fresh session; stops early (and closes the
    /// session untimed) when the window ends mid-script.
    fn run_script(&mut self, rounds: usize, mut window: Option<&mut Window>, tr: &mut Tracer) {
        let k = self.sessions as usize % self.open_seeds.len();
        let name = format!("c{}-{}", self.id, self.sessions);
        self.sessions += 1;
        let open = format!(
            "OPEN {name} nodes={NODES} degree={DEGREE} seed={}",
            self.open_seeds[k]
        );
        if !self.command(OPEN, &open, window.as_deref_mut(), tr) {
            return;
        }
        for (verb, line) in script(rounds) {
            if !self.command(verb, line, window.as_deref_mut(), tr) {
                self.conn.request("CLOSE");
                return;
            }
        }
        if rounds == ROUNDS {
            // Serving may never change a session's outcome.
            let got = self.conn.line.trim_end_matches(['\r', '\n']);
            if got != self.expected[k] {
                self.log
                    .parity_failures
                    .push(format!("seed {}: wire said {got}", self.open_seeds[k]));
            }
            self.log.scripts += 1;
        }
        if !self.command(CLOSE, "CLOSE", window, tr) {
            self.conn.request("CLOSE");
        }
    }
}

/// One set-up: server booted, connections made, a short script run on each.
fn boot<'a>(
    open_seeds: &'a [u64],
    expected: &'a [String],
    per_verb: bool,
    tr: &mut Tracer,
) -> std::io::Result<(Server, Vec<Client<'a>>, f64, f64)> {
    tr.next_request();
    let whole = tr.begin("harness", "setup");
    let o = tr.begin("serve", "start");
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        // One connection opens and admits for the whole window.
        max_sessions_per_client: usize::MAX,
        max_queries_per_client: usize::MAX,
        ..ServeConfig::default()
    })?;
    tr.end(o);
    let mut clients = Vec::new();
    let mut connect_ms = Vec::new();
    for id in 0..CONNECTIONS {
        let o = tr.begin("serve", "connect");
        let conn = Conn::connect(server.addr())?;
        connect_ms.push(ms(tr.end(o)));
        clients.push(Client {
            conn,
            id,
            open_seeds,
            expected,
            log: ClientLog::default(),
            sessions: 0,
            per_verb,
        });
    }
    let o = tr.begin("serve", "warmup");
    for c in &mut clients {
        c.run_script(WARMUP_ROUNDS, None, tr);
    }
    tr.end(o);
    let setup_s = tr.end(whole).as_secs_f64();
    Ok((server, clients, setup_s, median(&connect_ms)))
}

fn hang_up(server: Server, clients: Vec<Client<'_>>) -> Vec<ClientLog> {
    let logs = clients
        .into_iter()
        .map(|mut c| {
            c.conn.request("QUIT");
            c.log
        })
        .collect();
    server.shutdown();
    logs
}

/// Nanoseconds per call of `f` over the script's lines.
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    const REPEATS: usize = 200;
    let t = Instant::now();
    for _ in 0..REPEATS {
        for item in items {
            f(item);
        }
    }
    t.elapsed().as_secs_f64() * 1e9 / (REPEATS * items.len()) as f64
}

pub fn serve_small(run: &Run) -> RunResult {
    let mut res = RunResult::default();
    let mut tr = run.tracer(0);

    // In-process reference first: expected REPORT lines and apply costs.
    let checks = Instant::now();
    let open_seeds = inputs::serve_open_seeds(run.seed, NODES, DEGREE);
    let mut apply_us: PerVerb = Default::default();
    let expected: Vec<String> = open_seeds
        .iter()
        .map(|&s| in_process(s, &mut tr, &mut apply_us))
        .collect();
    for (line, seed) in expected.iter().zip(&open_seeds) {
        res.check(line.starts_with("OK REPORT"), || {
            format!("in-process script of seed {seed} ended in {line}")
        });
    }
    let mut check_s = checks.elapsed().as_secs_f64();

    let mut setup_s = Vec::new();
    let mut connect_ms = 0.0;
    let mut last = None;
    for _ in 0..run.setups() {
        if let Some((server, clients)) = last.take() {
            for log in hang_up(server, clients) {
                res.ops(log.commands, log.errors);
            }
        }
        let (server, clients, s, c) =
            boot(&open_seeds, &expected, run.traced, &mut tr).expect("server boots on loopback");
        setup_s.push(s);
        connect_ms = c;
        last = Some((server, clients));
    }
    let (server, mut clients) = last.expect("at least one set-up");
    for c in &mut clients {
        // Warm-up commands count as attempted operations, not as samples.
        res.ops(c.log.commands, c.log.errors);
        c.log = ClientLog::default();
    }

    // The timed window: one operation = one wire command, write to reply
    // line, all verbs pooled; each connection has its own window and
    // tracer over the same deadline.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(run.seconds);
    let threads: Vec<(Window, Vec<Span>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut tr = run.tracer((c.id as u64 + 1) << 40);
                    let mut window = Window::open(
                        start,
                        run.seconds,
                        run.traced,
                        BLOCK,
                        RSS_AT_COMMAND,
                        &mut tr,
                    );
                    while Instant::now() < deadline {
                        c.run_script(ROUNDS, Some(&mut window), &mut tr);
                    }
                    let dropped = tr.dropped();
                    (window, tr.into_spans(), dropped)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let logs = hang_up(server, clients);

    let mut spans_dropped = tr.dropped();
    let mut spans = tr.into_spans();
    let mut window: Option<Window> = None;
    for (w, s, d) in threads {
        spans.extend(s);
        spans_dropped += d;
        match &mut window {
            Some(all) => all.absorb_parallel(&w),
            None => window = Some(w),
        }
    }
    let window = window.expect("at least one connection");

    let checks = Instant::now();
    let mut rtt_ms: PerVerb = Default::default();
    let (mut errors, mut scripts) = (0, 0);
    for log in logs {
        res.ops(log.commands, log.errors);
        // Every completed script's final REPORT, byte for byte.
        res.ops(log.scripts, log.parity_failures.len() as u64);
        res.failures.extend(log.parity_failures);
        errors += log.errors;
        scripts += log.scripts;
        for (all, one) in rtt_ms.iter_mut().zip(log.rtt_ms) {
            all.extend(one);
        }
    }
    res.check(scripts > 0 || run.smoke, || {
        "no script completed inside the window".into()
    });
    check_s += checks.elapsed().as_secs_f64();

    if run.traced {
        res.set("serve.connect_ms", connect_ms);
        res.set("serve.errors", errors as f64);
        res.set("serve.scripts", scripts as f64);
        for (v, verb) in VERBS.iter().enumerate() {
            let (apply, rtt) = (median(&apply_us[v]), median(&rtt_ms[v]));
            res.set(&format!("control.apply_us_p50.{verb}"), apply);
            res.set(&format!("serve.rtt_ms_p50.{verb}"), rtt);
            res.set(
                &format!("serve.rtt_ms_max.{verb}"),
                rtt_ms[v].iter().copied().fold(0.0, f64::max),
            );
            res.set(&format!("serve.count.{verb}"), rtt_ms[v].len() as f64);
            if !rtt_ms[v].is_empty() {
                res.set(&format!("serve.overhead_ms.{verb}"), rtt - apply / 1e3);
            }
        }
        // The codec alone, over the script's own lines and replies.
        let lines: Vec<&str> = script(ROUNDS).into_iter().map(|(_, l)| l).collect();
        let cmds: Vec<Command> = lines
            .iter()
            .map(|l| Command::decode(l).expect("script line decodes"))
            .collect();
        let mut session = open_session(&open_spec(open_seeds[0]));
        let resps: Vec<Response> = cmds.iter().map(|c| session.apply(c.clone())).collect();
        let replies: Vec<String> = resps.iter().map(Response::encode).collect();
        res.set(
            "control.cmd_decode_ns",
            ns_per_call(&lines, |l| {
                std::hint::black_box(Command::decode(l).is_ok());
            }),
        );
        res.set(
            "control.cmd_encode_ns",
            ns_per_call(&cmds, |c| {
                std::hint::black_box(c.encode());
            }),
        );
        res.set(
            "control.resp_encode_ns",
            ns_per_call(&resps, |r| {
                std::hint::black_box(r.encode());
            }),
        );
        res.set(
            "control.resp_decode_ns",
            ns_per_call(&replies, |l| {
                std::hint::black_box(Response::decode(l).is_ok());
            }),
        );
    }
    common_metrics(
        run,
        &mut res,
        &Measured {
            window,
            setup_s,
            check_s,
            spans,
            spans_dropped,
        },
    );
    res
}
