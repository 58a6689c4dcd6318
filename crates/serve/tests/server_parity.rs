//! The serving acceptance contract: a session driven over the wire is
//! *the same session* you would have driven in-process. Identical command
//! scripts must produce byte-identical `REPORT` lines whether the server
//! runs 1 session shard or 4, and whether there is a server at all.

use aspen_join::control::{open_fed_members, Command, Request};
use aspen_serve::{open_session, Client, OpenSpec, ServeConfig, Server};

const ADMIT_PAIR: &str = "ADMIT innet-cmg SELECT s.id, t.id FROM s, t \
                          [windowsize=2 sampleinterval=100] \
                          WHERE s.id < 20 AND t.id >= 20 AND s.u = t.u";
const ADMIT_GRAPH: &str = "ADMIT naive SELECT a.id, c.id FROM a, b, c \
                           [windowsize=2 sampleinterval=100] \
                           WHERE a.id < 20 AND b.id >= 20 AND b.id < 40 \
                           AND c.id >= 40 AND a.u = b.u AND b.u = c.u";

/// Per-session command scripts: (session name, OPEN options, lines).
fn scripts() -> Vec<(&'static str, &'static str, Vec<&'static str>)> {
    vec![
        (
            "alpha",
            "nodes=60 seed=1",
            vec![ADMIT_PAIR, "STEP 8", "KILL 7", "STEP 4", "REPORT"],
        ),
        (
            "beta",
            "nodes=60 seed=2",
            vec![ADMIT_GRAPH, "STEP 6", "RUN CYCLE 12", "REPORT"],
        ),
        (
            "gamma",
            "nodes=40 seed=3",
            vec![ADMIT_PAIR, "STEP 5", "RETIRE q0", "STEP 3", "REPORT"],
        ),
        (
            "delta",
            "nodes=40 seed=5",
            vec![
                ADMIT_PAIR,
                ADMIT_GRAPH,
                "STEP 10",
                "RETIRE g0",
                "STEP 2",
                "REPORT",
            ],
        ),
    ]
}

/// Drive every script against one server; collect each session's final
/// REPORT line.
fn run_served(workers: usize) -> Vec<String> {
    let server = Server::start(ServeConfig {
        workers,
        max_sessions_per_client: 8,
        max_queries_per_client: 64,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut reports = Vec::new();
    for (name, opts, lines) in scripts() {
        let mut c = Client::connect(server.addr()).unwrap();
        let opened = c.request(&format!("OPEN {name} {opts}")).unwrap();
        assert!(opened.starts_with("OK OPENED"), "{opened}");
        let mut last = String::new();
        for l in &lines {
            last = c.request(l).unwrap();
            assert!(last.starts_with("OK"), "command '{l}' failed: {last}");
        }
        reports.push(last);
    }
    server.shutdown();
    reports
}

/// The same scripts applied to in-process sessions through the control
/// plane (no sockets anywhere).
fn run_in_process() -> Vec<String> {
    let mut reports = Vec::new();
    for (name, opts, lines) in scripts() {
        let Ok(Request::Open { spec, .. }) = Request::decode(&format!("OPEN {name} {opts}")) else {
            panic!("OPEN {name} {opts} decodes");
        };
        let mut session = open_session(&spec);
        let mut last = String::new();
        for l in &lines {
            let cmd = Command::decode(l).unwrap();
            last = session.apply(cmd).encode();
            assert!(last.starts_with("OK"), "command '{l}' rejected: {last}");
        }
        reports.push(last);
    }
    reports
}

#[test]
fn outcomes_identical_across_worker_counts_and_in_process() {
    let one = run_served(1);
    let four = run_served(4);
    let direct = run_in_process();
    assert_eq!(one, four, "worker count changed session outcomes");
    assert_eq!(one, direct, "serving changed session outcomes");
    for r in &one {
        assert!(r.starts_with("OK REPORT"), "script must end in REPORT: {r}");
    }
}

/// The warm-start cache over the wire, and `CLOSE` under a live
/// `SUBSCRIBE`: a session that retires a learned query and re-admits the
/// same shape reports `CACHESTATS` byte-identical to the in-process
/// control plane, and closing it while a subscriber is attached ends the
/// event stream with a terminal `EVENT CLOSED` line and a clean EOF —
/// not a dangling stream — even with multiple session shards.
#[test]
fn warm_churn_cachestats_parity_and_close_terminates_subscriber() {
    const ADMIT_LEARN: &str = "ADMIT innet-cmg-learn SELECT s.id, t.id FROM s, t \
                               [windowsize=2 sampleinterval=100] \
                               WHERE s.id < 20 AND t.id >= 20 AND s.u = t.u";
    let script = [
        ADMIT_LEARN,
        "STEP 25",
        "RETIRE q0",
        ADMIT_LEARN,
        "STEP 5",
        "CACHESTATS",
    ];

    let served = {
        let server = Server::start(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        c.request("OPEN churn nodes=60 seed=4").unwrap();
        let mut last = String::new();
        for l in &script {
            last = c.request(l).unwrap();
            assert!(last.starts_with("OK"), "command '{l}' failed: {last}");
        }

        let mut sub = Client::connect(server.addr()).unwrap();
        sub.request("USE churn").unwrap();
        assert_eq!(sub.request("SUBSCRIBE").unwrap(), "OK SUBSCRIBED");
        assert_eq!(c.request("CLOSE").unwrap(), "OK CLOSED churn");
        // Nothing advanced the session after SUBSCRIBE, so the terminal
        // event is the subscriber's very next line…
        let terminal = sub.read_line().unwrap();
        assert!(
            matches!(
                aspen_join::decode_event(&terminal),
                Ok(aspen_join::prelude::SessionEvent::Closed { .. })
            ),
            "expected EVENT CLOSED, got: {terminal}"
        );
        // …followed by a clean EOF.
        assert_eq!(sub.read_line().unwrap(), "");
        server.shutdown();
        last
    };

    let direct = {
        let mut s = open_session(&OpenSpec {
            seed: 4,
            ..OpenSpec::default()
        });
        let mut last = String::new();
        for l in &script {
            last = s.apply(Command::decode(l).unwrap()).encode();
        }
        last
    };
    assert!(served.starts_with("OK CACHESTATS"), "{served}");
    assert_eq!(served, direct, "CACHESTATS diverged over the wire");
}

const FED_SQL: &str = "SELECT r0.id, r3.id FROM r0, r1, r2, r3 \
                       [windowsize=2 sampleinterval=100] \
                       WHERE r0.id < 10 AND r1.id >= 10 AND r1.id < 20 \
                       AND r2.id >= 20 AND r2.id < 30 \
                       AND r3.id >= 30 AND r3.id < 40 \
                       AND r0.u = r1.u AND r1.u = r2.u AND r2.u = r3.u";
/// One federation script, as wire lines; the last is the `FEDREPORT`.
fn fed_script() -> Vec<String> {
    vec![
        "FEDOPEN par members=2 nodes=60 seed=3".into(),
        "LINK par 0:10 1:5 latency=1".into(),
        "LINK par 0:20 1:15 loss=0.3".into(),
        format!("FEDADMIT par innet-cmg homes=0,0,1,1 {FED_SQL}"),
        "FEDREPORT par cycles=30".into(),
    ]
}

/// Drive the federation script over the wire and return its final
/// `FEDREPORT` line.
fn fed_served(workers: usize) -> String {
    let server = Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let mut last = String::new();
    for l in fed_script() {
        last = c.request(&l).unwrap();
        assert!(last.starts_with("OK"), "'{l}' failed: {last}");
    }
    server.shutdown();
    last
}

/// The same lines decoded and applied in-process: `FEDOPEN` builds the
/// federation, every later line goes through `Federation::apply`.
fn fed_in_process() -> String {
    let mut fed = None;
    let mut last = String::new();
    for l in fed_script() {
        match Request::decode(&l).unwrap() {
            Request::FedOpen { spec, .. } => fed = Some(open_fed_members(&spec).unwrap()),
            Request::Fed { name, cmd } => {
                let fed = fed.as_mut().expect("FEDOPEN comes first");
                last = fed.apply(&name, cmd).encode();
                assert!(last.starts_with("OK"), "'{l}' rejected: {last}");
            }
            other => panic!("not a federation line: {other:?}"),
        }
    }
    last
}

/// The federation acceptance contract mirrors the session one: a
/// federation driven over the wire is *the same federation* you would
/// drive in-process, byte-for-byte, whatever the worker count.
#[test]
fn federation_outcomes_identical_across_worker_counts_and_in_process() {
    let one = fed_served(1);
    let four = fed_served(4);
    assert_eq!(one, four, "worker count changed federation outcomes");
    assert_eq!(one, fed_in_process(), "serving changed federation outcomes");

    let cross: u64 = one
        .split_whitespace()
        .find_map(|t| t.strip_prefix("cross_results="))
        .expect("report carries cross_results")
        .parse()
        .unwrap();
    assert!(
        cross > 0,
        "parity on an empty federation proves nothing: {one}"
    );
}

/// Many concurrent clients hammering disjoint sessions: every client gets
/// the exact same report it would get alone, regardless of interleaving,
/// whether all twelve sessions share one shard or spread over two or
/// eight.
#[test]
fn concurrent_clients_get_isolated_deterministic_sessions() {
    for shards in [1, 2, 8] {
        concurrent_clients(shards);
    }
}

fn concurrent_clients(shards: usize) {
    let server = Server::start(ServeConfig {
        workers: shards,
        max_sessions_per_client: 2,
        max_queries_per_client: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..12)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let name = format!("con{i}");
                // Three distinct seeds so neighbors run different networks.
                let seed = 1 + (i % 3);
                c.request(&format!("OPEN {name} nodes=40 seed={seed}"))
                    .unwrap();
                c.request(ADMIT_PAIR).unwrap();
                c.request("STEP 6").unwrap();
                (seed, c.request("REPORT").unwrap())
            })
        })
        .collect();
    let results: Vec<(usize, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Same seed ⇒ same bytes; the serving layer adds no nondeterminism.
    for (seed, report) in &results {
        let expected = {
            let mut s = open_session(&OpenSpec {
                nodes: 40,
                degree: 7.0,
                seed: *seed as u64,
            });
            s.apply(Command::decode(ADMIT_PAIR).unwrap());
            s.apply(Command::Step(6));
            s.apply(Command::Report).encode()
        };
        assert_eq!(
            report, &expected,
            "seed {seed} diverged under concurrency on {shards} shard(s)"
        );
    }
    server.shutdown();
}
