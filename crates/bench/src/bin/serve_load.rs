//! `serve-load` — hammer `aspen-serve` with many concurrent wire clients
//! and check that serving changes no session's outcome; the run's
//! configuration and verdict go to `BENCH_serve.json`. It publishes no
//! throughput: the repo benchmark's `serve_small` workload measures the
//! wire (see `benchmark/README.md`).
//!
//! ```text
//! serve-load [--quick] [--addr HOST:PORT] [--clients N] [--workers N] [--rounds N]
//! ```
//!
//! By default the generator boots an in-process server and drives it over
//! real TCP; `--addr` points it at an already-running `aspen-serve`
//! instead (CI boots the binary on an ephemeral port and passes its
//! address here — `--workers` is then metadata describing that server).
//!
//! Every client runs the same script — OPEN, ADMIT, N×(STEP+REPORT),
//! RETIRE, REPORT — against its own named session, and ends with a parity
//! check: the final REPORT line must be byte-identical to an in-process
//! `Session::apply` run of the same commands. Serving may never change
//! session outcomes, and the bench enforces that on every single client.

use aspen_join::control::Command;
use aspen_serve::{open_session, Client, OpenSpec, ServeConfig, Server};
use std::collections::HashMap;
use std::sync::Arc;

const NODES: usize = 24;
const DEGREE: f64 = 7.0;
const SEEDS: u64 = 4;
const ADMIT: &str = "ADMIT innet-cmg SELECT s.id, t.id FROM s, t \
                     [windowsize=2 sampleinterval=100] \
                     WHERE s.id < 12 AND t.id >= 12 AND s.u = t.u";

struct Args {
    quick: bool,
    addr: Option<String>,
    clients: usize,
    workers: usize,
    rounds: u32,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve-load [--quick] [--addr HOST:PORT] \
         [--clients N] [--workers N] [--rounds N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut quick = false;
    let mut addr = None;
    let mut clients = None;
    let mut workers = None;
    let mut rounds = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--addr" => addr = Some(val("--addr")),
            "--clients" => clients = Some(val("--clients").parse().unwrap_or_else(|_| usage())),
            "--workers" => workers = Some(val("--workers").parse().unwrap_or_else(|_| usage())),
            "--rounds" => rounds = Some(val("--rounds").parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    Args {
        quick,
        addr,
        clients: clients.unwrap_or(if quick { 8 } else { 128 }),
        workers: workers.unwrap_or(4),
        rounds: rounds.unwrap_or(if quick { 3 } else { 32 }),
    }
}

/// The per-client command script, as raw wire lines (OPEN excluded — the
/// session name differs per client).
fn script(rounds: u32) -> Vec<String> {
    let mut lines = vec![ADMIT.to_string()];
    for _ in 0..rounds {
        lines.push("STEP 1".into());
        lines.push("REPORT".into());
    }
    lines.push("RETIRE q0".into());
    lines.push("REPORT".into());
    lines
}

/// What the final REPORT must say for a given seed — computed by applying
/// the identical script to an in-process `Session`, no sockets anywhere.
fn expected_report(seed: u64, rounds: u32) -> String {
    let mut session = open_session(&OpenSpec {
        nodes: NODES,
        degree: DEGREE,
        seed,
    });
    let mut last = String::new();
    for line in script(rounds) {
        let cmd = Command::decode(&line).expect("script line must parse");
        last = session.apply(cmd).encode();
        assert!(last.starts_with("OK"), "script rejected in-process: {last}");
    }
    last
}

fn main() {
    let args = parse_args();
    let (server, addr) = match &args.addr {
        Some(a) => (None, a.clone()),
        None => {
            let s = Server::start(ServeConfig {
                workers: args.workers,
                max_sessions_per_client: 4,
                max_queries_per_client: 64,
                ..ServeConfig::default()
            })
            .expect("bind in-process server");
            let a = s.addr().to_string();
            (Some(s), a)
        }
    };
    println!(
        "serve-load: {} clients x {} rounds against {addr} ({} shards{}){}",
        args.clients,
        args.rounds,
        args.workers,
        if args.addr.is_some() {
            ", external"
        } else {
            ""
        },
        if args.quick { " [quick]" } else { "" },
    );

    // Parity oracles, one per distinct seed (clients cycle through SEEDS).
    let expected: Arc<HashMap<u64, String>> = Arc::new(
        (1..=SEEDS)
            .map(|s| (s, expected_report(s, args.rounds)))
            .collect(),
    );

    let handles: Vec<_> = (0..args.clients)
        .map(|i| {
            let addr = addr.clone();
            let expected = Arc::clone(&expected);
            let rounds = args.rounds;
            std::thread::spawn(move || -> u64 {
                let seed = 1 + (i as u64 % SEEDS);
                let mut c = Client::connect(addr.as_str()).expect("connect");
                let mut done = 0u64;
                let opened = c
                    .request(&format!(
                        "OPEN lg{i} nodes={NODES} degree={DEGREE} seed={seed}"
                    ))
                    .expect("OPEN");
                assert!(opened.starts_with("OK OPENED"), "OPEN failed: {opened}");
                done += 1;
                let mut last = String::new();
                for line in script(rounds) {
                    last = c.request(&line).expect("request");
                    assert!(last.starts_with("OK"), "'{line}' failed: {last}");
                    done += 1;
                }
                assert_eq!(
                    last, expected[&seed],
                    "client {i} (seed {seed}): served outcome diverged from in-process run"
                );
                let bye = c.request("QUIT").expect("QUIT");
                assert_eq!(bye, "OK BYE");
                done + 1
            })
        })
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.join().expect("client")).sum();

    let clean = match server {
        Some(s) => {
            s.shutdown();
            true
        }
        None => true,
    };
    assert!(total > 0, "no commands completed");
    println!("  total_commands={total} parity=ok");
    println!("  clean shutdown");

    let json = format!(
        "{{\n  \"benchmark\": \"serve_load\",\n  \"mode\": \"{}\",\n  \
         \"workers\": {},\n  \"clients\": {},\n  \"rounds\": {},\n  \
         \"session_nodes\": {NODES},\n  \"total_commands\": {total},\n  \
         \"parity\": \"ok\",\n  \"clean_shutdown\": {clean}\n}}\n",
        if args.quick { "quick" } else { "full" },
        args.workers,
        args.clients,
        args.rounds,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}
