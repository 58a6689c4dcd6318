//! `aspen-serve` — serve many join-optimization sessions over TCP.
//!
//! ```text
//! aspen-serve [--addr HOST:PORT] [--workers N]
//!             [--max-sessions N] [--max-queries N] [--max-federations N]
//! ```
//!
//! `--workers N` sets the number of session shards (default 4): each
//! command runs on its connection's thread under the lock of the shard
//! that owns its session. Prints the bound address on stdout
//! (`listening on 127.0.0.1:7878`) and serves until killed. See the crate
//! docs for the line protocol.

use aspen_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: aspen-serve [--addr HOST:PORT] [--workers N] \
         [--max-sessions N] [--max-queries N] [--max-federations N]\n  \
         --workers N  number of session shards (default 4)"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServeConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") || arg == "--help" {
            usage();
        }
        let val = args.next().unwrap_or_else(|| {
            eprintln!("{arg} needs a value");
            usage()
        });
        let num = || val.parse().unwrap_or_else(|_| usage());
        match arg.as_str() {
            "--addr" => cfg.addr = val,
            "--workers" => cfg.workers = num(),
            "--max-sessions" => cfg.max_sessions_per_client = num(),
            "--max-queries" => cfg.max_queries_per_client = num(),
            "--max-federations" => cfg.max_federations_per_client = num(),
            _ => usage(),
        }
    }
    if cfg.workers == 0 {
        usage();
    }
    let workers = cfg.workers;
    match Server::start(cfg) {
        Ok(server) => {
            println!("listening on {} ({workers} shards)", server.addr());
            // Serve until the process is killed; the listener thread owns
            // the accept loop, so just park forever.
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("aspen-serve: {e}");
            std::process::exit(1);
        }
    }
}
