//! Property tests: the control-plane wire encodings are exact inverses.
//! `decode(encode(x)) == x` for arbitrary requests (every verb),
//! responses (including full report payloads with hostile strings) and
//! session events.
//!
//! The vendored `proptest` shim has no combinator layer, so the
//! generators are hand-rolled over its [`run_cases`] driver: each one is
//! a plain function drawing from the per-case `StdRng`.

use aspen_join::control::{
    esc, unesc, Command, ControlError, FedCommand, FedSpec, OpenSpec, QuerySummary, ReportSummary,
    Request, Response, StopWhen, Target,
};
use aspen_join::{
    decode_event, encode_event, CrossId, CrossMode, GraphId, Phase, QueryId, SessionEvent,
};
use proptest::run_cases;
use rand::rngs::StdRng;
use rand::Rng;
use sensor_net::{GatewayLink, NodeId};

/// Hostile enough to catch escaping bugs: spaces, commas, percent signs,
/// control characters and multi-byte unicode mixed with alphanumerics.
fn hostile_string(rng: &mut StdRng) -> String {
    const PALETTE: [char; 10] = [' ', ',', '%', '\n', '\t', '\r', '\u{7f}', 'é', '界', '-'];
    let len = rng.random_range(0..24usize);
    (0..len)
        .map(|_| match rng.random_range(0..10u32) {
            0..=4 => PALETTE[rng.random_range(0..PALETTE.len())],
            5..=7 => rng.random_range(b'a'..b'{') as char,
            _ => rng.random_range(b'0'..b':') as char,
        })
        .collect()
}

/// SQL rides the ADMIT line raw (rest-of-line), so it may hold anything
/// except line breaks, and must be non-empty.
fn sql_string(rng: &mut StdRng) -> String {
    const PALETTE: [char; 6] = [' ', '.', '=', ',', '<', '['];
    let len = rng.random_range(1..40usize);
    (0..len)
        .map(|_| match rng.random_range(0..8u32) {
            0..=2 => PALETTE[rng.random_range(0..PALETTE.len())],
            3..=5 => rng.random_range(b'a'..b'{') as char,
            _ => rng.random_range(b'0'..b':') as char,
        })
        .collect()
}

fn algo(rng: &mut StdRng) -> String {
    const ALGOS: [&str; 4] = ["naive", "innet-cmg", "ght", "innet-cmg-learn"];
    ALGOS[rng.random_range(0..ALGOS.len())].to_string()
}

fn target(rng: &mut StdRng) -> Target {
    let i = rng.random_range(0..100usize);
    if rng.random::<bool>() {
        Target::Query(QueryId(i))
    } else {
        Target::Graph(GraphId(i))
    }
}

/// Finite values only: the report fields are averages of counters, so
/// NaN/inf never occur, and Display→parse round-trips exactly for every
/// finite f64 (shortest-representation printing).
fn finite_f64(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..3u32) {
        0 => 0.0,
        1 => rng.random_range(0..1_000_000u32) as f64 / rng.random_range(1..1_000u32) as f64,
        _ => loop {
            let f = f64::from_bits(rng.random::<u64>());
            if f.is_finite() {
                break f;
            }
        },
    }
}

fn command(rng: &mut StdRng) -> Command {
    match rng.random_range(0..9u32) {
        0 => Command::Admit {
            algo: algo(rng),
            sql: sql_string(rng),
        },
        1 => Command::AdmitGraph {
            algo: algo(rng),
            sql: sql_string(rng),
        },
        2 => Command::Retire(target(rng)),
        3 => Command::Step(rng.random()),
        4 => Command::RunUntil(StopWhen::Cycle(rng.random())),
        5 => Command::RunUntil(StopWhen::Results(rng.random())),
        6 => Command::Kill(NodeId(rng.random())),
        7 => Command::Report,
        _ => Command::Subscribe,
    }
}

/// A session or federation name: one token without whitespace.
fn name(rng: &mut StdRng) -> String {
    const PALETTE: [char; 6] = ['%', ',', ':', '=', 'é', '界'];
    let len = rng.random_range(1..12usize);
    (0..len)
        .map(|_| match rng.random_range(0..4u32) {
            0 => PALETTE[rng.random_range(0..PALETTE.len())],
            1 => rng.random_range(b'0'..b':') as char,
            _ => rng.random_range(b'a'..b'{') as char,
        })
        .collect()
}

/// Any spec the wire accepts: a degree of at most 64.
fn open_spec(rng: &mut StdRng) -> OpenSpec {
    let degree = loop {
        let d = finite_f64(rng);
        if d <= 64.0 {
            break d;
        }
    };
    OpenSpec {
        nodes: rng.random_range(2..20_001usize),
        degree,
        seed: rng.random(),
    }
}

/// Any link the wire can carry: loss in [0, 1).
fn link(rng: &mut StdRng) -> GatewayLink {
    GatewayLink::new(
        rng.random_range(0..16usize),
        NodeId(rng.random()),
        rng.random_range(0..16usize),
        NodeId(rng.random()),
    )
    .with_loss(rng.random_range(0..1_000u32) as f64 / 1_000.0)
    .with_latency(rng.random())
    .with_budget(rng.random())
}

fn fed_command(rng: &mut StdRng) -> FedCommand {
    match rng.random_range(0..3u32) {
        0 => FedCommand::Link(link(rng)),
        1 => FedCommand::Admit {
            algo: algo(rng),
            homes: {
                let n = rng.random_range(1..6usize);
                (0..n).map(|_| rng.random_range(0..16usize)).collect()
            },
            mode: if rng.random::<bool>() {
                CrossMode::Gateway
            } else {
                CrossMode::ShipBase
            },
            sql: sql_string(rng),
        },
        _ => FedCommand::Report {
            cycles: rng.random(),
        },
    }
}

fn request(rng: &mut StdRng) -> Request {
    match rng.random_range(0..7u32) {
        0 => Request::Open {
            name: name(rng),
            spec: open_spec(rng),
        },
        1 => Request::Use(name(rng)),
        2 => Request::Close,
        3 => Request::Quit,
        4 => Request::Session(command(rng)),
        5 => Request::FedOpen {
            name: name(rng),
            spec: FedSpec {
                members: rng.random_range(2..17usize),
                member_spec: open_spec(rng),
            },
        },
        _ => Request::Fed {
            name: name(rng),
            cmd: fed_command(rng),
        },
    }
}

fn control_error(rng: &mut StdRng) -> ControlError {
    let detail = hostile_string(rng);
    match rng.random_range(0..13u32) {
        0 => ControlError::Parse {
            pos: rng.random_range(0..10_000usize),
            msg: detail,
        },
        1 => ControlError::UnknownAlgo(detail),
        2 => ControlError::BadTarget(detail),
        3 => ControlError::Unsupported(detail),
        4 => ControlError::Usage(detail),
        5 => ControlError::NoSession(detail),
        6 => ControlError::NoFed(detail),
        7 => ControlError::Quota(detail),
        8 => ControlError::Topology(detail),
        9 => ControlError::State(detail),
        10 => ControlError::Fed(detail),
        11 => ControlError::Shutdown(detail),
        _ => ControlError::Internal(detail),
    }
}

fn query_summary(rng: &mut StdRng) -> QuerySummary {
    QuerySummary {
        label: hostile_string(rng),
        name: hostile_string(rng),
        arrival: rng.random(),
        departure: if rng.random::<bool>() {
            Some(rng.random())
        } else {
            None
        },
        results: rng.random(),
        avg_delay_tx: finite_f64(rng),
    }
}

fn report(rng: &mut StdRng) -> ReportSummary {
    ReportSummary {
        cycle: rng.random(),
        results: rng.random(),
        total_traffic_bytes: rng.random(),
        base_load_bytes: rng.random(),
        max_node_load_bytes: rng.random(),
        total_traffic_msgs: rng.random(),
        base_load_msgs: rng.random(),
        avg_delay_cycles: finite_f64(rng),
        send_failures: rng.random(),
        queue_drops: rng.random(),
        repair_attempts: rng.random(),
        repair_successes: rng.random(),
        tuples_lost: rng.random(),
        tuples_rerouted: rng.random(),
        recovery_bytes: rng.random(),
        expired_frames: rng.random(),
        queries: {
            let n = rng.random_range(0..4usize);
            (0..n).map(|_| query_summary(rng)).collect()
        },
    }
}

fn response(rng: &mut StdRng) -> Response {
    match rng.random_range(0..18u32) {
        0 => Response::Admitted(target(rng)),
        1 => Response::Retired(target(rng)),
        2 => Response::Stepped {
            cycle: rng.random(),
        },
        3 => Response::Ran {
            cycles: rng.random(),
            cycle: rng.random(),
        },
        4 => Response::Killed {
            node: NodeId(rng.random()),
        },
        5 => Response::Report(Box::new(report(rng))),
        6 => Response::Subscribed,
        7 => Response::Opened {
            name: name(rng),
            nodes: rng.random(),
        },
        8 => Response::Attached(name(rng)),
        9 => Response::Using(name(rng)),
        10 => Response::Closed(name(rng)),
        11 => Response::Bye,
        12 => Response::FedOpened {
            name: name(rng),
            members: rng.random(),
            nodes: rng.random(),
        },
        13 => Response::FedAttached(name(rng)),
        14 => Response::Linked {
            name: name(rng),
            index: rng.random(),
        },
        15 => Response::FedAdmitted(CrossId(rng.random())),
        // A summary line is one line: anything but a line break.
        16 => Response::FedReport(sql_string(rng)),
        _ => Response::Rejected(control_error(rng)),
    }
}

fn event(rng: &mut StdRng) -> SessionEvent {
    let cycle = rng.random();
    match rng.random_range(0..9u32) {
        0 => SessionEvent::Admitted {
            cycle,
            query: QueryId(rng.random_range(0..100usize)),
        },
        1 => SessionEvent::Retired {
            cycle,
            query: QueryId(rng.random_range(0..100usize)),
        },
        2 => SessionEvent::PairsMigrated {
            cycle,
            count: rng.random(),
        },
        3 => SessionEvent::PathsRepaired {
            cycle,
            count: rng.random(),
        },
        4 => SessionEvent::NodeKilled {
            cycle,
            node: NodeId(rng.random()),
        },
        5 => SessionEvent::LossShifted {
            cycle,
            loss_prob: finite_f64(rng),
        },
        6 => SessionEvent::WorkloadMark { cycle },
        7 => SessionEvent::PhaseTransition {
            cycle,
            phase: if rng.random::<bool>() {
                Phase::Execution
            } else {
                Phase::Initiation
            },
        },
        _ => SessionEvent::Replanned {
            cycle,
            graph: GraphId(rng.random_range(0..100usize)),
        },
    }
}

#[test]
fn escaping_round_trips() {
    run_cases("escaping_round_trips", |rng, _| {
        let s = hostile_string(rng);
        let e = esc(&s);
        assert!(
            !e.contains(' ') && !e.contains(',') && !e.contains('\n') && !e.contains('\r'),
            "escaped form must be one clean token: {e:?}"
        );
        assert_eq!(unesc(&e), Some(s));
    });
}

#[test]
fn escaping_edge_cases() {
    assert_eq!(esc(""), "%");
    assert_eq!(unesc("%"), Some(String::new()));
    for s in ["%", "%%", " ", ",", "%20", "a b,c%d", "\n\t\r"] {
        assert_eq!(unesc(&esc(s)).as_deref(), Some(s), "round-trip of {s:?}");
    }
    // Malformed escapes are rejected, not mangled.
    assert_eq!(unesc("%2"), None);
    assert_eq!(unesc("%zz"), None);
    assert_eq!(unesc("abc%"), None);
}

#[test]
fn command_encoding_round_trips() {
    run_cases("command_encoding_round_trips", |rng, _| {
        let cmd = command(rng);
        let line = cmd.encode();
        assert!(!line.contains('\n'), "wire line must be one line: {line:?}");
        assert_eq!(Command::decode(&line), Ok(cmd));
    });
}

#[test]
fn request_encoding_round_trips() {
    run_cases("request_encoding_round_trips", |rng, _| {
        let req = request(rng);
        let line = req.encode();
        assert!(!line.contains('\n'), "wire line must be one line: {line:?}");
        assert_eq!(Request::decode(&line), Ok(req));
    });
}

#[test]
fn response_encoding_round_trips() {
    run_cases("response_encoding_round_trips", |rng, _| {
        let resp = response(rng);
        let line = resp.encode();
        assert!(!line.contains('\n'), "wire line must be one line: {line:?}");
        assert_eq!(Response::decode(&line), Ok(resp));
    });
}

#[test]
fn event_encoding_round_trips() {
    run_cases("event_encoding_round_trips", |rng, _| {
        let ev = event(rng);
        let line = encode_event(&ev);
        assert!(!line.contains('\n'), "wire line must be one line: {line:?}");
        assert_eq!(decode_event(&line), Ok(ev));
    });
}
