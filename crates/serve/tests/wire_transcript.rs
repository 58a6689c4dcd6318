//! The wire, pinned byte for byte: one server, one driver connection and
//! one subscriber run a script that reaches every verb and every error
//! kind a client can provoke, and the recorded request/reply transcript
//! must match `tests/golden/wire_transcript.txt`.
//!
//! `D>`/`D<` are the driver's requests and replies, `S>`/`S<` the
//! subscriber's (its event stream is read after the session closes), and
//! `X>`/`X<` a last connection that sends an over-long line. `<EOF>` is a
//! hang-up. Re-take the fixture only for an intended change of behaviour:
//! `BLESS=1 cargo test -p aspen_serve --test wire_transcript`.

use aspen_serve::{Client, ServeConfig, Server, MAX_LINE};
use std::path::PathBuf;

const PAIR: &str = "SELECT s.id, t.id FROM s, t [windowsize=2 sampleinterval=100] \
                    WHERE s.id < 20 AND t.id >= 20 AND s.u = t.u";
const GRAPH: &str = "SELECT a.id, c.id FROM a, b, c [windowsize=2 sampleinterval=100] \
                     WHERE a.id < 13 AND b.id >= 13 AND b.id < 26 AND c.id >= 26 \
                     AND a.u = b.u AND b.u = c.u";
/// The 4-relation chain of the federation tests: 10-node id bands joined
/// on `u`.
const FED_SQL: &str = "SELECT r0.id, r3.id FROM r0, r1, r2, r3 \
                       [windowsize=2 sampleinterval=100] \
                       WHERE r0.id < 10 AND r1.id >= 10 AND r1.id < 20 \
                       AND r2.id >= 20 AND r2.id < 30 \
                       AND r3.id >= 30 AND r3.id < 40 \
                       AND r0.u = r1.u AND r1.u = r2.u AND r2.u = r3.u";

/// The admissions below that reach a shard: four `ADMIT`/`ADMITGRAPH` and
/// five `FEDADMIT`; the tenth answers `ERR QUOTA`.
const QUERIES: usize = 9;

struct Transcript(String);

impl Transcript {
    fn send(&mut self, who: &str, c: &mut Client, line: &str) {
        let reply = c.request(line).expect("request");
        self.log(who, '>', line);
        self.reply(who, &reply);
    }

    fn reply(&mut self, who: &str, reply: &str) {
        self.log(who, '<', if reply.is_empty() { "<EOF>" } else { reply });
    }

    fn log(&mut self, who: &str, dir: char, line: &str) {
        self.0.push_str(&format!("{who}{dir} {line}\n"));
    }
}

fn transcript() -> String {
    let server = Server::start(ServeConfig {
        workers: 2,
        max_sessions_per_client: 1,
        max_queries_per_client: QUERIES,
        max_federations_per_client: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut t = Transcript(String::new());
    let mut d = Client::connect(server.addr()).expect("driver connects");
    let mut s = Client::connect(server.addr()).expect("subscriber connects");

    for line in [
        "STEP 1",
        "CLOSE",
        "CLOSE x",
        "OPEN",
        "OPEN x nodes=zork",
        "OPEN x nodes=1",
        "OPEN x nodes=40 degree=1",
        "OPEN w nodes=40 seed=2",
        "OPEN w",
        "OPEN v",
    ] {
        t.send("D", &mut d, line);
    }
    t.send("S", &mut s, "USE w");
    t.send("S", &mut s, "SUBSCRIBE");

    for line in [
        "ADMIT quantum SELECT s.id FROM s, t WHERE s.u = t.u".to_string(),
        "ADMIT naive SELECT FROM".into(),
        "ADMIT innet-cmg".into(),
        format!("ADMIT innet-cmg {PAIR}"),
        format!("ADMITGRAPH naive {GRAPH}"),
        "RUN RESULTS 5".into(),
        "STEP 5".into(),
        "STEP x".into(),
        "RUN CYCLE 12".into(),
        "STEP 4294967295".into(),
        "RUN CYCLE 4294967295".into(),
        "RUN LATER 3".into(),
        "KILL 7".into(),
        "KILL 0".into(),
        "KILL 40".into(),
        "RETIRE q7".into(),
        "RETIRE z1".into(),
        "RETIRE q0".into(),
        "REPORT".into(),
        "REPORT x".into(),
        "CACHESTATS".into(),
        "FROB 1".into(),
        "USE a b".into(),
        "USE nosuch".into(),
        "REPORT".into(),
        "USE w".into(),
        "RETIRE g0".into(),
        "STEP 2".into(),
        "REPORT".into(),
        "CLOSE".into(),
        "REPORT".into(),
    ] {
        t.send("D", &mut d, &line);
    }
    loop {
        let ev = s.read_line().expect("subscriber reads");
        t.reply("S", &ev);
        if ev.is_empty() {
            break;
        }
    }

    for line in [
        "FEDREPORT nosuch".to_string(),
        "FEDOPEN".into(),
        "FEDOPEN f members=1".into(),
        "FEDOPEN f nodes=40 degree=1".into(),
        "FEDOPEN f members=2 nodes=60 seed=3".into(),
        "FEDOPEN f".into(),
        "FEDOPEN g".into(),
        "LINK f".into(),
        "LINK f 0:10 1".into(),
        "LINK f 0:10 1:5 loss=1".into(),
        "LINK nosuch 0:10 1:5".into(),
        "LINK f 0:10 2:5".into(),
        "LINK f 0:10 0:5".into(),
        "LINK f 0:10 1:60".into(),
        format!("FEDADMIT f innet-cmg homes=0,0,1,1 {FED_SQL}"),
        "LINK f 0:10 1:5 latency=1".into(),
        "LINK f 0:20 1:15 loss=0.3 budget=4096".into(),
        "FEDADMIT f innet-cmg".into(),
        "FEDADMIT f innet-cmg homes=0,x SELECT".into(),
        format!("FEDADMIT f innet-cmg homes=0,0,1,1 mode=warp {FED_SQL}"),
        format!("FEDADMIT f quantum homes=0,1 {FED_SQL}"),
        "FEDADMIT f innet-cmg homes=0,0,1,1 SELECT FROM".into(),
        format!("FEDADMIT f innet-cmg homes=0,0,1 {FED_SQL}"),
        "LINK f 0:11 1:6".into(),
        format!("FEDADMIT f innet-cmg homes=0,0,1,1 {FED_SQL}"),
        format!("FEDADMIT f innet-cmg homes=0,0,1,1 mode=shipbase {FED_SQL}"),
        "FEDREPORT f cycles=x".into(),
        "FEDREPORT f cycles=4294967295".into(),
        "FEDREPORT f cycles=30".into(),
        "FEDREPORT f".into(),
        "QUIT".into(),
    ] {
        t.send("D", &mut d, &line);
    }

    let mut x = Client::connect(server.addr()).expect("last client connects");
    let long = "x".repeat(MAX_LINE + 1);
    let reply = x.request(&long).expect("over-long request");
    t.log("X", '>', &format!("<{} bytes>", long.len()));
    t.reply("X", &reply);
    t.reply("X", &x.read_line().expect("then EOF"));
    server.shutdown();
    t.0
}

#[test]
fn wire_transcript_matches_the_fixture() {
    let actual = transcript();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_transcript.txt");
    if std::env::var("BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("golden dir");
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "the wire transcript differs from the fixture"
    );
}
