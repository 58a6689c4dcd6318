//! A closed connection gives back its file descriptors. The test counts
//! `/proc/self/fd`, so it lives alone in its own test binary: no other
//! test opens sockets in this process meanwhile.
#![cfg(target_os = "linux")]

use aspen_serve::{Client, ServeConfig, Server};
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn closed_connections_release_their_descriptors() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let before = open_fds();

    for _ in 0..300 {
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(c.request("QUIT").unwrap(), "OK BYE");
    }
    // A connection thread drops its descriptors just after `OK BYE`.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut after = open_fds();
    while after > before + 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        after = open_fds();
    }
    assert!(
        after <= before + 4,
        "300 closed connections left {} descriptors open ({before} -> {after})",
        after - before
    );
    server.shutdown();
}
