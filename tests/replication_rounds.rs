//! The replica's half of "a round is the unit of replication", pinned
//! against a primary the test scripts byte by byte: the handshake carries
//! one epoch, a round is applied whole, and a round delivered again is
//! dropped whole. (`tests/replication.rs` covers the real primary.)

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use ivme::cli::proto::{self, ReplHeader};
use ivme::workload::{wait_for_epoch, Client};
use ivme_server::repl::{Replica, ReplicaConfig};

/// Writes one `round` message exactly as a primary's sender does.
fn send_round(w: &mut TcpStream, epoch: u64, frames: &[&str]) {
    let header = ReplHeader::Round {
        epoch,
        frames: frames.len(),
    };
    writeln!(w, "{}", proto::repl_header_line(&header)).unwrap();
    for f in frames {
        writeln!(w, "{}", proto::repl_frame_line(f.len())).unwrap();
        w.write_all(f.as_bytes()).unwrap();
    }
    w.flush().unwrap();
}

#[test]
fn a_redelivered_round_is_dropped_whole_and_a_new_one_applied_whole() {
    let primary = TcpListener::bind("127.0.0.1:0").unwrap();
    let replica = Replica::start(ReplicaConfig {
        primary: primary.local_addr().unwrap().to_string(),
        listen: "127.0.0.1:0".to_owned(),
    })
    .unwrap();
    let (mut stream, _) = primary.accept().unwrap();
    let mut hello = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut hello)
        .unwrap();
    assert_eq!(
        hello, "hello 2 0\n",
        "a fresh follower resumes from epoch 0"
    );

    send_round(&mut stream, 1, &["query Q(A) :- R(A,B), S(B)"]);
    let round_2 = ["row R 1,10\n", "row S 10\n"];
    send_round(&mut stream, 2, &round_2);
    // The same round again — what a bootstrap scan overlapping the live
    // queue used to produce. Applying any of it would stage a row twice.
    send_round(&mut stream, 2, &round_2);
    send_round(&mut stream, 3, &["build"]);

    assert!(
        wait_for_epoch(replica.addr(), 3, Duration::from_secs(30)),
        "replica never reached epoch 3"
    );
    let mut c = Client::connect(replica.addr()).unwrap();
    assert_eq!(c.expect_ok("count"), "1\n");
    assert_eq!(c.expect_ok("get 1"), "(1) x1\n");
    let stats = c.expect_ok("stats");
    assert!(stats.contains("replica_broken = 0"), "{stats}");
}
