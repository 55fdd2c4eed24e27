//! The replica's half of "a round is the unit of replication", pinned
//! against a primary the test scripts byte by byte: the handshake carries
//! one epoch, a round is applied whole, and a round delivered again is
//! dropped whole. (`tests/replication.rs` covers the real primary.)

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use ivme::cli::proto::{self, ReplHeader};
use ivme::workload::{wait_for_epoch, wait_for_stat, Client};
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
        hello, "hello 4 0\n",
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

#[test]
fn a_round_that_fails_to_apply_breaks_the_replica_and_closes_the_connection() {
    let primary = TcpListener::bind("127.0.0.1:0").unwrap();
    let replica = Replica::start(ReplicaConfig {
        primary: primary.local_addr().unwrap().to_string(),
        listen: "127.0.0.1:0".to_owned(),
    })
    .unwrap();
    let (mut stream, _) = primary.accept().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    reader.read_line(&mut String::new()).unwrap(); // hello

    send_round(
        &mut stream,
        1,
        &[
            "query Q(A) :- R(A,B), S(B)",
            "row R 1,10\nrow S 10\n",
            "build",
        ],
    );
    // Round 2's first frame applies; its second cannot be replayed. The
    // replica must not serve the state between the two.
    send_round(
        &mut stream,
        2,
        &[
            ".batch begin\ninsert R 2,10\n.batch commit\n",
            "load R /dev/null\n",
        ],
    );
    let broken = wait_for_stat(replica.addr(), "replica_broken", 1, Duration::from_secs(30));
    assert_eq!(
        broken,
        Some(1),
        "the unreplayable round must break the replica"
    );
    let mut c = Client::connect(replica.addr()).unwrap();
    assert_eq!(c.expect_ok("count"), "1\n");
    assert_eq!(c.expect_ok("get 1"), "(1) x1\n");
    let stats = c.expect_ok("stats");
    assert!(stats.contains("replica_epoch = 1,"), "{stats}");

    // A broken replica closes the connection (its ack of round 1 may
    // still be in flight) and dials no more.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    reader
        .read_to_end(&mut Vec::new())
        .expect("the broken replica must close the connection");
    std::thread::sleep(Duration::from_secs(1));
    primary.set_nonblocking(true).unwrap();
    let redial = primary.accept().map(|_| ());
    assert!(
        redial.is_err_and(|e| e.kind() == ErrorKind::WouldBlock),
        "a broken replica must not reconnect"
    );
}

/// An ack counts the frames applied on its own connection — the primary
/// diffs it against what it sent on that connection for `lag_frames`, so
/// a count carried over from an earlier connection would hide the lag.
#[test]
fn an_ack_counts_the_frames_applied_on_its_own_connection() {
    let primary = TcpListener::bind("127.0.0.1:0").unwrap();
    let replica = Replica::start(ReplicaConfig {
        primary: primary.local_addr().unwrap().to_string(),
        listen: "127.0.0.1:0".to_owned(),
    })
    .unwrap();
    let accept = || {
        let (stream, _) = primary.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    };
    let next_line = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };

    let (mut stream, mut reader) = accept();
    assert_eq!(next_line(&mut reader), "hello 4 0\n");
    send_round(
        &mut stream,
        1,
        &[
            "query Q(A) :- R(A,B), S(B)",
            "row R 1,10\nrow S 10\n",
            "build",
        ],
    );
    let ack = proto::parse_repl_ack(&next_line(&mut reader)).unwrap();
    assert_eq!(ack, (1, 3));
    stream.shutdown(std::net::Shutdown::Both).unwrap();

    let (mut stream, mut reader) = accept();
    assert_eq!(next_line(&mut reader), "hello 4 1\n");
    send_round(
        &mut stream,
        2,
        &[".batch begin\ninsert R 2,10\n.batch commit\n"],
    );
    let ack = proto::parse_repl_ack(&next_line(&mut reader)).unwrap();
    assert_eq!(ack, (2, 1), "the first connection's frames were counted");
    drop(replica);
}
