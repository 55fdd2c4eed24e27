//! Primary and replica serve through one connection loop, parameterised
//! only by where writes go, and the shell runs the same commands through
//! the same interpreter (`ivme_cli::session`). These tests pin what the
//! merges must keep: the same script gets byte-identical read replies
//! from a primary and its converged replica, every state-changing verb on
//! the replica is a redirect naming the primary, a local `Shell` fed the
//! script answers every line as the primary does, and the loop's read
//! buffer is bounded.

use std::collections::BTreeSet;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ivme::cli::proto::{self, Command};
use ivme::cli::Shell;
use ivme::workload::{stat_field, wait_for_epoch, Client};
use ivme_server::{Server, ServerConfig, MAX_LINE};

mod support;
use support::{start_replica, temp_dir};

/// What a table row expects of the two roles.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Changes state (or a `.batch` that exists to): the primary runs it,
    /// the replica answers with the redirect.
    Write,
    /// Served from the published snapshot: both Ok, byte-identical.
    Read,
    /// Answered by the loop itself: identical, whatever the reply is.
    Loop,
}

/// Exhaustive on purpose: a new `Command` variant fails to compile here
/// until the table below gains a row for it.
fn variant(c: &Command) -> &'static str {
    match c {
        Command::Query(_) => "query",
        Command::Epsilon(_) => "epsilon",
        Command::Mode(_) => "mode",
        Command::Load { .. } => "load",
        Command::Build => "build",
        Command::Update { .. } => "update",
        Command::BatchBegin => "batch begin",
        Command::BatchCommit => "batch commit",
        Command::BatchAbort => "batch abort",
        Command::BatchStatus => "batch status",
        Command::List { .. } => "list",
        Command::Get(_) => "get",
        Command::Page { .. } => "page",
        Command::Count => "count",
        Command::Stats => "stats",
        Command::Classify => "classify",
        Command::Plan => "plan",
        Command::Help => "help",
        Command::Quit => "quit",
        Command::Shutdown => "shutdown",
    }
}

/// The part of a `stats` payload every role renders from the engine view;
/// the durability and replication lines after it, and the shell's
/// engine line (`M = …, θ = …`), are role-specific.
fn engine_lines(stats: &str) -> Vec<&str> {
    stats
        .lines()
        .filter(|l| !l.starts_with("wal_epoch") && !l.starts_with("repl"))
        .filter(|l| !l.starts_with("M = "))
        .collect()
}

/// A reply with what legitimately differs between a shell and a server
/// removed: the wall-clock tail of the `.batch commit` line
/// (`in …ms (… /s[, group of N])`) and the role-specific `stats` lines.
fn normalised(reply: &str) -> Vec<&str> {
    engine_lines(reply)
        .into_iter()
        .map(|l| match l.rfind(" in ") {
            Some(i) if l.starts_with("committed ") => &l[..i],
            _ => l,
        })
        .collect()
}

/// The shell's reply to one line, framed as a connection frames it: a
/// blank line is an empty `ok`, a parse error an `err`.
fn shell_reply(shell: &mut Shell, line: &str) -> Result<String, String> {
    match proto::parse_command(line)? {
        None => Ok(String::new()),
        Some(cmd) => shell.run(cmd),
    }
}

#[test]
fn one_script_against_a_primary_and_its_converged_replica() {
    let dir = temp_dir("table");
    std::fs::create_dir_all(&dir).unwrap();
    let (csv_s, csv_more) = (dir.join("s.csv"), dir.join("more.csv"));
    std::fs::write(&csv_s, "10,5\n").unwrap();
    std::fs::write(&csv_more, "10,6\n10,8\n").unwrap();
    let primary = Server::start(ServerConfig {
        data_dir: Some(dir.join("data")),
        repl_listen: Some("127.0.0.1:0".to_owned()),
        ..ServerConfig::default()
    })
    .unwrap();
    let repl_addr = primary.repl_addr().unwrap().to_string();
    let replica = start_replica(repl_addr.clone());

    let load = format!("load S {}", csv_s.display());
    let load_more = format!("load S {}", csv_more.display());
    use Kind::{Loop, Read, Write};
    let table: Vec<(&str, Kind)> = vec![
        ("query Q(A,C) :- R(A,B), S(B,C)", Write),
        ("epsilon 0.5", Write),
        ("mode dynamic", Write),
        // Before `build` the write verbs fill the row store, which `stats`
        // reports.
        ("insert R 1,10", Write),
        (&load, Write),
        ("stats", Read),
        ("build", Write),
        ("insert R 2,10", Write),
        // On a built engine `load` inserts too, a relation the query does
        // not name is stored, and `epsilon` and a second `build` rebuild
        // from the engine's own rows: every write above stays, on all
        // three.
        ("insert R 3,10", Write),
        (&load_more, Write),
        ("insert X 8", Write),
        ("epsilon 0.25", Write),
        ("build", Write),
        (".batch begin", Write),
        // Staged (empty ack) on the primary. The replica refused the
        // `.batch begin`, so this is an ordinary write there: no `.batch`
        // state accumulated.
        ("insert S 10,7", Write),
        (".batch status", Write),
        (".batch commit", Write),
        (".batch begin", Write),
        (".batch abort", Write),
        ("list 10", Read),
        ("get 1,5", Read),
        ("page 0 2", Read),
        ("count", Read),
        ("stats", Read),
        ("classify", Read),
        ("plan", Read),
        ("help", Loop),
        ("", Loop),
        ("frobnicate", Loop),
        ("quit", Loop),
    ];
    let mut covered: BTreeSet<&str> = table
        .iter()
        .filter_map(|(line, _)| proto::parse_command(line).ok().flatten())
        .map(|c| variant(&c))
        .collect();

    let mut pc = Client::connect(primary.addr()).unwrap();
    let mut rc = Client::connect(replica.addr()).unwrap();
    let mut shell = Shell::new();
    for (line, kind) in &table {
        if *kind == Read {
            // Converge first: the replica must have applied everything
            // the primary committed so far.
            let stats = Client::connect(primary.addr()).unwrap().expect_ok("stats");
            let target = stat_field(&stats, "snapshot_epoch").unwrap();
            assert!(wait_for_epoch(
                replica.addr(),
                target,
                Duration::from_secs(30)
            ));
        }
        let p = pc.request(line).expect("primary connection must survive");
        let r = rc.request(line).expect("replica connection must survive");
        // The shell performs the primary's operations in the primary's
        // order, so even `list`/`page` order and `snapshot_epoch` agree.
        let sh = shell_reply(&mut shell, line);
        assert_eq!(
            p.as_deref().map(normalised),
            sh.as_deref().map(normalised),
            "shell and primary disagree on `{line}`"
        );
        match kind {
            Write => {
                assert!(p.is_ok(), "primary refused `{line}`: {p:?}");
                let err = r.expect_err("replicas must refuse writes and admin");
                assert!(err.contains("read-only replica"), "`{line}`: {err}");
                assert!(
                    err.contains(&repl_addr),
                    "`{line}` must name the primary: {err}"
                );
            }
            Read if *line == "stats" => {
                let (p, r) = (p.unwrap(), r.unwrap());
                assert_eq!(engine_lines(&p), engine_lines(&r));
                assert!(r.contains("replica_epoch = "), "{r}");
            }
            Read => {
                assert!(p.is_ok(), "`{line}`: {p:?}");
                assert_eq!(p, r, "`{line}`");
            }
            Loop => assert_eq!(p, r, "`{line}`"),
        }
    }
    // `quit` closed both connections.
    assert!(pc.request("count").is_err());
    assert!(rc.request("count").is_err());
    // No admin op dropped a write: R = {1, 2, 3} × S = {5, 6, 7, 8}.
    let mut pc = Client::connect(primary.addr()).unwrap();
    assert_eq!(pc.expect_ok("count"), "12\n");

    // `shutdown` is routed per role; the replica first, while the primary
    // is still up.
    let mut rc = Client::connect(replica.addr()).unwrap();
    assert_eq!(rc.expect_ok("shutdown"), "replica shutting down\n");
    assert!(replica.is_shutdown());
    let mut pc = Client::connect(primary.addr()).unwrap();
    assert!(pc.expect_ok("shutdown").starts_with("shutting down: "));
    assert!(primary.is_shutdown());
    // The one verb a shell answers differently: it has nothing to stop.
    let err = shell_reply(&mut shell, "shutdown").unwrap_err();
    assert!(err.contains("server-side command"), "{err}");
    covered.insert(variant(&Command::Shutdown));
    assert_eq!(covered.len(), 20, "the script must take every Command");

    drop(replica);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_overlong_line_is_refused_and_the_server_keeps_serving() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut admin = Client::connect(server.addr()).unwrap();
    for line in [
        "query Q(A) :- R(A,B), S(B)",
        "insert R 1,2",
        "insert S 2",
        "build",
    ] {
        admin.expect_ok(line);
    }

    // More than the limit, and never a newline. The server stops reading
    // at the limit, so the tail of this write may fail — that is fine.
    let mut hostile = TcpStream::connect(server.addr()).unwrap();
    let _ = hostile.write_all(&vec![b'a'; MAX_LINE + 4096]);
    let mut reader = BufReader::new(hostile);
    let reply = proto::read_response(&mut reader).unwrap();
    assert_eq!(reply, Some(Err("line too long".to_owned())));
    // …and then the socket is closed: EOF, or a reset for the unread tail.
    let mut rest = Vec::new();
    assert!(matches!(reader.read_to_end(&mut rest), Ok(0) | Err(_)));

    // The server is unharmed: old and new connections are still served.
    assert_eq!(admin.expect_ok("count"), "1\n");
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert_eq!(fresh.expect_ok("count"), "1\n");
}

/// No shard count is in range: the engine is one, and `.shards` is an
/// unknown command, refused before it reaches the writer — the one
/// thread that can apply a write.
#[test]
fn an_out_of_range_shard_count_is_refused_and_the_writer_keeps_serving() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.expect_ok("query Q(A,C) :- R(A,B), S(B,C)");
    for line in [".shards 100000", ".shards 2", ".shards 1"] {
        let err = c.request(line).unwrap().unwrap_err();
        assert_eq!(err, "unknown command `.shards` (try `help`)", "{line}");
    }
    for line in ["insert R 1,10", "insert S 10,5"] {
        c.expect_ok(line);
    }
    assert_eq!(c.expect_ok("build"), "built: N = 2\n");
    for line in [".batch begin", "insert R 2,10"] {
        c.expect_ok(line);
    }
    assert!(c.expect_ok(".batch commit").starts_with("committed "));
    assert_eq!(c.expect_ok("count"), "2\n");
}

/// `query …; insert …; build` answers, in the shell and over a socket,
/// what `query …; row …; build` answered while `row` was the verb that
/// stored rows before `build`: the same listing, `stats` engine lines and
/// counters. The expected text is that older transcript.
#[test]
fn inserts_before_build_answer_what_row_lines_did() {
    let script = "query Q(A,C) :- R(A,B), S(B,C)\ninsert R 1,10\ninsert R 2,10\ninsert R 2,10\n\
                  insert S 10,5\ninsert S 10,6\ninsert T 7\nbuild\nlist\nstats\ninsert R 3,10\n\
                  count\nstats";
    let counters = "major rebalances = 0, minor rebalances = 0, misroutes = 0";
    let want = [
        "built: N = 4\n".to_owned(),
        "(1, 5) x1\n(1, 6) x1\n(2, 6) x2\n(2, 5) x2\n(4 tuples)\n".to_owned(),
        format!("N = 4, snapshot_epoch = 8\nupdates = 0, batches = 0, {counters}\nrelations: R=2, S=2\n"),
        String::new(),
        "6\n".to_owned(),
        format!("N = 5, snapshot_epoch = 9\nupdates = 1, batches = 1, {counters}\nrelations: R=3, S=2\n"),
    ];
    let engine = [
        "M = 9, θ = 3.00, views = 10, aux space = 16\n",
        "M = 9, θ = 3.00, views = 10, aux space = 19\n",
    ];
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let mut shell = Shell::new();
    let (mut served, mut shelled) = (Vec::new(), Vec::new());
    for line in script.lines() {
        served.push(c.expect_ok(line));
        shelled.push(shell_reply(&mut shell, line).unwrap());
    }
    assert!(served[1..7].iter().all(String::is_empty), "{served:?}");
    assert_eq!(served[7..], want);
    // The shell's `stats` adds the engine line.
    let (mut shell_want, mut engine) = (want.to_vec(), engine.iter());
    for reply in shell_want.iter_mut().filter(|r| r.starts_with("N = ")) {
        reply.push_str(engine.next().unwrap());
    }
    assert_eq!(shelled[7..], shell_want);
}
