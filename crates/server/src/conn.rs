//! The one serving path: the accept loop, the connection loop and the
//! command dispatch that primary and replica share.
//!
//! A connection is a read-line → parse → dispatch → `ok`/`err` loop over
//! the endpoint's [`Published`] snapshot. What a command means is
//! [`ivme_cli::session`]'s business; this module decides only where it
//! runs. Reads ([`execute_read`]) never leave the lock-free path; where a
//! state-changing verb goes is decided by the [`WriteSink`] alone — a
//! primary submits it to the group-commit writer and waits for the ack, a
//! replica answers with a redirect naming its primary. Nothing else
//! differs between the roles.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::JoinHandle;

use ivme_cli::proto::{self, Command};
use ivme_cli::session::{Applied, ReadView, Staging, Step};
use ivme_data::Tuple;

use crate::publish::{Cached, Published, Status};
use crate::writer::{call, Request};

/// Upper bound on one client command line, newline included. Far above
/// any real command; a client that streams past it without a newline is
/// answered `err line too long` and disconnected, so a connection's read
/// buffer is bounded no matter what the peer sends.
pub const MAX_LINE: usize = 1 << 20;

/// Upper bound on connections served at once, one thread each: the accept
/// loop answers the next one `err too many connections` and closes it
/// without spawning.
pub const MAX_CONNECTIONS: usize = 1024;

/// Admission control: whether one more connection may be served while
/// `live` are open.
fn admits(live: usize) -> bool {
    live < MAX_CONNECTIONS
}

/// Reads one line into `line`, at most [`MAX_LINE`] bytes of it, so no
/// socket — client or replication — can grow a read buffer without
/// limit. `Ok(None)` when the peer streamed past the bound without a
/// newline (every caller then drops it), `Ok(Some(0))` at EOF.
pub(crate) fn read_bounded_line(
    reader: &mut impl BufRead,
    line: &mut String,
) -> io::Result<Option<usize>> {
    line.clear();
    let n = reader.by_ref().take(MAX_LINE as u64).read_line(line)?;
    Ok((n < MAX_LINE || line.ends_with('\n')).then_some(n))
}

/// The immutable state a read command dispatches against: the frozen
/// [`ReadView`] plus this process's [`Status`], which `stats` samples at
/// read time. A connection's command sees exactly one `ServeSnapshot`;
/// the writer publishing a newer one never mutates an old one, so a read
/// mid-enumeration can never observe a torn batch.
pub struct ServeSnapshot {
    pub(crate) read: ReadView,
    pub(crate) status: Arc<Status>,
}

/// What a serving listener shares with its connections: the published
/// snapshot cell, the process's [`Status`], and the flag + address that
/// stop the accept loop.
pub(crate) struct Endpoint {
    addr: SocketAddr,
    pub(crate) published: Published<ServeSnapshot>,
    closed: AtomicBool,
    pub(crate) status: Arc<Status>,
}

impl Endpoint {
    pub(crate) fn new(addr: SocketAddr, status: Arc<Status>, read: ReadView) -> Endpoint {
        let initial = ServeSnapshot {
            read,
            status: Arc::clone(&status),
        };
        Endpoint {
            addr,
            published: Published::new(initial),
            closed: AtomicBool::new(false),
            status,
        }
    }

    /// Publishes `read` as the current [`ServeSnapshot`] — the one place a
    /// snapshot is built for publishing: every writer round and the
    /// replica's apply thread go through it.
    pub(crate) fn publish(&self, read: ReadView) {
        let status = Arc::clone(&self.status);
        self.published.publish(ServeSnapshot { read, status });
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Stops accepting (idempotent): raises the flag, then wakes the
    /// blocking `accept` with a throwaway connection so the loop sees it.
    /// Open connections keep being served until their clients leave.
    pub(crate) fn close(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// Where a connection's state-changing verbs go — the only thing that
/// differs between serving as a primary and serving as a replica.
#[derive(Clone)]
pub(crate) enum WriteSink {
    /// Primary: submit to the group-commit writer and wait for the ack.
    Writer(SyncSender<Request>),
    /// Replica: refuse, naming the primary's address.
    Redirect(String),
}

impl WriteSink {
    /// The writer channel every write, admin and `.batch` verb needs — or
    /// the redirect all of them answer on a replica. Checked before the
    /// verb does anything, so a replica never opens a `.batch`, never
    /// reads a CSV, and can accumulate no per-connection write state.
    fn writer(&self) -> Result<&SyncSender<Request>, String> {
        match self {
            WriteSink::Writer(tx) => Ok(tx),
            WriteSink::Redirect(primary) => Err(format!(
                "read-only replica: writes and admin commands must go to the primary at {primary}"
            )),
        }
    }

    /// `shutdown` is routed per role: a primary runs the writer's clean
    /// shutdown sequence; a replica has nothing to persist and just stops
    /// accepting.
    fn shutdown(&self, endpoint: &Endpoint) -> Result<String, String> {
        match self {
            WriteSink::Writer(tx) => call(tx, |ack| Request::Shutdown { ack }),
            WriteSink::Redirect(_) => {
                endpoint.close();
                Ok("replica shutting down\n".to_owned())
            }
        }
    }
}

/// Spawns the accept loop: one `ivme-conn` thread per admitted client (at
/// most [`MAX_CONNECTIONS`] at once), each running [`serve_connection`]
/// with its own clone of `sink`.
pub(crate) fn spawn_accept_loop(
    listener: TcpListener,
    endpoint: Arc<Endpoint>,
    sink: WriteSink,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("ivme-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if endpoint.is_closed() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Only this thread raises `live`, so the check cannot be
                // overtaken by another admission.
                let status = &endpoint.status;
                if !admits(status.live.load(Ordering::Relaxed)) {
                    let _ = proto::write_err(&mut &stream, "too many connections");
                    continue;
                }
                status.live.fetch_add(1, Ordering::Relaxed);
                status.connections.fetch_add(1, Ordering::Relaxed);
                let conn_endpoint = Arc::clone(&endpoint);
                let sink = sink.clone();
                let spawned =
                    std::thread::Builder::new()
                        .name("ivme-conn".into())
                        .spawn(move || {
                            let _ = serve_connection(stream, &conn_endpoint, &sink);
                            conn_endpoint.status.live.fetch_sub(1, Ordering::Relaxed);
                        });
                if spawned.is_err() {
                    status.live.fetch_sub(1, Ordering::Relaxed);
                }
            }
            // `sink` drops here (and per-connection clones as clients
            // leave); a primary's writer thread exits when the channel
            // has no senders left.
        })
}

/// Borrowing parse of an `insert`/`delete` line for the staging hot path:
/// `Some((relation, tuple-or-parse-error, ±1))` when the line is an update
/// command, `None` for anything else (which then goes through
/// [`proto::parse_command`] as usual).
fn parse_staged_update(line: &str) -> Option<(&str, Result<Tuple, String>, i64)> {
    let line = line.trim();
    let (verb, rest) = line.split_once(char::is_whitespace)?;
    let delta = match verb {
        "insert" => 1,
        "delete" => -1,
        _ => return None,
    };
    let (rel, csv) = rest.trim().split_once(char::is_whitespace)?;
    Some((rel, proto::parse_tuple(csv), delta))
}

fn serve_connection(stream: TcpStream, endpoint: &Endpoint, sink: &WriteSink) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // Per-connection `.batch` staging area — the shell's type. Only a
    // `Writer` sink ever opens one.
    let mut pending = Staging::default();
    // Per-connection snapshot handle: refreshed (one atomic load) per
    // read command, re-cloned only when a newer snapshot was published.
    let mut cache = endpoint.published.cache();
    let mut line = String::new();
    loop {
        // Flush buffered responses before a read that could block: a
        // pipelining client gets its acks in one burst once the server
        // catches up, a closed-loop client gets each ack immediately.
        if reader.buffer().is_empty() {
            writer.flush()?;
        }
        let Some(n) = read_bounded_line(&mut reader, &mut line)? else {
            proto::write_err(&mut writer, "line too long")?;
            break;
        };
        if n == 0 {
            break;
        }
        // Hot path for batch staging: while a `.batch` is open, an
        // `insert`/`delete` line goes straight into the pending batch
        // without allocating a `Command` (its owned relation string) or
        // formatting the interactive staging message — submitting a batch
        // of k updates is k pipelined lines, and this path is what keeps
        // group-commit throughput within reach of raw `apply_delta_batch`.
        // Semantics are identical to the `Command::Update` route below
        // (same `parse_tuple`, same staging, same empty ack).
        if let Some(batch) = pending.open_mut() {
            if let Some((rel, tuple, delta)) = parse_staged_update(&line) {
                match tuple {
                    Ok(t) => {
                        batch.push(rel, t, delta);
                        proto::write_ok(&mut writer, "")?;
                    }
                    Err(e) => proto::write_err(&mut writer, &e)?,
                }
                continue;
            }
        }
        let cmd = match proto::parse_command(&line) {
            Ok(Some(c)) => c,
            Ok(None) => {
                proto::write_ok(&mut writer, "")?;
                continue;
            }
            Err(e) => {
                proto::write_err(&mut writer, &e)?;
                continue;
            }
        };
        // `quit` ends the connection; so does the `shutdown` a replica
        // answers itself (a primary's connection outlives its shutdown
        // ack, as it always has).
        let last = match cmd {
            Command::Quit => true,
            Command::Shutdown => matches!(sink, WriteSink::Redirect(_)),
            _ => false,
        };
        match execute(cmd, endpoint, &mut cache, sink, &mut pending) {
            Ok(out) => proto::write_ok(&mut writer, &out)?,
            Err(e) => proto::write_err(&mut writer, &e)?,
        }
        if last {
            break;
        }
    }
    writer.flush()
}

/// Executes one command. Reads refresh the connection's snapshot handle
/// and dispatch lock-free through [`execute_read`]; everything that
/// changes state goes where the sink says: admin ops and every batch a
/// write verb makes due ride the writer channel and wait for the ack.
fn execute(
    cmd: Command,
    endpoint: &Endpoint,
    cache: &mut Cached<ServeSnapshot>,
    sink: &WriteSink,
    pending: &mut Staging,
) -> Result<String, String> {
    // File I/O on the connection thread — the server reads its own disk;
    // only the parsed rows travel to the writer. A replica redirects
    // before it opens anything.
    let load_csv = |path: &str| sink.writer().and_then(|_| proto::load_csv(path));
    match Step::of(cmd, load_csv)? {
        Step::Quit => Ok(proto::BYE.to_owned()),
        Step::Help => Ok(proto::HELP.to_owned()),
        Step::Shutdown => sink.shutdown(endpoint),
        Step::Read(cmd) => execute_read(cmd, endpoint.published.refresh(cache)),
        Step::Admin(op) => call(sink.writer()?, |ack| Request::Admin { op, ack }),
        Step::Write(write) => {
            let tx = sink.writer()?;
            let built = endpoint.published.refresh(cache).read.view.is_some();
            pending.execute(write, built, |batch| {
                let info = call(tx, |ack| Request::Batch { batch, ack })?;
                Ok(Applied {
                    secs: info.apply_micros as f64 / 1e6,
                    group: Some(info.group),
                })
            })
        }
    }
}

/// Executes one read command against an immutable [`ServeSnapshot`]:
/// [`ReadView::execute`] — the dispatch and the formatting the REPL uses,
/// so shell transcripts and server transcripts stay byte-identical — plus
/// the durability and replication lines this process appends to `stats`.
///
/// This is the whole read path, and its signature is the lock-freedom
/// proof: it sees `&ServeSnapshot` — no `RwLock`, no `Mutex`, no channel,
/// not even the [`Server`](crate::Server) — so a read command cannot
/// acquire a lock no matter what the rest of the crate does.
pub fn execute_read(cmd: Command, snap: &ServeSnapshot) -> Result<String, String> {
    let stats = matches!(cmd, Command::Stats);
    let mut out = snap.read.execute(cmd)?;
    if stats {
        snap.status.stats_lines(&mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use ivme_core::{Database, EngineOptions, Mode, ShardedEngine};

    use super::*;

    #[test]
    fn read_dispatch_needs_only_an_immutable_snapshot() {
        // The acceptance check for "no lock acquisition on the read
        // path": build a ServeSnapshot by hand — no server, no channel,
        // no lock — then run every read command through the exact
        // dispatch function the connection threads use. After `drop(eng)`
        // the engine (and its merge cache) is gone; the snapshot keeps
        // serving from the `Arc`s it holds.
        let mut db = Database::new();
        db.insert("R", Tuple::ints(&[1, 10]), 1);
        db.insert("R", Tuple::ints(&[2, 10]), 1);
        db.insert("S", Tuple::ints(&[10, 5]), 1);
        let q = ivme_query::parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
        let mut eng = ShardedEngine::new(&q, &db, EngineOptions::dynamic(0.5), 2).unwrap();
        let snap = ServeSnapshot {
            read: ReadView {
                query: Some(q),
                mode: Mode::Dynamic,
                view: Some(eng.snapshot(3)),
            },
            status: Arc::default(),
        };
        drop(eng);
        assert_eq!(execute_read(Command::Count, &snap).unwrap(), "2\n");
        let list = execute_read(Command::List { limit: 10 }, &snap).unwrap();
        assert!(list.contains("(2 tuples)"), "{list}");
        assert_eq!(
            execute_read(Command::Get(Tuple::ints(&[1, 5])), &snap).unwrap(),
            "(1, 5) x1\n"
        );
        let page = execute_read(
            Command::Page {
                offset: 0,
                limit: 1,
            },
            &snap,
        )
        .unwrap();
        assert!(page.contains("(1 tuples at offset 0)"), "{page}");
        let stats = execute_read(Command::Stats, &snap).unwrap();
        assert!(stats.contains("snapshot_epoch = 3"), "{stats}");
        assert!(execute_read(Command::Classify, &snap).is_ok());
        assert!(execute_read(Command::Plan, &snap).is_ok());
        assert!(execute_read(Command::Build, &snap).is_err());
        // Sharing snapshots across connection threads needs no lock
        // wrapper — checked at compile time.
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeSnapshot>();
        assert_send_sync::<Published<ServeSnapshot>>();
    }

    #[test]
    fn admission_stops_exactly_at_the_bound() {
        assert!(admits(0));
        assert!(admits(MAX_CONNECTIONS - 1));
        assert!(!admits(MAX_CONNECTIONS));
        assert!(!admits(usize::MAX));
    }
}
