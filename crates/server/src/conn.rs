//! The one serving path: the accept loop, the connection loop and the
//! command dispatch that primary and replica share. The accept loop is
//! also the replication listener's: every socket this process accepts is
//! admitted under the same bound.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::JoinHandle;

use ivme_cli::proto::{self, Command};
use ivme_cli::session::{ReadView, Staging, Step};
use ivme_data::Tuple;

use crate::publish::{Cached, Published, Status};
use crate::writer::{call, Request};

/// Upper bound on one client command line, newline included. Far above
/// any real command; a client that streams past it without a newline is
/// answered `err line too long` and disconnected, so a connection's read
/// buffer is bounded no matter what the peer sends.
pub const MAX_LINE: usize = 1 << 20;

/// Upper bound on connections one listener serves at once, one thread
/// each: the accept loop answers the next one `err too many connections`
/// and closes it without spawning.
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
    /// replica's follower thread go through it.
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

/// The process's one accept loop, behind both listeners — clients and
/// replication followers. A `{name}-accept` thread accepts until `closed`
/// says so (checked after every accept, so a throwaway connection wakes
/// it) and runs `serve` on one `name` thread per admitted peer. `live`
/// counts this listener's peers: at [`MAX_CONNECTIONS`] the next one is
/// answered `err too many connections` and closed without a thread. The
/// counter is the loop's own — every caller passes a fresh
/// `Arc::default()` and never reads it; it is a parameter only so a test
/// can start a loop that is already full.
pub(crate) fn spawn_accept_loop(
    name: &str,
    listener: TcpListener,
    closed: impl Fn() -> bool + Send + 'static,
    live: Arc<AtomicUsize>,
    serve: impl Fn(TcpStream) + Clone + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    let peer_name = name.to_owned();
    std::thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || {
            for stream in listener.incoming() {
                if closed() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Only this thread raises `live`, so the check cannot be
                // overtaken by another admission.
                if !admits(live.load(Ordering::Relaxed)) {
                    let _ = proto::write_err(&mut &stream, "too many connections");
                    continue;
                }
                live.fetch_add(1, Ordering::Relaxed);
                let (peer_live, serve) = (Arc::clone(&live), serve.clone());
                let spawned =
                    std::thread::Builder::new()
                        .name(peer_name.clone())
                        .spawn(move || {
                            serve(stream);
                            peer_live.fetch_sub(1, Ordering::Relaxed);
                        });
                if spawned.is_err() {
                    live.fetch_sub(1, Ordering::Relaxed);
                }
            }
        })
}

/// Serves clients on `listener`: [`serve_connection`] per admitted
/// client, each with its own clone of `sink`. The loop's copy of `sink`
/// drops when it stops and the clones as clients leave; a primary's
/// writer thread exits once its channel has no senders left.
pub(crate) fn serve_clients(
    listener: TcpListener,
    endpoint: Arc<Endpoint>,
    sink: WriteSink,
) -> io::Result<JoinHandle<()>> {
    let closing = Arc::clone(&endpoint);
    spawn_accept_loop(
        "ivme-conn",
        listener,
        move || closing.is_closed(),
        Arc::default(),
        move |stream| {
            endpoint.status.connections.fetch_add(1, Ordering::Relaxed);
            let _ = serve_connection(stream, &endpoint, &sink);
        },
    )
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
    // Per-connection snapshot handle: taken at the first read, refreshed
    // (one atomic load) per read command, re-cloned only when a newer
    // snapshot was published, and let go by a write, so a connection that
    // writes pins no snapshot older than its own writes.
    let mut cache = None;
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
/// write verb makes due — `load`'s too — ride the writer channel and wait
/// for the ack.
fn execute(
    cmd: Command,
    endpoint: &Endpoint,
    cache: &mut Option<Cached<ServeSnapshot>>,
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
        Step::Read(cmd) => {
            let cache = cache.get_or_insert_with(|| endpoint.published.cache());
            execute_read(cmd, endpoint.published.refresh(cache))
        }
        Step::Admin(op) => call(sink.writer()?, |ack| Request::Admin { op, ack }),
        Step::Write(write) => {
            *cache = None;
            let tx = sink.writer()?;
            pending.execute(write, |batch| call(tx, |ack| Request::Batch { batch, ack }))
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
        snap.status.stats_lines(snap.read.epoch, &mut out);
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
                epoch: 3,
                store: Vec::new(),
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

    #[test]
    fn a_full_accept_loop_answers_err_and_spawns_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let closed = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(MAX_CONNECTIONS));
        let (served, served_rx) = std::sync::mpsc::channel();
        let handle = spawn_accept_loop(
            "ivme-test",
            listener,
            {
                let closed = Arc::clone(&closed);
                move || closed.load(Ordering::SeqCst)
            },
            Arc::clone(&live),
            move |_stream| served.send(()).unwrap(),
        )
        .unwrap();
        let mut reply = String::new();
        TcpStream::connect(addr)
            .unwrap()
            .read_to_string(&mut reply)
            .unwrap();
        assert_eq!(reply, "err too many connections\n");
        assert_eq!(live.load(Ordering::SeqCst), MAX_CONNECTIONS);
        assert!(served_rx.try_recv().is_err(), "a refused peer got a thread");
        // One slot frees up: the next peer is served.
        live.store(MAX_CONNECTIONS - 1, Ordering::SeqCst);
        let _peer = TcpStream::connect(addr).unwrap();
        served_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap();
        closed.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        handle.join().unwrap();
    }
}
