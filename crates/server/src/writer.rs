//! The group-commit writer: sole owner of the mutable engine.
//!
//! [`OwnedState`] is the single-owner state — a primary's writer thread
//! owns one, and so does a replica's follower thread; what it publishes goes
//! through `Endpoint::publish` (`conn`) and what it replays through
//! [`OwnedState::apply_round`] (`recovery`). [`writer_loop`] drains the
//! request channel into rounds; `process_round` applies each request on
//! its own, in arrival order (a client batch commits or is rejected
//! exactly as it would alone), hands the round's frames to the log
//! (`frames`), publishes once, then hands the log
//! the round's held-back acks (`acks`) — so the fsync runs while the
//! round is frozen and published. `checkpoint` hands a captured state to
//! the snapshot thread, and `flush` drains both lanes at shutdown. One
//! failure rule: once the log has failed
//! (`WalPipeline::lost`), every write is refused before it touches the
//! session — see [`crate::wal`].

use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::time::Instant;

use ivme_cli::proto;
use ivme_cli::session::{AdminOp, Applied, Session};
use ivme_core::{DeltaBatch, ShardedEngine};

use crate::conn::Endpoint;
use crate::publish::Status;
use crate::snapshot::{SnapshotData, SnapshotWorker};
use crate::wal::WalPipeline;

/// The writer thread's private, single-owner mutable state. Nothing else
/// in the process can reach it — the rest of the server only ever sees
/// the snapshots it publishes.
#[derive(Default)]
pub(crate) struct OwnedState {
    /// The engine and its configuration, behind the interpreter the
    /// shell runs the same commands through.
    pub(crate) session: Session,
    /// Epoch of the last published snapshot.
    pub(crate) epoch: u64,
    /// Durability machinery — `None` when serving memory-only.
    pub(crate) dur: Option<Durability>,
}

/// The writer thread's handles into the durability lane. The open
/// [`crate::wal::Wal`] itself lives on the sync thread; the snapshot serializer
/// lives on its own thread; the writer only hands jobs over.
pub(crate) struct Durability {
    /// Field order is drop order, and it matters: the snapshot worker
    /// holds a sender into the WAL queue (it may still emit a `Rotate`),
    /// so it must drain and join *before* the pipeline does.
    pub(crate) snap: SnapshotWorker,
    pub(crate) pipeline: WalPipeline,
    pub(crate) snapshot_every: u64,
    /// Rounds handed to the log since the last checkpoint was dispatched
    /// (drives the cadence).
    pub(crate) rounds_since_snapshot: u64,
}

impl OwnedState {
    /// Hands a checkpoint of the current state to the snapshot thread.
    /// The writer's only cost is capturing [`SnapshotData`] (a structured
    /// clone — no serialization, no I/O). With `wait` (clean shutdown) it
    /// returns once the install attempt — and, the queue being FIFO,
    /// every earlier one — has finished, and says whether it landed;
    /// without, whether a checkpoint was handed over.
    fn checkpoint(&mut self, status: &Status, wait: bool) -> bool {
        let Some(d) = self.dur.as_mut().filter(|d| !d.pipeline.lost()) else {
            return false;
        };
        let data = snapshot_data(&self.session, self.epoch, status);
        let (done, done_rx) = mpsc::channel();
        if !d.snap.submit(data, wait.then_some(done)) {
            eprintln!("ivme-server: warning: the snapshot thread is gone; no checkpoint taken");
            return false;
        }
        d.rounds_since_snapshot = 0;
        !wait || done_rx.recv().unwrap_or(false)
    }
}

/// Captures the full state (config, the row store, the engine's base
/// relations, cumulative counters) as serializable [`SnapshotData`]. Each
/// row is in exactly one of `staged` and `base`.
fn snapshot_data(s: &Session, epoch: u64, status: &Status) -> SnapshotData {
    let st = s.engine().map(ShardedEngine::stats).unwrap_or_default();
    let c = status.serve_stats();
    SnapshotData {
        epoch,
        engine_stats: (st.updates, st.batches),
        serve_stats: (c.group_commits, c.grouped_batches),
        epsilon: s.options().epsilon,
        mode: s.options().mode,
        query: s.query().map(|q| q.to_string()),
        built: s.is_built(),
        staged: s.staged().clone(),
        base: s
            .engine()
            .map(ShardedEngine::export_database)
            .unwrap_or_default(),
    }
}

/// One submission into the writer channel.
pub(crate) enum Request {
    /// A consolidated update batch and the channel to ack on.
    Batch {
        batch: DeltaBatch,
        ack: mpsc::Sender<WriteAck>,
    },
    /// An admin operation and the channel its response rides back on.
    Admin {
        op: AdminOp,
        ack: mpsc::Sender<Result<String, String>>,
    },
    /// A clean-shutdown request: the writer finishes the round, drains
    /// what is still queued, fsyncs the WAL, writes a final snapshot,
    /// stops the accept loop, and only then acks — nothing submitted
    /// before the ack is lost.
    Shutdown {
        ack: mpsc::Sender<Result<String, String>>,
    },
}

/// Submits one request to the writer thread and waits for its answer on
/// the ack channel `request` embeds. A full queue blocks (back-pressure)
/// without busy-waiting; sending or receiving only fails when the writer
/// thread is gone, which means shutdown.
pub(crate) fn call<T>(
    tx: &SyncSender<Request>,
    request: impl FnOnce(mpsc::Sender<Result<T, String>>) -> Request,
) -> Result<T, String> {
    let gone = || "server is shutting down".to_owned();
    let (ack_tx, ack_rx) = mpsc::channel();
    match tx.try_send(request(ack_tx)) {
        Ok(()) => {}
        Err(TrySendError::Full(req)) => tx.send(req).map_err(|_| gone())?,
        Err(TrySendError::Disconnected(_)) => return Err(gone()),
    }
    ack_rx.recv().map_err(|_| gone())?
}

/// What the writer thread reports back per submitted batch: its own
/// apply time, and the client batches submitted in its round as `group`.
pub(crate) type WriteAck = Result<Applied, String>;

/// An ack the writer holds back until after the publish, so a client that
/// sees its response is guaranteed to read its own write.
enum PendingAck {
    Write(mpsc::Sender<WriteAck>, WriteAck),
    Admin(mpsc::Sender<Result<String, String>>, Result<String, String>),
}

// ----------------------------------------------------------------------
// Group-commit writer: sole owner of the engine, publisher of snapshots
// ----------------------------------------------------------------------

/// Bounded depth of the write-submission channel: back-pressure for
/// writers when the group-commit thread falls behind.
pub(crate) const QUEUE_DEPTH: usize = 128;

/// Maximum client requests drained into one writer round.
const GROUP_LIMIT: usize = 64;

/// What a write answers once durability is lost (see [`crate::wal`]):
/// refused up front, or released by a log that could not make it durable.
const LOST: &str =
    "durability lost: the write-ahead log failed and nothing more can be made durable; \
     restart the server";

pub(crate) fn writer_loop(rx: Receiver<Request>, endpoint: &Endpoint, mut state: OwnedState) {
    while let Ok(first) = rx.recv() {
        let mut reqs = vec![first];
        while reqs.len() < GROUP_LIMIT {
            match rx.try_recv() {
                Ok(r) => reqs.push(r),
                Err(_) => break,
            }
        }
        let mut shutdown_acks = process_round(reqs, &mut state, endpoint);
        if shutdown_acks.is_empty() {
            continue;
        }
        // ---- clean shutdown ----
        // Drain and commit whatever else was already queued: a request
        // submitted before the shutdown ack is never dropped on the floor.
        let mut rest = Vec::new();
        while let Ok(r) = rx.try_recv() {
            rest.push(r);
        }
        if !rest.is_empty() {
            shutdown_acks.extend(process_round(rest, &mut state, endpoint));
        }
        // Drain the background lanes in dependency order: the final
        // checkpoint (behind any still in flight) installs and queues its
        // rotation, then the WAL queue processes every pending commit,
        // the rotations, and a final fsync.
        let landed = state.checkpoint(&endpoint.status, true);
        let persisted = state
            .dur
            .as_ref()
            .map(|d| d.pipeline.flush() && !d.pipeline.lost());
        let msg = match (persisted, landed) {
            (None, _) => "shutting down: channel drained (no data dir — nothing persisted)\n",
            (Some(true), true) => {
                "shutting down: channel drained, WAL synced, final snapshot written\n"
            }
            (Some(true), false) => {
                "shutting down: channel drained, WAL synced; the final checkpoint failed, so \
                 the next boot replays the WAL\n"
            }
            (Some(false), _) => "shutting down: durability was lost — no final snapshot\n",
        };
        endpoint.close();
        for ack in shutdown_acks {
            let _ = ack.send(Ok(msg.to_owned()));
        }
        break;
        // Exiting without a shutdown request (channel closed: the Server
        // and every connection are gone) is the abrupt path — no final
        // snapshot, deliberately. Committed rounds are already durable in
        // the WAL; writing a snapshot here would also make in-process
        // "kill" tests meaninglessly gentle.
    }
}

/// One writer round: applies the drained requests one at a time, in
/// arrival order — each client batch commits or is rejected exactly as it
/// would alone, and is never netted against another — then hands the
/// round's WAL frames to the log, publishes the new snapshot, hands the
/// log the held-back acks, and checks the checkpoint cadence. What the
/// round shares is that one publish and one fsync. Shutdown requests
/// found in the round are returned to the caller ([`writer_loop`] runs
/// the shutdown sequence).
fn process_round(
    reqs: Vec<Request>,
    state: &mut OwnedState,
    endpoint: &Endpoint,
) -> Vec<mpsc::Sender<Result<String, String>>> {
    let status = &*endpoint.status;
    let group = reqs
        .iter()
        .filter(|r| matches!(r, Request::Batch { .. }))
        .count();
    let mut acks: Vec<PendingAck> = Vec::with_capacity(reqs.len());
    let mut shutdown_acks = Vec::new();
    let mut round = Round {
        changed: false,
        frames: state.dur.is_some().then(Vec::new),
    };
    let mut batches = 0u64;
    // The failure rule: once the log has failed, every write is refused
    // before it touches the session.
    let lost = state.dur.as_ref().is_some_and(|d| d.pipeline.lost());
    for req in reqs {
        match req {
            Request::Batch { ack, .. } if lost => {
                acks.push(PendingAck::Write(ack, Err(LOST.to_owned())));
            }
            Request::Admin { ack, .. } if lost => {
                acks.push(PendingAck::Admin(ack, Err(LOST.to_owned())));
            }
            Request::Batch { batch, ack } => {
                // A rejected batch leaves the engine unchanged; a
                // committed one is one WAL frame.
                let t0 = Instant::now();
                let res = state.session.apply(&batch).map(|()| {
                    let secs = t0.elapsed().as_secs_f64();
                    round.committed(|| proto::batch_lines(&batch));
                    batches += 1;
                    Applied {
                        secs,
                        group: Some(group),
                    }
                });
                acks.push(PendingAck::Write(ack, res));
            }
            Request::Admin { op, ack } => {
                // Capture the replay text before `admin` consumes the op
                // (`Some` exactly when `committed` will ask for it); it
                // becomes a WAL frame only if the op succeeds.
                let text = round.frames.is_some().then(|| op.wal_text());
                let res = state.session.admin(op);
                if res.is_ok() {
                    round.committed(|| text.unwrap_or_default());
                }
                acks.push(PendingAck::Admin(ack, res));
            }
            Request::Shutdown { ack } => shutdown_acks.push(ack),
        }
    }
    if batches > 0 {
        status.group_commits.fetch_add(1, Ordering::Relaxed);
        status.grouped_batches.fetch_add(batches, Ordering::Relaxed);
    }
    // Hand the round's frames to the sync thread, publish, then hand it
    // the acks — in that order. The frames go first so their append and
    // fsync overlap the freeze and publish; the acks go after the publish,
    // which is the read-your-writes promise, and the sync thread runs them
    // only after the fsync, which is the durability promise. The writer is
    // then free to apply the next round while this one's fsync is in
    // flight. Rejected-only rounds publish (and log) nothing — readers
    // cannot tell a rejection happened.
    if round.changed {
        let epoch = state.epoch + 1;
        if let (Some(d), Some(frames)) = (&state.dur, round.frames) {
            d.pipeline.frames(epoch, frames);
        }
        endpoint.publish(state.session.read_view(epoch));
        state.epoch = epoch;
        status.snapshots_published.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = state.dur.as_mut() {
            // Logged rounds ack from the sync thread, after their fsync.
            let pending = std::mem::take(&mut acks);
            let release = Box::new(move |durable| release_acks(pending, durable));
            if d.pipeline.acks(epoch, release) {
                d.rounds_since_snapshot += 1;
            }
        }
    }
    // What was not handed to the log acks here.
    release_acks(acks, true);
    // Checkpoint cadence runs after the hand-off: the WAL queue already
    // holds everything a crash needs, so the snapshot is off the ack
    // path. One still in flight just postpones the next.
    let due = |d: &Durability| {
        d.snapshot_every > 0 && d.rounds_since_snapshot >= d.snapshot_every && !d.snap.busy()
    };
    if state.dur.as_ref().is_some_and(due) {
        state.checkpoint(status, false);
    }
    shutdown_acks
}

/// What a writer round has committed so far.
struct Round {
    /// Whether any unit committed, i.e. the round changed the state.
    changed: bool,
    /// One WAL frame per committed unit. `None` on a memory-only server:
    /// without a log nobody reads the text, so none is rendered.
    frames: Option<Vec<String>>,
}

impl Round {
    /// Records one committed unit, rendering its replay `text` only for a
    /// log.
    fn committed(&mut self, text: impl FnOnce() -> String) {
        self.changed = true;
        if let Some(frames) = &mut self.frames {
            frames.push(text());
        }
    }
}

/// Fans a round's held-back acks out to their waiting clients. A round
/// the log could not make `durable` answers [`LOST`] instead: it is
/// published but unacked, which a crash may take.
fn release_acks(acks: Vec<PendingAck>, durable: bool) {
    fn send<T>(tx: mpsc::Sender<Result<T, String>>, res: Result<T, String>, durable: bool) {
        let _ = tx.send(if durable { res } else { Err(LOST.to_owned()) });
    }
    for ack in acks {
        match ack {
            PendingAck::Write(tx, res) => send(tx, res, durable),
            PendingAck::Admin(tx, res) => send(tx, res, durable),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ivme_cli::proto::Command;
    use ivme_data::Tuple;

    use super::*;
    use crate::conn::execute_read;
    use crate::publish::DurTracker;
    use crate::wal::{self, FsyncMode, Wal};

    /// One client batch of `(relation, tuple, delta)` updates.
    fn batch(updates: &[(&str, [i64; 2], i64)]) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        for (rel, t, d) in updates {
            b.push(rel, Tuple::ints(t), *d);
        }
        b
    }

    /// What one writer round made of some client batches.
    struct Outcome {
        answers: Vec<WriteAck>,
        count: String,
        epoch: u64,
        /// The frames the round logged, read back from `wal.log`.
        frames: Vec<String>,
    }

    /// Submits `batches` as one writer round to a built state over
    /// `Q(A,C) :- R(A,B), S(B,C)` with `S = {(10, 5)}` and `R` empty,
    /// logging under `--fsync group` to a fresh directory.
    fn one_round(name: &str, batches: Vec<DeltaBatch>) -> Outcome {
        let dir = std::env::temp_dir().join(format!("ivme_writer_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut state = OwnedState::default();
        let q = ivme_query::parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
        state.session.admin(AdminOp::Query(q)).unwrap();
        state.session.apply(&batch(&[("S", [10, 5], 1)])).unwrap();
        state.session.admin(AdminOp::Build).unwrap();
        let tracker = Arc::new(DurTracker::new(0, 0, 0));
        let wal = Wal::create(&dir.join("wal.log"), 0).unwrap();
        let pipeline =
            WalPipeline::start(wal, FsyncMode::Group, Arc::clone(&tracker), None, None).unwrap();
        let snap = SnapshotWorker::start(dir.clone(), pipeline.sender(), tracker, None).unwrap();
        state.dur = Some(Durability {
            snap,
            pipeline,
            snapshot_every: 0,
            rounds_since_snapshot: 0,
        });
        let read = state.session.read_view(0);
        let endpoint = Endpoint::new("127.0.0.1:0".parse().unwrap(), Arc::default(), read);

        let (reqs, acks): (Vec<_>, Vec<_>) = batches
            .into_iter()
            .map(|batch| {
                let (ack, rx) = mpsc::channel();
                (Request::Batch { batch, ack }, rx)
            })
            .unzip();
        assert!(process_round(reqs, &mut state, &endpoint).is_empty());
        assert!(state.dur.as_ref().unwrap().pipeline.flush());
        let answers = acks.iter().map(|rx| rx.recv().unwrap()).collect();
        let count = execute_read(Command::Count, endpoint.published.cache().get()).unwrap();
        drop(state);
        let (_, frames) = wal::scan(&dir.join("wal.log")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        Outcome {
            answers,
            count,
            epoch: endpoint.published.epoch(),
            frames: frames.into_iter().map(|f| f.text).collect(),
        }
    }

    /// A captured state may repeat engine rows as row-store rows (the
    /// benchmark builds such a literal). The checkpoint writes the engine's
    /// copy alone, so the replay restores exactly the `base` state: the
    /// engine's relations come from `base` alone, the store keeps only the
    /// rows of relations the query does not name, and a later `build` —
    /// which rebuilds from the engine's own rows — keeps every write `base`
    /// holds.
    #[test]
    fn a_checkpoint_with_staged_rows_beside_base_restores_the_base_state() {
        let dir = std::env::temp_dir().join(format!("ivme_writer_{}_beside", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (mut staged, mut base) = (ivme_core::Database::new(), ivme_core::Database::new());
        for (rel, t) in [("R", &[1, 10][..]), ("S", &[10, 5]), ("T", &[7])] {
            staged.insert(rel, Tuple::ints(t), 1);
        }
        base.insert("R", Tuple::ints(&[1, 10]), 1);
        base.insert("R", Tuple::ints(&[2, 10]), 1);
        base.insert("S", Tuple::ints(&[10, 6]), 2);
        let data = SnapshotData {
            epoch: 4,
            engine_stats: (3, 2),
            serve_stats: (2, 2),
            query: Some("Q(A,C) :- R(A,B), S(B,C)".to_owned()),
            built: true,
            staged,
            base,
            ..SnapshotData::default()
        };
        crate::snapshot::write(&dir, &data).unwrap();
        let cp = crate::snapshot::load_latest(&dir).unwrap().0.unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let mut state = OwnedState::default();
        let frames = cp.frames.iter().map(String::as_str);
        state
            .apply_round(cp.epoch, frames, &Status::default())
            .unwrap();
        let store = state.session.staged();
        assert_eq!(store.relations(), ["T"]);
        assert_eq!(store.rows("T"), [(Tuple::ints(&[7]), 1)]);
        // The sorted result and the `stats` payload.
        let served = |state: &mut OwnedState| {
            let view = state.session.read_view(state.epoch);
            let list = view.execute(Command::List { limit: 10 }).unwrap();
            let mut rows: Vec<String> = list.lines().map(str::to_owned).collect();
            rows.sort_unstable();
            (rows, view.execute(Command::Stats).unwrap())
        };
        let (rows, stats) = served(&mut state);
        assert_eq!(rows, ["(1, 6) x2", "(2 tuples)", "(2, 6) x2"]);
        assert!(stats.contains("N = 3,"), "{stats}");
        assert!(stats.contains("updates = 3, batches = 2"), "{stats}");
        state.session.admin(AdminOp::Build).unwrap();
        assert_eq!(served(&mut state), (rows, stats));
    }

    fn rejected(answer: &WriteAck) -> bool {
        matches!(answer, Err(e) if e.contains("negative multiplicity"))
    }

    /// batch-isolation: each client batch of a round commits or is
    /// rejected exactly as it would be alone, in arrival order — never
    /// netted against another client's — and the round logs exactly the
    /// batches that committed.
    #[test]
    fn a_round_commits_each_client_batch_as_if_it_were_alone() {
        // (a) A delete of an absent tuple, then another client's insert of
        // it: in arrival order the delete drives R(1,10) below zero.
        let insert = batch(&[("R", [1, 10], 1)]);
        let logged = proto::batch_lines(&insert);
        let a = one_round("absent", vec![batch(&[("R", [1, 10], -1)]), insert]);
        assert!(rejected(&a.answers[0]), "{:?}", a.answers[0].as_ref().err());
        let applied = a.answers[1].as_ref().expect("the insert commits alone");
        assert_eq!(applied.group, Some(2), "the round's client batches");
        assert_eq!(a.count, "1\n");
        assert_eq!(a.epoch, 1);
        assert_eq!(a.frames, [logged]);

        // (b) A crossed pair on an empty R: each over-deletes what only
        // the other inserts, so both are rejected and nothing is published
        // or logged.
        let b = one_round(
            "crossed",
            vec![
                batch(&[("R", [1, 10], -1), ("R", [2, 10], 1)]),
                batch(&[("R", [1, 10], 1), ("R", [2, 10], -1)]),
            ],
        );
        assert!(
            b.answers.iter().all(rejected),
            "{:?}",
            b.answers
                .iter()
                .map(|a| a.as_ref().err())
                .collect::<Vec<_>>()
        );
        assert_eq!(b.count, "0\n");
        assert_eq!(b.epoch, 0);
        assert!(b.frames.is_empty(), "{:?}", b.frames);
    }
}
