//! The group-commit writer: sole owner of the mutable engine, publisher
//! of every [`ServeSnapshot`].
//!
//! [`OwnedState`] is the single-owner state — a primary's writer thread
//! owns one, and so does a replica's apply thread — and the two methods
//! everything else goes through are [`OwnedState::serve_snapshot`] (the
//! one place a snapshot is built for publishing) and
//! [`OwnedState::apply_round`] (the one WAL replay step, in `recovery`).
//! [`writer_loop`] drains the request channel into rounds;
//! `process_round` applies, publishes, hands the round's frames and acks
//! to the WAL pipeline, and dispatches background checkpoints.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

use ivme_cli::proto;
use ivme_cli::session::{AdminOp, Session, NOT_BUILT};
use ivme_core::{DeltaBatch, EngineOptions, ShardedEngine};

use crate::conn::{DurHandle, Endpoint, ReplRole, ServeSnapshot};
use crate::publish::DurTracker;
use crate::snapshot::{SnapshotData, SnapshotWorker};
use crate::wal::{self, WalPipeline};

/// State shared by the [`Server`](crate::Server) handle and the writer.
pub(crate) struct Shared {
    /// The serving listener's half: the writer publishes into it and
    /// closes it on clean shutdown.
    pub(crate) endpoint: Arc<Endpoint>,
    pub(crate) group_commits: AtomicU64,
    pub(crate) grouped_batches: AtomicU64,
    pub(crate) group_retries: AtomicU64,
    pub(crate) snapshots_published: AtomicU64,
}

/// The writer thread's private, single-owner mutable state. Nothing else
/// in the process can reach it — the rest of the server only ever sees
/// the [`ServeSnapshot`]s it publishes.
pub(crate) struct OwnedState {
    /// The engine and its configuration, behind the interpreter the
    /// shell runs the same commands through.
    pub(crate) session: Session,
    /// Epoch of the last published snapshot.
    pub(crate) epoch: u64,
    /// Durability machinery — `None` when serving memory-only.
    pub(crate) dur: Option<Durability>,
    /// Replication role — `Some` on a `--repl-listen` primary and on a
    /// replica; embedded in every published snapshot for `stats`.
    repl: Option<ReplRole>,
}

/// The writer thread's handles into the durability pipeline. The open
/// [`wal::Wal`] itself lives on the sync thread; the snapshot serializer lives
/// on its own thread; the writer only dispatches jobs and reads the
/// shared [`DurTracker`].
pub(crate) struct Durability {
    /// Field order is drop order, and it matters: the snapshot worker
    /// holds a sender into the WAL queue (it may still emit a `Rotate`),
    /// so it must drain and join *before* the pipeline does.
    pub(crate) snap: SnapshotWorker,
    pub(crate) pipeline: WalPipeline,
    /// Shared durability frontiers (inflight/durable epochs, broken flag).
    pub(crate) tracker: Arc<DurTracker>,
    pub(crate) snapshot_every: u64,
    /// Dirty rounds since the last snapshot (drives the cadence).
    pub(crate) rounds_since_snapshot: u64,
    /// Distinct commit rounds replayed at boot (reported in `stats`).
    pub(crate) recovered_groups: u64,
}

impl OwnedState {
    pub(crate) fn new(repl: Option<ReplRole>) -> OwnedState {
        OwnedState {
            session: Session::default(),
            epoch: 0,
            dur: None,
            repl,
        }
    }

    /// Freezes the current state as the [`ServeSnapshot`] to publish at
    /// `epoch` — the one place a snapshot is built: boot, every writer
    /// round and the replica's apply thread all publish through it.
    /// Readers sample the embedded durability and replication handles at
    /// `stats` time.
    pub(crate) fn serve_snapshot(&mut self, epoch: u64) -> ServeSnapshot {
        ServeSnapshot {
            read: self.session.read_view(epoch),
            dur: self.dur.as_ref().map(|d| DurHandle {
                tracker: Arc::clone(&d.tracker),
                recovered_groups: d.recovered_groups,
            }),
            repl: self.repl.clone(),
        }
    }

    /// Dispatches a background snapshot when the cadence says so. The
    /// writer's only cost is capturing [`SnapshotData`] (a structured
    /// clone — no serialization, no I/O); the `SnapshotStarted` marker
    /// sent down the WAL queue *before* the snapshot job makes the sync
    /// thread start buffering the tail frames the eventual rotation must
    /// preserve. At most one snapshot is in flight at a time — the
    /// cadence check just waits for the current one.
    fn maybe_dispatch_snapshot(&mut self, serve: (u64, u64, u64)) {
        let due = match self.dur.as_ref() {
            None => false,
            Some(d) => {
                !d.tracker.is_broken()
                    && !d.tracker.snapshot_in_progress()
                    && d.snapshot_every > 0
                    && d.rounds_since_snapshot >= d.snapshot_every
            }
        };
        if !due {
            return;
        }
        let data = self.snapshot_data(serve);
        let d = self.dur.as_mut().unwrap();
        d.tracker.begin_snapshot();
        if d.pipeline.send(wal::Job::SnapshotStarted).is_err() {
            d.tracker.end_snapshot();
            d.tracker.set_broken();
            eprintln!("ivme-server: WAL sync thread is gone; continuing WITHOUT durability");
            return;
        }
        if !d.snap.submit(data, None) {
            let _ = d.pipeline.send(wal::Job::SnapshotAborted);
            d.tracker.end_snapshot();
            d.tracker.set_broken();
            eprintln!("ivme-server: snapshot thread is gone; continuing WITHOUT durability");
            return;
        }
        d.rounds_since_snapshot = 0;
    }

    /// Clean-shutdown checkpoint: same dispatch as the background path,
    /// but waits for the install and the rotation to land before
    /// returning. Callers have already drained the snapshot and WAL
    /// queues, so at most this one snapshot is in flight.
    fn final_snapshot(&mut self, serve: (u64, u64, u64)) {
        let due = self.dur.as_ref().is_some_and(|d| !d.tracker.is_broken());
        if !due {
            return;
        }
        let data = self.snapshot_data(serve);
        let d = self.dur.as_mut().unwrap();
        d.tracker.begin_snapshot();
        let (done_tx, done_rx) = mpsc::channel();
        if d.pipeline.send(wal::Job::SnapshotStarted).is_err()
            || !d.snap.submit(data, Some(done_tx))
        {
            d.tracker.end_snapshot();
            return;
        }
        let _ = done_rx.recv();
        // The install queued a `Rotate`; flush so the rotation is on disk
        // before the shutdown ack promises "final snapshot written".
        d.pipeline.flush();
        d.rounds_since_snapshot = 0;
    }

    /// Captures the full state (config, staged rows, engine base
    /// relations, cumulative counters) as serializable [`SnapshotData`].
    fn snapshot_data(&self, serve: (u64, u64, u64)) -> SnapshotData {
        let s = &self.session;
        let engine_stats = s.engine().map_or((0, 0, 0), |e| {
            let st = e.stats();
            (st.updates, st.batches, st.misroutes)
        });
        SnapshotData {
            epoch: self.epoch,
            engine_stats,
            serve_stats: serve,
            epsilon: s.options().epsilon,
            mode: s.options().mode,
            shards: s.shards(),
            query: s.query().map(|q| q.to_string()),
            built: s.is_built(),
            staged: s.staged().clone(),
            base: s
                .engine()
                .map(ShardedEngine::export_database)
                .unwrap_or_default(),
        }
    }

    /// Rebuilds the writer state from a loaded snapshot — the inverse of
    /// [`OwnedState::snapshot_data`], through [`Session::restore`].
    pub(crate) fn restore(&mut self, snap: SnapshotData) -> Result<(), String> {
        let query = match &snap.query {
            None => None,
            Some(q) => Some(ivme_query::parse_query(q).map_err(|e| e.to_string())?),
        };
        self.session = Session::restore(
            query,
            EngineOptions {
                epsilon: snap.epsilon,
                mode: snap.mode,
            },
            snap.shards,
            snap.staged,
            snap.built.then_some((&snap.base, snap.engine_stats)),
        )?;
        self.epoch = snap.epoch;
        Ok(())
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

/// What the writer thread reports back per submitted batch.
pub(crate) type WriteAck = Result<GroupInfo, String>;

/// An ack the writer holds back until after the publish, so a client that
/// sees its response is guaranteed to read its own write.
enum PendingAck {
    Write(mpsc::Sender<WriteAck>, WriteAck),
    Admin(mpsc::Sender<Result<String, String>>, Result<String, String>),
}

/// Timing/shape of the group commit a batch rode in.
#[derive(Clone, Copy, Debug)]
pub struct GroupInfo {
    /// Client batches coalesced into the commit.
    pub group: usize,
    /// Wall time of the engine apply (the whole group's, not this batch's
    /// share).
    pub apply_micros: u128,
}

// ----------------------------------------------------------------------
// Group-commit writer: sole owner of the engine, publisher of snapshots
// ----------------------------------------------------------------------

/// Bounded depth of the write-submission channel: back-pressure for
/// writers when the group-commit thread falls behind.
pub(crate) const QUEUE_DEPTH: usize = 128;

/// Maximum client requests coalesced into one writer round.
const GROUP_LIMIT: usize = 64;

pub(crate) fn writer_loop(rx: Receiver<Request>, shared: Arc<Shared>, mut state: OwnedState) {
    while let Ok(first) = rx.recv() {
        let mut reqs = vec![first];
        while reqs.len() < GROUP_LIMIT {
            match rx.try_recv() {
                Ok(r) => reqs.push(r),
                Err(_) => break,
            }
        }
        let mut shutdown_acks = process_round(reqs, &mut state, &shared);
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
            shutdown_acks.extend(process_round(rest, &mut state, &shared));
        }
        if let Some(d) = state.dur.as_ref() {
            // Drain the background lanes in dependency order: any
            // in-flight snapshot installs (and queues its rotation), then
            // the WAL queue processes every pending commit, the rotation,
            // and a final fsync.
            d.snap.barrier();
            d.pipeline.flush();
        }
        state.final_snapshot(serve_counters(&shared));
        shared.endpoint.close();
        let msg = if state.dur.is_some() {
            "shutting down: channel drained, WAL synced, final snapshot written\n"
        } else {
            "shutting down: channel drained (no data dir — nothing persisted)\n"
        };
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

/// One writer round: processes the drained requests in arrival order —
/// maximal runs of consecutive batches become one group commit each,
/// admin ops are serialization points between runs — then persists the
/// round's WAL frames, publishes the new snapshot, and fans out the
/// held-back acks. Shutdown requests found in the round are returned to
/// the caller ([`writer_loop`] runs the shutdown sequence).
fn process_round(
    reqs: Vec<Request>,
    state: &mut OwnedState,
    shared: &Shared,
) -> Vec<mpsc::Sender<Result<String, String>>> {
    let mut acks: Vec<PendingAck> = Vec::with_capacity(reqs.len());
    let mut shutdown_acks = Vec::new();
    let mut dirty = false;
    let mut frames: Vec<String> = Vec::new();
    let mut run: Vec<(DeltaBatch, mpsc::Sender<WriteAck>)> = Vec::new();
    for req in reqs {
        match req {
            Request::Batch { batch, ack } => run.push((batch, ack)),
            Request::Admin { op, ack } => {
                commit_run(&mut run, state, shared, &mut acks, &mut dirty, &mut frames);
                // Capture the replay text before `admin` consumes the op;
                // it becomes a WAL frame only if the op succeeds.
                let text = op.wal_text();
                let res = state.session.admin(op);
                if res.is_ok() {
                    dirty = true;
                    frames.push(text);
                }
                acks.push(PendingAck::Admin(ack, res));
            }
            Request::Shutdown { ack } => shutdown_acks.push(ack),
        }
    }
    commit_run(&mut run, state, shared, &mut acks, &mut dirty, &mut frames);
    // Publish, then hand the round to the sync thread *with its acks* —
    // in that order. The publish before the hand-off is the
    // read-your-writes promise; the sync thread running the acks only
    // after the fsync is the durability promise. The writer is then free
    // to apply the next round while this one's fsync is in flight.
    // Rejected-only rounds publish (and log) nothing — readers cannot
    // tell a rejection happened.
    if dirty {
        let epoch = state.epoch + 1;
        let log = state
            .dur
            .as_ref()
            .is_some_and(|d| !d.tracker.is_broken() && !frames.is_empty());
        if log {
            // Advertise the new inflight frontier before the publish so
            // any read against the new snapshot already sees it.
            state.dur.as_ref().unwrap().tracker.set_inflight(epoch);
        }
        shared
            .endpoint
            .published
            .publish(state.serve_snapshot(epoch));
        state.epoch = epoch;
        shared.snapshots_published.fetch_add(1, Ordering::Relaxed);
        if log {
            let d = state.dur.as_mut().unwrap();
            let pending = std::mem::take(&mut acks);
            let release: wal::Release = Box::new(move || release_acks(pending));
            match d.pipeline.send(wal::Job::Commit {
                epoch,
                frames: std::mem::take(&mut frames),
                release,
            }) {
                Ok(()) => d.rounds_since_snapshot += 1,
                Err(job) => {
                    eprintln!(
                        "ivme-server: WAL sync thread is gone; continuing WITHOUT durability"
                    );
                    d.tracker.set_broken();
                    if let wal::Job::Commit { release, .. } = job {
                        release();
                    }
                }
            }
        }
    }
    // Rounds that logged nothing ack here; logged rounds ack from the
    // sync thread after their fsync (`acks` is empty then).
    release_acks(acks);
    // Checkpoint cadence runs after the hand-off: the WAL queue already
    // holds everything a crash needs, so the snapshot is off the ack
    // path — and off the writer thread entirely.
    state.maybe_dispatch_snapshot(serve_counters(shared));
    shutdown_acks
}

/// Fans a round's held-back acks out to their waiting clients.
fn release_acks(acks: Vec<PendingAck>) {
    for ack in acks {
        match ack {
            PendingAck::Write(tx, res) => {
                let _ = tx.send(res);
            }
            PendingAck::Admin(tx, res) => {
                let _ = tx.send(res);
            }
        }
    }
}

/// The serve-layer counters a snapshot persists.
fn serve_counters(shared: &Shared) -> (u64, u64, u64) {
    (
        shared.group_commits.load(Ordering::Relaxed),
        shared.grouped_batches.load(Ordering::Relaxed),
        shared.group_retries.load(Ordering::Relaxed),
    )
}

/// Applies one run of consecutive client batches as a single group
/// commit (with per-member replay if the merged batch rejects), emptying
/// `run`. Acks are deferred into `acks`; `dirty` is set if anything
/// committed; each *committed unit* pushes its replay script into
/// `frames` (one WAL frame per unit).
///
/// Frames record what *committed*, after the apply — not what was
/// submitted. The distinction matters on the fallback path: a merged
/// group validates on its **net** delta (one member's over-delete can be
/// cancelled by another member's insert), so replaying the raw member
/// batches sequentially could reject a member that the merged commit
/// accepted. Logging the merged batch on group success and each
/// surviving member on fallback makes replay bit-exact by construction.
fn commit_run(
    run: &mut Vec<(DeltaBatch, mpsc::Sender<WriteAck>)>,
    state: &mut OwnedState,
    shared: &Shared,
    acks: &mut Vec<PendingAck>,
    dirty: &mut bool,
    frames: &mut Vec<String>,
) {
    if run.is_empty() {
        return;
    }
    /// One batch as its own committed unit: a run of one, or a member of
    /// a poisoned group.
    fn apply_alone(
        batch: &DeltaBatch,
        state: &mut OwnedState,
        dirty: &mut bool,
        frames: &mut Vec<String>,
    ) -> WriteAck {
        let t0 = Instant::now();
        state.session.apply(batch)?;
        let apply_micros = t0.elapsed().as_micros();
        *dirty = true;
        frames.push(proto::batch_lines(batch));
        Ok(GroupInfo {
            group: 1,
            apply_micros,
        })
    }
    let members = std::mem::take(run);
    if !state.session.is_built() {
        for (_, ack) in members {
            acks.push(PendingAck::Write(ack, Err(NOT_BUILT.to_owned())));
        }
        return;
    }
    shared.group_commits.fetch_add(1, Ordering::Relaxed);
    shared
        .grouped_batches
        .fetch_add(members.len() as u64, Ordering::Relaxed);
    if members.len() == 1 {
        let (batch, ack) = members.into_iter().next().unwrap();
        acks.push(PendingAck::Write(
            ack,
            apply_alone(&batch, state, dirty, frames),
        ));
        return;
    }
    // Coalesce the whole run into one batch: one validation pass, one
    // maintenance round, one snapshot publish for the entire group.
    let mut merged = DeltaBatch::new();
    for (b, _) in &members {
        for rel in b.relations() {
            merged.extend_relation(rel, b.deltas(rel).map(|(t, d)| (t.clone(), d)));
        }
    }
    let t0 = Instant::now();
    match state.session.apply(&merged) {
        Ok(()) => {
            *dirty = true;
            frames.push(proto::batch_lines(&merged));
            let info = GroupInfo {
                group: members.len(),
                apply_micros: t0.elapsed().as_micros(),
            };
            for (_, ack) in members {
                acks.push(PendingAck::Write(ack, Ok(info)));
            }
        }
        Err(_) => {
            // Some member poisoned the group; the failed merged apply
            // mutated nothing (prepare/apply split), so replay the
            // members individually in arrival order — only offenders
            // see an error.
            shared.group_retries.fetch_add(1, Ordering::Relaxed);
            for (batch, ack) in members {
                acks.push(PendingAck::Write(
                    ack,
                    apply_alone(&batch, state, dirty, frames),
                ));
            }
        }
    }
}
