//! Checkpoints: the state as one log round.
//!
//! A checkpoint, `snapshot-<epoch>.ivme` in the data directory, is a log in
//! [`crate::wal`]'s header and frame encoding, from epoch 0, that holds one
//! round at `<epoch>`: the commands that rebuild the writer thread's state
//! from nothing. In order: `query`, `epsilon`, `mode`; `.batch begin …
//! .batch commit` frames that write each row once, as `insert` or as
//! `update <rel> <m> <csv>` for a multiplicity above 1, split below the
//! frame bound; `build`; and last, the log-only `counters` line. Every row
//! is in the row store until `build`, so the engine is built once, from
//! every multiplicity, in either mode. Each `.batch` frame is a WAL write
//! frame. Boot recovery and a replica's bootstrap replay it through
//! `OwnedState::apply_round`, the step every WAL round and every
//! replicated round takes, so there is one way back to a state. Replaying
//! the WAL from genesis would recover the same state; checkpoints exist so
//! recovery time is bounded by `O(state) + O(log since the last
//! checkpoint)` instead of `O(entire history)`, and so the WAL can be
//! truncated.
//!
//! Writing is crash-safe: `wal::install` writes a sibling temp file,
//! fsyncs it and renames it into place. Loading tries newest-first and
//! reads strictly: a file that is not one whole round — damaged, torn, or
//! missing its closing `counters` line — is skipped with a warning, and so
//! is an `IVMESNAP1` file, the keyword format written before replication
//! version 5, which is refused rather than converted. One bad file degrades
//! to the previous checkpoint; a data dir that needs the skipped file
//! refuses to boot on recovery's gap check. A version-5 checkpoint, whose
//! rows are `row` and `stage` lines, reads whole but fails to replay,
//! naming the line, and the boot refuses.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use ivme_cli::proto;
use ivme_cli::session::AdminOp;
use ivme_core::{Database, Mode};
use ivme_data::Tuple;

use crate::publish::DurTracker;
use crate::{invalid_data, wal, Hook};

/// Everything a checkpoint persists. Plain data — the server crate owns the
/// conversion from its live `OwnedState`.
#[derive(Clone)]
pub struct SnapshotData {
    /// Publish epoch the state was captured at (the WAL rotates to this
    /// base epoch right after the checkpoint lands).
    pub epoch: u64,
    /// Engine counters: (updates, batches) — cumulative across restarts.
    pub engine_stats: (u64, u64),
    /// Server counters: (group_commits, grouped_batches).
    pub serve_stats: (u64, u64),
    pub epsilon: f64,
    pub mode: Mode,
    /// The registered query in its display form (absent before `query`).
    pub query: Option<String>,
    /// Whether `build` had run (i.e. whether `base` is meaningful).
    pub built: bool,
    /// The session's row store: every row the engine does not hold — all
    /// of them when `!built`. Rows of the relations a built query names
    /// are ignored here: `base` supersedes them.
    pub staged: Database,
    /// The built engine's current base relations (empty when `!built`).
    pub base: Database,
}

impl Default for SnapshotData {
    /// A fresh pre-`query` server state at epoch 0.
    fn default() -> SnapshotData {
        SnapshotData {
            epoch: 0,
            engine_stats: (0, 0),
            serve_stats: (0, 0),
            epsilon: 0.5,
            mode: Mode::Dynamic,
            query: None,
            built: false,
            staged: Database::new(),
            base: Database::new(),
        }
    }
}

/// A loaded checkpoint: the round that rebuilds the state at `epoch`.
pub struct Checkpoint {
    pub epoch: u64,
    pub frames: Vec<String>,
}

/// `snapshot-<epoch>.ivme` under `dir`.
fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snapshot-{epoch}.ivme"))
}

/// The epoch encoded in a snapshot filename, if it is one.
fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".ivme")?
        .parse()
        .ok()
}

/// The checkpoint round of `data`, frame by frame (see the module docs),
/// its rows in `.batch` frames of at most `max_frame` bytes.
fn round(data: &SnapshotData, max_frame: usize) -> io::Result<Vec<String>> {
    // The relations a built engine holds: its query's.
    let held = match (&data.query, data.built) {
        (Some(q), true) => ivme_query::parse_query(q)
            .map_err(|e| invalid_data(e.to_string()))?
            .atoms
            .into_iter()
            .map(|a| a.relation)
            .collect(),
        _ => Vec::new(),
    };
    let mut frames: Vec<String> = data.query.iter().map(|q| format!("query {q}")).collect();
    frames.push(AdminOp::Epsilon(data.epsilon).wal_text());
    frames.push(AdminOp::Mode(data.mode).wal_text());
    // One relation's rows are sorted at a time, as the frames need them.
    let held = &held;
    let engine = data.built.then_some((&data.base, true));
    let rows = engine.into_iter().chain([(&data.staged, false)]);
    let rows = rows.flat_map(|(db, in_engine)| {
        let rels = db.relations().into_iter();
        let rels = rels.filter(move |rel| in_engine || !held.iter().any(|h| h == rel));
        rels.flat_map(move |rel| {
            let mut sorted = db.rows(rel);
            sorted.sort_unstable();
            sorted.into_iter().map(move |(t, m)| (rel, t, m))
        })
    });
    batches(&mut frames, rows, max_frame);
    frames.extend(data.built.then(|| AdminOp::Build.wal_text()));
    let ((u, b), (gc, gb)) = (data.engine_stats, data.serve_stats);
    frames.push(format!("counters {u} {b} {gc} {gb}"));
    Ok(frames)
}

/// Appends `rows` to `out` as `.batch begin … .batch commit` frames, the
/// lines [`proto::batch_lines`] renders, closing a frame before a line
/// would carry it past `max` bytes.
fn batches<'a>(
    out: &mut Vec<String>,
    rows: impl Iterator<Item = (&'a str, Tuple, i64)>,
    max: usize,
) {
    const BEGIN: &str = ".batch begin\n";
    const COMMIT: &str = ".batch commit\n";
    let mut frame = String::from(BEGIN);
    for (rel, t, m) in rows {
        let at = frame.len();
        proto::push_line(&mut frame, rel, &t, m);
        if frame.len() + COMMIT.len() > max && at > BEGIN.len() {
            let line = frame.split_off(at);
            out.push(std::mem::replace(&mut frame, format!("{BEGIN}{line}")) + COMMIT);
        }
    }
    if frame.len() > BEGIN.len() {
        out.push(frame + COMMIT);
    }
}

/// Renders `data` as its checkpoint round and atomically installs it
/// (`wal::install`) as `snapshot-<epoch>.ivme`. Returns the final path.
pub fn write(dir: &Path, data: &SnapshotData) -> io::Result<PathBuf> {
    let bytes = wal::image(0, data.epoch, &round(data, wal::MAX_FRAME as usize)?)?;
    let path = snapshot_path(dir, data.epoch);
    let tmp = dir.join(format!("snapshot-{}.ivme.tmp", data.epoch));
    wal::install(&path, &tmp, &bytes)?;
    Ok(path)
}

/// The strict read of the checkpoint named for `epoch`: a log from base
/// epoch 0 holding one whole round at that epoch, closed by its `counters`
/// line, or why the file is not one.
fn read(path: &Path, epoch: u64) -> Result<Checkpoint, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |why: &str| Err(format!("{}: {why}", path.display()));
    if bytes.starts_with(b"IVMESNAP1") {
        return bad(
            "an IVMESNAP1 checkpoint, the format before replication version 5, which this \
             server does not read",
        );
    }
    let (base_epoch, frames) = wal::scan_whole(path, &bytes).map_err(|e| e.to_string())?;
    if base_epoch != 0 {
        return bad("the header's base epoch is not 0: not a checkpoint");
    }
    let closed = frames
        .last()
        .is_some_and(|f| f.text.starts_with("counters "));
    if !closed {
        return bad("no closing `counters` line: not a whole checkpoint");
    }
    if frames.iter().any(|f| f.epoch != epoch) {
        return bad("a frame's epoch disagrees with the file name");
    }
    Ok(Checkpoint {
        epoch,
        frames: frames.into_iter().map(|f| f.text).collect(),
    })
}

/// The one directory listing: the epochs of the snapshot files in `dir`,
/// newest first, and the temp files interrupted writes left behind.
fn list(dir: &Path) -> io::Result<(Vec<u64>, Vec<PathBuf>)> {
    let mut epochs: Vec<u64> = Vec::new();
    let mut temps = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("snapshot-") && name.ends_with(".ivme.tmp") {
            temps.push(entry.path());
        } else if let Some(e) = parse_snapshot_name(&name) {
            epochs.push(e);
        }
    }
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    Ok((epochs, temps))
}

/// Loads the newest checkpoint in `dir` that reads whole, newest-first by
/// epoch. Returns it (if any survives) and a warning line for every newer
/// file that had to be skipped.
pub fn load_latest(dir: &Path) -> io::Result<(Option<Checkpoint>, Vec<String>)> {
    let mut warnings = Vec::new();
    for epoch in list(dir)?.0 {
        match read(&snapshot_path(dir, epoch), epoch) {
            Ok(cp) => return Ok((Some(cp), warnings)),
            Err(e) => warnings.push(format!("{e} — skipping")),
        }
    }
    Ok((None, warnings))
}

/// Deletes all but the newest `keep` snapshots, plus any stale temp files
/// from interrupted writes. Damaged old snapshots are deleted too —
/// `load_latest` has already chosen a good one by the time this runs.
pub fn prune(dir: &Path, keep: usize) -> io::Result<()> {
    let (epochs, temps) = list(dir)?;
    let old = epochs.iter().skip(keep).map(|&e| snapshot_path(dir, e));
    for path in temps.into_iter().chain(old) {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

// ----------------------------------------------------------------------
// The background snapshot thread
// ----------------------------------------------------------------------

/// One checkpoint job: render + install `data`, queue the rotation,
/// then signal `done` (if present) with whether the install landed.
struct SnapJob {
    data: Box<SnapshotData>,
    done: Option<mpsc::Sender<bool>>,
}

/// Writer-side handle to the snapshot thread. The writer captures a
/// [`SnapshotData`] (a cheap structured clone of its state — no
/// serialization) and submits it; the expensive work — rendering the
/// round, temp-file write, fsync, rename, prune — all happens here, off
/// the commit path. A checkpoint at epoch `E` installs only once the log
/// has made every round through `E` durable: the thread waits for that
/// behind a [`wal::Job::Flush`], and drops the checkpoint if durability is
/// lost first, since the rounds it holds are then released as lost. After a successful install the
/// thread sends [`wal::Job::Rotate`] down the WAL queue — install before
/// rotate, so a log is never rotated onto a checkpoint that is not on
/// disk. A checkpoint that cannot land is not a log failure (the log still
/// holds everything): it warns, queues no rotation, and the next cadence
/// tries again.
pub(crate) struct SnapshotWorker {
    tx: mpsc::Sender<SnapJob>,
    handle: Option<JoinHandle<()>>,
    tracker: Arc<DurTracker>,
}

impl SnapshotWorker {
    pub fn start(
        dir: PathBuf,
        wal_tx: mpsc::Sender<wal::Job>,
        tracker: Arc<DurTracker>,
        hook: Option<Hook>,
    ) -> io::Result<SnapshotWorker> {
        let (tx, rx) = mpsc::channel();
        let thread_tracker = Arc::clone(&tracker);
        let handle = std::thread::Builder::new()
            .name("ivme-snapshot".into())
            .spawn(move || snapshot_loop(&dir, rx, wal_tx, &thread_tracker, hook))?;
        Ok(SnapshotWorker {
            tx,
            handle: Some(handle),
            tracker,
        })
    }

    /// Whether a submitted snapshot has not finished yet
    /// (`snapshot_in_progress` in `stats`).
    pub fn busy(&self) -> bool {
        self.tracker.snapshot_in_progress()
    }

    /// Queues one snapshot; `done` is told whether its install landed,
    /// after the attempt — and, the queue being FIFO, after every earlier
    /// one's. `false` if the thread is gone.
    pub fn submit(&self, data: SnapshotData, done: Option<mpsc::Sender<bool>>) -> bool {
        self.tracker.begin_snapshot();
        let data = Box::new(data);
        let sent = self.tx.send(SnapJob { data, done }).is_ok();
        if !sent {
            self.tracker.end_snapshot();
        }
        sent
    }
}

impl Drop for SnapshotWorker {
    /// Drains queued snapshots, then joins. Must drop *before* the
    /// `WalPipeline` (field order in `Durability` guarantees it): this
    /// thread holds a WAL-queue sender and may still emit a `Rotate`.
    fn drop(&mut self) {
        // Close the queue by swapping in a dead sender.
        self.tx = mpsc::channel().0;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn snapshot_loop(
    dir: &Path,
    rx: mpsc::Receiver<SnapJob>,
    wal_tx: mpsc::Sender<wal::Job>,
    tracker: &DurTracker,
    hook: Option<Hook>,
) {
    while let Ok(SnapJob { data, done }) = rx.recv() {
        if let Some(h) = &hook {
            h(data.epoch);
        }
        // Round E's acks were queued on the log before checkpoint E was
        // submitted, so once the log has run every job queued ahead of a
        // flush, E is durable — or never will be, and E is dropped.
        if tracker.durable() < data.epoch {
            let (done, flushed) = mpsc::channel();
            let _ = wal_tx.send(wal::Job::Flush { done });
            let _ = flushed.recv();
        }
        let landed = match tracker.durable() >= data.epoch {
            true => write(dir, &data),
            false => Err(io::Error::other("its rounds can no longer be made durable")),
        };
        match &landed {
            Ok(_) => {
                let _ = wal_tx.send(wal::Job::Rotate {
                    base_epoch: data.epoch,
                });
                if let Err(e) = prune(dir, 2) {
                    eprintln!("ivme-server: snapshot prune failed ({e})");
                }
            }
            Err(e) => eprintln!(
                "ivme-server: warning: checkpoint at epoch {} not installed ({e}); the log is \
                 left as it is",
                data.epoch
            ),
        }
        tracker.end_snapshot();
        if let Some(done) = done {
            let _ = done.send(landed.is_ok());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publish::Status;
    use crate::writer::OwnedState;
    use ivme_data::{Tuple, Value};

    /// A built state over `Q(A,C) :- R(A,B), S(B,C)`: a base multiplicity
    /// of 2 and one of 2^40, a row-store row of a relation the query does
    /// not name, held twice, and a stale row-store copy of an engine row.
    fn demo_data(epoch: u64) -> SnapshotData {
        let mut staged = Database::new();
        staged.insert("T", Tuple::ints(&[7]), 2);
        staged.insert("R", Tuple::ints(&[1, 10]), 1);
        let mut base = Database::new();
        base.insert("R", Tuple::ints(&[1, 10]), 1);
        base.insert("R", Tuple::ints(&[2, 10]), 2);
        let cells = vec![Value::from(10i64), Value::from("ab cd")];
        base.insert("S", Tuple::new(cells), 1 << 40);
        SnapshotData {
            epoch,
            engine_stats: (100, 12),
            serve_stats: (12, 40),
            epsilon: 0.25,
            mode: Mode::Dynamic,
            query: Some("Q(A,C) :- R(A,B), S(B,C)".to_owned()),
            built: true,
            staged,
            base,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ivme_snap_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn canon(db: &Database) -> Vec<(String, Tuple, i64)> {
        let mut out: Vec<(String, Tuple, i64)> = Vec::new();
        for rel in db.relations() {
            for (t, m) in db.rows(rel) {
                out.push((rel.to_owned(), t, m));
            }
        }
        out.sort_unstable();
        out
    }

    /// The batch a `.batch` frame's update lines say.
    fn replayed(frame: &str) -> ivme_core::DeltaBatch {
        let mut batch = ivme_core::DeltaBatch::new();
        for line in frame.lines() {
            if let Some(ivme_cli::proto::Command::Update {
                relation,
                tuple,
                delta,
            }) = proto::parse_command(line).unwrap()
            {
                batch.push(&relation, tuple, delta);
            }
        }
        batch
    }

    /// Writes `data`, loads it back and replays it onto a fresh state.
    fn round_trip(name: &str, data: &SnapshotData) -> (Vec<String>, OwnedState, Status) {
        let dir = tmp_dir(name);
        let path = write(&dir, data).unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(wal::WAL_MAGIC));
        let (cp, warnings) = load_latest(&dir).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        let cp = cp.unwrap();
        assert_eq!(cp.epoch, data.epoch);
        let (mut state, status) = (OwnedState::default(), Status::default());
        let frames = cp.frames.iter().map(String::as_str);
        state.apply_round(cp.epoch, frames, &status).unwrap();
        assert_eq!(state.epoch, data.epoch);
        std::fs::remove_dir_all(&dir).unwrap();
        (cp.frames, state, status)
    }

    /// A checkpoint is one round that writes each row once and replays to
    /// exactly the captured state.
    #[test]
    fn snapshot_round_trips_exactly() {
        let data = demo_data(42);
        let (frames, state, status) = round_trip("round", &data);
        // Each row once, in a `.batch` before `build`, a multiplicity above
        // 1 as one `update` line; the stale row-store copy of R(1,10) is not
        // written at all.
        let rows = ".batch begin\ninsert R 1,10\nupdate R 2 2,10\n\
                    update S 1099511627776 10,ab cd\nupdate T 2 7\n.batch commit\n";
        assert_eq!(
            frames,
            [
                "query Q(A,C) :- R(A,B), S(B,C)",
                "epsilon 0.25",
                "mode dynamic",
                rows,
                "build",
                "counters 100 12 12 40",
            ]
        );
        // The replay rebuilds exactly the captured state and counters.
        let eng = state.session.engine().unwrap();
        assert_eq!(canon(&eng.export_database()), canon(&data.base));
        assert_eq!(
            canon(state.session.staged()),
            [("T".into(), Tuple::ints(&[7]), 2)]
        );
        let st = eng.stats();
        assert_eq!((st.updates, st.batches), (100, 12));
        let ss = status.serve_stats();
        assert_eq!((ss.group_commits, ss.grouped_batches), (12, 40));
        assert_eq!(state.session.options().epsilon, 0.25);
    }

    /// Every multiplicity is in the row store before `build`, so a static
    /// state builds once, in static mode, like any other.
    #[test]
    fn a_static_checkpoint_builds_once_from_every_multiplicity() {
        let data = SnapshotData {
            mode: Mode::Static,
            ..demo_data(5)
        };
        let (frames, state, _) = round_trip("static", &data);
        assert_eq!(frames[2], "mode static");
        let rebuilds = ["mode", "epsilon", "build"];
        let after_rows = frames.iter().skip_while(|f| !f.starts_with(".batch begin"));
        let again = after_rows.filter(|f| rebuilds.iter().any(|r| f.starts_with(r)));
        assert_eq!(again.collect::<Vec<_>>(), ["build"]);
        assert_eq!(state.session.options().mode, Mode::Static);
        let eng = state.session.engine().unwrap();
        assert_eq!(canon(&eng.export_database()), canon(&data.base));
    }

    /// A row-store multiplicity of 2^40 — `update` says one before `build`,
    /// and `query` on a built engine moves the engine's rows to the store
    /// with theirs — is one `update` line, built or not.
    #[test]
    fn a_row_store_multiplicity_of_2_40_round_trips_in_one_line() {
        let mut staged = Database::new();
        staged.insert("R", Tuple::ints(&[1, 10]), 1 << 40);
        staged.insert("T", Tuple::ints(&[7]), 1 << 40);
        for built in [false, true] {
            let data = SnapshotData {
                built,
                staged: staged.clone(),
                ..demo_data(6)
            };
            let (frames, state, _) = round_trip("store_2_40", &data);
            let lines = frames.iter().flat_map(|f| f.lines());
            let t = ["update T 1099511627776 7"];
            assert_eq!(lines.filter(|l| l.ends_with(" 7")).collect::<Vec<_>>(), t);
            let mut want = canon(&staged);
            if built {
                want.retain(|(rel, ..)| rel == "T");
            }
            assert_eq!(canon(state.session.staged()), want);
            assert_eq!(state.session.is_built(), built);
        }
    }

    /// The rows are split into `.batch` frames below the frame bound, each
    /// one a WAL write frame, and the split round replays to the same
    /// state.
    #[test]
    fn runs_split_below_the_frame_bound_and_replay_whole() {
        let mut data = demo_data(8);
        for i in 0..100 {
            data.base.insert("R", Tuple::ints(&[i, 10]), 3);
        }
        let frames = round(&data, 64).unwrap();
        let runs: Vec<&String> = frames.iter().filter(|f| f.starts_with(".batch")).collect();
        assert!(runs.len() > 40, "{runs:?}");
        for run in runs {
            assert!(run.len() <= 64 && run.ends_with(".batch commit\n"), "{run}");
            assert_eq!(
                replayed(run).distinct_len() + 2,
                run.lines().count(),
                "{run}"
            );
        }
        let (mut state, status) = (OwnedState::default(), Status::default());
        let texts = frames.iter().map(String::as_str);
        state.apply_round(data.epoch, texts, &status).unwrap();
        let eng = state.session.engine().unwrap();
        assert_eq!(canon(&eng.export_database()), canon(&data.base));
    }

    #[test]
    fn unbuilt_state_round_trips_without_query_or_base() {
        let mut staged = Database::new();
        staged.insert("R", Tuple::ints(&[1]), 1);
        let data = SnapshotData {
            epoch: 3,
            mode: Mode::Static,
            staged,
            ..SnapshotData::default()
        };
        let (frames, state, _) = round_trip("unbuilt", &data);
        let want = [
            "epsilon 0.5",
            "mode static",
            ".batch begin\ninsert R 1\n.batch commit\n",
            "counters 0 0 0 0",
        ];
        assert_eq!(frames, want);
        assert!(state.session.query().is_none() && !state.session.is_built());
        assert_eq!(state.session.staged().rows("R"), [(Tuple::ints(&[1]), 1)]);
    }

    #[test]
    fn corrupt_snapshots_fall_back_to_older_ones() {
        let dir = tmp_dir("fallback");
        write(&dir, &demo_data(10)).unwrap();
        let clean = std::fs::read(write(&dir, &demo_data(20)).unwrap()).unwrap();
        let newest = || load_latest(&dir).unwrap();
        // One flipped payload byte fails its frame's CRC.
        let mut flipped = clean.clone();
        let at = clean.len() - 3;
        flipped[at] ^= 0x01;
        std::fs::write(snapshot_path(&dir, 20), &flipped).unwrap();
        let (cp, warnings) = newest();
        assert_eq!(cp.unwrap().epoch, 10);
        assert!(warnings[0].contains("CRC mismatch"), "{warnings:?}");
        // A torn tail, and a cut at a frame boundary before the closing
        // `counters` line, are not whole checkpoints either.
        std::fs::write(snapshot_path(&dir, 20), &clean[..clean.len() - 5]).unwrap();
        assert!(newest().1[0].contains("torn frame"), "{:?}", newest().1);
        let last = "counters 100 12 12 40".len() + 16;
        std::fs::write(snapshot_path(&dir, 20), &clean[..clean.len() - last]).unwrap();
        assert!(newest().1[0].contains("no closing `counters` line"));
        // A header whose base epoch is not 0 is not a checkpoint.
        let mut based = clean.clone();
        based[8] = 1;
        std::fs::write(snapshot_path(&dir, 20), &based).unwrap();
        assert!(newest().1[0].contains("base epoch is not 0"));
        // A checkpoint of the retired keyword format is refused, named.
        std::fs::write(snapshot_path(&dir, 30), "IVMESNAP1\nepoch 30\n").unwrap();
        let (cp, warnings) = newest();
        assert_eq!(cp.unwrap().epoch, 10);
        assert_eq!(warnings.len(), 2);
        assert!(
            warnings[0].contains("an IVMESNAP1 checkpoint"),
            "{warnings:?}"
        );
        // And a round whose epoch disagrees with the file name.
        std::fs::rename(snapshot_path(&dir, 10), snapshot_path(&dir, 11)).unwrap();
        let (cp, warnings) = newest();
        assert!(cp.is_none());
        assert!(
            warnings[2].contains("disagrees with the file name"),
            "{warnings:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_the_newest_and_sweeps_temp_files() {
        let dir = tmp_dir("prune");
        for e in [5, 10, 15, 20] {
            write(&dir, &demo_data(e)).unwrap();
        }
        std::fs::write(dir.join("snapshot-99.ivme.tmp"), "half").unwrap();
        prune(&dir, 2).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["snapshot-15.ivme", "snapshot-20.ivme"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_that_cannot_land_queues_no_rotation_and_loses_nothing() {
        let dir = tmp_dir("cannot_land");
        std::fs::remove_dir_all(&dir).unwrap();
        let (wal_tx, wal_rx) = mpsc::channel();
        let tracker = Arc::new(DurTracker::new(9, 0, 0));
        let worker =
            SnapshotWorker::start(dir.clone(), wal_tx, Arc::clone(&tracker), None).unwrap();
        let submit = |epoch| {
            let (done, done_rx) = mpsc::channel();
            assert!(worker.submit(demo_data(epoch), Some(done)));
            done_rx
        };
        let submit_and_wait = |epoch, lands| {
            assert_eq!(submit(epoch).recv().unwrap(), lands);
            assert!(!worker.busy());
        };
        // The data dir is gone, so the temp file cannot be created: the
        // log is left alone and keeps accepting commits.
        submit_and_wait(7, false);
        assert!(wal_rx.try_recv().is_err(), "no Rotate for a failed install");
        assert!(
            !tracker.is_lost(),
            "a failed checkpoint is not a log failure"
        );
        // The next cadence tries again, and this one lands.
        std::fs::create_dir_all(&dir).unwrap();
        submit_and_wait(9, true);
        assert!(matches!(
            wal_rx.try_recv(),
            Ok(wal::Job::Rotate { base_epoch: 9 })
        ));
        assert_eq!(load_latest(&dir).unwrap().0.unwrap().epoch, 9);
        // A checkpoint past the durable epoch waits for the log to run the
        // jobs queued ahead of it, round 11's acks among them ...
        let done = submit(11);
        let Ok(wal::Job::Flush { done: flushed }) = wal_rx.recv() else {
            panic!("no flush before an install past the durable epoch");
        };
        assert!(
            done.try_recv().is_err(),
            "installed before round 11 was durable"
        );
        tracker.record_durable(11, 0, 0);
        flushed.send(()).unwrap();
        assert!(done.recv().unwrap());
        assert!(matches!(
            wal_rx.recv(),
            Ok(wal::Job::Rotate { base_epoch: 11 })
        ));
        // ... and is dropped if they end with durability lost.
        let done = submit(13);
        let Ok(wal::Job::Flush { done: flushed }) = wal_rx.recv() else {
            panic!("no flush before an install past the durable epoch");
        };
        tracker.set_lost();
        flushed.send(()).unwrap();
        assert!(!done.recv().unwrap());
        assert!(
            wal_rx.try_recv().is_err(),
            "no Rotate for a dropped checkpoint"
        );
        assert_eq!(load_latest(&dir).unwrap().0.unwrap().epoch, 11);
        drop(worker);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
