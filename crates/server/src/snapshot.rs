//! Engine snapshots: the checkpoint half of the durability story.
//!
//! A snapshot is a full, self-contained serialization of the writer
//! thread's [`OwnedState`](crate) — config, the row store, the built
//! engine's base relations, and the cumulative counters — written to
//! `snapshot-<epoch>.ivme` in the data directory. Replaying the WAL from
//! genesis would recover the same state; snapshots exist so recovery time
//! is bounded by `O(state) + O(log since last snapshot)` instead of
//! `O(entire history)`, and so the WAL can be truncated.
//!
//! The format is line-oriented text in the same vocabulary as the wire
//! grammar (tuples render exactly as `ivme_cli::proto` prints them, and
//! re-parse with the same `parse_tuple`), with a trailing whole-file
//! CRC-32 line. Text round-trips faithfully here because every value in
//! the engine *entered* through that grammar — there is nothing in a
//! served database that the CSV tuple syntax cannot spell.
//!
//! Writing is crash-safe by construction: serialize to a sibling temp
//! file, fsync it, atomically rename into place, fsync the directory.
//! A crash at any point leaves either the old set of snapshots or the
//! old set plus one complete new one — never a half-written file under
//! the real name. Loading tries newest-first and skips (with a warning)
//! any snapshot that fails its CRC or parse, so one bad file degrades to
//! the previous checkpoint instead of a refused boot.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use ivme_cli::proto;
use ivme_cli::session::AdminOp;
use ivme_core::{Database, Mode};

use crate::crc::crc32;
use crate::publish::DurTracker;
use crate::{wal, Hook};

/// First line of every snapshot file.
pub const SNAP_MAGIC: &str = "IVMESNAP1";

/// Everything a snapshot persists. Plain data — the server crate owns the
/// conversion to and from its live `OwnedState`.
#[derive(Clone)]
pub struct SnapshotData {
    /// Publish epoch the state was captured at (the WAL rotates to this
    /// base epoch right after the snapshot lands).
    pub epoch: u64,
    /// Engine counters: (updates, batches, misroutes) — cumulative across
    /// restarts, restored into the rebuilt engine.
    pub engine_stats: (u64, u64, u64),
    /// Server counters: (group_commits, grouped_batches).
    pub serve_stats: (u64, u64),
    pub epsilon: f64,
    pub mode: Mode,
    /// The registered query in its display form (absent before `query`).
    pub query: Option<String>,
    /// Whether `build` had run (i.e. whether `base` is meaningful).
    pub built: bool,
    /// The session's row store: every row the engine does not hold — all
    /// of them when `!built`. On load, `base` supersedes any `staged` rows
    /// of the relations the built query names (older checkpoints repeat
    /// the rows loaded before `build` here).
    pub staged: Database,
    /// The built engine's current base relations (empty when `!built`).
    pub base: Database,
}

impl Default for SnapshotData {
    /// A fresh pre-`query` server state at epoch 0.
    fn default() -> SnapshotData {
        SnapshotData {
            epoch: 0,
            engine_stats: (0, 0, 0),
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

fn render_db(out: &mut String, keyword: &str, db: &Database) {
    use std::fmt::Write as _;
    for rel in db.relations() {
        let mut rows = db.rows(rel);
        rows.sort_unstable();
        for (t, m) in rows {
            let _ = writeln!(out, "{keyword} {m} {rel} {}", proto::format_tuple(&t));
        }
    }
}

/// Serializes `data` and atomically installs it (`wal::install`) as
/// `snapshot-<epoch>.ivme`. Returns the final path.
pub fn write(dir: &Path, data: &SnapshotData) -> io::Result<PathBuf> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{SNAP_MAGIC}");
    let _ = writeln!(out, "epoch {}", data.epoch);
    let (u, b, m) = data.engine_stats;
    let _ = writeln!(out, "engine_stats {u} {b} {m}");
    let (gc, gb) = data.serve_stats;
    let _ = writeln!(out, "serve_stats {gc} {gb}");
    let _ = writeln!(out, "epsilon {}", data.epsilon);
    let _ = writeln!(out, "{}", AdminOp::Mode(data.mode).wal_text());
    if let Some(q) = &data.query {
        let _ = writeln!(out, "query {q}");
    }
    let _ = writeln!(out, "built {}", u8::from(data.built));
    render_db(&mut out, "staged", &data.staged);
    render_db(&mut out, "base", &data.base);
    let _ = writeln!(out, "crc {:08x}", crc32(out.as_bytes()));

    let path = snapshot_path(dir, data.epoch);
    let tmp = dir.join(format!("snapshot-{}.ivme.tmp", data.epoch));
    wal::install(&path, &tmp, out.as_bytes())?;
    Ok(path)
}

/// Parses one snapshot file, verifying the trailing CRC first.
pub fn parse(text: &str) -> Result<SnapshotData, String> {
    // The CRC line covers every byte before it.
    let body_end = text
        .trim_end_matches('\n')
        .rfind('\n')
        .map(|i| i + 1)
        .ok_or("no CRC line")?;
    let crc_line = text[body_end..].trim_end();
    let stored: u32 = crc_line
        .strip_prefix("crc ")
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad CRC line `{crc_line}`"))?;
    let actual = crc32(&text.as_bytes()[..body_end]);
    if actual != stored {
        return Err(format!("CRC mismatch ({actual:08x} != {stored:08x})"));
    }

    let mut lines = text[..body_end].lines().peekable();
    let mut expect = |keyword: &str| -> Result<&str, String> {
        let line = lines.next().ok_or_else(|| format!("missing `{keyword}`"))?;
        if keyword.is_empty() {
            return Ok(line);
        }
        line.strip_prefix(keyword)
            .map(str::trim_start)
            .ok_or_else(|| format!("expected `{keyword} ...`, got `{line}`"))
    };
    if !expect(SNAP_MAGIC)?.is_empty() {
        return Err("magic line has trailing junk".into());
    }
    let mut data = SnapshotData {
        epoch: num(expect("epoch")?)?,
        ..SnapshotData::default()
    };
    let [updates, batches, misroutes] = counters(expect("engine_stats")?)?;
    data.engine_stats = (updates, batches, misroutes);
    let [commits, batches] = counters(expect("serve_stats")?)?;
    data.serve_stats = (commits, batches);
    data.epsilon = expect("epsilon")?
        .parse()
        .map_err(|_| "bad epsilon".to_owned())?;
    data.mode = match expect("mode")? {
        "dynamic" => Mode::Dynamic,
        "static" => Mode::Static,
        other => return Err(format!("bad mode `{other}`")),
    };
    // Older checkpoints name a shard count; every engine is one now.
    let _ = lines.next_if(|l| l.starts_with("shards "));
    if let Some(line) = lines.next_if(|l| l.starts_with("query ")) {
        data.query = Some(line["query ".len()..].to_owned());
    }
    data.built = match lines.next() {
        Some("built 0") => false,
        Some("built 1") => true,
        other => return Err(format!("expected `built 0|1`, got {other:?}")),
    };
    for line in lines {
        // `<keyword> <m> <rel> <tuple>`, the tuple possibly empty.
        let mut parts = line.splitn(4, ' ');
        let db = match parts.next() {
            Some("staged") => &mut data.staged,
            Some("base") => &mut data.base,
            _ => return Err(format!("bad row line `{line}`")),
        };
        match (parts.next().map(str::parse::<i64>), parts.next()) {
            (Some(Ok(m)), Some(rel)) if m > 0 => {
                db.insert(rel, proto::parse_tuple(parts.next().unwrap_or(""))?, m);
            }
            _ => return Err(format!("bad row line `{line}`")),
        }
    }
    Ok(data)
}

fn num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad number `{s}`"))
}

/// The first `N` numbers of a counters line. Later fields are ignored:
/// older checkpoints carry a third `serve_stats` field, a retry count
/// that no longer exists.
fn counters<const N: usize>(s: &str) -> Result<[u64; N], String> {
    let mut it = s.split_whitespace().map(num);
    let mut out = [0; N];
    for field in &mut out {
        *field = it.next().unwrap_or_else(|| Err("missing field".into()))?;
    }
    Ok(out)
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

/// The one loader: the newest snapshot in `dir` that passes validation
/// (CRC first, then the parse, then filename against internal epoch),
/// together with the on-disk text it validated — what the replication
/// bootstrap ships to a follower verbatim. Every newer file that had to
/// be skipped adds a line to `warnings`.
pub(crate) fn load(
    dir: &Path,
    warnings: &mut Vec<String>,
) -> io::Result<Option<(SnapshotData, String)>> {
    for epoch in list(dir)?.0 {
        let path = snapshot_path(dir, epoch);
        let attempt = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Ok((parse(&text)?, text)));
        match attempt {
            Ok(found) if found.0.epoch == epoch => return Ok(Some(found)),
            Ok((data, _)) => warnings.push(format!(
                "{}: internal epoch {} disagrees with filename — skipping",
                path.display(),
                data.epoch
            )),
            Err(e) => warnings.push(format!("{}: {e} — skipping", path.display())),
        }
    }
    Ok(None)
}

/// Loads the newest parseable snapshot in `dir`, newest-first by epoch.
/// Returns the snapshot (if any survives validation) and a warning line
/// for every file that had to be skipped.
pub fn load_latest(dir: &Path) -> io::Result<(Option<SnapshotData>, Vec<String>)> {
    let mut warnings = Vec::new();
    let found = load(dir, &mut warnings)?;
    Ok((found.map(|(data, _)| data), warnings))
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

/// One checkpoint job: serialize + install `data`, queue the rotation,
/// then signal `done` (if present) with whether the install landed.
struct SnapJob {
    data: Box<SnapshotData>,
    done: Option<mpsc::Sender<bool>>,
}

/// Writer-side handle to the snapshot thread. The writer captures a
/// [`SnapshotData`] (a cheap structured clone of its state — no
/// serialization) and submits it; the expensive work — rendering the
/// canonical text, CRC, temp-file write, fsync, rename, prune — all
/// happens here, off the commit path. After a successful install the
/// thread sends [`wal::Job::Rotate`] down the WAL queue — install before
/// rotate, so a log is never rotated onto a snapshot that is not on disk.
/// A checkpoint that cannot land is not a log failure (the log still
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
        let landed = write(dir, &data);
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
                "ivme-server: warning: checkpoint at epoch {} failed ({e}); the log is left \
                 as it is and the next checkpoint tries again",
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
    use ivme_data::Tuple;

    fn demo_data(epoch: u64) -> SnapshotData {
        let mut staged = Database::new();
        staged.insert("R", Tuple::ints(&[1, 10]), 1);
        staged.insert("R", Tuple::ints(&[2, 10]), 2);
        staged.insert(
            "S",
            Tuple::new(vec![
                ivme_data::Value::from(10i64),
                ivme_data::Value::from("ab cd"),
            ]),
            1,
        );
        let mut base = staged.clone();
        base.insert("S", Tuple::ints(&[10, 5]), 3);
        SnapshotData {
            epoch,
            engine_stats: (100, 12, 1),
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

    #[test]
    fn snapshot_round_trips_exactly() {
        let dir = tmp_dir("roundtrip");
        let data = demo_data(42);
        let path = write(&dir, &data).unwrap();
        assert!(path.ends_with("snapshot-42.ivme"));
        let (loaded, warnings) = load_latest(&dir).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        let loaded = loaded.unwrap();
        assert_eq!(loaded.epoch, 42);
        assert_eq!(loaded.engine_stats, (100, 12, 1));
        assert_eq!(loaded.serve_stats, (12, 40));
        assert_eq!(loaded.epsilon, 0.25);
        assert_eq!(loaded.query.as_deref(), Some("Q(A,C) :- R(A,B), S(B,C)"));
        assert!(loaded.built);
        assert_eq!(canon(&loaded.staged), canon(&data.staged));
        assert_eq!(canon(&loaded.base), canon(&data.base));
        // Writing the loaded data again produces byte-identical files:
        // the serialization is canonical (sorted), not map-order soup.
        let text1 = std::fs::read_to_string(&path).unwrap();
        let dir2 = tmp_dir("roundtrip2");
        let path2 = write(&dir2, &loaded).unwrap();
        assert_eq!(text1, std::fs::read_to_string(path2).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn corrupt_snapshots_fall_back_to_older_ones() {
        let dir = tmp_dir("fallback");
        write(&dir, &demo_data(10)).unwrap();
        write(&dir, &demo_data(20)).unwrap();
        // Corrupt the newest: one flipped character fails the CRC.
        let newest = snapshot_path(&dir, 20);
        let mut text = std::fs::read_to_string(&newest).unwrap();
        text = text.replacen("epoch 20", "epoch 21", 1);
        std::fs::write(&newest, text).unwrap();
        let (loaded, warnings) = load_latest(&dir).unwrap();
        assert_eq!(loaded.unwrap().epoch, 10);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("CRC mismatch"), "{warnings:?}");
        // A truncated file (torn write before the rename would prevent
        // this, but belt and braces) is also skipped.
        let text = std::fs::read_to_string(snapshot_path(&dir, 10)).unwrap();
        std::fs::write(snapshot_path(&dir, 30), &text[..text.len() / 2]).unwrap();
        let (loaded, warnings) = load_latest(&dir).unwrap();
        assert_eq!(loaded.unwrap().epoch, 10);
        assert_eq!(warnings.len(), 2);
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
    fn unbuilt_state_round_trips_without_query_or_base() {
        let dir = tmp_dir("unbuilt");
        let mut staged = Database::new();
        staged.insert("R", Tuple::ints(&[1]), 1);
        let data = SnapshotData {
            epoch: 3,
            epsilon: 0.5,
            mode: Mode::Static,
            staged,
            ..SnapshotData::default()
        };
        write(&dir, &data).unwrap();
        let (loaded, _) = load_latest(&dir).unwrap();
        let loaded = loaded.unwrap();
        assert_eq!(loaded.query, None);
        assert!(!loaded.built);
        assert!(matches!(loaded.mode, Mode::Static));
        assert_eq!(loaded.staged.rows("R"), vec![(Tuple::ints(&[1]), 1)]);
        assert_eq!(loaded.base.total_rows(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Checkpoints written before the retry counter was dropped carry
    /// three `serve_stats` fields; a data dir holding one still boots.
    #[test]
    fn a_checkpoint_with_three_serve_stats_fields_still_loads() {
        let dir = tmp_dir("three_fields");
        let mut text = "IVMESNAP1\nepoch 5\nengine_stats 7 3 0\nserve_stats 3 4 1\n\
                        epsilon 0.5\nmode dynamic\nshards 1\nquery Q(A,C) :- R(A,B), S(B,C)\n\
                        built 1\nbase 1 R 1,10\nbase 1 S 10,5\n"
            .to_owned();
        let crc = crc32(text.as_bytes());
        text.push_str(&format!("crc {crc:08x}\n"));
        std::fs::write(snapshot_path(&dir, 5), text).unwrap();
        let (loaded, warnings) = load_latest(&dir).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        let loaded = loaded.unwrap();
        assert_eq!(loaded.epoch, 5);
        assert_eq!(loaded.engine_stats, (7, 3, 0));
        assert_eq!(loaded.serve_stats, (3, 4));
        assert_eq!(loaded.base.total_rows(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_that_cannot_land_queues_no_rotation_and_loses_nothing() {
        let dir = tmp_dir("cannot_land");
        std::fs::remove_dir_all(&dir).unwrap();
        let (wal_tx, wal_rx) = mpsc::channel();
        let tracker = Arc::new(DurTracker::new(0, 0, 0));
        let worker =
            SnapshotWorker::start(dir.clone(), wal_tx, Arc::clone(&tracker), None).unwrap();
        let submit_and_wait = |epoch, lands| {
            let (done, done_rx) = mpsc::channel();
            assert!(worker.submit(demo_data(epoch), Some(done)));
            assert_eq!(done_rx.recv().unwrap(), lands);
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
        drop(worker);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
