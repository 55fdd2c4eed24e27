//! Write-ahead log: length-prefixed, CRC-checksummed command frames.
//!
//! The WAL makes the group-commit writer's state survive the process. Its
//! records are not a private binary format — each frame's payload is
//! command text in the shared wire grammar ([`ivme_cli::proto`]), the same
//! lines a client could have typed, so a WAL is replayed through exactly
//! the admin/apply path that produced it live, and `strings wal.log` is a
//! legible transcript of every committed change.
//!
//! # On-disk layout
//!
//! ```text
//! header   "IVMEWAL1" (8 bytes) | base_epoch (u64 LE)
//! frame    len (u32 LE) | crc32 (u32 LE) | epoch (u64 LE) | payload (len bytes, UTF-8)
//! ```
//!
//! `base_epoch` is the snapshot epoch this log continues from: a frame
//! with `epoch ≤` the loaded snapshot's epoch is skipped on replay, which
//! is what makes the snapshot-then-rotate sequence crash-safe at every
//! intermediate point. The CRC (IEEE 802.3, table-driven, shared with the
//! snapshot format via [`crate::crc`]) covers the epoch and payload
//! bytes, so a frame whose length field survived a torn write but whose
//! body did not still fails closed.
//!
//! # What is logged, and when
//!
//! One frame per **committed unit** — a merged group batch that applied,
//! an individually replayed member that applied, or a successful admin op
//! — handed to the sync thread *after* the in-memory apply and made
//! durable *before* the ack. Logging inputs before applying them sounds
//! more traditional but would be wrong here: a merged group can validate
//! on its *net* delta (one member's over-delete cancelled by another's
//! insert) where sequential replay of the raw member batches would reject
//! a member, so only the units that actually committed are deterministic
//! to replay. The durability point is therefore fsync-before-ack: an
//! acked write is on disk (in `group` mode), an unacked write
//! may be lost with the process — the same contract the ack already
//! carried for visibility.
//!
//! # The pipeline (PR 8)
//!
//! Appending and fsyncing no longer happen on the writer thread at all.
//! `WalPipeline` owns the open [`Wal`] on a dedicated sync thread; the
//! writer hands each committed round over as a `Job::Commit` carrying
//! the frames *and* the round's held-back acks (as a boxed release
//! closure), then immediately starts applying the next round. The sync
//! thread appends, fsyncs per the [`FsyncMode`], and only then runs the
//! release — so the fsync of group N overlaps the apply of group N+1
//! while every ack still waits for its durability point. The same queue
//! carries snapshot-rotation control messages: a `Job::SnapshotStarted`
//! marker makes the sync thread buffer every later frame in memory, and
//! the `Job::Rotate` that follows a successful snapshot install rewrites
//! the log as `header(snapshot epoch) + buffered tail` — frames committed
//! while the snapshot was being written survive the rotation, atomically,
//! at every crash point. I/O errors never kill the server: the sync
//! thread marks the shared tracker broken, the writer stops queueing, and
//! serving degrades (loudly) to memory-only — exactly PR 7's contract.
//!
//! # Recovery
//!
//! [`Wal::open`] scans the file frame by frame and stops at the first
//! sign of damage — a truncated header-or-body, an absurd length, a CRC
//! mismatch, invalid UTF-8, or a non-monotonic epoch — then truncates the
//! file back to the last valid frame boundary and reports what it cut.
//! A crash mid-append (the expected failure) loses at most the unacked
//! tail; a flipped bit mid-file loses the suffix from the damaged frame
//! on, never panics, and never serves a half-parsed frame.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

pub use crate::crc::{crc32, Crc32};
use crate::publish::DurTracker;

/// File magic: 8 bytes, version-suffixed.
pub const WAL_MAGIC: &[u8; 8] = b"IVMEWAL1";

/// Header size: magic + base epoch.
const HEADER_LEN: u64 = 16;

/// Frame prefix: len + crc + epoch.
const FRAME_PREFIX: usize = 16;

/// Upper bound on a single frame payload. Far above any real command
/// batch; a "length" beyond it is treated as corruption, not an
/// allocation request.
const MAX_FRAME: u32 = 1 << 30;

/// When the writer calls `fsync` on the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncMode {
    /// Never fsync — the OS page cache decides. Fastest; a crash can lose
    /// acked writes (but never corrupt the recoverable prefix).
    None,
    /// One fsync per committed group, after all of the round's frames —
    /// durability amortized exactly like the group-commit round itself.
    Group,
}

impl FsyncMode {
    /// Parses the `--fsync` flag value.
    pub fn parse(s: &str) -> Result<FsyncMode, String> {
        match s {
            "none" => Ok(FsyncMode::None),
            "group" => Ok(FsyncMode::Group),
            other => Err(format!("unknown fsync mode `{other}` (none|group)")),
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            FsyncMode::None => "none",
            FsyncMode::Group => "group",
        }
    }
}

/// One decoded WAL frame: the epoch of the commit round it belongs to and
/// its command text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub epoch: u64,
    pub text: String,
}

/// Splits scanned frames into commit rounds: maximal runs sharing an
/// epoch (the scan guarantees epochs never decrease).
pub fn rounds(frames: &[Frame]) -> impl Iterator<Item = &[Frame]> {
    frames.chunk_by(|a, b| a.epoch == b.epoch)
}

/// What [`Wal::open`] found: the replayable frames plus a description of
/// any damaged tail it truncated away.
#[derive(Default)]
pub struct Recovered {
    pub frames: Vec<Frame>,
    /// `Some(reason)` when the file was cut back to the last valid frame.
    pub truncated: Option<String>,
}

/// An open write-ahead log positioned for appends.
pub struct Wal {
    file: File,
    path: PathBuf,
    base_epoch: u64,
    frames: u64,
    last_epoch: u64,
    /// Wall time of the most recent fsync, in microseconds.
    last_fsync_us: u64,
    /// Reusable frame-encoding buffer: one allocation for the life of the
    /// log instead of one per append.
    buf: Vec<u8>,
}

/// Encodes one frame (prefix + payload) into `buf`, clearing it first.
fn encode_frame(buf: &mut Vec<u8>, epoch: u64, payload: &[u8]) {
    buf.clear();
    buf.reserve(FRAME_PREFIX + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&epoch.to_le_bytes());
    crc.update(payload);
    buf.extend_from_slice(&crc.finish().to_le_bytes());
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(payload);
}

impl Wal {
    /// Creates a fresh log at `path` continuing from `base_epoch`,
    /// replacing any existing file atomically (write a sibling temp file,
    /// fsync it, rename over). Used both for first boot and for the
    /// truncate-after-snapshot rotation: if the process dies between the
    /// snapshot rename and this rotation, the old log's frames are all
    /// `≤ base_epoch` and replay skips them.
    pub fn create(path: &Path, base_epoch: u64) -> io::Result<Wal> {
        let tmp = path.with_extension("tmp");
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(WAL_MAGIC)?;
        file.write_all(&base_epoch.to_le_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_dir(path)?;
        // Reopen through the final path so the handle survives the rename
        // on platforms where it would not.
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file,
            path: path.to_owned(),
            base_epoch,
            frames: 0,
            last_epoch: base_epoch,
            last_fsync_us: 0,
            buf: Vec::new(),
        })
    }

    /// Opens an existing log, scanning and validating every frame.
    /// Damage truncates the file back to the last valid frame boundary
    /// (see the module docs); a bad *header* is an error instead — a log
    /// whose provenance is unreadable should stop the boot, not be
    /// silently discarded.
    pub fn open(path: &Path) -> io::Result<(Wal, Recovered)> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = scan_bytes(path, &bytes)?;
        let truncated = if scan.cut < bytes.len() {
            let reason = format!(
                "{}: {} — truncating {} damaged byte(s) at offset {}, keeping {} valid frame(s)",
                path.display(),
                scan.damage.as_deref().unwrap_or("torn tail record"),
                bytes.len() - scan.cut,
                scan.cut,
                scan.frames.len(),
            );
            file.set_len(scan.cut as u64)?;
            file.sync_all()?;
            Some(reason)
        } else {
            None
        };
        file.seek(SeekFrom::Start(scan.cut as u64))?;
        let wal = Wal {
            file,
            path: path.to_owned(),
            base_epoch: scan.base_epoch,
            frames: scan.frames.len() as u64,
            last_epoch: scan.last_epoch,
            last_fsync_us: 0,
            buf: Vec::new(),
        };
        Ok((
            wal,
            Recovered {
                frames: scan.frames,
                truncated,
            },
        ))
    }

    /// The snapshot epoch this log continues from.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Frames currently in the log (recovered + appended).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The epoch of the newest frame, or the base epoch for an empty log —
    /// the durable frontier the log can recover up to.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Wall time of the most recent [`Wal::sync`], in microseconds.
    pub fn last_fsync_us(&self) -> u64 {
        self.last_fsync_us
    }

    /// The log's path (rotation rewrites it in place).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one frame. Epochs must be non-decreasing (frames of one
    /// commit round share the round's epoch). Not yet durable: call
    /// [`Wal::sync`] per the configured [`FsyncMode`].
    pub fn append(&mut self, epoch: u64, text: &str) -> io::Result<()> {
        debug_assert!(epoch >= self.last_epoch, "WAL epochs must be monotonic");
        let payload = text.as_bytes();
        assert!(payload.len() as u64 <= MAX_FRAME as u64, "oversized frame");
        let mut buf = std::mem::take(&mut self.buf);
        encode_frame(&mut buf, epoch, payload);
        let res = self.file.write_all(&buf);
        self.buf = buf;
        res?;
        self.frames += 1;
        self.last_epoch = epoch;
        Ok(())
    }

    /// Flushes the log to stable storage, recording the fsync's wall time
    /// (surfaced as `last_fsync_us` in `stats`).
    pub fn sync(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        self.file.sync_all()?;
        self.last_fsync_us = t0.elapsed().as_micros() as u64;
        Ok(())
    }

    /// Rotates the log to continue from `base_epoch` (a just-installed
    /// snapshot's epoch), preserving `tail` — frames committed *while*
    /// the snapshot was being written, whose epochs exceed the snapshot's.
    /// The replacement is built as a sibling temp file (header + surviving
    /// tail frames), fsynced, and renamed over the old log, so every crash
    /// point leaves either the old complete log or the new complete one.
    pub fn rotate(&mut self, base_epoch: u64, tail: &[(u64, String)]) -> io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        let mut out = Vec::with_capacity(HEADER_LEN as usize);
        out.extend_from_slice(WAL_MAGIC);
        out.extend_from_slice(&base_epoch.to_le_bytes());
        let mut frames = 0u64;
        let mut last_epoch = base_epoch;
        let mut buf = std::mem::take(&mut self.buf);
        for (epoch, text) in tail {
            if *epoch <= base_epoch {
                continue; // already covered by the snapshot
            }
            encode_frame(&mut buf, *epoch, text.as_bytes());
            out.extend_from_slice(&buf);
            frames += 1;
            last_epoch = *epoch;
        }
        self.buf = buf;
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&out)?;
        file.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        sync_dir(&self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.base_epoch = base_epoch;
        self.frames = frames;
        self.last_epoch = last_epoch;
        Ok(())
    }
}

/// What the frame scan found in a byte image of a log.
struct Scan {
    base_epoch: u64,
    frames: Vec<Frame>,
    /// Byte offset of the first torn/damaged byte; `bytes.len()` when the
    /// whole file is valid frames.
    cut: usize,
    /// Why the scan stopped early, when a reason beyond a bare torn tail
    /// is known.
    damage: Option<String>,
    /// Epoch of the newest valid frame (the base epoch for an empty log).
    last_epoch: u64,
}

/// The frame scan shared by [`Wal::open`] (which then repairs damage in
/// place) and the read-only [`scan`]: walk the frames in order and stop
/// at the first that is torn, absurdly long, fails its CRC, is not UTF-8
/// or moves the epoch backwards — a bad frame invalidates everything
/// after it.
fn scan_bytes(path: &Path, bytes: &[u8]) -> io::Result<Scan> {
    if bytes.len() < HEADER_LEN as usize || &bytes[..8] != WAL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not an IVMEWAL1 file", path.display()),
        ));
    }
    let base_epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let mut frames = Vec::new();
    let mut last_epoch = base_epoch;
    let mut pos = HEADER_LEN as usize;
    let mut damage: Option<String> = None;
    // A bare prefix fragment or a payload cut short is the expected
    // crash-mid-append shape: a torn tail, no reason recorded.
    while bytes.len() - pos >= FRAME_PREFIX {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        if len > MAX_FRAME {
            damage = Some(format!("absurd frame length {len}"));
            break;
        }
        let end = pos + FRAME_PREFIX + len as usize;
        if end > bytes.len() {
            break;
        }
        match decode_frame(&bytes[pos..end]) {
            Ok(frame) if frame.epoch >= last_epoch => {
                last_epoch = frame.epoch;
                frames.push(frame);
                pos = end;
            }
            Ok(frame) => {
                damage = Some(format!(
                    "epoch went backwards ({last_epoch} -> {})",
                    frame.epoch
                ));
                break;
            }
            Err(why) => {
                damage = Some(why);
                break;
            }
        }
    }
    Ok(Scan {
        base_epoch,
        frames,
        cut: pos,
        damage,
        last_epoch,
    })
}

/// CRC + UTF-8 validation of one length-delimited frame (prefix and
/// payload).
fn decode_frame(frame: &[u8]) -> Result<Frame, String> {
    let crc_stored = u32::from_le_bytes(frame[4..8].try_into().unwrap());
    let epoch = u64::from_le_bytes(frame[8..16].try_into().unwrap());
    let crc = crc32(&frame[8..]);
    if crc != crc_stored {
        return Err(format!("CRC mismatch ({crc:08x} != {crc_stored:08x})"));
    }
    match std::str::from_utf8(&frame[FRAME_PREFIX..]) {
        Ok(text) => Ok(Frame {
            epoch,
            text: text.to_owned(),
        }),
        Err(_) => Err("frame payload is not UTF-8".to_owned()),
    }
}

/// Read-only scan of a WAL file: the valid frames and the base epoch,
/// with damage (or a torn tail) simply cut off — the file is never
/// opened for writing, let alone repaired.
///
/// This is the replication bootstrap's view of the primary's log. It is
/// safe to run *concurrently with the live sync thread appending*: an
/// append in progress at read time shows up as a torn tail — or, between
/// two frames of one round, as a round missing its last frames — so the
/// bootstrap ships only the rounds the hub had already fanned out when
/// the follower registered, and the round being appended reaches the
/// follower whole through the live broadcast channel instead (see
/// [`crate::repl`]).
pub fn scan(path: &Path) -> io::Result<(u64, Vec<Frame>)> {
    let bytes = std::fs::read(path)?;
    let scan = scan_bytes(path, &bytes)?;
    Ok((scan.base_epoch, scan.frames))
}

/// fsyncs the directory containing `path`, making a just-renamed file's
/// directory entry durable (Linux allows opening a directory read-only
/// for exactly this).
pub fn sync_dir(path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// The commit pipeline: a dedicated sync thread owns the Wal
// ----------------------------------------------------------------------

/// Runs a round's held-back acks once its durability point is reached
/// (or once durability is knowingly abandoned — degraded mode acks too,
/// exactly as PR 7's broken-WAL path did).
pub(crate) type Release = Box<dyn FnOnce() + Send>;

/// A test-only barrier hook (`TestHooks` in the crate root): called with
/// the epoch about to be processed, *before* any byte reaches the file.
pub(crate) type BarrierHook = Arc<dyn Fn(u64) + Send + Sync>;

/// What travels from the writer (and the snapshot thread) to the sync
/// thread. One mpsc queue gives causal ordering for free: the
/// `SnapshotStarted` marker a writer sends before dispatching a snapshot
/// is dequeued before any commit the writer sends after it.
pub(crate) enum Job {
    /// One committed round: append the frames at `epoch`, fsync per mode,
    /// then run `release` (the round's acks).
    Commit {
        epoch: u64,
        frames: Vec<String>,
        release: Release,
    },
    /// A background snapshot was just dispatched: start buffering every
    /// later frame in memory so the rotation that follows the install can
    /// carry them into the fresh log.
    SnapshotStarted,
    /// The snapshot failed; stop buffering (the log keeps growing, which
    /// is safe — it still holds everything).
    SnapshotAborted,
    /// A snapshot at `base_epoch` was installed: rewrite the log as
    /// `header(base_epoch) + buffered tail`.
    Rotate { base_epoch: u64 },
    /// fsync now regardless of mode, then signal. Doubles as a barrier:
    /// when the signal comes back, every previously queued job has run.
    Flush { done: mpsc::Sender<()> },
}

/// Writer-side handle to the sync thread. Dropping it closes the queue
/// and joins the thread — which first drains every queued job, so an
/// in-process stop loses nothing that was handed over.
pub(crate) struct WalPipeline {
    tx: Option<mpsc::Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

impl WalPipeline {
    /// Moves `wal` onto a dedicated sync thread and returns the handle.
    /// With a `hub`, every durable round is also fanned out to connected
    /// replication followers — from this thread, *after* the round's
    /// durability point, so a follower can never see a commit the primary
    /// could still lose.
    pub fn start(
        wal: Wal,
        mode: FsyncMode,
        tracker: Arc<DurTracker>,
        hook: Option<BarrierHook>,
        hub: Option<Arc<crate::repl::ReplHub>>,
    ) -> io::Result<WalPipeline> {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("ivme-wal-sync".into())
            .spawn(move || sync_loop(wal, mode, rx, tracker, hook, hub))?;
        Ok(WalPipeline {
            tx: Some(tx),
            handle: Some(handle),
        })
    }

    /// Enqueues a job; gives it back if the sync thread is gone (it
    /// panicked or its queue closed) so the caller can degrade.
    pub fn send(&self, job: Job) -> Result<(), Job> {
        match self.tx.as_ref().expect("pipeline running").send(job) {
            Ok(()) => Ok(()),
            Err(mpsc::SendError(job)) => Err(job),
        }
    }

    /// A sender clone for the snapshot thread (`Rotate`/`SnapshotAborted`).
    pub fn sender(&self) -> mpsc::Sender<Job> {
        self.tx.as_ref().expect("pipeline running").clone()
    }

    /// Queues a `Flush` and waits for it: on return every job enqueued
    /// before this call has been processed and the log is fsynced.
    /// Returns `false` if the sync thread is gone.
    pub fn flush(&self) -> bool {
        let (done_tx, done_rx) = mpsc::channel();
        if self.send(Job::Flush { done: done_tx }).is_err() {
            return false;
        }
        done_rx.recv().is_ok()
    }
}

impl Drop for WalPipeline {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            // The thread drains its queue before exiting; a panicked
            // thread (fault injection) just yields an Err we ignore.
            let _ = h.join();
        }
    }
}

/// The sync thread: sole owner of the [`Wal`] after boot.
fn sync_loop(
    mut wal: Wal,
    mode: FsyncMode,
    rx: mpsc::Receiver<Job>,
    tracker: Arc<DurTracker>,
    hook: Option<BarrierHook>,
    hub: Option<Arc<crate::repl::ReplHub>>,
) {
    // Frames appended while a background snapshot is being serialized;
    // `Rotate` carries them into the fresh log.
    let mut tail: Option<Vec<(u64, String)>> = None;
    while let Ok(job) = rx.recv() {
        match job {
            Job::Commit {
                epoch,
                frames,
                release,
            } => {
                if tracker.is_broken() {
                    release();
                    continue;
                }
                if let Some(h) = &hook {
                    h(epoch);
                }
                match append_round(&mut wal, mode, epoch, &frames) {
                    Ok(()) => {
                        // Fan the durable round out to followers — a
                        // bounded `try_send` per follower, never a block:
                        // a follower that cannot keep up is disconnected
                        // here rather than allowed to stall commits.
                        if let Some(h) = &hub {
                            h.broadcast_round(epoch, &frames);
                        }
                        if let Some(t) = tail.as_mut() {
                            t.extend(frames.into_iter().map(|f| (epoch, f)));
                        }
                        tracker.record_durable(epoch, wal.frames(), wal.last_fsync_us());
                    }
                    Err(e) => {
                        eprintln!(
                            "ivme-server: WAL write failed ({e}); continuing WITHOUT durability — \
                             commits from here on will not survive a crash"
                        );
                        tracker.set_broken();
                    }
                }
                release();
            }
            Job::SnapshotStarted => tail = Some(Vec::new()),
            Job::SnapshotAborted => tail = None,
            Job::Rotate { base_epoch } => {
                let keep = tail.take().unwrap_or_default();
                if tracker.is_broken() {
                    continue;
                }
                match wal.rotate(base_epoch, &keep) {
                    Ok(()) => tracker.record_rotate(wal.frames()),
                    Err(e) => {
                        eprintln!(
                            "ivme-server: WAL rotation failed ({e}); continuing WITHOUT \
                             durability — the log can no longer rotate"
                        );
                        tracker.set_broken();
                    }
                }
            }
            Job::Flush { done } => {
                if !tracker.is_broken() {
                    match wal.sync() {
                        Ok(()) => {
                            tracker.record_durable(
                                wal.last_epoch(),
                                wal.frames(),
                                wal.last_fsync_us(),
                            );
                        }
                        Err(e) => {
                            eprintln!(
                                "ivme-server: WAL fsync failed ({e}); continuing WITHOUT durability"
                            );
                            tracker.set_broken();
                        }
                    }
                }
                let _ = done.send(());
            }
        }
    }
}

/// Appends one round's frames and fsyncs per the mode — the durability
/// point every ack in the round waits behind.
fn append_round(wal: &mut Wal, mode: FsyncMode, epoch: u64, frames: &[String]) -> io::Result<()> {
    for f in frames {
        wal.append(epoch, f)?;
    }
    if matches!(mode, FsyncMode::Group) {
        wal.sync()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("ivme_wal_{}_{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let path = tmp("roundtrip");
        let mut w = Wal::create(&path, 7).unwrap();
        w.append(8, "insert R 1,2\n").unwrap();
        w.append(8, "query Q(A) :- R(A,B), S(B)\n").unwrap();
        w.append(9, ".batch begin\ninsert S 3\n.batch commit\n")
            .unwrap();
        w.sync().unwrap();
        assert_eq!(w.frames(), 3);
        drop(w);
        let (w, rec) = Wal::open(&path).unwrap();
        assert_eq!(w.base_epoch(), 7);
        assert_eq!(w.frames(), 3);
        assert!(rec.truncated.is_none());
        assert_eq!(rec.frames.len(), 3);
        assert_eq!(rec.frames[0].epoch, 8);
        assert_eq!(rec.frames[0].text, "insert R 1,2\n");
        assert_eq!(rec.frames[2].epoch, 9);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_last_valid_frame() {
        let path = tmp("torn");
        let mut w = Wal::create(&path, 0).unwrap();
        w.append(1, "insert R 1,2\n").unwrap();
        w.append(2, "insert R 3,4\n").unwrap();
        drop(w);
        let full = std::fs::metadata(&path).unwrap().len();
        // Cut the second frame short at every possible torn length.
        for cut in 1..29 {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.truncate((full - cut) as usize);
            let torn = tmp(&format!("torn_{cut}"));
            std::fs::write(&torn, &bytes).unwrap();
            let (w2, rec) = Wal::open(&torn).unwrap();
            assert_eq!(rec.frames.len(), 1, "cut {cut}");
            assert_eq!(rec.frames[0].text, "insert R 1,2\n");
            assert!(rec.truncated.is_some(), "cut {cut}");
            // The file itself was repaired: reopening is clean.
            drop(w2);
            let (mut w3, rec) = Wal::open(&torn).unwrap();
            assert!(rec.truncated.is_none(), "cut {cut}");
            assert_eq!(rec.frames.len(), 1);
            // And appendable: the next frame lands after the valid prefix.
            w3.append(5, "insert S 9\n").unwrap();
            drop(w3);
            let (_, rec) = Wal::open(&torn).unwrap();
            assert_eq!(rec.frames.len(), 2);
            assert_eq!(rec.frames[1].text, "insert S 9\n");
            std::fs::remove_file(&torn).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_bit_truncates_from_the_damaged_frame() {
        let path = tmp("flip");
        let mut w = Wal::create(&path, 0).unwrap();
        w.append(1, "insert R 1,2\n").unwrap();
        w.append(2, "insert R 3,4\n").unwrap();
        w.append(3, "insert R 5,6\n").unwrap();
        drop(w);
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit in every byte of the middle frame (prefix and
        // payload): recovery must keep exactly the first frame.
        let frame_len = (clean.len() - HEADER_LEN as usize) / 3;
        let second = HEADER_LEN as usize + frame_len;
        for off in second..second + frame_len {
            let mut bytes = clean.clone();
            bytes[off] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let (_, rec) = Wal::open(&path).unwrap();
            // A flipped *length* byte can also masquerade as a longer torn
            // frame; either way nothing past frame 1 survives and nothing
            // invalid is returned.
            assert!(rec.frames.len() <= 1, "offset {off} kept too much");
            assert!(rec.truncated.is_some(), "offset {off}");
            if let Some(f) = rec.frames.first() {
                assert_eq!(f.text, "insert R 1,2\n", "offset {off}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn absurd_length_and_bad_magic_fail_closed() {
        let path = tmp("absurd");
        let mut w = Wal::create(&path, 0).unwrap();
        w.append(1, "insert R 1,2\n").unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Append a frame whose length field claims 2 GiB.
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.frames.len(), 1);
        assert!(rec.truncated.unwrap().contains("absurd"));
        // A file that is not a WAL at all is an error, not a silent wipe.
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(Wal::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rotation_replaces_the_log_atomically() {
        let path = tmp("rotate");
        let mut w = Wal::create(&path, 0).unwrap();
        w.append(1, "insert R 1,2\n").unwrap();
        w.sync().unwrap();
        drop(w);
        let w = Wal::create(&path, 42).unwrap();
        assert_eq!(w.base_epoch(), 42);
        assert_eq!(w.frames(), 0);
        drop(w);
        let (w, rec) = Wal::open(&path).unwrap();
        assert_eq!(w.base_epoch(), 42);
        assert!(rec.frames.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rotation_preserves_the_tail_committed_during_a_snapshot() {
        let path = tmp("rotate_tail");
        let mut w = Wal::create(&path, 0).unwrap();
        // Frames 1..=5 are covered by a snapshot at epoch 5; frames 6 and
        // 7 landed while the snapshot was being written and must survive.
        for e in 1..=7u64 {
            w.append(e, &format!("insert R {e},{e}\n")).unwrap();
        }
        w.sync().unwrap();
        let tail: Vec<(u64, String)> = (5..=7)
            .map(|e| (e, format!("insert R {e},{e}\n")))
            .collect();
        // Epoch 5 in the tail is ≤ base and must be dropped, not doubled.
        w.rotate(5, &tail).unwrap();
        assert_eq!(w.base_epoch(), 5);
        assert_eq!(w.frames(), 2);
        assert_eq!(w.last_epoch(), 7);
        // And the rewritten log is appendable + reopenable.
        w.append(8, "insert R 8,8\n").unwrap();
        w.sync().unwrap();
        drop(w);
        let (w, rec) = Wal::open(&path).unwrap();
        assert_eq!(w.base_epoch(), 5);
        assert!(rec.truncated.is_none());
        let epochs: Vec<u64> = rec.frames.iter().map(|f| f.epoch).collect();
        assert_eq!(epochs, [6, 7, 8]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_only_scan_matches_open_and_never_repairs() {
        let path = tmp("scan");
        let mut w = Wal::create(&path, 3).unwrap();
        w.append(4, "insert R 1,2\n").unwrap();
        w.append(5, "insert R 3,4\n").unwrap();
        w.sync().unwrap();
        drop(w);
        let (base, frames) = scan(&path).unwrap();
        assert_eq!(base, 3);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].epoch, 5);
        // Tear the tail: the scan returns the valid prefix but leaves the
        // file byte-identical — it is someone else's live log.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (_, frames) = scan(&path).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            (bytes.len() - 5) as u64
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pipeline_releases_acks_only_after_the_append() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let path = tmp("pipeline");
        let wal = Wal::create(&path, 0).unwrap();
        let tracker = Arc::new(DurTracker::new(0, 0));
        let released = Arc::new(AtomicU64::new(0));
        let p =
            WalPipeline::start(wal, FsyncMode::Group, Arc::clone(&tracker), None, None).unwrap();
        for e in 1..=3u64 {
            let released = Arc::clone(&released);
            p.send(Job::Commit {
                epoch: e,
                frames: vec![format!("insert R {e},{e}\n")],
                release: Box::new(move || {
                    released.fetch_add(1, Ordering::SeqCst);
                }),
            })
            .unwrap_or_else(|_| panic!("sync thread gone"));
        }
        assert!(p.flush(), "flush barrier");
        assert_eq!(released.load(Ordering::SeqCst), 3);
        assert_eq!(tracker.durable(), 3);
        assert_eq!(tracker.wal_frames(), 3);
        drop(p);
        let (_, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.frames.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }
}
