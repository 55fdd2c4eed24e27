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
//! intermediate point. The CRC (IEEE 802.3, table-driven, [`crate::crc`])
//! covers the epoch and payload bytes, so a frame whose length field
//! survived a torn write but whose body did not still fails closed.
//!
//! A checkpoint file is the same encoding: a log from epoch 0 that holds
//! one round, the commands that rebuild the state ([`crate::snapshot`]).
//!
//! # What is logged, and when
//!
//! One frame per **committed unit** — a client batch that applied, or a
//! successful admin op — handed to the sync thread *after* the in-memory
//! apply and made durable *before* the ack. Rejected batches are not
//! logged: they changed nothing, so replay never meets them. The
//! durability point is therefore fsync-before-ack: an acked write is on
//! disk (in `group` mode), an unacked write may be lost with the process
//! — the same contract the ack already carried for visibility.
//!
//! # The pipeline
//!
//! Appending and fsyncing happen on a dedicated sync thread, the log's
//! only appender: `WalPipeline` moves the open [`Wal`] onto it. The writer
//! hands each committed round over in two jobs on one FIFO queue. The
//! round's `Job::Frames` goes first, *before* the writer freezes and
//! publishes the round, so the sync thread appends and fsyncs (per the
//! [`FsyncMode`]) while the publish runs. The round's `Job::Acks` — its
//! held-back acks as a boxed release closure — goes after the publish; the
//! sync thread runs it only behind that append and fsync: it records the
//! durable epoch, fans the round out to followers, then releases the
//! acks. What a reader, follower or client observes is therefore ordered
//! published → durable → broadcast → acked, while the fsync of round N
//! overlaps the publish of round N and the apply of round N+1. The same
//! queue carries the `Job::Rotate` the snapshot thread sends after an
//! install: it arrives between appends (possibly between a round's two
//! jobs), so the file is quiescent and already holds every frame a
//! rotation must keep, and [`Wal::rotate`] reads them back from the log
//! itself.
//!
//! # The failure rule
//!
//! Durability is *lost* when an append, an fsync or a rotation fails or
//! panics, or when the sync thread is gone. The sync thread marks the
//! shared tracker, and every round whose own frames did not reach the log
//! — the one that failed, and every round queued behind it — is released
//! with `durable = false`: their clients read an `err`, never an `ok`. The
//! writer refuses every later write until the server is restarted (reads
//! keep being served). A failed log never acks.
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

pub use crate::crc::{crc32, Crc32};
use crate::publish::DurTracker;
use crate::{invalid_data, Hook};

/// File magic: 8 bytes, version-suffixed.
pub const WAL_MAGIC: &[u8; 8] = b"IVMEWAL1";

/// Header size: magic + base epoch.
const HEADER_LEN: u64 = 16;

/// Frame prefix: len + crc + epoch.
const FRAME_PREFIX: usize = 16;

/// Upper bound on a single frame payload. Far above any real command
/// batch; a "length" beyond it is treated as corruption, not an
/// allocation request.
pub(crate) const MAX_FRAME: u32 = 1 << 30;

/// When the writer calls `fsync` on the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncMode {
    /// Never fsync — the OS page cache decides. Fastest; a crash can lose
    /// acked writes (but never corrupt the recoverable prefix).
    None,
    /// One fsync per committed round, after all of the round's frames —
    /// durability amortized over the round's client batches.
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

/// Appends one encoded frame (prefix + payload) to `buf`.
fn encode_frame(buf: &mut Vec<u8>, epoch: u64, payload: &[u8]) {
    buf.reserve(FRAME_PREFIX + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&epoch.to_le_bytes());
    crc.update(payload);
    buf.extend_from_slice(&crc.finish().to_le_bytes());
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(payload);
}

/// The one atomic install, shared with [`crate::snapshot`]: write `bytes`
/// to the sibling `tmp`, fsync it, rename it over `path`, fsync the
/// directory (Linux allows opening one read-only for exactly this) so the
/// rename itself is durable. Every crash point leaves either the old
/// complete file or the new complete one under the real name.
pub(crate) fn install(path: &Path, tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = File::create(tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(tmp, path)?;
    match path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        Some(dir) => File::open(dir)?.sync_all(),
        None => Ok(()),
    }
}

/// The bytes of a whole log: the header at `base_epoch`, then one round
/// of `frames` at `epoch` — what a checkpoint file holds
/// ([`crate::snapshot`]).
pub(crate) fn image(base_epoch: u64, epoch: u64, frames: &[String]) -> io::Result<Vec<u8>> {
    let mut out = Vec::from(&WAL_MAGIC[..]);
    out.extend_from_slice(&base_epoch.to_le_bytes());
    for f in frames {
        let n = f.len();
        if n > MAX_FRAME as usize {
            return Err(invalid_data(format!("a {n} byte frame is too long")));
        }
        encode_frame(&mut out, epoch, f.as_bytes());
    }
    Ok(out)
}

/// Installs `header(base_epoch) + kept` (whole, validated frames) as the
/// log at `path` and reopens it, through the final path, for appends.
fn install_log(path: &Path, base_epoch: u64, kept: &[u8]) -> io::Result<File> {
    let mut out = image(base_epoch, base_epoch, &[])?;
    out.extend_from_slice(kept);
    install(path, &path.with_extension("tmp"), &out)?;
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    file.seek(SeekFrom::End(0))?;
    Ok(file)
}

impl Wal {
    /// Creates a fresh, empty log at `path` continuing from `base_epoch`,
    /// replacing any existing file atomically — a rotation with nothing
    /// kept.
    pub fn create(path: &Path, base_epoch: u64) -> io::Result<Wal> {
        Ok(Wal {
            file: install_log(path, base_epoch, &[])?,
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
            last_epoch: scan.frames.last().map_or(scan.base_epoch, |f| f.epoch),
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

    /// Appends one frame. Epochs must be non-decreasing (frames of one
    /// commit round share the round's epoch). Not yet durable: call
    /// [`Wal::sync`] per the configured [`FsyncMode`].
    pub fn append(&mut self, epoch: u64, text: &str) -> io::Result<()> {
        debug_assert!(epoch >= self.last_epoch, "WAL epochs must be monotonic");
        let payload = text.as_bytes();
        assert!(payload.len() as u64 <= MAX_FRAME as u64, "oversized frame");
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
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
    /// snapshot's epoch), keeping the frames the snapshot does not cover —
    /// those committed *while* it was being written — by reading them
    /// back from the log itself: the caller is its only appender, so the
    /// file is quiescent and holds all of them. Epochs never decrease, so
    /// the covered frames are a prefix, skipped by frame headers alone;
    /// every kept frame is re-validated and the suffix installed as raw
    /// bytes. A walk that does not end exactly at end-of-file, or a bad
    /// kept frame, is an error that leaves the old file untouched —
    /// never a shorter log.
    pub fn rotate(&mut self, base_epoch: u64) -> io::Result<()> {
        let bytes = std::fs::read(&self.path)?;
        header(&self.path, &bytes)?;
        let bad = |why: String| invalid_data(format!("{}: {why}", self.path.display()));
        let mut pos = HEADER_LEN as usize;
        let mut keep_from = None;
        let mut frames = 0u64;
        let mut last_epoch = base_epoch;
        while let Some((end, epoch)) = frame_bounds(&bytes, pos).map_err(bad)? {
            if keep_from.is_some() || epoch > base_epoch {
                let (epoch, _) = decode_frame(&bytes[pos..end]).map_err(bad)?;
                if epoch < last_epoch {
                    return Err(bad(format!(
                        "epoch went backwards ({last_epoch} -> {epoch})"
                    )));
                }
                keep_from.get_or_insert(pos);
                frames += 1;
                last_epoch = epoch;
            }
            pos = end;
        }
        if pos != bytes.len() {
            return Err(bad(format!("torn frame at offset {pos}")));
        }
        self.file = install_log(&self.path, base_epoch, &bytes[keep_from.unwrap_or(pos)..])?;
        self.base_epoch = base_epoch;
        self.frames = frames;
        self.last_epoch = last_epoch;
        Ok(())
    }
}

/// The `N` little-endian bytes at `at` (which the caller has bounded).
fn le<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut le = [0; N];
    le.copy_from_slice(&bytes[at..at + N]);
    le
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
}

/// The base epoch in a log image's header, or why it is not a log.
fn header(path: &Path, bytes: &[u8]) -> io::Result<u64> {
    if bytes.len() < HEADER_LEN as usize || &bytes[..8] != WAL_MAGIC {
        return Err(invalid_data(format!(
            "{}: not an IVMEWAL1 file",
            path.display()
        )));
    }
    Ok(u64::from_le_bytes(le(bytes, 8)))
}

/// The header arithmetic every walk over a log image shares: the frame
/// starting at `pos` as `(end offset, epoch)`, unvalidated. `Ok(None)`
/// when less than a whole frame is left — the clean end of the file, or
/// the expected crash-mid-append shape; `Err` for an absurd length.
fn frame_bounds(bytes: &[u8], pos: usize) -> Result<Option<(usize, u64)>, String> {
    if bytes.len() - pos < FRAME_PREFIX {
        return Ok(None);
    }
    let len = u32::from_le_bytes(le(bytes, pos));
    if len > MAX_FRAME {
        return Err(format!("absurd frame length {len}"));
    }
    let end = pos + FRAME_PREFIX + len as usize;
    Ok((end <= bytes.len()).then(|| (end, u64::from_le_bytes(le(bytes, pos + 8)))))
}

/// The frame scan shared by [`Wal::open`] (which then repairs damage in
/// place) and the read-only [`scan`]: walk the frames in order and stop
/// at the first that is torn, absurdly long, fails its CRC, is not UTF-8
/// or moves the epoch backwards — a bad frame invalidates everything
/// after it.
fn scan_bytes(path: &Path, bytes: &[u8]) -> io::Result<Scan> {
    let base_epoch = header(path, bytes)?;
    let mut frames = Vec::new();
    let mut last_epoch = base_epoch;
    let mut pos = HEADER_LEN as usize;
    // A torn tail records no reason.
    let mut damage: Option<String> = None;
    loop {
        let frame = match frame_bounds(bytes, pos) {
            Ok(Some((end, _))) => decode_frame(&bytes[pos..end]).map(|f| (end, f)),
            Ok(None) => break,
            Err(why) => Err(why),
        };
        match frame {
            Ok((end, (epoch, text))) if epoch >= last_epoch => {
                last_epoch = epoch;
                frames.push(Frame {
                    epoch,
                    text: text.to_owned(),
                });
                pos = end;
            }
            Ok((_, (epoch, _))) => {
                damage = Some(format!("epoch went backwards ({last_epoch} -> {epoch})"));
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
    })
}

/// CRC + UTF-8 validation of one length-delimited frame (prefix and
/// payload): its epoch and command text.
fn decode_frame(frame: &[u8]) -> Result<(u64, &str), String> {
    let crc_stored = u32::from_le_bytes(le(frame, 4));
    let crc = crc32(&frame[8..]);
    if crc != crc_stored {
        return Err(format!("CRC mismatch ({crc:08x} != {crc_stored:08x})"));
    }
    match std::str::from_utf8(&frame[FRAME_PREFIX..]) {
        Ok(text) => Ok((u64::from_le_bytes(le(frame, 8)), text)),
        Err(_) => Err("frame payload is not UTF-8".to_owned()),
    }
}

/// The strict read of a log image: its base epoch and frames, or why some
/// byte of it is not part of a whole, valid frame — a torn tail included.
pub(crate) fn scan_whole(path: &Path, bytes: &[u8]) -> io::Result<(u64, Vec<Frame>)> {
    let scan = scan_bytes(path, bytes)?;
    let (at, why) = (scan.cut, scan.damage.as_deref().unwrap_or("torn frame"));
    if at < bytes.len() {
        let path = path.display();
        return Err(invalid_data(format!("{path}: {why} at offset {at}")));
    }
    Ok((scan.base_epoch, scan.frames))
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

// ----------------------------------------------------------------------
// The commit pipeline: a dedicated sync thread owns the Wal
// ----------------------------------------------------------------------

/// Runs a round's held-back acks with the round's outcome: `true` once
/// its durability point is reached, `false` when durability was lost
/// first — the acks then carry an `err`, never `ok`.
pub(crate) type Release = Box<dyn FnOnce(bool) + Send>;

/// What travels from the writer (and the snapshot thread) to the sync
/// thread, in one FIFO queue. The writer hands a committed round over in
/// two jobs — its `Frames` before the publish, its `Acks` after — so the
/// append and fsync run while the writer freezes and publishes.
pub(crate) enum Job {
    /// One committed round's frames: append them at `epoch` and fsync per
    /// mode.
    Frames { epoch: u64, frames: Vec<String> },
    /// The same round's acks, queued once it is published. Runs only after
    /// its `Frames` job (FIFO): records the durable epoch, fans the round
    /// out to followers, then runs `release`.
    Acks { epoch: u64, release: Release },
    /// A snapshot at `base_epoch` was installed: rewrite the log as
    /// `header(base_epoch) + the frames past it`.
    Rotate { base_epoch: u64 },
    /// Make everything appended durable (an fsync under `none`; under
    /// `group` each append already was), then signal. Doubles as a barrier:
    /// when the signal comes back, every previously queued job has run —
    /// how the snapshot thread waits for the rounds a checkpoint holds.
    Flush { done: mpsc::Sender<()> },
}

/// Writer-side handle to the sync thread. Dropping it closes the queue
/// and joins the thread — which first drains every queued job, so an
/// in-process stop loses nothing that was handed over.
pub(crate) struct WalPipeline {
    tx: mpsc::Sender<Job>,
    handle: Option<JoinHandle<()>>,
    tracker: Arc<DurTracker>,
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
        hook: Option<Hook>,
        hub: Option<Arc<crate::repl::ReplHub>>,
    ) -> io::Result<WalPipeline> {
        let (tx, rx) = mpsc::channel();
        let thread_tracker = Arc::clone(&tracker);
        let handle = std::thread::Builder::new()
            .name("ivme-wal-sync".into())
            .spawn(move || sync_loop(wal, mode, rx, &thread_tracker, hook, hub))?;
        Ok(WalPipeline {
            tx,
            handle: Some(handle),
            tracker,
        })
    }

    /// Whether durability is lost (see the module docs).
    pub fn lost(&self) -> bool {
        self.tracker.is_lost()
    }

    /// Hands a committed round's frames over, before its publish, and
    /// advertises `epoch` as handed to the log — so any read against the
    /// new snapshot already sees it in `wal_epoch`. When the sync thread
    /// is gone, durability is lost from here on, and [`WalPipeline::acks`]
    /// releases the round as not durable.
    pub fn frames(&self, epoch: u64, frames: Vec<String>) {
        self.tracker.set_inflight(epoch);
        self.send(Job::Frames { epoch, frames });
    }

    /// Hands the round's held-back acks over, after its publish. `false`
    /// when the sync thread is gone: durability is lost, and the round is
    /// released as not durable on the caller's thread.
    pub fn acks(&self, epoch: u64, release: Release) -> bool {
        self.send(Job::Acks { epoch, release })
    }

    /// Queues `job`. A gone sync thread loses durability, and an `Acks`
    /// job that cannot be queued is released as not durable right here.
    fn send(&self, job: Job) -> bool {
        let Err(mpsc::SendError(job)) = self.tx.send(job) else {
            return true;
        };
        if !self.tracker.is_lost() {
            eprintln!(
                "ivme-server: the WAL sync thread is gone; durability lost — refusing writes"
            );
            self.tracker.set_lost();
        }
        if let Job::Acks { release, .. } = job {
            release(false);
        }
        false
    }

    /// A sender clone for the snapshot thread's `Rotate`.
    pub fn sender(&self) -> mpsc::Sender<Job> {
        self.tx.clone()
    }

    /// Queues a `Flush` and waits for it: on return every job enqueued
    /// before this call has been processed and the log is fsynced.
    /// Returns `false` if the sync thread is gone.
    pub fn flush(&self) -> bool {
        let (done, done_rx) = mpsc::channel();
        self.tx.send(Job::Flush { done }).is_ok() && done_rx.recv().is_ok()
    }
}

impl Drop for WalPipeline {
    fn drop(&mut self) {
        // Close the queue by swapping in a dead sender; the thread drains
        // what was handed over and exits (a panicked one yields an `Err`).
        self.tx = mpsc::channel().0;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Runs one log operation under the failure rule: skipped once durability
/// is lost, and an error — or a panic — loses it, before the caller
/// releases the round. `true` when `op` ran and succeeded. A panic may
/// leave the [`Wal`] mid-operation; that is unobservable, because every
/// later `attempt` is skipped.
fn attempt(tracker: &DurTracker, what: &str, op: impl FnOnce() -> io::Result<()>) -> bool {
    if tracker.is_lost() {
        return false;
    }
    let res = catch_unwind(AssertUnwindSafe(op))
        .unwrap_or_else(|_| Err(io::Error::other("the operation panicked")));
    if let Err(e) = &res {
        eprintln!("ivme-server: WAL {what} failed ({e}); durability lost — refusing writes");
        tracker.set_lost();
    }
    res.is_ok()
}

/// The sync thread: sole owner of the [`Wal`] after boot.
fn sync_loop(
    mut wal: Wal,
    mode: FsyncMode,
    rx: mpsc::Receiver<Job>,
    tracker: &DurTracker,
    hook: Option<Hook>,
    hub: Option<Arc<crate::repl::ReplHub>>,
) {
    // The round whose frames are on disk and whose acks are still to
    // come: its epoch and frames, kept for the fan-out. `None` when the
    // last `Frames` job failed or was skipped.
    let mut appended: Option<(u64, Vec<String>)> = None;
    while let Ok(job) = rx.recv() {
        match job {
            Job::Frames { epoch, frames } => {
                let ok = attempt(tracker, "append", || {
                    if let Some(h) = &hook {
                        h(epoch);
                    }
                    append_round(&mut wal, mode, epoch, &frames)
                });
                appended = ok.then_some((epoch, frames));
            }
            Job::Acks { epoch, release } => {
                // Durable exactly when this round's own frames reached the
                // log: a rotation that failed in between left them in
                // whichever file holds the log.
                let durable = match appended.take() {
                    Some((e, frames)) if e == epoch => {
                        tracker.record_durable(epoch, wal.frames(), wal.last_fsync_us());
                        // Fan the durable round out to followers — a
                        // bounded `try_send` per follower, never a block:
                        // a follower that cannot keep up is disconnected
                        // here rather than allowed to stall commits.
                        if let Some(h) = &hub {
                            h.broadcast_round(epoch, &frames);
                        }
                        true
                    }
                    _ => false,
                };
                release(durable);
            }
            Job::Rotate { base_epoch } => {
                if attempt(tracker, "rotation", || wal.rotate(base_epoch)) {
                    tracker.record_rotate(wal.frames());
                }
            }
            Job::Flush { done } => {
                // Under `group` every append is synced already, so only
                // `none` has anything to sync. Only a round's acks job
                // moves the durable epoch: a flush may run between a
                // round's frames and its publish.
                let sync = || match mode {
                    FsyncMode::Group => Ok(()),
                    FsyncMode::None => wal.sync(),
                };
                if attempt(tracker, "fsync", sync) {
                    tracker.record_durable(tracker.durable(), wal.frames(), wal.last_fsync_us());
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

    /// A synced log of one frame per epoch in `epochs`.
    fn log_of(name: &str, epochs: std::ops::RangeInclusive<u64>) -> (PathBuf, Wal) {
        let path = tmp(name);
        let mut w = Wal::create(&path, 0).unwrap();
        for e in epochs {
            w.append(e, &format!("insert R {e},{e}\n")).unwrap();
        }
        w.sync().unwrap();
        (path, w)
    }

    #[test]
    fn rotation_preserves_the_tail_committed_during_a_snapshot() {
        // Frames 1..=5 are covered by a snapshot at epoch 5; frames 6 and
        // 7 landed while the snapshot was being written and must survive
        // — read back from the log itself.
        let (path, mut w) = log_of("rotate_tail", 1..=7);
        w.rotate(5).unwrap();
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
        assert_eq!(rec.frames[0].text, "insert R 6,6\n");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rotation_past_the_last_epoch_leaves_an_empty_appendable_log() {
        for base in [3u64, 9] {
            let (path, mut w) = log_of(&format!("rotate_all_{base}"), 1..=3);
            w.rotate(base).unwrap();
            assert_eq!(
                (w.base_epoch(), w.frames(), w.last_epoch()),
                (base, 0, base)
            );
            assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
            w.append(base + 1, "insert S 1\n").unwrap();
            drop(w);
            let (w, rec) = Wal::open(&path).unwrap();
            assert_eq!(w.base_epoch(), base);
            assert!(rec.truncated.is_none());
            assert_eq!(rec.frames.len(), 1);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn rotation_refuses_a_damaged_kept_suffix_and_leaves_the_log_untouched() {
        let (path, mut w) = log_of("rotate_damage", 1..=4);
        let clean = std::fs::read(&path).unwrap();
        let frame_len = (clean.len() - HEADER_LEN as usize) / 4;
        // One flipped payload bit in the frame of epoch `e`.
        let flipped = |e: usize| {
            let mut bytes = clean.clone();
            bytes[HEADER_LEN as usize + (e - 1) * frame_len + FRAME_PREFIX + 3] ^= 0x10;
            bytes
        };
        // In a kept frame, or with the final frame torn, rotating would
        // lose an acked write: it fails, the file stays byte-identical.
        for damaged in [flipped(3), clean[..clean.len() - 5].to_vec()] {
            std::fs::write(&path, &damaged).unwrap();
            assert!(w.rotate(2).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), damaged);
            assert_eq!((w.base_epoch(), w.frames()), (0, 4));
        }
        // In a *covered* frame it does not matter: the snapshot holds
        // that content and the frame is dropped anyway.
        std::fs::write(&path, flipped(1)).unwrap();
        w.rotate(2).unwrap();
        drop(w);
        let (_, rec) = Wal::open(&path).unwrap();
        assert!(rec.truncated.is_none());
        let epochs: Vec<u64> = rec.frames.iter().map(|f| f.epoch).collect();
        assert_eq!(epochs, [3, 4]);
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

    /// A round's two jobs: the frames job appends and fsyncs but neither
    /// records the round durable nor releases it; the acks job, run behind
    /// it, does both. A rotation landing between the two keeps the frame.
    #[test]
    fn pipeline_releases_acks_only_after_the_append() {
        use std::sync::Mutex;
        use std::time::Duration;
        let path = tmp("pipeline");
        let wal = Wal::create(&path, 0).unwrap();
        let tracker = Arc::new(DurTracker::new(0, 0, 0));
        let released = Arc::new(Mutex::new(Vec::new()));
        let p =
            WalPipeline::start(wal, FsyncMode::Group, Arc::clone(&tracker), None, None).unwrap();
        for e in 1..=3u64 {
            p.frames(e, vec![format!("insert R {e},{e}\n")]);
            // Once the frame is in the file, the frames job has done all
            // it does: the round is neither recorded durable nor released.
            let deadline = Instant::now() + Duration::from_secs(10);
            while scan(&path).unwrap().1.last().map(|f| f.epoch) != Some(e) {
                assert!(Instant::now() < deadline, "round {e} never reached the log");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(released.lock().unwrap().len() as u64, e - 1);
            assert!(
                tracker.durable() < e,
                "round {e} durable before its acks job"
            );
            // A checkpoint of the previous round installs in between.
            p.sender().send(Job::Rotate { base_epoch: e - 1 }).unwrap();
            let outcomes = Arc::clone(&released);
            let release: Release = Box::new(move |durable| outcomes.lock().unwrap().push(durable));
            assert!(p.acks(e, release), "sync thread gone");
            assert!(p.flush(), "flush barrier");
            assert_eq!(*released.lock().unwrap(), vec![true; e as usize]);
            assert_eq!(tracker.durable(), e);
            assert_eq!(tracker.wal_frames(), 1, "the rotation kept round {e}");
        }
        drop(p);
        let (w, rec) = Wal::open(&path).unwrap();
        assert_eq!(w.base_epoch(), 2);
        assert_eq!(
            rec.frames,
            [Frame {
                epoch: 3,
                text: "insert R 3,3\n".to_owned()
            }]
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// A panic outside `attempt` — here in a round's release — kills the
    /// sync thread without marking anything. The next round's hand-off
    /// finds the thread gone: it loses durability and releases that round
    /// as not durable, on the caller's thread.
    #[test]
    fn a_dead_sync_thread_loses_durability_at_the_next_commit() {
        use std::sync::atomic::{AtomicU8, Ordering};
        let path = tmp("dead_thread");
        let wal = Wal::create(&path, 0).unwrap();
        let tracker = Arc::new(DurTracker::new(0, 0, 0));
        let p = WalPipeline::start(wal, FsyncMode::None, Arc::clone(&tracker), None, None).unwrap();
        let frames = || vec!["insert R 1,1\n".to_owned()];
        p.frames(1, frames());
        assert!(p.acks(1, Box::new(|_| panic!("release panics"))));
        assert!(!p.flush(), "the sync thread outlived its panic");
        assert!(!p.lost(), "nothing has noticed the dead thread yet");
        // The next round's frames find the thread gone ...
        p.frames(2, frames());
        assert!(p.lost());
        // ... and its acks are released not durable, right here.
        // 0 = not released, 1 = released not durable, 2 = released durable.
        let outcome = Arc::new(AtomicU8::new(0));
        let seen = Arc::clone(&outcome);
        let release: Release = Box::new(move |durable| {
            seen.store(1 + u8::from(durable), Ordering::SeqCst);
        });
        assert!(!p.acks(2, release));
        assert_eq!(outcome.load(Ordering::SeqCst), 1);
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }
}
