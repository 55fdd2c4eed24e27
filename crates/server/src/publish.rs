//! Epoch-stamped snapshot publishing — the std-only stand-in for
//! `arc_swap`.
//!
//! One writer repeatedly [`publish`](Published::publish)es immutable
//! values; many readers each hold a private [`Cached`] handle and call
//! [`refresh`](Published::refresh) before every use. The fast path — the
//! only path a reader ever takes while the writer is idle — is a single
//! `Acquire` load of the epoch counter followed by use of the `Arc`
//! already in the reader's cache: no lock, no contention, no allocation.
//! Only when the epoch has moved past the cached one does the reader take
//! the slot mutex, and then only long enough to clone an `Arc` (a
//! refcount increment), at most once per publish per reader.
//!
//! Readers therefore never block each other, and a writer mid-publish
//! delays a reader by at most one pointer-sized critical section — it can
//! never hold a reader for the duration of an engine operation the way
//! the old `RwLock<ShardedEngine>` did. The epoch is bumped *inside* the
//! slot lock, so a reader that observes epoch `e` and then takes the slow
//! path can never read back a value older than `e` (no ABA between the
//! load and the clone).
//!
//! Beside the cell lives what the process publishes about itself:
//! [`Status`], the one handle `stats` and `Server::serve_stats` read,
//! with the [`DurTracker`] frontiers and the replication role in it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{lock, repl, ServeStats};

/// What this process reports about itself: one per process, shared by
/// the writer (or a replica's follower thread), every connection and the
/// [`Server`](crate::Server) handle, and embedded in every published
/// [`ServeSnapshot`](crate::ServeSnapshot). Nothing here is frozen with a
/// snapshot: `stats` samples it at read time, so a quiescent server
/// converges to `durable_epoch = wal_epoch, fsync_backlog = 0`.
#[derive(Default)]
pub struct Status {
    /// Connections admitted since start.
    pub(crate) connections: AtomicU64,
    pub(crate) group_commits: AtomicU64,
    pub(crate) grouped_batches: AtomicU64,
    pub(crate) snapshots_published: AtomicU64,
    /// The durability frontiers (`None` when serving memory-only).
    pub(crate) dur: Option<Arc<DurTracker>>,
    /// The replication role (`None` when serving standalone).
    pub(crate) repl: Option<ReplRole>,
}

impl Status {
    /// The serve-layer counters as a plain copy.
    pub(crate) fn serve_stats(&self) -> ServeStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeStats {
            connections: load(&self.connections),
            group_commits: load(&self.group_commits),
            grouped_batches: load(&self.grouped_batches),
            snapshots_published: load(&self.snapshots_published),
        }
    }

    /// The durability and replication lines this process appends to
    /// `stats` (see docs/PROTOCOL.md) of a reply read from the snapshot
    /// published at `epoch`. `durable` is read *before* `inflight`:
    /// durable only ever chases inflight, so this order keeps the reported
    /// `durable_epoch ≤ wal_epoch` even when a commit lands between the
    /// two loads. A round published after `epoch` may already be durable
    /// when the tracker is read; the reply reports no durable epoch past
    /// its own snapshot, so `durable_epoch ≤ snapshot_epoch` in it too.
    pub(crate) fn stats_lines(&self, epoch: u64, out: &mut String) {
        use std::fmt::Write as _;
        if let Some(t) = &self.dur {
            let durable = t.durable().min(epoch);
            let inflight = t.inflight().max(durable);
            let _ = writeln!(
                out,
                "wal_epoch = {inflight}, durable_epoch = {durable}, fsync_backlog = {}, \
                 wal_frames = {}, last_fsync_us = {}, snapshot_in_progress = {}, \
                 recovered_groups = {}",
                inflight - durable,
                t.wal_frames(),
                t.last_fsync_us(),
                u8::from(t.snapshot_in_progress()),
                t.recovered_groups
            );
        }
        match &self.repl {
            Some(ReplRole::Primary(h)) => h.stats_lines(out),
            Some(ReplRole::Replica(s)) => s.stats_lines(out),
            None => {}
        }
    }
}

/// Which replication role this process serves in.
pub(crate) enum ReplRole {
    /// A primary with a `--repl-listen` listener: the hub registry of
    /// connected followers.
    Primary(Arc<repl::ReplHub>),
    /// A follower: the counters its follower thread maintains.
    Replica(Arc<repl::ReplicaStats>),
}

/// Shared durability frontier counters — how the writer thread, the WAL
/// sync thread, and the snapshot thread expose their progress to each
/// other (and, through [`Status`], to `stats`) without any of them taking
/// a lock.
///
/// Two epochs matter once commit is pipelined: `inflight` is the newest
/// epoch the writer has *handed to the log* (its frames are queued and the
/// round is published right after, but maybe not yet on disk), and
/// `durable` is the newest published epoch the sync thread has made
/// durable per the configured fsync mode. The
/// gap between them — `fsync_backlog` in `stats` — is the set of rounds a
/// crash right now would roll back; none of them has been acked.
pub struct DurTracker {
    /// Newest epoch handed to the WAL pipeline by the writer.
    inflight: AtomicU64,
    /// Newest epoch the sync thread has appended (and fsynced, per mode).
    durable: AtomicU64,
    /// Frames in the current (post-rotation) log.
    wal_frames: AtomicU64,
    /// Wall time of the most recent fsync, microseconds.
    last_fsync_us: AtomicU64,
    /// A background snapshot is being serialized/installed right now.
    snapshotting: AtomicBool,
    /// The log failed (append, fsync, rotation, or its thread is gone):
    /// the server refuses writes until it is restarted.
    lost: AtomicBool,
    /// Distinct commit rounds replayed from the WAL at boot.
    recovered_groups: u64,
}

impl DurTracker {
    /// Both frontiers start at the recovered epoch: everything replayed
    /// at boot is by definition already on disk.
    pub fn new(epoch: u64, wal_frames: u64, recovered_groups: u64) -> DurTracker {
        DurTracker {
            inflight: AtomicU64::new(epoch),
            durable: AtomicU64::new(epoch),
            wal_frames: AtomicU64::new(wal_frames),
            last_fsync_us: AtomicU64::new(0),
            snapshotting: AtomicBool::new(false),
            lost: AtomicBool::new(false),
            recovered_groups,
        }
    }

    pub fn set_inflight(&self, epoch: u64) {
        self.inflight.store(epoch, Ordering::Release);
    }

    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    /// Called by the sync thread once a round is published and its frames
    /// hit the disk (or the page cache, in `--fsync none`).
    pub fn record_durable(&self, epoch: u64, wal_frames: u64, fsync_us: u64) {
        self.wal_frames.store(wal_frames, Ordering::Relaxed);
        self.last_fsync_us.store(fsync_us, Ordering::Relaxed);
        self.durable.store(epoch, Ordering::Release);
    }

    pub fn durable(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Called by the sync thread after a WAL rotation (the durable
    /// frontier is unchanged — rotated-away frames are checkpointed).
    pub fn record_rotate(&self, wal_frames: u64) {
        self.wal_frames.store(wal_frames, Ordering::Relaxed);
    }

    pub fn wal_frames(&self) -> u64 {
        self.wal_frames.load(Ordering::Relaxed)
    }

    pub fn last_fsync_us(&self) -> u64 {
        self.last_fsync_us.load(Ordering::Relaxed)
    }

    pub fn begin_snapshot(&self) {
        self.snapshotting.store(true, Ordering::Release);
    }

    pub fn end_snapshot(&self) {
        self.snapshotting.store(false, Ordering::Release);
    }

    pub fn snapshot_in_progress(&self) -> bool {
        self.snapshotting.load(Ordering::Acquire)
    }

    pub fn set_lost(&self) {
        self.lost.store(true, Ordering::Release);
    }

    pub fn is_lost(&self) -> bool {
        self.lost.load(Ordering::Acquire)
    }
}

/// Writer-side cell: the current value plus its epoch.
pub struct Published<T> {
    epoch: AtomicU64,
    slot: Mutex<Arc<T>>,
}

/// Reader-side handle: the last value this reader picked up, stamped with
/// the epoch it was published at.
pub struct Cached<T> {
    epoch: u64,
    value: Arc<T>,
}

impl<T> Published<T> {
    /// Wraps `initial` as epoch 0.
    pub fn new(initial: T) -> Published<T> {
        Published {
            epoch: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(initial)),
        }
    }

    /// The epoch of the most recently published value.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes `value` as the new current snapshot; returns its epoch.
    /// Store and epoch bump happen inside the slot lock so readers on the
    /// slow path always see an epoch/value pair at least as new as the
    /// epoch that sent them there.
    pub fn publish(&self, value: T) -> u64 {
        let mut slot = lock(&self.slot);
        *slot = Arc::new(value);
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// A fresh reader handle holding the current value.
    pub fn cache(&self) -> Cached<T> {
        let slot = lock(&self.slot);
        Cached {
            // Read the epoch under the lock: pairs it with this exact Arc.
            epoch: self.epoch.load(Ordering::Acquire),
            value: Arc::clone(&slot),
        }
    }

    /// Returns the current value through `cache`, re-cloning from the
    /// slot only if a newer epoch has been published since the cache last
    /// looked. This is the per-command read entry: wait-free unless the
    /// writer published since the reader's previous command.
    pub fn refresh<'c>(&self, cache: &'c mut Cached<T>) -> &'c Arc<T> {
        let now = self.epoch.load(Ordering::Acquire);
        if now != cache.epoch {
            let slot = lock(&self.slot);
            cache.epoch = self.epoch.load(Ordering::Acquire);
            cache.value = Arc::clone(&slot);
        }
        &cache.value
    }
}

impl<T> Cached<T> {
    /// The epoch this handle's value was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The held value, without consulting the publisher — this is what
    /// "holding a snapshot" means: the value can never change under the
    /// caller.
    pub fn get(&self) -> &Arc<T> {
        &self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn refresh_sees_latest_publish_and_held_caches_stay_frozen() {
        let p = Published::new(0u64);
        let mut a = p.cache();
        let frozen = p.cache();
        assert_eq!(**p.refresh(&mut a), 0);
        for i in 1..=5u64 {
            assert_eq!(p.publish(i), i);
        }
        assert_eq!(p.epoch(), 5);
        assert_eq!(**p.refresh(&mut a), 5);
        assert_eq!(a.epoch(), 5);
        // The handle that never refreshed still serves the old value.
        assert_eq!(**frozen.get(), 0);
        assert_eq!(frozen.epoch(), 0);
    }

    #[test]
    fn refresh_without_a_publish_touches_no_lock_state() {
        let p = Published::new(7u64);
        let mut c = p.cache();
        // Poison the slot mutex via a panicking thread: the fast path must
        // still succeed because it never takes the lock.
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = p.slot.lock().unwrap();
                panic!("poison the slot");
            })
            .join()
        });
        assert!(p.slot.lock().is_err(), "slot should be poisoned");
        assert_eq!(**p.refresh(&mut c), 7);
    }

    #[test]
    fn concurrent_readers_always_see_a_published_pair() {
        let p = Arc::new(Published::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut c = p.cache();
                    let mut last = **c.get();
                    while !stop.load(Ordering::Relaxed) {
                        let v = **p.refresh(&mut c);
                        assert!(v >= last, "went backwards: {last} -> {v}");
                        last = v;
                    }
                });
            }
            for i in 1..=2000u64 {
                p.publish(i);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(p.epoch(), 2000);
    }

    #[test]
    fn stats_lines_render_the_documented_durability_line() {
        let mut out = String::new();
        Status::default().stats_lines(7, &mut out);
        assert_eq!(out, "", "a memory-only, standalone server adds nothing");
        let tracker = DurTracker::new(5, 3, 2);
        tracker.set_inflight(7);
        tracker.record_durable(6, 4, 120);
        tracker.begin_snapshot();
        let status = Status {
            dur: Some(Arc::new(tracker)),
            ..Status::default()
        };
        status.stats_lines(7, &mut out);
        // docs/PROTOCOL.md documents this line; ci.yml greps it.
        assert_eq!(
            out,
            "wal_epoch = 7, durable_epoch = 6, fsync_backlog = 1, wal_frames = 4, \
             last_fsync_us = 120, snapshot_in_progress = 1, recovered_groups = 2\n"
        );
        // A reply read from an older snapshot reports no durable epoch
        // past it.
        out.clear();
        status.stats_lines(5, &mut out);
        assert!(out.starts_with("wal_epoch = 7, durable_epoch = 5, fsync_backlog = 2,"));
    }
}
