//! Replay: decoding WAL frames back into the operations they committed,
//! applying them, and the boot-time recovery built on both.
//!
//! A frame's payload is `proto` command text, so replay runs it through
//! the interpreter that produced the frame live ([`ivme_cli::session`]).
//! There is exactly one replayer — [`OwnedState::apply_frame`] — and two
//! callers: boot recovery ([`recover`], frames read back from `wal.log`)
//! and a replica's apply thread (the same frames, streamed by the
//! primary).

use std::io;
use std::path::Path;

use ivme_cli::proto;
use ivme_cli::session::{Applied, Staging, Step, Write};

use crate::snapshot;
use crate::wal::{self, Wal};
use crate::writer::OwnedState;

impl OwnedState {
    /// Applies one WAL frame's command text, line by line, through the
    /// interpreter that produced it live. Frames are one committed unit
    /// each: a `.batch begin … commit` script, a run of `row` lines, or a
    /// single admin command — anything else in a frame is refused. A
    /// CRC-valid frame that fails here is a logic error or corruption of
    /// a different kind (it committed once): boot refuses to start and a
    /// replica freezes, rather than serve a diverged state.
    pub(crate) fn apply_frame(&mut self, text: &str) -> Result<(), String> {
        let mut staging = Staging::default();
        for line in text.lines() {
            let Some(cmd) = proto::parse_command(line)? else {
                continue;
            };
            let refuse = || format!("unreplayable command in WAL: {}", line.trim());
            // Frames never name files: the loader refuses before any path
            // is opened.
            match Step::of(cmd, |_| Err(refuse()))? {
                Step::Admin(op) => {
                    self.session.admin(op)?;
                }
                Step::Write(w @ (Write::Update(_) | Write::Begin | Write::Commit)) => {
                    staging.execute(w, self.session.is_built(), |batch| {
                        self.session.apply(&batch).map(|()| Applied::default())
                    })?;
                }
                _ => return Err(refuse()),
            }
        }
        if staging.is_open() {
            return Err("unterminated `.batch begin` in WAL frame".into());
        }
        Ok(())
    }
}

/// What [`recover`] hands back: the log, open and positioned for
/// appends, plus the counters replay re-derived.
pub(crate) struct Recovery {
    pub(crate) wal: Wal,
    /// Distinct commit rounds replayed (`recovered_groups` in `stats`).
    pub(crate) groups: u64,
    /// Serve-layer counters (group commits, grouped batches, retries):
    /// seeded from the snapshot, advanced by replay.
    pub(crate) serve_seed: (u64, u64, u64),
}

/// Crash recovery, run synchronously before the listener binds: restore
/// the newest valid snapshot in `dir` into `state`, then replay the WAL
/// frames newer than it, in epoch order. A damaged WAL tail is truncated
/// at the last valid frame; a gap between snapshot and log, or a frame
/// that fails to apply, refuses the boot.
pub(crate) fn recover(dir: &Path, state: &mut OwnedState) -> io::Result<Recovery> {
    std::fs::create_dir_all(dir)?;
    let (snap, warnings) = snapshot::load_latest(dir)?;
    for w in &warnings {
        eprintln!("ivme-server: {w}");
    }
    let snap_epoch = snap.as_ref().map_or(0, |s| s.epoch);
    let mut serve_seed = (0u64, 0u64, 0u64);
    if let Some(s) = snap {
        serve_seed = s.serve_stats;
        state.restore(s).map_err(crate::invalid_data)?;
    }
    let wal_path = dir.join("wal.log");
    let (wal, log) = if wal_path.exists() {
        Wal::open(&wal_path)?
    } else {
        (
            Wal::create(&wal_path, snap_epoch)?,
            wal::Recovered::default(),
        )
    };
    if wal.base_epoch() > state.epoch {
        return Err(crate::invalid_data(format!(
            "WAL {} continues from epoch {} but the newest loadable snapshot is epoch {} — \
             refusing to serve a state with a gap",
            wal_path.display(),
            wal.base_epoch(),
            state.epoch
        )));
    }
    if let Some(reason) = &log.truncated {
        eprintln!("ivme-server: WAL damage: {reason}");
    }
    let mut groups = 0u64;
    // Frames at or below the snapshot epoch were already checkpointed
    // (the process died between the snapshot rename and the WAL
    // rotation): skip, don't double-apply.
    for f in log.frames.iter().filter(|f| f.epoch > snap_epoch) {
        state.apply_frame(&f.text).map_err(|e| {
            crate::invalid_data(format!("WAL replay failed at epoch {}: {e}", f.epoch))
        })?;
        if f.epoch != state.epoch {
            groups += 1;
        }
        if f.text.starts_with(".batch begin") {
            serve_seed.0 += 1; // one group commit…
            serve_seed.1 += 1; // …of (at least) one batch
        }
        state.epoch = f.epoch;
    }
    if groups > 0 {
        eprintln!(
            "ivme-server: recovered {} commit round(s) ({} frame(s)) from {}",
            groups,
            wal.frames(),
            wal_path.display()
        );
    }
    Ok(Recovery {
        wal,
        groups,
        serve_seed,
    })
}
