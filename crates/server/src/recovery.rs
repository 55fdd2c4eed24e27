//! Replay: decoding WAL frames back into the operations they committed,
//! applying them a commit round at a time, and the boot-time recovery
//! built on both.
//!
//! A frame's payload is `proto` command text, so replay runs it through
//! the interpreter that produced the frame live ([`ivme_cli::session`]).
//! There is exactly one replay step — [`OwnedState::apply_round`] — and
//! two callers: boot recovery ([`recover`], rounds read back from
//! `wal.log`) and a replica's follower thread (the same rounds, streamed by
//! the primary).

use std::io;
use std::path::Path;

use ivme_cli::proto;
use ivme_cli::session::{AdminOp, Applied, Staging, Step, Write};

use crate::publish::Status;
use crate::snapshot;
use crate::wal::{self, Wal};
use crate::writer::OwnedState;

impl OwnedState {
    /// Replays one commit round: every frame in order, then the epoch.
    /// On an error the epoch stays where it was — the state is then
    /// between two rounds and must not be published.
    pub(crate) fn apply_round<'a>(
        &mut self,
        epoch: u64,
        frames: impl IntoIterator<Item = &'a str>,
    ) -> Result<(), String> {
        for text in frames {
            self.apply_frame(text)?;
        }
        self.epoch = epoch;
        Ok(())
    }

    /// Applies one WAL frame's command text, line by line, through the
    /// interpreter that produced it live. Frames are one committed unit
    /// each: a `.batch begin … commit` script, a run of `row` lines, or a
    /// single admin command — anything else in a frame is refused. A run
    /// of `row` lines of one relation is the one `row`/`load` op that
    /// logged it, so a built engine inserts it as one batch, as it did
    /// live. A CRC-valid frame that fails here is a logic error or
    /// corruption of a different kind (it committed once): boot refuses
    /// to start and a replica freezes, rather than serve a diverged state.
    fn apply_frame(&mut self, text: &str) -> Result<(), String> {
        let mut staging = Staging::default();
        let mut run: Option<AdminOp> = None;
        for line in text.lines() {
            let refuse = || format!("unreplayable command in WAL: {}", line.trim());
            // A line that does not parse (say `.shards`, from an older
            // log) refuses the frame, naming it.
            let parsed = proto::parse_command(line).map_err(|e| format!("{} ({e})", refuse()))?;
            let Some(cmd) = parsed else {
                continue;
            };
            // Frames never name files: the loader refuses before any path
            // is opened.
            let step = match (Step::of(cmd, |_| Err(refuse()))?, &mut run) {
                (
                    Step::Admin(AdminOp::Rows { relation, rows }),
                    Some(AdminOp::Rows {
                        relation: r,
                        rows: acc,
                    }),
                ) if *r == relation => {
                    acc.extend(rows);
                    continue;
                }
                (step, _) => step,
            };
            run.take().map(|op| self.session.admin(op)).transpose()?;
            match step {
                Step::Admin(op @ AdminOp::Rows { .. }) => run = Some(op),
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
        run.map(|op| self.session.admin(op)).transpose()?;
        if staging.is_open() {
            return Err("unterminated `.batch begin` in WAL frame".into());
        }
        Ok(())
    }
}

/// Crash recovery, run synchronously before the listener binds: restore
/// the newest valid snapshot in `dir` into `state`, then replay the WAL
/// frames newer than it, in epoch order. A damaged WAL tail is truncated
/// at the last valid frame; a gap between snapshot and log, or a frame
/// that fails to apply, refuses the boot. Returns the log, open for
/// appends, and the number of commit rounds replayed (`recovered_groups`
/// in `stats`); the serve-layer counters in `status` are seeded from the
/// snapshot and advanced by the replay — cumulative across restarts.
pub(crate) fn recover(
    dir: &Path,
    state: &mut OwnedState,
    status: &mut Status,
) -> io::Result<(Wal, u64)> {
    std::fs::create_dir_all(dir)?;
    let (snap, warnings) = snapshot::load_latest(dir)?;
    for w in &warnings {
        eprintln!("ivme-server: {w}");
    }
    let snap_epoch = snap.as_ref().map_or(0, |s| s.epoch);
    if let Some(s) = snap {
        let (commits, batches) = s.serve_stats;
        *status.group_commits.get_mut() = commits;
        *status.grouped_batches.get_mut() = batches;
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
    // Rounds at or below the snapshot epoch were already checkpointed
    // (the process died between the snapshot rename and the WAL
    // rotation): skip, don't double-apply. A crash-torn last round is
    // simply a shorter round.
    for round in wal::rounds(&log.frames).filter(|r| r[0].epoch > snap_epoch) {
        let epoch = round[0].epoch;
        state
            .apply_round(epoch, round.iter().map(|f| f.text.as_str()))
            .map_err(|e| crate::invalid_data(format!("WAL replay failed at epoch {epoch}: {e}")))?;
        groups += 1;
        // One batch frame is one committed client batch, and a round's
        // frames share its epoch: both counters come back exactly.
        let is_batch = |f: &&wal::Frame| f.text.starts_with(".batch begin");
        let batches = round.iter().filter(is_batch).count() as u64;
        *status.group_commits.get_mut() += u64::from(batches > 0);
        *status.grouped_batches.get_mut() += batches;
    }
    if groups > 0 {
        eprintln!(
            "ivme-server: recovered {} commit round(s) ({} frame(s)) from {}",
            groups,
            wal.frames(),
            wal_path.display()
        );
    }
    Ok((wal, groups))
}
