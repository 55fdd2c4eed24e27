//! Replay: decoding logged frames back into the operations they
//! committed, applying them a commit round at a time, and the boot-time
//! recovery built on it.
//!
//! A frame's payload is `proto` command text, so replay runs it through
//! the interpreter that produced the frame live ([`ivme_cli::session`]).
//! There is exactly one replay step — [`OwnedState::apply_round`] — and
//! every way back to a state takes it: boot recovery ([`recover`]: the
//! newest checkpoint's round, then the rounds of `wal.log` past it) and a
//! replica's follower thread (a checkpoint's round, then the rounds the
//! primary streams).

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;

use ivme_cli::proto;
use ivme_cli::session::{Applied, Staging, Step, Write};

use crate::publish::Status;
use crate::snapshot;
use crate::wal::{self, Wal};
use crate::writer::OwnedState;

impl OwnedState {
    /// Replays one commit round: every frame in order, then the epoch.
    /// The serve counters in `status` advance as the round did live: one
    /// group commit when it holds a client batch, and one grouped batch
    /// per batch frame. A checkpoint's round closes with the log-only
    /// `counters` line instead, which sets them, and the engine's, outright
    /// — no front end parses it. On an error the epoch stays
    /// where it was — the state is then between two rounds and must not be
    /// published.
    pub(crate) fn apply_round<'a>(
        &mut self,
        epoch: u64,
        frames: impl IntoIterator<Item = &'a str>,
        status: &Status,
    ) -> Result<(), String> {
        let (mut batches, mut counters) = (0u64, None);
        for text in frames {
            match text.strip_prefix("counters ") {
                Some(fields) => {
                    let nums: Result<Vec<u64>, _> =
                        fields.split_whitespace().map(str::parse).collect();
                    let four = nums.ok().and_then(|n| <[u64; 4]>::try_from(n).ok());
                    counters = Some(four.ok_or_else(|| format!("bad log line: {}", text.trim()))?);
                }
                None => {
                    batches += u64::from(text.starts_with(".batch begin"));
                    self.apply_frame(text)?;
                }
            }
        }
        if let Some([updates, engine_batches, commits, grouped]) = counters {
            self.session.restore_counters(updates, engine_batches);
            status.group_commits.store(commits, Ordering::Relaxed);
            status.grouped_batches.store(grouped, Ordering::Relaxed);
        } else if batches > 0 {
            status.group_commits.fetch_add(1, Ordering::Relaxed);
            status.grouped_batches.fetch_add(batches, Ordering::Relaxed);
        }
        self.epoch = epoch;
        Ok(())
    }

    /// Applies one WAL frame's command text, line by line, through the
    /// interpreter that produced it live. Frames are one committed unit
    /// each: a `.batch begin … commit` script, a bare update, or a single
    /// admin command — anything else in a frame is refused, naming the
    /// line (a `row` frame of an older log too). A CRC-valid frame that
    /// fails here is a logic error or corruption of a different kind (it
    /// committed once): boot refuses to start and a replica freezes,
    /// rather than serve a diverged state.
    fn apply_frame(&mut self, text: &str) -> Result<(), String> {
        let mut staging = Staging::default();
        for line in text.lines() {
            let refuse = || format!("unreplayable command in WAL: {}", line.trim());
            // A line that does not parse (say `row` or `.shards`, from an
            // older log) refuses the frame, naming it.
            let parsed = proto::parse_command(line).map_err(|e| format!("{} ({e})", refuse()))?;
            let Some(cmd) = parsed else {
                continue;
            };
            // Frames never name files: the loader refuses before any path
            // is opened.
            match Step::of(cmd, |_| Err(refuse()))? {
                Step::Admin(op) => {
                    self.session.admin(op)?;
                }
                Step::Write(w @ (Write::Update(_) | Write::Begin | Write::Commit)) => {
                    staging.execute(w, |batch| {
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

/// Crash recovery, run synchronously before the listener binds: replay
/// the newest valid checkpoint's round into the fresh `state`, then the
/// WAL rounds newer than it, in epoch order. A damaged WAL tail is
/// truncated at the last valid frame; a gap between checkpoint and log,
/// or a round that fails to apply, refuses the boot. Returns the log,
/// open for appends, and the number of WAL rounds replayed
/// (`recovered_groups` in `stats`); the serve-layer counters in `status`
/// come back with the state — cumulative across restarts.
pub(crate) fn recover(
    dir: &Path,
    state: &mut OwnedState,
    status: &Status,
) -> io::Result<(Wal, u64)> {
    std::fs::create_dir_all(dir)?;
    let (checkpoint, warnings) = snapshot::load_latest(dir)?;
    for w in &warnings {
        eprintln!("ivme-server: {w}");
    }
    if let Some(cp) = checkpoint {
        state
            .apply_round(cp.epoch, cp.frames.iter().map(String::as_str), status)
            .map_err(|e| {
                crate::invalid_data(format!(
                    "checkpoint at epoch {} failed to replay: {e}",
                    cp.epoch
                ))
            })?;
    }
    let snap_epoch = state.epoch;
    let wal_path = dir.join("wal.log");
    let (wal, log) = if wal_path.exists() {
        Wal::open(&wal_path)?
    } else {
        (
            Wal::create(&wal_path, snap_epoch)?,
            wal::Recovered::default(),
        )
    };
    if wal.base_epoch() > snap_epoch {
        return Err(crate::invalid_data(format!(
            "WAL {} continues from epoch {} but the newest loadable checkpoint is epoch {} — \
             refusing to serve a state with a gap{}",
            wal_path.display(),
            wal.base_epoch(),
            snap_epoch,
            warnings
                .iter()
                .map(|w| format!("; {w}"))
                .collect::<String>()
        )));
    }
    if let Some(reason) = &log.truncated {
        eprintln!("ivme-server: WAL damage: {reason}");
    }
    let mut groups = 0u64;
    // Rounds at or below the checkpoint epoch were already checkpointed
    // (the process died between the checkpoint's rename and the WAL
    // rotation): skip, don't double-apply. A crash-torn last round is
    // simply a shorter round.
    for round in wal::rounds(&log.frames).filter(|r| r[0].epoch > snap_epoch) {
        let epoch = round[0].epoch;
        state
            .apply_round(epoch, round.iter().map(|f| f.text.as_str()), status)
            .map_err(|e| crate::invalid_data(format!("WAL replay failed at epoch {epoch}: {e}")))?;
        groups += 1;
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
