//! The `ivme` shell interpreter.
//!
//! A tiny line-oriented command language around a local [`Session`];
//! [`proto::HELP`] lists it. While a `.batch` is open, `insert`/`delete`
//! stage into the pending batch instead of applying immediately;
//! `.batch commit` applies the consolidated batch atomically and reports
//! the apply time, so batched throughput is demoable interactively.
//!
//! Parsing lives in [`crate::proto`] and the meaning of every command in
//! [`crate::session`] — both shared with the `ivme-server` network front
//! end, so a shell transcript and a server transcript of one script are
//! the same bytes. This module owns only what is local to a REPL:
//! wall-clock timing of the writes it applies, the engine line `stats`
//! appends, and the `shutdown` refusal.

use std::fmt::Write as _;
use std::time::Instant;

use crate::proto::{self, Command};
use crate::session::{Applied, Session, Staging, Step};

pub use crate::proto::parse_tuple;

/// Interpreter state.
#[derive(Default)]
pub struct Shell {
    session: Session,
    /// Open `.batch` staging area, if any.
    staging: Staging,
    /// Commit counter, bumped per state change exactly as a server bumps
    /// its publish epoch: reads go through [`Session::read_view`] stamped
    /// with it — the same read view the server publishes.
    epoch: u64,
}

impl Shell {
    pub fn new() -> Shell {
        Shell::default()
    }

    /// Executes one command line; returns the output text, or `Err` with a
    /// user-facing message. `Ok(None)` signals quit.
    pub fn execute(&mut self, line: &str) -> Result<Option<String>, String> {
        match proto::parse_command(line)? {
            None => Ok(Some(String::new())),
            Some(Command::Quit) => Ok(None),
            Some(cmd) => self.run(cmd).map(Some),
        }
    }

    /// Executes one parsed [`Command`] against the local session, through
    /// the interpreter the server runs the same commands through.
    pub fn run(&mut self, cmd: Command) -> Result<String, String> {
        match Step::of(cmd, proto::load_csv)? {
            Step::Quit => Ok(proto::BYE.to_owned()),
            Step::Help => Ok(proto::HELP.to_owned()),
            Step::Shutdown => {
                Err("shutdown is a server-side command (the REPL has no durable state)".into())
            }
            Step::Admin(op) => self.session.admin(op).inspect(|_| self.epoch += 1),
            Step::Write(write) => self
                .staging
                .execute(write, self.session.is_built(), |batch| {
                    let t0 = Instant::now();
                    self.session.apply(&batch)?;
                    self.epoch += 1;
                    Ok(Applied {
                        secs: t0.elapsed().as_secs_f64(),
                        group: None,
                    })
                }),
            Step::Read(cmd) => {
                let stats = matches!(cmd, Command::Stats);
                let mut out = self.session.read_view(self.epoch).execute(cmd)?;
                // The paper-facing sizes live in the engine, not in the
                // frozen view: append them, as a server appends its
                // durability lines.
                if let (true, Some(eng)) = (stats, self.session.engine()) {
                    let e = eng.shard(0);
                    let _ = writeln!(
                        out,
                        "M = {}, θ = {:.2}, views = {}, aux space = {}",
                        e.threshold_base(),
                        e.theta(),
                        e.num_views(),
                        e.aux_space()
                    );
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use ivme_data::Tuple;

    use super::*;

    fn run(shell: &mut Shell, script: &[&str]) -> String {
        let mut out = String::new();
        for line in script {
            match shell.execute(line) {
                Ok(Some(s)) => out.push_str(&s),
                Ok(None) => break,
                Err(e) => panic!("command `{line}` failed: {e}"),
            }
        }
        out
    }

    #[test]
    fn end_to_end_session() {
        let mut sh = Shell::new();
        let out = run(
            &mut sh,
            &[
                "# comment lines are ignored",
                "query Q(A,C) :- R(A,B), S(B,C)",
                "epsilon 0.5",
                "row R 1,10",
                "row R 2,10",
                "row S 10,5",
                "build",
                "insert S 10,6",
                "delete R 2,10",
                "count",
                "stats",
            ],
        );
        assert!(out.contains("w = 2, δ = 1"), "{out}");
        assert!(out.contains("built: N = 3"), "{out}");
        assert!(out.contains("\n2\n"), "expected count 2 in:\n{out}");
        assert!(out.contains("updates = 2"), "{out}");
    }

    #[test]
    fn list_and_plan() {
        let mut sh = Shell::new();
        let out = run(
            &mut sh,
            &[
                "query Q(A) :- R(A,B), S(B)",
                "row R 7,1",
                "row S 1",
                "build",
                "list",
                "plan",
            ],
        );
        assert!(out.contains("(7) x1"), "{out}");
        assert!(out.contains("(1 tuples)"), "{out}");
        assert!(out.contains("VB("), "{out}");
    }

    #[test]
    fn csv_loading() {
        let dir = std::env::temp_dir().join("ivme_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        std::fs::write(&path, "1,foo\n2,bar\n\n3,foo\n").unwrap();
        let mut sh = Shell::new();
        let out = run(
            &mut sh,
            &[
                "query Q(A) :- R(A,B), S(B)",
                &format!("load R {}", path.display()),
                "row S foo",
                "build",
                "count",
            ],
        );
        assert!(out.contains("staged 3 rows"), "{out}");
        assert!(out.contains("\n2\n"), "{out}");
    }

    #[test]
    fn batch_staging_commits_atomically() {
        let mut sh = Shell::new();
        let out = run(
            &mut sh,
            &[
                "query Q(A,C) :- R(A,B), S(B,C)",
                "row R 1,10",
                "build",
                ".batch begin",
                "insert S 10,5",
                "insert R 2,10",
                "insert R 3,10",
                "delete R 3,10",
                ".batch status",
                ".batch commit",
                "count",
                "stats",
            ],
        );
        assert!(out.contains("batch open"), "{out}");
        assert!(
            out.contains("open batch: 4 updates, 2 net entries"),
            "{out}"
        );
        assert!(out.contains("committed 4 updates (2 net entries)"), "{out}");
        assert!(out.contains("\n2\n"), "expected count 2 in:\n{out}");
        assert!(out.contains("updates = 4"), "{out}");
        assert!(out.contains("batches = 1"), "{out}");
    }

    #[test]
    fn rejected_batch_leaves_engine_unchanged() {
        let mut sh = Shell::new();
        let _ = run(
            &mut sh,
            &[
                "query Q(A,C) :- R(A,B), S(B,C)",
                "row R 1,10",
                "row S 10,5",
                "build",
                ".batch begin",
                "insert R 2,10",
            ],
        );
        // Over-delete: net -1 on an absent tuple must reject the whole batch.
        let _ = sh.execute("delete R 9,9").unwrap();
        let err = sh.execute(".batch commit").unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        let out = run(&mut sh, &["count", "stats"]);
        assert!(
            out.starts_with("1\n"),
            "engine state leaked from rejected batch:\n{out}"
        );
        assert!(out.contains("updates = 0"), "{out}");
    }

    #[test]
    fn batch_abort_and_misuse() {
        let mut sh = Shell::new();
        let _ = run(&mut sh, &["query Q(A) :- R(A,B), S(B)", "build"]);
        assert!(sh.execute(".batch commit").is_err());
        let _ = sh.execute(".batch begin").unwrap();
        assert!(sh.execute(".batch begin").is_err());
        let _ = sh.execute("insert R 1,2").unwrap();
        let out = sh.execute(".batch abort").unwrap().unwrap();
        assert!(out.contains("aborted batch of 1"), "{out}");
        assert!(sh.execute(".batch frobnicate").is_err());
        assert!(sh
            .execute(".batch")
            .unwrap()
            .unwrap()
            .contains("no open batch"));
    }

    #[test]
    fn load_on_a_built_engine_inserts_the_csv_as_one_batch() {
        let dir = std::env::temp_dir().join("ivme_cli_batch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (path, bad) = (dir.join("s.csv"), dir.join("bad.csv"));
        std::fs::write(&path, "1\n2\n\n3\n").unwrap();
        std::fs::write(&bad, "4\n5,5\n").unwrap();
        let mut sh = Shell::new();
        let out = run(
            &mut sh,
            &[
                "query Q(A) :- R(A,B), S(B)",
                "row R 7,1",
                "row R 8,2",
                "build",
                &format!("load S {}", path.display()),
                "count",
                "stats",
            ],
        );
        assert!(out.contains("inserted 3 rows into S"), "{out}");
        assert!(out.contains("\n2\n"), "{out}");
        assert!(out.contains("updates = 3, batches = 1"), "{out}");
        // One wrong-arity row refuses the whole file: nothing applied.
        let err = sh
            .execute(&format!("load S {}", bad.display()))
            .unwrap_err();
        assert!(err.contains("does not match schema"), "{err}");
        let out = run(&mut sh, &["row S 9", "count", "stats"]);
        assert!(out.starts_with("inserted 1 row into S\n2\n"), "{out}");
        assert!(out.contains("N = 6,"), "{out}");
        assert!(out.contains("updates = 4, batches = 2"), "{out}");
        // A relation the query does not name stays in the row store.
        let out = sh.execute("row T 1").unwrap().unwrap();
        assert_eq!(out, "staged 1 row into T\n");
    }

    /// admin-keeps-writes: a second `build` rebuilds from the engine's
    /// own rows, so the writes committed since the first one stay, and
    /// so do the counters.
    #[test]
    fn a_second_build_keeps_every_committed_write() {
        let mut sh = Shell::new();
        let script = [
            "query Q(A,C) :- R(A,B), S(B,C)",
            "row R 1,2",
            "row S 2,3",
            "build",
            "update S 1 2,4",
        ];
        let before = run(&mut sh, &script);
        assert!(before.contains("built: N = 2"), "{before}");
        let out = run(&mut sh, &["build", "list", "stats"]);
        assert!(out.starts_with("built: N = 3\n"), "{out}");
        assert!(
            out.contains("(1, 3) x1") && out.contains("(1, 4) x1"),
            "{out}"
        );
        assert!(out.contains("(2 tuples)"), "{out}");
        assert!(out.contains("updates = 1, batches = 1"), "{out}");
    }

    /// `epsilon` on a built engine changes θ at once and keeps the result.
    #[test]
    fn epsilon_on_a_built_engine_rebuilds_at_once() {
        let mut sh = Shell::new();
        let mut script = vec!["query Q(A,C) :- R(A,B), S(B,C)".to_owned()];
        script.extend((0..16).map(|i| format!("row R {i},{}", i % 4)));
        script.extend((0..16).map(|i| format!("row S {},{i}", i % 4)));
        script.extend(["build".to_owned(), "insert R 99,0".to_owned()]);
        let lines: Vec<&str> = script.iter().map(String::as_str).collect();
        let _ = run(&mut sh, &lines);
        let theta = |sh: &mut Shell| {
            let stats = sh.execute("stats").unwrap().unwrap();
            let at = stats.find("θ = ").expect("the engine line") + "θ = ".len();
            stats[at..].split(',').next().unwrap().to_owned()
        };
        let (list, before) = (run(&mut sh, &["list"]), theta(&mut sh));
        let out = sh.execute("epsilon 0.25").unwrap().unwrap();
        assert_eq!(out, "epsilon = 0.25\nbuilt: N = 33\n");
        assert_ne!(theta(&mut sh), before);
        let sorted = |s: String| {
            let mut v: Vec<String> = s.lines().map(str::to_owned).collect();
            v.sort();
            v
        };
        assert_eq!(sorted(run(&mut sh, &["list"])), sorted(list));
        let out = run(&mut sh, &["mode static", "stats"]);
        assert!(out.contains("updates = 1, batches = 1"), "{out}");
        assert!(sh.execute("insert R 98,0").is_err(), "static now");
    }

    /// `query` on a built engine hands the engine's rows back to the
    /// store, which kept `T` all along: the next `build` builds from them,
    /// committed writes included.
    #[test]
    fn a_new_query_and_build_keep_committed_writes() {
        let mut sh = Shell::new();
        let _ = run(
            &mut sh,
            &[
                "query Q(A,C) :- R(A,B), S(B,C)",
                "row R 1,2",
                "row S 2,3",
                "row T 3",
                "row T 4",
                "build",
                "insert S 2,4",
                "delete S 2,3",
                "query Q(B,C) :- S(B,C), T(C)",
                "build",
            ],
        );
        let out = run(&mut sh, &["list"]);
        assert_eq!(out, "(2, 4) x1\n(1 tuples)\n");
    }

    /// A view's multiplicities are bounded by the product of its
    /// relations' total multiplicities; a batch that could lift that past
    /// 2^62 is refused whole, before anything applies.
    #[test]
    fn an_update_that_could_overflow_a_view_is_refused_whole() {
        let mut sh = Shell::new();
        let _ = run(
            &mut sh,
            &[
                "query Q(A,C) :- R(A,B), S(B,C)",
                "build",
                "update R 4611686018427387904 1,2",
            ],
        );
        let err = sh.execute("update S 4 2,3").unwrap_err();
        assert_eq!(
            err,
            "multiplicity overflow: a view over R, S could pass 2^62 \
             (the product of their total multiplicities)"
        );
        let out = run(&mut sh, &["get 1,3", "count", "stats"]);
        assert!(out.starts_with("(1, 3) not in result\n0\n"), "{out}");
        assert!(out.contains("updates = 1, batches = 1"), "{out}");
        assert!(out.contains("relations: R=1, S=0\n"), "{out}");
        // Up to the bound is fine.
        let out = run(&mut sh, &["update S 1 2,3", "get 1,3"]);
        assert_eq!(out, "(1, 3) x4611686018427387904\n");
        assert!(sh.execute("insert R 5,2").is_err());
    }

    /// Deltas on one tuple that sum past `i64` inside a `.batch` refuse
    /// the batch whole: no wrapped delta reaches the engine.
    #[test]
    fn a_batch_whose_deltas_sum_past_i64_is_refused_whole() {
        let mut sh = Shell::new();
        let _ = run(
            &mut sh,
            &[
                "query Q(A,C) :- R(A,B), S(B,C)",
                "row R 1,2",
                "row S 2,3",
                "build",
                ".batch begin",
                "update R 9223372036854775807 1,2",
                "update R 9223372036854775807 1,2",
                "insert S 2,4",
            ],
        );
        let err = sh.execute(".batch commit").unwrap_err();
        assert_eq!(
            err,
            "batch rejected (engine unchanged): multiplicity overflow: \
             the deltas of R(1, 2) sum past i64"
        );
        let out = run(&mut sh, &["list", "stats"]);
        assert!(out.starts_with("(1, 3) x1\n(1 tuples)\n"), "{out}");
        assert!(out.contains("updates = 0, batches = 0"), "{out}");
        // One such delta alone is past the view bound.
        let err = sh.execute("update R 9223372036854775807 1,2").unwrap_err();
        assert!(err.contains("could pass 2^62"), "{err}");
    }

    #[test]
    fn error_paths_are_reported() {
        let mut sh = Shell::new();
        assert!(sh.execute("query Q(A) :- R(A,B), S(B,C), T(C)").is_err()); // not hierarchical
        assert!(sh.execute("epsilon 2.0").is_err());
        assert!(sh.execute("mode sideways").is_err());
        assert!(sh.execute("list").is_err()); // no engine yet
        assert!(sh.execute("frobnicate").is_err());
        assert!(sh.execute("load R /nonexistent/file.csv").is_err());
        // Static mode rejects updates after build.
        let _ = sh.execute("query Q(A) :- R(A,B), S(B)").unwrap();
        let _ = sh.execute("mode static").unwrap();
        let _ = sh.execute("build").unwrap();
        assert!(sh.execute("insert R 1,2").is_err());
    }

    #[test]
    fn tuple_parsing() {
        assert_eq!(parse_tuple("1, 2").unwrap(), Tuple::ints(&[1, 2]));
        assert_eq!(parse_tuple("").unwrap(), Tuple::empty());
        let t = parse_tuple("x, 3").unwrap();
        assert_eq!(t.get(0).as_str(), Some("x"));
        assert_eq!(t.get(1).as_int(), 3);
    }

    #[test]
    fn quit_ends_session() {
        let mut sh = Shell::new();
        assert!(sh.execute("quit").unwrap().is_none());
    }

    #[test]
    fn point_lookup_and_paging() {
        let mut sh = Shell::new();
        let out = run(
            &mut sh,
            &[
                "query Q(A,C) :- R(A,B), S(B,C)",
                "row R 1,10",
                "row R 2,10",
                "row S 10,5",
                "row S 10,6",
                "build",
                "get 1,5",
                "get 9,9",
                "page 0 2",
                "page 3 5",
            ],
        );
        assert!(out.contains("(1, 5) x1"), "{out}");
        assert!(out.contains("(9, 9) not in result"), "{out}");
        assert!(out.contains("(2 tuples at offset 0)"), "{out}");
        assert!(out.contains("(1 tuples at offset 3)"), "{out}");
        // Wrong arity and malformed paging arguments are reported, not
        // panicked on.
        assert!(sh.execute("get 1,2,3").is_err());
        assert!(sh.execute("page 0").is_err());
        assert!(sh.execute("page x 5").is_err());
        // A rebuilt engine serves the same read commands.
        let out = run(&mut sh, &["build", "get 1,5", "page 0 99"]);
        assert!(out.contains("(1, 5) x1"), "{out}");
        assert!(out.contains("(4 tuples at offset 0)"), "{out}");
    }

    /// The engine is one `ShardedEngine` of one shard: `stats` reports
    /// its size, per-relation sizes and the engine line, and no shard.
    #[test]
    fn sharded_build_updates_and_stats() {
        let mut sh = Shell::new();
        let mut script = vec!["query Q(A) :- R(A,B), S(B)".to_owned()];
        for i in 0..24 {
            script.push(format!("row R {},{}", i, i % 8));
        }
        script.push("build".to_owned());
        for j in 0..8 {
            script.push(format!("insert S {j}"));
        }
        script.extend(["count".to_owned(), "stats".to_owned(), "help".to_owned()]);
        let lines: Vec<&str> = script.iter().map(String::as_str).collect();
        let out = run(&mut sh, &lines);
        assert!(out.contains("built: N = 24\n"), "{out}");
        assert!(out.contains("\n24\n"), "expected count 24 in:\n{out}");
        assert!(out.contains("N = 32, snapshot_epoch = "), "{out}");
        assert!(out.contains("updates = 8, batches = 8"), "{out}");
        assert!(out.contains("relations: R=24, S=8\nM = "), "{out}");
        assert!(!out.contains("shard"), "{out}");
    }

    #[test]
    fn sharded_batch_commit_and_atomic_rejection() {
        let mut sh = Shell::new();
        let _ = run(
            &mut sh,
            &[
                "query Q(A,C) :- R(A,B), S(B,C)",
                "row R 1,10",
                "row S 10,5",
                "build",
                ".batch begin",
                "insert R 2,11",
                "insert S 11,6",
                "insert R 3,12",
            ],
        );
        // One over-delete: the whole batch must reject and the engine
        // stay untouched.
        let _ = sh.execute("delete S 99,99").unwrap();
        let err = sh.execute(".batch commit").unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        let out = run(&mut sh, &["count", "stats"]);
        assert!(out.starts_with("1\n"), "{out}");
        assert!(out.contains("updates = 0"), "{out}");
        // A valid batch commits.
        let out = run(
            &mut sh,
            &[
                ".batch begin",
                "insert R 2,11",
                "insert S 11,6",
                ".batch commit",
                "count",
            ],
        );
        assert!(out.contains("committed 2 updates"), "{out}");
        assert!(out.contains("\n2\n"), "{out}");
    }

    #[test]
    fn shards_argument_validation() {
        // One engine: `.shards` is an unknown command whatever its
        // argument, before `build` and after it, and changes nothing.
        let mut sh = Shell::new();
        let unknown = "unknown command `.shards` (try `help`)";
        for line in [".shards 0", ".shards two", ".shards 1"] {
            assert_eq!(sh.execute(line).unwrap_err(), unknown, "{line}");
        }
        let _ = run(
            &mut sh,
            &["query Q(A) :- R(A,B), S(B)", "row R 1,2", "build"],
        );
        let before = run(&mut sh, &["stats"]);
        assert_eq!(sh.execute(".shards 2").unwrap_err(), unknown);
        assert_eq!(run(&mut sh, &["stats"]), before);
        assert!(before.contains("N = 1, snapshot_epoch = 3\n"), "{before}");
        assert!(before.contains("relations: R=1, S=0\nM = "), "{before}");
    }
}
