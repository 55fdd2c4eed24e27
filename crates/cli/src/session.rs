//! The one interpreter of the command grammar.
//!
//! [`crate::proto`] says what a line *is*; this module says what a command
//! *does* to engine state and what it answers. The shell, the server's
//! writer thread, a replica's follower thread and WAL recovery all run
//! commands through the four types here, so a reply is written once:
//!
//! * [`Step::of`] classifies a parsed [`Command`] with an exhaustive
//!   `match`: a new variant is a compile error in this one place.
//! * [`Session`] owns the engine — one [`ShardedEngine`] of one shard —
//!   and its configuration; it executes admin ops and applies committed
//!   batches.
//! * [`Staging`] is the `.batch` staging area; [`Staging::execute`] runs
//!   every write verb and hands each batch that is due to the caller's
//!   `apply` — a direct [`Session::apply`] in the shell and in replay, a
//!   submit-and-wait over the writer channel on a connection.
//! * [`ReadView`] is the frozen state the seven read verbs dispatch
//!   against, formatted by [`render`].

use ivme_core::{
    Database, DeltaBatch, EngineOptions, Mode, ShardedEngine, ShardedSnapshot, Update,
};
use ivme_data::Tuple;
use ivme_query::{classify, Query};

use crate::proto::Command;
use crate::render;

/// The reply to any verb that needs a built engine before `build` ran.
pub const NOT_BUILT: &str = "run `build` first";
const NO_QUERY: &str = "no query registered";

/// What a parsed [`Command`] is, to every front end.
pub enum Step {
    /// Changes configuration or rows, or builds the engine.
    Admin(AdminOp),
    /// An update or a `.batch` verb: goes through a [`Staging`].
    Write(Write),
    /// One of the seven read verbs, for [`ReadView::execute`].
    Read(Command),
    /// `help`, `quit`, `shutdown`: answered by the front end's own loop.
    Help,
    Quit,
    Shutdown,
}

/// The rare state-changing commands. A server serializes them through
/// its writer thread so the engine stays single-owner, and logs
/// [`AdminOp::wal_text`] for replay.
#[derive(Debug)]
pub enum AdminOp {
    Query(Query),
    Epsilon(f64),
    Mode(Mode),
    Rows { relation: String, rows: Vec<Tuple> },
    Build,
}

/// The write verbs, as [`Staging::execute`] takes them.
pub enum Write {
    /// `insert` / `delete` / `update`: stages while a batch is open,
    /// otherwise applies as a batch of one.
    Update(Update),
    /// `.batch begin`, `commit`, `abort` and `status`.
    Begin,
    Commit,
    Abort,
    Status,
}

impl Step {
    /// Classifies `cmd`. `load_csv` is how this caller reads the file a
    /// `load` names: [`proto::load_csv`](crate::proto::load_csv) in the
    /// shell and on a primary's connection thread (the server reads its
    /// own disk; only parsed rows travel on), the redirect on a replica
    /// and a refusal in WAL replay — neither ever opens a path.
    pub fn of(
        cmd: Command,
        load_csv: impl FnOnce(&str) -> Result<Vec<Tuple>, String>,
    ) -> Result<Step, String> {
        Ok(match cmd {
            Command::Query(q) => Step::Admin(AdminOp::Query(q)),
            Command::Epsilon(e) => Step::Admin(AdminOp::Epsilon(e)),
            Command::Mode(m) => Step::Admin(AdminOp::Mode(m)),
            Command::Row { relation, tuple } => Step::Admin(AdminOp::Rows {
                relation,
                rows: vec![tuple],
            }),
            Command::Load { relation, path } => Step::Admin(AdminOp::Rows {
                relation,
                rows: load_csv(&path)?,
            }),
            Command::Build => Step::Admin(AdminOp::Build),
            Command::Update {
                relation,
                tuple,
                delta,
            } => Step::Write(Write::Update(Update::new(relation, tuple, delta))),
            Command::BatchBegin => Step::Write(Write::Begin),
            Command::BatchCommit => Step::Write(Write::Commit),
            Command::BatchAbort => Step::Write(Write::Abort),
            Command::BatchStatus => Step::Write(Write::Status),
            Command::List { .. }
            | Command::Get(_)
            | Command::Page { .. }
            | Command::Count
            | Command::Stats
            | Command::Classify
            | Command::Plan => Step::Read(cmd),
            Command::Help => Step::Help,
            Command::Quit => Step::Quit,
            Command::Shutdown => Step::Shutdown,
        })
    }
}

/// The mutable state the grammar acts on: configuration, rows and — once
/// `build` has run — the engine. Single-owner wherever it lives (the
/// shell, a server's writer thread, a replica's follower thread).
///
/// Every row lives in one place: the engine's base relations hold the
/// relations its query names, and the row store (`staged`) holds the
/// rest — before `build`, every row. A configuration change on a built
/// engine rebuilds it from its own base relations, the strict rebuild of
/// major rebalancing (Fig. 20), and carries its counters over as a
/// restart does: no admin op drops a committed write.
pub struct Session {
    query: Option<Query>,
    /// ε and mode (`epsilon`, `mode`) of the engine.
    opts: EngineOptions,
    staged: Database,
    engine: Option<ShardedEngine>,
}

impl Default for Session {
    /// A fresh pre-`query` state: ε = 0.5, dynamic mode.
    fn default() -> Session {
        Session {
            query: None,
            opts: EngineOptions::dynamic(0.5),
            staged: Database::new(),
            engine: None,
        }
    }
}

impl Session {
    /// Rebuilds a session from checkpointed state — the inverse of the
    /// accessors below. `base` carries the built engine's base relations
    /// and cumulative `(updates, batches, misroutes)` when `build` had
    /// run: the engine is rebuilt by re-preprocessing them (the entry
    /// point of a live `build`), then seeded with the counters. `base`
    /// supersedes any `staged` rows of the relations the engine holds.
    pub fn restore(
        query: Option<Query>,
        opts: EngineOptions,
        staged: Database,
        base: Option<(&Database, (u64, u64, u64))>,
    ) -> Result<Session, String> {
        let mut session = Session {
            query,
            opts,
            staged,
            engine: None,
        };
        if let Some((base, stats)) = base {
            let eng = session.new_engine(base, opts, stats)?;
            session.install(eng);
        }
        Ok(session)
    }

    pub fn query(&self) -> Option<&Query> {
        self.query.as_ref()
    }

    pub fn options(&self) -> EngineOptions {
        self.opts
    }

    /// The row store: every row the engine does not hold.
    pub fn staged(&self) -> &Database {
        &self.staged
    }

    /// The built engine, for checkpoints and the shell's engine line.
    pub fn engine(&self) -> Option<&ShardedEngine> {
        self.engine.as_ref()
    }

    pub fn is_built(&self) -> bool {
        self.engine.is_some()
    }

    /// An engine over `db`, seeded with the cumulative `(updates,
    /// batches, misroutes)`. Always one shard: one read and commit path
    /// per build.
    fn new_engine(
        &self,
        db: &Database,
        opts: EngineOptions,
        (updates, batches, misroutes): (u64, u64, u64),
    ) -> Result<ShardedEngine, String> {
        let q = self.query.as_ref().ok_or(NO_QUERY)?;
        let mut eng = ShardedEngine::new(q, db, opts, 1).map_err(|e| e.to_string())?;
        eng.restore_stats(updates, batches, misroutes);
        Ok(eng)
    }

    /// Whether the built engine holds `relation`: whether its query
    /// names it.
    fn holds(&self, relation: &str) -> bool {
        let names = |e: &ShardedEngine| e.query().atoms.iter().any(|a| a.relation == relation);
        self.engine.as_ref().is_some_and(names)
    }

    /// Makes `eng` the engine, keeps in the store only the rows of the
    /// relations `eng` does not hold, and answers the `built:` line.
    fn install(&mut self, eng: ShardedEngine) -> String {
        let msg = format!("built: N = {}\n", eng.db_size());
        self.engine = Some(eng);
        let mut rest = Database::new();
        copy_rows(&mut rest, &self.staged, |r| !self.holds(r));
        self.staged = rest;
        msg
    }

    /// Sets the configuration. A built engine rebuilds under it at once
    /// from its own base relations, counters carried over, and the reply
    /// is the `built:` line; if the rebuild fails, nothing changes.
    fn configure(&mut self, opts: EngineOptions) -> Result<String, String> {
        let rebuilt = match &self.engine {
            None => None,
            Some(old) => {
                let st = old.stats();
                let counters = (st.updates, st.batches, st.misroutes);
                Some(self.new_engine(&old.export_database(), opts, counters)?)
            }
        };
        self.opts = opts;
        Ok(rebuilt.map_or_else(String::new, |eng| self.install(eng)))
    }

    /// Executes one admin operation and returns its reply.
    pub fn admin(&mut self, op: AdminOp) -> Result<String, String> {
        match op {
            AdminOp::Query(q) => {
                let c = classify(&q);
                let out = format!(
                    "registered {q}\nw = {}, δ = {}, free-connex: {}, q-hierarchical: {}\n",
                    c.static_width.unwrap(),
                    c.dynamic_width.unwrap(),
                    c.free_connex,
                    c.q_hierarchical
                );
                // The engine's rows go back to the store.
                if let Some(eng) = self.engine.take() {
                    copy_rows(&mut self.staged, &eng.export_database(), |_| true);
                }
                self.query = Some(q);
                Ok(out)
            }
            AdminOp::Epsilon(e) => {
                let opts = EngineOptions {
                    epsilon: e,
                    ..self.opts
                };
                Ok(format!("epsilon = {e}\n") + &self.configure(opts)?)
            }
            AdminOp::Mode(mode) => {
                let opts = EngineOptions { mode, ..self.opts };
                let name = match mode {
                    Mode::Dynamic => "dynamic",
                    Mode::Static => "static",
                };
                Ok(format!("mode = {name}\n") + &self.configure(opts)?)
            }
            // A built engine inserts the rows of its relations as one
            // atomic batch: every row goes in, or none does. An empty one
            // changes nothing, as its empty log frame does.
            AdminOp::Rows { relation, rows } => {
                let (n, held) = (rows.len(), self.holds(&relation));
                if !held {
                    for t in rows {
                        self.staged.insert(&relation, t, 1);
                    }
                } else if n > 0 {
                    let mut batch = DeltaBatch::new();
                    batch.extend_relation(&relation, rows.into_iter().map(|t| (t, 1)));
                    self.apply(&batch)?;
                }
                let verb = if held { "inserted" } else { "staged" };
                let s = if n == 1 { "" } else { "s" };
                Ok(format!("{verb} {n} row{s} into {relation}\n"))
            }
            AdminOp::Build if self.is_built() => self.configure(self.opts),
            AdminOp::Build => {
                let eng = self.new_engine(&self.staged, self.opts, (0, 0, 0))?;
                Ok(self.install(eng))
            }
        }
    }

    /// Applies one consolidated batch atomically: it commits whole, or
    /// the engine is unchanged and the engine's reason comes back.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<(), String> {
        self.engine
            .as_mut()
            .ok_or(NOT_BUILT)?
            .apply_delta_batch(batch)
            .map_err(|e| e.to_string())
    }

    /// Freezes the current state for reads, stamped `epoch` (echoed by
    /// `stats` as `snapshot_epoch`).
    pub fn read_view(&mut self, epoch: u64) -> ReadView {
        ReadView {
            query: self.query.clone(),
            mode: self.opts.mode,
            view: self.engine.as_mut().map(|e| e.snapshot(epoch)),
        }
    }
}

/// Adds `from`'s rows of the relations `keep` accepts to `into`.
fn copy_rows(into: &mut Database, from: &Database, keep: impl Fn(&str) -> bool) {
    for rel in from.relations().into_iter().filter(|r| keep(r)) {
        for (t, m) in from.rows(rel) {
            into.insert(rel, t, m);
        }
    }
}

/// How a batch handed to [`Staging::execute`]'s `apply` went in: the
/// time to report, and — on a server — the number of client batches
/// submitted in the writer round it rode in.
#[derive(Default)]
pub struct Applied {
    pub secs: f64,
    pub group: Option<usize>,
}

impl Applied {
    /// ` in 0.412ms (155340 updates/s[, group of 3])\n` for `n` updates.
    fn timing(self, n: usize) -> String {
        let group = self
            .group
            .map_or_else(String::new, |g| format!(", group of {g}"));
        format!(
            " in {:.3}ms ({:.0} updates/s{group})\n",
            self.secs * 1e3,
            n as f64 / self.secs.max(1e-9)
        )
    }
}

/// The `.batch` staging area: one per shell, per connection and per
/// replayed WAL frame.
#[derive(Default)]
pub struct Staging(Option<DeltaBatch>);

impl Staging {
    /// The open batch, if any — what a connection's allocation-free
    /// staging path pushes into.
    pub fn open_mut(&mut self) -> Option<&mut DeltaBatch> {
        self.0.as_mut()
    }

    pub fn is_open(&self) -> bool {
        self.0.is_some()
    }

    fn take(&mut self) -> Result<DeltaBatch, String> {
        self.0
            .take()
            .ok_or_else(|| "no open batch (`.batch begin`)".to_owned())
    }

    /// Executes one write verb and returns its reply. A batch that is due
    /// — an update outside a `.batch`, a `.batch commit` — is
    /// handed to `apply`; staged updates ack empty. `built` says whether
    /// a `.batch begin` may open.
    pub fn execute(
        &mut self,
        write: Write,
        built: bool,
        apply: impl FnOnce(DeltaBatch) -> Result<Applied, String>,
    ) -> Result<String, String> {
        match write {
            Write::Update(u) => {
                match self.0.as_mut() {
                    Some(batch) => batch.push(&u.relation, u.tuple, u.delta),
                    None => {
                        let mut batch = DeltaBatch::new();
                        batch.push(&u.relation, u.tuple, u.delta);
                        apply(batch)?;
                    }
                }
                Ok(String::new())
            }
            Write::Begin => {
                if self.0.is_some() {
                    return Err("a batch is already open (`.batch commit|abort`)".into());
                }
                if !built {
                    return Err(NOT_BUILT.into());
                }
                self.0 = Some(DeltaBatch::new());
                Ok("batch open: insert/delete now stage until `.batch commit`\n".to_owned())
            }
            Write::Commit => {
                let batch = self.take()?;
                let (card, net) = (batch.cardinality(), batch.distinct_len());
                match apply(batch) {
                    Ok(applied) => Ok(format!(
                        "committed {card} updates ({net} net entries){}",
                        applied.timing(card)
                    )),
                    Err(e) => Err(format!("batch rejected (engine unchanged): {e}")),
                }
            }
            Write::Abort => Ok(format!(
                "aborted batch of {} staged updates\n",
                self.take()?.cardinality()
            )),
            Write::Status => Ok(match &self.0 {
                Some(b) => format!(
                    "open batch: {} updates, {} net entries\n",
                    b.cardinality(),
                    b.distinct_len()
                ),
                None => "no open batch\n".to_owned(),
            }),
        }
    }
}

/// The immutable state a read command dispatches against: the registered
/// query, the evaluation mode, and — once `build` has run — the frozen
/// engine view. No engine, no lock, no `&mut`: a published `ReadView`
/// serves any number of reader threads.
pub struct ReadView {
    pub query: Option<Query>,
    pub mode: Mode,
    pub view: Option<ShardedSnapshot>,
}

impl ReadView {
    fn view(&self) -> Result<&ShardedSnapshot, String> {
        self.view.as_ref().ok_or_else(|| NOT_BUILT.to_owned())
    }

    fn query(&self) -> Result<&Query, String> {
        self.query.as_ref().ok_or_else(|| NO_QUERY.to_owned())
    }

    /// The one dispatch of the seven read verbs, formatted by [`render`].
    pub fn execute(&self, cmd: Command) -> Result<String, String> {
        match cmd {
            Command::List { limit } => Ok(render::render_list(self.view()?, limit)),
            Command::Get(t) => render::render_get(self.view()?, self.query()?, &t),
            Command::Page { offset, limit } => Ok(render::render_page(self.view()?, offset, limit)),
            Command::Count => Ok(render::render_count(self.view()?)),
            Command::Stats => Ok(render::render_stats(self.view()?)),
            Command::Classify => Ok(format!("{:#?}\n", classify(self.query()?))),
            Command::Plan => {
                let plan =
                    ivme_plan::compile(self.query()?, self.mode).map_err(|e| e.to_string())?;
                Ok(plan.render())
            }
            // [`Step::of`] routes only the seven verbs above here; report
            // rather than panic for direct callers.
            _ => Err("not a read command".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;
    use ivme_data::Value;

    /// Replays frame text the way WAL recovery does: admin ops as they
    /// come — a run of `row` lines of one relation as one op — batches
    /// through a [`Staging`], files and everything else refused.
    fn replay(text: &str) -> Result<(Vec<AdminOp>, Vec<DeltaBatch>), String> {
        let (mut ops, mut batches) = (Vec::new(), Vec::new());
        let mut staging = Staging::default();
        for line in text.lines() {
            let cmd = proto::parse_command(line)?.expect("a command");
            match Step::of(cmd, |_| Err("no files here".to_owned()))? {
                Step::Admin(AdminOp::Rows { relation, rows }) => match ops.last_mut() {
                    Some(AdminOp::Rows {
                        relation: run,
                        rows: acc,
                    }) if *run == relation => acc.extend(rows),
                    _ => ops.push(AdminOp::Rows { relation, rows }),
                },
                Step::Admin(op) => ops.push(op),
                Step::Write(w @ (Write::Update(_) | Write::Begin | Write::Commit)) => {
                    staging.execute(w, true, |b| {
                        batches.push(b);
                        Ok(Applied::default())
                    })?;
                }
                _ => return Err(format!("unreplayable: {line}")),
            }
        }
        if staging.is_open() {
            return Err("unterminated".to_owned());
        }
        Ok((ops, batches))
    }

    #[test]
    fn logged_text_replays_to_the_ops_that_wrote_it() {
        // commit-is-replayable rests on this round trip: what the writer
        // logs (`wal_text`, `batch_lines`) classifies back to what it ran.
        let q = ivme_query::parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
        // A tuple of mixed cells: integers and strings (a string cell may
        // hold inner spaces; the grammar trims only around cells).
        let mixed = |n: i64, s: &str| Tuple::new(vec![Value::Int(n), Value::from(s)]);
        let rows = vec![Tuple::ints(&[1, 10]), mixed(-2, "ab cd"), Tuple::ints(&[7])];
        let ops = [
            AdminOp::Query(q),
            AdminOp::Epsilon(0.25),
            AdminOp::Mode(Mode::Static),
            AdminOp::Rows {
                relation: "R".to_owned(),
                rows: rows.clone(),
            },
            AdminOp::Build,
        ];
        for op in &ops {
            // The one op back, rendering the text it was parsed from (a
            // `Rows` op logs one `row` line per row and replays as one op,
            // so a built engine inserts it as one batch).
            let (back, batches) = replay(&op.wal_text()).unwrap();
            assert!(batches.is_empty());
            assert_eq!(back.len(), 1);
            assert_eq!(back[0].wal_text(), op.wal_text());
            if let (AdminOp::Rows { rows: sent, .. }, AdminOp::Rows { rows: got, .. }) =
                (op, &back[0])
            {
                assert_eq!(got, sent);
            }
        }
        // Every line form the renderer writes: ±1, general and 2^40-sized
        // deltas, string cells, arity 0 (no value list at all), 1 and 3
        // (above `INLINE_ARITY`), several relations, and an entry that
        // cancels to nothing and so renders no line.
        let mut batch = DeltaBatch::new();
        batch.insert("R", Tuple::ints(&[3, 10]));
        batch.delete("R", mixed(4, "ab cd"));
        batch.push("R", Tuple::ints(&[5, 10]), 2);
        batch.push("S", Tuple::ints(&[10, 5]), -2);
        batch.push("S", mixed(10, "x"), 1 << 40);
        batch.push("S", Tuple::ints(&[10, 7]), -(1 << 40));
        batch.insert("S", Tuple::ints(&[10, 6]));
        batch.delete("S", Tuple::ints(&[10, 6])); // nets to nothing
        batch.push("N", Tuple::empty(), 3);
        batch.delete("U", Tuple::ints(&[8]));
        batch.push("T", Tuple::ints(&[1, 2, 3]), -5);
        assert!(Tuple::ints(&[1, 2, 3]).arity() > ivme_data::value::INLINE_ARITY);
        let script = proto::batch_lines(&batch);
        assert_eq!(script.lines().count(), 2 + batch.distinct_len());
        let (ops, batches) = replay(&script).unwrap();
        assert!(ops.is_empty());
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].to_updates(), batch.to_updates());
        // A bare update is a batch of one.
        let (_, batches) = replay("delete R 3,10").unwrap();
        let alone = [Update::delete("R", Tuple::ints(&[3, 10]))];
        assert_eq!(batches[0].to_updates(), alone);
    }

    #[test]
    fn replay_refuses_what_a_frame_can_never_hold() {
        // Nested and unterminated `.batch`, a commit without a begin.
        assert!(replay(".batch begin\n.batch begin\n").is_err());
        assert!(replay(".batch begin\ninsert R 1,2\n").is_err());
        assert!(replay(".batch commit\n").is_err());
        // Reads, loop verbs and the interactive `.batch` verbs.
        for line in ["count", "stats", "help", "quit", "shutdown", ".batch abort"] {
            assert!(replay(line).is_err(), "{line}");
        }
        // File verbs never reach the disk: the caller's loader refuses.
        assert_eq!(replay("load R /etc/hostname").unwrap_err(), "no files here");
        for gone in [".load R /etc/hostname", ".shards 2"] {
            assert!(replay(gone).unwrap_err().starts_with("unknown command"));
        }
        // A rejected batch surfaces as a refusal, with the engine's reason.
        let err = Staging(Some(DeltaBatch::new()))
            .execute(Write::Commit, true, |_| Err("R(9, 9): -1".to_owned()))
            .unwrap_err();
        assert_eq!(err, "batch rejected (engine unchanged): R(9, 9): -1");
    }
}
