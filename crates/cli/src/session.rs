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
//!   its configuration and the row store; it executes admin ops and
//!   applies committed batches, before `build` and after it.
//! * [`Staging`] is the `.batch` staging area; [`Staging::execute`] runs
//!   every write verb and hands each batch that is due to the caller's
//!   `apply` — a direct [`Session::apply`] in the shell and in replay, a
//!   submit-and-wait over the writer channel on a connection.
//! * [`ReadView`] is the frozen state the seven read verbs dispatch
//!   against, formatted by [`render`].

use ivme_core::{
    Database, DeltaBatch, EngineOptions, Mode, ShardedEngine, ShardedSnapshot, Update, UpdateError,
};
use ivme_data::Tuple;
use ivme_query::{classify, Query};

use crate::proto::Command;
use crate::render;

/// How an `err` reply to a write that was applied and published, but
/// that the log could not make durable, begins. A batch's `apply` error
/// that begins so is passed on as it is: the engine did change.
pub const NOT_DURABLE: &str = "applied but not durable";

/// The reply to a read of the result before `build` ran.
const NOT_BUILT: &str = "run `build` first";
const NO_QUERY: &str = "no query registered";

/// What a parsed [`Command`] is, to every front end.
pub enum Step {
    /// Changes configuration, or builds the engine.
    Admin(AdminOp),
    /// An update, a `load` or a `.batch` verb: goes through a [`Staging`].
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
    Build,
}

/// The write verbs, as [`Staging::execute`] takes them.
pub enum Write {
    /// `insert` / `delete` / `update`: stages while a batch is open,
    /// otherwise applies as a batch of one.
    Update(Update),
    /// `load`: a CSV's rows as one batch of inserts, staged like the same
    /// `insert` lines while a batch is open.
    Load {
        relation: String,
        rows: Vec<Tuple>,
    },
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
            Command::Load { relation, path } => Step::Write(Write::Load {
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

    /// Seeds the built engine's cumulative `updates` and `batches` — what
    /// a checkpoint's `counters` line carries across a restart.
    pub fn restore_counters(&mut self, updates: u64, batches: u64) {
        if let Some(eng) = &mut self.engine {
            eng.restore_stats(updates, batches);
        }
    }

    /// An engine over `db`, seeded with the cumulative `(updates,
    /// batches)`. Always one shard: one read and commit path per build.
    fn new_engine(
        &self,
        db: &Database,
        opts: EngineOptions,
        (updates, batches): (u64, u64),
    ) -> Result<ShardedEngine, String> {
        let q = self.query.as_ref().ok_or(NO_QUERY)?;
        let mut eng = ShardedEngine::new(q, db, opts, 1).map_err(|e| e.to_string())?;
        eng.restore_stats(updates, batches);
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
                let counters = (st.updates, st.batches);
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
            AdminOp::Build if self.is_built() => self.configure(self.opts),
            AdminOp::Build => {
                let eng = self.new_engine(&self.staged, self.opts, (0, 0))?;
                Ok(self.install(eng))
            }
        }
    }

    /// Applies one consolidated batch atomically, before `build` and
    /// after it. Each relation's deltas go where its rows live: to the
    /// built engine if it holds the relation, to the row store otherwise.
    /// The batch commits whole, or nothing changes and the reason comes
    /// back: a row-store count may not go below zero or past `i64`, by the
    /// engine's own rule. A batch of the engine's relations alone — the
    /// common case once built — goes to it uncopied.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<(), String> {
        self.apply_with(batch, || {})
    }

    /// [`Session::apply`] with a hook between its two halves: `on_valid`
    /// runs exactly once, after the row store's check and the engine's
    /// validation have passed and before either side changes — never for
    /// a refused batch. Once it runs the batch commits, so a server logs
    /// the batch from it while the batch is applied.
    pub fn apply_with(
        &mut self,
        batch: &DeltaBatch,
        on_valid: impl FnOnce(),
    ) -> Result<(), String> {
        let whole = batch.relations().all(|r| self.holds(r));
        let err = |e: UpdateError| e.to_string();
        if let (true, Some(eng)) = (whole, self.engine.as_mut()) {
            return eng.apply_delta_batch_with(batch, on_valid).map_err(err);
        }
        if let Some((rel, t)) = batch.overflow() {
            return Err(err(UpdateError::Overflow(format!(
                "the deltas of {rel}{t} sum past i64"
            ))));
        }
        let (mut held, mut store) = (DeltaBatch::new(), Vec::new());
        for (rel, deltas) in batch
            .relations()
            .filter_map(|r| Some((r, batch.relation(r)?)))
        {
            if self.holds(rel) {
                held.extend_relation(rel, deltas.iter().map(|(t, &d)| (t.clone(), d)));
            } else {
                self.staged
                    .check(rel, deltas)
                    .map_err(|e| err(UpdateError::Negative(e)))?;
                store.push((rel, deltas));
            }
        }
        match (held.is_empty(), self.engine.as_mut()) {
            (false, Some(eng)) => eng.apply_delta_batch_with(&held, on_valid).map_err(err)?,
            _ => on_valid(),
        }
        for (rel, deltas) in store {
            self.staged.apply_all(rel, deltas);
        }
        Ok(())
    }

    /// Freezes the current state for reads, stamped `epoch` (echoed by
    /// `stats` as `snapshot_epoch`). The row store's sizes are taken only
    /// when no engine is built, so a built publish pays nothing for them.
    pub fn read_view(&mut self, epoch: u64) -> ReadView {
        let view = self.engine.as_mut().map(|e| e.snapshot(epoch));
        let store = match view {
            Some(_) => Vec::new(),
            None => self
                .staged
                .relations()
                .into_iter()
                .map(|r| (r.to_owned(), self.staged.len(r)))
                .collect(),
        };
        ReadView {
            query: self.query.clone(),
            mode: self.opts.mode,
            view,
            epoch,
            store,
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

    /// Folds `fill` into the open batch and says so, or applies what it
    /// fills as a batch of its own.
    fn write(
        &mut self,
        fill: impl FnOnce(&mut DeltaBatch),
        apply: impl FnOnce(DeltaBatch) -> Result<Applied, String>,
    ) -> Result<bool, String> {
        if let Some(batch) = self.0.as_mut() {
            fill(batch);
            return Ok(true);
        }
        let mut batch = DeltaBatch::new();
        fill(&mut batch);
        apply(batch).map(|_| false)
    }

    /// Executes one write verb and returns its reply. A batch that is due
    /// — an update or a `load` outside a `.batch`, a `.batch commit` — is
    /// handed to `apply`; staged updates ack empty.
    pub fn execute(
        &mut self,
        write: Write,
        apply: impl FnOnce(DeltaBatch) -> Result<Applied, String>,
    ) -> Result<String, String> {
        match write {
            Write::Update(u) => {
                self.write(|b| b.push(&u.relation, u.tuple, u.delta), apply)?;
                Ok(String::new())
            }
            Write::Load { relation, rows } => {
                let (n, s) = (rows.len(), if rows.len() == 1 { "" } else { "s" });
                let rows = rows.into_iter().map(|t| (t, 1));
                let staged = self.write(|b| b.extend_relation(&relation, rows), apply)?;
                let verb = if staged { "staged" } else { "inserted" };
                Ok(format!("{verb} {n} row{s} into {relation}\n"))
            }
            Write::Begin => {
                if self.0.is_some() {
                    return Err("a batch is already open (`.batch commit|abort`)".into());
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
                    Err(e) if e.starts_with(NOT_DURABLE) => Err(e),
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
    /// The epoch the view was frozen at.
    pub epoch: u64,
    /// Before `build`: the row store's relation sizes, for `stats`.
    pub store: Vec<(String, usize)>,
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
            Command::Stats => Ok(match &self.view {
                Some(view) => render::render_stats(view),
                None => render::render_store_stats(self.epoch, &self.store),
            }),
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
    /// come, batches through a [`Staging`], files and everything else
    /// refused.
    fn replay(text: &str) -> Result<(Vec<AdminOp>, Vec<DeltaBatch>), String> {
        let (mut ops, mut batches) = (Vec::new(), Vec::new());
        let mut staging = Staging::default();
        for line in text.lines() {
            let cmd = proto::parse_command(line)?.expect("a command");
            match Step::of(cmd, |_| Err("no files here".to_owned()))? {
                Step::Admin(op) => ops.push(op),
                Step::Write(w @ (Write::Update(_) | Write::Begin | Write::Commit)) => {
                    staging.execute(w, |b| {
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
        let ops = [
            AdminOp::Query(q),
            AdminOp::Epsilon(0.25),
            AdminOp::Mode(Mode::Static),
            AdminOp::Build,
        ];
        for op in &ops {
            // The one op back, rendering the text it was parsed from.
            let (back, batches) = replay(&op.wal_text()).unwrap();
            assert!(batches.is_empty());
            assert_eq!(back.len(), 1);
            assert_eq!(back[0].wal_text(), op.wal_text());
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
            .execute(Write::Commit, |_| Err("R(9, 9): -1".to_owned()))
            .unwrap_err();
        assert_eq!(err, "batch rejected (engine unchanged): R(9, 9): -1");
    }

    fn batch(updates: &[(&str, &[i64], i64)]) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        for (rel, t, d) in updates {
            b.push(rel, Tuple::ints(t), *d);
        }
        b
    }

    /// The row store's rows, sorted.
    fn store(s: &Session) -> Vec<(String, Tuple, i64)> {
        let db = s.staged();
        let rels = db.relations().into_iter();
        let mut rows: Vec<_> = rels
            .flat_map(|r| {
                db.rows(r)
                    .into_iter()
                    .map(move |(t, m)| (r.to_owned(), t, m))
            })
            .collect();
        rows.sort_unstable();
        rows
    }

    /// One write verb: before `build` every delta goes to the row store,
    /// after it each relation's go where its rows live, and a batch whose
    /// row-store part over-deletes or sums past `i64` changes neither side.
    #[test]
    fn a_batch_goes_where_each_relation_lives_and_commits_whole() {
        let mut s = Session::default();
        let q = ivme_query::parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
        s.admin(AdminOp::Query(q)).unwrap();
        s.apply(&batch(&[
            ("R", &[1, 10], 1),
            ("S", &[10, 5], 3),
            ("T", &[7], 1),
        ]))
        .unwrap();
        // An over-delete in the store refuses the batch before `build`.
        let err = s.apply(&batch(&[("R", &[1, 10], 1), ("S", &[10, 5], -4)]));
        assert!(err.unwrap_err().starts_with("negative multiplicity"));
        assert_eq!(s.staged().get("R", &Tuple::ints(&[1, 10])), 1);
        assert_eq!(s.admin(AdminOp::Build).unwrap(), "built: N = 2\n");
        // After `build`: R and S are the engine's, T stays in the store.
        s.apply(&batch(&[("R", &[2, 10], 1), ("X", &[8], 2)]))
            .unwrap();
        let eng = s.engine().unwrap();
        assert_eq!(eng.stats().updates, 1, "only R's delta reached the engine");
        assert_eq!(eng.export_database().get("R", &Tuple::ints(&[2, 10])), 1);
        let t = |rel: &str, v: &[i64], m| (rel.to_owned(), Tuple::ints(v), m);
        assert_eq!(store(&s), [t("T", &[7], 1), t("X", &[8], 2)]);
        // Refused whole: the store over-deletes, or the engine does, or a
        // store tuple's deltas sum past `i64`, or its count would.
        let mut past = batch(&[("R", &[3, 10], 1)]);
        past.push("X", Tuple::ints(&[8]), i64::MAX);
        past.push("X", Tuple::ints(&[8]), i64::MAX);
        for (b, why) in [
            (
                batch(&[("R", &[3, 10], 1), ("T", &[7], -2)]),
                "negative multiplicity",
            ),
            (
                batch(&[("R", &[9, 9], -1), ("T", &[7], 1)]),
                "negative multiplicity",
            ),
            (
                past,
                "multiplicity overflow: the deltas of X(8) sum past i64",
            ),
            (
                batch(&[("R", &[3, 10], 1), ("X", &[8], i64::MAX)]),
                "multiplicity overflow: tuple",
            ),
        ] {
            let err = s.apply(&b).unwrap_err();
            assert!(err.starts_with(why), "{err}");
            assert_eq!(store(&s), [t("T", &[7], 1), t("X", &[8], 2)]);
            let db = s.engine().unwrap().export_database();
            assert_eq!((db.len("R"), db.len("S")), (2, 1));
            assert_eq!(s.engine().unwrap().stats().updates, 1);
        }
        // A relation the query does not name is stored, and a later query
        // that names it builds from it.
        let q = ivme_query::parse_query("Q(C) :- S(B,C), X(C)").unwrap();
        s.admin(AdminOp::Query(q)).unwrap();
        s.admin(AdminOp::Build).unwrap();
        let view = s.read_view(1);
        assert_eq!(view.execute(Command::Count).unwrap(), "0\n");
    }

    /// `stats` before `build` answers the epoch and the row store's sizes.
    #[test]
    fn stats_before_build_reports_the_row_store() {
        let mut s = Session::default();
        assert_eq!(
            s.read_view(0).execute(Command::Stats).unwrap(),
            "snapshot_epoch = 0\nrow store:\n"
        );
        s.apply(&batch(&[
            ("R", &[1, 2], 1),
            ("R", &[1, 3], 2),
            ("T", &[7], 1),
        ]))
        .unwrap();
        let stats = s.read_view(4).execute(Command::Stats).unwrap();
        assert_eq!(stats, "snapshot_epoch = 4\nrow store: R=2, T=1\n");
        assert_eq!(
            s.read_view(4).execute(Command::Count).unwrap_err(),
            NOT_BUILT
        );
    }

    /// `apply_with` runs its hook once for every batch that commits —
    /// engine-only, row-store-only and mixed — and never for one the
    /// engine or the row store refuses.
    #[test]
    fn the_validated_hook_runs_once_per_commit_and_never_on_a_refusal() {
        let mut s = Session::default();
        let q = ivme_query::parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
        s.admin(AdminOp::Query(q)).unwrap();
        let mut runs = 0;
        // Before `build`: the row store alone.
        s.apply_with(&batch(&[("R", &[1, 10], 1), ("T", &[7], 1)]), || runs += 1)
            .unwrap();
        assert_eq!(runs, 1);
        s.admin(AdminOp::Build).unwrap();
        // Built: the engine alone, the store alone, and both in one batch.
        for b in [
            batch(&[("R", &[2, 10], 1)]),
            batch(&[("T", &[8], 1)]),
            batch(&[("R", &[3, 10], 1), ("T", &[7], -1)]),
        ] {
            let before = runs;
            s.apply_with(&b, || runs += 1).unwrap();
            assert_eq!(runs, before + 1);
        }
        let mut past = batch(&[("R", &[4, 10], 1)]);
        past.push("T", Tuple::ints(&[8]), i64::MAX);
        past.push("T", Tuple::ints(&[8]), i64::MAX);
        let refused = [
            // Over-deletes: in the engine, in the store, and in the store
            // beside an engine delta that validates.
            (batch(&[("R", &[9, 9], -1)]), "negative multiplicity"),
            (batch(&[("T", &[7], -1)]), "negative multiplicity"),
            (
                batch(&[("R", &[4, 10], 1), ("T", &[8], -2)]),
                "negative multiplicity",
            ),
            // Overflows: a store count past `i64`, and deltas that sum
            // past it.
            (
                batch(&[("R", &[4, 10], 1), ("T", &[8], i64::MAX)]),
                "multiplicity overflow",
            ),
            (past, "multiplicity overflow"),
            // A wrong arity, in the engine and beside a store delta.
            (batch(&[("R", &[1, 2, 3], 1)]), "does not match schema"),
            (
                batch(&[("S", &[5], 1), ("T", &[9], 1)]),
                "does not match schema",
            ),
        ];
        for (b, why) in refused {
            let err = s.apply_with(&b, || runs += 1).unwrap_err();
            assert!(err.contains(why), "{err}");
            assert_eq!(runs, 4, "{err}");
        }
        // Static mode refuses every engine batch.
        s.admin(AdminOp::Mode(Mode::Static)).unwrap();
        let err = s.apply_with(&batch(&[("R", &[5, 10], 1)]), || runs += 1);
        assert!(err.unwrap_err().contains("static"));
        assert_eq!(runs, 4);
        let db = s.engine().unwrap().export_database();
        assert_eq!((db.len("R"), db.len("S")), (3, 0));
        let t = |rel: &str, v: &[i64], m| (rel.to_owned(), Tuple::ints(v), m);
        assert_eq!(store(&s), [t("T", &[8], 1)]);
    }
}
