//! The shared command grammar of the REPL shell and the network server.
//!
//! One line of the `ivme` command language parses into one [`Command`];
//! the REPL ([`crate::Shell`]) and the `ivme-server` connection handler
//! both run it through [`crate::session`], so the two front ends cannot
//! drift apart: a script that works in the shell works over a socket
//! verbatim.
//!
//! The module also defines the wire framing the server and client speak
//! (see [`write_ok`] / [`read_response`]): requests are single command
//! lines, responses are
//!
//! ```text
//! ok <n>\n        followed by exactly n payload lines, or
//! err <message>\n
//! ```
//!
//! — trivially parseable with a buffered line reader, pipelinable (a
//! client may write many command lines before reading the matching
//! responses, which is how batch submission amortizes round trips), and
//! free of any binary framing the offline toolchain would need a codec
//! dependency for.

use std::io::{self, BufRead, Write};

use ivme_core::Mode;
use ivme_data::{Tuple, Value};
use ivme_query::{classify, parse_query, Query};

use crate::session::AdminOp;

/// One parsed command line. The grammar is documented in [`HELP`].
#[derive(Clone, Debug)]
pub enum Command {
    /// `query <datalog>` — register a (pre-validated hierarchical) query.
    Query(Query),
    /// `epsilon <0..1>`
    Epsilon(f64),
    /// `mode dynamic|static`
    Mode(Mode),
    /// `load <rel> <path.csv>` — a CSV's rows, as one batch of inserts.
    Load { relation: String, path: String },
    /// `build`
    Build,
    /// `insert`/`delete <rel> <v1,v2,...>` — `delta` is +1 or −1.
    Update {
        relation: String,
        tuple: Tuple,
        delta: i64,
    },
    /// `.batch begin`
    BatchBegin,
    /// `.batch commit`
    BatchCommit,
    /// `.batch abort`
    BatchAbort,
    /// `.batch` / `.batch status`
    BatchStatus,
    /// `list [k]`
    List { limit: usize },
    /// `get <v1,v2,...>`
    Get(Tuple),
    /// `page <offset> <limit>`
    Page { offset: usize, limit: usize },
    /// `count`
    Count,
    /// `stats`
    Stats,
    /// `classify`
    Classify,
    /// `plan`
    Plan,
    /// `help`
    Help,
    /// `quit` / `exit`
    Quit,
    /// `shutdown` — server-only: drain, fsync, snapshot, exit.
    Shutdown,
}

/// Parses one command line. Returns `Ok(None)` for blank lines and
/// `#`-comments, `Err` with the user-facing message for malformed input.
/// Semantic validation that needs no engine state happens here too
/// (`epsilon` range, hierarchical check of `query`), so every front end
/// rejects bad input identically.
pub fn parse_command(line: &str) -> Result<Option<Command>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    let parsed = match cmd {
        "quit" | "exit" => Command::Quit,
        "help" => Command::Help,
        "query" => {
            let q = parse_query(rest).map_err(|e| e.to_string())?;
            if !classify(&q).hierarchical {
                return Err(format!("query is not hierarchical: {q}"));
            }
            Command::Query(q)
        }
        "epsilon" => {
            let e: f64 = rest.parse().map_err(|_| format!("bad epsilon: {rest}"))?;
            if !(0.0..=1.0).contains(&e) {
                return Err(format!("epsilon {e} outside [0, 1]"));
            }
            Command::Epsilon(e)
        }
        "mode" => Command::Mode(match rest {
            "dynamic" => Mode::Dynamic,
            "static" => Mode::Static,
            other => return Err(format!("unknown mode `{other}` (dynamic|static)")),
        }),
        "load" => {
            let (rel, path) = rest
                .split_once(char::is_whitespace)
                .ok_or("usage: load <relation> <path.csv>")?;
            Command::Load {
                relation: rel.to_owned(),
                path: path.trim().to_owned(),
            }
        }
        "build" => Command::Build,
        "insert" | "delete" => {
            let (rel, tuple) = word_tuple(rest, "usage: insert|delete <relation> <v1,v2,...>")?;
            Command::Update {
                relation: rel.to_owned(),
                tuple,
                delta: if cmd == "insert" { 1 } else { -1 },
            }
        }
        "update" => {
            // The general form: an explicit signed multiplicity delta.
            // `insert`/`delete` are sugar for delta ±1; the WAL uses this
            // verb to log consolidated entries with |delta| > 1 in one line.
            const USAGE: &str = "usage: update <relation> <delta> <v1,v2,...>";
            let (rel, rest) = rest.split_once(char::is_whitespace).ok_or(USAGE)?;
            let (delta, tuple) = word_tuple(rest.trim(), USAGE)?;
            let delta: i64 = delta
                .parse()
                .map_err(|_| format!("bad update delta: {delta}"))?;
            if delta == 0 {
                return Err("update delta must be non-zero".into());
            }
            Command::Update {
                relation: rel.to_owned(),
                tuple,
                delta,
            }
        }
        ".batch" => match rest {
            "begin" => Command::BatchBegin,
            "commit" => Command::BatchCommit,
            "abort" => Command::BatchAbort,
            "" | "status" => Command::BatchStatus,
            other => {
                return Err(format!(
                    "usage: .batch begin|commit|abort|status (got `{other}`)"
                ))
            }
        },
        "list" => Command::List {
            limit: if rest.is_empty() {
                usize::MAX
            } else {
                rest.parse().map_err(|_| format!("bad limit: {rest}"))?
            },
        },
        "get" => Command::Get(parse_tuple(rest)?),
        "page" => {
            let (off, lim) = rest
                .split_once(char::is_whitespace)
                .ok_or("usage: page <offset> <limit>")?;
            Command::Page {
                offset: off
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad offset: {off}"))?,
                limit: lim
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad limit: {lim}"))?,
            }
        }
        "count" => Command::Count,
        "stats" => Command::Stats,
        "shutdown" => Command::Shutdown,
        "classify" => Command::Classify,
        "plan" => Command::Plan,
        other => return Err(format!("unknown command `{other}` (try `help`)")),
    };
    Ok(Some(parsed))
}

/// Splits `<word> [<v1,v2,...>]` — a relation name, or an update's delta
/// — off the rest of a line. A missing value list is the nullary tuple,
/// which is how a nullary relation's lines render.
fn word_tuple<'a>(rest: &'a str, usage: &str) -> Result<(&'a str, Tuple), String> {
    if rest.is_empty() {
        return Err(usage.to_owned());
    }
    let (word, csv) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
    Ok((word, parse_tuple(csv)?))
}

/// Reads a CSV file into tuples, skipping blank lines — the loading half
/// of `load`, shared by the shell and the server (which reads its own
/// disk).
pub fn load_csv(path: &str) -> Result<Vec<Tuple>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut rows = Vec::new();
    for (i, row) in text.lines().enumerate() {
        if row.trim().is_empty() {
            continue;
        }
        rows.push(parse_tuple(row).map_err(|e| format!("{path}:{}: {e}", i + 1))?);
    }
    Ok(rows)
}

/// Parses a CSV row into a tuple: integer cells become `Int`, everything
/// else `Str`. Whitespace around cells is trimmed.
pub fn parse_tuple(csv: &str) -> Result<Tuple, String> {
    if csv.trim().is_empty() {
        return Ok(Tuple::empty());
    }
    Ok(csv
        .split(',')
        .map(|cell| {
            let cell = cell.trim();
            match cell.parse::<i64>() {
                Ok(v) => Value::Int(v),
                Err(_) => Value::from(cell),
            }
        })
        .collect())
}

// ----------------------------------------------------------------------
// Canonical serialization
// ----------------------------------------------------------------------
//
// The write-ahead log and replication features persist commands as the
// exact text this grammar parses, so the serializers live next to the
// parser they must round-trip through. `parse_tuple` trims cells, so a
// `Str` cell can never carry leading/trailing whitespace (it was trimmed
// on the way in) and the `Display` rendering below re-parses to an equal
// tuple. Commas inside `Str` cells are impossible for the same reason:
// the cell would have split on entry.

/// Renders a tuple in the CSV form [`parse_tuple`] accepts.
pub fn format_tuple(tuple: &Tuple) -> String {
    let mut out = String::new();
    push_tuple(&mut out, tuple);
    out
}

/// Appends [`format_tuple`]'s rendering to `out` without allocating.
pub fn push_tuple(out: &mut String, tuple: &Tuple) {
    use std::fmt::Write as _;
    for (i, v) in tuple.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
}

/// Appends one update line, newline included — the one renderer behind
/// every logged line: `insert`/`delete <rel> <csv>` for a delta of ±1 (the
/// common case, kept human-readable), the general `update <rel> <delta>
/// <csv>` otherwise. A nullary tuple renders as an empty value list, which
/// [`parse_command`] reads back.
pub fn push_line(out: &mut String, relation: &str, tuple: &Tuple, delta: i64) {
    use std::fmt::Write as _;
    let (verb, delta) = match delta {
        1 => ("insert ", None),
        -1 => ("delete ", None),
        d => ("update ", Some(d)),
    };
    out.push_str(verb);
    out.push_str(relation);
    out.push(' ');
    if let Some(d) = delta {
        let _ = write!(out, "{d} ");
    }
    push_tuple(out, tuple);
    out.push('\n');
}

/// Serializes a whole delta batch as the command lines a connection
/// would send: `.batch begin`, one line per consolidated entry (in the
/// batch's iteration order — replay re-consolidates, so the order carries
/// no meaning), `.batch commit`. Replaying the lines through the normal
/// execute path reapplies the batch atomically. One pass, into one
/// buffer sized up front.
pub fn batch_lines(batch: &ivme_data::DeltaBatch) -> String {
    // ~32 bytes a line, the two `.batch` lines included.
    let mut out = String::with_capacity(32 * (batch.distinct_len() + 1));
    out.push_str(".batch begin\n");
    for rel in batch.relations() {
        for (tuple, delta) in batch.deltas(rel) {
            push_line(&mut out, rel, tuple, delta);
        }
    }
    out.push_str(".batch commit\n");
    out
}

impl AdminOp {
    /// The command text that replays this op — the WAL frame payload,
    /// captured *before* [`Session::admin`](crate::session::Session::admin)
    /// consumes the op. Rendering reuses the grammar's own canonical
    /// forms so replay parses exactly what a connection would have sent.
    pub fn wal_text(&self) -> String {
        match self {
            AdminOp::Query(q) => format!("query {q}"),
            // f64 Display is the shortest round-tripping decimal in Rust,
            // so the replayed epsilon is bit-identical.
            AdminOp::Epsilon(e) => format!("epsilon {e}"),
            AdminOp::Mode(Mode::Dynamic) => "mode dynamic".to_owned(),
            AdminOp::Mode(Mode::Static) => "mode static".to_owned(),
            AdminOp::Build => "build".to_owned(),
        }
    }
}

// ----------------------------------------------------------------------
// Wire framing
// ----------------------------------------------------------------------

/// One server response: the shell executor's `Result<String, String>`
/// carried over the wire.
pub type Response = Result<String, String>;

/// Writes a success response: `ok <n>` followed by the `n` lines of
/// `payload` (a trailing newline does not produce an empty extra line;
/// an empty payload frames as `ok 0`).
pub fn write_ok(w: &mut impl Write, payload: &str) -> io::Result<()> {
    if payload.is_empty() {
        return writeln!(w, "ok 0");
    }
    let lines: Vec<&str> = trimmed_lines(payload).collect();
    writeln!(w, "ok {}", lines.len())?;
    for l in lines {
        writeln!(w, "{l}")?;
    }
    Ok(())
}

/// Writes an error response. The message is flattened to one line (the
/// framing is line-oriented; multi-line errors would desynchronize it).
pub fn write_err(w: &mut impl Write, msg: &str) -> io::Result<()> {
    writeln!(w, "err {}", msg.replace('\n', " / "))
}

/// Reads one framed response. `Ok(None)` on clean EOF before the header
/// line; payload lines are rejoined with `\n` (with a trailing newline
/// when non-empty, matching what [`write_ok`] was given).
pub fn read_response(r: &mut impl BufRead) -> io::Result<Option<Response>> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let header = header.trim_end();
    if let Some(msg) = header.strip_prefix("err ") {
        return Ok(Some(Err(msg.to_owned())));
    }
    let n: usize = header
        .strip_prefix("ok ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed response header: {header:?}"),
            )
        })?;
    let mut payload = String::new();
    for _ in 0..n {
        if r.read_line(&mut payload)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-payload",
            ));
        }
    }
    Ok(Some(Ok(payload)))
}

fn trimmed_lines(payload: &str) -> impl Iterator<Item = &str> {
    payload.strip_suffix('\n').unwrap_or(payload).split('\n')
}

// ----------------------------------------------------------------------
// Replication wire protocol
// ----------------------------------------------------------------------
//
// The primary→replica log stream is line-oriented like the client
// protocol, with binary payloads announced by a length header — see
// docs/PROTOCOL.md §4 for the normative spec. The verbs live here, next
// to the command grammar, because every replicated payload *is* command
// text of that grammar — a WAL frame, or a frame of a checkpoint's round:
// a third-party follower needs nothing beyond this module's vocabulary.
// Handshake (follower → primary):
//
// ```text
// hello <version> <epoch>
// ```
//
// — every round through `<epoch>` is applied; send what is newer.
// Primary → follower messages (each header on its own line, payload
// bytes immediately after where a length is announced):
//
// ```text
// snapshot <epoch> <n>     then n frame messages: a checkpoint's round
// round <epoch> <n>        then n frame messages: one whole commit round
// frame <len>              then <len> bytes: one WAL frame's command text
// reset                    follower state is unusable: drop it, reconnect fresh
// ```
//
// Follower → primary, after applying a round (best-effort flow feedback,
// never load-bearing for correctness):
//
// ```text
// ack <epoch> <frames>
// ```

/// Replication protocol version spoken by [`repl_hello_line`]. A primary
/// refuses (closes on) a hello with any other version. Version 6 has one
/// write verb: rows travel as `.batch` frames of updates, before `build`
/// too; version 5 still logged `row` and `stage` lines.
pub const REPL_VERSION: u64 = 6;

/// One primary→follower stream message header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplHeader {
    /// The `frames` frame messages of a checkpoint's round follow: replayed
    /// onto a fresh state, they rebuild the primary's state at `epoch`.
    Snapshot { epoch: u64, frames: usize },
    /// The `frames` frame messages of commit round `epoch` follow — all
    /// of them: a round is never split across messages.
    Round { epoch: u64, frames: usize },
    /// The follower's resume point no longer exists on the primary (e.g.
    /// the primary recovered to an older epoch): discard local state and
    /// reconnect from scratch.
    Reset,
}

/// The next whitespace-separated field of a replication line, as a
/// decimal number.
fn repl_num<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
    what: &str,
    line: &str,
) -> Result<u64, String> {
    fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad {what} in replication line `{}`", line.trim()))
}

/// Renders the follower's handshake line: every round through `epoch` is
/// applied (0 for a fresh follower).
pub fn repl_hello_line(epoch: u64) -> String {
    format!("hello {REPL_VERSION} {epoch}")
}

/// Parses a handshake line into the follower's epoch, rejecting unknown
/// protocol versions.
pub fn parse_repl_hello(line: &str) -> Result<u64, String> {
    let mut it = line.split_whitespace();
    if it.next() != Some("hello") {
        return Err(format!("expected `hello ...`, got `{}`", line.trim()));
    }
    let version = repl_num(&mut it, "version", line)?;
    if version != REPL_VERSION {
        return Err(format!(
            "unsupported replication protocol version {version} (speaking {REPL_VERSION})"
        ));
    }
    repl_num(&mut it, "epoch", line)
}

/// Renders one stream message header line.
pub fn repl_header_line(h: &ReplHeader) -> String {
    match h {
        ReplHeader::Snapshot { epoch, frames } => format!("snapshot {epoch} {frames}"),
        ReplHeader::Round { epoch, frames } => format!("round {epoch} {frames}"),
        ReplHeader::Reset => "reset".to_owned(),
    }
}

/// Parses one stream message header line.
pub fn parse_repl_header(line: &str) -> Result<ReplHeader, String> {
    let mut it = line.split_whitespace();
    let verb = it.next().ok_or("empty replication header")?;
    let mut num = |what| repl_num(&mut it, what, line);
    match verb {
        "snapshot" => Ok(ReplHeader::Snapshot {
            epoch: num("epoch")?,
            frames: num("frame count")? as usize,
        }),
        "round" => Ok(ReplHeader::Round {
            epoch: num("epoch")?,
            frames: num("frame count")? as usize,
        }),
        "reset" => Ok(ReplHeader::Reset),
        other => Err(format!("unknown replication header verb `{other}`")),
    }
}

/// Renders the per-frame sub-header inside a `round` or `snapshot`
/// message.
pub fn repl_frame_line(len: usize) -> String {
    format!("frame {len}")
}

/// Parses a `frame <len>` sub-header into the payload length.
pub fn parse_repl_frame(line: &str) -> Result<usize, String> {
    line.trim()
        .strip_prefix("frame ")
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| format!("bad frame header `{}`", line.trim()))
}

/// Renders the follower's progress report: everything through round
/// `epoch` is applied and serving, `frames` frames applied on this
/// connection (the primary diffs this against what it sent on the same
/// connection for the `lag_frames` stat).
pub fn repl_ack_line(epoch: u64, frames: u64) -> String {
    format!("ack {epoch} {frames}")
}

/// Parses an ack line into `(epoch, frames)`.
pub fn parse_repl_ack(line: &str) -> Result<(u64, u64), String> {
    let mut it = line.split_whitespace();
    if it.next() != Some("ack") {
        return Err(format!("expected `ack ...`, got `{}`", line.trim()));
    }
    Ok((
        repl_num(&mut it, "epoch", line)?,
        repl_num(&mut it, "frames", line)?,
    ))
}

/// The `quit` reply shared by every front end.
pub const BYE: &str = "bye\n";

/// The `help` text shared by every front end.
pub const HELP: &str = "\
commands:
  query <datalog>        register a hierarchical query (Q(A,C) :- R(A,B), S(B,C))
  epsilon <0..1>         set the trade-off knob (default 0.5)
  mode dynamic|static    set the evaluation mode (default dynamic)
  load <rel> <csv path>  insert a CSV's rows as one batch (stages them while a batch is open)
  build                  build the engine from the stored rows; once built, rebuild from the
                         engine's own rows, counters kept (epsilon and mode rebuild it too)
  insert <rel> <values>  apply a single-tuple insert (stages while a batch is open)
  delete <rel> <values>  apply a single-tuple delete (stages while a batch is open)
  update <rel> <d> <values>  apply one update with an explicit signed delta d
                         (writes go to the engine for the relations its query names, and
                         to the row store otherwise — every write before `build`)
  .batch begin           open a batch: insert/delete/update/load stage instead of applying
  .batch commit          apply the staged batch atomically and report timing
  .batch abort|status    discard / inspect the staged batch
  list [k]               enumerate (up to k) distinct result tuples
  get <v1,v2,...>        point-look-up one result tuple (its multiplicity)
  page <offset> <limit>  one result page in enumeration order
  count                  count distinct result tuples
  stats                  engine counters and sizes (before build: the row store's sizes)
  classify               class membership and widths of the query
  plan                   print the compiled view trees
  shutdown               (server) drain writes, fsync the WAL, snapshot, exit
  quit
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse() {
        assert!(matches!(
            parse_command("query Q(A) :- R(A,B), S(B)").unwrap(),
            Some(Command::Query(_))
        ));
        assert!(matches!(
            parse_command("epsilon 0.25").unwrap(),
            Some(Command::Epsilon(e)) if e == 0.25
        ));
        assert!(matches!(
            parse_command("mode static").unwrap(),
            Some(Command::Mode(Mode::Static))
        ));
        assert!(matches!(
            parse_command("insert R 1,2").unwrap(),
            Some(Command::Update { delta: 1, .. })
        ));
        assert!(matches!(
            parse_command("delete R 1,2").unwrap(),
            Some(Command::Update { delta: -1, .. })
        ));
        assert!(matches!(
            parse_command("list").unwrap(),
            Some(Command::List { limit: usize::MAX })
        ));
        assert!(matches!(
            parse_command("page 10 5").unwrap(),
            Some(Command::Page {
                offset: 10,
                limit: 5
            })
        ));
        assert!(matches!(
            parse_command("update R -3 1,2").unwrap(),
            Some(Command::Update { delta: -3, .. })
        ));
        assert!(matches!(
            parse_command("shutdown").unwrap(),
            Some(Command::Shutdown)
        ));
        assert!(parse_command("").unwrap().is_none());
        assert!(parse_command("# comment").unwrap().is_none());
    }

    #[test]
    fn malformed_commands_error() {
        assert!(parse_command("query Q(A) :- R(A,B), S(B,C), T(C)").is_err());
        assert!(parse_command("epsilon 2").is_err());
        assert!(parse_command("mode sideways").is_err());
        // One engine: no command names a shard count.
        let err = parse_command(".shards 2").unwrap_err();
        assert_eq!(err, "unknown command `.shards` (try `help`)");
        assert!(!HELP.contains("shard"));
        assert!(parse_command(".batch frobnicate").is_err());
        assert!(parse_command("page 0").is_err());
        assert!(parse_command("frobnicate").is_err());
        assert!(parse_command("update R 0 1,2").is_err());
        assert!(parse_command("update R x 1,2").is_err());
        // One write verb: `row` is gone, and so is the log-only `stage`.
        for verb in ["row", "stage"] {
            let err = parse_command(&format!("{verb} R 1,2")).unwrap_err();
            assert_eq!(err, format!("unknown command `{verb}` (try `help`)"));
        }
    }

    #[test]
    fn canonical_serialization_round_trips() {
        let t: Tuple = [Value::Int(7), Value::from("ab cd")].into_iter().collect();
        assert_eq!(format_tuple(&t), "7,ab cd");
        for delta in [-3i64, -1, 1, 5, i64::MIN, i64::MAX] {
            let mut line = String::new();
            push_line(&mut line, "R", &t, delta);
            assert_eq!(line.matches('\n').count(), 1, "{line:?}");
            match parse_command(&line).unwrap() {
                Some(Command::Update {
                    relation,
                    tuple,
                    delta: d,
                }) => {
                    assert_eq!(relation, "R");
                    assert_eq!(tuple, t);
                    assert_eq!(d, delta);
                }
                other => panic!("{line:?} parsed to {other:?}"),
            }
        }
        let mut batch = ivme_data::DeltaBatch::new();
        batch.insert("R", Tuple::ints(&[1, 2]));
        batch.delete("S", Tuple::ints(&[3]));
        let script = batch_lines(&batch);
        let lines: Vec<&str> = script.lines().collect();
        assert_eq!(lines[0], ".batch begin");
        assert_eq!(*lines.last().unwrap(), ".batch commit");
        assert_eq!(lines.len(), 2 + batch.distinct_len());
    }

    #[test]
    fn framing_round_trips() {
        let mut buf = Vec::new();
        write_ok(&mut buf, "a\nb\n").unwrap();
        write_ok(&mut buf, "").unwrap();
        write_err(&mut buf, "boom\nsecond line").unwrap();
        let mut r = io::BufReader::new(buf.as_slice());
        assert_eq!(read_response(&mut r).unwrap(), Some(Ok("a\nb\n".into())));
        // An empty payload frames as `ok 0` and reads back empty.
        assert_eq!(read_response(&mut r).unwrap(), Some(Ok(String::new())));
        assert_eq!(
            read_response(&mut r).unwrap(),
            Some(Err("boom / second line".into()))
        );
        assert_eq!(read_response(&mut r).unwrap(), None);
    }

    #[test]
    fn replication_verbs_round_trip() {
        assert_eq!(repl_hello_line(42), "hello 6 42");
        assert_eq!(parse_repl_hello("hello 6 42").unwrap(), 42);
        // A v1 follower (frame-granular cursor) is refused, not guessed at,
        // and so is a v2 one (its `row`/`build` frames staged and rebuilt
        // from the staged rows where later frames insert and keep the
        // writes), a v3 one (its frames may hold `.shards`) and a v4 one
        // (it reads a checkpoint as a keyword text file) and a v5 one (it
        // ships `row` frames and `stage` lines).
        let old = [
            "hello 1 42 3",
            "hello 2 42",
            "hello 3 42",
            "hello 4 42",
            "hello 5 42",
        ];
        for old in old {
            assert!(parse_repl_hello(old).unwrap_err().contains("version"));
        }
        assert!(parse_repl_hello("hello 6").is_err());
        assert!(parse_repl_hello("howdy 6 42").is_err());
        // parse ∘ render is the identity on every header variant.
        for h in [
            ReplHeader::Snapshot {
                epoch: 9,
                frames: 7,
            },
            ReplHeader::Round {
                epoch: 10,
                frames: 2,
            },
            ReplHeader::Reset,
        ] {
            assert_eq!(parse_repl_header(&repl_header_line(&h)).unwrap(), h);
        }
        assert_eq!(
            repl_header_line(&ReplHeader::Snapshot {
                epoch: 9,
                frames: 7
            }),
            "snapshot 9 7"
        );
        assert!(parse_repl_header("snapshot 9").is_err());
        assert!(parse_repl_header("rebase 11").is_err());
        assert!(parse_repl_header("round ten 2").is_err());
        assert!(parse_repl_header("frobnicate 1").is_err());
        assert_eq!(parse_repl_frame(&repl_frame_line(17)).unwrap(), 17);
        assert!(parse_repl_frame("frame x").is_err());
        assert_eq!(parse_repl_ack(&repl_ack_line(8, 21)).unwrap(), (8, 21));
        assert!(parse_repl_ack("ack 8").is_err());
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut r = io::BufReader::new("ok 2\nonly one line\n".as_bytes());
        assert!(read_response(&mut r).is_err());
        let mut r = io::BufReader::new("what 3\n".as_bytes());
        assert!(read_response(&mut r).is_err());
    }
}
