//! Response rendering for serving reads, shared by the REPL and the
//! network server.
//!
//! Every function here formats one read command's response from an
//! immutable [`ShardedSnapshot`] — no engine, no locks, no `&mut`. The
//! shell calls them against a snapshot it refreshes after each write; the
//! `ivme-server` connection threads call them against the snapshot the
//! group-commit thread last published. Keeping the formatting in one
//! place is what guarantees the two front ends cannot drift: a transcript
//! recorded against the REPL greps identically against the server.

use std::fmt::Write as _;

use ivme_core::ShardedSnapshot;
use ivme_data::Tuple;
use ivme_query::Query;

/// `list [k]` — first `limit` result tuples plus a summary line.
pub fn render_list(view: &ShardedSnapshot, limit: usize) -> String {
    let mut out = String::new();
    let mut shown = 0;
    for (t, m) in view.enumerate().take(limit) {
        let _ = writeln!(out, "{t} x{m}");
        shown += 1;
    }
    let _ = writeln!(out, "({shown} tuples)");
    out
}

/// `get <tuple>` — point lookup; arity errors are reported against the
/// query's result schema.
pub fn render_get(view: &ShardedSnapshot, query: &Query, t: &Tuple) -> Result<String, String> {
    if t.arity() != query.free.arity() {
        return Err(format!(
            "tuple {t} has arity {}, but the result schema {:?} has arity {}",
            t.arity(),
            query.free,
            query.free.arity()
        ));
    }
    let m = view.multiplicity(t);
    Ok(if m == 0 {
        format!("{t} not in result\n")
    } else {
        format!("{t} x{m}\n")
    })
}

/// `page <offset> <limit>` — one result page plus a summary line.
pub fn render_page(view: &ShardedSnapshot, offset: usize, limit: usize) -> String {
    let mut out = String::new();
    let page = view.enumerate_page(offset, limit);
    for (t, m) in &page {
        let _ = writeln!(out, "{t} x{m}");
    }
    let _ = writeln!(out, "({} tuples at offset {offset})", page.len());
    out
}

/// `count` — number of distinct result tuples.
pub fn render_count(view: &ShardedSnapshot) -> String {
    format!("{}\n", view.count_distinct())
}

/// `stats` for the engine, rendered from its snapshot. The
/// `snapshot_epoch` field is how clients observe snapshot turnover: it
/// moves exactly when the serving layer publishes a fresh view (never
/// mid-read), so a monotone epoch across one connection's reads is the
/// observable face of the no-torn-reads guarantee.
pub fn render_stats(view: &ShardedSnapshot) -> String {
    let s = view.stats();
    let mut out = format!(
        "N = {}, snapshot_epoch = {}\n\
         updates = {}, batches = {}, major rebalances = {}, minor rebalances = {}, misroutes = {}\n",
        view.db_size(),
        view.epoch(),
        s.updates,
        s.batches,
        s.major_rebalances,
        s.minor_rebalances,
        s.misroutes
    );
    let per_rel: Vec<String> = view
        .relation_sizes()
        .iter()
        .map(|(r, n)| format!("{r}={n}"))
        .collect();
    let _ = writeln!(out, "relations: {}", per_rel.join(", "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivme_core::{Database, EngineOptions, ShardedEngine};

    #[test]
    fn renderers_serve_a_frozen_view_without_the_engine() {
        let mut db = Database::new();
        db.insert("R", Tuple::ints(&[1, 10]), 1);
        db.insert("R", Tuple::ints(&[2, 10]), 1);
        db.insert("S", Tuple::ints(&[10, 5]), 1);
        let q = ivme_query::parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
        let mut eng = ShardedEngine::new(&q, &db, EngineOptions::dynamic(0.5), 1).unwrap();
        let view = eng.snapshot(7);
        // Mutate the engine after capture: the view must not move.
        eng.insert("S", Tuple::ints(&[10, 6])).unwrap();
        assert_eq!(render_count(&view), "2\n");
        let list = render_list(&view, 10);
        assert!(list.contains("(1, 5) x1"), "{list}");
        assert!(list.contains("(2 tuples)"), "{list}");
        assert_eq!(
            render_get(&view, &q, &Tuple::ints(&[1, 5])).unwrap(),
            "(1, 5) x1\n"
        );
        assert!(render_get(&view, &q, &Tuple::ints(&[1, 6]))
            .unwrap()
            .contains("not in result"));
        assert!(render_get(&view, &q, &Tuple::ints(&[1])).is_err());
        assert!(render_page(&view, 0, 1).contains("(1 tuples at offset 0)"));
        let stats = render_stats(&view);
        assert!(stats.contains("snapshot_epoch = 7"), "{stats}");
        assert!(stats.starts_with("N = 3, snapshot_epoch = 7\n"), "{stats}");
        assert!(
            stats.ends_with("misroutes = 0\nrelations: R=2, S=1\n"),
            "{stats}"
        );
        // The engine's *next* snapshot sees the write.
        assert_eq!(render_count(&eng.snapshot(8)), "4\n");
    }
}
