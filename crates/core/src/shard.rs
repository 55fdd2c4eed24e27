//! Hash-partition routing of tuples and delta batches over the shards of a
//! [`ShardedEngine`](crate::ShardedEngine).
//!
//! A [`ShardRouter`] assigns every tuple of every routed relation to one of
//! `S` shards by hashing a single *routing column* — the canonical root
//! variable of the relation's connected component, which occurs in **all**
//! atoms of the component (`ivme_plan::ComponentPlan::root_var`). Tuples
//! with different root values never join, so the per-shard sub-databases
//! are fully independent: view trees, heavy/light partitions, and
//! indicators are materialized and maintained per shard without any
//! cross-shard communication.
//!
//! Relations without a usable routing column (nullary relations, or
//! relation symbols whose occurrences disagree on the column) are *pinned*:
//! all of their tuples go to shard 0. Pinning is sound as long as results
//! are merged **per component** — a pinned relation's component simply has
//! an empty result on every other shard.
//!
//! One rule places every tuple (`ShardRouter::place`); `shard_of`
//! answers with it and `split` routes a batch through it. Hashing reuses
//! the cached-tuple-hash machinery: the routing key is materialized with
//! [`Tuple::project`], which for single-column relations is the identity
//! projection and returns the tuple's own cached 64-bit hash without
//! rehashing. The hash → shard map uses the multiply-shift trick instead
//! of `%` so routing costs one multiply per tuple.

use ivme_data::fx::FxHashMap;
use ivme_data::{DeltaBatch, Tuple};

/// How one relation's tuples are assigned to shards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Route {
    /// Hash the value at this column of the tuple.
    Column(usize),
    /// All tuples go to shard 0 (nullary or ambiguous relations).
    Pinned,
}

/// Hash-partition router over `S` shards.
#[derive(Debug)]
pub(crate) struct ShardRouter {
    shards: usize,
    routes: FxHashMap<String, Route>,
    /// Wrong-arity tuples (no routing column) that `split`
    /// sent to shard 0, whose schema validation rejects them — a workload
    /// that *keeps* sending them would otherwise pile onto shard 0
    /// invisibly. Surfaced through `stats`.
    misroutes: u64,
}

impl ShardRouter {
    /// A router over `shards ≥ 1` shards with no relations registered yet.
    pub(crate) fn new(shards: usize) -> ShardRouter {
        assert!(shards >= 1, "a router needs at least one shard");
        ShardRouter {
            shards,
            routes: FxHashMap::default(),
            misroutes: 0,
        }
    }

    /// Number of shards.
    pub(crate) fn num_shards(&self) -> usize {
        self.shards
    }

    /// Number of wrong-arity tuples split so far.
    pub(crate) fn misroutes(&self) -> u64 {
        self.misroutes
    }

    /// Registers how `relation`'s tuples are routed; `false` when it is
    /// already routed differently (the existing route stays). Registering
    /// the same route twice is idempotent (repeated atoms of one
    /// component); on a conflict the caller decides whether to pin the
    /// relation or give up on sharding.
    #[must_use]
    pub(crate) fn register(&mut self, relation: &str, route: Route) -> bool {
        *self.routes.entry(relation.to_owned()).or_insert(route) == route
    }

    /// Forces `relation` to shard 0 regardless of any previous route.
    pub(crate) fn pin(&mut self, relation: &str) {
        self.routes.insert(relation.to_owned(), Route::Pinned);
    }

    /// The shard owning `tuple` of `relation`; `None` when the relation is
    /// not registered. A pure query: a wrong-arity tuple answers shard 0
    /// without counting as a misroute.
    pub(crate) fn shard_of(&self, relation: &str, tuple: &Tuple) -> Option<usize> {
        let route = *self.routes.get(relation)?;
        Some(self.place(route, tuple).unwrap_or(0))
    }

    /// The routing rule: the shard `route` sends `tuple` to, or `None`
    /// when the tuple lacks the routing column (wrong arity). Callers send
    /// those to shard 0, whose schema validation rejects them — routing
    /// must not panic before the consumer can surface its arity error.
    fn place(&self, route: Route, tuple: &Tuple) -> Option<usize> {
        match route {
            Route::Pinned => Some(0),
            Route::Column(c) if c < tuple.arity() => {
                // Multiply-shift onto `[0, S)` using the high 32 bits
                // (FxHash mixes them well; low bits are weak).
                let hash = tuple.project(&[c]).cached_hash();
                Some((((hash >> 32) * self.shards as u64) >> 32) as usize)
            }
            Route::Column(_) => None,
        }
    }

    /// Splits a consolidated batch into one sub-batch per shard, counting
    /// every wrong-arity tuple as a misroute. The sub-batches partition
    /// the input's net deltas; their cardinalities sum to the number of
    /// routed *net entries* (the input's raw cardinality is not
    /// recoverable per shard once consolidated). Relations the router does
    /// not know keep flowing — to shard 0 — so the consumer surfaces its
    /// own unknown-relation error.
    pub(crate) fn split(&mut self, batch: &DeltaBatch) -> Vec<DeltaBatch> {
        let mut out: Vec<DeltaBatch> = (0..self.shards).map(|_| DeltaBatch::new()).collect();
        // Scratch buckets reused across relations: tuples are fanned out
        // per shard first, then folded into each sub-batch with a single
        // per-relation map resolution.
        let mut buckets: Vec<Vec<(Tuple, i64)>> = (0..self.shards).map(|_| Vec::new()).collect();
        for relation in batch.relations() {
            let route = self.routes.get(relation).copied().unwrap_or(Route::Pinned);
            for (t, d) in batch.deltas(relation) {
                let s = self.place(route, t).unwrap_or_else(|| {
                    self.misroutes += 1;
                    0
                });
                buckets[s].push((t.clone(), d));
            }
            for (s, bucket) in buckets.iter_mut().enumerate() {
                if !bucket.is_empty() {
                    out[s].extend_relation(relation, bucket.drain(..));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> ShardRouter {
        let mut r = ShardRouter::new(4);
        assert!(r.register("R", Route::Column(1)));
        assert!(r.register("S", Route::Column(0)));
        assert!(r.register("Z", Route::Pinned));
        r
    }

    #[test]
    fn routing_is_deterministic_and_join_preserving() {
        let r = router();
        assert_eq!(r.num_shards(), 4);
        for b in 0..100i64 {
            // R(A,B) on column 1 and S(B,C) on column 0 agree for equal B.
            let sr = r.shard_of("R", &Tuple::ints(&[7, b])).unwrap();
            let ss = r.shard_of("S", &Tuple::ints(&[b, 9])).unwrap();
            assert_eq!(sr, ss, "B = {b} routed apart");
            assert!(sr < 4);
        }
        assert_eq!(r.shard_of("Z", &Tuple::empty()), Some(0));
        assert_eq!(r.shard_of("unknown", &Tuple::ints(&[1])), None);
    }

    #[test]
    fn single_column_route_reuses_cached_hash() {
        let mut r = ShardRouter::new(8);
        assert!(r.register("V", Route::Column(0)));
        for j in 0..50i64 {
            let t = Tuple::ints(&[j]);
            // Identity projection: the shard is a pure function of the
            // tuple's own cached hash.
            let expect = (((t.cached_hash() >> 32) * 8) >> 32) as usize;
            assert_eq!(r.shard_of("V", &t), Some(expect));
        }
    }

    #[test]
    fn register_conflicts_and_idempotence() {
        let mut r = router();
        assert!(r.register("R", Route::Column(1)));
        assert!(!r.register("R", Route::Column(0)));
        // The refused route changed nothing: R still routes on column 1,
        // in step with S's column 0, and some B lands off shard 0.
        let r_shards: Vec<usize> = (0..100i64)
            .map(|b| r.shard_of("R", &Tuple::ints(&[7, b])).unwrap())
            .collect();
        for (b, &s) in (0..100i64).zip(&r_shards) {
            assert_eq!(r.shard_of("S", &Tuple::ints(&[b, 9])), Some(s));
        }
        assert!(r_shards.iter().any(|&s| s != 0));
        r.pin("R");
        for b in 0..100i64 {
            assert_eq!(r.shard_of("R", &Tuple::ints(&[7, b])), Some(0));
        }
    }

    #[test]
    fn split_partitions_the_batch() {
        let mut r = router();
        let mut b = DeltaBatch::new();
        for i in 0..64i64 {
            b.push("R", Tuple::ints(&[i, i % 7]), 1 + (i % 3));
            b.push("S", Tuple::ints(&[i % 7, i]), -1);
        }
        b.push("Z", Tuple::empty(), 5);
        let parts = r.split(&b);
        assert_eq!(parts.len(), 4);
        // Every net entry lands on exactly the shard its key hashes to,
        // with its net delta intact.
        let mut seen = 0usize;
        for (s, part) in parts.iter().enumerate() {
            for rel in ["R", "S", "Z"] {
                for (t, d) in part.deltas(rel) {
                    assert_eq!(r.shard_of(rel, t), Some(s));
                    assert_eq!(d, b.deltas(rel).find(|(bt, _)| *bt == t).unwrap().1);
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, b.distinct_len());
        assert_eq!(r.misroutes(), 0);
    }

    #[test]
    fn unknown_relations_flow_to_shard_zero() {
        let mut r = ShardRouter::new(3);
        let mut b = DeltaBatch::new();
        b.push("mystery", Tuple::ints(&[1, 2]), 1);
        let parts = r.split(&b);
        assert_eq!(parts[0].distinct_len(), 1);
        assert!(parts[1].is_empty() && parts[2].is_empty());
        assert_eq!(r.misroutes(), 0);
    }

    #[test]
    fn wrong_arity_tuples_are_counted_as_misroutes() {
        let mut r = router();
        // R routes on column 1: a unary tuple has no such column. Asking
        // where it goes is a pure query and counts nothing.
        assert_eq!(r.shard_of("R", &Tuple::ints(&[7])), Some(0));
        assert_eq!(r.misroutes(), 0);
        // Splitting counts per wrong-arity tuple and sends each to shard
        // 0; correctly shaped tuples never bump the counter.
        let mut b = DeltaBatch::new();
        b.push("R", Tuple::ints(&[1]), 1);
        b.push("R", Tuple::ints(&[2]), 1);
        b.push("R", Tuple::ints(&[3, 4]), 1);
        b.push("Z", Tuple::empty(), 1);
        let parts = r.split(&b);
        assert_eq!(r.misroutes(), 2);
        assert_eq!(parts.iter().map(DeltaBatch::distinct_len).sum::<usize>(), 4);
        let short: Vec<&Tuple> = parts[0]
            .deltas("R")
            .map(|(t, _)| t)
            .filter(|t| t.arity() == 1)
            .collect();
        assert_eq!(short.len(), 2);
        r.split(&b);
        assert_eq!(r.misroutes(), 4);
    }

    #[test]
    fn one_shard_router_sends_everything_to_zero() {
        let mut r = ShardRouter::new(1);
        assert!(r.register("R", Route::Column(0)));
        for i in 0..20i64 {
            assert_eq!(r.shard_of("R", &Tuple::ints(&[i, i])), Some(0));
        }
    }
}
