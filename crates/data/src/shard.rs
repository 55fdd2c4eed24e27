//! Hash-partition routing of relations, tuples, and delta batches.
//!
//! A [`ShardRouter`] assigns every tuple of every routed relation to one of
//! `S` shards by hashing a single *routing column* — for the IVM^ε engine
//! that column is the canonical root variable of the relation's connected
//! component, which occurs in **all** atoms of the component
//! (`ivme_plan::ComponentPlan::root_var`). Tuples with different root
//! values never join, so the per-shard sub-databases are fully independent:
//! view trees, heavy/light partitions, and indicators can be materialized
//! and maintained per shard without any cross-shard communication.
//!
//! Relations without a usable routing column (nullary relations, or
//! relation symbols whose occurrences disagree on the column) are *pinned*:
//! all of their tuples go to shard 0. Pinning is sound as long as results
//! are merged **per component** — a pinned relation's component simply has
//! an empty result on every other shard.
//!
//! Hashing reuses the cached-tuple-hash machinery: the routing key is
//! materialized with [`Tuple::project`], which for single-column relations
//! is the identity projection and returns the tuple's own cached 64-bit
//! hash without rehashing (the whole-tuple fast path of the zero-allocation
//! storage layer). The hash → shard map uses the multiply-shift trick
//! instead of `%` so routing costs one multiply per tuple.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::batch::DeltaBatch;
use crate::fx::FxHashMap;
use crate::value::Tuple;

/// How one relation's tuples are assigned to shards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// Hash the value at this column of the tuple.
    Column(usize),
    /// All tuples go to shard 0 (nullary or ambiguous relations).
    Pinned,
}

/// Error: two occurrences of the same relation symbol require different
/// routing columns, so no single per-tuple assignment is join-preserving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteConflict {
    pub relation: String,
    pub existing: Route,
    pub requested: Route,
}

impl std::fmt::Display for RouteConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "relation {} routed on {:?} but {:?} also required",
            self.relation, self.existing, self.requested
        )
    }
}

impl std::error::Error for RouteConflict {}

/// Hash-partition router over `S` shards.
#[derive(Debug)]
pub struct ShardRouter {
    shards: usize,
    routes: FxHashMap<String, Route>,
    /// Tuples whose routing column did not exist (wrong arity): they fall
    /// to shard 0, whose schema validation rejects them — but a workload
    /// that *keeps* sending them would otherwise pile onto shard 0
    /// invisibly. Counted here (atomically: routing happens on shared
    /// `&self` from reader threads) and surfaced through `stats`.
    misroutes: AtomicU64,
}

impl ShardRouter {
    /// A router over `shards ≥ 1` shards with no relations registered yet.
    pub fn new(shards: usize) -> ShardRouter {
        assert!(shards >= 1, "a router needs at least one shard");
        ShardRouter {
            shards,
            routes: FxHashMap::default(),
            misroutes: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Number of wrong-arity tuples routed so far (they fall to shard 0;
    /// see [`ShardRouter::shard_of`]). A non-zero value means some
    /// workload is persistently sending malformed tuples — visible in
    /// `stats` output instead of silently loading shard 0.
    pub fn misroutes(&self) -> u64 {
        self.misroutes.load(Ordering::Relaxed)
    }

    /// Resets the misroute counter to a recovered value. Counters are
    /// cumulative across process restarts — a server restoring from a
    /// snapshot seeds the freshly built router with the persisted count.
    pub fn restore_misroutes(&mut self, count: u64) {
        self.misroutes.store(count, Ordering::Relaxed);
    }

    /// Registers how `relation`'s tuples are routed. Registering the same
    /// route twice is idempotent (repeated atoms of one component);
    /// conflicting columns are an error — the caller decides whether to
    /// pin the relation or give up on sharding.
    pub fn register(&mut self, relation: &str, route: Route) -> Result<(), RouteConflict> {
        match self.routes.get(relation) {
            None => {
                self.routes.insert(relation.to_owned(), route);
                Ok(())
            }
            Some(&existing) if existing == route => Ok(()),
            Some(&existing) => Err(RouteConflict {
                relation: relation.to_owned(),
                existing,
                requested: route,
            }),
        }
    }

    /// Forces `relation` to shard 0 regardless of any previous route.
    pub fn pin(&mut self, relation: &str) {
        self.routes.insert(relation.to_owned(), Route::Pinned);
    }

    /// The registered route of `relation`, if any.
    pub fn route(&self, relation: &str) -> Option<Route> {
        self.routes.get(relation).copied()
    }

    /// The shard owning `tuple` of `relation`; `None` when the relation is
    /// not registered.
    pub fn shard_of(&self, relation: &str, tuple: &Tuple) -> Option<usize> {
        Some(match *self.routes.get(relation)? {
            Route::Pinned => 0,
            // Wrong-arity tuples (no such column) fall to shard 0, whose
            // schema validation rejects them — routing must not panic
            // before the consumer can surface its arity error.
            Route::Column(c) if c < tuple.arity() => {
                self.shard_of_hash(tuple.project(&[c]).cached_hash())
            }
            Route::Column(_) => {
                self.misroutes.fetch_add(1, Ordering::Relaxed);
                0
            }
        })
    }

    /// Maps a routing-key hash to a shard: multiply-shift onto `[0, S)`
    /// using the high 32 bits (FxHash mixes them well; low bits are weak).
    #[inline]
    fn shard_of_hash(&self, hash: u64) -> usize {
        (((hash >> 32) * self.shards as u64) >> 32) as usize
    }

    /// Splits a consolidated batch into one sub-batch per shard. The
    /// sub-batches partition the input's net deltas; their cardinalities
    /// sum to the number of routed *net entries* (the input's raw
    /// cardinality is not recoverable per shard once consolidated).
    /// Relations the router does not know keep flowing — to shard 0 — so
    /// the consumer surfaces its own unknown-relation error.
    pub fn split(&self, batch: &DeltaBatch) -> Vec<DeltaBatch> {
        let mut out: Vec<DeltaBatch> = (0..self.shards).map(|_| DeltaBatch::new()).collect();
        // Scratch buckets reused across relations: tuples are fanned out
        // per shard first, then folded into each sub-batch with a single
        // per-relation map resolution.
        let mut buckets: Vec<Vec<(Tuple, i64)>> = (0..self.shards).map(|_| Vec::new()).collect();
        for relation in batch.relations() {
            match self.routes.get(relation).copied() {
                Some(Route::Column(c)) => {
                    for (t, d) in batch.deltas(relation) {
                        let s = if c < t.arity() {
                            self.shard_of_hash(t.project(&[c]).cached_hash())
                        } else {
                            self.misroutes.fetch_add(1, Ordering::Relaxed);
                            0
                        };
                        buckets[s].push((t.clone(), d));
                    }
                    for (s, bucket) in buckets.iter_mut().enumerate() {
                        if !bucket.is_empty() {
                            out[s].extend_relation(relation, bucket.drain(..));
                        }
                    }
                }
                Some(Route::Pinned) | None => {
                    out[0].extend_relation(
                        relation,
                        batch.deltas(relation).map(|(t, d)| (t.clone(), d)),
                    );
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
        r.register("R", Route::Column(1)).unwrap();
        r.register("S", Route::Column(0)).unwrap();
        r.register("Z", Route::Pinned).unwrap();
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
        r.register("V", Route::Column(0)).unwrap();
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
        r.register("R", Route::Column(1)).unwrap();
        let err = r.register("R", Route::Column(0)).unwrap_err();
        assert_eq!(err.relation, "R");
        assert!(err.to_string().contains("routed on"));
        r.pin("R");
        assert_eq!(r.route("R"), Some(Route::Pinned));
    }

    #[test]
    fn split_partitions_the_batch() {
        let r = router();
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
    }

    #[test]
    fn unknown_relations_flow_to_shard_zero() {
        let r = ShardRouter::new(3);
        let mut b = DeltaBatch::new();
        b.push("mystery", Tuple::ints(&[1, 2]), 1);
        let parts = r.split(&b);
        assert_eq!(parts[0].distinct_len(), 1);
        assert!(parts[1].is_empty() && parts[2].is_empty());
    }

    #[test]
    fn wrong_arity_tuples_are_counted_as_misroutes() {
        let r = router();
        assert_eq!(r.misroutes(), 0);
        // R routes on column 1: a unary tuple has no such column.
        assert_eq!(r.shard_of("R", &Tuple::ints(&[7])), Some(0));
        assert_eq!(r.misroutes(), 1);
        // Correctly-shaped tuples never bump the counter.
        let _ = r.shard_of("R", &Tuple::ints(&[7, 8]));
        let _ = r.shard_of("Z", &Tuple::empty());
        assert_eq!(r.misroutes(), 1);
        // Splitting a batch counts per wrong-arity tuple.
        let mut b = DeltaBatch::new();
        b.push("R", Tuple::ints(&[1]), 1);
        b.push("R", Tuple::ints(&[2]), 1);
        b.push("R", Tuple::ints(&[3, 4]), 1);
        let parts = r.split(&b);
        assert_eq!(r.misroutes(), 3);
        assert_eq!(parts.iter().map(DeltaBatch::distinct_len).sum::<usize>(), 3);
    }

    #[test]
    fn one_shard_router_sends_everything_to_zero() {
        let mut r = ShardRouter::new(1);
        r.register("R", Route::Column(0)).unwrap();
        for i in 0..20i64 {
            assert_eq!(r.shard_of("R", &Tuple::ints(&[i, i])), Some(0));
        }
    }
}
