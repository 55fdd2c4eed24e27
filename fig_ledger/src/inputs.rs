//! Seed-driven inputs: the two instances, their endless update streams,
//! and the read probes.
//!
//! The seed decides *which* values an instance holds and in what order
//! rows, updates and probes come; it does not decide the instance's
//! shape. Each instance is first generated from a fixed shape seed (join
//! degrees follow the Zipf(1.0) *expected* frequencies, by
//! largest-remainder rounding, instead of being sampled), then every
//! query variable's values are renamed by a bijection drawn from the run
//! seed and every list is reshuffled. Ten seeds therefore give ten
//! different databases — other values, other hash placements, other
//! orders — with the same degree sequence at every step of the stream and
//! the same result sizes, so the benchmark's run-to-run spread measures
//! the program, not the generator's luck.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use ivme_cli::proto;
use ivme_core::Database;
use ivme_data::{DeltaBatch, Tuple};
use ivme_workload::Script;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const TWO_PATH: &str = "Q(A,C) :- R(A,B), S(B,C)";
pub const OMV: &str = "Q(A) :- R(A,B), S(B)";

/// One update: relation, tuple, ±1.
pub type Op = (&'static str, Tuple, i64);

/// Instance sizes. `full` is what the benchmark measures; `tiny` is for
/// the smoke test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Two-path: rows per relation. The result holds ~`rows²/28` tuples.
    pub two_path_rows: usize,
    /// Two-path: distinct join values.
    pub two_path_b_domain: usize,
    /// Two-path: updates per batch (half inserts, half deletes).
    pub two_path_batch: usize,
    /// OMv: matrix dimension `n` (result ≤ `n` tuples).
    pub omv_n: usize,
    /// OMv: tuples per vector batch.
    pub omv_batch: usize,
    /// Two-path: forward batches, all in one palindrome — the stream
    /// plays them, then their retractions in reverse, in ~0.8 s through
    /// the server at the parent commit, so a window repeats each of the
    /// 128 distinct commits some twenty-five times (the reported commit
    /// time is built from each one's fastest repeat).
    pub two_path_batches: usize,
    /// OMv: forward batches (vectors), each its own palindrome.
    pub omv_batches: usize,
}

impl Sizes {
    pub const fn full() -> Sizes {
        Sizes {
            two_path_rows: 820,
            two_path_b_domain: 410,
            two_path_batch: 64,
            omv_n: 1000,
            omv_batch: 256,
            two_path_batches: 64,
            omv_batches: 256,
        }
    }

    #[cfg(test)]
    pub const fn tiny() -> Sizes {
        Sizes {
            two_path_rows: 60,
            two_path_b_domain: 30,
            two_path_batch: 8,
            omv_n: 40,
            omv_batch: 8,
            two_path_batches: 8,
            omv_batches: 8,
        }
    }
}

/// A generated instance: base rows, the forward half of the update
/// stream, and the read probes.
pub struct Instance {
    /// The run seed the instance was relabelled by.
    pub seed: u64,
    pub query: &'static str,
    pub base: Vec<(&'static str, Tuple)>,
    /// Forward batches. Within one batch every tuple is distinct, so a
    /// batch's cardinality equals its consolidated entry count.
    pub forward: Vec<Vec<Op>>,
    /// Palindrome half-length: the stream replays `block` forward batches,
    /// then their exact retractions in reverse, then moves to the next
    /// block (wrapping). Every `2·block` steps the state is the base again,
    /// so the stream never runs out and the state stays in a fixed band.
    pub block: usize,
    /// Point-lookup probes (tuples of the base result).
    pub gets: Vec<Tuple>,
    /// Page offsets, all inside the smallest result the stream produces.
    pub page_offsets: Vec<usize>,
    pub page_limit: usize,
}

/// Which query variable each column holds (0 = A, 1 = B, 2 = C), for the
/// relations and for the result tuples the `get` probes name.
struct Columns {
    r: &'static [usize],
    s: &'static [usize],
    free: &'static [usize],
}

impl Columns {
    fn of(&self, relation: &str) -> &'static [usize] {
        if relation == "R" {
            self.r
        } else {
            self.s
        }
    }
}

const TWO_PATH_COLUMNS: Columns = Columns {
    r: &[0, 1],
    s: &[1, 2],
    free: &[0, 2],
};
const OMV_COLUMNS: Columns = Columns {
    r: &[0, 1],
    s: &[1],
    free: &[0],
};

/// Every instance's shape comes from this seed; the run seed relabels it.
const SHAPE_SEED: u64 = 0x5eed_0f16_1ed9_e500;

/// Renames every variable's values by a seeded bijection on the values
/// that variable takes, then reshuffles the base rows, the updates inside
/// each batch, and the probes. Equalities between values — all a join
/// sees — are kept, so every result size is kept.
fn relabel(mut inst: Instance, cols: &Columns, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2bd0_61c5_7a3f_11e9);
    let mut values: [Vec<i64>; 3] = Default::default();
    {
        let mut note = |t: &Tuple, vars: &[usize]| {
            for (v, &var) in t.values().iter().zip(vars) {
                values[var].push(v.as_int());
            }
        };
        for (rel, t) in &inst.base {
            note(t, cols.of(rel));
        }
        for (rel, t, _) in inst.forward.iter().flatten() {
            note(t, cols.of(rel));
        }
    }
    let rename: Vec<HashMap<i64, i64>> = values
        .into_iter()
        .map(|mut from| {
            from.sort_unstable();
            from.dedup();
            let mut to = from.clone();
            shuffle(&mut to, &mut rng);
            from.into_iter().zip(to).collect()
        })
        .collect();
    let map = |t: &Tuple, vars: &[usize]| -> Tuple {
        let renamed: Vec<i64> = t
            .values()
            .iter()
            .zip(vars)
            .map(|(v, &var)| rename[var][&v.as_int()])
            .collect();
        Tuple::ints(&renamed)
    };
    for (rel, t) in &mut inst.base {
        *t = map(t, cols.of(rel));
    }
    shuffle(&mut inst.base, &mut rng);
    for batch in &mut inst.forward {
        for (rel, t, _) in batch.iter_mut() {
            *t = map(t, cols.of(rel));
        }
        shuffle(batch, &mut rng);
    }
    for t in &mut inst.gets {
        *t = map(t, cols.free);
    }
    shuffle(&mut inst.gets, &mut rng);
    shuffle(&mut inst.page_offsets, &mut rng);
    inst.seed = seed;
    inst
}

impl Instance {
    /// Step `p` of the endless replay: which forward batch, and whether
    /// it is applied (`false`) or retracted (`true`).
    pub fn step(&self, p: usize) -> (usize, bool) {
        let cycle = 2 * self.block;
        let first = (p / cycle) % (self.forward.len() / self.block) * self.block;
        let q = p % cycle;
        if q < self.block {
            (first + q, false)
        } else {
            (first + cycle - 1 - q, true)
        }
    }

    /// Which of the stream's distinct steps step `p` is: the stream is a
    /// cycle of `2 · forward.len()` steps (every batch once forwards, once
    /// retracted), and step `p` finds the database in the same state on
    /// every round of it.
    pub fn step_key(&self, p: usize) -> u32 {
        (p % (2 * self.forward.len())) as u32
    }

    /// The forward batches whose effect is live once `steps` steps have
    /// been applied — what an oracle must add to the base.
    pub fn live_after(&self, steps: usize) -> Range<usize> {
        let cycle = 2 * self.block;
        let first = (steps / cycle) % (self.forward.len() / self.block) * self.block;
        let q = steps % cycle;
        first..first + q.min(cycle - q)
    }

    /// The base database.
    pub fn base_db(&self) -> Database {
        let mut db = Database::new();
        for (rel, t) in &self.base {
            db.insert(rel, t.clone(), 1);
        }
        db
    }

    /// The database after `steps` steps of the replay.
    pub fn db_after(&self, steps: usize) -> Database {
        let mut db = self.base_db();
        for batch in &self.forward[self.live_after(steps)] {
            for (rel, t, d) in batch {
                db.apply(rel, t.clone(), *d);
            }
        }
        db
    }

    /// Batch `i` (or its retraction) as a consolidated [`DeltaBatch`].
    pub fn delta_batch(&self, i: usize, retract: bool) -> DeltaBatch {
        let sign = if retract { -1 } else { 1 };
        let mut b = DeltaBatch::new();
        for (rel, t, d) in &self.forward[i] {
            b.push(rel, t.clone(), sign * d);
        }
        b
    }

    /// Batch `i` (or its retraction) as the pipelined wire script
    /// `.batch begin`, one line per update, `.batch commit`.
    pub fn script(&self, i: usize, retract: bool) -> Script {
        let sign = if retract { -1 } else { 1 };
        let ops = &self.forward[i];
        let mut text = String::with_capacity(ops.len() * 24 + 32);
        text.push_str(".batch begin\n");
        for (rel, t, d) in ops {
            text.push_str(if sign * d > 0 { "insert " } else { "delete " });
            text.push_str(rel);
            text.push(' ');
            proto::push_tuple(&mut text, t);
            text.push('\n');
        }
        text.push_str(".batch commit\n");
        Script {
            text,
            requests: ops.len() + 2,
            updates: ops.len(),
        }
    }

    /// Both directions of every batch, indexed `[i][retract as usize]`.
    pub fn scripts(&self) -> Vec<[Script; 2]> {
        (0..self.forward.len())
            .map(|i| [self.script(i, false), self.script(i, true)])
            .collect()
    }

    /// [`Instance::scripts`] as delta batches.
    pub fn delta_batches(&self) -> Vec<[DeltaBatch; 2]> {
        (0..self.forward.len())
            .map(|i| [self.delta_batch(i, false), self.delta_batch(i, true)])
            .collect()
    }

    /// The `get` command line for probe `i` (wrapping).
    pub fn get_line(&self, i: usize) -> String {
        format!(
            "get {}",
            proto::format_tuple(&self.gets[i % self.gets.len()])
        )
    }

    /// The `page` command line for probe `i` (wrapping).
    pub fn page_line(&self, i: usize) -> String {
        format!(
            "page {} {}",
            self.page_offsets[i % self.page_offsets.len()],
            self.page_limit
        )
    }
}

/// How many of `n` draws each of `domain` ranks receives under Zipf(1.0)
/// expected frequencies, rounded by largest remainder so the counts sum
/// to `n` exactly.
fn zipf_counts(n: usize, domain: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=domain).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..domain).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a].fract(), exact[b].fract());
        rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
    });
    let missing = n - counts.iter().sum::<usize>();
    for &k in &by_remainder[..missing] {
        counts[k] += 1;
    }
    counts
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The stream's Zipf ranks are the base's shifted by this many places:
/// the third-heaviest base value is the stream's heaviest, and the base's
/// two heaviest values are the stream's lightest. Over the forward half
/// the popular keys therefore change, keys cross the heavy/light
/// threshold both ways, and the retraction half walks it all back.
const STREAM_RANK_SHIFT: usize = 2;

/// One relation of the two-path instance while it is being generated:
/// its live rows (for uniform deletes) and a membership set.
struct LiveRel {
    name: &'static str,
    /// Column of the join variable `B` (1 in `R(A,B)`, 0 in `S(B,C)`).
    b_col: usize,
    rows: Vec<Tuple>,
    member: HashSet<Tuple>,
}

impl LiveRel {
    fn tuple(&self, b: i64, other: i64) -> Tuple {
        if self.b_col == 1 {
            Tuple::ints(&[other, b])
        } else {
            Tuple::ints(&[b, other])
        }
    }

    /// A tuple with join value `b` that is neither live nor in `avoid`.
    fn fresh(&self, b: i64, domain: i64, avoid: &HashSet<Tuple>, rng: &mut StdRng) -> Tuple {
        loop {
            let t = self.tuple(b, rng.gen_range(0..domain));
            if !self.member.contains(&t) && !avoid.contains(&t) {
                return t;
            }
        }
    }
}

/// The skewed two-path instance `Q(A,C) :- R(A,B), S(B,C)`.
///
/// `rows` tuples per relation; `B` follows Zipf(1.0) over `b_domain`
/// values in both relations (the same values are heavy on both sides, so
/// the result is dominated by a few `deg_R(b)·deg_S(b)` blocks); `A` and
/// `C` are uniform over `4·rows` values. Every forward batch inserts
/// `batch/2` fresh tuples (join values again by expected Zipf frequency,
/// in seeded order) and deletes `batch/2` live tuples chosen uniformly, so
/// `N` is constant and the degree sequence drifts only slightly — enough
/// for keys to cross the heavy/light threshold, not enough to move the
/// result size out of its band.
pub fn two_path(seed: u64, sizes: &Sizes) -> Instance {
    relabel(two_path_shape(sizes), &TWO_PATH_COLUMNS, seed)
}

fn two_path_shape(sizes: &Sizes) -> Instance {
    let mut rng = StdRng::seed_from_u64(SHAPE_SEED);
    let rows = sizes.two_path_rows;
    let domain = sizes.two_path_b_domain;
    let other_domain = 4 * rows as i64;
    // Rank k of the Zipf law is join value k (until `relabel`).
    let label: Vec<i64> = (0..domain as i64).collect();

    let mut rels = [("R", 1usize), ("S", 0usize)].map(|(name, b_col)| LiveRel {
        name,
        b_col,
        rows: Vec::with_capacity(rows),
        member: HashSet::new(),
    });
    let none = HashSet::new();
    for rel in &mut rels {
        for (k, &count) in zipf_counts(rows, domain).iter().enumerate() {
            for _ in 0..count {
                let t = rel.fresh(label[k], other_domain, &none, &mut rng);
                rel.member.insert(t.clone());
                rel.rows.push(t);
            }
        }
        shuffle(&mut rel.rows, &mut rng);
    }
    let base: Vec<(&'static str, Tuple)> = rels
        .iter()
        .flat_map(|r| r.rows.iter().map(|t| (r.name, t.clone())))
        .collect();

    // Read probes come from the base result.
    let mut c_of_b: HashMap<i64, Vec<i64>> = HashMap::new();
    for t in &rels[1].rows {
        c_of_b
            .entry(t.get(0).as_int())
            .or_default()
            .push(t.get(1).as_int());
    }
    let mut result: HashSet<(i64, i64)> = HashSet::new();
    let mut gets = Vec::new();
    for t in &rels[0].rows {
        let (a, b) = (t.get(0).as_int(), t.get(1).as_int());
        if let Some(cs) = c_of_b.get(&b) {
            result.extend(cs.iter().map(|&c| (a, c)));
            gets.push(Tuple::ints(&[a, cs[rng.gen_range(0..cs.len())]]));
        }
    }
    let page_floor = (result.len() / 2).max(1);
    let page_offsets = (0..1024).map(|_| rng.gen_range(0..page_floor)).collect();

    // The stream: per relation, the inserted join values are the expected
    // Zipf frequencies over the whole forward half, in seeded order.
    let per_rel = sizes.two_path_batches * sizes.two_path_batch / 4;
    let mut insert_b: Vec<Vec<i64>> = (0..2)
        .map(|_| {
            let mut bs: Vec<i64> = zipf_counts(per_rel, domain)
                .iter()
                .enumerate()
                .flat_map(|(k, &c)| std::iter::repeat_n(label[(k + STREAM_RANK_SHIFT) % domain], c))
                .collect();
            shuffle(&mut bs, &mut rng);
            bs
        })
        .collect();
    let mut forward = Vec::with_capacity(sizes.two_path_batches);
    for _ in 0..sizes.two_path_batches {
        let mut ops: Vec<Op> = Vec::with_capacity(sizes.two_path_batch);
        let mut in_batch: HashSet<Tuple> = HashSet::new();
        for (ri, rel) in rels.iter_mut().enumerate() {
            let mut inserted = Vec::new();
            for _ in 0..sizes.two_path_batch / 4 {
                let victim = rel.rows.swap_remove(rng.gen_range(0..rel.rows.len()));
                rel.member.remove(&victim);
                in_batch.insert(victim.clone());
                ops.push((rel.name, victim, -1));
                let b = insert_b[ri].pop().expect("sized to the stream");
                let t = rel.fresh(b, other_domain, &in_batch, &mut rng);
                in_batch.insert(t.clone());
                ops.push((rel.name, t.clone(), 1));
                inserted.push(t);
            }
            // Inserted tuples become deletable only by later batches.
            for t in inserted {
                rel.member.insert(t.clone());
                rel.rows.push(t);
            }
        }
        shuffle(&mut ops, &mut rng);
        forward.push(ops);
    }
    Instance {
        seed: SHAPE_SEED,
        query: TWO_PATH,
        base,
        block: forward.len(),
        forward,
        gets,
        page_offsets,
        page_limit: 50,
    }
}

/// The OMv instance `Q(A) :- R(A,B), S(B)` at dimension `n`: the matrix
/// `R` has exactly four entries per row at seeded columns, the base
/// vector `S` holds `n/4` seeded positions, and every forward batch is one
/// vector of `omv_batch` distinct positions inserted into `S`. The
/// palindrome half-length is 1 — each vector is inserted, then retracted —
/// so the result flips between ~0.68·n and ~0.9·n tuples.
pub fn omv(seed: u64, sizes: &Sizes) -> Instance {
    relabel(omv_shape(sizes), &OMV_COLUMNS, seed)
}

fn omv_shape(sizes: &Sizes) -> Instance {
    let mut rng = StdRng::seed_from_u64(SHAPE_SEED);
    let n = sizes.omv_n as i64;
    let mut columns: Vec<i64> = (0..n).collect();
    let mut base: Vec<(&'static str, Tuple)> = Vec::new();
    for a in 0..n {
        shuffle(&mut columns, &mut rng);
        base.extend(columns[..4].iter().map(|&b| ("R", Tuple::ints(&[a, b]))));
    }
    shuffle(&mut columns, &mut rng);
    base.extend(
        columns[..sizes.omv_n / 4]
            .iter()
            .map(|&b| ("S", Tuple::ints(&[b]))),
    );
    let forward = (0..sizes.omv_batches)
        .map(|_| {
            shuffle(&mut columns, &mut rng);
            columns[..sizes.omv_batch]
                .iter()
                .map(|&b| ("S", Tuple::ints(&[b]), 1))
                .collect()
        })
        .collect();
    let gets = (0..1024)
        .map(|_| Tuple::ints(&[rng.gen_range(0..n)]))
        .collect();
    Instance {
        seed: SHAPE_SEED,
        query: OMV,
        base,
        forward,
        block: 1,
        gets,
        page_offsets: vec![0],
        page_limit: 16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_sum_and_skew() {
        let c = zipf_counts(900, 450);
        assert_eq!(c.iter().sum::<usize>(), 900);
        assert!(c[0] > 100 && c[0] > 2 * c[2], "{:?}", &c[..4]);
        assert!(c.windows(2).all(|w| w[0] >= w[1]), "counts fall with rank");
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs_same_shape() {
        let sizes = Sizes::tiny();
        for gen in [two_path, omv] {
            let (a, b, c) = (gen(7, &sizes), gen(7, &sizes), gen(8, &sizes));
            assert_eq!(a.base, b.base);
            assert_eq!(a.forward, b.forward);
            assert_eq!(a.gets, b.gets);
            assert_ne!(a.base, c.base);
            assert_eq!(a.base.len(), c.base.len());
            assert_eq!(a.forward.len(), c.forward.len());
        }
    }

    #[test]
    fn replay_is_valid_forever_and_returns_to_the_base() {
        let sizes = Sizes::tiny();
        for inst in [two_path(3, &sizes), omv(3, &sizes)] {
            let cycle = 2 * inst.block;
            let mut db = inst.base_db();
            for p in 0..3 * cycle + 3 {
                let (i, retract) = inst.step(p);
                let batch = inst.delta_batch(i, retract);
                assert_eq!(batch.cardinality(), batch.distinct_len());
                for rel in ["R", "S"] {
                    for (t, d) in batch.deltas(rel) {
                        db.apply(rel, t.clone(), d); // panics on over-delete
                    }
                }
                let want = inst.db_after(p + 1);
                for rel in ["R", "S"] {
                    let (mut got, mut exp) = (db.rows(rel), want.rows(rel));
                    got.sort();
                    exp.sort();
                    assert_eq!(got, exp, "{} after step {p}", inst.query);
                }
            }
            assert!(inst.live_after(cycle).is_empty());
            // Equal keys are the same batch in the same direction on the
            // same state; one round of the stream has no key twice.
            let round = 2 * inst.forward.len();
            let keys: HashSet<u32> = (0..round).map(|p| inst.step_key(p)).collect();
            assert_eq!(keys.len(), round);
            for p in 0..round {
                assert_eq!(inst.step_key(p), inst.step_key(p + round));
                assert_eq!(inst.step(p), inst.step(p + round));
                assert_eq!(inst.live_after(p), inst.live_after(p + round));
            }
        }
    }

    #[test]
    fn scripts_carry_the_same_updates_as_the_delta_batches() {
        let inst = two_path(5, &Sizes::tiny());
        for retract in [false, true] {
            let s = inst.script(0, retract);
            assert_eq!(s.requests, s.updates + 2);
            let mut parsed = DeltaBatch::new();
            for line in s.text.lines() {
                if let Some(proto::Command::Update {
                    relation,
                    tuple,
                    delta,
                }) = proto::parse_command(line).unwrap()
                {
                    parsed.push(&relation, tuple, delta);
                }
            }
            assert_eq!(
                parsed.to_updates(),
                inst.delta_batch(0, retract).to_updates()
            );
        }
    }

    #[test]
    fn probes_stay_inside_the_result() {
        let inst = two_path(11, &Sizes::tiny());
        let result =
            ivme_core::brute_force(&ivme_query::parse_query(TWO_PATH).unwrap(), &inst.base_db());
        assert!(!inst.gets.is_empty());
        for t in &inst.gets {
            assert!(result.iter().any(|(r, _)| r == t), "{t} not in base result");
        }
        assert!(inst.page_offsets.iter().all(|&o| o < result.len()));
        assert!(inst.get_line(0).starts_with("get "));
        assert_eq!(omv(1, &Sizes::tiny()).page_line(3), "page 0 16");
    }
}
