//! Z-relations: multiset relations with integer multiplicities and
//! constant-time index maintenance.
//!
//! This is the data structure of the paper's computational model (Sec. 3):
//! a relation `R` over schema `X` is a function `Dom(X) → Z` with finite
//! support, stored so that it can
//!
//! 1. look up, insert, and delete entries in (expected) constant time,
//! 2. enumerate stored entries with constant delay,
//! 3. report `|R|` in constant time,
//!
//! and, per secondary index on a schema `S ⊂ X`,
//!
//! 4. enumerate the group `σ_{S=t} R` with constant delay,
//! 5. check `t ∈ π_S R` in constant time,
//! 6. report `|σ_{S=t} R|` in constant time,
//! 7. insert and delete index entries in constant time.
//!
//! Entries live in a slab with an intrusive doubly-linked *live list* (for
//! constant-delay scans and O(1) unlink). Index links are stored
//! **struct-of-arrays**: each index keeps one parallel `Vec<GroupLink>`
//! (prev/next within the group, plus a *group handle* into a group slab)
//! instead of a per-slot `Vec<Link>` — slots stay a fixed size, adding an
//! index never resizes them, and unlinking a slot from its group follows
//! the handle straight to the group record: no re-projection of the tuple
//! and no re-hash into the group map (the paper's "back-pointers to its
//! index entries", sharpened to pure pointer surgery).
//!
//! A relation can also report which slab slots changed since it was last
//! asked ([`Relation::take_changed_slots`]), so a reader that copies the
//! slab verbatim patches its copy instead of re-reading every entry. The
//! report is off until the first ask: a relation nobody copies pays one
//! branch per applied delta.

use std::fmt;

use crate::fx::FxHashMap;
use crate::schema::Schema;
use crate::value::Tuple;

const NIL: u32 = u32::MAX;

/// Minimum tombstone count before a group-map compaction sweep runs.
const MIN_SWEEP: usize = 64;

/// Stable handle to a stored entry; valid until that entry is deleted.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SlotId(u32);

impl SlotId {
    /// The slot's position in the relation's slab
    /// (`0..`[`Relation::slot_count`]).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a secondary index of a relation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IndexId(u32);

/// Error returned when a delete would drive a multiplicity negative, or
/// (from [`Relation::apply_batch`]) a sum of deltas would pass `i64`.
///
/// The paper rejects such updates: "a delete is rejected if the existing
/// multiplicity of x in R is less than |m|".
#[derive(Clone, PartialEq, Eq)]
pub struct NegativeMultiplicity {
    pub tuple: Tuple,
    pub present: i64,
    pub delta: i64,
}

impl fmt::Debug for NegativeMultiplicity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.present.checked_add(self.delta) {
            Some(_) => "negative multiplicity",
            None => "multiplicity overflow",
        };
        write!(
            f,
            "{what}: tuple {:?} has multiplicity {} but delta is {}",
            self.tuple, self.present, self.delta
        )
    }
}

impl fmt::Display for NegativeMultiplicity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl std::error::Error for NegativeMultiplicity {}

/// Outcome of applying a delta to one tuple.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeltaOutcome {
    /// Multiplicity before the update.
    pub before: i64,
    /// Multiplicity after the update.
    pub after: i64,
}

impl DeltaOutcome {
    /// True if the tuple appeared (0 → positive).
    #[inline]
    pub fn inserted(&self) -> bool {
        self.before == 0 && self.after != 0
    }
    /// True if the tuple disappeared (positive → 0).
    #[inline]
    pub fn deleted(&self) -> bool {
        self.before != 0 && self.after == 0
    }
}

/// Aggregate outcome of an atomically applied batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BatchOutcome {
    /// Distinct tuples whose multiplicity changed.
    pub changed: usize,
    /// Tuples that appeared (0 → positive): the growth in `|R|`.
    pub inserted: usize,
    /// Tuples that disappeared (positive → 0): the shrinkage of `|R|`.
    pub deleted: usize,
}

impl BatchOutcome {
    /// Net change in the number of distinct stored tuples.
    #[inline]
    pub fn net_size_change(&self) -> i64 {
        self.inserted as i64 - self.deleted as i64
    }
}

/// One slot of the entry slab: the stored tuple, its multiplicity, and the
/// live-list links. Index links live in the per-index SoA arrays.
struct Slot {
    tuple: Tuple,
    mult: i64,
    prev: u32,
    next: u32,
}

/// Per-index membership of one slot: its neighbours within the group list
/// and a handle into the index's group slab (so unlink never has to
/// recompute which group the slot belongs to).
#[derive(Clone, Copy)]
struct GroupLink {
    prev: u32,
    next: u32,
    group: u32,
}

const FREE_LINK: GroupLink = GroupLink {
    prev: NIL,
    next: NIL,
    group: NIL,
};

/// One group `σ_{S=key}` of an index: list head and size. 8 bytes — the
/// key lives only in the group map. A group whose `len` drops to 0 becomes
/// a **tombstone**: it stays mapped (so a later re-insert of the same key
/// revives it without a map insert — the dominant pattern in load/retract
/// workloads such as OMv rounds) and is compacted away in an amortized
/// sweep once tombstones outnumber live groups.
#[derive(Clone, Copy)]
struct Group {
    head: u32,
    len: u32,
}

struct IndexData {
    /// Positions (within the relation schema) forming the index key.
    positions: Vec<usize>,
    key_schema: Schema,
    /// key → handle into `groups`. May contain tombstones (`len == 0`);
    /// all O(1) accessors check `len`, and `dead` counts them.
    group_map: FxHashMap<Tuple, u32>,
    /// Group slab; entries freed by the compaction sweep are chained
    /// through `group_free_head` via `Group::head`.
    groups: Vec<Group>,
    group_free_head: u32,
    /// Number of tombstoned (empty but still mapped) groups.
    dead: usize,
    /// Tombstone count that triggers the next compaction sweep. Doubles
    /// with the map's high-water size so cyclic full-retract workloads
    /// (load/retract the same key set every round) revive tombstones
    /// instead of sweeping them right before the reload.
    sweep_at: usize,
    /// Per-slot group membership, parallel to `Relation::slots` (SoA).
    links: Vec<GroupLink>,
}

impl IndexData {
    #[inline]
    fn group(&self, key: &Tuple) -> Option<&Group> {
        match self.group_map.get(key) {
            Some(&g) if self.groups[g as usize].len > 0 => Some(&self.groups[g as usize]),
            _ => None,
        }
    }

    /// Amortized tombstone compaction: drops dead map entries and recycles
    /// their slab records. Each sweep is O(#groups) but runs only after at
    /// least as many deletes tombstoned a group, so the cost per delete is
    /// O(1); tombstone memory stays within 2× the map's high-water size.
    #[cold]
    fn sweep_tombstones(&mut self) {
        let groups = &mut self.groups;
        let free = &mut self.group_free_head;
        self.group_map.retain(|_, &mut g| {
            if groups[g as usize].len > 0 {
                true
            } else {
                groups[g as usize].head = *free;
                *free = g;
                false
            }
        });
        self.dead = 0;
        self.sweep_at = (self.group_map.len() * 2).max(MIN_SWEEP);
    }
}

/// The slots whose entry changed since the last
/// [`Relation::take_changed_slots`], each listed once.
#[derive(Default)]
struct Changes {
    /// The changed slots, in the order they were first marked.
    slots: Vec<SlotId>,
    /// Bit `s` set iff slot `s` is in `slots`.
    marked: Vec<u64>,
    /// A `clear` happened: slot numbers were reused from 0, so no list
    /// describes the change, and nothing is marked until the next ask.
    reset: bool,
}

impl Changes {
    #[inline]
    fn mark(&mut self, s: u32) {
        if self.reset {
            return;
        }
        let (word, bit) = ((s / 64) as usize, 1u64 << (s % 64));
        if word >= self.marked.len() {
            self.marked.resize(word + 1, 0);
        }
        if self.marked[word] & bit == 0 {
            self.marked[word] |= bit;
            self.slots.push(SlotId(s));
        }
    }
}

/// A multiset relation with multiplicities in `Z_{>0}` and O(1)-maintained
/// secondary indexes. See the module docs for the complexity contract.
pub struct Relation {
    schema: Schema,
    slots: Vec<Slot>,
    free_head: u32,
    live_head: u32,
    map: FxHashMap<Tuple, u32>,
    indexes: Vec<IndexData>,
    name: String,
    /// The changed-slot report; `None` until first asked for.
    changes: Option<Box<Changes>>,
}

impl Relation {
    /// Creates an empty relation over `schema`.
    pub fn new(name: impl Into<String>, schema: Schema) -> Relation {
        Relation {
            schema,
            slots: Vec::new(),
            free_head: NIL,
            live_head: NIL,
            map: FxHashMap::default(),
            indexes: Vec::new(),
            name: name.into(),
            changes: None,
        }
    }

    /// The relation's display name (for plans and debugging).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of distinct stored tuples, `|R|` in the paper. O(1).
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Multiplicity of `tuple` (0 when absent). Expected O(1).
    #[inline]
    pub fn get(&self, tuple: &Tuple) -> i64 {
        match self.map.get(tuple) {
            Some(&s) => self.slots[s as usize].mult,
            None => 0,
        }
    }

    /// Whether `tuple` is present. Expected O(1).
    #[inline]
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.map.contains_key(tuple)
    }

    /// Applies a single-tuple delta `{tuple → delta}`.
    ///
    /// Rejects updates that would drive the multiplicity negative, leaving
    /// the relation unchanged. O(1) expected plus O(#indexes).
    ///
    /// On probing: `get` + `insert`/`remove` below looks like the classic
    /// double-probe anti-pattern, but with tuple hashes cached at
    /// construction a probe hashes 8 bytes, and both measured
    /// single-probe alternatives lost: the std `entry` API
    /// (`rustc_entry`) cost ~25% of batched OMv throughput, and a
    /// hand-rolled open-addressing table keyed directly by the cached
    /// hash lost ~20% to hashbrown's SIMD probing even with zero hashing.
    /// The second probe is the cheapest option that exists on stable.
    pub fn apply(
        &mut self,
        tuple: Tuple,
        delta: i64,
    ) -> Result<DeltaOutcome, NegativeMultiplicity> {
        debug_assert_eq!(
            tuple.arity(),
            self.schema.arity(),
            "tuple arity {} does not match schema {:?} of {}",
            tuple.arity(),
            self.schema,
            self.name
        );
        if delta == 0 {
            let m = self.get(&tuple);
            return Ok(DeltaOutcome {
                before: m,
                after: m,
            });
        }
        match self.map.get(&tuple) {
            Some(&s) => {
                let before = self.slots[s as usize].mult;
                let after = before + delta;
                if after < 0 {
                    return Err(NegativeMultiplicity {
                        tuple,
                        present: before,
                        delta,
                    });
                }
                if after == 0 {
                    self.map.remove(&tuple);
                    self.unlink_slot(s);
                } else {
                    self.slots[s as usize].mult = after;
                }
                self.mark(s);
                Ok(DeltaOutcome { before, after })
            }
            None => {
                if delta < 0 {
                    return Err(NegativeMultiplicity {
                        tuple,
                        present: 0,
                        delta,
                    });
                }
                let slots = &mut self.slots;
                let s = if self.free_head != NIL {
                    let s = self.free_head;
                    self.free_head = slots[s as usize].next;
                    s
                } else {
                    slots.push(Slot {
                        tuple: Tuple::empty(),
                        mult: 0,
                        prev: NIL,
                        next: NIL,
                    });
                    for ix in &mut self.indexes {
                        ix.links.push(FREE_LINK);
                    }
                    (slots.len() - 1) as u32
                };
                let old_head = self.live_head;
                {
                    let slot = &mut slots[s as usize];
                    slot.tuple = tuple.clone();
                    slot.mult = delta;
                    slot.prev = NIL;
                    slot.next = old_head;
                }
                if old_head != NIL {
                    slots[old_head as usize].prev = s;
                }
                self.live_head = s;
                self.map.insert(tuple, s);
                for i in 0..self.indexes.len() {
                    self.index_link(i, s);
                }
                self.mark(s);
                Ok(DeltaOutcome {
                    before: 0,
                    after: delta,
                })
            }
        }
    }

    /// Applies a consolidated multi-tuple delta **atomically**.
    ///
    /// The slice may contain repeated tuples; entries are first
    /// consolidated (self-cancellation), then validated against the stored
    /// multiplicities, and only if *every* entry is legal is the relation
    /// touched — the slab, live list, and all secondary indexes are updated
    /// in one pass over the consolidated batch. If any net delta would
    /// drive a multiplicity negative the whole batch is rejected and the
    /// relation is left exactly as it was (the batched form of the paper's
    /// per-update rejection rule, Sec. 3).
    ///
    /// Cost: O(|batch|) expected, plus O(#indexes) per tuple whose support
    /// changes.
    pub fn apply_batch(
        &mut self,
        deltas: &[(Tuple, i64)],
    ) -> Result<BatchOutcome, NegativeMultiplicity> {
        // Phase 1: consolidate. Most callers pass already-consolidated
        // batches (one entry per tuple); skip the rebuild in that case.
        let mut consolidated: Vec<(&Tuple, i64)>;
        {
            let mut net: FxHashMap<&Tuple, i64> = FxHashMap::default();
            let mut duplicates = false;
            for (t, d) in deltas {
                let e = net.entry(t).or_insert(0);
                duplicates |= *e != 0;
                *e = e.checked_add(*d).ok_or_else(|| NegativeMultiplicity {
                    tuple: t.clone(),
                    present: *e,
                    delta: *d,
                })?;
            }
            consolidated = if duplicates || net.len() != deltas.len() {
                net.into_iter().filter(|&(_, d)| d != 0).collect()
            } else {
                deltas.iter().map(|(t, d)| (t, *d)).collect()
            };
        }
        // Phase 2: validate every net delta against the current state.
        for &(t, d) in &consolidated {
            let present = self.get(t);
            if present.checked_add(d).is_none_or(|m| m < 0) {
                return Err(NegativeMultiplicity {
                    tuple: t.clone(),
                    present,
                    delta: d,
                });
            }
        }
        // Phase 3: apply — infallible after validation.
        Ok(self.apply_validated(consolidated.drain(..)))
    }

    /// [`Relation::apply_batch`] minus consolidation and validation, for
    /// batches the caller has **already consolidated and validated**
    /// against this relation's current state (the engine dry-runs every
    /// relation of a cross-relation batch before touching any of them).
    /// Panics if a delta drives a multiplicity negative — a caller bug.
    pub fn apply_batch_unchecked(&mut self, deltas: &[(Tuple, i64)]) -> BatchOutcome {
        self.apply_validated(deltas.iter().map(|(t, d)| (t, *d)))
    }

    /// Shared application pass: one `apply` per non-zero entry, tallying
    /// support changes. Entries must be pre-validated.
    fn apply_validated<'a>(
        &mut self,
        deltas: impl Iterator<Item = (&'a Tuple, i64)>,
    ) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        for (t, d) in deltas {
            if d == 0 {
                continue;
            }
            let o = self
                .apply(t.clone(), d)
                .expect("batch must be validated before application");
            out.changed += 1;
            if o.inserted() {
                out.inserted += 1;
            } else if o.deleted() {
                out.deleted += 1;
            }
        }
        out
    }

    /// Convenience: insert with positive multiplicity, panicking on misuse.
    pub fn insert(&mut self, tuple: Tuple, mult: i64) {
        assert!(mult > 0, "insert requires positive multiplicity");
        self.apply(tuple, mult).expect("insert cannot fail");
    }

    /// Convenience: delete `mult` copies, panicking if not present.
    pub fn delete(&mut self, tuple: Tuple, mult: i64) {
        assert!(mult > 0, "delete requires positive multiplicity");
        self.apply(tuple, -mult).expect("delete of absent tuple");
    }

    /// Removes all tuples (keeps schema and index definitions). The
    /// changed-slot report, if on, reports a reset.
    pub fn clear(&mut self) {
        if let Some(c) = &mut self.changes {
            c.slots.clear();
            c.marked.clear();
            c.reset = true;
        }
        self.slots.clear();
        self.map.clear();
        self.free_head = NIL;
        self.live_head = NIL;
        for ix in &mut self.indexes {
            ix.group_map.clear();
            ix.groups.clear();
            ix.group_free_head = NIL;
            ix.dead = 0;
            ix.links.clear();
        }
    }

    /// Notes that slot `s`'s entry changed, if the report is on.
    #[inline]
    fn mark(&mut self, s: u32) {
        if let Some(c) = &mut self.changes {
            c.mark(s);
        }
    }

    /// Moves the slots whose entry — tuple or multiplicity — changed
    /// since the last call into `out` (cleared first), each once, in the
    /// order they first changed; a slot that changed and changed back is
    /// listed too. Returns `false`, with `out` empty, when no list can
    /// say what changed: on the first call, which turns the report on,
    /// and after a [`Relation::clear`]. The caller then reads the whole
    /// slab ([`Relation::slot_count`], [`Relation::slot`]).
    ///
    /// Until the first call nothing is recorded; after it, each applied
    /// delta marks its slot in `O(1)` (a bitmap deduplicates).
    pub fn take_changed_slots(&mut self, out: &mut Vec<SlotId>) -> bool {
        out.clear();
        let Some(c) = &mut self.changes else {
            self.changes = Some(Box::default());
            return false;
        };
        if std::mem::take(&mut c.reset) {
            return false;
        }
        std::mem::swap(out, &mut c.slots);
        for s in out.iter() {
            c.marked[s.index() / 64] &= !(1u64 << (s.index() % 64));
        }
        true
    }

    /// Slots in the slab: its high-water mark since the last `clear`,
    /// live entries and free slots together.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The entry in slab slot `index` (`< slot_count()`), `None` when the
    /// slot is free.
    #[inline]
    pub fn slot(&self, index: usize) -> Option<(&Tuple, i64)> {
        let slot = &self.slots[index];
        (slot.mult != 0).then_some((&slot.tuple, slot.mult))
    }

    /// Unlinks slot `s` from the live list and every index group, then
    /// chains it onto the free list. The caller has already removed the map
    /// entry (sharing the probe that found the slot).
    fn unlink_slot(&mut self, s: u32) {
        for i in 0..self.indexes.len() {
            self.index_unlink(i, s);
        }
        let (prev, next) = {
            let slot = &self.slots[s as usize];
            (slot.prev, slot.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.live_head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
        let slot = &mut self.slots[s as usize];
        slot.tuple = Tuple::empty();
        slot.mult = 0;
        slot.next = self.free_head;
        self.free_head = s;
    }

    /// Links slot `s` into index `i`'s group for its key, creating (or
    /// reviving) the group on first use. One group-map probe; the group
    /// handle is stored in the slot's link so the unlink never probes at
    /// all.
    fn index_link(&mut self, i: usize, s: u32) {
        let key = self.slots[s as usize]
            .tuple
            .project(&self.indexes[i].positions);
        let ix = &mut self.indexes[i];
        let g = match ix.group_map.get(&key) {
            Some(&g) => {
                if ix.groups[g as usize].len == 0 {
                    // Reviving a tombstone: no map traffic at all.
                    ix.dead -= 1;
                }
                g
            }
            None => {
                let g = if ix.group_free_head != NIL {
                    let g = ix.group_free_head;
                    ix.group_free_head = ix.groups[g as usize].head;
                    ix.groups[g as usize] = Group { head: NIL, len: 0 };
                    g
                } else {
                    ix.groups.push(Group { head: NIL, len: 0 });
                    (ix.groups.len() - 1) as u32
                };
                ix.group_map.insert(key, g);
                g
            }
        };
        let group = &mut ix.groups[g as usize];
        let old_head = group.head;
        group.head = s;
        group.len += 1;
        ix.links[s as usize] = GroupLink {
            prev: NIL,
            next: old_head,
            group: g,
        };
        if old_head != NIL {
            ix.links[old_head as usize].prev = s;
        }
    }

    /// Unlinks slot `s` from index `i`: pure pointer surgery through the
    /// stored group handle — no tuple projection, no value re-hash, and no
    /// group-map probe (an emptied group tombstones in place; compaction is
    /// amortized across deletes).
    fn index_unlink(&mut self, i: usize, s: u32) {
        let ix = &mut self.indexes[i];
        let GroupLink { prev, next, group } = ix.links[s as usize];
        if next != NIL {
            ix.links[next as usize].prev = prev;
        }
        if prev != NIL {
            ix.links[prev as usize].next = next;
            ix.groups[group as usize].len -= 1;
        } else {
            let g = &mut ix.groups[group as usize];
            g.head = next;
            g.len -= 1;
            if g.len == 0 {
                ix.dead += 1;
                if ix.dead >= ix.sweep_at {
                    ix.sweep_tombstones();
                }
            }
        }
        ix.links[s as usize] = FREE_LINK;
    }

    // ------------------------------------------------------------------
    // Indexes
    // ------------------------------------------------------------------

    /// Adds (or finds) a secondary index keyed on the sub-schema `key`.
    ///
    /// Builds over existing entries in O(|R|). Slots are untouched: the new
    /// index brings its own parallel link array (SoA).
    pub fn add_index(&mut self, key: &Schema) -> IndexId {
        if let Some(id) = self.index_on(key) {
            return id;
        }
        let positions = self.schema.positions_of(key);
        self.indexes.push(IndexData {
            positions,
            key_schema: key.clone(),
            group_map: FxHashMap::default(),
            groups: Vec::new(),
            group_free_head: NIL,
            dead: 0,
            sweep_at: MIN_SWEEP,
            links: vec![FREE_LINK; self.slots.len()],
        });
        let i = self.indexes.len() - 1;
        let mut s = self.live_head;
        while s != NIL {
            let next = self.slots[s as usize].next;
            self.index_link(i, s);
            s = next;
        }
        IndexId(i as u32)
    }

    /// Finds an existing index on the *set* of variables of `key`.
    pub fn index_on(&self, key: &Schema) -> Option<IndexId> {
        self.indexes
            .iter()
            .position(|ix| ix.key_schema == *key)
            .map(|i| IndexId(i as u32))
    }

    /// `|σ_{S=key} R|`: number of distinct tuples in a group. O(1).
    pub fn group_len(&self, idx: IndexId, key: &Tuple) -> usize {
        self.indexes[idx.0 as usize]
            .group(key)
            .map_or(0, |g| g.len as usize)
    }

    /// `key ∈ π_S R`. O(1).
    pub fn group_contains(&self, idx: IndexId, key: &Tuple) -> bool {
        self.indexes[idx.0 as usize].group(key).is_some()
    }

    /// Number of distinct index keys, `|π_S R|`. O(1).
    pub fn num_groups(&self, idx: IndexId) -> usize {
        let ix = &self.indexes[idx.0 as usize];
        ix.group_map.len() - ix.dead
    }

    /// Iterates the distinct keys of an index (no particular order).
    pub fn group_keys(&self, idx: IndexId) -> impl Iterator<Item = &Tuple> + '_ {
        let ix = &self.indexes[idx.0 as usize];
        ix.group_map
            .iter()
            .filter(|&(_, &g)| ix.groups[g as usize].len > 0)
            .map(|(k, _)| k)
    }

    /// Iterates a group's entries with constant delay.
    pub fn group_iter<'a>(&'a self, idx: IndexId, key: &Tuple) -> GroupIter<'a> {
        let ix = &self.indexes[idx.0 as usize];
        let head = ix.group(key).map_or(NIL, |g| g.head);
        GroupIter {
            rel: self,
            index: idx.0 as usize,
            cur: head,
        }
    }

    // ------------------------------------------------------------------
    // Cursor access (used by the enumeration iterators)
    // ------------------------------------------------------------------

    /// First live entry, if any.
    pub fn first(&self) -> Option<SlotId> {
        (self.live_head != NIL).then_some(SlotId(self.live_head))
    }

    /// Successor in the live list.
    pub fn next(&self, s: SlotId) -> Option<SlotId> {
        let n = self.slots[s.0 as usize].next;
        (n != NIL).then_some(SlotId(n))
    }

    /// First entry of a group, if any.
    pub fn group_first(&self, idx: IndexId, key: &Tuple) -> Option<SlotId> {
        self.indexes[idx.0 as usize]
            .group(key)
            .map(|g| SlotId(g.head))
    }

    /// Successor within the same group.
    pub fn group_next(&self, idx: IndexId, s: SlotId) -> Option<SlotId> {
        let n = self.indexes[idx.0 as usize].links[s.0 as usize].next;
        (n != NIL).then_some(SlotId(n))
    }

    /// The tuple stored at a live slot.
    #[inline]
    pub fn tuple_at(&self, s: SlotId) -> &Tuple {
        &self.slots[s.0 as usize].tuple
    }

    /// The multiplicity stored at a live slot.
    #[inline]
    pub fn mult_at(&self, s: SlotId) -> i64 {
        self.slots[s.0 as usize].mult
    }

    /// Iterates all entries `(tuple, multiplicity)` with constant delay.
    pub fn iter(&self) -> RelIter<'_> {
        RelIter {
            rel: self,
            cur: self.live_head,
        }
    }

    /// Collects into a sorted `Vec` — test/debug helper.
    pub fn to_sorted_vec(&self) -> Vec<(Tuple, i64)> {
        let mut v: Vec<(Tuple, i64)> = self.iter().map(|(t, m)| (t.clone(), m)).collect();
        v.sort();
        v
    }

    /// Exhaustively validates the storage invariants: map ↔ slab agreement,
    /// live-list integrity, per-index group-list integrity (links, handles,
    /// lengths, key projections), and cached-hash correctness. O(|R| ×
    /// #indexes); test/debug support for the SoA layout.
    pub fn check_storage(&self) -> Result<(), String> {
        // Live list: every entry reachable, doubly linked, tuple mapped.
        let mut live = 0usize;
        let mut s = self.live_head;
        let mut prev = NIL;
        while s != NIL {
            let slot = &self.slots[s as usize];
            if slot.prev != prev {
                return Err(format!("slot {s}: prev {} != expected {prev}", slot.prev));
            }
            if slot.mult == 0 {
                return Err(format!("slot {s}: live with zero multiplicity"));
            }
            if self.map.get(&slot.tuple) != Some(&s) {
                return Err(format!("slot {s}: tuple {:?} not mapped here", slot.tuple));
            }
            let recomputed = Tuple::from_slice(slot.tuple.values());
            if recomputed.cached_hash() != slot.tuple.cached_hash() {
                return Err(format!("slot {s}: stale cached hash for {:?}", slot.tuple));
            }
            live += 1;
            if live > self.slots.len() {
                return Err("live list cycle".into());
            }
            prev = s;
            s = slot.next;
        }
        if live != self.map.len() {
            return Err(format!(
                "live list has {live} entries but map has {}",
                self.map.len()
            ));
        }
        // Indexes: every live slot in exactly the group of its projection;
        // group lists doubly linked with correct handles and lengths.
        for (i, ix) in self.indexes.iter().enumerate() {
            if ix.links.len() != self.slots.len() {
                return Err(format!(
                    "index {i}: links len {} != slots len {}",
                    ix.links.len(),
                    self.slots.len()
                ));
            }
            let mut grouped = 0usize;
            let mut dead = 0usize;
            for (key, &g) in ix.group_map.iter() {
                let group = &ix.groups[g as usize];
                if group.len == 0 {
                    // Tombstone: no list to walk; counted against `dead`.
                    dead += 1;
                    continue;
                }
                let mut len = 0u32;
                let mut s = group.head;
                let mut prev = NIL;
                while s != NIL {
                    let link = ix.links[s as usize];
                    if link.group != g {
                        return Err(format!(
                            "index {i}: slot {s} in list of group {g} but handle says {}",
                            link.group
                        ));
                    }
                    if link.prev != prev {
                        return Err(format!(
                            "index {i}: slot {s} group-prev {} != expected {prev}",
                            link.prev
                        ));
                    }
                    let proj = self.slots[s as usize].tuple.project(&ix.positions);
                    if proj != *key {
                        return Err(format!(
                            "index {i}: slot {s} projects to {proj:?}, stored under {key:?}"
                        ));
                    }
                    len += 1;
                    if len as usize > self.slots.len() {
                        return Err(format!("index {i}: group {g} list cycle"));
                    }
                    prev = s;
                    s = link.next;
                }
                if len != group.len {
                    return Err(format!(
                        "index {i}: group {g} says len {} but list has {len}",
                        group.len
                    ));
                }
                grouped += len as usize;
            }
            if grouped != live {
                return Err(format!(
                    "index {i}: groups cover {grouped} slots, live list has {live}"
                ));
            }
            if dead != ix.dead {
                return Err(format!(
                    "index {i}: {dead} tombstones in map but dead counter says {}",
                    ix.dead
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?} {{", self.name, self.schema)?;
        for (i, (t, m)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t:?}→{m}")?;
        }
        write!(f, "}}")
    }
}

/// Constant-delay iterator over all entries of a relation.
pub struct RelIter<'a> {
    rel: &'a Relation,
    cur: u32,
}

impl<'a> Iterator for RelIter<'a> {
    type Item = (&'a Tuple, i64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let slot = &self.rel.slots[self.cur as usize];
        self.cur = slot.next;
        Some((&slot.tuple, slot.mult))
    }
}

/// Constant-delay iterator over one index group.
pub struct GroupIter<'a> {
    rel: &'a Relation,
    index: usize,
    cur: u32,
}

impl<'a> Iterator for GroupIter<'a> {
    type Item = (&'a Tuple, i64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let slot = &self.rel.slots[self.cur as usize];
        self.cur = self.rel.indexes[self.index].links[self.cur as usize].next;
        Some((&slot.tuple, slot.mult))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_ab() -> Relation {
        Relation::new("R", Schema::of(&["A", "B"]))
    }

    #[test]
    fn insert_get_delete() {
        let mut r = rel_ab();
        r.insert(Tuple::ints(&[1, 2]), 3);
        assert_eq!(r.get(&Tuple::ints(&[1, 2])), 3);
        assert_eq!(r.len(), 1);
        r.delete(Tuple::ints(&[1, 2]), 1);
        assert_eq!(r.get(&Tuple::ints(&[1, 2])), 2);
        r.delete(Tuple::ints(&[1, 2]), 2);
        assert_eq!(r.get(&Tuple::ints(&[1, 2])), 0);
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn negative_multiplicity_rejected() {
        let mut r = rel_ab();
        r.insert(Tuple::ints(&[1, 2]), 1);
        let err = r.apply(Tuple::ints(&[1, 2]), -2).unwrap_err();
        assert_eq!(err.present, 1);
        assert_eq!(err.delta, -2);
        // Relation unchanged after rejection.
        assert_eq!(r.get(&Tuple::ints(&[1, 2])), 1);
        assert!(r.apply(Tuple::ints(&[9, 9]), -1).is_err());
    }

    #[test]
    fn apply_batch_updates_indexes_in_one_pass() {
        let mut r = rel_ab();
        let idx = r.add_index(&Schema::of(&["B"]));
        r.insert(Tuple::ints(&[0, 7]), 2);
        let out = r
            .apply_batch(&[
                (Tuple::ints(&[1, 7]), 1),
                (Tuple::ints(&[2, 7]), 3),
                (Tuple::ints(&[0, 7]), -2),
                (Tuple::ints(&[5, 8]), 1),
            ])
            .unwrap();
        assert_eq!(
            out,
            BatchOutcome {
                changed: 4,
                inserted: 3,
                deleted: 1
            }
        );
        assert_eq!(out.net_size_change(), 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r.group_len(idx, &Tuple::ints(&[7])), 2);
        assert_eq!(r.group_len(idx, &Tuple::ints(&[8])), 1);
        assert_eq!(r.get(&Tuple::ints(&[2, 7])), 3);
        r.check_storage().unwrap();
    }

    #[test]
    fn apply_batch_consolidates_and_cancels() {
        let mut r = rel_ab();
        let out = r
            .apply_batch(&[
                (Tuple::ints(&[1, 1]), 1),
                (Tuple::ints(&[1, 1]), -1),
                (Tuple::ints(&[2, 2]), 2),
                (Tuple::ints(&[2, 2]), 3),
            ])
            .unwrap();
        assert_eq!(out.changed, 1);
        assert!(
            r.get(&Tuple::ints(&[1, 1])) == 0,
            "cancelled pair stored nothing"
        );
        assert_eq!(r.get(&Tuple::ints(&[2, 2])), 5);
    }

    #[test]
    fn apply_batch_rejects_atomically() {
        let mut r = rel_ab();
        r.insert(Tuple::ints(&[1, 1]), 1);
        let before = r.to_sorted_vec();
        // Second entry over-deletes: the whole batch must be a no-op.
        let err = r
            .apply_batch(&[(Tuple::ints(&[9, 9]), 4), (Tuple::ints(&[1, 1]), -2)])
            .unwrap_err();
        assert_eq!(err.present, 1);
        assert_eq!(err.delta, -2);
        assert_eq!(r.to_sorted_vec(), before, "rejected batch left a trace");
        assert_eq!(r.get(&Tuple::ints(&[9, 9])), 0);
        // A net-valid batch containing an over-delete that cancels out is fine.
        r.apply_batch(&[(Tuple::ints(&[1, 1]), -2), (Tuple::ints(&[1, 1]), 2)])
            .unwrap();
        assert_eq!(r.get(&Tuple::ints(&[1, 1])), 1);
    }

    #[test]
    fn apply_batch_refuses_a_sum_past_i64_atomically() {
        let mut r = rel_ab();
        r.insert(Tuple::ints(&[1, 1]), 2);
        let before = r.to_sorted_vec();
        // In the batch itself, and against the stored multiplicity.
        let max = i64::MAX;
        for batch in [
            vec![(Tuple::ints(&[2, 2]), max), (Tuple::ints(&[2, 2]), 1)],
            vec![(Tuple::ints(&[2, 2]), 1), (Tuple::ints(&[1, 1]), max)],
        ] {
            let err = r.apply_batch(&batch).unwrap_err();
            assert!(
                err.to_string().starts_with("multiplicity overflow"),
                "{err}"
            );
            assert_eq!(r.to_sorted_vec(), before, "rejected batch left a trace");
        }
    }

    #[test]
    fn zero_delta_is_noop() {
        let mut r = rel_ab();
        r.insert(Tuple::ints(&[1, 2]), 5);
        let out = r.apply(Tuple::ints(&[1, 2]), 0).unwrap();
        assert_eq!(
            out,
            DeltaOutcome {
                before: 5,
                after: 5
            }
        );
    }

    #[test]
    fn slot_reuse_after_delete() {
        let mut r = rel_ab();
        for i in 0..10 {
            r.insert(Tuple::ints(&[i, i]), 1);
        }
        for i in 0..10 {
            r.delete(Tuple::ints(&[i, i]), 1);
        }
        let cap = r.slots.len();
        for i in 0..10 {
            r.insert(Tuple::ints(&[i, 100 + i]), 1);
        }
        assert_eq!(r.slots.len(), cap, "slots must be recycled");
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn slot_recycling_never_regrows_link_arrays() {
        // SoA invariant replacing the old per-slot `links` Vec: recycling a
        // slot must not grow (or shrink) any index's parallel link array,
        // and group slab entries must be recycled too.
        let mut r = rel_ab();
        let ib = r.add_index(&Schema::of(&["B"]));
        let ia = r.add_index(&Schema::of(&["A"]));
        for i in 0..16 {
            r.insert(Tuple::ints(&[i, i % 4]), 1);
        }
        let links_b = r.indexes[ib.0 as usize].links.len();
        let links_a = r.indexes[ia.0 as usize].links.len();
        let groups_b = r.indexes[ib.0 as usize].groups.len();
        for round in 0..5 {
            for i in 0..16 {
                r.delete(Tuple::ints(&[i, (i + round.max(1) - 1) % 4]), 1);
            }
            assert!(r.is_empty());
            for i in 0..16 {
                // New tuples, same key space: groups must recycle.
                r.insert(Tuple::ints(&[i, (i + round) % 4]), 1);
            }
            assert_eq!(r.indexes[ib.0 as usize].links.len(), links_b);
            assert_eq!(r.indexes[ia.0 as usize].links.len(), links_a);
            assert_eq!(r.indexes[ib.0 as usize].groups.len(), groups_b);
            r.check_storage().unwrap();
        }
    }

    #[test]
    fn index_groups_track_degrees() {
        let mut r = rel_ab();
        let key = Schema::of(&["B"]);
        let idx = r.add_index(&key);
        for a in 0..5 {
            r.insert(Tuple::ints(&[a, 7]), 1);
        }
        r.insert(Tuple::ints(&[0, 8]), 2);
        assert_eq!(r.group_len(idx, &Tuple::ints(&[7])), 5);
        assert_eq!(r.group_len(idx, &Tuple::ints(&[8])), 1);
        assert_eq!(r.group_len(idx, &Tuple::ints(&[9])), 0);
        assert!(r.group_contains(idx, &Tuple::ints(&[7])));
        assert!(!r.group_contains(idx, &Tuple::ints(&[9])));
        assert_eq!(r.num_groups(idx), 2);

        let got: Vec<i64> = {
            let mut v: Vec<i64> = r
                .group_iter(idx, &Tuple::ints(&[7]))
                .map(|(t, _)| t.get(0).as_int())
                .collect();
            v.sort();
            v
        };
        assert_eq!(got, vec![0, 1, 2, 3, 4]);

        r.delete(Tuple::ints(&[2, 7]), 1);
        assert_eq!(r.group_len(idx, &Tuple::ints(&[7])), 4);
        // Remove the whole group.
        for a in [0, 1, 3, 4] {
            r.delete(Tuple::ints(&[a, 7]), 1);
        }
        assert_eq!(r.group_len(idx, &Tuple::ints(&[7])), 0);
        assert!(!r.group_contains(idx, &Tuple::ints(&[7])));
        assert_eq!(r.num_groups(idx), 1);
        r.check_storage().unwrap();
    }

    #[test]
    fn index_added_after_data_sees_existing_entries() {
        let mut r = rel_ab();
        for a in 0..4 {
            r.insert(Tuple::ints(&[a, a % 2]), 1);
        }
        let idx = r.add_index(&Schema::of(&["B"]));
        assert_eq!(r.group_len(idx, &Tuple::ints(&[0])), 2);
        assert_eq!(r.group_len(idx, &Tuple::ints(&[1])), 2);
        r.check_storage().unwrap();
    }

    #[test]
    fn add_index_is_idempotent() {
        let mut r = rel_ab();
        let i1 = r.add_index(&Schema::of(&["B"]));
        let i2 = r.add_index(&Schema::of(&["B"]));
        assert_eq!(i1, i2);
        assert_eq!(r.indexes.len(), 1);
    }

    #[test]
    fn multi_column_index_projects_in_key_order() {
        let mut r = Relation::new("T", Schema::of(&["A", "B", "C"]));
        let idx = r.add_index(&Schema::of(&["C", "A"]));
        r.insert(Tuple::ints(&[1, 2, 3]), 1);
        assert_eq!(r.group_len(idx, &Tuple::ints(&[3, 1])), 1);
        assert_eq!(r.group_len(idx, &Tuple::ints(&[1, 3])), 0);
    }

    #[test]
    fn iteration_sees_every_live_tuple_exactly_once() {
        let mut r = rel_ab();
        for a in 0..100 {
            r.insert(Tuple::ints(&[a, a * a]), (a % 3) + 1);
        }
        for a in (0..100).step_by(2) {
            r.delete(Tuple::ints(&[a, a * a]), (a % 3) + 1);
        }
        let seen: Vec<(Tuple, i64)> = r.to_sorted_vec();
        assert_eq!(seen.len(), 50);
        for (t, m) in &seen {
            let a = t.get(0).as_int();
            assert_eq!(a % 2, 1);
            assert_eq!(*m, (a % 3) + 1);
        }
    }

    #[test]
    fn cursor_walk_matches_iter() {
        let mut r = rel_ab();
        for a in 0..20 {
            r.insert(Tuple::ints(&[a, 0]), 1);
        }
        let mut via_cursor = Vec::new();
        let mut cur = r.first();
        while let Some(s) = cur {
            via_cursor.push(r.tuple_at(s).clone());
            cur = r.next(s);
        }
        let via_iter: Vec<Tuple> = r.iter().map(|(t, _)| t.clone()).collect();
        assert_eq!(via_cursor, via_iter);
        assert_eq!(via_cursor.len(), 20);
    }

    #[test]
    fn clear_retains_indexes() {
        let mut r = rel_ab();
        let idx = r.add_index(&Schema::of(&["B"]));
        r.insert(Tuple::ints(&[1, 1]), 1);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.group_len(idx, &Tuple::ints(&[1])), 0);
        r.insert(Tuple::ints(&[2, 1]), 1);
        assert_eq!(r.group_len(idx, &Tuple::ints(&[1])), 1);
        r.check_storage().unwrap();
    }

    #[test]
    fn group_cursor_walk() {
        let mut r = rel_ab();
        let idx = r.add_index(&Schema::of(&["B"]));
        for a in 0..5 {
            r.insert(Tuple::ints(&[a, 1]), 1);
        }
        let mut n = 0;
        let mut cur = r.group_first(idx, &Tuple::ints(&[1]));
        while let Some(s) = cur {
            assert_eq!(r.tuple_at(s).get(1).as_int(), 1);
            n += 1;
            cur = r.group_next(idx, s);
        }
        assert_eq!(n, 5);
        assert!(r.group_first(idx, &Tuple::ints(&[2])).is_none());
    }
}
