//! Data values and tuples.
//!
//! A [`Value`] is one cell of a tuple; a [`Tuple`] is an immutable sequence
//! of values with a **cached 64-bit hash** computed once at construction.
//! Tuples up to arity [`INLINE_ARITY`] store their values inline (no heap
//! allocation at all); wider tuples spill to a shared `Arc<[Value]>` so they
//! stay cheap to clone. Since `Value`s inside a tuple can never be mutated,
//! the cached hash is valid for the tuple's whole lifetime: hash-map
//! operations write the cached word instead of re-walking the values, and
//! equality short-circuits on hash mismatch.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::fx::FxHasher;

/// A single data value.
///
/// The fast path is `Int`; `Str` values are interned behind an `Arc` so
/// cloning is a refcount bump.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit signed integer (also used to encode categorical ids).
    Int(i64),
    /// Shared immutable string.
    Str(Arc<str>),
}

impl Value {
    /// Returns the integer payload, panicking on strings.
    ///
    /// Intended for workloads that are known to be integer-only.
    #[inline]
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Str(s) => panic!("expected Int value, found Str({s:?})"),
        }
    }

    /// Returns the string payload if this is a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Int(_) => None,
        }
    }
}

impl From<i64> for Value {
    #[inline]
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    #[inline]
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    #[inline]
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    #[inline]
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Maximum arity stored inline (without a heap allocation).
///
/// Join keys, partition keys, and segment projections are almost always
/// arity ≤ 2; wider tuples spill to the shared representation. The cap is
/// a measured trade-off, not a guess: at 2 a `Tuple` is 48 bytes, at 3 it
/// is 64, and the extra 16 bytes of memcpy/cache traffic on every clone,
/// map bucket, and delta-vector entry cost ~30% of batched OMv maintenance
/// throughput on the benchmark machine — more than the occasional spill
/// allocation for arity-3 tuples saves.
pub const INLINE_ARITY: usize = 2;

const NO_VALUE: Value = Value::Int(0);

/// The two tuple storage forms. Kept private so every construction path
/// goes through [`Tuple::from_repr`], which seals in the cached hash.
#[derive(Clone)]
enum Repr {
    /// Values stored inline; only the first `u8` entries are meaningful.
    Inline(u8, [Value; INLINE_ARITY]),
    /// Shared heap storage for arity > [`INLINE_ARITY`].
    Spill(Arc<[Value]>),
}

/// An immutable tuple of values over some schema.
///
/// Equality and hashing are structural; the hash is computed once at
/// construction and cached (values are immutable by design, so it can never
/// go stale). Clones copy inline values or bump the shared refcount. The
/// empty tuple is a valid value (used for nullary views and as the root
/// enumeration context).
#[derive(Clone)]
pub struct Tuple {
    hash: u64,
    repr: Repr,
}

impl Tuple {
    /// Hash of a value sequence, as cached by [`Tuple`]: a row held as a
    /// bare slice hashes exactly like a tuple of the same values. A pure
    /// function of the values: equal value sequences always produce equal
    /// hashes, so tuple equality may short-circuit on hash inequality.
    #[inline]
    pub fn hash_of(values: &[Value]) -> u64 {
        let mut h = FxHasher::default();
        for v in values {
            match v {
                Value::Int(i) => h.write_u64(*i as u64),
                Value::Str(s) => {
                    // Length prefix keeps ("ab","c") distinct from ("a","bc");
                    // the high bit nudges small non-negative Int(n) away from
                    // same-byte strings. Not a type tag — a negative int can
                    // still land on a string's hash (e.g. Int(i64::MIN) vs
                    // Str("")), which only weakens the eq short-circuit for
                    // such pairs; equality always compares values.
                    h.write_u64(s.len() as u64 ^ 0x8000_0000_0000_0000);
                    h.write(s.as_bytes());
                }
            }
        }
        h.finish()
    }

    #[inline]
    fn from_repr(repr: Repr) -> Tuple {
        let hash = Tuple::hash_of(match &repr {
            Repr::Inline(len, vals) => &vals[..*len as usize],
            Repr::Spill(a) => a,
        });
        Tuple { hash, repr }
    }

    /// Builds a tuple from an owned vector of values.
    pub fn new(values: Vec<Value>) -> Tuple {
        if values.len() <= INLINE_ARITY {
            return Tuple::from_slice(&values);
        }
        Tuple::from_repr(Repr::Spill(values.into()))
    }

    /// Builds a tuple by cloning a slice of values — allocation-free up to
    /// [`INLINE_ARITY`] (value clones are copies or refcount bumps).
    pub fn from_slice(values: &[Value]) -> Tuple {
        if values.len() <= INLINE_ARITY {
            let mut vals = [NO_VALUE, NO_VALUE];
            for (dst, src) in vals.iter_mut().zip(values) {
                *dst = src.clone();
            }
            return Tuple::from_repr(Repr::Inline(values.len() as u8, vals));
        }
        Tuple::from_repr(Repr::Spill(values.into()))
    }

    /// The empty (nullary) tuple. Inline, so construction is allocation-free
    /// — nullary view keys and empty projections are hot in delta
    /// propagation.
    #[inline]
    pub fn empty() -> Tuple {
        // Tuple::hash_of(&[]) == 0: FxHasher's initial state finishes to 0.
        Tuple {
            hash: 0,
            repr: Repr::Inline(0, [NO_VALUE, NO_VALUE]),
        }
    }

    /// Builds an integer tuple — the common case in benchmarks and tests.
    pub fn ints(values: &[i64]) -> Tuple {
        if values.len() <= INLINE_ARITY {
            let mut vals = [NO_VALUE, NO_VALUE];
            for (dst, &src) in vals.iter_mut().zip(values) {
                *dst = Value::Int(src);
            }
            return Tuple::from_repr(Repr::Inline(values.len() as u8, vals));
        }
        Tuple::from_repr(Repr::Spill(values.iter().map(|&v| Value::Int(v)).collect()))
    }

    /// The cached structural hash (fixed at construction; see the type
    /// docs for the immutability invariant that keeps it valid).
    #[inline]
    pub fn cached_hash(&self) -> u64 {
        self.hash
    }

    /// Number of fields.
    #[inline]
    pub fn arity(&self) -> usize {
        match &self.repr {
            Repr::Inline(len, _) => *len as usize,
            Repr::Spill(a) => a.len(),
        }
    }

    /// Whether this is the nullary tuple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arity() == 0
    }

    /// Field access.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.values()[i]
    }

    /// All fields as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match &self.repr {
            Repr::Inline(len, vals) => &vals[..*len as usize],
            Repr::Spill(a) => a,
        }
    }

    /// Projects this tuple onto the given positions, in the given order.
    ///
    /// This is the `x[S]` restriction of the paper (Sec. 3): the result
    /// follows the ordering of `positions`, not of `self`. Allocation-free
    /// whenever the result fits inline (join keys, partition keys, and
    /// segment projections virtually always do); the empty and identity
    /// projections reuse existing state outright.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        if positions.is_empty() {
            return Tuple::empty();
        }
        let values = self.values();
        if positions.len() == values.len() && positions.iter().enumerate().all(|(i, &p)| i == p) {
            return self.clone();
        }
        if positions.len() <= INLINE_ARITY {
            let mut vals = [NO_VALUE, NO_VALUE];
            for (dst, &p) in vals.iter_mut().zip(positions) {
                *dst = values[p].clone();
            }
            return Tuple::from_repr(Repr::Inline(positions.len() as u8, vals));
        }
        Tuple::from_repr(Repr::Spill(
            positions.iter().map(|&p| values[p].clone()).collect(),
        ))
    }

    /// [`Tuple::project`] through a caller-provided scratch buffer: wide
    /// (spilling) projections assemble their values in `scratch` instead of
    /// a fresh `Vec`, so repeated projections in a hot loop reuse one
    /// allocation. Inline-sized projections never touch `scratch`.
    pub fn project_into(&self, positions: &[usize], scratch: &mut Vec<Value>) -> Tuple {
        if positions.len() <= INLINE_ARITY {
            return self.project(positions);
        }
        let values = self.values();
        if positions.len() == values.len() && positions.iter().enumerate().all(|(i, &p)| i == p) {
            return self.clone();
        }
        scratch.clear();
        scratch.extend(positions.iter().map(|&p| values[p].clone()));
        Tuple::from_repr(Repr::Spill(scratch.as_slice().into()))
    }

    /// Concatenates two tuples (the `◦` operator of the Product algorithm).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        let (a, b) = (self.values(), other.values());
        if a.len() + b.len() <= INLINE_ARITY {
            let mut vals = [NO_VALUE, NO_VALUE];
            for (dst, src) in vals.iter_mut().zip(a.iter().chain(b)) {
                *dst = src.clone();
            }
            return Tuple::from_repr(Repr::Inline((a.len() + b.len()) as u8, vals));
        }
        let mut v = Vec::with_capacity(a.len() + b.len());
        v.extend_from_slice(a);
        v.extend_from_slice(b);
        Tuple::from_repr(Repr::Spill(v.into()))
    }
}

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Tuple) -> bool {
        // The cached hash is a pure function of the values, so unequal
        // hashes prove unequal tuples; equal hashes still require the
        // value comparison (collisions must not alias tuples).
        self.hash == other.hash && self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Tuple {
    #[inline]
    fn partial_cmp(&self, other: &Tuple) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    #[inline]
    fn cmp(&self, other: &Tuple) -> std::cmp::Ordering {
        self.values().cmp(other.values())
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        let mut it = iter.into_iter();
        // Fill inline first; only spill when an overflowing value shows up.
        let mut vals = [NO_VALUE, NO_VALUE];
        let mut len = 0usize;
        for dst in vals.iter_mut() {
            match it.next() {
                Some(v) => {
                    *dst = v;
                    len += 1;
                }
                None => return Tuple::from_repr(Repr::Inline(len as u8, vals)),
            }
        }
        match it.next() {
            None => Tuple::from_repr(Repr::Inline(len as u8, vals)),
            Some(fourth) => {
                let mut v: Vec<Value> = Vec::with_capacity(INLINE_ARITY + 2);
                v.extend(vals);
                v.push(fourth);
                v.extend(it);
                Tuple::from_repr(Repr::Spill(v.into()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_reorders() {
        let t = Tuple::ints(&[10, 20, 30]);
        assert_eq!(t.project(&[2, 0]), Tuple::ints(&[30, 10]));
        assert_eq!(t.project(&[]), Tuple::empty());
    }

    #[test]
    fn concat_identities() {
        let t = Tuple::ints(&[1, 2]);
        assert_eq!(t.concat(&Tuple::empty()), t);
        assert_eq!(Tuple::empty().concat(&t), t);
        assert_eq!(t.concat(&Tuple::ints(&[3])), Tuple::ints(&[1, 2, 3]));
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(5usize).as_int(), 5);
    }

    #[test]
    fn mixed_tuple_equality_and_hash() {
        use std::collections::HashSet;
        let a = Tuple::new(vec![Value::from(1i64), Value::from("ab")]);
        let b = Tuple::new(vec![Value::from(1i64), Value::from("ab")]);
        let c = Tuple::new(vec![Value::from(1i64), Value::from("ac")]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut s = HashSet::new();
        s.insert(a.clone());
        assert!(s.contains(&b));
        assert!(!s.contains(&c));
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn as_int_panics_on_str() {
        let _ = Value::from("nope").as_int();
    }

    #[test]
    fn inline_and_spilled_forms_agree() {
        // Same logical tuple must hash and compare identically no matter
        // which constructor produced it.
        let ints = Tuple::ints(&[1, 2, 3]);
        let newv = Tuple::new(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let coll: Tuple = [1i64, 2, 3].iter().map(|&v| Value::Int(v)).collect();
        let slice = Tuple::from_slice(&[Value::Int(1), Value::Int(2), Value::Int(3)]);
        for t in [&newv, &coll, &slice] {
            assert_eq!(&ints, t);
            assert_eq!(ints.cached_hash(), t.cached_hash());
        }
        // Arity 4 spills; constructors must still agree with each other.
        let wide_a = Tuple::ints(&[1, 2, 3, 4]);
        let wide_b: Tuple = (1i64..=4).map(Value::Int).collect();
        assert_eq!(wide_a, wide_b);
        assert_eq!(wide_a.cached_hash(), wide_b.cached_hash());
        assert_eq!(wide_a.arity(), 4);
        assert_ne!(wide_a, ints);
    }

    #[test]
    fn projection_of_wide_tuple_matches_inline_build() {
        let wide = Tuple::ints(&[10, 20, 30, 40, 50]);
        let p = wide.project(&[4, 0]);
        assert_eq!(p, Tuple::ints(&[50, 10]));
        assert_eq!(p.cached_hash(), Tuple::ints(&[50, 10]).cached_hash());
        // Identity projection of a wide tuple shares storage (same hash).
        let id = wide.project(&[0, 1, 2, 3, 4]);
        assert_eq!(id, wide);
        let mut scratch = Vec::new();
        let ps = wide.project_into(&[3, 2, 1, 0], &mut scratch);
        assert_eq!(ps, Tuple::ints(&[40, 30, 20, 10]));
        let ps2 = wide.project_into(&[1, 0], &mut scratch);
        assert_eq!(ps2, Tuple::ints(&[20, 10]));
    }

    #[test]
    fn empty_tuple_hash_matches_computed() {
        assert_eq!(Tuple::empty().cached_hash(), Tuple::hash_of(&[]));
        assert_eq!(Tuple::empty(), Tuple::ints(&[]));
        assert_eq!(Tuple::empty(), Tuple::new(Vec::new()));
    }

    /// A row held as a bare slice must hash like the tuple of its values,
    /// however that tuple was built — inline or spilled — or a table keyed
    /// by rows answers 0 to every probe built as a `Tuple`.
    #[test]
    fn hash_of_a_slice_is_the_cached_hash_of_its_tuple() {
        let ints: Vec<Value> = (0..4).map(|i| Value::Int(i * 1_000 - 7)).collect();
        let strs: Vec<Value> = ["", "a", "bc", "def"].map(Value::from).to_vec();
        let mixed: Vec<Value> = vec![
            Value::from("x"),
            Value::Int(-1),
            Value::from("yz"),
            Value::Int(i64::MIN),
        ];
        for values in [&ints, &strs, &mixed] {
            for arity in 0..=4 {
                let v = &values[..arity];
                let hash = Tuple::hash_of(v);
                assert_eq!(Tuple::from_slice(v).cached_hash(), hash, "{v:?}");
                assert_eq!(Tuple::new(v.to_vec()).cached_hash(), hash, "{v:?}");
            }
        }
    }

    #[test]
    fn str_hash_is_length_prefixed() {
        let a = Tuple::new(vec![Value::from("ab"), Value::from("c")]);
        let b = Tuple::new(vec![Value::from("a"), Value::from("bc")]);
        assert_ne!(a, b);
        assert_ne!(a.cached_hash(), b.cached_hash());
    }

    #[test]
    fn ordering_is_value_lexicographic() {
        let mut v = vec![
            Tuple::ints(&[2, 1]),
            Tuple::ints(&[1, 2, 3, 4]),
            Tuple::ints(&[1, 2]),
            Tuple::empty(),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Tuple::empty(),
                Tuple::ints(&[1, 2]),
                Tuple::ints(&[1, 2, 3, 4]),
                Tuple::ints(&[2, 1]),
            ]
        );
    }

    #[test]
    fn concat_spills_past_inline_arity() {
        let t = Tuple::ints(&[1, 2]).concat(&Tuple::ints(&[3, 4]));
        assert_eq!(t, Tuple::ints(&[1, 2, 3, 4]));
        assert_eq!(t.arity(), 4);
    }
}
