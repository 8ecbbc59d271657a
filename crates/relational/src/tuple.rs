//! Tuples: fixed-arity sequences of [`Value`]s.

use crate::value::{NullId, Value};
use serde::Serialize;
use std::cell::Cell;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::ops::Index;
use std::sync::{Arc, OnceLock};

/// A database tuple. Immutable once constructed; cheap to hash and compare,
/// which matters because coDB's duplicate suppression (`T' = T \ R`) hashes
/// every incoming tuple against the local relation.
///
/// A tuple is a shared handle on one allocation: the relation that holds
/// it, the delta that reports it and every clone of either are
/// reference-count bumps. Equality, order and the std `Hash` are those of
/// the fields; a relation files a tuple by its [`Tuple::content_hash`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Builds a tuple from values the caller already holds in a `Vec`
    /// (they are copied into the shared allocation; a builder that runs
    /// per tuple collects an exact-size iterator instead).
    pub fn new(values: impl Into<Vec<Value>>) -> Self {
        Tuple(values.into().into())
    }

    /// True iff both handles are the same allocation (equal tuples built
    /// separately are `==` but not `ptr_eq`).
    pub fn ptr_eq(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Field accessor; `None` when out of bounds.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// Iterates over the fields.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }

    /// True iff any field is a marked null. Used to compute *certain*
    /// answers: a query answer containing an invented null is not certain.
    pub fn has_null(&self) -> bool {
        self.0.iter().any(Value::is_null)
    }

    /// All null labels occurring in the tuple, in field order.
    pub fn nulls(&self) -> impl Iterator<Item = NullId> + '_ {
        self.0.iter().filter_map(|v| match v {
            Value::Null(n) => Some(*n),
            _ => None,
        })
    }

    /// Approximate wire size in bytes (see [`Value::size_bytes`]).
    pub fn size_bytes(&self) -> usize {
        2 + self.0.iter().map(Value::size_bytes).sum::<usize>()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[Value] {
        &self.0
    }

    /// The process-keyed SipHash of the fields' compact encoding: equal
    /// tuples agree, however and wherever in this process they were built,
    /// and a ground one-atom firing of the same fields hashes to the same
    /// `u64`.
    pub fn content_hash(&self) -> u64 {
        self.hash_into(Feed::new())
    }

    /// [`Tuple::content_hash`], left out of [`content_hashes`]: what a
    /// debug build checks a filed hash against, so that both builds count
    /// alike.
    pub(crate) fn uncounted_hash(&self) -> u64 {
        self.hash_into(Feed::over(keys().build_hasher()))
    }

    fn hash_into(&self, mut feed: Feed) -> u64 {
        self.0.iter().for_each(|v| feed.value(v));
        feed.end().finish()
    }
}

thread_local! {
    static CONTENT_HASHES: Cell<u64> = const { Cell::new(0) };
}

/// How many content hashes — a tuple's [`Tuple::content_hash`] or a
/// firing's — this thread has taken so far. A count to take differences
/// of, as [`index_builds`](crate::index_builds): a test that says "this
/// hop hashed nothing" reads it before and after.
pub fn content_hashes() -> u64 {
    CONTENT_HASHES.get()
}

/// The process's one SipHash key: every content hash in the crate — a
/// tuple's and a firing's — is taken under it, so keys chosen on the wire
/// cannot aim at a slot or a bucket.
pub(crate) fn keys() -> &'static RandomState {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new)
}

/// A 64-byte buffer in front of a hasher, filled with the compact encoding
/// of fields and handed on in one `write` per 64 bytes; a longer write
/// streams straight through. SipHash reads its input as one byte stream,
/// so the buffer changes the calls, never the hash.
///
/// The encoding is one tag byte, then the payload: `Int` 0 and 8 LE bytes,
/// `Str` 1, the length as a `u64` and the bytes, `Bool` 2 and one byte,
/// `Null` 3, origin and seq; a firing's placeholder 4 and its `u32`, and 5
/// between a firing's atoms. Each field's bytes are prefix-free, so equal
/// fields give equal streams and unequal ones unequal streams.
pub(crate) struct Feed<H = DefaultHasher> {
    buf: [u8; 64],
    len: usize,
    hasher: H,
}

impl Feed {
    /// A feed into a hasher under [`keys`]: one content hash begun, and
    /// counted ([`content_hashes`]).
    pub(crate) fn new() -> Self {
        CONTENT_HASHES.set(CONTENT_HASHES.get() + 1);
        Feed::over(keys().build_hasher())
    }
}

impl<H: Hasher> Feed<H> {
    /// A feed into `hasher`.
    pub(crate) fn over(hasher: H) -> Self {
        Feed { buf: [0; 64], len: 0, hasher }
    }

    fn put(&mut self, bytes: &[u8]) {
        if self.len + bytes.len() > self.buf.len() {
            self.hasher.write(&self.buf[..self.len]);
            self.len = 0;
            if bytes.len() > self.buf.len() {
                self.hasher.write(bytes);
                return;
            }
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// One ground field.
    pub(crate) fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.put(&[0]);
                self.put(&i.to_le_bytes());
            }
            Value::Str(s) => {
                self.put(&[1]);
                self.put(&(s.len() as u64).to_le_bytes());
                self.put(s.as_bytes());
            }
            Value::Bool(b) => self.put(&[2, u8::from(*b)]),
            Value::Null(n) => {
                self.put(&[3]);
                self.put(&n.origin.to_le_bytes());
                self.put(&n.seq.to_le_bytes());
            }
        }
    }

    /// A firing's existential placeholder.
    pub(crate) fn fresh(&mut self, id: u32) {
        self.put(&[4]);
        self.put(&id.to_le_bytes());
    }

    /// The end of one of a firing's atoms and the start of the next.
    pub(crate) fn separator(&mut self) {
        self.put(&[5]);
    }

    /// The hasher, every byte fed.
    pub(crate) fn end(mut self) -> H {
        self.hasher.write(&self.buf[..self.len]);
        self.hasher
    }
}

/// The byte stream a feed hands its hasher, for tests of the encoding.
#[cfg(test)]
pub(crate) fn fed(fill: impl FnOnce(&mut Feed<Bytes>)) -> Vec<u8> {
    let mut feed = Feed::over(Bytes(Vec::new()));
    fill(&mut feed);
    feed.end().0
}

/// A "hasher" that keeps what it is written.
#[cfg(test)]
pub(crate) struct Bytes(Vec<u8>);

#[cfg(test)]
impl Hasher for Bytes {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        unreachable!("a byte recorder has no hash")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

/// One allocation when the iterator knows its exact length (a mapped
/// slice, range or array does), which is how the per-tuple builders build.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Tuple(values.into_iter().collect())
    }
}

/// The JSON array of the fields, as the derive on a boxed slice wrote it.
/// Written against the vendored serde shim's value-tree API.
impl Serialize for Tuple {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Builds a [`Tuple`] from a list of expressions convertible to [`Value`].
///
/// ```
/// use codb_relational::tup;
/// let t = tup![1, "alice", true];
/// assert_eq!(t.arity(), 3);
/// ```
#[macro_export]
macro_rules! tup {
    ($($v:expr),* $(,)?) => {
        <$crate::Tuple as ::core::iter::FromIterator<$crate::Value>>::from_iter(
            [$($crate::Value::from($v)),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::NullFactory;

    #[test]
    fn construction_and_access() {
        let t = tup![1, "a", false];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t.get(2), Some(&Value::Bool(false)));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn null_detection() {
        let mut f = NullFactory::new(1);
        let n = f.fresh();
        let t = Tuple::new(vec![Value::Int(1), Value::Null(n)]);
        assert!(t.has_null());
        assert_eq!(t.nulls().collect::<Vec<_>>(), vec![n]);
        assert!(!tup![1, 2].has_null());
    }

    #[test]
    fn equality_and_hash_are_structural() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(tup![1, "x"]);
        assert!(s.contains(&tup![1, "x"]));
        assert!(!s.contains(&tup![1, "y"]));
    }

    #[test]
    fn a_clone_is_the_same_allocation_and_an_equal_tuple_is_not() {
        let t = tup![1, "x"];
        assert!(t.ptr_eq(&t.clone()));
        let collected: Tuple = [Value::Int(1), Value::str("x")].into_iter().collect();
        assert_eq!(t, collected);
        assert_eq!(t, Tuple::new(vec![Value::Int(1), Value::str("x")]));
        assert!(!t.ptr_eq(&collected));
    }

    #[test]
    fn json_is_the_array_of_the_fields() {
        let t = tup![1, "x", true];
        assert_eq!(t.to_value(), t.as_slice().to_vec().to_value());
    }

    #[test]
    fn display_format() {
        assert_eq!(tup![1, "a"].to_string(), "(1, \"a\")");
        assert_eq!(Tuple::new(vec![]).to_string(), "()");
    }

    #[test]
    fn size_accounts_all_fields() {
        assert_eq!(tup![1, true].size_bytes(), 2 + 8 + 1);
    }
}
