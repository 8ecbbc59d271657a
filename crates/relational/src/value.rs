//! Typed values, including the *marked nulls* ("labelled nulls") that coDB
//! uses to instantiate existential variables in GLAV rule heads.
//!
//! Marked nulls follow the data-exchange semantics of Fagin et al. (ICDT
//! 2003), which the coDB paper adopts: a null is a named unknown. Two nulls
//! are equal (and join) only if they carry the same label; a null never
//! equals a constant. [`NullId`] records the node that invented the null and
//! a per-node sequence number, so labels are globally unique without any
//! coordination — mirroring how coDB relies on JXTA-generated identifiers.

use serde::Serialize;
use std::fmt;

/// Identifier of a marked null: the inventing node plus a local sequence
/// number. Globally unique as long as node identifiers are unique.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct NullId {
    /// Raw identifier of the node that invented this null.
    pub origin: u64,
    /// Per-origin sequence number.
    pub seq: u64,
}

impl NullId {
    /// Creates a null identifier.
    pub fn new(origin: u64, seq: u64) -> Self {
        NullId { origin, seq }
    }
}

impl fmt::Debug for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}:{}", self.origin, self.seq)
    }
}

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}:{}", self.origin, self.seq)
    }
}

/// Factory handing out fresh marked nulls on behalf of one node.
///
/// Each call to [`NullFactory::fresh`] returns a null never produced before
/// by this factory. coDB invents one fresh null per existential variable per
/// rule-body answer, so factories are consulted on every rule application.
#[derive(Debug, Clone, Serialize)]
pub struct NullFactory {
    origin: u64,
    next: u64,
}

impl NullFactory {
    /// Creates a factory for the node with raw id `origin`.
    pub fn new(origin: u64) -> Self {
        NullFactory { origin, next: 0 }
    }

    /// Restores a factory from its persisted parts: the owning node's raw
    /// id and the number of nulls already handed out. This is the decode
    /// hook of the binary snapshot codec — restoring with a too-small
    /// `next` would re-issue labels that already occur in the data,
    /// silently merging distinct unknowns.
    pub fn from_parts(origin: u64, next: u64) -> Self {
        NullFactory { origin, next }
    }

    /// Returns a fresh, never-before-seen marked null.
    pub fn fresh(&mut self) -> NullId {
        let id = NullId::new(self.origin, self.next);
        self.next += 1;
        id
    }

    /// Raw id of the node this factory invents nulls for.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// Number of nulls handed out so far.
    pub fn invented(&self) -> u64 {
        self.next
    }
}

/// A database value.
///
/// The variants cover what the coDB demo schemas need: integers, strings,
/// booleans and marked nulls. Floats are deliberately omitted so that
/// [`Value`] has total equality/ordering and can live in hash sets —
/// the same choice most Datalog engines make.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// A marked (labelled) null standing for an unknown value invented for
    /// an existential variable. Joins only with itself.
    Null(NullId),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// True iff this value is a marked null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// The runtime type of this value, or `None` for nulls (which inhabit
    /// every column type).
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Int(_) => Some(ValueType::Int),
            Value::Str(_) => Some(ValueType::Str),
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Null(_) => None,
        }
    }

    /// Approximate wire size in bytes, used by the network simulator for
    /// bandwidth accounting (the paper's statistics module reports "the
    /// volume of the data in each message").
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            Value::Str(s) => s.len() + 4,
            Value::Bool(_) => 1,
            Value::Null(_) => 16,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<NullId> for Value {
    fn from(v: NullId) -> Self {
        Value::Null(v)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null(n) => write!(f, "{n}"),
        }
    }
}

/// Column types for schema validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Str => write!(f, "str"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_factory_is_monotone_and_unique() {
        let mut f = NullFactory::new(7);
        let a = f.fresh();
        let b = f.fresh();
        assert_ne!(a, b);
        assert_eq!(a.origin, 7);
        assert_eq!(b.seq, a.seq + 1);
        assert_eq!(f.invented(), 2);
    }

    #[test]
    fn nulls_from_different_origins_differ() {
        let a = NullFactory::new(1).fresh();
        let b = NullFactory::new(2).fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn null_equality_is_label_based() {
        let n = NullId::new(3, 4);
        assert_eq!(Value::Null(n), Value::Null(NullId::new(3, 4)));
        assert_ne!(Value::Null(n), Value::Null(NullId::new(3, 5)));
        assert_ne!(Value::Null(n), Value::Int(0));
    }

    #[test]
    fn value_types() {
        assert_eq!(Value::Int(1).value_type(), Some(ValueType::Int));
        assert_eq!(Value::str("x").value_type(), Some(ValueType::Str));
        assert_eq!(Value::Bool(true).value_type(), Some(ValueType::Bool));
        assert_eq!(Value::Null(NullId::new(0, 0)).value_type(), None);
    }

    #[test]
    fn value_ordering_is_total() {
        let mut vs = [
            Value::str("b"),
            Value::Int(2),
            Value::Bool(false),
            Value::Null(NullId::new(0, 1)),
            Value::Int(-5),
            Value::str("a"),
        ];
        vs.sort();
        // Int < Str < Bool < Null per variant declaration order.
        assert_eq!(vs[0], Value::Int(-5));
        assert_eq!(vs[1], Value::Int(2));
        assert_eq!(vs[2], Value::str("a"));
        assert_eq!(vs[3], Value::str("b"));
    }

    #[test]
    fn size_bytes_reflects_payload() {
        assert_eq!(Value::Int(0).size_bytes(), 8);
        assert_eq!(Value::str("abcd").size_bytes(), 8);
        assert_eq!(Value::Bool(true).size_bytes(), 1);
        assert_eq!(Value::Null(NullId::new(0, 0)).size_bytes(), 16);
    }

    #[test]
    fn display_round_trip_is_stable() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Null(NullId::new(1, 2)).to_string(), "#1:2");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
