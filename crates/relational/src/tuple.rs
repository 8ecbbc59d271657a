//! Tuples: fixed-arity sequences of [`Value`]s.

use crate::value::{NullId, Value};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// A database tuple. Immutable once constructed; cheap to hash and compare,
/// which matters because coDB's duplicate suppression (`T' = T \ R`) hashes
/// every incoming tuple against the local relation.
///
/// A tuple is a shared handle on one allocation: the relation that holds
/// it, the delta that reports it and every clone of either are
/// reference-count bumps. Equality, order and hash are those of the fields.
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

impl Deserialize for Tuple {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::<Value>::from_value(v).map(Tuple::from_iter)
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
        assert_eq!(Tuple::from_value(&t.to_value()).unwrap(), t);
        assert!(Tuple::from_value(&serde::Value::Int(1)).is_err());
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
