//! Vendored minimal stand-in for `serde`, used because this build runs
//! without network access to crates.io.
//!
//! The real serde is a zero-cost, visitor-based framework. This shim is a
//! much smaller thing: serialisation goes through an owned JSON-like
//! [`Value`] tree, and `#[derive(Serialize, Deserialize)]` (provided by the
//! sibling `serde_derive` shim) generates `to_value`/`from_value`
//! implementations with serde's external enum tagging, so round-trips
//! through `serde_json` behave the way the application code expects.
//!
//! Supported surface (grown on demand):
//! * `Serialize` for the primitives, `String`, `Option`, `Vec`, slices,
//!   tuples up to arity 4, `BTreeMap`/`HashMap` and `BTreeSet`/`HashSet`.
//! * `Deserialize` for what the workspace reads back — the integers,
//!   `bool`, `String`, `Option`, `Vec`, pairs, `BTreeMap` and [`Value`].
//! * field attribute `#[serde(with = "module")]`, resolved to
//!   `module::to_value` / `module::from_value`.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// A JSON-like value tree: the interchange format of this shim.
///
/// Integers are kept as `i128` so that the full `i64` and `u64` ranges
/// round-trip without loss.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON integer (covers the full i64 and u64 ranges).
    Int(i128),
    /// JSON non-integer number.
    Float(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects; `None` for any other variant.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The member map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// True iff this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Error raised by `from_value` conversions (and re-used by `serde_json`
/// for parse errors).
#[derive(Clone, Debug, PartialEq)]
pub struct Error(String);

impl Error {
    /// An error carrying `msg`.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }

    fn expected(what: &str, got: &Value) -> Self {
        Error(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves as a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` to a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Compatibility alias module mirroring `serde::ser`.
pub mod ser {
    pub use crate::{Error, Serialize};
}

/// Compatibility alias module mirroring `serde::de`.
pub mod de {
    pub use crate::{Deserialize, Error};
}

// ---------------------------------------------------------------------
// Derive-support helpers (referenced by serde_derive-generated code).
// ---------------------------------------------------------------------

/// Reads struct field `key` out of object `o`; an absent key deserialises
/// like an explicit `null` (so `Option` fields may be omitted) and anything
/// else reports a missing field.
pub fn __from_field<T: Deserialize>(o: &BTreeMap<String, Value>, key: &str) -> Result<T, Error> {
    match o.get(key) {
        Some(v) => T::from_value(v).map_err(|e| Error::custom(format!("field `{key}`: {e}"))),
        None => {
            T::from_value(&Value::Null).map_err(|_| Error::custom(format!("missing field `{key}`")))
        }
    }
}

/// Externally-tagged enum payload: `{"Variant": value}`.
pub fn __variant(name: &str, payload: Value) -> Value {
    let mut m = BTreeMap::new();
    m.insert(name.to_owned(), payload);
    Value::Object(m)
}

// ---------------------------------------------------------------------
// Impls for std types.
// ---------------------------------------------------------------------

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::expected("bool", v))
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i).map_err(|_| {
                        Error::custom(format!(
                            "integer {i} out of range for {}",
                            stringify!($t)
                        ))
                    }),
                    other => Err(Error::expected("integer", other)),
                }
            }
        }
    )*};
}

int_impls!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Serialize for std::num::NonZeroU64 {
    fn to_value(&self) -> Value {
        self.get().to_value()
    }
}

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_owned).ok_or_else(|| Error::expected("string", v))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array().ok_or_else(|| Error::expected("array", v))?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize + Ord> Serialize for std::collections::BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, S> Serialize for std::collections::HashSet<T, S> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

/// Maps serialise as arrays of `[key, value]` pairs so that non-string
/// keys (ids, tuples) round-trip losslessly.
fn map_to_value<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) -> Value {
    Value::Array(entries.map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()])).collect())
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<(K, V)>::from_value(v).map(BTreeMap::from_iter)
    }
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::HashMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident)+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
    )+};
}

tuple_impls! {
    (0 A)
    (0 A 1 B)
    (0 A 1 B 2 C)
    (0 A 1 B 2 C 3 D)
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_array().map(Vec::as_slice) {
            Some([a, b]) => Ok((A::from_value(a)?, B::from_value(b)?)),
            Some(other) => {
                Err(Error::custom(format!("expected array of 2 elements, got {}", other.len())))
            }
            None => Err(Error::expected("array", v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_null_round_trip() {
        assert_eq!(Option::<u64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Some(3u64).to_value(), Value::Int(3));
    }

    #[test]
    fn int_range_checks() {
        assert!(u8::from_value(&Value::Int(300)).is_err());
        assert_eq!(u64::from_value(&Value::Int(u64::MAX as i128)).unwrap(), u64::MAX);
    }

    #[test]
    fn a_set_round_trips_under_any_hasher() {
        use std::collections::HashSet;
        use std::hash::{BuildHasherDefault, DefaultHasher};
        type Set = HashSet<u32, BuildHasherDefault<DefaultHasher>>;
        let set: Set = [3, 1, 2].into_iter().collect();
        let mut elements = set.to_value().as_array().unwrap().to_vec();
        elements.sort_by_key(Value::as_u64);
        assert_eq!(elements, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let back: Set = Vec::<u32>::from_value(&set.to_value()).unwrap().into_iter().collect();
        assert_eq!(back, set);
    }

    #[test]
    fn tuples_are_arrays() {
        let v = (1u32, "x".to_owned()).to_value();
        let back: (u32, String) = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, (1, "x".to_owned()));
    }
}
