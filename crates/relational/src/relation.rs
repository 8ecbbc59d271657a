//! Set-semantics relations with duplicate-suppressing insertion.
//!
//! coDB's update algorithm is built on exactly this primitive: when a set of
//! tuples `T` arrives for relation `R`, the node computes `T' = T \ R`,
//! inserts `T'`, and uses `T'` (the *delta*) to re-evaluate dependent rules.
//! [`Relation::insert_all`] performs that step and returns the delta.

use crate::schema::{RelationSchema, SchemaError};
use crate::tuple::Tuple;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A relation instance: a schema plus a set of tuples.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Relation {
    schema: RelationSchema,
    tuples: HashSet<Tuple>,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        Relation { schema, tuples: HashSet::new() }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Iterates over the tuples (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Tuples sorted lexicographically — for deterministic output.
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.tuples.iter().cloned().collect();
        v.sort();
        v
    }

    /// Validates and inserts one tuple. Returns `Ok(true)` when the tuple is
    /// new, `Ok(false)` when it was already present.
    pub fn insert(&mut self, t: Tuple) -> Result<bool, SchemaError> {
        self.schema.validate(&t)?;
        Ok(self.tuples.insert(t))
    }

    /// Inserts a batch and returns the *delta*: the sub-batch that was not
    /// already present (in insertion order, deduplicated). This is the
    /// `T' = T \ R` step of the coDB update algorithm.
    pub fn insert_all(
        &mut self,
        batch: impl IntoIterator<Item = Tuple>,
    ) -> Result<Vec<Tuple>, SchemaError> {
        let mut delta = Vec::new();
        for t in batch {
            self.schema.validate(&t)?;
            if self.tuples.insert(t.clone()) {
                delta.push(t);
            }
        }
        Ok(delta)
    }

    /// Removes a tuple; returns whether it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.tuples.remove(t)
    }

    /// Drops all tuples.
    pub fn clear(&mut self) {
        self.tuples.clear();
    }

    /// Approximate byte volume of the whole relation (statistics module).
    pub fn size_bytes(&self) -> usize {
        self.tuples.iter().map(Tuple::size_bytes).sum()
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::value::ValueType;

    fn rel() -> Relation {
        Relation::new(RelationSchema::with_types("r", &[ValueType::Int, ValueType::Str]))
    }

    #[test]
    fn insert_dedups() {
        let mut r = rel();
        assert!(r.insert(tup![1, "a"]).unwrap());
        assert!(!r.insert(tup![1, "a"]).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn insert_all_returns_delta_only() {
        let mut r = rel();
        r.insert(tup![1, "a"]).unwrap();
        let delta =
            r.insert_all(vec![tup![1, "a"], tup![2, "b"], tup![2, "b"], tup![3, "c"]]).unwrap();
        assert_eq!(delta, vec![tup![2, "b"], tup![3, "c"]]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn insert_validates_schema() {
        let mut r = rel();
        assert!(r.insert(tup!["bad", 1]).is_err());
        assert!(r.insert(tup![1]).is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn remove_and_clear() {
        let mut r = rel();
        r.insert(tup![1, "a"]).unwrap();
        assert!(r.remove(&tup![1, "a"]));
        assert!(!r.remove(&tup![1, "a"]));
        r.insert(tup![2, "b"]).unwrap();
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut r = rel();
        r.insert(tup![2, "b"]).unwrap();
        r.insert(tup![1, "a"]).unwrap();
        assert_eq!(r.sorted(), vec![tup![1, "a"], tup![2, "b"]]);
    }

    #[test]
    fn size_bytes_sums_tuples() {
        let mut r = rel();
        r.insert(tup![1, "a"]).unwrap();
        assert_eq!(r.size_bytes(), tup![1, "a"].size_bytes());
    }

    #[test]
    fn equality_is_structural() {
        let mut a = rel();
        let mut b = rel();
        a.insert(tup![1, "a"]).unwrap();
        b.insert(tup![1, "a"]).unwrap();
        assert_eq!(a, b);
        b.insert(tup![2, "b"]).unwrap();
        assert_ne!(a, b);
    }
}
