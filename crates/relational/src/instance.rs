//! Database instances: the Local Database (LDB) of a coDB node.

use crate::relation::Relation;
use crate::schema::{DatabaseSchema, RelationSchema, SchemaError};
use crate::tuple::Tuple;
use serde::Serialize;
use std::collections::BTreeMap;

/// A database instance over a [`DatabaseSchema`]: one [`Relation`] per
/// declared relation schema.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Instance {
    relations: BTreeMap<String, Relation>,
}

impl Instance {
    /// Empty instance with no relations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty instance with one empty relation per schema entry.
    pub fn with_schema(schema: &DatabaseSchema) -> Self {
        let mut inst = Instance::new();
        for rs in schema.relations() {
            inst.add_relation(rs.clone());
        }
        inst
    }

    /// Declares a relation (empty) — replaces any same-named relation.
    pub fn add_relation(&mut self, schema: RelationSchema) -> &mut Self {
        self.relations.insert(schema.name.clone(), Relation::new(schema));
        self
    }

    /// Inserts a populated relation (replaces any same-named relation).
    /// Used to assemble per-query overlay instances from clones of the
    /// relations a query actually reads.
    pub fn insert_relation(&mut self, relation: Relation) -> &mut Self {
        self.relations.insert(relation.name().to_owned(), relation);
        self
    }

    /// The database schema induced by the declared relations.
    pub fn schema(&self) -> DatabaseSchema {
        let mut s = DatabaseSchema::new();
        for r in self.relations.values() {
            s.add(r.schema().clone());
        }
        s
    }

    /// Looks up a relation.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// Inserts one tuple into `relation`.
    pub fn insert(&mut self, relation: &str, t: Tuple) -> Result<bool, SchemaError> {
        self.relations
            .get_mut(relation)
            .ok_or_else(|| SchemaError::UnknownRelation { relation: relation.to_owned() })?
            .insert(t)
    }

    /// Iterates over relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// Number of declared relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Approximate byte volume across all relations.
    pub fn size_bytes(&self) -> usize {
        self.relations.values().map(Relation::size_bytes).sum()
    }

    /// True iff `other` contains every tuple of `self` (schema-compatible
    /// relations assumed). Used by soundness/completeness tests.
    pub fn subset_of(&self, other: &Instance) -> bool {
        self.relations.iter().all(|(name, rel)| {
            rel.is_empty() || other.get(name).is_some_and(|o| rel.iter().all(|t| o.contains(t)))
        })
    }
}

/// The worker pool moves a node, and with it its instance, from thread to
/// thread: the index slots relations share must not take `Send` away.
/// (`CoDbNode: Send` is asserted by `Peer`'s supertrait, in `codb-core`.)
const _: () = {
    const fn send<T: Send>() {}
    send::<Relation>();
    send::<Instance>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::value::ValueType;

    fn inst() -> Instance {
        let mut i = Instance::new();
        i.add_relation(RelationSchema::with_types("r", &[ValueType::Int]));
        i.add_relation(RelationSchema::with_types("s", &[ValueType::Int, ValueType::Int]));
        i
    }

    #[test]
    fn insert_routes_to_relation() {
        let mut i = inst();
        assert!(i.insert("r", tup![1]).unwrap());
        assert!(!i.insert("r", tup![1]).unwrap());
        assert_eq!(i.get("r").unwrap().len(), 1);
        assert!(i.get("s").unwrap().is_empty());
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let mut i = inst();
        assert!(i.insert("t", tup![1]).is_err());
    }

    #[test]
    fn batch_insert_returns_delta() {
        let mut i = inst();
        i.insert("r", tup![1]).unwrap();
        let before = i.get("r").unwrap().version();
        for t in [tup![1], tup![2]] {
            i.insert("r", t).unwrap();
        }
        assert!(i.get("r").unwrap().since(before).unwrap().eq(&[tup![2]]));
    }

    #[test]
    fn with_schema_declares_all_relations() {
        let schema = inst().schema();
        let fresh = Instance::with_schema(&schema);
        assert_eq!(fresh.relation_count(), 2);
        assert_eq!(fresh.tuple_count(), 0);
        assert_eq!(fresh.schema(), schema);
    }

    #[test]
    fn counts_and_sizes() {
        let mut i = inst();
        i.insert("r", tup![1]).unwrap();
        i.insert("s", tup![1, 2]).unwrap();
        assert_eq!(i.tuple_count(), 2);
        assert_eq!(i.size_bytes(), tup![1].size_bytes() + tup![1, 2].size_bytes());
    }

    #[test]
    fn a_clone_shares_every_tuple_with_the_original() {
        let mut i = inst();
        for k in 0..20 {
            i.insert("r", tup![k]).unwrap();
            i.insert("s", tup![k, k + 1]).unwrap();
        }
        let mut copy = i.clone();
        for rel in i.relations() {
            let twin = copy.get(rel.name()).unwrap();
            for t in rel.iter() {
                let held = twin.iter().find(|held| *held == t).expect("cloned");
                assert!(held.ptr_eq(t), "{t} was copied");
            }
        }
        // Shared tuples, separate sets.
        copy.insert("r", tup![99]).unwrap();
        assert!(!i.get("r").unwrap().contains(&tup![99]));
    }

    #[test]
    fn subset_of_detects_containment() {
        let mut a = inst();
        let mut b = inst();
        a.insert("r", tup![1]).unwrap();
        b.insert("r", tup![1]).unwrap();
        b.insert("s", tup![1, 2]).unwrap();
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
    }

    #[test]
    fn subset_of_missing_relation_fails_only_when_nonempty() {
        let mut a = Instance::new();
        a.add_relation(RelationSchema::with_types("only_a", &[ValueType::Int]));
        let b = Instance::new();
        assert!(a.subset_of(&b)); // empty relation: vacuous
        a.insert("only_a", tup![1]).unwrap();
        assert!(!a.subset_of(&b));
    }
}
