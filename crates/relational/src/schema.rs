//! Relation and database schemas.
//!
//! In coDB every node exposes a *Database Schema* (DBS) describing the part
//! of its local database that is shared with the network; a node without a
//! local database (a pure mediator) still publishes a DBS. We model the DBS
//! as a set of named, typed relation schemas.

use crate::tuple::Tuple;
use crate::value::ValueType;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// A typed column.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Column {
    /// Column name (informational; positions are what the engine uses).
    pub name: String,
    /// Column type. Marked nulls are admitted in every column.
    pub ty: ValueType,
}

impl Column {
    /// Creates a column.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Column { name: name.into(), ty }
    }
}

/// Schema of one relation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct RelationSchema {
    /// Relation name, unique within a [`DatabaseSchema`].
    pub name: String,
    /// Ordered columns.
    pub columns: Vec<Column>,
}

impl RelationSchema {
    /// Creates a schema from a name and columns.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        RelationSchema { name: name.into(), columns }
    }

    /// Shorthand: all columns typed, names auto-generated (`c0`, `c1`, ...).
    pub fn with_types(name: impl Into<String>, types: &[ValueType]) -> Self {
        let columns =
            types.iter().enumerate().map(|(i, ty)| Column::new(format!("c{i}"), *ty)).collect();
        RelationSchema::new(name, columns)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Checks a tuple against this schema: right arity, every non-null field
    /// of the column's type.
    pub fn validate(&self, tuple: &Tuple) -> Result<(), SchemaError> {
        if tuple.arity() != self.arity() {
            return Err(SchemaError::ArityMismatch {
                relation: self.name.clone(),
                expected: self.arity(),
                got: tuple.arity(),
            });
        }
        for (i, v) in tuple.values().enumerate() {
            if let Some(t) = v.value_type() {
                if t != self.columns[i].ty {
                    return Err(SchemaError::TypeMismatch {
                        relation: self.name.clone(),
                        column: i,
                        expected: self.columns[i].ty,
                        got: t,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Schema of a node's shared database: a set of relation schemas.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct DatabaseSchema {
    relations: BTreeMap<String, RelationSchema>,
}

impl DatabaseSchema {
    /// Empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a relation schema.
    pub fn add(&mut self, schema: RelationSchema) -> &mut Self {
        self.relations.insert(schema.name.clone(), schema);
        self
    }

    /// Builder-style [`DatabaseSchema::add`].
    pub fn with(mut self, schema: RelationSchema) -> Self {
        self.add(schema);
        self
    }

    /// Looks up a relation schema by name.
    pub fn get(&self, name: &str) -> Option<&RelationSchema> {
        self.relations.get(name)
    }

    /// True iff the schema declares `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Iterates over relation schemas in name order.
    pub fn relations(&self) -> impl Iterator<Item = &RelationSchema> {
        self.relations.values()
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True iff no relations are declared.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

/// Schema violations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// Tuple arity differs from the declared arity.
    ArityMismatch {
        /// Relation whose schema was violated.
        relation: String,
        /// Declared arity.
        expected: usize,
        /// Arity of the offending tuple.
        got: usize,
    },
    /// A field has the wrong type.
    TypeMismatch {
        /// Relation whose schema was violated.
        relation: String,
        /// Zero-based column index.
        column: usize,
        /// Declared column type.
        expected: ValueType,
        /// Actual value type.
        got: ValueType,
    },
    /// Reference to an undeclared relation.
    UnknownRelation {
        /// The missing relation name.
        relation: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::ArityMismatch { relation, expected, got } => {
                write!(f, "relation {relation}: arity mismatch, expected {expected}, got {got}")
            }
            SchemaError::TypeMismatch { relation, column, expected, got } => {
                write!(f, "relation {relation}: column {column} expects {expected}, got {got}")
            }
            SchemaError::UnknownRelation { relation } => {
                write!(f, "unknown relation {relation}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use crate::value::NullId;
    use crate::Value;

    fn person() -> RelationSchema {
        RelationSchema::new(
            "person",
            vec![Column::new("name", ValueType::Str), Column::new("age", ValueType::Int)],
        )
    }

    #[test]
    fn validate_accepts_well_typed_tuples() {
        assert_eq!(person().validate(&tup!["alice", 30]), Ok(()));
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let err = person().validate(&tup!["alice"]).unwrap_err();
        assert!(matches!(err, SchemaError::ArityMismatch { expected: 2, got: 1, .. }));
    }

    #[test]
    fn validate_rejects_wrong_type() {
        let err = person().validate(&tup![30, "alice"]).unwrap_err();
        assert!(matches!(
            err,
            SchemaError::TypeMismatch { column: 0, expected: ValueType::Str, .. }
        ));
    }

    #[test]
    fn nulls_fit_any_column() {
        let t = Tuple::new(vec![Value::Null(NullId::new(0, 0)), Value::Int(1)]);
        assert_eq!(person().validate(&t), Ok(()));
    }

    #[test]
    fn with_types_generates_column_names() {
        let s = RelationSchema::with_types("r", &[ValueType::Int, ValueType::Str]);
        assert_eq!(s.columns[0].name, "c0");
        assert_eq!(s.columns[1].name, "c1");
        assert_eq!(s.arity(), 2);
    }

    #[test]
    fn database_schema_lookup() {
        let db = DatabaseSchema::new().with(person());
        assert!(db.contains("person"));
        assert!(!db.contains("employee"));
        assert_eq!(db.get("person").unwrap().arity(), 2);
        assert_eq!(db.len(), 1);
        assert!(!db.is_empty());
    }

    #[test]
    fn add_replaces_existing() {
        let mut db = DatabaseSchema::new();
        db.add(person());
        db.add(RelationSchema::with_types("person", &[ValueType::Int]));
        assert_eq!(db.get("person").unwrap().arity(), 1);
        assert_eq!(db.len(), 1);
    }
}
