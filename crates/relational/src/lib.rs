//! # codb-relational
//!
//! The relational substrate of the coDB reproduction (VLDB'04): an
//! in-memory, set-semantics relational engine providing exactly what the
//! coDB node algorithms need —
//!
//! * typed [`Value`]s including **marked nulls** ([`value::NullId`]) with
//!   labelled-null join semantics;
//! * [`Relation`]s/[`Instance`]s with duplicate-suppressing insertion in
//!   order, so that every delta (`T' = T \ R`) is a suffix a [`Version`]
//!   names;
//! * [`cq::ConjunctiveQuery`] evaluation with comparison predicates
//!   ([`eval`]), including **semi-naive delta evaluation**;
//! * **GLAV coordination rules** ([`glav::GlavRule`]) whose execution
//!   produces [`glav::RuleFiring`]s — the wire unit of coDB data migration,
//!   with existential placeholders instantiated as fresh nulls at the
//!   target;
//! * a text [`parser`] for queries, rules and facts (the super-peer's rule
//!   file format builds on it);
//! * versioned [`snapshot`]s of instances plus the compact [`binenc`]
//!   binary wire format they (and `codb-store`'s WAL records) encode to;
//! * the CRC-32 [`frame`] that wraps every persisted payload — WAL
//!   records, snapshots and `codb-trace` blocks alike.
//!
//! In the paper's architecture this crate plays the role of the RDBMS + the
//! Wrapper: "when LDB does not support nested queries, then this is the
//! responsibility of Wrapper to provide this support … all required
//! database operations (as join and project) are executed in Wrapper".

#![warn(missing_docs)]

pub mod binenc;
pub mod cq;
pub mod eval;
pub mod frame;
pub mod glav;
pub mod instance;
pub mod iso;
pub mod parser;
pub mod pretty;
pub mod relation;
pub mod schema;
pub mod snapshot;
pub mod tuple;
pub mod value;

pub use cq::{Atom, CmpOp, Comparison, ConjunctiveQuery, CqBody, Term, Var, VarPool};
pub use eval::{answer_query, certain_answers, evaluate_body, evaluate_body_delta, EvalError};
pub use glav::{
    apply_firings, apply_new_firings, FieldRef, Fields, FiringSet, GlavRule, Prehashed,
    PreparedRule, RuleFiring, TField,
};
pub use instance::Instance;
pub use iso::{homomorphic, isomorphic};
pub use parser::{parse_facts, parse_query, parse_rule, ParseError};
pub use relation::{index_builds, Relation, Version};
pub use schema::{Column, DatabaseSchema, RelationSchema, SchemaError};
pub use snapshot::{Snapshot, SnapshotError};
pub use tuple::{content_hashes, Tuple};
pub use value::{NullFactory, NullId, Value, ValueType};
