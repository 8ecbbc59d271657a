//! GLAV coordination rules and their application.
//!
//! A coordination rule is an inclusion of conjunctive queries
//! `head ⊇ body`: the *body* is a CQ (plus comparisons) over the **source**
//! node's schema; the *head* is a CQ over the **target** node's schema and
//! may contain *existential variables* — head variables that do not occur in
//! the body. Executing a rule at the source produces, per body answer, one
//! [`RuleFiring`]: the head atoms with body variables substituted and
//! existential variables left as *placeholders*. The target instantiates
//! each placeholder with a fresh marked null (one null per placeholder per
//! firing, shared across the firing's head atoms).
//!
//! **Duplicate suppression happens at the firing level.** The paper removes
//! from an incoming batch the tuples already present and *then* invents
//! fresh nulls; comparing ground tuples would never deduplicate two firings
//! that differ only in invented nulls, so the practical unit of comparison
//! is the firing template. Firing-level dedup also makes rule application
//! idempotent (retransmitted messages change nothing) and is what lets
//! cyclic rule sets reach a fixpoint: a cycle can only keep running while it
//! keeps producing *new templates*. (Rule sets that are not weakly acyclic
//! can still generate unboundedly many templates — the classical
//! non-terminating chase — which callers guard with a round cap:
//! `NodeSettings::max_hops` in `codb-core`.)
//!
//! **A delta is a suffix of the log**: [`apply_firings`] reports the
//! version each relation that grew had before the batch, and
//! [`PreparedRule::fire_since`] — the paper's "substitute R by T'" — reads
//! each suffix since such a version straight from the relation.

use crate::cq::{Atom, CqBody, CqError, Term, Var};
use crate::eval::{for_each_answer, for_each_delta_answer, Bindings, EvalError};
use crate::instance::Instance;
use crate::relation::Version;
use crate::tuple::{Feed, Tuple};
use crate::value::{NullFactory, NullId, Value};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A GLAV coordination rule, node-agnostic (the `codb-core` crate pairs it
/// with source/target node identifiers).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlavRule {
    /// Rule name, unique per network configuration file.
    pub name: String,
    /// Head atoms over the target schema. Variables absent from the body
    /// are existential.
    pub head: Vec<Atom>,
    /// Body over the source schema.
    pub body: CqBody,
    /// Variable name table shared by head and body.
    pub var_names: Vec<String>,
}

impl GlavRule {
    /// Creates a rule, checking well-formedness: non-empty head, safe body
    /// comparisons, and named variables.
    pub fn new(
        name: impl Into<String>,
        head: Vec<Atom>,
        body: CqBody,
        var_names: Vec<String>,
    ) -> Result<Self, CqError> {
        body.check_safe()?;
        let rule = GlavRule { name: name.into(), head, body, var_names };
        let max =
            rule.head.iter().flat_map(Atom::vars).chain(rule.body.atom_vars()).map(|v| v.0).max();
        if let Some(m) = max {
            if (m as usize) >= rule.var_names.len() {
                return Err(CqError::MissingVarName(Var(m)));
            }
        }
        Ok(rule)
    }

    /// Head variables with no body occurrence — instantiated as fresh nulls.
    pub fn existential_vars(&self) -> BTreeSet<Var> {
        let bound = self.body.atom_vars();
        self.head.iter().flat_map(Atom::vars).filter(|v| !bound.contains(v)).collect()
    }

    /// True iff the rule has existential head variables (proper GLAV; rules
    /// without them are GAV-style).
    pub fn has_existentials(&self) -> bool {
        !self.existential_vars().is_empty()
    }

    /// Relations written by the rule (at the target).
    pub fn head_relations(&self) -> BTreeSet<&str> {
        self.head.iter().map(|a| a.relation.as_str()).collect()
    }

    /// Relations read by the rule (at the source).
    pub fn body_relations(&self) -> BTreeSet<&str> {
        self.body.relations()
    }

    /// The head's relation names, in head order, as the shared strings
    /// every firing of this rule carries.
    pub fn head_names(&self) -> Vec<Arc<str>> {
        self.head.iter().map(|atom| Arc::from(atom.relation.as_str())).collect()
    }

    /// Executes the rule body against `source` and returns one firing per
    /// (deduplicated) body answer.
    pub fn fire(&self, source: &Instance) -> Result<Vec<RuleFiring>, EvalError> {
        self.fire_as(&self.head_names(), source)
    }

    fn fire_as(&self, names: &[Arc<str>], source: &Instance) -> Result<Vec<RuleFiring>, EvalError> {
        self.firings_of(names, |out| for_each_answer(&self.body, source, out))
    }

    /// Semi-naive variant: only firings whose derivation uses a tuple of
    /// `delta` in relation `delta_relation`.
    pub fn fire_delta(
        &self,
        source: &Instance,
        delta_relation: &str,
        delta: &[Tuple],
    ) -> Result<Vec<RuleFiring>, EvalError> {
        self.firings_of(&self.head_names(), |out| {
            for_each_delta_answer(&self.body, source, delta_relation, delta, out)
        })
    }

    /// One firing per distinct head instance among the body answers
    /// `answers` streams, sorted, its atoms named by `names` (this rule's
    /// [`GlavRule::head_names`]). A head variable the body leaves unbound
    /// is existential: the evaluator binds exactly the variables of the
    /// body's atoms.
    fn firings_of(
        &self,
        names: &[Arc<str>],
        answers: impl FnOnce(&mut dyn FnMut(&Bindings)) -> Result<(), EvalError>,
    ) -> Result<Vec<RuleFiring>, EvalError> {
        let mut instances: Vec<Head> = Vec::new();
        answers(&mut |b| {
            let instance = self.head.iter().zip(names).map(|(atom, name)| {
                let fields = atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => TField::Const(c.clone()),
                        Term::Var(v) => match b.get(v.0 as usize) {
                            Some(Some(bound)) => TField::Const(bound.clone()),
                            _ => TField::Fresh(v.0),
                        },
                    })
                    .collect();
                (Arc::clone(name), fields)
            });
            instances.push(Head::new(instance));
        })?;
        instances.sort_unstable_by(|a, b| a.as_slice().cmp(b.as_slice()));
        instances.dedup_by(|a, b| a.as_slice() == b.as_slice());
        Ok(instances.into_iter().map(RuleFiring::from_head).collect())
    }

    /// True iff every firing of `firings` is an instance of this rule's
    /// head that `target` can hold: the head's relations in head order,
    /// each with the arity `target` declares, ground fields of the column's
    /// type, and a placeholder only where the head has that existential
    /// variable. A batch that passes cannot make [`apply_firings`] fail.
    pub fn admits(&self, target: &Instance, firings: &[RuleFiring]) -> bool {
        if firings.is_empty() {
            return true;
        }
        let mut schemas = Vec::with_capacity(self.head.len());
        for atom in &self.head {
            match target.get(&atom.relation) {
                Some(rel) if rel.arity() == atom.terms.len() => schemas.push(rel.schema()),
                _ => return false,
            }
        }
        let existential = |v: Var| !self.body.atoms.iter().any(|a| a.terms.contains(&Term::Var(v)));
        firings.iter().all(|firing| {
            firing.atoms().len() == self.head.len()
                && firing.atoms().iter().zip(&self.head).zip(&schemas).all(
                    |(((rel, fields), atom), schema)| {
                        **rel == *atom.relation
                            && fields.len() == atom.terms.len()
                            && fields.iter().zip(&atom.terms).zip(&schema.columns).all(
                                |((field, term), column)| match field {
                                    TField::Const(v) => {
                                        v.value_type().is_none_or(|ty| ty == column.ty)
                                    }
                                    TField::Fresh(id) => {
                                        *term == Term::Var(Var(*id)) && existential(Var(*id))
                                    }
                                },
                            )
                    },
                )
        })
    }
}

/// A [`GlavRule`] a node fires again and again — once per update, then
/// once per delta that reaches it — with what every firing of it shares
/// made once: the head's relation names. The pairing is the type's whole
/// job: names made for one rule must not label another's firings.
#[derive(Clone, Debug)]
pub struct PreparedRule {
    rule: GlavRule,
    head_names: Vec<Arc<str>>,
}

impl PreparedRule {
    /// Prepares `rule`.
    pub fn new(rule: GlavRule) -> Self {
        let head_names = rule.head_names();
        PreparedRule { rule, head_names }
    }

    /// The rule.
    pub fn rule(&self) -> &GlavRule {
        &self.rule
    }

    /// The head's relation names, in head order.
    pub fn head_names(&self) -> &[Arc<str>] {
        &self.head_names
    }

    /// [`GlavRule::fire`].
    pub fn fire(&self, source: &Instance) -> Result<Vec<RuleFiring>, EvalError> {
        self.rule.fire_as(&self.head_names, source)
    }

    /// The firings whose derivation uses a tuple some relation of `source`
    /// gained since its version in `versions` (a relation named twice is
    /// fired once), as one sorted, deduplicated sequence: the subsequence
    /// of [`PreparedRule::fire`]'s that touches the suffixes. `None` where
    /// `source` lacks a named relation or a version is not of its lineage
    /// ([`Relation::since`](crate::Relation::since)).
    pub fn fire_since<'a>(
        &self,
        source: &Instance,
        versions: impl Iterator<Item = (&'a str, Version)> + Clone,
    ) -> Result<Option<Vec<RuleFiring>>, EvalError> {
        let suffix = |(rel, version): (&str, Version)| source.get(rel)?.since(version);
        if !versions.clone().all(|pair| suffix(pair).is_some()) {
            return Ok(None);
        }
        let fired = self.rule.firings_of(&self.head_names, |out| {
            versions.clone().enumerate().try_for_each(|(i, pair)| {
                let delta = suffix(pair).expect("every version answers");
                if delta.is_empty() || versions.clone().take(i).any(|(seen, _)| seen == pair.0) {
                    return Ok(());
                }
                for_each_delta_answer(&self.rule.body, source, pair.0, delta, out)
            })
        })?;
        Ok(Some(fired))
    }
}

impl fmt::Display for GlavRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule {}: ", self.name)?;
        let atom = |f: &mut fmt::Formatter<'_>, a: &Atom| -> fmt::Result {
            write!(f, "{}(", a.relation)?;
            for (i, t) in a.terms.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match t {
                    Term::Const(c) => write!(f, "{c}")?,
                    Term::Var(v) => write!(f, "{}", self.var_names[v.0 as usize])?,
                }
            }
            write!(f, ")")
        };
        for (i, a) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            atom(f, a)?;
        }
        write!(f, " <- ")?;
        for (i, a) in self.body.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            atom(f, a)?;
        }
        for c in &self.body.comparisons {
            write!(f, ", ")?;
            let term = |f: &mut fmt::Formatter<'_>, t: &Term| -> fmt::Result {
                match t {
                    Term::Const(v) => write!(f, "{v}"),
                    Term::Var(v) => write!(f, "{}", self.var_names[v.0 as usize]),
                }
            };
            term(f, &c.lhs)?;
            write!(f, " {} ", c.op.symbol())?;
            term(f, &c.rhs)?;
        }
        Ok(())
    }
}

/// One field of a firing template: a ground value or an existential
/// placeholder (keyed by the rule's variable index so placeholders are
/// shared across head atoms of the same firing).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TField {
    /// Ground value carried over from the body answer (or a head constant).
    Const(Value),
    /// Existential placeholder; the target invents one fresh null per
    /// distinct placeholder id per firing.
    Fresh(u32),
}

/// The wire unit of coDB data migration: one rule firing — every head atom
/// of the rule, projected through one body answer, with existential
/// placeholders unresolved.
///
/// A firing is an immutable shared handle: built once where the rule
/// fires, and from there to the last cache that remembers it every clone
/// is a reference-count bump. Equality and order are structural — those of
/// the atom list — and the hash and the size are taken together on first
/// use, once per allocation.
#[derive(Clone)]
pub struct RuleFiring(Arc<FiringData>);

struct FiringData {
    head: Head,
    /// The content hash and [`RuleFiring::size_bytes`], from one walk.
    summary: OnceLock<(u64, usize)>,
}

/// One head atom: its relation and its fields.
type HeadAtom = (Arc<str>, Vec<TField>);

/// A firing's atoms; a one-atom head — most rules' — in the firing's own
/// allocation. Compared as its slice, so that the order of firings is the
/// atom lists' whatever the variant.
enum Head {
    One([HeadAtom; 1]),
    Many(Vec<HeadAtom>),
}

impl Head {
    fn new(mut atoms: impl Iterator<Item = HeadAtom>) -> Self {
        match (atoms.next(), atoms.next()) {
            (Some(atom), None) => Head::One([atom]),
            (first, second) => Head::Many(first.into_iter().chain(second).chain(atoms).collect()),
        }
    }

    fn as_slice(&self) -> &[HeadAtom] {
        match self {
            Head::One(atom) => atom,
            Head::Many(atoms) => atoms,
        }
    }
}

/// Feeds a firing's fields to `feed`, its atoms apart by the separator —
/// the relation names are left out: a [`FiringSet`] holds one rule's
/// firings and [`GlavRule::admits`] checks the names — and returns the
/// firing's size: over its atoms, the name's length, 2 and each field's
/// size, a placeholder's being 4.
fn summarise<H: Hasher>(atoms: &[HeadAtom], feed: &mut Feed<H>) -> usize {
    let mut size = 0;
    for (i, (rel, fields)) in atoms.iter().enumerate() {
        if i > 0 {
            feed.separator();
        }
        size += rel.len() + 2;
        for field in fields {
            size += match field {
                TField::Const(v) => {
                    feed.value(v);
                    v.size_bytes()
                }
                TField::Fresh(id) => {
                    feed.fresh(*id);
                    4
                }
            };
        }
    }
    size
}

impl RuleFiring {
    /// A firing of `(relation, fields)` per head atom, in rule head order.
    pub fn new<S: Into<Arc<str>>>(atoms: impl IntoIterator<Item = (S, Vec<TField>)>) -> Self {
        Self::from_head(Head::new(atoms.into_iter().map(|(rel, fields)| (rel.into(), fields))))
    }

    fn from_head(head: Head) -> Self {
        RuleFiring(Arc::new(FiringData { head, summary: OnceLock::new() }))
    }

    /// `(relation, fields)` per head atom, in rule head order.
    pub fn atoms(&self) -> &[(Arc<str>, Vec<TField>)] {
        self.0.head.as_slice()
    }

    /// True iff both handles are the same allocation (equal firings built
    /// separately are `==` but not `ptr_eq`).
    pub fn ptr_eq(&self, other: &RuleFiring) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// True iff the firing carries no existential placeholder.
    pub fn is_ground(&self) -> bool {
        self.atoms().iter().all(|(_, fs)| fs.iter().all(|f| matches!(f, TField::Const(_))))
    }

    /// Approximate wire size in bytes (statistics accounting): over the
    /// atoms, the relation name's length, 2 and each field's size, a
    /// placeholder's being 4.
    pub fn size_bytes(&self) -> usize {
        self.summary().1
    }

    /// The hash of the fields under the process-keyed SipHash
    /// ([`Tuple::content_hash`]'s): equal firings agree, however and
    /// wherever in this process they were built, and a ground one-atom
    /// firing hashes as the tuple it makes.
    fn content_hash(&self) -> u64 {
        self.summary().0
    }

    /// The content hash and the size, taken in one walk the first time
    /// either is asked for. Lazy because most firings are never hashed — a
    /// chase that keeps them in ordered sets pays nothing for it.
    fn summary(&self) -> (u64, usize) {
        *self.0.summary.get_or_init(|| {
            let mut feed = Feed::new();
            let size = summarise(self.atoms(), &mut feed);
            (feed.end().finish(), size)
        })
    }
}

impl PartialEq for RuleFiring {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.atoms() == other.atoms()
    }
}

impl Eq for RuleFiring {}

impl PartialOrd for RuleFiring {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RuleFiring {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.ptr_eq(other) {
            Ordering::Equal
        } else {
            self.atoms().cmp(other.atoms())
        }
    }
}

impl Hash for RuleFiring {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash());
    }
}

/// A set of firings — the sent cache, the receive cache, a served
/// request's instalment record — bucketed by the content hash each firing
/// already carries, so an insert or a growth re-hash costs a load, not a
/// second SipHash of that `u64`.
pub type FiringSet = HashSet<RuleFiring, BuildHasherDefault<Prehashed>>;

/// The [`Hasher`] of a [`FiringSet`]: hands back the one `u64` its key
/// writes. Sound only for keys whose `Hash` writes a hash that is itself
/// safe to bucket by — [`RuleFiring`]'s is the process-keyed SipHash of its
/// fields, so firings chosen on the wire still cannot aim at a bucket.
#[derive(Clone, Copy, Debug, Default)]
pub struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = self.0.rotate_left(5) ^ hash;
    }

    /// Total for any key: bytes fold in eight at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

impl fmt::Debug for RuleFiring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuleFiring").field("atoms", &self.atoms()).finish()
    }
}

/// `{"atoms": [[relation, fields], …]}`, the shape JSON stores on disk
/// (and the golden-json fixture) hold. Written against the vendored serde
/// shim's value-tree API.
impl Serialize for RuleFiring {
    fn to_value(&self) -> serde::Value {
        let atoms = self
            .atoms()
            .iter()
            .map(|(rel, fields)| serde::Value::Array(vec![rel.to_value(), fields.to_value()]))
            .collect();
        serde::Value::Object(BTreeMap::from([("atoms".to_owned(), serde::Value::Array(atoms))]))
    }
}

impl Deserialize for RuleFiring {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let atoms = v.get("atoms").ok_or_else(|| serde::Error::custom("missing field `atoms`"))?;
        Vec::<(String, Vec<TField>)>::from_value(atoms).map(RuleFiring::new)
    }
}

/// Applies a batch of firings to `target`: instantiates each firing — one
/// fresh null from `nulls` per distinct placeholder, shared across the
/// firing's head atoms — inserts the resulting tuples, and returns each
/// relation that gained one, in the order of its first new tuple, with
/// its version before the batch: what the batch added is the relation's
/// [`Relation::since`](crate::Relation::since) that version.
///
/// The caller is responsible for firing-level dedup (per-link caches); this
/// function still suppresses ground duplicates via set semantics. On an
/// error the firings before the offending one stay applied; check a batch
/// from outside the program with [`GlavRule::admits`] first.
pub fn apply_firings(
    target: &mut Instance,
    firings: &[RuleFiring],
    nulls: &mut NullFactory,
) -> Result<Vec<(Arc<str>, Version)>, crate::schema::SchemaError> {
    let mut grown: Vec<(Arc<str>, Version)> = Vec::new();
    // Placeholder → null of the firing in hand; a head has a few at most.
    let mut invented: Vec<(u32, NullId)> = Vec::new();
    for firing in firings {
        invented.clear();
        for (rel, fields) in firing.atoms() {
            let tuple: Tuple = fields
                .iter()
                .map(|f| match f {
                    TField::Const(v) => v.clone(),
                    TField::Fresh(id) => {
                        Value::Null(match invented.iter().find(|(seen, _)| seen == id) {
                            Some(&(_, null)) => null,
                            None => {
                                let null = nulls.fresh();
                                invented.push((*id, null));
                                null
                            }
                        })
                    }
                })
                .collect();
            let relation = target.get_mut(rel).ok_or_else(|| {
                crate::schema::SchemaError::UnknownRelation { relation: rel.to_string() }
            })?;
            let before = relation.version();
            // A ground one-atom firing hashes as the tuple it makes: the
            // receive cache's hash files it.
            let hash = if firing.atoms().len() == 1 && invented.is_empty() {
                firing.content_hash()
            } else {
                tuple.content_hash()
            };
            if relation.insert_hashed(tuple, hash)? && !grown.iter().any(|(seen, _)| seen == rel) {
                grown.push((Arc::clone(rel), before));
            }
        }
    }
    Ok(grown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{CmpOp, Comparison};
    use crate::eval::evaluate_body;
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::value::ValueType;
    use std::hash::BuildHasher;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    fn src() -> Instance {
        let mut i = Instance::new();
        i.add_relation(RelationSchema::with_types("emp", &[ValueType::Str, ValueType::Int]));
        i.insert("emp", tup!["alice", 30]).unwrap();
        i.insert("emp", tup!["bob", 17]).unwrap();
        i
    }

    fn gav_rule() -> GlavRule {
        // person(N, A) <- emp(N, A), A >= 18
        GlavRule::new(
            "r1",
            vec![Atom::new("person", vec![v(0), v(1)])],
            CqBody::new(
                vec![Atom::new("emp", vec![v(0), v(1)])],
                vec![Comparison::new(Var(1), CmpOp::Ge, Value::Int(18))],
            ),
            vec!["N".into(), "A".into()],
        )
        .unwrap()
    }

    fn glav_rule() -> GlavRule {
        // person(N, D), dept(D) <- emp(N, A)   -- D existential, shared
        GlavRule::new(
            "r2",
            vec![Atom::new("person", vec![v(0), v(2)]), Atom::new("dept", vec![v(2)])],
            CqBody::new(vec![Atom::new("emp", vec![v(0), v(1)])], vec![]),
            vec!["N".into(), "A".into(), "D".into()],
        )
        .unwrap()
    }

    #[test]
    fn existential_detection() {
        assert!(gav_rule().existential_vars().is_empty());
        assert!(!gav_rule().has_existentials());
        assert_eq!(glav_rule().existential_vars(), [Var(2)].into_iter().collect());
        assert!(glav_rule().has_existentials());
    }

    #[test]
    fn fire_gav_produces_ground_firings() {
        let firings = gav_rule().fire(&src()).unwrap();
        assert_eq!(firings.len(), 1); // bob filtered by comparison
        assert!(firings[0].is_ground());
        assert_eq!(
            firings[0].atoms()[0].1,
            vec![TField::Const(Value::str("alice")), TField::Const(Value::Int(30))]
        );
    }

    #[test]
    fn fire_glav_shares_placeholder_across_head_atoms() {
        let firings = glav_rule().fire(&src()).unwrap();
        assert_eq!(firings.len(), 2);
        for f in &firings {
            assert!(!f.is_ground());
            let (_, person_fields) = &f.atoms()[0];
            let (_, dept_fields) = &f.atoms()[1];
            assert_eq!(person_fields[1], TField::Fresh(2));
            assert_eq!(dept_fields[0], TField::Fresh(2));
        }
    }

    #[test]
    fn instantiate_invents_one_null_per_placeholder() {
        let mut target = Instance::new();
        target
            .add_relation(RelationSchema::with_types("person", &[ValueType::Str, ValueType::Str]));
        target.add_relation(RelationSchema::with_types("dept", &[ValueType::Str]));
        let firings = glav_rule().fire(&src()).unwrap();
        let mut nulls = NullFactory::new(1);
        let grown = apply_firings(&mut target, &firings, &mut nulls).unwrap();
        assert_eq!(nulls.invented(), 2, "one null per firing, not per head atom");
        let deltas = gained(&target, &grown);
        for (person, dept) in deltas["person"].iter().zip(&deltas["dept"]) {
            assert!(person[1].is_null());
            assert_eq!(person[1], dept[0], "placeholder shared within a firing");
        }
        // The second firing invented a different null.
        assert_ne!(deltas["dept"][0], deltas["dept"][1]);
    }

    /// What `grown`, as `apply_firings` reported it, names in `target`:
    /// each relation's suffix since its version before the batch.
    fn gained(target: &Instance, grown: &[(Arc<str>, Version)]) -> BTreeMap<String, Vec<Tuple>> {
        let suffix = |rel: &str, v| target.get(rel).unwrap().since(v).unwrap().to_vec();
        grown.iter().map(|(rel, v)| (rel.to_string(), suffix(rel, *v))).collect()
    }

    #[test]
    fn firings_are_deduplicated() {
        let mut i = src();
        // A second emp tuple with the same name, different age: the GAV rule
        // projects both columns so firings differ; but a projection rule
        // dedups.
        i.insert("emp", tup!["alice", 31]).unwrap();
        let proj = GlavRule::new(
            "p",
            vec![Atom::new("names", vec![v(0)])],
            CqBody::new(vec![Atom::new("emp", vec![v(0), v(1)])], vec![]),
            vec!["N".into(), "A".into()],
        )
        .unwrap();
        let firings = proj.fire(&i).unwrap();
        assert_eq!(firings.len(), 2); // alice, bob — not 3
    }

    /// What `fire` returns, by definition: the ordered set of the head's
    /// plain atom lists, one per body answer, existentials from the rule.
    fn fire_reference(rule: &GlavRule, source: &Instance) -> Vec<Vec<(String, Vec<TField>)>> {
        let existentials = rule.existential_vars();
        let mut set = BTreeSet::new();
        for b in evaluate_body(&rule.body, source).unwrap() {
            let atoms: Vec<(String, Vec<TField>)> = rule
                .head
                .iter()
                .map(|atom| {
                    let fields = atom
                        .terms
                        .iter()
                        .map(|t| match t {
                            Term::Const(c) => TField::Const(c.clone()),
                            Term::Var(v) if existentials.contains(v) => TField::Fresh(v.0),
                            Term::Var(v) => TField::Const(b[v.0 as usize].clone().unwrap()),
                        })
                        .collect();
                    (atom.relation.clone(), fields)
                })
                .collect();
            set.insert(atoms);
        }
        set.into_iter().collect()
    }

    #[test]
    fn fire_returns_the_sorted_deduplicated_sequence_it_always_did() {
        // 300 scrambled rows over 40 names, so a projection collapses many.
        let mut inst = src();
        let mut x = 7u64;
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let name = format!("n{}", (x >> 33) % 40);
            inst.insert("emp", tup![name, ((x >> 13) % 90) as i64]).unwrap();
        }
        let projection = GlavRule::new(
            "p",
            vec![
                Atom::new("names", vec![v(0)]),
                Atom::new("tag", vec![Term::Const(Value::Int(1))]),
            ],
            CqBody::new(vec![Atom::new("emp", vec![v(0), v(1)])], vec![]),
            vec!["N".into(), "A".into()],
        )
        .unwrap();
        for rule in [gav_rule(), glav_rule(), projection] {
            let fired: Vec<Vec<(String, Vec<TField>)>> = rule
                .fire(&inst)
                .unwrap()
                .iter()
                .map(|f| f.atoms().iter().map(|(r, fs)| (r.to_string(), fs.clone())).collect())
                .collect();
            assert_eq!(fired, fire_reference(&rule, &inst), "{rule}");
        }
        assert_eq!(glav_rule().fire(&inst).unwrap().len(), 42, "alice, bob and n0..n39");
    }

    #[test]
    fn admits_exactly_the_instances_of_the_head() {
        let mut target = Instance::new();
        target
            .add_relation(RelationSchema::with_types("person", &[ValueType::Str, ValueType::Str]));
        target.add_relation(RelationSchema::with_types("dept", &[ValueType::Str]));
        let rule = glav_rule();
        let fired = rule.fire(&src()).unwrap();
        assert!(rule.admits(&target, &fired));
        assert!(rule.admits(&Instance::new(), &[]), "nothing to hold");
        assert!(!rule.admits(&Instance::new(), &fired), "the target lacks the head's relations");
        let name = || TField::Const(Value::str("zed"));
        let misfits = [
            vec![("person", vec![name(), TField::Fresh(2)])],
            vec![("dept", vec![TField::Fresh(2)]), ("person", vec![name(), TField::Fresh(2)])],
            vec![("person", vec![name()]), ("dept", vec![TField::Fresh(2)])],
            vec![
                ("person", vec![TField::Const(Value::Int(1)), TField::Fresh(2)]),
                ("dept", vec![TField::Fresh(2)]),
            ],
            vec![
                ("person", vec![TField::Fresh(0), TField::Fresh(2)]),
                ("dept", vec![TField::Fresh(2)]),
            ],
            vec![("person", vec![name(), TField::Fresh(3)]), ("dept", vec![TField::Fresh(2)])],
        ];
        for atoms in misfits {
            let firing = RuleFiring::new(atoms);
            assert!(!rule.admits(&target, &[fired[0].clone(), firing.clone()]), "{firing:?}");
        }
        // A null or a constant where the head has a placeholder is data.
        let ground = RuleFiring::new([
            ("person", vec![name(), TField::Const(Value::Null(NullId::new(9, 9)))]),
            ("dept", vec![name()]),
        ]);
        assert!(rule.admits(&target, &[ground]));
    }

    #[test]
    fn fire_delta_limits_to_new_tuples() {
        let mut i = src();
        let delta = vec![tup!["carol", 50]];
        i.insert("emp", delta[0].clone()).unwrap();
        let firings = gav_rule().fire_delta(&i, "emp", &delta).unwrap();
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].atoms()[0].1[0], TField::Const(Value::str("carol")));
    }

    #[test]
    fn fire_deltas_is_one_sorted_sequence_over_every_changed_relation() {
        // path(X, Z) <- e(X, Y), f(Y, Z): a batch that changes both body
        // relations, plus one relation the body does not read.
        let rule = PreparedRule::new(
            GlavRule::new(
                "j",
                vec![Atom::new("path", vec![v(0), v(2)])],
                CqBody::new(
                    vec![Atom::new("e", vec![v(0), v(1)]), Atom::new("f", vec![v(1), v(2)])],
                    vec![],
                ),
                vec!["X".into(), "Y".into(), "Z".into()],
            )
            .unwrap(),
        );
        let mut inst = Instance::new();
        for name in ["e", "f", "g"] {
            inst.add_relation(RelationSchema::with_types(name, &[ValueType::Int, ValueType::Int]));
        }
        inst.insert("e", tup![1, 2]).unwrap();
        inst.insert("f", tup![2, 9]).unwrap();
        let before = rule.fire(&inst).unwrap();
        let then: Vec<(&str, Version)> =
            ["e", "f", "g"].map(|rel| (rel, inst.get(rel).unwrap().version())).to_vec();
        let batch = [
            ("e", tup![5, 6]),
            ("e", tup![0, 2]),
            ("f", tup![6, 7]),
            ("f", tup![2, 3]),
            ("g", tup![1, 1]),
        ];
        for (rel, t) in batch {
            inst.insert(rel, t).unwrap();
        }
        // (5, 7) joins a new e with a new f: derived under both, kept once.
        let fresh: Vec<RuleFiring> =
            rule.fire(&inst).unwrap().into_iter().filter(|f| !before.contains(f)).collect();
        let since = |inst: &Instance, versions: &[(&str, Version)]| {
            rule.fire_since(inst, versions.iter().copied()).unwrap()
        };
        assert_eq!(since(&inst, &then), Some(fresh.clone()));
        assert_eq!(fresh.len(), 4, "(0, 3), (0, 9), (1, 3), (5, 7)");
        assert_eq!(since(&inst, &[]), Some(Vec::new()));
        let now = then.iter().map(|&(rel, _)| (rel, inst.get(rel).unwrap().version()));
        assert_eq!(since(&inst, &now.collect::<Vec<_>>()), Some(Vec::new()));
        // A clone is a lineage of its own; a relation it lacks answers for
        // nothing.
        assert_eq!(since(&inst.clone(), &then), None);
        let mut missing = then.clone();
        missing[2].0 = "h";
        assert_eq!(since(&inst, &missing), None);

        // reach(X, Z) <- e(X, Y), e(Y, Z): two atoms over one relation,
        // named twice, fired once.
        let self_join = PreparedRule::new(
            GlavRule::new(
                "s",
                vec![Atom::new("path", vec![v(0), v(2)])],
                CqBody::new(
                    vec![Atom::new("e", vec![v(0), v(1)]), Atom::new("e", vec![v(1), v(2)])],
                    vec![],
                ),
                vec!["X".into(), "Y".into(), "Z".into()],
            )
            .unwrap(),
        );
        let before = self_join.fire(&inst).unwrap();
        let e = inst.get("e").unwrap().version();
        for t in [tup![2, 5], tup![6, 0], tup![3, 3]] {
            inst.insert("e", t).unwrap();
        }
        let fresh: Vec<RuleFiring> =
            self_join.fire(&inst).unwrap().into_iter().filter(|f| !before.contains(f)).collect();
        assert_eq!(fresh.len(), 6, "(0, 5), (1, 5), (2, 6), (3, 3), (5, 0), (6, 2)");
        let once = self_join.fire_since(&inst, [("e", e)].into_iter()).unwrap();
        let twice = self_join.fire_since(&inst, [("e", e), ("e", e)].into_iter()).unwrap();
        assert_eq!((once, twice), (Some(fresh.clone()), Some(fresh)));
    }

    #[test]
    fn apply_firings_returns_deltas_and_dedups() {
        let mut target = Instance::new();
        target
            .add_relation(RelationSchema::with_types("person", &[ValueType::Str, ValueType::Int]));
        let firings = gav_rule().fire(&src()).unwrap();
        let mut nulls = NullFactory::new(2);
        let d1 = apply_firings(&mut target, &firings, &mut nulls).unwrap();
        assert_eq!(gained(&target, &d1)["person"].len(), 1);
        // Re-applying the same ground firing adds nothing.
        let d2 = apply_firings(&mut target, &firings, &mut nulls).unwrap();
        assert!(d2.is_empty());
    }

    #[test]
    fn a_new_tuple_is_one_allocation_shared_by_the_relation_and_the_delta() {
        let mut target = Instance::new();
        target
            .add_relation(RelationSchema::with_types("person", &[ValueType::Str, ValueType::Str]));
        target.add_relation(RelationSchema::with_types("dept", &[ValueType::Str]));
        target.insert("person", tup!["zed", "x"]).unwrap();
        let firings = glav_rule().fire(&src()).unwrap();
        let grown = apply_firings(&mut target, &firings, &mut NullFactory::new(1)).unwrap();
        // In the order of each relation's first new tuple, the log before
        // the batch excluded: the delta is the relation's own tuples.
        let names: Vec<&str> = grown.iter().map(|(rel, _)| &**rel).collect();
        assert_eq!(names, ["person", "dept"]);
        let deltas = gained(&target, &grown);
        assert_eq!(deltas["person"].len() + deltas["dept"].len(), 4);
        for (person, dept) in deltas["person"].iter().zip(&deltas["dept"]) {
            assert!(person[0] == Value::str("alice") || person[0] == Value::str("bob"));
            assert_eq!(person[1], dept[0]);
        }
        assert_eq!(target.tuple_count(), 5);
    }

    #[test]
    fn a_firing_set_finds_an_equal_firing_from_another_allocation() {
        use crate::binenc::{put_firing, take_firing, Reader};
        let fired = glav_rule().fire(&src()).unwrap();
        let set: FiringSet = fired.iter().cloned().collect();
        assert_eq!(set.len(), 2);
        for firing in &fired {
            // As recovery meets it: decoded from a WAL record.
            let mut bytes = Vec::new();
            put_firing(&mut bytes, firing);
            let decoded = take_firing(&mut Reader::new(&bytes)).unwrap();
            assert!(!decoded.ptr_eq(firing));
            assert!(set.contains(&decoded), "{decoded:?}");
        }
        assert!(!set.contains(&RuleFiring::new([("dept", vec![TField::Fresh(2)])])));
    }

    #[test]
    fn prehashed_passes_one_hash_through_and_folds_whatever_else_it_is_given() {
        let mut one = Prehashed::default();
        one.write_u64(0xC0DB_2004);
        assert_eq!(one.finish(), 0xC0DB_2004);
        // Total: bytes of any length hash, equal ones equally.
        let hash = |bytes: &[u8]| {
            let mut h = Prehashed::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"thirteen bytes"), hash(b"thirteen bytes"));
        assert_ne!(hash(b"thirteen bytes"), hash(b"thirteen bytez"));
        assert_eq!(hash(&[]), 0);
        // A key that is not a firing (a `str` writes bytes, then a `u8`).
        let names: HashSet<&str, BuildHasherDefault<Prehashed>> = ["e", "f"].into_iter().collect();
        assert!(names.contains("e") && !names.contains("g"));
    }

    #[test]
    fn apply_firings_unknown_relation_errors() {
        let mut target = Instance::new();
        let firings = gav_rule().fire(&src()).unwrap();
        let mut nulls = NullFactory::new(2);
        assert!(apply_firings(&mut target, &firings, &mut nulls).is_err());
    }

    #[test]
    fn display_round_trips_shape() {
        let s = gav_rule().to_string();
        assert_eq!(s, "rule r1: person(N, A) <- emp(N, A), A >= 18");
        let s2 = glav_rule().to_string();
        assert_eq!(s2, "rule r2: person(N, D), dept(D) <- emp(N, A)");
    }

    #[test]
    fn head_and_body_relations() {
        let r = glav_rule();
        assert_eq!(r.head_relations(), ["person", "dept"].into_iter().collect());
        assert_eq!(r.body_relations(), ["emp"].into_iter().collect());
    }

    #[test]
    fn unsafe_body_comparison_rejected() {
        let bad = GlavRule::new(
            "bad",
            vec![Atom::new("t", vec![v(0)])],
            CqBody::new(
                vec![Atom::new("emp", vec![v(0), v(1)])],
                vec![Comparison::new(Var(5), CmpOp::Eq, Value::Int(1))],
            ),
            vec!["N".into(), "A".into()],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn firing_size_accounts_fields() {
        // person("alice", D), dept(D): a constant and a placeholder.
        let sized = glav_rule().fire(&src()).unwrap().remove(0);
        assert_eq!(
            sized.atoms(),
            [
                (Arc::from("person"), vec![TField::Const(Value::str("alice")), TField::Fresh(2)]),
                (Arc::from("dept"), vec![TField::Fresh(2)]),
            ]
        );
        // Σ over atoms of (len(rel) + 2 + Σ field sizes), `Fresh` 4.
        let formula = ("person".len() + 2 + ("alice".len() + 4) + 4) + ("dept".len() + 2 + 4);
        assert_eq!(sized.size_bytes(), formula);
        assert_eq!(formula, 31);
        // An equal firing hashed first sizes the same.
        let hashed = glav_rule().fire(&src()).unwrap().remove(0);
        BuildHasherDefault::<Prehashed>::default().hash_one(&hashed);
        assert_eq!(hashed.size_bytes(), formula);
        assert_eq!(sized.size_bytes(), formula);
    }

    #[test]
    fn a_ground_one_atom_firing_hashes_as_the_tuple_it_files() {
        use crate::binenc::{put_firing, take_firing, Reader};
        let sets = BuildHasherDefault::<Prehashed>::default();
        let values = [
            Value::Int(-3),
            Value::str(""),
            Value::str("naïve ☃"),
            Value::Bool(true),
            Value::Null(NullId::new(4, 2)),
        ];
        let firing = RuleFiring::new([("r", values.iter().cloned().map(TField::Const).collect())]);
        let tuple: Tuple = values.iter().cloned().collect();
        assert_eq!(sets.hash_one(&firing), tuple.content_hash());

        // Decoded, as recovery meets it: another allocation, the same hash.
        let mut bytes = Vec::new();
        put_firing(&mut bytes, &firing);
        let decoded = take_firing(&mut Reader::new(&bytes)).unwrap();
        assert!(!decoded.ptr_eq(&firing));
        assert_eq!(sets.hash_one(&decoded), tuple.content_hash());

        // Filed under that hash, and found by a tuple built afresh.
        let mut target = Instance::new();
        let types =
            [ValueType::Int, ValueType::Str, ValueType::Str, ValueType::Bool, ValueType::Int];
        target.add_relation(RelationSchema::with_types("r", &types));
        apply_firings(&mut target, &[decoded], &mut NullFactory::new(1)).unwrap();
        assert!(target.get("r").unwrap().contains(&tuple));

        // A template is not the firing its placeholder instantiates to.
        let template =
            RuleFiring::new([("r", vec![TField::Const(Value::Int(1)), TField::Fresh(0)])]);
        let null = TField::Const(Value::Null(NullId::new(0, 0)));
        let instance = RuleFiring::new([("r", vec![TField::Const(Value::Int(1)), null])]);
        assert_ne!(sets.hash_one(&template), sets.hash_one(&instance));
    }

    #[test]
    fn the_field_encoding_is_prefix_free() {
        use crate::tuple::fed;
        let tuple = |t: &Tuple| fed(|feed| t.values().for_each(|v| feed.value(v)));
        assert_ne!(tuple(&tup!["ab", ""]), tuple(&tup!["a", "b"]));
        // The same bits under every tag, and no field's bytes a prefix of
        // another's.
        let fields = [
            TField::Const(Value::Int(1)),
            TField::Const(Value::Bool(true)),
            TField::Const(Value::Null(NullId::new(1, 0))),
            TField::Const(Value::Null(NullId::new(0, 1))),
            TField::Fresh(1),
            TField::Const(Value::str("")),
            TField::Const(Value::str("\u{1}")),
        ];
        let atoms = |atoms: &[HeadAtom]| {
            fed(|feed| {
                summarise(atoms, feed);
            })
        };
        let one = |field: &TField| atoms(&[("r".into(), vec![field.clone()])]);
        let streams: Vec<Vec<u8>> = fields.iter().map(one).collect();
        for (i, a) in streams.iter().enumerate() {
            for (j, b) in streams.iter().enumerate() {
                assert!(
                    i == j || !b.starts_with(a),
                    "{:?} is a prefix of {:?}",
                    fields[i],
                    fields[j]
                );
            }
        }
        // One atom against two, over the same fields; the names are not fed.
        let int = |i| TField::Const(Value::Int(i));
        let whole = atoms(&[("r".into(), vec![int(1), int(2)])]);
        let split = atoms(&[("r".into(), vec![int(1)]), ("r".into(), vec![int(2)])]);
        assert_ne!(whole, split);
        assert_eq!(whole, atoms(&[("s".into(), vec![int(1), int(2)])]));
        // Past the 64-byte buffer, bytes stream through unchanged.
        let long = Value::str("x".repeat(200));
        let stream = fed(|feed| (0..3).for_each(|_| feed.value(&long)));
        assert_eq!(stream.len(), 3 * (1 + 8 + 200));
        assert_eq!(stream[..209], stream[209..418]);
    }

    #[test]
    fn a_one_atom_head_is_held_inline_and_compares_as_its_slice() {
        let one = RuleFiring::new([("r", vec![TField::Fresh(0)])]);
        let two = RuleFiring::new([("r", vec![TField::Fresh(0)]), ("s", vec![])]);
        assert!(matches!(one.0.head, Head::One(_)) && matches!(two.0.head, Head::Many(_)));
        assert!(one < two && one != two);
        assert_eq!(format!("{one:?}"), r#"RuleFiring { atoms: [("r", [Fresh(0)])] }"#);
    }
}
