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

    /// True iff every body variable occurs in the head: the rule projects
    /// no body variable away, so a firing names the one body answer it
    /// came from. (Not "full": a full tgd is one with no existentials.)
    pub fn is_projection_free(&self) -> bool {
        let head: BTreeSet<Var> = self.head.iter().flat_map(Atom::vars).collect();
        self.body.atom_vars().is_subset(&head)
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

    /// How each head atom gets its fields, in head order: decided by the
    /// rule alone, so that every firing of the rule holds the same shape
    /// at each head position.
    fn head_shapes(&self) -> Vec<Shape> {
        let bound = self.body.atom_vars();
        let copied = match self.body.atoms.as_slice() {
            [only] => Some(&only.terms),
            _ => None,
        };
        self.head
            .iter()
            .map(|atom| {
                if copied == Some(&atom.terms) {
                    Shape::Copy
                } else if atom.vars().is_subset(&bound) {
                    Shape::Ground
                } else {
                    Shape::Template
                }
            })
            .collect()
    }

    /// Executes the rule body against `source` and returns one firing per
    /// (deduplicated) body answer.
    pub fn fire(&self, source: &Instance) -> Result<Vec<RuleFiring>, EvalError> {
        self.fire_as(&self.head_names(), &self.head_shapes(), source)
    }

    fn fire_as(
        &self,
        names: &[Arc<str>],
        shapes: &[Shape],
        source: &Instance,
    ) -> Result<Vec<RuleFiring>, EvalError> {
        self.firings_of(names, shapes, |out| for_each_answer(&self.body, source, out))
    }

    /// Semi-naive variant: only firings whose derivation uses a tuple of
    /// `delta` in relation `delta_relation`.
    pub fn fire_delta(
        &self,
        source: &Instance,
        delta_relation: &str,
        delta: &[Tuple],
    ) -> Result<Vec<RuleFiring>, EvalError> {
        self.firings_of(&self.head_names(), &self.head_shapes(), |out| {
            for_each_delta_answer(&self.body, source, delta_relation, delta, out)
        })
    }

    /// One firing per distinct head instance among the body answers
    /// `answers` streams, sorted, its atoms named by `names` (this rule's
    /// [`GlavRule::head_names`]) and built as `shapes` (its
    /// [`GlavRule::head_shapes`]) says. A head variable the body leaves
    /// unbound is existential: the evaluator binds exactly the variables of
    /// the body's atoms.
    fn firings_of(
        &self,
        names: &[Arc<str>],
        shapes: &[Shape],
        answers: impl FnOnce(&mut dyn FnMut(&Bindings, Option<&Tuple>)) -> Result<(), EvalError>,
    ) -> Result<Vec<RuleFiring>, EvalError> {
        let mut instances: Vec<Head> = Vec::new();
        answers(&mut |b, matched| {
            let instance = self.head.iter().zip(names).zip(shapes).map(|((atom, name), shape)| {
                let fields = match (shape, matched) {
                    (Shape::Copy, Some(tuple)) => Fields::Ground(tuple.clone()),
                    (Shape::Copy | Shape::Ground, _) => Fields::Ground(
                        atom.terms
                            .iter()
                            .map(|t| match t {
                                Term::Const(c) => c.clone(),
                                Term::Var(v) => b[v.0 as usize].clone().expect("a body variable"),
                            })
                            .collect(),
                    ),
                    (Shape::Template, _) => Fields::Template(
                        atom.terms
                            .iter()
                            .map(|t| match t {
                                Term::Const(c) => TField::Const(c.clone()),
                                Term::Var(v) => match b.get(v.0 as usize) {
                                    Some(Some(bound)) => TField::Const(bound.clone()),
                                    _ => TField::Fresh(v.0),
                                },
                            })
                            .collect(),
                    ),
                };
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
                                    FieldRef::Const(v) => {
                                        v.value_type().is_none_or(|ty| ty == column.ty)
                                    }
                                    FieldRef::Fresh(id) => {
                                        *term == Term::Var(Var(id)) && existential(Var(id))
                                    }
                                },
                            )
                    },
                )
        })
    }
}

/// How a head atom gets its fields from a body answer, taken from the
/// rule once ([`GlavRule::head_shapes`]), never from an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// The body's one atom, term for term: the atom is the tuple that
    /// atom matched, shared.
    Copy,
    /// No existential variable: the fields are collected into the tuple
    /// the atom files.
    Ground,
    /// An existential variable: a template, whose placeholders the target
    /// fills with fresh nulls.
    Template,
}

/// A [`GlavRule`] a node fires again and again — once per update, then
/// once per delta that reaches it — with what every firing of it shares
/// made once: the head's relation names, the shape of each head atom and
/// the rule's shape. The pairing is the type's whole job: names made for
/// one rule must not label another's firings.
#[derive(Clone, Debug)]
pub struct PreparedRule {
    rule: GlavRule,
    head_names: Vec<Arc<str>>,
    head_shapes: Vec<Shape>,
    projection_free: bool,
}

impl PreparedRule {
    /// Prepares `rule`.
    pub fn new(rule: GlavRule) -> Self {
        let head_names = rule.head_names();
        let head_shapes = rule.head_shapes();
        let projection_free = rule.is_projection_free();
        PreparedRule { rule, head_names, head_shapes, projection_free }
    }

    /// The rule.
    pub fn rule(&self) -> &GlavRule {
        &self.rule
    }

    /// [`GlavRule::is_projection_free`], taken once: where it holds, two
    /// body answers never make one firing, so [`PreparedRule::fire_since`]
    /// over successive suffixes yields each firing once.
    pub fn projection_free(&self) -> bool {
        self.projection_free
    }

    /// The head's relation names, in head order.
    pub fn head_names(&self) -> &[Arc<str>] {
        &self.head_names
    }

    /// [`GlavRule::fire`].
    pub fn fire(&self, source: &Instance) -> Result<Vec<RuleFiring>, EvalError> {
        self.rule.fire_as(&self.head_names, &self.head_shapes, source)
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
        let fired = self.rule.firings_of(&self.head_names, &self.head_shapes, |out| {
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

/// One field of a head atom, borrowed from the firing: what a [`TField`]
/// says, whichever way the atom holds its fields. Ordered as `TField`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FieldRef<'a> {
    /// A ground value.
    Const(&'a Value),
    /// An existential placeholder.
    Fresh(u32),
}

impl<'a> From<&'a TField> for FieldRef<'a> {
    fn from(field: &'a TField) -> Self {
        match field {
            TField::Const(v) => FieldRef::Const(v),
            TField::Fresh(id) => FieldRef::Fresh(*id),
        }
    }
}

impl From<FieldRef<'_>> for TField {
    fn from(field: FieldRef<'_>) -> Self {
        match field {
            FieldRef::Const(v) => TField::Const(v.clone()),
            FieldRef::Fresh(id) => TField::Fresh(id),
        }
    }
}

/// A head atom's fields as a firing holds them. An atom with no
/// placeholder *is* the tuple it files — the relation that files it, and
/// the next hop's firing where a copy rule repeats it, share the one
/// allocation —; an atom with one is a template, filled in at the target.
/// Ground iff no placeholder: [`RuleFiring::new`] turns an all-`Const`
/// vector into `Ground`, and a rule's firings hold one shape at each head
/// position.
///
/// Equality and order are those of the field sequence — a `Vec<TField>`'s
/// —, whichever the variants.
#[derive(Clone)]
pub enum Fields {
    /// No placeholder: the tuple the atom files.
    Ground(Tuple),
    /// At least one placeholder.
    Template(Vec<TField>),
}

impl Fields {
    /// Number of fields.
    pub(crate) fn len(&self) -> usize {
        match self {
            Fields::Ground(tuple) => tuple.arity(),
            Fields::Template(fields) => fields.len(),
        }
    }

    /// The fields, in order.
    pub fn iter(&self) -> impl Iterator<Item = FieldRef<'_>> + Clone {
        let (ground, template): (&[Value], &[TField]) = match self {
            Fields::Ground(tuple) => (tuple.as_slice(), &[]),
            Fields::Template(fields) => (&[], fields),
        };
        ground.iter().map(FieldRef::Const).chain(template.iter().map(FieldRef::from))
    }
}

impl From<Vec<TField>> for Fields {
    fn from(fields: Vec<TField>) -> Self {
        if fields.iter().any(|f| matches!(f, TField::Fresh(_))) {
            return Fields::Template(fields);
        }
        Fields::Ground(
            fields
                .into_iter()
                .map(|f| match f {
                    TField::Const(v) => v,
                    TField::Fresh(_) => unreachable!("no placeholder"),
                })
                .collect(),
        )
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Fields::Ground(a), Fields::Ground(b)) => a == b,
            (Fields::Template(a), Fields::Template(b)) => a == b,
            _ => self.iter().eq(other.iter()),
        }
    }
}

impl Eq for Fields {}

impl PartialOrd for Fields {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Two atoms of one shape compare as what they hold — the firing sort and
/// the chase oracle's ordered sets run this —; only a mixed pair walks the
/// fields.
impl Ord for Fields {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Fields::Ground(a), Fields::Ground(b)) => a.as_slice().cmp(b.as_slice()),
            (Fields::Template(a), Fields::Template(b)) => a.cmp(b),
            _ => self.iter().cmp(other.iter()),
        }
    }
}

/// As the `Vec<TField>` of the same fields prints.
impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// As the `Vec<TField>` of the same fields serialises.
impl Serialize for Fields {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.iter().map(|f| TField::from(f).to_value()).collect())
    }
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
type HeadAtom = (Arc<str>, Fields);

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
        for field in fields.iter() {
            size += match field {
                FieldRef::Const(v) => {
                    feed.value(v);
                    v.size_bytes()
                }
                FieldRef::Fresh(id) => {
                    feed.fresh(id);
                    4
                }
            };
        }
    }
    size
}

impl RuleFiring {
    /// A firing of `(relation, fields)` per head atom, in rule head order;
    /// an atom with no placeholder is held as its tuple.
    pub fn new<S: Into<Arc<str>>>(atoms: impl IntoIterator<Item = (S, Vec<TField>)>) -> Self {
        Self::from_head(Head::new(
            atoms.into_iter().map(|(rel, fields)| (rel.into(), Fields::from(fields))),
        ))
    }

    fn from_head(head: Head) -> Self {
        RuleFiring(Arc::new(FiringData { head, summary: OnceLock::new() }))
    }

    /// `(relation, fields)` per head atom, in rule head order.
    pub fn atoms(&self) -> &[(Arc<str>, Fields)] {
        self.0.head.as_slice()
    }

    /// True iff both handles are the same allocation (equal firings built
    /// separately are `==` but not `ptr_eq`).
    pub fn ptr_eq(&self, other: &RuleFiring) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// True iff the firing carries no existential placeholder.
    pub fn is_ground(&self) -> bool {
        self.atoms().iter().all(|(_, fields)| matches!(fields, Fields::Ground(_)))
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
    let mut invented: Vec<(u32, NullId)> = Vec::new();
    for firing in firings {
        file_firing(target, firing, nulls, &mut invented, &mut grown)?;
    }
    Ok(grown)
}

/// [`apply_firings`], keeping in `firings`, in order, only those that
/// filed a tuple: a ground firing whose every tuple `target` held already
/// is dropped, in the probe that files it, so the test builds no tuple of
/// its own — the probe is the firing's own tuple, by handle. (A firing
/// with a placeholder always files one: its null is fresh.) On an error
/// `firings` is left holding what was filed before.
pub fn apply_new_firings(
    target: &mut Instance,
    firings: &mut Vec<RuleFiring>,
    nulls: &mut NullFactory,
) -> Result<Vec<(Arc<str>, Version)>, crate::schema::SchemaError> {
    let mut grown: Vec<(Arc<str>, Version)> = Vec::new();
    let mut invented: Vec<(u32, NullId)> = Vec::new();
    let mut failed = None;
    firings.retain(|firing| {
        failed.is_none()
            && file_firing(target, firing, nulls, &mut invented, &mut grown).unwrap_or_else(|e| {
                failed = Some(e);
                false
            })
    });
    failed.map_or(Ok(grown), Err)
}

/// Files the tuples of one firing in `target` — `invented` is scratch for
/// the firing's placeholders, `grown` [`apply_firings`]' report — and says
/// whether any was new. A ground atom files the tuple it holds, by handle;
/// only a template's tuple is built here, its nulls being fresh.
fn file_firing(
    target: &mut Instance,
    firing: &RuleFiring,
    nulls: &mut NullFactory,
    invented: &mut Vec<(u32, NullId)>,
    grown: &mut Vec<(Arc<str>, Version)>,
) -> Result<bool, crate::schema::SchemaError> {
    invented.clear();
    let mut filed = false;
    for (rel, fields) in firing.atoms() {
        let tuple = match fields {
            Fields::Ground(tuple) => tuple.clone(),
            Fields::Template(fields) => fields
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
                .collect(),
        };
        let relation = target.get_mut(rel).ok_or_else(|| {
            crate::schema::SchemaError::UnknownRelation { relation: rel.to_string() }
        })?;
        let before = relation.version();
        // A ground one-atom firing hashes as the tuple it holds: the hash
        // it carries files it.
        let hash = if firing.atoms().len() == 1 && invented.is_empty() {
            firing.content_hash()
        } else {
            tuple.content_hash()
        };
        if relation.insert_hashed(tuple, hash)? {
            filed = true;
            if !grown.iter().any(|(seen, _)| seen == rel) {
                grown.push((Arc::clone(rel), before));
            }
        }
    }
    Ok(filed)
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

    /// An atom's fields spelled as the `Vec<TField>` they say.
    fn tfields(fields: &Fields) -> Vec<TField> {
        fields.iter().map(TField::from).collect()
    }

    /// A firing spelled as the plain `(relation, Vec<TField>)` list it says.
    fn spelled(firing: &RuleFiring) -> Vec<(String, Vec<TField>)> {
        firing.atoms().iter().map(|(rel, fields)| (rel.to_string(), tfields(fields))).collect()
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

    /// Projection-free is about the body's variables, not the head's: an
    /// existential head can keep every body variable, and a GAV head can
    /// drop one.
    #[test]
    fn a_projection_free_rule_keeps_every_body_variable_in_its_head() {
        assert!(gav_rule().is_projection_free());
        assert!(!glav_rule().is_projection_free(), "A is projected away");
        let keeps_all = GlavRule::new(
            "r3",
            vec![Atom::new("person", vec![v(0), v(1)]), Atom::new("dept", vec![v(2)])],
            CqBody::new(vec![Atom::new("emp", vec![v(0), v(1)])], vec![]),
            vec!["N".into(), "A".into(), "D".into()],
        )
        .unwrap();
        assert!(keeps_all.has_existentials() && keeps_all.is_projection_free());
        let prepared = [gav_rule(), glav_rule(), keeps_all].map(PreparedRule::new);
        assert_eq!(prepared.map(|rule| rule.projection_free()), [true, false, true]);
    }

    #[test]
    fn fire_gav_produces_ground_firings() {
        let firings = gav_rule().fire(&src()).unwrap();
        assert_eq!(firings.len(), 1); // bob filtered by comparison
        assert!(firings[0].is_ground());
        assert_eq!(
            tfields(&firings[0].atoms()[0].1),
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
            assert_eq!(tfields(person_fields)[1], TField::Fresh(2));
            assert_eq!(tfields(dept_fields)[0], TField::Fresh(2));
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
            let fired: Vec<Vec<(String, Vec<TField>)>> =
                rule.fire(&inst).unwrap().iter().map(spelled).collect();
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
        assert_eq!(tfields(&firings[0].atoms()[0].1)[0], TField::Const(Value::str("carol")));
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

    /// What filed nothing is dropped in the probe that files: a ground
    /// firing `target` held, or a repeat within the batch. A firing with a
    /// placeholder always files, under a fresh null.
    #[test]
    fn apply_new_firings_keeps_the_firings_that_filed_a_tuple() {
        let mut target = Instance::new();
        target
            .add_relation(RelationSchema::with_types("person", &[ValueType::Str, ValueType::Int]));
        target.insert("person", tup!["bob", 17]).unwrap();
        let person = |fields| RuleFiring::new([("person", fields)]);
        let (alice, bob) = (
            person(vec![TField::Const(Value::str("alice")), TField::Const(Value::Int(30))]),
            person(vec![TField::Const(Value::str("bob")), TField::Const(Value::Int(17))]),
        );
        let carol = person(vec![TField::Const(Value::str("carol")), TField::Fresh(1)]);
        let mut nulls = NullFactory::new(2);
        let mut batch = vec![bob.clone(), alice.clone(), carol.clone(), alice.clone()];
        let grown = apply_new_firings(&mut target, &mut batch, &mut nulls).unwrap();
        assert_eq!(batch, [alice.clone(), carol.clone()]);
        assert_eq!(gained(&target, &grown)["person"].len(), 2);
        let mut again = vec![alice, bob, carol.clone()];
        apply_new_firings(&mut target, &mut again, &mut nulls).unwrap();
        assert_eq!((again, nulls.invented()), (vec![carol], 2));
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
            spelled(&sized),
            [
                ("person".to_owned(), vec![TField::Const(Value::str("alice")), TField::Fresh(2)]),
                ("dept".to_owned(), vec![TField::Fresh(2)]),
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
        let atoms = |atoms: &[(&str, Vec<TField>)]| {
            let atoms: Vec<HeadAtom> =
                atoms.iter().map(|(rel, fields)| ((*rel).into(), fields.clone().into())).collect();
            fed(|feed| {
                summarise(&atoms, feed);
            })
        };
        let one = |field: &TField| atoms(&[("r", vec![field.clone()])]);
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
        let whole = atoms(&[("r", vec![int(1), int(2)])]);
        let split = atoms(&[("r", vec![int(1)]), ("r", vec![int(2)])]);
        assert_ne!(whole, split);
        assert_eq!(whole, atoms(&[("s", vec![int(1), int(2)])]));
        // Past the 64-byte buffer, bytes stream through unchanged.
        let long = Value::str("x".repeat(200));
        let stream = fed(|feed| (0..3).for_each(|_| feed.value(&long)));
        assert_eq!(stream.len(), 3 * (1 + 8 + 200));
        assert_eq!(stream[..209], stream[209..418]);
    }

    /// The one tuple `rel` of `inst` holds equal to `t`.
    fn held<'a>(inst: &'a Instance, rel: &str, t: &Tuple) -> &'a Tuple {
        inst.get(rel).unwrap().iter().find(|held| *held == t).expect("held")
    }

    /// `(name, arity)` relations of ints.
    fn ints(relations: &[(&str, usize)]) -> Instance {
        let mut inst = Instance::new();
        for &(name, arity) in relations {
            inst.add_relation(RelationSchema::with_types(name, &vec![ValueType::Int; arity]));
        }
        inst
    }

    /// A head that repeats its one body atom is the tuple the atom matched,
    /// and the relation it fills shares it too: a copy hop builds no tuple.
    #[test]
    fn a_copy_head_shares_the_tuple_its_body_matched() {
        let copy = GlavRule::new(
            "c",
            vec![Atom::new("t", vec![v(0), v(1)])],
            CqBody::new(vec![Atom::new("s", vec![v(0), v(1)])], vec![]),
            vec!["X".into(), "Y".into()],
        )
        .unwrap();
        let mut source = ints(&[("s", 2)]);
        source.insert("s", tup![1, 2]).unwrap();
        let mut target = ints(&[("t", 2)]);
        let fired = PreparedRule::new(copy).fire(&source).unwrap();
        let Fields::Ground(tuple) = &fired[0].atoms()[0].1 else { panic!("{fired:?}") };
        assert!(tuple.ptr_eq(held(&source, "s", &tup![1, 2])));
        apply_firings(&mut target, &fired, &mut NullFactory::new(1)).unwrap();
        assert!(held(&target, "t", &tup![1, 2]).ptr_eq(tuple));
    }

    /// A head that repeats the body's variables in another order is not a
    /// copy: it files its own tuple, the fields where the head puts them.
    #[test]
    fn a_swapped_head_files_its_own_tuple() {
        let swap = GlavRule::new(
            "w",
            vec![Atom::new("t", vec![v(1), v(0)])],
            CqBody::new(vec![Atom::new("s", vec![v(0), v(1)])], vec![]),
            vec!["X".into(), "Y".into()],
        )
        .unwrap();
        let mut source = ints(&[("s", 2)]);
        source.insert("s", tup![1, 2]).unwrap();
        let mut target = ints(&[("t", 2)]);
        let fired = PreparedRule::new(swap).fire(&source).unwrap();
        apply_firings(&mut target, &fired, &mut NullFactory::new(1)).unwrap();
        assert_eq!(target.get("t").unwrap().sorted(), [tup![2, 1]]);
        let filed = held(&target, "t", &tup![2, 1]);
        assert!(!filed.ptr_eq(held(&source, "s", &tup![1, 2])));
    }

    /// A join's head is built once, as the tuple the relation then holds.
    #[test]
    fn a_join_heads_firing_and_the_relation_hold_one_allocation() {
        let join = GlavRule::new(
            "j",
            vec![Atom::new("path", vec![v(0), v(2)])],
            CqBody::new(
                vec![Atom::new("e", vec![v(0), v(1)]), Atom::new("f", vec![v(1), v(2)])],
                vec![],
            ),
            vec!["X".into(), "Y".into(), "Z".into()],
        )
        .unwrap();
        let mut source = ints(&[("e", 2), ("f", 2)]);
        source.insert("e", tup![1, 2]).unwrap();
        source.insert("f", tup![2, 3]).unwrap();
        let mut target = ints(&[("path", 2)]);
        let fired = PreparedRule::new(join).fire(&source).unwrap();
        let Fields::Ground(tuple) = &fired[0].atoms()[0].1 else { panic!("{fired:?}") };
        assert_eq!(*tuple, tup![1, 3]);
        apply_firings(&mut target, &fired, &mut NullFactory::new(1)).unwrap();
        assert!(held(&target, "path", tuple).ptr_eq(tuple));
    }

    /// A template files a tuple of its own per atom, with one fresh null
    /// per placeholder of the firing, shared where an id repeats.
    #[test]
    fn a_template_files_one_fresh_null_per_placeholder() {
        let int = |i| TField::Const(Value::Int(i));
        let firing = RuleFiring::new([
            ("r", vec![TField::Fresh(0), int(7), TField::Fresh(1), TField::Fresh(0)]),
            ("s", vec![TField::Fresh(1)]),
            ("g", vec![int(7)]),
        ]);
        let shapes: Vec<bool> =
            firing.atoms().iter().map(|(_, f)| matches!(f, Fields::Ground(_))).collect();
        assert_eq!(shapes, [false, false, true]);
        let mut target = ints(&[("r", 4), ("s", 1), ("g", 1)]);
        let mut nulls = NullFactory::new(5);
        apply_firings(&mut target, &[firing.clone(), firing], &mut nulls).unwrap();
        assert_eq!(nulls.invented(), 4, "two placeholders a firing");
        let r = target.get("r").unwrap();
        let s: Vec<&Tuple> = target.get("s").unwrap().iter().collect();
        for (k, t) in r.iter().enumerate() {
            assert!(t[0].is_null() && t[2].is_null() && t[0] != t[2]);
            assert_eq!((&t[0], &t[1], &t[2]), (&t[3], &Value::Int(7), &s[k][0]));
        }
        assert_ne!(r.iter().next().unwrap()[0], r.iter().nth(1).unwrap()[0]);
        assert_eq!(target.get("g").unwrap().len(), 1);
    }

    /// A firing spelled as `Vec<TField>`s, generated: one to three atoms
    /// over two names, up to three fields from a small domain of every
    /// value type and two placeholders, so that equal prefixes, equal
    /// firings and a ground atom beside a template at one position recur.
    fn arb_spelling(x: &mut u64) -> Vec<(String, Vec<TField>)> {
        let mut next = |n: u64| {
            *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (*x >> 33) % n
        };
        let field = |k: u64| match k {
            0 | 1 => TField::Const(Value::Int(k as i64)),
            2 => TField::Const(Value::str("")),
            3 => TField::Const(Value::str("ü☃")),
            4 => TField::Const(Value::Bool(true)),
            5 => TField::Const(Value::Null(NullId::new(9, 1))),
            _ => TField::Fresh(k as u32 % 2),
        };
        let atoms = 1 + next(3);
        (0..atoms)
            .map(|_| {
                let rel = if next(4) == 0 { "s" } else { "r" };
                let arity = next(4);
                // One field in four a placeholder.
                let fields =
                    (0..arity).map(|_| field(if next(4) == 0 { 6 + next(2) } else { next(6) }));
                (rel.to_owned(), fields.collect())
            })
            .collect()
    }

    /// Whether a firing holds a ground atom as its tuple or as a template
    /// cannot be told from outside: against what the test computes itself
    /// from the `Vec<TField>` spelling — the order, equality, content hash,
    /// size, binary encoding, JSON and `Debug` of the plain atom list — and
    /// a decoded firing holds an atom as its tuple iff it has no
    /// placeholder.
    #[test]
    fn a_firing_is_its_tfield_spelling_whatever_it_holds() {
        use crate::binenc::{put_firing, put_len, put_str, put_tfield, take_firing, Reader};
        let sets = BuildHasherDefault::<Prehashed>::default();
        let mut x = 42;
        let spellings: Vec<Vec<(String, Vec<TField>)>> =
            (0..300).map(|_| arb_spelling(&mut x)).collect();
        let firings: Vec<RuleFiring> = spellings.iter().cloned().map(RuleFiring::new).collect();
        let (mut grounds, mut templates) = (0, 0);
        for (spelling, firing) in spellings.iter().zip(&firings) {
            let mut feed = Feed::new();
            let mut size = 0;
            let mut bytes = Vec::new();
            put_len(&mut bytes, spelling.len());
            for (i, (rel, fields)) in spelling.iter().enumerate() {
                if i > 0 {
                    feed.separator();
                }
                size += rel.len() + 2;
                put_str(&mut bytes, rel);
                put_len(&mut bytes, fields.len());
                for field in fields {
                    put_tfield(&mut bytes, field);
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
            assert_eq!(sets.hash_one(firing), feed.end().finish(), "{spelling:?}");
            assert_eq!(firing.size_bytes(), size, "{spelling:?}");
            let mut encoded = Vec::new();
            put_firing(&mut encoded, firing);
            assert_eq!(encoded, bytes, "{spelling:?}");
            let json =
                serde::Value::Object(BTreeMap::from([("atoms".to_owned(), spelling.to_value())]));
            assert_eq!(firing.to_value(), json, "{spelling:?}");
            assert_eq!(RuleFiring::from_value(&json).unwrap(), *firing);
            let plain: Vec<(&str, &Vec<TField>)> =
                spelling.iter().map(|(rel, fields)| (rel.as_str(), fields)).collect();
            assert_eq!(format!("{firing:?}"), format!("RuleFiring {{ atoms: {plain:?} }}"));
            let decoded = take_firing(&mut Reader::new(&encoded)).unwrap();
            assert!(decoded == *firing && !decoded.ptr_eq(firing), "{spelling:?}");
            for ((_, fields), (_, spelled)) in decoded.atoms().iter().zip(spelling) {
                let ground = spelled.iter().all(|f| matches!(f, TField::Const(_)));
                assert_eq!(matches!(fields, Fields::Ground(_)), ground, "{spelling:?}");
                (grounds, templates) =
                    if ground { (grounds + 1, templates) } else { (grounds, templates + 1) };
            }
            assert_eq!(
                decoded.is_ground(),
                spelling.iter().all(|(_, f)| f.iter().all(|f| matches!(f, TField::Const(_))))
            );
        }
        assert!(grounds > 100 && templates > 100, "{grounds} ground atoms, {templates} templates");
        let mut mixed = 0;
        for (a, sa) in firings.iter().zip(&spellings) {
            for (b, sb) in firings.iter().zip(&spellings) {
                assert_eq!(a.cmp(b), sa.cmp(sb), "{sa:?} against {sb:?}");
                assert_eq!(a == b, sa == sb, "{sa:?} against {sb:?}");
                let shapes = |f: &RuleFiring| {
                    f.atoms()
                        .iter()
                        .map(|(_, f)| matches!(f, Fields::Ground(_)))
                        .collect::<Vec<_>>()
                };
                mixed += usize::from(shapes(a) != shapes(b) && sa[0].1.len() == sb[0].1.len());
            }
        }
        assert!(mixed > 1000, "{mixed} pairs of firings of mixed shape");
        assert!(
            firings.iter().zip(&spellings).any(|(a, sa)| {
                firings.iter().zip(&spellings).any(|(b, sb)| !a.ptr_eq(b) && sa == sb)
            }),
            "equal firings of separate allocations"
        );
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
