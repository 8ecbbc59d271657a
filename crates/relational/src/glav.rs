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

use crate::cq::{Atom, CqBody, CqError, Term, Var};
use crate::eval::{evaluate_body, evaluate_body_delta, Bindings, EvalError};
use crate::instance::Instance;
use crate::tuple::Tuple;
use crate::value::{NullFactory, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

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

    /// Executes the rule body against `source` and returns one firing per
    /// (deduplicated) body answer.
    pub fn fire(&self, source: &Instance) -> Result<Vec<RuleFiring>, EvalError> {
        let bindings = evaluate_body(&self.body, source)?;
        Ok(self.firings_from(bindings))
    }

    /// Semi-naive variant: only firings whose derivation uses a tuple of
    /// `delta` in relation `delta_relation`.
    pub fn fire_delta(
        &self,
        source: &Instance,
        delta_relation: &str,
        delta: &[Tuple],
    ) -> Result<Vec<RuleFiring>, EvalError> {
        let bindings = evaluate_body_delta(&self.body, source, delta_relation, delta)?;
        Ok(self.firings_from(bindings))
    }

    fn firings_from(&self, bindings: Vec<Bindings>) -> Vec<RuleFiring> {
        let existentials = self.existential_vars();
        let mut set: BTreeSet<RuleFiring> = BTreeSet::new();
        for b in bindings {
            let atoms = self
                .head
                .iter()
                .map(|atom| {
                    let fields = atom
                        .terms
                        .iter()
                        .map(|t| match t {
                            Term::Const(c) => TField::Const(c.clone()),
                            Term::Var(v) if existentials.contains(v) => TField::Fresh(v.0),
                            Term::Var(v) => TField::Const(
                                b[v.0 as usize].clone().expect("body var bound by evaluation"),
                            ),
                        })
                        .collect();
                    (atom.relation.clone(), fields)
                })
                .collect();
            set.insert(RuleFiring { atoms });
        }
        set.into_iter().collect()
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
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RuleFiring {
    /// `(relation, fields)` per head atom, in rule head order.
    pub atoms: Vec<(String, Vec<TField>)>,
}

impl RuleFiring {
    /// Instantiates the firing at the target: each distinct placeholder gets
    /// one fresh marked null. Returns `(relation, tuple)` pairs.
    pub fn instantiate(&self, nulls: &mut NullFactory) -> Vec<(String, Tuple)> {
        let mut invented: BTreeMap<u32, Value> = BTreeMap::new();
        self.atoms
            .iter()
            .map(|(rel, fields)| {
                let values = fields
                    .iter()
                    .map(|f| match f {
                        TField::Const(v) => v.clone(),
                        TField::Fresh(id) => invented
                            .entry(*id)
                            .or_insert_with(|| Value::Null(nulls.fresh()))
                            .clone(),
                    })
                    .collect::<Vec<_>>();
                (rel.clone(), Tuple::new(values))
            })
            .collect()
    }

    /// True iff the firing carries no existential placeholder.
    pub fn is_ground(&self) -> bool {
        self.atoms.iter().all(|(_, fs)| fs.iter().all(|f| matches!(f, TField::Const(_))))
    }

    /// Approximate wire size in bytes (statistics accounting).
    pub fn size_bytes(&self) -> usize {
        self.atoms
            .iter()
            .map(|(rel, fs)| {
                rel.len()
                    + 2
                    + fs.iter()
                        .map(|f| match f {
                            TField::Const(v) => v.size_bytes(),
                            TField::Fresh(_) => 4,
                        })
                        .sum::<usize>()
            })
            .sum()
    }
}

/// Applies a batch of firings to `target`: instantiates each firing (fresh
/// nulls from `nulls`), inserts the resulting tuples, and returns the
/// per-relation deltas (tuples that were actually new).
///
/// The caller is responsible for firing-level dedup (per-link caches); this
/// function still suppresses ground duplicates via set semantics.
pub fn apply_firings(
    target: &mut Instance,
    firings: &[RuleFiring],
    nulls: &mut NullFactory,
) -> Result<BTreeMap<String, Vec<Tuple>>, crate::schema::SchemaError> {
    let mut deltas: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    for firing in firings {
        for (rel, tuple) in firing.instantiate(nulls) {
            if target
                .get_mut(&rel)
                .ok_or_else(|| crate::schema::SchemaError::UnknownRelation {
                    relation: rel.clone(),
                })?
                .insert(tuple.clone())?
            {
                deltas.entry(rel).or_default().push(tuple);
            }
        }
    }
    Ok(deltas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{CmpOp, Comparison};
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::value::ValueType;

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
            firings[0].atoms[0].1,
            vec![TField::Const(Value::str("alice")), TField::Const(Value::Int(30))]
        );
    }

    #[test]
    fn fire_glav_shares_placeholder_across_head_atoms() {
        let firings = glav_rule().fire(&src()).unwrap();
        assert_eq!(firings.len(), 2);
        for f in &firings {
            assert!(!f.is_ground());
            let (_, person_fields) = &f.atoms[0];
            let (_, dept_fields) = &f.atoms[1];
            assert_eq!(person_fields[1], TField::Fresh(2));
            assert_eq!(dept_fields[0], TField::Fresh(2));
        }
    }

    #[test]
    fn instantiate_invents_one_null_per_placeholder() {
        let firings = glav_rule().fire(&src()).unwrap();
        let mut nulls = NullFactory::new(1);
        let pairs = firings[0].instantiate(&mut nulls);
        assert_eq!(pairs.len(), 2);
        let pv = &pairs[0].1[1];
        let dv = &pairs[1].1[0];
        assert!(pv.is_null());
        assert_eq!(pv, dv, "placeholder shared within a firing");
        // A second firing invents a different null.
        let pairs2 = firings[1].instantiate(&mut nulls);
        assert_ne!(pairs2[0].1[1], *pv);
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

    #[test]
    fn fire_delta_limits_to_new_tuples() {
        let mut i = src();
        let delta = vec![tup!["carol", 50]];
        i.insert("emp", delta[0].clone()).unwrap();
        let firings = gav_rule().fire_delta(&i, "emp", &delta).unwrap();
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].atoms[0].1[0], TField::Const(Value::str("carol")));
    }

    #[test]
    fn apply_firings_returns_deltas_and_dedups() {
        let mut target = Instance::new();
        target
            .add_relation(RelationSchema::with_types("person", &[ValueType::Str, ValueType::Int]));
        let firings = gav_rule().fire(&src()).unwrap();
        let mut nulls = NullFactory::new(2);
        let d1 = apply_firings(&mut target, &firings, &mut nulls).unwrap();
        assert_eq!(d1["person"].len(), 1);
        // Re-applying the same ground firing adds nothing.
        let d2 = apply_firings(&mut target, &firings, &mut nulls).unwrap();
        assert!(d2.is_empty());
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
        let firings = glav_rule().fire(&src()).unwrap();
        assert!(firings[0].size_bytes() > 0);
    }
}
