//! Conjunctive queries with comparison predicates.
//!
//! coDB coordination rules are *inclusions of conjunctive queries* (GLAV):
//! the body is a CQ over the acquaintance's schema, possibly extended with
//! comparison predicates "which specify constraints over the domain of
//! particular attributes", and the head is a CQ over the local schema,
//! possibly with existential variables. User queries are plain CQs over one
//! node's schema. This module defines the shared AST.

use crate::value::Value;
use serde::Serialize;
use std::collections::BTreeSet;
use std::fmt;

/// A query variable, identified by index into the owning query's name table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Var(pub u32);

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A term: a variable or a constant.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Term {
    /// Variable occurrence.
    Var(Var),
    /// Constant occurrence.
    Const(Value),
}

impl Term {
    /// The variable, if this term is one.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

/// A relational atom `r(t1, ..., tk)`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Atom {
    /// Relation name.
    pub relation: String,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom { relation: relation.into(), terms }
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Set of variables occurring in the atom.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.terms.iter().filter_map(Term::as_var).collect()
    }
}

/// Comparison operators admitted in rule bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum CmpOp {
    /// Equality (marked nulls equal only themselves).
    Eq,
    /// Structural inequality.
    Ne,
    /// Strictly less (same-typed non-null operands only).
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Evaluates the operator on two values.
    ///
    /// Semantics: `Eq`/`Ne` are structural (a marked null is equal exactly
    /// to itself). The ordered operators are defined only between two
    /// non-null values of the same type and evaluate to `false` otherwise —
    /// a three-valued "unknown" collapsed to `false`, the conservative
    /// choice for data migration.
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let comparable = !a.is_null() && !b.is_null() && a.value_type() == b.value_type();
                if !comparable {
                    return false;
                }
                match self {
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Source-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A comparison predicate `lhs op rhs`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Comparison {
    /// Left operand.
    pub lhs: Term,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Term,
}

impl Comparison {
    /// Creates a comparison.
    pub fn new(lhs: impl Into<Term>, op: CmpOp, rhs: impl Into<Term>) -> Self {
        Comparison { lhs: lhs.into(), op, rhs: rhs.into() }
    }

    /// Variables used by the comparison.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.lhs.as_var().into_iter().chain(self.rhs.as_var()).collect()
    }
}

/// The body of a CQ: relational atoms plus comparison predicates.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CqBody {
    /// Relational atoms, joined conjunctively.
    pub atoms: Vec<Atom>,
    /// Comparison predicates over body variables.
    pub comparisons: Vec<Comparison>,
}

impl CqBody {
    /// Creates a body.
    pub fn new(atoms: Vec<Atom>, comparisons: Vec<Comparison>) -> Self {
        CqBody { atoms, comparisons }
    }

    /// Variables occurring in relational atoms.
    pub fn atom_vars(&self) -> BTreeSet<Var> {
        self.atoms.iter().flat_map(|a| a.vars()).collect()
    }

    /// Relation names referenced by the body.
    pub fn relations(&self) -> BTreeSet<&str> {
        self.atoms.iter().map(|a| a.relation.as_str()).collect()
    }

    /// Checks *range restriction*: every comparison variable must occur in
    /// some relational atom (otherwise evaluation would be unsafe).
    pub fn check_safe(&self) -> Result<(), CqError> {
        let bound = self.atom_vars();
        for c in &self.comparisons {
            for v in c.vars() {
                if !bound.contains(&v) {
                    return Err(CqError::UnsafeComparisonVar(v));
                }
            }
        }
        Ok(())
    }
}

/// A conjunctive query `head(x̄) :- body`, used for user queries.
///
/// User queries must be *safe*: every head variable occurs in the body.
/// (Rule heads with existential variables are modelled by
/// [`crate::glav::GlavRule`], not by this type.)
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ConjunctiveQuery {
    /// The head atom; its relation name names the answer relation.
    pub head: Atom,
    /// The body.
    pub body: CqBody,
    /// Human-readable names for variables, indexed by [`Var`].
    pub var_names: Vec<String>,
}

impl ConjunctiveQuery {
    /// Creates a query, checking safety and range restriction.
    pub fn new(head: Atom, body: CqBody, var_names: Vec<String>) -> Result<Self, CqError> {
        body.check_safe()?;
        let bound = body.atom_vars();
        for v in head.vars() {
            if !bound.contains(&v) {
                return Err(CqError::UnsafeHeadVar(v));
            }
        }
        let q = ConjunctiveQuery { head, body, var_names };
        q.check_var_names()?;
        Ok(q)
    }

    fn check_var_names(&self) -> Result<(), CqError> {
        let max = self.head.vars().into_iter().chain(self.body.atom_vars()).map(|v| v.0).max();
        if let Some(m) = max {
            if (m as usize) >= self.var_names.len() {
                return Err(CqError::MissingVarName(Var(m)));
            }
        }
        Ok(())
    }

    /// Display name for a variable.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.0 as usize]
    }
}

/// Well-formedness errors for CQs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CqError {
    /// A head variable does not occur in the body.
    UnsafeHeadVar(Var),
    /// A comparison variable does not occur in any relational atom.
    UnsafeComparisonVar(Var),
    /// A variable lacks an entry in the name table.
    MissingVarName(Var),
}

impl fmt::Display for CqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CqError::UnsafeHeadVar(v) => write!(f, "head variable {v:?} not bound in body"),
            CqError::UnsafeComparisonVar(v) => {
                write!(f, "comparison variable {v:?} not bound in any atom")
            }
            CqError::MissingVarName(v) => write!(f, "no name recorded for variable {v:?}"),
        }
    }
}

impl std::error::Error for CqError {}

/// Helper for building queries programmatically: interns variable names.
#[derive(Debug, Default)]
pub struct VarPool {
    names: Vec<String>,
}

impl VarPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the variable for `name`, interning it on first use.
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            Var(i as u32)
        } else {
            self.names.push(name.to_owned());
            Var((self.names.len() - 1) as u32)
        }
    }

    /// Consumes the pool, yielding the name table.
    pub fn into_names(self) -> Vec<String> {
        self.names
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True iff no variables are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::NullId;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    #[test]
    fn cmp_eval_ordered() {
        assert!(CmpOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(!CmpOp::Lt.eval(&Value::Int(2), &Value::Int(1)));
        assert!(CmpOp::Ge.eval(&Value::str("b"), &Value::str("a")));
        assert!(CmpOp::Le.eval(&Value::Int(1), &Value::Int(1)));
    }

    #[test]
    fn cmp_ordered_rejects_mixed_types_and_nulls() {
        let null = Value::Null(NullId::new(0, 0));
        assert!(!CmpOp::Lt.eval(&Value::Int(1), &Value::str("x")));
        assert!(!CmpOp::Gt.eval(&null, &Value::Int(1)));
        assert!(!CmpOp::Le.eval(&null, &null));
    }

    #[test]
    fn cmp_eq_is_label_based_for_nulls() {
        let n = Value::Null(NullId::new(0, 0));
        let m = Value::Null(NullId::new(0, 1));
        assert!(CmpOp::Eq.eval(&n, &n.clone()));
        assert!(CmpOp::Ne.eval(&n, &m));
        assert!(CmpOp::Ne.eval(&n, &Value::Int(1)));
    }

    #[test]
    fn atom_vars_dedup() {
        let a = Atom::new("r", vec![v(0), v(1), v(0), Term::Const(Value::Int(3))]);
        assert_eq!(a.vars(), [Var(0), Var(1)].into_iter().collect());
        assert_eq!(a.arity(), 4);
    }

    #[test]
    fn safe_query_accepted() {
        let body = CqBody::new(
            vec![Atom::new("r", vec![v(0), v(1)])],
            vec![Comparison::new(Var(1), CmpOp::Gt, Value::Int(5))],
        );
        let q =
            ConjunctiveQuery::new(Atom::new("ans", vec![v(0)]), body, vec!["X".into(), "Y".into()]);
        assert!(q.is_ok());
        assert_eq!(q.unwrap().var_name(Var(1)), "Y");
    }

    #[test]
    fn unsafe_head_var_rejected() {
        let body = CqBody::new(vec![Atom::new("r", vec![v(0)])], vec![]);
        let err = ConjunctiveQuery::new(Atom::new("ans", vec![v(0), v(7)]), body, vec!["X".into()])
            .unwrap_err();
        assert_eq!(err, CqError::UnsafeHeadVar(Var(7)));
    }

    #[test]
    fn unsafe_comparison_var_rejected() {
        let body = CqBody::new(
            vec![Atom::new("r", vec![v(0)])],
            vec![Comparison::new(Var(3), CmpOp::Eq, Value::Int(1))],
        );
        assert_eq!(body.check_safe(), Err(CqError::UnsafeComparisonVar(Var(3))));
    }

    #[test]
    fn missing_var_name_rejected() {
        let body = CqBody::new(vec![Atom::new("r", vec![v(0), v(1)])], vec![]);
        let err = ConjunctiveQuery::new(Atom::new("ans", vec![v(0)]), body, vec!["X".into()])
            .unwrap_err();
        assert_eq!(err, CqError::MissingVarName(Var(1)));
    }

    #[test]
    fn var_pool_interns() {
        let mut p = VarPool::new();
        let x = p.var("X");
        let y = p.var("Y");
        assert_ne!(x, y);
        assert_eq!(p.var("X"), x);
        assert_eq!(p.len(), 2);
        assert_eq!(p.into_names(), vec!["X".to_owned(), "Y".to_owned()]);
    }

    #[test]
    fn body_relations_listed() {
        let body =
            CqBody::new(vec![Atom::new("r", vec![v(0)]), Atom::new("s", vec![v(0)])], vec![]);
        assert_eq!(body.relations(), ["r", "s"].into_iter().collect());
    }
}
