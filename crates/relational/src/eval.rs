//! Conjunctive-query evaluation.
//!
//! Two evaluators are provided:
//!
//! * the production evaluator — greedy atom ordering (most-bound-first,
//!   then smallest relation), candidates looked up through the index the
//!   relation keeps on the atom's first statically bound column
//!   ([`Relation::matching`](crate::relation::Relation::matching)),
//!   comparisons applied as early as their variables are bound. It
//!   *streams*: `for_each_answer` hands every satisfying
//!   assignment to a callback as the join reaches it, which is how rule
//!   firing and [`answer_query`] consume it; [`evaluate_body`] collects the
//!   same stream into a vector.
//! * [`evaluate_body_reference`] — a deliberately naive nested-loop
//!   evaluator used as an oracle by property-based tests.
//!
//! `for_each_delta_answer` (collected by [`evaluate_body_delta`]) is the
//! *semi-naive* variant coDB's global update and query-time serving rely
//! on: given a delta `T'` for one relation, it visits exactly the
//! derivations that use at least one delta tuple in the designated
//! relation, by evaluating the body once per occurrence of that relation
//! with the occurrence restricted to `T'`.

use crate::cq::{Atom, CqBody, Term, Var};
use crate::instance::Instance;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A (partial) assignment of values to variables, indexed by `Var`.
pub type Bindings = Vec<Option<Value>>;

/// Evaluation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The body references a relation the instance does not declare.
    UnknownRelation(String),
    /// An atom's arity differs from its relation's arity.
    AtomArityMismatch {
        /// Relation name.
        relation: String,
        /// Arity declared by the instance.
        relation_arity: usize,
        /// Arity used by the atom.
        atom_arity: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            EvalError::AtomArityMismatch { relation, relation_arity, atom_arity } => write!(
                f,
                "atom over {relation} has arity {atom_arity}, relation has {relation_arity}"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Number of variable slots needed to evaluate `body` (max var index + 1).
pub fn var_slots(body: &CqBody) -> usize {
    let in_atoms = body.atoms.iter().flat_map(|a| &a.terms);
    let in_comparisons = body.comparisons.iter().flat_map(|c| [&c.lhs, &c.rhs]);
    in_atoms
        .chain(in_comparisons)
        .filter_map(Term::as_var)
        .map(|v| v.0 as usize + 1)
        .max()
        .unwrap_or(0)
}

fn check_atoms(body: &CqBody, inst: &Instance) -> Result<(), EvalError> {
    for atom in &body.atoms {
        let rel = inst
            .get(&atom.relation)
            .ok_or_else(|| EvalError::UnknownRelation(atom.relation.clone()))?;
        if rel.arity() != atom.arity() {
            return Err(EvalError::AtomArityMismatch {
                relation: atom.relation.clone(),
                relation_arity: rel.arity(),
                atom_arity: atom.arity(),
            });
        }
    }
    Ok(())
}

/// Tries to extend `bindings` so that `atom` matches `tuple`; rolls back and
/// returns `false` on mismatch. On success, newly bound variables are pushed
/// onto `trail` so the caller can undo them.
fn match_atom(atom: &Atom, tuple: &Tuple, bindings: &mut Bindings, trail: &mut Vec<Var>) -> bool {
    let start = trail.len();
    for (term, value) in atom.terms.iter().zip(tuple.values()) {
        let ok = match term {
            Term::Const(c) => c == value,
            Term::Var(v) => match &bindings[v.0 as usize] {
                Some(bound) => bound == value,
                None => {
                    bindings[v.0 as usize] = Some(value.clone());
                    trail.push(*v);
                    true
                }
            },
        };
        if !ok {
            for v in trail.drain(start..) {
                bindings[v.0 as usize] = None;
            }
            return false;
        }
    }
    true
}

fn undo(bindings: &mut Bindings, trail: &mut Vec<Var>, mark: usize) {
    for v in trail.drain(mark..) {
        bindings[v.0 as usize] = None;
    }
}

fn term_value<'a>(term: &'a Term, bindings: &'a Bindings) -> Option<&'a Value> {
    match term {
        Term::Const(c) => Some(c),
        Term::Var(v) => bindings[v.0 as usize].as_ref(),
    }
}

fn comparisons_hold(body: &CqBody, bindings: &Bindings) -> bool {
    body.comparisons.iter().all(|c| {
        match (term_value(&c.lhs, bindings), term_value(&c.rhs, bindings)) {
            (Some(a), Some(b)) => c.op.eval(a, b),
            // Unbound comparison operand can only happen mid-join; treat as
            // "not yet refuted".
            _ => true,
        }
    })
}

/// Greedy join order: repeatedly pick the atom with the most already-bound
/// argument positions, breaking ties by smaller relation cardinality.
/// Returns atom indexes in evaluation order.
fn plan_order(body: &CqBody, inst: &Instance, pinned_first: Option<usize>) -> Vec<usize> {
    let n = body.atoms.len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound: BTreeSet<Var> = BTreeSet::new();
    if let Some(p) = pinned_first {
        order.push(p);
        used[p] = true;
        bound.extend(body.atoms[p].vars());
    }
    while order.len() < n {
        let mut best: Option<(usize, usize, usize)> = None; // (idx, -boundness proxy, size)
        for (i, atom) in body.atoms.iter().enumerate() {
            if used[i] {
                continue;
            }
            let boundness = atom
                .terms
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
                .count();
            let size = inst.get(&atom.relation).map_or(0, |r| r.len());
            let candidate = (i, boundness, size);
            best = match best {
                None => Some(candidate),
                Some((bi, bb, bs)) => {
                    // Prefer higher boundness; then smaller relation; then index.
                    if boundness > bb || (boundness == bb && size < bs) {
                        Some(candidate)
                    } else {
                        Some((bi, bb, bs))
                    }
                }
            };
        }
        let (i, _, _) = best.expect("unused atom must exist");
        used[i] = true;
        bound.extend(body.atoms[i].vars());
        order.push(i);
    }
    order
}

/// Candidate tuple source for one atom: either the full relation or an
/// explicit delta batch.
enum Source<'a> {
    Relation(&'a crate::relation::Relation),
    Batch(&'a [Tuple]),
}

impl<'a> Source<'a> {
    fn for_each(&self, visit: impl FnMut(&'a Tuple)) {
        match self {
            Source::Relation(r) => r.iter().for_each(visit),
            Source::Batch(b) => b.iter().for_each(visit),
        }
    }
}

/// One scheduled atom.
struct Step<'a> {
    atom: &'a Atom,
    source: Source<'a>,
    /// Column to look candidates up by, if one is statically bound.
    index_col: Option<usize>,
}

fn build_steps<'a>(
    body: &'a CqBody,
    inst: &'a Instance,
    order: &[usize],
    delta: Option<(usize, &'a [Tuple])>,
) -> Vec<Step<'a>> {
    let mut bound: BTreeSet<Var> = BTreeSet::new();
    let mut steps = Vec::with_capacity(order.len());
    for &i in order {
        let atom = &body.atoms[i];
        let source = match delta {
            Some((di, batch)) if di == i => Source::Batch(batch),
            _ => Source::Relation(inst.get(&atom.relation).expect("checked")),
        };
        // First argument position whose term is statically bound here.
        let index_col = atom.terms.iter().position(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        });
        bound.extend(atom.vars());
        steps.push(Step { atom, source, index_col });
    }
    steps
}

/// Recursive index-nested-loop join: consumes one planned step, extends the
/// bindings for each matching candidate tuple, recurses on the rest.
fn join(
    steps: &[Step<'_>],
    body: &CqBody,
    bindings: &mut Bindings,
    trail: &mut Vec<Var>,
    out: &mut dyn FnMut(&Bindings, Option<&Tuple>),
) {
    let Some((step, rest)) = steps.split_first() else {
        if comparisons_hold(body, bindings) {
            out(bindings, None);
        }
        return;
    };
    let mark = trail.len();
    let atom = step.atom;

    // A relation is probed through the index it keeps on the bound column
    // (built by the first probe, there for every evaluation after it); a
    // delta batch comes first in the plan and is scanned.
    let bucket = match (&step.source, step.index_col) {
        (Source::Relation(r), Some(col)) => {
            term_value(&atom.terms[col], bindings).map(|key| r.matching(col, key))
        }
        _ => None,
    };
    let visit = |t: &Tuple| {
        if match_atom(atom, t, bindings, trail) && comparisons_hold(body, bindings) {
            join(rest, body, bindings, trail, out);
        }
        undo(bindings, trail, mark);
    };
    match bucket {
        Some(candidates) => candidates.iter().for_each(visit),
        None => step.source.for_each(visit),
    }
}

/// Calls `out` with every satisfying assignment of `body` over `inst`, as
/// the join reaches it — the borrowed assignment is only valid inside the
/// call — and, where the body is one atom, the tuple that atom matched (a
/// join hands `None`).
pub(crate) fn for_each_answer(
    body: &CqBody,
    inst: &Instance,
    out: &mut dyn FnMut(&Bindings, Option<&Tuple>),
) -> Result<(), EvalError> {
    check_atoms(body, inst)?;
    stream_answers(body, inst, None, out);
    Ok(())
}

/// Semi-naive evaluation: calls `out` with the assignments of derivations
/// that use a tuple of `delta` in at least one occurrence of
/// `delta_relation`.
///
/// Implements the paper's "incoming links, which are dependent on O, are
/// computed by substituting R by T'": each occurrence of the relation is
/// substituted in turn, which covers every derivation touching the delta at
/// least once (derivations touching it several times are produced multiple
/// times and de-duplicated downstream by set semantics).
pub(crate) fn for_each_delta_answer(
    body: &CqBody,
    inst: &Instance,
    delta_relation: &str,
    delta: &[Tuple],
    out: &mut dyn FnMut(&Bindings, Option<&Tuple>),
) -> Result<(), EvalError> {
    check_atoms(body, inst)?;
    for (i, atom) in body.atoms.iter().enumerate() {
        if atom.relation == delta_relation {
            stream_answers(body, inst, Some((i, delta)), out);
        }
    }
    Ok(())
}

/// Evaluates `body` against `inst`, returning every satisfying assignment.
///
/// Assignments are complete for all variables occurring in relational atoms;
/// slots for unused variable indexes remain `None`.
pub fn evaluate_body(body: &CqBody, inst: &Instance) -> Result<Vec<Bindings>, EvalError> {
    let mut all = Vec::new();
    for_each_answer(body, inst, &mut |b, _| all.push(b.clone()))?;
    Ok(all)
}

/// The semi-naive assignments — those of derivations that use a tuple of
/// `delta` in at least one occurrence of `delta_relation` — collected.
pub fn evaluate_body_delta(
    body: &CqBody,
    inst: &Instance,
    delta_relation: &str,
    delta: &[Tuple],
) -> Result<Vec<Bindings>, EvalError> {
    let mut all = Vec::new();
    for_each_delta_answer(body, inst, delta_relation, delta, &mut |b, _| all.push(b.clone()))?;
    Ok(all)
}

/// The answers of a body over atoms [`check_atoms`] has passed, atom
/// `delta.0` reading `delta.1` in place of its relation. A body of several
/// atoms is a planned join; a body of one has nothing to order and nothing
/// to index, so its source is scanned as it lies — which is every copy,
/// filter and projection rule, once per delta they are fired with — and
/// `out` is handed the tuple each answer matched, which a head that repeats
/// the atom shares instead of building its own.
fn stream_answers(
    body: &CqBody,
    inst: &Instance,
    delta: Option<(usize, &[Tuple])>,
    out: &mut dyn FnMut(&Bindings, Option<&Tuple>),
) {
    let mut bindings: Bindings = vec![None; var_slots(body)];
    match body.atoms.as_slice() {
        // An empty body is trivially satisfied by the empty assignment
        // (only meaningful for constant heads).
        [] => out(&bindings, None),
        [atom] => {
            let source = match delta {
                Some((_, batch)) => Source::Batch(batch),
                None => Source::Relation(inst.get(&atom.relation).expect("checked")),
            };
            let mut trail = Vec::new();
            source.for_each(|t| {
                if match_atom(atom, t, &mut bindings, &mut trail)
                    && comparisons_hold(body, &bindings)
                {
                    out(&bindings, Some(t));
                }
                undo(&mut bindings, &mut trail, 0);
            });
        }
        _ => {
            let order = plan_order(body, inst, delta.map(|(i, _)| i));
            let steps = build_steps(body, inst, &order, delta);
            join(&steps, body, &mut bindings, &mut Vec::new(), out);
        }
    }
}

/// Oracle evaluator: plain nested loops in textual atom order, no indexes,
/// comparisons checked only at the end. Exponentially slower but obviously
/// correct; property tests compare it against [`evaluate_body`].
pub fn evaluate_body_reference(body: &CqBody, inst: &Instance) -> Result<Vec<Bindings>, EvalError> {
    check_atoms(body, inst)?;
    let slots = var_slots(body);
    let mut results = Vec::new();
    fn rec(
        atoms: &[Atom],
        inst: &Instance,
        body: &CqBody,
        bindings: &mut Bindings,
        results: &mut Vec<Bindings>,
    ) {
        match atoms.split_first() {
            None => {
                let full = body.comparisons.iter().all(|c| {
                    match (term_value(&c.lhs, bindings), term_value(&c.rhs, bindings)) {
                        (Some(a), Some(b)) => c.op.eval(a, b),
                        _ => false,
                    }
                });
                if full {
                    results.push(bindings.clone());
                }
            }
            Some((atom, rest)) => {
                let rel = inst.get(&atom.relation).expect("checked");
                for t in rel.sorted() {
                    let mut trail = Vec::new();
                    if match_atom(atom, &t, bindings, &mut trail) {
                        rec(rest, inst, body, bindings, results);
                    }
                    for v in trail {
                        bindings[v.0 as usize] = None;
                    }
                }
            }
        }
    }
    let mut bindings = vec![None; slots];
    if body.atoms.is_empty() {
        return Ok(vec![bindings]);
    }
    rec(&body.atoms, inst, body, &mut bindings, &mut results);
    Ok(results)
}

/// Projects `head` through an assignment, mapping unbound variables via
/// `on_unbound` (rule application passes a fresh-null factory; user queries
/// never hit it because their heads are safe).
pub fn project_atom(
    atom: &Atom,
    bindings: &Bindings,
    on_unbound: &mut dyn FnMut(Var) -> Value,
) -> Tuple {
    atom.terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => c.clone(),
            Term::Var(v) => bindings[v.0 as usize].clone().unwrap_or_else(|| on_unbound(*v)),
        })
        .collect()
}

/// Evaluates a user query: answers are head projections, deduplicated and
/// sorted for determinism.
pub fn answer_query(
    query: &crate::cq::ConjunctiveQuery,
    inst: &Instance,
) -> Result<Vec<Tuple>, EvalError> {
    let mut answers = Vec::new();
    for_each_answer(&query.body, inst, &mut |b, _| {
        answers.push(project_atom(&query.head, b, &mut |v| {
            unreachable!("safe query head var {v:?} unbound")
        }));
    })?;
    answers.sort_unstable();
    answers.dedup();
    Ok(answers)
}

/// Certain answers: answers that contain no marked null.
pub fn certain_answers(
    query: &crate::cq::ConjunctiveQuery,
    inst: &Instance,
) -> Result<Vec<Tuple>, EvalError> {
    Ok(answer_query(query, inst)?.into_iter().filter(|t| !t.has_null()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{CmpOp, Comparison, ConjunctiveQuery};
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::value::ValueType;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    fn db() -> Instance {
        let mut i = Instance::new();
        i.add_relation(RelationSchema::with_types("e", &[ValueType::Int, ValueType::Int]));
        i.add_relation(RelationSchema::with_types("p", &[ValueType::Str, ValueType::Int]));
        for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 3)] {
            i.insert("e", tup![a, b]).unwrap();
        }
        for (n, a) in [("alice", 30), ("bob", 17), ("carol", 45)] {
            i.insert("p", tup![n, a]).unwrap();
        }
        i
    }

    fn query(head: Atom, body: CqBody, names: &[&str]) -> ConjunctiveQuery {
        ConjunctiveQuery::new(head, body, names.iter().map(|s| s.to_string()).collect()).unwrap()
    }

    #[test]
    fn single_atom_scan() {
        let q = query(
            Atom::new("ans", vec![v(0), v(1)]),
            CqBody::new(vec![Atom::new("e", vec![v(0), v(1)])], vec![]),
            &["X", "Y"],
        );
        assert_eq!(answer_query(&q, &db()).unwrap().len(), 4);
    }

    #[test]
    fn join_two_atoms() {
        // Paths of length 2: e(X,Y), e(Y,Z).
        let q = query(
            Atom::new("ans", vec![v(0), v(2)]),
            CqBody::new(
                vec![Atom::new("e", vec![v(0), v(1)]), Atom::new("e", vec![v(1), v(2)])],
                vec![],
            ),
            &["X", "Y", "Z"],
        );
        let ans = answer_query(&q, &db()).unwrap();
        assert_eq!(ans, vec![tup![1, 3], tup![1, 4], tup![2, 4]]);
    }

    #[test]
    fn constants_filter() {
        let q = query(
            Atom::new("ans", vec![v(0)]),
            CqBody::new(vec![Atom::new("e", vec![Term::Const(Value::Int(1)), v(0)])], vec![]),
            &["X"],
        );
        assert_eq!(answer_query(&q, &db()).unwrap(), vec![tup![2], tup![3]]);
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut i = db();
        i.insert("e", tup![5, 5]).unwrap();
        let q = query(
            Atom::new("ans", vec![v(0)]),
            CqBody::new(vec![Atom::new("e", vec![v(0), v(0)])], vec![]),
            &["X"],
        );
        assert_eq!(answer_query(&q, &i).unwrap(), vec![tup![5]]);
    }

    #[test]
    fn comparisons_prune() {
        let q = query(
            Atom::new("ans", vec![v(0)]),
            CqBody::new(
                vec![Atom::new("p", vec![v(0), v(1)])],
                vec![Comparison::new(Var(1), CmpOp::Ge, Value::Int(18))],
            ),
            &["N", "A"],
        );
        assert_eq!(answer_query(&q, &db()).unwrap(), vec![tup!["alice"], tup!["carol"]]);
    }

    #[test]
    fn var_to_var_comparison() {
        let q = query(
            Atom::new("ans", vec![v(0), v(1)]),
            CqBody::new(
                vec![Atom::new("e", vec![v(0), v(1)])],
                vec![Comparison::new(Var(0), CmpOp::Lt, Var(1))],
            ),
            &["X", "Y"],
        );
        // All edges are increasing in the fixture.
        assert_eq!(answer_query(&q, &db()).unwrap().len(), 4);
    }

    #[test]
    fn cross_product_when_disconnected() {
        let q = query(
            Atom::new("ans", vec![v(0), v(1)]),
            CqBody::new(
                vec![Atom::new("p", vec![v(0), v(2)]), Atom::new("e", vec![v(1), v(3)])],
                vec![],
            ),
            &["N", "X", "A", "Y"],
        );
        // 3 persons x 3 distinct source vertices {1,2,3} ... e has sources 1,2,3,1.
        let ans = answer_query(&q, &db()).unwrap();
        assert_eq!(ans.len(), 3 * 3);
    }

    #[test]
    fn unknown_relation_error() {
        let body = CqBody::new(vec![Atom::new("zz", vec![v(0)])], vec![]);
        assert_eq!(
            evaluate_body(&body, &db()).unwrap_err(),
            EvalError::UnknownRelation("zz".into())
        );
    }

    #[test]
    fn atom_arity_mismatch_error() {
        let body = CqBody::new(vec![Atom::new("e", vec![v(0)])], vec![]);
        assert!(matches!(
            evaluate_body(&body, &db()).unwrap_err(),
            EvalError::AtomArityMismatch { atom_arity: 1, relation_arity: 2, .. }
        ));
    }

    #[test]
    fn delta_restricts_derivations() {
        // Body: e(X,Y), e(Y,Z). Delta {(2,3)} for e.
        let body = CqBody::new(
            vec![Atom::new("e", vec![v(0), v(1)]), Atom::new("e", vec![v(1), v(2)])],
            vec![],
        );
        let delta = vec![tup![2, 3]];
        let res = evaluate_body_delta(&body, &db(), "e", &delta).unwrap();
        // Occurrence 1: (2,3) then e(3,Z) → (2,3,4).
        // Occurrence 2: e(X,2) then (2,3) → (1,2,3).
        let mut tuples: Vec<Tuple> = res
            .iter()
            .map(|b| {
                Tuple::new(vec![
                    b[0].clone().unwrap(),
                    b[1].clone().unwrap(),
                    b[2].clone().unwrap(),
                ])
            })
            .collect();
        tuples.sort();
        tuples.dedup();
        assert_eq!(tuples, vec![tup![1, 2, 3], tup![2, 3, 4]]);
    }

    #[test]
    fn delta_on_absent_relation_is_empty() {
        let body = CqBody::new(vec![Atom::new("e", vec![v(0), v(1)])], vec![]);
        let res = evaluate_body_delta(&body, &db(), "p", &[tup!["x", 1]]).unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn reference_and_production_agree_on_fixture() {
        let body = CqBody::new(
            vec![Atom::new("e", vec![v(0), v(1)]), Atom::new("e", vec![v(1), v(2)])],
            vec![Comparison::new(Var(0), CmpOp::Le, Value::Int(2))],
        );
        let inst = db();
        let mut a: Vec<Bindings> = evaluate_body(&body, &inst).unwrap();
        let mut b: Vec<Bindings> = evaluate_body_reference(&body, &inst).unwrap();
        a.sort();
        b.sort();
        a.dedup();
        b.dedup();
        assert_eq!(a, b);
    }

    /// A body of one atom skips the planner. Whatever the atom's shape —
    /// a repeated variable, a constant, a comparison on top — the scan
    /// answers as the nested-loop reference does, over the relation and
    /// over a delta standing in for it.
    #[test]
    fn a_one_atom_body_answers_as_the_reference_does() {
        let mut inst = db();
        // Enough rows for the planned join to have built an index.
        for k in 0..20 {
            inst.insert("e", tup![k, k % 3]).unwrap();
            inst.insert("e", tup![k, k]).unwrap();
        }
        let sorted = |mut answers: Vec<Bindings>| {
            answers.sort();
            answers
        };
        let ge = |var, k| Comparison::new(Var(var), CmpOp::Ge, Value::Int(k));
        let bodies = [
            CqBody::new(vec![Atom::new("e", vec![v(0), v(1)])], vec![]),
            CqBody::new(vec![Atom::new("e", vec![v(0), v(0)])], vec![]),
            CqBody::new(vec![Atom::new("e", vec![v(0), Term::Const(Value::Int(2))])], vec![]),
            CqBody::new(vec![Atom::new("e", vec![Term::Const(Value::Int(7)), v(0)])], vec![]),
            CqBody::new(vec![Atom::new("e", vec![v(0), v(1)])], vec![ge(1, 2)]),
            CqBody::new(
                vec![Atom::new("e", vec![v(0), v(0)])],
                vec![ge(0, 5), Comparison::new(Var(0), CmpOp::Lt, Value::Int(9))],
            ),
            CqBody::new(vec![Atom::new("p", vec![v(0), v(1)])], vec![ge(1, 18)]),
        ];
        for body in &bodies {
            let want = sorted(evaluate_body_reference(body, &inst).unwrap());
            assert_eq!(sorted(evaluate_body(body, &inst).unwrap()), want, "{body:?}");
            assert!(!want.is_empty(), "{body:?} selects something");

            // Semi-naive: the answers a delta contributes are the answers
            // over an instance holding the delta alone.
            let relation = &body.atoms[0].relation;
            let delta: Vec<Tuple> =
                inst.get(relation).unwrap().sorted().into_iter().step_by(3).collect();
            let mut alone = Instance::new();
            alone.add_relation(inst.get(relation).unwrap().schema().clone());
            for t in &delta {
                alone.insert(relation, t.clone()).unwrap();
            }
            let want = sorted(evaluate_body_reference(body, &alone).unwrap());
            let got = evaluate_body_delta(body, &inst, relation, &delta).unwrap();
            assert_eq!(sorted(got), want, "{body:?} over a delta");

            assert!(evaluate_body_delta(body, &inst, relation, &[]).unwrap().is_empty());
            let unread = if relation == "e" { "p" } else { "e" };
            let other = inst.get(unread).unwrap().sorted();
            assert!(evaluate_body_delta(body, &inst, unread, &other).unwrap().is_empty());
        }
        // The checks still come first: a one-atom body over a relation the
        // instance lacks is an error, not an empty scan.
        let unknown = CqBody::new(vec![Atom::new("zz", vec![v(0)])], vec![]);
        assert!(evaluate_body_delta(&unknown, &inst, "e", &[tup![1, 2]]).is_err());
    }

    #[test]
    fn certain_answers_drop_nulls() {
        use crate::value::NullFactory;
        let mut i = Instance::new();
        i.add_relation(RelationSchema::with_types("r", &[ValueType::Int, ValueType::Int]));
        let mut f = NullFactory::new(9);
        i.get_mut("r")
            .unwrap()
            .insert(Tuple::new(vec![Value::Int(1), Value::Null(f.fresh())]))
            .unwrap();
        i.insert("r", tup![2, 2]).unwrap();
        let q = query(
            Atom::new("ans", vec![v(0), v(1)]),
            CqBody::new(vec![Atom::new("r", vec![v(0), v(1)])], vec![]),
            &["X", "Y"],
        );
        assert_eq!(answer_query(&q, &i).unwrap().len(), 2);
        assert_eq!(certain_answers(&q, &i).unwrap(), vec![tup![2, 2]]);
    }

    #[test]
    fn empty_relation_yields_no_answers() {
        let mut i = Instance::new();
        i.add_relation(RelationSchema::with_types("r", &[ValueType::Int]));
        let q = query(
            Atom::new("ans", vec![v(0)]),
            CqBody::new(vec![Atom::new("r", vec![v(0)])], vec![]),
            &["X"],
        );
        assert!(answer_query(&q, &i).unwrap().is_empty());
    }

    #[test]
    fn large_join_uses_index_correctly() {
        let mut i = Instance::new();
        i.add_relation(RelationSchema::with_types("a", &[ValueType::Int, ValueType::Int]));
        i.add_relation(RelationSchema::with_types("b", &[ValueType::Int, ValueType::Int]));
        for k in 0..200i64 {
            i.insert("a", tup![k, k + 1]).unwrap();
            i.insert("b", tup![k + 1, k + 2]).unwrap();
        }
        let q = query(
            Atom::new("ans", vec![v(0), v(2)]),
            CqBody::new(
                vec![Atom::new("a", vec![v(0), v(1)]), Atom::new("b", vec![v(1), v(2)])],
                vec![],
            ),
            &["X", "Y", "Z"],
        );
        let built = crate::relation::index_builds();
        assert_eq!(answer_query(&q, &i).unwrap().len(), 200);
        assert_eq!(crate::relation::index_builds(), built + 1, "one probed column");

        // The index outlives the evaluation: asking again builds nothing,
        // and neither does asking after an insert on either side of the
        // join — the owner keeps its index up.
        assert_eq!(answer_query(&q, &i).unwrap().len(), 200);
        i.insert("a", tup![500, 501]).unwrap();
        i.insert("b", tup![501, 502]).unwrap();
        let answers = answer_query(&q, &i).unwrap();
        assert_eq!(answers.len(), 201);
        assert!(answers.contains(&tup![500, 502]));
        assert_eq!(crate::relation::index_builds(), built + 1);
    }
}
