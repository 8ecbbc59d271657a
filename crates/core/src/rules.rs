//! Coordination rules wired to nodes, and the incoming/outgoing link
//! dependency structure the update algorithm operates on.
//!
//! Terminology (paper §3): a rule whose **target** is node `N` is an
//! *outgoing link at `N`* — `N` uses it to import data. The same rule is an
//! *incoming link at its source*. An incoming link `i` **depends on** an
//! outgoing link `o` (equivalently `o` is *relevant for* `i`) "if the head
//! of the outgoing link reference\[s\] a relation, which is referenced by a
//! body subgoal of the incoming link" — both links considered at the same
//! node.

use crate::ids::{NodeId, RuleName};
use codb_relational::GlavRule;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A GLAV rule plus the pair of nodes it bridges: the body is evaluated at
/// `source`, the head is materialised at `target`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoordinationRule {
    /// The schema-level rule.
    pub rule: GlavRule,
    /// Node that evaluates the body and pushes firings.
    pub source: NodeId,
    /// Node that imports the head tuples.
    pub target: NodeId,
}

impl CoordinationRule {
    /// The rule's name (unique per network configuration).
    pub fn name(&self) -> &str {
        &self.rule.name
    }
}

/// The rule book of one node: the rules it participates in, split by role,
/// plus the intra-node dependency relation between them.
///
/// A book is immutable once built — a new rules file replaces it whole —
/// so everything the protocol asks of it per message is derived once, in
/// [`RuleBook::for_node`], and answered by reference.
#[derive(Clone, Debug, Default)]
pub struct RuleBook {
    outgoing: BTreeMap<RuleName, CoordinationRule>,
    incoming: BTreeMap<RuleName, CoordinationRule>,
    acquaintances: BTreeSet<NodeId>,
    /// Incoming link → the outgoing links relevant for it.
    relevant: BTreeMap<RuleName, BTreeSet<RuleName>>,
    /// Relation → the incoming links whose body reads it.
    readers: BTreeMap<String, BTreeSet<RuleName>>,
}

/// What the table lookups answer for a link or relation the book does not
/// know.
static NO_LINKS: BTreeSet<RuleName> = BTreeSet::new();

impl RuleBook {
    /// Builds the book for `node` from the full rule list.
    pub fn for_node(node: NodeId, rules: &[CoordinationRule]) -> Self {
        let mut book = RuleBook::default();
        for r in rules {
            if r.target == node {
                book.outgoing.insert(r.name().to_owned(), r.clone());
            }
            if r.source == node {
                book.incoming.insert(r.name().to_owned(), r.clone());
            }
        }
        book.acquaintances = book
            .outgoing
            .values()
            .map(|r| r.source)
            .chain(book.incoming.values().map(|r| r.target))
            .filter(|n| *n != node)
            .collect();
        for (name, i) in &book.incoming {
            let reads = i.rule.body_relations();
            let relevant = book
                .outgoing
                .values()
                .filter(|o| o.rule.head_relations().iter().any(|h| reads.contains(h)))
                .map(|o| o.name().to_owned())
                .collect();
            book.relevant.insert(name.clone(), relevant);
            for rel in reads {
                book.readers.entry(rel.to_owned()).or_default().insert(name.clone());
            }
        }
        book
    }

    /// Rules with this node as target, by name ("outgoing links").
    pub fn outgoing(&self) -> &BTreeMap<RuleName, CoordinationRule> {
        &self.outgoing
    }

    /// Rules with this node as source, by name ("incoming links").
    pub fn incoming(&self) -> &BTreeMap<RuleName, CoordinationRule> {
        &self.incoming
    }

    /// All acquaintances: nodes this node shares a rule with (pipe
    /// endpoints, per the paper's topology discovery: "when a node starts,
    /// it creates pipes with those nodes, w.r.t. which it has coordination
    /// rules, or which have coordination rules w.r.t. the given node").
    pub fn acquaintances(&self) -> &BTreeSet<NodeId> {
        &self.acquaintances
    }

    /// Outgoing links *relevant for* incoming link `i`: those whose head
    /// writes a relation read by `i`'s body.
    pub fn relevant_outgoing(&self, incoming: &str) -> &BTreeSet<RuleName> {
        self.relevant.get(incoming).unwrap_or(&NO_LINKS)
    }

    /// Incoming links *dependent on* outgoing link `o` — the links to
    /// re-compute when `o` delivers new data.
    pub fn dependent_incoming(&self, outgoing: &RuleName) -> BTreeSet<RuleName> {
        let Some(o) = self.outgoing.get(outgoing) else {
            return BTreeSet::new();
        };
        let head_rels: BTreeSet<&str> = o.rule.head_relations();
        self.incoming
            .values()
            .filter(|i| i.rule.body_relations().iter().any(|b| head_rels.contains(b)))
            .map(|i| i.name().to_owned())
            .collect()
    }

    /// Incoming links whose body reads `relation` — the links to
    /// re-compute when a delta arrives for it.
    pub fn incoming_reading(&self, relation: &str) -> &BTreeSet<RuleName> {
        self.readers.get(relation).unwrap_or(&NO_LINKS)
    }

    /// True iff this node has no rules at all (an isolated node).
    pub fn is_empty(&self) -> bool {
        self.outgoing.is_empty() && self.incoming.is_empty()
    }
}

/// Link-level dependency graph cyclicity: the *exact* recursion test.
///
/// There is an edge from rule `r` to rule `r2` iff data imported by `r`
/// (at `r.target`) can feed `r2`'s body — i.e. `r2.source == r.target`
/// and `r`'s head writes a relation `r2`'s body reads. A cycle here means
/// the update fixpoint is genuinely recursive (the paper's "fix-point
/// computation may be needed among the nodes").
pub fn link_graph_is_cyclic(rules: &[CoordinationRule]) -> bool {
    let n = rules.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, r) in rules.iter().enumerate() {
        let heads = r.rule.head_relations();
        for (j, r2) in rules.iter().enumerate() {
            if r2.source == r.target && r2.rule.body_relations().iter().any(|b| heads.contains(b)) {
                adj[i].push(j);
            }
        }
    }
    // Colour-marking DFS over rule indexes.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; n];
    for start in 0..n {
        if marks[start] != Mark::White {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        marks[start] = Mark::Grey;
        while let Some((node, idx)) = stack.pop() {
            if idx < adj[node].len() {
                stack.push((node, idx + 1));
                let child = adj[node][idx];
                match marks[child] {
                    Mark::Grey => return true,
                    Mark::White => {
                        marks[child] = Mark::Grey;
                        stack.push((child, 0));
                    }
                    Mark::Black => {}
                }
            } else {
                marks[node] = Mark::Black;
            }
        }
    }
    false
}

/// Node-level dependency graph over an entire rule set — used by workload
/// generators and tests to predict cyclicity.
///
/// There is an edge `target → source` for every rule (data flows source →
/// target; requests flow target → source). A cycle in this graph together
/// with intra-node relevance means the update fixpoint is genuinely
/// recursive. Coarser than [`link_graph_is_cyclic`] (node-level cycles may
/// not be data cycles).
pub fn rule_graph_is_cyclic(rules: &[CoordinationRule]) -> bool {
    let mut adj: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
    for r in rules {
        adj.entry(r.target).or_default().insert(r.source);
        adj.entry(r.source).or_default();
    }
    // Iterative DFS cycle detection.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks: BTreeMap<NodeId, Mark> = adj.keys().map(|n| (*n, Mark::White)).collect();
    for &start in adj.keys() {
        if marks[&start] != Mark::White {
            continue;
        }
        // (node, next-child-index)
        let mut stack = vec![(start, 0usize)];
        marks.insert(start, Mark::Grey);
        while let Some((node, idx)) = stack.pop() {
            let children: Vec<NodeId> = adj[&node].iter().copied().collect();
            if idx < children.len() {
                stack.push((node, idx + 1));
                let child = children[idx];
                match marks[&child] {
                    Mark::Grey => return true,
                    Mark::White => {
                        marks.insert(child, Mark::Grey);
                        stack.push((child, 0));
                    }
                    Mark::Black => {}
                }
            } else {
                marks.insert(node, Mark::Black);
            }
        }
    }
    false
}

/// The paper's definitions of the dependency tables, evaluated directly
/// over the two rule maps — what [`RuleBook`] derived on every call
/// before it kept tables, kept as the reference the tables are checked
/// against.
#[cfg(test)]
pub(crate) fn assert_tables_match_definitions(book: &RuleBook, node: NodeId) {
    let acquaintances: BTreeSet<NodeId> = book
        .outgoing()
        .values()
        .map(|r| r.source)
        .chain(book.incoming().values().map(|r| r.target))
        .filter(|n| *n != node)
        .collect();
    assert_eq!(book.acquaintances(), &acquaintances, "acquaintances of {node}");

    for (name, i) in book.incoming() {
        let reads = i.rule.body_relations();
        let relevant: BTreeSet<RuleName> = book
            .outgoing()
            .values()
            .filter(|o| o.rule.head_relations().iter().any(|h| reads.contains(h)))
            .map(|o| o.name().to_owned())
            .collect();
        assert_eq!(book.relevant_outgoing(name), &relevant, "relevant for {name} at {node}");
    }
    for name in book.outgoing().keys().filter(|o| !book.incoming().contains_key(*o)) {
        assert!(book.relevant_outgoing(name).is_empty(), "{name} is not an incoming link");
    }

    let rules = || book.outgoing().values().chain(book.incoming().values());
    let mut relations: BTreeSet<&str> = ["no-such-relation"].into();
    for r in rules() {
        relations.extend(r.rule.head_relations());
        relations.extend(r.rule.body_relations());
    }
    for rel in relations {
        let readers: BTreeSet<RuleName> = book
            .incoming()
            .values()
            .filter(|i| i.rule.body_relations().contains(rel))
            .map(|i| i.name().to_owned())
            .collect();
        assert_eq!(book.incoming_reading(rel), &readers, "readers of {rel} at {node}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codb_relational::parse_rule;

    fn rule(name: &str, src: u64, tgt: u64, text: &str) -> CoordinationRule {
        let mut r = parse_rule(text).unwrap();
        r.name = name.to_owned();
        CoordinationRule { rule: r, source: NodeId(src), target: NodeId(tgt) }
    }

    #[test]
    fn book_splits_roles() {
        let rules = vec![rule("a", 1, 2, "t(X) <- s(X)"), rule("b", 2, 3, "u(X) <- t(X)")];
        let book = RuleBook::for_node(NodeId(2), &rules);
        assert!(book.outgoing().contains_key("a")); // node 2 imports via a
        assert!(book.incoming().contains_key("b")); // node 2 serves b
        assert_eq!(book.acquaintances(), &[NodeId(1), NodeId(3)].into());
    }

    #[test]
    fn relevance_follows_relations() {
        // At node 2: outgoing "a" writes t; incoming "b" reads t → relevant.
        let rules = vec![
            rule("a", 1, 2, "t(X) <- s(X)"),
            rule("b", 2, 3, "u(X) <- t(X)"),
            rule("c", 2, 3, "w(X) <- v(X)"), // reads v: independent
        ];
        let book = RuleBook::for_node(NodeId(2), &rules);
        assert_eq!(book.relevant_outgoing("b"), &["a".to_owned()].into());
        assert!(book.relevant_outgoing("c").is_empty());
        assert_eq!(book.dependent_incoming(&"a".into()), ["b".to_owned()].into());
    }

    #[test]
    fn incoming_reading_groups_by_relation() {
        let rules = vec![rule("b", 2, 3, "u(X) <- t(X)"), rule("c", 2, 4, "w(X) <- t(X), v(X)")];
        let book = RuleBook::for_node(NodeId(2), &rules);
        assert_eq!(book.incoming_reading("t"), &["b".to_owned(), "c".to_owned()].into());
        assert_eq!(book.incoming_reading("v"), &["c".to_owned()].into());
    }

    #[test]
    fn unknown_links_yield_empty_sets() {
        let book = RuleBook::default();
        assert!(book.relevant_outgoing("zz").is_empty());
        assert!(book.incoming_reading("zz").is_empty());
        assert!(book.acquaintances().is_empty());
        assert!(book.dependent_incoming(&"zz".into()).is_empty());
        assert!(book.is_empty());
    }

    #[test]
    fn tables_equal_the_definitions_at_every_node() {
        let fixtures = [
            vec![rule("a", 1, 2, "t(X) <- s(X)"), rule("b", 2, 3, "u(X) <- t(X)")],
            vec![
                rule("a", 1, 2, "t(X) <- s(X)"),
                rule("b", 2, 3, "u(X) <- t(X)"),
                rule("c", 2, 3, "w(X) <- v(X)"),
            ],
            vec![rule("b", 2, 3, "u(X) <- t(X)"), rule("c", 2, 4, "w(X) <- t(X), v(X)")],
            // Cycles, a self-loop, two rules between one pair of nodes, and
            // a multi-atom head feeding several bodies.
            vec![rule("ab", 1, 2, "t(X) <- s(X)"), rule("ba", 2, 1, "s(X) <- t(X)")],
            vec![rule("ab", 1, 2, "t(X) <- s(X)"), rule("ba", 2, 1, "w(X) <- v(X)")],
            vec![rule("self", 1, 1, "t(X) <- s(X)"), rule("out", 1, 2, "u(X) <- t(X), s(X)")],
            vec![
                rule("p", 1, 2, "t(X), v(X) <- s(X)"),
                rule("q", 1, 2, "t(X) <- r(X)"),
                rule("x", 2, 3, "u(X) <- t(X)"),
                rule("y", 2, 4, "w(X) <- v(X), t(X)"),
                rule("z", 2, 1, "r(X) <- k(X)"),
            ],
        ];
        for rules in &fixtures {
            for node in 0..=5 {
                let node = NodeId(node);
                assert_tables_match_definitions(&RuleBook::for_node(node, rules), node);
            }
        }
    }

    #[test]
    fn link_level_cyclicity_is_exact() {
        // Node-level cycle a<->b, but the relations don't feed each other:
        // a sends t-data to b, b sends u-data (from v) to a — no recursion.
        let rules = vec![rule("ab", 1, 2, "t(X) <- s(X)"), rule("ba", 2, 1, "w(X) <- v(X)")];
        assert!(rule_graph_is_cyclic(&rules), "node-level sees a cycle");
        assert!(!link_graph_is_cyclic(&rules), "link-level knows better");
        // Genuinely recursive: b's export reads what a's export wrote.
        let rec = vec![rule("ab", 1, 2, "t(X) <- s(X)"), rule("ba", 2, 1, "s(X) <- t(X)")];
        assert!(link_graph_is_cyclic(&rec));
        // Chain is acyclic at both levels.
        let chain = vec![rule("a", 1, 2, "t(X) <- s(X)"), rule("b", 2, 3, "u(X) <- t(X)")];
        assert!(!link_graph_is_cyclic(&chain));
    }

    #[test]
    fn cyclicity_detection() {
        let chain = vec![rule("a", 1, 2, "t(X) <- s(X)"), rule("b", 2, 3, "u(X) <- t(X)")];
        assert!(!rule_graph_is_cyclic(&chain));
        let ring = vec![rule("a", 1, 2, "t(X) <- s(X)"), rule("b", 2, 1, "s(X) <- t(X)")];
        assert!(rule_graph_is_cyclic(&ring));
        let self_loop = vec![rule("a", 1, 1, "t(X) <- s(X)")];
        assert!(rule_graph_is_cyclic(&self_loop));
    }
}
