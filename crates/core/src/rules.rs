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
use codb_relational::{GlavRule, PreparedRule};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A GLAV rule plus the pair of nodes it bridges: the body is evaluated at
/// `source`, the head is materialised at `target`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
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

/// A link's number in the [`RuleBook`] that holds it: dense from zero, in
/// rule-name order. An id means something only to the book that assigned
/// it — it never leaves the node, and state indexed by it is re-keyed by
/// name when a rules file replaces the book.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(u32);

impl LinkId {
    /// The id as an index into a per-link table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One rule this node takes part in, as the protocol uses it.
#[derive(Clone, Debug)]
pub struct Link {
    /// The rule's name: what the wire, the WAL, reports and traces call
    /// this link.
    pub name: RuleName,
    /// The rule, ready to fire.
    pub rule: PreparedRule,
    /// Node that evaluates the body and pushes firings.
    pub source: NodeId,
    /// Node that imports the head tuples.
    pub target: NodeId,
    /// No cycle of the link graph reaches the rule ([`AcyclicLinks`]): at
    /// its source it is *held* — an update fires it once, at its close
    /// ([`crate::update`], "Termination").
    pub held: bool,
}

/// The rule book of one node: the rules it participates in, numbered, plus
/// the intra-node dependency relation between them.
///
/// A book is immutable once built — a new rules file replaces it whole —
/// so everything the protocol asks of it per message is derived once, in
/// [`RuleBook::for_node`], and answered by reference: a rule name from the
/// wire is resolved to its [`LinkId`] once, and the dependency tables are
/// lists of ids.
#[derive(Clone, Debug, Default)]
pub struct RuleBook {
    node: NodeId,
    /// Every link, in name order; a link's id is its position.
    links: Vec<Link>,
    /// Links with this node as target.
    outgoing: Vec<LinkId>,
    /// Links with this node as source.
    incoming: Vec<LinkId>,
    acquaintances: BTreeSet<NodeId>,
    /// Per link: if incoming, the outgoing links relevant for it.
    relevant: Vec<Vec<LinkId>>,
    /// Relation → the incoming links whose body reads it.
    readers: BTreeMap<String, Vec<LinkId>>,
}

impl RuleBook {
    /// Builds the book for `node` from the full rule list.
    pub fn for_node(node: NodeId, rules: &[CoordinationRule]) -> Self {
        Self::for_node_in(node, rules, &AcyclicLinks::of(rules))
    }

    /// [`RuleBook::for_node`] with the rule list's link graph peeled
    /// already: a network builds every node's book from one walk.
    pub fn for_node_in(node: NodeId, rules: &[CoordinationRule], acyclic: &AcyclicLinks) -> Self {
        let mine: BTreeMap<&str, (usize, &CoordinationRule)> = rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.target == node || r.source == node)
            .map(|(i, r)| (r.name(), (i, r)))
            .collect();
        let links: Vec<Link> = mine
            .into_values()
            .map(|(i, r)| Link {
                name: r.name().into(),
                rule: PreparedRule::new(r.rule.clone()),
                source: r.source,
                target: r.target,
                held: acyclic.contains(i),
            })
            .collect();
        let ids_where = |end: fn(&Link) -> NodeId| -> Vec<LinkId> {
            let here = links.iter().enumerate().filter(|(_, l)| end(l) == node);
            here.map(|(i, _)| LinkId(u32::try_from(i).expect("more than u32::MAX rules"))).collect()
        };
        let outgoing = ids_where(|l| l.target);
        let incoming = ids_where(|l| l.source);
        let acquaintances =
            links.iter().flat_map(|l| [l.source, l.target]).filter(|n| *n != node).collect();
        let mut relevant = vec![Vec::new(); links.len()];
        let mut readers: BTreeMap<String, Vec<LinkId>> = BTreeMap::new();
        for &i in &incoming {
            let reads = links[i.index()].rule.rule().body_relations();
            relevant[i.index()] = outgoing
                .iter()
                .copied()
                .filter(|o| links[o.index()].rule.head_names().iter().any(|h| reads.contains(&**h)))
                .collect();
            for rel in reads {
                readers.entry(rel.to_owned()).or_default().push(i);
            }
        }
        RuleBook { node, links, outgoing, incoming, acquaintances, relevant, readers }
    }

    /// Number of links; every [`LinkId`] of this book is below it.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// The link numbered `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not of this book.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Every link with its id, in id (and so name) order.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Rules with this node as target ("outgoing links"), in name order.
    pub fn outgoing(&self) -> &[LinkId] {
        &self.outgoing
    }

    /// Rules with this node as source ("incoming links"), in name order.
    pub fn incoming(&self) -> &[LinkId] {
        &self.incoming
    }

    /// The link `name` names, whichever end of it this node is.
    pub fn link_named(&self, name: &str) -> Option<LinkId> {
        let at = self.links.binary_search_by(|l| (*l.name).cmp(name)).ok()?;
        Some(LinkId(at as u32))
    }

    /// The outgoing link `name` names — `None` for a name this book does
    /// not know (a stale rule, or anything else the wire carried) and for
    /// a link this node only serves.
    pub fn outgoing_named(&self, name: &str) -> Option<LinkId> {
        self.link_named(name).filter(|id| self.link(*id).target == self.node)
    }

    /// The incoming link `name` names, as [`RuleBook::outgoing_named`].
    pub fn incoming_named(&self, name: &str) -> Option<LinkId> {
        self.link_named(name).filter(|id| self.link(*id).source == self.node)
    }

    /// All acquaintances: nodes this node shares a rule with (pipe
    /// endpoints, per the paper's topology discovery: "when a node starts,
    /// it creates pipes with those nodes, w.r.t. which it has coordination
    /// rules, or which have coordination rules w.r.t. the given node").
    pub fn acquaintances(&self) -> &BTreeSet<NodeId> {
        &self.acquaintances
    }

    /// Outgoing links *relevant for* incoming link `i`: those whose head
    /// writes a relation read by `i`'s body. Empty for a link this node
    /// does not serve.
    pub fn relevant_outgoing(&self, incoming: LinkId) -> &[LinkId] {
        &self.relevant[incoming.index()]
    }

    /// Incoming links whose body reads `relation` — the links to
    /// re-compute when a delta arrives for it — in name order.
    pub fn incoming_reading(&self, relation: &str) -> &[LinkId] {
        self.readers.get(relation).map_or(&[], Vec::as_slice)
    }

    /// True iff this node has no rules at all (an isolated node).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

/// The rules of a list that no cycle of its *link graph* reaches, found by
/// one walk: a Kahn peel, which removes a rule once every rule feeding it
/// is removed. What a cycle feeds, or what lies on one, is never removed.
///
/// There is an edge from rule `r` to rule `r2` iff data imported by `r`
/// (at `r.target`) can feed `r2`'s body — `r2.source == r.target` and
/// `r`'s head writes a relation `r2`'s body reads: at `r.target`, `r` is
/// an outgoing link relevant for the incoming link `r2`. A peeled rule
/// closes by the paper's rule before its update ends, wherever no fault
/// cuts the update off from an upstream close.
#[derive(Clone, Debug)]
pub struct AcyclicLinks {
    /// By position in the rule list: peeled.
    peeled: Vec<bool>,
}

impl AcyclicLinks {
    /// Peels the link graph of `rules`, in time linear in its edges.
    pub fn of(rules: &[CoordinationRule]) -> Self {
        let mut readers: HashMap<(NodeId, &str), Vec<usize>> = HashMap::new();
        for (i, r) in rules.iter().enumerate() {
            for rel in r.rule.body_relations() {
                readers.entry((r.source, rel)).or_default().push(i);
            }
        }
        let fed: Vec<Vec<usize>> = rules
            .iter()
            .map(|r| {
                let heads = r.rule.head_relations().into_iter();
                heads.filter_map(|h| readers.get(&(r.target, h))).flatten().copied().collect()
            })
            .collect();
        AcyclicLinks { peeled: peel(&fed) }
    }

    /// Whether the rule at position `rule` of the list was peeled.
    pub fn contains(&self, rule: usize) -> bool {
        self.peeled[rule]
    }

    /// Whether the peel left no rule: the link graph has no cycle.
    pub fn is_whole(&self) -> bool {
        self.peeled.iter().all(|&p| p)
    }
}

/// Link-level dependency graph cyclicity: the *exact* recursion test — the
/// [`AcyclicLinks`] peel leaves a rule. A cycle here means the update
/// fixpoint is genuinely recursive (the paper's "fix-point computation may
/// be needed among the nodes").
pub fn link_graph_is_cyclic(rules: &[CoordinationRule]) -> bool {
    !AcyclicLinks::of(rules).is_whole()
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
    let mut index: BTreeMap<NodeId, usize> = BTreeMap::new();
    for r in rules {
        for node in [r.target, r.source] {
            let next = index.len();
            index.entry(node).or_insert(next);
        }
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); index.len()];
    for r in rules {
        adj[index[&r.target]].push(index[&r.source]);
    }
    !peel(&adj).into_iter().all(|p| p)
}

/// Kahn's peel of the directed graph with adjacency lists `adj` over
/// vertices `0..adj.len()`: by vertex, whether it was removed — no cycle
/// reaches it. A graph has a cycle iff the peel leaves a vertex.
fn peel(adj: &[Vec<usize>]) -> Vec<bool> {
    let mut feeding = vec![0usize; adj.len()];
    for &j in adj.iter().flatten() {
        feeding[j] += 1;
    }
    let mut ready: Vec<usize> = (0..adj.len()).filter(|&i| feeding[i] == 0).collect();
    let mut peeled = vec![false; adj.len()];
    while let Some(i) = ready.pop() {
        peeled[i] = true;
        for &j in &adj[i] {
            feeding[j] -= 1;
            if feeding[j] == 0 {
                ready.push(j);
            }
        }
    }
    peeled
}

/// The paper's definitions of the roles and the dependency tables,
/// evaluated directly over the rule list the book was built from — what
/// [`RuleBook`] derived on every call before it kept tables — as names,
/// which every id table of the book must spell when read back through
/// [`RuleBook::link`].
#[cfg(test)]
pub(crate) fn assert_tables_match_definitions(
    book: &RuleBook,
    node: NodeId,
    rules: &[CoordinationRule],
) {
    let names =
        |ids: &[LinkId]| -> Vec<&str> { ids.iter().map(|id| &*book.link(*id).name).collect() };
    let named = |keep: &dyn Fn(&CoordinationRule) -> bool| -> Vec<&str> {
        let set: BTreeSet<&str> = rules.iter().filter(|r| keep(r)).map(|r| r.name()).collect();
        set.into_iter().collect()
    };
    let outgoing = named(&|r| r.target == node);
    let incoming = named(&|r| r.source == node);
    assert_eq!(names(book.outgoing()), outgoing, "outgoing links of {node}");
    assert_eq!(names(book.incoming()), incoming, "incoming links of {node}");

    // Ids are dense and in name order, and a link is the rule of its name.
    let all = named(&|r| r.target == node || r.source == node);
    assert_eq!(book.len(), all.len());
    assert_eq!(book.is_empty(), all.is_empty());
    for ((id, link), name) in book.links().zip(&all) {
        assert_eq!((&*link.name, id.index()), (*name, all.binary_search(name).unwrap()));
        let rule = rules.iter().rfind(|r| r.name() == *name).unwrap();
        assert_eq!(
            (link.rule.rule(), link.source, link.target),
            (&rule.rule, rule.source, rule.target)
        );
        let head: Vec<&str> = rule.rule.head.iter().map(|a| a.relation.as_str()).collect();
        assert_eq!(link.rule.head_names().iter().map(|h| &**h).collect::<Vec<_>>(), head);
        assert_eq!(book.outgoing_named(name), outgoing.contains(name).then_some(id), "{name}");
        assert_eq!(book.incoming_named(name), incoming.contains(name).then_some(id), "{name}");
    }
    for name in rules.iter().map(|r| r.name()).chain(["no-such-rule"]) {
        if !all.contains(&name) {
            assert_eq!((book.outgoing_named(name), book.incoming_named(name)), (None, None));
        }
    }

    let acquaintances: BTreeSet<NodeId> = rules
        .iter()
        .filter(|r| r.target == node || r.source == node)
        .flat_map(|r| [r.source, r.target])
        .filter(|n| *n != node)
        .collect();
    assert_eq!(book.acquaintances(), &acquaintances, "acquaintances of {node}");

    // Held: no cycle of the link graph reaches the rule — by the edge
    // definition, over every pair of rules, and reachability by closure.
    let n = rules.len();
    let feeds = |i: usize, j: usize| {
        let (r, r2) = (&rules[i], &rules[j]);
        let heads = r.rule.head_relations();
        r2.source == r.target && r2.rule.body_relations().iter().any(|b| heads.contains(b))
    };
    let mut reach: Vec<Vec<bool>> = (0..n).map(|i| (0..n).map(|j| feeds(i, j)).collect()).collect();
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                reach[i][j] |= reach[i][k] && reach[k][j];
            }
        }
    }
    for (_, link) in book.links() {
        let i = rules.iter().rposition(|r| r.name() == &*link.name).unwrap();
        let cyclic = (0..n).any(|j| reach[j][j] && (j == i || reach[j][i]));
        assert_eq!(link.held, !cyclic, "{} held at {node}", link.name);
    }

    let rule_of = |id: LinkId| book.link(id).rule.rule();
    for (id, link) in book.links() {
        let reads = link.rule.rule().body_relations();
        let relevant: Vec<&str> = book
            .outgoing()
            .iter()
            .filter(|_| link.source == node)
            .filter(|o| rule_of(**o).head_relations().iter().any(|h| reads.contains(h)))
            .map(|o| &*book.link(*o).name)
            .collect();
        assert_eq!(
            names(book.relevant_outgoing(id)),
            relevant,
            "relevant for {} at {node}",
            link.name
        );
    }

    let mut relations: BTreeSet<&str> = ["no-such-relation"].into();
    for (_, link) in book.links() {
        relations.extend(link.rule.rule().head_relations());
        relations.extend(link.rule.rule().body_relations());
    }
    for rel in relations {
        let readers: Vec<&str> = book
            .incoming()
            .iter()
            .filter(|i| rule_of(**i).body_relations().contains(rel))
            .map(|i| &*book.link(*i).name)
            .collect();
        assert_eq!(names(book.incoming_reading(rel)), readers, "readers of {rel} at {node}");
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

    fn names(book: &RuleBook, ids: &[LinkId]) -> Vec<String> {
        ids.iter().map(|id| book.link(*id).name.to_string()).collect()
    }

    #[test]
    fn book_splits_roles() {
        let rules = vec![rule("a", 1, 2, "t(X) <- s(X)"), rule("b", 2, 3, "u(X) <- t(X)")];
        let book = RuleBook::for_node(NodeId(2), &rules);
        assert!(book.outgoing_named("a").is_some()); // node 2 imports via a
        assert!(book.incoming_named("b").is_some()); // node 2 serves b
        assert_eq!((book.incoming_named("a"), book.outgoing_named("b")), (None, None));
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
        let id = |name| book.incoming_named(name).unwrap();
        assert_eq!(names(&book, book.relevant_outgoing(id("b"))), ["a"]);
        assert!(book.relevant_outgoing(id("c")).is_empty());
        assert!(book.relevant_outgoing(book.outgoing_named("a").unwrap()).is_empty());
    }

    #[test]
    fn incoming_reading_groups_by_relation() {
        let rules = vec![rule("b", 2, 3, "u(X) <- t(X)"), rule("c", 2, 4, "w(X) <- t(X), v(X)")];
        let book = RuleBook::for_node(NodeId(2), &rules);
        assert_eq!(names(&book, book.incoming_reading("t")), ["b", "c"]);
        assert_eq!(names(&book, book.incoming_reading("v")), ["c"]);
    }

    #[test]
    fn unknown_links_yield_empty_sets() {
        let book = RuleBook::default();
        assert_eq!((book.outgoing_named("zz"), book.incoming_named("zz")), (None, None));
        assert!(book.incoming_reading("zz").is_empty());
        assert!(book.acquaintances().is_empty());
        assert!(book.outgoing().is_empty() && book.incoming().is_empty());
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
                assert_tables_match_definitions(&RuleBook::for_node(node, rules), node, rules);
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

    /// A link is held iff no cycle reaches it: on a cycle, or below one,
    /// it is not; beside or above one, it is.
    #[test]
    fn a_link_is_held_iff_no_cycle_reaches_it() {
        let rules = vec![
            rule("in", 1, 2, "t(X) <- s(X)"),
            rule("ab", 2, 3, "u(X) <- t(X)"),
            rule("ba", 3, 2, "t(X) <- u(X)"),
            rule("below", 3, 4, "w(X) <- u(X)"),
            rule("beside", 2, 5, "v(X) <- k(X)"),
        ];
        let held: Vec<(String, bool)> = (1..=5)
            .flat_map(|node| {
                let book = RuleBook::for_node(NodeId(node), &rules);
                let incoming: Vec<LinkId> = book.incoming().to_vec();
                incoming.into_iter().map(move |id| {
                    let link = book.link(id);
                    (link.name.to_string(), link.held)
                })
            })
            .collect();
        let expected =
            [("in", true), ("ab", false), ("beside", true), ("ba", false), ("below", false)];
        assert_eq!(held, expected.map(|(name, held)| (name.to_owned(), held)));
        let acyclic = AcyclicLinks::of(&rules);
        assert!(!acyclic.is_whole());
        assert!((0..rules.len())
            .all(|i| acyclic.contains(i) == ["in", "beside"].contains(&rules[i].name())));
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
