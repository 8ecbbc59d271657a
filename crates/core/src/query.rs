//! Query-time distributed answering (paper §1, §3).
//!
//! "When \[a\] node gets a query request, it answers it using local data
//! immediately, and it forwards it through all outgoing links. Each query
//! request is labelled by a sequence of IDs of nodes it passed through. A
//! node does not propagate a query request, if its ID is contained in the
//! label" — a diffusing computation over *simple paths*.
//!
//! Concretely: a user query at node `N` spawns one fetch request per
//! outgoing link whose head feeds a relation the query reads. The source
//! of such a link recursively fetches whatever its own rule body needs
//! (path-labelled, so cycles cut off) and evaluates the rule body over its
//! *query-time view* (LDB + fetched data, assembled in a per-request
//! overlay — nothing is materialised permanently). It streams: the firings
//! of its local data go back at once, and each nested instalment that
//! arrives is answered *semi-naively* — `GlavRule::fire_deltas` over the
//! tuples that instalment added to the overlay, minus what was already
//! sent — the same "substitute R by T'" the global update runs. `N`
//! assembles the answers into its own overlay and evaluates the user query
//! there.
//!
//! Query-time answering under cyclic rules is *sound but not complete*
//! w.r.t. the global-update fixpoint (simple paths unroll each cycle at
//! most once) — which is precisely the paper's case for batch updates.

use crate::ids::{NodeId, QueryId, ReqId, RuleName};
use crate::messages::{Body, Envelope};
use crate::node::CoDbNode;
use crate::stats::Kind;
use codb_net::{Context, SimTime};
use codb_relational::{ConjunctiveQuery, EvalError, FiringSet, Instance, RuleFiring, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A finished query, as handed to the user.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The query id.
    pub query: QueryId,
    /// All answers (may contain marked nulls from existential rules).
    pub answers: Vec<Tuple>,
    /// Answers with no marked nulls (certain answers).
    pub certain: Vec<Tuple>,
    /// When the answer was assembled.
    pub finished_at: SimTime,
    /// Whether the network was consulted.
    pub fetched: bool,
    /// Why the query could not be evaluated over this node's view (a
    /// relation the node does not declare, an atom of the wrong arity);
    /// `answers` is then empty.
    pub error: Option<EvalError>,
}

/// State of one user query at its origin node.
#[derive(Debug)]
pub(crate) struct QueryExec {
    pub query: ConjunctiveQuery,
    /// Clones of the relations the query reads + the head relations of the
    /// links fetched; never touches the LDB.
    pub overlay: Instance,
    pub pending: BTreeSet<ReqId>,
}

/// State of one fetch request this node is serving for an acquaintance.
#[derive(Debug)]
pub(crate) struct Serving {
    /// The requester's request id (globally unique).
    pub req: ReqId,
    pub requester: NodeId,
    /// The incoming link being executed.
    pub rule: RuleName,
    pub overlay: Instance,
    pub pending: BTreeSet<ReqId>,
    /// The first instalment — every firing of the local data — sorted, as
    /// [`PreparedRule::fire`](codb_relational::PreparedRule::fire) returned
    /// it (or the link's kept view of it): its own record of what was
    /// sent, searched rather than hashed.
    pub first: Vec<RuleFiring>,
    /// Firings streamed in later instalments (instalment diffing).
    pub later: FiringSet,
    /// Instalments sent so far, the first included.
    pub instalments: u64,
}

impl Serving {
    /// Records `firing` as streamed; `false` if it already was.
    fn stream(&mut self, firing: &RuleFiring) -> bool {
        self.first.binary_search(firing).is_err() && self.later.insert(firing.clone())
    }
}

/// A fetch request this node issued and waits on.
#[derive(Debug)]
pub(crate) struct Nested {
    /// Who it was issued for.
    pub parent: ParentRef,
    /// The outgoing link it fetches: its answers must be instances of that
    /// rule's head.
    pub rule: RuleName,
    /// Instalments arrived so far.
    arrived: u64,
    /// How many instalments the request drew, once its final one told.
    drawn: Option<u64>,
}

impl Nested {
    fn new(parent: ParentRef, rule: RuleName) -> Self {
        Nested { parent, rule, arrived: 0, drawn: None }
    }

    /// Counts an instalment in; true once every instalment the request
    /// drew has arrived.
    fn arrive(&mut self, closed: Option<u64>) -> bool {
        self.arrived += 1;
        self.drawn = self.drawn.or(closed);
        self.drawn.is_some_and(|drawn| self.arrived >= drawn)
    }
}

/// Who a nested fetch request was issued for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ParentRef {
    /// A user query at this node.
    Query(QueryId),
    /// A fetch request this node is serving (key into `serving`).
    Serving(ReqId),
}

impl CoDbNode {
    /// Builds an overlay instance holding clones of `relations` (those that
    /// exist locally; missing ones are skipped — validation happens at rule
    /// level). A clone is a set of its own over the LDB's tuples, not a
    /// copy of them, and carries the LDB relation's content stamp, handed
    /// out here if need be: a link's whole fire over the overlay is kept
    /// under the LDB's stamps, where the next request finds it.
    fn overlay_for(&self, relations: &BTreeSet<String>) -> Instance {
        let mut overlay = Instance::new();
        for name in relations {
            if let Some(rel) = self.ldb.get(name) {
                rel.stamp();
                overlay.insert_relation(rel.clone());
            }
        }
        overlay
    }

    /// Outgoing links whose head writes any of `relations`, excluding links
    /// whose source already appears in `path`.
    fn fetchable_links(
        &self,
        relations: &BTreeSet<String>,
        path: &[NodeId],
    ) -> Vec<(RuleName, NodeId)> {
        let outgoing = self.book.outgoing().iter().map(|id| self.book.link(*id));
        outgoing
            .filter(|l| l.rule.head_names().iter().any(|h| relations.contains(&**h)))
            .filter(|l| !path.contains(&l.source))
            .map(|l| (l.name.clone(), l.source))
            .collect()
    }

    /// Relations an overlay needs: the reader's body relations plus the
    /// head relations of every link fetched into it.
    fn overlay_relations(
        &self,
        base: BTreeSet<String>,
        links: &[(RuleName, NodeId)],
    ) -> BTreeSet<String> {
        let mut rels = base;
        for (name, _) in links {
            let link = self.book.outgoing_named(name).expect("a link fetchable_links chose");
            for h in self.book.link(link).rule.head_names() {
                rels.insert(h.to_string());
            }
        }
        rels
    }

    fn next_req(&mut self) -> ReqId {
        let req = ReqId { node: self.id, epoch: self.epoch(), seq: self.next_req_seq };
        self.next_req_seq += 1;
        self.log_counters();
        req
    }

    /// User entry point: run `query` at this node; `fetch` chooses between
    /// query-time network answering and a purely local answer.
    pub(crate) fn start_query(
        &mut self,
        ctx: &mut Context<Envelope>,
        query: ConjunctiveQuery,
        fetch: bool,
    ) {
        let query_id = QueryId { origin: self.id, epoch: self.epoch(), seq: self.next_query_seq };
        self.next_query_seq += 1;
        self.log_counters();
        let now = ctx.now();
        self.report.queries.insert(query_id, crate::stats::QueryReport::new(query_id, now));

        if !fetch {
            let answers = self.local_answer(&query);
            self.finish_query_with(query_id, answers, now, false);
            return;
        }

        let body_rels: BTreeSet<String> =
            query.body.relations().into_iter().map(str::to_owned).collect();
        let links = self.fetchable_links(&body_rels, &[self.id]);
        let overlay_rels = self.overlay_relations(body_rels, &links);
        let overlay = self.overlay_for(&overlay_rels);

        let mut pending = BTreeSet::new();
        for (rule, source) in links {
            let req = self.next_req();
            pending.insert(req);
            self.nested_parent.insert(req, Nested::new(ParentRef::Query(query_id), rule.clone()));
            if let Some(rep) = self.report.queries.get_mut(&query_id) {
                rep.requests_sent += 1;
            }
            self.post(ctx, source, Body::QueryRequest { req, rule, path: vec![self.id] });
        }
        let exec = QueryExec { query, overlay, pending };
        if exec.pending.is_empty() {
            let answers = codb_relational::answer_query(&exec.query, &exec.overlay);
            self.finish_query_with(query_id, answers, now, true);
        } else {
            self.queries.insert(query_id, exec);
        }
    }

    fn finish_query_with(
        &mut self,
        query_id: QueryId,
        answers: Result<Vec<Tuple>, EvalError>,
        now: SimTime,
        fetched: bool,
    ) {
        let (answers, error) = match answers {
            Ok(answers) => (answers, None),
            Err(e) => (Vec::new(), Some(e)),
        };
        if let Some(rep) = self.report.queries.get_mut(&query_id) {
            rep.finished_at = Some(now);
            rep.answers = answers.len() as u64;
        }
        let certain = answers.iter().filter(|t| !t.has_null()).cloned().collect();
        self.completed_queries.insert(
            query_id,
            QueryResult { query: query_id, answers, certain, finished_at: now, fetched, error },
        );
    }

    /// Serves a fetch request from an acquaintance: recursively assemble
    /// this node's query-time view, then execute the rule body over it.
    pub(crate) fn handle_query_request(
        &mut self,
        ctx: &mut Context<Envelope>,
        from: NodeId,
        req: ReqId,
        rule: RuleName,
        path: Vec<NodeId>,
    ) {
        let book = Arc::clone(&self.book);
        let Some(id) = book.incoming_named(&rule) else {
            // Stale rule: answer empty so the requester can make progress.
            self.post(ctx, from, Body::QueryAnswer { req, firings: vec![], closed: Some(1) });
            return;
        };
        let body_rels: BTreeSet<String> =
            book.link(id).rule.rule().body_relations().into_iter().map(str::to_owned).collect();
        let mut path = path;
        path.push(self.id);
        let links = self.fetchable_links(&body_rels, &path);
        // A leaf serves from the LDB itself; the overlay exists for nested
        // answers to be assembled into.
        let overlay = (!links.is_empty())
            .then(|| self.overlay_for(&self.overlay_relations(body_rels, &links)));

        // The paper: "when node gets a query request, it answers it using
        // local data immediately, and it forwards it through all outgoing
        // links" — stream the local instalment now, nested data later.
        // Over data that did not change since the last request, that is
        // the view the link kept then.
        let initial = self.fire_link_whole(id, overlay.as_ref(), true);
        let Some(overlay) = overlay else {
            self.post(ctx, from, Body::QueryAnswer { req, firings: initial, closed: Some(1) });
            return;
        };
        self.post(ctx, from, Body::QueryAnswer { req, firings: initial.clone(), closed: None });

        let mut pending = BTreeSet::new();
        for (nested_rule, source) in links {
            let nested = self.next_req();
            pending.insert(nested);
            self.nested_parent
                .insert(nested, Nested::new(ParentRef::Serving(req), nested_rule.clone()));
            self.post(
                ctx,
                source,
                Body::QueryRequest { req: nested, rule: nested_rule, path: path.clone() },
            );
        }
        self.serving.insert(
            req,
            Serving {
                req,
                requester: from,
                rule,
                overlay,
                pending,
                first: initial,
                later: FiringSet::default(),
                instalments: 1,
            },
        );
    }

    /// Routes an answer instalment to the query or serving context that
    /// requested it.
    pub(crate) fn handle_query_answer(
        &mut self,
        ctx: &mut Context<Envelope>,
        _from: NodeId,
        req: ReqId,
        firings: Vec<RuleFiring>,
        closed: Option<u64>,
    ) {
        let Some(nested) = self.nested_parent.get_mut(&req) else {
            return; // stale answer
        };
        let closed = nested.arrive(closed);
        let (parent, rule) = if closed {
            let nested = self.nested_parent.remove(&req).expect("present");
            (nested.parent, nested.rule)
        } else {
            (nested.parent, nested.rule.clone())
        };
        let bytes: usize = firings.iter().map(RuleFiring::size_bytes).sum();
        // As on the update path: an instalment that is not an instance of
        // the fetched rule's head is dropped whole, and only counted; an
        // admitted one returns the tuples it added, per relation.
        let book = Arc::clone(&self.book);
        let link = book.outgoing_named(&rule).map(|id| book.link(id));
        let mut assemble = |overlay: &mut Instance| {
            if firings.is_empty() || link.is_some_and(|l| l.rule.rule().admits(overlay, &firings)) {
                codb_relational::apply_firings(overlay, &firings, &mut self.nulls)
                    .expect("the batch was admitted against the rule head and the schema")
            } else {
                self.report.count_received(Kind::DataRejected);
                BTreeMap::new()
            }
        };
        match parent {
            ParentRef::Query(query_id) => {
                let Some(exec) = self.queries.get_mut(&query_id) else { return };
                assemble(&mut exec.overlay);
                if closed {
                    exec.pending.remove(&req);
                }
                if let Some(rep) = self.report.queries.get_mut(&query_id) {
                    rep.answers_received += 1;
                    rep.bytes_received += bytes as u64;
                    if rep.first_answer_at.is_none() {
                        rep.first_answer_at = Some(ctx.now());
                    }
                }
                if self.queries[&query_id].pending.is_empty() {
                    let exec = self.queries.remove(&query_id).expect("present");
                    let answers = codb_relational::answer_query(&exec.query, &exec.overlay);
                    self.finish_query_with(query_id, answers, ctx.now(), true);
                }
            }
            ParentRef::Serving(sreq) => {
                let Some(s) = self.serving.get_mut(&sreq) else { return };
                let deltas = assemble(&mut s.overlay);
                if closed {
                    s.pending.remove(&req);
                }
                // Stream the increment, semi-naively: a firing not yet sent
                // must use a tuple this instalment added, because what was
                // sent is every firing of the overlay as it was before.
                // A rules file may have retired the served link since the
                // request came: nothing more to fire, the request still
                // closes.
                let mut fresh = match book.incoming_named(&s.rule) {
                    Some(id) => book
                        .link(id)
                        .rule
                        .fire_deltas(&s.overlay, &deltas)
                        .expect("schema-validated rule"),
                    None => Vec::new(),
                };
                fresh.retain(|f| s.stream(f));
                let finished = s.pending.is_empty();
                let sends = !fresh.is_empty() || finished;
                s.instalments += u64::from(sends);
                let (requester, original_req, drawn) = (s.requester, s.req, s.instalments);
                if finished {
                    self.serving.remove(&sreq);
                }
                if sends {
                    let closed = finished.then_some(drawn);
                    self.post(
                        ctx,
                        requester,
                        Body::QueryAnswer { req: original_req, firings: fresh, closed },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::tests::link;
    use codb_relational::{parse_query, tup, TField, Value};

    #[test]
    fn parent_ref_is_copy_and_debug() {
        let q = ParentRef::Query(QueryId { origin: NodeId(0), epoch: 0, seq: 1 });
        let s = ParentRef::Serving(ReqId { node: NodeId(1), epoch: 0, seq: 2 });
        let _q2 = q;
        assert!(format!("{q:?}").contains("Query"));
        assert!(format!("{s:?}").contains("Serving"));
    }

    /// An answer instalment that is not an instance of the fetched rule's
    /// head is dropped and counted; the query still finishes on the real
    /// answer.
    #[test]
    fn a_misshapen_answer_is_dropped_and_the_query_still_finishes() {
        let (mut net, src, tgt) = link("person(N, A)");
        let query = parse_query("ans(N) :- person(N, A).").unwrap();
        let start = Body::StartQuery { query: Box::new(query), fetch: true };
        net.sim_mut().inject(crate::HARNESS_PEER, tgt.peer(), Envelope::control(start));
        while net.node(tgt).nested_parent.is_empty() {
            assert!(net.sim_mut().step(), "quiescent before the fetch went out");
        }
        let req = *net.node(tgt).nested_parent.keys().next().unwrap();
        let bad = RuleFiring::new([("person", vec![TField::Const(Value::Int(1))])]);
        let forged = Body::QueryAnswer { req, firings: vec![bad], closed: None };
        net.sim_mut().inject(src.peer(), tgt.peer(), Envelope::control(forged));
        net.sim_mut().run_until_quiescent();

        let node = net.node(tgt);
        assert_eq!(node.report().messages_received["data_rejected"], 1);
        let result = node.completed_queries.values().next().expect("the query finished");
        assert_eq!(result.answers, vec![tup!["ada"], tup!["bob"]]);
    }
}
