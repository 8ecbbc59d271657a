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
//! *query-time view*: the LDB with the fetched data assembled into clones
//! of the relations it reads — no fetched tuple ever enters an LDB; what a
//! node keeps of a fetch is answers, below. Every node that fetches
//! assembles once, when every whole answer it asked for is in: a server
//! fires its link *semi-naively* over what each nested answer adds
//! (`PreparedRule::fire_since`, the same "substitute R by T'" the global
//! update runs), and `N` evaluates the user query.
//!
//! Query-time answering under cyclic rules is *sound but not complete*
//! w.r.t. the global-update fixpoint (simple paths unroll each cycle at
//! most once) — which is precisely the paper's case for batch updates.
//!
//! ## Where a whole answer lives
//!
//! An answer has two parts: the *local* part, the served link fired whole
//! over the server's LDB — the instalment the paper sends at once — and the
//! *rest*, what the nested answers add, in one final instalment once every
//! nested answer is in. A server names each answer with a [`Tag`] and
//! keeps it per link: the local part is the view the link keeps under the
//! versions of the relations it read (`KeptView`), and the answer served
//! over that view sits beside it (`Answered`: the tag, the rest, and the
//! tag of each nested whole answer it was computed from). Whatever drops or
//! replaces the view drops the answer. A requester keeps the last whole
//! answer of each outgoing link, both parts (`Whole`,
//! `CoDbNode::fetched`), names its tag in every request on the link, and
//! the request *pins* it.
//!
//! Every answer but a leaf's is two instalments: the local one at once,
//! carrying the tag, and the rest; a leaf's one instalment is its local
//! part and the whole. Where the link's view still stands with an answer
//! kept over it through the same nested links, the server *stands by* that
//! answer: the local instalment is the tag alone, if the request named it.
//! A tag names one sequence of firings, so the kept answer stands iff every
//! nested whole answer comes back under the tag the answer recorded for it
//! (`Gathered::stands_for`); the final instalment is then the tag alone
//! too, or the kept rest where the request named another tag. Otherwise
//! the rest is built anew (`CoDbNode::build_rest`) — under a new tag, or,
//! where the view moved, under the one the local instalment carried.
//!
//! An instalment with no firing and the tag the request named is
//! *unchanged* (`Nested::arrive`, the one place): it stands for its part of
//! the pinned answer — the local part for an opening instalment, the rest
//! for a final one, both for a single one (`Part`). So a fetch over
//! unchanged data ships tags and no firing, and its first answer leaves
//! each server as early as on a cold fetch. Every node admits an
//! instalment as it comes, against the LDB, which declares the relations
//! an assembly reads.
//!
//! ## Where a fetch's answer lives at its origin
//!
//! The origin of a fetch does what a server does: it keeps each link's
//! whole answer, and nothing is assembled before every whole is in
//! (`QueryExec`). Then, once, it clones the LDB's relations the query
//! reads, applies each whole in link order and answers the query over them
//! (`answer_fetch`, the one place). A node keeps the last such answer in
//! one slot (`KeptFetch`): the query, the book it ran under, the version
//! of each relation it read, the tag of each link's whole answer it was
//! computed from, and the answer. A fetch of an equal query under the same
//! book over the same versions *stands by* it: if every link's whole comes
//! back under the tag the kept answer recorded, that answer is the answer
//! — nothing is applied or evaluated. Otherwise the fetch assembles, and
//! keeps its answer where every whole came back tagged. A rules file, a
//! restore and an ingest each change the key, so nothing clears the slot.
//! A local query keeps nothing.

use crate::ids::{NodeId, QueryId, ReqId, RuleName, Tag};
use crate::messages::{Body, Envelope};
use crate::node::CoDbNode;
use crate::rules::{LinkId, RuleBook};
use crate::stats::Kind;
use crate::update::WholeView;
use codb_net::{Context, SimTime};
use codb_relational::{
    ConjunctiveQuery, EvalError, Instance, Relation, RuleFiring, Tuple, Version,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A finished query, as handed to the user.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The query id.
    pub query: QueryId,
    /// All answers (may contain marked nulls from existential rules).
    pub answers: Vec<Tuple>,
    /// When the answer was assembled.
    pub finished_at: SimTime,
    /// Whether the network was consulted.
    pub fetched: bool,
    /// Why the query could not be evaluated over this node's view (a
    /// relation the node does not declare, an atom of the wrong arity);
    /// `answers` is then empty.
    pub error: Option<EvalError>,
}

impl QueryResult {
    /// The answers with no marked null (the certain answers).
    pub fn certain(&self) -> Vec<Tuple> {
        self.answers.iter().filter(|t| !t.has_null()).cloned().collect()
    }
}

/// State of one fetch at its origin node: nothing is assembled before
/// every whole answer is in.
#[derive(Debug)]
pub(crate) struct QueryExec {
    query: ConjunctiveQuery,
    /// The book the fetch chose its links under: the answer is kept only
    /// while it is still the node's.
    book: Arc<RuleBook>,
    /// The relations the answer reads: the query's, and the heads of the
    /// links fetched.
    reads: BTreeSet<String>,
    nested: Gathered,
    /// The answer kept over the same key, while the fetch stands by it.
    standing: Option<Arc<KeptFetch>>,
}

/// The tag of each whole answer an answer was computed from, by link, in
/// the order fetched (none where the whole was untagged).
type Inputs = Vec<(RuleName, Option<Tag>)>;

/// The last answer a fetch at this node assembled, and what it was
/// computed from (module docs, "Where a fetch's answer lives at its
/// origin").
#[derive(Debug)]
pub(crate) struct KeptFetch {
    query: ConjunctiveQuery,
    book: Arc<RuleBook>,
    /// The version of each relation the answer read, in `reads` order;
    /// none where the LDB has no such relation.
    versions: Box<[Option<Version>]>,
    /// The tag of each link's whole answer it was computed from.
    wholes: Inputs,
    answers: Vec<Tuple>,
}

/// The whole answers one answer is computed from: each link fetched, in
/// the order chosen, with its whole answer once its request closed.
#[derive(Debug)]
struct Gathered(Vec<(RuleName, Option<Whole>)>);

impl Gathered {
    fn new(links: &[(RuleName, NodeId)]) -> Self {
        Gathered(links.iter().map(|(rule, _)| (rule.clone(), None)).collect())
    }

    /// Files what a request closed with, if it did (`Nested::close`);
    /// returns whether every whole answer is in.
    fn file(&mut self, closed: Option<(RuleName, Whole)>) -> bool {
        if let Some((rule, whole)) = closed {
            if let Some(slot) = self.0.iter_mut().find(|(name, _)| *name == rule) {
                slot.1 = Some(whole);
            }
        }
        self.0.iter().all(|(_, whole)| whole.is_some())
    }

    /// Every whole answer, in link order.
    fn wholes(&self) -> impl Iterator<Item = &Whole> {
        self.0.iter().map(|(_, whole)| whole.as_ref().expect("every nested request closed"))
    }

    /// The tag of each whole answer, by link: what an answer computed
    /// from them records.
    fn tags(&self) -> Inputs {
        self.0
            .iter()
            .map(|(rule, whole)| (rule.clone(), whole.as_ref().and_then(|w| w.tag)))
            .collect()
    }

    /// Whether an answer computed from `inputs` is the answer over these
    /// wholes: every one is in under the tag recorded for its link. A tag
    /// names one sequence of firings, so the same tags are the same inputs.
    fn stands_for(&self, inputs: &Inputs) -> bool {
        self.0.len() == inputs.len()
            && self.0.iter().zip(inputs).all(|((rule, whole), (name, tag))| {
                rule == name && tag.is_some() && whole.as_ref().and_then(|w| w.tag) == *tag
            })
    }
}

/// One whole answer on a link — every firing of its instalments, the local
/// part first — under the tag its server gave it (none where nothing was
/// kept of it).
#[derive(Clone, Debug)]
pub(crate) struct Whole {
    pub tag: Option<Tag>,
    pub firings: Arc<[RuleFiring]>,
    /// How many of `firings` are the local part.
    local: usize,
}

impl Whole {
    /// The firings of `part`.
    fn part(&self, part: Part) -> &[RuleFiring] {
        match part {
            Part::Whole => &self.firings,
            Part::Local => &self.firings[..self.local],
            Part::Rest => &self.firings[self.local..],
        }
    }
}

/// Which part of an answer an instalment carries, told by its `closed` and
/// `tag` alone, since the transport does not order instalments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Part {
    /// A single instalment (`closed: Some(1)`): the whole answer.
    Whole,
    /// The opening instalment of two: not final, and tagged.
    Local,
    /// The final one of two (or an empty close, where a request was given
    /// up): the rest.
    Rest,
}

impl Part {
    fn of(closed: Option<u64>, tag: Option<Tag>) -> Part {
        match (closed, tag) {
            (Some(1), _) => Part::Whole,
            (None, Some(_)) => Part::Local,
            _ => Part::Rest,
        }
    }
}

/// The last answer a served link gave over the view it keeps (the local
/// part): its tag, the rest, and the tag of each nested whole answer it was
/// computed from. While a request chooses the same links and each answers
/// its recorded tag back, this is the answer.
#[derive(Debug)]
pub(crate) struct Answered {
    tag: Tag,
    nested: Inputs,
    rest: Arc<[RuleFiring]>,
}

impl Answered {
    /// Whether a request fetching `links` would compute this answer from
    /// the same links, nested answers aside.
    fn fetched_over(&self, links: &[(RuleName, NodeId)]) -> bool {
        self.nested.iter().map(|n| &n.0).eq(links.iter().map(|l| &l.0))
    }
}

/// State of one fetch request this node is serving for an acquaintance,
/// between its local instalment and its rest.
#[derive(Debug)]
pub(crate) struct Serving {
    /// The requester's request id (globally unique).
    req: ReqId,
    requester: NodeId,
    /// The incoming link being executed.
    rule: RuleName,
    /// The book the request came under: the answer is kept only while it
    /// is still the node's.
    book: Arc<RuleBook>,
    /// The relations the answer reads: the body's, and the heads of the
    /// nested links.
    reads: BTreeSet<String>,
    /// The local part — every firing of the local data, as
    /// [`PreparedRule::fire`](codb_relational::PreparedRule::fire) returned
    /// it: in scan order where the link's rule fires so (one body atom,
    /// projection-free), else sorted, as a projecting link's rest, which
    /// searches it, needs — shared with the link's kept view.
    first: Arc<[RuleFiring]>,
    /// The tag the requester named.
    known: Option<Tag>,
    /// The tag the local instalment went under.
    tag: Tag,
    /// The nested links' whole answers: the request is served when all
    /// are in.
    nested: Gathered,
    /// The answer kept over the view and these links, while the server
    /// stands by it.
    standing: Option<Arc<Answered>>,
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
    /// How many instalments the request drew, and the tag of the whole
    /// answer, once its final instalment told.
    drawn: Option<(u64, Option<Tag>)>,
    /// The whole answer the request named: what an unchanged instalment
    /// stands for part of.
    pinned: Option<Whole>,
    /// The admitted firings of the local part and of the rest, in arrival
    /// order; `None` for a part that came back unchanged.
    local: Option<Vec<RuleFiring>>,
    rest: Option<Vec<RuleFiring>>,
    /// An instalment was rejected: what came is not the answer the server
    /// tagged.
    rejected: bool,
}

impl Nested {
    fn new(parent: ParentRef, rule: RuleName, pinned: Option<Whole>) -> Self {
        Nested {
            parent,
            rule,
            arrived: 0,
            drawn: None,
            pinned,
            local: Some(Vec::new()),
            rest: Some(Vec::new()),
            rejected: false,
        }
    }

    /// The tag the request names.
    fn known(&self) -> Option<Tag> {
        self.pinned.as_ref().and_then(|pinned| pinned.tag)
    }

    /// Counts an instalment in. Returns whether every instalment the
    /// request drew has arrived, the part of the answer the instalment
    /// carries, and whether it is *unchanged* — decided here and nowhere
    /// else: no firing, and the tag the request named. It then stands for
    /// that part of the pinned answer.
    fn arrive(
        &mut self,
        firings: &[RuleFiring],
        closed: Option<u64>,
        tag: Option<Tag>,
    ) -> (bool, Part, bool) {
        let unchanged = firings.is_empty() && tag.is_some() && tag == self.known();
        self.arrived += 1;
        if let Some(drawn) = closed {
            self.drawn.get_or_insert((drawn, tag));
        }
        let done = self.drawn.is_some_and(|(drawn, _)| self.arrived >= drawn);
        (done, Part::of(closed, tag), unchanged)
    }

    /// Records what an instalment brought of `part`: `content`, or, where
    /// it came back unchanged, that the pinned answer's part stands.
    fn take(&mut self, part: Part, unchanged: bool, content: &[RuleFiring]) {
        let slot = match part {
            Part::Whole | Part::Local => &mut self.local,
            Part::Rest => &mut self.rest,
        };
        if !unchanged {
            if let Some(came) = slot {
                came.extend_from_slice(content);
            }
            return;
        }
        *slot = None;
        if part == Part::Whole {
            self.rest = None;
        }
    }

    /// The whole answer of the closed request, and whether it came back
    /// whole and unchanged: each part as it came, or as the pinned answer
    /// has it where it stood.
    fn close(self) -> (RuleName, Whole, bool) {
        let tag = self.drawn.and_then(|(_, tag)| tag).filter(|_| !self.rejected);
        let pinned = self.pinned;
        let part = |came: Option<Vec<RuleFiring>>, part| {
            came.unwrap_or_else(|| pinned.as_ref().expect("a part stood").part(part).to_vec())
        };
        let whole = match (self.local, self.rest) {
            (None, None) => Whole { tag, ..pinned.clone().expect("the answer stood") },
            (local, rest) => {
                let mut firings = part(local, Part::Local);
                let local = firings.len();
                firings.extend(part(rest, Part::Rest));
                Whole { tag, firings: firings.into(), local }
            }
        };
        let unchanged = tag.is_some() && pinned.is_some_and(|pinned| pinned.tag == tag);
        (self.rule, whole, unchanged)
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
    /// copy of them.
    fn overlay_for(&self, relations: &BTreeSet<String>) -> Instance {
        let mut overlay = Instance::new();
        for name in relations {
            if let Some(rel) = self.ldb.get(name) {
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

    /// Mints the tag of a new answer from the request counter: `(epoch,
    /// seq)`, so no two answers this node ever sends, in any incarnation,
    /// share one. (A request's seq counts from 0, a tag's from 1.)
    fn mint_tag(&mut self) -> Tag {
        let ReqId { epoch, seq, .. } = self.next_req();
        Tag { epoch, seq: std::num::NonZeroU64::MIN.saturating_add(seq) }
    }

    /// Asks `source` for the answer of outgoing link `rule` on behalf of
    /// `parent`, naming the tag of the last whole answer fetched on the
    /// link, which the request pins.
    fn ask(
        &mut self,
        ctx: &mut Context<Envelope>,
        parent: ParentRef,
        (rule, source): (RuleName, NodeId),
        path: Box<[NodeId]>,
    ) {
        let req = self.next_req();
        let nested = Nested::new(parent, rule.clone(), self.fetched.get(&rule).cloned());
        let known = nested.known();
        self.nested_parent.insert(req, nested);
        self.post(ctx, source, Body::QueryRequest { req, rule, path, known });
    }

    /// Incoming link `link`'s view, kept for the next fetch.
    fn kept_view(&mut self, link: LinkId) -> Arc<[RuleFiring]> {
        match self.fire_link_whole(link, true) {
            WholeView::Kept(firings) => firings,
            WholeView::Fired(firings) => firings.into(),
        }
    }

    /// Keeps `answer` beside incoming link `link`'s view, if the view is
    /// still `first`, the one the answer's local part was; returns the
    /// answer's tag, or none where nothing was kept.
    fn keep_answer(
        &mut self,
        link: LinkId,
        first: &Arc<[RuleFiring]>,
        answer: Answered,
    ) -> Option<Tag> {
        let view = self.sent_cache[link.index()].view.as_mut();
        let view = view.filter(|view| Arc::ptr_eq(&view.firings, first))?;
        let tag = answer.tag;
        view.answer = Some(Arc::new(answer));
        Some(tag)
    }

    /// The version of each relation of `reads` in the LDB, in order.
    fn ldb_versions(&self, reads: &BTreeSet<String>) -> Box<[Option<Version>]> {
        reads.iter().map(|name| self.ldb.get(name).map(Relation::version)).collect()
    }

    /// The tag of the last whole answer this node fetched on outgoing link
    /// `rule`: what its next request on the link names.
    pub fn fetched_tag(&self, rule: &str) -> Option<Tag> {
        self.fetched.get(rule).and_then(|whole| whole.tag)
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
        let reads = self.overlay_relations(body_rels, &links);
        let book = Arc::clone(&self.book);
        // Over the key of the kept answer, the fetch stands by it.
        let standing = self.kept_fetch.clone().filter(|kept| {
            kept.query == query
                && Arc::ptr_eq(&kept.book, &book)
                && kept.versions == self.ldb_versions(&reads)
        });
        let nested = Gathered::new(&links);
        for link in links {
            self.ask(ctx, ParentRef::Query(query_id), link, Box::new([self.id]));
            if let Some(rep) = self.report.queries.get_mut(&query_id) {
                rep.requests_sent += 1;
            }
        }
        let exec = QueryExec { query, book, reads, nested, standing };
        if exec.nested.0.is_empty() {
            self.answer_fetch(query_id, exec, now);
        } else {
            self.queries.insert(query_id, exec);
        }
    }

    /// Answers a fetch once every whole answer is in: by the kept answer,
    /// where the fetch stood by it, every link came back under the tag it
    /// recorded and the relations it read still stand; else over an overlay
    /// assembled now — the LDB's relations the query reads, each whole
    /// answer applied in link order — kept where every whole came back
    /// tagged under the book the fetch ran under.
    fn answer_fetch(&mut self, query_id: QueryId, exec: QueryExec, now: SimTime) {
        let QueryExec { query, book, reads, nested, standing } = exec;
        let versions = self.ldb_versions(&reads);
        let stands =
            |kept: &Arc<KeptFetch>| nested.stands_for(&kept.wholes) && kept.versions == versions;
        if let Some(kept) = standing.filter(stands) {
            if let Some(rep) = self.report.queries.get_mut(&query_id) {
                rep.kept = true;
            }
            self.finish_query_with(query_id, Ok(kept.answers.clone()), now, true);
            return;
        }
        let mut overlay = self.overlay_for(&reads);
        for whole in nested.wholes() {
            codb_relational::apply_firings(&mut overlay, &whole.firings, &mut self.nulls)
                .expect("each instalment was admitted against the rule head and the schema");
        }
        let answers = codb_relational::answer_query(&query, &overlay);
        let wholes = nested.tags();
        let keep = Arc::ptr_eq(&book, &self.book) && wholes.iter().all(|(_, tag)| tag.is_some());
        if let Some(answers) = answers.as_ref().ok().filter(|_| keep) {
            let kept = KeptFetch { query, book, versions, wholes, answers: answers.clone() };
            self.kept_fetch = Some(Arc::new(kept));
        }
        self.finish_query_with(query_id, answers, now, true);
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
        self.completed_queries.insert(
            query_id,
            QueryResult { query: query_id, answers, finished_at: now, fetched, error },
        );
    }

    /// Serves a fetch request from an acquaintance: answer the local part
    /// at once, then fetch the nested links the rule body reads; the rest
    /// follows once every nested whole answer is in (`answer_rest`).
    pub(crate) fn handle_query_request(
        &mut self,
        ctx: &mut Context<Envelope>,
        from: NodeId,
        req: ReqId,
        rule: RuleName,
        path: Box<[NodeId]>,
        known: Option<Tag>,
    ) {
        let book = Arc::clone(&self.book);
        let Some(id) = book.incoming_named(&rule) else {
            // Stale rule: answer empty so the requester can make progress.
            let answer = Body::QueryAnswer { req, firings: vec![], closed: Some(1), tag: None };
            self.post(ctx, from, answer);
            return;
        };
        let body_rels: BTreeSet<String> =
            book.link(id).rule.rule().body_relations().into_iter().map(str::to_owned).collect();
        let mut path = path.into_vec();
        path.push(self.id);
        let links = self.fetchable_links(&body_rels, &path);
        // The paper: "when node gets a query request, it answers it using
        // local data immediately, and it forwards it through all outgoing
        // links". Over data that did not change since the last request,
        // the local part is the view the link kept then, and where the
        // answer kept over it fetched the same links, the server stands
        // by that answer.
        let first = self.kept_view(id);
        let kept = self.sent_cache[id.index()].view.as_ref().and_then(|view| view.answer.clone());
        let standing = kept.filter(|answer| answer.fetched_over(&links));
        let tag = match &standing {
            Some(answer) => answer.tag,
            None => self.mint_tag(),
        };
        let firings = if known == Some(tag) { Vec::new() } else { first.to_vec() };

        if links.is_empty() {
            // A leaf's local part is the whole answer, in one instalment.
            if standing.is_none() {
                let answer = Answered { tag, nested: Vec::new(), rest: Arc::new([]) };
                self.keep_answer(id, &first, answer);
            }
            self.post(
                ctx,
                from,
                Body::QueryAnswer { req, firings, closed: Some(1), tag: Some(tag) },
            );
            return;
        }
        self.post(ctx, from, Body::QueryAnswer { req, firings, closed: None, tag: Some(tag) });

        let reads = self.overlay_relations(body_rels, &links);
        let nested = Gathered::new(&links);
        for link in links {
            self.ask(ctx, ParentRef::Serving(req), link, path.as_slice().into());
        }
        let serving = Serving {
            req,
            requester: from,
            rule,
            book,
            reads,
            first,
            known,
            tag,
            nested,
            standing,
        };
        self.serving.insert(req, serving);
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
        tag: Option<Tag>,
    ) {
        let Some(nested) = self.nested_parent.get_mut(&req) else {
            return; // stale answer
        };
        let (done, part, unchanged) = nested.arrive(&firings, closed, tag);
        // An unchanged instalment stands for its part of the answer pinned.
        let pinned = nested.pinned.clone().filter(|_| unchanged);
        let content = pinned.as_ref().map_or(&firings[..], |pinned| pinned.part(part));
        let parent = nested.parent;
        let book = Arc::clone(&self.book);
        let link = book.outgoing_named(&nested.rule).map(|id| book.link(id));
        // As on the update path: an instalment that is not an instance of
        // the fetched rule's head is dropped whole, and only counted. (What
        // an unchanged instalment stands for was admitted when it came,
        // under the same rule: a rules file that changes it drops the
        // answer.) Nothing is assembled yet: the LDB declares the relations
        // an assembly would.
        let waiting = match parent {
            ParentRef::Query(query_id) => self.queries.contains_key(&query_id),
            ParentRef::Serving(sreq) => self.serving.contains_key(&sreq),
        };
        let admitted = content.is_empty()
            || unchanged
            || waiting && link.is_some_and(|l| l.rule.rule().admits(&self.ldb, content));
        if waiting && !admitted {
            self.report.count_received(Kind::DataRejected);
        }
        let content = if admitted { content } else { &[] };
        let nested = self.nested_parent.get_mut(&req).expect("present");
        nested.take(part, unchanged, content);
        nested.rejected |= !admitted;
        let (whole, stood) = if done {
            let (rule, whole, unchanged) =
                self.nested_parent.remove(&req).expect("present").close();
            if whole.tag.is_some() {
                self.fetched.insert(rule.clone(), whole.clone());
            }
            (Some((rule, whole)), unchanged)
        } else {
            (None, false)
        };

        match parent {
            ParentRef::Query(query_id) => {
                let Some(exec) = self.queries.get_mut(&query_id) else { return };
                let finished = exec.nested.file(whole);
                if let Some(rep) = self.report.queries.get_mut(&query_id) {
                    rep.answers_received += 1;
                    rep.bytes_received +=
                        firings.iter().map(|f| f.size_bytes() as u64).sum::<u64>();
                    rep.unchanged += u64::from(stood);
                    if rep.first_answer_at.is_none() {
                        rep.first_answer_at = Some(ctx.now());
                    }
                }
                if finished {
                    let exec = self.queries.remove(&query_id).expect("present");
                    self.answer_fetch(query_id, exec, ctx.now());
                }
            }
            ParentRef::Serving(sreq) => {
                let Some(s) = self.serving.get_mut(&sreq) else { return };
                if s.nested.file(whole) {
                    let s = self.serving.remove(&sreq).expect("present");
                    self.answer_rest(ctx, s);
                }
            }
        }
    }

    /// Answers the rest of request `s`, once every nested whole answer is
    /// in, in one final instalment: by the answer the server stood by, if
    /// it stands — the tag alone where the request named it; else by the
    /// rest built anew, kept under the tag the local instalment carried,
    /// or a new one where the server had stood by its kept answer.
    fn answer_rest(&mut self, ctx: &mut Context<Envelope>, s: Serving) {
        let (req, requester) = (s.req, s.requester);
        let stands = s.standing.as_ref().filter(|kept| s.nested.stands_for(&kept.nested));
        let (firings, tag) = match stands {
            Some(kept) if s.known == Some(kept.tag) => (Vec::new(), Some(kept.tag)),
            Some(kept) => (kept.rest.to_vec(), Some(kept.tag)),
            None => {
                let tag = if s.standing.is_some() { self.mint_tag() } else { s.tag };
                let rest = self.build_rest(&s);
                let tag = self.keep_served(s, tag, rest.as_slice().into());
                (rest, tag)
            }
        };
        self.post(ctx, requester, Body::QueryAnswer { req, firings, closed: Some(2), tag });
    }

    /// The rest of request `s`: what the nested whole answers add to the
    /// served link's answer. Over clones of the relations the answer reads,
    /// each whole is applied in link order and the link fired semi-naively:
    /// a firing not found before must use a tuple that whole added. On a
    /// projection-free link each body answer is its own firing, which
    /// `fire_since` yields once, at the whole that adds its last new tuple,
    /// and never one of the local part; on a projecting link a firing found
    /// twice, or held by the local part, is dropped. A rules file may have
    /// retired the served link since the request came: nothing to fire.
    fn build_rest(&mut self, s: &Serving) -> Vec<RuleFiring> {
        let book = Arc::clone(&self.book);
        let Some(id) = book.incoming_named(&s.rule) else { return Vec::new() };
        let rule = &book.link(id).rule;
        let mut overlay = self.overlay_for(&s.reads);
        let mut rest = Vec::new();
        for whole in s.nested.wholes() {
            let grown =
                codb_relational::apply_firings(&mut overlay, &whole.firings, &mut self.nulls)
                    .expect("each instalment was admitted against the rule head and the schema");
            let since = grown.iter().map(|(rel, version)| (&**rel, *version));
            let fresh = rule.fire_since(&overlay, since).expect("schema-validated rule");
            rest.extend(fresh.expect("the overlay's own versions answer"));
        }
        if !rule.projection_free() {
            rest.sort();
            rest.dedup();
            rest.retain(|f| s.first.binary_search(f).is_err());
        }
        rest
    }

    /// Keeps `rest` as the answer `s` finished with under `tag`, if the book
    /// it was served under is still the node's; returns the tag, or none
    /// where nothing was kept.
    fn keep_served(&mut self, s: Serving, tag: Tag, rest: Arc<[RuleFiring]>) -> Option<Tag> {
        let link = s.book.incoming_named(&s.rule).filter(|_| Arc::ptr_eq(&s.book, &self.book))?;
        let answer = Answered { tag, nested: s.nested.tags(), rest };
        self.keep_answer(link, &s.first, answer)
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
        let forged = Body::QueryAnswer { req, firings: vec![bad], closed: None, tag: None };
        net.sim_mut().inject(src.peer(), tgt.peer(), Envelope::control(forged));
        net.sim_mut().run_until_quiescent();

        let node = net.node(tgt);
        assert_eq!(node.report().messages_received["data_rejected"], 1);
        let result = node.completed_queries.values().next().expect("the query finished");
        assert_eq!(result.answers, vec![tup!["ada"], tup!["bob"]]);
    }

    /// A request served over a projection-free link builds its rest from
    /// what each nested whole newly derives with no record of what it
    /// found: the requester's whole answer holds each firing once, and the
    /// fetch answers what a global update materialises — cold, and again
    /// from the answer the server kept.
    #[test]
    fn a_projection_free_link_answers_each_firing_once() {
        let text = "
            node ra
            node sa
            node b
            node c
            schema ra: r(int)
            schema sa: s(int)
            schema b: r(int)
            schema b: s(int)
            schema c: t(int, int)
            data ra: r(1). r(2).
            data sa: s(10). s(20).
            data b: r(3). s(30).
            rule rb @ ra -> b: r(X) <- r(X).
            rule sb @ sa -> b: s(Y) <- s(Y).
            rule bc @ b -> c: t(X, Y) <- r(X), s(Y).
        ";
        let config = crate::NetworkConfig::parse(text).unwrap();
        assert!(config.rules.iter().all(|rule| rule.rule.is_projection_free()));
        let sim = codb_net::SimConfig::default();
        let build = || crate::CoDbNetwork::build(config.clone(), sim.clone()).unwrap();
        let (mut net, mut updated) = (build(), build());
        let c = net.node_id("c").unwrap();
        let query = "ans(X, Y) :- t(X, Y).";
        for round in 0..2 {
            let outcome = net.run_query_text(c, query, true).unwrap();
            let report = &net.node(c).report().queries[&outcome.query];
            if round == 0 {
                // Two, where b streamed three (one per source) before its
                // rest waited for both sources' whole answers.
                assert_eq!(report.answers_received, 2, "b's local part, then its rest");
            }
            let mut shipped = net.node(c).fetched["bc"].firings.to_vec();
            let total = shipped.len();
            shipped.sort();
            shipped.dedup();
            assert_eq!((shipped.len(), total), (9, 9), "each firing of the view once");
            updated.run_update(c);
            let fixpoint = updated.node(c).ldb().get("t").unwrap().sorted();
            assert_eq!(outcome.result.answers, fixpoint);
        }
    }

    /// A copy chain `a → b → c` under a super-peer: a fetch at `c` reads
    /// `t`, which `b`'s `s` feeds, which `a`'s `r` feeds.
    const CHAIN: &str = "
        node a
        node b
        node c
        schema a: r(int, int)
        schema b: s(int, int)
        schema c: t(int, int)
        data a: r(1, 2). r(2, 3).
        data b: s(3, 4).
        data c: t(5, 6).
        rule ab @ a -> b: s(X, Y) <- r(X, Y).
        rule bc @ b -> c: t(X, Y) <- s(X, Y).
    ";
    const FETCH: &str = "ans(X, Y) :- t(X, Y).";

    fn chain() -> crate::CoDbNetwork {
        let config = crate::NetworkConfig::parse(CHAIN).unwrap();
        crate::CoDbNetwork::build_with_superpeer(config, codb_net::SimConfig::default()).unwrap()
    }

    /// Fetches `query` at `c`: the answers, and whether they were the kept
    /// ones.
    fn fetch(net: &mut crate::CoDbNetwork, query: &str) -> (Vec<Tuple>, bool) {
        let c = net.node_id("c").unwrap();
        let outcome = net.run_query_text(c, query, true).unwrap();
        let kept = net.node(c).report().queries[&outcome.query].kept;
        (outcome.result.answers, kept)
    }

    fn answers(pairs: &[(i64, i64)]) -> Vec<Tuple> {
        pairs.iter().map(|&(x, y)| tup![x, y]).collect()
    }

    /// A fetch over the key of the answer the origin kept — the same query
    /// and book, its relations where they stood — with every link back
    /// unchanged is that answer: nothing is assembled or evaluated.
    #[test]
    fn a_second_identical_fetch_is_the_kept_answer() {
        let mut net = chain();
        let first = fetch(&mut net, FETCH);
        assert_eq!(first, (answers(&[(1, 2), (2, 3), (3, 4), (5, 6)]), false));
        let c = net.node_id("c").unwrap();
        let kept = Arc::clone(net.node(c).kept_fetch.as_ref().expect("every whole was tagged"));
        assert_eq!(fetch(&mut net, FETCH), (first.0.clone(), true));
        let still = net.node(c).kept_fetch.as_ref().unwrap();
        assert!(Arc::ptr_eq(&kept, still), "standing by the answer keeps it");
        assert_eq!(fetch(&mut net, FETCH), (first.0, true));
    }

    fn ingest(net: &mut crate::CoDbNetwork, at: &str, relation: &str, tuple: Tuple) {
        let (at, relation) = (net.node_id(at).unwrap(), relation.to_owned());
        net.run_control(at, Body::IngestLocal { relation, tuple });
    }

    /// Whatever changes the key, or a link's whole answer, assembles the
    /// answer anew, and it is the right one; the fetch after it stands by
    /// what that one kept — except after another query, which took the one
    /// slot.
    #[test]
    fn a_fetch_over_a_changed_key_or_link_is_assembled_anew() {
        type Change = fn(&mut crate::CoDbNetwork) -> (&'static str, Vec<Tuple>);
        let base = answers(&[(1, 2), (2, 3), (3, 4), (5, 6)]);
        let changes: [(&str, Change); 5] = [
            ("an ingest at the origin", |net| {
                ingest(net, "c", "t", tup![7, 8]);
                (FETCH, answers(&[(1, 2), (2, 3), (3, 4), (5, 6), (7, 8)]))
            }),
            ("an ingest upstream", |net| {
                ingest(net, "a", "r", tup![9, 9]);
                (FETCH, answers(&[(1, 2), (2, 3), (3, 4), (5, 6), (9, 9)]))
            }),
            ("a different query over the same links", |_| {
                ("ans(Y, X) :- t(X, Y).", answers(&[(2, 1), (3, 2), (4, 3), (6, 5)]))
            }),
            ("a rules file", |net| {
                let config = crate::NetworkConfig::parse(&format!("version 2\n{CHAIN}")).unwrap();
                net.broadcast_rules(config).unwrap();
                (FETCH, answers(&[(1, 2), (2, 3), (3, 4), (5, 6)]))
            }),
            ("a restore", |net| {
                let c = net.node_id("c").unwrap();
                let snapshot = net.node(c).snapshot();
                net.sim_mut().peer_mut(c.peer()).unwrap().restore(snapshot);
                (FETCH, answers(&[(1, 2), (2, 3), (3, 4), (5, 6)]))
            }),
        ];
        for (what, change) in changes {
            let mut net = chain();
            assert_eq!(fetch(&mut net, FETCH), (base.clone(), false), "{what}: cold");
            assert_eq!(fetch(&mut net, FETCH), (base.clone(), true), "{what}: warm");
            let (query, want) = change(&mut net);
            assert_eq!(fetch(&mut net, query), (want.clone(), false), "{what}");
            let again = fetch(&mut net, FETCH);
            if query == FETCH {
                assert_eq!(again, (want, true), "{what}: the fetch after it");
            } else {
                assert_eq!(again, (base.clone(), false), "{what}: the fetch after it");
            }
        }
    }

    /// A rejected instalment leaves its link's whole answer untagged: the
    /// fetch is assembled, from what was admitted, and keeps nothing, so
    /// the answer kept before it still stands.
    #[test]
    fn a_fetch_with_a_rejected_instalment_keeps_nothing() {
        let mut net = chain();
        let base = fetch(&mut net, FETCH).0;
        let (b, c) = (net.node_id("b").unwrap(), net.node_id("c").unwrap());
        let start = Body::StartQuery { query: Box::new(parse_query(FETCH).unwrap()), fetch: true };
        net.sim_mut().inject(crate::HARNESS_PEER, c.peer(), Envelope::control(start));
        while net.node(c).nested_parent.is_empty() {
            assert!(net.sim_mut().step(), "quiescent before the fetch went out");
        }
        let req = *net.node(c).nested_parent.keys().next().unwrap();
        let bad = RuleFiring::new([("t", vec![TField::Const(Value::Int(1))])]);
        let forged = Body::QueryAnswer { req, firings: vec![bad], closed: None, tag: None };
        net.sim_mut().inject(b.peer(), c.peer(), Envelope::control(forged));
        net.sim_mut().run_until_quiescent();

        let node = net.node(c);
        assert_eq!(node.report().messages_received["data_rejected"], 1);
        let (id, result) = node.completed_queries.last_key_value().expect("the fetch finished");
        assert_eq!(result.answers, base);
        assert!(!node.report().queries[id].kept);
        assert_eq!(fetch(&mut net, FETCH), (base, true), "the answer kept before it");
    }
}
