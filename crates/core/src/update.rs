//! The global update algorithm (paper §3).
//!
//! A dedicated node starts a global update; the request floods the network
//! with a unique [`UpdateId`]. Every node executes its *incoming links*
//! (the rules other nodes use to import data from it) over its LDB and
//! pushes the resulting firings to the rule targets; the request rides the
//! first of that data to each target instead of travelling beside it
//! ([`Body::UpdateData`]'s `request`). When data arrives on
//! an *outgoing link* `o`, the new tuples `T' = T \ R` are materialised
//! (fresh marked nulls for existential placeholders; a ground firing is
//! new iff the LDB lacks its tuple), and every incoming link *dependent on*
//! `o` is re-computed **by substituting `R` with `T'`** (semi-naive delta
//! evaluation); results already sent on a link are removed before sending
//! (the per-link *sent cache*, or a projection-free link's mark).
//!
//! That is the paper's eager flood, and links on or below a cycle of the
//! link graph run it. A link no cycle reaches is *held* instead
//! ([`crate::rules::AcyclicLinks`]): it fires nothing at the start, at a
//! demand or on an arrival — what arrives is materialised and waits in the
//! log behind the link's mark — and fires once, since its mark, when the
//! paper's close rule closes it; its firings carry the close (one
//! `UpdateData` with `closes` set). So a link of an acyclic network ships
//! one data message per update where the flood ships one per upstream
//! wave: n − 1 on Chain(n), not n(n − 1)/2. Its data reports 1 + the
//! longest arrival it held as its `hops`: the batch rode that far.
//!
//! Holding would idle a bandwidth-limited pipe while the upstream closes,
//! so the node's pipe ([`crate::NodeSettings::pipe`]) sets a *valve*: once
//! the tuples past a held link's mark come to bandwidth × latency bytes,
//! they go at once and the link stays open. An unlimited pipe never opens
//! it.
//!
//! ## Termination
//!
//! Two cooperating mechanisms:
//!
//! 1. **The paper's open/closed link states.** An incoming link closes —
//!    and the source notifies the target with `LinkClosed`, or in the data
//!    a held link ships as it closes — once every
//!    outgoing link *relevant for* it is closed (immediately, for links
//!    with no relevant outgoing links). A node is *closed* when all its
//!    outgoing links are closed. In acyclic dependency graphs this closes
//!    everything progressively, with no global coordination.
//! 2. **Dijkstra–Scholten diffusing computation** as the global backstop
//!    for cyclic components (the paper frames its propagation as an
//!    "extension of diffusing computation [Lynch 1996]"). Every
//!    `UpdateRequest` / `DemandLink` / `UpdateData` / `LinkClosed` message
//!    is a DS message (data carrying the request is one): the first one
//!    *engages* a node under its sender (no credit returned yet); every
//!    other one is credited back (`DsAck`) right after processing. A node
//!    returns its engagement credit, in a sequenced `DsAck`, once its own
//!    deficit is zero. When the initiator's deficit reaches zero the whole
//!    computation is quiescent, and `UpdateComplete` force-closes the links
//!    cyclic dependencies kept open.
//!
//! A held link needs the first mechanism's close to ship at all, so a node
//! stays engaged while one of its held links is open: disengaged, it would
//! be engaged again by the data that closes its upstream, and the chain of
//! credits behind the last close would only grow. Where a fault may have
//! cut an update off from an upstream close — a rules file, a neighbour's
//! new incarnation, a peer that leaves, an adoption request — the node
//! *releases* the update: each open held link ships what it holds, without
//! a close, and from then on the update runs eagerly there
//! (`CoDbNode::release`). A node that has not seen the request holds
//! nothing: data that outran it (parked toward a restarted node) is
//! forwarded at once, and a release there ships every link, as the start
//! the node will not see again would have. A restarted node may also hold
//! for a close its dead incarnation was sent, so whoever hears the new
//! incarnation tells it of every update it could be holding in: an
//! adoption request for each open one (the initiator too), and the
//! completion of each finished one a message still unacknowledged toward
//! it belongs to (`CoDbNode::release_at`); a node that completes while
//! engaged disengages then.
//!
//! The completion goes down the *engagement tree*, not to every
//! acquaintance. A node records a peer as its child when the peer's
//! disengagement `DsAck` arrives — the deficit waits for exactly that
//! message, so by the time the initiator completes every node that ever
//! engaged is recorded somewhere, and a node that engaged twice, under two
//! parents, is recorded at both (the union; completion is idempotent).
//! Each node passes the completion to its children that are still
//! acquaintances: about one message per node the update reached, where the
//! flood it replaces cost one per acquaintance pair.
//!
//! Where a fault tears the tree, a node asks to be *adopted*: a sequenced
//! `DsAck` of no credit to every acquaintance, which records it as a child
//! (a node that has already completed answers with the completion, and a
//! node that had not seen the end asks in turn, once). A node asks when a
//! rules file closes its pipe to an acquaintance (its parent, or the
//! disengagement in flight to it, may be gone), when a neighbour restarts
//! from its store (the dead incarnation's children went with it), when a
//! credit comes back to a node that holds no state for the update (it
//! restarted since), and when the update first reaches it from a peer
//! that has left. A neighbour's restart also writes off the engagement
//! credits its dead incarnation held (`Reliable::heard`). A node asked to
//! adopt in an update it started in a dead incarnation ends it instead:
//! nobody is left to detect its quiescence.
//!
//! ## What changed since
//!
//! The paper's start fires every incoming link over the whole LDB and
//! deletes what was already sent, which the sent caches, outliving the
//! update, make nearly all of it. A relation is its insertion log instead
//! ([`codb_relational::Relation::since`]), and each link's `SentCache`
//! keeps a *mark*: the version of each body atom's relation it covers. A
//! start, a demand and a rejoin repair fire what the relations gained
//! since the mark, or the link whole where one does not answer for it (no
//! mark yet; an LDB replaced by [`CoDbNode::restore`] or recovery), then
//! mark the LDB (`CoDbNode::fire_link_unsent`). An arrival that propagates
//! moves the marks past it (`CoDbNode::fire_arrival`); at the hop-limit
//! valve or on a link a scoped update did not demand the mark stays
//! behind, and the next start fires the tuples from the log. Behind a
//! held link the mark stays too, until the link closes (or the valve
//! opens) and fires since it. Firings dropped on a closed link take the
//! mark back. A projection-free link
//! (every body variable in its head) ships each firing once while its mark
//! stands, so the mark is its whole record: it keeps no sent firing.

use crate::ids::{NodeId, RuleName, UpdateId};
use crate::messages::{Body, Envelope, Mark};
use crate::node::CoDbNode;
use crate::query::Answered;
use crate::rules::{Link, LinkId, RuleBook};
use crate::stats::{by_name, Kind};
use codb_net::{Context, SimTime};
use codb_relational::{Atom, FiringSet, Instance, Relation, RuleFiring, Tuple, Version};
use codb_store::Span;
use codb_trace::TraceEvent;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

/// What one update knows about one link of the node's rule book.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkState {
    /// Scoped mode: an incoming link activated by a `DemandLink`.
    pub active_in: bool,
    /// Scoped mode: an outgoing link this node has demanded upstream.
    pub requested_out: bool,
    /// An outgoing link known closed (`LinkClosed` received, or forced at
    /// completion).
    pub out_closed: bool,
    /// An incoming link this node has closed (`LinkClosed` sent).
    pub in_closed: bool,
    /// `UpdateData` messages sent on this incoming link (carried in the
    /// link's `LinkClosed`).
    pub data_sent: u64,
    /// `UpdateData` messages processed on this outgoing link.
    pub data_received: u64,
    /// A close notification whose data has not fully arrived yet: the
    /// data message count it expects.
    pub pending_close: Option<u64>,
    /// A held incoming link: the hops its data reports, 1 + the longest
    /// arrival in this update that grew a relation its body reads (0: none
    /// yet, and it reports 1, as a start does).
    pub held_hops: u64,
}

/// What the sender side of one incoming link remembers from update to
/// update, and from fetch to fetch. One value, so that whatever drops the
/// firings drops the mark and what a fetch kept with them.
#[derive(Clone, Debug, Default)]
pub(crate) struct SentCache {
    /// The firings already shipped on the link, by update data and rejoin
    /// repair alike (none on a projection-free link).
    pub(crate) sent: FiringSet,
    /// The version of each body atom's relation, in body order, that
    /// `sent` covers (module docs, "What changed since"); none, nothing is.
    pub(crate) mark: Option<Box<[Version]>>,
    /// Where the link's next batch starts: how far the batches shipped
    /// since `sent` was last emptied reach ([`crate::messages::Mark`]).
    pub(crate) shipped: Shipped,
    /// The link's last whole fire for a fetch it served, kept under what
    /// it read ([`CoDbNode::fire_link_whole`]), with the answer served
    /// over it. (Boxed: a cache that serves no fetch pays a pointer.)
    pub(crate) view: Option<Box<KeptView>>,
}

impl SentCache {
    /// True iff nothing is remembered: no firing, no mark, no view.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.sent.is_empty() && self.mark.is_none() && self.view.is_none()
    }
}

/// How far the batches a link shipped reach, in the log of its body's one
/// relation: where its next batch starts, and what its target must hold
/// before that batch for the batch's mark to hold. Reset with the sent
/// set, whose firings those batches shipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Shipped {
    /// Nothing since the sent set was emptied: the next batch starts at
    /// the start of the log.
    #[default]
    Nothing,
    /// Nothing since the link took the mark its target reported at this
    /// position: the next batch starts there, anchored on it.
    Reported(u64),
    /// Batches up to this position.
    Upto(u64),
    /// A batch that carried no mark: the target can tell nothing of the
    /// link's batches until the sent set is emptied.
    Untold,
}

/// Every firing of a link over the relations its body read, and the
/// version each body atom's relation had, in body order: while the
/// relations answer for those versions, the view is these firings and
/// what the relations gained since fires ([`CoDbNode::fire_link_whole`]).
/// A served fetch's local part is this view, so the answer the fetch was
/// served lives here too, and goes with the view.
#[derive(Clone, Debug)]
pub(crate) struct KeptView {
    versions: Box<[Version]>,
    pub(crate) firings: Arc<[RuleFiring]>,
    /// The last whole answer served over this view (`crate::query`, "Where
    /// a whole answer lives").
    pub(crate) answer: Option<Arc<Answered>>,
}

/// A link's whole view, as [`CoDbNode::fire_link_whole`] hands it out: the
/// one the link keeps, shared, or a fire nobody keeps.
pub(crate) enum WholeView {
    Kept(Arc<[RuleFiring]>),
    Fired(Vec<RuleFiring>),
}

impl WholeView {
    /// The firings, to send.
    pub(crate) fn into_vec(self) -> Vec<RuleFiring> {
        match self {
            WholeView::Kept(firings) => firings.to_vec(),
            WholeView::Fired(firings) => firings,
        }
    }
}

thread_local! {
    static WHOLE_FIRES: Cell<u64> = const { Cell::new(0) };
}

/// How many whole views links have fired on this thread so far (a kept
/// view found again is not fired). A count to take differences of, as
/// [`codb_relational::index_builds`] is: a test that says "this fetch
/// derived nothing again" reads it before and after.
pub fn whole_fires() -> u64 {
    WHOLE_FIRES.get()
}

/// Per-update state at one node.
#[derive(Debug)]
pub struct UpdateState {
    /// The update.
    pub update: UpdateId,
    /// True at the node that started the update.
    pub initiator: bool,
    /// Engaged in the DS tree (initiator: from start to completion).
    pub engaged: bool,
    /// DS parent (the sender of the engaging message).
    pub parent: Option<NodeId>,
    /// Every peer that engaged under this node in this update, recorded
    /// when its sequenced `DsAck` arrived, and every peer that asked to be
    /// adopted: the union, each once. Completion goes down to them.
    pub children: Vec<NodeId>,
    /// This node has asked its acquaintances to adopt it.
    pub adopted: bool,
    /// Unreturned DS credits for messages this node sent.
    pub deficit: u64,
    /// Whether the update request has been processed here.
    pub request_seen: bool,
    /// Query-dependent (scoped) mode: only demanded links participate.
    pub scoped: bool,
    /// Set once `UpdateComplete` has been processed (or initiated).
    pub complete: bool,
    /// Held links forward eagerly here from now on: a fault may have cut
    /// the update off from an upstream close (`CoDbNode::release`).
    pub released: bool,
    /// Per-link state, indexed by [`LinkId`] — the ids of the node's
    /// *current* book: [`UpdateState::renumber`] follows every swap.
    links: Vec<LinkState>,
}

impl UpdateState {
    /// Fresh state for an update first seen now, at a node whose book
    /// numbers `links` links and names `acquaintances` acquaintances (room
    /// for as many children, so that recording one allocates nothing).
    pub fn new(update: UpdateId, links: usize, acquaintances: usize) -> Self {
        UpdateState {
            update,
            initiator: false,
            engaged: false,
            parent: None,
            children: Vec::with_capacity(acquaintances),
            adopted: false,
            deficit: 0,
            request_seen: false,
            scoped: false,
            complete: false,
            released: false,
            links: vec![LinkState::default(); links],
        }
    }

    /// What this update knows about `link`.
    pub fn link(&self, link: LinkId) -> &LinkState {
        &self.links[link.index()]
    }

    fn link_mut(&mut self, link: LinkId) -> &mut LinkState {
        &mut self.links[link.index()]
    }

    /// True once the update is over here: complete, every credit back, and
    /// disengaged (the initiator, the tree's root, stays engaged).
    pub fn is_settled(&self) -> bool {
        self.complete && self.deficit == 0 && (self.initiator || !self.engaged)
    }

    /// True iff the given outgoing link is still open.
    pub fn is_out_open(&self, link: LinkId) -> bool {
        !self.link(link).out_closed
    }

    /// True iff the given incoming link takes part in the update (a
    /// scoped one: it was demanded) and has not closed.
    fn is_in_open(&self, link: LinkId) -> bool {
        let state = self.link(link);
        !state.in_closed && (!self.scoped || state.active_in)
    }

    /// Follows a rules file: the state of every link is carried to the id
    /// the link's *name* has in `new` — where the name-keyed state this
    /// replaces would have found it — a link `new` does not name is
    /// forgotten, and a link only `new` names starts fresh. After this no
    /// id of `old` is ever used on the state again.
    pub(crate) fn renumber(&mut self, old: &RuleBook, new: &RuleBook) {
        let mut links = vec![LinkState::default(); new.len()];
        for (id, link) in old.links() {
            if let Some(kept) = new.link_named(&link.name) {
                links[kept.index()] = std::mem::take(self.link_mut(id));
            }
        }
        self.links = links;
    }
}

impl CoDbNode {
    /// The state of `update`, made on first touch.
    pub(crate) fn update_entry(&mut self, update: UpdateId) -> &mut UpdateState {
        let (links, acquaintances) = (self.book.len(), self.book.acquaintances().len());
        self.updates.entry(update).or_insert_with(|| UpdateState::new(update, links, acquaintances))
    }

    fn state_mut(&mut self, update: UpdateId) -> &mut UpdateState {
        self.updates.get_mut(&update).expect("state created by caller")
    }

    /// Mints the next update id — `(origin, epoch, seq)`, so ids stay
    /// unique across crashes by construction — and WAL-logs the bumped
    /// counter so a recovered incarnation resumes the id space.
    fn mint_update_id(&mut self) -> UpdateId {
        let update = UpdateId { origin: self.id, epoch: self.epoch(), seq: self.next_update_seq };
        self.next_update_seq += 1;
        self.log_counters();
        update
    }

    /// Harness/user entry point: start a global update at this node.
    pub(crate) fn start_update(&mut self, ctx: &mut Context<Envelope>) {
        let update = self.mint_update_id();
        let now = ctx.now();
        let st = self.update_entry(update);
        st.initiator = true;
        st.engaged = true;
        self.report.update_mut(update, now);
        self.process_update_request(ctx, None, update);
        self.maybe_disengage(ctx, update);
    }

    /// Harness/user entry point: start a query-dependent (scoped) update —
    /// materialise only data feeding `relations` at this node (the paper's
    /// "query-dependent update requests").
    pub(crate) fn start_scoped_update(
        &mut self,
        ctx: &mut Context<Envelope>,
        relations: Vec<String>,
    ) {
        let update = self.mint_update_id();
        let now = ctx.now();
        let st = self.update_entry(update);
        st.initiator = true;
        st.engaged = true;
        st.scoped = true;
        st.request_seen = true; // scoped mode never floods a request
        self.report.update_mut(update, now);
        let demanded: BTreeSet<String> = relations.into_iter().collect();
        self.demand_relations(ctx, update, &demanded);
        self.check_node_closed(update, now);
        self.maybe_disengage(ctx, update);
    }

    /// Demands every outgoing link whose head writes one of `relations`
    /// (idempotent per link).
    fn demand_relations(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        relations: &BTreeSet<String>,
    ) {
        let book = Arc::clone(&self.book);
        for &id in book.outgoing() {
            let link = book.link(id);
            if !link.rule.head_names().iter().any(|h| relations.contains(&**h)) {
                continue;
            }
            let st = self.state_mut(update).link_mut(id);
            if !std::mem::replace(&mut st.requested_out, true) {
                self.post(ctx, link.source, Body::DemandLink { update, rule: link.name.clone() });
            }
        }
    }

    /// Serves a demand: activates the incoming link, ships its current
    /// data, and recursively demands what the rule body reads.
    fn process_demand_link(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        rule: RuleName,
    ) {
        let now = ctx.now();
        self.report.update_mut(update, now);
        let book = Arc::clone(&self.book);
        let st = self.state_mut(update);
        st.scoped = true;
        st.request_seen = true;
        let Some(id) = book.incoming_named(&rule) else {
            return; // stale rule name after a reconfiguration
        };
        if std::mem::replace(&mut st.link_mut(id).active_in, true) {
            return; // already serving this link
        }
        // Initial shipment: all the link's mark does not cover.
        self.fire_first(ctx, update, id, false);
        // Recursive demand for the body's inputs.
        let body_rels: BTreeSet<String> =
            book.link(id).rule.rule().body_relations().into_iter().map(str::to_owned).collect();
        self.demand_relations(ctx, update, &body_rels);
        self.check_in_link_closes(ctx, update);
        self.check_node_closed(update, now);
    }

    /// DS wrapper: engagement bookkeeping around the DS-counted message
    /// kinds, and the choice of what answers the message. `epoch` is the
    /// sender's incarnation, which a mark the message carries is of.
    pub(crate) fn dispatch_ds(
        &mut self,
        ctx: &mut Context<Envelope>,
        from: NodeId,
        epoch: u64,
        body: Body,
    ) {
        let update = body.update_id().expect("DS messages carry an update id");
        let fresh = !self.updates.contains_key(&update);
        let acquainted = self.book.acquaintances().contains(&from);
        let st = self.update_entry(update);
        // (A node engages under an acquaintance only: a message still in
        // flight from a peer that has since left the network is handled,
        // but that peer has written its credits off, and nothing could
        // tell it of a disengagement.)
        let engaging = !st.engaged && !st.initiator && acquainted;
        // The engaging message is answered by a plain ack, which may ride
        // whatever its handling posts back; its credit is held until
        // disengagement. Any other is answered by its credit: the ack it is
        // owed is set aside for that reply, whatever else leaves for the
        // sender meanwhile.
        let reserved = if engaging {
            let st = self.state_mut(update);
            st.engaged = true;
            st.parent = Some(from);
            None
        } else {
            self.reliable.take_owed()
        };
        match body {
            Body::UpdateRequest { update } => self.process_update_request(ctx, Some(from), update),
            Body::DemandLink { update, rule } => self.process_demand_link(ctx, update, rule),
            Body::UpdateData { update, rule, firings, hops, request, closes, mark } => {
                if request {
                    self.process_update_request(ctx, Some(from), update);
                }
                let batch = Batch { firings, hops, mark: mark.map(|mark| mark.of_epoch(epoch)) };
                self.process_update_data(ctx, update, &rule, batch, closes)
            }
            Body::LinkClosed { update, rule, data_msgs } => {
                self.process_link_closed(ctx, update, &rule, data_msgs)
            }
            _ => unreachable!("dispatch_ds called for non-DS body"),
        }
        if !engaging {
            self.post_credit_reply(ctx, from, update, reserved);
        }
        if fresh && !acquainted {
            // The update reached this node outside every tree.
            self.seek_adoption(ctx, update);
        }
        self.maybe_disengage(ctx, update);
    }

    /// Handles the update request, alone or carried by update data (first
    /// receipt does the work; duplicates are no-ops beyond DS crediting).
    fn process_update_request(
        &mut self,
        ctx: &mut Context<Envelope>,
        from: Option<NodeId>,
        update: UpdateId,
    ) {
        let now = ctx.now();
        self.report.update_mut(update, now).requests_received += 1;
        let st = self.state_mut(update);
        if st.request_seen {
            return;
        }
        st.request_seen = true;

        // Initial execution of every incoming link: over what its relations
        // gained since its mark, or over the whole LDB — a held link's only
        // where it closes at once. The first data message to each target
        // but the sender carries the request.
        let book = Arc::clone(&self.book);
        let mut carried: Vec<NodeId> = Vec::new();
        for &id in book.incoming() {
            let target = book.link(id).target;
            let request = Some(target) != from && !carried.contains(&target);
            if self.fire_first(ctx, update, id, request) && request {
                carried.push(target);
            }
        }

        // Flood the request, alone, to every acquaintance but the sender
        // that no data carried it to.
        for &acq in book.acquaintances() {
            if Some(acq) != from && !carried.contains(&acq) {
                self.post(ctx, acq, Body::UpdateRequest { update });
            }
        }

        self.check_in_link_closes(ctx, update);
        self.check_node_closed(update, now);
    }

    /// Handles a batch of firings arriving on outgoing link `rule`.
    fn process_update_data(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        rule: &str,
        batch: Batch,
        closes: u32,
    ) {
        let now = ctx.now();
        let hops = batch.hops;
        let bytes: usize = batch.firings.iter().map(RuleFiring::size_bytes).sum();
        {
            let rep = self.report.update_mut(update, now);
            by_name(&mut rep.received, rule).record(batch.firings.len() as u64, bytes as u64);
            rep.longest_path = rep.longest_path.max(hops);
        }
        // The one place a data message's rule name is looked up: from here
        // on the link is its id.
        let Some(link) = self.book.outgoing_named(rule) else {
            // Stale rule (configuration changed mid-update): data ignored.
            return;
        };
        let (grown, propagate) = self.arrive(link, batch);

        // Count the data message and resolve a deferred close whose data
        // has now fully arrived (loss + retransmission can reorder data
        // past the close notification, or past the data that carries it).
        let st = self.state_mut(update).link_mut(link);
        st.data_received += 1;
        if closes > 0 {
            st.pending_close = Some(u64::from(closes));
        }
        let deferred_close_ready =
            st.pending_close.is_some_and(|expected| st.data_received >= expected);

        if !grown.is_empty() {
            let added = gained(&self.ldb, &grown);
            let rep = self.report.update_mut(update, now);
            rep.tuples_added += added;
            if propagate {
                // Re-compute dependent incoming links by substituting
                // R with T'.
                self.propagate_deltas(ctx, update, &grown, hops + 1);
            } else {
                rep.truncated = true;
            }
        }

        if deferred_close_ready {
            self.commit_link_close(ctx, update, link);
        }
    }

    /// The arrival of a batch on outgoing link `link`, update data and
    /// rejoin repair alike: check the batch, apply what is new
    /// ([`codb_store::apply_arrived`]: `T' = T \ R`), move the link's
    /// kept mark where the batch joins on to it
    /// ([`codb_store::Store::advance_mark`]), WAL what was new with the
    /// mark it moved to (a batch that added nothing moves the mark without
    /// a record), then the chase safety valve. Returns the relations that
    /// grew with their versions before ([`codb_relational::apply_firings`]),
    /// and whether the growth may propagate: at `max_hops` it may not, and
    /// the marks stay behind it.
    ///
    /// The wire is outside the program: a batch that is not an instance of
    /// the rule's head over this node's schema is dropped whole and counted
    /// as `data_rejected` — it must reach neither the caches nor the WAL,
    /// where every later recovery would replay it into the same error.
    pub(crate) fn arrive(
        &mut self,
        link: LinkId,
        batch: Batch,
    ) -> (Vec<(Arc<str>, Version)>, bool) {
        let Batch { mut firings, hops, mark } = batch;
        let book = Arc::clone(&self.book);
        let link = book.link(link);
        if !link.rule.rule().admits(&self.ldb, &firings) {
            self.report.count_received(Kind::DataRejected);
            return (Vec::new(), false);
        }
        let (ldb, nulls, recv) = (&mut self.ldb, &mut self.nulls, &mut self.recv_cache);
        let grown = codb_store::apply_arrived(ldb, nulls, recv, &link.name, &mut firings)
            .expect("the batch was admitted against the rule head and the schema");
        let moved = match (&mut self.persist, mark) {
            (Some(store), Some(span)) => store.advance_mark(&link.name, span),
            _ => None,
        };
        if firings.is_empty() {
            return (grown, false);
        }
        // Durability: WAL what was new, before anything is sent or acked.
        // Replay from the snapshot re-runs exactly these arrivals in order,
        // reproducing instance, null factory, receive caches and marks.
        if self.persist.is_some() {
            let rule = link.name.to_string();
            self.log_wal(codb_store::WalRecord::Applied { rule, firings, mark: moved });
        }
        if self.tracer.is_enabled() {
            let r = self.tracer.intern(&link.name);
            let tuples = gained(&self.ldb, &grown);
            self.tracer.emit(TraceEvent::UpdateApply { peer: self.id.0, rule: r, tuples });
        }
        (grown, hops < self.settings.max_hops)
    }

    /// Marks outgoing link `link` closed and runs the close cascade.
    fn commit_link_close(&mut self, ctx: &mut Context<Envelope>, update: UpdateId, link: LinkId) {
        let now = ctx.now();
        let st = self.state_mut(update).link_mut(link);
        st.pending_close = None;
        st.out_closed = true;
        self.check_in_link_closes(ctx, update);
        self.check_node_closed(update, now);
    }

    /// The incoming links that read any of the relations that grew, in id
    /// (and so name) order, each once.
    pub(crate) fn links_reading(&self, grown: &[(Arc<str>, Version)]) -> Vec<LinkId> {
        let mut dependents: Vec<LinkId> =
            grown.iter().flat_map(|(rel, _)| self.book.incoming_reading(rel)).copied().collect();
        dependents.sort_unstable();
        dependents.dedup();
        dependents
    }

    /// Semi-naive re-computation of the incoming links that read any of the
    /// relations that grew, and transmission of the (sent-cache-filtered)
    /// results. A held link fires nothing here: its mark stays behind the
    /// arrival until it closes, or until the valve opens.
    pub(crate) fn propagate_deltas(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        grown: &[(Arc<str>, Version)],
        hops: u64,
    ) {
        for id in self.links_reading(grown) {
            let st = &self.updates[&update];
            if st.scoped && !st.link(id).active_in {
                // Nobody demanded the link: its mark stays behind these.
                continue;
            }
            if self.holds(st, id) {
                let held = self.state_mut(update).link_mut(id);
                held.held_hops = held.held_hops.max(hops);
                self.valve(ctx, update, id, false);
                continue;
            }
            let firings = self.fire_arrival(id, grown);
            let header = Header { hops, request: false, close: false };
            self.send_link_data(ctx, update, id, firings, header);
        }
    }

    /// Whether incoming link `link` is held in `update`: no cycle of the
    /// link graph reaches it ([`crate::rules::Link::held`]), the request
    /// was seen here (data that outran it — parked, to a restarted node —
    /// has no close to wait for), and no fault released the update here.
    fn holds(&self, st: &UpdateState, link: LinkId) -> bool {
        self.book.link(link).held && st.request_seen && !st.released
    }

    /// The first execution of incoming link `link` in `update`, at the
    /// request or a demand: what its mark does not cover — but a held link
    /// fires only where it closes at once (nothing it depends on is open),
    /// or through the valve. Returns whether data was posted.
    fn fire_first(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        link: LinkId,
        request: bool,
    ) -> bool {
        let st = &self.updates[&update];
        if !self.holds(st, link) {
            let firings = self.fire_link_unsent(link);
            // (Which takes the mark back if it drops the firings.)
            let header = Header { hops: 1, request, close: false };
            self.send_link_data(ctx, update, link, firings, header)
        } else if self.closes_now(st, link) {
            self.close_in_link(ctx, update, link, request)
        } else {
            self.valve(ctx, update, link, request)
        }
    }

    /// The bandwidth valve of held link `link`: on a pipe of limited
    /// bandwidth ([`crate::NodeSettings::pipe`]), once the tuples past the
    /// link's mark fill what the pipe carries in one latency, holding them
    /// on would leave the pipe idle — they go now, and the link stays open.
    /// On a pipe of unlimited bandwidth it never opens. Returns whether
    /// data was posted.
    fn valve(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        link: LinkId,
        request: bool,
    ) -> bool {
        let open = !self.updates[&update].link(link).in_closed && self.fills_the_pipe(link);
        open && self.ship_held(ctx, update, link, request, false)
    }

    /// Whether the tuples past incoming link `link`'s mark (all of them,
    /// where it has none) come to bandwidth × latency bytes of the node's
    /// pipe; counted up to that, no further.
    fn fills_the_pipe(&self, link: LinkId) -> bool {
        let pipe = self.settings.pipe;
        let Some(rate) = pipe.bandwidth_bytes_per_sec else {
            return false;
        };
        let limit = u128::from(rate) * u128::from(pipe.latency.0) / 1_000_000_000;
        let mark = self.sent_cache[link.index()].mark.as_deref();
        let mut bytes = 0u128;
        let mut fill = |tuple: &Tuple| {
            bytes += tuple.size_bytes() as u128;
            bytes >= limit
        };
        let atoms = &self.book.link(link).rule.rule().body.atoms;
        atoms.iter().enumerate().any(|(at, atom)| {
            let Some(relation) = self.ldb.get(&atom.relation) else {
                return false;
            };
            match mark.and_then(|mark| relation.since(mark[at])) {
                Some(mut past) => past.any(&mut fill),
                None => relation.iter().any(&mut fill),
            }
        })
    }

    /// Ships what held link `link` holds: fired since its mark, reporting
    /// the hops of the longest arrival it holds, carrying the close if
    /// `close`. Returns whether data was posted.
    fn ship_held(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        link: LinkId,
        request: bool,
        close: bool,
    ) -> bool {
        let hops = self.updates[&update].link(link).held_hops.max(1);
        let firings = self.fire_link_unsent(link);
        self.send_link_data(ctx, update, link, firings, Header { hops, request, close })
    }

    /// Stops holding in `update`, where a fault may have cut it off from an
    /// upstream close (a rules file, a neighbour's new incarnation, a peer
    /// that left, an adoption request): every open held link ships what it
    /// holds, without a close, and from here on the update runs eagerly at
    /// this node. A node that has not seen the request — a restarted one,
    /// told of the update its dead incarnation held data in — ships every
    /// link, as the start it will not see again would have.
    pub(crate) fn release(&mut self, ctx: &mut Context<Envelope>, update: UpdateId) {
        let st = self.update_entry(update);
        if std::mem::replace(&mut st.released, true) || st.complete {
            return;
        }
        let unseen = !st.request_seen;
        for &id in Arc::clone(&self.book).incoming() {
            if unseen || self.open_held(&self.updates[&update], id) {
                self.ship_held(ctx, update, id, false, false);
            }
        }
        self.maybe_disengage(ctx, update);
    }

    /// [`Self::release`] for every update this node has not seen complete.
    pub(crate) fn release_all(&mut self, ctx: &mut Context<Envelope>) {
        let open = self.updates.values().filter(|st| !st.complete);
        for update in open.map(|st| st.update).collect::<Vec<_>>() {
            self.release(ctx, update);
        }
    }

    /// Every firing of incoming link `link` over the LDB — the node's one
    /// whole-view fire: a served fetch's local part, and an update start, a
    /// demand or a rejoin repair on a link whose mark does not answer.
    ///
    /// A link keeps its last whole fire for a fetch (`keep`) under the
    /// versions of the relations its body read. While they answer for
    /// them, a later call fires nothing whole: it gets the kept firings
    /// back, the same allocation, or — over relations that grew — refreshes
    /// them with what the growth fires semi-naively and drops the answer
    /// served over the old view. Only a fetch keeps: an update start fires
    /// a link whole about once.
    pub(crate) fn fire_link_whole(&mut self, link: LinkId, keep: bool) -> WholeView {
        let source = &self.ldb;
        let rule = &self.book.link(link).rule;
        let atoms = &rule.rule().body.atoms;
        let fire = || rule.fire(source).expect("schema-validated rule");
        let cache = &mut self.sent_cache[link.index()];
        if let Some(kept) = cache.view.as_deref_mut() {
            let since = rule.fire_since(source, read_since(atoms, &kept.versions));
            if let Some(fresh) = since.expect("schema-validated rule") {
                let grew = |(rel, version)| source.get(rel).map(Relation::version) != Some(version);
                if read_since(atoms, &kept.versions).any(grew) {
                    // In scan order the view now is the kept one, then the
                    // fresh; else two sorted runs, which a stable sort
                    // merges.
                    let mut firings = [&kept.firings[..], &fresh[..]].concat();
                    if !rule.fires_in_scan_order() {
                        firings.sort();
                        firings.dedup();
                    }
                    kept.firings = firings.into();
                    kept.versions = versions_of(source, atoms).expect("each answered");
                    kept.answer = None;
                }
                debug_assert!(*kept.firings == *fire(), "link {link:?} kept a stale view");
                return WholeView::Kept(Arc::clone(&kept.firings));
            }
        }
        WHOLE_FIRES.set(WHOLE_FIRES.get() + 1);
        let firings = fire();
        if !keep {
            return WholeView::Fired(firings);
        }
        let versions = versions_of(source, atoms).expect("the fire read every body relation");
        let firings: Arc<[RuleFiring]> = firings.into();
        let view = KeptView { versions, firings: Arc::clone(&firings), answer: None };
        cache.view = Some(Box::new(view));
        WholeView::Kept(firings)
    }

    /// Every firing of incoming link `link` its mark does not cover — over
    /// what its relations gained since the mark, or whole where one does
    /// not answer for it — after which the mark covers the LDB.
    pub(crate) fn fire_link_unsent(&mut self, link: LinkId) -> Vec<RuleFiring> {
        let book = Arc::clone(&self.book);
        let rule = &book.link(link).rule;
        let atoms = &rule.rule().body.atoms;
        let mark = self.sent_cache[link.index()].mark.as_deref();
        let since = mark.and_then(|mark| {
            rule.fire_since(&self.ldb, read_since(atoms, mark)).expect("schema-validated rule")
        });
        let firings = match since {
            Some(firings) => firings,
            None => self.fire_link_whole(link, false).into_vec(),
        };
        // (In place where the link has a mark: a held link re-marks at
        // every close.)
        let ldb = &self.ldb;
        let cache = &mut self.sent_cache[link.index()];
        let in_place = cache.mark.as_deref_mut().is_some_and(|mark| {
            let now = |atom: &Atom| ldb.get(&atom.relation).map(Relation::version);
            atoms.iter().zip(mark).all(|(atom, slot)| now(atom).map(|v| *slot = v).is_some())
        });
        if !in_place {
            cache.mark = versions_of(ldb, atoms);
        }
        firings
    }

    /// Incoming link `link` fired since the versions `grown`, an arrival's;
    /// the one place a mark advances on arrival: a body atom's version
    /// equal to its relation's right before moves to the relation's now.
    pub(crate) fn fire_arrival(
        &mut self,
        link: LinkId,
        grown: &[(Arc<str>, Version)],
    ) -> Vec<RuleFiring> {
        let rule = &self.book.link(link).rule;
        let since = rule.fire_since(&self.ldb, grown.iter().map(|(rel, v)| (&**rel, *v)));
        let firings = since.expect("schema-validated rule").expect("an arrival's versions answer");
        let atoms = &rule.rule().body.atoms;
        if let Some(mark) = self.sent_cache[link.index()].mark.as_deref_mut() {
            for (atom, version) in atoms.iter().zip(mark) {
                if grown.iter().any(|(rel, before)| **rel == *atom.relation && before == version) {
                    *version = self.ldb.get(&atom.relation).expect("it grew").version();
                }
            }
        }
        firings
    }

    /// The one sender-side filter of incoming link `link`, for update data
    /// and rejoin repair alike — the paper's "we delete from Ri those
    /// tuples which have been already sent to the incoming link": keeps
    /// the firings the link never shipped, in order, and remembers them —
    /// but a projection-free link's come from past its mark, which is its
    /// record (module docs, "What changed since"): they pass as they are.
    pub(crate) fn filter_sent(
        &mut self,
        link: LinkId,
        mut firings: Vec<RuleFiring>,
    ) -> Vec<RuleFiring> {
        let Link { rule, target, .. } = self.book.link(link);
        if !rule.projection_free() {
            let cache = &mut self.sent_cache[link.index()].sent;
            cache.reserve(firings.len());
            firings.retain(|f| cache.insert(f.clone()));
        }
        if !firings.is_empty() {
            self.tracer.emit_with(|| TraceEvent::RuleFire {
                peer: self.id.0,
                link: target.0,
                firings: firings.len() as u64,
            });
        }
        firings
    }

    /// Filters `firings` against the sent cache for incoming link `link`
    /// and posts the remainder (if any) to the link's target, with what
    /// `header` says rides along. Returns whether anything was posted.
    fn send_link_data(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        link: LinkId,
        firings: Vec<RuleFiring>,
        header: Header,
    ) -> bool {
        let Header { hops, request, close } = header;
        if firings.is_empty() {
            return false;
        }
        let evaluated = firings.len() as u64;
        let st = self.state_mut(update);
        if st.link(link).in_closed {
            // Only reachable once the update has completed (all in-flight
            // messages are processed before DS quiescence, so new data for
            // a link closed by the paper's rule cannot exist). The firings
            // never reach the cache, so its mark covers nothing from here on.
            debug_assert!(st.complete, "data produced for closed incoming link {link:?}");
            self.sent_cache[link.index()].mark = None;
            self.report.update_mut(update, ctx.now()).evaluated += evaluated;
            return false;
        }
        let fresh = self.filter_sent(link, firings);
        let report = self.report.update_mut(update, ctx.now());
        report.evaluated += evaluated;
        if fresh.is_empty() {
            return false;
        }
        let bytes: usize = fresh.iter().map(RuleFiring::size_bytes).sum();
        let book = Arc::clone(&self.book);
        let (name, target) = (&book.link(link).name, book.link(link).target);
        by_name(&mut report.sent, name).record(fresh.len() as u64, bytes as u64);
        let st = self.state_mut(update).link_mut(link);
        st.data_sent += 1;
        let closes = if close {
            u32::try_from(st.data_sent).expect("fewer than 2^32 data messages on one link")
        } else {
            0
        };
        let (rule, mark) = (name.clone(), self.ship_mark(link));
        let body = Body::UpdateData { update, rule, firings: fresh, hops, request, closes, mark };
        self.post(ctx, target, body);
        true
    }

    /// The mark of the batch incoming link `link` is shipping
    /// ([`crate::messages::Mark`]): from where its batches so far reach to
    /// its mark's position, where its body has one atom and it has a mark
    /// — after which its batches reach that far.
    pub(crate) fn ship_mark(&mut self, link: LinkId) -> Option<Mark> {
        let cache = &mut self.sent_cache[link.index()];
        let to = match cache.mark.as_deref() {
            Some([version]) => Some(version.position()),
            _ => None,
        };
        let mark = match (cache.shipped, to) {
            (Shipped::Nothing, Some(to)) => Mark::span(0, to, false),
            (Shipped::Reported(from), Some(to)) => Mark::span(from, to, true),
            (Shipped::Upto(from), Some(to)) => Mark::span(from, to, false),
            _ => None,
        };
        cache.shipped = match mark {
            Some(mark) => Shipped::Upto(mark.to()),
            None => Shipped::Untold,
        };
        mark
    }

    /// Handles the source-side close notification for outgoing link `rule`.
    fn process_link_closed(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        rule: &str,
        data_msgs: u64,
    ) {
        let Some(link) = self.book.outgoing_named(rule) else {
            return; // stale rule name after a reconfiguration
        };
        let st = self.state_mut(update).link_mut(link);
        if st.data_received < data_msgs {
            // Data still in flight (lost + pending retransmission): defer
            // the close until the last data message is processed.
            st.pending_close = Some(data_msgs);
            return;
        }
        self.commit_link_close(ctx, update, link);
    }

    /// The paper's close rule: "an acquaintance closes an incoming link …
    /// if all its outgoing links which are relevant for this incoming link
    /// are in the state closed". Requires the request to have been seen
    /// (otherwise the link set is not yet initialised).
    fn check_in_link_closes(&mut self, ctx: &mut Context<Envelope>, update: UpdateId) {
        let st = &self.updates[&update];
        if !st.request_seen || st.complete {
            return;
        }
        for &id in Arc::clone(&self.book).incoming() {
            if self.closes_now(&self.updates[&update], id) {
                self.close_in_link(ctx, update, id, false);
            }
        }
    }

    /// Whether incoming link `link` closes by the paper's rule now: it
    /// takes part in the update, is open, and every outgoing link relevant
    /// for it is closed.
    fn closes_now(&self, st: &UpdateState, link: LinkId) -> bool {
        st.is_in_open(link)
            && self.book.relevant_outgoing(link).iter().all(|o| st.link(*o).out_closed)
    }

    /// Closes incoming link `link`. A held link fires once, since its mark,
    /// and its firings carry the close ([`Body::UpdateData`]'s `closes`);
    /// where nothing is left to send, the close goes alone, as
    /// `LinkClosed`. Returns whether data carried it.
    fn close_in_link(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        link: LinkId,
        request: bool,
    ) -> bool {
        let held = self.holds(&self.updates[&update], link);
        let carried = held && self.ship_held(ctx, update, link, request, true);
        let st = self.state_mut(update).link_mut(link);
        st.in_closed = true;
        if !carried {
            let data_msgs = st.data_sent;
            let (rule, target) = (self.book.link(link).name.clone(), self.book.link(link).target);
            self.post(ctx, target, Body::LinkClosed { update, rule, data_msgs });
        }
        carried
    }

    /// "When all outgoing links of a node are in the state closed, then the
    /// node is also in the state closed."
    fn check_node_closed(&mut self, update: UpdateId, now: SimTime) {
        let st = &self.updates[&update];
        if !st.request_seen {
            return;
        }
        let closed = self.book.outgoing().iter().map(|id| st.link(*id)).all(|link| {
            // Scoped: only the links this node demanded count.
            link.out_closed || (st.scoped && !link.requested_out)
        });
        if closed {
            let rep = self.report.update_mut(update, now);
            if rep.closed_at.is_none() {
                rep.closed_at = Some(now);
            }
        }
    }

    /// Handles a DS credit return. A message that does not engage its
    /// receiver gets its credit back exactly once: the reply that carries
    /// it counts only if it retires the message, and a message given up on
    /// (abandoned, or addressed to a peer that left) is retired by that, so
    /// no reply can count after the surrender. The *engaging* message is
    /// the one case left where a credit can come back twice: it is answered
    /// by a plain ack and its credit returns separately, in the sequenced
    /// `DsAck` of the peer's disengagement — so that `DsAck` can arrive
    /// while the message itself, its ack lost, is still being retransmitted
    /// toward a peer that then dies or leaves, and giving up on it
    /// surrenders a credit that already came back. The deficit is an
    /// aggregate counter, so the subtraction saturates for that case: the
    /// surplus only ever *accelerates* disengagement toward a presumed-dead
    /// subtree, which is the documented crash semantics (the update
    /// completes without it).
    pub(crate) fn handle_ds_ack(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        credits: u64,
    ) {
        let st = self.update_entry(update);
        st.deficit = st.deficit.saturating_sub(credits);
        let deficit = st.deficit;
        self.tracer.emit_with(|| TraceEvent::DsCredit { peer: self.id.0, credits, deficit });
        self.maybe_disengage(ctx, update);
    }

    /// Writes off engagement credits a peer can no longer return (it left
    /// the network, or the incarnation that held them died): one per entry.
    pub(crate) fn write_off(&mut self, ctx: &mut Context<Envelope>, engaged: Vec<UpdateId>) {
        for update in engaged {
            self.handle_ds_ack(ctx, update, 1);
        }
    }

    /// DS disengagement / termination detection. A node stays engaged while
    /// a held link of it is open: disengaged, it would be engaged again by
    /// the data that closes its upstream, and hang a chain of credits on
    /// the last close (module docs, "Termination").
    fn maybe_disengage(&mut self, ctx: &mut Context<Envelope>, update: UpdateId) {
        let st = &self.updates[&update];
        if !st.engaged || st.deficit != 0 {
            return;
        }
        if st.initiator {
            // Global quiescence.
            self.handle_update_complete(ctx, None, update);
        } else if !self.holds_open(st) {
            let st = self.state_mut(update);
            st.engaged = false;
            // (No parent: it left the network while this node was engaged
            // under it, and wrote the credit off as it went.)
            let Some(parent) = st.parent.take() else { return };
            self.post_ds_ack(ctx, parent, update, 1);
        }
    }

    /// Whether a held link of this node is still open in the update of
    /// `st`: one its close will ship.
    fn holds_open(&self, st: &UpdateState) -> bool {
        st.request_seen
            && !st.complete
            && !st.released
            && self.book.incoming().iter().any(|&id| self.open_held(st, id))
    }

    /// Whether `link` is a held link open in the update of `st`.
    fn open_held(&self, st: &UpdateState, link: LinkId) -> bool {
        self.book.link(link).held && st.is_in_open(link)
    }

    /// Posts a sequenced `DsAck` to `to`: the engagement credit at
    /// disengagement, or (no credit) a request to be adopted.
    fn post_ds_ack(
        &mut self,
        ctx: &mut Context<Envelope>,
        to: NodeId,
        update: UpdateId,
        credits: u64,
    ) {
        self.tracer.emit_with(|| TraceEvent::DsAck { peer: self.id.0, to: to.0, credits });
        self.post(ctx, to, Body::DsAck { update, credits });
    }

    /// Handles a sequenced `DsAck`: `from` disengaged from this node,
    /// returning its engagement credit, or asks with no credit to be
    /// adopted. Either way it is a child from here on and hears of the
    /// completion from this node — at once, if the update is already over
    /// here. An adoption request, and a credit returned to a node that
    /// holds no state for the update (it restarted since it engaged
    /// `from`), say that part of the tree is lost: this node asks to be
    /// adopted in turn ([`Self::seek_adoption`]).
    pub(crate) fn handle_disengagement(
        &mut self,
        ctx: &mut Context<Envelope>,
        from: NodeId,
        update: UpdateId,
        credits: u64,
    ) {
        let stray = !self.updates.contains_key(&update);
        let st = self.update_entry(update);
        let was_complete = st.complete;
        if !st.children.contains(&from) {
            st.children.push(from);
        }
        if credits > 0 {
            self.reliable.peer_disengaged(from, update);
            self.handle_ds_ack(ctx, update, credits);
        }
        if was_complete {
            self.tell_complete(ctx, from, update);
        } else if stray || credits == 0 {
            // A lost part of the tree may owe this node a close.
            self.release(ctx, update);
            self.seek_adoption(ctx, update);
        }
    }

    /// Where this node's own place in the tree of `update` may be lost:
    /// asks to be adopted, once — the request spreads through the nodes
    /// that have not seen the end, and stops at those that have, which
    /// answer it with the completion. An update this node started in a
    /// dead incarnation has nobody left to detect its end: it is over.
    fn seek_adoption(&mut self, ctx: &mut Context<Envelope>, update: UpdateId) {
        if update.origin == self.id && update.epoch < self.epoch() {
            self.handle_update_complete(ctx, None, update);
            return;
        }
        let st = &self.updates[&update];
        if !st.initiator && !st.complete && !st.adopted {
            self.adopt(ctx, update);
        }
    }

    /// Asks every acquaintance to adopt this node into its part of the
    /// tree of `update`: a sequenced `DsAck` of no credit.
    fn adopt(&mut self, ctx: &mut Context<Envelope>, update: UpdateId) {
        self.state_mut(update).adopted = true;
        for &acq in Arc::clone(&self.book).acquaintances() {
            self.post_ds_ack(ctx, acq, update, 0);
        }
        self.release(ctx, update);
    }

    /// [`Self::adopt`] for every update this node has not seen complete
    /// (and did not start): for a node whose place in the trees may be
    /// lost — a peer left, or died and came back without its children.
    pub(crate) fn adopt_all(&mut self, ctx: &mut Context<Envelope>) {
        let open = self.updates.values().filter(|st| !st.complete && !st.initiator);
        for update in open.map(|st| st.update).collect::<Vec<_>>() {
            self.adopt(ctx, update);
        }
    }

    /// Tells `peer`, heard in a new incarnation, of every update it may
    /// hold links in for a close its dead incarnation was sent: it is asked
    /// to adopt this node in each update this node started and has not
    /// seen complete — which [`Self::adopt_all`] leaves out, the root being
    /// nobody's child — and the request releases the update there; and it
    /// is told the completion of each update that is over here but that a
    /// message still unacknowledged toward it belongs to (the dead
    /// incarnation answered its credit, not its ack, and the new one will
    /// get it again).
    pub(crate) fn release_at(&mut self, ctx: &mut Context<Envelope>, peer: NodeId) {
        let open = self.updates.values().filter(|st| !st.complete && st.initiator);
        for update in open.map(|st| st.update).collect::<Vec<_>>() {
            self.post_ds_ack(ctx, peer, update, 0);
        }
        for update in self.reliable.unanswered_updates(peer) {
            if self.updates.get(&update).is_some_and(|st| st.complete) {
                self.tell_complete(ctx, peer, update);
            }
        }
    }

    /// Completes `update` here (once) and sends the completion down the
    /// tree: to every child that is still an acquaintance, but `from`,
    /// which has it.
    pub(crate) fn handle_update_complete(
        &mut self,
        ctx: &mut Context<Envelope>,
        from: Option<NodeId>,
        update: UpdateId,
    ) {
        let now = ctx.now();
        if self.update_entry(update).complete {
            return;
        }
        self.finish_update(update, now);
        let children = std::mem::take(&mut self.state_mut(update).children);
        for &child in children.iter().filter(|&&child| Some(child) != from) {
            self.tell_complete(ctx, child, update);
        }
        self.state_mut(update).children = children;
        if from.is_some() {
            // (Engaged only where it held a link for a close that went to
            // a dead incarnation: `CoDbNode::release_at`.)
            self.maybe_disengage(ctx, update);
        }
    }

    /// Posts `UpdateComplete` to `to`, if it is still an acquaintance (a
    /// closed pipe would only retransmit it until it was abandoned).
    fn tell_complete(&mut self, ctx: &mut Context<Envelope>, to: NodeId, update: UpdateId) {
        if self.book.acquaintances().contains(&to) {
            self.post(ctx, to, Body::UpdateComplete { update });
        }
    }

    /// Force-closes whatever cyclic dependencies kept open and stamps the
    /// completion time.
    fn finish_update(&mut self, update: UpdateId, now: SimTime) {
        let st = self.updates.get_mut(&update).expect("state exists");
        st.complete = true;
        for &id in self.book.outgoing() {
            st.link_mut(id).out_closed = true;
        }
        for &id in self.book.incoming() {
            st.link_mut(id).in_closed = true;
        }
        let rep = self.report.update_mut(update, now);
        if rep.closed_at.is_none() {
            rep.closed_at = Some(now);
        }
        rep.completed_at = Some(now);
        self.report.ldb_tuples = self.ldb.tuple_count() as u64;
    }
}

/// What a link's data message carries beside its firings
/// ([`Body::UpdateData`]).
#[derive(Clone, Copy)]
struct Header {
    /// The propagation path's length.
    hops: u64,
    /// The update request rides along.
    request: bool,
    /// The link's close rides along.
    close: bool,
}

/// A batch of firings as it arrives on an outgoing link, update data and
/// rejoin repair alike ([`CoDbNode::arrive`]).
pub(crate) struct Batch {
    /// The firings.
    pub(crate) firings: Vec<RuleFiring>,
    /// How many hops the batch came.
    pub(crate) hops: u64,
    /// The part of the link's log the batch covers, with its sender's
    /// epoch.
    pub(crate) mark: Option<Span>,
}

/// The version of each body atom's relation in `source`, in body order;
/// none where `source` lacks one.
fn versions_of(source: &Instance, atoms: &[Atom]) -> Option<Box<[Version]>> {
    atoms.iter().map(|atom| source.get(&atom.relation).map(Relation::version)).collect()
}

/// Each body atom's relation with its version in `versions`, in body
/// order, for [`codb_relational::PreparedRule::fire_since`].
fn read_since<'a>(
    atoms: &'a [Atom],
    versions: &'a [Version],
) -> impl Iterator<Item = (&'a str, Version)> + Clone {
    atoms.iter().map(|atom| atom.relation.as_str()).zip(versions.iter().copied())
}

/// How many tuples the relations in `grown` gained in `source` since the
/// versions it names.
fn gained(source: &Instance, grown: &[(Arc<str>, Version)]) -> u64 {
    grown.iter().filter_map(|(rel, v)| source.get(rel)?.since(*v)).map(|s| s.len() as u64).sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::network::CoDbNetwork;
    use codb_net::SimConfig;
    use codb_relational::{tup, FieldRef, Fields, TField, Value};
    use codb_store::{ScratchDir, SyncPolicy};

    impl CoDbNode {
        fn sent_cache_of(&self, rule: &str) -> &SentCache {
            &self.sent_cache[self.book.incoming_named(rule).expect("an incoming link").index()]
        }

        /// The firings incoming link `rule` has shipped.
        pub(crate) fn sent_cached(&self, rule: &str) -> &FiringSet {
            &self.sent_cache_of(rule).sent
        }

        /// Whether incoming link `rule`'s mark covers the LDB as it stands.
        pub(crate) fn caught_up(&self, rule: &str) -> bool {
            let link = self.book.incoming_named(rule).expect("an incoming link");
            let now = versions_of(&self.ldb, &self.book.link(link).rule.rule().body.atoms);
            let mark = &self.sent_cache[link.index()].mark;
            mark.is_some() && *mark == now
        }

        /// The firings incoming link `rule` has shipped, to seed by hand.
        pub(crate) fn sent_cached_mut(&mut self, rule: &str) -> &mut FiringSet {
            let link = self.book.incoming_named(rule).expect("an incoming link");
            &mut self.sent_cache[link.index()].sent
        }
    }

    #[test]
    fn update_state_defaults() {
        let (net, _, tgt) = link("person(N, A)");
        let u = UpdateId { origin: NodeId(0), epoch: 0, seq: 0 };
        let book = net.node(tgt).rule_book();
        let st = UpdateState::new(u, book.len(), book.acquaintances().len());
        assert!(!st.initiator);
        assert!(!st.engaged);
        assert_eq!(st.deficit, 0);
        let r = book.outgoing_named("r").unwrap();
        assert!(st.is_out_open(r));
        assert_eq!(st.link(r), &LinkState::default());
    }

    /// One link `r`: `src` exports `emp` to `tgt`'s `person`.
    pub(crate) fn link(head: &str) -> (CoDbNetwork, NodeId, NodeId) {
        let text = format!(
            r#"
            node src
            node tgt
            schema src: emp(str, int)
            schema tgt: person(str, int)
            data src: emp("ada", 30). emp("bob", 40).
            rule r @ src -> tgt: {head} <- emp(N, A).
            "#
        );
        let config = NetworkConfig::parse(&text).unwrap();
        let net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
        let (src, tgt) = (net.node_id("src").unwrap(), net.node_id("tgt").unwrap());
        (net, src, tgt)
    }

    fn sent_count(node: &CoDbNode, kind: &str) -> u64 {
        node.report().messages_sent.get(kind).copied().unwrap_or(0)
    }

    /// The defect class of the per-hop deep copies, pinned structurally:
    /// the handle in the sender's sent cache, the one held for
    /// retransmission until the ack, and the one in the receiver's cache
    /// are one allocation — which a copy anywhere on the way cannot be.
    /// (On an existential link that projects `A`: both caches keep its
    /// firings.)
    #[test]
    fn a_firing_is_shared_from_sent_cache_to_recv_cache_not_copied() {
        let (mut net, src, tgt) = link("person(N, D)");
        net.sim_mut().inject(crate::HARNESS_PEER, tgt.peer(), Envelope::control(Body::StartUpdate));
        // Up to the event that applies the data at `tgt`; the transport
        // ack for it is still on its way back to `src`.
        while net.node(tgt).recv_cache.get("r").is_none_or(|c| c.is_empty()) {
            assert!(net.sim_mut().step(), "quiescent before any data arrived");
        }
        let received = &net.node(tgt).recv_cache["r"];
        let sent = net.node(src).sent_cached("r");
        let held: Vec<RuleFiring> = net
            .node(src)
            .reliable
            .pending()
            .into_iter()
            .filter_map(|(_, env)| match env.body {
                Body::UpdateData { firings, .. } => Some(firings),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!((received.len(), sent.len(), held.len()), (2, 2, 2));
        for f in received {
            assert!(sent.get(f).is_some_and(|s| s.ptr_eq(f)), "sent cache holds a copy of {f:?}");
            assert!(held.iter().any(|h| h.ptr_eq(f)), "retransmission holds a copy of {f:?}");
        }
    }

    /// Fifty updates over one link. What each end remembers of the other's
    /// seqs is what lies above the last base it was told — the last
    /// update's few messages — where a set of seqs seen would by now hold
    /// every one of all fifty.
    #[test]
    fn the_receive_window_holds_one_update_of_seqs_not_fifty() {
        let (mut net, src, tgt) = link("person(N, A)");
        let sequenced = |net: &CoDbNetwork, from: NodeId, to: NodeId| {
            let next = net.node(from).reliable.next_seq(to);
            (next, net.node(to).reliable.window_len(from) as u64)
        };
        net.run_update(tgt);
        let one_update = sequenced(&net, src, tgt).0.max(sequenced(&net, tgt, src).0);
        for round in 0..49i64 {
            let tuple = tup![format!("n{round}"), round];
            net.run_control(src, Body::IngestLocal { relation: "emp".to_owned(), tuple });
            net.run_update(tgt);
            for (from, to) in [(src, tgt), (tgt, src)] {
                let (issued, held) = sequenced(&net, from, to);
                assert!(held <= one_update, "round {round}: {to} holds {held} of {from}'s seqs");
                assert!(issued >= 2 * (round as u64 + 2), "{from} sent {issued} to {to}");
            }
        }
        assert_eq!(net.node(tgt).ldb().get("person").unwrap().len(), 51);
    }

    fn constant(v: impl Into<Value>) -> TField {
        TField::Const(v.into())
    }

    /// Batches that are not instances of `person(N, A)` over `tgt`'s
    /// schema, each behind a well-formed firing: dropped whole.
    fn misfits() -> Vec<(&'static str, Vec<RuleFiring>)> {
        let good = || RuleFiring::new([("person", vec![constant("zed"), constant(9)])]);
        let atom = |rel: &'static str, fields| RuleFiring::new([(rel, fields)]);
        vec![
            ("unknown relation", vec![good(), atom("nosuch", vec![constant("x"), constant(1)])]),
            ("wrong arity", vec![good(), atom("person", vec![constant("x")])]),
            ("wrong column type", vec![good(), atom("person", vec![constant(1), constant(2)])]),
            (
                "placeholder where the head has a body variable",
                vec![good(), atom("person", vec![constant("x"), TField::Fresh(1)])],
            ),
            (
                "more atoms than the head",
                vec![RuleFiring::new([
                    ("person", vec![constant("x"), constant(1)]),
                    ("person", vec![constant("y"), constant(2)]),
                ])],
            ),
        ]
    }

    /// A misshapen batch from the wire — as update data and as rejoin
    /// repair — leaves the node alive and its LDB, receive cache and WAL
    /// as they were, is counted, returns its DS credit, and neither the
    /// next update nor the next recovery trips over it.
    #[test]
    fn a_misshapen_batch_is_dropped_whole_counted_and_never_logged() {
        for (what, firings) in misfits() {
            for as_repair in [false, true] {
                let tmp = ScratchDir::new("core-misfit");
                let (mut net, src, tgt) = link("person(N, A)");
                net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
                net.run_update(tgt);
                let before = net.node(tgt);
                let (ldb, recv) = (before.ldb().clone(), before.recv_cache.clone());
                let wal_records = before.store().unwrap().wal_records();
                let credits = sent_count(before, "ds_ack");

                let bogus = UpdateId { origin: src, epoch: 7, seq: 0 };
                let firings = firings.clone();
                let body = if as_repair {
                    Body::RejoinRepair { rule: "r".into(), firings, hops: 1, mark: None }
                } else {
                    Body::UpdateData {
                        update: bogus,
                        rule: "r".into(),
                        firings,
                        hops: 1,
                        request: false,
                        closes: 0,
                        mark: None,
                    }
                };
                net.sim_mut().inject(src.peer(), tgt.peer(), Envelope::control(body));
                net.sim_mut().run_until_quiescent();

                let node = net.node(tgt);
                let case = format!("{what}, as_repair={as_repair}");
                assert_eq!(node.ldb(), &ldb, "{case}");
                assert_eq!(node.recv_cache, recv, "{case}");
                assert_eq!(node.store().unwrap().wal_records(), wal_records, "{case}");
                assert_eq!(node.persist_error(), None, "{case}");
                assert_eq!(node.report().messages_received["data_rejected"], 1, "{case}");
                if !as_repair {
                    // The credit, and one adoption request: `src` holds no
                    // state for an update it never started, so the credit
                    // reaches it outside every tree, it asks `tgt` to adopt
                    // it, and `tgt` — which has not seen the end — asks back.
                    assert_eq!(sent_count(node, "ds_ack"), credits + 2, "{case}");
                    let st = node.update_state(bogus).unwrap();
                    assert!(!st.engaged && st.deficit == 0, "{case}: {st:?}");
                }

                // The link still works, and the log replays.
                net.run_control(
                    src,
                    Body::IngestLocal { relation: "emp".to_owned(), tuple: tup!["cy", 50] },
                );
                let outcome = net.run_update(tgt);
                assert!(net.node(tgt).update_state(outcome.update).unwrap().complete, "{case}");
                let ldb = net.node(tgt).ldb().clone();
                assert!(ldb.get("person").unwrap().contains(&tup!["cy", 50]), "{case}");
                net.crash_node(tgt);
                let dir = CoDbNetwork::node_data_dir(tmp.path(), "tgt");
                net.restart_node_from_disk(tgt, &dir, SyncPolicy::Always)
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                assert_eq!(net.node(tgt).ldb(), &ldb, "{case}");
            }
        }
    }

    /// `mid` of `up -> mid`, `mid -> a`, `mid -> b`: one link it imports
    /// on, two it exports on, both reading what the first writes. No cycle
    /// reaches them: `mid` holds `to_a` and `to_b` until `feed` closes.
    const FORK: &str = r#"
        node up
        node mid
        node a
        node b
        schema up: u(int)
        schema mid: m(int)
        schema a: ta(int)
        schema b: tb(int)
        data mid: m(1). m(2).
        rule feed @ up -> mid: m(X) <- u(X).
        rule to_a @ mid -> a: ta(X) <- m(X).
        rule to_b @ mid -> b: tb(X) <- m(X).
    "#;

    /// What puts `up` on a cycle with `w`, and so `feed`, `to_a` and `to_b`
    /// below it: `mid` forwards every arrival at once.
    const CYCLE_AT_UP: &str = r#"
        node w
        schema w: tw(int)
        rule uw @ up -> w: tw(X) <- u(X).
        rule wu @ w -> up: u(X) <- tw(X).
    "#;

    /// `mid` alone, its wire in hand: what it sends, by rule, as the
    /// `m`-values of the firings.
    struct Mid {
        node: CoDbNode,
        up: NodeId,
        commands: std::collections::VecDeque<codb_net::Command<Envelope>>,
    }

    impl Mid {
        /// `mid` of [`FORK`], which holds its links.
        fn held(settings: crate::NodeSettings) -> Mid {
            Mid::of(FORK, settings)
        }

        /// `mid` of [`FORK`] below [`CYCLE_AT_UP`], which holds nothing.
        fn eager(settings: crate::NodeSettings) -> Mid {
            Mid::of(&format!("{FORK}{CYCLE_AT_UP}"), settings)
        }

        fn of(text: &str, settings: crate::NodeSettings) -> Mid {
            let config = NetworkConfig::parse(text).unwrap();
            let acyclic = crate::rules::AcyclicLinks::of(&config.rules);
            let node = CoDbNode::from_config(&config.nodes[1], &config.rules, &acyclic, settings);
            Mid { node, up: config.nodes[0].id, commands: Default::default() }
        }

        /// Delivers `body` from `up`; returns the data `mid` sent for it.
        fn deliver(&mut self, body: Body) -> Vec<(String, Vec<i64>)> {
            let id = self.node.id.peer();
            let mut ctx = Context::new(id, SimTime::ZERO, &[], &mut self.commands);
            codb_net::Peer::on_message(
                &mut self.node,
                &mut ctx,
                self.up.peer(),
                Envelope::control(body),
            );
            let sent = self.commands.drain(..).filter_map(|c| match c {
                codb_net::Command::Send {
                    msg: Envelope { body: Body::UpdateData { rule, firings, .. }, .. },
                    ..
                } => Some((rule.to_string(), firings.iter().map(value_of).collect())),
                _ => None,
            });
            sent.collect()
        }

        /// `up`'s data `m(k)`, as the `sent`-th data message on `feed`; it
        /// closes the link if `closes`.
        fn data(update: UpdateId, k: i64, hops: u64, closes: u32) -> Body {
            let firings = vec![RuleFiring::new([("m", vec![constant(k)])])];
            let rule = "feed".into();
            Body::UpdateData { update, rule, firings, hops, request: false, closes, mark: None }
        }

        /// `up` closes `feed` after `data_msgs` data messages.
        fn closed(update: UpdateId, data_msgs: u64) -> Body {
            Body::LinkClosed { update, rule: "feed".into(), data_msgs }
        }

        fn caught_up(&self) -> [bool; 2] {
            ["to_a", "to_b"].map(|rule| self.node.caught_up(rule))
        }

        /// Whether `to_a` and `to_b` are closed in `update`.
        fn in_closed(&self, update: UpdateId) -> [bool; 2] {
            let st = self.node.update_state(update).unwrap();
            let book = self.node.rule_book();
            ["to_a", "to_b"].map(|rule| st.link(book.incoming_named(rule).unwrap()).in_closed)
        }
    }

    /// The one constant of a one-column firing.
    fn value_of(f: &RuleFiring) -> i64 {
        match f.atoms().first().and_then(|(_, fields)| fields.iter().next()) {
            Some(FieldRef::Const(Value::Int(k))) => *k,
            other => panic!("not a one-int firing: {other:?}"),
        }
    }

    fn update(seq: u64) -> UpdateId {
        UpdateId { origin: NodeId(0), epoch: 0, seq }
    }

    fn both(values: &[i64]) -> Vec<(String, Vec<i64>)> {
        vec![("to_a".to_owned(), values.to_vec()), ("to_b".to_owned(), values.to_vec())]
    }

    /// The firings `mid` evaluated in `update`.
    fn evaluated(mid: &Mid, update: UpdateId) -> u64 {
        mid.node.report().updates[&update].evaluated
    }

    /// A start fire leaves the links caught up, and an arrival moves their
    /// marks past what it brought: the next start fires the local insert
    /// from the log and nothing else. A held link fires once, when `feed`
    /// closes — its start and the arrival before the close fire nothing —
    /// and that fire leaves it caught up as a start's does.
    #[test]
    fn a_caught_up_link_fires_the_log_and_an_arrival_needs_none() {
        let mut mid = Mid::eager(Default::default());
        assert_eq!(mid.caught_up(), [false, false]);
        assert_eq!(mid.deliver(Body::UpdateRequest { update: update(0) }), both(&[1, 2]));
        assert_eq!(mid.caught_up(), [true, true]);
        assert_eq!(mid.deliver(Mid::data(update(0), 3, 1, 0)), both(&[3]));
        assert_eq!(mid.caught_up(), [true, true]);
        mid.deliver(Body::UpdateComplete { update: update(0) });

        mid.node.insert_local("m", tup![4]).unwrap();
        assert_eq!(mid.caught_up(), [false, false]);
        let whole = whole_fires();
        assert_eq!(mid.deliver(Body::UpdateRequest { update: update(1) }), both(&[4]));
        assert_eq!((whole_fires() - whole, evaluated(&mid, update(1))), (0, 2));
        assert_eq!(mid.deliver(Body::UpdateRequest { update: update(2) }), []);
        assert_eq!(evaluated(&mid, update(2)), 0);

        let mut mid = Mid::held(Default::default());
        assert_eq!(mid.deliver(Body::UpdateRequest { update: update(0) }), []);
        assert_eq!(mid.deliver(Mid::data(update(0), 3, 1, 0)), []);
        assert_eq!(mid.caught_up(), [false, false]);
        assert_eq!(mid.in_closed(update(0)), [false, false]);
        assert!(mid.node.update_state(update(0)).unwrap().engaged, "holding: stays engaged");
        assert_eq!(mid.deliver(Mid::data(update(0), 5, 1, 2)), both(&[1, 2, 3, 5]));
        assert_eq!(mid.in_closed(update(0)), [true, true], "the data carried the close");
        assert_eq!(mid.caught_up(), [true, true]);
        mid.deliver(Body::UpdateComplete { update: update(0) });

        mid.node.insert_local("m", tup![4]).unwrap();
        let whole = whole_fires();
        assert_eq!(mid.deliver(Body::UpdateRequest { update: update(1) }), []);
        assert_eq!(mid.deliver(Mid::closed(update(1), 0)), both(&[4]));
        assert_eq!((whole_fires() - whole, evaluated(&mid, update(1))), (0, 2));
        assert_eq!(mid.deliver(Body::UpdateRequest { update: update(2) }), []);
        assert_eq!(mid.deliver(Mid::closed(update(2), 0)), []);
        assert_eq!((evaluated(&mid, update(2)), mid.in_closed(update(2))), (0, [true, true]));
    }

    /// Where applied data does not go through a dependent link's cache —
    /// at the valve, and on a link a scoped update did not demand — the
    /// link's mark stays behind it, and the next start fires it from the
    /// log: no whole fire, and it ships what was held.
    #[test]
    fn data_that_bypasses_a_link_is_fired_from_the_log_at_the_next_start() {
        // The valve: data at the hop limit is applied and goes no further.
        let mut mid = Mid::eager(crate::NodeSettings { max_hops: 2, ..Default::default() });
        mid.deliver(Body::UpdateRequest { update: update(0) });
        assert_eq!(mid.deliver(Mid::data(update(0), 3, 2, 0)), []);
        assert_eq!(mid.caught_up(), [false, false]);
        assert!(mid.node.report().updates[&update(0)].truncated);
        let whole = whole_fires();
        assert_eq!(mid.deliver(Body::UpdateRequest { update: update(1) }), both(&[3]));
        assert_eq!((whole_fires() - whole, evaluated(&mid, update(1))), (0, 2));
        assert_eq!(mid.caught_up(), [true, true]);

        // A scoped update that demanded `to_a` only: `to_b` misses what it
        // brings in.
        let mut mid = Mid::eager(Default::default());
        mid.deliver(Body::UpdateRequest { update: update(0) });
        mid.deliver(Body::UpdateComplete { update: update(0) });
        let demand = Body::DemandLink { update: update(1), rule: "to_a".into() };
        assert_eq!(mid.deliver(demand), [], "caught up and nothing new: nothing to ship");
        assert_eq!(mid.deliver(Mid::data(update(1), 3, 1, 0)), [("to_a".to_owned(), vec![3])]);
        assert_eq!(mid.caught_up(), [true, false]);
        mid.deliver(Body::UpdateComplete { update: update(1) });
        let whole = whole_fires();
        let next = mid.deliver(Body::UpdateRequest { update: update(2) });
        assert_eq!(next, [("to_b".to_owned(), vec![3])]);
        assert_eq!((whole_fires() - whole, evaluated(&mid, update(2))), (0, 1));

        // Held, the demanded link ships at its close and the other keeps
        // its mark behind both.
        let mut mid = Mid::held(Default::default());
        mid.deliver(Body::UpdateRequest { update: update(0) });
        mid.deliver(Mid::closed(update(0), 0));
        mid.deliver(Body::UpdateComplete { update: update(0) });
        let demand = Body::DemandLink { update: update(1), rule: "to_a".into() };
        assert_eq!(mid.deliver(demand), []);
        assert_eq!(mid.deliver(Mid::data(update(1), 3, 1, 1)), [("to_a".to_owned(), vec![3])]);
        assert_eq!(mid.caught_up(), [true, false]);
        mid.deliver(Body::UpdateComplete { update: update(1) });
        let whole = whole_fires();
        mid.deliver(Body::UpdateRequest { update: update(2) });
        assert_eq!(mid.deliver(Mid::closed(update(2), 0)), [("to_b".to_owned(), vec![3])]);
        assert_eq!((whole_fires() - whole, evaluated(&mid, update(2))), (0, 1));
    }

    /// Data for an update that has completed here is applied, and dropped
    /// for the closed links before it reaches their caches — the one place
    /// a mark is taken back, so the next start fires those links whole. A
    /// projection-free link's mark is all it keeps: it ships its whole view
    /// again, and the receiver's relation drops what it holds. (No harness
    /// run reaches this: Dijkstra–Scholten completes an update after its
    /// last data message. A peer presumed dead that was not can.) A held
    /// link fires nothing on an arrival: its mark stays behind the late
    /// data, and the next update ships it from the log.
    #[test]
    fn firings_dropped_on_a_closed_link_take_its_mark_back() {
        let mut mid = Mid::eager(Default::default());
        mid.deliver(Body::UpdateRequest { update: update(0) });
        mid.deliver(Body::UpdateComplete { update: update(0) });
        assert_eq!(mid.deliver(Mid::data(update(0), 3, 1, 0)), []);
        assert!(mid.node.ldb().get("m").unwrap().contains(&tup![3]));
        assert!(["to_a", "to_b"].iter().all(|rule| mid.node.sent_cache_of(rule).mark.is_none()));
        let whole = whole_fires();
        assert_eq!(mid.deliver(Body::UpdateRequest { update: update(1) }), both(&[1, 2, 3]));
        assert_eq!((whole_fires() - whole, evaluated(&mid, update(1))), (2, 6));

        let mut mid = Mid::held(Default::default());
        mid.deliver(Body::UpdateRequest { update: update(0) });
        mid.deliver(Mid::closed(update(0), 0));
        mid.deliver(Body::UpdateComplete { update: update(0) });
        assert_eq!(mid.deliver(Mid::data(update(0), 3, 1, 0)), []);
        assert!(mid.node.ldb().get("m").unwrap().contains(&tup![3]));
        assert!(["to_a", "to_b"].iter().all(|rule| mid.node.sent_cache_of(rule).mark.is_some()));
        let whole = whole_fires();
        mid.deliver(Body::UpdateRequest { update: update(1) });
        assert_eq!(mid.deliver(Mid::closed(update(1), 0)), both(&[3]));
        assert_eq!((whole_fires() - whole, evaluated(&mid, update(1))), (0, 2));
    }

    /// A demand fires its link from the log and moves that link's mark;
    /// the links the scoped update does not reach fire the same tuples at
    /// the next global start, and nothing fires whole. (Held, each fires
    /// when `feed` closes.)
    #[test]
    fn a_demand_reads_the_log_and_does_not_clear_it() {
        let mut mid = Mid::eager(Default::default());
        mid.deliver(Body::UpdateRequest { update: update(0) });
        mid.deliver(Body::UpdateComplete { update: update(0) });
        mid.node.insert_local("m", tup![4]).unwrap();
        let whole = whole_fires();
        let demand = Body::DemandLink { update: update(1), rule: "to_a".into() };
        assert_eq!(mid.deliver(demand), [("to_a".to_owned(), vec![4])]);
        assert_eq!(mid.caught_up(), [true, false]);
        mid.deliver(Body::UpdateComplete { update: update(1) });
        let next = mid.deliver(Body::UpdateRequest { update: update(2) });
        assert_eq!(next, [("to_b".to_owned(), vec![4])], "to_a's went through its cache");
        assert_eq!((whole_fires() - whole, evaluated(&mid, update(2))), (0, 1));

        let mut mid = Mid::held(Default::default());
        mid.deliver(Body::UpdateRequest { update: update(0) });
        assert_eq!(mid.deliver(Mid::closed(update(0), 0)), both(&[1, 2]));
        mid.deliver(Body::UpdateComplete { update: update(0) });
        mid.node.insert_local("m", tup![4]).unwrap();
        let whole = whole_fires();
        let demand = Body::DemandLink { update: update(1), rule: "to_a".into() };
        assert_eq!(mid.deliver(demand), [], "held until feed closes");
        assert_eq!(mid.deliver(Mid::closed(update(1), 0)), [("to_a".to_owned(), vec![4])]);
        assert_eq!(mid.caught_up(), [true, false]);
        mid.deliver(Body::UpdateComplete { update: update(1) });
        mid.deliver(Body::UpdateRequest { update: update(2) });
        let next = mid.deliver(Mid::closed(update(2), 0));
        assert_eq!(next, [("to_b".to_owned(), vec![4])], "to_a's went through its cache");
        assert_eq!((whole_fires() - whole, evaluated(&mid, update(2))), (0, 1));
    }

    /// Whatever replaces the LDB under the links, or the links themselves,
    /// leaves no mark answering: the relations restored are of new
    /// lineages, and a new book starts with empty caches. A projection-free
    /// link whose mark does not answer ships its whole view again. (No
    /// harness run restores a node that has shipped anything.)
    #[test]
    fn a_replaced_ldb_or_book_leaves_no_link_caught_up() {
        let mut mid = Mid::held(Default::default());
        mid.deliver(Body::UpdateRequest { update: update(0) });
        assert_eq!(mid.deliver(Mid::closed(update(0), 0)), both(&[1, 2]));
        mid.node.insert_local("m", tup![4]).unwrap();
        let snapshot = mid.node.snapshot();
        mid.node.restore(snapshot);
        assert_eq!(mid.caught_up(), [false, false]);

        let whole = whole_fires();
        mid.deliver(Body::UpdateRequest { update: update(1) });
        assert_eq!(mid.deliver(Mid::closed(update(1), 0)), both(&[1, 2, 4]));
        assert_eq!(whole_fires() - whole, 2, "restored: both links fire whole");
        assert_eq!(mid.caught_up(), [true, true]);
        let config = NetworkConfig::parse(FORK).unwrap();
        mid.node.install_book(RuleBook::for_node(mid.node.id, &config.rules));
        assert_eq!(mid.caught_up(), [false, false]);
    }

    /// The valve reads the node's pipe: on 1 MB/s with 1 ms latency a held
    /// link forwards once 1 000 bytes are past its mark, and stays open; on
    /// a LAN pipe it holds everything until its close.
    #[test]
    fn a_held_link_forwards_early_on_a_narrow_pipe_and_not_on_a_lan() {
        let narrow = codb_net::PipeConfig::lan().with_bandwidth(1_000_000);
        for (pipe, early) in [(narrow, true), (codb_net::PipeConfig::lan(), false)] {
            let mut mid = Mid::held(crate::NodeSettings { pipe, ..Default::default() });
            mid.deliver(Body::UpdateRequest { update: update(0) });
            mid.deliver(Mid::closed(update(0), 0));
            mid.deliver(Body::UpdateComplete { update: update(0) });
            assert_eq!(mid.deliver(Body::UpdateRequest { update: update(1) }), []);
            let mut sent = Vec::new();
            for k in 10..200 {
                sent.extend(mid.deliver(Mid::data(update(1), k, 1, 0)));
            }
            assert_eq!(mid.in_closed(update(1)), [false, false]);
            assert_eq!(!sent.is_empty(), early, "{pipe:?}: {sent:?}");
            let rest = mid.deliver(Mid::closed(update(1), 190));
            let shipped = |rule: &str| -> Vec<i64> {
                let all = sent.iter().chain(&rest).filter(|(r, _)| r == rule);
                all.flat_map(|(_, values)| values.iter().copied()).collect()
            };
            assert_eq!(shipped("to_a"), (10..200).collect::<Vec<_>>(), "{pipe:?}");
            assert_eq!(shipped("to_b"), (10..200).collect::<Vec<_>>(), "{pipe:?}");
            assert_eq!(mid.in_closed(update(1)), [true, true]);
        }
    }

    /// A link's cache is one value per link of the book, scanned and
    /// indexed on every update: the mark and the kept view must not grow
    /// it past what it was when the mark was a bit.
    #[test]
    fn a_sent_cache_stays_within_88_bytes() {
        assert!(std::mem::size_of::<SentCache>() <= 88, "{}", std::mem::size_of::<SentCache>());
    }

    /// `a -> b -> c`, copy rules, the data at `a` and one tuple of it at
    /// `b` too.
    const GROUND_CHAIN: &str = r#"
        node a
        node b
        node c
        schema a: ta(int)
        schema b: tb(int)
        schema c: tc(int)
        data a: ta(1). ta(2). ta(3).
        data b: tb(2).
        rule ab @ a -> b: tb(X) <- ta(X).
        rule bc @ b -> c: tc(X) <- tb(X).
    "#;

    /// Whether `ldb` lacks a tuple of the ground firing `firing`.
    fn lacks(ldb: &Instance, firing: &RuleFiring) -> bool {
        firing.atoms().iter().any(|(rel, fields)| match fields {
            Fields::Ground(tuple) => !ldb.get(rel).unwrap().contains(tuple),
            Fields::Template(_) => panic!("a placeholder in {firing:?}"),
        })
    }

    /// A traced rejoin on a ground chain: `a`, which restored its LDB since
    /// it fed `b` and so trusts no mark `b` reports, re-sends its whole
    /// link to the restarted `b`, whose relation holds all of it. The repair is
    /// dropped in the LDB, before the WAL: `b` applies and logs nothing,
    /// no receive cache holds a ground firing, and every `Applied` record
    /// of every WAL, replayed in order from the first snapshot, names only
    /// firings its LDB lacked — `tb(2)`, which `b` held from the start,
    /// never among them.
    #[test]
    fn a_ground_repair_is_dropped_in_the_ldb_before_the_wal() {
        let tmp = ScratchDir::new("core-ground-rejoin");
        let config = NetworkConfig::parse(GROUND_CHAIN).unwrap();
        let mut net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
        let (tracer, recorded) = codb_trace::Tracer::ring(1 << 12);
        net.attach_tracer(&tracer);
        net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
        let [a, b, c] = ["a", "b", "c"].map(|name| net.node_id(name).unwrap());
        let snapshots = [a, b, c].map(|id| net.node(id).ldb().clone());
        net.run_update(c);
        restore_in_place(&mut net, a);

        net.crash_node(b);
        let dir = CoDbNetwork::node_data_dir(tmp.path(), "b");
        net.restart_node_from_disk(b, &dir, SyncPolicy::Always).unwrap();
        assert_eq!(net.node(b).report().messages_received.get("rejoin_repair"), Some(&1));
        let events = recorded.lock().unwrap().events();
        let heard =
            |ev: &TraceEvent| matches!(ev, TraceEvent::RejoinRecv { from, .. } if *from == b.0);
        let rejoin = events.iter().position(|(_, ev)| heard(ev)).expect("a heard b rejoin");
        let applied =
            |ev: &TraceEvent| matches!(ev, TraceEvent::UpdateApply { peer, .. } if *peer == b.0);
        assert!(!events[rejoin..].iter().any(|(_, ev)| applied(ev)), "b applied repair");

        let tuple = tup![4];
        net.run_control(a, Body::IngestLocal { relation: "ta".to_owned(), tuple });
        net.run_update(c);
        assert_eq!(recorded.lock().unwrap().evicted(), 0);
        for (id, mut ldb) in [a, b, c].into_iter().zip(snapshots) {
            let node = net.node(id);
            assert!(node.recv_cache.values().flatten().all(|f| !f.is_ground()), "{id}");
            let wal = codb_store::wal::read_wal(node.store().unwrap().wal_path()).unwrap();
            let mut nulls = codb_relational::NullFactory::new(0);
            for record in wal.records {
                match record {
                    codb_store::WalRecord::Applied { firings, .. } => {
                        assert!(firings.iter().all(|f| lacks(&ldb, f)), "{id}: {firings:?}");
                        codb_relational::apply_firings(&mut ldb, &firings, &mut nulls).unwrap();
                    }
                    codb_store::WalRecord::LocalInsert { relation, tuple } => {
                        ldb.insert(&relation, tuple).unwrap();
                    }
                    _ => {}
                }
            }
            assert_eq!(&ldb, node.ldb(), "{id}: the WAL replays to the LDB");
        }
        assert_eq!(net.node(c).ldb().get("tc").unwrap().len(), 4);
    }

    /// `node` restores the snapshot of its own LDB: the same tuples, in
    /// relations of new lineages — no mark a peer holds is trusted after.
    fn restore_in_place(net: &mut CoDbNetwork, node: NodeId) {
        let snapshot = net.node(node).snapshot();
        net.sim_mut().peer_mut(node.peer()).unwrap().restore(snapshot);
    }

    /// A receive cache read back from disk is made of other allocations
    /// than the firings `src` fires again for the rejoin repair and the
    /// next update; it must suppress them all the same, or every template
    /// would be instantiated a second time with fresh nulls. (`src`
    /// restores its LDB first, so it trusts no mark `tgt` reports and
    /// re-fires the whole link.)
    #[test]
    fn a_recovered_receive_cache_suppresses_refired_templates() {
        let tmp = ScratchDir::new("core-glav-restart");
        let (mut net, src, tgt) = link("person(N, D)");
        net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
        net.run_update(tgt);
        let ldb = net.node(tgt).ldb().clone();
        assert_eq!(net.node(tgt).nulls_invented(), 2);
        restore_in_place(&mut net, src);

        net.crash_node(tgt);
        let dir = CoDbNetwork::node_data_dir(tmp.path(), "tgt");
        net.restart_node_from_disk(tgt, &dir, SyncPolicy::Always).unwrap();
        let repaired = net.node(tgt).report().messages_received.get("rejoin_repair");
        assert_eq!(repaired, Some(&1), "src re-fired the whole link");
        net.run_update(tgt);
        assert_eq!(net.node(tgt).nulls_invented(), 2, "a null was minted twice");
        assert_eq!(net.node(tgt).ldb(), &ldb);
    }
}
