//! The global update algorithm (paper §3).
//!
//! A dedicated node starts a global update; the request floods the network
//! with a unique [`UpdateId`]. Every node executes its *incoming links*
//! (the rules other nodes use to import data from it) over its LDB and
//! pushes the resulting firings to the rule targets. When data arrives on
//! an *outgoing link* `o`, the new tuples `T' = T \ R` are materialised
//! (fresh marked nulls for existential placeholders), and every incoming
//! link *dependent on* `o` is re-computed **by substituting `R` with `T'`**
//! (semi-naive delta evaluation); results already sent on a link are
//! removed before sending (the per-link *sent cache*).
//!
//! ## Termination
//!
//! Two cooperating mechanisms:
//!
//! 1. **The paper's open/closed link states.** An incoming link closes —
//!    and the source notifies the target with `LinkClosed` — once every
//!    outgoing link *relevant for* it is closed (immediately, for links
//!    with no relevant outgoing links). A node is *closed* when all its
//!    outgoing links are closed. In acyclic dependency graphs this closes
//!    everything progressively, with no global coordination.
//! 2. **Dijkstra–Scholten diffusing computation** as the global backstop
//!    for cyclic components (the paper frames its propagation as an
//!    "extension of diffusing computation [Lynch 1996]"). Every
//!    `UpdateRequest` / `UpdateData` / `LinkClosed` message is a DS
//!    message: the first one *engages* a node under its sender (no credit
//!    returned yet); every other one is credited back (`DsAck`) right
//!    after processing. A node returns its engagement credit once its own
//!    deficit is zero. When the initiator's deficit reaches zero the whole
//!    computation is quiescent: it floods `UpdateComplete`, which
//!    force-closes the links cyclic dependencies kept open.

use crate::ids::{NodeId, RuleName, UpdateId};
use crate::messages::{Body, Envelope};
use crate::node::CoDbNode;
use codb_net::{Context, SimTime};
use codb_relational::{RuleFiring, Tuple};
use codb_trace::TraceEvent;
use std::collections::{BTreeMap, BTreeSet};

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
    /// Unreturned DS credits for messages this node sent.
    pub deficit: u64,
    /// Whether the flooded `UpdateRequest` has been processed here.
    pub request_seen: bool,
    /// Query-dependent (scoped) mode: only demanded links participate.
    pub scoped: bool,
    /// Scoped mode: incoming links activated by a `DemandLink`.
    pub active_in: BTreeSet<RuleName>,
    /// Scoped mode: outgoing links this node has demanded upstream.
    pub requested_out: BTreeSet<RuleName>,
    /// Outgoing links known closed (`LinkClosed` received, or forced at
    /// completion).
    pub out_closed: BTreeSet<RuleName>,
    /// Incoming links this node has closed (`LinkClosed` sent).
    pub in_closed: BTreeSet<RuleName>,
    /// `UpdateData` messages sent per incoming link (carried in the
    /// link's `LinkClosed`).
    pub data_sent: BTreeMap<RuleName, u64>,
    /// `UpdateData` messages processed per outgoing link.
    pub data_received: BTreeMap<RuleName, u64>,
    /// Close notifications whose data has not fully arrived yet
    /// (`rule → expected data message count`).
    pub pending_close: BTreeMap<RuleName, u64>,
    /// Set once `UpdateComplete` has been processed (or initiated).
    pub complete: bool,
}

impl UpdateState {
    /// Fresh state for an update first seen now.
    pub fn new(update: UpdateId) -> Self {
        UpdateState {
            update,
            initiator: false,
            engaged: false,
            parent: None,
            deficit: 0,
            request_seen: false,
            scoped: false,
            active_in: BTreeSet::new(),
            requested_out: BTreeSet::new(),
            out_closed: BTreeSet::new(),
            in_closed: BTreeSet::new(),
            data_sent: BTreeMap::new(),
            data_received: BTreeMap::new(),
            pending_close: BTreeMap::new(),
            complete: false,
        }
    }

    /// True iff the given outgoing link is still open.
    pub fn is_out_open(&self, rule: &RuleName) -> bool {
        !self.out_closed.contains(rule)
    }
}

impl CoDbNode {
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
        let st = self.updates.entry(update).or_insert_with(|| UpdateState::new(update));
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
        let st = self.updates.entry(update).or_insert_with(|| UpdateState::new(update));
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
        let wanted: Vec<(RuleName, NodeId)> = self
            .book
            .outgoing()
            .iter()
            .filter(|(_, r)| r.rule.head_relations().iter().any(|h| relations.contains(*h)))
            .map(|(name, r)| (name.clone(), r.source))
            .collect();
        for (name, source) in wanted {
            let st = self.updates.get_mut(&update).expect("state exists");
            if st.requested_out.insert(name.clone()) {
                self.post(ctx, source, Body::DemandLink { update, rule: name });
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
        let st = self.updates.get_mut(&update).expect("state created by caller");
        st.scoped = true;
        st.request_seen = true;
        let Some(link) = self.book.incoming().get(&rule) else {
            return; // stale rule name after a reconfiguration
        };
        let target = link.target;
        let glav = link.rule.clone();
        let st = self.updates.get_mut(&update).expect("state exists");
        if !st.active_in.insert(rule.clone()) {
            return; // already serving this link
        }
        // Initial shipment.
        let firings = glav.fire(&self.ldb).expect("schema-validated rule");
        self.send_link_data(ctx, update, &rule, target, firings, 1);
        // Recursive demand for the body's inputs.
        let body_rels: BTreeSet<String> =
            glav.body_relations().into_iter().map(str::to_owned).collect();
        self.demand_relations(ctx, update, &body_rels);
        self.check_in_link_closes(ctx, update);
        self.check_node_closed(update, now);
    }

    /// DS wrapper: engagement bookkeeping around the three DS-counted
    /// message kinds.
    pub(crate) fn dispatch_ds(&mut self, ctx: &mut Context<Envelope>, from: NodeId, body: Body) {
        let update = body.update_id().expect("DS messages carry an update id");
        let st = self.updates.entry(update).or_insert_with(|| UpdateState::new(update));
        let engaging = !st.engaged && !st.initiator;
        if engaging {
            st.engaged = true;
            st.parent = Some(from);
        }
        match body {
            Body::UpdateRequest { update } => self.process_update_request(ctx, Some(from), update),
            Body::DemandLink { update, rule } => self.process_demand_link(ctx, update, rule),
            Body::UpdateData { update, rule, firings, hops } => {
                self.process_update_data(ctx, update, rule, firings, hops)
            }
            Body::LinkClosed { update, rule, data_msgs } => {
                self.process_link_closed(ctx, update, rule, data_msgs)
            }
            _ => unreachable!("dispatch_ds called for non-DS body"),
        }
        if !engaging {
            // Non-engaging DS messages are credited back immediately after
            // processing; the engaging credit is held until disengagement.
            self.tracer.emit_with(|| TraceEvent::DsAck { peer: self.id.0, to: from.0, credits: 1 });
            self.post(ctx, from, Body::DsAck { update, credits: 1 });
        }
        self.maybe_disengage(ctx, update);
    }

    /// Handles the flooded update request (first receipt does the work;
    /// duplicates are no-ops beyond DS crediting).
    fn process_update_request(
        &mut self,
        ctx: &mut Context<Envelope>,
        from: Option<NodeId>,
        update: UpdateId,
    ) {
        let now = ctx.now();
        self.report.update_mut(update, now).requests_received += 1;
        let st = self.updates.get_mut(&update).expect("state created by caller");
        if st.request_seen {
            return;
        }
        st.request_seen = true;

        // Initial execution of every incoming link over the current LDB.
        let incoming: Vec<(RuleName, NodeId)> =
            self.book.incoming().iter().map(|(name, r)| (name.clone(), r.target)).collect();
        for (name, target) in &incoming {
            let rule = &self.book.incoming()[name].rule;
            let firings = rule.fire(&self.ldb).expect("schema-validated rule");
            self.send_link_data(ctx, update, name, *target, firings, 1);
        }

        // Flood the request to all acquaintances except the sender.
        for acq in self.book.acquaintances().clone() {
            if Some(acq) != from {
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
        rule: RuleName,
        firings: Vec<RuleFiring>,
        hops: u64,
    ) {
        let now = ctx.now();
        let bytes: usize = firings.iter().map(RuleFiring::size_bytes).sum();
        {
            let rep = self.report.update_mut(update, now);
            rep.received
                .entry(rule.clone())
                .or_default()
                .record(firings.len() as u64, bytes as u64);
            rep.longest_path = rep.longest_path.max(hops);
        }
        let Some(deltas) = self.receive_link_data(&rule, firings) else {
            // Stale rule (configuration changed mid-update): data ignored.
            return;
        };

        // Count the data message and resolve a deferred close whose data
        // has now fully arrived (loss + retransmission can reorder data
        // past the close notification).
        let st = self.updates.get_mut(&update).expect("state created by caller");
        let received = st.data_received.entry(rule.clone()).or_default();
        *received += 1;
        let deferred_close_ready = match st.pending_close.get(&rule) {
            Some(expected) => *received >= *expected,
            None => false,
        };

        if !deltas.is_empty() {
            let added: u64 = deltas.values().map(|v| v.len() as u64).sum();
            self.report.update_mut(update, now).tuples_added += added;
            if hops >= self.settings.max_hops {
                // Chase safety valve.
                self.report.update_mut(update, now).truncated = true;
            } else {
                // Re-compute dependent incoming links by substituting
                // R with T'.
                self.propagate_deltas(ctx, update, &deltas, hops + 1);
            }
        }

        if deferred_close_ready {
            self.commit_link_close(ctx, update, rule);
        }
    }

    /// The receive path of outgoing link `rule`, shared by update data and
    /// rejoin repair: check the batch, `T' = T \ R` at template level, WAL,
    /// apply. Returns the per-relation deltas, or `None` when `rule` is not
    /// (or no longer) an outgoing link.
    ///
    /// The wire is outside the program: a batch that is not an instance of
    /// the rule's head over this node's schema is dropped whole and counted
    /// as `data_rejected` — it must reach neither the caches nor the WAL,
    /// where every later recovery would replay it into the same error.
    pub(crate) fn receive_link_data(
        &mut self,
        rule: &RuleName,
        firings: Vec<RuleFiring>,
    ) -> Option<BTreeMap<String, Vec<Tuple>>> {
        let link = self.book.outgoing().get(rule)?;
        if !link.rule.admits(&self.ldb, &firings) {
            self.report.count_received("data_rejected");
            return Some(BTreeMap::new());
        }
        // Template-level dedup against everything already received on this
        // link — across updates, not just within one: re-running an update
        // must not re-instantiate existential templates with fresh nulls
        // (that would silently duplicate GLAV data on every run).
        let cache = self.recv_cache.entry(rule.clone()).or_default();
        cache.reserve(firings.len());
        let mut fresh = firings;
        fresh.retain(|f| cache.insert(f.clone()));
        if fresh.is_empty() {
            return Some(BTreeMap::new());
        }
        // Durability: WAL the applied batch before mutating the LDB.
        // Replay from the snapshot re-runs exactly these applies in
        // order, reproducing instance, null factory and dedup caches.
        if self.persist.is_some() {
            self.log_wal(codb_store::WalRecord::Applied {
                rule: rule.clone(),
                firings: fresh.clone(),
            });
        }
        let deltas = codb_relational::apply_firings(&mut self.ldb, &fresh, &mut self.nulls)
            .expect("the batch was admitted against the rule head and the schema");
        if self.tracer.is_enabled() {
            let r = self.tracer.intern(rule);
            let tuples = deltas.values().map(|v| v.len() as u64).sum();
            self.tracer.emit(TraceEvent::UpdateApply { peer: self.id.0, rule: r, tuples });
        }
        Some(deltas)
    }

    /// Marks outgoing link `rule` closed and runs the close cascade.
    fn commit_link_close(&mut self, ctx: &mut Context<Envelope>, update: UpdateId, rule: RuleName) {
        let now = ctx.now();
        let st = self.updates.get_mut(&update).expect("state exists");
        st.pending_close.remove(&rule);
        st.out_closed.insert(rule);
        self.check_in_link_closes(ctx, update);
        self.check_node_closed(update, now);
    }

    /// Semi-naive re-computation of the incoming links that read any of the
    /// changed relations, and transmission of the (sent-cache-filtered)
    /// results.
    pub(crate) fn propagate_deltas(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        deltas: &BTreeMap<String, Vec<Tuple>>,
        hops: u64,
    ) {
        let st = self.updates.get(&update).expect("state exists");
        let dependents: BTreeSet<RuleName> = deltas
            .keys()
            .flat_map(|rel| self.book.incoming_reading(rel))
            .filter(|name| !st.scoped || st.active_in.contains(*name))
            .cloned()
            .collect();
        for name in dependents {
            let (target, firings) = self.fire_link_deltas(&name, deltas);
            self.send_link_data(ctx, update, &name, target, firings, hops);
        }
    }

    /// Semi-naive re-computation of incoming link `name`: its target, and
    /// the firings whose derivation uses a tuple of `deltas` in a relation
    /// the link's body reads.
    pub(crate) fn fire_link_deltas(
        &self,
        name: &RuleName,
        deltas: &BTreeMap<String, Vec<Tuple>>,
    ) -> (NodeId, Vec<RuleFiring>) {
        let link = &self.book.incoming()[name];
        (link.target, link.rule.fire_deltas(&self.ldb, deltas).expect("schema-validated rule"))
    }

    /// Filters `firings` against the sent cache for incoming link `name`
    /// and posts the remainder (if any) to `target`.
    fn send_link_data(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        name: &RuleName,
        target: NodeId,
        firings: Vec<RuleFiring>,
        hops: u64,
    ) {
        let st = self.updates.get_mut(&update).expect("state exists");
        if st.in_closed.contains(name) {
            // Only reachable once the update has completed (all in-flight
            // messages are processed before DS quiescence, so new data for
            // a link closed by the paper's rule cannot exist).
            debug_assert!(st.complete, "data produced for a closed incoming link {name}");
            return;
        }
        // The paper's sent-side dedup ("we delete from Ri those tuples
        // which have been already sent to the incoming link"). With
        // `incremental_updates` the cache persists across updates, so a
        // re-run only ships genuinely new firings (ablation E15).
        let cache_key = if self.settings.incremental_updates {
            (name.clone(), None)
        } else {
            (name.clone(), Some(update))
        };
        let cache = self.sent_cache.entry(cache_key).or_default();
        cache.reserve(firings.len());
        let mut fresh = firings;
        fresh.retain(|f| cache.insert(f.clone()));
        if fresh.is_empty() {
            return;
        }
        let bytes: usize = fresh.iter().map(RuleFiring::size_bytes).sum();
        let st = self.updates.get_mut(&update).expect("state exists");
        *st.data_sent.entry(name.clone()).or_default() += 1;
        self.report
            .update_mut(update, ctx.now())
            .sent
            .entry(name.clone())
            .or_default()
            .record(fresh.len() as u64, bytes as u64);
        self.tracer.emit_with(|| TraceEvent::RuleFire {
            peer: self.id.0,
            link: target.0,
            firings: fresh.len() as u64,
        });
        self.post(
            ctx,
            target,
            Body::UpdateData { update, rule: name.clone(), firings: fresh, hops },
        );
    }

    /// Handles the source-side close notification for outgoing link `rule`.
    fn process_link_closed(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        rule: RuleName,
        data_msgs: u64,
    ) {
        let st = self.updates.get_mut(&update).expect("state created by caller");
        let received = st.data_received.get(&rule).copied().unwrap_or(0);
        if received < data_msgs {
            // Data still in flight (lost + pending retransmission): defer
            // the close until the last data message is processed.
            st.pending_close.insert(rule, data_msgs);
            return;
        }
        self.commit_link_close(ctx, update, rule);
    }

    /// The paper's close rule: "an acquaintance closes an incoming link …
    /// if all its outgoing links which are relevant for this incoming link
    /// are in the state closed". Requires the request to have been seen
    /// (otherwise the link set is not yet initialised).
    fn check_in_link_closes(&mut self, ctx: &mut Context<Envelope>, update: UpdateId) {
        let st = self.updates.get(&update).expect("state exists");
        if !st.request_seen || st.complete {
            return;
        }
        let candidates: Vec<(RuleName, NodeId)> = self
            .book
            .incoming()
            .iter()
            .filter(|(name, _)| !st.scoped || st.active_in.contains(*name))
            .filter(|(name, _)| !st.in_closed.contains(*name))
            .filter(|(name, _)| {
                self.book.relevant_outgoing(name).iter().all(|o| st.out_closed.contains(o))
            })
            .map(|(name, r)| (name.clone(), r.target))
            .collect();
        for (name, target) in candidates {
            let st = self.updates.get_mut(&update).expect("state exists");
            st.in_closed.insert(name.clone());
            let data_msgs = st.data_sent.get(&name).copied().unwrap_or(0);
            self.post(ctx, target, Body::LinkClosed { update, rule: name, data_msgs });
        }
    }

    /// "When all outgoing links of a node are in the state closed, then the
    /// node is also in the state closed."
    fn check_node_closed(&mut self, update: UpdateId, now: SimTime) {
        let st = self.updates.get(&update).expect("state exists");
        if !st.request_seen {
            return;
        }
        let closed = if st.scoped {
            st.requested_out.iter().all(|name| st.out_closed.contains(name))
        } else {
            self.book.outgoing().keys().all(|name| st.out_closed.contains(name))
        };
        if closed {
            let rep = self.report.update_mut(update, now);
            if rep.closed_at.is_none() {
                rep.closed_at = Some(now);
            }
        }
    }

    /// Handles a DS credit return. The deficit is an *aggregate* counter,
    /// and under loss + crashes a credit can be returned twice for one
    /// message: the receiver's `DsAck` arrives but the transport ack for
    /// the DS message is lost, the sender keeps retransmitting, the
    /// receiver then dies, and the retransmission is eventually abandoned
    /// — surrendering a credit that already came back. The subtraction
    /// therefore saturates: the surplus only ever *accelerates*
    /// disengagement toward a presumed-dead subtree, which is the
    /// documented crash semantics (the update completes without it).
    pub(crate) fn handle_ds_ack(
        &mut self,
        ctx: &mut Context<Envelope>,
        update: UpdateId,
        credits: u64,
    ) {
        let st = self.updates.entry(update).or_insert_with(|| UpdateState::new(update));
        st.deficit = st.deficit.saturating_sub(credits);
        let deficit = st.deficit;
        self.tracer.emit_with(|| TraceEvent::DsCredit { peer: self.id.0, credits, deficit });
        self.maybe_disengage(ctx, update);
    }

    /// DS disengagement / termination detection.
    fn maybe_disengage(&mut self, ctx: &mut Context<Envelope>, update: UpdateId) {
        let st = self.updates.get_mut(&update).expect("state exists");
        if !st.engaged || st.deficit != 0 {
            return;
        }
        if st.initiator {
            if !st.complete {
                self.on_global_quiescence(ctx, update);
            }
        } else {
            let parent = st.parent.expect("engaged non-initiator has a parent");
            st.engaged = false;
            st.parent = None;
            self.tracer.emit_with(|| TraceEvent::DsAck {
                peer: self.id.0,
                to: parent.0,
                credits: 1,
            });
            self.post(ctx, parent, Body::DsAck { update, credits: 1 });
        }
    }

    /// The initiator detected global quiescence: flood `UpdateComplete`.
    fn on_global_quiescence(&mut self, ctx: &mut Context<Envelope>, update: UpdateId) {
        self.finish_update(update, ctx.now());
        for acq in self.book.acquaintances().clone() {
            self.post(ctx, acq, Body::UpdateComplete { update });
        }
    }

    /// Handles (and relays) the completion flood.
    pub(crate) fn handle_update_complete(
        &mut self,
        ctx: &mut Context<Envelope>,
        from: NodeId,
        update: UpdateId,
    ) {
        let now = ctx.now();
        let st = self.updates.entry(update).or_insert_with(|| UpdateState::new(update));
        if st.complete {
            return;
        }
        self.finish_update(update, now);
        for acq in self.book.acquaintances().clone() {
            if acq != from {
                self.post(ctx, acq, Body::UpdateComplete { update });
            }
        }
    }

    /// Force-closes whatever cyclic dependencies kept open and stamps the
    /// completion time.
    fn finish_update(&mut self, update: UpdateId, now: SimTime) {
        let st = self.updates.get_mut(&update).expect("state exists");
        st.complete = true;
        for name in self.book.outgoing().keys() {
            st.out_closed.insert(name.clone());
        }
        for name in self.book.incoming().keys() {
            st.in_closed.insert(name.clone());
        }
        let rep = self.report.update_mut(update, now);
        if rep.closed_at.is_none() {
            rep.closed_at = Some(now);
        }
        rep.completed_at = Some(now);
        self.report.ldb_tuples = self.ldb.tuple_count() as u64;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::network::CoDbNetwork;
    use codb_net::SimConfig;
    use codb_relational::{tup, TField, Value};
    use codb_store::{Codec, ScratchDir, SyncPolicy};

    #[test]
    fn update_state_defaults() {
        let u = UpdateId { origin: NodeId(0), epoch: 0, seq: 0 };
        let st = UpdateState::new(u);
        assert!(!st.initiator);
        assert!(!st.engaged);
        assert_eq!(st.deficit, 0);
        assert!(st.is_out_open(&"r".to_owned()));
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
    #[test]
    fn a_firing_is_shared_from_sent_cache_to_recv_cache_not_copied() {
        let (mut net, src, tgt) = link("person(N, A)");
        net.sim_mut().inject(crate::HARNESS_PEER, tgt.peer(), Envelope::control(Body::StartUpdate));
        // Up to the event that applies the data at `tgt`; the transport
        // ack for it is still on its way back to `src`.
        while net.node(tgt).recv_cache.get("r").is_none_or(|c| c.is_empty()) {
            assert!(net.sim_mut().step(), "quiescent before any data arrived");
        }
        let received = &net.node(tgt).recv_cache["r"];
        let sent = &net.node(src).sent_cache[&("r".to_owned(), None)];
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
                net.open_persistence_all(tmp.path(), SyncPolicy::Always, Codec::Binary).unwrap();
                net.run_update(tgt);
                let before = net.node(tgt);
                let (ldb, recv) = (before.ldb().clone(), before.recv_cache.clone());
                let wal_records = before.store().unwrap().wal_records();
                let credits = sent_count(before, "ds_ack");

                let bogus = UpdateId { origin: src, epoch: 7, seq: 0 };
                let firings = firings.clone();
                let body = if as_repair {
                    Body::RejoinRepair { rule: "r".to_owned(), firings }
                } else {
                    Body::UpdateData { update: bogus, rule: "r".to_owned(), firings, hops: 1 }
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
                    assert_eq!(sent_count(node, "ds_ack"), credits + 1, "{case}");
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
                net.restart_node_from_disk(tgt, &dir, SyncPolicy::Always, Codec::Binary)
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                assert_eq!(net.node(tgt).ldb(), &ldb, "{case}");
            }
        }
    }

    /// A receive cache read back from disk is made of other allocations
    /// than the firings `src` fires again for the rejoin repair and the
    /// next update; it must suppress them all the same, or every template
    /// would be instantiated a second time with fresh nulls.
    #[test]
    fn a_recovered_receive_cache_suppresses_refired_templates() {
        for codec in [Codec::Binary, Codec::Json] {
            let tmp = ScratchDir::new("core-glav-restart");
            let (mut net, _, tgt) = link("person(N, D)");
            net.open_persistence_all(tmp.path(), SyncPolicy::Always, codec).unwrap();
            net.run_update(tgt);
            let ldb = net.node(tgt).ldb().clone();
            assert_eq!(net.node(tgt).nulls_invented(), 2);

            net.crash_node(tgt);
            let dir = CoDbNetwork::node_data_dir(tmp.path(), "tgt");
            net.restart_node_from_disk(tgt, &dir, SyncPolicy::Always, codec).unwrap();
            let repaired = net.node(tgt).report().messages_received.get("rejoin_repair");
            assert_eq!(repaired, Some(&1), "src re-fired the whole link");
            net.run_update(tgt);
            assert_eq!(net.node(tgt).nulls_invented(), 2, "{codec}: a null was minted twice");
            assert_eq!(net.node(tgt).ldb(), &ldb, "{codec}");
        }
    }
}
