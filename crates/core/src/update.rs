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
        if !self.book.outgoing().contains_key(&rule) {
            // Stale rule (configuration changed mid-update): data ignored.
            return;
        }

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

        // Template-level dedup against everything already received on this
        // link — across updates, not just within one: re-running an update
        // must not re-instantiate existential templates with fresh nulls
        // (that would silently duplicate GLAV data on every run).
        let cache = self.recv_cache.entry(rule.clone()).or_default();
        let fresh: Vec<RuleFiring> =
            firings.into_iter().filter(|f| cache.insert(f.clone())).collect();
        if !fresh.is_empty() {
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
                .expect("firings validated against schema");
            let added: u64 = deltas.values().map(|v| v.len() as u64).sum();
            self.report.update_mut(update, now).tuples_added += added;
            if self.tracer.is_enabled() {
                let r = self.tracer.intern(&rule);
                self.tracer.emit(TraceEvent::UpdateApply {
                    peer: self.id.0,
                    rule: r,
                    tuples: added,
                });
            }
            if !deltas.is_empty() {
                if hops >= self.settings.max_hops {
                    // Chase safety valve.
                    self.report.update_mut(update, now).truncated = true;
                } else {
                    // Re-compute dependent incoming links by substituting
                    // R with T'.
                    self.propagate_deltas(ctx, update, &deltas, hops + 1);
                }
            }
        }

        if deferred_close_ready {
            self.commit_link_close(ctx, update, rule);
        }
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
        let mut firings = Vec::new();
        for (rel, tuples) in deltas {
            if self.book.incoming_reading(rel).contains(name) {
                firings.extend(
                    link.rule.fire_delta(&self.ldb, rel, tuples).expect("schema-validated rule"),
                );
            }
        }
        (link.target, firings)
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
        let fresh: Vec<RuleFiring> =
            firings.into_iter().filter(|f| cache.insert(f.clone())).collect();
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
mod tests {
    use super::*;

    #[test]
    fn update_state_defaults() {
        let u = UpdateId { origin: NodeId(0), epoch: 0, seq: 0 };
        let st = UpdateState::new(u);
        assert!(!st.initiator);
        assert!(!st.engaged);
        assert_eq!(st.deficit, 0);
        assert!(st.is_out_open(&"r".to_owned()));
    }
}
