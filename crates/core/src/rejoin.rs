//! The crash-rejoin handshake.
//!
//! A node restarted from its `codb-store` directory recovers its LDB, its
//! receiver-side dedup caches and its protocol counters — but its
//! *neighbors* still hold per-link sent caches built against
//! the dead incarnation. Those caches assume the receiver never forgets;
//! a crash is exactly a receiver forgetting (any data that was in flight,
//! or applied but not yet durable under a relaxed
//! [`codb_store::SyncPolicy`], is gone). Left alone, the caches would
//! suppress that data forever and the network could never reconverge.
//!
//! What the receiver does not forget is how far each link into it was
//! fired: every [`Body::UpdateData`] and [`Body::RejoinRepair`] carries
//! the part of the link's log its batch covers ([`crate::messages::Mark`],
//! positions `from..to` in the log of the link body's relation), and the
//! receiver keeps a *mark* per link, with the sender's epoch, in its
//! store: in the WAL record of the batch that moved it, and in the head
//! of every rotated WAL ([`codb_store::LinkMark`]). Only a batch that
//! starts within what the kept mark covers moves it
//! ([`codb_store::Span::extend`]): one that overtook a batch lost and
//! sent again moves nothing, so the kept mark covers no batch logged
//! after it. What survives a crash is the mark of the last durable record
//! that moved it — a mark never runs ahead of the data it covers.
//!
//! The handshake:
//!
//! 1. The recovered node opens with a new incarnation **epoch** (the
//!    store's `codb.epoch` counter, bumped on every open), stamped on every
//!    envelope it sends, and, as its first act on start, posts
//!    [`Body::Rejoin`] to every acquaintance, carrying the recovered mark
//!    of each link the acquaintance feeds it.
//! 2. A neighbor acts on the first envelope of the new epoch it hears —
//!    the `Rejoin` or anything the new incarnation sent before it:
//!    [`crate::reliable::Reliable::heard`] is the one place a new
//!    incarnation is detected. It writes off the engagement credits the
//!    dead incarnation held, drops the sent cache of every link
//!    **targeting** the rejoined node, asks to be adopted in every update
//!    it has not seen complete (the dead incarnation's completion-tree
//!    children died with it) and releases their held links. Where that
//!    envelope is the `Rejoin`, the marks it reports are taken first;
//!    otherwise data fired on those links before the `Rejoin` arrives
//!    fires whole.
//! 3. On the `Rejoin` it repairs each of those links: a link still without
//!    a mark takes the reported one where this node trusts it
//!    (`CoDbNode::adopt_reported_mark`, the one place a mark is set from
//!    a peer's report); each fires what its mark does not cover — whole
//!    where it has none — and ships it as [`Body::RejoinRepair`]. The
//!    repair goes through the link's sent cache, so afterwards the link's
//!    mark covers the LDB ([`crate::update`], "What changed since"): the
//!    next update ships, and evaluates, deltas only. After a clean shutdown
//!    nothing lies past a trusted mark, and no repair is sent at all;
//!    after a kill, what lies past it is what the dead incarnation never
//!    made durable (and what was still on its way to it). The rejoined
//!    node drops what it still holds before its WAL
//!    ([`codb_store::apply_arrived`]).
//! 4. The `Rejoin` itself is a sequenced message like any other: its
//!    transport ack retires it, echoing its epoch, so an ack from an
//!    earlier incarnation's handshake retires nothing. Toward a neighbor
//!    that is down it parks behind the barrier, and goes out when that
//!    neighbor is heard again.
//!
//! A reported mark is trusted where the log positions it names still hold
//! what they held when it was made: it was made in this node's current
//! incarnation, or in the one just before and names no position past
//! what this incarnation recovered of the relation (a recovered log is a
//! prefix of the log before the crash). A rules file or a restore breaks
//! that continuity (`CoDbNode::break_continuity`): no mark made before
//! it is trusted in this incarnation, and the store counts one
//! incarnation more, so none reads as from the one just before after a
//! restart either. A link whose body has several atoms never carries a
//! mark, and is repaired whole.
//!
//! Only a grown epoch acts: a duplicate `Rejoin` is acked as any duplicate
//! is, and an envelope of a dead incarnation is dropped. Clearing on equal
//! epochs would let a delayed duplicate wipe a cache an intervening update
//! had legitimately rebuilt (safe but wasteful).

use crate::ids::{NodeId, RuleName, UpdateId};
use crate::messages::{Body, Envelope};
use crate::node::CoDbNode;
use crate::rules::LinkId;
use crate::update::{Batch, SentCache, Shipped};
use codb_net::Context;
use codb_relational::{FiringSet, Instance};
use codb_store::LinkMark;
use codb_trace::TraceEvent;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How far a node's relation logs continue those its earlier incarnations
/// filed: what a mark a peer reports back is checked against.
#[derive(Debug, Default)]
pub(crate) struct Continuity {
    /// The first incarnation epoch whose marks still describe this node's
    /// logs: past the current one once a rules file or a restore broke
    /// them.
    trusted_from: u64,
    /// Each relation's log length as the store recovered it: all this
    /// incarnation holds of the one before.
    recovered: BTreeMap<String, u64>,
}

impl Continuity {
    /// The continuity of a node that has just recovered `ldb` from its
    /// store.
    pub(crate) fn recovered(ldb: &Instance) -> Self {
        let recovered = ldb.relations().map(|r| (r.name().to_owned(), r.len() as u64));
        Continuity { trusted_from: 0, recovered: recovered.collect() }
    }
}

impl CoDbNode {
    /// Posts this incarnation's `Rejoin` to every acquaintance, once
    /// (no-op unless a store recovery marked the node pending), each with
    /// the recovered marks of the links that acquaintance feeds this node.
    pub(crate) fn announce_rejoin(&mut self, ctx: &mut Context<Envelope>) {
        if !self.pending_rejoin {
            return;
        }
        self.pending_rejoin = false;
        let epoch = self.reliable.epoch();
        self.tracer.emit_with(|| TraceEvent::RejoinAnnounce { peer: self.id.0, epoch });
        let book = Arc::clone(&self.book);
        for &acq in book.acquaintances() {
            let fed = book.outgoing().iter().map(|id| book.link(*id)).filter(|l| l.source == acq);
            let kept = |name: &RuleName| self.persist.as_ref()?.marks().get(&**name).copied();
            let marks = fed.filter_map(|l| Some((l.name.clone(), kept(&l.name)?))).collect();
            self.post(ctx, acq, Body::Rejoin { marks });
        }
    }

    /// Reacts to `first`, the first envelope of `from`'s new incarnation,
    /// whatever it carries: writes off the engagement credits the dead
    /// incarnation held (`dead`), drops the sent caches toward `from` (its
    /// `Rejoin` repairs them) — taking the marks it reports at once where
    /// `first` is that `Rejoin`, so that what follows fires past them —
    /// asks to be adopted in every update this node has not seen complete,
    /// and releases their held links.
    pub(crate) fn handle_new_incarnation(
        &mut self,
        ctx: &mut Context<Envelope>,
        from: NodeId,
        dead: Vec<UpdateId>,
        first: &Body,
    ) {
        self.write_off(ctx, dead);
        let invalidated = self.invalidate_sent_caches_toward(from);
        self.tracer.emit_with(|| TraceEvent::RejoinRecv {
            peer: self.id.0,
            from: from.0,
            invalidated: invalidated as u64,
        });
        if let Body::Rejoin { marks } = first {
            self.take_reported_marks(from, marks);
        }
        // The dead incarnation's lists of completion-tree children died
        // with it, and this node may have been on one. (An update the dead
        // incarnation started, its successor ends when asked.) Nor will it
        // close the links it fed: nothing here holds on for them, and the
        // new incarnation, asked to adopt this node in every update still
        // open here, holds on for no close its predecessor was sent.
        self.adopt_all(ctx);
        self.release_at(ctx, from);
        self.release_all(ctx);
    }

    /// Handles `from`'s `Rejoin` (its epoch was acted on when heard): the
    /// barrier-release repair of window (a) — the crashed incarnation may
    /// have lost applied-but-unsynced records this node's sent caches
    /// assumed it held, and it should not wait for the next organic update.
    /// Each link targeting `from` fires what its mark does not cover — past
    /// the one `marks` reports where this node trusts it, whole where it
    /// has none — and ships it as [`Body::RejoinRepair`].
    pub(crate) fn handle_rejoin(
        &mut self,
        ctx: &mut Context<Envelope>,
        from: NodeId,
        marks: Vec<(RuleName, LinkMark)>,
    ) {
        self.take_reported_marks(from, &marks);
        let book = Arc::clone(&self.book);
        for &id in book.incoming().iter().filter(|id| book.link(**id).target == from) {
            let firings = self.fire_link_unsent(id);
            self.post_repair(ctx, id, firings, 1);
        }
    }

    /// Every link targeting `from` that has no mark — nothing fired it
    /// since its cache was dropped — takes the one `marks` reports for it,
    /// where this node trusts it.
    fn take_reported_marks(&mut self, from: NodeId, marks: &[(RuleName, LinkMark)]) {
        let book = Arc::clone(&self.book);
        for &id in book.incoming().iter().filter(|id| book.link(**id).target == from) {
            let reported = marks.iter().find(|(rule, _)| *rule == book.link(id).name);
            if let (None, Some(&(_, mark))) = (&self.sent_cache[id.index()].mark, reported) {
                self.adopt_reported_mark(id, mark);
            }
        }
    }

    /// Sets incoming link `link`'s mark to `reported`, the position its
    /// target reports its firings reached, empties its sent set and
    /// anchors its next batch there ([`Shipped::Reported`]), if
    /// this node trusts the report (module docs): the position is in the
    /// log of the link's one body relation, of this incarnation or of the
    /// one just before and within what this one recovered of it, and no
    /// rules file or restore came since.
    fn adopt_reported_mark(&mut self, link: LinkId, reported: LinkMark) {
        let atoms = &self.book.link(link).rule.rule().body.atoms;
        let [atom] = &atoms[..] else {
            return;
        };
        let Some(relation) = self.ldb.get(&atom.relation) else {
            return;
        };
        let (epoch, continuity) = (self.epoch(), &self.continuity);
        let reach = if reported.epoch < continuity.trusted_from {
            None
        } else if reported.epoch == epoch {
            Some(relation.len() as u64)
        } else if epoch.checked_sub(1) == Some(reported.epoch) {
            continuity.recovered.get(relation.name()).copied()
        } else {
            None
        };
        let trusted = reach.is_some_and(|reach| reported.position <= reach);
        let Some(version) = relation.version_at(reported.position).filter(|_| trusted) else {
            return;
        };
        let cache = &mut self.sent_cache[link.index()];
        cache.sent = FiringSet::default();
        cache.mark = Some(Box::new([version]));
        cache.shipped = Shipped::Reported(reported.position);
    }

    /// A rules file or a restore replaced what this node's links read, or
    /// how they read it: no mark a peer holds from before is trusted from
    /// here on — not in this incarnation, and (the store counting one
    /// incarnation more) not as the one before the next — and the marks
    /// this node holds of its own links into it are forgotten.
    pub(crate) fn break_continuity(&mut self) {
        self.continuity.trusted_from = self.epoch() + 1;
        if let Some(store) = &mut self.persist {
            store.forget_marks();
            if let Err(e) = store.skip_incarnation() {
                self.persist_error = Some(e.to_string());
                self.persist = None;
            }
        }
    }

    /// Traces the transport ack of this incarnation's `Rejoin` by `from`,
    /// with how many of its `Rejoin`s are still unacked.
    pub(crate) fn trace_rejoin_acked(&self, from: NodeId) {
        self.tracer.emit_with(|| {
            let pending = self.reliable.pending();
            let pending = pending.iter().filter(|(_, env)| matches!(env.body, Body::Rejoin { .. }));
            TraceEvent::RejoinAck { peer: self.id.0, from: from.0, pending: pending.count() as u64 }
        });
    }

    /// Handles a [`Body::RejoinRepair`] batch on outgoing link `rule`: the
    /// arrival of [`crate::update`]'s data flow minus the per-update
    /// bookkeeping — cross-update dedup and apply, WAL logging with the
    /// batch's mark, the hop valve — then a cascade of further repair
    /// toward links reading the changed relations. The receiver-side
    /// dedup bounds the cascade where the rules are weakly acyclic (a
    /// firing is applied, and forwarded, at most once per link, ever), and
    /// `max_hops` bounds it where they are not.
    pub(crate) fn handle_rejoin_repair(
        &mut self,
        ctx: &mut Context<Envelope>,
        rule: RuleName,
        batch: Batch,
    ) {
        let Some(link) = self.book.outgoing_named(&rule) else {
            return; // stale rule name after a reconfiguration
        };
        let hops = batch.hops;
        let (grown, propagate) = self.arrive(link, batch);
        if !propagate {
            return;
        }
        // Cascade: downstream nodes may also be missing data derived from
        // what was just repaired (the crashed node forwarded some of it,
        // but not necessarily all). Semi-naive delta evaluation, exactly
        // like update propagation, but carried by repair messages.
        for id in self.links_reading(&grown) {
            let out = self.fire_arrival(id, &grown);
            self.post_repair(ctx, id, out, hops + 1);
        }
    }

    /// Filters repair `firings` for incoming link `link` through the link's
    /// sent cache, as update data is, and posts the remainder to the link's
    /// target as the cascade's `hops`-th hop, with the link's mark.
    fn post_repair(
        &mut self,
        ctx: &mut Context<Envelope>,
        link: LinkId,
        firings: Vec<codb_relational::RuleFiring>,
        hops: u64,
    ) {
        let fresh = self.filter_sent(link, firings);
        if !fresh.is_empty() {
            self.report.repair_firings += fresh.len() as u64;
            let (rule, target) = (self.book.link(link).name.clone(), self.book.link(link).target);
            let mark = self.ship_mark(link);
            self.post(ctx, target, Body::RejoinRepair { rule, firings: fresh, hops, mark });
        }
    }

    /// Drops the sent cache of every link whose target is `peer`, and with
    /// it the link's mark. Returns how many of those caches held a mark or
    /// a firing (a projection-free link's record is its mark alone).
    fn invalidate_sent_caches_toward(&mut self, peer: NodeId) -> usize {
        let toward = self.book.incoming().iter().filter(|id| self.book.link(**id).target == peer);
        let held = |cache: SentCache| cache.mark.is_some() || !cache.sent.is_empty();
        toward.filter(|id| held(std::mem::take(&mut self.sent_cache[id.index()]))).count()
    }

    /// True while a store recovery still owes the acquaintances a
    /// `Rejoin` round (cleared when the round is posted on start).
    pub fn rejoin_pending(&self) -> bool {
        self.pending_rejoin
    }
}

#[cfg(test)]
mod tests {
    //! The rejoin-handshake unit matrix, driven through `on_message` with
    //! epoch-stamped envelopes against a single node state machine and a
    //! hand-held [`Context`] (no simulator): duplicate `Rejoin`s, a dead
    //! incarnation's straggler, crash-during-rejoin (a second incarnation
    //! overtaking), a neighbor that never saw the old epoch, a new
    //! incarnation first heard on something other than its `Rejoin`, and
    //! the repair's arrival side.

    use super::*;
    use crate::config::NetworkConfig;
    use crate::messages::{CarriedAck, Mark};
    use crate::node::NodeSettings;
    use codb_net::{Command, Peer, PeerId, SimTime};
    use codb_trace::Tracer;
    use std::collections::VecDeque;

    /// hub feeds both spoke1 and spoke2; spoke1 also feeds hub (so the
    /// hub has one *outgoing* link, proving those caches are untouched).
    const TRIANGLE: &str = r#"
        node hub
        node spoke1
        node spoke2
        schema hub: h(int)
        schema spoke1: s1(int)
        schema spoke2: s2(int)
        data hub: h(1). h(2).
        rule to1 @ hub -> spoke1: s1(X) <- h(X).
        rule to2 @ hub -> spoke2: s2(X) <- h(X).
        rule back @ spoke1 -> hub: h(X) <- s1(X).
    "#;

    /// The hub node plus the ids of its two spokes.
    fn hub() -> (CoDbNode, NodeId, NodeId) {
        let config = NetworkConfig::parse(TRIANGLE).unwrap();
        let hub = &config.nodes[0];
        let node = CoDbNode::new(
            hub.id,
            &hub.name,
            hub.schema.clone(),
            hub.data.clone(),
            &config.rules,
            NodeSettings::default(),
        );
        (node, config.nodes[1].id, config.nodes[2].id)
    }

    fn firing(k: i64) -> codb_relational::RuleFiring {
        codb_relational::RuleFiring::new([(
            "x",
            vec![codb_relational::glav::TField::Const(codb_relational::Value::Int(k))],
        )])
    }

    /// Sequenced envelope `seq` of `from`'s incarnation `epoch`.
    fn sequenced(epoch: u64, seq: u64, body: Body) -> Envelope {
        Envelope { seq: Some(seq), epoch, base: 0, ack: None, body }
    }

    /// Delivers `env` from `from` to `node` and returns what the callback
    /// sent, as `(destination, envelope)`.
    fn deliver(node: &mut CoDbNode, from: NodeId, env: Envelope) -> Vec<(PeerId, Envelope)> {
        let mut cmds = VecDeque::new();
        let mut ctx = Context::new(node.id.peer(), SimTime::ZERO, &[], &mut cmds);
        node.on_message(&mut ctx, from.peer(), env);
        sends(cmds)
    }

    fn sends(cmds: VecDeque<Command<Envelope>>) -> Vec<(PeerId, Envelope)> {
        cmds.into_iter()
            .filter_map(|c| match c {
                Command::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    fn rejoin(marks: Vec<(RuleName, LinkMark)>) -> Body {
        Body::Rejoin { marks }
    }

    /// The mark a `RejoinRepair` carries.
    fn repair_mark(env: &Envelope) -> Option<Mark> {
        match env.body {
            Body::RejoinRepair { mark, .. } => mark,
            _ => panic!("not a repair: {env:?}"),
        }
    }

    /// The `RejoinRepair`s among `out`, as `(destination, rule, firings)`.
    fn repairs(out: &[(PeerId, Envelope)]) -> Vec<(PeerId, String, usize)> {
        let repairs = out.iter().filter_map(|(to, env)| match &env.body {
            Body::RejoinRepair { rule, firings, .. } => {
                Some((*to, rule.to_string(), firings.len()))
            }
            _ => None,
        });
        repairs.collect()
    }

    /// Whether `out` is exactly one bare ack of `(seq, epoch)` to `to`.
    fn only_acked(out: &[(PeerId, Envelope)], to: NodeId, seq: u64, epoch: u64) -> bool {
        matches!(out, [(p, env)] if *p == to.peer()
            && matches!(env.body, Body::Ack)
            && env.ack == Some(CarriedAck { seq, epoch }))
    }

    #[test]
    fn rejoin_invalidates_only_links_toward_the_rejoined_peer() {
        let (mut node, spoke1, spoke2) = hub();
        for rule in ["to1", "to2"] {
            node.sent_cached_mut(rule).insert(firing(7));
        }
        let out = deliver(&mut node, spoke1, sequenced(1, 0, rejoin(vec![])));
        // The cache toward spoke1 was invalidated — re-primed by the repair
        // push, it no longer holds the stale firing. spoke2's cache stays.
        assert!(!node.sent_cached("to1").contains(&firing(7)));
        assert!(node.sent_cached("to2").contains(&firing(7)));
        // With no mark reported, the link's full data is re-pushed
        // immediately as repair — the rejoined node must not wait for the
        // next organic update — and the repair carries the `Rejoin`'s ack
        // and the part of the link's log it covers: all of `h`'s.
        assert_eq!(repairs(&out), [(spoke1.peer(), "to1".to_owned(), 2)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].1.ack, Some(CarriedAck { seq: 0, epoch: 1 }));
        assert_eq!(repair_mark(&out[0].1), Mark::span(0, 2, false));
        // The whole view went through the emptied cache: `to1` is caught
        // up, and the next update start fires only what is inserted from
        // here on. Nothing told `to2` anything.
        assert!(node.caught_up("to1") && !node.caught_up("to2"));
        // What drops the cache drops the mark: they are one value.
        assert_eq!(node.invalidate_sent_caches_toward(spoke1), 1);
        assert!(!node.caught_up("to1"));
        assert_eq!(node.invalidate_sent_caches_toward(spoke2), 1);
    }

    /// The first envelope of a new incarnation drops the caches toward it
    /// whatever it is — here a bare ack that retires nothing, which the
    /// receive path is otherwise done with at once: the stale cache must
    /// not serve traffic meanwhile. The repair waits for the `Rejoin`,
    /// which carries the marks.
    #[test]
    fn a_new_incarnation_first_heard_on_a_bare_ack_drops_its_caches_and_its_rejoin_repairs() {
        let (mut node, spoke1, _) = hub();
        node.sent_cached_mut("to1").insert(firing(7));
        let ack = CarriedAck { seq: 0, epoch: 0 };
        let bare = Envelope { epoch: 1, ack: Some(ack), ..Envelope::control(Body::Ack) };
        let out = deliver(&mut node, spoke1, bare);
        assert!(!node.sent_cached("to1").contains(&firing(7)));
        assert!(repairs(&out).is_empty(), "{out:?}");
        // The `Rejoin` that follows finds the epoch heard, and repairs.
        let out = deliver(&mut node, spoke1, sequenced(1, 0, rejoin(vec![])));
        assert_eq!(repairs(&out), [(spoke1.peer(), "to1".to_owned(), 2)]);
        assert!(node.caught_up("to1"));
    }

    /// The `Rejoin` of spoke1 reporting that the hub's firings on `to1`
    /// reached position `at` of `h`'s log, in hub incarnation `epoch`.
    fn reported(epoch: u64, at: u64) -> Body {
        rejoin(vec![("to1".into(), LinkMark { epoch, position: at })])
    }

    /// A mark the hub made in its current incarnation is trusted: the
    /// repair carries what lies past it, anchored on it, and nothing where
    /// nothing does — not even an envelope beyond the `Rejoin`'s ack. A
    /// position past the log's end is no mark of this log: the link is
    /// repaired whole, from the start of the log.
    #[test]
    fn a_mark_of_this_incarnation_repairs_what_lies_past_it() {
        let anchored = |from| Mark::span(from, 2, true);
        let whole = Mark::span(0, 2, false);
        let cases = [
            (2, None),
            (1, Some((1, anchored(1)))),
            (0, Some((2, anchored(0)))),
            (3, Some((2, whole))),
            (u64::MAX, Some((2, whole))),
        ];
        for (at, repaired) in cases {
            let (mut node, spoke1, _) = hub();
            let out = deliver(&mut node, spoke1, sequenced(1, 0, reported(0, at)));
            let want: Vec<_> =
                repaired.map(|(n, _)| (spoke1.peer(), "to1".to_owned(), n)).into_iter().collect();
            assert_eq!(repairs(&out), want, "mark at {at}");
            match repaired {
                Some((_, mark)) => assert_eq!(repair_mark(&out[0].1), mark, "mark at {at}"),
                None => assert!(only_acked(&out, spoke1, 0, 1), "{out:?}"),
            }
            assert!(node.caught_up("to1"), "mark at {at}");
        }
    }

    /// A mark of the incarnation just before is trusted as far as this one
    /// recovered the relation; one of two incarnations back never is, nor
    /// one of an incarnation to come (the wire is outside the program).
    #[test]
    fn a_mark_of_the_incarnation_before_is_trusted_within_what_was_recovered() {
        let cases = [
            (1, 1, Some(1)),
            (1, 2, Some(2)),
            (0, 1, Some(2)),
            (1, 0, Some(2)),
            (3, 1, Some(2)),
            (u64::MAX, u64::MAX, Some(2)),
        ];
        for (epoch, at, repaired) in cases {
            let (mut node, spoke1, _) = hub();
            // Incarnation 2, which recovered `h(1)` of incarnation 1's log;
            // `h(2)` was filed since.
            node.reliable.set_epoch(2);
            node.continuity = Continuity {
                trusted_from: 0,
                recovered: [("h".to_owned(), 1)].into_iter().collect(),
            };
            let out = deliver(&mut node, spoke1, sequenced(1, 0, reported(epoch, at)));
            let want: Vec<_> =
                repaired.map(|n| (spoke1.peer(), "to1".to_owned(), n)).into_iter().collect();
            assert_eq!(repairs(&out), want, "mark at {at} of incarnation {epoch}");
        }
    }

    /// A restore or a rules file since the mark was made breaks the logs'
    /// continuity: the link is repaired whole, as with no mark at all.
    #[test]
    fn a_mark_made_before_a_restore_or_a_rules_file_is_not_trusted() {
        let (mut node, spoke1, _) = hub();
        node.restore(node.snapshot());
        let out = deliver(&mut node, spoke1, sequenced(1, 0, reported(0, 2)));
        assert_eq!(repairs(&out), [(spoke1.peer(), "to1".to_owned(), 2)]);

        let (mut node, spoke1, _) = hub();
        let config = NetworkConfig::parse(TRIANGLE).unwrap();
        node.install_book(crate::rules::RuleBook::for_node(node.id, &config.rules));
        let out = deliver(&mut node, spoke1, sequenced(1, 0, reported(0, 2)));
        assert_eq!(repairs(&out), [(spoke1.peer(), "to1".to_owned(), 2)]);
        // A mark made after it, in the same incarnation, is not trusted
        // either: the break counts from the incarnation, not the moment.
        let out = deliver(&mut node, spoke1, sequenced(2, 0, reported(0, 2)));
        assert_eq!(repairs(&out), [(spoke1.peer(), "to1".to_owned(), 2)]);
    }

    #[test]
    fn duplicate_rejoin_is_acked_but_invalidates_nothing() {
        let (mut node, spoke1, _) = hub();
        deliver(&mut node, spoke1, sequenced(1, 0, rejoin(vec![])));
        // An update ran meanwhile and legitimately rebuilt the cache.
        node.sent_cached_mut("to1").insert(firing(1));

        // The duplicate (same epoch, e.g. a delayed copy) must not wipe
        // the rebuilt cache — but it is still acked, as any duplicate is.
        let out = deliver(&mut node, spoke1, sequenced(1, 0, rejoin(vec![])));
        assert!(node.sent_cached("to1").contains(&firing(1)));
        assert!(only_acked(&out, spoke1, 0, 1), "{out:?}");
    }

    #[test]
    fn stale_rejoin_from_dead_incarnation_invalidates_nothing() {
        let (mut node, spoke1, _) = hub();
        deliver(&mut node, spoke1, sequenced(3, 0, rejoin(vec![])));
        node.sent_cached_mut("to1").insert(firing(1));

        // A straggler from incarnation 2 (delayed in the network while
        // incarnation 3 completed its handshake) is stale: no wipe, and no
        // answer — whoever would read the ack is gone.
        let out = deliver(&mut node, spoke1, sequenced(2, 1, rejoin(vec![])));
        assert!(node.sent_cached("to1").contains(&firing(1)));
        assert!(out.is_empty(), "{out:?}");
        // The newest epoch stays on record.
        let out = deliver(&mut node, spoke1, sequenced(3, 1, rejoin(vec![])));
        assert!(node.sent_cached("to1").contains(&firing(1)));
        assert!(only_acked(&out, spoke1, 1, 3), "{out:?}");
    }

    #[test]
    fn crash_during_rejoin_second_incarnation_overtakes() {
        // spoke1 rejoins as incarnation 1, crashes again before the
        // handshake settles, and comes back as incarnation 2: the newer
        // epoch must invalidate again (the cache may have been rebuilt by
        // traffic between the two announcements).
        let (mut node, spoke1, _) = hub();
        deliver(&mut node, spoke1, sequenced(1, 0, rejoin(vec![])));
        node.sent_cached_mut("to1").insert(firing(1));

        let out = deliver(&mut node, spoke1, sequenced(2, 0, rejoin(vec![])));
        assert!(
            !node.sent_cached("to1").contains(&firing(1)),
            "a genuinely newer incarnation invalidates again (the repair push \
             re-primes the cache with the link's real firings only)"
        );
        assert_eq!(repairs(&out), [(spoke1.peer(), "to1".to_owned(), 2)]);
    }

    #[test]
    fn neighbor_that_never_saw_the_old_epoch_just_acks_and_records() {
        // A node with no history for the rejoined peer (it joined after
        // the peer's previous life, or never exchanged data): nothing to
        // invalidate, but the epoch is recorded and the ack still flows.
        let (mut node, spoke1, _) = hub();
        let (tracer, recorded) = Tracer::ring(64);
        node.attach_tracer(&tracer);
        assert!(node.sent_cache.iter().all(crate::update::SentCache::is_empty));
        let out = deliver(&mut node, spoke1, sequenced(5, 0, rejoin(vec![])));
        assert_eq!(out.last().unwrap().1.ack, Some(CarriedAck { seq: 0, epoch: 5 }));
        let events = recorded.lock().unwrap().events();
        let heard = events.iter().filter(|(_, ev)| matches!(ev, TraceEvent::RejoinRecv { .. }));
        let heard: Vec<_> = heard.map(|(_, ev)| ev.clone()).collect();
        let recv = TraceEvent::RejoinRecv { peer: node.id.0, from: spoke1.0, invalidated: 0 };
        assert_eq!(heard, [recv]);
        // Recorded: the next envelope of the same epoch is not a new one.
        let out = deliver(&mut node, spoke1, sequenced(5, 1, rejoin(vec![])));
        assert!(only_acked(&out, spoke1, 1, 5), "{out:?}");
    }

    #[test]
    fn announce_posts_once_to_every_acquaintance() {
        let (mut node, spoke1, spoke2) = hub();
        let (tracer, recorded) = Tracer::ring(64);
        node.attach_tracer(&tracer);
        node.reliable.set_epoch(4);
        node.pending_rejoin = true;
        let mut cmds = VecDeque::new();
        let mut ctx = Context::new(node.id.peer(), SimTime::ZERO, &[], &mut cmds);
        node.announce_rejoin(&mut ctx);
        // The announcement is one-shot.
        node.announce_rejoin(&mut ctx);
        assert!(!node.rejoin_pending());
        let out = sends(cmds);
        let dests: Vec<PeerId> = out.iter().map(|(to, _)| *to).collect();
        assert_eq!(dests, [spoke1.peer(), spoke2.peer()]);
        assert!(out
            .iter()
            .all(|(_, env)| matches!(env.body, Body::Rejoin { .. }) && env.epoch == 4));

        // The transport ack retires a `Rejoin`, as any sequenced message.
        let ack = |to: PeerId| {
            let seq = out.iter().find(|(p, _)| *p == to).unwrap().1.seq.unwrap();
            Envelope {
                epoch: 0,
                ack: Some(CarriedAck { seq, epoch: 4 }),
                ..Envelope::control(Body::Ack)
            }
        };
        deliver(&mut node, spoke1, ack(spoke1.peer()));
        deliver(&mut node, spoke2, ack(spoke2.peer()));
        assert!(!node.reliable.has_outstanding());
        let events = recorded.lock().unwrap().events();
        let acked: Vec<_> = events
            .iter()
            .filter_map(|(_, ev)| match ev {
                TraceEvent::RejoinAck { from, pending, .. } => Some((*from, *pending)),
                _ => None,
            })
            .collect();
        assert_eq!(acked, [(spoke1.0, 1), (spoke2.0, 0)]);
    }

    /// A repair firing writing `h(k)` — what a neighbor re-fires on the
    /// hub's outgoing link `back` (`h(X) <- s1(X)`).
    fn h_firing(k: i64) -> codb_relational::RuleFiring {
        codb_relational::RuleFiring::new([(
            "h",
            vec![codb_relational::glav::TField::Const(codb_relational::Value::Int(k))],
        )])
    }

    fn repair(rule: &str, firings: Vec<codb_relational::RuleFiring>, hops: u64) -> Body {
        Body::RejoinRepair { rule: rule.into(), firings, hops, mark: None }
    }

    #[test]
    fn repair_applies_dedups_and_cascades() {
        let (mut node, spoke1, spoke2) = hub();
        let before = node.ldb().tuple_count();

        // h(5) arrives as repair on the hub's outgoing link `back`.
        let out = deliver(&mut node, spoke1, sequenced(0, 0, repair("back", vec![h_firing(5)], 1)));
        assert_eq!(node.ldb().tuple_count(), before + 1, "h(5) applied");
        // The change cascades: both links reading `h` re-fire their delta
        // toward their targets, as further repair.
        assert_eq!(
            repairs(&out),
            [(spoke1.peer(), "to1".to_owned(), 1), (spoke2.peer(), "to2".to_owned(), 1)]
        );

        // A second batch with the same ground firing is fully suppressed by
        // the relation that holds it: nothing applied, nothing cascaded —
        // the termination argument for repair chains in cyclic topologies.
        let out = deliver(&mut node, spoke1, sequenced(0, 1, repair("back", vec![h_firing(5)], 1)));
        assert_eq!(node.ldb().tuple_count(), before + 1);
        assert!(only_acked(&out, spoke1, 1, 0), "{out:?}");

        // A stale rule name (reconfiguration race) is ignored outright.
        let stale = repair("no-such-link", vec![h_firing(6)], 1);
        let out = deliver(&mut node, spoke1, sequenced(0, 2, stale));
        assert_eq!(node.ldb().tuple_count(), before + 1);
        assert!(only_acked(&out, spoke1, 2, 0), "{out:?}");
    }

    /// A repair batch at the hop limit is applied and goes no further, and
    /// the marks of the links reading what it brought stay behind it.
    #[test]
    fn repair_at_the_hop_limit_applies_and_cascades_nothing() {
        let (mut node, spoke1, _) = hub();
        node.settings.max_hops = 3;
        deliver(&mut node, spoke1, sequenced(1, 0, rejoin(vec![])));
        assert!(node.caught_up("to1"));

        let before = node.ldb().tuple_count();
        let out = deliver(&mut node, spoke1, sequenced(1, 1, repair("back", vec![h_firing(5)], 3)));
        assert_eq!(node.ldb().tuple_count(), before + 1, "h(5) applied");
        assert!(only_acked(&out, spoke1, 1, 1), "nothing cascades past the valve: {out:?}");
        assert!(!node.caught_up("to1") && !node.caught_up("to2"));
    }
}
