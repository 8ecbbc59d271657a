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
//! The handshake closes the gap:
//!
//! 1. The recovered node opens with a new incarnation **epoch** (the
//!    store's `codb.epoch` counter, bumped on every open) and, as its
//!    first act on start, posts [`Body::Rejoin`]`{ epoch }` to every
//!    acquaintance.
//! 2. Each neighbor, on a *strictly newer* epoch than it has processed
//!    for that peer, drops the sent cache of every link **targeting**
//!    the rejoined node, answers [`Body::RejoinAck`] echoing the epoch,
//!    and at once re-fires those links over its whole LDB as
//!    [`Body::RejoinRepair`] — one full re-send, of which the rejoined
//!    node's recovered receive caches suppress everything it still
//!    holds. The re-send goes through the emptied caches, so it re-primes
//!    them and leaves the links *caught up* ([`crate::update`], "What an
//!    update start fires"): the next update ships, and evaluates, deltas
//!    only.
//! 3. The rejoined node counts acks for its *current* epoch only; a
//!    stale ack from an earlier incarnation's handshake is ignored, just
//!    like a stale `Rejoin` (epoch ≤ the highest processed) invalidates
//!    nothing at the neighbor.
//!
//! Duplicate `Rejoin`s are acked idempotently without re-invalidating:
//! clearing on equal epochs would let a delayed duplicate wipe a cache an
//! intervening update had legitimately rebuilt (safe but wasteful); only
//! a genuinely new incarnation invalidates.

use crate::ids::{NodeId, RuleName};
use crate::messages::{Body, Envelope};
use crate::node::CoDbNode;
use crate::rules::LinkId;
use codb_net::Context;
use codb_trace::TraceEvent;
use std::collections::BTreeSet;
use std::sync::Arc;

impl CoDbNode {
    /// Posts this incarnation's `Rejoin` to every acquaintance, once
    /// (no-op unless a store recovery marked the node pending).
    pub(crate) fn announce_rejoin(&mut self, ctx: &mut Context<Envelope>) {
        if !self.pending_rejoin {
            return;
        }
        self.pending_rejoin = false;
        // A fresh incarnation starts a fresh handshake: acks collected by
        // a prior incarnation (a second restart in the same process) must
        // not overstate this round's completion.
        self.rejoin_acks.clear();
        let epoch = self.reliable.epoch();
        self.tracer.emit_with(|| TraceEvent::RejoinAnnounce { peer: self.id.0, epoch });
        for &acq in Arc::clone(&self.book).acquaintances() {
            self.post(ctx, acq, Body::Rejoin { epoch });
        }
    }

    /// Handles a neighbor's `Rejoin`: invalidates sent-caches toward it
    /// on a strictly newer epoch, and always acks (idempotently) echoing
    /// the announced epoch.
    pub(crate) fn handle_rejoin(&mut self, ctx: &mut Context<Envelope>, from: NodeId, epoch: u64) {
        let known = self.rejoin_epochs.get(&from).copied();
        let fresh_incarnation = known.is_none_or(|k| epoch > k);
        let invalidated = if fresh_incarnation {
            self.rejoin_epochs.insert(from, epoch);
            self.invalidate_sent_caches_toward(from)
        } else {
            0 // duplicate/stale incarnation: ack without invalidating
        };
        self.tracer.emit_with(|| TraceEvent::RejoinRecv {
            peer: self.id.0,
            from: from.0,
            invalidated: invalidated as u64,
        });
        self.post(ctx, from, Body::RejoinAck { epoch });
        if fresh_incarnation {
            // Barrier-release repair (window (a)): the crashed incarnation
            // may have lost applied-but-unsynced records this node's
            // sent-caches assumed it held. Don't wait for the next organic
            // update — re-fire every link targeting the rejoined node over
            // the full LDB right now. The caches toward it were just
            // cleared, so this is one full re-send (the rejoined node's
            // recovered receive caches suppress everything it still has),
            // and it re-primes the sent caches as a side effect.
            self.send_rejoin_repair(ctx, from);
            // The dead incarnation's lists of completion-tree children died
            // with it, and this node may have been on one: it asks to be
            // adopted in every update it has not seen complete. (The
            // credits the dead incarnation held were written off when its
            // successor was first heard, `Reliable::heard`; an update it
            // started, its successor ends when asked.)
            self.adopt_all(ctx);
        }
    }

    /// Re-fires every incoming link targeting `peer` over the full LDB and
    /// ships the non-empty remainders as [`Body::RejoinRepair`]. The whole
    /// view has now been through the link's sent cache: it is caught up.
    fn send_rejoin_repair(&mut self, ctx: &mut Context<Envelope>, peer: NodeId) {
        let book = Arc::clone(&self.book);
        for &id in book.incoming().iter().filter(|id| book.link(**id).target == peer) {
            let firings = book.link(id).rule.fire(&self.ldb).expect("schema-validated rule");
            self.post_repair(ctx, id, firings, 1);
            self.sent_cache[id.index()].caught_up = true;
        }
    }

    /// Handles a [`Body::RejoinRepair`] batch that came `hops` hops on
    /// outgoing link `rule`: the arrival of [`crate::update`]'s data flow
    /// minus the per-update bookkeeping — cross-update template dedup, WAL
    /// logging, apply, the hop valve — then a cascade of further repair
    /// toward links reading the changed relations. The receiver-side
    /// caches bound the cascade where the rules are weakly acyclic (a
    /// firing is applied, and forwarded, at most once per link, ever), and
    /// `max_hops` bounds it where they are not.
    pub(crate) fn handle_rejoin_repair(
        &mut self,
        ctx: &mut Context<Envelope>,
        rule: RuleName,
        firings: Vec<codb_relational::RuleFiring>,
        hops: u64,
    ) {
        let Some(link) = self.book.outgoing_named(&rule) else {
            return; // stale rule name after a reconfiguration
        };
        let (deltas, propagate) = self.arrive(link, firings, hops);
        if !propagate {
            return;
        }
        // Cascade: downstream nodes may also be missing data derived from
        // what was just repaired (the crashed node forwarded some of it,
        // but not necessarily all). Semi-naive delta evaluation, exactly
        // like update propagation, but carried by repair messages.
        for id in self.links_reading(&deltas) {
            let out = self.fire_link_deltas(id, &deltas);
            self.post_repair(ctx, id, out, hops + 1);
        }
    }

    /// Filters repair `firings` for incoming link `link` through the link's
    /// sent cache, as update data is, and posts the remainder to the link's
    /// target as the cascade's `hops`-th hop.
    fn post_repair(
        &mut self,
        ctx: &mut Context<Envelope>,
        link: LinkId,
        firings: Vec<codb_relational::RuleFiring>,
        hops: u64,
    ) {
        let fresh = self.filter_sent(link, firings);
        if !fresh.is_empty() {
            let (rule, target) = (self.book.link(link).name.clone(), self.book.link(link).target);
            self.post(ctx, target, Body::RejoinRepair { rule, firings: fresh, hops });
        }
    }

    /// Handles a `RejoinAck`: counts it only when it confirms *this*
    /// incarnation's handshake (an ack echoing a dead incarnation's epoch
    /// is a straggler, not a confirmation).
    pub(crate) fn handle_rejoin_ack(&mut self, from: NodeId, epoch: u64) {
        if epoch == self.reliable.epoch() {
            self.rejoin_acks.insert(from);
        }
        if self.tracer.is_enabled() {
            let pending =
                self.book.acquaintances().len().saturating_sub(self.rejoin_acks.len()) as u64;
            self.tracer.emit(TraceEvent::RejoinAck { peer: self.id.0, from: from.0, pending });
        }
    }

    /// Drops the sent cache of every link whose target is `peer`, and with
    /// it the link's caught-up mark. Returns how many of those caches held
    /// any firing.
    pub(crate) fn invalidate_sent_caches_toward(&mut self, peer: NodeId) -> usize {
        let toward = self.book.incoming().iter().filter(|id| self.book.link(**id).target == peer);
        toward
            .filter(|id| !std::mem::take(&mut self.sent_cache[id.index()]).sent.is_empty())
            .count()
    }

    /// Acquaintances that acknowledged this incarnation's `Rejoin`.
    pub fn rejoin_acks(&self) -> &BTreeSet<NodeId> {
        &self.rejoin_acks
    }

    /// True while a store recovery still owes the acquaintances a
    /// `Rejoin` round (cleared when the round is posted on start).
    pub fn rejoin_pending(&self) -> bool {
        self.pending_rejoin
    }
}

#[cfg(test)]
mod tests {
    //! The rejoin-handshake unit matrix, driven against a single node
    //! state machine with a hand-held [`Context`] (no simulator): stale
    //! acks, duplicate `Rejoin`s, crash-during-rejoin (a second
    //! incarnation overtaking an unfinished handshake), and a neighbor
    //! that never saw the old epoch.

    use super::*;
    use crate::config::NetworkConfig;
    use crate::node::NodeSettings;
    use codb_net::{Command, PeerId, SimTime};
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

    type Commands = VecDeque<Command<Envelope>>;

    /// A context for one call into `node`, queueing onto `cmds`.
    fn ctx<'a>(node: &CoDbNode, cmds: &'a mut Commands) -> Context<'a, Envelope> {
        Context::new(node.id.peer(), SimTime::ZERO, &[], cmds)
    }

    /// Drains the sends queued in `cmds`, as `(destination, body)`.
    fn sends(cmds: &mut Commands) -> Vec<(PeerId, Body)> {
        cmds.drain(..)
            .filter_map(|c| match c {
                Command::Send { to, msg } => Some((to, msg.body)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn rejoin_invalidates_only_links_toward_the_rejoined_peer() {
        let (mut node, spoke1, spoke2) = hub();
        for rule in ["to1", "to2"] {
            node.sent_cached_mut(rule).insert(firing(7));
        }
        let mut cmds = Commands::new();

        node.handle_rejoin(&mut ctx(&node, &mut cmds), spoke1, 1);
        // The cache toward spoke1 was invalidated — re-primed by the repair
        // push, it no longer holds the stale firing. spoke2's cache stays.
        assert!(!node.sent_cached("to1").contains(&firing(7)));
        assert!(node.sent_cached("to2").contains(&firing(7)));
        // The handshake is acked (echoing the announced epoch), and the
        // link's full data is re-pushed immediately as repair — the
        // rejoined node must not wait for the next organic update.
        let out = sends(&mut cmds);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], (p, Body::RejoinAck { epoch: 1 }) if p == spoke1.peer()));
        match &out[1] {
            (p, Body::RejoinRepair { rule, firings, hops: 1 }) => {
                assert_eq!(*p, spoke1.peer());
                assert_eq!(rule, "to1");
                assert_eq!(firings.len(), 2, "h(1) and h(2) both re-fired");
            }
            other => panic!("expected RejoinRepair, got {other:?}"),
        }
        // The whole view went through the emptied cache: `to1` is caught
        // up, and the next update start fires only what is inserted from
        // here on. Nothing told `to2` anything.
        assert!(node.caught_up("to1") && !node.caught_up("to2"));
        // What drops the cache drops the mark: they are one value.
        assert_eq!(node.invalidate_sent_caches_toward(spoke1), 1);
        assert!(!node.caught_up("to1"));
        assert_eq!(node.invalidate_sent_caches_toward(spoke2), 1);
    }

    #[test]
    fn duplicate_rejoin_is_acked_but_invalidates_nothing() {
        let (mut node, spoke1, _) = hub();
        let mut cmds = Commands::new();
        node.handle_rejoin(&mut ctx(&node, &mut cmds), spoke1, 1);
        // An update ran meanwhile and legitimately rebuilt the cache.
        node.sent_cached_mut("to1").insert(firing(1));

        // The duplicate (same epoch, e.g. a delayed copy) must not wipe
        // the rebuilt cache — but it is still acked, idempotently.
        node.handle_rejoin(&mut ctx(&node, &mut cmds), spoke1, 1);
        assert!(node.sent_cached("to1").contains(&firing(1)));
        let acks: Vec<_> = sends(&mut cmds)
            .into_iter()
            .filter(|(_, b)| matches!(b, Body::RejoinAck { .. }))
            .collect();
        assert_eq!(acks.len(), 2, "every Rejoin gets an ack");
    }

    #[test]
    fn stale_rejoin_from_dead_incarnation_invalidates_nothing() {
        let (mut node, spoke1, _) = hub();
        let mut cmds = Commands::new();
        node.handle_rejoin(&mut ctx(&node, &mut cmds), spoke1, 3);
        node.sent_cached_mut("to1").insert(firing(1));

        // A straggler from incarnation 2 (delayed in the network while
        // incarnation 3 completed its handshake) is stale: no wipe, and
        // its ack echoes the stale epoch so the live incarnation ignores
        // it (see `stale_ack_from_old_epoch_is_ignored`).
        node.handle_rejoin(&mut ctx(&node, &mut cmds), spoke1, 2);
        assert!(node.sent_cached("to1").contains(&firing(1)));
        assert_eq!(node.rejoin_epochs[&spoke1], 3, "the newest epoch stays on record");
        let last = sends(&mut cmds).pop().unwrap();
        assert!(matches!(last.1, Body::RejoinAck { epoch: 2 }));
    }

    #[test]
    fn stale_ack_from_old_epoch_is_ignored() {
        let (mut node, spoke1, spoke2) = hub();
        // This node itself recovered: incarnation 2.
        node.reliable.set_epoch(2);
        node.handle_rejoin_ack(spoke1, 1); // ack of the dead handshake
        assert!(node.rejoin_acks().is_empty(), "stale ack must not count");
        node.handle_rejoin_ack(spoke1, 2);
        node.handle_rejoin_ack(spoke2, 2);
        assert_eq!(node.rejoin_acks().len(), 2);
    }

    #[test]
    fn crash_during_rejoin_second_incarnation_overtakes() {
        // spoke1 rejoins as incarnation 1, crashes again before the
        // handshake settles, and comes back as incarnation 2: the newer
        // Rejoin must invalidate again (the cache may have been rebuilt
        // by traffic between the two announcements).
        let (mut node, spoke1, _) = hub();
        let mut cmds = Commands::new();
        node.handle_rejoin(&mut ctx(&node, &mut cmds), spoke1, 1);
        node.sent_cached_mut("to1").insert(firing(1));

        node.handle_rejoin(&mut ctx(&node, &mut cmds), spoke1, 2);
        assert!(
            !node.sent_cached("to1").contains(&firing(1)),
            "a genuinely newer incarnation invalidates again (the repair push \
             re-primes the cache with the link's real firings only)"
        );
        assert_eq!(node.rejoin_epochs[&spoke1], 2);
    }

    #[test]
    fn neighbor_that_never_saw_the_old_epoch_just_acks_and_records() {
        // A node with no history for the rejoined peer (it joined after
        // the peer's previous life, or never exchanged data): nothing to
        // invalidate, but the epoch is recorded and the ack still flows.
        let (mut node, spoke1, _) = hub();
        assert!(node.sent_cache.iter().all(crate::update::SentCache::is_empty));
        let mut cmds = Commands::new();
        node.handle_rejoin(&mut ctx(&node, &mut cmds), spoke1, 5);
        assert_eq!(node.rejoin_epochs[&spoke1], 5);
        let out = sends(&mut cmds);
        assert!(matches!(out[0].1, Body::RejoinAck { epoch: 5 }));
    }

    #[test]
    fn announce_posts_once_to_every_acquaintance() {
        let (mut node, spoke1, spoke2) = hub();
        node.reliable.set_epoch(4);
        node.pending_rejoin = true;
        let mut cmds = Commands::new();
        node.announce_rejoin(&mut ctx(&node, &mut cmds));
        let mut dests: Vec<PeerId> = sends(&mut cmds)
            .into_iter()
            .filter(|(_, b)| matches!(b, Body::Rejoin { epoch: 4 }))
            .map(|(to, _)| to)
            .collect();
        dests.sort();
        assert_eq!(dests, vec![spoke1.peer(), spoke2.peer()]);
        // The announcement is one-shot.
        node.announce_rejoin(&mut ctx(&node, &mut cmds));
        assert!(sends(&mut cmds).is_empty());
        assert!(!node.rejoin_pending());
    }

    #[test]
    fn announce_clears_acks_from_a_prior_incarnation() {
        // Second restart in the same process: the ack set built by the
        // previous incarnation's handshake must not carry over, or the
        // new round would overstate its completion.
        let (mut node, spoke1, _) = hub();
        node.reliable.set_epoch(4);
        node.rejoin_acks.insert(spoke1);
        node.pending_rejoin = true;
        let mut cmds = Commands::new();
        node.announce_rejoin(&mut ctx(&node, &mut cmds));
        assert!(node.rejoin_acks().is_empty(), "stale acks cleared with the new round");
        node.handle_rejoin_ack(spoke1, 4);
        assert_eq!(node.rejoin_acks().len(), 1);
    }

    /// A repair firing writing `h(k)` — what a neighbor re-fires on the
    /// hub's outgoing link `back` (`h(X) <- s1(X)`).
    fn h_firing(k: i64) -> codb_relational::RuleFiring {
        codb_relational::RuleFiring::new([(
            "h",
            vec![codb_relational::glav::TField::Const(codb_relational::Value::Int(k))],
        )])
    }

    #[test]
    fn repair_applies_dedups_and_cascades() {
        let (mut node, spoke1, spoke2) = hub();
        let mut cmds = Commands::new();
        let before = node.ldb().tuple_count();

        // h(5) arrives as repair on the hub's outgoing link `back`.
        node.handle_rejoin_repair(
            &mut ctx(&node, &mut cmds),
            "back".to_owned(),
            vec![h_firing(5)],
            1,
        );
        assert_eq!(node.ldb().tuple_count(), before + 1, "h(5) applied");
        // The change cascades: both links reading `h` re-fire their delta
        // toward their targets, as further repair.
        let out = sends(&mut cmds);
        let repairs: Vec<_> = out
            .iter()
            .filter_map(|(to, b)| match b {
                Body::RejoinRepair { rule, firings, .. } => {
                    Some((*to, rule.clone(), firings.len()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            repairs,
            vec![(spoke1.peer(), "to1".to_owned(), 1), (spoke2.peer(), "to2".to_owned(), 1),]
        );

        // A duplicate repair batch is fully suppressed by the receive
        // cache: nothing applied, nothing cascaded — the termination
        // argument for repair chains in cyclic topologies.
        node.handle_rejoin_repair(
            &mut ctx(&node, &mut cmds),
            "back".to_owned(),
            vec![h_firing(5)],
            1,
        );
        assert_eq!(node.ldb().tuple_count(), before + 1);
        assert!(sends(&mut cmds).is_empty());

        // A stale rule name (reconfiguration race) is ignored outright.
        node.handle_rejoin_repair(
            &mut ctx(&node, &mut cmds),
            "no-such-link".to_owned(),
            vec![h_firing(6)],
            1,
        );
        assert_eq!(node.ldb().tuple_count(), before + 1);
    }

    /// A repair batch at the hop limit is applied and goes no further, and
    /// the links reading what it brought are no longer caught up.
    #[test]
    fn repair_at_the_hop_limit_applies_and_cascades_nothing() {
        let (mut node, spoke1, _) = hub();
        node.settings.max_hops = 3;
        let mut cmds = Commands::new();
        node.handle_rejoin(&mut ctx(&node, &mut cmds), spoke1, 1);
        assert!(node.caught_up("to1"));
        sends(&mut cmds);

        let before = node.ldb().tuple_count();
        node.handle_rejoin_repair(
            &mut ctx(&node, &mut cmds),
            "back".to_owned(),
            vec![h_firing(5)],
            3,
        );
        assert_eq!(node.ldb().tuple_count(), before + 1, "h(5) applied");
        assert!(sends(&mut cmds).is_empty(), "nothing cascades past the valve");
        assert!(!node.caught_up("to1") && !node.caught_up("to2"));
    }
}
