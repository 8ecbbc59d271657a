//! Reliable delivery over lossy pipes.
//!
//! JXTA gives coDB reliable pipes; our simulator optionally drops messages
//! (experiment E12), so the node embeds a small ARQ layer: every protocol
//! message carries a transport sequence number, the receiver answers with a
//! transport [`crate::messages::Body::Ack`], duplicates are suppressed by a
//! per-sender seen-set, and unacknowledged messages are retransmitted on a
//! timer. Rule firings and protocol steps are idempotent (firing-level
//! dedup, Dijkstra–Scholten credits counted once), so retransmission is
//! safe.
//!
//! The per-link reliable-send state (`next_seq`, the outstanding set, the
//! per-sender seen-sets) is deliberately **not** persisted: it is
//! epoch-keyed instead. Every sequenced envelope carries the sender's
//! incarnation epoch (`codb-store`'s `codb.epoch`, bumped per recovery);
//! a receiver seeing a grown epoch resets that sender's seen-set, a
//! receiver seeing a stale epoch drops the envelope, and acks echo the
//! epoch so a dead incarnation's ack cannot retire a live one's seq. The
//! protocol-level counters that *must* survive (update/query/fetch ids)
//! are persisted separately as WAL `Counters` records and additionally
//! `(epoch, seq)`-keyed — see [`crate::ids`] and [`crate::rejoin`].

use crate::ids::NodeId;
use crate::messages::{Body, Envelope};
use codb_net::SimTime;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// An unacknowledged message.
#[derive(Clone, Debug)]
pub struct Outstanding {
    /// Destination node.
    pub to: NodeId,
    /// The body (resent verbatim under the same seq).
    pub body: Body,
    /// Retransmission attempts so far.
    pub attempts: u32,
    /// Parked behind the rejoin barrier: the destination is presumed
    /// crashed mid-handshake, so this message is held — not retransmitted,
    /// not abandoned — until the peer is heard from again. A late ack can
    /// still retire it.
    pub parked: bool,
}

/// What one retransmission round decided.
#[derive(Debug, Default)]
pub struct RetransmissionRound {
    /// Messages to resend under their original seqs.
    pub resend: Vec<(NodeId, Envelope)>,
    /// Messages dropped after exhausting `max_attempts` (DS credits must
    /// be surrendered by the caller).
    pub abandoned: Vec<Outstanding>,
    /// Peers newly barred this round, with how many outstanding messages
    /// were parked toward each.
    pub barred: Vec<(NodeId, u64)>,
}

/// The unacknowledged messages, indexed by transport seq. Seqs are handed
/// out in order and retired nearly so, so the live ones sit in a short
/// window `[base, base + slots.len())`: slot `i` holds seq `base + i`, a
/// retired seq leaves `None`, and the window's front advances past retired
/// slots. Registering and retiring a message are O(1); a message that
/// stays unacknowledged (parked behind the barrier, say) pins the front,
/// and the window then holds one empty slot per seq issued since.
#[derive(Debug, Default)]
struct SeqRing {
    /// Seq of `slots[0]`; the next seq to hand out is `base + slots.len()`.
    base: u64,
    slots: VecDeque<Option<Outstanding>>,
    /// Occupied slots.
    live: usize,
}

impl SeqRing {
    /// Registers `message` under the next seq, which it returns.
    fn push(&mut self, message: Outstanding) -> u64 {
        let seq = self.base + self.slots.len() as u64;
        self.slots.push_back(Some(message));
        self.live += 1;
        seq
    }

    /// The slot of `seq`, if `seq` is inside the window. A seq from the
    /// wire may be anything: one already retired and passed, one never
    /// issued, `u64::MAX` — none of them indexes.
    fn slot_mut(&mut self, seq: u64) -> Option<&mut Option<Outstanding>> {
        let offset = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(offset)
    }

    /// Retires `seq`; `None` unless it was outstanding.
    fn remove(&mut self, seq: u64) -> Option<Outstanding> {
        let message = self.slot_mut(seq)?.take()?;
        self.live -= 1;
        self.trim();
        Some(message)
    }

    /// Advances the window past the retired seqs at its front.
    fn trim(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Keeps the messages `keep` approves, visiting them in seq order.
    fn retain(&mut self, mut keep: impl FnMut(&mut Outstanding) -> bool) {
        for slot in &mut self.slots {
            if slot.as_mut().is_some_and(|o| !keep(o)) {
                *slot = None;
                self.live -= 1;
            }
        }
        self.trim();
    }

    /// `(seq, message)` in seq order.
    fn iter(&self) -> impl Iterator<Item = (u64, &Outstanding)> {
        let base = self.base;
        self.slots.iter().enumerate().filter_map(move |(i, o)| Some((base + i as u64, o.as_ref()?)))
    }

    /// `(seq, message)` in seq order, mutably.
    fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut Outstanding)> {
        let base = self.base;
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(move |(i, o)| Some((base + i as u64, o.as_mut()?)))
    }
}

/// Per-node reliable-delivery state.
#[derive(Debug)]
pub struct Reliable {
    /// This node's incarnation, stamped on every sequenced envelope. Set
    /// once at (re)start — bumping it mid-life would strand in-flight
    /// retransmissions as stale.
    epoch: u64,
    outstanding: SeqRing,
    /// Peers behind the rejoin barrier: retransmission toward them
    /// exhausted `max_attempts` on a message that must not be abandoned
    /// ([`Body::parks_behind_barrier`]), so the peer is presumed crashed
    /// and every such message parks until the peer is heard from again
    /// ([`Reliable::release_peer`]). Later sends toward a barred peer go
    /// out normally — they double as liveness probes (a silently healed
    /// partition never announces itself with a handshake) — and join the
    /// parked queue only if they exhaust their own budget.
    barred: BTreeSet<NodeId>,
    /// Per-sender duplicate suppression: the sender's highest epoch seen
    /// and the seqs processed within it. A higher epoch (the sender was
    /// restarted from its store) resets the seq set; envelopes from lower
    /// epochs are stale and dropped.
    seen: BTreeMap<NodeId, (u64, BTreeSet<u64>)>,
    /// Retransmission interval.
    pub retransmit_after: SimTime,
    /// Give up on a message after this many retransmissions (the peer or
    /// pipe is presumed gone — a crashed JXTA peer). With loss `p` the
    /// residual failure probability is `p^max_attempts`.
    pub max_attempts: u32,
}

impl Reliable {
    /// Creates the layer with the given retransmission interval.
    pub fn new(retransmit_after: SimTime) -> Self {
        Reliable {
            epoch: 0,
            outstanding: SeqRing::default(),
            barred: BTreeSet::new(),
            seen: BTreeMap::new(),
            retransmit_after,
            max_attempts: 25,
        }
    }

    /// Sets this node's incarnation (call before any message is sent —
    /// i.e. right after recovering from a store).
    pub fn set_epoch(&mut self, epoch: u64) {
        debug_assert!(self.outstanding.live == 0, "epoch change with messages in flight");
        self.epoch = epoch;
    }

    /// This node's incarnation, as stamped on its sequenced envelopes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Wraps `body` for `to`: assigns a transport seq and registers the
    /// message for retransmission until acked.
    pub fn wrap(&mut self, to: NodeId, body: Body) -> Envelope {
        let held = Outstanding { to, body: body.clone(), attempts: 0, parked: false };
        Envelope { seq: Some(self.outstanding.push(held)), epoch: self.epoch, body }
    }

    /// Handles a transport ack; returns `true` if it retired an
    /// outstanding message. `seq` is whatever the wire carried: a
    /// duplicate ack, one for a seq never issued and one far out of range
    /// all return `false`.
    pub fn on_ack(&mut self, seq: u64) -> bool {
        self.outstanding.remove(seq).is_some()
    }

    /// Receiver-side dedup. Returns `true` when the message should be
    /// processed (first delivery), `false` for duplicates and for stale
    /// envelopes from a previous incarnation of `from`. Unsequenced
    /// envelopes (harness control) are always processed. A grown epoch
    /// resets `from`'s seq set: the node was restarted and its sequence
    /// numbers start over.
    pub fn should_process(&mut self, from: NodeId, epoch: u64, seq: Option<u64>) -> bool {
        match seq {
            None => true,
            Some(s) => {
                let (seen_epoch, seqs) =
                    self.seen.entry(from).or_insert_with(|| (0, BTreeSet::new()));
                if epoch > *seen_epoch {
                    *seen_epoch = epoch;
                    seqs.clear();
                }
                if epoch < *seen_epoch {
                    return false;
                }
                seqs.insert(s)
            }
        }
    }

    /// One retransmission round: bumps attempt counters and decides, per
    /// message that exhausted [`Reliable::max_attempts`], between the two
    /// give-up semantics. Ordinary traffic is abandoned (returned so the
    /// caller can surrender DS credits). Traffic that must survive a
    /// crashed peer's handshake ([`Body::parks_behind_barrier`]) instead
    /// *bars* the peer: it and every other barrier-eligible message toward
    /// that peer park until [`Reliable::release_peer`]. Parked messages
    /// are skipped entirely — no attempts, no resend.
    pub fn retransmission_round(&mut self) -> RetransmissionRound {
        let mut round = RetransmissionRound::default();
        let mut newly_barred: BTreeSet<NodeId> = BTreeSet::new();
        let max = self.max_attempts;
        self.outstanding.retain(|o| {
            if o.parked {
                return true;
            }
            o.attempts += 1;
            if o.attempts > max {
                if o.body.parks_behind_barrier() {
                    newly_barred.insert(o.to);
                    true // parked below, once the peer is barred
                } else {
                    round.abandoned.push(o.clone());
                    false
                }
            } else {
                true
            }
        });
        for peer in newly_barred {
            self.barred.insert(peer);
            let mut parked = 0u64;
            for (_, o) in self.outstanding.iter_mut() {
                if o.to == peer && !o.parked && o.body.parks_behind_barrier() {
                    o.parked = true;
                    parked += 1;
                }
            }
            round.barred.push((peer, parked));
        }
        let epoch = self.epoch;
        round.resend = self
            .outstanding
            .iter()
            .filter(|(_, o)| !o.parked)
            .map(|(seq, o)| (o.to, Envelope { seq: Some(seq), epoch, body: o.body.clone() }))
            .collect();
        round
    }

    /// True iff `peer` is behind the rejoin barrier.
    pub fn is_barred(&self, peer: NodeId) -> bool {
        self.barred.contains(&peer)
    }

    /// Messages currently parked toward `peer`.
    pub fn parked_toward(&self, peer: NodeId) -> usize {
        self.outstanding.iter().filter(|(_, o)| o.parked && o.to == peer).count()
    }

    /// Lifts the barrier toward `peer` (it has been heard from again):
    /// returns every parked message, in seq order under the original seqs,
    /// with attempt counters reset so delivery gets a full retransmission
    /// budget. Returns an empty vec when the peer was not barred.
    pub fn release_peer(&mut self, peer: NodeId) -> Vec<(NodeId, Envelope)> {
        if !self.barred.remove(&peer) {
            return Vec::new();
        }
        let epoch = self.epoch;
        self.outstanding
            .iter_mut()
            .filter(|(_, o)| o.parked && o.to == peer)
            .map(|(seq, o)| {
                o.parked = false;
                o.attempts = 0;
                (o.to, Envelope { seq: Some(seq), epoch, body: o.body.clone() })
            })
            .collect()
    }

    /// All messages currently awaiting acknowledgement, re-wrapped under
    /// their original seqs (inspection; does not bump attempts).
    pub fn pending(&self) -> Vec<(NodeId, Envelope)> {
        self.outstanding
            .iter()
            .map(|(seq, o)| {
                (o.to, Envelope { seq: Some(seq), epoch: self.epoch, body: o.body.clone() })
            })
            .collect()
    }

    /// True iff any message awaits acknowledgement (parked or not).
    pub fn has_outstanding(&self) -> bool {
        self.outstanding.live > 0
    }

    /// True iff any *unparked* message awaits acknowledgement — the
    /// retransmit timer's arming condition. Parked messages must not keep
    /// the timer alive: they wait for the peer's next incarnation, not for
    /// the clock, and an idle network with only parked traffic must be
    /// able to quiesce.
    pub fn has_retransmittable(&self) -> bool {
        self.outstanding.iter().any(|(_, o)| !o.parked)
    }

    /// Drops outstanding messages addressed to `node` (it left the
    /// network permanently — reconfiguration, not a crash) and lifts any
    /// barrier toward it; returns how many messages were dropped.
    pub fn forget_peer(&mut self, node: NodeId) -> usize {
        let before = self.outstanding.live;
        self.outstanding.retain(|o| o.to != node);
        self.barred.remove(&node);
        before - self.outstanding.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body() -> Body {
        Body::StatsRequest
    }

    #[test]
    fn wrap_assigns_increasing_seqs() {
        let mut r = Reliable::new(SimTime::from_millis(10));
        let a = r.wrap(NodeId(1), body());
        let b = r.wrap(NodeId(2), body());
        assert_eq!(a.seq, Some(0));
        assert_eq!(b.seq, Some(1));
        assert!(r.has_outstanding());
    }

    #[test]
    fn ack_retires_exactly_once() {
        let mut r = Reliable::new(SimTime::from_millis(10));
        let e = r.wrap(NodeId(1), body());
        assert!(r.on_ack(e.seq.unwrap()));
        assert!(!r.on_ack(e.seq.unwrap()));
        assert!(!r.has_outstanding());
    }

    #[test]
    fn dedup_is_per_sender() {
        let mut r = Reliable::new(SimTime::from_millis(10));
        assert!(r.should_process(NodeId(1), 0, Some(5)));
        assert!(!r.should_process(NodeId(1), 0, Some(5)));
        assert!(r.should_process(NodeId(2), 0, Some(5)));
        assert!(r.should_process(NodeId(1), 0, None));
        assert!(r.should_process(NodeId(1), 0, None));
    }

    #[test]
    fn grown_epoch_resets_dedup_and_stale_epochs_drop() {
        let mut r = Reliable::new(SimTime::from_millis(10));
        // First incarnation of node 1 sends seqs 0 and 1.
        assert!(r.should_process(NodeId(1), 0, Some(0)));
        assert!(r.should_process(NodeId(1), 0, Some(1)));
        // The node restarts from its store (epoch 1): its restarted seq 0
        // is a fresh message, not a duplicate.
        assert!(r.should_process(NodeId(1), 1, Some(0)));
        assert!(!r.should_process(NodeId(1), 1, Some(0)), "real duplicate still dropped");
        // A straggler from the dead incarnation is stale, not replayed.
        assert!(!r.should_process(NodeId(1), 0, Some(1)));
    }

    #[test]
    fn stale_epoch_ack_must_not_retire_new_incarnation_seq() {
        // The node-level ack handler compares the ack's epoch against
        // Reliable::epoch() before calling on_ack; this pins the pieces
        // that comparison relies on. A restarted node (epoch 1) re-uses
        // seq 0; an ack echoing epoch 0 refers to the dead incarnation's
        // seq 0 and must be distinguishable.
        let mut r = Reliable::new(SimTime::from_millis(10));
        r.set_epoch(1);
        let e = r.wrap(NodeId(2), body());
        assert_eq!((e.seq, e.epoch), (Some(0), 1));
        // The node-level guard: ack epoch != current epoch → ignored.
        assert_ne!(0, r.epoch(), "stale ack epoch must not match");
        assert!(r.has_outstanding(), "seq 0 still awaiting a same-epoch ack");
        assert!(r.on_ack(0), "a same-epoch ack retires it");
    }

    #[test]
    fn epoch_is_stamped_on_envelopes() {
        let mut r = Reliable::new(SimTime::from_millis(10));
        r.set_epoch(7);
        let e = r.wrap(NodeId(1), body());
        assert_eq!(e.epoch, 7);
        let round = r.retransmission_round();
        assert_eq!(round.resend[0].1.epoch, 7);
    }

    #[test]
    fn pending_resends_same_seq() {
        let mut r = Reliable::new(SimTime::from_millis(10));
        let e = r.wrap(NodeId(1), body());
        let p = r.pending();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].0, NodeId(1));
        assert_eq!(p[0].1.seq, e.seq);
        r.on_ack(e.seq.unwrap());
        assert!(r.pending().is_empty());
    }

    #[test]
    fn forget_peer_drops_its_messages() {
        let mut r = Reliable::new(SimTime::from_millis(10));
        r.wrap(NodeId(1), body());
        r.wrap(NodeId(2), body());
        r.wrap(NodeId(1), body());
        assert_eq!(r.forget_peer(NodeId(1)), 2);
        assert_eq!(r.pending().len(), 1);
    }

    /// Drives `r` through enough rounds to exhaust `max_attempts`,
    /// returning the final round (the one where give-up decisions fall).
    fn exhaust(r: &mut Reliable) -> RetransmissionRound {
        for _ in 0..r.max_attempts {
            r.retransmission_round();
        }
        r.retransmission_round()
    }

    #[test]
    fn exhausted_rejoin_parks_instead_of_abandoning() {
        // Window (b) of the rejoin barrier: a handshake envelope toward a
        // still-dead peer must never be abandoned — back-to-back restarts
        // would strand the handshake forever.
        let mut r = Reliable::new(SimTime::from_millis(10));
        let e = r.wrap(NodeId(1), Body::Rejoin { epoch: 3 });
        let round = exhaust(&mut r);
        assert!(round.abandoned.is_empty(), "handshake traffic must not be abandoned");
        assert_eq!(round.barred, vec![(NodeId(1), 1)]);
        assert!(r.is_barred(NodeId(1)));
        assert_eq!(r.parked_toward(NodeId(1)), 1);
        // Parked: the message survives, but no longer retransmits and no
        // longer arms the timer — a sim with only parked traffic quiesces.
        assert!(r.has_outstanding());
        assert!(!r.has_retransmittable());
        assert!(r.retransmission_round().resend.is_empty());
        // The peer comes back: the envelope flows again under its original
        // seq with a full retransmission budget.
        let released = r.release_peer(NodeId(1));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].1.seq, e.seq);
        assert!(!r.is_barred(NodeId(1)));
        assert!(r.has_retransmittable());
        // A late ack still retires it.
        assert!(r.on_ack(e.seq.unwrap()));
    }

    #[test]
    fn exhausted_ordinary_traffic_still_abandons() {
        let mut r = Reliable::new(SimTime::from_millis(10));
        r.wrap(NodeId(1), Body::StatsRequest);
        let round = exhaust(&mut r);
        assert_eq!(round.abandoned.len(), 1);
        assert!(round.barred.is_empty());
        assert!(!r.is_barred(NodeId(1)));
        assert!(!r.has_outstanding());
    }

    #[test]
    fn barring_parks_all_eligible_toward_that_peer_only() {
        let mut r = Reliable::new(SimTime::from_millis(10));
        let a = r.wrap(NodeId(1), Body::Rejoin { epoch: 1 });
        r.wrap(NodeId(1), Body::StatsRequest); // ordinary: still abandons
        let b = r.wrap(NodeId(1), Body::RejoinAck { epoch: 1 });
        r.wrap(NodeId(2), Body::StatsRequest); // other peer: untouched
        let round = exhaust(&mut r);
        assert_eq!(round.barred, vec![(NodeId(1), 2)]);
        assert_eq!(round.abandoned.len(), 2, "stats toward both peers abandoned");
        assert!(r.is_barred(NodeId(1)));
        assert!(!r.is_barred(NodeId(2)));
        // Release re-sends in seq order under the original seqs.
        let released = r.release_peer(NodeId(1));
        let seqs: Vec<_> = released.iter().map(|(_, e)| e.seq).collect();
        assert_eq!(seqs, vec![a.seq, b.seq]);
    }

    #[test]
    fn late_traffic_toward_a_barred_peer_probes_then_joins_the_queue() {
        let mut r = Reliable::new(SimTime::from_millis(10));
        let first = r.wrap(NodeId(1), Body::Rejoin { epoch: 1 });
        exhaust(&mut r);
        assert!(r.is_barred(NodeId(1)));
        // New traffic toward the barred peer is still sent — it doubles as
        // a liveness probe (a healed partition never sends a handshake, so
        // holding everything would deadlock) — and gets a full
        // retransmission budget of its own.
        let late = r.wrap(NodeId(1), Body::RejoinAck { epoch: 1 });
        assert_eq!(r.parked_toward(NodeId(1)), 1);
        assert!(r.has_retransmittable());
        // If the peer really is still gone, the probe exhausts too and
        // joins the parked queue behind the earlier message.
        let round = exhaust(&mut r);
        assert_eq!(round.barred, vec![(NodeId(1), 1)], "already-barred peer, one more parked");
        assert_eq!(r.parked_toward(NodeId(1)), 2);
        assert!(!r.has_retransmittable());
        let released = r.release_peer(NodeId(1));
        let seqs: Vec<_> = released.iter().map(|(_, e)| e.seq).collect();
        assert_eq!(seqs, vec![first.seq, late.seq]);
    }

    #[test]
    fn releasing_an_unbarred_peer_is_a_noop() {
        let mut r = Reliable::new(SimTime::from_millis(10));
        r.wrap(NodeId(1), body());
        assert!(r.release_peer(NodeId(1)).is_empty());
        assert!(r.has_retransmittable(), "unparked traffic untouched");
    }

    /// The layer as it was before the ring: the outstanding messages in an
    /// ordered map by seq. Kept as the model the ring is diffed against.
    struct MapModel {
        next_seq: u64,
        max_attempts: u32,
        outstanding: BTreeMap<u64, Outstanding>,
        barred: BTreeSet<NodeId>,
    }

    /// What an operation answered, reduced to what can be compared:
    /// `(destination, seq)` lists and counts.
    #[derive(Debug, PartialEq, Eq)]
    struct Answer {
        flag: bool,
        sent: Vec<(NodeId, u64)>,
        abandoned: Vec<NodeId>,
        barred: Vec<(NodeId, u64)>,
    }

    fn answer(flag: bool, sent: Vec<(NodeId, u64)>) -> Answer {
        Answer { flag, sent, abandoned: Vec::new(), barred: Vec::new() }
    }

    fn seqs(envelopes: &[(NodeId, Envelope)]) -> Vec<(NodeId, u64)> {
        envelopes.iter().map(|(to, e)| (*to, e.seq.unwrap())).collect()
    }

    impl MapModel {
        fn wrap(&mut self, to: NodeId, body: Body) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.outstanding.insert(seq, Outstanding { to, body, attempts: 0, parked: false });
            seq
        }

        fn unparked(&self) -> Vec<(NodeId, u64)> {
            self.outstanding.iter().filter(|(_, o)| !o.parked).map(|(s, o)| (o.to, *s)).collect()
        }

        fn retransmission_round(&mut self) -> Answer {
            let (mut abandoned, mut newly) = (Vec::new(), BTreeSet::new());
            let max = self.max_attempts;
            self.outstanding.retain(|_, o| {
                if o.parked {
                    return true;
                }
                o.attempts += 1;
                if o.attempts <= max {
                    return true;
                }
                if o.body.parks_behind_barrier() {
                    newly.insert(o.to);
                    true
                } else {
                    abandoned.push(o.to);
                    false
                }
            });
            let mut barred = Vec::new();
            for peer in newly {
                self.barred.insert(peer);
                let mut parked = 0;
                for o in self.outstanding.values_mut() {
                    if o.to == peer && !o.parked && o.body.parks_behind_barrier() {
                        o.parked = true;
                        parked += 1;
                    }
                }
                barred.push((peer, parked));
            }
            Answer { flag: false, sent: self.unparked(), abandoned, barred }
        }

        fn release_peer(&mut self, peer: NodeId) -> Vec<(NodeId, u64)> {
            if !self.barred.remove(&peer) {
                return Vec::new();
            }
            let mut released = Vec::new();
            for (seq, o) in self.outstanding.iter_mut().filter(|(_, o)| o.parked && o.to == peer) {
                o.parked = false;
                o.attempts = 0;
                released.push((o.to, *seq));
            }
            released
        }

        fn forget_peer(&mut self, node: NodeId) -> usize {
            let before = self.outstanding.len();
            self.outstanding.retain(|_, o| o.to != node);
            self.barred.remove(&node);
            before - self.outstanding.len()
        }
    }

    /// The ring against the map under random traffic: every operation
    /// answers the same, and what is pending, parked and retransmittable
    /// agrees after each. Acks come as the wire may bring them — in order,
    /// out of order, twice, for seqs never issued, for `u64::MAX`.
    #[test]
    fn the_seq_ring_answers_as_the_ordered_map_did() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5E0_0126);
        for round in 0..60 {
            let mut ring = Reliable::new(SimTime::from_millis(10));
            ring.max_attempts = rng.gen_range(1..4);
            let mut map = MapModel {
                next_seq: 0,
                max_attempts: ring.max_attempts,
                outstanding: BTreeMap::new(),
                barred: BTreeSet::new(),
            };
            for step in 0..300 {
                let peer = NodeId(rng.gen_range(0..3));
                let (got, want) = match rng.gen_range(0..100) {
                    0..=44 => {
                        let body = if rng.gen_bool(0.4) {
                            Body::Rejoin { epoch: step }
                        } else {
                            Body::StatsRequest
                        };
                        let seq = ring.wrap(peer, body.clone()).seq.unwrap();
                        (
                            answer(true, vec![(peer, seq)]),
                            answer(true, vec![(peer, map.wrap(peer, body))]),
                        )
                    }
                    45..=79 => {
                        let seq = match rng.gen_range(0..10) {
                            0 => u64::MAX,
                            1 => map.next_seq + rng.gen_range(0..5),
                            2 => rng.gen_range(0..map.next_seq + 1),
                            // Mostly a live one: the oldest, or any.
                            3..=6 => map.outstanding.keys().next().copied().unwrap_or(0),
                            _ => {
                                let live: Vec<u64> = map.outstanding.keys().copied().collect();
                                if live.is_empty() {
                                    7
                                } else {
                                    live[rng.gen_range(0..live.len())]
                                }
                            }
                        };
                        let retired = map.outstanding.remove(&seq).is_some();
                        (answer(ring.on_ack(seq), vec![]), answer(retired, vec![]))
                    }
                    80..=89 => {
                        let r = ring.retransmission_round();
                        let got = Answer {
                            flag: false,
                            sent: seqs(&r.resend),
                            abandoned: r.abandoned.iter().map(|o| o.to).collect(),
                            barred: r.barred,
                        };
                        (got, map.retransmission_round())
                    }
                    90..=95 => (
                        answer(false, seqs(&ring.release_peer(peer))),
                        answer(false, map.release_peer(peer)),
                    ),
                    _ => {
                        let (a, b) = (ring.forget_peer(peer), map.forget_peer(peer));
                        (
                            answer(false, vec![(peer, a as u64)]),
                            answer(false, vec![(peer, b as u64)]),
                        )
                    }
                };
                assert_eq!(got, want, "round {round}, step {step}");
                let all: Vec<_> = map.outstanding.iter().map(|(s, o)| (o.to, *s)).collect();
                assert_eq!(seqs(&ring.pending()), all, "round {round}, step {step}");
                assert_eq!(ring.has_outstanding(), !all.is_empty());
                assert_eq!(ring.has_retransmittable(), !map.unparked().is_empty());
                for p in (0..3).map(NodeId) {
                    assert_eq!(ring.is_barred(p), map.barred.contains(&p));
                    let parked = map.outstanding.values().filter(|o| o.parked && o.to == p).count();
                    assert_eq!(ring.parked_toward(p), parked);
                }
                // The window never outgrows what is live plus the gaps
                // between, and closes when nothing is.
                let window = map.outstanding.keys().next().map_or(0, |first| map.next_seq - first);
                assert_eq!(ring.outstanding.slots.len() as u64, window);
            }
        }
    }

    #[test]
    fn forget_peer_lifts_the_barrier() {
        let mut r = Reliable::new(SimTime::from_millis(10));
        r.wrap(NodeId(1), Body::Rejoin { epoch: 1 });
        exhaust(&mut r);
        assert!(r.is_barred(NodeId(1)));
        assert_eq!(r.forget_peer(NodeId(1)), 1);
        assert!(!r.is_barred(NodeId(1)));
    }
}
