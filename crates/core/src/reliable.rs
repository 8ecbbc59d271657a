//! Reliable delivery over lossy pipes.
//!
//! JXTA gives coDB reliable pipes; our simulator optionally drops messages
//! (experiment E12), so the node embeds a small ARQ layer. All of it is
//! kept per peer, in one link state: toward the peer, the unacknowledged
//! messages in a ring indexed by a sequence number of that link alone;
//! from the peer, a window that remembers how each of its sequenced
//! messages was answered. A sequenced message is retransmitted on a timer
//! until something answers it, and what answers it costs no envelope of
//! its own when one is leaving anyway:
//!
//! * **An owed ack rides.** Receiving a sequenced envelope makes the node
//!   *owe* its sender an ack ([`CarriedAck`]: the seq, and the epoch it was
//!   stamped with). The first sequenced envelope [`Reliable::wrap`]ped for
//!   that sender in the same callback carries it in its header; only what
//!   is still owed when the handler returns leaves alone, as a bare
//!   [`Body::Ack`].
//! * **The reply rule: a Dijkstra–Scholten credit is the ack.** A DS
//!   message that does not engage its receiver is answered by one
//!   *unsequenced* envelope, the `DsAck` that returns its credit carrying
//!   the ack that retires it ([`Reliable::credit_reply`]). The reply is
//!   not itself retransmitted: if it is lost the message comes again and
//!   draws the same reply again, and the sender applies a reply's body
//!   only if its ack actually retired a message — so a credit comes back
//!   exactly once however often its reply does. The message that *engages*
//!   a node is answered by a plain ack, and its credit returns later in a
//!   sequenced `DsAck` of its own, at disengagement.
//! * **The window.** A duplicate must be answered as its first delivery
//!   was (a duplicate of the engaging message drawing a credit would
//!   return that credit twice), so the receiver keeps, per seq of the
//!   peer's current epoch, *unseen / answered by an ack / answered with
//!   the credit* — but only from the sender's **base** up: every sequenced
//!   envelope names the lowest seq its sender may still retransmit on that
//!   link, everything below it was acknowledged (or given up), can only
//!   arrive again as a stray copy, and is forgotten. What the layer holds
//!   is therefore bounded by what is in flight, in both directions; a
//!   message that stays unanswered (parked behind the rejoin barrier) pins
//!   both ends' front.
//!
//! Rule firings and protocol steps are idempotent (firing-level dedup,
//! credits counted once), so retransmission is safe.
//!
//! None of this is persisted: it is epoch-keyed instead. Every envelope
//! carries the sender's incarnation epoch (`codb-store`'s `codb.epoch`,
//! bumped per recovery); a receiver seeing a grown epoch starts that
//! sender's window over, writes off the engagement credits the dead
//! incarnation held and starts the rejoin repair ([`Reliable::heard`],
//! [`crate::rejoin`]), a receiver seeing a stale epoch
//! on a sequenced envelope drops it, and acks echo the epoch so a dead
//! incarnation's ack cannot retire a live one's seq. The protocol-level
//! counters that *must* survive (update/query/fetch ids) are persisted
//! separately as WAL `Counters` records and additionally `(epoch,
//! seq)`-keyed — see [`crate::ids`] and [`crate::rejoin`].

use crate::ids::{NodeId, UpdateId};
use crate::messages::{Body, CarriedAck, Envelope};
use std::collections::{BTreeMap, VecDeque};

/// An unacknowledged message.
#[derive(Clone, Debug)]
pub struct Outstanding {
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
    /// Messages dropped after exhausting `max_attempts`, with where they
    /// were going (DS credits must be surrendered by the caller).
    pub abandoned: Vec<(NodeId, Body)>,
    /// Peers newly barred this round, with how many outstanding messages
    /// were parked toward each.
    pub barred: Vec<(NodeId, u64)>,
}

/// What [`Reliable::forget_peer`] let go of.
#[derive(Debug, Default)]
pub struct Forgotten {
    /// The unacknowledged messages toward the peer, in seq order (the
    /// credit of every DS-counted one must be surrendered by the caller).
    pub dropped: Vec<Body>,
    /// The updates the peer was engaged in under this node — one entry per
    /// engagement credit it still held, which it can no longer return.
    pub engaged: Vec<UpdateId>,
}

/// The unacknowledged messages toward one peer, indexed by transport seq.
/// Seqs are handed out in order and retired nearly so, so the live ones sit
/// in a short window `[base, base + slots.len())`: slot `i` holds seq
/// `base + i`, a retired seq leaves `None`, and the window's front advances
/// past retired slots. Registering and retiring a message are O(1); a
/// message that stays unacknowledged (parked behind the barrier, say) pins
/// the front, and the window then holds one empty slot per seq issued
/// since.
#[derive(Debug, Default)]
struct SeqRing {
    /// Seq of `slots[0]` — the lowest seq that may still be retransmitted,
    /// which every envelope tells the peer; the next seq to hand out is
    /// `base + slots.len()`.
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

    /// Empties the ring, returning the bodies it held in seq order. The
    /// seqs are spent: the next one handed out follows the last.
    fn drain(&mut self) -> Vec<Body> {
        self.base += self.slots.len() as u64;
        self.live = 0;
        self.slots.drain(..).flatten().map(|o| o.body).collect()
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

/// How a sequenced message was answered at its first delivery — and so
/// what a duplicate of it draws again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// By a plain transport ack: the message engaged this node (its credit
    /// returns at disengagement), or carries no credit at all.
    Ack,
    /// By the unsequenced `DsAck` that returned its credit.
    Credit,
}

/// What the receive window makes of a sequenced envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Receipt {
    /// First delivery: process it. An ack is now owed.
    First,
    /// Seen before: answer it as it was answered then, and do nothing
    /// else. An ack is now owed.
    Duplicate(Answer),
    /// From a previous incarnation of the sender, or so far ahead of the
    /// window that no honest sender issued it: neither processed nor
    /// answered.
    Dropped,
}

/// The widest the receive window will stretch to reach a seq. An honest
/// sender is ahead of its base by what it has in flight (and one that ever
/// got further would only wait: what is dropped is not answered, so it
/// comes again once the base has moved); a seq from the wire may be
/// anything, and must not be able to ask for memory.
const WINDOW_LIMIT: u64 = 1 << 16;

/// The sequenced messages of one peer's current epoch, from the base it
/// last told up: `seen[i]` is how seq `base + i` was answered, `None` while
/// it has not arrived. The ring's counterpart — it too holds one slot per
/// seq between its front and the newest, and its front is the sender's.
#[derive(Debug, Default)]
struct Window {
    /// The sender's highest epoch seen. A higher one (the sender was
    /// restarted from its store, its seqs start over) resets the window;
    /// envelopes from lower ones are stale.
    epoch: u64,
    base: u64,
    seen: VecDeque<Option<Answer>>,
}

impl Window {
    /// Notes the sender's `epoch`. A grown one — the sender was restarted
    /// from its store, its seqs start over — resets the window; returns
    /// whether it did.
    fn hear(&mut self, epoch: u64) -> bool {
        if epoch <= self.epoch {
            return false;
        }
        *self = Window { epoch, ..Window::default() };
        true
    }

    /// Classifies `(epoch, seq)`, first forgetting everything below the
    /// sender's `base`: the sender retransmits nothing below it, so a seq
    /// down there can only be a stray copy of a message that was answered.
    fn receive(&mut self, epoch: u64, seq: u64, base: u64) -> Receipt {
        self.hear(epoch);
        if epoch < self.epoch {
            return Receipt::Dropped;
        }
        // A base beyond the envelope's own seq is not one a ring produces.
        let told = base.min(seq);
        if told > self.base {
            let passed = usize::try_from(told - self.base).unwrap_or(usize::MAX);
            self.seen.drain(..passed.min(self.seen.len()));
            self.base = told;
        }
        let Some(ahead) = seq.checked_sub(self.base) else {
            return Receipt::Duplicate(Answer::Ack);
        };
        if ahead >= WINDOW_LIMIT {
            return Receipt::Dropped;
        }
        let ahead = ahead as usize;
        if ahead >= self.seen.len() {
            self.seen.resize(ahead + 1, None);
        }
        match self.seen[ahead] {
            Some(before) => Receipt::Duplicate(before),
            None => {
                self.seen[ahead] = Some(Answer::Ack);
                Receipt::First
            }
        }
    }

    /// Records that `seq`, just received, was answered with its credit.
    fn credited(&mut self, seq: u64) {
        let ahead = seq.checked_sub(self.base).and_then(|ahead| usize::try_from(ahead).ok());
        if let Some(slot) = ahead.and_then(|ahead| self.seen.get_mut(ahead)) {
            *slot = Some(Answer::Credit);
        }
    }
}

/// Everything the layer knows about the conversation with one peer.
#[derive(Debug, Default)]
struct Link {
    /// Toward the peer: the messages it has not answered.
    out: SeqRing,
    /// The peer is behind the rejoin barrier: retransmission toward it
    /// exhausted `max_attempts` on a message that must not be abandoned
    /// ([`Body::parks_behind_barrier`]), so the peer is presumed crashed
    /// and every such message parks until the peer is heard from again
    /// ([`Reliable::release_peer`]). Later sends toward a barred peer go
    /// out normally — they double as liveness probes (a silently healed
    /// partition never announces itself with a handshake) — and join the
    /// parked queue only if they exhaust their own budget.
    barred: bool,
    /// From the peer: how its sequenced messages were answered.
    window: Window,
    /// Engagement credits the peer holds: per update, DS messages of ours
    /// it answered with a plain ack, less the sequenced `DsAck`s it has
    /// sent since. Under loss the two can arrive in either order, so the
    /// balance is signed; a settled entry (zero) is removed, and the
    /// vector keeps its capacity from one update to the next.
    engaged: Vec<(UpdateId, i64)>,
}

impl Link {
    /// Moves the balance of engagement credits the peer holds for `update`.
    fn engagement(&mut self, update: UpdateId, change: i64) {
        match self.engaged.iter().position(|(u, _)| *u == update) {
            Some(i) => {
                self.engaged[i].1 += change;
                if self.engaged[i].1 == 0 {
                    self.engaged.swap_remove(i);
                }
            }
            None => self.engaged.push((update, change)),
        }
    }

    /// Writes off every engagement credit the peer holds: it can return
    /// none of them any more. One entry per credit.
    fn write_off_engaged(&mut self) -> Vec<UpdateId> {
        let engaged = self.engaged.drain(..).filter(|(_, held)| *held > 0);
        engaged.flat_map(|(u, held)| (0..held).map(move |_| u)).collect()
    }
}

/// An ack this node owes: to whom, and for what.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Owed {
    /// The sender of the sequenced envelope.
    pub to: NodeId,
    /// Its seq and the epoch it was stamped with.
    pub ack: CarriedAck,
}

/// Per-node reliable-delivery state.
#[derive(Debug)]
pub struct Reliable {
    /// This node's incarnation, stamped on every sequenced envelope. Set
    /// once at (re)start — bumping it mid-life would strand in-flight
    /// retransmissions as stale.
    epoch: u64,
    links: BTreeMap<NodeId, Link>,
    /// The ack owed for the sequenced envelope being handled, until an
    /// envelope toward its sender takes it along.
    owed: Option<Owed>,
    /// Give up on a message after this many retransmissions (the peer or
    /// pipe is presumed gone — a crashed JXTA peer). With loss `p` the
    /// residual failure probability is `p^max_attempts`.
    pub max_attempts: u32,
}

impl Reliable {
    /// Creates the layer of an incarnation that has sent nothing yet.
    pub(crate) fn new() -> Self {
        Reliable { epoch: 0, links: BTreeMap::new(), owed: None, max_attempts: 25 }
    }

    /// Sets this node's incarnation (call before any message is sent —
    /// i.e. right after recovering from a store).
    pub fn set_epoch(&mut self, epoch: u64) {
        debug_assert!(!self.has_outstanding(), "epoch change with messages in flight");
        self.epoch = epoch;
    }

    /// This node's incarnation, as stamped on its sequenced envelopes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Wraps `body` for `to`: assigns the link's next seq, registers the
    /// message for retransmission until answered, and takes along the ack
    /// owed to `to`, if one is.
    pub fn wrap(&mut self, to: NodeId, body: Body) -> Envelope {
        let ack = self.owed.take_if(|owed| owed.to == to).map(|owed| owed.ack);
        let out = &mut self.links.entry(to).or_default().out;
        let seq = out.push(Outstanding { body: body.clone(), attempts: 0, parked: false });
        Envelope { seq: Some(seq), epoch: self.epoch, base: out.base, ack, body }
    }

    /// Handles an ack from `from`, bare or carried; returns the message it
    /// retired. `ack` is whatever the wire carried: one echoing another
    /// incarnation's epoch (sequence numbers restart at recovery, so it
    /// names a dead incarnation's message), a duplicate, one for a seq
    /// never issued and one far out of range all return `None`.
    pub fn on_ack(&mut self, from: NodeId, ack: CarriedAck) -> Option<Body> {
        if ack.epoch != self.epoch {
            return None;
        }
        Some(self.links.get_mut(&from)?.out.remove(ack.seq)?.body)
    }

    /// Receiver-side dedup of a sequenced envelope from `from`, stamped
    /// `epoch` and `seq` and telling the sender's `base` toward this node.
    /// Unless the envelope is dropped, its ack is owed from here on: to
    /// the next [`Reliable::wrap`] toward `from`, to
    /// [`Reliable::credit_reply`], or to whoever [`Reliable::take_owed`]s
    /// it.
    pub fn receive(&mut self, from: NodeId, epoch: u64, seq: u64, base: u64) -> Receipt {
        let receipt = self.links.entry(from).or_default().window.receive(epoch, seq, base);
        if receipt != Receipt::Dropped {
            self.owed = Some(Owed { to: from, ack: CarriedAck { seq, epoch } });
        }
        receipt
    }

    /// Takes the owed ack out of the reach of [`Reliable::wrap`]: to
    /// reserve it for the reply, or to send it alone.
    pub fn take_owed(&mut self) -> Option<Owed> {
        self.owed.take()
    }

    /// The reply that returns a DS credit: `body` unsequenced, carrying the
    /// `owed` ack of the message it answers — whose seq is recorded as
    /// answered with its credit, so that a duplicate draws this reply
    /// again. (`owed` is `None` for a message that came unsequenced, from a
    /// harness: its reply is as unreliable as it was.)
    pub fn credit_reply(&mut self, owed: Option<Owed>, body: Body) -> Envelope {
        if let Some(owed) = owed {
            if let Some(link) = self.links.get_mut(&owed.to) {
                link.window.credited(owed.ack.seq);
            }
        }
        Envelope { epoch: self.epoch, ack: owed.map(|owed| owed.ack), ..Envelope::control(body) }
    }

    /// The bare ack that carries `owed` alone, stamped with this
    /// incarnation.
    pub fn bare_ack(&self, owed: Owed) -> Envelope {
        Envelope { epoch: self.epoch, ack: Some(owed.ack), ..Envelope::control(Body::Ack) }
    }

    /// `peer` answered a DS message of `update` with a plain ack: the
    /// message engaged it, and it holds the credit until it disengages.
    pub fn peer_engaged(&mut self, peer: NodeId, update: UpdateId) {
        if let Some(link) = self.links.get_mut(&peer) {
            link.engagement(update, 1);
        }
    }

    /// `peer` returned an engagement credit of `update` (its sequenced
    /// `DsAck`).
    pub fn peer_disengaged(&mut self, peer: NodeId, update: UpdateId) {
        if let Some(link) = self.links.get_mut(&peer) {
            link.engagement(update, -1);
        }
    }

    /// One retransmission round: bumps attempt counters and decides, per
    /// message that exhausted [`Reliable::max_attempts`], between the two
    /// give-up semantics. Ordinary traffic is abandoned (returned so the
    /// caller can surrender DS credits). Traffic that must survive a
    /// crashed peer's handshake ([`Body::parks_behind_barrier`]) instead
    /// *bars* the peer: it and every other barrier-eligible message toward
    /// that peer park until [`Reliable::release_peer`]. Parked messages
    /// are skipped entirely — no attempts, no resend. Peers are visited in
    /// id order, each peer's messages in seq order.
    pub fn retransmission_round(&mut self) -> RetransmissionRound {
        let mut round = RetransmissionRound::default();
        let (epoch, max) = (self.epoch, self.max_attempts);
        for (&peer, link) in &mut self.links {
            let mut bar = false;
            link.out.retain(|o| {
                if o.parked {
                    return true;
                }
                o.attempts += 1;
                if o.attempts <= max {
                    return true;
                }
                if o.body.parks_behind_barrier() {
                    bar = true; // parked below, once the peer is barred
                    true
                } else {
                    round.abandoned.push((peer, o.body.clone()));
                    false
                }
            });
            if bar {
                link.barred = true;
                let mut parked = 0u64;
                for (_, o) in link.out.iter_mut() {
                    if !o.parked && o.body.parks_behind_barrier() {
                        o.parked = true;
                        parked += 1;
                    }
                }
                round.barred.push((peer, parked));
            }
            let unparked = link.out.iter().filter(|(_, o)| !o.parked);
            round
                .resend
                .extend(unparked.map(|(seq, o)| (peer, resent(epoch, link.out.base, seq, o))));
        }
        round
    }

    /// True iff `peer` is behind the rejoin barrier.
    pub fn is_barred(&self, peer: NodeId) -> bool {
        self.links.get(&peer).is_some_and(|link| link.barred)
    }

    /// Messages currently parked toward `peer`.
    pub fn parked_toward(&self, peer: NodeId) -> usize {
        self.links.get(&peer).map_or(0, |link| link.out.iter().filter(|(_, o)| o.parked).count())
    }

    /// Lifts the barrier toward `peer` (it has been heard from again):
    /// returns every parked message, in seq order under the original seqs,
    /// with attempt counters reset so delivery gets a full retransmission
    /// budget. Returns an empty vec when the peer was not barred.
    pub fn release_peer(&mut self, peer: NodeId) -> Vec<(NodeId, Envelope)> {
        let epoch = self.epoch;
        let Some(link) = self.links.get_mut(&peer).filter(|link| link.barred) else {
            return Vec::new();
        };
        link.barred = false;
        let base = link.out.base;
        let parked = link.out.iter_mut().filter(|(_, o)| o.parked);
        let released = parked.map(|(seq, o)| {
            o.parked = false;
            o.attempts = 0;
            (peer, resent(epoch, base, seq, o))
        });
        released.collect()
    }

    /// The updates of the Dijkstra–Scholten messages toward `to` that it
    /// has not acknowledged, each once, in order.
    pub(crate) fn unanswered_updates(&self, to: NodeId) -> Vec<UpdateId> {
        let out = self.links.get(&to).into_iter().flat_map(|link| link.out.iter());
        let ds = out.filter(|(_, o)| o.body.is_ds_counted());
        let mut updates: Vec<UpdateId> = ds.filter_map(|(_, o)| o.body.update_id()).collect();
        updates.sort_unstable();
        updates.dedup();
        updates
    }

    /// All messages currently awaiting acknowledgement, re-wrapped under
    /// their original seqs (inspection; does not bump attempts).
    pub fn pending(&self) -> Vec<(NodeId, Envelope)> {
        let pending = self.links.iter().flat_map(|(&peer, link)| {
            link.out.iter().map(move |(seq, o)| (peer, resent(self.epoch, link.out.base, seq, o)))
        });
        pending.collect()
    }

    /// True iff any message awaits acknowledgement (parked or not).
    pub fn has_outstanding(&self) -> bool {
        self.links.values().any(|link| link.out.live > 0)
    }

    /// True iff any *unparked* message awaits acknowledgement — the
    /// retransmit timer's arming condition. Parked messages must not keep
    /// the timer alive: they wait for the peer's next incarnation, not for
    /// the clock, and an idle network with only parked traffic must be
    /// able to quiesce.
    pub fn has_retransmittable(&self) -> bool {
        self.links.values().any(|link| link.out.iter().any(|(_, o)| !o.parked))
    }

    /// The seq the next message toward `peer` will carry: how many this
    /// incarnation has sent it so far.
    #[cfg(test)]
    pub(crate) fn next_seq(&self, peer: NodeId) -> u64 {
        self.links.get(&peer).map_or(0, |link| link.out.base + link.out.slots.len() as u64)
    }

    /// How many seqs of `peer` the receive window holds a state for.
    #[cfg(test)]
    pub(crate) fn window_len(&self, peer: NodeId) -> usize {
        self.links.get(&peer).map_or(0, |link| link.window.seen.len())
    }

    /// Lets go of the conversation toward `node` (it left the network
    /// permanently — reconfiguration, not a crash): drops the outstanding
    /// messages addressed to it, writes off the engagement credits it
    /// holds, lifts any barrier toward it, and returns what went. The seqs
    /// already used toward it stay used and what it sent stays seen: if a
    /// later configuration brings the peer back, neither end mistakes new
    /// traffic for old.
    pub fn forget_peer(&mut self, node: NodeId) -> Forgotten {
        let Some(link) = self.links.get_mut(&node) else {
            return Forgotten::default();
        };
        link.barred = false;
        Forgotten { engaged: link.write_off_engaged(), dropped: link.out.drain() }
    }

    /// Notes the incarnation `from` stamped on an envelope: the one place
    /// a peer's restart is detected. A grown epoch means the peer restarted
    /// from its store and its previous incarnation is dead: the window
    /// starts over, and `Some` returns the engagement credits the dead
    /// incarnation held, which nothing can return now — one entry per
    /// credit, as [`Reliable::forget_peer`] returns them. (A peer first
    /// heard at an epoch above 0 has restarted since this layer began;
    /// epoch 0, every peer's first incarnation and the harness's, never
    /// grew.) Every envelope calls this before its ack can record an
    /// engagement of the new incarnation, so none of those is written off.
    pub fn heard(&mut self, from: NodeId, epoch: u64) -> Option<Vec<UpdateId>> {
        if epoch == 0 {
            return None;
        }
        let link = self.links.entry(from).or_default();
        link.window.hear(epoch).then(|| link.write_off_engaged())
    }
}

/// The envelope `o` goes out in again: its original seq, its ring's `base`
/// as it stands now, no carried ack (an ack rides once; lost, its message
/// comes again and is answered again).
fn resent(epoch: u64, base: u64, seq: u64, o: &Outstanding) -> Envelope {
    Envelope { seq: Some(seq), epoch, base, ack: None, body: o.body.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn body() -> Body {
        Body::StatsRequest
    }

    /// A message that parks behind the barrier, beside the `Rejoin`.
    fn repair() -> Body {
        Body::RejoinRepair { rule: "r".into(), firings: vec![], hops: 1, mark: None }
    }

    fn layer() -> Reliable {
        Reliable::new()
    }

    /// The ack of `env`, as its receiver would echo it.
    fn ack_of(env: &Envelope) -> CarriedAck {
        CarriedAck { seq: env.seq.unwrap(), epoch: env.epoch }
    }

    #[test]
    fn wrap_assigns_increasing_seqs() {
        let mut r = layer();
        let a = r.wrap(NodeId(1), body());
        let b = r.wrap(NodeId(2), body());
        let c = r.wrap(NodeId(1), body());
        assert_eq!((a.seq, b.seq, c.seq), (Some(0), Some(0), Some(1)));
        assert!(r.has_outstanding());
    }

    #[test]
    fn ack_retires_exactly_once() {
        let mut r = layer();
        let e = r.wrap(NodeId(1), body());
        assert!(r.on_ack(NodeId(2), ack_of(&e)).is_none(), "another link's seq 0");
        assert!(r.on_ack(NodeId(1), ack_of(&e)).is_some());
        assert!(r.on_ack(NodeId(1), ack_of(&e)).is_none());
        assert!(!r.has_outstanding());
    }

    #[test]
    fn dedup_is_per_sender() {
        let mut r = layer();
        assert_eq!(r.receive(NodeId(1), 0, 5, 0), Receipt::First);
        assert_eq!(r.receive(NodeId(1), 0, 5, 0), Receipt::Duplicate(Answer::Ack));
        assert_eq!(r.receive(NodeId(2), 0, 5, 0), Receipt::First);
    }

    #[test]
    fn grown_epoch_resets_dedup_and_stale_epochs_drop() {
        let mut r = layer();
        // First incarnation of node 1 sends seqs 0 and 1.
        assert_eq!(r.receive(NodeId(1), 0, 0, 0), Receipt::First);
        assert_eq!(r.receive(NodeId(1), 0, 1, 0), Receipt::First);
        // The node restarts from its store (epoch 1): its restarted seq 0
        // is a fresh message, not a duplicate.
        assert_eq!(r.receive(NodeId(1), 1, 0, 0), Receipt::First);
        assert_eq!(r.receive(NodeId(1), 1, 0, 0), Receipt::Duplicate(Answer::Ack));
        // A straggler from the dead incarnation is stale, not replayed —
        // and not answered: whoever would read the ack is gone.
        r.take_owed();
        assert_eq!(r.receive(NodeId(1), 0, 1, 0), Receipt::Dropped);
        assert_eq!(r.take_owed(), None);
    }

    #[test]
    fn stale_epoch_ack_must_not_retire_new_incarnation_seq() {
        // A restarted node (epoch 1) re-uses seq 0; an ack echoing epoch 0
        // refers to the dead incarnation's seq 0.
        let mut r = layer();
        r.set_epoch(1);
        let e = r.wrap(NodeId(2), body());
        assert_eq!((e.seq, e.epoch), (Some(0), 1));
        assert!(r.on_ack(NodeId(2), CarriedAck { seq: 0, epoch: 0 }).is_none());
        assert!(r.has_outstanding(), "seq 0 still awaiting a same-epoch ack");
        assert!(r.on_ack(NodeId(2), ack_of(&e)).is_some(), "a same-epoch ack retires it");
    }

    #[test]
    fn epoch_is_stamped_on_envelopes() {
        let mut r = layer();
        r.set_epoch(7);
        let e = r.wrap(NodeId(1), body());
        assert_eq!(e.epoch, 7);
        let round = r.retransmission_round();
        assert_eq!(round.resend[0].1.epoch, 7);
    }

    #[test]
    fn pending_resends_same_seq() {
        let mut r = layer();
        let e = r.wrap(NodeId(1), body());
        let p = r.pending();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].0, NodeId(1));
        assert_eq!(p[0].1.seq, e.seq);
        r.on_ack(NodeId(1), ack_of(&e));
        assert!(r.pending().is_empty());
    }

    #[test]
    fn an_envelope_tells_the_lowest_seq_still_outstanding() {
        let mut r = layer();
        let first = r.wrap(NodeId(1), body());
        let second = r.wrap(NodeId(1), body());
        assert_eq!((first.base, second.base), (0, 0));
        // The second answered, the first not: the front is pinned.
        r.on_ack(NodeId(1), ack_of(&second));
        assert_eq!(r.wrap(NodeId(1), body()).base, 0);
        assert_eq!(r.retransmission_round().resend[0].1.base, 0);
        // The first answered: everything below seq 2 is done with.
        r.on_ack(NodeId(1), ack_of(&first));
        let resent: Vec<_> = r.pending().iter().map(|(_, e)| (e.seq, e.base)).collect();
        assert_eq!(resent, [(Some(2), 2)]);
        assert_eq!(r.wrap(NodeId(1), body()).base, 2);
    }

    #[test]
    fn an_owed_ack_rides_the_first_envelope_to_its_sender_only() {
        let mut r = layer();
        assert_eq!(r.receive(NodeId(1), 4, 9, 0), Receipt::First);
        let owed = CarriedAck { seq: 9, epoch: 4 };
        assert_eq!(r.wrap(NodeId(2), body()).ack, None, "not its sender");
        assert_eq!(r.wrap(NodeId(1), body()).ack, Some(owed));
        assert_eq!(r.wrap(NodeId(1), body()).ack, None, "it rides once");
        assert_eq!(r.take_owed(), None);
        // Nothing left for the sender: the ack is still owed at the end.
        assert_eq!(r.receive(NodeId(1), 4, 10, 0), Receipt::First);
        r.wrap(NodeId(2), body());
        let alone = CarriedAck { seq: 10, epoch: 4 };
        assert_eq!(r.take_owed(), Some(Owed { to: NodeId(1), ack: alone }));
        // A retransmission carries none: the ack it once carried is spent.
        assert!(r.retransmission_round().resend.iter().all(|(_, e)| e.ack.is_none()));
    }

    #[test]
    fn a_duplicate_is_answered_as_its_first_delivery_was() {
        let mut r = layer();
        let update = UpdateId { origin: NodeId(1), epoch: 0, seq: 0 };
        let credit = || Body::DsAck { update, credits: 1 };
        // Seq 0 engaged the node (plain ack); seq 1 was credited back.
        assert_eq!(r.receive(NodeId(1), 0, 0, 0), Receipt::First);
        r.take_owed();
        assert_eq!(r.receive(NodeId(1), 0, 1, 0), Receipt::First);
        let owed = r.take_owed();
        let reply = r.credit_reply(owed, credit());
        assert_eq!((reply.seq, reply.ack), (None, Some(CarriedAck { seq: 1, epoch: 0 })));
        assert_eq!(r.receive(NodeId(1), 0, 0, 0), Receipt::Duplicate(Answer::Ack));
        assert_eq!(r.receive(NodeId(1), 0, 1, 0), Receipt::Duplicate(Answer::Credit));
        assert_eq!(r.receive(NodeId(1), 0, 1, 0), Receipt::Duplicate(Answer::Credit));
        // A message that came unsequenced has no ack to carry.
        assert_eq!(r.credit_reply(None, credit()).ack, None);
    }

    #[test]
    fn the_window_forgets_below_the_base_it_is_told() {
        let mut r = layer();
        for seq in 0..10 {
            assert_eq!(r.receive(NodeId(1), 0, seq, 0), Receipt::First);
        }
        assert_eq!(r.window_len(NodeId(1)), 10);
        // Seq 10 says everything below 8 was answered.
        assert_eq!(r.receive(NodeId(1), 0, 10, 8), Receipt::First);
        assert_eq!(r.window_len(NodeId(1)), 3);
        // A stray copy from below is a duplicate, whatever base it tells.
        assert_eq!(r.receive(NodeId(1), 0, 3, 0), Receipt::Duplicate(Answer::Ack));
        assert_eq!(r.receive(NodeId(1), 0, 9, 0), Receipt::Duplicate(Answer::Ack));
        // A base beyond the envelope's own seq is cut to it; a seq out of
        // all proportion is dropped, and asks for no memory.
        assert_eq!(r.receive(NodeId(1), 0, 12, u64::MAX), Receipt::First);
        assert_eq!(r.window_len(NodeId(1)), 1);
        assert_eq!(r.receive(NodeId(1), 0, u64::MAX, 0), Receipt::Dropped);
        assert_eq!(r.receive(NodeId(1), 0, 12 + WINDOW_LIMIT, 0), Receipt::Dropped);
        assert_eq!(r.window_len(NodeId(1)), 1);
        assert_eq!(r.receive(NodeId(1), 0, 11 + WINDOW_LIMIT, 0), Receipt::First);
    }

    #[test]
    fn forget_peer_drops_its_messages() {
        let mut r = layer();
        r.wrap(NodeId(1), body());
        r.wrap(NodeId(2), body());
        r.wrap(NodeId(1), body());
        assert_eq!(r.forget_peer(NodeId(1)).dropped.len(), 2);
        assert_eq!(r.pending().len(), 1);
        assert_eq!(r.forget_peer(NodeId(3)).dropped.len(), 0, "never spoken to");
        // Should the peer return, its window has seen seqs 0 and 1.
        let next = r.wrap(NodeId(1), body());
        assert_eq!((next.seq, next.base), (Some(2), 2));
    }

    #[test]
    fn forget_peer_writes_off_the_engagement_credits_the_peer_holds() {
        let mut r = layer();
        let update = |seq| UpdateId { origin: NodeId(0), epoch: 0, seq };
        r.wrap(NodeId(1), body());
        // Update 0: engaged and disengaged, in either order of arrival.
        r.peer_engaged(NodeId(1), update(0));
        r.peer_disengaged(NodeId(1), update(0));
        r.peer_disengaged(NodeId(1), update(1));
        r.peer_engaged(NodeId(1), update(1));
        // Update 2: engaged still. Update 3: only the return seen so far.
        r.peer_engaged(NodeId(1), update(2));
        r.peer_disengaged(NodeId(1), update(3));
        assert_eq!(r.forget_peer(NodeId(1)).engaged, [update(2)]);
        assert!(r.forget_peer(NodeId(1)).engaged.is_empty());
    }

    #[test]
    fn a_new_incarnation_writes_off_what_the_dead_one_held() {
        let mut r = layer();
        let update = |seq| UpdateId { origin: NodeId(0), epoch: 0, seq };
        r.wrap(NodeId(1), body());
        r.peer_engaged(NodeId(1), update(0));
        r.peer_engaged(NodeId(1), update(0));
        r.peer_engaged(NodeId(1), update(1));
        r.peer_disengaged(NodeId(1), update(1));
        assert_eq!(r.receive(NodeId(1), 0, 0, 0), Receipt::First);
        assert_eq!(r.heard(NodeId(1), 0), None, "the same incarnation");
        assert_eq!(r.heard(NodeId(2), 0), None, "never restarted");
        assert_eq!(r.heard(NodeId(3), 1), Some(vec![]), "restarted before it was first heard");
        // Restarted: its window starts over, and the two credits it held
        // in update 0 will never come back.
        assert_eq!(r.heard(NodeId(1), 1), Some(vec![update(0), update(0)]));
        assert_eq!(r.window_len(NodeId(1)), 0);
        // What the new incarnation engages in is its own.
        r.peer_engaged(NodeId(1), update(2));
        assert_eq!(r.heard(NodeId(1), 1), None, "heard already");
        assert_eq!(r.heard(NodeId(1), 0), None, "a straggler of the dead one");
        assert_eq!(r.forget_peer(NodeId(1)).engaged, [update(2)]);
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
        let mut r = layer();
        let e = r.wrap(NodeId(1), Body::Rejoin { marks: vec![] });
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
        assert!(r.on_ack(NodeId(1), ack_of(&e)).is_some());
    }

    #[test]
    fn exhausted_ordinary_traffic_still_abandons() {
        let mut r = layer();
        r.wrap(NodeId(1), Body::StatsRequest);
        let round = exhaust(&mut r);
        assert_eq!(round.abandoned.len(), 1);
        assert!(round.barred.is_empty());
        assert!(!r.is_barred(NodeId(1)));
        assert!(!r.has_outstanding());
    }

    #[test]
    fn barring_parks_all_eligible_toward_that_peer_only() {
        let mut r = layer();
        let a = r.wrap(NodeId(1), Body::Rejoin { marks: vec![] });
        r.wrap(NodeId(1), Body::StatsRequest); // ordinary: still abandons
        let b = r.wrap(NodeId(1), repair());
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
        let mut r = layer();
        let first = r.wrap(NodeId(1), Body::Rejoin { marks: vec![] });
        exhaust(&mut r);
        assert!(r.is_barred(NodeId(1)));
        // New traffic toward the barred peer is still sent — it doubles as
        // a liveness probe (a healed partition never sends a handshake, so
        // holding everything would deadlock) — and gets a full
        // retransmission budget of its own.
        let late = r.wrap(NodeId(1), repair());
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
        let mut r = layer();
        r.wrap(NodeId(1), body());
        assert!(r.release_peer(NodeId(1)).is_empty());
        assert!(r.has_retransmittable(), "unparked traffic untouched");
    }

    #[test]
    fn forget_peer_lifts_the_barrier() {
        let mut r = layer();
        r.wrap(NodeId(1), Body::Rejoin { marks: vec![] });
        exhaust(&mut r);
        assert!(r.is_barred(NodeId(1)));
        assert_eq!(r.forget_peer(NodeId(1)).dropped.len(), 1);
        assert!(!r.is_barred(NodeId(1)));
    }

    /// The send side as it was before the ring, per destination: the
    /// outstanding messages in an ordered map by `(peer, seq)`. Kept as
    /// the model the rings are diffed against.
    struct MapModel {
        next_seq: BTreeMap<NodeId, u64>,
        max_attempts: u32,
        outstanding: BTreeMap<(NodeId, u64), Outstanding>,
        barred: BTreeSet<NodeId>,
    }

    /// What an operation answered, reduced to what can be compared:
    /// `(destination, seq)` lists and counts.
    #[derive(Debug, PartialEq, Eq)]
    struct Outcome {
        flag: bool,
        sent: Vec<(NodeId, u64)>,
        abandoned: Vec<NodeId>,
        barred: Vec<(NodeId, u64)>,
    }

    fn outcome(flag: bool, sent: Vec<(NodeId, u64)>) -> Outcome {
        Outcome { flag, sent, abandoned: Vec::new(), barred: Vec::new() }
    }

    fn seqs(envelopes: &[(NodeId, Envelope)]) -> Vec<(NodeId, u64)> {
        envelopes.iter().map(|(to, e)| (*to, e.seq.unwrap())).collect()
    }

    impl MapModel {
        fn wrap(&mut self, to: NodeId, body: Body) -> u64 {
            let next = self.next_seq.entry(to).or_default();
            let seq = *next;
            *next += 1;
            self.outstanding.insert((to, seq), Outstanding { body, attempts: 0, parked: false });
            seq
        }

        fn next(&self, to: NodeId) -> u64 {
            self.next_seq.get(&to).copied().unwrap_or(0)
        }

        /// The lowest seq still outstanding toward `to`, or the next one.
        fn base(&self, to: NodeId) -> u64 {
            let first = self.outstanding.range((to, 0)..=(to, u64::MAX)).next();
            first.map_or(self.next(to), |((_, seq), _)| *seq)
        }

        fn unparked(&self) -> Vec<(NodeId, u64)> {
            self.outstanding.iter().filter(|(_, o)| !o.parked).map(|(k, _)| *k).collect()
        }

        fn retransmission_round(&mut self) -> Outcome {
            let (mut abandoned, mut newly) = (Vec::new(), BTreeSet::new());
            let max = self.max_attempts;
            self.outstanding.retain(|(to, _), o| {
                if o.parked {
                    return true;
                }
                o.attempts += 1;
                if o.attempts <= max {
                    return true;
                }
                if o.body.parks_behind_barrier() {
                    newly.insert(*to);
                    true
                } else {
                    abandoned.push(*to);
                    false
                }
            });
            let mut barred = Vec::new();
            for peer in newly {
                self.barred.insert(peer);
                let mut parked = 0;
                for ((to, _), o) in self.outstanding.iter_mut() {
                    if *to == peer && !o.parked && o.body.parks_behind_barrier() {
                        o.parked = true;
                        parked += 1;
                    }
                }
                barred.push((peer, parked));
            }
            Outcome { flag: false, sent: self.unparked(), abandoned, barred }
        }

        fn release_peer(&mut self, peer: NodeId) -> Vec<(NodeId, u64)> {
            if !self.barred.remove(&peer) {
                return Vec::new();
            }
            let mut released = Vec::new();
            let parked = self.outstanding.iter_mut().filter(|((to, _), o)| o.parked && *to == peer);
            for (key, o) in parked {
                o.parked = false;
                o.attempts = 0;
                released.push(*key);
            }
            released
        }

        fn forget_peer(&mut self, node: NodeId) -> usize {
            let before = self.outstanding.len();
            self.outstanding.retain(|(to, _), _| *to != node);
            self.barred.remove(&node);
            before - self.outstanding.len()
        }
    }

    /// The rings against the map under random traffic: every operation
    /// answers the same, and what is pending, parked and retransmittable
    /// agrees after each. Acks come as the wire may bring them — in order,
    /// out of order, twice, for seqs never issued, for `u64::MAX`, echoing
    /// another epoch.
    #[test]
    fn the_seq_ring_answers_as_the_ordered_map_did() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5E0_0126);
        for round in 0..60 {
            let mut ring = layer();
            ring.max_attempts = rng.gen_range(1..4);
            let mut map = MapModel {
                next_seq: BTreeMap::new(),
                max_attempts: ring.max_attempts,
                outstanding: BTreeMap::new(),
                barred: BTreeSet::new(),
            };
            for step in 0..300 {
                let at = format!("round {round}, step {step}");
                let peer = NodeId(rng.gen_range(0..3));
                let (got, want) = match rng.gen_range(0..100) {
                    0..=44 => {
                        let body = if rng.gen_bool(0.4) {
                            Body::Rejoin { marks: vec![] }
                        } else {
                            Body::StatsRequest
                        };
                        let env = ring.wrap(peer, body.clone());
                        let seq = map.wrap(peer, body);
                        assert_eq!(env.base, map.base(peer), "{at}");
                        (
                            outcome(true, vec![(peer, env.seq.unwrap())]),
                            outcome(true, vec![(peer, seq)]),
                        )
                    }
                    45..=79 => {
                        let next = map.next(peer);
                        let live: Vec<u64> =
                            map.outstanding.keys().filter(|k| k.0 == peer).map(|k| k.1).collect();
                        let seq = match rng.gen_range(0..10) {
                            0 => u64::MAX,
                            1 => next + rng.gen_range(0..5),
                            2 => rng.gen_range(0..next + 1),
                            // Mostly a live one: the oldest, or any.
                            3..=6 => live.first().copied().unwrap_or(0),
                            _ if live.is_empty() => 7,
                            _ => live[rng.gen_range(0..live.len())],
                        };
                        let stale = rng.gen_range(0..10) == 0;
                        let ack = CarriedAck { seq, epoch: u64::from(stale) };
                        let retired = !stale && map.outstanding.remove(&(peer, seq)).is_some();
                        (
                            outcome(ring.on_ack(peer, ack).is_some(), vec![]),
                            outcome(retired, vec![]),
                        )
                    }
                    80..=89 => {
                        let r = ring.retransmission_round();
                        let want = map.retransmission_round();
                        for (to, env) in &r.resend {
                            assert_eq!(env.base, map.base(*to), "{at}");
                        }
                        let got = Outcome {
                            flag: false,
                            sent: seqs(&r.resend),
                            abandoned: r.abandoned.iter().map(|(to, _)| *to).collect(),
                            barred: r.barred,
                        };
                        (got, want)
                    }
                    90..=95 => (
                        outcome(false, seqs(&ring.release_peer(peer))),
                        outcome(false, map.release_peer(peer)),
                    ),
                    _ => {
                        let (a, b) = (ring.forget_peer(peer).dropped.len(), map.forget_peer(peer));
                        (
                            outcome(false, vec![(peer, a as u64)]),
                            outcome(false, vec![(peer, b as u64)]),
                        )
                    }
                };
                assert_eq!(got, want, "{at}");
                let all: Vec<_> = map.outstanding.keys().copied().collect();
                assert_eq!(seqs(&ring.pending()), all, "{at}");
                assert_eq!(ring.has_outstanding(), !all.is_empty());
                assert_eq!(ring.has_retransmittable(), !map.unparked().is_empty());
                for p in (0..3).map(NodeId) {
                    assert_eq!(ring.is_barred(p), map.barred.contains(&p));
                    let toward = map.outstanding.iter().filter(|((to, _), _)| *to == p);
                    assert_eq!(ring.parked_toward(p), toward.filter(|(_, o)| o.parked).count());
                    // The window never outgrows what is live plus the gaps
                    // between, and closes when nothing is.
                    let slots = ring.links.get(&p).map_or(0, |link| link.out.slots.len());
                    assert_eq!(slots as u64, map.next(p) - map.base(p));
                }
            }
        }
    }

    /// The receive side as it was before the window: per epoch, every seq
    /// ever processed — here with how it was answered. Kept as the model
    /// the window is diffed against.
    #[derive(Default)]
    struct SeenModel {
        epoch: u64,
        seen: BTreeMap<u64, Answer>,
        /// The highest base told (cut to the seq that told it).
        base: u64,
    }

    impl SeenModel {
        fn receive(&mut self, epoch: u64, seq: u64, base: u64) -> Receipt {
            if epoch > self.epoch {
                *self = SeenModel { epoch, ..SeenModel::default() };
            }
            if epoch < self.epoch {
                return Receipt::Dropped;
            }
            self.base = self.base.max(base.min(seq));
            if seq < self.base {
                // Retired at the sender: it was answered, whatever with.
                return Receipt::Duplicate(Answer::Ack);
            }
            if seq - self.base >= WINDOW_LIMIT {
                return Receipt::Dropped;
            }
            match self.seen.get(&seq) {
                Some(before) => Receipt::Duplicate(*before),
                None => {
                    self.seen.insert(seq, Answer::Ack);
                    Receipt::First
                }
            }
        }
    }

    /// The window against the set under what a link can deliver: a sender
    /// whose own ring decides the base it tells (so a message that stays
    /// unanswered — a parked head — pins it), copies of envelopes arriving
    /// late, twice and out of order with the base they were sent with,
    /// restarts of the sender, stragglers of its dead incarnations, and
    /// seqs and bases no sender issued. Every receipt agrees, a duplicate
    /// is answered as its first delivery was, and the window holds nothing
    /// below the base and nothing the set does not.
    #[test]
    fn the_receive_window_answers_as_the_seen_set_did() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5E0_0221);
        let (me, peer) = (NodeId(0), NodeId(1));
        for round in 0..60 {
            let mut receiver = layer();
            let mut model = SeenModel::default();
            let mut sender = layer();
            // Every envelope the sender ever put on the wire: any of them
            // may arrive again at any time.
            let mut wire: Vec<Envelope> = Vec::new();
            let (mut told, mut peak) = (0u64, 0usize);
            for step in 0..400 {
                let at = format!("round {round}, step {step}");
                let env = match rng.gen_range(0..100) {
                    // A new message.
                    0..=39 => sender.wrap(me, body()),
                    // A retransmission round: same seqs, the base of now.
                    40..=49 => match sender.retransmission_round().resend.pop() {
                        Some((_, env)) => env,
                        None => continue,
                    },
                    // An old copy, with the base it was sent with.
                    50..=69 if !wire.is_empty() => wire[rng.gen_range(0..wire.len())].clone(),
                    // The sender restarts: a new epoch, seqs from 0.
                    70..=72 => {
                        let epoch = sender.epoch() + 1;
                        sender = layer();
                        sender.set_epoch(epoch);
                        continue;
                    }
                    // Not from any ring (every other round: one such
                    // envelope may stretch the window as far as it goes).
                    73 if round % 2 == 0 => {
                        let near = rng.gen_range(0..told.saturating_add(50));
                        let seq = [u64::MAX, told.saturating_add(WINDOW_LIMIT), near];
                        let base = [u64::MAX, 0, rng.gen_range(0..told.saturating_add(50))];
                        Envelope {
                            seq: Some(seq[rng.gen_range(0..3)]),
                            base: base[rng.gen_range(0..3)],
                            epoch: sender.epoch(),
                            ..Envelope::control(body())
                        }
                    }
                    // The sender is answered: some message of its ring —
                    // mostly the oldest, unless the head is being pinned.
                    _ => {
                        let pending = sender.pending();
                        let pinned = round % 3 == 0 && pending.len() < 40;
                        let pick = match pending.len() {
                            0 => continue,
                            1 if pinned => continue,
                            n if pinned => rng.gen_range(1..n),
                            _ if rng.gen_bool(0.7) => 0,
                            n => rng.gen_range(0..n),
                        };
                        sender.on_ack(me, ack_of(&pending[pick].1));
                        continue;
                    }
                };
                wire.push(env.clone());
                let (seq, epoch) = (env.seq.unwrap(), env.epoch);
                let got = receiver.receive(peer, epoch, seq, env.base);
                assert_eq!(got, model.receive(epoch, seq, env.base), "{at}: {env:?}");
                match got {
                    Receipt::Dropped => assert_eq!(receiver.take_owed(), None, "{at}"),
                    _ => {
                        let owed = receiver.take_owed();
                        assert_eq!(owed, Some(Owed { to: peer, ack: CarriedAck { seq, epoch } }));
                        // Some first deliveries are answered with a credit.
                        if got == Receipt::First && rng.gen_bool(0.5) {
                            receiver.credit_reply(owed, body());
                            model.seen.insert(seq, Answer::Credit);
                        }
                    }
                }
                // The window is the set, cut at the base.
                let window = &receiver.links[&peer].window;
                assert_eq!((window.epoch, window.base), (model.epoch, model.base), "{at}");
                let held = window.seen.iter().enumerate();
                let held: Vec<(u64, Answer)> = held
                    .filter_map(|(i, a)| Some((window.base.saturating_add(i as u64), (*a)?)))
                    .collect();
                let kept: Vec<(u64, Answer)> =
                    model.seen.range(model.base..).map(|(s, a)| (*s, *a)).collect();
                assert_eq!(held, kept, "{at}");
                assert!(window.seen.back().is_none_or(Option::is_some), "{at}: a trailing gap");
                told = model.base;
                peak = peak.max(model.seen.len());
            }
            // The set only grew; fed by rings alone, the window followed
            // the sender's.
            let window = receiver.window_len(peer);
            assert!(round % 2 == 0 || window <= peak, "round {round}: {window} > {peak}");
        }
    }
}
