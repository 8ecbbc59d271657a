//! The deterministic discrete-event network simulator.
//!
//! [`SimNet`] owns the peers, the pipes, an advertisement board, a seeded
//! RNG (for the loss model) and a priority queue of events. Peers are
//! state machines ([`Peer`]); every callback may emit commands which the
//! simulator applies — sends become future `Deliver` events delayed by the
//! pipe's latency/bandwidth model, timers become `Timer` events.
//!
//! Determinism: identical seeds and identical call sequences produce
//! identical runs (events are ordered by `(time, sequence-number)`, and all
//! internal iteration orders are stable).
//!
//! # Hot-path layout
//!
//! A wide update is mostly event loop — on the benchmark's `update_wide`,
//! a 120-node scale-free network with two tuples a node, a cold update
//! sends ~4.6k messages — and `net.us_per_event` times that loop on every
//! workload. So an event costs a heap pop and a `Vec` index, and a send
//! one heap push and one hash probe, whatever the number of peers:
//!
//! * Events live in a [`HeapQueue`] on `(at, seq)`. A wave of LAN events
//!   shares one instant, so no time-bucketed structure beats the heap on
//!   the traffic this simulator serves (PERFORMANCE.md, PR 26).
//! * Each [`PeerId`] is interned once into a dense `u32` slot index.
//!   Events carry slot indices, so dispatch is a `Vec` index, not a map
//!   probe. `index: HashMap<PeerId, u32>` is probed once per `Send`
//!   command, to resolve the destination a peer names by id, and on the
//!   control paths (`add_peer`, `open_pipe`, `inject`).
//! * Pipes are adjacency lists: slot `i` holds a `dst`-sorted
//!   `Vec<Edge>` of its outgoing half-pipes, each embedding its
//!   [`PipeConfig`] and [`PipeState`]. A send is a binary search over the
//!   peer's own (typically tiny) neighbour list; a delivery touches no
//!   adjacency list.
//! * Traffic is counted once, network-wide, in one [`NetStats`]: no pipe
//!   carries counters, so closing a pipe or removing a peer folds nothing
//!   and [`SimNet::stats`] is a copy.
//! * A callback's [`Context`] borrows the advertisement board and the
//!   simulator's one command queue; dispatching an event copies neither
//!   and allocates nothing, whatever the number of peers or
//!   advertisements.
//! * A message in flight lies in a free-listed slot store
//!   (`InFlight`) and its `Deliver` event names the slot, so the queue
//!   sifts 32-byte entries whatever the payload's size; the payload is
//!   moved twice — into its slot at the send, out of it at the delivery.
//!
//! Peer slots are never freed: removing a peer tombstones its slot
//! (`peer: None`) and re-adding the same id revives it, which preserves
//! the original semantics that a message in flight toward a removed peer
//! is delivered to a new incarnation added before the arrival time, and
//! silently discarded otherwise.

use crate::discovery::{Advertisement, Board};
use crate::peer::{Command, Context, Payload, Peer, PeerId};
use crate::pipe::{PipeConfig, PipeState};
use crate::queue::HeapQueue;
use crate::stats::NetStats;
use crate::time::SimTime;
use codb_trace::{TraceEvent, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for the loss model RNG.
    pub seed: u64,
    /// Safety valve: abort after this many events (0 = unlimited).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 0xC0DB, max_events: 0 }
    }
}

/// Events reference peers by dense slot index, assigned at interning
/// time — no map lookups on the dispatch path — and a message by the
/// [`InFlight`] slot it waits in.
enum EventKind {
    Start(u32),
    Deliver { from: u32, to: u32, msg: u32 },
    Timer { peer: u32, timer: u64 },
}

/// The messages in flight, each in a slot its one `Deliver` event names.
/// A slot is taken when the event is scheduled and freed when the event is
/// popped — delivered or discarded — so the occupied slots are exactly the
/// queued deliveries, and the store grows to the largest wave ever in
/// flight and no further.
struct InFlight<M> {
    slots: Vec<Option<M>>,
    free: Vec<u32>,
}

impl<M> InFlight<M> {
    fn new() -> Self {
        InFlight { slots: Vec::new(), free: Vec::new() }
    }

    fn put(&mut self, msg: M) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none(), "free slot {slot} is occupied");
                self.slots[slot as usize] = Some(msg);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX in flight");
                self.slots.push(Some(msg));
                slot
            }
        }
    }

    fn take(&mut self, slot: u32) -> M {
        let msg = self.slots[slot as usize].take().expect("a Deliver event names an occupied slot");
        self.free.push(slot);
        msg
    }

    fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// An outgoing half-pipe: configuration and bandwidth state, stored
/// inline in the source slot's adjacency list.
struct Edge {
    dst: u32,
    config: PipeConfig,
    state: PipeState,
}

/// One interned peer. `peer: None` is a tombstone — the id stays bound
/// to this slot forever so in-flight events resolve identically before
/// and after churn.
struct Slot<P> {
    id: PeerId,
    peer: Option<P>,
    /// Outgoing half-pipes, sorted by `dst` for binary search.
    adj: Vec<Edge>,
}

/// The deterministic discrete-event network. Generic over the payload type
/// `M` and the (homogeneous) peer type `P`, so harnesses retain typed
/// access to peer state after a run.
pub struct SimNet<M: Payload, P: Peer<M>> {
    slots: Vec<Slot<P>>,
    index: HashMap<PeerId, u32>,
    board: Board,
    /// The queue every callback's [`Context`] appends to; drained right
    /// after the callback, so it is empty between events and its
    /// capacity is reused.
    commands: VecDeque<Command<M>>,
    queue: HeapQueue<EventKind>,
    in_flight: InFlight<M>,
    now: SimTime,
    seq: u64,
    rng: SmallRng,
    stats: NetStats,
    config: SimConfig,
    events_processed: u64,
    tracer: Tracer,
}

impl<M: Payload, P: Peer<M>> SimNet<M, P> {
    /// Creates an empty network.
    pub fn new(config: SimConfig) -> Self {
        SimNet {
            slots: Vec::new(),
            index: HashMap::new(),
            board: Board::new(),
            commands: VecDeque::new(),
            queue: HeapQueue::new(),
            in_flight: InFlight::new(),
            now: SimTime::ZERO,
            seq: 0,
            rng: SmallRng::seed_from_u64(config.seed),
            stats: NetStats::default(),
            config,
            events_processed: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a flight-recorder handle: the simulator stamps it with
    /// sim-time before dispatching each event (so nested node/store
    /// events inherit the simulated instant) and emits
    /// send/deliver/drop/timer-fire events through it.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached flight-recorder handle (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network statistics so far (the whole-network ledger).
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Messages in flight: sent (or injected), not dropped, and their
    /// delivery event not yet popped.
    pub fn in_flight(&self) -> usize {
        self.in_flight.occupied()
    }

    /// Immutable access to a peer's state machine.
    pub fn peer(&self, id: PeerId) -> Option<&P> {
        self.index.get(&id).and_then(|&i| self.slots[i as usize].peer.as_ref())
    }

    /// Mutable access to a peer's state machine (between events).
    pub fn peer_mut(&mut self, id: PeerId) -> Option<&mut P> {
        let i = *self.index.get(&id)?;
        self.slots[i as usize].peer.as_mut()
    }

    /// Iterates over `(id, peer)` pairs in id order.
    pub fn peers(&self) -> impl Iterator<Item = (PeerId, &P)> {
        let mut live: Vec<(PeerId, &P)> =
            self.slots.iter().filter_map(|s| s.peer.as_ref().map(|p| (s.id, p))).collect();
        live.sort_unstable_by_key(|&(id, _)| id);
        live.into_iter()
    }

    /// Ids of all live peers, in id order.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        let mut ids: Vec<PeerId> =
            self.slots.iter().filter(|s| s.peer.is_some()).map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Interns `id` into its permanent slot index.
    fn intern(&mut self, id: PeerId) -> u32 {
        if let Some(&i) = self.index.get(&id) {
            return i;
        }
        let i = u32::try_from(self.slots.len()).expect("more than u32::MAX peers");
        self.slots.push(Slot { id, peer: None, adj: Vec::new() });
        self.index.insert(id, i);
        i
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, kind);
    }

    /// Schedules the delivery of `msg` at `at`.
    fn push_delivery(&mut self, at: SimTime, from: u32, to: u32, msg: M) {
        let msg = self.in_flight.put(msg);
        self.push(at, EventKind::Deliver { from, to, msg });
    }

    /// Adds a peer; its [`Peer::on_start`] runs at the current time.
    pub fn add_peer(&mut self, id: PeerId, peer: P) {
        let idx = self.intern(id);
        self.slots[idx as usize].peer = Some(peer);
        self.push(self.now, EventKind::Start(idx));
    }

    /// Removes a peer: its pipes close, its advertisements are retracted,
    /// and in-flight messages to it are discarded at delivery time
    /// (unless a new incarnation is added before they arrive).
    /// Returns the peer state, if it existed.
    pub fn remove_peer(&mut self, id: PeerId) -> Option<P> {
        let idx = *self.index.get(&id)?;
        let adj = std::mem::take(&mut self.slots[idx as usize].adj);
        for e in adj {
            let neighbour = &mut self.slots[e.dst as usize].adj;
            if let Ok(pos) = neighbour.binary_search_by_key(&idx, |x| x.dst) {
                neighbour.remove(pos);
            }
        }
        self.board.retract_peer(id);
        self.slots[idx as usize].peer.take()
    }

    /// Opens (or reconfigures) one direction of a pipe. Reconfiguring
    /// resets the bandwidth state.
    fn open_directed(&mut self, from: u32, to: u32, config: PipeConfig) {
        let adj = &mut self.slots[from as usize].adj;
        match adj.binary_search_by_key(&to, |e| e.dst) {
            Ok(pos) => {
                adj[pos].config = config;
                adj[pos].state = PipeState::default();
            }
            Err(pos) => adj.insert(pos, Edge { dst: to, config, state: PipeState::default() }),
        }
    }

    /// Opens a bidirectional pipe between `a` and `b`.
    pub fn open_pipe(&mut self, a: PeerId, b: PeerId, config: PipeConfig) {
        let ai = self.intern(a);
        let bi = self.intern(b);
        self.open_directed(ai, bi, config);
        self.open_directed(bi, ai, config);
    }

    /// Closes the pipe between `a` and `b` (both directions). Messages
    /// already in flight are still delivered.
    pub fn close_pipe(&mut self, a: PeerId, b: PeerId) {
        let (Some(&ai), Some(&bi)) = (self.index.get(&a), self.index.get(&b)) else { return };
        for (src, dst) in [(ai, bi), (bi, ai)] {
            let adj = &mut self.slots[src as usize].adj;
            if let Ok(pos) = adj.binary_search_by_key(&dst, |e| e.dst) {
                adj.remove(pos);
            }
        }
    }

    /// True iff a pipe exists from `a` to `b`.
    pub fn has_pipe(&self, a: PeerId, b: PeerId) -> bool {
        let (Some(&ai), Some(&bi)) = (self.index.get(&a), self.index.get(&b)) else {
            return false;
        };
        self.slots[ai as usize].adj.binary_search_by_key(&bi, |e| e.dst).is_ok()
    }

    /// Injects a message from outside the network (e.g. a test harness
    /// acting as a user at node `to`). Delivered at the current time with
    /// `from` as the apparent sender; no pipe required. Counted as a sent
    /// message so `sent == delivered + dropped` holds network-wide.
    pub fn inject(&mut self, from: PeerId, to: PeerId, msg: M) {
        let fi = self.intern(from);
        let ti = self.intern(to);
        let bytes = msg.size_bytes();
        self.stats.sent += 1;
        self.stats.bytes_sent += bytes as u64;
        if self.tracer.is_enabled() {
            self.tracer.set_clock(self.now.as_nanos());
            self.tracer.emit(TraceEvent::NetSend { from: from.0, to: to.0, bytes: bytes as u64 });
        }
        self.push_delivery(self.now, fi, ti, msg);
    }

    /// Publishes an advertisement from the harness.
    pub fn advertise(&mut self, ad: Advertisement) {
        self.board.publish(ad);
    }

    /// The advertisement board.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// Runs one callback of peer `idx` (if it is live) and applies the
    /// commands it emitted. The board is lent as it stands: commands take
    /// effect only after the callback returns, so a peer never observes
    /// its own advertisement mid-callback.
    fn run_callback(&mut self, idx: u32, callback: impl FnOnce(&mut P, &mut Context<'_, M>)) {
        let slot = &mut self.slots[idx as usize];
        let Some(peer) = slot.peer.as_mut() else { return };
        let mut ctx = Context::new(slot.id, self.now, self.board.snapshot(), &mut self.commands);
        callback(peer, &mut ctx);
        self.apply_commands(idx);
    }

    /// Drains the command queue on behalf of peer `origin`.
    fn apply_commands(&mut self, origin: u32) {
        let origin_id = self.slots[origin as usize].id;
        while let Some(cmd) = self.commands.pop_front() {
            match cmd {
                Command::Send { to, msg } => {
                    let bytes = msg.size_bytes();
                    let target = self.index.get(&to).copied().and_then(|ti| {
                        self.slots[origin as usize]
                            .adj
                            .binary_search_by_key(&ti, |e| e.dst)
                            .ok()
                            .map(|pos| (ti, pos))
                    });
                    let Some((ti, pos)) = target else {
                        self.stats.undeliverable += 1;
                        continue;
                    };
                    self.stats.sent += 1;
                    self.stats.bytes_sent += bytes as u64;
                    let now = self.now;
                    let edge = &mut self.slots[origin as usize].adj[pos];
                    let loss = edge.config.loss;
                    let start = now.max(edge.state.busy_until);
                    let done = start + edge.config.transmission_time(bytes);
                    edge.state.busy_until = done;
                    let arrival = done + edge.config.latency;
                    if self.tracer.is_enabled() {
                        self.tracer.emit(TraceEvent::NetSend {
                            from: origin_id.0,
                            to: to.0,
                            bytes: bytes as u64,
                        });
                    }
                    if loss > 0.0 && self.rng.gen::<f64>() < loss {
                        self.stats.dropped += 1;
                        if self.tracer.is_enabled() {
                            self.tracer.emit(TraceEvent::NetDrop {
                                from: origin_id.0,
                                to: to.0,
                                bytes: bytes as u64,
                            });
                        }
                    } else {
                        self.push_delivery(arrival, origin, ti, msg);
                    }
                }
                Command::SetTimer { delay, timer } => {
                    self.push(self.now + delay, EventKind::Timer { peer: origin, timer });
                }
                Command::OpenPipe { with, config } => self.open_pipe(origin_id, with, config),
                Command::ClosePipe { with } => self.close_pipe(origin_id, with),
                Command::Advertise(ad) => self.board.publish(ad),
            }
        }
    }

    /// Processes one event; with a deadline, only an event scheduled at
    /// or before it. Returns `false` when nothing eligible remains or
    /// the event budget is exhausted.
    fn step_inner(&mut self, deadline: Option<SimTime>) -> bool {
        if self.config.max_events != 0 && self.events_processed >= self.config.max_events {
            return false;
        }
        if deadline.is_some_and(|d| self.queue.peek_time().is_some_and(|at| at > d)) {
            return false;
        }
        let Some((at, _seq, kind)) = self.queue.pop() else { return false };
        debug_assert!(at >= self.now, "time must be monotone");
        self.now = at;
        self.events_processed += 1;
        // Stamp the trace clock first: every event emitted below — by the
        // simulator itself or by node/store code inside a peer callback —
        // carries this event's sim-time.
        self.tracer.set_clock(at.as_nanos());
        match kind {
            EventKind::Start(idx) => self.run_callback(idx, |peer, ctx| peer.on_start(ctx)),
            EventKind::Deliver { from, to, msg } => {
                // Freed whether or not anyone is left to read it.
                let msg = self.in_flight.take(msg);
                if self.slots[to as usize].peer.is_some() {
                    let from_id = self.slots[from as usize].id;
                    self.stats.delivered += 1;
                    if self.tracer.is_enabled() {
                        self.tracer.emit(TraceEvent::NetDeliver {
                            from: from_id.0,
                            to: self.slots[to as usize].id.0,
                            bytes: msg.size_bytes() as u64,
                        });
                    }
                    self.run_callback(to, |peer, ctx| peer.on_message(ctx, from_id, msg));
                }
                // Peer gone: the in-flight message is silently discarded,
                // matching a crashed JXTA peer.
            }
            EventKind::Timer { peer: idx, timer } => {
                let slot = &self.slots[idx as usize];
                if slot.peer.is_some() && self.tracer.is_enabled() {
                    self.tracer.emit(TraceEvent::NetTimer { peer: slot.id.0, timer });
                }
                self.run_callback(idx, |peer, ctx| peer.on_timer(ctx, timer));
            }
        }
        true
    }

    /// Processes one event. Returns `false` when the queue is empty or the
    /// event budget is exhausted.
    pub fn step(&mut self) -> bool {
        self.step_inner(None)
    }

    /// Runs until no events remain (quiescence) or the event budget is
    /// exhausted. Returns the final simulated time.
    pub fn run_until_quiescent(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Runs every event scheduled at or before `deadline`, then advances
    /// the clock to the deadline (time never moves backwards: a deadline
    /// in the past leaves `now` unchanged). Later events stay queued.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while self.step_inner(Some(deadline)) {}
        self.now = self.now.max(deadline);
        self.now
    }

    /// True iff no events are pending.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Ping(u32, usize);

    impl Payload for Ping {
        fn size_bytes(&self) -> usize {
            self.1
        }
    }

    /// Relays every message to `next` until the hop counter reaches zero.
    struct Relay {
        next: PeerId,
        received: Vec<u32>,
        start_with: Option<u32>,
    }

    impl Peer<Ping> for Relay {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            if let Some(hops) = self.start_with {
                ctx.send(self.next, Ping(hops, 100));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<Ping>, _from: PeerId, msg: Ping) {
            self.received.push(msg.0);
            if msg.0 > 0 {
                ctx.send(self.next, Ping(msg.0 - 1, msg.1));
            }
        }
    }

    fn ring(n: u64, hops: u32) -> SimNet<Ping, Relay> {
        let mut net = crate::builder::SimBuilder::new(SimConfig::default())
            .peers((0..n).map(PeerId))
            .spawn(|id| Relay {
                next: PeerId((id.0 + 1) % n),
                received: vec![],
                start_with: (id.0 == 0).then_some(hops),
            });
        for i in 0..n {
            net.open_pipe(PeerId(i), PeerId((i + 1) % n), PipeConfig::lan());
        }
        net
    }

    /// What the slot store is for: the queue sifts `(at, seq)` plus this,
    /// 32 bytes an entry, whatever `M` is.
    #[test]
    fn an_event_is_two_words_whatever_the_payload() {
        assert_eq!(std::mem::size_of::<EventKind>(), 16);
    }

    #[test]
    fn messages_travel_the_ring() {
        let mut net = ring(4, 7);
        let end = net.run_until_quiescent();
        // 8 deliveries of 1ms latency each.
        assert_eq!(end, SimTime::from_millis(8));
        assert_eq!(net.stats().delivered, 8);
        assert_eq!(net.peer(PeerId(1)).unwrap().received, vec![7, 3]);
        assert_eq!(net.peer(PeerId(0)).unwrap().received, vec![4, 0]);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut net = ring(5, 20);
            let (tracer, recorded) = Tracer::ring(usize::MAX);
            net.attach_tracer(tracer);
            net.run_until_quiescent();
            let events = recorded.lock().unwrap().events();
            (net.now(), net.stats(), events)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn latency_accumulates() {
        let mut net: SimNet<Ping, Relay> = SimNet::new(SimConfig::default());
        net.add_peer(PeerId(0), Relay { next: PeerId(1), received: vec![], start_with: Some(0) });
        net.add_peer(PeerId(1), Relay { next: PeerId(0), received: vec![], start_with: None });
        net.open_pipe(
            PeerId(0),
            PeerId(1),
            PipeConfig::lan().with_latency(SimTime::from_millis(25)),
        );
        let end = net.run_until_quiescent();
        assert_eq!(end, SimTime::from_millis(25));
    }

    #[test]
    fn bandwidth_serializes_messages() {
        // Two 1000-byte messages over a 1000 B/s pipe: the second waits for
        // the first to finish transmitting.
        struct Burst {
            to: PeerId,
        }
        impl Peer<Ping> for Burst {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                ctx.send(self.to, Ping(0, 1000));
                ctx.send(self.to, Ping(0, 1000));
            }
            fn on_message(&mut self, _: &mut Context<Ping>, _: PeerId, _: Ping) {}
        }
        #[allow(clippy::type_complexity)]
        let mut net: SimNet<Ping, Burst> = {
            let mut n = SimNet::new(SimConfig::default());
            n.add_peer(PeerId(0), Burst { to: PeerId(1) });
            n.add_peer(PeerId(1), Burst { to: PeerId(0) });
            n.open_pipe(
                PeerId(0),
                PeerId(1),
                PipeConfig {
                    latency: SimTime::ZERO,
                    bandwidth_bytes_per_sec: Some(1000),
                    loss: 0.0,
                },
            );
            n
        };
        let (tracer, recorded) = Tracer::ring(usize::MAX);
        net.attach_tracer(tracer);
        let end = net.run_until_quiescent();
        assert_eq!(end, SimTime::from_secs(2));
        // Per direction, the second message waits for the first to finish
        // transmitting.
        let forward_nanos: Vec<u64> = recorded
            .lock()
            .unwrap()
            .events()
            .into_iter()
            .filter(|(_, ev)| matches!(ev, TraceEvent::NetDeliver { from: 0, .. }))
            .map(|(at, _)| at)
            .collect();
        let secs = |s| SimTime::from_secs(s).as_nanos();
        assert_eq!(forward_nanos, vec![secs(1), secs(2)]);
    }

    #[test]
    fn loss_drops_deterministically() {
        let run = |seed: u64| {
            let mut net: SimNet<Ping, Relay> =
                SimNet::new(SimConfig { seed, ..Default::default() });
            net.add_peer(PeerId(0), Relay { next: PeerId(1), received: vec![], start_with: None });
            net.add_peer(PeerId(1), Relay { next: PeerId(0), received: vec![], start_with: None });
            net.open_pipe(PeerId(0), PeerId(1), PipeConfig::lan().with_loss(0.5));
            let (tracer, recorded) = Tracer::ring(usize::MAX);
            net.attach_tracer(tracer);
            // Fire 100 one-hop messages from outside.
            for _ in 0..100 {
                net.inject(PeerId(1), PeerId(0), Ping(1, 10));
            }
            net.run_until_quiescent();
            let events = recorded.lock().unwrap().events();
            (net.stats(), events)
        };
        let (stats, events) = run(1);
        assert!(stats.dropped > 20 && stats.dropped < 80, "loss ~50%, got {}", stats.dropped);
        // Deliveries + drops account for every peer-sent message.
        assert_eq!(stats.sent, stats.delivered + stats.dropped);
        assert_eq!(run(1), (stats, events.clone()), "one seed, one schedule, every event");
        // Another seed draws other losses.
        assert_ne!(run(2).1, events, "the seed drives the loss draws");
    }

    #[test]
    fn send_without_pipe_is_undeliverable() {
        let mut net: SimNet<Ping, Relay> = SimNet::new(SimConfig::default());
        net.add_peer(PeerId(0), Relay { next: PeerId(9), received: vec![], start_with: Some(1) });
        net.run_until_quiescent();
        assert_eq!(net.stats().undeliverable, 1);
        assert_eq!(net.stats().sent, 0);
    }

    #[test]
    fn removed_peer_discards_in_flight() {
        let mut net = ring(3, 10);
        // Let the first hop get scheduled, then remove the receiver.
        net.step(); // start of peer 0 → send to 1 in flight
        net.remove_peer(PeerId(1));
        net.run_until_quiescent();
        assert_eq!(net.stats().delivered, 0);
        assert!(!net.has_pipe(PeerId(0), PeerId(1)));
    }

    #[test]
    fn readded_peer_receives_in_flight_messages() {
        // A message in flight toward a removed peer is delivered to a new
        // incarnation added (and re-piped) before the arrival time — the
        // slot-reuse guarantee restart_node_from_disk depends on.
        let mut net = ring(3, 10);
        net.step(); // start of peer 0 → send to 1 in flight (arrives at 1ms)
        let old = net.remove_peer(PeerId(1)).unwrap();
        assert!(old.received.is_empty());
        net.add_peer(PeerId(1), Relay { next: PeerId(2), received: vec![], start_with: None });
        net.open_pipe(PeerId(1), PeerId(2), PipeConfig::lan());
        net.run_until_quiescent();
        let revived = net.peer(PeerId(1)).unwrap();
        assert_eq!(revived.received, vec![10], "new incarnation got the in-flight message");
        // …and kept relaying: the token continued around the ring.
        assert!(net.stats().delivered > 1);
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timed {
            fired: Vec<u64>,
        }
        impl Peer<Ping> for Timed {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                ctx.set_timer(SimTime::from_millis(10), 1);
                ctx.set_timer(SimTime::from_millis(5), 2);
            }
            fn on_message(&mut self, _: &mut Context<Ping>, _: PeerId, _: Ping) {}
            fn on_timer(&mut self, _: &mut Context<Ping>, t: u64) {
                self.fired.push(t);
            }
        }
        let mut net: SimNet<Ping, Timed> = SimNet::new(SimConfig::default());
        net.add_peer(PeerId(0), Timed { fired: vec![] });
        let end = net.run_until_quiescent();
        assert_eq!(net.peer(PeerId(0)).unwrap().fired, vec![2, 1]);
        assert_eq!(end, SimTime::from_millis(10));
    }

    #[test]
    fn max_events_bounds_runaway() {
        // Peer 0 and 1 ping forever (hop count never reaches 0 because we
        // reset it).
        struct Forever {
            other: PeerId,
        }
        impl Peer<Ping> for Forever {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                ctx.send(self.other, Ping(1, 10));
            }
            fn on_message(&mut self, ctx: &mut Context<Ping>, _: PeerId, _: Ping) {
                ctx.send(self.other, Ping(1, 10));
            }
        }
        let mut net: SimNet<Ping, Forever> =
            SimNet::new(SimConfig { max_events: 50, ..Default::default() });
        net.add_peer(PeerId(0), Forever { other: PeerId(1) });
        net.add_peer(PeerId(1), Forever { other: PeerId(0) });
        net.open_pipe(PeerId(0), PeerId(1), PipeConfig::lan());
        net.run_until_quiescent();
        assert_eq!(net.events_processed(), 50);
    }

    #[test]
    fn advertisements_visible_to_peers() {
        struct Looker {
            seen: usize,
        }
        impl Peer<Ping> for Looker {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                ctx.advertise(Advertisement::peer(ctx.self_id(), "codb-node"));
                ctx.set_timer(SimTime::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut Context<Ping>, _: PeerId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut Context<Ping>, _: u64) {
                self.seen = ctx.discover().len();
            }
        }
        let mut net: SimNet<Ping, Looker> = SimNet::new(SimConfig::default());
        net.add_peer(PeerId(0), Looker { seen: 0 });
        net.add_peer(PeerId(1), Looker { seen: 0 });
        net.run_until_quiescent();
        assert_eq!(net.peer(PeerId(0)).unwrap().seen, 2);
        assert_eq!(net.board().snapshot().len(), 2);
    }

    #[test]
    fn board_is_lent_to_callbacks_not_copied() {
        use super::tests_support::{assert_board_is_lent_not_copied, BoardWatcher, Msg};
        let mut net: SimNet<Msg, BoardWatcher> = SimNet::new(SimConfig::default());
        net.add_peer(PeerId(0), BoardWatcher::default());
        for i in 0..3 {
            net.inject(PeerId(9), PeerId(0), Msg(i));
        }
        net.run_until_quiescent();
        let board_at = net.board().snapshot().as_ptr() as usize;
        assert_board_is_lent_not_copied(&net.peer(PeerId(0)).unwrap().views, board_at);
    }

    #[test]
    fn inject_reaches_peer_without_pipe() {
        let mut net = ring(2, 0);
        net.run_until_quiescent();
        net.inject(PeerId(99), PeerId(0), Ping(0, 5));
        net.run_until_quiescent();
        assert_eq!(net.peer(PeerId(0)).unwrap().received.last(), Some(&0));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut net = ring(4, 100);
        net.run_until(SimTime::from_millis(3));
        assert!(net.now() <= SimTime::from_millis(3));
        assert!(!net.is_quiescent());
    }

    #[test]
    fn run_until_deadline_semantics() {
        // Empty queue: the clock still advances to the deadline.
        let mut net = ring(2, 0);
        net.run_until_quiescent();
        let t0 = net.now();
        let end = net.run_until(t0 + SimTime::from_secs(5));
        assert_eq!(end, t0 + SimTime::from_secs(5));
        assert_eq!(net.now(), end);

        // Deadline in the past: time never moves backwards.
        assert_eq!(net.run_until(SimTime::ZERO), end);

        // Pending event beyond the deadline: clock stops exactly at the
        // deadline, the event stays queued and fires later.
        let mut net = ring(2, 3); // LAN pipes: one hop per ms
        let end = net.run_until(SimTime::from_micros(1500));
        assert_eq!(end, SimTime::from_micros(1500), "clock parks at the deadline");
        assert!(!net.is_quiescent(), "the 2ms hop must remain queued");
        let delivered_early = net.stats().delivered;
        net.run_until_quiescent();
        assert!(net.stats().delivered > delivered_early, "queued event fired afterwards");
    }

    #[test]
    fn stats_survive_close_and_removal() {
        let mut net = ring(3, 5);
        net.run_until_quiescent();
        let before = net.stats();
        assert!(before.sent > 0);
        // Closing a pipe or removing a peer forgets no traffic.
        net.close_pipe(PeerId(0), PeerId(1));
        assert_eq!(net.stats(), before);
        net.remove_peer(PeerId(1));
        assert_eq!(net.stats(), before);
    }

    #[test]
    fn a_delivery_over_a_closed_pipe_is_counted() {
        let mut net = ring(3, 0);
        net.step(); // start of peer 0 → send to 1 in flight
        net.close_pipe(PeerId(0), PeerId(1));
        net.run_until_quiescent();
        assert_eq!(net.peer(PeerId(1)).unwrap().received, vec![0]);
        let stats = net.stats();
        assert_eq!((stats.sent, stats.delivered), (1, 1));
    }
}

#[cfg(test)]
mod more_tests {
    use super::tests_support::*;
    use super::*;

    #[test]
    fn peer_joining_mid_run_participates() {
        let mut net: SimNet<Msg, Echo> = SimNet::new(SimConfig::default());
        net.add_peer(PeerId(0), Echo::default());
        net.run_until_quiescent();
        // Join later; the simulated clock keeps running monotonically.
        net.add_peer(PeerId(1), Echo::default());
        net.open_pipe(PeerId(0), PeerId(1), PipeConfig::lan());
        net.inject(PeerId(9), PeerId(1), Msg(3));
        net.run_until_quiescent();
        assert_eq!(net.peer(PeerId(1)).unwrap().got, vec![3]);
        assert_eq!(net.peer_ids(), vec![PeerId(0), PeerId(1)]);
    }

    #[test]
    fn pipe_reconfiguration_changes_latency() {
        let mut net: SimNet<Msg, Echo> = SimNet::new(SimConfig::default());
        net.add_peer(PeerId(0), Echo { forward: Some(PeerId(1)), ..Default::default() });
        net.add_peer(PeerId(1), Echo::default());
        net.open_pipe(PeerId(0), PeerId(1), PipeConfig::lan()); // 1ms
        net.inject(PeerId(9), PeerId(0), Msg(1));
        net.run_until_quiescent();
        let t1 = net.now();
        assert_eq!(t1, SimTime::from_millis(1));
        // Re-open with 10x latency: replaces the config in place.
        net.open_pipe(
            PeerId(0),
            PeerId(1),
            PipeConfig::lan().with_latency(SimTime::from_millis(10)),
        );
        net.inject(PeerId(9), PeerId(0), Msg(2));
        net.run_until_quiescent();
        assert_eq!(net.now(), t1 + SimTime::from_millis(10));
    }

    #[test]
    fn stats_bytes_match_payload_sizes() {
        let mut net: SimNet<Msg, Echo> = SimNet::new(SimConfig::default());
        net.add_peer(PeerId(0), Echo { forward: Some(PeerId(1)), ..Default::default() });
        net.add_peer(PeerId(1), Echo::default());
        net.open_pipe(PeerId(0), PeerId(1), PipeConfig::lan());
        net.inject(PeerId(9), PeerId(0), Msg(5));
        net.run_until_quiescent();
        // inject (4 bytes) + forward (4 bytes).
        assert_eq!(net.stats().bytes_sent, 8);
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    #[derive(Clone, Debug)]
    pub struct Msg(pub u32);
    impl Payload for Msg {
        fn size_bytes(&self) -> usize {
            4
        }
    }

    #[derive(Default)]
    pub struct Echo {
        pub got: Vec<u32>,
        pub forward: Option<PeerId>,
    }

    impl Peer<Msg> for Echo {
        fn on_message(&mut self, ctx: &mut Context<Msg>, _from: PeerId, msg: Msg) {
            self.got.push(msg.0);
            if let Some(to) = self.forward {
                ctx.send(to, msg);
            }
        }
    }

    /// What one callback saw of the discovery board.
    #[derive(Debug, PartialEq, Eq)]
    pub struct BoardView {
        /// Advertisements visible on entry.
        pub on_entry: usize,
        /// Advertisements visible at the end of the callback.
        pub on_exit: usize,
        /// Address of the slice `discover()` returned.
        pub at: usize,
    }

    /// Records a [`BoardView`] per message and advertises itself during
    /// the first.
    #[derive(Default)]
    pub struct BoardWatcher {
        pub views: Vec<BoardView>,
    }

    impl Peer<Msg> for BoardWatcher {
        fn on_message(&mut self, ctx: &mut Context<Msg>, _from: PeerId, _msg: Msg) {
            let on_entry = ctx.discover().len();
            if self.views.is_empty() {
                ctx.advertise(Advertisement::peer(ctx.self_id(), "watcher"));
            }
            let seen = ctx.discover();
            self.views.push(BoardView {
                on_entry,
                on_exit: seen.len(),
                at: seen.as_ptr() as usize,
            });
        }
    }

    /// The board semantics both runtimes owe a peer, given the views of a
    /// lone [`BoardWatcher`] that received three messages and the address
    /// of the board's own storage afterwards: an advertisement takes
    /// effect after the callback that made it, and a callback is lent the
    /// board's storage itself — a per-callback copy would live elsewhere.
    pub fn assert_board_is_lent_not_copied(views: &[BoardView], board_at: usize) {
        assert_eq!(views.len(), 3);
        assert_eq!(views[0], BoardView { on_entry: 0, on_exit: 0, at: views[0].at });
        for later in &views[1..] {
            assert_eq!(later, &BoardView { on_entry: 1, on_exit: 1, at: board_at });
        }
    }
}
