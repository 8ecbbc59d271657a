//! `TimedPeer`: a `Peer` wrapper that records one span per callback.
//!
//! The wrapper sits on the boundary between a runtime (`codb-net`'s
//! simulator or worker pool) and a node (`codb-core`), so the time inside a
//! span is `core` and everything below it; the time between spans is the
//! runtime's own. Spans stay in the peer — no lock, no allocation beyond the
//! vector — and are collected when the run hands the peers back.

use codb_net::{Context, Payload, Peer, PeerId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which callback a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Callback {
    /// `Peer::on_start`.
    Start,
    /// `Peer::on_message`.
    Message,
    /// `Peer::on_timer`.
    Timer,
}

impl Callback {
    /// The span's name in the dump.
    pub fn name(self) -> &'static str {
        match self {
            Callback::Start => "core.on_start",
            Callback::Message => "core.on_message",
            Callback::Timer => "core.on_timer",
        }
    }
}

/// One callback of one peer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The callback.
    pub callback: Callback,
    /// The peer that ran it.
    pub peer: u64,
    /// The harness operation that caused it (0 = network construction).
    pub op: u64,
    /// Start, in nanoseconds since the clock's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the clock's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Time inside the callback.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The clock and current-operation id every wrapped peer of a run shares.
#[derive(Debug)]
pub struct SpanClock {
    epoch: Instant,
    op: AtomicU64,
}

impl SpanClock {
    /// A clock starting now, at operation 0.
    pub fn new() -> Arc<Self> {
        Arc::new(SpanClock { epoch: Instant::now(), op: AtomicU64::new(0) })
    }

    /// Nanoseconds since the clock was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next harness operation and returns its id. The harness is
    /// a closed loop: the previous operation is quiescent, so every later
    /// callback belongs to the new one. `Relaxed` suffices — the id is a
    /// label, it publishes no other data.
    pub fn next_op(&self) -> u64 {
        self.op.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn current_op(&self) -> u64 {
        self.op.load(Ordering::Relaxed)
    }
}

/// A peer plus its span log.
pub struct TimedPeer<P> {
    inner: P,
    id: u64,
    clock: Arc<SpanClock>,
    spans: Vec<Span>,
}

impl<P> TimedPeer<P> {
    /// Wraps `inner`, which runs as peer `id`.
    pub fn new(id: PeerId, inner: P, clock: Arc<SpanClock>) -> Self {
        TimedPeer { inner, id: id.0, clock, spans: Vec::new() }
    }

    /// The wrapped peer.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped peer, mutably (to attach a tracer as the product does).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Takes the spans recorded so far.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    /// Unwraps, returning the peer and its remaining spans.
    pub fn into_parts(self) -> (P, Vec<Span>) {
        (self.inner, self.spans)
    }

    fn timed<T>(&mut self, callback: Callback, f: impl FnOnce(&mut P) -> T) -> T {
        let start_ns = self.clock.now_ns();
        let out = f(&mut self.inner);
        let end_ns = self.clock.now_ns();
        self.spans.push(Span {
            callback,
            peer: self.id,
            op: self.clock.current_op(),
            start_ns,
            end_ns,
        });
        out
    }
}

impl<M: Payload, P: Peer<M>> Peer<M> for TimedPeer<P> {
    fn on_start(&mut self, ctx: &mut Context<M>) {
        self.timed(Callback::Start, |p| p.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<M>, from: PeerId, msg: M) {
        self.timed(Callback::Message, |p| p.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<M>, timer: u64) {
        self.timed(Callback::Timer, |p| p.on_timer(ctx, timer));
    }
}
