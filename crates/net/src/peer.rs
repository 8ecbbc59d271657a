//! The peer abstraction: event-driven state machines plugged into a runtime.
//!
//! A [`Peer`] reacts to activation, incoming messages and timers by emitting
//! *commands* through a [`Context`]. The same peer implementation runs
//! unchanged under the deterministic discrete-event simulator
//! ([`crate::sim::SimNet`]) and the threaded runtime
//! ([`crate::parallel::ParallelNet`]) — mirroring how coDB nodes are
//! independent of the JXTA transport beneath them.

use crate::discovery::Advertisement;
use crate::pipe::PipeConfig;
use crate::time::SimTime;
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt;

/// Network-wide peer identifier (JXTA gives peers IP-independent IDs; we
/// use dense integers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct PeerId(pub u64);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

/// Payloads must report an approximate wire size so the simulator can model
/// bandwidth and the statistics module can report data volumes.
pub trait Payload: Clone + Send + fmt::Debug + 'static {
    /// Approximate serialized size in bytes.
    fn size_bytes(&self) -> usize;
}

/// A peer state machine.
pub trait Peer<M: Payload>: Send {
    /// Called once when the peer joins the network.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut Context<M>, from: PeerId, msg: M);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<M>, _timer: u64) {}
}

/// Commands a peer may emit during a callback; the runtime applies them
/// after the callback returns.
#[derive(Debug)]
pub enum Command<M> {
    /// Send `msg` to `to` over an existing pipe.
    Send {
        /// Destination peer.
        to: PeerId,
        /// Payload.
        msg: M,
    },
    /// Request a timer callback after `delay`.
    SetTimer {
        /// Delay from now.
        delay: SimTime,
        /// Caller-chosen id passed back to [`Peer::on_timer`].
        timer: u64,
    },
    /// Open (or reconfigure) a pipe between this peer and `with`.
    OpenPipe {
        /// The other endpoint.
        with: PeerId,
        /// Pipe parameters.
        config: PipeConfig,
    },
    /// Close the pipe with `with`, if any.
    ClosePipe {
        /// The other endpoint.
        with: PeerId,
    },
    /// Publish an advertisement on the discovery board.
    Advertise(Advertisement),
}

/// Callback context: read-only view of the runtime plus the runtime's
/// command queue. Both are lent for the duration of one callback, so
/// creating a context neither copies the board nor allocates.
pub struct Context<'a, M: Payload> {
    self_id: PeerId,
    now: SimTime,
    /// Peers currently advertised on the discovery board (JXTA's local
    /// discovery cache).
    discovered: &'a [Advertisement],
    commands: &'a mut VecDeque<Command<M>>,
}

impl<'a, M: Payload> Context<'a, M> {
    /// Creates a context (runtimes only). The callback's commands are
    /// appended to `commands`, behind whatever the runtime still has
    /// queued there.
    pub fn new(
        self_id: PeerId,
        now: SimTime,
        discovered: &'a [Advertisement],
        commands: &'a mut VecDeque<Command<M>>,
    ) -> Self {
        Context { self_id, now, discovered, commands }
    }

    /// This peer's id.
    pub fn self_id(&self) -> PeerId {
        self.self_id
    }

    /// Current (simulated) time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends a message. Delivery requires a pipe to `to`; messages without
    /// a pipe are counted as undeliverable by the runtime.
    pub fn send(&mut self, to: PeerId, msg: M) {
        self.commands.push_back(Command::Send { to, msg });
    }

    /// Schedules [`Peer::on_timer`] after `delay` with the given id.
    pub fn set_timer(&mut self, delay: SimTime, timer: u64) {
        self.commands.push_back(Command::SetTimer { delay, timer });
    }

    /// Opens (or reconfigures) a pipe to `with`.
    pub fn open_pipe(&mut self, with: PeerId, config: PipeConfig) {
        self.commands.push_back(Command::OpenPipe { with, config });
    }

    /// Closes the pipe to `with`.
    pub fn close_pipe(&mut self, with: PeerId) {
        self.commands.push_back(Command::ClosePipe { with });
    }

    /// Publishes an advertisement.
    pub fn advertise(&mut self, ad: Advertisement) {
        self.commands.push_back(Command::Advertise(ad));
    }

    /// Snapshot of the discovery board (instantaneous, like JXTA's local
    /// advertisement cache).
    pub fn discover(&self) -> &[Advertisement] {
        self.discovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Payload for String {
        fn size_bytes(&self) -> usize {
            self.len()
        }
    }

    #[test]
    fn context_buffers_commands() {
        let mut cmds = VecDeque::new();
        let mut ctx: Context<'_, String> =
            Context::new(PeerId(1), SimTime::from_millis(5), &[], &mut cmds);
        assert_eq!(ctx.self_id(), PeerId(1));
        assert_eq!(ctx.now(), SimTime::from_millis(5));
        ctx.send(PeerId(2), "hi".into());
        ctx.set_timer(SimTime::from_millis(1), 7);
        ctx.close_pipe(PeerId(2));
        assert_eq!(cmds.len(), 3);
        assert!(matches!(cmds[0], Command::Send { to: PeerId(2), .. }));
        assert!(matches!(cmds[1], Command::SetTimer { timer: 7, .. }));
        assert!(matches!(cmds[2], Command::ClosePipe { with: PeerId(2) }));
    }
}
