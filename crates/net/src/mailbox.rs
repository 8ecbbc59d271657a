//! Bounded per-node mailboxes with backpressure.
//!
//! Each node owned by the sharded runtime ([`crate::parallel::ParallelNet`])
//! receives its mail through one [`Mailbox`]: a capacity-bounded FIFO that
//! never drops and never grows past its configured depth. A full mailbox
//! pushes back on the producer instead:
//!
//! * Harness threads ([`Mailbox::push_blocking`]) block on a condvar until a
//!   slot frees up or the mailbox closes.
//! * Worker threads never block. [`Mailbox::try_push`] either enqueues, or
//!   registers the sending *node* as a waiter and reports `Full` so the
//!   worker can stall that node (park its unapplied commands) and move on to
//!   other runnable nodes. When a slot frees, the waiters are returned to
//!   the popping worker, which reschedules them on their shards.
//!
//! The mailbox also tracks a depth high-water mark so tests and experiments
//! can assert the bound actually held.

use crate::peer::PeerId;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A node waiting for mailbox space: `(shard index, node id)`. Stored here
/// so the worker that frees a slot knows whom to reschedule.
pub(crate) type Waiter = (usize, PeerId);

/// Outcome of a non-blocking push from a worker thread.
pub(crate) enum TryPush<M> {
    /// Enqueued.
    Ok,
    /// Mailbox at capacity; the waiter was registered and the message is
    /// handed back so the sender can stall on it.
    Full(M),
    /// Mailbox closed (its shard stopped); the message is handed back so
    /// the sender can count it undeliverable.
    Closed(M),
}

struct State<M> {
    queue: VecDeque<(PeerId, M)>,
    /// Nodes stalled on this mailbox being full, to wake on pop.
    waiters: Vec<Waiter>,
    closed: bool,
    /// Harness threads blocked in [`Mailbox::push_blocking`]: a pop wakes
    /// producers only while one is.
    blocked: usize,
    /// Depth high-water mark.
    peak: usize,
}

/// A bounded, closeable FIFO of `(from, msg)` pairs.
pub(crate) struct Mailbox<M> {
    state: Mutex<State<M>>,
    not_full: Condvar,
    capacity: usize,
}

impl<M> Mailbox<M> {
    pub(crate) fn new(capacity: usize) -> Self {
        Mailbox {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                waiters: Vec::new(),
                closed: false,
                blocked: 0,
                peak: 0,
            }),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<M>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn enqueue(state: &mut State<M>, from: PeerId, msg: M) {
        state.queue.push_back((from, msg));
        state.peak = state.peak.max(state.queue.len());
    }

    /// Blocking push for harness threads (`inject`). Returns the message if
    /// the mailbox closed before a slot freed up.
    pub(crate) fn push_blocking(&self, from: PeerId, msg: M) -> Result<(), M> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(msg);
            }
            if state.queue.len() < self.capacity {
                Self::enqueue(&mut state, from, msg);
                return Ok(());
            }
            state.blocked += 1;
            state = self.not_full.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.blocked -= 1;
        }
    }

    /// Non-blocking push for worker threads. `allow_overflow` bypasses the
    /// capacity check — used only for self-sends, where stalling the sender
    /// would deadlock it against its own mailbox.
    pub(crate) fn try_push(
        &self,
        from: PeerId,
        msg: M,
        waiter: Waiter,
        allow_overflow: bool,
    ) -> TryPush<M> {
        let mut state = self.lock();
        if state.closed {
            return TryPush::Closed(msg);
        }
        if state.queue.len() < self.capacity || allow_overflow {
            Self::enqueue(&mut state, from, msg);
            return TryPush::Ok;
        }
        if !state.waiters.contains(&waiter) {
            state.waiters.push(waiter);
        }
        TryPush::Full(msg)
    }

    /// Pops the oldest message. Also returns the nodes to reschedule now
    /// that a slot is free (empty for most pops), and wakes the blocked
    /// producers if there are any — most pops find none, and make no
    /// syscall.
    pub(crate) fn pop(&self) -> (Option<(PeerId, M)>, Vec<Waiter>) {
        let mut state = self.lock();
        let item = state.queue.pop_front();
        let mut waiters = Vec::new();
        if item.is_some() && state.queue.len() < self.capacity {
            if !state.waiters.is_empty() {
                waiters = std::mem::take(&mut state.waiters);
            }
            if state.blocked > 0 {
                self.not_full.notify_all();
            }
        }
        (item, waiters)
    }

    /// Closes the mailbox: wakes blocked producers, drains undelivered mail
    /// and pending waiters for the caller to account for.
    pub(crate) fn close(&self) -> (Vec<(PeerId, M)>, Vec<Waiter>) {
        let mut state = self.lock();
        state.closed = true;
        let drained = std::mem::take(&mut state.queue).into_iter().collect();
        let waiters = std::mem::take(&mut state.waiters);
        self.not_full.notify_all();
        (drained, waiters)
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Depth high-water mark since creation.
    pub(crate) fn peak(&self) -> usize {
        self.lock().peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn bounded_and_fifo() {
        let mb: Mailbox<u32> = Mailbox::new(2);
        assert!(matches!(mb.try_push(PeerId(9), 1, (0, PeerId(1)), false), TryPush::Ok));
        assert!(matches!(mb.try_push(PeerId(9), 2, (0, PeerId(1)), false), TryPush::Ok));
        // Full: message handed back, waiter registered.
        assert!(matches!(mb.try_push(PeerId(9), 3, (0, PeerId(1)), false), TryPush::Full(3)));
        assert_eq!(mb.peak(), 2);
        let (item, waiters) = mb.pop();
        assert_eq!(item, Some((PeerId(9), 1)));
        assert_eq!(waiters, vec![(0, PeerId(1))]);
        let (item, waiters) = mb.pop();
        assert_eq!(item, Some((PeerId(9), 2)));
        assert!(waiters.is_empty());
        assert_eq!(mb.len(), 0);
    }

    #[test]
    fn overflow_bypasses_capacity_for_self_sends() {
        let mb: Mailbox<u32> = Mailbox::new(1);
        assert!(matches!(mb.try_push(PeerId(1), 1, (0, PeerId(1)), false), TryPush::Ok));
        assert!(matches!(mb.try_push(PeerId(1), 2, (0, PeerId(1)), true), TryPush::Ok));
        assert_eq!(mb.len(), 2);
        assert_eq!(mb.peak(), 2);
    }

    #[test]
    fn close_drains_and_rejects() {
        let mb: Mailbox<u32> = Mailbox::new(4);
        assert!(matches!(mb.try_push(PeerId(5), 7, (0, PeerId(2)), false), TryPush::Ok));
        let (drained, _) = mb.close();
        assert_eq!(drained, vec![(PeerId(5), 7)]);
        assert!(matches!(mb.try_push(PeerId(5), 8, (0, PeerId(2)), false), TryPush::Closed(8)));
        assert!(mb.push_blocking(PeerId(5), 9).is_err());
    }

    /// A full mailbox with one producer blocked on it: returns once the
    /// producer counts as blocked.
    fn blocked_producer(mb: &Arc<Mailbox<u32>>) -> std::thread::JoinHandle<Result<(), u32>> {
        mb.push_blocking(PeerId(0), 1).unwrap();
        let mb2 = Arc::clone(mb);
        let producer = std::thread::spawn(move || mb2.push_blocking(PeerId(0), 2));
        while mb.lock().blocked == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        producer
    }

    #[test]
    fn push_blocking_waits_for_space() {
        let mb: Arc<Mailbox<u32>> = Arc::new(Mailbox::new(1));
        let producer = blocked_producer(&mb);
        assert_eq!(mb.len(), 1, "producer must be blocked while full");
        let (item, _) = mb.pop();
        assert_eq!(item, Some((PeerId(0), 1)));
        producer.join().unwrap().unwrap();
        assert_eq!(mb.lock().blocked, 0);
        assert_eq!(mb.pop().0, Some((PeerId(0), 2)));
        assert_eq!(mb.peak(), 1);
    }

    #[test]
    fn close_releases_a_blocked_producer_with_its_message() {
        let mb: Arc<Mailbox<u32>> = Arc::new(Mailbox::new(1));
        let producer = blocked_producer(&mb);
        let (drained, _) = mb.close();
        assert_eq!(drained, vec![(PeerId(0), 1)]);
        assert_eq!(producer.join().unwrap(), Err(2));
        assert_eq!(mb.lock().blocked, 0);
    }
}
