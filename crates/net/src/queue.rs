//! The event queue both runtimes order their events in.
//!
//! [`HeapQueue`] is a binary heap on `(at, seq)`: events pop in ascending
//! time, and `seq` — the caller-supplied insertion sequence — breaks
//! same-instant ties deterministically. [`crate::sim::SimNet`] keeps every
//! pending event in one (the golden traces pin the order), and each shard
//! of the worker pool keeps its nodes' timers in another.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event: scheduled instant, insertion sequence, payload.
#[derive(Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

// Reversed ordering so `BinaryHeap` (a max-heap) pops the earliest
// `(at, seq)` first.
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

/// A binary heap ordered by `(at, seq)`: the simulator's event queue and
/// the shard workers' timer queue.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapQueue { heap: BinaryHeap::new() }
    }

    /// Schedules `item` at `(at, seq)`.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.heap.push(Entry { at, seq, item });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|e| (e.at, e.seq, e.item))
    }

    /// The instant of the earliest event, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Keeps only the events whose payload satisfies `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.heap.retain(|e| keep(&e.item));
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = HeapQueue::new();
        q.push(SimTime(500), 2, "b");
        q.push(SimTime(500), 1, "a");
        q.push(SimTime(10), 3, "first");
        q.push(SimTime::from_secs(30), 0, "far");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((SimTime(10), 3, "first")));
        assert_eq!(q.pop(), Some((SimTime(500), 1, "a")));
        assert_eq!(q.pop(), Some((SimTime(500), 2, "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(30), 0, "far")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn heap_peek_time_and_retain() {
        let mut q = HeapQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(30), 0, "c");
        q.push(SimTime(10), 1, "a");
        q.push(SimTime(20), 2, "b");
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(q.len(), 3, "peek removes nothing");
        q.retain(|item| *item != "a");
        assert_eq!(q.peek_time(), Some(SimTime(20)));
        assert_eq!(q.pop(), Some((SimTime(20), 2, "b")));
        assert_eq!(q.pop(), Some((SimTime(30), 0, "c")));
        assert_eq!(q.pop(), None);
    }
}
