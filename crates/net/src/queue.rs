//! Time-bucketed event queues for the simulator hot path.
//!
//! A discrete-event network simulation at 10k peers schedules millions
//! of events, almost all of them a few microseconds-to-milliseconds
//! ahead of the clock. A single global `BinaryHeap` pays `O(log n)` per
//! operation on the *total* number of pending events; a calendar queue
//! pays `O(log b)` on the handful of events sharing one small time
//! bucket, with an `O(1)` bucket lookup in front. [`CalendarQueue`] is
//! that structure: a fixed ring of fine-grained buckets covering a
//! sliding window from `now`, with a heap fallback for far-future
//! events (long timers) beyond the window.
//!
//! Ordering contract (shared with the old heap, pinned by the golden
//! trace test and the differential test below): events pop in ascending
//! `(at, seq)` order, where `seq` is the caller-supplied global
//! insertion sequence that breaks same-instant ties deterministically.
//! [`HeapQueue`] keeps the original `BinaryHeap` semantics: it is the
//! reference implementation the calendar queue is tested against, and
//! the worker pool's per-shard timer queue (a shard holds at most one
//! armed timer per node, so a plain heap is the right size).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Bucket width as a power of two: `2^18` ns ≈ 262 µs, comfortably
/// finer than typical pipe latencies (1 ms LAN, 40 ms WAN).
const BUCKET_SHIFT: u32 = 18;
/// Ring size: 512 buckets × 262 µs ≈ a 134 ms sliding window. Anything
/// scheduled beyond it (e.g. multi-second retry timers) overflows to
/// the fallback heap.
const NUM_BUCKETS: usize = 512;

/// A pending event: scheduled instant, insertion sequence, payload.
#[derive(Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

// Reversed ordering so `BinaryHeap` (a max-heap) pops the earliest
// `(at, seq)` first — same trick as the original event heap.
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

/// A plain binary heap ordered by `(at, seq)`: the executable
/// specification the calendar queue is diffed against, and the shard
/// workers' timer queue.
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

/// Calendar queue: a 512-bucket ring over a ~134 ms sliding window with
/// a heap fallback for far-future events.
///
/// Each bucket is a tiny `(at, seq)`-ordered heap of the events landing
/// in one 262 µs slice of simulated time. `pop` walks the ring forward
/// from the current window position — buckets between the last popped
/// event and the next are empty and each costs one counter check — and
/// when the in-window population drains it jumps the window straight to
/// the earliest overflow event, migrating the overflow prefix that now
/// fits into buckets.
///
/// Invariant: callers only push events at or after the most recently
/// popped time (the simulator never schedules into the past), so the
/// window start never needs to move backwards.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Ring of buckets; bucket `i` covers absolute bucket index
    /// `window_bucket + k` where `(window_bucket + k) % NUM_BUCKETS == i`.
    buckets: Vec<BinaryHeap<Entry<T>>>,
    /// Absolute index (`at >> BUCKET_SHIFT`) of the bucket the window
    /// cursor currently points at.
    window_bucket: u64,
    /// Events currently stored in the ring.
    in_buckets: usize,
    /// Far-future events beyond the ring's window.
    overflow: BinaryHeap<Entry<T>>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue with its window starting at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..NUM_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            window_bucket: 0,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_buckets + self.overflow.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn bucket_of(at: SimTime) -> u64 {
        at.as_nanos() >> BUCKET_SHIFT
    }

    /// Schedules `item` at `(at, seq)`.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        // Defensive clamp: a push nominally before the window (can't
        // happen — the simulator never schedules into the past) still
        // keeps correct order by landing in the cursor bucket.
        let bucket = Self::bucket_of(at).max(self.window_bucket);
        if bucket >= self.window_bucket + NUM_BUCKETS as u64 {
            self.overflow.push(Entry { at, seq, item });
        } else {
            self.buckets[(bucket % NUM_BUCKETS as u64) as usize].push(Entry { at, seq, item });
            self.in_buckets += 1;
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.in_buckets == 0 {
            // Window drained: jump straight to the earliest far-future
            // event and pull in everything that now fits the window.
            self.advance_to_overflow();
        }
        if self.in_buckets == 0 {
            return None;
        }
        // Walk the ring forward to the first non-empty bucket. Bounded
        // by NUM_BUCKETS because in_buckets > 0 guarantees a hit.
        loop {
            let slot = (self.window_bucket % NUM_BUCKETS as u64) as usize;
            if let Some(e) = self.buckets[slot].pop() {
                self.in_buckets -= 1;
                return Some((e.at, e.seq, e.item));
            }
            self.window_bucket += 1;
            // The slot vacated at the window's tail may now admit
            // overflow events that previously missed the window.
            self.refill_slot_from_overflow();
        }
    }

    /// Removes the earliest event only if it is scheduled at or before
    /// `deadline`; leaves the queue untouched otherwise. This is the
    /// `run_until` primitive — it avoids a separate peek walk.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64, T)> {
        match self.pop() {
            Some((at, seq, item)) if at <= deadline => Some((at, seq, item)),
            Some((at, seq, item)) => {
                self.push(at, seq, item);
                None
            }
            None => None,
        }
    }

    /// Jumps the window to the earliest overflow event and migrates the
    /// overflow prefix that fits into the new window. Only called when
    /// the ring is empty, so the jump skips nothing.
    fn advance_to_overflow(&mut self) {
        let Some(min) = self.overflow.peek() else { return };
        self.window_bucket = Self::bucket_of(min.at);
        let window_end = self.window_bucket + NUM_BUCKETS as u64;
        while let Some(e) = self.overflow.peek() {
            if Self::bucket_of(e.at) >= window_end {
                break;
            }
            let e = self.overflow.pop().unwrap();
            let slot = (Self::bucket_of(e.at) % NUM_BUCKETS as u64) as usize;
            self.buckets[slot].push(e);
            self.in_buckets += 1;
        }
    }

    /// After the cursor steps past a bucket, one more absolute bucket
    /// index enters the window at the tail; migrate any overflow events
    /// that land exactly there.
    fn refill_slot_from_overflow(&mut self) {
        let tail = self.window_bucket + NUM_BUCKETS as u64 - 1;
        while let Some(e) = self.overflow.peek() {
            if Self::bucket_of(e.at) > tail {
                break;
            }
            let e = self.overflow.pop().unwrap();
            let slot = (Self::bucket_of(e.at) % NUM_BUCKETS as u64) as usize;
            self.buckets[slot].push(e);
            self.in_buckets += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
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
    fn pop_before_respects_deadline() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_millis(5), 0, ());
        assert_eq!(q.pop_before(SimTime::from_millis(4)), None);
        assert_eq!(q.len(), 1, "event must be retained after a refused pop");
        assert_eq!(q.pop_before(SimTime::from_millis(5)), Some((SimTime::from_millis(5), 0, ())));
        assert_eq!(q.pop_before(SimTime::from_secs(1)), None);
    }

    #[test]
    fn interleaved_push_pop_across_window_jumps() {
        let mut q = CalendarQueue::new();
        // Far-future timer first, then near events pushed after pops —
        // exercises advance_to_overflow and tail refill together.
        q.push(SimTime::from_secs(2), 0, 0u64);
        q.push(SimTime(100), 1, 1);
        let (at, _, v) = q.pop().unwrap();
        assert_eq!((at, v), (SimTime(100), 1));
        // Push something between now and the far timer.
        q.push(SimTime::from_millis(200), 2, 2);
        assert_eq!(q.pop().unwrap().2, 2);
        assert_eq!(q.pop().unwrap().2, 0);
        assert!(q.pop().is_none());
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

    /// The executable spec: random schedules through both queues must
    /// produce identical pop sequences, including far-future overflow
    /// and pops interleaved with pushes (time never regressing).
    #[test]
    fn differential_against_heap_reference() {
        let mut rng = SmallRng::seed_from_u64(0xD1FF);
        for round in 0..50u64 {
            let mut cal = CalendarQueue::new();
            let mut heap = HeapQueue::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for _ in 0..400 {
                if rng.gen_bool(0.6) || cal.is_empty() {
                    // Mostly near-future, occasionally far beyond the
                    // 134 ms window.
                    let horizon = if rng.gen_bool(0.05) { 10_000_000_000 } else { 50_000_000 };
                    let at = SimTime(now + rng.gen_range(0..horizon));
                    cal.push(at, seq, seq);
                    heap.push(at, seq, seq);
                    seq += 1;
                } else {
                    let a = cal.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "divergence in round {round}");
                    now = a.unwrap().0.as_nanos();
                }
            }
            loop {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "drain divergence in round {round}");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
