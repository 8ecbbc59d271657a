//! Shard workers: the execution engine behind [`crate::parallel::ParallelNet`].
//!
//! N worker threads multiplex M nodes. Each worker owns one *shard*: the
//! peer state machines handed to it when it spawns, a run queue of node ids
//! with pending work, and a timer heap for those nodes' timers. A worker
//! starts its peers one by one, serving each peer's mail right after its
//! start, then runs its loop: fire due timers, service ready nodes. No node
//! joins or leaves a running shard. Cross-shard interaction goes through
//! shared state only: the router (node id → mailbox, set once before any
//! worker spawns and read without a lock), the pipe table, the discovery
//! board and the quiescence [`Gate`].
//!
//! ## Scheduling
//!
//! A node becomes *ready* when mail is pushed into its mailbox (the pusher
//! flips the node's `scheduled` flag and enqueues it on its shard's run
//! queue) or when a mailbox it stalled on frees a slot. The worker services
//! ready nodes in FIFO order, draining at most `QUANTUM` messages per visit
//! so one busy node cannot monopolize its shard; due timers are fired
//! *between* node visits, which is the batched-drain fairness rule the
//! timer-under-load tests pin.
//!
//! ## Backpressure without blocked workers
//!
//! Workers never block on a full mailbox. When a node's `Send` hits a full
//! destination, the node *stalls*: its remaining commands stay parked in its
//! cell, it is descheduled, and it registers as a waiter on the destination
//! mailbox. A stalled node stops normal draining and defers its timers, so
//! pressure cascades to its own producers — but each scheduling visit
//! while stalled still pops exactly *one* message (its commands park
//! behind the stalled send, preserving order). That single pop is the
//! global progress guarantee: it frees a slot, wakes this node's own
//! producers, and keeps the wake chain alive, so a ring of nodes that have
//! all filled each other's mailboxes keeps moving one message per visit
//! instead of wedging. The one cycle a wake-up cannot break — a node
//! stalled on its *own* full mailbox — is avoided by letting self-sends
//! overflow the capacity bound instead of stalling.
//!
//! ## In-flight accounting
//!
//! The [`Gate`] counts every undelivered message, pending timer, parked
//! command and peer whose `on_start` has not run, exactly once. New work
//! produced by a callback is counted *before* the event that produced it
//! is decremented, so the count never dips to zero while causally-connected
//! work exists; sends that fail (closed mailbox, missing peer, no pipe)
//! decrement at the failure site and count `undeliverable` — the
//! accounting leak the thread-per-peer runtime had is structurally gone.

use crate::discovery::Board;
use crate::mailbox::{Mailbox, TryPush, Waiter};
use crate::peer::{Command, Context, Payload, Peer, PeerId};
use crate::queue::HeapQueue;
use crate::time::SimTime;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

fn relock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Quiescence gate
// ---------------------------------------------------------------------------

/// Counts in-flight work (mailbox messages + pending timers + parked
/// commands + peers not yet started) and lets harness threads wait for
/// quiescence on a condvar instead of polling.
pub(crate) struct Gate {
    count: AtomicU64,
    /// Bumped whenever the count leaves zero; lets the settle window detect
    /// a 0 → busy → 0 blip it never observed directly.
    epoch: Mutex<u64>,
    zero_or_activity: Condvar,
}

impl Gate {
    pub(crate) fn new() -> Self {
        Gate { count: AtomicU64::new(0), epoch: Mutex::new(0), zero_or_activity: Condvar::new() }
    }

    pub(crate) fn load(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    pub(crate) fn inc(&self, n: u64) {
        if n == 0 {
            return;
        }
        if self.count.fetch_add(n, Ordering::SeqCst) == 0 {
            let mut epoch = relock(&self.epoch);
            *epoch += 1;
            self.zero_or_activity.notify_all();
        }
    }

    pub(crate) fn dec(&self, n: u64) {
        if n == 0 {
            return;
        }
        let prev = self.count.fetch_sub(n, Ordering::SeqCst);
        debug_assert!(prev >= n, "in-flight underflow: {prev} - {n}");
        if prev == n {
            drop(relock(&self.epoch));
            self.zero_or_activity.notify_all();
        }
    }

    /// Waits until the count has stayed at zero for `settle`, or `deadline`
    /// expires. Condvar-driven: woken on zero-crossings in either direction.
    pub(crate) fn await_quiescence(&self, settle: Duration, deadline: Duration) -> bool {
        let start = Instant::now();
        let mut epoch = relock(&self.epoch);
        loop {
            // Phase 1: wait for the count to reach zero.
            while self.load() > 0 {
                let Some(left) = deadline.checked_sub(start.elapsed()) else {
                    return false;
                };
                // The short cap is missed-wakeup insurance, not a poll: in
                // the common case the zero-crossing notification arrives.
                let wait = left.min(Duration::from_millis(100));
                epoch =
                    self.zero_or_activity.wait_timeout(epoch, wait).map(|(g, _)| g).unwrap_or_else(
                        |e| {
                            let (g, _) = e.into_inner();
                            g
                        },
                    );
            }
            // Phase 2: hold the settle window; any activity restarts phase 1.
            let epoch0 = *epoch;
            let settled_since = Instant::now();
            loop {
                if self.load() > 0 || *epoch != epoch0 {
                    break; // activity — back to phase 1
                }
                let Some(left) = settle.checked_sub(settled_since.elapsed()) else {
                    return true;
                };
                let Some(budget) = deadline.checked_sub(start.elapsed()) else {
                    return false;
                };
                epoch = self
                    .zero_or_activity
                    .wait_timeout(epoch, left.min(budget))
                    .map(|(g, _)| g)
                    .unwrap_or_else(|e| {
                        let (g, _) = e.into_inner();
                        g
                    });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shard timers
// ---------------------------------------------------------------------------

/// One shard's pending timers: a [`HeapQueue`] keyed by `(deadline,
/// insertion count)`, so due timers fire in deadline order and
/// same-instant timers in the order they were set.
pub(crate) struct ShardTimers {
    heap: HeapQueue<(PeerId, u64)>,
    seq: u64,
}

impl ShardTimers {
    pub(crate) fn new() -> Self {
        ShardTimers { heap: HeapQueue::new(), seq: 0 }
    }

    pub(crate) fn insert(&mut self, at: SimTime, peer: PeerId, timer: u64) {
        self.seq += 1;
        self.heap.push(at, self.seq, (peer, timer));
    }

    /// Removes and returns all entries due at `now`, ordered by deadline.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Vec<(PeerId, u64)> {
        let mut due = Vec::new();
        while self.has_due(now) {
            let (_, _, entry) = self.heap.pop().expect("has_due saw an entry");
            due.push(entry);
        }
        due
    }

    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.heap.peek_time()
    }

    pub(crate) fn has_due(&self, now: SimTime) -> bool {
        self.next_deadline().is_some_and(|at| at <= now)
    }

    /// Number of pending timers.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------------
// Shard plumbing
// ---------------------------------------------------------------------------

/// Shared routing entry for one node: its mailbox, owning shard, and a
/// dedup flag so it sits in its shard's run queue at most once.
pub(crate) struct NodeMeta<M> {
    pub(crate) mailbox: Mailbox<M>,
    pub(crate) shard: usize,
    pub(crate) scheduled: AtomicBool,
}

struct ReadyState {
    queue: VecDeque<PeerId>,
    stopping: bool,
}

/// One shard's run queue + wake-up channel. Shared between the owning
/// worker and every thread that schedules nodes onto it.
pub(crate) struct ShardHandle {
    state: Mutex<ReadyState>,
    wake: Condvar,
}

impl ShardHandle {
    pub(crate) fn new() -> Self {
        ShardHandle {
            state: Mutex::new(ReadyState { queue: VecDeque::new(), stopping: false }),
            wake: Condvar::new(),
        }
    }

    pub(crate) fn enqueue(&self, id: PeerId) {
        relock(&self.state).queue.push_back(id);
        self.wake.notify_all();
    }

    pub(crate) fn stop(&self) {
        relock(&self.state).stopping = true;
        self.wake.notify_all();
    }

    fn stopping(&self) -> bool {
        relock(&self.state).stopping
    }

    fn take_ready(&self) -> Vec<PeerId> {
        relock(&self.state).queue.drain(..).collect()
    }

    fn wait(&self, timeout: Duration) {
        let state = relock(&self.state);
        if !state.queue.is_empty() || state.stopping {
            return;
        }
        drop(self.wake.wait_timeout(state, timeout).unwrap_or_else(PoisonError::into_inner));
    }
}

/// State shared by all shards and the harness handle.
pub(crate) struct Shared<M: Payload> {
    /// Set once, by `ParallelNet::add_peers`, before any worker spawns.
    pub(crate) router: OnceLock<HashMap<PeerId, NodeMeta<M>>>,
    pub(crate) pipes: RwLock<HashSet<(PeerId, PeerId)>>,
    pub(crate) board: RwLock<Board>,
    pub(crate) gate: Gate,
    pub(crate) delivered: AtomicU64,
    pub(crate) undeliverable: AtomicU64,
    pub(crate) epoch: Instant,
    pub(crate) schedulers: Vec<ShardHandle>,
}

impl<M: Payload> Shared<M> {
    pub(crate) fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_nanos() as u64)
    }

    /// The routing entry of `id`, if the pool registered it.
    pub(crate) fn meta(&self, id: PeerId) -> Option<&NodeMeta<M>> {
        self.router.get()?.get(&id)
    }

    /// Marks a node runnable and enqueues it on its shard (once).
    pub(crate) fn schedule(&self, meta: &NodeMeta<M>, id: PeerId) {
        if !meta.scheduled.swap(true, Ordering::SeqCst) {
            self.schedulers[meta.shard].enqueue(id);
        }
    }

    /// Reschedules nodes that were stalled on a mailbox that freed a slot.
    pub(crate) fn wake_waiters(&self, waiters: Vec<Waiter>) {
        for (_, id) in waiters {
            if let Some(meta) = self.meta(id) {
                self.schedule(meta, id);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The worker loop
// ---------------------------------------------------------------------------

/// A node's worker-local state: the peer machine, its routing entry, and
/// commands parked behind a stalled send.
struct Cell<'r, M: Payload, P> {
    peer: P,
    meta: &'r NodeMeta<M>,
    pending: VecDeque<Command<M>>,
    stalled: bool,
}

/// How long a stalled node's due timer is deferred before re-checking.
const STALL_DEFER: SimTime = SimTime(1_000_000); // 1 ms
/// Idle sleep cap when no timer bounds the wait.
const IDLE_WAIT: Duration = Duration::from_millis(100);

/// Body of one worker thread: starts `peers`, each followed at once by a
/// visit that serves the mail already waiting for it, then loops until
/// stopped. Returns the final states of the shard's peers.
pub(crate) fn run_worker<M: Payload, P: Peer<M>>(
    shard: usize,
    shared: Arc<Shared<M>>,
    peers: Vec<(PeerId, P)>,
) -> Vec<(PeerId, P)> {
    let shared: &Shared<M> = &shared;
    let handle = &shared.schedulers[shard];
    let router = shared.router.get().expect("the router is set before a worker spawns");
    let mut cells: HashMap<PeerId, Cell<M, P>> = HashMap::with_capacity(peers.len());
    let mut timers = ShardTimers::new();

    for (id, peer) in peers {
        let mut cell = Cell { peer, meta: &router[&id], pending: VecDeque::new(), stalled: false };
        run_callback(shared, id, &mut cell, |peer, ctx| peer.on_start(ctx));
        shared.gate.dec(1); // the start, after counting its output
        flush(shard, shared, &mut timers, id, &mut cell);
        cells.insert(id, cell);
        // Serve what the shard's earlier starts (or any peer) already sent
        // it before starting the next: mail does not pile up behind the
        // rest of the shard's starts.
        service(shard, shared, &mut cells, &mut timers, id);
    }

    while !handle.stopping() {
        fire_due_timers(shard, shared, &mut cells, &mut timers);
        let batch = handle.take_ready();
        if batch.is_empty() {
            let timeout = timers
                .next_deadline()
                .map(|at| {
                    Duration::from_nanos(at.saturating_sub(shared.now()).as_nanos())
                        .max(Duration::from_micros(100))
                })
                .unwrap_or(IDLE_WAIT);
            handle.wait(timeout.min(IDLE_WAIT));
            continue;
        }
        for id in batch {
            // Fairness rule: timers that came due never wait behind another
            // node's drain quantum.
            if timers.has_due(shared.now()) {
                fire_due_timers(shard, shared, &mut cells, &mut timers);
            }
            service(shard, shared, &mut cells, &mut timers, id);
        }
    }

    // Close mailboxes so harness threads blocked in `inject` unblock, and
    // settle the gate for any mail left undrained (abrupt shutdown).
    let mut out = Vec::with_capacity(cells.len());
    for (id, cell) in cells {
        let (drained, waiters) = cell.meta.mailbox.close();
        shared.gate.dec(drained.len() as u64);
        shared.undeliverable.fetch_add(drained.len() as u64, Ordering::SeqCst);
        shared.wake_waiters(waiters);
        for cmd in &cell.pending {
            if matches!(cmd, Command::Send { .. } | Command::SetTimer { .. }) {
                shared.gate.dec(1);
            }
        }
        out.push((id, cell.peer));
    }
    shared.gate.dec(timers.len() as u64);
    out
}

/// Runs one callback of the node in `cell`. The context borrows the
/// board's current shared snapshot (an O(1) handle, so the board lock is
/// not held while peer code runs) and appends straight to the cell's
/// parked-command queue; the sends and timers it appended — the units the
/// gate counts — are counted before returning, so the caller may release
/// the event that caused the callback.
fn run_callback<M: Payload, P>(
    shared: &Shared<M>,
    id: PeerId,
    cell: &mut Cell<M, P>,
    callback: impl FnOnce(&mut P, &mut Context<'_, M>),
) {
    let ads = shared.board.read().shared();
    let parked = cell.pending.len();
    callback(&mut cell.peer, &mut Context::new(id, shared.now(), &ads, &mut cell.pending));
    let work = cell
        .pending
        .range(parked..)
        .filter(|c| matches!(c, Command::Send { .. } | Command::SetTimer { .. }))
        .count();
    shared.gate.inc(work as u64);
}

fn fire_due_timers<M: Payload, P: Peer<M>>(
    shard: usize,
    shared: &Shared<M>,
    cells: &mut HashMap<PeerId, Cell<M, P>>,
    timers: &mut ShardTimers,
) {
    let now = shared.now();
    for (id, timer) in timers.pop_due(now) {
        let cell = cells.get_mut(&id).expect("a timer's owner runs on its shard");
        if cell.stalled {
            // A stalled node cannot run callbacks ahead of its parked
            // commands; re-check shortly. The gate unit stays held.
            timers.insert(now + STALL_DEFER, id, timer);
            continue;
        }
        run_callback(shared, id, cell, |peer, ctx| peer.on_timer(ctx, timer));
        shared.gate.dec(1); // the fired timer, after counting its output
        flush(shard, shared, timers, id, cell);
    }
}

/// Max messages drained per node per scheduling visit.
const QUANTUM: usize = 32;

/// One scheduling visit: flush parked commands, then drain up to
/// [`QUANTUM`] messages, then reschedule if mail remains.
fn service<M: Payload, P: Peer<M>>(
    shard: usize,
    shared: &Shared<M>,
    cells: &mut HashMap<PeerId, Cell<M, P>>,
    timers: &mut ShardTimers,
    id: PeerId,
) {
    let cell = cells.get_mut(&id).expect("a shard runs every node it schedules");
    cell.meta.scheduled.store(false, Ordering::SeqCst);
    // Still stalled? Progress rule: drain exactly ONE message anyway (its
    // commands park behind the stalled send, order preserved). The pop is
    // what breaks all-stalled cycles — it frees a slot, wakes this node's
    // own producers, and keeps the scheduling chain alive; without it, a
    // ring of full mailboxes wedges permanently. If the node stays
    // stalled, the waiter registration will reschedule it.
    if !flush(shard, shared, timers, id, cell) && !deliver_next(shard, shared, timers, id, cell) {
        return;
    }
    for _ in 0..QUANTUM {
        if !deliver_next(shard, shared, timers, id, cell) {
            return;
        }
    }
    // Quantum exhausted with mail (possibly) remaining: go around again so
    // shard-mates get their turn first.
    if cell.meta.mailbox.len() > 0 {
        shared.schedule(cell.meta, id);
    }
}

/// Pops the node's next message, hands it over and flushes what the
/// callback emitted. `false` when the mailbox was empty or the node stalls.
fn deliver_next<M: Payload, P: Peer<M>>(
    shard: usize,
    shared: &Shared<M>,
    timers: &mut ShardTimers,
    id: PeerId,
    cell: &mut Cell<M, P>,
) -> bool {
    let (item, waiters) = cell.meta.mailbox.pop();
    shared.wake_waiters(waiters);
    let Some((from, msg)) = item else {
        return false;
    };
    shared.delivered.fetch_add(1, Ordering::SeqCst);
    run_callback(shared, id, cell, |peer, ctx| peer.on_message(ctx, from, msg));
    shared.gate.dec(1); // the consumed message, after counting its output
    flush(shard, shared, timers, id, cell)
}

/// Applies a cell's parked commands until empty (returns `true`) or a send
/// stalls on a full mailbox (returns `false`; the command stays parked and
/// the node is registered as a waiter on the destination).
fn flush<M: Payload, P>(
    shard: usize,
    shared: &Shared<M>,
    timers: &mut ShardTimers,
    id: PeerId,
    cell: &mut Cell<M, P>,
) -> bool {
    while let Some(cmd) = cell.pending.pop_front() {
        match cmd {
            Command::Send { to, msg } => {
                let piped = shared.pipes.read().contains(&(id, to));
                let Some(meta) = shared.meta(to).filter(|_| piped) else {
                    shared.gate.dec(1);
                    shared.undeliverable.fetch_add(1, Ordering::SeqCst);
                    continue;
                };
                match meta.mailbox.try_push(id, msg, (shard, id), to == id) {
                    TryPush::Ok => shared.schedule(meta, to),
                    TryPush::Full(msg) => {
                        cell.pending.push_front(Command::Send { to, msg });
                        cell.stalled = true;
                        return false;
                    }
                    TryPush::Closed(_) => {
                        shared.gate.dec(1);
                        shared.undeliverable.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            Command::SetTimer { delay, timer } => {
                timers.insert(shared.now() + delay, id, timer);
            }
            Command::OpenPipe { with, .. } => {
                let mut pipes = shared.pipes.write();
                pipes.insert((id, with));
                pipes.insert((with, id));
            }
            Command::ClosePipe { with } => {
                let mut pipes = shared.pipes.write();
                pipes.remove(&(id, with));
                pipes.remove(&(with, id));
            }
            Command::Advertise(ad) => shared.board.write().publish(ad),
        }
    }
    cell.stalled = false;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_and_settles() {
        let gate = Gate::new();
        gate.inc(2);
        assert_eq!(gate.load(), 2);
        assert!(!gate.await_quiescence(Duration::from_millis(1), Duration::from_millis(20)));
        gate.dec(2);
        assert!(gate.await_quiescence(Duration::from_millis(1), Duration::from_secs(1)));
    }

    #[test]
    fn gate_wakes_blocked_waiter() {
        let gate = Arc::new(Gate::new());
        gate.inc(1);
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || {
            g2.await_quiescence(Duration::from_millis(5), Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(20));
        gate.dec(1);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn timers_fires_in_deadline_order() {
        let mut timers = ShardTimers::new();
        timers.insert(SimTime::from_millis(5), PeerId(1), 10);
        timers.insert(SimTime::from_millis(2), PeerId(2), 20);
        timers.insert(SimTime::from_millis(900), PeerId(3), 30); // far beyond the others
        assert_eq!(timers.next_deadline(), Some(SimTime::from_millis(2)));
        assert!(!timers.has_due(SimTime::from_millis(1)));
        assert_eq!(timers.pop_due(SimTime::from_millis(6)), vec![(PeerId(2), 20), (PeerId(1), 10)]);
        assert!(timers.pop_due(SimTime::from_millis(100)).is_empty());
        // The far entry fires once its deadline comes around.
        assert_eq!(timers.pop_due(SimTime::from_millis(901)), vec![(PeerId(3), 30)]);
        assert_eq!(timers.next_deadline(), None);
    }

    #[test]
    fn timers_same_instant_fire_in_insertion_order() {
        let mut timers = ShardTimers::new();
        for timer in 0..5 {
            timers.insert(SimTime::from_millis(7), PeerId(9 - timer), timer);
        }
        let fired: Vec<u64> =
            timers.pop_due(SimTime::from_millis(7)).into_iter().map(|(_, t)| t).collect();
        assert_eq!(fired, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn timers_respect_sub_millisecond_deadline() {
        let mut timers = ShardTimers::new();
        timers.insert(SimTime(5_700_000), PeerId(1), 1); // 5.7ms
        assert!(timers.pop_due(SimTime(5_200_000)).is_empty(), "must not fire 0.5ms early");
        assert_eq!(timers.pop_due(SimTime(5_800_000)), vec![(PeerId(1), 1)]);
    }

    #[test]
    fn timers_one_jump_past_everything() {
        let mut timers = ShardTimers::new();
        timers.insert(SimTime::from_millis(3), PeerId(1), 1);
        timers.insert(SimTime::from_millis(400), PeerId(2), 2);
        // Jump far past every deadline in one step.
        let due = timers.pop_due(SimTime::from_secs(2));
        assert_eq!(due, vec![(PeerId(1), 1), (PeerId(2), 2)]);
    }
}
