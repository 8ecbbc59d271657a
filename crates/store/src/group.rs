//! The fsync scheduler: the one place a WAL is written and made durable.
//!
//! Every WAL writer registers its file with a [`FsyncScheduler`] and
//! hands it each appended frame; the scheduler alone buffers the frames,
//! writes them, decides when to fsync, performs the fsync, advances the
//! file's durable watermark, counts the fsync and traces it. A
//! [`SyncPolicy`] is a pair of thresholds on a scheduler
//! ([`FsyncScheduler::for_store`]; ∞ is `u64::MAX`):
//!
//! | policy | scheduler | `max_records` | `max_batch` |
//! | --- | --- | --- | --- |
//! | `Always` | private | 1 | ∞ |
//! | `EveryN(n)` | private | `n` (0 acts as 1) | ∞ |
//! | `Never` | private | ∞ | ∞ |
//! | `GroupCommit { max_batch, max_records }` | shared, else private | `max_records` | `max_batch` |
//!
//! A private scheduler serves one store: its live WAL, plus the fresh
//! one a checkpoint rotation registers beside it. A shared scheduler
//! ([`SyncPolicy::GroupCommit`]) is one host-wide batching point for the
//! WALs of many co-located stores, so a single host running many `codb`
//! nodes pays one coalesced fsync stream instead of one per store. Either
//! way the scheduler **drains** — one fsync pass over all dirty files —
//! when either threshold trips:
//!
//! * `max_records` — cap on appended-but-unsynced records across every
//!   registered file; the append that reaches it forces a drain. This is
//!   the durability ack window: a record is acked durable only once a
//!   drain (or explicit flush) covers it, and at most `max_records`
//!   appended-but-unacked records exist on the scheduler at any moment.
//! * `max_batch` — cap on distinct dirty files coalesced into one drain;
//!   reaching it also forces a drain, bounding the length of a drain pass
//!   (and the staleness of the earliest dirty store).
//!
//! A drain fsyncs each dirty file **once**, no matter how many pending
//! records it holds — that coalescing is where the fsync amortisation
//! comes from (experiment E18 measures it).
//!
//! A frame reaches the OS in one `write` per file with everything
//! buffered beside it, at one site (`Slot::write_out`) and at one of
//! three moments: right before the fsync of a drain or flush (so a
//! record is never acked before its bytes were written), once a file's
//! buffer passes `SPILL_BYTES`, 64 KiB (written, not fsynced: it bounds
//! the memory of a `Never` store, which never drains), or when its
//! writer deregisters (written, not fsynced: a store dropped in a crash
//! harness leaves the file it always left). A process kill, which runs
//! no drop, loses the buffered frames, and only never-acked frames are
//! ever buffered.
//!
//! The scheduler is demand-driven: there is no background timer thread
//! (the stores live inside a deterministic simulator), so a lone pending
//! record stays unacked until more traffic trips a threshold or a caller
//! flushes explicitly ([`FsyncScheduler::flush_all`],
//! [`crate::Store::sync`], checkpoint). Dropping a store does **not**
//! flush — drop models a crash (the fault harnesses kill nodes by
//! dropping them), so the pending tail is written but never fsynced and
//! abandoned, which is safe precisely because it was never acked.
//!
//! **Durability ack semantics** are the same under every policy: a
//! record is never *acked* (reported durable via
//! [`crate::Store::durable_wal_records`]) before the fsync covering it
//! completes. The thresholds only *defer and batch* the ack; they never
//! lie. A crash loses at most the pending (never-acked) tail of each
//! store, and recovery still finds a clean frame prefix — the torn tail
//! guarantee is untouched because the scheduler changes *when* fsync
//! runs, not *what* is written.
//!
//! Degenerate group-commit configurations collapse to per-record
//! durability (tested): `max_records == 0` drains on every append, and
//! `max_batch <= 1` drains as soon as any store is dirty — both behave
//! exactly like [`SyncPolicy::Always`].
//!
//! The full written contract lives in `docs/DURABILITY.md` (rendered as
//! [`crate::durability`]).

use crate::store::StoreError;
use crate::wal::{store_name, SyncPolicy};
use codb_trace::{TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Buffered frames past which a file is written without waiting for a
/// drain: the memory a file's unwritten tail may take.
const SPILL_BYTES: usize = 64 * 1024;

/// One registered WAL file's slot in the scheduler.
#[derive(Debug)]
struct Slot {
    /// The WAL file, positioned at its end: the scheduler alone writes
    /// and fsyncs it, so it can drain without borrowing the writer.
    file: File,
    /// Frames appended since the last write, in append order.
    buf: Vec<u8>,
    /// The file's path, for error context and the store's trace name.
    path: PathBuf,
    /// The owning store's [`store_name`] interned in the scheduler's
    /// tracer — the id that store's `WalAppend`s carry — or 0 until the
    /// first traced fsync interns it.
    store: u32,
    /// Appended records not yet covered by a fsync.
    pending: u64,
    /// Byte length appended (magic + complete frames), written or in
    /// `buf`.
    len: u64,
    /// Records appended.
    frames: u64,
    /// What the last fsync covered, and how many there were.
    durable: Durable,
    /// Latched write or fsync failure. A failed slot leaves the drain
    /// rotation (its broken fd is never retried, its pending records
    /// leave the totals so it cannot wedge the thresholds) and the error
    /// is surfaced to **its own writer's** every later append/flush —
    /// the owner latches it and detaches. Other stores on the scheduler
    /// stay healthy.
    failed: Option<String>,
}

/// What fsync covers of one WAL file — the prefix guaranteed to survive a
/// host crash — and the fsyncs that made it so.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Durable {
    /// Byte length covered by the last fsync.
    pub(crate) len: u64,
    /// Records covered by the last fsync — the *acked* record count.
    pub(crate) frames: u64,
    /// Fsyncs of this file since it registered, by a drain or a flush.
    pub(crate) fsyncs: u64,
}

impl Slot {
    /// The latched failure, as this slot's writer sees it.
    fn health(&self) -> Result<(), StoreError> {
        match &self.failed {
            Some(detail) => Err(StoreError::Io { file: self.path.clone(), detail: detail.clone() }),
            None => Ok(()),
        }
    }

    /// The one place WAL frames reach the OS: the buffered frames in one
    /// `write_all`, counted — or the failure latched. Returns whether it
    /// succeeded (trivially, with nothing buffered).
    fn write_out(&mut self, stats: &mut FsyncSchedulerStats) -> bool {
        if self.buf.is_empty() {
            return true;
        }
        stats.writes += 1;
        let written = self.file.write_all(&self.buf);
        self.buf.clear();
        match written {
            Ok(()) => true,
            Err(e) => {
                self.fail(e, stats);
                false
            }
        }
    }

    fn fail(&mut self, e: std::io::Error, stats: &mut FsyncSchedulerStats) {
        self.failed = Some(e.to_string());
        stats.failed_stores += 1;
    }

    /// The one WAL fsync: write the buffered frames, `fdatasync` the
    /// file, then advance the watermark to everything appended, count
    /// the fsync and trace it — or latch the failure. Returns whether it
    /// succeeded.
    fn sync(&mut self, tracer: &Tracer, stats: &mut FsyncSchedulerStats) -> bool {
        if !self.write_out(stats) {
            return false;
        }
        if tracer.is_enabled() && self.store == 0 {
            self.store = tracer.intern(&store_name(&self.path));
        }
        let started = tracer.is_enabled().then(Instant::now);
        if let Err(e) = self.file.sync_data() {
            self.fail(e, stats);
            return false;
        }
        self.durable =
            Durable { len: self.len, frames: self.frames, fsyncs: self.durable.fsyncs + 1 };
        stats.fsyncs += 1;
        if let Some(t0) = started {
            let nanos = t0.elapsed().as_nanos() as u64;
            tracer.emit(TraceEvent::Fsync { store: self.store, nanos });
        }
        true
    }
}

#[derive(Debug)]
struct Inner {
    max_batch: u64,
    max_records: u64,
    next_id: u64,
    slots: BTreeMap<u64, Slot>,
    /// Running total of pending records across healthy slots (kept
    /// incrementally — the append path must not scan every slot).
    pending_total: u64,
    /// Running count of healthy slots with `pending > 0`.
    dirty_stores: u64,
    /// Ids whose `pending` went 0 → 1 since the last drain — the work
    /// list a drain visits, so a pass is O(dirty), not O(registered).
    /// May hold stale entries (flushed or deregistered since); the
    /// drain skips those by re-checking `pending`.
    dirty_ids: Vec<u64>,
    stats: FsyncSchedulerStats,
    /// Flight recorder: fsyncs emit `Fsync`, drains `GroupDrain`
    /// (disabled by default — one branch per fsync and per drain).
    tracer: Tracer,
}

/// Counters the scheduler keeps about itself (experiment E18 reads
/// them; they are monotonic over the scheduler's lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsyncSchedulerStats {
    /// Drain passes executed (threshold-triggered or [`flush_all`]).
    ///
    /// [`flush_all`]: FsyncScheduler::flush_all
    pub drains: u64,
    /// `fdatasync` calls issued (one per dirty file per drain, plus one
    /// per single-writer flush).
    pub fsyncs: u64,
    /// `write` calls made: one before each fsync that had frames to
    /// write, plus one per spill and per writer dropped with frames
    /// still buffered — not one per append.
    pub writes: u64,
    /// Appends reported by registered writers.
    pub appends: u64,
    /// Records whose durability ack was covered by a drain pass (the
    /// coalescing the scheduler exists for).
    pub drained_records: u64,
    /// Writers currently registered.
    pub registered: u64,
    /// Writers that deregistered with pending (never-acked) records —
    /// a store dropped mid-batch; its unsynced tail was abandoned, which
    /// is safe because those records were never reported durable.
    pub abandoned_pending: u64,
    /// Stores whose write or fsync failed: each left the drain rotation
    /// with its error latched, to be surfaced to its own writer's every
    /// later append/flush.
    pub failed_stores: u64,
}

/// A cloneable handle to one scheduler. All clones address the same
/// batching state: a network hands one shared handle to every node's
/// store (see `CoDbNetwork::open_persistence_all` in `codb-core`), while
/// a per-store policy's private scheduler is reached only through its
/// store.
#[derive(Clone)]
pub struct FsyncScheduler {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for FsyncScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("FsyncScheduler")
            .field("max_batch", &inner.max_batch)
            .field("max_records", &inner.max_records)
            .field("registered", &inner.slots.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl FsyncScheduler {
    /// Creates a scheduler with the given thresholds (see the module docs
    /// for their meaning; `max_records == 0` and `max_batch <= 1` both
    /// degenerate to per-append draining, i.e. [`SyncPolicy::Always`]
    /// semantics).
    pub fn new(max_batch: u64, max_records: u64) -> Self {
        FsyncScheduler {
            inner: Arc::new(Mutex::new(Inner {
                max_batch,
                max_records,
                next_id: 0,
                slots: BTreeMap::new(),
                pending_total: 0,
                dirty_stores: 0,
                dirty_ids: Vec::new(),
                stats: FsyncSchedulerStats::default(),
                tracer: Tracer::disabled(),
            })),
        }
    }

    /// Attaches a flight-recorder handle: every fsync emits `Fsync` (with
    /// measured duration, naming its store) and every drain a
    /// `GroupDrain` summary.
    pub fn attach_tracer(&self, tracer: Tracer) {
        let mut inner = self.lock();
        // Interned ids belong to the tracer that minted them.
        for slot in inner.slots.values_mut() {
            slot.store = 0;
        }
        inner.tracer = tracer;
    }

    /// The scheduler a store under `policy` writes through — the one
    /// mapping from policy to thresholds (see the module docs' table):
    /// [`SyncPolicy::GroupCommit`] joins `shared`, or a private
    /// scheduler when none is passed; every other policy gets a private
    /// scheduler whatever was passed.
    pub fn for_store(policy: SyncPolicy, shared: Option<&FsyncScheduler>) -> FsyncScheduler {
        let (max_batch, max_records) = match policy {
            SyncPolicy::Always => (u64::MAX, 1),
            SyncPolicy::EveryN(n) => (u64::MAX, n),
            SyncPolicy::Never => (u64::MAX, u64::MAX),
            SyncPolicy::GroupCommit { max_batch, max_records } => match shared {
                Some(sched) => return sched.clone(),
                None => (max_batch, max_records),
            },
        };
        FsyncScheduler::new(max_batch, max_records)
    }

    /// A scheduler for stores to share under `policy` — `Some` only for
    /// [`SyncPolicy::GroupCommit`] (the per-store policies never share):
    /// [`FsyncScheduler::for_store`] with nothing to join yet.
    pub fn for_policy(policy: SyncPolicy) -> Option<Self> {
        matches!(policy, SyncPolicy::GroupCommit { .. }).then(|| Self::for_store(policy, None))
    }

    /// The dirty-store coalescing cap.
    pub fn max_batch(&self) -> u64 {
        self.lock().max_batch
    }

    /// The pending-record cap (the durability ack window).
    pub fn max_records(&self) -> u64 {
        self.lock().max_records
    }

    /// Snapshot of the scheduler's counters.
    pub fn stats(&self) -> FsyncSchedulerStats {
        let mut inner = self.lock();
        let registered = inner.slots.len() as u64;
        inner.stats.registered = registered;
        inner.stats
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while the lock was held (poison) cannot corrupt the
        // bookkeeping in a way recovery doesn't already handle — worst
        // case some pending counts are stale and the next drain re-syncs
        // clean files — so recover the guard rather than cascade.
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Registers a WAL file. `durable_len`/`frames` describe the prefix
    /// already on stable storage (the magic for a fresh file, the
    /// recovered valid prefix for a reopened one). Returns the writer id
    /// used by every later call.
    pub(crate) fn register(&self, file: File, path: &Path, durable_len: u64, frames: u64) -> u64 {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        let durable = Durable { len: durable_len, frames, fsyncs: 0 };
        inner.slots.insert(
            id,
            Slot {
                file,
                buf: Vec::new(),
                path: path.to_owned(),
                store: 0,
                pending: 0,
                len: durable_len,
                frames,
                durable,
                failed: None,
            },
        );
        id
    }

    /// Removes a writer, writing its buffered frames without an fsync.
    /// Pending (never-acked) records are abandoned — the mid-batch
    /// deregistration case: the drained totals shrink and the next drain
    /// simply no longer visits the file.
    pub(crate) fn deregister(&self, id: u64) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if let Some(mut slot) = inner.slots.remove(&id) {
            if slot.failed.is_none() {
                if slot.pending > 0 {
                    inner.stats.abandoned_pending += slot.pending;
                    inner.pending_total -= slot.pending;
                    inner.dirty_stores -= 1;
                }
                slot.write_out(&mut inner.stats);
            }
        }
    }

    /// Buffers one frame appended by writer `id`, drains if a threshold
    /// trips and otherwise writes the file's buffer once it passes
    /// [`SPILL_BYTES`]. Returns the latched error if this writer's own
    /// write or fsync failed (now or in an earlier drain) — the owner
    /// latches it and detaches.
    pub(crate) fn note_append(&self, id: u64, frame: &[u8]) -> Result<(), StoreError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.stats.appends += 1;
        let slot = inner.slots.get_mut(&id).expect("writer registered with this scheduler");
        slot.health()?;
        slot.buf.extend_from_slice(frame);
        slot.len += frame.len() as u64;
        slot.frames += 1;
        if slot.pending == 0 {
            inner.dirty_stores += 1;
            inner.dirty_ids.push(id);
        }
        slot.pending += 1;
        inner.pending_total += 1;
        if inner.pending_total >= inner.max_records.max(1)
            || inner.dirty_stores >= inner.max_batch.max(1)
        {
            drain(inner);
            // The drain latches failures per slot; only this writer's own
            // failure is this caller's error.
            return inner.slots[&id].health();
        }
        if slot.buf.len() >= SPILL_BYTES && !slot.write_out(&mut inner.stats) {
            // Like a failed drain: the dead slot's pending records leave
            // the totals.
            inner.pending_total -= slot.pending;
            inner.dirty_stores -= 1;
            slot.pending = 0;
        }
        slot.health()
    }

    /// Fsyncs writer `id`'s file now, regardless of thresholds (explicit
    /// [`crate::Store::sync`], checkpoint, close). Other writers' pending
    /// records stay pending.
    pub(crate) fn flush_writer(&self, id: u64) -> Result<(), StoreError> {
        let mut guard = self.lock();
        let Inner { slots, pending_total, dirty_stores, stats, tracer, .. } = &mut *guard;
        let slot = slots.get_mut(&id).expect("writer registered with this scheduler");
        slot.health()?;
        if slot.pending > 0 {
            *pending_total -= slot.pending;
            *dirty_stores -= 1;
            slot.pending = 0;
        }
        // Skipped when nothing new is on disk: the watermark is current.
        if slot.durable.len != slot.len {
            slot.sync(tracer, stats);
        }
        slot.health()
    }

    /// Drains every dirty writer now — the harness / shutdown hook.
    /// Fsync failures are latched per slot (surfaced to each owner's
    /// next append/flush), never returned here.
    pub fn flush_all(&self) {
        let mut inner = self.lock();
        if inner.dirty_stores > 0 {
            drain(&mut inner);
        }
    }

    /// Writer `id`'s durable watermark and fsync count.
    pub(crate) fn durable_of(&self, id: u64) -> Durable {
        self.lock().slots.get(&id).expect("writer registered with this scheduler").durable
    }
}

/// One drain pass: [`Slot::sync`] each dirty healthy file once and clear
/// its pending count. A write or fsync failure is latched on **that
/// slot** (it leaves the drain rotation and its owner sees the error at
/// its next append/flush — never a bystander whose append merely tripped
/// the threshold) and the pass continues over the remaining stores, so
/// one bad disk cannot poison the whole scheduler.
fn drain(inner: &mut Inner) {
    let Inner { slots, pending_total, dirty_stores, dirty_ids, stats, tracer, .. } = inner;
    stats.drains += 1;
    let (mut visited, mut acked, mut fsyncs) = (0u64, 0u64, 0u64);
    // Only the stores that went dirty since the last drain, not every
    // registered slot — stale entries (flushed/deregistered since) fall
    // through the pending re-check.
    for id in dirty_ids.drain(..) {
        let Some(slot) = slots.get_mut(&id) else { continue };
        if slot.pending == 0 || slot.failed.is_some() {
            continue;
        }
        visited += 1;
        // A failed slot's pending records can never be acked; they leave
        // the totals all the same, so the dead slot cannot wedge the
        // window.
        *pending_total -= slot.pending;
        if slot.sync(tracer, stats) {
            fsyncs += 1;
            acked += slot.pending;
        }
        slot.pending = 0;
    }
    *dirty_stores -= visited;
    stats.drained_records += acked;
    tracer.emit_with(|| TraceEvent::GroupDrain { stores: visited, records: acked, fsyncs });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{SyncPolicy, WalRecord, WalWriter};
    use crate::ScratchDir;
    use codb_relational::{Tuple, Value};

    fn record(k: i64) -> WalRecord {
        WalRecord::LocalInsert { relation: "r".into(), tuple: Tuple::new(vec![Value::Int(k)]) }
    }

    fn writer(dir: &ScratchDir, name: &str, sched: &FsyncScheduler) -> WalWriter {
        WalWriter::create(&dir.path().join(name), sched).unwrap()
    }

    #[test]
    fn drains_coalesce_across_writers_on_the_record_threshold() {
        let dir = ScratchDir::new("group-coalesce");
        let policy = SyncPolicy::GroupCommit { max_batch: 64, max_records: 6 };
        let sched = FsyncScheduler::for_policy(policy).unwrap();
        let mut a = writer(&dir, "a.wal", &sched);
        let mut b = writer(&dir, "b.wal", &sched);
        // Five appends across two files: below the threshold, nothing is
        // acked durable yet.
        for k in 0..3 {
            a.append(&record(k)).unwrap();
        }
        for k in 0..2 {
            b.append(&record(k)).unwrap();
        }
        assert_eq!(sched.stats().fsyncs, 0);
        assert_eq!(a.durable_frames(), 0);
        assert_eq!(b.durable_frames(), 0);
        // The sixth append trips max_records: one drain, two fsyncs (one
        // per dirty file), everything acked.
        b.append(&record(2)).unwrap();
        let stats = sched.stats();
        assert_eq!(stats.drains, 1);
        assert_eq!(stats.fsyncs, 2, "one fsync per dirty file, not per record");
        assert_eq!(stats.drained_records, 6);
        assert_eq!(a.durable_frames(), 3);
        assert_eq!(b.durable_frames(), 3);
        assert_eq!(a.durable_len(), a.len());
        assert_eq!(b.durable_len(), b.len());
    }

    #[test]
    fn dirty_store_threshold_forces_a_drain() {
        let dir = ScratchDir::new("group-batch");
        let policy = SyncPolicy::GroupCommit { max_batch: 2, max_records: 1_000 };
        let sched = FsyncScheduler::for_policy(policy).unwrap();
        let mut a = writer(&dir, "a.wal", &sched);
        let mut b = writer(&dir, "b.wal", &sched);
        a.append(&record(0)).unwrap();
        assert_eq!(sched.stats().drains, 0, "one dirty store, below max_batch");
        b.append(&record(0)).unwrap();
        assert_eq!(sched.stats().drains, 1, "second dirty store trips max_batch");
        assert_eq!(a.durable_frames(), 1);
        assert_eq!(b.durable_frames(), 1);
    }

    #[test]
    fn degenerate_configs_behave_like_always() {
        // max_records = 0: every append drains. max_batch = 1: the
        // appending store is dirty, so every append drains. Both give
        // per-record ack — SyncPolicy::Always semantics.
        let dir = ScratchDir::new("group-degenerate");
        for policy in [
            SyncPolicy::GroupCommit { max_batch: 64, max_records: 0 },
            SyncPolicy::GroupCommit { max_batch: 1, max_records: 1_000 },
        ] {
            let sched = FsyncScheduler::for_policy(policy).unwrap();
            let name = format!("{policy}.wal").replace([':', ','], "-");
            let mut w = writer(&dir, &name, &sched);
            for k in 0..4 {
                w.append(&record(k)).unwrap();
                assert_eq!(w.durable_frames(), (k + 1) as u64, "{policy}: acked per append");
                assert_eq!(w.durable_len(), w.len(), "{policy}");
            }
            assert_eq!(sched.stats().fsyncs, 4, "{policy}: one fsync per append");
        }
    }

    #[test]
    fn deregistration_mid_batch_abandons_pending_and_keeps_draining() {
        let dir = ScratchDir::new("group-dereg");
        let policy = SyncPolicy::GroupCommit { max_batch: 64, max_records: 4 };
        let sched = FsyncScheduler::for_policy(policy).unwrap();
        let mut a = writer(&dir, "a.wal", &sched);
        let mut b = writer(&dir, "b.wal", &sched);
        a.append(&record(0)).unwrap();
        b.append(&record(0)).unwrap();
        b.append(&record(1)).unwrap();
        // Drop `b` mid-batch: its two pending records leave the totals
        // (they were never acked, so nothing durable is lost).
        drop(b);
        let stats = sched.stats();
        assert_eq!(stats.abandoned_pending, 2);
        assert_eq!(stats.registered, 1);
        // The survivor's traffic still reaches the (unchanged) record
        // threshold and drains only the live file.
        a.append(&record(1)).unwrap();
        a.append(&record(2)).unwrap();
        a.append(&record(3)).unwrap();
        let stats = sched.stats();
        assert_eq!(stats.drains, 1);
        assert_eq!(stats.fsyncs, 1, "only the surviving file is in the pass");
        assert_eq!(a.durable_frames(), 4);
    }

    #[test]
    fn explicit_flush_acks_one_writer_without_draining_others() {
        let dir = ScratchDir::new("group-flush");
        let policy = SyncPolicy::GroupCommit { max_batch: 64, max_records: 1_000 };
        let sched = FsyncScheduler::for_policy(policy).unwrap();
        let mut a = writer(&dir, "a.wal", &sched);
        let mut b = writer(&dir, "b.wal", &sched);
        a.append(&record(0)).unwrap();
        b.append(&record(0)).unwrap();
        a.sync().unwrap();
        assert_eq!(a.durable_frames(), 1, "explicit sync acks immediately");
        assert_eq!(b.durable_frames(), 0, "other writers stay pending");
        // flush_all drains the rest; a second flush_all is a no-op.
        sched.flush_all();
        assert_eq!(b.durable_frames(), 1);
        let fsyncs = sched.stats().fsyncs;
        sched.flush_all();
        assert_eq!(sched.stats().fsyncs, fsyncs, "nothing dirty, nothing synced");
    }

    fn file_len(w: &WalWriter) -> u64 {
        std::fs::metadata(w.path()).unwrap().len()
    }

    #[test]
    fn a_drain_tripped_by_one_writer_writes_anothers_buffered_frames() {
        let dir = ScratchDir::new("group-shared-write");
        let policy = SyncPolicy::GroupCommit { max_batch: 64, max_records: 4 };
        let sched = FsyncScheduler::for_policy(policy).unwrap();
        let mut a = writer(&dir, "a.wal", &sched);
        let mut b = writer(&dir, "b.wal", &sched);
        let header = file_len(&b);
        let records: Vec<WalRecord> = (0..2).map(record).collect();
        for r in &records {
            b.append(r).unwrap();
        }
        assert_eq!(file_len(&b), header, "B's frames wait in the scheduler");
        a.append(&record(10)).unwrap();
        // A's second append trips the window: the drain writes and fsyncs
        // B's frames too.
        a.append(&record(11)).unwrap();
        assert_eq!(b.durable_frames(), 2);
        assert_eq!(file_len(&b), b.durable_len());
        assert_eq!(b.durable_len(), b.len());
        assert_eq!(crate::wal::read_wal(b.path()).unwrap().records, records);
        let stats = sched.stats();
        assert_eq!((stats.writes, stats.fsyncs), (2, 2), "one write per file per drain");
    }

    #[test]
    fn never_spills_buffered_frames_before_any_fsync() {
        let dir = ScratchDir::new("group-spill");
        let sched = FsyncScheduler::for_store(SyncPolicy::Never, None);
        let mut w = writer(&dir, "never.wal", &sched);
        let header = file_len(&w);
        let big = WalRecord::LocalInsert {
            relation: "r".into(),
            tuple: Tuple::new(vec![Value::str("x".repeat(SPILL_BYTES / 4))]),
        };
        for _ in 0..3 {
            w.append(&big).unwrap();
        }
        assert_eq!(file_len(&w), header, "below the spill size, nothing written");
        w.append(&big).unwrap();
        assert_eq!(file_len(&w), w.len(), "the fourth frame passes the spill size");
        let stats = sched.stats();
        assert_eq!((stats.writes, stats.fsyncs), (1, 0), "written, not fsynced");
        assert_eq!(w.durable_frames(), 0, "a spill acks nothing");
    }

    #[test]
    fn private_scheduler_is_built_when_no_handle_is_shared() {
        // A group-commit writer without a shared handle gets a private
        // scheduler: batching within one store, same ack semantics.
        let dir = ScratchDir::new("group-private");
        let policy = SyncPolicy::GroupCommit { max_batch: 64, max_records: 2 };
        let path = dir.path().join("solo.wal");
        let mut w = WalWriter::create(&path, &FsyncScheduler::for_store(policy, None)).unwrap();
        w.append(&record(0)).unwrap();
        assert_eq!(w.durable_frames(), 0, "below the window, unacked");
        w.append(&record(1)).unwrap();
        assert_eq!(w.durable_frames(), 2, "window reached, drained");
    }
}
