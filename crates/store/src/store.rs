//! The store: a directory of generation-numbered snapshot + WAL pairs,
//! with checkpoint-time rotation/compaction and crash recovery.
//!
//! See the crate docs for the on-disk format and the compaction rules.

use crate::codec::{self, Codec, MAGIC_LEN};
use crate::group::FsyncScheduler;
use crate::wal::{
    apply_arrived, read_wal, store_name, ProtocolCounters, RecvCaches, SyncPolicy, WalRecord,
    WalWriter,
};
use codb_relational::frame::{encode_frame, FrameScanner, FrameStep};
use codb_relational::{Instance, NullFactory, Snapshot, SnapshotError};
use codb_trace::{TraceEvent, Tracer};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Storage-engine errors.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure.
    Io {
        /// The file involved.
        file: PathBuf,
        /// The underlying error.
        detail: String,
    },
    /// A file does not start with the expected magic bytes.
    BadMagic {
        /// The offending file.
        file: PathBuf,
    },
    /// A complete frame failed its checksum or did not decode — corruption,
    /// never silently accepted.
    CorruptFrame {
        /// The offending file.
        file: PathBuf,
        /// Byte offset of the frame header.
        offset: u64,
        /// What went wrong.
        reason: String,
    },
    /// A store was asked to write a format it only reads (JSON).
    ReadOnlyCodec(Codec),
    /// The snapshot payload was rejected (corrupt or wrong version).
    Snapshot(SnapshotError),
    /// Replaying a WAL record against the snapshot failed (schema drift
    /// between the store and the configuration it is opened under).
    Replay {
        /// What went wrong.
        detail: String,
    },
    /// [`Store::open`] found no usable snapshot generation.
    NoState {
        /// The directory searched.
        dir: PathBuf,
    },
    /// [`Store::create`] refused to clobber an existing store.
    AlreadyExists {
        /// The occupied directory.
        dir: PathBuf,
    },
    /// The incarnation counter (`codb.epoch`) is missing or unreadable.
    /// Loud on purpose: silently restarting at epoch 0 would make every
    /// peer drop the node's envelopes as stale — a mute partition.
    Epoch {
        /// The store directory.
        dir: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// A group-commit open asked for thresholds different from the
    /// shared [`crate::FsyncScheduler`] it would join. Loud on purpose:
    /// silently joining the existing scheduler would give the store a
    /// durability ack window it never agreed to.
    SchedulerMismatch {
        /// The shared scheduler's policy (as `group:RECORDS,BATCH`).
        existing: String,
        /// The policy this open requested.
        requested: String,
    },
}

impl StoreError {
    pub(crate) fn io(file: &Path, e: std::io::Error) -> Self {
        StoreError::Io { file: file.to_owned(), detail: e.to_string() }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { file, detail } => write!(f, "i/o on {}: {detail}", file.display()),
            StoreError::BadMagic { file } => write!(f, "{}: bad magic", file.display()),
            StoreError::CorruptFrame { file, offset, reason } => {
                write!(f, "{} corrupt at byte {offset}: {reason}", file.display())
            }
            StoreError::ReadOnlyCodec(codec) => {
                write!(f, "the {codec} store format is read only: stores write binary")
            }
            StoreError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
            StoreError::Replay { detail } => write!(f, "WAL replay failed: {detail}"),
            StoreError::NoState { dir } => {
                write!(f, "no usable snapshot generation under {}", dir.display())
            }
            StoreError::AlreadyExists { dir } => {
                write!(f, "store already exists under {}", dir.display())
            }
            StoreError::Epoch { dir, detail } => {
                write!(f, "incarnation counter under {}: {detail}", dir.display())
            }
            StoreError::SchedulerMismatch { existing, requested } => {
                write!(
                    f,
                    "group-commit policy {requested} differs from the shared fsync scheduler's \
                     {existing}"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}

/// Name of the incarnation-counter file (see [`RecoveredState::epoch`]).
const EPOCH_FILE: &str = "codb.epoch";

/// Copyable summary of a recovery — what reports and callers that hand the
/// full [`RecoveredState`] to a node still want to know afterwards.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryStats {
    /// Incarnation number of this open.
    pub epoch: u64,
    /// Snapshot generation recovery started from.
    pub generation: u64,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// True when a torn final frame was found (and truncated away).
    pub torn_tail: bool,
}

/// State reconstructed by [`Store::open`].
#[derive(Debug)]
pub struct RecoveredState {
    /// Incarnation number: 0 for a freshly created store, bumped by every
    /// [`Store::open`]. Restarted nodes stamp it on their envelopes so
    /// peers distinguish a rejoined node (whose transport sequence numbers
    /// start over) from a duplicate-sending one.
    pub epoch: u64,
    /// The instance: snapshot plus replayed WAL deltas.
    pub instance: Instance,
    /// The null factory, advanced exactly as the original run advanced it.
    pub nulls: NullFactory,
    /// Receiver-side dedup caches (from the WAL's cache checkpoint plus
    /// replayed applies).
    pub recv_cache: RecvCaches,
    /// Protocol counters as of the last [`WalRecord::Counters`] record —
    /// the id space the recovered node resumes (never restarts) from.
    pub counters: ProtocolCounters,
    /// Snapshot generation the recovery started from.
    pub generation: u64,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// True when a torn final frame was found (and truncated away).
    pub torn_tail: bool,
    /// Codec the recovered snapshot file was written in (auto-detected
    /// from its format byte).
    pub snapshot_codec: Codec,
    /// Codec of the recovered WAL file. Where either codec is JSON, the
    /// open has rotated the store to a binary generation after replay.
    pub wal_codec: Codec,
}

impl RecoveredState {
    /// The copyable summary of this recovery.
    pub fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            epoch: self.epoch,
            generation: self.generation,
            wal_records_replayed: self.wal_records_replayed,
            torn_tail: self.torn_tail,
        }
    }
}

/// A durable store rooted at one directory. One store persists one node.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    generation: u64,
    /// The live WAL. Rotation registers the fresh WAL with this
    /// writer's scheduler, so a store keeps one scheduler for life.
    writer: WalWriter,
    /// Flight-recorder handle (disabled by default). Rotation re-attaches
    /// it to the fresh WAL writer so `WalAppend`/`Fsync` events keep
    /// flowing across checkpoints.
    tracer: Tracer,
    /// Interned id of this store's name ([`store_name`]: its directory)
    /// in the tracer's string table (0 while disabled).
    trace_id: u32,
}

fn snap_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("codb-{generation:010}.snap"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("codb-{generation:010}.wal"))
}

/// Parses `codb-NNNNNNNNNN.<suffix>` into the generation number.
fn parse_generation(name: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix("codb-")?.strip_suffix(suffix)?.parse().ok()
}

/// Writes the epoch counter by temp file + atomic rename, the temp file
/// fsynced before the rename (else a power cut could leave the committed
/// name on an empty file) and the directory after it — the one directory
/// sync of an open, which covers the generation sweep before it too.
fn write_epoch(dir: &Path, epoch: u64) -> Result<(), StoreError> {
    let path = dir.join(EPOCH_FILE);
    let tmp = dir.join("codb.epoch.tmp");
    {
        let mut file = std::fs::File::create(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
        file.write_all(epoch.to_string().as_bytes()).map_err(|e| StoreError::io(&tmp, e))?;
        file.sync_all().map_err(|e| StoreError::io(&tmp, e))?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| StoreError::io(&path, e))?;
    sync_dir(dir)?;
    Ok(())
}

fn read_epoch(dir: &Path) -> Result<u64, StoreError> {
    let text = std::fs::read_to_string(dir.join(EPOCH_FILE)).map_err(|e| StoreError::Epoch {
        dir: dir.to_owned(),
        detail: format!("unreadable: {e}"),
    })?;
    text.trim().parse().map_err(|e| StoreError::Epoch {
        dir: dir.to_owned(),
        detail: format!("unparseable {text:?}: {e}"),
    })
}

fn list_generations(dir: &Path, suffix: &str) -> Result<Vec<u64>, StoreError> {
    let mut gens = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(g) = parse_generation(name, suffix) {
                gens.push(g);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Fsyncs the directory itself, so renames/creates/unlinks inside it are
/// on stable storage (file-data fsyncs alone do not order directory
/// metadata under power loss).
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    let d = std::fs::File::open(dir).map_err(|e| StoreError::io(dir, e))?;
    d.sync_all().map_err(|e| StoreError::io(dir, e))
}

fn write_snapshot_file(path: &Path, snapshot: &Snapshot) -> Result<(), StoreError> {
    // Temp file + atomic rename: a crash mid-write never produces a
    // half-snapshot under the committed name.
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
        let mut buf = Vec::new();
        buf.extend_from_slice(&Codec::Binary.snap_magic());
        encode_frame(&snapshot.to_binary_bytes(), &mut buf);
        file.write_all(&buf).map_err(|e| StoreError::io(&tmp, e))?;
        file.sync_all().map_err(|e| StoreError::io(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| StoreError::io(path, e))?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))?;
    Ok(())
}

fn read_snapshot_file(path: &Path) -> Result<(Snapshot, Codec), StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, e))?;
    let Some(codec) = Codec::detect_snap(&bytes) else {
        return Err(StoreError::BadMagic { file: path.to_owned() });
    };
    let mut scanner = FrameScanner::new(&bytes[MAGIC_LEN..]);
    match scanner.next_frame() {
        FrameStep::Frame(payload) => Ok((codec::decode_snapshot(payload, codec)?, codec)),
        FrameStep::End | FrameStep::TornTail => Err(StoreError::CorruptFrame {
            file: path.to_owned(),
            offset: MAGIC_LEN as u64,
            reason: "incomplete snapshot frame".into(),
        }),
        FrameStep::Corrupt { offset, reason } => Err(StoreError::CorruptFrame {
            file: path.to_owned(),
            offset: (MAGIC_LEN + offset) as u64,
            reason,
        }),
    }
}

/// Creates the WAL at `path` headed by checkpoints of `recv` and
/// `counters`, synced, its appends traced to `tracer`.
fn start_wal(
    path: &Path,
    recv: &RecvCaches,
    counters: &ProtocolCounters,
    sched: &FsyncScheduler,
    tracer: &Tracer,
) -> Result<WalWriter, StoreError> {
    let mut writer = WalWriter::create(path, sched)?;
    if tracer.is_enabled() {
        writer.attach_tracer(tracer.clone());
    }
    writer.append(&WalRecord::Caches { recv: recv.clone() })?;
    writer.append(&WalRecord::Counters { counters: *counters })?;
    writer.sync()?;
    Ok(writer)
}

/// Writes generation `next` of the store at `dir` whole and returns its
/// WAL's writer — the one rotation of [`Store::checkpoint`] and of a
/// legacy store's open. Order matters for crash safety: (1) the fresh WAL
/// with its checkpoints, (2) the snapshot rename as the commit point; the
/// caller then removes the previous generation. A crash between any two
/// steps leaves at least one complete generation.
fn rotate(
    dir: &Path,
    next: u64,
    snapshot: &Snapshot,
    recv: &RecvCaches,
    counters: &ProtocolCounters,
    sched: &FsyncScheduler,
    tracer: &Tracer,
) -> Result<WalWriter, StoreError> {
    let writer = start_wal(&wal_path(dir, next), recv, counters, sched, tracer)?;
    sync_dir(dir)?;
    write_snapshot_file(&snap_path(dir, next), snapshot)?;
    Ok(writer)
}

impl Store {
    /// True iff `dir` holds at least one snapshot generation.
    pub fn exists(dir: &Path) -> bool {
        dir.is_dir() && list_generations(dir, ".snap").map(|g| !g.is_empty()).unwrap_or(false)
    }

    /// Initialises a fresh store at `dir` (created if missing) from the
    /// given state: writes the generation-0 snapshot and an empty WAL
    /// headed by a cache checkpoint plus a protocol-counter checkpoint.
    /// Refuses to clobber an existing store.
    ///
    /// Equivalent to [`Store::create_with`] without a shared scheduler
    /// (every policy then batches through a private one). `codec` must be
    /// [`Codec::Binary`] ([`Codec::writable`]); the argument stays only
    /// while `benchmark/` passes it, and goes when the benchmark next
    /// changes (ROADMAP item 6).
    pub fn create(
        dir: &Path,
        snapshot: &Snapshot,
        recv: &RecvCaches,
        counters: &ProtocolCounters,
        policy: SyncPolicy,
        codec: Codec,
    ) -> Result<Store, StoreError> {
        codec.writable()?;
        Self::create_with(dir, snapshot, recv, counters, policy, None)
    }

    /// [`Store::create`] with an optional shared group-commit scheduler:
    /// under [`SyncPolicy::GroupCommit`] this store's WAL joins `group`
    /// (or a private scheduler built from the policy when `None`), so
    /// fsyncs coalesce with every other store registered there. The
    /// per-store policies ignore it and get a private scheduler
    /// ([`FsyncScheduler::for_store`]).
    pub fn create_with(
        dir: &Path,
        snapshot: &Snapshot,
        recv: &RecvCaches,
        counters: &ProtocolCounters,
        policy: SyncPolicy,
        group: Option<&FsyncScheduler>,
    ) -> Result<Store, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
        if Store::exists(dir) {
            return Err(StoreError::AlreadyExists { dir: dir.to_owned() });
        }
        let sched = FsyncScheduler::for_store(policy, group);
        let writer = start_wal(&wal_path(dir, 0), recv, counters, &sched, &Tracer::disabled())?;
        // Epoch before the snapshot: the snapshot rename is the commit
        // point of creation (`exists` keys on it), so a committed store
        // always has its incarnation counter.
        write_epoch(dir, 0)?;
        write_snapshot_file(&snap_path(dir, 0), snapshot)?;
        Ok(Store {
            dir: dir.to_owned(),
            generation: 0,
            writer,
            tracer: Tracer::disabled(),
            trace_id: 0,
        })
    }

    /// Opens an existing store: loads the latest valid snapshot, replays
    /// the WAL tail (tolerating a torn final frame, which is truncated),
    /// removes files from other generations, and returns the store ready
    /// for appending plus the reconstructed state.
    ///
    /// Each file's payload encoding is auto-detected from its format
    /// byte, so a store written under either codec recovers. A legacy
    /// store — a JSON snapshot or a JSON WAL — is rotated after replay to
    /// a binary generation through the checkpoint path, so every append
    /// after an open is binary and a crash mid-way reopens one of the two
    /// generations whole.
    ///
    /// `codec` must be [`Codec::Binary`] ([`Codec::writable`]); the
    /// argument stays only while `benchmark/` passes it, and goes when the
    /// benchmark next changes (ROADMAP item 6).
    pub fn open(
        dir: &Path,
        policy: SyncPolicy,
        codec: Codec,
    ) -> Result<(Store, RecoveredState), StoreError> {
        codec.writable()?;
        Self::open_with(dir, policy, None)
    }

    /// [`Store::open`] with an optional shared group-commit scheduler
    /// (see [`Store::create_with`]). The recovered valid WAL prefix is
    /// registered with the scheduler as already durable.
    pub fn open_with(
        dir: &Path,
        policy: SyncPolicy,
        group: Option<&FsyncScheduler>,
    ) -> Result<(Store, RecoveredState), StoreError> {
        let sched = FsyncScheduler::for_store(policy, group);
        let snaps = list_generations(dir, ".snap")?;
        if snaps.is_empty() {
            return Err(StoreError::NoState { dir: dir.to_owned() });
        }
        // Latest valid snapshot wins; earlier generations are the fallback
        // if the newest is damaged (e.g. bit rot caught by the checksum).
        let mut chosen: Option<(u64, Snapshot, Codec)> = None;
        let mut first_error: Option<StoreError> = None;
        for &g in snaps.iter().rev() {
            match read_snapshot_file(&snap_path(dir, g)) {
                Ok((snap, snap_codec)) => {
                    chosen = Some((g, snap, snap_codec));
                    break;
                }
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        let Some((generation, snapshot, snapshot_codec)) = chosen else {
            return Err(first_error.expect("at least one candidate failed"));
        };

        // Replay the WAL tail of the chosen generation, in whatever codec
        // its format byte declares. A vanished WAL means a crash
        // mid-checkpoint (or a fallback to a generation whose WAL was
        // already compacted away): its receive caches are gone, and the
        // explicit empty cache checkpoint replayed in its place makes the
        // loss visible rather than silently assumed.
        let wal = wal_path(dir, generation);
        let (records, torn_tail, wal_codec, valid_len) = if wal.is_file() {
            let c = read_wal(&wal)?;
            (c.records, c.torn_tail, c.codec, Some(c.valid_len))
        } else {
            (vec![WalRecord::Caches { recv: RecvCaches::new() }], false, Codec::Binary, None)
        };
        let frames = records.len() as u64;

        let mut instance = snapshot.instance;
        let mut nulls = snapshot.nulls;
        let mut recv_cache = RecvCaches::new();
        let mut counters = ProtocolCounters::default();
        let replayed = records.len() as u64;
        for record in records {
            match record {
                WalRecord::Caches { recv } => recv_cache = recv,
                WalRecord::Counters { counters: c } => counters = c,
                WalRecord::Applied { rule, mut firings } => {
                    apply_arrived(&mut instance, &mut nulls, &mut recv_cache, &rule, &mut firings)
                        .map_err(|e| StoreError::Replay { detail: e.to_string() })?;
                }
                WalRecord::LocalInsert { relation, tuple } => {
                    instance
                        .insert(&relation, tuple)
                        .map_err(|e| StoreError::Replay { detail: e.to_string() })?;
                }
            }
        }

        // The live generation: a legacy store's next one, written whole in
        // binary (the checkpoint path, so the snapshot rename commits it);
        // else this one's WAL, reopened for appending or recreated.
        let tracer = Tracer::disabled();
        let (live, writer) = if snapshot_codec == Codec::Json || wal_codec == Codec::Json {
            let (next, snapshot) = (generation + 1, Snapshot::capture(&instance, &nulls));
            (next, rotate(dir, next, &snapshot, &recv_cache, &counters, &sched, &tracer)?)
        } else if let Some(valid_len) = valid_len {
            (generation, WalWriter::open_append(&wal, valid_len, frames, &sched)?)
        } else {
            let mut w = WalWriter::create(&wal, &sched)?;
            w.append(&WalRecord::Caches { recv: RecvCaches::new() })?;
            w.sync()?;
            sync_dir(dir)?;
            (generation, w)
        };
        let store = Store { dir: dir.to_owned(), generation: live, writer, tracer, trace_id: 0 };
        store.remove_other_generations()?;
        // Each open is a new incarnation: bump the persisted epoch so the
        // recovered node's envelopes outrank its previous life's. A
        // missing/unreadable counter is a loud error — restarting at a
        // stale epoch would leave the node mute at its peers.
        let epoch = read_epoch(dir)? + 1;
        write_epoch(dir, epoch)?;
        Ok((
            store,
            RecoveredState {
                epoch,
                instance,
                nulls,
                recv_cache,
                counters,
                generation,
                wal_records_replayed: replayed,
                torn_tail,
                snapshot_codec,
                wal_codec,
            },
        ))
    }

    /// Attaches a flight-recorder handle: WAL appends, fsyncs and
    /// checkpoint rotations of this store emit trace events from here on.
    /// The store is identified in the trace by its directory name.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.trace_id = tracer.intern(&store_name(self.writer.path()));
        self.writer.scheduler().attach_tracer(tracer.clone());
        self.writer.attach_tracer(tracer.clone());
        self.tracer = tracer.clone();
    }

    /// Appends one record to the WAL (durable once the scheduler's next
    /// fsync of it completes).
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StoreError> {
        self.writer.append(record)
    }

    /// Forces buffered WAL records to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.writer.sync()
    }

    /// Checkpoint: writes the next-generation snapshot of `snapshot`,
    /// rotates to a fresh WAL headed by checkpoints of `recv` and
    /// `counters`, and compacts (deletes) the previous generation. On
    /// return, recovery cost is O(new snapshot) regardless of history
    /// length.
    pub fn checkpoint(
        &mut self,
        snapshot: &Snapshot,
        recv: &RecvCaches,
        counters: &ProtocolCounters,
    ) -> Result<(), StoreError> {
        let next = self.generation + 1;
        let sched = self.writer.scheduler();
        self.writer = rotate(&self.dir, next, snapshot, recv, counters, sched, &self.tracer)?;
        let old = self.generation;
        self.generation = next;
        self.tracer.emit_with(|| TraceEvent::Checkpoint { store: self.trace_id, generation: next });
        let _ = std::fs::remove_file(snap_path(&self.dir, old));
        let _ = std::fs::remove_file(wal_path(&self.dir, old));
        // Deletions are cleanup, not correctness; their dir sync is
        // best-effort (a resurrected old generation is re-swept on open).
        let _ = sync_dir(&self.dir);
        Ok(())
    }

    /// Sweeps files from generations other than the current one: *older*
    /// generations (and stray `.tmp` files from interrupted checkpoints)
    /// are deleted, while files from *newer* generations — a snapshot that
    /// failed validation and was passed over — are quarantined under a
    /// `.corrupt` suffix instead of destroyed, so the evidence survives
    /// for diagnosis. It syncs no directory: the epoch write right after
    /// it in [`Store::open_with`] does, covering the sweep too.
    fn remove_other_generations(&self) -> Result<(), StoreError> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| StoreError::io(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let generation =
                parse_generation(name, ".snap").or_else(|| parse_generation(name, ".wal"));
            if name.ends_with(".tmp") || generation.is_some_and(|g| g < self.generation) {
                let _ = std::fs::remove_file(entry.path());
            } else if generation.is_some_and(|g| g > self.generation) {
                let _ = std::fs::rename(
                    entry.path(),
                    entry.path().with_extension(format!(
                        "{}.corrupt",
                        entry.path().extension().and_then(|e| e.to_str()).unwrap_or("bad")
                    )),
                );
            }
        }
        Ok(())
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current snapshot generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records in the current WAL (cache checkpoint included).
    pub fn wal_records(&self) -> u64 {
        self.writer.frames()
    }

    /// The live WAL file's path (the file a host-crash simulation
    /// truncates to the durable watermark).
    pub fn wal_path(&self) -> &Path {
        self.writer.path()
    }

    /// Records of the live WAL covered by fsync — the *acked durable*
    /// count. Every policy obeys the same ack rule (a record is durable
    /// only once an fsync covering it completed); they differ in how far
    /// this watermark may trail [`Store::wal_records`]. See
    /// `docs/DURABILITY.md` ([`crate::durability`]).
    pub fn durable_wal_records(&self) -> u64 {
        self.writer.durable_frames()
    }

    /// Bytes of the live WAL covered by fsync — what survives a host
    /// crash (always a clean frame boundary).
    pub fn durable_wal_len(&self) -> u64 {
        self.writer.durable_len()
    }

    /// Data fsyncs of the live WAL, whether a drain or a flush did them.
    /// Per-generation: rotation starts a fresh file. Until a WAL rotates
    /// away, the counts of the stores on a shared scheduler sum to its
    /// [`FsyncScheduler::stats`]' `fsyncs`.
    pub fn wal_fsyncs(&self) -> u64 {
        self.writer.fsyncs()
    }

    /// The scheduler this store's WAL is fsynced by: the shared one it
    /// joined under [`SyncPolicy::GroupCommit`], else its private one.
    pub fn scheduler(&self) -> &FsyncScheduler {
        self.writer.scheduler()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;
    use codb_relational::glav::TField;
    use codb_relational::{tup, RelationSchema, RuleFiring, Value, ValueType};

    fn seed() -> (Instance, NullFactory) {
        let mut inst = Instance::new();
        inst.add_relation(RelationSchema::with_types("r", &[ValueType::Int, ValueType::Int]));
        inst.insert("r", tup![1, 10]).unwrap();
        (inst, NullFactory::new(42))
    }

    fn firing(k: i64) -> RuleFiring {
        RuleFiring::new([("r", vec![TField::Const(Value::Int(k)), TField::Fresh(0)])])
    }

    fn apply_live(
        store: &mut Store,
        inst: &mut Instance,
        nulls: &mut NullFactory,
        recv: &mut RecvCaches,
        rule: &str,
        mut firings: Vec<RuleFiring>,
    ) {
        apply_arrived(inst, nulls, recv, rule, &mut firings).unwrap();
        if !firings.is_empty() {
            store.append(&WalRecord::Applied { rule: rule.to_owned(), firings }).unwrap();
        }
    }

    #[test]
    fn create_open_round_trip_with_wal_tail() {
        let dir = ScratchDir::new("store-rt");
        let (mut inst, mut nulls) = seed();
        let mut recv = RecvCaches::new();
        let mut store = Store::create(
            dir.path(),
            &Snapshot::capture(&inst, &nulls),
            &recv,
            &ProtocolCounters::default(),
            SyncPolicy::Always,
            Codec::Binary,
        )
        .unwrap();
        for k in 0..5 {
            apply_live(&mut store, &mut inst, &mut nulls, &mut recv, "e0", vec![firing(k)]);
        }
        store
            .append(&WalRecord::LocalInsert { relation: "r".into(), tuple: tup![99, 100] })
            .unwrap();
        inst.insert("r", tup![99, 100]).unwrap();
        drop(store);

        let (reopened, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!(rec.instance, inst);
        assert_eq!(rec.nulls.invented(), nulls.invented());
        assert_eq!(rec.recv_cache, recv);
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.wal_records_replayed, 8); // caches + counters + 5 applies + 1 local
        assert!(!rec.torn_tail);
        assert_eq!(reopened.generation(), 0);
    }

    /// Replay decides a firing as the live arrival does: a ground one by
    /// the instance — applied where new, and never cached — and one with
    /// a placeholder by its link's receive cache.
    #[test]
    fn replaying_a_ground_applied_record_adds_no_cache_entry() {
        let dir = ScratchDir::new("store-ground");
        let (inst, nulls) = seed();
        let mut store = Store::create(
            dir.path(),
            &Snapshot::capture(&inst, &nulls),
            &RecvCaches::new(),
            &ProtocolCounters::default(),
            SyncPolicy::Always,
            Codec::Binary,
        )
        .unwrap();
        let ground = |k: i64| RuleFiring::new([("r", vec![TField::Const(Value::Int(k)); 2])]);
        let applied = |rule: &str, firings| WalRecord::Applied { rule: rule.into(), firings };
        store.append(&applied("g", vec![ground(2), ground(1)])).unwrap();
        store.append(&applied("e0", vec![ground(3), firing(1)])).unwrap();
        drop(store);

        let (_, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        let r = rec.instance.get("r").unwrap();
        assert!([tup![2, 2], tup![1, 1], tup![3, 3]].iter().all(|t| r.contains(t)));
        assert_eq!(r.len(), 5, "the seed's tuple, three ground ones and one with a null");
        let cached = [firing(1)].into_iter().collect();
        assert_eq!(rec.recv_cache, RecvCaches::from([("e0".to_owned(), cached)]));
    }

    /// A process kill runs no `Drop`, so whatever the scheduler still
    /// buffers never reaches the file: a store lost by `mem::forget`
    /// reopens to exactly the prefix it had acked, with no torn tail.
    #[test]
    fn a_killed_store_reopens_to_exactly_its_durable_prefix() {
        for policy in [
            SyncPolicy::EveryN(4),
            SyncPolicy::Never,
            SyncPolicy::GroupCommit { max_batch: 64, max_records: 3 },
        ] {
            let dir = ScratchDir::new("store-kill");
            let (inst, nulls) = seed();
            let mut store = Store::create(
                dir.path(),
                &Snapshot::capture(&inst, &nulls),
                &RecvCaches::new(),
                &ProtocolCounters::default(),
                policy,
                Codec::Binary,
            )
            .unwrap();
            for k in 0..7 {
                store
                    .append(&WalRecord::LocalInsert { relation: "r".into(), tuple: tup![k, k] })
                    .unwrap();
            }
            let acked = store.durable_wal_records();
            assert!(acked < store.wal_records(), "{policy}: a never-acked tail exists");
            std::mem::forget(store);

            let (_, rec) = Store::open(dir.path(), policy, Codec::Binary).unwrap();
            assert_eq!(rec.wal_records_replayed, acked, "{policy}");
            assert!(!rec.torn_tail, "{policy}");
        }
    }

    #[test]
    fn checkpoint_rotates_and_compacts() {
        let dir = ScratchDir::new("store-ckpt");
        let (mut inst, mut nulls) = seed();
        let mut recv = RecvCaches::new();
        let mut store = Store::create(
            dir.path(),
            &Snapshot::capture(&inst, &nulls),
            &recv,
            &ProtocolCounters::default(),
            SyncPolicy::Always,
            Codec::Binary,
        )
        .unwrap();
        for k in 0..10 {
            apply_live(&mut store, &mut inst, &mut nulls, &mut recv, "e0", vec![firing(k)]);
        }
        store
            .checkpoint(&Snapshot::capture(&inst, &nulls), &recv, &ProtocolCounters::default())
            .unwrap();
        assert_eq!(store.generation(), 1);
        assert_eq!(store.wal_records(), 2, "fresh WAL holds only the cache + counter checkpoints");
        // The old generation is gone.
        let names: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(names.contains(&"codb-0000000001.snap".to_owned()), "{names:?}");
        assert!(!names.iter().any(|n| n.contains("0000000000")), "{names:?}");
        drop(store);

        let (_, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!(rec.instance, inst);
        assert_eq!(rec.recv_cache, recv, "caches survive compaction");
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.wal_records_replayed, 2);
    }

    #[test]
    fn counters_resume_not_restart() {
        // A recovered node must resume its id space: the last Counters
        // record wins, through both WAL replay and snapshot compaction.
        let dir = ScratchDir::new("store-counters");
        let (inst, nulls) = seed();
        let c0 = ProtocolCounters { update_seq: 3, query_seq: 1, req_seq: 9 };
        let mut store = Store::create(
            dir.path(),
            &Snapshot::capture(&inst, &nulls),
            &RecvCaches::new(),
            &c0,
            SyncPolicy::Always,
            Codec::Binary,
        )
        .unwrap();
        // Counter bumps are appended live, like the node does on minting.
        let c1 = ProtocolCounters { update_seq: 4, ..c0 };
        store.append(&WalRecord::Counters { counters: c1 }).unwrap();
        let c2 = ProtocolCounters { update_seq: 5, query_seq: 2, ..c1 };
        store.append(&WalRecord::Counters { counters: c2 }).unwrap();
        drop(store);
        let (mut store, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!(rec.counters, c2, "last counter record wins");
        // Compaction carries the counters into the rotated WAL head.
        store.checkpoint(&Snapshot::capture(&inst, &nulls), &RecvCaches::new(), &c2).unwrap();
        drop(store);
        let (_, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!(rec.counters, c2, "counters survive compaction");
        assert_eq!(rec.wal_records_replayed, 2);
    }

    /// A copy of the committed legacy JSON store (`tests/fixtures`).
    fn legacy_store(name: &str) -> ScratchDir {
        let dir = ScratchDir::new(name);
        let fixture =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden-json");
        for entry in std::fs::read_dir(fixture).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.path().join(entry.file_name())).unwrap();
        }
        dir
    }

    /// Every store file under `dir`, with the codec its magic names.
    fn codecs_on_disk(dir: &Path) -> Vec<(String, Option<Codec>)> {
        let mut files: Vec<(String, Option<Codec>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "snap" || ext == "wal"))
            .map(|path| {
                let header = std::fs::read(&path).unwrap();
                let codec = match path.extension().and_then(|e| e.to_str()) {
                    Some("snap") => Codec::detect_snap(&header),
                    _ => Codec::detect_wal(&header),
                };
                (path.file_name().unwrap().to_string_lossy().into_owned(), codec)
            })
            .collect();
        files.sort_by(|a, b| a.0.cmp(&b.0));
        files
    }

    #[test]
    fn json_store_upgrades_to_binary_on_rotation() {
        // The migration story: a legacy JSON store recovers, and its open
        // rotates it to a binary generation before the first append.
        let dir = legacy_store("store-upgrade");
        let (mut store, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!(
            (rec.snapshot_codec, rec.wal_codec),
            (Codec::Json, Codec::Json),
            "what was read"
        );
        assert_eq!((rec.generation, store.generation()), (0, 1));
        let binary = Some(Codec::Binary);
        let gen1 = |ext: &str| (format!("codb-0000000001.{ext}"), binary);
        assert_eq!(codecs_on_disk(dir.path()), [gen1("snap"), gen1("wal")]);
        let (mut inst, mut nulls, mut recv) = (rec.instance, rec.nulls, rec.recv_cache);
        let erin =
            RuleFiring::new([("emp", vec![TField::Const(Value::str("erin")), TField::Fresh(0)])]);
        apply_live(&mut store, &mut inst, &mut nulls, &mut recv, "e0", vec![erin]);
        drop(store);

        let (_s, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!((rec.snapshot_codec, rec.wal_codec), (Codec::Binary, Codec::Binary));
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.wal_records_replayed, 3, "caches + counters + the binary append");
        assert_eq!(rec.instance, inst, "state survives the codec conversion");
        assert_eq!(rec.nulls.invented(), nulls.invented());
        assert_eq!(rec.recv_cache, recv);
        assert_eq!(rec.epoch, 2);
    }

    /// The conversion is a checkpoint's rotation: a crash before its
    /// snapshot rename reopens the JSON generation (and converts again),
    /// one after it reopens the binary generation.
    #[test]
    fn a_crash_mid_conversion_reopens_one_generation_whole() {
        let clean = legacy_store("store-convert-clean");
        let (_s, want) = Store::open(clean.path(), SyncPolicy::Always, Codec::Binary).unwrap();

        // Before the commit point: an orphan binary WAL of generation 1
        // and a half-written snapshot.
        let before = legacy_store("store-convert-before");
        let sched = FsyncScheduler::for_store(SyncPolicy::Always, None);
        drop(WalWriter::create(&wal_path(before.path(), 1), &sched).unwrap());
        std::fs::write(before.path().join("codb-0000000001.tmp"), b"half-written").unwrap();
        let (store, rec) = Store::open(before.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!((rec.generation, rec.snapshot_codec), (0, Codec::Json));
        assert_eq!(store.generation(), 1);
        assert_eq!(
            (rec.instance, rec.recv_cache),
            (want.instance.clone(), want.recv_cache.clone())
        );
        drop(store);

        // After it: the JSON generation was not deleted yet.
        let after = legacy_store("store-convert-after");
        let (store, _) = Store::open(after.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        drop(store);
        for entry in std::fs::read_dir(legacy_store("store-convert-json").path()).unwrap() {
            let entry = entry.unwrap();
            if entry.file_name() != EPOCH_FILE {
                std::fs::copy(entry.path(), after.path().join(entry.file_name())).unwrap();
            }
        }
        for dir in [before.path(), after.path()] {
            let (_s, rec) = Store::open(dir, SyncPolicy::Always, Codec::Binary).unwrap();
            assert_eq!((rec.generation, rec.snapshot_codec), (1, Codec::Binary));
            assert_eq!(
                (rec.instance, rec.recv_cache),
                (want.instance.clone(), want.recv_cache.clone())
            );
            assert_eq!(rec.counters, want.counters);
            let on_disk = codecs_on_disk(dir);
            assert!(
                on_disk
                    .iter()
                    .all(|(name, codec)| name.contains("0001") && *codec == Some(Codec::Binary)),
                "{on_disk:?}"
            );
        }
    }

    #[test]
    fn a_store_refuses_to_write_json() {
        let dir = ScratchDir::new("store-json-refused");
        let (inst, nulls) = seed();
        let snap = Snapshot::capture(&inst, &nulls);
        let (recv, counters) = (RecvCaches::new(), ProtocolCounters::default());
        let json = Codec::Json;
        assert!(matches!(
            Store::create(dir.path(), &snap, &recv, &counters, SyncPolicy::Always, json),
            Err(StoreError::ReadOnlyCodec(Codec::Json))
        ));
        assert!(!Store::exists(dir.path()), "nothing written");
        drop(Store::create(dir.path(), &snap, &recv, &counters, SyncPolicy::Always, Codec::Binary));
        let err = Store::open(dir.path(), SyncPolicy::Always, json).unwrap_err();
        assert_eq!(err.to_string(), "the json store format is read only: stores write binary");
    }

    #[test]
    fn shared_group_commit_survives_rotation_and_host_crash_truncation() {
        // Two stores share one scheduler. Appends coalesce; a checkpoint
        // rotates one store's WAL (re-registering the fresh file); a
        // simulated host crash — truncating each live WAL to its durable
        // watermark — must recover every acked record on both stores.
        let policy = SyncPolicy::GroupCommit { max_batch: 64, max_records: 4 };
        let sched = FsyncScheduler::for_policy(policy).unwrap();
        let dir_a = ScratchDir::new("store-group-a");
        let dir_b = ScratchDir::new("store-group-b");
        let (inst, nulls) = seed();
        let snap = Snapshot::capture(&inst, &nulls);
        let mk = |dir: &ScratchDir| {
            Store::create_with(
                dir.path(),
                &snap,
                &RecvCaches::new(),
                &ProtocolCounters::default(),
                policy,
                Some(&sched),
            )
            .unwrap()
        };
        let mut a = mk(&dir_a);
        let mut b = mk(&dir_b);
        assert_eq!(a.scheduler().stats().registered, 2, "both stores joined the shared scheduler");

        // Rotate `a`: the fresh WAL joins the same scheduler.
        a.checkpoint(&snap, &RecvCaches::new(), &ProtocolCounters::default()).unwrap();
        assert_eq!(a.generation(), 1);

        let insert = |k: i64| WalRecord::LocalInsert { relation: "r".into(), tuple: tup![k, k] };
        // Three appends: under the 4-record window, none acked yet.
        a.append(&insert(100)).unwrap();
        a.append(&insert(101)).unwrap();
        b.append(&insert(200)).unwrap();
        assert_eq!(a.durable_wal_records(), 2, "rotation checkpoint head only");
        assert_eq!(b.durable_wal_records(), 2, "creation checkpoint head only");
        // Fourth append trips the window: one drain covers both files.
        b.append(&insert(201)).unwrap();
        assert_eq!(a.durable_wal_records(), 4);
        assert_eq!(b.durable_wal_records(), 4);
        // A fifth append stays pending — the record a host crash loses.
        a.append(&insert(102)).unwrap();
        assert_eq!(a.durable_wal_records(), 4);
        let acked_a = a.durable_wal_records();
        let durable_len_a = a.durable_wal_len();
        let (wal_a, wal_b) = (a.wal_path().to_owned(), b.wal_path().to_owned());
        let durable_len_b = b.durable_wal_len();
        drop(a);
        drop(b);

        // Host crash: the unsynced tail vanishes (page cache lost).
        let full_a = std::fs::read(&wal_a).unwrap();
        assert!(durable_len_a < full_a.len() as u64, "a pending tail existed");
        std::fs::write(&wal_a, &full_a[..durable_len_a as usize]).unwrap();
        let full_b = std::fs::read(&wal_b).unwrap();
        assert_eq!(durable_len_b, full_b.len() as u64, "b was fully drained");

        let (_, rec_a) = Store::open(dir_a.path(), policy, Codec::Binary).unwrap();
        assert_eq!(rec_a.wal_records_replayed, acked_a, "every acked record recovered");
        assert!(rec_a.instance.get("r").unwrap().contains(&tup![101, 101]));
        assert!(!rec_a.instance.get("r").unwrap().contains(&tup![102, 102]), "unacked tail lost");
        let (_, rec_b) = Store::open(dir_b.path(), policy, Codec::Binary).unwrap();
        assert!(rec_b.instance.get("r").unwrap().contains(&tup![201, 201]));
    }

    #[test]
    fn every_fsync_names_the_store_its_appends_name() {
        // A trace joins a store's fsyncs to its appends by the store's
        // interned name: under a per-store policy, and under a shared
        // group commit across a checkpoint rotation, every `Fsync` names a
        // store some `WalAppend` names, and no WAL file name is interned.
        let (inst, nulls) = seed();
        let snap = Snapshot::capture(&inst, &nulls);
        let insert = |k: i64| WalRecord::LocalInsert { relation: "r".into(), tuple: tup![k, k] };
        let group = SyncPolicy::GroupCommit { max_batch: 64, max_records: 3 };
        let shared = FsyncScheduler::for_policy(group).unwrap();
        for (policy, shared) in [(SyncPolicy::Always, None), (group, Some(&shared))] {
            let (tracer, ring) = Tracer::ring(usize::MAX);
            let dirs = [ScratchDir::new("store-trace-a"), ScratchDir::new("store-trace-b")];
            let mut stores: Vec<Store> = dirs
                .iter()
                .map(|dir| {
                    let mut store = Store::create_with(
                        dir.path(),
                        &snap,
                        &RecvCaches::new(),
                        &ProtocolCounters::default(),
                        policy,
                        shared,
                    )
                    .unwrap();
                    store.attach_tracer(&tracer);
                    store
                })
                .collect();
            for k in 0..4 {
                for store in &mut stores {
                    store.append(&insert(k)).unwrap();
                }
            }
            stores[0].checkpoint(&snap, &RecvCaches::new(), &ProtocolCounters::default()).unwrap();
            for store in &mut stores {
                store.append(&insert(9)).unwrap();
                store.sync().unwrap();
            }
            drop(stores);

            let mut names = std::collections::BTreeMap::new();
            let (mut appended, mut fsynced) = (Vec::new(), Vec::new());
            for (_, event) in ring.lock().unwrap().events() {
                match event {
                    TraceEvent::Intern { id, text } => {
                        names.insert(id, text);
                    }
                    TraceEvent::WalAppend { store, .. } => appended.push(store),
                    TraceEvent::Fsync { store, .. } => fsynced.push(store),
                    _ => {}
                }
            }
            let appended: Vec<&String> = appended.iter().map(|id| &names[id]).collect();
            assert!(!fsynced.is_empty(), "{policy}");
            for id in fsynced {
                let name = names.get(&id);
                assert!(name.is_some_and(|n| appended.contains(&n)), "{policy}: fsync of {name:?}");
            }
            assert!(names.values().all(|text| !text.ends_with(".wal")), "{policy}: {names:?}");
        }
    }

    #[test]
    fn create_refuses_to_clobber() {
        let dir = ScratchDir::new("store-clobber");
        let (inst, nulls) = seed();
        let snap = Snapshot::capture(&inst, &nulls);
        let recv = RecvCaches::new();
        let _s = Store::create(
            dir.path(),
            &snap,
            &recv,
            &ProtocolCounters::default(),
            SyncPolicy::Always,
            Codec::Binary,
        )
        .unwrap();
        assert!(matches!(
            Store::create(
                dir.path(),
                &snap,
                &recv,
                &ProtocolCounters::default(),
                SyncPolicy::Always,
                Codec::Binary
            ),
            Err(StoreError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn open_empty_dir_is_no_state() {
        let dir = ScratchDir::new("store-empty");
        assert!(!Store::exists(dir.path()));
        assert!(matches!(
            Store::open(dir.path(), SyncPolicy::Always, Codec::Binary),
            Err(StoreError::NoState { .. })
        ));
    }

    #[test]
    fn torn_wal_tail_recovers_cleanly() {
        let dir = ScratchDir::new("store-torn");
        let (mut inst, mut nulls) = seed();
        let mut recv = RecvCaches::new();
        let mut store = Store::create(
            dir.path(),
            &Snapshot::capture(&inst, &nulls),
            &recv,
            &ProtocolCounters::default(),
            SyncPolicy::Always,
            Codec::Binary,
        )
        .unwrap();
        apply_live(&mut store, &mut inst, &mut nulls, &mut recv, "e0", vec![firing(1)]);
        apply_live(&mut store, &mut inst, &mut nulls, &mut recv, "e0", vec![firing(2)]);
        drop(store);
        // Chop the final frame mid-payload.
        let wal = wal_path(dir.path(), 0);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 4]).unwrap();

        let (store, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.wal_records_replayed, 3); // caches + counters + first apply
        assert_eq!(rec.instance.tuple_count(), 2); // seed + firing(1)
                                                   // The truncated log accepts appends again.
        drop(store);
        let (_, rec2) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert!(!rec2.torn_tail, "truncation removed the torn frame");
    }

    #[test]
    fn corrupt_snapshot_falls_back_or_errors() {
        let dir = ScratchDir::new("store-snapflip");
        let (inst, nulls) = seed();
        let mut store = Store::create(
            dir.path(),
            &Snapshot::capture(&inst, &nulls),
            &RecvCaches::new(),
            &ProtocolCounters::default(),
            SyncPolicy::Always,
            Codec::Binary,
        )
        .unwrap();
        store
            .checkpoint(
                &Snapshot::capture(&inst, &nulls),
                &RecvCaches::new(),
                &ProtocolCounters::default(),
            )
            .unwrap();
        drop(store);
        // Flip a byte inside the only snapshot: open must fail loudly.
        let snap = snap_path(dir.path(), 1);
        let mut bytes = std::fs::read(&snap).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(&snap, &bytes).unwrap();
        assert!(matches!(
            Store::open(dir.path(), SyncPolicy::Always, Codec::Binary),
            Err(StoreError::CorruptFrame { .. })
        ));
    }

    #[test]
    fn version_mismatch_is_typed_not_silent() {
        let dir = ScratchDir::new("store-version");
        let (inst, nulls) = seed();
        let mut snap = Snapshot::capture(&inst, &nulls);
        snap.version = 999;
        // Write the bad snapshot through the file layer directly (the
        // normal API can't produce one).
        std::fs::create_dir_all(dir.path()).unwrap();
        write_snapshot_file(&snap_path(dir.path(), 0), &snap).unwrap();
        WalWriter::create(
            &wal_path(dir.path(), 0),
            &FsyncScheduler::for_store(SyncPolicy::Always, None),
        )
        .unwrap();
        match Store::open(dir.path(), SyncPolicy::Always, Codec::Binary) {
            Err(StoreError::Snapshot(SnapshotError::VersionMismatch { found, .. })) => {
                assert_eq!(found, 999);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn lost_epoch_counter_is_a_loud_error() {
        // Rejoining with a stale epoch would leave the node mute at its
        // peers (every envelope dropped as from a dead incarnation), so a
        // missing or garbled codb.epoch must fail the open loudly.
        let dir = ScratchDir::new("store-epochloss");
        let (inst, nulls) = seed();
        let store = Store::create(
            dir.path(),
            &Snapshot::capture(&inst, &nulls),
            &RecvCaches::new(),
            &ProtocolCounters::default(),
            SyncPolicy::Always,
            Codec::Binary,
        )
        .unwrap();
        drop(store);
        std::fs::remove_file(dir.path().join("codb.epoch")).unwrap();
        assert!(matches!(
            Store::open(dir.path(), SyncPolicy::Always, Codec::Binary),
            Err(StoreError::Epoch { .. })
        ));
        std::fs::write(dir.path().join("codb.epoch"), "not-a-number").unwrap();
        assert!(matches!(
            Store::open(dir.path(), SyncPolicy::Always, Codec::Binary),
            Err(StoreError::Epoch { .. })
        ));
    }

    #[test]
    fn corrupt_newer_generation_falls_back_and_is_quarantined() {
        let dir = ScratchDir::new("store-fallback");
        let (inst, nulls) = seed();
        let store = Store::create(
            dir.path(),
            &Snapshot::capture(&inst, &nulls),
            &RecvCaches::new(),
            &ProtocolCounters::default(),
            SyncPolicy::Always,
            Codec::Binary,
        )
        .unwrap();
        drop(store);
        // Hand-craft a damaged generation-1 snapshot (magic + garbage
        // frame) plus its WAL, as bit rot after a checkpoint would leave.
        let bad_snap = snap_path(dir.path(), 1);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&Codec::Binary.snap_magic());
        bytes.extend_from_slice(&[9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 3]);
        std::fs::write(&bad_snap, bytes).unwrap();
        WalWriter::create(
            &wal_path(dir.path(), 1),
            &FsyncScheduler::for_store(SyncPolicy::Always, None),
        )
        .unwrap();

        let (store, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!(rec.generation, 0, "fell back to the older valid generation");
        assert_eq!(rec.instance, inst);
        // The damaged newer generation is quarantined, not destroyed.
        assert!(!bad_snap.exists());
        assert!(dir.path().join("codb-0000000001.snap.corrupt").exists());
        assert!(dir.path().join("codb-0000000001.wal.corrupt").exists());
        drop(store);
    }

    #[test]
    fn interrupted_checkpoint_leaves_previous_generation_usable() {
        let dir = ScratchDir::new("store-interrupted");
        let (mut inst, mut nulls) = seed();
        let mut recv = RecvCaches::new();
        let mut store = Store::create(
            dir.path(),
            &Snapshot::capture(&inst, &nulls),
            &recv,
            &ProtocolCounters::default(),
            SyncPolicy::Always,
            Codec::Binary,
        )
        .unwrap();
        apply_live(&mut store, &mut inst, &mut nulls, &mut recv, "e0", vec![firing(5)]);
        drop(store);
        // Simulate a crash between WAL creation and the snapshot rename:
        // an orphan next-generation WAL plus a snapshot .tmp file.
        WalWriter::create(
            &wal_path(dir.path(), 1),
            &FsyncScheduler::for_store(SyncPolicy::Always, None),
        )
        .unwrap();
        std::fs::write(dir.path().join("codb-0000000001.tmp"), b"half-written").unwrap();

        let (store, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!(rec.generation, 0, "commit point not reached → previous generation");
        assert_eq!(rec.instance, inst);
        // Orphans are swept.
        assert!(!wal_path(dir.path(), 1).exists());
        assert!(!dir.path().join("codb-0000000001.tmp").exists());
        drop(store);
    }
}
