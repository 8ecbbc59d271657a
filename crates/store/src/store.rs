//! The store: a directory of generation-numbered snapshot + WAL pairs,
//! with checkpoint-time rotation/compaction and crash recovery.
//!
//! See the crate docs for the on-disk format and the compaction rules.

use crate::codec::{self, Codec, Head, MAGIC_LEN};
use crate::group::FsyncScheduler;
use crate::wal::{
    apply_arrived, scan_wal, store_name, FrameFault, LinkMark, LinkMarks, ProtocolCounters,
    RecvCaches, Span, SyncPolicy, WalRecord, WalWriter,
};
use codb_relational::binenc::Reader;
use codb_relational::frame::{crc32, encode_frame, FrameScanner, FrameStep};
use codb_relational::{Instance, NullFactory, SchemaError, Snapshot, SnapshotError, Tuple};
use codb_trace::{TraceEvent, Tracer};
use std::fmt;
use std::io::{Seek as _, SeekFrom, Write as _};
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

/// Bytes of each of the epoch file's two slots: an epoch (`u64` LE), then
/// the CRC-32 of those eight bytes (`u32` LE).
const EPOCH_SLOT: usize = 12;

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
    /// The mark of each link into the node, as recovered and as moved
    /// since: what the next rotation's head carries.
    marks: LinkMarks,
    /// This incarnation's epoch (see [`RecoveredState::epoch`]).
    epoch: u64,
    /// The slot of `codb.epoch` written last: the next write goes to the
    /// other one.
    epoch_slot: usize,
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

/// One slot of the epoch file, holding `epoch`.
fn epoch_slot(epoch: u64) -> [u8; EPOCH_SLOT] {
    let bytes = epoch.to_le_bytes();
    let mut slot = [0; EPOCH_SLOT];
    slot[..8].copy_from_slice(&bytes);
    slot[8..].copy_from_slice(&crc32(&bytes).to_le_bytes());
    slot
}

/// Writes `epoch` as the store's incarnation and returns the slot that
/// now holds it. Over a slot file — `newest` is the slot holding the epoch
/// being replaced — it overwrites the *other* slot in place and syncs the
/// file's data (one `fdatasync`): no temp file, rename or directory sync.
/// The slot holding the newest epoch is never written, so a write a crash
/// tears fails its checksum and the file reads as the epoch before, under
/// which nothing was sent (the open had not returned). Where there is no
/// slot file yet (`newest` is `None`: a store being created, or a legacy
/// text file), the file is written whole, `epoch` in both slots, as a
/// snapshot is: to a temp file fsynced before it is renamed over the name,
/// then the directory.
fn write_epoch(dir: &Path, epoch: u64, newest: Option<usize>) -> Result<usize, StoreError> {
    let path = dir.join(EPOCH_FILE);
    if let Some(newest) = newest {
        let slot = 1 - newest;
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| StoreError::io(&path, e))?;
        let io = |e| StoreError::io(&path, e);
        file.seek(SeekFrom::Start((slot * EPOCH_SLOT) as u64)).map_err(io)?;
        file.write_all(&epoch_slot(epoch)).map_err(io)?;
        file.sync_data().map_err(io)?;
        return Ok(slot);
    }
    let tmp = dir.join("codb.epoch.tmp");
    {
        let mut file = std::fs::File::create(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
        file.write_all(&[epoch_slot(epoch); 2].concat()).map_err(|e| StoreError::io(&tmp, e))?;
        file.sync_all().map_err(|e| StoreError::io(&tmp, e))?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| StoreError::io(&path, e))?;
    sync_dir(dir)?;
    Ok(0)
}

/// Reads the incarnation counter: the newest epoch whose slot's checksum
/// holds, and that slot; from a legacy text file, its number and no slot.
/// A file with no valid slot, or legacy text that is no number, is a loud
/// [`StoreError::Epoch`].
fn read_epoch(dir: &Path) -> Result<(u64, Option<usize>), StoreError> {
    let fail = |detail| StoreError::Epoch { dir: dir.to_owned(), detail };
    let bytes =
        std::fs::read(dir.join(EPOCH_FILE)).map_err(|e| fail(format!("unreadable: {e}")))?;
    if bytes.len() != 2 * EPOCH_SLOT {
        let text = String::from_utf8_lossy(&bytes);
        let epoch = text.trim().parse().map_err(|e| fail(format!("unparseable {text:?}: {e}")))?;
        return Ok((epoch, None));
    }
    let valid = |slot: usize| {
        let (epoch, crc) = bytes[slot * EPOCH_SLOT..][..EPOCH_SLOT].split_at(8);
        let ok = crc32(epoch).to_le_bytes() == crc;
        ok.then(|| (u64::from_le_bytes(epoch.try_into().expect("eight bytes")), slot))
    };
    match (valid(0), valid(1)) {
        (Some(a), Some(b)) => Ok(if b.0 > a.0 { b } else { a }),
        (Some(at), None) | (None, Some(at)) => Ok(at),
        (None, None) => Err(fail("both slots fail their checksums".into())),
    }
    .map(|(epoch, slot)| (epoch, Some(slot)))
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

/// Creates the WAL at `path` headed by checkpoints of `recv` with
/// `marks`, and of `counters`, synced, its appends traced to `tracer`.
fn start_wal(
    path: &Path,
    recv: &RecvCaches,
    marks: &LinkMarks,
    counters: &ProtocolCounters,
    sched: &FsyncScheduler,
    tracer: &Tracer,
) -> Result<WalWriter, StoreError> {
    let mut writer = WalWriter::create(path, sched)?;
    if tracer.is_enabled() {
        writer.attach_tracer(tracer.clone());
    }
    writer.append(&WalRecord::Caches { recv: recv.clone(), marks: marks.clone() })?;
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
#[allow(clippy::too_many_arguments)]
fn rotate(
    dir: &Path,
    next: u64,
    snapshot: &Snapshot,
    recv: &RecvCaches,
    marks: &LinkMarks,
    counters: &ProtocolCounters,
    sched: &FsyncScheduler,
    tracer: &Tracer,
) -> Result<WalWriter, StoreError> {
    let writer = start_wal(&wal_path(dir, next), recv, marks, counters, sched, tracer)?;
    sync_dir(dir)?;
    write_snapshot_file(&snap_path(dir, next), snapshot)?;
    Ok(writer)
}

/// What a store's replay rebuilds on top of its snapshot, one WAL record
/// at a time.
struct Replay {
    instance: Instance,
    nulls: NullFactory,
    recv: RecvCaches,
    marks: LinkMarks,
    counters: ProtocolCounters,
    /// A ground batch's tuples, as read from its record: scratch, reused.
    tuples: Vec<Tuple>,
}

impl Replay {
    fn new(instance: Instance, nulls: NullFactory) -> Self {
        Replay {
            instance,
            nulls,
            recv: RecvCaches::new(),
            marks: LinkMarks::new(),
            counters: ProtocolCounters::default(),
            tuples: Vec::new(),
        }
    }

    /// Replays one frame's payload, written in `codec`. A binary `Applied`
    /// record whose firings are each one ground atom of one relation is
    /// filed straight from its bytes, tuple by tuple, with no firing built:
    /// a tuple the relation holds already is skipped, as [`apply_arrived`]
    /// skips its firing — a ground firing never enters a receive cache, so
    /// the relation is all it changes. Every other record decodes whole and
    /// replays through [`Replay::record`].
    fn frame(&mut self, payload: &[u8], codec: Codec) -> Result<(), FrameFault> {
        if codec == Codec::Binary {
            let mut r = Reader::new(payload);
            match codec::take_head(&mut r)? {
                Head::Applied { rule, mark } => {
                    if let Some(relation) = codec::take_ground_batch(&mut r, &mut self.tuples)? {
                        r.expect_end()?;
                        self.file(&relation).map_err(replay_error)?;
                        self.mark(rule, mark);
                        return Ok(());
                    }
                }
                Head::Whole(record) => {
                    r.expect_end()?;
                    return Ok(self.record(record)?);
                }
            }
        }
        Ok(self.record(codec::decode_record(payload, codec).map_err(FrameFault::Corrupt)?)?)
    }

    /// Files the ground batch [`codec::take_ground_batch`] read into
    /// `relation`.
    fn file(&mut self, relation: &str) -> Result<(), SchemaError> {
        let target = self
            .instance
            .get_mut(relation)
            .ok_or_else(|| SchemaError::UnknownRelation { relation: relation.to_owned() })?;
        for tuple in self.tuples.drain(..) {
            target.insert(tuple)?;
        }
        Ok(())
    }

    /// Replays one decoded record.
    fn record(&mut self, record: WalRecord) -> Result<(), StoreError> {
        match record {
            WalRecord::Caches { recv, marks } => (self.recv, self.marks) = (recv, marks),
            WalRecord::Counters { counters } => self.counters = counters,
            WalRecord::Applied { rule, mut firings, mark } => {
                let (instance, nulls, recv) = (&mut self.instance, &mut self.nulls, &mut self.recv);
                apply_arrived(instance, nulls, recv, &rule, &mut firings).map_err(replay_error)?;
                self.mark(rule, mark);
            }
            WalRecord::LocalInsert { relation, tuple } => {
                self.instance.insert(&relation, tuple).map_err(replay_error)?;
            }
        }
        Ok(())
    }

    /// Keeps the mark an `Applied` record of link `rule` carries.
    fn mark(&mut self, rule: String, mark: Option<LinkMark>) {
        if let Some(mark) = mark {
            self.marks.insert(rule, mark);
        }
    }
}

/// A record that decoded and failed to apply: schema drift between the
/// store and the configuration it is opened under.
fn replay_error(e: SchemaError) -> StoreError {
    StoreError::Replay { detail: e.to_string() }
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
        let marks = LinkMarks::new();
        let writer =
            start_wal(&wal_path(dir, 0), recv, &marks, counters, &sched, &Tracer::disabled())?;
        // Epoch before the snapshot: the snapshot rename is the commit
        // point of creation (`exists` keys on it), so a committed store
        // always has its incarnation counter.
        let epoch_slot = write_epoch(dir, 0, None)?;
        write_snapshot_file(&snap_path(dir, 0), snapshot)?;
        Ok(Store {
            dir: dir.to_owned(),
            generation: 0,
            writer,
            tracer: Tracer::disabled(),
            trace_id: 0,
            marks,
            epoch: 0,
            epoch_slot,
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

        // Replay the WAL tail of the chosen generation, frame by frame, in
        // whatever codec its format byte declares. A vanished WAL means a
        // crash mid-checkpoint (or a fallback to a generation whose WAL was
        // already compacted away): its receive caches are gone, and the
        // explicit empty cache checkpoint replayed in its place makes the
        // loss visible rather than silently assumed.
        let wal = wal_path(dir, generation);
        let mut replay = Replay::new(snapshot.instance, snapshot.nulls);
        let scan = if wal.is_file() {
            Some(scan_wal(&wal, |payload, codec| replay.frame(payload, codec))?)
        } else {
            replay
                .record(WalRecord::Caches { recv: RecvCaches::new(), marks: LinkMarks::new() })?;
            None
        };
        let wal_codec = scan.map_or(Codec::Binary, |scan| scan.codec);
        let Replay { instance, nulls, recv: recv_cache, marks, counters, .. } = replay;

        // The live generation: a legacy store's next one, written whole in
        // binary (the checkpoint path, so the snapshot rename commits it);
        // else this one's WAL, reopened for appending or recreated.
        let tracer = Tracer::disabled();
        let (live, writer) = if snapshot_codec == Codec::Json || wal_codec == Codec::Json {
            let (next, snapshot) = (generation + 1, Snapshot::capture(&instance, &nulls));
            (next, rotate(dir, next, &snapshot, &recv_cache, &marks, &counters, &sched, &tracer)?)
        } else if let Some(scan) = scan {
            (generation, WalWriter::open_append(&wal, scan.valid_len, scan.frames, &sched)?)
        } else {
            let mut w = WalWriter::create(&wal, &sched)?;
            w.append(&WalRecord::Caches { recv: RecvCaches::new(), marks: LinkMarks::new() })?;
            w.sync()?;
            sync_dir(dir)?;
            (generation, w)
        };
        // Each open is a new incarnation: bump the persisted epoch so the
        // recovered node's envelopes outrank its previous life's. A
        // missing/unreadable counter is a loud error — restarting at a
        // stale epoch would leave the node mute at its peers.
        let (last, newest) = read_epoch(dir)?;
        let epoch = last + 1;
        let mut store = Store {
            dir: dir.to_owned(),
            generation: live,
            writer,
            tracer,
            trace_id: 0,
            marks,
            epoch,
            epoch_slot: 0,
        };
        store.remove_other_generations()?;
        store.epoch_slot = write_epoch(dir, epoch, newest)?;
        Ok((
            store,
            RecoveredState {
                epoch,
                instance,
                nulls,
                recv_cache,
                counters,
                generation,
                wal_records_replayed: scan.map_or(1, |scan| scan.frames),
                torn_tail: scan.is_some_and(|scan| scan.torn_tail),
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

    /// Moves link `rule`'s mark by a batch covering `span`, where the
    /// batch joins on to it ([`Span::extend`]), and returns the mark it
    /// moved to: what the batch's [`WalRecord::Applied`] carries. A batch
    /// that added nothing appends no record: the next record of the link,
    /// or the next rotation's head, carries the move; until then a
    /// recovery finds the link's last logged mark.
    pub fn advance_mark(&mut self, rule: &str, span: Span) -> Option<LinkMark> {
        let moved = span.extend(self.marks.get(rule).copied())?;
        self.marks.insert(rule.to_owned(), moved);
        Some(moved)
    }

    /// The mark of each link into the node. Right after [`Store::open`],
    /// the ones recovery found: the last each link's logged batches or
    /// the head carried.
    pub fn marks(&self) -> &LinkMarks {
        &self.marks
    }

    /// Counts one incarnation more than this open made: the next open is
    /// two past this one. A node does this when its logs lose their
    /// continuity — a rules file, a restore — so that no peer's mark made
    /// against the logs so far reads, after its restart, as one from the
    /// incarnation just before (`docs/DURABILITY.md`, "Link marks").
    pub fn skip_incarnation(&mut self) -> Result<(), StoreError> {
        self.epoch_slot = write_epoch(&self.dir, self.epoch + 1, Some(self.epoch_slot))?;
        Ok(())
    }

    /// Forgets every mark: the node's instance no longer holds what they
    /// say it was sent (a rules file or a restore replaced what it read
    /// them against). The next rotation's head carries none.
    pub fn forget_marks(&mut self) {
        self.marks.clear();
    }

    /// Forces buffered WAL records to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.writer.sync()
    }

    /// Checkpoint: writes the next-generation snapshot of `snapshot`,
    /// rotates to a fresh WAL headed by checkpoints of `recv` with the
    /// store's link marks, and of `counters`, and compacts (deletes) the
    /// previous generation. On
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
        let (marks, tracer) = (&self.marks, &self.tracer);
        self.writer = rotate(&self.dir, next, snapshot, recv, marks, counters, sched, tracer)?;
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
    /// generations, stray `.tmp` files and the WAL of a newer generation
    /// whose snapshot never committed (a checkpoint interrupted between
    /// its two writes) are crash debris and deleted, while a newer
    /// generation whose snapshot *is* there — it failed validation and
    /// was passed over — is quarantined, snapshot and WAL, under a
    /// `.corrupt` suffix instead of destroyed, so the evidence survives
    /// for diagnosis. Where it deleted or renamed a file it syncs the
    /// directory, so the sweep is durable before the node acts on it; a
    /// sweep that found nothing syncs nothing.
    fn remove_other_generations(&self) -> Result<(), StoreError> {
        let mut swept = false;
        let snaps = list_generations(&self.dir, ".snap")?;
        let entries = std::fs::read_dir(&self.dir).map_err(|e| StoreError::io(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let generation =
                parse_generation(name, ".snap").or_else(|| parse_generation(name, ".wal"));
            let debris = |g: u64| g < self.generation || g > self.generation && !snaps.contains(&g);
            if name.ends_with(".tmp") || generation.is_some_and(debris) {
                swept |= std::fs::remove_file(entry.path()).is_ok();
            } else if generation.is_some_and(|g| g > self.generation) {
                let quarantined = entry.path().with_extension(format!(
                    "{}.corrupt",
                    entry.path().extension().and_then(|e| e.to_str()).unwrap_or("bad")
                ));
                swept |= std::fs::rename(entry.path(), quarantined).is_ok();
            }
        }
        if swept {
            sync_dir(&self.dir)?;
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
            store
                .append(&WalRecord::Applied { rule: rule.to_owned(), firings, mark: None })
                .unwrap();
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
        let applied =
            |rule: &str, firings| WalRecord::Applied { rule: rule.into(), firings, mark: None };
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
        // A slot file whose two slots both fail their checksums.
        let mut garbled = [epoch_slot(4), epoch_slot(5)].concat();
        garbled[9] ^= 1;
        garbled[EPOCH_SLOT + 3] ^= 0x10;
        std::fs::write(dir.path().join("codb.epoch"), garbled).unwrap();
        match Store::open(dir.path(), SyncPolicy::Always, Codec::Binary) {
            Err(StoreError::Epoch { detail, .. }) => {
                assert!(detail.contains("both slots"), "{detail}")
            }
            other => panic!("expected an epoch error, got {other:?}"),
        }
    }

    /// The epoch file as its two slots' epochs, `None` where a slot fails
    /// its checksum.
    fn epoch_slots(dir: &Path) -> [Option<u64>; 2] {
        let bytes = std::fs::read(dir.join(EPOCH_FILE)).unwrap();
        assert_eq!(bytes.len(), 2 * EPOCH_SLOT, "slot form");
        [0, 1].map(|slot| {
            let (epoch, crc) = bytes[slot * EPOCH_SLOT..][..EPOCH_SLOT].split_at(8);
            let epoch = u64::from_le_bytes(epoch.try_into().unwrap());
            (crc32(&epoch.to_le_bytes()).to_le_bytes() == crc).then_some(epoch)
        })
    }

    /// An open writes its epoch over the older slot; a newer slot torn
    /// by a crash reads as the older slot's epoch, and the next open bumps
    /// past that, into the torn slot.
    #[test]
    fn a_torn_newer_epoch_slot_opens_at_the_older_one() {
        let dir = ScratchDir::new("store-epoch-torn");
        let (inst, nulls) = seed();
        let snap = Snapshot::capture(&inst, &nulls);
        let (recv, counters) = (RecvCaches::new(), ProtocolCounters::default());
        drop(Store::create(dir.path(), &snap, &recv, &counters, SyncPolicy::Always, Codec::Binary));
        assert_eq!(epoch_slots(dir.path()), [Some(0), Some(0)], "created whole");
        let reopen = || Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap().1.epoch;
        assert_eq!(reopen(), 1);
        assert_eq!(epoch_slots(dir.path()), [Some(0), Some(1)]);
        assert_eq!(reopen(), 2);
        assert_eq!(epoch_slots(dir.path()), [Some(2), Some(1)], "over the older slot");

        let path = dir.path().join(EPOCH_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(epoch_slots(dir.path()), [None, Some(1)]);
        assert_eq!(reopen(), 2, "the torn slot's epoch is counted again");
        assert_eq!(epoch_slots(dir.path()), [Some(2), Some(1)], "into the torn slot");
        assert_eq!(reopen(), 3);
    }

    /// A legacy text `codb.epoch` opens at its number plus one and is
    /// rewritten whole in slot form; from then on the slots count on.
    #[test]
    fn a_legacy_text_epoch_opens_one_past_and_is_rewritten_in_slots() {
        let dir = legacy_store("store-epoch-legacy");
        let legacy = std::fs::read_to_string(dir.path().join(EPOCH_FILE)).unwrap();
        let was: u64 = legacy.trim().parse().unwrap();
        let (store, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!(rec.epoch, was + 1);
        assert_eq!(epoch_slots(dir.path()), [Some(was + 1); 2]);
        assert!(!dir.path().join("codb.epoch.tmp").exists());
        drop(store);
        let (_, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!(rec.epoch, was + 2);
        assert_eq!(epoch_slots(dir.path()), [Some(was + 1), Some(was + 2)]);
    }

    /// Replay files a ground batch of one relation straight from its
    /// bytes and every other record through `apply_arrived`, and ends
    /// where replaying the WAL's decoded records one by one through
    /// `apply_arrived` does: the same instance, each relation's log in
    /// the same order under the same hashes, the same null factory,
    /// receive caches, marks and counters.
    #[test]
    fn replay_files_ground_batches_as_decoded_records_replay() {
        let dir = ScratchDir::new("store-replay-eq");
        let (mut inst, nulls) = seed();
        inst.add_relation(RelationSchema::with_types("s", &[ValueType::Int]));
        inst.insert("s", tup![0]).unwrap();
        let snap = Snapshot::capture(&inst, &nulls);
        let (recv, counters) = (RecvCaches::new(), ProtocolCounters::default());
        let mut store =
            Store::create(dir.path(), &snap, &recv, &counters, SyncPolicy::Never, Codec::Binary)
                .unwrap();
        let r = |k: i64| RuleFiring::new([("r", vec![TField::Const(Value::Int(k)); 2])]);
        let s = |k: i64| RuleFiring::new([("s", vec![TField::Const(Value::Int(k))])]);
        let both = |k: i64| {
            RuleFiring::new([
                ("r", vec![TField::Const(Value::Int(k)); 2]),
                ("s", vec![TField::Const(Value::Int(k))]),
            ])
        };
        let mark = |position| Some(LinkMark { epoch: 0, position });
        let applied = |rule: &str, firings: Vec<RuleFiring>, mark| WalRecord::Applied {
            rule: rule.into(),
            firings,
            mark,
        };
        let records = [
            // Ground batches of one relation, one holding a tuple the
            // snapshot has and one tuple twice.
            applied("g", vec![r(3), r(1), r(2)], mark(3)),
            applied("g", vec![r(2), r(4), r(4), r(5)], None),
            applied("h", vec![s(1), s(0)], mark(2)),
            // Templates, and ground firings before and after one.
            applied("e0", vec![firing(1), firing(2)], mark(2)),
            applied("e0", vec![r(6), firing(1), r(7), firing(3)], mark(4)),
            // Ground, but of two relations, or of two atoms.
            applied("g", vec![r(8), s(8)], mark(5)),
            applied("g", vec![both(9), r(9)], None),
            applied("g", vec![], mark(6)),
            WalRecord::LocalInsert { relation: "s".into(), tuple: tup![10] },
            WalRecord::Counters { counters: ProtocolCounters { update_seq: 2, ..counters } },
            applied("g", vec![r(11), r(10), r(12)], mark(9)),
        ];
        for record in &records {
            store.append(record).unwrap();
        }
        store.sync().unwrap();
        let wal = store.wal_path().to_owned();
        drop(store);

        // The oracle: each decoded record replayed through apply_arrived.
        let (mut inst, mut nulls) = (snap.instance.clone(), snap.nulls.clone());
        let (mut recv, mut marks, mut counters) =
            (RecvCaches::new(), LinkMarks::new(), ProtocolCounters::default());
        let decoded = crate::wal::read_wal(&wal).unwrap().records;
        assert_eq!(&decoded[2..], &records[..], "caches + counters, then what was appended");
        for record in decoded {
            match record {
                WalRecord::Caches { recv: c, marks: m } => (recv, marks) = (c, m),
                WalRecord::Counters { counters: c } => counters = c,
                WalRecord::Applied { rule, mut firings, mark } => {
                    apply_arrived(&mut inst, &mut nulls, &mut recv, &rule, &mut firings).unwrap();
                    if let Some(mark) = mark {
                        marks.insert(rule, mark);
                    }
                }
                WalRecord::LocalInsert { relation, tuple } => {
                    inst.insert(&relation, tuple).unwrap();
                }
            }
        }

        let (store, rec) = Store::open(dir.path(), SyncPolicy::Never, Codec::Binary).unwrap();
        assert_eq!(rec.wal_records_replayed, 2 + records.len() as u64);
        assert_eq!(rec.instance, inst);
        for relation in inst.relations() {
            let replayed = rec.instance.get(relation.name()).unwrap();
            assert_eq!(replayed.filed(), relation.filed(), "{}: the log's order", relation.name());
        }
        let factory = |nulls: &NullFactory| (nulls.origin(), nulls.invented());
        assert_eq!(factory(&rec.nulls), factory(&nulls));
        assert!(nulls.invented() > 0, "templates were instantiated");
        assert_eq!(rec.recv_cache, recv);
        assert_eq!(store.marks(), &marks);
        assert_eq!(rec.counters, counters);
        assert_eq!(marks.get("g"), Some(&LinkMark { epoch: 0, position: 9 }));
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

    /// A link's mark survives what the store survives: replayed from the
    /// `Applied` records (a batch that overtook the one before it moves no
    /// mark, so no record's mark covers a batch logged after it), carried
    /// by the rotated WAL's head, and after a kill only as far as the
    /// durable records reach.
    #[test]
    fn link_marks_survive_replay_and_rotation() {
        let dir = ScratchDir::new("store-marks");
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
        let at = |epoch, position| LinkMark { epoch, position };
        let span = |from, to| Span { epoch: 0, from, to, anchored: false };
        // The second batch arrives before the first: it moves nothing; the
        // first, arriving late, moves the mark to its own end only, and the
        // third, which joins on to the second, moves nothing either.
        for (k, covers) in [(5, span(6, 9)), (6, span(0, 6)), (7, span(9, 12))] {
            let mut firings = vec![firing(k)];
            apply_arrived(&mut inst, &mut nulls, &mut recv, "e0", &mut firings).unwrap();
            let mark = store.advance_mark("e0", covers);
            store.append(&WalRecord::Applied { rule: "e0".into(), firings, mark }).unwrap();
        }
        assert_eq!(store.marks(), &LinkMarks::from([("e0".into(), at(0, 6))]));
        // A batch that added nothing moves its mark without a record.
        let moved = store.advance_mark("e1", Span { epoch: 3, ..span(0, 2) });
        assert_eq!(moved, Some(at(3, 2)));
        let live = LinkMarks::from([("e0".into(), at(0, 6)), ("e1".into(), at(3, 2))]);
        assert_eq!(store.marks(), &live);
        drop(store);

        let (mut store, _) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        let logged = LinkMarks::from([("e0".into(), at(0, 6))]);
        assert_eq!(store.marks(), &logged, "a mark no record carried is gone");
        store.advance_mark("e1", Span { epoch: 3, ..span(0, 2) });
        store.checkpoint(&Snapshot::capture(&inst, &nulls), &recv, &Default::default()).unwrap();
        drop(store);
        let (store, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!(rec.wal_records_replayed, 2, "the head alone");
        assert_eq!(store.marks(), &live, "the head carries every mark");
    }

    /// A restore or a rules file counts one incarnation more: the next
    /// open is two past the one that made the marks.
    #[test]
    fn a_skipped_incarnation_is_not_the_one_before_the_next() {
        let dir = ScratchDir::new("store-skip");
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
        store.skip_incarnation().unwrap();
        store.skip_incarnation().unwrap();
        drop(store);
        let (store, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!(rec.epoch, 2);
        drop(store);
        let (_, rec) = Store::open(dir.path(), SyncPolicy::Always, Codec::Binary).unwrap();
        assert_eq!(rec.epoch, 3, "an open that skipped nothing counts one");
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
        // Orphans are crash debris: deleted, not quarantined.
        assert!(!wal_path(dir.path(), 1).exists());
        assert!(!dir.path().join("codb-0000000001.wal.corrupt").exists());
        assert!(!dir.path().join("codb-0000000001.tmp").exists());
        // Checkpoints after it leave the live generation's files alone.
        let mut store = store;
        for _ in 0..3 {
            store
                .checkpoint(&Snapshot::capture(&inst, &nulls), &recv, &Default::default())
                .unwrap();
        }
        let mut files: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["codb-0000000003.snap", "codb-0000000003.wal", "codb.epoch"]);
        drop(store);
    }
}
