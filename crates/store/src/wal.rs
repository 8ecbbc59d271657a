//! The write-ahead log: record types, the fsync-aware appender and the
//! recovery-time reader.
//!
//! The WAL is a *redo log of applied deltas*: it records exactly the
//! inputs the node fed to its relational engine, in apply order, so
//! replaying them against the snapshot reproduces the instance **and** the
//! null factory byte-for-byte (fresh nulls are invented deterministically
//! from the factory counter, which the snapshot captures).
//!
//! The appender and the reader share one format, the binary records of
//! [`crate::codec`]; a WAL headed by the legacy JSON magic is refused
//! unread ([`StoreError::LegacyFormat`]).
//!
//! The appender does no I/O of its own: it encodes each record in place
//! behind a frame header and hands the frame to the file's
//! [`FsyncScheduler`], which buffers it and writes the file's buffered
//! frames in one `write` — right before the fsync of a drain or flush,
//! once they pass a fixed spill size, or when the writer is dropped. A
//! process kill therefore loses at most the never-acked tail, as a power
//! cut does (`docs/DURABILITY.md`, rendered as [`crate::durability`]).

use crate::codec::{self, MAGIC_LEN, WAL_MAGIC};
use crate::group::FsyncScheduler;
use crate::store::StoreError;
use codb_relational::binenc::BinDecodeError;
use codb_relational::frame::{crc32, frame_header, FrameScanner, FrameStep, FRAME_HEADER};
use codb_relational::{
    apply_new_firings, FiringSet, Instance, NullFactory, RuleFiring, SchemaError, Tuple, Version,
};
use codb_trace::{TraceEvent, Tracer};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

/// Receiver-side per-link dedup caches, exactly as the node keeps them
/// (`rule name → firing templates already materialised`): firings with a
/// placeholder only, since [`apply_arrived`] decides a ground firing by
/// the LDB. The sets are unordered in memory; a record writes them
/// sorted, so equal caches are equal bytes.
pub type RecvCaches = BTreeMap<String, FiringSet>;

/// The arrival of a batch of firings on link `rule` at a node whose LDB
/// is `instance`, whose null factory is `nulls` and whose receive caches
/// are `recv`, live and in replay alike: applies the firings that are new
/// and keeps only those in `firings`, in order — the paper's `T' = T \ R`.
/// Each firing is decided alone, so replay needs no rule:
///
/// * one with a placeholder is new iff the link's receive cache did not
///   hold it, and the cache holds it from then on: the same template
///   arriving again must not be instantiated again under fresh nulls;
/// * a ground one is new iff `instance` lacked one of its tuples, which
///   the probe that files them tells ([`apply_new_firings`]): the relation
///   is its record, and it never enters `recv`.
///
/// Returns the relations that grew with their versions before
/// ([`codb_relational::apply_firings`]).
pub fn apply_arrived(
    instance: &mut Instance,
    nulls: &mut NullFactory,
    recv: &mut RecvCaches,
    rule: &str,
    firings: &mut Vec<RuleFiring>,
) -> Result<Vec<(Arc<str>, Version)>, SchemaError> {
    if !firings.iter().all(RuleFiring::is_ground) {
        if !recv.contains_key(rule) {
            recv.insert(rule.to_owned(), FiringSet::default());
        }
        let cache = recv.get_mut(rule).expect("present or just inserted");
        cache.reserve(firings.len());
        firings.retain(|f| f.is_ground() || cache.insert(f.clone()));
    }
    apply_new_firings(instance, firings, nulls)
}

/// Durable protocol counters: the per-node sequence numbers that make
/// update/query/fetch identifiers unique. Persisted so a recovered node
/// *resumes* its id space instead of restarting it at zero (which would
/// make a rejoined initiator mint colliding ids). Each value is the *next*
/// sequence number to hand out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolCounters {
    /// Next global-update sequence number (`UpdateId` minting).
    pub update_seq: u64,
    /// Next user-query sequence number.
    pub query_seq: u64,
    /// Next query-time fetch-request sequence number.
    pub req_seq: u64,
}

/// How far a peer's batches on one link into this node reach without a
/// gap ([`Span::extend`]): the incarnation epoch the peer stamped on them,
/// and the length of the link body's relation log their firings cover.
/// Kept so that a restarted node can tell the peer where to repair from
/// (`docs/DURABILITY.md`, "Link marks").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct LinkMark {
    /// The peer's incarnation when it fired that far.
    pub epoch: u64,
    /// The log position its firings covered.
    pub position: u64,
}

/// The latest [`LinkMark`] of each link into this node, by rule name.
pub type LinkMarks = BTreeMap<String, LinkMark>;

/// What one batch on a link covers, as its sender's data says: the
/// sender's incarnation, and the positions `from..to` of the link body's
/// relation log its firings cover — everything before `from` it counts
/// on the target holding already (earlier batches, or a mark the target
/// reported). `anchored`: `from` is a mark the target reported, which the
/// sender trusted as one of its current log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The sender's incarnation.
    pub epoch: u64,
    /// Where the batch starts.
    pub from: u64,
    /// Where the batch ends: the sender's mark after it.
    pub to: u64,
    /// `from` is a mark the target reported.
    pub anchored: bool,
}

impl Span {
    /// The mark a link kept at `kept` keeps once a batch covering this
    /// span is applied, where the batch moves it: only a batch that
    /// starts within what the kept mark covers joins on to it, so a kept
    /// mark never covers a position whose batch is missing, however
    /// batches are reordered, and, logged with the batch that moved it, is
    /// durable only after every batch it covers. Of the sender's
    /// incarnation the mark was kept in, a batch starting at or before
    /// it; of a later one, a batch from the start of the log, or one
    /// anchored on a mark it starts within (the sender checked that its
    /// log still holds those positions); of an earlier one, none.
    pub fn extend(self, kept: Option<LinkMark>) -> Option<LinkMark> {
        let joins = match kept {
            None => self.from == 0,
            Some(k) if k.epoch == self.epoch => self.from <= k.position && k.position < self.to,
            Some(k) if k.epoch < self.epoch => {
                self.from == 0 || (self.anchored && self.from <= k.position)
            }
            Some(_) => false,
        };
        joins.then_some(LinkMark { epoch: self.epoch, position: self.to })
    }
}

/// One WAL record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Checkpoint of the receiver-side state — the first record of every
    /// rotated WAL, so it survives compaction of the log that built it:
    /// the dedup caches and each link's mark.
    Caches {
        /// The caches at rotation time.
        recv: RecvCaches,
        /// The marks at rotation time.
        marks: LinkMarks,
    },
    /// Checkpoint of the protocol counters — written right after
    /// [`WalRecord::Caches`] at create/checkpoint time and re-appended by
    /// the node whenever it mints a new update/query id, so recovery
    /// resumes the id space exactly where the crashed incarnation left it
    /// (replay keeps the *last* such record).
    Counters {
        /// The counters; each field is the next value to hand out.
        counters: ProtocolCounters,
    },
    /// A batch of rule firings applied from network data on outgoing link
    /// `rule`: the ones [`apply_arrived`] found new, logged after the apply
    /// and before the node sends or acks anything.
    Applied {
        /// The link the data arrived on.
        rule: String,
        /// The firings, in apply order.
        firings: Vec<RuleFiring>,
        /// The link's kept mark, where the batch moved it
        /// ([`Span::extend`]).
        mark: Option<LinkMark>,
    },
    /// A local write (the demo UI's data-entry path).
    LocalInsert {
        /// Target relation.
        relation: String,
        /// The inserted tuple.
        tuple: Tuple,
    },
}

/// When a WAL is fsynced: each policy is a pair of thresholds on the
/// [`FsyncScheduler`] the store's WAL registers with (the table in
/// [`crate::group`]; [`FsyncScheduler::for_store`] maps one to the other).
///
/// Every policy shares one *ack* rule, written down in
/// `docs/DURABILITY.md` (rendered as [`crate::durability`]): a record
/// counts as durable — [`crate::Store::durable_wal_records`] — only once
/// an fsync covering it has completed. The policies differ in *when*
/// that fsync runs, i.e. how large the window of
/// appended-but-not-yet-durable records may grow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// After every appended record — full durability, one fsync per delta.
    Always,
    /// After every `n` appended records (and at checkpoint or explicit
    /// [`crate::Store::sync`]) — a *per-store* loss window of up to `n`
    /// records, amortised fsync cost. On a host running many stores the
    /// windows add up: each store fsyncs independently.
    EveryN(u64),
    /// Only at checkpoint or explicit [`crate::Store::sync`] — fastest;
    /// a crash may lose the tail since the last checkpoint (it will
    /// still be *consistent*: torn frames are truncated, never
    /// half-applied). Frames reach the file every 64 KiB and when the
    /// store is dropped, but are never fsynced there — drop models a
    /// crash; sync or checkpoint before a clean shutdown.
    Never,
    /// Shared group commit via a host-wide [`FsyncScheduler`] (see
    /// [`crate::group`]): appends across *all* participating stores are
    /// coalesced and drained — one fsync per dirty store per drain — when
    /// either `max_records` pending records accumulate host-wide or
    /// `max_batch` distinct stores are dirty. The loss window is
    /// host-wide (at most `max_records` never-acked records in flight
    /// across every store together), in contrast to [`SyncPolicy::EveryN`]
    /// whose window is per store. `max_records == 0` or `max_batch <= 1`
    /// degenerate to [`SyncPolicy::Always`] behaviour.
    GroupCommit {
        /// Max distinct dirty stores coalesced before a drain is forced.
        max_batch: u64,
        /// Max appended-but-unsynced records host-wide before a drain is
        /// forced (the durability ack window).
        max_records: u64,
    },
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::EveryN(n) => write!(f, "everyN:{n}"),
            SyncPolicy::Never => write!(f, "never"),
            SyncPolicy::GroupCommit { max_batch, max_records } => {
                write!(f, "group:{max_records},{max_batch}")
            }
        }
    }
}

impl FromStr for SyncPolicy {
    type Err = String;

    /// Parses the demo CLI's `--sync` syntax:
    /// `always` | `never` | `everyN:N` | `group[:RECORDS[,BATCH]]`
    /// (group defaults: 256 records, 64 stores).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const GROUP_RECORDS_DEFAULT: u64 = 256;
        const GROUP_BATCH_DEFAULT: u64 = 64;
        let parse_u64 = |v: &str| {
            v.parse::<u64>().map_err(|e| format!("bad number {v:?} in sync policy {s:?}: {e}"))
        };
        match s {
            "always" => Ok(SyncPolicy::Always),
            "never" => Ok(SyncPolicy::Never),
            "group" => Ok(SyncPolicy::GroupCommit {
                max_batch: GROUP_BATCH_DEFAULT,
                max_records: GROUP_RECORDS_DEFAULT,
            }),
            _ => {
                if let Some(n) = s.strip_prefix("everyN:").or_else(|| s.strip_prefix("everyn:")) {
                    return Ok(SyncPolicy::EveryN(parse_u64(n)?));
                }
                if let Some(rest) = s.strip_prefix("group:") {
                    let (records, batch) = match rest.split_once(',') {
                        Some((r, b)) => (parse_u64(r)?, parse_u64(b)?),
                        None => (parse_u64(rest)?, GROUP_BATCH_DEFAULT),
                    };
                    return Ok(SyncPolicy::GroupCommit { max_batch: batch, max_records: records });
                }
                Err(format!(
                    "unknown sync policy {s:?} (expected always, never, everyN:N or \
                     group[:RECORDS[,BATCH]])"
                ))
            }
        }
    }
}

/// The name a trace gives the store a WAL file belongs to: the last
/// component of the file's directory — a node's store is `<root>/<node>`,
/// so it is the node's name, and two runs of one schedule under different
/// roots name their stores alike. `WalAppend`, `Fsync` and `Checkpoint`
/// events all carry it.
pub(crate) fn store_name(wal: &Path) -> String {
    let dir = wal.parent().and_then(Path::file_name).unwrap_or_default();
    dir.to_string_lossy().into_owned()
}

/// Appender over one WAL file: encodes each record into a frame and
/// hands it to its [`FsyncScheduler`], which owns the file from there —
/// it buffers, writes and fsyncs the frames and keeps the durable
/// watermark (the module docs say when a frame reaches the OS).
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    frames: u64,
    /// Bytes appended to the file (magic + complete frames), written or
    /// still buffered in the scheduler.
    len: u64,
    /// The frame being appended, reused: a header's room, then the
    /// payload, then the header filled in.
    frame: Vec<u8>,
    /// The scheduler that makes this file durable, and the file's slot
    /// in it.
    sched: FsyncScheduler,
    slot: u64,
    /// Flight recorder (disabled by default) and this store's interned
    /// name in it.
    tracer: Tracer,
    trace_id: u32,
}

impl WalWriter {
    /// Creates a fresh WAL at `path` (truncating any previous file),
    /// writes the binary magic header and registers the file with `sched`
    /// (see [`FsyncScheduler::for_store`]).
    pub fn create(path: &Path, sched: &FsyncScheduler) -> Result<Self, StoreError> {
        let mut file = File::create(path).map_err(|e| StoreError::io(path, e))?;
        file.write_all(&WAL_MAGIC).map_err(|e| StoreError::io(path, e))?;
        file.sync_all().map_err(|e| StoreError::io(path, e))?;
        Self::register(file, path, MAGIC_LEN as u64, 0, sched)
    }

    /// Reopens an existing binary WAL for appending, truncating a torn
    /// tail: `valid_len` is the byte length of the valid prefix and
    /// `frames` the number of valid records in it (both as reported by
    /// [`read_wal`]). The valid prefix is registered with `sched` as
    /// already durable.
    pub fn open_append(
        path: &Path,
        valid_len: u64,
        frames: u64,
        sched: &FsyncScheduler,
    ) -> Result<Self, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io(path, e))?;
        file.set_len(valid_len).map_err(|e| StoreError::io(path, e))?;
        use std::io::Seek as _;
        file.seek(std::io::SeekFrom::End(0)).map_err(|e| StoreError::io(path, e))?;
        Self::register(file, path, valid_len, frames, sched)
    }

    /// Hands `sched` the file, whose first `len` bytes (`frames`
    /// records) are on stable storage: every later byte of it is written
    /// there.
    fn register(
        file: File,
        path: &Path,
        len: u64,
        frames: u64,
        sched: &FsyncScheduler,
    ) -> Result<Self, StoreError> {
        let slot = sched.register(file, path, len, frames);
        Ok(WalWriter {
            path: path.to_owned(),
            frames,
            len,
            frame: Vec::new(),
            sched: sched.clone(),
            slot,
            tracer: Tracer::disabled(),
            trace_id: 0,
        })
    }

    /// Attaches a flight-recorder handle: appends emit `WalAppend`
    /// naming the store by its directory, as the scheduler's fsyncs of
    /// this file do.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.trace_id = tracer.intern(&store_name(&self.path));
        self.tracer = tracer;
    }

    /// Appends one record as a binary frame to the scheduler's buffer for
    /// this file; the scheduler writes and fsyncs it when a threshold
    /// trips.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StoreError> {
        let frame = &mut self.frame;
        frame.clear();
        frame.resize(FRAME_HEADER, 0);
        codec::put_record(frame, record);
        let payload = &frame[FRAME_HEADER..];
        let header = frame_header(payload.len() as u32, crc32(payload));
        frame[..FRAME_HEADER].copy_from_slice(&header);
        let bytes = frame.len() as u64;
        self.frames += 1;
        self.len += bytes;
        self.tracer.emit_with(|| TraceEvent::WalAppend { store: self.trace_id, bytes });
        self.sched.note_append(self.slot, &self.frame)
    }

    /// Forces buffered records to stable storage now, whatever the
    /// scheduler's thresholds.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.sched.flush_writer(self.slot)
    }

    /// Records appended to this file (including a recovered valid prefix).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bytes appended to this file (magic + complete frames), written or
    /// still buffered.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the file holds no records (only the magic header).
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Bytes covered by fsync — the prefix guaranteed to survive a host
    /// crash. The watermark lives in the scheduler (on a shared one, a
    /// drain triggered by *another* store's append advances it too).
    pub fn durable_len(&self) -> u64 {
        self.sched.durable_of(self.slot).len
    }

    /// Records covered by fsync — the *acked durable* record count (see
    /// [`SyncPolicy`] for the ack rule).
    pub fn durable_frames(&self) -> u64 {
        self.sched.durable_of(self.slot).frames
    }

    /// Data fsyncs of this file since it was created or reopened, whether
    /// a drain or a flush did them (the header sync at file creation is
    /// excluded) — the E18 measurement hook.
    pub fn fsyncs(&self) -> u64 {
        self.sched.durable_of(self.slot).fsyncs
    }

    /// The scheduler this file is registered with.
    pub fn scheduler(&self) -> &FsyncScheduler {
        &self.sched
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WalWriter {
    /// Deregisters from the scheduler, which writes the buffered frames
    /// out without an fsync. Pending (never-acked) records are abandoned
    /// — exactly the crash semantics the scheduler documents for a store
    /// dropped mid-batch.
    fn drop(&mut self) {
        self.sched.deregister(self.slot);
    }
}

/// Result of reading a WAL file for recovery.
#[derive(Debug)]
pub struct WalContents {
    /// The valid records, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic + complete frames).
    pub valid_len: u64,
    /// True when a torn final frame was truncated away.
    pub torn_tail: bool,
}

/// Reads and validates a WAL file. A torn final frame is tolerated (and
/// reported); a checksum mismatch or undecodable payload on a complete
/// frame is a typed error.
pub fn read_wal(path: &Path) -> Result<WalContents, StoreError> {
    let mut records = Vec::new();
    let scan = scan_wal(path, |payload| {
        records.push(codec::decode_record(payload).map_err(FrameFault::Corrupt)?);
        Ok(())
    })?;
    Ok(WalContents { records, valid_len: scan.valid_len, torn_tail: scan.torn_tail })
}

/// Why a frame's payload stopped a scan of its WAL ([`scan_wal`]).
#[derive(Debug)]
pub(crate) enum FrameFault {
    /// It does not decode, for this reason: corruption at the frame.
    Corrupt(String),
    /// It decoded, and acting on it failed.
    Failed(StoreError),
}

impl From<StoreError> for FrameFault {
    fn from(e: StoreError) -> Self {
        FrameFault::Failed(e)
    }
}

impl From<BinDecodeError> for FrameFault {
    fn from(e: BinDecodeError) -> Self {
        FrameFault::Corrupt(codec::undecodable(e))
    }
}

/// Where a scan of a WAL's frames ended ([`scan_wal`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct WalScan {
    /// Byte length of the valid prefix (magic + complete frames).
    pub(crate) valid_len: u64,
    /// Complete frames in that prefix.
    pub(crate) frames: u64,
    /// True when a torn final frame follows it.
    pub(crate) torn_tail: bool,
}

/// Reads the WAL at `path` and hands `each` the payload of every complete
/// frame, one at a time in append order — [`read_wal`] and a store's
/// replay both read a WAL this way. A head other than [`WAL_MAGIC`] stops
/// it before the first frame ([`codec::after_magic`]). A torn final frame
/// ends the scan cleanly; a checksum mismatch, or a payload `each` finds
/// undecodable, is a [`StoreError::CorruptFrame`] at the frame's offset.
pub(crate) fn scan_wal(
    path: &Path,
    mut each: impl FnMut(&[u8]) -> Result<(), FrameFault>,
) -> Result<WalScan, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, e))?;
    let frames_bytes = codec::after_magic(path, &bytes, &WAL_MAGIC)?;
    let corrupt = |offset: usize, reason| StoreError::CorruptFrame {
        file: path.to_owned(),
        offset: (MAGIC_LEN + offset) as u64,
        reason,
    };
    let mut scanner = FrameScanner::new(frames_bytes);
    let mut frames = 0;
    loop {
        // The scanner's offset moves past a frame once it validates, so
        // remember where this frame started for error reporting.
        let frame_at = scanner.offset();
        let torn_tail = match scanner.next_frame() {
            FrameStep::Frame(payload) => {
                match each(payload) {
                    Ok(()) => frames += 1,
                    Err(FrameFault::Corrupt(reason)) => return Err(corrupt(frame_at, reason)),
                    Err(FrameFault::Failed(e)) => return Err(e),
                }
                continue;
            }
            FrameStep::End => false,
            FrameStep::TornTail => true,
            FrameStep::Corrupt { offset, reason } => return Err(corrupt(offset, reason)),
        };
        let valid_len = (MAGIC_LEN + scanner.offset()) as u64;
        return Ok(WalScan { valid_len, frames, torn_tail });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;
    use codb_relational::glav::TField;
    use codb_relational::Value;

    /// A private scheduler for a writer under `policy`.
    fn sched(policy: SyncPolicy) -> FsyncScheduler {
        FsyncScheduler::for_store(policy, None)
    }

    fn firing(k: i64) -> RuleFiring {
        RuleFiring::new([("r", vec![TField::Const(Value::Int(k)), TField::Fresh(0)])])
    }

    /// A batch joins on to a kept mark only where it starts within what
    /// the mark covers; across incarnations only from the log's start, or
    /// anchored on the mark it starts within; never from an incarnation
    /// before the mark's.
    #[test]
    fn a_span_moves_a_mark_only_where_it_joins_on() {
        let at = |epoch, position| Some(LinkMark { epoch, position });
        let span = |epoch, from, to, anchored| Span { epoch, from, to, anchored };
        // Nothing kept: only a batch from the start.
        assert_eq!(span(1, 0, 4, false).extend(None), at(1, 4));
        assert_eq!(span(1, 4, 6, true).extend(None), None);
        // The same incarnation: within, and past the mark.
        assert_eq!(span(1, 4, 6, false).extend(at(1, 4)), at(1, 6));
        assert_eq!(span(1, 2, 6, false).extend(at(1, 4)), at(1, 6));
        assert_eq!(span(1, 6, 9, false).extend(at(1, 4)), None, "a batch overtook one");
        assert_eq!(span(1, 0, 3, false).extend(at(1, 4)), None, "behind the mark");
        // A later incarnation: from the start, or anchored within.
        assert_eq!(span(2, 0, 3, false).extend(at(1, 4)), at(2, 3));
        assert_eq!(span(2, 4, 6, true).extend(at(1, 4)), at(2, 6));
        assert_eq!(span(2, 4, 6, false).extend(at(1, 4)), None, "not on this node's mark");
        assert_eq!(span(2, 5, 6, true).extend(at(1, 4)), None);
        // An earlier incarnation: never.
        assert_eq!(span(1, 0, 9, false).extend(at(2, 4)), None);
    }

    /// A trace names a store by its node's directory, not by the root
    /// the run put it under, so two runs of one schedule name it alike.
    #[test]
    fn a_store_is_named_by_its_directory_whatever_its_root() {
        let [a, b] = ["/tmp/run-1-8071/node0", "scratch/run-2/node0"]
            .map(|dir| store_name(&Path::new(dir).join("codb-0000000000.wal")));
        assert_eq!((a.as_str(), b.as_str()), ("node0", "node0"));
    }

    #[test]
    fn append_and_read_round_trip_in_both_codecs() {
        let dir = ScratchDir::new("wal-roundtrip");
        let path = dir.path().join("codb-0000000000.wal");
        let mut w = WalWriter::create(&path, &sched(SyncPolicy::Always)).unwrap();
        let records = vec![
            WalRecord::Caches { recv: RecvCaches::new(), marks: Default::default() },
            WalRecord::Applied {
                rule: "e0".into(),
                firings: vec![firing(1), firing(2)],
                mark: None,
            },
            WalRecord::LocalInsert {
                relation: "r".into(),
                tuple: Tuple::new(vec![Value::Int(9), Value::str("x")]),
            },
        ];
        for r in &records {
            w.append(r).unwrap();
        }
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records, records);
        assert!(!contents.torn_tail);
        assert_eq!(w.frames(), 3);
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated_on_reopen() {
        let dir = ScratchDir::new("wal-torn");
        let path = dir.path().join("codb-0000000000.wal");
        let mut w = WalWriter::create(&path, &sched(SyncPolicy::Always)).unwrap();
        w.append(&WalRecord::Caches { recv: RecvCaches::new(), marks: Default::default() })
            .unwrap();
        w.append(&WalRecord::Applied { rule: "e".into(), firings: vec![firing(1)], mark: None })
            .unwrap();
        drop(w);
        // Simulate a crash mid-append: chop bytes off the end.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 1, "only the first record survives");
        assert!(contents.torn_tail);
        // Reopen for append: the torn bytes are gone, the log grows cleanly.
        let mut w =
            WalWriter::open_append(&path, contents.valid_len, 1, &sched(SyncPolicy::Always))
                .unwrap();
        w.append(&WalRecord::LocalInsert {
            relation: "r".into(),
            tuple: Tuple::new(vec![Value::Int(1)]),
        })
        .unwrap();
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 2);
        assert!(!contents.torn_tail);
    }

    #[test]
    fn bit_flip_mid_log_is_a_typed_error() {
        let dir = ScratchDir::new("wal-flip");
        let path = dir.path().join("codb-0000000000.wal");
        let mut w = WalWriter::create(&path, &sched(SyncPolicy::Always)).unwrap();
        w.append(&WalRecord::Applied { rule: "e".into(), firings: vec![firing(7)], mark: None })
            .unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 3;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match read_wal(&path) {
            Err(StoreError::CorruptFrame { reason, .. }) => {
                assert!(reason.contains("checksum mismatch"), "{reason}");
            }
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
    }

    #[test]
    fn missing_magic_is_rejected() {
        let dir = ScratchDir::new("wal-magic");
        let path = dir.path().join("not-a.wal");
        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(read_wal(&path), Err(StoreError::BadMagic { .. })));
        // An unknown *format byte* under a valid prefix is BadMagic too —
        // a store from a future format version must not be misread.
        std::fs::write(&path, b"CODBWAL9").unwrap();
        assert!(matches!(read_wal(&path), Err(StoreError::BadMagic { .. })));
    }

    #[test]
    fn payload_codec_follows_the_format_byte_not_the_caller() {
        // `read_wal` takes no codec: the file's format byte decides. A
        // binary WAL relabelled with the legacy JSON format byte is refused
        // unread, and JSON frames under the binary format byte pass their
        // checksums and still fail to decode — a typed error, never a
        // misread.
        let dir = ScratchDir::new("wal-mixcheck");
        let path = dir.path().join("codb-0000000000.wal");
        let mut w = WalWriter::create(&path, &sched(SyncPolicy::Always)).unwrap();
        w.append(&WalRecord::Applied { rule: "e".into(), firings: vec![firing(1)], mark: None })
            .unwrap();
        drop(w);
        let mut relabelled = std::fs::read(&path).unwrap();
        relabelled[MAGIC_LEN - 1] = b'1';
        std::fs::write(&path, &relabelled).unwrap();
        match read_wal(&path) {
            Err(StoreError::LegacyFormat { file }) => assert_eq!(file, path),
            other => panic!("expected LegacyFormat, got {other:?}"),
        }
        let mut json = WAL_MAGIC.to_vec();
        let record = r#"{"Counters":{"counters":{"query_seq":1,"req_seq":2,"update_seq":3}}}"#;
        codb_relational::frame::encode_frame(record.as_bytes(), &mut json);
        std::fs::write(&path, &json).unwrap();
        match read_wal(&path) {
            Err(StoreError::CorruptFrame { offset, reason, .. }) => {
                assert_eq!(offset, MAGIC_LEN as u64, "the first frame");
                assert!(reason.contains("undecodable record"), "{reason}");
            }
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
    }

    #[test]
    fn sync_policy_parses_from_cli_strings_and_round_trips() {
        for (text, policy) in [
            ("always", SyncPolicy::Always),
            ("never", SyncPolicy::Never),
            ("everyN:8", SyncPolicy::EveryN(8)),
            ("group", SyncPolicy::GroupCommit { max_batch: 64, max_records: 256 }),
            ("group:128", SyncPolicy::GroupCommit { max_batch: 64, max_records: 128 }),
            ("group:128,16", SyncPolicy::GroupCommit { max_batch: 16, max_records: 128 }),
        ] {
            assert_eq!(text.parse::<SyncPolicy>().unwrap(), policy, "{text}");
            // Display output parses back to the same policy.
            assert_eq!(policy.to_string().parse::<SyncPolicy>().unwrap(), policy);
        }
        assert!("everyN".parse::<SyncPolicy>().is_err(), "N is mandatory");
        assert!("group:x".parse::<SyncPolicy>().is_err());
        assert!("fsync".parse::<SyncPolicy>().is_err());
    }

    #[test]
    fn durable_watermark_tracks_the_policy() {
        // Every policy is a window of `w` records on a private scheduler
        // (`None`: no window). After each append the acked prefix is the
        // last multiple of `w`, and the watermark exposes exactly the
        // prefix a host crash preserves. The two degenerate group-commit
        // configs behave like `Always`: `max_records = 0` drains every
        // append, and under `max_batch = 1` the appending store alone is
        // enough to drain.
        let group = |max_batch, max_records| SyncPolicy::GroupCommit { max_batch, max_records };
        let dir = ScratchDir::new("wal-watermark");
        for (policy, window) in [
            (SyncPolicy::Always, Some(1)),
            (SyncPolicy::EveryN(0), Some(1)),
            (SyncPolicy::EveryN(1), Some(1)),
            (SyncPolicy::EveryN(3), Some(3)),
            (SyncPolicy::Never, None),
            (group(64, 3), Some(3)),
            (group(64, 0), Some(1)),
            (group(1, 1_000), Some(1)),
        ] {
            let acked = |k: u64| window.map_or(0, |w| k / w * w);
            let name = format!("{policy}.wal").replace([':', ','], "-");
            let path = dir.path().join(name);
            let sched = sched(policy);
            let mut w = WalWriter::create(&path, &sched).unwrap();
            // `lens[k]`: the file's length after `k` records.
            let mut lens = vec![w.len()];
            for k in 1..=7 {
                w.append(&WalRecord::Applied {
                    rule: "e".into(),
                    firings: vec![firing(k)],
                    mark: None,
                })
                .unwrap();
                lens.push(w.len());
                let k = k as u64;
                assert_eq!(w.durable_frames(), acked(k), "{policy}: after {k}");
                assert_eq!(w.durable_len(), lens[acked(k) as usize], "{policy}: after {k}");
                assert_eq!(w.fsyncs(), window.map_or(0, |w| k / w), "{policy}: after {k}");
            }
            // `sync` acks everything, issuing one fsync iff a tail was
            // pending; a second `sync` has nothing to do.
            let fsyncs = w.fsyncs() + u64::from(acked(7) < 7);
            w.sync().unwrap();
            assert_eq!((w.durable_frames(), w.durable_len()), (7, w.len()), "{policy}");
            assert_eq!(w.fsyncs(), fsyncs, "{policy}");
            w.sync().unwrap();
            assert_eq!(w.fsyncs(), fsyncs, "{policy}: nothing new, no fsync");
            // Two more appends; whatever the window leaves pending is
            // never acked, and dropping the writer (a crash) abandons it.
            for k in 8..=9 {
                w.append(&WalRecord::Applied {
                    rule: "e".into(),
                    firings: vec![firing(k)],
                    mark: None,
                })
                .unwrap();
            }
            let durable = w.durable_len();
            let acked_frames = w.durable_frames();
            let pending = 9 - acked_frames;
            assert_eq!(pending, window.map_or(2, |w| 2 % w), "{policy}");
            drop(w);
            assert_eq!(sched.stats().abandoned_pending, pending, "{policy}");
            // Truncating to the durable watermark (the host-crash model
            // the faultplan harness applies for real) yields a valid clean
            // prefix holding exactly the acked records.
            let full = std::fs::read(&path).unwrap();
            std::fs::write(&path, &full[..durable as usize]).unwrap();
            let contents = read_wal(&path).unwrap();
            assert_eq!(contents.records.len() as u64, acked_frames, "{policy}");
            assert!(!contents.torn_tail, "{policy}: the watermark sits on a frame boundary");
        }
    }
}
