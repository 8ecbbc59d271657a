//! # codb-store
//!
//! The durable storage engine of the coDB reproduction. In the paper every
//! peer sits on a real RDBMS, so node state survives restarts and the
//! dynamic-network experiments assume peers can drop out and come back.
//! Our nodes are in-memory; this crate gives them the missing durability:
//! an append-only, checksummed **write-ahead log** of applied update
//! deltas plus periodic **snapshot** files, with log rotation/compaction
//! after each snapshot, a recovery path that tolerates a torn final
//! frame, and an **fsync scheduler** ([`FsyncScheduler`]) through which
//! every WAL becomes durable: each [`SyncPolicy`] is a pair of its
//! thresholds, and under [`SyncPolicy::GroupCommit`] one shared scheduler
//! coalesces the fsyncs of many co-located stores.
//!
//! **The normative durability contract lives in [`durability`]**
//! (rendered from `docs/DURABILITY.md`): what each [`SyncPolicy`]
//! guarantees, the ack rule, loss windows, torn-tail vs corrupt-frame
//! handling, epoch semantics and the refusal of older store formats. The
//! notes
//! below describe mechanisms; the contract page wins on any
//! disagreement.
//!
//! ## On-disk format
//!
//! A store is one directory holding at most a handful of files, named by
//! *generation* (a counter bumped at every checkpoint):
//!
//! ```text
//! <dir>/codb-0000000003.snap     snapshot of generation 3
//! <dir>/codb-0000000003.wal      WAL tail of generation 3
//! <dir>/codb.epoch               incarnation counter (bumped per open)
//! ```
//!
//! `codb.epoch` counts the store's incarnations: every [`Store::open`]
//! bumps it, and a recovered node stamps it on its envelopes **and mints
//! it into its update/query ids** (`(origin, epoch, seq)`), so peers can
//! tell a restarted node (whose transport sequence numbers start over)
//! from a duplicate-sending one, and a rejoined initiator's ids cannot
//! collide with its dead incarnation's. The epoch also drives the crash
//! rejoin handshake (`codb_core::rejoin`): the recovered node announces
//! it to every acquaintance, which invalidates the sent caches pointed at
//! the node.
//!
//! The file is two fixed 12-byte slots, each an epoch (`u64` LE) and the
//! CRC-32 of its eight bytes (`u32` LE); the newest valid slot is the
//! epoch. An open writes its epoch in place over the *other* slot and
//! syncs the file's data — one `fdatasync`, no temp file, rename or
//! directory sync. A crash mid-write tears only that slot, which then
//! fails its checksum, and the file reads as the epoch before, under
//! which nothing was sent (the open had not returned); no valid slot is
//! a loud [`StoreError::Epoch`], and so is a file of any other length, the
//! decimal text older stores wrote among them. A store's creation writes
//! the file whole by temp file + rename instead.
//!
//! After the magic, both file kinds are a sequence of CRC-32 *frames* —
//! layout, checksum and the torn-tail / corruption scanner all live in
//! [`frame`] (`codb_relational::frame`, shared with the flight recorder).
//!
//! Every file starts with an 8-byte magic whose **eighth byte is the
//! format byte**: `CODBSNP2`/`CODBWAL2` ([`codec::SNAP_MAGIC`],
//! [`codec::WAL_MAGIC`]) for the compact binary varint/tag encoding, the
//! one format a store writes and reads. A file headed by the
//! `CODBSNP1`/`CODBWAL1` of the JSON format older stores wrote is refused
//! unread as [`StoreError::LegacyFormat`], and the open touches no file.
//!
//! A `.snap` file is the magic followed by exactly one frame whose
//! payload is a [`codb_relational::Snapshot`] (version-checked via
//! `SNAPSHOT_VERSION`), each relation written as its
//! log, in the order it filed its tuples. A `.wal` file is the magic
//! followed by any number of frames, each one [`WalRecord`]. Every WAL
//! opens with two checkpoint records:
//!
//! 1. a [`WalRecord::Caches`] checkpoint of the node's receiver-side
//!    dedup caches, so a recovered node never re-instantiates existential
//!    templates it has already materialised (which would silently
//!    duplicate GLAV data under fresh nulls) — firings with a placeholder
//!    only: [`apply_arrived`] decides a ground firing by the instance; and
//! 2. a [`WalRecord::Counters`] checkpoint of the protocol counters
//!    ([`ProtocolCounters`]: next update / query / fetch sequence
//!    numbers). The node re-appends a `Counters` record every time it
//!    mints an id, and replay keeps the **last** one, so a recovered node
//!    *resumes* its id space rather than restarting it at zero — the
//!    counter half of the crash-rejoin guarantee (the `(epoch, seq)` id
//!    keying is the other half: even a lost counter cannot collide).
//!
//! ## Compaction rules
//!
//! A checkpoint ([`Store::checkpoint`]) writes the snapshot of generation
//! `g+1` via a temp file + atomic rename, starts a fresh
//! `codb-<g+1>.wal`, and only then deletes the generation-`g` files. A
//! crash at any point leaves at least one complete generation on disk;
//! recovery loads the **latest valid** snapshot and replays its WAL tail,
//! frame by frame: an `Applied` record whose firings are each one ground
//! atom of one relation is filed straight from its bytes, tuple by tuple,
//! and every other record decodes and replays through [`apply_arrived`].
//! An open sweeps other generations' files away and syncs the directory
//! only when it deleted or renamed one.
//!
//! ## Failure semantics
//!
//! * A frame that runs past end-of-file is a *torn tail* — the classic
//!   crash-mid-append artifact. Recovery stops cleanly before it and the
//!   writer truncates it away on reopen.
//! * A complete frame whose checksum does not match is **corruption** and
//!   is rejected with a typed [`StoreError::CorruptFrame`] — never
//!   silently accepted. The same holds for a frame whose payload fails to
//!   decode (unknown tag, wild length, invalid UTF-8, trailing bytes): a
//!   typed error, never a wrong decode.
//! * A snapshot with a mismatched format version is rejected with
//!   [`codb_relational::SnapshotError::VersionMismatch`]; a file headed
//!   by any magic but its kind's binary or legacy one is
//!   [`StoreError::BadMagic`].

#![warn(missing_docs)]

pub mod codec;
pub mod group;
pub mod scratch;
pub mod store;
pub mod wal;

pub use crate::store::{RecoveredState, RecoveryStats, Store, StoreError};
pub use codb_relational::frame::{self, crc32};
pub use codec::Codec;
pub use group::{FsyncScheduler, FsyncSchedulerStats};
pub use scratch::ScratchDir;
pub use wal::{
    apply_arrived, LinkMark, LinkMarks, ProtocolCounters, RecvCaches, Span, SyncPolicy, WalRecord,
};

/// The normative durability contract, rendered from `docs/DURABILITY.md`
/// — the single written source of truth for what each [`SyncPolicy`]
/// guarantees, the on-disk layout, torn-tail vs corrupt-frame handling,
/// epoch/rejoin semantics and the refusal of older formats. Including the
/// file here makes `cargo doc -D warnings` resolve its intra-doc links,
/// so the contract and the code cannot silently drift.
#[doc = include_str!("../../../docs/DURABILITY.md")]
pub mod durability {}
