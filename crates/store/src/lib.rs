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
//! handling, epoch semantics and the conversion of legacy JSON stores at
//! open. The notes
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
//! After the magic, both file kinds are a sequence of CRC-32 *frames* —
//! layout, checksum and the torn-tail / corruption scanner all live in
//! [`frame`] (`codb_relational::frame`, shared with the flight recorder).
//!
//! Every file starts with an 8-byte magic whose **eighth byte is the
//! format byte** naming the payload [`Codec`] (see [`codec`]):
//! `CODBSNP2`/`CODBWAL2` for the compact binary varint/tag encoding, the
//! one format a store writes; `CODBSNP1`/`CODBWAL1` for the JSON payloads
//! of the seed format, which are only read. Readers auto-detect the codec
//! per file, so a store written by any past format keeps recovering, and
//! [`Store::open`] rotates a legacy JSON store to a binary generation
//! right after replay — no offline migration step, and no JSON file is
//! appended to.
//!
//! A `.snap` file is the magic followed by exactly one frame whose
//! payload is a [`codb_relational::Snapshot`] (version-checked via
//! `SNAPSHOT_VERSION` in either codec), each relation written as its
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
//! recovery loads the **latest valid** snapshot and replays its WAL tail.
//!
//! ## Failure semantics
//!
//! * A frame that runs past end-of-file is a *torn tail* — the classic
//!   crash-mid-append artifact. Recovery stops cleanly before it and the
//!   writer truncates it away on reopen.
//! * A complete frame whose checksum does not match is **corruption** and
//!   is rejected with a typed [`StoreError::CorruptFrame`] — never
//!   silently accepted. The same holds for a frame whose payload fails to
//!   decode under the file's codec (unknown tag, wild length, invalid
//!   UTF-8, trailing bytes): a typed error, never a wrong decode.
//! * A snapshot with a mismatched format version is rejected with
//!   [`codb_relational::SnapshotError::VersionMismatch`]; a file whose
//!   format byte names no known codec is [`StoreError::BadMagic`].

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
pub use wal::{apply_arrived, ProtocolCounters, RecvCaches, SyncPolicy, WalRecord};

/// The normative durability contract, rendered from `docs/DURABILITY.md`
/// — the single written source of truth for what each [`SyncPolicy`]
/// guarantees, the on-disk layout, torn-tail vs corrupt-frame handling,
/// epoch/rejoin semantics and legacy conversion at open. Including the
/// file here makes `cargo doc -D warnings` resolve its intra-doc links,
/// so the contract and the code cannot silently drift.
#[doc = include_str!("../../../docs/DURABILITY.md")]
pub mod durability {}
