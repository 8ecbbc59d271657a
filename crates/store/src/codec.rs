//! The payload codec: how [`WalRecord`]s and [`Snapshot`]s become the
//! bytes inside the CRC-32 frames, and how a reader tells which encoding
//! a file on disk uses.
//!
//! Two encodings exist, selected per *file* by a **format byte** — the
//! eighth byte of the magic (`CODBWAL1` / `CODBSNP1` for JSON,
//! `CODBWAL2` / `CODBSNP2` for binary):
//!
//! * [`Codec::Json`] — the seed format: serde-shim JSON payloads. Every
//!   store written before the binary codec existed carries format byte
//!   `'1'`, so legacy directories keep recovering forever with no
//!   offline migration.
//! * [`Codec::Binary`] — the compact varint/tag encoding of
//!   `codb_relational::binenc`: values, tuples, relations, receive
//!   caches and protocol counters as tagged varints and length-prefixed
//!   strings. Snapshots shrink by roughly an order of magnitude and
//!   recovery stops paying JSON parse cost — the E17 lever.
//!
//! Readers **auto-detect** from the format byte; writers append in the
//! codec the file was created with (a file never mixes encodings).
//! Upgrades happen **on rotation**: a store opened with a binary target
//! codec keeps appending to its existing JSON WAL, and the next
//! checkpoint writes the new generation — snapshot and fresh WAL — in
//! binary, after which the old JSON files are compacted away.
//!
//! ## Binary record layout
//!
//! One [`WalRecord`] encodes as a tag byte plus the variant payload
//! (`str` = varint length + UTF-8, all counts varint):
//!
//! ```text
//! 0x00 Caches       n, n × (rule: str, m, m × firing)
//! 0x01 Counters     update_seq, query_seq, req_seq   (varints)
//! 0x02 Applied      rule: str, n, n × firing
//! 0x03 LocalInsert  relation: str, tuple
//! ```
//!
//! with `firing` and `tuple` as defined in `codb_relational::binenc`. A
//! binary snapshot payload is varint version + null factory + instance.

use crate::store::StoreError;
use crate::wal::{ProtocolCounters, RecvCaches, WalRecord};
use codb_relational::binenc::{self, BinDecodeError, Reader};
use codb_relational::{FiringSet, RuleFiring, Snapshot, SnapshotError};
use std::fmt;
use std::str::FromStr;

/// Length of the magic header of every store file (prefix + format byte).
pub const MAGIC_LEN: usize = 8;

const WAL_PREFIX: &[u8; 7] = b"CODBWAL";
const SNAP_PREFIX: &[u8; 7] = b"CODBSNP";

/// Magic prefix of **JSON-format** WAL files (binary WALs end in `'2'`).
/// Kept as a named constant because it is the seed on-disk format every
/// store written before the binary codec carries.
pub const WAL_MAGIC: [u8; MAGIC_LEN] = Codec::Json.wal_magic();
/// Magic prefix of **JSON-format** snapshot files (see [`WAL_MAGIC`]).
pub const SNAP_MAGIC: [u8; MAGIC_LEN] = Codec::Json.snap_magic();

/// The payload encoding of one store file, named by its format byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Serde-shim JSON payloads — the seed format (format byte `'1'`).
    Json,
    /// Compact varint/tag payloads (format byte `'2'`). The default for
    /// new stores; existing JSON stores upgrade at their next rotation.
    #[default]
    Binary,
}

impl Codec {
    /// The format byte this codec stamps as the eighth magic byte.
    pub const fn format_byte(self) -> u8 {
        match self {
            Codec::Json => b'1',
            Codec::Binary => b'2',
        }
    }

    /// Inverse of [`Codec::format_byte`].
    pub const fn from_format_byte(b: u8) -> Option<Codec> {
        match b {
            b'1' => Some(Codec::Json),
            b'2' => Some(Codec::Binary),
            _ => None,
        }
    }

    /// Magic header of a WAL file in this codec.
    pub const fn wal_magic(self) -> [u8; MAGIC_LEN] {
        magic(WAL_PREFIX, self)
    }

    /// Magic header of a snapshot file in this codec.
    pub const fn snap_magic(self) -> [u8; MAGIC_LEN] {
        magic(SNAP_PREFIX, self)
    }

    /// Detects the codec of a WAL file from its leading bytes.
    pub fn detect_wal(header: &[u8]) -> Option<Codec> {
        detect(WAL_PREFIX, header)
    }

    /// Detects the codec of a snapshot file from its leading bytes.
    pub fn detect_snap(header: &[u8]) -> Option<Codec> {
        detect(SNAP_PREFIX, header)
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Codec::Json => write!(f, "json"),
            Codec::Binary => write!(f, "binary"),
        }
    }
}

impl FromStr for Codec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(Codec::Json),
            "binary" | "bin" => Ok(Codec::Binary),
            other => Err(format!("unknown codec {other:?} (expected json or binary)")),
        }
    }
}

const fn magic(prefix: &[u8; 7], codec: Codec) -> [u8; MAGIC_LEN] {
    let mut m = [0u8; MAGIC_LEN];
    let mut i = 0;
    while i < prefix.len() {
        m[i] = prefix[i];
        i += 1;
    }
    m[MAGIC_LEN - 1] = codec.format_byte();
    m
}

fn detect(prefix: &[u8; 7], header: &[u8]) -> Option<Codec> {
    if header.len() < MAGIC_LEN || &header[..7] != prefix {
        return None;
    }
    Codec::from_format_byte(header[7])
}

// ---- WAL records ----

const TAG_CACHES: u8 = 0;
const TAG_COUNTERS: u8 = 1;
const TAG_APPLIED: u8 = 2;
const TAG_LOCAL_INSERT: u8 = 3;

/// Encodes one WAL record in `codec`. JSON encoder failures (a bug) are
/// surfaced as [`StoreError::Encode`]; the binary encoder is total.
pub fn encode_record(record: &WalRecord, codec: Codec) -> Result<Vec<u8>, StoreError> {
    match codec {
        Codec::Json => {
            serde_json::to_vec(record).map_err(|e| StoreError::Encode { detail: e.to_string() })
        }
        Codec::Binary => {
            let mut out = Vec::new();
            put_record(&mut out, record);
            Ok(out)
        }
    }
}

/// Appends `record`'s binary encoding to `out` — the payload
/// [`encode_record`] returns under [`Codec::Binary`], written where the
/// caller wants it (the WAL appender encodes behind a frame header).
pub(crate) fn put_record(out: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::Caches { recv } => {
            out.push(TAG_CACHES);
            binenc::put_len(out, recv.len());
            for (rule, firings) in recv {
                binenc::put_str(out, rule);
                put_firings(out, sorted(firings).into_iter());
            }
        }
        WalRecord::Counters { counters } => {
            out.push(TAG_COUNTERS);
            binenc::put_u64(out, counters.update_seq);
            binenc::put_u64(out, counters.query_seq);
            binenc::put_u64(out, counters.req_seq);
        }
        WalRecord::Applied { rule, firings } => {
            out.push(TAG_APPLIED);
            binenc::put_str(out, rule);
            put_firings(out, firings.iter());
        }
        WalRecord::LocalInsert { relation, tuple } => {
            out.push(TAG_LOCAL_INSERT);
            binenc::put_str(out, relation);
            binenc::put_tuple(out, tuple);
        }
    }
}

/// Decodes one WAL record payload in `codec`. The error is the *reason*
/// string; the caller owns file/offset context for the typed
/// [`StoreError::CorruptFrame`].
pub fn decode_record(payload: &[u8], codec: Codec) -> Result<WalRecord, String> {
    match codec {
        Codec::Json => {
            serde_json::from_slice(payload).map_err(|e| format!("undecodable record: {e}"))
        }
        Codec::Binary => {
            decode_record_binary(payload).map_err(|e| format!("undecodable record: {e}"))
        }
    }
}

fn decode_record_binary(payload: &[u8]) -> Result<WalRecord, BinDecodeError> {
    let mut r = Reader::new(payload);
    let at = r.offset();
    let record = match r.byte()? {
        TAG_CACHES => {
            let n = r.len(2)?;
            let mut recv = RecvCaches::new();
            for _ in 0..n {
                let entry_at = r.offset();
                let rule = r.str()?;
                let firings = take_firings(&mut r)?;
                // The encoding is canonical (each map key once, each set
                // element once): silently collapsing duplicates would
                // mask an encoder bug as a smaller cache.
                let count = firings.len();
                let set: FiringSet = firings.into_iter().collect();
                if set.len() != count {
                    return Err(BinDecodeError {
                        offset: entry_at,
                        detail: format!(
                            "duplicate firing in cache for rule {rule:?} (non-canonical encoding)"
                        ),
                    });
                }
                if recv.insert(rule.clone(), set).is_some() {
                    return Err(BinDecodeError {
                        offset: entry_at,
                        detail: format!("duplicate cache rule {rule:?} (non-canonical encoding)"),
                    });
                }
            }
            WalRecord::Caches { recv }
        }
        TAG_COUNTERS => WalRecord::Counters {
            counters: ProtocolCounters {
                update_seq: r.u64()?,
                query_seq: r.u64()?,
                req_seq: r.u64()?,
            },
        },
        TAG_APPLIED => {
            let rule = r.str()?;
            let firings = take_firings(&mut r)?;
            WalRecord::Applied { rule, firings }
        }
        TAG_LOCAL_INSERT => {
            let relation = r.str()?;
            let tuple = binenc::take_tuple(&mut r)?;
            WalRecord::LocalInsert { relation, tuple }
        }
        t => return Err(BinDecodeError { offset: at, detail: format!("unknown record tag {t}") }),
    };
    r.expect_end()?;
    Ok(record)
}

/// A cache's firings in their structural order: what either codec writes,
/// so the bytes never depend on the process's hash keys.
pub(crate) fn sorted(firings: &FiringSet) -> Vec<&RuleFiring> {
    let mut firings: Vec<&RuleFiring> = firings.iter().collect();
    firings.sort_unstable();
    firings
}

fn put_firings<'a>(out: &mut Vec<u8>, firings: impl ExactSizeIterator<Item = &'a RuleFiring>) {
    binenc::put_len(out, firings.len());
    for f in firings {
        binenc::put_firing(out, f);
    }
}

fn take_firings(r: &mut Reader<'_>) -> Result<Vec<RuleFiring>, BinDecodeError> {
    // A firing with no atoms encodes to a single count byte, so the
    // length sanity bound is 1 byte per element — a 2-byte bound would
    // reject the encoder's own valid output.
    let n = r.len(1)?;
    let mut firings = Vec::with_capacity(n);
    for _ in 0..n {
        firings.push(binenc::take_firing(r)?);
    }
    Ok(firings)
}

// ---- snapshots ----

/// Encodes one snapshot payload in `codec`.
pub fn encode_snapshot(snapshot: &Snapshot, codec: Codec) -> Result<Vec<u8>, StoreError> {
    match codec {
        Codec::Json => Ok(snapshot.to_bytes()?),
        Codec::Binary => Ok(snapshot.to_binary_bytes()),
    }
}

/// Decodes one snapshot payload in `codec` (corruption and version
/// mismatches are typed [`SnapshotError`]s).
pub fn decode_snapshot(payload: &[u8], codec: Codec) -> Result<Snapshot, SnapshotError> {
    match codec {
        Codec::Json => Snapshot::from_bytes(payload),
        Codec::Binary => Snapshot::from_binary_bytes(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codb_relational::glav::TField;
    use codb_relational::{Instance, NullFactory, RelationSchema, Tuple, Value, ValueType};

    fn records() -> Vec<WalRecord> {
        let firing =
            RuleFiring::new([("r", vec![TField::Const(Value::Int(-7)), TField::Fresh(0)])]);
        let mut recv = RecvCaches::new();
        recv.insert("e0".into(), [firing.clone()].into_iter().collect());
        vec![
            WalRecord::Caches { recv },
            WalRecord::Counters {
                counters: ProtocolCounters { update_seq: 3, query_seq: 1, req_seq: u64::MAX },
            },
            WalRecord::Applied { rule: "e1".into(), firings: vec![firing.clone(), firing] },
            WalRecord::LocalInsert {
                relation: "r".into(),
                tuple: Tuple::new(vec![Value::Int(9), Value::str("x"), Value::Bool(true)]),
            },
        ]
    }

    #[test]
    fn records_round_trip_in_both_codecs() {
        for codec in [Codec::Json, Codec::Binary] {
            for record in records() {
                let bytes = encode_record(&record, codec).unwrap();
                assert_eq!(decode_record(&bytes, codec).unwrap(), record, "{codec}");
            }
        }
    }

    #[test]
    fn equal_caches_are_equal_bytes_whatever_the_hash_order() {
        let firing = |k: i64| RuleFiring::new([("r", vec![TField::Const(Value::Int(k))])]);
        // Two sets never share hash keys, so these two iterate differently.
        let ascending: FiringSet = (0..200).map(firing).collect();
        let descending: FiringSet = (0..200).rev().map(firing).collect();
        assert!(!ascending.iter().eq(descending.iter()), "the sets iterate alike");
        let in_order: Vec<RuleFiring> = (0..200).map(firing).collect();
        assert!(sorted(&ascending).into_iter().eq(&in_order));
        for codec in [Codec::Json, Codec::Binary] {
            let [a, b] = [&ascending, &descending].map(|set| {
                let recv = RecvCaches::from([("e0".to_owned(), set.clone())]);
                encode_record(&WalRecord::Caches { recv }, codec).unwrap()
            });
            assert_eq!(a, b, "{codec}");
        }
    }

    #[test]
    fn binary_records_are_smaller_than_json() {
        for record in records() {
            let json = encode_record(&record, Codec::Json).unwrap();
            let binary = encode_record(&record, Codec::Binary).unwrap();
            assert!(binary.len() < json.len(), "{record:?}: {} vs {}", binary.len(), json.len());
        }
    }

    #[test]
    fn snapshots_round_trip_in_both_codecs() {
        let mut inst = Instance::new();
        inst.add_relation(RelationSchema::with_types("r", &[ValueType::Int, ValueType::Str]));
        inst.insert("r", Tuple::new(vec![Value::Int(1), Value::str("a")])).unwrap();
        let snap = Snapshot::capture(&inst, &NullFactory::new(5));
        for codec in [Codec::Json, Codec::Binary] {
            let bytes = encode_snapshot(&snap, codec).unwrap();
            let restored = decode_snapshot(&bytes, codec).unwrap();
            assert_eq!(restored.instance, snap.instance, "{codec}");
        }
    }

    #[test]
    fn magic_detection_is_exact() {
        assert_eq!(Codec::detect_wal(b"CODBWAL1extra"), Some(Codec::Json));
        assert_eq!(Codec::detect_wal(b"CODBWAL2"), Some(Codec::Binary));
        assert_eq!(Codec::detect_snap(b"CODBSNP2"), Some(Codec::Binary));
        assert_eq!(Codec::detect_wal(b"CODBWAL3"), None, "unknown format byte");
        assert_eq!(Codec::detect_wal(b"CODBSNP1"), None, "wrong kind");
        assert_eq!(Codec::detect_wal(b"CODBWAL"), None, "too short");
    }

    #[test]
    fn codec_parses_from_cli_strings() {
        assert_eq!("json".parse::<Codec>().unwrap(), Codec::Json);
        assert_eq!("binary".parse::<Codec>().unwrap(), Codec::Binary);
        assert!("yaml".parse::<Codec>().is_err());
        assert_eq!(Codec::default(), Codec::Binary);
        assert_eq!(Codec::Binary.to_string(), "binary");
    }

    #[test]
    fn empty_firings_round_trip() {
        // A RuleFiring with no atoms encodes to one byte; the decoder's
        // length sanity bound must admit it (regression: a 2-byte bound
        // rejected the encoder's own output and made the WAL frame read
        // as corrupt).
        let record =
            WalRecord::Applied { rule: "r".into(), firings: vec![RuleFiring::new::<&str>([]); 3] };
        for codec in [Codec::Json, Codec::Binary] {
            let bytes = encode_record(&record, codec).unwrap();
            assert_eq!(decode_record(&bytes, codec).unwrap(), record, "{codec}");
        }
    }

    #[test]
    fn non_canonical_cache_payloads_are_rejected() {
        use codb_relational::binenc;
        let firing = RuleFiring::new([("r", vec![TField::Fresh(0)])]);
        // Same rule key encoded twice.
        let mut out = vec![TAG_CACHES];
        binenc::put_len(&mut out, 2);
        for _ in 0..2 {
            binenc::put_str(&mut out, "e0");
            binenc::put_len(&mut out, 1);
            binenc::put_firing(&mut out, &firing);
        }
        let err = decode_record(&out, Codec::Binary).unwrap_err();
        assert!(err.contains("duplicate cache rule"), "{err}");
        // Same firing twice inside one rule's set.
        let mut out = vec![TAG_CACHES];
        binenc::put_len(&mut out, 1);
        binenc::put_str(&mut out, "e0");
        binenc::put_len(&mut out, 2);
        binenc::put_firing(&mut out, &firing);
        binenc::put_firing(&mut out, &firing);
        let err = decode_record(&out, Codec::Binary).unwrap_err();
        assert!(err.contains("duplicate firing"), "{err}");
    }

    #[test]
    fn junk_binary_payloads_are_errors_not_panics() {
        for payload in [&b""[..], &[99][..], &[TAG_COUNTERS][..], &[TAG_CACHES, 0xFF, 0xFF][..]] {
            assert!(decode_record(payload, Codec::Binary).is_err(), "{payload:?}");
        }
        // Trailing garbage after a valid record is corruption too.
        let mut bytes = encode_record(&records()[1], Codec::Binary).unwrap();
        bytes.push(0);
        assert!(decode_record(&bytes, Codec::Binary).is_err());
    }
}
