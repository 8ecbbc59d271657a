//! The one store format: how [`WalRecord`]s and
//! [`Snapshot`](codb_relational::Snapshot)s become the bytes inside the
//! CRC-32 frames, and the magic every store file starts with.
//!
//! Each file starts with an 8-byte magic, [`WAL_MAGIC`] or [`SNAP_MAGIC`],
//! whose eighth byte is the format byte `'2'`: the compact varint/tag
//! encoding of `codb_relational::binenc` — values, tuples, relations (each
//! as its log), receive caches and protocol counters as tagged varints and
//! length-prefixed strings. A file headed by the magic of the JSON format
//! stores wrote before it (`CODBWAL1` / `CODBSNP1`) is refused, unread, as
//! [`StoreError::LegacyFormat`]; any other head is [`StoreError::BadMagic`].
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
//! 0x04 Caches       as 0x00, then k, k × (rule: str, epoch, position)
//! 0x05 Applied      rule: str, epoch, position, n, n × firing
//! ```
//!
//! A record carrying link marks takes the second tag of its kind; one
//! without takes the first, so an unmarked record keeps the bytes it
//! had before the marked tags existed, and stores written then decode.
//!
//! with `firing` and `tuple` as defined in `codb_relational::binenc`. A
//! binary snapshot payload is varint version + null factory + instance.

use crate::store::StoreError;
use crate::wal::{LinkMark, LinkMarks, ProtocolCounters, RecvCaches, WalRecord};
use codb_relational::binenc::{self, BinDecodeError, Reader};
use codb_relational::glav::TField;
use codb_relational::{FiringSet, RuleFiring, Tuple};
use std::path::Path;

/// Length of the magic header of every store file (prefix + format byte).
pub const MAGIC_LEN: usize = 8;

/// The magic a WAL file starts with.
pub const WAL_MAGIC: [u8; MAGIC_LEN] = *b"CODBWAL2";

/// The magic a snapshot file starts with.
pub const SNAP_MAGIC: [u8; MAGIC_LEN] = *b"CODBSNP2";

/// Each kind's magic beside the one its JSON files carried before the
/// binary codec, known only to be refused.
const LEGACY_MAGICS: [(&[u8; MAGIC_LEN], &[u8; MAGIC_LEN]); 2] =
    [(&WAL_MAGIC, b"CODBWAL1"), (&SNAP_MAGIC, b"CODBSNP1")];

/// The payload encoding of a store. There is one, and nothing reads this
/// type: it stays only while `benchmark/` passes it to
/// [`crate::Store::create`] and [`crate::Store::open`] (ROADMAP item 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Compact varint/tag payloads (format byte `'2'`).
    Binary,
}

/// The bytes of store file `file` after its magic, which must be `magic`.
/// A file headed by the legacy JSON magic of its kind is
/// [`StoreError::LegacyFormat`], and any other head
/// [`StoreError::BadMagic`]: nothing past the magic is read.
pub(crate) fn after_magic<'a>(
    file: &Path,
    bytes: &'a [u8],
    magic: &[u8; MAGIC_LEN],
) -> Result<&'a [u8], StoreError> {
    match bytes.split_first_chunk::<MAGIC_LEN>() {
        Some((head, payload)) if head == magic => Ok(payload),
        Some((head, _)) if LEGACY_MAGICS.contains(&(magic, head)) => {
            Err(StoreError::LegacyFormat { file: file.to_owned() })
        }
        _ => Err(StoreError::BadMagic { file: file.to_owned() }),
    }
}

// ---- WAL records ----

const TAG_CACHES: u8 = 0;
const TAG_COUNTERS: u8 = 1;
const TAG_APPLIED: u8 = 2;
const TAG_LOCAL_INSERT: u8 = 3;
const TAG_CACHES_MARKED: u8 = 4;
const TAG_APPLIED_MARKED: u8 = 5;

/// Encodes one WAL record (binary).
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_record(&mut out, record);
    out
}

/// Appends `record`'s binary encoding to `out` — the payload
/// [`encode_record`] returns, written where the caller wants it (the WAL
/// appender encodes behind a frame header).
pub(crate) fn put_record(out: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::Caches { recv, marks } => {
            out.push(if marks.is_empty() { TAG_CACHES } else { TAG_CACHES_MARKED });
            binenc::put_len(out, recv.len());
            for (rule, firings) in recv {
                binenc::put_str(out, rule);
                put_firings(out, sorted(firings).into_iter());
            }
            if !marks.is_empty() {
                binenc::put_len(out, marks.len());
                for (rule, mark) in marks {
                    binenc::put_str(out, rule);
                    put_mark(out, mark);
                }
            }
        }
        WalRecord::Counters { counters } => {
            out.push(TAG_COUNTERS);
            binenc::put_u64(out, counters.update_seq);
            binenc::put_u64(out, counters.query_seq);
            binenc::put_u64(out, counters.req_seq);
        }
        WalRecord::Applied { rule, firings, mark } => {
            out.push(if mark.is_some() { TAG_APPLIED_MARKED } else { TAG_APPLIED });
            binenc::put_str(out, rule);
            if let Some(mark) = mark {
                put_mark(out, mark);
            }
            put_firings(out, firings.iter());
        }
        WalRecord::LocalInsert { relation, tuple } => {
            out.push(TAG_LOCAL_INSERT);
            binenc::put_str(out, relation);
            binenc::put_tuple(out, tuple);
        }
    }
}

/// Decodes one WAL record payload. The error is the *reason* string; the
/// caller owns file/offset context for the typed
/// [`StoreError::CorruptFrame`].
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    decode_record_binary(payload).map_err(undecodable)
}

/// The reason a binary record that failed to decode is corrupt.
pub(crate) fn undecodable(e: BinDecodeError) -> String {
    format!("undecodable record: {e}")
}

fn decode_record_binary(payload: &[u8]) -> Result<WalRecord, BinDecodeError> {
    let mut r = Reader::new(payload);
    let record = match take_head(&mut r)? {
        Head::Applied { rule, mark } => {
            WalRecord::Applied { rule, firings: take_firings(&mut r)?, mark }
        }
        Head::Whole(record) => record,
    };
    r.expect_end()?;
    Ok(record)
}

/// A binary record read up to where replay acts on it: an `Applied`
/// record's link and mark, its firings still to read, or any other record
/// whole. [`decode_record`] and replay both read a record through it.
pub(crate) enum Head {
    /// An `Applied` record, read up to its firings.
    Applied {
        /// The link the data arrived on.
        rule: String,
        /// The link's mark, where the batch moved it.
        mark: Option<LinkMark>,
    },
    /// Any other record.
    Whole(WalRecord),
}

/// Reads a binary record's tag and payload up to [`Head`]'s end; the
/// caller checks that nothing trails the record.
pub(crate) fn take_head(r: &mut Reader<'_>) -> Result<Head, BinDecodeError> {
    let at = r.offset();
    let record = match r.byte()? {
        tag @ (TAG_CACHES | TAG_CACHES_MARKED) => {
            let n = r.len(2)?;
            let mut recv = RecvCaches::new();
            for _ in 0..n {
                let entry_at = r.offset();
                let rule = r.str()?;
                let firings = take_firings(r)?;
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
            let mut marks = LinkMarks::new();
            if tag == TAG_CACHES_MARKED {
                let n = r.len(3)?;
                for _ in 0..n {
                    let entry_at = r.offset();
                    let rule = r.str()?;
                    if marks.insert(rule.clone(), take_mark(r)?).is_some() {
                        return Err(BinDecodeError {
                            offset: entry_at,
                            detail: format!(
                                "duplicate mark rule {rule:?} (non-canonical encoding)"
                            ),
                        });
                    }
                }
                if marks.is_empty() {
                    return Err(BinDecodeError {
                        offset: at,
                        detail: "marked cache record with no mark (non-canonical encoding)".into(),
                    });
                }
            }
            WalRecord::Caches { recv, marks }
        }
        TAG_COUNTERS => WalRecord::Counters {
            counters: ProtocolCounters {
                update_seq: r.u64()?,
                query_seq: r.u64()?,
                req_seq: r.u64()?,
            },
        },
        tag @ (TAG_APPLIED | TAG_APPLIED_MARKED) => {
            let rule = r.str()?;
            let mark = if tag == TAG_APPLIED_MARKED { Some(take_mark(r)?) } else { None };
            return Ok(Head::Applied { rule, mark });
        }
        TAG_LOCAL_INSERT => {
            let relation = r.str()?;
            let tuple = binenc::take_tuple(r)?;
            WalRecord::LocalInsert { relation, tuple }
        }
        t => return Err(BinDecodeError { offset: at, detail: format!("unknown record tag {t}") }),
    };
    Ok(Head::Whole(record))
}

/// Reads the firings of an `Applied` record ([`Head::Applied`]) where
/// each is one ground atom of one relation: that relation's name, and in
/// `tuples` (emptied first) the atoms' tuples, in the record's order.
/// `None` where the record holds no firing or one of another shape: it
/// then decodes whole ([`decode_record`]). A field is read as a firing's
/// is ([`binenc::take_tfield`]); a name after the first is compared with
/// it, bytes to bytes, and never built.
pub(crate) fn take_ground_batch(
    r: &mut Reader<'_>,
    tuples: &mut Vec<Tuple>,
) -> Result<Option<String>, BinDecodeError> {
    tuples.clear();
    let n = firing_count(r)?;
    let mut relation: Option<String> = None;
    let mut values = Vec::new();
    for _ in 0..n {
        if r.len(2)? != 1 {
            return Ok(None);
        }
        match &relation {
            Some(relation) if relation.as_bytes() != r.str_bytes()?.1 => return Ok(None),
            Some(_) => {}
            None => relation = Some(r.str()?),
        }
        let fields = r.len(1)?;
        values.reserve(fields);
        for _ in 0..fields {
            match binenc::take_tfield(r)? {
                TField::Const(v) => values.push(v),
                TField::Fresh(_) => return Ok(None),
            }
        }
        tuples.push(values.drain(..).collect());
    }
    Ok(relation)
}

/// A cache's firings in their structural order, as a record writes them,
/// so the bytes never depend on the process's hash keys.
fn sorted(firings: &FiringSet) -> Vec<&RuleFiring> {
    let mut firings: Vec<&RuleFiring> = firings.iter().collect();
    firings.sort_unstable();
    firings
}

fn put_mark(out: &mut Vec<u8>, mark: &LinkMark) {
    binenc::put_u64(out, mark.epoch);
    binenc::put_u64(out, mark.position);
}

fn take_mark(r: &mut Reader<'_>) -> Result<LinkMark, BinDecodeError> {
    Ok(LinkMark { epoch: r.u64()?, position: r.u64()? })
}

fn put_firings<'a>(out: &mut Vec<u8>, firings: impl ExactSizeIterator<Item = &'a RuleFiring>) {
    binenc::put_len(out, firings.len());
    for f in firings {
        binenc::put_firing(out, f);
    }
}

/// A record's firing count. A firing with no atoms encodes to a single
/// count byte, so the length sanity bound is 1 byte per element — a
/// 2-byte bound would reject the encoder's own valid output.
fn firing_count(r: &mut Reader<'_>) -> Result<usize, BinDecodeError> {
    r.len(1)
}

fn take_firings(r: &mut Reader<'_>) -> Result<Vec<RuleFiring>, BinDecodeError> {
    let n = firing_count(r)?;
    let mut firings = Vec::with_capacity(n);
    let mut reader = binenc::FiringReader::default();
    for _ in 0..n {
        firings.push(reader.take(r)?);
    }
    Ok(firings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use codb_relational::glav::TField;
    use codb_relational::{
        Instance, NullFactory, RelationSchema, Snapshot, Tuple, Value, ValueType,
    };

    fn records() -> Vec<WalRecord> {
        let firing =
            RuleFiring::new([("r", vec![TField::Const(Value::Int(-7)), TField::Fresh(0)])]);
        let mut recv = RecvCaches::new();
        recv.insert("e0".into(), [firing.clone()].into_iter().collect());
        vec![
            WalRecord::Caches { recv, marks: Default::default() },
            WalRecord::Counters {
                counters: ProtocolCounters { update_seq: 3, query_seq: 1, req_seq: u64::MAX },
            },
            WalRecord::Applied {
                rule: "e1".into(),
                firings: vec![firing.clone(), firing],
                mark: None,
            },
            WalRecord::LocalInsert {
                relation: "r".into(),
                tuple: Tuple::new(vec![Value::Int(9), Value::str("x"), Value::Bool(true)]),
            },
        ]
    }

    /// [`records`] as a legacy JSON WAL held them, byte for byte.
    const LEGACY_JSON: [&str; 4] = [
        r#"{"Caches":{"recv":[["e0",[{"atoms":[["r",[{"Const":{"Int":-7}},{"Fresh":0}]]]}]]]}}"#,
        r#"{"Counters":{"counters":{"query_seq":1,"req_seq":18446744073709551615,"update_seq":3}}}"#,
        r#"{"Applied":{"firings":[{"atoms":[["r",[{"Const":{"Int":-7}},{"Fresh":0}]]]},{"atoms":[["r",[{"Const":{"Int":-7}},{"Fresh":0}]]]}],"rule":"e1"}}"#,
        r#"{"LocalInsert":{"relation":"r","tuple":[{"Int":9},{"Str":"x"},{"Bool":true}]}}"#,
    ];

    #[test]
    fn records_round_trip_in_both_codecs() {
        for record in records() {
            assert_eq!(decode_record(&encode_record(&record)).unwrap(), record);
        }
    }

    /// A record with marks takes its own tag and round-trips; one
    /// without keeps its bytes; a marked cache record
    /// naming no mark is not canonical.
    #[test]
    fn marked_records_round_trip_and_unmarked_ones_keep_their_bytes() {
        let mark = LinkMark { epoch: 3, position: 300 };
        let mut records = records();
        let unmarked: Vec<Vec<u8>> = records.iter().map(encode_record).collect();
        for record in &mut records {
            match record {
                WalRecord::Caches { marks, .. } => {
                    marks.insert("e0".into(), mark);
                }
                WalRecord::Applied { mark: m, .. } => *m = Some(mark),
                _ => {}
            }
        }
        for (record, before) in records.iter().zip(&unmarked) {
            let bytes = encode_record(record);
            assert_eq!(decode_record(&bytes).unwrap(), *record);
            let marked = matches!(record, WalRecord::Caches { .. } | WalRecord::Applied { .. });
            assert_eq!(bytes[0] != before[0], marked, "{record:?}");
        }
        assert_eq!(unmarked[0][0], TAG_CACHES);
        assert_eq!(unmarked[2][0], TAG_APPLIED);
        let mut empty = unmarked[0].clone();
        empty[0] = TAG_CACHES_MARKED;
        empty.push(0);
        assert!(decode_record(&empty).is_err());
    }

    /// An `Applied` record's firings read as a ground batch — its
    /// relation and tuples, in order, duplicates kept — only where each is
    /// one ground atom of one relation; the head reads the same either way.
    #[test]
    fn only_firings_of_one_ground_relation_read_as_a_batch() {
        let ground =
            |rel: &str, k: i64| RuleFiring::new([(rel, vec![TField::Const(Value::Int(k))])]);
        let template =
            RuleFiring::new([("r", vec![TField::Const(Value::Int(5)), TField::Fresh(0)])]);
        let two = RuleFiring::new([
            ("r", vec![TField::Const(Value::Int(6))]),
            ("r", vec![TField::Const(Value::Int(7))]),
        ]);
        let mark = Some(LinkMark { epoch: 1, position: 2 });
        let read = |firings: Vec<RuleFiring>| {
            let bytes = encode_record(&WalRecord::Applied { rule: "g".into(), firings, mark });
            let mut r = Reader::new(&bytes);
            match take_head(&mut r).unwrap() {
                Head::Applied { rule, mark: m } => assert_eq!((rule.as_str(), m), ("g", mark)),
                Head::Whole(record) => panic!("{record:?}"),
            }
            let mut tuples = vec![Tuple::new(vec![Value::Int(0)])];
            let relation = take_ground_batch(&mut r, &mut tuples).unwrap();
            relation.map(|relation| {
                r.expect_end().unwrap();
                (relation, tuples)
            })
        };
        let t = |k: i64| Tuple::new(vec![Value::Int(k)]);
        let batch = vec![ground("r", 1), ground("r", 2), ground("r", 1)];
        assert_eq!(read(batch), Some(("r".to_owned(), vec![t(1), t(2), t(1)])));
        assert_eq!(read(vec![]), None);
        assert_eq!(read(vec![ground("r", 1), ground("s", 2)]), None);
        assert_eq!(read(vec![ground("r", 1), template]), None);
        assert_eq!(read(vec![ground("r", 1), two]), None);
        // Any other record comes back whole.
        let bytes = encode_record(&records()[1]);
        assert!(
            matches!(take_head(&mut Reader::new(&bytes)), Ok(Head::Whole(r)) if r == records()[1])
        );
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
        let [a, b] = [&ascending, &descending].map(|set| {
            let recv = RecvCaches::from([("e0".to_owned(), set.clone())]);
            encode_record(&WalRecord::Caches { recv, marks: Default::default() })
        });
        assert_eq!(a, b);
    }

    #[test]
    fn binary_records_are_smaller_than_json() {
        for (record, json) in records().iter().zip(LEGACY_JSON) {
            let binary = encode_record(record);
            assert!(binary.len() < json.len(), "{record:?}: {} vs {}", binary.len(), json.len());
        }
    }

    #[test]
    fn snapshots_round_trip_in_both_codecs() {
        let mut inst = Instance::new();
        inst.add_relation(RelationSchema::with_types("r", &[ValueType::Int, ValueType::Str]));
        inst.insert("r", Tuple::new(vec![Value::Int(1), Value::str("a")])).unwrap();
        let snap = Snapshot::capture(&inst, &NullFactory::new(5));
        let restored = Snapshot::from_binary_bytes(&snap.to_binary_bytes()).unwrap();
        assert_eq!(restored.instance, snap.instance);
        assert_eq!(restored.nulls.origin(), 5);
    }

    /// A file reads past its magic only where the magic is its kind's
    /// binary one; the legacy JSON magic of its kind is refused as such.
    #[test]
    fn magic_detection_is_exact() {
        let file = Path::new("codb-0000000000.wal");
        let read = |bytes: &[u8]| after_magic(file, bytes, &WAL_MAGIC).map(<[u8]>::to_vec);
        assert_eq!(read(b"CODBWAL2extra").unwrap(), b"extra");
        assert_eq!(after_magic(file, b"CODBSNP2", &SNAP_MAGIC).unwrap(), b"");
        assert!(matches!(read(b"CODBWAL1extra"), Err(StoreError::LegacyFormat { .. })));
        assert!(matches!(
            after_magic(file, b"CODBSNP1", &SNAP_MAGIC),
            Err(StoreError::LegacyFormat { .. })
        ));
        for (bytes, why) in [
            (&b"CODBWAL3"[..], "unknown format byte"),
            (b"CODBSNP1", "a snapshot's legacy magic on a WAL"),
            (b"CODBSNP2", "wrong kind"),
            (b"CODBWAL", "too short"),
        ] {
            assert!(matches!(read(bytes), Err(StoreError::BadMagic { .. })), "{why}");
        }
    }

    #[test]
    fn empty_firings_round_trip() {
        // A RuleFiring with no atoms encodes to one byte; the decoder's
        // length sanity bound must admit it (regression: a 2-byte bound
        // rejected the encoder's own output and made the WAL frame read
        // as corrupt).
        let record = WalRecord::Applied {
            rule: "r".into(),
            firings: vec![RuleFiring::new::<&str>([]); 3],
            mark: None,
        };
        let bytes = encode_record(&record);
        assert_eq!(decode_record(&bytes).unwrap(), record);
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
        let err = decode_record(&out).unwrap_err();
        assert!(err.contains("duplicate cache rule"), "{err}");
        // Same firing twice inside one rule's set.
        let mut out = vec![TAG_CACHES];
        binenc::put_len(&mut out, 1);
        binenc::put_str(&mut out, "e0");
        binenc::put_len(&mut out, 2);
        binenc::put_firing(&mut out, &firing);
        binenc::put_firing(&mut out, &firing);
        let err = decode_record(&out).unwrap_err();
        assert!(err.contains("duplicate firing"), "{err}");
    }

    #[test]
    fn junk_binary_payloads_are_errors_not_panics() {
        for payload in [&b""[..], &[99][..], &[TAG_COUNTERS][..], &[TAG_CACHES, 0xFF, 0xFF][..]] {
            assert!(decode_record(payload).is_err(), "{payload:?}");
        }
        // Trailing garbage after a valid record is corruption too.
        let mut bytes = encode_record(&records()[1]);
        bytes.push(0);
        assert!(decode_record(&bytes).is_err());
    }
}
