//! Property tests for the on-disk format: WAL frame encode/decode and
//! snapshot save/load round-trips, plus adversarial corruption — a flipped
//! bit must surface as a checksum error, a truncated tail must recover
//! cleanly, and nothing may be silently mis-read — exhaustively on the
//! committed `tests/fixtures/golden-binary` store's bytes, too.

use codb_relational::glav::TField;
use codb_relational::{
    binenc, Instance, NullFactory, NullId, RelationSchema, RuleFiring, Snapshot, Tuple, Value,
    ValueType,
};
use codb_store::wal::{read_wal, WalWriter};
use codb_store::{
    Codec, FsyncScheduler, LinkMark, ProtocolCounters, RecvCaches, ScratchDir, Store, StoreError,
    SyncPolicy, WalRecord,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Short names drawn from a small pool (the shim has no regex strategy).
fn arb_name() -> impl Strategy<Value = String> {
    (0u32..6).prop_map(|i| format!("rel{i}"))
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (0u32..40).prop_map(|i| Value::str(format!("s{i}"))),
        any::<bool>().prop_map(Value::Bool),
        (0u64..5, 0u64..50).prop_map(|(o, s)| Value::Null(NullId::new(o, s))),
    ]
}

fn arb_tfield() -> impl Strategy<Value = TField> {
    prop_oneof![arb_value().prop_map(TField::Const), (0u32..4).prop_map(TField::Fresh)]
}

/// What a firing is made of: `(relation, fields)` per head atom.
fn arb_atoms() -> impl Strategy<Value = Vec<(String, Vec<TField>)>> {
    proptest::collection::vec((arb_name(), proptest::collection::vec(arb_tfield(), 1..4)), 1..3)
}

fn arb_firing() -> impl Strategy<Value = RuleFiring> {
    arb_atoms().prop_map(RuleFiring::new)
}

fn arb_caches() -> impl Strategy<Value = RecvCaches> {
    proptest::collection::btree_map(
        arb_name(),
        proptest::collection::btree_set(arb_firing(), 0..3)
            .prop_map(|set| set.into_iter().collect()),
        0..3,
    )
}

fn arb_counters() -> impl Strategy<Value = ProtocolCounters> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(update_seq, query_seq, req_seq)| {
        ProtocolCounters { update_seq, query_seq, req_seq }
    })
}

fn arb_mark() -> impl Strategy<Value = LinkMark> {
    (any::<u64>(), any::<u64>()).prop_map(|(epoch, position)| LinkMark { epoch, position })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (arb_caches(), proptest::collection::btree_map(arb_name(), arb_mark(), 0..3))
            .prop_map(|(recv, marks)| WalRecord::Caches { recv, marks }),
        arb_counters().prop_map(|counters| WalRecord::Counters { counters }),
        (arb_name(), proptest::collection::vec(arb_firing(), 1..4), any::<bool>(), arb_mark())
            .prop_map(|(rule, firings, marked, mark)| {
                WalRecord::Applied { rule, firings, mark: marked.then_some(mark) }
            }),
        (arb_name(), proptest::collection::vec(arb_value(), 1..4)).prop_map(
            |(relation, values)| WalRecord::LocalInsert { relation, tuple: Tuple::new(values) }
        ),
    ]
}

/// Arbitrary instances: 0–3 relations with arbitrary schemas (1–3 typed
/// columns each) and type-correct rows, nulls sprinkled into any column.
/// Raw material (a fixed-width cell per potential column) is drawn first
/// and coerced to each relation's schema in the final map — the shim has
/// no `prop_flat_map`, so schema-dependent generation happens here.
fn arb_instance() -> impl Strategy<Value = Instance> {
    let arb_type = prop_oneof![Just(ValueType::Int), Just(ValueType::Str), Just(ValueType::Bool)];
    // (make-it-a-null?, int payload, string-pool id, bool payload)
    let raw_cell = (any::<bool>(), any::<i64>(), 0u32..10, any::<bool>());
    let raw_row = proptest::collection::vec(raw_cell, 3..4); // max arity cells
    let arb_rel = (
        arb_name(),
        proptest::collection::vec(arb_type, 1..4),
        proptest::collection::vec(raw_row, 0..6),
    );
    proptest::collection::vec(arb_rel, 0..4).prop_map(|rels| {
        let mut inst = Instance::new();
        for (name, types, rows) in rels {
            // Same-named relations collapse (last wins), like add_relation.
            inst.add_relation(RelationSchema::with_types(&name, &types));
            for row in rows {
                let values: Vec<Value> = types
                    .iter()
                    .zip(row)
                    .map(|(ty, (null, i, sid, b))| {
                        if null {
                            Value::Null(NullId::new(i.unsigned_abs() % 4, sid as u64))
                        } else {
                            match ty {
                                ValueType::Int => Value::Int(i),
                                ValueType::Str => Value::str(format!("v{sid}")),
                                ValueType::Bool => Value::Bool(b),
                            }
                        }
                    })
                    .collect();
                inst.insert(&name, Tuple::new(values)).unwrap();
            }
        }
        inst
    })
}

/// A file of the committed golden store.
fn fixture(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden-binary").join(file)
}

/// A fresh binary WAL at `path` holding `records`.
fn write_wal(path: &Path, records: &[WalRecord]) {
    let mut w =
        WalWriter::create(path, &FsyncScheduler::for_store(SyncPolicy::Never, None)).unwrap();
    for r in records {
        w.append(r).unwrap();
    }
    w.sync().unwrap();
}

/// A small instance over a two-column schema with `rows` random rows.
fn instance_with(rows: &[(i64, i64)], with_null: bool) -> (Instance, NullFactory) {
    let mut inst = Instance::new();
    inst.add_relation(RelationSchema::with_types("r", &[ValueType::Int, ValueType::Int]));
    for (a, b) in rows {
        inst.insert("r", Tuple::new(vec![Value::Int(*a), Value::Int(*b)])).unwrap();
    }
    let mut nulls = NullFactory::new(3);
    if with_null {
        let n = nulls.fresh();
        inst.get_mut("r")
            .unwrap()
            .insert(Tuple::new(vec![Value::Int(-1), Value::Null(n)]))
            .unwrap();
    }
    (inst, nulls)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(48), ..ProptestConfig::default() })]

    /// Frame encode/decode: any record sequence survives the WAL.
    #[test]
    fn wal_records_round_trip(records in proptest::collection::vec(arb_record(), 0..12)) {
        let dir = ScratchDir::new("prop-wal-rt");
        let path = dir.path().join("codb-0000000000.wal");
        write_wal(&path, &records);
        let contents = read_wal(&path).unwrap();
        prop_assert_eq!(contents.records, records);
        prop_assert!(!contents.torn_tail);
    }

    /// A firing handle is its atom list: handles order and compare as the
    /// plain lists do, and a twin built separately or read back from
    /// binary — another allocation, its hash not yet computed — is `==`,
    /// compares `Equal` and hashes alike, so a cache recovered from disk
    /// suppresses a freshly fired duplicate.
    #[test]
    fn firing_handles_compare_and_hash_as_their_atoms(a in arb_atoms(), b in arb_atoms()) {
        use std::hash::BuildHasher;
        let (fa, fb) = (RuleFiring::new(a.clone()), RuleFiring::new(b.clone()));
        prop_assert_eq!(fa.cmp(&fb), a.cmp(&b));
        prop_assert_eq!(fa == fb, a == b);

        let mut bytes = Vec::new();
        binenc::put_firing(&mut bytes, &fa);
        let from_binary = binenc::take_firing(&mut binenc::Reader::new(&bytes)).unwrap();
        let hasher = std::collections::hash_map::RandomState::new();
        let cache: std::collections::HashSet<RuleFiring> = [fa.clone()].into_iter().collect();
        for twin in [RuleFiring::new(a), from_binary] {
            prop_assert!(!twin.ptr_eq(&fa));
            prop_assert_eq!(&twin, &fa);
            prop_assert_eq!(twin.cmp(&fa), std::cmp::Ordering::Equal);
            prop_assert_eq!(hasher.hash_one(&twin), hasher.hash_one(&fa));
            prop_assert!(cache.contains(&twin));
        }
    }

    /// Snapshot save/load through the store: create + open reproduces the
    /// instance, the null factory and the receive caches exactly.
    #[test]
    fn snapshot_round_trips_through_store(
        rows in proptest::collection::vec((any::<i64>(), any::<i64>()), 0..20),
        with_null in any::<bool>(),
        recv in arb_caches(),
    ) {
        let dir = ScratchDir::new("prop-snap-rt");
        let (inst, nulls) = instance_with(&rows, with_null);
        let store = Store::create(
            dir.path(),
            &Snapshot::capture(&inst, &nulls),
            &recv,
            &ProtocolCounters::default(),
            SyncPolicy::Never,
            Codec::Binary,
        )
        .unwrap();
        drop(store);
        let (_s, rec) = Store::open(dir.path(), SyncPolicy::Never, Codec::Binary).unwrap();
        prop_assert_eq!(rec.instance, inst);
        prop_assert_eq!(rec.nulls.invented(), nulls.invented());
        prop_assert_eq!(rec.recv_cache, recv);
    }

    /// Protocol-counter records round-trip through live WAL appends, WAL
    /// replay, and snapshot compaction: whatever sequence of counter bumps
    /// the node logged, recovery resumes from the *last* one — the
    /// guarantee that stops a rejoined initiator from minting colliding
    /// update/query ids.
    #[test]
    fn counters_round_trip_through_replay_and_compaction(
        seed in arb_counters(),
        bumps in proptest::collection::vec(arb_counters(), 0..8),
        checkpoint_at in 0usize..9,
    ) {
        let dir = ScratchDir::new("prop-counters");
        let (inst, nulls) = instance_with(&[(1, 2)], false);
        let snap = Snapshot::capture(&inst, &nulls);
        let mut store = Store::create(
            dir.path(),
            &snap,
            &RecvCaches::new(),
            &seed,
            SyncPolicy::Never,
            Codec::Binary,
        )
        .unwrap();
        let mut live = seed;
        for (i, c) in bumps.iter().enumerate() {
            store.append(&WalRecord::Counters { counters: *c }).unwrap();
            live = *c;
            if i + 1 == checkpoint_at {
                // Mid-sequence compaction must carry the counters across.
                store.checkpoint(&snap, &RecvCaches::new(), &live).unwrap();
            }
        }
        store.sync().unwrap();
        drop(store);
        let (_s, rec) = Store::open(dir.path(), SyncPolicy::Never, Codec::Binary).unwrap();
        prop_assert_eq!(rec.counters, live, "recovery resumes from the last counter record");
        // A second open (after the incarnation bump) still agrees.
        let (_s2, rec2) = Store::open(dir.path(), SyncPolicy::Never, Codec::Binary).unwrap();
        prop_assert_eq!(rec2.counters, live);
        prop_assert!(rec2.epoch > rec.epoch, "every open is a new incarnation");
    }

    /// Log order survives a clean shutdown: every relation reopens with
    /// the identical `filed()` sequence, whether its tuples come back from
    /// the checkpointed snapshot or from the WAL tail replayed on top.
    #[test]
    fn log_order_survives_a_reopen(
        rows in proptest::collection::vec((any::<bool>(), -20i64..20, -20i64..20), 0..40),
        checkpoint_at in 0usize..41,
    ) {
        let dir = ScratchDir::new("prop-log-order");
        let (mut inst, mut nulls) = instance_with(&[], false);
        let (mut recv, counters) = (RecvCaches::new(), ProtocolCounters::default());
        let snap = Snapshot::capture(&inst, &nulls);
        let mut store =
            Store::create(dir.path(), &snap, &recv, &counters, SyncPolicy::Never, Codec::Binary)
                .unwrap();
        for (i, (local, a, b)) in rows.into_iter().enumerate() {
            if i == checkpoint_at {
                store.checkpoint(&Snapshot::capture(&inst, &nulls), &recv, &counters).unwrap();
            }
            if local {
                let tuple = Tuple::new(vec![Value::Int(a), Value::Int(b)]);
                if inst.insert("r", tuple.clone()).unwrap() {
                    store.append(&WalRecord::LocalInsert { relation: "r".into(), tuple }).unwrap();
                }
            } else {
                // An arriving firing, with a placeholder for every even `a`.
                let b = if a % 2 == 0 { TField::Fresh(0) } else { TField::Const(Value::Int(b)) };
                let mut firings = vec![RuleFiring::new([("r", vec![TField::Const(Value::Int(a)), b])])];
                codb_store::apply_arrived(&mut inst, &mut nulls, &mut recv, "e", &mut firings)
                    .unwrap();
                if !firings.is_empty() {
                    store.append(&WalRecord::Applied { rule: "e".into(), firings, mark: None }).unwrap();
                }
            }
        }
        store.sync().unwrap();
        drop(store);
        let (_s, rec) = Store::open(dir.path(), SyncPolicy::Never, Codec::Binary).unwrap();
        for rel in inst.relations() {
            prop_assert_eq!(rec.instance.get(rel.name()).unwrap().filed(), rel.filed());
        }
    }

    /// Truncating the WAL at any point recovers cleanly: the surviving
    /// records are a prefix, and a mid-frame cut is flagged as torn.
    #[test]
    fn any_truncation_recovers_a_prefix(
        records in proptest::collection::vec(arb_record(), 1..8),
        cut_fraction in 0.0f64..1.0,
    ) {
        let dir = ScratchDir::new("prop-wal-cut");
        let path = dir.path().join("codb-0000000000.wal");
        write_wal(&path, &records);
        let bytes = std::fs::read(&path).unwrap();
        // Keep at least the magic; cut anywhere after it.
        let keep = 8 + ((bytes.len() - 8) as f64 * cut_fraction) as usize;
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let contents = read_wal(&path).unwrap();
        prop_assert!(contents.records.len() <= records.len());
        prop_assert_eq!(
            &records[..contents.records.len()],
            &contents.records[..],
            "survivors must be a prefix"
        );
        if contents.torn_tail {
            // A mid-frame cut: the partial frame is excluded.
            prop_assert!(contents.records.len() < records.len());
            prop_assert!((contents.valid_len as usize) < keep);
        } else {
            // A cut exactly on a frame boundary consumes every kept byte.
            prop_assert_eq!(contents.valid_len as usize, keep);
        }
    }

    /// A single flipped bit anywhere in the WAL is never silently
    /// accepted: every flip surfaces as a typed error — a checksum or
    /// length-check mismatch (`CorruptFrame`) or damaged magic
    /// (`BadMagic`). In particular a flipped length field must NOT read
    /// as a torn tail (that would silently truncate the records behind
    /// it); the `!len` complement in the frame header guarantees this.
    #[test]
    fn any_bit_flip_is_a_typed_error(
        records in proptest::collection::vec(arb_record(), 1..6),
        pos_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = ScratchDir::new("prop-wal-flip");
        let path = dir.path().join("codb-0000000000.wal");
        write_wal(&path, &records);
        let mut bytes = std::fs::read(&path).unwrap();
        // Cover the whole file including the final byte (the fraction is
        // drawn from [0, 1), so scale by len and clamp).
        let pos = ((bytes.len() as f64 * pos_fraction) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        match read_wal(&path) {
            Err(StoreError::CorruptFrame { .. }) | Err(StoreError::BadMagic { .. }) => {}
            Ok(contents) => {
                return Err(TestCaseError::fail(format!(
                    "flip at byte {pos} bit {bit} passed unnoticed: {} records, torn={}",
                    contents.records.len(),
                    contents.torn_tail
                )));
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        }
    }

    /// Any instance's snapshot round-trips through the binary codec purely
    /// in memory — decode(encode(x)) == x, the log in its order.
    #[test]
    fn arbitrary_snapshots_round_trip_in_both_codecs(
        inst in arb_instance(),
        origin in 0u64..9,
        invented in 0u64..1000,
    ) {
        let snap = Snapshot::capture(&inst, &NullFactory::from_parts(origin, invented));
        let from_binary = Snapshot::from_binary_bytes(&snap.to_binary_bytes()).unwrap();
        prop_assert_eq!(&from_binary.instance, &inst);
        for rel in inst.relations() {
            prop_assert_eq!(from_binary.instance.get(rel.name()).unwrap().filed(), rel.filed());
        }
        prop_assert_eq!(from_binary.nulls.origin(), origin);
        prop_assert_eq!(from_binary.nulls.invented(), invented);
    }

    /// The decoders survive arbitrary bytes: junk is a typed error, never
    /// a panic (the CRC frames catch flips before decode in practice; this
    /// pins the decoders' own robustness without them).
    #[test]
    fn arbitrary_bytes_never_panic_the_binary_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let _ = codb_store::codec::decode_record(&bytes);
        let _ = Snapshot::from_binary_bytes(&bytes);
    }
}

/// Every cut of the committed golden WAL reads as a prefix of its
/// records — torn exactly when the cut falls inside a frame — and every
/// single-bit flip of it is a typed error.
#[test]
fn every_cut_and_bit_flip_of_the_golden_binary_wal_is_a_prefix_or_a_typed_error() {
    let original = std::fs::read(fixture("codb-0000000000.wal")).unwrap();
    let dir = ScratchDir::new("golden-wal-cut");
    let path = dir.path().join("codb-0000000000.wal");
    let records = read_wal(&fixture("codb-0000000000.wal")).unwrap().records;
    assert_eq!(records.len(), 5);
    for keep in 8..=original.len() {
        std::fs::write(&path, &original[..keep]).unwrap();
        let contents = read_wal(&path).unwrap_or_else(|e| panic!("cut at {keep}: {e}"));
        assert_eq!(&records[..contents.records.len()], &contents.records[..], "cut at {keep}");
        assert_eq!(contents.torn_tail, (contents.valid_len as usize) < keep, "cut at {keep}");
    }
    for pos in 0..original.len() {
        for bit in 0..8 {
            let mut bytes = original.clone();
            bytes[pos] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();
            match read_wal(&path) {
                Err(StoreError::CorruptFrame { .. }) | Err(StoreError::BadMagic { .. }) => {}
                other => panic!("flip at byte {pos} bit {bit} not caught: {other:?}"),
            }
        }
    }
}

/// Bit-flips inside the snapshot file are caught by its frame checksum —
/// in a fresh store, and (every bit) in the committed golden store's.
#[test]
fn snapshot_bit_flip_is_checksum_error() {
    let fresh = ScratchDir::new("snap-flip");
    let (inst, nulls) = instance_with(&[(1, 2), (3, 4)], true);
    let store = Store::create(
        fresh.path(),
        &Snapshot::capture(&inst, &nulls),
        &RecvCaches::new(),
        &ProtocolCounters::default(),
        SyncPolicy::Never,
        Codec::Binary,
    )
    .unwrap();
    drop(store);
    let golden = ScratchDir::new("snap-flip-golden");
    for file in ["codb-0000000000.snap", "codb-0000000000.wal", "codb.epoch"] {
        std::fs::copy(fixture(file), golden.path().join(file)).unwrap();
    }
    for (dir, bits) in [(&fresh, [0x04].as_slice()), (&golden, &[1, 2, 4, 8, 16, 32, 64, 128])] {
        let snap = dir.path().join("codb-0000000000.snap");
        let original = std::fs::read(&snap).unwrap();
        // Flip every byte position in turn (a cheap exhaustive sweep: the
        // file is small) and require a loud failure each time.
        for pos in 0..original.len() {
            for bit in bits {
                let mut bytes = original.clone();
                bytes[pos] ^= bit;
                std::fs::write(&snap, &bytes).unwrap();
                match Store::open(dir.path(), SyncPolicy::Never, Codec::Binary) {
                    Err(StoreError::CorruptFrame { .. }) | Err(StoreError::BadMagic { .. }) => {}
                    other => panic!("flip at byte {pos} ({bit:#x}) not caught: {other:?}"),
                }
            }
        }
    }
}
