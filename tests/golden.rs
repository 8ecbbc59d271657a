//! Golden-file tests: a committed store directory, pinned against byte
//! drift.
//!
//! `tests/fixtures/golden-binary/` is a store in the one format stores
//! write (format byte `'2'`), produced by [`build_golden`] (re-runnable
//! via the `#[ignore]`d regeneration test below). It holds a snapshot, a
//! WAL tail with applied / local-insert / counter records, and the
//! `codb.epoch` file.
//!
//! The writer must still write it byte for byte, and it must recover to
//! the instance / null factory / receive caches / protocol counters /
//! epoch pinned in [`expected_final`], so a future encoder+decoder pair
//! that silently agrees on *different* semantics still fails here, and a
//! disk written today keeps recovering.

use codb::prelude::*;
use codb::relational::glav::TField;
use codb::relational::tup;
use codb::relational::{apply_firings, NullFactory, RuleFiring, Snapshot};
use codb::store::{RecvCaches, ScratchDir};
use std::path::{Path, PathBuf};

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Recursive-free flat copy (store dirs hold only regular files).
fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// A firing already materialised before the snapshot (sits in the receive
/// cache and in the instance).
fn firing_seen() -> RuleFiring {
    RuleFiring::new([(
        "emp",
        vec![TField::Const(Value::str("carol")), TField::Const(Value::Int(25))],
    )])
}

/// A firing applied *after* the snapshot (lives only in the WAL tail; its
/// existential field makes replay consult the null factory).
fn firing_tail() -> RuleFiring {
    RuleFiring::new([("emp", vec![TField::Const(Value::str("dave")), TField::Fresh(0)])])
}

/// The state captured in the fixtures' generation-0 snapshot, plus the
/// caches and counters checkpointed into the WAL head.
fn base_state() -> (Instance, NullFactory, RecvCaches, ProtocolCounters) {
    let mut inst = Instance::new();
    inst.add_relation(RelationSchema::with_types("emp", &[ValueType::Str, ValueType::Int]));
    inst.add_relation(RelationSchema::with_types("flags", &[ValueType::Bool, ValueType::Int]));
    inst.insert("emp", tup!["alice", 30]).unwrap();
    inst.insert("emp", tup!["carol", 25]).unwrap();
    inst.insert("flags", tup![true, 1]).unwrap();
    let mut nulls = NullFactory::new(7);
    let n = nulls.fresh();
    inst.get_mut("emp").unwrap().insert(Tuple::new(vec![Value::Null(n), Value::Int(41)])).unwrap();
    let mut recv = RecvCaches::new();
    recv.insert("r_in".to_owned(), [firing_seen()].into_iter().collect());
    let counters = ProtocolCounters { update_seq: 3, query_seq: 1, req_seq: 9 };
    (inst, nulls, recv, counters)
}

/// Builds one golden store directory: generation-0 snapshot of
/// [`base_state`] plus a WAL tail of one applied firing, one local insert
/// and one counter bump. Epoch stays 0 (no reopen).
fn build_golden(dir: &Path) {
    let (inst, nulls, recv, counters) = base_state();
    let mut store = Store::create(
        dir,
        &Snapshot::capture(&inst, &nulls),
        &recv,
        &counters,
        SyncPolicy::Always,
        Codec::Binary,
    )
    .unwrap();
    store
        .append(&WalRecord::Applied {
            rule: "r_in".into(),
            firings: vec![firing_tail()],
            mark: None,
        })
        .unwrap();
    store
        .append(&WalRecord::LocalInsert { relation: "flags".into(), tuple: tup![false, 2] })
        .unwrap();
    store
        .append(&WalRecord::Counters { counters: ProtocolCounters { update_seq: 4, ..counters } })
        .unwrap();
    store.sync().unwrap();
}

/// What recovery of a golden store must reconstruct — the byte meaning
/// both formats are pinned to.
fn expected_final() -> (Instance, NullFactory, RecvCaches, ProtocolCounters) {
    let (mut inst, mut nulls, mut recv, counters) = base_state();
    // The WAL tail replays on top: the tail firing instantiates its
    // existential as the factory's next null (#7:1)...
    recv.get_mut("r_in").unwrap().insert(firing_tail());
    apply_firings(&mut inst, &[firing_tail()], &mut nulls).unwrap();
    // ...the local insert lands in `flags`, and the last counter record
    // wins.
    inst.insert("flags", tup![false, 2]).unwrap();
    (inst, nulls, recv, ProtocolCounters { update_seq: 4, ..counters })
}

/// Regenerates the committed fixture. Run explicitly after an
/// *intentional* format change, and say so in the change's notes:
/// `cargo test --test golden -- --ignored regenerate`
#[test]
#[ignore = "rewrites the committed golden fixture"]
fn regenerate_golden_fixtures() {
    let dir = fixture_dir("golden-binary");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    build_golden(&dir);
    println!("rewrote {}", dir.display());
}

/// The writer still writes the committed binary fixture byte for byte:
/// its relations' logs happen to be in sorted order, which is what older
/// writers put on disk.
#[test]
fn golden_binary_fixture_is_what_the_writer_writes() {
    let scratch = ScratchDir::new("golden-build");
    build_golden(scratch.path());
    for file in ["codb-0000000000.snap", "codb-0000000000.wal", "codb.epoch"] {
        let built = std::fs::read(scratch.path().join(file)).unwrap();
        assert_eq!(
            built,
            std::fs::read(fixture_dir("golden-binary").join(file)).unwrap(),
            "{file}"
        );
    }
}

/// The committed store recovers to the pinned state: the instance, the
/// null factory, the receive caches, the counters and the epoch. This is
/// what lets a change to the codec code go in with confidence that disks
/// written before it still mean the same thing.
#[test]
fn golden_stores_recover_identical_pinned_state() {
    let scratch = ScratchDir::new("golden-recover");
    let (want_inst, want_nulls, want_recv, want_counters) = expected_final();
    // The fixture is opened from a copy: recovery legitimately writes
    // (epoch bump, torn-tail truncation) and must not dirty git.
    let copy = scratch.path().join("golden-binary");
    copy_store(&fixture_dir("golden-binary"), &copy);
    let (_store, rec) = Store::open(&copy, SyncPolicy::Always, Codec::Binary).unwrap();
    assert_eq!(rec.instance, want_inst, "instance pinned");
    assert_eq!(rec.nulls.invented(), want_nulls.invented(), "factory pinned");
    assert_eq!(rec.nulls.origin(), want_nulls.origin(), "factory origin pinned");
    assert_eq!(rec.recv_cache, want_recv, "receive caches pinned");
    assert_eq!(rec.counters, want_counters, "counters pinned");
    assert_eq!(rec.epoch, 1, "first open of an epoch-0 fixture");
    assert_eq!(rec.generation, 0);
    assert_eq!(rec.wal_records_replayed, 5, "caches + counters + 3 tail records");
    assert!(!rec.torn_tail);
}

/// The committed store — snapshot, WAL and epoch together — is smaller on
/// disk than the JSON spelling of the instance it holds alone: the size
/// lever, pinned on real bytes rather than a synthetic bench.
#[test]
fn golden_binary_fixture_is_smaller_on_disk() {
    let binary: u64 = std::fs::read_dir(fixture_dir("golden-binary"))
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    let json = serde_json::to_string(&expected_final().0).unwrap().len() as u64;
    assert!(binary < json, "binary {binary} bytes vs json {json} bytes");
}
