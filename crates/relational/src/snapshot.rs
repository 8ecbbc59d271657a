//! Durable snapshots of database instances.
//!
//! The paper's nodes sit on an RDBMS; ours are in-memory, so persistence
//! is provided as explicit, versioned snapshots. A snapshot captures one
//! [`Instance`] plus the node's [`NullFactory`] state — restoring without
//! the factory would risk re-issuing null labels that already occur in the
//! data, silently merging distinct unknowns.

use crate::instance::Instance;
use crate::value::NullFactory;
use std::fmt;

/// Snapshot format version; bump on layout changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A persisted database state, in the binary form stores write and read
/// ([`Snapshot::to_binary_bytes`], [`Snapshot::from_binary_bytes`]).
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Format version (checked on load).
    pub version: u32,
    /// The instance.
    pub instance: Instance,
    /// The null factory, so restored nodes keep inventing fresh labels.
    pub nulls: NullFactory,
}

/// Snapshot errors.
#[derive(Debug)]
pub enum SnapshotError {
    /// The payload does not decode as a snapshot.
    Corrupt(String),
    /// The snapshot was written by an incompatible version.
    VersionMismatch {
        /// Version found in the payload.
        found: u32,
        /// Version this library writes.
        expected: u32,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl Snapshot {
    /// Captures the given state.
    pub fn capture(instance: &Instance, nulls: &NullFactory) -> Self {
        Snapshot { version: SNAPSHOT_VERSION, instance: instance.clone(), nulls: nulls.clone() }
    }

    /// Serialises to the compact binary format (`crate::binenc`):
    /// varint version, null factory, instance — each relation as its log,
    /// so the same state encodes to the same bytes.
    pub fn to_binary_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        crate::binenc::put_u32(&mut out, self.version);
        crate::binenc::put_factory(&mut out, &self.nulls);
        crate::binenc::put_instance(&mut out, &self.instance);
        out
    }

    /// Restores from binary bytes, checking the format version. Any
    /// truncation, wild length or unknown tag is [`SnapshotError::Corrupt`].
    ///
    /// The version gate fires **before** the payload is decoded: a
    /// future-version snapshot (whose layout this decoder may not even
    /// parse) reports [`SnapshotError::VersionMismatch`], not a
    /// misleading corruption error.
    pub fn from_binary_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = crate::binenc::Reader::new(bytes);
        let version = r.u32().map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        (|| -> Result<Snapshot, crate::binenc::BinDecodeError> {
            let nulls = crate::binenc::take_factory(&mut r)?;
            let instance = crate::binenc::take_instance(&mut r)?;
            r.expect_end()?;
            Ok(Snapshot { version, instance, nulls })
        })()
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::value::{Value, ValueType};
    use crate::Tuple;

    fn sample() -> (Instance, NullFactory) {
        let mut inst = Instance::new();
        inst.add_relation(RelationSchema::with_types("r", &[ValueType::Int, ValueType::Str]));
        inst.insert("r", tup![1, "a"]).unwrap();
        let mut nulls = NullFactory::new(7);
        let n = nulls.fresh();
        inst.get_mut("r").unwrap().insert(Tuple::new(vec![Value::Int(2), Value::Null(n)])).unwrap();
        (inst, nulls)
    }

    /// The JSON a legacy store holds for `snap`, as its writer laid it
    /// out: one object, keys in order.
    fn legacy_json(snap: &Snapshot) -> Vec<u8> {
        let [instance, nulls] =
            [serde_json::to_string(&snap.instance), serde_json::to_string(&snap.nulls)]
                .map(Result::unwrap);
        format!(r#"{{"instance":{instance},"nulls":{nulls},"version":{}}}"#, snap.version)
            .into_bytes()
    }

    #[test]
    fn round_trip_preserves_everything() {
        // Binary out, in and out again: every step keeps the state, and
        // the second encoding is the first's bytes.
        let (inst, nulls) = sample();
        let bytes = Snapshot::capture(&inst, &nulls).to_binary_bytes();
        let read = Snapshot::from_binary_bytes(&bytes).unwrap();
        assert_eq!(read.to_binary_bytes(), bytes);
        let restored = Snapshot::from_binary_bytes(&read.to_binary_bytes()).unwrap();
        assert_eq!(restored.instance, inst);
        assert_eq!(restored.nulls.invented(), nulls.invented());
    }

    #[test]
    fn binary_round_trip_preserves_everything() {
        let (inst, nulls) = sample();
        let snap = Snapshot::capture(&inst, &nulls);
        let bytes = snap.to_binary_bytes();
        // The binary form is what buys the recovery speedup: it must be
        // materially smaller than the JSON it replaces.
        assert!(bytes.len() < legacy_json(&snap).len());
        let restored = Snapshot::from_binary_bytes(&bytes).unwrap();
        assert_eq!(restored.instance, inst);
        assert_eq!(restored.nulls.invented(), nulls.invented());
        assert_eq!(restored.nulls.origin(), nulls.origin());
    }

    #[test]
    fn binary_corruption_and_version_are_typed() {
        let (inst, nulls) = sample();
        let mut snap = Snapshot::capture(&inst, &nulls);
        // Garbage where the payload should be (after a valid version) is
        // corruption; so is an empty input.
        assert!(matches!(Snapshot::from_binary_bytes(b""), Err(SnapshotError::Corrupt(_))));
        let mut bytes = Vec::new();
        crate::binenc::put_u32(&mut bytes, SNAPSHOT_VERSION);
        bytes.extend_from_slice(b"\xFF\xFF garbage");
        assert!(matches!(Snapshot::from_binary_bytes(&bytes), Err(SnapshotError::Corrupt(_))));
        // The version gate fires *before* payload decode: a mismatched
        // version reports as such even though the rest would parse —
        // and garbage that merely decodes to a wild version number is a
        // mismatch too, not a misleading corruption error.
        snap.version = 7;
        assert!(matches!(
            Snapshot::from_binary_bytes(&snap.to_binary_bytes()),
            Err(SnapshotError::VersionMismatch { found: 7, .. })
        ));
        assert!(matches!(
            Snapshot::from_binary_bytes(b"\xFF\xFF\xFF garbage"),
            Err(SnapshotError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn restored_factory_keeps_labels_fresh() {
        let (inst, nulls) = sample();
        let bytes = Snapshot::capture(&inst, &nulls).to_binary_bytes();
        let mut restored = Snapshot::from_binary_bytes(&bytes).unwrap();
        let next = restored.nulls.fresh();
        // Must not collide with the label already in the data.
        let existing: Vec<_> = restored
            .instance
            .get("r")
            .unwrap()
            .iter()
            .flat_map(|t| t.nulls().collect::<Vec<_>>())
            .collect();
        assert!(!existing.contains(&next));
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        // Every cut of a snapshot's bytes short of the whole is corrupt.
        let (inst, nulls) = sample();
        let bytes = Snapshot::capture(&inst, &nulls).to_binary_bytes();
        for cut in 0..bytes.len() {
            let read = Snapshot::from_binary_bytes(&bytes[..cut]);
            assert!(matches!(read, Err(SnapshotError::Corrupt(_))), "cut at {cut}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (inst, nulls) = sample();
        let mut snap = Snapshot::capture(&inst, &nulls);
        snap.version = 99;
        assert!(matches!(
            Snapshot::from_binary_bytes(&snap.to_binary_bytes()),
            Err(SnapshotError::VersionMismatch { found: 99, .. })
        ));
    }
}
