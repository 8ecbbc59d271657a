//! Set-semantics relations that keep the order their tuples came in.
//!
//! coDB's update algorithm is built on exactly this primitive: when a set of
//! tuples `T` arrives for relation `R`, the node computes `T' = T \ R`,
//! inserts `T'`, and uses `T'` (the *delta*) to re-evaluate dependent rules.
//! A relation only grows, in insertion order, so every delta is a suffix
//! of it: [`Relation::since`] hands back what was inserted after a
//! [`Version`] — the one record of "what changed since".
//!
//! A relation also owns the hash indexes joins probe it through
//! ([`Relation::matching`]): one per column, built the first time that
//! column is probed and kept for every evaluation after it.
//!
//! Each tuple is kept beside the [`Tuple::content_hash`] it was filed
//! under ([`Relation::filed`]): a copy rule that fires it hands that hash
//! on with it, so the tuple crosses every hop of a copy chain without
//! being hashed again.

use crate::schema::{RelationSchema, SchemaError};
use crate::tuple::Tuple;
use crate::value::Value;
use serde::Serialize;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One column's index: a value → the tuples holding it in that column.
type ColumnIndex = HashMap<Value, Vec<Tuple>>;

fn index_tuple(index: &mut ColumnIndex, col: usize, t: &Tuple) {
    index.entry(t[col].clone()).or_default().push(t.clone());
}

thread_local! {
    static INDEX_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// How many column indexes this thread has built so far. A count to take
/// differences of: a test that says "this evaluation found its index"
/// reads it before and after.
pub fn index_builds() -> u64 {
    INDEX_BUILDS.get()
}

/// The next lineage to hand out, process-wide and never taken back
/// (`Relaxed`: a lineage publishes no data).
static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);

/// A lineage no relation has had: for a relation made, cloned or decoded.
fn mint_lineage() -> u64 {
    NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed)
}

/// A relation as it stood at one point: its lineage and its length then.
/// While the relation keeps the lineage, its first `len` tuples are the
/// ones it held then, in the same order ([`Relation::since`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Version {
    lineage: u64,
    len: usize,
}

impl Version {
    /// The log position the version stands at: how many tuples the
    /// relation held then ([`Relation::version_at`] turns it back).
    pub fn position(self) -> u64 {
        self.len as u64
    }
}

/// Where each tuple sits in the relation's log: an open-addressing table,
/// at most 7/8 full, whose slot is 0 (empty) or `hash << 32 | (position +
/// 1)`, `hash` being the top 32 bits of the tuple's
/// [`Tuple::content_hash`] — keyed per process, as its tuples come off the
/// wire.
#[derive(Clone, Default)]
struct Positions {
    slots: Vec<u64>,
}

/// The bits of `content_hash` a slot files.
fn bits(content_hash: u64) -> u32 {
    (content_hash >> 32) as u32
}

impl Positions {
    /// The slot filing a tuple equal to `t`, whose hash bits are `hash`,
    /// or else the empty slot `t` would be filed in.
    fn slot_of(&self, t: &Tuple, hash: u32, log: &[(Tuple, u64)]) -> usize {
        let filed = |slot| (slot >> 32) as u32 == hash && log[(slot as u32 - 1) as usize].0 == *t;
        probe(&self.slots, hash, filed)
    }

    /// Files `t`, whose hash bits are `hash`, at position `log.len()`,
    /// unless a tuple equal to it is filed already; returns whether it was
    /// filed.
    fn file(&mut self, t: &Tuple, hash: u32, log: &[(Tuple, u64)]) -> bool {
        if !Self::holds(self.slots.len(), log.len() + 1) {
            self.resize((self.slots.len() * 2).max(4));
        }
        let at = self.slot_of(t, hash, log);
        if self.slots[at] != 0 {
            return false;
        }
        let position = u32::try_from(log.len() + 1).expect("fewer than 2^32 - 1 tuples");
        self.slots[at] = u64::from(hash) << 32 | u64::from(position);
        true
    }
}

impl Positions {
    /// True iff a table of `slots` slots may file `tuples` tuples: it
    /// stays at most 7/8 full.
    fn holds(slots: usize, tuples: usize) -> bool {
        tuples * 8 <= slots * 7
    }

    /// The table at `len` slots, each filed slot re-filed by its bits: no
    /// tuple is rehashed.
    fn resize(&mut self, len: usize) {
        let mut slots = vec![0; len];
        for &slot in self.slots.iter().filter(|&&slot| slot != 0) {
            let at = probe(&slots, (slot >> 32) as u32, |_| false);
            slots[at] = slot;
        }
        self.slots = slots;
    }
}

/// The first slot along `hash`'s probe sequence that is empty or `filed`.
/// Triangular steps visit every slot of a power-of-two table, and one is
/// always empty.
fn probe(slots: &[u64], hash: u32, filed: impl Fn(u64) -> bool) -> usize {
    let mask = slots.len() - 1;
    let (mut at, mut step) = (hash as usize & mask, 0);
    while slots[at] != 0 && !filed(slots[at]) {
        step += 1;
        at = (at + step) & mask;
    }
    at
}

/// What a relation derives from its tuples: the per-column indexes, shared
/// with its clones.
struct Derived {
    /// One slot per column, filled by the first probe of that column.
    ///
    /// Clones share the slots, so that an index one of them builds serves
    /// them all: *every handle on these slots holds the same tuples*. A
    /// handle whose tuples are about to change therefore either is the
    /// only one — then it updates the built indexes in place — or leaves
    /// for empty slots of its own; a built index is never written through
    /// a shared handle.
    slots: Arc<[OnceLock<ColumnIndex>]>,
    /// False only while this is as [`Derived::new`] made it: no clone on
    /// the slots, nothing built. Set through `&self` by a clone or a
    /// build, read under `&mut`: a load of a byte the relation holds, the
    /// one thing an update-path insert pays for indexes existing (reading
    /// the slots, a second allocation, instead read +1–2% on `update_bulk`).
    touched: AtomicBool,
}

impl Derived {
    fn new(arity: usize) -> Self {
        let slots = (0..arity).map(|_| OnceLock::new()).collect();
        Derived { slots, touched: AtomicBool::new(false) }
    }

    /// True iff a clone shares the slots or an index is built: a change to
    /// the tuples must then see to them.
    fn in_use(&mut self) -> bool {
        if !*self.touched.get_mut() {
            return false;
        }
        let shared = Arc::strong_count(&self.slots) > 1;
        // A clone that built an index and is gone published it no later
        // than the Release decrement of its drop; this fence after reading
        // the count pairs with that, so a count of 1 comes with slot
        // states no older than the drop.
        fence(Ordering::Acquire);
        let in_use = shared || self.slots.iter().any(|slot| slot.get().is_some());
        *self.touched.get_mut() = in_use;
        in_use
    }
}

/// A handle on the same slots; both sides now count as touched.
impl Clone for Derived {
    fn clone(&self) -> Self {
        // Relaxed: only this handle's owner reads the flag, under `&mut`.
        self.touched.store(true, Ordering::Relaxed);
        Derived { slots: Arc::clone(&self.slots), touched: AtomicBool::new(true) }
    }
}

/// A relation instance: a schema plus a set of tuples, kept in the order
/// they were inserted.
///
/// Equality is that of the schema and the *set* of tuples; `Debug` and
/// the JSON form list the tuples in insertion order. The positions, the
/// indexes and the lineage are derived data and appear in none of them.
pub struct Relation {
    schema: RelationSchema,
    /// Every tuple, once, in insertion order, with the full
    /// [`Tuple::content_hash`] it was filed under.
    log: Vec<(Tuple, u64)>,
    positions: Positions,
    lineage: u64,
    derived: Derived,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        let derived = Derived::new(schema.arity());
        let positions = Positions::default();
        Relation { schema, log: Vec::new(), positions, lineage: mint_lineage(), derived }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        let slots = &self.positions.slots;
        !slots.is_empty()
            && slots[self.positions.slot_of(t, bits(t.content_hash()), &self.log)] != 0
    }

    /// Iterates over the tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.log.iter().map(|(t, _)| t)
    }

    /// Every tuple in insertion order, each with the
    /// [`Tuple::content_hash`] it was filed under.
    pub fn filed(&self) -> &[(Tuple, u64)] {
        &self.log
    }

    /// Tuples sorted lexicographically — for deterministic output.
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().cloned().collect();
        v.sort();
        v
    }

    /// The relation as it stands now, for [`Relation::since`].
    pub fn version(&self) -> Version {
        Version { lineage: self.lineage, len: self.log.len() }
    }

    /// The relation as it stood when its log held `position` tuples: its
    /// version then — `None` past the log's end. A position is what
    /// outlives the process (a peer reports it back); the version is what
    /// [`Relation::since`] reads.
    pub fn version_at(&self, position: u64) -> Option<Version> {
        let len = usize::try_from(position).ok().filter(|len| *len <= self.log.len())?;
        Some(Version { lineage: self.lineage, len })
    }

    /// The tuples inserted after `version`, in insertion order — `None`
    /// unless `version` is of this relation's lineage, which it was made,
    /// cloned or decoded under and keeps while it grows.
    pub fn since(&self, version: Version) -> Option<impl ExactSizeIterator<Item = &Tuple>> {
        Some(self.filed_since(version)?.iter().map(|(t, _)| t))
    }

    /// [`Relation::since`], each tuple with the hash it was filed under.
    pub(crate) fn filed_since(&self, version: Version) -> Option<&[(Tuple, u64)]> {
        self.log.get(version.len..).filter(|_| version.lineage == self.lineage)
    }

    /// The tuples whose column `col` holds `key` (arbitrary order), through
    /// the index on that column — built by the first probe of the column,
    /// over this relation or over any clone that has not changed since.
    ///
    /// # Panics
    /// If the relation has no column `col`.
    pub fn matching(&self, col: usize, key: &Value) -> &[Tuple] {
        let index = self.derived.slots[col].get_or_init(|| {
            INDEX_BUILDS.set(INDEX_BUILDS.get() + 1);
            self.derived.touched.store(true, Ordering::Relaxed);
            let mut index = ColumnIndex::new();
            self.iter().for_each(|t| index_tuple(&mut index, col, t));
            index
        });
        index.get(key).map_or(&[], Vec::as_slice)
    }

    /// True iff column `col` has its index built (`false` for a column
    /// the relation does not have).
    pub fn is_indexed(&self, col: usize) -> bool {
        self.derived.slots.get(col).is_some_and(|slot| slot.get().is_some())
    }

    /// Validates and inserts one tuple. Returns `Ok(true)` when the tuple is
    /// new, `Ok(false)` when it was already present.
    pub fn insert(&mut self, t: Tuple) -> Result<bool, SchemaError> {
        let hash = t.content_hash();
        self.insert_hashed(t, hash)
    }

    /// [`Relation::insert`] of a tuple whose [`Tuple::content_hash`] the
    /// caller has in hand: a ground one-atom firing's own. The relation
    /// keeps `hash` beside the tuple ([`Relation::filed`]).
    pub(crate) fn insert_hashed(&mut self, t: Tuple, hash: u64) -> Result<bool, SchemaError> {
        debug_assert!(hash == t.uncounted_hash(), "{t} filed under another tuple's hash");
        self.schema.validate(&t)?;
        if !self.positions.file(&t, bits(hash), &self.log) {
            return Ok(false);
        }
        if self.derived.in_use() {
            self.derive_inserted(&t);
        }
        self.log.push((t, hash));
        Ok(true)
    }

    /// What a new tuple does to indexes that exist or slots that are
    /// shared. Out of line, so that the insert of a relation with neither
    /// stays the table's insert behind a byte test.
    #[inline(never)]
    fn derive_inserted(&mut self, t: &Tuple) {
        match Arc::get_mut(&mut self.derived.slots) {
            // The only handle: every built index learns the tuple.
            Some(slots) => {
                for (col, slot) in slots.iter_mut().enumerate() {
                    if let Some(index) = slot.get_mut() {
                        index_tuple(index, col, t);
                    }
                }
            }
            // A clone is on these slots too, and its tuples did not change.
            None => self.derived = Derived::new(self.schema.arity()),
        }
    }

    /// Room for `additional` more tuples, as much as inserting them one by
    /// one would end with and no more: the log at the capacity its
    /// doubling would reach, the table at the size its growth would — so a
    /// decoder that knows its count files them without a re-file or a
    /// copy of the log.
    pub(crate) fn reserve(&mut self, additional: usize) {
        if additional == 0 {
            return;
        }
        let len = self.log.len() + additional;
        self.log.reserve_exact(len.next_power_of_two().max(4) - self.log.len());
        let mut slots = self.positions.slots.len().max(4);
        while !Positions::holds(slots, len) {
            slots *= 2;
        }
        if slots > self.positions.slots.len() {
            self.positions.resize(slots);
        }
    }

    /// Approximate byte volume of the whole relation (statistics module).
    pub fn size_bytes(&self) -> usize {
        self.iter().map(Tuple::size_bytes).sum()
    }
}

/// The same tuples in the same order, filed under the same hashes, and a
/// handle on the same index slots, under a lineage of its own: a version of one side says nothing of the
/// other.
impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            schema: self.schema.clone(),
            log: self.log.clone(),
            positions: self.positions.clone(),
            lineage: mint_lineage(),
            derived: self.derived.clone(),
        }
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema)
            .field("tuples", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// `{"schema": …, "tuples": […]}`, as the derive wrote it before the
/// relation had anything else: the tuples in filing order, the hashes and
/// indexes left out. Written against the vendored serde shim's value-tree
/// API.
impl Serialize for Relation {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(BTreeMap::from([
            ("schema".to_owned(), self.schema.to_value()),
            ("tuples".to_owned(), serde::Value::Array(self.iter().map(Tuple::to_value).collect())),
        ]))
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.len() == other.len()
            && self.iter().all(|t| other.contains(t))
    }
}

impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::value::ValueType;
    use std::collections::HashSet;

    /// [`Relation::since`], collected.
    fn since(r: &Relation, version: Version) -> Option<Vec<Tuple>> {
        r.since(version).map(|suffix| suffix.cloned().collect())
    }

    fn rel() -> Relation {
        Relation::new(RelationSchema::with_types("r", &[ValueType::Int, ValueType::Str]))
    }

    #[test]
    fn insert_dedups() {
        let mut r = rel();
        assert!(r.insert(tup![1, "a"]).unwrap());
        assert!(!r.insert(tup![1, "a"]).unwrap());
        assert_eq!(r.len(), 1);
    }

    /// A relation reserved for `n` tuples ends where inserting them grows
    /// it to, log and table alike, and inserting them then re-files
    /// nothing.
    #[test]
    fn a_reserved_relation_ends_where_growth_would() {
        for n in [1, 3, 4, 5, 7, 8, 9, 100, 1000] {
            let tuples = (0..n).map(|k| tup![k, "x"]);
            let mut grown = rel();
            tuples.clone().for_each(|t| assert!(grown.insert(t).unwrap()));
            let mut reserved = rel();
            reserved.reserve(n as usize);
            let room = |r: &Relation| (r.log.capacity(), r.positions.slots.len());
            let before = room(&reserved);
            assert_eq!(before, room(&grown), "{n} tuples");
            tuples.for_each(|t| assert!(reserved.insert(t).unwrap()));
            assert_eq!(room(&reserved), before, "{n} tuples: no growth after the reservation");
            assert_eq!(reserved.filed(), grown.filed());
        }
    }

    #[test]
    fn a_batch_s_delta_is_what_since_returns() {
        let mut r = rel();
        r.insert(tup![1, "a"]).unwrap();
        let before = r.version();
        for t in [tup![1, "a"], tup![2, "b"], tup![2, "b"], tup![3, "c"]] {
            r.insert(t).unwrap();
        }
        assert_eq!(since(&r, before).unwrap(), [tup![2, "b"], tup![3, "c"]]);
        assert_eq!(since(&r, r.version()).unwrap(), []);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn a_tuple_filed_under_its_hash_is_found_when_built_again() {
        let mut r = rel();
        let filed = tup![7, "naïve"];
        assert!(r.insert_hashed(filed.clone(), filed.content_hash()).unwrap());
        let again: Tuple = [Value::Int(7), Value::str("naïve")].into_iter().collect();
        assert!(!again.ptr_eq(&filed));
        assert!(r.contains(&again));
        assert!(!r.insert(again).unwrap());
        assert!(!r.contains(&tup![7, "naive"]));
        assert!(r.insert_hashed(tup!["bad", 1], tup!["bad", 1].content_hash()).is_err());
    }

    #[test]
    fn insert_validates_schema() {
        let mut r = rel();
        assert!(r.insert(tup!["bad", 1]).is_err());
        assert!(r.insert(tup![1]).is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut r = rel();
        r.insert(tup![2, "b"]).unwrap();
        r.insert(tup![1, "a"]).unwrap();
        assert_eq!(r.sorted(), vec![tup![1, "a"], tup![2, "b"]]);
        assert_eq!(r.iter().cloned().collect::<Vec<_>>(), [tup![2, "b"], tup![1, "a"]]);
    }

    #[test]
    fn size_bytes_sums_tuples() {
        let mut r = rel();
        r.insert(tup![1, "a"]).unwrap();
        assert_eq!(r.size_bytes(), tup![1, "a"].size_bytes());
    }

    #[test]
    fn equality_is_structural() {
        let mut a = rel();
        let mut b = rel();
        a.insert(tup![1, "a"]).unwrap();
        b.insert(tup![1, "a"]).unwrap();
        assert_eq!(a, b);
        b.insert(tup![2, "b"]).unwrap();
        assert_ne!(a, b);
        // The same set, inserted in another order.
        a.insert(tup![3, "c"]).unwrap();
        a.insert(tup![2, "b"]).unwrap();
        b.insert(tup![3, "c"]).unwrap();
        assert_eq!(a, b);
    }

    /// The position table through seven doublings, every tuple inserted
    /// three times and probed before and after, against a `HashSet`.
    #[test]
    fn the_position_table_grows_without_losing_or_doubling_a_tuple() {
        let mut r = Relation::new(RelationSchema::with_types("p", &[ValueType::Int; 2]));
        let mut model = HashSet::new();
        let mut sizes = vec![r.positions.slots.len()];
        for k in 0..250i64 {
            let t = tup![k, k % 7];
            assert!(!r.contains(&t), "{t} before");
            assert_eq!(r.insert(t.clone()).unwrap(), model.insert(t.clone()), "{t}");
            assert!(!r.insert(t.clone()).unwrap(), "{t} twice");
            // A tuple filed before the last doubling, again.
            assert!(!r.insert(tup![k / 2, k / 2 % 7]).unwrap());
            assert!(r.contains(&t));
            assert!(!r.contains(&tup![-1 - k, 0]));
            assert_eq!(r.len(), model.len());
            if sizes.last() != Some(&r.positions.slots.len()) {
                sizes.push(r.positions.slots.len());
            }
            assert!(r.len() * 8 <= r.positions.slots.len() * 7, "a table past 7/8");
        }
        assert_eq!(sizes, [0, 4, 8, 16, 32, 64, 128, 256, 512]);
        assert!(model.iter().all(|t| r.contains(t)));
        assert_eq!(r.iter().collect::<HashSet<_>>(), model.iter().collect());
        let filed = r.positions.slots.iter().filter(|&&slot| slot != 0);
        assert_eq!(filed.count(), r.len(), "one slot per tuple");
    }

    /// What `matching` answers, sorted, beside the same selection scanned.
    fn probe(r: &Relation, col: usize, key: i64) -> (Vec<Tuple>, Vec<Tuple>) {
        let key = Value::Int(key);
        let mut found = r.matching(col, &key).to_vec();
        found.sort();
        (found, r.sorted().into_iter().filter(|t| t[col] == key).collect())
    }

    fn pairs(n: i64) -> Relation {
        let mut r = Relation::new(RelationSchema::with_types("p", &[ValueType::Int; 2]));
        for k in 0..n {
            r.insert(tup![k, k % 4]).unwrap();
        }
        r
    }

    #[test]
    fn a_column_is_indexed_once_and_a_clone_leaves_the_index_where_the_original_finds_it() {
        let original = pairs(40);
        let overlay = original.clone();
        let built = index_builds();
        let (found, scanned) = probe(&overlay, 1, 3);
        assert_eq!(found, scanned);
        assert_eq!(found.len(), 10);
        assert_eq!(index_builds(), built + 1);
        // The original was never probed, and holds the index.
        assert!(original.is_indexed(1) && !original.is_indexed(0));
        drop(overlay);
        assert_eq!(probe(&original, 1, 3).0, found);
        assert!(original.matching(1, &Value::Int(9)).is_empty());
        assert_eq!(index_builds(), built + 1);
        assert!(!original.is_indexed(2), "no such column");
    }

    #[test]
    fn a_sole_owner_keeps_its_indexes_up_and_a_sharer_leaves_them_behind() {
        let mut original = pairs(40);
        original.matching(0, &Value::Int(0));
        original.matching(1, &Value::Int(0));
        let built = index_builds();

        // Alone: every built index learns the tuple, nothing is rebuilt.
        assert!(original.insert(tup![100, 3]).unwrap());
        assert!(!original.insert(tup![100, 3]).unwrap());
        assert!(original.insert(tup![101, 3]).unwrap());
        assert!(!original.insert(tup![0, 0]).unwrap());
        assert_eq!(original.matching(0, &Value::Int(100)), [tup![100, 3]]);
        let (found, scanned) = probe(&original, 1, 3);
        assert_eq!(found, scanned);
        assert_eq!(found.len(), 12);
        assert_eq!(index_builds(), built);

        // Shared: a duplicate changes nothing and detaches nothing; a new
        // tuple takes the writer to slots of its own and the other side's
        // index is as it was.
        let mut overlay = original.clone();
        assert!(!overlay.insert(tup![100, 3]).unwrap());
        assert!(overlay.is_indexed(1));
        assert!(overlay.insert(tup![200, 3]).unwrap());
        assert!(!overlay.is_indexed(0) && !overlay.is_indexed(1));
        assert!(original.is_indexed(0) && original.is_indexed(1));
        assert_eq!(probe(&original, 1, 3).0.len(), 12);
        assert_eq!(index_builds(), built);
        let (found, scanned) = probe(&overlay, 1, 3);
        assert_eq!(found, scanned);
        assert_eq!(found.len(), 13);
        assert_eq!(index_builds(), built + 1);

        // The original is written while a clone shares its slots: it is
        // the original that leaves.
        let snapshot = original.clone();
        assert!(original.insert(tup![300, 3]).unwrap());
        assert!(!original.is_indexed(1) && snapshot.is_indexed(1));
        assert_eq!(probe(&snapshot, 1, 3).0.len(), 12);
        assert_eq!(probe(&original, 1, 3).0.len(), 13);
    }

    #[test]
    fn remove_and_clear_drop_the_indexes_of_the_side_that_changed() {
        // Relations only grow, so the one change a side can make is an
        // insert: a write of nothing keeps the index, a new tuple on a
        // shared side drops that side's and leaves its twin's.
        let mut r = pairs(40);
        let twin = r.clone();
        r.matching(1, &Value::Int(0));
        assert!(!r.insert(tup![0, 0]).unwrap());
        assert!(r.is_indexed(1), "nothing was inserted");
        assert!(r.insert(tup![99, 3]).unwrap());
        assert!(!r.is_indexed(1) && twin.is_indexed(1));
        let (found, scanned) = probe(&r, 1, 3);
        assert_eq!(found, scanned);
        assert_eq!((found.len(), probe(&twin, 1, 3).0.len()), (11, 10));

        // A relation whose clone came and went unprobed is back on the
        // one-load path at its next write, on the slots it had.
        let mut cold = pairs(4);
        let slots = Arc::as_ptr(&cold.derived.slots);
        drop(cold.clone());
        assert!(*cold.derived.touched.get_mut());
        cold.insert(tup![9, 9]).unwrap();
        assert!(!*cold.derived.touched.get_mut());
        assert!(std::ptr::eq(slots, Arc::as_ptr(&cold.derived.slots)));
    }

    /// A version answers for its own lineage only: inserts keep the
    /// lineage, a clone and a decode each mint one, and no two relations
    /// ever show the same version.
    #[test]
    fn every_clone_and_decode_mints_a_lineage_and_since_answers_within_one() {
        let mut r = pairs(8);
        let first = r.version();
        assert_eq!(since(&r, first).unwrap(), []);

        // A duplicate is no change; a new tuple is the suffix.
        assert!(!r.insert(tup![0, 0]).unwrap());
        assert_eq!(r.version(), first);
        r.matching(0, &Value::Int(0));
        assert!(r.insert(tup![100, 0]).unwrap());
        assert_eq!(since(&r, first).unwrap(), [tup![100, 0]]);

        // A clone holds the same tuples under a lineage of its own: no
        // version of one side says anything of the other.
        let mut twin = r.clone();
        assert_eq!(twin, r);
        assert_ne!(twin.version(), r.version());
        assert_eq!((since(&twin, first), since(&r, twin.version())), (None, None));
        assert!(twin.insert(tup![101, 1]).unwrap());
        assert!(r.insert(tup![102, 1]).unwrap());
        assert_eq!(since(&r, first).unwrap(), [tup![100, 0], tup![102, 1]]);
        assert_eq!(since(&twin, twin.version()).unwrap(), []);

        // A decoded relation is built afresh: equal to its source, and of
        // a lineage of its own.
        let source = pairs(5);
        let mut bytes = Vec::new();
        crate::binenc::put_relation(&mut bytes, &source);
        let read = crate::binenc::take_relation(&mut crate::binenc::Reader::new(&bytes)).unwrap();
        assert_eq!(read, source);
        assert_eq!(since(&read, source.version()), None);
        assert_eq!(since(&source, read.version()), None);
    }

    #[test]
    fn an_index_shows_in_no_comparison_and_no_serialized_or_printed_form() {
        let cold = pairs(12);
        let (json, printed) = (serde_json::to_string(&cold).unwrap(), format!("{cold:?}"));
        // A clone iterates as its original does, so the forms compare as
        // text: same bytes before the indexes exist and after.
        let warm = cold.clone();
        warm.matching(0, &Value::Int(1));
        warm.matching(1, &Value::Int(1));
        assert_eq!(serde_json::to_string(&warm).unwrap(), json);
        assert_eq!(format!("{warm:?}"), printed);
        assert!(json.starts_with(r#"{"schema":{"#) && json.contains(r#"},"tuples":[["#));
    }
}
