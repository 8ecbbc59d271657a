//! Set-semantics relations with duplicate-suppressing insertion.
//!
//! coDB's update algorithm is built on exactly this primitive: when a set of
//! tuples `T` arrives for relation `R`, the node computes `T' = T \ R`,
//! inserts `T'`, and uses `T'` (the *delta*) to re-evaluate dependent rules.
//! [`Relation::insert_all`] performs that step and returns the delta.
//!
//! A relation also owns the hash indexes joins probe it through
//! ([`Relation::matching`]): one per column, built the first time that
//! column is probed and kept for every evaluation after it. And it hands
//! out a content stamp ([`Relation::stamp`]): equal stamps mean equal
//! tuple sets, so a result computed from a relation can be kept under its
//! stamp and reused for as long as the stamp stays.

use crate::schema::{RelationSchema, SchemaError};
use crate::tuple::Tuple;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
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

/// The next content stamp to hand out: process-wide, so that no two sets
/// ever get the same one. Every access is `Relaxed`, here and on
/// [`Derived::stamp`]: a stamp publishes no data — the set it names
/// changes only under `&mut` — and a read-modify-write hands out each
/// value once whatever the ordering.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// What a relation derives from its tuple set: the per-column indexes,
/// shared with its clones, and the content stamp.
struct Derived {
    /// One slot per column, filled by the first probe of that column.
    ///
    /// Clones share the slots, so that an index one of them builds serves
    /// them all: *every handle on these slots holds the same tuple set*. A
    /// handle whose set is about to change therefore either is the only
    /// one — then it updates the built indexes in place — or leaves for
    /// empty slots of its own; a built index is never written through a
    /// shared handle.
    slots: Arc<[OnceLock<ColumnIndex>]>,
    /// The set's content stamp ([`Relation::stamp`]), 0 until one is
    /// handed out. A clone copies it; any change to the set puts it back
    /// to 0.
    stamp: AtomicU64,
    /// False only while this is as [`Derived::new`] made it: no clone on
    /// the slots, nothing built, no stamp. Set by the three things that can
    /// end that through this handle's `&self` — cloning it, building
    /// through it, stamping it — and read under `&mut`, where it is a plain
    /// load of a byte the relation itself holds: the one thing an insert of
    /// the update path pays for indexes and stamps existing. (The slots are
    /// a second allocation: the count and two slot states loaded from it on
    /// every insert read +1–2% on `update_bulk`.)
    touched: AtomicBool,
}

impl Derived {
    fn new(arity: usize) -> Self {
        let slots = (0..arity).map(|_| OnceLock::new()).collect();
        Derived { slots, stamp: AtomicU64::new(0), touched: AtomicBool::new(false) }
    }

    /// True iff a clone shares the slots, an index is built or the set is
    /// stamped: a change to the set must then see to them.
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
        let in_use = shared
            || *self.stamp.get_mut() != 0
            || self.slots.iter().any(|slot| slot.get().is_some());
        *self.touched.get_mut() = in_use;
        in_use
    }
}

/// A handle on the same slots, with the same stamp; both sides now count
/// as touched.
impl Clone for Derived {
    fn clone(&self) -> Self {
        // Relaxed: only this handle's owner reads the flag, under `&mut`.
        self.touched.store(true, Ordering::Relaxed);
        Derived {
            slots: Arc::clone(&self.slots),
            stamp: AtomicU64::new(self.stamp.load(Ordering::Relaxed)),
            touched: AtomicBool::new(true),
        }
    }
}

/// A relation instance: a schema plus a set of tuples.
///
/// Equality, the serialized forms and `Debug` are those of the schema and
/// the tuples; the indexes and the stamp are derived data and appear in
/// none of them.
#[derive(Clone)]
pub struct Relation {
    schema: RelationSchema,
    tuples: HashSet<Tuple>,
    derived: Derived,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        let derived = Derived::new(schema.arity());
        Relation { schema, tuples: HashSet::new(), derived }
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
        self.tuples.len()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Iterates over the tuples (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Tuples sorted lexicographically — for deterministic output.
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.tuples.iter().cloned().collect();
        v.sort();
        v
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
            self.tuples.iter().for_each(|t| index_tuple(&mut index, col, t));
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
        self.schema.validate(&t)?;
        Ok(self.insert_valid(t))
    }

    /// Inserts a batch and returns the *delta*: the sub-batch that was not
    /// already present (in insertion order, deduplicated). This is the
    /// `T' = T \ R` step of the coDB update algorithm.
    pub fn insert_all(
        &mut self,
        batch: impl IntoIterator<Item = Tuple>,
    ) -> Result<Vec<Tuple>, SchemaError> {
        let mut delta = Vec::new();
        for t in batch {
            self.schema.validate(&t)?;
            if self.insert_valid(t.clone()) {
                delta.push(t);
            }
        }
        Ok(delta)
    }

    /// Inserts a tuple of this schema.
    #[inline]
    fn insert_valid(&mut self, t: Tuple) -> bool {
        if self.derived.in_use() {
            self.insert_derived(t)
        } else {
            self.tuples.insert(t)
        }
    }

    /// [`Relation::insert_valid`] when the slots are shared or hold an
    /// index, or the set is stamped. Out of line, so that the insert of a
    /// relation with none of these stays the set's insert behind a byte
    /// test.
    #[inline(never)]
    fn insert_derived(&mut self, t: Tuple) -> bool {
        if !self.tuples.insert(t.clone()) {
            return false;
        }
        match Arc::get_mut(&mut self.derived.slots) {
            // The only handle: every built index learns the tuple, and the
            // stamp named the set without it.
            Some(slots) => {
                for (col, slot) in slots.iter_mut().enumerate() {
                    if let Some(index) = slot.get_mut() {
                        index_tuple(index, col, &t);
                    }
                }
                *self.derived.stamp.get_mut() = 0;
            }
            // A clone is on these slots too, and its set did not change.
            None => self.derived = Derived::new(self.arity()),
        }
        true
    }

    /// Removes a tuple; returns whether it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let removed = self.tuples.remove(t);
        if removed {
            self.drop_derived();
        }
        removed
    }

    /// Drops all tuples.
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.drop_derived();
    }

    /// After a change no index was kept up with: what is built (here or by
    /// a clone still on these slots) no longer describes this relation,
    /// and neither does its stamp.
    fn drop_derived(&mut self) {
        if self.derived.in_use() {
            self.derived = Derived::new(self.arity());
        }
    }

    /// The relation's content stamp: a number no other tuple set in this
    /// process is given, handed out on the first call. Any change to the
    /// set takes it back — the next call hands out a new one — and a
    /// clone, which holds the same set, copies it: two relations with
    /// equal stamps hold equal sets. A result computed from the relation
    /// can therefore be kept under its stamp and reused while the stamp
    /// stays. Stamping costs the relation's later inserts what a clone
    /// does (out of line, behind the byte test).
    pub fn stamp(&self) -> u64 {
        if let Some(stamp) = self.stamped() {
            return stamp;
        }
        let fresh = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
        // Relaxed, as in `Clone for Derived`: the flag is read under `&mut`.
        self.derived.touched.store(true, Ordering::Relaxed);
        // A stamp handed out meanwhile through another `&self` stands.
        match self.derived.stamp.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => fresh,
            Err(stamp) => stamp,
        }
    }

    /// The stamp [`Relation::stamp`] handed out for the set as it is now,
    /// if it has: a lookup by stamp that must not make the relation's
    /// inserts pay for one.
    pub fn stamped(&self) -> Option<u64> {
        match self.derived.stamp.load(Ordering::Relaxed) {
            0 => None,
            stamp => Some(stamp),
        }
    }

    /// Approximate byte volume of the whole relation (statistics module).
    pub fn size_bytes(&self) -> usize {
        self.tuples.iter().map(Tuple::size_bytes).sum()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema)
            .field("tuples", &self.tuples)
            .finish()
    }
}

/// `{"schema": …, "tuples": […]}`, as the derive wrote it before the
/// relation had anything else. Written against the vendored serde shim's
/// value-tree API.
impl Serialize for Relation {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(BTreeMap::from([
            ("schema".to_owned(), self.schema.to_value()),
            ("tuples".to_owned(), self.tuples.to_value()),
        ]))
    }
}

impl Deserialize for Relation {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let fields =
            v.as_object().ok_or_else(|| serde::Error::custom("expected object for Relation"))?;
        let mut relation = Relation::new(serde::__from_field(fields, "schema")?);
        relation.tuples = serde::__from_field(fields, "tuples")?;
        Ok(relation)
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::value::ValueType;

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

    #[test]
    fn insert_all_returns_delta_only() {
        let mut r = rel();
        r.insert(tup![1, "a"]).unwrap();
        let delta =
            r.insert_all(vec![tup![1, "a"], tup![2, "b"], tup![2, "b"], tup![3, "c"]]).unwrap();
        assert_eq!(delta, vec![tup![2, "b"], tup![3, "c"]]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn insert_validates_schema() {
        let mut r = rel();
        assert!(r.insert(tup!["bad", 1]).is_err());
        assert!(r.insert(tup![1]).is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn remove_and_clear() {
        let mut r = rel();
        r.insert(tup![1, "a"]).unwrap();
        assert!(r.remove(&tup![1, "a"]));
        assert!(!r.remove(&tup![1, "a"]));
        r.insert(tup![2, "b"]).unwrap();
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut r = rel();
        r.insert(tup![2, "b"]).unwrap();
        r.insert(tup![1, "a"]).unwrap();
        assert_eq!(r.sorted(), vec![tup![1, "a"], tup![2, "b"]]);
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
        assert_eq!(original.insert_all(vec![tup![101, 3], tup![0, 0]]).unwrap(), [tup![101, 3]]);
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
        let mut r = pairs(40);
        let twin = r.clone();
        r.matching(1, &Value::Int(0));
        assert!(!r.remove(&tup![99, 99]));
        assert!(r.is_indexed(1), "nothing was removed");
        assert!(r.remove(&tup![3, 3]));
        assert!(!r.is_indexed(1) && twin.is_indexed(1));
        let (found, scanned) = probe(&r, 1, 3);
        assert_eq!(found, scanned);
        assert_eq!((found.len(), probe(&twin, 1, 3).0.len()), (9, 10));

        r.clear();
        assert!(!r.is_indexed(1));
        assert!(r.matching(1, &Value::Int(3)).is_empty());
        // An unshared, unindexed relation has nothing to drop — and one
        // whose clone came and went unprobed is that again at its next
        // write, back on the one-load path.
        let mut cold = pairs(4);
        let slots = Arc::as_ptr(&cold.derived.slots);
        cold.remove(&tup![0, 0]);
        drop(cold.clone());
        assert!(*cold.derived.touched.get_mut());
        cold.insert(tup![9, 9]).unwrap();
        assert!(!*cold.derived.touched.get_mut());
        cold.clear();
        assert!(std::ptr::eq(slots, Arc::as_ptr(&cold.derived.slots)));
    }

    #[test]
    fn every_change_to_the_set_takes_its_stamp_back_and_nothing_else_does() {
        let mut r = pairs(8);
        assert_eq!(r.stamped(), None, "a new relation starts unstamped");
        let first = r.stamp();
        assert_eq!((r.stamp(), r.stamped()), (first, Some(first)), "handed out once");

        // The same set: a duplicate insert, a remove of nothing.
        assert!(!r.insert(tup![0, 0]).unwrap());
        assert_eq!(r.insert_all(vec![tup![1, 1]]).unwrap(), []);
        assert!(!r.remove(&tup![99, 99]));
        assert_eq!(r.stamped(), Some(first));

        // A clone holds the same set, so it has the same stamp; a change
        // on either side is that side's.
        let mut twin = r.clone();
        assert_eq!(twin.stamped(), Some(first));
        assert!(twin.insert(tup![100, 0]).unwrap());
        assert_eq!((twin.stamped(), r.stamped()), (None, Some(first)));

        // Every change, on every path an insert can take: shared slots,
        // stamped alone, indexed alone; then a remove and a clear.
        let mut handed = vec![first, twin.stamp()];
        let mut restamp = |r: &Relation| {
            assert_eq!(r.stamped(), None, "a change kept the stamp");
            let stamp = r.stamp();
            assert!(!handed.contains(&stamp), "stamp {stamp} handed out twice");
            handed.push(stamp);
        };
        assert!(r.insert(tup![100, 1]).unwrap());
        restamp(&r);
        drop(twin);
        assert!(r.insert(tup![101, 1]).unwrap());
        restamp(&r);
        r.matching(0, &Value::Int(0));
        assert!(r.insert(tup![102, 1]).unwrap());
        assert!(r.is_indexed(0), "kept up in place");
        restamp(&r);
        assert!(r.remove(&tup![102, 1]));
        restamp(&r);
        r.clear();
        restamp(&r);

        // A decoded relation is built afresh: equal to its source, and
        // unstamped.
        let source = pairs(5);
        let json: Relation =
            serde_json::from_str(&serde_json::to_string(&source).unwrap()).unwrap();
        let mut bytes = Vec::new();
        crate::binenc::put_relation(&mut bytes, &source);
        let binary = crate::binenc::take_relation(&mut crate::binenc::Reader::new(&bytes)).unwrap();
        source.stamp();
        for read in [json, binary] {
            assert_eq!((&read, read.stamped()), (&source, None));
        }
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

        let read: Relation = serde_json::from_str(&json).unwrap();
        assert_eq!(read, warm);
        assert!(!read.is_indexed(0) && !read.is_indexed(1));
        assert_eq!(probe(&read, 1, 1).0, probe(&warm, 1, 1).0);
        assert!(Relation::from_value(&serde::Value::Null).is_err());
    }
}
