//! Binary encoding hooks: a compact, versioned, length-prefixed
//! varint/tag wire format for the relational data model.
//!
//! This is the payload layer of `codb-store`'s binary on-disk codec. The
//! JSON shim encodes a two-column integer tuple in ~30 bytes of field
//! names and punctuation; this module encodes the same tuple in 4–6
//! bytes. Every primitive is either a tag byte or a LEB128 varint, so the
//! format is self-delimiting and the decoder can validate as it goes:
//!
//! * **varints** are little-endian base-128 (LEB128), at most 10 bytes
//!   for a `u64`; signed integers are ZigZag-mapped first so small
//!   negative numbers stay small on disk.
//! * **strings** are a varint byte length followed by UTF-8 bytes
//!   (validated on decode).
//! * **sums** ([`Value`], [`TField`]) are a one-byte tag followed by the
//!   variant payload; an unknown tag is a decode error, never a guess.
//! * **sequences** (tuples, relations, instances, firings) are a varint
//!   element count followed by the elements.
//!
//! The decoder ([`Reader`]) is written for adversarial input: any
//! truncation, wild length, unknown tag or invalid UTF-8 surfaces as a
//! typed [`BinDecodeError`] with a byte offset — it never panics and
//! never allocates proportionally to an unvalidated length. The outer
//! store frames add CRC-32 protection; this layer's own checks are what
//! turn a *decoded-but-meaningless* payload into a loud error.
//!
//! Encoding is deterministic: a relation serialises its tuples in log
//! order, the order it filed them in ([`Relation::filed`]), so the same
//! log encodes to the same bytes and decodes to the same log.

use crate::instance::Instance;
use crate::relation::Relation;
use crate::schema::{Column, RelationSchema};
use crate::tuple::Tuple;
use crate::value::{NullFactory, NullId, Value, ValueType};
use crate::{FieldRef, Fields, RuleFiring, TField};
use std::fmt;
use std::sync::Arc;

/// A failed binary decode: where and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinDecodeError {
    /// Byte offset in the input at which decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for BinDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary decode failed at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for BinDecodeError {}

type DecodeResult<T> = Result<T, BinDecodeError>;

// ---- primitive writers ----

/// Appends a LEB128 varint.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a `u32` as a varint.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    put_u64(out, v as u64);
}

/// Appends a `usize` as a varint (element counts, lengths).
#[inline]
pub fn put_len(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends a ZigZag-mapped signed varint.
#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends a boolean as one byte.
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Appends a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Validating cursor over binary input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn err<T>(&self, detail: impl Into<String>) -> DecodeResult<T> {
        Err(BinDecodeError { offset: self.pos, detail: detail.into() })
    }

    /// One raw byte.
    pub fn byte(&mut self) -> DecodeResult<u8> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => self.err("unexpected end of input"),
        }
    }

    /// A LEB128 varint (at most 10 bytes).
    pub fn u64(&mut self) -> DecodeResult<u64> {
        let start = self.pos;
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            let bits = (byte & 0x7F) as u64;
            // The 10th byte may only carry the u64's top bit.
            if shift == 63 && bits > 1 {
                self.pos = start;
                return self.err("varint overflows u64");
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        self.pos = start;
        self.err("varint longer than 10 bytes")
    }

    /// A varint checked to fit `u32`.
    pub fn u32(&mut self) -> DecodeResult<u32> {
        let at = self.pos;
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| BinDecodeError {
            offset: at,
            detail: format!("value {v} does not fit u32"),
        })
    }

    /// A ZigZag-mapped signed varint.
    pub fn i64(&mut self) -> DecodeResult<i64> {
        let v = self.u64()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// A boolean byte (strictly 0 or 1).
    pub fn bool(&mut self) -> DecodeResult<bool> {
        let at = self.pos;
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(BinDecodeError { offset: at, detail: format!("invalid boolean byte {b}") }),
        }
    }

    /// An element count, checked against the bytes actually remaining
    /// (every element costs at least `min_bytes_each`), so a corrupted
    /// count can never drive a huge allocation or a long error-path loop.
    pub fn len(&mut self, min_bytes_each: usize) -> DecodeResult<usize> {
        let at = self.pos;
        let v = self.u64()?;
        let ceiling = (self.remaining() / min_bytes_each.max(1)) as u64;
        if v > ceiling {
            return Err(BinDecodeError {
                offset: at,
                detail: format!("length {v} exceeds the {ceiling} elements the input could hold"),
            });
        }
        Ok(v as usize)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> DecodeResult<String> {
        let (at, bytes) = self.str_bytes()?;
        utf8(at, bytes).map(str::to_owned)
    }

    /// A length-prefixed string's bytes, not yet checked as UTF-8, and
    /// their offset: a caller that compares them with a name it holds
    /// builds no string.
    pub fn str_bytes(&mut self) -> DecodeResult<(usize, &'a [u8])> {
        let n = self.len(1)?;
        let at = self.pos;
        let bytes = &self.buf[at..at + n];
        self.pos += n;
        Ok((at, bytes))
    }

    /// Asserts every input byte was consumed (trailing garbage is a
    /// corruption signal, not padding).
    pub fn expect_end(&self) -> DecodeResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            self.err(format!("{} trailing bytes after the value", self.remaining()))
        }
    }
}

// ---- values and tuples ----

const TAG_INT: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_NULL: u8 = 3;

/// Encodes one [`Value`].
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(TAG_INT);
            put_i64(out, *i);
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            put_bool(out, *b);
        }
        Value::Null(n) => {
            out.push(TAG_NULL);
            put_u64(out, n.origin);
            put_u64(out, n.seq);
        }
    }
}

/// Decodes one [`Value`].
pub fn take_value(r: &mut Reader<'_>) -> DecodeResult<Value> {
    let at = r.offset();
    match r.byte()? {
        TAG_INT => Ok(Value::Int(r.i64()?)),
        TAG_STR => Ok(Value::Str(r.str()?)),
        TAG_BOOL => Ok(Value::Bool(r.bool()?)),
        TAG_NULL => Ok(Value::Null(NullId::new(r.u64()?, r.u64()?))),
        t => Err(BinDecodeError { offset: at, detail: format!("unknown value tag {t}") }),
    }
}

/// Encodes one [`Tuple`] (arity + fields).
pub fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_len(out, t.arity());
    for v in t.values() {
        put_value(out, v);
    }
}

/// Decodes one [`Tuple`].
pub fn take_tuple(r: &mut Reader<'_>) -> DecodeResult<Tuple> {
    let n = r.len(1)?;
    // One allocation: the range knows its length, so the first error is
    // set aside and the fields after it are placeholders, not reads.
    let mut failed = None;
    let tuple = (0..n)
        .map(|_| match failed {
            None => take_value(r).unwrap_or_else(|e| {
                failed = Some(e);
                Value::Bool(false)
            }),
            Some(_) => Value::Bool(false),
        })
        .collect();
    failed.map_or(Ok(tuple), Err)
}

// ---- schemas, relations, instances ----

fn put_value_type(out: &mut Vec<u8>, ty: ValueType) {
    out.push(match ty {
        ValueType::Int => TAG_INT,
        ValueType::Str => TAG_STR,
        ValueType::Bool => TAG_BOOL,
    });
}

fn take_value_type(r: &mut Reader<'_>) -> DecodeResult<ValueType> {
    let at = r.offset();
    match r.byte()? {
        TAG_INT => Ok(ValueType::Int),
        TAG_STR => Ok(ValueType::Str),
        TAG_BOOL => Ok(ValueType::Bool),
        t => Err(BinDecodeError { offset: at, detail: format!("unknown type tag {t}") }),
    }
}

/// Encodes one [`RelationSchema`].
pub fn put_schema(out: &mut Vec<u8>, schema: &RelationSchema) {
    put_str(out, &schema.name);
    put_len(out, schema.columns.len());
    for c in &schema.columns {
        put_str(out, &c.name);
        put_value_type(out, c.ty);
    }
}

/// Decodes one [`RelationSchema`].
pub fn take_schema(r: &mut Reader<'_>) -> DecodeResult<RelationSchema> {
    let name = r.str()?;
    let n = r.len(2)?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let cname = r.str()?;
        columns.push(Column::new(cname, take_value_type(r)?));
    }
    Ok(RelationSchema::new(name, columns))
}

/// Encodes one [`Relation`]: schema, then the tuples in log order.
pub fn put_relation(out: &mut Vec<u8>, rel: &Relation) {
    put_schema(out, rel.schema());
    put_len(out, rel.len());
    for t in rel.iter() {
        put_tuple(out, t);
    }
}

/// Decodes one [`Relation`], re-validating every tuple against the
/// decoded schema (an ill-typed tuple is corruption, not data), into a
/// log in the order they were written. A log holds each tuple once, so a
/// duplicate tuple is rejected rather than silently collapsed. Any order
/// is a valid log: the sorted relations of older stores read as they are.
/// The count is known, so the relation is reserved for it up front, at
/// the room inserting one by one would end with.
pub fn take_relation(r: &mut Reader<'_>) -> DecodeResult<Relation> {
    let schema = take_schema(r)?;
    let n = r.len(1)?;
    let mut rel = Relation::new(schema);
    rel.reserve(n);
    for _ in 0..n {
        let at = r.offset();
        let t = take_tuple(r)?;
        let fresh = rel.insert(t).map_err(|e| BinDecodeError {
            offset: at,
            detail: format!("tuple violates its schema: {e}"),
        })?;
        if !fresh {
            return Err(BinDecodeError {
                offset: at,
                detail: "duplicate tuple in a relation (non-canonical encoding)".to_owned(),
            });
        }
    }
    Ok(rel)
}

/// Encodes one [`Instance`] (relations in name order).
pub fn put_instance(out: &mut Vec<u8>, inst: &Instance) {
    put_len(out, inst.relation_count());
    for rel in inst.relations() {
        put_relation(out, rel);
    }
}

/// Decodes one [`Instance`], rejecting a duplicate relation name (the
/// canonical encoding writes each name-keyed relation exactly once).
pub fn take_instance(r: &mut Reader<'_>) -> DecodeResult<Instance> {
    let n = r.len(2)?;
    let mut inst = Instance::new();
    for _ in 0..n {
        let at = r.offset();
        let rel = take_relation(r)?;
        if inst.get(rel.name()).is_some() {
            return Err(BinDecodeError {
                offset: at,
                detail: format!(
                    "duplicate relation {:?} in an instance (non-canonical encoding)",
                    rel.name()
                ),
            });
        }
        inst.insert_relation(rel);
    }
    Ok(inst)
}

/// Encodes one [`NullFactory`] (origin + counter).
pub fn put_factory(out: &mut Vec<u8>, nulls: &NullFactory) {
    put_u64(out, nulls.origin());
    put_u64(out, nulls.invented());
}

/// Decodes one [`NullFactory`].
pub fn take_factory(r: &mut Reader<'_>) -> DecodeResult<NullFactory> {
    let origin = r.u64()?;
    let next = r.u64()?;
    Ok(NullFactory::from_parts(origin, next))
}

// ---- firings (the WAL payloads) ----

const TAG_TF_CONST: u8 = 0;
const TAG_TF_FRESH: u8 = 1;

/// Encodes one [`TField`].
pub fn put_tfield(out: &mut Vec<u8>, f: &TField) {
    put_field(out, f.into());
}

/// Encodes one field of a firing's atom, as the [`TField`] it says.
fn put_field(out: &mut Vec<u8>, f: FieldRef<'_>) {
    match f {
        FieldRef::Const(v) => {
            out.push(TAG_TF_CONST);
            put_value(out, v);
        }
        FieldRef::Fresh(id) => {
            out.push(TAG_TF_FRESH);
            put_u32(out, id);
        }
    }
}

/// Decodes one [`TField`].
pub fn take_tfield(r: &mut Reader<'_>) -> DecodeResult<TField> {
    let at = r.offset();
    match r.byte()? {
        TAG_TF_CONST => Ok(TField::Const(take_value(r)?)),
        TAG_TF_FRESH => Ok(TField::Fresh(r.u32()?)),
        t => Err(BinDecodeError { offset: at, detail: format!("unknown template-field tag {t}") }),
    }
}

/// Encodes one [`RuleFiring`] (atoms in head order).
pub fn put_firing(out: &mut Vec<u8>, f: &RuleFiring) {
    put_len(out, f.atoms().len());
    for (rel, fields) in f.atoms() {
        put_str(out, rel);
        put_len(out, fields.len());
        for field in fields.iter() {
            put_field(out, field);
        }
    }
}

/// `bytes`, read at `at`, as UTF-8.
fn utf8(at: usize, bytes: &[u8]) -> DecodeResult<&str> {
    std::str::from_utf8(bytes)
        .map_err(|e| BinDecodeError { offset: at, detail: format!("invalid UTF-8: {e}") })
}

/// Decodes one [`RuleFiring`]; an atom with no placeholder comes back
/// holding its tuple, as [`RuleFiring::new`] would build it.
pub fn take_firing(r: &mut Reader<'_>) -> DecodeResult<RuleFiring> {
    FiringReader::default().take(r)
}

/// Decodes the firings of one record, one after another, sharing what
/// they can: one scratch for their fields — a ground atom's values are
/// read into it and drained into its tuple, one allocation an atom — and
/// the relation name, built once per run of atoms that name the same
/// relation, so a record of firings of one relation reads its name once.
#[derive(Default)]
pub struct FiringReader {
    name: Option<Arc<str>>,
    values: Vec<Value>,
}

impl FiringReader {
    /// Decodes the next firing ([`take_firing`]).
    pub fn take(&mut self, r: &mut Reader<'_>) -> DecodeResult<RuleFiring> {
        let n = r.len(2)?;
        RuleFiring::try_from_atoms(n, || Ok((self.name(r)?, take_fields(r, &mut self.values)?)))
    }

    /// The next atom's relation name: the previous atom's, shared, where
    /// the bytes are the same.
    fn name(&mut self, r: &mut Reader<'_>) -> DecodeResult<Arc<str>> {
        let (at, bytes) = r.str_bytes()?;
        if let Some(name) = self.name.as_ref().filter(|name| name.as_bytes() == bytes) {
            return Ok(Arc::clone(name));
        }
        let name: Arc<str> = Arc::from(utf8(at, bytes)?);
        self.name = Some(Arc::clone(&name));
        Ok(name)
    }
}

/// Decodes one atom's fields: into `values` and out as the tuple while
/// each is a constant, into a template from the first placeholder on.
fn take_fields(r: &mut Reader<'_>, values: &mut Vec<Value>) -> DecodeResult<Fields> {
    let nf = r.len(1)?;
    values.reserve(nf);
    for i in 0..nf {
        match take_tfield(r)? {
            TField::Const(v) => values.push(v),
            TField::Fresh(id) => {
                let mut fields = Vec::with_capacity(nf);
                fields.extend(values.drain(..).map(TField::Const));
                fields.push(TField::Fresh(id));
                for _ in i + 1..nf {
                    fields.push(take_tfield(r)?);
                }
                return Ok(Fields::Template(fields));
            }
        }
    }
    Ok(Fields::Ground(values.drain(..).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut out = Vec::new();
            put_u64(&mut out, v);
            assert!(out.len() <= 10);
            let mut r = Reader::new(&out);
            assert_eq!(r.u64().unwrap(), v);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn zigzag_keeps_small_negatives_small() {
        let mut out = Vec::new();
        put_i64(&mut out, -1);
        assert_eq!(out.len(), 1);
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            let mut out = Vec::new();
            put_i64(&mut out, v);
            assert_eq!(Reader::new(&out).i64().unwrap(), v);
        }
    }

    #[test]
    fn values_and_tuples_round_trip() {
        let t = Tuple::new(vec![
            Value::Int(-42),
            Value::str("héllo"),
            Value::Bool(true),
            Value::Null(NullId::new(7, 9)),
        ]);
        let mut out = Vec::new();
        put_tuple(&mut out, &t);
        let mut r = Reader::new(&out);
        assert_eq!(take_tuple(&mut r).unwrap(), t);
        r.expect_end().unwrap();
    }

    #[test]
    fn instance_round_trips_and_is_deterministic() {
        let mut inst = Instance::new();
        inst.add_relation(RelationSchema::with_types("r", &[ValueType::Int, ValueType::Str]));
        inst.insert("r", tup![2, "b"]).unwrap();
        inst.insert("r", tup![1, "a"]).unwrap();
        inst.insert("r", tup![3, "c"]).unwrap();
        let mut a = Vec::new();
        put_instance(&mut a, &inst);
        // The log comes back in its order, filed under the same hashes.
        let decoded = take_instance(&mut Reader::new(&a)).unwrap();
        assert_eq!(decoded, inst);
        assert_eq!(decoded.get("r").unwrap().filed(), inst.get("r").unwrap().filed());
        // The same log encodes to the same bytes, from the original or
        // from what it decoded to.
        let mut b = Vec::new();
        put_instance(&mut b, &inst.clone());
        let mut c = Vec::new();
        put_instance(&mut c, &decoded);
        assert_eq!((&a, &a), (&b, &c));
    }

    #[test]
    fn firing_round_trips() {
        let f = RuleFiring::new([
            ("r", vec![TField::Const(Value::Int(3)), TField::Fresh(0)]),
            ("s", vec![TField::Fresh(0)]),
        ]);
        let mut out = Vec::new();
        put_firing(&mut out, &f);
        assert_eq!(take_firing(&mut Reader::new(&out)).unwrap(), f);
    }

    /// A record's firings share each run of one name: the reader builds
    /// a name where it differs from the atom before, and checks it as
    /// UTF-8 then, as `Reader::str` does.
    #[test]
    fn a_firing_reader_shares_a_run_of_one_name_and_checks_each_new_one() {
        let firing =
            |rel: &str, k: i64| RuleFiring::new([(rel, vec![TField::Const(Value::Int(k))])]);
        let written = [firing("r", 1), firing("r", 2), firing("s", 3), firing("r", 4)];
        let mut out = Vec::new();
        written.iter().for_each(|f| put_firing(&mut out, f));
        let (mut r, mut reader) = (Reader::new(&out), FiringReader::default());
        let read: Vec<RuleFiring> = written.iter().map(|_| reader.take(&mut r).unwrap()).collect();
        r.expect_end().unwrap();
        assert_eq!(read, written);
        let name = |i: usize| &read[i].atoms()[0].0;
        assert!(Arc::ptr_eq(name(0), name(1)), "one run, one name");
        assert!(!Arc::ptr_eq(name(1), name(3)), "a run that came back is built anew");

        // Invalid UTF-8 where a name is new stays a typed error.
        let mut bad = Vec::new();
        put_firing(&mut bad, &firing("r", 1));
        let mut tail = Vec::new();
        put_firing(&mut tail, &firing("\u{e9}", 1));
        let at = bad.len() + 2;
        assert_eq!(tail[2..4], [0xC3, 0xA9]);
        tail[2] = 0xFF;
        bad.extend(tail);
        let (mut r, mut reader) = (Reader::new(&bad), FiringReader::default());
        reader.take(&mut r).unwrap();
        let err = reader.take(&mut r).unwrap_err();
        assert_eq!(err.offset, at);
        assert!(err.detail.contains("invalid UTF-8"), "{err}");
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let mut out = Vec::new();
        put_tuple(&mut out, &tup![1, "abc", true]);
        for cut in 0..out.len() {
            assert!(take_tuple(&mut Reader::new(&out[..cut])).is_err(), "cut at {cut}");
        }
        // A firing whose template's first field is a constant: the decoder
        // has read it as a ground atom's when the placeholder turns up.
        let f = RuleFiring::new([
            ("r", vec![TField::Const(Value::Int(1)), TField::Const(Value::str("ab"))]),
            (
                "s",
                vec![TField::Const(Value::Int(2)), TField::Fresh(0), TField::Const(Value::Int(3))],
            ),
            ("t", vec![TField::Const(Value::Bool(true))]),
        ]);
        let mut out = Vec::new();
        put_firing(&mut out, &f);
        assert_eq!(take_firing(&mut Reader::new(&out)).unwrap(), f);
        for cut in 0..out.len() {
            assert!(take_firing(&mut Reader::new(&out[..cut])).is_err(), "firing cut at {cut}");
        }
        // A flipped bit decodes to some firing or is an error, never a panic.
        for bit in 0..out.len() * 8 {
            let mut flipped = out.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = take_firing(&mut Reader::new(&flipped));
        }
    }

    #[test]
    fn wild_length_is_rejected_before_allocation() {
        // A count claiming u64::MAX elements in a 3-byte input.
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        let err = take_tuple(&mut Reader::new(&out)).unwrap_err();
        assert!(err.detail.contains("exceeds"), "{err}");
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        assert!(take_value(&mut Reader::new(&[9])).is_err());
        assert!(take_tfield(&mut Reader::new(&[9])).is_err());
        let mut r = Reader::new(&[TAG_BOOL, 2]);
        assert!(take_value(&mut r).is_err(), "boolean byte 2 rejected");
        // In a firing, after a constant the decoder has set aside.
        let mut out = Vec::new();
        put_len(&mut out, 1);
        put_str(&mut out, "r");
        put_len(&mut out, 2);
        put_tfield(&mut out, &TField::Const(Value::Int(1)));
        out.push(9);
        let err = take_firing(&mut Reader::new(&out)).unwrap_err();
        assert!(err.detail.contains("unknown template-field tag 9"), "{err}");
    }

    #[test]
    fn duplicate_tuple_or_relation_is_non_canonical() {
        // A relation frame claiming two copies of one tuple.
        let mut out = Vec::new();
        put_schema(&mut out, &RelationSchema::with_types("r", &[ValueType::Int]));
        put_len(&mut out, 2);
        put_tuple(&mut out, &tup![5]);
        put_tuple(&mut out, &tup![5]);
        let err = take_relation(&mut Reader::new(&out)).unwrap_err();
        assert!(err.detail.contains("duplicate tuple"), "{err}");
        // An instance carrying the same relation name twice.
        let mut inst = Instance::new();
        inst.add_relation(RelationSchema::with_types("r", &[ValueType::Int]));
        let mut out = Vec::new();
        put_len(&mut out, 2);
        put_relation(&mut out, inst.get("r").unwrap());
        put_relation(&mut out, inst.get("r").unwrap());
        let err = take_instance(&mut Reader::new(&out)).unwrap_err();
        assert!(err.detail.contains("duplicate relation"), "{err}");
    }

    #[test]
    fn ill_typed_tuple_is_corruption() {
        // Encode a relation whose tuple contradicts its schema.
        let mut out = Vec::new();
        put_schema(&mut out, &RelationSchema::with_types("r", &[ValueType::Int]));
        put_len(&mut out, 1);
        put_tuple(&mut out, &tup!["not an int"]);
        let err = take_relation(&mut Reader::new(&out)).unwrap_err();
        assert!(err.detail.contains("schema"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut out = Vec::new();
        put_value(&mut out, &Value::Bool(false));
        out.push(0xEE);
        let mut r = Reader::new(&out);
        take_value(&mut r).unwrap();
        assert!(r.expect_end().is_err());
    }
}
