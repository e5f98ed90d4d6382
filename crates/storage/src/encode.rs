//! Compact binary encoding of documents (BSON-like, hand-rolled).
//!
//! Layout: every value starts with a one-byte tag. Lengths and counts are
//! LEB128 varints. Strings are UTF-8 bytes. Documents are sequences of
//! `(name, value)` pairs. Sizes reported by the stats module are sizes of
//! this encoding — extents store exactly these bytes.
//!
//! [`Writer`] is the only code that writes a tag byte. [`encode_document`]
//! and [`EncodedDoc::of`] encode a [`Document`] through it, the delta log
//! encodes its records' values through it, and a caller that has the
//! fields of a stored document at hand writes them straight into one,
//! field by field, without building a `Document`: the text ingest (its
//! instance and entity documents) and the cleaning stage (its curated
//! records).

use bytes::Buf;
use datatamer_model::{Document, DtError, Result, Value};

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_ARRAY: u8 = 0x06;
const TAG_DOC: u8 = 0x07;

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint.
pub fn get_varint(buf: &mut impl Buf) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(DtError::Decode("varint: unexpected end of input".into()));
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(DtError::Decode("varint: overflow".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// ZigZag-encode a signed integer so small magnitudes stay small.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Number of bytes `v` takes as a varint.
pub fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Writes values in this encoding. A stored document is started with
/// [`Writer::document`], which writes its header, and ended with
/// [`Writer::finish`]; in between, each field is a [`Writer::field`] name
/// followed by one value. A value is a scalar (`int`, `float`, `str`), any
/// [`Writer::value`], or an array or sub-document header (`array`,
/// `sub_document`) followed by that many items or fields.
/// The counts are the caller's to keep; a debug build checks on `finish`
/// that the bytes are exactly one document.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start a stored document of `fields` fields, with room for
    /// `capacity` bytes.
    pub fn document(fields: usize, capacity: usize) -> Writer {
        let mut w = Writer { buf: Vec::with_capacity(capacity) };
        w.sub_document(fields);
        w
    }

    /// A writer with no header, for a crate-internal frame that embeds
    /// values (the delta log's records).
    pub(crate) fn frame() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// The bytes written, for a [`Writer::frame`].
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A bare varint (a frame's counts and ids).
    pub(crate) fn varint(&mut self, v: u64) {
        put_varint(&mut self.buf, v);
    }

    /// A field name: the next value written is that field's.
    pub fn field(&mut self, name: &str) {
        put_varint(&mut self.buf, name.len() as u64);
        self.buf.extend_from_slice(name.as_bytes());
    }

    /// An integer.
    pub fn int(&mut self, i: i64) {
        self.buf.push(TAG_INT);
        put_varint(&mut self.buf, zigzag(i));
    }

    /// A float, bit for bit.
    pub fn float(&mut self, f: f64) {
        self.buf.push(TAG_FLOAT);
        self.buf.extend_from_slice(&f.to_be_bytes());
    }

    /// A string.
    pub fn str(&mut self, s: &str) {
        self.buf.push(TAG_STR);
        put_varint(&mut self.buf, s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// An array header: the next `items` values written are its items.
    pub fn array(&mut self, items: usize) {
        self.buf.push(TAG_ARRAY);
        put_varint(&mut self.buf, items as u64);
    }

    /// A sub-document header: the next `fields` field/value pairs written
    /// are its fields.
    pub fn sub_document(&mut self, fields: usize) {
        self.buf.push(TAG_DOC);
        put_varint(&mut self.buf, fields as u64);
    }

    /// Any value.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.buf.push(TAG_NULL),
            Value::Bool(b) => self.buf.push(if *b { TAG_TRUE } else { TAG_FALSE }),
            Value::Int(i) => self.int(*i),
            Value::Float(f) => self.float(*f),
            Value::Str(s) => self.str(s),
            Value::Array(items) => {
                self.array(items.len());
                for item in items {
                    self.value(item);
                }
            }
            Value::Doc(d) => self.fields_of(d),
        }
    }

    /// A sub-document header and every field of `d`.
    fn fields_of(&mut self, d: &Document) {
        self.sub_document(d.len());
        for (k, val) in d.iter() {
            self.field(k);
            self.value(val);
        }
    }

    /// The finished document.
    pub fn finish(self) -> EncodedDoc {
        debug_assert!(is_one_document(&self.buf), "a Writer must write exactly one document");
        EncodedDoc(self.buf)
    }
}

/// Whether `bytes` decode as one document with nothing left over.
fn is_one_document(mut bytes: &[u8]) -> bool {
    matches!(decode_value(&mut bytes), Ok(Value::Doc(_))) && bytes.is_empty()
}

/// One document in this encoding, ready to store. Only this module makes
/// one, through a [`Writer`], so a collection's encoded-placement path
/// (`Collection::insert_encoded`) can only be handed a whole encoding,
/// never arbitrary bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedDoc(Vec<u8>);

impl EncodedDoc {
    /// Encode `doc`.
    pub fn of(doc: &Document) -> EncodedDoc {
        let mut w = Writer { buf: Vec::with_capacity(encoded_doc_len(doc)) };
        w.fields_of(doc);
        w.finish()
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Decode one value.
pub fn decode_value(buf: &mut impl Buf) -> Result<Value> {
    if !buf.has_remaining() {
        return Err(DtError::Decode("value: unexpected end of input".into()));
    }
    match buf.get_u8() {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(unzigzag(get_varint(buf)?))),
        TAG_FLOAT => {
            if buf.remaining() < 8 {
                return Err(DtError::Decode("float: truncated".into()));
            }
            Ok(Value::Float(buf.get_f64()))
        }
        TAG_STR => Ok(Value::Str(get_string(buf)?)),
        TAG_ARRAY => {
            let n = get_varint(buf)? as usize;
            if n > buf.remaining() {
                return Err(DtError::Decode(format!("array: claimed {n} items exceeds input")));
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(buf)?);
            }
            Ok(Value::Array(items))
        }
        TAG_DOC => {
            let n = get_varint(buf)? as usize;
            if n > buf.remaining() {
                return Err(DtError::Decode(format!("doc: claimed {n} fields exceeds input")));
            }
            let mut d = Document::with_capacity(n);
            for _ in 0..n {
                let key = get_string(buf)?;
                let val = decode_value(buf)?;
                d.set(key, val);
            }
            Ok(Value::Doc(d))
        }
        tag => Err(DtError::Decode(format!("unknown tag 0x{tag:02x}"))),
    }
}

fn get_string(buf: &mut impl Buf) -> Result<String> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(DtError::Decode("string: truncated".into()));
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|e| DtError::Decode(format!("string: invalid utf8: {e}")))
}

/// Encode a document to a fresh byte vector of exactly its encoded length.
pub fn encode_document(doc: &Document) -> Vec<u8> {
    EncodedDoc::of(doc).0
}

/// Decode a document from bytes (must be a `Doc`-tagged value).
pub fn decode_document(mut bytes: &[u8]) -> Result<Document> {
    match decode_value(&mut bytes)? {
        Value::Doc(d) => Ok(d),
        other => Err(DtError::Type { expected: "doc", got: other.type_name() }),
    }
}

/// Exact encoded size of a value, without allocating.
pub fn encoded_len(v: &Value) -> usize {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(i) => 1 + varint_len(zigzag(*i)),
        Value::Float(_) => 9,
        Value::Str(s) => 1 + varint_len(s.len() as u64) + s.len(),
        Value::Array(items) => {
            1 + varint_len(items.len() as u64)
                + items.iter().map(encoded_len).sum::<usize>()
        }
        Value::Doc(d) => encoded_doc_len(d),
    }
}

/// Exact encoded size of a document (the `Doc` arm of [`encoded_len`]).
fn encoded_doc_len(d: &Document) -> usize {
    1 + varint_len(d.len() as u64)
        + d.iter()
            .map(|(k, val)| varint_len(k.len() as u64) + k.len() + encoded_len(val))
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::doc;

    fn encode_value(v: &Value) -> Vec<u8> {
        let mut w = Writer::frame();
        w.value(v);
        w.into_bytes()
    }

    fn roundtrip(v: Value) -> Value {
        let buf = encode_value(&v);
        assert_eq!(buf.len(), encoded_len(&v), "encoded_len must be exact for {v}");
        let mut slice = buf.as_slice();
        let out = decode_value(&mut slice).unwrap();
        assert!(slice.is_empty(), "decoder must consume all bytes");
        out
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(2.5),
            Value::Float(f64::INFINITY),
            Value::Str(String::new()),
            Value::Str("Matilda — the musical €27".into()),
        ] {
            assert_eq!(roundtrip(v.clone()), v);
        }
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let v = roundtrip(Value::Float(f64::NAN));
        assert!(matches!(v, Value::Float(f) if f.is_nan()), "expected NaN float, got {v:?}");
    }

    #[test]
    fn nested_document_roundtrips() {
        let d = doc! {
            "show" => "Matilda",
            "gross" => 960_998i64,
            "pct" => 0.93,
            "entities" => Value::Array(vec![
                Value::Doc(doc! {"type" => "Movie", "name" => "Matilda"}),
                Value::Null,
            ]),
            "meta" => Value::Doc(doc! {"lang" => "en"})
        };
        let bytes = encode_document(&d);
        assert_eq!(decode_document(&bytes).unwrap(), d);
        assert_eq!(bytes.len(), encoded_len(&Value::Doc(d)));
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            assert_eq!(get_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn small_ints_encode_small() {
        assert_eq!(encoded_len(&Value::Int(3)), 2);
        assert_eq!(encoded_len(&Value::Int(-3)), 2);
        assert!(encoded_len(&Value::Int(i64::MAX)) <= 11);
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let d = doc! {"a" => "hello", "b" => 42i64};
        let bytes = encode_document(&d);
        for cut in 0..bytes.len() {
            let r = decode_document(&bytes[..cut]);
            assert!(r.is_err(), "decoding {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn garbage_tag_errors() {
        let r = decode_value(&mut [0xFFu8].as_slice());
        assert!(matches!(r, Err(DtError::Decode(_))));
    }

    #[test]
    fn claimed_length_overflow_rejected() {
        // Array claiming u64::MAX items must not attempt allocation.
        let mut buf = vec![0x06u8];
        put_varint(&mut buf, u64::MAX);
        assert!(decode_value(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn non_doc_top_level_rejected_by_decode_document() {
        let buf = encode_value(&Value::Int(5));
        assert!(matches!(decode_document(&buf), Err(DtError::Type { .. })));
    }
}
