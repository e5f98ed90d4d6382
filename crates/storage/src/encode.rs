//! Compact binary encoding of documents (BSON-like, hand-rolled).
//!
//! Layout: every value starts with a one-byte tag. Lengths and counts are
//! LEB128 varints. Strings are UTF-8 bytes. Documents are sequences of
//! `(name, value)` pairs. Sizes reported by the stats module are sizes of
//! this encoding — extents store exactly these bytes.

use bytes::{Buf, BufMut};
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
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
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

/// Append one value.
pub fn encode_value(buf: &mut impl BufMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(false) => buf.put_u8(TAG_FALSE),
        Value::Bool(true) => buf.put_u8(TAG_TRUE),
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            put_varint(buf, zigzag(*i));
        }
        Value::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64(*f);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_varint(buf, s.len() as u64);
            buf.put_slice(s.as_bytes());
        }
        Value::Array(items) => {
            buf.put_u8(TAG_ARRAY);
            put_varint(buf, items.len() as u64);
            for item in items {
                encode_value(buf, item);
            }
        }
        Value::Doc(d) => encode_doc(buf, d),
    }
}

/// Append one `Doc`-tagged document (the `Doc` arm of [`encode_value`]).
fn encode_doc(buf: &mut impl BufMut, d: &Document) {
    buf.put_u8(TAG_DOC);
    put_varint(buf, d.len() as u64);
    for (k, val) in d.iter() {
        put_varint(buf, k.len() as u64);
        buf.put_slice(k.as_bytes());
        encode_value(buf, val);
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
    let mut buf = Vec::with_capacity(encoded_doc_len(doc));
    encode_doc(&mut buf, doc);
    buf
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

    fn roundtrip(v: Value) -> Value {
        let mut buf = Vec::new();
        encode_value(&mut buf, &v);
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
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::Int(5));
        assert!(matches!(decode_document(&buf), Err(DtError::Type { .. })));
    }
}
