//! Fixed-size append-only extents.
//!
//! A collection's data lives in a chain of extents. Each extent is a
//! contiguous byte arena of fixed capacity holding encoded documents plus a
//! slot table. When an insert does not fit, a new extent is allocated — this
//! is precisely the `numExtents` / `lastExtentSize` bookkeeping the paper's
//! Tables I–II report (242 and 56 extents of 2 GB at paper scale). Nothing
//! is ever removed from an extent: its document count is its slot count.

use datatamer_model::Result;

/// One fixed-capacity extent.
#[derive(Debug, Clone)]
pub struct Extent {
    /// Encoded document bytes, appended back to back.
    data: Vec<u8>,
    /// Byte offset of each slot's document in `data`.
    offsets: Vec<u32>,
    /// Capacity in bytes.
    capacity: usize,
}

impl Extent {
    /// Allocate an extent with the given byte capacity.
    pub fn new(capacity: usize) -> Self {
        Extent { data: Vec::new(), offsets: Vec::new(), capacity }
    }

    /// Try to append an encoded document; returns the slot number, or `None`
    /// when it does not fit. Documents larger than the whole extent capacity
    /// are accepted into an otherwise-empty extent (oversize documents must
    /// not be unstorable — mirrors document stores' jumbo handling).
    pub fn append(&mut self, encoded: &[u8]) -> Option<u32> {
        let fits = self.data.len() + encoded.len() <= self.capacity;
        let jumbo_ok = self.offsets.is_empty();
        if !fits && !jumbo_ok {
            return None;
        }
        let slot = self.offsets.len() as u32;
        self.offsets.push(self.data.len() as u32);
        self.data.extend_from_slice(encoded);
        Some(slot)
    }

    /// Number of documents (one per slot).
    pub fn doc_count(&self) -> usize {
        self.offsets.len()
    }

    /// Bytes used by encoded documents.
    pub fn used_bytes(&self) -> usize {
        self.data.len()
    }

    /// The extent's fixed capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterate `(slot, encoded bytes)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u8])> {
        let ends = self.offsets.iter().skip(1).map(|&o| o as usize);
        let ends = ends.chain(std::iter::once(self.data.len()));
        self.offsets
            .iter()
            .zip(ends)
            .enumerate()
            .map(|(slot, (&start, end))| (slot as u32, &self.data[start as usize..end]))
    }

    /// Serialise the extent for its file (capacity, slot table, data).
    pub fn to_bytes(&self) -> Vec<u8> {
        use crate::encode::put_varint;
        let mut out = Vec::with_capacity(self.data.len() + self.offsets.len() * 5 + 32);
        put_varint(&mut out, self.capacity as u64);
        put_varint(&mut out, self.offsets.len() as u64);
        for off in &self.offsets {
            put_varint(&mut out, u64::from(*off));
        }
        put_varint(&mut out, self.data.len() as u64);
        out.extend_from_slice(&self.data);
        out
    }

    /// Restore an extent serialised by [`Extent::to_bytes`]. Slot offsets
    /// that decrease or point past the data are a decode error, so a
    /// corrupt file can never make a later slot read slice out of range.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self> {
        use crate::encode::get_varint;
        use datatamer_model::DtError;
        let capacity = get_varint(&mut bytes)? as usize;
        let n = get_varint(&mut bytes)? as usize;
        if n > bytes.len() {
            return Err(DtError::Decode("extent: slot table exceeds input".into()));
        }
        let offsets = (0..n)
            .map(|_| get_varint(&mut bytes).map(|off| off as u32))
            .collect::<Result<Vec<u32>>>()?;
        let dlen = get_varint(&mut bytes)? as usize;
        if bytes.len() < dlen {
            return Err(DtError::Decode("extent: truncated data".into()));
        }
        let mut prev = 0u32;
        for &off in &offsets {
            if off < prev || off as usize > dlen {
                return Err(DtError::Decode(format!(
                    "extent: slot offset {off} out of order or past {dlen} data bytes"
                )));
            }
            prev = off;
        }
        let data = bytes[..dlen].to_vec();
        Ok(Extent { data, offsets, capacity })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{decode_document, encode_document};
    use datatamer_model::{doc, Document};

    /// Every document in slot order, decoded.
    fn docs(e: &Extent) -> Vec<(u32, Document)> {
        e.iter().map(|(slot, bytes)| (slot, decode_document(bytes).unwrap())).collect()
    }

    #[test]
    fn append_get_roundtrip() {
        let mut e = Extent::new(1024);
        let d1 = doc! {"a" => 1i64};
        let d2 = doc! {"b" => "two"};
        let s1 = e.append(&encode_document(&d1)).unwrap();
        let s2 = e.append(&encode_document(&d2)).unwrap();
        assert_eq!(docs(&e), vec![(s1, d1), (s2, d2)]);
        assert_eq!(e.offsets.len(), 2);
        assert_eq!(e.doc_count(), 2);
    }

    #[test]
    fn capacity_overflow_rejects() {
        let d = doc! {"k" => "0123456789"};
        let sz = encode_document(&d).len();
        let mut e = Extent::new(sz * 2);
        assert!(e.append(&encode_document(&d)).is_some());
        assert!(e.append(&encode_document(&d)).is_some());
        assert!(e.append(&encode_document(&d)).is_none(), "third must overflow");
        assert_eq!(e.used_bytes(), sz * 2);
    }

    #[test]
    fn jumbo_document_fits_empty_extent_only() {
        let big = doc! {"blob" => "x".repeat(100)};
        let mut e = Extent::new(16);
        assert!(e.append(&encode_document(&big)).is_some(), "jumbo allowed when empty");
        assert!(e.append(&encode_document(&doc! {"a" => 1i64})).is_none());
    }

    #[test]
    fn persistence_roundtrip() {
        let mut e = Extent::new(512);
        for i in 0..4i64 {
            e.append(&encode_document(&doc! {"i" => i, "s" => format!("row{i}")})).unwrap();
        }
        let bytes = e.to_bytes();
        let restored = Extent::from_bytes(&bytes).unwrap();
        assert_eq!(restored.capacity(), 512);
        assert_eq!(restored.offsets.len(), 4);
        assert_eq!(restored.doc_count(), 4);
        assert_eq!(docs(&restored), docs(&e));
        assert_eq!(docs(&restored)[3], (3, doc! {"i" => 3i64, "s" => "row3"}));
    }

    #[test]
    fn corrupt_persistence_errors() {
        let mut e = Extent::new(64);
        e.append(&encode_document(&doc! {"a" => 1i64})).unwrap();
        e.append(&encode_document(&doc! {"b" => 2i64})).unwrap();
        let bytes = e.to_bytes();
        assert!(Extent::from_bytes(&bytes[..bytes.len() - 2]).is_err());
        assert!(Extent::from_bytes(&[]).is_err());
        // A slot offset past the data or below its predecessor used to
        // decode fine and then panic on the first read of the slot. Every
        // header field is a one-byte varint here: the first offset is byte
        // 2 and the second byte 3.
        assert_eq!((bytes[2], u32::from(bytes[3])), (0, e.offsets[1]));
        let mut past_end = bytes.clone();
        past_end[3] = 100;
        let mut decreasing = bytes;
        decreasing.swap(2, 3);
        for bad in [past_end, decreasing] {
            let err = Extent::from_bytes(&bad).unwrap_err();
            assert!(matches!(err, datatamer_model::DtError::Decode(_)), "{err}");
        }
    }
}
