//! Fixed-size append-only extents.
//!
//! A collection's data lives in a chain of extents. Each extent is a
//! contiguous byte arena of fixed capacity holding encoded documents plus a
//! slot table. When an insert does not fit, a new extent is allocated — this
//! is precisely the `numExtents` / `lastExtentSize` bookkeeping the paper's
//! Tables I–II report (242 and 56 extents of 2 GB at paper scale).

use datatamer_model::{Document, Result};

use crate::encode::decode_document;

/// One fixed-capacity extent.
#[derive(Debug, Clone)]
pub struct Extent {
    /// Encoded document bytes, appended back to back.
    data: Vec<u8>,
    /// Byte offset of each slot's document in `data`.
    offsets: Vec<u32>,
    /// Tombstones; `true` means the slot was deleted.
    dead: Vec<bool>,
    /// Capacity in bytes.
    capacity: usize,
    live: usize,
}

impl Extent {
    /// Allocate an extent with the given byte capacity.
    pub fn new(capacity: usize) -> Self {
        Extent {
            data: Vec::new(),
            offsets: Vec::new(),
            dead: Vec::new(),
            capacity,
            live: 0,
        }
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
        self.dead.push(false);
        self.data.extend_from_slice(encoded);
        self.live += 1;
        Some(slot)
    }

    /// Number of live documents.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Bytes used by encoded documents.
    pub fn used_bytes(&self) -> usize {
        self.data.len()
    }

    /// The extent's fixed capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Raw encoded bytes of a slot, or `None` when out of range or dead.
    pub fn slot_bytes(&self, slot: u32) -> Option<&[u8]> {
        let i = slot as usize;
        if i >= self.offsets.len() || self.dead[i] {
            return None;
        }
        let start = self.offsets[i] as usize;
        let end = if i + 1 < self.offsets.len() {
            self.offsets[i + 1] as usize
        } else {
            self.data.len()
        };
        Some(&self.data[start..end])
    }

    /// Decode the document in a slot.
    pub fn get(&self, slot: u32) -> Option<Result<Document>> {
        self.slot_bytes(slot).map(decode_document)
    }

    /// Mark a slot deleted. Returns whether it was live.
    pub fn delete(&mut self, slot: u32) -> bool {
        let i = slot as usize;
        if i < self.dead.len() && !self.dead[i] {
            self.dead[i] = true;
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// Iterate `(slot, encoded bytes)` of live documents.
    pub fn iter_live(&self) -> impl Iterator<Item = (u32, &[u8])> {
        (0..self.offsets.len() as u32).filter_map(move |s| self.slot_bytes(s).map(|b| (s, b)))
    }

    /// Serialise the extent for its file (capacity, slot table, data).
    pub fn to_bytes(&self) -> Vec<u8> {
        use crate::encode::put_varint;
        let mut out = Vec::with_capacity(self.data.len() + self.offsets.len() * 5 + 32);
        put_varint(&mut out, self.capacity as u64);
        put_varint(&mut out, self.offsets.len() as u64);
        for (i, off) in self.offsets.iter().enumerate() {
            put_varint(&mut out, u64::from(*off));
            out.push(u8::from(self.dead[i]));
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
        use bytes::Buf;
        use datatamer_model::DtError;
        let capacity = get_varint(&mut bytes)? as usize;
        let n = get_varint(&mut bytes)? as usize;
        if n > bytes.len() {
            return Err(DtError::Decode("extent: slot table exceeds input".into()));
        }
        let mut offsets = Vec::with_capacity(n);
        let mut dead = Vec::with_capacity(n);
        for _ in 0..n {
            offsets.push(get_varint(&mut bytes)? as u32);
            if !bytes.has_remaining() {
                return Err(DtError::Decode("extent: truncated slot table".into()));
            }
            dead.push(bytes.get_u8() != 0);
        }
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
        let live = dead.iter().filter(|d| !**d).count();
        Ok(Extent { data, offsets, dead, capacity, live })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_document;
    use datatamer_model::doc;

    #[test]
    fn append_get_roundtrip() {
        let mut e = Extent::new(1024);
        let d1 = doc! {"a" => 1i64};
        let d2 = doc! {"b" => "two"};
        let s1 = e.append(&encode_document(&d1)).unwrap();
        let s2 = e.append(&encode_document(&d2)).unwrap();
        assert_eq!(e.get(s1).unwrap().unwrap(), d1);
        assert_eq!(e.get(s2).unwrap().unwrap(), d2);
        assert_eq!(e.offsets.len(), 2);
        assert_eq!(e.live_count(), 2);
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
    fn delete_tombstones() {
        let mut e = Extent::new(1024);
        let s = e.append(&encode_document(&doc! {"a" => 1i64})).unwrap();
        assert!(e.delete(s));
        assert!(!e.delete(s), "double delete is a no-op");
        assert!(e.get(s).is_none());
        assert_eq!(e.live_count(), 0);
        assert_eq!(e.offsets.len(), 1);
        assert!(!e.delete(99), "unknown slot");
    }

    #[test]
    fn iter_live_skips_dead() {
        let mut e = Extent::new(4096);
        let docs: Vec<_> = (0..5i64).map(|i| doc! {"i" => i}).collect();
        let slots: Vec<u32> = docs.iter().map(|d| e.append(&encode_document(d)).unwrap()).collect();
        e.delete(slots[1]);
        e.delete(slots[3]);
        let live: Vec<u32> = e.iter_live().map(|(s, _)| s).collect();
        assert_eq!(live, vec![0, 2, 4]);
    }

    #[test]
    fn persistence_roundtrip() {
        let mut e = Extent::new(512);
        for i in 0..4i64 {
            e.append(&encode_document(&doc! {"i" => i, "s" => format!("row{i}")})).unwrap();
        }
        e.delete(2);
        let bytes = e.to_bytes();
        let restored = Extent::from_bytes(&bytes).unwrap();
        assert_eq!(restored.capacity(), 512);
        assert_eq!(restored.offsets.len(), 4);
        assert_eq!(restored.live_count(), 3);
        assert!(restored.get(2).is_none());
        assert_eq!(
            restored.get(3).unwrap().unwrap(),
            doc! {"i" => 3i64, "s" => "row3"}
        );
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
        // 2 and the second byte 4.
        assert_eq!((bytes[2], u32::from(bytes[4])), (0, e.offsets[1]));
        let mut past_end = bytes.clone();
        past_end[4] = 100;
        let mut decreasing = bytes;
        decreasing.swap(2, 4);
        for bad in [past_end, decreasing] {
            let err = Extent::from_bytes(&bad).unwrap_err();
            assert!(matches!(err, datatamer_model::DtError::Decode(_)), "{err}");
        }
    }
}
