//! Pluggable shard backends: where one shard's extent chain lives.
//!
//! A shard is a chain of fixed-size extents. Historically that chain was an
//! in-process `Vec<Extent>` behind a lock inside `Collection`; the
//! [`ShardBackend`] trait lifts it into an interface — batch append, point
//! read, extent scan, tombstone delete — so the
//! coordinator can place shards on different substrates:
//!
//! * [`MemoryBackend`] — the extracted in-process shard: everything on the
//!   heap, zero I/O. Byte-compatible with the pre-coordinator collection.
//! * [`FileBackend`] — out-of-core shards: only the tail extent (the one
//!   taking appends) stays in memory; a full extent is flushed to its own
//!   file (the [`crate::extent::Extent::to_bytes`] encoding, one file
//!   per extent), and every later access to it reads that file. Resident
//!   memory is one extent per shard regardless of collection size, and
//!   reopening a backend over the same directory resumes the chain.
//!
//! Each operation has one entry point. Appends arrive as a batch
//! ([`ShardBackend::append`]; a single insert is a one-element batch) and
//! land under one lock acquisition. The one scan is extent-wise: each
//! extent is visited independently via [`ShardBackend::visit_extent`], so
//! the coordinator can fan extents out across the rayon team. Both
//! backends produce byte-identical scan output for the same append
//! sequence — the coordinator's equivalence contract, pinned by tests.

use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use datatamer_model::{Document, DtError, Result};

use crate::encode::decode_document;
use crate::extent::Extent;

/// Which substrate a backend stores its extents on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// In-process heap extents.
    Memory,
    /// One file per flushed extent under a shard directory.
    File,
}

impl BackendKind {
    /// Short stable name for reports and bench ids.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Memory => "memory",
            BackendKind::File => "file",
        }
    }
}

/// Declarative backend choice for a collection (travels on
/// [`crate::collection::CollectionConfig`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BackendConfig {
    /// In-process shards (the default).
    #[default]
    Memory,
    /// File-backed shards rooted at `dir`: the collection stores its
    /// shards under `dir/<collection-name>/shard<NNN>/`.
    File {
        /// Root directory for file-backed collections.
        dir: PathBuf,
    },
}

impl BackendConfig {
    /// The [`BackendKind`] this config instantiates.
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendConfig::Memory => BackendKind::Memory,
            BackendConfig::File { .. } => BackendKind::File,
        }
    }
}

/// Storage operations over one shard's extent chain.
///
/// Implementations are internally synchronised (`&self` methods take their
/// own locks) and `Send + Sync`: the coordinator fans `insert_many` and
/// scans out across the rayon team with one backend per shard.
pub trait ShardBackend: Send + Sync {
    /// Which substrate this backend is.
    fn kind(&self) -> BackendKind;

    /// Append a batch of encoded documents in order, under a single lock
    /// acquisition, chaining a new extent whenever the tail is full.
    /// Returns one `(extent_index, slot)` per document, in input order.
    fn append(&self, encoded: &[&[u8]]) -> Result<Vec<(u32, u32)>>;

    /// Decode the live document at `(extent, slot)`. `Ok(None)` strictly
    /// means "no live document there"; an unreadable extent is an error,
    /// exactly as for scans ([`Self::visit_extent`]) — a `None` would hide
    /// a lost extent behind "deleted".
    fn get(&self, extent: u32, slot: u32) -> Result<Option<Document>>;

    /// Tombstone `(extent, slot)`; returns whether the slot was live. Only
    /// slot liveness counts: a live slot whose bytes fail to decode is
    /// deleted like any other. Like [`Self::get`], an unreadable extent is
    /// an error, and so is a failed tombstone *write-back* — swallowing it
    /// would report a delete that a reopen undoes, and aborting the
    /// process (the old behaviour) turns one torn extent into an outage.
    fn delete(&self, extent: u32, slot: u32) -> Result<bool>;

    /// Visit the live documents of one extent in slot order (`f` receives
    /// `(slot, doc)`). Visiting extents in index order gives the
    /// `(extent, slot)` order every backend must share for byte-identical
    /// results. Extents past the chain (or tombstoned away) visit nothing.
    /// An unreadable extent is an error rather than being skipped (a skip
    /// would silently drop every document in it); individual documents
    /// that fail to decode are skipped but counted
    /// ([`Self::decode_errors`]) — never silently dropped.
    fn visit_extent(&self, extent: u32, f: &mut dyn FnMut(u32, &Document)) -> Result<()>;

    /// Live documents in this shard.
    fn len(&self) -> u64;

    /// True when no live documents exist.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extents in the chain.
    fn extent_count(&self) -> usize;

    /// Bytes used by encoded documents across the chain.
    fn used_bytes(&self) -> usize;

    /// Capacity of the last extent, or 0 when the chain is empty.
    fn last_extent_capacity(&self) -> usize;

    /// Write resident state (the file backend's tail extent) to its files
    /// so a reopen sees it; a no-op for memory. Nothing is fsynced: the
    /// write survives the process, not a power loss (see the crate's
    /// durability contract).
    fn sync(&self) -> Result<()> {
        Ok(())
    }

    /// Extent files written so far (0 for memory backends).
    fn flushes(&self) -> u64 {
        0
    }

    /// Documents skipped because their bytes failed to decode, cumulative
    /// across every read of this backend. A nonzero value means the
    /// corpus is silently smaller than what was stored — surfaced in
    /// [`crate::coordinator::StorageReport`] instead of being swallowed.
    fn decode_errors(&self) -> u64 {
        0
    }
}

/// Iterate one decoded extent's live slots, counting (never silently
/// dropping) documents whose bytes fail to decode.
fn visit_live(extent: &Extent, decode_errors: &AtomicU64, f: &mut dyn FnMut(u32, &Document)) {
    for (slot, bytes) in extent.iter_live() {
        match decode_document(bytes) {
            Ok(doc) => f(slot, &doc),
            Err(_) => {
                decode_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Fold a slot read into the point-read contract (`None` for missing or
/// unreadable) while counting decode failures.
fn fold_decode(decode_errors: &AtomicU64, slot: Option<Result<Document>>) -> Option<Document> {
    match slot {
        Some(Ok(doc)) => Some(doc),
        Some(Err(_)) => {
            decode_errors.fetch_add(1, Ordering::Relaxed);
            None
        }
        None => None,
    }
}

// ---------------------------------------------------------------------------
// MemoryBackend
// ---------------------------------------------------------------------------

/// The in-process shard: `Vec<Extent>` behind one lock — exactly what
/// `Collection` used to inline per shard.
#[derive(Debug)]
pub struct MemoryBackend {
    extent_size: usize,
    extents: RwLock<Vec<Extent>>,
    decode_errors: AtomicU64,
}

impl MemoryBackend {
    /// Empty in-process shard with the given extent capacity.
    pub fn new(extent_size: usize) -> Self {
        MemoryBackend {
            extent_size,
            extents: RwLock::new(Vec::new()),
            decode_errors: AtomicU64::new(0),
        }
    }

    /// Append to the tail extent of `extents`, chaining when full.
    fn append_to(extents: &mut Vec<Extent>, encoded: &[u8], extent_size: usize) -> (u32, u32) {
        loop {
            if let Some(last) = extents.last_mut() {
                if let Some(slot) = last.append(encoded) {
                    return ((extents.len() - 1) as u32, slot);
                }
            }
            extents.push(Extent::new(extent_size));
        }
    }
}

impl ShardBackend for MemoryBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }

    fn append(&self, encoded: &[&[u8]]) -> Result<Vec<(u32, u32)>> {
        let mut extents = self.extents.write();
        Ok(encoded
            .iter()
            .map(|e| Self::append_to(&mut extents, e, self.extent_size))
            .collect())
    }

    fn get(&self, extent: u32, slot: u32) -> Result<Option<Document>> {
        let extents = self.extents.read();
        let Some(e) = extents.get(extent as usize) else { return Ok(None) };
        Ok(fold_decode(&self.decode_errors, e.get(slot)))
    }

    fn delete(&self, extent: u32, slot: u32) -> Result<bool> {
        let mut extents = self.extents.write();
        Ok(extents.get_mut(extent as usize).is_some_and(|e| e.delete(slot)))
    }

    fn visit_extent(&self, extent: u32, f: &mut dyn FnMut(u32, &Document)) -> Result<()> {
        let extents = self.extents.read();
        if let Some(e) = extents.get(extent as usize) {
            visit_live(e, &self.decode_errors, f);
        }
        Ok(())
    }

    fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }

    fn len(&self) -> u64 {
        self.extents.read().iter().map(|e| e.live_count() as u64).sum()
    }

    fn extent_count(&self) -> usize {
        self.extents.read().len()
    }

    fn used_bytes(&self) -> usize {
        self.extents.read().iter().map(Extent::used_bytes).sum()
    }

    fn last_extent_capacity(&self) -> usize {
        self.extents.read().last().map_or(0, Extent::capacity)
    }
}

// ---------------------------------------------------------------------------
// FileBackend
// ---------------------------------------------------------------------------

/// Shape of a flushed extent, kept in memory so stats and routing never
/// touch disk.
#[derive(Debug, Clone, Copy)]
struct ExtentMeta {
    live: usize,
    used: usize,
    capacity: usize,
}

impl ExtentMeta {
    fn of(e: &Extent) -> Self {
        ExtentMeta { live: e.live_count(), used: e.used_bytes(), capacity: e.capacity() }
    }
}

/// One link of a file-backed chain: either resident (the tail taking
/// appends) or flushed to its file with only its metadata in memory.
#[derive(Debug)]
enum ExtentSlot {
    Loaded(Extent),
    Flushed(ExtentMeta),
}

impl ExtentSlot {
    fn meta(&self) -> ExtentMeta {
        match self {
            ExtentSlot::Loaded(e) => ExtentMeta::of(e),
            ExtentSlot::Flushed(m) => *m,
        }
    }
}

/// Out-of-core shard: extents live as files under a directory, with only
/// the tail extent resident in the slot chain; every access to a flushed
/// extent reads its file. See the module docs for the layout contract.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    extent_size: usize,
    slots: RwLock<Vec<ExtentSlot>>,
    flushes: AtomicU64,
    decode_errors: AtomicU64,
}

impl FileBackend {
    /// Open (or create) a file-backed shard at `dir`. An existing chain —
    /// `ext000000`, `ext000001`, … — is adopted: all extents start flushed
    /// and the tail is re-loaded on the first append. Each flushed extent
    /// carries a small `.meta` sidecar (data length + live/used/capacity),
    /// so adoption reads O(extent count) bytes, not the whole collection;
    /// a missing, corrupt, or length-mismatched sidecar falls back to
    /// decoding that one extent (the private `read_meta_sidecar` documents
    /// the one crash window the length check cannot cover).
    pub fn open(dir: impl Into<PathBuf>, extent_size: usize) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut slots = Vec::new();
        loop {
            let path = dir.join(extent_file(slots.len()));
            if !path.exists() {
                break;
            }
            let file_len = fs::metadata(&path)?.len();
            let meta = match read_meta_sidecar(&dir.join(meta_file(slots.len())), file_len) {
                Some(meta) => meta,
                None => ExtentMeta::of(&read_extent(&path)?),
            };
            slots.push(ExtentSlot::Flushed(meta));
        }
        Ok(FileBackend {
            dir,
            extent_size,
            slots: RwLock::new(slots),
            flushes: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
        })
    }

    fn path_of(&self, index: usize) -> PathBuf {
        self.dir.join(extent_file(index))
    }

    fn meta_path_of(&self, index: usize) -> PathBuf {
        self.dir.join(meta_file(index))
    }

    fn write_extent(&self, index: usize, extent: &Extent) -> Result<()> {
        let bytes = extent.to_bytes();
        fs::File::create(self.path_of(index))?.write_all(&bytes)?;
        write_meta_sidecar(&self.meta_path_of(index), ExtentMeta::of(extent), bytes.len() as u64)?;
        self.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Read and decode a flushed extent's file. Every reader — point
    /// read, delete, scan, tail reload — reports a failure the same way.
    fn load_extent(&self, index: usize) -> Result<Extent> {
        read_extent(&self.path_of(index))
            .map_err(|e| DtError::Io(format!("shard extent {index} unreadable: {e}")))
    }

    /// Make the tail extent resident (loading it from its file when it was
    /// flushed), appending an empty tail to an empty chain. Returns the
    /// tail's index; `slots[index]` is `Loaded` on success.
    fn ensure_tail_loaded(&self, slots: &mut Vec<ExtentSlot>) -> Result<usize> {
        match slots.last() {
            None => slots.push(ExtentSlot::Loaded(Extent::new(self.extent_size))),
            Some(ExtentSlot::Flushed(_)) => {
                let index = slots.len() - 1;
                slots[index] = ExtentSlot::Loaded(self.load_extent(index)?);
            }
            Some(ExtentSlot::Loaded(_)) => {}
        }
        Ok(slots.len() - 1)
    }

    /// Append with flush-on-roll: a full tail is written to its file,
    /// demoted to metadata, and a fresh resident tail opens.
    fn append_locked(&self, slots: &mut Vec<ExtentSlot>, encoded: &[u8]) -> Result<(u32, u32)> {
        loop {
            let index = self.ensure_tail_loaded(slots)?;
            // Every `ensure_tail_loaded` arm leaves `slots[index]`
            // resident; an `Err` here instead of `unreachable!` keeps
            // the storage crate panic-free even if that drifts.
            let ExtentSlot::Loaded(tail) = &mut slots[index] else {
                return Err(DtError::Io("tail extent not resident after load".into()));
            };
            if let Some(slot) = tail.append(encoded) {
                return Ok((index as u32, slot));
            }
            let meta = ExtentMeta::of(tail);
            self.write_extent(index, tail)?;
            slots[index] = ExtentSlot::Flushed(meta);
            slots.push(ExtentSlot::Loaded(Extent::new(self.extent_size)));
        }
    }
}

fn extent_file(index: usize) -> String {
    format!("ext{index:06}")
}

fn meta_file(index: usize) -> String {
    format!("ext{index:06}.meta")
}

fn read_extent(path: &std::path::Path) -> Result<Extent> {
    let mut bytes = Vec::new();
    fs::File::open(path)
        .map_err(|e| DtError::Io(format!("{}: {e}", path.display())))?
        .read_to_end(&mut bytes)?;
    Extent::from_bytes(&bytes)
}

const META_MAGIC: &[u8; 4] = b"DTXM";

fn write_meta_sidecar(path: &std::path::Path, meta: ExtentMeta, file_len: u64) -> Result<()> {
    use crate::encode::put_varint;
    let mut buf = Vec::with_capacity(4 + 20);
    buf.extend_from_slice(META_MAGIC);
    put_varint(&mut buf, file_len);
    put_varint(&mut buf, meta.live as u64);
    put_varint(&mut buf, meta.used as u64);
    put_varint(&mut buf, meta.capacity as u64);
    fs::File::create(path)?.write_all(&buf)?;
    Ok(())
}

/// Best-effort sidecar read: any miss (absent, truncated, bad magic, or a
/// recorded data-file length that no longer matches the extent file)
/// returns `None` and the caller decodes the extent itself instead. The
/// length check catches the common crash window — an extent rewritten
/// (append roll) without its sidecar reaching disk. A crash
/// between a *tombstone* write-through and its sidecar is the one case
/// this cannot detect (tombstoning flips a flag byte, leaving the length
/// unchanged), so `live`/`used` may then overcount until the extent is
/// next rewritten; scans and point reads always decode the real file and
/// are never affected. Journaled metadata would close that window — out
/// of scope here.
fn read_meta_sidecar(path: &std::path::Path, file_len: u64) -> Option<ExtentMeta> {
    use crate::encode::get_varint;
    let mut bytes = Vec::new();
    fs::File::open(path).ok()?.read_to_end(&mut bytes).ok()?;
    if bytes.len() < 4 || &bytes[..4] != META_MAGIC {
        return None;
    }
    let mut buf = &bytes[4..];
    let recorded_len = get_varint(&mut buf).ok()?;
    if recorded_len != file_len {
        return None;
    }
    let live = get_varint(&mut buf).ok()? as usize;
    let used = get_varint(&mut buf).ok()? as usize;
    let capacity = get_varint(&mut buf).ok()? as usize;
    Some(ExtentMeta { live, used, capacity })
}

impl ShardBackend for FileBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::File
    }

    fn append(&self, encoded: &[&[u8]]) -> Result<Vec<(u32, u32)>> {
        let mut slots = self.slots.write();
        encoded.iter().map(|e| self.append_locked(&mut slots, e)).collect()
    }

    fn get(&self, extent: u32, slot: u32) -> Result<Option<Document>> {
        let slots = self.slots.read();
        match slots.get(extent as usize) {
            None => Ok(None),
            Some(ExtentSlot::Loaded(e)) => Ok(fold_decode(&self.decode_errors, e.get(slot))),
            Some(ExtentSlot::Flushed(_)) => {
                // An unreadable extent propagates: "tombstoned" and "lost
                // an extent" must stay distinguishable.
                let e = self.load_extent(extent as usize)?;
                Ok(fold_decode(&self.decode_errors, e.get(slot)))
            }
        }
    }

    fn delete(&self, extent: u32, slot: u32) -> Result<bool> {
        let mut slots = self.slots.write();
        let index = extent as usize;
        match slots.get_mut(index) {
            None => Ok(false),
            Some(ExtentSlot::Loaded(e)) => Ok(e.delete(slot)),
            Some(ExtentSlot::Flushed(_)) => {
                // Read-modify-write: the tombstone must reach the file, or
                // a reopen would resurrect the document. Both an
                // unreadable extent (like `get`) and a failed write-back
                // surface as errors — swallowing either would report a
                // delete that a reopen undoes.
                let mut e = self.load_extent(index)?;
                if !e.delete(slot) {
                    return Ok(false);
                }
                self.write_extent(index, &e).map_err(|err| {
                    DtError::Io(format!("tombstone write-back, extent {index}: {err}"))
                })?;
                slots[index] = ExtentSlot::Flushed(ExtentMeta::of(&e));
                Ok(true)
            }
        }
    }

    fn visit_extent(&self, extent: u32, f: &mut dyn FnMut(u32, &Document)) -> Result<()> {
        // The read lock is held across the file read, so a tombstone
        // write-back (which takes the write lock) never rewrites the file
        // under a reader.
        let slots = self.slots.read();
        match slots.get(extent as usize) {
            Some(ExtentSlot::Loaded(e)) => visit_live(e, &self.decode_errors, f),
            Some(ExtentSlot::Flushed(_)) => {
                visit_live(&self.load_extent(extent as usize)?, &self.decode_errors, f)
            }
            None => {}
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.slots.read().iter().map(|s| s.meta().live as u64).sum()
    }

    fn extent_count(&self) -> usize {
        self.slots.read().len()
    }

    fn used_bytes(&self) -> usize {
        self.slots.read().iter().map(|s| s.meta().used).sum()
    }

    fn last_extent_capacity(&self) -> usize {
        self.slots.read().last().map_or(0, |s| s.meta().capacity)
    }

    fn sync(&self) -> Result<()> {
        let mut slots = self.slots.write();
        if let Some(index) = slots.len().checked_sub(1) {
            if let ExtentSlot::Loaded(tail) = &slots[index] {
                let meta = ExtentMeta::of(tail);
                self.write_extent(index, tail)?;
                slots[index] = ExtentSlot::Flushed(meta);
            }
        }
        Ok(())
    }

    fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_document;
    use datatamer_model::doc;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dt_backend_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn encoded(i: i64) -> Vec<u8> {
        encode_document(&doc! {"i" => i, "pad" => "x".repeat(24)})
    }

    /// Append one document as a one-element batch.
    fn append_one(b: &dyn ShardBackend, encoded: &[u8]) -> (u32, u32) {
        b.append(&[encoded]).unwrap()[0]
    }

    /// Every live document in `(extent, slot)` order, through the one
    /// scan: each extent in index order.
    fn scan(b: &dyn ShardBackend) -> Result<Vec<(u32, u32, Document)>> {
        let mut out = Vec::new();
        for extent in 0..b.extent_count() as u32 {
            b.visit_extent(extent, &mut |slot, d| out.push((extent, slot, d.clone())))?;
        }
        Ok(out)
    }

    #[test]
    fn memory_and_file_append_identically() {
        let dir = tempdir("ident");
        let mem = MemoryBackend::new(128);
        let file = FileBackend::open(&dir, 128).unwrap();
        for i in 0..20i64 {
            let e = encoded(i);
            assert_eq!(append_one(&mem, &e), append_one(&file, &e), "doc {i}");
        }
        assert_eq!(mem.len(), file.len());
        assert_eq!(mem.extent_count(), file.extent_count());
        assert_eq!(mem.used_bytes(), file.used_bytes());
        assert_eq!(scan(&mem).unwrap(), scan(&file).unwrap(), "scan order and content must match");
        assert!(file.flushes() > 0, "rolled extents were written out");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backend_reopens_the_chain() {
        let dir = tempdir("reopen");
        {
            let file = FileBackend::open(&dir, 128).unwrap();
            for i in 0..12i64 {
                append_one(&file, &encoded(i));
            }
            file.sync().unwrap();
        }
        let reopened = FileBackend::open(&dir, 128).unwrap();
        assert_eq!(reopened.len(), 12);
        assert_eq!(scan(&reopened).unwrap().len(), 12);
        // And the chain keeps growing from where it left off.
        let (ext, _) = append_one(&reopened, &encoded(99));
        assert!(ext as usize >= reopened.extent_count() - 1);
        assert_eq!(reopened.len(), 13);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_delete_reaches_flushed_extents() {
        let dir = tempdir("del");
        let file = FileBackend::open(&dir, 96).unwrap();
        let spots: Vec<(u32, u32)> =
            (0..10i64).map(|i| append_one(&file, &encoded(i))).collect();
        // Delete one doc from a rolled (flushed) extent and one from the tail.
        let (fe, fs_) = spots[0];
        assert!(file.delete(fe, fs_).unwrap());
        assert!(!file.delete(fe, fs_).unwrap(), "double delete is a no-op");
        let (te, ts) = *spots.last().unwrap();
        assert!(file.delete(te, ts).unwrap());
        assert_eq!(file.len(), 8);
        file.sync().unwrap();
        let reopened = FileBackend::open(&dir, 96).unwrap();
        assert_eq!(reopened.len(), 8, "tombstones survive reopen");
        assert!(reopened.get(fe, fs_).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_uses_meta_sidecars_and_survives_their_absence() {
        let dir = tempdir("sidecar");
        {
            let file = FileBackend::open(&dir, 96).unwrap();
            for i in 0..12i64 {
                append_one(&file, &encoded(i));
            }
            file.sync().unwrap();
        }
        // Sidecars exist for every flushed extent.
        assert!(dir.join("ext000000.meta").exists());
        // Deleting one sidecar degrades that extent to a full decode, not
        // an error — and a corrupt sidecar behaves the same.
        fs::remove_file(dir.join("ext000000.meta")).unwrap();
        fs::write(dir.join("ext000001.meta"), b"garbage").unwrap();
        let reopened = FileBackend::open(&dir, 96).unwrap();
        assert_eq!(reopened.len(), 12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_errors_are_counted_not_silently_dropped() {
        let mem = MemoryBackend::new(256);
        let garbage: &[u8] = b"\xff\xffgarbage that is not a document";
        let spots = mem.append(&[&encoded(1), garbage, &encoded(2)]).unwrap();
        assert_eq!(scan(&mem).unwrap().len(), 2, "the two well-formed documents still scan");
        assert_eq!(mem.decode_errors(), 1, "the corrupt one is counted, not dropped");
        // Delete tombstones on slot liveness, so the undecodable document
        // can be deleted instead of staying in `len()` forever.
        assert_eq!(mem.len(), 3);
        let (e, s) = spots[1];
        assert!(mem.delete(e, s).unwrap(), "a live slot that fails to decode is deleted");
        assert_eq!(mem.len(), 2);
        assert_eq!(scan(&mem).unwrap().len(), 2);
        assert_eq!(mem.decode_errors(), 1, "the tombstoned slot is no longer read");
    }

    #[test]
    fn torn_extent_is_an_error_not_a_crash() {
        // Regression: an unreadable flushed extent used to panic! inside a
        // scan (and the tombstone write-back likewise aborted). Both now
        // surface as Err so the pipeline can report them. The extent is
        // read once before the tear, so no earlier read may mask the
        // damage either.
        let dir = tempdir("torn");
        let file = FileBackend::open(&dir, 96).unwrap();
        let spots: Vec<(u32, u32)> =
            (0..10i64).map(|i| append_one(&file, &encoded(i))).collect();
        file.sync().unwrap();
        assert!(file.extent_count() > 1, "need a flushed extent");
        let (victim_extent, victim_slot) = spots[0];
        assert_eq!(victim_extent, 0);
        assert!(file.get(victim_extent, victim_slot).unwrap().is_some());
        assert_eq!(scan(&file).unwrap().len(), 10);
        // Tear the first flushed extent (and its sidecar, so nothing masks
        // the damage).
        fs::write(dir.join("ext000000"), b"torn").unwrap();
        let _ = fs::remove_file(dir.join("ext000000.meta"));
        let err = scan(&file).unwrap_err();
        assert!(format!("{err}").contains("extent 0"), "{err}");
        assert!(file.get(victim_extent, victim_slot).is_err(), "get reads the torn file");
        assert!(file.delete(victim_extent, victim_slot).is_err(), "delete reads the torn file");
        assert_eq!(file.len(), 10, "a failed delete changes nothing");
        fs::remove_dir_all(&dir).unwrap();
    }
}
