//! Where one shard's extent chain lives.
//!
//! A shard is a chain of fixed-size extents behind one lock. Each link is
//! either resident or flushed to its own file with only its shape
//! (document count, used bytes, capacity) kept in memory. A collection's
//! [`BackendConfig`] decides which links may be flushed:
//!
//! * `Memory` — the shard has no directory. A full tail stays resident,
//!   a fresh tail chains after it, and a sync does nothing: everything is
//!   on the heap, zero I/O.
//! * `File { dir }` — out-of-core shards: only the tail extent (the one
//!   taking appends) stays resident. A full extent is written to its own
//!   file (the [`crate::extent::Extent::to_bytes`] encoding, one file per
//!   extent), and every later access to it reads that file. Resident
//!   memory is one extent per shard regardless of collection size, and
//!   reopening a shard over the same directory resumes the chain. The
//!   extent files are the only authority: a reopen decodes each one.
//!
//! A shard is append-only, so a document, once stored, never changes or
//! goes. Each operation has one entry point. Appends arrive as a batch (a
//! single insert is a one-element batch) and land under one lock
//! acquisition. The one read is an extent-wise scan: each extent is
//! visited independently, so the collection can fan extents out across
//! the rayon team. Both placements produce byte-identical scan output for
//! the same append sequence, pinned by tests.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use datatamer_model::{Document, DtError, Result};

use crate::encode::decode_document;
use crate::extent::Extent;

/// Which substrate a shard stores its extents on.
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

/// Shape of an extent, kept in memory for a flushed one so stats and
/// routing never touch disk.
#[derive(Debug, Clone, Copy)]
struct ExtentMeta {
    docs: usize,
    used: usize,
    capacity: usize,
}

impl ExtentMeta {
    fn of(e: &Extent) -> Self {
        ExtentMeta { docs: e.doc_count(), used: e.used_bytes(), capacity: e.capacity() }
    }
}

/// One link of a chain: either resident or flushed to its file with only
/// its metadata in memory.
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

/// One shard's extent chain; see the module docs.
///
/// Internally synchronised (`&self` methods take the chain's lock), so a
/// collection fans batch appends and scans out across the rayon team
/// with one `Shard` per shard.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Where full extents are flushed; `None` keeps every extent resident.
    dir: Option<PathBuf>,
    extent_size: usize,
    slots: RwLock<Vec<ExtentSlot>>,
    flushes: AtomicU64,
    decode_errors: AtomicU64,
}

impl Shard {
    /// An empty in-process shard (`dir` is `None`), or a file-backed shard
    /// at `dir`, created if needed. A file-backed shard adopts the chain
    /// already in its directory — `ext000000`, `ext000001`, … — with every
    /// extent flushed (the tail is re-loaded on the first append). Each
    /// file is decoded for its shape, so a torn extent fails the open. A
    /// gap in the numbering is an error too: the files past it would be
    /// ignored and later overwritten. No other file name is an extent.
    pub(crate) fn open(dir: Option<PathBuf>, extent_size: usize) -> Result<Self> {
        let slots = match &dir {
            None => Vec::new(),
            Some(dir) => adopt_chain(dir)?,
        };
        Ok(Shard {
            dir,
            extent_size,
            slots: RwLock::new(slots),
            flushes: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
        })
    }

    /// Which substrate this shard is.
    pub(crate) fn kind(&self) -> BackendKind {
        if self.dir.is_some() {
            BackendKind::File
        } else {
            BackendKind::Memory
        }
    }

    /// The shard's directory. Only a file-backed shard flushes extents,
    /// so only it ever asks.
    fn dir(&self) -> Result<&Path> {
        self.dir
            .as_deref()
            .ok_or_else(|| DtError::Io("an in-memory shard has no extent files".into()))
    }

    /// Write an extent's file: to `extNNNNNN.tmp`, then renamed over
    /// `extNNNNNN`, so a failed or interrupted rewrite of a synced tail
    /// leaves the previous file whole.
    fn write_extent(&self, index: usize, extent: &Extent) -> Result<()> {
        let dir = self.dir()?;
        let tmp = dir.join(format!("{}.tmp", extent_file(index)));
        fs::File::create(&tmp)?.write_all(&extent.to_bytes())?;
        fs::rename(&tmp, dir.join(extent_file(index)))?;
        self.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Write the resident extent at `index` to its file and keep only its
    /// shape in memory; a flushed extent or one past the chain is left
    /// as it is.
    fn flush(&self, slots: &mut [ExtentSlot], index: usize) -> Result<()> {
        if let Some(ExtentSlot::Loaded(e)) = slots.get(index) {
            let meta = ExtentMeta::of(e);
            self.write_extent(index, e)?;
            slots[index] = ExtentSlot::Flushed(meta);
        }
        Ok(())
    }

    /// Make the tail extent resident (loading it from its file when it was
    /// flushed), appending an empty tail to an empty chain. Returns the
    /// tail's index; `slots[index]` is `Loaded` on success.
    fn ensure_tail_loaded(&self, slots: &mut Vec<ExtentSlot>) -> Result<usize> {
        match slots.last() {
            None => slots.push(ExtentSlot::Loaded(Extent::new(self.extent_size))),
            Some(ExtentSlot::Flushed(_)) => {
                let index = slots.len() - 1;
                slots[index] = ExtentSlot::Loaded(load_extent(self.dir()?, index)?);
            }
            Some(ExtentSlot::Loaded(_)) => {}
        }
        Ok(slots.len() - 1)
    }

    /// Append one document, chaining a fresh tail when the current one is
    /// full. A file-backed shard flushes the full tail on the roll.
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
            if self.dir.is_some() {
                self.flush(slots, index)?;
            }
            slots.push(ExtentSlot::Loaded(Extent::new(self.extent_size)));
        }
    }

    /// Append a batch of encoded documents in order, under a single lock
    /// acquisition. Returns one `(extent_index, slot)` per document, in
    /// input order.
    pub(crate) fn append(&self, encoded: &[&[u8]]) -> Result<Vec<(u32, u32)>> {
        let mut slots = self.slots.write();
        encoded.iter().map(|e| self.append_locked(&mut slots, e)).collect()
    }

    /// Visit the documents of one extent in slot order (`f` receives
    /// `(slot, doc)`): a resident extent in place, a flushed one read from
    /// its file. Visiting extents in index order gives the
    /// `(extent, slot)` order both placements share; extents past the
    /// chain visit nothing. An unreadable extent is an error rather than
    /// being skipped (a skip would silently drop every document in it);
    /// documents that fail to decode are skipped but counted
    /// ([`Self::decode_errors`]).
    pub(crate) fn visit_extent(
        &self,
        extent: u32,
        mut f: impl FnMut(u32, &Document),
    ) -> Result<()> {
        let slots = self.slots.read();
        let loaded;
        let e = match slots.get(extent as usize) {
            None => return Ok(()),
            Some(ExtentSlot::Loaded(e)) => e,
            Some(ExtentSlot::Flushed(_)) => {
                loaded = load_extent(self.dir()?, extent as usize)?;
                &loaded
            }
        };
        for (slot, bytes) in e.iter() {
            match decode_document(bytes) {
                Ok(doc) => f(slot, &doc),
                Err(_) => {
                    self.decode_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(())
    }

    /// Documents stored in this shard (one per slot, decodable or not).
    pub(crate) fn len(&self) -> u64 {
        self.slots.read().iter().map(|s| s.meta().docs as u64).sum()
    }

    /// Extents in the chain.
    pub(crate) fn extent_count(&self) -> usize {
        self.slots.read().len()
    }

    /// Bytes used by encoded documents across the chain.
    pub(crate) fn used_bytes(&self) -> usize {
        self.slots.read().iter().map(|s| s.meta().used).sum()
    }

    /// Capacity of the last extent, or 0 when the chain is empty.
    pub(crate) fn last_extent_capacity(&self) -> usize {
        self.slots.read().last().map_or(0, |s| s.meta().capacity)
    }

    /// Write a file-backed shard's resident tail to its file so a reopen
    /// sees it; a no-op in memory. Nothing is fsynced: the write survives
    /// the process, not a power loss (see the crate's durability
    /// contract).
    pub(crate) fn sync(&self) -> Result<()> {
        if self.dir.is_none() {
            return Ok(());
        }
        let mut slots = self.slots.write();
        let tail = slots.len().saturating_sub(1);
        self.flush(&mut slots, tail)
    }

    /// Extent files written so far (0 in memory).
    pub(crate) fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Documents skipped because their bytes failed to decode, cumulative
    /// across every read of this shard. A nonzero value means the corpus
    /// is silently smaller than what was stored — surfaced in
    /// [`crate::collection::StorageReport`] instead of being swallowed.
    pub(crate) fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }
}

fn extent_file(index: usize) -> String {
    format!("ext{index:06}")
}

/// The extent index a file name stands for: exactly what
/// [`extent_file`] writes, so `ext000001.meta` or `ext1` is no extent.
fn extent_index(name: &str) -> Option<usize> {
    let index = name.strip_prefix("ext")?.parse().ok()?;
    (extent_file(index) == name).then_some(index)
}

/// Read and decode a flushed extent's file. Every reader — open, scan,
/// tail reload — reports a failure the same way.
fn load_extent(dir: &Path, index: usize) -> Result<Extent> {
    let read = || -> Result<Extent> {
        let mut bytes = Vec::new();
        fs::File::open(dir.join(extent_file(index)))?.read_to_end(&mut bytes)?;
        Extent::from_bytes(&bytes)
    };
    read().map_err(|e| DtError::Io(format!("shard extent {index} unreadable: {e}")))
}

/// Create `dir` if needed and decode the chain already in it, every
/// extent flushed. The numbering must run from 0 without a gap.
fn adopt_chain(dir: &Path) -> Result<Vec<ExtentSlot>> {
    fs::create_dir_all(dir)?;
    let mut indexes = Vec::new();
    for entry in fs::read_dir(dir)? {
        if let Some(index) = entry?.file_name().to_str().and_then(extent_index) {
            indexes.push(index);
        }
    }
    indexes.sort_unstable();
    indexes
        .into_iter()
        .enumerate()
        .map(|(expected, found)| {
            if found != expected {
                return Err(DtError::Io(format!(
                    "{}: extent file {} is missing but {} exists",
                    dir.display(),
                    extent_file(expected),
                    extent_file(found)
                )));
            }
            Ok(ExtentSlot::Flushed(ExtentMeta::of(&load_extent(dir, found)?)))
        })
        .collect()
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

    fn memory(extent_size: usize) -> Shard {
        Shard::open(None, extent_size).unwrap()
    }

    fn file(dir: &Path, extent_size: usize) -> Shard {
        Shard::open(Some(dir.to_path_buf()), extent_size).unwrap()
    }

    fn encoded(i: i64) -> Vec<u8> {
        encode_document(&doc! {"i" => i, "pad" => "x".repeat(24)})
    }

    /// Append one document as a one-element batch.
    fn append_one(s: &Shard, encoded: &[u8]) -> (u32, u32) {
        s.append(&[encoded]).unwrap()[0]
    }

    /// Every document in `(extent, slot)` order, through the one
    /// scan: each extent in index order.
    fn scan(s: &Shard) -> Result<Vec<(u32, u32, Document)>> {
        let mut out = Vec::new();
        for extent in 0..s.extent_count() as u32 {
            s.visit_extent(extent, |slot, d| out.push((extent, slot, d.clone())))?;
        }
        Ok(out)
    }

    #[test]
    fn memory_and_file_append_identically() {
        let dir = tempdir("ident");
        let mem = memory(128);
        let file = file(&dir, 128);
        for i in 0..20i64 {
            let e = encoded(i);
            assert_eq!(append_one(&mem, &e), append_one(&file, &e), "doc {i}");
        }
        assert_eq!(mem.len(), file.len());
        assert_eq!(mem.extent_count(), file.extent_count());
        assert_eq!(mem.used_bytes(), file.used_bytes());
        assert_eq!(scan(&mem).unwrap(), scan(&file).unwrap(), "scan order and content must match");
        assert!(file.flushes() > 0, "rolled extents were written out");
        assert_eq!(mem.flushes(), 0, "a memory shard writes nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backend_reopens_the_chain() {
        let dir = tempdir("reopen");
        {
            let file = file(&dir, 128);
            for i in 0..12i64 {
                append_one(&file, &encoded(i));
            }
            file.sync().unwrap();
        }
        let reopened = file(&dir, 128);
        assert_eq!(reopened.len(), 12);
        assert_eq!(scan(&reopened).unwrap().len(), 12);
        // And the chain keeps growing from where it left off.
        let (ext, _) = append_one(&reopened, &encoded(99));
        assert!(ext as usize >= reopened.extent_count() - 1);
        assert_eq!(reopened.len(), 13);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_with_a_gap_in_the_chain_is_an_error() {
        // Regression: the open used to stop at the first missing file, so
        // the extents past the gap were ignored and later overwritten.
        // Leftover `.meta` sidecars from older directories are no extents.
        let dir = tempdir("gap");
        {
            let file = file(&dir, 96);
            for i in 0..12i64 {
                append_one(&file, &encoded(i));
            }
            file.sync().unwrap();
            assert!(file.extent_count() >= 3, "need three extents");
        }
        fs::write(dir.join("ext000000.meta"), b"DTXM").unwrap();
        assert_eq!(file(&dir, 96).len(), 12, "a stray sidecar is ignored");
        fs::remove_file(dir.join("ext000001")).unwrap();
        let err = Shard::open(Some(dir.clone()), 96).unwrap_err();
        assert!(format!("{err}").contains("ext000001 is missing"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_errors_are_counted_not_silently_dropped() {
        let mem = memory(256);
        let garbage: &[u8] = b"\xff\xffgarbage that is not a document";
        mem.append(&[&encoded(1), garbage, &encoded(2)]).unwrap();
        assert_eq!(scan(&mem).unwrap().len(), 2, "the two well-formed documents still scan");
        assert_eq!(mem.decode_errors(), 1, "the corrupt one is counted, not dropped");
        // The undecodable document stays stored, so every scan counts it.
        assert_eq!(mem.len(), 3);
        assert_eq!(scan(&mem).unwrap().len(), 2);
        assert_eq!(mem.decode_errors(), 2, "each scan counts it again");
    }

    #[test]
    fn torn_extent_is_an_error_not_a_crash() {
        // Regression: an unreadable flushed extent used to panic! inside a
        // scan. It now surfaces as Err so the pipeline can report it. The
        // extent is read once before the tear, so no earlier read may mask
        // the damage either.
        let dir = tempdir("torn");
        let file = file(&dir, 96);
        let spots: Vec<(u32, u32)> =
            (0..10i64).map(|i| append_one(&file, &encoded(i))).collect();
        file.sync().unwrap();
        assert!(file.extent_count() > 1, "need a flushed extent");
        assert_eq!(spots[0].0, 0);
        assert_eq!(scan(&file).unwrap().len(), 10);
        fs::write(dir.join("ext000000"), b"torn").unwrap();
        let err = scan(&file).unwrap_err();
        assert!(format!("{err}").contains("extent 0"), "{err}");
        assert_eq!(file.len(), 10, "a failed read changes nothing");
        assert!(Shard::open(Some(dir.clone()), 96).is_err(), "nor does a reopen adopt it");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_tail_rewrite_keeps_the_synced_file() {
        // A synced tail that takes more appends is written again on the
        // next sync. That write goes to a temp file renamed over the old
        // one: when it fails, the old file still holds every synced
        // document.
        let dir = tempdir("rewrite");
        let file = file(&dir, 4096);
        for i in 0..3i64 {
            append_one(&file, &encoded(i));
        }
        file.sync().unwrap();
        assert_eq!(append_one(&file, &encoded(3)), (0, 3), "the tail takes the 4th document");
        fs::create_dir(dir.join("ext000000.tmp")).unwrap();
        assert!(file.sync().is_err(), "the temp file cannot be created");
        assert_eq!(file.len(), 4, "the resident tail keeps the unsynced document");
        let reopened = Shard::open(Some(dir.clone()), 4096).unwrap();
        let docs: Vec<Document> = scan(&reopened).unwrap().into_iter().map(|(_, _, d)| d).collect();
        let synced: Vec<Document> =
            (0..3i64).map(|i| doc! {"i" => i, "pad" => "x".repeat(24)}).collect();
        assert_eq!(docs, synced, "a reopen reads the three synced documents");
        fs::remove_dir_all(&dir).unwrap();
    }
}
