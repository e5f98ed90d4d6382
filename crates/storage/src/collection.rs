//! Sharded collections of documents.
//!
//! A collection owns one shard per configured shard number and places
//! documents on them round robin. Each shard owns a chain of fixed-size
//! extents, in process ([`BackendConfig::Memory`]) or out of core on files
//! ([`BackendConfig::File`]), so concurrent ingest scales with shard count
//! — the in-process analogue of the paper's distributed 2 GB-extent
//! collections. Document ids pack `(shard, extent, slot)`. A collection
//! is append-only and read only by scan. Each operation has one path:
//!
//! * **Append.** Every insert is a batch of [`EncodedDoc`]s placed by
//!   [`Collection::insert_encoded`]: reserve the whole round-robin window
//!   with one atomic bump, one append per shard, shards appending
//!   concurrently, `DocId`s gathered back in input order. A single insert
//!   is a one-element batch and runs inline on the caller;
//!   [`Collection::insert_many`] encodes its documents in parallel first.
//! * **Scan.** [`Collection::parallel_scan`] fans out one rayon task per
//!   **(shard, extent)** — flushed extents decode concurrently — and
//!   stitches results back shard-major/extent-major, so output is
//!   byte-identical at any thread count and under either backend.
//!
//! Every read of the whole collection is that one scan —
//! [`Collection::count_by`] and the index sizes of [`Collection::stats`]
//! included — and every key a document contributes, to an index or to a
//! group-by, comes from [`Document::path_values`].

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use rayon::prelude::*;

use datatamer_model::{AttrKey, Document, DtError, Result, Value};

use crate::backend::{BackendConfig, BackendKind, Shard};
use crate::encode::EncodedDoc;
use crate::index::IndexSpec;
use crate::stats::CollectionStats;

/// Packed document id: `shard (8) | extent (24) | slot (32)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u64);

impl DocId {
    /// Pack from components.
    pub fn pack(shard: u8, extent: u32, slot: u32) -> Self {
        debug_assert!(extent < (1 << 24), "extent index exceeds 24 bits");
        DocId((u64::from(shard) << 56) | (u64::from(extent) << 32) | u64::from(slot))
    }

    /// Shard component.
    pub fn shard(self) -> u8 {
        (self.0 >> 56) as u8
    }

    /// Extent-within-shard component.
    pub fn extent(self) -> u32 {
        ((self.0 >> 32) & 0x00ff_ffff) as u32
    }

    /// Slot-within-extent component.
    pub fn slot(self) -> u32 {
        self.0 as u32
    }
}

/// Collection configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionConfig {
    /// Extent capacity in bytes (the paper's extents are 2 GB; scale-down
    /// experiments shrink this so `numExtents` stays in the paper's range).
    pub extent_size: usize,
    /// Number of shards (1–256).
    pub shards: usize,
    /// Where each shard's extent chain lives (in-process memory by
    /// default, or one file per flushed extent for out-of-core
    /// collections).
    pub backend: BackendConfig,
}

impl Default for CollectionConfig {
    fn default() -> Self {
        CollectionConfig {
            extent_size: 2 * 1024 * 1024,
            shards: 8,
            backend: BackendConfig::Memory,
        }
    }
}

/// Per-shard shape of one collection — the unit of [`StorageReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStorage {
    /// Substrate the shard lives on.
    pub backend: BackendKind,
    /// Documents stored on this shard.
    pub docs: u64,
    /// Extents in this shard's chain.
    pub extents: usize,
    /// Documents skipped because their bytes failed to decode — a nonzero
    /// value means reads silently saw a smaller corpus than was stored.
    pub decode_errors: u64,
}

/// How one collection's data is distributed: per-shard doc/extent counts
/// and flush traffic. Threaded into the pipeline's stage reports so
/// distribution skew and backend I/O are visible per run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageReport {
    /// The collection reported on.
    pub collection: String,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStorage>,
    /// Extent files written (0 for all-memory collections).
    pub flushes: u64,
}

impl StorageReport {
    /// Total documents stored across shards.
    pub fn docs(&self) -> u64 {
        self.shards.iter().map(|s| s.docs).sum()
    }

    /// Largest shard's doc count — `max / mean` reads as placement skew.
    pub fn largest_shard_docs(&self) -> u64 {
        self.shards.iter().map(|s| s.docs).max().unwrap_or(0)
    }

    /// Documents skipped due to decode failures, summed across shards.
    pub fn decode_errors(&self) -> u64 {
        self.shards.iter().map(|s| s.decode_errors).sum()
    }

    /// Flatten the report into `(name, value)` counter pairs — the shape
    /// the serving layer's stats endpoint and logs consume.
    pub fn counter_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("storage.docs", self.docs()),
            ("storage.largest_shard_docs", self.largest_shard_docs()),
            ("storage.shards", self.shards.len() as u64),
            ("storage.flushes", self.flushes),
            ("storage.decode_errors", self.decode_errors()),
            (
                "storage.extents",
                self.shards.iter().map(|s| s.extents as u64).sum(),
            ),
        ]
    }
}

/// Reject collection names that would be unsafe as on-disk directory names
/// (the file backend interpolates the name into a path) or that are plain
/// nonsense as identifiers.
pub(crate) fn validate_collection_name(name: &str) -> Result<()> {
    if name.is_empty() {
        return Err(DtError::Config("collection name must not be empty".into()));
    }
    if name.contains(['/', '\\', '\0']) || name.contains("..") || name == "." {
        return Err(DtError::Config(format!(
            "collection name {name:?} must not contain path separators, \
             '..', or NUL — it becomes an on-disk directory name"
        )));
    }
    Ok(())
}

/// A sharded document collection with declared secondary indexes.
pub struct Collection {
    name: String,
    config: CollectionConfig,
    /// One extent chain per shard (1–256: the `DocId` shard field is 8
    /// bits).
    shards: Vec<Shard>,
    /// The round-robin cursor: position `p` lands on shard `p % shards`.
    /// A reopened collection resumes it at its stored document count.
    next: AtomicU64,
    indexes: RwLock<Vec<IndexSpec>>,
}

impl Collection {
    /// Create an empty collection (or, for a file backend, adopt whatever
    /// extent chains already exist under its directory; a torn extent or
    /// a gap in a shard's chain is the error).
    pub fn new(name: impl Into<String>, config: CollectionConfig) -> Result<Self> {
        let name = name.into();
        validate_collection_name(&name)?;
        if config.shards == 0 || config.shards > 256 {
            return Err(DtError::Config(format!(
                "shard count {} out of range 1..=256",
                config.shards
            )));
        }
        if config.extent_size == 0 {
            return Err(DtError::Config("extent_size must be positive".into()));
        }
        // Slot offsets inside an extent are `u32`: a larger extent would
        // wrap them silently.
        if u32::try_from(config.extent_size).is_err() {
            return Err(DtError::Config(format!(
                "extent_size {} exceeds the u32 slot-offset range",
                config.extent_size
            )));
        }
        let shards = (0..config.shards)
            .map(|shard_no| {
                let dir = match &config.backend {
                    BackendConfig::Memory => None,
                    BackendConfig::File { dir } => {
                        Some(dir.join(&name).join(format!("shard{shard_no:03}")))
                    }
                };
                Shard::open(dir, config.extent_size)
            })
            .collect::<Result<Vec<_>>>()?;
        let stored = shards.iter().map(Shard::len).sum();
        Ok(Collection {
            name,
            config,
            shards,
            next: AtomicU64::new(stored),
            indexes: RwLock::new(Vec::new()),
        })
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration this collection was created with.
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// Number of stored documents, counted from the shards (so a reopened
    /// file backend's documents count too).
    pub fn len(&self) -> u64 {
        self.shards.iter().map(Shard::len).sum()
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserve `n` consecutive round-robin positions with one atomic bump
    /// and return the first. A batch reserving its window at once places
    /// exactly like the same documents inserted one by one.
    fn reserve(&self, n: usize) -> u64 {
        self.next.fetch_add(n as u64, Ordering::Relaxed)
    }

    fn shard_at(&self, position: u64) -> usize {
        (position % self.shards.len() as u64) as usize
    }

    /// Append encoded documents to shard `shard_no` under one lock
    /// acquisition, returning their ids in order.
    fn append_to(&self, shard_no: usize, batch: &[&[u8]]) -> Result<Vec<DocId>> {
        let spots = self.shards[shard_no].append(batch)?;
        Ok(spots
            .into_iter()
            .map(|(extent, slot)| DocId::pack(shard_no as u8, extent, slot))
            .collect())
    }

    /// Insert a document on the next shard in round-robin order,
    /// returning its id. Backend I/O failure (file-backed shards only —
    /// the in-memory default never fails) is the error; nothing was
    /// stored.
    pub fn insert(&self, doc: &Document) -> Result<DocId> {
        let ids = self.insert_encoded([&EncodedDoc::of(doc)])?;
        ids.first()
            .copied()
            .ok_or_else(|| DtError::Io(format!("collection {} placed no document", self.name)))
    }

    /// Insert a batch, returning ids in input order: the documents encode
    /// in parallel across the rayon team and are placed by
    /// [`Self::insert_encoded`].
    pub fn insert_many<'a, I: IntoIterator<Item = &'a Document>>(
        &self,
        docs: I,
    ) -> Result<Vec<DocId>> {
        let docs: Vec<&Document> = docs.into_iter().collect();
        let encoded: Vec<EncodedDoc> = docs.par_iter().map(|d| EncodedDoc::of(d)).collect();
        self.insert_encoded(&encoded)
    }

    /// Place already-encoded documents, returning ids in input order. Every
    /// insert comes through here.
    ///
    /// The batch is placed in input order from one reserved round-robin
    /// window, and each shard's documents append under a single lock
    /// acquisition (shards proceed in parallel) instead of one lock
    /// round-trip per document. Shard placement is identical to repeated
    /// single inserts. Backend I/O failure surfaces as the error (the
    /// first failing shard's, in shard order); shards that already
    /// appended keep their documents, and every reader — the count,
    /// scans, group-bys and stats alike — sees them. Declared indexes cost
    /// nothing here: their sizes are measured by [`Self::stats`].
    pub fn insert_encoded<'a, I: IntoIterator<Item = &'a EncodedDoc>>(
        &self,
        docs: I,
    ) -> Result<Vec<DocId>> {
        let docs: Vec<&[u8]> = docs.into_iter().map(EncodedDoc::as_bytes).collect();
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let base = self.reserve(docs.len());
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for i in 0..docs.len() {
            per_shard[self.shard_at(base + i as u64)].push(i);
        }
        // Only shards that get a document take part, so a one-document
        // insert runs inline on the caller.
        let busy: Vec<usize> =
            (0..self.shards.len()).filter(|&shard_no| !per_shard[shard_no].is_empty()).collect();
        let placed: Vec<Result<Vec<DocId>>> = busy
            .par_iter()
            .map(|&shard_no| {
                let batch: Vec<&[u8]> = per_shard[shard_no].iter().map(|&i| docs[i]).collect();
                self.append_to(shard_no, &batch)
            })
            .collect();
        let mut ids = vec![DocId(0); docs.len()];
        for (&shard_no, shard_ids) in busy.iter().zip(placed) {
            for (&i, id) in per_shard[shard_no].iter().zip(shard_ids?) {
                ids[i] = id;
            }
        }
        Ok(ids)
    }

    /// Declare a secondary index. Nothing is built: [`Self::stats`]
    /// measures the index over whatever the collection holds when it is
    /// called. A name already declared is an error.
    pub fn create_index(&self, spec: IndexSpec) -> Result<()> {
        let mut indexes = self.indexes.write();
        if indexes.iter().any(|i| i.name == spec.name) {
            return Err(DtError::AlreadyExists(format!("index {}", spec.name)));
        }
        indexes.push(spec);
        Ok(())
    }

    /// Number of declared indexes.
    pub fn index_count(&self) -> usize {
        self.indexes.read().len()
    }

    /// Scatter/gather scan, collecting `f`'s non-`None` outputs: one rayon
    /// task per **(shard, extent)**, with outputs stitched back
    /// shard-major, then extent, then slot — deterministic at any thread
    /// count and under either backend. Each shard's extent count is read
    /// before the fan-out, so an append racing the scan cannot add a
    /// task. Any extent's read failure fails the scan (first error in
    /// (shard, extent) order, so the reported error is
    /// thread-count-deterministic too).
    pub fn parallel_scan<T, F>(&self, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(DocId, &Document) -> Option<T> + Sync,
    {
        let mut tasks: Vec<(usize, u32)> = Vec::new();
        for (shard_no, shard) in self.shards.iter().enumerate() {
            tasks.extend((0..shard.extent_count() as u32).map(|extent| (shard_no, extent)));
        }
        let per_extent: Vec<Result<Vec<T>>> = tasks
            .par_iter()
            .map(|&(shard_no, extent)| {
                let mut out = Vec::new();
                self.shards[shard_no].visit_extent(extent, |slot, doc| {
                    if let Some(t) = f(DocId::pack(shard_no as u8, extent, slot), doc) {
                        out.push(t);
                    }
                })?;
                Ok(out)
            })
            .collect();
        let mut all = Vec::new();
        for chunk in per_extent {
            all.extend(chunk?);
        }
        Ok(all)
    }

    /// Write file-backed shards' resident tails to their extent files so a
    /// reopen (a fresh [`Collection::new`] over the same directory) sees
    /// the full chain. A no-op for memory backends. The files are not
    /// fsynced: this survives a process crash, not a power loss (see the
    /// crate's durability contract).
    pub fn sync(&self) -> Result<()> {
        self.shards.iter().try_for_each(Shard::sync)
    }

    /// Per-shard distribution report: backend kind, doc/extent counts,
    /// and flush traffic.
    pub fn storage_report(&self) -> StorageReport {
        StorageReport {
            collection: self.name.clone(),
            shards: self
                .shards
                .iter()
                .map(|s| ShardStorage {
                    backend: s.kind(),
                    docs: s.len(),
                    extents: s.extent_count(),
                    decode_errors: s.decode_errors(),
                })
                .collect(),
            flushes: self.shards.iter().map(Shard::flushes).sum(),
        }
    }

    /// Group-by over a path: `(value, count)` in value order, from one
    /// parallel scan that extracts keys exactly as an index measures them
    /// (an array counts each element). Keys equal under
    /// [`Value::total_cmp`] share a group, reported under the first key in
    /// scan order.
    pub fn count_by(&self, path: &str) -> Result<Vec<(Value, u64)>> {
        let per_doc = self.parallel_scan(|_, doc| {
            let mut keys = Vec::new();
            doc.path_values(path, &mut keys);
            (!keys.is_empty()).then_some(keys)
        })?;
        let mut counts: std::collections::BTreeMap<AttrKey, u64> =
            std::collections::BTreeMap::new();
        for v in per_doc.into_iter().flatten() {
            *counts.entry(AttrKey(v)).or_insert(0) += 1;
        }
        Ok(counts.into_iter().map(|(k, n)| (k.0, n)).collect())
    }

    /// Statistics in the shape of the paper's Tables I–II.
    ///
    /// `total_index_size` is measured, not maintained: one
    /// [`Self::parallel_scan`] per call sums every declared index's entries
    /// over the stored documents (no scan when no index is declared). Like
    /// any scan, on a file backend it reads every flushed extent's file;
    /// an unreadable extent is the error.
    pub fn stats(&self, namespace: &str) -> Result<CollectionStats> {
        let indexes = self.indexes.read().clone();
        let total_index_size = if indexes.is_empty() {
            0
        } else {
            let per_doc = self.parallel_scan(|_, doc| {
                let mut keys = Vec::new();
                let bytes: usize =
                    indexes.iter().map(|spec| spec.entry_bytes(doc, &mut keys)).sum();
                (bytes > 0).then_some(bytes)
            })?;
            per_doc.into_iter().sum()
        };
        let num_extents = self.shards.iter().map(Shard::extent_count).sum();
        let data_bytes: usize = self.shards.iter().map(Shard::used_bytes).sum();
        // The "last" extent convention: the byte size of the final extent
        // of the last shard that has one.
        let last_extent_size = self
            .shards
            .iter()
            .rev()
            .map(Shard::last_extent_capacity)
            .find(|&c| c > 0)
            .unwrap_or(0);
        let count = self.len();
        Ok(CollectionStats {
            ns: format!("{namespace}.{}", self.name),
            count,
            num_extents,
            nindexes: indexes.len(),
            last_extent_size,
            total_index_size,
            data_size: data_bytes,
            avg_obj_size: if count == 0 { 0.0 } else { data_bytes as f64 / count as f64 },
        })
    }
}

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collection")
            .field("name", &self.name)
            .field("count", &self.len())
            .field("shards", &self.shards.len())
            .field("backend", &self.config.backend.kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::doc;
    use proptest::prelude::*;

    fn small() -> Collection {
        Collection::new(
            "test",
            CollectionConfig { extent_size: 256, shards: 4, ..Default::default() },
        )
        .unwrap()
    }

    fn three_shards(name: &str) -> Collection {
        let config = CollectionConfig { extent_size: 512, shards: 3, ..Default::default() };
        Collection::new(name, config).unwrap()
    }

    /// Every stored document with its id, in scan order.
    fn docs_by_id(c: &Collection) -> Vec<(DocId, Document)> {
        c.parallel_scan(|id, d| Some((id, d.clone()))).unwrap()
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dt_collection_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn docid_packing_roundtrips() {
        let id = DocId::pack(255, (1 << 24) - 1, u32::MAX);
        assert_eq!(id.shard(), 255);
        assert_eq!(id.extent(), (1 << 24) - 1);
        assert_eq!(id.slot(), u32::MAX);
        let id = DocId::pack(3, 17, 42);
        assert_eq!((id.shard(), id.extent(), id.slot()), (3, 17, 42));
    }

    #[test]
    fn insert_get_roundtrip() {
        let c = small();
        let d = doc! {"show" => "Matilda", "price" => 27i64};
        let id = c.insert(&d).unwrap();
        assert_eq!(docs_by_id(&c), vec![(id, d)]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn inserts_spread_over_shards_and_extents() {
        let c = small();
        for i in 0..100i64 {
            c.insert(&doc! {"i" => i, "pad" => "x".repeat(40)}).unwrap();
        }
        assert_eq!(c.len(), 100);
        let stats = c.stats("dt").unwrap();
        assert!(stats.num_extents > 4, "tiny extents must chain: {}", stats.num_extents);
        assert_eq!(stats.count, 100);
        assert_eq!(stats.last_extent_size, 256);
    }

    #[test]
    fn index_backfills_and_maintains() {
        // An index declared after a document counts it; later inserts are
        // reflected without any index maintenance.
        let c = small();
        c.insert(&doc! {"type" => "Person"}).unwrap();
        c.create_index(IndexSpec::new("by_type", "type")).unwrap();
        let person = c.stats("dt").unwrap().total_index_size;
        assert!(person > 0);
        c.insert(&doc! {"type" => "City"}).unwrap();
        assert_eq!(c.count_by("type").unwrap().len(), 2);
        let both = c.stats("dt").unwrap().total_index_size;
        assert!(both > person);
        assert!(c.create_index(IndexSpec::new("by_type", "type")).is_err());
        assert_eq!(c.index_count(), 1, "a rejected duplicate declares nothing");
    }

    #[test]
    fn index_and_scan_agree() {
        // The measured index size is the per-document sum a plain scan
        // computes, and the group-by on the indexed path is a filter scan.
        let c = small();
        for kind in ["musical", "play", "musical", "opera", "musical"] {
            c.insert(&doc! {"kind" => kind}).unwrap();
        }
        c.create_index(IndexSpec::new("by_kind", "kind")).unwrap();
        let per_doc = c
            .parallel_scan(|_, d| d.get("kind").map(crate::encode::encoded_len))
            .unwrap();
        let want: usize = per_doc.iter().map(|n| n + crate::index::ENTRY_OVERHEAD).sum();
        assert_eq!(c.stats("dt").unwrap().total_index_size, want);
        let musical = Value::from("musical");
        let scan = c.parallel_scan(|_, d| (d.get("kind") == Some(&musical)).then_some(())).unwrap();
        assert_eq!(scan.len(), 3);
        assert!(c.count_by("kind").unwrap().contains(&(musical, 3)));
    }

    #[test]
    fn parallel_scan_sees_all_live_docs() {
        let c = small();
        for i in 0..50i64 {
            c.insert(&doc! {"i" => i}).unwrap();
        }
        let mut seen = c
            .parallel_scan(|_, d| match d.get("i") {
                Some(Value::Int(i)) => Some(*i),
                _ => None,
            })
            .unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<i64>>());
    }

    #[test]
    fn count_by_with_and_without_index() {
        // A scalar path, an array path and an array-of-documents path: the
        // scan must count every key the index holds (each element of an
        // array, not the array as one key).
        let c = small();
        let entity = |ty: &str| Value::Doc(doc! {"type" => ty});
        for (ty, tags, entities) in [
            ("Person", vec!["a"], vec!["Movie", "City"]),
            ("Person", vec!["a", "b"], vec!["Movie"]),
            ("Movie", vec![], vec![]),
        ] {
            c.insert(&doc! {
                "type" => ty,
                "tags" => Value::Array(tags.into_iter().map(Value::from).collect()),
                "entities" => Value::Array(entities.into_iter().map(entity).collect())
            })
            .unwrap();
        }
        for (path, expected) in [
            ("type", vec![(Value::from("Movie"), 1), (Value::from("Person"), 2)]),
            ("tags", vec![(Value::from("a"), 2), (Value::from("b"), 1)]),
            ("entities.type", vec![(Value::from("City"), 1), (Value::from("Movie"), 2)]),
        ] {
            let scan_counts = c.count_by(path).unwrap();
            c.create_index(IndexSpec::new(format!("by_{path}"), path)).unwrap();
            assert_eq!(c.count_by(path).unwrap(), scan_counts, "{path}");
            assert_eq!(scan_counts, expected, "{path}");
        }
    }

    #[test]
    fn stats_reflect_index_sizes() {
        let c = small();
        for i in 0..20i64 {
            c.insert(&doc! {"n" => i}).unwrap();
        }
        let before = c.stats("dt").unwrap().total_index_size;
        assert_eq!(before, 0);
        c.create_index(IndexSpec::new("by_n", "n")).unwrap();
        let after = c.stats("dt").unwrap();
        assert!(after.total_index_size > 0);
        assert_eq!(after.nindexes, 1);
        assert_eq!(after.ns, "dt.test");
        assert!(after.avg_obj_size > 0.0);
    }

    #[test]
    fn concurrent_inserts_are_consistent() {
        let c = Collection::new(
            "conc",
            CollectionConfig { extent_size: 4096, shards: 8, ..Default::default() },
        )
        .unwrap();
        (0..8usize).into_par_iter().for_each(|t| {
            for i in 0..100i64 {
                c.insert(&doc! {"t" => t as i64, "i" => i}).unwrap();
            }
        });
        assert_eq!(c.len(), 800);
        assert_eq!(c.parallel_scan(|_, _| Some(())).unwrap().len(), 800);
    }

    #[test]
    fn insert_many_matches_repeated_insert() {
        let a = small();
        let b = small();
        let docs: Vec<_> = (0..37i64).map(|i| doc! {"i" => i, "pad" => "y".repeat(9)}).collect();
        let one_by_one: Vec<DocId> = docs.iter().map(|d| a.insert(d).unwrap()).collect();
        let batched = b.insert_many(&docs).unwrap();
        assert_eq!(one_by_one, batched, "batch routing must match repeated inserts");
        assert_eq!(b.len(), 37);
        let mut stored = docs_by_id(&b);
        stored.sort_by_key(|(id, _)| *id);
        let mut want: Vec<(DocId, Document)> = batched.into_iter().zip(docs).collect();
        want.sort_by_key(|(id, _)| *id);
        assert_eq!(stored, want);
    }

    #[test]
    fn round_robin_cycles_and_batches_match_singles() {
        let docs: Vec<_> = (0..7i64).map(|i| doc! {"i" => i}).collect();
        let singles = three_shards("rr");
        let one_by_one: Vec<DocId> = docs.iter().map(|d| singles.insert(d).unwrap()).collect();
        // A batch continues the cursor where the single insert left it.
        let mixed = three_shards("rr");
        let mut ids = vec![mixed.insert(&docs[0]).unwrap()];
        ids.extend(mixed.insert_many(&docs[1..]).unwrap());
        assert_eq!(one_by_one, ids);
        let shards: Vec<u8> = ids.iter().map(|id| id.shard()).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn report_shapes_the_distribution() {
        let c = three_shards("things");
        let docs: Vec<_> = (0..9i64).map(|i| doc! {"i" => i}).collect();
        c.insert_many(&docs).unwrap();
        let report = c.storage_report();
        assert_eq!(report.collection, "things");
        assert_eq!(report.shards.len(), 3);
        assert!(report.shards.iter().all(|s| s.docs == 3), "{report:?}");
        assert!(report.shards.iter().all(|s| s.backend == BackendKind::Memory));
        assert_eq!(report.docs(), 9);
        assert_eq!(report.largest_shard_docs(), 3);
        assert_eq!(report.flushes, 0);
    }

    #[test]
    fn insert_many_maintains_indexes() {
        let docs = vec![doc! {"type" => "Person"}, doc! {"type" => "City"}, doc! {"type" => "Person"}];
        let (batched, one_by_one) = (small(), small());
        for c in [&batched, &one_by_one] {
            c.create_index(IndexSpec::new("by_type", "type")).unwrap();
        }
        batched.insert_many(&docs).unwrap();
        for d in &docs {
            one_by_one.insert(d).unwrap();
        }
        assert_eq!(
            batched.count_by("type").unwrap(),
            vec![(Value::from("City"), 1), (Value::from("Person"), 2)]
        );
        assert_eq!(batched.stats("dt").unwrap(), one_by_one.stats("dt").unwrap());
        assert!(batched.insert_many(std::iter::empty()).unwrap().is_empty());
    }

    #[test]
    fn bad_configs_rejected() {
        let cfg = |extent_size, shards| CollectionConfig {
            extent_size,
            shards,
            ..Default::default()
        };
        assert!(Collection::new("x", cfg(0, 1)).is_err());
        assert!(Collection::new("x", cfg(10, 0)).is_err());
        assert!(Collection::new("x", cfg(10, 257)).is_err());
        assert!(Collection::new("x", cfg(u32::MAX as usize + 1, 1)).is_err());
    }

    #[test]
    fn path_hostile_names_rejected() {
        for bad in ["", "a/b", "a\\b", "..", "a..b", ".", "evil/../../etc"] {
            assert!(
                Collection::new(bad, CollectionConfig::default()).is_err(),
                "name {bad:?} must be rejected"
            );
        }
        for good in ["instance", "global_records", "My.Coll-2", "x"] {
            assert!(Collection::new(good, CollectionConfig::default()).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn file_backend_collection_roundtrips_and_reopens() {
        let dir = tempdir("file_roundtrip");
        let config = CollectionConfig {
            extent_size: 256,
            shards: 3,
            backend: BackendConfig::File { dir: dir.clone() },
        };
        let docs: Vec<Document> =
            (0..40i64).map(|i| doc! {"i" => i, "pad" => "z".repeat(20)}).collect();
        let stored = {
            let col = Collection::new("shows", config.clone()).unwrap();
            let ids = col.insert_many(&docs).unwrap();
            assert_eq!(col.len(), 40);
            let stored = docs_by_id(&col);
            assert!(stored.contains(&(ids[7], docs[7].clone())));
            col.sync().unwrap();
            stored
        };
        // Reopen over the same directory: same chain, same documents.
        let reopened = Collection::new("shows", config).unwrap();
        assert_eq!(reopened.len(), 40);
        assert_eq!(docs_by_id(&reopened), stored);
        let report = reopened.storage_report();
        assert_eq!(report.shards.len(), 3);
        assert!(report.shards.iter().all(|s| s.backend == BackendKind::File));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_on_an_unreadable_extent_is_an_error() {
        // Every read of a torn flushed extent is an error, never a
        // shorter answer. The victim is read once before the tear, so no
        // earlier read may mask the damage either.
        let dir = tempdir("torn_get");
        let col = Collection::new(
            "torn",
            CollectionConfig {
                extent_size: 96,
                shards: 1,
                backend: BackendConfig::File { dir: dir.clone() },
            },
        )
        .unwrap();
        let docs: Vec<Document> =
            (0..10i64).map(|i| doc! {"i" => i, "pad" => "x".repeat(24)}).collect();
        let ids = col.insert_many(&docs).unwrap();
        col.sync().unwrap();
        let victim = ids[0];
        assert_eq!(victim.extent(), 0);
        assert!(ids.iter().any(|id| id.extent() > 0), "extent 0 must be flushed");
        assert!(docs_by_id(&col).contains(&(victim, docs[0].clone())));

        let shard_dir = dir.join("torn").join("shard000");
        std::fs::write(shard_dir.join("ext000000"), b"torn").unwrap();
        assert!(col.parallel_scan(|_, _| Some(())).is_err(), "a lost extent must not scan as empty");
        assert!(col.count_by("i").is_err(), "nor group as empty");
        assert_eq!(col.len(), 10, "a failed read changes nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_and_file_collections_scan_identically() {
        let dir = tempdir("mem_vs_file");
        let docs: Vec<Document> =
            (0..60i64).map(|i| doc! {"i" => i, "k" => format!("key{}", i % 7)}).collect();
        let mem = Collection::new(
            "c",
            CollectionConfig { extent_size: 512, shards: 4, ..Default::default() },
        )
        .unwrap();
        let file = Collection::new(
            "c",
            CollectionConfig {
                extent_size: 512,
                shards: 4,
                backend: BackendConfig::File { dir: dir.clone() },
            },
        )
        .unwrap();
        let mem_ids = mem.insert_many(&docs).unwrap();
        let file_ids = file.insert_many(&docs).unwrap();
        assert_eq!(mem_ids, file_ids, "placement must match");
        let mem_scan = mem.parallel_scan(|id, d| Some((id, format!("{d:?}")))).unwrap();
        let file_scan = file.parallel_scan(|id, d| Some((id, format!("{d:?}")))).unwrap();
        assert_eq!(mem_scan, file_scan, "scans must be byte-identical");
        let (ms, fs) = (mem.stats("dt").unwrap(), file.stats("dt").unwrap());
        assert_eq!(ms.count, fs.count);
        assert_eq!(ms.num_extents, fs.num_extents);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // `insert_many` is a parallel encode plus `insert_encoded`: the same
    // ids, documents and stats, whatever was inserted before and however
    // the batches split.
    proptest! {
        #[test]
        fn insert_many_is_encode_then_insert_encoded(
            sizes in prop::collection::vec(0..40usize, 1..5),
            pad in 0..30usize,
            shards in 1..6usize,
            singles in 0..4usize,
        ) {
            let config = CollectionConfig { extent_size: 300, shards, ..Default::default() };
            let (many, encoded) =
                (Collection::new("m", config.clone()).unwrap(), Collection::new("m", config).unwrap());
            for c in [&many, &encoded] {
                c.create_index(IndexSpec::new("by_k", "k")).unwrap();
                for i in 0..singles {
                    c.insert(&doc! {"single" => i as i64}).unwrap();
                }
            }
            let mut n = 0i64;
            for size in sizes {
                let docs: Vec<Document> = (0..size)
                    .map(|_| {
                        n += 1;
                        doc! {"i" => n, "k" => format!("k{}", n % 7), "pad" => "p".repeat(pad)}
                    })
                    .collect();
                let want = many.insert_many(&docs).unwrap();
                let bytes: Vec<EncodedDoc> = docs.iter().map(EncodedDoc::of).collect();
                prop_assert_eq!(encoded.insert_encoded(&bytes).unwrap(), want);
            }
            let scan = |c: &Collection| c.parallel_scan(|id, d| Some((id, d.clone()))).unwrap();
            prop_assert_eq!(scan(&many), scan(&encoded));
            prop_assert_eq!(many.stats("dt").unwrap(), encoded.stats("dt").unwrap());
            prop_assert_eq!(many.storage_report(), encoded.storage_report());
        }
    }
}
