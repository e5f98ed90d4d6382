//! Sharded collections of documents.
//!
//! A collection is a [`crate::coordinator::ShardCoordinator`] — round-robin
//! placement over one [`crate::backend::ShardBackend`] per shard — wrapped
//! with secondary indexes and stats. Each shard owns a chain of fixed-size
//! extents, in process ([`BackendConfig::Memory`]) or out of core on files
//! ([`BackendConfig::File`]), so concurrent ingest scales with shard count
//! — the in-process analogue of the paper's distributed 2 GB-extent
//! collections. Document ids pack `(shard, extent, slot)` so point reads
//! touch exactly one shard with no id→location map.
//!
//! Every read of the whole collection is one [`Collection::parallel_scan`]
//! — [`Collection::count_by`]'s fallback and the [`Collection::create_index`]
//! backfill included — and every key a document contributes, to an index
//! or to a group-by, comes from [`Document::path_values`].

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use rayon::prelude::*;

use datatamer_model::{AttrKey, Document, DtError, Result, Value};

use crate::backend::{BackendConfig, FileBackend, MemoryBackend, ShardBackend};
use crate::coordinator::{ShardCoordinator, StorageReport};
use crate::index::{Index, IndexSpec};
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
    /// Per-shard extent-cache byte budget for file-backed shards (`None` =
    /// unbounded, `Some(0)` = disabled — load-per-read, byte-identical to
    /// the uncached behaviour). Ignored by memory backends, whose extents
    /// are all resident anyway.
    pub extent_cache_budget: Option<usize>,
}

impl Default for CollectionConfig {
    fn default() -> Self {
        CollectionConfig {
            extent_size: 2 * 1024 * 1024,
            shards: 8,
            backend: BackendConfig::Memory,
            extent_cache_budget: Some(crate::cache::DEFAULT_EXTENT_CACHE_BUDGET),
        }
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

/// A sharded document collection with secondary indexes.
pub struct Collection {
    name: String,
    config: CollectionConfig,
    coordinator: ShardCoordinator,
    indexes: RwLock<Vec<Index>>,
    count: AtomicU64,
}

impl Collection {
    /// Create an empty collection (or, for a file backend, adopt whatever
    /// extent chains already exist under its directory).
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
        let mut backends: Vec<Box<dyn ShardBackend>> = Vec::with_capacity(config.shards);
        for shard_no in 0..config.shards {
            backends.push(match &config.backend {
                BackendConfig::Memory => Box::new(MemoryBackend::new(config.extent_size)),
                BackendConfig::File { dir } => {
                    let shard_dir = dir.join(&name).join(format!("shard{shard_no:03}"));
                    Box::new(FileBackend::open_with_cache(
                        shard_dir,
                        config.extent_size,
                        config.extent_cache_budget,
                    )?)
                }
            });
        }
        let coordinator = ShardCoordinator::new(backends);
        // A reopened file backend may already hold documents.
        let count = AtomicU64::new(coordinator.len());
        Ok(Collection {
            name,
            config,
            coordinator,
            indexes: RwLock::new(Vec::new()),
            count,
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

    /// Number of live documents.
    pub fn len(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// True when no live documents exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a document, returning its id. Backend I/O failure
    /// (file-backed shards only — the in-memory default never fails) is
    /// the error; nothing was stored and no index was touched.
    pub fn insert(&self, doc: &Document) -> Result<DocId> {
        let id = self.coordinator.insert(doc)?;
        {
            let mut indexes = self.indexes.write();
            for idx in indexes.iter_mut() {
                idx.insert(id, doc);
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Insert a batch, returning ids in input order.
    ///
    /// The batch path is what makes ingest scale: the coordinator encodes
    /// documents in parallel across the rayon team, places the batch in
    /// input order (round robin reserves its window with one atomic bump),
    /// and appends each shard's documents under a single lock acquisition
    /// (shards proceed in parallel) instead of one lock round-trip per
    /// document. Shard placement is identical to repeated [`Self::insert`]
    /// calls. Backend I/O failure surfaces as the error (shards that
    /// already appended keep their documents — the count and indexes then
    /// exclude them, matching what a reopen would adopt only after a
    /// `sync`).
    ///
    /// Index maintenance fans out one rayon task per index (a lone index
    /// is maintained inline on the caller). Each index still takes the
    /// batch in input order, so every posting list, key count and index
    /// size is exactly what the same repeated [`Self::insert`] calls would
    /// leave.
    pub fn insert_many<'a, I: IntoIterator<Item = &'a Document>>(
        &self,
        docs: I,
    ) -> Result<Vec<DocId>> {
        let docs: Vec<&Document> = docs.into_iter().collect();
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let ids = self.coordinator.insert_many(&docs)?;
        {
            let mut indexes = self.indexes.write();
            indexes.par_iter_mut().for_each(|idx| {
                for (doc, id) in docs.iter().zip(&ids) {
                    idx.insert(*id, doc);
                }
            });
        }
        self.count.fetch_add(docs.len() as u64, Ordering::Relaxed);
        Ok(ids)
    }

    /// Fetch a document by id. `Ok(None)` strictly means "no live
    /// document at that id"; an unreadable extent is the error, so a
    /// lookup cannot silently drop a document on a torn extent.
    pub fn get(&self, id: DocId) -> Result<Option<Document>> {
        self.coordinator.get(id)
    }

    /// Delete a document by id. Returns whether it was live; an
    /// unreadable extent or a failed tombstone write-back on a file shard
    /// is the error.
    pub fn delete(&self, id: DocId) -> Result<bool> {
        let Some(doc) = self.coordinator.delete(id)? else {
            return Ok(false);
        };
        let mut indexes = self.indexes.write();
        for idx in indexes.iter_mut() {
            idx.remove(id, &doc);
        }
        drop(indexes);
        self.count.fetch_sub(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Create a secondary index, back-filling existing documents. Keys
    /// are extracted during a [`Self::parallel_scan`] and inserted in its
    /// output order (shard-major, then extent, then slot), so every
    /// posting list is the one sequential per-document inserts in that
    /// order would build.
    pub fn create_index(&self, spec: IndexSpec) -> Result<()> {
        {
            let indexes = self.indexes.read();
            if indexes.iter().any(|i| i.spec.name == spec.name) {
                return Err(DtError::AlreadyExists(format!("index {}", spec.name)));
            }
        }
        let mut idx = Index::new(spec);
        let keyed = self.parallel_scan(|id, doc| {
            let keys = idx.extract_keys(doc);
            (!keys.is_empty()).then_some((id, keys))
        })?;
        for (id, keys) in keyed {
            idx.insert_keys(id, keys);
        }
        self.indexes.write().push(idx);
        Ok(())
    }

    /// Number of indexes.
    pub fn index_count(&self) -> usize {
        self.indexes.read().len()
    }

    /// Run `f` against an index by name.
    pub fn with_index<T>(&self, name: &str, f: impl FnOnce(&Index) -> T) -> Option<T> {
        let indexes = self.indexes.read();
        indexes.iter().find(|i| i.spec.name == name).map(f)
    }

    /// Find an index covering `path`, applying `f` to it.
    pub fn with_index_on_path<T>(&self, path: &str, f: impl FnOnce(&Index) -> T) -> Option<T> {
        let indexes = self.indexes.read();
        indexes.iter().find(|i| i.spec.path == path).map(f)
    }

    /// Scan all shards in parallel via rayon, collecting `f`'s non-`None`
    /// outputs. Output order is deterministic regardless of thread count
    /// and backend: shard-major, then extent, then slot. Any shard's read
    /// failure fails the scan.
    pub fn parallel_scan<T, F>(&self, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(DocId, &Document) -> Option<T> + Sync,
    {
        self.coordinator.parallel_scan(f)
    }

    /// Flush file-backed shards' resident tails to their extent files so a
    /// reopen (a fresh [`Collection::new`] over the same directory) sees
    /// the full chain. A no-op for memory backends.
    pub fn sync(&self) -> Result<()> {
        self.coordinator.sync()
    }

    /// Per-shard distribution report: backend kind, doc/extent counts,
    /// and flush traffic.
    pub fn storage_report(&self) -> StorageReport {
        self.coordinator.report(&self.name)
    }

    /// Group-by over a path: `(value, count)` in value order. Uses an index
    /// on the path when one exists, otherwise a parallel scan that extracts
    /// keys exactly as an index would (an array counts each element), so
    /// both answers agree.
    pub fn count_by(&self, path: &str) -> Result<Vec<(Value, u64)>> {
        if let Some(counts) = self.with_index_on_path(path, |idx| {
            idx.key_counts().into_iter().map(|(k, n)| (k, n as u64)).collect::<Vec<_>>()
        }) {
            return Ok(counts);
        }
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
    pub fn stats(&self, namespace: &str) -> CollectionStats {
        let num_extents = self.coordinator.extent_count();
        let data_bytes = self.coordinator.used_bytes();
        // The "last" extent convention: the byte size of the final extent
        // of the last shard that has one.
        let last_extent_size = self.coordinator.last_extent_capacity();
        let indexes = self.indexes.read();
        let total_index_size = indexes.iter().map(|i| i.size_bytes()).sum();
        let count = self.len();
        CollectionStats {
            ns: format!("{namespace}.{}", self.name),
            count,
            num_extents,
            nindexes: indexes.len(),
            last_extent_size,
            total_index_size,
            data_size: data_bytes,
            avg_obj_size: if count == 0 { 0.0 } else { data_bytes as f64 / count as f64 },
        }
    }

    /// Index specs currently defined, in creation order.
    pub fn index_specs(&self) -> Vec<IndexSpec> {
        self.indexes.read().iter().map(|i| i.spec.clone()).collect()
    }
}

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collection")
            .field("name", &self.name)
            .field("count", &self.len())
            .field("shards", &self.coordinator.shard_count())
            .field("backend", &self.config.backend.kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::doc;

    fn small() -> Collection {
        Collection::new(
            "test",
            CollectionConfig { extent_size: 256, shards: 4, ..Default::default() },
        )
        .unwrap()
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
        assert_eq!(c.get(id).unwrap(), Some(d));
        assert_eq!(c.len(), 1);
        assert!(c.get(DocId::pack(0, 9, 9)).unwrap().is_none());
    }

    #[test]
    fn inserts_spread_over_shards_and_extents() {
        let c = small();
        for i in 0..100i64 {
            c.insert(&doc! {"i" => i, "pad" => "x".repeat(40)}).unwrap();
        }
        assert_eq!(c.len(), 100);
        let stats = c.stats("dt");
        assert!(stats.num_extents > 4, "tiny extents must chain: {}", stats.num_extents);
        assert_eq!(stats.count, 100);
        assert_eq!(stats.last_extent_size, 256);
    }

    #[test]
    fn delete_removes_and_updates_count() {
        let c = small();
        let id = c.insert(&doc! {"a" => 1i64}).unwrap();
        assert!(c.delete(id).unwrap());
        assert!(!c.delete(id).unwrap());
        assert_eq!(c.len(), 0);
        assert!(c.get(id).unwrap().is_none());
    }

    #[test]
    fn index_backfills_and_maintains() {
        let c = small();
        let d1 = doc! {"type" => "Person"};
        let d2 = doc! {"type" => "City"};
        let id1 = c.insert(&d1).unwrap();
        c.create_index(IndexSpec::new("by_type", "type")).unwrap();
        let id2 = c.insert(&d2).unwrap();
        let persons = c.with_index("by_type", |i| i.lookup(&Value::from("Person"))).unwrap();
        assert_eq!(persons, vec![id1]);
        let cities = c.with_index("by_type", |i| i.lookup(&Value::from("City"))).unwrap();
        assert_eq!(cities, vec![id2]);
        c.delete(id1).unwrap();
        let persons = c.with_index("by_type", |i| i.lookup(&Value::from("Person"))).unwrap();
        assert!(persons.is_empty());
        assert!(c.create_index(IndexSpec::new("by_type", "type")).is_err());
    }

    #[test]
    fn index_and_scan_agree() {
        let c = small();
        for kind in ["musical", "play", "musical", "opera", "musical"] {
            c.insert(&doc! {"kind" => kind}).unwrap();
        }
        c.create_index(IndexSpec::new("by_kind", "kind")).unwrap();
        let musical = Value::from("musical");
        let mut scan =
            c.parallel_scan(|id, d| (d.get("kind") == Some(&musical)).then_some(id)).unwrap();
        let mut indexed = c.with_index("by_kind", |i| i.lookup(&musical)).unwrap();
        scan.sort_unstable();
        indexed.sort_unstable();
        assert_eq!(scan.len(), 3);
        assert_eq!(scan, indexed);
    }

    #[test]
    fn parallel_scan_sees_all_live_docs() {
        let c = small();
        let ids: Vec<DocId> =
            (0..50i64).map(|i| c.insert(&doc! {"i" => i}).unwrap()).collect();
        c.delete(ids[10]).unwrap();
        let seen = c
            .parallel_scan(|_, d| match d.get("i") {
                Some(Value::Int(i)) => Some(*i),
                _ => None,
            })
            .unwrap();
        assert_eq!(seen.len(), 49);
        assert!(!seen.contains(&10));
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
        let before = c.stats("dt").total_index_size;
        assert_eq!(before, 0);
        c.create_index(IndexSpec::new("by_n", "n")).unwrap();
        let after = c.stats("dt");
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
        for (id, d) in batched.iter().zip(&docs) {
            assert_eq!(b.get(*id).unwrap().as_ref(), Some(d));
        }
    }

    #[test]
    fn insert_many_maintains_indexes() {
        let c = small();
        c.create_index(IndexSpec::new("by_type", "type")).unwrap();
        let docs = vec![doc! {"type" => "Person"}, doc! {"type" => "City"}, doc! {"type" => "Person"}];
        let ids = c.insert_many(&docs).unwrap();
        let persons = c.with_index("by_type", |i| i.lookup(&Value::from("Person"))).unwrap();
        assert_eq!(persons, vec![ids[0], ids[2]]);
        assert!(c.insert_many(std::iter::empty()).unwrap().is_empty());
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
            ..Default::default()
        };
        let docs: Vec<Document> =
            (0..40i64).map(|i| doc! {"i" => i, "pad" => "z".repeat(20)}).collect();
        let ids = {
            let col = Collection::new("shows", config.clone()).unwrap();
            let ids = col.insert_many(&docs).unwrap();
            assert_eq!(col.len(), 40);
            assert_eq!(col.get(ids[7]).unwrap().as_ref(), Some(&docs[7]));
            col.sync().unwrap();
            ids
        };
        // Reopen over the same directory: same chain, same documents.
        let reopened = Collection::new("shows", config).unwrap();
        assert_eq!(reopened.len(), 40);
        for (id, d) in ids.iter().zip(&docs) {
            assert_eq!(reopened.get(*id).unwrap().as_ref(), Some(d));
        }
        let report = reopened.storage_report();
        assert_eq!(report.shards.len(), 3);
        assert!(report.shards.iter().all(|s| s.backend == crate::backend::BackendKind::File));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_on_an_unreadable_extent_is_an_error() {
        // Regression: a point read used to fold an unreadable flushed
        // extent into `None`, indistinguishable from a deleted document.
        // The cache is disabled so every read goes to the real file.
        let dir = tempdir("torn_get");
        let col = Collection::new(
            "torn",
            CollectionConfig {
                extent_size: 96,
                shards: 1,
                backend: BackendConfig::File { dir: dir.clone() },
                extent_cache_budget: Some(0),
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
        assert_eq!(col.get(victim).unwrap().as_ref(), Some(&docs[0]));

        let shard_dir = dir.join("torn").join("shard000");
        std::fs::write(shard_dir.join("ext000000"), b"torn").unwrap();
        let _ = std::fs::remove_file(shard_dir.join("ext000000.meta"));
        assert!(col.get(victim).is_err(), "a lost extent must not read as a deleted document");
        assert!(col.delete(victim).is_err(), "nor delete as one");
        assert_eq!(col.len(), 10, "a failed delete changes nothing");
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
                ..Default::default()
            },
        )
        .unwrap();
        let mem_ids = mem.insert_many(&docs).unwrap();
        let file_ids = file.insert_many(&docs).unwrap();
        assert_eq!(mem_ids, file_ids, "placement must match");
        let mem_scan = mem.parallel_scan(|id, d| Some((id, format!("{d:?}")))).unwrap();
        let file_scan = file.parallel_scan(|id, d| Some((id, format!("{d:?}")))).unwrap();
        assert_eq!(mem_scan, file_scan, "scans must be byte-identical");
        assert_eq!(mem.stats("dt").count, file.stats("dt").count);
        assert_eq!(mem.stats("dt").num_extents, file.stats("dt").num_extents);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
