//! The shard coordinator: round-robin placement + scatter/gather over
//! pluggable backends.
//!
//! [`ShardCoordinator`] owns one [`ShardBackend`] per shard and a
//! round-robin cursor. It is the layer `Collection` delegates to, and each
//! operation has one path through it:
//!
//! * **Append.** A single insert appends a one-element batch to the next
//!   shard, inline on the caller. A batch scatters across shards (encode in
//!   parallel, reserve the whole round-robin window with one atomic bump,
//!   one [`ShardBackend::append`] per shard, shards appending concurrently)
//!   and gathers `DocId`s back in input order.
//! * **Scan.** [`ShardCoordinator::parallel_scan`] fans out one rayon task
//!   per **(shard, extent)** — flushed extents decode concurrently — and
//!   stitches results back shard-major/extent-major, so output is
//!   byte-identical at any thread count and under any backend mix. Cache
//!   hit/miss resolution happens at plan time, sequentially, in shard order
//!   ([`ShardBackend::begin_extent_scan`]), so the cache counters carried
//!   on [`StorageReport`] are deterministic too.

use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;

use datatamer_model::{Document, DtError, Result};

use crate::backend::{BackendKind, ShardBackend};
use crate::cache::{ExtentCacheStats, ExtentScan};
use crate::collection::DocId;
use crate::encode::encode_document;

/// Per-shard shape of one collection — the unit of [`StorageReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStorage {
    /// Substrate the shard lives on.
    pub backend: BackendKind,
    /// Live documents on this shard.
    pub docs: u64,
    /// Extents in this shard's chain.
    pub extents: usize,
    /// Documents skipped because their bytes failed to decode — a nonzero
    /// value means reads silently saw a smaller corpus than was stored.
    pub decode_errors: u64,
    /// Extent-cache occupancy and counters, for shards that serve reads
    /// through an [`crate::cache::ExtentCache`] (`None` on memory shards).
    pub cache: Option<ExtentCacheStats>,
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
    /// Extent writes to stable storage (0 for all-memory collections).
    pub flushes: u64,
}

impl StorageReport {
    /// Total live documents across shards.
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

    /// Extent-cache counters summed across shards (`None` when no shard
    /// serves reads through a cache — all-memory collections). `budget` is
    /// the per-shard value (every shard gets the same configured budget).
    pub fn cache_totals(&self) -> Option<ExtentCacheStats> {
        let mut total: Option<ExtentCacheStats> = None;
        for shard in &self.shards {
            let Some(c) = shard.cache else { continue };
            let t = total.get_or_insert(ExtentCacheStats {
                budget: c.budget,
                ..Default::default()
            });
            t.occupancy_bytes += c.occupancy_bytes;
            t.cached_extents += c.cached_extents;
            t.hits += c.hits;
            t.misses += c.misses;
            t.evictions += c.evictions;
            t.disk_loads += c.disk_loads;
        }
        total
    }

    /// Flatten the report into `(name, value)` counter pairs — the shape
    /// the serving layer's stats endpoint and logs consume.
    pub fn counter_pairs(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![
            ("storage.docs", self.docs()),
            ("storage.largest_shard_docs", self.largest_shard_docs()),
            ("storage.shards", self.shards.len() as u64),
            ("storage.flushes", self.flushes),
            ("storage.decode_errors", self.decode_errors()),
            (
                "storage.extents",
                self.shards.iter().map(|s| s.extents as u64).sum(),
            ),
        ];
        if let Some(c) = self.cache_totals() {
            out.push(("storage.cache_hits", c.hits));
            out.push(("storage.cache_misses", c.misses));
            out.push(("storage.cache_evictions", c.evictions));
            out.push(("storage.cache_disk_loads", c.disk_loads));
            out.push(("storage.cache_occupancy_bytes", c.occupancy_bytes as u64));
        }
        out
    }
}

/// Per-shard backends plus the round-robin cursor; see the module docs.
pub struct ShardCoordinator {
    backends: Vec<Box<dyn ShardBackend>>,
    next: AtomicU64,
}

impl ShardCoordinator {
    /// Coordinator over `backends` (one per shard, at most 256 — the
    /// `DocId` shard field is 8 bits), cursor at shard 0.
    pub fn new(backends: Vec<Box<dyn ShardBackend>>) -> Self {
        assert!(
            !backends.is_empty() && backends.len() <= 256,
            "shard count {} out of range 1..=256",
            backends.len()
        );
        ShardCoordinator { backends, next: AtomicU64::new(0) }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.backends.len()
    }

    /// Reserve `n` consecutive round-robin positions with one atomic bump
    /// and return the first. Position `p` lands on shard `p % shards`, so a
    /// batch reserving its window at once places exactly like the same
    /// documents inserted one by one.
    fn reserve(&self, n: usize) -> u64 {
        self.next.fetch_add(n as u64, Ordering::Relaxed)
    }

    fn shard_at(&self, position: u64) -> usize {
        (position % self.backends.len() as u64) as usize
    }

    /// Live documents across all shards.
    pub fn len(&self) -> u64 {
        self.backends.iter().map(|b| b.len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one document to the next shard in round-robin order.
    pub fn insert(&self, doc: &Document) -> Result<DocId> {
        let shard = self.shard_at(self.reserve(1));
        let encoded = encode_document(doc);
        let spots = self.backends[shard].append(&[&encoded])?;
        let Some(&(extent, slot)) = spots.first() else {
            return Err(DtError::Io(format!("shard {shard} placed no document")));
        };
        Ok(DocId::pack(shard as u8, extent, slot))
    }

    /// Scatter a batch across shards and gather ids in input order.
    ///
    /// Documents encode in parallel, shards are assigned in input order
    /// from one reserved round-robin window (so the assignment matches
    /// repeated [`ShardCoordinator::insert`] calls), and each shard's
    /// documents append under a single lock acquisition while shards
    /// proceed concurrently.
    pub fn insert_many(&self, docs: &[&Document]) -> Result<Vec<DocId>> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let encoded: Vec<Vec<u8>> = docs.par_iter().map(|d| encode_document(d)).collect();
        let base = self.reserve(docs.len());
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.backends.len()];
        for i in 0..docs.len() {
            per_shard[self.shard_at(base + i as u64)].push(i);
        }

        let placed: Vec<Result<Vec<(usize, DocId)>>> = (0..self.backends.len())
            .into_par_iter()
            .map(|shard_no| {
                let doc_indexes = &per_shard[shard_no];
                if doc_indexes.is_empty() {
                    return Ok(Vec::new());
                }
                let batch: Vec<&[u8]> =
                    doc_indexes.iter().map(|&i| encoded[i].as_slice()).collect();
                let spots = self.backends[shard_no].append(&batch)?;
                Ok(doc_indexes
                    .iter()
                    .zip(spots)
                    .map(|(&i, (extent, slot))| {
                        (i, DocId::pack(shard_no as u8, extent, slot))
                    })
                    .collect())
            })
            .collect();

        let mut ids = vec![DocId(0); docs.len()];
        for shard_result in placed {
            for (i, id) in shard_result? {
                ids[i] = id;
            }
        }
        Ok(ids)
    }

    /// Point read: exactly one shard is touched. `Ok(None)` strictly
    /// means "no live document at that id"; an unreadable extent is the
    /// error.
    pub fn get(&self, id: DocId) -> Result<Option<Document>> {
        match self.backends.get(id.shard() as usize) {
            None => Ok(None),
            Some(b) => b.get(id.extent(), id.slot()),
        }
    }

    /// Tombstone a document, returning it when it was live. An unreadable
    /// extent or a failed tombstone write-back on a file shard surfaces as
    /// the error.
    pub fn delete(&self, id: DocId) -> Result<Option<Document>> {
        match self.backends.get(id.shard() as usize) {
            None => Ok(None),
            Some(b) => b.delete(id.extent(), id.slot()),
        }
    }

    /// Scatter/gather scan: one rayon task per **(shard, extent)** —
    /// flushed extents decode concurrently — with outputs stitched back
    /// shard-major then extent then slot, deterministic at any thread
    /// count. Each shard's scan is planned sequentially up front
    /// ([`ShardBackend::begin_extent_scan`]), so cache hits are pinned and
    /// counted before any fan-out. Any extent's read failure fails the
    /// scan (first error in (shard, extent) order, so the reported error
    /// is thread-count-deterministic too).
    pub fn parallel_scan<T, F>(&self, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(DocId, &Document) -> Option<T> + Sync,
    {
        let plans: Vec<ExtentScan> =
            self.backends.iter().map(|b| b.begin_extent_scan()).collect();
        let mut tasks: Vec<(usize, u32)> = Vec::new();
        for (shard_no, plan) in plans.iter().enumerate() {
            for extent in 0..plan.extent_count() as u32 {
                tasks.push((shard_no, extent));
            }
        }
        let per_extent: Vec<Result<Vec<T>>> = tasks
            .par_iter()
            .map(|&(shard_no, extent)| {
                let mut out = Vec::new();
                self.backends[shard_no].visit_extent(
                    &plans[shard_no],
                    extent,
                    &mut |slot, doc| {
                        let id = DocId::pack(shard_no as u8, extent, slot);
                        if let Some(t) = f(id, doc) {
                            out.push(t);
                        }
                    },
                )?;
                Ok(out)
            })
            .collect();
        let mut all = Vec::new();
        for chunk in per_extent {
            all.extend(chunk?);
        }
        Ok(all)
    }

    /// Total extents across shards.
    pub fn extent_count(&self) -> usize {
        self.backends.iter().map(|b| b.extent_count()).sum()
    }

    /// Total encoded-document bytes across shards.
    pub fn used_bytes(&self) -> usize {
        self.backends.iter().map(|b| b.used_bytes()).sum()
    }

    /// Capacity of the final extent of the last shard that has one (the
    /// stats convention inherited from the pre-coordinator collection).
    pub fn last_extent_capacity(&self) -> usize {
        self.backends
            .iter()
            .rev()
            .map(|b| b.last_extent_capacity())
            .find(|&c| c > 0)
            .unwrap_or(0)
    }

    /// Flush every backend's volatile tail to stable storage.
    pub fn sync(&self) -> Result<()> {
        for backend in &self.backends {
            backend.sync()?;
        }
        Ok(())
    }

    /// The distribution report for this coordinator's collection.
    pub fn report(&self, collection: &str) -> StorageReport {
        StorageReport {
            collection: collection.to_owned(),
            shards: self
                .backends
                .iter()
                .map(|b| ShardStorage {
                    backend: b.kind(),
                    docs: b.len(),
                    extents: b.extent_count(),
                    decode_errors: b.decode_errors(),
                    cache: b.cache_stats(),
                })
                .collect(),
            flushes: self.backends.iter().map(|b| b.flushes()).sum(),
        }
    }
}

impl std::fmt::Debug for ShardCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCoordinator")
            .field("shards", &self.backends.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use datatamer_model::doc;

    fn memory_coordinator(shards: usize) -> ShardCoordinator {
        let backends: Vec<Box<dyn ShardBackend>> = (0..shards)
            .map(|_| Box::new(MemoryBackend::new(512)) as Box<dyn ShardBackend>)
            .collect();
        ShardCoordinator::new(backends)
    }

    #[test]
    fn round_robin_cycles_and_batches_match_singles() {
        let docs: Vec<_> = (0..7i64).map(|i| doc! {"i" => i}).collect();
        let refs: Vec<&Document> = docs.iter().collect();
        let singles = memory_coordinator(3);
        let one_by_one: Vec<DocId> = refs.iter().map(|d| singles.insert(d).unwrap()).collect();
        // A batch continues the cursor where the single insert left it.
        let mixed = memory_coordinator(3);
        let mut ids = vec![mixed.insert(refs[0]).unwrap()];
        ids.extend(mixed.insert_many(&refs[1..]).unwrap());
        assert_eq!(one_by_one, ids);
        let shards: Vec<u8> = ids.iter().map(|id| id.shard()).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn report_shapes_the_distribution() {
        let coordinator = memory_coordinator(3);
        let docs: Vec<_> = (0..9i64).map(|i| doc! {"i" => i}).collect();
        let refs: Vec<&Document> = docs.iter().collect();
        coordinator.insert_many(&refs).unwrap();
        let report = coordinator.report("things");
        assert_eq!(report.collection, "things");
        assert_eq!(report.shards.len(), 3);
        assert!(report.shards.iter().all(|s| s.docs == 3), "{report:?}");
        assert!(report.shards.iter().all(|s| s.backend == BackendKind::Memory));
        assert_eq!(report.docs(), 9);
        assert_eq!(report.largest_shard_docs(), 3);
        assert_eq!(report.flushes, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_shards_panic() {
        memory_coordinator(0);
    }
}
