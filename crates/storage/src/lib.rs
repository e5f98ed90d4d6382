//! Sharded semi-structured storage engine.
//!
//! The paper's text-side substrate is a "Web-scale distributed semi-structured
//! storage engine" — it reports MongoDB-style collection statistics
//! (`count`, `numExtents`, `nindexes`, `lastExtentSize`, `totalIndexSize`,
//! Tables I–II). This crate is that substrate, built from scratch:
//!
//! * [`encode`] — compact binary document encoding (BSON-like) on [`bytes`].
//! * [`extent`] — fixed-size append-only extents; a collection grows by
//!   allocating new extents exactly as the paper's 2 GB extents do (the
//!   extent size is configurable so experiments can run at reduced scale
//!   while preserving the count : extent ratios).
//! * [`backend`] — pluggable shard substrates behind the [`ShardBackend`]
//!   trait: [`backend::MemoryBackend`] (in-process extents) and
//!   [`backend::FileBackend`] (out-of-core: only the tail extent resident,
//!   full extents flushed to one file each and served back through the
//!   extent cache). The trait has one append (a batch; a single insert is
//!   a one-element batch) and one scan (a plan, then one visit per
//!   extent).
//! * [`cache`] — the [`ExtentCache`]: a byte-budget LRU of decoded extents
//!   with deterministic hit/miss/eviction accounting, so repeated scans of
//!   a file-backed collection hit memory instead of disk.
//! * [`coordinator`] — the [`ShardCoordinator`]: one backend per shard
//!   plus a round-robin cursor (a batch reserves its whole window with one
//!   atomic bump, so it places exactly like repeated single inserts),
//!   running rayon scatter/gather for batch inserts and the one scan, the
//!   extent-parallel [`ShardCoordinator::parallel_scan`], and reporting
//!   per-shard distribution ([`StorageReport`]).
//! * [`collection`] — sharded collections: a coordinator wrapped with
//!   secondary indexes, stats, and the packed `(shard, extent, slot)`
//!   [`DocId`] scheme.
//! * [`index`] — ordered secondary indexes (optionally multikey) over dotted
//!   paths, keyed by `datatamer_model::AttrKey`, with byte-accurate size
//!   accounting. Keys come from `datatamer_model::Document::path_values`,
//!   the dotted-path walk the query crate's predicates share. Point
//!   lookups go through [`Collection::with_index`]; everything else —
//!   group-bys and index backfills too — is a
//!   [`Collection::parallel_scan`]. Fused entities are queried through the
//!   typed AST of the `datatamer-query` crate, not here.
//! * [`stats`] — the `db.<coll>.stats()` report of Tables I and II.
//! * [`store`] — a namespace ("dt") holding collections. Collection names
//!   are validated at creation: path separators, `..`, and NUL are
//!   rejected before a name can become an on-disk directory.
//! * [`delta_log`] — checksummed, torn-tail-tolerant append-only log of
//!   accepted delta batches, so a restarted consolidation session replays
//!   instead of re-consolidating.

pub mod backend;
pub mod cache;
pub mod collection;
pub mod coordinator;
pub mod delta_log;
pub mod encode;
pub mod extent;
pub mod index;
pub mod stats;
pub mod store;

pub use backend::{BackendConfig, BackendKind, FileBackend, MemoryBackend, ShardBackend};
pub use cache::{ExtentCache, ExtentCacheStats, ExtentScan, DEFAULT_EXTENT_CACHE_BUDGET};
pub use collection::{Collection, CollectionConfig, DocId};
pub use delta_log::DeltaLog;
pub use coordinator::{ShardCoordinator, ShardStorage, StorageReport};
pub use index::IndexSpec;
pub use stats::CollectionStats;
pub use store::Store;
