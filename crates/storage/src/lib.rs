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
//!   full extents flushed to one file each, and every read of a flushed
//!   extent reads its file). The trait has one append (a batch; a single
//!   insert is a one-element batch) and one scan (one visit per extent).
//! * [`coordinator`] — the [`ShardCoordinator`]: one backend per shard
//!   plus a round-robin cursor (a batch reserves its whole window with one
//!   atomic bump, so it places exactly like repeated single inserts),
//!   running rayon scatter/gather for batch inserts and the one scan, the
//!   extent-parallel [`ShardCoordinator::parallel_scan`], and reporting
//!   per-shard distribution ([`StorageReport`]).
//! * [`collection`] — sharded collections: a coordinator wrapped with
//!   declared secondary indexes, stats, and the packed
//!   `(shard, extent, slot)` [`DocId`] scheme.
//! * [`index`] — secondary-index declarations ([`IndexSpec`]: a name and
//!   a dotted path, optionally multikey). Nothing is maintained on the
//!   write path: [`Collection::stats`] measures `totalIndexSize` from real
//!   encoded key lengths in one [`Collection::parallel_scan`], and
//!   [`Collection::count_by`] is a scan too. Keys come from
//!   `datatamer_model::Document::path_values`, the dotted-path walk the
//!   query crate's predicates share. Fused entities are queried through
//!   the typed AST (and indexes) of the `datatamer-query` crate, not here.
//! * [`stats`] — the `db.<coll>.stats()` report of Tables I and II.
//! * [`store`] — a namespace ("dt") holding collections. Collection names
//!   are validated at creation: path separators, `..`, and NUL are
//!   rejected before a name can become an on-disk directory.
//! * [`delta_log`] — checksummed, torn-tail-tolerant append-only log of
//!   accepted delta batches, so a restarted consolidation session replays
//!   instead of re-consolidating.
//!
//! # Durability contract
//!
//! Storage survives the death of the process, not the loss of power. No
//! storage path calls `sync_all` or `sync_data`: a write is complete once
//! the operating system has it, which is all a restarted process needs to
//! read it back. That covers [`FileBackend`]'s extent files and their
//! `.meta` sidecars, and [`DeltaLog::append`] and [`DeltaLog::compact`]
//! (whose temp file is renamed into place without being synced first).
//! After a power loss or kernel crash, any write since the last time the
//! operating system flushed its cache may be missing or torn. Reads
//! report a torn extent file instead of treating it as empty, and
//! [`DeltaLog::open`] truncates a torn log tail, but neither brings back
//! what was lost.

pub mod backend;
pub mod collection;
pub mod coordinator;
pub mod delta_log;
pub mod encode;
pub mod extent;
pub mod index;
pub mod stats;
pub mod store;

pub use backend::{BackendConfig, BackendKind, FileBackend, MemoryBackend, ShardBackend};
pub use collection::{Collection, CollectionConfig, DocId};
pub use delta_log::DeltaLog;
pub use coordinator::{ShardCoordinator, ShardStorage, StorageReport};
pub use index::IndexSpec;
pub use stats::CollectionStats;
pub use store::Store;
