//! Sharded semi-structured storage engine.
//!
//! The paper's text-side substrate is a "Web-scale distributed semi-structured
//! storage engine" — it reports MongoDB-style collection statistics
//! (`count`, `numExtents`, `nindexes`, `lastExtentSize`, `totalIndexSize`,
//! Tables I–II). This crate is that substrate, built from scratch:
//!
//! * [`encode`] — compact binary document encoding (BSON-like). One
//!   [`encode::Writer`] writes every tag byte; an [`EncodedDoc`] is a
//!   whole document's encoding, the only thing a collection stores.
//! * [`extent`] — fixed-size append-only extents; a collection grows by
//!   allocating new extents exactly as the paper's 2 GB extents do (the
//!   extent size is configurable so experiments can run at reduced scale
//!   while preserving the count : extent ratios).
//! * [`backend`] — where a shard's extent chain lives, chosen by
//!   [`BackendConfig`]: in process (`Memory`), or out of core (`File`:
//!   only the tail extent resident, full extents flushed to one file
//!   each, and every read of a flushed extent reads its file). There is
//!   one crate-private shard type; a memory shard is a shard with no
//!   directory. A shard has one append (a batch; a single insert is a
//!   one-element batch) and one scan (one visit per extent).
//! * [`collection`] — append-only sharded collections, read by scan (no
//!   document is updated, deleted or fetched by id): one shard per shard
//!   number plus a round-robin cursor (a batch reserves its whole window
//!   with one atomic bump, so it places exactly like repeated single
//!   inserts; a reopen resumes the cursor),
//!   rayon scatter/gather for batch inserts and the extent-parallel
//!   [`Collection::parallel_scan`], declared secondary indexes, stats,
//!   per-shard distribution ([`StorageReport`]), and the packed
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
//! read it back. That covers a file-backed shard's extent files
//! (a reopen decodes every one; nothing else is written beside them),
//! and [`DeltaLog::append`] and [`DeltaLog::compact`]
//! (whose temp file is renamed into place without being synced first).
//! No file is truncated in place. A full extent is written once; the only
//! extent file written again is a synced tail's, after more appends, and
//! every extent write goes to a temp file renamed over the old one, so a
//! process that dies mid-write leaves the previous file whole.
//! After a power loss or kernel crash, any write since the last time the
//! operating system flushed its cache may be missing or torn. Reads and
//! reopens report a torn extent file instead of treating it as empty, and
//! [`DeltaLog::open`] truncates a torn log tail, but neither brings back
//! what was lost.

pub mod backend;
pub mod collection;
pub mod delta_log;
pub mod encode;
pub mod extent;
pub mod index;
pub mod stats;
pub mod store;

pub use backend::{BackendConfig, BackendKind};
pub use collection::{Collection, CollectionConfig, DocId, ShardStorage, StorageReport};
pub use delta_log::DeltaLog;
pub use encode::EncodedDoc;
pub use index::IndexSpec;
pub use stats::CollectionStats;
pub use store::Store;
