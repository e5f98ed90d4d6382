//! Entity consolidation.
//!
//! Data Tamer's entity-consolidation module finds "records from different
//! data sources which describe the same entity" and consolidates them into
//! composite entity records. At web scale all-pairs comparison is
//! impossible, so consolidation is: **block** (candidate generation) →
//! **score** pairs (weighted per-attribute rules) → **cluster**
//! (union-find over accepted pairs) → **merge** into composite records with
//! conflict resolution. This crate owns block, score and cluster; the merge
//! is `datatamer-core`'s fusion. The staged pipeline in `datatamer-core`
//! chains the batch primitives below; delta batches go through
//! [`incremental`].
//!
//! * [`blocking`] — token-blocking candidate generation; oversized buckets
//!   degrade to a progressive window over the full-key sort order instead
//!   of truncating, so blocking never silently drops a record's
//!   candidates.
//! * [`pairsim`] — weighted per-attribute record-pair similarity with a
//!   prepare-once / score-many layer ([`ScoringContext`]): per-record
//!   features (interned attributes, parsed numerics, lowercased text,
//!   sorted interned token ids) are normalised once per run, so each of
//!   the millions of candidate pairs scores without re-deriving them, and
//!   [`ScoringContext::accepts`] rejects a pair on a float-exact upper
//!   bound before running Jaro-Winkler on its long texts.
//! * [`cluster`] — union-find clustering of accepted pairs.
//! * [`incremental`] — delta ER with resident blocking indices, scoring
//!   context, accept-decision memo, and persistent union-find: ingest
//!   scales with the batch, not the corpus, while clusters stay
//!   byte-identical to a from-scratch run.

pub mod blocking;
pub mod cluster;
pub mod incremental;
pub mod pairsim;

pub use blocking::{Blocker, BlockingOutcome, BUCKET_CAP, PROGRESSIVE_WINDOW};
pub use cluster::UnionFind;
pub use incremental::{DeltaReport, IncrementalConsolidator};
pub use pairsim::{PrepareStats, RecordSimilarity, ScoringContext};
