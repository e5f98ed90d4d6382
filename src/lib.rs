//! # Data Tamer: text + structured data fusion at scale
//!
//! A from-scratch Rust reproduction of *"Text and Structured Data Fusion in
//! Data Tamer at Scale"* (Gubanov, Stonebraker, Bruckner — ICDE 2014).
//!
//! The system executes as a **staged pipeline**: every phase of Figure 1 —
//! ingest → schema integration → cleaning → entity consolidation → fusion
//! — is a `PipelineStage` (in [`core::stage`]) driven over a
//! `PipelineContext` that owns the sharded store, the source catalog, the
//! growing global schema, and each stage's report. Hot paths (record
//! mapping, per-source cleaning, batched shard inserts, pair-similarity
//! scoring, group merging, shard scans) are rayon-parallel with output
//! guaranteed identical at any thread count.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`model`] | `datatamer-model` | values, documents, flattening, records, schema profiles |
//! | [`sim`] | `datatamer-sim` | string/set/numeric similarity measures |
//! | [`storage`] | `datatamer-storage` | sharded storage engine: round-robin shard coordinator over pluggable memory/file backends, extents, indexes, batched inserts, parallel scans (Tables I–II) |
//! | [`text`] | `datatamer-text` | the domain-specific parser (Figure 1's user-defined module) |
//! | [`corpus`] | `datatamer-corpus` | synthetic WEBINSTANCE / WEBENTITIES / FTABLES generators |
//! | [`ml`] | `datatamer-ml` | hand-rolled classifiers + 10-fold cross-validation (§IV) |
//! | [`schema`] | `datatamer-schema` | bottom-up schema integration (Figs 2–3) |
//! | [`entity`] | `datatamer-entity` | entity consolidation: progressive blocking + prepared, rayon-parallel pair scoring |
//! | [`clean`] | `datatamer-clean` | cleaning + transformations (EUR→USD), parallel per source |
//! | [`expert`] | `datatamer-expert` | expert sourcing |
//! | [`core`] | `datatamer-core` | the staged pipeline, the fusion resolver registry, and demo queries |
//!
//! ## Quickstart — one staged run
//!
//! `DataTamer::run` executes the whole canonical stage list over a plan
//! and leaves every stage's report queryable on the context:
//!
//! ```
//! use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
//! use datatamer::core::stage::stage_names;
//! use datatamer::corpus::{ftables, webtext};
//! use datatamer::text::DomainParser;
//!
//! // Generate the paper's datasets (synthetic; DESIGN.md §2).
//! let sources = ftables::generate(&ftables::FtablesConfig::default(), 0);
//! let corpus = webtext::WebTextCorpus::generate(&webtext::WebTextConfig {
//!     num_fragments: 50,
//!     ..Default::default()
//! });
//!
//! // Plan: all structured sources + the web text, in one staged run.
//! let mut plan = PipelinePlan::new();
//! for s in &sources {
//!     plan = plan.structured(&s.name, &s.records);
//! }
//! let frags: Vec<(&str, &str)> =
//!     corpus.fragments.iter().map(|f| (f.text.as_str(), f.kind.label())).collect();
//! plan = plan.webtext(DomainParser::with_gazetteer(corpus.gazetteer.clone()), frags);
//!
//! let mut dt = DataTamer::new(DataTamerConfig::default());
//! let fused = dt.run(plan).expect("pipeline runs");
//!
//! // The paper's demo lookup, plus the stage log.
//! let matilda = DataTamer::lookup(fused, "Matilda").expect("Matilda fused");
//! assert!(matilda.record.get("TEXT_FEED").is_some());
//! assert_eq!(dt.context().run_count(stage_names::FUSION), 1);
//! ```
//!
//! `run` is the only way data enters the system. Sources that arrive over
//! time are further runs over the same context: each integrates its new
//! sources into the global schema built so far and re-fuses the whole
//! corpus. Record batches against resident entity-resolution state go
//! through `DataTamer::consolidate_delta`, and a later run keeps them.
//!
//! ## Sharded storage: coordinator and backends
//!
//! Collections are sharded: a `ShardCoordinator` ([`storage::coordinator`])
//! owns one `ShardBackend` per shard and scatter/gathers batched inserts
//! and scans across the rayon team. A backend has one append (a batch of
//! encoded documents under one lock) and one scan (planned per shard, then
//! visited one extent per rayon task), so every whole-collection read —
//! index backfills and group-bys included — is the same extent-parallel
//! `Collection::parallel_scan`. Documents are placed round robin; a batch
//! reserves its whole window at once, so it lands exactly where the same
//! documents inserted one by one would. The backend is
//! pluggable ([`storage::BackendConfig`]): `Memory` keeps extents in
//! process (the default), `File` keeps only each shard's tail extent
//! resident and flushes full extents to one file each — out-of-core
//! collections whose resident memory is O(extent) per shard, reopenable
//! from their directory. Both backends produce **byte-identical** scan and
//! fusion results for the same input at any thread count (pinned by
//! proptest and the pipeline equivalence suite). System-wide selection
//! sits on `DataTamerConfig::storage`, and each stage report carries a
//! `StorageReport` of per-shard doc/extent counts, backend kind, flush
//! traffic, decode-error counts, and extent-cache counters.
//!
//! ```
//! use datatamer::model::doc;
//! use datatamer::storage::{BackendConfig, Collection, CollectionConfig};
//!
//! let dir = std::env::temp_dir().join(format!("dt_doctest_shards_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = CollectionConfig {
//!     extent_size: 8 * 1024,
//!     shards: 4,
//!     backend: BackendConfig::File { dir: dir.clone() },
//!     ..Default::default()
//! };
//!
//! let col = Collection::new("listings", config.clone()).unwrap();
//! let docs: Vec<_> = (0..60i64)
//!     .map(|i| doc! {"show" => format!("Show {}", i % 6), "seat" => i})
//!     .collect();
//! let ids = col.insert_many(&docs).unwrap();
//!
//! // Round robin: consecutive documents take consecutive shards.
//! assert_eq!(ids[0].shard(), ids[4].shard());
//! assert_ne!(ids[0].shard(), ids[1].shard());
//! // The coordinator reports the distribution per shard.
//! let report = col.storage_report();
//! assert_eq!(report.docs(), 60);
//! assert!(report.shards.iter().all(|s| s.docs == 15));
//! assert!(report.shards.iter().all(|s| s.backend.name() == "file"));
//!
//! // Flush the resident tails and reopen the collection from disk.
//! col.sync().unwrap();
//! let reopened = Collection::new("listings", config).unwrap();
//! assert_eq!(reopened.len(), 60);
//! assert_eq!(reopened.get(ids[7]).unwrap(), Some(docs[7].clone()));
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! ### Out-of-core scans: the extent cache
//!
//! File-backed shards serve every read through an `ExtentCache`
//! ([`storage::cache`]): a byte-budget LRU of decoded extents, so repeated
//! stage passes (blocking, scoring, fusion) hit memory instead of
//! re-reading every extent file per scan. `CollectionConfig::
//! extent_cache_budget` (and system-wide, `StorageConfig::
//! extent_cache_budget` in [`core::config`]) sets the per-shard budget:
//! `None` is unbounded, `Some(0)` disables retention — byte-identical
//! output either way, only the IO changes. Parallel scans fan out one
//! rayon task per *(shard, extent)*, with cache hits resolved and pinned
//! sequentially before the fan-out, so scan output **and** the cache
//! counters on `StorageReport` are deterministic at any thread count:
//!
//! ```
//! use datatamer::model::doc;
//! use datatamer::storage::{BackendConfig, Collection, CollectionConfig};
//!
//! let dir = std::env::temp_dir().join(format!("dt_doctest_ooc_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let col = Collection::new("events", CollectionConfig {
//!     extent_size: 4 * 1024,
//!     shards: 2,
//!     backend: BackendConfig::File { dir: dir.clone() },
//!     extent_cache_budget: None, // unbounded: scans warm the whole corpus
//!     ..Default::default()
//! }).unwrap();
//! let docs: Vec<_> = (0..200i64)
//!     .map(|i| doc! {"i" => i, "pad" => "x".repeat(64)})
//!     .collect();
//! col.insert_many(&docs).unwrap();
//! col.sync().unwrap(); // flush tails; all extents now live on disk
//!
//! // First scan loads from disk; the second is served from the cache.
//! for _ in 0..2 {
//!     let seen = col.parallel_scan(|_, d| d.get("i").cloned()).unwrap();
//!     assert_eq!(seen.len(), 200);
//! }
//! let cache = col.storage_report().cache_totals().expect("file shards are cached");
//! assert!(cache.hits > 0, "second scan hits the cache");
//! assert_eq!(cache.misses, cache.disk_loads, "every miss is one file read");
//! assert!(cache.occupancy_bytes > 0);
//! assert_eq!(col.storage_report().decode_errors(), 0);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! ## Fusion: grouping + per-attribute truth discovery
//!
//! Fusion is two-level. A `GroupingStrategy` decides *grouping* — which
//! records describe the same entity — and a [`core::fusion::RegistryConfig`]
//! decides *truth*: it routes each attribute's conflicting,
//! provenance-tagged values (source id, record id, cluster rank) to a
//! [`core::fusion::ResolverSpec`], the one resolver type, which resolves
//! them itself. Its variants cover majority vote, iterative accu-style
//! source-reliability weighting, freshness (`LatestWins` over record
//! provenance), multi-truth attributes (every value above a support
//! threshold survives, as an array), and `Policy`, which applies one
//! order-sensitive `ConflictPolicy` in cluster order (`First`, `Longest`,
//! numeric min/max, first-seen-tie majority). Every composite is built by
//! one routine, `resolve_group`. The routing is set once, on
//! `DataTamerConfig::fusion_resolvers`, and fusion borrows it: a system
//! fuses every run, ad-hoc re-fusion and delta under that one routing. The
//! halves also compose directly over a record slice:
//!
//! ```
//! use datatamer::core::fusion::{
//!     fuse_records_with, RegistryConfig, ResolverSpec,
//! };
//! use datatamer::model::{Record, RecordId, SourceId, Value};
//!
//! // Three sources disagree about one show's status and rating.
//! let records: Vec<Record> = [
//!     (0, "open", "PG"),
//!     (1, "open", "PG-13"),
//!     (2, "closed", "PG"),
//! ]
//! .iter()
//! .map(|&(i, status, rating)| {
//!     Record::from_pairs(
//!         SourceId(i),
//!         RecordId(u64::from(i)),
//!         vec![
//!             ("SHOW_NAME", Value::from("Pippin")),
//!             ("STATUS", Value::from(status)),
//!             ("RATING", Value::from(rating)),
//!         ],
//!     )
//! })
//! .collect();
//!
//! // STATUS majority-votes; RATING keeps every well-supported truth.
//! let registry = RegistryConfig::uniform(ResolverSpec::MajorityVote)
//!     .with("RATING", ResolverSpec::MultiTruth { min_support: 0.3 });
//! // Names join at Jaro-Winkler ≥ 0.88 on their canonical form.
//! let fused = fuse_records_with(&records, 0.88, &registry);
//! assert_eq!(fused[0].record.get_text("STATUS").as_deref(), Some("open"));
//! assert_eq!(
//!     fused[0].record.get("RATING"),
//!     Some(&Value::Array(vec![Value::from("PG"), Value::from("PG-13")]))
//! );
//! ```
//!
//! ## Blocking at scale: progressive, never a recall cliff
//!
//! Comparing all `n²/2` record pairs is intractable at the paper's scale
//! (173M entities), so consolidation blocks first, with one candidate
//! generator: token blocking ([`entity::blocking`]), which pairs records
//! sharing a normalised token of the key attribute. Blocking used to
//! *truncate* giant buckets (stopword-like keys) at [`entity::BUCKET_CAP`]
//! members — every duplicate past the cap was silently unreachable. It now
//! uses **progressive blocking**: an oversized bucket keeps its in-cap
//! quadratic expansion *and* sorts the whole membership by the records'
//! full key, sliding a window of [`entity::PROGRESSIVE_WINDOW`] over that
//! order, so every record still gets candidates at
//! `O(cap² + bucket · window)` cost. Degradation is reported
//! (`BlockingOutcome::degraded_buckets`), never silent, and the candidate
//! set is always a superset of the old truncating cap's — recall can only
//! go up. Blocking emits sorted, deduplicated `(i, j)` pairs with `i < j`,
//! byte-identical across runs and thread counts. The `blocking/*` bench
//! group measures it on uniform and Zipf-headed bucket-size distributions.
//!
//! ## Pair scoring: prepare once, score many
//!
//! Blocking hands the scorer *millions* of candidate pairs, and the same
//! record appears in many of them — so per-pair normalisation (text
//! rendering, money/decimal parsing, lowercasing, tokenising into a fresh
//! hash set) is the consolidation bottleneck. [`entity::RecordSimilarity::prepare`]
//! hoists all of it into one pass: a [`entity::ScoringContext`] stores, per
//! record and per attribute, the interned attribute id, the parsed
//! numerics, the lowercased text, and the token set as a sorted,
//! deduplicated slice of globally interned `u32` token ids. Scoring a pair
//! then re-derives nothing — Jaccard by sorted-slice merge
//! ([`sim::jaccard_sorted`]), attribute weights by indexed lookup, Jaro by
//! a bit-parallel kernel — and is **bit-identical** to the naive
//! [`entity::RecordSimilarity::score`] oracle (pinned by proptest), so
//! determinism guarantees ride along unchanged. The accept filter goes one
//! step further: [`entity::ScoringContext::accepts`] rejects a pair whose
//! float-exact score upper bound is already below the threshold without
//! running Jaro on its long texts, and decides every pair exactly as
//! `score >= threshold` would:
//!
//! ```
//! use datatamer::entity::RecordSimilarity;
//! use datatamer::model::{Record, RecordId, SourceId, Value};
//!
//! let records: Vec<Record> = [("Matilda", "$27"), ("matilda", "27 USD"), ("Wicked", "$99")]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &(name, price))| {
//!         Record::from_pairs(
//!             SourceId(0),
//!             RecordId(i as u64),
//!             vec![("name", Value::from(name)), ("price", Value::from(price))],
//!         )
//!     })
//!     .collect();
//!
//! // One normalisation pass over the records…
//! let scorer = RecordSimilarity::default();
//! let ctx = scorer.prepare(&records);
//! assert_eq!(ctx.stats().records, 3);
//!
//! // …then any number of candidate pairs scores against the shared context.
//! let pairs = [(0, 1), (0, 2), (1, 2)];
//! let scores: Vec<f64> = pairs.iter().map(|&(i, j)| ctx.score_pair(i, j)).collect();
//! assert!(scores[0] > 0.95, "case + currency-format damage still matches");
//! assert!(scores[1] < 0.6);
//! // Bit-identical to the naive per-pair oracle.
//! assert_eq!(scores[0].to_bits(), scorer.score(&records[0], &records[1]).to_bits());
//! // The accept filter is one fused parallel pass — no score vector.
//! assert_eq!(ctx.accepted_pairs(&pairs, 0.75), vec![(0, 1)]);
//! // A single decision is exact at the boundary: a score equal to the
//! // threshold is accepted, the next float above it is not.
//! assert!(ctx.accepts(0, 2, scores[1]));
//! assert!(!ctx.accepts(0, 2, scores[1].next_up()));
//! ```
//!
//! How the staged pipeline *groups* records for fusion is itself
//! configurable through the [`core::fusion::GroupingStrategy`] seam, set
//! once on `DataTamerConfig::grouping` for the life of the system.
//! `CanonicalName` is the classic demo scan;
//! `BlockedEr` runs the full ER machinery (blocking → prepared,
//! rayon-parallel pair scoring → union-find clustering) inside the
//! consolidation stage — the scoring context is built once, before the
//! parallel fan-out — which consolidates fuzzy duplicates the name key
//! cannot reach:
//!
//! ```
//! use datatamer::core::fusion::{BlockedErConfig, GroupingStrategy};
//! use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
//! use datatamer::model::{Record, RecordId, SourceId, Value};
//!
//! // Word-order damage: Jaro-Winkler on the canonical names is far below
//! // any sane fuzzy threshold, so canonical-name grouping splits these —
//! // blocked ER's token-aware record similarity consolidates them.
//! let rows = vec![
//!     Record::from_pairs(
//!         SourceId(0),
//!         RecordId(0),
//!         vec![
//!             ("show_name", Value::from("Walking Dead")),
//!             ("cheapest_price", Value::from("$45")),
//!         ],
//!     ),
//!     Record::from_pairs(
//!         SourceId(0),
//!         RecordId(1),
//!         vec![
//!             ("show_name", Value::from("Dead Walking")),
//!             ("cheapest_price", Value::from("$45")),
//!         ],
//!     ),
//! ];
//! let mut dt = DataTamer::new(DataTamerConfig {
//!     grouping: GroupingStrategy::BlockedEr(BlockedErConfig::default()),
//!     ..Default::default()
//! });
//! let plan = PipelinePlan::new().structured("listings", &rows);
//! let fused = dt.run(plan).expect("pipeline runs");
//! assert_eq!(fused.len(), 1, "one consolidated entity");
//! assert_eq!(fused[0].member_count, 2);
//! ```
//!
//! ## Incremental consolidation: ingest O(delta), not O(corpus)
//!
//! Re-running blocked ER from scratch for every arriving batch re-prepares
//! every record, re-blocks every bucket, and re-scores every candidate
//! pair — O(corpus) work for an O(delta) change.
//! [`core::DataTamer::consolidate_delta`] keeps the expensive state
//! *resident* instead ([`entity::IncrementalConsolidator`]): the scoring
//! context and blocking indices extend in place (token/attribute interning
//! is append-only, so features prepared before a growth step stay
//! bit-identical after it), only buckets the batch touched are probed —
//! new-vs-new and new-vs-old, never old-vs-old — every decision a
//! progressive window asks for lands in a memo that stays valid forever,
//! accepted pairs merge into a persistent union-find with stable cluster
//! ids, and fused entities re-resolve only for clusters the batch dirtied. The correctness pin
//! (`tests/incremental_equivalence.rs`): **any** prefix + delta split
//! produces byte-identical fused output to a from-scratch run over the
//! concatenation, at any thread count. Each delta returns a
//! [`core::DeltaReport`] — probed buckets, scored vs memo-served pairs,
//! dirty vs reused clusters — and the same report is threaded into the
//! logged `EntityConsolidation` stage run:
//!
//! ```
//! use datatamer::core::fusion::{BlockedErConfig, GroupingStrategy};
//! use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
//! use datatamer::model::{Record, RecordId, SourceId, Value};
//!
//! fn show(id: u64, name: &str, price: &str) -> Record {
//!     Record::from_pairs(
//!         SourceId(0),
//!         RecordId(id),
//!         vec![("SHOW_NAME", Value::from(name)), ("CHEAPEST_PRICE", Value::from(price))],
//!     )
//! }
//!
//! // The staged run is one pass of the resident engine; the first delta
//! // adopts its state instead of consolidating the corpus again.
//! let mut dt = DataTamer::new(DataTamerConfig {
//!     grouping: GroupingStrategy::BlockedEr(BlockedErConfig::default()),
//!     ..Default::default()
//! });
//! let corpus: Vec<Record> =
//!     (0..40).map(|i| show(i, &format!("Unique{i} Show{i}"), "$10")).collect();
//! dt.run(PipelinePlan::new().structured("listings", &corpus)).expect("seed run");
//!
//! // A one-record delta: probes only the buckets it touches, dirties only
//! // the cluster it duplicates, reuses every other fused entity verbatim.
//! let delta = dt.consolidate_delta(&[show(100, "Unique7 Show7", "$10")]).expect("delta");
//! assert_eq!(delta.batch_records, 1);
//! assert_eq!(delta.total_records, 41);
//! assert_eq!(delta.dirty_clusters, 1);
//! assert_eq!(delta.reused_clusters, 39);
//! assert!(delta.reused_context_fraction > 0.97);
//! let merged = DataTamer::lookup(&dt.context().fused, "Unique7 Show7").expect("merged");
//! assert_eq!(merged.member_count, 2);
//! ```
//!
//! ### What stays resident, and restart
//!
//! Between deltas one `ResidentSession` (in `core`) owns the consolidator
//! (prepared features, bucket lists, accepted-pair ledgers, the window
//! decision memo), the accepted delta batches (the base records stay in
//! the context), and the journal. A staged blocked-ER run leaves its
//! consolidator behind, and the first delta's seed adopts it together
//! with the composites the run installed, so a restart consolidates only
//! the log tail. There is no fused-entity cache beside it: the context's
//! previous `fused` vector is the cache, and the next delta *moves* every
//! unchanged cluster's composite out of it into the new vector. None of this is
//! budgeted: every store is the same order as the corpus it derives from,
//! so a cap would bound nothing the records do not already occupy.
//!
//! Durability comes from [`core::DeltaLogConfig`]: every accepted batch
//! appends to a checksummed write-ahead log
//! ([`storage::DeltaLog`]) *before* it consolidates, so a process kill at
//! any batch boundary loses nothing — a reopened system over the same
//! path replays the logged batches and converges on the same bytes. The
//! log compacts once replay would cross `compact_after_frames`, and a
//! failed append freezes the log (the error surfaces to the caller) while
//! the session's journal falls back to keeping later batches in memory.
//!
//! ```
//! use datatamer::core::fusion::{BlockedErConfig, GroupingStrategy};
//! use datatamer::core::{DataTamer, DataTamerConfig, DeltaLogConfig, PipelinePlan};
//! use datatamer::model::{Record, RecordId, SourceId, Value};
//!
//! fn show(id: u64, name: &str) -> Record {
//!     Record::from_pairs(
//!         SourceId(0),
//!         RecordId(id),
//!         vec![("SHOW_NAME", Value::from(name)), ("CHEAPEST_PRICE", Value::from("$10"))],
//!     )
//! }
//!
//! let dir = std::env::temp_dir().join(format!("dt_doctest_log_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! std::fs::create_dir_all(&dir).unwrap();
//! let config = DataTamerConfig {
//!     grouping: GroupingStrategy::BlockedEr(BlockedErConfig::default()),
//!     delta_log: Some(DeltaLogConfig::at(dir.join("delta.log"))),
//!     ..Default::default()
//! };
//! let corpus: Vec<Record> =
//!     (0..40).map(|i| show(i, &format!("Unique{i} Show{i}"))).collect();
//!
//! // First life: seed, then land a delta batch — logged before it fuses.
//! {
//!     let mut dt = DataTamer::new(config.clone());
//!     dt.run(PipelinePlan::new().structured("listings", &corpus)).expect("seed");
//!     let delta = dt.consolidate_delta(&[show(100, "Unique7 Show7")]).expect("delta");
//!     assert_eq!(delta.dirty_clusters, 1);
//! } // killed here — only the log survives
//!
//! // Second life: same log, same corpus seed; the batch replays and the
//! // fused output is byte-identical to never having crashed.
//! let mut dt = DataTamer::new(config);
//! dt.run(PipelinePlan::new().structured("listings", &corpus)).expect("reseed");
//! dt.consolidate_delta(&[]).expect("replay surfaces the logged batch");
//! let merged = DataTamer::lookup(&dt.context().fused, "Unique7 Show7").expect("merged");
//! assert_eq!(merged.member_count, 2, "the killed session's delta survived");
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! ## Query & serving
//!
//! Everything above ends in `dt.context().fused` — a `Vec<FusedEntity>`.
//! The [`query`] crate gives that vector a real read path: secondary
//! indexes (hash for equality, ordered for ranges) over any entity
//! attribute, a typed [`query::Query`] AST with a planner that picks an
//! index probe or a row-parallel scan from the predicate alone, and a
//! hand-rolled HTTP/1.1 front end on `std::net::TcpListener`. Two contracts hold throughout: every plan's
//! result is byte-identical to the naive full-scan oracle at any thread
//! count (proptest-pinned in `tests/query_oracle.rs`), and after
//! [`core::DataTamer::consolidate_delta`] the indexes are maintained
//! *incrementally* from the delta's dirty-cluster set — the
//! [`query::IndexMaintenance`] counters prove no full rebuild happened.
//! A published snapshot shares the view's rows and index segments instead
//! of copying them; the next sync copies only the segments it writes.
//!
//! The facade's [`serve`] module ties it together: bind a server, run
//! the pipeline, publish — concurrent readers see complete snapshots
//! only, before or after, never torn.
//!
//! ```
//! use datatamer::core::fusion::{BlockedErConfig, GroupingStrategy};
//! use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
//! use datatamer::model::{Record, RecordId, SourceId, Value};
//! use datatamer::query::prelude::*;
//! use datatamer::serve::ServeSession;
//! use std::io::{Read, Write};
//!
//! fn show(id: u64, name: &str, price: &str) -> Record {
//!     Record::from_pairs(
//!         SourceId(0),
//!         RecordId(id),
//!         vec![("SHOW_NAME", Value::from(name)), ("CHEAPEST_PRICE", Value::from(price))],
//!     )
//! }
//!
//! // Build: fuse a small corpus.
//! let mut dt = DataTamer::new(DataTamerConfig {
//!     grouping: GroupingStrategy::BlockedEr(BlockedErConfig::default()),
//!     ..Default::default()
//! });
//! let corpus: Vec<Record> =
//!     (0..30).map(|i| show(i, &format!("Unique{i} Show{i}"), "$10")).collect();
//! dt.run(PipelinePlan::new().structured("listings", &corpus)).expect("run");
//!
//! // Index + publish: hash on the key, range on member count.
//! let mut session = ServeSession::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
//! session.publish("shows", &dt, IndexSpec::default().ordered_on("_members"));
//!
//! // Query: planner result is byte-identical to the naive oracle.
//! let snap = session.views().get("shows").expect("published");
//! let q = Query::filtered(Predicate::Gte("_members".into(), Value::Int(1)))
//!     .aggregate(Aggregate::Count);
//! let run = snap.execute(&q);
//! assert_eq!(run.plan, PlanKind::OrderedProbe);
//! assert_eq!(run.result, execute_oracle(snap.entities(), &q));
//! assert_eq!(run.result, QueryResult::Count(30));
//!
//! // One HTTP round-trip against the live server.
//! let mut conn = std::net::TcpStream::connect(session.addr()).expect("connect");
//! conn.write_all(b"GET /collections/shows/query?agg=count HTTP/1.1\r\nHost: x\r\n\r\n")
//!     .expect("send");
//! let mut response = String::new();
//! conn.read_to_string(&mut response).expect("recv");
//! assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
//! assert!(response.ends_with("\"count\":30}"), "{response}");
//! session.stop();
//! ```
//!
//! ## Static analysis & invariants
//!
//! The contracts above — byte-identical fused output across thread
//! counts, backends, and incremental-vs-rebuild runs; storage that
//! returns `DtError` instead of panicking — are sampled by the runtime
//! equivalence suites but *enforced* statically by `dtlint`
//! (`crates/lint`), a zero-dependency analyzer run in CI with `--deny`:
//!
//! * **determinism** — iterating a `HashMap`/`HashSet` in an
//!   output-affecting crate is flagged unless the site sorts first or
//!   carries a reasoned waiver; `RandomState` reorders per process, so
//!   one unordered float accumulation breaks byte-equivalence in ways a
//!   sampled test may never catch. Wall-clock reads (`Instant::now`,
//!   `SystemTime::now`), raw `thread::spawn`, and environment reads in
//!   pipeline crates are flagged for the same reason.
//! * **panic-freedom** — `unwrap`/`expect`/`panic!`/`unreachable!` and
//!   literal indexing in `crates/storage` non-test code are flagged;
//!   storage fallibility is typed (`DtError`), not control flow.
//! * **unsafe audit** — `unsafe` is denied outside a `dtlint.toml`
//!   allowlist (currently empty: the workspace is 100% safe Rust).
//! * **total order** — `partial_cmp(…).unwrap_or(Equal)` is flagged
//!   anywhere: NaN compares equal to everything, so a sort may panic and
//!   a min/max keeps whichever value came first. `total_cmp` replaces it.
//! * **dead surface** — a `pub fn` in a library crate that no other file
//!   calls (tests, examples, doc-comment code and the benchmark count;
//!   a `use` re-export does not) is flagged, so unused API is deleted
//!   rather than kept.
//!
//! Waive a finding inline with
//! `// dtlint::allow(<rule>, reason = "…")` — the reason is mandatory
//! and a malformed waiver is itself a finding. `dtlint.toml` scopes the
//! rule families and holds path-level baselines; the
//! `workspace_is_lint_clean` test in `crates/lint` keeps the tree clean
//! even when CI is skipped. A second, independent net: `clippy.toml`
//! disallows the two clock constructors workspace-wide.

pub use datatamer_clean as clean;
pub use datatamer_core as core;
pub use datatamer_corpus as corpus;
pub use datatamer_entity as entity;
pub use datatamer_expert as expert;
pub use datatamer_ml as ml;
pub use datatamer_model as model;
pub use datatamer_query as query;
pub use datatamer_schema as schema;
pub use datatamer_sim as sim;
pub use datatamer_storage as storage;
pub use datatamer_text as text;

pub mod serve;
