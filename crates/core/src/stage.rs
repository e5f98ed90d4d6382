//! The staged pipeline: Figure 1 as an explicit stage list.
//!
//! Every phase of the system — ingest, schema integration, cleaning,
//! entity consolidation, fusion — is a [`PipelineStage`] driven over a
//! [`PipelineContext`] that owns the store, the catalog, the growing
//! global schema, and every stage's report. The facade
//! ([`crate::DataTamer`]) assembles stage lists and runs them through
//! [`run_stages`]; future scaling work (async ingest, persistence-backed
//! stages) plugs in at these boundaries instead of inside a monolith.
//! Sharding sits below them: each storage `Collection` owns its shards.
//!
//! ```text
//! ingest → schema integration → cleaning → entity consolidation → fusion
//!    │            │                 │               │                │
//!    └────────────┴────────┬────────┴───────────────┴────────────────┘
//!                          ▼
//!                  PipelineContext
//!         (Store · Catalog · SchemaIntegrator · stage reports)
//! ```

use datatamer_clean::{CleaningEngine, CleaningReport};
use datatamer_model::{Record, Result, SourceId, SourceSchema, Value};
use datatamer_schema::{IntegrationReport, SchemaIntegrator};
use datatamer_storage::encode::{encoded_len, varint_len, Writer};
use datatamer_storage::{EncodedDoc, StorageReport, Store};
use datatamer_text::DomainParser;
use rayon::prelude::*;

use crate::catalog::{Catalog, SourceKind};
use crate::config::DataTamerConfig;
use crate::corpus::Corpus;
use crate::fusion::{
    merge_group, FusedEntity, FusionGroup, GroupingReport, GroupingStrategy, RegistryConfig,
    CHEAPEST_PRICE, FIRST, PERFORMANCE, SHOW_NAME, THEATER,
};
use crate::ingest::{IngestStats, TextIngestor};
use crate::pipeline::GLOBAL_RECORDS_COLLECTION;
use crate::resident::ResidentEr;

/// Canonical stage names, in canonical order.
pub mod stage_names {
    /// Structured + text ingest.
    pub const INGEST: &str = "ingest";
    /// Bottom-up schema integration and record mapping.
    pub const SCHEMA_INTEGRATION: &str = "schema_integration";
    /// Cleaning, transformation, and persistence of curated records.
    pub const CLEANING: &str = "cleaning";
    /// Entity consolidation: candidate grouping for fusion.
    pub const ENTITY_CONSOLIDATION: &str = "entity_consolidation";
    /// Composite-entity fusion.
    pub const FUSION: &str = "fusion";

    /// The canonical full-pipeline order.
    pub const CANONICAL_ORDER: [&str; 5] =
        [INGEST, SCHEMA_INTEGRATION, CLEANING, ENTITY_CONSOLIDATION, FUSION];
}

/// A structured source registered but not yet integrated.
#[derive(Debug)]
pub struct PendingSource {
    /// Catalog id assigned at ingest.
    pub id: SourceId,
    /// Source name.
    pub name: String,
    /// Raw records exactly as supplied.
    pub records: Vec<Record>,
}

/// What one stage reports back: enough to render progress tables and to
/// assert pipeline health in tests, without retaining per-record detail.
#[derive(Debug, Clone, PartialEq)]
pub enum StageReport {
    /// [`stage_names::INGEST`].
    Ingest {
        /// Structured sources registered this run.
        structured_sources: usize,
        /// Raw structured records taken in.
        structured_records: usize,
        /// Text ingestion outcome, when web text was ingested.
        text: Option<IngestStats>,
        /// Shard-distribution reports of the collections this stage wrote,
        /// in the fixed write order `instance` then `entity`: per-shard
        /// doc/extent counts, backend kind, and flush traffic.
        storage: Vec<StorageReport>,
    },
    /// [`stage_names::SCHEMA_INTEGRATION`].
    SchemaIntegration {
        /// Sources integrated this run.
        sources: usize,
        /// Attribute mappings accepted without a human.
        auto_accepted: usize,
        /// Attribute mappings escalated to a resolver.
        human_interventions: usize,
        /// Attributes newly added to the global schema.
        new_attributes: usize,
        /// Source attributes whose upper-cased target spelling collided
        /// with another attribute of the same source ("price" vs "PRICE")
        /// — preserved under a deterministic `__N` suffix instead of
        /// silently overwriting, counted once per colliding attribute.
        case_collisions: usize,
    },
    /// [`stage_names::CLEANING`].
    Cleaning {
        /// Sources cleaned this run.
        sources: usize,
        /// Records visited.
        records: usize,
        /// Null spellings canonicalised.
        nulls_canonicalized: usize,
        /// Values rewritten by transform rules.
        values_transformed: usize,
        /// Shard-distribution report of the global-records collection this
        /// stage persisted into (`None` on text-only runs that created no
        /// collection).
        storage: Option<StorageReport>,
    },
    /// [`stage_names::ENTITY_CONSOLIDATION`].
    EntityConsolidation {
        /// Records considered.
        records: usize,
        /// Candidate entity groups formed.
        groups: usize,
        /// Groups with more than one member (cross-source entities).
        multi_member_groups: usize,
        /// Largest group size.
        largest_group: usize,
        /// Blocking health of the grouping run (all-zero under
        /// canonical-name grouping, which has no pairwise phase). A
        /// nonzero `degraded_buckets` means some buckets ran windowed
        /// progressive expansion instead of exhaustive comparison.
        blocking: GroupingReport,
        /// Delta-ingest accounting when this consolidation ran through the
        /// resident-state incremental path
        /// ([`crate::DataTamer::consolidate_delta`]); `None` for full
        /// batch runs.
        delta: Option<datatamer_entity::incremental::DeltaReport>,
    },
    /// [`stage_names::FUSION`].
    Fusion {
        /// Composite entities produced.
        entities: usize,
        /// Input records merged into them.
        members: usize,
    },
}

/// One recorded stage execution.
#[derive(Debug, Clone)]
pub struct StageRun {
    /// The stage's name.
    pub stage: &'static str,
    /// What it reported.
    pub report: StageReport,
}

/// Everything the stages share: storage, catalog, schema state, the record
/// sets flowing between stages, the one resident ER state, and the ordered
/// log of stage runs.
///
/// The corpus entity consolidation groups and fusion merges is
/// `structured_records`, then `text_show_records`, then every delta batch
/// [`crate::DataTamer::consolidate_delta`] accepted, read where they are:
/// no stage copies it, and `fusion_groups` index it directly, so fusion
/// can run again over the same groups at any time. It only grows.
pub struct PipelineContext {
    pub(crate) config: DataTamerConfig,
    /// The collection store (text collections + curated global records).
    pub store: Store,
    /// Source registry.
    pub catalog: Catalog,
    /// The growing global schema.
    pub integrator: SchemaIntegrator,
    /// Ingested structured sources awaiting schema integration.
    pub pending_sources: Vec<PendingSource>,
    /// Schema-mapped sources awaiting cleaning. Every field name of a
    /// mapped record is upper-case (a canonical spelling, perhaps with a
    /// `__N` suffix), so none is `_source` or `_id`, the two fields the
    /// cleaning stage writes ahead of a record's own when it stores it.
    pub mapped_sources: Vec<(String, Vec<Record>)>,
    /// Integrated + cleaned records (canonical attribute spellings).
    pub structured_records: Vec<Record>,
    /// Text-derived show records.
    pub text_show_records: Vec<Record>,
    /// Stats of the most recent text ingest.
    pub text_stats: IngestStats,
    /// Per-source cleaning reports, in cleaning order.
    pub cleaning_reports: Vec<(String, CleaningReport)>,
    /// Per-source integration reports, in integration order.
    pub integration_reports: Vec<(String, IntegrationReport)>,
    /// Candidate groups produced by entity consolidation. Members index the
    /// corpus in place: `structured_records`, then `text_show_records`,
    /// then the accepted delta batches.
    pub fusion_groups: Vec<FusionGroup>,
    /// Fused composites from the most recent fusion stage.
    pub fused: Vec<FusedEntity>,
    /// Bumped every time [`PipelineContext::fused`] is replaced (batch
    /// fusion or delta consolidation) — downstream views use it to detect
    /// staleness cheaply.
    pub fused_revision: u64,
    /// For the most recent `fused` installation: `Some(dirty)` with one
    /// flag per fusion group when the delta path installed it (`dirty[i]`
    /// = group `i` was re-resolved); `None` after a batch run, meaning
    /// "assume everything changed". The flags are relative to the
    /// **immediately preceding** revision only: a view last synced at
    /// `fused_revision - 1` may reindex just the dirty groups, one that
    /// skipped a revision must rebuild (a group dirtied by the skipped
    /// delta reads clean here).
    pub fused_changed: Option<Vec<bool>>,
    /// Every delta batch [`crate::DataTamer::consolidate_delta`] accepted
    /// (logged batches an earlier process replayed first), in arrival
    /// order: the last corpus segment.
    pub(crate) accepted: Vec<Record>,
    /// The resident ER state: left by a blocked-ER consolidation stage,
    /// extended by every delta, cleared by any other consolidation.
    pub(crate) er: Option<ResidentEr>,
    runs: Vec<StageRun>,
}

impl PipelineContext {
    /// Fresh context for a configuration.
    pub fn new(config: DataTamerConfig) -> Self {
        let integrator = SchemaIntegrator::new(config.integration.clone());
        PipelineContext {
            store: Store::new(config.namespace.clone()),
            config,
            catalog: Catalog::new(),
            integrator,
            pending_sources: Vec::new(),
            mapped_sources: Vec::new(),
            structured_records: Vec::new(),
            text_show_records: Vec::new(),
            text_stats: IngestStats::default(),
            cleaning_reports: Vec::new(),
            integration_reports: Vec::new(),
            fusion_groups: Vec::new(),
            fused: Vec::new(),
            fused_revision: 0,
            fused_changed: None,
            accepted: Vec::new(),
            er: None,
            runs: Vec::new(),
        }
    }

    /// The configuration driving the pipeline.
    pub fn config(&self) -> &DataTamerConfig {
        &self.config
    }

    /// The corpus consolidation groups and fusion merges, read in place.
    pub(crate) fn corpus(&self) -> Corpus<'_> {
        Corpus([&self.structured_records, &self.text_show_records, &self.accepted])
    }

    /// Every stage execution so far, in order.
    pub fn runs(&self) -> &[StageRun] {
        &self.runs
    }

    /// The most recent report of a stage, if it has run.
    pub fn report_of(&self, stage: &str) -> Option<&StageReport> {
        self.runs.iter().rev().find(|r| r.stage == stage).map(|r| &r.report)
    }

    /// How many times a stage has run.
    pub fn run_count(&self, stage: &str) -> usize {
        self.runs.iter().filter(|r| r.stage == stage).count()
    }

    /// Record one delta's consolidation + fusion executions — the
    /// delta-ingest path runs them against resident state, outside
    /// [`run_stages`]. A delta directly following another overwrites its
    /// pair instead of appending, so a long-lived serving session's log
    /// stays bounded; staged runs always append, and
    /// [`PipelineContext::report_of`] sees the latest delta either way.
    pub(crate) fn record_delta_runs(&mut self, consolidation: StageReport, fusion: StageReport) {
        let n = self.runs.len();
        let follows_delta = n >= 2
            && self.runs[n - 1].stage == stage_names::FUSION
            && matches!(
                self.runs[n - 2].report,
                StageReport::EntityConsolidation { delta: Some(_), .. }
            );
        if follows_delta {
            self.runs.truncate(n - 2);
        }
        self.runs.push(StageRun { stage: stage_names::ENTITY_CONSOLIDATION, report: consolidation });
        self.runs.push(StageRun { stage: stage_names::FUSION, report: fusion });
    }
}

/// One phase of the pipeline, executed over the shared context.
pub trait PipelineStage {
    /// Stable stage name (one of [`stage_names`]).
    fn name(&self) -> &'static str;

    /// Execute against the context, returning the stage's report.
    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport>;
}

/// Drive stages in order, recording each report in the context. Stops at
/// the first failing stage (its report is not recorded).
pub fn run_stages(
    ctx: &mut PipelineContext,
    stages: &mut [Box<dyn PipelineStage + '_>],
) -> Result<()> {
    for stage in stages {
        let report = stage.run(ctx)?;
        ctx.runs.push(StageRun { stage: stage.name(), report });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------------

/// A web-text ingest job: the domain parser plus `(fragment, label)` pairs.
pub struct TextIngestJob<'a> {
    /// The domain-specific parser (Figure 1's user-defined module).
    pub parser: DomainParser,
    /// Raw fragments with their source labels.
    pub fragments: Vec<(&'a str, &'a str)>,
}

/// Stage 1: take structured sources and/or web text into the system.
///
/// Structured records are registered in the catalog and parked for schema
/// integration; text fragments run clean → parse → store into the
/// `instance` / `entity` collections, yielding show records for fusion.
pub struct IngestStage<'a> {
    structured: Vec<(String, Vec<Record>)>,
    text: Option<TextIngestJob<'a>>,
}

impl<'a> IngestStage<'a> {
    /// Build from the inputs of one run.
    pub fn new(structured: Vec<(String, Vec<Record>)>, text: Option<TextIngestJob<'a>>) -> Self {
        IngestStage { structured, text }
    }
}

impl PipelineStage for IngestStage<'_> {
    fn name(&self) -> &'static str {
        stage_names::INGEST
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let mut structured_records = 0;
        let structured_sources = self.structured.len();
        for (name, records) in self.structured.drain(..) {
            let id = ctx.catalog.register(&name, SourceKind::Structured);
            ctx.catalog.set_record_count(id, records.len() as u64);
            structured_records += records.len();
            ctx.pending_sources.push(PendingSource { id, name, records });
        }

        let mut text_stats = None;
        let mut storage = Vec::new();
        if let Some(job) = self.text.take() {
            let source_id = ctx.catalog.register("webtext", SourceKind::Text);
            let (stats, shows) = TextIngestor::new(job.parser)?.ingest(
                &ctx.store,
                ctx.config.collection_config(),
                source_id,
                job.fragments,
            )?;
            ctx.catalog.set_record_count(source_id, stats.instances);
            ctx.text_show_records.extend(shows);
            ctx.text_stats = stats.clone();
            text_stats = Some(stats);
            for name in [crate::ingest::INSTANCE_COLLECTION, crate::ingest::ENTITY_COLLECTION] {
                if let Some(col) = ctx.store.collection(name) {
                    storage.push(col.storage_report());
                }
            }
        }

        Ok(StageReport::Ingest {
            structured_sources,
            structured_records,
            text: text_stats,
            storage,
        })
    }
}

// ---------------------------------------------------------------------------
// Schema integration
// ---------------------------------------------------------------------------

/// Stage 2: integrate every pending source into the global schema and map
/// its records onto canonical attribute spellings.
///
/// The per-source work runs in two parallel calls over the sources: one
/// profiles every pending source, one maps every source's records onto
/// canonical attribute spellings. Between them, integration is
/// sequential (the global schema grows source by source — that ordering
/// *is* the paper's bottom-up bootstrap): every source is integrated and
/// given its rename mapping in turn. The profile gives every field of
/// every record a source attribute, and the integrator gives every source
/// attribute one decision, so the mapping names every field; its targets
/// are made distinct once per source (`decollide_targets`), so a mapped
/// record's names are distinct without a per-record check.
///
/// A lone source runs on the caller at the full width, so its records
/// spread across the rayon team; with several, each source maps its
/// records inline, since a call made inside another call's work runs
/// inline. A profile is one source's sequential pass, so nothing here
/// depends on the thread width. Escalations resolve by thresholds only
/// ([`SchemaIntegrator::integrate`]); routing them to experts is
/// [`SchemaIntegrator::integrate_with`] with an
/// [`crate::ExpertPanelResolver`], outside the pipeline.
#[derive(Debug, Default)]
pub struct SchemaIntegrationStage;

impl SchemaIntegrationStage {
    /// The stage. It exists beside the unit value only because the
    /// benchmark harness names it.
    pub fn auto() -> Self {
        SchemaIntegrationStage
    }
}

/// First free spelling for `target`: `target` itself when `occupied` says
/// it is free, else the first `target__N` (N ≥ 2) that is. The bool
/// reports whether a suffix was needed.
fn decollide(target: String, occupied: impl Fn(&str) -> bool) -> (String, bool) {
    if !occupied(&target) {
        return (target, false);
    }
    let mut n = 2;
    loop {
        let candidate = format!("{target}__{n}");
        if !occupied(&candidate) {
            return (candidate, true);
        }
        n += 1;
    }
}

/// Make a source's mapping targets distinct, returning how many needed a
/// suffix. Every record of the source must send a given source attribute
/// to the same global column, or downstream truth discovery would vote
/// over columns mixing two semantically different attributes; and
/// distinct source attributes can collide once upper-cased ("price" and
/// "PRICE"). Overwriting would silently drop the later value, so the first
/// mapping entry keeps the canonical spelling and later colliders get
/// deterministic `__N` suffixes.
fn decollide_targets(mapping: &mut [(String, Option<String>)]) -> usize {
    let mut collisions = 0;
    let mut used: Vec<String> = Vec::new();
    for (_, target) in mapping.iter_mut() {
        let Some(t) = target.take() else { continue };
        let (t, collided) = decollide(t, |c| used.iter().any(|u| u == c));
        collisions += usize::from(collided);
        used.push(t.clone());
        *target = Some(t);
    }
    collisions
}

/// Map one record onto the global schema through its source's
/// `(source_attr, target)` mapping: renamed when mapped, dropped when
/// ignored. The mapping names every field of the record and its targets
/// are distinct ([`decollide_targets`]), so the mapped record's names are
/// too.
///
/// The record is consumed: every value moves, a mapped field's name buffer
/// is rewritten in place, and the mapped record is allocated at its final
/// size (growing it field by field made two threads mapping at once each
/// several times slower). Records of one source almost always share
/// a field order, so the mapping entry after the previous field's is tried
/// before the mapping is searched.
fn map_record(r: Record, mapping: &[(String, Option<String>)]) -> Record {
    let mut out = Record::with_capacity(r.source, r.id, r.len());
    let mut next = 0;
    for (mut attr, value) in r.into_fields() {
        let at = match mapping.get(next) {
            Some((a, _)) if *a == attr => Some(next),
            _ => mapping.iter().position(|(a, _)| *a == attr),
        };
        debug_assert!(at.is_some(), "the mapping names every field: {attr}");
        let Some(at) = at else { continue };
        next = at + 1;
        if let Some((_, Some(target))) = mapping.get(at) {
            attr.clear();
            attr.push_str(target);
            out.set(attr, value);
        }
    }
    out
}

impl PipelineStage for SchemaIntegrationStage {
    fn name(&self) -> &'static str {
        stage_names::SCHEMA_INTEGRATION
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        ctx.integrator.config().validate()?;
        let (mut sources, mut auto_accepted, mut human, mut new_attrs) = (0, 0, 0, 0);
        let mut case_collisions = 0;
        let pending = std::mem::take(&mut ctx.pending_sources);
        // 1. Profile every source.
        let schemas: Vec<SourceSchema> = pending
            .par_iter()
            .map(|s| SourceSchema::profile_records(s.id, &s.name, &s.records))
            .collect();
        let mut decided = Vec::with_capacity(pending.len());
        for (source, schema) in pending.into_iter().zip(schemas) {
            // 2. Integrate the schema.
            let report = ctx.integrator.integrate(&schema);

            // 3. Build the source-attr → canonical-name mapping from the
            //    decisions.
            let mut mapping: Vec<(String, Option<String>)> = Vec::new();
            for s in &report.suggestions {
                let target = match s.decision.mapped_attr() {
                    Some(id) => ctx
                        .integrator
                        .global()
                        .get(id)
                        .map(|g| g.name.to_uppercase()),
                    None => match s.decision {
                        datatamer_schema::Decision::Ignore => None,
                        _ => Some(s.source_attr.to_uppercase()),
                    },
                };
                mapping.push((s.source_attr.clone(), target));
            }

            case_collisions += decollide_targets(&mut mapping);

            sources += 1;
            auto_accepted += report.auto_accepted();
            human += report.human_interventions();
            new_attrs += report.new_attributes();
            ctx.integration_reports.push((source.name.clone(), report));
            decided.push((source, mapping));
        }

        // 4. Map every source's records onto the global schema, moving
        //    each record out of its source.
        let results: Vec<Vec<Record>> = decided
            .par_iter_mut()
            .map(|(source, mapping)| {
                let mapping = &*mapping;
                source
                    .records
                    .par_iter_mut()
                    .map(|r| map_record(std::mem::replace(r, Record::new(r.source, r.id)), mapping))
                    .collect()
            })
            .collect();
        for ((source, _), mapped) in decided.into_iter().zip(results) {
            ctx.mapped_sources.push((source.name, mapped));
        }
        Ok(StageReport::SchemaIntegration {
            sources,
            auto_accepted,
            human_interventions: human,
            new_attributes: new_attrs,
            case_collisions,
        })
    }
}

// ---------------------------------------------------------------------------
// Cleaning
// ---------------------------------------------------------------------------

/// Stage 3: clean and transform every mapped source (EUR→USD, date
/// normalisation, null canonicalisation), then persist the curated records
/// into the global-records collection.
///
/// Each source is one job of a parallel call over the sources: it cleans
/// its records in place and writes each record's stored document straight
/// into its storage encoding (`write_record`); no `Document` is built.
/// The engine holds no mutable state, so the cleaned records do not
/// depend on the thread width. A lone source runs on the caller at the
/// full width, so its records spread across the rayon team; with several,
/// each job runs inline. The encoded sources then land in storage in
/// source order, through the shard-batched `insert_encoded` path.
#[derive(Debug, Default)]
pub struct CleaningStage;

/// The stored document of a cleaned record, encoded: `_source` and `_id`,
/// then every field in order, into a buffer of exactly its length. A
/// mapped record's names are upper-case and distinct
/// ([`PipelineContext::mapped_sources`]), so the document has one entry
/// per field and the two ids are not overwritten.
fn write_record(r: &Record) -> EncodedDoc {
    debug_assert!(
        r.get("_source").is_none() && r.get("_id").is_none(),
        "a mapped record's names are upper-case"
    );
    let (source, id) = (Value::Int(i64::from(r.source.0)), Value::Int(r.id.0 as i64));
    let fields = || [("_source", &source), ("_id", &id)].into_iter().chain(r.iter());
    let n = 2 + r.len();
    let capacity = 1
        + varint_len(n as u64)
        + fields().map(|(k, v)| varint_len(k.len() as u64) + k.len() + encoded_len(v)).sum::<usize>();
    let mut w = Writer::document(n, capacity);
    for (k, v) in fields() {
        w.field(k);
        w.value(v);
    }
    w.finish()
}

impl PipelineStage for CleaningStage {
    fn name(&self) -> &'static str {
        stage_names::CLEANING
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let mut jobs = std::mem::take(&mut ctx.mapped_sources);
        let engine =
            CleaningEngine::broadway(CHEAPEST_PRICE, FIRST, &[SHOW_NAME, THEATER, PERFORMANCE]);
        let cleaned: Vec<(CleaningReport, Vec<EncodedDoc>)> = jobs
            .par_iter_mut()
            .map(|(_, records)| {
                let report = engine.clean_all_parallel(records);
                (report, records.par_iter().map(write_record).collect())
            })
            .collect();

        let (reports, encoded): (Vec<CleaningReport>, Vec<Vec<EncodedDoc>>) =
            cleaned.into_iter().unzip();
        let (mut records, mut nulls, mut transformed) = (0, 0, 0);
        for ((name, _), r) in jobs.iter().zip(reports) {
            records += r.records;
            nulls += r.nulls_canonicalized;
            transformed += r.values_transformed;
            ctx.cleaning_reports.push((name.clone(), r));
        }
        let sources = jobs.len();

        // Persist into the global-records collection, batched per source.
        // Text-only runs clean nothing — leave the collection uncreated so
        // store listings/stats only ever show collections with a reason to
        // exist (matching the pre-staged behavior).
        let mut storage = None;
        if !jobs.is_empty() {
            let col = ctx
                .store
                .collection_or_create(GLOBAL_RECORDS_COLLECTION, ctx.config.collection_config())?;
            for ((_, records), docs) in jobs.into_iter().zip(encoded) {
                col.insert_encoded(&docs)?;
                ctx.structured_records.extend(records);
            }
            storage = Some(col.storage_report());
        }

        Ok(StageReport::Cleaning {
            sources,
            records,
            nulls_canonicalized: nulls,
            values_transformed: transformed,
            storage,
        })
    }
}

// ---------------------------------------------------------------------------
// Entity consolidation
// ---------------------------------------------------------------------------

/// Stage 4: group the curated structured records and the text-derived show
/// records into candidate entities (the consolidation half of fusion).
///
/// The stage reads the context's corpus in place — structured records
/// first, so source-priority conflict resolution favours the curated
/// sources downstream, then text show records, then the accepted delta
/// batches — and leaves [`PipelineContext::fusion_groups`], whose members
/// index that corpus.
///
/// Grouping dispatches on a [`GroupingStrategy`]: the classic
/// canonical-name scan, or similarity-based blocked ER (blocking →
/// rayon-parallel pair scoring → union-find) for fuzzy duplicates the name
/// key cannot reach. The default stage groups under the context's
/// configured strategy ([`DataTamerConfig::grouping`]), which is what
/// [`crate::DataTamer::run`] uses; [`EntityConsolidationStage::with_strategy`]
/// names one explicitly for a hand-assembled stage list. Blocked ER is
/// one ingest of the whole corpus into a fresh resident engine, which the
/// stage leaves in the context as its one resident ER state: the next
/// [`crate::DataTamer::consolidate_delta`] extends it instead of
/// consolidating the same corpus again.
#[derive(Default)]
pub struct EntityConsolidationStage {
    strategy: Option<GroupingStrategy>,
}

impl EntityConsolidationStage {
    /// Group with an explicit strategy instead of the context's configured
    /// one.
    pub fn with_strategy(strategy: GroupingStrategy) -> Self {
        EntityConsolidationStage { strategy: Some(strategy) }
    }
}

impl PipelineStage for EntityConsolidationStage {
    fn name(&self) -> &'static str {
        stage_names::ENTITY_CONSOLIDATION
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let corpus = ctx.corpus();
        let strategy = self.strategy.as_ref().unwrap_or(&ctx.config.grouping);
        let (groups, blocking, consolidator) = strategy.group(corpus, ctx.config.fusion_threshold);
        let report = StageReport::EntityConsolidation {
            records: corpus.len(),
            groups: groups.len(),
            multi_member_groups: groups.iter().filter(|(_, m)| m.len() > 1).count(),
            largest_group: groups.iter().map(|(_, m)| m.len()).max().unwrap_or(0),
            blocking,
            delta: None,
        };
        ctx.er = consolidator
            .map(|consolidator| ResidentEr { consolidator, installed_revision: None });
        ctx.fusion_groups = groups;
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// Fusion
// ---------------------------------------------------------------------------

/// Stage 5: merge each candidate group into one composite entity through a
/// resolver routing (groups merge in parallel; every resolver is
/// deterministic, so output is byte-identical at any thread count).
///
/// Members are read from the context's corpus in place, where
/// consolidation found them; the stage consumes nothing, so running it
/// again over the same groups yields the same composites.
///
/// The default stage borrows the context's configured routing
/// ([`DataTamerConfig::fusion_resolvers`]), which is what
/// [`crate::DataTamer::run`] uses; [`FusionStage::new`] names an explicit
/// routing for a hand-assembled stage list.
#[derive(Debug, Default)]
pub struct FusionStage {
    registry: Option<RegistryConfig>,
}

impl FusionStage {
    /// Resolve conflicts through `registry` instead of the context's
    /// configured routing.
    pub fn new(registry: RegistryConfig) -> Self {
        FusionStage { registry: Some(registry) }
    }
}

impl PipelineStage for FusionStage {
    fn name(&self) -> &'static str {
        stage_names::FUSION
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let registry = self.registry.as_ref().unwrap_or(&ctx.config.fusion_resolvers);
        let corpus = ctx.corpus();
        let fused: Vec<FusedEntity> = ctx
            .fusion_groups
            .par_iter()
            .map(|group| merge_group(|i| corpus.get(i), group, registry))
            .collect();
        let members = fused.iter().map(|f| f.member_count).sum();
        let report = StageReport::Fusion { entities: fused.len(), members };
        ctx.fused = fused;
        ctx.fused_revision += 1;
        // Batch fusion rebuilds everything: no dirty set to offer.
        ctx.fused_changed = None;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_clean::CleaningReport;
    use datatamer_model::{Document, RecordId};
    use proptest::prelude::*;

    /// The stored document the cleaning stage built, before it wrote
    /// records straight into their encoding: `_source`, `_id`, then every
    /// field, each `set` in turn.
    fn record_to_doc(r: &Record) -> Document {
        let mut d = Document::new();
        d.set("_source", Value::Int(i64::from(r.source.0)));
        d.set("_id", Value::Int(r.id.0 as i64));
        for (k, v) in r.iter() {
            d.set(k, v.clone());
        }
        d
    }

    /// A mapping as the stage builds it, targets made distinct.
    fn decollided(pairs: &[(&str, Option<&str>)]) -> (Vec<(String, Option<String>)>, usize) {
        let mut mapping: Vec<(String, Option<String>)> =
            pairs.iter().map(|(a, t)| ((*a).to_owned(), t.map(str::to_owned))).collect();
        let collisions = decollide_targets(&mut mapping);
        (mapping, collisions)
    }

    #[test]
    fn map_record_preserves_case_colliding_unmapped_attributes() {
        // Three distinct new source attributes collapsing to one
        // upper-cased spelling: first-wins keeps the canonical name, later
        // ones get deterministic suffixes, and every value survives.
        let r = Record::from_pairs(
            SourceId(0),
            RecordId(0),
            vec![
                ("price", Value::from("$27")),
                ("Price", Value::from("$30")),
                ("PRICE", Value::from("$45")),
            ],
        );
        let (mapping, collisions) = decollided(&[
            ("price", Some("PRICE")),
            ("Price", Some("PRICE")),
            ("PRICE", Some("PRICE")),
        ]);
        assert_eq!(collisions, 2);
        let mapped = map_record(r, &mapping);
        assert_eq!(mapped.get_text("PRICE").as_deref(), Some("$27"));
        assert_eq!(mapped.get_text("PRICE__2").as_deref(), Some("$30"));
        assert_eq!(mapped.get_text("PRICE__3").as_deref(), Some("$45"));
        assert_eq!(mapped.len(), 3, "nothing silently dropped");
    }

    #[test]
    fn map_record_suffixes_mapped_target_collisions_and_drops_ignored() {
        // A mapped attribute and a case-variant landing on the same
        // canonical target must both survive, in record field order.
        let r = Record::from_pairs(
            SourceId(0),
            RecordId(0),
            vec![("cost", Value::from("$10")), ("PRICE", Value::from("$20"))],
        );
        let (mapping, collisions) =
            decollided(&[("cost", Some("PRICE")), ("PRICE", Some("PRICE"))]);
        assert_eq!(collisions, 1);
        let mapped = map_record(r.clone(), &mapping);
        assert_eq!(mapped.get_text("PRICE").as_deref(), Some("$10"));
        assert_eq!(mapped.get_text("PRICE__2").as_deref(), Some("$20"));

        let (mapping, collisions) = decollided(&[("cost", None), ("PRICE", Some("PRICE"))]);
        assert_eq!(collisions, 0, "an ignored attribute vacates its target");
        let dropped = map_record(r, &mapping);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped.get_text("PRICE").as_deref(), Some("$20"));
    }

    #[test]
    fn map_record_without_collisions_counts_zero() {
        let r = Record::from_pairs(
            SourceId(0),
            RecordId(0),
            vec![("show", Value::from("Matilda")), ("price", Value::from("$27"))],
        );
        let (mapping, collisions) = decollided(&[("show", Some("SHOW")), ("price", Some("PRICE"))]);
        assert_eq!(collisions, 0);
        let mapped = map_record(r, &mapping);
        assert_eq!(mapped.get_text("SHOW").as_deref(), Some("Matilda"));
        assert_eq!(mapped.get_text("PRICE").as_deref(), Some("$27"));
    }

    #[test]
    fn write_record_preserves_fields() {
        let r = Record::from_pairs(
            SourceId(3),
            RecordId(9),
            vec![("A", Value::from("x")), ("B", Value::Int(2))],
        );
        let d = datatamer_storage::encode::decode_document(write_record(&r).as_bytes()).unwrap();
        let fields: Vec<(&str, &Value)> = d.iter().collect();
        assert_eq!(
            fields,
            [
                ("_source", &Value::Int(3)),
                ("_id", &Value::Int(9)),
                ("A", &Value::from("x")),
                ("B", &Value::Int(2)),
            ]
        );
    }

    /// Source attribute names: the stored document's own `_source` and
    /// `_id`, case variants of one another, and plain names.
    const NAMES: [&str; 9] =
        ["_id", "_source", "price", "Price", "PRICE", "show", "SHOW", "first", "x"];

    /// Dirty cells: euro and dollar prices, null spellings, an ISO date,
    /// untidy text, and values of other types.
    fn cell(i: usize) -> Value {
        match i {
            0 => Value::from("€30"),
            1 => Value::from("$27"),
            2 => Value::from("N/A"),
            3 => Value::from("-"),
            4 => Value::from("2013-03-04"),
            5 => Value::from("  Shubert  Theatre "),
            6 => Value::Int(5),
            7 => Value::Float(-0.5),
            _ => Value::Null,
        }
    }

    /// One source: a mapping with one decision per name (ignore, the
    /// name's own upper-cased spelling, or a global attribute's), in a
    /// rotated order, and records over subsets of the names in rotated
    /// field orders.
    fn source() -> impl Strategy<Value = (Vec<(String, Option<String>)>, Vec<Record>)> {
        let rows = prop::collection::vec(
            (0..512usize, 0..9usize, prop::collection::vec(0..9usize, NAMES.len())),
            1..8,
        );
        (prop::collection::vec(0..6usize, NAMES.len()), 0..9usize, rows).prop_map(
            |(decisions, turn, rows)| {
                let mut mapping: Vec<(String, Option<String>)> = NAMES
                    .iter()
                    .zip(decisions)
                    .map(|(name, d)| {
                        let target = match d {
                            0 => None,
                            1 | 2 => Some(name.to_uppercase()),
                            d => Some([CHEAPEST_PRICE, SHOW_NAME, FIRST][d - 3].to_owned()),
                        };
                        ((*name).to_owned(), target)
                    })
                    .collect();
                mapping.rotate_left(turn);
                let records = rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, (mask, turn, cells))| {
                        let mut pairs: Vec<(&str, Value)> = NAMES
                            .iter()
                            .zip(cells)
                            .enumerate()
                            .filter(|(k, _)| mask & (1 << k) != 0)
                            .map(|(_, (name, c))| (*name, cell(c)))
                            .collect();
                        let by = turn % pairs.len().max(1);
                        pairs.rotate_left(by);
                        Record::from_pairs(SourceId(4), RecordId(i as u64), pairs)
                    })
                    .collect();
                (mapping, records)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn written_records_encode_as_the_document_oracle(source in source()) {
            let (mut mapping, records) = source;
            decollide_targets(&mut mapping);
            let engine =
                CleaningEngine::broadway(CHEAPEST_PRICE, FIRST, &[SHOW_NAME, THEATER, PERFORMANCE]);
            for r in records {
                let kept = r
                    .field_names()
                    .filter(|n| mapping.iter().any(|(a, t)| a == n && t.is_some()))
                    .count();
                let mut mapped = map_record(r, &mapping);
                let mut names: Vec<&str> = mapped.field_names().collect();
                names.sort_unstable();
                names.dedup();
                prop_assert_eq!(names.len(), kept, "every kept field lands under its own name");
                prop_assert_eq!(mapped.len(), kept);
                engine.clean_record(&mut mapped, &mut CleaningReport::default());
                prop_assert_eq!(write_record(&mapped), EncodedDoc::of(&record_to_doc(&mapped)));
            }
        }
    }
}
