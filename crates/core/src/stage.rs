//! The staged pipeline: Figure 1 as an explicit stage list.
//!
//! Every phase of the system — ingest, schema integration, cleaning,
//! entity consolidation, fusion — is a [`PipelineStage`] driven over a
//! [`PipelineContext`] that owns the store, the catalog, the growing
//! global schema, and every stage's report. The facade
//! ([`crate::DataTamer`]) assembles stage lists and runs them through
//! [`run_stages`]; future scaling work (shard coordinators, async ingest,
//! persistence-backed stages) plugs in at these boundaries instead of
//! inside a monolith.
//!
//! ```text
//! ingest → schema integration → cleaning → entity consolidation → fusion
//!    │            │                 │               │                │
//!    └────────────┴────────┬────────┴───────────────┴────────────────┘
//!                          ▼
//!                  PipelineContext
//!         (Store · Catalog · SchemaIntegrator · stage reports)
//! ```

use datatamer_clean::{clean_sources_parallel, CleaningEngine, CleaningReport};
use datatamer_model::{Record, Result, SourceId, SourceSchema};
use datatamer_schema::{IntegrationReport, SchemaIntegrator};
use datatamer_storage::{StorageReport, Store};
use datatamer_text::DomainParser;
use rayon::prelude::*;

use crate::catalog::{Catalog, SourceKind};
use crate::config::DataTamerConfig;
use crate::fusion::grouping::blocked_er;
use crate::fusion::{
    merge_groups_with, FusedEntity, FusionGroup, GroupingReport, GroupingStrategy,
    RegistryConfig, CHEAPEST_PRICE, FIRST, PERFORMANCE, SHOW_NAME, THEATER,
};
use crate::ingest::{IngestStats, TextIngestor};
use crate::pipeline::{record_to_doc, GLOBAL_RECORDS_COLLECTION};
use crate::resident::StagedEr;

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
/// sets flowing between stages, and the ordered log of stage runs.
pub struct PipelineContext {
    config: DataTamerConfig,
    /// The collection store (text collections + curated global records).
    pub store: Store,
    /// Source registry.
    pub catalog: Catalog,
    /// The growing global schema.
    pub integrator: SchemaIntegrator,
    /// Ingested structured sources awaiting schema integration.
    pub pending_sources: Vec<PendingSource>,
    /// Schema-mapped sources awaiting cleaning.
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
    /// The combined record snapshot consolidation grouped (fusion input;
    /// drained by the fusion stage to keep the context lean).
    pub fusion_input: Vec<Record>,
    /// Candidate groups produced by entity consolidation.
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
    /// The resident ER state the most recent staged blocked-ER
    /// consolidation left for [`crate::DataTamer::consolidate_delta`] to
    /// adopt; taken by the next delta, cleared by any other consolidation.
    pub(crate) staged_er: Option<StagedEr>,
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
            fusion_input: Vec::new(),
            fusion_groups: Vec::new(),
            fused: Vec::new(),
            fused_revision: 0,
            fused_changed: None,
            staged_er: None,
            runs: Vec::new(),
        }
    }

    /// The configuration driving the pipeline.
    pub fn config(&self) -> &DataTamerConfig {
        &self.config
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
            let (stats, shows) = TextIngestor::new(job.parser).ingest(
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
/// Integration itself is sequential (the global schema grows source by
/// source — that ordering *is* the paper's bottom-up bootstrap); the
/// per-record rename mapping fans out across the rayon team. Escalations
/// resolve by thresholds only ([`SchemaIntegrator::integrate`]); routing
/// them to experts is [`SchemaIntegrator::integrate_with`] with an
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

/// Map one record onto the global schema given `(source_attr, target)`
/// decisions: renamed when mapped, dropped when ignored, upper-cased when
/// unknown. Returns the mapped record plus the number of case collisions.
///
/// Distinct source attributes can collide after upper-casing ("price" and
/// "PRICE" on one record). Overwriting would silently drop the earlier
/// value with no trace; instead the first occupant keeps the canonical
/// spelling and later arrivals land under a deterministic `__N` suffix.
/// On the staged-pipeline path the mapping is already de-collided once
/// per source (see [`SchemaIntegrationStage`]), which keeps each source
/// attribute's column identical across records; the in-record check here
/// is the defensive net for direct calls and for attributes missing from
/// the mapping entirely (counted per occurrence).
fn map_record(r: &Record, mapping: &[(String, Option<String>)]) -> (Record, usize) {
    let mut out = Record::new(r.source, r.id);
    let mut collisions = 0;
    for (attr, value) in r.iter() {
        let target = match mapping.iter().find(|(a, _)| a == attr) {
            Some((_, Some(target))) => target.clone(),
            Some((_, None)) => continue,
            None => attr.to_uppercase(),
        };
        // Each source attribute appears once per record, so an occupied
        // target means a *different* source attribute already landed there
        // — distinct data that an overwrite would silently discard.
        let (target, collided) = decollide(target, |c| out.get(c).is_some());
        collisions += usize::from(collided);
        out.set(target, value.clone());
    }
    (out, collisions)
}

impl PipelineStage for SchemaIntegrationStage {
    fn name(&self) -> &'static str {
        stage_names::SCHEMA_INTEGRATION
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let (mut sources, mut auto_accepted, mut human, mut new_attrs) = (0, 0, 0, 0);
        let mut case_collisions = 0;
        for source in std::mem::take(&mut ctx.pending_sources) {
            // 1. Profile and integrate the schema.
            let schema =
                SourceSchema::profile_records(source.id, &source.name, &source.records);
            let report = ctx.integrator.integrate(&schema);

            // 2. Build the source-attr → canonical-name mapping from the
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

            // De-collide targets once per *source*, not per record: every
            // record of the source must send a given source attribute to
            // the same global column, or downstream truth discovery would
            // vote over columns mixing two semantically different
            // attributes. First mapping entry keeps the canonical
            // spelling; later colliders get deterministic `__N` suffixes.
            let mut used: Vec<String> = Vec::new();
            for (_, target) in mapping.iter_mut() {
                let Some(t) = target.take() else { continue };
                let (t, collided) = decollide(t, |c| used.iter().any(|u| u == c));
                case_collisions += usize::from(collided);
                used.push(t.clone());
                *target = Some(t);
            }

            // 3. Map records onto the global schema, in parallel.
            let results: Vec<(Record, usize)> =
                source.records.par_iter().map(|r| map_record(r, &mapping)).collect();
            let mut mapped = Vec::with_capacity(results.len());
            for (record, collisions) in results {
                case_collisions += collisions;
                mapped.push(record);
            }

            sources += 1;
            auto_accepted += report.auto_accepted();
            human += report.human_interventions();
            new_attrs += report.new_attributes();
            ctx.integration_reports.push((source.name.clone(), report));
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
/// Sources clean concurrently across the rayon team (per-source engines,
/// no shared mutable state) and each source's batch lands in storage
/// through the shard-batched `insert_many` path.
#[derive(Debug, Default)]
pub struct CleaningStage;

impl PipelineStage for CleaningStage {
    fn name(&self) -> &'static str {
        stage_names::CLEANING
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let mut jobs = std::mem::take(&mut ctx.mapped_sources);
        let reports = clean_sources_parallel(&mut jobs, |_| {
            CleaningEngine::broadway(
                CHEAPEST_PRICE,
                FIRST,
                &[SHOW_NAME, THEATER, PERFORMANCE],
            )
        });

        let (mut records, mut nulls, mut transformed) = (0, 0, 0);
        for (_, r) in &reports {
            records += r.records;
            nulls += r.nulls_canonicalized;
            transformed += r.values_transformed;
        }
        let sources = reports.len();
        ctx.cleaning_reports.extend(reports);

        // Persist into the global-records collection, batched per source.
        // Text-only runs clean nothing — leave the collection uncreated so
        // store listings/stats only ever show collections with a reason to
        // exist (matching the pre-staged behavior).
        let mut storage = None;
        if !jobs.is_empty() {
            let col = ctx
                .store
                .collection_or_create(GLOBAL_RECORDS_COLLECTION, ctx.config.collection_config())?;
            for (_, cleaned) in jobs {
                let docs: Vec<datatamer_model::Document> =
                    cleaned.par_iter().map(record_to_doc).collect();
                col.insert_many(docs.iter())?;
                ctx.structured_records.extend(cleaned);
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
/// Structured records come first so source-priority conflict resolution
/// favours the curated sources downstream.
///
/// Grouping dispatches on a [`GroupingStrategy`]: the classic
/// canonical-name scan, or similarity-based blocked ER (blocking →
/// rayon-parallel pair scoring → union-find) for fuzzy duplicates the name
/// key cannot reach. The default stage groups under the context's
/// configured strategy ([`DataTamerConfig::grouping`]), which is what
/// [`crate::DataTamer::run`] uses; [`EntityConsolidationStage::with_strategy`]
/// names one explicitly for a hand-assembled stage list. Blocked ER is
/// one ingest of the resident engine, which the stage leaves in the
/// context for the next [`crate::DataTamer::consolidate_delta`] to adopt
/// instead of consolidating the same corpus again.
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
        let mut input = Vec::with_capacity(
            ctx.structured_records.len() + ctx.text_show_records.len(),
        );
        input.extend(ctx.structured_records.iter().cloned());
        input.extend(ctx.text_show_records.iter().cloned());

        let threshold = ctx.config().fusion_threshold;
        let strategy = self.strategy.as_ref().unwrap_or(&ctx.config.grouping);
        let (groups, blocking) = match strategy {
            GroupingStrategy::BlockedEr(config) => {
                let (consolidator, groups, report) = blocked_er(&input, config);
                ctx.staged_er = Some(StagedEr {
                    consolidator,
                    structured: ctx.structured_records.len(),
                    text: ctx.text_show_records.len(),
                    installed_revision: None,
                });
                (groups, report)
            }
            canonical => {
                let grouped = canonical.groups_with_report(&input, threshold);
                ctx.staged_er = None;
                grouped
            }
        };

        let multi = groups.iter().filter(|(_, m)| m.len() > 1).count();
        let largest = groups.iter().map(|(_, m)| m.len()).max().unwrap_or(0);
        let report = StageReport::EntityConsolidation {
            records: input.len(),
            groups: groups.len(),
            multi_member_groups: multi,
            largest_group: largest,
            blocking,
            delta: None,
        };
        ctx.fusion_input = input;
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
        // Consume the consolidation snapshot: it exists only to hand the
        // grouped records from the previous stage to this one, and keeping
        // a full record clone alive in the context would double resident
        // memory at scale.
        let input = std::mem::take(&mut ctx.fusion_input);
        let fused = merge_groups_with(&input, &ctx.fusion_groups, registry);
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
    use datatamer_model::{RecordId, SourceId, Value};

    #[test]
    fn map_record_preserves_case_colliding_unmapped_attributes() {
        // Three distinct source attributes collapsing to one upper-cased
        // spelling: first-wins keeps the canonical name, later arrivals
        // get deterministic suffixes, and every value survives.
        let r = Record::from_pairs(
            SourceId(0),
            RecordId(0),
            vec![
                ("price", Value::from("$27")),
                ("Price", Value::from("$30")),
                ("PRICE", Value::from("$45")),
            ],
        );
        let (mapped, collisions) = map_record(&r, &[]);
        assert_eq!(collisions, 2);
        assert_eq!(mapped.get_text("PRICE").as_deref(), Some("$27"));
        assert_eq!(mapped.get_text("PRICE__2").as_deref(), Some("$30"));
        assert_eq!(mapped.get_text("PRICE__3").as_deref(), Some("$45"));
        assert_eq!(mapped.len(), 3, "nothing silently dropped");
    }

    #[test]
    fn map_record_suffixes_mapped_target_collisions_and_drops_ignored() {
        // A mapped attribute and an unmapped case-variant landing on the
        // same canonical target must both survive, in record field order.
        let r = Record::from_pairs(
            SourceId(0),
            RecordId(0),
            vec![("cost", Value::from("$10")), ("PRICE", Value::from("$20"))],
        );
        let mapping = vec![("cost".to_owned(), Some("PRICE".to_owned()))];
        let (mapped, collisions) = map_record(&r, &mapping);
        assert_eq!(collisions, 1);
        assert_eq!(mapped.get_text("PRICE").as_deref(), Some("$10"));
        assert_eq!(mapped.get_text("PRICE__2").as_deref(), Some("$20"));

        let (dropped, collisions) = map_record(&r, &[("cost".to_owned(), None)]);
        assert_eq!(collisions, 0, "an ignored attribute vacates its target");
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
        let (mapped, collisions) = map_record(&r, &[]);
        assert_eq!(collisions, 0);
        assert_eq!(mapped.get_text("SHOW").as_deref(), Some("Matilda"));
        assert_eq!(mapped.get_text("PRICE").as_deref(), Some("$27"));
    }
}
