//! The DATA TAMER facade over the staged pipeline.
//!
//! ```text
//! structured sources ──┐
//!                      ├─ ingest → schema integration → cleaning ─┐
//! web text ─ parser ───┘                                          ├─ entity
//!            (instance/entity collections, show records) ─────────┤ consolidation
//!                                                                 ▼
//!                                                              fusion → queries
//! ```
//!
//! Every phase above is a [`crate::stage::PipelineStage`] executed over a
//! [`crate::stage::PipelineContext`] (which owns the `Store`, `Catalog`,
//! global schema, and per-stage reports). [`DataTamer::run`] is the one
//! entry point: it executes the whole canonical sequence over a
//! [`PipelinePlan`], and sources that arrive over time are further runs
//! over the same context. [`DataTamer::consolidate_delta`] consolidates
//! record batches into the context's one resident ER state, and the
//! batches it accepts join the context's corpus.
//! Hot paths — record mapping, per-source cleaning, batched shard
//! inserts, group merging — are rayon-parallel with deterministic output
//! at any thread count.

use std::sync::Arc;

use datatamer_clean::CleaningReport;
use datatamer_entity::incremental::DeltaReport;
use datatamer_model::Record;
use datatamer_storage::{Collection, CollectionStats, Store};
use datatamer_text::normalize::canonical_name;
use datatamer_text::DomainParser;

use crate::catalog::Catalog;
use crate::config::DataTamerConfig;
use crate::fusion::FusedEntity;
use crate::ingest::IngestStats;
use crate::query::{entity_type_histogram, top_discussed_award_winning, DiscussedShow};
use crate::resident::{self, Journal};
use crate::stage::{
    run_stages, CleaningStage, EntityConsolidationStage, FusionStage, IngestStage,
    PipelineContext, PipelineStage, SchemaIntegrationStage, TextIngestJob,
};

/// Name of the collection holding integrated (mapped + cleaned) records.
pub const GLOBAL_RECORDS_COLLECTION: &str = "global_records";

/// Inputs for one full pipeline run (see [`DataTamer::run`]). How the run
/// groups and fuses them is the system's configuration
/// ([`DataTamerConfig::grouping`], [`DataTamerConfig::fusion_resolvers`]).
#[derive(Default)]
pub struct PipelinePlan<'a> {
    /// Structured sources: `(name, records)`.
    pub structured: Vec<(String, Vec<Record>)>,
    /// Web text to ingest through the domain parser.
    pub text: Option<TextIngestJob<'a>>,
}

impl<'a> PipelinePlan<'a> {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a structured source.
    pub fn structured(mut self, name: impl Into<String>, records: &[Record]) -> Self {
        self.structured.push((name.into(), records.to_vec()));
        self
    }

    /// Set the web-text job.
    pub fn webtext(mut self, parser: DomainParser, fragments: Vec<(&'a str, &'a str)>) -> Self {
        self.text = Some(TextIngestJob { parser, fragments });
        self
    }
}

/// The Data Tamer system: a [`PipelineContext`] plus stage assembly.
pub struct DataTamer {
    ctx: PipelineContext,
    /// The accepted-batch write-ahead log, opened by the first
    /// [`DataTamer::consolidate_delta`].
    journal: Option<Journal>,
}

impl DataTamer {
    /// Build a system from a configuration.
    pub fn new(config: DataTamerConfig) -> Self {
        DataTamer { ctx: PipelineContext::new(config), journal: None }
    }

    /// The staged-pipeline context (stage reports, run log, record state).
    pub fn context(&self) -> &PipelineContext {
        &self.ctx
    }

    /// The underlying store (stats, ad-hoc queries).
    pub fn store(&self) -> &Store {
        &self.ctx.store
    }

    /// The source catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.ctx.catalog
    }

    /// The growing global schema.
    pub fn global_schema(&self) -> &datatamer_schema::GlobalSchema {
        self.ctx.integrator.global()
    }

    /// Cleaning reports per registered source.
    pub fn cleaning_reports(&self) -> &[(String, CleaningReport)] {
        &self.ctx.cleaning_reports
    }

    /// Text ingestion statistics.
    pub fn text_stats(&self) -> &IngestStats {
        &self.ctx.text_stats
    }

    /// Integrated structured records (canonical attribute spellings).
    pub fn structured_records(&self) -> &[Record] {
        &self.ctx.structured_records
    }

    /// Text-derived show records.
    pub fn text_show_records(&self) -> &[Record] {
        &self.ctx.text_show_records
    }

    /// Run the full canonical pipeline — ingest → schema integration →
    /// cleaning → entity consolidation → fusion — over a plan, returning
    /// the fused entities. Each stage's report lands in the context
    /// ([`PipelineContext::report_of`]).
    ///
    /// This is the only way sources enter the system. Sources that arrive
    /// over time are further runs: sources from earlier runs stay in the
    /// global schema and take part in consolidation and fusion, as do the
    /// delta batches [`DataTamer::consolidate_delta`] accepted, which are
    /// the last segment of the corpus. A run consolidates and fuses that
    /// whole corpus once; under blocked ER its consolidation stage leaves
    /// the resident ER state the next delta extends.
    pub fn run(&mut self, plan: PipelinePlan<'_>) -> datatamer_model::Result<&[FusedEntity]> {
        let mut stages: Vec<Box<dyn PipelineStage + '_>> = vec![
            Box::new(IngestStage::new(plan.structured, plan.text)),
            Box::new(SchemaIntegrationStage::auto()),
            Box::new(CleaningStage),
            Box::<EntityConsolidationStage>::default(),
            Box::<FusionStage>::default(),
        ];
        run_stages(&mut self.ctx, &mut stages)?;
        // The fusion stage just resolved `fused` from the resident ER
        // state's clusters, so the next delta may reuse those composites.
        if let Some(er) = &mut self.ctx.er {
            er.installed_revision = Some(self.ctx.fused_revision);
        }
        Ok(&self.ctx.fused)
    }

    /// Consolidate a delta batch against resident ER state — work scales
    /// with the batch, not the corpus.
    ///
    /// Requires the configured grouping strategy
    /// ([`DataTamerConfig::grouping`]) to be
    /// [`GroupingStrategy::BlockedEr`](crate::fusion::GroupingStrategy::BlockedEr)
    /// (the canonical-name scan has no resident pairwise state to be
    /// incremental against); anything else is a
    /// [`DtError::Config`](datatamer_model::DtError::Config).
    ///
    /// The batch joins the context's corpus as its last segment and is
    /// ingested into the resident ER state the latest blocked-ER run (or
    /// delta) left, through the
    /// [`datatamer_entity::incremental::IncrementalConsolidator`] — only
    /// buckets the batch touched are probed, never old-vs-old. When that
    /// state does not hold the whole corpus (no run consolidated it yet,
    /// or records joined it since without being consolidated), a fresh
    /// consolidator ingests the whole corpus first. Fused entities then
    /// re-resolve **only for clusters whose membership changed** since the
    /// installed composites: the others are moved over from the context's
    /// previous `fused` vector, the only copy kept. Routing and grouping
    /// come from the configuration, which is fixed for the life of the
    /// system, so a composite never predates them. `fusion_groups` /
    /// `fused` are replaced, and the delta is logged as a consolidation +
    /// fusion stage run pair carrying the [`DeltaReport`] (consecutive
    /// deltas overwrite each other's pair, so the run log does not grow
    /// with them).
    ///
    /// Correctness pin (`tests/incremental_equivalence.rs`, any thread
    /// count): after any interleaving of runs and delta batches, `ctx.fused`
    /// is byte-identical to a from-scratch run over the concatenated corpus.
    ///
    /// A later [`DataTamer::run`] consolidates the accepted batches with
    /// everything else in its one ingest; nothing is replayed.
    ///
    /// With a [`crate::DeltaLogConfig`] the batch is logged before it is
    /// consolidated, and the first call of a process replays the log ahead
    /// of its batch; a persistence failure is returned as `Err` *after*
    /// the batch is consolidated and installed — do not re-submit it.
    pub fn consolidate_delta(&mut self, batch: &[Record]) -> datatamer_model::Result<DeltaReport> {
        resident::consolidate_delta(&mut self.ctx, &mut self.journal, batch)
    }

    /// Look up one show in a fused entity set by (canonicalised) name.
    pub fn lookup<'a>(
        fused: &'a [FusedEntity],
        show: &str,
    ) -> Option<&'a FusedEntity> {
        let key = canonical_name(show);
        fused.iter().find(|f| f.key == key)
    }

    /// Table IV: top-k most discussed award-winning shows from web text.
    ///
    /// Bulk reads surface storage errors instead of panicking — an
    /// unreadable shard yields `Err`, never a partial answer.
    pub fn top_discussed(&self, k: usize) -> datatamer_model::Result<Vec<DiscussedShow>> {
        match self.ctx.store.collection(crate::ingest::INSTANCE_COLLECTION) {
            Some(c) => top_discussed_award_winning(&c, k),
            None => Ok(Vec::new()),
        }
    }

    /// Table III: entity counts by type.
    pub fn entity_histogram(&self) -> datatamer_model::Result<Vec<(String, u64)>> {
        match self.ctx.store.collection(crate::ingest::ENTITY_COLLECTION) {
            Some(c) => entity_type_histogram(&c),
            None => Ok(Vec::new()),
        }
    }

    /// Tables I/II: stats of a named collection (`Ok(None)` when it does
    /// not exist). Each call scans the collection once to measure its
    /// index sizes.
    pub fn collection_stats(&self, name: &str) -> datatamer_model::Result<Option<CollectionStats>> {
        self.ctx.store.stats(name)
    }

    /// Handle to a collection.
    pub fn collection(&self, name: &str) -> Option<Arc<Collection>> {
        self.ctx.store.collection(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{
        BlockedErConfig, GroupingReport, GroupingStrategy, CHEAPEST_PRICE, SHOW_NAME, TEXT_FEED,
    };
    use crate::stage::{stage_names, StageReport};
    use datatamer_model::{RecordId, SourceId, Value};
    use datatamer_text::{EntityType, Gazetteer};

    fn small_config() -> DataTamerConfig {
        DataTamerConfig {
            extent_size: 64 * 1024,
            shards: 2,
            ..Default::default()
        }
    }

    fn structured_rows(src: u32, show_attr: &str, price_attr: &str) -> Vec<Record> {
        let rows = [("Matilda", "$27"), ("Wicked", "€60"), ("Annie", "$45")];
        rows.iter()
            .enumerate()
            .map(|(i, (s, p))| {
                Record::from_pairs(
                    SourceId(src),
                    RecordId(i as u64),
                    vec![(show_attr, Value::from(*s)), (price_attr, Value::from(*p))],
                )
            })
            .collect()
    }

    fn parser() -> DomainParser {
        let mut g = Gazetteer::new();
        for s in ["Matilda", "Wicked", "Annie"] {
            g.add(s, EntityType::Movie, 0.95);
        }
        g.add("London", EntityType::City, 0.9);
        DomainParser::with_gazetteer(g)
    }

    #[test]
    fn structured_sources_are_mapped_cleaned_and_stored() {
        let mut dt = DataTamer::new(small_config());
        let s1 = structured_rows(0, "show_name", "cheapest_price");
        dt.run(PipelinePlan::new().structured("s1", &s1)).unwrap();
        dt.run(PipelinePlan::new().structured("s2", &structured_rows(1, "title", "cost"))).unwrap();
        let [(_, r1), (_, r2)] = &dt.context().integration_reports[..] else {
            panic!("one integration report per source");
        };
        assert_eq!(r1.new_attributes(), 2);
        assert_eq!(dt.global_schema().len(), 2, "{:?}", dt.global_schema().attribute_names());
        assert!(r2.auto_accepted() + r2.human_interventions() == 2);

        // Records are canonically renamed and cleaned (EUR→USD).
        let recs = dt.structured_records();
        assert_eq!(recs.len(), 6);
        assert!(recs.iter().all(|r| r.get(SHOW_NAME).is_some()));
        let wicked = recs.iter().find(|r| r.get_text(SHOW_NAME).as_deref() == Some("Wicked")).unwrap();
        assert_eq!(wicked.get_text(CHEAPEST_PRICE).as_deref(), Some("$78"), "€60 × 1.30");
        // Stored in the global-records collection.
        let col = dt.collection(GLOBAL_RECORDS_COLLECTION).unwrap();
        assert_eq!(col.len(), 6);
        assert_eq!(dt.cleaning_reports().len(), 2);
        assert_eq!(dt.catalog().len(), 2);
    }

    #[test]
    fn webtext_ingest_and_table_v_vi_flow() {
        let mut dt = DataTamer::new(small_config());
        let fragments = vec![
            (
                "And Matilda an award-winning import from London, grossed 960,998, or 93 percent of the maximum.",
                "news",
            ),
            ("Wicked still sells out nightly on Broadway", "blog"),
        ];
        let text_only = dt.run(PipelinePlan::new().webtext(parser(), fragments)).unwrap();

        // Table V: text-only lookup has the feed but no price.
        let matilda = DataTamer::lookup(text_only, "Matilda").unwrap();
        assert!(matilda.record.get_text(TEXT_FEED).unwrap().contains("960,998"));
        assert!(matilda.record.get(CHEAPEST_PRICE).is_none());
        assert_eq!(dt.text_stats().instances, 2);
        assert_eq!(dt.text_stats().show_records, 2);

        // Table VI: FTABLES arrive in a second run, and the lookup is enriched.
        let ftable = structured_rows(0, "show_name", "cheapest_price");
        let fused = dt.run(PipelinePlan::new().structured("ftable", &ftable)).unwrap();
        let matilda = DataTamer::lookup(fused, "Matilda").unwrap();
        assert_eq!(matilda.record.get_text(CHEAPEST_PRICE).as_deref(), Some("$27"));
        assert!(matilda.record.get_text(TEXT_FEED).unwrap().contains("960,998"));
        assert_eq!(matilda.member_count, 2);
    }

    #[test]
    fn run_executes_the_canonical_stage_list_once_in_order() {
        let mut dt = DataTamer::new(small_config());
        let plan = PipelinePlan::new()
            .structured("s1", &structured_rows(0, "show_name", "cheapest_price"))
            .webtext(
                parser(),
                vec![("Matilda grossed 960,998 in London previews", "news")],
            );
        let fused_len = dt.run(plan).expect("pipeline runs").len();
        assert!(fused_len >= 3, "three shows plus text mentions: {fused_len}");

        let names: Vec<&str> = dt.context().runs().iter().map(|r| r.stage).collect();
        assert_eq!(names, stage_names::CANONICAL_ORDER.to_vec(), "order and multiplicity");
        for stage in stage_names::CANONICAL_ORDER {
            assert_eq!(dt.context().run_count(stage), 1, "{stage} must run exactly once");
            assert!(dt.context().report_of(stage).is_some(), "{stage} report queryable");
        }
    }

    #[test]
    fn run_reports_carry_stage_outcomes() {
        let mut dt = DataTamer::new(small_config());
        let plan = PipelinePlan::new()
            .structured("a", &structured_rows(0, "show_name", "cheapest_price"))
            .structured("b", &structured_rows(1, "title", "cost"))
            .webtext(parser(), vec![("Wicked sells out nightly", "blog")]);
        dt.run(plan).unwrap();
        let ctx = dt.context();

        match ctx.report_of(stage_names::INGEST).unwrap() {
            StageReport::Ingest { structured_sources, structured_records, text, storage } => {
                assert_eq!(*structured_sources, 2);
                assert_eq!(*structured_records, 6);
                assert_eq!(text.as_ref().unwrap().instances, 1);
                // Text ingest wrote the instance/entity collections, so the
                // stage surfaces their shard distribution.
                let names: Vec<&str> =
                    storage.iter().map(|s| s.collection.as_str()).collect();
                assert_eq!(names, vec!["instance", "entity"]);
                assert_eq!(storage[0].docs(), 1);
            }
            other => panic!("wrong report variant: {other:?}"),
        }
        match ctx.report_of(stage_names::SCHEMA_INTEGRATION).unwrap() {
            StageReport::SchemaIntegration { sources, .. } => assert_eq!(*sources, 2),
            other => panic!("wrong report variant: {other:?}"),
        }
        match ctx.report_of(stage_names::CLEANING).unwrap() {
            StageReport::Cleaning { sources, records, values_transformed, storage, .. } => {
                assert_eq!(*sources, 2);
                assert_eq!(*records, 6);
                assert!(*values_transformed >= 2, "two EUR prices converted");
                let report = storage.as_ref().expect("global records persisted");
                assert_eq!(report.collection, GLOBAL_RECORDS_COLLECTION);
                assert_eq!(report.docs(), 6);
                assert_eq!(report.shards.len(), 2, "small_config uses 2 shards");
                assert_eq!(report.flushes, 0, "memory backend never flushes");
            }
            other => panic!("wrong report variant: {other:?}"),
        }
        match ctx.report_of(stage_names::ENTITY_CONSOLIDATION).unwrap() {
            StageReport::EntityConsolidation { records, groups, multi_member_groups, .. } => {
                assert_eq!(*records, 7, "6 structured + 1 text show record");
                assert!(*groups >= 3);
                assert!(*multi_member_groups >= 1, "Wicked spans sources");
            }
            other => panic!("wrong report variant: {other:?}"),
        }
        match ctx.report_of(stage_names::FUSION).unwrap() {
            StageReport::Fusion { entities, members } => {
                assert_eq!(*entities, ctx.fusion_groups.len());
                assert_eq!(*members, 7);
            }
            other => panic!("wrong report variant: {other:?}"),
        }
    }

    #[test]
    fn incremental_calls_append_stage_runs() {
        let mut dt = DataTamer::new(small_config());
        let s1 = structured_rows(0, "show_name", "cheapest_price");
        dt.run(PipelinePlan::new().structured("s1", &s1)).unwrap();
        dt.run(PipelinePlan::new().webtext(parser(), vec![("Annie tickets on sale", "news")]))
            .unwrap();
        let ctx = dt.context();
        for stage in stage_names::CANONICAL_ORDER {
            assert_eq!(ctx.run_count(stage), 2, "{stage} runs once per arrival");
        }
        // The second run fuses the whole corpus, not just its own input.
        let fusion = ctx.report_of(stage_names::FUSION);
        assert!(matches!(fusion, Some(StageReport::Fusion { members: 4, .. })), "{fusion:?}");
    }

    #[test]
    fn configured_resolver_routing_reaches_the_fusion_stage() {
        use crate::fusion::{RegistryConfig, ResolverSpec};
        // The provenance-later record (id 1) carries the HIGHER price, so
        // LatestWins and the broadway NumericMin must disagree.
        let rows = vec![
            Record::from_pairs(
                SourceId(0),
                RecordId(0),
                vec![("show_name", Value::from("Wicked")), ("cheapest_price", Value::from("$45"))],
            ),
            Record::from_pairs(
                SourceId(0),
                RecordId(1),
                vec![("show_name", Value::from("Wicked")), ("cheapest_price", Value::from("$99"))],
            ),
        ];

        // Config default (broadway): numeric minimum.
        let mut dt = DataTamer::new(small_config());
        dt.run(PipelinePlan::new().structured("s1", &rows)).unwrap();
        assert_eq!(
            dt.context().fused[0].record.get_text(CHEAPEST_PRICE).as_deref(),
            Some("$45")
        );

        // Configured LatestWins: the freshest record's price survives instead.
        let mut config = small_config();
        config.fusion_resolvers =
            RegistryConfig::broadway().with(CHEAPEST_PRICE, ResolverSpec::LatestWins);
        let mut dt = DataTamer::new(config);
        dt.run(PipelinePlan::new().structured("s1", &rows)).unwrap();
        assert_eq!(
            dt.context().fused[0].record.get_text(CHEAPEST_PRICE).as_deref(),
            Some("$99")
        );
    }

    #[test]
    fn default_fusion_stage_reads_the_contexts_routing() {
        use crate::fusion::{group_records, RegistryConfig, ResolverSpec};
        use crate::stage::FusionStage;
        // A manually assembled stage list with FusionStage::default() must
        // fuse under the context's configured routing.
        let mut config = small_config();
        config.fusion_resolvers =
            RegistryConfig::broadway().with(CHEAPEST_PRICE, ResolverSpec::LatestWins);
        let mut ctx = crate::stage::PipelineContext::new(config);
        let records = vec![
            Record::from_pairs(
                SourceId(0),
                RecordId(0),
                vec![(SHOW_NAME, Value::from("Wicked")), (CHEAPEST_PRICE, Value::from("$45"))],
            ),
            Record::from_pairs(
                SourceId(0),
                RecordId(1),
                vec![(SHOW_NAME, Value::from("Wicked")), (CHEAPEST_PRICE, Value::from("$99"))],
            ),
        ];
        ctx.fusion_groups = group_records(&records, 0.88);
        ctx.structured_records = records;
        let mut stages: Vec<Box<dyn crate::stage::PipelineStage + '_>> =
            vec![Box::<FusionStage>::default()];
        crate::stage::run_stages(&mut ctx, &mut stages).unwrap();
        assert_eq!(
            ctx.fused[0].record.get_text(CHEAPEST_PRICE).as_deref(),
            Some("$99"),
            "configured routing (LatestWins), not the broadway default"
        );
    }

    #[test]
    fn fusion_stage_runs_again_over_the_same_groups() {
        // Fusion reads the corpus in place and consumes nothing: after a
        // full stage list, running the fusion stage again over the same
        // groups yields byte-identical composites, under either grouping.
        let blocked = GroupingStrategy::BlockedEr(BlockedErConfig::default());
        for grouping in [GroupingStrategy::CanonicalName, blocked] {
            let rows = structured_rows(0, "show_name", "cheapest_price");
            let mut ctx = PipelineContext::new(DataTamerConfig { grouping, ..small_config() });
            let text = TextIngestJob {
                parser: parser(),
                fragments: vec![("Matilda grossed 960,998 in London previews", "news")],
            };
            let mut stages: Vec<Box<dyn PipelineStage + '_>> = vec![
                Box::new(IngestStage::new(vec![("s1".to_owned(), rows)], Some(text))),
                Box::new(SchemaIntegrationStage::auto()),
                Box::new(CleaningStage),
                Box::<EntityConsolidationStage>::default(),
                Box::<FusionStage>::default(),
            ];
            run_stages(&mut ctx, &mut stages).unwrap();
            let first = format!("{:?}", ctx.fused);
            assert!(first.contains("960,998"), "the text record took part: {first}");

            let mut again: Vec<Box<dyn PipelineStage + '_>> = vec![Box::<FusionStage>::default()];
            run_stages(&mut ctx, &mut again).unwrap();
            assert_eq!(format!("{:?}", ctx.fused), first);
            assert_eq!(ctx.run_count(stage_names::FUSION), 2);
        }
    }

    #[test]
    fn configured_blocked_er_grouping_reaches_the_stage_and_fuse() {
        // Word-order damaged duplicates: Jaro-Winkler on the canonical
        // names is far under the fusion threshold, so the canonical-name
        // scan splits them — blocked ER's token-aware record similarity
        // consolidates them.
        let rows = vec![
            Record::from_pairs(
                SourceId(0),
                RecordId(0),
                vec![
                    ("show_name", Value::from("Walking Dead")),
                    ("cheapest_price", Value::from("$45")),
                ],
            ),
            Record::from_pairs(
                SourceId(0),
                RecordId(1),
                vec![
                    ("show_name", Value::from("Dead Walking")),
                    ("cheapest_price", Value::from("$45")),
                ],
            ),
        ];

        // Default canonical grouping: the pair stays split.
        let mut dt = DataTamer::new(small_config());
        dt.run(PipelinePlan::new().structured("s1", &rows)).unwrap();
        assert_eq!(dt.context().fused.len(), 2);

        // Configured blocked ER: one consolidated entity, with the blocking
        // health surfaced in the stage report.
        let mut config = small_config();
        config.grouping = GroupingStrategy::BlockedEr(BlockedErConfig::default());
        let mut dt = DataTamer::new(config);
        dt.run(PipelinePlan::new().structured("s1", &rows)).unwrap();
        assert_eq!(dt.context().fused.len(), 1);
        assert_eq!(dt.context().fused[0].member_count, 2);
        match dt.context().report_of(stage_names::ENTITY_CONSOLIDATION).unwrap() {
            StageReport::EntityConsolidation { blocking, .. } => {
                assert!(blocking.candidate_pairs >= 1);
                assert_eq!(blocking.accepted_pairs, 1);
                assert_eq!(blocking.degraded_buckets, 0);
            }
            other => panic!("wrong report variant: {other:?}"),
        }
    }

    #[test]
    fn default_consolidation_stage_reads_the_contexts_grouping() {
        use crate::stage::EntityConsolidationStage;
        // A manually assembled stage list with the default stage must
        // group under the context's configured strategy (mirroring
        // FusionStage's relationship to the resolver routing).
        let mut config = small_config();
        config.grouping = GroupingStrategy::BlockedEr(BlockedErConfig::default());
        let mut ctx = crate::stage::PipelineContext::new(config);
        ctx.structured_records = vec![
            Record::from_pairs(
                SourceId(0),
                RecordId(0),
                vec![
                    (SHOW_NAME, Value::from("Walking Dead")),
                    (CHEAPEST_PRICE, Value::from("$45")),
                ],
            ),
            Record::from_pairs(
                SourceId(0),
                RecordId(1),
                vec![
                    (SHOW_NAME, Value::from("Dead Walking")),
                    (CHEAPEST_PRICE, Value::from("$45")),
                ],
            ),
        ];
        let mut stages: Vec<Box<dyn crate::stage::PipelineStage + '_>> =
            vec![Box::<EntityConsolidationStage>::default()];
        crate::stage::run_stages(&mut ctx, &mut stages).unwrap();
        assert_eq!(
            ctx.fusion_groups.len(),
            1,
            "configured grouping (BlockedEr), not the canonical-name default: {:?}",
            ctx.fusion_groups
        );
        assert_eq!(ctx.fusion_groups[0].1, vec![0, 1]);
    }

    #[test]
    fn consolidate_delta_requires_blocked_er_grouping() {
        let mut dt = DataTamer::new(small_config());
        let err = dt.consolidate_delta(&[]).unwrap_err();
        assert!(matches!(err, datatamer_model::DtError::Config(_)), "{err:?}");
    }

    #[test]
    fn inverted_integration_thresholds_fail_the_run() {
        let mut config = small_config();
        config.integration.accept_threshold = 0.3;
        config.integration.escalate_threshold = 0.6;
        let mut dt = DataTamer::new(config);
        let rows = structured_rows(0, "show_name", "cheapest_price");
        let err = dt.run(PipelinePlan::new().structured("s1", &rows)).unwrap_err();
        assert!(matches!(err, datatamer_model::DtError::Config(_)), "{err:?}");
        assert!(dt.structured_records().is_empty(), "nothing was integrated");
    }

    /// A record already in canonical shape: schema mapping and cleaning are
    /// identities for it, so raw delta batches and staged registration
    /// produce byte-identical corpus records.
    fn show(id: u64, name: &str, price: &str) -> Record {
        Record::from_pairs(
            SourceId(0),
            RecordId(id),
            vec![(SHOW_NAME, Value::from(name)), (CHEAPEST_PRICE, Value::from(price))],
        )
    }

    fn fingerprints(fused: &[FusedEntity]) -> Vec<String> {
        fused
            .iter()
            .map(|f| format!("{}|{}|{:?}|{:?}", f.key, f.member_count, f.confidence, f.record))
            .collect()
    }

    #[test]
    fn consolidate_delta_matches_full_rebuild_and_reuses_clean_clusters() {
        let mut config = small_config();
        config.grouping = GroupingStrategy::BlockedEr(BlockedErConfig::default());

        // Token-unique names: every record blocks alone, so the corpus
        // settles into one cluster per distinct name and a delta can only
        // dirty the cluster it duplicates.
        let prefix: Vec<Record> =
            (0..20).map(|i| show(i, &format!("Unique{i} Show{i}"), "$10")).collect();
        let batch1 = vec![show(100, "Unique3 Show3", "$10"), show(101, "Brand New", "$55")];
        let batch2 = vec![show(200, "Unique7 Show7", "$10")];

        let mut inc = DataTamer::new(config.clone());
        inc.run(PipelinePlan::new().structured("s1", &prefix)).unwrap();
        let runs_before = inc.context().runs().len();
        let d1 = inc.consolidate_delta(&batch1).unwrap();
        let d2 = inc.consolidate_delta(&batch2).unwrap();

        // Delta accounting: the second batch touched one bucket-cluster,
        // everything else carried over (clusters AND fused entities).
        assert_eq!(d1.batch_records, 2);
        assert_eq!(d2.total_records, 23);
        assert!(d2.dirty_clusters >= 1, "{d2:?}");
        assert!(d2.reused_clusters >= 19, "{d2:?}");
        assert!(d2.reused_context_fraction > 0.9, "{d2:?}");

        // The deltas log one consolidation + fusion pair between them (the
        // second overwrote the first's), carrying the latest report.
        assert_eq!(inc.context().runs().len(), runs_before + 2);
        match inc.context().report_of(stage_names::ENTITY_CONSOLIDATION).unwrap() {
            StageReport::EntityConsolidation { delta, records, .. } => {
                assert_eq!(*delta, Some(d2));
                assert_eq!(*records, 23);
            }
            other => panic!("wrong report variant: {other:?}"),
        }

        // The pin: identical fused output to a from-scratch run over the
        // concatenated corpus.
        let mut all = prefix.clone();
        all.extend(batch1);
        all.extend(batch2);
        let mut full = DataTamer::new(config);
        full.run(PipelinePlan::new().structured("s1", &all)).unwrap();
        assert_eq!(fingerprints(&inc.context().fused), fingerprints(&full.context().fused));
        assert_eq!(inc.context().fusion_groups, full.context().fusion_groups);
    }

    #[test]
    fn the_first_delta_extends_the_runs_er_state() {
        let mut config = small_config();
        let corpus: Vec<Record> =
            (0..8).map(|i| show(i, &format!("Unique{i} Show{i}"), "$10")).collect();

        // A canonical-name run leaves no ER state behind.
        let mut dt = DataTamer::new(config.clone());
        dt.run(PipelinePlan::new().structured("s1", &corpus)).unwrap();
        assert!(dt.ctx.er.is_none());

        config.grouping = GroupingStrategy::BlockedEr(BlockedErConfig::default());
        let mut dt = DataTamer::new(config);
        dt.run(PipelinePlan::new().structured("s1", &corpus)).unwrap();
        let er = dt.ctx.er.as_ref().expect("a blocked-ER run leaves its state");
        assert_eq!(er.installed_revision, Some(dt.ctx.fused_revision));
        assert_eq!(er.consolidator.len(), 8);

        // The delta extends it: nothing is consolidated again, and every
        // composite the run installed is carried over unresolved.
        let d = dt.consolidate_delta(&[]).unwrap();
        let er = dt.ctx.er.as_ref().expect("the delta keeps the state");
        assert_eq!(er.installed_revision, Some(dt.ctx.fused_revision));
        assert_eq!(er.consolidator.len(), 8);
        assert_eq!((d.batch_records, d.total_records, d.candidate_pairs), (0, 8, 0));
        assert_eq!(dt.ctx.fused_changed, Some(vec![false; 8]));
    }

    #[test]
    fn empty_deltas_do_not_grow_the_run_log() {
        let mut config = small_config();
        config.grouping = GroupingStrategy::BlockedEr(BlockedErConfig::default());
        let mut dt = DataTamer::new(config);
        dt.run(PipelinePlan::new().structured("s1", &[show(0, "Matilda", "$27")])).unwrap();
        dt.consolidate_delta(&[]).unwrap();
        let runs = dt.context().runs().len();
        for _ in 0..100 {
            dt.consolidate_delta(&[]).unwrap();
        }
        assert_eq!(dt.context().runs().len(), runs);
        // A staged run still appends, and the delta after it starts a new pair.
        dt.run(PipelinePlan::new()).unwrap();
        dt.consolidate_delta(&[]).unwrap();
        assert_eq!(dt.context().runs().len(), runs + 5 + 2);
    }

    #[test]
    fn a_run_after_a_delta_consolidates_its_batch_with_the_new_source() {
        let mut config = small_config();
        config.grouping = GroupingStrategy::BlockedEr(BlockedErConfig::default());

        let s1: Vec<Record> =
            (0..6).map(|i| show(i, &format!("Alphashow{i} One{i}"), "$10")).collect();
        let s2: Vec<Record> =
            (0..4).map(|i| show(50 + i, &format!("Betashow{i} Two{i}"), "$20")).collect();
        let batch = vec![show(100, "Alphashow2 One2", "$10")];

        let mut inc = DataTamer::new(config.clone());
        inc.run(PipelinePlan::new().structured("s1", &s1)).unwrap();
        inc.consolidate_delta(&batch).unwrap();
        // A new structured source arrives mid-stream: the accepted batch
        // is part of the context's corpus, so the run consolidates it with
        // both sources in one ingest.
        inc.run(PipelinePlan::new().structured("s2", &s2)).unwrap();
        match inc.context().report_of(stage_names::ENTITY_CONSOLIDATION).unwrap() {
            StageReport::EntityConsolidation { records, delta, .. } => {
                assert_eq!((*records, delta.is_none()), (11, true), "s1 + s2 + the delta");
            }
            other => panic!("wrong report variant: {other:?}"),
        }
        let batch2 = vec![show(101, "Betashow1 Two1", "$20")];
        let d = inc.consolidate_delta(&batch2).unwrap();
        assert_eq!(d.total_records, 12, "s1 + s2 + both deltas");

        let mut all = s1.clone();
        all.extend(s2);
        all.extend(batch);
        all.extend(batch2);
        let mut full = DataTamer::new(config);
        full.run(PipelinePlan::new().structured("s1", &all)).unwrap();
        assert_eq!(fingerprints(&inc.context().fused), fingerprints(&full.context().fused));
    }

    #[test]
    fn a_delta_over_a_corpus_grown_since_the_run_starts_a_fresh_consolidator() {
        let mut config = small_config();
        config.grouping = GroupingStrategy::BlockedEr(BlockedErConfig::default());
        let s1: Vec<Record> =
            (0..10).map(|i| show(i, &format!("Alphashow{i} One{i}"), "$10")).collect();
        let s2: Vec<Record> =
            (0..5).map(|i| show(50 + i, &format!("Betashow{i} Two{i}"), "$20")).collect();
        let b1 = vec![show(100, "Alphashow2 One2", "$9")];

        let mut dt = DataTamer::new(config.clone());
        dt.run(PipelinePlan::new().structured("s1", &s1)).unwrap();
        // The corpus grows through the stage prefix after the run, as a run
        // whose cleaning-stage storage write fails part way would leave it:
        // the run's ER state and composites cover s1 only, so the delta
        // consolidates s1 + s2 in a fresh consolidator and re-resolves
        // every cluster.
        let mut prefix: Vec<Box<dyn PipelineStage + '_>> = vec![
            Box::new(IngestStage::new(vec![("s2".to_owned(), s2.clone())], None)),
            Box::new(SchemaIntegrationStage),
            Box::new(CleaningStage),
        ];
        run_stages(&mut dt.ctx, &mut prefix).unwrap();
        let d = dt.consolidate_delta(&b1).unwrap();
        assert_eq!(d.total_records, 16, "{d:?}");
        let changed = dt.context().fused_changed.clone().expect("the delta path sets it");
        assert!(changed.iter().all(|&c| c), "the run's composites predate s2");

        let mut full = DataTamer::new(config);
        full.run(PipelinePlan::new().structured("s1", &[s1, s2, b1].concat())).unwrap();
        assert_eq!(fingerprints(&dt.context().fused), fingerprints(&full.context().fused));
    }

    /// A staged blocked-ER run over canonical-shape records, plus the
    /// consolidation stage's blocking counters.
    fn blocked_run(records: &[Record], accept_threshold: f64) -> (DataTamer, GroupingReport) {
        let mut config = small_config();
        config.grouping =
            GroupingStrategy::BlockedEr(BlockedErConfig { accept_threshold, ..Default::default() });
        let mut dt = DataTamer::new(config);
        dt.run(PipelinePlan::new().structured("s1", records)).unwrap();
        let report = match dt.context().report_of(stage_names::ENTITY_CONSOLIDATION) {
            Some(StageReport::EntityConsolidation { blocking, .. }) => *blocking,
            other => panic!("wrong report variant: {other:?}"),
        };
        (dt, report)
    }

    fn duplicates_sample() -> Vec<Record> {
        [("Matilda", "$27"), ("matilda", "$27"), ("Wicked", "$99"), ("WICKED", "$98"), ("Annie", "$45")]
            .iter()
            .enumerate()
            .map(|(i, (s, p))| show(i as u64, s, p))
            .collect()
    }

    fn group_members(dt: &DataTamer) -> Vec<Vec<usize>> {
        dt.context().fusion_groups.iter().map(|(_, m)| m.clone()).collect()
    }

    #[test]
    fn pipeline_clusters_duplicates() {
        let (dt, report) = blocked_run(&duplicates_sample(), 0.75);
        assert_eq!(group_members(&dt), vec![vec![0, 1], vec![2, 3], vec![4]]);
        assert_eq!(dt.context().fused.len(), 3);
        assert!(report.accepted_pairs >= 2);
        assert_eq!(report.degraded_buckets, 0, "tiny buckets never degrade");
    }

    #[test]
    fn oversized_buckets_surface_in_the_stage_report() {
        let records: Vec<Record> =
            (0..400).map(|i| show(i, &format!("common unique{i}"), "$1")).collect();
        let (_, report) = blocked_run(&records, 0.75);
        assert_eq!(report.degraded_buckets, 1, "the 'common' bucket blew the cap");
    }

    #[test]
    fn composites_carry_merged_values() {
        let (dt, _) = blocked_run(&duplicates_sample(), 0.75);
        let matilda = DataTamer::lookup(&dt.context().fused, "Matilda").unwrap();
        assert_eq!(matilda.member_count, 2);
        assert_eq!(matilda.record.get_text(CHEAPEST_PRICE).as_deref(), Some("$27"));
    }

    #[test]
    fn high_threshold_separates_everything() {
        let (dt, report) = blocked_run(&duplicates_sample(), 1.01);
        assert_eq!(group_members(&dt).len(), 5);
        assert_eq!(report.accepted_pairs, 0);
        assert!(dt.context().fused.iter().all(|f| f.member_count == 1));
    }

    #[test]
    fn empty_input() {
        let (dt, report) = blocked_run(&[], 0.75);
        assert!(dt.context().fusion_groups.is_empty());
        assert!(dt.context().fused.is_empty());
        assert_eq!(report, GroupingReport::default());
    }

    #[test]
    fn blocking_saves_comparisons_at_scale() {
        // Names share tokens only within small groups — the realistic case
        // blocking exploits (a universally shared token would defeat it).
        let records: Vec<Record> =
            (0..200).map(|i| show(i, &format!("Unique{i} Group{}", i % 7), "$10")).collect();
        let (_, report) = blocked_run(&records, 0.75);
        let all_pairs = 200 * 199 / 2;
        assert!(
            report.candidate_pairs * 2 < all_pairs,
            "blocking must prune most pairs: {} of {all_pairs}",
            report.candidate_pairs
        );
    }

    #[test]
    fn case_variant_attributes_survive_schema_integration() {
        // "price", "Price" and "PRICE" are distinct source attributes that
        // collapse to one spelling after upper-casing; every value must
        // survive, in field order, and each collision must be counted, not
        // swallowed.
        let rows: Vec<Record> = (0..3u64)
            .map(|i| {
                Record::from_pairs(
                    SourceId(0),
                    RecordId(i),
                    vec![
                        ("show_name", Value::from(format!("Show Number{i}"))),
                        ("price", Value::from("$10")),
                        ("Price", Value::from("$30")),
                        ("PRICE", Value::from("$99")),
                    ],
                )
            })
            .collect();
        let mut dt = DataTamer::new(small_config());
        dt.run(PipelinePlan::new().structured("s1", &rows)).unwrap();
        match dt.context().report_of(stage_names::SCHEMA_INTEGRATION).unwrap() {
            StageReport::SchemaIntegration { case_collisions, .. } => {
                assert_eq!(*case_collisions, 2, "two colliding attributes in the source")
            }
            other => panic!("wrong report variant: {other:?}"),
        }
        let recs = dt.structured_records();
        assert_eq!(recs.len(), 3);
        for r in recs {
            let prices: Vec<(&str, String)> = r
                .iter()
                .filter(|(k, _)| k.starts_with("PRICE"))
                .map(|(k, v)| (k, v.to_text()))
                .collect();
            assert_eq!(
                prices,
                [("PRICE", "$10".into()), ("PRICE__2", "$30".into()), ("PRICE__3", "$99".into())],
                "every case variant must survive mapping"
            );
        }
    }

    #[test]
    fn text_only_run_creates_no_global_records_collection() {
        let mut dt = DataTamer::new(small_config());
        dt.run(PipelinePlan::new().webtext(parser(), vec![("Matilda tonight", "news")]))
            .unwrap();
        assert!(
            dt.collection(GLOBAL_RECORDS_COLLECTION).is_none(),
            "no structured sources cleaned, so the collection must not exist"
        );
        assert!(dt.collection_stats(GLOBAL_RECORDS_COLLECTION).unwrap().is_none());
    }

    #[test]
    fn top_discussed_and_histogram_need_text() {
        let dt = DataTamer::new(small_config());
        assert!(dt.top_discussed(5).unwrap().is_empty());
        assert!(dt.entity_histogram().unwrap().is_empty());
        assert!(dt.collection_stats("instance").unwrap().is_none());
    }

    #[test]
    fn collection_stats_shape() {
        let mut dt = DataTamer::new(small_config());
        dt.run(PipelinePlan::new().webtext(parser(), vec![("Matilda at the theatre tonight", "news")]))
            .unwrap();
        let stats = dt.collection_stats("instance").unwrap().unwrap();
        assert_eq!(stats.ns, "dt.instance");
        assert_eq!(stats.count, 1);
        assert_eq!(stats.nindexes, 1);
        let estats = dt.collection_stats("entity").unwrap().unwrap();
        assert_eq!(estats.nindexes, 8);
        assert_eq!(dt.text_stats().instances, 1);
    }
}
