//! One function per paper table/figure; the `tables` binary runs them by
//! experiment id.

use std::time::{Duration, Instant};

use datatamer_core::fusion::{
    merge_groups_with, CHEAPEST_PRICE, FIRST, PERFORMANCE, SHOW_NAME, TEXT_FEED, THEATER,
};
use datatamer_core::ingest::INSTANCE_COLLECTION;
use datatamer_core::query::{top_discussed_award_winning, DiscussedShow};
use datatamer_core::stage::{
    run_stages, CleaningStage, EntityConsolidationStage, FusionStage, IngestStage,
    PipelineContext, PipelineStage, SchemaIntegrationStage, TextIngestJob,
};
use datatamer_core::{DataTamer, DataTamerConfig, ExpertPanelResolver};
use datatamer_corpus::truth::{labeled_pairs_with, GroundTruth, PairDifficulty, DEDUP_EVAL_TYPES};
use datatamer_corpus::{ftables, names};
use datatamer_ml::dedup::crossval_dedup;
use datatamer_ml::logreg::LogRegConfig;
use datatamer_ml::BinaryMetrics;
use datatamer_model::{AttrId, SourceSchema};
use datatamer_schema::{Decision, IntegrationConfig, SchemaIntegrator};
use datatamer_storage::CollectionStats;
use datatamer_text::EntityType;

use crate::setup::{paper, ScaledSystem};

/// T1/T2: measured stats next to the paper's numbers.
#[derive(Debug)]
pub struct StatsComparison {
    /// The measured `db.<coll>.stats()`.
    pub measured: CollectionStats,
    /// Paper values `(count, extents, nindexes, last_extent, index_size)`.
    pub paper: (u64, usize, usize, usize, usize),
    /// Scale used.
    pub scale: f64,
}

impl StatsComparison {
    /// Measured count as a fraction of the paper count (≈ `scale` when the
    /// generator is calibrated).
    pub fn count_ratio(&self) -> f64 {
        self.measured.count as f64 / self.paper.0 as f64
    }
}

/// T1 — Table I: WEBINSTANCE collection statistics.
pub fn t1_instance_stats(sys: &ScaledSystem) -> StatsComparison {
    StatsComparison {
        measured: sys
            .dt
            .collection_stats("instance")
            .expect("in-memory store")
            .expect("instance ingested"),
        paper: (
            paper::INSTANCE_COUNT,
            paper::INSTANCE_EXTENTS,
            paper::INSTANCE_NINDEXES,
            paper::INSTANCE_LAST_EXTENT,
            paper::INSTANCE_INDEX_SIZE,
        ),
        scale: sys.config.scale,
    }
}

/// T2 — Table II: WEBENTITIES collection statistics.
pub fn t2_entity_stats(sys: &ScaledSystem) -> StatsComparison {
    StatsComparison {
        measured: sys
            .dt
            .collection_stats("entity")
            .expect("in-memory store")
            .expect("entities ingested"),
        paper: (
            paper::ENTITY_COUNT,
            paper::ENTITY_EXTENTS,
            paper::ENTITY_NINDEXES,
            paper::ENTITY_LAST_EXTENT,
            paper::ENTITY_INDEX_SIZE,
        ),
        scale: sys.config.scale,
    }
}

/// One row of the Table III comparison.
#[derive(Debug, Clone)]
pub struct TypeRow {
    pub entity_type: String,
    pub measured: u64,
    pub measured_share: f64,
    pub paper_count: u64,
    pub paper_share: f64,
}

/// T3 — Table III: entity counts by type, measured share vs paper share.
pub fn t3_type_histogram(sys: &ScaledSystem) -> Vec<TypeRow> {
    let measured = sys.dt.entity_histogram().expect("in-memory store");
    let total: u64 = measured.iter().map(|(_, n)| n).sum();
    let paper_total: u64 = EntityType::ALL.iter().map(|t| t.paper_count()).sum();
    measured
        .into_iter()
        .map(|(name, n)| {
            let paper_count = EntityType::from_name(&name).map(|t| t.paper_count()).unwrap_or(0);
            TypeRow {
                entity_type: name,
                measured: n,
                measured_share: n as f64 / total.max(1) as f64,
                paper_count,
                paper_share: paper_count as f64 / paper_total as f64,
            }
        })
        .collect()
}

/// T4 — Table IV: top-10 most discussed award-winning movies/shows, plus the
/// paper's list for side-by-side comparison.
pub fn t4_top10(sys: &ScaledSystem) -> (Vec<DiscussedShow>, [&'static str; 10]) {
    (sys.dt.top_discussed(10).expect("in-memory store"), names::TABLE_IV_SHOWS)
}

/// A rendered demo-query result: ordered `(attribute, value)` rows.
pub type QueryRows = Vec<(String, String)>;

fn render_fused(record: &datatamer_model::Record, attrs: &[&str]) -> QueryRows {
    attrs
        .iter()
        .filter_map(|a| record.get_text(a).map(|v| (a.to_string(), v)))
        .collect()
}

/// T5 — Table V: Matilda from web text only (`SHOW_NAME`, `TEXT_FEED`):
/// the text show records fused alone, under the system's configured
/// grouping and resolver routing.
pub fn t5_matilda_text_only(sys: &ScaledSystem) -> QueryRows {
    let text = sys.dt.text_show_records();
    let cfg = sys.dt.context().config();
    let groups = cfg.grouping.groups(text, cfg.fusion_threshold);
    let fused = merge_groups_with(text, &groups, &cfg.fusion_resolvers);
    match DataTamer::lookup(&fused, "Matilda") {
        Some(f) => render_fused(
            &f.record,
            &[SHOW_NAME, THEATER, PERFORMANCE, TEXT_FEED, CHEAPEST_PRICE, FIRST],
        ),
        None => Vec::new(),
    }
}

/// T6 — Table VI: Matilda after fusing FTABLES (enriched).
pub fn t6_matilda_fused(sys: &ScaledSystem) -> QueryRows {
    match DataTamer::lookup(&sys.dt.context().fused, "Matilda") {
        Some(f) => render_fused(
            &f.record,
            &[SHOW_NAME, THEATER, PERFORMANCE, TEXT_FEED, CHEAPEST_PRICE, FIRST],
        ),
        None => Vec::new(),
    }
}

/// One step of the F2 bootstrap trajectory.
#[derive(Debug, Clone)]
pub struct BootstrapStep {
    pub source: String,
    pub global_attrs_before: usize,
    pub global_attrs_after: usize,
    pub auto_accepted: usize,
    pub human_interventions: usize,
    pub new_attributes: usize,
    pub automation_rate: f64,
}

/// F2 — Figure 2: bottom-up global schema initialisation. Integrates the 20
/// FTABLES sources in order and records how human intervention falls as the
/// schema matures. `expert_accuracy`: `None` = thresholds only; `Some(p)` =
/// 3-expert panel at accuracy `p` answering from ground truth.
pub fn f2_bootstrap_trajectory(
    sources: &[ftables::GeneratedSource],
    expert_accuracy: Option<f64>,
) -> Vec<BootstrapStep> {
    let gt = GroundTruth::from_sources(sources);
    let mut integrator = SchemaIntegrator::new(IntegrationConfig::default());
    // Global attr id -> canonical identity, maintained from ground truth as
    // the schema grows (used by the expert oracle).
    let mut canon_of_attr: std::collections::HashMap<AttrId, &'static str> = Default::default();
    let mut steps = Vec::with_capacity(sources.len());
    for s in sources {
        let schema = SourceSchema::profile_records(s.id, &s.name, &s.records);
        let before = integrator.global().len();
        let report = if let Some(acc) = expert_accuracy {
            let canon_snapshot = canon_of_attr.clone();
            let name_to_attr: std::collections::HashMap<String, AttrId> = integrator
                .global()
                .iter()
                .map(|g| (g.name.clone(), g.id))
                .collect();
            let source_name = s.name.clone();
            let gt_map = gt.attr_mappings.clone();
            let truth = Box::new(move |attr: &str, candidate: &str| {
                let Some(truth_canon) =
                    gt_map.get(&(source_name.clone(), attr.to_owned())).copied()
                else {
                    return false;
                };
                name_to_attr
                    .get(candidate)
                    .and_then(|id| canon_snapshot.get(id))
                    .is_some_and(|c| *c == truth_canon)
            });
            let mut panel = ExpertPanelResolver::homogeneous(3, acc, 1.0, 17, truth)
                .expect("expert accuracy is a probability");
            integrator.integrate_with(&schema, &mut panel)
        } else {
            integrator.integrate(&schema)
        };
        // Update canonical identities for newly created attributes.
        for sugg in &report.suggestions {
            if matches!(
                sugg.decision,
                Decision::NewAttribute | Decision::ExpertNewAttribute
            ) {
                if let Some(truth_canon) = gt.canonical_of(&s.name, &sugg.source_attr) {
                    if let Some(g) = integrator.global().by_name(&sugg.source_attr) {
                        canon_of_attr.entry(g.id).or_insert(truth_canon);
                    }
                }
            }
        }
        steps.push(BootstrapStep {
            source: s.name.clone(),
            global_attrs_before: before,
            global_attrs_after: integrator.global().len(),
            auto_accepted: report.auto_accepted(),
            human_interventions: report.human_interventions(),
            new_attributes: report.new_attributes(),
            automation_rate: report.automation_rate(),
        });
    }
    steps
}

/// One row of the F2 expert-accuracy ablation.
#[derive(Debug, Clone)]
pub struct ExpertAblationRow {
    /// Panel accuracy; `None` = thresholds only (AcceptBest).
    pub accuracy: Option<f64>,
    /// Total escalations answered by humans across all 20 sources.
    pub total_human: usize,
    /// Final global-schema size.
    pub final_attrs: usize,
    /// Mean automation rate over the non-seed sources.
    pub mean_automation: f64,
}

/// F2 ablation: rerun the bootstrap with expert panels of varying accuracy.
/// Better experts should not make the schema worse; the measurable signal
/// is schema convergence (final size) and residual human load.
pub fn f2_expert_ablation(
    sources: &[ftables::GeneratedSource],
    accuracies: &[Option<f64>],
) -> Vec<ExpertAblationRow> {
    accuracies
        .iter()
        .map(|acc| {
            let steps = f2_bootstrap_trajectory(sources, *acc);
            let total_human = steps.iter().map(|s| s.human_interventions).sum();
            let final_attrs = steps.last().map(|s| s.global_attrs_after).unwrap_or(0);
            let n = steps.len().saturating_sub(1).max(1);
            let mean_automation =
                steps.iter().skip(1).map(|s| s.automation_rate).sum::<f64>() / n as f64;
            ExpertAblationRow { accuracy: *acc, total_human, final_attrs, mean_automation }
        })
        .collect()
}

/// One point of the F3 threshold sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub threshold: f64,
    /// Precision of auto-accepted matches vs ground truth.
    pub precision: f64,
    /// Recall: fraction of truly-mappable attributes auto-accepted.
    pub recall: f64,
    /// Attributes escalated to experts at this threshold.
    pub escalated: usize,
}

/// F3 — Figure 3: matching a source against a mature global schema while
/// sweeping the acceptance threshold. Sources `0..split` build the schema;
/// sources `split..` are scored; a decision is *correct* when the top
/// candidate's canonical identity equals the source attribute's.
pub fn f3_threshold_sweep(
    sources: &[ftables::GeneratedSource],
    split: usize,
    thresholds: &[f64],
) -> Vec<SweepPoint> {
    assert!(split >= 1 && split < sources.len(), "split must leave both phases non-empty");
    let gt = GroundTruth::from_sources(sources);
    let mut integrator = SchemaIntegrator::new(IntegrationConfig::default());
    let mut canon_of_attr: std::collections::HashMap<AttrId, &'static str> = Default::default();
    for s in &sources[..split] {
        let schema = SourceSchema::profile_records(s.id, &s.name, &s.records);
        let report = integrator.integrate(&schema);
        for sugg in &report.suggestions {
            if matches!(sugg.decision, Decision::NewAttribute | Decision::ExpertNewAttribute) {
                if let Some(tc) = gt.canonical_of(&s.name, &sugg.source_attr) {
                    if let Some(g) = integrator.global().by_name(&sugg.source_attr) {
                        canon_of_attr.entry(g.id).or_insert(tc);
                    }
                }
            }
        }
    }
    // Score the held-out sources once; sweep thresholds over the scores.
    struct Scored {
        truth_canon: Option<&'static str>,
        top: Option<(AttrId, f64)>,
    }
    let mut scored: Vec<Scored> = Vec::new();
    for s in &sources[split..] {
        let schema = SourceSchema::profile_records(s.id, &s.name, &s.records);
        for (attr_name, candidates) in integrator.dry_run(&schema) {
            scored.push(Scored {
                truth_canon: gt.canonical_of(&s.name, &attr_name),
                top: candidates.first().map(|c| (c.attr, c.score)),
            });
        }
    }
    let escalate_floor = IntegrationConfig::default().escalate_threshold;
    thresholds
        .iter()
        .map(|&threshold| {
            let mut tp = 0usize;
            let mut fp = 0usize;
            let mut mappable = 0usize;
            let mut escalated = 0usize;
            for s in &scored {
                // "Mappable" = its canonical already exists in the schema.
                let target_exists = s
                    .truth_canon
                    .is_some_and(|tc| canon_of_attr.values().any(|c| *c == tc));
                if target_exists {
                    mappable += 1;
                }
                match s.top {
                    Some((attr, score)) if score >= threshold => {
                        let correct = s
                            .truth_canon
                            .is_some_and(|tc| canon_of_attr.get(&attr) == Some(&tc));
                        if correct {
                            tp += 1;
                        } else {
                            fp += 1;
                        }
                    }
                    Some((_, score)) if score >= escalate_floor => escalated += 1,
                    _ => {}
                }
            }
            SweepPoint {
                threshold,
                precision: if tp + fp == 0 { 1.0 } else { tp as f64 / (tp + fp) as f64 },
                recall: if mappable == 0 { 0.0 } else { tp as f64 / mappable as f64 },
                escalated,
            }
        })
        .collect()
}

/// M1 — §IV: per-type 10-fold cross-validated dedup precision/recall, at
/// the paper-band difficulty (aliases + doppelgangers; see
/// [`PairDifficulty::paper_band`]).
pub fn m1_dedup_crossval(pairs_per_type: usize) -> Vec<(EntityType, BinaryMetrics)> {
    m1_dedup_crossval_at(pairs_per_type, PairDifficulty::paper_band())
}

/// M1 ablation: same protocol under explicit difficulty.
pub fn m1_dedup_crossval_at(
    pairs_per_type: usize,
    difficulty: PairDifficulty,
) -> Vec<(EntityType, BinaryMetrics)> {
    DEDUP_EVAL_TYPES
        .iter()
        .map(|&ty| {
            let pairs: Vec<(String, String, bool)> =
                labeled_pairs_with(ty, pairs_per_type, 42, difficulty)
                    .into_iter()
                    .map(|p| (p.a, p.b, p.same))
                    .collect();
            let m = crossval_dedup(&pairs, 10, 7, &LogRegConfig::default())
                .expect("at least 10 labelled pairs per type")
                .metrics();
            (ty, m)
        })
        .collect()
}

/// M2 — text cleaning + parsing throughput at a given fragment count.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    pub fragments: usize,
    pub elapsed: Duration,
    pub fragments_per_sec: f64,
    pub dropped: usize,
}

/// M2 — time the clean→parse→store path over the corpus: the ingest stage
/// alone, without consolidation or fusion.
pub fn m2_text_preprocess_throughput(sys_config: crate::HarnessConfig) -> ThroughputPoint {
    let corpus = datatamer_corpus::webtext::WebTextCorpus::generate(&sys_config.webtext_config());
    let parser =
        datatamer_text::DomainParser::with_gazetteer(corpus.gazetteer.clone());
    let mut ctx = PipelineContext::new(DataTamerConfig {
        extent_size: sys_config.extent_size(),
        ..Default::default()
    });
    let frags: Vec<(&str, &str)> = corpus
        .fragments
        .iter()
        .map(|f| (f.text.as_str(), f.kind.label()))
        .collect();
    let job = TextIngestJob { parser, fragments: frags };
    let mut ingest: [Box<dyn PipelineStage>; 1] = [Box::new(IngestStage::new(Vec::new(), Some(job)))];
    let start = Instant::now();
    run_stages(&mut ctx, &mut ingest).expect("in-memory store");
    let elapsed = start.elapsed();
    let stats = &ctx.text_stats;
    ThroughputPoint {
        fragments: stats.fragments_seen,
        elapsed,
        fragments_per_sec: stats.fragments_seen as f64 / elapsed.as_secs_f64().max(1e-9),
        dropped: stats.fragments_dropped,
    }
}

/// F1 — per-stage wall-clock of the full pipeline (the architecture of
/// Figure 1, measured).
#[derive(Debug, Clone)]
pub struct StageTimings {
    pub generate: Duration,
    pub structured_integration: Duration,
    pub text_ingest: Duration,
    pub fusion: Duration,
    pub query: Duration,
}

/// F1 — run the whole pipeline, timing each architecture stage: the
/// public stages run in three timed `run_stages` calls over one context,
/// then the demo queries.
pub fn f1_pipeline_stages(config: crate::HarnessConfig) -> StageTimings {
    let t0 = Instant::now();
    let corpus = datatamer_corpus::webtext::WebTextCorpus::generate(&config.webtext_config());
    let sources = ftables::generate(
        &ftables::FtablesConfig { seed: config.seed ^ 0xF7AB, ..Default::default() },
        1000,
    );
    let generate = t0.elapsed();

    let mut ctx = PipelineContext::new(DataTamerConfig {
        extent_size: config.extent_size(),
        ..Default::default()
    });
    let structured = sources.into_iter().map(|s| (s.name, s.records)).collect();
    let parser = datatamer_text::DomainParser::with_gazetteer(corpus.gazetteer.clone());
    let frags: Vec<(&str, &str)> = corpus
        .fragments
        .iter()
        .map(|f| (f.text.as_str(), f.kind.label()))
        .collect();
    let text = TextIngestJob { parser, fragments: frags };
    let mut timed = |mut stages: Vec<Box<dyn PipelineStage + '_>>| {
        let start = Instant::now();
        run_stages(&mut ctx, &mut stages).expect("in-memory store");
        start.elapsed()
    };
    let structured_integration = timed(vec![
        Box::new(IngestStage::new(structured, None)),
        Box::new(SchemaIntegrationStage),
        Box::new(CleaningStage),
    ]);
    let text_ingest = timed(vec![Box::new(IngestStage::new(Vec::new(), Some(text)))]);
    let fusion = timed(vec![
        Box::<EntityConsolidationStage>::default(),
        Box::<FusionStage>::default(),
    ]);

    let t4 = Instant::now();
    let _ = DataTamer::lookup(&ctx.fused, "Matilda");
    if let Some(instances) = ctx.store.collection(INSTANCE_COLLECTION) {
        let _ = top_discussed_award_winning(&instances, 10);
    }
    let query = t4.elapsed();

    StageTimings { generate, structured_integration, text_ingest, fusion, query }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HarnessConfig;

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            scale: 1.0 / 50_000.0, // ~355 fragments
            background_mentions: 3,
            padding_sentences: 1,
            ..Default::default()
        }
    }

    #[test]
    fn t1_t2_shapes() {
        let sys = ScaledSystem::build(tiny());
        let t1 = t1_instance_stats(&sys);
        assert_eq!(t1.measured.nindexes, 1);
        assert!(t1.measured.count > 300);
        assert!(t1.count_ratio() > 0.0);
        let t2 = t2_entity_stats(&sys);
        assert_eq!(t2.measured.nindexes, 8);
        assert!(t2.measured.count > t1.measured.count, "entities outnumber instances");
        assert!(
            t2.measured.total_index_size > t1.measured.total_index_size,
            "8 indexes must dwarf 1"
        );
    }

    #[test]
    fn t3_shares_track_paper() {
        let sys = ScaledSystem::build(tiny());
        let rows = t3_type_histogram(&sys);
        assert!(rows.len() >= 10, "most types appear: {}", rows.len());
        let person = rows.iter().find(|r| r.entity_type == "Person").unwrap();
        assert!(person.measured_share > 0.08);
        // Rare types stay rare.
        let state = rows.iter().find(|r| r.entity_type == "ProvinceOrState");
        if let Some(state) = state {
            assert!(state.measured < person.measured);
        }
    }

    #[test]
    fn t4_reproduces_paper_top10() {
        let sys = ScaledSystem::build(HarnessConfig {
            scale: 1.0 / 4000.0, // ~4.4k fragments for stable ranks
            padding_sentences: 0,
            background_mentions: 2,
            ..Default::default()
        });
        let (top, paper_list) = t4_top10(&sys);
        assert_eq!(top.len(), 10);
        let got: Vec<&str> = top.iter().map(|s| s.title.as_str()).collect();
        let hits = paper_list.iter().filter(|p| got.contains(*p)).count();
        assert!(hits >= 9, "paper top-10 overlap too low: {hits} ({got:?})");
        assert_eq!(got[0], "The Walking Dead");
    }

    #[test]
    fn t5_t6_matilda_enrichment() {
        let sys = ScaledSystem::build(tiny());
        let t5 = t5_matilda_text_only(&sys);
        let t6 = t6_matilda_fused(&sys);
        let attrs = |rows: &QueryRows| rows.iter().map(|(a, _)| a.clone()).collect::<Vec<_>>();
        assert!(attrs(&t5).contains(&"TEXT_FEED".to_owned()));
        assert!(!attrs(&t5).contains(&"THEATER".to_owned()), "{t5:?}");
        for a in ["SHOW_NAME", "THEATER", "PERFORMANCE", "TEXT_FEED", "CHEAPEST_PRICE", "FIRST"] {
            assert!(attrs(&t6).contains(&a.to_owned()), "{a} missing from T6: {t6:?}");
        }
        // The paper's exact values survive the pipeline.
        let get = |rows: &QueryRows, k: &str| {
            rows.iter().find(|(a, _)| a == k).map(|(_, v)| v.clone()).unwrap()
        };
        assert_eq!(get(&t6, "CHEAPEST_PRICE"), "$27");
        assert_eq!(get(&t6, "FIRST"), "3/4/2013");
        assert!(get(&t6, "THEATER").starts_with("Shubert"));
        assert!(get(&t6, "TEXT_FEED").contains("960,998"));
    }

    #[test]
    fn f2_intervention_declines() {
        let sources = ftables::generate(&ftables::FtablesConfig::default(), 0);
        let steps = f2_bootstrap_trajectory(&sources, None);
        assert_eq!(steps.len(), 20);
        assert_eq!(steps[0].human_interventions, 0, "empty schema asks nothing");
        assert!(steps[0].new_attributes >= 3);
        // Bootstrap alerts ("no counterpart in the global schema") are a
        // front-loaded phenomenon: they concentrate in the first few
        // sources and vanish once the schema matures.
        let early_alerts: usize = steps[..5].iter().map(|s| s.new_attributes).sum();
        let late_alerts: usize = steps[10..].iter().map(|s| s.new_attributes).sum();
        assert!(early_alerts >= 6, "bootstrap must raise alerts: {early_alerts}");
        assert_eq!(late_alerts, 0, "mature schema must stop raising new-attribute alerts");
        // Intervention stays rare after maturity: no late source escalates
        // more than a handful of its ~12 attributes to a human.
        for s in &steps[10..] {
            assert!(
                s.human_interventions <= 3,
                "mature-schema source {} needed {} human answers",
                s.source,
                s.human_interventions
            );
        }
        // The schema converges instead of proliferating.
        let final_attrs = steps.last().unwrap().global_attrs_after;
        assert!(final_attrs <= 24, "global schema exploded: {final_attrs}");
    }

    #[test]
    fn f2_expert_ablation_converges_for_all_panels() {
        let sources = ftables::generate(&ftables::FtablesConfig::default(), 0);
        let rows = f2_expert_ablation(&sources, &[None, Some(0.95), Some(0.6)]);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                (10..=22).contains(&r.final_attrs),
                "{:?}: schema size {}",
                r.accuracy,
                r.final_attrs
            );
            assert!((0.0..=1.0).contains(&r.mean_automation));
        }
        // Strong experts answer at least as many escalations as AcceptBest
        // records (every escalated suggestion is a human touch either way).
        assert!(rows[1].total_human > 0);
    }

    #[test]
    fn f3_threshold_tradeoff() {
        let sources = ftables::generate(&ftables::FtablesConfig::default(), 0);
        let points = f3_threshold_sweep(&sources, 10, &[0.5, 0.7, 0.9]);
        assert_eq!(points.len(), 3);
        // Higher threshold: precision must not drop, recall must not rise.
        assert!(points[2].precision >= points[0].precision - 1e-9);
        assert!(points[2].recall <= points[0].recall + 1e-9);
        assert!(points[0].precision > 0.6, "low-threshold precision: {}", points[0].precision);
    }

    #[test]
    fn m1_metrics_in_band() {
        let mut psum = 0.0;
        let mut rsum = 0.0;
        let results = m1_dedup_crossval(600);
        for (ty, m) in &results {
            assert!(m.precision >= 0.80, "{ty:?}: {m}");
            assert!(m.recall >= 0.80, "{ty:?}: {m}");
            psum += m.precision;
            rsum += m.recall;
        }
        // Macro averages land in the paper's 89/90 neighbourhood.
        let p = psum / results.len() as f64;
        let r = rsum / results.len() as f64;
        assert!((0.84..=0.97).contains(&p), "macro precision {p:.3}");
        assert!((0.84..=0.97).contains(&r), "macro recall {r:.3}");
    }

    #[test]
    fn m1_separable_pairs_beat_ambiguous() {
        let easy = m1_dedup_crossval_at(400, PairDifficulty::separable(0.6, false));
        let hard = m1_dedup_crossval_at(400, PairDifficulty::paper_band());
        let f1 = |rs: &[(EntityType, datatamer_ml::BinaryMetrics)]| {
            rs.iter().map(|(_, m)| m.f1).sum::<f64>() / rs.len() as f64
        };
        assert!(
            f1(&easy) > f1(&hard),
            "ambiguity must cost accuracy: {} vs {}",
            f1(&easy),
            f1(&hard)
        );
    }
}
