//! End-to-end integration test of the paper's demo scenario (§V):
//! Tables IV, V and VI from generated data through the full pipeline.

use datatamer::core::fusion::FusedEntity;
use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::corpus::ftables::{self, FtablesConfig};
use datatamer::corpus::names::TABLE_IV_SHOWS;
use datatamer::corpus::webtext::{WebTextConfig, WebTextCorpus, MATILDA_FEED};
use datatamer::text::DomainParser;

/// The demo's order: a run over the web text (the Table V state, whose
/// fused entities are returned beside the system), then a run over the
/// FTABLES sources (Table VI).
fn build() -> (DataTamer, Vec<FusedEntity>) {
    let corpus = WebTextCorpus::generate(&WebTextConfig {
        num_fragments: 2_500,
        ..Default::default()
    });
    let sources = ftables::generate(&FtablesConfig::default(), 1000);
    let mut dt = DataTamer::new(DataTamerConfig::default());
    let parser = DomainParser::with_gazetteer(corpus.gazetteer.clone());
    let frags: Vec<(&str, &str)> = corpus
        .fragments
        .iter()
        .map(|f| (f.text.as_str(), f.kind.label()))
        .collect();
    let text_only = dt.run(PipelinePlan::new().webtext(parser, frags)).unwrap().to_vec();
    let mut plan = PipelinePlan::new();
    for s in &sources {
        plan = plan.structured(&s.name, &s.records);
    }
    dt.run(plan).unwrap();
    (dt, text_only)
}

#[test]
fn table_iv_v_vi_reproduce() {
    let (dt, text_only) = build();

    // Table IV: top-10 most discussed award-winning shows overlaps the paper.
    let top = dt.top_discussed(10).unwrap();
    assert_eq!(top.len(), 10);
    let titles: Vec<&str> = top.iter().map(|s| s.title.as_str()).collect();
    let hits = TABLE_IV_SHOWS.iter().filter(|p| titles.contains(*p)).count();
    assert!(hits >= 9, "paper overlap {hits}/10: {titles:?}");
    assert_eq!(titles[0], "The Walking Dead", "the most discussed show matches");
    assert!(top.iter().all(|s| s.award_winning));
    // Counts are non-increasing.
    for w in top.windows(2) {
        assert!(w[0].mentions >= w[1].mentions);
    }

    // Table V: text-only Matilda — feed text, no structured attributes.
    let matilda = DataTamer::lookup(&text_only, "Matilda").expect("matilda in text");
    assert_eq!(
        matilda.record.get_text("TEXT_FEED").as_deref(),
        Some(MATILDA_FEED),
        "the pinned paper feed wins First-policy fusion"
    );
    assert!(matilda.record.get("THEATER").is_none());
    assert!(matilda.record.get("CHEAPEST_PRICE").is_none());

    // Table VI: fused Matilda carries the paper's exact enrichment values.
    let matilda = DataTamer::lookup(&dt.context().fused, "Matilda").expect("matilda fused");
    let rec = &matilda.record;
    assert_eq!(
        rec.get_text("THEATER").as_deref(),
        Some("Shubert 225 W. 44th St between 7th and 8th")
    );
    assert_eq!(
        rec.get_text("PERFORMANCE").as_deref(),
        Some("Tues at 7pm Wed at 8pm Thurs at 7pm Fri-Sat at 8pm Wed, Sat at 2pm Sun at 3pm")
    );
    assert_eq!(rec.get_text("CHEAPEST_PRICE").as_deref(), Some("$27"));
    assert_eq!(rec.get_text("FIRST").as_deref(), Some("3/4/2013"));
    assert_eq!(rec.get_text("TEXT_FEED").as_deref(), Some(MATILDA_FEED));
    assert!(matilda.member_count > 2, "text + several structured sources fused");
}

#[test]
fn fusion_enriches_most_shows_not_just_matilda() {
    let (dt, text_only) = build();
    let fused = &dt.context().fused;
    let mut enriched = 0;
    let mut checked = 0;
    for entity in &text_only {
        let Some(after) = fused.iter().find(|f| f.key == entity.key) else {
            continue;
        };
        checked += 1;
        if after.record.get("CHEAPEST_PRICE").is_some()
            && entity.record.get("CHEAPEST_PRICE").is_none()
        {
            enriched += 1;
        }
    }
    assert!(checked > 10, "need a meaningful sample: {checked}");
    assert!(
        enriched as f64 / checked as f64 > 0.5,
        "fusion should enrich most discussed shows: {enriched}/{checked}"
    );
}

#[test]
fn global_schema_converges_to_canonical_attributes() {
    let (dt, _) = build();
    let n = dt.global_schema().len();
    // 12 canonical attributes; a couple of stray spellings are tolerable.
    assert!(
        (10..=16).contains(&n),
        "global schema must converge, not proliferate: {} ({:?})",
        n,
        dt.global_schema().attribute_names()
    );
    // Every canonical family is represented.
    for name in ["show_name", "theater", "cheapest_price"] {
        assert!(
            dt.global_schema().by_name(name).is_some(),
            "missing canonical attribute {name}"
        );
    }
    // Provenance shows heavy reuse: show_name must map from most sources.
    let show = dt.global_schema().by_name("show_name").unwrap();
    assert!(show.source_count() >= 15, "show_name sources: {}", show.source_count());
}

#[test]
fn cleaning_transforms_applied_during_registration() {
    let (dt, _) = build();
    let reports = dt.cleaning_reports();
    assert_eq!(reports.len(), 20);
    let total_transformed: usize = reports.iter().map(|(_, r)| r.values_transformed).sum();
    let total_nulls: usize = reports.iter().map(|(_, r)| r.nulls_canonicalized).sum();
    assert!(total_transformed > 100, "EUR→USD and date fixes: {total_transformed}");
    assert!(total_nulls > 20, "null canonicalisation: {total_nulls}");
    // No euro price survives cleaning.
    for r in dt.structured_records() {
        if let Some(price) = r.get_text("CHEAPEST_PRICE") {
            assert!(
                !price.contains('€') && !price.to_lowercase().contains("eur"),
                "unconverted price: {price}"
            );
        }
    }
}
