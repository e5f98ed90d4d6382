//! Integration test for the Tables I–III shape claims at reduced scale:
//! collection statistics ratios and the entity-type histogram.

use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::corpus::webtext::{WebTextConfig, WebTextCorpus};
use datatamer::text::{DomainParser, EntityType};

fn build(fragments: usize, background: usize) -> DataTamer {
    let corpus = WebTextCorpus::generate(&WebTextConfig {
        num_fragments: fragments,
        background_mentions: background,
        padding_sentences: 8,
        ..Default::default()
    });
    let mut dt = DataTamer::new(DataTamerConfig {
        extent_size: 128 * 1024,
        ..Default::default()
    });
    let parser = DomainParser::with_gazetteer(corpus.gazetteer.clone());
    let frags: Vec<(&str, &str)> = corpus
        .fragments
        .iter()
        .map(|f| (f.text.as_str(), f.kind.label()))
        .collect();
    dt.run(PipelinePlan::new().webtext(parser, frags)).unwrap();
    dt
}

#[test]
fn tables_i_ii_shape_holds() {
    let dt = build(800, 9);
    let instance = dt.collection_stats("instance").expect("instance");
    let entity = dt.collection_stats("entity").expect("entity");

    // Index layout matches the paper exactly.
    assert_eq!(instance.nindexes, 1, "Table I nindexes");
    assert_eq!(entity.nindexes, 8, "Table II nindexes");

    // Entities outnumber instances by roughly the paper's ~10x factor.
    let ratio = entity.count as f64 / instance.count as f64;
    assert!((5.0..=20.0).contains(&ratio), "entities/instances ratio {ratio:.1}");

    // Both collections span multiple extents (sharded, chained storage).
    assert!(instance.num_extents > 1);
    assert!(entity.num_extents > 1);

    // Entity index mass dwarfs instance index mass (paper: 59 GB vs 0.7 GB).
    assert!(
        entity.total_index_size > 5 * instance.total_index_size,
        "index-size contrast: {} vs {}",
        entity.total_index_size,
        instance.total_index_size
    );

    // Instance documents are much larger than entity documents
    // (web-page excerpts vs small entity rows).
    assert!(
        instance.avg_obj_size > 4.0 * entity.avg_obj_size,
        "doc-size contrast: {:.0} vs {:.0}",
        instance.avg_obj_size,
        entity.avg_obj_size
    );
}

#[test]
fn table_iii_histogram_tracks_paper_proportions() {
    let dt = build(1_500, 9);
    let histogram = dt.entity_histogram().unwrap();
    let total: u64 = histogram.iter().map(|(_, n)| n).sum();
    assert!(total > 5_000, "enough extracted entities: {total}");

    let share = |name: &str| -> f64 {
        histogram
            .iter()
            .find(|(t, _)| t == name)
            .map(|(_, n)| *n as f64 / total as f64)
            .unwrap_or(0.0)
    };
    // Person and OrgEntity dominate, as in Table III (26.3% / 22.7%).
    assert!(share("Person") > 0.15, "Person share {:.3}", share("Person"));
    assert!(share("OrgEntity") > 0.12, "OrgEntity share {:.3}", share("OrgEntity"));
    // Rare tail types stay rare.
    assert!(share("ProvinceOrState") < 0.02);
    assert!(share("Technology") < 0.03);
    // Rank agreement on the dominant types: Person must outnumber
    // every type the paper ranks below OrgEntity.
    let person = share("Person");
    for t in ["GeoEntity", "URL", "Position", "Company", "Product", "City"] {
        assert!(person > share(t), "Person must outrank {t}");
    }
    // All 15 paper types are representable; at this scale at least 12 appear.
    assert!(histogram.len() >= 12, "types seen: {}", histogram.len());
    for (name, _) in &histogram {
        assert!(
            EntityType::from_name(name).is_some(),
            "unknown type in histogram: {name}"
        );
    }
}

#[test]
fn text_cleaning_is_observable_in_stats() {
    // Inject junk fragments and verify the ML cleaner drops them pre-parse.
    let corpus = WebTextCorpus::generate(&WebTextConfig {
        num_fragments: 50,
        ..Default::default()
    });
    let mut frags: Vec<(&str, &str)> = corpus
        .fragments
        .iter()
        .map(|f| (f.text.as_str(), f.kind.label()))
        .collect();
    let junk = [
        "click here to subscribe to our newsletter and accept cookies now",
        "advertisement sponsored content buy now limited offer free shipping",
        "sign up login register forgot password terms of service",
    ];
    for j in junk {
        frags.push((j, "spam"));
    }
    let mut dt = DataTamer::new(DataTamerConfig::default());
    let parser = DomainParser::with_gazetteer(corpus.gazetteer.clone());
    dt.run(PipelinePlan::new().webtext(parser, frags)).unwrap();
    let stats = dt.text_stats();
    assert!(stats.fragments_dropped >= 3, "junk dropped: {}", stats.fragments_dropped);
    assert_eq!(
        stats.instances as usize,
        stats.fragments_seen - stats.fragments_dropped
    );
}
