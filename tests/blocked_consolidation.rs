//! End-to-end coverage of the `GroupingStrategy` seam: the staged pipeline
//! consolidating fuzzy duplicates through blocked ER (blocking →
//! pair scoring → union-find), with blocking health surfaced in the stage
//! report and progressive blocking keeping oversized buckets connected.

use datatamer::core::fusion::{BlockedErConfig, GroupingStrategy};
use datatamer::core::stage::{stage_names, StageReport};
use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::entity::RecordSimilarity;
use datatamer::model::{Record, RecordId, SourceId, Value};

fn config_with(grouping: GroupingStrategy) -> DataTamerConfig {
    DataTamerConfig {
        extent_size: 64 * 1024,
        shards: 2,
        grouping,
        ..Default::default()
    }
}

/// Sources describing the same shows with word-order damage and price
/// agreement — beyond what canonical-name fuzzy attachment can unify.
fn damaged_sources() -> (Vec<Record>, Vec<Record>) {
    let clean = vec![
        Record::from_pairs(
            SourceId(0),
            RecordId(0),
            vec![
                ("show_name", Value::from("Walking Dead")),
                ("cheapest_price", Value::from("$27")),
            ],
        ),
        Record::from_pairs(
            SourceId(0),
            RecordId(1),
            vec![
                ("show_name", Value::from("Matilda")),
                ("cheapest_price", Value::from("$45")),
            ],
        ),
    ];
    let damaged = vec![
        Record::from_pairs(
            SourceId(1),
            RecordId(0),
            vec![
                ("show_name", Value::from("Dead Walking")),
                ("cheapest_price", Value::from("$27")),
            ],
        ),
        Record::from_pairs(
            SourceId(1),
            RecordId(1),
            vec![
                ("show_name", Value::from("Matilda")),
                ("cheapest_price", Value::from("$39")),
            ],
        ),
    ];
    (clean, damaged)
}

#[test]
fn config_level_blocked_er_consolidates_fuzzy_duplicates_end_to_end() {
    let (clean, damaged) = damaged_sources();

    // Canonical-name grouping splits the word-order pair: 3 entities.
    let mut dt = DataTamer::new(config_with(GroupingStrategy::CanonicalName));
    dt.run(PipelinePlan::new().structured("clean", &clean).structured("damaged", &damaged))
        .unwrap();
    assert_eq!(dt.context().fused.len(), 3);

    // Blocked ER configured on the system: the damaged duplicate joins its
    // entity, and the cheapest price across both sources survives fusion.
    let mut dt = DataTamer::new(config_with(GroupingStrategy::BlockedEr(
        BlockedErConfig::default(),
    )));
    let fused = dt
        .run(PipelinePlan::new().structured("clean", &clean).structured("damaged", &damaged))
        .unwrap();
    assert_eq!(fused.len(), 2, "walking dead + matilda");
    let walking = DataTamer::lookup(fused, "Walking Dead").expect("consolidated entity");
    assert_eq!(walking.member_count, 2);
    let matilda = DataTamer::lookup(fused, "Matilda").expect("exact duplicate still fuses");
    assert_eq!(matilda.member_count, 2);
    assert_eq!(
        matilda.record.get_text("CHEAPEST_PRICE").as_deref(),
        Some("$39"),
        "NumericMin resolver sees both sources' prices"
    );

    // The stage report carries the blocking health of the run.
    match dt.context().report_of(stage_names::ENTITY_CONSOLIDATION).unwrap() {
        StageReport::EntityConsolidation { records, groups, blocking, .. } => {
            assert_eq!(*records, 4);
            assert_eq!(*groups, 2);
            assert!(blocking.candidate_pairs >= 2);
            assert_eq!(blocking.accepted_pairs, 2);
            assert_eq!(blocking.degraded_buckets, 0);
        }
        other => panic!("wrong report variant: {other:?}"),
    }
}

#[test]
fn oversized_bucket_stays_connected_through_the_staged_pipeline() {
    // Every show shares the token "show", blowing the 256-member bucket
    // cap, with one duplicate pair planted entirely beyond it. Progressive
    // blocking must still consolidate the pair, and
    // the degradation must surface in the stage report. The venue is
    // unique per show except for the planted pair, and the scorer weights
    // it heavily, so only the true duplicates clear the threshold.
    let mut rows: Vec<Record> = (0..600u64)
        .map(|i| {
            Record::from_pairs(
                SourceId(0),
                RecordId(i),
                vec![
                    ("show_name", Value::from(format!("show number{i:03}"))),
                    ("venue", Value::from(format!("house of stage {i:03}"))),
                    ("cheapest_price", Value::from("$10")),
                ],
            )
        })
        .collect();
    let plant = |row: &mut Record, name: &str| {
        row.set("show_name", Value::from(name));
        row.set("venue", Value::from("the planted duplicate venue"));
    };
    plant(&mut rows[400], "show zzdupx1");
    plant(&mut rows[599], "show zzdupx2");

    let grouping = GroupingStrategy::BlockedEr(BlockedErConfig {
        key_attr: "SHOW_NAME".to_owned(),
        scorer: RecordSimilarity::with_weights(vec![("VENUE".to_owned(), 5.0)], 1.0),
        accept_threshold: 0.8,
        ..Default::default()
    });
    let mut dt = DataTamer::new(config_with(grouping));
    let fused = dt.run(PipelinePlan::new().structured("s1", &rows)).unwrap();

    let dup = fused
        .iter()
        .find(|f| f.key.starts_with("show zzdupx"))
        .expect("planted duplicate entity");
    assert_eq!(
        dup.member_count, 2,
        "the beyond-cap duplicate pair must consolidate into one entity"
    );
    match dt.context().report_of(stage_names::ENTITY_CONSOLIDATION).unwrap() {
        StageReport::EntityConsolidation { blocking, .. } => {
            assert_eq!(blocking.degraded_buckets, 1, "the 'show' bucket degradation is announced");
            assert!(
                blocking.candidate_pairs < 600 * 599 / 2 / 3,
                "candidate volume stays far from quadratic: {}",
                blocking.candidate_pairs
            );
        }
        other => panic!("wrong report variant: {other:?}"),
    }
}
