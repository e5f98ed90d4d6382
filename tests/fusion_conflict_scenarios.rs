//! Conflict-scenario corpus for the truth-discovery resolver routing.
//!
//! A table of canonical conflict shapes — agreeing sources, 2-vs-1 splits,
//! stale-vs-fresh values, genuine multi-truth attributes — each resolved by
//! the built-in resolver the shape exercises, with the expected survivor(s)
//! pinned. A second half drives the same routing through the
//! full staged pipeline to assert per-attribute dispatch end to end.

use datatamer::core::fusion::{fuse_records_with, ConflictPolicy, RegistryConfig, ResolverSpec};
use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::model::{Record, RecordId, SourceId, Value};

/// What a scenario expects to survive for the conflicted attribute.
enum Expect {
    /// One value (scalar in the composite).
    Single(&'static str),
    /// Several values (a `Value::Array` in the composite, in this order).
    Multi(&'static [&'static str]),
}

/// One conflict scenario: provenanced values for a single attribute, the
/// resolver under test, and the expected survivor(s).
struct Scenario {
    name: &'static str,
    resolver: ResolverSpec,
    /// `(value, source id, record id)` — listed in cluster order.
    values: &'static [(&'static str, u32, u64)],
    expect: Expect,
}

const ATTR: &str = "VERDICT";

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "agreeing_sources_majority",
            resolver: ResolverSpec::MajorityVote,
            values: &[("$27", 0, 0), ("$27", 1, 1), ("$27", 2, 2)],
            expect: Expect::Single("$27"),
        },
        Scenario {
            name: "agreeing_sources_reliability",
            resolver: ResolverSpec::SourceReliability { iterations: 5 },
            values: &[("$27", 0, 0), ("$27", 1, 1), ("$27", 2, 2)],
            expect: Expect::Single("$27"),
        },
        Scenario {
            name: "two_vs_one_majority",
            resolver: ResolverSpec::MajorityVote,
            values: &[("$27", 0, 0), ("$27", 1, 1), ("$99", 2, 2)],
            expect: Expect::Single("$27"),
        },
        Scenario {
            name: "two_vs_one_reliability_weights_the_agreeing_pair",
            resolver: ResolverSpec::SourceReliability { iterations: 5 },
            values: &[("$99", 0, 0), ("$27", 1, 1), ("$27", 2, 2)],
            expect: Expect::Single("$27"),
        },
        Scenario {
            name: "even_split_majority_ties_lexicographically",
            resolver: ResolverSpec::MajorityVote,
            values: &[("beta", 0, 0), ("alpha", 1, 1)],
            expect: Expect::Single("alpha"),
        },
        Scenario {
            name: "stale_vs_fresh_latest_wins",
            resolver: ResolverSpec::LatestWins,
            values: &[("closed", 0, 5), ("open", 0, 9)],
            expect: Expect::Single("open"),
        },
        Scenario {
            name: "latest_wins_orders_by_record_before_source",
            resolver: ResolverSpec::LatestWins,
            values: &[("older", 2, 3), ("newer", 1, 7)],
            expect: Expect::Single("newer"),
        },
        Scenario {
            name: "latest_wins_ignores_majority",
            resolver: ResolverSpec::LatestWins,
            values: &[("old", 0, 0), ("old", 1, 1), ("fresh", 2, 9)],
            expect: Expect::Single("fresh"),
        },
        Scenario {
            name: "genuine_multi_truth_keeps_both",
            resolver: ResolverSpec::MultiTruth { min_support: 0.4 },
            values: &[("PG", 0, 0), ("PG-13", 1, 1), ("PG", 2, 2), ("PG-13", 3, 3)],
            expect: Expect::Multi(&["PG", "PG-13"]),
        },
        Scenario {
            name: "multi_truth_drops_the_lone_outlier",
            resolver: ResolverSpec::MultiTruth { min_support: 0.3 },
            values: &[("red", 0, 0), ("red", 1, 1), ("red", 2, 2), ("typo", 3, 3)],
            expect: Expect::Single("red"),
        },
        Scenario {
            name: "multi_truth_orders_by_support_then_text",
            resolver: ResolverSpec::MultiTruth { min_support: 0.2 },
            values: &[("b", 0, 0), ("a", 1, 1), ("b", 2, 2), ("c", 3, 3)],
            expect: Expect::Multi(&["b", "a", "c"]),
        },
        Scenario {
            name: "classic_first_policy_respects_cluster_order",
            resolver: ResolverSpec::Policy(ConflictPolicy::First),
            values: &[("curated", 0, 0), ("scraped", 1, 1)],
            expect: Expect::Single("curated"),
        },
        Scenario {
            name: "classic_numeric_min_policy",
            resolver: ResolverSpec::Policy(ConflictPolicy::NumericMin),
            values: &[("$45", 0, 0), ("$27", 1, 1), ("$99.50", 2, 2)],
            expect: Expect::Single("$27"),
        },
    ]
}

/// Records for one scenario: every member shares the show name so they
/// group into one entity, carrying the conflicted attribute.
fn scenario_records(s: &Scenario) -> Vec<Record> {
    s.values
        .iter()
        .map(|(value, source, record)| {
            Record::from_pairs(
                SourceId(*source),
                RecordId(*record),
                vec![("SHOW_NAME", Value::from("Hamlet")), (ATTR, Value::from(*value))],
            )
        })
        .collect()
}

fn expected_value(expect: &Expect) -> Value {
    match expect {
        Expect::Single(v) => Value::from(*v),
        Expect::Multi(vs) => Value::Array(vs.iter().map(|v| Value::from(*v)).collect()),
    }
}

#[test]
fn conflict_corpus_resolves_as_pinned() {
    for s in scenarios() {
        let registry = RegistryConfig::uniform(ResolverSpec::MajorityVote)
            .with(ATTR, s.resolver.clone());
        let records = scenario_records(&s);
        let fused = fuse_records_with(&records, 0.88, &registry);
        assert_eq!(fused.len(), 1, "{}: one conflicted entity", s.name);
        assert_eq!(fused[0].member_count, s.values.len(), "{}", s.name);
        assert_eq!(
            fused[0].record.get(ATTR),
            Some(&expected_value(&s.expect)),
            "scenario {}",
            s.name
        );
        // The default resolver is MajorityVote, which always quantifies its
        // decision — so every scenario's entity carries a confidence, and a
        // valid one.
        let confidence = fused[0]
            .confidence
            .unwrap_or_else(|| panic!("{}: majority-voted entity must carry confidence", s.name));
        assert!(
            (0.0..=1.0).contains(&confidence),
            "{}: confidence {confidence} out of range",
            s.name
        );
    }
}

#[test]
fn resolution_is_insensitive_to_record_order_for_order_free_resolvers() {
    for s in scenarios() {
        if matches!(s.resolver, ResolverSpec::Policy(_)) {
            continue; // classic policies are deliberately order-sensitive
        }
        let registry = RegistryConfig::uniform(ResolverSpec::MajorityVote)
            .with(ATTR, s.resolver.clone());
        let mut records = scenario_records(&s);
        records.reverse();
        let fused = fuse_records_with(&records, 0.88, &registry);
        assert_eq!(
            fused[0].record.get(ATTR),
            Some(&expected_value(&s.expect)),
            "scenario {} reversed",
            s.name
        );
    }
}

#[test]
fn registry_dispatches_each_attribute_to_its_own_resolver() {
    // One fused entity whose attributes route to four different resolvers.
    let registry = RegistryConfig::uniform(ResolverSpec::MajorityVote)
        .with("STATUS", ResolverSpec::LatestWins)
        .with("RATING", ResolverSpec::MultiTruth { min_support: 0.4 })
        .with("PRICE", ResolverSpec::Policy(ConflictPolicy::NumericMin))
        .with("VENUE", ResolverSpec::SourceReliability { iterations: 5 });
    let rows: Vec<(&str, &str)> =
        registry.per_attribute.iter().map(|(attr, spec)| (attr.as_str(), spec.name())).collect();
    assert_eq!(
        rows,
        vec![
            ("STATUS", "latest_wins"),
            ("RATING", "multi_truth"),
            ("PRICE", "policy:numeric_min"),
            ("VENUE", "source_reliability"),
        ]
    );
    assert_eq!(registry.default.name(), "majority_vote");

    let mk = |src: u32, id: u64, status: &str, rating: &str, price: &str, venue: &str| {
        Record::from_pairs(
            SourceId(src),
            RecordId(id),
            vec![
                ("SHOW_NAME", Value::from("Pippin")),
                ("STATUS", Value::from(status)),
                ("RATING", Value::from(rating)),
                ("PRICE", Value::from(price)),
                ("VENUE", Value::from(venue)),
            ],
        )
    };
    let records = vec![
        mk(0, 0, "previews", "PG", "$45", "Music Box"),
        mk(1, 1, "previews", "PG-13", "$27", "Music Box"),
        mk(2, 2, "open", "PG", "$99", "Musik Box"),
        mk(3, 3, "open", "PG-13", "$31", "Music Box"),
    ];
    let fused = fuse_records_with(&records, 0.88, &registry);
    assert_eq!(fused.len(), 1);
    let r = &fused[0].record;
    assert_eq!(r.get_text("STATUS").as_deref(), Some("open"), "latest record wins");
    assert_eq!(
        r.get("RATING"),
        Some(&Value::Array(vec![Value::from("PG"), Value::from("PG-13")])),
        "both ratings genuinely hold"
    );
    assert_eq!(r.get_text("PRICE").as_deref(), Some("$27"), "numeric minimum");
    assert_eq!(
        r.get_text("VENUE").as_deref(),
        Some("Music Box"),
        "three agreeing sources outweigh the typo"
    );
    assert_eq!(r.get_text("SHOW_NAME").as_deref(), Some("Pippin"), "default resolver");
}

#[test]
fn per_attribute_dispatch_survives_the_full_staged_pipeline() {
    // Same registry idea, but configured on the system and pushed
    // through ingest → schema integration → cleaning → consolidation →
    // fusion. Source attributes arrive lowercase and are canonicalised to
    // upper case by schema integration, so the registry routes the
    // canonical spellings.
    let mk = |src: u32, id: u64, status: &str, rating: &str| {
        Record::from_pairs(
            SourceId(src),
            RecordId(id),
            vec![
                ("show_name", Value::from("Pippin")),
                ("status", Value::from(status)),
                ("rating", Value::from(rating)),
            ],
        )
    };
    let a = vec![mk(0, 0, "previews", "PG"), mk(0, 1, "previews", "PG-13")];
    let b = vec![mk(1, 0, "open", "PG"), mk(1, 1, "open", "PG-13")];

    let mut dt = DataTamer::new(DataTamerConfig {
        extent_size: 64 * 1024,
        shards: 2,
        fusion_resolvers: RegistryConfig::broadway()
            .with("STATUS", ResolverSpec::LatestWins)
            .with("RATING", ResolverSpec::MultiTruth { min_support: 0.4 }),
        ..Default::default()
    });
    let plan = PipelinePlan::new().structured("season_a", &a).structured("season_b", &b);
    dt.run(plan).expect("pipeline runs");

    let fused = &dt.context().fused;
    assert_eq!(fused.len(), 1, "one show across both sources");
    let r = &fused[0].record;
    assert_eq!(
        r.get_text("STATUS").as_deref(),
        Some("open"),
        "latest record id wins the status conflict"
    );
    assert_eq!(
        r.get("RATING"),
        Some(&Value::Array(vec![Value::from("PG"), Value::from("PG-13")])),
        "multi-truth attribute keeps both ratings through the pipeline"
    );
    assert_eq!(r.get_text("SHOW_NAME").as_deref(), Some("Pippin"));
}
