//! Fusing text-derived and structured records over the global schema.
//!
//! The demo's payoff (Tables V → VI): a show looked up from web text alone
//! has only `SHOW_NAME` and `TEXT_FEED`; after fusing the FTABLES sources,
//! the same lookup also carries `THEATER`, `PERFORMANCE`, `CHEAPEST_PRICE`,
//! and `FIRST`.
//!
//! Fusion is a **two-level architecture**:
//!
//! * **Grouping** — a [`GroupingStrategy`] decides which records describe
//!   the same entity: either the classic canonical-name scan
//!   ([`group_records`] at a fuzzy threshold) or similarity-based blocked
//!   ER (blocking → pair scoring → union-find, wired in from
//!   `datatamer-entity` — see the [`grouping`] module).
//! * **Truth discovery** — a [`ResolverRegistry`] maps each attribute to a
//!   [`ValueResolver`] that picks the surviving value(s) from a group's
//!   conflicting, provenance-tagged candidates ([`merge_groups_with`]).
//!
//! Built-in resolvers: [`MajorityVote`], [`SourceReliability`] (iterative
//! accu-style source weighting), [`LatestWins`] (record-provenance
//! freshness), [`MultiTruth`] (keeps all values above a support threshold),
//! and [`PolicyResolver`] wrapping one order-sensitive
//! [`ConflictPolicy`](datatamer_entity::consolidate::ConflictPolicy).
//! Every composite is built by
//! [`merge_composite`](datatamer_entity::consolidate::merge_composite)
//! driven by the registry. Registries are configured declaratively via
//! [`RegistryConfig`] on `DataTamerConfig`.
//! Group merging stays rayon-parallel and byte-deterministic at any thread
//! count.

pub mod grouping;
mod registry;
mod reliability;
mod resolve;

pub use grouping::{BlockedErConfig, GroupingReport, GroupingStrategy, ScorerSpec};
pub use registry::{RegistryConfig, ResolverRegistry, ResolverSpec};
pub use reliability::SourceReliability;
pub use resolve::{
    LatestWins, MajorityVote, MultiTruth, PolicyResolver, ProvenancedValue, Resolved,
    ValueResolver,
};

use std::collections::HashMap;

use datatamer_model::{Record, Value};
use datatamer_sim as sim;
use datatamer_text::normalize::canonical_name;
use rayon::prelude::*;

/// Canonical fused attribute names (Table VI spellings).
pub const SHOW_NAME: &str = "SHOW_NAME";
pub const THEATER: &str = "THEATER";
pub const PERFORMANCE: &str = "PERFORMANCE";
pub const TEXT_FEED: &str = "TEXT_FEED";
pub const CHEAPEST_PRICE: &str = "CHEAPEST_PRICE";
pub const FIRST: &str = "FIRST";

/// One fused entity with provenance counts.
#[derive(Debug, Clone)]
pub struct FusedEntity {
    /// Canonical grouping key (lowercased, article-stripped show name).
    pub key: String,
    /// The composite record.
    pub record: Record,
    /// Input records merged into it.
    pub member_count: usize,
    /// Mean per-attribute resolution confidence, when any dispatched
    /// resolver reported one (e.g. [`MajorityVote`]'s support fraction,
    /// [`SourceReliability`]'s winning weight share). `None` when no
    /// resolver in the routing quantifies confidence — distinct from a
    /// measured low confidence.
    pub confidence: Option<f64>,
}

/// One fusion candidate group: the canonical key and member indexes into
/// the record slice, in first-seen order.
pub type FusionGroup = (String, Vec<usize>);

/// Entity-consolidation half of fusion: group record indexes by the
/// canonical form of `SHOW_NAME`, attaching a near-miss name (typos, case
/// damage) to the first existing group whose key it matches at Jaro-Winkler
/// ≥ `threshold`.
///
/// The scan is inherently sequential (each record may attach to a group an
/// earlier record created), but it is cheap: the quadratic part — merging
/// — happens per group in [`merge_groups_with`].
pub fn group_records(records: &[Record], threshold: f64) -> Vec<FusionGroup> {
    let mut groups: Vec<FusionGroup> = Vec::new();
    let mut by_key: HashMap<String, usize> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        let Some(name) = r.get_text(SHOW_NAME) else { continue };
        let canon = canonical_name(&name);
        if canon.is_empty() {
            continue;
        }
        let group_idx = match by_key.get(&canon) {
            Some(g) => *g,
            None => {
                // Fuzzy attachment against existing group keys (both sides
                // canonicalised once, not once per comparison).
                let attach = groups.iter().position(|(key, _)| {
                    *key == canon || sim::jaro_winkler(key, &canon) >= threshold
                });
                match attach {
                    Some(g) => {
                        by_key.insert(canon.clone(), g);
                        g
                    }
                    None => {
                        groups.push((canon.clone(), Vec::new()));
                        by_key.insert(canon.clone(), groups.len() - 1);
                        groups.len() - 1
                    }
                }
            }
        };
        groups[group_idx].1.push(i);
    }
    groups
}

/// Resolve one candidate group into a composite record through a resolver
/// registry.
///
/// The composite is built by
/// [`datatamer_entity::consolidate::merge_composite`]: identity from the
/// first member, first-seen attribute order, null values never reaching a
/// resolver, all-null attributes staying [`Value::Null`]. Each attribute's
/// non-null values are tagged with provenance (source id, record id,
/// cluster rank) and handed to the registry's dispatched resolver. A
/// [`Resolved::Multi`] survivor set lands as a [`Value::Array`] (a single
/// survivor as the scalar, an empty set as null, same as
/// [`Resolved::None`]).
pub fn resolve_group(members: &[&Record], registry: &ResolverRegistry) -> Record {
    resolve_group_with_confidence(members, registry).0
}

/// [`resolve_group`] plus the mean per-attribute confidence across the
/// attributes whose dispatched resolver reported one (`None` when no
/// resolver did). Attributes resolve in first-seen order sequentially, so
/// the mean is a deterministic float summation at any thread count.
pub fn resolve_group_with_confidence(
    members: &[&Record],
    registry: &ResolverRegistry,
) -> (Record, Option<f64>) {
    let mut confidence_sum = 0.0;
    let mut confidence_count = 0usize;
    let record = datatamer_entity::consolidate::merge_composite(members, |attr, values| {
        let provenanced: Vec<ProvenancedValue<'_>> = values
            .iter()
            .map(|&(rank, value)| ProvenancedValue {
                value,
                source: members[rank].source,
                record: members[rank].id,
                rank,
            })
            .collect();
        let (resolved, confidence) = registry.resolve_with_confidence(attr, &provenanced);
        if let Some(c) = confidence {
            confidence_sum += c;
            confidence_count += 1;
        }
        match resolved {
            Resolved::Single(v) => v,
            Resolved::Multi(mut vs) => match vs.len() {
                0 => Value::Null,
                1 => vs.remove(0),
                _ => Value::Array(vs),
            },
            Resolved::None => Value::Null,
        }
    });
    let confidence = (confidence_count > 0)
        .then(|| confidence_sum / confidence_count as f64);
    (record, confidence)
}

/// Merge half of fusion: collapse each candidate group into one composite
/// entity through a resolver registry. Groups merge independently, so this
/// fans out across the rayon team; output order is group order at any
/// thread count, and every built-in resolver is deterministic, so the
/// output is byte-identical at any pool width.
pub fn merge_groups_with(
    records: &[Record],
    groups: &[FusionGroup],
    registry: &ResolverRegistry,
) -> Vec<FusedEntity> {
    groups.par_iter().map(|group| merge_group(|i| &records[i], group, registry)).collect()
}

/// Collapse one candidate group into its composite entity; `record`
/// resolves a member index to its record.
pub(crate) fn merge_group<'r>(
    record: impl Fn(usize) -> &'r Record,
    (key, members): &FusionGroup,
    registry: &ResolverRegistry,
) -> FusedEntity {
    let refs: Vec<&Record> = members.iter().map(|&i| record(i)).collect();
    let (composite, confidence) = resolve_group_with_confidence(&refs, registry);
    FusedEntity { key: key.clone(), record: composite, member_count: members.len(), confidence }
}

/// Fuse records (text-derived + structured, already renamed to canonical
/// attribute spellings) into one composite per distinct show, resolving
/// conflicts through `registry`.
///
/// Record order matters twice: earlier records win order-sensitive
/// resolvers (e.g. `Policy(First)`), and grouping attaches fuzzily to the
/// earliest matching group — so callers pass the cleanest source first.
/// This is [`group_records`] at `threshold` followed by
/// [`merge_groups_with`]; the staged pipeline runs the halves as separate
/// stages.
pub fn fuse_records_with(
    records: &[Record],
    threshold: f64,
    registry: &ResolverRegistry,
) -> Vec<FusedEntity> {
    merge_groups_with(records, &group_records(records, threshold), registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{RecordId, SourceId, Value};

    fn rec(src: u32, id: u64, fields: Vec<(&str, &str)>) -> Record {
        Record::from_pairs(
            SourceId(src),
            RecordId(id),
            fields.into_iter().map(|(k, v)| (k, Value::from(v))).collect(),
        )
    }

    const FUZZY: f64 = 0.88;

    /// [`fuse_records_with`] under the standard Broadway registry.
    fn fuse_broadway(records: &[Record]) -> Vec<FusedEntity> {
        fuse_records_with(records, FUZZY, &ResolverRegistry::broadway())
    }

    #[test]
    fn table_v_to_vi_enrichment() {
        // Structured record (FTABLES, cleanest source — listed first).
        let structured = rec(
            0,
            0,
            vec![
                (SHOW_NAME, "Matilda"),
                (THEATER, "Shubert 225 W. 44th St between 7th and 8th"),
                (
                    PERFORMANCE,
                    "Tues at 7pm Wed at 8pm Thurs at 7pm Fri-Sat at 8pm Wed, Sat at 2pm Sun at 3pm",
                ),
                (CHEAPEST_PRICE, "$27"),
                (FIRST, "3/4/2013"),
            ],
        );
        // Text record.
        let text = rec(
            1,
            1,
            vec![
                (SHOW_NAME, "Matilda"),
                (TEXT_FEED, "..And Matilda an award-winning import from London, grossed 960,998.."),
            ],
        );
        let fused = fuse_broadway(&[structured, text]);
        assert_eq!(fused.len(), 1);
        let r = &fused[0].record;
        assert_eq!(fused[0].member_count, 2);
        assert_eq!(r.get_text(SHOW_NAME).as_deref(), Some("Matilda"));
        assert!(r.get_text(THEATER).unwrap().starts_with("Shubert"));
        assert!(r.get_text(TEXT_FEED).unwrap().contains("960,998"));
        assert_eq!(r.get_text(CHEAPEST_PRICE).as_deref(), Some("$27"));
        assert_eq!(r.get_text(FIRST).as_deref(), Some("3/4/2013"));
    }

    #[test]
    fn cheapest_price_takes_numeric_min_across_sources() {
        let a = rec(0, 0, vec![(SHOW_NAME, "Wicked"), (CHEAPEST_PRICE, "$99")]);
        let b = rec(1, 1, vec![(SHOW_NAME, "wicked"), (CHEAPEST_PRICE, "$45")]);
        let fused = fuse_broadway(&[a, b]);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].record.get_text(CHEAPEST_PRICE).as_deref(), Some("$45"));
    }

    #[test]
    fn typo_names_attach_fuzzily() {
        let a = rec(0, 0, vec![(SHOW_NAME, "Goodfellas"), (CHEAPEST_PRICE, "$30")]);
        let b = rec(1, 1, vec![(SHOW_NAME, "Goodfelas"), (TEXT_FEED, "typo feed")]);
        let c = rec(2, 2, vec![(SHOW_NAME, "Annie"), (CHEAPEST_PRICE, "$50")]);
        let fused = fuse_broadway(&[a, b, c]);
        assert_eq!(fused.len(), 2, "{:?}", fused.iter().map(|f| &f.key).collect::<Vec<_>>());
        let good = fused.iter().find(|f| f.key == "goodfellas").unwrap();
        assert_eq!(good.member_count, 2);
        assert!(good.record.get_text(TEXT_FEED).is_some());
    }

    #[test]
    fn articles_and_case_unify() {
        let a = rec(0, 0, vec![(SHOW_NAME, "The Walking Dead")]);
        let b = rec(1, 1, vec![(SHOW_NAME, "WALKING DEAD")]);
        let fused = fuse_broadway(&[a, b]);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].key, "walking dead");
    }

    #[test]
    fn records_without_show_name_are_skipped() {
        let a = rec(0, 0, vec![("other", "x")]);
        let b = rec(1, 1, vec![(SHOW_NAME, "Annie")]);
        let fused = fuse_broadway(&[a, b]);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].key, "annie");
    }

    #[test]
    fn first_policy_prefers_earlier_records() {
        let a = rec(0, 0, vec![(SHOW_NAME, "Annie"), (THEATER, "Palace 1564 Broadway")]);
        let b = rec(1, 1, vec![(SHOW_NAME, "Annie"), (THEATER, "Gershwin 222 W. 51st St much longer string")]);
        let fused = fuse_broadway(&[a, b]);
        assert!(fused[0].record.get_text(THEATER).unwrap().starts_with("Palace"));
    }

    #[test]
    fn empty_input() {
        assert!(fuse_broadway(&[]).is_empty());
    }

    #[test]
    fn fuse_records_with_routes_attributes_to_their_resolvers() {
        let registry = ResolverRegistry::new(Box::new(MajorityVote))
            .with("RATING", Box::new(MultiTruth { min_support: 0.3 }))
            .with("STATUS", Box::new(LatestWins));
        let records = vec![
            rec(0, 0, vec![(SHOW_NAME, "Pippin"), ("RATING", "PG"), ("STATUS", "previews")]),
            rec(1, 1, vec![(SHOW_NAME, "Pippin"), ("RATING", "PG-13"), ("STATUS", "open")]),
            rec(2, 2, vec![(SHOW_NAME, "Pippin"), ("RATING", "PG"), ("STATUS", "open")]),
        ];
        let fused = fuse_records_with(&records, FUZZY, &registry);
        assert_eq!(fused.len(), 1);
        let r = &fused[0].record;
        // MultiTruth keeps both ratings (support-major order) as an array.
        assert_eq!(
            r.get("RATING"),
            Some(&Value::Array(vec![Value::from("PG"), Value::from("PG-13")]))
        );
        // LatestWins takes the provenance-latest record's status.
        assert_eq!(r.get_text("STATUS").as_deref(), Some("open"));
        // Default majority vote handles the name.
        assert_eq!(r.get_text(SHOW_NAME).as_deref(), Some("Pippin"));
    }

    #[test]
    fn empty_multi_and_none_both_resolve_to_null() {
        // A custom resolver that filters every candidate out must behave
        // the same whether it reports Multi(vec![]) or None.
        struct DropAll(bool);
        impl ValueResolver for DropAll {
            fn name(&self) -> &'static str {
                "drop_all"
            }
            fn resolve(&self, _attr: &str, _values: &[ProvenancedValue<'_>]) -> Resolved {
                if self.0 {
                    Resolved::Multi(Vec::new())
                } else {
                    Resolved::None
                }
            }
        }
        for empty_multi in [true, false] {
            let registry = ResolverRegistry::new(Box::new(MajorityVote))
                .with("DOOMED", Box::new(DropAll(empty_multi)));
            let records = vec![
                rec(0, 0, vec![(SHOW_NAME, "Cats"), ("DOOMED", "x")]),
                rec(1, 1, vec![(SHOW_NAME, "Cats"), ("DOOMED", "y")]),
            ];
            let fused = fuse_records_with(&records, FUZZY, &registry);
            assert_eq!(
                fused[0].record.get("DOOMED"),
                Some(&Value::Null),
                "empty_multi={empty_multi}"
            );
        }
    }

    #[test]
    fn fused_confidence_averages_reporting_attributes() {
        // Two attributes under MajorityVote: SHOW_NAME unanimous (1.0),
        // STATUS split 2-vs-1 (2/3) — the entity confidence is their mean.
        let registry = ResolverRegistry::new(Box::new(MajorityVote));
        let records = vec![
            rec(0, 0, vec![(SHOW_NAME, "Annie"), ("STATUS", "open")]),
            rec(1, 1, vec![(SHOW_NAME, "Annie"), ("STATUS", "open")]),
            rec(2, 2, vec![(SHOW_NAME, "Annie"), ("STATUS", "closed")]),
        ];
        let fused = fuse_records_with(&records, FUZZY, &registry);
        assert_eq!(fused.len(), 1);
        let expected = (1.0 + 2.0 / 3.0) / 2.0;
        let got = fused[0].confidence.expect("majority vote reports confidence");
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn policy_only_routing_reports_no_confidence() {
        // The broadway registry is all order-sensitive PolicyResolvers,
        // which have no confidence notion — the channel stays None rather
        // than faking a number.
        let records = vec![
            rec(0, 0, vec![(SHOW_NAME, "Annie"), (CHEAPEST_PRICE, "$45")]),
            rec(1, 1, vec![(SHOW_NAME, "Annie"), (CHEAPEST_PRICE, "$39")]),
        ];
        let fused = fuse_broadway(&records);
        assert_eq!(fused[0].confidence, None);

        // Mixed routing: only the majority-voted attribute contributes.
        let registry = ResolverRegistry::new(Box::new(PolicyResolver(
            datatamer_entity::consolidate::ConflictPolicy::First,
        )))
        .with(SHOW_NAME, Box::new(MajorityVote));
        let fused = fuse_records_with(&records, FUZZY, &registry);
        assert_eq!(fused[0].confidence, Some(1.0), "only SHOW_NAME reports, unanimously");
    }

    #[test]
    fn all_null_attribute_stays_null_through_registry() {
        let mut a = rec(0, 0, vec![(SHOW_NAME, "Cats")]);
        a.set("GONE", Value::Null);
        let b = rec(1, 1, vec![(SHOW_NAME, "Cats")]);
        let fused = fuse_records_with(
            &[a, b],
            FUZZY,
            &ResolverRegistry::new(Box::new(MajorityVote)),
        );
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].record.get("GONE"), Some(&Value::Null));
    }
}
