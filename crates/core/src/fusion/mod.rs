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
//! * **Truth discovery** — a [`RegistryConfig`] routes each attribute to a
//!   [`ResolverSpec`], which picks the surviving value(s) from a group's
//!   conflicting, provenance-tagged candidates ([`resolve_group`]).
//!
//! `ResolverSpec` is the one resolver type: majority vote, iterative
//! accu-style source reliability, latest-wins (record-provenance
//! freshness), multi-truth (every value above a support threshold), or one
//! order-sensitive [`ConflictPolicy`] applied in cluster order. The routing
//! is set once, on `DataTamerConfig::fusion_resolvers`, and fusion borrows
//! it. Group merging stays rayon-parallel and byte-deterministic at any
//! thread count.

pub mod grouping;
mod policy;
mod registry;
mod reliability;
mod resolve;

pub use grouping::{BlockedErConfig, GroupingReport, GroupingStrategy};
pub use policy::ConflictPolicy;
pub use registry::RegistryConfig;
pub use resolve::{ProvenancedValue, Resolved, ResolverSpec};

use std::collections::HashMap;

use datatamer_model::{Record, RecordId, SourceId, Value};
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
    /// resolver reported one (e.g. [`ResolverSpec::MajorityVote`]'s support
    /// fraction, [`ResolverSpec::SourceReliability`]'s winning weight
    /// share). `None` when no resolver in the routing quantifies
    /// confidence — distinct from a measured low confidence.
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
pub fn group_records<'a>(
    records: impl IntoIterator<Item = &'a Record>,
    threshold: f64,
) -> Vec<FusionGroup> {
    let mut groups: Vec<FusionGroup> = Vec::new();
    let mut by_key: HashMap<String, usize> = HashMap::new();
    for (i, r) in records.into_iter().enumerate() {
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
/// routing, plus the mean per-attribute confidence across the attributes
/// whose dispatched resolver reported one (`None` when no resolver did).
///
/// The composite's identity is the first member's `(source, id)`; every
/// attribute present in any member appears in first-seen order. Each
/// attribute's non-null values are tagged with provenance (source id,
/// record id, cluster rank) and handed to the resolver `registry` routes
/// it to; null values never reach a resolver, so an all-null attribute
/// resolves to no survivor. A [`Resolved::Multi`] survivor set lands as a
/// [`Value::Array`], a single survivor as the scalar, and no survivor as
/// [`Value::Null`]. Attributes resolve sequentially in first-seen order, so
/// the mean confidence is a deterministic float summation at any thread
/// count. An empty group resolves to an empty composite with identity
/// `(0, 0)`; fusion never forms one.
pub fn resolve_group(members: &[&Record], registry: &RegistryConfig) -> (Record, Option<f64>) {
    let (source, id) = members.first().map_or((SourceId(0), RecordId(0)), |r| r.key());
    let mut composite = Record::new(source, id);
    let mut attr_order: Vec<&str> = Vec::new();
    for r in members {
        for name in r.field_names() {
            if !attr_order.contains(&name) {
                attr_order.push(name);
            }
        }
    }
    let mut confidence_sum = 0.0;
    let mut confidence_count = 0usize;
    for attr in attr_order {
        let values: Vec<ProvenancedValue<'_>> = members
            .iter()
            .enumerate()
            .filter_map(|(rank, r)| {
                let value = r.get(attr).filter(|v| !v.is_null())?;
                Some(ProvenancedValue { value, source: r.source, record: r.id, rank })
            })
            .collect();
        let (resolved, confidence) = registry.resolver_of(attr).resolve(&values);
        if let Some(c) = confidence {
            confidence_sum += c;
            confidence_count += 1;
        }
        let value = match resolved {
            Resolved::Single(v) => v,
            Resolved::Multi(mut vs) if vs.len() <= 1 => vs.pop().unwrap_or(Value::Null),
            Resolved::Multi(vs) => Value::Array(vs),
        };
        composite.set(attr, value);
    }
    let confidence = (confidence_count > 0)
        .then(|| confidence_sum / confidence_count as f64);
    (composite, confidence)
}

/// Merge half of fusion: collapse each candidate group into one composite
/// entity through a resolver routing. Groups merge independently, so this
/// fans out across the rayon team; output order is group order at any
/// thread count, and every built-in resolver is deterministic, so the
/// output is byte-identical at any pool width.
pub fn merge_groups_with(
    records: &[Record],
    groups: &[FusionGroup],
    registry: &RegistryConfig,
) -> Vec<FusedEntity> {
    groups.par_iter().map(|group| merge_group(|i| &records[i], group, registry)).collect()
}

/// Collapse one candidate group into its composite entity; `record`
/// resolves a member index to its record.
pub(crate) fn merge_group<'r>(
    record: impl Fn(usize) -> &'r Record,
    (key, members): &FusionGroup,
    registry: &RegistryConfig,
) -> FusedEntity {
    let refs: Vec<&Record> = members.iter().map(|&i| record(i)).collect();
    let (composite, confidence) = resolve_group(&refs, registry);
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
    registry: &RegistryConfig,
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

    /// [`fuse_records_with`] under the standard Broadway routing.
    fn fuse_broadway(records: &[Record]) -> Vec<FusedEntity> {
        fuse_records_with(records, FUZZY, &RegistryConfig::broadway())
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
        let registry = RegistryConfig::uniform(ResolverSpec::MajorityVote)
            .with("RATING", ResolverSpec::MultiTruth { min_support: 0.3 })
            .with("STATUS", ResolverSpec::LatestWins);
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
    fn fused_confidence_averages_reporting_attributes() {
        // Two attributes under MajorityVote: SHOW_NAME unanimous (1.0),
        // STATUS split 2-vs-1 (2/3) — the entity confidence is their mean.
        let registry = RegistryConfig::uniform(ResolverSpec::MajorityVote);
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
        // The broadway routing is all order-sensitive policies, which have
        // no confidence notion — the channel stays None rather
        // than faking a number.
        let records = vec![
            rec(0, 0, vec![(SHOW_NAME, "Annie"), (CHEAPEST_PRICE, "$45")]),
            rec(1, 1, vec![(SHOW_NAME, "Annie"), (CHEAPEST_PRICE, "$39")]),
        ];
        let fused = fuse_broadway(&records);
        assert_eq!(fused[0].confidence, None);

        // Mixed routing: only the majority-voted attribute contributes.
        let registry = RegistryConfig::uniform(ResolverSpec::Policy(ConflictPolicy::First))
            .with(SHOW_NAME, ResolverSpec::MajorityVote);
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
            &RegistryConfig::uniform(ResolverSpec::MajorityVote),
        );
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].record.get("GONE"), Some(&Value::Null));
    }

    #[test]
    fn union_of_attributes_with_nulls() {
        let a = rec(3, 7, vec![("name", "Matilda")]);
        let b = rec(1, 1, vec![("name", "Matilda"), ("price", "$27")]);
        let registry = RegistryConfig::uniform(ResolverSpec::Policy(ConflictPolicy::MajorityVote));
        let (merged, _) = resolve_group(&[&a, &b], &registry);
        assert_eq!(merged.get_text("price").as_deref(), Some("$27"));
        assert_eq!(merged.len(), 2);
        // Identity comes from the first member.
        assert_eq!(merged.key(), (SourceId(3), RecordId(7)));
    }

    #[test]
    fn empty_group_resolves_to_an_empty_composite() {
        let (merged, confidence) = resolve_group(&[], &RegistryConfig::broadway());
        assert!(merged.is_empty());
        assert_eq!(confidence, None);
    }
}
