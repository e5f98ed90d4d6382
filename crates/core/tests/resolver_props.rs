//! Property tests for the truth-discovery resolvers: resolution is
//! permutation-invariant in input order (the order-sensitive policies read
//! cluster order from each value's rank, so they are invariant to slice
//! order), majority winners carry maximal support, multi-truth survivors
//! are a subset of the inputs, latest-wins follows record-provenance order
//! exactly, and a resolved group covers every member attribute with values
//! that came from the members.

use proptest::prelude::*;

use datatamer_core::fusion::{
    resolve_group, ConflictPolicy, ProvenancedValue, RegistryConfig, Resolved, ResolverSpec,
};
use datatamer_model::{Record, RecordId, SourceId, Value};

/// A conflict group: `(text, source, record)` triples. The tight alphabet
/// forces agreement clusters and ties; the tight id ranges force shared
/// and duplicated provenance.
fn conflict_group() -> impl Strategy<Value = Vec<(String, u32, u64)>> {
    prop::collection::vec(("[a-c]{1,2}", 0u32..4, 0u64..8), 1..12)
}

/// Materialise provenanced values over `values`, visiting `entries` in the
/// order given by `order`. Rank is the slice position, as in real groups.
fn provenanced<'a>(
    values: &'a [Value],
    entries: &[(String, u32, u64)],
    order: &[usize],
) -> Vec<ProvenancedValue<'a>> {
    order
        .iter()
        .enumerate()
        .map(|(rank, &i)| ProvenancedValue {
            value: &values[i],
            source: SourceId(entries[i].1),
            record: RecordId(entries[i].2),
            rank,
        })
        .collect()
}

/// Like [`provenanced`], but each value keeps its rank — its index in
/// `entries` — wherever `order` puts it in the slice.
fn ranked<'a>(
    values: &'a [Value],
    entries: &[(String, u32, u64)],
    order: &[usize],
) -> Vec<ProvenancedValue<'a>> {
    order
        .iter()
        .map(|&i| ProvenancedValue {
            value: &values[i],
            source: SourceId(entries[i].1),
            record: RecordId(entries[i].2),
            rank: i,
        })
        .collect()
}

/// The order-free resolvers under test.
fn resolvers() -> Vec<(&'static str, ResolverSpec)> {
    vec![
        ("majority_vote", ResolverSpec::MajorityVote),
        ("source_reliability", ResolverSpec::SourceReliability { iterations: 5 }),
        ("latest_wins", ResolverSpec::LatestWins),
        ("multi_truth_0.25", ResolverSpec::MultiTruth { min_support: 0.25 }),
        ("multi_truth_0.6", ResolverSpec::MultiTruth { min_support: 0.6 }),
    ]
}

/// Every order-sensitive policy.
fn policies() -> Vec<ResolverSpec> {
    [
        ConflictPolicy::MajorityVote,
        ConflictPolicy::Longest,
        ConflictPolicy::First,
        ConflictPolicy::NumericMin,
        ConflictPolicy::NumericMax,
    ]
    .into_iter()
    .map(ResolverSpec::Policy)
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn resolution_is_permutation_invariant(
        entries in conflict_group(),
        rot in 0usize..16,
    ) {
        let values: Vec<Value> =
            entries.iter().map(|(t, _, _)| Value::from(t.as_str())).collect();
        let n = entries.len();
        let forward: Vec<usize> = (0..n).collect();
        let mut rotated = forward.clone();
        rotated.rotate_left(rot % n);
        let mut reversed = forward.clone();
        reversed.reverse();

        for (name, resolver) in resolvers() {
            let base = resolver.resolve(&provenanced(&values, &entries, &forward));
            for (label, order) in [("rotated", &rotated), ("reversed", &reversed)] {
                let permuted = resolver.resolve(&provenanced(&values, &entries, order));
                prop_assert_eq!(
                    &base, &permuted,
                    "{} must be {}-invariant", name, label
                );
            }
        }
    }

    #[test]
    fn majority_vote_winner_has_maximal_support(entries in conflict_group()) {
        let values: Vec<Value> =
            entries.iter().map(|(t, _, _)| Value::from(t.as_str())).collect();
        let order: Vec<usize> = (0..entries.len()).collect();
        let (resolved, _) = ResolverSpec::MajorityVote.resolve(&provenanced(&values, &entries, &order));
        let Resolved::Single(winner) = resolved else {
            return Err(TestCaseError::fail("majority vote resolves to a single value"));
        };
        let support = |text: &str| entries.iter().filter(|(t, _, _)| t == text).count();
        let winner_text = winner.to_text();
        let winner_support = support(&winner_text);
        prop_assert!(winner_support >= 1, "winner comes from the inputs");
        for (text, _, _) in &entries {
            prop_assert!(
                winner_support >= support(text),
                "winner '{}' ({}) must not be out-supported by '{}' ({})",
                winner_text, winner_support, text, support(text)
            );
        }
    }

    #[test]
    fn multi_truth_output_is_a_subset_of_inputs(
        entries in conflict_group(),
        support_pct in 5u32..95,
    ) {
        let values: Vec<Value> =
            entries.iter().map(|(t, _, _)| Value::from(t.as_str())).collect();
        let order: Vec<usize> = (0..entries.len()).collect();
        let resolver = ResolverSpec::MultiTruth { min_support: f64::from(support_pct) / 100.0 };
        let (resolved, _) = resolver.resolve(&provenanced(&values, &entries, &order));
        let survivors = resolved.values();
        prop_assert!(!survivors.is_empty(), "an attribute with values never empties");
        let mut seen: Vec<String> = Vec::new();
        for v in survivors {
            let text = v.to_text();
            prop_assert!(
                entries.iter().any(|(t, _, _)| *t == text),
                "survivor '{}' must be one of the inputs", text
            );
            prop_assert!(!seen.contains(&text), "survivors are distinct: '{}'", text);
            seen.push(text);
        }
    }

    #[test]
    fn latest_wins_follows_record_provenance_order(entries in conflict_group()) {
        let values: Vec<Value> =
            entries.iter().map(|(t, _, _)| Value::from(t.as_str())).collect();
        let order: Vec<usize> = (0..entries.len()).collect();
        let (resolved, _) = ResolverSpec::LatestWins.resolve(&provenanced(&values, &entries, &order));
        let expected = entries
            .iter()
            .map(|(t, s, r)| (*r, *s, t.clone()))
            .max()
            .expect("non-empty group")
            .2;
        prop_assert_eq!(resolved, Resolved::Single(Value::from(expected.as_str())));
    }

    #[test]
    fn source_reliability_unanimity_always_wins(
        text in "[a-z]{1,4}",
        n in 1usize..8,
    ) {
        let values: Vec<Value> = (0..n).map(|_| Value::from(text.as_str())).collect();
        let entries: Vec<(String, u32, u64)> =
            (0..n).map(|i| (text.clone(), i as u32, i as u64)).collect();
        let order: Vec<usize> = (0..n).collect();
        let spec = ResolverSpec::SourceReliability { iterations: 5 };
        let (resolved, _) = spec.resolve(&provenanced(&values, &entries, &order));
        prop_assert_eq!(resolved, Resolved::Single(Value::from(text.as_str())));
    }

    #[test]
    fn policies_follow_rank_not_slice_order(
        // Digits and `$` make numeric, money and non-numeric texts of
        // tied lengths, so every policy's tie break is exercised.
        entries in prop::collection::vec(("[a1-3$]{1,3}", 0u32..4, 0u64..8), 1..10),
        rot in 0usize..16,
    ) {
        let values: Vec<Value> =
            entries.iter().map(|(t, _, _)| Value::from(t.as_str())).collect();
        let n = entries.len();
        let forward: Vec<usize> = (0..n).collect();
        let mut rotated = forward.clone();
        rotated.rotate_left(rot % n);
        let mut reversed = forward.clone();
        reversed.reverse();

        for policy in policies() {
            let base = policy.resolve(&ranked(&values, &entries, &forward));
            for (label, order) in [("rotated", &rotated), ("reversed", &reversed)] {
                let permuted = policy.resolve(&ranked(&values, &entries, order));
                prop_assert_eq!(
                    &base, &permuted,
                    "{} must follow rank, not {} slice order", policy.name(), label
                );
            }
        }
    }

    #[test]
    fn merge_covers_union_of_attributes(
        cluster in prop::collection::vec(
            prop::collection::vec(("[a-c]", "[a-z]{1,6}"), 1..4),
            1..5,
        ),
    ) {
        let records: Vec<Record> = cluster
            .iter()
            .enumerate()
            .map(|(i, fields)| {
                Record::from_pairs(
                    SourceId(0),
                    RecordId(i as u64),
                    fields.iter().map(|(k, v)| (k.clone(), Value::from(v.clone()))).collect(),
                )
            })
            .collect();
        let refs: Vec<&Record> = records.iter().collect();
        let registry =
            RegistryConfig::uniform(ResolverSpec::Policy(ConflictPolicy::MajorityVote));
        let (merged, _) = resolve_group(&refs, &registry);
        // Every attribute present in any member appears in the composite.
        for r in &records {
            for name in r.field_names() {
                prop_assert!(merged.get(name).is_some(), "lost attribute {}", name);
            }
        }
        // Majority vote picks an existing value.
        for (name, v) in merged.iter() {
            if v.is_null() {
                continue;
            }
            let seen = records.iter().any(|r| r.get(name) == Some(v));
            prop_assert!(seen, "invented value for {}", name);
        }
    }
}
