//! Property tests for entity consolidation: union-find matches a naive
//! transitive closure, cluster merges preserve attribute coverage, the
//! batch primitives (block → score → cluster) never invent or lose
//! records, and token blocking holds its output invariants (sorted,
//! deduplicated, ordered pairs, independent of run state) on both the
//! quadratic and the progressive-window path.

use proptest::prelude::*;

use datatamer_entity::blocking::Blocker;
use datatamer_entity::cluster::{cluster_pairs, UnionFind};
use datatamer_entity::consolidate::{merge_composite, ConflictPolicy};
use datatamer_entity::pairsim::{PairScorer, RecordSimilarity};
use datatamer_model::{Record, RecordId, SourceId, Value};

/// Records with a `name` attribute from generated strings.
fn named_records(names: &[String]) -> Vec<Record> {
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            Record::from_pairs(
                SourceId(0),
                RecordId(i as u64),
                vec![("name", Value::from(name.clone()))],
            )
        })
        .collect()
}

/// Naive transitive closure for comparison.
fn naive_clusters(n: usize, pairs: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut group: Vec<usize> = (0..n).collect();
    loop {
        let mut changed = false;
        for (a, b) in pairs {
            let (ga, gb) = (group[*a], group[*b]);
            if ga != gb {
                let target = ga.min(gb);
                for g in group.iter_mut() {
                    if *g == ga || *g == gb {
                        *g = target;
                    }
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut clusters: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, g) in group.iter().enumerate() {
        clusters.entry(*g).or_default().push(i);
    }
    clusters.into_values().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn union_find_matches_naive_closure(
        n in 1usize..30,
        raw_pairs in prop::collection::vec((0usize..30, 0usize..30), 0..40),
    ) {
        let pairs: Vec<(usize, usize)> = raw_pairs
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .collect();
        let fast = cluster_pairs(n, &pairs);
        let naive = naive_clusters(n, &pairs);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn connected_is_equivalence_relation(
        n in 2usize..20,
        raw_pairs in prop::collection::vec((0usize..20, 0usize..20), 0..30),
    ) {
        let mut uf = UnionFind::new(n);
        for (a, b) in &raw_pairs {
            uf.union(a % n, b % n);
        }
        for i in 0..n {
            prop_assert!(uf.connected(i, i), "reflexive");
            for j in 0..n {
                prop_assert_eq!(uf.connected(i, j), uf.connected(j, i), "symmetric");
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
        let merged = merge_composite(&refs, |_, values| {
            let plain: Vec<&Value> = values.iter().map(|&(_, v)| v).collect();
            ConflictPolicy::MajorityVote.resolve_values(&plain)
        });
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

    #[test]
    fn blocking_pairs_are_sorted_dedup_and_ordered(
        // A tiny alphabet with optional extra words forces shared tokens
        // and (under a small cap) oversized buckets.
        names in prop::collection::vec("[abcd ]{1,8}", 1..40),
    ) {
        let records = named_records(&names);
        let pairs = Blocker::new("name").with_bucket_cap(4).candidates(&records);
        for &(a, b) in &pairs {
            prop_assert!(a < b, "unordered pair ({a},{b})");
            prop_assert!(b < records.len(), "index out of range");
        }
        let mut normalized = pairs.clone();
        normalized.sort_unstable();
        normalized.dedup();
        prop_assert_eq!(&pairs, &normalized, "output must be sorted and deduplicated");
    }

    #[test]
    fn blocking_is_deterministic_across_fresh_blockers(
        names in prop::collection::vec("[abcd ]{1,8}", 1..30),
    ) {
        // Two independently built blockers (fresh token interners) must
        // emit identical candidates — the byte-determinism contract.
        let records = named_records(&names);
        let first = Blocker::new("name").with_bucket_cap(4).candidates(&records);
        let second = Blocker::new("name").with_bucket_cap(4).candidates(&records);
        prop_assert_eq!(first, second, "blocking must not depend on run state");
    }

    #[test]
    fn pipeline_clusters_partition_input(names in prop::collection::vec("[a-f]{2,6}", 1..30)) {
        let records = named_records(&names);
        let candidates = Blocker::new("name").candidates(&records);
        let ctx = PairScorer::Rules(RecordSimilarity::default()).prepare(&records);
        let clusters = cluster_pairs(records.len(), &ctx.accepted_pairs(&candidates, 0.75));
        // Clusters partition 0..n.
        let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..records.len()).collect();
        prop_assert_eq!(all, expected);
        // Identical names always cluster together (token blocking + score 1).
        for (i, a) in names.iter().enumerate() {
            for (j, b) in names.iter().enumerate().skip(i + 1) {
                if a == b {
                    let ca = clusters.iter().position(|c| c.contains(&i));
                    let cb = clusters.iter().position(|c| c.contains(&j));
                    prop_assert_eq!(ca, cb, "identical names split: {}", a);
                }
            }
        }
    }
}
