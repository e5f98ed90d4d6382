//! Property tests for the data model: flattening preserves leaves, value
//! ordering is a total order, documents behave like ordered maps, and the
//! attribute profile's streaming moments match batch computation.

use proptest::prelude::*;

use datatamer_model::{
    flatten, ArrayMode, AttributeProfile, Document, FlattenOptions, Record, RecordId, SourceId,
    Value,
};

fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        prop::num::f64::NORMAL.prop_map(Value::Float),
        "[a-z0-9 ]{0,12}".prop_map(Value::Str),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    scalar().prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Array),
            prop::collection::vec(("[a-z]{1,6}", inner), 0..3)
                .prop_map(|p| Value::Doc(Document::from_pairs(p))),
        ]
    })
}

fn document() -> impl Strategy<Value = Document> {
    prop::collection::vec(("[a-z]{1,6}", value()), 0..5).prop_map(Document::from_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn index_mode_flatten_preserves_scalar_leaves(doc in document()) {
        let opts = FlattenOptions { array_mode: ArrayMode::Index, ..Default::default() };
        let records = flatten(&doc, SourceId(0), RecordId(0), &opts);
        prop_assert_eq!(records.len(), 1, "index mode never multiplies records");
        let record = &records[0];
        // Every scalar leaf appears exactly once, under its dotted path.
        let leaves = doc.leaves();
        prop_assert_eq!(record.len(), leaves.len());
        for (path, leaf) in leaves {
            prop_assert_eq!(record.get(&path), Some(leaf), "missing {}", path);
        }
    }

    #[test]
    fn total_cmp_is_a_total_order(a in value(), b in value(), c in value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        // Reflexivity.
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        // Transitivity of <=.
        if ab != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert!(a.total_cmp(&c) != Ordering::Greater);
        }
    }

    #[test]
    fn document_behaves_like_ordered_map(pairs in prop::collection::vec(("[a-z]{1,4}", 0i64..100), 0..12)) {
        let doc = Document::from_pairs(pairs.clone());
        // Last write per key wins.
        let mut expected: Vec<(String, i64)> = Vec::new();
        for (k, v) in &pairs {
            match expected.iter_mut().find(|(ek, _)| ek == k) {
                Some((_, ev)) => *ev = *v,
                None => expected.push((k.clone(), *v)),
            }
        }
        prop_assert_eq!(doc.len(), expected.len());
        for (k, v) in &expected {
            prop_assert_eq!(doc.get(k), Some(&Value::Int(*v)));
        }
        // Insertion order preserved.
        let keys: Vec<&str> = doc.keys().collect();
        let expected_keys: Vec<&str> = expected.iter().map(|(k, _)| k.as_str()).collect();
        prop_assert_eq!(keys, expected_keys);
    }

    #[test]
    fn path_values_agree_with_leaves(doc in document()) {
        for (path, leaf) in doc.leaves() {
            let mut found = Vec::new();
            doc.path_values(&path, &mut found);
            prop_assert_eq!(found, vec![leaf.clone()], "path {}", path);
        }
    }

    #[test]
    fn profile_moments_match_batch(xs in prop::collection::vec(-1e6f64..1e6, 1..60)) {
        let mut profile = AttributeProfile::default();
        for x in &xs {
            profile.observe(&Value::Float(*x));
        }
        let stats = profile.numeric_stats().expect("numeric input");
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        prop_assert!((stats.mean - mean).abs() < 1e-6 * mean.abs().max(1.0));
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(stats.min, min);
        prop_assert_eq!(stats.max, max);
        if xs.len() > 1 {
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((stats.std - var.sqrt()).abs() < 1e-4 * var.sqrt().max(1.0));
        }
    }

    #[test]
    fn profile_merge_equals_single_pass(
        xs in prop::collection::vec(-1e4f64..1e4, 0..30),
        ys in prop::collection::vec(-1e4f64..1e4, 0..30),
    ) {
        let mut merged = AttributeProfile::default();
        for x in &xs {
            merged.observe(&Value::Float(*x));
        }
        let mut other = AttributeProfile::default();
        for y in &ys {
            other.observe(&Value::Float(*y));
        }
        merged.merge(&other);

        let mut single = AttributeProfile::default();
        for v in xs.iter().chain(ys.iter()) {
            single.observe(&Value::Float(*v));
        }
        prop_assert_eq!(merged.count, single.count);
        match (merged.numeric_stats(), single.numeric_stats()) {
            (Some(m), Some(s)) => {
                prop_assert!((m.mean - s.mean).abs() < 1e-6 * s.mean.abs().max(1.0));
                prop_assert!((m.std - s.std).abs() < 1e-5 * s.std.max(1.0));
            }
            (None, None) => {}
            other => prop_assert!(false, "stats presence diverged: {:?}", other.0.is_some()),
        }
    }

    #[test]
    fn record_rename_preserves_everything_else(
        fields in prop::collection::vec(("[a-z]{1,5}", 0i64..10), 1..8),
    ) {
        let mut record = Record::from_pairs(
            SourceId(0),
            RecordId(0),
            fields.clone(),
        );
        let original_len = record.len();
        let first_name = record.field_names().next().unwrap().to_owned();
        record.rename(&first_name, "renamed_attr");
        prop_assert_eq!(record.len(), original_len);
        prop_assert!(record.get("renamed_attr").is_some());
    }
}
