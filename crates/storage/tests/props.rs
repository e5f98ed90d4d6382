//! Property tests for the storage engine: encode/decode roundtrips over
//! arbitrary documents, extent persistence, and index postings vs scan
//! filters.

use proptest::prelude::*;

use datatamer_model::{Document, Value};
use datatamer_storage::encode::{decode_document, encode_document, encoded_len};
use datatamer_storage::{Collection, CollectionConfig, IndexSpec};

/// Strategy for arbitrary scalar values.
fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks PartialEq-based roundtrip checks
        // (bitwise NaN roundtripping has its own unit test).
        prop::num::f64::NORMAL.prop_map(Value::Float),
        "[a-zA-Z0-9 €$%.,']{0,24}".prop_map(Value::Str),
    ]
}

/// Strategy for arbitrary values with bounded nesting.
fn value() -> impl Strategy<Value = Value> {
    scalar().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec(("[a-z]{1,8}", inner), 0..4).prop_map(|pairs| {
                Value::Doc(Document::from_pairs(pairs))
            }),
        ]
    })
}

/// Strategy for arbitrary documents.
fn document() -> impl Strategy<Value = Document> {
    prop::collection::vec(("[a-z_]{1,10}", value()), 0..6)
        .prop_map(Document::from_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_decode_roundtrips(doc in document()) {
        let bytes = encode_document(&doc);
        let decoded = decode_document(&bytes).expect("decode");
        prop_assert_eq!(&decoded, &doc);
        prop_assert_eq!(bytes.len(), encoded_len(&Value::Doc(doc)));
    }

    #[test]
    fn truncated_encodings_never_panic(doc in document(), cut in 0usize..64) {
        let bytes = encode_document(&doc);
        let cut = cut.min(bytes.len());
        // Any prefix must either fail cleanly or (cut == len) succeed.
        let result = decode_document(&bytes[..cut]);
        if cut == bytes.len() {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err());
        }
    }

    #[test]
    fn insert_then_get_returns_same_document(docs in prop::collection::vec(document(), 1..20)) {
        let col = Collection::new(
            "p",
            CollectionConfig { extent_size: 512, shards: 3, ..Default::default() },
        ).unwrap();
        let ids: Vec<_> = docs.iter().map(|d| col.insert(d).unwrap()).collect();
        for (id, doc) in ids.iter().zip(&docs) {
            let fetched = col.get(*id).unwrap();
            prop_assert_eq!(fetched.as_ref(), Some(doc));
        }
        prop_assert_eq!(col.len(), docs.len() as u64);
    }

    // Index maintenance across inserts, deletes and a late `create_index`
    // backfill: every key's postings are exactly the ids a scan filter
    // finds for that key.
    #[test]
    fn indexed_query_equals_scan(
        keys in prop::collection::vec(0i64..5, 1..40),
        delete_mask in prop::collection::vec(any::<bool>(), 40),
        index_first in any::<bool>(),
    ) {
        let col = Collection::new(
            "idx",
            CollectionConfig { extent_size: 256, shards: 3, ..Default::default() },
        ).unwrap();
        if index_first {
            col.create_index(IndexSpec::new("by_k", "k")).unwrap();
        }
        let docs: Vec<Document> = keys.iter().map(|k| {
            let mut d = Document::new();
            d.set("k", Value::Int(*k));
            d
        }).collect();
        let ids = col.insert_many(&docs).unwrap();
        for (id, del) in ids.iter().zip(&delete_mask) {
            if *del {
                col.delete(*id).unwrap();
            }
        }
        if !index_first {
            col.create_index(IndexSpec::new("by_k", "k")).unwrap();
        }
        for probe in 0i64..5 {
            let key = Value::Int(probe);
            let mut scan = col.parallel_scan(|id, d| (d.get("k") == Some(&key)).then_some(id))
                .unwrap();
            let mut via_index = col.with_index("by_k", |i| i.lookup(&key)).unwrap();
            scan.sort_unstable();
            via_index.sort_unstable();
            prop_assert_eq!(scan, via_index, "key {}", probe);
        }
    }

    #[test]
    fn stats_count_tracks_inserts_and_deletes(
        docs in prop::collection::vec(document(), 1..15),
        delete_mask in prop::collection::vec(any::<bool>(), 15),
    ) {
        let col = Collection::new("s", CollectionConfig::default()).unwrap();
        let ids: Vec<_> = docs.iter().map(|d| col.insert(d).unwrap()).collect();
        let mut live = docs.len() as u64;
        for (id, del) in ids.iter().zip(&delete_mask) {
            if *del && col.delete(*id).unwrap() {
                live -= 1;
            }
        }
        let stats = col.stats("dt");
        prop_assert_eq!(stats.count, live);
        prop_assert_eq!(col.parallel_scan(|_, _| Some(())).unwrap().len() as u64, live);
    }

    #[test]
    fn count_by_sums_to_live_docs(keys in prop::collection::vec(0i64..6, 1..40)) {
        let col = Collection::new("c", CollectionConfig::default()).unwrap();
        for k in &keys {
            let mut d = Document::new();
            d.set("k", Value::Int(*k));
            col.insert(&d).unwrap();
        }
        let total: u64 = col.count_by("k").unwrap().into_iter().map(|(_, n)| n).sum();
        prop_assert_eq!(total, keys.len() as u64);
    }
}
