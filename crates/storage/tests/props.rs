//! Property tests for the storage engine: encode/decode roundtrips over
//! arbitrary documents, extent persistence, and measured index stats and
//! group-bys that no insert or declaration history can change.

use proptest::prelude::*;

use datatamer_model::{AttrKey, Document, Value};
use datatamer_storage::encode::{decode_document, encode_document, encoded_len};
use datatamer_storage::{BackendConfig, Collection, CollectionConfig, DocId, IndexSpec};

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

/// Paths the index-stats property declares indexes on.
const INDEXED_PATHS: [&str; 4] = ["a", "b", "a.c", "c"];

/// Documents over the field names of [`INDEXED_PATHS`], so paths resolve,
/// descend arrays of documents, or are missing; keys include `Int(3)` and
/// `Float(3.0)` (equal under `total_cmp`) and NaN.
fn indexable_document() -> impl Strategy<Value = Document> {
    let key = prop_oneof![
        Just(Value::Int(3)),
        Just(Value::Float(3.0)),
        Just(Value::Float(f64::NAN)),
        (0i64..3).prop_map(Value::Int),
        "[xy]{0,3}".prop_map(Value::Str),
    ];
    let value = key.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Array),
            prop::collection::vec(("[abc]", inner), 0..3)
                .prop_map(|pairs| Value::Doc(Document::from_pairs(pairs))),
        ]
    });
    prop::collection::vec(("[abc]", value), 0..4).prop_map(Document::from_pairs)
}

/// What a collection reports of its indexes: document count, `nindexes`,
/// `total_index_size`, and the group-by on every indexed path (keys
/// compared under `total_cmp`, so NaN equals itself).
type IndexReport = (u64, usize, usize, Vec<Vec<(AttrKey, u64)>>);

fn index_report(col: &Collection) -> IndexReport {
    let stats = col.stats("dt").unwrap();
    let groups = INDEXED_PATHS
        .iter()
        .map(|p| col.count_by(p).unwrap().into_iter().map(|(k, n)| (AttrKey(k), n)).collect())
        .collect();
    (stats.count, stats.nindexes, stats.total_index_size, groups)
}

fn declare_indexes(col: &Collection) {
    for (i, path) in INDEXED_PATHS.iter().enumerate() {
        col.create_index(IndexSpec::new(format!("i{i}"), *path)).unwrap();
    }
}

/// A collection holding `docs`, its indexes declared before or after the
/// inserts, which go in one batch or one at a time.
fn indexed_collection(
    docs: &[Document],
    backend: BackendConfig,
    declare_first: bool,
    batched: bool,
) -> Collection {
    let col = Collection::new(
        "x",
        CollectionConfig { extent_size: 256, shards: 3, backend },
    )
    .unwrap();
    if declare_first {
        declare_indexes(&col);
    }
    if batched {
        col.insert_many(docs).unwrap();
    } else {
        for d in docs {
            col.insert(d).unwrap();
        }
    }
    if !declare_first {
        declare_indexes(&col);
    }
    col
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

    // Every inserted document scans back under the id its insert
    // returned, and nothing else does.
    #[test]
    fn insert_then_get_returns_same_document(docs in prop::collection::vec(document(), 1..20)) {
        let col = Collection::new(
            "p",
            CollectionConfig { extent_size: 512, shards: 3, ..Default::default() },
        ).unwrap();
        let ids: Vec<DocId> = docs.iter().map(|d| col.insert(d).unwrap()).collect();
        let mut scanned = col.parallel_scan(|id, d| Some((id, d.clone()))).unwrap();
        scanned.sort_by_key(|(id, _)| *id);
        let mut inserted: Vec<(DocId, Document)> = ids.into_iter().zip(docs.iter().cloned()).collect();
        inserted.sort_by_key(|(id, _)| *id);
        prop_assert_eq!(scanned, inserted);
        prop_assert_eq!(col.len(), docs.len() as u64);
    }

    // The reported index sizes and group-bys are sums over stored
    // (document, key) entries: declaring the indexes before or after the
    // inserts, inserting in one batch or one at a time, and the memory or
    // file backend all report the same.
    #[test]
    fn index_stats_are_independent_of_history(
        docs in prop::collection::vec(indexable_document(), 1..30),
    ) {
        let dir = std::env::temp_dir()
            .join(format!("dt_props_index_stats_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reference = indexed_collection(&docs, BackendConfig::Memory, true, true);
        let want = index_report(&reference);
        let mut variant = 0;
        for file in [false, true] {
            for declare_first in [true, false] {
                for batched in [true, false] {
                    variant += 1;
                    let backend = if file {
                        BackendConfig::File { dir: dir.join(variant.to_string()) }
                    } else {
                        BackendConfig::Memory
                    };
                    let col = indexed_collection(&docs, backend, declare_first, batched);
                    let case = (file, declare_first, batched);
                    prop_assert_eq!(index_report(&col), want.clone(), "{:?}", case);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A batch on an 8-thread pool places, stores and reports exactly what
    // the same repeated single inserts do, on every indexed path.
    #[test]
    fn insert_many_equals_repeated_insert(
        docs in prop::collection::vec(
            prop::collection::vec(("[abc]", value()), 0..4).prop_map(Document::from_pairs),
            1..30,
        ),
    ) {
        const PATHS: [&str; 5] = ["a", "b", "c", "a.b", "c.a"];
        let make = || {
            let col = Collection::new(
                "m",
                CollectionConfig { extent_size: 512, shards: 3, ..Default::default() },
            ).unwrap();
            for (i, path) in PATHS.iter().enumerate() {
                col.create_index(IndexSpec::new(format!("i{i}"), *path)).unwrap();
            }
            col
        };
        let one_by_one = make();
        let batched = make();
        let single_ids: Vec<_> = docs.iter().map(|d| one_by_one.insert(d).unwrap()).collect();
        let batch_ids = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap()
            .install(|| batched.insert_many(&docs).unwrap());
        prop_assert_eq!(&single_ids, &batch_ids);
        for path in PATHS {
            prop_assert_eq!(
                one_by_one.count_by(path).unwrap(), batched.count_by(path).unwrap(),
                "group-by on {}", path
            );
        }
        prop_assert_eq!(one_by_one.stats("dt").unwrap(), batched.stats("dt").unwrap());
    }

    #[test]
    fn stats_count_tracks_inserts_and_deletes(docs in prop::collection::vec(document(), 1..15)) {
        let col = Collection::new("s", CollectionConfig::default()).unwrap();
        for d in &docs {
            col.insert(d).unwrap();
        }
        let stats = col.stats("dt").unwrap();
        prop_assert_eq!(stats.count, docs.len() as u64);
        prop_assert_eq!(col.parallel_scan(|_, _| Some(())).unwrap().len(), docs.len());
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
