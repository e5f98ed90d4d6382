//! Secondary-index declarations over dotted document paths.
//!
//! A collection keeps only the [`IndexSpec`]s declared on it; the write
//! path does no index work. What the paper's Tables I–II report of its
//! indexes, `nindexes` and `totalIndexSize`, is measured on demand by
//! [`crate::Collection::stats`]. Keys come from [`Document::path_values`]
//! and keep full [`Value`] typing: when the indexed path resolves to an
//! array every element is a key (multikey, as document stores index the
//! paper's `entities` arrays), and a missing path contributes nothing
//! (sparse). Each `(document, key)` entry costs the key's real encoded
//! length plus a fixed 24-byte overhead, so the reported size is a sum
//! over entries and cannot depend on insert order, batching, or when the
//! index was declared.

use datatamer_model::{Document, Value};

use crate::encode::encoded_len;

/// Per-entry bookkeeping overhead (tree node amortised cost + docid).
pub(crate) const ENTRY_OVERHEAD: usize = 24;

/// Declaration of a secondary index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// Index name, unique within its collection.
    pub name: String,
    /// Dotted path whose value(s) are indexed.
    pub path: String,
}

impl IndexSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, path: impl Into<String>) -> Self {
        IndexSpec { name: name.into(), path: path.into() }
    }

    /// Bytes `doc`'s entries take in this index: each key under the path
    /// costs its encoded length plus [`ENTRY_OVERHEAD`]. `keys` is scratch
    /// space, cleared first.
    pub(crate) fn entry_bytes(&self, doc: &Document, keys: &mut Vec<Value>) -> usize {
        keys.clear();
        doc.path_values(&self.path, keys);
        keys.iter().map(|k| encoded_len(k) + ENTRY_OVERHEAD).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::{Collection, CollectionConfig};
    use datatamer_model::doc;
    use proptest::prelude::*;

    /// A one-shard collection declaring one index on `path`, holding `docs`
    /// (one shard, so scan order is insertion order).
    fn indexed(path: &str, docs: &[Document]) -> Collection {
        let c = Collection::new(
            "i",
            CollectionConfig { extent_size: 256, shards: 1, ..Default::default() },
        )
        .unwrap();
        c.create_index(IndexSpec::new("i", path)).unwrap();
        c.insert_many(docs).unwrap();
        c
    }

    fn size(c: &Collection) -> usize {
        c.stats("dt").unwrap().total_index_size
    }

    /// Measured size of one entry per key.
    fn entries(keys: &[Value]) -> usize {
        keys.iter().map(|k| encoded_len(k) + ENTRY_OVERHEAD).sum()
    }

    /// The original resolution: wrap a copy of the whole document as the
    /// walk's root value. The keys an index measures must be exactly these.
    fn extract_path_by_clone(doc: &Document, path: &str) -> Vec<Value> {
        fn walk(v: &Value, segments: &[&str], out: &mut Vec<Value>) {
            let Some((seg, rest)) = segments.split_first() else {
                match v {
                    Value::Array(items) => out.extend(items.iter().cloned()),
                    other => out.push(other.clone()),
                }
                return;
            };
            match v {
                Value::Doc(d) => {
                    if let Some(inner) = d.get(seg) {
                        walk(inner, rest, out);
                    }
                }
                Value::Array(items) => {
                    if let Ok(i) = seg.parse::<usize>() {
                        if let Some(item) = items.get(i) {
                            walk(item, rest, out);
                        }
                    } else {
                        for item in items {
                            walk(item, segments, out);
                        }
                    }
                }
                _ => {}
            }
        }
        let segments: Vec<&str> = path.split('.').collect();
        let mut out = Vec::new();
        walk(&Value::Doc(doc.clone()), &segments, &mut out);
        out
    }

    /// Field names drawn from a vocabulary small enough that generated
    /// paths usually resolve: letters, numeric segments and `""`.
    fn field() -> impl Strategy<Value = String> {
        prop_oneof!["[abc]", "[01]", Just(String::new())]
    }

    /// Nested values: scalars, arrays (of documents too) and documents.
    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0i64..4).prop_map(Value::Int),
            "[xy]".prop_map(Value::Str),
            Just(Value::Null),
        ]
        .prop_recursive(4, 32, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                prop::collection::vec((field(), inner), 0..4)
                    .prop_map(|pairs| Value::Doc(Document::from_pairs(pairs))),
            ]
        })
    }

    fn document() -> impl Strategy<Value = Document> {
        prop::collection::vec((field(), value()), 0..5).prop_map(Document::from_pairs)
    }

    fn path() -> impl Strategy<Value = String> {
        prop::collection::vec(field(), 1..5).prop_map(|segments| segments.join("."))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn extract_keys_matches_the_cloning_walk(
            d in document(),
            paths in prop::collection::vec(path(), 1..6),
        ) {
            let mut keys = Vec::new();
            for p in paths.iter().map(String::as_str).chain(["", "a", "0", "a.0.b"]) {
                let want = extract_path_by_clone(&d, p);
                let bytes = IndexSpec::new("p", p).entry_bytes(&d, &mut keys);
                prop_assert_eq!(&keys, &want, "path {:?}", p);
                let want_bytes: usize = want.iter().map(|k| encoded_len(k) + ENTRY_OVERHEAD).sum();
                prop_assert_eq!(bytes, want_bytes, "path {:?}", p);
            }
        }
    }

    #[test]
    fn multikey_indexes_array_elements() {
        let d = doc! {"tags" => Value::Array(vec!["a".into(), "b".into()])};
        let c = indexed("tags", &[d]);
        assert_eq!(
            c.count_by("tags").unwrap(),
            vec![(Value::from("a"), 1), (Value::from("b"), 1)]
        );
        assert_eq!(size(&c), entries(&["a".into(), "b".into()]));
    }

    #[test]
    fn multikey_descends_arrays_of_docs() {
        let d = doc! {"entities" => Value::Array(vec![
            Value::Doc(doc! {"type" => "Movie", "name" => "Matilda"}),
            Value::Doc(doc! {"type" => "City", "name" => "London"}),
        ])};
        let c = indexed("entities.type", &[d]);
        assert_eq!(
            c.count_by("entities.type").unwrap(),
            vec![(Value::from("City"), 1), (Value::from("Movie"), 1)]
        );
        assert_eq!(size(&c), entries(&["Movie".into(), "City".into()]));
    }

    #[test]
    fn numeric_segment_indexes_one_element() {
        let d = doc! {"entities" => Value::Array(vec![
            Value::Doc(doc! {"type" => "Movie"}),
            Value::Doc(doc! {"type" => "City"}),
        ])};
        let c = indexed("entities.0.type", &[d]);
        assert_eq!(c.count_by("entities.0.type").unwrap(), vec![(Value::from("Movie"), 1)]);
        assert_eq!(size(&c), entries(&["Movie".into()]));
    }

    #[test]
    fn total_cmp_equal_keys_share_one_entry() {
        let docs = [doc! {"n" => 3i64}, doc! {"n" => 3.0f64}, doc! {"n" => f64::NAN}];
        let c = indexed("n", &docs);
        // `Int(3)` and `Float(3.0)` group together under the first key the
        // scan met; every entry is still sized by its own key.
        let counts = c.count_by("n").unwrap();
        assert_eq!(counts.len(), 2, "{counts:?}");
        assert!(matches!(counts[0], (Value::Int(3), 2)), "{counts:?}");
        assert!(matches!(counts[1], (Value::Float(f), 1) if f.is_nan()), "{counts:?}");
        assert_eq!(size(&c), entries(&[Value::Int(3), Value::Float(3.0), Value::Float(f64::NAN)]));
    }

    #[test]
    fn missing_path_is_sparse() {
        let c = indexed("x", &[doc! {"y" => 1i64}]);
        assert!(c.count_by("x").unwrap().is_empty());
        let stats = c.stats("dt").unwrap();
        assert_eq!((stats.nindexes, stats.total_index_size), (1, 0));
    }

    #[test]
    fn size_accounting_grows_and_shrinks() {
        let c = indexed("name", &[]);
        let d = doc! {"name" => "The Walking Dead"};
        assert_eq!(size(&c), 0);
        c.insert(&d).unwrap();
        let sz = size(&c);
        assert!(sz > ENTRY_OVERHEAD);
        c.insert(&d).unwrap();
        assert_eq!(size(&c), 2 * sz);
        c.insert(&doc! {"other" => "The Walking Dead"}).unwrap();
        assert_eq!(size(&c), 2 * sz, "a document without the path adds no entry");
    }
}
