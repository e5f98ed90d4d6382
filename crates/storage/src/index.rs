//! Ordered secondary indexes over dotted document paths.
//!
//! An index maps extracted key values to document ids. Keys keep full
//! [`Value`] typing and are [`AttrKey`]s, so they compare and order by
//! [`Value::total_cmp`]; when the indexed path resolves to an array, every
//! element is indexed (multikey), matching how document stores index the
//! paper's `entities` arrays. Index byte sizes are
//! accounted from real encoded key lengths so `totalIndexSize` in the stats
//! report is measured, not estimated.

use std::collections::BTreeMap;

use datatamer_model::{AttrKey, Document, Value};

use crate::collection::DocId;
use crate::encode::encoded_len;

/// Per-entry bookkeeping overhead (tree node amortised cost + docid).
const ENTRY_OVERHEAD: usize = 24;

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
}

/// One secondary index.
#[derive(Debug)]
pub struct Index {
    /// The index declaration.
    pub spec: IndexSpec,
    entries: BTreeMap<AttrKey, Vec<DocId>>,
    key_bytes: usize,
    entry_count: usize,
}

impl Index {
    /// Create an empty index for a spec.
    pub fn new(spec: IndexSpec) -> Self {
        Index { spec, entries: BTreeMap::new(), key_bytes: 0, entry_count: 0 }
    }

    /// Extract the keys a document contributes under this index's path
    /// ([`Document::path_values`]): arrays are multikey, each element
    /// becoming its own key, and "entities.type" indexes every element's
    /// `type`. Missing paths contribute nothing (sparse index semantics).
    pub fn extract_keys(&self, doc: &Document) -> Vec<Value> {
        let mut keys = Vec::new();
        doc.path_values(&self.spec.path, &mut keys);
        keys
    }

    /// Index a document under its id.
    pub fn insert(&mut self, id: DocId, doc: &Document) {
        self.insert_keys(id, self.extract_keys(doc));
    }

    /// Index keys already extracted by [`Self::extract_keys`] under `id`.
    /// Postings keep insertion order, so a backfill that extracts in
    /// parallel and inserts in scan order builds the same index as
    /// sequential [`Self::insert`] calls.
    pub fn insert_keys(&mut self, id: DocId, keys: Vec<Value>) {
        for key in keys {
            let klen = encoded_len(&key);
            self.entries.entry(AttrKey(key)).or_default().push(id);
            self.key_bytes += klen;
            self.entry_count += 1;
        }
    }

    /// Remove a document's entries.
    pub fn remove(&mut self, id: DocId, doc: &Document) {
        for key in self.extract_keys(doc) {
            let klen = encoded_len(&key);
            let wrapped = AttrKey(key);
            if let Some(ids) = self.entries.get_mut(&wrapped) {
                if let Some(pos) = ids.iter().position(|x| *x == id) {
                    ids.swap_remove(pos);
                    self.key_bytes -= klen;
                    self.entry_count -= 1;
                    if ids.is_empty() {
                        self.entries.remove(&wrapped);
                    }
                }
            }
        }
    }

    /// Ids whose key equals `key`.
    pub fn lookup(&self, key: &Value) -> Vec<DocId> {
        self.entries
            .get(&AttrKey(key.clone()))
            .map(|v| v.to_vec())
            .unwrap_or_default()
    }

    /// Distinct keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &Value> {
        self.entries.keys().map(|k| &k.0)
    }

    /// `(key, number of docs)` pairs in key order — powers group-by-type
    /// statistics like the paper's Table III.
    pub fn key_counts(&self) -> Vec<(Value, usize)> {
        self.entries
            .iter()
            .map(|(k, ids)| (k.0.clone(), ids.len()))
            .collect()
    }

    /// Number of `(key, id)` entries.
    pub fn len(&self) -> usize {
        self.entry_count
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Measured index size in bytes (keys + per-entry overhead).
    pub fn size_bytes(&self) -> usize {
        self.key_bytes + self.entry_count * ENTRY_OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::doc;
    use proptest::prelude::*;

    fn id(n: u64) -> DocId {
        DocId(n)
    }

    /// The original resolution: wrap a copy of the whole document as the
    /// walk's root value. [`Index::extract_keys`] must extract exactly this.
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
            for p in paths.iter().map(String::as_str).chain(["", "a", "0", "a.0.b"]) {
                let idx = Index::new(IndexSpec::new("p", p));
                prop_assert_eq!(idx.extract_keys(&d), extract_path_by_clone(&d, p), "path {:?}", p);
            }
        }
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = Index::new(IndexSpec::new("by_type", "type"));
        let d1 = doc! {"type" => "Person", "name" => "Ann"};
        let d2 = doc! {"type" => "Person", "name" => "Bob"};
        let d3 = doc! {"type" => "City", "name" => "NYC"};
        idx.insert(id(1), &d1);
        idx.insert(id(2), &d2);
        idx.insert(id(3), &d3);
        assert_eq!(idx.lookup(&Value::from("Person")).len(), 2);
        assert_eq!(idx.lookup(&Value::from("City")), vec![id(3)]);
        assert!(idx.lookup(&Value::from("Movie")).is_empty());
        idx.remove(id(1), &d1);
        assert_eq!(idx.lookup(&Value::from("Person")), vec![id(2)]);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn multikey_indexes_array_elements() {
        let mut idx = Index::new(IndexSpec::new("by_tag", "tags"));
        let d = doc! {"tags" => Value::Array(vec!["a".into(), "b".into()])};
        idx.insert(id(7), &d);
        assert_eq!(idx.lookup(&Value::from("a")), vec![id(7)]);
        assert_eq!(idx.lookup(&Value::from("b")), vec![id(7)]);
        assert_eq!(idx.len(), 2);
        idx.remove(id(7), &d);
        assert!(idx.is_empty());
    }

    #[test]
    fn multikey_descends_arrays_of_docs() {
        let mut idx = Index::new(IndexSpec::new("by_ent_type", "entities.type"));
        let d = doc! {"entities" => Value::Array(vec![
            Value::Doc(doc! {"type" => "Movie", "name" => "Matilda"}),
            Value::Doc(doc! {"type" => "City", "name" => "London"}),
        ])};
        idx.insert(id(5), &d);
        assert_eq!(idx.lookup(&Value::from("Movie")), vec![id(5)]);
        assert_eq!(idx.lookup(&Value::from("City")), vec![id(5)]);
    }

    #[test]
    fn numeric_segment_indexes_one_element() {
        let mut idx = Index::new(IndexSpec::new("first_ent", "entities.0.type"));
        let d = doc! {"entities" => Value::Array(vec![
            Value::Doc(doc! {"type" => "Movie"}),
            Value::Doc(doc! {"type" => "City"}),
        ])};
        idx.insert(id(5), &d);
        assert_eq!(idx.lookup(&Value::from("Movie")), vec![id(5)]);
        assert!(idx.lookup(&Value::from("City")).is_empty());
    }

    #[test]
    fn total_cmp_equal_keys_share_one_entry() {
        let mut idx = Index::new(IndexSpec::new("by_n", "n"));
        idx.insert(id(1), &doc! {"n" => 3i64});
        idx.insert(id(2), &doc! {"n" => 3.0f64});
        idx.insert(id(3), &doc! {"n" => f64::NAN});
        assert_eq!(idx.key_counts().len(), 2);
        assert_eq!(idx.lookup(&Value::Float(3.0)), vec![id(1), id(2)]);
        assert_eq!(idx.lookup(&Value::Float(f64::NAN)), vec![id(3)]);
    }

    #[test]
    fn missing_path_is_sparse() {
        let mut idx = Index::new(IndexSpec::new("by_x", "x"));
        idx.insert(id(1), &doc! {"y" => 1i64});
        assert!(idx.is_empty());
        assert_eq!(idx.size_bytes(), 0);
    }

    #[test]
    fn key_counts_group_by() {
        let mut idx = Index::new(IndexSpec::new("by_type", "type"));
        for (i, ty) in ["Person", "Person", "City", "Movie", "Person"].iter().enumerate() {
            idx.insert(id(i as u64), &doc! {"type" => *ty});
        }
        let counts = idx.key_counts();
        let person = counts.iter().find(|(k, _)| k == &Value::from("Person")).unwrap();
        assert_eq!(person.1, 3);
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn size_accounting_grows_and_shrinks() {
        let mut idx = Index::new(IndexSpec::new("by_name", "name"));
        let d = doc! {"name" => "The Walking Dead"};
        assert_eq!(idx.size_bytes(), 0);
        idx.insert(id(1), &d);
        let sz = idx.size_bytes();
        assert!(sz > ENTRY_OVERHEAD);
        idx.insert(id(2), &d);
        assert!(idx.size_bytes() > sz);
        idx.remove(id(1), &d);
        idx.remove(id(2), &d);
        assert_eq!(idx.size_bytes(), 0);
    }
}
