//! Ordered hierarchical documents.
//!
//! A [`Document`] is an insertion-ordered mapping from field names to
//! [`Value`]s. Field order is preserved because the paper's semi-structured
//! collections are document-store collections whose statistics (and encoded
//! sizes) depend on the physical field layout.

use std::fmt;

use crate::value::Value;

/// An insertion-ordered field → value mapping.
///
/// Documents are small in practice (text-derived entities have a handful of
/// attributes; structured sources have 5–20), so lookups are linear scans —
/// measurably faster than hashing at these cardinalities and free of any
/// per-document allocation beyond the field vector itself.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Document {
    fields: Vec<(String, Value)>,
}

impl Document {
    /// Create an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty document with room for `cap` fields.
    pub fn with_capacity(cap: usize) -> Self {
        Document { fields: Vec::with_capacity(cap) }
    }

    /// Build a document from `(name, value)` pairs, keeping the given order.
    /// Later duplicates overwrite earlier ones in place.
    pub fn from_pairs<K: Into<String>, V: Into<Value>>(pairs: Vec<(K, V)>) -> Self {
        let mut doc = Document::with_capacity(pairs.len());
        for (k, v) in pairs {
            doc.set(k.into(), v.into());
        }
        doc
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Get a field's value by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Get a mutable reference to a field's value by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.fields.iter_mut().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// True when a field with the given name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Set a field, overwriting in place when it already exists.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let name = name.into();
        let value = value.into();
        match self.get_mut(&name) {
            Some(slot) => *slot = value,
            None => self.fields.push((name, value)),
        }
    }

    /// Remove a field, returning its value when present.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let idx = self.fields.iter().position(|(k, _)| k == name)?;
        Some(self.fields.remove(idx).1)
    }

    /// Iterate fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate field names in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(k, _)| k.as_str())
    }

    /// Append every value reachable at a dotted path to `out`, multikey:
    /// arrays are traversed element-wise (a segment that parses as an
    /// integer indexes one element instead), and a terminal array
    /// contributes each element. A missing path contributes nothing. This
    /// is the one resolution the storage indexes' keys, their scan
    /// fallback and the query predicates share, so an index probe and a
    /// scan can never disagree on which values a document holds.
    pub fn path_values(&self, path: &str, out: &mut Vec<Value>) {
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
        if let Some((first, rest)) = segments.split_first() {
            if let Some(v) = self.get(first) {
                walk(v, rest, out);
            }
        }
    }

    /// Depth of nesting: a flat document has depth 1.
    pub fn depth(&self) -> usize {
        1 + self
            .fields
            .iter()
            .map(|(_, v)| value_depth(v))
            .max()
            .unwrap_or(0)
    }

    /// Collect every `(dotted_path, scalar)` leaf pair in order.
    pub fn leaves(&self) -> Vec<(String, &Value)> {
        let mut out = Vec::new();
        for (k, v) in self.iter() {
            collect_leaves(k, v, &mut out);
        }
        out
    }
}

fn value_depth(v: &Value) -> usize {
    match v {
        Value::Doc(d) => d.depth(),
        Value::Array(a) => a.iter().map(value_depth).max().unwrap_or(0),
        _ => 0,
    }
}

fn collect_leaves<'a>(prefix: &str, v: &'a Value, out: &mut Vec<(String, &'a Value)>) {
    match v {
        Value::Doc(d) => {
            for (k, inner) in d.iter() {
                collect_leaves(&format!("{prefix}.{k}"), inner, out);
            }
        }
        Value::Array(a) => {
            for (i, inner) in a.iter().enumerate() {
                collect_leaves(&format!("{prefix}.{i}"), inner, out);
            }
        }
        scalar => out.push((prefix.to_owned(), scalar)),
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "\"{k}\": {v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, Value)> for Document {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut doc = Document::new();
        for (k, v) in iter {
            doc.set(k, v);
        }
        doc
    }
}

impl IntoIterator for Document {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.fields.into_iter()
    }
}

/// Convenience macro for building documents in tests and examples.
#[macro_export]
macro_rules! doc {
    () => { $crate::document::Document::new() };
    ($($key:expr => $val:expr),+ $(,)?) => {{
        let mut d = $crate::document::Document::new();
        $( d.set($key, $val); )+
        d
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_overwrites_in_place_preserving_order() {
        let mut d = doc! {"a" => 1i64, "b" => 2i64};
        d.set("a", 10i64);
        assert_eq!(d.get("a"), Some(&Value::Int(10)));
        assert_eq!(d.keys().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn remove_returns_value() {
        let mut d = doc! {"a" => 1i64, "b" => "x"};
        assert_eq!(d.remove("a"), Some(Value::Int(1)));
        assert_eq!(d.remove("a"), None);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn path_values_traverses_docs_and_arrays() {
        let d = doc! {
            "show" => "Matilda",
            "entities" => Value::Array(vec![
                Value::Doc(doc! {"type" => "Person", "name" => "Ann"}),
                Value::Doc(doc! {"type" => "City", "name" => "NYC"}),
            ])
        };
        let at = |path: &str| {
            let mut out = Vec::new();
            d.path_values(path, &mut out);
            out
        };
        assert_eq!(at("show"), vec![Value::Str("Matilda".into())]);
        assert_eq!(at("entities.1.name"), vec![Value::Str("NYC".into())]);
        assert_eq!(at("entities.name"), vec![Value::from("Ann"), Value::from("NYC")]);
        assert!(at("entities.2.name").is_empty());
        assert!(at("entities.x").is_empty());
        assert!(at("missing.path").is_empty());
    }

    #[test]
    fn depth_counts_nesting() {
        assert_eq!(doc! {"a" => 1i64}.depth(), 1);
        let nested = doc! {"a" => Value::Doc(doc! {"b" => Value::Doc(doc!{"c" => 1i64})})};
        assert_eq!(nested.depth(), 3);
        let arr = doc! {"a" => Value::Array(vec![Value::Doc(doc!{"b" => 1i64})])};
        assert_eq!(arr.depth(), 2);
    }

    #[test]
    fn leaves_enumerate_dotted_paths() {
        let d = doc! {
            "a" => 1i64,
            "b" => Value::Doc(doc! {"c" => "x"}),
            "d" => Value::Array(vec![Value::Int(2), Value::Int(3)])
        };
        let leaves = d.leaves();
        let paths: Vec<&str> = leaves.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["a", "b.c", "d.0", "d.1"]);
    }

    #[test]
    fn display_is_json_like() {
        let d = doc! {"name" => "Matilda", "price" => 27i64};
        assert_eq!(d.to_string(), "{\"name\": \"Matilda\", \"price\": 27}");
    }

    #[test]
    fn from_iter_dedups() {
        let d: Document = vec![
            ("a".to_string(), Value::Int(1)),
            ("a".to_string(), Value::Int(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d.get("a"), Some(&Value::Int(2)));
    }
}
