//! Flat records — the unit Data Tamer's curation stages operate on.

use std::fmt;

use crate::value::Value;

/// Identifier of a registered data source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

/// Identifier of a record, unique within its source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u64);

/// Identifier of an attribute in a global schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}
impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rec{}", self.0)
    }
}
impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attr{}", self.0)
    }
}

/// A flat record: named scalar fields from one source.
///
/// Records come directly from structured sources, or are built from the
/// text parser's show mentions. Field order matches the source layout.
///
/// A record's field names are unique: nothing but [`Record::set`] adds a
/// field, and `set` overwrites a name that is already there. The stages
/// rely on it: mapping, profiling and cleaning treat each name as one
/// field, and a stored record's document has one entry per field.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Which source this record came from.
    pub source: SourceId,
    /// Source-local record id.
    pub id: RecordId,
    fields: Vec<(String, Value)>,
}

impl Record {
    /// Create an empty record.
    pub fn new(source: SourceId, id: RecordId) -> Self {
        Record { source, id, fields: Vec::new() }
    }

    /// Create an empty record with room for `fields` fields.
    pub fn with_capacity(source: SourceId, id: RecordId, fields: usize) -> Self {
        Record { source, id, fields: Vec::with_capacity(fields) }
    }

    /// Build from `(name, value)` pairs; later duplicates overwrite.
    pub fn from_pairs<K: Into<String>, V: Into<Value>>(
        source: SourceId,
        id: RecordId,
        pairs: Vec<(K, V)>,
    ) -> Self {
        let mut r = Record::new(source, id);
        for (k, v) in pairs {
            r.set(k.into(), v.into());
        }
        r
    }

    /// Number of fields (including null-valued ones).
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when there are no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Look up a field by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Look up a field's text rendering (None when absent or null).
    pub fn get_text(&self, name: &str) -> Option<String> {
        match self.get(name) {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.to_text()),
        }
    }

    /// Set a field, overwriting in place when present.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let name = name.into();
        let value = value.into();
        match self.fields.iter_mut().find(|(k, _)| *k == name) {
            Some((_, slot)) => *slot = value,
            None => self.fields.push((name, value)),
        }
    }

    /// Remove a field by name, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let idx = self.fields.iter().position(|(k, _)| k == name)?;
        Some(self.fields.remove(idx).1)
    }

    /// Look up a field by name, for rewriting its value in place.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.fields.iter_mut().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Iterate `(name, value)` pairs in field order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate the field values in field order, for rewriting them in place.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.fields.iter_mut().map(|(_, v)| v)
    }

    /// Consume the record, yielding its `(name, value)` pairs in field order.
    pub fn into_fields(self) -> impl Iterator<Item = (String, Value)> {
        self.fields.into_iter()
    }

    /// Iterate field names.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(k, _)| k.as_str())
    }

    /// Fraction of fields that are null (0.0 for an empty record).
    pub fn null_fraction(&self) -> f64 {
        if self.fields.is_empty() {
            return 0.0;
        }
        let nulls = self.fields.iter().filter(|(_, v)| v.is_null()).count();
        nulls as f64 / self.fields.len() as f64
    }

    /// Globally unique key `(source, id)` pair.
    pub fn key(&self) -> (SourceId, RecordId) {
        (self.source, self.id)
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} {{", self.source, self.id)?;
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Record {
        Record::from_pairs(
            SourceId(1),
            RecordId(42),
            vec![("name", Value::from("Matilda")), ("price", Value::Int(27))],
        )
    }

    #[test]
    fn get_and_set_roundtrip() {
        let mut r = rec();
        assert_eq!(r.get("name"), Some(&Value::Str("Matilda".into())));
        r.set("price", 30i64);
        assert_eq!(r.get("price"), Some(&Value::Int(30)));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn get_text_skips_nulls() {
        let mut r = rec();
        r.set("venue", Value::Null);
        assert_eq!(r.get_text("name").as_deref(), Some("Matilda"));
        assert_eq!(r.get_text("venue"), None);
        assert_eq!(r.get_text("missing"), None);
    }

    #[test]
    fn in_place_accessors_keep_names_and_order() {
        let mut r = rec();
        *r.get_mut("price").unwrap() = Value::Int(30);
        assert!(r.get_mut("missing").is_none());
        for v in r.values_mut() {
            *v = Value::from(v.to_text());
        }
        assert_eq!(r.field_names().collect::<Vec<_>>(), vec!["name", "price"]);
        assert_eq!(r.get("price"), Some(&Value::from("30")));
    }

    #[test]
    fn null_fraction_counts_nulls() {
        let mut r = rec();
        assert_eq!(r.null_fraction(), 0.0);
        r.set("a", Value::Null);
        r.set("b", Value::Null);
        assert!((r.null_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(Record::new(SourceId(0), RecordId(0)).null_fraction(), 0.0);
    }

    #[test]
    fn display_includes_ids() {
        let shown = rec().to_string();
        assert!(shown.contains("src1"));
        assert!(shown.contains("rec42"));
        assert!(shown.contains("name=\"Matilda\""));
    }
}
