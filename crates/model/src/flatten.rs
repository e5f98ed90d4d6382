//! Flattening hierarchical documents into flat records.
//!
//! The paper: *"By flattening here we mean the process of converting
//! hierarchical data into flat records before processing by Data Tamer."*
//! The domain-specific parser emits hierarchical instance/entity documents;
//! this module converts them to [`Record`]s that the schema-integration,
//! cleaning, and consolidation stages consume.

use crate::document::Document;
use crate::record::{Record, RecordId, SourceId};
use crate::value::Value;

/// How arrays are handled during flattening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrayMode {
    /// Arrays of documents *explode* into one output record per element
    /// (cartesian across sibling arrays); scalar arrays are joined into a
    /// single delimited string field. This is the default because it matches
    /// how parsed text (one instance, many extracted entities) maps onto
    /// entity records.
    #[default]
    Explode,
    /// Every array element becomes its own indexed column (`tags.0`,
    /// `tags.1`, ...). Lossless; used when record multiplicity must not
    /// change.
    Index,
    /// Scalar arrays join into a delimited string; arrays of documents take
    /// only their first element. Lossy but produces exactly one record.
    JoinFirst,
}

/// Options controlling flattening.
#[derive(Debug, Clone)]
pub struct FlattenOptions {
    /// Separator between path segments in generated column names.
    pub separator: char,
    /// Array handling mode.
    pub array_mode: ArrayMode,
    /// Join delimiter for scalar arrays in `Explode`/`JoinFirst` modes.
    pub join_with: String,
    /// Safety cap on records produced by the cartesian explosion of one
    /// document. Exceeding it truncates (never errors): parsed web text can
    /// carry dozens of entity arrays and curation must not die mid-ingest.
    pub max_explode: usize,
}

impl Default for FlattenOptions {
    fn default() -> Self {
        FlattenOptions {
            separator: '.',
            array_mode: ArrayMode::Explode,
            join_with: "; ".to_owned(),
            max_explode: 1024,
        }
    }
}

/// Flatten one hierarchical document into one or more flat records.
///
/// `source`/`base_id` seed the produced record identities; when a document
/// explodes into multiple records they share `base_id`'s high bits with a
/// low-bits ordinal (callers that need strict uniqueness should allocate ids
/// from a counter per produced record instead).
pub fn flatten(
    doc: &Document,
    source: SourceId,
    base_id: RecordId,
    opts: &FlattenOptions,
) -> Vec<Record> {
    // Start from one empty field-list and expand as arrays explode.
    let mut rows: Vec<Vec<(String, Value)>> = vec![Vec::new()];
    flatten_into(doc, "", opts, &mut rows);
    rows.truncate(opts.max_explode);
    rows.into_iter()
        .enumerate()
        .map(|(i, fields)| {
            let mut r = Record::new(source, RecordId(base_id.0.wrapping_add(i as u64)));
            for (k, v) in fields {
                r.set(k, v);
            }
            r
        })
        .collect()
}

fn flatten_into(
    doc: &Document,
    prefix: &str,
    opts: &FlattenOptions,
    rows: &mut Vec<Vec<(String, Value)>>,
) {
    for (key, value) in doc.iter() {
        let col = if prefix.is_empty() {
            key.to_owned()
        } else {
            format!("{prefix}{}{key}", opts.separator)
        };
        flatten_value(value, &col, opts, rows);
    }
}

fn flatten_value(
    value: &Value,
    col: &str,
    opts: &FlattenOptions,
    rows: &mut Vec<Vec<(String, Value)>>,
) {
    match value {
        Value::Doc(inner) => flatten_into(inner, col, opts, rows),
        Value::Array(items) => flatten_array(items, col, opts, rows),
        scalar => {
            for row in rows.iter_mut() {
                row.push((col.to_owned(), scalar.clone()));
            }
        }
    }
}

fn flatten_array(
    items: &[Value],
    col: &str,
    opts: &FlattenOptions,
    rows: &mut Vec<Vec<(String, Value)>>,
) {
    let Some(first) = items.first() else {
        return;
    };
    let all_scalar = items.iter().all(Value::is_scalar);
    match opts.array_mode {
        ArrayMode::Index => {
            for (i, item) in items.iter().enumerate() {
                let icol = format!("{col}{}{i}", opts.separator);
                flatten_value(item, &icol, opts, rows);
            }
        }
        ArrayMode::JoinFirst => {
            if all_scalar {
                let joined = join_scalars(items, &opts.join_with);
                for row in rows.iter_mut() {
                    row.push((col.to_owned(), Value::Str(joined.clone())));
                }
            } else {
                flatten_value(first, col, opts, rows);
            }
        }
        ArrayMode::Explode => {
            if all_scalar {
                let joined = join_scalars(items, &opts.join_with);
                for row in rows.iter_mut() {
                    row.push((col.to_owned(), Value::Str(joined.clone())));
                }
            } else {
                // Cartesian product: each existing row forks per element.
                let base = std::mem::take(rows);
                for item in items {
                    let mut branch = base.clone();
                    flatten_value(item, col, opts, &mut branch);
                    rows.append(&mut branch);
                    if rows.len() >= opts.max_explode {
                        rows.truncate(opts.max_explode);
                        return;
                    }
                }
            }
        }
    }
}

fn join_scalars(items: &[Value], sep: &str) -> String {
    let mut out = String::new();
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(&v.to_text());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn src() -> (SourceId, RecordId) {
        (SourceId(7), RecordId(100))
    }

    fn parsed_instance() -> Document {
        doc! {
            "fragment" => "Matilda grossed 960,998",
            "meta" => Value::Doc(doc! {"lang" => "en", "chars" => 24i64}),
            "entities" => Value::Array(vec![
                Value::Doc(doc! {"type" => "Movie", "name" => "Matilda"}),
                Value::Doc(doc! {"type" => "City", "name" => "London"}),
            ]),
            "tags" => Value::Array(vec![Value::Str("theater".into()), Value::Str("review".into())])
        }
    }

    #[test]
    fn flat_doc_yields_single_record() {
        let (s, id) = src();
        let d = doc! {"a" => 1i64, "b" => "x"};
        let recs = flatten(&d, s, id, &FlattenOptions::default());
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].get("a"), Some(&Value::Int(1)));
        assert_eq!(recs[0].id, id);
    }

    #[test]
    fn nested_docs_become_dotted_columns() {
        let (s, id) = src();
        let recs = flatten(&parsed_instance(), s, id, &FlattenOptions::default());
        for r in &recs {
            assert_eq!(r.get("meta.lang"), Some(&Value::Str("en".into())));
            assert_eq!(r.get("meta.chars"), Some(&Value::Int(24)));
        }
    }

    #[test]
    fn explode_forks_per_array_document() {
        let (s, id) = src();
        let recs = flatten(&parsed_instance(), s, id, &FlattenOptions::default());
        assert_eq!(recs.len(), 2);
        let names: Vec<_> = recs
            .iter()
            .map(|r| r.get_text("entities.name").unwrap())
            .collect();
        assert!(names.contains(&"Matilda".to_string()));
        assert!(names.contains(&"London".to_string()));
        // Scalar arrays join even in Explode mode.
        assert_eq!(
            recs[0].get_text("tags").as_deref(),
            Some("theater; review")
        );
        // Exploded records get distinct ids.
        assert_ne!(recs[0].id, recs[1].id);
    }

    #[test]
    fn index_mode_is_lossless_single_record() {
        let (s, id) = src();
        let opts = FlattenOptions { array_mode: ArrayMode::Index, ..Default::default() };
        let recs = flatten(&parsed_instance(), s, id, &opts);
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.get_text("entities.0.name").as_deref(), Some("Matilda"));
        assert_eq!(r.get_text("entities.1.name").as_deref(), Some("London"));
        assert_eq!(r.get_text("tags.1").as_deref(), Some("review"));
    }

    #[test]
    fn join_first_takes_first_doc_element() {
        let (s, id) = src();
        let opts = FlattenOptions { array_mode: ArrayMode::JoinFirst, ..Default::default() };
        let recs = flatten(&parsed_instance(), s, id, &opts);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].get_text("entities.name").as_deref(), Some("Matilda"));
    }

    #[test]
    fn empty_arrays_vanish() {
        let (s, id) = src();
        let d = doc! {"a" => 1i64, "empty" => Value::Array(vec![])};
        let recs = flatten(&d, s, id, &FlattenOptions::default());
        assert_eq!(recs.len(), 1);
        assert!(recs[0].get("empty").is_none());
    }

    #[test]
    fn explosion_is_capped() {
        let (s, id) = src();
        // Two sibling arrays of 40 docs each -> 1600 combinations uncapped.
        let items: Vec<Value> = (0..40)
            .map(|i| Value::Doc(doc! {"n" => Value::Int(i)}))
            .collect();
        let d = doc! {
            "xs" => Value::Array(items.clone()),
            "ys" => Value::Array(items)
        };
        let opts = FlattenOptions { max_explode: 100, ..Default::default() };
        let recs = flatten(&d, s, id, &opts);
        assert_eq!(recs.len(), 100);
    }

    #[test]
    fn custom_separator_applies() {
        let (s, id) = src();
        let opts = FlattenOptions { separator: '_', ..Default::default() };
        let d = doc! {"meta" => Value::Doc(doc! {"lang" => "en"})};
        let recs = flatten(&d, s, id, &opts);
        assert_eq!(recs[0].get_text("meta_lang").as_deref(), Some("en"));
    }

    #[test]
    fn index_mode_preserves_scalar_leaf_count() {
        let (s, id) = src();
        let d = parsed_instance();
        let expected = d.leaves().len();
        let opts = FlattenOptions { array_mode: ArrayMode::Index, ..Default::default() };
        let recs = flatten(&d, s, id, &opts);
        assert_eq!(recs[0].len(), expected);
    }
}
