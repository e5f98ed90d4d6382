//! Filters, projections, sorting, and query execution with index selection.

use std::ops::Bound;

use datatamer_model::{Document, Result, Value};

use crate::collection::{Collection, DocId};

/// A predicate over documents, evaluated against dotted paths.
#[derive(Debug, Clone)]
pub enum Filter {
    /// Path value equals the given value (multikey: any array element).
    Eq(String, Value),
    /// Path value differs (or path missing).
    Ne(String, Value),
    /// Path value strictly greater (by `Value::total_cmp`).
    Gt(String, Value),
    /// Path value greater-or-equal.
    Gte(String, Value),
    /// Path value strictly less.
    Lt(String, Value),
    /// Path value less-or-equal.
    Lte(String, Value),
    /// Path value is one of the listed values.
    In(String, Vec<Value>),
    /// String value at path contains the needle, case-insensitively.
    Contains(String, String),
    /// The path resolves to a non-null value.
    Exists(String),
    /// All sub-filters hold.
    And(Vec<Filter>),
    /// Any sub-filter holds.
    Or(Vec<Filter>),
    /// Negation.
    Not(Box<Filter>),
    /// Matches every document.
    True,
}

impl Filter {
    /// Evaluate against a document.
    pub fn matches(&self, doc: &Document) -> bool {
        match self {
            Filter::Eq(path, v) => path_values(doc, path).contains(&v),
            Filter::Ne(path, v) => !path_values(doc, path).contains(&v),
            Filter::Gt(path, v) => cmp_any(doc, path, |o| o == std::cmp::Ordering::Greater, v),
            Filter::Gte(path, v) => cmp_any(doc, path, |o| o != std::cmp::Ordering::Less, v),
            Filter::Lt(path, v) => cmp_any(doc, path, |o| o == std::cmp::Ordering::Less, v),
            Filter::Lte(path, v) => cmp_any(doc, path, |o| o != std::cmp::Ordering::Greater, v),
            Filter::In(path, vs) => path_values(doc, path).iter().any(|x| vs.contains(x)),
            Filter::Contains(path, needle) => {
                let needle = needle.to_lowercase();
                path_values(doc, path).iter().any(|x| match x {
                    Value::Str(s) => s.to_lowercase().contains(&needle),
                    _ => false,
                })
            }
            Filter::Exists(path) => {
                path_values(doc, path).iter().any(|v| !v.is_null())
            }
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Not(f) => !f.matches(doc),
            Filter::True => true,
        }
    }

    /// If this filter (or a conjunct of it) can seed an index probe, return
    /// `(path, probe)`. The rest of the filter still post-filters.
    fn index_probe(&self) -> Option<(&str, IndexProbe<'_>)> {
        match self {
            Filter::Eq(path, v) => Some((path, IndexProbe::Point(v))),
            Filter::In(path, vs) => Some((path, IndexProbe::Set(vs))),
            Filter::Gt(p, v) => Some((p, IndexProbe::Range(Bound::Excluded(v), Bound::Unbounded))),
            Filter::Gte(p, v) => Some((p, IndexProbe::Range(Bound::Included(v), Bound::Unbounded))),
            Filter::Lt(p, v) => Some((p, IndexProbe::Range(Bound::Unbounded, Bound::Excluded(v)))),
            Filter::Lte(p, v) => Some((p, IndexProbe::Range(Bound::Unbounded, Bound::Included(v)))),
            Filter::And(fs) => fs.iter().find_map(|f| f.index_probe()),
            _ => None,
        }
    }
}

enum IndexProbe<'a> {
    Point(&'a Value),
    Set(&'a [Value]),
    Range(Bound<&'a Value>, Bound<&'a Value>),
}

/// True when any value at `path` compares to `v` with an ordering accepted
/// by `accept`. Cross-type comparisons never match ordering predicates.
fn cmp_any(
    doc: &Document,
    path: &str,
    accept: impl Fn(std::cmp::Ordering) -> bool,
    v: &Value,
) -> bool {
    path_values(doc, path).iter().any(|x| {
        let same_family = matches!(
            (x, v),
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_))
                | (Value::Str(_), Value::Str(_))
                | (Value::Bool(_), Value::Bool(_))
        );
        same_family && accept(x.total_cmp(v))
    })
}

/// Values reachable at a dotted path, descending through arrays (multikey).
fn path_values<'a>(doc: &'a Document, path: &str) -> Vec<&'a Value> {
    fn walk<'a>(v: &'a Value, segs: &[&str], out: &mut Vec<&'a Value>) {
        let Some((seg, rest)) = segs.split_first() else {
            match v {
                Value::Array(items) => out.extend(items.iter()),
                other => out.push(other),
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
                        walk(item, segs, out);
                    }
                }
            }
            _ => {}
        }
    }
    let segs: Vec<&str> = path.split('.').collect();
    let mut out = Vec::new();
    // `split` always yields at least one segment, but `.get` keeps this
    // path panic-free by construction rather than by that invariant.
    if let Some(first) = segs.first().and_then(|s| doc.get(s)) {
        walk(first, &segs[1..], &mut out);
    }
    out
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    Ascending,
    Descending,
}

/// A declarative query: filter + projection + sort + pagination.
///
/// The document-store query. Fused entities are queried through the typed
/// AST in `datatamer-query` instead; this struct serves the raw
/// collections only.
#[derive(Debug, Clone)]
pub struct Query {
    /// Predicate; `Filter::True` scans everything.
    pub filter: Filter,
    /// When non-empty, keep only these top-level paths in results.
    pub projection: Vec<String>,
    /// Optional `(path, order)` sort.
    pub sort: Option<(String, SortOrder)>,
    /// Skip this many result documents (after sort).
    pub skip: usize,
    /// Cap results (after sort and skip); `usize::MAX` = unlimited.
    pub limit: usize,
}

impl Default for Query {
    fn default() -> Self {
        Query {
            filter: Filter::True,
            projection: Vec::new(),
            sort: None,
            skip: 0,
            limit: usize::MAX,
        }
    }
}

impl Query {
    /// Query with just a filter.
    pub fn filtered(filter: Filter) -> Self {
        Query { filter, ..Default::default() }
    }

    /// Builder: set projection.
    pub fn project<S: Into<String>>(mut self, paths: Vec<S>) -> Self {
        self.projection = paths.into_iter().map(Into::into).collect();
        self
    }

    /// Builder: set sort.
    pub fn sort_by(mut self, path: impl Into<String>, order: SortOrder) -> Self {
        self.sort = Some((path.into(), order));
        self
    }

    /// Builder: set limit.
    pub fn take(mut self, n: usize) -> Self {
        self.limit = n;
        self
    }

    /// Builder: set skip.
    pub fn offset(mut self, n: usize) -> Self {
        self.skip = n;
        self
    }

    /// Execute against a collection, returning `(id, document)` pairs.
    ///
    /// Planning: when a conjunct of the filter is a point/set/range predicate
    /// on an indexed path, candidate ids come from the index and the full
    /// filter re-checks each candidate; otherwise all shards are scanned in
    /// parallel (an unreadable extent fails the query).
    pub fn execute(&self, col: &Collection) -> Result<Vec<(DocId, Document)>> {
        let mut results: Vec<(DocId, Document)> = match self.filter.index_probe() {
            Some((path, probe)) => {
                let ids = col.with_index_on_path(path, |idx| match probe {
                    IndexProbe::Point(v) => idx.lookup(v),
                    IndexProbe::Set(vs) => {
                        let mut ids: Vec<DocId> =
                            vs.iter().flat_map(|v| idx.lookup(v)).collect();
                        ids.sort_unstable();
                        ids.dedup();
                        ids
                    }
                    IndexProbe::Range(lo, hi) => idx.range(lo, hi),
                });
                match ids {
                    Some(ids) => {
                        // `try_get` so an unreadable extent fails the query
                        // (like the scan path) instead of shrinking results.
                        let mut hits = Vec::new();
                        for id in ids {
                            if let Some(d) = col.try_get(id)? {
                                if self.filter.matches(&d) {
                                    hits.push((id, d));
                                }
                            }
                        }
                        hits
                    }
                    // No index on that path: fall back to a scan.
                    None => col.parallel_scan(|id, d| {
                        self.filter.matches(d).then(|| (id, d.clone()))
                    })?,
                }
            }
            None => {
                col.parallel_scan(|id, d| self.filter.matches(d).then(|| (id, d.clone())))?
            }
        };

        if let Some((path, order)) = &self.sort {
            results.sort_by(|(_, a), (_, b)| {
                let va = a.get_path(path).cloned().unwrap_or(Value::Null);
                let vb = b.get_path(path).cloned().unwrap_or(Value::Null);
                let ord = va.total_cmp(&vb);
                match order {
                    SortOrder::Ascending => ord,
                    SortOrder::Descending => ord.reverse(),
                }
            });
        }
        let end = self.skip.saturating_add(self.limit).min(results.len());
        let start = self.skip.min(results.len());
        let mut page: Vec<(DocId, Document)> = results.drain(start..end).collect();

        if !self.projection.is_empty() {
            for (_, doc) in page.iter_mut() {
                let mut projected = Document::with_capacity(self.projection.len());
                for p in &self.projection {
                    if let Some(v) = doc.get_path(p) {
                        projected.set(p.clone(), v.clone());
                    }
                }
                *doc = projected;
            }
        }
        Ok(page)
    }

    /// Count matching documents without materialising them.
    pub fn count(&self, col: &Collection) -> Result<usize> {
        Ok(col.parallel_scan(|_, d| self.filter.matches(d).then_some(()))?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionConfig;
    use crate::index::IndexSpec;
    use datatamer_model::doc;

    fn seed() -> Collection {
        let c = Collection::new("shows", CollectionConfig { extent_size: 4096, shards: 4, ..Default::default() })
            .unwrap();
        let rows = [
            ("Matilda", 27i64, "musical"),
            ("Wicked", 99, "musical"),
            ("Hamlet", 45, "play"),
            ("Chicago", 67, "musical"),
            ("Macbeth", 30, "play"),
        ];
        for (name, price, kind) in rows {
            c.insert(&doc! {"name" => name, "price" => price, "kind" => kind}).unwrap();
        }
        c
    }

    #[test]
    fn eq_and_contains() {
        let c = seed();
        let r = Query::filtered(Filter::Eq("kind".into(), "play".into())).execute(&c).unwrap();
        assert_eq!(r.len(), 2);
        let r = Query::filtered(Filter::Contains("name".into(), "mat".into())).execute(&c).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].1.get("name"), Some(&Value::from("Matilda")));
    }

    #[test]
    fn range_filters() {
        let c = seed();
        let r = Query::filtered(Filter::And(vec![
            Filter::Gte("price".into(), Value::Int(30)),
            Filter::Lt("price".into(), Value::Int(70)),
        ]))
        .execute(&c).unwrap();
        let names: Vec<String> = r.iter().map(|(_, d)| d.get_text_or_empty("name")).collect();
        assert_eq!(r.len(), 3, "{names:?}");
    }

    #[test]
    fn sort_skip_limit() {
        let c = seed();
        let r = Query::filtered(Filter::True)
            .sort_by("price", SortOrder::Descending)
            .offset(1)
            .take(2)
            .execute(&c).unwrap();
        let prices: Vec<i64> = r.iter().filter_map(|(_, d)| d.get("price")?.as_int()).collect();
        assert_eq!(prices, vec![67, 45]);
    }

    #[test]
    fn projection_keeps_only_listed_paths() {
        let c = seed();
        let r = Query::filtered(Filter::Eq("name".into(), "Matilda".into()))
            .project(vec!["name", "price"])
            .execute(&c).unwrap();
        assert_eq!(r[0].1.len(), 2);
        assert!(r[0].1.get("kind").is_none());
    }

    #[test]
    fn index_and_scan_agree() {
        let c = seed();
        let q = Query::filtered(Filter::Eq("kind".into(), "musical".into()));
        let scan = q.execute(&c).unwrap();
        c.create_index(IndexSpec::new("by_kind", "kind")).unwrap();
        let mut indexed = q.execute(&c).unwrap();
        indexed.sort_by_key(|(id, _)| *id);
        let mut scan = scan;
        scan.sort_by_key(|(id, _)| *id);
        assert_eq!(scan, indexed);
    }

    #[test]
    fn in_filter_uses_index_dedup() {
        let c = seed();
        c.create_index(IndexSpec::new("by_kind", "kind")).unwrap();
        let q = Query::filtered(Filter::In(
            "kind".into(),
            vec!["musical".into(), "play".into(), "musical".into()],
        ));
        assert_eq!(q.execute(&c).unwrap().len(), 5);
    }

    #[test]
    fn and_post_filters_after_index_probe() {
        let c = seed();
        c.create_index(IndexSpec::new("by_kind", "kind")).unwrap();
        let q = Query::filtered(Filter::And(vec![
            Filter::Eq("kind".into(), "musical".into()),
            Filter::Lt("price".into(), Value::Int(50)),
        ]));
        let r = q.execute(&c).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].1.get("name"), Some(&Value::from("Matilda")));
    }

    #[test]
    fn ne_not_or_exists() {
        let c = seed();
        assert_eq!(
            Query::filtered(Filter::Ne("kind".into(), "play".into())).count(&c).unwrap(),
            3
        );
        assert_eq!(
            Query::filtered(Filter::Not(Box::new(Filter::Eq("kind".into(), "play".into()))))
                .count(&c).unwrap(),
            3
        );
        assert_eq!(
            Query::filtered(Filter::Or(vec![
                Filter::Eq("name".into(), "Matilda".into()),
                Filter::Eq("name".into(), "Wicked".into()),
            ]))
            .count(&c).unwrap(),
            2
        );
        assert_eq!(Query::filtered(Filter::Exists("price".into())).count(&c).unwrap(), 5);
        assert_eq!(Query::filtered(Filter::Exists("nope".into())).count(&c).unwrap(), 0);
    }

    #[test]
    fn multikey_path_filters() {
        let c = Collection::new("inst", CollectionConfig::default()).unwrap();
        c.insert(&doc! {"entities" => Value::Array(vec![
            Value::Doc(doc! {"type" => "Movie", "name" => "Matilda"}),
            Value::Doc(doc! {"type" => "City", "name" => "London"}),
        ])}).unwrap();
        c.insert(&doc! {"entities" => Value::Array(vec![
            Value::Doc(doc! {"type" => "Person", "name" => "Ann"}),
        ])}).unwrap();
        let q = Query::filtered(Filter::Eq("entities.type".into(), "Movie".into()));
        assert_eq!(q.count(&c).unwrap(), 1);
    }

    trait GetTextOrEmpty {
        fn get_text_or_empty(&self, k: &str) -> String;
    }
    impl GetTextOrEmpty for Document {
        fn get_text_or_empty(&self, k: &str) -> String {
            self.get(k).map(|v| v.to_text()).unwrap_or_default()
        }
    }
}
