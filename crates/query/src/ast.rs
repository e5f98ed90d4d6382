//! The typed query AST: predicates, aggregates, and the [`Query`] struct.
//!
//! One predicate language serves every execution surface — index probes
//! and full entity scans — so a query means the same thing no matter
//! which plan runs it. Equality and ordering are *canonical*: values
//! compare by [`Value::total_cmp`], so `Int(3)` matches
//! `Eq(attr, Float(3.0))` and NaN equals itself, exactly the semantics the
//! index keys ([`crate::key::AttrKey`]) use — an index probe can therefore
//! never return fewer rows than the predicate accepts. Ordering predicates
//! only match within a type family (numbers, strings, booleans).

use datatamer_core::fusion::FusedEntity;
use datatamer_model::{Document, Value};
use std::cmp::Ordering;

/// Pseudo-attribute resolving to a fused entity's canonical key.
pub const KEY_ATTR: &str = "_key";
/// Pseudo-attribute resolving to a fused entity's member count.
pub const MEMBERS_ATTR: &str = "_members";
/// Pseudo-attribute resolving to a fused entity's resolution confidence.
pub const CONFIDENCE_ATTR: &str = "_confidence";

/// A boolean predicate over attribute values.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// Some value at the attribute is `total_cmp`-equal to the operand.
    Eq(String, Value),
    /// No value at the attribute is `total_cmp`-equal (missing matches).
    Ne(String, Value),
    /// Some same-family value compares strictly greater.
    Gt(String, Value),
    /// Some same-family value compares greater-or-equal.
    Gte(String, Value),
    /// Some same-family value compares strictly less.
    Lt(String, Value),
    /// Some same-family value compares less-or-equal.
    Lte(String, Value),
    /// Some value equals one of the listed operands.
    In(String, Vec<Value>),
    /// Some string value contains the needle, case-insensitively.
    Contains(String, String),
    /// The attribute resolves to at least one non-null value.
    Exists(String),
    /// Every sub-predicate holds.
    And(Vec<Predicate>),
    /// At least one sub-predicate holds.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

/// A source of attribute values: fused entities and documents.
///
/// `attr_values` pushes every value reachable at `attr` — array values
/// contribute each element (multikey), scalars contribute themselves.
pub trait AttrSource {
    /// Append the values at `attr` to `out` (cleared by the caller).
    fn attr_values(&self, attr: &str, out: &mut Vec<Value>);
}

/// Flatten one level of arrays into leaf values (multikey semantics, as
/// the storage engine's secondary indexes extract keys).
fn push_leaves(v: &Value, out: &mut Vec<Value>) {
    match v {
        Value::Array(items) => out.extend(items.iter().cloned()),
        other => out.push(other.clone()),
    }
}

impl AttrSource for FusedEntity {
    fn attr_values(&self, attr: &str, out: &mut Vec<Value>) {
        match attr {
            KEY_ATTR => out.push(Value::Str(self.key.clone())),
            MEMBERS_ATTR => out.push(Value::Int(self.member_count as i64)),
            CONFIDENCE_ATTR => out.push(match self.confidence {
                Some(c) => Value::Float(c),
                None => Value::Null,
            }),
            _ => {
                if let Some(v) = self.record.get(attr) {
                    push_leaves(v, out);
                }
            }
        }
    }
}

impl AttrSource for Document {
    /// Dotted-path, multikey resolution matching the storage engine's
    /// index-key extraction: `a.b` descends nested documents, arrays are
    /// traversed element-wise (with numeric segments as positional
    /// indexes), and a terminal array contributes each element.
    fn attr_values(&self, attr: &str, out: &mut Vec<Value>) {
        fn walk(v: &Value, segs: &[&str], out: &mut Vec<Value>) {
            let Some((seg, rest)) = segs.split_first() else {
                push_leaves(v, out);
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
        let segs: Vec<&str> = attr.split('.').collect();
        if let Some(first) = segs.first().and_then(|s| self.get(s)) {
            walk(first, &segs[1..], out);
        }
    }
}

/// True when the two values belong to the same ordering family — ordering
/// predicates never match across families.
fn same_family(a: &Value, b: &Value) -> bool {
    matches!(
        (a, b),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_))
            | (Value::Str(_), Value::Str(_))
            | (Value::Bool(_), Value::Bool(_))
    )
}

impl Predicate {
    /// Evaluate against a row.
    pub fn matches<S: AttrSource + ?Sized>(&self, src: &S) -> bool {
        let mut scratch = Vec::new();
        self.matches_with(src, &mut scratch)
    }

    fn matches_with<S: AttrSource + ?Sized>(&self, src: &S, scratch: &mut Vec<Value>) -> bool {
        let vals = |attr: &str, scratch: &mut Vec<Value>| {
            scratch.clear();
            src.attr_values(attr, scratch);
        };
        match self {
            Predicate::True => true,
            Predicate::Eq(attr, v) => {
                vals(attr, scratch);
                scratch.iter().any(|x| x.total_cmp(v) == Ordering::Equal)
            }
            Predicate::Ne(attr, v) => {
                vals(attr, scratch);
                !scratch.iter().any(|x| x.total_cmp(v) == Ordering::Equal)
            }
            Predicate::Gt(attr, v) => {
                vals(attr, scratch);
                scratch.iter().any(|x| same_family(x, v) && x.total_cmp(v) == Ordering::Greater)
            }
            Predicate::Gte(attr, v) => {
                vals(attr, scratch);
                scratch.iter().any(|x| same_family(x, v) && x.total_cmp(v) != Ordering::Less)
            }
            Predicate::Lt(attr, v) => {
                vals(attr, scratch);
                scratch.iter().any(|x| same_family(x, v) && x.total_cmp(v) == Ordering::Less)
            }
            Predicate::Lte(attr, v) => {
                vals(attr, scratch);
                scratch.iter().any(|x| same_family(x, v) && x.total_cmp(v) != Ordering::Greater)
            }
            Predicate::In(attr, options) => {
                vals(attr, scratch);
                scratch
                    .iter()
                    .any(|x| options.iter().any(|v| x.total_cmp(v) == Ordering::Equal))
            }
            Predicate::Contains(attr, needle) => {
                vals(attr, scratch);
                let needle = needle.to_lowercase();
                scratch.iter().any(|x| match x {
                    Value::Str(s) => s.to_lowercase().contains(&needle),
                    _ => false,
                })
            }
            Predicate::Exists(attr) => {
                vals(attr, scratch);
                scratch.iter().any(|v| !v.is_null())
            }
            Predicate::And(ps) => ps.iter().all(|p| p.matches(src)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches(src)),
            Predicate::Not(p) => !p.matches(src),
        }
    }

    /// Every attribute the predicate reads, in first-mention order.
    pub fn attrs(&self) -> Vec<&str> {
        fn walk<'a>(p: &'a Predicate, out: &mut Vec<&'a str>) {
            let mut push = |a: &'a str| {
                if !out.contains(&a) {
                    out.push(a);
                }
            };
            match p {
                Predicate::True => {}
                Predicate::Eq(a, _)
                | Predicate::Ne(a, _)
                | Predicate::Gt(a, _)
                | Predicate::Gte(a, _)
                | Predicate::Lt(a, _)
                | Predicate::Lte(a, _)
                | Predicate::In(a, _)
                | Predicate::Contains(a, _)
                | Predicate::Exists(a) => push(a),
                Predicate::And(ps) | Predicate::Or(ps) => {
                    for p in ps {
                        walk(p, out);
                    }
                }
                Predicate::Not(p) => walk(p, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// The top-level conjuncts: `And` flattens one level, everything else
    /// is its own single conjunct. The planner probes indexes per conjunct.
    pub fn conjuncts(&self) -> Vec<&Predicate> {
        match self {
            Predicate::And(ps) => ps.iter().collect(),
            other => vec![other],
        }
    }
}

/// Sort direction for [`Query::order_by`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Ascending by `total_cmp`.
    Asc,
    /// Descending by `total_cmp` (ties keep filter order).
    Desc,
}

/// An aggregate over the filtered row set. Aggregates consume the whole
/// filtered set; `order_by` / `limit` apply only to row results.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// Number of matching rows.
    Count,
    /// Sum of every numeric value at the attribute across matching rows
    /// (integer exact while all values are ints, `f64` once any float
    /// appears; accumulation order is the filter's row order).
    Sum(String),
    /// Smallest value at the attribute by `total_cmp` (nulls skipped).
    Min(String),
    /// Largest value at the attribute by `total_cmp` (nulls skipped).
    Max(String),
    /// Count of matching rows per distinct value at the attribute,
    /// ordered by value (`total_cmp`).
    GroupBy(String),
}

/// A typed query over a fused-entity collection.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Row filter; [`Predicate::True`] selects everything.
    pub filter: Predicate,
    /// Attributes to materialise per row (empty = every record field).
    pub project: Vec<String>,
    /// Optional aggregate; when set, the result is the aggregate value and
    /// no rows are materialised.
    pub aggregate: Option<Aggregate>,
    /// Optional `(attribute, direction)` ordering for row results.
    pub order_by: Option<(String, Order)>,
    /// Cap on materialised rows (after ordering).
    pub limit: Option<usize>,
}

impl Default for Query {
    fn default() -> Self {
        Query {
            filter: Predicate::True,
            project: Vec::new(),
            aggregate: None,
            order_by: None,
            limit: None,
        }
    }
}

impl Query {
    /// A query with just a filter.
    pub fn filtered(filter: Predicate) -> Self {
        Query { filter, ..Default::default() }
    }

    /// Builder: projection.
    pub fn project<S: Into<String>>(mut self, attrs: Vec<S>) -> Self {
        self.project = attrs.into_iter().map(Into::into).collect();
        self
    }

    /// Builder: aggregate.
    pub fn aggregate(mut self, agg: Aggregate) -> Self {
        self.aggregate = Some(agg);
        self
    }

    /// Builder: ordering.
    pub fn order_by(mut self, attr: impl Into<String>, order: Order) -> Self {
        self.order_by = Some((attr.into(), order));
        self
    }

    /// Builder: row cap.
    pub fn take(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }
}

/// One materialised result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The fused entity's canonical key.
    pub key: String,
    /// Input records merged into the entity.
    pub member_count: usize,
    /// Projected `(attribute, value)` pairs, in projection (or record)
    /// order.
    pub fields: Vec<(String, Value)>,
}

/// The result of executing a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Materialised rows (no aggregate requested).
    Rows(Vec<Row>),
    /// [`Aggregate::Count`].
    Count(u64),
    /// [`Aggregate::Sum`] / [`Aggregate::Min`] / [`Aggregate::Max`];
    /// `None` when no row carried a usable value.
    Value(Option<Value>),
    /// [`Aggregate::GroupBy`]: `(value, row count)` in value order.
    Groups(Vec<(Value, u64)>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{doc, Record, RecordId, SourceId};

    fn entity(name: &str, price: i64, kind: &str) -> FusedEntity {
        FusedEntity {
            key: name.to_lowercase(),
            record: Record::from_pairs(
                SourceId(0),
                RecordId(0),
                vec![
                    ("SHOW_NAME", Value::from(name)),
                    ("PRICE", Value::Int(price)),
                    ("KIND", Value::from(kind)),
                ],
            ),
            member_count: 2,
            confidence: Some(0.9),
        }
    }

    #[test]
    fn predicates_over_entities() {
        let e = entity("Matilda", 27, "musical");
        assert!(Predicate::Eq("KIND".into(), "musical".into()).matches(&e));
        assert!(Predicate::Eq("PRICE".into(), Value::Float(27.0)).matches(&e), "canonical eq");
        assert!(Predicate::Gt("PRICE".into(), Value::Int(20)).matches(&e));
        assert!(!Predicate::Gt("PRICE".into(), Value::from("20")).matches(&e), "family gate");
        assert!(Predicate::Contains("SHOW_NAME".into(), "MAT".into()).matches(&e));
        assert!(Predicate::Exists("KIND".into()).matches(&e));
        assert!(!Predicate::Exists("NOPE".into()).matches(&e));
        assert!(Predicate::Eq(KEY_ATTR.into(), "matilda".into()).matches(&e));
        assert!(Predicate::Gte(MEMBERS_ATTR.into(), Value::Int(2)).matches(&e));
    }

    #[test]
    fn boolean_connectives() {
        let e = entity("Wicked", 99, "musical");
        let p = Predicate::And(vec![
            Predicate::Eq("KIND".into(), "musical".into()),
            Predicate::Or(vec![
                Predicate::Lt("PRICE".into(), Value::Int(50)),
                Predicate::Gt("PRICE".into(), Value::Int(90)),
            ]),
        ]);
        assert!(p.matches(&e));
        assert!(!Predicate::Not(Box::new(p)).matches(&e));
    }

    #[test]
    fn document_paths_are_dotted_and_multikey() {
        let d = doc! {
            "entities" => Value::Array(vec![
                Value::Doc(doc! {"type" => "Movie"}),
                Value::Doc(doc! {"type" => "City"}),
            ])
        };
        assert!(Predicate::Eq("entities.type".into(), "Movie".into()).matches(&d));
        assert!(!Predicate::Eq("entities.type".into(), "Person".into()).matches(&d));
    }

    #[test]
    fn attrs_and_conjuncts() {
        let p = Predicate::And(vec![
            Predicate::Eq("A".into(), Value::Int(1)),
            Predicate::Gt("B".into(), Value::Int(2)),
            Predicate::Eq("A".into(), Value::Int(3)),
        ]);
        assert_eq!(p.attrs(), vec!["A", "B"]);
        assert_eq!(p.conjuncts().len(), 3);
        assert_eq!(Predicate::True.conjuncts().len(), 1);
    }
}
