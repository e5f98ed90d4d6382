//! The typed query AST: predicates, aggregates, and the [`Query`] struct.
//!
//! One predicate language serves every execution surface — index probes
//! and full entity scans — so a query means the same thing no matter
//! which plan runs it. Equality and ordering are *canonical*: values
//! compare by [`Value::total_cmp`], so `Int(3)` matches
//! `Eq(attr, Float(3.0))` and NaN equals itself, exactly the semantics the
//! index keys ([`datatamer_model::AttrKey`]) use — an index probe can therefore
//! never return fewer rows than the predicate accepts. Ordering predicates
//! only match within a type family (numbers, strings, booleans).

use datatamer_core::fusion::FusedEntity;
use datatamer_model::{Document, Value};
use std::borrow::Cow;
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
/// `any_value` calls `f` with every value reachable at `attr`, in order,
/// until `f` returns `true`, and says whether it did — array values
/// contribute each element (multikey), scalars contribute themselves.
/// Values the source holds (a record field, an array element) are lent
/// as [`Cow::Borrowed`], so a predicate or an aggregate reads them in
/// place and clones only what it keeps; a value computed per call (a
/// pseudo-attribute such as [`KEY_ATTR`]) comes as [`Cow::Owned`]. A
/// fused entity resolves `attr` as one record field or a
/// pseudo-attribute; a document resolves it as a dotted path through
/// [`Document::path_values`], the one walk the storage indexes also use.
pub trait AttrSource {
    /// Call `f` on each value at `attr` until it returns `true`; return
    /// whether it did.
    fn any_value<'a>(&'a self, attr: &str, f: impl FnMut(Cow<'a, Value>) -> bool) -> bool;
}

/// The value of a pseudo-attribute of `e`, or `None` when `attr` names a
/// record field.
pub(crate) fn pseudo_value(e: &FusedEntity, attr: &str) -> Option<Value> {
    Some(match attr {
        KEY_ATTR => Value::Str(e.key.clone()),
        MEMBERS_ATTR => Value::Int(e.member_count as i64),
        CONFIDENCE_ATTR => e.confidence.map_or(Value::Null, Value::Float),
        _ => return None,
    })
}

impl AttrSource for FusedEntity {
    fn any_value<'a>(&'a self, attr: &str, mut f: impl FnMut(Cow<'a, Value>) -> bool) -> bool {
        if let Some(v) = pseudo_value(self, attr) {
            return f(Cow::Owned(v));
        }
        match self.record.get(attr) {
            Some(Value::Array(items)) => items.iter().any(|v| f(Cow::Borrowed(v))),
            Some(v) => f(Cow::Borrowed(v)),
            None => false,
        }
    }
}

impl AttrSource for Document {
    /// [`Document::path_values`]: the storage indexes' own key walk, so a
    /// predicate over a stored document sees exactly the values an index
    /// on the same path holds.
    fn any_value<'a>(&'a self, attr: &str, mut f: impl FnMut(Cow<'a, Value>) -> bool) -> bool {
        let mut vals = Vec::new();
        self.path_values(attr, &mut vals);
        vals.into_iter().any(|v| f(Cow::Owned(v)))
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

/// `s.to_lowercase().contains(folded)` for a needle already lowercased.
/// An ASCII `s` is matched in place: its lowercase is its ASCII
/// lowercase, which holds no non-ASCII needle, and a lowercased needle
/// holds no upper-case ASCII. Other text keeps `to_lowercase`, which may
/// fold non-ASCII into ASCII (KELVIN SIGN to `k`).
fn contains_folded(s: &str, folded: &str) -> bool {
    if !s.is_ascii() {
        return s.to_lowercase().contains(folded);
    }
    let needle = folded.as_bytes();
    folded.is_ascii()
        && (needle.is_empty()
            || s.as_bytes().windows(needle.len()).any(|w| w.eq_ignore_ascii_case(needle)))
}

impl Predicate {
    /// Evaluate against a row. A `Contains` lowercases its needle on every
    /// call; the executor prepares the predicate once per query instead.
    pub fn matches<S: AttrSource + ?Sized>(&self, src: &S) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(attr, v) => src.any_value(attr, |x| x.total_cmp(v) == Ordering::Equal),
            Predicate::Ne(attr, v) => !src.any_value(attr, |x| x.total_cmp(v) == Ordering::Equal),
            Predicate::Gt(attr, v) => {
                src.any_value(attr, |x| same_family(&x, v) && x.total_cmp(v) == Ordering::Greater)
            }
            Predicate::Gte(attr, v) => {
                src.any_value(attr, |x| same_family(&x, v) && x.total_cmp(v) != Ordering::Less)
            }
            Predicate::Lt(attr, v) => {
                src.any_value(attr, |x| same_family(&x, v) && x.total_cmp(v) == Ordering::Less)
            }
            Predicate::Lte(attr, v) => {
                src.any_value(attr, |x| same_family(&x, v) && x.total_cmp(v) != Ordering::Greater)
            }
            Predicate::In(attr, options) => {
                src.any_value(attr, |x| options.iter().any(|v| x.total_cmp(v) == Ordering::Equal))
            }
            Predicate::Exists(attr) => src.any_value(attr, |v| !v.is_null()),
            compound => compound.prepare().matches(src),
        }
    }

    /// The predicate with every `Contains` needle lowercased once, to test
    /// row after row.
    pub(crate) fn prepare(&self) -> Prepared<'_> {
        match self {
            Predicate::Contains(attr, needle) => Prepared::Contains(attr, needle.to_lowercase()),
            Predicate::And(ps) => Prepared::And(ps.iter().map(Predicate::prepare).collect()),
            Predicate::Or(ps) => Prepared::Or(ps.iter().map(Predicate::prepare).collect()),
            Predicate::Not(p) => Prepared::Not(Box::new(p.prepare())),
            leaf => Prepared::Leaf(leaf),
        }
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

/// A [`Predicate`] made ready to test many rows: the connectives mirror
/// it, and each `Contains` holds its needle already lowercased.
pub(crate) enum Prepared<'p> {
    /// Any operator but `Contains` and the connectives, tested as written.
    Leaf(&'p Predicate),
    /// `Contains(attr, needle)` with the needle lowercased.
    Contains(&'p str, String),
    And(Vec<Prepared<'p>>),
    Or(Vec<Prepared<'p>>),
    Not(Box<Prepared<'p>>),
}

impl Prepared<'_> {
    /// [`Predicate::matches`] of the predicate this was prepared from.
    pub(crate) fn matches<S: AttrSource + ?Sized>(&self, src: &S) -> bool {
        match self {
            Prepared::Leaf(p) => p.matches(src),
            Prepared::Contains(attr, folded) => {
                src.any_value(attr, |v| matches!(&*v, Value::Str(s) if contains_folded(s, folded)))
            }
            Prepared::And(ps) => ps.iter().all(|p| p.matches(src)),
            Prepared::Or(ps) => ps.iter().any(|p| p.matches(src)),
            Prepared::Not(p) => !p.matches(src),
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
        assert_eq!(p.conjuncts().len(), 3);
        assert_eq!(Predicate::True.conjuncts().len(), 1);
    }
}
