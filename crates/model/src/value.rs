//! Dynamic value type for semi-structured data.
//!
//! [`Value`] is the leaf-to-root value representation used by the storage
//! engine, the flattener, and every downstream module. It intentionally
//! mirrors the value systems of document stores (null / bool / int / float /
//! string / array / document) since the paper's text-side substrate is a
//! MongoDB-style sharded document store.

use std::cmp::Ordering;
use std::fmt;

use crate::document::Document;

/// A dynamically typed value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// Absent / unknown value.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered array of values.
    Array(Vec<Value>),
    /// Nested document.
    Doc(Document),
}

impl Value {
    /// Short, stable name of the value's runtime type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Array(_) => "array",
            Value::Doc(_) => "doc",
        }
    }

    /// Rank used for cross-type ordering (null < bool < numbers < str < array < doc).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Array(_) => 4,
            Value::Doc(_) => 5,
        }
    }

    /// True when the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True when the value is a scalar (not array/doc).
    pub fn is_scalar(&self) -> bool {
        !matches!(self, Value::Array(_) | Value::Doc(_))
    }

    /// Borrow as `&str`, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: ints widen to floats.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Borrow as nested document.
    pub fn as_doc(&self) -> Option<&Document> {
        match self {
            Value::Doc(d) => Some(d),
            _ => None,
        }
    }

    /// Number of scalar leaves contained in this value (a scalar counts as 1).
    pub fn leaf_count(&self) -> usize {
        match self {
            Value::Array(a) => a.iter().map(Value::leaf_count).sum(),
            Value::Doc(d) => d.iter().map(|(_, v)| v.leaf_count()).sum(),
            _ => 1,
        }
    }

    /// Approximate in-memory footprint in bytes, used for extent accounting
    /// before binary encoding is available.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Array(a) => 5 + a.iter().map(Value::approx_size).sum::<usize>(),
            Value::Doc(d) => {
                5 + d
                    .iter()
                    .map(|(k, v)| 1 + k.len() + v.approx_size())
                    .sum::<usize>()
            }
        }
    }

    /// Canonical string rendering used for tokenisation and matching.
    ///
    /// Unlike `Display`, strings are rendered without quotes.
    pub fn to_text(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        }
    }

    /// Total ordering across all values, suitable for index keys.
    ///
    /// Floats order by IEEE total-order semantics (NaN sorts last among
    /// numbers); an `Int` and a `Float` compare exactly, by the numbers
    /// they denote, even beyond 2^53 where `i as f64` rounds; cross-type
    /// comparisons order by type rank.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => int_float_cmp(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Array(a), Value::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.total_cmp(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Doc(a), Value::Doc(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    let ord = ka.cmp(kb).then_with(|| va.total_cmp(vb));
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => unreachable!("same type rank implies comparable variants"),
        }
    }
}

/// `i` against `f`, exactly. Rounding `i` to `f64` is monotone, so an
/// unequal result already holds for `i` itself; a tie means `f` is an
/// integer in `[-2^63, 2^63]`, settled in `i64` (2^63 is above every
/// `i64`). `Int(0)` therefore equals `+0.0` and sits above `-0.0`, and the
/// NaNs stay at the ends.
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    match (i as f64).total_cmp(&f) {
        Ordering::Equal if f >= 9_223_372_036_854_775_808.0 => Ordering::Less,
        Ordering::Equal => i.cmp(&(f as i64)),
        unequal => unequal,
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Doc(d) => write!(f, "{d}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Document> for Value {
    fn from(d: Document) -> Self {
        Value::Doc(d)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::from(3i64).as_float(), Some(3.0));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert!(Value::Null.as_float().is_none());
        assert!(Value::from("x").as_float().is_none());
    }

    #[test]
    fn display_renders_json_like() {
        let v = Value::Array(vec![Value::Int(1), Value::Str("a".into()), Value::Null]);
        assert_eq!(v.to_string(), "[1, \"a\", null]");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
    }

    #[test]
    fn to_text_unquotes_strings() {
        assert_eq!(Value::from("Matilda").to_text(), "Matilda");
        assert_eq!(Value::Int(27).to_text(), "27");
    }

    #[test]
    fn total_cmp_orders_across_types() {
        let mut vals = [Value::Str("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(2.5));
        assert_eq!(vals[3], Value::Int(5));
        assert_eq!(vals[4], Value::Str("a".into()));
    }

    #[test]
    fn total_cmp_mixes_ints_and_floats() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(3)), Ordering::Equal);
        assert_eq!(Value::Float(f64::NAN).total_cmp(&Value::Int(i64::MAX)), Ordering::Greater);
    }

    #[test]
    fn total_cmp_is_a_total_order_over_numeric_edge_values() {
        // `Int(2^53 + 1)` rounds to `2^53` as an `f64`: comparing through
        // that rounding made `Int(2^53) == Float(2^53) == Int(2^53 + 1)`
        // while `Int(2^53) < Int(2^53 + 1)`.
        let p53 = 1i64 << 53;
        let mut vals = Vec::new();
        for i in [i64::MIN, i64::MAX, p53, -p53, p53 + 1, -p53 - 1, 0] {
            vals.push(Value::Int(i));
            vals.push(Value::Float(i as f64));
        }
        for f in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN] {
            vals.push(Value::Float(f));
        }
        for a in &vals {
            for b in &vals {
                let ab = a.total_cmp(b);
                assert_eq!(ab, b.total_cmp(a).reverse(), "antisymmetry: {a:?} vs {b:?}");
                for c in &vals {
                    let (bc, ac) = (b.total_cmp(c), a.total_cmp(c));
                    if ab == Ordering::Equal {
                        assert_eq!(ac, bc, "equality: {a:?} = {b:?} but not against {c:?}");
                    }
                    if ab != Ordering::Greater && bc != Ordering::Greater {
                        assert_ne!(
                            ac,
                            Ordering::Greater,
                            "transitivity: {a:?} ≤ {b:?} ≤ {c:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(Value::Int(p53).total_cmp(&Value::Int(p53 + 1)), Ordering::Less);
        assert_eq!(Value::Int(p53 + 1).total_cmp(&Value::Float(p53 as f64)), Ordering::Greater);
        assert_eq!(Value::Int(i64::MAX).total_cmp(&Value::Float(i64::MAX as f64)), Ordering::Less);
        assert_eq!(Value::Int(0).total_cmp(&Value::Float(-0.0)), Ordering::Greater);
    }

    #[test]
    fn leaf_count_recurses() {
        let d = Document::from_pairs(vec![
            ("a", Value::Int(1)),
            ("b", Value::Array(vec![Value::Int(2), Value::Int(3)])),
            (
                "c",
                Value::Doc(Document::from_pairs(vec![("d", Value::Str("x".into()))])),
            ),
        ]);
        assert_eq!(Value::Doc(d).leaf_count(), 4);
    }

    #[test]
    fn approx_size_scales_with_content() {
        let small = Value::from("ab").approx_size();
        let big = Value::from("abcdefghij").approx_size();
        assert!(big > small);
        assert!(Value::Null.approx_size() >= 1);
    }

    #[test]
    fn array_ordering_is_lexicographic() {
        let a = Value::Array(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::Array(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::Array(vec![Value::Int(1)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(c.total_cmp(&a), Ordering::Less);
    }
}
