//! Index-key wrapper giving [`Value`] the total equality and order that
//! sorted map keys need.
//!
//! `Value`'s own `PartialEq` is structural and not total over floats
//! (NaN ≠ NaN, `Int(3)` ≠ `Float(3.0)`). [`AttrKey`] takes both equality
//! and order from [`Value::total_cmp`] instead: IEEE total order for
//! floats, an exact comparison between `Int` and `Float` (so `Int(3)`
//! equals `Float(3.0)`, and `Int(2^53 + 1)` sits above `Float(2^53)`), and
//! type rank across types. It has no `Hash`: every map keyed on it is
//! sorted — the storage engine's secondary indexes and `count_by`, and the
//! query crate's indexes and group-by.

use std::cmp::Ordering;

use crate::Value;

/// A [`Value`] usable as a sorted-index key.
#[derive(Debug, Clone)]
pub struct AttrKey(pub Value);

impl AttrKey {
    /// The wrapped value.
    pub fn value(&self) -> &Value {
        &self.0
    }
}

impl PartialEq for AttrKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for AttrKey {}

impl PartialOrd for AttrKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for AttrKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_float_keys_compare_equal() {
        let three = AttrKey(Value::Int(3));
        assert_eq!(three, AttrKey(Value::Float(3.0)));
        assert_eq!(three.cmp(&AttrKey(Value::Float(3.0))), Ordering::Equal);
        assert!(three < AttrKey(Value::Float(3.5)));
        let big = 1i64 << 53;
        assert!(AttrKey(Value::Float(big as f64)) < AttrKey(Value::Int(big + 1)));
    }

    #[test]
    fn nan_equals_itself() {
        let a = AttrKey(Value::Float(f64::NAN));
        let b = AttrKey(Value::Float(f64::NAN));
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert!(AttrKey(Value::Float(f64::INFINITY)) < a, "NaN sorts after every number");
    }

    #[test]
    fn order_matches_total_cmp() {
        let mut keys = [
            AttrKey(Value::from("b")),
            AttrKey(Value::Int(5)),
            AttrKey(Value::Null),
            AttrKey(Value::from("a")),
        ];
        keys.sort();
        let rendered: Vec<String> = keys.iter().map(|k| k.value().to_text()).collect();
        assert_eq!(rendered, vec!["null", "5", "a", "b"]);
    }
}
