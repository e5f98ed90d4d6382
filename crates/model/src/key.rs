//! Index-key wrapper giving [`Value`] the total equality/order/hash triple
//! that map keys need.
//!
//! `Value` itself deliberately has no `Hash` impl and a non-total float
//! `PartialEq` (NaN ≠ NaN), which would make `HashMap`-backed index buckets
//! unsound. [`AttrKey`] closes that gap: equality and order come from
//! [`Value::total_cmp`] (IEEE total order for floats, cross-type rank
//! otherwise), and the hash is derived so that `a == b ⇒ hash(a) ==
//! hash(b)` — in particular `Int(3)` and `Float(3.0)` compare `Equal`
//! under `total_cmp`, so both hash through the same `f64` bit pattern.
//! The storage engine's secondary indexes and `count_by`, and the query
//! crate's indexes and group-by, all key on it.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use crate::Value;

/// A [`Value`] usable as a hash- or tree-index key.
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

impl Hash for AttrKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_value(&self.0, state);
    }
}

/// Hash consistent with [`Value::total_cmp`]-equality: numerics hash their
/// `f64` total-order bit pattern (so `Int(3)` and `Float(3.0)` collide into
/// the same bucket, as required — ints beyond 2^53 may share a bucket with
/// a neighbouring float, which is a plain hash collision, not an equality
/// error).
fn hash_value<H: Hasher>(v: &Value, state: &mut H) {
    match v {
        Value::Null => state.write_u8(0),
        Value::Bool(b) => {
            state.write_u8(1);
            state.write_u8(u8::from(*b));
        }
        Value::Int(i) => {
            state.write_u8(2);
            state.write_u64((*i as f64).to_bits());
        }
        Value::Float(f) => {
            state.write_u8(2);
            state.write_u64(f.to_bits());
        }
        Value::Str(s) => {
            state.write_u8(3);
            state.write(s.as_bytes());
        }
        Value::Array(items) => {
            state.write_u8(4);
            state.write_usize(items.len());
            for item in items {
                hash_value(item, state);
            }
        }
        Value::Doc(d) => {
            state.write_u8(5);
            state.write_usize(d.len());
            for (k, inner) in d.iter() {
                state.write(k.as_bytes());
                hash_value(inner, state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn int_and_float_share_bucket() {
        let mut m: HashMap<AttrKey, u32> = HashMap::new();
        m.insert(AttrKey(Value::Int(3)), 1);
        assert_eq!(m.get(&AttrKey(Value::Float(3.0))), Some(&1));
        assert_eq!(m.get(&AttrKey(Value::Float(3.5))), None);
    }

    #[test]
    fn nan_equals_itself() {
        let a = AttrKey(Value::Float(f64::NAN));
        let b = AttrKey(Value::Float(f64::NAN));
        assert_eq!(a, b);
        let mut m: HashMap<AttrKey, u32> = HashMap::new();
        m.insert(a, 7);
        assert_eq!(m.get(&b), Some(&7));
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
