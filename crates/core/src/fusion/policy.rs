//! The classic order-sensitive merge policies.
//!
//! Once a cluster of records is believed to describe one entity, Data Tamer
//! consolidates them "into a composite entity record". Different attributes
//! want different policies: names want the most common spelling, free text
//! wants the longest variant, prices want the minimum. Unlike the other
//! resolvers these follow cluster order — `First` *means* the
//! highest-priority source, and every tie breaks to the first-seen value —
//! which is what source-priority fusion (curated sources listed first)
//! relies on.

use std::cmp::Reverse;
use std::collections::HashMap;

use datatamer_model::Value;

/// Conflict resolution policy for merging one attribute's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// Most frequent non-null value; ties break to the first seen.
    MajorityVote,
    /// Longest text rendering (favours information-rich variants); ties
    /// break to the first seen.
    Longest,
    /// First non-null in cluster order (source priority order).
    First,
    /// Numeric minimum (e.g. CHEAPEST_PRICE); non-numeric falls back to
    /// majority vote.
    NumericMin,
    /// Numeric maximum; non-numeric falls back to majority vote.
    NumericMax,
}

impl ConflictPolicy {
    /// Resolve one attribute's non-null values (cluster order) to the
    /// surviving value under this policy; `None` for an empty slice.
    pub(super) fn resolve_values(&self, values: &[&Value]) -> Option<Value> {
        match self {
            ConflictPolicy::First => values.first().map(|v| (*v).clone()),
            // `min_by_key` keeps the first of equal keys, so a length tie
            // goes to the higher-priority member.
            ConflictPolicy::Longest => values
                .iter()
                .min_by_key(|v| Reverse(v.to_text().len()))
                .map(|v| (*v).clone()),
            ConflictPolicy::MajorityVote => majority(values),
            ConflictPolicy::NumericMin => numeric_extreme(values, true),
            ConflictPolicy::NumericMax => numeric_extreme(values, false),
        }
    }
}

fn majority(values: &[&Value]) -> Option<Value> {
    let mut counts: HashMap<String, (usize, usize)> = HashMap::new(); // text -> (count, first_idx)
    for (i, v) in values.iter().enumerate() {
        let e = counts.entry(v.to_text()).or_insert((0, i));
        e.0 += 1;
    }
    let (_, (_, idx)) = counts
        // dtlint::allow(map-iter, reason = "max_by under the total order (count, Reverse(first_idx)) has a unique winner")
        .into_iter()
        .max_by(|(_, (ca, ia)), (_, (cb, ib))| ca.cmp(cb).then(ib.cmp(ia)))?;
    Some((*values[idx]).clone())
}

fn numeric_extreme(values: &[&Value], min: bool) -> Option<Value> {
    let parsed: Vec<(usize, f64)> = values
        .iter()
        .enumerate()
        .filter_map(|(i, v)| numeric_of(v).map(|x| (i, x)))
        .collect();
    let Some((idx, _)) = parsed.into_iter().min_by(|(_, a), (_, b)| {
        let ord = a.total_cmp(b);
        if min {
            ord
        } else {
            ord.reverse()
        }
    }) else {
        return majority(values);
    };
    Some((*values[idx]).clone())
}

/// A value's number, when it has a finite one: a NaN or an infinity takes
/// no part in a numeric choice.
fn numeric_of(v: &Value) -> Option<f64> {
    let x = match v.as_float() {
        Some(x) => x,
        None => {
            let text = v.to_text();
            datatamer_model::infer::parse_money(&text)
                .map(|m| m.amount)
                .or_else(|| datatamer_model::infer::parse_decimal(&text))?
        }
    };
    x.is_finite().then_some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(vals: &[&str]) -> Vec<Value> {
        vals.iter().map(|s| Value::from(*s)).collect()
    }

    /// Resolve `vals` (cluster order) under `policy`.
    fn resolve(policy: ConflictPolicy, vals: &[&str]) -> Option<Value> {
        let values = texts(vals);
        let refs: Vec<&Value> = values.iter().collect();
        policy.resolve_values(&refs)
    }

    #[test]
    fn majority_vote_picks_common_spelling() {
        let r = resolve(ConflictPolicy::MajorityVote, &["Matilda", "MATILDA", "Matilda"]);
        assert_eq!(r, Some(Value::from("Matilda")));
        // A 1–1 split goes to the first seen.
        let r = resolve(ConflictPolicy::MajorityVote, &["beta", "alpha"]);
        assert_eq!(r, Some(Value::from("beta")));
    }

    #[test]
    fn longest_keeps_richest_text() {
        let r = resolve(
            ConflictPolicy::Longest,
            &["Shubert", "Shubert 225 W. 44th St between 7th and 8th"],
        );
        assert!(r.unwrap().to_text().contains("225 W. 44th"));
    }

    #[test]
    fn longest_breaks_length_ties_to_the_first_seen() {
        let r = resolve(ConflictPolicy::Longest, &["abc", "xyz", "ab"]);
        assert_eq!(r, Some(Value::from("abc")));
        let r = resolve(ConflictPolicy::Longest, &["ab", "xyz", "abc"]);
        assert_eq!(r, Some(Value::from("xyz")));
    }

    #[test]
    fn numeric_min_handles_money_strings() {
        let r = resolve(ConflictPolicy::NumericMin, &["$45", "$27", "$99.50"]);
        assert_eq!(r, Some(Value::from("$27")));
    }

    #[test]
    fn numeric_extremes_ignore_nan_in_any_position() {
        let long = format!("0.{}", "5".repeat(320));
        let cases = [
            [Value::Float(f64::NAN), Value::Int(5), Value::Int(3)],
            [Value::from(long.as_str()), Value::from("0.9"), Value::from("0.3")],
        ];
        for [odd, high, low] in cases {
            let orders = [
                [&odd, &high, &low],
                [&odd, &low, &high],
                [&high, &odd, &low],
                [&high, &low, &odd],
                [&low, &odd, &high],
                [&low, &high, &odd],
            ];
            for values in orders {
                let min = ConflictPolicy::NumericMin.resolve_values(&values);
                assert_eq!(min.as_ref(), Some(&low), "{values:?}");
                let max = ConflictPolicy::NumericMax.resolve_values(&values);
                assert_eq!(max.as_ref(), Some(&high), "{values:?}");
            }
        }
    }

    #[test]
    fn numeric_max_and_fallback() {
        let max = ConflictPolicy::NumericMax;
        assert_eq!(resolve(max, &["1460", "900"]), Some(Value::from("1460")));
        // An equal maximum keeps the first seen.
        assert_eq!(resolve(max, &["$20", "$45", "$45.00"]), Some(Value::from("$45")));
        // Non-numeric values under a numeric policy fall back to majority.
        assert_eq!(resolve(max, &["big", "huge", "big"]), Some(Value::from("big")));
    }

    #[test]
    fn first_policy_respects_order() {
        assert_eq!(resolve(ConflictPolicy::First, &["a", "b"]), Some(Value::from("a")));
    }
}
