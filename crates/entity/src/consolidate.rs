//! Composite-record merge with conflict resolution.
//!
//! Once a cluster of records is believed to describe one entity, Data Tamer
//! consolidates them "into a composite entity record". Different attributes
//! want different policies: names want the most common spelling, free text
//! wants the longest variant, prices want the minimum.

use std::collections::HashMap;

use datatamer_model::{Record, Value};

/// Conflict resolution policy for merging one attribute's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// Most frequent non-null value; ties break to the first seen.
    MajorityVote,
    /// Longest text rendering (favours information-rich variants).
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
    /// Resolve one attribute's non-null values (cluster order) to a single
    /// surviving value under this policy. Panics on an empty slice.
    ///
    /// The fusion registry in `datatamer-core` delegates to this through
    /// its `PolicyResolver`, inside [`merge_composite`].
    pub fn resolve_values(&self, values: &[&Value]) -> Value {
        match self {
            ConflictPolicy::First => (*values[0]).clone(),
            ConflictPolicy::Longest => (*values
                .iter()
                .max_by_key(|v| v.to_text().len())
                .expect("non-empty"))
            .clone(),
            ConflictPolicy::MajorityVote => majority(values),
            ConflictPolicy::NumericMin => numeric_extreme(values, true),
            ConflictPolicy::NumericMax => numeric_extreme(values, false),
        }
    }
}

/// Composite-record scaffolding shared by every merge flavour: the
/// composite's identity is the first member's `(source, id)`; every
/// attribute present in any member appears in the composite in first-seen
/// order; null values are filtered before resolution; an attribute whose
/// values are all null stays [`Value::Null`].
///
/// `resolve` receives the attribute name and its non-null values as
/// `(member index, value)` pairs in cluster order, and returns the
/// surviving value. The fusion resolver registry in `datatamer-core`
/// instantiates it with provenance-aware truth discovery.
pub fn merge_composite<F>(records: &[&Record], mut resolve: F) -> Record
where
    F: FnMut(&str, &[(usize, &Value)]) -> Value,
{
    assert!(!records.is_empty(), "cannot merge an empty cluster");
    let mut composite = Record::new(records[0].source, records[0].id);
    // First-seen attribute order across the cluster.
    let mut attr_order: Vec<&str> = Vec::new();
    for r in records {
        for name in r.field_names() {
            if !attr_order.contains(&name) {
                attr_order.push(name);
            }
        }
    }
    for attr in attr_order {
        let values: Vec<(usize, &Value)> = records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.get(attr).filter(|v| !v.is_null()).map(|v| (i, v)))
            .collect();
        if values.is_empty() {
            composite.set(attr, Value::Null);
            continue;
        }
        let resolved = resolve(attr, &values);
        composite.set(attr, resolved);
    }
    composite
}

fn majority(values: &[&Value]) -> Value {
    let mut counts: HashMap<String, (usize, usize)> = HashMap::new(); // text -> (count, first_idx)
    for (i, v) in values.iter().enumerate() {
        let e = counts.entry(v.to_text()).or_insert((0, i));
        e.0 += 1;
    }
    let (_, (_, idx)) = counts
        // dtlint::allow(map-iter, reason = "max_by under the total order (count, Reverse(first_idx)) has a unique winner")
        .into_iter()
        .max_by(|(_, (ca, ia)), (_, (cb, ib))| ca.cmp(cb).then(ib.cmp(ia)))
        .expect("non-empty");
    (*values[idx]).clone()
}

fn numeric_extreme(values: &[&Value], min: bool) -> Value {
    let parsed: Vec<(usize, f64)> = values
        .iter()
        .enumerate()
        .filter_map(|(i, v)| numeric_of(v).map(|x| (i, x)))
        .collect();
    if parsed.is_empty() {
        return majority(values);
    }
    let (idx, _) = parsed
        .into_iter()
        .min_by(|(_, a), (_, b)| {
            let ord = a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
            if min {
                ord
            } else {
                ord.reverse()
            }
        })
        .expect("non-empty");
    (*values[idx]).clone()
}

fn numeric_of(v: &Value) -> Option<f64> {
    if let Some(x) = v.as_float() {
        return Some(x);
    }
    let text = v.to_text();
    datatamer_model::infer::parse_money(&text)
        .map(|m| m.amount)
        .or_else(|| datatamer_model::infer::parse_decimal(&text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{RecordId, SourceId};

    fn rec(id: u64, fields: Vec<(&str, &str)>) -> Record {
        Record::from_pairs(
            SourceId(0),
            RecordId(id),
            fields.into_iter().map(|(k, v)| (k, Value::from(v))).collect(),
        )
    }

    /// Merge with every attribute resolved under `policy`.
    fn merge(records: &[Record], policy: ConflictPolicy) -> Record {
        let refs: Vec<&Record> = records.iter().collect();
        merge_composite(&refs, |_, values| {
            let plain: Vec<&Value> = values.iter().map(|&(_, v)| v).collect();
            policy.resolve_values(&plain)
        })
    }

    #[test]
    fn majority_vote_picks_common_spelling() {
        let rs = [
            rec(0, vec![("name", "Matilda")]),
            rec(1, vec![("name", "MATILDA")]),
            rec(2, vec![("name", "Matilda")]),
        ];
        let merged = merge(&rs, ConflictPolicy::MajorityVote);
        assert_eq!(merged.get_text("name").as_deref(), Some("Matilda"));
    }

    #[test]
    fn longest_keeps_richest_text() {
        let rs = [
            rec(0, vec![("venue", "Shubert")]),
            rec(1, vec![("venue", "Shubert 225 W. 44th St between 7th and 8th")]),
        ];
        let merged = merge(&rs, ConflictPolicy::Longest);
        assert!(merged.get_text("venue").unwrap().contains("225 W. 44th"));
    }

    #[test]
    fn numeric_min_handles_money_strings() {
        let rs = [
            rec(0, vec![("price", "$45")]),
            rec(1, vec![("price", "$27")]),
            rec(2, vec![("price", "$99.50")]),
        ];
        let merged = merge(&rs, ConflictPolicy::NumericMin);
        assert_eq!(merged.get_text("price").as_deref(), Some("$27"));
    }

    #[test]
    fn numeric_max_and_fallback() {
        let rs = [rec(0, vec![("cap", "1460")]), rec(1, vec![("cap", "900")])];
        let max = ConflictPolicy::NumericMax;
        assert_eq!(merge(&rs, max).get_text("cap").as_deref(), Some("1460"));
        // Non-numeric values under a numeric policy fall back to majority.
        let rs = [rec(0, vec![("cap", "big")]), rec(1, vec![("cap", "big")])];
        assert_eq!(merge(&rs, max).get_text("cap").as_deref(), Some("big"));
    }

    #[test]
    fn union_of_attributes_with_nulls() {
        let rs = [
            rec(0, vec![("name", "Matilda")]),
            rec(1, vec![("name", "Matilda"), ("price", "$27")]),
        ];
        let merged = merge(&rs, ConflictPolicy::MajorityVote);
        assert_eq!(merged.get_text("price").as_deref(), Some("$27"));
        assert_eq!(merged.len(), 2);
        // Identity comes from the first member.
        assert_eq!(merged.key(), (SourceId(0), RecordId(0)));
    }

    #[test]
    fn first_policy_respects_order() {
        let rs = [rec(0, vec![("x", "a")]), rec(1, vec![("x", "b")])];
        assert_eq!(merge(&rs, ConflictPolicy::First).get_text("x").as_deref(), Some("a"));
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn empty_cluster_panics() {
        merge(&[], ConflictPolicy::MajorityVote);
    }
}
