//! Per-attribute truth discovery: the [`ValueResolver`] trait and the
//! order-independent built-in resolvers.
//!
//! Fusion has two levels. A [`crate::fusion::GroupingStrategy`] decides
//! *grouping* — which records describe the same entity. A `ValueResolver` decides
//! *truth* — which of a group's conflicting values for one attribute
//! survive into the composite. Resolvers see full provenance
//! ([`ProvenancedValue`]: value + source id + record id + cluster rank), so
//! they can weight sources, prefer fresh records, or keep several values.
//!
//! Every built-in resolver is deterministic **and** permutation-invariant:
//! feeding the same multiset of provenanced values in any order yields the
//! same [`Resolved`]. Ties never break on input position — they break on
//! value text, then on provenance — so the fusion stage stays byte-identical
//! at any rayon thread count (and under any upstream reordering). The one
//! exception is [`PolicyResolver`], which deliberately preserves the classic
//! order-sensitive [`ConflictPolicy`] semantics (`First`, first-seen tie
//! breaks) for source-priority fusion.

use std::collections::HashMap;

use datatamer_entity::consolidate::ConflictPolicy;
use datatamer_model::{RecordId, SourceId, Value};

/// One attribute value with its provenance: where it came from and where it
/// sits in the cluster's source-priority order.
#[derive(Debug, Clone, Copy)]
pub struct ProvenancedValue<'a> {
    /// The (non-null) value itself.
    pub value: &'a Value,
    /// Source the contributing record was ingested from.
    pub source: SourceId,
    /// The contributing record's source-local id.
    pub record: RecordId,
    /// Position of the contributing record in cluster order (0 = the
    /// highest-priority source; callers list curated sources first).
    pub rank: usize,
}

impl<'a> ProvenancedValue<'a> {
    /// Text rendering of the value (the unit resolvers vote over).
    pub fn text(&self) -> String {
        self.value.to_text()
    }

    /// Provenance sort key: `(source, record)`.
    pub fn provenance(&self) -> (SourceId, RecordId) {
        (self.source, self.record)
    }
}

/// What a resolver decided for one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Resolved {
    /// Exactly one value survives (the single-truth case).
    Single(Value),
    /// Several values survive (genuine multi-truth attributes). The merge
    /// writes one value as a scalar and two or more as a [`Value::Array`].
    Multi(Vec<Value>),
    /// No value survives; the composite attribute stays null.
    None,
}

impl Resolved {
    /// All surviving values, in order.
    pub fn values(&self) -> &[Value] {
        match self {
            Resolved::Single(v) => std::slice::from_ref(v),
            Resolved::Multi(vs) => vs,
            Resolved::None => &[],
        }
    }
}

/// A truth-discovery policy for one attribute's conflicting values.
///
/// Implementations must be `Send + Sync`: the fusion stage resolves groups
/// across the rayon team with one shared registry.
pub trait ValueResolver: Send + Sync {
    /// Stable resolver name (reports, dispatch assertions, benches).
    fn name(&self) -> &'static str;

    /// Resolve one attribute's non-null values. `values` is never empty.
    fn resolve(&self, attr: &str, values: &[ProvenancedValue<'_>]) -> Resolved;

    /// [`ValueResolver::resolve`] plus a confidence in `[0, 1]` when the
    /// resolver can quantify how contested the decision was (e.g. the
    /// winner's support fraction). Resolvers with no meaningful notion of
    /// confidence — order-sensitive policies, freshness proxies — keep the
    /// default `None`, so downstream consumers can distinguish "fully
    /// contested" from "not measured". The confidence must be a pure
    /// function of the input multiset, like the resolution itself.
    fn resolve_with_confidence(
        &self,
        attr: &str,
        values: &[ProvenancedValue<'_>],
    ) -> (Resolved, Option<f64>) {
        (self.resolve(attr, values), None)
    }
}

/// Count support per distinct text rendering, returning
/// `(text, count, representative)` sorted by text. The representative is
/// the provenance-smallest value with that text, so the output is fully
/// determined by the input multiset.
pub(crate) fn support_by_text<'a>(
    values: &[ProvenancedValue<'a>],
) -> Vec<(String, usize, &'a Value)> {
    let mut by_text: HashMap<String, (usize, ProvenancedValue<'a>)> = HashMap::new();
    for pv in values {
        let e = by_text.entry(pv.text()).or_insert((0, *pv));
        e.0 += 1;
        if pv.provenance() < e.1.provenance() {
            e.1 = *pv;
        }
    }
    let mut out: Vec<(String, usize, &'a Value)> =
        // dtlint::allow(map-iter, reason = "output is sorted by its unique text key on the next line")
        by_text.into_iter().map(|(t, (c, pv))| (t, c, pv.value)).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Majority vote over text renderings. Ties break to the lexicographically
/// smallest text (not first-seen), keeping resolution permutation-invariant.
#[derive(Debug, Clone, Copy, Default)]
pub struct MajorityVote;

impl ValueResolver for MajorityVote {
    fn name(&self) -> &'static str {
        "majority_vote"
    }

    fn resolve(&self, attr: &str, values: &[ProvenancedValue<'_>]) -> Resolved {
        self.resolve_with_confidence(attr, values).0
    }

    /// Confidence is the winner's support fraction: votes agreeing with
    /// the surviving value over all non-null votes (1.0 when unanimous,
    /// approaching `1/k` for a k-way split).
    fn resolve_with_confidence(
        &self,
        _attr: &str,
        values: &[ProvenancedValue<'_>],
    ) -> (Resolved, Option<f64>) {
        let tally = support_by_text(values);
        // Sorted by text, so max_by_key's "last max wins" would pick the
        // lexicographically largest among ties; scan keeps the smallest.
        let mut best = &tally[0];
        for cand in &tally[1..] {
            if cand.1 > best.1 {
                best = cand;
            }
        }
        let confidence = best.1 as f64 / values.len() as f64;
        (Resolved::Single(best.2.clone()), Some(confidence))
    }
}

/// Freshness-proxy resolver: the value from the record-provenance-greatest
/// record — the maximal `(record id, source id)` pair — wins.
///
/// Record ids are source-local and assigned in arrival order, so *within a
/// source* this resolves stale-vs-fresh conflicts to the most recently
/// ingested value. *Across sources* it is only a deterministic proxy: a
/// source with more records outranks a genuinely fresher source with
/// fewer. True cross-source freshness needs record timestamps (a ROADMAP
/// follow-up); until then route attributes here when one source owns their
/// updates or the record-id ordering is meaningful across the corpus.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatestWins;

impl ValueResolver for LatestWins {
    fn name(&self) -> &'static str {
        "latest_wins"
    }

    fn resolve(&self, _attr: &str, values: &[ProvenancedValue<'_>]) -> Resolved {
        // Pick by (record, source); compare texts (allocating) only on an
        // exact provenance tie, which real groups never produce — one
        // record contributes at most one value per attribute.
        let latest = values
            .iter()
            .max_by(|a, b| {
                (a.record, a.source)
                    .cmp(&(b.record, b.source))
                    .then_with(|| a.text().cmp(&b.text()))
            })
            .expect("resolver input is never empty");
        Resolved::Single(latest.value.clone())
    }
}

/// Multi-truth resolver: keeps every distinct value whose support (fraction
/// of the group's non-null values agreeing on it) reaches `min_support`.
///
/// Survivors are ordered by descending support, then text, so the composite
/// is deterministic. When nothing reaches the threshold the best-supported
/// value still survives (an attribute with values never resolves to null).
#[derive(Debug, Clone, Copy)]
pub struct MultiTruth {
    /// Minimum support fraction for a value to survive. Clamped into
    /// `(0, 1]` at resolution time: non-positive or NaN behaves as "any
    /// support" (every distinct value survives), above 1 as "unanimity
    /// only" — a misconfigured threshold degrades gracefully instead of
    /// producing nonsense.
    pub min_support: f64,
}

impl Default for MultiTruth {
    /// A quarter of the group must agree — permissive enough to keep
    /// genuine alternative truths, strict enough to drop lone outliers in
    /// large groups.
    fn default() -> Self {
        MultiTruth { min_support: 0.25 }
    }
}

impl ValueResolver for MultiTruth {
    fn name(&self) -> &'static str {
        "multi_truth"
    }

    fn resolve(&self, _attr: &str, values: &[ProvenancedValue<'_>]) -> Resolved {
        let min_support = if self.min_support.is_nan() {
            f64::MIN_POSITIVE
        } else {
            self.min_support.clamp(f64::MIN_POSITIVE, 1.0)
        };
        let total = values.len() as f64;
        let mut tally = support_by_text(values);
        // Descending support, then ascending text.
        tally.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let kept: Vec<Value> = tally
            .iter()
            .filter(|(_, count, _)| *count as f64 / total >= min_support)
            .map(|(_, _, v)| (*v).clone())
            .collect();
        match kept.len() {
            0 => Resolved::Single(tally[0].2.clone()),
            1 => Resolved::Single(kept.into_iter().next().expect("len checked")),
            _ => Resolved::Multi(kept),
        }
    }
}

/// Adapter giving the classic [`ConflictPolicy`] merge primitives (`First`,
/// `Longest`, `NumericMin`, …) a seat in the resolver registry.
///
/// Unlike the truth-discovery resolvers this preserves the policies'
/// order-sensitive semantics — `First` *means* cluster order, and majority
/// ties break first-seen — which is exactly what source-priority fusion
/// (curated sources listed first) relies on.
#[derive(Debug, Clone, Copy)]
pub struct PolicyResolver(pub ConflictPolicy);

impl ValueResolver for PolicyResolver {
    fn name(&self) -> &'static str {
        match self.0 {
            ConflictPolicy::MajorityVote => "policy:majority_vote",
            ConflictPolicy::Longest => "policy:longest",
            ConflictPolicy::First => "policy:first",
            ConflictPolicy::NumericMin => "policy:numeric_min",
            ConflictPolicy::NumericMax => "policy:numeric_max",
        }
    }

    fn resolve(&self, _attr: &str, values: &[ProvenancedValue<'_>]) -> Resolved {
        // ConflictPolicy semantics are defined over cluster order. The
        // merge path always supplies rank order already, so only a
        // hand-shuffled slice pays for the restoring sort.
        let plain: Vec<&Value> = if values.windows(2).all(|w| w[0].rank <= w[1].rank) {
            values.iter().map(|pv| pv.value).collect()
        } else {
            let mut ordered: Vec<&ProvenancedValue<'_>> = values.iter().collect();
            ordered.sort_by_key(|pv| pv.rank);
            ordered.iter().map(|pv| pv.value).collect()
        };
        Resolved::Single(self.0.resolve_values(&plain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pv(value: &Value, source: u32, record: u64, rank: usize) -> ProvenancedValue<'_> {
        ProvenancedValue {
            value,
            source: SourceId(source),
            record: RecordId(record),
            rank,
        }
    }

    fn texts(vals: &[&str]) -> Vec<Value> {
        vals.iter().map(|s| Value::from(*s)).collect()
    }

    fn pvs(vals: &[Value]) -> Vec<ProvenancedValue<'_>> {
        vals.iter()
            .enumerate()
            .map(|(i, v)| pv(v, i as u32, i as u64, i))
            .collect()
    }

    #[test]
    fn majority_vote_counts_support() {
        let vals = texts(&["a", "b", "b"]);
        let r = MajorityVote.resolve("x", &pvs(&vals));
        assert_eq!(r, Resolved::Single(Value::from("b")));
    }

    #[test]
    fn majority_vote_confidence_is_support_fraction() {
        let vals = texts(&["a", "b", "b", "b"]);
        let (r, c) = MajorityVote.resolve_with_confidence("x", &pvs(&vals));
        assert_eq!(r, Resolved::Single(Value::from("b")));
        assert_eq!(c, Some(0.75));
        let unanimous = texts(&["z", "z"]);
        let (_, c) = MajorityVote.resolve_with_confidence("x", &pvs(&unanimous));
        assert_eq!(c, Some(1.0));
        // A 3-way split still reports the (low) winning fraction.
        let split = texts(&["a", "b", "c"]);
        let (_, c) = MajorityVote.resolve_with_confidence("x", &pvs(&split));
        assert!((c.unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn resolvers_without_confidence_report_none() {
        let vals = texts(&["x", "y"]);
        let provs = pvs(&vals);
        assert_eq!(LatestWins.resolve_with_confidence("a", &provs).1, None);
        assert_eq!(
            PolicyResolver(ConflictPolicy::First).resolve_with_confidence("a", &provs).1,
            None
        );
        assert_eq!(MultiTruth::default().resolve_with_confidence("a", &provs).1, None);
        // The default method must agree with resolve().
        assert_eq!(
            LatestWins.resolve_with_confidence("a", &provs).0,
            LatestWins.resolve("a", &provs)
        );
    }

    #[test]
    fn majority_vote_tie_breaks_lexicographically() {
        let vals = texts(&["beta", "alpha"]);
        let r = MajorityVote.resolve("x", &pvs(&vals));
        assert_eq!(r, Resolved::Single(Value::from("alpha")), "not first-seen");
    }

    #[test]
    fn latest_wins_takes_max_record_provenance() {
        let vals = texts(&["stale", "fresh", "mid"]);
        let provs = vec![pv(&vals[0], 0, 3, 0), pv(&vals[1], 0, 9, 1), pv(&vals[2], 1, 5, 2)];
        assert_eq!(LatestWins.resolve("x", &provs), Resolved::Single(Value::from("fresh")));
    }

    #[test]
    fn multi_truth_keeps_supported_values() {
        let vals = texts(&["red", "red", "blue", "blue", "green"]);
        let r = MultiTruth { min_support: 0.4 }.resolve("x", &pvs(&vals));
        assert_eq!(r, Resolved::Multi(vec![Value::from("blue"), Value::from("red")]));
        // Everything qualifies at a tiny threshold; ordering is support-major.
        let all = MultiTruth { min_support: 0.1 }.resolve("x", &pvs(&vals));
        assert_eq!(all.values().len(), 3);
    }

    #[test]
    fn multi_truth_never_resolves_to_none() {
        let vals = texts(&["a", "b", "c"]);
        let r = MultiTruth { min_support: 0.9 }.resolve("x", &pvs(&vals));
        assert_eq!(r, Resolved::Single(Value::from("a")), "best-supported survives");
    }

    #[test]
    fn multi_truth_clamps_out_of_range_thresholds() {
        let vals = texts(&["a", "a", "b"]);
        // Non-positive / NaN = any support: both distinct values survive.
        for degenerate in [0.0, -3.0, f64::NAN] {
            let r = MultiTruth { min_support: degenerate }.resolve("x", &pvs(&vals));
            assert_eq!(
                r,
                Resolved::Multi(vec![Value::from("a"), Value::from("b")]),
                "min_support {degenerate}"
            );
        }
        // Above 1 = unanimity only: the split collapses to the best.
        let r = MultiTruth { min_support: 7.5 }.resolve("x", &pvs(&vals));
        assert_eq!(r, Resolved::Single(Value::from("a")));
        let unanimous = texts(&["z", "z"]);
        let r = MultiTruth { min_support: 7.5 }.resolve("x", &pvs(&unanimous));
        assert_eq!(r, Resolved::Single(Value::from("z")));
    }

    #[test]
    fn policy_resolver_respects_cluster_order_not_slice_order() {
        let vals = texts(&["second", "first"]);
        // Slice order disagrees with rank order; `First` must follow rank.
        let provs = vec![pv(&vals[0], 1, 1, 1), pv(&vals[1], 0, 0, 0)];
        let r = PolicyResolver(ConflictPolicy::First).resolve("x", &provs);
        assert_eq!(r, Resolved::Single(Value::from("first")));
    }

    #[test]
    fn resolved_values_views() {
        assert_eq!(Resolved::None.values().len(), 0);
        assert_eq!(Resolved::Single(Value::Int(1)).values(), &[Value::Int(1)]);
        assert_eq!(
            Resolved::Multi(vec![Value::Int(1), Value::Int(2)]).values().len(),
            2
        );
    }
}
