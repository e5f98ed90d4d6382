//! Per-attribute truth discovery: [`ResolverSpec`], the one resolver type.
//!
//! Fusion has two levels. A [`crate::fusion::GroupingStrategy`] decides
//! *grouping* — which records describe the same entity. A `ResolverSpec`
//! decides *truth* — which of a group's conflicting values for one
//! attribute survive into the composite. It is a clonable configuration
//! value and resolves values itself: [`ResolverSpec::resolve`] matches on
//! the variant and runs that resolver. Resolvers see full provenance
//! ([`ProvenancedValue`]: value + source id + record id + cluster rank), so
//! they can weight sources, prefer fresh records, or keep several values.
//!
//! Every resolver but `Policy` is deterministic **and**
//! permutation-invariant: feeding the same multiset of provenanced values
//! in any order yields the same [`Resolved`]. Ties never break on input
//! position — they break on value text, then on provenance — so the fusion
//! stage stays byte-identical at any rayon thread count (and under any
//! upstream reordering). [`ResolverSpec::Policy`] deliberately keeps the
//! classic order-sensitive [`ConflictPolicy`] semantics (`First`,
//! first-seen tie breaks) for source-priority fusion; it reads cluster
//! order from each value's rank, not from the slice.

use std::collections::HashMap;

use datatamer_model::{RecordId, SourceId, Value};

use super::policy::ConflictPolicy;
use super::reliability::source_reliability;

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
    /// writes one value as a scalar, two or more as a [`Value::Array`],
    /// and none (an attribute with no non-null value) as [`Value::Null`].
    Multi(Vec<Value>),
}

impl Resolved {
    /// All surviving values, in order.
    pub fn values(&self) -> &[Value] {
        match self {
            Resolved::Single(v) => std::slice::from_ref(v),
            Resolved::Multi(vs) => vs,
        }
    }
}

/// A truth-discovery resolver for one attribute's conflicting values —
/// the declarative, clonable choice a [`super::RegistryConfig`] routes
/// attributes to, and the code that resolves them.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolverSpec {
    /// Majority vote over text renderings. Ties break to the
    /// lexicographically smallest text (not first-seen), keeping
    /// resolution permutation-invariant.
    MajorityVote,
    /// Iterative accu-style source weighting (see the `reliability`
    /// module).
    SourceReliability {
        /// Fixpoint rounds (a handful suffices; scores stabilise
        /// geometrically).
        iterations: usize,
    },
    /// Freshness proxy: the value from the record-provenance-greatest
    /// record — the maximal `(record id, source id)` pair — wins.
    ///
    /// Record ids are source-local and assigned in arrival order, so
    /// *within a source* this resolves stale-vs-fresh conflicts to the most
    /// recently ingested value. *Across sources* it is only a deterministic
    /// proxy: a source with more records outranks a genuinely fresher
    /// source with fewer. True cross-source freshness needs record
    /// timestamps (a ROADMAP follow-up); until then route attributes here
    /// when one source owns their updates or the record-id ordering is
    /// meaningful across the corpus.
    LatestWins,
    /// Multi-truth: keeps every distinct value whose support (fraction of
    /// the group's non-null values agreeing on it) reaches `min_support`.
    ///
    /// Survivors are ordered by descending support, then text, so the
    /// composite is deterministic. When nothing reaches the threshold the
    /// best-supported value still survives (an attribute with values never
    /// resolves to null).
    MultiTruth {
        /// Minimum support fraction for a value to survive. Clamped into
        /// `(0, 1]` at resolution time: non-positive or NaN behaves as
        /// "any support" (every distinct value survives), above 1 as
        /// "unanimity only" — a misconfigured threshold degrades
        /// gracefully instead of producing nonsense.
        min_support: f64,
    },
    /// A classic order-sensitive merge policy, applied in cluster order.
    Policy(ConflictPolicy),
}

impl ResolverSpec {
    /// Stable resolver name (reports, routing assertions, benches).
    pub fn name(&self) -> &'static str {
        match self {
            ResolverSpec::MajorityVote => "majority_vote",
            ResolverSpec::SourceReliability { .. } => "source_reliability",
            ResolverSpec::LatestWins => "latest_wins",
            ResolverSpec::MultiTruth { .. } => "multi_truth",
            ResolverSpec::Policy(ConflictPolicy::MajorityVote) => "policy:majority_vote",
            ResolverSpec::Policy(ConflictPolicy::Longest) => "policy:longest",
            ResolverSpec::Policy(ConflictPolicy::First) => "policy:first",
            ResolverSpec::Policy(ConflictPolicy::NumericMin) => "policy:numeric_min",
            ResolverSpec::Policy(ConflictPolicy::NumericMax) => "policy:numeric_max",
        }
    }

    /// Resolve one attribute's non-null values, plus a confidence in
    /// `[0, 1]` when the resolver can quantify how contested the decision
    /// was: `MajorityVote`'s winning support fraction, `SourceReliability`'s
    /// winning weight share. The others have no meaningful notion of
    /// confidence and report `None`, so downstream consumers can tell
    /// "fully contested" from "not measured". The confidence is a pure
    /// function of the input multiset, like the resolution itself.
    ///
    /// An empty slice resolves to no survivor (`Multi(vec![])`) and no
    /// confidence.
    pub fn resolve(&self, values: &[ProvenancedValue<'_>]) -> (Resolved, Option<f64>) {
        let resolved = match *self {
            ResolverSpec::MajorityVote => {
                majority_vote(values).map(|(v, c)| (Resolved::Single(v), Some(c)))
            }
            ResolverSpec::SourceReliability { iterations } => {
                source_reliability(values, iterations).map(|(v, c)| (Resolved::Single(v), c))
            }
            ResolverSpec::LatestWins => latest_wins(values).map(|v| (Resolved::Single(v), None)),
            ResolverSpec::MultiTruth { min_support } => {
                multi_truth(values, min_support).map(|r| (r, None))
            }
            ResolverSpec::Policy(policy) => {
                by_policy(policy, values).map(|v| (Resolved::Single(v), None))
            }
        };
        resolved.unwrap_or((Resolved::Multi(Vec::new()), None))
    }
}

/// Count support per distinct text rendering, returning
/// `(text, count, representative)` sorted by text. The representative is
/// the provenance-smallest value with that text, so the output is fully
/// determined by the input multiset.
fn support_by_text<'a>(values: &[ProvenancedValue<'a>]) -> Vec<(String, usize, &'a Value)> {
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

/// [`ResolverSpec::MajorityVote`]: the winner and its support fraction —
/// votes agreeing with it over all non-null votes (1.0 when unanimous,
/// approaching `1/k` for a k-way split).
fn majority_vote(values: &[ProvenancedValue<'_>]) -> Option<(Value, f64)> {
    let tally = support_by_text(values);
    // Sorted by text, so max_by_key's "last max wins" would pick the
    // lexicographically largest among ties; scan keeps the smallest.
    let (mut best, rest) = tally.split_first()?;
    for cand in rest {
        if cand.1 > best.1 {
            best = cand;
        }
    }
    Some((best.2.clone(), best.1 as f64 / values.len() as f64))
}

/// [`ResolverSpec::LatestWins`].
fn latest_wins(values: &[ProvenancedValue<'_>]) -> Option<Value> {
    // Pick by (record, source); compare texts (allocating) only on an
    // exact provenance tie, which real groups never produce — one record
    // contributes at most one value per attribute.
    let latest = values.iter().max_by(|a, b| {
        (a.record, a.source)
            .cmp(&(b.record, b.source))
            .then_with(|| a.text().cmp(&b.text()))
    })?;
    Some(latest.value.clone())
}

/// [`ResolverSpec::MultiTruth`].
fn multi_truth(values: &[ProvenancedValue<'_>], min_support: f64) -> Option<Resolved> {
    let min_support = if min_support.is_nan() {
        f64::MIN_POSITIVE
    } else {
        min_support.clamp(f64::MIN_POSITIVE, 1.0)
    };
    let total = values.len() as f64;
    let mut tally = support_by_text(values);
    // Descending support, then ascending text.
    tally.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut kept: Vec<Value> = tally
        .iter()
        .filter(|(_, count, _)| *count as f64 / total >= min_support)
        .map(|(_, _, v)| (*v).clone())
        .collect();
    match kept.len() {
        0 => tally.first().map(|(_, _, v)| Resolved::Single((*v).clone())),
        1 => kept.pop().map(Resolved::Single),
        _ => Some(Resolved::Multi(kept)),
    }
}

/// [`ResolverSpec::Policy`]: the policy over the values in cluster order.
fn by_policy(policy: ConflictPolicy, values: &[ProvenancedValue<'_>]) -> Option<Value> {
    // ConflictPolicy semantics are defined over cluster order. The merge
    // path always supplies rank order already, so only a hand-shuffled
    // slice pays for the restoring sort.
    let plain: Vec<&Value> = if values.is_sorted_by_key(|pv| pv.rank) {
        values.iter().map(|pv| pv.value).collect()
    } else {
        let mut ordered: Vec<&ProvenancedValue<'_>> = values.iter().collect();
        ordered.sort_by_key(|pv| pv.rank);
        ordered.iter().map(|pv| pv.value).collect()
    };
    policy.resolve_values(&plain)
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

    fn multi_truth(min_support: f64) -> ResolverSpec {
        ResolverSpec::MultiTruth { min_support }
    }

    #[test]
    fn majority_vote_counts_support() {
        let vals = texts(&["a", "b", "b"]);
        let (r, _) = ResolverSpec::MajorityVote.resolve(&pvs(&vals));
        assert_eq!(r, Resolved::Single(Value::from("b")));
    }

    #[test]
    fn majority_vote_confidence_is_support_fraction() {
        let vals = texts(&["a", "b", "b", "b"]);
        let (r, c) = ResolverSpec::MajorityVote.resolve(&pvs(&vals));
        assert_eq!(r, Resolved::Single(Value::from("b")));
        assert_eq!(c, Some(0.75));
        let unanimous = texts(&["z", "z"]);
        let (_, c) = ResolverSpec::MajorityVote.resolve(&pvs(&unanimous));
        assert_eq!(c, Some(1.0));
        // A 3-way split still reports the (low) winning fraction.
        let split = texts(&["a", "b", "c"]);
        let (_, c) = ResolverSpec::MajorityVote.resolve(&pvs(&split));
        assert!((c.unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn resolvers_without_confidence_report_none() {
        let vals = texts(&["x", "y"]);
        let provs = pvs(&vals);
        for spec in [
            ResolverSpec::LatestWins,
            ResolverSpec::Policy(ConflictPolicy::First),
            multi_truth(0.25),
        ] {
            assert_eq!(spec.resolve(&provs).1, None, "{}", spec.name());
        }
    }

    #[test]
    fn every_resolver_resolves_an_empty_slice_to_no_survivor() {
        let policies = [
            ConflictPolicy::MajorityVote,
            ConflictPolicy::Longest,
            ConflictPolicy::First,
            ConflictPolicy::NumericMin,
            ConflictPolicy::NumericMax,
        ]
        .map(ResolverSpec::Policy);
        let others = [
            ResolverSpec::MajorityVote,
            ResolverSpec::SourceReliability { iterations: 5 },
            ResolverSpec::LatestWins,
            multi_truth(0.25),
        ];
        for spec in others.into_iter().chain(policies) {
            assert_eq!(spec.resolve(&[]), (Resolved::Multi(Vec::new()), None), "{}", spec.name());
        }
    }

    #[test]
    fn majority_vote_tie_breaks_lexicographically() {
        let vals = texts(&["beta", "alpha"]);
        let (r, _) = ResolverSpec::MajorityVote.resolve(&pvs(&vals));
        assert_eq!(r, Resolved::Single(Value::from("alpha")), "not first-seen");
    }

    #[test]
    fn latest_wins_takes_max_record_provenance() {
        let vals = texts(&["stale", "fresh", "mid"]);
        let provs = vec![pv(&vals[0], 0, 3, 0), pv(&vals[1], 0, 9, 1), pv(&vals[2], 1, 5, 2)];
        let (r, _) = ResolverSpec::LatestWins.resolve(&provs);
        assert_eq!(r, Resolved::Single(Value::from("fresh")));
    }

    #[test]
    fn multi_truth_keeps_supported_values() {
        let vals = texts(&["red", "red", "blue", "blue", "green"]);
        let (r, _) = multi_truth(0.4).resolve(&pvs(&vals));
        assert_eq!(r, Resolved::Multi(vec![Value::from("blue"), Value::from("red")]));
        // Everything qualifies at a tiny threshold; ordering is support-major.
        let (all, _) = multi_truth(0.1).resolve(&pvs(&vals));
        assert_eq!(all.values().len(), 3);
    }

    #[test]
    fn multi_truth_never_resolves_to_none() {
        let vals = texts(&["a", "b", "c"]);
        let (r, _) = multi_truth(0.9).resolve(&pvs(&vals));
        assert_eq!(r, Resolved::Single(Value::from("a")), "best-supported survives");
    }

    #[test]
    fn multi_truth_clamps_out_of_range_thresholds() {
        let vals = texts(&["a", "a", "b"]);
        // Non-positive / NaN = any support: both distinct values survive.
        for degenerate in [0.0, -3.0, f64::NAN] {
            let (r, _) = multi_truth(degenerate).resolve(&pvs(&vals));
            assert_eq!(
                r,
                Resolved::Multi(vec![Value::from("a"), Value::from("b")]),
                "min_support {degenerate}"
            );
        }
        // Above 1 = unanimity only: the split collapses to the best.
        let (r, _) = multi_truth(7.5).resolve(&pvs(&vals));
        assert_eq!(r, Resolved::Single(Value::from("a")));
        let unanimous = texts(&["z", "z"]);
        let (r, _) = multi_truth(7.5).resolve(&pvs(&unanimous));
        assert_eq!(r, Resolved::Single(Value::from("z")));
    }

    #[test]
    fn policy_resolver_respects_cluster_order_not_slice_order() {
        let vals = texts(&["second", "first"]);
        // Slice order disagrees with rank order; `First` must follow rank.
        let provs = vec![pv(&vals[0], 1, 1, 1), pv(&vals[1], 0, 0, 0)];
        let (r, _) = ResolverSpec::Policy(ConflictPolicy::First).resolve(&provs);
        assert_eq!(r, Resolved::Single(Value::from("first")));
    }

    #[test]
    fn resolved_values_views() {
        assert_eq!(Resolved::Multi(Vec::new()).values().len(), 0);
        assert_eq!(Resolved::Single(Value::Int(1)).values(), &[Value::Int(1)]);
        assert_eq!(
            Resolved::Multi(vec![Value::Int(1), Value::Int(2)]).values().len(),
            2
        );
    }
}
