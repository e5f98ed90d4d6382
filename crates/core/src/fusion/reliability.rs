//! Source-reliability truth discovery (accu-style iterative weighting).
//!
//! Majority vote treats every source as equally trustworthy; the data-fusion
//! literature (Dong et al., "From Data Fusion to Knowledge Fusion") weights
//! sources by how often they agree with the emerging consensus and lets the
//! weights and the consensus reinforce each other. This module implements
//! the single-attribute core of that fixpoint: within one conflicting value
//! group, a source's vote counts for more when the values it supplies are
//! corroborated by other sources.
//!
//! The computation is deliberately order-free: candidates are processed in
//! sorted text order and votes in sorted provenance order, so the resolved
//! value is a pure function of the input multiset — permutation-invariant
//! and byte-deterministic at any thread count.

use std::collections::BTreeMap;

use datatamer_model::{RecordId, SourceId, Value};

use super::resolve::ProvenancedValue;

/// Additive weight floor applied when reweighting sources: it keeps every
/// source's weight strictly positive, so a unanimous minority can still win
/// an attribute where the "majority" is split.
const SMOOTHING: f64 = 0.1;

/// Iterative source-reliability resolution
/// ([`super::ResolverSpec::SourceReliability`]): the winning value and its
/// weight share, `None` for an empty slice.
///
/// Every *source* casts one claim per attribute (its internal majority, so
/// duplicate records within a source never corroborate themselves). Each
/// of `iterations` rounds recomputes candidate scores as the sum of their
/// claiming sources' weights, then reassigns every source the (normalised,
/// `SMOOTHING`-floored) score of the candidate it claimed. A few rounds
/// amplify agreeing sources and damp lone dissenters.
///
/// Confidence is the winner's *weight share* at the fixpoint: the winning
/// candidate's score over the sum of all candidate scores — 1.0 when every
/// source claims the winner, shrinking as credible dissent survives the
/// reinforcement rounds.
pub(super) fn source_reliability(
    values: &[ProvenancedValue<'_>],
    iterations: usize,
) -> Option<(Value, Option<f64>)> {
    // One claim per SOURCE, not per record: a source contributing many
    // records must not corroborate itself, so each source's claim is its
    // internal majority (ties to the smaller text), represented by the
    // provenance-smallest value carrying that text. BTreeMaps keep every
    // iteration order (and therefore every float summation order)
    // input-order-free.
    let mut by_source: BTreeMap<SourceId, BTreeMap<String, (usize, RecordId, &Value)>> =
        BTreeMap::new();
    for pv in values {
        let tally = by_source.entry(pv.source).or_default();
        let e = tally.entry(pv.text()).or_insert((0, pv.record, pv.value));
        e.0 += 1;
        if pv.record < e.1 {
            e.1 = pv.record;
            e.2 = pv.value;
        }
    }
    // One claim per source, in source order; `weights` below is parallel.
    let mut votes: Vec<(String, &Value)> = Vec::with_capacity(by_source.len());
    for tally in by_source.values() {
        // Text-ascending iteration + strictly-greater keeps the smallest
        // text among count ties.
        let mut claim: Option<(&String, usize, &Value)> = None;
        for (text, (count, _, value)) in tally {
            match claim {
                Some((_, best, _)) if *count <= best => {}
                _ => claim = Some((text, *count, value)),
            }
        }
        if let Some((text, _, value)) = claim {
            votes.push((text.clone(), value));
        }
    }

    let mut weights = vec![1.0; votes.len()];
    let mut scores: BTreeMap<&str, f64> = BTreeMap::new();
    for _ in 0..iterations.max(1) {
        // Candidate score = sum of claiming sources' weights (sorted
        // orders).
        scores.clear();
        for ((text, _), weight) in votes.iter().zip(&weights) {
            *scores.entry(text.as_str()).or_insert(0.0) += weight;
        }
        let total: f64 = scores.values().sum();
        if total <= 0.0 {
            break;
        }
        // Source weight = normalised score of its claim, floored.
        for ((text, _), weight) in votes.iter().zip(&mut weights) {
            *weight = SMOOTHING + (1.0 - SMOOTHING) * scores[text.as_str()] / total;
        }
    }

    // Winner: maximal score; ties break to the smaller text. Scores of
    // tied-support candidates are bit-identical (same sorted summation),
    // so strict comparison is safe.
    let mut best: Option<(&str, f64)> = None;
    for (text, score) in &scores {
        match best {
            Some((_, bs)) if *score <= bs => {}
            _ => best = Some((text, *score)),
        }
    }
    let (winner, winner_score) = best?;
    let (_, value) = votes.iter().find(|(t, _)| t == winner)?;
    // Weight share of the winning claim. Tied-support scores are
    // bit-identical (same sorted summation), so the share is a pure
    // function of the input multiset like the winner itself.
    let total: f64 = scores.values().sum();
    let confidence = if total > 0.0 { Some(winner_score / total) } else { None };
    Some(((*value).clone(), confidence))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{Resolved, ResolverSpec};

    /// The resolver at its usual five rounds.
    fn resolve(values: &[ProvenancedValue<'_>]) -> (Resolved, Option<f64>) {
        ResolverSpec::SourceReliability { iterations: 5 }.resolve(values)
    }

    fn pv(value: &Value, source: u32, record: u64, rank: usize) -> ProvenancedValue<'_> {
        ProvenancedValue {
            value,
            source: SourceId(source),
            record: RecordId(record),
            rank,
        }
    }

    #[test]
    fn agreement_beats_lone_dissent() {
        let vals: Vec<Value> = ["$27", "$27", "$99"].iter().map(|s| Value::from(*s)).collect();
        let provs: Vec<ProvenancedValue<'_>> =
            vals.iter().enumerate().map(|(i, v)| pv(v, i as u32, i as u64, i)).collect();
        let r = resolve(&provs).0;
        assert_eq!(r, Resolved::Single(Value::from("$27")));
    }

    #[test]
    fn two_vs_one_split_amplifies_with_iterations() {
        let vals: Vec<Value> = ["a", "b", "b"].iter().map(|s| Value::from(*s)).collect();
        let provs: Vec<ProvenancedValue<'_>> =
            vals.iter().enumerate().map(|(i, v)| pv(v, i as u32, i as u64, i)).collect();
        for iters in [1, 3, 8] {
            let (r, _) = ResolverSpec::SourceReliability { iterations: iters }.resolve(&provs);
            assert_eq!(r, Resolved::Single(Value::from("b")), "at {iters} iterations");
        }
    }

    #[test]
    fn confidence_is_winning_weight_share() {
        // Unanimity: the winner holds the entire weight mass.
        let vals: Vec<Value> = ["$27", "$27"].iter().map(|s| Value::from(*s)).collect();
        let provs: Vec<ProvenancedValue<'_>> =
            vals.iter().enumerate().map(|(i, v)| pv(v, i as u32, i as u64, i)).collect();
        let (r, c) = resolve(&provs);
        assert_eq!(r, Resolved::Single(Value::from("$27")));
        assert!((c.unwrap() - 1.0).abs() < 1e-12, "unanimous share: {c:?}");

        // 2-vs-1: reinforcement amplifies the majority's share above its
        // raw 2/3 vote fraction, but dissent keeps it under 1.
        let vals: Vec<Value> = ["$27", "$27", "$99"].iter().map(|s| Value::from(*s)).collect();
        let provs: Vec<ProvenancedValue<'_>> =
            vals.iter().enumerate().map(|(i, v)| pv(v, i as u32, i as u64, i)).collect();
        let (_, c) = resolve(&provs);
        let share = c.unwrap();
        assert!(share > 2.0 / 3.0 && share < 1.0, "amplified but not unanimous: {share}");

        // Confidence is permutation-invariant like the winner.
        let mut rev = provs.clone();
        rev.reverse();
        let (_, c_rev) = resolve(&rev);
        assert_eq!(c, c_rev);
    }

    #[test]
    fn even_split_tie_breaks_to_smaller_text() {
        let vals: Vec<Value> = ["zeta", "alpha"].iter().map(|s| Value::from(*s)).collect();
        let provs: Vec<ProvenancedValue<'_>> =
            vals.iter().enumerate().map(|(i, v)| pv(v, i as u32, i as u64, i)).collect();
        let r = resolve(&provs).0;
        assert_eq!(r, Resolved::Single(Value::from("alpha")));
    }

    #[test]
    fn permutation_of_inputs_is_irrelevant() {
        // Sources 0..3 each contribute two records; per-source internal
        // ties break to the smaller text, so the claims are x, y, y — the
        // cross-source majority is "y" however the slice is ordered.
        let vals: Vec<Value> =
            ["x", "y", "y", "z", "z", "z"].iter().map(|s| Value::from(*s)).collect();
        let provs: Vec<ProvenancedValue<'_>> =
            vals.iter().enumerate().map(|(i, v)| pv(v, (i % 3) as u32, i as u64, i)).collect();
        let forward = resolve(&provs).0;
        let mut rev = provs.clone();
        rev.reverse();
        let backward = resolve(&rev).0;
        assert_eq!(forward, backward);
        assert_eq!(forward, Resolved::Single(Value::from("y")));
    }

    #[test]
    fn spammy_source_cannot_corroborate_itself() {
        // One source repeats "$99" across three records; two independent
        // sources each say "$27". Per-source claims make it 2 sources vs
        // 1, so the independent agreement wins — record-level voting would
        // have let the spam win 3-vs-2.
        let vals: Vec<Value> =
            ["$99", "$99", "$99", "$27", "$27"].iter().map(|s| Value::from(*s)).collect();
        let provs = vec![
            pv(&vals[0], 0, 0, 0),
            pv(&vals[1], 0, 1, 1),
            pv(&vals[2], 0, 2, 2),
            pv(&vals[3], 1, 0, 3),
            pv(&vals[4], 2, 0, 4),
        ];
        let r = resolve(&provs).0;
        assert_eq!(r, Resolved::Single(Value::from("$27")));
    }

    #[test]
    fn duplicate_provenance_keeps_smaller_text_regardless_of_order() {
        let a = Value::from("a");
        let b = Value::from("b");
        let one = [pv(&a, 0, 0, 0), pv(&b, 0, 0, 1)];
        let two = [pv(&b, 0, 0, 0), pv(&a, 0, 0, 1)];
        let r1 = resolve(&one).0;
        let r2 = resolve(&two).0;
        assert_eq!(r1, r2);
        assert_eq!(r1, Resolved::Single(Value::from("a")));
    }
}
