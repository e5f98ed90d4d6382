//! Blocking: cheap candidate-pair generation.
//!
//! Comparing all `n²/2` record pairs is intractable at the paper's scale
//! (173M entities); blocking restricts comparisons to records sharing a
//! cheap key. There is one generator, **token blocking**: records sharing
//! any normalised token of the key attribute land in the same bucket, and
//! each bucket expands to its member pairs. The resident engine in
//! [`crate::incremental`] keeps the same buckets across delta batches and
//! ends with the same accepted pairs.
//!
//! ## Oversized buckets: progressive blocking, not truncation
//!
//! Token buckets hit a wall on stopword-like keys: a bucket of 100k members
//! would expand to ~5·10⁹ pairs. Cutting the bucket at [`BUCKET_CAP`]
//! bounds the cost but is a *recall cliff*: every duplicate past the cap
//! becomes silently unreachable.
//!
//! Blocking uses **progressive blocking** instead: an oversized bucket
//! keeps the full quadratic expansion over its first [`BUCKET_CAP`]
//! members (so nothing the cap used to find is ever lost) and
//! *additionally* sorts the entire membership by the records' full key and
//! slides a window of [`PROGRESSIVE_WINDOW`] over that order, so every
//! member — including those past the cap — still meets its lexicographic
//! neighbours. True duplicates have near-identical full keys and sort
//! adjacent, so the window recovers them at `O(cap² + |bucket| · window)`
//! candidates instead of `O(|bucket|²)`. Buckets handled this way are
//! counted in [`BlockingOutcome::degraded_buckets`]: degraded means
//! "window recall instead of exhaustive recall inside this bucket", never
//! "records dropped".

use datatamer_model::Record;
use datatamer_sim::{for_each_token, TokenInterner};
use rayon::prelude::*;

/// Buckets above this many members (stopword-like tokens) are oversized
/// and expand progressively to bound the quadratic blowup. Oversize
/// handling is never silent: it is reported as
/// [`BlockingOutcome::degraded_buckets`].
pub const BUCKET_CAP: usize = 256;

/// Progressive-blocking window: each member of an oversized bucket meets
/// this many lexicographic neighbours (minus one) on each side of the
/// full-key sort order.
pub const PROGRESSIVE_WINDOW: usize = 16;

/// Candidate generation plus blocking-health counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingOutcome {
    /// Candidate index pairs `(i, j)` with `i < j`, sorted, deduplicated.
    pub pairs: Vec<(usize, usize)>,
    /// Buckets whose membership exceeded the blocker's cap and expanded
    /// progressively: windowed (not exhaustive) recall inside those
    /// buckets, never dropped members.
    pub degraded_buckets: usize,
}

/// Generates candidate pairs from records by token blocking.
#[derive(Debug, Clone)]
pub struct Blocker {
    /// The attribute whose value drives blocking.
    pub key_attr: String,
    /// Bucket size above which a bucket expands progressively
    /// ([`BUCKET_CAP`] by default).
    pub bucket_cap: usize,
}

impl Blocker {
    /// Create a blocker on an attribute with the default bucket cap.
    pub fn new(key_attr: impl Into<String>) -> Self {
        Blocker { key_attr: key_attr.into(), bucket_cap: BUCKET_CAP }
    }

    /// Builder: override the bucket cap (lets tests reach the oversized
    /// path with a handful of records).
    pub fn with_bucket_cap(mut self, cap: usize) -> Self {
        self.bucket_cap = cap.max(2);
        self
    }

    /// Candidate index pairs `(i, j)` with `i < j`, sorted, deduplicated.
    /// Records lacking the key attribute never appear in any pair.
    pub fn candidates(&self, records: &[Record]) -> Vec<(usize, usize)> {
        self.candidates_with_report(records).pairs
    }

    /// [`Blocker::candidates`] plus the degradation counter.
    pub fn candidates_with_report(&self, records: &[Record]) -> BlockingOutcome {
        self.candidates_with_report_keyed(records, &|| {
            records
                .iter()
                .map(|r| r.get_text(&self.key_attr).map(|k| k.to_lowercase()))
                .collect()
        })
    }

    /// [`Blocker::candidates_with_report`] with the full-key sort axis
    /// supplied by the caller instead of re-derived from the raw records.
    /// The `BlockedEr` path already holds every record's lowercased key
    /// text inside its prepared `ScoringContext`, so threading it through
    /// here removes a second rendering + lowercasing pass over the corpus.
    ///
    /// `sort_keys` is a thunk because only oversized buckets read the axis
    /// — the common no-degradation path never invokes it. It must return
    /// one entry per record, byte-identical to
    /// `record.get_text(key_attr).map(|k| k.to_lowercase())`; the candidate
    /// output is then byte-identical to the unkeyed form.
    pub fn candidates_with_report_keyed(
        &self,
        records: &[Record],
        sort_keys: &(dyn Fn() -> Vec<Option<String>> + Sync),
    ) -> BlockingOutcome {
        // Buckets are keyed by interned token id and stored in a dense
        // vector: one streaming tokenisation pass per record, token
        // equality reduced to `u32`, no per-record `Vec<String>` and no
        // string-keyed hash map. Bucket contents and the final pair set
        // are byte-identical to the string-keyed form (pairs are globally
        // sorted and deduplicated downstream).
        let mut interner = TokenInterner::new();
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            if let Some(key) = r.get_text(&self.key_attr) {
                distinct_token_ids(&mut interner, &key, &mut ids);
                for &id in &ids {
                    while buckets.len() <= id as usize {
                        buckets.push(Vec::new());
                    }
                    buckets[id as usize].push(i);
                }
            }
        }
        self.pairs_from_buckets(buckets, sort_keys)
    }

    /// Expand buckets into pairs. Pair expansion is independent across
    /// buckets — it fans out over the thread team while the final order
    /// stays deterministic (globally sorted, deduplicated). Buckets at or
    /// under the cap expand quadratically; oversized buckets expand
    /// progressively and are counted as degraded.
    ///
    /// Pairs travel as packed `u64`s (`i` in the high half, `j` in the
    /// low) until the final unpack: packed order equals tuple order, so
    /// the dominant sort + dedup runs over half the bytes with single-word
    /// compares while the emitted pair list stays byte-identical.
    fn pairs_from_buckets(
        &self,
        buckets: Vec<Vec<usize>>,
        sort_keys: &(dyn Fn() -> Vec<Option<String>> + Sync),
    ) -> BlockingOutcome {
        let cap = self.bucket_cap;
        let degraded_buckets = buckets.iter().filter(|m| m.len() > cap).count();
        // The full-key sort axis is only read inside oversized buckets, so
        // the thunk (an O(n) key clone + lowercase pass on the unkeyed
        // path) is never invoked on the common no-degradation path.
        let sort_keys: Vec<Option<String>> =
            if degraded_buckets > 0 { sort_keys() } else { Vec::new() };
        let mut packed: Vec<u64> = buckets
            .par_iter()
            .flat_map(|members| {
                if members.len() <= cap {
                    return quadratic_pairs(members);
                }
                // The quadratic core preserves everything the cap used to
                // find; the windowed pass over the full-key sort order is
                // what recovers beyond-cap duplicates.
                let mut local = quadratic_pairs(&members[..cap]);
                local.extend(window_pairs(members, &sort_keys));
                local
            })
            .collect();
        packed.sort_unstable();
        packed.dedup();
        let pairs: Vec<(usize, usize)> = packed.into_iter().map(unpack_pair).collect();
        BlockingOutcome { pairs, degraded_buckets }
    }
}

/// The distinct interned token ids of one blocking key, ascending, written
/// into `ids` (cleared first). Distinct because a repeated token ("La La
/// Land") must not enter the record into its bucket twice, which would
/// emit a self-pair `(i, i)` and inflate bucket sizes toward the cap.
pub(crate) fn distinct_token_ids(interner: &mut TokenInterner, key: &str, ids: &mut Vec<u32>) {
    ids.clear();
    for_each_token(key, |tok| ids.push(interner.intern_str(tok)));
    ids.sort_unstable();
    ids.dedup();
}

/// The progressive window over one oversized bucket: sort the members by
/// `(full key, index)` and pair each with the next
/// `PROGRESSIVE_WINDOW - 1` members of that order. Both engines call it;
/// the resident one regenerates a touched bucket's window every batch.
pub(crate) fn window_pairs(members: &[usize], sort_keys: &[Option<String>]) -> Vec<u64> {
    let mut sorted = members.to_vec();
    sorted.sort_unstable_by(|&a, &b| sort_keys[a].cmp(&sort_keys[b]).then(a.cmp(&b)));
    let mut pairs = Vec::with_capacity(sorted.len() * (PROGRESSIVE_WINDOW - 1));
    for i in 0..sorted.len() {
        for j in (i + 1)..(i + PROGRESSIVE_WINDOW).min(sorted.len()) {
            pairs.push(pack_pair(sorted[i], sorted[j]));
        }
    }
    pairs
}

/// Pack an unordered index pair into one word, smaller index high — packed
/// `u64` order is exactly `(min, max)` tuple order.
#[inline]
pub(crate) fn pack_pair(a: usize, b: usize) -> u64 {
    debug_assert!(a != b && a <= u32::MAX as usize && b <= u32::MAX as usize);
    let (lo, hi) = (a.min(b), a.max(b));
    ((lo as u64) << 32) | hi as u64
}

#[inline]
pub(crate) fn unpack_pair(p: u64) -> (usize, usize) {
    ((p >> 32) as usize, (p & u32::MAX as u64) as usize)
}

fn quadratic_pairs(members: &[usize]) -> Vec<u64> {
    let mut local = Vec::with_capacity(members.len().saturating_sub(1) * members.len() / 2);
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            local.push(pack_pair(members[i], members[j]));
        }
    }
    local
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{RecordId, SourceId, Value};

    /// Recall of a candidate set against known duplicate pairs.
    fn blocking_recall(candidates: &[(usize, usize)], truth: &[(usize, usize)]) -> f64 {
        if truth.is_empty() {
            return 1.0;
        }
        let set: std::collections::HashSet<(usize, usize)> = candidates.iter().copied().collect();
        let hit = truth
            .iter()
            .filter(|(a, b)| set.contains(&(*a.min(b), *a.max(b))))
            .count();
        hit as f64 / truth.len() as f64
    }

    fn records(names: &[&str]) -> Vec<Record> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Record::from_pairs(
                    SourceId(0),
                    RecordId(i as u64),
                    vec![("name", Value::from(*n))],
                )
            })
            .collect()
    }

    /// One oversized bucket (every name shares "show") with duplicate pairs
    /// planted inside, straddling, and fully beyond the cap boundary. The
    /// planted duplicates have *near-identical* full keys (as real
    /// near-duplicates do) but distinct secondary tokens, so only the
    /// shared giant bucket can reach them — the structure the progressive
    /// full-key sort exploits and a cut at the cap cannot.
    fn oversized_corpus() -> (Vec<Record>, Vec<(usize, usize)>) {
        let mut names: Vec<String> = (0..600).map(|i| format!("show number{i:03}")).collect();
        names[10] = "show aadupa1".to_owned();
        names[300] = "show aadupa2".to_owned();
        names[400] = "show zzdupb1".to_owned();
        names[599] = "show zzdupb2".to_owned();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let truth = vec![(0, 1), (10, 300), (400, 599)];
        (records(&refs), truth)
    }

    #[test]
    fn token_blocking_pairs_shared_tokens() {
        let rs = records(&["Matilda Musical", "Matilda Show", "Wicked Show", "Annie"]);
        let b = Blocker::new("name");
        let pairs = b.candidates(&rs);
        assert!(pairs.contains(&(0, 1)), "share 'matilda'");
        assert!(pairs.contains(&(1, 2)), "share 'show'");
        assert!(!pairs.contains(&(0, 3)));
        assert!(!pairs.contains(&(2, 3)));
    }

    #[test]
    fn missing_key_records_never_pair() {
        let mut rs = records(&["Matilda", "Matilda"]);
        rs.push(Record::from_pairs(
            SourceId(0),
            RecordId(9),
            vec![("other", Value::from("Matilda"))],
        ));
        let pairs = Blocker::new("name").candidates(&rs);
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn repeated_tokens_never_emit_self_pairs() {
        let rs = records(&["La La Land", "La Strada", "Unrelated Title"]);
        let outcome = Blocker::new("name").candidates_with_report(&rs);
        assert!(
            outcome.pairs.iter().all(|(a, b)| a < b),
            "pairs must have distinct ordered endpoints: {:?}",
            outcome.pairs
        );
        assert!(outcome.pairs.contains(&(0, 1)), "share 'la'");
    }

    #[test]
    fn recall_measurement() {
        let cands = vec![(0, 1), (2, 3)];
        let truth = vec![(1, 0), (2, 3), (4, 5)];
        assert!((blocking_recall(&cands, &truth) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(blocking_recall(&cands, &[]), 1.0);
    }

    #[test]
    fn giant_buckets_degrade_progressively_and_are_reported() {
        // 600 records all sharing a token: uncapped would be ~180k pairs.
        // Progressive blocking bounds the bucket at cap² core + window pass.
        let (rs, _) = oversized_corpus();
        let outcome = Blocker::new("name").candidates_with_report(&rs);
        let bound = BUCKET_CAP * (BUCKET_CAP - 1) / 2 + 600 * (PROGRESSIVE_WINDOW - 1);
        assert!(
            outcome.pairs.len() <= bound + 600, // small buckets contribute a little
            "progressive expansion must bound the blowup: {} > {}",
            outcome.pairs.len(),
            bound + 600
        );
        assert!(
            outcome.pairs.len() < 600 * 599 / 2 / 3,
            "nowhere near quadratic: {}",
            outcome.pairs.len()
        );
        assert_eq!(
            outcome.degraded_buckets, 1,
            "the 'show' bucket exceeded the cap and must be reported"
        );
    }

    #[test]
    fn small_buckets_report_no_degradation() {
        let rs = records(&["Matilda Musical", "Matilda Show", "Wicked Show", "Annie"]);
        assert_eq!(Blocker::new("name").candidates_with_report(&rs).degraded_buckets, 0);
    }

    #[test]
    fn oversized_bucket_blocking_recall_regression() {
        // One bucket of 600 (shared token) with known duplicates inside the
        // cap, straddling it, and fully beyond it. A cut at the cap would
        // lose the beyond-cap pairs; progressive blocking must recover all
        // of them while staying O(cap² + bucket · window), not quadratic.
        let (rs, truth) = oversized_corpus();
        let outcome = Blocker::new("name").candidates_with_report(&rs);
        assert_eq!(
            blocking_recall(&outcome.pairs, &truth),
            1.0,
            "progressive blocking must recover every planted duplicate"
        );
        assert_eq!(outcome.degraded_buckets, 1, "the degradation must still be announced");
        let bound = BUCKET_CAP * (BUCKET_CAP - 1) / 2 + 600 * (PROGRESSIVE_WINDOW - 1) + 600;
        assert!(outcome.pairs.len() <= bound, "{} > {bound}", outcome.pairs.len());

        // A small bucket keeps perfect recall over the same truth shape.
        let small: Vec<String> = (0..100).map(|i| format!("show number{i}")).collect();
        let small_refs: Vec<&str> = small.iter().map(String::as_str).collect();
        let small_outcome = Blocker::new("name").candidates_with_report(&records(&small_refs));
        assert_eq!(blocking_recall(&small_outcome.pairs, &[(0, 1), (10, 90)]), 1.0);
        assert_eq!(small_outcome.degraded_buckets, 0);
    }

    #[test]
    fn progressive_candidates_superset_truncated() {
        // Progressive blocking keeps every pair a bucket cut at the cap
        // would produce — the quadratic core over its first `BUCKET_CAP`
        // members, which for the 'show' bucket are records 0..BUCKET_CAP —
        // and adds beyond-cap pairs on top.
        let (rs, _) = oversized_corpus();
        let progressive = Blocker::new("name").candidates(&rs);
        let set: std::collections::HashSet<_> = progressive.iter().copied().collect();
        assert!(
            (0..BUCKET_CAP).all(|i| (i + 1..BUCKET_CAP).all(|j| set.contains(&(i, j)))),
            "progressive must never lose a pair the cap found"
        );
        assert!(
            progressive.iter().any(|&(_, j)| j >= BUCKET_CAP),
            "and must add beyond-cap pairs"
        );
    }

    #[test]
    fn bucket_cap_override_triggers_fallback_early() {
        let rs = records(&["show a", "show b", "show c", "show d", "show e"]);
        let outcome = Blocker::new("name").with_bucket_cap(3).candidates_with_report(&rs);
        assert_eq!(outcome.degraded_buckets, 1, "5-member 'show' bucket over cap 3");
        // Window pass over the sorted bucket still connects neighbours
        // beyond the cap boundary.
        assert!(outcome.pairs.contains(&(3, 4)), "{:?}", outcome.pairs);
    }
}
