//! Blocking: cheap candidate-pair generation.
//!
//! Comparing all `n²/2` record pairs is intractable at the paper's scale
//! (173M entities); blocking restricts comparisons to records sharing a
//! cheap key. Strategies trade recall against candidate volume — the
//! ablation bench sweeps them (`blocking/*` in `datatamer-bench`).
//!
//! ## Oversized buckets: progressive blocking, not truncation
//!
//! Bucket strategies (`Token`, `Soundex`) hit a wall on stopword-like keys:
//! a bucket of 100k members would expand to ~5·10⁹ pairs. Cutting the
//! bucket at [`BUCKET_CAP`] bounds the cost but is a *recall cliff*: every
//! duplicate past the cap becomes silently unreachable.
//!
//! Blocking uses **progressive blocking** instead
//! ([`OversizeFallback::Progressive`]): an oversized bucket keeps the full
//! quadratic expansion over its first [`BUCKET_CAP`] members (so nothing
//! the cap used to find is ever lost) and *additionally* sorts the entire
//! membership by the records' full key and slides a window over that order,
//! so every member — including those past the cap — still meets its
//! lexicographic neighbours. True duplicates have near-identical full keys
//! and sort adjacent, so the window recovers them at
//! `O(cap² + |bucket| · window)` candidates instead of `O(|bucket|²)`.
//! Buckets handled this way are counted in
//! [`BlockingOutcome::degraded_buckets`]: degraded means "window recall
//! instead of exhaustive recall inside this bucket", never "records
//! dropped".

use std::collections::HashMap;

use datatamer_model::Record;
use datatamer_sim::{for_each_token, soundex, tokenize, MinHashLsh, MinHasher, TokenInterner};
use rayon::prelude::*;

/// Available blocking strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingStrategy {
    /// Records sharing any normalised token of the key attribute.
    Token,
    /// Records sharing the Soundex code of the key attribute's first word.
    Soundex,
    /// Sort by the key attribute; every pair within a window of `w`.
    SortedNeighborhood { window: usize },
    /// MinHash LSH over key-attribute tokens (bands × rows hash functions).
    MinHashLsh { bands: usize, rows: usize },
}

/// Bucket-based strategies treat buckets above this many members
/// (stopword-like tokens) as oversized and apply the configured
/// [`OversizeFallback`] to bound the quadratic blowup. Oversize handling is
/// never silent: it is reported as [`BlockingOutcome::degraded_buckets`].
pub const BUCKET_CAP: usize = 256;

/// Default sorted-neighborhood window for
/// [`OversizeFallback::Progressive`]: each member of an oversized bucket
/// meets this many lexicographic neighbours (minus one) on each side of the
/// full-key sort order.
pub const PROGRESSIVE_WINDOW: usize = 16;

/// Default clamp for [`OversizeFallback::ProgressiveAdaptive`]: however
/// oversized the bucket, the per-member window never exceeds this.
pub const ADAPTIVE_WINDOW_MAX: usize = 128;

/// What a bucket strategy does with a bucket larger than the cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OversizeFallback {
    /// Progressive blocking: keep the quadratic expansion over the first
    /// cap members *and* sort the whole bucket by the records' full key,
    /// sliding a window of `window` over that order so every member still
    /// gets candidates. `O(cap² + |bucket| · window)` pairs per bucket.
    Progressive {
        /// Sorted-neighborhood window width (at least 2).
        window: usize,
    },
    /// Progressive blocking with a window that *scales with bucket size*:
    /// `window = base · ⌈log₂(|bucket| / cap)⌉`, clamped to
    /// `[base, max]`. A bucket just over the cap gets the base window
    /// (identical to [`OversizeFallback::Progressive`] at `base`); each
    /// doubling of the overflow widens the window by another `base`, so
    /// recall inside stopword-sized buckets degrades logarithmically
    /// instead of cliff-like — while the candidate count stays
    /// `O(cap² + |bucket| · window)` with `window ≤ max`. The candidate
    /// set always contains the fixed-`base` progressive set (the window
    /// can only grow), so its recall on any truth set is at least as high:
    /// adaptive ⊇ progressive(base).
    ProgressiveAdaptive {
        /// Window at the smallest oversize (at least 2).
        base: usize,
        /// Hard ceiling on the scaled window.
        max: usize,
    },
}

impl Default for OversizeFallback {
    fn default() -> Self {
        OversizeFallback::Progressive { window: PROGRESSIVE_WINDOW }
    }
}

impl OversizeFallback {
    /// The default adaptive configuration: base [`PROGRESSIVE_WINDOW`],
    /// clamped at [`ADAPTIVE_WINDOW_MAX`].
    pub fn adaptive() -> Self {
        OversizeFallback::ProgressiveAdaptive {
            base: PROGRESSIVE_WINDOW,
            max: ADAPTIVE_WINDOW_MAX,
        }
    }
}

/// The adaptive window for one oversized bucket:
/// `base · ⌈log₂(bucket / cap)⌉` clamped into `[base, max]` (see
/// [`OversizeFallback::ProgressiveAdaptive`]). Only called for
/// `bucket > cap`, where the multiplier is at least 1.
pub(crate) fn adaptive_window(base: usize, max: usize, bucket: usize, cap: usize) -> usize {
    let base = base.max(2);
    let ratio = bucket as f64 / cap.max(1) as f64;
    let doublings = ratio.log2().ceil().max(1.0) as usize;
    (base.saturating_mul(doublings)).clamp(base, max.max(base))
}

/// Candidate generation plus blocking-health counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingOutcome {
    /// Candidate index pairs `(i, j)` with `i < j`, sorted, deduplicated.
    pub pairs: Vec<(usize, usize)>,
    /// Buckets whose membership exceeded the blocker's cap and fell back
    /// to the configured [`OversizeFallback`]: windowed (not exhaustive)
    /// recall inside those buckets, never dropped members.
    pub degraded_buckets: usize,
}

/// Generates candidate pairs from records using one strategy.
#[derive(Debug, Clone)]
pub struct Blocker {
    /// The attribute whose value drives blocking.
    pub key_attr: String,
    /// The chosen strategy.
    pub strategy: BlockingStrategy,
    /// Bucket size above which the fallback kicks in ([`BUCKET_CAP`] by
    /// default; only the bucket strategies consult it).
    pub bucket_cap: usize,
    /// What to do with oversized buckets (progressive by default).
    pub fallback: OversizeFallback,
}

impl Blocker {
    /// Create a blocker on an attribute with the default bucket cap and
    /// progressive oversize fallback.
    pub fn new(key_attr: impl Into<String>, strategy: BlockingStrategy) -> Self {
        Blocker {
            key_attr: key_attr.into(),
            strategy,
            bucket_cap: BUCKET_CAP,
            fallback: OversizeFallback::default(),
        }
    }

    /// Builder: override the bucket cap (testing and ablation knob).
    pub fn with_bucket_cap(mut self, cap: usize) -> Self {
        self.bucket_cap = cap.max(2);
        self
    }

    /// Builder: override the oversized-bucket fallback.
    pub fn with_fallback(mut self, fallback: OversizeFallback) -> Self {
        self.fallback = fallback;
        self
    }

    /// Candidate index pairs `(i, j)` with `i < j`, sorted, deduplicated.
    /// Records lacking the key attribute never appear in any pair.
    pub fn candidates(&self, records: &[Record]) -> Vec<(usize, usize)> {
        self.candidates_with_report(records).pairs
    }

    /// [`Blocker::candidates`] plus the degradation counter. Only the
    /// bucket-based strategies (`Token`, `Soundex`) can degrade; the
    /// windowed and LSH strategies always report zero.
    pub fn candidates_with_report(&self, records: &[Record]) -> BlockingOutcome {
        self.candidates_with_report_keyed(records, &|| self.sort_keys(records))
    }

    /// [`Blocker::candidates_with_report`] with the full-key sort axis
    /// supplied by the caller instead of re-derived from the raw records.
    /// The `BlockedEr` path already holds every record's lowercased key
    /// text inside its prepared `ScoringContext`, so threading it through
    /// here removes a second rendering + lowercasing pass over the corpus.
    ///
    /// `sort_keys` is a thunk because only the sorted-neighborhood strategy
    /// and the progressive oversize fallbacks read the axis — the common
    /// no-degradation bucket path never invokes it. It must return one
    /// entry per record, byte-identical to
    /// `record.get_text(key_attr).map(|k| k.to_lowercase())`; the candidate
    /// output is then byte-identical to the unkeyed form.
    pub fn candidates_with_report_keyed(
        &self,
        records: &[Record],
        sort_keys: &(dyn Fn() -> Vec<Option<String>> + Sync),
    ) -> BlockingOutcome {
        match self.strategy {
            BlockingStrategy::Token => self.token_blocks(records, sort_keys),
            BlockingStrategy::Soundex => self.soundex_blocks(records, sort_keys),
            BlockingStrategy::SortedNeighborhood { window } => BlockingOutcome {
                pairs: sorted_neighborhood_pairs(&sort_keys(), window),
                degraded_buckets: 0,
            },
            BlockingStrategy::MinHashLsh { bands, rows } => BlockingOutcome {
                pairs: self.lsh_blocks(records, bands, rows),
                degraded_buckets: 0,
            },
        }
    }

    fn key_of(&self, r: &Record) -> Option<String> {
        r.get_text(&self.key_attr)
    }

    /// Lowercased full keys, indexed like `records` — the sort axis for
    /// progressive expansion inside oversized buckets.
    fn sort_keys(&self, records: &[Record]) -> Vec<Option<String>> {
        records.iter().map(|r| self.key_of(r).map(|k| k.to_lowercase())).collect()
    }

    fn token_blocks(
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
            if let Some(key) = self.key_of(r) {
                // Distinct tokens only: a repeated token ("La La Land")
                // must not enter the record into its bucket twice, which
                // would emit a self-pair `(i, i)` and inflate bucket sizes
                // toward the cap.
                ids.clear();
                for_each_token(&key, |tok| ids.push(interner.intern(tok)));
                ids.sort_unstable();
                ids.dedup();
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

    fn soundex_blocks(
        &self,
        records: &[Record],
        sort_keys: &(dyn Fn() -> Vec<Option<String>> + Sync),
    ) -> BlockingOutcome {
        let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, r) in records.iter().enumerate() {
            if let Some(key) = self.key_of(r) {
                let first_word = key.split_whitespace().next().unwrap_or("");
                if let Some(code) = soundex(first_word) {
                    buckets.entry(code).or_default().push(i);
                }
            }
        }
        // dtlint::allow(map-iter, reason = "pairs_from_buckets sorts and dedups the expanded pair list")
        self.pairs_from_buckets(buckets.into_values(), sort_keys)
    }

    fn lsh_blocks(&self, records: &[Record], bands: usize, rows: usize) -> Vec<(usize, usize)> {
        let hasher = MinHasher::new(bands * rows, 0x1357_9bdf);
        let mut lsh: MinHashLsh<usize> = MinHashLsh::new(bands, rows);
        for (i, r) in records.iter().enumerate() {
            if let Some(key) = self.key_of(r) {
                // Empty token sets are rejected inside `insert` (their
                // all-MAX signatures would band-collide with each other).
                lsh.insert(i, &hasher.signature(&tokenize(&key)));
            }
        }
        // `candidate_pairs` is sorted and self-pair-free; re-normalising
        // here keeps the byte-determinism contract local to this function
        // instead of inherited, so a future index swap cannot silently
        // reintroduce HashMap iteration order into the output.
        let mut pairs: Vec<(usize, usize)> = lsh
            .candidate_pairs()
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Expand buckets into pairs. Pair expansion is independent across
    /// buckets — it fans out over the thread team while the final order
    /// stays deterministic (globally sorted, deduplicated). Buckets at or
    /// under the cap expand quadratically; oversized buckets apply the
    /// configured [`OversizeFallback`] and are counted as degraded.
    ///
    /// Pairs travel as packed `u64`s (`i` in the high half, `j` in the
    /// low) until the final unpack: packed order equals tuple order, so
    /// the dominant sort + dedup runs over half the bytes with single-word
    /// compares while the emitted pair list stays byte-identical.
    fn pairs_from_buckets<I: IntoIterator<Item = Vec<usize>>>(
        &self,
        buckets: I,
        sort_keys: &(dyn Fn() -> Vec<Option<String>> + Sync),
    ) -> BlockingOutcome {
        let cap = self.bucket_cap;
        // dtlint::allow(map-iter, reason = "generic IntoIterator param shares the name of a map local elsewhere in this file; output is sorted + deduped before return")
        let buckets: Vec<Vec<usize>> = buckets.into_iter().collect();
        // dtlint::allow(map-iter, reason = "Vec receiver; `buckets` is rebound to Vec<Vec<usize>> on the previous line")
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
                let window = match self.fallback {
                    OversizeFallback::Progressive { window } => window.max(2),
                    OversizeFallback::ProgressiveAdaptive { base, max } => {
                        adaptive_window(base, max, members.len(), cap)
                    }
                };
                // The quadratic core preserves everything the cap used to
                // find; the windowed pass over the full-key sort order is
                // what recovers beyond-cap duplicates.
                let mut local = quadratic_pairs(&members[..cap]);
                let mut sorted = members.clone();
                sorted.sort_unstable_by(|&a, &b| {
                    sort_keys[a].cmp(&sort_keys[b]).then(a.cmp(&b))
                });
                for i in 0..sorted.len() {
                    for j in (i + 1)..(i + window).min(sorted.len()) {
                        local.push(pack_pair(sorted[i], sorted[j]));
                    }
                }
                local
            })
            .collect();
        packed.sort_unstable();
        packed.dedup();
        let pairs: Vec<(usize, usize)> = packed.into_iter().map(unpack_pair).collect();
        BlockingOutcome { pairs, degraded_buckets }
    }
}

/// Sorted-neighborhood expansion over a prepared key axis: sort the keyed
/// records by `(key, index)` and emit every pair within `window` of each
/// other in that order. Records with no key (`None`) never pair. Shared by
/// the batch strategy and the incremental consolidator (which re-windows
/// the *current* axis per delta batch).
pub fn sorted_neighborhood_pairs(
    keys: &[Option<String>],
    window: usize,
) -> Vec<(usize, usize)> {
    let window = window.max(2);
    let mut keyed: Vec<(&str, usize)> = keys
        .iter()
        .enumerate()
        .filter_map(|(i, k)| k.as_deref().map(|k| (k, i)))
        .collect();
    keyed.sort();
    // Window expansion is independent per anchor index — rayon it.
    let mut out: Vec<(usize, usize)> = (0..keyed.len())
        .into_par_iter()
        .flat_map(|i| {
            let mut local = Vec::with_capacity(window - 1);
            for j in (i + 1)..(i + window).min(keyed.len()) {
                let (a, b) = (keyed[i].1, keyed[j].1);
                local.push((a.min(b), a.max(b)));
            }
            local
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
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

pub(crate) fn quadratic_pairs(members: &[usize]) -> Vec<u64> {
    let mut local = Vec::with_capacity(members.len().saturating_sub(1) * members.len() / 2);
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            local.push(pack_pair(members[i], members[j]));
        }
    }
    local
}

/// Recall of a candidate set against known duplicate pairs.
pub fn blocking_recall(candidates: &[(usize, usize)], truth: &[(usize, usize)]) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{RecordId, SourceId, Value};

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
        let b = Blocker::new("name", BlockingStrategy::Token);
        let pairs = b.candidates(&rs);
        assert!(pairs.contains(&(0, 1)), "share 'matilda'");
        assert!(pairs.contains(&(1, 2)), "share 'show'");
        assert!(!pairs.contains(&(0, 3)));
        assert!(!pairs.contains(&(2, 3)));
    }

    #[test]
    fn soundex_blocking_groups_homophones() {
        let rs = records(&["Smith John", "Smyth Jon", "Jones Mary"]);
        let b = Blocker::new("name", BlockingStrategy::Soundex);
        let pairs = b.candidates(&rs);
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn sorted_neighborhood_window() {
        let rs = records(&["aaa", "aab", "aac", "zzz"]);
        let b = Blocker::new("name", BlockingStrategy::SortedNeighborhood { window: 2 });
        let pairs = b.candidates(&rs);
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(1, 2)));
        assert!(pairs.contains(&(2, 3)), "window slides over the sorted order");
        assert!(!pairs.contains(&(0, 3)));
        assert!(!pairs.contains(&(0, 2)), "window 2 means adjacent only");
    }

    #[test]
    fn lsh_blocking_finds_similar_names() {
        let rs = records(&[
            "The Walking Dead Season Finale Review",
            "The Walking Dead Finale Season Review",
            "Completely Different Topic Entirely Here",
        ]);
        let b = Blocker::new("name", BlockingStrategy::MinHashLsh { bands: 8, rows: 4 });
        let pairs = b.candidates(&rs);
        assert!(pairs.contains(&(0, 1)), "{pairs:?}");
        assert!(!pairs.contains(&(0, 2)));
    }

    #[test]
    fn lsh_blocking_output_is_sorted_dedup_and_stable_across_indexes() {
        // The LSH band tables are RandomState-seeded HashMaps, and every
        // Blocker run builds fresh ones with fresh seeds — so any leak of
        // table iteration order into the output shows up as two differing
        // runs. The output must also be sorted, deduplicated, and free of
        // self-pairs, like every other strategy.
        let names: Vec<String> = (0..120)
            .map(|i| format!("the walking dead season {} review extra words", i % 7))
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let rs = records(&refs);
        let strategy = BlockingStrategy::MinHashLsh { bands: 8, rows: 4 };
        let first = Blocker::new("name", strategy).candidates(&rs);
        let second = Blocker::new("name", strategy).candidates(&rs);
        assert_eq!(first, second, "fresh hash seeds must not change the output");
        assert!(!first.is_empty());
        let mut normalized = first.clone();
        normalized.sort_unstable();
        normalized.dedup();
        assert_eq!(first, normalized, "output must arrive sorted and deduplicated");
        assert!(first.iter().all(|(a, b)| a < b), "no self-pairs, ordered endpoints");
    }

    #[test]
    fn lsh_empty_keys_never_pair_with_each_other() {
        // Empty key values tokenize to nothing: their all-MAX signatures
        // used to band-collide pairwise, pairing every empty-keyed record
        // with every other.
        let rs = records(&["", "", "", "The Walking Dead Show", "Walking Dead The Show"]);
        let b = Blocker::new("name", BlockingStrategy::MinHashLsh { bands: 8, rows: 4 });
        let pairs = b.candidates(&rs);
        assert!(
            pairs.iter().all(|(a, b)| *a >= 3 && *b >= 3),
            "empty-keyed records must never pair: {pairs:?}"
        );
        assert!(pairs.contains(&(3, 4)));
    }

    #[test]
    fn missing_key_records_never_pair() {
        let mut rs = records(&["Matilda", "Matilda"]);
        rs.push(Record::from_pairs(
            SourceId(0),
            RecordId(9),
            vec![("other", Value::from("Matilda"))],
        ));
        for strategy in [
            BlockingStrategy::Token,
            BlockingStrategy::Soundex,
            BlockingStrategy::SortedNeighborhood { window: 3 },
            BlockingStrategy::MinHashLsh { bands: 4, rows: 4 },
        ] {
            let pairs = Blocker::new("name", strategy).candidates(&rs);
            assert!(
                pairs.iter().all(|(a, b)| *a < 2 && *b < 2),
                "{strategy:?}: {pairs:?}"
            );
        }
    }

    #[test]
    fn repeated_tokens_never_emit_self_pairs() {
        let rs = records(&["La La Land", "La Strada", "Unrelated Title"]);
        let outcome =
            Blocker::new("name", BlockingStrategy::Token).candidates_with_report(&rs);
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
        let outcome =
            Blocker::new("name", BlockingStrategy::Token).candidates_with_report(&rs);
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
        for strategy in [
            BlockingStrategy::Token,
            BlockingStrategy::Soundex,
            BlockingStrategy::SortedNeighborhood { window: 3 },
            BlockingStrategy::MinHashLsh { bands: 4, rows: 4 },
        ] {
            let outcome = Blocker::new("name", strategy).candidates_with_report(&rs);
            assert_eq!(outcome.degraded_buckets, 0, "{strategy:?}");
        }
    }

    #[test]
    fn oversized_bucket_blocking_recall_regression() {
        // One bucket of 600 (shared token) with known duplicates inside the
        // cap, straddling it, and fully beyond it. A cut at the cap would
        // lose the beyond-cap pairs; progressive blocking must recover all
        // of them while staying O(cap² + bucket · window), not quadratic.
        let (rs, truth) = oversized_corpus();
        let outcome =
            Blocker::new("name", BlockingStrategy::Token).candidates_with_report(&rs);
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
        let small_outcome = Blocker::new("name", BlockingStrategy::Token)
            .candidates_with_report(&records(&small_refs));
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
        let progressive =
            Blocker::new("name", BlockingStrategy::Token).candidates(&rs);
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
    fn adaptive_window_scales_logarithmically_and_clamps() {
        // Just over the cap: one doubling, base window.
        assert_eq!(adaptive_window(16, 128, 257, 256), 16);
        assert_eq!(adaptive_window(16, 128, 512, 256), 16, "exactly one doubling");
        // Each further doubling of the overflow adds another base.
        assert_eq!(adaptive_window(16, 128, 513, 256), 32);
        assert_eq!(adaptive_window(16, 128, 1025, 256), 48);
        // Stopword-sized buckets clamp at max.
        assert_eq!(adaptive_window(16, 128, 1 << 20, 256), 128);
        // Degenerate configs degrade instead of exploding.
        assert_eq!(adaptive_window(1, 0, 1000, 256), 2, "base floors at 2, max at base");
    }

    #[test]
    fn adaptive_candidates_superset_fixed_progressive() {
        let (rs, truth) = oversized_corpus();
        let base = || Blocker::new("name", BlockingStrategy::Token);
        let fixed = base()
            .with_fallback(OversizeFallback::Progressive { window: PROGRESSIVE_WINDOW })
            .candidates(&rs);
        let adaptive = base()
            .with_fallback(OversizeFallback::adaptive())
            .candidates_with_report(&rs);
        let set: std::collections::HashSet<_> = adaptive.pairs.iter().copied().collect();
        assert!(
            fixed.iter().all(|p| set.contains(p)),
            "the adaptive window can only widen, never narrow"
        );
        // 600 members over cap 256 is two doublings: window 32 > 16, so
        // the adaptive pass genuinely adds neighbours.
        assert!(adaptive.pairs.len() > fixed.len());
        assert_eq!(blocking_recall(&adaptive.pairs, &truth), 1.0);
        assert_eq!(adaptive.degraded_buckets, 1, "degradation still announced");
        // And stays nowhere near quadratic.
        assert!(adaptive.pairs.len() < 600 * 599 / 2 / 3);
    }

    #[test]
    fn bucket_cap_override_triggers_fallback_early() {
        let rs = records(&["show a", "show b", "show c", "show d", "show e"]);
        let outcome = Blocker::new("name", BlockingStrategy::Token)
            .with_bucket_cap(3)
            .candidates_with_report(&rs);
        assert_eq!(outcome.degraded_buckets, 1, "5-member 'show' bucket over cap 3");
        // Window pass over the sorted bucket still connects neighbours
        // beyond the cap boundary.
        assert!(outcome.pairs.contains(&(3, 4)), "{:?}", outcome.pairs);
    }
}
