//! Incremental consolidation: resident blocking indices + delta ER.
//!
//! Every batch consolidation run re-blocks and re-scores the whole corpus,
//! so steady-state ingest cost grows with corpus size. This module keeps
//! the expensive state **resident between runs** — the prepared
//! [`ScoringContext`], the token blocking index (interned token-id
//! buckets plus the full-key sort axis their progressive windows read), a
//! memo of every decision a progressive window asked for, and a persistent
//! [`UnionFind`]
//! — so ingesting a delta batch costs O(delta), not O(corpus):
//!
//! 1. the batch extends the scoring context in place
//!    ([`ScoringContext::extend`]: interners and arenas grow append-only,
//!    existing ids and features untouched);
//! 2. candidate generation probes only the buckets the batch's own
//!    records touch — new-vs-new and new-vs-old pairs, never old-vs-old;
//! 3. accepted pairs merge into the persistent union-find, and only
//!    **dirty** clusters (membership changed this batch) need their fused
//!    entities re-resolved downstream.
//!
//! ## Why the result is byte-identical to a full run
//!
//! The correctness pin — for any split of a corpus into prefix + delta
//! batches, the final clusters equal a from-scratch run over the
//! concatenation at any thread count — rests on three structural facts:
//!
//! * **Decisions never change.** The context grows append-only with dense
//!   first-seen ids, so a record's prepared features (and therefore any
//!   memoized accept decision) are bit-identical under every later
//!   extension.
//! * **Core candidates are monotone.** Bucket membership is insertion
//!   order, so the quadratic core over a bucket's first `cap` members only
//!   gains pairs as the bucket grows. These pairs go into an append-only
//!   *core ledger*.
//! * **Window candidates are retractable but re-derivable.** Progressive
//!   windows over a sorted axis can drop a pair when an insertion pushes
//!   two members apart — but the distance between two fixed members in a
//!   sorted order is non-decreasing under insertion, so every old-old pair
//!   inside the *current* window was inside the window (or the quadratic
//!   core) of some earlier batch, and decisions never change. Each batch
//!   therefore regenerates the window pair set of just the touched
//!   oversized buckets, decides only the pairs the memo lacks, and
//!   *replaces* those buckets' accepted-window sets. The total accepted
//!   set is the core ledger ∪ the window sets: exactly the accepted set a
//!   full run computes. When a replacement
//!   retracts a previously accepted pair, the union-find is rebuilt from
//!   the ledger (rare); otherwise the new pairs union in place.
//!
//! ## What is resident, and why none of it is budgeted
//!
//! Everything above stays resident for the life of the consolidator: the
//! records' prepared features (the records themselves stay with the
//! caller, so the corpus exists once), the bucket membership lists, the
//! core ledger and per-bucket window sets (one entry per *accepted*
//! pair), and the decision memo (one accept/reject `bool` per pair a
//! progressive window ever proposed — what lets a regenerated window skip
//! its old-old pairs; [`DeltaReport::memo_hits`] counts them). Core pairs
//! are not memoized: each involves a record new to its batch, so none is
//! proposed twice, except by a window once its bucket outgrows the cap —
//! which decides its old-old pairs once, at |bucket| · window cost. All of
//! it is O(corpus + candidates), the same order as the records it derives
//! from, so a cap on any one store bounds nothing the corpus does not
//! already occupy, while evicting would cost a scan per batch and, for
//! window slots, wholesale regeneration on the next one.
//!
//! A staged blocked-ER run is one [`IncrementalConsolidator::ingest`] of
//! its whole corpus, and the delta path adopts that consolidator, so the
//! batch engine ([`Blocker::candidates_with_report_keyed`] → prepare →
//! accept → cluster) is the oracle: `tests/incremental_equivalence.rs`
//! pins incremental-vs-full byte equality, and the full run's clusters
//! against the batch engine, over random corpora, random batch splits,
//! serial and 8-thread pools.

use std::collections::HashMap;

use datatamer_model::Record;
use datatamer_sim::TokenInterner;
use rayon::prelude::*;

use crate::blocking::{distinct_token_ids, pack_pair, unpack_pair, window_pairs, Blocker};
use crate::cluster::UnionFind;
use crate::pairsim::{RecordSimilarity, ScoringContext};

/// What one delta batch cost and touched — the observable proof that
/// ingest work scaled with the batch, not the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeltaReport {
    /// Records in this batch. Through `DataTamer::consolidate_delta`, the
    /// first call after a restart also counts the log tail it replays.
    pub batch_records: usize,
    /// Corpus size after the batch.
    pub total_records: usize,
    /// Token buckets this batch probed (buckets gaining a member).
    pub probed_buckets: usize,
    /// Distinct candidate pairs examined this batch (new core pairs plus
    /// the regenerated windows of touched buckets).
    pub candidate_pairs: usize,
    /// Pairs actually scored this batch — candidates the memo lacked.
    /// The gap to `candidate_pairs` is work the resident state saved.
    pub scored_pairs: usize,
    /// Total accepted pairs across the whole corpus after the batch.
    pub accepted_pairs: usize,
    /// Clusters whose membership changed this batch (fused entities must
    /// be re-resolved for exactly these).
    pub dirty_clusters: usize,
    /// Clusters carried over unchanged (fused entities reusable as-is).
    pub reused_clusters: usize,
    /// Fraction of the scoring context that predated this batch and was
    /// reused rather than re-prepared: `old_records / total_records`.
    pub reused_context_fraction: f64,
    /// Buckets currently over the cap (same meaning as
    /// [`crate::BlockingOutcome::degraded_buckets`]).
    pub degraded_buckets: usize,
    /// Candidate pairs this batch answered from the memo instead of
    /// scoring (`candidate_pairs - scored_pairs`).
    pub memo_hits: usize,
}

/// Entity resolution with resident state: feed record batches with
/// [`IncrementalConsolidator::ingest`], read the clusters (and how many
/// changed) after each. Configuration mirrors the batch path — same
/// [`Blocker`], same [`RecordSimilarity`], same threshold — and the final
/// clusters are byte-identical to one batch run over the concatenation.
/// The consolidator keeps prepared features, not the records: cluster
/// members are positions in the concatenation of every batch ingested,
/// which the caller holds.
#[derive(Debug, Clone)]
pub struct IncrementalConsolidator {
    blocker: Blocker,
    threshold: f64,

    /// Prepared scoring features, grown in place per batch.
    ctx: ScoringContext,
    /// Lowercased blocking keys per record — the progressive-window sort
    /// axis, extended from the context per batch.
    sort_keys: Vec<Option<String>>,

    /// Resident token blocking index: bucket `id` lists, in insertion
    /// order, the records whose key contains interned token `id`.
    token_ids: TokenInterner,
    token_buckets: Vec<Vec<usize>>,

    /// Memoized accept decisions ([`ScoringContext::accepts`] at
    /// `threshold`) of every pair a progressive window has proposed, keyed
    /// by packed `(i, j)` — valid forever because context growth never
    /// changes a prepared feature. Only a regenerated window proposes a
    /// pair twice, so no other pair is kept; a score is only ever compared
    /// with the threshold, so the bit is all that is kept.
    decisions: HashMap<u64, bool>,
    /// Monotone accepted pairs (quadratic cores): sorted, deduplicated,
    /// append-only across batches.
    core_accepted: Vec<u64>,
    /// Accepted pairs of each oversized token bucket's current window
    /// (replaced wholesale when the bucket is touched).
    window_token: HashMap<usize, Vec<u64>>,
    /// Union of ledger + window sets after the last batch (sorted,
    /// deduplicated) — the superset check against its successor decides
    /// whether the union-find can grow in place.
    accepted: Vec<u64>,

    uf: UnionFind,
    clusters: Vec<Vec<usize>>,
    last_report: DeltaReport,
}

impl IncrementalConsolidator {
    /// An empty consolidator; `threshold` is the pair-acceptance score
    /// bound, as in the batch path.
    pub fn new(blocker: Blocker, scorer: RecordSimilarity, threshold: f64) -> Self {
        IncrementalConsolidator {
            blocker,
            threshold,
            ctx: scorer.prepare(&[]),
            sort_keys: Vec::new(),
            token_ids: TokenInterner::new(),
            token_buckets: Vec::new(),
            decisions: HashMap::new(),
            core_accepted: Vec::new(),
            window_token: HashMap::new(),
            accepted: Vec::new(),
            uf: UnionFind::new(0),
            clusters: Vec::new(),
            last_report: DeltaReport::default(),
        }
    }

    /// Number of records ingested so far.
    pub fn len(&self) -> usize {
        self.sort_keys.len()
    }

    /// True before the first batch.
    pub fn is_empty(&self) -> bool {
        self.sort_keys.is_empty()
    }

    /// The resident scoring context (grows with every batch).
    pub fn context(&self) -> &ScoringContext {
        &self.ctx
    }

    /// Clusters after the last batch: members sorted ascending, clusters
    /// ordered by smallest member — identical shape (and content) to
    /// [`crate::cluster::cluster_pairs`] over a full run's accepted pairs.
    /// A cluster's stable id is its smallest member index.
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// The last batch's [`DeltaReport`].
    pub fn last_report(&self) -> DeltaReport {
        self.last_report
    }

    /// Accepted duplicate pairs across the whole corpus, `(i, j)` with
    /// `i < j`, sorted, deduplicated.
    pub fn accepted_pairs(&self) -> Vec<(usize, usize)> {
        self.accepted.iter().copied().map(unpack_pair).collect()
    }

    /// Ingest a batch: extend the resident state, resolve the delta, and
    /// report what it cost. Candidate work is O(delta) outside oversized
    /// buckets; a touched oversized bucket re-windows its whole membership
    /// (O(bucket) enumeration, still O(delta) scoring).
    pub fn ingest(&mut self, batch: &[Record]) -> DeltaReport {
        let old_n = self.len();
        let n = old_n + batch.len();

        // 1. Grow the scoring context and the sort axis in place.
        self.ctx.extend(batch);
        self.sort_keys.extend(self.ctx.sort_keys_from(&self.blocker.key_attr, old_n));
        debug_assert_eq!(self.sort_keys.len(), n);

        // 2. Probe the token buckets with the new records only, noting the
        //    first new position per touched bucket.
        let mut touched: HashMap<usize, usize> = HashMap::new();
        let mut ids: Vec<u32> = Vec::new();
        for (i, record) in (old_n..).zip(batch) {
            if let Some(key) = record.get_text(&self.blocker.key_attr) {
                distinct_token_ids(&mut self.token_ids, &key, &mut ids);
                for &id in &ids {
                    let id = id as usize;
                    while self.token_buckets.len() <= id {
                        self.token_buckets.push(Vec::new());
                    }
                    touched.entry(id).or_insert(self.token_buckets[id].len());
                    self.token_buckets[id].push(i);
                }
            }
        }
        let probed_buckets = touched.len();
        // dtlint::allow(map-iter, reason = "collected into a Vec and sort_unstable'd on the next line")
        let mut touched_sorted: Vec<(usize, usize)> = touched.into_iter().collect();
        touched_sorted.sort_unstable();
        let mut new_core: Vec<u64> = Vec::new();
        let mut window_updates: Vec<(usize, Vec<u64>)> = Vec::new();
        for (id, first_new) in touched_sorted {
            self.bucket_delta(id, first_new, &mut new_core, &mut window_updates);
        }
        new_core.sort_unstable();
        new_core.dedup();

        // 3. Decide what the memo lacks (pure per-pair work → rayon).
        let mut windowed: Vec<u64> =
            window_updates.iter().flat_map(|(_, pairs)| pairs.iter().copied()).collect();
        windowed.sort_unstable();
        windowed.dedup();
        let mut candidates: Vec<u64> = new_core.iter().chain(&windowed).copied().collect();
        candidates.sort_unstable();
        candidates.dedup();
        let candidate_pairs = candidates.len();
        let to_decide: Vec<u64> = candidates
            .iter()
            .copied()
            .filter(|p| !self.decisions.contains_key(p))
            .collect();
        // Sorted by pair, as `to_decide` is.
        let decided: Vec<(u64, bool)> = to_decide
            .par_iter()
            .map(|&p| {
                let (i, j) = unpack_pair(p);
                (p, self.ctx.accepts(i, j, self.threshold))
            })
            .collect();
        let scored_pairs = decided.len();

        // 4. Fold accepted pairs into the ledger and the window sets.
        let memo = &self.decisions;
        let accepts = |p: &u64| match decided.binary_search_by_key(p, |&(q, _)| q) {
            Ok(k) => decided[k].1,
            Err(_) => memo[p],
        };
        self.core_accepted.extend(new_core.iter().filter(|p| accepts(p)));
        self.core_accepted.sort_unstable();
        self.core_accepted.dedup();
        for (id, pairs) in window_updates {
            let kept: Vec<u64> = pairs.into_iter().filter(|p| accepts(p)).collect();
            self.window_token.insert(id, kept);
        }
        // Memoize window pairs only: a core pair involves a record new to
        // this batch, so no later batch proposes it again except inside a
        // regenerated window, where it is decided once more and kept.
        self.decisions
            .extend(decided.into_iter().filter(|(p, _)| windowed.binary_search(p).is_ok()));
        let mut accepted: Vec<u64> = self
            .core_accepted
            .iter()
            .chain(self.window_token.values().flatten()) // dtlint::allow(map-iter, reason = "chained into `accepted`, which is sorted + deduped immediately below")
            .copied()
            .collect();
        accepted.sort_unstable();
        accepted.dedup();

        // 5. Union-find: grow in place when the accepted set only grew;
        //    rebuild from the ledger + window sets when a window
        //    replacement retracted a pair (rare — an insertion pushed two
        //    previously-adjacent members apart).
        self.uf.grow(n);
        if is_sorted_superset(&accepted, &self.accepted) {
            let mut old = self.accepted.iter().peekable();
            for &p in &accepted {
                if old.peek() == Some(&&p) {
                    old.next();
                    continue;
                }
                let (a, b) = unpack_pair(p);
                self.uf.union(a, b);
            }
        } else {
            self.uf = UnionFind::new(n);
            for &p in &accepted {
                let (a, b) = unpack_pair(p);
                self.uf.union(a, b);
            }
        }
        self.accepted = accepted;

        // 6. Re-materialise clusters; count those whose membership changed,
        //    merge-walking both lists in stable-id (smallest member) order.
        let prev = std::mem::replace(&mut self.clusters, self.uf.clusters());
        let mut prev = prev.iter().peekable();
        let dirty_clusters = self
            .clusters
            .iter()
            .filter(|c| {
                while prev.next_if(|p| p.first() < c.first()).is_some() {}
                prev.next_if(|p| p == c).is_none()
            })
            .count();

        self.last_report = DeltaReport {
            batch_records: batch.len(),
            total_records: n,
            probed_buckets,
            candidate_pairs,
            scored_pairs,
            accepted_pairs: self.accepted.len(),
            dirty_clusters,
            reused_clusters: self.clusters.len() - dirty_clusters,
            reused_context_fraction: if n == 0 { 0.0 } else { old_n as f64 / n as f64 },
            degraded_buckets: self.degraded_buckets(),
            memo_hits: candidate_pairs - scored_pairs,
        };
        self.last_report
    }

    /// Delta candidates for touched token bucket `id`: monotone
    /// quadratic-core pairs for new members landing under the cap, plus
    /// (once the bucket is oversized) its full regenerated window set.
    fn bucket_delta(
        &self,
        id: usize,
        first_new: usize,
        new_core: &mut Vec<u64>,
        window_updates: &mut Vec<(usize, Vec<u64>)>,
    ) {
        let members = &self.token_buckets[id];
        let cap = self.blocker.bucket_cap;
        // Core: each new member within the first `cap` positions pairs
        // with every earlier member — exactly the pairs the full run's
        // quadratic core gains from this batch (membership is insertion
        // order, so positions never shift).
        for p in first_new..members.len().min(cap) {
            for q in 0..p {
                new_core.push(pack_pair(members[q], members[p]));
            }
        }
        if members.len() <= cap {
            return;
        }
        let mut pairs = window_pairs(members, &self.sort_keys);
        pairs.sort_unstable();
        pairs.dedup();
        window_updates.push((id, pairs));
    }

    fn degraded_buckets(&self) -> usize {
        let cap = self.blocker.bucket_cap;
        self.token_buckets.iter().filter(|m| m.len() > cap).count()
    }
}

/// `a ⊇ b` for sorted, deduplicated slices, in one merge pass.
fn is_sorted_superset(a: &[u64], b: &[u64]) -> bool {
    let mut ia = a.iter();
    'outer: for x in b {
        for y in ia.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{RecordId, SourceId, Value};

    fn rec(i: u64, name: &str) -> Record {
        Record::from_pairs(SourceId(0), RecordId(i), vec![("name", Value::from(name))])
    }

    fn corpus(names: &[&str]) -> Vec<Record> {
        names.iter().enumerate().map(|(i, n)| rec(i as u64, n)).collect()
    }

    fn consolidator() -> IncrementalConsolidator {
        IncrementalConsolidator::new(Blocker::new("name"), RecordSimilarity::default(), 0.85)
    }

    /// From-scratch oracle: block + score + cluster in one batch run.
    fn full_run(records: &[Record]) -> Vec<Vec<usize>> {
        let blocker = Blocker::new("name");
        let ctx = RecordSimilarity::default().prepare(records);
        let outcome = blocker
            .candidates_with_report_keyed(records, &|| ctx.sort_keys_from("name", 0));
        let accepted = ctx.accepted_pairs(&outcome.pairs, 0.85);
        crate::cluster::cluster_pairs(records.len(), &accepted)
    }

    fn names() -> Vec<String> {
        // Mix of exact duplicates, near-duplicates, and singletons spread
        // across several shared-token buckets.
        (0..40)
            .map(|i| match i % 8 {
                0 => format!("matilda musical {}", i / 8),
                1 => format!("Matilda Musical {}", i / 8),
                2 => format!("wicked show {}", i / 8),
                3 => format!("wicked show {}", i / 8),
                4 => format!("annie broadway {}", i / 8),
                5 => format!("unique title number {i}"),
                6 => format!("lion king {}", i / 8),
                7 => format!("the lion king {}", i / 8),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn single_batch_matches_full_run() {
        let names = names();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let records = corpus(&refs);
        let mut inc = consolidator();
        inc.ingest(&records);
        assert_eq!(inc.clusters(), full_run(&records).as_slice());
    }

    #[test]
    fn split_batches_match_full_run() {
        let names = names();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let records = corpus(&refs);
        let full = full_run(&records);
        for splits in [vec![10, 30, 40], vec![1, 2, 3, 40], vec![39, 40]] {
            let mut inc = consolidator();
            let mut start = 0;
            for end in splits.clone() {
                inc.ingest(&records[start..end]);
                start = end;
            }
            assert_eq!(inc.clusters(), full.as_slice(), "{splits:?}");
        }
    }

    #[test]
    fn oversized_bucket_windows_stay_equivalent_across_batches() {
        // Everything shares the token "show" → one giant bucket over a
        // tiny cap, exercising the retractable-window path: later batches
        // insert records *between* earlier near-duplicates in the sorted
        // axis, forcing window regeneration (and occasionally the
        // union-find rebuild).
        let names: Vec<String> = (0..60)
            .map(|i| format!("show {:02} name{}", (i * 7) % 60, i % 3))
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let records = corpus(&refs);
        let blocker = Blocker::new("name").with_bucket_cap(8);
        let full = {
            let ctx = RecordSimilarity::default().prepare(&records);
            let outcome = blocker
                .candidates_with_report_keyed(&records, &|| ctx.sort_keys_from("name", 0));
            let accepted = ctx.accepted_pairs(&outcome.pairs, 0.85);
            crate::cluster::cluster_pairs(records.len(), &accepted)
        };
        for batch in [1, 7, 13, 60] {
            let mut inc =
                IncrementalConsolidator::new(blocker.clone(), RecordSimilarity::default(), 0.85);
            let mut memo_hits = 0;
            for chunk in records.chunks(batch) {
                memo_hits += inc.ingest(chunk).memo_hits;
            }
            assert_eq!(inc.clusters(), full.as_slice(), "batch size {batch}");
            assert!(inc.last_report().degraded_buckets >= 1);
            // A regenerated window re-proposes its old-old pairs; the memo
            // answers them, so only a single-batch run never hits it.
            assert_eq!(memo_hits > 0, batch < records.len(), "batch size {batch}");
        }
    }

    #[test]
    fn only_window_pairs_are_memoized() {
        // No bucket outgrows the default cap: no pair can be proposed
        // twice, so nothing is kept.
        let names = names();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut inc = consolidator();
        assert!(inc.ingest(&corpus(&refs)).candidate_pairs > 0);
        assert!(inc.decisions.is_empty());

        // One oversized bucket whose first members lie far apart in the
        // sort axis: its window pairs are kept, the other core pairs not.
        let names: Vec<String> = (0..40).map(|i| format!("show {:02}", (i * 7) % 40)).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut inc = IncrementalConsolidator::new(
            Blocker::new("name").with_bucket_cap(8),
            RecordSimilarity::default(),
            0.85,
        );
        let report = inc.ingest(&corpus(&refs));
        let windows = 40 * (crate::blocking::PROGRESSIVE_WINDOW - 1)
            - (crate::blocking::PROGRESSIVE_WINDOW - 1) * crate::blocking::PROGRESSIVE_WINDOW / 2;
        assert_eq!(inc.decisions.len(), windows, "{report:?}");
        assert!(report.candidate_pairs > windows, "the core adds pairs: {report:?}");
    }

    #[test]
    fn delta_probes_only_touched_buckets_and_reuses_scores() {
        let names = names();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let records = corpus(&refs);
        let mut inc = consolidator();
        let first = inc.ingest(&records[..38]);
        assert!(first.scored_pairs > 0);
        assert_eq!(first.reused_context_fraction, 0.0);
        assert_eq!(first.dirty_clusters, inc.clusters().len());

        let delta = inc.ingest(&records[38..]);
        assert_eq!(delta.batch_records, 2);
        assert_eq!(delta.total_records, 40);
        assert!(
            delta.probed_buckets < first.probed_buckets,
            "a 2-record delta must touch fewer buckets than the 38-record load \
             ({} vs {})",
            delta.probed_buckets,
            first.probed_buckets
        );
        assert!(
            delta.scored_pairs < first.scored_pairs,
            "old-vs-old pairs must never be re-scored"
        );
        assert!(delta.reused_context_fraction > 0.9);
        assert!(
            delta.reused_clusters > 0,
            "untouched clusters must be recognised as clean"
        );
    }

    #[test]
    fn dirty_flags_track_membership_changes_exactly() {
        let records = corpus(&["matilda musical", "wicked broadway", "annie show"]);
        let mut inc = consolidator();
        assert_eq!(inc.ingest(&records).dirty_clusters, 3, "first batch: everything new");
        let before: Vec<Vec<usize>> = inc.clusters().to_vec();

        // A near-duplicate of "matilda musical" joins cluster 0; the
        // other clusters must come back clean.
        let delta = inc.ingest(&[rec(3, "Matilda Musical")]);
        let after = inc.clusters();
        assert!(after[0].contains(&3), "{after:?}");
        let changed = after.iter().filter(|c| !before.contains(c)).count();
        assert_eq!((delta.dirty_clusters, delta.reused_clusters), (changed, after.len() - changed));
        assert!(changed < after.len());
    }

    #[test]
    fn empty_and_keyless_batches_are_harmless() {
        let mut inc = consolidator();
        let report = inc.ingest(&[]);
        assert_eq!(report.total_records, 0);
        assert_eq!(report.reused_context_fraction, 0.0);
        assert!(inc.clusters().is_empty());

        let keyless = Record::from_pairs(
            SourceId(0),
            RecordId(7),
            vec![("other", Value::from("x"))],
        );
        let report = inc.ingest(&[keyless]);
        assert_eq!(report.candidate_pairs, 0);
        assert_eq!(inc.clusters(), &[vec![0]]);
    }

    #[test]
    fn sorted_superset_check() {
        assert!(is_sorted_superset(&[1, 2, 3], &[1, 3]));
        assert!(is_sorted_superset(&[1, 2, 3], &[]));
        assert!(is_sorted_superset(&[], &[]));
        assert!(!is_sorted_superset(&[1, 2, 3], &[4]));
        assert!(!is_sorted_superset(&[2, 3], &[1, 2]));
        assert!(!is_sorted_superset(&[], &[1]));
    }
}
