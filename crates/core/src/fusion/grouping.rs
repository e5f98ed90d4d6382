//! Grouping strategies for the entity-consolidation stage.
//!
//! The consolidation half of fusion historically had exactly one shape:
//! canonical-name grouping with fuzzy attachment ([`super::group_records`]
//! at a Jaro-Winkler threshold). That finds case damage and typos in the
//! show name but cannot consolidate duplicates whose names diverge further
//! — while the full ER machinery in `datatamer-entity` (blocking → pair
//! scoring → union-find clustering) sat outside the staged pipeline.
//!
//! [`GroupingStrategy`] is the seam that closes the gap: a declarative,
//! clonable choice between the two, set once on
//! [`crate::config::DataTamerConfig::grouping`] and fixed for the life of
//! the system, like the fusion resolver routing beside it. Both strategies
//! produce the same [`FusionGroup`] shape, so the merge half
//! (rayon-parallel, byte-deterministic) is untouched downstream.

use datatamer_entity::blocking::Blocker;
use datatamer_entity::incremental::IncrementalConsolidator;
use datatamer_entity::pairsim::RecordSimilarity;
use datatamer_model::Record;
use datatamer_text::normalize::canonical_name;

use super::{group_records, FusionGroup, SHOW_NAME, TEXT_FEED};
use crate::corpus::Corpus;

/// Configuration of similarity-based blocked entity resolution: which
/// attribute token blocking keys on, how pairs are scored, and the
/// acceptance threshold.
///
/// The default scorer weighs every attribute 1.0 except `TEXT_FEED`,
/// which weighs 0. A web-text show record carries its whole fragment
/// there, and a fragment is evidence about a show, not its identity: two
/// fragments about the same show share little prose. Comparing them was
/// most of the scoring time (a Jaro-Winkler over two long texts for every
/// text–text candidate pair), and dropping the term changed no group on
/// the repository's corpora. An attribute of weight 0 is never prepared,
/// so the resident ER state holds no copy of the fragments either.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedErConfig {
    /// The attribute driving blocking (canonical spelling — records are
    /// already mapped onto the global schema when consolidation runs).
    pub key_attr: String,
    /// Pair scoring: weighted per-attribute rule similarity.
    pub scorer: RecordSimilarity,
    /// Pairs scoring at or above this are duplicates.
    pub accept_threshold: f64,
    /// Ignored: staged runs and [`crate::DataTamer::consolidate_delta`]
    /// both consolidate through the resident [`IncrementalConsolidator`].
    /// Kept only so existing struct literals that set it still compile.
    pub incremental: bool,
}

impl Default for BlockedErConfig {
    fn default() -> Self {
        BlockedErConfig {
            key_attr: SHOW_NAME.to_owned(),
            scorer: RecordSimilarity::with_weights(vec![(TEXT_FEED.to_owned(), 0.0)], 1.0),
            accept_threshold: 0.75,
            incremental: false,
        }
    }
}

impl BlockedErConfig {
    /// The [`Blocker`] this configuration describes.
    pub fn build_blocker(&self) -> Blocker {
        Blocker::new(self.key_attr.clone())
    }

    /// A fresh resident-state consolidator matching this configuration.
    pub fn build_incremental(&self) -> IncrementalConsolidator {
        IncrementalConsolidator::new(
            self.build_blocker(),
            self.scorer.clone(),
            self.accept_threshold,
        )
    }
}

/// How the entity-consolidation stage forms candidate groups.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum GroupingStrategy {
    /// Exact canonical-name grouping with fuzzy attachment at the system's
    /// fusion threshold — the classic demo behaviour, cheap and sequential.
    #[default]
    CanonicalName,
    /// Similarity-based blocked ER: blocking → rayon-parallel pair scoring
    /// → union-find clustering. Consolidates fuzzy duplicates the
    /// name-key scan cannot reach, at bounded candidate volume.
    BlockedEr(BlockedErConfig),
}

/// Blocking-health numbers from one grouping run — zero across the board
/// for [`GroupingStrategy::CanonicalName`], which has no pairwise phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupingReport {
    /// Candidate pairs generated by blocking.
    pub candidate_pairs: usize,
    /// Pairs accepted as duplicates by the scorer.
    pub accepted_pairs: usize,
    /// Buckets the blocker degraded at the cap (windowed, not exhaustive,
    /// recall inside them — see
    /// [`datatamer_entity::blocking::BlockingOutcome::degraded_buckets`]).
    pub degraded_buckets: usize,
}

impl GroupingStrategy {
    /// Form candidate groups. `fuzzy_threshold` parameterises
    /// [`GroupingStrategy::CanonicalName`] (it is the system's
    /// `fusion_threshold`); blocked ER carries its own threshold.
    pub fn groups(&self, records: &[Record], fuzzy_threshold: f64) -> Vec<FusionGroup> {
        self.group(Corpus([records, &[], &[]]), fuzzy_threshold).0
    }

    /// Group `corpus` in place, with the blocking-health counters. Blocked
    /// ER is one ingest of the whole corpus into a fresh resident
    /// consolidator — the engine every delta extends — which is returned
    /// so a staged run can leave it as the context's resident ER state. Every
    /// step is deterministic at any thread count (candidates are sorted
    /// and deduplicated, decisions are per pair, clusters are ordered by
    /// smallest member), so the group list — and therefore the fused
    /// output — is byte-identical across pool widths.
    pub(crate) fn group(
        &self,
        corpus: Corpus<'_>,
        fuzzy_threshold: f64,
    ) -> (Vec<FusionGroup>, GroupingReport, Option<IncrementalConsolidator>) {
        match self {
            GroupingStrategy::CanonicalName => {
                (group_records(corpus.iter(), fuzzy_threshold), GroupingReport::default(), None)
            }
            GroupingStrategy::BlockedEr(config) => {
                let mut consolidator = config.build_incremental();
                let delta = consolidator.ingest(corpus.iter());
                let groups = clusters_to_groups(corpus, consolidator.clusters(), config);
                let report = GroupingReport {
                    candidate_pairs: delta.candidate_pairs,
                    accepted_pairs: delta.accepted_pairs,
                    degraded_buckets: delta.degraded_buckets,
                };
                (groups, report, Some(consolidator))
            }
        }
    }
}

/// Keep the FusionGroup contract of the canonical-name path: records
/// lacking the key attribute form no group (they never pair, so they can
/// only be singletons here), and each group's key is the canonical form of
/// its first member's key value.
fn clusters_to_groups(
    corpus: Corpus<'_>,
    clusters: &[Vec<usize>],
    config: &BlockedErConfig,
) -> Vec<FusionGroup> {
    clusters
        .iter()
        .filter_map(|cluster| {
            let first = corpus.get(*cluster.first()?);
            Some((cluster_key(first, config)?, cluster.clone()))
        })
        .collect()
}

/// The group key of a cluster whose first member is `first`; `None` when
/// the cluster forms no group (no key value, or a canonically empty one).
pub(crate) fn cluster_key(first: &Record, config: &BlockedErConfig) -> Option<String> {
    let key = canonical_name(&first.get_text(&config.key_attr)?);
    (!key.is_empty()).then_some(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{RecordId, SourceId, Value};

    fn rec(id: u64, name: &str, price: &str) -> Record {
        Record::from_pairs(
            SourceId(0),
            RecordId(id),
            vec![(SHOW_NAME, Value::from(name)), ("CHEAPEST_PRICE", Value::from(price))],
        )
    }

    /// Group a plain slice, with the blocking-health counters.
    fn groups_with_report(
        strategy: &GroupingStrategy,
        records: &[Record],
    ) -> (Vec<FusionGroup>, GroupingReport) {
        let (groups, report, _) = strategy.group(Corpus([records, &[], &[]]), 0.88);
        (groups, report)
    }

    #[test]
    fn canonical_name_matches_legacy_group_records() {
        let records = vec![
            rec(0, "Matilda", "$27"),
            rec(1, "matilda", "$27"),
            rec(2, "Wicked", "$99"),
        ];
        let (groups, report) = groups_with_report(&GroupingStrategy::CanonicalName, &records);
        let legacy = group_records(&records, 0.88);
        assert_eq!(groups, legacy);
        assert_eq!(report, GroupingReport::default());
    }

    #[test]
    fn blocked_er_consolidates_word_order_duplicates() {
        // "Walking Dead" vs "Dead Walking": character-level Jaro-Winkler
        // on the canonical names is far below any sane fuzzy threshold, so
        // the canonical-name scan splits them — but they share every token
        // and their price agrees, so blocked ER's record similarity
        // (character + token blend over all shared attributes) unites them.
        let records = vec![
            rec(0, "Walking Dead", "$27"),
            rec(1, "Dead Walking", "$27"),
            rec(2, "Completely Unrelated", "$99"),
        ];
        let strategy = GroupingStrategy::BlockedEr(BlockedErConfig::default());
        let (groups, report) = groups_with_report(&strategy, &records);
        assert_eq!(groups.len(), 2, "{groups:?}");
        assert_eq!(groups[0].1, vec![0, 1]);
        assert_eq!(groups[0].0, "walking dead");
        assert!(report.candidate_pairs >= 1);
        assert_eq!(report.accepted_pairs, 1);
        assert_eq!(report.degraded_buckets, 0);

        let canonical = GroupingStrategy::CanonicalName.groups(&records, 0.88);
        assert_eq!(canonical.len(), 3, "the name scan alone splits the word-order pair");
    }

    #[test]
    fn blocked_er_skips_records_without_the_key_attribute() {
        let mut records = vec![rec(0, "Annie", "$45"), rec(1, "annie", "$45")];
        records.push(Record::from_pairs(
            SourceId(0),
            RecordId(2),
            vec![("OTHER", Value::from("x"))],
        ));
        let strategy = GroupingStrategy::BlockedEr(BlockedErConfig::default());
        let groups = strategy.groups(&records, 0.88);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0], ("annie".to_owned(), vec![0, 1]));
    }

    #[test]
    fn blocked_er_reports_degraded_buckets() {
        let records: Vec<Record> = (0..300)
            .map(|i| rec(i, &format!("common unique{i}"), "$1"))
            .collect();
        let strategy = GroupingStrategy::BlockedEr(BlockedErConfig::default());
        let (_, report) = groups_with_report(&strategy, &records);
        assert_eq!(report.degraded_buckets, 1, "the 'common' bucket blew the cap");
    }

    #[test]
    fn resident_engine_matches_the_batch_path() {
        // The staged path is one ingest into fresh resident state. It must
        // produce the same groups AND the same health counters as the
        // batch engine (block → prepare → accept → cluster), the oracle.
        let mut records = vec![
            rec(0, "Walking Dead", "$27"),
            rec(1, "Dead Walking", "$27"),
            rec(2, "Completely Unrelated", "$99"),
        ];
        // Enough shared-token records to blow the bucket cap and exercise
        // the degraded-window path on both sides.
        records.extend((3..300).map(|i| rec(i, &format!("common unique{i}"), "$1")));
        let config = BlockedErConfig::default();
        let (groups, report) =
            groups_with_report(&GroupingStrategy::BlockedEr(config.clone()), &records);

        let prepared = config.scorer.prepare(&records);
        let outcome = config
            .build_blocker()
            .candidates_with_report_keyed(&records, &|| prepared.sort_keys_from(&config.key_attr, 0));
        let accepted = prepared.accepted_pairs(&outcome.pairs, config.accept_threshold);
        let clusters = datatamer_entity::cluster::cluster_pairs(records.len(), &accepted);
        let corpus = Corpus([&records, &[], &[]]);
        assert_eq!(clusters_to_groups(corpus, &clusters, &config), groups);
        assert_eq!(
            (outcome.pairs.len(), accepted.len(), outcome.degraded_buckets),
            (report.candidate_pairs, report.accepted_pairs, report.degraded_buckets)
        );
        assert!(report.degraded_buckets >= 1, "the 'common' bucket must degrade");
    }
}
