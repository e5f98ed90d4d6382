//! Grouping strategies for the entity-consolidation stage.
//!
//! The consolidation half of fusion historically had exactly one shape:
//! canonical-name grouping with fuzzy attachment ([`super::group_records`]
//! under a [`FusionPolicy`]). That finds case damage and typos in the show
//! name but cannot consolidate duplicates whose names diverge further —
//! while the full ER machinery in `datatamer-entity` (blocking → pair
//! scoring → union-find clustering) sat outside the staged pipeline.
//!
//! [`GroupingStrategy`] is the seam that closes the gap: a declarative,
//! clonable choice between the two, living on
//! [`crate::config::DataTamerConfig::grouping`] (system default) with a
//! per-run override on `PipelinePlan::grouping` — the same
//! configuration-travel pattern as the fusion resolver registry. Both
//! strategies produce the same [`FusionGroup`] shape, so the merge half
//! (rayon-parallel, byte-deterministic) is untouched downstream.

use datatamer_entity::blocking::{Blocker, BlockingStrategy, OversizeFallback};
use datatamer_entity::cluster::cluster_pairs;
use datatamer_entity::incremental::IncrementalConsolidator;
use datatamer_entity::pairsim::{PairScorer, RecordSimilarity};
use datatamer_model::Record;
use datatamer_text::normalize::canonical_name;

use super::{group_records, FusionGroup, FusionPolicy, SHOW_NAME};

/// Declarative pair-scorer choice for blocked ER — the configuration-level
/// mirror of [`PairScorer`] (the trained-classifier variant is not
/// expressible as clonable config and stays on the imperative
/// `datatamer-entity` API).
#[derive(Debug, Clone, PartialEq)]
pub enum ScorerSpec {
    /// Weighted per-attribute rule similarity ([`RecordSimilarity`]).
    Rules {
        /// `(attribute, weight)` overrides.
        weights: Vec<(String, f64)>,
        /// Weight of attributes not explicitly listed.
        default_weight: f64,
    },
}

impl Default for ScorerSpec {
    fn default() -> Self {
        ScorerSpec::Rules { weights: Vec::new(), default_weight: 1.0 }
    }
}

impl ScorerSpec {
    /// Instantiate the scorer this spec describes.
    pub fn build(&self) -> PairScorer {
        match self {
            ScorerSpec::Rules { weights, default_weight } => PairScorer::Rules(
                RecordSimilarity::with_weights(weights.clone(), *default_weight),
            ),
        }
    }
}

/// Configuration of similarity-based blocked entity resolution: which
/// attribute blocks, how candidates are generated, how pairs are scored,
/// and the acceptance threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedErConfig {
    /// The attribute driving blocking (canonical spelling — records are
    /// already mapped onto the global schema when consolidation runs).
    pub key_attr: String,
    /// Candidate generation strategy.
    pub strategy: BlockingStrategy,
    /// Oversized-bucket handling (progressive by default — see
    /// [`OversizeFallback`]).
    pub fallback: OversizeFallback,
    /// Pair scoring.
    pub scorer: ScorerSpec,
    /// Pairs scoring at or above this are duplicates.
    pub accept_threshold: f64,
    /// Ignored: a staged run always consolidates through the batch
    /// engine and [`crate::DataTamer::consolidate_delta`] always through
    /// the resident [`IncrementalConsolidator`]. Kept only so existing
    /// struct literals that set it still compile.
    pub incremental: bool,
}

impl Default for BlockedErConfig {
    fn default() -> Self {
        BlockedErConfig {
            key_attr: SHOW_NAME.to_owned(),
            strategy: BlockingStrategy::Token,
            fallback: OversizeFallback::default(),
            scorer: ScorerSpec::default(),
            accept_threshold: 0.75,
            incremental: false,
        }
    }
}

impl BlockedErConfig {
    /// The [`Blocker`] this configuration describes.
    pub fn build_blocker(&self) -> Blocker {
        Blocker::new(self.key_attr.clone(), self.strategy).with_fallback(self.fallback)
    }

    /// A fresh resident-state consolidator matching this configuration.
    pub fn build_incremental(&self) -> IncrementalConsolidator {
        IncrementalConsolidator::new(
            self.build_blocker(),
            self.scorer.build(),
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
        self.groups_with_report(records, fuzzy_threshold).0
    }

    /// [`GroupingStrategy::groups`] plus the blocking-health counters.
    pub fn groups_with_report(
        &self,
        records: &[Record],
        fuzzy_threshold: f64,
    ) -> (Vec<FusionGroup>, GroupingReport) {
        match self {
            GroupingStrategy::CanonicalName => {
                let policy = FusionPolicy::Fuzzy { threshold: fuzzy_threshold };
                (group_records(records, &policy), GroupingReport::default())
            }
            GroupingStrategy::BlockedEr(config) => blocked_groups(records, config),
        }
    }
}

/// The blocked-ER grouping path: every step is deterministic at any thread
/// count (blocking output is sorted/deduplicated, scoring preserves pair
/// order, union-find clusters are ordered by smallest member), so the
/// group list — and therefore the fused output — is byte-identical across
/// pool widths.
fn blocked_groups(
    records: &[Record],
    config: &BlockedErConfig,
) -> (Vec<FusionGroup>, GroupingReport) {
    let blocker = config.build_blocker();
    let scorer = config.scorer.build();
    // Prepare the scoring context once — before the rayon fan-out — so
    // each record's features (interned attributes and tokens, parsed
    // numerics, lowercased text) are normalised exactly once no matter how
    // many candidate pairs blocking put it in; the parallel filter then
    // scores allocation-free against the shared context. The same context
    // hands blocking its full-key sort axis (progressive fallback and
    // sorted-neighborhood order), replacing what used to be a second
    // render + lowercase pass over the raw records.
    let prepared = scorer.prepare(records);
    let outcome = blocker.candidates_with_report_keyed(records, &|| {
        prepared
            .sort_keys(&config.key_attr)
            .expect("a rules scoring context serves any attribute's sort keys")
    });
    let accepted = prepared.accepted_pairs(&outcome.pairs, config.accept_threshold);
    let clusters = cluster_pairs(records.len(), &accepted);
    let groups = clusters_to_groups(records, clusters, config);
    let report = GroupingReport {
        candidate_pairs: outcome.pairs.len(),
        accepted_pairs: accepted.len(),
        degraded_buckets: outcome.degraded_buckets,
    };
    (groups, report)
}

/// Keep the FusionGroup contract of the canonical-name path: records
/// lacking the key attribute form no group (they never pair, so they can
/// only be singletons here), and each group's key is the canonical form of
/// its first member's key value.
fn clusters_to_groups(
    records: &[Record],
    clusters: Vec<Vec<usize>>,
    config: &BlockedErConfig,
) -> Vec<FusionGroup> {
    clusters
        .into_iter()
        .filter_map(|cluster| Some((cluster_key(&records[cluster[0]], config)?, cluster)))
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

    #[test]
    fn canonical_name_matches_legacy_group_records() {
        let records = vec![
            rec(0, "Matilda", "$27"),
            rec(1, "matilda", "$27"),
            rec(2, "Wicked", "$99"),
        ];
        let (groups, report) = GroupingStrategy::CanonicalName.groups_with_report(&records, 0.88);
        let legacy = group_records(&records, &FusionPolicy::Fuzzy { threshold: 0.88 });
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
        let (groups, report) = strategy.groups_with_report(&records, 0.88);
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
        let (_, report) = strategy.groups_with_report(&records, 0.88);
        assert_eq!(report.degraded_buckets, 1, "the 'common' bucket blew the cap");
    }

    #[test]
    fn resident_engine_matches_the_batch_path() {
        // The whole corpus as one delta into fresh resident state must
        // produce the same clusters AND the same health counters as the
        // batch path — two engines over the same math.
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
            GroupingStrategy::BlockedEr(config.clone()).groups_with_report(&records, 0.88);
        let mut resident = config.build_incremental();
        let delta = resident.ingest(&records);
        assert_eq!(clusters_to_groups(&records, resident.clusters().to_vec(), &config), groups);
        assert_eq!(
            (delta.candidate_pairs, delta.accepted_pairs, delta.degraded_buckets),
            (report.candidate_pairs, report.accepted_pairs, report.degraded_buckets)
        );
        assert!(report.degraded_buckets >= 1, "the 'common' bucket must degrade");
    }

    #[test]
    fn scorer_spec_builds_weighted_rules() {
        let spec = ScorerSpec::Rules {
            weights: vec![(SHOW_NAME.to_owned(), 10.0)],
            default_weight: 0.5,
        };
        let scorer = spec.build();
        let a = rec(0, "Matilda", "$27");
        let b = rec(1, "Matilda", "$99");
        let uniform = ScorerSpec::default().build();
        assert!(
            scorer.score(&a, &b) > uniform.score(&a, &b),
            "name-heavy weighting must dominate the price mismatch"
        );
    }
}
