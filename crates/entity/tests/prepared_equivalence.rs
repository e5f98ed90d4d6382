//! The prepared scoring layer's load-bearing contract: scores coming out
//! of a [`ScoringContext`] are **bit-identical** to the naive
//! [`PairScorer::score`] oracle on the same records — preparation hoists
//! work, it never moves a float — accept decisions equal the naive
//! `score >= threshold` even where the bound skips Jaro, and preparation
//! visits each record exactly once no matter how many pairs are scored
//! afterwards.

use proptest::prelude::*;

use datatamer_entity::pairsim::{PairScorer, RecordSimilarity};
use datatamer_ml::logreg::LogRegConfig;
use datatamer_ml::DedupClassifier;
use datatamer_model::{Record, RecordId, SourceId, Value};

/// Small fixed attribute alphabet so records genuinely share attributes.
const ATTRS: [&str; 5] = ["name", "price", "year", "venue", "misc"];

/// Shared vocabulary of the long free texts, so that two of them overlap
/// in tokens and in characters the way text-feed fragments do (two
/// non-ASCII words keep the decoded-`char` Jaro path in play).
const WORDS: [&str; 24] = [
    "matilda", "musical", "grossed", "broadway", "previews", "the", "and", "award",
    "winning", "import", "london", "tuesday", "shubert", "theater", "week", "tickets",
    "show", "critics", "café", "straße", "sold", "out", "of", "revival",
];

/// Free text of 100–600 characters drawn from [`WORDS`]: longer than one
/// 64-bit word, so accept decisions bound its Jaro-Winkler term first.
fn long_text_strategy() -> impl Strategy<Value = String> {
    (100usize..600, prop::collection::vec(0usize..WORDS.len(), 120)).prop_map(|(len, words)| {
        let text: Vec<&str> = words.into_iter().map(|w| WORDS[w]).collect();
        text.join(" ").chars().take(len).collect()
    })
}

/// Values spanning every branch of `value_similarity`: native numerics
/// (NaN included), numeric-looking strings (money, years, decimals), short
/// and long free text, empty strings, and nulls.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-5000i64..5000).prop_map(Value::Int),
        (-1.0e4..1.0e4).prop_map(Value::Float),
        Just(Value::Float(f64::NAN)),
        (0u32..3000).prop_map(|n| Value::from(format!("${n}"))),
        (0u32..3000).prop_map(|n| Value::from(n.to_string())),
        (0u32..300).prop_map(|n| Value::from(format!("{}.{:02}", n, n % 97))),
        "[a-d ]{0,10}".prop_map(Value::from),
        "[A-Za-z0-9_$ .-]{0,12}".prop_map(Value::from),
        long_text_strategy().prop_map(Value::from),
        long_text_strategy().prop_map(Value::from),
    ]
}

/// A record: up to 6 fields drawn from the shared attribute alphabet
/// (duplicate names collapse through `Record::set`, as everywhere else).
fn record_strategy() -> impl Strategy<Value = Vec<(usize, Value)>> {
    prop::collection::vec((0usize..ATTRS.len(), value_strategy()), 0..6)
}

/// A record that leads with long free text in `name` or `venue`, so most
/// pairs share at least one field whose Jaro-Winkler term is bounded.
fn long_record_strategy() -> impl Strategy<Value = Vec<(usize, Value)>> {
    (0usize..2, long_text_strategy(), record_strategy()).prop_map(|(slot, text, rest)| {
        let mut fields = vec![(slot * 3, Value::from(text))];
        fields.extend(rest);
        fields
    })
}

fn build_records(raw: Vec<Vec<(usize, Value)>>) -> Vec<Record> {
    raw.into_iter()
        .enumerate()
        .map(|(i, fields)| {
            Record::from_pairs(
                SourceId(0),
                RecordId(i as u64),
                fields.into_iter().map(|(a, v)| (ATTRS[a], v)).collect(),
            )
        })
        .collect()
}

/// Weights with duplicates (first entry wins in `weight_of`), explicit
/// zeros (skipped attributes) and occasional negatives (which switch the
/// accept bound off), so the indexed weights vector is exercised against
/// every quirk of the linear-scan original.
fn weights_strategy() -> impl Strategy<Value = RecordSimilarity> {
    (
        prop::collection::vec(
            (
                0usize..ATTRS.len(),
                prop_oneof![Just(0.0f64), 0.01f64..4.0, 0.01f64..4.0, 0.01f64..4.0, -2.0f64..-0.01],
            ),
            0..6,
        ),
        prop_oneof![Just(1.0f64), Just(0.0), 0.01f64..2.0, 0.01f64..2.0, -1.0f64..-0.01],
    )
        .prop_map(|(entries, default_weight)| {
            RecordSimilarity::with_weights(
                entries.into_iter().map(|(a, w)| (ATTRS[a].to_owned(), w)).collect(),
                default_weight,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn prepared_rules_scores_are_bit_identical_to_naive(
        raw in prop::collection::vec(record_strategy(), 1..12),
        similarity in weights_strategy(),
        raw_pairs in prop::collection::vec((0usize..12, 0usize..12), 0..30),
        threshold in 0.0f64..1.0,
    ) {
        let records = build_records(raw);
        let n = records.len();
        let pairs: Vec<(usize, usize)> =
            raw_pairs.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let scorer = PairScorer::Rules(similarity);
        let ctx = scorer.prepare(&records);

        let prepared = ctx.score_pairs(&pairs);
        prop_assert_eq!(prepared.len(), pairs.len());
        for (k, &(i, j)) in pairs.iter().enumerate() {
            let naive = scorer.score(&records[i], &records[j]);
            prop_assert_eq!(
                prepared[k].to_bits(),
                naive.to_bits(),
                "pair ({}, {}): prepared {} vs naive {}",
                i, j, prepared[k], naive
            );
        }

        // The fused accept filter equals the naive score-then-filter.
        let accepted = ctx.accepted_pairs(&pairs, threshold);
        let expected: Vec<(usize, usize)> = pairs
            .iter()
            .copied()
            .filter(|&(i, j)| scorer.score(&records[i], &records[j]) >= threshold)
            .collect();
        prop_assert_eq!(accepted, expected);
    }

    #[test]
    fn accept_decisions_equal_the_naive_threshold_test(
        raw in prop::collection::vec(long_record_strategy(), 1..8),
        similarity in weights_strategy(),
        threshold in 0.0f64..1.0,
    ) {
        let records = build_records(raw);
        let scorer = PairScorer::Rules(similarity);
        let ctx = scorer.prepare(&records);
        for i in 0..records.len() {
            for j in 0..records.len() {
                let naive = scorer.score(&records[i], &records[j]);
                // A random threshold, the pair's exact score (the bound
                // must not reject it) and the next float above it (the
                // exact test must).
                for t in [threshold, naive, naive.next_up()] {
                    prop_assert_eq!(
                        ctx.accepts(i, j, t),
                        naive >= t,
                        "pair ({}, {}) at threshold {}: naive score {}",
                        i, j, t, naive
                    );
                }
            }
        }
    }

    #[test]
    fn preparation_visits_each_record_exactly_once(
        raw in prop::collection::vec(record_strategy(), 1..10),
        pair_count in 0usize..40,
    ) {
        let records = build_records(raw);
        let n = records.len();
        let scorer = PairScorer::Rules(RecordSimilarity::default());
        let ctx = scorer.prepare(&records);
        let stats = ctx.stats();

        // One visit per record, one prepared value per non-null field —
        // a re-visit would inflate both counters.
        let non_null: usize = records
            .iter()
            .map(|r| r.iter().filter(|(_, v)| !v.is_null()).count())
            .sum();
        prop_assert_eq!(stats.records, records.len());
        prop_assert_eq!(stats.values, non_null);
        prop_assert!(stats.distinct_attrs <= ATTRS.len());

        // Scoring any number of pairs must not re-prepare anything.
        let pairs: Vec<(usize, usize)> =
            (0..pair_count).map(|k| (k % n, (k * 7 + 1) % n)).collect();
        let _ = ctx.score_pairs(&pairs);
        let _ = ctx.accepted_pairs(&pairs, 0.5);
        prop_assert_eq!(ctx.stats(), stats);
    }
}

#[test]
fn prepared_classifier_scores_are_bit_identical_to_naive() {
    let training = vec![
        ("Matilda".to_owned(), "matilda".to_owned(), true),
        ("Matilda".to_owned(), "Wicked".to_owned(), false),
        ("Annie".to_owned(), "Annie!".to_owned(), true),
        ("Annie".to_owned(), "Pippin".to_owned(), false),
        ("Goodfellas".to_owned(), "Goodfelas".to_owned(), true),
        ("Goodfellas".to_owned(), "Written".to_owned(), false),
    ];
    let model = DedupClassifier::train(&training, &LogRegConfig::default());
    let scorer = PairScorer::Classifier { key_attr: "name".into(), model };

    let rec = |id: u64, fields: Vec<(&str, &str)>| {
        Record::from_pairs(
            SourceId(0),
            RecordId(id),
            fields.into_iter().map(|(k, v)| (k, Value::from(v))).collect(),
        )
    };
    let records = vec![
        rec(0, vec![("name", "Matilda"), ("price", "$27")]),
        rec(1, vec![("name", "matilda ")]),
        rec(2, vec![("name", "Rock of Ages")]),
        rec(3, vec![("other", "no key here")]),
        rec(4, vec![]),
    ];
    let ctx = scorer.prepare(&records);
    assert_eq!(ctx.len(), records.len());
    assert_eq!(ctx.stats().records, records.len());
    assert_eq!(ctx.stats().values, 3, "three records carry the key attribute");
    for i in 0..records.len() {
        for j in 0..records.len() {
            let naive = scorer.score(&records[i], &records[j]);
            let prepared = ctx.score_pair(i, j);
            assert_eq!(prepared.to_bits(), naive.to_bits(), "pair ({i}, {j})");
            assert_eq!(ctx.accepts(i, j, 0.5), naive >= 0.5, "pair ({i}, {j})");
        }
    }
}
