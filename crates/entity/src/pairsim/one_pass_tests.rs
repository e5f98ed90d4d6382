//! The one pass of [`ScoringContext::extend`] against the per-value loop
//! it replaced, kept below as [`reference`]: each field's float,
//! numeric-ish parse, lowercase bytes and token ids, each record's key
//! tokens, bucket membership and sort key, and the [`PrepareStats`], for a
//! context built by one `extend` or by several, at widths 1 and 8.

use proptest::prelude::*;

use super::*;
use crate::blocking::Blocker;
use crate::incremental::IncrementalConsolidator;
use datatamer_model::{RecordId, SourceId};

/// The per-value loop `ScoringContext::extend` ran before the one pass,
/// and the consolidator's key tokenisation and sort axis beside it.
mod reference {
    use super::*;
    use crate::blocking::distinct_token_ids;

    /// One prepared field; floats as bits, so NaN compares equal.
    #[derive(Debug, PartialEq)]
    pub struct Field {
        pub attr: u32,
        pub float: Option<u64>,
        pub numericish: Option<u64>,
        pub lower: String,
        pub tokens: Vec<u32>,
    }

    #[derive(Debug)]
    pub struct Prepared {
        pub records: Vec<Vec<Field>>,
        pub key_tokens: Vec<Vec<u32>>,
        pub sort_keys: Vec<Option<String>>,
        pub stats: PrepareStats,
    }

    pub fn prepare(rs: &RecordSimilarity, key_attr: Option<&str>, records: &[Record]) -> Prepared {
        let (mut attr_ids, mut tokens) = (sim::TokenInterner::new(), sim::TokenInterner::new());
        let mut weights: Vec<f64> = Vec::new();
        let mut stats = PrepareStats::default();
        let mut prepared = Vec::new();
        for r in records {
            let mut fields = Vec::new();
            for (attr, v) in r.iter() {
                if v.is_null() {
                    continue;
                }
                let attr_id = attr_ids.intern_str(attr);
                if attr_id as usize == weights.len() {
                    weights.push(rs.weight_of(attr));
                }
                if weights[attr_id as usize] == 0.0 && key_attr != Some(attr) {
                    continue;
                }
                let text = v.to_text();
                let lower = text.to_lowercase();
                let mut ids = Vec::new();
                sim::for_each_token(&lower, |tok| ids.push(tokens.intern_str(tok)));
                ids.sort_unstable();
                ids.dedup();
                fields.push(Field {
                    attr: attr_id,
                    float: v.as_float().map(f64::to_bits),
                    numericish: parse_numericish(&text).map(f64::to_bits),
                    lower,
                    tokens: ids,
                });
                stats.values += 1;
            }
            prepared.push(fields);
        }
        stats.records = records.len();
        stats.distinct_attrs = attr_ids.len();
        stats.distinct_tokens = tokens.len();

        let key_text = |r: &Record| key_attr.and_then(|k| r.get_text(k));
        let mut key_ids = sim::TokenInterner::new();
        let mut ids = Vec::new();
        let key_tokens = records
            .iter()
            .map(|r| match key_text(r) {
                Some(key) => {
                    distinct_token_ids(&mut key_ids, &key, &mut ids);
                    ids.clone()
                }
                None => Vec::new(),
            })
            .collect();
        let sort_keys = records.iter().map(|r| key_text(r).map(|k| k.to_lowercase())).collect();
        Prepared { records: prepared, key_tokens, sort_keys, stats }
    }

    /// Bucket `id` lists, in record order, the records whose key holds
    /// token `id`.
    pub fn buckets(key_tokens: &[Vec<u32>]) -> Vec<Vec<usize>> {
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        for (i, ids) in key_tokens.iter().enumerate() {
            for &id in ids {
                let id = id as usize;
                if buckets.len() <= id {
                    buckets.resize(id + 1, Vec::new());
                }
                buckets[id].push(i);
            }
        }
        buckets
    }
}

/// Record `i`'s fields as the context holds them, in the reference's form.
fn fields(ctx: &ScoringContext, i: usize) -> Vec<reference::Field> {
    ctx.fields_of(i)
        .iter()
        .map(|f| reference::Field {
            attr: f.attr,
            float: f.float.map(f64::to_bits),
            numericish: f.numericish.map(f64::to_bits),
            lower: ctx.lower_of(f).to_owned(),
            tokens: ctx.tokens_of(f).to_vec(),
        })
        .collect()
}

fn check_fields(ctx: &ScoringContext, want: &reference::Prepared) -> Result<(), TestCaseError> {
    prop_assert_eq!(ctx.len(), want.records.len());
    for (i, want) in want.records.iter().enumerate() {
        prop_assert_eq!(&fields(ctx, i), want, "record {}", i);
    }
    prop_assert_eq!(ctx.stats(), want.stats);
    Ok(())
}

fn sort_axis(ctx: &ScoringContext) -> Vec<Option<String>> {
    (0..ctx.len()).map(|i| ctx.key_text(i).map(str::to_owned)).collect()
}

/// The batches `cuts` splits `records` into.
fn batches<'r>(records: &'r [Record], cuts: &[usize]) -> Vec<Vec<&'r Record>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(records.len())).collect();
    bounds.push(records.len());
    bounds.sort_unstable();
    let mut start = 0;
    bounds
        .into_iter()
        .map(|end| {
            let batch = records[start..end].iter().collect();
            start = end;
            batch
        })
        .collect()
}

/// Builds every context kind from `records` in the batches `cuts` gives,
/// at `width` threads, and compares each with the reference.
fn check(
    rs: &RecordSimilarity,
    key: &str,
    records: &[Record],
    cuts: &[usize],
    width: usize,
) -> Result<(), TestCaseError> {
    let keyed = reference::prepare(rs, Some(key), records);
    let plain = reference::prepare(rs, None, records);
    let batches = batches(records, cuts);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    pool.install(|| {
        // A consolidator's context: key tokens and the sort axis too.
        let mut ctx = rs.keyed_context(Some(key));
        let mut key_tokens: Vec<Vec<u32>> = Vec::new();
        for batch in &batches {
            let keys = ctx.extend_keyed(batch);
            key_tokens.extend(keys.iter().map(<[u32]>::to_vec));
        }
        check_fields(&ctx, &keyed)?;
        prop_assert_eq!(&key_tokens, &keyed.key_tokens);
        prop_assert_eq!(sort_axis(&ctx), keyed.sort_keys.clone());
        prop_assert_eq!(ctx.sort_keys(key), Some(keyed.sort_keys.clone()));

        // The consolidator itself: its buckets and its axis.
        let mut inc = IncrementalConsolidator::new(Blocker::new(key), rs.clone(), 0.75);
        for batch in &batches {
            inc.ingest(batch.iter().copied());
        }
        prop_assert_eq!(inc.buckets().to_vec(), reference::buckets(&keyed.key_tokens));
        prop_assert_eq!(sort_axis(inc.context()), keyed.sort_keys.clone());
        check_fields(inc.context(), &keyed)?;

        // A context with no key, through the public `extend`.
        let mut ctx = rs.keyed_context(None);
        for batch in &batches {
            ctx.extend(batch.iter().copied());
        }
        check_fields(&ctx, &plain)?;
        prop_assert!(sort_axis(&ctx).iter().all(Option::is_none));
        Ok(())
    })
}

const ATTRS: [&str; 5] = ["name", "genre", "price", "feed", "misc"];

/// Pieces of text: repeated words in several cases, camelCase, non-ASCII
/// whose lowercase changes length or turns ASCII (KELVIN SIGN, `İ`, `ß`,
/// final sigma), and numeric look-alikes with no ASCII digit.
const PIECES: [&str; 28] = [
    "matilda", "Matilda", "LION", "king", "McQueen", "showName", "La La", "Theater 012",
    "\u{212A}elvin", "straße", "İstanbul", "ΟΔΟΣ", "σίσυφοΣ",
    "$", ".", "-", "USD", "٣", "１２",
    "$27", "27 USD", "1,200", "-3.50", "€ 9", "", " ", "x", "2013",
];

const SEPARATORS: [&str; 4] = [" ", "", "_", "-"];

fn text_strategy() -> impl Strategy<Value = String> {
    (prop::collection::vec(0..PIECES.len(), 0..4), prop::collection::vec(0..SEPARATORS.len(), 4))
        .prop_map(|(pieces, seps)| {
            let mut text = String::new();
            for (k, &p) in pieces.iter().enumerate() {
                if k > 0 {
                    text.push_str(SEPARATORS[seps[k]]);
                }
                text.push_str(PIECES[p]);
            }
            text
        })
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        text_strategy().prop_map(Value::from),
        text_strategy().prop_map(Value::from),
        text_strategy().prop_map(Value::from),
        (-3000i64..3000).prop_map(Value::Int),
        prop_oneof![
            Just(Value::Int(i64::MIN)),
            Just(Value::Int(i64::MAX)),
            Just(Value::Int((1 << 53) + 1)),
            Just(Value::Int(-(1 << 60) - 7)),
        ],
        (-1.0e4..1.0e4).prop_map(Value::Float),
        prop_oneof![
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(f64::INFINITY)),
            Just(Value::Float(f64::NEG_INFINITY)),
            Just(Value::Float(2.0)),
            Just(Value::Float(-0.0)),
        ],
        Just(Value::Bool(true)),
        Just(Value::Array(vec![Value::from("A b"), Value::Int(3)])),
    ]
}

fn records_strategy() -> impl Strategy<Value = Vec<Vec<(usize, Value)>>> {
    // Up to three chunks, so repeats and first sightings straddle them.
    prop::collection::vec(
        prop::collection::vec((0..ATTRS.len(), value_strategy()), 0..6),
        0..3 * NORMALISE_CHUNK,
    )
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

/// `genre` weighs 2, `feed` 0 (prepared only as the key), the rest 1.
fn scorer() -> RecordSimilarity {
    RecordSimilarity::with_weights(vec![("genre".into(), 2.0), ("feed".into(), 0.0)], 1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_pass_prepares_as_the_per_value_loop(
        raw in records_strategy(),
        key in 0usize..2,
        cuts in prop::collection::vec(0usize..3 * NORMALISE_CHUNK, 0..4),
    ) {
        let records = build_records(raw);
        let key = ["name", "feed"][key];
        for width in [1, 8] {
            check(&scorer(), key, &records, &[], width)?;
            check(&scorer(), key, &records, &cuts, width)?;
        }
    }

    #[test]
    fn a_numericish_parse_needs_an_ascii_digit(
        text in text_strategy(),
        noise in "[0-9$€£¥.,+ UuSsDdEeRrJjPpYyol٣１２-]{0,8}",
    ) {
        for s in [&text, &noise] {
            if parse_numericish(s).is_some() {
                prop_assert!(s.bytes().any(|b| b.is_ascii_digit()), "{:?}", s);
            }
        }
    }
}

#[test]
fn edge_values_prepare_as_the_per_value_loop() {
    // Every value the pass treats apart, each twice (so the second is a
    // repeat), under both a weighted attribute and the key.
    let values = [
        Value::from("\u{212A}elvin"),
        Value::from("Straße"),
        Value::from("İstanbul"),
        Value::from("ΟΔΟΣ ΣΟΦΟΣ"),
        Value::from("McQueen showName"),
        Value::from("$"),
        Value::from("."),
        Value::from("-"),
        Value::from("USD"),
        Value::from("٣"),
        Value::from("１２"),
        Value::from("$27"),
        Value::from(""),
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Int((1 << 53) + 1),
        Value::Int(i64::MIN),
        Value::Null,
    ];
    let records: Vec<Record> = values
        .iter()
        .chain(&values)
        .enumerate()
        .map(|(i, v)| {
            Record::from_pairs(
                SourceId(0),
                RecordId(i as u64),
                vec![("name", v.clone()), ("genre", v.clone()), ("feed", v.clone())],
            )
        })
        .collect();
    for key in ["name", "feed"] {
        for width in [1, 8] {
            let cuts = [values.len() / 2, values.len() + 1];
            check(&scorer(), key, &records, &[], width).unwrap();
            check(&scorer(), key, &records, &cuts, width).unwrap();
        }
    }
    for s in ["$27", "27 USD", "-3.50", "1,200", "€ 9"] {
        assert!(parse_numericish(s).is_some(), "{s:?} parses");
    }
}
