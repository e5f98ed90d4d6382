//! One ingest reads any sequence of records: ingesting `a` chained onto
//! `b` where the two live must leave the consolidator exactly as one
//! ingest of the concatenated copy does — the same [`DeltaReport`], the
//! same clusters and the same accepted pairs. The staged pipeline relies
//! on it to consolidate its structured and text records in place.

use proptest::prelude::*;

use datatamer_entity::blocking::Blocker;
use datatamer_entity::incremental::{DeltaReport, IncrementalConsolidator};
use datatamer_entity::pairsim::RecordSimilarity;
use datatamer_model::{Record, RecordId, SourceId, Value};

/// Small enough that the generated corpora overflow it.
const BUCKET_CAP: usize = 4;

fn named_records(names: &[String]) -> Vec<Record> {
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            Record::from_pairs(
                SourceId(0),
                RecordId(i as u64),
                vec![("name", Value::from(name.clone()))],
            )
        })
        .collect()
}

/// Everything one ingest leaves observable.
type IngestState = (DeltaReport, Vec<Vec<usize>>, Vec<(usize, usize)>);

/// Ingest `batch` into a fresh consolidator and read back its state.
fn ingest_once<'a>(batch: impl IntoIterator<Item = &'a Record>) -> IngestState {
    let mut inc = IncrementalConsolidator::new(
        Blocker::new("name").with_bucket_cap(BUCKET_CAP),
        RecordSimilarity::default(),
        0.75,
    );
    let report = inc.ingest(batch);
    (report, inc.clusters().to_vec(), inc.accepted_pairs())
}

/// Split `records` at a byte-scaled cut into two owned segments.
fn cut(records: &[Record], at: u8) -> (Vec<Record>, Vec<Record>) {
    let (a, b) = records.split_at(usize::from(at) * records.len() / 256);
    (a.to_vec(), b.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn one_ingest_of_a_chain_equals_one_ingest_of_the_concatenation(
        // A three-letter alphabet with spaces: names share tokens, so
        // buckets overflow the cap on either side of the cut.
        names in prop::collection::vec("[abc ]{1,8}", 0..48),
        at in any::<u8>(),
    ) {
        let (a, b) = cut(&named_records(&names), at);
        prop_assert_eq!(ingest_once(a.iter().chain(&b)), ingest_once(&[a, b].concat()));
    }
}

#[test]
fn a_bucket_over_the_cap_on_both_sides_of_the_cut() {
    // "shared" collects six members on each side: the bucket is over the
    // cap within `a` alone and within `b` alone.
    let names: Vec<String> = (0..12).map(|i| format!("shared unique{i}")).collect();
    let (a, b) = cut(&named_records(&names), 128);
    assert_eq!((a.len(), b.len()), (6, 6));
    let chained = ingest_once(a.iter().chain(&b));
    assert_eq!(chained.0.degraded_buckets, 1, "{:?}", chained.0);
    assert_eq!(chained, ingest_once(&[a, b].concat()));
}
