//! Incremental consolidation end to end: seed a corpus through the staged
//! pipeline, ingest two delta batches through `DataTamer::consolidate_delta`
//! (printing each `DeltaReport`), then prove the resident-state shortcut
//! changed nothing — the fused output byte-matches a from-scratch batch
//! rebuild over the concatenated corpus. Run with `RAYON_NUM_THREADS=1` vs `=16`
//! to see the output is thread-count independent too.
use datatamer::core::fusion::{BlockedErConfig, GroupingStrategy, CHEAPEST_PRICE, SHOW_NAME};
use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::model::{Record, RecordId, SourceId, Value};

fn show(id: u64, name: &str, price: &str) -> Record {
    Record::from_pairs(
        SourceId(0),
        RecordId(id),
        vec![(SHOW_NAME, Value::from(name)), (CHEAPEST_PRICE, Value::from(price))],
    )
}

fn config() -> DataTamerConfig {
    DataTamerConfig {
        grouping: GroupingStrategy::BlockedEr(BlockedErConfig::default()),
        ..Default::default()
    }
}

fn fp(dt: &DataTamer) -> String {
    dt.context()
        .fused
        .iter()
        .map(|f| format!("{}|{}|{:?}|{:?}\n", f.key, f.member_count, f.confidence, f.record))
        .collect()
}

fn main() {
    let corpus: Vec<Record> =
        (0..200).map(|i| show(i, &format!("Unique{i} Show{i}"), "$10")).collect();
    let d1: Vec<Record> = (0..10).map(|i| show(300 + i, &format!("Unique{i} Show{i}"), "$10")).collect();
    let d2: Vec<Record> = vec![show(400, "Brand New Production", "$55")];

    let mut dt = DataTamer::new(config());
    dt.run(PipelinePlan::new().structured("s1", &corpus)).unwrap();
    let r1 = dt.consolidate_delta(&d1).unwrap();
    let r2 = dt.consolidate_delta(&d2).unwrap();
    println!("delta1: {r1:?}");
    println!("delta2: {r2:?}");

    let mut all = corpus.clone();
    all.extend(d1.iter().cloned());
    all.extend(d2.iter().cloned());
    let mut full = DataTamer::new(config());
    full.run(PipelinePlan::new().structured("s1", &all)).unwrap();

    assert_eq!(fp(&dt), fp(&full), "incremental diverged from full rebuild");
    assert_eq!(r1.dirty_clusters, 10);
    assert_eq!(r2.total_records, 211);
    println!("EQUIVALENCE OK ({} fused entities)", dt.context().fused.len());
}
