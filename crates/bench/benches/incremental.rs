//! Delta ingest vs full re-consolidation: the resident-state payoff.
//!
//! The sweep crosses delta size (32, 128 records) with corpus size (355,
//! 887, 2000 records — the middle point matching the pipeline bench's
//! corpus scale). For each cell the A side clones a preloaded
//! [`IncrementalConsolidator`] and ingests the delta (the clone is an
//! artefact of the bench harness's `iter`-only API and *overstates* the
//! incremental cost — resident state is never copied in real use); the B
//! side re-runs the full batch blocked-ER path — prepare, block, score,
//! cluster — over corpus + delta from scratch. The acceptance line this
//! guards: a ≤15 % delta ingests ≥5× faster than the rebuild at the
//! 887-record scale (the 32-record delta, 3.6 %, measures ~10×).
//!
//! Reading the sweep: both paths must score every *new-vs-old* candidate
//! pair once, and that volume is ~`2·delta/corpus` of the full candidate
//! volume — so for scoring-bound cells the speedup ceiling is
//! `corpus/(2·delta)` (≈3.5× for the 128-record delta at 887, which
//! measures right at its ceiling). The resident state's win grows as the
//! delta fraction shrinks: preparation, blocking, and old-vs-old scoring
//! all drop out entirely.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use datatamer_entity::blocking::Blocker;
use datatamer_entity::cluster::cluster_pairs;
use datatamer_entity::incremental::IncrementalConsolidator;
use datatamer_entity::pairsim::{PairScorer, RecordSimilarity};
use datatamer_model::{Record, RecordId, SourceId, Value};
use datatamer_storage::DeltaLog;

const THRESHOLD: f64 = 0.75;

/// Entity-group-structured records: ~12 near-duplicates per group plus a
/// cross-group `take` token, so blocking yields intra-group buckets and
/// moderate cross-group candidate volume — all under the bucket cap.
fn records(range: std::ops::Range<usize>) -> Vec<Record> {
    range
        .map(|i| {
            let g = i / 12;
            Record::from_pairs(
                SourceId(0),
                RecordId(i as u64),
                vec![
                    ("name", Value::from(format!("title{g} group{g} take{}", i % 12))),
                    ("price", Value::from(format!("${}", 20 + g % 80))),
                ],
            )
        })
        .collect()
}

fn blocker() -> Blocker {
    Blocker::new("name")
}

fn scorer() -> PairScorer {
    PairScorer::Rules(RecordSimilarity::default())
}

/// The batch blocked-ER path, end to end: prepare the scoring context,
/// block, score candidates, cluster. Mirrors the staged pipeline's
/// non-incremental `BlockedEr` branch.
fn full_rebuild(all: &[Record]) -> usize {
    let ctx = scorer().prepare(all);
    let outcome =
        blocker().candidates_with_report_keyed(all, &|| ctx.sort_keys("name").unwrap());
    let accepted = ctx.accepted_pairs(&outcome.pairs, THRESHOLD);
    cluster_pairs(all.len(), &accepted).len()
}

fn bench_delta_vs_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_er");
    group.sample_size(10);
    for &corpus_n in &[355usize, 887, 2000] {
        let corpus = records(0..corpus_n);
        let mut base = IncrementalConsolidator::new(blocker(), scorer(), THRESHOLD);
        base.ingest(&corpus);
        // The harness artifact, measured: every delta_ingest iteration
        // pays one full resident-state clone that real use never does.
        // Subtract this from delta_ingest to read the true ingest cost.
        group.bench_with_input(
            BenchmarkId::new("state_clone", corpus_n),
            &base,
            |b, base| b.iter(|| black_box(base.clone().len())),
        );
        for &delta_n in &[32usize, 128] {
            let delta = records(corpus_n..corpus_n + delta_n);
            let mut all = corpus.clone();
            all.extend(delta.iter().cloned());
            group.throughput(Throughput::Elements(delta_n as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("delta_ingest/{delta_n}"), corpus_n),
                &delta,
                |b, delta| {
                    b.iter(|| {
                        let mut inc = base.clone();
                        black_box(inc.ingest(delta))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("full_rebuild/{delta_n}"), corpus_n),
                &all,
                |b, all| b.iter(|| black_box(full_rebuild(all))),
            );
        }
    }
    group.finish();
}

/// Restart cost: replaying a session's logged delta batches through a
/// fresh consolidator vs re-consolidating the concatenated corpus from
/// scratch. Replay reads the checksummed frames and ingests them as one
/// batch — the same work a reopened `DataTamer` does before its first
/// delta.
fn bench_replay_vs_reseed(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_replay");
    group.sample_size(10);
    let corpus_n = 887usize;
    let corpus = records(0..corpus_n);
    let deltas = records(corpus_n..corpus_n + 128);
    let dir = std::env::temp_dir().join(format!("dt_bench_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("delta.log");
    let _ = std::fs::remove_file(&path);
    {
        let mut log = DeltaLog::open(&path).unwrap();
        for batch in deltas.chunks(32) {
            log.append(batch).unwrap();
        }
    }
    group.bench_function("log_replay", |b| {
        b.iter(|| {
            let log = DeltaLog::open(&path).unwrap();
            let replayed = log.replay_records().unwrap();
            let mut inc = IncrementalConsolidator::new(blocker(), scorer(), THRESHOLD);
            inc.ingest(&corpus);
            inc.ingest(&replayed);
            black_box(inc.len())
        })
    });
    group.bench_function("full_reseed", |b| {
        let mut all = corpus.clone();
        all.extend(deltas.iter().cloned());
        b.iter(|| black_box(full_rebuild(&all)))
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_delta_vs_rebuild, bench_replay_vs_reseed);
criterion_main!(benches);
