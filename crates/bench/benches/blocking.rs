//! Blocking ablation: candidate generation across bucket-size
//! distributions and strategies.
//!
//! The interesting axis is the bucket-size distribution. Uniform small
//! buckets are blocking's best case; a Zipf-like head token funnels most
//! records into one giant bucket, which is exactly where the progressive
//! oversize fallback (in-cap quadratic core plus a full-key window) sets
//! the cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use datatamer_entity::{Blocker, BlockingStrategy};
use datatamer_model::{Record, RecordId, SourceId, Value};

const N: usize = 2000;

fn record(i: usize, name: String) -> Record {
    Record::from_pairs(
        SourceId(0),
        RecordId(i as u64),
        vec![("name", Value::from(name))],
    )
}

/// Uniform distribution: ~every 7 records share a group token, no bucket
/// anywhere near the cap.
fn uniform_corpus() -> Vec<Record> {
    (0..N)
        .map(|i| record(i, format!("unique{i} group{}", i % (N / 7))))
        .collect()
}

/// Zipf-like head: every record shares one stopword-like token ("show"),
/// funnelling all of them into a single oversized bucket, plus a light
/// tail of small buckets.
fn zipf_corpus() -> Vec<Record> {
    (0..N)
        .map(|i| record(i, format!("show tail{} unique{i:04}", i % 50)))
        .collect()
}

fn bench_blocking(c: &mut Criterion) {
    let uniform = uniform_corpus();
    let zipf = zipf_corpus();
    let mut group = c.benchmark_group("blocking");
    group.sample_size(15);
    group.throughput(Throughput::Elements(N as u64));

    group.bench_function("token_uniform", |b| {
        let blocker = Blocker::new("name", BlockingStrategy::Token);
        b.iter(|| black_box(blocker.candidates_with_report(&uniform).pairs.len()))
    });
    group.bench_function("token_zipf_progressive", |b| {
        let blocker = Blocker::new("name", BlockingStrategy::Token);
        b.iter(|| black_box(blocker.candidates_with_report(&zipf).pairs.len()))
    });
    group.bench_function("sorted_neighborhood_zipf", |b| {
        let blocker =
            Blocker::new("name", BlockingStrategy::SortedNeighborhood { window: 16 });
        b.iter(|| black_box(blocker.candidates_with_report(&zipf).pairs.len()))
    });
    group.bench_function("minhash_lsh_zipf", |b| {
        let blocker =
            Blocker::new("name", BlockingStrategy::MinHashLsh { bands: 8, rows: 4 });
        b.iter(|| black_box(blocker.candidates_with_report(&zipf).pairs.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_blocking);
criterion_main!(benches);
