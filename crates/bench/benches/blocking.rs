//! Token blocking across bucket-size distributions.
//!
//! The interesting axis is the bucket-size distribution. Uniform small
//! buckets are blocking's best case; a Zipf-like head token funnels most
//! records into one giant bucket, which is exactly where progressive
//! blocking (in-cap quadratic core plus a full-key window) sets the cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use datatamer_entity::Blocker;
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

    let blocker = Blocker::new("name");
    group.bench_function("token_uniform", |b| {
        b.iter(|| black_box(blocker.candidates_with_report(&uniform).pairs.len()))
    });
    group.bench_function("token_zipf_progressive", |b| {
        b.iter(|| black_box(blocker.candidates_with_report(&zipf).pairs.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_blocking);
criterion_main!(benches);
