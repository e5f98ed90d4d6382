//! Dedup benches — experiment M1.
//!
//! Times pair featurisation, classifier training and the full 10-fold
//! cross-validation protocol.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use datatamer_corpus::truth::labeled_pairs;
use datatamer_ml::dedup::{crossval_dedup, DedupClassifier, PairFeatures};
use datatamer_ml::logreg::LogRegConfig;
use datatamer_text::EntityType;

fn pairs(n: usize) -> Vec<(String, String, bool)> {
    labeled_pairs(EntityType::Person, n, 42, 0.6, false)
        .into_iter()
        .map(|p| (p.a, p.b, p.same))
        .collect()
}

fn bench_featurize(c: &mut Criterion) {
    let ps = pairs(1_000);
    let mut group = c.benchmark_group("dedup_featurize");
    group.throughput(Throughput::Elements(ps.len() as u64));
    group.bench_function("1000_pairs", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (a, bb, _) in &ps {
                acc += PairFeatures::extract(a, bb)[0];
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_train(c: &mut Criterion) {
    let ps = pairs(1_000);
    c.bench_function("dedup_train_1000", |b| {
        b.iter(|| black_box(DedupClassifier::train(&ps, &LogRegConfig::default())))
    });
}

fn bench_crossval(c: &mut Criterion) {
    let ps = pairs(600);
    c.bench_function("dedup_10fold_crossval_600", |b| {
        b.iter(|| black_box(crossval_dedup(&ps, 10, 7, &LogRegConfig::default()).metrics()))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(12);
    targets = bench_featurize, bench_train, bench_crossval
);
criterion_main!(benches);
