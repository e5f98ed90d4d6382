//! Stratified k-fold cross-validation.
//!
//! The paper's §IV headline — 89/90% precision/recall — is "by 10-fold
//! crossvalidation"; this module supplies exactly that protocol.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::metrics::{BinaryMetrics, ConfusionMatrix};

/// Produce `k` stratified folds over boolean labels: every fold receives a
/// near-equal share of positives and negatives. Returns per-fold index sets;
/// folds are disjoint and cover `0..labels.len()`.
pub fn stratified_kfold(labels: &[bool], k: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k >= 2, "need at least two folds");
    assert!(labels.len() >= k, "fewer examples than folds");
    let mut pos: Vec<usize> = Vec::new();
    let mut neg: Vec<usize> = Vec::new();
    for (i, y) in labels.iter().enumerate() {
        if *y {
            pos.push(i);
        } else {
            neg.push(i);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for arr in [&mut pos, &mut neg] {
        for i in (1..arr.len()).rev() {
            let j = rng.random_range(0..=i);
            arr.swap(i, j);
        }
    }
    let mut folds = vec![Vec::new(); k];
    for (n, idx) in pos.into_iter().enumerate() {
        folds[n % k].push(idx);
    }
    for (n, idx) in neg.into_iter().enumerate() {
        folds[n % k].push(idx);
    }
    folds
}

/// Per-fold and pooled results of a cross-validation run.
#[derive(Debug, Clone)]
pub struct CrossValReport {
    /// One confusion matrix per fold.
    pub fold_matrices: Vec<ConfusionMatrix>,
}

impl CrossValReport {
    /// Pooled (micro-averaged) confusion matrix.
    pub fn pooled(&self) -> ConfusionMatrix {
        let mut total = ConfusionMatrix::default();
        for m in &self.fold_matrices {
            total.merge(m);
        }
        total
    }

    /// Micro-averaged metrics across folds.
    pub fn metrics(&self) -> BinaryMetrics {
        self.pooled().metrics()
    }
}

/// Run k-fold cross-validation.
///
/// `train` receives the training indices and returns a model as a closure
/// that classifies an example index (true = positive). This shape keeps the
/// runner agnostic to feature representation.
pub fn cross_validate<F, M>(
    labels: &[bool],
    k: usize,
    seed: u64,
    train: F,
) -> CrossValReport
where
    F: Fn(&[usize]) -> M,
    M: Fn(usize) -> bool,
{
    let folds = stratified_kfold(labels, k, seed);
    let mut fold_matrices = Vec::with_capacity(k);
    for test_fold in &folds {
        let train_idx: Vec<usize> = folds
            .iter()
            .filter(|f| !std::ptr::eq(*f, test_fold))
            .flatten()
            .copied()
            .collect();
        let model = train(&train_idx);
        let mut cm = ConfusionMatrix::default();
        for &i in test_fold {
            cm.record(model(i), labels[i]);
        }
        fold_matrices.push(cm);
    }
    CrossValReport { fold_matrices }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n_pos: usize, n_neg: usize) -> Vec<bool> {
        let mut v = vec![true; n_pos];
        v.extend(vec![false; n_neg]);
        v
    }

    #[test]
    fn folds_partition_the_index_space() {
        let ys = labels(37, 63);
        let folds = stratified_kfold(&ys, 10, 1);
        assert_eq!(folds.len(), 10);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>(), "disjoint cover");
    }

    #[test]
    fn folds_are_stratified() {
        let ys = labels(50, 50);
        for fold in stratified_kfold(&ys, 10, 2) {
            let pos = fold.iter().filter(|&&i| ys[i]).count();
            assert_eq!(pos, 5, "each fold gets an equal share of positives");
            assert_eq!(fold.len(), 10);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let ys = labels(20, 20);
        assert_eq!(stratified_kfold(&ys, 4, 9), stratified_kfold(&ys, 4, 9));
        assert_ne!(stratified_kfold(&ys, 4, 9), stratified_kfold(&ys, 4, 10));
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn k1_panics() {
        stratified_kfold(&[true, false], 1, 0);
    }

    #[test]
    #[should_panic(expected = "fewer examples")]
    fn too_few_examples_panics() {
        stratified_kfold(&[true, false], 3, 0);
    }

    #[test]
    fn cross_validate_perfect_oracle() {
        let ys = labels(30, 30);
        let report = cross_validate(&ys, 10, 3, |_train| {
            let ys = ys.clone();
            move |i: usize| ys[i]
        });
        let m = report.metrics();
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(report.fold_matrices.len(), 10);
        assert_eq!(report.pooled().total(), 60);
    }

    #[test]
    fn cross_validate_constant_negative_has_zero_recall() {
        let ys = labels(10, 50);
        let report = cross_validate(&ys, 5, 4, |_| |_: usize| false);
        let m = report.metrics();
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.precision, 0.0);
        assert!((m.accuracy - 50.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn training_sets_exclude_test_fold() {
        let ys = labels(10, 10);
        let folds = stratified_kfold(&ys, 4, 5);
        let _ = cross_validate(&ys, 4, 5, |train| {
            // The train set must be exactly the complement of one fold.
            let train_set: std::collections::HashSet<usize> = train.iter().copied().collect();
            let matching = folds
                .iter()
                .filter(|f| f.iter().all(|i| !train_set.contains(i)))
                .count();
            assert!(matching >= 1, "one fold fully held out");
            move |_i: usize| true
        });
    }
}
