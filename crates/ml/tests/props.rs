//! Property tests for the ML substrate: fold partitions, metric bounds,
//! sparse-vector algebra, and classifier sanity under arbitrary data.

use proptest::prelude::*;

use datatamer_ml::features::SparseVec;
use datatamer_ml::metrics::ConfusionMatrix;
use datatamer_ml::stratified_kfold;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn kfold_is_a_disjoint_cover(
        labels in prop::collection::vec(any::<bool>(), 10..80),
        k in 2usize..8,
        seed in any::<u64>(),
    ) {
        prop_assume!(labels.len() >= k);
        let folds = stratified_kfold(&labels, k, seed).unwrap();
        prop_assert_eq!(folds.len(), k);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..labels.len()).collect();
        prop_assert_eq!(all, expected, "folds must partition the index space");
        // Stratification: positives per fold differ by at most 1.
        let pos_counts: Vec<usize> = folds
            .iter()
            .map(|f| f.iter().filter(|&&i| labels[i]).count())
            .collect();
        let (mn, mx) = (
            pos_counts.iter().min().unwrap(),
            pos_counts.iter().max().unwrap(),
        );
        prop_assert!(mx - mn <= 1, "unbalanced positives: {:?}", pos_counts);
    }

    #[test]
    fn confusion_metrics_are_bounded(
        tp in 0u64..1000, fp in 0u64..1000, tn in 0u64..1000, fn_ in 0u64..1000,
    ) {
        let cm = ConfusionMatrix { tp, fp, tn, fn_ };
        let m = cm.metrics();
        for (name, v) in [
            ("precision", m.precision),
            ("recall", m.recall),
            ("f1", m.f1),
            ("accuracy", m.accuracy),
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "{name} out of bounds: {v}");
        }
        // F1 is between min and max of P and R (harmonic mean property).
        if m.precision > 0.0 && m.recall > 0.0 {
            prop_assert!(m.f1 <= m.precision.max(m.recall) + 1e-12);
            prop_assert!(m.f1 >= m.precision.min(m.recall) - 1e-12);
        }
    }

    #[test]
    fn sparse_vec_dedups_and_sorts(pairs in prop::collection::vec((0u32..64, -10.0f64..10.0), 0..30)) {
        let v = SparseVec::from_pairs(pairs.clone());
        // Sorted, unique indices.
        for w in v.0.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        // Sum per index preserved.
        for (idx, val) in &v.0 {
            let expected: f64 = pairs.iter().filter(|(i, _)| i == idx).map(|(_, x)| x).sum();
            prop_assert!((val - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn sparse_dot_is_symmetric_and_cauchy_schwarz(
        a in prop::collection::vec((0u32..32, -5.0f64..5.0), 0..20),
        b in prop::collection::vec((0u32..32, -5.0f64..5.0), 0..20),
    ) {
        let va = SparseVec::from_pairs(a);
        let vb = SparseVec::from_pairs(b);
        let dab = va.dot(&vb);
        let dba = vb.dot(&va);
        prop_assert!((dab - dba).abs() < 1e-9);
        prop_assert!(dab.abs() <= va.norm() * vb.norm() + 1e-9, "Cauchy-Schwarz violated");
    }

    #[test]
    fn merged_confusion_equals_summed(
        xs in prop::collection::vec((any::<bool>(), any::<bool>()), 0..60),
        split in 0usize..60,
    ) {
        let split = split.min(xs.len());
        let mut whole = ConfusionMatrix::default();
        for (p, a) in &xs {
            whole.record(*p, *a);
        }
        let mut left = ConfusionMatrix::default();
        for (p, a) in &xs[..split] {
            left.record(*p, *a);
        }
        let mut right = ConfusionMatrix::default();
        for (p, a) in &xs[split..] {
            right.record(*p, *a);
        }
        left.merge(&right);
        prop_assert_eq!(left, whole);
    }
}
