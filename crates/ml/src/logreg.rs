//! L2-regularised logistic regression trained with SGD.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct LogRegConfig {
    /// SGD epochs.
    pub epochs: usize,
    /// Initial learning rate (decays as `lr / (1 + t * decay)`).
    pub learning_rate: f64,
    /// Learning-rate decay per epoch.
    pub decay: f64,
    /// L2 regularisation strength.
    pub l2: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig { epochs: 60, learning_rate: 0.3, decay: 0.05, l2: 1e-4, seed: 42 }
    }
}

/// A trained binary logistic-regression model over dense features.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// Train on dense feature rows with boolean labels.
    ///
    /// # Panics
    /// When `xs` is empty, rows have inconsistent dimensions, or label count
    /// differs from row count.
    pub fn train(xs: &[Vec<f64>], ys: &[bool], config: &LogRegConfig) -> Self {
        assert!(!xs.is_empty(), "training set must be non-empty");
        assert_eq!(xs.len(), ys.len(), "feature/label count mismatch");
        let dim = xs[0].len();
        assert!(xs.iter().all(|x| x.len() == dim), "inconsistent feature dimensions");

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut weights = vec![0.0; dim];
        let mut bias = 0.0;
        let mut order: Vec<usize> = (0..xs.len()).collect();
        for epoch in 0..config.epochs {
            let lr = config.learning_rate / (1.0 + epoch as f64 * config.decay);
            // Fisher-Yates shuffle with the seeded RNG.
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for &idx in &order {
                let x = &xs[idx];
                let y = if ys[idx] { 1.0 } else { 0.0 };
                let z = bias + dot_dense(&weights, x);
                let err = sigmoid(z) - y;
                for (w, xi) in weights.iter_mut().zip(x) {
                    *w -= lr * (err * xi + config.l2 * *w);
                }
                bias -= lr * err;
            }
        }
        LogisticRegression { weights, bias }
    }

    /// Probability that the label is positive.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "feature dimension mismatch");
        sigmoid(self.bias + dot_dense(&self.weights, x))
    }

    /// Hard decision at threshold 0.5.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Learned weights (for ablation inspection).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Learned bias.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

fn dot_dense(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable(n: usize) -> (Vec<Vec<f64>>, Vec<bool>) {
        // Positive iff x0 + x1 > 1.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..n {
            let a: f64 = rng.random::<f64>() * 2.0;
            let b: f64 = rng.random::<f64>() * 2.0;
            xs.push(vec![a, b]);
            ys.push(a + b > 1.0);
        }
        (xs, ys)
    }

    #[test]
    fn learns_separable_data() {
        let (xs, ys) = linearly_separable(400);
        let model = LogisticRegression::train(&xs, &ys, &LogRegConfig::default());
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, y)| model.predict(x) == **y)
            .count();
        assert!(correct >= 380, "train accuracy too low: {correct}/400");
    }

    #[test]
    fn probabilities_are_monotone_in_signal() {
        let (xs, ys) = linearly_separable(400);
        let model = LogisticRegression::train(&xs, &ys, &LogRegConfig::default());
        let low = model.predict_proba(&[0.0, 0.0]);
        let high = model.predict_proba(&[2.0, 2.0]);
        assert!(low < 0.5, "{low}");
        assert!(high > 0.5, "{high}");
        assert!((0.0..=1.0).contains(&low));
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = linearly_separable(100);
        let m1 = LogisticRegression::train(&xs, &ys, &LogRegConfig::default());
        let m2 = LogisticRegression::train(&xs, &ys, &LogRegConfig::default());
        assert_eq!(m1.weights(), m2.weights());
        assert_eq!(m1.bias(), m2.bias());
        let m3 = LogisticRegression::train(
            &xs,
            &ys,
            &LogRegConfig { seed: 99, ..Default::default() },
        );
        assert_ne!(m1.weights(), m3.weights());
    }

    #[test]
    fn l2_shrinks_weights() {
        let (xs, ys) = linearly_separable(200);
        let loose = LogisticRegression::train(
            &xs,
            &ys,
            &LogRegConfig { l2: 0.0, ..Default::default() },
        );
        let tight = LogisticRegression::train(
            &xs,
            &ys,
            &LogRegConfig { l2: 0.5, ..Default::default() },
        );
        let norm = |w: &[f64]| w.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(norm(tight.weights()) < norm(loose.weights()));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_panics() {
        LogisticRegression::train(&[], &[], &LogRegConfig::default());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_predict_panics() {
        let model = LogisticRegression::train(
            &[vec![1.0, 2.0]],
            &[true],
            &LogRegConfig { epochs: 1, ..Default::default() },
        );
        model.predict(&[1.0]);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }
}
