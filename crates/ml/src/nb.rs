//! Multinomial naive Bayes over sparse count vectors.
//!
//! Powers the text-cleaning classifier (junk / boilerplate vs. content
//! fragments): fast to train, robust with small vocabularies, and fully
//! deterministic.

use crate::features::SparseVec;

/// A trained multinomial naive Bayes model for `num_classes` classes.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    /// log P(class)
    log_prior: Vec<f64>,
    /// log P(term | class), dense per class: `[class][term]`.
    log_likelihood: Vec<Vec<f64>>,
    vocab_size: usize,
}

impl NaiveBayes {
    /// Train from `(vector, class)` examples with Laplace smoothing `alpha`.
    ///
    /// `vocab_size` bounds term indices; out-of-range indices panic.
    pub fn train(
        examples: &[(SparseVec, usize)],
        num_classes: usize,
        vocab_size: usize,
        alpha: f64,
    ) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        assert!(!examples.is_empty(), "training set must be non-empty");
        let mut class_counts = vec![0u64; num_classes];
        let mut term_counts = vec![vec![0.0f64; vocab_size]; num_classes];
        let mut term_totals = vec![0.0f64; num_classes];
        for (vec, class) in examples {
            assert!(*class < num_classes, "class index out of range");
            class_counts[*class] += 1;
            for (idx, count) in &vec.0 {
                let i = *idx as usize;
                assert!(i < vocab_size, "term index {i} exceeds vocab size {vocab_size}");
                term_counts[*class][i] += count;
                term_totals[*class] += count;
            }
        }
        let n = examples.len() as f64;
        let log_prior = class_counts
            .iter()
            .map(|c| ((*c as f64 + alpha) / (n + alpha * num_classes as f64)).ln())
            .collect();
        let log_likelihood = (0..num_classes)
            .map(|c| {
                let denom = term_totals[c] + alpha * vocab_size as f64;
                term_counts[c]
                    .iter()
                    .map(|tc| ((tc + alpha) / denom).ln())
                    .collect()
            })
            .collect();
        NaiveBayes { log_prior, log_likelihood, vocab_size }
    }

    /// Log joint score per class.
    pub fn scores(&self, x: &SparseVec) -> Vec<f64> {
        self.log_prior
            .iter()
            .enumerate()
            .map(|(c, lp)| {
                lp + x
                    .0
                    .iter()
                    .map(|(idx, count)| {
                        let i = *idx as usize;
                        assert!(i < self.vocab_size, "term index out of range");
                        count * self.log_likelihood[c][i]
                    })
                    .sum::<f64>()
            })
            .collect()
    }

    /// Most probable class.
    pub fn predict(&self, x: &SparseVec) -> usize {
        let scores = self.scores(x);
        scores
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .expect("at least two classes")
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.log_prior.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Vocabulary;

    fn train_junk_detector() -> (NaiveBayes, Vocabulary) {
        let junk = [
            "click here buy now cheap tickets",
            "subscribe newsletter click banner ad",
            "cookie policy accept terms click",
            "advertisement sponsored click buy",
        ];
        let content = [
            "the show grossed well on broadway",
            "matilda opened at the shubert theatre",
            "critics praised the performance schedule",
            "the musical import from london impressed",
        ];
        let mut vocab = Vocabulary::new();
        for t in junk.iter().chain(content.iter()) {
            vocab.fit_doc(t);
        }
        let mut examples = Vec::new();
        for t in junk {
            examples.push((vocab.counts(t), 0usize));
        }
        for t in content {
            examples.push((vocab.counts(t), 1usize));
        }
        let nb = NaiveBayes::train(&examples, 2, vocab.len(), 1.0);
        (nb, vocab)
    }

    #[test]
    fn separates_junk_from_content() {
        let (nb, vocab) = train_junk_detector();
        assert_eq!(nb.predict(&vocab.counts("click buy cheap now")), 0);
        assert_eq!(nb.predict(&vocab.counts("the musical grossed well")), 1);
        assert_eq!(nb.num_classes(), 2);
    }

    #[test]
    fn unknown_terms_fall_back_to_prior() {
        let (nb, vocab) = train_junk_detector();
        // counts() drops unknown terms -> empty vector -> prior decides.
        let empty = vocab.counts("zzz qqq www");
        assert_eq!(empty.nnz(), 0);
        let scores = nb.scores(&empty);
        assert!((scores[0] - scores[1]).abs() < 1e-9, "balanced priors tie");
    }

    #[test]
    fn scores_are_finite_log_probs() {
        let (nb, vocab) = train_junk_detector();
        for s in nb.scores(&vocab.counts("click the show")) {
            assert!(s.is_finite());
            assert!(s < 0.0, "log-probabilities are negative");
        }
    }

    #[test]
    #[should_panic(expected = "class index out of range")]
    fn bad_class_panics() {
        let v = SparseVec::from_pairs(vec![(0, 1.0)]);
        NaiveBayes::train(&[(v, 5)], 2, 10, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_panics() {
        NaiveBayes::train(&[], 2, 10, 1.0);
    }

    #[test]
    fn class_imbalance_shifts_prior() {
        let v = |i: u32| SparseVec::from_pairs(vec![(i, 1.0)]);
        // 3 examples of class 0, 1 of class 1, disjoint vocab.
        let examples = vec![(v(0), 0), (v(0), 0), (v(0), 0), (v(1), 1)];
        let nb = NaiveBayes::train(&examples, 2, 2, 1.0);
        let empty = SparseVec::default();
        let scores = nb.scores(&empty);
        assert!(scores[0] > scores[1], "majority class wins on empty input");
    }
}
