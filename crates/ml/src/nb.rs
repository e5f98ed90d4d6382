//! Multinomial naive Bayes over sparse count vectors.
//!
//! Powers the text-cleaning classifier (junk / boilerplate vs. content
//! fragments): fast to train, robust with small vocabularies, and fully
//! deterministic.

use crate::features::SparseVec;
use crate::{invalid, Result};

/// A trained multinomial naive Bayes model for `num_classes` classes.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    /// log P(class)
    log_prior: Vec<f64>,
    /// log P(term | class), dense per class: `[class][term]`.
    log_likelihood: Vec<Vec<f64>>,
}

impl NaiveBayes {
    /// Train from `(vector, class)` examples with Laplace smoothing `alpha`.
    ///
    /// `vocab_size` bounds term indices. Fewer than two classes, no
    /// examples, a class index `>= num_classes` or a term index
    /// `>= vocab_size` is the error.
    pub fn train(
        examples: &[(SparseVec, usize)],
        num_classes: usize,
        vocab_size: usize,
        alpha: f64,
    ) -> Result<Self> {
        if num_classes < 2 {
            return invalid("need at least two classes");
        }
        if examples.is_empty() {
            return invalid("training set must be non-empty");
        }
        let mut class_counts = vec![0u64; num_classes];
        let mut term_counts = vec![vec![0.0f64; vocab_size]; num_classes];
        let mut term_totals = vec![0.0f64; num_classes];
        for (vec, class) in examples {
            let (Some(class_count), Some(terms), Some(total)) = (
                class_counts.get_mut(*class),
                term_counts.get_mut(*class),
                term_totals.get_mut(*class),
            ) else {
                return invalid("class index out of range");
            };
            *class_count += 1;
            for (idx, count) in &vec.0 {
                let i = *idx as usize;
                let Some(term) = terms.get_mut(i) else {
                    return invalid(format!("term index {i} exceeds vocab size {vocab_size}"));
                };
                *term += count;
                *total += count;
            }
        }
        let n = examples.len() as f64;
        let log_prior = class_counts
            .iter()
            .map(|c| ((*c as f64 + alpha) / (n + alpha * num_classes as f64)).ln())
            .collect();
        let log_likelihood = term_counts
            .iter()
            .zip(&term_totals)
            .map(|(counts, total)| {
                let denom = total + alpha * vocab_size as f64;
                counts.iter().map(|tc| ((tc + alpha) / denom).ln()).collect()
            })
            .collect();
        Ok(NaiveBayes { log_prior, log_likelihood })
    }

    /// Log joint score of each class, in class order.
    pub fn scores(&self, x: &SparseVec) -> Vec<f64> {
        self.class_scores(x).collect()
    }

    /// The scores [`Self::scores`] returns, without collecting them. A term
    /// index outside the training vocabulary adds nothing, like a word the
    /// vocabulary never saw.
    fn class_scores<'s>(&'s self, x: &'s SparseVec) -> impl Iterator<Item = f64> + 's {
        self.log_prior.iter().zip(&self.log_likelihood).map(move |(lp, likelihood)| {
            lp + x
                .0
                .iter()
                .filter_map(|(idx, count)| likelihood.get(*idx as usize).map(|l| count * l))
                .sum::<f64>()
        })
    }

    /// Most probable class; of equal scores, the last class wins.
    pub fn predict(&self, x: &SparseVec) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for (class, score) in self.class_scores(x).enumerate() {
            if best.is_none_or(|(_, top)| score.total_cmp(&top).is_ge()) {
                best = Some((class, score));
            }
        }
        best.map_or(0, |(class, _)| class)
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
        let nb = NaiveBayes::train(&examples, 2, vocab.len(), 1.0).unwrap();
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

    // The bad input is an `MlError`; `unwrap` turns it into the panic
    // the test expects.
    #[test]
    #[should_panic(expected = "class index out of range")]
    fn bad_class_panics() {
        let v = SparseVec::from_pairs(vec![(0, 1.0)]);
        NaiveBayes::train(&[(v, 5)], 2, 10, 1.0).unwrap();
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_panics() {
        NaiveBayes::train(&[], 2, 10, 1.0).unwrap();
    }

    #[test]
    fn out_of_shape_training_data_is_an_error() {
        let v = |i: u32| SparseVec::from_pairs(vec![(i, 1.0)]);
        assert!(NaiveBayes::train(&[(v(0), 0)], 1, 10, 1.0).is_err(), "one class");
        let err = NaiveBayes::train(&[(v(10), 0)], 2, 10, 1.0).unwrap_err();
        assert_eq!(err.to_string(), "term index 10 exceeds vocab size 10");
    }

    #[test]
    fn predict_is_the_last_top_score() {
        // Equal priors and no known term: every class ties, and the last
        // wins, as `Iterator::max_by` over the scores picks it.
        let v = |i: u32| SparseVec::from_pairs(vec![(i, 1.0)]);
        let nb = NaiveBayes::train(&[(v(0), 0), (v(0), 1), (v(0), 2)], 3, 1, 1.0).unwrap();
        assert_eq!(nb.predict(&SparseVec::default()), 2);
        // An index past the vocabulary adds nothing.
        assert_eq!(nb.scores(&v(7)), nb.scores(&SparseVec::default()));
        for (i, x) in [v(0), SparseVec::default()].iter().enumerate() {
            let scores = nb.scores(x);
            let want = scores
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.total_cmp(b))
                .map(|(c, _)| c)
                .unwrap();
            assert_eq!(nb.predict(x), want, "case {i}");
        }
    }

    #[test]
    fn class_imbalance_shifts_prior() {
        let v = |i: u32| SparseVec::from_pairs(vec![(i, 1.0)]);
        // 3 examples of class 0, 1 of class 1, disjoint vocab.
        let examples = vec![(v(0), 0), (v(0), 0), (v(0), 0), (v(1), 1)];
        let nb = NaiveBayes::train(&examples, 2, 2, 1.0).unwrap();
        let empty = SparseVec::default();
        let scores = nb.scores(&empty);
        assert!(scores[0] > scores[1], "majority class wins on empty input");
    }
}
