//! The dedup pair classifier (the paper's §IV headline result).
//!
//! A pair of entity surface forms is featurised with a battery of hand-rolled
//! similarity measures and classified duplicate / distinct by logistic
//! regression. Evaluated with stratified 10-fold cross-validation per entity
//! type, this is the experiment behind the paper's "89/90% precision/recall
//! ... on several different types of entities" claim (experiment M1).
//!
//! The classifier is M1's evaluation model, not a consolidation scorer:
//! entity consolidation scores pairs with the weighted attribute rules of
//! `datatamer-entity`'s `RecordSimilarity`. Callers that want the model's
//! verdict on a pair ask [`DedupClassifier::proba`] directly.

use datatamer_sim as sim;

use crate::crossval::{cross_validate, CrossValReport};
use crate::logreg::{LogRegConfig, LogisticRegression};
use crate::Result;

/// Similarity feature extractor for name pairs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairFeatures;

impl PairFeatures {
    /// Number of features produced.
    pub const DIM: usize = 9;

    /// Feature names, index-aligned with [`PairFeatures::extract`] output
    /// (used by ablation reports).
    pub const NAMES: [&'static str; Self::DIM] = [
        "jaro_winkler",
        "levenshtein_sim",
        "token_jaccard",
        "bigram_jaccard",
        "trigram_jaccard",
        "soundex_equal",
        "length_ratio",
        "prefix4_equal",
        "canonical_equal",
    ];

    /// Extract the feature vector for a pair of surface forms.
    pub fn extract(a: &str, b: &str) -> Vec<f64> {
        let ca = canonical(a);
        let cb = canonical(b);
        let toks_a: std::collections::HashSet<String> =
            sim::tokenize(&ca).into_iter().collect();
        let toks_b: std::collections::HashSet<String> =
            sim::tokenize(&cb).into_iter().collect();
        let len_ratio = {
            let (la, lb) = (ca.chars().count() as f64, cb.chars().count() as f64);
            if la.max(lb) == 0.0 {
                1.0
            } else {
                la.min(lb) / la.max(lb)
            }
        };
        let soundex_eq = match (sim::soundex(&ca), sim::soundex(&cb)) {
            (Some(x), Some(y)) => f64::from(u8::from(x == y)),
            _ => 0.0,
        };
        let prefix4: f64 = {
            let pa: String = ca.chars().take(4).collect();
            let pb: String = cb.chars().take(4).collect();
            f64::from(u8::from(!pa.is_empty() && pa == pb))
        };
        vec![
            sim::jaro_winkler(&ca, &cb),
            sim::levenshtein_similarity(&ca, &cb),
            sim::jaccard(&toks_a, &toks_b),
            sim::ngram_similarity(&ca, &cb, 2),
            sim::ngram_similarity(&ca, &cb, 3),
            soundex_eq,
            len_ratio,
            prefix4,
            f64::from(u8::from(ca == cb)),
        ]
    }
}

/// Canonicalise a surface form for comparison.
fn canonical(s: &str) -> String {
    let lower = s.trim().to_lowercase();
    let squeezed: String = {
        let mut out = String::with_capacity(lower.len());
        let mut last_space = true;
        for c in lower.chars() {
            if c.is_whitespace() {
                if !last_space {
                    out.push(' ');
                    last_space = true;
                }
            } else {
                out.push(c);
                last_space = false;
            }
        }
        out.trim_end().to_owned()
    };
    squeezed.strip_prefix("the ").map(str::to_owned).unwrap_or(squeezed)
}

/// A trained duplicate-pair classifier.
#[derive(Debug, Clone)]
pub struct DedupClassifier {
    model: LogisticRegression,
}

impl DedupClassifier {
    /// Train on labelled string pairs; no pairs is the error.
    pub fn train(pairs: &[(String, String, bool)], config: &LogRegConfig) -> Result<Self> {
        let xs: Vec<Vec<f64>> =
            pairs.iter().map(|(a, b, _)| PairFeatures::extract(a, b)).collect();
        let ys: Vec<bool> = pairs.iter().map(|(_, _, y)| *y).collect();
        Ok(DedupClassifier { model: LogisticRegression::train(&xs, &ys, config)? })
    }

    /// Probability the pair is a duplicate.
    pub fn proba(&self, a: &str, b: &str) -> f64 {
        // Training rows and this row come from the same extractor.
        self.model.proba_of_row(&PairFeatures::extract(a, b))
    }

    /// Access the underlying linear model.
    pub fn model(&self) -> &LogisticRegression {
        &self.model
    }
}

/// Stratified k-fold cross-validation of the dedup classifier over labelled
/// pairs — the paper's evaluation protocol (10-fold in the paper). Fewer
/// pairs than folds is the error.
pub fn crossval_dedup(
    pairs: &[(String, String, bool)],
    k: usize,
    seed: u64,
    config: &LogRegConfig,
) -> Result<CrossValReport> {
    let features: Vec<Vec<f64>> =
        pairs.iter().map(|(a, b, _)| PairFeatures::extract(a, b)).collect();
    let labels: Vec<bool> = pairs.iter().map(|(_, _, y)| *y).collect();
    cross_validate(&labels, k, seed, |train_idx| {
        let xs: Vec<Vec<f64>> = train_idx.iter().map(|&i| features[i].clone()).collect();
        let ys: Vec<bool> = train_idx.iter().map(|&i| labels[i]).collect();
        let model = LogisticRegression::train(&xs, &ys, config)?;
        let features = features.clone();
        // Every row comes from `PairFeatures::extract`, as the training rows.
        Ok(move |i: usize| model.proba_of_row(&features[i]) >= 0.5)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_pairs() -> Vec<(String, String, bool)> {
        let mut pairs = Vec::new();
        let dupes = [
            ("Matilda", "matilda"),
            ("The Walking Dead", "Walking Dead"),
            ("Goodfellas", "Goodfelas"),
            ("Raging Bull", "RAGING BULL"),
            ("James Smith", "J. Smith"),
            ("Mean Streets", "Mean Streets "),
            ("Shubert Theatre", "Shubert Theater"),
            ("Kinky Boots", "Kinki Boots"),
        ];
        let distinct = [
            ("Matilda", "Goodfellas"),
            ("James Smith", "Mary Johnson"),
            ("The Walking Dead", "The Lion King"),
            ("Raging Bull", "Mean Streets"),
            ("Shubert Theatre", "Gershwin Theatre"),
            ("Kinky Boots", "Rock of Ages"),
            ("Chicago", "Boston"),
            ("Wicked", "Written"),
        ];
        for (a, b) in dupes {
            pairs.push((a.to_owned(), b.to_owned(), true));
        }
        for (a, b) in distinct {
            pairs.push((a.to_owned(), b.to_owned(), false));
        }
        // Replicate with index suffixes so folds have enough data.
        let mut out = Vec::new();
        for rep in 0..6 {
            for (a, b, y) in &pairs {
                let _ = rep;
                out.push((a.clone(), b.clone(), *y));
            }
        }
        out
    }

    #[test]
    fn feature_vector_shape_and_bounds() {
        let f = PairFeatures::extract("Matilda", "matilda!");
        assert_eq!(f.len(), PairFeatures::DIM);
        assert_eq!(PairFeatures::NAMES.len(), PairFeatures::DIM);
        for (name, v) in PairFeatures::NAMES.iter().zip(&f) {
            assert!((0.0..=1.0).contains(v), "{name}={v}");
        }
    }

    #[test]
    fn identical_and_disjoint_extremes() {
        let same = PairFeatures::extract("Raging Bull", "Raging Bull");
        assert_eq!(same[0], 1.0);
        assert_eq!(same[8], 1.0);
        let far = PairFeatures::extract("Raging Bull", "Zyxw Qrst");
        assert!(far[0] < 0.6);
        assert_eq!(far[2], 0.0);
        assert_eq!(far[8], 0.0);
    }

    #[test]
    fn canonicalisation_strips_articles_and_case() {
        let f = PairFeatures::extract("The Walking Dead", "walking  dead");
        assert_eq!(f[8], 1.0, "canonical forms must match: {f:?}");
    }

    #[test]
    fn classifier_learns_toy_data() {
        let pairs = toy_pairs();
        let clf = DedupClassifier::train(&pairs, &LogRegConfig::default()).unwrap();
        assert!(clf.proba("Matilda", "matilda") >= 0.5);
        assert!(clf.proba("Trees Lounge", "Trees Lounge") >= 0.5);
        assert!(clf.proba("Matilda", "The Lion King") < 0.5);
        let p_dup = clf.proba("Goodfellas", "Goodfelas");
        let p_far = clf.proba("Goodfellas", "Annie");
        assert!(p_dup > p_far);
    }

    #[test]
    fn crossval_on_toy_data_is_strong() {
        let pairs = toy_pairs();
        let report = crossval_dedup(&pairs, 4, 7, &LogRegConfig::default()).unwrap();
        let m = report.metrics();
        assert!(m.precision > 0.9, "{m}");
        assert!(m.recall > 0.9, "{m}");
        assert_eq!(report.fold_matrices.len(), 4);
    }

    #[test]
    fn crossval_is_deterministic() {
        let pairs = toy_pairs();
        let a = crossval_dedup(&pairs, 4, 7, &LogRegConfig::default()).unwrap().metrics();
        let b = crossval_dedup(&pairs, 4, 7, &LogRegConfig::default()).unwrap().metrics();
        assert_eq!(a, b);
    }
}
