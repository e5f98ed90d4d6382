//! Hand-rolled machine learning for Data Tamer.
//!
//! The paper trains "a machine-learning classifier on a large-scale web-text
//! and used it for deduplication and data cleaning", reporting 89/90%
//! precision/recall by 10-fold cross-validation. The reproduction bands note
//! Rust's ML tooling is thin — everything here is implemented from scratch:
//!
//! * [`features`] — sparse vectors and bag-of-words counting.
//! * [`nb`] — multinomial naive Bayes (text cleaning classifier).
//! * [`logreg`] — L2-regularised logistic regression trained by SGD
//!   (the dedup pair classifier's engine).
//! * [`crossval`] — stratified k-fold cross-validation.
//! * [`metrics`] — confusion matrices, precision / recall / F1 / accuracy.
//! * [`dedup`] — record-pair similarity features + the dedup classifier.
//!
//! Nothing here panics on its inputs: training data or feature vectors out
//! of shape for a model are an [`MlError`].

pub mod crossval;
pub mod dedup;
pub mod features;
pub mod logreg;
pub mod metrics;
pub mod nb;

pub use crossval::{stratified_kfold, CrossValReport};
pub use dedup::{DedupClassifier, PairFeatures};
pub use logreg::LogisticRegression;
pub use metrics::{BinaryMetrics, ConfusionMatrix};
pub use nb::NaiveBayes;

/// Inputs out of shape for a model: empty or mislabelled training data,
/// mismatched dimensions, too few examples for the folds asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlError(pub String);

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for MlError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MlError>;

/// An [`MlError`] with `message`.
pub(crate) fn invalid<T>(message: impl Into<String>) -> Result<T> {
    Err(MlError(message.into()))
}
