//! Hand-rolled machine learning for Data Tamer.
//!
//! The paper trains "a machine-learning classifier on a large-scale web-text
//! and used it for deduplication and data cleaning", reporting 89/90%
//! precision/recall by 10-fold cross-validation. The reproduction bands note
//! Rust's ML tooling is thin — everything here is implemented from scratch:
//!
//! * [`features`] — bag-of-words counting, hashing vectoriser, TF-IDF.
//! * [`nb`] — multinomial naive Bayes (text cleaning classifier).
//! * [`logreg`] — L2-regularised logistic regression trained by SGD
//!   (the dedup pair classifier's engine).
//! * [`crossval`] — stratified k-fold cross-validation.
//! * [`metrics`] — confusion matrices, precision / recall / F1 / accuracy.
//! * [`dedup`] — record-pair similarity features + the dedup classifier.

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
