//! Data cleaning and transformation.
//!
//! Data Tamer includes "a capability for data cleaning and transformations
//! (for example to translate euros into dollars)". This crate implements
//! that engine plus the paper's "machine learning text data cleaning and
//! pre-processing extension":
//!
//! * [`transforms`] — typed value transformations: currency conversion
//!   (EUR→USD, the paper's canonical example), date normalisation, unit
//!   stripping, whitespace repair.
//! * [`nulls`] — canonicalising the many spellings of "missing".
//! * [`rules`] — the per-attribute cleaning rule engine with change
//!   accounting.
//! * [`textclean`] — the ML fragment cleaner: a naive-Bayes junk /
//!   boilerplate filter applied before parsing (the paper's pre-processing
//!   step for web text).

pub mod nulls;
pub mod rules;
pub mod textclean;
pub mod transforms;

pub use rules::{CleaningEngine, CleaningReport, Rule};
pub use textclean::TextCleaner;
pub use transforms::Transform;
