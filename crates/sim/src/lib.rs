//! Similarity measures for Data Tamer.
//!
//! Schema matching, entity consolidation, and the dedup classifier all score
//! candidate pairs with string / token-set / numeric similarities. Everything
//! here is implemented from scratch (the reproduction bands call out that
//! matchers must be hand-rolled) and returns scores normalised to `[0, 1]`
//! where `1` is identity.

pub mod cosine;
pub mod jaccard;
pub mod jaro;
pub mod levenshtein;
pub mod ngram;
pub mod numeric;
pub mod soundex;
pub mod tokens;

pub use cosine::{cosine, damp, idf, normalize_tfidf};
pub use jaccard::{jaccard, jaccard_sorted, weighted_jaccard};
pub use jaro::{jaro, jaro_winkler};
pub use levenshtein::{levenshtein, levenshtein_similarity};
pub use ngram::{char_ngrams, ngram_similarity};
pub use numeric::{overlap_fraction, relative_diff_similarity, stats_similarity};
pub use soundex::soundex;
pub use tokens::{for_each_token, tokenize, FnvBuildHasher, FnvHasher, TokenInterner};
