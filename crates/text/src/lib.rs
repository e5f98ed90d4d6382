//! Domain-specific text parser — the "user-defined module" of Figure 1.
//!
//! The paper's text pipeline relies on Recorded Future's proprietary
//! domain-specific parser to turn ~1 TB of raw web text into hierarchical
//! entity/instance data. This crate is that module, built from scratch:
//!
//! * [`tokenize`] — word/sentence tokenisation with byte spans.
//! * [`normalize`] — case folding, stopword filtering, whitespace cleanup.
//! * [`scan`] — hand-rolled pattern scanners (money, percentages, dates,
//!   times, URLs, quoted titles). No regex engine anywhere.
//! * [`gazetteer`] — multi-word dictionary matching per entity type.
//! * [`parser`] — the [`parser::DomainParser`]: combines gazetteers,
//!   scanners, and contextual heuristics to emit hierarchical instance and
//!   entity documents ready for ingestion and flattening.
//! * [`mention`] — typed entity mentions with spans and confidences.
//!
//! Parsing a fragment is one pass of token work. [`DomainParser::parse`]
//! tokenises the fragment once and hands that token stream to the
//! scanners ([`scan::scan_tokens`]); it lowercases each word token once,
//! into one buffer ([`tokenize::Words`]), which the gazetteer's trie walk
//! ([`Gazetteer::find_words`]) and the contextual heuristics both read.
//! No extractor tokenises again or allocates a `String` per token.

pub mod gazetteer;
pub mod mention;
pub mod normalize;
pub mod parser;
pub mod scan;
pub mod tokenize;

pub use gazetteer::Gazetteer;
pub use mention::{EntityType, Mention};
pub use parser::{DomainParser, ParsedFragment};
