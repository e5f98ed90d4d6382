//! Domain-specific text parser — the "user-defined module" of Figure 1.
//!
//! The paper's text pipeline relies on Recorded Future's proprietary
//! domain-specific parser to turn ~1 TB of raw web text into hierarchical
//! entity/instance data. This crate is that module, built from scratch:
//!
//! * [`tokenize`] — one-pass lexing: tokens with byte spans and class
//!   flags, and each word's lowercase form.
//! * [`normalize`] — case folding, stopword filtering, whitespace cleanup.
//! * [`scan`] — hand-rolled pattern scanners (money, percentages, dates,
//!   times, URLs, quoted titles). No regex engine anywhere.
//! * [`gazetteer`] — multi-word dictionary matching per entity type, over
//!   the lexicon the parser shares with its keywords.
//! * [`parser`] — the [`parser::DomainParser`]: combines gazetteers,
//!   scanners, and contextual heuristics to emit hierarchical instance and
//!   entity documents ready for ingestion.
//! * [`mention`] — typed entity mentions with spans and confidences.
//!
//! A fragment is read once. [`Tokenized::new`] lexes it in one pass: an
//! all-ASCII fragment byte by byte, any other char by char. Each token
//! carries its class flags (word, capitalised, numeric, digit-led), and
//! each word its lowercase form in one buffer sized from the text. The text
//! ingest reads those words first, for the junk filter, and hands the same
//! [`Tokenized`] to [`DomainParser::parse_tokenized`] only when the fragment
//! is kept. The parser probes its lexicon once per word: the gazetteer's
//! word map, which also holds every keyword of the heuristics and scanners
//! (positions, honorifics, company and facility suffixes, speech verbs,
//! stopwords, money words, `percent`) as bits. The trie walk then follows
//! only `(node, token)` edges, the heuristics test bits, the token scanners
//! run as one walk over the flagged tokens, and the URL and quoted-title
//! scanners each read the raw bytes once. No extractor tokenises again,
//! compares a word against a keyword list, or allocates a `String` per
//! token. [`DomainParser::parse`] is the same parse of a raw `&str`.

pub mod gazetteer;
pub mod mention;
pub mod normalize;
pub mod parser;
pub mod scan;
pub mod tokenize;

pub use gazetteer::Gazetteer;
pub use mention::{EntityType, Mention};
pub use parser::{DomainParser, ParsedFragment};
pub use tokenize::Tokenized;
