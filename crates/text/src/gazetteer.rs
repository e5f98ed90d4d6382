//! Multi-word gazetteer matching, and the parser's lexicon.
//!
//! A gazetteer maps known phrases to an entity type. Matching is greedy
//! longest-first over the token stream, case-insensitive, and returns byte
//! spans. The corpus generator seeds gazetteers with its name pools, so the
//! parser's dictionaries play the role of Recorded Future's curated ones.
//!
//! The phrases form a word trie. A phrase's first word leads from the root
//! to the node its lexicon entry names; every later step is an edge keyed
//! by `(node, token id)`, where each distinct lowercase word that follows
//! another in some phrase gets a dense token id. Matching walks the trie
//! once from each position and keeps the deepest node that ends a phrase,
//! so the longest phrase wins. All of it is flat maps and
//! vectors, which keeps `clone` to a handful of allocations plus one per
//! distinct word.
//!
//! The map from a lowercase word to its trie entries is also the parser's
//! lexicon: each entry is the word's root child and token id (where phrases
//! use it) and its keyword bits (positions, honorifics, company and
//! facility suffixes, speech verbs, stopwords, money context and suffix
//! words, `percent`). The parser adds its keywords once, when it is built, and
//! probes the lexicon once per word of a fragment. The trie walk then reads
//! only `(node, token)` edges, and the heuristics and scanners test bits.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::mention::{EntityType, Mention};
use crate::tokenize::Tokenized;

/// The trie root's node id.
const ROOT: u32 = 0;

/// The keyword classes a [`Lexeme`] can carry, one bit each.
pub(crate) mod keys {
    /// A position title (`parser::POSITIONS`).
    pub const POSITION: u16 = 1;
    /// An honorific (`parser::HONORIFICS`).
    pub const HONORIFIC: u16 = 1 << 1;
    /// A company designator (`parser::COMPANY_SUFFIXES`).
    pub const COMPANY_SUFFIX: u16 = 1 << 2;
    /// A facility designator (`parser::FACILITY_SUFFIXES`).
    pub const FACILITY_SUFFIX: u16 = 1 << 3;
    /// A speech verb (`parser::SPEECH_VERBS`).
    pub const SPEECH_VERB: u16 = 1 << 4;
    /// A stopword (`normalize::STOPWORDS`).
    pub const STOPWORD: u16 = 1 << 5;
    /// A money context word (`scan::MONEY_CONTEXT`).
    pub const MONEY_CONTEXT: u16 = 1 << 6;
    /// A currency word (`scan::MONEY_SUFFIXES`).
    pub const MONEY_SUFFIX: u16 = 1 << 7;
    /// The word `percent`.
    pub const PERCENT: u16 = 1 << 8;
}

/// What the lexicon knows of one lowercase word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lexeme {
    /// The word's token id, or [`Lexeme::NO_TOKEN`] when no phrase uses it
    /// after another word.
    token: u32,
    /// The trie node a phrase starting with this word leads to, or [`ROOT`]
    /// (never a child) when no phrase starts with it. The walk's first step
    /// reads it here instead of probing the edge map.
    first: u32,
    /// The word's keyword bits ([`keys`]).
    keys: u16,
}

impl Lexeme {
    /// The token id of a word no phrase uses after another word.
    const NO_TOKEN: u32 = u32::MAX;

    /// A word the lexicon does not hold.
    pub(crate) const UNKNOWN: Lexeme = Lexeme { token: Lexeme::NO_TOKEN, first: ROOT, keys: 0 };

    /// True when the word carries keyword bit `key`.
    pub(crate) fn is(self, key: u16) -> bool {
        self.keys & key != 0
    }
}

/// A phrase dictionary for one or more entity types, and the lexicon of
/// its words and the parser's keywords.
#[derive(Debug, Clone)]
pub struct Gazetteer {
    /// Lowercase word -> its trie entries and keyword bits.
    lexicon: HashMap<Box<str>, Lexeme, WordHashBuild>,
    /// Token ids handed out so far.
    tokens: u32,
    /// `(node, token id)` -> child node, for every node but the root (a
    /// root edge is its word's [`Lexeme::first`]).
    edges: HashMap<(u32, u32), u32, WordHashBuild>,
    /// Per trie node, indexed by node id.
    nodes: Vec<Node>,
    len: usize,
}

/// One trie node: the phrase that ends here, if any.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    /// Type and confidence of the first phrase added with exactly this
    /// token sequence; it wins every match that ends here.
    terminal: Option<(EntityType, f64)>,
    /// Bit `t as u32` set when a phrase of type `t` ends here, so adding
    /// the same phrase with the same type twice is a no-op.
    types: u32,
}

impl Default for Gazetteer {
    fn default() -> Self {
        Gazetteer {
            lexicon: HashMap::default(),
            tokens: 0,
            edges: HashMap::default(),
            nodes: vec![Node::default()],
            len: 0,
        }
    }
}

impl Gazetteer {
    /// Create an empty gazetteer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of phrases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no phrases are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add a phrase with a type and confidence. The phrase's word tokens
    /// are its key, lowercased; punctuation between them is ignored.
    /// Adding a key again with a type it already has is a no-op; with a
    /// new type it counts as a phrase, but matches keep reporting the type
    /// the key was first added with.
    pub fn add(&mut self, phrase: &str, entity_type: EntityType, confidence: f64) {
        let phrase = Tokenized::new(phrase);
        if phrase.word_count() == 0 {
            return;
        }
        let mut node = ROOT;
        for (_, lower) in phrase.words() {
            let next_node = self.nodes.len() as u32;
            let lexeme = self.lexicon.entry(lower.into()).or_insert(Lexeme::UNKNOWN);
            node = if node == ROOT {
                if lexeme.first == ROOT {
                    lexeme.first = next_node;
                }
                lexeme.first
            } else {
                if lexeme.token == Lexeme::NO_TOKEN {
                    lexeme.token = self.tokens;
                    self.tokens += 1;
                }
                *self.edges.entry((node, lexeme.token)).or_insert(next_node)
            };
            if node == next_node {
                self.nodes.push(Node::default());
            }
        }
        let Some(end) = self.nodes.get_mut(node as usize) else { return };
        let bit = 1u32 << entity_type as u32;
        if end.types & bit != 0 {
            return;
        }
        end.types |= bit;
        end.terminal.get_or_insert((entity_type, confidence));
        self.len += 1;
    }

    /// Give each of `words` (lowercase) keyword bit `key` in the lexicon.
    /// A keyword is not a phrase: matching and [`Self::len`] ignore it.
    pub(crate) fn add_keywords(&mut self, words: &[&str], key: u16) {
        for word in words {
            self.lexicon.entry((*word).into()).or_insert(Lexeme::UNKNOWN).keys |= key;
        }
    }

    /// The lexicon's entry for a lowercase word.
    pub(crate) fn probe(&self, lower: &str) -> Lexeme {
        self.lexicon.get(lower).copied().unwrap_or(Lexeme::UNKNOWN)
    }

    /// Find all gazetteer mentions in `text` (greedy, non-overlapping,
    /// longest-match-first at each position).
    pub fn find(&self, text: &str) -> Vec<Mention> {
        let fragment = Tokenized::new(text);
        let lexemes: Vec<Lexeme> = fragment.words().map(|(_, lower)| self.probe(lower)).collect();
        self.find_lexed(&fragment, &lexemes)
    }

    /// [`Gazetteer::find`] over a fragment the caller has lexed, with each
    /// word's [`Self::probe`] in `lexemes`: the parser probes a fragment's
    /// words once and shares the result with every extractor.
    pub(crate) fn find_lexed(&self, fragment: &Tokenized, lexemes: &[Lexeme]) -> Vec<Mention> {
        let text = fragment.text();
        let child = |node: u32, k: usize| {
            let lexeme = lexemes.get(k)?;
            if node == ROOT {
                Some(lexeme.first).filter(|&first| first != ROOT)
            } else if lexeme.token == Lexeme::NO_TOKEN {
                None
            } else {
                self.edges.get(&(node, lexeme.token)).copied()
            }
        };
        let mut out = Vec::new();
        let mut i = 0usize;
        while let Some(first) = fragment.word(i) {
            // Walk as deep as the trie follows, remembering the deepest
            // node that ends a phrase.
            let mut node = ROOT;
            let mut best = None;
            let mut k = i;
            while let Some(next) = child(node, k) {
                node = next;
                k += 1;
                if let Some(hit) = self.nodes.get(node as usize).and_then(|n| n.terminal) {
                    best = Some((k, hit));
                }
            }
            match best {
                Some((k, (ty, conf))) => {
                    // The match's last word is word `k - 1`.
                    let last = fragment.word(k - 1).unwrap_or(first);
                    let (start, end) = (first.start, last.end);
                    out.push(Mention::new(ty, &text[start..end], start, end, conf));
                    i = k;
                }
                None => i += 1,
            }
        }
        out
    }
}

/// The lexicon's and the trie's hasher: eight bytes per folded multiply
/// (the high and low halves of a 128-bit product, xored, so every output
/// bit depends on every input bit), far cheaper than SipHash, or than a
/// multiply per byte, on short word keys and `(node, token)` pairs. Neither map is ever
/// iterated — ids and nodes are dense and assigned in insertion order — so
/// the hash cannot reach any output. Only the gazetteer's own phrase words
/// and the parser's keywords are keys; fragment text only probes, and a
/// probe cannot lengthen a collision chain.
#[derive(Debug, Clone, Copy, Default)]
struct WordHash(u64);

impl WordHash {
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for WordHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let word = rest.iter().rev().fold(0u64, |word, &b| word << 8 | u64::from(b));
            self.mix(word);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }
}

type WordHashBuild = BuildHasherDefault<WordHash>;

#[cfg(test)]
mod tests {
    use super::*;

    fn gaz() -> Gazetteer {
        let mut g = Gazetteer::new();
        g.add("Matilda", EntityType::Movie, 0.95);
        g.add("The Walking Dead", EntityType::Movie, 0.95);
        g.add("New York", EntityType::City, 0.9);
        g.add("New York Times", EntityType::Company, 0.9);
        g
    }

    #[test]
    fn single_and_multi_word_matches() {
        let g = gaz();
        let ms = g.find("Everyone watches The Walking Dead and Matilda in New York");
        let got: Vec<(&str, EntityType)> =
            ms.iter().map(|m| (m.text.as_str(), m.entity_type)).collect();
        assert_eq!(
            got,
            vec![
                ("The Walking Dead", EntityType::Movie),
                ("Matilda", EntityType::Movie),
                ("New York", EntityType::City),
            ]
        );
    }

    #[test]
    fn longest_match_wins() {
        let g = gaz();
        let ms = g.find("the New York Times reported");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].entity_type, EntityType::Company);
        assert_eq!(ms[0].text, "New York Times");
    }

    #[test]
    fn case_insensitive_but_preserves_surface() {
        let g = gaz();
        let ms = g.find("MATILDA was great");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].text, "MATILDA");
    }

    #[test]
    fn punctuation_between_tokens_matches() {
        let g = gaz();
        let ms = g.find("\"The Walking Dead\" airs");
        assert_eq!(ms.len(), 1, "{ms:?}");
    }

    #[test]
    fn spans_index_original_text() {
        let g = gaz();
        let text = "I saw Matilda twice";
        let ms = g.find(text);
        assert_eq!(&text[ms[0].start..ms[0].end], "Matilda");
    }

    #[test]
    fn duplicates_not_double_added() {
        let mut g = gaz();
        let before = g.len();
        g.add("Matilda", EntityType::Movie, 0.95);
        assert_eq!(g.len(), before);
        g.add("Matilda", EntityType::Person, 0.5);
        assert_eq!(g.len(), before + 1, "same phrase different type is distinct");
    }

    #[test]
    fn first_added_type_wins_on_equal_phrases() {
        let mut g = Gazetteer::new();
        g.add("Recorded Future", EntityType::Company, 0.8);
        g.add("recorded  future", EntityType::Organization, 0.99);
        assert_eq!(g.len(), 2);
        let ms = g.find("Recorded Future said so");
        assert_eq!(ms.len(), 1);
        assert_eq!((ms[0].entity_type, ms[0].confidence), (EntityType::Company, 0.8));
    }

    #[test]
    fn prefix_without_a_phrase_falls_back_to_shorter_match() {
        let g = gaz();
        // "New York Post" walks past "New York" but ends no phrase there.
        let ms = g.find("the New York Post and New York Times");
        let got: Vec<(&str, EntityType)> =
            ms.iter().map(|m| (m.text.as_str(), m.entity_type)).collect();
        assert_eq!(
            got,
            vec![("New York", EntityType::City), ("New York Times", EntityType::Company)]
        );
    }

    #[test]
    fn keywords_share_the_lexicon_without_becoming_phrases() {
        let mut g = Gazetteer::new();
        g.add("Shubert Theatre", EntityType::Facility, 0.6);
        g.add_keywords(&["theatre", "hall"], keys::FACILITY_SUFFIX);
        g.add_keywords(&["the"], keys::STOPWORD);
        // A phrase added after a keyword gives the keyword a token too.
        g.add("Theatre Row", EntityType::GeoEntity, 0.7);
        assert_eq!(g.len(), 2, "keywords are not phrases");
        for (word, key) in [("theatre", keys::FACILITY_SUFFIX), ("hall", keys::FACILITY_SUFFIX)] {
            assert!(g.probe(word).is(key), "{word}");
        }
        assert!(!g.probe("shubert").is(keys::FACILITY_SUFFIX));
        assert_eq!(g.probe("Theatre"), Lexeme::UNKNOWN, "the lexicon is probed in lowercase");
        let ms = g.find("the Shubert Theatre faces Theatre Row, not the hall");
        let got: Vec<(&str, EntityType)> =
            ms.iter().map(|m| (m.text.as_str(), m.entity_type)).collect();
        assert_eq!(
            got,
            vec![("Shubert Theatre", EntityType::Facility), ("Theatre Row", EntityType::GeoEntity)]
        );
    }

    #[test]
    fn empty_phrase_ignored() {
        let mut g = Gazetteer::new();
        g.add("...", EntityType::Movie, 1.0);
        assert!(g.is_empty());
    }
}
