//! Multi-word gazetteer matching.
//!
//! A gazetteer maps known phrases to an entity type. Matching is greedy
//! longest-first over the token stream, case-insensitive, and returns byte
//! spans. The corpus generator seeds gazetteers with its name pools, so the
//! parser's dictionaries play the role of Recorded Future's curated ones.
//!
//! The phrases form a token trie: every distinct lowercase phrase token
//! gets a dense id, and a trie edge is a `(node, token id)` key. Matching
//! walks the trie once from each position and keeps the deepest node that
//! ends a phrase, so the longest phrase wins. All of it is flat maps and
//! vectors, which keeps `clone` to a handful of allocations plus one per
//! distinct token.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::mention::{EntityType, Mention};
use crate::tokenize::{tokenize, Words};

/// The trie root's node id.
const ROOT: u32 = 0;

/// A phrase dictionary for one or more entity types.
#[derive(Debug, Clone)]
pub struct Gazetteer {
    /// Lowercase phrase token -> dense token id.
    token_ids: HashMap<Box<str>, u32, FnvBuild>,
    /// `(node, token id)` -> child node.
    edges: HashMap<(u32, u32), u32, FnvBuild>,
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
            token_ids: HashMap::default(),
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
        let tokens = tokenize(phrase);
        let words = Words::new(&tokens);
        if words.is_empty() {
            return;
        }
        let mut node = ROOT;
        for i in 0..words.len() {
            let token = words.lower(i);
            let next_token = self.token_ids.len() as u32;
            let token = *self.token_ids.entry(token.into()).or_insert(next_token);
            let next_node = self.nodes.len() as u32;
            node = *self.edges.entry((node, token)).or_insert(next_node);
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

    /// Bulk-add phrases of one type.
    pub fn add_all<S: AsRef<str>>(&mut self, phrases: &[S], entity_type: EntityType, confidence: f64) {
        for p in phrases {
            self.add(p.as_ref(), entity_type, confidence);
        }
    }

    /// Find all gazetteer mentions in `text` (greedy, non-overlapping,
    /// longest-match-first at each position).
    pub fn find(&self, text: &str) -> Vec<Mention> {
        self.find_words(text, &Words::new(&tokenize(text)))
    }

    /// [`Gazetteer::find`] over word tokens the caller already has: the
    /// parser tokenises and lowercases a fragment once and shares the
    /// result with every extractor.
    pub fn find_words(&self, text: &str, words: &Words) -> Vec<Mention> {
        let tokens = words.tokens();
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < tokens.len() {
            // Walk as deep as the trie follows, remembering the deepest
            // node that ends a phrase.
            let mut node = ROOT;
            let mut best = None;
            let mut k = i;
            while let Some(&child) = self
                .token_ids
                .get(words.lower(k))
                .and_then(|token| self.edges.get(&(node, *token)))
            {
                node = child;
                k += 1;
                if let Some(hit) = self.nodes.get(node as usize).and_then(|n| n.terminal) {
                    best = Some((k, hit));
                }
            }
            match best {
                Some((k, (ty, conf))) => {
                    let (start, end) = (tokens[i].start, tokens[k - 1].end);
                    out.push(Mention::new(ty, &text[start..end], start, end, conf));
                    i = k;
                }
                None => i += 1,
            }
        }
        out
    }
}

/// FNV-1a (the hasher `datatamer-sim` uses for its token interner; this
/// crate does not depend on that one): one multiply per byte, far cheaper
/// than SipHash on short token keys. Neither map is ever iterated — ids
/// and nodes are dense and assigned in insertion order — so the hash
/// cannot reach any output. Only the gazetteer's own phrases are keys;
/// fragment text only probes, and a probe cannot lengthen a collision
/// chain.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

type FnvBuild = BuildHasherDefault<Fnv>;

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
    fn empty_phrase_ignored() {
        let mut g = Gazetteer::new();
        g.add("...", EntityType::Movie, 1.0);
        assert!(g.is_empty());
    }
}
