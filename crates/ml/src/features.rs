//! Feature extraction: sparse vectors and a bag-of-words vocabulary.

use std::collections::HashMap;

use datatamer_sim::tokens::{for_each_token, tokenize, FnvBuildHasher};

/// A sparse feature vector: sorted `(index, value)` pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec(pub Vec<(u32, f64)>);

impl SparseVec {
    /// Build from possibly-unsorted, possibly-duplicated pairs (duplicates
    /// are summed).
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_by_key(|(i, _)| *i);
        let mut out: Vec<(u32, f64)> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            match out.last_mut() {
                Some((li, lv)) if *li == i => *lv += v,
                _ => out.push((i, v)),
            }
        }
        SparseVec(out)
    }

    /// Dot product with another sparse vector.
    pub fn dot(&self, other: &SparseVec) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0;
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].0.cmp(&other.0[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.0[i].1 * other.0[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// L2 norm.
    pub fn norm(&self) -> f64 {
        self.0.iter().map(|(_, v)| v * v).sum::<f64>().sqrt()
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.0.len()
    }
}

/// Vocabulary-based bag-of-words (backs the naive Bayes text cleaner).
///
/// Term ids are dense and first-seen ordered, and the index is never
/// iterated, so its FNV hasher cannot reach any output.
///
/// A count vector is counted into a dense per-id vector and read back in
/// ascending id order, so it needs no sort. The vocabulary is small (the
/// text cleaner's is a few hundred seed words), and the result equals
/// [`SparseVec::from_pairs`] of one `(id, 1.0)` pair per known token: each
/// count is a whole number below 2^53, exact in an `f64`.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    index: HashMap<String, u32, FnvBuildHasher>,
}

impl Vocabulary {
    /// Create an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no terms have been observed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Observe a document during fitting (expands the vocabulary).
    pub fn fit_doc(&mut self, text: &str) {
        for tok in tokenize(text) {
            let next_id = self.index.len() as u32;
            self.index.entry(tok).or_insert(next_id);
        }
    }

    /// Term id, if known.
    pub fn id_of(&self, token: &str) -> Option<u32> {
        self.index.get(token).copied()
    }

    /// Count vector (unknown terms dropped). Tokens stream through
    /// [`for_each_token`] — exactly [`tokenize`]'s tokens, without a
    /// `String` per token — into the dense per-id counts.
    pub fn counts(&self, text: &str) -> SparseVec {
        let mut counts = vec![0u32; self.index.len()];
        for_each_token(text, |t| self.count(&mut counts, t));
        counted(&counts)
    }

    /// Count `token` into `counts` when it is a known term.
    fn count(&self, counts: &mut [u32], token: &str) {
        if let Some(c) = self.index.get(token).and_then(|&id| counts.get_mut(id as usize)) {
            *c += 1;
        }
    }

    /// [`Self::counts`] of a text that is already split into words: each
    /// item is one word's raw text and its lowercase form, in text order.
    /// The result equals `counts` of the text when every boundary between
    /// two words is also a [`for_each_token`] break, and the text between
    /// words holds no letter or digit. That is so for the word tokens of
    /// `datatamer_text::tokenize`: two letters or digits in a row are
    /// always in one of its tokens.
    ///
    /// A word that [`for_each_token`] yields whole is probed by its
    /// lowercase form, with no token walk: one made of ASCII letters and
    /// digits only, with no lowercase letter or digit followed by an
    /// uppercase letter (a camel-case break). Any other word (`O'Brien`,
    /// `960,998`, `showName`, `café`) is walked with [`for_each_token`].
    pub fn counts_words<'w>(&self, words: impl IntoIterator<Item = (&'w str, &'w str)>) -> SparseVec {
        let mut counts = vec![0u32; self.index.len()];
        for (raw, lower) in words {
            if is_one_ascii_token(raw) {
                self.count(&mut counts, lower);
            } else {
                for_each_token(raw, |t| self.count(&mut counts, t));
            }
        }
        counted(&counts)
    }
}

/// The count vector of dense per-id counts: each non-zero id, ascending.
fn counted(counts: &[u32]) -> SparseVec {
    SparseVec(
        (0u32..).zip(counts).filter(|&(_, &c)| c > 0).map(|(id, &c)| (id, f64::from(c))).collect(),
    )
}

/// Whether [`for_each_token`] yields `word` as one token that is its ASCII
/// lowercase: a non-empty run of ASCII letters and digits with no camel
/// break.
fn is_one_ascii_token(word: &str) -> bool {
    let mut prev_lower = false;
    for &c in word.as_bytes() {
        if !c.is_ascii_alphanumeric() || (prev_lower && c.is_ascii_uppercase()) {
            return false;
        }
        prev_lower = c.is_ascii_lowercase() || c.is_ascii_digit();
    }
    !word.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `tokenize`-based count vector `Vocabulary::counts` replaced: one
    /// `String` per token, looked up after the fact.
    fn oracle_counts(v: &Vocabulary, text: &str) -> SparseVec {
        let pairs = tokenize(text)
            .into_iter()
            .filter_map(|t| v.id_of(&t).map(|id| (id, 1.0)))
            .collect();
        SparseVec::from_pairs(pairs)
    }

    /// Pieces the count proptest glues into adversarial strings: camelCase,
    /// snake and kebab case, non-ASCII letters that change length or
    /// meaning when lowercased, digits, and punctuation.
    const PIECES: &[&str] = &[
        "show", "Show", "SHOW", "showName", "show_name", "Show-Name", "grossed", "GROSSED",
        "the", "The", "ΑΣ", "σ", ":", "Β", "İstanbul", "\u{212a}elvin", "café", "CAFÉ", "ß",
        "ǅ", "Ⅻ", "x\u{301}", "960,998", "2013", "3/4", "camelCaseWord", "XMLHttp", " ", "  ",
        "\t", ".", ",", "'", "\"", "\u{201c}", "-", "_", "🎭", "日本", "k",
    ];

    fn vocab_fixture() -> Vocabulary {
        let mut v = Vocabulary::new();
        for doc in [
            "the show grossed well",
            "show name café ας istanbul",
            "σ β ß xml http camel case word 960 998 2013 kelvin",
        ] {
            v.fit_doc(doc);
        }
        v
    }

    proptest! {
        #[test]
        fn counts_equal_the_tokenize_oracle(
            picks in prop::collection::vec(0..PIECES.len(), 0..24),
            glue in prop::collection::vec(0..3usize, 0..24),
        ) {
            let mut text = String::new();
            for (k, p) in picks.iter().enumerate() {
                text.push_str(PIECES[*p]);
                text.push_str(["", " ", ","][glue.get(k).copied().unwrap_or(0)]);
            }
            let v = vocab_fixture();
            prop_assert_eq!(v.counts(&text), oracle_counts(&v, &text), "{:?}", text);
        }

        #[test]
        fn counts_equal_the_oracle_on_arbitrary_unicode(
            code_points in prop::collection::vec((any::<bool>(), 0u32..0x11_0000), 0..40),
        ) {
            // Half ASCII (so words and camelCase boundaries form), half any
            // scalar value.
            let text: String = code_points
                .iter()
                .filter_map(|&(ascii, c)| char::from_u32(if ascii { c % 128 } else { c }))
                .collect();
            let v = vocab_fixture();
            prop_assert_eq!(v.counts(&text), oracle_counts(&v, &text), "{:?}", text);
        }
    }

    #[test]
    fn sparse_from_pairs_sorts_and_sums() {
        let v = SparseVec::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 0.5)]);
        assert_eq!(v.0, vec![(1, 2.0), (3, 1.5)]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn sparse_dot_and_norm() {
        let a = SparseVec::from_pairs(vec![(0, 1.0), (2, 2.0)]);
        let b = SparseVec::from_pairs(vec![(2, 3.0), (5, 1.0)]);
        assert_eq!(a.dot(&b), 6.0);
        assert_eq!(b.dot(&a), 6.0);
        assert!((a.norm() - 5f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.dot(&SparseVec::default()), 0.0);
    }

    #[test]
    fn one_ascii_token_words() {
        for word in ["show", "SHOW", "Show", "x", "3d", "3D", "mr", "XMLHttp"] {
            let mut tokens = Vec::new();
            for_each_token(word, |t| tokens.push(t.to_owned()));
            let whole = tokens == [word.to_ascii_lowercase()];
            assert_eq!(is_one_ascii_token(word), whole, "{word:?}: {tokens:?}");
        }
        // Camel breaks, internal marks and non-ASCII letters take the walk.
        for word in ["showName", "x1Y", "O'Brien", "960,998", "café", "ΑΣ", ""] {
            assert!(!is_one_ascii_token(word), "{word:?}");
        }
    }

    #[test]
    fn vocabulary_fit_and_counts() {
        let mut v = Vocabulary::new();
        v.fit_doc("the show grossed well");
        v.fit_doc("the show closed early");
        assert!(v.len() >= 6);
        let c = v.counts("show show unknown");
        let show_id = v.id_of("show").unwrap();
        assert_eq!(c.0, vec![(show_id, 2.0)]);
    }
}
