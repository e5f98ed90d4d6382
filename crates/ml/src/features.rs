//! Feature extraction: bag-of-words, hashing vectoriser, TF-IDF.

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

    /// Scale in place.
    pub fn scale(&mut self, k: f64) {
        for (_, v) in &mut self.0 {
            *v *= k;
        }
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.0.len()
    }
}

/// Feature-hashing vectoriser: token → bucket in `[0, dim)` by FNV-1a.
/// Stateless and training-free, so train/test featurisation can never skew.
#[derive(Debug, Clone, Copy)]
pub struct HashingVectorizer {
    dim: u32,
}

impl HashingVectorizer {
    /// Create with the given dimensionality (buckets).
    pub fn new(dim: u32) -> Self {
        assert!(dim > 0, "dimension must be positive");
        HashingVectorizer { dim }
    }

    /// Dimensionality.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    fn bucket(&self, token: &str) -> u32 {
        let mut h = 0xcbf29ce484222325u64;
        for b in token.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % u64::from(self.dim)) as u32
    }

    /// Term-count vector of a text.
    pub fn transform(&self, text: &str) -> SparseVec {
        let pairs = tokenize(text)
            .into_iter()
            .map(|t| (self.bucket(&t), 1.0))
            .collect();
        SparseVec::from_pairs(pairs)
    }
}

/// Vocabulary-based bag-of-words with document-frequency tracking (backs
/// both naive Bayes and TF-IDF weighting).
///
/// Term ids are dense and first-seen ordered, and the index is never
/// iterated, so its FNV hasher cannot reach any output.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    index: HashMap<String, u32, FnvBuildHasher>,
    doc_freq: Vec<u32>,
    num_docs: u32,
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

    /// Number of documents observed.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Observe a document during fitting (expands the vocabulary).
    pub fn fit_doc(&mut self, text: &str) {
        self.num_docs += 1;
        let mut seen: Vec<u32> = Vec::new();
        for tok in tokenize(text) {
            let next_id = self.index.len() as u32;
            let id = *self.index.entry(tok).or_insert(next_id);
            if id as usize >= self.doc_freq.len() {
                self.doc_freq.push(0);
            }
            if !seen.contains(&id) {
                seen.push(id);
                self.doc_freq[id as usize] += 1;
            }
        }
    }

    /// Term id, if known.
    pub fn id_of(&self, token: &str) -> Option<u32> {
        self.index.get(token).copied()
    }

    /// Count vector (unknown terms dropped). Tokens stream through
    /// [`for_each_token`] — exactly [`tokenize`]'s tokens, without a
    /// `String` per token — so this is the junk filter's allocation-light
    /// path: one `Vec` of the known terms' ids.
    pub fn counts(&self, text: &str) -> SparseVec {
        let mut pairs = Vec::new();
        for_each_token(text, |t| {
            if let Some(id) = self.index.get(t) {
                pairs.push((*id, 1.0));
            }
        });
        SparseVec::from_pairs(pairs)
    }

    /// TF-IDF vector (sub-linear TF, smoothed IDF, L2-normalised).
    pub fn tfidf(&self, text: &str) -> SparseVec {
        let mut v = self.counts(text);
        for (id, val) in &mut v.0 {
            let df = self.doc_freq[*id as usize];
            let idf = ((1.0 + f64::from(self.num_docs)) / (1.0 + f64::from(df))).ln() + 1.0;
            *val = (1.0 + val.ln()) * idf;
        }
        let n = v.norm();
        if n > 0.0 {
            v.scale(1.0 / n);
        }
        v
    }
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
    fn hashing_is_deterministic_and_bounded() {
        let h = HashingVectorizer::new(64);
        let a = h.transform("matilda at the shubert");
        let b = h.transform("matilda at the shubert");
        assert_eq!(a, b);
        assert!(a.0.iter().all(|(i, _)| *i < 64));
        assert!(a.nnz() >= 3);
    }

    #[test]
    fn hashing_identical_tokens_accumulate() {
        let h = HashingVectorizer::new(1024);
        let v = h.transform("show show show");
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.0[0].1, 3.0);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn zero_dim_panics() {
        HashingVectorizer::new(0);
    }

    #[test]
    fn vocabulary_fit_and_counts() {
        let mut v = Vocabulary::new();
        v.fit_doc("the show grossed well");
        v.fit_doc("the show closed early");
        assert_eq!(v.num_docs(), 2);
        assert!(v.len() >= 6);
        let c = v.counts("show show unknown");
        let show_id = v.id_of("show").unwrap();
        assert_eq!(c.0, vec![(show_id, 2.0)]);
    }

    #[test]
    fn tfidf_downweights_ubiquitous_terms() {
        let mut v = Vocabulary::new();
        for t in ["the shubert theatre", "the gershwin theatre", "the matilda show"] {
            v.fit_doc(t);
        }
        let vec = v.tfidf("the matilda");
        let the_w = vec.0.iter().find(|(i, _)| *i == v.id_of("the").unwrap()).unwrap().1;
        let mat_w = vec.0.iter().find(|(i, _)| *i == v.id_of("matilda").unwrap()).unwrap().1;
        assert!(mat_w > the_w, "rare term must outweigh common: {mat_w} vs {the_w}");
        assert!((vec.norm() - 1.0).abs() < 1e-9, "tfidf is L2-normalised");
    }
}
