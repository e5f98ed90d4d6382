//! TF-IDF weighted cosine similarity between token bags.
//!
//! Used by the content-based schema matcher: each attribute's sampled values
//! form a token bag; IDF weights are learned over the corpus of attributes so
//! that ubiquitous tokens ("the", "st", "new") stop dominating scores.

use std::collections::HashMap;

/// Inverse document frequency weights learned from a corpus of documents
/// (each document = one token bag).
#[derive(Debug, Clone, Default)]
pub struct TfIdfWeights {
    idf: HashMap<String, f64>,
    num_docs: usize,
}

impl TfIdfWeights {
    /// Fit IDF weights on an iterator of documents (token slices).
    pub fn fit<'a, I, D>(docs: I) -> Self
    where
        I: IntoIterator<Item = D>,
        D: IntoIterator<Item = &'a str>,
    {
        let mut df: HashMap<String, usize> = HashMap::new();
        let mut num_docs = 0usize;
        let mut distinct: Vec<&str> = Vec::new();
        for doc in docs {
            num_docs += 1;
            distinct.clear();
            distinct.extend(doc);
            distinct.sort_unstable();
            distinct.dedup();
            for tok in &distinct {
                *df.entry((*tok).to_owned()).or_insert(0) += 1;
            }
        }
        let idf = df
            // dtlint::allow(map-iter, reason = "entry-wise map construction; no cross-entry accumulation depends on order")
            .into_iter()
            .map(|(tok, d)| (tok, idf(num_docs, d)))
            .collect();
        TfIdfWeights { idf, num_docs }
    }

    /// Number of documents the weights were fitted on.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// IDF weight for a token; unseen tokens get the maximum-rarity weight.
    pub fn idf(&self, token: &str) -> f64 {
        self.idf.get(token).copied().unwrap_or_else(|| idf(self.num_docs, 0))
    }
}

/// Smoothed IDF of a token found in `df` of `num_docs` documents, always
/// positive. An unseen token (`df == 0`) gets the maximum-rarity weight.
pub fn idf(num_docs: usize, df: usize) -> f64 {
    ((1.0 + num_docs as f64) / (1.0 + df as f64)).ln() + 1.0
}

/// Sub-linear TF damping of a term that occurs `tf` times.
pub fn damp(tf: usize) -> f64 {
    1.0 + (tf as f64).ln()
}

/// Turn `(token, damped TF)` entries, in token order, into an L2-normalised
/// TF-IDF vector in place: each damped TF is multiplied by `idf(token)`.
///
/// Every TF-IDF vector is built here. The norm is a float accumulation,
/// and float addition is not associative: accumulating in token order
/// makes the vector a function of the token multiset alone, whoever keys
/// the entries.
pub fn normalize_tfidf<K>(entries: &mut [(K, f64)], mut idf: impl FnMut(&K) -> f64) {
    let mut norm = 0.0;
    for (tok, f) in entries.iter_mut() {
        *f *= idf(tok);
        norm += *f * *f;
    }
    let norm = norm.sqrt();
    if norm > 0.0 {
        for (_, f) in entries.iter_mut() {
            *f /= norm;
        }
    }
}

/// A reusable TF-IDF vectoriser + cosine scorer.
#[derive(Debug, Clone, Default)]
pub struct CosineModel {
    weights: TfIdfWeights,
}

impl CosineModel {
    /// Build from pre-fitted weights.
    pub fn new(weights: TfIdfWeights) -> Self {
        CosineModel { weights }
    }

    /// TF-IDF vector of a token slice (L2-normalised, see [`normalize_tfidf`]), as
    /// `(token, weight)` entries sorted by token with no repeats.
    pub fn vectorize(&self, tokens: &[String]) -> Vec<(String, f64)> {
        let mut sorted: Vec<&String> = tokens.iter().collect();
        sorted.sort_unstable();
        let mut entries: Vec<(String, f64)> = sorted
            .chunk_by(|x, y| x == y)
            .filter_map(|run| Some(((*run.first()?).clone(), damp(run.len()))))
            .collect();
        normalize_tfidf(&mut entries, |tok| self.weights.idf(tok));
        entries
    }
}

/// Cosine similarity of two TF-IDF vectors sorted by key with no repeats
/// (a [`CosineModel::vectorize`] output, or any keying that orders entries
/// as their tokens do), clamped to `[0, 1]`: the dot product of the entries
/// both share, merge-joined and summed in key order so the score repeats
/// bit for bit.
pub fn cosine<K: Ord>(a: &[(K, f64)], b: &[(K, f64)]) -> f64 {
    let (mut i, mut j) = (0, 0);
    let shared = std::iter::from_fn(|| loop {
        let ((ka, va), (kb, vb)) = (a.get(i)?, b.get(j)?);
        match ka.cmp(kb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
                return Some(va * vb);
            }
        }
    });
    shared.sum::<f64>().clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::tokenize;

    /// A model whose IDF weights are fitted over the tokens of `texts`.
    fn fitted(texts: &[&str]) -> CosineModel {
        let docs: Vec<Vec<String>> = texts.iter().map(|t| tokenize(t)).collect();
        CosineModel::new(TfIdfWeights::fit(docs.iter().map(|d| d.iter().map(String::as_str))))
    }

    /// Cosine similarity of two raw texts under `m`'s fitted weights.
    fn similarity(m: &CosineModel, a: &str, b: &str) -> f64 {
        cosine(&m.vectorize(&tokenize(a)), &m.vectorize(&tokenize(b)))
    }

    #[test]
    fn identical_texts_score_one() {
        let m = fitted(&["the shubert theatre", "broadway shows"]);
        assert!((similarity(&m, "Matilda at the Shubert", "Matilda at the Shubert") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_texts_score_zero() {
        let m = CosineModel::default();
        assert_eq!(similarity(&m, "alpha beta", "gamma delta"), 0.0);
    }

    #[test]
    fn empty_inputs() {
        let m = CosineModel::default();
        assert_eq!(similarity(&m, "", ""), 0.0);
        assert_eq!(similarity(&m, "x", ""), 0.0);
    }

    #[test]
    fn idf_downweights_common_tokens() {
        // "theatre" appears in every doc; "matilda" in one.
        let docs = vec![
            "shubert theatre",
            "ambassador theatre",
            "gershwin theatre",
            "matilda theatre",
        ];
        let m = fitted(&docs);
        // Sharing only the common token scores below sharing the rare one.
        let common_only = similarity(&m, "shubert theatre", "gershwin theatre");
        let rare_shared = similarity(&m, "matilda musical", "matilda show");
        assert!(rare_shared > common_only, "{rare_shared} vs {common_only}");
    }

    #[test]
    fn unseen_tokens_get_max_idf() {
        let m = fitted(&["a b", "a c"]);
        let w = m.weights.idf("zzz");
        assert!(w >= m.weights.idf("a"));
        assert_eq!(m.weights.num_docs(), 2);
    }

    #[test]
    fn symmetry_and_bounds() {
        let m = fitted(&["w 44th st", "b'way and 53rd"]);
        let s1 = similarity(&m, "225 W. 44th St", "W 44th Street");
        let s2 = similarity(&m, "W 44th Street", "225 W. 44th St");
        assert!((s1 - s2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&s1));
    }
}
