//! TF-IDF weighted cosine similarity between token bags.
//!
//! Used by the content-based schema matcher: each attribute's sampled values
//! form a token bag; IDF weights are learned over the corpus of attributes so
//! that ubiquitous tokens ("the", "st", "new") stop dominating scores.

use std::collections::HashMap;

use crate::tokens::tokenize;

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
        for doc in docs {
            num_docs += 1;
            let mut seen: Vec<&str> = Vec::new();
            for tok in doc {
                if !seen.contains(&tok) {
                    seen.push(tok);
                    *df.entry(tok.to_owned()).or_insert(0) += 1;
                }
            }
        }
        let idf = df
            // dtlint::allow(map-iter, reason = "entry-wise map construction; no cross-entry accumulation depends on order")
            .into_iter()
            .map(|(tok, d)| {
                // Smoothed IDF, always positive.
                let w = ((1.0 + num_docs as f64) / (1.0 + d as f64)).ln() + 1.0;
                (tok, w)
            })
            .collect();
        TfIdfWeights { idf, num_docs }
    }

    /// Number of documents the weights were fitted on.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// IDF weight for a token; unseen tokens get the maximum-rarity weight.
    pub fn idf(&self, token: &str) -> f64 {
        match self.idf.get(token) {
            Some(w) => *w,
            None => ((1.0 + self.num_docs as f64) / 1.0).ln() + 1.0,
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

    /// Fit IDF weights over raw text documents.
    pub fn fit_texts<S: AsRef<str>>(texts: &[S]) -> Self {
        let tokenized: Vec<Vec<String>> =
            texts.iter().map(|t| tokenize(t.as_ref())).collect();
        let weights = TfIdfWeights::fit(
            tokenized.iter().map(|toks| toks.iter().map(String::as_str)),
        );
        CosineModel { weights }
    }

    /// TF-IDF vector of a token slice (L2-normalised), as `(token, weight)`
    /// entries sorted by token with no repeats.
    ///
    /// The norm is a float accumulation, and float addition is not
    /// associative: damping and accumulating in token order makes the
    /// vector a function of the token multiset alone.
    pub fn vectorize(&self, tokens: &[String]) -> Vec<(String, f64)> {
        let mut sorted: Vec<&String> = tokens.iter().collect();
        sorted.sort_unstable();
        let mut entries: Vec<(String, f64)> = sorted
            .chunk_by(|x, y| x == y)
            .map(|run| (run[0].clone(), run.len() as f64))
            .collect();
        let mut norm = 0.0;
        for (tok, f) in entries.iter_mut() {
            // Sub-linear TF damping.
            *f = (1.0 + f.ln()) * self.weights.idf(tok);
            norm += *f * *f;
        }
        let norm = norm.sqrt();
        if norm > 0.0 {
            for (_, f) in entries.iter_mut() {
                *f /= norm;
            }
        }
        entries
    }

    /// Cosine similarity of two raw texts under the fitted weights.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        cosine(&self.vectorize(&tokenize(a)), &self.vectorize(&tokenize(b)))
    }
}

/// Cosine similarity of two [`CosineModel::vectorize`] outputs, clamped to
/// `[0, 1]`: the dot product of the entries both share, merge-joined and
/// summed in token order so the score repeats bit for bit.
pub fn cosine(a: &[(String, f64)], b: &[(String, f64)]) -> f64 {
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

    #[test]
    fn identical_texts_score_one() {
        let m = CosineModel::fit_texts(&["the shubert theatre", "broadway shows"]);
        assert!((m.similarity("Matilda at the Shubert", "Matilda at the Shubert") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_texts_score_zero() {
        let m = CosineModel::default();
        assert_eq!(m.similarity("alpha beta", "gamma delta"), 0.0);
    }

    #[test]
    fn empty_inputs() {
        let m = CosineModel::default();
        assert_eq!(m.similarity("", ""), 0.0);
        assert_eq!(m.similarity("x", ""), 0.0);
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
        let m = CosineModel::fit_texts(&docs);
        // Sharing only the common token scores below sharing the rare one.
        let common_only = m.similarity("shubert theatre", "gershwin theatre");
        let rare_shared = m.similarity("matilda musical", "matilda show");
        assert!(rare_shared > common_only, "{rare_shared} vs {common_only}");
    }

    #[test]
    fn unseen_tokens_get_max_idf() {
        let m = CosineModel::fit_texts(&["a b", "a c"]);
        let w = m.weights.idf("zzz");
        assert!(w >= m.weights.idf("a"));
        assert_eq!(m.weights.num_docs(), 2);
    }

    #[test]
    fn symmetry_and_bounds() {
        let m = CosineModel::fit_texts(&["w 44th st", "b'way and 53rd"]);
        let s1 = m.similarity("225 W. 44th St", "W 44th Street");
        let s2 = m.similarity("W 44th Street", "225 W. 44th St");
        assert!((s1 - s2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&s1));
    }
}
