//! TF-IDF weighted cosine similarity between token bags.
//!
//! Used by the content-based schema matcher: each attribute's sampled values
//! form a token bag; IDF weights are learned over the corpus of attributes so
//! that ubiquitous tokens ("the", "st", "new") stop dominating scores.

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

/// Cosine similarity of two TF-IDF vectors sorted by key with no repeats
/// (keyed by token, or by anything that orders entries as their tokens
/// do), clamped to `[0, 1]`: the dot product of the entries both share,
/// merge-joined and summed in key order so the score repeats bit for bit.
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

    /// The TF-IDF vector of `text`, keyed by token, with every token's
    /// document frequency looked up in `docs`.
    fn vector(docs: &[&str], text: &str) -> Vec<(String, f64)> {
        let docs: Vec<Vec<String>> = docs.iter().map(|d| tokenize(d)).collect();
        let mut tokens = tokenize(text);
        tokens.sort_unstable();
        let mut entries: Vec<(String, f64)> = tokens
            .chunk_by(|x, y| x == y)
            .map(|run| (run[0].clone(), damp(run.len())))
            .collect();
        normalize_tfidf(&mut entries, |tok| {
            idf(docs.len(), docs.iter().filter(|d| d.contains(tok)).count())
        });
        entries
    }

    fn similarity(docs: &[&str], a: &str, b: &str) -> f64 {
        cosine(&vector(docs, a), &vector(docs, b))
    }

    #[test]
    fn identical_texts_score_one() {
        let docs = ["the shubert theatre", "broadway shows"];
        let s = similarity(&docs, "Matilda at the Shubert", "Matilda at the Shubert");
        assert!((s - 1.0).abs() < 1e-9);
        let norm: f64 = vector(&docs, "Matilda at the the Shubert").iter().map(|(_, w)| w * w).sum();
        assert!((norm - 1.0).abs() < 1e-12, "normalised to unit length");
    }

    #[test]
    fn disjoint_texts_score_zero() {
        assert_eq!(similarity(&[], "alpha beta", "gamma delta"), 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(similarity(&[], "", ""), 0.0);
        assert_eq!(similarity(&[], "x", ""), 0.0);
        let mut none: Vec<(u32, f64)> = Vec::new();
        normalize_tfidf(&mut none, |_| 1.0);
        assert!(none.is_empty());
    }

    #[test]
    fn idf_downweights_common_tokens() {
        // "theatre" appears in every doc; "matilda" in one.
        let docs = ["shubert theatre", "ambassador theatre", "gershwin theatre", "matilda theatre"];
        assert!(idf(4, 4) < idf(4, 1));
        // Sharing only the common token scores below sharing the rare one.
        let common_only = similarity(&docs, "shubert theatre", "gershwin theatre");
        let rare_shared = similarity(&docs, "matilda musical", "matilda show");
        assert!(rare_shared > common_only, "{rare_shared} vs {common_only}");
        assert!(damp(1) == 1.0 && damp(4) > damp(2), "repeats are damped, not ignored");
    }

    #[test]
    fn unseen_tokens_get_max_idf() {
        assert!(idf(2, 0) > idf(2, 1));
        assert!(idf(2, 1) > idf(2, 2));
        assert!(idf(2, 2) > 0.0, "always positive");
    }

    #[test]
    fn symmetry_and_bounds() {
        let docs = ["w 44th st", "b'way and 53rd"];
        let s1 = similarity(&docs, "225 W. 44th St", "W 44th Street");
        let s2 = similarity(&docs, "W 44th Street", "225 W. 44th St");
        assert_eq!(s1.to_bits(), s2.to_bits());
        assert!((0.0..=1.0).contains(&s1));
    }
}
