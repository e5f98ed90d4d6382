//! Character n-gram decomposition and similarity.

use std::collections::HashSet;

/// Character n-grams of a string, padded with `#` sentinels so that prefix
/// and suffix characters carry full weight (standard q-gram padding).
/// `None` when `n` is 0: an n-gram has at least one character.
pub fn char_ngrams(s: &str, n: usize) -> Option<Vec<String>> {
    let pad = n.checked_sub(1)?;
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return Some(Vec::new());
    }
    let mut padded = Vec::with_capacity(chars.len() + 2 * pad);
    padded.extend(std::iter::repeat_n('#', pad));
    padded.extend(chars);
    padded.extend(std::iter::repeat_n('#', pad));
    Some(padded.windows(n).map(|w| w.iter().collect::<String>()).collect())
}

/// Jaccard similarity of the n-gram sets of two strings. At `n = 0` both
/// sets are empty, so the similarity is `1.0`, as [`crate::jaccard::jaccard`]
/// scores two empty sets.
pub fn ngram_similarity(a: &str, b: &str, n: usize) -> f64 {
    let grams = |s| -> HashSet<String> {
        char_ngrams(s, n).unwrap_or_default().into_iter().collect()
    };
    crate::jaccard::jaccard(&grams(a), &grams(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigrams_of_short_string() {
        assert_eq!(char_ngrams("ab", 2).unwrap(), vec!["#a", "ab", "b#"]);
        assert_eq!(char_ngrams("a", 2).unwrap(), vec!["#a", "a#"]);
        assert_eq!(char_ngrams("", 2).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn unigrams_have_no_padding() {
        assert_eq!(char_ngrams("abc", 1).unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn trigram_count_formula() {
        // With padding of n-1 on both sides: len + n - 1 grams.
        let g = char_ngrams("matilda", 3).unwrap();
        assert_eq!(g.len(), 7 + 2);
    }

    #[test]
    fn similarity_behaviour() {
        assert_eq!(ngram_similarity("abc", "abc", 2), 1.0);
        assert_eq!(ngram_similarity("abc", "xyz", 2), 0.0);
        assert_eq!(ngram_similarity("abc", "xyz", 0), 1.0, "no 0-grams: two empty sets");
        let close = ngram_similarity("theater", "theatre", 2);
        let far = ngram_similarity("theater", "matinee", 2);
        assert!(close > far);
        assert!(close > 0.4);
    }

    #[test]
    fn unicode_safe() {
        let g = char_ngrams("café", 2).unwrap();
        assert!(g.contains(&"fé".to_string()));
        assert_eq!(ngram_similarity("café", "café", 2), 1.0);
    }

    // A zero size yields `None`; `expect` turns it into the panic the test
    // expects.
    #[test]
    #[should_panic(expected = "n-gram size")]
    fn zero_n_panics() {
        char_ngrams("abc", 0).expect("n-gram size must be at least 1");
    }
}
