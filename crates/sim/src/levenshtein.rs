//! Levenshtein edit distance.

/// Classic Levenshtein distance (insert / delete / substitute, unit cost),
/// computed over Unicode scalar values with a two-row rolling buffer.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Keep the inner loop over the shorter string for cache friendliness.
    let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur: Vec<usize> = Vec::with_capacity(short.len() + 1);
    for (i, lc) in long.iter().enumerate() {
        cur.clear();
        cur.push(i + 1);
        for (j, sc) in short.iter().enumerate() {
            let sub = prev[j] + usize::from(lc != sc);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Normalised Levenshtein similarity: `1 - distance / max_len`, and `1.0`
/// when both strings are empty.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_cases() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn unicode_counts_scalars() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("€27", "$27"), 1);
    }

    #[test]
    fn symmetric() {
        assert_eq!(levenshtein("theater", "theatre"), levenshtein("theatre", "theater"));
    }

    #[test]
    fn similarity_normalises() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("theater", "theatre");
        assert!(s > 0.7 && s < 1.0);
    }
}
