//! Text normalisation: case folding, stopwords, whitespace cleanup.

/// English stopwords relevant to web-text matching. Kept deliberately small:
/// aggressive stopword removal hurts title matching ("The Walking Dead").
pub const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has", "he", "in", "is",
    "it", "its", "of", "on", "or", "that", "the", "this", "to", "was", "were", "will", "with",
];

/// True when the (already lowercased) token is a stopword.
pub fn is_stopword(token: &str) -> bool {
    STOPWORDS.binary_search(&token).is_ok()
}

/// Collapse whitespace runs to single spaces and drop leading and trailing
/// whitespace. Case is kept: [`canonical_name`] lowercases after.
pub fn clean_whitespace(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last_space = true;
    for c in text.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.push(c);
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Canonical form of an entity name for matching: lowercase, collapsed
/// whitespace, stripped of outer punctuation and a leading article.
pub fn canonical_name(name: &str) -> String {
    let cleaned = clean_whitespace(name);
    let trimmed = cleaned.trim_matches(|c: char| !c.is_alphanumeric());
    let lower = trimmed.to_lowercase();
    for article in ["the ", "a ", "an "] {
        if let Some(rest) = lower.strip_prefix(article) {
            if !rest.is_empty() {
                return rest.to_owned();
            }
        }
    }
    lower
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopword_list_is_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS, "STOPWORDS must stay sorted");
    }

    #[test]
    fn stopword_membership() {
        assert!(is_stopword("the"));
        assert!(is_stopword("with"));
        assert!(!is_stopword("matilda"));
        assert!(!is_stopword("The"), "caller must lowercase first");
    }

    #[test]
    fn whitespace_collapse() {
        assert_eq!(clean_whitespace("  a\t\tb \n c  "), "a b c");
        assert_eq!(clean_whitespace(""), "");
        assert_eq!(clean_whitespace("x"), "x");
    }

    #[test]
    fn canonical_names() {
        assert_eq!(canonical_name("The Walking Dead"), "walking dead");
        assert_eq!(canonical_name("\"Matilda\","), "matilda");
        assert_eq!(canonical_name("  THE  WOLVERINE "), "wolverine");
        assert_eq!(canonical_name("The"), "the", "bare article stays");
        assert_eq!(canonical_name("A Chorus Line"), "chorus line");
    }
}
