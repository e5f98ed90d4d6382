//! Lightweight tokenisation shared by the similarity measures.
//!
//! This is deliberately simpler than the full linguistic tokenizer in
//! `datatamer-text`: similarity tokenisation must be cheap (it runs on every
//! candidate pair) and stable (scores must not drift with parser changes).

/// Lowercase a token and strip non-alphanumeric edges.
///
/// Returns `None` when nothing alphanumeric remains.
pub fn normalize_token(raw: &str) -> Option<String> {
    let trimmed = raw.trim_matches(|c: char| !c.is_alphanumeric());
    if trimmed.is_empty() {
        return None;
    }
    Some(trimmed.to_lowercase())
}

/// Visit every normalised word token of `text` in order, without
/// materialising a vector.
///
/// This is the streaming core of [`tokenize`]: consumers that only need to
/// look at each token once (bucket insertion, interning, counting) call it
/// directly and skip the per-call `Vec` — the hot-loop shape blocking and
/// prepared pair scoring rely on. Token boundaries and normalisation are
/// exactly [`tokenize`]'s. Each token is lent to `f` from one reused
/// buffer: an ASCII token is lowercased in place (what `to_lowercase`
/// does to ASCII), so only a non-ASCII token allocates.
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut cur = String::new();
    let mut flush = |cur: &mut String| {
        if cur.is_ascii() {
            cur.make_ascii_lowercase();
            f(cur);
        } else {
            f(&cur.to_lowercase());
        }
        cur.clear();
    };
    let mut prev_lower = false;
    for c in text.chars() {
        let is_word = c.is_alphanumeric();
        let camel_break = c.is_uppercase() && prev_lower;
        if (!is_word || camel_break) && !cur.is_empty() {
            flush(&mut cur);
        }
        if is_word {
            cur.push(c);
        }
        prev_lower = c.is_lowercase() || c.is_ascii_digit();
    }
    if !cur.is_empty() {
        flush(&mut cur);
    }
}

/// Split into normalised word tokens on whitespace and punctuation
/// boundaries (underscores, hyphens, dots and camelCase also split, which
/// matters for attribute names like `show_name` / `showName` / `Show-Name`).
///
/// The loop is deliberately duplicated from [`for_each_token`] rather than
/// delegated to it: the direct-push form optimises measurably better, and
/// this function sits on the similarity hot paths.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut prev_lower = false;
    for c in text.chars() {
        let is_word = c.is_alphanumeric();
        let camel_break = c.is_uppercase() && prev_lower;
        if (!is_word || camel_break)
            && !cur.is_empty() {
                out.push(std::mem::take(&mut cur).to_lowercase());
            }
        if is_word {
            cur.push(c);
        }
        prev_lower = c.is_lowercase() || c.is_ascii_digit();
    }
    if !cur.is_empty() {
        out.push(cur.to_lowercase());
    }
    out
}

/// Append the tokens of `text` to `out`, reusing its capacity — the
/// buffer-reuse form of [`tokenize`] for callers tokenising many values in
/// a loop (`out.clear()` between values keeps the allocation).
pub fn tokenize_into(text: &str, out: &mut Vec<String>) {
    for_each_token(text, |tok| out.push(tok.to_owned()));
}

/// FNV-1a, the interner's hash: tiny state, one multiply per byte — far
/// cheaper than SipHash on short token strings. Non-cryptographic is safe
/// here because the interner never iterates its map (ids are dense and
/// first-seen ordered), so neither iteration order nor collision shape can
/// leak into any output.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        // The canonical 64-bit FNV-1a offset basis.
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
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

/// `BuildHasher` for [`FnvHasher`]-keyed maps.
pub type FnvBuildHasher = std::hash::BuildHasherDefault<FnvHasher>;

/// Interns token strings to dense `u32` ids (first-seen order).
///
/// One global interner built during a prepare pass turns every later token
/// comparison into an integer comparison: two tokens are equal iff their
/// ids are equal, so set similarities ([`crate::jaccard::jaccard_sorted`])
/// and bucket keys never touch string bytes again. Ids are assigned
/// `0, 1, 2, …` in first-intern order, which makes them directly usable as
/// vector indexes (per-id weights, per-id buckets) and keeps any structure
/// built from them deterministic.
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    ids: std::collections::HashMap<String, u32, FnvBuildHasher>,
}

impl TokenInterner {
    /// An empty interner.
    pub fn new() -> Self {
        TokenInterner::default()
    }

    /// Intern a borrowed token, allocating only on first sight.
    pub fn intern_str(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(token.to_owned(), id);
        id
    }

    /// Id of an already-interned token.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_snake_kebab_dot_camel() {
        assert_eq!(tokenize("show_name"), vec!["show", "name"]);
        assert_eq!(tokenize("Show-Name"), vec!["show", "name"]);
        assert_eq!(tokenize("show.name"), vec!["show", "name"]);
        assert_eq!(tokenize("showName"), vec!["show", "name"]);
        assert_eq!(tokenize("CHEAPEST_PRICE"), vec!["cheapest", "price"]);
    }

    #[test]
    fn keeps_digits_with_letters() {
        assert_eq!(tokenize("44th St"), vec!["44th", "st"]);
        assert_eq!(tokenize("w. 44th"), vec!["w", "44th"]);
    }

    #[test]
    fn empty_and_punct_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- ...").is_empty());
    }

    #[test]
    fn streaming_and_buffered_forms_match_tokenize() {
        for text in [
            "show_name",
            "La La Land",
            "44th St",
            "",
            "--- ...",
            "ΣΊΣΥΦΟΣ camelCase",
            "İstanbul ÉCOLE Straße",
        ] {
            let expected = tokenize(text);
            let mut streamed = Vec::new();
            for_each_token(text, |t| streamed.push(t.to_owned()));
            assert_eq!(streamed, expected, "{text:?}");
            let mut buffered = vec!["seed".to_owned()];
            tokenize_into(text, &mut buffered);
            assert_eq!(buffered[0], "seed", "tokenize_into must append, not clear");
            assert_eq!(&buffered[1..], expected.as_slice(), "{text:?}");
        }
    }

    #[test]
    fn interner_assigns_dense_first_seen_ids() {
        let mut interner = TokenInterner::new();
        assert!(interner.is_empty());
        let a = interner.intern_str("show");
        let b = interner.intern_str("name");
        assert_eq!((a, b), (0, 1));
        assert_eq!(interner.intern_str("show"), 0, "repeat hits the same id");
        assert_eq!(interner.intern_str("name"), 1);
        assert_eq!(interner.get("name"), Some(1));
        assert_eq!(interner.get("absent"), None);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn normalize_strips_edges() {
        assert_eq!(normalize_token("\"Matilda\","), Some("matilda".into()));
        assert_eq!(normalize_token("..."), None);
        assert_eq!(normalize_token("$27"), Some("27".into()));
    }
}
