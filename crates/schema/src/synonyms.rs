//! Domain synonym dictionary for attribute-name matching.
//!
//! Attribute names across scraped sources rarely share spellings ("price" /
//! "cost" / "fare"); a synonym dictionary lets the name matcher credit these
//! as matches. Sets are symmetric and transitive within a group.

use std::borrow::Cow;
use std::collections::HashMap;

use datatamer_sim as sim;

/// A token-level synonym dictionary (union-find-free: small fixed groups).
#[derive(Debug, Clone, Default)]
pub struct SynonymDict {
    /// token → group id. Only probed, never iterated, so its FNV hasher
    /// cannot reach any output.
    groups: HashMap<String, u32, sim::FnvBuildHasher>,
    next_group: u32,
}

impl SynonymDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in dictionary for the Broadway / web-text domain.
    pub fn broadway() -> Self {
        let mut d = SynonymDict::new();
        d.add_group(&["show", "title", "production", "name", "movie"]);
        d.add_group(&["theater", "theatre", "venue", "location", "house", "hall"]);
        d.add_group(&["performance", "schedule", "showtimes", "times", "curtain"]);
        d.add_group(&["price", "cost", "fare", "ticket", "fee"]);
        d.add_group(&["cheapest", "lowest", "minimum", "from"]);
        d.add_group(&["first", "opening", "premiere", "debut"]);
        d.add_group(&["discount", "deal", "savings", "promo"]);
        d.add_group(&["city", "market", "town"]);
        d.add_group(&["runtime", "duration", "length"]);
        d.add_group(&["rating", "stars", "score"]);
        d.add_group(&["capacity", "seats", "seating"]);
        d.add_group(&["phone", "telephone"]);
        d.add_group(&["website", "url", "link", "web"]);
        d.add_group(&["date", "day"]);
        d.add_group(&["feed", "fragment", "text", "excerpt"]);
        d
    }

    /// Register a synonym group (lowercased).
    pub fn add_group<S: AsRef<str>>(&mut self, tokens: &[S]) {
        // If any token already belongs to a group, merge into that group.
        let existing = tokens
            .iter()
            .find_map(|t| self.groups.get(&t.as_ref().to_lowercase()).copied());
        let gid = existing.unwrap_or_else(|| {
            let g = self.next_group;
            self.next_group += 1;
            g
        });
        for t in tokens {
            self.groups.insert(t.as_ref().to_lowercase(), gid);
        }
    }

    /// True when two tokens are the same or registered synonyms, in any
    /// case. A token already in lowercase is looked up as it is.
    pub fn are_synonyms(&self, a: &str, b: &str) -> bool {
        let (a, b) = (lowercase(a), lowercase(b));
        if a == b {
            return true;
        }
        match (self.groups.get(a.as_ref()), self.groups.get(b.as_ref())) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Token-set similarity with synonym credit: greedy best-match of each
    /// token of `a` against tokens of `b` (1.0 exact/synonym), normalised
    /// with a containment bias — `"cost"` fully contained in
    /// `"cheapest_price"`'s synonym set should score high even though the
    /// token counts differ (attribute names are routinely abbreviated).
    /// Lowercase tokens, as `sim::tokenize` returns them, are compared
    /// without copying.
    pub fn token_similarity(&self, a_tokens: &[String], b_tokens: &[String]) -> f64 {
        if a_tokens.is_empty() && b_tokens.is_empty() {
            return 1.0;
        }
        if a_tokens.is_empty() || b_tokens.is_empty() {
            return 0.0;
        }
        let mut used = Used::for_len(b_tokens.len());
        let mut matched = 0usize;
        for ta in a_tokens {
            if let Some(pos) = b_tokens
                .iter()
                .enumerate()
                .position(|(j, tb)| !used.get(j) && self.are_synonyms(ta, tb))
            {
                used.set(pos);
                matched += 1;
            }
        }
        let small = a_tokens.len().min(b_tokens.len()) as f64;
        let large = a_tokens.len().max(b_tokens.len()) as f64;
        0.75 * (matched as f64 / small) + 0.25 * (matched as f64 / large)
    }
}

/// The tokens of `b` that [`SynonymDict::token_similarity`] has matched:
/// a bitmask for up to 64 tokens (every attribute name in practice), so a
/// call allocates nothing, and a flag per token beyond that.
enum Used {
    Bits(u64),
    Flags(Vec<bool>),
}

impl Used {
    fn for_len(len: usize) -> Self {
        if len <= 64 {
            Used::Bits(0)
        } else {
            Used::Flags(vec![false; len])
        }
    }

    fn get(&self, j: usize) -> bool {
        match self {
            Used::Bits(bits) => j < 64 && bits & (1 << j) != 0,
            Used::Flags(flags) => flags.get(j).copied().unwrap_or(false),
        }
    }

    fn set(&mut self, j: usize) {
        match self {
            Used::Bits(bits) if j < 64 => *bits |= 1 << j,
            Used::Bits(_) => {}
            Used::Flags(flags) => {
                if let Some(flag) = flags.get_mut(j) {
                    *flag = true;
                }
            }
        }
    }
}

/// `t.to_lowercase()`, borrowing `t` when lowercasing leaves every
/// character as it is.
fn lowercase(t: &str) -> Cow<'_, str> {
    let unchanged = |c: char| {
        let mut lower = c.to_lowercase();
        lower.next() == Some(c) && lower.next().is_none()
    };
    if t.chars().all(unchanged) {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(t.to_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_groups_work() {
        let d = SynonymDict::broadway();
        assert!(d.are_synonyms("price", "cost"));
        assert!(d.are_synonyms("theater", "venue"));
        assert!(d.are_synonyms("Theatre", "THEATER"), "case-insensitive");
        assert!(!d.are_synonyms("price", "theater"));
        assert!(d.are_synonyms("xyzzy", "xyzzy"), "identity without registration");
        assert!(!d.are_synonyms("xyzzy", "plugh"));
    }

    #[test]
    fn lowercase_borrows_only_what_lowercasing_leaves_alone() {
        for t in ["price", "", "a1_b", "σς", "ǆ", "ı"] {
            assert!(matches!(lowercase(t), Cow::Borrowed(_)), "{t}");
        }
        for t in ["Price", "PRICE", "ΟΔΟΣ", "ǅ", "İ"] {
            assert_eq!(lowercase(t), t.to_lowercase(), "{t}");
            assert!(matches!(lowercase(t), Cow::Owned(_)), "{t}");
        }
    }

    #[test]
    fn add_group_merges_overlapping() {
        let mut d = SynonymDict::new();
        d.add_group(&["a", "b"]);
        d.add_group(&["b", "c"]);
        assert!(d.are_synonyms("a", "c"), "transitive through shared token");
    }

    #[test]
    fn token_similarity_counts_synonym_matches() {
        let d = SynonymDict::broadway();
        let toks = |s: &str| -> Vec<String> {
            s.split_whitespace().map(str::to_owned).collect()
        };
        assert_eq!(d.token_similarity(&toks("ticket price"), &toks("price ticket")), 1.0);
        assert_eq!(d.token_similarity(&toks("cheapest price"), &toks("lowest cost")), 1.0);
        // "show" matches "title" (synonyms); "name" has no partner left.
        // Containment bias: 0.75·(1/1) + 0.25·(1/2) = 0.875.
        assert!((d.token_similarity(&toks("show name"), &toks("title")) - 0.875).abs() < 1e-9);
        // Full containment of the abbreviation scores high.
        assert!(d.token_similarity(&toks("cost"), &toks("cheapest price")) > 0.85);
        assert_eq!(d.token_similarity(&toks("price"), &toks("venue")), 0.0);
        assert_eq!(d.token_similarity(&[], &[]), 1.0);
        assert_eq!(d.token_similarity(&toks("x"), &[]), 0.0);
    }

    /// The greedy match with a flag per token of `b`, as it was before the
    /// bitmask.
    fn oracle_similarity(d: &SynonymDict, a: &[String], b: &[String]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return if a.is_empty() && b.is_empty() { 1.0 } else { 0.0 };
        }
        let mut used = vec![false; b.len()];
        let mut matched = 0usize;
        for ta in a {
            if let Some(pos) = (0..b.len()).find(|&j| !used[j] && d.are_synonyms(ta, &b[j])) {
                used[pos] = true;
                matched += 1;
            }
        }
        let small = a.len().min(b.len()) as f64;
        let large = a.len().max(b.len()) as f64;
        0.75 * (matched as f64 / small) + 0.25 * (matched as f64 / large)
    }

    #[test]
    fn token_similarity_matches_the_flag_oracle_on_either_side_of_64_tokens() {
        let d = SynonymDict::broadway();
        let words = ["price", "cost", "fare", "venue", "theatre", "show", "title", "x", "date"];
        for len in [1, 2, 63, 64, 65, 130] {
            let b: Vec<String> =
                (0..len).map(|k| words[(k * 7 + 3) % words.len()].to_owned()).collect();
            for a_len in [1, 5, 64, 70] {
                let a: Vec<String> =
                    (0..a_len).map(|k| words[(k * 5 + 1) % words.len()].to_owned()).collect();
                let (got, want) = (d.token_similarity(&a, &b), oracle_similarity(&d, &a, &b));
                assert_eq!(got.to_bits(), want.to_bits(), "{a_len} x {len}");
            }
        }
    }
}
