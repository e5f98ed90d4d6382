//! Word tokenisation with byte spans.

/// A token with its byte span in the original text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text (a slice of the input).
    pub text: &'a str,
    /// Byte offset of the token start.
    pub start: usize,
    /// Byte offset one past the token end.
    pub end: usize,
}

impl Token<'_> {
    /// True when the token carries at least one alphanumeric char — a word,
    /// as opposed to a standalone punctuation mark or symbol.
    pub fn is_word(&self) -> bool {
        self.text.chars().any(char::is_alphanumeric)
    }

    /// True when the token starts with an uppercase letter.
    pub fn is_capitalized(&self) -> bool {
        self.text.chars().next().is_some_and(|c| c.is_uppercase())
    }

    /// True when the token is purely numeric (digits, commas, periods).
    pub fn is_numeric(&self) -> bool {
        !self.text.is_empty()
            && self.text.chars().all(|c| c.is_ascii_digit() || c == ',' || c == '.')
            && self.text.chars().any(|c| c.is_ascii_digit())
    }
}

/// Tokenise into word-level tokens. A token is a maximal run of
/// alphanumerics plus internal `'`, `-`, `.` , `,` when followed by an
/// alphanumeric (keeps `O'Brien`, `960,998`, `award-winning` and the `U.S`
/// of `U.S.` together). A trailing mark is not internal, so `W.` yields
/// `W` and `.`, and `U.S.` yields `U.S` and `.`. Standalone punctuation
/// marks (`"`, `,`, `.`, `$`, `€`, `%`) are their own tokens so scanners
/// can anchor on them.
pub fn tokenize(text: &str) -> Vec<Token<'_>> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut iter = text.char_indices().peekable();
    while let Some((start, c)) = iter.next() {
        if c.is_whitespace() {
            continue;
        }
        if c.is_alphanumeric() {
            // Extend through the word.
            let mut end = start + c.len_utf8();
            while let Some(&(i, nc)) = iter.peek() {
                if nc.is_alphanumeric() {
                    end = i + nc.len_utf8();
                    iter.next();
                } else if matches!(nc, '\'' | '-' | '.' | ',') {
                    // Internal punctuation: keep only when followed by an
                    // alphanumeric (lookahead two).
                    let next_next = text[i + nc.len_utf8()..].chars().next();
                    if next_next.is_some_and(|n| n.is_alphanumeric()) {
                        end = i + nc.len_utf8();
                        iter.next();
                    } else {
                        break;
                    }
                } else {
                    break;
                }
            }
            tokens.push(Token { text: &text[start..end], start, end });
        } else {
            // Single-char punctuation token.
            let end = start + c.len_utf8();
            tokens.push(Token { text: &text[start..end], start, end });
        }
        debug_assert!(start < bytes.len());
    }
    tokens
}

/// The word tokens of a fragment with their lowercase forms, computed once
/// and shared by every consumer that matches words case-insensitively (the
/// gazetteer walk and the contextual heuristics).
///
/// The lowercase forms live in one buffer addressed by byte ranges, so a
/// fragment costs one allocation for all of them instead of a `String` per
/// token. Each token is lowercased on its own, exactly as
/// `token.text.to_lowercase()` would: an ASCII token in place, any other
/// with `str::to_lowercase` applied to that token alone. Lowercasing the
/// whole fragment instead would differ, because the final-sigma rule looks
/// past the token (`"ΑΣ:Β"` lowercases to `"ασ:β"`, the token `"ΑΣ"` to
/// `"ας"`).
#[derive(Debug, Clone, Default)]
pub struct Words<'a> {
    tokens: Vec<Token<'a>>,
    lower: String,
    /// `lower[ranges[i].0..ranges[i].1]` is the lowercase form of `tokens[i]`.
    ranges: Vec<(usize, usize)>,
}

impl<'a> Words<'a> {
    /// The word tokens (see [`Token::is_word`]) of a token stream, in order.
    pub fn new(tokens: &[Token<'a>]) -> Self {
        let mut words = Words {
            tokens: Vec::with_capacity(tokens.len()),
            lower: String::new(),
            ranges: Vec::with_capacity(tokens.len()),
        };
        for t in tokens.iter().filter(|t| t.is_word()) {
            let from = words.lower.len();
            if t.text.is_ascii() {
                words.lower.push_str(t.text);
                words.lower[from..].make_ascii_lowercase();
            } else {
                words.lower.push_str(&t.text.to_lowercase());
            }
            words.tokens.push(*t);
            words.ranges.push((from, words.lower.len()));
        }
        words
    }

    /// Number of word tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when the stream has no word token.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The word tokens, in order.
    pub fn tokens(&self) -> &[Token<'a>] {
        &self.tokens
    }

    /// The lowercase form of word `i`, or `""` past the end.
    pub fn lower(&self, i: usize) -> &str {
        self.ranges
            .get(i)
            .and_then(|&(from, to)| self.lower.get(from..to))
            .unwrap_or("")
    }

    /// Each word's raw text and lowercase form, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &str)> + '_ {
        self.tokens
            .iter()
            .zip(&self.ranges)
            .map(|(t, &(from, to))| (t.text, self.lower.get(from..to).unwrap_or("")))
    }
}

/// A fragment tokenised once: its [`tokenize`] stream and the [`Words`] of
/// that stream. Whatever reads a fragment's tokens or words — the junk
/// filter, the scanners, the gazetteer, the heuristics — reads them from
/// here, so a fragment is never tokenised twice.
#[derive(Debug, Clone)]
pub struct Tokenized<'a> {
    text: &'a str,
    tokens: Vec<Token<'a>>,
    words: Words<'a>,
}

impl<'a> Tokenized<'a> {
    /// Tokenise `text`.
    pub fn new(text: &'a str) -> Self {
        let tokens = tokenize(text);
        let words = Words::new(&tokens);
        Tokenized { text, tokens, words }
    }

    /// The text that was tokenised.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// Every token, words and punctuation, in order.
    pub fn tokens(&self) -> &[Token<'a>] {
        &self.tokens
    }

    /// The word tokens with their lowercase forms.
    pub fn words(&self) -> &Words<'a> {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts<'a>(ts: &'a [Token<'a>]) -> Vec<&'a str> {
        ts.iter().map(|t| t.text).collect()
    }

    #[test]
    fn words_and_punct() {
        let ts = tokenize("Matilda grossed $960,998.");
        assert_eq!(texts(&ts), vec!["Matilda", "grossed", "$", "960,998", "."]);
    }

    #[test]
    fn internal_punct_kept() {
        let ts = tokenize("O'Brien at W. 44th St between 7th and 8th");
        assert_eq!(
            texts(&ts),
            vec!["O'Brien", "at", "W", ".", "44th", "St", "between", "7th", "and", "8th"]
        );
        let ts = tokenize("U.S. economy");
        assert_eq!(texts(&ts), vec!["U.S", ".", "economy"]);
    }

    #[test]
    fn spans_are_correct() {
        let text = "Go Matilda!";
        for t in tokenize(text) {
            assert_eq!(&text[t.start..t.end], t.text);
        }
    }

    #[test]
    fn token_predicates() {
        let ts = tokenize("NYC Matilda 960,998 inc");
        assert!(ts[0].is_capitalized());
        assert!(ts[1].is_capitalized());
        assert!(ts[2].is_numeric());
        assert!(!ts[3].is_capitalized());
    }

    #[test]
    fn unicode_tokens() {
        let ts = tokenize("café €27");
        assert_eq!(texts(&ts), vec!["café", "€", "27"]);
    }

    #[test]
    fn words_lowercase_each_token_on_its_own() {
        let text = "The ΑΣ:Β U.S. café, 960,998!";
        let tokens = tokenize(text);
        let words = Words::new(&tokens);
        let expected: Vec<String> =
            tokens.iter().filter(|t| t.is_word()).map(|t| t.text.to_lowercase()).collect();
        let got: Vec<&str> = (0..words.len()).map(|i| words.lower(i)).collect();
        assert_eq!(got, expected);
        assert_eq!(got[1], "ας", "final sigma is decided within the token");
        let pairs: Vec<(&str, &str)> = words.iter().collect();
        let want: Vec<(&str, &str)> =
            words.tokens().iter().enumerate().map(|(i, t)| (t.text, words.lower(i))).collect();
        assert_eq!(pairs, want);
        let once = Tokenized::new(text);
        assert_eq!((once.text(), once.tokens()), (text, &tokens[..]));
        assert_eq!(once.words().iter().collect::<Vec<_>>(), pairs);
        assert_eq!(words.tokens().len(), words.len());
        assert_eq!(words.lower(words.len()), "");
        assert!(Words::new(&tokenize("\" , .")).is_empty());
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n").is_empty());
    }
}
