//! Word tokenisation with byte spans, token classes and lowercase forms.
//!
//! A fragment is lexed in one pass ([`Tokenized::new`]). Each token carries
//! its class flags, computed while it is cut: word, capitalised, numeric and
//! digit-led, so [`Token::is_word`] and its siblings are flag reads and no
//! extractor re-reads a token's characters to classify it. Each word also
//! gets its lowercase form in one buffer sized from the text
//! ([`Tokenized::lower`]); the parser probes its lexicon once per word with
//! that form.
//!
//! An all-ASCII text (every web fragment the benchmarks generate) takes a
//! byte loop, and its lowercase buffer is the whole text ASCII-lowercased.
//! Any other text takes the char loop, and each of its words is lowercased
//! on its own (see [`Tokenized`]). Both loops cut the same tokens with the
//! same classes; the tests check the byte loop against the char loop.

/// [`Token::is_word`]'s flag.
const WORD: u8 = 1;
/// [`Token::is_capitalized`]'s flag.
const CAPITALIZED: u8 = 1 << 1;
/// [`Token::is_numeric`]'s flag.
const NUMERIC: u8 = 1 << 2;
/// [`Token::starts_with_digit`]'s flag.
const DIGIT_LED: u8 = 1 << 3;

/// A token with its byte span in the original text and its class flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text (a slice of the input).
    pub text: &'a str,
    /// Byte offset of the token start.
    pub start: usize,
    /// Byte offset one past the token end.
    pub end: usize,
    /// The class bits ([`WORD`], [`CAPITALIZED`], [`NUMERIC`], [`DIGIT_LED`]).
    flags: u8,
}

impl<'a> Token<'a> {
    /// The token `text[start..end]` with its classes read from its chars.
    fn classified(text: &'a str, start: usize, end: usize) -> Self {
        let token = text.get(start..end).unwrap_or("");
        let first = token.chars().next();
        let mut flags = 0;
        if token.chars().any(char::is_alphanumeric) {
            flags |= WORD;
        }
        if first.is_some_and(char::is_uppercase) {
            flags |= CAPITALIZED;
        }
        if token.chars().all(|c| c.is_ascii_digit() || c == ',' || c == '.')
            && token.chars().any(|c| c.is_ascii_digit())
        {
            flags |= NUMERIC;
        }
        if first.is_some_and(|c| c.is_ascii_digit()) {
            flags |= DIGIT_LED;
        }
        Token { text: token, start, end, flags }
    }

    /// True when the token carries at least one alphanumeric char — a word,
    /// as opposed to a standalone punctuation mark or symbol.
    pub fn is_word(&self) -> bool {
        self.flags & WORD != 0
    }

    /// True when the token starts with an uppercase letter.
    pub fn is_capitalized(&self) -> bool {
        self.flags & CAPITALIZED != 0
    }

    /// True when the token is purely numeric (digits, commas, periods).
    pub fn is_numeric(&self) -> bool {
        self.flags & NUMERIC != 0
    }

    /// True when the token starts with an ASCII digit.
    pub fn starts_with_digit(&self) -> bool {
        self.flags & DIGIT_LED != 0
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
    // Prose averages a token per five to six bytes: one allocation covers
    // a fragment's tokens without regrowth.
    let mut tokens = Vec::with_capacity(text.len() / 4 + 4);
    if text.is_ascii() {
        lex_ascii(text, &mut tokens);
    } else {
        lex_chars(text, &mut tokens);
    }
    tokens
}

/// True for the ASCII chars `char::is_whitespace` accepts (`\t` to `\r`,
/// which includes the vertical tab, and the space).
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// [`tokenize`] of an all-ASCII text: the char loop's tokens, cut and
/// classified byte by byte.
fn lex_ascii<'a>(text: &'a str, tokens: &mut Vec<Token<'a>>) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let start = i;
        i += 1;
        let flags = if b.is_ascii_alphanumeric() {
            // Extend through the word; a mark stays when an alphanumeric
            // follows it. A word is numeric when it holds only digits, `,`
            // and `.`, so it starts with a digit.
            let mut numeric = b.is_ascii_digit();
            while let Some(&c) = bytes.get(i) {
                if c.is_ascii_alphanumeric() {
                    numeric &= c.is_ascii_digit();
                } else if matches!(c, b'\'' | b'-' | b'.' | b',')
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_alphanumeric)
                {
                    numeric &= matches!(c, b'.' | b',');
                } else {
                    break;
                }
                i += 1;
            }
            let mut flags = WORD;
            if b.is_ascii_uppercase() {
                flags |= CAPITALIZED;
            }
            if b.is_ascii_digit() {
                flags |= DIGIT_LED;
            }
            if numeric {
                flags |= NUMERIC;
            }
            flags
        } else if is_ascii_space(b) {
            continue;
        } else {
            0
        };
        if let Some(token) = text.get(start..i) {
            tokens.push(Token { text: token, start, end: i, flags });
        }
    }
}

/// [`tokenize`] of any text, char by char.
fn lex_chars<'a>(text: &'a str, tokens: &mut Vec<Token<'a>>) {
    let mut iter = text.char_indices().peekable();
    while let Some((start, c)) = iter.next() {
        if c.is_whitespace() {
            continue;
        }
        let mut end = start + c.len_utf8();
        if c.is_alphanumeric() {
            // Extend through the word.
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
        }
        tokens.push(Token::classified(text, start, end));
    }
}

/// A fragment lexed once: its [`tokenize`] stream, its word tokens, and
/// each word's lowercase form. Whatever reads a fragment's tokens or words
/// — the junk filter, the scanners, the lexicon probe, the gazetteer walk,
/// the heuristics — reads them from here, so a fragment is never tokenised
/// twice.
///
/// The lowercase forms live in one buffer sized from the text, so a
/// fragment costs one allocation for all of them instead of a `String` per
/// token. Each token is lowercased on its own, exactly as
/// `token.text.to_lowercase()` would. In an all-ASCII text the buffer is
/// the whole text ASCII-lowercased, and a word's form is its token's span
/// of it. In any other text each word's form is appended to the buffer: an
/// ASCII token lowercased in place, any other with `str::to_lowercase`
/// applied to that token alone. Lowercasing the whole fragment instead
/// would differ, because the final-sigma rule looks past the token
/// (`"ΑΣ:Β"` lowercases to `"ασ:β"`, the token `"ΑΣ"` to `"ας"`).
#[derive(Debug, Clone)]
pub struct Tokenized<'a> {
    text: &'a str,
    tokens: Vec<Token<'a>>,
    /// The word tokens, in order: a copy, so that word-by-word readers walk
    /// one contiguous slice.
    words: Vec<Token<'a>>,
    lower: String,
    /// `lower[ranges[i].0..ranges[i].1]` is the lowercase form of `words[i]`.
    ranges: Vec<(usize, usize)>,
}

impl<'a> Tokenized<'a> {
    /// Tokenise `text`.
    pub fn new(text: &'a str) -> Self {
        let tokens = tokenize(text);
        let mut words = Vec::with_capacity(tokens.len());
        words.extend(tokens.iter().filter(|t| t.is_word()).copied());
        let mut ranges = Vec::with_capacity(words.len());
        let lower = if text.is_ascii() {
            ranges.extend(words.iter().map(|t| (t.start, t.end)));
            text.to_ascii_lowercase()
        } else {
            let mut lower = String::with_capacity(text.len());
            for t in &words {
                let from = lower.len();
                if t.text.is_ascii() {
                    lower.push_str(t.text);
                    lower[from..].make_ascii_lowercase();
                } else {
                    lower.push_str(&t.text.to_lowercase());
                }
                ranges.push((from, lower.len()));
            }
            lower
        };
        Tokenized { text, tokens, words, lower, ranges }
    }

    /// The text that was tokenised.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// Every token, words and punctuation, in order.
    pub fn tokens(&self) -> &[Token<'a>] {
        &self.tokens
    }

    /// Number of word tokens (see [`Token::is_word`]).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Word `i`'s token, or `None` past the end.
    pub fn word(&self, i: usize) -> Option<&Token<'a>> {
        self.words.get(i)
    }

    /// The lowercase form of word `i`, or `""` past the end.
    pub fn lower(&self, i: usize) -> &str {
        self.ranges.get(i).and_then(|&(from, to)| self.lower.get(from..to)).unwrap_or("")
    }

    /// Each word's raw text and lowercase form, in order.
    pub fn words(&self) -> impl ExactSizeIterator<Item = (&'a str, &str)> + '_ {
        self.words
            .iter()
            .zip(&self.ranges)
            .map(|(t, &(from, to))| (t.text, self.lower.get(from..to).unwrap_or("")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let ts = tokenize("NYC Matilda 960,998 inc 7pm");
        assert!(ts[0].is_capitalized());
        assert!(ts[1].is_capitalized());
        assert!(ts[2].is_numeric() && ts[2].starts_with_digit());
        assert!(!ts[3].is_capitalized() && !ts[3].starts_with_digit());
        assert!(!ts[4].is_numeric() && ts[4].starts_with_digit());
    }

    #[test]
    fn unicode_tokens() {
        let ts = tokenize("café €27");
        assert_eq!(texts(&ts), vec!["café", "€", "27"]);
    }

    #[test]
    fn words_lowercase_each_token_on_its_own() {
        for text in ["The ΑΣ:Β U.S. café, 960,998!", "The AS:B U.S. cafe, 960,998!"] {
            let once = Tokenized::new(text);
            let expected: Vec<String> = tokenize(text)
                .iter()
                .filter(|t| t.is_word())
                .map(|t| t.text.to_lowercase())
                .collect();
            let got: Vec<&str> = (0..once.word_count()).map(|i| once.lower(i)).collect();
            assert_eq!(got, expected);
            let pairs: Vec<(&str, &str)> = once.words().collect();
            let want: Vec<(&str, &str)> = (0..once.word_count())
                .map(|i| (once.word(i).map_or("", |t| t.text), once.lower(i)))
                .collect();
            assert_eq!(pairs, want);
            assert_eq!((once.text(), once.tokens()), (text, &tokenize(text)[..]));
            assert_eq!((once.word(once.word_count()), once.lower(once.word_count())), (None, ""));
        }
        assert_eq!(
            Tokenized::new("ΑΣ:Β").lower(0),
            "ας",
            "final sigma is decided within the token"
        );
        assert_eq!(Tokenized::new("\" , .").word_count(), 0);
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n\u{b}\u{c}\r").is_empty());
    }

    #[test]
    fn ascii_space_is_char_whitespace() {
        for b in 0u8..128 {
            assert_eq!(is_ascii_space(b), char::from(b).is_whitespace(), "{b:#x}");
        }
    }

    /// The lexer as it was before tokens carried their classes: the char
    /// loop, the classes read from each token's chars on every call, and
    /// `str::to_lowercase` of each word token on its own.
    mod oracle {
        /// One token: text, span, `[word, capitalised, numeric, digit-led]`
        /// and, for a word, its lowercase form.
        pub type Lexed<'a> = (&'a str, usize, usize, [bool; 4], Option<String>);

        pub fn lex(text: &str) -> Vec<Lexed<'_>> {
            let mut out = Vec::new();
            let mut iter = text.char_indices().peekable();
            while let Some((start, c)) = iter.next() {
                if c.is_whitespace() {
                    continue;
                }
                let mut end = start + c.len_utf8();
                if c.is_alphanumeric() {
                    while let Some(&(i, nc)) = iter.peek() {
                        if nc.is_alphanumeric() {
                            end = i + nc.len_utf8();
                            iter.next();
                        } else if matches!(nc, '\'' | '-' | '.' | ',') {
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
                }
                let t = &text[start..end];
                let word = t.chars().any(char::is_alphanumeric);
                let classes = [
                    word,
                    t.chars().next().is_some_and(|c| c.is_uppercase()),
                    !t.is_empty()
                        && t.chars().all(|c| c.is_ascii_digit() || c == ',' || c == '.')
                        && t.chars().any(|c| c.is_ascii_digit()),
                    t.starts_with(|c: char| c.is_ascii_digit()),
                ];
                out.push((t, start, end, classes, word.then(|| t.to_lowercase())));
            }
            out
        }
    }

    /// The one-pass lexer's tokens, spans, classes and lowercase forms in
    /// the oracle's shape.
    fn lexed(text: &str) -> Vec<oracle::Lexed<'_>> {
        let once = Tokenized::new(text);
        let mut words = 0..once.word_count();
        once.tokens()
            .iter()
            .map(|t| {
                let classes =
                    [t.is_word(), t.is_capitalized(), t.is_numeric(), t.starts_with_digit()];
                let lower =
                    t.is_word().then(|| words.next().map(|w| once.lower(w).to_owned())).flatten();
                (t.text, t.start, t.end, classes, lower)
            })
            .collect()
    }

    fn assert_lexes_as_the_oracle(text: &str) {
        let once = Tokenized::new(text);
        assert_eq!(lexed(text), oracle::lex(text), "{text:?}");
        assert_eq!(once.tokens(), &tokenize(text)[..], "{text:?}");
        let word_tokens: Vec<&Token> = once.tokens().iter().filter(|t| t.is_word()).collect();
        let words: Vec<&Token> = (0..once.word_count()).filter_map(|i| once.word(i)).collect();
        assert_eq!(words, word_tokens, "{text:?}");
    }

    /// Pieces the proptest glues into fragments: the parser oracle's
    /// adversarial pieces (the Kelvin sign, a final sigma before a colon,
    /// a dotted capital I, a titlecase digraph, curly quotes) and ASCII
    /// marks, digits and control chars.
    const PIECES: &[&str] = &[
        "Matilda", "MATILDA", "New", "York", "Inc", "inc.", "Mr.", "said", "The", "the",
        "producer", "CEO", "ΑΣ", "ΑΣ:Β", "Σ", "İstanbul", "ǅemal", "café", "Maé", "\u{212a}elvin",
        "\"", "\u{201c}", "\u{201d}", "'", ",", ".", ":", "/", "$", "€", "%", "percent", "USD",
        "GROSSED", "960,998", "1,250", "27", "7pm", "11AM", "19:30", "3/4/2013", "W.", "U.S.",
        "O'Brien", "award-winning", "x-", "-x", "9.", ".9", "1,2.3", "4'5", "a1-2",
        "\u{b}", "\u{1c}", "\u{7f}", "\u{85}", "\u{a0}", "Ⅻ", "٣",
    ];

    proptest! {
        #[test]
        fn one_pass_lexes_generated_fragments_as_the_oracle(
            picks in prop::collection::vec(0..PIECES.len(), 0..30),
            glue in prop::collection::vec(0..4usize, 0..30),
        ) {
            let mut text = String::new();
            for (k, p) in picks.iter().enumerate() {
                text.push_str(PIECES[*p]);
                text.push_str([" ", "", ", ", "\t"][glue.get(k).copied().unwrap_or(0)]);
            }
            assert_lexes_as_the_oracle(&text);
        }

        #[test]
        fn one_pass_lexes_arbitrary_ascii_as_the_oracle(
            bytes in prop::collection::vec(0u8..128, 0..60),
        ) {
            let text: String = bytes.iter().map(|&b| char::from(b)).collect();
            assert_lexes_as_the_oracle(&text);
        }
    }

    #[test]
    fn fixed_fragments_lex_as_the_oracle() {
        for text in [
            "",
            "Matilda grossed $960,998, or 93 percent, at 7pm on 3/4/2013.",
            "O'Brien's award-winning U.S. tour: W. 44th St \"The Walking Dead\"",
            "ΑΣ:Β ΑΣ σ İstanbul \u{212a}elvin CAFÉ café ǅemal Straße 1,2.3x 4'5 -x x-",
            "\u{201c}Raging Bull\u{201d} \u{b}tab\u{c}feed\r\n\u{1c}sep\u{85}nel\u{a0}nbsp",
        ] {
            assert_lexes_as_the_oracle(text);
        }
    }
}
