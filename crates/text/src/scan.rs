//! Hand-rolled pattern scanners over the raw text and the token stream.
//!
//! The scanners emit spans: money amounts, percentages, dates, clock times,
//! URLs, and quoted titles. These power both entity extraction (URLs,
//! titles) and the instance-level attributes (grosses, prices, dates) the
//! demo queries use.
//!
//! Each reads the fragment once. URLs and quoted titles cross token
//! boundaries, so each of those two scans the raw bytes once, resuming
//! after every match. Money, percentages, dates and times are found in one
//! walk over the flagged tokens of the parser's single lexing pass
//! ([`crate::Tokenized`]): the numeric, capitalised and digit-led classes
//! are flag reads, and the money context, currency and `percent` words are
//! bits of the lexicon entry the parser probed for each word. A month-name
//! date is tried only where the first word is a month name, and a clock
//! time only at a token that starts with a digit.

use datatamer_model::infer;

use crate::gazetteer::{keys, Lexeme};
use crate::parser::DomainParser;
use crate::tokenize::{Token, Tokenized};

/// A scanned span with a classification.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the span is.
    pub kind: SpanKind,
    /// The matched text.
    pub text: String,
    /// Byte offset of the span start.
    pub start: usize,
    /// Byte offset one past the end.
    pub end: usize,
}

/// Classification of scanned spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// `$27`, `€19.99`, `960,998 dollars`, `grossed 960,998`.
    Money,
    /// `93%`, `93 percent`.
    Percent,
    /// `3/4/2013`, `March 4, 2013`.
    Date,
    /// `7pm`, `11AM`: an hour from 1 to 12 written together with `am` or
    /// `pm`. `7 pm`, `7:30pm` and `19:30` are not scanned (the first is
    /// two tokens, and the tokenizer splits the others at `:`).
    Time,
    /// `http://...`, `www...`.
    Url,
    /// Text inside double quotes, Title Cased — show/movie titles.
    QuotedTitle,
    /// A large bare number in a money context (e.g. after "grossed").
    Gross,
}

/// Words that signal an adjacent bare number is a money amount.
///
/// This list, [`MONEY_SUFFIXES`] and `percent` are lowercase ASCII without
/// a `k`. A token's lexicon probe reads its lowercase form, and for such a
/// word "the token's `to_lowercase` equals the word" is exactly "the token
/// equals the word ASCII case-insensitively": the only non-ASCII char whose
/// lowercase is all ASCII is the Kelvin sign (to `k`).
pub(crate) const MONEY_CONTEXT: &[&str] =
    &["grossed", "gross", "earned", "made", "cost", "costs", "price", "priced"];

/// Currency words that make the number before them a money amount.
pub(crate) const MONEY_SUFFIXES: &[&str] = &["usd", "eur", "gbp", "dollars", "euros", "pounds"];

/// Run all scanners over `text` and return spans sorted by start offset.
/// Lexes the text and builds the parser's keyword lexicon on every call;
/// the parser keeps one lexicon and scans the fragment it already lexed.
pub fn scan_all(text: &str) -> Vec<Span> {
    let fragment = Tokenized::new(text);
    let lexemes = DomainParser::new().lexemes(&fragment);
    scan(&fragment, &lexemes)
}

/// Every scanner over a lexed fragment whose words' lexicon entries are
/// `lexemes` (one per word): spans sorted by `(start, end)`. The sort is
/// stable. No two spans of the token walk share a `(start, end)` (their
/// first and last tokens differ in class), so spans with equal offsets keep
/// the order of the scanners that pushed them: URL, quoted title, then the
/// token walk.
pub(crate) fn scan(fragment: &Tokenized, lexemes: &[Lexeme]) -> Vec<Span> {
    let mut spans = Vec::new();
    scan_urls(fragment.text(), &mut spans);
    scan_quoted_titles(fragment.text(), &mut spans);
    scan_tokens(fragment, lexemes, &mut spans);
    spans.sort_by_key(|s| (s.start, s.end));
    spans
}

/// A span of `kind` over `text[start..end]`.
fn span(kind: SpanKind, text: &str, start: usize, end: usize) -> Span {
    Span { kind, text: text.get(start..end).unwrap_or("").to_owned(), start, end }
}

/// The first byte at or after `from` for which `hit` holds. Sixteen bytes
/// are tested at a time, without an early exit, so the test vectorises; a
/// chunk with a hit is then searched byte by byte.
fn find_byte(bytes: &[u8], from: usize, hit: impl Fn(u8) -> bool) -> Option<usize> {
    let rest = bytes.get(from..)?;
    let mut chunks = rest.chunks_exact(16);
    let mut base = from;
    for chunk in &mut chunks {
        if chunk.iter().fold(false, |any, &b| any | hit(b)) {
            return chunk.iter().position(|&b| hit(b)).map(|p| base + p);
        }
        base += 16;
    }
    chunks.remainder().iter().position(|&b| hit(b)).map(|p| base + p)
}

/// Where a URL starts: the first `http://`, `https://` or `www.` at or
/// after byte `from`. The scan stops only at a `:` or `.` (the fourth or
/// fifth byte of a scheme, the fourth of `www.`) and looks back for a
/// marker ending there. Markers cannot overlap one another, so the first
/// stop that completes a marker gives the first marker. Every marker
/// starts with an ASCII byte, so a match is at a char boundary.
fn next_url_start(raw: &[u8], from: usize) -> Option<usize> {
    let mut q = from;
    loop {
        q = find_byte(raw, q, |b| b == b':' || b == b'.')?;
        let marker = |back: usize, marker: &[u8]| {
            q.checked_sub(back)
                .filter(|&s| s >= from)
                .filter(|&s| raw.get(s..).is_some_and(|r| r.starts_with(marker)))
        };
        let start = match raw.get(q) {
            Some(b':') => marker(4, b"http://").or_else(|| marker(5, b"https://")),
            _ => marker(3, b"www."),
        };
        if start.is_some() {
            return start;
        }
        q += 1;
    }
}

fn scan_urls(raw: &str, out: &mut Vec<Span>) {
    // The tokenizer splits at "://", so scan the raw text for scheme
    // markers and take each URL forward to the next whitespace.
    let mut search = 0usize;
    while let Some(start) = next_url_start(raw.as_bytes(), search) {
        let end = raw[start..]
            .find(char::is_whitespace)
            .map(|i| start + i)
            .unwrap_or(raw.len());
        // Trim trailing punctuation.
        let mut end = end;
        while let Some(last) = raw[start..end].chars().next_back() {
            if matches!(last, '.' | ',' | ')' | '"' | '\'' | ';') {
                end -= last.len_utf8();
            } else {
                break;
            }
        }
        let candidate = &raw[start..end];
        if candidate.len() > 8 && candidate.contains('.') {
            out.push(span(SpanKind::Url, raw, start, end));
        }
        search = end.max(start + 1);
    }
}

/// The UTF-8 bytes of the curly quotes `\u{201c}` and `\u{201d}`.
const CURLY_OPEN: &[u8] = "\u{201c}".as_bytes();
const CURLY_CLOSE: &[u8] = "\u{201d}".as_bytes();

/// The first quote at or after byte `from` that is `"` or `curly`, with
/// its byte length. A match starts with `"` or a UTF-8 lead byte, so it is
/// at a char boundary.
fn next_quote(text: &[u8], from: usize, curly: &[u8]) -> Option<(usize, usize)> {
    let mut p = from;
    loop {
        p = find_byte(text, p, |b| b == b'"' || b == 0xE2)?;
        let rest = text.get(p..)?;
        if rest.starts_with(b"\"") {
            return Some((p, 1));
        }
        if rest.starts_with(curly) {
            return Some((p, curly.len()));
        }
        p += 1;
    }
}

fn scan_quoted_titles(text: &str, out: &mut Vec<Span>) {
    // Both straight and curly double quotes.
    let bytes = text.as_bytes();
    let mut idx = 0usize;
    while let Some((open, open_len)) = next_quote(bytes, idx, CURLY_OPEN) {
        let inner_start = open + open_len;
        let Some((close_abs, close_len)) = next_quote(bytes, inner_start, CURLY_CLOSE) else {
            break;
        };
        let inner = &text[inner_start..close_abs];
        // A plausible title: 1..=8 words, at least one capitalised word,
        // no sentence punctuation inside.
        let (mut words, mut capitalized) = (0usize, false);
        for w in inner.split_whitespace() {
            words += 1;
            capitalized |= w.chars().next().is_some_and(char::is_uppercase);
        }
        let ok = (1..=8).contains(&words) && capitalized && !inner.contains(['.', ';', '!', '?']);
        if ok {
            out.push(span(SpanKind::QuotedTitle, text, inner_start, close_abs));
        }
        idx = close_abs + close_len;
    }
}

/// Money, percentages, dates and clock times in one walk over the tokens.
fn scan_tokens(fragment: &Tokenized, lexemes: &[Lexeme], out: &mut Vec<Span>) {
    let (text, tokens) = (fragment.text(), fragment.tokens());
    // `word` counts the word tokens before token `i`, so a word at `i` is
    // word `word`, and one just before it is word `word - 1`.
    let mut word = 0usize;
    // A money match covers two tokens, and the money scan resumes after it.
    let mut money_from = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        let (prev, next) = (i.checked_sub(1).and_then(|p| tokens.get(p)), tokens.get(i + 1));
        // Whether the token before or after this one is a word with `key`.
        let prev_is = |key: u16| {
            prev.is_some_and(Token::is_word)
                && word.checked_sub(1).and_then(|w| lexemes.get(w)).is_some_and(|l| l.is(key))
        };
        let next_is = |key: u16| {
            next.is_some_and(Token::is_word)
                && lexemes.get(word + usize::from(t.is_word())).is_some_and(|l| l.is(key))
        };
        if i >= money_from {
            let symbol = !t.is_word() && matches!(t.text, "$" | "€" | "£" | "¥");
            if let Some(next) = next.filter(|n| symbol && n.is_numeric()) {
                // Symbol-prefixed: "$" "960,998" (the tokenizer splits the
                // symbol off).
                out.push(span(SpanKind::Money, text, t.start, next.end));
                money_from = i + 2;
            } else if t.is_numeric() {
                if let Some(next) = next.filter(|_| next_is(keys::MONEY_SUFFIX)) {
                    // Suffix code: "27 USD" / "27 dollars" / "27 euros".
                    out.push(span(SpanKind::Money, text, t.start, next.end));
                    money_from = i + 2;
                } else if prev_is(keys::MONEY_CONTEXT)
                    && infer::parse_integer(t.text).is_some_and(|v| v >= 1000)
                {
                    // Context-word gross: "grossed 960,998".
                    out.push(span(SpanKind::Gross, text, t.start, t.end));
                }
            }
        }
        if t.is_numeric() {
            // Percent: "93%" / "93 percent".
            if let Some(next) = next.filter(|n| n.text == "%" || next_is(keys::PERCENT)) {
                out.push(span(SpanKind::Percent, text, t.start, next.end));
            }
            // Slash-numeric dates: '/' is not internal punct, so "3/4/2013"
            // tokenizes as 3 / 4 / 2013 — stitch a 5-token window.
            if let [_, slash, b, slash2, c, ..] = tokens.get(i..).unwrap_or(&[]) {
                if slash.text == "/" && b.is_numeric() && slash2.text == "/" && c.is_numeric() {
                    let candidate = &text[t.start..c.end];
                    if infer::parse_date(candidate).is_some() {
                        out.push(span(SpanKind::Date, text, t.start, c.end));
                    }
                }
            }
        }
        // Month-name dates: "March 4, 2013" => tokens [March][4][,?][2013].
        // A candidate starting with a capital can match neither
        // `parse_date`'s numeric form nor its "4 March 2013" form, so only
        // a month name as its first whitespace- or comma-delimited word can
        // make it a date; anywhere else the window is skipped unparsed. A
        // month name is ASCII, so a capitalised one starts with one of
        // these bytes.
        let month_initial = matches!(
            t.text.as_bytes().first(),
            Some(b'J' | b'F' | b'M' | b'A' | b'S' | b'O' | b'N' | b'D')
        );
        if month_initial && t.is_capitalized() && infer::is_month_name(first_word(&text[t.start..]))
        {
            let window_end = (i + 4).min(tokens.len());
            for j in (i + 2)..=window_end.saturating_sub(1) {
                let candidate = &text[t.start..tokens[j].end];
                if infer::parse_date(candidate).is_some() {
                    out.push(span(SpanKind::Date, text, t.start, tokens[j].end));
                    break;
                }
            }
        }
        // Clock times: lowercasing never turns a non-digit into a digit,
        // so only a token starting with one can be a time. Such a token is
        // a word, and its lowercase form is the words' own.
        if t.starts_with_digit() {
            let lower = fragment.lower(word);
            let looks_like_time = lower.ends_with("am") || lower.ends_with("pm");
            if looks_like_time && infer::infer_str(lower) == infer::LexicalType::Time {
                out.push(span(SpanKind::Time, text, t.start, t.end));
            }
        }
        if t.is_word() {
            word += 1;
        }
    }
}

/// The text up to the first whitespace or comma — the first word
/// `parse_date` sees in a candidate starting here.
fn first_word(text: &str) -> &str {
    text.split(|c: char| c.is_whitespace() || c == ',').next().unwrap_or(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds_of(text: &str) -> Vec<(SpanKind, String)> {
        scan_all(text).into_iter().map(|s| (s.kind, s.text)).collect()
    }

    #[test]
    fn paper_fragment_scans() {
        // The exact Table V text feed fragment.
        let text = "..which began previews on Tuesday, grossed 659,391, or...And Matilda \
                    an award-winning import from London, grossed 960,998, or 93 percent \
                    of the maximum.";
        let spans = kinds_of(text);
        assert!(spans.contains(&(SpanKind::Gross, "659,391".into())), "{spans:?}");
        assert!(spans.contains(&(SpanKind::Gross, "960,998".into())));
        assert!(spans.contains(&(SpanKind::Percent, "93 percent".into())));
    }

    #[test]
    fn dollar_prices() {
        let spans = kinds_of("Tickets from $27 at the box office");
        assert_eq!(spans, vec![(SpanKind::Money, "$27".into())]);
        let spans = kinds_of("raised 40 USD and 1,250 dollars");
        assert_eq!(
            spans,
            vec![
                (SpanKind::Money, "40 USD".into()),
                (SpanKind::Money, "1,250 dollars".into())
            ]
        );
        // Currency and context words match in any ASCII case.
        assert_eq!(
            kinds_of("GROSSED 659,391 and 27 Dollars"),
            vec![(SpanKind::Gross, "659,391".into()), (SpanKind::Money, "27 Dollars".into())]
        );
    }

    #[test]
    fn quoted_titles() {
        let spans = kinds_of("Everyone discusses \"The Walking Dead\" and \"Matilda\" now");
        assert_eq!(
            spans,
            vec![
                (SpanKind::QuotedTitle, "The Walking Dead".into()),
                (SpanKind::QuotedTitle, "Matilda".into())
            ]
        );
    }

    #[test]
    fn quoted_junk_rejected() {
        assert!(kinds_of("he said \"this is a very long non title sentence that runs on. yes\"").is_empty());
        assert!(kinds_of("empty \"\" quotes").is_empty());
    }

    #[test]
    fn curly_quotes_work() {
        let spans = kinds_of("Watch \u{201c}Raging Bull\u{201d} tonight");
        assert_eq!(spans, vec![(SpanKind::QuotedTitle, "Raging Bull".into())]);
        assert_eq!(
            kinds_of("\u{201c}Raging Bull\" and \"Matilda\u{201d}"),
            vec![
                (SpanKind::QuotedTitle, "Raging Bull".into()),
                (SpanKind::QuotedTitle, "Matilda".into())
            ]
        );
        // An unmatched open quote ends the scan without a span.
        assert!(kinds_of("an \u{201c}open quote and a \"stray one").is_empty());
    }

    #[test]
    fn slash_dates() {
        let spans = kinds_of("previews began 3/4/2013 downtown");
        assert_eq!(spans, vec![(SpanKind::Date, "3/4/2013".into())]);
        assert!(kinds_of("score was 3/4").is_empty());
    }

    #[test]
    fn month_name_dates() {
        let spans = kinds_of("opening on March 4, 2013 at the Shubert");
        assert!(spans.contains(&(SpanKind::Date, "March 4, 2013".into())), "{spans:?}");
        let spans = kinds_of("Previews: Feb 3 2013, SEPTEMBER 30, 2013 and May 1 2013.");
        let dates: Vec<String> =
            spans.into_iter().filter(|(k, _)| *k == SpanKind::Date).map(|(_, t)| t).collect();
        assert_eq!(dates, vec!["Feb 3 2013", "SEPTEMBER 30, 2013", "May 1 2013"]);
        // Days that do not exist are not dates; non-ASCII words never panic.
        assert!(kinds_of("on Feb 30, 2013 or Maé 4, 2013").is_empty());
    }

    #[test]
    fn urls_extracted_and_trimmed() {
        let spans = kinds_of("read http://playbill.com/matilda, then www.broadway.org.");
        assert_eq!(
            spans,
            vec![
                (SpanKind::Url, "http://playbill.com/matilda".into()),
                (SpanKind::Url, "www.broadway.org".into())
            ]
        );
    }

    #[test]
    fn times_scanned() {
        let spans = kinds_of("Tues at 7pm Wed at 8pm");
        assert_eq!(
            spans,
            vec![(SpanKind::Time, "7pm".into()), (SpanKind::Time, "8pm".into())]
        );
        assert_eq!(kinds_of("doors 11AM"), vec![(SpanKind::Time, "11AM".into())]);
        // Only a twelve-hour time glued to its am/pm is scanned.
        assert!(kinds_of("at 19:30 or 7:30pm or 7 pm").is_empty());
    }

    #[test]
    fn spans_are_sorted_and_offsets_valid() {
        let text = "\"Matilda\" grossed 960,998 or 93% on 3/4/2013 per www.x.org site";
        let spans = scan_all(text);
        let mut last = 0;
        for s in &spans {
            assert!(s.start >= last || s.start < s.end, "sorted");
            assert_eq!(&text[s.start..s.end], s.text);
            last = s.start;
        }
        assert!(spans.len() >= 4);
    }
}
