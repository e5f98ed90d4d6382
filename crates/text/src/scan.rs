//! Hand-rolled pattern scanners over token streams.
//!
//! Each scanner walks the token stream produced by [`crate::tokenize`] and
//! emits spans: money amounts, percentages, dates, clock times, URLs, and
//! quoted titles. These power both entity extraction (URLs, titles) and the
//! instance-level attributes (grosses, prices, dates) the demo queries use.
//!
//! The scanners take the token stream as an argument ([`scan_tokens`]) so
//! the parser tokenises a fragment once for them and for its other
//! extractors. Each scanner does real work only on tokens that can start a
//! match: money suffixes and context words compare ASCII
//! case-insensitively in place, a month-name date is tried only where the
//! first word is a month name, and a clock time only at a token that
//! starts with a digit.

use datatamer_model::infer;

use crate::tokenize::{tokenize, Token};

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
/// This list and [`MONEY_SUFFIXES`] are lowercase ASCII without a `k`, so
/// `eq_ignore_ascii_case` against a token is exactly "the token's
/// `to_lowercase` equals the word": the only non-ASCII char whose
/// lowercase is all ASCII is the Kelvin sign (to `k`).
const MONEY_CONTEXT: &[&str] = &["grossed", "gross", "earned", "made", "cost", "costs", "price", "priced"];

/// Currency words that make the number before them a money amount.
const MONEY_SUFFIXES: &[&str] = &["usd", "eur", "gbp", "dollars", "euros", "pounds"];

/// Run all scanners and return spans sorted by start offset.
pub fn scan_all(text: &str) -> Vec<Span> {
    scan_tokens(text, &tokenize(text))
}

/// [`scan_all`] over `tokenize(text)` the caller already has.
pub fn scan_tokens(text: &str, tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    scan_urls(text, &mut spans);
    scan_quoted_titles(text, &mut spans);
    scan_money(text, tokens, &mut spans);
    scan_percent(text, tokens, &mut spans);
    scan_dates(text, tokens, &mut spans);
    scan_times(tokens, &mut spans);
    spans.sort_by_key(|s| (s.start, s.end));
    spans
}

/// True when `word` equals one of `list` ASCII case-insensitively.
fn is_one_of(word: &str, list: &[&str]) -> bool {
    list.iter().any(|w| word.eq_ignore_ascii_case(w))
}

fn scan_urls(raw: &str, out: &mut Vec<Span>) {
    // The tokenizer splits at "://", so scan the raw text for scheme
    // markers and take each URL forward to the next whitespace.
    let mut search = 0usize;
    while search < raw.len() {
        let rest = &raw[search..];
        let rel = ["http://", "https://", "www."]
            .iter()
            .filter_map(|m| rest.find(m))
            .min();
        let Some(rel) = rel else { break };
        let start = search + rel;
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
            out.push(Span {
                kind: SpanKind::Url,
                text: candidate.to_owned(),
                start,
                end,
            });
        }
        search = end.max(start + 1);
    }
}

fn scan_quoted_titles(text: &str, out: &mut Vec<Span>) {
    // Both straight and curly double quotes.
    let opens: &[char] = &['"', '\u{201c}'];
    let closes: &[char] = &['"', '\u{201d}'];
    let mut idx = 0usize;
    while idx < text.len() {
        let Some((open_rel, open)) = text[idx..].char_indices().find(|(_, c)| opens.contains(c))
        else {
            break;
        };
        let inner_start = idx + open_rel + open.len_utf8();
        let Some((close_rel, close)) =
            text[inner_start..].char_indices().find(|(_, c)| closes.contains(c))
        else {
            break;
        };
        let close_abs = inner_start + close_rel;
        let inner = &text[inner_start..close_abs];
        // A plausible title: 1..=8 words, at least one capitalised word,
        // no sentence punctuation inside.
        let words: Vec<&str> = inner.split_whitespace().collect();
        let ok = !words.is_empty()
            && words.len() <= 8
            && words.iter().any(|w| w.chars().next().is_some_and(char::is_uppercase))
            && !inner.contains(['.', ';', '!', '?']);
        if ok {
            out.push(Span {
                kind: SpanKind::QuotedTitle,
                text: inner.to_owned(),
                start: inner_start,
                end: close_abs,
            });
        }
        idx = close_abs + close.len_utf8();
    }
}

fn scan_money(text: &str, tokens: &[Token], out: &mut Vec<Span>) {
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        // Symbol-prefixed: "$" "960,998" (tokenizer splits the symbol off).
        if matches!(t.text, "$" | "€" | "£" | "¥") {
            if let Some(next) = tokens.get(i + 1) {
                if next.is_numeric() {
                    out.push(Span {
                        kind: SpanKind::Money,
                        text: text[t.start..next.end].to_owned(),
                        start: t.start,
                        end: next.end,
                    });
                    i += 2;
                    continue;
                }
            }
        }
        // Suffix code: "27 USD" / "27 dollars" / "27 euros".
        if t.is_numeric() {
            if let Some(next) = tokens.get(i + 1) {
                if is_one_of(next.text, MONEY_SUFFIXES) {
                    out.push(Span {
                        kind: SpanKind::Money,
                        text: text[t.start..next.end].to_owned(),
                        start: t.start,
                        end: next.end,
                    });
                    i += 2;
                    continue;
                }
            }
            // Context-word gross: "grossed 960,998".
            if let Some(prev) = i.checked_sub(1).and_then(|p| tokens.get(p)) {
                if is_one_of(prev.text, MONEY_CONTEXT)
                    && infer::parse_integer(t.text).is_some_and(|v| v >= 1000)
                {
                    out.push(Span {
                        kind: SpanKind::Gross,
                        text: t.text.to_owned(),
                        start: t.start,
                        end: t.end,
                    });
                }
            }
        }
        i += 1;
    }
}

fn scan_percent(text: &str, tokens: &[Token], out: &mut Vec<Span>) {
    for (num, next) in tokens.iter().zip(tokens.iter().skip(1)) {
        let is_pct = next.text == "%" || next.text.eq_ignore_ascii_case("percent");
        if is_pct && num.is_numeric() {
            out.push(Span {
                kind: SpanKind::Percent,
                text: text[num.start..next.end].to_owned(),
                start: num.start,
                end: next.end,
            });
        }
    }
}

fn scan_dates(text: &str, tokens: &[Token], out: &mut Vec<Span>) {
    for (i, t) in tokens.iter().enumerate() {
        // Slash-numeric dates arrive as one token? '/' is not internal punct,
        // so "3/4/2013" tokenizes as 3 / 4 / 2013 — stitch a 5-token window.
        if tokens.get(i + 1).is_some_and(|x| x.text == "/") && t.is_numeric() {
            if let (Some(b), Some(s2), Some(c)) =
                (tokens.get(i + 2), tokens.get(i + 3), tokens.get(i + 4))
            {
                if b.is_numeric() && s2.text == "/" && c.is_numeric() {
                    let candidate = &text[t.start..c.end];
                    if infer::parse_date(candidate).is_some() {
                        out.push(Span {
                            kind: SpanKind::Date,
                            text: candidate.to_owned(),
                            start: t.start,
                            end: c.end,
                        });
                    }
                }
            }
        }
        // Month-name dates: "March 4, 2013" => tokens [March][4][,?][2013].
        // A candidate starting with a capital can match neither
        // `parse_date`'s numeric form nor its "4 March 2013" form, so only
        // a month name as its first whitespace- or comma-delimited word can
        // make it a date; anywhere else the window is skipped unparsed.
        if t.is_capitalized() && infer::is_month_name(first_word(&text[t.start..])) {
            let window_end = (i + 4).min(tokens.len());
            for j in (i + 2)..=window_end.saturating_sub(1) {
                let candidate = &text[t.start..tokens[j].end];
                if infer::parse_date(candidate).is_some() {
                    out.push(Span {
                        kind: SpanKind::Date,
                        text: candidate.to_owned(),
                        start: t.start,
                        end: tokens[j].end,
                    });
                    break;
                }
            }
        }
    }
}

/// The text up to the first whitespace or comma — the first word
/// `parse_date` sees in a candidate starting here.
fn first_word(text: &str) -> &str {
    text.split(|c: char| c.is_whitespace() || c == ',').next().unwrap_or(text)
}

fn scan_times(tokens: &[Token], out: &mut Vec<Span>) {
    // Lowercasing never turns a non-digit into a digit, so only a token
    // starting with one can be a time.
    for t in tokens.iter().filter(|t| t.text.starts_with(|c: char| c.is_ascii_digit())) {
        let lower = t.text.to_lowercase();
        let looks_like_time = lower.ends_with("am") || lower.ends_with("pm");
        if looks_like_time && infer::infer_str(&lower) == infer::LexicalType::Time {
            out.push(Span { kind: SpanKind::Time, text: t.text.to_owned(), start: t.start, end: t.end });
        }
    }
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
