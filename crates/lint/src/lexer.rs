//! A small Rust lexer, exact where it matters for linting.
//!
//! The rule engine never needs a full parse — it pattern-matches token
//! sequences — but it absolutely needs the token stream to be *clean*:
//! nothing inside a string literal, raw string, char literal, or comment
//! may ever surface as a token, or every rule would fire on its own
//! documentation. This lexer therefore handles the full literal grammar
//! (escapes, `r#"…"#` raw strings with arbitrary hash runs, byte/C-string
//! prefixes, char-vs-lifetime disambiguation, nested block comments) and
//! tracks line numbers through all of it.
//!
//! Comments are not discarded entirely: `// dtlint::allow(rule, reason =
//! "…")` waiver directives are parsed out of line comments and returned
//! alongside the tokens (see [`Waiver`]), and the fenced code blocks of
//! `///` / `//!` doc comments are kept as text ([`Lexed::doc_code`]) —
//! a doctest calls code just as a test does.

/// Token classification — just enough structure for sequence matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `for`, `unsafe`, `r#type`, …).
    Ident,
    /// Integer literal (`0`, `0x1F`, `42usize`).
    Int,
    /// Float literal (`1.5`, `1e-9`).
    Float,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`, `'_`).
    Lifetime,
    /// Single punctuation character (`.`, `:`, `{`, `!`, …).
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Identifier/number text; single char for `Punct`; empty for
    /// string/char literals (their content must never influence a rule).
    pub text: String,
    pub line: u32,
}

impl Tok {
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// A `// dtlint::allow(rule, reason = "…")` directive found in a comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Line the comment sits on.
    pub line: u32,
    /// Rule name as written (validated by the rule engine).
    pub rule: String,
    /// Whether a non-empty `reason = "…"` was supplied.
    pub has_reason: bool,
    /// Whether the directive was syntactically well-formed.
    pub well_formed: bool,
    /// True when code tokens precede the comment on the same line — a
    /// trailing waiver covers its own line; a standalone one covers the
    /// next code line.
    pub trailing: bool,
}

/// Lexer output: the token stream plus any waiver directives.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub waivers: Vec<Waiver>,
    /// The lines inside ```` ``` ```` fences of line doc comments, one per
    /// line, doc markers stripped (unlexed).
    pub doc_code: String,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src` into tokens and waiver directives. Never fails: unterminated
/// literals simply run to end of input (the rustc build catches those).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let n = b.len();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut line_has_code = false;
    let mut in_doc_fence = false;
    let mut out = Lexed::default();

    macro_rules! push {
        ($kind:expr, $text:expr) => {{
            out.toks.push(Tok { kind: $kind, text: $text, line });
            line_has_code = true;
            in_doc_fence = false;
        }};
    }

    while i < n {
        let c = b[i];
        // Whitespace and newlines.
        if c == b'\n' {
            line += 1;
            line_has_code = false;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            let start = i + 2;
            let mut j = start;
            while j < n && b[j] != b'\n' {
                j += 1;
            }
            let body = &src[start..j];
            if let Some(doc) = body.strip_prefix('/').or_else(|| body.strip_prefix('!')) {
                if doc.trim_start().starts_with("```") {
                    in_doc_fence = !in_doc_fence;
                } else if in_doc_fence {
                    out.doc_code.push_str(doc);
                    out.doc_code.push('\n');
                }
            }
            if let Some(w) = parse_waiver(body, line, line_has_code) {
                out.waivers.push(w);
            }
            i = j;
            continue;
        }
        if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // String-ish literals, including prefixed forms. The prefix chars
        // are also valid identifier starts, so check these first.
        if c == b'"' {
            i = skip_quoted(b, i, &mut line);
            push!(TokKind::Str, String::new());
            continue;
        }
        if (c == b'r' || c == b'b' || c == b'c') && i + 1 < n {
            if let Some(next) = string_prefix_end(b, i) {
                let (end, kind) = next;
                i = end;
                push!(kind, String::new());
                continue;
            }
            if c == b'r' && b[i + 1] == b'#' && i + 2 < n && is_ident_start(b[i + 2]) {
                // Raw identifier `r#type`.
                let mut j = i + 2;
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                push!(TokKind::Ident, src[i + 2..j].to_owned());
                i = j;
                continue;
            }
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            if i + 1 < n && b[i + 1] == b'\\' {
                // Escaped char literal: scan to the closing quote.
                let mut j = i + 2;
                if j < n {
                    j += 1; // the escaped character itself
                }
                while j < n && b[j] != b'\'' {
                    j += 1;
                }
                i = (j + 1).min(n);
                push!(TokKind::Char, String::new());
                continue;
            }
            if i + 1 < n && is_ident_start(b[i + 1]) {
                let mut j = i + 1;
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                if j < n && b[j] == b'\'' && j == i + 2 {
                    // Exactly one identifier-ish char then a quote: 'a'.
                    i = j + 1;
                    push!(TokKind::Char, String::new());
                } else {
                    // 'static, 'a followed by non-quote → lifetime.
                    push!(TokKind::Lifetime, src[i + 1..j].to_owned());
                    i = j;
                }
                continue;
            }
            // Punctuation char literal: '+', ' ', '"'.
            let mut j = i + 1;
            while j < n && b[j] != b'\'' {
                if b[j] == b'\n' {
                    line += 1;
                }
                j += 1;
            }
            i = (j + 1).min(n);
            push!(TokKind::Char, String::new());
            continue;
        }
        // Identifiers and keywords.
        if is_ident_start(c) {
            let mut j = i + 1;
            while j < n && is_ident_continue(b[j]) {
                j += 1;
            }
            push!(TokKind::Ident, src[i..j].to_owned());
            i = j;
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            let mut kind = TokKind::Int;
            if c == b'0' && j < n && (b[j] == b'x' || b[j] == b'o' || b[j] == b'b') {
                j += 1;
                while j < n && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
            } else {
                while j < n && (b[j].is_ascii_digit() || b[j] == b'_') {
                    j += 1;
                }
                // Fractional part only when a digit follows the dot
                // (so `0..n` stays an Int plus a range).
                if j + 1 < n && b[j] == b'.' && b[j + 1].is_ascii_digit() {
                    kind = TokKind::Float;
                    j += 1;
                    while j < n && (b[j].is_ascii_digit() || b[j] == b'_') {
                        j += 1;
                    }
                }
                // Exponent.
                if j < n
                    && (b[j] == b'e' || b[j] == b'E')
                    && (j + 1 < n
                        && (b[j + 1].is_ascii_digit()
                            || ((b[j + 1] == b'+' || b[j + 1] == b'-')
                                && j + 2 < n
                                && b[j + 2].is_ascii_digit())))
                {
                    kind = TokKind::Float;
                    j += 1;
                    if b[j] == b'+' || b[j] == b'-' {
                        j += 1;
                    }
                    while j < n && (b[j].is_ascii_digit() || b[j] == b'_') {
                        j += 1;
                    }
                }
                // Type suffix (`usize`, `f64`, …).
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
            }
            push!(kind, src[i..j].to_owned());
            i = j;
            continue;
        }
        // Everything else: single punctuation char.
        push!(TokKind::Punct, (c as char).to_string());
        i += 1;
    }
    out
}

/// Recognise a string literal starting at `i` with an `r`/`b`/`c` prefix
/// (`r"`, `r#"`, `b"`, `b'`, `br#"`, `cr"`, `c"` …). Returns the index
/// past the literal and its token kind, or None when `i` starts an
/// ordinary identifier.
fn string_prefix_end(b: &[u8], i: usize) -> Option<(usize, TokKind)> {
    let n = b.len();
    let mut j = i;
    let mut raw = false;
    // Consume up to two prefix letters (`br`, `cr`).
    if b[j] == b'b' || b[j] == b'c' {
        j += 1;
        if j < n && b[j] == b'r' {
            raw = true;
            j += 1;
        }
    } else if b[j] == b'r' {
        raw = true;
        j += 1;
    }
    if j >= n {
        return None;
    }
    if raw {
        // Count hashes; must then hit a quote to be a raw string.
        let mut hashes = 0usize;
        while j < n && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j < n && b[j] == b'"' {
            j += 1;
            // Scan for `"` followed by `hashes` hashes.
            loop {
                if j >= n {
                    return Some((n, TokKind::Str));
                }
                if b[j] == b'"' && b[j + 1..].len() >= hashes
                    && b[j + 1..j + 1 + hashes].iter().all(|&h| h == b'#')
                {
                    return Some((j + 1 + hashes, TokKind::Str));
                }
                j += 1;
            }
        }
        return None;
    }
    // Non-raw prefixed literal: `b"…"`, `c"…"`, `b'…'`.
    if b[j] == b'"' {
        return Some((skip_quoted_raw(b, j, b'"'), TokKind::Str));
    }
    if b[i] == b'b' && b[j] == b'\'' {
        return Some((skip_quoted_raw(b, j, b'\''), TokKind::Char));
    }
    None
}

/// Skip a quoted literal starting at the opening quote, honouring
/// backslash escapes, and counting newlines into `line`.
fn skip_quoted(b: &[u8], start: usize, line: &mut u32) -> usize {
    let n = b.len();
    let quote = b[start];
    let mut i = start + 1;
    while i < n {
        match b[i] {
            b'\\' => {
                if i + 1 < n && b[i + 1] == b'\n' {
                    *line += 1;
                }
                i = (i + 2).min(n);
            }
            b'\n' => {
                *line += 1;
                i += 1;
            }
            q if q == quote => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// Escape-aware quote skip that ignores newline counting (prefixed
/// literals are single-line in practice; miscounts would only skew a
/// span, never a match).
fn skip_quoted_raw(b: &[u8], start: usize, quote: u8) -> usize {
    let n = b.len();
    let mut i = start + 1;
    while i < n {
        match b[i] {
            b'\\' => i = (i + 2).min(n),
            q if q == quote => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// Parse a waiver directive out of one line comment's content. The
/// directive must be the first thing in the comment (after doc-comment
/// markers) so prose *mentioning* the syntax never parses as a waiver.
fn parse_waiver(comment: &str, line: u32, trailing: bool) -> Option<Waiver> {
    const NEEDLE: &str = "dtlint::allow(";
    let anchored = comment.trim_start_matches(['/', '!', ' ', '\t']);
    if !anchored.starts_with(NEEDLE) {
        return None;
    }
    let rest = &anchored[NEEDLE.len()..];
    // The closing paren must be found outside the quoted reason — the
    // reason text itself may contain parentheses.
    let mut in_str = false;
    let close = rest.char_indices().find_map(|(idx, ch)| match ch {
        '"' => {
            in_str = !in_str;
            None
        }
        ')' if !in_str => Some(idx),
        _ => None,
    });
    let close = match close {
        Some(c) => c,
        None => {
            return Some(Waiver {
                line,
                rule: String::new(),
                has_reason: false,
                well_formed: false,
                trailing,
            })
        }
    };
    let inner = &rest[..close];
    let mut parts = inner.splitn(2, ',');
    let rule = parts.next().unwrap_or("").trim().to_owned();
    let reason_part = parts.next().unwrap_or("").trim();
    let has_reason = reason_part
        .strip_prefix("reason")
        .map(|r| r.trim_start())
        .and_then(|r| r.strip_prefix('='))
        .map(|r| r.trim())
        .is_some_and(|r| {
            r.len() > 2 && r.starts_with('"') && r.ends_with('"') && r.len() > "\"\"".len()
        });
    let well_formed = !rule.is_empty() && !rule.contains(char::is_whitespace);
    Some(Waiver { line, rule, has_reason, well_formed, trailing })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_emit_no_idents() {
        let src = r###"
            // HashMap in a comment
            /* HashMap in /* a nested */ block */
            let s = "HashMap::iter()";
            let r = r#"for x in &map { HashMap }"#;
            let b = b"HashSet";
            let c = 'H';
        "###;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "HashMap" || i == "HashSet" || i == "map"));
        assert!(ids.contains(&"let".to_owned()));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let s = '\\n'; }").toks;
        let lifetimes: Vec<_> =
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).map(|t| t.text.clone()).collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        // 'static as a lifetime, not an unterminated char.
        let toks = lex("&'static str").toks;
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "static"));
    }

    #[test]
    fn raw_strings_with_hashes_and_raw_idents() {
        let toks = lex(r####"let x = r##"quote " and "# inside"##; let r#type = 1;"####).toks;
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert!(toks.iter().any(|t| t.is_ident("type")));
    }

    #[test]
    fn line_numbers_cross_literals() {
        let src = "let a = \"two\nlines\";\nlet b = 1;";
        let toks = lex(src).toks;
        let b_tok = toks.iter().find(|t| t.is_ident("b")).expect("b");
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn numbers_ranges_and_suffixes() {
        let toks = lex("for i in 0..10 { x[3]; y[0usize]; 1.5; 1e-9; }").toks;
        let ints: Vec<_> =
            toks.iter().filter(|t| t.kind == TokKind::Int).map(|t| t.text.clone()).collect();
        assert_eq!(ints, vec!["0", "10", "3", "0usize"]);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Float).count(), 2);
    }

    #[test]
    fn doc_code_keeps_fenced_doc_lines_only() {
        let src = "/// Prose `not_code()`.\n///\n/// ```\n/// let x = in_fence();\n/// ```\n\
                   //! ```\n//! inner_doc();\n//! ```\n// ```\n// plain_comment();\n\
                   /// ```\n/// unclosed();\nfn f() {}\n/// after_code();\n";
        let l = lex(src);
        // Code ends an unclosed fence.
        assert_eq!(l.doc_code, " let x = in_fence();\n inner_doc();\n unclosed();\n");
        assert!(!l.toks.iter().any(|t| t.is_ident("in_fence")));
    }

    #[test]
    fn waiver_parsing() {
        let l = lex("let x = 1; // dtlint::allow(map-iter, reason = \"sorted below\")\nlet y = 2;");
        assert_eq!(l.waivers.len(), 1);
        let w = &l.waivers[0];
        assert_eq!(w.rule, "map-iter");
        assert!(w.has_reason && w.well_formed && w.trailing);

        let l = lex("// dtlint::allow(panic-path)\nfoo();");
        let w = &l.waivers[0];
        assert!(!w.has_reason && w.well_formed && !w.trailing);

        let l = lex("// dtlint::allow(map-iter, reason = \"\")\nfoo();");
        assert!(!l.waivers[0].has_reason, "empty reason must not count");

        // Parentheses inside the quoted reason must not end the directive.
        let l = lex("// dtlint::allow(map-iter, reason = \"sorted by (count, idx) below\")\nfoo();");
        let w = &l.waivers[0];
        assert!(w.has_reason && w.well_formed, "parens in reason: {w:?}");
        assert_eq!(w.rule, "map-iter");
    }
}
