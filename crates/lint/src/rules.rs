//! The rule engine: token-sequence rules over one lexed file.
//!
//! Three rule families keyed off `dtlint.toml` path prefixes, and two
//! rules with a fixed scope:
//!
//! * **determinism** — `map-iter` (order-dependent iteration over
//!   identifiers declared as `HashMap`/`HashSet` in the same file),
//!   `wall-clock` (`Instant::now` / `SystemTime::now`), `thread-spawn`
//!   (`thread::spawn` outside the rayon pool), `env-read`
//!   (`env::var*` / `env::temp_dir`). Fused output must be byte-identical
//!   across thread counts, backends, and incremental-vs-rebuild runs;
//!   every one of these constructs can silently break that.
//! * **panic-freedom** — `panic-path` (`.unwrap()` / `.expect(` /
//!   `panic!` / `unreachable!` / `todo!` / `unimplemented!` / `assert!` /
//!   `assert_eq!` / `assert_ne!` / indexing by integer literal) in crates
//!   whose IO paths are `Result`-typed. `debug_assert*!` stays allowed: it
//!   is compiled out of release builds.
//! * **unsafe-audit** — `unsafe-block`: `unsafe` anywhere outside the
//!   config allowlist (checked in test code too — an audit, not a style
//!   rule).
//! * `partial-cmp-equal`, everywhere: `partial_cmp(…).unwrap_or(Equal)`
//!   calls NaN equal to everything, so a sort may panic on the non-total
//!   order and a `min_by` keeps whichever value came first; `total_cmp`
//!   is the comparator.
//! * `dead-pub`, the one workspace-wide rule: a `pub fn` in a crate's
//!   non-test code (`crates/` minus the `lint` tool crate) whose name no
//!   other file mentions outside a `use` declaration, and its own file
//!   mentions only in test code. Doc comments' fenced code counts as a
//!   mention (a doctest is a caller). It reads a [`NameIndex`] built over
//!   every file before any file is linted. Names, not paths, are matched: two functions sharing a name
//!   keep each other alive.
//!
//! Test code is exempt from every rule but `unsafe-block` and
//! `bad-waiver`: `#[cfg(test)]` / `#[test]` items, `mod tests` blocks, and
//! whole files under `tests/`, `benches/`, or `examples/` directories.
//! (`dead-pub` still reads test code as callers.) Any finding can be waived
//! inline with `// dtlint::allow(<rule>, reason = "…")` — the reason is
//! mandatory (`bad-waiver` fires otherwise) — or path-scoped via
//! `[[allow]]` entries in `dtlint.toml`.
//!
//! `map-iter` is a two-pass heuristic, not type inference: pass one
//! records every identifier annotated `: …HashMap/HashSet…` (let
//! bindings, struct fields, fn params) or `let`-bound to an expression
//! mentioning `HashMap`/`HashSet`; pass two flags order-dependent
//! methods and bare `for … in` loops whose receiver's final path segment
//! is such an identifier. Maps constructed behind helper functions in
//! another file escape it — the runtime equivalence suites remain the
//! backstop; dtlint makes the *local* hazard impossible to miss.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{path_under, Config};
use crate::lexer::{lex, Lexed, Tok, TokKind};

/// Every rule dtlint knows, with a one-line description (for `--list-rules`).
pub const RULES: &[(&str, &str)] = &[
    ("map-iter", "order-dependent iteration over a HashMap/HashSet in an output-affecting crate"),
    ("wall-clock", "Instant::now / SystemTime::now in a pipeline crate"),
    ("thread-spawn", "raw thread::spawn in a pipeline crate (use the rayon pool)"),
    ("env-read", "environment read (env::var*, env::temp_dir) in a pipeline crate"),
    ("panic-path", "unwrap/expect/panic!/unreachable!/assert!/literal index on a panic-free path"),
    ("unsafe-block", "`unsafe` outside the dtlint.toml allowlist"),
    ("partial-cmp-equal", "partial_cmp(…).unwrap_or(Equal): no total order on NaN (use total_cmp)"),
    ("dead-pub", "pub fn under crates/ that nothing outside its own file's tests calls"),
    ("bad-waiver", "malformed dtlint::allow directive (unknown rule or missing reason)"),
];

pub fn known_rule(name: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == name)
}

/// One finding, waived or not.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub message: String,
    /// `Some(reason)` when an inline or baseline waiver covers the site.
    pub waived: Option<String>,
}

/// Which files name each identifier: every identifier of a file's code
/// outside `use` declarations (a re-export is not a call), test code
/// included, and of its doc comments' fenced code blocks. A `dead-pub`
/// candidate is cleared by any file other than its own.
#[derive(Debug, Default)]
pub struct NameIndex {
    files: Vec<String>,
    names: BTreeMap<String, BTreeSet<usize>>,
}

impl NameIndex {
    /// Index `(workspace-relative path, source)` pairs.
    pub fn build(files: &[(String, String)]) -> Self {
        let mut index = NameIndex::default();
        for (rel, source) in files {
            let id = index.files.len();
            index.files.push(rel.clone());
            let lexed = lex(source);
            let mut idents = doc_code_idents(&lexed);
            idents_outside_use(lexed.toks, &mut idents);
            for name in idents {
                index.names.entry(name).or_default().insert(id);
            }
        }
        index
    }

    fn named_outside(&self, name: &str, rel: &str) -> bool {
        self.names.get(name).is_some_and(|ids| ids.iter().any(|&id| self.files[id] != rel))
    }
}

/// Identifiers in the fenced code blocks of a file's doc comments.
fn doc_code_idents(lexed: &Lexed) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    idents_outside_use(lex(&lexed.doc_code).toks, &mut out);
    out
}

/// Add the identifiers of `toks` that sit outside `use` declarations.
fn idents_outside_use(toks: Vec<Tok>, out: &mut BTreeSet<String>) {
    let mut in_use = false;
    for t in toks {
        if t.is_ident("use") {
            in_use = true;
        } else if in_use && t.is_punct(';') {
            in_use = false;
        } else if !in_use && t.kind == TokKind::Ident {
            out.insert(t.text);
        }
    }
}

/// Lint one file's source. `rel` is the workspace-relative path (used for
/// family scoping and reported spans); `names` indexes the workspace for
/// `dead-pub`.
pub fn lint_source(rel: &str, source: &str, cfg: &Config, names: &NameIndex) -> Vec<Finding> {
    let lexed = lex(source);
    let toks = &lexed.toks;
    let test_mask = test_region_mask(toks);
    let file_is_test = file_is_test_context(rel);

    let determinism_on = Config::in_any(&cfg.determinism_paths, rel)
        && !Config::in_any(&cfg.determinism_exempt, rel);
    let panic_on = Config::in_any(&cfg.panic_paths, rel)
        && !Config::in_any(&cfg.determinism_exempt, rel);
    let unsafe_on = !Config::in_any(&cfg.unsafe_allow, rel);

    let mut findings: Vec<Finding> = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        findings.push(Finding { rule, file: rel.to_owned(), line, message, waived: None });
    };

    // Waiver hygiene fires regardless of family scoping.
    for w in &lexed.waivers {
        if !w.well_formed {
            push("bad-waiver", w.line, "malformed dtlint::allow directive".to_owned());
        } else if !known_rule(&w.rule) {
            push("bad-waiver", w.line, format!("dtlint::allow names unknown rule `{}`", w.rule));
        } else if !w.has_reason {
            push(
                "bad-waiver",
                w.line,
                format!("dtlint::allow({}) is missing its mandatory reason = \"…\"", w.rule),
            );
        }
    }

    let hash_idents = if determinism_on { collect_hash_idents(toks) } else { BTreeSet::new() };

    for i in 0..toks.len() {
        let in_test = file_is_test || test_mask[i];
        let t = &toks[i];

        // --- unsafe-audit (applies everywhere, tests included) ---
        if unsafe_on && t.is_ident("unsafe") {
            push("unsafe-block", t.line, "`unsafe` outside the dtlint.toml allowlist".to_owned());
        }

        if in_test {
            continue;
        }

        if t.is_ident("partial_cmp") && partial_cmp_or_equal_at(toks, i) {
            push(
                "partial-cmp-equal",
                t.line,
                "`partial_cmp(…).unwrap_or(Equal)` is not a total order on NaN — use \
                 `total_cmp`"
                    .to_owned(),
            );
        }

        // --- determinism family ---
        if determinism_on {
            if let Some((recv, method)) = order_method_at(toks, i, &hash_idents) {
                // Anchor at the method token, not the receiver: in a
                // multi-line chain that is the line a trailing waiver sits on.
                push(
                    "map-iter",
                    toks[i + 2].line,
                    format!(
                        "`{recv}.{method}()` iterates a HashMap/HashSet — order is \
                         unspecified; sort first, use a BTree collection, or waive with \
                         a reason"
                    ),
                );
            }
            if t.is_ident("for") {
                if let Some(recv) = for_in_hash_receiver(toks, i, &hash_idents) {
                    push(
                        "map-iter",
                        t.line,
                        format!(
                            "`for … in &{recv}` iterates a HashMap/HashSet — order is \
                             unspecified; sort first, use a BTree collection, or waive \
                             with a reason"
                        ),
                    );
                }
            }
            if let Some((what, rule)) = path_call_at(toks, i) {
                push(rule, t.line, format!("`{what}` in a pipeline crate breaks run-to-run determinism"));
            }
        }

        // --- panic-freedom family ---
        if panic_on {
            if t.is_punct('.')
                && matches!(toks.get(i + 1), Some(m) if m.is_ident("unwrap") || m.is_ident("expect"))
                && matches!(toks.get(i + 2), Some(p) if p.is_punct('('))
            {
                let m = &toks[i + 1].text;
                push(
                    "panic-path",
                    toks[i + 1].line,
                    format!("`.{m}(…)` on a panic-free path — route the failure through DtError"),
                );
            }
            // `debug_assert*!` is a separate identifier, so it stays allowed.
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic"
                        | "unreachable"
                        | "todo"
                        | "unimplemented"
                        | "assert"
                        | "assert_eq"
                        | "assert_ne"
                )
                && matches!(toks.get(i + 1), Some(p) if p.is_punct('!'))
            {
                push(
                    "panic-path",
                    t.line,
                    format!("`{}!` on a panic-free path — route the failure through DtError", t.text),
                );
            }
            // Indexing by integer literal: `xs[0]` (but not `[0u8; n]`).
            if t.is_punct('[')
                && i > 0
                && (toks[i - 1].kind == TokKind::Ident
                    || toks[i - 1].is_punct(')')
                    || toks[i - 1].is_punct(']'))
                && matches!(toks.get(i + 1), Some(x) if x.kind == TokKind::Int)
                && matches!(toks.get(i + 2), Some(p) if p.is_punct(']'))
            {
                push(
                    "panic-path",
                    t.line,
                    format!(
                        "indexing by literal `[{}]` on a panic-free path — use `.get(…)`",
                        toks[i + 1].text
                    ),
                );
            }
        }
    }

    if !file_is_test && dead_pub_scope(rel) {
        let doc_idents = doc_code_idents(&lexed);
        for (def, name) in pub_fn_names(toks, &test_mask) {
            let called = names.named_outside(&name.text, rel)
                || doc_idents.contains(&name.text)
                || toks
                    .iter()
                    .enumerate()
                    .any(|(k, t)| k != def && !test_mask[k] && t.is_ident(&name.text));
            if !called {
                push(
                    "dead-pub",
                    name.line,
                    format!(
                        "`pub fn {}` has no caller outside its own file's tests — delete it, \
                         or waive with a reason",
                        name.text
                    ),
                );
            }
        }
    }

    apply_waivers(&mut findings, &lexed, toks, rel, cfg);
    findings.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    findings
}

/// `partial_cmp ( … ) . unwrap_or ( [path ::] Equal )`; `i` points at
/// `partial_cmp`.
fn partial_cmp_or_equal_at(toks: &[Tok], i: usize) -> bool {
    if !matches!(toks.get(i + 1), Some(t) if t.is_punct('(')) {
        return false;
    }
    let mut depth = 0usize;
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    if !(matches!(toks.get(j + 1), Some(t) if t.is_punct('.'))
        && matches!(toks.get(j + 2), Some(t) if t.is_ident("unwrap_or"))
        && matches!(toks.get(j + 3), Some(t) if t.is_punct('(')))
    {
        return false;
    }
    // A path of identifiers and `::` whose last segment is `Equal`.
    let mut last = None;
    for t in &toks[(j + 4).min(toks.len())..] {
        if t.is_punct(')') {
            return last == Some("Equal");
        }
        match t.kind {
            TokKind::Ident => last = Some(t.text.as_str()),
            TokKind::Punct if t.is_punct(':') => {}
            _ => return false,
        }
    }
    false
}

/// `dead-pub` covers everything under `crates/` but the `lint` tool crate.
fn dead_pub_scope(rel: &str) -> bool {
    path_under(rel, "crates") && !path_under(rel, "crates/lint")
}

/// Non-test `pub [const|async|unsafe|extern "…"] fn name` definitions:
/// the index of the name token, and the token. `pub(crate)` and other
/// restricted visibilities are not `pub`.
fn pub_fn_names<'a>(toks: &'a [Tok], test_mask: &[bool]) -> Vec<(usize, &'a Tok)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if test_mask[i] || !toks[i].is_ident("pub") {
            continue;
        }
        let mut j = i + 1;
        while matches!(toks.get(j), Some(t) if t.kind == TokKind::Str
            || ["const", "async", "unsafe", "extern"].iter().any(|q| t.is_ident(q)))
        {
            j += 1;
        }
        if matches!(toks.get(j), Some(t) if t.is_ident("fn")) {
            if let Some(name) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) {
                out.push((j + 1, name));
            }
        }
    }
    out
}

/// Whole files under test/bench/example directories are test context.
fn file_is_test_context(rel: &str) -> bool {
    rel.split('/').any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Mark tokens inside `#[cfg(test)]` / `#[test]` / `#[bench]` items and
/// `mod tests { … }` blocks.
fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && matches!(toks.get(i + 1), Some(t) if t.is_punct('[')) {
            let (end, is_test) = scan_attr(toks, i);
            if is_test {
                // Skip any further attributes, then swallow the item.
                let mut j = end;
                while j < toks.len()
                    && toks[j].is_punct('#')
                    && matches!(toks.get(j + 1), Some(t) if t.is_punct('['))
                {
                    j = scan_attr(toks, j).0;
                }
                let item_end = item_extent(toks, j);
                for m in mask.iter_mut().take(item_end).skip(i) {
                    *m = true;
                }
                i = item_end;
                continue;
            }
            i = end;
            continue;
        }
        if toks[i].is_ident("mod")
            && matches!(toks.get(i + 1), Some(t) if t.is_ident("tests") || t.is_ident("test"))
        {
            let item_end = item_extent(toks, i);
            for m in mask.iter_mut().take(item_end).skip(i) {
                *m = true;
            }
            i = item_end;
            continue;
        }
        i += 1;
    }
    mask
}

/// Scan an attribute starting at `#`; returns (index past `]`, is-test).
/// Test-ish: the attribute mentions `test` or `bench` without a `not(…)`
/// (so `#[cfg(not(test))]` stays non-test code).
fn scan_attr(toks: &[Tok], start: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut i = start + 1;
    let mut mentions_test = false;
    let mut negated = false;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (i + 1, mentions_test && !negated);
            }
        } else if t.is_ident("test") || t.is_ident("bench") {
            mentions_test = true;
        } else if t.is_ident("not") {
            negated = true;
        }
        i += 1;
    }
    (toks.len(), false)
}

/// Extent of the item starting at `start`: through the matching `}` of
/// its first brace block, or through the first `;` outside all nesting.
fn item_extent(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0isize;
    let mut braces = 0isize;
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_bytes()[0] {
                b'{' => {
                    depth += 1;
                    braces += 1;
                }
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'}' => {
                    depth -= 1;
                    braces -= 1;
                    if braces == 0 && depth <= 0 {
                        return i + 1;
                    }
                }
                b';' if depth == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    toks.len()
}

/// Pass one of `map-iter`: names declared with a HashMap/HashSet type or
/// `let`-initialised from an expression mentioning one.
fn collect_hash_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        // `name : … HashMap/HashSet …` — let annotations, struct fields,
        // fn params, struct-literal fields. Exclude `::` paths.
        if toks[i].kind == TokKind::Ident
            && matches!(toks.get(i + 1), Some(c) if c.is_punct(':'))
            && !matches!(toks.get(i + 2), Some(c) if c.is_punct(':'))
            && !(i > 0 && toks[i - 1].is_punct(':'))
            && type_scan_mentions_hash(toks, i + 2)
        {
            out.insert(toks[i].text.clone());
        }
        // `let [mut] name = … HashMap/HashSet …`.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if matches!(toks.get(j), Some(t) if t.is_ident("mut")) {
                j += 1;
            }
            if matches!(toks.get(j), Some(t) if t.kind == TokKind::Ident)
                && matches!(toks.get(j + 1), Some(t) if t.is_punct('='))
                && !matches!(toks.get(j + 2), Some(t) if t.is_punct('='))
                && rhs_scan_mentions_hash(toks, j + 2)
            {
                out.insert(toks[j].text.clone());
            }
        }
    }
    out
}

/// Scan a type position until its terminator; true when it mentions
/// HashMap/HashSet. Bounded so a pathological file cannot hang the scan.
fn type_scan_mentions_hash(toks: &[Tok], from: usize) -> bool {
    let mut angle = 0isize;
    let mut nest = 0isize;
    for t in toks.iter().skip(from).take(64) {
        if t.kind == TokKind::Punct {
            match t.text.as_bytes()[0] {
                b'<' => angle += 1,
                b'>' => angle -= 1,
                b'(' | b'[' => nest += 1,
                b')' | b']' if nest > 0 => nest -= 1,
                b';' | b'=' | b'{' => return false,
                b',' | b')' | b']' | b'}' if angle <= 0 && nest <= 0 => return false,
                _ => {}
            }
        } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
            return true;
        }
    }
    false
}

/// Scan a `let` initialiser to its `;`; true when it mentions
/// HashMap/HashSet (covers `HashMap::new()`, `collect::<HashSet<_>>()`).
fn rhs_scan_mentions_hash(toks: &[Tok], from: usize) -> bool {
    let mut nest = 0isize;
    for t in toks.iter().skip(from).take(256) {
        if t.kind == TokKind::Punct {
            match t.text.as_bytes()[0] {
                b'(' | b'[' | b'{' => nest += 1,
                b')' | b']' | b'}' => nest -= 1,
                b';' if nest <= 0 => return false,
                _ => {}
            }
        } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
            return true;
        }
    }
    false
}

const ORDER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// `recv.method(` where `recv` is a known hash ident and `method` is
/// order-dependent. `i` points at the receiver identifier.
fn order_method_at<'a>(
    toks: &'a [Tok],
    i: usize,
    hash_idents: &BTreeSet<String>,
) -> Option<(&'a str, &'a str)> {
    let recv = &toks[i];
    if recv.kind != TokKind::Ident || !hash_idents.contains(&recv.text) {
        return None;
    }
    let dot = toks.get(i + 1)?;
    let method = toks.get(i + 2)?;
    let paren = toks.get(i + 3)?;
    if dot.is_punct('.')
        && method.kind == TokKind::Ident
        && ORDER_METHODS.contains(&method.text.as_str())
        && paren.is_punct('(')
    {
        return Some((&recv.text, &method.text));
    }
    None
}

/// `for pat in [&][mut] path { …` where the path's final segment is a
/// hash ident and the loop body starts immediately (method chains are
/// handled by `order_method_at`). `i` points at `for`.
fn for_in_hash_receiver<'a>(
    toks: &'a [Tok],
    i: usize,
    hash_idents: &BTreeSet<String>,
) -> Option<&'a str> {
    // Find `in` at nesting depth 0 within a short window.
    let mut depth = 0isize;
    let mut j = i + 1;
    let limit = (i + 40).min(toks.len());
    while j < limit {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_bytes()[0] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                _ => {}
            }
        } else if t.is_ident("in") && depth == 0 {
            break;
        }
        j += 1;
    }
    if j >= limit {
        return None;
    }
    j += 1;
    while matches!(toks.get(j), Some(t) if t.is_punct('&') || t.is_ident("mut")) {
        j += 1;
    }
    // Walk a `seg ( . seg | :: seg )*` path.
    let mut last: Option<usize> = None;
    while matches!(toks.get(j), Some(t) if t.kind == TokKind::Ident) {
        last = Some(j);
        j += 1;
        if matches!(toks.get(j), Some(t) if t.is_punct('.'))
            && matches!(toks.get(j + 1), Some(t) if t.kind == TokKind::Ident)
        {
            j += 1;
        } else if matches!(toks.get(j), Some(t) if t.is_punct(':'))
            && matches!(toks.get(j + 1), Some(t) if t.is_punct(':'))
            && matches!(toks.get(j + 2), Some(t) if t.kind == TokKind::Ident)
        {
            j += 2;
        } else {
            break;
        }
    }
    let last = last?;
    if matches!(toks.get(j), Some(t) if t.is_punct('{'))
        && hash_idents.contains(&toks[last].text)
    {
        return Some(&toks[last].text);
    }
    None
}

/// Nondeterministic calls recognised by path suffix: returns the display
/// form and the rule it violates. `i` points at the first path segment.
fn path_call_at(toks: &[Tok], i: usize) -> Option<(String, &'static str)> {
    let seg = &toks[i];
    if seg.kind != TokKind::Ident {
        return None;
    }
    let c1 = toks.get(i + 1)?;
    let c2 = toks.get(i + 2)?;
    let name = toks.get(i + 3)?;
    if !(c1.is_punct(':') && c2.is_punct(':') && name.kind == TokKind::Ident) {
        return None;
    }
    match (seg.text.as_str(), name.text.as_str()) {
        ("Instant" | "SystemTime", "now") => Some((format!("{}::now", seg.text), "wall-clock")),
        ("thread", "spawn") => Some(("thread::spawn".to_owned(), "thread-spawn")),
        ("env", "var" | "vars" | "var_os" | "vars_os" | "temp_dir") => {
            Some((format!("env::{}", name.text), "env-read"))
        }
        _ => None,
    }
}

/// Match findings against inline waivers (trailing: same line; standalone:
/// next code line) and dtlint.toml baseline entries.
fn apply_waivers(findings: &mut [Finding], lexed: &Lexed, toks: &[Tok], rel: &str, cfg: &Config) {
    for f in findings.iter_mut() {
        if f.rule == "bad-waiver" {
            continue;
        }
        let inline = lexed.waivers.iter().find(|w| {
            w.well_formed && w.has_reason && w.rule == f.rule && {
                if w.trailing {
                    w.line == f.line
                } else {
                    // Standalone comment covers the next line holding code.
                    next_code_line(toks, w.line) == Some(f.line)
                }
            }
        });
        if inline.is_some() {
            f.waived = Some("inline waiver".to_owned());
            continue;
        }
        if let Some(b) = cfg
            .baseline
            .iter()
            .find(|b| b.rule == f.rule && path_under(rel, &b.path))
        {
            f.waived = Some(format!("dtlint.toml: {}", b.reason));
        }
    }
}

fn next_code_line(toks: &[Tok], after: u32) -> Option<u32> {
    toks.iter().map(|t| t.line).find(|&l| l > after)
}
