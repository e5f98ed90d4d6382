//! Fixture-driven tests: every rule family fires on a positive snippet and
//! stays quiet on waived, test-only, string-literal, and comment occurrences.
//!
//! Fixtures are inline sources run through [`lint_source`] with crafted
//! workspace-relative paths, so path scoping (determinism crates, the
//! storage panic-freedom family, exempt dirs) is exercised for real.

use datatamer_lint::rules::lint_source;
use datatamer_lint::{Config, NameIndex};

/// Active (unwaived) rule names for `source` linted as `rel`.
fn active(rel: &str, source: &str) -> Vec<&'static str> {
    lint_source(rel, source, &Config::default(), &NameIndex::default())
        .iter()
        .filter(|f| f.waived.is_none())
        .map(|f| f.rule)
        .collect()
}

fn active_lines(rel: &str, source: &str, rule: &str) -> Vec<u32> {
    lint_source(rel, source, &Config::default(), &NameIndex::default())
        .iter()
        .filter(|f| f.waived.is_none() && f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// --- map-iter ---------------------------------------------------------

#[test]
fn map_iter_fires_on_order_methods() {
    let src = r#"
use std::collections::HashMap;
fn f() {
    let mut m: HashMap<String, f64> = HashMap::new();
    let mut total = 0.0;
    for (_, v) in m.iter() { total += v; }
}
"#;
    assert_eq!(active("crates/core/src/x.rs", src), vec!["map-iter"]);
}

#[test]
fn map_iter_fires_on_bare_for_loop() {
    let src = r#"
use std::collections::HashSet;
fn f() {
    let set: HashSet<u32> = HashSet::new();
    for v in &set {
        println!("{v}");
    }
}
"#;
    assert_eq!(active("src/main.rs", src), vec!["map-iter"]);
}

#[test]
fn map_iter_detects_let_initializer() {
    // No type annotation: the rhs `HashMap::new()` records the ident.
    let src = r#"
fn f() {
    let m = std::collections::HashMap::new();
    m.insert(1, 2);
    let _: Vec<_> = m.keys().collect();
}
"#;
    assert_eq!(active("crates/entity/src/x.rs", src), vec!["map-iter"]);
}

#[test]
fn map_iter_quiet_outside_determinism_paths() {
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> Vec<u32> { m.values().copied().collect() }
"#;
    // `crates/model` is not in the determinism family; `crates/bench` and
    // `shims` are explicitly exempt.
    assert!(active("crates/model/src/x.rs", src).is_empty());
    assert!(active("crates/bench/src/x.rs", src).is_empty());
    assert!(active("shims/rand/src/lib.rs", src).is_empty());
    // The same source in a determinism crate fires.
    assert_eq!(active("crates/sim/src/x.rs", src), vec!["map-iter"]);
}

#[test]
fn map_iter_quiet_on_vec_receivers() {
    let src = r#"
fn f() {
    let v: Vec<u32> = Vec::new();
    for x in v.iter() { println!("{x}"); }
    let _: u32 = v.into_iter().sum();
}
"#;
    assert!(active("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn map_iter_quiet_in_strings_and_comments() {
    let src = r##"
// for (k, v) in map.iter() { ... } — prose, not code
fn f() -> &'static str {
    let _ = "map.keys() in a string";
    let _ = r#"for x in &set { }"#;
    "ok"
}
"##;
    assert!(active("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn map_iter_quiet_under_cfg_test() {
    let src = r#"
use std::collections::HashMap;
#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        for (_, v) in m.iter() { assert!(*v > 0); }
    }
}
"#;
    assert!(active("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn map_iter_quiet_in_tests_dir() {
    let src = r#"
use std::collections::HashMap;
fn f(m: HashMap<u32, u32>) { for v in m.values() {} }
"#;
    assert!(active("crates/core/tests/x.rs", src).is_empty());
}

// --- waivers ----------------------------------------------------------

#[test]
fn trailing_waiver_silences_its_line() {
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> usize {
    m.values().count() // dtlint::allow(map-iter, reason = "order-independent count")
}
"#;
    let findings =
        lint_source("crates/core/src/x.rs", src, &Config::default(), &NameIndex::default());
    assert_eq!(findings.len(), 1);
    assert!(findings[0].waived.is_some(), "trailing waiver must apply: {findings:?}");
}

#[test]
fn standalone_waiver_covers_next_code_line() {
    let src = r#"
use std::collections::HashMap;
fn f(m: HashMap<u32, u32>) -> Vec<(u32, u32)> {
    let mut v: Vec<_> = m
        // dtlint::allow(map-iter, reason = "sorted by (key, value) on the next line")
        .into_iter()
        .collect();
    v.sort_unstable();
    v
}
"#;
    let findings =
        lint_source("crates/core/src/x.rs", src, &Config::default(), &NameIndex::default());
    assert_eq!(findings.len(), 1);
    assert!(findings[0].waived.is_some(), "standalone waiver must apply: {findings:?}");
}

#[test]
fn waiver_without_reason_is_rejected_and_site_still_fires() {
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> usize {
    m.values().count() // dtlint::allow(map-iter)
}
"#;
    let rules = active("crates/core/src/x.rs", src);
    assert!(rules.contains(&"bad-waiver"), "missing reason must flag: {rules:?}");
    assert!(rules.contains(&"map-iter"), "reasonless waiver must not silence: {rules:?}");
}

#[test]
fn waiver_with_unknown_rule_is_flagged() {
    let src = r#"
fn f() {} // dtlint::allow(no-such-rule, reason = "typo")
"#;
    assert_eq!(active("crates/core/src/x.rs", src), vec!["bad-waiver"]);
}

#[test]
fn waiver_for_wrong_rule_does_not_silence() {
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> usize {
    m.values().count() // dtlint::allow(panic-path, reason = "wrong family")
}
"#;
    assert!(active("crates/core/src/x.rs", src).contains(&"map-iter"));
}

#[test]
fn prose_mentioning_the_syntax_is_not_a_waiver() {
    // Doc prose explaining `dtlint::allow(<rule>, …)` mid-sentence must
    // neither waive anything nor fire bad-waiver.
    let src = r#"
//! Use a `// dtlint::allow(<rule>, reason = "…")` comment to waive.
fn f() {}
"#;
    assert!(active("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn baseline_waiver_from_config_applies() {
    // `Config::parse` is explicit — it does not inherit default paths —
    // so the fixture config declares its own determinism family.
    let cfg = Config::parse(
        r#"
[determinism]
paths = ["crates/core"]
exempt = []

[[allow]]
path = "crates/core/src/legacy.rs"
rule = "map-iter"
reason = "grandfathered; tracked in the determinism backlog"
"#,
    )
    .unwrap();
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> usize { m.values().count() }
"#;
    let findings = lint_source("crates/core/src/legacy.rs", src, &cfg, &NameIndex::default());
    assert_eq!(findings.len(), 1);
    assert!(findings[0].waived.as_deref().unwrap_or("").contains("dtlint.toml"));
    // A different file is untouched by the baseline entry.
    let other = lint_source("crates/core/src/other.rs", src, &cfg, &NameIndex::default());
    assert!(other[0].waived.is_none());
}

// --- wall-clock / thread-spawn / env-read ------------------------------

#[test]
fn wall_clock_fires_in_pipeline_crates() {
    let src = r#"
fn f() -> std::time::Instant { std::time::Instant::now() }
fn g() -> std::time::SystemTime { std::time::SystemTime::now() }
"#;
    assert_eq!(
        active("crates/core/src/x.rs", src),
        vec!["wall-clock", "wall-clock"]
    );
    // Exempt in the bench crate, which exists to measure wall time.
    assert!(active("crates/bench/src/x.rs", src).is_empty());
}

#[test]
fn thread_spawn_and_env_read_fire() {
    let src = r#"
fn f() {
    std::thread::spawn(|| {});
    let _ = std::env::var("HOME");
    let _ = std::env::temp_dir();
}
"#;
    let rules = active("crates/storage/src/x.rs", src);
    assert!(rules.contains(&"thread-spawn"), "{rules:?}");
    assert_eq!(rules.iter().filter(|r| **r == "env-read").count(), 2, "{rules:?}");
}

#[test]
fn clock_in_tests_is_fine() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = std::time::Instant::now(); }
}
"#;
    assert!(active("crates/core/src/x.rs", src).is_empty());
}

// --- panic-path --------------------------------------------------------

#[test]
fn panic_path_fires_only_in_storage() {
    let src = r#"
fn f(v: Option<u32>) -> u32 { v.unwrap() }
fn g(v: Option<u32>) -> u32 { v.expect("present") }
fn h() { panic!("boom"); }
fn i() { unreachable!(); }
fn j(s: &[u32]) -> u32 { s[0] }
"#;
    let rules = active("crates/storage/src/x.rs", src);
    assert_eq!(rules.iter().filter(|r| **r == "panic-path").count(), 5, "{rules:?}");
    // The same source outside the panic-freedom family is quiet.
    assert!(active("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn panic_path_quiet_in_storage_tests() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(Some(1).unwrap(), 1); }
}
"#;
    assert!(active("crates/storage/src/x.rs", src).is_empty());
}

#[test]
fn panic_path_ignores_variable_indexing() {
    // Only literal-index expressions are flagged; `s[i]` has a bound that
    // the surrounding code usually established.
    let src = r#"
fn f(s: &[u32], i: usize) -> u32 { s[i] }
"#;
    assert!(active("crates/storage/src/x.rs", src).is_empty());
}

// --- unsafe-block ------------------------------------------------------

#[test]
fn unsafe_fires_everywhere_by_default() {
    let src = r#"
fn f(p: *const u32) -> u32 { unsafe { *p } }
"#;
    assert_eq!(active("crates/model/src/x.rs", src), vec!["unsafe-block"]);
    assert_eq!(active("crates/core/src/x.rs", src), vec!["unsafe-block"]);
}

#[test]
fn unsafe_allowlist_exempts_path() {
    let cfg = Config::parse(
        r#"
[unsafe_audit]
allow = ["shims/parking_lot"]
"#,
    )
    .unwrap();
    let src = "fn f(p: *const u32) -> u32 { unsafe { *p } }";
    assert!(lint_source("shims/parking_lot/src/lib.rs", src, &cfg, &NameIndex::default())
        .iter()
        .all(|f| f.rule != "unsafe-block"));
    assert!(lint_source("crates/core/src/x.rs", src, &cfg, &NameIndex::default())
        .iter()
        .any(|f| f.rule == "unsafe-block"));
}

// --- partial-cmp-equal ---------------------------------------------------

#[test]
fn partial_cmp_equal_fires_on_both_spellings() {
    let src = r#"
use std::cmp::Ordering;
fn f(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    xs.sort_by(|a, b| b.partial_cmp(&a).unwrap_or(std::cmp::Ordering::Equal));
}
fn g(xs: &[(u32, f64)]) -> Option<&(u32, f64)> {
    use std::cmp::Ordering::Equal;
    xs.iter().max_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(Equal))
}
"#;
    // Workspace-wide: outside every configured family too.
    assert_eq!(active_lines("crates/model/src/x.rs", src, "partial-cmp-equal"), vec![4, 5, 9]);
    assert_eq!(active_lines("crates/bench/src/x.rs", src, "partial-cmp-equal"), vec![4, 5, 9]);
}

#[test]
fn partial_cmp_equal_quiet_on_total_cmp_other_fallbacks_and_tests() {
    let src = r#"
fn f(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b));
    let _ = xs[0].partial_cmp(&xs[1]).unwrap_or(std::cmp::Ordering::Less);
    let _ = xs[0].partial_cmp(&xs[1]).is_some();
}
impl PartialOrd for K {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> { Some(self.cmp(other)) }
}
#[cfg(test)]
mod tests {
    fn t(xs: &mut [f64]) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    }
}
"#;
    assert!(active("crates/model/src/x.rs", src).is_empty());
}

#[test]
fn partial_cmp_equal_takes_a_reasoned_waiver() {
    let src = r#"
fn f(a: f64, b: f64) -> std::cmp::Ordering {
    // dtlint::allow(partial-cmp-equal, reason = "inputs are finite by construction")
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}
"#;
    let findings =
        lint_source("crates/model/src/x.rs", src, &Config::default(), &NameIndex::default());
    assert_eq!(findings.len(), 1);
    assert!(findings[0].waived.is_some(), "{findings:?}");
}

// --- dead-pub -------------------------------------------------------------

/// Active `dead-pub` names when `files[0]` is linted against an index of
/// every file.
fn dead_pub(files: &[(&str, &str)]) -> Vec<String> {
    let owned: Vec<(String, String)> =
        files.iter().map(|(rel, src)| (rel.to_string(), src.to_string())).collect();
    let names = NameIndex::build(&owned);
    let (rel, src) = files[0];
    lint_source(rel, src, &Config::default(), &names)
        .into_iter()
        .filter(|f| f.rule == "dead-pub" && f.waived.is_none())
        .map(|f| f.message.split('`').nth(1).unwrap_or("").to_owned())
        .collect()
}

const LIB: &str = r#"
pub fn helper() -> u32 { 1 }

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn t() { assert_eq!(helper(), 1); }
}
"#;

#[test]
fn dead_pub_fires_when_only_own_tests_call() {
    assert_eq!(dead_pub(&[("crates/model/src/lib.rs", LIB)]), vec!["pub fn helper"]);
    // A name in another file's string or plain comment is not a caller.
    let prose = "// helper()\nfn f() -> &'static str { \"helper\" }\n";
    assert_eq!(
        dead_pub(&[("crates/model/src/lib.rs", LIB), ("src/main.rs", prose)]),
        vec!["pub fn helper"]
    );
}

#[test]
fn dead_pub_quiet_when_another_files_test_calls() {
    let caller = "#[test]\nfn t() { assert_eq!(datatamer_model::helper(), 1); }\n";
    assert!(dead_pub(&[("crates/model/src/lib.rs", LIB), ("tests/x.rs", caller)]).is_empty());
    // …but a re-export alone is not a call.
    let reexport = "pub use crate::helper;\npub use crate::{other, helper as h};\n";
    assert_eq!(
        dead_pub(&[("crates/model/src/lib.rs", LIB), ("crates/model/src/re.rs", reexport)]),
        vec!["pub fn helper"]
    );
}

#[test]
fn dead_pub_quiet_when_a_doc_code_block_calls() {
    let doc = "//! ```\n//! assert_eq!(datatamer_model::helper(), 1);\n//! ```\npub mod m {}\n";
    assert!(dead_pub(&[("crates/model/src/lib.rs", LIB), ("src/lib.rs", doc)]).is_empty());
    // Doc prose outside a fence is not code.
    let prose = "//! Call `helper()` for one.\npub mod m {}\n";
    assert_eq!(
        dead_pub(&[("crates/model/src/lib.rs", LIB), ("src/lib.rs", prose)]),
        vec!["pub fn helper"]
    );
}

#[test]
fn dead_pub_quiet_when_own_non_test_code_calls() {
    let src = "pub fn helper() -> u32 { 1 }\npub(crate) fn two() -> u32 { helper() + 1 }\n";
    assert!(dead_pub(&[("crates/model/src/lib.rs", src)]).is_empty());
    // `pub(crate)` is not `pub`, so `two` is out of scope; qualifiers are in.
    let src = "pub const fn one() -> u32 { 1 }\n";
    assert_eq!(dead_pub(&[("crates/model/src/lib.rs", src)]), vec!["pub fn one"]);
}

#[test]
fn dead_pub_scope_is_the_library_crates() {
    // The bench crate is in scope: its harness API has callers to keep.
    assert_eq!(dead_pub(&[("crates/bench/src/setup.rs", LIB)]), vec!["pub fn helper"]);
    for rel in [
        "crates/lint/src/lib.rs",
        "crates/model/tests/x.rs",
        "crates/model/examples/x.rs",
        "src/lib.rs",
        "dtbench/src/main.rs",
    ] {
        assert!(dead_pub(&[(rel, LIB)]).is_empty(), "{rel} is out of scope");
    }
}

#[test]
fn dead_pub_takes_a_reasoned_waiver() {
    let src =
        "// dtlint::allow(dead-pub, reason = \"deliberate API\")\npub fn helper() -> u32 { 1 }\n";
    assert!(dead_pub(&[("crates/model/src/lib.rs", src)]).is_empty());
}

// --- spans -------------------------------------------------------------

#[test]
fn findings_carry_correct_lines() {
    let src = "\nfn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
    assert_eq!(active_lines("crates/storage/src/x.rs", src, "panic-path"), vec![3]);
}
