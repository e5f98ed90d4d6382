//! The self-test behind CI's `dtlint --deny` step: the workspace itself
//! must be lint-clean. Any new order-dependent iteration, panic path, or
//! unsafe block either gets fixed or gets an explicit, reasoned waiver —
//! this test is what makes that a build break instead of a convention,
//! and it caps how many waivers the workspace may carry.

use std::path::Path;

use datatamer_lint::{load_config, run_workspace};

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = load_config(&root).expect("dtlint.toml parses");
    let report = run_workspace(&root, &cfg).expect("workspace walk succeeds");
    assert!(report.files_scanned > 100, "walk found the workspace ({} files)", report.files_scanned);
    let active: Vec<String> = report
        .active()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        active.is_empty(),
        "workspace must be dtlint-clean; fix or waive (with a reason):\n{}",
        active.join("\n")
    );
    // Waivers are a ratchet, not a free pass: a new one needs the ceiling
    // raised in the same change, with the reason it cannot be fixed.
    assert!(
        report.waived_count() <= 11,
        "{} dtlint waivers exceed the ceiling of 11; fix the new finding, or raise \
         the ceiling here with a reason why it cannot be fixed",
        report.waived_count()
    );
}
