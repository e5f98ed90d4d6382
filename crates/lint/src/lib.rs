//! `dtlint` — the workspace's determinism & panic-freedom static gate.
//!
//! The system's core correctness contract is *byte-identical fused output*
//! across thread counts, storage backends, and incremental-vs-rebuild
//! runs. The runtime equivalence suites sample that contract; a single
//! `HashMap` iteration or wall-clock read on a hot path can break it in
//! ways a sampled test may never hit. `dtlint` turns the invariants into
//! a static gate: a hand-rolled, zero-dependency Rust lexer
//! ([`lexer`]) feeds a token-sequence rule engine ([`rules`]) configured
//! by `dtlint.toml` ([`config`]), reporting `file:line` spans in human or
//! JSON form ([`report`]) and exiting nonzero under `--deny`.
//!
//! See `crates/lint/README.md` for the rule catalogue and waiver syntax,
//! and the "Static analysis & invariants" section of the workspace
//! `src/lib.rs` for why determinism is load-bearing here.

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

pub use config::Config;
pub use report::Report;
pub use rules::{lint_source, Finding, NameIndex};

/// Directories never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "node_modules"];

/// Collect every `.rs` file under `root`, workspace-relative, sorted —
/// the scan order (and therefore the report) is deterministic.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Every `.rs` file under `root` as `(workspace-relative path, source)`,
/// in [`collect_rs_files`] order.
pub fn read_workspace(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    collect_rs_files(root)?
        .into_iter()
        .map(|rel| {
            let source = std::fs::read_to_string(root.join(&rel))?;
            Ok((rel.to_string_lossy().replace('\\', "/"), source))
        })
        .collect()
}

/// Lint the whole workspace under `root` with `cfg`; returns the
/// finalized report. The name index is built over every file before the
/// first is linted.
pub fn run_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let files = read_workspace(root)?;
    let names = NameIndex::build(&files);
    let mut report = Report::default();
    for (rel, source) in &files {
        report.push_file(lint_source(rel, source, cfg, &names));
    }
    report.finalize();
    Ok(report)
}

/// Load `dtlint.toml` from `root`, falling back to built-in defaults
/// when absent.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("dtlint.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => Config::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(_) => Ok(Config::default()),
    }
}
