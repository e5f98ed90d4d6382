//! `dtlint` CLI — lint the workspace (or an explicit file list) against
//! the repo's determinism / panic-freedom / unsafe-audit invariants.
//!
//! ```text
//! dtlint [--root DIR] [--config FILE] [--format human|json] [--deny]
//!        [--list-rules] [FILES…]
//! ```
//!
//! Exit codes: 0 clean (or findings without `--deny`), 1 findings under
//! `--deny`, 2 usage or IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use datatamer_lint::{
    lint_source, load_config, read_workspace, rules, run_workspace, Config, NameIndex, Report,
};

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    json: bool,
    deny: bool,
    list_rules: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        json: false,
        deny: false,
        list_rules: false,
        files: vec![],
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = it.next().ok_or("--root needs a value")?.into(),
            "--config" => args.config = Some(it.next().ok_or("--config needs a value")?.into()),
            "--format" => {
                args.json = match it.next().as_deref() {
                    Some("json") => true,
                    Some("human") => false,
                    other => return Err(format!("--format must be human|json, got {other:?}")),
                }
            }
            "--deny" => args.deny = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err("usage: dtlint [--root DIR] [--config FILE] \
                            [--format human|json] [--deny] [--list-rules] [FILES…]"
                    .to_owned())
            }
            f if !f.starts_with('-') => args.files.push(f.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for (rule, desc) in rules::RULES {
            println!("{rule:17} {desc}");
        }
        return ExitCode::SUCCESS;
    }
    let cfg: Config = match &args.config {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|t| Config::parse(&t).map_err(|e| format!("{}: {e}", path.display())))
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("dtlint: {e}");
                return ExitCode::from(2);
            }
        },
        None => match load_config(&args.root) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("dtlint: {e}");
                return ExitCode::from(2);
            }
        },
    };

    let report = if args.files.is_empty() {
        match run_workspace(&args.root, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("dtlint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        // `dead-pub` needs the whole workspace's names, not just these files'.
        let names = match read_workspace(&args.root) {
            Ok(files) => NameIndex::build(&files),
            Err(e) => {
                eprintln!("dtlint: {e}");
                return ExitCode::from(2);
            }
        };
        let mut report = Report::default();
        for f in &args.files {
            let rel = f
                .strip_prefix(&args.root)
                .unwrap_or(f)
                .to_string_lossy()
                .replace('\\', "/");
            match std::fs::read_to_string(f) {
                Ok(src) => report.push_file(lint_source(&rel, &src, &cfg, &names)),
                Err(e) => {
                    eprintln!("dtlint: {}: {e}", f.display());
                    return ExitCode::from(2);
                }
            }
        }
        report.finalize();
        report
    };

    if args.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if args.deny && report.active_count() > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
