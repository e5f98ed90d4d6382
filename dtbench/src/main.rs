//! `dtbench` — the repo's end-to-end benchmark. See `README.md` beside
//! `Cargo.toml` and the root `BENCHMARK.json`.
//!
//! One process, one workload per driver run:
//! `dtbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates the inputs from the seed, sets the system up, measures for
//! `--seconds`, checks the outputs and prints one JSON result as the last
//! line. Without `--workload` it runs every workload in turn.

// The root clippy.toml bans the clock constructors in pipeline code; a
// benchmark is where the clock is read (crates/bench opts out the same way).
#![allow(clippy::disallowed_methods)]

mod batch;
mod compare;
mod gen;
mod http;
mod json;
mod layers;
mod serve;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::{quote, Json};
use spec::{Outcome, Sizing, Spec, DEFAULT_SEED, WORKLOADS};
use trace::Tracer;

/// What one workload run is given.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizing: Sizing,
    /// This process's scratch root (write-ahead logs); removed at exit.
    pub scratch: PathBuf,
    /// Where trace files go.
    pub trace_dir: PathBuf,
}

impl RunArgs {
    /// Write the workload's spans out, now that it has ended.
    pub fn write_trace(&self, workload: &str, tracer: &Tracer, out: &mut Outcome) {
        let path = self.trace_dir.join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(&self.trace_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(workload)));
        match written {
            Ok(()) => out.note(format!(
                "{} spans written to {}",
                tracer.spans.len(),
                path.display()
            )),
            Err(e) => out.note(format!("trace not written to {}: {e}", path.display())),
        }
    }
}

pub fn run_workload(workload: &str, args: &RunArgs) -> Outcome {
    match workload {
        "batch_text" | "batch_er" => batch::run(workload, args),
        "serve_read" => serve::run_read(args),
        "serve_ingest" => serve::run_ingest(args),
        "restart" => serve::run_restart(args),
        other => unreachable!("workload {other} was validated at the command line"),
    }
}

/// Removes the scratch root when the process is done with it.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything this program writes lives beside its own executable, that
/// is inside the build directory of the checkout it was built from.
fn exe_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

const USAGE: &str = "usage: dtbench [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--out <file>] [--smoke]
       dtbench --compare <a.json> <b.json>
workloads: batch_text batch_er serve_read serve_ingest restart (all of them when none is named)";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                cli.workload = Some(name.clone());
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("dtbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    if let Some((a, b)) = &cli.compare {
        return compare::run(&spec, a, b);
    }

    match &cli.workload {
        Some(workload) => run_one(&spec, &cli, workload),
        None => sweep(&cli),
    }
}

/// One workload in one mode in this process: what the driver runs.
fn run_one(spec: &Spec, cli: &Cli, workload: &str) -> ExitCode {
    let exe_dir = exe_dir();
    let scratch = Scratch(exe_dir.join(format!("dtbench-run-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&scratch.0);
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("dtbench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::from(2);
    }
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli
            .seconds
            .unwrap_or(if cli.smoke { 0.05 } else { spec.run_seconds }),
        trace: cli.trace,
        sizing: if cli.smoke {
            Sizing::smoke()
        } else {
            Sizing::full()
        },
        scratch: scratch.0.clone(),
        trace_dir: exe_dir.join("dtbench-trace"),
    };
    let (listed, mode) = match cli.trace {
        true => (&spec.per_layer, "traced, per layer"),
        false => (&spec.end_to_end, "end to end"),
    };
    println!(
        "{workload} ({mode}) seed {} host.cores {} host.rayon_threads {}",
        cli.seed,
        std::thread::available_parallelism().map_or(1, usize::from),
        rayon::current_num_threads()
    );
    let out = run_workload(workload, &args);
    print!("{}", out.report(listed));
    println!("  failed_share {} / {}", out.failed, out.attempted.max(1));
    println!("{}", out.result_json(listed, !cli.trace));
    ExitCode::SUCCESS
}

/// Every workload in turn, each in a process of its own exactly as the
/// driver would start it (so `peak_rss_mb` is the workload's and not the
/// sweep's), end to end and, with `--trace 1`, traced as well.
fn sweep(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("dtbench: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = 0.0;
    let mut file = Vec::new();
    for workload in WORKLOADS {
        let mut metrics: Vec<String> = Vec::new();
        let (mut attempted, mut workload_failed) = (0.0, 0.0);
        for trace in [Some("0"), cli.trace.then_some("1")].into_iter().flatten() {
            let mut child = Command::new(&exe);
            child.args(["--workload", workload, "--trace", trace]);
            child.args(["--seed", &cli.seed.to_string()]);
            if let Some(seconds) = cli.seconds {
                child.args(["--seconds", &seconds.to_string()]);
            }
            if cli.smoke {
                child.arg("--smoke");
            }
            // `output` waits for the child to end.
            let stdout = match child.stderr(Stdio::inherit()).output() {
                Ok(output) => String::from_utf8_lossy(&output.stdout).into_owned(),
                Err(e) => {
                    eprintln!("dtbench: cannot start {workload}: {e}");
                    return ExitCode::from(2);
                }
            };
            print!("{stdout}");
            let Some(result) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
                eprintln!("dtbench: {workload} (trace {trace}) printed no result");
                return ExitCode::FAILURE;
            };
            attempted += result.get("attempted").and_then(Json::num).unwrap_or(0.0);
            workload_failed += result.get("failed").and_then(Json::num).unwrap_or(1.0);
            for (name, metric) in result.get("metrics").map(Json::fields).unwrap_or_default() {
                let value = metric.get("value").and_then(Json::num).unwrap_or(0.0);
                metrics.push(format!("{}: {value}", quote(name)));
            }
        }
        failed += workload_failed;
        file.push(format!(
            "{}: {{\"attempted\": {attempted}, \"failed\": {workload_failed}, \"metrics\": {{{}}}}}",
            quote(workload),
            metrics.join(", ")
        ));
    }
    if let Some(path) = &cli.out {
        let doc = format!(
            "{{\"seed\": {}, \"workloads\": {{\n{}\n}}}}\n",
            cli.seed,
            file.join(",\n")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("dtbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if failed > 0.0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at smoke size, both modes: exactly the names listed
    /// in `BENCHMARK.json` come out, each once, each finite; nothing fails.
    #[test]
    fn smoke_emits_exactly_the_listed_metrics() {
        let spec = Spec::load();
        let dir = exe_dir().join(format!("dtbench-smoke-{}", std::process::id()));
        let scratch = Scratch(dir.clone());
        std::fs::create_dir_all(&dir).unwrap();
        let mut per_layer_seen = std::collections::BTreeSet::new();
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    seed: 7,
                    seconds: 0.05,
                    trace,
                    sizing: Sizing::smoke(),
                    scratch: dir.clone(),
                    trace_dir: dir.join("trace"),
                };
                let out = run_workload(workload, &args);
                assert_eq!(out.failed, 0, "{workload} trace={trace}: {:?}", out.notes);
                assert!(out.attempted >= 1);
                let listed = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                for m in &out.metrics {
                    assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                    assert!(
                        listed.iter().any(|s| s.name == m.name),
                        "{workload} trace={trace} emitted {}, which BENCHMARK.json does not list",
                        m.name
                    );
                }
                if trace {
                    per_layer_seen.extend(out.metrics.iter().map(|m| m.name.clone()));
                    assert!(dir
                        .join("trace")
                        .join(format!("trace-{workload}.json"))
                        .exists());
                } else {
                    let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
                    let want: Vec<&str> = spec.end_to_end.iter().map(|s| s.name.as_str()).collect();
                    assert_eq!(names, want, "{workload} end-to-end metrics, in order");
                    assert!(
                        out.metrics.iter().all(|m| m.value > 0.0),
                        "{workload}: {:?}",
                        out.metrics
                    );
                }
                let line = out.result_json(listed, !trace);
                let parsed = json::Json::parse(&line).unwrap();
                assert_eq!(parsed.get("metrics").unwrap().fields().len(), listed.len());
                assert_eq!(parsed.get("correct"), Some(&json::Json::Bool(true)));
            }
        }
        let listed: std::collections::BTreeSet<String> =
            spec.per_layer.iter().map(|s| s.name.clone()).collect();
        assert_eq!(
            per_layer_seen, listed,
            "every listed per-layer metric is measured by some workload"
        );
        drop(scratch);
        assert!(!dir.exists(), "scratch root removed");
    }

    #[test]
    fn command_line_is_validated() {
        let parse =
            |s: &str| parse_cli(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let cli = parse("--workload batch_er --seed 9 --seconds 2.5 --trace 1")
            .ok()
            .unwrap();
        assert_eq!(
            (cli.workload.as_deref(), cli.seed, cli.seconds, cli.trace),
            (Some("batch_er"), 9, Some(2.5), true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace yes").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
    }
}
