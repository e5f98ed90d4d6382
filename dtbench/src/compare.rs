//! `--compare a.json b.json`: two result files (written with `--out`) set
//! against the bounds of `BENCHMARK.json`.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};

/// By what share of `a` the metric got worse from `a` to `b`; negative
/// when it got better.
pub fn worsening(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if spec.lower_is_better {
        change
    } else {
        -change
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(spec: &Spec, a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dtbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .map(|w| w.fields().to_vec())
            .unwrap_or_default()
    };
    let mut exceeded = 0;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for (workload, in_a) in workloads(&a) {
        let Some(in_b) = b.get("workloads").and_then(|w| w.get(&workload)) else {
            println!("{workload:<14} missing from b");
            exceeded += 1;
            continue;
        };
        for (doc, side) in [(&in_a, "a"), (in_b, "b")] {
            let failed = doc.get("failed").and_then(Json::num).unwrap_or(0.0);
            if failed > 0.0 {
                println!("{workload:<14} {failed} failed operations in {side}");
                exceeded += 1;
            }
        }
        for metric in &spec.end_to_end {
            let value = |doc: &Json| {
                doc.get("metrics")
                    .and_then(|m| m.get(&metric.name))
                    .and_then(Json::num)
            };
            let (Some(va), Some(vb)) = (value(&in_a), value(in_b)) else {
                continue;
            };
            let worse = worsening(metric, va, vb);
            let bound = metric.bound.unwrap_or(0.0);
            let verdict = if worse > bound {
                exceeded += 1;
                "  EXCEEDS"
            } else {
                ""
            };
            println!(
                "{workload:<14} {:<18} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>6.0}%{verdict}",
                metric.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if exceeded > 0 {
        println!("{exceeded} pairing(s) outside the benchmark's bounds");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let m = |lower| MetricSpec {
            name: "m".into(),
            unit: "x".into(),
            lower_is_better: lower,
            bound: Some(0.1),
        };
        assert!((worsening(&m(true), 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worsening(&m(true), 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(&m(false), 100.0, 90.0) - 0.10).abs() < 1e-12);
    }
}
