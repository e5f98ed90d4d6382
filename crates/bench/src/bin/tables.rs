//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p datatamer-bench --bin tables -- all
//! cargo run --release -p datatamer-bench --bin tables -- t1 t4 m1 --scale 0.0005
//! ```
//!
//! Experiment ids, one per function in `datatamer_bench::experiments`:
//! t1 t2 t3 t4 t5 t6 f1 f2 f3 m1 m2, or `all`. Options: `--scale <f64>`
//! (fraction of paper volume, finite and positive, default 1/5000),
//! `--seed <u64>`. A bad argument prints the usage line to stderr and
//! exits with status 2.

use std::collections::HashSet;

use datatamer_bench::{
    f1_pipeline_stages, f2_bootstrap_trajectory, f2_expert_ablation, f3_threshold_sweep,
    m1_dedup_crossval, m2_text_preprocess_throughput, t1_instance_stats, t2_entity_stats,
    t3_type_histogram, t4_top10, t5_matilda_text_only, t6_matilda_fused, HarnessConfig,
    ScaledSystem,
};
use datatamer_corpus::ftables::{self, FtablesConfig};

/// Every experiment id; `all` (or no id at all) selects them all.
const EXPERIMENTS: [&str; 11] = ["t1", "t2", "t3", "t4", "t5", "t6", "f1", "f2", "f3", "m1", "m2"];

const USAGE: &str =
    "usage: tables [all | t1..t6 | f1..f3 | m1 | m2]... [--scale <f64 > 0>] [--seed <u64>]";

/// Parse the command line (without the program name) into the selected
/// experiment ids and the harness configuration.
fn parse_args(args: &[String]) -> Result<(HashSet<String>, HarnessConfig), String> {
    let mut wanted: HashSet<String> = HashSet::new();
    let mut config = HarnessConfig::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                config.scale = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--scale takes a finite number > 0, got {value:?}"))?;
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                config.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes an unsigned integer, got {value:?}"))?;
            }
            id => {
                let id = id.to_lowercase();
                if id != "all" && !EXPERIMENTS.contains(&id.as_str()) {
                    return Err(format!("unknown experiment id or option {arg:?}"));
                }
                wanted.insert(id);
            }
        }
    }
    if wanted.is_empty() || wanted.contains("all") {
        wanted = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    Ok((wanted, config))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (wanted, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("tables: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    println!("# Data Tamer reproduction — paper tables & figures");
    println!(
        "# scale={} seed={:#x} fragments={} extent_size={}",
        config.scale,
        config.seed,
        config.num_fragments(),
        config.extent_size()
    );
    println!();

    let needs_system = ["t1", "t2", "t3", "t4", "t5", "t6"]
        .iter()
        .any(|id| wanted.contains(*id));
    let sys = needs_system.then(|| {
        eprintln!("[building scaled system...]");
        ScaledSystem::build(config.clone())
    });

    if let Some(sys) = &sys {
        if wanted.contains("t1") {
            let cmp = t1_instance_stats(sys);
            println!("== TABLE I: SEMI-STRUCTURED SHARDED WEB-INSTANCE COLLECTION STATISTICS ==");
            println!("> db.instance.stats();   (measured, at scale {})", cmp.scale);
            println!("{}", cmp.measured);
            print_stats_comparison(&cmp);
            println!();
        }
        if wanted.contains("t2") {
            let cmp = t2_entity_stats(sys);
            println!("== TABLE II: WEB-ENTITIES COLLECTION STATISTICS ==");
            println!("> db.entity.stats();   (measured, at scale {})", cmp.scale);
            println!("{}", cmp.measured);
            print_stats_comparison(&cmp);
            println!();
        }
        if wanted.contains("t3") {
            println!("== TABLE III: STATISTICS BY ENTITY TYPE IN WEB-ENTITIES ==");
            println!("+------------------+----------+--------+-------------+--------+");
            println!("| type             | measured | share  | paper       | share  |");
            println!("+------------------+----------+--------+-------------+--------+");
            for row in t3_type_histogram(sys) {
                println!(
                    "| {:<16} | {:>8} | {:>5.1}% | {:>11} | {:>5.1}% |",
                    row.entity_type,
                    row.measured,
                    row.measured_share * 100.0,
                    row.paper_count,
                    row.paper_share * 100.0
                );
            }
            println!("+------------------+----------+--------+-------------+--------+");
            println!();
        }
        if wanted.contains("t4") {
            let (top, paper_list) = t4_top10(sys);
            println!("== TABLE IV: TOP 10 MOST DISCUSSED AWARD-WINNING MOVIES/SHOWS ==");
            println!("| {:<28} | mentions || paper's list", "MOVIE/SHOW (measured)");
            for (i, show) in top.iter().enumerate() {
                let paper = paper_list.get(i).copied().unwrap_or("");
                println!("| \"{:<26}\" | {:>8} || \"{}\"", show.title, show.mentions, paper);
            }
            let got: Vec<&str> = top.iter().map(|s| s.title.as_str()).collect();
            let hits = paper_list.iter().filter(|p| got.contains(*p)).count();
            println!("(overlap with the paper's top-10: {hits}/10)");
            println!();
        }
        if wanted.contains("t5") {
            println!("== TABLE V: QUERY RESULTS FOR THE \"MATILDA\" SHOW FROM WEB-TEXT ==");
            for (attr, value) in t5_matilda_text_only(sys) {
                println!("{:<15} {}", attr, quoted(&value));
            }
            println!();
        }
        if wanted.contains("t6") {
            println!("== TABLE VI: ENRICHED QUERY RESULTS FROM WEB-TEXT AND FUSION TABLES ==");
            for (attr, value) in t6_matilda_fused(sys) {
                println!("{:<15} {}", attr, quoted(&value));
            }
            println!();
        }
    }

    if wanted.contains("f1") {
        println!("== FIGURE 1: ARCHITECTURE AS A MEASURED PIPELINE (per-stage wall clock) ==");
        let t = f1_pipeline_stages(config.clone());
        println!("generate datasets       : {:>10.1?}", t.generate);
        println!("structured integration  : {:>10.1?}", t.structured_integration);
        println!("text ingest (clean+parse): {:>9.1?}", t.text_ingest);
        println!("fusion                  : {:>10.1?}", t.fusion);
        println!("demo queries            : {:>10.1?}", t.query);
        println!();
    }

    if wanted.contains("f2") || wanted.contains("f3") {
        let sources = ftables::generate(
            &FtablesConfig { seed: config.seed ^ 0xF7AB, ..Default::default() },
            1000,
        );
        if wanted.contains("f2") {
            println!("== FIGURE 2: GLOBAL SCHEMA INITIALISATION (bottom-up bootstrap) ==");
            println!("source     | attrs | auto | human | new-attr alerts | automation");
            for s in f2_bootstrap_trajectory(&sources, None) {
                println!(
                    "{:<10} | {:>5} | {:>4} | {:>5} | {:>15} | {:>9.0}%",
                    s.source,
                    s.global_attrs_after,
                    s.auto_accepted,
                    s.human_interventions,
                    s.new_attributes,
                    s.automation_rate * 100.0
                );
            }
            println!("(early sources raise 'no counterpart' alerts; intervention falls as the schema matures)");
            println!();
            println!("-- F2 ablation: expert-panel accuracy --");
            println!("panel          | human answers | final attrs | mean automation");
            for r in f2_expert_ablation(&sources, &[None, Some(0.95), Some(0.8), Some(0.6)]) {
                let label = match r.accuracy {
                    None => "thresholds only".to_owned(),
                    Some(a) => format!("3 experts @{a:.2}"),
                };
                println!(
                    "{label:<14} | {:>13} | {:>11} | {:>14.0}%",
                    r.total_human,
                    r.final_attrs,
                    r.mean_automation * 100.0
                );
            }
            println!();
        }
        if wanted.contains("f3") {
            println!("== FIGURE 3: SCHEMA MATCHING vs ACCEPTANCE THRESHOLD (10 seed sources, 10 held out) ==");
            println!("threshold | precision | recall | escalated-to-expert");
            let thresholds = [0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95];
            for p in f3_threshold_sweep(&sources, 10, &thresholds) {
                println!(
                    "   {:.2}   |   {:>5.1}%  | {:>5.1}% | {:>4}",
                    p.threshold,
                    p.precision * 100.0,
                    p.recall * 100.0,
                    p.escalated
                );
            }
            println!();
        }
    }

    if wanted.contains("m1") {
        println!("== §IV CLAIM (M1): DEDUP CLASSIFIER, 10-FOLD CROSS-VALIDATION PER ENTITY TYPE ==");
        println!("(paper: 89/90% precision/recall on several entity types)");
        let results = m1_dedup_crossval(1_000);
        let mut psum = 0.0;
        let mut rsum = 0.0;
        for (ty, m) in &results {
            println!("{:<14} {}", format!("{ty:?}:"), m);
            psum += m.precision;
            rsum += m.recall;
        }
        println!(
            "macro average: P={:.1}% R={:.1}%   (paper: P=89% R=90%)",
            psum / results.len() as f64 * 100.0,
            rsum / results.len() as f64 * 100.0
        );
        println!();
    }

    if wanted.contains("m2") {
        println!("== §IV CLAIM (M2): ML TEXT CLEANING + PRE-PROCESSING THROUGHPUT ==");
        for scale_div in [4.0, 2.0, 1.0] {
            let cfg = HarnessConfig { scale: config.scale / scale_div, ..config.clone() };
            let p = m2_text_preprocess_throughput(cfg);
            println!(
                "{:>7} fragments: {:>8.2?} total, {:>9.0} fragments/s ({} dropped as junk)",
                p.fragments, p.elapsed, p.fragments_per_sec, p.dropped
            );
        }
        println!();
    }
}

fn print_stats_comparison(cmp: &datatamer_bench::StatsComparison) {
    let (count, extents, nindexes, last, idx) = cmp.paper;
    println!(
        "paper:    count={count} numExtents={extents} nindexes={nindexes} \
         lastExtentSize={last} totalIndexSize={idx}"
    );
    println!(
        "measured/paper count ratio: {:.5} (configured scale {:.5})",
        cmp.count_ratio(),
        cmp.scale
    );
}

fn quoted(v: &str) -> String {
    format!("\"{v}\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(HashSet<String>, HarnessConfig), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn a_trailing_option_without_its_value_is_rejected() {
        assert!(parse(&["t1", "--scale"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn a_non_numeric_value_is_rejected() {
        assert!(parse(&["--scale", "small"]).is_err());
        assert!(parse(&["--seed", "-3"]).is_err());
    }

    #[test]
    fn a_zero_negative_or_non_finite_scale_is_rejected() {
        for scale in ["0", "-0.5", "inf", "NaN"] {
            assert!(parse(&["--scale", scale]).is_err(), "{scale}");
        }
    }

    #[test]
    fn an_unknown_id_is_rejected() {
        assert!(parse(&["t1", "t7"]).is_err());
        assert!(parse(&["--verbose"]).is_err());
    }

    #[test]
    fn a_valid_mixed_argument_list_parses() {
        let (wanted, config) = parse(&["T1", "--scale", "0.001", "f2", "--seed", "7", "m1"]).unwrap();
        let mut ids: Vec<&str> = wanted.iter().map(String::as_str).collect();
        ids.sort_unstable();
        assert_eq!(ids, ["f2", "m1", "t1"]);
        assert_eq!((config.scale, config.seed), (0.001, 7));
        assert_eq!(parse(&[]).unwrap().0.len(), EXPERIMENTS.len(), "no ids selects all");
    }
}
