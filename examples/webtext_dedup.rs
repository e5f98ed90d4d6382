//! The §IV machine-learning experiment: train the dedup classifier and
//! evaluate with 10-fold cross-validation per entity type.
//!
//! The paper reports "89/90% precision/recall by 10-fold crossvalidation on
//! several different types of entities from the web-text dataset". This
//! example reruns that protocol on the synthetic corpus's labelled pairs and
//! also demonstrates the trained model consolidating a dirty record set.
//!
//! ```text
//! cargo run --release --example webtext_dedup
//! ```

use datatamer::core::fusion::{resolve_group, ConflictPolicy, RegistryConfig, ResolverSpec};
use datatamer::corpus::truth::{labeled_pairs, labeled_pairs_with, PairDifficulty, DEDUP_EVAL_TYPES};
use datatamer::entity::cluster::cluster_pairs;
use datatamer::entity::Blocker;
use datatamer::ml::dedup::{crossval_dedup, DedupClassifier};
use datatamer::ml::logreg::LogRegConfig;
use datatamer::model::{Record, RecordId, SourceId, Value};

fn main() {
    // 1. Cross-validated precision/recall per entity type (experiment M1).
    println!("10-fold cross-validation, 1000 labelled pairs per type:");
    println!("(paper: 89/90% precision/recall)\n");
    for ty in DEDUP_EVAL_TYPES {
        let pairs: Vec<(String, String, bool)> =
            labeled_pairs_with(ty, 1_000, 42, PairDifficulty::paper_band())
                .into_iter()
                .map(|p| (p.a, p.b, p.same))
                .collect();
        let metrics = crossval_dedup(&pairs, 10, 7, &LogRegConfig::default()).metrics();
        println!("  {:<14} {metrics}", format!("{ty:?}:"));
    }

    // 2. Train a production model on Person pairs and consolidate a dirty
    //    record set with it (blocking -> ML scoring -> clustering -> merge).
    let train: Vec<(String, String, bool)> =
        labeled_pairs(datatamer::text::EntityType::Person, 2_000, 1, 0.6, false)
            .into_iter()
            .map(|p| (p.a, p.b, p.same))
            .collect();
    let model = DedupClassifier::train(&train, &LogRegConfig::default());

    let dirty = [
        "James Smith",
        "J. Smith",
        "JAMES SMITH",
        "Mary Johnson",
        "Mary Jhonson",
        "Robert Brown",
        "robert brown ",
        "Linda Davis",
    ];
    let records: Vec<Record> = dirty
        .iter()
        .enumerate()
        .map(|(i, name)| {
            Record::from_pairs(
                SourceId((i % 3) as u32),
                RecordId(i as u64),
                vec![("name", Value::from(*name))],
            )
        })
        .collect();
    let candidates = Blocker::new("name").candidates(&records);
    let accepted: Vec<(usize, usize)> = candidates
        .iter()
        .copied()
        .filter(|&(i, j)| model.proba(dirty[i], dirty[j]) >= 0.5)
        .collect();
    let clusters = cluster_pairs(records.len(), &accepted);
    let all_pairs = records.len() * (records.len() - 1) / 2;
    println!(
        "\nconsolidated {} dirty person records into {} entities \
         ({} candidate pairs from blocking, {:.0}% of all-pairs work avoided):",
        records.len(),
        clusters.len(),
        candidates.len(),
        (1.0 - candidates.len() as f64 / all_pairs as f64) * 100.0
    );
    // Majority vote with first-seen tie breaks: the cluster's earliest
    // spelling wins a 1–1 split.
    let registry = RegistryConfig::uniform(ResolverSpec::Policy(ConflictPolicy::MajorityVote));
    for cluster in &clusters {
        let members: Vec<&Record> = cluster.iter().map(|&i| &records[i]).collect();
        let (composite, _) = resolve_group(&members, &registry);
        let names: Vec<&str> = cluster.iter().map(|&i| dirty[i]).collect();
        println!("  {names:?} -> \"{}\"", composite.get_text("name").unwrap_or_default());
    }
}
