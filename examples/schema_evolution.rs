//! Figures 2 and 3 as a terminal session: watch the global schema grow
//! bottom-up from the 20 FTABLES sources, with heuristic matching scores,
//! "no counterpart" alerts, threshold-driven escalation, and an expert
//! panel answering escalated questions from ground truth.
//!
//! ```text
//! cargo run --release --example schema_evolution
//! ```

use datatamer::corpus::ftables::{self, FtablesConfig};
use datatamer::corpus::truth::GroundTruth;
use datatamer::core::ExpertPanelResolver;
use datatamer::model::SourceSchema;
use datatamer::schema::{Decision, IntegrationConfig, SchemaIntegrator};

fn main() {
    let sources = ftables::generate(&FtablesConfig::default(), 0);
    let gt = GroundTruth::from_sources(&sources);
    let mut integrator = SchemaIntegrator::new(IntegrationConfig::default());

    // --- Figure 2: the first source seeds an empty global schema. ---
    let first = &sources[0];
    let schema = SourceSchema::profile_records(first.id, &first.name, &first.records);
    println!("== GLOBAL SCHEMA INITIALISATION (Fig 2) ==");
    println!("incoming source: {} ({} attributes)\n", first.name, schema.arity());
    let report = integrator.integrate(&schema);
    for s in &report.suggestions {
        if s.no_counterpart_alert {
            println!(
                "  {:<18} ! no counterpart in the global schema yet -> [add] / ignore",
                s.source_attr
            );
        }
    }
    println!(
        "\nglobal schema now: {:?}\n",
        integrator.global().attribute_names()
    );

    // Grow the schema with the next 9 sources quietly.
    for s in &sources[1..10] {
        let schema = SourceSchema::profile_records(s.id, &s.name, &s.records);
        integrator.integrate(&schema);
    }
    println!(
        "after 10 sources the global schema has {} attributes: {:?}\n",
        integrator.global().len(),
        integrator.global().attribute_names()
    );

    // --- Figure 3: match one more source, showing candidates + scores. ---
    let incoming = &sources[10];
    let schema = SourceSchema::profile_records(incoming.id, &incoming.name, &incoming.records);
    println!("== SCHEMA MATCHING WITH HEURISTIC SCORES (Fig 3) ==");
    println!("incoming source: {}\n", incoming.name);
    println!("{:<18} | suggested target (score) | runner-up (score)", "source attribute");
    println!("{:-<18}-+--------------------------+------------------", "");
    for (attr, candidates) in integrator.dry_run(&schema) {
        let fmt = |i: usize| {
            candidates
                .get(i)
                .map(|c| format!("{} ({:.2})", c.name, c.score))
                .unwrap_or_else(|| "-".into())
        };
        println!("{attr:<18} | {:<24} | {}", fmt(0), fmt(1));
    }

    // Integrate it with a 3-expert panel answering from ground truth.
    let name_of = |attr_name: &str| attr_name.to_owned();
    let truth_source = incoming.name.clone();
    let mapping = gt.attr_mappings.clone();
    // Global attribute names in this run use clean canonical spellings, so
    // the truth check compares canonicals directly.
    let truth = Box::new(move |attr: &str, candidate: &str| {
        let Some(truth_canon) = mapping.get(&(truth_source.clone(), attr.to_owned())) else {
            return false;
        };
        candidate.to_uppercase() == *truth_canon || {
            // Candidate names are source spellings; map via their own truth.
            mapping
                .iter()
                .any(|((_, a), c)| a == &name_of(candidate) && c == truth_canon)
        }
    });
    let mut panel =
        ExpertPanelResolver::homogeneous(3, 0.9, 1.5, 7, truth).expect("0.9 is a probability");
    let report = integrator.integrate_with(&schema, &mut panel);
    println!(
        "\nintegration outcome: {} auto-accepted, {} expert-resolved, {} new attributes",
        report.auto_accepted(),
        report.human_interventions(),
        report.new_attributes()
    );
    let stats = panel.stats();
    println!(
        "expert panel: {} escalations, {} answers collected, total cost {:.1} units",
        stats.escalations, stats.answers, stats.cost
    );
    for s in &report.suggestions {
        if let Decision::ExpertAccept { score, .. } = s.decision {
            println!("  expert confirmed: {} ({score:.2})", s.source_attr);
        }
    }
}
