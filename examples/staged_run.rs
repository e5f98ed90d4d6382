//! One staged pipeline run, end to end: configure a system that routes two
//! attributes to non-default truth-discovery resolvers, build a plan from
//! generated sources + web text, execute the canonical stage list, and
//! print the resolver routing, the Matilda enrichment and each stage's
//! report.
//!
//! ```text
//! cargo run --release --example staged_run
//! ```

use datatamer::core::fusion::{RegistryConfig, ResolverSpec};
use datatamer::core::stage::stage_names;
use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::corpus::ftables::{self, FtablesConfig};
use datatamer::corpus::webtext::{WebTextConfig, WebTextCorpus};
use datatamer::text::DomainParser;

fn main() {
    let corpus = WebTextCorpus::generate(&WebTextConfig {
        num_fragments: 1_000,
        ..Default::default()
    });
    let sources = ftables::generate(&FtablesConfig::default(), 1000);

    let mut plan = PipelinePlan::new();
    for s in &sources {
        plan = plan.structured(&s.name, &s.records);
    }
    let frags: Vec<(&str, &str)> =
        corpus.fragments.iter().map(|f| (f.text.as_str(), f.kind.label())).collect();
    plan = plan.webtext(DomainParser::with_gazetteer(corpus.gazetteer.clone()), frags);

    // Truth discovery: keep the broadway routing but weight THEATER by
    // source reliability and take the freshest FIRST date.
    let resolvers = RegistryConfig::broadway()
        .with("THEATER", ResolverSpec::SourceReliability { iterations: 5 })
        .with("FIRST", ResolverSpec::LatestWins);
    println!("fusion resolver routing:");
    for (attr, resolver) in &resolvers.per_attribute {
        println!("  {attr:<16} -> {}", resolver.name());
    }
    println!("  (default)        -> {}\n", resolvers.default.name());

    let mut dt =
        DataTamer::new(DataTamerConfig { fusion_resolvers: resolvers, ..Default::default() });
    let fused = dt.run(plan).expect("pipeline runs");
    let matilda = DataTamer::lookup(fused, "Matilda").expect("Matilda fused");
    println!(
        "fused {} entities; Matilda merged from {} records:",
        fused.len(),
        matilda.member_count
    );
    for (attr, value) in matilda.record.iter() {
        println!("  {attr:<16} {value:?}");
    }

    println!("\nstage log:");
    for run in dt.context().runs() {
        println!("  {:<22} {:?}", run.stage, run.report);
    }
    assert_eq!(
        dt.context().runs().iter().map(|r| r.stage).collect::<Vec<_>>(),
        stage_names::CANONICAL_ORDER.to_vec(),
    );
}
