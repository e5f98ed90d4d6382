//! The paper's full demo scenario (§V): a user wants a popular award-winning
//! show at the best price.
//!
//! Reproduces the complete flow: generate the synthetic WEBINSTANCE corpus
//! and 20 FTABLES sources, run the pipeline over the web text, then
//! 1. find the top-10 most discussed award-winning shows (Table IV),
//! 2. query Matilda from web text only (Table V),
//! 3. run again as FTABLES arrive and query again — enriched (Table VI).
//!
//! ```text
//! cargo run --release --example broadway_fusion
//! ```

use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::corpus::ftables::{self, FtablesConfig};
use datatamer::corpus::webtext::{WebTextConfig, WebTextCorpus};
use datatamer::text::DomainParser;

fn main() -> datatamer::model::Result<()> {
    // Generate the datasets (synthetic stand-ins; see DESIGN.md §2).
    let corpus = WebTextCorpus::generate(&WebTextConfig {
        num_fragments: 3_000,
        ..Default::default()
    });
    let sources = ftables::generate(&FtablesConfig::default(), 1000);
    println!(
        "datasets: {} web-text fragments, {} structured sources",
        corpus.fragments.len(),
        sources.len()
    );

    // Run over the web text first — the user starts from the text side.
    let mut dt = DataTamer::new(DataTamerConfig::default());
    let parser = DomainParser::with_gazetteer(corpus.gazetteer.clone());
    let frags: Vec<(&str, &str)> = corpus
        .fragments
        .iter()
        .map(|f| (f.text.as_str(), f.kind.label()))
        .collect();
    dt.run(PipelinePlan::new().webtext(parser, frags))?;
    let stats = dt.text_stats();
    println!(
        "ingested: {} instances, {} entities ({} junk fragments dropped)\n",
        stats.instances, stats.entities, stats.fragments_dropped
    );

    // Step 1 — Table IV: the top-10 most discussed award-winning shows.
    println!("TOP 10 MOST DISCUSSED AWARD-WINNING MOVIES/SHOWS (from web text):");
    for show in dt.top_discussed(10)? {
        println!("  \"{}\"  ({} fragments)", show.title, show.mentions);
    }

    // Step 2 — Table V: the user picks Matilda; text-only lookup.
    let matilda = DataTamer::lookup(&dt.context().fused, "Matilda").expect("Matilda discussed");
    println!("\nQUERY \"Matilda\" FROM WEB-TEXT ONLY (no theaters, pricing or schedules):");
    for attr in ["SHOW_NAME", "TEXT_FEED"] {
        if let Some(v) = matilda.record.get_text(attr) {
            println!("  {attr:<15} \"{v}\"");
        }
    }

    // Step 3 — FTABLES arrive: one more run schema-matches and fuses them
    // with the text (Table VI).
    let mut plan = PipelinePlan::new();
    for s in &sources {
        plan = plan.structured(&s.name, &s.records);
    }
    dt.run(plan)?;
    println!(
        "\nintegrated {} structured sources; global schema: {:?}",
        sources.len(),
        dt.global_schema().attribute_names()
    );
    let matilda = DataTamer::lookup(&dt.context().fused, "Matilda").expect("Matilda fused");
    println!("\nENRICHED QUERY RESULT AFTER FUSION (paper Table VI):");
    for attr in ["SHOW_NAME", "THEATER", "PERFORMANCE", "TEXT_FEED", "CHEAPEST_PRICE", "FIRST"] {
        if let Some(v) = matilda.record.get_text(attr) {
            println!("  {attr:<15} \"{v}\"");
        }
    }
    println!(
        "\n({} records fused into this entity; the user never ran a second manual search)",
        matilda.member_count
    );
    Ok(())
}
