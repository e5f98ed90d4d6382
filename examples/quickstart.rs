//! Quickstart: stand up Data Tamer, run it over a structured source, run it
//! again as a few web-text fragments arrive, and query the fused result.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::model::{Record, RecordId, SourceId, Value};
use datatamer::text::{DomainParser, EntityType, Gazetteer};

fn main() -> datatamer::model::Result<()> {
    // 1. A small structured source: Broadway shows with prices.
    let source_id = SourceId(0);
    let rows = [
        ("Matilda", "Shubert 225 W. 44th St between 7th and 8th", "$27", "3/4/2013"),
        ("Wicked", "Gershwin 222 W. 51st St between Broadway and 8th", "€60", "2003-10-30"),
        ("Annie", "Palace 1564 Broadway at 47th", "$45", "11/8/2012"),
    ];
    let records: Vec<Record> = rows
        .iter()
        .enumerate()
        .map(|(i, (show, theater, price, first))| {
            Record::from_pairs(
                source_id,
                RecordId(i as u64),
                vec![
                    ("show_name", Value::from(*show)),
                    ("theater", Value::from(*theater)),
                    ("cheapest_price", Value::from(*price)),
                    ("first", Value::from(*first)),
                ],
            )
        })
        .collect();

    // 2. Data Tamer: one run over the source (schema integration, cleaning,
    //    consolidation, fusion).
    let mut dt = DataTamer::new(DataTamerConfig::default());
    dt.run(PipelinePlan::new().structured("broadway_listings", &records))?;
    let (_, report) = &dt.context().integration_reports[0];
    println!(
        "integrated source: {} attributes ({} new, {} auto-mapped)",
        report.suggestions.len(),
        report.new_attributes(),
        report.auto_accepted()
    );
    println!("global schema: {:?}", dt.global_schema().attribute_names());
    // Note the cleaning engine already translated €60 → dollars:
    let wicked = dt
        .structured_records()
        .iter()
        .find(|r| r.get_text("SHOW_NAME").as_deref() == Some("Wicked"))
        .expect("wicked registered");
    println!("Wicked price after EUR→USD cleaning: {:?}", wicked.get_text("CHEAPEST_PRICE"));

    // 3. Web text arrives: a second run, through the domain-specific parser.
    let mut gazetteer = Gazetteer::new();
    for (show, ..) in &rows {
        gazetteer.add(show, EntityType::Movie, 0.95);
    }
    gazetteer.add("London", EntityType::City, 0.9);
    let parser = DomainParser::with_gazetteer(gazetteer);
    let fragments = vec![
        (
            "..which began previews on Tuesday, grossed 659,391, or...And Matilda an \
             award-winning import from London, grossed 960,998, or 93 percent of the maximum.",
            "news",
        ),
        ("Just saw Wicked! Tickets from $99, totally worth it.", "twitter"),
    ];
    dt.run(PipelinePlan::new().webtext(parser, fragments))?;
    let stats = dt.text_stats();
    println!(
        "ingested text: {} fragments -> {} instances, {} entities",
        stats.fragments_seen, stats.instances, stats.entities
    );

    // 4. The run fused text with structured data: the paper's demo query.
    let matilda = DataTamer::lookup(&dt.context().fused, "Matilda").expect("Matilda fused");
    println!("\nEnriched query result for \"Matilda\" (paper Table VI):");
    for attr in ["SHOW_NAME", "THEATER", "PERFORMANCE", "TEXT_FEED", "CHEAPEST_PRICE", "FIRST"] {
        if let Some(v) = matilda.record.get_text(attr) {
            println!("  {attr:<15} \"{v}\"");
        }
    }

    // 5. Storage-engine statistics, paper Table I style.
    println!("\n> db.instance.stats();");
    println!("{}", dt.collection_stats("instance").expect("instance collection"));
    Ok(())
}
