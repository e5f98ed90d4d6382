//! Text ingestion: clean → parse → store → extract fusion records.
//!
//! Produces the paper's two text-side collections:
//!
//! * `instance` (WEBINSTANCE): one hierarchical document per kept fragment,
//!   with **1 index** — exactly Table I's `nindexes: 1`.
//! * `entity` (WEBENTITIES): one flat document per extracted mention, with
//!   **8 indexes** — exactly Table II's `nindexes: 8`.
//!
//! Fragments go through in chunks of `CHUNK` (256). Per chunk, the junk check,
//! parse and instance-document build run in parallel in input order; the
//! kept instances are stored with one [`Collection::insert_many`], the
//! entity documents (which need their instance's id as `fragment_ref`) are
//! built in parallel and stored with a second one, and the show records are
//! numbered sequentially. `insert_many` places a batch exactly as repeated
//! single inserts in input order would, so every document id, stored byte,
//! reported stat and show record is the one a fragment-at-a-time loop
//! produces, at any thread count. The indexes are declarations: storing a
//! document does no index work, and `Collection::stats` measures them.

use std::sync::Arc;

use rayon::prelude::*;

use datatamer_clean::TextCleaner;
use datatamer_model::{Document, Record, RecordId, Result, SourceId, Value};
use datatamer_storage::{Collection, IndexSpec, Store};
use datatamer_text::{DomainParser, EntityType, ParsedFragment};

use crate::fusion::{SHOW_NAME, TEXT_FEED};

/// Collection names used by the text side.
pub const INSTANCE_COLLECTION: &str = "instance";
pub const ENTITY_COLLECTION: &str = "entity";

/// The `instance` collection's one index, `(name, path)`.
const INSTANCE_INDEXES: [(&str, &str); 1] = [("by_entity_canonical", "entities.canonical")];

/// The `entity` collection's eight indexes, `(name, path)`.
const ENTITY_INDEXES: [(&str, &str); 8] = [
    ("by_type", "type"),
    ("by_name", "name"),
    ("by_canonical", "canonical"),
    ("by_confidence", "confidence"),
    ("by_fragment", "fragment_ref"),
    ("by_source", "source"),
    ("by_chars", "chars"),
    ("by_context", "context"),
];

/// Fragments parsed and stored per batch: bounds the parse output held at
/// once while giving every parallel step enough work to spread.
const CHUNK: usize = 256;

/// A fragment that passed the cleaner, parsed, with its instance document.
struct Kept<'a> {
    fragment: &'a str,
    label: &'a str,
    parsed: ParsedFragment,
    instance_doc: Document,
}

/// Outcome counts of a text ingestion run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Fragments offered.
    pub fragments_seen: usize,
    /// Fragments dropped by the ML cleaner.
    pub fragments_dropped: usize,
    /// Instance documents stored.
    pub instances: u64,
    /// Entity documents stored.
    pub entities: u64,
    /// Show records extracted for fusion.
    pub show_records: usize,
}

/// Ingests raw fragments through the cleaner and parser into a store.
pub struct TextIngestor {
    parser: DomainParser,
    cleaner: TextCleaner,
}

impl TextIngestor {
    /// With a parser and the built-in ML cleaner.
    pub fn new(parser: DomainParser) -> Self {
        TextIngestor { parser, cleaner: TextCleaner::with_builtin_seeds() }
    }

    /// Ensure the `instance` and `entity` collections exist with the
    /// paper's index layout (1 and 8 indexes respectively).
    pub fn ensure_collections(
        &self,
        store: &Store,
        config: datatamer_storage::CollectionConfig,
    ) -> Result<(Arc<Collection>, Arc<Collection>)> {
        let instance = store.collection_or_create(INSTANCE_COLLECTION, config.clone())?;
        let entity = store.collection_or_create(ENTITY_COLLECTION, config)?;
        for (col, indexes) in [(&instance, &INSTANCE_INDEXES[..]), (&entity, &ENTITY_INDEXES[..])] {
            if col.index_count() == 0 {
                for (name, path) in indexes {
                    col.create_index(IndexSpec::new(*name, *path))?;
                }
            }
        }
        Ok((instance, entity))
    }

    /// Ingest fragments (with per-fragment source labels) into `store`,
    /// extracting `(stats, show_records)` where show records carry
    /// `SHOW_NAME` / `TEXT_FEED` for fusion. `text_source` tags the records.
    pub fn ingest<'a, I>(
        &self,
        store: &Store,
        config: datatamer_storage::CollectionConfig,
        text_source: SourceId,
        fragments: I,
    ) -> Result<(IngestStats, Vec<Record>)>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>, // (fragment, source label)
    {
        let (instance_col, entity_col) = self.ensure_collections(store, config)?;
        let mut stats = IngestStats::default();
        let mut show_records = Vec::new();
        let mut fragments = fragments.into_iter();
        loop {
            let chunk: Vec<(&str, &str)> = fragments.by_ref().take(CHUNK).collect();
            if chunk.is_empty() {
                break;
            }
            let kept: Vec<Kept> = chunk
                .par_iter()
                .filter_map(|&(fragment, label)| {
                    if self.cleaner.is_junk(fragment) {
                        return None;
                    }
                    let parsed = self.parser.parse(fragment);
                    let mut instance_doc = parsed.to_instance_doc();
                    instance_doc.set("source", Value::from(label));
                    Some(Kept { fragment, label, parsed, instance_doc })
                })
                .collect();
            stats.fragments_seen += chunk.len();
            stats.fragments_dropped += chunk.len() - kept.len();

            let instance_ids = instance_col.insert_many(kept.iter().map(|k| &k.instance_doc))?;
            stats.instances += instance_ids.len() as u64;

            let entity_docs: Vec<Document> = (0..kept.len())
                .into_par_iter()
                .flat_map(|i| {
                    let k = &kept[i];
                    let fragment_ref = Value::Int(instance_ids[i].0 as i64);
                    k.parsed
                        .mentions
                        .iter()
                        .zip(k.parsed.entity_docs())
                        .map(|(mention, mut entity_doc)| {
                            entity_doc.set("fragment_ref", fragment_ref.clone());
                            entity_doc.set("source", Value::from(k.label));
                            entity_doc.set("chars", Value::from(mention.text.len()));
                            entity_doc
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            entity_col.insert_many(&entity_docs)?;
            stats.entities += entity_docs.len() as u64;

            // Movie mentions become fusion-ready show records.
            for k in &kept {
                for mention in &k.parsed.mentions {
                    if mention.entity_type == EntityType::Movie {
                        let mut r =
                            Record::new(text_source, RecordId(show_records.len() as u64));
                        r.set(SHOW_NAME, Value::from(mention.text.as_str()));
                        r.set(TEXT_FEED, Value::from(k.fragment));
                        show_records.push(r);
                    }
                }
            }
        }
        stats.show_records = show_records.len();
        Ok((stats, show_records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_storage::{CollectionConfig, CollectionStats, DocId};
    use datatamer_text::Gazetteer;

    fn ingestor() -> TextIngestor {
        let mut g = Gazetteer::new();
        g.add("Matilda", EntityType::Movie, 0.95);
        g.add("London", EntityType::City, 0.9);
        g.add("Wicked", EntityType::Movie, 0.95);
        TextIngestor::new(DomainParser::with_gazetteer(g))
    }

    fn cfg() -> CollectionConfig {
        CollectionConfig { extent_size: 64 * 1024, shards: 2, ..Default::default() }
    }

    #[test]
    fn collections_get_paper_index_counts() {
        let store = Store::new("dt");
        let ing = ingestor();
        let (instance, entity) = ing.ensure_collections(&store, cfg()).unwrap();
        assert_eq!(instance.index_count(), 1, "Table I: nindexes=1");
        assert_eq!(entity.index_count(), 8, "Table II: nindexes=8");
        // Idempotent.
        let (i2, e2) = ing.ensure_collections(&store, cfg()).unwrap();
        assert_eq!(i2.index_count(), 1);
        assert_eq!(e2.index_count(), 8);
    }

    #[test]
    fn ingest_stores_instances_and_entities() {
        let store = Store::new("dt");
        let ing = ingestor();
        let fragments = [
            ("Matilda an import from London grossed 960,998", "news"),
            ("Wicked still sells out nightly", "blog"),
        ];
        let (stats, shows) = ing.ingest(&store, cfg(), SourceId(7), fragments).unwrap();
        assert_eq!(stats.fragments_seen, 2);
        assert_eq!(stats.fragments_dropped, 0);
        assert_eq!(stats.instances, 2);
        assert!(stats.entities >= 3, "{stats:?}");
        assert_eq!(stats.show_records, 2);
        assert_eq!(shows.len(), 2);
        assert_eq!(shows[0].get_text(SHOW_NAME).as_deref(), Some("Matilda"));
        assert!(shows[0].get_text(TEXT_FEED).unwrap().contains("grossed"));
        assert_eq!(shows[0].source, SourceId(7));

        let instance = store.collection(INSTANCE_COLLECTION).unwrap();
        assert_eq!(instance.len(), 2);
        let entity = store.collection(ENTITY_COLLECTION).unwrap();
        assert_eq!(entity.len(), stats.entities);
        // Entity docs group by their indexed type.
        let by_type = entity.count_by("type").unwrap();
        assert!(by_type.contains(&(Value::from("Movie"), 2)), "{by_type:?}");
    }

    #[test]
    fn cleaner_drops_junk() {
        let store = Store::new("dt");
        let ing = ingestor();
        let fragments = [
            ("Matilda grossed well at the theatre during previews", "news"),
            ("click here to subscribe accept cookies buy now free shipping", "spam"),
        ];
        let (stats, _) = ing.ingest(&store, cfg(), SourceId(0), fragments).unwrap();
        assert_eq!(stats.fragments_dropped, 1);
        assert_eq!(stats.instances, 1);
    }

    /// The fragment-at-a-time loop the chunked path replaced: one insert
    /// per instance and one per mention. The chunked path must leave
    /// exactly what this leaves.
    fn ingest_sequential<'a>(
        ing: &TextIngestor,
        store: &Store,
        config: CollectionConfig,
        text_source: SourceId,
        fragments: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<(IngestStats, Vec<Record>)> {
        let (instance_col, entity_col) = ing.ensure_collections(store, config)?;
        let mut stats = IngestStats::default();
        let mut show_records = Vec::new();
        let mut next_record = 0u64;
        for (fragment, label) in fragments {
            stats.fragments_seen += 1;
            if ing.cleaner.is_junk(fragment) {
                stats.fragments_dropped += 1;
                continue;
            }
            let parsed = ing.parser.parse(fragment);
            let mut instance_doc = parsed.to_instance_doc();
            instance_doc.set("source", Value::from(label));
            let instance_id = instance_col.insert(&instance_doc)?;
            stats.instances += 1;

            for (mention, mut entity_doc) in parsed.mentions.iter().zip(parsed.entity_docs()) {
                entity_doc.set("fragment_ref", Value::Int(instance_id.0 as i64));
                entity_doc.set("source", Value::from(label));
                entity_doc.set("chars", Value::from(mention.text.len()));
                entity_col.insert(&entity_doc)?;
                stats.entities += 1;

                if mention.entity_type == EntityType::Movie {
                    let mut r = Record::new(text_source, RecordId(next_record));
                    next_record += 1;
                    r.set(SHOW_NAME, Value::from(mention.text.as_str()));
                    r.set(TEXT_FEED, Value::from(fragment));
                    show_records.push(r);
                }
            }
        }
        stats.show_records = show_records.len();
        Ok((stats, show_records))
    }

    /// Everything a collection exposes: documents with their ids, the
    /// group-by on every indexed path, stats.
    #[derive(Debug, PartialEq)]
    struct CollectionImage {
        docs: Vec<(DocId, Document)>,
        groups: Vec<Vec<(Value, u64)>>,
        stats: CollectionStats,
    }

    fn image(store: &Store, name: &str) -> CollectionImage {
        let col = store.collection(name).unwrap();
        let docs = col.parallel_scan(|id, d| Some((id, d.clone()))).unwrap();
        let indexes: &[(&str, &str)] =
            if name == INSTANCE_COLLECTION { &INSTANCE_INDEXES } else { &ENTITY_INDEXES };
        let groups = indexes.iter().map(|(_, path)| col.count_by(path).unwrap()).collect();
        CollectionImage { docs, groups, stats: col.stats("dt").unwrap() }
    }

    /// 600 fragments — two full chunks and a partial one — mixing mention-
    /// rich text, junk the cleaner drops and fragments with no mentions.
    fn oracle_fragments() -> Vec<(String, &'static str)> {
        let shows = ["Matilda", "Wicked", "Kinky Boots", "Pippin", "Once"];
        (0..600usize)
            .map(|i| {
                let show = shows[i % shows.len()];
                let text = match i % 9 {
                    0 => "click here to subscribe accept cookies buy now free shipping".to_owned(),
                    4 => format!("tickets for the evening performance {i} sold out quickly"),
                    7 => format!("\"{show}\" from London and \"The Last Ship\" at the Shubert Theatre"),
                    _ => format!(
                        "{show} an import from London grossed {},998, or {} percent, \
                         said Thomas Schumacher; see http://playbill.com/{i} and {}",
                        100 + i,
                        i % 100,
                        shows[(i * 7) % shows.len()]
                    ),
                };
                (text, ["news", "blog", "forum"][i % 3])
            })
            .collect()
    }

    #[test]
    fn chunked_ingest_matches_the_sequential_oracle() {
        let mut g = Gazetteer::new();
        for show in ["Matilda", "Wicked", "Kinky Boots", "Pippin", "Once"] {
            g.add(show, EntityType::Movie, 0.95);
        }
        g.add("London", EntityType::City, 0.9);
        let owned = oracle_fragments();
        let fragments = || owned.iter().map(|(text, label)| (text.as_str(), *label));
        // 3 shards: a shard count that does not divide the chunk size.
        let config =
            CollectionConfig { extent_size: 16 * 1024, shards: 3, ..Default::default() };
        let ing = TextIngestor::new(DomainParser::with_gazetteer(g));
        let want_store = Store::new("dt");
        let want =
            ingest_sequential(&ing, &want_store, config.clone(), SourceId(3), fragments()).unwrap();
        assert!(want.0.fragments_dropped > 0, "{:?}", want.0);
        let want_instances = image(&want_store, INSTANCE_COLLECTION);
        assert!(
            want_instances.docs.iter().any(|(_, d)| d.get("entities").is_none()),
            "some kept fragment must have no mentions"
        );
        let want_entities = image(&want_store, ENTITY_COLLECTION);
        for threads in [1, 8] {
            let store = Store::new("dt");
            let got = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| ing.ingest(&store, config.clone(), SourceId(3), fragments()))
                .unwrap();
            assert_eq!(got, want, "stats and show records at {threads} threads");
            assert!(image(&store, INSTANCE_COLLECTION) == want_instances, "{threads}");
            assert!(image(&store, ENTITY_COLLECTION) == want_entities, "{threads}");
        }
    }
}
