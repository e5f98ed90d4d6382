//! Text ingestion: tokenise → clean → parse → store → extract fusion records.
//!
//! Produces the paper's two text-side collections:
//!
//! * `instance` (WEBINSTANCE): one hierarchical document per kept fragment,
//!   with **1 index** — exactly Table I's `nindexes: 1`.
//! * `entity` (WEBENTITIES): one flat document per extracted mention, with
//!   **8 indexes** — exactly Table II's `nindexes: 8`.
//!
//! Each fragment is read in one pass. It is lexed once ([`Tokenized`]):
//! its tokens carry their class flags, and its words their lowercase forms
//! in one buffer. The junk filter decides from those words
//! ([`TextCleaner::is_junk_words`], which counts the vocabulary's ids into a
//! dense vector), and only a kept fragment goes on to the parser
//! ([`DomainParser::parse_tokenized`]). The parser probes its lexicon (the
//! gazetteer's words and its own keywords) once per word, and every
//! extractor reads the same tokens and probes. Stored documents are never
//! built as [`Document`](datatamer_model::Document)s: each is written once,
//! field by field, into its storage encoding ([`Writer`]), straight from
//! the parse, and placed with
//! [`Collection::insert_encoded`]. A mention's canonical name is computed
//! once and written into both its instance entry and its entity document.
//!
//! Fragments go through in chunks of `CHUNK` (256). Per chunk, the
//! tokenise, junk check, parse and instance encoding run in parallel in
//! input order, and the kept instances are placed in one batch. The entity
//! documents, which need their instance's id as `fragment_ref`, are then
//! encoded in parallel and placed in a second batch, and the show records
//! are numbered sequentially. A batch is placed exactly as repeated single
//! inserts in input order would be, so every document id, stored byte,
//! reported stat and show record is the one a fragment-at-a-time loop over
//! `Document`s produces, at any thread count. The `Document` forms
//! ([`ParsedFragment::to_instance_doc`], [`ParsedFragment::entity_docs`])
//! are the tests' oracle for the bytes written here. The indexes are
//! declarations: storing a document does no index work, and
//! `Collection::stats` measures them.

use std::sync::Arc;

use rayon::prelude::*;

use datatamer_clean::TextCleaner;
use datatamer_model::{Record, RecordId, Result, SourceId, Value};
use datatamer_storage::encode::{EncodedDoc, Writer};
use datatamer_storage::{Collection, IndexSpec, Store};
use datatamer_text::normalize::canonical_name;
use datatamer_text::parser::SPAN_LISTS;
use datatamer_text::scan::SpanKind;
use datatamer_text::{DomainParser, EntityType, Mention, ParsedFragment, Tokenized};

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

/// A fragment that passed the cleaner, parsed, with its instance document
/// encoded.
struct Kept<'a> {
    fragment: &'a str,
    label: &'a str,
    parsed: ParsedFragment,
    /// `canonical_name` of each mention, in mention order.
    canonicals: Vec<String>,
    instance: EncodedDoc,
}

/// The WEBINSTANCE document of a parsed fragment, encoded: the fields and
/// order of [`ParsedFragment::to_instance_doc`] with `source` (the
/// fragment's label) appended. `canonicals` are the mentions' canonical
/// names, in mention order.
fn write_instance(parsed: &ParsedFragment, canonicals: &[String], label: &str) -> EncodedDoc {
    let in_list = |kinds: &'static [SpanKind]| {
        parsed.spans.iter().filter(move |s| kinds.contains(&s.kind))
    };
    let list_lens = SPAN_LISTS.map(|(_, kinds)| in_list(kinds).count());
    let has_entities = !parsed.mentions.is_empty();
    let fields = 3 + usize::from(has_entities) + list_lens.iter().filter(|&&n| n > 0).count();
    let capacity = 64
        + parsed.text.len()
        + label.len()
        + parsed.mentions.iter().map(|m| 2 * m.text.len() + 72).sum::<usize>()
        + parsed.spans.iter().map(|s| s.text.len() + 2).sum::<usize>();
    let mut w = Writer::document(fields, capacity);
    w.field("fragment");
    w.str(&parsed.text);
    w.field("chars");
    w.int(parsed.text.len() as i64);
    if has_entities {
        w.field("entities");
        w.array(parsed.mentions.len());
        for (m, canonical) in parsed.mentions.iter().zip(canonicals) {
            w.sub_document(6);
            w.field("type");
            w.str(m.entity_type.name());
            w.field("name");
            w.str(&m.text);
            w.field("canonical");
            w.str(canonical);
            w.field("start");
            w.int(m.start as i64);
            w.field("end");
            w.int(m.end as i64);
            w.field("confidence");
            w.float(m.confidence);
        }
    }
    for ((name, kinds), n) in SPAN_LISTS.iter().zip(list_lens) {
        if n > 0 {
            w.field(name);
            w.array(n);
            for s in in_list(kinds) {
                w.str(&s.text);
            }
        }
    }
    w.field("source");
    w.str(label);
    w.finish()
}

/// The WEBENTITIES document of mention `m` of `parsed`, encoded: the
/// fields and order of its [`ParsedFragment::entity_docs`] entry with
/// `fragment_ref` (its instance's id), `source` (the fragment's label) and
/// `chars` (the mention's byte length) appended.
fn write_entity(
    parsed: &ParsedFragment,
    m: &Mention,
    canonical: &str,
    fragment_ref: i64,
    label: &str,
) -> EncodedDoc {
    let context = parsed.context(m);
    let capacity = 96 + m.text.len() + canonical.len() + context.len() + label.len();
    let mut w = Writer::document(8, capacity);
    w.field("type");
    w.str(m.entity_type.name());
    w.field("name");
    w.str(&m.text);
    w.field("canonical");
    w.str(canonical);
    w.field("confidence");
    w.float(m.confidence);
    w.field("context");
    w.str(context);
    w.field("fragment_ref");
    w.int(fragment_ref);
    w.field("source");
    w.str(label);
    w.field("chars");
    w.int(m.text.len() as i64);
    w.finish()
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
    /// With a parser and the built-in ML cleaner (whose training is the
    /// error, should it fail).
    pub fn new(parser: DomainParser) -> Result<Self> {
        Ok(TextIngestor { parser, cleaner: TextCleaner::with_builtin_seeds()? })
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
                    let tokenized = Tokenized::new(fragment);
                    if self.cleaner.is_junk_words(tokenized.words()) {
                        return None;
                    }
                    let parsed = self.parser.parse_tokenized(&tokenized);
                    let canonicals: Vec<String> =
                        parsed.mentions.iter().map(|m| canonical_name(&m.text)).collect();
                    let instance = write_instance(&parsed, &canonicals, label);
                    Some(Kept { fragment, label, parsed, canonicals, instance })
                })
                .collect();
            stats.fragments_seen += chunk.len();
            stats.fragments_dropped += chunk.len() - kept.len();

            let instance_ids = instance_col.insert_encoded(kept.iter().map(|k| &k.instance))?;
            stats.instances += instance_ids.len() as u64;

            let entity_docs: Vec<EncodedDoc> = (0..kept.len())
                .into_par_iter()
                .flat_map(|i| {
                    let k = &kept[i];
                    let fragment_ref = instance_ids[i].0 as i64;
                    k.parsed.mentions.iter().zip(&k.canonicals).map(move |(m, canonical)| {
                        write_entity(&k.parsed, m, canonical, fragment_ref, k.label)
                    })
                })
                .collect();
            entity_col.insert_encoded(&entity_docs)?;
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
    use datatamer_model::Document;
    use datatamer_storage::encode::encode_document;
    use datatamer_storage::{CollectionConfig, CollectionStats, DocId};
    use datatamer_text::Gazetteer;
    use proptest::prelude::*;

    fn ingestor() -> TextIngestor {
        let mut g = Gazetteer::new();
        g.add("Matilda", EntityType::Movie, 0.95);
        g.add("London", EntityType::City, 0.9);
        g.add("Wicked", EntityType::Movie, 0.95);
        TextIngestor::new(DomainParser::with_gazetteer(g)).unwrap()
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

    /// The fragment-at-a-time loop the chunked path replaced: the junk
    /// filter over the raw text, the parse, `Document`s for the instance
    /// and each mention, and one insert per document. The chunked path,
    /// which tokenises once and encodes straight from the parse, must leave
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
        let ing = TextIngestor::new(DomainParser::with_gazetteer(g)).unwrap();
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

    /// The instance and entity documents of a parsed fragment, built as
    /// `Document`s the way the ingest built them before it wrote their
    /// encodings straight from the parse.
    fn oracle_docs(parsed: &ParsedFragment, label: &str, fragment_ref: i64) -> (Document, Vec<Document>) {
        let mut instance = parsed.to_instance_doc();
        instance.set("source", Value::from(label));
        let entities = parsed
            .mentions
            .iter()
            .zip(parsed.entity_docs())
            .map(|(m, mut d)| {
                d.set("fragment_ref", Value::Int(fragment_ref));
                d.set("source", Value::from(label));
                d.set("chars", Value::from(m.text.len()));
                d
            })
            .collect();
        (instance, entities)
    }

    /// `write_instance` and `write_entity` give exactly the bytes
    /// `encode_document` gives the oracle's documents. Returns the number
    /// of entity documents compared.
    fn assert_writes_as_the_oracle(
        parser: &DomainParser,
        text: &str,
        label: &str,
        fragment_ref: i64,
    ) -> usize {
        let parsed = parser.parse(text);
        let canonicals: Vec<String> =
            parsed.mentions.iter().map(|m| canonical_name(&m.text)).collect();
        let (instance, entities) = oracle_docs(&parsed, label, fragment_ref);
        assert_eq!(
            write_instance(&parsed, &canonicals, label).as_bytes(),
            encode_document(&instance),
            "instance of {text:?}"
        );
        assert_eq!(entities.len(), parsed.mentions.len());
        for ((m, canonical), want) in parsed.mentions.iter().zip(&canonicals).zip(&entities) {
            assert_eq!(
                write_entity(&parsed, m, canonical, fragment_ref, label).as_bytes(),
                encode_document(want),
                "entity {m:?} of {text:?}"
            );
        }
        entities.len()
    }

    #[test]
    fn writers_encode_corpus_fragments_as_the_document_oracle() {
        use datatamer_corpus::{WebTextConfig, WebTextCorpus};
        for (seed, padding_sentences) in [(0xDA7A_7A3E, 2), (7, 0)] {
            let corpus = WebTextCorpus::generate(&WebTextConfig {
                num_fragments: 300,
                seed,
                padding_sentences,
                ..Default::default()
            });
            let parser = DomainParser::with_gazetteer(corpus.gazetteer.clone());
            let mut entities = 0;
            for (i, f) in corpus.fragments.iter().enumerate() {
                // Ids of every varint width, negative ones included.
                let refs = [0, 1, 63, 64, -65, i64::MAX, i64::MIN, (i as i64) << 40];
                entities += assert_writes_as_the_oracle(
                    &parser,
                    &f.text,
                    f.kind.label(),
                    refs[i % refs.len()],
                );
            }
            assert!(entities > 3 * corpus.fragments.len(), "seed {seed}: {entities} entities");
        }
        let parser = ingestor().parser;
        for (text, label) in oracle_fragments() {
            assert_writes_as_the_oracle(&parser, &text, label, 5);
        }
        assert_writes_as_the_oracle(&parser, "", "", 0);
    }

    /// Pieces the proptest glues into fragments: gazetteer names, quoted
    /// titles, URLs, money, dates, times, percents, heuristic triggers and
    /// non-ASCII text (the context window counts characters, not bytes).
    const PIECES: &[&str] = &[
        "Matilda", "Wicked", "London", "\"The Last Ship\"", "\u{201c}Kinky Boots\u{201d}",
        "http://playbill.com/x", "www.broadway.org.", "$27", "960,998", "grossed", "percent",
        "93 %", "March 4, 2013", "3/4/2013", "7pm", "Mr.", "Lloyd", "Webber", "said",
        "Recorded", "Future", "Inc", "Shubert", "Theatre", "producer", "the", "café", "ΑΣ:Β",
        "日本語のテキスト", "🎭", ",", ".", "'",
    ];

    proptest! {
        #[test]
        fn writers_encode_generated_fragments_as_the_document_oracle(
            picks in prop::collection::vec(0..PIECES.len(), 0..40),
            glue in prop::collection::vec(0..3usize, 0..40),
            label in "[a-z\u{e9}]{0,8}",
            fragment_ref in any::<i64>(),
        ) {
            let mut text = String::new();
            for (k, p) in picks.iter().enumerate() {
                text.push_str(PIECES[*p]);
                text.push_str([" ", "", "  "][glue.get(k).copied().unwrap_or(0)]);
            }
            assert_writes_as_the_oracle(&ingestor().parser, &text, &label, fragment_ref);
        }
    }
}
