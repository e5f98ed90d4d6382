//! Pins the exact bytes text ingest stores. Every kept fragment becomes one
//! `instance` document and every mention one `entity` document; this test
//! hashes both collections' `(DocId, encoded document)` pairs in id order
//! and compares the hash with the value the `Document`-building ingest
//! produced, at one and at eight threads. Any change to what the ingest
//! stores, or to where it places it, moves the hash.

use datatamer::clean::textclean::JUNK_SEEDS;
use datatamer::core::ingest::{TextIngestor, ENTITY_COLLECTION, INSTANCE_COLLECTION};
use datatamer::corpus::webtext::{WebTextConfig, WebTextCorpus};
use datatamer::model::SourceId;
use datatamer::storage::encode::encode_document;
use datatamer::storage::{CollectionConfig, Store};
use datatamer::text::DomainParser;
use rayon::ThreadPoolBuilder;

/// FNV-1a 64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Ingest 600 generated fragments plus three junk lines (at positions 5,
/// 102 and 199, which the cleaner drops) at `threads` and hash what was
/// stored: the instance collection, then the entity collection, each in
/// id order as `format!("{id:?}")` followed by the document's encoding.
fn stored_bytes_hash(seed: u64, padding_sentences: usize, threads: usize) -> u64 {
    let corpus = WebTextCorpus::generate(&WebTextConfig {
        num_fragments: 600,
        seed,
        padding_sentences,
        ..Default::default()
    });
    let mut fragments: Vec<(&str, &str)> =
        corpus.fragments.iter().map(|f| (f.text.as_str(), f.kind.label())).collect();
    for (position, junk) in [5, 102, 199].into_iter().zip(JUNK_SEEDS) {
        fragments.insert(position, (junk, "spam"));
    }
    let store = Store::new("dt");
    let ingestor =
        TextIngestor::new(DomainParser::with_gazetteer(corpus.gazetteer.clone())).unwrap();
    let (stats, _) = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| {
            ingestor.ingest(&store, CollectionConfig::default(), SourceId(0), fragments.clone())
        })
        .unwrap();
    assert_eq!(stats.fragments_seen, 603);
    assert_eq!(stats.fragments_dropped, 3, "exactly the three junk lines are dropped");

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for name in [INSTANCE_COLLECTION, ENTITY_COLLECTION] {
        let col = store.collection(name).unwrap();
        let mut docs = col.parallel_scan(|id, d| Some((id, encode_document(d)))).unwrap();
        docs.sort_by_key(|(id, _)| *id);
        for (id, bytes) in docs {
            h.write(format!("{id:?}").as_bytes());
            h.write(&bytes);
        }
    }
    h.0
}

#[test]
fn stored_text_bytes_are_pinned() {
    for (seed, padding, want) in
        [(0xDA7A, 2, 0xed14_48b0_d039_3819_u64), (7, 0, 0x76ae_2d6f_6a65_3bc6)]
    {
        for threads in [1, 8] {
            let got = stored_bytes_hash(seed, padding, threads);
            assert_eq!(got, want, "seed {seed:#x}, padding {padding}, {threads} threads: {got:016x}");
        }
    }
}
