//! Pins the exact bytes the cleaning stage stores. A staged run maps,
//! cleans and stores every FTABLES record as one `global_records`
//! document; this test hashes that collection's `(DocId, encoded
//! document)` pairs in id order and compares the hash with the value the
//! `Document`-building stage produced, at one and at eight threads. The
//! sources are dirty on purpose: half the prices are in euros, a fifth of
//! the cells are null spellings, and some sources carry attribute names
//! that collide once upper-cased. Any change to what the stage stores, or
//! to where it places it, moves the hash.

use datatamer::core::pipeline::GLOBAL_RECORDS_COLLECTION;
use datatamer::core::stage::{stage_names, StageReport};
use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::corpus::ftables::{self, canon, FtablesConfig};
use datatamer::model::Value;
use datatamer::storage::encode::encode_document;
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

/// The 20 FTABLES sources at a high euro and null rate. Every third
/// source also carries, on every record, an upper-cased twin of its show
/// attribute and a capitalised twin of its price attribute (when it has
/// one), each holding a value of its own.
fn dirty_sources() -> Vec<ftables::GeneratedSource> {
    let config = FtablesConfig { null_rate: 0.2, euro_rate: 0.5, ..Default::default() };
    let mut sources = ftables::generate(&config, 0);
    for source in sources.iter_mut().step_by(3) {
        let twin_of = |canonical: &str| {
            source.mapping.iter().find(|(_, c)| **c == canonical).map(|(attr, _)| attr.clone())
        };
        let show = twin_of(canon::SHOW_NAME).map(|a| a.to_uppercase());
        let price = twin_of(canon::CHEAPEST_PRICE).map(|a| a[..1].to_uppercase() + &a[1..]);
        for r in &mut source.records {
            if let Some(show) = &show {
                r.set(show.clone(), Value::from(format!("Twin {}", r.id.0)));
            }
            if let Some(price) = &price {
                let cell =
                    if r.id.0 % 4 == 0 { "N/A".to_owned() } else { format!("€{}", 10 + r.id.0) };
                r.set(price.clone(), Value::from(cell));
            }
        }
    }
    sources
}

/// Run the staged pipeline over [`dirty_sources`] at `threads` and hash
/// the global-records collection in id order, as `format!("{id:?}")`
/// followed by the document's encoding.
fn stored_bytes_hash(threads: usize) -> u64 {
    let sources = dirty_sources();
    let mut dt =
        DataTamer::new(DataTamerConfig { extent_size: 64 * 1024, shards: 4, ..Default::default() });
    let mut plan = PipelinePlan::new();
    for s in &sources {
        plan = plan.structured(&s.name, &s.records);
    }
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| dt.run(plan))
        .unwrap();

    let Some(StageReport::SchemaIntegration { case_collisions, .. }) =
        dt.context().report_of(stage_names::SCHEMA_INTEGRATION)
    else {
        panic!("the run integrates schemas");
    };
    assert!(*case_collisions > 0, "the twins collide once upper-cased");
    let Some(StageReport::Cleaning { records, nulls_canonicalized, values_transformed, .. }) =
        dt.context().report_of(stage_names::CLEANING)
    else {
        panic!("the run cleans");
    };
    assert_eq!(*records, sources.iter().map(|s| s.records.len()).sum::<usize>());
    assert!(*nulls_canonicalized > 0 && *values_transformed > 0);

    let col = dt.collection(GLOBAL_RECORDS_COLLECTION).unwrap();
    let mut docs = col.parallel_scan(|id, d| Some((id, encode_document(d)))).unwrap();
    assert_eq!(docs.len(), *records);
    docs.sort_by_key(|(id, _)| *id);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (id, bytes) in docs {
        h.write(format!("{id:?}").as_bytes());
        h.write(&bytes);
    }
    h.0
}

#[test]
fn stored_curated_bytes_are_pinned() {
    for threads in [1, 8] {
        let got = stored_bytes_hash(threads);
        assert_eq!(got, 0xcf29_4cd9_be77_7d30, "{threads} threads: {got:016x}");
    }
}
