//! Property tests for sharded collections under both backends: a
//! file-backed collection round-trips byte-identically through sync +
//! reopen, resumes its placement after the reopen, and matches a memory
//! reference, memory- and file-backed
//! collections are observationally equivalent, extent-parallel scans do
//! not depend on the rayon pool width, and a torn extent file fails every
//! reader that needs it instead of shrinking the answer.

use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

use datatamer_model::{doc, Document, Value};
use datatamer_storage::{
    BackendConfig, Collection, CollectionConfig, CollectionStats, DocId, IndexSpec,
};

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dt_backend_props_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Documents with a key drawn from a small alphabet plus a unique
/// payload.
fn documents(keys: &[String]) -> Vec<Document> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| doc! {"k" => k.clone(), "i" => i as i64, "pad" => "p".repeat(i % 13)})
        .collect()
}

/// The full observable state of a collection: ids with their documents in
/// deterministic scan order.
fn fingerprint(col: &Collection) -> Vec<(DocId, String)> {
    col.parallel_scan(|id, d| Some((id, format!("{d:?}")))).unwrap()
}

/// The group-by on `k` and the stats after declaring an index on `k`
/// over whatever the collection holds, both measured by scans.
type IndexImage = (Vec<(Value, u64)>, CollectionStats);

fn declared_index(col: &Collection) -> IndexImage {
    col.create_index(IndexSpec::new("by_k", "k")).unwrap();
    (col.count_by("k").unwrap(), col.stats("dt").unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // insert batch A → sync → reopen → insert batch B → sync → reopen:
    // at every step the file-backed collection places and scans exactly
    // like a memory collection that never closed, fed A then B — nothing
    // is lost at the flush boundary, the reopened round robin resumes
    // where A left it, a synced tail written again by B keeps every
    // document — and an index declared over the reopened chain reports
    // the memory collection's group-by and stats.
    #[test]
    fn file_backend_roundtrips_through_reopen(
        keys in prop::collection::vec("[abc]{1,3}", 1..60),
        split in any::<u64>(),
    ) {
        let dir = tempdir("roundtrip");
        let memory = CollectionConfig { extent_size: 256, shards: 3, ..Default::default() };
        let config = CollectionConfig {
            backend: BackendConfig::File { dir: dir.clone() },
            ..memory.clone()
        };
        let docs = documents(&keys);
        let (a, b) = docs.split_at((split % (docs.len() as u64 + 1)) as usize);
        let mem = Collection::new("c", memory).unwrap();
        let mem_a = mem.insert_many(a).unwrap();
        let after_a = fingerprint(&mem);
        let mem_b = mem.insert_many(b).unwrap();
        let (reference, reference_index) = (fingerprint(&mem), declared_index(&mem));
        {
            let col = Collection::new("c", config.clone()).unwrap();
            prop_assert_eq!(col.insert_many(a).unwrap(), mem_a);
            col.sync().unwrap();
            prop_assert_eq!(fingerprint(&col), after_a, "the scan after sync must match memory");
        }
        {
            let col = Collection::new("c", config.clone()).unwrap();
            prop_assert_eq!(col.len() as usize, a.len());
            prop_assert_eq!(col.insert_many(b).unwrap(), mem_b,
                "the reopened collection must resume the round robin");
            prop_assert_eq!(fingerprint(&col), reference.clone(),
                "the scan after reopen and more inserts must match memory");
            col.sync().unwrap();
        }
        let reopened = Collection::new("c", config).unwrap();
        prop_assert_eq!(fingerprint(&reopened), reference,
            "reopen must reproduce the scan byte for byte");
        prop_assert_eq!(reopened.len() as usize, docs.len());
        prop_assert_eq!(declared_index(&reopened), reference_index,
            "the declared index over the reopened chain must match memory");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // A memory-backed and a file-backed collection fed the same batch
    // place every document identically and scan byte-identically — the
    // backend is invisible to every reader.
    #[test]
    fn memory_and_file_backends_are_equivalent(
        keys in prop::collection::vec("[abcd]{1,4}", 1..50),
    ) {
        let dir = tempdir("equiv");
        let docs = documents(&keys);
        let mem = Collection::new("c", CollectionConfig {
            extent_size: 192,
            shards: 4,
            ..Default::default()
        }).unwrap();
        let file = Collection::new("c", CollectionConfig {
            extent_size: 192,
            shards: 4,
            backend: BackendConfig::File { dir: dir.clone() },
        }).unwrap();
        let mem_ids = mem.insert_many(&docs).unwrap();
        let file_ids = file.insert_many(&docs).unwrap();
        prop_assert_eq!(&mem_ids, &file_ids, "placement must match");
        prop_assert_eq!(fingerprint(&mem), fingerprint(&file), "scans must be byte-identical");
        let (ms, fs) = (mem.stats("dt").unwrap(), file.stats("dt").unwrap());
        prop_assert_eq!(ms.count, fs.count);
        prop_assert_eq!(ms.num_extents, fs.num_extents);
        prop_assert_eq!(ms.data_size, fs.data_size);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Extent-parallel scans are pool-width invariant in both the output
    // bytes and the per-shard decode-error counters.
    #[test]
    fn parallel_scan_is_thread_count_invariant(
        keys in prop::collection::vec("[abc]{1,3}", 4..48),
    ) {
        let dir = tempdir("threads");
        let docs = documents(&keys);
        let run = |tag: &str| {
            let col = Collection::new("c", CollectionConfig {
                extent_size: 256,
                shards: 3,
                backend: BackendConfig::File { dir: dir.join(tag) },
            }).unwrap();
            col.insert_many(&docs).unwrap();
            col.sync().unwrap();
            let mut prints = Vec::new();
            for _ in 0..3 {
                prints.push(fingerprint(&col));
            }
            let report = col.storage_report();
            let decode_errors: Vec<u64> = report.shards.iter().map(|s| s.decode_errors).collect();
            (prints, decode_errors)
        };
        let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap()
            .install(|| run("serial"));
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap()
            .install(|| run("wide"));
        prop_assert_eq!(serial.0, wide.0, "scan bytes must not depend on pool width");
        prop_assert_eq!(serial.1, wide.1, "decode errors must not depend on pool width");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // After a sync, tear one flushed extent of a file-backed collection —
    // truncate it, or overwrite it with garbage — and every reader that
    // needs it fails: the scan, the group-by, the measured stats and a
    // reopen. None answers
    // with a shorter corpus. The garbage is a varint that never
    // terminates, so no prefix of it decodes: random bytes could spell a
    // valid empty extent, which the unchecksummed format cannot tell from
    // a real one.
    #[test]
    fn a_torn_extent_fails_every_reader(
        keys in prop::collection::vec("[abc]{1,3}", 8..60),
        victim in any::<u64>(),
        truncate in any::<bool>(),
        cut in any::<u64>(),
    ) {
        let dir = tempdir("torn");
        let config = CollectionConfig {
            extent_size: 128,
            shards: 3,
            backend: BackendConfig::File { dir: dir.clone() },
        };
        let col = Collection::new("c", config.clone()).unwrap();
        let ids = col.insert_many(&documents(&keys)).unwrap();
        col.sync().unwrap();
        col.create_index(IndexSpec::new("by_k", "k")).unwrap();
        // Every extent is flushed after the sync; tear the one holding a
        // randomly chosen document.
        let id = ids[(victim % ids.len() as u64) as usize];
        let file = dir
            .join("c")
            .join(format!("shard{:03}", id.shard()))
            .join(format!("ext{:06}", id.extent()));
        let bytes = std::fs::read(&file).unwrap();
        let torn = if truncate {
            bytes[..(cut % bytes.len() as u64) as usize].to_vec()
        } else {
            vec![0xff; 1 + (cut % 64) as usize]
        };
        std::fs::write(&file, torn).unwrap();
        prop_assert!(col.parallel_scan(|_, _| Some(())).is_err(), "a torn extent must not scan as empty");
        prop_assert!(col.count_by("k").is_err(), "nor group it as empty");
        prop_assert!(col.stats("dt").is_err(), "nor measure it as empty");
        prop_assert!(Collection::new("c", config).is_err(), "nor adopt it on reopen");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
