//! Property tests for the shard-coordinator subsystem: the file backend
//! round-trips byte-identically through flush + reopen, memory- and
//! file-backed collections are observationally equivalent, and the extent
//! cache never changes a scanned byte at any budget or rayon pool width.

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

    // insert_many → sync → reopen: the reopened file-backed collection
    // scans byte-identically to the original — nothing is lost at the
    // flush boundary, nothing is resurrected past a tombstone.
    #[test]
    fn file_backend_roundtrips_through_reopen(
        keys in prop::collection::vec("[abc]{1,3}", 1..60),
        delete_every in 2usize..9,
    ) {
        let dir = tempdir("roundtrip");
        let config = CollectionConfig {
            extent_size: 256,
            shards: 3,
            backend: BackendConfig::File { dir: dir.clone() },
            ..Default::default()
        };
        let docs = documents(&keys);
        let before = {
            let col = Collection::new("c", config.clone()).unwrap();
            let ids = col.insert_many(&docs).unwrap();
            for id in ids.iter().step_by(delete_every) {
                prop_assert!(col.delete(*id).unwrap());
            }
            col.sync().unwrap();
            fingerprint(&col)
        };
        let reopened = Collection::new("c", config).unwrap();
        prop_assert_eq!(
            fingerprint(&reopened), before,
            "reopen must reproduce the scan byte for byte"
        );
        prop_assert_eq!(reopened.len() as usize, docs.len() - docs.len().div_ceil(delete_every));
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
            ..Default::default()
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

    // Every extent-cache budget — disabled, one-extent-tight, unbounded —
    // scans byte-identically to the in-memory backend and to every other
    // budget, through tombstones and a flush + reopen, and an index
    // declared over the reopened chain (measured through the cache's scan
    // plan) reports the memory collection's group-by and stats. The budget is
    // a pure performance knob; it must never be visible in any byte of
    // output.
    #[test]
    fn cache_budget_never_changes_scan_bytes(
        keys in prop::collection::vec("[abc]{1,3}", 1..60),
        delete_every in 2usize..9,
    ) {
        let dir = tempdir("budgets");
        let docs = documents(&keys);
        let (reference, reference_index) = {
            let mem = Collection::new("c", CollectionConfig {
                extent_size: 256,
                shards: 3,
                ..Default::default()
            }).unwrap();
            let ids = mem.insert_many(&docs).unwrap();
            for id in ids.iter().step_by(delete_every) {
                prop_assert!(mem.delete(*id).unwrap());
            }
            (fingerprint(&mem), declared_index(&mem))
        };
        // Some(256) ≈ one extent: constant eviction pressure.
        for (tag, budget) in [("zero", Some(0)), ("one", Some(256)), ("unbounded", None)] {
            let config = CollectionConfig {
                extent_size: 256,
                shards: 3,
                backend: BackendConfig::File { dir: dir.join(tag) },
                extent_cache_budget: budget,
            };
            let before = {
                let col = Collection::new("c", config.clone()).unwrap();
                let ids = col.insert_many(&docs).unwrap();
                for id in ids.iter().step_by(delete_every) {
                    prop_assert!(col.delete(*id).unwrap());
                }
                // Scan twice so the second pass reads through whatever the
                // budget retained from the first.
                prop_assert_eq!(fingerprint(&col), reference.clone(),
                    "budget {:?}: first scan must match memory", budget);
                col.sync().unwrap();
                fingerprint(&col)
            };
            prop_assert_eq!(&before, &reference,
                "budget {:?}: warm scan must match memory", budget);
            let reopened = Collection::new("c", config).unwrap();
            prop_assert_eq!(fingerprint(&reopened), reference.clone(),
                "budget {:?}: reopened scan must match memory", budget);
            prop_assert_eq!(declared_index(&reopened), reference_index.clone(),
                "budget {:?}: declared index must match memory", budget);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Counter sanity at every budget: hits + misses = lookups, every miss
    // is one disk load, and evictions only fire when a bounded budget is
    // actually exceeded.
    #[test]
    fn cache_counters_stay_sane(
        keys in prop::collection::vec("[ab]{1,3}", 4..48),
        scans in 1usize..4,
    ) {
        let dir = tempdir("counters");
        for (tag, budget) in [("zero", Some(0)), ("tight", Some(512)), ("unbounded", None)] {
            let col = Collection::new("c", CollectionConfig {
                extent_size: 256,
                shards: 2,
                backend: BackendConfig::File { dir: dir.join(tag) },
                extent_cache_budget: budget,
            }).unwrap();
            col.insert_many(&documents(&keys)).unwrap();
            col.sync().unwrap();
            for _ in 0..scans {
                col.parallel_scan(|_, d| d.get("i").cloned()).unwrap();
            }
            let report = col.storage_report();
            let cache = report.cache_totals().expect("file shards report a cache");
            prop_assert_eq!(cache.budget, budget);
            // Each scan plans exactly one lookup per flushed extent, and
            // after sync every extent is flushed — nothing else in this
            // sequence performs lookups, so the ledger must balance.
            let extents: usize = report.shards.iter().map(|s| s.extents).sum();
            prop_assert_eq!(cache.hits + cache.misses, (scans * extents) as u64,
                "hits + misses = lookups: {:?}", cache);
            prop_assert_eq!(cache.misses, cache.disk_loads,
                "every miss is exactly one extent file read: {:?}", cache);
            match budget {
                Some(0) => {
                    prop_assert_eq!(cache.hits, 0, "disabled cache never hits: {:?}", cache);
                    prop_assert_eq!(cache.evictions, 0, "never admitted, never evicted");
                    prop_assert_eq!(cache.occupancy_bytes, 0);
                }
                None => {
                    prop_assert_eq!(cache.evictions, 0, "unbounded cache never evicts: {:?}", cache);
                    if scans > 1 {
                        prop_assert!(cache.hits > 0, "warm scans must hit: {:?}", cache);
                    }
                }
                Some(b) => {
                    prop_assert!(cache.occupancy_bytes <= b * 2,
                        "per-shard budget bounds total occupancy over 2 shards: {:?}", cache);
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Extent-parallel scans are pool-width invariant in *both* the output
    // bytes and the cache counters: plan-time hit/miss resolution makes
    // the StorageReport deterministic, not just the data.
    #[test]
    fn parallel_scan_cache_counters_are_thread_count_invariant(
        keys in prop::collection::vec("[abc]{1,3}", 4..48),
    ) {
        let dir = tempdir("threads");
        let docs = documents(&keys);
        let run = |tag: &str| {
            let col = Collection::new("c", CollectionConfig {
                extent_size: 256,
                shards: 3,
                backend: BackendConfig::File { dir: dir.join(tag) },
                extent_cache_budget: Some(768),
            }).unwrap();
            col.insert_many(&docs).unwrap();
            col.sync().unwrap();
            let mut prints = Vec::new();
            for _ in 0..3 {
                prints.push(fingerprint(&col));
            }
            let report = col.storage_report();
            let shard_counters: Vec<_> = report.shards.iter()
                .map(|s| (s.decode_errors, s.cache))
                .collect();
            (prints, shard_counters)
        };
        let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap()
            .install(|| run("serial"));
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap()
            .install(|| run("wide"));
        prop_assert_eq!(serial.0, wide.0, "scan bytes must not depend on pool width");
        prop_assert_eq!(serial.1, wide.1, "cache counters must not depend on pool width");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
