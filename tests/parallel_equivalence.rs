//! Determinism guard for every parallelism PR: the staged pipeline run
//! with a 1-thread rayon pool and with a wide pool must produce
//! byte-identical fused entities and identical collection statistics.
//!
//! The rayon shim honours `ThreadPool::install` thread-locally, so each
//! closure below runs the entire pipeline at its pool's width.

use datatamer::core::fusion::{
    BlockedErConfig, GroupingStrategy, RegistryConfig, ResolverSpec,
};
use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::storage::BackendConfig;
use datatamer::corpus::ftables::{self, FtablesConfig};
use datatamer::corpus::webtext::{WebTextConfig, WebTextCorpus};
use datatamer::text::DomainParser;
use rayon::ThreadPoolBuilder;

/// The configuration every run below starts from.
fn config() -> DataTamerConfig {
    DataTamerConfig { extent_size: 64 * 1024, shards: 4, ..Default::default() }
}

/// Build the full system through `DataTamer::run` under `config` and
/// flatten every observable output into one comparable byte blob.
fn run_pipeline_fingerprint(config: DataTamerConfig) -> (String, Vec<String>) {
    let corpus = WebTextCorpus::generate(&WebTextConfig {
        num_fragments: 400,
        background_mentions: 4,
        padding_sentences: 2,
        ..Default::default()
    });
    let sources = ftables::generate(&FtablesConfig::default(), 1000);
    let mut dt = DataTamer::new(config);
    let mut plan = PipelinePlan::new();
    for s in &sources {
        plan = plan.structured(&s.name, &s.records);
    }
    let frags: Vec<(&str, &str)> =
        corpus.fragments.iter().map(|f| (f.text.as_str(), f.kind.label())).collect();
    plan = plan.webtext(DomainParser::with_gazetteer(corpus.gazetteer.clone()), frags);

    let fused = dt.run(plan).expect("pipeline runs");
    // Byte-exact fingerprint of the fused output: key, member count, and
    // the full composite record (field order included via Debug).
    let fused_blob: String = fused
        .iter()
        .map(|f| format!("{}|{}|{:?}\n", f.key, f.member_count, f.record))
        .collect();

    // Collection statistics (counts, extents, index sizes) per collection.
    let stats: Vec<String> = dt
        .store()
        .collection_names()
        .into_iter()
        .map(|name| {
            format!("{:?}", dt.collection_stats(&name).expect("stats scan").expect("stats"))
        })
        .collect();
    (fused_blob, stats)
}

#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    let serial_pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let (serial_fused, serial_stats) =
        serial_pool.install(|| run_pipeline_fingerprint(config()));

    let wide_pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
    let (wide_fused, wide_stats) = wide_pool.install(|| run_pipeline_fingerprint(config()));

    assert_eq!(
        serial_fused, wide_fused,
        "fused entities must be byte-identical at any thread count"
    );
    assert_eq!(serial_stats, wide_stats, "collection stats must match");
    assert!(!serial_fused.is_empty(), "the fingerprint must cover real output");
}

#[test]
fn custom_resolver_registry_runs_are_byte_identical() {
    // A non-default registry exercising every truth-discovery resolver —
    // including the float-iterating SourceReliability — must stay
    // byte-deterministic across pool widths.
    let custom = || DataTamerConfig {
        fusion_resolvers: RegistryConfig::uniform(ResolverSpec::MajorityVote)
            .with("CHEAPEST_PRICE", ResolverSpec::SourceReliability { iterations: 5 })
            .with("THEATER", ResolverSpec::MultiTruth { min_support: 0.25 })
            .with("PERFORMANCE", ResolverSpec::LatestWins)
            .with("FIRST", ResolverSpec::LatestWins),
        ..config()
    };
    let serial_pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let (serial_fused, serial_stats) = serial_pool.install(|| run_pipeline_fingerprint(custom()));

    let wide_pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
    let (wide_fused, wide_stats) = wide_pool.install(|| run_pipeline_fingerprint(custom()));

    assert_eq!(
        serial_fused, wide_fused,
        "custom-registry fusion must be byte-identical at any thread count"
    );
    assert_eq!(serial_stats, wide_stats, "collection stats must match");
    assert!(!serial_fused.is_empty(), "the fingerprint must cover real output");

    // And the routing genuinely changed the output relative to the default.
    let (default_fused, _) =
        ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(|| {
            run_pipeline_fingerprint(config())
        });
    assert_ne!(
        serial_fused, default_fused,
        "the custom registry must actually alter fused values"
    );
}

#[test]
fn blocked_er_grouping_runs_are_byte_identical() {
    // The blocked-ER consolidation path — blocking, rayon-parallel pair
    // scoring, union-find clustering — must produce byte-identical fused
    // output at any pool width, like the canonical-name path it joins.
    let blocked = || DataTamerConfig {
        grouping: GroupingStrategy::BlockedEr(BlockedErConfig::default()),
        ..config()
    };
    let serial_pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let (serial_fused, serial_stats) = serial_pool.install(|| run_pipeline_fingerprint(blocked()));

    let wide_pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
    let (wide_fused, wide_stats) = wide_pool.install(|| run_pipeline_fingerprint(blocked()));

    assert_eq!(
        serial_fused, wide_fused,
        "blocked-ER fusion must be byte-identical at any thread count"
    );
    assert_eq!(serial_stats, wide_stats, "collection stats must match");
    assert!(!serial_fused.is_empty(), "the fingerprint must cover real output");
}

#[test]
fn file_backed_pipeline_matches_memory_at_any_thread_count() {
    // The whole staged pipeline on a file-backed store must fuse
    // byte-identically to the in-memory default — and stay
    // byte-identical across pool widths. Collection stats (counts,
    // extents, data sizes) are backend-independent by construction, so
    // they participate in the comparison too.
    let storage = |tag: &str| BackendConfig::File {
        dir: std::env::temp_dir().join(format!("dt_file_pipeline_{tag}_{}", std::process::id())),
    };
    let cleanup = |cfg: &BackendConfig| {
        if let BackendConfig::File { dir } = cfg {
            let _ = std::fs::remove_dir_all(dir);
        }
    };

    let serial_cfg = storage("serial");
    cleanup(&serial_cfg);
    let serial_pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let (serial_fused, serial_stats) = serial_pool.install(|| {
        run_pipeline_fingerprint(DataTamerConfig { backend: serial_cfg.clone(), ..config() })
    });

    let wide_cfg = storage("wide");
    cleanup(&wide_cfg);
    let wide_pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
    let (wide_fused, wide_stats) = wide_pool.install(|| {
        run_pipeline_fingerprint(DataTamerConfig { backend: wide_cfg.clone(), ..config() })
    });

    assert_eq!(
        serial_fused, wide_fused,
        "file-backed fusion must be byte-identical at any thread count"
    );
    assert_eq!(serial_stats, wide_stats, "collection stats must match");
    assert!(!serial_fused.is_empty(), "the fingerprint must cover real output");

    // The memory backend: it must be invisible in every fused byte and
    // every stat.
    let (memory_fused, memory_stats) = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| run_pipeline_fingerprint(config()));
    assert_eq!(serial_fused, memory_fused, "backend must not change fused output");
    assert_eq!(serial_stats, memory_stats, "backend must not change stats");

    cleanup(&serial_cfg);
    cleanup(&wide_cfg);
}

#[test]
fn parallel_scan_and_consolidation_are_thread_count_invariant() {
    use datatamer::entity::{Blocker, RecordSimilarity, BUCKET_CAP};
    use datatamer::model::{Record, RecordId, SourceId, Value};

    // Every name shares the leading token "show", so its bucket of 300
    // exceeds the cap and takes the progressive-window path; the
    // "groupK" buckets of ~27 expand quadratically beside it.
    let records: Vec<Record> = (0..300u64)
        .map(|i| {
            Record::from_pairs(
                SourceId(0),
                RecordId(i),
                vec![("name", Value::from(format!("Show Number{} Group{}", i, i % 11)))],
            )
        })
        .collect();
    assert!(records.len() > BUCKET_CAP);
    let blocker = Blocker::new("name");
    let scorer = RecordSimilarity::default();

    let job = || {
        let outcome = blocker.candidates_with_report(&records);
        let accepted = scorer.prepare(&records).accepted_pairs(&outcome.pairs, 0.75);
        (outcome, accepted)
    };
    let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(job);
    let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap().install(job);
    assert_eq!(serial.0.degraded_buckets, 1, "the 'show' bucket must blow the cap");
    assert_eq!(serial, wide, "blocking + scoring must not depend on thread count");
    assert!(!serial.0.pairs.is_empty());
}
