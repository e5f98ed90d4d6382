//! Integration test: the text-side collections survive a save/load cycle
//! with indexes and statistics intact (the paper's collections are durable
//! distributed storage; ours persists to extent files).

use std::fs;

use datatamer::core::ingest::TextIngestor;
use datatamer::model::{SourceId, Value};
use datatamer::storage::persist::{load_store, save_store};
use datatamer::storage::{CollectionConfig, Store};
use datatamer::text::{DomainParser, EntityType, Gazetteer};

fn tempdir(tag: &str) -> std::path::PathBuf {
    // Tests in one binary run concurrently and share a PID: the tag keeps
    // their directories disjoint.
    let dir = std::env::temp_dir().join(format!("dt_it_persist_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn ingested_collections_roundtrip_through_disk() {
    let store = Store::new("dt");
    let mut gazetteer = Gazetteer::new();
    gazetteer.add("Matilda", EntityType::Movie, 0.95);
    gazetteer.add("Wicked", EntityType::Movie, 0.95);
    gazetteer.add("London", EntityType::City, 0.9);
    let ingestor = TextIngestor::new(DomainParser::with_gazetteer(gazetteer));
    let config = CollectionConfig { extent_size: 8 * 1024, shards: 4, ..Default::default() };
    let fragments = [
        ("Matilda an award-winning import from London grossed 960,998", "news"),
        ("Wicked still sells out on Broadway nightly", "blog"),
        ("Matilda tickets from $27 this weekend", "twitter"),
    ];
    let (stats, _) = ingestor.ingest(&store, config, SourceId(0), fragments).unwrap();
    assert_eq!(stats.instances, 3);

    let dir = tempdir("roundtrip");
    save_store(&store, &dir).expect("save");

    let restored = load_store("dt", &dir).expect("load");
    assert_eq!(restored.collection_names(), vec!["entity", "instance"]);

    // Stats match (count, extents, index count, measured index sizes).
    for name in ["instance", "entity"] {
        let before = store.stats(name).unwrap();
        let after = restored.stats(name).unwrap();
        assert_eq!(before.count, after.count, "{name} count");
        assert_eq!(before.num_extents, after.num_extents, "{name} extents");
        assert_eq!(before.nindexes, after.nindexes, "{name} indexes");
        assert_eq!(before.total_index_size, after.total_index_size, "{name} index bytes");
        assert_eq!(before.data_size, after.data_size, "{name} data bytes");
    }

    // Lookups behave identically post-restore: the rebuilt index agrees
    // with a scan.
    let entity = restored.collection("entity").unwrap();
    let matilda = Value::from("matilda");
    let mut matildas = entity
        .parallel_scan(|id, d| (d.get("canonical") == Some(&matilda)).then_some(id))
        .unwrap();
    assert_eq!(matildas.len(), 2, "two fragments mention Matilda");
    let mut by_index = entity.with_index("by_canonical", |i| i.lookup(&matilda)).unwrap();
    matildas.sort_unstable();
    by_index.sort_unstable();
    assert_eq!(by_index, matildas);

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_survives_partial_collection_sets() {
    let store = Store::new("dt");
    let col = store
        .create_collection("only", CollectionConfig { extent_size: 4096, shards: 2, ..Default::default() })
        .unwrap();
    for i in 0..10i64 {
        let mut d = datatamer::model::Document::new();
        d.set("i", Value::Int(i));
        col.insert(&d).unwrap();
    }
    let dir = tempdir("partial");
    save_store(&store, &dir).expect("save");
    let restored = load_store("dt", &dir).expect("load");
    assert_eq!(restored.collection("only").unwrap().len(), 10);
    assert!(restored.collection("missing").is_none());
    fs::remove_dir_all(&dir).unwrap();
}
