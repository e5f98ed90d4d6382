//! Saving and loading a store to a directory of extent files.
//!
//! Layout: `<dir>/<collection>/manifest` holds the config and index specs;
//! `<dir>/<collection>/shard<NN>.ext<MM>` holds one serialised extent each.
//! The format is the crate's own binary encoding end to end — no external
//! serialisation.

use std::fs;
use std::io::{Read, Write};
use std::path::Path;

use datatamer_model::{DtError, Result};

use crate::collection::{Collection, CollectionConfig};
use crate::encode::{get_varint, put_varint};
use crate::index::IndexSpec;
use crate::store::Store;

const MANIFEST_MAGIC: &[u8; 8] = b"DTMANIF1";

fn write_manifest(
    path: &Path,
    config: &CollectionConfig,
    shard_extent_counts: &[usize],
    specs: &[IndexSpec],
) -> Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MANIFEST_MAGIC);
    put_varint(&mut buf, config.extent_size as u64);
    put_varint(&mut buf, config.shards as u64);
    for n in shard_extent_counts {
        put_varint(&mut buf, *n as u64);
    }
    put_varint(&mut buf, specs.len() as u64);
    for s in specs {
        put_string(&mut buf, &s.name);
        put_string(&mut buf, &s.path);
    }
    fs::File::create(path)?.write_all(&buf)?;
    Ok(())
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn read_string(buf: &mut &[u8]) -> Result<String> {
    let len = get_varint(buf)? as usize;
    if buf.len() < len {
        return Err(DtError::Decode("manifest string truncated".into()));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|e| DtError::Decode(format!("manifest utf8: {e}")))?;
    *buf = &buf[len..];
    Ok(s)
}

struct Manifest {
    config: CollectionConfig,
    shard_extent_counts: Vec<usize>,
    specs: Vec<IndexSpec>,
}

fn read_manifest(path: &Path) -> Result<Manifest> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 8 || &bytes[..8] != MANIFEST_MAGIC {
        return Err(DtError::Decode("bad manifest magic".into()));
    }
    let mut buf = &bytes[8..];
    let extent_size = get_varint(&mut buf)? as usize;
    let shards = get_varint(&mut buf)? as usize;
    if shards == 0 || shards > 256 {
        return Err(DtError::Decode(format!("manifest shard count {shards} invalid")));
    }
    let mut shard_extent_counts = Vec::with_capacity(shards);
    for _ in 0..shards {
        shard_extent_counts.push(get_varint(&mut buf)? as usize);
    }
    let nspecs = get_varint(&mut buf)? as usize;
    let mut specs = Vec::with_capacity(nspecs.min(1024));
    for _ in 0..nspecs {
        let name = read_string(&mut buf)?;
        let path = read_string(&mut buf)?;
        specs.push(IndexSpec::new(name, path));
    }
    // The manifest predates the coordinator and stays format-stable: it
    // records extent size and shard count only, so loaded collections come
    // back on the default in-process backend (placement is always round
    // robin, so nothing else needs recording). Callers wanting a
    // file-backed reopen use the file backend's own directory adoption
    // instead of this snapshot path.
    Ok(Manifest {
        config: CollectionConfig { extent_size, shards, ..Default::default() },
        shard_extent_counts,
        specs,
    })
}

/// Save every collection of `store` under `dir` (created if absent).
pub fn save_store(store: &Store, dir: &Path) -> Result<()> {
    fs::create_dir_all(dir)?;
    for name in store.collection_names() {
        // The name list and the collection map can in principle drift
        // under a concurrent drop; surface that as an error, not a panic.
        let col = store
            .collection(&name)
            .ok_or_else(|| DtError::NotFound(format!("listed collection `{name}` disappeared")))?;
        save_collection(&col, &dir.join(&name))?;
    }
    Ok(())
}

/// Save a single collection under `dir`.
pub fn save_collection(col: &Collection, dir: &Path) -> Result<()> {
    fs::create_dir_all(dir)?;
    let snapshots = col.snapshot_extents()?;
    let counts: Vec<usize> = snapshots.iter().map(Vec::len).collect();
    write_manifest(&dir.join("manifest"), col.config(), &counts, &col.index_specs())?;
    for (shard_no, extents) in snapshots.iter().enumerate() {
        for (ext_no, bytes) in extents.iter().enumerate() {
            let fname = dir.join(format!("shard{shard_no:03}.ext{ext_no:06}"));
            fs::File::create(fname)?.write_all(bytes)?;
        }
    }
    Ok(())
}

/// Load a collection from `dir`, rebuilding indexes from the manifest.
pub fn load_collection(name: &str, dir: &Path) -> Result<Collection> {
    let manifest = read_manifest(&dir.join("manifest"))?;
    let mut shard_extents = Vec::with_capacity(manifest.config.shards);
    for (shard_no, n) in manifest.shard_extent_counts.iter().enumerate() {
        let mut extents = Vec::with_capacity(*n);
        for ext_no in 0..*n {
            let fname = dir.join(format!("shard{shard_no:03}.ext{ext_no:06}"));
            let mut bytes = Vec::new();
            fs::File::open(&fname)
                .map_err(|e| DtError::Io(format!("{}: {e}", fname.display())))?
                .read_to_end(&mut bytes)?;
            extents.push(bytes);
        }
        shard_extents.push(extents);
    }
    Collection::restore(name.to_owned(), manifest.config, shard_extents, manifest.specs)
}

/// Load a whole store: every subdirectory of `dir` becomes a collection.
pub fn load_store(namespace: &str, dir: &Path) -> Result<Store> {
    let store = Store::new(namespace);
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    for name in names {
        let col = load_collection(&name, &dir.join(&name))?;
        store.adopt(name, col);
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexSpec;
    use datatamer_model::{doc, Value};

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dt_persist_{tag}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn collection_roundtrip_with_indexes() {
        let dir = tempdir("col");
        let col = Collection::new(
            "shows",
            CollectionConfig { extent_size: 512, shards: 3, ..Default::default() },
        )
        .unwrap();
        for i in 0..30i64 {
            col.insert(&doc! {"i" => i, "kind" => if i % 2 == 0 { "even" } else { "odd" }})
                .unwrap();
        }
        col.create_index(IndexSpec::new("by_kind", "kind")).unwrap();
        save_collection(&col, &dir).unwrap();

        let restored = load_collection("shows", &dir).unwrap();
        assert_eq!(restored.len(), 30);
        assert_eq!(restored.index_count(), 1);
        let even = Value::from("even");
        let evens = restored.with_index("by_kind", |i| i.lookup(&even)).unwrap();
        assert_eq!(evens.len(), 15);
        for id in evens {
            let doc = restored.get(id).unwrap().expect("indexed id is live");
            assert_eq!(doc.get("kind"), Some(&even));
        }
        let stats = restored.stats("dt");
        assert_eq!(stats.count, 30);
        assert!(stats.total_index_size > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_roundtrip() {
        let dir = tempdir("store");
        let store = Store::new("dt");
        let a = store.create_collection("instance", CollectionConfig::default()).unwrap();
        a.insert(&doc! {"fragment" => "Matilda grossed 960,998"}).unwrap();
        let b = store.create_collection("entity", CollectionConfig::default()).unwrap();
        b.insert(&doc! {"type" => "Movie", "name" => "Matilda"}).unwrap();
        b.create_index(IndexSpec::new("by_type", "type")).unwrap();
        save_store(&store, &dir).unwrap();

        let loaded = load_store("dt", &dir).unwrap();
        assert_eq!(loaded.collection_names(), vec!["entity", "instance"]);
        let ent = loaded.collection("entity").unwrap();
        assert_eq!(ent.len(), 1);
        let hits = ent.with_index("by_type", |i| i.lookup(&Value::from("Movie"))).unwrap();
        assert_eq!(hits.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_and_corrupt_files_error() {
        let dir = tempdir("corrupt");
        assert!(load_collection("x", &dir).is_err());
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("manifest"), b"NOTMAGIC").unwrap();
        assert!(load_collection("x", &dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
