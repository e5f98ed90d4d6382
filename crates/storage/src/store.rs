//! A namespace of collections (the paper's `dt` database).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use datatamer_model::Result;

use crate::collection::{Collection, CollectionConfig};
use crate::stats::CollectionStats;

/// A store: named collections under one namespace.
pub struct Store {
    namespace: String,
    collections: RwLock<BTreeMap<String, Arc<Collection>>>,
}

impl Store {
    /// Create a store with the given namespace (the paper uses `dt`).
    pub fn new(namespace: impl Into<String>) -> Self {
        Store { namespace: namespace.into(), collections: RwLock::new(BTreeMap::new()) }
    }

    /// The namespace prefix used in stats output.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// Fetch a collection handle.
    pub fn collection(&self, name: &str) -> Option<Arc<Collection>> {
        self.collections.read().get(name).cloned()
    }

    /// Fetch the collection, creating it under this call's write lock when
    /// absent. A fast read-locked probe serves the common hit path; the
    /// miss path takes the write lock once and re-checks under it, so two
    /// racing creators cannot observe "absent then also absent" — one
    /// inserts, the other gets the inserted handle.
    ///
    /// Errors when the collection does not already exist and `config` is
    /// invalid (zero extent size / bad shard count), the name is
    /// path-hostile, or a file backend fails to open its directory. Names
    /// become directory names under a file backend's root, so
    /// [`Collection::new`] rejects path separators, `..` and NUL before a
    /// name can reach a filesystem call.
    pub fn collection_or_create(
        &self,
        name: &str,
        config: CollectionConfig,
    ) -> Result<Arc<Collection>> {
        if let Some(c) = self.collection(name) {
            return Ok(c);
        }
        let mut cols = self.collections.write();
        if let Some(c) = cols.get(name) {
            return Ok(c.clone());
        }
        let col = Arc::new(Collection::new(name, config)?);
        cols.insert(name.to_owned(), col.clone());
        Ok(col)
    }

    /// Collection names in order.
    pub fn collection_names(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }

    /// Stats for one collection, namespaced like `dt.instance`.
    pub fn stats(&self, name: &str) -> Option<CollectionStats> {
        self.collection(name).map(|c| c.stats(&self.namespace))
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("namespace", &self.namespace)
            .field("collections", &self.collection_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::doc;

    #[test]
    fn create_and_get() {
        let store = Store::new("dt");
        let c = store.collection_or_create("instance", CollectionConfig::default()).unwrap();
        c.insert(&doc! {"a" => 1i64}).unwrap();
        assert!(store.collection("instance").is_some());
        assert!(store.collection("missing").is_none());
        assert_eq!(store.collection_names(), vec!["instance"]);
    }

    #[test]
    fn stats_are_namespaced() {
        let store = Store::new("dt");
        let c = store.collection_or_create("entity", CollectionConfig::default()).unwrap();
        c.insert(&doc! {"type" => "Person"}).unwrap();
        let stats = store.stats("entity").unwrap();
        assert_eq!(stats.ns, "dt.entity");
        assert_eq!(stats.count, 1);
        assert!(store.stats("missing").is_none());
    }

    #[test]
    fn path_hostile_names_never_become_collections() {
        // Names become directories under a file backend's root; these
        // would escape or break it.
        let store = Store::new("dt");
        for bad in ["../escape", "nested/dir", "back\\slash", "..", "", "nul\0byte"] {
            assert!(
                store.collection_or_create(bad, CollectionConfig::default()).is_err(),
                "{bad:?} must be rejected"
            );
        }
        assert!(store.collection_names().is_empty(), "nothing was created");
        // Benign punctuation still works.
        assert!(store.collection_or_create("shows.2026-v1", CollectionConfig::default()).is_ok());
    }

    #[test]
    fn collection_or_create_is_idempotent() {
        let store = Store::new("dt");
        let a = store.collection_or_create("x", CollectionConfig::default()).unwrap();
        a.insert(&doc! {"v" => 1i64}).unwrap();
        let b = store.collection_or_create("x", CollectionConfig::default()).unwrap();
        assert_eq!(b.len(), 1);
        assert!(
            store
                .collection_or_create("bad/name", CollectionConfig::default())
                .is_err(),
            "path-hostile names error instead of panicking"
        );
    }
}
