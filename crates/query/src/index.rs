//! Secondary indexes over fused-entity attributes.
//!
//! Two flavours share the [`AttrKey`] canonical key:
//!
//! * [`HashIndex`] — equality probes. A `HashMap` from key to sorted
//!   postings that is only ever probed, never iterated, so nothing
//!   observable depends on its order; keys whose postings empty are
//!   dropped rather than kept as tombstones.
//! * [`OrderedIndex`] — `BTreeMap`-backed range probes in `total_cmp`
//!   key order.
//!
//! [`EntityIndexes`] bundles one index per configured attribute and keeps
//! a reverse map from cluster id to the exact entries it contributed, so
//! a dirty cluster from `consolidate_delta` is unindexed/reindexed in
//! O(its own entries) — no rebuild. Postings store *cluster ids* (stable
//! across delta ingests: the smallest member record index of the group),
//! which the owning view translates to current row positions.

use datatamer_core::fusion::FusedEntity;
use datatamer_model::{AttrKey, Value};
use datatamer_sim::FnvBuildHasher;
use rayon::prelude::*;
use std::collections::{btree_map, BTreeMap, HashMap};
use std::ops::Bound;

use crate::ast::{AttrSource, Order};

/// Counters describing how indexes have been maintained — surfaced on the
/// stats endpoint so "no full rebuilds during delta ingest" is observable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexMaintenance {
    /// From-scratch builds (initial sync, or shape changes).
    pub full_builds: u64,
    /// Incremental syncs driven by a dirty-cluster set.
    pub delta_syncs: u64,
    /// Clusters unindexed + reindexed because a delta dirtied them.
    pub clusters_reindexed: u64,
    /// Clusters dropped because they vanished from the fused set.
    pub clusters_removed: u64,
    /// Clusters left untouched by an incremental sync.
    pub clusters_reused: u64,
    /// Individual `(attr, key, cluster)` entries inserted.
    pub entries_inserted: u64,
    /// Individual entries removed.
    pub entries_removed: u64,
}

impl IndexMaintenance {
    /// Flatten to `(name, value)` pairs for stats rendering.
    pub fn counter_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("index.full_builds", self.full_builds),
            ("index.delta_syncs", self.delta_syncs),
            ("index.clusters_reindexed", self.clusters_reindexed),
            ("index.clusters_removed", self.clusters_removed),
            ("index.clusters_reused", self.clusters_reused),
            ("index.entries_inserted", self.entries_inserted),
            ("index.entries_removed", self.entries_removed),
        ]
    }
}

/// Equality index: key → sorted cluster-id postings.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    /// Only live keys: a key whose postings empty is removed. Probed,
    /// never iterated.
    map: HashMap<AttrKey, Vec<usize>, FnvBuildHasher>,
}

impl HashIndex {
    fn insert(&mut self, key: AttrKey, cid: usize) {
        let postings = self.map.entry(key).or_default();
        if let Err(pos) = postings.binary_search(&cid) {
            postings.insert(pos, cid);
        }
    }

    fn remove(&mut self, key: &AttrKey, cid: usize) {
        let emptied = match self.map.get_mut(key) {
            Some(postings) => {
                if let Ok(pos) = postings.binary_search(&cid) {
                    postings.remove(pos);
                }
                postings.is_empty()
            }
            None => false,
        };
        if emptied {
            self.map.remove(key);
        }
    }

    /// Sorted cluster ids equal to `key` (empty when unseen).
    pub fn lookup(&self, key: &Value) -> &[usize] {
        self.map.get(&AttrKey(key.clone())).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct live keys.
    pub fn keys(&self) -> usize {
        self.map.len()
    }
}

/// Ordered index: `BTreeMap` in `total_cmp` key order for range probes.
#[derive(Debug, Clone, Default)]
pub struct OrderedIndex {
    map: BTreeMap<AttrKey, Vec<usize>>,
}

impl OrderedIndex {
    fn insert(&mut self, key: AttrKey, cid: usize) {
        let postings = self.map.entry(key).or_default();
        if let Err(pos) = postings.binary_search(&cid) {
            postings.insert(pos, cid);
        }
    }

    fn remove(&mut self, key: &AttrKey, cid: usize) {
        let emptied = match self.map.get_mut(key) {
            Some(postings) => {
                if let Ok(pos) = postings.binary_search(&cid) {
                    postings.remove(pos);
                }
                postings.is_empty()
            }
            None => false,
        };
        if emptied {
            self.map.remove(key);
        }
    }

    fn span(
        &self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> btree_map::Range<'_, AttrKey, Vec<usize>> {
        let wrap = |b: Bound<&Value>| match b {
            Bound::Included(v) => Bound::Included(AttrKey(v.clone())),
            Bound::Excluded(v) => Bound::Excluded(AttrKey(v.clone())),
            Bound::Unbounded => Bound::Unbounded,
        };
        self.map.range((wrap(lo), wrap(hi)))
    }

    /// Cluster ids whose key falls in the bounds, in key order (sorted
    /// within each key). The caller dedups across keys.
    pub fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<usize> {
        self.span(lo, hi).flat_map(|(_, postings)| postings.iter().copied()).collect()
    }

    /// The keys in the bounds with their sorted cluster-id postings, one
    /// group per key, walked lazily from the low end (`Asc`) or the high
    /// end (`Desc`).
    pub fn groups<'a>(
        &'a self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
        order: Order,
    ) -> Box<dyn Iterator<Item = (&'a Value, &'a [usize])> + 'a> {
        let span = self.span(lo, hi).map(|(key, postings)| (key.value(), postings.as_slice()));
        match order {
            Order::Asc => Box::new(span),
            Order::Desc => Box::new(span.rev()),
        }
    }

    /// Number of distinct keys.
    pub fn keys(&self) -> usize {
        self.map.len()
    }
}

/// Which index family an entry went into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Hash,
    Ordered,
}

/// One `(index, key)` contribution of a cluster — remembered for exact
/// removal when the cluster dirties.
#[derive(Debug, Clone)]
struct IndexEntry {
    family: Family,
    idx: u32,
    key: AttrKey,
}

/// All secondary indexes of one collection view.
#[derive(Debug, Clone, Default)]
pub struct EntityIndexes {
    hash_attrs: Vec<String>,
    ordered_attrs: Vec<String>,
    hash: Vec<HashIndex>,
    ordered: Vec<OrderedIndex>,
    /// cluster id → entries it contributed; never iterated, only probed.
    entries: HashMap<usize, Vec<IndexEntry>, FnvBuildHasher>,
    maint: IndexMaintenance,
}

impl EntityIndexes {
    /// Empty indexes over the given attribute lists.
    pub fn new(hash_attrs: Vec<String>, ordered_attrs: Vec<String>) -> Self {
        let hash = hash_attrs.iter().map(|_| HashIndex::default()).collect();
        let ordered = ordered_attrs.iter().map(|_| OrderedIndex::default()).collect();
        EntityIndexes {
            hash_attrs,
            ordered_attrs,
            hash,
            ordered,
            entries: HashMap::default(),
            maint: IndexMaintenance::default(),
        }
    }

    /// The hash index for `attr`, when configured.
    pub fn hash_index(&self, attr: &str) -> Option<&HashIndex> {
        self.hash_attrs.iter().position(|a| a == attr).map(|i| &self.hash[i])
    }

    /// The ordered index for `attr`, when configured.
    pub fn ordered_index(&self, attr: &str) -> Option<&OrderedIndex> {
        self.ordered_attrs.iter().position(|a| a == attr).map(|i| &self.ordered[i])
    }

    /// Maintenance counters so far.
    pub fn maintenance(&self) -> &IndexMaintenance {
        &self.maint
    }

    pub(crate) fn maint_mut(&mut self) -> &mut IndexMaintenance {
        &mut self.maint
    }

    /// Every entry `entity` contributes, extracted once (multikey: each
    /// array element becomes its own key). Pure, so views run it
    /// rayon-parallel across entities before inserting sequentially.
    fn extract(&self, entity: &FusedEntity) -> Vec<IndexEntry> {
        let mut out = Vec::new();
        let mut vals = Vec::new();
        for (i, attr) in self.hash_attrs.iter().enumerate() {
            vals.clear();
            entity.attr_values(attr, &mut vals);
            for v in vals.drain(..) {
                out.push(IndexEntry { family: Family::Hash, idx: i as u32, key: AttrKey(v) });
            }
        }
        for (i, attr) in self.ordered_attrs.iter().enumerate() {
            vals.clear();
            entity.attr_values(attr, &mut vals);
            for v in vals.drain(..) {
                out.push(IndexEntry { family: Family::Ordered, idx: i as u32, key: AttrKey(v) });
            }
        }
        out
    }

    fn apply(&mut self, cid: usize, extracted: Vec<IndexEntry>) {
        self.maint.entries_inserted += extracted.len() as u64;
        for e in &extracted {
            match e.family {
                Family::Hash => self.hash[e.idx as usize].insert(e.key.clone(), cid),
                Family::Ordered => self.ordered[e.idx as usize].insert(e.key.clone(), cid),
            }
        }
        self.entries.insert(cid, extracted);
    }

    /// Index a cluster's entity (replacing any previous contribution).
    pub fn insert_cluster(&mut self, cid: usize, entity: &FusedEntity) {
        self.remove_cluster(cid);
        self.apply(cid, self.extract(entity));
    }

    /// Drop every entry the cluster contributed. Returns whether it was
    /// indexed at all.
    pub fn remove_cluster(&mut self, cid: usize) -> bool {
        match self.entries.remove(&cid) {
            Some(old) => {
                self.maint.entries_removed += old.len() as u64;
                for e in &old {
                    match e.family {
                        Family::Hash => self.hash[e.idx as usize].remove(&e.key, cid),
                        Family::Ordered => self.ordered[e.idx as usize].remove(&e.key, cid),
                    }
                }
                true
            }
            None => false,
        }
    }

    /// True when the cluster currently has entries.
    pub fn contains_cluster(&self, cid: usize) -> bool {
        self.entries.contains_key(&cid)
    }

    /// Rebuild from scratch over `(cluster id, entity)` pairs. Entry
    /// extraction fans out with rayon; insertion replays sequentially in
    /// input order, so the result is byte-identical at any thread count.
    pub fn rebuild(&mut self, clusters: &[(usize, &FusedEntity)]) {
        let maint = std::mem::take(&mut self.maint);
        *self = EntityIndexes::new(
            std::mem::take(&mut self.hash_attrs),
            std::mem::take(&mut self.ordered_attrs),
        );
        self.maint = maint;
        let extracted: Vec<Vec<IndexEntry>> =
            clusters.par_iter().map(|(_, e)| self.extract(e)).collect();
        for ((cid, _), entries) in clusters.iter().zip(extracted) {
            self.apply(*cid, entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{Record, RecordId, SourceId};

    fn entity(key: &str, price: i64) -> FusedEntity {
        FusedEntity {
            key: key.to_string(),
            record: Record::from_pairs(
                SourceId(0),
                RecordId(0),
                vec![("PRICE", Value::Int(price)), ("KIND", Value::from("show"))],
            ),
            member_count: 1,
            confidence: None,
        }
    }

    fn indexes() -> EntityIndexes {
        EntityIndexes::new(
            vec!["KIND".to_string(), "_key".to_string()],
            vec!["PRICE".to_string()],
        )
    }

    #[test]
    fn insert_probe_remove() {
        let mut ix = indexes();
        let (a, b) = (entity("a", 10), entity("b", 20));
        ix.insert_cluster(0, &a);
        ix.insert_cluster(7, &b);
        assert_eq!(ix.hash_index("KIND").unwrap().lookup(&Value::from("show")), &[0, 7]);
        assert_eq!(ix.hash_index("_key").unwrap().lookup(&Value::from("b")), &[7]);
        let range = ix.ordered_index("PRICE").unwrap().range(
            Bound::Included(&Value::Int(15)),
            Bound::Unbounded,
        );
        assert_eq!(range, vec![7]);
        let ordered = ix.ordered_index("PRICE").unwrap();
        let walk = |order| -> Vec<(Value, Vec<usize>)> {
            ordered
                .groups(Bound::Unbounded, Bound::Included(&Value::Int(20)), order)
                .map(|(k, p)| (k.clone(), p.to_vec()))
                .collect()
        };
        assert_eq!(walk(Order::Asc), vec![(Value::Int(10), vec![0]), (Value::Int(20), vec![7])]);
        assert_eq!(walk(Order::Desc), vec![(Value::Int(20), vec![7]), (Value::Int(10), vec![0])]);
        assert!(ix.remove_cluster(0));
        assert_eq!(ix.hash_index("KIND").unwrap().lookup(&Value::from("show")), &[7]);
        assert!(!ix.remove_cluster(0), "second removal is a no-op");
    }

    #[test]
    fn reindex_replaces_old_entries() {
        let mut ix = indexes();
        ix.insert_cluster(3, &entity("a", 10));
        ix.insert_cluster(3, &entity("a2", 99));
        assert!(ix.hash_index("_key").unwrap().lookup(&Value::from("a")).is_empty());
        assert_eq!(ix.hash_index("_key").unwrap().lookup(&Value::from("a2")), &[3]);
        assert_eq!(ix.hash_index("_key").unwrap().keys(), 1, "emptied key is dropped");
        let all = ix
            .ordered_index("PRICE")
            .unwrap()
            .range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all, vec![3]);
        assert_eq!(ix.maintenance().entries_removed, 3, "old entries dropped");
    }

    #[test]
    fn rebuild_matches_incremental() {
        let es: Vec<FusedEntity> = (0..20).map(|i| entity(&format!("k{i}"), i)).collect();
        let mut inc = indexes();
        for (i, e) in es.iter().enumerate() {
            inc.insert_cluster(i * 2, e);
        }
        let mut full = indexes();
        let pairs: Vec<(usize, &FusedEntity)> =
            es.iter().enumerate().map(|(i, e)| (i * 2, e)).collect();
        full.rebuild(&pairs);
        for v in 0..20 {
            assert_eq!(
                inc.hash_index("_key").unwrap().lookup(&Value::from(format!("k{v}"))),
                full.hash_index("_key").unwrap().lookup(&Value::from(format!("k{v}"))),
            );
        }
        assert_eq!(
            inc.ordered_index("PRICE").unwrap().range(Bound::Unbounded, Bound::Unbounded),
            full.ordered_index("PRICE").unwrap().range(Bound::Unbounded, Bound::Unbounded),
        );
    }
}
