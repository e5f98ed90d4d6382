//! A queryable view over a pipeline's fused output, kept in sync across
//! `consolidate_delta` batches.
//!
//! [`CollectionView`] owns the entities, their stable cluster ids, and the
//! secondary indexes. [`CollectionView::sync`] accepts the pipeline's
//! current `(fused, fusion_groups)` plus an optional per-group dirty
//! bitmap (`changed`): with a bitmap, only dirtied and vanished clusters
//! are reindexed — the common delta-ingest case — and untouched clusters
//! keep their index entries verbatim; without one, the view rebuilds.
//! Cluster id = smallest member record index of the group, which
//! `IncrementalConsolidator` keeps stable across deltas.
//!
//! [`CollectionView::snapshot`] clones the current state into an immutable
//! [`CollectionSnapshot`] (entities +
//! cluster ids + indexes) that readers query without locks while the view
//! keeps ingesting.

use datatamer_core::fusion::{FusedEntity, FusionGroup};
use datatamer_sim::FnvBuildHasher;
use std::collections::HashMap;

use crate::exec::{CollectionSnapshot, SnapshotStats};
use crate::index::EntityIndexes;

/// Which attributes get which index flavour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// Equality (hash) indexed attributes.
    pub hash: Vec<String>,
    /// Range (ordered) indexed attributes.
    pub ordered: Vec<String>,
}

impl Default for IndexSpec {
    /// Point lookups by entity key, nothing else.
    fn default() -> Self {
        IndexSpec { hash: vec![crate::ast::KEY_ATTR.to_string()], ordered: Vec::new() }
    }
}

impl IndexSpec {
    /// Add a hash-indexed attribute.
    pub fn hash_on(mut self, attr: impl Into<String>) -> Self {
        self.hash.push(attr.into());
        self
    }

    /// Add an ordered-indexed attribute.
    pub fn ordered_on(mut self, attr: impl Into<String>) -> Self {
        self.ordered.push(attr.into());
        self
    }
}

/// A mutable, incrementally maintained view over fused entities.
#[derive(Debug, Clone)]
pub struct CollectionView {
    spec: IndexSpec,
    entities: Vec<FusedEntity>,
    /// Stable cluster id per row (parallel to `entities`).
    cluster_ids: Vec<usize>,
    /// cluster id → row position; probed, never iterated.
    pos: HashMap<usize, u32, FnvBuildHasher>,
    indexes: EntityIndexes,
    revision: u64,
}

impl CollectionView {
    /// An empty view with the given index shape.
    pub fn new(spec: IndexSpec) -> Self {
        let indexes = EntityIndexes::new(spec.hash.clone(), spec.ordered.clone());
        CollectionView {
            spec,
            entities: Vec::new(),
            cluster_ids: Vec::new(),
            pos: HashMap::default(),
            indexes,
            revision: 0,
        }
    }

    /// Entities currently in the view, in pipeline group order.
    pub fn entities(&self) -> &[FusedEntity] {
        &self.entities
    }

    /// Monotonic sync counter.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The index shape.
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// Index maintenance counters.
    pub fn maintenance(&self) -> &crate::index::IndexMaintenance {
        self.indexes.maintenance()
    }

    /// Bring the view up to date with the pipeline's fused output.
    ///
    /// `changed[i]` says group `i` was re-resolved since the last sync
    /// (the delta path's dirty set). `None` — or a bitmap whose length
    /// does not match `groups` — forces a full rebuild. Incremental sync
    /// removes vanished clusters, reindexes dirty or new ones, and counts
    /// the rest as reused without touching their entries.
    pub fn sync(
        &mut self,
        fused: &[FusedEntity],
        groups: &[FusionGroup],
        changed: Option<&[bool]>,
    ) {
        debug_assert_eq!(fused.len(), groups.len());
        let n = fused.len().min(groups.len());
        let cids: Vec<usize> =
            groups[..n].iter().map(|(_, members)| members.first().copied().unwrap_or(0)).collect();

        match changed {
            Some(dirty) if dirty.len() == n && self.revision > 0 => {
                self.indexes.maint_mut().delta_syncs += 1;
                // Drop clusters that no longer exist, scanning the *previous*
                // id vector (deterministic order; the pos map is never iterated).
                let mut live: Vec<bool> = vec![false; self.cluster_ids.len()];
                let mut new_pos: HashMap<usize, u32, FnvBuildHasher> = HashMap::default();
                for (row, &cid) in cids.iter().enumerate() {
                    new_pos.insert(cid, row as u32);
                }
                for (old_row, &cid) in self.cluster_ids.iter().enumerate() {
                    live[old_row] = new_pos.contains_key(&cid);
                }
                for (old_row, &cid) in self.cluster_ids.iter().enumerate() {
                    if !live[old_row] && self.indexes.remove_cluster(cid) {
                        self.indexes.maint_mut().clusters_removed += 1;
                    }
                }
                for (i, &cid) in cids.iter().enumerate() {
                    if dirty[i] || !self.indexes.contains_cluster(cid) {
                        self.indexes.insert_cluster(cid, &fused[i]);
                        self.indexes.maint_mut().clusters_reindexed += 1;
                    } else {
                        self.indexes.maint_mut().clusters_reused += 1;
                    }
                }
                self.pos = new_pos;
            }
            _ => {
                self.indexes.maint_mut().full_builds += 1;
                let pairs: Vec<(usize, &FusedEntity)> =
                    cids.iter().copied().zip(fused[..n].iter()).collect();
                self.indexes.rebuild(&pairs);
                let mut pos: HashMap<usize, u32, FnvBuildHasher> = HashMap::default();
                for (row, &cid) in cids.iter().enumerate() {
                    pos.insert(cid, row as u32);
                }
                self.pos = pos;
            }
        }

        self.entities = fused[..n].to_vec();
        self.cluster_ids = cids;
        self.revision += 1;
    }

    /// Clone the current state into an immutable snapshot, tagged with
    /// `counters` (storage/delta numbers the serving layer wants on its
    /// stats endpoint).
    pub fn snapshot(&self, counters: Vec<(String, u64)>) -> CollectionSnapshot {
        let stats = SnapshotStats {
            entities: self.entities.len(),
            revision: self.revision,
            index: self.indexes.maintenance().clone(),
            counters,
        };
        CollectionSnapshot::assemble(
            self.entities.clone(),
            self.cluster_ids.clone(),
            self.pos.clone(),
            self.indexes.clone(),
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{Record, RecordId, SourceId, Value};

    fn entity(key: &str, price: i64) -> FusedEntity {
        FusedEntity {
            key: key.to_string(),
            record: Record::from_pairs(
                SourceId(0),
                RecordId(0),
                vec![("PRICE", Value::Int(price))],
            ),
            member_count: 1,
            confidence: None,
        }
    }

    fn group(name: &str, members: Vec<usize>) -> FusionGroup {
        (name.to_string(), members)
    }

    #[test]
    fn incremental_sync_reuses_clean_clusters() {
        let spec = IndexSpec::default().ordered_on("PRICE");
        let mut view = CollectionView::new(spec);
        let fused = vec![entity("a", 1), entity("b", 2)];
        let groups = vec![group("a", vec![0]), group("b", vec![1])];
        view.sync(&fused, &groups, None);
        assert_eq!(view.maintenance().full_builds, 1);

        // Delta: cluster 0 dirtied, cluster 1 untouched, cluster 2 new.
        let fused2 = vec![entity("a2", 9), entity("b", 2), entity("c", 3)];
        let groups2 = vec![group("a2", vec![0, 2]), group("b", vec![1]), group("c", vec![3])];
        view.sync(&fused2, &groups2, Some(&[true, false, true]));
        let m = view.maintenance();
        assert_eq!(m.full_builds, 1, "no rebuild on delta");
        assert_eq!(m.delta_syncs, 1);
        assert_eq!(m.clusters_reindexed, 2);
        assert_eq!(m.clusters_reused, 1);
        assert_eq!(
            view.snapshot(Vec::new()).indexes().hash_index("_key").unwrap().lookup(&Value::from("a2")),
            &[0],
            "dirty cluster reindexed under its stable id"
        );
        assert!(view
            .snapshot(Vec::new())
            .indexes()
            .hash_index("_key")
            .unwrap()
            .lookup(&Value::from("a"))
            .is_empty());
    }

    #[test]
    fn vanished_clusters_are_unindexed() {
        let mut view = CollectionView::new(IndexSpec::default());
        let fused = vec![entity("a", 1), entity("b", 2)];
        let groups = vec![group("a", vec![0]), group("b", vec![1])];
        view.sync(&fused, &groups, None);
        // "b" merges into cluster 0.
        let fused2 = vec![entity("ab", 1)];
        let groups2 = vec![group("ab", vec![0, 1])];
        view.sync(&fused2, &groups2, Some(&[true]));
        assert_eq!(view.maintenance().clusters_removed, 1);
        let snap = view.snapshot(Vec::new());
        assert!(snap.indexes().hash_index("_key").unwrap().lookup(&Value::from("b")).is_empty());
        assert_eq!(snap.indexes().hash_index("_key").unwrap().lookup(&Value::from("ab")), &[0]);
    }
}
