//! A queryable view over a pipeline's fused output, kept in sync across
//! `consolidate_delta` batches.
//!
//! [`CollectionView`] owns the entities, their stable cluster ids, and the
//! secondary indexes. [`CollectionView::sync`] accepts the pipeline's
//! current `(fused, fusion_groups)` plus an optional per-group dirty
//! bitmap (`changed`): with a bitmap, only dirtied, new and vanished
//! clusters are looked at — the common delta-ingest case — and untouched
//! clusters keep their index entries verbatim; without one (a batch run,
//! a publish that skipped revisions), every cluster is looked at. A
//! looked-at cluster's old index entries are not stored anywhere: they
//! are re-extracted from its row in the previous sync, and it is rewritten
//! only when they differ from its new row's. Only the first sync builds
//! from scratch. Cluster id = smallest member record index of the group,
//! which `IncrementalConsolidator` keeps stable across deltas.
//!
//! [`CollectionView::snapshot`] hands readers an immutable
//! [`CollectionSnapshot`] (entities + cluster ids + indexes) that they
//! query without locks while the view keeps ingesting. It shares instead
//! of copying: the entity rows, cluster ids and position map are `Arc`s
//! that each sync replaces wholesale, and the indexes live in `Arc`-shared
//! chunks that the next sync copies only where it writes (see
//! [`crate::index`]). A snapshot costs O(index chunks) pointer copies,
//! whatever the collection size.

use datatamer_core::fusion::{FusedEntity, FusionGroup};
use datatamer_sim::FnvBuildHasher;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

use crate::exec::{CollectionSnapshot, SnapshotStats};
use crate::index::{EntityIndexes, IndexEntry};

/// Which attributes are indexed for which probe. Every index is an
/// [`crate::OrderedIndex`]; the lists decide which conjuncts the planner
/// probes it for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// Attributes probed for equality/`In` conjuncts (a hash probe).
    pub hash: Vec<String>,
    /// Attributes probed for range conjuncts (an ordered probe).
    pub ordered: Vec<String>,
}

impl Default for IndexSpec {
    /// Point lookups by entity key, nothing else.
    fn default() -> Self {
        IndexSpec { hash: vec![crate::ast::KEY_ATTR.to_string()], ordered: Vec::new() }
    }
}

impl IndexSpec {
    /// Add an attribute probed for equality.
    pub fn hash_on(mut self, attr: impl Into<String>) -> Self {
        self.hash.push(attr.into());
        self
    }

    /// Add an attribute probed for ranges.
    pub fn ordered_on(mut self, attr: impl Into<String>) -> Self {
        self.ordered.push(attr.into());
        self
    }
}

/// A cluster's index entries to take off (`None` for a new cluster) and
/// to put on.
type Rewrite = (Option<Vec<IndexEntry>>, Vec<IndexEntry>);

/// A mutable, incrementally maintained view over fused entities.
#[derive(Debug, Clone)]
pub struct CollectionView {
    spec: IndexSpec,
    entities: Arc<[FusedEntity]>,
    /// Stable cluster id per row (parallel to `entities`).
    cluster_ids: Arc<[usize]>,
    /// cluster id → row position; probed, never iterated.
    pos: Arc<HashMap<usize, u32, FnvBuildHasher>>,
    indexes: EntityIndexes,
    revision: u64,
}

impl CollectionView {
    /// An empty view with the given index shape.
    pub fn new(spec: IndexSpec) -> Self {
        let indexes = EntityIndexes::new(spec.hash.clone(), spec.ordered.clone());
        CollectionView {
            spec,
            entities: Arc::new([]),
            cluster_ids: Arc::new([]),
            pos: Arc::default(),
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
    /// The first sync builds the indexes. Every later one is incremental:
    /// it removes vanished clusters and rewrites the index entries of a
    /// cluster only when they differ from the ones it holds — which are
    /// exactly what its previous row extracts to, since a cluster's
    /// entries are all the indexes hold for it. `changed[i]` says group
    /// `i` was re-resolved since the last sync (the delta path's dirty
    /// set), so only those and new clusters are examined, and a clean
    /// cluster's previous row is taken to equal its new one; `None` — or
    /// a bitmap whose length does not match `groups`, as after a publish
    /// that skipped revisions — examines every cluster, comparing the
    /// entries of its previous row with those of its new one.
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
        let mut pos: HashMap<usize, u32, FnvBuildHasher> = HashMap::default();
        for (row, &cid) in cids.iter().enumerate() {
            pos.insert(cid, row as u32);
        }

        if self.revision == 0 {
            self.indexes.maint_mut().full_builds += 1;
            let pairs: Vec<(usize, &FusedEntity)> =
                cids.iter().copied().zip(fused[..n].iter()).collect();
            self.indexes.rebuild(&pairs);
        } else {
            self.indexes.maint_mut().delta_syncs += 1;
            // What the indexes hold for a cluster is what its previous row
            // extracts to. Drop clusters that no longer exist, scanning the
            // previous rows (deterministic order; the pos map is never
            // iterated).
            for (old, &cid) in self.entities.iter().zip(self.cluster_ids.iter()) {
                if !pos.contains_key(&cid) {
                    let entries = self.indexes.extract(old);
                    self.indexes.remove_entries(cid, &entries);
                    self.indexes.maint_mut().clusters_removed += 1;
                }
            }
            let dirty = changed.filter(|d| d.len() == n);
            let (indexes, old_pos, old_rows) = (&self.indexes, &self.pos, &self.entities);
            let rewrites: Vec<Option<Rewrite>> = (0..n)
                .into_par_iter()
                .map(|i| {
                    let old = old_pos.get(&cids[i]).map(|&row| &old_rows[row as usize]);
                    if old.is_some() && dirty.is_some_and(|d| !d[i]) {
                        return None;
                    }
                    let old = old.map(|e| indexes.extract(e));
                    let new = indexes.extract(&fused[i]);
                    (old.as_ref() != Some(&new)).then_some((old, new))
                })
                .collect();
            for (&cid, rewrite) in cids.iter().zip(rewrites) {
                let Some((old, new)) = rewrite else {
                    self.indexes.maint_mut().clusters_reused += 1;
                    continue;
                };
                if let Some(old) = old {
                    self.indexes.remove_entries(cid, &old);
                }
                self.indexes.insert_entries(cid, &new);
                self.indexes.maint_mut().clusters_reindexed += 1;
            }
        }

        self.pos = Arc::new(pos);
        self.entities = fused[..n].iter().cloned().collect();
        self.cluster_ids = cids.into();
        self.revision += 1;
    }

    /// Share the current state as an immutable snapshot, tagged with
    /// `counters` (storage/delta numbers the serving layer wants on its
    /// stats endpoint). Nothing the view holds is copied: the snapshot
    /// takes references to the rows, ids, positions and index chunks.
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
    fn snapshots_share_rows_and_keep_answering_as_of_their_revision() {
        let mut view = CollectionView::new(IndexSpec::default().ordered_on("PRICE"));
        let groups = vec![group("a", vec![0]), group("b", vec![1])];
        view.sync(&[entity("a", 1), entity("b", 2)], &groups, None);
        let before = view.snapshot(Vec::new());
        assert!(std::ptr::eq(before.entities(), view.entities()), "rows are shared, not copied");

        // A delta re-resolves cluster 0 as "a2" at a new price; the sync
        // writes into index chunks the old snapshot still holds.
        view.sync(&[entity("a2", 9), entity("b", 2)], &groups, Some(&[true, false]));
        let after = view.snapshot(Vec::new());
        let key = |s: &CollectionSnapshot, k: &str| s.point_lookup(k).map(|e| e.key.clone());
        let prices = |s: &CollectionSnapshot| {
            s.indexes()
                .ordered_index("PRICE")
                .unwrap()
                .range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
        };
        assert_eq!((key(&before, "a"), key(&before, "a2")), (Some("a".into()), None));
        assert_eq!((key(&after, "a"), key(&after, "a2")), (None, Some("a2".into())));
        assert_eq!(prices(&before), vec![0, 1]);
        assert_eq!(prices(&after), vec![1, 0]);
        assert_eq!(before.entities()[0].key, "a");
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
