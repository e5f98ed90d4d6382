//! Secondary indexes over fused-entity attributes.
//!
//! One posting structure serves every probe: [`OrderedIndex`], keys in
//! [`AttrKey`] (`total_cmp`) order, each with its sorted cluster-id
//! postings. An equality probe binary-searches it for one key
//! ([`OrderedIndex::lookup`]); a range probe walks the keys between two
//! bounds. Keys whose postings empty are dropped rather than kept as
//! tombstones.
//!
//! [`EntityIndexes`] holds one index per configured attribute: the
//! equality ("hash") attributes first, then the range ("ordered") ones.
//! It keeps no record of what each cluster contributed: the view that
//! owns it re-extracts a cluster's old entries from its previous row
//! (see [`crate::view`]), so a dirty cluster from `consolidate_delta` is
//! unindexed/reindexed in O(its own entries) — no rebuild. Postings store
//! *cluster ids* (stable across delta ingests: the smallest member record
//! index of the group), which the owning view translates to current row
//! positions.
//!
//! **Shared, not copied.** An index is a sorted run of `Arc`-shared chunks
//! of at most 128 consecutive keys. Cloning an [`EntityIndexes`] — what a
//! snapshot does — copies chunk pointers, and a later write copies only
//! the chunks it touches while a snapshot still shares them
//! (`Arc::make_mut`). A delta that reindexes a few dozen clusters
//! therefore copies a few dozen small chunks, not the indexes.

use datatamer_core::fusion::FusedEntity;
use datatamer_model::{AttrKey, Value};
use rayon::prelude::*;
use std::ops::Bound;
use std::sync::Arc;

use crate::ast::{AttrSource, Order};

/// Counters describing how indexes have been maintained — surfaced on the
/// stats endpoint so "no full rebuilds during delta ingest" is observable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexMaintenance {
    /// From-scratch builds (initial sync, or shape changes).
    pub full_builds: u64,
    /// Incremental syncs (every sync after the first).
    pub delta_syncs: u64,
    /// Clusters unindexed + reindexed because their entries changed.
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

/// Keys per ordered-index chunk after a split; a chunk splits when it
/// passes twice this.
const CHUNK_KEYS: usize = 64;

/// One run of consecutive keys with their sorted postings.
type Chunk = Vec<(AttrKey, Vec<usize>)>;

/// Key → sorted cluster-id postings, keys in `total_cmp` order, stored as
/// a sorted run of `Arc`-shared chunks (never empty) — a two-level B-tree
/// whose leaves a snapshot shares.
#[derive(Debug, Clone, Default)]
pub struct OrderedIndex {
    chunks: Vec<Arc<Chunk>>,
}

impl OrderedIndex {
    /// The chunk `key` belongs in: the first whose last key is not below
    /// it, else the last chunk.
    fn chunk_of(&self, key: &AttrKey) -> usize {
        let i = self.chunks.partition_point(|c| c[c.len() - 1].0 < *key);
        i.min(self.chunks.len().saturating_sub(1))
    }

    fn insert(&mut self, key: AttrKey, cid: usize) {
        if self.chunks.is_empty() {
            self.chunks.push(Arc::new(vec![(key, vec![cid])]));
            return;
        }
        let i = self.chunk_of(&key);
        let chunk = Arc::make_mut(&mut self.chunks[i]);
        match chunk.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(at) => {
                let postings = &mut chunk[at].1;
                if let Err(pos) = postings.binary_search(&cid) {
                    postings.insert(pos, cid);
                }
            }
            Err(at) => {
                chunk.insert(at, (key, vec![cid]));
                if chunk.len() > 2 * CHUNK_KEYS {
                    let upper = chunk.split_off(chunk.len() / 2);
                    self.chunks.insert(i + 1, Arc::new(upper));
                }
            }
        }
    }

    fn remove(&mut self, key: &AttrKey, cid: usize) {
        if self.chunks.is_empty() {
            return;
        }
        let i = self.chunk_of(key);
        let Ok(at) = self.chunks[i].binary_search_by(|(k, _)| k.cmp(key)) else {
            return;
        };
        let Ok(pos) = self.chunks[i][at].1.binary_search(&cid) else {
            return;
        };
        let chunk = Arc::make_mut(&mut self.chunks[i]);
        chunk[at].1.remove(pos);
        if chunk[at].1.is_empty() {
            chunk.remove(at);
            if chunk.is_empty() {
                self.chunks.remove(i);
            }
        }
    }

    /// Sorted cluster ids whose key is `total_cmp`-equal to `key` (empty
    /// when unseen).
    pub fn lookup(&self, key: &Value) -> &[usize] {
        let (ci, at) = self.position(|k| k.value().total_cmp(key).is_lt());
        match self.chunks.get(ci).and_then(|c| c.get(at)) {
            Some((k, postings)) if k.value().total_cmp(key).is_eq() => postings,
            _ => &[],
        }
    }

    /// Where the first key not satisfying `before` sits, as (chunk,
    /// offset); `before` must hold for a prefix of the keys in order.
    fn position(&self, before: impl Fn(&AttrKey) -> bool) -> (usize, usize) {
        let ci = self.chunks.partition_point(|c| before(&c[c.len() - 1].0));
        match self.chunks.get(ci) {
            Some(c) => (ci, c.partition_point(|(k, _)| before(k))),
            None => (ci, 0),
        }
    }

    fn span<'a>(
        &'a self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> impl DoubleEndedIterator<Item = &'a (AttrKey, Vec<usize>)> + 'a {
        let cmp = |k: &AttrKey, v: &Value| k.value().total_cmp(v);
        let start = match lo {
            Bound::Included(v) => self.position(|k| cmp(k, v).is_lt()),
            Bound::Excluded(v) => self.position(|k| cmp(k, v).is_le()),
            Bound::Unbounded => (0, 0),
        };
        let end = match hi {
            Bound::Included(v) => self.position(|k| cmp(k, v).is_le()),
            Bound::Excluded(v) => self.position(|k| cmp(k, v).is_lt()),
            Bound::Unbounded => (self.chunks.len(), 0),
        };
        // An inverted range (start past end) is empty, within a chunk or
        // across chunks.
        let ((si, so), (ei, eo)) = (start, end.max(start));
        let n = self.chunks.len();
        self.chunks[si.min(n)..(ei + 1).min(n)].iter().enumerate().flat_map(move |(j, c)| {
            let j = j + si;
            let from = if j == si { so } else { 0 };
            let to = if j == ei { eo } else { c.len() };
            c[from..to].iter()
        })
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
        self.chunks.iter().map(|c| c.len()).sum()
    }
}

/// One `(index, key)` contribution of a cluster: `idx` counts the hash
/// attributes first, then the ordered ones.
pub(crate) type IndexEntry = (u32, AttrKey);

/// All secondary indexes of one collection view. Cloning copies chunk
/// pointers, not entries (see the module docs).
#[derive(Debug, Clone)]
pub struct EntityIndexes {
    hash_attrs: Vec<String>,
    ordered_attrs: Vec<String>,
    /// One index per attribute of `hash_attrs ++ ordered_attrs`.
    indexes: Vec<OrderedIndex>,
    maint: IndexMaintenance,
}

impl EntityIndexes {
    /// Empty indexes over the given attribute lists.
    pub fn new(hash_attrs: Vec<String>, ordered_attrs: Vec<String>) -> Self {
        let indexes = vec![OrderedIndex::default(); hash_attrs.len() + ordered_attrs.len()];
        EntityIndexes { hash_attrs, ordered_attrs, indexes, maint: IndexMaintenance::default() }
    }

    /// The index equality probes on `attr` use, when configured.
    pub fn hash_index(&self, attr: &str) -> Option<&OrderedIndex> {
        self.hash_attrs.iter().position(|a| a == attr).map(|i| &self.indexes[i])
    }

    /// The index range probes on `attr` use, when configured.
    pub fn ordered_index(&self, attr: &str) -> Option<&OrderedIndex> {
        let i = self.ordered_attrs.iter().position(|a| a == attr)?;
        Some(&self.indexes[self.hash_attrs.len() + i])
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
    pub(crate) fn extract(&self, entity: &FusedEntity) -> Vec<IndexEntry> {
        let mut out = Vec::new();
        for (i, attr) in self.hash_attrs.iter().chain(&self.ordered_attrs).enumerate() {
            entity.any_value(attr, |v| {
                out.push((i as u32, AttrKey(v.into_owned())));
                false
            });
        }
        out
    }

    /// Post `cid` under each of `entries`.
    pub(crate) fn insert_entries(&mut self, cid: usize, entries: &[IndexEntry]) {
        self.maint.entries_inserted += entries.len() as u64;
        for (idx, key) in entries {
            self.indexes[*idx as usize].insert(key.clone(), cid);
        }
    }

    /// Take `cid` off each of `entries` — what it contributed when last
    /// inserted.
    pub(crate) fn remove_entries(&mut self, cid: usize, entries: &[IndexEntry]) {
        self.maint.entries_removed += entries.len() as u64;
        for (idx, key) in entries {
            self.indexes[*idx as usize].remove(key, cid);
        }
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
            self.insert_entries(*cid, &entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{Record, RecordId, SourceId};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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

    /// Post `entity` under `cid`, returning the entries it contributed.
    fn post(ix: &mut EntityIndexes, cid: usize, entity: &FusedEntity) -> Vec<IndexEntry> {
        let entries = ix.extract(entity);
        ix.insert_entries(cid, &entries);
        entries
    }

    #[test]
    fn insert_probe_remove() {
        let mut ix = indexes();
        let (a, b) = (entity("a", 10), entity("b", 20));
        let a_entries = post(&mut ix, 0, &a);
        post(&mut ix, 7, &b);
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
        ix.remove_entries(0, &a_entries);
        assert_eq!(ix.hash_index("KIND").unwrap().lookup(&Value::from("show")), &[7]);
        assert!(ix.hash_index("_key").unwrap().lookup(&Value::from("a")).is_empty());
        ix.remove_entries(0, &a_entries);
        assert_eq!(ix.hash_index("_key").unwrap().keys(), 1, "second removal is a no-op");
    }

    #[test]
    fn reindex_replaces_old_entries() {
        let mut ix = indexes();
        let old = post(&mut ix, 3, &entity("a", 10));
        ix.remove_entries(3, &old);
        post(&mut ix, 3, &entity("a2", 99));
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
            post(&mut inc, i * 2, e);
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

    #[test]
    fn empty_and_inverted_ranges_are_empty_not_a_panic() {
        let mut ix = OrderedIndex::default();
        for k in 0..300 {
            ix.insert(AttrKey(Value::Int(k)), k as usize);
        }
        let (five, nine) = (Value::Int(5), Value::Int(9));
        assert!(ix.range(Bound::Excluded(&five), Bound::Excluded(&five)).is_empty());
        assert!(ix.range(Bound::Included(&nine), Bound::Included(&five)).is_empty());
        assert_eq!(ix.groups(Bound::Excluded(&nine), Bound::Excluded(&five), Order::Desc).count(), 0);
        assert_eq!(ix.range(Bound::Included(&five), Bound::Included(&five)), vec![5]);
        // Inverted across chunks: the start lies in a later chunk than the end.
        let far = Value::Int(250);
        assert!(ix.range(Bound::Included(&far), Bound::Included(&five)).is_empty());
        assert_eq!(ix.groups(Bound::Excluded(&far), Bound::Unbounded, Order::Asc).count(), 49);
        let inverted = ix.groups(Bound::Included(&far), Bound::Excluded(&nine), Order::Desc);
        assert_eq!(inverted.count(), 0);
    }

    /// Model of the index: key → sorted, deduplicated cluster ids.
    type Model = BTreeMap<AttrKey, BTreeSet<usize>>;

    fn key_of(k: u16) -> AttrKey {
        // Ints, floats that tie with them (`Int(3)` = `Float(3.0)`), and a
        // second type family.
        AttrKey(match k % 5 {
            0 | 1 => Value::Int(i64::from(k / 5)),
            2 => Value::Float(f64::from(k / 5)),
            3 => Value::Float(f64::from(k / 5) + 0.5),
            _ => Value::from(format!("s{:03}", k / 5)),
        })
    }

    fn bound(b: u8, v: &Value) -> Bound<&Value> {
        match b % 3 {
            0 => Bound::Included(v),
            1 => Bound::Excluded(v),
            _ => Bound::Unbounded,
        }
    }

    fn model_groups(model: &Model, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<(Value, Vec<usize>)> {
        let inside = |k: &AttrKey| {
            let above = match lo {
                Bound::Included(v) => k.value().total_cmp(v).is_ge(),
                Bound::Excluded(v) => k.value().total_cmp(v).is_gt(),
                Bound::Unbounded => true,
            };
            let below = match hi {
                Bound::Included(v) => k.value().total_cmp(v).is_le(),
                Bound::Excluded(v) => k.value().total_cmp(v).is_lt(),
                Bound::Unbounded => true,
            };
            above && below
        };
        model
            .iter()
            .filter(|(k, _)| inside(k))
            .map(|(k, cids)| (k.value().clone(), cids.iter().copied().collect()))
            .collect()
    }

    fn check(ordered: &OrderedIndex, model: &Model, probes: &[(u16, u8, u16, u8)]) {
        assert_eq!(ordered.keys(), model.len());
        assert!(ordered.chunks.iter().all(|c| !c.is_empty() && c.len() <= 2 * CHUNK_KEYS));
        for (k, cids) in model {
            assert_eq!(ordered.lookup(k.value()), cids.iter().copied().collect::<Vec<_>>());
        }
        for &(a, ab, b, bb) in probes {
            let (va, vb) = (key_of(a).0, key_of(b).0);
            let held: Vec<usize> = model.get(&key_of(a)).into_iter().flatten().copied().collect();
            assert_eq!(ordered.lookup(&va), held);
            let (lo, hi) = (bound(ab, &va), bound(bb, &vb));
            let want = model_groups(model, lo, hi);
            let walk = |order| -> Vec<(Value, Vec<usize>)> {
                ordered.groups(lo, hi, order).map(|(k, p)| (k.clone(), p.to_vec())).collect()
            };
            assert_eq!(walk(Order::Asc), want);
            let mut desc = walk(Order::Desc);
            desc.reverse();
            assert_eq!(desc, want);
            let flat: Vec<usize> = want.iter().flat_map(|(_, p)| p.iter().copied()).collect();
            assert_eq!(ordered.range(lo, hi), flat);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The index equals a `BTreeMap` model under random inserts
        // and removals — through chunk splits and emptied chunks — and a
        // clone taken midway (what a snapshot holds) keeps answering as of
        // that moment while the original goes on changing under it.
        #[test]
        fn indexes_match_a_model_and_clones_are_isolated(
            ops in prop::collection::vec((any::<bool>(), 0u16..1_500, 0usize..40), 1..1_200),
            split in any::<u16>(),
            probes in prop::collection::vec((0u16..1_500, any::<u8>(), 0u16..1_500, any::<u8>()), 8),
        ) {
            let mut ordered = OrderedIndex::default();
            let mut model = Model::new();
            let mid = usize::from(split) % ops.len();
            let mut frozen = None;
            for (i, &(insert, k, cid)) in ops.iter().enumerate() {
                if i == mid {
                    frozen = Some((ordered.clone(), model.clone()));
                }
                let key = key_of(k);
                if insert {
                    ordered.insert(key.clone(), cid);
                    model.entry(key).or_default().insert(cid);
                } else {
                    ordered.remove(&key, cid);
                    if let Some(cids) = model.get_mut(&key) {
                        cids.remove(&cid);
                        if cids.is_empty() {
                            model.remove(&key);
                        }
                    }
                }
            }
            check(&ordered, &model, &probes);
            let (ordered, model) = frozen.expect("mid < ops.len()");
            check(&ordered, &model, &probes);
        }
    }
}
