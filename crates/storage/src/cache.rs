//! Extent residency: a byte-budget LRU over decoded extents.
//!
//! [`crate::backend::FileBackend`] keeps only each shard's tail extent
//! resident; every other extent lives in its own file. Before this module,
//! *every* read of a flushed extent — each scan pass, each point read —
//! re-read and re-decoded the file, so a pipeline that scans a file-backed
//! collection once per stage paid full-collection IO per stage. The
//! [`ExtentCache`] makes repeated passes cheap: decoded extents are kept
//! resident (shared as `Arc<Extent>`) up to a byte budget, evicting the
//! least-recently-used whole extent when over it.
//!
//! One cache per shard backend. The budget is expressed per shard
//! ([`crate::collection::CollectionConfig::extent_cache_budget`] hands the
//! same value to every shard):
//!
//! * `Some(0)` — **disabled**: every access loads from disk and nothing is
//!   retained — byte-identical to the pre-cache load-per-scan behaviour.
//! * `Some(n)` — bounded: resident decoded extents never exceed `n` bytes
//!   (measured by [`crate::extent::Extent::heap_bytes`]); an extent larger
//!   than the whole budget is served but never admitted.
//! * `None` — unbounded: after one full scan the backend reads like
//!   [`crate::backend::MemoryBackend`].
//!
//! The tail extent never enters the cache — it is pinned resident inside
//! the backend's slot chain (the `Loaded` slot), so appends never contend
//! with eviction.
//!
//! # Deterministic accounting
//!
//! Hit/miss/eviction counters surface in
//! [`crate::coordinator::StorageReport`], which is threaded into pipeline
//! stage reports — so, like the score-memo budgets of the entity crate,
//! they must be **sequentially deterministic**: the same operation
//! sequence yields the same counters at any rayon pool width. Two
//! mechanisms guarantee that under extent-parallel scans:
//!
//! * **Plan-time resolution.** A scan resolves every extent's hit-or-miss
//!   under one lock, in extent order, *before* fanning out
//!   (the crate-private `ExtentCache::plan_scan`); hits are pinned (`Arc` cloned) so
//!   mid-scan eviction cannot retroactively turn a planned hit into a
//!   load.
//! * **Pre-assigned stamps.** Recency stamps are drawn from a monotone
//!   clock; a scan reserves one stamp per extent up front (stamp =
//!   `epoch + extent index`), so the post-scan cache contents — the
//!   maximal-stamp set of admitted extents that fits the budget, with
//!   eviction always removing the minimum stamp — are independent of the
//!   order in which parallel admissions land.
//!
//! Sequential operations (point reads, tombstone write-backs, tail
//! loads/rolls) draw one stamp each from the same clock, so interleaved
//! scans and writes keep a single total recency order per shard.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::extent::Extent;

/// Default per-shard extent-cache budget: 64 MiB of decoded extents. Large
/// enough that test- and bench-scale corpora become fully resident after
/// one pass, small enough that a file-backed shard stays out-of-core at
/// paper scale (2 GB extents never fit and are served load-per-scan).
pub const DEFAULT_EXTENT_CACHE_BUDGET: usize = 64 * 1024 * 1024;

/// Counters and occupancy of one shard's [`ExtentCache`], as reported in
/// [`crate::coordinator::ShardStorage`]. All counts are cumulative since
/// the backend opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtentCacheStats {
    /// Configured byte budget (`None` = unbounded, `Some(0)` = disabled).
    pub budget: Option<usize>,
    /// Resident decoded-extent bytes right now.
    pub occupancy_bytes: usize,
    /// Resident decoded extents right now.
    pub cached_extents: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a disk load.
    pub misses: u64,
    /// Extents dropped to stay within budget.
    pub evictions: u64,
    /// Extent files actually read from disk (decoded loads plus raw
    /// snapshot reads). With a healthy cache this tracks `misses`; a
    /// budget of 0 makes it count every access.
    pub disk_loads: u64,
}

/// Per-extent outcome of a scan plan (see [`ExtentCache::plan_scan`]).
#[derive(Debug, Clone)]
pub(crate) enum ScanSlot {
    /// Resolved as a cache hit at plan time; the extent is pinned for the
    /// duration of the scan.
    Pinned(Arc<Extent>),
    /// Resolved as a miss at plan time; the visitor loads the file and
    /// admits it under the scan's pre-assigned stamp.
    Miss,
    /// Resident in the backend's slot chain (the loaded tail) — the cache
    /// is not involved.
    Resident,
}

/// A prepared extent-parallel scan over one shard: the deterministic
/// hit/miss resolution plus the reserved stamp range. Obtained from
/// [`crate::backend::ShardBackend::begin_extent_scan`] and handed back to
/// each `visit_extent` call.
#[derive(Debug)]
pub struct ExtentScan {
    pub(crate) epoch: u64,
    pub(crate) extents: usize,
    /// One entry per extent for cached backends; empty for backends whose
    /// extents are all resident (memory).
    pub(crate) plan: Vec<ScanSlot>,
}

impl ExtentScan {
    /// A plan over `extents` fully-resident extents (memory backends).
    pub(crate) fn resident(extents: usize) -> Self {
        ExtentScan { epoch: 0, extents, plan: Vec::new() }
    }

    /// Number of extents this scan covers.
    pub fn extent_count(&self) -> usize {
        self.extents
    }
}

#[derive(Debug)]
struct CacheEntry {
    extent: Arc<Extent>,
    bytes: usize,
    stamp: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Extent index → entry. Ordered map so every walk (eviction victim
    /// search, stats) iterates in a deterministic order.
    entries: BTreeMap<u32, CacheEntry>,
    occupancy: usize,
}

/// Byte-budget LRU over one shard's decoded extents. See the module docs
/// for budget semantics and the determinism contract.
#[derive(Debug)]
pub struct ExtentCache {
    budget: Option<usize>,
    inner: Mutex<CacheInner>,
    /// Monotone recency clock; scans reserve ranges, sequential ops draw
    /// one tick each.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ExtentCache {
    /// An empty cache with the given byte budget (`None` = unbounded,
    /// `Some(0)` = disabled).
    pub fn new(budget: Option<usize>) -> Self {
        ExtentCache {
            budget,
            inner: Mutex::new(CacheInner::default()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// True when the cache retains nothing (budget `Some(0)`).
    fn disabled(&self) -> bool {
        self.budget == Some(0)
    }

    /// Counter + occupancy snapshot (disk loads are tracked by the owning
    /// backend, which fills that field in).
    pub fn stats(&self) -> ExtentCacheStats {
        let inner = self.inner.lock();
        ExtentCacheStats {
            budget: self.budget,
            occupancy_bytes: inner.occupancy,
            cached_extents: inner.entries.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_loads: 0,
        }
    }

    /// Sequential lookup: a hit refreshes the entry's stamp and returns
    /// the shared extent; a miss is counted and the caller loads + admits.
    pub fn lookup(&self, index: u32) -> Option<Arc<Extent>> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        self.lookup_at(index, stamp)
    }

    /// Lookup under a pre-assigned stamp (scan plans reserve their stamp
    /// range up front — see the module docs).
    fn lookup_at(&self, index: u32, stamp: u64) -> Option<Arc<Extent>> {
        let mut inner = self.inner.lock();
        match inner.entries.get_mut(&index) {
            Some(entry) => {
                entry.stamp = stamp;
                let shared = entry.extent.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(shared)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Sequential admission of a freshly-loaded (or freshly-rolled)
    /// extent, evicting least-recently-stamped entries while over budget.
    pub fn admit(&self, index: u32, extent: Arc<Extent>) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        self.admit_at(index, extent, stamp);
    }

    /// Admission under a pre-assigned stamp. An extent larger than the
    /// whole budget is never admitted (it would evict everything and then
    /// itself); re-admitting an index replaces the old entry in place.
    fn admit_at(&self, index: u32, extent: Arc<Extent>, stamp: u64) {
        if self.disabled() {
            return;
        }
        let bytes = extent.heap_bytes();
        if self.budget.is_some_and(|b| bytes > b) {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(old) = inner.entries.insert(index, CacheEntry { extent, bytes, stamp }) {
            inner.occupancy -= old.bytes;
        }
        inner.occupancy += bytes;
        let evicted = self.evict_over_budget(&mut inner);
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Drop minimum-stamp entries until occupancy fits the budget; returns
    /// how many were evicted. Caller holds the lock.
    fn evict_over_budget(&self, inner: &mut CacheInner) -> u64 {
        let Some(budget) = self.budget else { return 0 };
        let mut evicted = 0u64;
        while inner.occupancy > budget {
            // Deterministic victim: the minimum stamp (oldest access),
            // found by an ordered walk. Cached-extent counts are small —
            // O(n) per eviction keeps the structure to one map.
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(extent_index, e)| (e.stamp, **extent_index))
                .map(|(i, _)| *i);
            let Some(index) = victim else { return evicted };
            if let Some(old) = inner.entries.remove(&index) {
                inner.occupancy -= old.bytes;
                evicted += 1;
            }
        }
        evicted
    }

    /// Replace the cached copy of `index` in place (tombstone write-backs
    /// mutate a flushed extent) — a no-op when the extent is not resident.
    /// Keeps the entry's stamp: a write-through is not a recency signal
    /// for scan reuse.
    pub fn update(&self, index: u32, extent: Arc<Extent>) {
        if self.disabled() {
            return;
        }
        let bytes = extent.heap_bytes();
        let mut inner = self.inner.lock();
        let Some(entry) = inner.entries.get_mut(&index) else { return };
        let (old_bytes, stamp) = (entry.bytes, entry.stamp);
        *entry = CacheEntry { extent, bytes, stamp };
        inner.occupancy = inner.occupancy - old_bytes + bytes;
        let evicted = self.evict_over_budget(&mut inner);
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Take an extent *out* of the cache (a flushed tail being re-loaded
    /// for appends becomes resident in the slot chain — double residency
    /// would double-count memory). Counts as a hit or miss like any other
    /// lookup; not counted as an eviction.
    pub fn take(&self, index: u32) -> Option<Arc<Extent>> {
        let mut inner = self.inner.lock();
        match inner.entries.remove(&index) {
            Some(entry) => {
                inner.occupancy -= entry.bytes;
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.extent)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Resolve a whole scan deterministically: reserve one stamp per
    /// extent, then — under one lock, in extent order — classify each
    /// extent as a pinned hit, a miss (the visitor will load + admit at
    /// `epoch + index`), or resident (`is_flushed(i)` false: the extent
    /// lives in the backend's slot chain, the cache is not involved).
    pub(crate) fn plan_scan(
        &self,
        extents: usize,
        is_flushed: impl Fn(usize) -> bool,
    ) -> ExtentScan {
        let epoch = self.clock.fetch_add(extents as u64, Ordering::Relaxed);
        let mut plan = Vec::with_capacity(extents);
        let (mut hits, mut misses) = (0u64, 0u64);
        {
            let mut inner = self.inner.lock();
            for index in 0..extents {
                if !is_flushed(index) {
                    plan.push(ScanSlot::Resident);
                    continue;
                }
                match inner.entries.get_mut(&(index as u32)) {
                    Some(entry) => {
                        entry.stamp = epoch + index as u64;
                        hits += 1;
                        plan.push(ScanSlot::Pinned(entry.extent.clone()));
                    }
                    None => {
                        misses += 1;
                        plan.push(ScanSlot::Miss);
                    }
                }
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        ExtentScan { epoch, extents, plan }
    }

    /// Admission from a scan visitor: the stamp was reserved at plan time.
    pub(crate) fn admit_scanned(&self, scan: &ExtentScan, index: u32, extent: Arc<Extent>) {
        self.admit_at(index, extent, scan.epoch + u64::from(index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_document;
    use datatamer_model::doc;

    /// Extents of identical byte size regardless of `tag` (the tag rides
    /// in a fixed-width string), so byte-budget arithmetic in these tests
    /// stays exact.
    fn extent_of(n: usize, tag: i64) -> Arc<Extent> {
        let mut e = Extent::new(1 << 20);
        for i in 0..n as i64 {
            e.append(&encode_document(
                &doc! {"i" => i, "tag" => format!("t{tag:03}"), "pad" => "x".repeat(16)},
            ));
        }
        Arc::new(e)
    }

    #[test]
    fn hit_miss_and_occupancy_accounting() {
        let cache = ExtentCache::new(None);
        assert!(cache.lookup(0).is_none(), "empty cache misses");
        let e = extent_of(4, 0);
        cache.admit(0, e.clone());
        assert!(cache.lookup(0).is_some(), "admitted extent hits");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.cached_extents, 1);
        assert_eq!(s.occupancy_bytes, e.heap_bytes());
    }

    #[test]
    fn budget_zero_disables_retention() {
        let cache = ExtentCache::new(Some(0));
        cache.admit(0, extent_of(4, 0));
        assert!(cache.lookup(0).is_none(), "nothing is retained at budget 0");
        let s = cache.stats();
        assert_eq!(s.cached_extents, 0);
        assert_eq!(s.evictions, 0, "never admitted, so never evicted");
    }

    #[test]
    fn lru_evicts_oldest_stamp_first() {
        let one = extent_of(4, 0).heap_bytes();
        let cache = ExtentCache::new(Some(one * 2 + 1));
        cache.admit(0, extent_of(4, 0));
        cache.admit(1, extent_of(4, 1));
        // Refresh 0 so 1 becomes the LRU victim.
        assert!(cache.lookup(0).is_some());
        cache.admit(2, extent_of(4, 2));
        assert!(cache.lookup(0).is_some(), "refreshed entry survives");
        assert!(cache.lookup(1).is_none(), "oldest stamp evicted");
        assert!(cache.lookup(2).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversize_extent_is_never_admitted() {
        let cache = ExtentCache::new(Some(64));
        let big = extent_of(16, 0);
        assert!(big.heap_bytes() > 64);
        cache.admit(0, big);
        let s = cache.stats();
        assert_eq!(s.cached_extents, 0);
        assert_eq!(s.evictions, 0, "an oversize admit must not flush the cache");
    }

    #[test]
    fn scan_plan_end_state_is_order_invariant() {
        // Admitting a scan's misses in any order converges to the same
        // cache contents: the maximal-stamp set that fits the budget.
        let one = extent_of(4, 0).heap_bytes();
        let extents: Vec<Arc<Extent>> = (0..4).map(|i| extent_of(4, i)).collect();
        let orders: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![2, 0, 3, 1]];
        let mut outcomes = Vec::new();
        for order in orders {
            let cache = ExtentCache::new(Some(one * 2 + 1));
            let scan = cache.plan_scan(4, |_| true);
            for &i in &order {
                cache.admit_scanned(&scan, i, extents[i as usize].clone());
            }
            let survivors: Vec<u32> = cache.inner.lock().entries.keys().copied().collect();
            outcomes.push((survivors, cache.stats().evictions));
        }
        assert_eq!(outcomes[0], outcomes[1], "admission order must not matter");
        assert_eq!(outcomes[0], outcomes[2], "admission order must not matter");
        assert_eq!(outcomes[0].0, vec![2, 3], "highest-stamped extents survive");
    }

    #[test]
    fn take_removes_and_update_replaces_in_place() {
        let cache = ExtentCache::new(None);
        cache.admit(3, extent_of(2, 3));
        let taken = cache.take(3);
        assert!(taken.is_some());
        assert_eq!(cache.stats().cached_extents, 0);
        assert!(cache.take(3).is_none(), "second take misses");
        // update on a non-resident index is a no-op.
        cache.update(3, extent_of(2, 4));
        assert_eq!(cache.stats().cached_extents, 0);
        cache.admit(3, extent_of(2, 3));
        cache.update(3, extent_of(8, 5));
        let s = cache.stats();
        assert_eq!(s.cached_extents, 1);
        assert_eq!(s.occupancy_bytes, extent_of(8, 5).heap_bytes());
    }
}
