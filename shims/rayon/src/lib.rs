//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this crate provides the
//! slice of rayon's API the workspace uses, executed as order-preserving
//! chunked fork-join on `std::thread::scope`:
//!
//! * `slice.par_iter()` / `vec.into_par_iter()` / `(a..b).into_par_iter()`
//!   with `map`, `filter_map`, `filter`, `flat_map`, `for_each`, `sum`,
//!   `count`, `max`, and `collect::<Vec<_>>()`;
//! * `slice.par_chunks(n)`;
//! * `ThreadPoolBuilder::new().num_threads(n).build()` and
//!   `ThreadPool::install(..)` — the installed width applies to every
//!   parallel call made inside the closure (thread-local), which is what
//!   the serial-vs-parallel determinism tests rely on;
//! * `current_num_threads()`.
//!
//! **Determinism contract:** every combinator preserves input order exactly
//! — worker outputs are concatenated in chunk order — so a 1-thread and an
//! N-thread run of the same pipeline produce identical output. Side-effect
//! order in `for_each` is *not* specified, matching real rayon.

use std::cell::Cell;

pub mod prelude {
    //! One-stop imports, mirroring `rayon::prelude`.
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
        ParallelIterator, ParallelSlice,
    };
}

pub mod iter {
    //! Namespace compatibility with `rayon::iter`.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

thread_local! {
    /// Width installed by [`ThreadPool::install`]; `0` = not installed.
    static INSTALLED_WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads parallel calls on this thread will use.
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_WIDTH.with(Cell::get);
    if installed > 0 {
        return installed;
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Error type for [`ThreadPoolBuilder::build`] (construction cannot fail
/// here; the type exists for signature compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// New builder with default width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fix the worker count (0 = default width, as in rayon).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = match self.num_threads {
            Some(0) | None => {
                std::thread::available_parallelism().map(usize::from).unwrap_or(1)
            }
            Some(n) => n,
        };
        Ok(ThreadPool { width })
    }
}

/// A "pool" fixing the parallel width for closures run via [`Self::install`].
///
/// Threads are spawned per parallel call (scoped, one fewer than the width:
/// the caller works a chunk too), not kept warm; what the pool really
/// carries is the width.
#[derive(Debug)]
pub struct ThreadPool {
    width: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's width applied to every parallel call inside.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = INSTALLED_WIDTH.with(|w| w.replace(self.width));
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_WIDTH.with(|w| w.set(self.0));
            }
        }
        let _restore = Restore(prev);
        f()
    }

    /// This pool's width.
    pub fn current_num_threads(&self) -> usize {
        self.width
    }
}

/// Run the pipeline `p` over its index space: one contiguous chunk per
/// worker, outputs concatenated in chunk order (order-preserving). The
/// calling thread is worker 0 — it takes the first chunk instead of idling
/// in `join`, so a width-`n` call spawns `n - 1` threads, and its share of
/// the output is allocated on the caller's own allocator arena rather than
/// a short-lived thread's.
fn execute<P: ParallelIterator>(p: P) -> Vec<P::Item> {
    let len = p.pipeline_len();
    let threads = current_num_threads().max(1);
    if threads == 1 || len <= 1 {
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            p.produce(i, &mut out);
        }
        return out;
    }
    let workers = threads.min(len);
    let chunk = len.div_ceil(workers);
    let p = &p;
    let run = move |w: usize, out: &mut Vec<P::Item>| {
        for i in w * chunk..((w + 1) * chunk).min(len) {
            p.produce(i, out);
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|w| {
                scope.spawn(move || {
                    // Nested parallel calls inside a worker run inline —
                    // the team is already saturated (real rayon shares one
                    // pool; spawning width² threads would oversubscribe).
                    INSTALLED_WIDTH.with(|width| width.set(1));
                    let mut out = Vec::new();
                    run(w, &mut out);
                    out
                })
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        ThreadPool { width: 1 }.install(|| run(0, &mut out));
        for h in handles {
            out.extend(h.join().expect("parallel worker panicked"));
        }
        out
    })
}

/// The parallel-iterator surface (rayon's `ParallelIterator`), modelled as
/// an indexed pipeline: stages compose per-index producers, terminals
/// execute the composition once across a scoped thread team.
pub trait ParallelIterator: Sized + Sync {
    /// Item type flowing out of this stage.
    type Item: Send;

    /// Number of source indexes driving the pipeline.
    fn pipeline_len(&self) -> usize;

    /// Produce the outputs for source index `i` into `out`.
    fn produce(&self, i: usize, out: &mut Vec<Self::Item>);

    /// Transform each item.
    fn map<R: Send, F: Fn(Self::Item) -> R + Sync>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Transform and filter in one pass.
    fn filter_map<R: Send, F: Fn(Self::Item) -> Option<R> + Sync>(
        self,
        f: F,
    ) -> FilterMap<Self, F> {
        FilterMap { base: self, f }
    }

    /// Keep items satisfying the predicate.
    fn filter<F: Fn(&Self::Item) -> bool + Sync>(self, f: F) -> Filter<Self, F> {
        Filter { base: self, f }
    }

    /// Map each item to many.
    fn flat_map<R: Send, I: IntoIterator<Item = R>, F: Fn(Self::Item) -> I + Sync>(
        self,
        f: F,
    ) -> FlatMap<Self, F> {
        FlatMap { base: self, f }
    }

    /// Run `f` on every item (effect order unspecified, as in rayon).
    fn for_each<F: Fn(Self::Item) + Sync>(self, f: F) {
        execute(Map { base: self, f: |item| f(item) });
    }

    /// Collect results in source order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_ordered(execute(self))
    }

    /// Sum the items in source order.
    fn sum<S: std::iter::Sum<Self::Item>>(self) -> S {
        execute(self).into_iter().sum()
    }

    /// Count the items.
    fn count(self) -> usize {
        execute(self).len()
    }

    /// Maximum item, if any.
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        execute(self).into_iter().max()
    }

    /// Left-fold the ordered items from `identity()` (the shim keeps
    /// rayon's signature but reduces in source order, which is a valid
    /// refinement of rayon's unspecified grouping).
    fn reduce<F: Fn(Self::Item, Self::Item) -> Self::Item + Sync>(
        self,
        identity: impl Fn() -> Self::Item,
        op: F,
    ) -> Self::Item {
        execute(self).into_iter().fold(identity(), &op)
    }
}

/// `map` stage.
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Sync,
    R: Send,
{
    type Item = R;

    fn pipeline_len(&self) -> usize {
        self.base.pipeline_len()
    }

    fn produce(&self, i: usize, out: &mut Vec<R>) {
        let mut tmp = Vec::new();
        self.base.produce(i, &mut tmp);
        out.extend(tmp.into_iter().map(&self.f));
    }
}

/// `filter_map` stage.
pub struct FilterMap<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for FilterMap<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> Option<R> + Sync,
    R: Send,
{
    type Item = R;

    fn pipeline_len(&self) -> usize {
        self.base.pipeline_len()
    }

    fn produce(&self, i: usize, out: &mut Vec<R>) {
        let mut tmp = Vec::new();
        self.base.produce(i, &mut tmp);
        out.extend(tmp.into_iter().filter_map(&self.f));
    }
}

/// `filter` stage.
pub struct Filter<I, F> {
    base: I,
    f: F,
}

impl<I, F> ParallelIterator for Filter<I, F>
where
    I: ParallelIterator,
    F: Fn(&I::Item) -> bool + Sync,
{
    type Item = I::Item;

    fn pipeline_len(&self) -> usize {
        self.base.pipeline_len()
    }

    fn produce(&self, i: usize, out: &mut Vec<I::Item>) {
        let mut tmp = Vec::new();
        self.base.produce(i, &mut tmp);
        out.extend(tmp.into_iter().filter(|t| (self.f)(t)));
    }
}

/// `flat_map` stage.
pub struct FlatMap<I, F> {
    base: I,
    f: F,
}

impl<I, F, It, R> ParallelIterator for FlatMap<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> It + Sync,
    It: IntoIterator<Item = R>,
    R: Send,
{
    type Item = R;

    fn pipeline_len(&self) -> usize {
        self.base.pipeline_len()
    }

    fn produce(&self, i: usize, out: &mut Vec<R>) {
        let mut tmp = Vec::new();
        self.base.produce(i, &mut tmp);
        out.extend(tmp.into_iter().flat_map(&self.f));
    }
}

/// Collection targets for [`ParallelIterator::collect`].
pub trait FromParallelIterator<T> {
    /// Build from items already in source order.
    fn from_ordered(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered(items: Vec<T>) -> Self {
        items
    }
}

impl<T: std::hash::Hash + Eq> FromParallelIterator<T> for std::collections::HashSet<T> {
    fn from_ordered(items: Vec<T>) -> Self {
        items.into_iter().collect()
    }
}

impl<K: Ord, V> FromParallelIterator<(K, V)> for std::collections::BTreeMap<K, V> {
    fn from_ordered(items: Vec<(K, V)>) -> Self {
        items.into_iter().collect()
    }
}

/// Borrowing root over a slice.
pub struct SliceIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;

    fn pipeline_len(&self) -> usize {
        self.items.len()
    }

    fn produce(&self, i: usize, out: &mut Vec<&'a T>) {
        out.push(&self.items[i]);
    }
}

/// Chunking root over a slice ([`ParallelSlice::par_chunks`]).
pub struct ChunksIter<'a, T> {
    items: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ChunksIter<'a, T> {
    type Item = &'a [T];

    fn pipeline_len(&self) -> usize {
        self.items.len().div_ceil(self.size)
    }

    fn produce(&self, i: usize, out: &mut Vec<&'a [T]>) {
        let lo = i * self.size;
        let hi = (lo + self.size).min(self.items.len());
        out.push(&self.items[lo..hi]);
    }
}

/// Owning root over a `Vec` (items clone out per index so workers can share
/// the buffer; use `par_iter()` when borrowing suffices).
pub struct VecIter<T> {
    items: Vec<T>,
}

impl<T: Clone + Send + Sync> ParallelIterator for VecIter<T> {
    type Item = T;

    fn pipeline_len(&self) -> usize {
        self.items.len()
    }

    fn produce(&self, i: usize, out: &mut Vec<T>) {
        out.push(self.items[i].clone());
    }
}

/// Root over an integer range.
pub struct RangeIter {
    start: usize,
    len: usize,
}

impl ParallelIterator for RangeIter {
    type Item = usize;

    fn pipeline_len(&self) -> usize {
        self.len
    }

    fn produce(&self, i: usize, out: &mut Vec<usize>) {
        out.push(self.start + i);
    }
}

/// `.par_iter()` on borrowed collections.
pub trait IntoParallelRefIterator<'a> {
    /// The root stage type produced.
    type Iter: ParallelIterator;

    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = SliceIter<'a, T>;

    fn par_iter(&'a self) -> Self::Iter {
        SliceIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = SliceIter<'a, T>;

    fn par_iter(&'a self) -> Self::Iter {
        SliceIter { items: self }
    }
}

/// `.into_par_iter()` on owned collections and ranges.
pub trait IntoParallelIterator {
    /// The root stage type produced.
    type Iter: ParallelIterator;

    /// Owning parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Clone + Send + Sync> IntoParallelIterator for Vec<T> {
    type Iter = VecIter<T>;

    fn into_par_iter(self) -> Self::Iter {
        VecIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = RangeIter;

    fn into_par_iter(self) -> Self::Iter {
        RangeIter { start: self.start, len: self.end.saturating_sub(self.start) }
    }
}

/// `.par_iter_mut()` on mutable collections.
///
/// Mutable iteration cannot go through the shared index-based pipeline, so
/// it gets its own two-stage chain (`MutRoot` → optional `map` → terminal):
/// the slice splits into one disjoint chunk per worker via `chunks_mut`,
/// and map outputs concatenate in chunk order (order-preserving).
pub trait IntoParallelRefMutIterator<'a> {
    /// Item handed to closures.
    type Item: Send + 'a;

    /// Mutable parallel iterator.
    fn par_iter_mut(&'a mut self) -> MutRoot<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;

    fn par_iter_mut(&'a mut self) -> MutRoot<'a, T> {
        MutRoot { items: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter_mut(&'a mut self) -> MutRoot<'a, T> {
        MutRoot { items: self }
    }
}

/// Root of a mutable parallel chain.
pub struct MutRoot<'a, T> {
    items: &'a mut [T],
}

/// Distribute disjoint chunks of `items` across the thread team, running
/// `per_chunk` on each; per-chunk outputs come back in chunk order.
fn execute_mut<T: Send, R: Send>(
    items: &mut [T],
    per_chunk: impl Fn(&mut [T]) -> Vec<R> + Sync,
) -> Vec<R> {
    let len = items.len();
    let threads = current_num_threads().max(1);
    if threads == 1 || len <= 1 {
        return per_chunk(items);
    }
    let chunk = len.div_ceil(threads.min(len));
    let per_chunk = &per_chunk;
    std::thread::scope(|scope| {
        // As in execute(): the caller works the first chunk itself.
        let mut parts = items.chunks_mut(chunk);
        let first = parts.next().expect("len > 1, so there is a first chunk");
        let handles: Vec<_> = parts
            .map(|part| {
                scope.spawn(move || {
                    // See execute(): nested calls in workers run inline.
                    INSTALLED_WIDTH.with(|width| width.set(1));
                    per_chunk(part)
                })
            })
            .collect();
        let mut out = ThreadPool { width: 1 }.install(|| per_chunk(first));
        for h in handles {
            out.extend(h.join().expect("parallel worker panicked"));
        }
        out
    })
}

impl<'a, T: Send> MutRoot<'a, T> {
    /// Run `f` on every element.
    pub fn for_each<F: Fn(&mut T) + Sync>(self, f: F) {
        execute_mut(self.items, |part| {
            part.iter_mut().for_each(&f);
            Vec::<()>::new()
        });
    }

    /// Transform each element (by mutable reference) into an output.
    pub fn map<R: Send, F: Fn(&mut T) -> R + Sync>(self, f: F) -> MutMap<'a, T, F> {
        MutMap { items: self.items, f }
    }
}

/// `map` stage of a mutable parallel chain.
pub struct MutMap<'a, T, F> {
    items: &'a mut [T],
    f: F,
}

impl<'a, T: Send, F> MutMap<'a, T, F> {
    /// Collect outputs in source order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(&mut T) -> R + Sync,
        C: FromParallelIterator<R>,
    {
        let f = self.f;
        C::from_ordered(execute_mut(self.items, |part| part.iter_mut().map(&f).collect()))
    }
}

/// `.par_chunks(n)` on slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over contiguous chunks of length `n` (last may be
    /// shorter).
    fn par_chunks(&self, n: usize) -> ChunksIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, n: usize) -> ChunksIter<'_, T> {
        assert!(n > 0, "chunk size must be positive");
        ChunksIter { items: self, size: n }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<i64> = (0..1000).collect();
        let doubled: Vec<i64> = xs.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_map_chain_preserves_order() {
        let xs: Vec<i64> = (0..500).collect();
        let got: Vec<i64> = xs
            .par_iter()
            .map(|x| x + 1)
            .filter(|x| x % 3 == 0)
            .map(|x| x * 10)
            .collect();
        let want: Vec<i64> =
            (0..500).map(|x| x + 1).filter(|x| x % 3 == 0).map(|x| x * 10).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn the_caller_works_the_first_chunk_and_keeps_its_width() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let me = std::thread::current().id();
        pool.install(|| {
            let ran_on: Vec<_> =
                (0..8).into_par_iter().map(|_| std::thread::current().id()).collect();
            assert_eq!(ran_on[..2], [me, me]);
            assert!(ran_on[2..].iter().all(|&t| t != me), "{ran_on:?}");
            assert_eq!(current_num_threads(), 4, "the inline chunk's width 1 was restored");
        });
    }

    #[test]
    fn closures_may_borrow_locals() {
        let base = [10i64, 20, 30];
        let idx: Vec<usize> = vec![2, 0, 1];
        let picked: Vec<i64> = idx.par_iter().map(|&i| base[i]).collect();
        assert_eq!(picked, vec![30, 10, 20]);
    }

    #[test]
    fn flat_map_and_sum() {
        let xs = vec![1usize, 2, 3];
        let total: usize = xs.par_iter().flat_map(|&x| 0..x).sum();
        assert_eq!(total, 4, "0..1, 0..2, 0..3 summed");
    }

    #[test]
    fn for_each_visits_everything() {
        let n = AtomicUsize::new(0);
        (0..997usize).into_par_iter().for_each(|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 997);
    }

    #[test]
    fn par_chunks_sees_every_chunk() {
        let xs: Vec<i32> = (0..256).collect();
        let sizes: Vec<usize> = xs.par_chunks(100).map(|c| c.len()).collect();
        assert_eq!(sizes, vec![100, 100, 56]);
    }

    #[test]
    fn install_fixes_width() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| assert_eq!(current_num_threads(), 1));
        let pool3 = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        pool3.install(|| assert_eq!(current_num_threads(), 3));
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn par_iter_mut_mutates_and_maps_in_order() {
        let mut xs: Vec<i64> = (0..1000).collect();
        xs.par_iter_mut().for_each(|x| *x *= 2);
        assert_eq!(xs[999], 1998);
        let reports: Vec<i64> = xs
            .par_iter_mut()
            .map(|x| {
                *x += 1;
                *x
            })
            .collect();
        assert_eq!(reports, (0..1000).map(|x| x * 2 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn one_thread_equals_many() {
        let xs: Vec<u64> = (0..10_000).collect();
        let job = || -> Vec<u64> {
            xs.par_iter().filter_map(|&x| (x % 7 != 0).then_some(x * 3)).collect()
        };
        let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(job);
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap().install(job);
        assert_eq!(serial, wide);
    }
}
