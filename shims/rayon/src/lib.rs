//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this crate provides the
//! slice of rayon's API the workspace calls, executed on one persistent team
//! of helper threads (`team.rs`):
//!
//! * `slice.par_iter()` and `(a..b).into_par_iter()` with `map`,
//!   `filter_map`, `filter`, `flat_map`, `for_each` and
//!   `collect::<Vec<_>>()`;
//! * `slice.par_iter_mut().map(..).collect::<Vec<_>>()`;
//! * `ThreadPoolBuilder::new().num_threads(n).build()` and
//!   `ThreadPool::install(..)` — the installed width applies to every
//!   parallel call made inside the closure (thread-local), which is what
//!   the serial-vs-parallel determinism tests rely on;
//! * `current_num_threads()`.
//!
//! There is no `sum`, `reduce` or `max`. A reduction would add its grouping
//! to what output bytes depend on (a float sum is not associative), so a
//! caller folds after `collect`, in source order.
//!
//! **Execution.** A call over at most one item, a call at width 1, and a
//! call made inside another call's work run inline on the calling thread.
//! Any other call cuts its index space into fixed-size chunks of about
//! `len / (8 · width)` items (at least one) and hands them to the team: the
//! caller and up to `width − 1` helpers claim chunks one at a time, so
//! costly items bunched at one end of the input no longer leave a worker
//! idle. The caller allocates every chunk's output buffer, and each stage
//! hands an index's items straight on to the next stage, the last into that
//! buffer, so no stage allocates. A caller that finds the team busy with
//! another thread's call runs its own inline.
//!
//! **Determinism contract:** every combinator preserves input order exactly
//! — chunk outputs are concatenated in chunk order, whichever thread ran
//! each chunk — so a 1-thread and an N-thread run of the same pipeline
//! produce identical output. Side-effect order in `for_each` is *not*
//! specified, matching real rayon.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

mod team;

pub mod prelude {
    //! One-stop imports, mirroring `rayon::prelude`.
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator,
    };
}

thread_local! {
    /// Width installed by [`ThreadPool::install`]; `0` = not installed.
    static INSTALLED_WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads parallel calls on this thread will use.
pub fn current_num_threads() -> usize {
    match INSTALLED_WIDTH.with(Cell::get) {
        0 => default_width(),
        installed => installed,
    }
}

/// The width with no pool installed: `RAYON_NUM_THREADS` if it is a
/// positive integer, else the available parallelism. Read once, at first
/// use, as real rayon reads it when its global pool starts.
fn default_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
    })
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

    /// Build the pool. Width 0 or unset means the default width, which
    /// honours `RAYON_NUM_THREADS` as real rayon's does.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = match self.num_threads {
            Some(0) | None => default_width(),
            Some(n) => n,
        };
        Ok(ThreadPool { width })
    }
}

/// A "pool" fixing the parallel width for closures run via [`Self::install`].
///
/// What the pool carries is the width alone. Every pool shares the one
/// process-wide team of helper threads, which grows to the widest width
/// any call has run at, minus one (the caller works chunks too); a call at
/// width `n` wakes at most `n − 1` of its helpers.
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
}

/// Whether a call over `len` items at the current width goes to the team;
/// `Some(width)` when it does. A call at width 1 or over at most one item
/// runs inline on the caller. Every other call goes to the team, however
/// few its items: an item count says nothing of an item's cost, and a
/// call of eight shard appends or a few extent scans is worth spreading.
fn team_width(len: usize) -> Option<usize> {
    let width = current_num_threads();
    (width > 1 && len > 1).then_some(width)
}

/// The fixed chunk length of a team call: about eight chunks per thread,
/// so a costly chunk holds up one thread for an eighth of its share.
fn chunk_len(len: usize, width: usize) -> usize {
    (len / (8 * width)).max(1)
}

/// Run `fill` on every part on the team, each part with its own output
/// buffer (allocated here, on the caller, with the part's `capacity`), and
/// concatenate the outputs in part order: the result does not depend on
/// which thread ran which part.
fn run_parts<S: Send, R: Send>(
    width: usize,
    parts: impl Iterator<Item = (S, usize)>,
    fill: impl Fn(S, &mut Vec<R>) + Sync,
) -> Vec<R> {
    let slots: Vec<Mutex<(Option<S>, Vec<R>)>> = parts
        .map(|(part, capacity)| Mutex::new((Some(part), Vec::with_capacity(capacity))))
        .collect();
    let lock = |k: usize| slots[k].lock().expect("a part's slot is never locked while filling");
    team::run(width, slots.len(), &|k| {
        // Fill through a header on this thread's stack: neighbouring slots
        // share cache lines, and threads fill neighbouring parts at once.
        let (part, mut out) = {
            let mut slot = lock(k);
            (slot.0.take(), std::mem::take(&mut slot.1))
        };
        if let Some(part) = part {
            fill(part, &mut out);
        }
        lock(k).1 = out;
    });
    let outs: Vec<Vec<R>> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("a part's slot is never locked while filling").1)
        .collect();
    let mut out = Vec::with_capacity(outs.iter().map(Vec::len).sum());
    for mut part in outs {
        out.append(&mut part);
    }
    out
}

/// Run the pipeline `p` over its index space, outputs in index order.
fn execute<P: ParallelIterator>(p: P) -> Vec<P::Item> {
    let len = p.pipeline_len();
    let Some(width) = team_width(len) else {
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            p.produce(i, &mut |item| out.push(item));
        }
        return out;
    };
    let chunk = chunk_len(len, width);
    let ranges = (0..len).step_by(chunk).map(|lo| {
        let hi = (lo + chunk).min(len);
        (lo..hi, hi - lo)
    });
    run_parts(width, ranges, |range, out| {
        for i in range {
            p.produce(i, &mut |item| out.push(item));
        }
    })
}

/// The parallel-iterator surface (rayon's `ParallelIterator`), modelled as
/// an indexed pipeline: stages compose per-index producers, terminals
/// execute the composition once across the thread team.
pub trait ParallelIterator: Sized + Sync {
    /// Item type flowing out of this stage.
    type Item: Send;

    /// Number of source indexes driving the pipeline.
    fn pipeline_len(&self) -> usize;

    /// Hand the outputs for source index `i` to `sink`, in order.
    fn produce(&self, i: usize, sink: &mut impl FnMut(Self::Item));

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

    fn produce(&self, i: usize, sink: &mut impl FnMut(R)) {
        self.base.produce(i, &mut |item| sink((self.f)(item)));
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

    fn produce(&self, i: usize, sink: &mut impl FnMut(R)) {
        self.base.produce(i, &mut |item| (self.f)(item).into_iter().for_each(&mut *sink));
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

    fn produce(&self, i: usize, sink: &mut impl FnMut(I::Item)) {
        self.base.produce(i, &mut |item| {
            if (self.f)(&item) {
                sink(item);
            }
        });
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

    fn produce(&self, i: usize, sink: &mut impl FnMut(R)) {
        self.base.produce(i, &mut |item| (self.f)(item).into_iter().for_each(&mut *sink));
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

/// Borrowing root over a slice.
pub struct SliceIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;

    fn pipeline_len(&self) -> usize {
        self.items.len()
    }

    fn produce(&self, i: usize, sink: &mut impl FnMut(&'a T)) {
        sink(&self.items[i]);
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

    fn produce(&self, i: usize, sink: &mut impl FnMut(usize)) {
        sink(self.start + i);
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

/// `.into_par_iter()` on ranges.
pub trait IntoParallelIterator {
    /// The root stage type produced.
    type Iter: ParallelIterator;

    /// Owning parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
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
/// it gets its own chain (`MutRoot` → `map` → `collect`): the slice splits
/// into disjoint chunks via `chunks_mut`, each claimed by one thread, and
/// map outputs concatenate in chunk order (order-preserving).
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
    per_chunk: impl Fn(&mut [T], &mut Vec<R>) + Sync,
) -> Vec<R> {
    let len = items.len();
    let Some(width) = team_width(len) else {
        let mut out = Vec::with_capacity(len);
        per_chunk(items, &mut out);
        return out;
    };
    let parts = items.chunks_mut(chunk_len(len, width)).map(|part| {
        let n = part.len();
        (part, n)
    });
    run_parts(width, parts, per_chunk)
}

impl<'a, T: Send> MutRoot<'a, T> {
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
        C::from_ordered(execute_mut(self.items, |part, out| out.extend(part.iter_mut().map(&f))))
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::team::Team;
    use super::*;
    use std::collections::HashSet;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::thread::{self, ThreadId};

    /// A team of its own, so that tests running at the same time cannot
    /// share its helpers or keep it busy.
    fn own_team() -> &'static Team {
        Box::leak(Box::new(Team::new()))
    }

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<i64> = (0..1000).collect();
        let doubled: Vec<i64> = xs.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_after_a_many_item_stage_keeps_order() {
        let got: Vec<u64> = (0..300usize)
            .into_par_iter()
            .flat_map(|x| vec![x as u64, x as u64 + 1, x as u64 * 7])
            .filter(|v| v % 3 != 1)
            .collect();
        let want: Vec<u64> =
            (0..300u64).flat_map(|x| [x, x + 1, x * 7]).filter(|v| v % 3 != 1).collect();
        assert_eq!(got, want);
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
    fn the_caller_takes_part_and_gets_its_width_back() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let me = thread::current().id();
        pool.install(|| {
            let widths: Vec<usize> =
                (0..256).into_par_iter().map(|_| current_num_threads()).collect();
            // 1 inside a job; 4 when the team was busy and the call ran inline.
            assert!(widths.iter().all(|&w| w == 1 || w == 4), "{widths:?}");
            assert_eq!(current_num_threads(), 4, "the caller's width 1 inside the job was undone");
            let one: Vec<ThreadId> =
                (0..1).into_par_iter().map(|_| thread::current().id()).collect();
            assert_eq!(one, [me], "a one-item call runs inline");
        });

        // Each of two chunks waits for the other's thread, so the caller
        // cannot run both: it runs one, and a helper the other.
        let team = own_team();
        let both = Barrier::new(2);
        let ran_on = Mutex::new(Vec::new());
        team.run(2, 2, &|_| {
            both.wait();
            ran_on.lock().unwrap().push(thread::current().id());
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 2);
        assert!(ran_on.contains(&me) && ran_on.iter().any(|&t| t != me), "{ran_on:?}");
    }

    #[test]
    fn every_combinator_matches_the_sequential_fold() {
        for width in 1..=4usize {
            let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let mut lens = vec![0, 1, 2, 3, 63, 64, 65];
            // Lengths at which the chunk length steps up, and either side.
            for chunks in [9, 40] {
                let boundary = 8 * width * chunks;
                lens.extend([boundary - 1, boundary, boundary + 1]);
            }
            for len in lens {
                let xs: Vec<u64> = (0..len as u64).map(|x| x * 7919 % 1009).collect();
                let case = format!("width {width}, len {len}");
                pool.install(|| {
                    let got: Vec<u64> = xs.par_iter().map(|x| x * 3).collect();
                    assert_eq!(got, xs.iter().map(|x| x * 3).collect::<Vec<_>>(), "map, {case}");
                    let got: Vec<u64> =
                        xs.par_iter().filter_map(|&x| (x % 3 != 0).then_some(x + 1)).collect();
                    let want: Vec<u64> =
                        xs.iter().filter_map(|&x| (x % 3 != 0).then_some(x + 1)).collect();
                    assert_eq!(got, want, "filter_map, {case}");
                    let got: Vec<&u64> = xs.par_iter().filter(|x| **x % 2 == 0).collect();
                    let want: Vec<&u64> = xs.iter().filter(|x| **x % 2 == 0).collect();
                    assert_eq!(got, want, "filter, {case}");
                    let got: Vec<u64> = xs.par_iter().flat_map(|&x| 0..x % 4).collect();
                    let want: Vec<u64> = xs.iter().flat_map(|&x| 0..x % 4).collect();
                    assert_eq!(got, want, "flat_map, {case}");
                    let got: Vec<u64> = xs
                        .par_iter()
                        .filter_map(|&x| (x % 5 != 0).then_some(x))
                        .flat_map(|x| x..x + x % 3)
                        .filter(|v| v % 2 == 1)
                        .collect();
                    let want: Vec<u64> = xs
                        .iter()
                        .filter_map(|&x| (x % 5 != 0).then_some(x))
                        .flat_map(|x| x..x + x % 3)
                        .filter(|v| v % 2 == 1)
                        .collect();
                    assert_eq!(got, want, "filter_map, flat_map, filter, {case}");
                    let got: Vec<(usize, u64)> =
                        (0..len).into_par_iter().map(|i| (i, xs[i])).collect();
                    let want: Vec<(usize, u64)> = xs.iter().copied().enumerate().collect();
                    assert_eq!(got, want, "range, {case}");
                    let mut ys = xs.clone();
                    let got: Vec<u64> = ys
                        .par_iter_mut()
                        .map(|y| {
                            *y = *y * 2 + 1;
                            *y * 10
                        })
                        .collect();
                    let want: Vec<u64> = xs.iter().map(|y| (y * 2 + 1) * 10).collect();
                    assert_eq!(got, want, "par_iter_mut map, {case}");
                    let want: Vec<u64> = xs.iter().map(|y| y * 2 + 1).collect();
                    assert_eq!(ys, want, "par_iter_mut map writes, {case}");
                });
            }
        }
    }

    #[test]
    fn the_team_grows_to_the_widest_call_and_a_call_uses_at_most_its_width() {
        let team = own_team();
        let threads_of = |width: usize| {
            let seen = Mutex::new(HashSet::new());
            team.run(width, 64, &|_| {
                seen.lock().unwrap().insert(thread::current().id());
            });
            seen.into_inner().unwrap().len()
        };
        assert_eq!(team.helpers(), 0, "helpers start lazily");
        assert!(threads_of(3) <= 3);
        assert_eq!(team.helpers(), 2);
        assert!(threads_of(2) <= 2);
        assert_eq!(team.helpers(), 2, "a narrower call spawns none");
        assert!(threads_of(5) <= 5);
        assert_eq!(team.helpers(), 4);
        assert!(threads_of(2) <= 2, "a width-2 call wakes one of four helpers");
        assert!(threads_of(4) <= 4);
        assert_eq!(team.helpers(), 4);
        team.run(8, 3, &|_| {});
        assert_eq!(team.helpers(), 4, "a 3-chunk call needs two helpers at most");
    }

    #[test]
    fn a_helpers_panic_reaches_the_caller_and_the_team_still_works() {
        let team = own_team();
        let me = thread::current().id();
        let both = Barrier::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            team.run(2, 2, &|_| {
                both.wait();
                if thread::current().id() != me {
                    panic!("helper failed");
                }
            });
        }));
        let payload = caught.expect_err("the helper's panic is re-raised on the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper failed"));
        let done = AtomicUsize::new(0);
        team.run(2, 100, &|_| {
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.into_inner(), 100);
    }

    #[test]
    fn the_callers_panic_waits_for_every_helper_to_leave() {
        let team = own_team();
        let me = thread::current().id();
        let both = Barrier::new(2);
        let (tx, rx) = mpsc::channel::<()>();
        let (tx, rx) = (Mutex::new(Some(tx)), Mutex::new(rx));
        let helper_left = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            team.run(2, 2, &|_| {
                both.wait();
                if thread::current().id() == me {
                    // Dropped while unwinding, which releases the helper.
                    let _tx = tx.lock().unwrap().take();
                    panic!("caller failed");
                }
                assert!(rx.lock().unwrap().recv().is_err(), "nothing is ever sent");
                helper_left.store(true, Ordering::SeqCst);
            });
        }));
        let payload = caught.expect_err("the caller's panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller failed"));
        assert!(helper_left.load(Ordering::SeqCst), "the panic waited for the helper");
        let done = AtomicUsize::new(0);
        team.run(2, 100, &|_| {
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.into_inner(), 100);
    }

    #[test]
    fn a_caller_that_finds_the_team_busy_runs_inline() {
        let team = own_team();
        let started = Barrier::new(3);
        let release = Barrier::new(3);
        thread::scope(|s| {
            s.spawn(|| {
                team.run(2, 2, &|_| {
                    started.wait();
                    release.wait();
                });
            });
            started.wait();
            let me = thread::current().id();
            let ran_on = Mutex::new(Vec::new());
            team.run(4, 8, &|k| ran_on.lock().unwrap().push((k, thread::current().id())));
            let ran_on = ran_on.into_inner().unwrap();
            assert_eq!(ran_on, (0..8).map(|k| (k, me)).collect::<Vec<_>>());
            assert_eq!(team.helpers(), 1, "a busy team does not grow");
            release.wait();
        });
    }

    #[test]
    fn two_threads_calling_at_once_both_get_ordered_output() {
        let start = Barrier::new(2);
        let want: Vec<u64> = (0..5000u64).map(|x| x * x).collect();
        thread::scope(|s| {
            for width in [2, 4] {
                let (start, want) = (&start, &want);
                s.spawn(move || {
                    let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
                    start.wait();
                    for _ in 0..50 {
                        let got: Vec<u64> = pool.install(|| {
                            (0..5000usize).into_par_iter().map(|x| (x * x) as u64).collect()
                        });
                        assert_eq!(&got, want);
                    }
                });
            }
        });
    }

    #[test]
    fn a_nested_call_runs_inline() {
        let team = own_team();
        let inline = AtomicUsize::new(0);
        team.run(3, 16, &|_| {
            let me = thread::current().id();
            assert_eq!(current_num_threads(), 1);
            let ran_on: Vec<ThreadId> =
                (0..256).into_par_iter().map(|_| thread::current().id()).collect();
            if ran_on.iter().all(|&t| t == me) {
                inline.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(inline.into_inner(), 16);
    }

    #[test]
    fn closures_may_borrow_locals() {
        let base = [10i64, 20, 30];
        let idx: Vec<usize> = vec![2, 0, 1];
        let picked: Vec<i64> = idx.par_iter().map(|&i| base[i]).collect();
        assert_eq!(picked, vec![30, 10, 20]);
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
        let reports: Vec<i64> = xs
            .par_iter_mut()
            .map(|x| {
                *x = *x * 2 + 1;
                *x
            })
            .collect();
        assert_eq!(reports, (0..1000).map(|x| x * 2 + 1).collect::<Vec<_>>());
        assert_eq!(xs, reports);
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
