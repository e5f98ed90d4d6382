//! No stage of a parallel pipeline allocates per index: the allocations a
//! collected pipeline makes do not grow with its length, apart from the
//! output buffer's own regrowth.
//!
//! This is a test binary of its own, so its counting allocator sees no other
//! test. It counts per thread, so tests running at the same time do not add
//! to each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Hands every call to `System`, counting allocations on the calling thread.
struct Counting;

// SAFETY: each method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract. The counter is a thread-local `Cell`
// with a const initialiser and no destructor, so counting never allocates.
// dtlint::allow(unsafe-block, reason = "counting allocator of a test binary; forwards to System")
unsafe impl GlobalAlloc for Counting {
    // dtlint::allow(unsafe-block, reason = "counting allocator of a test binary; forwards to System")
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // dtlint::allow(unsafe-block, reason = "counting allocator of a test binary; forwards to System")
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made while `pipeline(n)` runs at width 1, inline on this
/// thread.
fn allocations(n: usize, pipeline: &impl Fn(usize) -> Vec<usize>) -> usize {
    let pool = ThreadPoolBuilder::new().num_threads(1).build().expect("a width-1 pool builds");
    pool.install(|| {
        let before = ALLOCATIONS.with(Cell::get);
        black_box(pipeline(n));
        ALLOCATIONS.with(Cell::get) - before
    })
}

/// A hundredfold longer input may cost only the output buffer's regrowth.
fn allocates_only_its_output(stage: &str, pipeline: impl Fn(usize) -> Vec<usize>) {
    let small = allocations(1_000, &pipeline);
    let large = allocations(100_000, &pipeline);
    assert!(
        large <= small + 8,
        "{stage}: {small} allocations at n = 1,000 but {large} at n = 100,000"
    );
}

#[test]
fn map_allocates_only_its_output() {
    allocates_only_its_output("map", |n| (0..n).into_par_iter().map(|i| i * 3).collect());
}

#[test]
fn filter_map_allocates_only_its_output() {
    allocates_only_its_output("filter_map", |n| {
        (0..n).into_par_iter().filter_map(|i| (i % 3 != 0).then_some(i * 3)).collect()
    });
}

#[test]
fn filter_allocates_only_its_output() {
    allocates_only_its_output("filter", |n| {
        (0..n).into_par_iter().filter(|i| i % 3 != 0).collect()
    });
}

#[test]
fn flat_map_allocates_only_its_output() {
    allocates_only_its_output("flat_map", |n| {
        (0..n).into_par_iter().flat_map(|i| 0..i % 4).collect()
    });
}
