//! The explorer's step allocates nothing per node: a counting global
//! allocator shows that a whole `run_to_end` allocates a number of
//! buffers set by the tree's depth, not by how many nodes it visits.
//!
//! This is its own test binary because the allocator is process-wide;
//! the count is kept per thread so the test harness's own threads do
//! not leak into it.

use gridbnb_engine::toy::FullEnumeration;
use gridbnb_engine::{IntervalExplorer, Problem};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations made by `run_to_end` alone over the whole root range of
/// FullEnumeration(n), in pooled or scalar mode, with the node count.
fn run_to_end_allocations(n: usize, pooled: bool) -> (u64, u64) {
    let problem = FullEnumeration::new(n);
    let root = problem.shape().root_range();
    let mut explorer = IntervalExplorer::with_pooling(&problem, &root, None, pooled);
    let before = allocations();
    explorer.run_to_end();
    let made = allocations() - before;
    assert_eq!(explorer.stats().explored, problem.total_nodes_below_root());
    (made, explorer.stats().explored)
}

#[test]
fn run_to_end_allocations_do_not_grow_with_the_node_count() {
    for pooled in [true, false] {
        // Warm-up: anything lazily initialised on first use is paid here.
        run_to_end_allocations(6, pooled);
        let (small, small_nodes) = run_to_end_allocations(7, pooled);
        let (large, large_nodes) = run_to_end_allocations(8, pooled);
        assert!(large_nodes > 7 * small_nodes);
        // One more tree level may cost a few more buffers (a deeper stack,
        // a wider pool, one more improving leaf's solution), never a share
        // of the nodes.
        assert!(
            large <= small + 8,
            "pooled={pooled}: {small} allocations for {small_nodes} nodes, \
             {large} for {large_nodes}"
        );
        // The whole 40,320-leaf run reads 32 allocations pooled and 22
        // scalar: one solution per improving leaf, plus the stack, the
        // arena and the bound buffer growing by doubling. Below the
        // anchor a visit touches no `UBig`, so nothing else may appear;
        // the bound leaves half again as a margin.
        assert!(
            large < 48,
            "pooled={pooled}: {large} allocations for {large_nodes} nodes"
        );
    }
}
