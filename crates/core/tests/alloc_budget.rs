//! Heap-allocation budget of the LP pivot loop.
//!
//! The revised simplex and the `lu-ft` engine keep their work vectors,
//! factor storage and update workspaces across pivots and
//! refactorizations, so a long Ser search allocates far less than once
//! per pivot. This binary installs a counting global allocator and runs
//! the `hoeffding-linear` search of 3DWalk (100, 150, 200) — the Table 1
//! run with the most pivots — in a fresh LP session, and requires fewer
//! heap allocations than pivots. Allocation counts do not jitter, so the
//! budget is exact and reproducible, unlike wall time.
//!
//! It is its own test binary (one test, no other threads) so that
//! nothing else allocates while it counts.

use qava_core::hoeffding::{synthesize_reprsm_bound_in, BoundKind, DEFAULT_SER_ITERATIONS};
use qava_core::suite::table1;
use qava_lp::LpSolver;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose implementation upholds the `GlobalAlloc` contract; the counter
// is a relaxed atomic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn ser_search_allocates_less_than_once_per_pivot() {
    let row = table1()
        .into_iter()
        .find(|r| r.name == "3DWalk" && r.label == "(x, y, z) = (100, 150, 200)")
        .expect("3DWalk (100, 150, 200) is a Table 1 row");
    let pts = row.compile();
    let mut solver = LpSolver::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = synthesize_reprsm_bound_in(
        &pts,
        BoundKind::Hoeffding,
        DEFAULT_SER_ITERATIONS,
        &mut solver,
    )
    .expect("3DWalk (100, 150, 200) has a RepRSM");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let pivots = solver.stats().pivots;
    // The Ser trajectory itself is pinned in `ser_trajectory.rs`; this
    // only checks the run is the long one the budget is sized for.
    assert_eq!(pivots, 6455, "3DWalk (100, 150, 200) pivot count moved");
    assert!(r.bound.ln().is_finite());
    println!("{allocs} heap allocations for {pivots} pivots");
    assert!(
        allocs < pivots,
        "{allocs} heap allocations for {pivots} pivots ({:.2} per pivot)",
        allocs as f64 / pivots as f64
    );
}
