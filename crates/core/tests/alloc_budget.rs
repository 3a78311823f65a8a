//! Heap-allocation budget of the LP pivot loop.
//!
//! The revised simplex and the `lu-ft` engine keep their work vectors,
//! factor storage and update workspaces across pivots and
//! refactorizations, so a long Ser search allocates far less than once
//! per pivot. This binary installs a counting global allocator and runs
//! the `hoeffding-linear` search of 3DWalk (100, 150, 200) — the Table 1
//! run with the most pivots — in a fresh LP session, and requires fewer
//! heap allocations than pivots. It also prints the count of the
//! (300, 100, 150) search. Allocation counts do not jitter, so the
//! budget is exact and reproducible, unlike wall time.
//!
//! It is its own test binary with a single test (libtest would run a
//! second one on another thread, sharing the counter), so that nothing
//! else allocates while it counts.

use qava_core::hoeffding::{synthesize_reprsm_bound_in, BoundKind, DEFAULT_SER_ITERATIONS};
use qava_core::suite::walk3d_rows;
use qava_lp::LpSolver;
use qava_pts::Pts;
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

/// Heap allocations made while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// The `hoeffding-linear` search of `pts` in `solver`: its ln-bound.
fn search(pts: &Pts, solver: &mut LpSolver) -> f64 {
    synthesize_reprsm_bound_in(pts, BoundKind::Hoeffding, DEFAULT_SER_ITERATIONS, solver)
        .expect("every 3DWalk row has a RepRSM")
        .bound
        .ln()
}

#[test]
fn ser_search_allocates_less_than_once_per_pivot() {
    // The 3DWalk εmax ladder after its first point: (100, 150, 200),
    // (300, 100, 150).
    let points: Vec<Pts> = walk3d_rows().iter().skip(1).map(|row| row.compile()).collect();
    assert_eq!(points.len(), 2, "3DWalk has three sweep points");

    for (k, pts) in points.iter().enumerate() {
        let mut solver = LpSolver::new();
        let (ln, allocs) = counted(|| search(pts, &mut solver));
        assert!(ln.is_finite());
        let pivots = solver.stats().pivots;
        println!("cold search {k}: {allocs} heap allocations for {pivots} pivots");
        if k == 0 {
            // The Ser trajectory itself is pinned in `ser_trajectory.rs`;
            // this only checks the run is the long one the budget is
            // sized for.
            assert_eq!(pivots, 6455, "3DWalk (100, 150, 200) pivot count moved");
            assert!(
                allocs < pivots,
                "{allocs} heap allocations for {pivots} pivots ({:.2} per pivot)",
                allocs as f64 / pivots as f64
            );
        }
    }
}
