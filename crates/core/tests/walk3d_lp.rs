//! Regression pin for the walk3d (3DWalk) εmax Hoeffding LP.
//!
//! This LP sits on a numerical knife edge: PR 2's accumulator
//! reordering pushed it into a Dantzig degenerate cycle that ground to
//! the pivot limit, and only the `--suite` 3DWalk row — not the tier
//! tests — caught it. The rescue is the all-Bland retry in the revised
//! simplex core (`revised::solve_equilibrated`); this test pins that
//! path directly for **both** revised backends (`sparse` and `lu-ft`), so
//! future simplex-numerics changes fail here in seconds instead of in a
//! full suite run.
//!
//! It also pins the LU backend's headline robustness property: walk3d
//! synthesis must complete with **zero feasibility-watchdog
//! refactor-backstop trips** (`LpStats::watchdog_restarts`) — the
//! conditioning failure the factorized representation exists to
//! eliminate.

use qava_core::hoeffding::{synthesize_reprsm_bound_in, BoundKind};
use qava_core::suite::walk3d_rows;
use qava_lp::{BackendChoice, LpSolver};

/// Enough Ser iterations to run the εmax LP plus a band of ε-probe LPs
/// over the same knife-edge structure, while keeping the test quick.
const SER_ITERATIONS: usize = 12;

#[test]
fn walk3d_epsmax_lp_survives_both_revised_backends() {
    let row = &walk3d_rows()[0]; // (x, y, z) = (100, 100, 100)
    let pts = row.compile();
    let mut lns = Vec::new();
    for choice in [BackendChoice::Sparse, BackendChoice::LuFt] {
        let mut solver = LpSolver::with_choice(choice);
        let r = synthesize_reprsm_bound_in(&pts, BoundKind::Hoeffding, SER_ITERATIONS, &mut solver)
            .unwrap_or_else(|e| panic!("{choice}: walk3d εmax synthesis failed: {e}"));
        let stats = solver.stats().clone();
        assert!(stats.solves > SER_ITERATIONS, "{choice}: Ser search must probe LPs");
        // A Dantzig cycle on this LP is acceptable only when the
        // all-Bland retry rescues it — reaching here unwrapped proves it
        // did; the counters document which path ran.
        let ln = r.bound.ln();
        assert!(
            ln < -50.0,
            "{choice}: walk3d bound degenerated to {ln} \
             ({} bland retries, {} watchdog restarts)",
            stats.bland_retries,
            stats.watchdog_restarts,
        );
        if choice == BackendChoice::LuFt {
            assert_eq!(
                stats.watchdog_restarts, 0,
                "{choice}: the factorized basis must not trip the feasibility \
                 watchdog on walk3d"
            );
        }
        lns.push((choice, ln));
    }
    // All revised backends must certify essentially the same bound.
    let (ca, la) = lns[0];
    for &(cb, lb) in &lns[1..] {
        assert!(
            (la - lb).abs() <= 1e-3 * la.abs().max(lb.abs()),
            "{ca} ({la}) and {cb} ({lb}) diverged on walk3d"
        );
    }
}
