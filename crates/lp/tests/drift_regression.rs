//! Regression pin for basis-representation drift.
//!
//! This is the final ExpLowSyn LP of the `Ref p = 1e-7` Table 2 row,
//! captured verbatim from the synthesis pipeline. Its optimum sits at
//! `c·x = 0.0015380…` — three orders of magnitude above the optimality
//! tolerance but small enough that accumulated basis-update error can
//! swallow it: before the revised simplex verified its optimality
//! verdicts against a fresh refactorization, the LU backend terminated
//! at a drifted point with objective ≈ 3.0e-7 and a constraint residual
//! of 4e-7, silently over-claiming the certified lower bound (1.000000
//! instead of 0.998463). Every backend must agree on this instance to
//! full tolerance, and every returned point must actually satisfy
//! `A·x = b`.

use qava_linalg::Matrix;
use qava_lp::{BackendChoice, LpSolver};

/// `c·x` at the optimum, from the dense-tableau oracle.
const OPTIMUM: f64 = 0.001538000076;

#[test]
fn tiny_coefficient_lp_agrees_across_backends() {
    let costs: Vec<f64> = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
    let b: Vec<f64> = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0, -0.0, -0.0, 2.9999992486607613e-7, -0.0, -0.0, -0.0, 0.0, -0.0, -0.0, -0.0, 9.999999494736425e-8, -0.0, -0.0, -0.0, 2.9999992486607613e-7, -0.0, -0.0, -0.0, 0.0, -0.0];
    let rows: Vec<Vec<(usize, f64)>> = vec![
        vec![(0, -1.0), (1, 1.0), (18, -1.0), (19, 1.0)],
        vec![(2, -1.0), (3, 1.0), (20, -1.0), (21, 1.0)],
        vec![(4, -1.0), (5, 1.0), (22, -1.0), (23, 1.0)],
        vec![(6, 1.0), (7, -1.0), (16, -1.0), (17, 1.0), (19, 20.0), (21, 16.0), (23, 16.0), (68, 1.0)],
        vec![(8, -1.0), (9, 1.0), (28, -1.0), (29, 1.0)],
        vec![(10, -1.0), (11, 1.0), (26, -1.0), (27, 1.0)],
        vec![(12, -1.0), (13, 1.0), (24, -1.0), (25, 1.0)],
        vec![(14, 1.0), (15, -1.0), (16, -1.0), (17, 1.0), (25, 16.0), (27, 15.0), (29, 19.0), (69, 1.0)],
        vec![(34, -1.0), (35, 1.0)],
        vec![(32, -1.0), (33, 1.0)],
        vec![(30, -1.0), (31, 1.0), (36, 1.0)],
        vec![(12, 0.9999997000000301), (13, -0.9999997000000301), (31, -16.0), (33, -15.0), (35, -19.0), (36, -15.0), (70, -1.0)],
        vec![(41, -1.0), (42, 1.0)],
        vec![(39, -1.0), (40, 1.0), (44, 1.0)],
        vec![(12, -1.0), (13, 1.0), (37, -1.0), (38, 1.0), (43, -1.0)],
        vec![(10, -1.0), (11, 1.0), (38, 16.0), (40, 15.0), (42, 19.0), (43, -16.0), (44, 14.0), (71, 1.0)],
        vec![(0, 0.9999999), (1, -0.9999999), (8, -0.9999999), (9, 0.9999999), (49, -1.0), (50, 1.0)],
        vec![(2, 0.9999999), (3, -0.9999999), (10, -0.9999999), (11, 0.9999999), (47, -1.0), (48, 1.0), (52, -1.0)],
        vec![(4, 0.9999999), (5, -0.9999999), (12, -0.9999999), (13, 0.9999999), (45, -1.0), (46, 1.0), (51, -1.0)],
        vec![(0, 0.9999999), (1, -0.9999999), (2, 0.9999999), (3, -0.9999999), (6, 0.9999999), (7, -0.9999999), (14, -0.9999999), (15, 0.9999999), (46, -16.0), (48, -15.0), (50, -19.0), (51, 16.0), (52, 15.0), (72, -1.0)],
        vec![(0, -0.9999997000000301), (1, 0.9999997000000301), (8, 0.9999997000000301), (9, -0.9999997000000301), (53, -1.0), (54, 1.0), (59, 1.0)],
        vec![(2, -0.9999997000000301), (3, 0.9999997000000301), (55, -1.0), (56, 1.0)],
        vec![(4, -0.9999997000000301), (5, 0.9999997000000301), (57, -1.0), (58, 1.0)],
        vec![(6, -0.9999997000000301), (7, 0.9999997000000301), (12, 0.9999997000000301), (13, -0.9999997000000301), (14, 0.9999997000000301), (15, -0.9999997000000301), (54, -20.0), (56, -16.0), (58, -16.0), (59, -19.0), (60, -15.0), (73, -1.0)],
        vec![(0, -1.0), (1, 1.0), (61, -1.0), (62, 1.0), (67, -1.0)],
        vec![(2, -1.0), (3, 1.0), (63, -1.0), (64, 1.0)],
        vec![(4, -1.0), (5, 1.0), (65, -1.0), (66, 1.0)],
        vec![(6, 1.0), (7, -1.0), (62, 20.0), (64, 16.0), (66, 16.0), (67, -20.0), (74, 1.0)],
        vec![(6, 1.0), (7, -1.0), (75, 1.0)],
    ];
    let ncols = 76;
    let mut a = Matrix::zeros(rows.len(), ncols);
    for (i, r) in rows.iter().enumerate() {
        for &(j, v) in r {
            a[(i, j)] = v;
        }
    }
    for choice in [BackendChoice::Sparse, BackendChoice::Dense, BackendChoice::LuFt] {
        let mut solver = LpSolver::with_choice(choice);
        let x = solver.solve_standard(&costs, &a, &b).unwrap();
        let obj: f64 = costs.iter().zip(&x).map(|(c, v)| c * v).sum();
        assert!(
            (obj - OPTIMUM).abs() < 1e-7,
            "{choice}: objective {obj:.12} drifted from {OPTIMUM:.12}"
        );
        for (i, r) in rows.iter().enumerate() {
            let lhs: f64 = r.iter().map(|&(j, v)| v * x[j]).sum();
            assert!(
                (lhs - b[i]).abs() < 1e-7,
                "{choice}: row {i} residual {:.3e}",
                (lhs - b[i]).abs()
            );
        }
        assert!(x.iter().all(|&v| v >= -1e-9), "{choice}: negative component");
    }
}
