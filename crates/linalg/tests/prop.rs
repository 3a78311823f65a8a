//! Property tests for the dense linear-algebra kernels the solvers rest
//! on: Gaussian elimination, nullspaces, least squares, inverses — plus
//! the accuracy of the fused `vecops` kernels against a naive loop.

use proptest::prelude::*;
use qava_linalg::{vecops, Matrix};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, cols), rows)
        .prop_map(Matrix::from_rows)
}

fn square(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `A · solve(A, b) = b` whenever a solution is reported.
    #[test]
    fn solve_satisfies_system(a in square(3), b in proptest::collection::vec(-5.0f64..5.0, 3)) {
        if let Some(x) = a.solve(&b) {
            let ax = a.mul_vec(&x);
            for (l, r) in ax.iter().zip(&b) {
                prop_assert!((l - r).abs() < 1e-6, "Ax = {ax:?} vs b = {b:?}");
            }
        }
    }

    /// Every reported nullspace vector is annihilated by the matrix, and
    /// rank + nullity = number of columns.
    #[test]
    fn nullspace_annihilates(a in matrix(3, 4)) {
        let ns = a.nullspace();
        for v in &ns {
            let av = a.mul_vec(v);
            prop_assert!(vecops::norm_inf(&av) < 1e-7, "A·v = {av:?}");
            prop_assert!(vecops::norm_inf(v) > 1e-9, "trivial basis vector");
        }
        prop_assert_eq!(a.rank() + ns.len(), 4);
    }

    /// The least-squares residual is orthogonal to the column space:
    /// `Aᵀ(Ax − b) ≈ 0`.
    #[test]
    fn least_squares_normal_equations(
        a in matrix(4, 2),
        b in proptest::collection::vec(-5.0f64..5.0, 4),
    ) {
        let x = a.least_squares(&b);
        let r: Vec<f64> = a.mul_vec(&x).iter().zip(&b).map(|(l, r)| l - r).collect();
        let atr = a.mul_vec_transposed(&r);
        // The implementation regularizes slightly, so allow a small slack.
        prop_assert!(vecops::norm_inf(&atr) < 1e-3, "Aᵀr = {atr:?}");
    }

    /// `A · A⁻¹ = I` whenever an inverse is reported.
    #[test]
    fn inverse_roundtrip(a in square(3)) {
        if let Some(inv) = a.inverse() {
            let prod = a.mul(&inv);
            for i in 0..3 {
                for j in 0..3 {
                    let want = if i == j { 1.0 } else { 0.0 };
                    prop_assert!((prod[(i, j)] - want).abs() < 1e-6);
                }
            }
        }
    }

    /// Transposition is an involution and distributes over products the
    /// usual way: `(AB)ᵀ = BᵀAᵀ`.
    #[test]
    fn transpose_product_identity(a in matrix(2, 3), b in matrix(3, 2)) {
        let left = a.mul(&b).transpose();
        let right = b.transpose().mul(&a.transpose());
        for i in 0..left.rows() {
            for j in 0..left.cols() {
                prop_assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-9);
            }
        }
    }

    /// `mul_vec_transposed` agrees with explicitly transposing.
    #[test]
    fn mul_vec_transposed_agrees(a in matrix(3, 4), x in proptest::collection::vec(-5.0f64..5.0, 3)) {
        let fast = a.mul_vec_transposed(&x);
        let slow = a.transpose().mul_vec(&x);
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert!((f - s).abs() < 1e-12);
        }
    }

    /// Rank is invariant under transposition.
    #[test]
    fn rank_transpose_invariant(a in matrix(3, 4)) {
        prop_assert_eq!(a.rank(), a.transpose().rank());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fused `dot`/`axpy` bodies reorder and fuse the arithmetic of a
    /// naive left-to-right loop, which moves a result by a few ulps of
    /// the magnitude flowing through it and never more. Lengths up to 47
    /// cross the switch to the fused bodies at eight entries and every
    /// remainder of their 8-wide blocks.
    #[test]
    fn fused_dot_and_axpy_stay_close_to_a_naive_sum(
        data in proptest::collection::vec(-9.0f64..9.0, 0..96),
        alpha in -4.0f64..4.0,
    ) {
        let half = data.len() / 2;
        let (a, b) = (&data[..half], &data[half..2 * half]);
        let naive: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let mag: f64 = a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum();
        let got = vecops::dot(a, b);
        prop_assert!((got - naive).abs() <= 1e-12 * (1.0 + mag), "dot len {half}: {got} vs {naive}");
        let mut y = b.to_vec();
        vecops::axpy(alpha, a, &mut y);
        for (i, (got, (x, y0))) in y.iter().zip(a.iter().zip(b)).enumerate() {
            let want = y0 + alpha * x;
            let mag = y0.abs() + (alpha * x).abs();
            prop_assert!((got - want).abs() <= 1e-12 * (1.0 + mag), "axpy len {half} slot {i}");
        }
    }
}
