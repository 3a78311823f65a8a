//! Sparse LU factorization of simplex basis matrices.
//!
//! The [`FtBasis`](crate::ft::FtBasis) basis representation needs to
//! solve `B·x = b` (ftran) and `Bᵀ·y = c` (btran) against the current
//! basis matrix without ever forming `B⁻¹`. This module produces the
//! factorization `B·Q = L·U` (`Q` a column permutation, row permutation
//! folded into the pivot bookkeeping) by left-looking Gaussian
//! elimination over the basis columns in CSC form:
//!
//! * **Markowitz-flavored ordering** — columns are eliminated in
//!   ascending nonzero count, and the pivot row is chosen among the
//!   rows within [`PIVOT_REL_THRESHOLD`] of the largest magnitude as
//!   the one with the fewest nonzeros in the original basis. This is
//!   the standard lightweight approximation of the full dynamic
//!   Markowitz criterion: it bounds fill-in without maintaining an
//!   active-submatrix count structure, and keeps elimination
//!   deterministic.
//! * **Partial pivoting** — rows far below the column maximum are
//!   never eligible, so the multipliers in `L` stay bounded by
//!   `1 / PIVOT_REL_THRESHOLD` and the factorization cannot amplify a
//!   well-conditioned basis into garbage (the failure mode of the
//!   no-pivoting dense inverse on the degenerate walk3d systems).
//!
//! The factors are stored column-wise as parallel index/value slices so
//! the solves run on the [`qava_linalg::vecops`] gather/scatter kernels:
//! a forward solve scatters one elimination column into the dense
//! right-hand side per step ([`vecops::scatter_axpy`]), a transposed
//! solve gathers one dot product per step ([`vecops::gather_dot`]), and
//! **steps whose pivot entry in the running vector is zero are skipped
//! entirely** — on the sparse entering columns of the synthesis LPs most
//! steps are.

use qava_linalg::vecops;

/// Pivot eligibility: a row qualifies when its magnitude is within this
/// factor of the column maximum. 0.1 is the textbook threshold-pivoting
/// compromise between stability (multipliers ≤ 10) and sparsity freedom.
const PIVOT_REL_THRESHOLD: f64 = 0.1;

/// Absolute singularity cutoff on the pivot magnitude. The session
/// equilibrates the system to unit max-norms before any backend runs, so
/// entries are O(1) and an absolute tolerance is meaningful.
const SINGULAR_TOL: f64 = 1e-11;

/// One stored elimination column: parallel `(row, value)` slices. Shared
/// with the Forrest–Tomlin engine ([`crate::ft`]), which stores its
/// mutable U columns and row-spike etas in the same shape.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseCol {
    pub(crate) idx: Vec<usize>,
    pub(crate) vals: Vec<f64>,
}

impl SparseCol {
    pub(crate) fn from_entries(mut entries: Vec<(usize, f64)>) -> Self {
        entries.sort_unstable_by_key(|&(i, _)| i);
        SparseCol {
            idx: entries.iter().map(|&(i, _)| i).collect(),
            vals: entries.iter().map(|&(_, v)| v).collect(),
        }
    }

    pub(crate) fn nnz(&self) -> usize {
        self.idx.len()
    }
}

/// A sparse LU factorization of an `m × m` basis matrix.
///
/// Step `k` of the elimination consumed basis column `col_order[k]` and
/// pivoted on original row `pos_row[k]`. `l_cols[k]` holds the unit-
/// lower-triangular multipliers (original row indices, diagonal 1
/// implicit); `u_cols[k]` holds the upper-triangular entries in **pivot
/// position** indexing (all positions < `k`), with the diagonal kept
/// separately in `diag[k]`.
#[derive(Debug, Clone)]
pub(crate) struct LuFactors {
    m: usize,
    pub(crate) col_order: Vec<usize>,
    pub(crate) pos_row: Vec<usize>,
    l_cols: Vec<SparseCol>,
    pub(crate) u_cols: Vec<SparseCol>,
    pub(crate) diag: Vec<f64>,
}

impl LuFactors {
    /// The factorization of the identity basis (the phase-1 artificial
    /// start): empty factors, identity permutations.
    pub(crate) fn identity(m: usize) -> Self {
        LuFactors {
            m,
            col_order: (0..m).collect(),
            pos_row: (0..m).collect(),
            l_cols: vec![SparseCol::default(); m],
            u_cols: vec![SparseCol::default(); m],
            diag: vec![1.0; m],
        }
    }

    /// Stored nonzeros of `L` and `U` (diagonals included) — the fill-in
    /// measure the Forrest–Tomlin refactorization trigger is relative to.
    pub(crate) fn nnz(&self) -> usize {
        self.m
            + self.l_cols.iter().map(SparseCol::nnz).sum::<usize>()
            + self.u_cols.iter().map(SparseCol::nnz).sum::<usize>()
    }

    /// Factorizes the basis given as `m` sparse columns (sorted row
    /// indices, nonzero values). Returns `None` when the matrix is
    /// (numerically) singular — a stale warm-start basis, typically.
    pub(crate) fn factorize(m: usize, cols: &[(Vec<usize>, Vec<f64>)]) -> Option<LuFactors> {
        assert_eq!(cols.len(), m, "factorize: need exactly m basis columns");
        // Static row counts for the Markowitz tie-break.
        let mut row_count = vec![0usize; m];
        for (idx, _) in cols {
            for &r in idx {
                row_count[r] += 1;
            }
        }
        // Column elimination order: ascending nonzero count (stable sort
        // keeps the order deterministic across runs).
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&j| cols[j].0.len());

        let mut lu = LuFactors {
            m,
            col_order: Vec::with_capacity(m),
            pos_row: Vec::with_capacity(m),
            l_cols: Vec::with_capacity(m),
            u_cols: Vec::with_capacity(m),
            diag: Vec::with_capacity(m),
        };
        // row -> pivot position, MAX while unpivoted.
        let mut row_pos = vec![usize::MAX; m];
        // Dense workspace + touched-row pattern for one column.
        let mut x = vec![0.0f64; m];
        let mut touched: Vec<usize> = Vec::with_capacity(m);
        let mut is_touched = vec![false; m];

        for &j in &order {
            let (idx, vals) = &cols[j];
            for (&r, &v) in idx.iter().zip(vals) {
                x[r] = v;
                is_touched[r] = true;
                touched.push(r);
            }
            // Left-looking solve L·x = column: apply every prior
            // elimination column in order, skipping steps whose pivot
            // entry is (still) zero — for sparse columns that is the
            // vast majority.
            for t in 0..lu.diag.len() {
                let xt = x[lu.pos_row[t]];
                if xt == 0.0 {
                    continue;
                }
                let lc = &lu.l_cols[t];
                for &r in &lc.idx {
                    if !is_touched[r] {
                        is_touched[r] = true;
                        touched.push(r);
                    }
                }
                vecops::scatter_axpy(-xt, &lc.idx, &lc.vals, &mut x);
            }

            // Threshold partial pivoting over the unpivoted rows, with
            // the static row count as the Markowitz-style tie-break.
            let mut col_max = 0.0f64;
            for &r in &touched {
                if row_pos[r] == usize::MAX {
                    col_max = col_max.max(x[r].abs());
                }
            }
            if col_max <= SINGULAR_TOL {
                return None; // structurally or numerically singular
            }
            let eligible = PIVOT_REL_THRESHOLD * col_max;
            let mut pivot_r = usize::MAX;
            let mut pivot_key = (usize::MAX, usize::MAX);
            for &r in &touched {
                if row_pos[r] == usize::MAX && x[r].abs() >= eligible {
                    let key = (row_count[r], r);
                    if key < pivot_key {
                        pivot_key = key;
                        pivot_r = r;
                    }
                }
            }
            let d = x[pivot_r];

            // Split the solved column: pivoted rows become the U column
            // (position-indexed), unpivoted rows the scaled L column.
            let mut u_entries: Vec<(usize, f64)> = Vec::new();
            let mut l_entries: Vec<(usize, f64)> = Vec::new();
            for &r in &touched {
                let v = x[r];
                // Reset the workspace as we read it out.
                x[r] = 0.0;
                is_touched[r] = false;
                if v == 0.0 || r == pivot_r {
                    continue;
                }
                match row_pos[r] {
                    usize::MAX => l_entries.push((r, v / d)),
                    t => u_entries.push((t, v)),
                }
            }
            touched.clear();

            let k = lu.diag.len();
            row_pos[pivot_r] = k;
            lu.col_order.push(j);
            lu.pos_row.push(pivot_r);
            lu.l_cols.push(SparseCol::from_entries(l_entries));
            lu.u_cols.push(SparseCol::from_entries(u_entries));
            lu.diag.push(d);
        }
        Some(lu)
    }

    /// Applies `L⁻¹` in place, `x` in **row** indexing: the elimination
    /// columns in order, skipping steps whose pivot entry is (still)
    /// zero — the sparse-rhs fast path for sparse entering columns.
    ///
    /// The Forrest–Tomlin engine ([`crate::ft`]) keeps `L` frozen between
    /// refactorizations while replacing the U solve with its own
    /// spike-updated factors, so the factors expose only the L half.
    pub(crate) fn l_solve(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        for k in 0..self.m {
            let xk = x[self.pos_row[k]];
            if xk == 0.0 {
                continue;
            }
            let lc = &self.l_cols[k];
            vecops::scatter_axpy(-xk, &lc.idx, &lc.vals, x);
        }
    }

    /// Applies `L⁻ᵀ` in place, `x` in **row** indexing: the transposed
    /// elimination columns in reverse order (gather form). The other
    /// half of the frozen-L hook pair ([`l_solve`](Self::l_solve)).
    pub(crate) fn lt_solve(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        for k in (0..self.m).rev() {
            let lc = &self.l_cols[k];
            if !lc.idx.is_empty() {
                x[self.pos_row[k]] -= vecops::gather_dot(&lc.idx, &lc.vals, x);
            }
        }
    }

    /// Forward transformation in place: on entry `x` is the right-hand
    /// side `b` in **row** indexing, on exit the solution of `B·z = b`
    /// in **basis-slot** indexing. `scratch` must have length `m` and
    /// comes back zeroed. The unit tests check the factorization through
    /// this and [`btran`](Self::btran); the engine solves through
    /// [`l_solve`](Self::l_solve) and its own U.
    #[cfg(test)]
    fn ftran(&self, x: &mut [f64], scratch: &mut Vec<f64>) {
        self.l_solve(x);
        // U solve, backward over pivot positions; the solution component
        // of step k belongs to basis slot `col_order[k]`.
        scratch.resize(self.m, 0.0);
        for k in (0..self.m).rev() {
            let wk = x[self.pos_row[k]] / self.diag[k];
            if wk != 0.0 {
                let uc = &self.u_cols[k];
                for (&t, &v) in uc.idx.iter().zip(&uc.vals) {
                    x[self.pos_row[t]] -= v * wk;
                }
            }
            scratch[self.col_order[k]] = wk;
        }
        x.copy_from_slice(scratch);
        for v in scratch.iter_mut() {
            *v = 0.0;
        }
    }

    /// Backward transformation: solves `Bᵀ·y = c` with `c` in basis-slot
    /// indexing, returning `y` in row indexing — the simplex-multiplier
    /// solve `yᵀ = c_Bᵀ·B⁻¹`.
    #[cfg(test)]
    fn btran(&self, c: &[f64]) -> Vec<f64> {
        debug_assert_eq!(c.len(), self.m);
        // Uᵀ solve, forward over pivot positions (gather form).
        let mut w = vec![0.0f64; self.m];
        for k in 0..self.m {
            let uc = &self.u_cols[k];
            let s = c[self.col_order[k]] - vecops::gather_dot(&uc.idx, &uc.vals, &w);
            w[k] = s / self.diag[k];
        }
        // Scatter into row indexing, then Lᵀ.
        let mut y = vec![0.0f64; self.m];
        for k in 0..self.m {
            y[self.pos_row[k]] = w[k];
        }
        self.lt_solve(&mut y);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qava_linalg::Matrix;

    fn cols_of(dense: &Matrix) -> Vec<(Vec<usize>, Vec<f64>)> {
        (0..dense.cols())
            .map(|j| {
                let mut idx = Vec::new();
                let mut vals = Vec::new();
                for i in 0..dense.rows() {
                    if dense[(i, j)] != 0.0 {
                        idx.push(i);
                        vals.push(dense[(i, j)]);
                    }
                }
                (idx, vals)
            })
            .collect()
    }

    fn check_solves(dense: &Matrix) {
        let m = dense.rows();
        let lu = LuFactors::factorize(m, &cols_of(dense)).expect("nonsingular");
        let inv = dense.inverse().expect("nonsingular");
        // ftran against B⁻¹·b for a few right-hand sides (dense and unit).
        let mut scratch = Vec::new();
        for t in 0..=m {
            let b: Vec<f64> = if t < m {
                (0..m).map(|i| if i == t { 1.0 } else { 0.0 }).collect()
            } else {
                (0..m).map(|i| (i as f64) * 0.7 - 1.3).collect()
            };
            let mut x = b.clone();
            lu.ftran(&mut x, &mut scratch);
            let want = inv.mul_vec(&b);
            for (i, (&got, &w)) in x.iter().zip(&want).enumerate() {
                assert!((got - w).abs() < 1e-8, "ftran[{i}]: {got} vs {w}");
            }
            assert!(scratch.iter().all(|&v| v == 0.0), "scratch must come back zeroed");
            // btran against cᵀ·B⁻¹ with the same vector as c.
            let y = lu.btran(&b);
            let want_y = inv.mul_vec_transposed(&b);
            for (i, (&got, &w)) in y.iter().zip(&want_y).enumerate() {
                assert!((got - w).abs() < 1e-8, "btran[{i}]: {got} vs {w}");
            }
        }
    }

    #[test]
    fn identity_factors_are_trivial() {
        let lu = LuFactors::identity(4);
        assert_eq!(lu.nnz(), 4);
        let mut x = vec![1.0, -2.0, 3.0, 0.5];
        let mut scratch = Vec::new();
        lu.ftran(&mut x, &mut scratch);
        assert_eq!(x, vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(lu.btran(&x), vec![1.0, -2.0, 3.0, 0.5]);
    }

    #[test]
    fn matches_dense_inverse_on_small_matrices() {
        check_solves(&Matrix::from_rows(vec![vec![2.0]]));
        check_solves(&Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]));
        check_solves(&Matrix::from_rows(vec![
            vec![2.0, 1.0, 0.0],
            vec![0.0, 0.0, 3.0],
            vec![1.0, -1.0, 1.0],
        ]));
    }

    #[test]
    fn matches_dense_inverse_on_random_sparse_matrices() {
        // Deterministic LCG so the test needs no rng dependency.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0
        };
        for m in [4usize, 7, 12, 23] {
            for _ in 0..8 {
                let mut rows = vec![vec![0.0; m]; m];
                for (i, row) in rows.iter_mut().enumerate() {
                    // Guaranteed nonsingular: dominant diagonal + sparse
                    // off-diagonal fill.
                    row[i] = 3.0 + next().abs();
                    for (j, v) in row.iter_mut().enumerate() {
                        if j != i && next() > 0.5 {
                            *v = next();
                        }
                    }
                }
                check_solves(&Matrix::from_rows(rows));
            }
        }
    }

    #[test]
    fn permuted_and_rank_deficient_cases() {
        // A pure permutation matrix factorizes (pivoting handles it).
        check_solves(&Matrix::from_rows(vec![
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
        ]));
        // A zero column is structurally singular.
        let singular = Matrix::from_rows(vec![vec![1.0, 0.0], vec![2.0, 0.0]]);
        assert!(LuFactors::factorize(2, &cols_of(&singular)).is_none());
        // Duplicate columns are numerically singular.
        let dup = Matrix::from_rows(vec![vec![1.0, 1.0], vec![2.0, 2.0]]);
        assert!(LuFactors::factorize(2, &cols_of(&dup)).is_none());
    }

    #[test]
    fn fill_in_stays_bounded_on_band_matrix() {
        // Tridiagonal: proper ordering keeps L/U banded, so nnz(LU) must
        // stay linear in m rather than quadratic.
        let m = 40;
        let mut rows = vec![vec![0.0; m]; m];
        for (i, row) in rows.iter_mut().enumerate() {
            row[i] = 4.0;
            if i > 0 {
                row[i - 1] = -1.0;
            }
            if i + 1 < m {
                row[i + 1] = -1.0;
            }
        }
        let dense = Matrix::from_rows(rows);
        let lu = LuFactors::factorize(m, &cols_of(&dense)).unwrap();
        assert!(lu.nnz() <= 4 * m, "band fill-in exploded: {} nonzeros", lu.nnz());
        check_solves(&dense);
    }
}
