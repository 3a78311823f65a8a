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
//! The factors are stored column-wise in flat CSC arrays (one pointer
//! array, one index array and one value array per factor) so the solves
//! run on the [`qava_linalg::vecops`] gather/scatter kernels over
//! contiguous slices: a forward solve scatters one elimination column
//! into the dense right-hand side per step ([`vecops::scatter_axpy`]), a
//! transposed solve gathers one dot product per step
//! ([`vecops::gather_dot`]), and **steps whose pivot entry in the
//! running vector is zero are skipped entirely** — on the sparse
//! entering columns of the synthesis LPs most steps are.
//!
//! A factorization is rebuilt in place ([`LuFactors::factorize`]): the
//! flat arrays and the elimination workspace keep their capacity, so
//! once a few refactorizations of one system have sized them, rebuilding
//! the factors allocates nothing.

use qava_linalg::vecops;

/// Pivot eligibility: a row qualifies when its magnitude is within this
/// factor of the column maximum. 0.1 is the textbook threshold-pivoting
/// compromise between stability (multipliers ≤ 10) and sparsity freedom.
const PIVOT_REL_THRESHOLD: f64 = 0.1;

/// Absolute singularity cutoff on the pivot magnitude. The session
/// equilibrates the system to unit max-norms before any backend runs, so
/// entries are O(1) and an absolute tolerance is meaningful.
const SINGULAR_TOL: f64 = 1e-11;

/// Sparse columns packed into flat arrays: column `k` is
/// `idx[ptr[k]..ptr[k + 1]]` / `vals[ptr[k]..ptr[k + 1]]`, indices
/// increasing. Columns are appended in order after a
/// [`clear`](Self::clear) and cleared together.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatCols {
    ptr: Vec<usize>,
    idx: Vec<usize>,
    vals: Vec<f64>,
}

impl FlatCols {
    /// Empties the store, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.ptr.clear();
        self.ptr.push(0);
        self.idx.clear();
        self.vals.clear();
    }

    /// Makes room for `cols` more columns of `nnz` entries in total.
    pub(crate) fn reserve(&mut self, cols: usize, nnz: usize) {
        self.ptr.reserve(cols + 1);
        self.idx.reserve(nnz);
        self.vals.reserve(nnz);
    }

    /// Appends one column from `(index, value)` entries, sorting them by
    /// index in place first (indices are distinct, so the order — and
    /// with it every later gather/scatter's summation order — does not
    /// depend on the order the entries were found in).
    pub(crate) fn push_sorted(&mut self, entries: &mut [(usize, f64)]) {
        entries.sort_unstable_by_key(|&(i, _)| i);
        for &(i, v) in entries.iter() {
            self.idx.push(i);
            self.vals.push(v);
        }
        self.ptr.push(self.idx.len());
    }

    /// Column `k` as parallel `(indices, values)` slices.
    pub(crate) fn col(&self, k: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.ptr[k], self.ptr[k + 1]);
        (&self.idx[lo..hi], &self.vals[lo..hi])
    }

    /// Stored entries over all columns.
    pub(crate) fn nnz(&self) -> usize {
        self.idx.len()
    }
}

/// The elimination workspace of [`LuFactors::factorize`], kept between
/// factorizations so that rebuilding allocates nothing.
#[derive(Debug, Default)]
struct LuWork {
    /// Static row counts of the basis (the Markowitz tie-break).
    row_count: Vec<usize>,
    /// Column elimination order.
    order: Vec<usize>,
    /// Row → pivot position, `usize::MAX` while unpivoted.
    row_pos: Vec<usize>,
    /// Dense solve vector of the current column; all-zero between
    /// columns.
    x: Vec<f64>,
    /// Rows `x` touches, and their membership flags.
    touched: Vec<usize>,
    is_touched: Vec<bool>,
    /// The solved column's U and L entries before sorting.
    u_entries: Vec<(usize, f64)>,
    l_entries: Vec<(usize, f64)>,
}

/// A sparse LU factorization of an `m × m` basis matrix.
///
/// Step `k` of the elimination consumed basis column `col_order[k]` and
/// pivoted on original row `pos_row[k]`. Column `k` of `l` holds the
/// unit-lower-triangular multipliers (original row indices, diagonal 1
/// implicit); column `k` of `u` holds the upper-triangular entries in
/// **pivot position** indexing (all positions < `k`), with the diagonal
/// kept separately in `diag[k]`.
#[derive(Debug)]
pub(crate) struct LuFactors {
    m: usize,
    pub(crate) col_order: Vec<usize>,
    pub(crate) pos_row: Vec<usize>,
    l: FlatCols,
    pub(crate) u: FlatCols,
    pub(crate) diag: Vec<f64>,
    work: LuWork,
}

impl LuFactors {
    /// The factorization of the identity basis (the phase-1 artificial
    /// start): empty factors, identity permutations.
    pub(crate) fn identity(m: usize) -> Self {
        let empty = FlatCols { ptr: vec![0; m + 1], idx: Vec::new(), vals: Vec::new() };
        LuFactors {
            m,
            col_order: (0..m).collect(),
            pos_row: (0..m).collect(),
            l: empty.clone(),
            u: empty,
            diag: vec![1.0; m],
            work: LuWork::default(),
        }
    }

    /// Returns to the identity factorization in place, keeping the
    /// storage.
    pub(crate) fn reset(&mut self) {
        let m = self.m;
        self.col_order.clear();
        self.col_order.extend(0..m);
        self.pos_row.clear();
        self.pos_row.extend(0..m);
        for factor in [&mut self.l, &mut self.u] {
            factor.clear();
            factor.ptr.resize(m + 1, 0);
        }
        self.diag.clear();
        self.diag.resize(m, 1.0);
    }

    /// Stored nonzeros of `L` and `U` (diagonals included) — the fill-in
    /// measure the Forrest–Tomlin refactorization trigger is relative to.
    pub(crate) fn nnz(&self) -> usize {
        self.m + self.l.nnz() + self.u.nnz()
    }

    /// Refactorizes in place from the `m` basis columns `col(k)` (sorted
    /// row indices, nonzero values). Returns `false` when the matrix is
    /// (numerically) singular — a stale warm-start basis, typically — and
    /// then leaves the factors in an unusable state: callers factorize
    /// into a spare and keep their last good factors on failure.
    pub(crate) fn factorize<'c>(
        &mut self,
        col: impl Fn(usize) -> (&'c [usize], &'c [f64]),
    ) -> bool {
        let m = self.m;
        let w = &mut self.work;
        // Static row counts for the Markowitz tie-break.
        w.row_count.clear();
        w.row_count.resize(m, 0);
        let mut basis_nnz = 0;
        for k in 0..m {
            let idx = col(k).0;
            basis_nnz += idx.len();
            for &r in idx {
                w.row_count[r] += 1;
            }
        }
        // Column elimination order: ascending nonzero count, ties in
        // column order (the stable order, kept deterministic across runs).
        w.order.clear();
        w.order.extend(0..m);
        w.order.sort_unstable_by_key(|&j| (col(j).0.len(), j));

        self.col_order.clear();
        self.pos_row.clear();
        // Size the factors for the basis itself at once: with a sparse
        // basis, fill-in keeps L and U near its nonzero count.
        for factor in [&mut self.l, &mut self.u] {
            factor.clear();
            factor.reserve(m, basis_nnz);
        }
        self.diag.clear();
        w.row_pos.clear();
        w.row_pos.resize(m, usize::MAX);
        // Dense workspace + touched-row pattern for one column.
        w.x.clear();
        w.x.resize(m, 0.0);
        w.touched.clear();
        w.touched.reserve(m);
        w.is_touched.clear();
        w.is_touched.resize(m, false);
        w.u_entries.reserve(m);
        w.l_entries.reserve(m);

        for oi in 0..m {
            let j = w.order[oi];
            let (idx, vals) = col(j);
            for (&r, &v) in idx.iter().zip(vals) {
                w.x[r] = v;
                w.is_touched[r] = true;
                w.touched.push(r);
            }
            // Left-looking solve L·x = column: apply every prior
            // elimination column in order, skipping steps whose pivot
            // entry is (still) zero — for sparse columns that is the
            // vast majority.
            for t in 0..self.diag.len() {
                let xt = w.x[self.pos_row[t]];
                if xt == 0.0 {
                    continue;
                }
                let (li, lv) = self.l.col(t);
                for &r in li {
                    if !w.is_touched[r] {
                        w.is_touched[r] = true;
                        w.touched.push(r);
                    }
                }
                vecops::scatter_axpy(-xt, li, lv, &mut w.x);
            }

            // Threshold partial pivoting over the unpivoted rows, with
            // the static row count as the Markowitz-style tie-break.
            let mut col_max = 0.0f64;
            for &r in &w.touched {
                if w.row_pos[r] == usize::MAX {
                    col_max = col_max.max(w.x[r].abs());
                }
            }
            if col_max <= SINGULAR_TOL {
                return false; // structurally or numerically singular
            }
            let eligible = PIVOT_REL_THRESHOLD * col_max;
            let mut pivot_r = usize::MAX;
            let mut pivot_key = (usize::MAX, usize::MAX);
            for &r in &w.touched {
                if w.row_pos[r] == usize::MAX && w.x[r].abs() >= eligible {
                    let key = (w.row_count[r], r);
                    if key < pivot_key {
                        pivot_key = key;
                        pivot_r = r;
                    }
                }
            }
            let d = w.x[pivot_r];

            // Split the solved column: pivoted rows become the U column
            // (position-indexed), unpivoted rows the scaled L column.
            w.u_entries.clear();
            w.l_entries.clear();
            for &r in &w.touched {
                let v = w.x[r];
                // Reset the workspace as we read it out.
                w.x[r] = 0.0;
                w.is_touched[r] = false;
                if v == 0.0 || r == pivot_r {
                    continue;
                }
                match w.row_pos[r] {
                    usize::MAX => w.l_entries.push((r, v / d)),
                    t => w.u_entries.push((t, v)),
                }
            }
            w.touched.clear();

            let k = self.diag.len();
            w.row_pos[pivot_r] = k;
            self.col_order.push(j);
            self.pos_row.push(pivot_r);
            self.l.push_sorted(&mut w.l_entries);
            self.u.push_sorted(&mut w.u_entries);
            self.diag.push(d);
        }
        true
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
            let (li, lv) = self.l.col(k);
            vecops::scatter_axpy(-xk, li, lv, x);
        }
    }

    /// Applies `L⁻ᵀ` in place, `x` in **row** indexing: the transposed
    /// elimination columns in reverse order (gather form). The other
    /// half of the frozen-L hook pair ([`l_solve`](Self::l_solve)).
    pub(crate) fn lt_solve(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        for k in (0..self.m).rev() {
            let (li, lv) = self.l.col(k);
            if !li.is_empty() {
                x[self.pos_row[k]] -= vecops::gather_dot(li, lv, x);
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
                let (ui, uv) = self.u.col(k);
                for (&t, &v) in ui.iter().zip(uv) {
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
            let (ui, uv) = self.u.col(k);
            let s = c[self.col_order[k]] - vecops::gather_dot(ui, uv, &w);
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

    fn factorize(cols: &[(Vec<usize>, Vec<f64>)]) -> Option<LuFactors> {
        let mut lu = LuFactors::identity(cols.len());
        lu.factorize(|k| (&cols[k].0[..], &cols[k].1[..])).then_some(lu)
    }

    fn check_solves(dense: &Matrix) {
        let m = dense.rows();
        let lu = factorize(&cols_of(dense)).expect("nonsingular");
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
        assert!(factorize(&cols_of(&singular)).is_none());
        // Duplicate columns are numerically singular.
        let dup = Matrix::from_rows(vec![vec![1.0, 1.0], vec![2.0, 2.0]]);
        assert!(factorize(&cols_of(&dup)).is_none());
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
        let lu = factorize(&cols_of(&dense)).unwrap();
        assert!(lu.nnz() <= 4 * m, "band fill-in exploded: {} nonzeros", lu.nnz());
        check_solves(&dense);
    }
}
