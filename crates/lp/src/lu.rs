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
//! The elimination itself is sparse in the same way: each column's
//! left-looking solve applies only the earlier elimination columns it
//! reaches, visited in increasing position from a bitset of reached
//! positions, instead of testing every earlier position. U is stored
//! keyed by pivot row and sorted, the form the Forrest–Tomlin engine
//! keeps it in, so the engine adopts each column by a plain copy.
//!
//! **Skip only provably-zero work.** A gather's or scatter's entry order
//! is part of the numeric contract: it fixes the summation order, and
//! with it every bit, pivot and work counter downstream. So a fast path
//! here (and in [`crate::ft`]) may skip work whose result is provably
//! zero or already computed — an unreached elimination column, a zero
//! pivot entry — but never reorders or regroups the arithmetic that
//! produces a nonzero. The unit tests hold the reached-column scan to
//! the all-positions scan it replaced bit for bit.
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
    /// Bitset over pivot positions: the earlier elimination columns the
    /// current column reaches (a pivoted row of `x` was written);
    /// all-zero between columns.
    reach: Vec<u64>,
    /// The solved column's U and L entries before sorting.
    u_entries: Vec<(usize, f64)>,
    l_entries: Vec<(usize, f64)>,
}

/// A sparse LU factorization of an `m × m` basis matrix.
///
/// Step `k` of the elimination consumed basis column `col_order[k]` and
/// pivoted on original row `pos_row[k]`. Column `k` of `l` holds the
/// unit-lower-triangular multipliers (original row indices, diagonal 1
/// implicit); column `k` of `u` holds the upper-triangular entries keyed
/// by **pivot row** (each row pivoted before step `k`), increasing, with
/// the diagonal kept separately in `diag[k]`. Row keys are what the
/// Forrest–Tomlin engine stores U by, so it adopts each column as is.
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
        self.factorize_with(col, eliminate_reached)
    }

    /// [`factorize`](Self::factorize) with the left-looking solve
    /// `L·x = column` given as `eliminate` (the unit tests pass the
    /// all-positions scan it replaced, as a reference).
    fn factorize_with<'c>(
        &mut self,
        col: impl Fn(usize) -> (&'c [usize], &'c [f64]),
        eliminate: fn(&FlatCols, &[usize], &mut LuWork),
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

        w.reach.clear();
        w.reach.resize(mask_words(m), 0);

        for oi in 0..m {
            let j = w.order[oi];
            let (idx, vals) = col(j);
            for (&r, &v) in idx.iter().zip(vals) {
                w.x[r] = v;
                w.is_touched[r] = true;
                w.touched.push(r);
            }
            eliminate(&self.l, &self.pos_row, w);

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

            // Split the solved column: pivoted rows become the U column,
            // unpivoted rows the scaled L column, both keyed by row.
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
                if w.row_pos[r] == usize::MAX {
                    w.l_entries.push((r, v / d));
                } else {
                    w.u_entries.push((r, v));
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
                vecops::scatter_axpy(-wk, ui, uv, x);
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
        // Uᵀ solve, forward over pivot positions (row-keyed gather),
        // then Lᵀ.
        let mut y = vec![0.0f64; self.m];
        for k in 0..self.m {
            let (ui, uv) = self.u.col(k);
            let s = c[self.col_order[k]] - vecops::gather_dot(ui, uv, &y);
            y[self.pos_row[k]] = s / self.diag[k];
        }
        self.lt_solve(&mut y);
        y
    }
}

/// The left-looking solve `L·x = column` of one factorization step:
/// applies exactly the earlier elimination columns the column reaches,
/// in increasing position. A column `t` reaches only rows unpivoted at
/// step `t`, so every position it marks lies after `t`, and the scan of
/// the `reach` bitset visits, in order, every position whose pivot
/// entry of `x` can be nonzero — the positions the all-positions scan
/// applies — and no other. Each applied column scatters the same
/// values in the same order, so the solved column is the same bit for
/// bit; the skipped positions cost nothing instead of one test each.
fn eliminate_reached(l: &FlatCols, pos_row: &[usize], w: &mut LuWork) {
    for &r in &w.touched {
        if w.row_pos[r] != usize::MAX {
            mask_set(&mut w.reach, w.row_pos[r]);
        }
    }
    for word in 0..w.reach.len() {
        while w.reach[word] != 0 {
            let t = word * 64 + w.reach[word].trailing_zeros() as usize;
            w.reach[word] &= w.reach[word] - 1;
            let xt = w.x[pos_row[t]];
            if xt == 0.0 {
                continue;
            }
            let (li, lv) = l.col(t);
            for &r in li {
                if !w.is_touched[r] {
                    w.is_touched[r] = true;
                    w.touched.push(r);
                }
                if w.row_pos[r] != usize::MAX {
                    mask_set(&mut w.reach, w.row_pos[r]);
                }
            }
            vecops::scatter_axpy(-xt, li, lv, &mut w.x);
        }
    }
}

/// Number of `u64` words a bitmask over `m` rows or positions needs.
pub(crate) fn mask_words(m: usize) -> usize {
    m.div_ceil(64)
}

/// Sets bit `i`.
pub(crate) fn mask_set(mask: &mut [u64], i: usize) {
    mask[i >> 6] |= 1u64 << (i & 63);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::revised::basis_col;
    use crate::CscMatrix;
    use qava_linalg::Matrix;

    /// A core-form instance of `tests/corpus` (the `.qlp` format of
    /// `tests/corpus.rs`): the fields a basis factorization needs.
    pub(crate) struct QlpInstance {
        pub name: String,
        pub a: CscMatrix,
        pub costs: Vec<f64>,
        pub b: Vec<f64>,
        pub warm: Option<Vec<usize>>,
    }

    /// Reads every instance of `tests/corpus`, in file-name order.
    fn corpus() -> Vec<QlpInstance> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("corpus directory")
            .map(|e| e.expect("corpus entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "qlp"))
            .collect();
        paths.sort();
        paths.iter().map(|p| read_qlp(p)).collect()
    }

    /// Reads one instance of `tests/corpus`.
    pub(crate) fn read_qlp(path: &std::path::Path) -> QlpInstance {
        let text = std::fs::read_to_string(path).expect("readable corpus file");
        let mut name = String::new();
        let (mut m, mut costs, mut b, mut rows, mut warm) =
            (0, Vec::new(), Vec::new(), Vec::new(), None);
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |k: usize| f[k].parse::<f64>().expect("number");
            let idx = |k: usize| f[k].parse::<usize>().expect("index");
            match f.first().copied() {
                Some("name") => name = f[1].to_string(),
                Some("m") => {
                    m = idx(1);
                    costs = vec![0.0; idx(3)];
                    b = vec![0.0; m];
                    rows = vec![Vec::new(); m];
                }
                Some("c") => costs[idx(1)] = num(2),
                Some("b") => b[idx(1)] = num(2),
                Some("a") => rows[idx(1)].push((idx(2), num(3))),
                Some("warm") => warm = Some((1..f.len()).map(idx).collect()),
                _ => {}
            }
        }
        let a = CscMatrix::from_sparse_rows(m, costs.len(), &rows);
        QlpInstance { name, a, costs, b, warm }
    }

    /// The all-positions elimination scan [`eliminate_reached`]
    /// replaced: tests the pivot entry of every earlier position.
    fn eliminate_all(l: &FlatCols, pos_row: &[usize], w: &mut LuWork) {
        for (t, &r) in pos_row.iter().enumerate() {
            let xt = w.x[r];
            if xt == 0.0 {
                continue;
            }
            let (li, lv) = l.col(t);
            for &r in li {
                if !w.is_touched[r] {
                    w.is_touched[r] = true;
                    w.touched.push(r);
                }
            }
            vecops::scatter_axpy(-xt, li, lv, &mut w.x);
        }
    }

    /// Factorizes `col` with the fast and the reference elimination and
    /// requires the same verdict and, on success, the same factors bit
    /// for bit. Returns the verdict.
    fn assert_matches_reference<'c>(
        m: usize,
        col: impl Fn(usize) -> (&'c [usize], &'c [f64]) + Copy,
        ctx: &str,
    ) -> bool {
        let (mut fast, mut reference) = (LuFactors::identity(m), LuFactors::identity(m));
        let ok = fast.factorize(col);
        assert_eq!(ok, reference.factorize_with(col, eliminate_all), "{ctx}: verdicts differ");
        if ok {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(fast.col_order, reference.col_order, "{ctx}: col_order");
            assert_eq!(fast.pos_row, reference.pos_row, "{ctx}: pos_row");
            assert_eq!(bits(&fast.diag), bits(&reference.diag), "{ctx}: diag");
            for (name, f, r) in [("L", &fast.l, &reference.l), ("U", &fast.u, &reference.u)] {
                assert_eq!(f.ptr, r.ptr, "{ctx}: {name} column pointers");
                assert_eq!(f.idx, r.idx, "{ctx}: {name} row keys");
                assert_eq!(bits(&f.vals), bits(&r.vals), "{ctx}: {name} values");
            }
        }
        ok
    }

    /// The final basis of every corpus instance (solved by the `lu-ft`
    /// engine) factorizes bit for bit like the all-positions scan, and a
    /// recorded warm basis gets the reference's verdict (the singular
    /// one is rejected by both).
    #[test]
    fn reached_elimination_matches_reference_on_corpus_bases() {
        let instances = corpus();
        assert!(instances.len() >= 20, "corpus went missing");
        let mut singular = 0;
        for inst in &instances {
            let (m, n) = (inst.a.rows(), inst.a.cols());
            let unit_rows: Vec<usize> = (0..m).collect();
            let out =
                crate::revised::solve_equilibrated_lu_ft(&inst.costs, &inst.a, &inst.b, None, None)
                    .unwrap_or_else(|e| panic!("{}: {e:?}", inst.name));
            let basis = &out.basis;
            let col = |k: usize| basis_col(&inst.a, n, basis[k], &unit_rows);
            let ok = assert_matches_reference(m, col, &inst.name);
            assert!(ok, "{}: final basis singular", inst.name);
            if let Some(warm) = &inst.warm {
                let col = |k: usize| basis_col(&inst.a, n, warm[k], &unit_rows);
                if !assert_matches_reference(m, col, &format!("{} warm", inst.name)) {
                    singular += 1;
                }
            }
        }
        assert!(singular >= 1, "the singular warm basis must be exercised");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]
        /// Random sparse bases, from 1 to 3 mask words of positions and
        /// from nearly empty to half dense (many of them singular, some
        /// with an empty or a repeated column), factorize bit for bit
        /// like the all-positions scan, and a singular one is rejected
        /// by both.
        #[test]
        fn reached_elimination_matches_reference_on_random_bases(
            m in 1usize..160,
            density in 1u32..50,
            seed in proptest::prelude::any::<u64>(),
            defect in 0u8..4,
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let p = f64::from(density) / 100.0;
            let mut cols: Vec<(Vec<usize>, Vec<f64>)> = (0..m)
                .map(|j| {
                    let mut col = (Vec::new(), Vec::new());
                    for i in 0..m {
                        // A diagonal most of the time keeps a share of
                        // the cases nonsingular at every density.
                        if (i == j && next() < 0.9) || next() < p {
                            col.0.push(i);
                            col.1.push(next() * 4.0 - 2.0);
                        }
                    }
                    col
                })
                .collect();
            match defect {
                1 => cols[m / 2] = (Vec::new(), Vec::new()),
                2 if m > 1 => cols[m - 1] = cols[0].clone(),
                _ => {}
            }
            let col = |k: usize| (&cols[k].0[..], &cols[k].1[..]);
            let ok = assert_matches_reference(m, col, &format!("m={m} p={p} seed={seed}"));
            if defect == 1 || (defect == 2 && m > 1) {
                proptest::prop_assert!(!ok, "an empty or repeated column must be singular");
            }
        }
    }

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
